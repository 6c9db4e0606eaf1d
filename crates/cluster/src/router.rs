//! [`ClusterRouter`]: the per-party shard router/aggregator.
//!
//! The router owns the client-facing endpoint for **one party** and makes a
//! shard set look like one giant server. For every query it fans the
//! client's single key projection out to each shard-owner (whose masked
//! view of the table makes its answer an additive partial share, computed
//! over the shard's own subtrees only), sums the returned
//! share vectors lane-wise, and answers the client with one stamped
//! response. Because the per-row reduction is linear and the masked views
//! partition the rows, the sum is bit-identical to what an unsharded server
//! would have produced.
//!
//! # Pipelined service
//!
//! [`ClusterRouter::serve`] runs [`pir_wire::serve_split`]; a query's
//! [`Replies`] handle travels with its aggregate, and the leg that
//! completes the aggregate sends the reply.
//!
//! # Trust model
//!
//! One router per party, deployed alongside that party's shards. A router
//! only ever sees its own party's key projection — exactly what the shard
//! processes behind it see — so the non-collusion boundary is unchanged:
//! compromising a router reveals nothing an unsharded server of the same
//! party would not have revealed. No type in this crate can represent a
//! key pair.
//!
//! # The reload fence
//!
//! Hot reloads make sharding dangerous. The danger is precisely the *same
//! shard* answering the two parties at different table versions: the
//! pair-sum of that shard's contributions then carries a DPF-masked delta
//! of the updated row, corrupting **every** query's reconstruction, not
//! just the updated row's. (Different shards at different versions are
//! harmless — each shard's pair is internally consistent.) The router
//! cannot check rows (privacy), so it makes the danger *visible* instead:
//! every aggregate is stamped with a position-dependent digest of the
//! per-shard version vector it was computed from. Two parties that mixed
//! any shard differently produce different digests, and the client's
//! existing stamp comparison detects it, transparently retries once,
//! and fails with the typed `VersionSkew` on a double straddle — exactly
//! the single-process machinery, with no client changes. A mixed-version
//! pair is never silently reconstructed.
//!
//! On top of detection, the router keeps a per-table **fence**: the
//! expected version of every shard (pinned by a calibration query at
//! connect) plus a flip counter. `update_entry` is two-phase and serialized
//! by a staging lock — **stage** the row on every replica of the owning
//! shard, then **flip** the fence — which guarantees replicas stay
//! interchangeable across failover and gives queries a reference to chase:
//! a shard whose stamp lags the fence raced a flip mid-flight and is
//! re-asked exactly once before the aggregate is stamped, keeping
//! client-visible skew rare even under heavy reload churn. The fence lock
//! itself is never held across a network call.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use pir_protocol::{validate_update, PirError, PirResponse};
use pir_wire::{
    answer_one, decode_request, encode_message, serve_split, Catalog, CatalogEntry, ErrorCode,
    ErrorReply, PirTransport, QueryMsg, Replies, Request, ResponseMsg, UpdateAckMsg,
    UpdateEntryMsg, WireError, WireMessage, MAX_SUPPORTED_VERSION, MIN_SUPPORTED_VERSION,
};
use rand::SeedableRng;

use crate::backhaul::{LegSink, ShardConn};
use crate::config::{ClusterConfig, ClusterMembership};
use crate::error::ClusterError;
use crate::map::ShardMap;
use crate::stats::{RouterStatsSnapshot, RouterTelemetry, TableFenceSnapshot};

/// One table's reload fence.
struct TableFence {
    /// Expected per-shard table version, pinned by the connect-time
    /// calibration query (`None` only during connect itself).
    shard: Vec<Option<u64>>,
    /// Flip counter (starts at 1, +1 per applied update) — telemetry and
    /// the staged→flip ordering proof, not the response stamp.
    cluster: u64,
}

/// Digest of a per-shard version vector, used as the aggregate's response
/// stamp. Position-dependent (a mix, not a sum): two vectors that disagree
/// in compensating ways — party 0 saw update A but not B, party 1 saw B
/// but not A — must still produce different stamps, or a dangerous
/// cross-party mix would cancel out and go undetected.
fn stamp_digest(stamps: impl Iterator<Item = u64>) -> u64 {
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for stamp in stamps {
        digest ^= stamp.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        digest = digest.rotate_left(27).wrapping_mul(0x1000_0000_01b3);
    }
    digest
}

struct RouterInner {
    party: u8,
    /// Shard 0's catalog entries, re-advertised to clients.
    tables: Vec<CatalogEntry>,
    maps: HashMap<String, ShardMap>,
    /// Per-table fences, locked only for in-memory checks and flips.
    fences: Mutex<HashMap<String, TableFence>>,
    /// Serializes updates across stage + flip; queries never wait on it.
    staging: Mutex<()>,
    conns: Vec<Arc<ShardConn>>,
    /// Next back-haul id (0 is the wire's connection-level id).
    next_id: AtomicU64,
    telemetry: RouterTelemetry,
    stop: AtomicBool,
}

/// The per-party shard router/aggregator (see the module docs).
pub struct ClusterRouter {
    inner: Arc<RouterInner>,
    prober: Mutex<Option<JoinHandle<()>>>,
}

/// What the fan-out produced for one shard.
type ShardAnswer = Result<(Vec<u32>, u64), Box<WireMessage>>;

/// One client query in flight: its legs' answers, gathered until the last
/// one lands. Every leg's sink is this aggregate.
struct Aggregate {
    router: Arc<RouterInner>,
    /// The client's wire id, restored on the reply.
    client_id: u64,
    /// The router-wide back-haul id every leg travels under.
    id: u64,
    table: String,
    /// The encoded leg, shared by every shard and by a fence re-ask.
    frame: Arc<Vec<u8>>,
    /// The client connection's replies.
    replies: Replies,
    gather: Mutex<Gather>,
}

struct Gather {
    answers: Vec<Option<ShardAnswer>>,
    /// Legs still outstanding.
    outstanding: usize,
    /// The once-only fence re-ask was taken.
    reasked: bool,
}

impl ClusterRouter {
    /// Connect to every shard, validate the deployment, and build the
    /// router for `party`.
    ///
    /// Connect-time validation: every shard must answer for `party`,
    /// advertise a protocol ceiling at or above the supported floor (the
    /// fence is built on response stamps), and advertise a catalog identical
    /// to shard 0's (masked views share the schema, so any disagreement
    /// means mis-provisioning). Each shard's pipelined query link is dialed
    /// last.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid membership, party, a shard
    /// below the protocol floor, or a replica transport that cannot split
    /// into halves; [`ClusterError::CatalogMismatch`] for catalog
    /// disagreements; [`ClusterError::ShardUnavailable`] when a shard
    /// cannot be reached at all.
    pub fn connect(
        membership: &ClusterMembership,
        config: &ClusterConfig,
        party: u8,
    ) -> Result<Self, ClusterError> {
        membership.validate()?;
        if party > 1 {
            return Err(ClusterError::Config(format!(
                "two-server protocol: party must be 0 or 1, got {party}"
            )));
        }
        let conns: Vec<Arc<ShardConn>> = membership
            .shards
            .iter()
            .enumerate()
            .map(|(shard, endpoints)| Arc::new(ShardConn::new(shard, endpoints.replicas.clone())))
            .collect();
        let mut tables: Option<Vec<CatalogEntry>> = None;
        for conn in &conns {
            let catalog = conn.handshake()?;
            if catalog.party != party {
                return Err(ClusterError::Config(format!(
                    "shard {} answers for party {}, router fronts party {party}",
                    conn.shard(),
                    catalog.party
                )));
            }
            if catalog.protocol_version < MIN_SUPPORTED_VERSION {
                return Err(ClusterError::Config(format!(
                    "shard {} speaks protocol v{}, below the supported floor \
                     v{MIN_SUPPORTED_VERSION}",
                    conn.shard(),
                    catalog.protocol_version
                )));
            }
            match &tables {
                None => tables = Some(catalog.tables),
                Some(reference) => {
                    if &catalog.tables != reference {
                        return Err(ClusterError::CatalogMismatch {
                            shard: conn.shard(),
                            detail: format!(
                                "tables {:?} differ from shard 0's {:?}",
                                names(&catalog.tables),
                                names(reference)
                            ),
                        });
                    }
                }
            }
        }
        #[expect(
            clippy::expect_used,
            reason = "membership.validate() above rejects empty shard lists, so the loop ran at least once"
        )]
        let tables = tables.expect("membership has at least one shard");
        let mut maps = HashMap::new();
        let mut fences = HashMap::new();
        for entry in &tables {
            let map = ShardMap::new(entry.schema.entries, conns.len())?;
            fences.insert(
                entry.name.clone(),
                TableFence {
                    shard: vec![None; conns.len()],
                    cluster: 1,
                },
            );
            maps.insert(entry.name.clone(), map);
        }
        // Calibrate the fence: pin every shard's current table version with
        // a router-generated query, *before* any client traffic or update
        // can exist. Pinning lazily from client answers instead would race
        // concurrent flips (an answer's stamp reflects compute time, not
        // validation time) and could freeze the fence one version behind
        // forever. Connect time is the one quiescent moment where a stamp
        // is guaranteed current.
        let mut rng = rand::rngs::StdRng::seed_from_u64(0xfe9c_e0ca_11b8_47ed);
        for entry in &tables {
            let client = pir_protocol::PirClient::new(entry.schema, entry.prf_kind);
            #[expect(
                clippy::expect_used,
                reason = "the loop above inserted a fence for every table entry"
            )]
            let fence = fences.get_mut(&entry.name).expect("inserted above");
            for conn in &conns {
                let frame = encode_message(&WireMessage::Query(QueryMsg {
                    table: entry.name.clone(),
                    tenant: "cluster-fence-calibration".into(),
                    query: client.query(0, &mut rng).to_server(party),
                }));
                match conn.call(&frame)? {
                    WireMessage::Response(msg) => {
                        fence.shard[conn.shard()] = Some(msg.table_version);
                    }
                    WireMessage::Error(reply) => {
                        return Err(ClusterError::Config(format!(
                            "shard {} failed the fence-calibration query for {:?}: {}",
                            conn.shard(),
                            entry.name,
                            reply.message
                        )))
                    }
                    other => {
                        return Err(ClusterError::CatalogMismatch {
                            shard: conn.shard(),
                            detail: format!("calibration answered with a {} frame", other.name()),
                        })
                    }
                }
            }
        }
        for conn in &conns {
            conn.connect_link()?;
        }
        let inner = Arc::new(RouterInner {
            party,
            tables,
            maps,
            fences: Mutex::new(fences),
            staging: Mutex::new(()),
            conns,
            next_id: AtomicU64::new(1),
            telemetry: RouterTelemetry::default(),
            stop: AtomicBool::new(false),
        });
        #[expect(
            clippy::expect_used,
            reason = "OS thread spawn fails only on resource exhaustion; no recovery path at connect"
        )]
        let prober = config.probe_interval.map(|interval| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(crate::thread_name("prober-p", party))
                .spawn(move || {
                    while !inner.stop.load(Ordering::SeqCst) {
                        for conn in &inner.conns {
                            conn.try_probe();
                        }
                        // Parked, not asleep: `shutdown` unparks, so a drop
                        // never waits out the interval. A spurious wake is
                        // just an early probe round.
                        std::thread::park_timeout(interval);
                    }
                })
                .expect("spawn cluster prober")
        });
        Ok(Self {
            inner,
            prober: Mutex::new(prober),
        })
    }

    /// The party this router fronts.
    #[must_use]
    pub fn party(&self) -> u8 {
        self.inner.party
    }

    /// Number of shard-owners behind this router.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.inner.conns.len()
    }

    /// The shard map for `table`, if hosted.
    #[must_use]
    pub fn shard_map(&self, table: &str) -> Option<&ShardMap> {
        self.inner.maps.get(table)
    }

    /// Stop the background prober and close every shard's back-haul:
    /// queries still in flight, and any arriving later, are answered with a
    /// shed-flagged error. Returns without waiting on a shard. Idempotent;
    /// also runs on drop.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober.lock().take() {
            prober.thread().unpark();
            let _ = prober.join();
        }
        for conn in &self.inner.conns {
            conn.close();
        }
    }

    /// Serve one client connection until the peer hangs up, through
    /// [`pir_wire::serve_split`]. Run one `serve` thread per accepted
    /// connection. A client that stops reading stalls only its own writer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] for I/O failures and for a
    /// transport that cannot split into halves (nothing is read from it); a
    /// clean [`WireError::ConnectionClosed`] hang-up returns `Ok(())`.
    pub fn serve(&self, transport: Box<dyn PirTransport>) -> Result<(), WireError> {
        serve_split(
            transport,
            crate::thread_name("writer-p", self.inner.party),
            |frame, replies| self.inner.dispatch(frame, replies),
        )
    }

    /// Handle one request frame and produce the reply frame, blocking until
    /// it is ready (the one-frame special case of [`Self::serve`]). Total:
    /// every input, including garbage, yields an encoded reply.
    #[must_use]
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        answer_one(frame, |frame, replies| self.inner.dispatch(frame, replies))
    }

    /// Point-in-time router stats (telemetry, per-shard back-haul, fences).
    #[must_use]
    pub fn stats(&self) -> RouterStatsSnapshot {
        let inner = &self.inner;
        let mut fences: Vec<TableFenceSnapshot> = inner
            .fences
            .lock()
            .iter()
            .map(|(table, fence)| TableFenceSnapshot {
                table: table.clone(),
                cluster_version: fence.cluster,
                shard_versions: fence.shard.clone(),
            })
            .collect();
        fences.sort_by(|a, b| a.table.cmp(&b.table));
        RouterStatsSnapshot {
            party: inner.party,
            queries: inner.telemetry.queries.load(Ordering::Relaxed),
            fence_retries: inner.telemetry.fence_retries.load(Ordering::Relaxed),
            fence_lagged: inner.telemetry.fence_lagged.load(Ordering::Relaxed),
            updates_staged: inner.telemetry.updates_staged.load(Ordering::Relaxed),
            updates_flipped: inner.telemetry.updates_flipped.load(Ordering::Relaxed),
            shards: inner.conns.iter().map(|conn| conn.snapshot()).collect(),
            fences,
        }
    }
}

impl RouterInner {
    /// Answer one request frame: control frames at once, a query by fanning
    /// it out (the leg that completes it replies).
    fn dispatch(self: &Arc<Self>, frame: &[u8], replies: &Replies) {
        let message = match decode_request(frame) {
            Err(error) => error.into(),
            Ok(Request::CatalogRequest) => WireMessage::Catalog(Catalog {
                protocol_version: MAX_SUPPORTED_VERSION,
                party: self.party,
                tables: self.tables.clone(),
            }),
            Ok(Request::Query(query)) => match self.fan_out(query, replies) {
                Ok(()) => return,
                Err(error) => error.into(),
            },
            Ok(Request::UpdateEntry(update)) => self.handle_update(update),
        };
        replies.send(encode_message(&message));
    }

    /// Renumber one query under a fresh back-haul id and write it to every
    /// shard without waiting; each masked view turns the same projection
    /// into that shard's additive partial share.
    fn fan_out(self: &Arc<Self>, mut query: QueryMsg, replies: &Replies) -> Result<(), ErrorReply> {
        let client_id = query.query.query_id;
        self.telemetry.queries.fetch_add(1, Ordering::Relaxed);
        if query.query.party() != self.party {
            return Err(ErrorReply::new(
                ErrorCode::InvalidRequest,
                client_id,
                format!(
                    "this router fronts party {}, key is for party {}",
                    self.party,
                    query.query.party()
                ),
            ));
        }
        if !self.maps.contains_key(&query.table) {
            return Err(ErrorReply::new(
                ErrorCode::UnknownTable,
                client_id,
                format!("no table named {:?} is hosted", query.table),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        query.query.query_id = id;
        let table = query.table.clone();
        let frame = Arc::new(encode_message(&WireMessage::Query(query)));
        let aggregate = Arc::new(Aggregate {
            router: Arc::clone(self),
            client_id,
            id,
            table,
            frame: Arc::clone(&frame),
            replies: replies.clone(),
            gather: Mutex::new(Gather {
                answers: vec![None; self.conns.len()],
                outstanding: self.conns.len(),
                reasked: false,
            }),
        });
        for conn in &self.conns {
            conn.submit(
                id,
                Arc::clone(&frame),
                Arc::clone(&aggregate) as Arc<dyn LegSink>,
            );
        }
        Ok(())
    }

    /// Compare every shard's stamp against the fence, returning the
    /// shards whose answers *lag* it (they raced a flip mid-flight and
    /// hold the pre-reload table). An unpinned slot is pinned; a stamp
    /// *ahead* of the fence means the fence itself is stale (a flip
    /// landed between this router's bump and the shard's answer on the
    /// other party's router, or the stage landed before this router's
    /// flip — versions only ever advance), so the fence adopts it rather
    /// than flagging the shard.
    fn lagging_shards(&self, table: &str, stamps: &[u64]) -> Vec<usize> {
        let mut fences = self.fences.lock();
        let Some(fence) = fences.get_mut(table) else {
            return Vec::new(); // unhosted table: nothing to validate
        };
        let mut lagging = Vec::new();
        for (shard, &stamp) in stamps.iter().enumerate() {
            match fence.shard[shard] {
                None => fence.shard[shard] = Some(stamp),
                Some(expected) if stamp < expected => lagging.push(shard),
                Some(expected) if stamp > expected => fence.shard[shard] = Some(stamp),
                Some(_) => {}
            }
        }
        lagging
    }

    /// Apply one hot reload through the cluster-wide two-phase fence.
    fn handle_update(&self, update: UpdateEntryMsg) -> WireMessage {
        let unknown = || {
            ErrorReply::new(
                ErrorCode::UnknownTable,
                0,
                format!("no table named {:?} is hosted", update.table),
            )
            .into()
        };
        let Some(map) = self.maps.get(&update.table) else {
            return unknown();
        };
        let Some(schema) = self
            .tables
            .iter()
            .find(|entry| entry.name == update.table)
            .map(|entry| entry.schema)
        else {
            return unknown();
        };
        if let Err(err) = validate_update(schema, update.index, &update.bytes) {
            let code = match err {
                PirError::IndexOutOfRange { .. } => ErrorCode::IndexOutOfRange,
                _ => ErrorCode::InvalidRequest,
            };
            return ErrorReply::new(code, 0, err.to_string()).into();
        }
        let owner = map.owner_of(update.index);
        // One update at a time from stage to flip. Queries keep validating
        // meanwhile: an answer from a replica that already applied the
        // stage is *ahead* of the fence, which adopts it, so the flip below
        // takes the larger of the two.
        let _staging = self.staging.lock();
        let before = self
            .fences
            .lock()
            .get(&update.table)
            .and_then(|fence| fence.shard[owner]);
        self.telemetry
            .updates_staged
            .fetch_add(1, Ordering::Relaxed);
        let (table, index) = (update.table.clone(), update.index);
        match self.conns[owner].broadcast_update(&WireMessage::UpdateEntry(update)) {
            Ok(_acks) => {
                let mut fences = self.fences.lock();
                #[expect(
                    clippy::expect_used,
                    reason = "a fence is created for every hosted table at connect, and the map lookup above proved the table is hosted"
                )]
                let fence = fences.get_mut(&table).expect("hosted table has a fence");
                if let (Some(version), Some(before)) = (fence.shard[owner].as_mut(), before) {
                    // Each replica applied exactly one update: the shard's
                    // own version counter advanced by one.
                    *version = (*version).max(before + 1);
                }
                fence.cluster += 1;
                self.telemetry
                    .updates_flipped
                    .fetch_add(1, Ordering::Relaxed);
                WireMessage::UpdateAck(UpdateAckMsg { table, index })
            }
            // Zero replicas acked: nothing flipped, the fence is unchanged,
            // and the pre-update row is still what every query sees.
            Err(err) => backhaul_error_reply(&err, 0),
        }
    }
}

impl LegSink for Aggregate {
    fn leg_done(self: Arc<Self>, shard: usize, outcome: Result<WireMessage, ClusterError>) {
        let answer = self.shard_answer(shard, outcome);
        let answers = {
            let mut gather = self.gather.lock();
            gather.answers[shard] = Some(answer);
            gather.outstanding -= 1;
            if gather.outstanding > 0 {
                return;
            }
            std::mem::take(&mut gather.answers)
        };
        // Every leg has landed, so nothing else touches the gather now.
        if let Some(message) = self.settle(answers) {
            self.replies.send(encode_message(&message));
        }
    }
}

impl Aggregate {
    /// One shard's leg, mapped onto the client-visible outcome.
    fn shard_answer(
        &self,
        shard: usize,
        outcome: Result<WireMessage, ClusterError>,
    ) -> ShardAnswer {
        match outcome {
            Ok(WireMessage::Response(msg)) => Ok((msg.response.share, msg.table_version)),
            Ok(WireMessage::Error(reply)) => {
                // A shard-level typed error (shed, unknown table...) is the
                // aggregate's error, re-attributed to the client's query.
                Err(Box::new(WireMessage::Error(ErrorReply {
                    query_id: self.client_id,
                    ..reply
                })))
            }
            Ok(other) => Err(Box::new(
                ErrorReply::new(
                    ErrorCode::Protocol,
                    self.client_id,
                    format!(
                        "shard {shard} answered a query with a {} frame",
                        other.name()
                    ),
                )
                .into(),
            )),
            Err(err) => Err(Box::new(backhaul_error_reply(&err, self.client_id))),
        }
    }

    /// Every leg has answered: fence-validate, re-ask once, sum, stamp.
    /// Returns `None` when lagging shards were re-asked instead.
    fn settle(self: &Arc<Self>, answers: Vec<Option<ShardAnswer>>) -> Option<WireMessage> {
        let mut shares = Vec::with_capacity(answers.len());
        for answer in answers {
            match answer {
                Some(Ok(share)) => shares.push(share),
                Some(Err(reply)) => return Some(*reply),
                None => {
                    return Some(
                        ErrorReply::new(
                            ErrorCode::Protocol,
                            self.client_id,
                            "a shard leg went missing",
                        )
                        .into(),
                    )
                }
            }
        }
        let router = &self.router;
        // Chase the fence: a shard whose stamp lags it raced a flip
        // mid-flight and is re-asked exactly once (under the same id and
        // frame, never holding the fence lock across the network call).
        // Whatever versions remain after the retry are *answered* — the
        // digest stamp below exposes them to the client's cross-party
        // check, which is the actual safety net; the retry only keeps
        // client-visible skew rare.
        let stamps: Vec<u64> = shares.iter().map(|(_, stamp)| *stamp).collect();
        let lagging = router.lagging_shards(&self.table, &stamps);
        if !lagging.is_empty() {
            let mut gather = self.gather.lock();
            if !gather.reasked {
                router
                    .telemetry
                    .fence_retries
                    .fetch_add(1, Ordering::Relaxed);
                gather.reasked = true;
                gather.outstanding = lagging.len();
                gather.answers = shares.into_iter().map(|share| Some(Ok(share))).collect();
                for &shard in &lagging {
                    gather.answers[shard] = None;
                }
                drop(gather);
                for &shard in &lagging {
                    router.conns[shard].submit(
                        self.id,
                        Arc::clone(&self.frame),
                        Arc::clone(self) as Arc<dyn LegSink>,
                    );
                }
                return None;
            }
            router
                .telemetry
                .fence_lagged
                .fetch_add(1, Ordering::Relaxed);
        }
        let cluster = stamp_digest(stamps.into_iter());
        // Sum the partial shares lane-wise (wrapping add is associative and
        // commutative, so this is bit-identical to the unsharded answer).
        let mut shares = shares.into_iter().map(|(share, _)| share);
        let mut summed = shares.next().unwrap_or_default();
        for share in shares {
            if summed.len() != share.len() {
                return Some(
                    ErrorReply::new(
                        ErrorCode::Protocol,
                        self.client_id,
                        format!(
                            "shards disagree on share width ({} vs {} lanes): mis-provisioned \
                             cluster",
                            summed.len(),
                            share.len()
                        ),
                    )
                    .into(),
                );
            }
            for (lane, part) in summed.iter_mut().zip(&share) {
                *lane = lane.wrapping_add(*part);
            }
        }
        Some(WireMessage::Response(ResponseMsg {
            response: PirResponse {
                query_id: self.client_id,
                party: router.party,
                share: summed,
            },
            table_version: cluster,
        }))
    }
}

impl Drop for ClusterRouter {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for ClusterRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterRouter")
            .field("party", &self.inner.party)
            .field("shards", &self.inner.conns.len())
            .field("tables", &names(&self.inner.tables))
            .finish()
    }
}

fn names(tables: &[CatalogEntry]) -> Vec<&str> {
    tables.iter().map(|entry| entry.name.as_str()).collect()
}

/// Map a back-haul failure onto the client-visible typed reply. The typed
/// degradations — every replica of a shard is gone, or the router is
/// shutting down — are sheds, so clients treat them as retry-later
/// backpressure.
fn backhaul_error_reply(err: &ClusterError, query_id: u64) -> WireMessage {
    let code = match err {
        ClusterError::ShardUnavailable { .. } | ClusterError::ShuttingDown => ErrorCode::Shed,
        _ => ErrorCode::Protocol,
    };
    ErrorReply::new(code, query_id, err.to_string()).into()
}
