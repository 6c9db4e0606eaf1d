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
//! connect) plus a flip counter. `update_entry` is two-phase under the
//! fence lock — **stage** the row on every replica of the owning shard,
//! then **flip** the fence — which guarantees replicas stay
//! interchangeable across failover and gives queries a reference to chase:
//! a shard whose stamp lags the fence raced a flip mid-flight and is
//! re-asked exactly once before the aggregate is stamped, keeping
//! client-visible skew rare even under heavy reload churn.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::Mutex;
use pir_protocol::{validate_update, PirError, PirResponse};
use pir_wire::{
    decode_request, encode_message, Catalog, CatalogEntry, ErrorCode, ErrorReply, PirTransport,
    QueryMsg, ResponseMsg, UpdateAckMsg, UpdateEntryMsg, WireError, WireMessage,
    MAX_SUPPORTED_VERSION, MIN_SUPPORTED_VERSION,
};
use rand::SeedableRng;

use crate::backhaul::ShardConn;
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
    /// Per-table fences. One lock for all of them: `update_entry` holds it
    /// across stage+flip so queries validating mid-reload wait for a
    /// consistent post-flip state instead of shedding.
    fences: Mutex<HashMap<String, TableFence>>,
    conns: Vec<ShardConn>,
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

impl ClusterRouter {
    /// Connect to every shard, validate the deployment, and build the
    /// router for `party`.
    ///
    /// Connect-time validation: every shard must answer for `party`,
    /// advertise a protocol ceiling at or above the supported floor (the
    /// fence is built on response stamps), and advertise a catalog identical
    /// to shard 0's (masked views share the schema, so any disagreement
    /// means mis-provisioning).
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an invalid membership, party, or a
    /// shard below the protocol floor; [`ClusterError::CatalogMismatch`]
    /// for catalog disagreements; [`ClusterError::ShardUnavailable`] when a
    /// shard cannot be reached at all.
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
        let conns: Vec<ShardConn> = membership
            .shards
            .iter()
            .enumerate()
            .map(|(shard, endpoints)| ShardConn::new(shard, endpoints.replicas.clone()))
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
        // pir-lint: allow(panic-path, "membership.validate() above rejects empty shard lists, so the loop ran at least once")
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
            // pir-lint: allow(panic-path, "the loop above inserted a fence for every table entry")
            let fence = fences.get_mut(&entry.name).expect("inserted above");
            for conn in &conns {
                let query = client.query(0, &mut rng);
                let query_id = query.query_id;
                let frame = encode_message(&WireMessage::Query(QueryMsg {
                    table: entry.name.clone(),
                    tenant: "cluster-fence-calibration".into(),
                    query: query.to_server(party),
                }));
                match conn.call(&frame, Some(query_id))? {
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
        let inner = Arc::new(RouterInner {
            party,
            tables,
            maps,
            fences: Mutex::new(fences),
            conns,
            telemetry: RouterTelemetry::default(),
            stop: AtomicBool::new(false),
        });
        let prober = config.probe_interval.map(|interval| {
            let inner = Arc::clone(&inner);
            std::thread::Builder::new()
                .name(format!("cluster-prober-party{party}"))
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
                // pir-lint: allow(panic-path, "OS thread spawn fails only on resource exhaustion; no recovery path at connect")
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

    /// Stop the background prober. Idempotent; also runs on drop.
    pub fn shutdown(&self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        if let Some(prober) = self.prober.lock().take() {
            prober.thread().unpark();
            let _ = prober.join();
        }
    }

    /// Serve one client connection until the peer hangs up.
    ///
    /// One frame in, one frame out per connection (a session's window is
    /// served one query at a time — a pipelined router is an open ROADMAP
    /// item); run one `serve` thread per accepted connection for
    /// concurrency.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] for I/O failures; a clean
    /// [`WireError::ConnectionClosed`] hang-up returns `Ok(())`.
    pub fn serve(&self, mut transport: Box<dyn PirTransport>) -> Result<(), WireError> {
        loop {
            let frame = match transport.recv() {
                Ok(frame) => frame,
                Err(WireError::ConnectionClosed) => return Ok(()),
                Err(err) => return Err(err),
            };
            let reply = self.handle_frame(&frame);
            match transport.send(&reply) {
                Ok(()) => {}
                Err(WireError::ConnectionClosed) => return Ok(()),
                Err(err) => return Err(err),
            }
        }
    }

    /// Handle one request frame and produce the reply frame. Total: every
    /// input, including garbage, yields an encoded reply.
    #[must_use]
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let reply = match decode_request(frame) {
            Err(reply) => reply.into(),
            Ok(WireMessage::CatalogRequest) => WireMessage::Catalog(Catalog {
                protocol_version: MAX_SUPPORTED_VERSION,
                party: self.inner.party,
                tables: self.inner.tables.clone(),
            }),
            Ok(WireMessage::Query(query)) => self.handle_query(query),
            Ok(WireMessage::UpdateEntry(update)) => self.handle_update(update),
            Ok(other) => ErrorReply::new(
                ErrorCode::InvalidRequest,
                0,
                format!("router cannot accept a {} message", other.name()),
            )
            .into(),
        };
        encode_message(&reply)
    }

    /// Answer one query: fan out, fence-validate, retry once, sum, stamp.
    fn handle_query(&self, query: QueryMsg) -> WireMessage {
        let inner = &self.inner;
        let query_id = query.query.query_id;
        inner.telemetry.queries.fetch_add(1, Ordering::Relaxed);
        if query.query.party() != inner.party {
            return ErrorReply::new(
                ErrorCode::InvalidRequest,
                query_id,
                format!(
                    "this router fronts party {}, key is for party {}",
                    inner.party,
                    query.query.party()
                ),
            )
            .into();
        }
        let Some((table, _)) = inner.maps.get_key_value(&query.table) else {
            return ErrorReply::new(
                ErrorCode::UnknownTable,
                query_id,
                format!("no table named {:?} is hosted", query.table),
            )
            .into();
        };
        // Fan the same projection out to every shard in parallel; each
        // masked view turns it into that shard's additive partial share.
        // Every leg (and a fence-retry re-ask) sends the same bytes, so the
        // frame is encoded once.
        let frame = encode_message(&WireMessage::Query(query));
        let mut answers: Vec<ShardAnswer> = std::thread::scope(|scope| {
            let handles: Vec<_> = inner
                .conns
                .iter()
                .map(|conn| scope.spawn(|| self.query_shard(conn, &frame, query_id)))
                .collect();
            handles
                .into_iter()
                // pir-lint: allow(panic-path, "join errors only if the scoped thread panicked; re-raising the panic is the point")
                .map(|handle| handle.join().expect("shard fan-out thread panicked"))
                .collect()
        });
        if let Some(Err(reply)) = answers.iter().find(|outcome| outcome.is_err()) {
            return (**reply).clone();
        }
        // Chase the fence: a shard whose stamp lags it raced a flip
        // mid-flight and is re-asked exactly once (never holding the fence
        // lock across the network call). Whatever versions remain after
        // the retry are *answered* — the digest stamp below exposes them
        // to the client's cross-party check, which is the actual safety
        // net; the retry only keeps client-visible skew rare.
        let lagging = self.lagging_shards(table, &answers);
        if !lagging.is_empty() {
            inner
                .telemetry
                .fence_retries
                .fetch_add(1, Ordering::Relaxed);
            for &shard in &lagging {
                answers[shard] = self.query_shard(&inner.conns[shard], &frame, query_id);
            }
            if let Some(Err(reply)) = answers.iter().find(|outcome| outcome.is_err()) {
                return (**reply).clone();
            }
            if !self.lagging_shards(table, &answers).is_empty() {
                inner.telemetry.fence_lagged.fetch_add(1, Ordering::Relaxed);
            }
        }
        let shares = match answers
            .iter()
            .map(Result::as_ref)
            .collect::<Result<Vec<_>, _>>()
        {
            Ok(shares) => shares,
            Err(reply) => return (**reply).clone(),
        };
        let cluster = stamp_digest(shares.iter().map(|(_, stamp)| *stamp));
        // Sum the partial shares lane-wise (wrapping add is associative and
        // commutative, so this is bit-identical to the unsharded answer).
        let mut summed: Vec<u32> = Vec::new();
        for (share, _) in &shares {
            if summed.is_empty() {
                summed = share.clone();
            } else if summed.len() != share.len() {
                return ErrorReply::new(
                    ErrorCode::Protocol,
                    query_id,
                    format!(
                        "shards disagree on share width ({} vs {} lanes): mis-provisioned \
                         cluster",
                        summed.len(),
                        share.len()
                    ),
                )
                .into();
            } else {
                for (lane, part) in summed.iter_mut().zip(share.iter()) {
                    *lane = lane.wrapping_add(*part);
                }
            }
        }
        WireMessage::Response(ResponseMsg {
            response: PirResponse {
                query_id,
                party: inner.party,
                share: summed,
            },
            table_version: cluster,
        })
    }

    /// One shard's leg of the fan-out, mapped onto the client-visible
    /// outcome.
    fn query_shard(&self, conn: &ShardConn, frame: &[u8], query_id: u64) -> ShardAnswer {
        match conn.call(frame, Some(query_id)) {
            Ok(WireMessage::Response(msg)) => Ok((msg.response.share, msg.table_version)),
            Ok(WireMessage::Error(reply)) => {
                // A shard-level typed error (shed, unknown table...) is the
                // aggregate's error, re-attributed to the client's query.
                Err(Box::new(WireMessage::Error(ErrorReply {
                    query_id,
                    ..reply
                })))
            }
            Ok(other) => Err(Box::new(
                ErrorReply::new(
                    ErrorCode::Protocol,
                    query_id,
                    format!(
                        "shard {} answered a query with a {} frame",
                        conn.shard(),
                        other.name()
                    ),
                )
                .into(),
            )),
            Err(err) => Err(Box::new(backhaul_error_reply(&err, query_id))),
        }
    }

    /// Compare every shard's stamp against the fence, returning the
    /// shards whose answers *lag* it (they raced a flip mid-flight and
    /// hold the pre-reload table). An unpinned slot is pinned; a stamp
    /// *ahead* of the fence means the fence itself is stale (a flip
    /// landed between this router's bump and the shard's answer on the
    /// other party's router — versions only ever advance), so the fence
    /// adopts it rather than flagging the shard.
    fn lagging_shards(&self, table: &str, answers: &[ShardAnswer]) -> Vec<usize> {
        let mut fences = self.inner.fences.lock();
        let Some(fence) = fences.get_mut(table) else {
            return Vec::new(); // unhosted table: nothing to validate
        };
        let mut lagging = Vec::new();
        for (shard, outcome) in answers.iter().enumerate() {
            let Ok((_, stamp)) = outcome.as_ref() else {
                continue; // errored legs were already returned to the client
            };
            match fence.shard[shard] {
                None => fence.shard[shard] = Some(*stamp),
                Some(expected) if *stamp < expected => lagging.push(shard),
                Some(expected) if *stamp > expected => fence.shard[shard] = Some(*stamp),
                Some(_) => {}
            }
        }
        lagging
    }

    /// Apply one hot reload through the cluster-wide two-phase fence.
    fn handle_update(&self, update: UpdateEntryMsg) -> WireMessage {
        let inner = &self.inner;
        let Some(map) = inner.maps.get(&update.table) else {
            return ErrorReply::new(
                ErrorCode::UnknownTable,
                0,
                format!("no table named {:?} is hosted", update.table),
            )
            .into();
        };
        let Some(schema) = inner
            .tables
            .iter()
            .find(|entry| entry.name == update.table)
            .map(|entry| entry.schema)
        else {
            return ErrorReply::new(
                ErrorCode::UnknownTable,
                0,
                format!("no table named {:?} is hosted", update.table),
            )
            .into();
        };
        if let Err(err) = validate_update(schema, update.index, &update.bytes) {
            let code = match err {
                PirError::IndexOutOfRange { .. } => ErrorCode::IndexOutOfRange,
                _ => ErrorCode::InvalidRequest,
            };
            return ErrorReply::new(code, 0, err.to_string()).into();
        }
        let owner = map.owner_of(update.index);
        // Hold the fence lock across stage+flip: queries validating during
        // the staging window wait and then see the consistent post-flip
        // fence, so the exactly-once retry is enough.
        let mut fences = self.inner.fences.lock();
        inner
            .telemetry
            .updates_staged
            .fetch_add(1, Ordering::Relaxed);
        let staged = inner.conns[owner].broadcast_update(&WireMessage::UpdateEntry(update.clone()));
        match staged {
            Ok(_acks) => {
                let fence = fences
                    .get_mut(&update.table)
                    // pir-lint: allow(panic-path, "a fence is created for every hosted table at connect, and the map lookup above proved the table is hosted")
                    .expect("hosted table has a fence");
                if let Some(version) = fence.shard[owner].as_mut() {
                    // Each replica applied exactly one update: the shard's
                    // own version counter advanced by one.
                    *version += 1;
                }
                fence.cluster += 1;
                inner
                    .telemetry
                    .updates_flipped
                    .fetch_add(1, Ordering::Relaxed);
                WireMessage::UpdateAck(UpdateAckMsg {
                    table: update.table,
                    index: update.index,
                })
            }
            // Zero replicas acked: nothing flipped, the fence is unchanged,
            // and the pre-update row is still what every query sees.
            Err(err) => backhaul_error_reply(&err, 0),
        }
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
            shards: inner.conns.iter().map(ShardConn::snapshot).collect(),
            fences,
        }
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
/// degradation — every replica of a shard is gone — is a shed, so clients
/// treat it as retry-later backpressure.
fn backhaul_error_reply(err: &ClusterError, query_id: u64) -> WireMessage {
    let code = match err {
        ClusterError::ShardUnavailable { .. } => ErrorCode::Shed,
        _ => ErrorCode::Protocol,
    };
    ErrorReply::new(code, query_id, err.to_string()).into()
}
