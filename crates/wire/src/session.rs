//! [`PirSession`]: the transport-agnostic client of the two-server PIR
//! service.
//!
//! A session owns **two independent connections** — one per non-colluding
//! server — and this module is deliberately the only place where the pair
//! of DPF keys exists: each server's connection carries only that server's
//! projection, so the trust boundary of the paper's deployment (phone-class
//! client, two servers that must not collude) is enforced by construction
//! rather than by convention. Table shapes are *discovered* from the
//! servers' catalogs instead of being injected by the caller, so a client
//! needs nothing but two addresses and a tenant name.
//!
//! # Pipelining
//!
//! The session is *pipelined*: [`PirSession::submit`] issues a query
//! without waiting for the answer, keeping up to `window` queries in
//! flight, and [`PirSession::poll`] returns completions **in the order the
//! servers finish them** — not submission order. Responses carry
//! table-version stamps; if a query's two shares straddled a hot reload
//! (stamps differ, the shares would reconstruct garbage) the session
//! retries it transparently, exactly once. The classic blocking
//! [`PirSession::query`] remains as the one-deep special case.
//!
//! There is no version negotiation: the session speaks [`PROTOCOL_V2`], and
//! a server whose catalog advertises a ceiling below
//! [`MIN_SUPPORTED_VERSION`] fails [`PirSession::connect`] with the typed
//! [`WireError::UnsupportedVersion`] (a server that rejects the handshake
//! frame outright produces the same error from its reply).

use std::collections::{BTreeMap, VecDeque};

use pir_protocol::{PirClient, PirQuery, PirResponse, TableSchema};
use rand::{Rng, RngCore, SeedableRng};

use crate::envelope::{MIN_SUPPORTED_VERSION, PROTOCOL_V2};
use crate::error::WireError;
use crate::messages::{
    decode_message, encode_message, Catalog, QueryMsg, UpdateAckMsg, UpdateEntryMsg, WireMessage,
};
use crate::transport::PirTransport;

/// Default pipeline depth of a session (overridable via
/// [`PirSession::connect_with_window`]).
pub const DEFAULT_WINDOW: usize = 32;

/// Per-connection byte accounting, measured on actual encoded frames.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ConnStats {
    /// Frames sent to this server.
    pub frames_sent: u64,
    /// Bytes sent to this server (envelope headers included).
    pub bytes_sent: u64,
    /// Frames received from this server.
    pub frames_received: u64,
    /// Bytes received from this server.
    pub bytes_received: u64,
}

/// Counters of the session's pipelined machinery.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// Queries submitted (including the blocking [`PirSession::query`]
    /// path, which is a one-deep submit).
    pub submitted: u64,
    /// Completions emitted.
    pub completed: u64,
    /// Completions that finished while an earlier-submitted query was
    /// still in flight — proof the servers answered out of order.
    pub out_of_order_completions: u64,
    /// Queries transparently re-issued because their two shares carried
    /// different table-version stamps (they straddled a hot reload).
    pub version_retries: u64,
    /// Retries that straddled *again* and were failed with
    /// [`WireError::VersionSkew`].
    pub version_skew_failures: u64,
}

/// One finished pipelined query, as returned by [`PirSession::poll`].
#[derive(Debug)]
pub struct CompletedQuery {
    /// The id [`PirSession::submit`] returned for this query. Stable across
    /// the transparent version-skew retry.
    pub query_id: u64,
    /// Table the query read.
    pub table: String,
    /// Private index the query read.
    pub index: u64,
    /// The reconstructed row, or the per-query failure (a shed, a remote
    /// error, a double version skew, ...). Per-query failures do not poison
    /// the session.
    pub outcome: Result<Vec<u8>, WireError>,
    /// The table version both answer shares were stamped with when the
    /// outcome is a row (0 on failure). Clients use this as the generation
    /// key for hot-entry caching: a bump means the table was hot-reloaded.
    pub table_version: u64,
    /// Whether the transparent version-skew retry was taken.
    pub retried: bool,
    /// Whether an earlier-submitted query was still in flight when this one
    /// completed.
    pub out_of_order: bool,
}

struct Connection {
    transport: Box<dyn PirTransport>,
    stats: ConnStats,
}

impl Connection {
    fn send(&mut self, message: &WireMessage) -> Result<(), WireError> {
        let frame = encode_message(message);
        self.transport.send(&frame)?;
        self.stats.frames_sent += 1;
        self.stats.bytes_sent += frame.len() as u64;
        Ok(())
    }

    fn recv(&mut self) -> Result<WireMessage, WireError> {
        let frame = self.transport.recv()?;
        self.stats.frames_received += 1;
        self.stats.bytes_received += frame.len() as u64;
        decode_message(&frame)
    }
}

struct SessionTable {
    client: PirClient,
    schema: TableSchema,
}

/// One in-flight pipelined query: the locally-kept key pair plus per-party
/// outcomes as they arrive.
struct Inflight {
    /// Id reported to the caller (stable across the skew retry).
    public_id: u64,
    table: String,
    index: u64,
    query: PirQuery,
    /// Submission sequence number, for out-of-order detection.
    seq: u64,
    /// Per-party outcome: the share plus its table-version stamp, or an
    /// attributed per-query error.
    outcomes: [Option<Result<(PirResponse, u64), WireError>>; 2],
    retried: bool,
}

/// A client session over two independent per-server connections.
///
/// See the [module docs](self) for the trust-boundary rationale and the
/// pipelining model. A session is `Send` but not `Sync` — use one session
/// per client thread.
pub struct PirSession {
    conns: [Connection; 2],
    tables: BTreeMap<String, SessionTable>,
    tenant: String,
    /// Maximum in-flight queries.
    window: usize,
    /// In-flight queries keyed by their *wire* id (session-global, so ids
    /// never collide across tables on one multiplexed connection).
    inflight: BTreeMap<u64, Inflight>,
    /// Completions not yet handed to the caller, in completion order.
    ready: VecDeque<CompletedQuery>,
    /// Response frames each connection still owes us.
    owed: [usize; 2],
    next_wire_id: u64,
    next_seq: u64,
    /// CSPRNG backing the transparent version-skew retry, reseeded from the
    /// caller's RNG on every [`Self::submit`]. The retry regenerates a DPF
    /// key pair inside [`Self::poll`], where no caller RNG is in scope —
    /// and that key randomness must be *unpredictable to the servers*: a
    /// seed derived from on-wire values (ids, version stamps) would let a
    /// malicious server force a retry, regenerate candidate key pairs for
    /// every index, and match the projection it received — recovering the
    /// private index. `None` only until the first submit; every retry is of
    /// a submitted query, so it is always seeded by the time it is used.
    retry_rng: Option<rand::rngs::StdRng>,
    stats: PipelineStats,
}

impl PirSession {
    /// Connect over two transports (index = server party) and discover the
    /// catalog from both servers, with the default pipeline window.
    ///
    /// # Errors
    ///
    /// Fails if either server does not speak the protocol version, does
    /// not identify as the expected party, or the two catalogs disagree on
    /// any table's schema or PRF family (a client must never mix shares
    /// generated against different table shapes).
    pub fn connect(
        server0: Box<dyn PirTransport>,
        server1: Box<dyn PirTransport>,
        tenant: impl Into<String>,
    ) -> Result<Self, WireError> {
        Self::connect_with_window(server0, server1, tenant, DEFAULT_WINDOW)
    }

    /// [`Self::connect`] with an explicit in-flight window.
    ///
    /// A window of 0 is treated as 1.
    ///
    /// # Errors
    ///
    /// Same as [`Self::connect`].
    pub fn connect_with_window(
        server0: Box<dyn PirTransport>,
        server1: Box<dyn PirTransport>,
        tenant: impl Into<String>,
        window: usize,
    ) -> Result<Self, WireError> {
        let mut conns = [
            Connection {
                transport: server0,
                stats: ConnStats::default(),
            },
            Connection {
                transport: server1,
                stats: ConnStats::default(),
            },
        ];
        let mut catalogs: Vec<Catalog> = Vec::with_capacity(2);
        for (party, conn) in conns.iter_mut().enumerate() {
            conn.send(&WireMessage::CatalogRequest)?;
            let catalog = match conn.recv()? {
                WireMessage::Catalog(catalog) => catalog,
                WireMessage::Error(reply) => return Err(reply.into_wire_error()),
                other => {
                    return Err(WireError::UnexpectedMessage {
                        expected: "Catalog",
                        got: other.name(),
                    })
                }
            };
            // A ceiling above what this session speaks is fine: the server
            // range-rejects per frame, not per catalog.
            if catalog.protocol_version < MIN_SUPPORTED_VERSION {
                return Err(WireError::UnsupportedVersion {
                    got: PROTOCOL_V2,
                    min: catalog.protocol_version,
                    max: catalog.protocol_version,
                });
            }
            if usize::from(catalog.party) != party {
                return Err(WireError::InvalidRequest(format!(
                    "server on connection {party} identifies as party {}",
                    catalog.party
                )));
            }
            catalogs.push(catalog);
        }
        let Ok([catalog0, catalog1]) = <[Catalog; 2]>::try_from(catalogs) else {
            unreachable!("one catalog pushed per connection");
        };
        if catalog0.tables != catalog1.tables {
            return Err(WireError::InvalidRequest(
                "the two servers advertise different catalogs".into(),
            ));
        }
        let tables = catalog0
            .tables
            .into_iter()
            .map(|entry| {
                let table = SessionTable {
                    client: PirClient::new(entry.schema, entry.prf_kind),
                    schema: entry.schema,
                };
                (entry.name, table)
            })
            .collect();
        Ok(Self {
            conns,
            tables,
            tenant: tenant.into(),
            window: window.max(1),
            inflight: BTreeMap::new(),
            ready: VecDeque::new(),
            owed: [0, 0],
            next_wire_id: 1,
            next_seq: 0,
            retry_rng: None,
            stats: PipelineStats::default(),
        })
    }

    /// The effective in-flight window.
    #[must_use]
    pub fn window(&self) -> usize {
        self.window
    }

    /// Queries currently in flight (submitted, not yet completed).
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.inflight.len()
    }

    /// Completions waiting to be [`poll`](Self::poll)ed.
    #[must_use]
    pub fn ready(&self) -> usize {
        self.ready.len()
    }

    /// Counters of the pipelined machinery.
    #[must_use]
    pub fn pipeline_stats(&self) -> PipelineStats {
        self.stats
    }

    /// Names of the tables both servers advertise, sorted.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// The discovered schema of one table, if it exists.
    #[must_use]
    pub fn schema(&self, table: &str) -> Option<TableSchema> {
        self.tables.get(table).map(|t| t.schema)
    }

    /// Per-connection byte accounting (index = server party), measured on
    /// the actual encoded frames.
    #[must_use]
    pub fn conn_stats(&self) -> [ConnStats; 2] {
        [self.conns[0].stats, self.conns[1].stats]
    }

    /// Submit one private lookup into the pipeline and return its id
    /// without waiting for the answer.
    ///
    /// Generates the DPF key pair locally and uploads exactly one key
    /// projection to each server. If the in-flight window is full, drives
    /// the pipeline until a slot frees (the displaced completion is
    /// buffered for a later [`poll`](Self::poll)).
    ///
    /// # Errors
    ///
    /// * [`WireError::InvalidRequest`] — unknown table or out-of-range
    ///   index (checked locally; the index is private and never leaves the
    ///   client in the clear).
    /// * Transport/protocol failures while sending or while draining a full
    ///   window; these poison the pipeline (per-query failures do not —
    ///   they surface in the completion's `outcome`).
    pub fn submit<R: Rng + ?Sized>(
        &mut self,
        table: &str,
        index: u64,
        rng: &mut R,
    ) -> Result<u64, WireError> {
        let state = self
            .tables
            .get(table)
            .ok_or_else(|| WireError::InvalidRequest(format!("unknown table '{table}'")))?;
        if index >= state.schema.entries {
            return Err(WireError::InvalidRequest(format!(
                "index {index} out of range for table of {} entries",
                state.schema.entries
            )));
        }
        // Bank fresh caller entropy for the transparent skew retry before
        // draining the window (the drain itself can trigger a retry).
        let mut seed = <rand::rngs::StdRng as SeedableRng>::Seed::default();
        rng.fill_bytes(seed.as_mut());
        self.retry_rng = Some(rand::rngs::StdRng::from_seed(seed));
        while self.inflight.len() >= self.window {
            self.pump()?;
        }
        self.stats.submitted += 1;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.issue(table, index, seq, None, rng)
    }

    /// Generate keys for (table, index) under a fresh session-global wire
    /// id, send both projections, and register the in-flight entry.
    ///
    /// `retry_of` carries the public id of the query being transparently
    /// re-issued after version skew; `None` marks a first submission (whose
    /// public id is the fresh wire id itself).
    fn issue<R: Rng + ?Sized>(
        &mut self,
        table: &str,
        index: u64,
        seq: u64,
        retry_of: Option<u64>,
        rng: &mut R,
    ) -> Result<u64, WireError> {
        let state = self
            .tables
            .get(table)
            .ok_or_else(|| WireError::InvalidRequest(format!("unknown table '{table}'")))?;
        // The only place the pair exists: immediately projected per party.
        // The per-table client assigns ids from its own counter; overwrite
        // with a session-global id so ids never collide across tables on
        // one multiplexed connection.
        let mut query = state.client.query(index, rng);
        let wire_id = self.next_wire_id;
        self.next_wire_id += 1;
        query.query_id = wire_id;
        for party in 0..2u8 {
            let message = WireMessage::Query(QueryMsg {
                table: table.to_string(),
                tenant: self.tenant.clone(),
                query: query.to_server(party),
            });
            self.conns[usize::from(party)].send(&message)?;
            self.owed[usize::from(party)] += 1;
        }
        self.inflight.insert(
            wire_id,
            Inflight {
                public_id: retry_of.unwrap_or(wire_id),
                table: table.to_string(),
                index,
                query,
                seq,
                outcomes: [None, None],
                retried: retry_of.is_some(),
            },
        );
        Ok(wire_id)
    }

    /// Block until the next query completes (in completion order) and
    /// return it.
    ///
    /// # Errors
    ///
    /// * [`WireError::InvalidRequest`] — nothing is in flight.
    /// * Transport/protocol failures; per-query failures surface in the
    ///   returned completion's `outcome` instead.
    pub fn poll(&mut self) -> Result<CompletedQuery, WireError> {
        loop {
            if let Some(done) = self.ready.pop_front() {
                return Ok(done);
            }
            if self.inflight.is_empty() {
                return Err(WireError::InvalidRequest(
                    "poll with no queries in flight".into(),
                ));
            }
            self.pump()?;
        }
    }

    /// Receive and process one frame from whichever connection owes us the
    /// most responses.
    fn pump(&mut self) -> Result<(), WireError> {
        let party = if self.owed[0] >= self.owed[1] { 0 } else { 1 };
        debug_assert!(self.owed[party] > 0, "pump called with nothing outstanding");
        let message = self.conns[party].recv()?;
        match message {
            WireMessage::Response(msg) => {
                if usize::from(msg.response.party) != party {
                    return Err(WireError::InvalidRequest(format!(
                        "connection {party} delivered a share from party {}",
                        msg.response.party
                    )));
                }
                let wire_id = msg.response.query_id;
                let Some(entry) = self.inflight.get_mut(&wire_id) else {
                    return Err(WireError::InvalidRequest(format!(
                        "server {party} answered unknown query {wire_id}"
                    )));
                };
                // A duplicate answer for a slot already filled would
                // corrupt the owed accounting (underflowing it once the
                // sibling query's answer arrives): reject it like any other
                // server misbehavior.
                if entry.outcomes[party].is_some() {
                    return Err(WireError::InvalidRequest(format!(
                        "server {party} answered query {wire_id} twice"
                    )));
                }
                self.owed[party] -= 1;
                entry.outcomes[party] = Some(Ok((msg.response, msg.table_version)));
                self.try_complete(wire_id)
            }
            WireMessage::Error(reply) => {
                // Id 0 is a connection-level error (version rejection,
                // malformed frame report, ...) and poisons the session, as
                // does an error attributed to a query we never issued.
                let wire_id = reply.query_id;
                let Some(entry) = self.inflight.get_mut(&wire_id) else {
                    return Err(reply.into_wire_error());
                };
                if entry.outcomes[party].is_some() {
                    // Same duplicate-answer guard as the Response arm.
                    return Err(WireError::InvalidRequest(format!(
                        "server {party} answered query {wire_id} twice"
                    )));
                }
                self.owed[party] -= 1;
                entry.outcomes[party] = Some(Err(reply.into_wire_error()));
                self.try_complete(wire_id)
            }
            other => Err(WireError::UnexpectedMessage {
                expected: "Response",
                got: other.name(),
            }),
        }
    }

    /// If both parties have answered `wire_id`, resolve it: reconstruct,
    /// retry on version skew, or fail — and emit the completion.
    fn try_complete(&mut self, wire_id: u64) -> Result<(), WireError> {
        let Some(entry) = self.inflight.get(&wire_id) else {
            return Ok(()); // already resolved: nothing to complete
        };
        if entry.outcomes.iter().any(Option::is_none) {
            return Ok(());
        }
        let Some(entry) = self.inflight.remove(&wire_id) else {
            return Ok(());
        };
        let [Some(outcome0), Some(outcome1)] = entry.outcomes else {
            unreachable!("completeness checked before removal");
        };
        let mut table_version = 0;
        let outcome = match (outcome0, outcome1) {
            // Party 0's error wins ties.
            (Err(err), _) => Err(err),
            (_, Err(err)) => Err(err),
            (Ok((response0, stamp0)), Ok((response1, stamp1))) => {
                if stamp0 != stamp1 {
                    if entry.retried {
                        self.stats.version_skew_failures += 1;
                        Err(WireError::VersionSkew {
                            query_id: entry.public_id,
                            versions: [stamp0, stamp1],
                        })
                    } else {
                        // The two shares straddled a hot reload: they would
                        // reconstruct garbage. Re-issue once, transparently,
                        // under the same public id.
                        self.stats.version_retries += 1;
                        let (public_id, seq) = (entry.public_id, entry.seq);
                        // Derive the retry's key randomness from the caller
                        // entropy banked at submit time — never from on-wire
                        // values, which the servers know (see `retry_rng`).
                        let mut seed = <rand::rngs::StdRng as SeedableRng>::Seed::default();
                        #[expect(
                            clippy::expect_used,
                            reason = "banked at every submit; completions only exist for submitted queries"
                        )]
                        self.retry_rng
                            .as_mut()
                            .expect("retries are of submitted queries")
                            .fill_bytes(seed.as_mut());
                        let mut rng = rand::rngs::StdRng::from_seed(seed);
                        self.issue(&entry.table, entry.index, seq, Some(public_id), &mut rng)?;
                        return Ok(());
                    }
                } else {
                    let state = self.tables.get(&entry.table).ok_or_else(|| {
                        WireError::InvalidRequest(format!("unknown table '{}'", entry.table))
                    })?;
                    table_version = stamp0;
                    state
                        .client
                        .reconstruct(&entry.query, &response0, &response1)
                        .map_err(WireError::from)
                }
            }
        };
        let out_of_order = self.inflight.values().any(|q| q.seq < entry.seq);
        self.stats.completed += 1;
        if out_of_order {
            self.stats.out_of_order_completions += 1;
        }
        self.ready.push_back(CompletedQuery {
            query_id: entry.public_id,
            table: entry.table,
            index: entry.index,
            outcome,
            table_version,
            retried: entry.retried,
            out_of_order,
        });
        Ok(())
    }

    /// Privately retrieve one row — the blocking one-deep special case of
    /// the pipeline.
    ///
    /// Generates the DPF key pair locally, uploads exactly one key to each
    /// server, and adds the two answer shares. Neither server ever receives
    /// (or can request) the other's key. Works with other queries in
    /// flight: their completions stay buffered for later
    /// [`poll`](Self::poll)s.
    ///
    /// # Errors
    ///
    /// * [`WireError::InvalidRequest`] — unknown table or out-of-range
    ///   index (checked locally).
    /// * [`WireError::Remote`] — a server replied with an error; shed
    ///   replies have [`WireError::is_shed`] set (back off and retry — the
    ///   session stays usable: every owed reply is drained before an error
    ///   is reported, so the framing never desynchronizes).
    /// * [`WireError::VersionSkew`] — the query straddled hot reloads twice.
    /// * [`WireError::Protocol`] — the two shares do not combine.
    pub fn query<R: Rng + ?Sized>(
        &mut self,
        table: &str,
        index: u64,
        rng: &mut R,
    ) -> Result<Vec<u8>, WireError> {
        let id = self.submit(table, index, rng)?;
        loop {
            if let Some(done) = self
                .ready
                .iter()
                .position(|c| c.query_id == id)
                .and_then(|position| self.ready.remove(position))
            {
                return done.outcome;
            }
            self.pump()?;
        }
    }

    /// Overwrite one table entry on **both** servers (admin hot reload).
    ///
    /// The servers apply the update atomically with respect to in-flight
    /// batches; this call returns once both have acknowledged. Both
    /// connections' replies are drained even if the first errors, so the
    /// session stays usable afterwards — and because one server may have
    /// applied an update the other rejected, a failed update should be
    /// *retried* (it overwrites, so the retry is idempotent) to restore
    /// convergence between the two tables.
    ///
    /// Requires an empty pipeline: drain in-flight queries first (an update
    /// interleaved with this session's own out-of-order responses would
    /// make ack attribution ambiguous). *Other* sessions' traffic may race
    /// this update freely — that is what response version stamps exist for.
    ///
    /// # Errors
    ///
    /// Local validation failures surface as [`WireError::InvalidRequest`];
    /// server-side rejections as [`WireError::Remote`].
    pub fn update_entry(&mut self, table: &str, index: u64, bytes: &[u8]) -> Result<(), WireError> {
        if !self.inflight.is_empty() {
            return Err(WireError::InvalidRequest(format!(
                "update_entry with {} queries in flight: drain the pipeline first",
                self.inflight.len()
            )));
        }
        let state = self
            .tables
            .get(table)
            .ok_or_else(|| WireError::InvalidRequest(format!("unknown table '{table}'")))?;
        if index >= state.schema.entries {
            return Err(WireError::InvalidRequest(format!(
                "index {index} out of range for table of {} entries",
                state.schema.entries
            )));
        }
        if bytes.len() != state.schema.entry_bytes {
            return Err(WireError::InvalidRequest(format!(
                "update payload is {} B, table entries are {} B",
                bytes.len(),
                state.schema.entry_bytes
            )));
        }
        let message = WireMessage::UpdateEntry(UpdateEntryMsg {
            table: table.to_string(),
            index,
            bytes: bytes.to_vec(),
        });
        let mut sent = [false; 2];
        let mut send_failure = None;
        for (party, conn) in self.conns.iter_mut().enumerate() {
            match conn.send(&message) {
                Ok(()) => sent[party] = true,
                Err(err) => {
                    send_failure = Some(err);
                    break;
                }
            }
        }
        // Drain every reply that is owed before reporting any error, so a
        // one-sided rejection cannot desynchronize the framing.
        let mut first_error = send_failure;
        for (party, conn) in self.conns.iter_mut().enumerate() {
            if !sent[party] {
                continue;
            }
            let outcome = match conn.recv() {
                Ok(WireMessage::UpdateAck(UpdateAckMsg { .. })) => Ok(()),
                Ok(WireMessage::Error(reply)) => Err(reply.into_wire_error()),
                Ok(other) => Err(WireError::UnexpectedMessage {
                    expected: "UpdateAck",
                    got: other.name(),
                }),
                Err(err) => Err(err),
            };
            if let (Err(err), None) = (outcome, &first_error) {
                first_error = Some(err);
            }
        }
        match first_error {
            Some(err) => Err(err),
            None => Ok(()),
        }
    }
}

impl std::fmt::Debug for PirSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PirSession")
            .field("tenant", &self.tenant)
            .field("window", &self.window)
            .field("in_flight", &self.inflight.len())
            .field("tables", &self.table_names())
            .finish()
    }
}
