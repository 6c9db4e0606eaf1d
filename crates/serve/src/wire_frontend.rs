//! [`WireFrontend`]: the server half of the `pir-wire` boundary.
//!
//! A frontend decodes envelopes arriving from untrusted clients, bridges
//! them into the runtime's batching machinery for **one party only**, and
//! encodes the replies. One frontend per party is the deployment shape: in
//! the paper's two-server model each non-colluding server process runs its
//! own runtime and its own frontend, so no code path reachable from a
//! single connection can ever observe both DPF keys — this type does not
//! even have a way to *represent* the pair.
//!
//! # Pipelined service
//!
//! [`WireFrontend::serve`] is a **demux/remux pair**: the transport splits
//! into halves, the calling thread becomes the *demux* (decode each
//! arriving frame, enqueue its query into the batcher without waiting) and
//! a *remux* writer thread drains completed shares **in completion order**
//! — so a client's later query that lands in a faster batch is answered
//! before an earlier slow one, and the batcher sees the whole pipeline
//! window at once instead of one query at a time. Control frames
//! (catalogs, errors, update acks) are answered inline. Query responses are
//! stamped with the answering party's table version and error replies echo
//! the query id they answer, which is what makes out-of-order delivery and
//! hot-reload detection possible client-side. This is the only service
//! loop: a transport that cannot split is refused with a typed error.
//!
//! Malformed, truncated or wrong-version frames produce typed
//! [`ErrorReply`]s (for version mismatches, carrying the supported range
//! per the reject-with-supported-range rule, see
//! [`pir_wire::decode_request`]); backpressure sheds
//! ([`ServeError::QueueFull`], quota, shutdown) become `shed`-flagged wire
//! errors rather than panics or dropped connections. A client that hangs
//! up with queries still in flight costs no further device work: the
//! dropped pending shares cancel their queued entries.

use std::collections::VecDeque;
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::{Condvar, Mutex};
use pir_wire::{
    decode_request, encode_message, Catalog, CatalogEntry, ErrorCode, ErrorReply, PirTransport,
    QueryMsg, ResponseMsg, SplitTransport, UpdateAckMsg, UpdateEntryMsg, WireError, WireMessage,
    MAX_SUPPORTED_VERSION,
};

use crate::error::ServeError;
use crate::handle::{PendingShare, ServeHandle};

/// The wire-facing server endpoint for one party of the runtime.
pub struct WireFrontend {
    handle: ServeHandle,
    party: u8,
}

/// What one decoded frame asks the frontend to do.
enum FrameAction {
    /// Answer immediately (catalogs, acks, every kind of error).
    Reply(WireMessage),
    /// A query was admitted into the batcher; answer when its share
    /// completes.
    Share { query_id: u64, share: PendingShare },
}

impl WireFrontend {
    /// Create a frontend answering for `party` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `party` is not 0 or 1 (a deployment wiring error).
    #[must_use]
    pub fn new(handle: ServeHandle, party: u8) -> Self {
        assert!(party < 2, "two-server protocol: party must be 0 or 1");
        Self { handle, party }
    }

    /// The party this frontend answers for.
    #[must_use]
    pub fn party(&self) -> u8 {
        self.party
    }

    /// Handle one request frame and produce the reply frame, blocking until
    /// the answer is ready (the one-frame special case; a connection is
    /// served by [`Self::serve`]).
    ///
    /// Total: every input, including garbage, yields an encoded reply.
    #[must_use]
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        let reply = match self.process(frame) {
            FrameAction::Reply(message) => message,
            FrameAction::Share { query_id, share } => share_reply(query_id, share.wait()),
        };
        encode_message(&reply)
    }

    /// Decode one frame and decide how to answer it.
    fn process(&self, frame: &[u8]) -> FrameAction {
        match decode_request(frame) {
            Ok(message) => self.dispatch(message),
            Err(reply) => FrameAction::Reply(reply.into()),
        }
    }

    /// Serve one connection until the peer hangs up: the demux loop (this
    /// thread) plus the remux writer (spawned) — see the module docs above.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] for I/O failures and for a
    /// transport that cannot split into halves (nothing is read from it); a
    /// clean [`WireError::ConnectionClosed`] hang-up returns `Ok(())`.
    pub fn serve(&self, transport: Box<dyn PirTransport>) -> Result<(), WireError> {
        let SplitTransport::Halves { mut recv, mut send } = transport.split() else {
            return Err(WireError::Transport(
                "transport cannot split into receive/send halves, which the demux/remux \
                 service loop needs"
                    .into(),
            ));
        };
        let remux = Arc::new(Remux::default());
        #[expect(
            clippy::expect_used,
            reason = "OS thread spawn fails only on resource exhaustion; the connection cannot proceed without its writer"
        )]
        let writer = {
            let remux = Arc::clone(&remux);
            std::thread::Builder::new()
                .name(format!("remux-party{}", self.party))
                .spawn(move || run_remux(&remux, send.as_mut()))
                .expect("spawn remux writer")
        };
        let outcome = loop {
            let frame = match recv.recv() {
                Ok(frame) => frame,
                Err(WireError::ConnectionClosed) => break Ok(()),
                Err(err) => break Err(err),
            };
            // Control handling (including the blocking update barrier)
            // happens on this thread; only completed shares go through the
            // writer's completion queue.
            let action = self.process(&frame);
            let mut state = remux.state.lock();
            if state.closed {
                // The writer hit a send failure: the connection is dead.
                // Its error (if it was a real I/O failure and not a peer
                // hang-up) is picked up after the join below.
                break Ok(());
            }
            match action {
                FrameAction::Reply(message) => {
                    state.frames.push_back(encode_message(&message));
                }
                FrameAction::Share { query_id, share } => {
                    state.pending.push(PendingReply { share, query_id });
                }
            }
            drop(state);
            remux.bell.notify_all();
        };
        {
            // Closing drops whatever is still pending — each dropped share
            // cancels its queued entry, so a vanished client stops costing
            // device work immediately.
            let mut state = remux.state.lock();
            state.closed = true;
            state.pending.clear();
            state.frames.clear();
        }
        remux.bell.notify_all();
        let _ = writer.join();
        // A writer-side transport failure must reach whoever supervises
        // `serve` — breaking with a clean `Ok(())` would mask it; the
        // reader's own error (if any) stays the primary report.
        let writer_error = remux.state.lock().error.take();
        match (outcome, writer_error) {
            (Ok(()), Some(err)) => Err(err),
            (outcome, _) => outcome,
        }
    }

    fn dispatch(&self, message: WireMessage) -> FrameAction {
        match message {
            WireMessage::CatalogRequest => FrameAction::Reply(self.catalog()),
            WireMessage::Query(query) => self.query(query),
            WireMessage::UpdateEntry(update) => FrameAction::Reply(self.update(update)),
            other => FrameAction::Reply(
                ErrorReply::new(
                    ErrorCode::InvalidRequest,
                    0,
                    format!("server cannot accept a {} message", other.name()),
                )
                .into(),
            ),
        }
    }

    fn catalog(&self) -> WireMessage {
        let tables = self
            .handle
            .inner
            .registry
            .all()
            .into_iter()
            .map(|hosted| CatalogEntry {
                name: hosted.name.clone(),
                schema: hosted.schema,
                prf_kind: hosted.config.prf_kind,
            })
            .collect();
        WireMessage::Catalog(Catalog {
            protocol_version: MAX_SUPPORTED_VERSION,
            party: self.party,
            tables,
        })
    }

    fn query(&self, query: QueryMsg) -> FrameAction {
        let query_id = query.query.query_id;
        if query.query.party() != self.party {
            return FrameAction::Reply(
                ErrorReply::new(
                    ErrorCode::InvalidRequest,
                    query_id,
                    format!(
                        "this server answers for party {}, key is for party {}",
                        self.party,
                        query.query.party()
                    ),
                )
                .into(),
            );
        }
        match self
            .handle
            .submit_server_query(&query.table, &query.tenant, query.query)
        {
            Ok(share) => FrameAction::Share { query_id, share },
            Err(err) => FrameAction::Reply(serve_error_reply(&err, query_id).into()),
        }
    }

    fn update(&self, update: UpdateEntryMsg) -> WireMessage {
        match self
            .handle
            .update_entry(&update.table, update.index, &update.bytes)
        {
            Ok(()) => WireMessage::UpdateAck(UpdateAckMsg {
                table: update.table,
                index: update.index,
            }),
            Err(err) => serve_error_reply(&err, 0).into(),
        }
    }
}

impl std::fmt::Debug for WireFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireFrontend")
            .field("party", &self.party)
            .finish()
    }
}

/// Turn one completed share (or its per-query failure) into the reply
/// message.
fn share_reply(
    query_id: u64,
    outcome: Result<crate::registry::AnsweredShare, ServeError>,
) -> WireMessage {
    match outcome {
        Ok(answered) => WireMessage::Response(ResponseMsg {
            response: answered.response,
            table_version: answered.table_version,
        }),
        Err(err) => serve_error_reply(&err, query_id).into(),
    }
}

/// One admitted query awaiting completion in the remux writer.
struct PendingReply {
    share: PendingShare,
    query_id: u64,
}

#[derive(Default)]
struct RemuxState {
    /// Encoded control replies, sent ahead of completions.
    frames: VecDeque<Vec<u8>>,
    /// Admitted queries whose shares are still computing.
    pending: Vec<PendingReply>,
    /// Set by the reader on hang-up and by the writer on send failure.
    closed: bool,
    /// The writer's send failure, when it was a real I/O error rather than
    /// a peer hang-up; `serve` surfaces it to its caller.
    error: Option<WireError>,
    /// A share completed (or work arrived) since the writer last looked.
    woken: bool,
}

/// The completion queue between the demux reader and the remux writer.
#[derive(Default)]
struct Remux {
    state: Mutex<RemuxState>,
    bell: Condvar,
}

/// Waker handed to every pending share: rings the remux bell.
struct RemuxWaker(Arc<Remux>);

impl Wake for RemuxWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.state.lock().woken = true;
        self.0.bell.notify_all();
    }
}

/// The remux writer loop: drain control frames in arrival order and
/// completed shares in completion order, encode, and send each drain as one
/// burst.
fn run_remux(remux: &Arc<Remux>, send: &mut dyn PirTransport) {
    let waker = Waker::from(Arc::new(RemuxWaker(Arc::clone(remux))));
    let mut cx = Context::from_waker(&waker);
    loop {
        // Gather everything sendable under the lock, then send without it.
        let (frames, ready, exit) = {
            let mut state = remux.state.lock();
            loop {
                state.woken = false;
                let frames: Vec<Vec<u8>> = state.frames.drain(..).collect();
                let mut ready = Vec::new();
                let mut index = 0;
                while index < state.pending.len() {
                    // Safe to poll while holding the remux lock: a batcher
                    // delivering a share releases the oneshot's lock
                    // *before* it calls the waker, so there is no
                    // lock-order cycle.
                    match Pin::new(&mut state.pending[index].share).poll(&mut cx) {
                        Poll::Ready(outcome) => {
                            let done = state.pending.swap_remove(index);
                            ready.push((done.query_id, outcome));
                        }
                        Poll::Pending => index += 1,
                    }
                }
                if !frames.is_empty() || !ready.is_empty() {
                    break (frames, ready, false);
                }
                if state.closed && state.pending.is_empty() {
                    break (frames, ready, true);
                }
                if state.woken {
                    // A completion raced between the drain above and here;
                    // rescan instead of sleeping through it.
                    continue;
                }
                remux.bell.wait(&mut state);
            }
        };
        // One burst: control frames first, then completions.
        let completions: Vec<Vec<u8>> = ready
            .into_iter()
            .map(|(query_id, outcome)| encode_message(&share_reply(query_id, outcome)))
            .collect();
        let burst: Vec<&[u8]> = frames
            .iter()
            .chain(&completions)
            .map(Vec::as_slice)
            .collect();
        if let Err(err) = send.send_many(&burst) {
            close_remux(remux, err);
            return;
        }
        if exit {
            return;
        }
    }
}

/// Mark the connection dead after a send failure so the reader stops
/// feeding it, recording the failure for `serve` to surface.
fn close_remux(remux: &Remux, err: WireError) {
    let mut state = remux.state.lock();
    // A peer that hangs up mid-send is the same clean close the reader
    // reports as `Ok`; only real I/O failures are worth surfacing.
    if !matches!(err, WireError::ConnectionClosed) {
        state.error = Some(err);
    }
    state.closed = true;
    state.pending.clear();
    state.frames.clear();
}

/// Map a runtime error onto the wire's typed error reply, attributed to
/// the query it answers (0 = connection-level).
fn serve_error_reply(err: &ServeError, query_id: u64) -> ErrorReply {
    let code = match err {
        ServeError::UnknownTable(_) => ErrorCode::UnknownTable,
        ServeError::IndexOutOfRange { .. } => ErrorCode::IndexOutOfRange,
        ServeError::QueueFull { .. }
        | ServeError::QuotaExceeded { .. }
        | ServeError::Displaced { .. }
        | ServeError::ShuttingDown => ErrorCode::Shed,
        ServeError::Protocol(_) => ErrorCode::Protocol,
        ServeError::TableExists(_)
        | ServeError::InvalidConfig(_)
        | ServeError::TierInversion { .. } => ErrorCode::InvalidRequest,
    };
    ErrorReply::new(code, query_id, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
    use crate::runtime::PirServeRuntime;
    use crate::ServeConfig;
    use pir_prf::PrfKind;
    use pir_protocol::PirTable;
    use pir_wire::{decode_message, MsgType, WireEnvelope};
    use std::time::Duration;

    fn runtime() -> PirServeRuntime {
        let runtime = PirServeRuntime::new(ServeConfig::builder().seed(7).build().unwrap());
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        runtime
    }

    #[test]
    fn catalog_identifies_party_tables_and_version_ceiling() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 1);
        let reply = frontend.handle_frame(&encode_message(&WireMessage::CatalogRequest));
        match decode_message(&reply).unwrap() {
            WireMessage::Catalog(catalog) => {
                assert_eq!(catalog.party, 1);
                assert_eq!(catalog.protocol_version, MAX_SUPPORTED_VERSION);
                assert_eq!(catalog.tables.len(), 1);
                assert_eq!(catalog.tables[0].name, "emb");
                assert_eq!(catalog.tables[0].schema.entries, 128);
                assert_eq!(catalog.tables[0].prf_kind, PrfKind::SipHash);
            }
            other => panic!("expected catalog, got {}", other.name()),
        }
    }

    #[test]
    fn query_replies_are_stamped_with_the_table_version() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(12);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let mut stamp_of = |index: u64| {
            let query = client.query(index, &mut rng);
            let frame = encode_message(&WireMessage::Query(QueryMsg {
                table: "emb".into(),
                tenant: "t".into(),
                query: query.to_server(0),
            }));
            match decode_message(&frontend.handle_frame(&frame)).unwrap() {
                WireMessage::Response(msg) => {
                    assert_eq!(msg.response.query_id, query.query_id);
                    msg.table_version
                }
                other => panic!("expected response, got {}", other.name()),
            }
        };
        assert_eq!(stamp_of(5), 1, "fresh table is at version 1");
        // After a hot reload the stamp moves.
        runtime.update_entry("emb", 9, &[7u8; 8]).unwrap();
        assert_eq!(stamp_of(6), 2);
    }

    #[test]
    fn garbage_frames_get_typed_error_replies_not_panics() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        for frame in [
            &b""[..],
            &b"XX"[..],
            &[0x50, 0x57, 2, 0, 3][..],               // truncated header
            &[0x50, 0x57, 2, 0, 200, 0, 0, 0, 0][..], // unknown msg type
        ] {
            let reply = frontend.handle_frame(frame);
            match decode_message(&reply).unwrap() {
                WireMessage::Error(error) => assert_eq!(error.code, ErrorCode::Malformed),
                other => panic!("expected error, got {}", other.name()),
            }
        }
    }

    #[test]
    fn hostile_64kib_table_names_get_bounded_error_replies_not_panics() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        // A well-formed Query frame whose table/tenant names are as long as
        // the u16 length prefix allows: the lookup fails, and the error
        // reply must truncate the echoed name instead of panicking the
        // serve thread inside the string encoder.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(8);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let query = client.query(5, &mut rng);
        let frame = encode_message(&WireMessage::Query(pir_wire::QueryMsg {
            table: "x".repeat(u16::MAX as usize),
            tenant: "y".repeat(u16::MAX as usize),
            query: query.to_server(0),
        }));
        let reply = frontend.handle_frame(&frame);
        match decode_message(&reply).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::UnknownTable);
                assert!(error.message.len() <= ErrorReply::MAX_DETAIL_BYTES + 32);
                assert!(error.message.ends_with("(truncated)"));
            }
            other => panic!("expected error, got {}", other.name()),
        }
    }

    #[test]
    fn version_rejection_carries_the_supported_range() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        // The retired version 1 and a future version: both well-formed
        // frames, both outside the range.
        for version in [1u8, 42] {
            let mut frame = encode_message(&WireMessage::CatalogRequest);
            frame[2] = version;
            let reply = frontend.handle_frame(&frame);
            match decode_message(&reply).unwrap() {
                WireMessage::Error(error) => {
                    assert_eq!(error.code, ErrorCode::UnsupportedVersion);
                    assert_eq!((error.min_version, error.max_version), (2, 2));
                }
                other => panic!("expected error, got {}", other.name()),
            }
        }
    }

    #[test]
    fn unsplittable_transports_are_refused_with_a_typed_error() {
        /// A transport that cannot split; touching it is a test failure.
        struct Unsplittable;
        impl PirTransport for Unsplittable {
            fn send(&mut self, _frame: &[u8]) -> Result<(), WireError> {
                panic!("an unsplittable transport must not be served");
            }
            fn recv(&mut self) -> Result<Vec<u8>, WireError> {
                panic!("an unsplittable transport must not be served");
            }
            fn split(self: Box<Self>) -> SplitTransport {
                SplitTransport::Whole(self)
            }
        }
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        match frontend.serve(Box::new(Unsplittable)) {
            Err(WireError::Transport(detail)) => assert!(detail.contains("cannot split")),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn wrong_party_keys_are_rejected_at_the_boundary() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        // Generate a legitimate query for the *other* party.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let query = client.query(5, &mut rng);
        let frame = encode_message(&WireMessage::Query(pir_wire::QueryMsg {
            table: "emb".into(),
            tenant: "t".into(),
            query: query.to_server(1),
        }));
        let reply = frontend.handle_frame(&frame);
        match decode_message(&reply).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::InvalidRequest);
                assert!(error.message.contains("party"));
                // Errors are attributed to the query they answer.
                assert_eq!(error.query_id, query.query_id);
            }
            other => panic!("expected error, got {}", other.name()),
        }
    }

    #[test]
    fn shutdown_sheds_wire_queries_with_the_shed_flag() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let query = client.query(5, &mut rng);
        runtime.shutdown();
        let frame = encode_message(&WireMessage::Query(pir_wire::QueryMsg {
            table: "emb".into(),
            tenant: "t".into(),
            query: query.to_server(0),
        }));
        let reply = frontend.handle_frame(&frame);
        match decode_message(&reply).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::Shed);
                assert!(error.shed);
            }
            other => panic!("expected error, got {}", other.name()),
        }
    }

    #[test]
    fn servers_reject_server_to_client_message_types() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let frame = WireEnvelope::new(MsgType::CatalogRequest, Vec::new()).encode();
        // Sanity: a valid request works...
        assert!(matches!(
            decode_message(&frontend.handle_frame(&frame)).unwrap(),
            WireMessage::Catalog(_)
        ));
        // ...but a Response sent *to* a server is an InvalidRequest.
        let frame = encode_message(&WireMessage::Response(ResponseMsg {
            response: pir_protocol::PirResponse {
                query_id: 1,
                party: 0,
                share: vec![1],
            },
            table_version: 0,
        }));
        match decode_message(&frontend.handle_frame(&frame)).unwrap() {
            WireMessage::Error(error) => assert_eq!(error.code, ErrorCode::InvalidRequest),
            other => panic!("expected error, got {}", other.name()),
        }
    }
}
