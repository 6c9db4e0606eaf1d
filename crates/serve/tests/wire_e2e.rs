//! End-to-end tests of the wire boundary: a [`PirSession`] client talking
//! to [`WireFrontend`] servers over real transports, plus the
//! trust-boundary property the redesign exists for.

use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;
use pir_prf::PrfKind;
use pir_protocol::{PirTable, ServerQuery, SERVER_QUERY_PREFIX_BYTES};
use pir_serve::{PirServeRuntime, ServeConfig, TableConfig, WireFrontend};
use pir_wire::{
    decode_message, loopback_pair, PirSession, PirTransport, TcpTransport, WireError, WireMessage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn test_table() -> PirTable {
    PirTable::generate(512, 24, |row, offset| {
        (row as u8).wrapping_mul(13).wrapping_add(offset as u8)
    })
}

fn test_runtime(seed: u64) -> PirServeRuntime {
    let runtime = PirServeRuntime::new(ServeConfig::builder().seed(seed).build().unwrap());
    let config = TableConfig::builder()
        .prf_kind(PrfKind::SipHash)
        .max_batch(16)
        .max_wait(Duration::from_millis(1))
        .build()
        .unwrap();
    runtime.register_table("emb", test_table(), config).unwrap();
    runtime
}

/// Spawn a thread servicing `frontend` over the server end of a loopback
/// pair, returning the client end.
fn serve_loopback(
    runtime: &Arc<PirServeRuntime>,
    party: u8,
) -> (Box<dyn PirTransport>, std::thread::JoinHandle<()>) {
    let (client_end, server_end) = loopback_pair();
    let frontend = WireFrontend::new(runtime.handle(), party);
    let worker = std::thread::spawn(move || {
        frontend.serve(Box::new(server_end)).unwrap();
    });
    (Box::new(client_end), worker)
}

#[test]
fn session_reconstructs_rows_over_loopback_transports() {
    let runtime = Arc::new(test_runtime(31));
    let (t0, w0) = serve_loopback(&runtime, 0);
    let (t1, w1) = serve_loopback(&runtime, 1);

    let mut session = PirSession::connect(t0, t1, "tenant-wire").unwrap();
    assert_eq!(session.table_names(), vec!["emb".to_string()]);
    let schema = session.schema("emb").unwrap();
    assert_eq!(schema.entries, 512);
    assert_eq!(schema.entry_bytes, 24);

    let table = test_table();
    let mut rng = StdRng::seed_from_u64(1);
    for index in [0u64, 7, 255, 511] {
        let row = session.query("emb", index, &mut rng).unwrap();
        assert_eq!(row, table.entry(index), "index {index}");
    }

    // Local validation errors never touch the wire.
    assert!(matches!(
        session.query("emb", 512, &mut rng),
        Err(WireError::InvalidRequest(_))
    ));
    assert!(matches!(
        session.query("ghost", 0, &mut rng),
        Err(WireError::InvalidRequest(_))
    ));

    // Upload accounting is wire-true: each query frame is the envelope
    // header plus table/tenant routing strings plus exactly
    // `ServerQuery::size_bytes()` payload bytes.
    let stats = session.conn_stats();
    assert_eq!(stats[0].bytes_sent, stats[1].bytes_sent);
    assert!(stats[0].bytes_received > 0);

    drop(session); // closes both loopback ends; the serve loops exit
    w0.join().unwrap();
    w1.join().unwrap();

    let snapshot = runtime.stats();
    let table_stats = snapshot.table("emb").unwrap();
    // Wire-path telemetry counts per-party projections: 4 queries × 2.
    assert_eq!(table_stats.answered, 8);
    assert_eq!(table_stats.submitted, 8);
}

#[test]
fn session_reconstructs_rows_over_two_tcp_servers() {
    // The deployment shape: two independent server processes (threads
    // here), each with its own runtime, table replica and listener — the
    // client is the only place the two shares meet.
    let mut addrs = Vec::new();
    let mut accept_threads = Vec::new();
    for party in 0..2u8 {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        addrs.push(listener.local_addr().unwrap());
        accept_threads.push(std::thread::spawn(move || {
            let runtime = test_runtime(100 + u64::from(party));
            let frontend = WireFrontend::new(runtime.handle(), party);
            let (stream, _) = listener.accept().unwrap();
            let transport = TcpTransport::from_stream(stream).unwrap();
            frontend.serve(Box::new(transport)).unwrap();
            runtime.shutdown();
        }));
    }

    let t0 = Box::new(TcpTransport::connect(addrs[0]).unwrap());
    let t1 = Box::new(TcpTransport::connect(addrs[1]).unwrap());
    let mut session = PirSession::connect(t0, t1, "tcp-tenant").unwrap();

    let table = test_table();
    let mut rng = StdRng::seed_from_u64(2);
    for index in [3u64, 128, 509] {
        let row = session.query("emb", index, &mut rng).unwrap();
        assert_eq!(row, table.entry(index), "index {index}");
    }

    drop(session);
    for thread in accept_threads {
        thread.join().unwrap();
    }
}

/// A transport wrapper recording every frame sent through it.
struct RecordingTransport {
    inner: Box<dyn PirTransport>,
    sent: Arc<Mutex<Vec<Vec<u8>>>>,
}

impl PirTransport for RecordingTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.sent.lock().push(frame.to_vec());
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        self.inner.recv()
    }

    fn split(self: Box<Self>) -> pir_wire::SplitTransport {
        // Client-side audit wrapper; sessions never split their transports.
        pir_wire::SplitTransport::Whole(self)
    }
}

#[test]
fn no_connection_ever_carries_both_dpf_keys() {
    let runtime = Arc::new(test_runtime(77));
    let (t0, w0) = serve_loopback(&runtime, 0);
    let (t1, w1) = serve_loopback(&runtime, 1);

    let sent0 = Arc::new(Mutex::new(Vec::new()));
    let sent1 = Arc::new(Mutex::new(Vec::new()));
    let r0 = Box::new(RecordingTransport {
        inner: t0,
        sent: Arc::clone(&sent0),
    });
    let r1 = Box::new(RecordingTransport {
        inner: t1,
        sent: Arc::clone(&sent1),
    });

    let mut session = PirSession::connect(r0, r1, "audit").unwrap();
    let mut rng = StdRng::seed_from_u64(3);
    for index in [1u64, 99, 300] {
        session.query("emb", index, &mut rng).unwrap();
    }
    drop(session);
    w0.join().unwrap();
    w1.join().unwrap();

    let extract_queries = |frames: &[Vec<u8>]| -> Vec<ServerQuery> {
        frames
            .iter()
            .filter_map(|frame| match decode_message(frame) {
                Ok(WireMessage::Query(query)) => Some(query.query),
                _ => None,
            })
            .collect()
    };
    let queries0 = extract_queries(&sent0.lock());
    let queries1 = extract_queries(&sent1.lock());
    assert_eq!(queries0.len(), 3);
    assert_eq!(queries1.len(), 3);

    let contains = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|w| w == needle);
    for (q0, q1) in queries0.iter().zip(&queries1) {
        // Every frame carries a key for its own party only...
        assert_eq!(q0.key.party, 0);
        assert_eq!(q1.key.party, 1);
        assert_eq!(q0.query_id, q1.query_id);
        // ...and the sibling's key material never appears anywhere in the
        // bytes of the other connection, not even incidentally.
        let seed_bytes = |query: &ServerQuery| {
            #[expect(
                clippy::disallowed_methods,
                reason = "the test looks for a seed's bytes in the other party's frames"
            )]
            let seed = query.key.root_seed.expose();
            seed.to_le_bytes()
        };
        let (seed0, seed1) = (seed_bytes(q0), seed_bytes(q1));
        assert_ne!(seed0, seed1);
        for frame in sent0.lock().iter() {
            assert!(!contains(frame, &seed1), "party 1 seed leaked to server 0");
        }
        for frame in sent1.lock().iter() {
            assert!(!contains(frame, &seed0), "party 0 seed leaked to server 1");
        }
    }

    // Size accounting: the encoded record inside the frame is exactly
    // `size_bytes()` — estimate == encoded, wire-true.
    for query in queries0.iter().chain(&queries1) {
        let mut writer = pir_wire::codec::WireWriter::new();
        pir_wire::codec::encode_server_query(query, &mut writer);
        assert_eq!(writer.len(), query.size_bytes());
        assert_eq!(
            query.size_bytes(),
            SERVER_QUERY_PREFIX_BYTES + query.key.size_bytes()
        );
    }
}

#[test]
fn wire_update_entry_hot_reloads_both_servers() {
    let runtime = Arc::new(test_runtime(55));
    let (t0, w0) = serve_loopback(&runtime, 0);
    let (t1, w1) = serve_loopback(&runtime, 1);
    let mut session = PirSession::connect(t0, t1, "admin").unwrap();
    let mut rng = StdRng::seed_from_u64(4);

    let table = test_table();
    assert_eq!(session.query("emb", 42, &mut rng).unwrap(), table.entry(42));

    let fresh = vec![0x5A; 24];
    session.update_entry("emb", 42, &fresh).unwrap();
    assert_eq!(session.query("emb", 42, &mut rng).unwrap(), fresh);
    // Neighbours untouched.
    assert_eq!(session.query("emb", 43, &mut rng).unwrap(), table.entry(43));

    // Width and range violations are typed, local, and never corrupt state.
    assert!(matches!(
        session.update_entry("emb", 1, &[0; 3]),
        Err(WireError::InvalidRequest(_))
    ));
    assert!(matches!(
        session.update_entry("emb", 512, &fresh),
        Err(WireError::InvalidRequest(_))
    ));

    drop(session);
    w0.join().unwrap();
    w1.join().unwrap();
}

#[test]
fn one_sided_errors_do_not_desynchronize_the_session() {
    // Two independent runtimes (the real deployment topology); after the
    // handshake, server 0 shuts down while server 1 keeps answering. Every
    // query now fails one-sided: party 0 sheds, party 1 returns a real
    // share. The session must drain both replies and stay in lockstep —
    // before the drain fix, the second call would pop party 1's stale
    // share and the session was poisoned forever.
    let runtime0 = Arc::new(test_runtime(61));
    let runtime1 = Arc::new(test_runtime(62));
    let (t0, w0) = serve_loopback(&runtime0, 0);
    let (t1, w1) = serve_loopback(&runtime1, 1);
    let mut session = PirSession::connect(t0, t1, "lockstep").unwrap();
    let mut rng = StdRng::seed_from_u64(6);

    assert!(session.query("emb", 5, &mut rng).is_ok());
    runtime0.shutdown();

    for attempt in 0..3 {
        let err = session.query("emb", 9, &mut rng).unwrap_err();
        assert!(
            err.is_shed(),
            "attempt {attempt}: expected a clean shed, got {err}"
        );
    }
    // One-sided update failures drain the other party's ack the same way.
    let err = session.update_entry("emb", 3, &[7u8; 24]).unwrap_err();
    assert!(err.is_shed(), "expected shed update, got {err}");
    let err = session.query("emb", 9, &mut rng).unwrap_err();
    assert!(
        err.is_shed(),
        "post-update queries still in lockstep: {err}"
    );

    drop(session);
    w0.join().unwrap();
    w1.join().unwrap();
}

#[test]
fn pipelined_session_reconstructs_across_two_tables() {
    // Two tables of very different sizes share one session: the pipeline
    // keeps a window of queries in flight across both, and every completion
    // must still reconstruct exactly. Interleaving a slow table with a fast
    // one is also how out-of-order completions arise in practice.
    let runtime = PirServeRuntime::new(ServeConfig::builder().seed(91).build().unwrap());
    let slow = PirTable::generate(1 << 12, 32, |row, offset| {
        (row as u8).wrapping_mul(7).wrapping_add(offset as u8)
    });
    let fast = PirTable::generate(64, 8, |row, offset| {
        (row as u8).wrapping_mul(3).wrapping_add(offset as u8)
    });
    for (name, table) in [("slow", slow.clone()), ("fast", fast.clone())] {
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table(name, table, config).unwrap();
    }
    let runtime = Arc::new(runtime);
    let (t0, w0) = serve_loopback(&runtime, 0);
    let (t1, w1) = serve_loopback(&runtime, 1);
    let mut session = PirSession::connect_with_window(t0, t1, "pipelined", 8).unwrap();
    assert_eq!(session.window(), 8);

    let mut rng = StdRng::seed_from_u64(10);
    let mut expected = std::collections::HashMap::new();
    for i in 0..24u64 {
        let (name, reference, entries) = if i % 3 == 0 {
            ("slow", &slow, 1 << 12)
        } else {
            ("fast", &fast, 64)
        };
        let index = (i * 37) % entries;
        let id = session.submit(name, index, &mut rng).unwrap();
        expected.insert(id, reference.entry(index));
    }
    while session.in_flight() + session.ready() > 0 {
        let done = session.poll().unwrap();
        let want = expected.remove(&done.query_id).expect("known id");
        assert_eq!(done.outcome.unwrap(), want, "query {}", done.query_id);
    }
    assert!(expected.is_empty(), "every submission completed");
    let stats = session.pipeline_stats();
    assert_eq!(stats.submitted, 24);
    assert_eq!(stats.completed, 24);
    assert_eq!(stats.version_skew_failures, 0);

    drop(session);
    w0.join().unwrap();
    w1.join().unwrap();
}

#[test]
fn update_entry_requires_a_drained_pipeline() {
    let runtime = Arc::new(test_runtime(71));
    let (t0, w0) = serve_loopback(&runtime, 0);
    let (t1, w1) = serve_loopback(&runtime, 1);
    let mut session = PirSession::connect_with_window(t0, t1, "admin", 4).unwrap();
    let mut rng = StdRng::seed_from_u64(14);
    session.submit("emb", 1, &mut rng).unwrap();
    let err = session.update_entry("emb", 1, &[0u8; 24]).unwrap_err();
    assert!(matches!(err, WireError::InvalidRequest(_)));
    // Drain, then the update goes through.
    let done = session.poll().unwrap();
    assert!(done.outcome.is_ok());
    session.update_entry("emb", 1, &[9u8; 24]).unwrap();
    assert_eq!(session.query("emb", 1, &mut rng).unwrap(), vec![9u8; 24]);
    drop(session);
    w0.join().unwrap();
    w1.join().unwrap();
}

#[test]
fn quota_exhaustion_is_a_shed_wire_error() {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .per_tenant_quota(1)
            .seed(9)
            .build()
            .unwrap(),
    );
    // The first query's quota slot is pinned by its unresolved
    // `PendingQuery`, however soon the batch former answers it, so the
    // second arrives over quota.
    let config = TableConfig::builder()
        .prf_kind(PrfKind::SipHash)
        .max_batch(64)
        .max_wait(Duration::from_millis(200))
        .build()
        .unwrap();
    runtime.register_table("emb", test_table(), config).unwrap();
    let runtime = Arc::new(runtime);

    // Saturate the quota with an embedded query that stays in flight.
    let handle = runtime.handle();
    let parked = handle.query("emb", "greedy", 1).unwrap();

    let (t0, w0) = serve_loopback(&runtime, 0);
    let (t1, w1) = serve_loopback(&runtime, 1);
    let mut session = PirSession::connect(t0, t1, "greedy").unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let err = session.query("emb", 2, &mut rng).unwrap_err();
    assert!(err.is_shed(), "expected shed, got {err}");

    drop(parked);
    drop(session);
    w0.join().unwrap();
    w1.join().unwrap();
}
