//! End-to-end cluster tests: routers over real per-shard serving runtimes.
//!
//! Deployment shape under test = the real one: one runtime per
//! (shard, party) — each party's shard-owners are separate processes with
//! their own masked table copy — and one router per party fronting them.

use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use pir_cluster::{ClusterConfig, ClusterError, ClusterMembership, ClusterRouter, ShardEndpoints};
use pir_prf::PrfKind;
use pir_protocol::PirTable;
use pir_serve::{PirServeRuntime, ServeConfig, TableConfig, WireFrontend};
use pir_wire::{
    decode_message, encode_message, loopback_pair, Dialer, ErrorCode, ErrorReply,
    LoopbackTransport, PirSession, PirTransport, QueryMsg, ResponseMsg, SplitTransport, TcpDialer,
    TcpTransport, UpdateEntryMsg, WireError, WireMessage,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ENTRIES: u64 = 100;
const ENTRY_BYTES: usize = 8;

fn fill(row: u64, offset: usize) -> u8 {
    (row as u8).wrapping_mul(29).wrapping_add(offset as u8)
}

fn base_table() -> PirTable {
    PirTable::generate(ENTRIES, ENTRY_BYTES, fill)
}

fn shard_runtime(view: PirTable, seed: u64) -> Arc<PirServeRuntime> {
    let runtime = PirServeRuntime::new(ServeConfig::builder().seed(seed).build().unwrap());
    let config = TableConfig::builder()
        .prf_kind(PrfKind::SipHash)
        .max_batch(8)
        .max_wait(Duration::from_millis(1))
        .build()
        .unwrap();
    runtime.register_table("emb", view, config).unwrap();
    Arc::new(runtime)
}

/// A replica endpoint over loopback. A healthy replica serves every dial
/// with the frontend's pipelined `serve`; a faulty one serves frame at a
/// time and dies the way its [`Fault`] says.
struct ReplicaDialer {
    runtime: Arc<PirServeRuntime>,
    party: u8,
    fault: Option<Fault>,
}

/// How a faulty replica dies: `dead` simulates the process disappearing
/// (dials refused, a live connection dropped at its next frame);
/// `serve_limit` simulates it dying mid-run (a connection drops when asked
/// to serve one frame more).
struct Fault {
    dead: Arc<AtomicBool>,
    serve_limit: Option<usize>,
}

impl ReplicaDialer {
    fn live(runtime: &Arc<PirServeRuntime>, party: u8) -> Arc<dyn Dialer> {
        Arc::new(Self {
            runtime: Arc::clone(runtime),
            party,
            fault: None,
        })
    }
}

impl Dialer for ReplicaDialer {
    fn dial(&self) -> Result<Box<dyn PirTransport>, WireError> {
        let (client, mut server) = loopback_pair();
        let frontend = WireFrontend::new(self.runtime.handle(), self.party);
        match &self.fault {
            None => {
                std::thread::spawn(move || {
                    let _ = frontend.serve(Box::new(server));
                });
            }
            Some(fault) => {
                if fault.dead.load(Ordering::SeqCst) {
                    return Err(WireError::Transport("replica is down".into()));
                }
                let (dead, limit) = (Arc::clone(&fault.dead), fault.serve_limit);
                std::thread::spawn(move || {
                    let mut served = 0usize;
                    while let Ok(frame) = server.recv() {
                        if dead.load(Ordering::SeqCst) || limit.is_some_and(|n| served >= n) {
                            return; // drops the connection mid-call
                        }
                        let reply = frontend.handle_frame(&frame);
                        if server.send(&reply).is_err() {
                            return;
                        }
                        served += 1;
                    }
                });
            }
        }
        Ok(Box::new(client))
    }

    fn describe(&self) -> String {
        format!("loopback-party{}", self.party)
    }
}

/// Routers for both parties over single-replica shards, from one base
/// table. Returns the per-(shard, party) runtimes alongside.
fn two_party_cluster(
    table: &PirTable,
    shards: usize,
) -> ([Arc<ClusterRouter>; 2], Vec<Arc<PirServeRuntime>>) {
    let map = pir_cluster::ShardMap::new(table.entries(), shards).unwrap();
    let views = map.provision(table);
    let config = ClusterConfig {
        probe_interval: None,
    };
    let mut runtimes = Vec::new();
    let mut routers = Vec::new();
    for party in 0..2u8 {
        let mut endpoints = Vec::new();
        for (shard, view) in views.iter().enumerate() {
            let runtime = shard_runtime(view.clone(), 100 * u64::from(party) + shard as u64);
            endpoints.push(ShardEndpoints::single(ReplicaDialer::live(&runtime, party)));
            runtimes.push(runtime);
        }
        let membership = ClusterMembership::new(endpoints);
        routers.push(Arc::new(
            ClusterRouter::connect(&membership, &config, party).unwrap(),
        ));
    }
    let router1 = routers.pop().unwrap();
    let router0 = routers.pop().unwrap();
    ([router0, router1], runtimes)
}

/// Connect a client session to the two routers over loopback.
fn connect_session(routers: &[Arc<ClusterRouter>; 2], tenant: &str) -> PirSession {
    connect_session_with_window(routers, tenant, 1)
}

fn connect_session_with_window(
    routers: &[Arc<ClusterRouter>; 2],
    tenant: &str,
    window: usize,
) -> PirSession {
    let mut ends: Vec<Box<dyn PirTransport>> = Vec::new();
    for router in routers {
        let (client, server) = loopback_pair();
        let router = Arc::clone(router);
        std::thread::spawn(move || {
            router.serve(Box::new(server)).expect("router serve");
        });
        ends.push(Box::new(client));
    }
    let t1 = ends.pop().unwrap();
    let t0 = ends.pop().unwrap();
    PirSession::connect_with_window(t0, t1, tenant, window).expect("session connect")
}

/// Drive `count` lookups through `session` with its window kept full,
/// asserting every row against `table`; returns the completions' wire ids.
fn drive_window(
    session: &mut PirSession,
    table: &PirTable,
    count: usize,
    rng: &mut StdRng,
) -> Vec<u64> {
    let (mut submitted, mut ids) = (0, Vec::new());
    while ids.len() < count {
        while submitted < count && session.in_flight() < session.window() {
            session
                .submit("emb", rng.gen_range(0..ENTRIES), rng)
                .expect("submit");
            submitted += 1;
        }
        let done = session.poll().expect("session healthy");
        let row = done.outcome.expect("answered");
        assert_eq!(row, table.entry(done.index), "row {}", done.index);
        ids.push(done.query_id);
    }
    ids
}

#[test]
fn sharded_cluster_answers_are_bit_identical_to_the_table() {
    let table = base_table();
    let (routers, _runtimes) = two_party_cluster(&table, 3);
    let mut session = connect_session(&routers, "t");
    let mut rng = StdRng::seed_from_u64(7);
    // Subtree boundaries for 100 rows over 3 shards (span 32), plus strays.
    let mut indices = vec![0, 31, 32, 63, 64, 95, 96, 99];
    indices.extend((0..8).map(|_| rng.gen_range(0..ENTRIES)));
    for index in indices {
        let row = session.query("emb", index, &mut rng).expect("answered");
        assert_eq!(row, table.entry(index), "row {index}");
    }
    for router in &routers {
        let stats = router.stats();
        assert_eq!(stats.fence_lagged, 0);
        assert_eq!(stats.fences.len(), 1);
        assert_eq!(stats.fences[0].cluster_version, 1);
        // The first answers pinned every shard's fence slot.
        assert_eq!(stats.fences[0].shard_versions, vec![Some(1); 3]);
        assert!(stats.shards.iter().all(|s| s.in_flight == 0));
    }
}

#[test]
fn updates_route_to_the_owning_shard_and_flip_the_fence() {
    let table = base_table();
    let (routers, _runtimes) = two_party_cluster(&table, 3);
    let map = routers[0].shard_map("emb").unwrap().clone();
    let mut session = connect_session(&routers, "t");
    let mut rng = StdRng::seed_from_u64(8);
    // One update per shard, then read the rows back through the cluster.
    let targets: Vec<u64> = vec![5, 40, 70];
    for (round, &index) in targets.iter().enumerate() {
        let value = vec![0xE0 + round as u8; ENTRY_BYTES];
        session.update_entry("emb", index, &value).expect("update");
        let row = session.query("emb", index, &mut rng).expect("answered");
        assert_eq!(row, value, "row {index} after reload");
    }
    // Untouched rows still read exactly.
    let row = session.query("emb", 99, &mut rng).expect("answered");
    assert_eq!(row, table.entry(99));
    for router in &routers {
        let stats = router.stats();
        assert_eq!(stats.updates_staged, 3);
        assert_eq!(stats.updates_flipped, 3, "every staged update flipped");
        assert_eq!(stats.fence_lagged, 0);
        let fence = &stats.fences[0];
        assert_eq!(fence.cluster_version, 1 + 3);
        for shard in 0..3 {
            let owned_updates = targets
                .iter()
                .filter(|&&index| map.owner_of(index) == shard)
                .count() as u64;
            assert_eq!(
                fence.shard_versions[shard],
                Some(1 + owned_updates),
                "shard {shard} fence tracks its own reload count"
            );
        }
    }
}

#[test]
fn a_misrouted_update_is_refused_by_the_shard_that_does_not_hold_the_row() {
    let table = base_table();
    let (routers, runtimes) = two_party_cluster(&table, 2);
    let map = routers[0].shard_map("emb").unwrap();
    assert_eq!(map.owner_of(5), 0);
    // Past the router, straight at party 0's shard 1: its view zeroed row 5,
    // and writing it there would count the row twice in every aggregate.
    let misrouted = encode_message(&WireMessage::UpdateEntry(UpdateEntryMsg {
        table: "emb".into(),
        index: 5,
        bytes: vec![0xAA; ENTRY_BYTES],
    }));
    let shard1 = WireFrontend::new(runtimes[1].handle(), 0);
    match decode_message(&shard1.handle_frame(&misrouted)).unwrap() {
        WireMessage::Error(reply) => {
            assert_eq!(reply.code, ErrorCode::Protocol);
            assert!(reply.message.contains("row 5"), "{}", reply.message);
        }
        other => panic!("expected a typed error, got {}", other.name()),
    }
    // Nothing was applied: no version moved, and the row reads as before.
    assert_eq!(runtimes[1].handle().table_versions("emb").unwrap(), [1, 1]);
    let mut session = connect_session(&routers, "t");
    let mut rng = StdRng::seed_from_u64(12);
    assert_eq!(session.query("emb", 5, &mut rng).unwrap(), table.entry(5));
    // The same write through the router reaches the owner and lands.
    session
        .update_entry("emb", 5, &[0xAA; ENTRY_BYTES])
        .unwrap();
    assert_eq!(
        session.query("emb", 5, &mut rng).unwrap(),
        [0xAA; ENTRY_BYTES]
    );
    assert_eq!(
        routers[0].stats().fences[0].shard_versions,
        [Some(2), Some(1)]
    );
}

#[test]
fn reload_churn_never_reconstructs_mixed_version_rows() {
    let table = base_table();
    let (routers, _runtimes) = two_party_cluster(&table, 2);
    // Rows on both shards (2 shards over 100 rows: split at subtree 64).
    const CHURNED: [u64; 2] = [3, 80];
    const FILLS: [u8; 3] = [0xA1, 0xB2, 0xC3];
    let stop = Arc::new(AtomicBool::new(false));
    let churn = {
        let mut admin = connect_session(&routers, "admin");
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut round = 0usize;
            let mut updates = 0u64;
            while !stop.load(Ordering::Acquire) {
                let row = CHURNED[round % CHURNED.len()];
                let fill = FILLS[round % FILLS.len()];
                admin
                    .update_entry("emb", row, &[fill; ENTRY_BYTES])
                    .expect("reload");
                updates += 1;
                round += 1;
                std::thread::sleep(Duration::from_micros(200));
            }
            updates
        })
    };
    let mut session = connect_session(&routers, "t");
    let mut rng = StdRng::seed_from_u64(9);
    for round in 0..60u64 {
        let index = if round % 3 == 0 {
            CHURNED[(round as usize / 3) % CHURNED.len()]
        } else {
            rng.gen_range(0..ENTRIES)
        };
        // A query may legitimately fail typed under brutal churn (cross-
        // party skew after the one transparent retry, or a fence
        // rejection): re-issue it. What must never happen is a garbage row.
        let mut attempts = 0;
        let row = loop {
            match session.query("emb", index, &mut rng) {
                Ok(row) => break row,
                Err(WireError::VersionSkew { .. }) | Err(WireError::Remote { shed: true, .. }) => {
                    attempts += 1;
                    assert!(attempts < 50, "typed retries runaway on row {index}");
                }
                Err(err) => panic!("query for row {index} failed hard: {err}"),
            }
        };
        let pristine: Vec<u8> = (0..ENTRY_BYTES).map(|o| fill(index, o)).collect();
        let ok = row == pristine
            || (CHURNED.contains(&index) && FILLS.iter().any(|&f| row.iter().all(|&b| b == f)));
        assert!(
            ok,
            "row {index} reconstructed to garbage under churn: {row:02x?}"
        );
    }
    stop.store(true, Ordering::Release);
    let updates = churn.join().expect("churn thread");
    assert!(updates > 0, "churn must have run");
    for router in &routers {
        let stats = router.stats();
        assert_eq!(
            stats.updates_staged, stats.updates_flipped,
            "no update left half-applied (staged without flipping)"
        );
        assert_eq!(stats.updates_flipped, updates);
        assert_eq!(stats.fences[0].cluster_version, 1 + updates);
    }
}

#[test]
fn dying_replica_fails_over_without_losing_queries() {
    let table = base_table();
    let map = pir_cluster::ShardMap::new(ENTRIES, 2).unwrap();
    let views = map.provision(&table);
    let config = ClusterConfig {
        probe_interval: None,
    };
    let mut routers = Vec::new();
    let mut keep = Vec::new();
    for party in 0..2u8 {
        // Shard 0: every connection to the first replica serves two
        // frames, then drops — its admin connection carries the handshake
        // and the calibration, its query link two queries; the second
        // replica is healthy. Shard 1: healthy single replica. Both
        // replicas of shard 0 host the same masked copy, as a real
        // deployment would.
        let dying_runtime = shard_runtime(views[0].clone(), 40 + u64::from(party));
        let dying: Arc<dyn Dialer> = Arc::new(ReplicaDialer {
            runtime: Arc::clone(&dying_runtime),
            party,
            fault: Some(Fault {
                dead: Arc::new(AtomicBool::new(false)),
                serve_limit: Some(2),
            }),
        });
        let healthy_runtime = shard_runtime(views[0].clone(), 50 + u64::from(party));
        let shard1_runtime = shard_runtime(views[1].clone(), 60 + u64::from(party));
        let membership = ClusterMembership::new(vec![
            ShardEndpoints::new(vec![dying, ReplicaDialer::live(&healthy_runtime, party)]),
            ShardEndpoints::single(ReplicaDialer::live(&shard1_runtime, party)),
        ]);
        routers.push(Arc::new(
            ClusterRouter::connect(&membership, &config, party).unwrap(),
        ));
        keep.push((dying_runtime, healthy_runtime, shard1_runtime));
    }
    let router1 = routers.pop().unwrap();
    let router0 = routers.pop().unwrap();
    let routers = [router0, router1];
    let mut session = connect_session(&routers, "t");
    let mut rng = StdRng::seed_from_u64(11);
    // Queries 1 and 2 use up the dying replica's query link; query 3 hits
    // the dropped connection mid-call and must fail over, not fail.
    for index in [10u64, 20, 30, 70, 15] {
        let row = session.query("emb", index, &mut rng).expect("answered");
        assert_eq!(row, table.entry(index), "row {index}");
    }
    for router in &routers {
        let stats = router.stats();
        assert!(
            stats.shards[0].failovers >= 1,
            "shard 0 must have failed over: {stats:?}"
        );
        assert_eq!(stats.shards[1].failovers, 0);
        assert_eq!(stats.fence_lagged, 0);
    }
}

#[test]
fn losing_every_replica_degrades_to_a_typed_shed_error() {
    let table = base_table();
    let views = pir_cluster::ShardMap::new(ENTRIES, 1)
        .unwrap()
        .provision(&table);
    let config = ClusterConfig {
        probe_interval: None,
    };
    let mut routers = Vec::new();
    let mut switches = Vec::new();
    let mut keep = Vec::new();
    for party in 0..2u8 {
        let runtime = shard_runtime(views[0].clone(), 70 + u64::from(party));
        let dead = Arc::new(AtomicBool::new(false));
        // Once `dead` flips, the live query link drops at its next frame
        // and every redial is refused.
        let replica: Arc<dyn Dialer> = Arc::new(ReplicaDialer {
            runtime: Arc::clone(&runtime),
            party,
            fault: Some(Fault {
                dead: Arc::clone(&dead),
                serve_limit: None,
            }),
        });
        let membership = ClusterMembership::new(vec![ShardEndpoints::single(replica)]);
        routers.push(Arc::new(
            ClusterRouter::connect(&membership, &config, party).unwrap(),
        ));
        switches.push(dead);
        keep.push(runtime);
    }
    let router1 = routers.pop().unwrap();
    let router0 = routers.pop().unwrap();
    let routers = [router0, router1];
    let mut session = connect_session(&routers, "t");
    for dead in &switches {
        dead.store(true, Ordering::SeqCst);
    }
    let mut rng = StdRng::seed_from_u64(12);
    match session.query("emb", 5, &mut rng) {
        Err(WireError::Remote { shed, message, .. }) => {
            assert!(
                shed,
                "ShardUnavailable must surface as a shed (retry-later) error"
            );
            assert!(message.contains("no live replica"), "{message}");
        }
        other => panic!("expected a shed error, got {other:?}"),
    }
}

#[test]
fn misprovisioned_clusters_are_rejected_at_connect() {
    let table = base_table();
    let config = ClusterConfig {
        probe_interval: None,
    };
    // Catalog disagreement: shard 1 hosts a differently-shaped table.
    let runtime0 = shard_runtime(table.clone(), 1);
    let runtime1 = shard_runtime(PirTable::generate(64, 8, fill), 2);
    let membership = ClusterMembership::new(vec![
        ShardEndpoints::single(ReplicaDialer::live(&runtime0, 0)),
        ShardEndpoints::single(ReplicaDialer::live(&runtime1, 0)),
    ]);
    match ClusterRouter::connect(&membership, &config, 0) {
        Err(ClusterError::CatalogMismatch { shard: 1, .. }) => {}
        other => panic!("expected catalog mismatch, got {other:?}"),
    }
    // Party disagreement: shards answer for party 1, router fronts party 0.
    let membership = ClusterMembership::new(vec![ShardEndpoints::single(ReplicaDialer::live(
        &runtime0, 1,
    ))]);
    match ClusterRouter::connect(&membership, &config, 0) {
        Err(ClusterError::Config(detail)) => assert!(detail.contains("party"), "{detail}"),
        other => panic!("expected config error, got {other:?}"),
    }
}

#[test]
fn routers_answer_hostile_frames_with_typed_bounded_replies() {
    let ([router, _], _runtimes) = two_party_cluster(&base_table(), 2);
    let error_of = |frame: &[u8]| match decode_message(&router.handle_frame(frame)).unwrap() {
        WireMessage::Error(error) => error,
        other => panic!("expected error, got {}", other.name()),
    };
    // The retired version 1 and a future version: well-formed frames, both
    // outside the range, both answered with the range.
    for version in [1u8, 42] {
        let mut frame = encode_message(&WireMessage::CatalogRequest);
        frame[2] = version;
        let error = error_of(&frame);
        assert_eq!(error.code, ErrorCode::UnsupportedVersion);
        assert_eq!((error.min_version, error.max_version), (2, 2));
    }
    for frame in [&b""[..], &b"XX"[..], &[0x50, 0x57, 2, 0, 3][..]] {
        assert_eq!(error_of(frame).code, ErrorCode::Malformed);
    }
    // A server→client message sent to the router.
    let response = encode_message(&WireMessage::Response(ResponseMsg {
        response: pir_protocol::PirResponse {
            query_id: 1,
            party: 0,
            share: vec![1],
        },
        table_version: 0,
    }));
    assert_eq!(error_of(&response).code, ErrorCode::InvalidRequest);
    // A table name as long as the string codec allows is echoed truncated,
    // not re-encoded past the codec's limit.
    let client = pir_protocol::PirClient::new(base_table().schema(), PrfKind::SipHash);
    let query = client.query(1, &mut StdRng::seed_from_u64(3));
    let error = error_of(&encode_message(&WireMessage::Query(QueryMsg {
        table: "x".repeat(u16::MAX as usize),
        tenant: "t".into(),
        query: query.to_server(0),
    })));
    assert_eq!(error.code, ErrorCode::UnknownTable);
    assert_eq!(error.query_id, query.query_id);
    assert!(error.message.len() <= ErrorReply::MAX_DETAIL_BYTES + 32);
    assert!(error.message.ends_with("(truncated)"));
}

/// A party-0 router over one single-replica shard, probing at `interval`.
fn probing_router(interval: Duration) -> (ClusterRouter, Arc<PirServeRuntime>) {
    let table = base_table();
    let views = pir_cluster::ShardMap::new(ENTRIES, 1)
        .unwrap()
        .provision(&table);
    let runtime = shard_runtime(views[0].clone(), 90);
    let membership = ClusterMembership::new(vec![ShardEndpoints::single(ReplicaDialer::live(
        &runtime, 0,
    ))]);
    let config = ClusterConfig {
        probe_interval: Some(interval),
    };
    let router = ClusterRouter::connect(&membership, &config, 0).unwrap();
    (router, runtime)
}

#[test]
fn probing_keeps_connections_warm() {
    let (router, _runtime) = probing_router(Duration::from_millis(5));
    std::thread::sleep(Duration::from_millis(40));
    let stats = router.stats();
    assert_eq!(stats.shards[0].probe_failures, 0);
    assert!(
        stats.shards[0].calls >= 2,
        "prober must have pinged the shard: {stats:?}"
    );
    assert_eq!(stats.shards[0].connected_replica, Some(0));
    router.shutdown();
}

#[test]
fn shutdown_wakes_a_parked_prober() {
    let (router, _runtime) = probing_router(Duration::from_secs(10));
    // Long enough for the first probe round to finish and the prober to
    // park; the bound below holds on either side of that race.
    std::thread::sleep(Duration::from_millis(20));
    let started = std::time::Instant::now();
    router.shutdown();
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown waited {:?} on a 10 s probe interval",
        started.elapsed()
    );
}

#[test]
fn a_session_window_reaches_every_shard_as_one_batch() {
    let table = base_table();
    let (routers, runtimes) = two_party_cluster(&table, 2);
    let before: Vec<_> = routers.iter().map(|router| router.stats()).collect();
    let mut session = connect_session_with_window(&routers, "t", 8);
    const QUERIES: usize = 64;
    drive_window(
        &mut session,
        &table,
        QUERIES,
        &mut StdRng::seed_from_u64(13),
    );
    for (router, before) in routers.iter().zip(&before) {
        let stats = router.stats();
        let legs: u64 = stats
            .shards
            .iter()
            .zip(&before.shards)
            .map(|(now, then)| now.calls - then.calls)
            .sum();
        assert_eq!(legs, (2 * QUERIES) as u64, "one leg per shard per query");
        assert!(stats.shards.iter().all(|s| s.in_flight == 0), "{stats:?}");
        assert!(stats.shards.iter().all(|s| s.failovers == 0), "{stats:?}");
        assert_eq!(stats.fence_retries, 0);
    }
    let max_batch = runtimes
        .iter()
        .map(|runtime| runtime.stats().tables[0].max_batch)
        .max()
        .unwrap();
    assert!(
        max_batch > 1,
        "a window of 8 must reach some shard's batcher as a multi-key launch"
    );
}

#[test]
fn sessions_with_colliding_wire_ids_each_read_their_own_rows() {
    let table = base_table();
    let (routers, _runtimes) = two_party_cluster(&table, 2);
    const QUERIES: usize = 40;
    let (done, finished) = mpsc::channel();
    for seed in 0..2u64 {
        let (routers, table, done) = (routers.clone(), table.clone(), done.clone());
        std::thread::spawn(move || {
            let mut session = connect_session_with_window(&routers, "t", 8);
            let mut rng = StdRng::seed_from_u64(20 + seed);
            let mut ids = drive_window(&mut session, &table, QUERIES, &mut rng);
            ids.sort_unstable();
            done.send(ids).unwrap();
        });
    }
    for _ in 0..2 {
        // A leg lost to an id collision would hang its session: time out.
        let ids = finished
            .recv_timeout(Duration::from_secs(60))
            .expect("both sessions finish");
        // Both sessions numbered their wire ids 1..=n, concurrently.
        assert_eq!(ids, (1..=QUERIES as u64).collect::<Vec<_>>());
    }
    for router in &routers {
        assert_eq!(router.stats().queries, 2 * QUERIES as u64);
    }
}

/// A TCP listener that serves every accepted connection with `serve`.
fn tcp_endpoint<F>(serve: F) -> SocketAddr
where
    F: Fn(Box<dyn PirTransport>) + Send + Sync + 'static,
{
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let serve = Arc::new(serve);
    std::thread::spawn(move || {
        while let Ok((stream, _)) = listener.accept() {
            let serve = Arc::clone(&serve);
            let transport = TcpTransport::from_stream(stream).unwrap();
            std::thread::spawn(move || serve(Box::new(transport)));
        }
    });
    addr
}

/// A one-party query frame for `index` and its client wire id.
fn query_frame(index: u64, party: u8, seed: u64) -> (Vec<u8>, u64) {
    let client = pir_protocol::PirClient::new(base_table().schema(), PrfKind::SipHash);
    let query = client.query(index, &mut StdRng::seed_from_u64(seed));
    let frame = encode_message(&WireMessage::Query(QueryMsg {
        table: "emb".into(),
        tenant: "t".into(),
        query: query.to_server(party),
    }));
    (frame, query.query_id)
}

#[test]
fn shutdown_with_live_shards_and_idle_readers_returns_promptly() {
    let views = pir_cluster::ShardMap::new(ENTRIES, 2)
        .unwrap()
        .provision(&base_table());
    let mut runtimes = Vec::new();
    let mut shards = Vec::new();
    for (shard, view) in views.into_iter().enumerate() {
        let runtime = shard_runtime(view, 80 + shard as u64);
        let handle = runtime.handle();
        let addr = tcp_endpoint(move |transport| {
            let _ = WireFrontend::new(handle.clone(), 0).serve(transport);
        });
        // A 50 ms io timeout: the readers go idle past it many times over.
        shards.push(ShardEndpoints::single(Arc::new(TcpDialer::with_timeouts(
            addr,
            Duration::from_secs(1),
            Duration::from_millis(50),
        ))));
        runtimes.push(runtime);
    }
    let config = ClusterConfig {
        probe_interval: None,
    };
    let router = ClusterRouter::connect(&ClusterMembership::new(shards), &config, 0).unwrap();
    for index in [3, 70] {
        let (frame, id) = query_frame(index, 0, index);
        match decode_message(&router.handle_frame(&frame)).unwrap() {
            WireMessage::Response(msg) => assert_eq!(msg.response.query_id, id),
            other => panic!("expected a share, got {}", other.name()),
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    let stats = router.stats();
    assert!(
        stats.shards.iter().all(|s| s.failovers == 0),
        "idle read timeouts are not failovers: {stats:?}"
    );
    assert!(stats.shards.iter().all(|s| s.connected_replica == Some(0)));
    let started = Instant::now();
    router.shutdown();
    drop(router);
    assert!(
        started.elapsed() < Duration::from_secs(1),
        "shutdown took {:?} with the shards still up",
        started.elapsed()
    );
}

/// A party-0 router over one shard whose query link swallows every leg
/// (the first dial, the admin connection, is served), with the shard's
/// runtime.
fn swallowing_router(seed: u64) -> (Arc<ClusterRouter>, Arc<PirServeRuntime>) {
    let views = pir_cluster::ShardMap::new(ENTRIES, 1)
        .unwrap()
        .provision(&base_table());
    let runtime = shard_runtime(views[0].clone(), seed);
    let dials = AtomicUsize::new(0);
    let handle = runtime.handle();
    let dialer = move || -> Result<Box<dyn PirTransport>, WireError> {
        let (client, mut server) = loopback_pair();
        if dials.fetch_add(1, Ordering::SeqCst) == 0 {
            let frontend = WireFrontend::new(handle.clone(), 0);
            std::thread::spawn(move || frontend.serve(Box::new(server)));
        } else {
            std::thread::spawn(move || while server.recv().is_ok() {});
        }
        Ok(Box::new(client))
    };
    let membership = ClusterMembership::new(vec![ShardEndpoints::single(Arc::new(dialer))]);
    let config = ClusterConfig {
        probe_interval: None,
    };
    let router = ClusterRouter::connect(&membership, &config, 0).unwrap();
    (Arc::new(router), runtime)
}

/// Wait until `router`'s only shard has a leg in flight.
fn await_leg_in_flight(router: &ClusterRouter) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while router.stats().shards[0].in_flight == 0 {
        assert!(Instant::now() < deadline, "the leg never went out");
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn a_query_in_flight_at_shutdown_gets_a_typed_shed_error() {
    let (router, _runtime) = swallowing_router(85);
    let (frame, id) = query_frame(5, 0, 5);
    let (tx, rx) = mpsc::channel();
    {
        let router = Arc::clone(&router);
        std::thread::spawn(move || tx.send(router.handle_frame(&frame)));
    }
    await_leg_in_flight(&router);
    router.shutdown();
    let reply = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("the in-flight query is answered, not hung");
    match decode_message(&reply).unwrap() {
        WireMessage::Error(error) => {
            assert_eq!(error.code, ErrorCode::Shed);
            assert!(error.shed);
            assert_eq!(error.query_id, id, "attributed to the client's id");
            assert!(error.message.contains("shutting down"), "{}", error.message);
        }
        other => panic!("expected a typed error, got {}", other.name()),
    }
    // Later queries are refused the same way, at once.
    let (frame, _) = query_frame(6, 0, 6);
    match decode_message(&router.handle_frame(&frame)).unwrap() {
        WireMessage::Error(error) => assert_eq!(error.code, ErrorCode::Shed),
        other => panic!("expected a typed error, got {}", other.name()),
    }
    assert_eq!(router.stats().shards[0].in_flight, 0);
}

#[test]
fn a_client_that_hangs_up_is_not_waited_for_by_its_router() {
    // The swallowed leg never lands on its own (the link has no io
    // timeout), so a router that drained what it owes would never return.
    let (router, _runtime) = swallowing_router(88);
    let (mut client, server) = loopback_pair();
    let (done, served) = mpsc::channel();
    {
        let router = Arc::clone(&router);
        std::thread::spawn(move || done.send(router.serve(Box::new(server))));
    }
    client.send(&query_frame(5, 0, 5).0).unwrap();
    await_leg_in_flight(&router);
    drop(client);
    let outcome = served
        .recv_timeout(Duration::from_secs(2))
        .expect("serve returns at the hang-up, without waiting for the leg");
    assert_eq!(outcome, Ok(()));
    // The leg that lands later has no one to answer.
    router.shutdown();
    assert_eq!(router.stats().shards[0].in_flight, 0);
}

#[test]
fn a_shard_transport_that_cannot_split_is_refused_at_connect() {
    /// A loopback endpoint that refuses to split into halves.
    struct Whole(LoopbackTransport);
    impl PirTransport for Whole {
        fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
            self.0.send(frame)
        }
        fn recv(&mut self) -> Result<Vec<u8>, WireError> {
            self.0.recv()
        }
        fn split(self: Box<Self>) -> SplitTransport {
            SplitTransport::Whole(self)
        }
    }
    let runtime = shard_runtime(base_table(), 86);
    let handle = runtime.handle();
    let dialer = move || -> Result<Box<dyn PirTransport>, WireError> {
        let (client, server) = loopback_pair();
        let frontend = WireFrontend::new(handle.clone(), 0);
        std::thread::spawn(move || frontend.serve(Box::new(server)));
        Ok(Box::new(Whole(client)))
    };
    let membership = ClusterMembership::new(vec![ShardEndpoints::single(Arc::new(dialer))]);
    let config = ClusterConfig {
        probe_interval: None,
    };
    match ClusterRouter::connect(&membership, &config, 0) {
        Err(ClusterError::Config(detail)) => assert!(detail.contains("cannot split"), "{detail}"),
        other => panic!("expected a config error, got {other:?}"),
    }
}
