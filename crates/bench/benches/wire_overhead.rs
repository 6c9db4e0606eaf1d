//! Criterion benchmark of the wire boundary's serialization overhead.
//!
//! Measures (1) the pure encode+decode+framing cost per query/response pair,
//! (2) a full loopback session round trip (encode → frame → frontend
//! decode → batch former → device → encode → client decode → reconstruct)
//! against the in-process `ServeHandle` path on an identical runtime, so
//! the cost of making the trust boundary a byte protocol shows up in the
//! perf trajectory, and (3) the same pipelined wave over TCP on 127.0.0.1.

use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use criterion::{criterion_group, criterion_main, Criterion};
use pir_prf::PrfKind;
use pir_protocol::{PirClient, PirTable};
use pir_serve::{PirServeRuntime, ServeConfig, TableConfig, WireFrontend};
use pir_wire::{
    decode_message, encode_message, loopback_pair, PirSession, QueryMsg, TcpTransport, WireMessage,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

const ENTRIES: u64 = 1 << 12;
const ENTRY_BYTES: usize = 32;

fn build_runtime(seed: u64) -> PirServeRuntime {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .queue_capacity(4096)
            .per_tenant_quota(4096)
            .seed(seed)
            .build()
            .expect("valid config"),
    );
    let table = PirTable::generate(ENTRIES, ENTRY_BYTES, |row, offset| {
        (row as u8).wrapping_add(offset as u8)
    });
    let config = TableConfig::builder()
        .prf_kind(PrfKind::SipHash)
        .max_batch(16)
        .max_wait(Duration::from_micros(200))
        .build()
        .expect("valid table config");
    runtime
        .register_table("bench", table, config)
        .expect("register");
    runtime
}

fn bench_codec(c: &mut Criterion) {
    let client = PirClient::new(
        pir_protocol::TableSchema::new(ENTRIES, ENTRY_BYTES),
        PrfKind::SipHash,
    );
    let mut rng = StdRng::seed_from_u64(11);
    let query = client.query(17, &mut rng);
    let message = WireMessage::Query(QueryMsg {
        table: "bench".into(),
        tenant: "t".into(),
        query: query.to_server(0),
    });
    let frame = encode_message(&message);

    let mut group = c.benchmark_group("wire_overhead");
    group.bench_function("encode_query_frame", |b| {
        b.iter(|| encode_message(&message));
    });
    group.bench_function("decode_query_frame", |b| {
        b.iter(|| decode_message(&frame).expect("decodes"));
    });
    group.finish();
}

fn bench_roundtrip_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_overhead");

    // Baseline: the embedded in-process path (no serialization at all).
    let runtime = build_runtime(21);
    let handle = runtime.handle();
    let mut index = 0u64;
    group.bench_function("embedded_handle_roundtrip", |b| {
        b.iter(|| {
            index = (index + 97) % ENTRIES;
            handle
                .query("bench", "bench-tenant", index)
                .expect("admitted")
                .wait()
                .expect("answered")
        });
    });
    drop(handle);
    runtime.shutdown();

    // The same lookups through the full wire path over loopback transports.
    let runtime = Arc::new(build_runtime(22));
    let mut workers = Vec::new();
    let mut client_ends = Vec::new();
    for party in 0..2u8 {
        let (client_end, server_end) = loopback_pair();
        client_ends.push(Box::new(client_end));
        let frontend = WireFrontend::new(runtime.handle(), party);
        workers.push(std::thread::spawn(move || {
            let _ = frontend.serve(Box::new(server_end));
        }));
    }
    let t1 = client_ends.pop().expect("two ends");
    let t0 = client_ends.pop().expect("two ends");
    let mut session = PirSession::connect(t0, t1, "bench-tenant").expect("connect");
    let mut rng = StdRng::seed_from_u64(23);
    let mut index = 0u64;
    group.bench_function("wire_session_roundtrip", |b| {
        b.iter(|| {
            index = (index + 97) % ENTRIES;
            session.query("bench", index, &mut rng).expect("answered")
        });
    });
    // The same wave pipelined 16-deep: one iteration = 16 lookups, so
    // comparing per-iteration times against 16 lockstep roundtrips shows
    // the pipelining win directly.
    group.bench_function("wire_session_pipelined_wave16", |b| {
        b.iter(|| wave16(&mut session, &mut index, &mut rng));
    });
    drop(session);
    for worker in workers {
        worker.join().expect("serve loop exits");
    }
    runtime.shutdown();

    // The same wave over TCP on 127.0.0.1: each side's writer sends what it
    // has ready as one burst, so this is where the transport's syscalls per
    // frame show.
    let runtime = Arc::new(build_runtime(24));
    let mut workers = Vec::new();
    let mut addrs = Vec::new();
    for party in 0..2u8 {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        addrs.push(listener.local_addr().expect("listener has an address"));
        let frontend = WireFrontend::new(runtime.handle(), party);
        workers.push(std::thread::spawn(move || {
            let (stream, _) = listener.accept().expect("accept the session");
            let transport = TcpTransport::from_stream(stream).expect("socket options");
            let _ = frontend.serve(Box::new(transport));
        }));
    }
    let dial = |addr| Box::new(TcpTransport::connect(addr).expect("connect"));
    let mut session =
        PirSession::connect(dial(addrs[0]), dial(addrs[1]), "bench-tenant").expect("connect");
    group.bench_function("tcp_session_pipelined_wave16", |b| {
        b.iter(|| wave16(&mut session, &mut index, &mut rng));
    });
    group.finish();

    drop(session);
    for worker in workers {
        worker.join().expect("serve loop exits");
    }
    runtime.shutdown();
}

/// Submit 16 lookups, then drain them all.
fn wave16(session: &mut PirSession, index: &mut u64, rng: &mut StdRng) {
    for _ in 0..16 {
        *index = (*index + 97) % ENTRIES;
        session.submit("bench", *index, rng).expect("submitted");
    }
    while session.in_flight() + session.ready() > 0 {
        session
            .poll()
            .expect("completed")
            .outcome
            .expect("answered");
    }
}

fn benches(c: &mut Criterion) {
    bench_codec(c);
    bench_roundtrip_paths(c);
}

criterion_group!(wire_overhead, benches);
criterion_main!(wire_overhead);
