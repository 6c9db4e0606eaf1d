//! The paper's deployment shape, end to end over real sockets: two
//! non-colluding PIR server processes (threads here) behind TCP listeners,
//! and a phone-class client that talks to them only through the versioned
//! wire protocol.
//!
//! ```text
//! cargo run --example wire_tcp --release
//! ```
//!
//! Each server thread owns its *own* serving runtime (registry, batch
//! formers, device budget) and a [`WireFrontend`] for its party; the client
//! is a [`PirSession`] holding two independent TCP connections. The session
//! discovers the table catalog from both servers — no schema is injected
//! client-side — uploads exactly one DPF key projection per server, and
//! adds the two answer shares. It finishes with a hot reload pushed through
//! the admin `UpdateEntry` message, and prints wire-true byte accounting
//! measured on the actual encoded frames.

use std::net::TcpListener;
use std::time::Duration;

use gpu_pir_repro::pir_prf::PrfKind;
use gpu_pir_repro::pir_protocol::PirTable;
use gpu_pir_repro::pir_serve::{PirServeRuntime, ServeConfig, TableConfig, WireFrontend};
use gpu_pir_repro::pir_wire::{PirSession, TcpTransport, PROTOCOL_V2};
use rand::SeedableRng;

const ENTRIES: u64 = 1 << 12;
const ENTRY_BYTES: usize = 64;

fn build_table() -> PirTable {
    PirTable::generate(ENTRIES, ENTRY_BYTES, |row, offset| {
        (row as u8).wrapping_mul(31).wrapping_add(offset as u8)
    })
}

fn spawn_server(party: u8) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind listener");
    let addr = listener.local_addr().expect("local addr");
    let worker = std::thread::spawn(move || {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .seed(0xC0FFEE + u64::from(party))
                .build()
                .expect("valid config"),
        );
        let config = TableConfig::builder()
            .prf_kind(PrfKind::Chacha20)
            .max_batch(32)
            .max_wait(Duration::from_millis(1))
            .build()
            .expect("valid table config");
        runtime
            .register_table("embeddings", build_table(), config)
            .expect("register table");
        let frontend = WireFrontend::new(runtime.handle(), party);
        // One client connection for this demo; a production accept loop
        // would spawn a serve thread per connection.
        let (stream, peer) = listener.accept().expect("accept client");
        println!("server {party}: client connected from {peer}");
        let transport = TcpTransport::from_stream(stream).expect("wrap stream");
        frontend
            .serve(Box::new(transport))
            .expect("serve connection");
        let answered = runtime.stats().answered();
        println!("server {party}: connection closed after {answered} shares");
        runtime.shutdown();
    });
    (addr, worker)
}

fn main() {
    println!("wire protocol v{PROTOCOL_V2}: two TCP servers, one session\n");
    let (addr0, server0) = spawn_server(0);
    let (addr1, server1) = spawn_server(1);

    // The client side: two independent connections, nothing else.
    let t0 = Box::new(TcpTransport::connect(addr0).expect("connect server 0"));
    let t1 = Box::new(TcpTransport::connect(addr1).expect("connect server 1"));
    let mut session = PirSession::connect(t0, t1, "wire-demo").expect("catalog handshake");

    let schema = session.schema("embeddings").expect("discovered table");
    println!(
        "catalog discovered: {:?} hosting {} entries x {} B\n",
        session.table_names(),
        schema.entries,
        schema.entry_bytes
    );

    // Private lookups over the wire.
    let reference = build_table();
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    for index in [3u64, 1234, 4095] {
        let row = session
            .query("embeddings", index, &mut rng)
            .expect("row reconstructs");
        assert_eq!(row, reference.entry(index), "index {index}");
        println!(
            "row {index:>4} reconstructed correctly: {:02x?}...",
            &row[..6]
        );
    }

    // Hot reload through the admin message: both servers apply it, clients
    // need no new keys.
    let fresh = vec![0xAB; ENTRY_BYTES];
    session
        .update_entry("embeddings", 1234, &fresh)
        .expect("hot reload");
    let row = session
        .query("embeddings", 1234, &mut rng)
        .expect("updated row reconstructs");
    assert_eq!(row, fresh);
    println!("row 1234 hot-reloaded and re-read through the same session");

    // Wire-true communication accounting, measured on actual frames.
    let stats = session.conn_stats();
    assert_eq!(stats[0].bytes_sent, stats[1].bytes_sent);
    println!(
        "\nper-server communication: {} frames / {} B uploaded, {} frames / {} B downloaded",
        stats[0].frames_sent,
        stats[0].bytes_sent,
        stats[0].frames_received,
        stats[0].bytes_received,
    );
    println!(
        "(vs {} KB to ship the whole table: the DPF advantage, now measured on encoded bytes)",
        reference.size_bytes() / 1000
    );

    drop(session);
    server0.join().expect("server 0 exits");
    server1.join().expect("server 1 exits");
    println!("\nwire_tcp example finished: both servers exited cleanly");
}
