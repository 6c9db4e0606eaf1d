//! Quickstart: privately fetch one embedding row from two PIR servers.
//!
//! ```text
//! cargo run --example quickstart --release
//! ```
//!
//! This walks the protocol of the paper's Figure 2: the client turns its
//! private index into two DPF keys, each (non-colluding) server expands its
//! key against the embedding table on the simulated GPU, and the client adds
//! the two answer shares to recover exactly the row it asked for — while
//! neither server learns which row that was.
//!
//! The exchange crosses the versioned `pir-wire` boundary as real bytes:
//! each server decodes a frame carrying *its* key only (the pair never
//! leaves the client), and all communication numbers printed below are
//! measured on the encoded frames. For the full client API — catalog
//! discovery, sessions over TCP, hot reload — see `examples/wire_tcp.rs`.

use gpu_pir_repro::pir_prf::PrfKind;
use gpu_pir_repro::pir_protocol::{GpuPirServer, PirClient, PirTable};
use gpu_pir_repro::pir_wire::{decode_message, encode_message, QueryMsg, WireMessage};
use rand::SeedableRng;

fn main() {
    // A small embedding table: 4,096 entries of 64 bytes.
    let table = PirTable::generate(4096, 64, |row, offset| {
        (row as u8).wrapping_mul(31).wrapping_add(offset as u8)
    });
    println!(
        "Serving a table of {} entries x {} B ({} KB total) from two servers.",
        table.entries(),
        table.entry_bytes(),
        table.size_bytes() / 1000
    );

    // Each server holds a replica of the table; ChaCha20 is the GPU-friendly PRF.
    let server0 = GpuPirServer::with_defaults(table.clone(), PrfKind::Chacha20);
    let server1 = GpuPirServer::with_defaults(table.clone(), PrfKind::Chacha20);
    let client = PirClient::new(table.schema(), PrfKind::Chacha20);

    // The client's private index.
    let secret_index = 1234u64;
    let mut rng = rand::rngs::StdRng::seed_from_u64(42);
    let query = client.query(secret_index, &mut rng);

    // Each server receives its own key projection as an encoded wire frame;
    // there is no frame that could carry the pair.
    let frames: Vec<Vec<u8>> = (0..2u8)
        .map(|party| {
            encode_message(&WireMessage::Query(QueryMsg {
                table: "embeddings".to_string(),
                tenant: "quickstart".to_string(),
                query: query.to_server(party),
            }))
        })
        .collect();
    println!(
        "Client uploads a {} B frame to each server — {} B of that is the query record \
         (vs {} KB for the naive linear scheme).",
        frames[0].len(),
        query.upload_bytes_per_server(),
        table.entries() * 16 / 1000
    );

    // Server side: decode the frame, answer the single-key query; the
    // simulated V100 reports what the evaluation cost.
    let answer = |server: &GpuPirServer, frame: &[u8]| {
        let decoded = decode_message(frame).expect("well-formed frame");
        let WireMessage::Query(request) = decoded else {
            panic!("expected a query frame");
        };
        let (mut responses, report) = server
            .answer_batch_with_report(&[request.query])
            .expect("server answers");
        let reply = encode_message(&WireMessage::Response(
            gpu_pir_repro::pir_wire::ResponseMsg {
                response: responses.remove(0),
                table_version: 1, // a fresh table, never hot-reloaded
            },
        ));
        (reply, report)
    };
    let (reply0, report) = answer(&server0, &frames[0]);
    let (reply1, _) = answer(&server1, &frames[1]);
    println!(
        "Each server returns a {} B response frame.",
        reply0.len().max(reply1.len())
    );

    // The client decodes the two frames and combines the additive shares.
    let decode_share = |frame: &[u8]| match decode_message(frame).expect("well-formed reply") {
        WireMessage::Response(msg) => msg.response,
        other => panic!("expected a response frame, got {}", other.name()),
    };
    let row = client
        .reconstruct(&query, &decode_share(&reply0), &decode_share(&reply1))
        .expect("shares combine");
    assert_eq!(row, table.entry(secret_index));
    println!(
        "Reconstructed entry {} correctly: {:02x?}...",
        secret_index,
        &row[..8]
    );

    println!(
        "Server kernel: {} PRF calls, estimated {:.3} ms on the simulated V100, utilization {:.1}%.",
        report.counters.prf_calls,
        report.latency_ms(),
        report.utilization() * 100.0
    );
}
