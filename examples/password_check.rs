//! Compromised-password checking with GPU-accelerated PIR.
//!
//! ```text
//! cargo run --example password_check --release
//! ```
//!
//! The paper notes its GPU DPF can accelerate any PIR application, giving
//! compromised-password checking as an example. Here a client checks whether
//! its password's fingerprint appears in a breach corpus hosted by two
//! servers, without revealing which bucket it looked up.

use gpu_pir_repro::pir_prf::{siphash24, PrfKind};
use gpu_pir_repro::pir_protocol::{GpuPirServer, PirClient, PirServer, PirTable};
use rand::SeedableRng;

/// Number of buckets in the breach corpus (each bucket stores a Bloom-style
/// bitmap of breached fingerprints).
const BUCKETS: u64 = 1 << 14;
/// Bytes per bucket.
const BUCKET_BYTES: usize = 64;
/// The fingerprint's SipHash key: fixed and published, so client and corpus
/// builder agree on it.
const FINGERPRINT_KEY: (u64, u64) = (0x7061_7373_776f_7264, 0x6272_6561_6368_6564);

/// The password's bucket (low bits of its fingerprint) and Bloom probe (bits
/// 32 and up).
fn bucket_and_probe(password: &str) -> (u64, usize) {
    // A keyed hash with a public key is enough: it only spreads passwords
    // over buckets and probes, and PIR hides the bucket whatever the hash.
    let fingerprint = siphash24(FINGERPRINT_KEY.0, FINGERPRINT_KEY.1, password.as_bytes());
    let bucket = fingerprint % BUCKETS;
    let probe = (fingerprint >> 32) as usize % (BUCKET_BYTES * 8);
    (bucket, probe)
}

fn main() {
    // Build the breach corpus from a list of known-compromised passwords.
    let breached = ["hunter2", "password123", "letmein", "qwerty", "123456"];
    let mut corpus = vec![vec![0u8; BUCKET_BYTES]; BUCKETS as usize];
    for password in breached {
        let (bucket, probe) = bucket_and_probe(password);
        corpus[bucket as usize][probe / 8] |= 1 << (probe % 8);
    }
    let table = PirTable::from_entries(&corpus);
    println!(
        "Breach corpus: {} buckets x {} B = {} MB, replicated on two servers.",
        BUCKETS,
        BUCKET_BYTES,
        table.size_bytes() / 1_000_000
    );

    let server0 = GpuPirServer::with_defaults(table.clone(), PrfKind::Chacha20);
    let server1 = GpuPirServer::with_defaults(table.clone(), PrfKind::Chacha20);
    let client = PirClient::new(table.schema(), PrfKind::Chacha20);
    let mut rng = rand::rngs::StdRng::seed_from_u64(4);

    for candidate in ["hunter2", "correct horse battery staple"] {
        let (bucket, probe) = bucket_and_probe(candidate);
        let query = client.query(bucket, &mut rng);
        let r0 = server0.answer(&query.to_server(0)).expect("server 0");
        let r1 = server1.answer(&query.to_server(1)).expect("server 1");
        let row = client.reconstruct(&query, &r0, &r1).expect("reconstruct");
        let compromised = row[probe / 8] & (1 << (probe % 8)) != 0;
        println!(
            "'{candidate}': {} (query: {} B up / {} B down per server, bucket hidden from servers)",
            if compromised {
                "COMPROMISED"
            } else {
                "not found"
            },
            query.upload_bytes_per_server(),
            r0.size_bytes()
        );
        assert_eq!(compromised, breached.contains(&candidate));
    }
}
