//! Property tests of the wire format:
//!
//! (a) every message round-trips encode → decode bit-exactly,
//! (b) reported sizes are wire-true (`size_bytes()` == encoded length),
//! (c) truncated / corrupted / wrong-version frames decode to typed
//!     [`WireError`]s — never panics,
//! (d) the decoder is strict: a frame either decodes to exactly the message
//!     that produced it or is rejected.

use pir_dpf::{generate_keys, DpfParams};
use pir_field::Ring128;
use pir_prf::{build_prf, GgmPrg, PrfKind};
use pir_protocol::{PirResponse, ServerQuery, TableSchema};
use pir_wire::{
    decode_message, encode_message, Catalog, CatalogEntry, ErrorCode, ErrorReply, QueryMsg,
    ResponseMsg, UpdateAckMsg, UpdateEntryMsg, WireError, WireMessage,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn prf_kind_from(byte: u8) -> PrfKind {
    PrfKind::ALL[byte as usize % PrfKind::ALL.len()]
}

fn sample_server_query(seed: u64, entries: u64, entry_bytes: usize) -> ServerQuery {
    let mut rng = StdRng::seed_from_u64(seed);
    let prg = GgmPrg::new(build_prf(prf_kind_from(seed as u8)));
    let params = DpfParams::for_domain(entries);
    let (key0, key1) = generate_keys(&prg, &params, seed % entries, Ring128::ONE, &mut rng);
    ServerQuery {
        query_id: seed.wrapping_mul(0x9E37),
        schema: TableSchema::new(entries, entry_bytes),
        key: if seed.is_multiple_of(2) { key0 } else { key1 },
    }
}

/// Build one of every message shape from a seed.
fn sample_message(seed: u64) -> WireMessage {
    let mut rng = StdRng::seed_from_u64(seed);
    let entries = rng.gen_range(1u64..1 << 20);
    let entry_bytes = rng.gen_range(1usize..256);
    match seed % 7 {
        0 => WireMessage::CatalogRequest,
        1 => WireMessage::Catalog(Catalog {
            protocol_version: rng.gen_range(1u16..100),
            party: (seed % 2) as u8,
            tables: (0..rng.gen_range(0usize..5))
                .map(|i| CatalogEntry {
                    name: format!("table-{i}-{}", seed % 97),
                    schema: TableSchema::new(entries + i as u64, entry_bytes + i),
                    prf_kind: prf_kind_from(seed as u8 + i as u8),
                })
                .collect(),
        }),
        2 => WireMessage::Query(QueryMsg {
            table: format!("emb-{}", seed % 13),
            tenant: format!("tenant-{}", seed % 7),
            query: sample_server_query(seed, entries, entry_bytes),
        }),
        3 => WireMessage::Response(ResponseMsg {
            response: PirResponse {
                query_id: seed,
                party: (seed % 2) as u8,
                share: (0..rng.gen_range(0u32..128))
                    .map(|i| i ^ seed as u32)
                    .collect(),
            },
            table_version: rng.gen(),
        }),
        4 => WireMessage::Error(ErrorReply {
            code: ErrorCode::from_u8((seed % 8) as u8 + 1).unwrap(),
            shed: seed.is_multiple_of(3),
            min_version: (seed % 5) as u16,
            max_version: (seed % 5) as u16 + 1,
            query_id: rng.gen(),
            message: format!("detail {seed}"),
        }),
        5 => WireMessage::UpdateEntry(UpdateEntryMsg {
            table: format!("emb-{}", seed % 13),
            index: seed % entries,
            bytes: (0..entry_bytes).map(|i| (i as u8) ^ (seed as u8)).collect(),
        }),
        _ => WireMessage::UpdateAck(UpdateAckMsg {
            table: format!("emb-{}", seed % 13),
            index: seed % entries,
        }),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_message_roundtrips_bit_exactly(seed in any::<u64>()) {
        let message = sample_message(seed);
        let frame = encode_message(&message);
        let decoded = decode_message(&frame).expect("canonical frame decodes");
        // A canonical codec round-trips iff re-encoding the decoded value
        // gives the original frame (messages carrying keys have no `==`).
        prop_assert_eq!(encode_message(&decoded), frame.clone());
        // Determinism: encoding the same message twice yields identical bytes.
        prop_assert_eq!(encode_message(&sample_message(seed)), frame);
    }

    #[test]
    fn reported_sizes_are_wire_true(seed in any::<u64>(), entries in 1u64..1 << 22) {
        let query = sample_server_query(seed, entries, (seed % 96) as usize + 1);
        let mut writer = pir_wire::codec::WireWriter::new();
        pir_wire::codec::encode_server_query(&query, &mut writer);
        prop_assert_eq!(writer.len(), query.size_bytes());

        let response = PirResponse {
            query_id: seed,
            party: 0,
            share: vec![7; (seed % 300) as usize],
        };
        let mut writer = pir_wire::codec::WireWriter::new();
        pir_wire::codec::encode_response(&response, &mut writer);
        prop_assert_eq!(writer.len(), response.size_bytes());
    }

    #[test]
    fn truncated_frames_are_typed_errors(seed in any::<u64>()) {
        let frame = encode_message(&sample_message(seed));
        // Every strict prefix must fail (a canonical frame has no slack) —
        // and must fail with an error, not a panic.
        for len in 0..frame.len() {
            match decode_message(&frame[..len]) {
                Err(_) => {}
                Ok(decoded) => prop_assert!(
                    false,
                    "truncated frame of {len}/{} bytes decoded to {}",
                    frame.len(),
                    decoded.name()
                ),
            }
        }
    }

    #[test]
    fn corrupted_frames_never_panic(seed in any::<u64>()) {
        let frame = encode_message(&sample_message(seed));
        // Flip every byte (all 8 bit patterns would be slow; one flip per
        // position across 64 seeds covers the field space well).
        for position in 0..frame.len() {
            let mut corrupted = frame.clone();
            corrupted[position] ^= 0x41;
            // Must return *something* — a typed error or a (different but
            // well-formed) message. The call simply must not panic or hang.
            let _ = decode_message(&corrupted);
        }
        // Corrupting the version bytes specifically must yield the typed
        // version error carrying the supported range.
        for position in [2usize, 3] {
            let mut corrupted = frame.clone();
            corrupted[position] ^= 0x41;
            match decode_message(&corrupted) {
                Err(WireError::UnsupportedVersion { min, max, .. }) => {
                    prop_assert_eq!(min, pir_wire::MIN_SUPPORTED_VERSION);
                    prop_assert_eq!(max, pir_wire::MAX_SUPPORTED_VERSION);
                }
                other => prop_assert!(false, "expected version error, got {other:?}"),
            }
        }
    }

    #[test]
    fn upload_accounting_matches_the_paired_query(
        seed in any::<u64>(),
        entries in 2u64..1 << 18,
    ) {
        // `PirQuery::upload_bytes_per_server` (the number every
        // communication table in the repo reports) equals the encoded
        // length of either projection.
        let mut rng = StdRng::seed_from_u64(seed);
        let client = pir_protocol::PirClient::new(
            TableSchema::new(entries, 16),
            prf_kind_from(seed as u8),
        );
        let query = client.query(seed % entries, &mut rng);
        for party in 0..2u8 {
            let projection = query.to_server(party);
            let mut writer = pir_wire::codec::WireWriter::new();
            pir_wire::codec::encode_server_query(&projection, &mut writer);
            prop_assert_eq!(writer.len(), query.upload_bytes_per_server());
        }
    }
}
