//! Property tests of the pipelined session against *adversarially
//! scheduled* mock servers:
//!
//! (a) whatever completion permutation the two servers pick — independently
//!     of each other — every pipelined query reconstructs its exact row,
//! (b) a server whose catalog advertises a ceiling below the supported
//!     floor fails `connect` with the typed version error,
//! (c) a table-version stamp mismatch triggers exactly one transparent
//!     retry; a second mismatch fails the query with a typed error without
//!     poisoning the session.
//!
//! The mock servers answer real DPF queries (so reconstruction is the
//! ground truth) but control frame *scheduling* and *stamping* exactly —
//! the two knobs a real batching runtime cannot pin down deterministically.

use pir_prf::PrfKind;
use pir_protocol::{GpuPirServer, PirServer, PirTable, TableSchema};
use pir_wire::{
    decode_message, encode_message, loopback_pair, Catalog, CatalogEntry, ErrorCode, ErrorReply,
    LoopbackTransport, PirSession, PirTransport, ResponseMsg, WireError, WireMessage, PROTOCOL_V2,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ENTRIES: u64 = 256;
const ENTRY_BYTES: usize = 8;

fn table() -> PirTable {
    PirTable::generate(ENTRIES, ENTRY_BYTES, |row, offset| {
        (row as u8).wrapping_mul(29).wrapping_add(offset as u8)
    })
}

/// How a mock server stamps the responses it sends, by answer sequence
/// number (0-based, counted per server).
#[derive(Clone, Copy)]
enum StampRule {
    /// Always the same version — the steady-state server.
    Fixed(u64),
    /// The first `n` answers carry `skewed`, everything after `settled` —
    /// models a hot reload landing between the two projections.
    SkewFirst { n: u64, skewed: u64, settled: u64 },
}

impl StampRule {
    fn stamp(self, seq: u64) -> u64 {
        match self {
            Self::Fixed(version) => version,
            Self::SkewFirst { n, skewed, settled } => {
                if seq < n {
                    skewed
                } else {
                    settled
                }
            }
        }
    }
}

struct MockConfig {
    party: u8,
    /// Version ceiling the catalog advertises.
    protocol_version: u16,
    /// Buffer this many queries, then flush them in a permuted order.
    /// 1 = answer immediately.
    burst: usize,
    /// Seed of the permutation RNG.
    permute_seed: u64,
    stamp: StampRule,
}

/// Serve one connection: real DPF answers, scripted scheduling/stamping.
fn run_mock(mut transport: LoopbackTransport, config: MockConfig) {
    let server = GpuPirServer::with_defaults(table(), PrfKind::SipHash);
    let mut rng = StdRng::seed_from_u64(config.permute_seed);
    let mut buffered: Vec<ResponseMsg> = Vec::new();
    let mut answered = 0u64;
    loop {
        let frame = match transport.recv() {
            Ok(frame) => frame,
            Err(WireError::ConnectionClosed) => return,
            Err(err) => panic!("mock transport failed: {err}"),
        };
        match decode_message(&frame).expect("well-formed frame") {
            WireMessage::CatalogRequest => {
                let reply = WireMessage::Catalog(Catalog {
                    protocol_version: config.protocol_version,
                    party: config.party,
                    tables: vec![CatalogEntry {
                        name: "t".into(),
                        schema: TableSchema::new(ENTRIES, ENTRY_BYTES),
                        prf_kind: PrfKind::SipHash,
                    }],
                });
                transport
                    .send(&encode_message(&reply))
                    .expect("catalog reply");
            }
            WireMessage::Query(query) => {
                let response = server.answer(&query.query).expect("mock answers");
                let table_version = config.stamp.stamp(answered);
                answered += 1;
                buffered.push(ResponseMsg {
                    response,
                    table_version,
                });
                if buffered.len() >= config.burst {
                    // Fisher–Yates under the scripted seed: THE permutation
                    // under test.
                    for i in (1..buffered.len()).rev() {
                        let j = rng.gen_range(0..=i);
                        buffered.swap(i, j);
                    }
                    for msg in buffered.drain(..) {
                        transport
                            .send(&encode_message(&WireMessage::Response(msg)))
                            .expect("response");
                    }
                }
            }
            other => {
                let reply = WireMessage::Error(ErrorReply::new(
                    ErrorCode::InvalidRequest,
                    0,
                    format!("mock cannot handle {}", other.name()),
                ));
                transport
                    .send(&encode_message(&reply))
                    .expect("error reply");
            }
        }
    }
}

fn spawn_pair(
    config0: MockConfig,
    config1: MockConfig,
) -> ([Box<dyn PirTransport>; 2], [std::thread::JoinHandle<()>; 2]) {
    let (c0, s0) = loopback_pair();
    let (c1, s1) = loopback_pair();
    let w0 = std::thread::spawn(move || run_mock(s0, config0));
    let w1 = std::thread::spawn(move || run_mock(s1, config1));
    ([Box::new(c0), Box::new(c1)], [w0, w1])
}

fn expected_row(index: u64) -> Vec<u8> {
    table().entry(index)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// (a) Interleaved response ordering: both servers flush each wave in
    /// their own random permutation, and every query must still
    /// reconstruct its exact row under its original id.
    #[test]
    fn random_completion_permutations_always_reconstruct(
        seed in any::<u64>(),
        wave in 2usize..12,
    ) {
        let ([t0, t1], [w0, w1]) = spawn_pair(
            MockConfig {
                party: 0,
                protocol_version: PROTOCOL_V2,
                burst: wave,
                permute_seed: seed,
                stamp: StampRule::Fixed(1),
            },
            MockConfig {
                party: 1,
                protocol_version: PROTOCOL_V2,
                burst: wave,
                // A *different* permutation on the second connection.
                permute_seed: seed.wrapping_add(0x9E37_79B9),
                stamp: StampRule::Fixed(1),
            },
        );
        let mut session =
            PirSession::connect_with_window(t0, t1, "prop", wave).expect("connect");
        prop_assert_eq!(session.window(), wave);

        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        // Two waves back to back: permutations must not leak state across
        // waves either.
        for _ in 0..2 {
            let mut expected = std::collections::HashMap::new();
            for _ in 0..wave {
                let index = rng.gen_range(0..ENTRIES);
                let id = session.submit("t", index, &mut rng).expect("submit");
                expected.insert(id, expected_row(index));
            }
            for _ in 0..wave {
                let done = session.poll().expect("poll");
                let want = expected.remove(&done.query_id).expect("known id");
                prop_assert_eq!(done.outcome.expect("reconstructs"), want);
                prop_assert!(!done.retried);
            }
            prop_assert!(expected.is_empty());
        }
        let stats = session.pipeline_stats();
        prop_assert_eq!(stats.completed, 2 * wave as u64);
        prop_assert_eq!(stats.version_retries, 0);
        drop(session);
        w0.join().unwrap();
        w1.join().unwrap();
    }

    /// (b) A catalog ceiling below the supported floor — on either
    /// connection — fails `connect` with the typed version error instead
    /// of clamping the session to a lockstep it can no longer speak.
    #[test]
    fn catalog_ceiling_below_the_floor_fails_connect_typed(
        seed in any::<u64>(),
        old_party in 0usize..2,
    ) {
        let ceiling = |party: usize| if party == old_party { 1 } else { PROTOCOL_V2 };
        let ([t0, t1], [w0, w1]) = spawn_pair(
            MockConfig {
                party: 0,
                protocol_version: ceiling(0),
                burst: 1,
                permute_seed: seed,
                stamp: StampRule::Fixed(1),
            },
            MockConfig {
                party: 1,
                protocol_version: ceiling(1),
                burst: 1,
                permute_seed: seed,
                stamp: StampRule::Fixed(1),
            },
        );
        match PirSession::connect_with_window(t0, t1, "prop", 16) {
            Err(WireError::UnsupportedVersion { got, min, max }) => {
                prop_assert_eq!((got, min, max), (PROTOCOL_V2, 1, 1));
            }
            other => prop_assert!(false, "expected UnsupportedVersion, got {other:?}"),
        }
        w0.join().unwrap();
        w1.join().unwrap();
    }

    /// (c) A stamp mismatch triggers exactly one transparent retry; once
    /// the reload has settled, the retried query succeeds.
    #[test]
    fn version_stamp_mismatch_triggers_exactly_one_retry(seed in any::<u64>()) {
        let ([t0, t1], [w0, w1]) = spawn_pair(
            MockConfig {
                party: 0,
                protocol_version: PROTOCOL_V2,
                burst: 1,
                permute_seed: seed,
                stamp: StampRule::Fixed(7),
            },
            MockConfig {
                party: 1,
                protocol_version: PROTOCOL_V2,
                burst: 1,
                permute_seed: seed,
                // First answer straddles the reload (stamp 8 vs 7), the
                // retry lands after it settled.
                stamp: StampRule::SkewFirst { n: 1, skewed: 8, settled: 7 },
            },
        );
        let mut session = PirSession::connect(t0, t1, "prop").expect("connect");
        let mut rng = StdRng::seed_from_u64(seed);
        let index = rng.gen_range(0..ENTRIES);
        let id = session.submit("t", index, &mut rng).expect("submit");
        let done = session.poll().expect("poll");
        prop_assert_eq!(done.query_id, id);
        prop_assert!(done.retried);
        prop_assert_eq!(done.outcome.expect("retry reconstructs"), expected_row(index));
        let stats = session.pipeline_stats();
        prop_assert_eq!(stats.version_retries, 1);
        prop_assert_eq!(stats.version_skew_failures, 0);

        // The session is not poisoned: later queries run clean.
        let row = session.query("t", index, &mut rng).expect("still usable");
        prop_assert_eq!(row, expected_row(index));
        prop_assert_eq!(session.pipeline_stats().version_retries, 1);
        drop(session);
        w0.join().unwrap();
        w1.join().unwrap();
    }

    /// (c') If the stamps disagree *again* on the retry, the query fails
    /// with the typed skew error — after exactly one retry, never more —
    /// and the session survives.
    #[test]
    fn persistent_skew_fails_after_exactly_one_retry(seed in any::<u64>()) {
        let ([t0, t1], [w0, w1]) = spawn_pair(
            MockConfig {
                party: 0,
                protocol_version: PROTOCOL_V2,
                burst: 1,
                permute_seed: seed,
                stamp: StampRule::Fixed(7),
            },
            MockConfig {
                party: 1,
                protocol_version: PROTOCOL_V2,
                burst: 1,
                permute_seed: seed,
                // Skewed on the first attempt AND the retry; settles after.
                stamp: StampRule::SkewFirst { n: 2, skewed: 9, settled: 7 },
            },
        );
        let mut session = PirSession::connect(t0, t1, "prop").expect("connect");
        let mut rng = StdRng::seed_from_u64(seed);
        let index = rng.gen_range(0..ENTRIES);
        session.submit("t", index, &mut rng).expect("submit");
        let done = session.poll().expect("poll");
        prop_assert!(done.retried);
        match done.outcome {
            Err(WireError::VersionSkew { versions, .. }) => {
                prop_assert_eq!(versions, [7, 9]);
            }
            other => prop_assert!(false, "expected VersionSkew, got {other:?}"),
        }
        let stats = session.pipeline_stats();
        prop_assert_eq!(stats.version_retries, 1);
        prop_assert_eq!(stats.version_skew_failures, 1);

        // Third answer onward is settled: the session keeps working.
        let row = session.query("t", index, &mut rng).expect("recovered");
        prop_assert_eq!(row, expected_row(index));
        drop(session);
        w0.join().unwrap();
        w1.join().unwrap();
    }
}

/// A misbehaving server that answers the same in-flight query twice must
/// get a typed error, not corrupt the session's owed-frame accounting
/// (pre-fix, the duplicate decremented `owed` a second time, underflowing
/// it when the sibling query's answer arrived — panicking in debug, or
/// hanging the client on an idle connection in release).
#[test]
fn duplicate_answers_are_rejected_not_miscounted() {
    use pir_protocol::PirResponse;
    use pir_wire::SplitTransport;

    /// Replays a pre-scripted frame sequence; swallows sends.
    struct Scripted {
        incoming: std::collections::VecDeque<Vec<u8>>,
    }
    impl PirTransport for Scripted {
        fn send(&mut self, _frame: &[u8]) -> Result<(), WireError> {
            Ok(())
        }
        fn recv(&mut self) -> Result<Vec<u8>, WireError> {
            self.incoming.pop_front().ok_or(WireError::ConnectionClosed)
        }
        fn split(self: Box<Self>) -> SplitTransport {
            SplitTransport::Whole(self)
        }
    }

    let catalog = |party: u8| {
        encode_message(&WireMessage::Catalog(Catalog {
            protocol_version: PROTOCOL_V2,
            party,
            tables: vec![CatalogEntry {
                name: "t".into(),
                schema: TableSchema::new(ENTRIES, ENTRY_BYTES),
                prf_kind: PrfKind::SipHash,
            }],
        }))
    };
    let response = |query_id: u64, party: u8| {
        encode_message(&WireMessage::Response(ResponseMsg {
            response: PirResponse {
                query_id,
                party,
                share: vec![0; ENTRY_BYTES],
            },
            table_version: 1,
        }))
    };
    // The session assigns wire ids 1, 2, ... — script party 0 to answer
    // query 1 twice while party 1 (which answers only query 2) still owes
    // query 1's sibling share, so query 1 is in flight when the duplicate
    // lands. The owed-count pump order makes the interleaving
    // deterministic: party 0, party 1, party 0 (the duplicate).
    let server0 = Box::new(Scripted {
        incoming: [catalog(0), response(1, 0), response(1, 0)].into(),
    });
    let server1 = Box::new(Scripted {
        incoming: [catalog(1), response(2, 1)].into(),
    });

    let mut session = PirSession::connect_with_window(server0, server1, "t", 2).expect("connect");
    let mut rng = StdRng::seed_from_u64(11);
    session.submit("t", 0, &mut rng).expect("submit 1");
    session.submit("t", 1, &mut rng).expect("submit 2");
    match session.poll() {
        Err(WireError::InvalidRequest(message)) => {
            assert!(message.contains("twice"), "got: {message}");
        }
        other => panic!("expected InvalidRequest for the duplicate, got {other:?}"),
    }
}
