//! Tail-correctness proofs for the vectorized PRF backends.
//!
//! Every SIMD path splits a batch into a vector-width-aligned prefix and a
//! remainder (padded through one more vector step; scalar for a lone
//! ChaCha20 block and where the kernel is narrower than a pair);
//! the seams (length 0, 1, half a lane, one-below-a-lane, one-above, and
//! arbitrary non-multiples) are exactly where a wrong split corrupts
//! outputs. These tests pin every batch entry point — `eval_blocks`,
//! `eval_blocks_pair` and `expand_blocks_mmo` — to the scalar backend,
//! byte for byte, for every PRF family × every backend this host supports.

use pir_field::Block128;
use pir_prf::{build_prf_with_backend, PrfKind, SimdBackend};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The widest vector lane in the tree (AVX2 ChaCha20 processes 8 blocks per
/// step), so `LANE - 1`, `LANE` and `LANE + 1` bracket every backend's split
/// point.
const LANE: usize = 8;

/// Deterministic edge lengths every property run always covers, in addition
/// to the sampled ones. The VAES pair sweep also steps `LANE` inputs at a
/// time (16 blocks under two tweaks) and hands the rest to the AES-NI
/// kernel's 4-input steps and single tail, so 15–17 and 31 (three wide
/// steps, one narrow step, three singles) sit on its seams.
const EDGE_LENGTHS: [usize; 13] = [
    0,
    1,
    2,
    3,
    LANE / 2,
    LANE - 1,
    LANE,
    LANE + 1,
    2 * LANE - 1,
    2 * LANE,
    2 * LANE + 1,
    31,
    33,
];

fn random_blocks(seed: u64, len: usize) -> Vec<Block128> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..len).map(|_| Block128::from_u128(rng.gen())).collect()
}

/// Assert all three batch entry points agree with the forced-scalar build
/// for one (kind, backend, length, seed) combination.
fn assert_backend_matches_scalar(kind: PrfKind, backend: SimdBackend, len: usize, seed: u64) {
    let scalar = build_prf_with_backend(kind, SimdBackend::Scalar);
    let vector = build_prf_with_backend(kind, backend);
    let inputs = random_blocks(seed, len);
    let tweak_a = seed ^ 0xA5A5;
    let tweak_b = seed.wrapping_add(1);
    let what = format!("{kind} backend={} len={len}", vector.backend_label());

    let mut want = vec![Block128::ZERO; len];
    let mut got = vec![Block128::ZERO; len];
    scalar.eval_blocks(&inputs, tweak_a, &mut want);
    vector.eval_blocks(&inputs, tweak_a, &mut got);
    assert_eq!(got, want, "{what}: eval_blocks");

    let mut want_b = vec![Block128::ZERO; len];
    let mut got_b = vec![Block128::ZERO; len];
    scalar.eval_blocks_pair(&inputs, tweak_a, tweak_b, &mut want, &mut want_b);
    vector.eval_blocks_pair(&inputs, tweak_a, tweak_b, &mut got, &mut got_b);
    assert_eq!(got, want, "{what}: eval_blocks_pair (a)");
    assert_eq!(got_b, want_b, "{what}: eval_blocks_pair (b)");

    scalar.expand_blocks_mmo(&inputs, tweak_a, tweak_b, &mut want, &mut want_b);
    vector.expand_blocks_mmo(&inputs, tweak_a, tweak_b, &mut got, &mut got_b);
    assert_eq!(got, want, "{what}: expand_blocks_mmo (a)");
    assert_eq!(got_b, want_b, "{what}: expand_blocks_mmo (b)");
}

#[test]
fn edge_lengths_match_scalar_for_every_kind_and_backend() {
    for kind in PrfKind::ALL {
        for backend in SimdBackend::candidates() {
            for len in EDGE_LENGTHS {
                assert_backend_matches_scalar(kind, *backend, len, 0xED6E ^ len as u64);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random non-lane-multiple (and occasionally aligned) lengths: the
    /// vector prefix / scalar remainder seam moves with every case.
    #[test]
    fn random_lengths_match_scalar(len in 0usize..200, seed in any::<u64>()) {
        for kind in PrfKind::ALL {
            for backend in SimdBackend::candidates() {
                assert_backend_matches_scalar(kind, *backend, len, seed);
            }
        }
    }
}
