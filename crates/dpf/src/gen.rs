//! DPF key generation (`Gen`).

use pir_field::{Block128, Ring128, Secret};
use pir_prf::GgmPrg;
use rand::Rng;

use crate::{DpfKey, DpfParams, LevelCorrection};

/// Generate a pair of DPF keys encoding the point function that is `beta` at
/// index `alpha` and zero everywhere else.
///
/// `Gen` costs `O(log L)` PRG expansions — cheap enough to run on a
/// resource-constrained client device (the paper's Figure 3) — while the
/// servers' `Eval` over the full domain costs `O(L)`.
///
/// # Panics
///
/// Panics if `alpha` is outside the domain described by `params`.
pub fn generate_keys<R: Rng + ?Sized>(
    prg: &GgmPrg,
    params: &DpfParams,
    alpha: u64,
    beta: Ring128,
    rng: &mut R,
) -> (DpfKey, DpfKey) {
    assert!(
        alpha < params.domain_size,
        "target index {alpha} outside domain of size {}",
        params.domain_size
    );
    let depth = params.domain_bits;

    let root_a = Secret::new(Block128::random(rng));
    let root_b = Secret::new(Block128::random(rng));

    let mut seed_a = root_a;
    let mut seed_b = root_b;
    let mut t_a = Secret::new(false);
    let mut t_b = Secret::new(true);

    let mut levels = Vec::with_capacity(depth as usize);

    // The client owns `alpha`: branching on its bits here leaks nothing to a
    // server. The seeds and control bits are still key material.
    for level in 0..depth {
        // Bit of alpha at this level, most-significant first.
        let bit = (alpha >> (depth - 1 - level)) & 1 == 1;

        let exp_a = prg.expand(seed_a);
        let exp_b = prg.expand(seed_b);

        // The child *not* on the path ("lose") must end up identical for both
        // parties; the correction word is chosen to cancel it.
        let (lose_a, lose_b) = if bit {
            (exp_a.seed_left, exp_b.seed_left)
        } else {
            (exp_a.seed_right, exp_b.seed_right)
        };
        let seed_cw = lose_a ^ lose_b;
        let t_left_cw = exp_a.t_left ^ exp_b.t_left ^ Secret::new(!bit);
        let t_right_cw = exp_a.t_right ^ exp_b.t_right ^ Secret::new(bit);

        levels.push(LevelCorrection {
            seed: seed_cw,
            t_left: t_left_cw,
            t_right: t_right_cw,
        });

        // Both parties descend along the path ("keep") child, applying the
        // correction only when their current control bit is set.
        let (keep_seed_a, keep_t_a) = if bit {
            (exp_a.seed_right, exp_a.t_right)
        } else {
            (exp_a.seed_left, exp_a.t_left)
        };
        let (keep_seed_b, keep_t_b) = if bit {
            (exp_b.seed_right, exp_b.t_right)
        } else {
            (exp_b.seed_left, exp_b.t_left)
        };
        let t_cw_keep = if bit { t_right_cw } else { t_left_cw };

        seed_a = keep_seed_a ^ (seed_cw & t_a.lsb_mask());
        seed_b = keep_seed_b ^ (seed_cw & t_b.lsb_mask());
        t_a = keep_t_a ^ (t_a & t_cw_keep);
        t_b = keep_t_b ^ (t_b & t_cw_keep);
    }

    // Final correction word: make the two leaf conversions sum to beta,
    // negated where party 1's last control bit is set.
    let sum = Secret::new(beta) - Secret::from(seed_a) + Secret::from(seed_b);
    let final_cw = Secret::select(t_b.lsb_mask(), -sum, sum);

    let key_a = DpfKey {
        party: 0,
        params: *params,
        root_seed: root_a,
        levels: levels.clone(),
        final_cw,
    };
    let key_b = DpfKey {
        party: 1,
        params: *params,
        root_seed: root_b,
        levels,
        final_cw,
    };
    (key_a, key_b)
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests read key material back to compare it"
)]
mod tests {
    use super::*;
    use pir_prf::{build_prf, PrfKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn keys_share_correction_words_but_not_seeds() {
        let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
        let mut rng = StdRng::seed_from_u64(1);
        let params = DpfParams::for_domain(256);
        let (a, b) = generate_keys(&prg, &params, 7, Ring128::ONE, &mut rng);
        let levels = |key: &DpfKey| -> Vec<(Block128, bool, bool)> {
            key.levels
                .iter()
                .map(|cw| (cw.seed.expose(), cw.t_left.expose(), cw.t_right.expose()))
                .collect()
        };
        assert_eq!(levels(&a), levels(&b));
        assert_eq!(a.final_cw.expose(), b.final_cw.expose());
        assert_ne!(a.root_seed.expose(), b.root_seed.expose());
        assert_eq!(a.party, 0);
        assert_eq!(b.party, 1);
        assert_eq!(a.levels.len(), 8);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn alpha_out_of_range_panics() {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(2);
        let params = DpfParams::for_domain(100);
        let _ = generate_keys(&prg, &params, 100, Ring128::ONE, &mut rng);
    }

    #[test]
    fn gen_cost_is_logarithmic() {
        let counting = pir_prf::build_counting_prf(PrfKind::SipHash);
        let prg = GgmPrg::new(counting.clone() as std::sync::Arc<dyn pir_prf::Prf>);
        let mut rng = StdRng::seed_from_u64(3);
        let params = DpfParams::for_domain(1 << 20);
        let _ = generate_keys(&prg, &params, 12345, Ring128::ONE, &mut rng);
        // Two expansions (4 PRF calls) per level: 80 calls for 2^20, not 2^20.
        assert_eq!(counting.calls(), 4 * 20);
    }

    #[test]
    fn key_size_matches_depth() {
        let prg = GgmPrg::new(build_prf(PrfKind::Chacha20));
        let mut rng = StdRng::seed_from_u64(4);
        for bits in [0u32, 1, 4, 10, 20] {
            let params = DpfParams::for_domain(1u64 << bits);
            let (a, _) = generate_keys(&prg, &params, 0, Ring128::ONE, &mut rng);
            assert_eq!(a.depth(), bits);
            assert_eq!(a.size_bytes(), 33 + 17 * bits as usize);
        }
    }

    /// A key's `Debug` shows its public shape and none of its key material:
    /// not the root seed, a correction seed or the final word, in hex or in
    /// decimal.
    #[test]
    fn debug_of_a_key_redacts_its_key_material() {
        let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
        let mut rng = StdRng::seed_from_u64(5);
        let params = DpfParams::for_domain(1 << 6);
        for key in <[DpfKey; 2]>::from(generate_keys(&prg, &params, 9, Ring128::ONE, &mut rng)) {
            let printed = format!("{key:?}");
            assert!(printed.contains("party: ") && printed.contains("Secret(..)"));
            let mut words = vec![
                key.root_seed.expose().as_u128(),
                key.final_cw.expose().value(),
            ];
            words.extend(key.levels.iter().map(|cw| cw.seed.expose().as_u128()));
            for word in words {
                for digits in [format!("{word:x}"), format!("{word:X}"), word.to_string()] {
                    assert!(!printed.contains(&digits), "{digits} in {printed}");
                }
            }
        }
    }
}
