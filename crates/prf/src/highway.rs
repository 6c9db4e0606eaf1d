//! HighwayHash-style keyed mixing PRF.
//!
//! The paper's Table 5 includes HighwayHash as a fast, SIMD-friendly keyed
//! hash. The reference HighwayHash algorithm is defined in terms of AVX2
//! 256-bit lanes; this module implements a portable keyed permutation that
//! follows the same design recipe (a 1024-bit state of 64-bit lanes updated
//! with multiply/permute/zipper-merge style mixing) rather than the exact
//! published bitstream. Because no external test vectors are matched, the
//! implementation is documented as "HighwayHash-style": it provides the same
//! interface, state width and arithmetic mix of the original, which is what
//! the performance model needs, while its output stream is specific to this
//! crate.

use pir_field::{Block128, SimdBackend};

use crate::{Prf, PrfKind};

/// 1024-bit state: four groups of four 64-bit lanes (v0, v1, mul0, mul1).
#[derive(Clone)]
struct HighwayState {
    v0: [u64; 4],
    v1: [u64; 4],
    mul0: [u64; 4],
    mul1: [u64; 4],
}

const INIT0: [u64; 4] = [
    0xdbe6_d5d5_fe4c_ce2f,
    0xa409_3822_299f_31d0,
    0x1319_8a2e_0370_7344,
    0x2434_4a40_9382_2299,
];
const INIT1: [u64; 4] = [
    0x4528_21e6_38d0_1377,
    0xbe54_66cf_34e9_0c6c,
    0xc0ac_29b7_c97c_50dd,
    0x3f84_d5b5_b547_0917,
];

#[inline]
fn zipper_merge(value: u64) -> u64 {
    // Byte shuffle approximating HighwayHash's ZipperMerge: interleave bytes
    // so that multiplications diffuse across lanes.
    let bytes = value.to_le_bytes();
    u64::from_le_bytes([
        bytes[3], bytes[1], bytes[4], bytes[0], bytes[6], bytes[2], bytes[7], bytes[5],
    ])
}

impl HighwayState {
    fn new(key: &[u64; 4]) -> Self {
        let mut state = Self {
            v0: [0; 4],
            v1: [0; 4],
            mul0: INIT0,
            mul1: INIT1,
        };
        for i in 0..4 {
            state.v0[i] = INIT0[i] ^ key[i];
            state.v1[i] = INIT1[i] ^ key[i].rotate_left(32);
        }
        state
    }

    fn update(&mut self, packet: &[u64; 4]) {
        for (i, &lane) in packet.iter().enumerate() {
            self.v1[i] = self.v1[i].wrapping_add(lane.wrapping_add(self.mul0[i]));
            self.mul0[i] ^= (self.v1[i] & 0xffff_ffff).wrapping_mul(self.v0[i] >> 32);
            self.v0[i] = self.v0[i].wrapping_add(self.mul1[i]);
            self.mul1[i] ^= (self.v0[i] & 0xffff_ffff).wrapping_mul(self.v1[i] >> 32);
        }
        for i in 0..4 {
            self.v0[i] = self.v0[i].wrapping_add(zipper_merge(self.v1[i]));
            self.v1[i] = self.v1[i].wrapping_add(zipper_merge(self.v0[i]));
        }
    }

    fn permute_and_update(&mut self) {
        let permuted = [
            self.v0[2].rotate_left(32),
            self.v0[3].rotate_left(32),
            self.v0[0].rotate_left(32),
            self.v0[1].rotate_left(32),
        ];
        self.update(&permuted);
    }

    fn finalize128(&mut self) -> (u64, u64) {
        for _ in 0..6 {
            self.permute_and_update();
        }
        let low = self.v0[0]
            .wrapping_add(self.mul0[0])
            .wrapping_add(self.v1[2])
            .wrapping_add(self.mul1[2]);
        let high = self.v0[1]
            .wrapping_add(self.mul0[1])
            .wrapping_add(self.v1[3])
            .wrapping_add(self.mul1[3]);
        (low, high)
    }
}

/// HighwayHash-style keyed PRF with 128-bit output.
pub struct HighwayPrf {
    /// The key-derived initial state, computed once; every evaluation starts
    /// from a copy instead of re-deriving it from the key.
    base: HighwayState,
    backend: SimdBackend,
}

impl HighwayPrf {
    /// Build a PRF with an explicit 256-bit key.
    #[must_use]
    pub fn new(key: [u64; 4]) -> Self {
        Self {
            base: HighwayState::new(&key),
            backend: SimdBackend::Scalar,
        }
    }

    /// Pin the batched sweeps to a SIMD backend (unsupported requests fall
    /// back to scalar). Only the x86_64 backend vectorizes the lane update;
    /// NEON hosts use the scalar path.
    #[must_use]
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = match backend.supported_or_scalar() {
            SimdBackend::Avx2 => SimdBackend::Avx2,
            _ => SimdBackend::Scalar,
        };
        self
    }

    /// The tweak-derived packet lanes shared by every block of a batch.
    #[inline]
    fn tweak_lanes(tweak: u64) -> (u64, u64) {
        (tweak, tweak.rotate_left(29) ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// One evaluation from the cached base state.
    #[inline]
    fn eval_from_base(&self, input: Block128, t2: u64, t3: u64) -> Block128 {
        let (low, high) = input.halves();
        let mut state = self.base.clone();
        state.update(&[low, high, t2, t3]);
        let (out_low, out_high) = state.finalize128();
        Block128::from_halves(out_low, out_high)
    }

    /// Build a PRF with the crate's fixed public key.
    #[must_use]
    pub fn with_fixed_key() -> Self {
        Self::new([
            0x0706_0504_0302_0100,
            0x0f0e_0d0c_0b0a_0908,
            0x1716_1514_1312_1110,
            0x1f1e_1d1c_1b1a_1918,
        ])
    }
}

impl Prf for HighwayPrf {
    fn kind(&self) -> PrfKind {
        PrfKind::HighwayHash
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        let (t2, t3) = Self::tweak_lanes(tweak);
        self.eval_from_base(input, t2, t3)
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "eval_blocks input/output length mismatch"
        );
        let (t2, t3) = Self::tweak_lanes(tweak);
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            let base = crate::simd::highway_x86::BaseState {
                v0: self.base.v0,
                v1: self.base.v1,
                mul0: self.base.mul0,
                mul1: self.base.mul1,
            };
            crate::simd::highway_x86::eval_blocks(&base, t2, t3, inputs, out);
            return;
        }
        for (input, slot) in inputs.iter().zip(out.iter_mut()) {
            *slot = self.eval_from_base(*input, t2, t3);
        }
    }

    fn backend_label(&self) -> &'static str {
        self.backend.label()
    }

    fn simd_backend(&self) -> SimdBackend {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn deterministic_and_tweak_separated() {
        let prf = HighwayPrf::with_fixed_key();
        let x = Block128::from_u128(1234);
        assert_eq!(prf.eval_block(x, 0), prf.eval_block(x, 0));
        assert_ne!(prf.eval_block(x, 0), prf.eval_block(x, 1));
        assert_eq!(prf.kind(), PrfKind::HighwayHash);
    }

    #[test]
    fn no_collisions_on_small_domain() {
        // Sanity check on diffusion: distinct inputs map to distinct outputs.
        let prf = HighwayPrf::with_fixed_key();
        let outputs: HashSet<u128> = (0u128..2048)
            .map(|i| prf.eval_block(Block128::from_u128(i), 0).as_u128())
            .collect();
        assert_eq!(outputs.len(), 2048);
    }

    #[test]
    fn avalanche_on_single_bit_flip() {
        let prf = HighwayPrf::with_fixed_key();
        let a = prf.eval_block(Block128::from_u128(0), 0).as_u128();
        let b = prf.eval_block(Block128::from_u128(1), 0).as_u128();
        let differing = (a ^ b).count_ones();
        // Expect roughly half the bits to flip; accept a generous range.
        assert!(differing > 30, "only {differing} bits differ");
    }

    #[test]
    fn different_keys_differ() {
        let a = HighwayPrf::new([1, 2, 3, 4]);
        let b = HighwayPrf::new([5, 6, 7, 8]);
        let x = Block128::from_u128(9);
        assert_ne!(a.eval_block(x, 0), b.eval_block(x, 0));
    }
}
