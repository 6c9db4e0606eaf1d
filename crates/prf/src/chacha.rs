//! ChaCha20 block function used as a GPU-friendly PRF.
//!
//! ChaCha20 is built from 32-bit add/rotate/xor operations with no table
//! lookups, which maps well onto GPU ALUs — the paper reports a ~3.8×
//! throughput improvement over software AES on a V100 (Table 5).
//!
//! One block function yields 512 bits of keystream, and a GGM node needs
//! 256 of them: both children. So tweaks `2k` and `2k + 1` are the two
//! halves of one block — `PRF(x, t)` is words `4·(t & 1) … 4·(t & 1) + 3`
//! of `chacha20_block(x ‖ K, 0, nonce(t >> 1))` — and a paired sweep under
//! sibling tweaks (the GGM PRG's 0 and 1) runs one block function per seed
//! (Goldreich–Goldwasser–Micali's length-doubling PRG over a stream cipher).

use pir_field::{Block128, SimdBackend};

// The block-parallel kernel of this architecture's vector backend.
#[cfg(target_arch = "aarch64")]
use crate::simd::chacha_neon as vector;
#[cfg(target_arch = "x86_64")]
use crate::simd::chacha_x86 as vector;
use crate::{Prf, PrfKind};
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use vector::WIDTH;

/// The ChaCha20 state constants ("expand 32-byte k").
pub(crate) const CONSTANTS: [u32; 4] = [0x6170_7865, 0x3320_646e, 0x7962_2d32, 0x6b20_6574];

#[inline]
fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(16);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(12);
    state[a] = state[a].wrapping_add(state[b]);
    state[d] = (state[d] ^ state[a]).rotate_left(8);
    state[c] = state[c].wrapping_add(state[d]);
    state[b] = (state[b] ^ state[c]).rotate_left(7);
}

/// ChaCha20's 20 rounds over a 16-word state: ten column-then-diagonal
/// double rounds of `$quarter_round($state, a, b, c, d)`, shared by the
/// block function and every vector kernel.
macro_rules! twenty_rounds {
    ($quarter_round:ident, $state:expr) => {
        for _ in 0..10 {
            $quarter_round($state, 0, 4, 8, 12);
            $quarter_round($state, 1, 5, 9, 13);
            $quarter_round($state, 2, 6, 10, 14);
            $quarter_round($state, 3, 7, 11, 15);
            $quarter_round($state, 0, 5, 10, 15);
            $quarter_round($state, 1, 6, 11, 12);
            $quarter_round($state, 2, 7, 8, 13);
            $quarter_round($state, 3, 4, 9, 14);
        }
    };
}
pub(crate) use twenty_rounds;

/// Run the full ChaCha20 block function (20 rounds) and return the 64-byte
/// keystream block.
#[must_use]
pub fn chacha20_block(key: &[u32; 8], counter: u32, nonce: &[u32; 3]) -> [u32; 16] {
    let mut state = [0u32; 16];
    state[..4].copy_from_slice(&CONSTANTS);
    state[4..12].copy_from_slice(key);
    state[12] = counter;
    state[13..16].copy_from_slice(nonce);

    let initial = state;
    twenty_rounds!(quarter_round, &mut state);
    for (word, init) in state.iter_mut().zip(&initial) {
        *word = word.wrapping_add(*init);
    }
    state
}

/// ChaCha20 used as a PRF: the 128-bit input fills half of the key, the
/// tweak pair `t >> 1` becomes the nonce, and keystream words `4·(t & 1) …
/// 4·(t & 1) + 3` are the output (module docs).
pub struct ChaCha20Prf {
    key_high: [u32; 4],
    backend: SimdBackend,
}

/// Where a sweep stores each keystream half: `halves[h]` receives words
/// `4h … 4h + 3` of every block, and `None` skips that half.
pub(crate) type Halves<'a> = [Option<&'a mut [Block128]>; 2];

/// Four little-endian `u32` words (word 0 lowest) as one 128-bit block.
#[inline]
pub(crate) fn block_from_words(words: [u32; 4]) -> Block128 {
    Block128::from_u128((0..4).fold(0, |acc, w| acc | ((words[w] as u128) << (32 * w))))
}

impl ChaCha20Prf {
    /// Build a PRF with an explicit 128-bit key half (the other half is the
    /// per-call input).
    #[must_use]
    pub fn new(key_high: [u32; 4]) -> Self {
        Self {
            key_high,
            backend: SimdBackend::Scalar,
        }
    }

    /// Build a PRF with the crate's fixed public key.
    #[must_use]
    pub fn with_fixed_key() -> Self {
        Self::new([0x6770_7521, 0x7069_7221, 0x6368_6163, 0x6861_3230])
    }

    /// Pin the batched sweeps to a SIMD backend (unsupported requests fall
    /// back to scalar). ChaCha has both AVX2 (8-way, 16-way on AVX-512F
    /// CPUs) and NEON (4-way) paths.
    #[must_use]
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = backend.supported_or_scalar();
        self
    }

    /// The keystream block of `input` against a key template whose words
    /// 4–7 hold `key_high`; only the input-derived key half varies per call.
    #[inline]
    fn block(input: Block128, key: &mut [u32; 8], nonce: &[u32; 3]) -> [u32; 16] {
        key[..4].copy_from_slice(&[0, 1, 2, 3].map(|word| (input.as_u128() >> (32 * word)) as u32));
        chacha20_block(key, 0, nonce)
    }

    /// The domain-separation nonce of tweak pair `pair` (tweaks `2·pair`
    /// and `2·pair + 1`).
    #[inline]
    pub(crate) fn nonce(pair: u64) -> [u32; 3] {
        [pair as u32, (pair >> 32) as u32, 0x5049_5221]
    }

    /// The one sweep behind every batched entry point: `out[i] =
    /// PRF(inputs[i], tweak)` and, given `sibling`, `sibling[i] =
    /// PRF(inputs[i], tweak ^ 1)` from the same keystream block; `mmo` XORs
    /// each input into its outputs (the Matyas–Meyer–Oseas feed-forward).
    fn sweep(
        &self,
        inputs: &[Block128],
        tweak: u64,
        out: &mut [Block128],
        sibling: Option<&mut [Block128]>,
        mmo: bool,
    ) {
        let mut halves: Halves<'_> = [Some(out), sibling];
        for out in halves.iter().flatten() {
            assert_eq!(inputs.len(), out.len(), "sweep length mismatch");
        }
        // The odd tweak of a pair reads the second half.
        halves.rotate_left((tweak & 1) as usize);
        let nonce = Self::nonce(tweak >> 1);
        // A non-scalar backend value exists only after runtime detection of
        // this architecture's kernel (`with_backend`).
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        let done = match self.backend {
            SimdBackend::Scalar => 0,
            _ => self.vector_sweep(inputs, &nonce, &mut halves, mmo),
        };
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        let done = 0;
        let mut key = [0u32; 8];
        key[4..].copy_from_slice(&self.key_high);
        for (i, input) in inputs.iter().enumerate().skip(done) {
            let block = Self::block(*input, &mut key, &nonce);
            for (half, out) in halves.iter_mut().enumerate() {
                let Some(out) = out else { continue };
                out[i] = block_from_words(block.as_chunks().0[half]).xor_if(mmo, *input);
            }
        }
    }

    /// [`Prf::eval_blocks_pair`] (`mmo` unset) and [`Prf::expand_blocks_mmo`]
    /// (set): sibling tweaks — `tweak_a ^ tweak_b == 1`, as the GGM PRG's 0
    /// and 1 — share one block function per input; any other pair takes
    /// two sweeps.
    fn pair_sweep(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
        mmo: bool,
    ) {
        if tweak_a ^ tweak_b == 1 {
            self.sweep(inputs, tweak_a, out_a, Some(out_b), mmo);
        } else {
            self.sweep(inputs, tweak_a, out_a, None, mmo);
            self.sweep(inputs, tweak_b, out_b, None, mmo);
        }
    }

    /// The vector part of [`Self::sweep`], `WIDTH` blocks per kernel step.
    /// A sub-`WIDTH` tail takes one more *padded* step (zero blocks in the
    /// unused lanes, only real results stored), except a lone block (one
    /// useful lane), left to the scalar block function. Returns how many
    /// leading blocks it wrote; only called on a runtime-detected backend.
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    fn vector_sweep(
        &self,
        inputs: &[Block128],
        nonce: &[u32; 3],
        halves: &mut Halves<'_>,
        mmo: bool,
    ) -> usize {
        let whole = inputs.len() - inputs.len() % WIDTH;
        let head = halves
            .each_mut()
            .map(|half| half.as_deref_mut().map(|out| &mut out[..whole]));
        vector::eval_blocks(&self.key_high, nonce, &inputs[..whole], head, mmo);
        let tail = &inputs[whole..];
        if tail.len() < 2 {
            return whole;
        }
        let mut lanes = [Block128::ZERO; WIDTH];
        let mut results = [[Block128::ZERO; WIDTH]; 2];
        lanes[..tail.len()].copy_from_slice(tail);
        let [low, high] = &mut results;
        vector::eval_blocks(&self.key_high, nonce, &lanes, [Some(low), Some(high)], mmo);
        for (half, results) in halves.iter_mut().zip(&results) {
            if let Some(out) = half {
                out[whole..].copy_from_slice(&results[..tail.len()]);
            }
        }
        inputs.len()
    }
}

impl Prf for ChaCha20Prf {
    fn kind(&self) -> PrfKind {
        PrfKind::Chacha20
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        let mut key = [0u32; 8];
        key[4..].copy_from_slice(&self.key_high);
        let block = Self::block(input, &mut key, &Self::nonce(tweak >> 1));
        block_from_words(block.as_chunks().0[(tweak & 1) as usize])
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        self.sweep(inputs, tweak, out, None, false);
    }

    fn eval_blocks_pair(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        self.pair_sweep(inputs, tweak_a, tweak_b, out_a, out_b, false);
    }

    /// The feed-forward is applied as each half is stored.
    fn expand_blocks_mmo(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        self.pair_sweep(inputs, tweak_a, tweak_b, out_a, out_b, true);
    }

    /// `"avx2+avx512"` where the sweeps run the AVX-512 kernel, so a kernel
    /// report says which ChaCha20 kernel produced its number.
    fn backend_label(&self) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 && std::arch::is_x86_feature_detected!("avx512f") {
            return "avx2+avx512";
        }
        self.backend.label()
    }

    fn simd_backend(&self) -> SimdBackend {
        self.backend
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key of RFC 7539 §2.3.2: bytes 0, 1, …, 31.
    const RFC_KEY: [u32; 8] = [
        0x0302_0100,
        0x0706_0504,
        0x0b0a_0908,
        0x0f0e_0d0c,
        0x1312_1110,
        0x1716_1514,
        0x1b1a_1918,
        0x1f1e_1d1c,
    ];

    /// RFC 7539 §2.3.2 block function test vector.
    #[test]
    fn rfc7539_block_vector() {
        let nonce: [u32; 3] = [0x0900_0000, 0x4a00_0000, 0x0000_0000];
        let counter = 1;
        let out = chacha20_block(&RFC_KEY, counter, &nonce);
        let expected: [u32; 16] = [
            0xe4e7_f110,
            0x1559_3bd1,
            0x1fdd_0f50,
            0xc471_20a3,
            0xc7f4_d1c7,
            0x0368_c033,
            0x9aaa_2204,
            0x4e6c_d4c3,
            0x4664_82d2,
            0x09aa_9f07,
            0x05d7_c214,
            0xa202_8bd9,
            0xd19c_12b5,
            0xb94e_16de,
            0xe883_d0cb,
            0x4e3c_50a2,
        ];
        assert_eq!(out, expected);
    }

    #[test]
    fn prf_properties() {
        let prf = ChaCha20Prf::with_fixed_key();
        let x = Block128::from_u128(0xabcd);
        assert_eq!(prf.eval_block(x, 1), prf.eval_block(x, 1));
        assert_ne!(prf.eval_block(x, 1), prf.eval_block(x, 2));
        assert_ne!(
            prf.eval_block(x, 1),
            prf.eval_block(Block128::from_u128(1), 1)
        );
        assert_eq!(prf.kind(), PrfKind::Chacha20);
    }

    /// The definition: tweaks `2k` and `2k + 1` are words 0–3 and 4–7 of
    /// one block under nonce `k`, with the input in key words 0–3 (the
    /// block function itself is pinned by `rfc7539_block_vector`).
    #[test]
    fn sibling_tweaks_are_the_two_halves_of_one_block() {
        // The input fills key words 0–3 and the PRF's key words 4–7.
        let x = Block128::from_u128(0x0f0e_0d0c_0b0a_0908_0706_0504_0302_0100);
        let prf = ChaCha20Prf::new([0x1312_1110, 0x1716_1514, 0x1b1a_1918, 0x1f1e_1d1c]);
        for k in [0u64, 1, 0x1_0000_0002] {
            let block = chacha20_block(&RFC_KEY, 0, &[k as u32, (k >> 32) as u32, 0x5049_5221]);
            let bytes: Vec<u8> = block[..8].iter().flat_map(|w| w.to_le_bytes()).collect();
            let (even, odd) = bytes.split_at(16);
            let want = [even, odd].map(|half| Block128::from_le_bytes(half.try_into().unwrap()));
            let got = [2 * k, 2 * k + 1].map(|tweak| prf.eval_block(x, tweak));
            assert_eq!(got, want, "k={k}");
        }
    }

    /// Every batched entry point against per-block `eval_block` (with the
    /// feed-forward XOR for `expand_blocks_mmo`): sibling tweak pairs in
    /// both orders take the one-block path, a non-adjacent pair two sweeps;
    /// every length up to five `WIDTH` steps, on the scalar instance and
    /// the `Avx2` one (the vector sweeps where the host has AVX2).
    #[test]
    fn batched_sweeps_match_eval_block() {
        for backend in [SimdBackend::Scalar, SimdBackend::Avx2] {
            let prf = ChaCha20Prf::with_fixed_key().with_backend(backend);
            for (tweak_a, tweak_b) in [(0, 1), (1, 0), (0, 2)] {
                for len in 0..=40u128 {
                    let what = format!("{backend:?} tweaks=({tweak_a}, {tweak_b}) len={len}");
                    let inputs: Vec<Block128> = (0..len)
                        .map(|i| Block128::from_u128((i * 0x9e37_79b9) ^ 0x5bd1))
                        .collect();
                    let want = |tweak, mmo| -> Vec<Block128> {
                        inputs
                            .iter()
                            .map(|x| prf.eval_block(*x, tweak).xor_if(mmo, *x))
                            .collect()
                    };
                    let mut got_a = vec![Block128::ZERO; inputs.len()];
                    let mut got_b = vec![Block128::ZERO; inputs.len()];
                    prf.eval_blocks(&inputs, tweak_a, &mut got_a);
                    assert_eq!(got_a, want(tweak_a, false), "eval_blocks, {what}");
                    prf.eval_blocks_pair(&inputs, tweak_a, tweak_b, &mut got_a, &mut got_b);
                    assert_eq!(got_a, want(tweak_a, false), "eval_blocks_pair (a), {what}");
                    assert_eq!(got_b, want(tweak_b, false), "eval_blocks_pair (b), {what}");
                    prf.expand_blocks_mmo(&inputs, tweak_a, tweak_b, &mut got_a, &mut got_b);
                    assert_eq!(got_a, want(tweak_a, true), "expand_blocks_mmo (a), {what}");
                    assert_eq!(got_b, want(tweak_b, true), "expand_blocks_mmo (b), {what}");
                }
            }
        }
    }

    /// The label kernel reports and batch kernel names carry: `avx2+avx512`
    /// exactly where the sweeps take the AVX-512 kernel.
    #[test]
    fn backend_label_names_the_chacha20_kernel() {
        let scalar = ChaCha20Prf::with_fixed_key().with_backend(SimdBackend::Scalar);
        assert_eq!(scalar.backend_label(), "scalar");
        assert_eq!(ChaCha20Prf::with_fixed_key().backend_label(), "scalar");
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = ChaCha20Prf::with_fixed_key().with_backend(SimdBackend::Avx2);
            let want = if !SimdBackend::Avx2.is_supported() {
                "scalar"
            } else if std::arch::is_x86_feature_detected!("avx512f") {
                "avx2+avx512"
            } else {
                "avx2"
            };
            assert_eq!(avx2.backend_label(), want);
        }
    }
}
