//! ChaCha20 block function used as a GPU-friendly PRF.
//!
//! ChaCha20 is built from 32-bit add/rotate/xor operations with no table
//! lookups, which maps well onto GPU ALUs — the paper reports a ~3.8×
//! throughput improvement over software AES on a V100 (Table 5).

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
    for _ in 0..10 {
        // Column rounds.
        quarter_round(&mut state, 0, 4, 8, 12);
        quarter_round(&mut state, 1, 5, 9, 13);
        quarter_round(&mut state, 2, 6, 10, 14);
        quarter_round(&mut state, 3, 7, 11, 15);
        // Diagonal rounds.
        quarter_round(&mut state, 0, 5, 10, 15);
        quarter_round(&mut state, 1, 6, 11, 12);
        quarter_round(&mut state, 2, 7, 8, 13);
        quarter_round(&mut state, 3, 4, 9, 14);
    }
    for (word, init) in state.iter_mut().zip(&initial) {
        *word = word.wrapping_add(*init);
    }
    state
}

/// ChaCha20 used as a PRF: the 128-bit input fills half of the key, the tweak
/// becomes the nonce, and the first 128 bits of keystream are the output.
pub struct ChaCha20Prf {
    key_high: [u32; 4],
    backend: SimdBackend,
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
}

impl ChaCha20Prf {
    /// Evaluate one block against a prepared key/nonce template; only the
    /// input-derived key half varies per call.
    #[inline]
    fn eval_with_key(&self, input: Block128, key: &mut [u32; 8], nonce: &[u32; 3]) -> Block128 {
        let (low, high) = input.halves();
        key[0] = low as u32;
        key[1] = (low >> 32) as u32;
        key[2] = high as u32;
        key[3] = (high >> 32) as u32;
        let out = chacha20_block(key, 0, nonce);
        Block128::from_halves(
            (out[0] as u64) | ((out[1] as u64) << 32),
            (out[2] as u64) | ((out[3] as u64) << 32),
        )
    }

    /// The domain-separation nonce derived from `tweak`.
    #[inline]
    pub(crate) fn nonce(tweak: u64) -> [u32; 3] {
        [tweak as u32, (tweak >> 32) as u32, 0x5049_5221]
    }
}

/// The vector sweeps: the kernel evaluates `WIDTH` independent blocks per
/// step, each lane under its own tweak.
///
/// A batch splits into whole steps plus a sub-`WIDTH` tail, which goes
/// through one more *padded* step — zero blocks in the unused lanes, only
/// the real results stored — instead of `n` scalar block functions. Both
/// child tweaks of the tail share that step when they fit (`2n <= WIDTH`):
/// that is the whole sweep for the 1-, 2- and (on x86) 4-node levels at the
/// top of every memory-bounded chunk. The one shape a padded step loses on
/// is a lone block under a single tweak (one useful lane), which keeps the
/// scalar block function.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
impl ChaCha20Prf {
    /// Whole vector steps over `inputs` (a multiple of `WIDTH` blocks), lane
    /// `j` of every step under `tweaks[j]`; an empty batch skips the
    /// kernel's constant setup (every sub-`WIDTH` level of a chunk). Only
    /// called on an instance whose backend passed runtime detection.
    fn steps(&self, inputs: &[Block128], tweaks: &[u64; WIDTH], out: &mut [Block128]) {
        if inputs.is_empty() {
            return;
        }
        let mut nonces = [[0u32; WIDTH]; 3];
        for (lane, tweak) in tweaks.iter().enumerate() {
            let nonce = Self::nonce(*tweak);
            for (word, lanes) in nonces.iter_mut().enumerate() {
                lanes[lane] = nonce[word];
            }
        }
        vector::eval_blocks(&self.key_high, &nonces, inputs, out);
    }

    /// `out[i] = PRF(inputs[i], tweak)` through the vector kernel.
    fn sweep(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        assert_eq!(inputs.len(), out.len(), "sweep length mismatch");
        let whole = inputs.len() - inputs.len() % WIDTH;
        let (head, tail) = inputs.split_at(whole);
        let (head_out, tail_out) = out.split_at_mut(whole);
        self.steps(head, &[tweak; WIDTH], head_out);
        match tail {
            [] => {}
            [lone] => tail_out[0] = self.eval_block(*lone, tweak),
            _ => {
                let mut lanes = [Block128::ZERO; WIDTH];
                let mut results = [Block128::ZERO; WIDTH];
                lanes[..tail.len()].copy_from_slice(tail);
                self.steps(&lanes, &[tweak; WIDTH], &mut results);
                tail_out.copy_from_slice(&results[..tail.len()]);
            }
        }
    }

    /// `out_a[i] = PRF(inputs[i], tweak_a)`, `out_b[i] = PRF(inputs[i],
    /// tweak_b)` through the vector kernel.
    fn sweep_pair(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        let n = inputs.len() % WIDTH;
        if 2 * n > WIDTH || n == 0 {
            self.sweep(inputs, tweak_a, out_a);
            self.sweep(inputs, tweak_b, out_b);
            return;
        }
        assert_eq!(inputs.len(), out_a.len(), "paired sweep length mismatch");
        assert_eq!(inputs.len(), out_b.len(), "paired sweep length mismatch");
        let (head, tail) = inputs.split_at(inputs.len() - n);
        let (head_a, tail_a) = out_a.split_at_mut(head.len());
        let (head_b, tail_b) = out_b.split_at_mut(head.len());
        self.steps(head, &[tweak_a; WIDTH], head_a);
        self.steps(head, &[tweak_b; WIDTH], head_b);
        // Lanes [0, n) under tweak_a, lanes [n, 2n) under tweak_b.
        let mut lanes = [Block128::ZERO; WIDTH];
        let mut tweaks = [tweak_a; WIDTH];
        let mut results = [Block128::ZERO; WIDTH];
        lanes[..n].copy_from_slice(tail);
        lanes[n..2 * n].copy_from_slice(tail);
        tweaks[n..2 * n].fill(tweak_b);
        self.steps(&lanes, &tweaks, &mut results);
        tail_a.copy_from_slice(&results[..n]);
        tail_b.copy_from_slice(&results[n..2 * n]);
    }
}

impl Prf for ChaCha20Prf {
    fn kind(&self) -> PrfKind {
        PrfKind::Chacha20
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        let mut key = [0u32; 8];
        key[4..8].copy_from_slice(&self.key_high);
        self.eval_with_key(input, &mut key, &Self::nonce(tweak))
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        // A non-scalar backend value exists only after runtime detection of
        // this architecture's kernel (`with_backend`).
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if self.backend != SimdBackend::Scalar {
            return self.sweep(inputs, tweak, out);
        }
        assert_eq!(
            inputs.len(),
            out.len(),
            "eval_blocks input/output length mismatch"
        );
        let nonce = Self::nonce(tweak);
        let mut key = [0u32; 8];
        key[4..8].copy_from_slice(&self.key_high);
        for (input, slot) in inputs.iter().zip(out.iter_mut()) {
            *slot = self.eval_with_key(*input, &mut key, &nonce);
        }
    }

    fn eval_blocks_pair(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        if self.backend != SimdBackend::Scalar {
            return self.sweep_pair(inputs, tweak_a, tweak_b, out_a, out_b);
        }
        self.eval_blocks(inputs, tweak_a, out_a);
        self.eval_blocks(inputs, tweak_b, out_b);
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

    /// RFC 7539 §2.3.2 block function test vector.
    #[test]
    fn rfc7539_block_vector() {
        let key: [u32; 8] = [
            0x0302_0100,
            0x0706_0504,
            0x0b0a_0908,
            0x0f0e_0d0c,
            0x1312_1110,
            0x1716_1514,
            0x1b1a_1918,
            0x1f1e_1d1c,
        ];
        let nonce: [u32; 3] = [0x0900_0000, 0x4a00_0000, 0x0000_0000];
        let counter = 1;
        let out = chacha20_block(&key, counter, &nonce);
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
