//! SipHash-2-4 used as a lightweight PRF.
//!
//! SipHash is the fastest PRF the paper evaluates (Table 5: ~7.7× the AES
//! throughput on a V100) but, as the paper notes, it is a 64-bit keyed hash
//! designed for hash-flooding protection rather than a standard cryptographic
//! PRF, so its security margin for PIR is weaker. The 128-bit PRF output here
//! is produced by two domain-separated SipHash-2-4 invocations.

use pir_field::{Block128, SimdBackend};

use crate::{Prf, PrfKind};

/// SipHash-2-4 state.
#[derive(Clone, Copy)]
struct SipState {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
}

#[inline(always)]
fn sip_round(state: &mut SipState) {
    state.v0 = state.v0.wrapping_add(state.v1);
    state.v1 = state.v1.rotate_left(13);
    state.v1 ^= state.v0;
    state.v0 = state.v0.rotate_left(32);
    state.v2 = state.v2.wrapping_add(state.v3);
    state.v3 = state.v3.rotate_left(16);
    state.v3 ^= state.v2;
    state.v0 = state.v0.wrapping_add(state.v3);
    state.v3 = state.v3.rotate_left(21);
    state.v3 ^= state.v0;
    state.v2 = state.v2.wrapping_add(state.v1);
    state.v1 = state.v1.rotate_left(17);
    state.v1 ^= state.v2;
    state.v2 = state.v2.rotate_left(32);
}

/// Compute SipHash-2-4 of `message` under the 128-bit key `(k0, k1)`.
#[must_use]
pub fn siphash24(k0: u64, k1: u64, message: &[u8]) -> u64 {
    let mut state = SipState {
        v0: k0 ^ 0x736f_6d65_7073_6575,
        v1: k1 ^ 0x646f_7261_6e64_6f6d,
        v2: k0 ^ 0x6c79_6765_6e65_7261,
        v3: k1 ^ 0x7465_6462_7974_6573,
    };

    let len = message.len();
    let mut chunks = message.chunks_exact(8);
    for chunk in &mut chunks {
        let m = u64::from_le_bytes([
            chunk[0], chunk[1], chunk[2], chunk[3], chunk[4], chunk[5], chunk[6], chunk[7],
        ]);
        state.v3 ^= m;
        sip_round(&mut state);
        sip_round(&mut state);
        state.v0 ^= m;
    }

    // Final block: remaining bytes plus the length in the top byte.
    let remainder = chunks.remainder();
    let mut last = (len as u64 & 0xff) << 56;
    for (i, byte) in remainder.iter().enumerate() {
        last |= (*byte as u64) << (8 * i);
    }
    state.v3 ^= last;
    sip_round(&mut state);
    sip_round(&mut state);
    state.v0 ^= last;

    state.v2 ^= 0xff;
    for _ in 0..4 {
        sip_round(&mut state);
    }
    state.v0 ^ state.v1 ^ state.v2 ^ state.v3
}

/// SipHash-2-4 based PRF with 128-bit output.
pub struct SipHashPrf {
    k0: u64,
    k1: u64,
    backend: SimdBackend,
}

impl SipHashPrf {
    /// Build a PRF with an explicit 128-bit key split into two 64-bit halves.
    #[must_use]
    pub fn new(k0: u64, k1: u64) -> Self {
        Self {
            k0,
            k1,
            backend: SimdBackend::Scalar,
        }
    }

    /// Build a PRF with the crate's fixed public key.
    #[must_use]
    pub fn with_fixed_key() -> Self {
        Self::new(0x6770_7570_6972_5f73, 0x6970_6861_7368_5f6b)
    }

    /// Pin the batched sweeps to a SIMD backend (unsupported requests fall
    /// back to scalar). Only the x86_64 backend vectorizes SipHash (4 lanes,
    /// 8 in the paired sweep on AVX-512F CPUs); NEON hosts use the scalar
    /// interleaved path.
    #[must_use]
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = match backend.supported_or_scalar() {
            SimdBackend::Avx2 => SimdBackend::Avx2,
            _ => SimdBackend::Scalar,
        };
        self
    }
}

#[inline(always)]
fn sip_init(k0: u64, k1: u64) -> SipState {
    SipState {
        v0: k0 ^ 0x736f_6d65_7073_6575,
        v1: k1 ^ 0x646f_7261_6e64_6f6d,
        v2: k0 ^ 0x6c79_6765_6e65_7261,
        v3: k1 ^ 0x7465_6462_7974_6573,
    }
}

/// The padded final message word of a 24-byte message: no remaining bytes,
/// only the length in the top byte.
const SIP_FINAL_WORD_24: u64 = 24u64 << 56;

/// SipHash-2-4 over exactly three 8-byte message words, the only message
/// shape the PRF ever hashes. Bit-identical to [`siphash24`] on the
/// corresponding 24-byte little-endian buffer, but with no buffer assembly or
/// chunking — the reference the interleaved production paths are tested
/// against.
#[cfg(test)]
fn siphash24_words(k0: u64, k1: u64, m0: u64, m1: u64, m2: u64) -> u64 {
    let mut state = sip_init(k0, k1);
    for m in [m0, m1, m2, SIP_FINAL_WORD_24] {
        state.v3 ^= m;
        sip_round(&mut state);
        sip_round(&mut state);
        state.v0 ^= m;
    }
    state.v2 ^= 0xff;
    for _ in 0..4 {
        sip_round(&mut state);
    }
    state.v0 ^ state.v1 ^ state.v2 ^ state.v3
}

/// Two SipHash-2-4 instances over the same three message words under two
/// different keys, advanced in lockstep.
///
/// The PRF's 128-bit output is two independent SipHash chains; computing them
/// in one interleaved pass exposes the two dependency chains to the CPU
/// scheduler side by side (each `sip_round` is a serial chain of
/// add/rotate/xor steps, so a single chain leaves most ALU ports idle).
/// Bit-identical to two [`siphash24_words`] calls.
#[inline]
fn siphash24_words_x2(
    (k0a, k1a): (u64, u64),
    (k0b, k1b): (u64, u64),
    m0: u64,
    m1: u64,
    m2: u64,
) -> (u64, u64) {
    let mut a = sip_init(k0a, k1a);
    let mut b = sip_init(k0b, k1b);
    for m in [m0, m1, m2, SIP_FINAL_WORD_24] {
        a.v3 ^= m;
        b.v3 ^= m;
        sip_round(&mut a);
        sip_round(&mut b);
        sip_round(&mut a);
        sip_round(&mut b);
        a.v0 ^= m;
        b.v0 ^= m;
    }
    a.v2 ^= 0xff;
    b.v2 ^= 0xff;
    for _ in 0..4 {
        sip_round(&mut a);
        sip_round(&mut b);
    }
    (a.v0 ^ a.v1 ^ a.v2 ^ a.v3, b.v0 ^ b.v1 ^ b.v2 ^ b.v3)
}

/// The SipHash-2-4 state after absorbing the first two message words
/// (`m0`, `m1`) of a 24-byte message — everything *before* the tweak word.
///
/// A GGM node expansion evaluates the PRF on one seed under two tweaks; the
/// tweak is the third message word, so this input-dependent prefix (started
/// from the key-derived `base` state, which batched sweeps hoist out of
/// their loop) is shared by both children and computed once.
#[inline(always)]
fn sip_prefix(base: SipState, m0: u64, m1: u64) -> SipState {
    let mut state = base;
    for m in [m0, m1] {
        state.v3 ^= m;
        sip_round(&mut state);
        sip_round(&mut state);
        state.v0 ^= m;
    }
    state
}

/// Finish four prefix-shared SipHash-2-4 instances in lockstep: the low/high
/// key prefixes of one seed, each forked for the two child tweaks.
///
/// Returns `(low_a, high_a, low_b, high_b)` for tweaks `a` and `b`;
/// bit-identical to four [`siphash24_words`] calls that re-absorbed the
/// prefix from scratch.
#[inline]
fn sip_fork_x4(
    prefix_low: SipState,
    prefix_high: SipState,
    tweak_a: u64,
    tweak_b: u64,
) -> (u64, u64, u64, u64) {
    let mut s = [prefix_low, prefix_high, prefix_low, prefix_high];
    let words = [(tweak_a, tweak_b), (SIP_FINAL_WORD_24, SIP_FINAL_WORD_24)];
    for (wa, wb) in words {
        s[0].v3 ^= wa;
        s[1].v3 ^= wa;
        s[2].v3 ^= wb;
        s[3].v3 ^= wb;
        for state in &mut s {
            sip_round(state);
        }
        for state in &mut s {
            sip_round(state);
        }
        s[0].v0 ^= wa;
        s[1].v0 ^= wa;
        s[2].v0 ^= wb;
        s[3].v0 ^= wb;
    }
    for state in &mut s {
        state.v2 ^= 0xff;
    }
    for _ in 0..4 {
        for state in &mut s {
            sip_round(state);
        }
    }
    (
        s[0].v0 ^ s[0].v1 ^ s[0].v2 ^ s[0].v3,
        s[1].v0 ^ s[1].v1 ^ s[1].v2 ^ s[1].v3,
        s[2].v0 ^ s[2].v1 ^ s[2].v2 ^ s[2].v3,
        s[3].v0 ^ s[3].v1 ^ s[3].v2 ^ s[3].v3,
    )
}

/// Four SipHash-2-4 instances advanced in lockstep: two PRF blocks (messages
/// `ma`/`mb` plus the shared tweak) times the two output-half keys.
///
/// Batched sweeps pair up adjacent seeds so the scheduler sees four
/// independent add/rotate/xor chains, enough to saturate the ALU ports that
/// a single chain leaves idle. Returns `(low_a, high_a, low_b, high_b)`;
/// bit-identical to four [`siphash24_words`] calls.
#[inline]
fn siphash24_words_x4(
    low_key: (u64, u64),
    high_key: (u64, u64),
    ma: (u64, u64),
    mb: (u64, u64),
    tweak: u64,
) -> (u64, u64, u64, u64) {
    let mut s = [
        sip_init(low_key.0, low_key.1),
        sip_init(high_key.0, high_key.1),
        sip_init(low_key.0, low_key.1),
        sip_init(high_key.0, high_key.1),
    ];
    let words = [
        (ma.0, mb.0),
        (ma.1, mb.1),
        (tweak, tweak),
        (SIP_FINAL_WORD_24, SIP_FINAL_WORD_24),
    ];
    for (wa, wb) in words {
        s[0].v3 ^= wa;
        s[1].v3 ^= wa;
        s[2].v3 ^= wb;
        s[3].v3 ^= wb;
        for state in &mut s {
            sip_round(state);
        }
        for state in &mut s {
            sip_round(state);
        }
        s[0].v0 ^= wa;
        s[1].v0 ^= wa;
        s[2].v0 ^= wb;
        s[3].v0 ^= wb;
    }
    for state in &mut s {
        state.v2 ^= 0xff;
    }
    for _ in 0..4 {
        for state in &mut s {
            sip_round(state);
        }
    }
    (
        s[0].v0 ^ s[0].v1 ^ s[0].v2 ^ s[0].v3,
        s[1].v0 ^ s[1].v1 ^ s[1].v2 ^ s[1].v3,
        s[2].v0 ^ s[2].v1 ^ s[2].v2 ^ s[2].v3,
        s[3].v0 ^ s[3].v1 ^ s[3].v2 ^ s[3].v3,
    )
}

impl SipHashPrf {
    /// The key of the second, domain-separated invocation that produces the
    /// high output half.
    #[inline]
    pub(crate) fn high_key(&self) -> (u64, u64) {
        (self.k0 ^ 0x6868_6868_6868_6868, self.k1.rotate_left(17))
    }

    /// The shared body of [`Prf::eval_blocks_pair`] and
    /// [`Prf::expand_blocks_mmo`]: one prefix-shared, fork-interleaved sweep
    /// over `inputs` (40 sip rounds per seed instead of 48). When `mmo` is
    /// set, the Matyas–Meyer–Oseas feed-forward is applied for free — the
    /// input halves are already in registers.
    #[inline]
    fn pair_sweep(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
        mmo: bool,
    ) {
        assert_eq!(
            inputs.len(),
            out_a.len(),
            "paired sweep input/output length mismatch"
        );
        assert_eq!(
            inputs.len(),
            out_b.len(),
            "paired sweep input/output length mismatch"
        );
        let (hk0, hk1) = self.high_key();

        #[cfg_attr(not(target_arch = "x86_64"), allow(unused_mut))]
        let mut vector_len = 0;
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            vector_len = inputs.len() & !1;
            crate::simd::siphash_x86::pair_sweep(
                (self.k0, self.k1),
                (hk0, hk1),
                &inputs[..vector_len],
                tweak_a,
                tweak_b,
                &mut out_a[..vector_len],
                &mut out_b[..vector_len],
                mmo,
            );
        }

        let base_low = sip_init(self.k0, self.k1);
        let base_high = sip_init(hk0, hk1);
        // `mmo` is constant for the whole sweep; the select below is hoisted.
        let feed = (mmo as u64).wrapping_neg();
        for (input, (slot_a, slot_b)) in inputs[vector_len..].iter().zip(
            out_a[vector_len..]
                .iter_mut()
                .zip(out_b[vector_len..].iter_mut()),
        ) {
            let (m0, m1) = input.halves();
            let prefix_low = sip_prefix(base_low, m0, m1);
            let prefix_high = sip_prefix(base_high, m0, m1);
            let (low_a, high_a, low_b, high_b) =
                sip_fork_x4(prefix_low, prefix_high, tweak_a, tweak_b);
            *slot_a = Block128::from_halves(low_a ^ (m0 & feed), high_a ^ (m1 & feed));
            *slot_b = Block128::from_halves(low_b ^ (m0 & feed), high_b ^ (m1 & feed));
        }
    }
}

impl Prf for SipHashPrf {
    fn kind(&self) -> PrfKind {
        PrfKind::SipHash
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        let (m0, m1) = input.halves();
        let (low, high) = siphash24_words_x2((self.k0, self.k1), self.high_key(), m0, m1, tweak);
        Block128::from_halves(low, high)
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "eval_blocks input/output length mismatch"
        );
        let low_key = (self.k0, self.k1);
        let high_key = self.high_key();

        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            let vector_len = inputs.len() & !1;
            crate::simd::siphash_x86::eval_blocks(
                low_key,
                high_key,
                &inputs[..vector_len],
                tweak,
                &mut out[..vector_len],
            );
            for (input, slot) in inputs[vector_len..]
                .iter()
                .zip(out[vector_len..].iter_mut())
            {
                let (m0, m1) = input.halves();
                let (low, high) = siphash24_words_x2(low_key, high_key, m0, m1, tweak);
                *slot = Block128::from_halves(low, high);
            }
            return;
        }

        let mut input_pairs = inputs.chunks_exact(2);
        let mut output_pairs = out.chunks_exact_mut(2);
        for (pair, slots) in input_pairs.by_ref().zip(output_pairs.by_ref()) {
            let (low_a, high_a, low_b, high_b) =
                siphash24_words_x4(low_key, high_key, pair[0].halves(), pair[1].halves(), tweak);
            slots[0] = Block128::from_halves(low_a, high_a);
            slots[1] = Block128::from_halves(low_b, high_b);
        }
        for (input, slot) in input_pairs
            .remainder()
            .iter()
            .zip(output_pairs.into_remainder())
        {
            let (m0, m1) = input.halves();
            let (low, high) = siphash24_words_x2(low_key, high_key, m0, m1, tweak);
            *slot = Block128::from_halves(low, high);
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
        self.pair_sweep(inputs, tweak_a, tweak_b, out_a, out_b, false);
    }

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

    /// `"avx2+avx512"` where the paired sweeps run the AVX-512 kernel, so a
    /// kernel report says which SipHash kernel produced its number.
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

    /// Reference vectors from the SipHash paper / reference implementation:
    /// key = 00 01 02 ... 0f, messages are 0..len prefixes of 00 01 02 ...
    #[test]
    fn reference_vectors() {
        let k0 = u64::from_le_bytes([0, 1, 2, 3, 4, 5, 6, 7]);
        let k1 = u64::from_le_bytes([8, 9, 10, 11, 12, 13, 14, 15]);
        let message: Vec<u8> = (0u8..15).collect();

        // vectors_sip64 from the reference implementation (first 3 entries).
        let expected: [u64; 3] = [
            0x726f_db47_dd0e_0e31,
            0x74f8_39c5_93dc_67fd,
            0x0d6c_8009_d9a9_4f5a,
        ];
        for (len, want) in expected.iter().enumerate() {
            assert_eq!(
                siphash24(k0, k1, &message[..len]),
                *want,
                "length {len} mismatch"
            );
        }
    }

    #[test]
    fn prf_properties() {
        let prf = SipHashPrf::with_fixed_key();
        let x = Block128::from_u128(0xfeed);
        assert_eq!(prf.eval_block(x, 9), prf.eval_block(x, 9));
        assert_ne!(prf.eval_block(x, 9), prf.eval_block(x, 10));
        assert_ne!(
            prf.eval_block(x, 9),
            prf.eval_block(Block128::from_u128(0xfeee), 9)
        );
        assert_eq!(prf.kind(), PrfKind::SipHash);
    }

    /// The register-only word path must match the byte-oriented reference.
    #[test]
    fn word_path_matches_buffer_path() {
        for (m0, m1, m2) in [
            (0u64, 0u64, 0u64),
            (1, 2, 3),
            (u64::MAX, 0x0123_4567_89ab_cdef, 42),
        ] {
            let mut message = [0u8; 24];
            message[..8].copy_from_slice(&m0.to_le_bytes());
            message[8..16].copy_from_slice(&m1.to_le_bytes());
            message[16..].copy_from_slice(&m2.to_le_bytes());
            assert_eq!(
                siphash24_words(7, 13, m0, m1, m2),
                siphash24(7, 13, &message)
            );
            let (a, b) = siphash24_words_x2((7, 13), (21, 34), m0, m1, m2);
            assert_eq!(a, siphash24(7, 13, &message));
            assert_eq!(b, siphash24(21, 34, &message));
        }
    }

    /// Batched evaluation (including the 4-way interleaved pair path and the
    /// odd-length remainder) must match scalar evaluation bit for bit.
    #[test]
    fn eval_blocks_matches_eval_block() {
        let prf = SipHashPrf::with_fixed_key();
        for len in [0usize, 1, 2, 3, 7, 8, 33] {
            let inputs: Vec<Block128> = (0..len as u128)
                .map(|i| Block128::from_u128(i * 0x1234_5677 + 3))
                .collect();
            let mut batched = vec![Block128::ZERO; len];
            prf.eval_blocks(&inputs, 9, &mut batched);
            for (input, got) in inputs.iter().zip(&batched) {
                assert_eq!(*got, prf.eval_block(*input, 9), "len {len}");
            }
        }
    }

    /// The prefix-shared paired-tweak sweep must match two scalar sweeps.
    #[test]
    fn eval_blocks_pair_matches_scalar_tweaks() {
        let prf = SipHashPrf::with_fixed_key();
        let inputs: Vec<Block128> = (0..21u128)
            .map(|i| Block128::from_u128(i * 0x9e37 + 11))
            .collect();
        let mut left = vec![Block128::ZERO; inputs.len()];
        let mut right = vec![Block128::ZERO; inputs.len()];
        prf.eval_blocks_pair(&inputs, 0, 1, &mut left, &mut right);
        for (i, input) in inputs.iter().enumerate() {
            assert_eq!(left[i], prf.eval_block(*input, 0), "left {i}");
            assert_eq!(right[i], prf.eval_block(*input, 1), "right {i}");
        }
    }

    #[test]
    fn output_halves_are_independent() {
        // The two SipHash calls use different keys, so low != high in general.
        let prf = SipHashPrf::with_fixed_key();
        let out = prf.eval_block(Block128::from_u128(1), 0);
        let (low, high) = out.halves();
        assert_ne!(low, high);
    }

    /// The label kernel reports and batch kernel names carry: `avx2+avx512`
    /// exactly where the paired sweeps take the AVX-512 kernel.
    #[test]
    fn backend_label_names_the_siphash_kernel() {
        let scalar = SipHashPrf::with_fixed_key().with_backend(SimdBackend::Scalar);
        assert_eq!(scalar.backend_label(), "scalar");
        assert_eq!(SipHashPrf::with_fixed_key().backend_label(), "scalar");
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = SipHashPrf::with_fixed_key().with_backend(SimdBackend::Avx2);
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
