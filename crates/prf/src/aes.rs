//! Portable software AES-128 used as the default PRF.
//!
//! CPUs accelerate AES with AES-NI, which is why the CPU DPF baseline uses it;
//! GPUs have no such hardware so AES must be computed in software with S-box
//! lookups (the paper's §3.2.6). This module is a straightforward, table-free
//! byte-oriented implementation of the FIPS-197 cipher: it favours clarity and
//! portability over raw speed, because in this reproduction the *performance*
//! of each PRF on the GPU is captured by the cost model
//! ([`crate::PrfKind::gpu_cycles_per_block`]), while this code provides the
//! *functional* behaviour.

use pir_field::{Block128, SimdBackend};

use crate::{Prf, PrfKind};

/// AES S-box.
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// Round constants for key expansion.
const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

const ROUNDS: usize = 10;
const BLOCK: usize = 16;

/// Multiply a byte by `x` in GF(2^8) (the `xtime` operation from FIPS-197).
#[inline]
const fn xtime(byte: u8) -> u8 {
    let shifted = byte << 1;
    if byte & 0x80 != 0 {
        shifted ^ 0x1b
    } else {
        shifted
    }
}

/// The fused SubBytes+ShiftRows+MixColumns lookup table for byte row 0.
///
/// `T0[x]` packs the MixColumns products of `S(x)` into one little-endian
/// column word: bytes `(2·S(x), S(x), S(x), 3·S(x))`. The tables for byte
/// rows 1–3 are byte rotations of `T0`, so one round of AES becomes four
/// table lookups and four XORs per column — the classic 32-bit software AES
/// formulation, computed once at compile time. The ciphertext is bit-for-bit
/// identical to the byte-oriented FIPS-197 walkthrough (the FIPS test vector
/// below checks this).
const T0: [u32; 256] = build_t0();
/// `T0` rotated left by one byte (for state byte row 1).
const T1: [u32; 256] = rotate_table(&T0, 8);
/// `T0` rotated left by two bytes (for state byte row 2).
const T2: [u32; 256] = rotate_table(&T0, 16);
/// `T0` rotated left by three bytes (for state byte row 3).
const T3: [u32; 256] = rotate_table(&T0, 24);

const fn build_t0() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = SBOX[i];
        let s2 = xtime(s);
        let s3 = s2 ^ s;
        table[i] = (s2 as u32) | ((s as u32) << 8) | ((s as u32) << 16) | ((s3 as u32) << 24);
        i += 1;
    }
    table
}

const fn rotate_table(base: &[u32; 256], bits: u32) -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        table[i] = base[i].rotate_left(bits);
        i += 1;
    }
    table
}

/// An expanded AES-128 key schedule, stored as little-endian column words —
/// the form the T-table encryption loop consumes (byte `r` of column word `c`
/// is the FIPS-197 state byte at row `r`, column `c`).
#[derive(Clone)]
pub struct Aes128 {
    pub(crate) round_key_columns: [[u32; 4]; ROUNDS + 1],
}

impl Aes128 {
    /// Expand a 128-bit key into the 11 round keys.
    #[must_use]
    pub fn new(key: [u8; BLOCK]) -> Self {
        let mut words = [[0u8; 4]; 4 * (ROUNDS + 1)];
        for (i, word) in words.iter_mut().take(4).enumerate() {
            word.copy_from_slice(&key[4 * i..4 * i + 4]);
        }
        for i in 4..4 * (ROUNDS + 1) {
            let mut temp = words[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for byte in &mut temp {
                    *byte = SBOX[*byte as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                words[i][j] = words[i - 4][j] ^ temp[j];
            }
        }
        // Column `word` of round `round` is schedule word `4 * round + word`:
        // a public position.
        let round_key_columns = core::array::from_fn(|round| {
            core::array::from_fn(|word| u32::from_le_bytes(words[4 * round + word]))
        });
        Self { round_key_columns }
    }

    /// Encrypt a single 16-byte block.
    ///
    /// The state is held as four little-endian column words (byte `r` of
    /// column `c` is state byte `c*4 + r`, the FIPS-197 column-major layout);
    /// each middle round is the fused T-table transform, the last round
    /// applies SubBytes+ShiftRows without MixColumns.
    #[must_use]
    pub fn encrypt_block(&self, plaintext: [u8; BLOCK]) -> [u8; BLOCK] {
        let rk = &self.round_key_columns;
        let mut c0 = u32::from_le_bytes([plaintext[0], plaintext[1], plaintext[2], plaintext[3]]);
        let mut c1 = u32::from_le_bytes([plaintext[4], plaintext[5], plaintext[6], plaintext[7]]);
        let mut c2 = u32::from_le_bytes([plaintext[8], plaintext[9], plaintext[10], plaintext[11]]);
        let mut c3 =
            u32::from_le_bytes([plaintext[12], plaintext[13], plaintext[14], plaintext[15]]);
        c0 ^= rk[0][0];
        c1 ^= rk[0][1];
        c2 ^= rk[0][2];
        c3 ^= rk[0][3];

        for k in rk.iter().take(ROUNDS).skip(1) {
            let n0 = T0[(c0 & 0xff) as usize]
                ^ T1[((c1 >> 8) & 0xff) as usize]
                ^ T2[((c2 >> 16) & 0xff) as usize]
                ^ T3[(c3 >> 24) as usize]
                ^ k[0];
            let n1 = T0[(c1 & 0xff) as usize]
                ^ T1[((c2 >> 8) & 0xff) as usize]
                ^ T2[((c3 >> 16) & 0xff) as usize]
                ^ T3[(c0 >> 24) as usize]
                ^ k[1];
            let n2 = T0[(c2 & 0xff) as usize]
                ^ T1[((c3 >> 8) & 0xff) as usize]
                ^ T2[((c0 >> 16) & 0xff) as usize]
                ^ T3[(c1 >> 24) as usize]
                ^ k[2];
            let n3 = T0[(c3 & 0xff) as usize]
                ^ T1[((c0 >> 8) & 0xff) as usize]
                ^ T2[((c1 >> 16) & 0xff) as usize]
                ^ T3[(c2 >> 24) as usize]
                ^ k[3];
            (c0, c1, c2, c3) = (n0, n1, n2, n3);
        }

        let k = &rk[ROUNDS];
        let last = |a: u32, b: u32, c: u32, d: u32| -> u32 {
            (SBOX[(a & 0xff) as usize] as u32)
                | ((SBOX[((b >> 8) & 0xff) as usize] as u32) << 8)
                | ((SBOX[((c >> 16) & 0xff) as usize] as u32) << 16)
                | ((SBOX[(d >> 24) as usize] as u32) << 24)
        };
        let o0 = last(c0, c1, c2, c3) ^ k[0];
        let o1 = last(c1, c2, c3, c0) ^ k[1];
        let o2 = last(c2, c3, c0, c1) ^ k[2];
        let o3 = last(c3, c0, c1, c2) ^ k[3];

        let mut out = [0u8; BLOCK];
        out[0..4].copy_from_slice(&o0.to_le_bytes());
        out[4..8].copy_from_slice(&o1.to_le_bytes());
        out[8..12].copy_from_slice(&o2.to_le_bytes());
        out[12..16].copy_from_slice(&o3.to_le_bytes());
        out
    }
}

/// AES-128 in a counter-mode-style PRF construction.
///
/// The PRF evaluates `AES_k(input ⊕ encode(tweak))`, i.e. a fixed-key block
/// cipher applied to a tweaked input — the construction used by fixed-key AES
/// DPF implementations.
pub struct Aes128Prf {
    cipher: Aes128,
    backend: SimdBackend,
}

impl Aes128Prf {
    /// Build a PRF around an explicit 128-bit key.
    #[must_use]
    pub fn new(key: [u8; BLOCK]) -> Self {
        Self {
            cipher: Aes128::new(key),
            backend: SimdBackend::Scalar,
        }
    }

    /// Build a PRF with the crate's fixed public key.
    #[must_use]
    pub fn with_fixed_key() -> Self {
        Self::new(*b"gpu-pir-aes-key!")
    }

    /// Pin the batched sweeps to a SIMD backend (unsupported requests fall
    /// back to scalar). Only the x86_64 backend accelerates AES (via AES-NI,
    /// and VAES for the paired sweeps where the CPU has it); NEON hosts use
    /// the scalar path.
    #[must_use]
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = match backend.supported_or_scalar() {
            SimdBackend::Avx2 => SimdBackend::Avx2,
            _ => SimdBackend::Scalar,
        };
        self
    }
}

impl Prf for Aes128Prf {
    fn kind(&self) -> PrfKind {
        PrfKind::Aes128
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        let tweaked = input ^ tweak_block(tweak);
        Block128::from_le_bytes(self.cipher.encrypt_block(tweaked.to_le_bytes()))
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "eval_blocks input/output length mismatch"
        );
        let mask = tweak_block(tweak);
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            crate::simd::aes_x86::eval_blocks(&self.cipher.round_key_columns, mask, inputs, out);
            return;
        }
        for (input, slot) in inputs.iter().zip(out.iter_mut()) {
            *slot =
                Block128::from_le_bytes(self.cipher.encrypt_block((*input ^ mask).to_le_bytes()));
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
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            crate::simd::aes_x86::pair_sweep(
                &self.cipher.round_key_columns,
                tweak_block(tweak_a),
                tweak_block(tweak_b),
                inputs,
                out_a,
                out_b,
                false,
            );
            return;
        }
        self.eval_blocks(inputs, tweak_a, out_a);
        self.eval_blocks(inputs, tweak_b, out_b);
    }

    fn expand_blocks_mmo(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            crate::simd::aes_x86::pair_sweep(
                &self.cipher.round_key_columns,
                tweak_block(tweak_a),
                tweak_block(tweak_b),
                inputs,
                out_a,
                out_b,
                true,
            );
            return;
        }
        self.eval_blocks_pair(inputs, tweak_a, tweak_b, out_a, out_b);
        pir_field::simd::xor_blocks_inplace(out_a, inputs);
        pir_field::simd::xor_blocks_inplace(out_b, inputs);
    }

    /// `"avx2+avx512"` where the paired sweeps run the zmm VAES kernel and
    /// `"avx2+vaes"` where they run the ymm one, so a kernel report says
    /// which AES kernel produced its number.
    fn backend_label(&self) -> &'static str {
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            if crate::simd::aes_x86::has_zmm_kernel() {
                return "avx2+avx512";
            }
            if std::arch::is_x86_feature_detected!("vaes") {
                return "avx2+vaes";
            }
        }
        self.backend.label()
    }

    fn simd_backend(&self) -> SimdBackend {
        self.backend
    }
}

/// The tweak is mixed into the plaintext before encryption (counter-mode
/// style domain separation).
#[inline]
fn tweak_block(tweak: u64) -> Block128 {
    Block128::from_halves(tweak, tweak.rotate_left(32) ^ 0xa5a5_a5a5)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FIPS-197 Appendix C.1 test vector.
    #[test]
    fn fips197_vector() {
        let key: [u8; 16] = [
            0x00, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0a, 0x0b, 0x0c, 0x0d,
            0x0e, 0x0f,
        ];
        let plaintext: [u8; 16] = [
            0x00, 0x11, 0x22, 0x33, 0x44, 0x55, 0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb, 0xcc, 0xdd,
            0xee, 0xff,
        ];
        let expected: [u8; 16] = [
            0x69, 0xc4, 0xe0, 0xd8, 0x6a, 0x7b, 0x04, 0x30, 0xd8, 0xcd, 0xb7, 0x80, 0x70, 0xb4,
            0xc5, 0x5a,
        ];
        let cipher = Aes128::new(key);
        assert_eq!(cipher.encrypt_block(plaintext), expected);
    }

    /// FIPS-197 Appendix A.1 key expansion spot checks.
    #[test]
    fn key_expansion_matches_reference() {
        let key: [u8; 16] = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let cipher = Aes128::new(key);
        let columns = |bytes: [u8; 16]| {
            [
                u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]),
                u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]),
                u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]),
                u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]),
            ]
        };
        // w[4..8] from the FIPS-197 walkthrough: a0fafe17 88542cb1 23a33939 2a6c7605
        assert_eq!(
            cipher.round_key_columns[1],
            columns([
                0xa0, 0xfa, 0xfe, 0x17, 0x88, 0x54, 0x2c, 0xb1, 0x23, 0xa3, 0x39, 0x39, 0x2a, 0x6c,
                0x76, 0x05
            ])
        );
        // Final round key w[40..44]: d014f9a8 c9ee2589 e13f0cc8 b6630ca6
        assert_eq!(
            cipher.round_key_columns[10],
            columns([
                0xd0, 0x14, 0xf9, 0xa8, 0xc9, 0xee, 0x25, 0x89, 0xe1, 0x3f, 0x0c, 0xc8, 0xb6, 0x63,
                0x0c, 0xa6
            ])
        );
    }

    #[test]
    fn prf_is_deterministic_and_tweaked() {
        let prf = Aes128Prf::with_fixed_key();
        let x = Block128::from_u128(99);
        assert_eq!(prf.eval_block(x, 3), prf.eval_block(x, 3));
        assert_ne!(prf.eval_block(x, 3), prf.eval_block(x, 4));
        assert_ne!(
            prf.eval_block(x, 3),
            prf.eval_block(Block128::from_u128(100), 3)
        );
        assert_eq!(prf.kind(), PrfKind::Aes128);
    }

    /// The label kernel reports and batch kernel names carry: `avx2+avx512`
    /// exactly where the paired sweeps take the zmm VAES kernel (VAES and
    /// AVX-512F), `avx2+vaes` where they take the ymm one.
    #[test]
    fn backend_label_names_the_aes_kernel() {
        let scalar = Aes128Prf::with_fixed_key().with_backend(SimdBackend::Scalar);
        assert_eq!(scalar.backend_label(), "scalar");
        assert_eq!(Aes128Prf::with_fixed_key().backend_label(), "scalar");
        #[cfg(target_arch = "x86_64")]
        {
            let avx2 = Aes128Prf::with_fixed_key().with_backend(SimdBackend::Avx2);
            let vaes = std::arch::is_x86_feature_detected!("vaes");
            let want = if !SimdBackend::Avx2.is_supported() {
                "scalar"
            } else if vaes && std::arch::is_x86_feature_detected!("avx512f") {
                "avx2+avx512"
            } else if vaes {
                "avx2+vaes"
            } else {
                "avx2"
            };
            assert_eq!(avx2.backend_label(), want);
        }
    }

    #[test]
    fn different_keys_give_different_outputs() {
        let a = Aes128Prf::new([0u8; 16]);
        let b = Aes128Prf::new([1u8; 16]);
        let x = Block128::from_u128(7);
        assert_ne!(a.eval_block(x, 0), b.eval_block(x, 0));
    }
}
