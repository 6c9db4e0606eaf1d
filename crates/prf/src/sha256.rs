//! SHA-256 and an HMAC-SHA-256 PRF.
//!
//! SHA-256 is the "hash function" PRF option from the paper's Table 5. CPUs
//! frequently ship SHA extensions; GPUs evaluate it in software, which makes
//! it roughly as expensive as software AES.

use pir_field::{Block128, SimdBackend};

#[cfg(target_arch = "x86_64")]
use crate::simd::{sha256_x86, LaneKernel};
use crate::{Prf, PrfKind};

const H0: [u32; 8] = [
    0x6a09_e667,
    0xbb67_ae85,
    0x3c6e_f372,
    0xa54f_f53a,
    0x510e_527f,
    0x9b05_688c,
    0x1f83_d9ab,
    0x5be0_cd19,
];

pub(crate) const K: [u32; 64] = [
    0x428a_2f98,
    0x7137_4491,
    0xb5c0_fbcf,
    0xe9b5_dba5,
    0x3956_c25b,
    0x59f1_11f1,
    0x923f_82a4,
    0xab1c_5ed5,
    0xd807_aa98,
    0x1283_5b01,
    0x2431_85be,
    0x550c_7dc3,
    0x72be_5d74,
    0x80de_b1fe,
    0x9bdc_06a7,
    0xc19b_f174,
    0xe49b_69c1,
    0xefbe_4786,
    0x0fc1_9dc6,
    0x240c_a1cc,
    0x2de9_2c6f,
    0x4a74_84aa,
    0x5cb0_a9dc,
    0x76f9_88da,
    0x983e_5152,
    0xa831_c66d,
    0xb003_27c8,
    0xbf59_7fc7,
    0xc6e0_0bf3,
    0xd5a7_9147,
    0x06ca_6351,
    0x1429_2967,
    0x27b7_0a85,
    0x2e1b_2138,
    0x4d2c_6dfc,
    0x5338_0d13,
    0x650a_7354,
    0x766a_0abb,
    0x81c2_c92e,
    0x9272_2c85,
    0xa2bf_e8a1,
    0xa81a_664b,
    0xc24b_8b70,
    0xc76c_51a3,
    0xd192_e819,
    0xd699_0624,
    0xf40e_3585,
    0x106a_a070,
    0x19a4_c116,
    0x1e37_6c08,
    0x2748_774c,
    0x34b0_bcb5,
    0x391c_0cb3,
    0x4ed8_aa4a,
    0x5b9c_ca4f,
    0x682e_6ff3,
    0x748f_82ee,
    0x78a5_636f,
    0x84c8_7814,
    0x8cc7_0208,
    0x90be_fffa,
    0xa450_6ceb,
    0xbef9_a3f7,
    0xc671_78f2,
];

fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
    }
    for i in 16..64 {
        let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
        let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
        w[i] = w[i - 16]
            .wrapping_add(s0)
            .wrapping_add(w[i - 7])
            .wrapping_add(s1);
    }

    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for i in 0..64 {
        let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ ((!e) & g);
        let temp1 = h
            .wrapping_add(s1)
            .wrapping_add(ch)
            .wrapping_add(K[i])
            .wrapping_add(w[i]);
        let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let temp2 = s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(temp1);
        d = c;
        c = b;
        b = a;
        a = temp1.wrapping_add(temp2);
    }

    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// Compute the SHA-256 digest of `message`.
#[must_use]
pub fn sha256(message: &[u8]) -> [u8; 32] {
    let mut state = H0;
    let bit_len = (message.len() as u64) * 8;

    let mut padded = message.to_vec();
    padded.push(0x80);
    while padded.len() % 64 != 56 {
        padded.push(0);
    }
    padded.extend_from_slice(&bit_len.to_be_bytes());

    for block in padded.chunks_exact(64) {
        let mut buf = [0u8; 64];
        buf.copy_from_slice(block);
        compress(&mut state, &buf);
    }

    let mut digest = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        digest[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
    }
    digest
}

/// Compute HMAC-SHA-256 of `message` under `key`.
#[must_use]
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    const BLOCK_LEN: usize = 64;
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }

    let mut inner = Vec::with_capacity(BLOCK_LEN + message.len());
    inner.extend(key_block.iter().map(|b| b ^ 0x36));
    inner.extend_from_slice(message);
    let inner_digest = sha256(&inner);

    let mut outer = Vec::with_capacity(BLOCK_LEN + 32);
    outer.extend(key_block.iter().map(|b| b ^ 0x5c));
    outer.extend_from_slice(&inner_digest);
    sha256(&outer)
}

/// HMAC-SHA-256 truncated to 128 bits, used as a PRF.
///
/// The PRF message is always exactly 24 bytes (a 16-byte block plus an 8-byte
/// tweak), so the HMAC schedule collapses: the key-dependent ipad and opad
/// blocks are each compressed once at construction time and cached as
/// midstates, leaving two `compress` calls per evaluation (one for the padded
/// message block, one for the padded inner digest) instead of the four (plus
/// heap-allocated message assembly) the generic [`hmac_sha256`] performs. The
/// output is bit-identical to the generic path.
pub struct Sha256Prf {
    /// SHA-256 state after compressing `key ⊕ ipad` (one 64-byte block).
    inner_midstate: [u32; 8],
    /// SHA-256 state after compressing `key ⊕ opad`.
    outer_midstate: [u32; 8],
    backend: SimdBackend,
}

/// Total bytes hashed by the inner SHA-256: the ipad block plus the 24-byte
/// message.
pub(crate) const INNER_LEN_BITS: u64 = (64 + 24) * 8;
/// Total bytes hashed by the outer SHA-256: the opad block plus the 32-byte
/// inner digest.
pub(crate) const OUTER_LEN_BITS: u64 = (64 + 32) * 8;

impl Sha256Prf {
    /// Build a PRF with an explicit 256-bit key.
    #[must_use]
    pub fn new(key: [u8; 32]) -> Self {
        let mut key_block = [0u8; 64];
        key_block[..32].copy_from_slice(&key);

        let mut ipad = [0u8; 64];
        let mut opad = [0u8; 64];
        for i in 0..64 {
            ipad[i] = key_block[i] ^ 0x36;
            opad[i] = key_block[i] ^ 0x5c;
        }
        let mut inner_midstate = H0;
        compress(&mut inner_midstate, &ipad);
        let mut outer_midstate = H0;
        compress(&mut outer_midstate, &opad);
        Self {
            inner_midstate,
            outer_midstate,
            backend: SimdBackend::Scalar,
        }
    }

    /// Build a PRF with the crate's fixed public key.
    #[must_use]
    pub fn with_fixed_key() -> Self {
        Self::new(*b"gpu-pir-sha256-prf-fixed-key!!!!")
    }

    /// Pin the batched sweeps to a SIMD backend (unsupported requests fall
    /// back to scalar). Only the x86_64 backend vectorizes the 8-way
    /// multi-buffer HMAC; NEON hosts use the scalar path.
    #[must_use]
    pub fn with_backend(mut self, backend: SimdBackend) -> Self {
        self.backend = match backend.supported_or_scalar() {
            SimdBackend::Avx2 => SimdBackend::Avx2,
            _ => SimdBackend::Scalar,
        };
        self
    }

    /// One HMAC evaluation from the cached midstates: exactly two compressions.
    #[inline]
    fn mac_block(&self, input: Block128, tweak: u64) -> Block128 {
        // Inner hash: the 24-byte message, padding and the total bit length
        // all fit in one final block.
        let mut block = [0u8; 64];
        block[..16].copy_from_slice(&input.to_le_bytes());
        block[16..24].copy_from_slice(&tweak.to_le_bytes());
        block[24] = 0x80;
        block[56..].copy_from_slice(&INNER_LEN_BITS.to_be_bytes());
        let mut state = self.inner_midstate;
        compress(&mut state, &block);

        // Outer hash: the 32-byte inner digest, padding and length likewise
        // fit in one final block.
        let mut block = [0u8; 64];
        for (i, word) in state.iter().enumerate() {
            block[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        block[32] = 0x80;
        block[56..].copy_from_slice(&OUTER_LEN_BITS.to_be_bytes());
        let mut state = self.outer_midstate;
        compress(&mut state, &block);

        let mut out = [0u8; 16];
        for (i, word) in state.iter().take(4).enumerate() {
            out[4 * i..4 * i + 4].copy_from_slice(&word.to_be_bytes());
        }
        Block128::from_le_bytes(out)
    }
}

#[cfg(target_arch = "x86_64")]
impl LaneKernel<{ sha256_x86::WIDTH }> for Sha256Prf {
    fn steps(&self, inputs: &[Block128], tweaks: &[u64; sha256_x86::WIDTH], out: &mut [Block128]) {
        sha256_x86::eval_blocks(
            &self.inner_midstate,
            &self.outer_midstate,
            inputs,
            tweaks,
            out,
        );
    }
}

impl Prf for Sha256Prf {
    fn kind(&self) -> PrfKind {
        PrfKind::Sha256
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        self.mac_block(input, tweak)
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        // The Avx2 backend value exists only after runtime detection
        // (`with_backend`).
        #[cfg(target_arch = "x86_64")]
        if self.backend == SimdBackend::Avx2 {
            return self.sweep(inputs, tweak, out);
        }
        assert_eq!(
            inputs.len(),
            out.len(),
            "eval_blocks input/output length mismatch"
        );
        for (input, slot) in inputs.iter().zip(out.iter_mut()) {
            *slot = self.mac_block(*input, tweak);
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
            return self.sweep_pair(inputs, tweak_a, tweak_b, out_a, out_b);
        }
        self.eval_blocks(inputs, tweak_a, out_a);
        self.eval_blocks(inputs, tweak_b, out_b);
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

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// NIST FIPS 180-4 "abc" vector.
    #[test]
    fn sha256_abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    /// Empty-message vector.
    #[test]
    fn sha256_empty() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    /// Two-block message vector (448-bit message, FIPS 180-4).
    #[test]
    fn sha256_two_blocks() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    /// RFC 4231 test case 2 for HMAC-SHA-256.
    #[test]
    fn hmac_rfc4231_case2() {
        let mac = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn prf_properties() {
        let prf = Sha256Prf::with_fixed_key();
        let x = Block128::from_u128(5);
        assert_eq!(prf.eval_block(x, 0), prf.eval_block(x, 0));
        assert_ne!(prf.eval_block(x, 0), prf.eval_block(x, 1));
        assert_eq!(prf.kind(), PrfKind::Sha256);
    }

    /// The midstate fast path must match the generic byte-oriented HMAC.
    #[test]
    fn midstate_path_matches_generic_hmac() {
        let key = *b"gpu-pir-sha256-prf-fixed-key!!!!";
        let prf = Sha256Prf::new(key);
        for (i, tweak) in [
            (0u128, 0u64),
            (1, 1),
            (u128::MAX, 7),
            (0xdead_beef, u64::MAX),
        ] {
            let input = Block128::from_u128(i);
            let mut message = [0u8; 24];
            message[..16].copy_from_slice(&input.to_le_bytes());
            message[16..].copy_from_slice(&tweak.to_le_bytes());
            let mac = hmac_sha256(&key, &message);
            let mut expected = [0u8; 16];
            expected.copy_from_slice(&mac[..16]);
            assert_eq!(
                prf.eval_block(input, tweak),
                Block128::from_le_bytes(expected)
            );
        }
    }
}
