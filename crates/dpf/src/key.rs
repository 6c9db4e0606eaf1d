//! DPF key material and domain parameters.

use pir_field::{Block128, Ring128};
use pir_prf::LevelCorrection;
use serde::{Deserialize, Serialize};

/// Static parameters of a DPF: the table size it addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DpfParams {
    /// Number of addressable entries (may be any positive size; the tree is
    /// padded to the next power of two).
    pub domain_size: u64,
    /// Tree depth: `ceil(log2(domain_size))`.
    pub domain_bits: u32,
}

impl DpfParams {
    /// Parameters for a table with `domain_size` entries.
    ///
    /// # Panics
    ///
    /// Panics if `domain_size` is zero.
    #[must_use]
    pub fn for_domain(domain_size: u64) -> Self {
        assert!(domain_size > 0, "domain must contain at least one entry");
        let domain_bits = if domain_size <= 1 {
            0
        } else {
            64 - (domain_size - 1).leading_zeros()
        };
        Self {
            domain_size,
            domain_bits,
        }
    }

    /// Number of leaves in the (padded) evaluation tree.
    #[must_use]
    pub fn padded_size(&self) -> u64 {
        1u64 << self.domain_bits
    }

    /// Serialized size of any key generated for these parameters, in bytes
    /// (see [`DpfKey::size_bytes`]). The residency rule uses this to size
    /// key uploads before any key of the batch exists.
    #[must_use]
    pub fn key_size_bytes(&self) -> u64 {
        1 + 16 + u64::from(self.domain_bits) * 17 + 16
    }
}

/// One party's DPF key.
///
/// The key is what the client uploads to a server: a root seed, one
/// correction word per tree level and a final output correction word. Its
/// size is `O(λ·log L)` — the communication advantage of DPF-PIR over the
/// naive `O(L)` scheme.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DpfKey {
    /// Which server this key is for (0 or 1).
    pub party: u8,
    /// Domain parameters the key was generated for.
    pub params: DpfParams,
    /// Root seed.
    pub root_seed: Block128,
    /// Per-level correction words (`params.domain_bits` of them).
    pub levels: Vec<LevelCorrection>,
    /// Final output correction word in `Z_{2^128}`.
    pub final_cw: Ring128,
}

impl DpfKey {
    /// Initial control bit: party 0 starts at 0, party 1 at 1.
    #[must_use]
    pub fn initial_control_bit(&self) -> bool {
        self.party == 1
    }

    /// Serialized size of the key in bytes, the quantity the paper reports as
    /// per-query communication (e.g. Table 4's "Bytes" column).
    ///
    /// Layout: 16-byte root seed, 17 bytes per level (16-byte seed correction
    /// plus 1 byte carrying the two control-bit corrections), 16-byte final
    /// correction word and 1 byte of header (party + depth).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        1 + 16 + self.levels.len() * 17 + 16
    }

    /// Tree depth.
    #[must_use]
    pub fn depth(&self) -> u32 {
        self.params.domain_bits
    }

    /// Serialize the key into the wire layout [`DpfKey::size_bytes`]
    /// describes: party byte, 16-byte root seed, 17 bytes per level (seed
    /// correction + control-bit byte), 16-byte final correction word.
    ///
    /// This is the payload a device backend physically copies when keys are
    /// uploaded for a batch.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.push(self.party);
        out.extend_from_slice(&u128::from(self.root_seed).to_le_bytes());
        for level in &self.levels {
            out.extend_from_slice(&u128::from(level.seed).to_le_bytes());
            out.push(u8::from(level.t_left) | (u8::from(level.t_right) << 1));
        }
        out.extend_from_slice(&u128::from(self.final_cw).to_le_bytes());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_round_up_to_power_of_two() {
        let params = DpfParams::for_domain(1000);
        assert_eq!(params.domain_bits, 10);
        assert_eq!(params.padded_size(), 1024);

        let exact = DpfParams::for_domain(1024);
        assert_eq!(exact.domain_bits, 10);
        assert_eq!(exact.padded_size(), 1024);
    }

    #[test]
    fn tiny_domains() {
        assert_eq!(DpfParams::for_domain(1).domain_bits, 0);
        assert_eq!(DpfParams::for_domain(1).padded_size(), 1);
        assert_eq!(DpfParams::for_domain(2).domain_bits, 1);
        assert_eq!(DpfParams::for_domain(3).domain_bits, 2);
    }

    #[test]
    #[should_panic(expected = "at least one entry")]
    fn zero_domain_rejected() {
        let _ = DpfParams::for_domain(0);
    }

    #[test]
    fn serialization_matches_declared_size() {
        for bits in [0u32, 1, 7, 20] {
            let params = DpfParams::for_domain(1u64 << bits);
            let key = DpfKey {
                party: 1,
                params,
                root_seed: Block128::from(7u128),
                levels: vec![
                    LevelCorrection {
                        seed: Block128::from(9u128),
                        t_left: true,
                        t_right: false,
                    };
                    bits as usize
                ],
                final_cw: Ring128::from(3u128),
            };
            let bytes = key.to_bytes();
            assert_eq!(bytes.len(), key.size_bytes());
            assert_eq!(bytes.len() as u64, params.key_size_bytes());
            assert_eq!(bytes[0], 1);
        }
    }

    #[test]
    fn key_size_scales_logarithmically() {
        let make = |bits: u32| DpfKey {
            party: 0,
            params: DpfParams::for_domain(1 << bits),
            root_seed: Block128::ZERO,
            levels: vec![
                LevelCorrection {
                    seed: Block128::ZERO,
                    t_left: false,
                    t_right: false,
                };
                bits as usize
            ],
            final_cw: Ring128::ZERO,
        };
        let small = make(14).size_bytes();
        let large = make(24).size_bytes();
        assert_eq!(large - small, 10 * 17);
        // ~400 bytes for a 16M-entry table: O(log L), not O(L).
        assert!(large < 512);
    }
}
