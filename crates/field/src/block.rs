//! 128-bit blocks used as PRG seeds in the GGM tree.

use core::fmt;
use core::ops::{BitAnd, BitOr, BitXor, BitXorAssign, Not};

use rand::Rng;
use serde::{Deserialize, Serialize};

/// A 128-bit block, the unit of pseudorandomness in the DPF tree.
///
/// Blocks support the bitwise operations required by the DPF key schedule
/// (XOR for applying correction words, masking for extracting control bits)
/// and conversion to [`crate::Ring128`] for the final output layer.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Default, PartialOrd, Ord, Serialize, Deserialize)]
#[repr(transparent)] // SIMD sweeps reinterpret &[Block128] as raw 16-byte lanes
pub struct Block128(u128);

impl Block128 {
    /// The all-zero block.
    pub const ZERO: Self = Self(0);

    /// Create a block from a `u128` value.
    ///
    /// ```rust
    /// # use pir_field::Block128;
    /// assert_eq!(Block128::from_u128(7).as_u128(), 7);
    /// ```
    #[must_use]
    pub const fn from_u128(value: u128) -> Self {
        Self(value)
    }

    /// View the block as a `u128`.
    #[must_use]
    pub const fn as_u128(self) -> u128 {
        self.0
    }

    /// Create a block from little-endian bytes.
    #[must_use]
    pub const fn from_le_bytes(bytes: [u8; 16]) -> Self {
        Self(u128::from_le_bytes(bytes))
    }

    /// Serialize the block into little-endian bytes.
    #[must_use]
    pub const fn to_le_bytes(self) -> [u8; 16] {
        self.0.to_le_bytes()
    }

    /// Build a block from two 64-bit halves (low, high).
    #[must_use]
    pub const fn from_halves(low: u64, high: u64) -> Self {
        Self((high as u128) << 64 | low as u128)
    }

    /// Split the block into (low, high) 64-bit halves.
    #[must_use]
    pub const fn halves(self) -> (u64, u64) {
        (self.0 as u64, (self.0 >> 64) as u64)
    }

    /// Sample a uniformly random block from the supplied RNG.
    pub fn random<R: Rng + ?Sized>(rng: &mut R) -> Self {
        Self(rng.gen())
    }

    /// Extract the least-significant bit as a boolean control bit.
    ///
    /// ```rust
    /// # use pir_field::Block128;
    /// assert!(Block128::from_u128(3).lsb());
    /// assert!(!Block128::from_u128(2).lsb());
    /// ```
    #[must_use]
    pub const fn lsb(self) -> bool {
        self.0 & 1 == 1
    }

    /// Return the block with its least-significant bit cleared.
    #[must_use]
    pub const fn with_cleared_lsb(self) -> Self {
        Self(self.0 & (u128::MAX - 1))
    }

    /// XOR in `other` only when `condition` is true, in a branch-free way.
    ///
    /// This mirrors how GPU threads apply correction words: every lane
    /// performs the same instruction with a mask derived from the control bit.
    #[must_use]
    pub const fn xor_if(self, condition: bool, other: Self) -> Self {
        let mask = (condition as u128).wrapping_neg();
        Self(self.0 ^ (other.0 & mask))
    }

    /// Constant-time equality check (no early exit on differing bytes).
    #[must_use]
    pub fn ct_eq(self, other: Self) -> bool {
        let diff = self.0 ^ other.0;
        let folded = (diff | diff.wrapping_neg()) >> 127;
        folded == 0
    }
}

impl fmt::Debug for Block128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Block128(0x{:032x})", self.0)
    }
}

impl fmt::Display for Block128 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:032x}", self.0)
    }
}

impl From<u128> for Block128 {
    #[inline]
    fn from(value: u128) -> Self {
        Self(value)
    }
}

impl From<Block128> for u128 {
    #[inline]
    fn from(value: Block128) -> Self {
        value.0
    }
}

impl From<[u8; 16]> for Block128 {
    fn from(bytes: [u8; 16]) -> Self {
        Self::from_le_bytes(bytes)
    }
}

impl BitXor for Block128 {
    type Output = Self;
    #[inline]
    fn bitxor(self, rhs: Self) -> Self {
        Self(self.0 ^ rhs.0)
    }
}

impl BitXorAssign for Block128 {
    #[inline]
    fn bitxor_assign(&mut self, rhs: Self) {
        self.0 ^= rhs.0;
    }
}

impl BitAnd for Block128 {
    type Output = Self;
    #[inline]
    fn bitand(self, rhs: Self) -> Self {
        Self(self.0 & rhs.0)
    }
}

impl BitOr for Block128 {
    type Output = Self;
    #[inline]
    fn bitor(self, rhs: Self) -> Self {
        Self(self.0 | rhs.0)
    }
}

impl Not for Block128 {
    type Output = Self;
    #[inline]
    fn not(self) -> Self {
        Self(!self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn roundtrip_bytes() {
        let block = Block128::from_u128(0x0123_4567_89ab_cdef_0011_2233_4455_6677);
        assert_eq!(Block128::from_le_bytes(block.to_le_bytes()), block);
    }

    #[test]
    fn halves_roundtrip() {
        let block = Block128::from_halves(0xdead_beef, 0xcafe_babe);
        assert_eq!(block.halves(), (0xdead_beef, 0xcafe_babe));
    }

    #[test]
    fn lsb_and_clear() {
        let block = Block128::from_u128(0b1011);
        assert!(block.lsb());
        assert!(!block.with_cleared_lsb().lsb());
        assert_eq!(block.with_cleared_lsb().as_u128(), 0b1010);
    }

    #[test]
    fn xor_if_behaves_like_branch() {
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..100 {
            let a = Block128::random(&mut rng);
            let b = Block128::random(&mut rng);
            assert_eq!(a.xor_if(true, b), a ^ b);
            assert_eq!(a.xor_if(false, b), a);
        }
    }

    #[test]
    fn constant_time_eq_matches_eq() {
        let mut rng = StdRng::seed_from_u64(13);
        for _ in 0..100 {
            let a = Block128::random(&mut rng);
            let b = Block128::random(&mut rng);
            assert_eq!(a.ct_eq(b), a == b);
            assert!(a.ct_eq(a));
        }
    }

    #[test]
    fn debug_is_not_empty() {
        assert!(!format!("{:?}", Block128::ZERO).is_empty());
        assert!(!format!("{}", Block128::from_u128(u128::MAX)).is_empty());
    }

    #[test]
    fn bit_ops() {
        let a = Block128::from_u128(0b1100);
        let b = Block128::from_u128(0b1010);
        assert_eq!((a & b).as_u128(), 0b1000);
        assert_eq!((a | b).as_u128(), 0b1110);
        assert_eq!((!Block128::ZERO).as_u128(), u128::MAX);
    }
}
