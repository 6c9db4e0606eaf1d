//! Key material that code cannot branch on, index by or compare.

use core::fmt;
use core::ops::{Add, BitAnd, BitXor, BitXorAssign, Neg, Not, Shl, Shr, Sub};

use crate::{Block128, Ring128};

/// A word of key material: a DPF's root seed, node seeds, correction words
/// and control bits.
///
/// A two-server PIR server must learn nothing about the index a key hides,
/// so it may not branch on key material or index memory by it. This type
/// gives it nothing to branch on: no `PartialEq`, `Eq`, `Ord` or `Hash`, a
/// `Debug` that prints `Secret(..)`, no serde, and no `bool` out. What it
/// offers is XOR, AND, NOT, shifts by a public amount, [`Secret::select`]
/// and [`Secret::lsb_mask`] (a mask, never a `bool`), the idiom of the
/// `subtle` crate's `Choice` and `ConditionallySelectable`; plus wrapping
/// `+`, `-` and negation on a `Secret<Ring128>`.
///
/// Raw access is [`Secret::expose`], [`Secret::expose_slice`] and
/// [`Secret::expose_slice_mut`]. `clippy.toml` lists all three under
/// `disallowed-methods`, so each call site states why with
/// `#[expect(clippy::disallowed_methods, reason = "…")]`: a SIMD kernel's
/// slices, once per call; a leaf share, which is the evaluation's output;
/// the wire encoding of a key. `#[repr(transparent)]` makes a slice view
/// free.
///
/// A branchless select compiles:
///
/// ```rust
/// use pir_field::{Block128, Secret};
/// let seed = Secret::new(Block128::from_u128(0b1011));
/// let cw = Secret::new(Block128::from_u128(0xf0));
/// let corrected = seed ^ (cw & seed.lsb_mask());
/// # #[expect(clippy::disallowed_methods, reason = "checks the doctest's result")]
/// # let raw = corrected.expose();
/// # assert_eq!(raw, Block128::from_u128(0xfb));
/// ```
///
/// A branch on a secret does not:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn eval(seed: Secret<u64>) -> u8 {
///     if seed & Secret::new(1) == Secret::new(1) { 1 } else { 0 }
/// }
/// ```
///
/// Nor a branch on a local derived from one, nor one on its mask:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn eval(seed: Secret<u64>) -> u8 {
///     let bit = (seed >> 7) & Secret::new(1);
///     let hidden = bit ^ Secret::new(1);
///     if hidden.lsb_mask::<bool>() { 1 } else { 0 }
/// }
/// ```
///
/// Nor a `match` on a secret:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn f(alpha: Secret<bool>) -> u8 {
///     match alpha { true => 1, false => 2 }
/// }
/// ```
///
/// Nor a `for` loop whose binding is a secret and then steers a branch:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn f(seed_bits: &[Secret<bool>]) -> u8 {
///     let mut n = 0;
///     for b in seed_bits {
///         if *b { n += 1; }
///     }
///     n
/// }
/// ```
///
/// Nor indexing by a secret:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn eval(table: &[u8], key: Secret<usize>) -> u8 {
///     table[key]
/// }
/// ```
///
/// Nor a branch on a secret field of a public base:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// struct Correction { t_left: Secret<bool> }
/// fn f(cw: &Correction) -> u8 { if cw.t_left { 1 } else { 0 } }
/// ```
///
/// Nor reading a secret through its field, or comparing two secrets:
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn f(a: Secret<u64>) -> u64 { a.0 }
/// ```
///
/// ```compile_fail
/// # use pir_field::Secret;
/// fn f(a: Secret<u64>, b: Secret<u64>) -> bool { a == b }
/// ```
#[derive(Clone, Copy, Default)]
#[repr(transparent)] // expose_slice reinterprets &[Secret<T>] as &[T]
pub struct Secret<T>(T);

impl<T> Secret<T> {
    /// Wrap a value as key material.
    #[inline(always)]
    pub const fn new(value: T) -> Self {
        Self(value)
    }

    /// The raw value. Listed in `disallowed-methods`: each call site carries
    /// an `#[expect]` that says why the value may leave the type there.
    #[inline(always)]
    pub fn expose(self) -> T {
        self.0
    }

    /// The raw values of a slice, free (the type is transparent). Listed in
    /// `disallowed-methods`, like [`Secret::expose`].
    #[inline(always)]
    #[allow(unsafe_code)]
    pub fn expose_slice(values: &[Self]) -> &[T] {
        // SAFETY: `Secret<T>` is `#[repr(transparent)]` over `T`, so a slice
        // of one has the layout of a slice of the other; the borrow is kept.
        unsafe { core::slice::from_raw_parts(values.as_ptr().cast::<T>(), values.len()) }
    }

    /// The raw values of a mutable slice, free. Listed in
    /// `disallowed-methods`, like [`Secret::expose`].
    #[inline(always)]
    #[allow(unsafe_code)]
    pub fn expose_slice_mut(values: &mut [Self]) -> &mut [T] {
        // SAFETY: as in `expose_slice`; the exclusive borrow is kept.
        unsafe { core::slice::from_raw_parts_mut(values.as_mut_ptr().cast::<T>(), values.len()) }
    }
}

/// A value a [`Secret`] can mask and select: bitwise operations plus the
/// spread of a least-significant bit into a whole-word mask.
pub trait Word: Copy {
    /// Bitwise XOR.
    fn xor(self, other: Self) -> Self;
    /// Bitwise AND.
    fn and(self, other: Self) -> Self;
    /// Bitwise NOT.
    fn not(self) -> Self;
    /// The least-significant bit, 0 or 1.
    fn lsb(self) -> u64;
    /// All ones when `bit` is 1, all zeros when it is 0.
    fn spread(bit: u64) -> Self;
}

/// `Word` for a type with the bitwise operators, given its `lsb` and
/// `spread`.
macro_rules! word {
    ($($ty:ty: |$x:ident| $lsb:expr, |$bit:ident| $spread:expr;)*) => {$(
        impl Word for $ty {
            #[inline(always)]
            fn xor(self, other: Self) -> Self { self ^ other }
            #[inline(always)]
            fn and(self, other: Self) -> Self { self & other }
            #[inline(always)]
            fn not(self) -> Self { !self }
            #[inline(always)]
            fn lsb(self) -> u64 { let $x = self; $lsb }
            #[inline(always)]
            fn spread($bit: u64) -> Self { $spread }
        }
    )*};
}

word! {
    bool: |x| u64::from(x), |bit| bit & 1 == 1;
    u32: |x| u64::from(x & 1), |bit| (bit as u32).wrapping_neg();
    u64: |x| x & 1, |bit| bit.wrapping_neg();
    u128: |x| (x & 1) as u64, |bit| u128::from(bit).wrapping_neg();
    Block128: |x| x.as_u128().lsb(), |bit| Block128::from_u128(u128::spread(bit));
}

impl Word for Ring128 {
    #[inline(always)]
    fn xor(self, other: Self) -> Self {
        Self::new(self.value() ^ other.value())
    }
    #[inline(always)]
    fn and(self, other: Self) -> Self {
        Self::new(self.value() & other.value())
    }
    #[inline(always)]
    fn not(self) -> Self {
        Self::new(!self.value())
    }
    #[inline(always)]
    fn lsb(self) -> u64 {
        self.value().lsb()
    }
    #[inline(always)]
    fn spread(bit: u64) -> Self {
        Self::new(u128::spread(bit))
    }
}

impl<T: Word> Secret<T> {
    /// All ones (in `U`) when this word's least-significant bit is set, all
    /// zeros otherwise: a control bit as a mask, computed without a branch.
    #[inline(always)]
    #[must_use]
    pub fn lsb_mask<U: Word>(self) -> Secret<U> {
        Secret(U::spread(self.0.lsb()))
    }

    /// `if_set` where `mask` is all ones, `if_clear` where it is all zeros,
    /// bit by bit, without a branch.
    #[inline(always)]
    #[must_use]
    pub fn select(mask: Self, if_set: Self, if_clear: Self) -> Self {
        if_clear ^ ((if_set ^ if_clear) & mask)
    }
}

impl<T> fmt::Debug for Secret<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Secret(..)")
    }
}

/// A bitwise operator on two secrets, through the `Word` method `$word`.
macro_rules! bitwise {
    ($($trait:ident::$method:ident => $word:ident;)*) => {$(
        impl<T: Word> $trait for Secret<T> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self { Self(self.0.$word(rhs.0)) }
        }
    )*};
}

bitwise! {
    BitXor::bitxor => xor;
    BitAnd::bitand => and;
}

impl<T: Word> BitXorAssign for Secret<T> {
    #[inline(always)]
    fn bitxor_assign(&mut self, rhs: Self) {
        self.0 = self.0.xor(rhs.0);
    }
}

impl<T: Word> Not for Secret<T> {
    type Output = Self;
    #[inline(always)]
    fn not(self) -> Self {
        Self(self.0.not())
    }
}

/// A shift by a public amount.
macro_rules! shift {
    ($($trait:ident::$method:ident, $op:tt;)*) => {$(
        impl<T: $trait<u32, Output = T>> $trait<u32> for Secret<T> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, amount: u32) -> Self { Self(self.0 $op amount) }
        }
    )*};
}

shift! {
    Shl::shl, <<;
    Shr::shr, >>;
}

/// Wrapping ring arithmetic on two secret ring elements.
macro_rules! ring {
    ($($trait:ident::$method:ident, $op:tt;)*) => {$(
        impl $trait for Secret<Ring128> {
            type Output = Self;
            #[inline(always)]
            fn $method(self, rhs: Self) -> Self { Self(self.0 $op rhs.0) }
        }
    )*};
}

ring! {
    Add::add, +;
    Sub::sub, -;
}

impl Neg for Secret<Ring128> {
    type Output = Self;
    #[inline(always)]
    fn neg(self) -> Self {
        Self(-self.0)
    }
}

impl Secret<Ring128> {
    /// The low 32 bits, the lane width of a share ([`Ring128::to_lane`]).
    #[inline(always)]
    #[must_use]
    pub fn to_lane(self) -> Secret<u32> {
        Secret(self.0.to_lane())
    }
}

/// The DPF `convert` map of a seed, kept secret.
impl From<Secret<Block128>> for Secret<Ring128> {
    #[inline(always)]
    fn from(seed: Secret<Block128>) -> Self {
        Self(Ring128::from(seed.0))
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests read results back to compare them"
)]
mod tests {
    use super::*;

    #[test]
    fn lsb_mask_spreads_the_low_bit_to_every_width() {
        let odd = Secret::new(0b1011u64);
        let even = Secret::new(0b1010u64);
        assert_eq!(odd.lsb_mask::<u32>().expose(), u32::MAX);
        assert_eq!(even.lsb_mask::<u32>().expose(), 0);
        assert!(odd.lsb_mask::<bool>().expose());
        assert_eq!(
            odd.lsb_mask::<Block128>().expose(),
            Block128::from_u128(u128::MAX)
        );
        assert_eq!(even.lsb_mask::<Ring128>().expose(), Ring128::ZERO);
    }

    #[test]
    fn select_takes_each_bit_from_the_side_its_mask_names() {
        let (a, b) = (Secret::new(0xf0u64), Secret::new(0x0fu64));
        assert_eq!(Secret::select(Secret::new(u64::MAX), a, b).expose(), 0xf0);
        assert_eq!(Secret::select(Secret::new(0), a, b).expose(), 0x0f);
        assert_eq!(Secret::select(Secret::new(0x3c), a, b).expose(), 0x33);
    }

    #[test]
    fn slice_views_read_and_write_in_place() {
        let mut words = [Secret::new(1u64), Secret::new(2)];
        assert_eq!(Secret::expose_slice(&words), &[1, 2]);
        Secret::expose_slice_mut(&mut words)[1] = 7;
        assert_eq!(words[1].expose(), 7);
    }

    #[test]
    fn ring_arithmetic_wraps() {
        let max = Secret::new(Ring128::new(u128::MAX));
        let one = Secret::new(Ring128::ONE);
        assert_eq!((max + one).expose(), Ring128::ZERO);
        assert_eq!((-one + one).expose(), Ring128::ZERO);
        assert_eq!((one - max).expose(), Ring128::new(2));
        assert_eq!(max.to_lane().expose(), u32::MAX);
    }
}
