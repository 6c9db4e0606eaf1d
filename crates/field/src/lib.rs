//! Arithmetic substrate for DPF-based private information retrieval.
//!
//! The DPF construction of Gilboa–Ishai (the one accelerated by the paper)
//! manipulates three kinds of values:
//!
//! * [`Block128`] — 128-bit pseudorandom seeds flowing through the GGM tree.
//! * [`Ring128`] / [`RingElement`] — additive shares in the ring `Z_{2^128}`
//!   (the "conversion" of a leaf seed into a group element).
//! * `u32` lanes — embedding-table payloads, additively shared in `Z_{2^32}`.
//!
//! The crate also provides share splitting ([`share_lanes`], [`share_ring`])
//! for turning values into two additive shares, share vectors
//! ([`LaneVector`], [`IndicatorShares`] one-hot indicator shares), and the
//! share-weighted matrix–vector products ([`matvec_accumulate`]) the PIR
//! servers compute against the embedding table.
//!
//! # Example
//!
//! ```rust
//! use pir_field::{Block128, Ring128};
//!
//! let a = Block128::from_u128(0xdead_beef);
//! let b = Block128::from_u128(0x1234_5678);
//! assert_eq!((a ^ b).as_u128(), 0xdead_beef ^ 0x1234_5678);
//!
//! let x = Ring128::new(u128::MAX);
//! let y = Ring128::new(1);
//! assert_eq!((x + y).value(), 0); // wraps mod 2^128
//! ```

// Unsafe code is denied crate-wide; the only opt-outs are the per-arch SIMD
// modules in `simd.rs`, which are reachable solely through runtime feature
// detection, and `Secret`'s two slice views, which rest on its
// `#[repr(transparent)]`.
#![deny(unsafe_code)]
// Where unsafe is re-allowed, every unsafe operation inside an `unsafe fn`
// must still sit in an explicit `unsafe {}` block with its own SAFETY
// justification.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
#![warn(missing_docs)]

mod block;
mod lane_rows;
mod matrix;
mod ring;
mod secret;
mod share;
pub mod simd;
mod vector;

pub use block::Block128;
pub use lane_rows::AtomicLaneRows;
pub use matrix::{
    matvec_accumulate, matvec_accumulate_keys, matvec_accumulate_lanes, matvec_shares, ShareMatrix,
    CHUNK_ROWS,
};
pub use ring::{Ring128, RingElement};
pub use secret::{Secret, Word};
pub use share::{reconstruct_lanes, reconstruct_ring, share_lanes, share_ring, AdditiveShare};
pub use simd::SimdBackend;
pub use vector::{IndicatorShares, LaneVector};

/// Number of bytes in one `u32` payload lane.
pub const LANE_BYTES: usize = 4;

/// Convert a byte length into the number of `u32` lanes required to hold it.
///
/// Entry sizes in the paper range from 64 B to 1 KiB; payloads are always
/// padded up to a whole number of lanes.
///
/// # Example
///
/// ```rust
/// assert_eq!(pir_field::lanes_for_bytes(128), 32);
/// assert_eq!(pir_field::lanes_for_bytes(130), 33);
/// assert_eq!(pir_field::lanes_for_bytes(0), 0);
/// ```
#[must_use]
pub const fn lanes_for_bytes(bytes: usize) -> usize {
    bytes.div_ceil(LANE_BYTES)
}
