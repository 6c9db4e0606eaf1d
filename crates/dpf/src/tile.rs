//! The frontier tile.
//!
//! The level-synchronous frontier engine sweeps each tree level in tiles of
//! [`FRONTIER_TILE`] nodes: large enough to amortize per-sweep setup (key
//! schedules, SIMD dispatch), small enough that the two raw sweep outputs
//! (2 × 16 B per node) stay resident in L1 while the fused correction pass
//! consumes them. It is a constant: `LevelByLevel` over 2^16 leaves reads
//! within 3 % of itself at 128, 256 and 512 for AES, ChaCha20 and SipHash,
//! and the serving path never sees it (its widest level is below one tile —
//! the assertion next to `SchedulerConfig::default`).

use pir_prf::{GgmPrg, PrfKind};

/// Nodes expanded per PRF sweep inside one level. A power of two ≥ 32: the
/// fused correction pass composes packed control-bit words in 32-node groups
/// and requires tiles to preserve that alignment.
pub const FRONTIER_TILE: usize = 256;

const _: () = assert!(FRONTIER_TILE.is_power_of_two() && FRONTIER_TILE >= 32);

/// [`FRONTIER_TILE`], whatever the PRF — kept as a function because
/// `benchmark/` imports it.
#[must_use]
pub fn frontier_tile(_prg: &GgmPrg) -> usize {
    FRONTIER_TILE
}

/// [`FRONTIER_TILE`], whatever the PRF and backend — kept as a function
/// because `benchmark/` imports it.
#[must_use]
pub fn reported_frontier_tile(_kind: PrfKind, _backend: &str) -> Option<usize> {
    Some(FRONTIER_TILE)
}
