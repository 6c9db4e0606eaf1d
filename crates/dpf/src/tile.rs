//! The frontier tile and the host run width.
//!
//! The level-synchronous frontier engine sweeps each tree level in tiles of
//! [`FRONTIER_TILE`] nodes: large enough to amortize per-sweep setup (key
//! schedules, SIMD dispatch), small enough that the two raw sweep outputs
//! (2 × 16 B per node) stay resident in L1 while the correction pass
//! (`GgmPrg::correct_frontier`) consumes them. It is a constant: `LevelByLevel` over 2^16 leaves reads
//! within 3 % of itself at 128, 256 and 512 for AES, ChaCha20 and SipHash.
//!
//! The memory-bounded strategy expands `HOST_FRONTIER_LEAVES`-leaf runs
//! whatever its chunk `K` (it accounts for `K`, see `strategy`), so the
//! deployed `K = 128` sweeps levels of up to 1 024 nodes — four tiles — on
//! the host. The assertion next to `SchedulerConfig::default` ties the two
//! constants together.

use pir_prf::{GgmPrg, PrfKind};

/// Nodes expanded per PRF sweep inside one level. A multiple of 64, so
/// every tile's packed parent bits start a word and its children's bits fill
/// words no other tile writes: each tile is one call of the correction pass.
pub const FRONTIER_TILE: usize = 256;

const _: () = assert!(FRONTIER_TILE.is_multiple_of(64));

/// Leaves per host level-by-level run of the memory-bounded strategy (or the
/// chunk, if larger). A 2^16-leaf key restarts from a lone node 32 times
/// instead of 512, and the runs' 8-node and wider levels fill the 16-block
/// VAES pair sweep; the shares, chunking and counters stay those of `K`.
pub(crate) const HOST_FRONTIER_LEAVES: usize = 2048;

// A host run is aligned and no longer than a table chunk, so it lies in one
// copy-on-write chunk and its keys' lockstep sweep reads one slice.
const _: () = assert!(pir_field::CHUNK_ROWS.is_multiple_of(HOST_FRONTIER_LEAVES));

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
