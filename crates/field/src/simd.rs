//! Runtime-dispatched SIMD backend for the field hot loops.
//!
//! This module is the dispatch root of the host-side vectorization layer
//! (modeled on Expander's dual-backend field pattern: one portable entry
//! point, per-arch implementations behind it). [`SimdBackend`] names a lane
//! implementation; [`SimdBackend::active`] resolves the best one supported by
//! the running CPU exactly once per process, honoring the `PIR_PRF_BACKEND`
//! environment override. Every helper here has an always-compiled scalar
//! implementation that is the semantic reference — the vector paths must be
//! (and are, by tests) bit-identical to it for every input length, including
//! lengths that are not a multiple of the vector width.
//!
//! The same backend value also selects the vectorized PRF sweeps in
//! `pir-prf`; keeping the enum here (the bottom crate of the stack) lets
//! field, prf, dpf and serve all report one consistent backend label.

use std::sync::OnceLock;

use crate::{Block128, LaneVector, Ring128};

/// Environment variable that overrides SIMD backend auto-detection.
///
/// Recognised values: `scalar` (force the portable implementation), `avx2`,
/// `neon` (use that backend if the host supports it, otherwise fall back to
/// scalar), and `auto`/empty (detect). Unknown values fall back to `auto`.
pub const BACKEND_ENV: &str = "PIR_PRF_BACKEND";

/// A host SIMD implementation for the PRF/field hot loops.
///
/// Backends that are not supported by the current host degrade to
/// [`SimdBackend::Scalar`] at construction time (see
/// [`SimdBackend::supported_or_scalar`]), so holding a backend value is a
/// proof that its code paths are safe to execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimdBackend {
    /// Portable scalar implementation, always available on every target.
    Scalar,
    /// x86_64 AVX2 (plus AES-NI for the AES-128 PRF).
    Avx2,
    /// aarch64 NEON.
    Neon,
}

impl SimdBackend {
    /// Short lowercase label used in kernel names, telemetry and benches.
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            SimdBackend::Scalar => "scalar",
            SimdBackend::Avx2 => "avx2",
            SimdBackend::Neon => "neon",
        }
    }

    /// Whether the running CPU can execute this backend.
    #[must_use]
    pub fn is_supported(self) -> bool {
        match self {
            SimdBackend::Scalar => true,
            SimdBackend::Avx2 => {
                #[cfg(target_arch = "x86_64")]
                {
                    // The PRF sweeps additionally use AES-NI (AES-128) and
                    // SSSE3 byte shuffles; require the full set so one
                    // backend value covers every primitive.
                    std::arch::is_x86_feature_detected!("avx2")
                        && std::arch::is_x86_feature_detected!("aes")
                        && std::arch::is_x86_feature_detected!("ssse3")
                }
                #[cfg(not(target_arch = "x86_64"))]
                {
                    false
                }
            }
            SimdBackend::Neon => cfg!(target_arch = "aarch64"),
        }
    }

    /// This backend if the host supports it, otherwise [`SimdBackend::Scalar`].
    #[must_use]
    pub fn supported_or_scalar(self) -> Self {
        if self.is_supported() {
            self
        } else {
            SimdBackend::Scalar
        }
    }

    /// The best backend the running CPU supports, ignoring the environment.
    #[must_use]
    pub fn detect() -> Self {
        if SimdBackend::Avx2.is_supported() {
            SimdBackend::Avx2
        } else if SimdBackend::Neon.is_supported() {
            SimdBackend::Neon
        } else {
            SimdBackend::Scalar
        }
    }

    /// The process-wide active backend: [`SimdBackend::detect`] filtered
    /// through the [`BACKEND_ENV`] override, resolved once and cached.
    #[must_use]
    pub fn active() -> Self {
        static ACTIVE: OnceLock<SimdBackend> = OnceLock::new();
        *ACTIVE.get_or_init(|| {
            match std::env::var(BACKEND_ENV) {
                Ok(value) => match value.trim().to_ascii_lowercase().as_str() {
                    "scalar" => SimdBackend::Scalar,
                    "avx2" => SimdBackend::Avx2.supported_or_scalar(),
                    "neon" => SimdBackend::Neon.supported_or_scalar(),
                    // "auto", empty, and unknown values all auto-detect.
                    _ => SimdBackend::detect(),
                },
                Err(_) => SimdBackend::detect(),
            }
        })
    }

    /// The distinct backends exercisable on this host: always
    /// [`SimdBackend::Scalar`], plus the detected native backend when it is
    /// not scalar. Parity tests iterate this to cover both dispatch paths in
    /// one build.
    #[must_use]
    pub fn candidates() -> &'static [SimdBackend] {
        static CANDIDATES: OnceLock<Vec<SimdBackend>> = OnceLock::new();
        CANDIDATES.get_or_init(|| {
            let mut list = vec![SimdBackend::Scalar];
            let native = SimdBackend::detect();
            if native != SimdBackend::Scalar {
                list.push(native);
            }
            list
        })
    }
}

/// `acc[i] = acc[i].wrapping_add(scale.wrapping_mul(row[i]))` for every lane,
/// under the process-wide active backend — one row's multiply-accumulate
/// ([`crate::LaneVector::add_scaled_assign`]). Sweeps over many rows go
/// through the chunk kernel behind [`crate::matvec_accumulate`] instead.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn accumulate_scaled(acc: &mut [u32], scale: u32, row: &[u32]) {
    accumulate_scaled_with(SimdBackend::active(), acc, scale, row);
}

/// [`accumulate_scaled`] with an explicit backend (tests and benches).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn accumulate_scaled_with(backend: SimdBackend, acc: &mut [u32], scale: u32, row: &[u32]) {
    assert_eq!(acc.len(), row.len(), "lane slices must match");
    match backend.supported_or_scalar() {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => avx2::accumulate_scaled(acc, scale, row),
        _ => accumulate_scaled_scalar(acc, scale, row),
    }
}

#[inline]
fn accumulate_scaled_scalar(acc: &mut [u32], scale: u32, row: &[u32]) {
    for (lane, value) in acc.iter_mut().zip(row) {
        *lane = lane.wrapping_add(scale.wrapping_mul(*value));
    }
}

/// A per-row weight of the table sweep: anything that reduces to the `u32`
/// lane the payload arithmetic multiplies by. The fused DPF kernel emits
/// `u32` lane weights directly; [`Ring128`] shares (tests, the unfused
/// baseline, the naive oracle) contribute their low 32 bits.
pub(crate) trait LaneWeight: Copy {
    /// The weight mod `2^32`.
    fn lane(self) -> u32;
}

impl LaneWeight for u32 {
    #[inline(always)]
    fn lane(self) -> u32 {
        self
    }
}

impl LaneWeight for Ring128 {
    #[inline(always)]
    fn lane(self) -> u32 {
        self.to_lane()
    }
}

/// For every key `g`: `accs[g][i] += Σ_r weights[g · n + r] ·
/// rows[r · lanes + i]` (wrapping; `lanes` is the accumulators' width,
/// `n = weights.len() / accs.len()` the chunk's row count), under the
/// process-wide active backend.
///
/// This is the table sweep of the fused DPF-matmul and of the naive oracle:
/// one dispatch per *chunk*, with the accumulator lanes held in vector
/// registers across the chunk's rows instead of being stored and re-loaded
/// per row, and each row loaded once for all the keys of a register tile. A
/// single key is the one-tile case.
///
/// # Panics
///
/// Panics if the accumulators differ in width, `weights` is not one chunk
/// per key, or `rows` is not one row of `lanes` lanes per chunk weight.
#[inline]
pub(crate) fn accumulate_rows<W: LaneWeight>(accs: &mut [LaneVector], weights: &[W], rows: &[u32]) {
    accumulate_rows_with(SimdBackend::active(), accs, weights, rows);
}

/// [`accumulate_rows`] with an explicit backend (tests).
pub(crate) fn accumulate_rows_with<W: LaneWeight>(
    backend: SimdBackend,
    accs: &mut [LaneVector],
    weights: &[W],
    rows: &[u32],
) {
    let keys = accs.len();
    let lanes = accs.first().map_or(0, LaneVector::len);
    assert!(
        accs.iter().all(|acc| acc.len() == lanes),
        "accumulators must share one width"
    );
    let chunk = weights.len().checked_div(keys).unwrap_or(0);
    assert_eq!(
        weights.len(),
        chunk * keys,
        "need one chunk of weights per key"
    );
    assert_eq!(
        rows.len(),
        chunk * lanes,
        "need one row of acc.len() lanes per weight"
    );
    if chunk == 0 || lanes == 0 {
        return;
    }
    match backend.supported_or_scalar() {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => avx2::accumulate_rows(accs, weights, rows),
        _ => accumulate_rows_scalar(accs, weights, rows),
    }
}

/// The reference: each key's chunk, row by row. The dispatcher has checked
/// the shapes and that there is at least one row and one lane.
fn accumulate_rows_scalar<W: LaneWeight>(accs: &mut [LaneVector], weights: &[W], rows: &[u32]) {
    let chunk = weights.len() / accs.len();
    for (acc, key_weights) in accs.iter_mut().zip(weights.chunks_exact(chunk)) {
        let lanes = acc.len();
        for (weight, row) in key_weights.iter().zip(rows.chunks_exact(lanes)) {
            accumulate_scaled_scalar(&mut acc.0, weight.lane(), row);
        }
    }
}

/// `acc[i] = acc[i].wrapping_add(row[i])` for every lane, under the
/// process-wide active backend (the replica/aggregator row-add).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_wrapping(acc: &mut [u32], row: &[u32]) {
    add_wrapping_with(SimdBackend::active(), acc, row);
}

/// [`add_wrapping`] with an explicit backend (tests and benches).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn add_wrapping_with(backend: SimdBackend, acc: &mut [u32], row: &[u32]) {
    assert_eq!(acc.len(), row.len(), "lane slices must match");
    match backend.supported_or_scalar() {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => avx2::add_wrapping(acc, row),
        _ => add_wrapping_scalar(acc, row),
    }
}

#[inline]
fn add_wrapping_scalar(acc: &mut [u32], row: &[u32]) {
    for (lane, value) in acc.iter_mut().zip(row) {
        *lane = lane.wrapping_add(*value);
    }
}

/// `out[i] ^= inputs[i]` for every block, under the process-wide active
/// backend — the Matyas–Meyer–Oseas feed-forward / correction-word pass.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_blocks_inplace(out: &mut [Block128], inputs: &[Block128]) {
    xor_blocks_inplace_with(SimdBackend::active(), out, inputs);
}

/// [`xor_blocks_inplace`] with an explicit backend (tests and benches).
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[inline]
pub fn xor_blocks_inplace_with(backend: SimdBackend, out: &mut [Block128], inputs: &[Block128]) {
    assert_eq!(out.len(), inputs.len(), "block slices must match");
    match backend.supported_or_scalar() {
        #[cfg(target_arch = "x86_64")]
        SimdBackend::Avx2 => avx2::xor_blocks_inplace(out, inputs),
        _ => xor_blocks_inplace_scalar(out, inputs),
    }
}

#[inline]
fn xor_blocks_inplace_scalar(out: &mut [Block128], inputs: &[Block128]) {
    for (slot, input) in out.iter_mut().zip(inputs) {
        *slot ^= *input;
    }
}

/// AVX2 implementations of the lane kernels.
///
/// Safety: every function in this module is compiled with
/// `#[target_feature(enable = "avx2")]` and must only be reached through a
/// [`SimdBackend::Avx2`] value, which (via `supported_or_scalar`) exists only
/// on hosts where AVX2 was detected at runtime.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_loadu_si256, _mm256_maskload_epi32,
        _mm256_maskstore_epi32, _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm256_xor_si256,
    };

    use super::LaneWeight;
    use crate::{Block128, LaneVector};

    #[inline]
    pub(super) fn accumulate_scaled(acc: &mut [u32], scale: u32, row: &[u32]) {
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { accumulate_scaled_impl(acc, scale, row) }
    }

    // SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_scaled_impl(acc: &mut [u32], scale: u32, row: &[u32]) {
        // SAFETY: i * 8 + 8 <= lanes == row.len(), so the unaligned
        // loads/stores stay inside the slices.
        unsafe {
            let lanes = acc.len();
            let chunks = lanes / 8;
            let scale_v = _mm256_set1_epi32(scale as i32);
            let acc_ptr = acc.as_mut_ptr();
            let row_ptr = row.as_ptr();
            for i in 0..chunks {
                let a = _mm256_loadu_si256(acc_ptr.add(i * 8).cast::<__m256i>());
                let r = _mm256_loadu_si256(row_ptr.add(i * 8).cast::<__m256i>());
                // _mm256_mullo_epi32 keeps the low 32 bits of each product —
                // exactly `wrapping_mul` — and _mm256_add_epi32 is wrapping_add.
                let sum = _mm256_add_epi32(a, _mm256_mullo_epi32(r, scale_v));
                _mm256_storeu_si256(acc_ptr.add(i * 8).cast::<__m256i>(), sum);
            }
            for i in chunks * 8..lanes {
                acc[i] = acc[i].wrapping_add(scale.wrapping_mul(row[i]));
            }
        }
    }

    /// `accs[g][i] += Σ_r weights[g · n + r] · rows[r · lanes + i]`; the safe
    /// dispatcher has checked that the accumulators share one width
    /// `lanes > 0`, that `weights.len() == accs.len() · n` with `n > 0`, and
    /// that `rows.len() == n · lanes`.
    #[inline]
    pub(super) fn accumulate_rows<W: LaneWeight>(
        accs: &mut [LaneVector],
        weights: &[W],
        rows: &[u32],
    ) {
        // SAFETY: reached only via a supported Avx2 backend value, and with
        // the shapes the dispatcher asserted.
        unsafe { accumulate_rows_impl(accs, weights, rows) }
    }

    /// Rows per pass of every register tile: 8 KiB of a 64-byte-row table,
    /// so the tiles after the first re-read the block from L1.
    const ROW_BLOCK: usize = 128;

    /// The chunk is swept in blocks of [`ROW_BLOCK`] rows. Within a block the
    /// lane dimension is cut into column blocks of 4, 2 or 1 whole vectors
    /// plus one masked sub-vector tail, and the keys into register tiles of
    /// eight accumulator vectors (2 keys × 4 vectors, 4 × 2, 8 × 1; smaller
    /// at the key tail). A tile keeps its accumulators in registers across
    /// the block's rows and loads each row vector once for all its keys.
    // SAFETY: caller must ensure AVX2 is available (`#[target_feature]`) and
    // the shapes `accumulate_rows` documents.
    #[target_feature(enable = "avx2")]
    unsafe fn accumulate_rows_impl<W: LaneWeight>(
        accs: &mut [LaneVector],
        weights: &[W],
        rows: &[u32],
    ) {
        let lanes = accs[0].len();
        let chunk = weights.len() / accs.len();
        let mut first = 0;
        while first < chunk {
            let block = Block {
                chunk,
                first,
                rows: (chunk - first).min(ROW_BLOCK),
            };
            let mut column = 0;
            // SAFETY: every column block below covers lanes [column, column
            // + 8·N) (or the `lanes - column < 8` masked tail) with column +
            // 8·N <= lanes, so per row r < chunk it touches rows[r·lanes +
            // column ..] strictly inside row r, and accs[g][column ..]
            // inside each accumulator.
            unsafe {
                while lanes - column >= 32 {
                    sweep_keys::<4, false, W>(accs, weights, rows, &block, column, 8);
                    column += 32;
                }
                if lanes - column >= 16 {
                    sweep_keys::<2, false, W>(accs, weights, rows, &block, column, 8);
                    column += 16;
                }
                if lanes - column >= 8 {
                    sweep_keys::<1, false, W>(accs, weights, rows, &block, column, 8);
                    column += 8;
                }
                if lanes > column {
                    sweep_keys::<1, true, W>(accs, weights, rows, &block, column, lanes - column);
                }
            }
            first += block.rows;
        }
    }

    /// The rows `first .. first + rows` of a `chunk`-row sweep.
    struct Block {
        chunk: usize,
        first: usize,
        rows: usize,
    }

    /// One column block of one row block, for every key: register tiles of
    /// up to eight accumulator vectors, `N` per key (`TAIL` and `live` as for
    /// [`sweep_tile`]).
    // SAFETY: as for `sweep_tile`, for every key.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_keys<const N: usize, const TAIL: bool, W: LaneWeight>(
        accs: &mut [LaneVector],
        weights: &[W],
        rows: &[u32],
        block: &Block,
        column: usize,
        live: usize,
    ) {
        let mut key = 0;
        // SAFETY: each tile covers keys [key, key + KT) with key + KT <=
        // accs.len(); the column and row bounds are the caller's.
        unsafe {
            while key < accs.len() {
                let left = accs.len() - key;
                key += if N == 1 && left >= 8 {
                    sweep_tile::<N, 8, TAIL, W>(accs, key, weights, rows, block, column, live)
                } else if N <= 2 && left >= 4 {
                    sweep_tile::<N, 4, TAIL, W>(accs, key, weights, rows, block, column, live)
                } else if left >= 2 {
                    sweep_tile::<N, 2, TAIL, W>(accs, key, weights, rows, block, column, live)
                } else {
                    sweep_tile::<N, 1, TAIL, W>(accs, key, weights, rows, block, column, live)
                };
            }
        }
    }

    /// One register tile: keys `key .. key + KT`, `N` accumulator vectors
    /// each starting at lane `column`, swept over the rows of `block`. In a
    /// `TAIL` block (the lane dimension's masked tail) the last vector of a
    /// key carries only `live` lanes; otherwise every vector is whole.
    /// Returns `KT`.
    // SAFETY: caller must ensure AVX2 is available, the shapes
    // `accumulate_rows` documents, `key + KT <= accs.len()`, `block.first +
    // block.rows <= block.chunk`, and `column + 8·(N − 1) + live <= lanes`
    // with `1 <= live <= 8`.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn sweep_tile<const N: usize, const KT: usize, const TAIL: bool, W: LaneWeight>(
        accs: &mut [LaneVector],
        key: usize,
        weights: &[W],
        rows: &[u32],
        block: &Block,
        column: usize,
        live: usize,
    ) -> usize {
        // Lane j of the mask has its sign bit set iff j < live; masked loads
        // read nothing (and fault on nothing) in the other lanes, masked
        // stores write nothing there.
        const RAMP: [i32; 16] = [-1, -1, -1, -1, -1, -1, -1, -1, 0, 0, 0, 0, 0, 0, 0, 0];
        let lanes = accs[key].len();
        // Accumulator pointers stay inside keys key .. key + KT, weight
        // pointers inside each key's chunk (first + r < chunk), and row
        // pointers inside `rows` (rows.len() == chunk · lanes).
        // SAFETY: RAMP[8 - live ..][..8] is in bounds for 1 <= live <= 8;
        // vectors j < N − 1 are whole (column + 8·j + 8 <= lanes), the last
        // one touches only its `live` lanes through the mask.
        unsafe {
            let mask = _mm256_loadu_si256(RAMP.as_ptr().add(8 - live).cast::<__m256i>());
            // Only the last vector of a tail block goes through the mask.
            let masked = |j: usize| TAIL && j + 1 == N;
            let acc_ptrs: [*mut u32; KT] =
                core::array::from_fn(|k| accs[key + k].0.as_mut_ptr().add(column));
            let weight_ptrs: [*const W; KT] = core::array::from_fn(|k| {
                weights.as_ptr().add((key + k) * block.chunk + block.first)
            });
            let mut sums = [[_mm256_setzero_si256(); N]; KT];
            for (sum, acc_ptr) in sums.iter_mut().zip(acc_ptrs) {
                for (j, vector) in sum.iter_mut().enumerate() {
                    *vector = load_vector(acc_ptr.add(8 * j), masked(j), mask);
                }
            }
            let mut row_ptr = rows.as_ptr().add(block.first * lanes + column);
            let mut row = [_mm256_setzero_si256(); N];
            for r in 0..block.rows {
                for (j, vector) in row.iter_mut().enumerate() {
                    *vector = load_vector(row_ptr.add(8 * j), masked(j), mask);
                }
                for (sum, weight_ptr) in sums.iter_mut().zip(weight_ptrs) {
                    let scale = _mm256_set1_epi32((*weight_ptr.add(r)).lane() as i32);
                    for (vector, lanes_j) in sum.iter_mut().zip(row) {
                        // mullo keeps the low 32 bits of each product —
                        // exactly `wrapping_mul` — and add_epi32 is
                        // `wrapping_add`.
                        *vector = _mm256_add_epi32(*vector, _mm256_mullo_epi32(lanes_j, scale));
                    }
                }
                // One past the last row's block start is never dereferenced.
                row_ptr = row_ptr.wrapping_add(lanes);
            }
            for (sum, acc_ptr) in sums.iter().zip(acc_ptrs) {
                for (j, vector) in sum.iter().enumerate() {
                    if masked(j) {
                        _mm256_maskstore_epi32(acc_ptr.add(8 * j).cast::<i32>(), mask, *vector);
                    } else {
                        _mm256_storeu_si256(acc_ptr.add(8 * j).cast::<__m256i>(), *vector);
                    }
                }
            }
        }
        KT
    }

    /// Eight lanes at `ptr`, or only the `mask`ed ones.
    // SAFETY: caller must ensure AVX2 is available and that the eight lanes
    // at `ptr` (the masked ones, if `masked`) are readable.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn load_vector(ptr: *const u32, masked: bool, mask: __m256i) -> __m256i {
        // SAFETY: the caller's bounds.
        unsafe {
            if masked {
                _mm256_maskload_epi32(ptr.cast::<i32>(), mask)
            } else {
                _mm256_loadu_si256(ptr.cast::<__m256i>())
            }
        }
    }

    #[inline]
    pub(super) fn add_wrapping(acc: &mut [u32], row: &[u32]) {
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { add_wrapping_impl(acc, row) }
    }

    // SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
    #[target_feature(enable = "avx2")]
    unsafe fn add_wrapping_impl(acc: &mut [u32], row: &[u32]) {
        // SAFETY: i * 8 + 8 <= lanes == row.len(), so the unaligned
        // loads/stores stay inside the slices.
        unsafe {
            let lanes = acc.len();
            let chunks = lanes / 8;
            let acc_ptr = acc.as_mut_ptr();
            let row_ptr = row.as_ptr();
            for i in 0..chunks {
                let a = _mm256_loadu_si256(acc_ptr.add(i * 8).cast::<__m256i>());
                let r = _mm256_loadu_si256(row_ptr.add(i * 8).cast::<__m256i>());
                _mm256_storeu_si256(acc_ptr.add(i * 8).cast::<__m256i>(), _mm256_add_epi32(a, r));
            }
            for i in chunks * 8..lanes {
                acc[i] = acc[i].wrapping_add(row[i]);
            }
        }
    }

    #[inline]
    pub(super) fn xor_blocks_inplace(out: &mut [Block128], inputs: &[Block128]) {
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { xor_blocks_impl(out, inputs) }
    }

    // SAFETY: caller must ensure AVX2 is available (`#[target_feature]`).
    #[target_feature(enable = "avx2")]
    unsafe fn xor_blocks_impl(out: &mut [Block128], inputs: &[Block128]) {
        // Block128 is #[repr(transparent)] over u128, so a pair of blocks is
        // 32 contiguous bytes — one 256-bit lane.
        // SAFETY: i * 2 + 2 <= out.len() == inputs.len(), so the unaligned
        // loads/stores stay inside the slices.
        unsafe {
            let pairs = out.len() / 2;
            let out_ptr = out.as_mut_ptr().cast::<__m256i>();
            let in_ptr = inputs.as_ptr().cast::<__m256i>();
            for i in 0..pairs {
                let a = _mm256_loadu_si256(out_ptr.add(i));
                let b = _mm256_loadu_si256(in_ptr.add(i));
                _mm256_storeu_si256(out_ptr.add(i), _mm256_xor_si256(a, b));
            }
            if out.len() % 2 == 1 {
                let last = out.len() - 1;
                out[last] ^= inputs[last];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn labels_are_distinct() {
        assert_eq!(SimdBackend::Scalar.label(), "scalar");
        assert_eq!(SimdBackend::Avx2.label(), "avx2");
        assert_eq!(SimdBackend::Neon.label(), "neon");
    }

    #[test]
    fn scalar_is_always_supported() {
        assert!(SimdBackend::Scalar.is_supported());
        assert_eq!(
            SimdBackend::Scalar.supported_or_scalar(),
            SimdBackend::Scalar
        );
    }

    #[test]
    fn active_backend_is_supported() {
        assert!(SimdBackend::active().is_supported());
        assert!(SimdBackend::detect().is_supported());
    }

    #[test]
    fn candidates_start_with_scalar_and_are_distinct() {
        let candidates = SimdBackend::candidates();
        assert_eq!(candidates[0], SimdBackend::Scalar);
        assert!(candidates.len() <= 2);
        for backend in candidates {
            assert!(backend.is_supported());
        }
    }

    // Lengths that stress the vector tails: empty, sub-lane, exactly one
    // lane, lane-1 / lane+1 remainders and a long odd length.
    const TAIL_LENGTHS: [usize; 9] = [0, 1, 3, 7, 8, 9, 15, 64, 201];

    #[test]
    fn lane_kernels_match_scalar_on_tail_lengths() {
        let mut rng = StdRng::seed_from_u64(0x51AD);
        for backend in SimdBackend::candidates() {
            for len in TAIL_LENGTHS {
                let row: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
                let base: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
                let scale: u32 = rng.gen();

                let mut want = base.clone();
                accumulate_scaled_scalar(&mut want, scale, &row);
                let mut got = base.clone();
                accumulate_scaled_with(*backend, &mut got, scale, &row);
                assert_eq!(want, got, "accumulate_scaled {backend:?} len={len}");

                let mut want = base.clone();
                add_wrapping_scalar(&mut want, &row);
                let mut got = base.clone();
                add_wrapping_with(*backend, &mut got, &row);
                assert_eq!(want, got, "add_wrapping {backend:?} len={len}");

                let blocks: Vec<Block128> = (0..len).map(|_| Block128::random(&mut rng)).collect();
                let out_base: Vec<Block128> =
                    (0..len).map(|_| Block128::random(&mut rng)).collect();
                let mut want = out_base.clone();
                xor_blocks_inplace_scalar(&mut want, &blocks);
                let mut got = out_base.clone();
                xor_blocks_inplace_with(*backend, &mut got, &blocks);
                assert_eq!(want, got, "xor_blocks {backend:?} len={len}");
            }
        }
    }

    /// The chunk kernel against the per-row scalar loop it replaced, on every
    /// backend this host can run (so the forced-scalar CI lane covers the
    /// fallback): lane counts around every column-block seam (masked tail
    /// only, 1/2/4-vector blocks with and without a tail), chunk sizes from
    /// empty to the paper's K = 128, both weight widths.
    #[test]
    fn row_sweep_matches_per_row_loop() {
        let mut rng = StdRng::seed_from_u64(0x00C0_1A5E);
        for backend in SimdBackend::candidates() {
            for lanes in [1usize, 3, 7, 8, 9, 15, 16, 17, 24, 33] {
                for rows in [0usize, 1, 2, 127, 128, 129, 300] {
                    let table: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
                    let shares: Vec<Ring128> =
                        (0..rows).map(|_| Ring128::random(&mut rng)).collect();
                    let weights: Vec<u32> = shares.iter().map(|w| w.to_lane()).collect();
                    let base: Vec<u32> = (0..lanes).map(|_| rng.gen()).collect();

                    let mut want = base.clone();
                    for (weight, row) in weights.iter().zip(table.chunks_exact(lanes)) {
                        accumulate_scaled_scalar(&mut want, *weight, row);
                    }
                    let what = format!("{backend:?} lanes={lanes} rows={rows}");
                    let mut got = [LaneVector(base.clone())];
                    accumulate_rows_with(*backend, &mut got, &weights, &table);
                    assert_eq!(got[0].0, want, "{what}: u32 weights");
                    let mut got = [LaneVector(base.clone())];
                    accumulate_rows_with(*backend, &mut got, &shares, &table);
                    assert_eq!(got[0].0, want, "{what}: Ring128 weights");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "one row of acc.len() lanes per weight")]
    fn row_sweep_rejects_a_short_row_buffer() {
        accumulate_rows(&mut [LaneVector::zeroed(4)], &[1u32, 2], &[0u32; 7]);
    }

    #[test]
    #[should_panic(expected = "one chunk of weights per key")]
    fn row_sweep_rejects_ragged_key_chunks() {
        let mut accs = [LaneVector::zeroed(4), LaneVector::zeroed(4)];
        accumulate_rows(&mut accs, &[1u32, 2, 3], &[0u32; 4]);
    }

    proptest! {
        /// The multi-key sweep on every backend against the scalar
        /// reference: every register-tile shape (1–9 keys: whole tiles and
        /// key tails) crossed with every column-block seam (1–40 lanes) and
        /// row blocks with and without a ragged end.
        #[test]
        fn multi_key_sweep_matches_scalar(
            seed in any::<u64>(),
            keys in 1usize..10,
            lanes in 1usize..41,
            rows in 0usize..300,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let table: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
            let weights: Vec<u32> = (0..keys * rows).map(|_| rng.gen()).collect();
            let base: Vec<LaneVector> = (0..keys)
                .map(|_| (0..lanes).map(|_| rng.gen()).collect())
                .collect();
            let mut want = base.clone();
            if rows > 0 {
                accumulate_rows_scalar(&mut want, &weights, &table);
            }
            for backend in SimdBackend::candidates() {
                let mut got = base.clone();
                accumulate_rows_with(*backend, &mut got, &weights, &table);
                prop_assert_eq!(&got, &want);
            }
        }

        #[test]
        fn accumulate_scaled_matches_scalar(
            seed in any::<u64>(),
            len in 0usize..100,
            scale in any::<u32>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let row: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
            let base: Vec<u32> = (0..len).map(|_| rng.gen()).collect();
            for backend in SimdBackend::candidates() {
                let mut want = base.clone();
                accumulate_scaled_scalar(&mut want, scale, &row);
                let mut got = base.clone();
                accumulate_scaled_with(*backend, &mut got, scale, &row);
                prop_assert_eq!(&want, &got);
            }
        }

        #[test]
        fn xor_blocks_matches_scalar(seed in any::<u64>(), len in 0usize..64) {
            let mut rng = StdRng::seed_from_u64(seed);
            let inputs: Vec<Block128> =
                (0..len).map(|_| Block128::random(&mut rng)).collect();
            let base: Vec<Block128> =
                (0..len).map(|_| Block128::random(&mut rng)).collect();
            for backend in SimdBackend::candidates() {
                let mut want = base.clone();
                xor_blocks_inplace_scalar(&mut want, &inputs);
                let mut got = base.clone();
                xor_blocks_inplace_with(*backend, &mut got, &inputs);
                prop_assert_eq!(&want, &got);
            }
        }
    }
}
