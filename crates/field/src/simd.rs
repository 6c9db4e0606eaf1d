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
/// Every kernel is a safe `#[target_feature]` function that walks its slices
/// in whole vector steps (`as_chunks`) or checked sub-slices, so it is
/// memory-safe for any arguments; `unsafe` is left to the reference-taking
/// load/store helpers and to the one call per wrapper into its kernel, which
/// the caller's [`SimdBackend::Avx2`] value (constructed only where AVX2 was
/// detected at runtime) justifies.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx2 {
    use core::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cmpgt_epi32, _mm256_loadu_si256, _mm256_maskload_epi32,
        _mm256_maskstore_epi32, _mm256_mullo_epi32, _mm256_set1_epi32, _mm256_setr_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm256_xor_si256,
    };

    use super::LaneWeight;
    use crate::{Block128, LaneVector};

    /// Eight lanes in a ymm register.
    #[inline]
    #[target_feature(enable = "avx")]
    fn load8(lanes: &[u32; 8]) -> __m256i {
        // SAFETY: `lanes` is 32 readable bytes; the load is unaligned.
        unsafe { _mm256_loadu_si256(lanes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx")]
    fn store8(lanes: &mut [u32; 8], value: __m256i) {
        // SAFETY: `lanes` is 32 writable bytes; the store is unaligned.
        unsafe { _mm256_storeu_si256(lanes.as_mut_ptr().cast(), value) }
    }

    /// Two blocks (32 bytes) in a ymm register.
    #[inline]
    #[target_feature(enable = "avx")]
    fn load2(blocks: &[Block128; 2]) -> __m256i {
        // SAFETY: `Block128` is a transparent `u128`, so `blocks` is 32
        // readable bytes; the load is unaligned.
        unsafe { _mm256_loadu_si256(blocks.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx")]
    fn store2(blocks: &mut [Block128; 2], value: __m256i) {
        // SAFETY: `blocks` is 32 writable bytes of plain data; the store is
        // unaligned.
        unsafe { _mm256_storeu_si256(blocks.as_mut_ptr().cast(), value) }
    }

    /// The masked sub-vector tail of a row: its first `live` lanes (1–8) and
    /// the lane mask that selects exactly them. Masked loads read nothing
    /// (and fault on nothing) in the other lanes; masked stores write
    /// nothing there.
    #[derive(Clone, Copy)]
    struct Tail {
        live: usize,
        mask: __m256i,
    }

    impl Tail {
        #[inline]
        #[target_feature(enable = "avx2")]
        fn new(live: usize) -> Self {
            assert!((1..=8).contains(&live), "a tail is 1 to 8 lanes");
            // Lane j has its sign bit set iff j < live.
            let mask = _mm256_cmpgt_epi32(
                _mm256_set1_epi32(live as i32),
                _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
            );
            Self { live, mask }
        }

        /// The first `live` lanes of `lanes`, zero above.
        #[inline]
        #[target_feature(enable = "avx2")]
        fn load(self, lanes: &[u32]) -> __m256i {
            let lanes = &lanes[..self.live];
            // SAFETY: the mask selects exactly lanes `..live`, all readable.
            unsafe { _mm256_maskload_epi32(lanes.as_ptr().cast(), self.mask) }
        }

        #[inline]
        #[target_feature(enable = "avx2")]
        fn store(self, lanes: &mut [u32], value: __m256i) {
            let lanes = &mut lanes[..self.live];
            // SAFETY: the mask selects exactly lanes `..live`, all writable.
            unsafe { _mm256_maskstore_epi32(lanes.as_mut_ptr().cast(), self.mask, value) }
        }
    }

    #[inline]
    pub(super) fn accumulate_scaled(acc: &mut [u32], scale: u32, row: &[u32]) {
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { accumulate_scaled_impl(acc, scale, row) }
    }

    #[target_feature(enable = "avx2")]
    fn accumulate_scaled_impl(acc: &mut [u32], scale: u32, row: &[u32]) {
        let scale_v = _mm256_set1_epi32(scale as i32);
        let (acc_steps, acc_tail) = acc.as_chunks_mut::<8>();
        let (row_steps, row_tail) = row.as_chunks::<8>();
        for (a, r) in acc_steps.iter_mut().zip(row_steps) {
            // _mm256_mullo_epi32 keeps the low 32 bits of each product —
            // exactly `wrapping_mul` — and _mm256_add_epi32 is wrapping_add.
            let sum = _mm256_add_epi32(load8(a), _mm256_mullo_epi32(load8(r), scale_v));
            store8(a, sum);
        }
        super::accumulate_scaled_scalar(acc_tail, scale, row_tail);
    }

    /// `accs[g][i] += Σ_r weights[g · n + r] · rows[r · lanes + i]`; the safe
    /// dispatcher has checked that the accumulators share one width
    /// `lanes > 0`, that `weights.len() == accs.len() · n` with `n > 0`, and
    /// that `rows.len() == n · lanes`. Hosts with AVX-512F take the zmm
    /// sweep ([`super::avx512`]).
    #[inline]
    pub(super) fn accumulate_rows<W: LaneWeight>(
        accs: &mut [LaneVector],
        weights: &[W],
        rows: &[u32],
    ) {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: AVX-512F is detected above.
            return unsafe { super::avx512::accumulate_rows_impl(accs, weights, rows) };
        }
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { accumulate_rows_impl(accs, weights, rows) }
    }

    /// Rows per pass of every register tile: 8 KiB of a 64-byte-row table,
    /// so the tiles after the first re-read the block from L1.
    pub(super) const ROW_BLOCK: usize = 128;

    /// The chunk is swept in blocks of [`ROW_BLOCK`] rows. Within a block the
    /// lane dimension is cut into column blocks of 4, 2 or 1 whole vectors
    /// plus one masked sub-vector tail, and the keys into register tiles of
    /// eight accumulator vectors (2 keys × 4 vectors, 4 × 2, 8 × 1; smaller
    /// at the key tail). A tile keeps its accumulators in registers across
    /// the block's rows and loads each row vector once for all its keys.
    #[target_feature(enable = "avx2")]
    pub(super) fn accumulate_rows_impl<W: LaneWeight>(
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
            first += block.rows;
        }
    }

    /// The rows `first .. first + rows` of a `chunk`-row sweep.
    pub(super) struct Block {
        pub(super) chunk: usize,
        pub(super) first: usize,
        pub(super) rows: usize,
    }

    /// One column block of one row block, for every key: register tiles of
    /// up to eight accumulator vectors, `N` per key (`TAIL` and `live` as for
    /// [`sweep_tile`]).
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sweep_keys<const N: usize, const TAIL: bool, W: LaneWeight>(
        accs: &mut [LaneVector],
        weights: &[W],
        rows: &[u32],
        block: &Block,
        column: usize,
        live: usize,
    ) {
        let mut key = 0;
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

    /// One register tile: keys `key .. key + KT`, `N` accumulator vectors
    /// each starting at lane `column`, swept over the rows of `block`. In a
    /// `TAIL` block (the lane dimension's masked tail) the last vector of a
    /// key carries only `live` lanes; otherwise every vector is whole.
    /// Returns `KT`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn sweep_tile<const N: usize, const KT: usize, const TAIL: bool, W: LaneWeight>(
        accs: &mut [LaneVector],
        key: usize,
        weights: &[W],
        rows: &[u32],
        block: &Block,
        column: usize,
        live: usize,
    ) -> usize {
        let lanes = accs[key].len();
        // The tile's lanes of every row and accumulator.
        let width = 8 * (N - 1) + if TAIL { live } else { 8 };
        assert!(column + width <= lanes, "column block past the row");
        let tail = Tail::new(live);
        // Only the last vector of a tail block goes through the mask.
        let masked = |j: usize| TAIL && j + 1 == N;
        let tile = &mut accs[key..key + KT];
        let mut sums = [[_mm256_setzero_si256(); N]; KT];
        for (sum, acc) in sums.iter_mut().zip(tile.iter()) {
            let acc = &acc.0[column..column + width];
            for (j, vector) in sum.iter_mut().enumerate() {
                *vector = load_vector(&acc[8 * j..], masked(j), tail);
            }
        }
        let block_rows = &rows[block.first * lanes..][..block.rows * lanes];
        // `block.rows` again, in the form the row loop's bound takes, so
        // the weight reads below need no bounds check.
        let n = block.rows.min(block_rows.len() / lanes);
        let mut tile_weights = [&weights[..0]; KT];
        for (k, slot) in tile_weights.iter_mut().enumerate() {
            *slot = &weights[(key + k) * block.chunk + block.first..][..n];
        }
        let mut row = [_mm256_setzero_si256(); N];
        for (r, lanes_r) in (0..n).zip(block_rows.chunks_exact(lanes)) {
            let lanes_r = &lanes_r[column..column + width];
            for (j, vector) in row.iter_mut().enumerate() {
                *vector = load_vector(&lanes_r[8 * j..], masked(j), tail);
            }
            for (sum, weights) in sums.iter_mut().zip(tile_weights) {
                let scale = _mm256_set1_epi32(weights[r].lane() as i32);
                for (vector, lanes_j) in sum.iter_mut().zip(row) {
                    // mullo keeps the low 32 bits of each product — exactly
                    // `wrapping_mul` — and add_epi32 is `wrapping_add`.
                    *vector = _mm256_add_epi32(*vector, _mm256_mullo_epi32(lanes_j, scale));
                }
            }
        }
        for (sum, acc) in sums.iter().zip(tile) {
            let acc = &mut acc.0[column..column + width];
            for (j, vector) in sum.iter().enumerate() {
                if masked(j) {
                    tail.store(&mut acc[8 * j..], *vector);
                } else {
                    let lanes = acc[8 * j..].first_chunk_mut().expect("a whole vector");
                    store8(lanes, *vector);
                }
            }
        }
        KT
    }

    /// A whole vector at the start of `lanes`, or its `tail` if `masked`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn load_vector(lanes: &[u32], masked: bool, tail: Tail) -> __m256i {
        if masked {
            tail.load(lanes)
        } else {
            load8(lanes.first_chunk().expect("a whole vector"))
        }
    }

    #[inline]
    pub(super) fn add_wrapping(acc: &mut [u32], row: &[u32]) {
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { add_wrapping_impl(acc, row) }
    }

    #[target_feature(enable = "avx2")]
    fn add_wrapping_impl(acc: &mut [u32], row: &[u32]) {
        let (acc_steps, acc_tail) = acc.as_chunks_mut::<8>();
        let (row_steps, row_tail) = row.as_chunks::<8>();
        for (a, r) in acc_steps.iter_mut().zip(row_steps) {
            store8(a, _mm256_add_epi32(load8(a), load8(r)));
        }
        super::add_wrapping_scalar(acc_tail, row_tail);
    }

    #[inline]
    pub(super) fn xor_blocks_inplace(out: &mut [Block128], inputs: &[Block128]) {
        // SAFETY: reached only via a supported Avx2 backend value.
        unsafe { xor_blocks_impl(out, inputs) }
    }

    /// A pair of blocks is one 256-bit lane.
    #[target_feature(enable = "avx2")]
    fn xor_blocks_impl(out: &mut [Block128], inputs: &[Block128]) {
        let (out_steps, out_tail) = out.as_chunks_mut::<2>();
        let (in_steps, in_tail) = inputs.as_chunks::<2>();
        for (o, i) in out_steps.iter_mut().zip(in_steps) {
            store2(o, _mm256_xor_si256(load2(o), load2(i)));
        }
        super::xor_blocks_inplace_scalar(out_tail, in_tail);
    }
}

/// The AVX-512F row sweep, reached from the `Avx2` backend's
/// [`accumulate_rows`] where the CPU has AVX-512F: [`avx2`]'s tiling with
/// 16 `u32` lanes per vector (a 64-byte row is one zmm register) and a
/// `__mmask16` for the lane tail of any row width. Same safety structure:
/// safe `#[target_feature]` kernels over checked slices, `unsafe` only in the
/// load/store helpers; the `Avx2` wrapper makes the one call into it.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod avx512 {
    use core::arch::x86_64::{
        __m512i, __mmask16, _mm512_add_epi32, _mm512_loadu_si512, _mm512_mask_storeu_epi32,
        _mm512_maskz_loadu_epi32, _mm512_mullo_epi32, _mm512_set1_epi32, _mm512_setzero_si512,
        _mm512_storeu_si512,
    };

    use super::avx2::{Block, ROW_BLOCK};
    use super::LaneWeight;
    use crate::LaneVector;

    /// Sixteen lanes in a zmm register.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load16(lanes: &[u32; 16]) -> __m512i {
        // SAFETY: `lanes` is 64 readable bytes; the load is unaligned.
        unsafe { _mm512_loadu_si512(lanes.as_ptr().cast()) }
    }

    #[inline]
    #[target_feature(enable = "avx512f")]
    fn store16(lanes: &mut [u32; 16], value: __m512i) {
        // SAFETY: `lanes` is 64 writable bytes; the store is unaligned.
        unsafe { _mm512_storeu_si512(lanes.as_mut_ptr().cast(), value) }
    }

    /// The masked sub-vector tail of a row: its first `live` lanes (1–16)
    /// and the k-mask that selects exactly them.
    #[derive(Clone, Copy)]
    struct Tail {
        live: usize,
        mask: __mmask16,
    }

    impl Tail {
        #[inline]
        fn new(live: usize) -> Self {
            assert!((1..=16).contains(&live), "a tail is 1 to 16 lanes");
            Self {
                live,
                mask: (1u32 << live).wrapping_sub(1) as __mmask16,
            }
        }

        /// The first `live` lanes of `lanes`, zero above.
        #[inline]
        #[target_feature(enable = "avx512f")]
        fn load(self, lanes: &[u32]) -> __m512i {
            let lanes = &lanes[..self.live];
            // SAFETY: the mask selects exactly lanes `..live`, all readable;
            // masked-off lanes are neither read nor faulted on.
            unsafe { _mm512_maskz_loadu_epi32(self.mask, lanes.as_ptr().cast()) }
        }

        #[inline]
        #[target_feature(enable = "avx512f")]
        fn store(self, lanes: &mut [u32], value: __m512i) {
            let lanes = &mut lanes[..self.live];
            // SAFETY: the mask selects exactly lanes `..live`, all writable.
            unsafe { _mm512_mask_storeu_epi32(lanes.as_mut_ptr().cast(), self.mask, value) }
        }
    }

    /// [`super::avx2::accumulate_rows_impl`] at 16 lanes per vector.
    #[target_feature(enable = "avx512f")]
    pub(super) fn accumulate_rows_impl<W: LaneWeight>(
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
            while lanes - column >= 64 {
                sweep_keys::<4, false, W>(accs, weights, rows, &block, column, 16);
                column += 64;
            }
            if lanes - column >= 32 {
                sweep_keys::<2, false, W>(accs, weights, rows, &block, column, 16);
                column += 32;
            }
            if lanes - column >= 16 {
                sweep_keys::<1, false, W>(accs, weights, rows, &block, column, 16);
                column += 16;
            }
            if lanes > column {
                sweep_keys::<1, true, W>(accs, weights, rows, &block, column, lanes - column);
            }
            first += block.rows;
        }
    }

    /// Register tiles of up to eight accumulator vectors: 8, 4, 2 or 1 keys.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sweep_keys<const N: usize, const TAIL: bool, W: LaneWeight>(
        accs: &mut [LaneVector],
        weights: &[W],
        rows: &[u32],
        block: &Block,
        column: usize,
        live: usize,
    ) {
        let mut key = 0;
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

    /// [`super::avx2`]'s register tile at 16 lanes per vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn sweep_tile<const N: usize, const KT: usize, const TAIL: bool, W: LaneWeight>(
        accs: &mut [LaneVector],
        key: usize,
        weights: &[W],
        rows: &[u32],
        block: &Block,
        column: usize,
        live: usize,
    ) -> usize {
        let lanes = accs[key].len();
        let width = 16 * (N - 1) + if TAIL { live } else { 16 };
        assert!(column + width <= lanes, "column block past the row");
        let tail = Tail::new(live);
        let masked = |j: usize| TAIL && j + 1 == N;
        let tile = &mut accs[key..key + KT];
        let mut sums = [[_mm512_setzero_si512(); N]; KT];
        for (sum, acc) in sums.iter_mut().zip(tile.iter()) {
            let acc = &acc.0[column..column + width];
            for (j, vector) in sum.iter_mut().enumerate() {
                *vector = load_vector(&acc[16 * j..], masked(j), tail);
            }
        }
        let block_rows = &rows[block.first * lanes..][..block.rows * lanes];
        // `block.rows` again, in the form the row loop's bound takes, so
        // the weight reads below need no bounds check.
        let n = block.rows.min(block_rows.len() / lanes);
        let mut tile_weights = [&weights[..0]; KT];
        for (k, slot) in tile_weights.iter_mut().enumerate() {
            *slot = &weights[(key + k) * block.chunk + block.first..][..n];
        }
        let mut row = [_mm512_setzero_si512(); N];
        for (r, lanes_r) in (0..n).zip(block_rows.chunks_exact(lanes)) {
            let lanes_r = &lanes_r[column..column + width];
            for (j, vector) in row.iter_mut().enumerate() {
                *vector = load_vector(&lanes_r[16 * j..], masked(j), tail);
            }
            for (sum, weights) in sums.iter_mut().zip(tile_weights) {
                let scale = _mm512_set1_epi32(weights[r].lane() as i32);
                for (vector, lanes_j) in sum.iter_mut().zip(row) {
                    *vector = _mm512_add_epi32(*vector, _mm512_mullo_epi32(lanes_j, scale));
                }
            }
        }
        for (sum, acc) in sums.iter().zip(tile) {
            let acc = &mut acc.0[column..column + width];
            for (j, vector) in sum.iter().enumerate() {
                if masked(j) {
                    tail.store(&mut acc[16 * j..], *vector);
                } else {
                    let lanes = acc[16 * j..].first_chunk_mut().expect("a whole vector");
                    store16(lanes, *vector);
                }
            }
        }
        KT
    }

    /// A whole vector at the start of `lanes`, or its `tail` if `masked`.
    #[inline]
    #[target_feature(enable = "avx512f")]
    fn load_vector(lanes: &[u32], masked: bool, tail: Tail) -> __m512i {
        if masked {
            tail.load(lanes)
        } else {
            load16(lanes.first_chunk().expect("a whole vector"))
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

    /// Both x86 row sweeps, called directly, against the scalar reference:
    /// every register-tile shape (1–9 keys) × every column-block seam of
    /// both widths (1–40 lanes) × a one-row chunk and one with a ragged
    /// last row block. On an AVX-512 host the dispatcher reaches only the
    /// zmm sweep, so the ymm one is checked here.
    #[test]
    #[cfg(target_arch = "x86_64")]
    #[allow(unsafe_code)]
    fn row_sweep_kernels_match_scalar() {
        if !SimdBackend::Avx2.is_supported() {
            eprintln!("skipped both row sweeps: this host lacks AVX2");
            return;
        }
        let zmm = std::arch::is_x86_feature_detected!("avx512f");
        if !zmm {
            eprintln!("skipped the zmm row sweep: this host lacks AVX-512F (ymm checked)");
        }
        let mut rng = StdRng::seed_from_u64(0x5EE9);
        for keys in 1usize..=9 {
            for lanes in 1usize..=40 {
                for rows in [1usize, 130] {
                    let table: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
                    let weights: Vec<u32> = (0..keys * rows).map(|_| rng.gen()).collect();
                    let base: Vec<LaneVector> = (0..keys)
                        .map(|_| (0..lanes).map(|_| rng.gen()).collect())
                        .collect();
                    let mut want = base.clone();
                    accumulate_rows_scalar(&mut want, &weights, &table);
                    let what = format!("keys={keys} lanes={lanes} rows={rows}");
                    let mut got = base.clone();
                    // SAFETY: AVX2 checked at the top of the test.
                    unsafe { avx2::accumulate_rows_impl(&mut got, &weights, &table) };
                    assert_eq!(got, want, "ymm {what}");
                    if zmm {
                        let mut got = base.clone();
                        // SAFETY: AVX-512F checked above.
                        unsafe { avx512::accumulate_rows_impl(&mut got, &weights, &table) };
                        assert_eq!(got, want, "zmm {what}");
                    }
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
