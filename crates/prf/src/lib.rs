//! Pseudorandom functions for DPF evaluation.
//!
//! Expanding a DPF key over a table with `L` entries requires on the order of
//! `L` PRF invocations (§3.1 of the paper), so the PRF is the dominant cost of
//! private information retrieval. The paper's §3.2.6 observes that GPUs lack
//! AES hardware and therefore benefit from choosing a cheaper PRF; Table 5
//! compares AES-128, SHA-256 (HMAC), ChaCha20, SipHash and HighwayHash.
//!
//! The system executes three of them — AES-128, ChaCha20 and SipHash, the
//! [`PrfKind`]s — implemented from scratch in portable Rust (plus x86 and
//! NEON kernels) behind a single object-safe [`Prf`] trait. All five are
//! modelled: [`TABLE5`] holds each one's cost, and Table 5 is computed from
//! it. Alongside the primitives the crate provides:
//!
//! * [`GgmPrg`] — the length-doubling PRG (built from any [`Prf`] with a
//!   Matyas–Meyer–Oseas feed-forward) that drives GGM-tree expansion, with
//!   the pass that applies a [`LevelCorrection`] to a whole frontier,
//! * [`CountingPrf`] — a decorator that counts invocations, used by the GPU
//!   simulator's cost model and by the paper's Figure 6 "number of PRFs"
//!   metric,
//! * the [`TABLE5`] cost catalogue (GPU and CPU cycles per block)
//!   calibrated so the simulated V100 and Xeon reproduce the relative
//!   throughputs of Table 5 and Table 4.
//!
//! # Example
//!
//! ```rust
//! use pir_prf::{build_prf, GgmPrg, PrfKind};
//! use pir_field::{Block128, Secret};
//!
//! let prg = GgmPrg::new(build_prf(PrfKind::Chacha20));
//! // Seeds and control bits are key material (`Secret`): nothing to branch
//! // on or compare, only masks.
//! let children = prg.expand(Secret::new(Block128::from_u128(42)));
//! let _corrected = children.seed_left ^ (children.seed_right & children.t_left.lsb_mask());
//! // The PRF under it maps public blocks, deterministically.
//! let block = Block128::from_u128(42);
//! assert_eq!(prg.prf().eval_block(block, 0), prg.prf().eval_block(block, 0));
//! ```

// Unsafe code is denied crate-wide and re-allowed only inside `simd`, whose
// per-architecture modules need `core::arch` intrinsics. There, `unsafe` is
// confined to raw vector loads and stores and to the one call from each safe
// wrapper into a `#[target_feature]` kernel, justified by the detected
// backend. Everything else in this crate remains `unsafe`-free.
#![deny(unsafe_code)]
// Where an `unsafe fn` remains (the NEON helpers), every unsafe operation in
// it must still sit in an explicit `unsafe {}` block with its own SAFETY
// justification.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks, clippy::missing_safety_doc)]
#![warn(missing_docs)]

mod aes;
mod chacha;
mod counter;
mod prg;
mod simd;
mod siphash;

use std::fmt;
use std::sync::Arc;

use pir_field::Block128;
use serde::{Deserialize, Serialize};

pub use aes::Aes128Prf;
pub use chacha::ChaCha20Prf;
pub use counter::CountingPrf;
pub use pir_field::SimdBackend;
pub use prg::{FrontierScratch, GgmPrg, LevelCorrection, PrgExpansion};
pub use siphash::{siphash24, SipHashPrf};

/// A pseudorandom function mapping a 128-bit block (plus a 64-bit tweak) to a
/// 128-bit block.
///
/// Implementations must be deterministic and thread-safe: GPU-style evaluation
/// invokes the PRF from many simulated threads concurrently.
pub trait Prf: Send + Sync {
    /// Which concrete primitive this is (used for cost accounting / reporting).
    fn kind(&self) -> PrfKind;

    /// Evaluate the PRF on `input` with domain-separation `tweak`.
    fn eval_block(&self, input: Block128, tweak: u64) -> Block128;

    /// Evaluate the PRF on every block of `inputs` under one `tweak`, writing
    /// `out[i] = PRF(inputs[i], tweak)`.
    ///
    /// This is the batched entry point of the frontier expansion engine: a
    /// level-synchronous GGM expansion hands a whole level of seeds to the
    /// PRF at once, so implementations can hoist key schedules, round
    /// constants and state initialization out of the per-block loop and give
    /// the compiler a single hot loop to pipeline. Implementations must be
    /// bit-identical to calling [`Prf::eval_block`] once per input.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` and `out` have different lengths.
    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        assert_eq!(
            inputs.len(),
            out.len(),
            "eval_blocks input/output length mismatch"
        );
        for (input, slot) in inputs.iter().zip(out.iter_mut()) {
            *slot = self.eval_block(*input, tweak);
        }
    }

    /// Evaluate the PRF on every block of `inputs` under two tweaks at once:
    /// `out_a[i] = PRF(inputs[i], tweak_a)` and `out_b[i] = PRF(inputs[i],
    /// tweak_b)`.
    ///
    /// This is the shape of a GGM node expansion (left and right child derive
    /// from the same seed under tweaks 0 and 1), so a primitive can share
    /// work between the two tweaks: SipHash absorbs the input before the
    /// tweak once for both, and ChaCha20 takes tweaks `2k` and `2k + 1` from
    /// the two halves of one keystream block. The default runs two sweeps. Counts as `2 *
    /// inputs.len()` PRF block evaluations; outputs must be bit-identical to
    /// the scalar path.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`, `out_a` and `out_b` have different lengths.
    fn eval_blocks_pair(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        self.eval_blocks(inputs, tweak_a, out_a);
        self.eval_blocks(inputs, tweak_b, out_b);
    }

    /// The GGM expansion sweep: like [`Prf::eval_blocks_pair`] but with the
    /// Matyas–Meyer–Oseas feed-forward fused in, producing
    /// `out_a[i] = PRF(inputs[i], tweak_a) ⊕ inputs[i]` (and likewise for
    /// `b`).
    ///
    /// Primitives whose hot loop already holds the input block in registers
    /// (SipHash, ChaCha20) override this to apply the feed-forward for free; the
    /// default XORs in a separate pass. Counts as `2 * inputs.len()` PRF
    /// block evaluations.
    ///
    /// # Panics
    ///
    /// Panics if `inputs`, `out_a` and `out_b` have different lengths.
    fn expand_blocks_mmo(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        self.eval_blocks_pair(inputs, tweak_a, tweak_b, out_a, out_b);
        pir_field::simd::xor_blocks_inplace(out_a, inputs);
        pir_field::simd::xor_blocks_inplace(out_b, inputs);
    }

    /// Number of primitive invocations performed so far, if this PRF counts
    /// them (see [`CountingPrf`]). Plain primitives return `None`.
    fn call_count(&self) -> Option<u64> {
        None
    }

    /// Label of the code path the batched sweeps of this instance execute
    /// (`"scalar"`, `"avx2"`, `"avx2+vaes"` for AES on the ymm VAES kernel,
    /// `"avx2+avx512"` for a zmm kernel — AES with VAES, ChaCha20, SipHash —
    /// or `"neon"`), for kernel reports and serve telemetry. Primitives
    /// without a vector implementation for the active backend report
    /// `"scalar"` regardless of what was requested.
    fn backend_label(&self) -> &'static str {
        "scalar"
    }

    /// The SIMD backend this instance was built for (after runtime
    /// detection, so an `Avx2` value proves the host has AVX2). A
    /// [`GgmPrg`] runs its correction pass on it, so a PRF pinned to
    /// scalar gets the scalar pass too, whatever the process default.
    fn simd_backend(&self) -> SimdBackend {
        SimdBackend::Scalar
    }
}

/// One PRF of the paper's Table 5 and the cost the models charge for it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PrfCost {
    /// Human-readable name matching the paper's tables.
    pub name: &'static str,
    /// Security margin note used when reporting results (paper §3.2.6).
    pub security_note: &'static str,
    /// Estimated GPU cycles to evaluate one 128-bit block on one CUDA core
    /// (software implementation, no crypto hardware).
    pub gpu_cycles_per_block: u64,
    /// Effective CPU cycles per DPF node expansion on a Xeon core.
    pub cpu_cycles_per_block: u64,
}

/// The paper's Table 5 as a cost catalogue: the five PRFs it compares, in
/// its order. The system executes the three [`PrfKind`]s, each at the row
/// its discriminant names; SHA-256 (HMAC) and HighwayHash are modelled only.
///
/// The GPU figures are calibrated so the simulated V100 reproduces the
/// throughput ordering and approximate ratios of Table 5 (AES ≈ 965 QPS,
/// ChaCha20 ≈ 3,640 QPS, SipHash ≈ 7,447 QPS on a 2^20-entry table at batch
/// 512). The CPU figures are *effective* costs — raw AES-NI encrypts a block
/// in tens of cycles, but a DPF node expansion also pays key scheduling,
/// control-bit bookkeeping and memory traffic. The AES figure is calibrated
/// so the modelled Xeon Gold 6230 reproduces the single-thread throughput
/// the paper measures for the Google CPU DPF baseline (Table 4: ~1.3 queries
/// per second on a 2^20-entry table); the others keep their relative
/// software cost versus AES-NI.
pub const TABLE5: [PrfCost; 5] = [
    PrfCost {
        name: "AES-128 Block Cipher (Ctr Mode)",
        security_note: "standard; matches CPU baseline",
        gpu_cycles_per_block: 2000,
        cpu_cycles_per_block: 750,
    },
    PrfCost {
        name: "SHA-256 Hash (HMAC)",
        security_note: "standard hash-based PRF",
        gpu_cycles_per_block: 2095,
        cpu_cycles_per_block: 4000,
    },
    PrfCost {
        name: "Chacha20 Stream Cipher",
        security_note: "standard stream cipher (TLS 1.3)",
        gpu_cycles_per_block: 530,
        cpu_cycles_per_block: 1400,
    },
    PrfCost {
        name: "SipHash PRF",
        security_note: "non-standard for PIR; weaker analysis",
        gpu_cycles_per_block: 260,
        cpu_cycles_per_block: 500,
    },
    PrfCost {
        name: "HighwayHash PRF",
        security_note: "non-standard for PIR; weaker analysis",
        gpu_cycles_per_block: 980,
        cpu_cycles_per_block: 1100,
    },
];

/// The PRFs the system executes. Each discriminant is the kind's row in
/// [`TABLE5`], its wire byte and the DPF parity suite's RNG seed, so none
/// may move; 1 (SHA-256) and 4 (HighwayHash) are retired and never reused.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PrfKind {
    /// AES-128 in counter mode (the CPU baseline's PRF; AES-NI on CPUs).
    Aes128 = 0,
    /// ChaCha20 stream cipher block function (TLS 1.3-grade security).
    Chacha20 = 2,
    /// SipHash-2-4 keyed hash (fast but with weaker security margin).
    SipHash = 3,
}

impl PrfKind {
    /// All PRF kinds in the order Table 5 reports them.
    pub const ALL: [PrfKind; 3] = [PrfKind::Aes128, PrfKind::Chacha20, PrfKind::SipHash];

    /// This kind's row of [`TABLE5`].
    #[must_use]
    pub const fn cost(self) -> PrfCost {
        TABLE5[self as usize]
    }

    /// Human-readable name matching the paper's tables.
    #[must_use]
    pub const fn name(self) -> &'static str {
        self.cost().name
    }

    /// [`PrfCost::gpu_cycles_per_block`] of this kind.
    #[must_use]
    pub const fn gpu_cycles_per_block(self) -> u64 {
        self.cost().gpu_cycles_per_block
    }

    /// [`PrfCost::cpu_cycles_per_block`] of this kind.
    #[must_use]
    pub const fn cpu_cycles_per_block(self) -> u64 {
        self.cost().cpu_cycles_per_block
    }

    /// [`PrfCost::security_note`] of this kind.
    #[must_use]
    pub const fn security_note(self) -> &'static str {
        self.cost().security_note
    }
}

impl fmt::Display for PrfKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Construct a boxed PRF of the requested kind with a fixed, publicly known
/// key (DPF security rests on the secrecy of the seeds, not the PRF key).
///
/// The instance uses the process-wide active SIMD backend
/// ([`SimdBackend::active`], which honors the `PIR_PRF_BACKEND` environment
/// override); outputs are bit-identical across backends.
#[must_use]
pub fn build_prf(kind: PrfKind) -> Arc<dyn Prf> {
    build_prf_with_backend(kind, SimdBackend::active())
}

/// Construct a boxed PRF of the requested kind pinned to a specific SIMD
/// backend (falling back to scalar if `backend` is unsupported on this host).
///
/// The parity suite uses this to run the same primitive under every available
/// backend in one process and compare outputs byte for byte.
#[must_use]
pub fn build_prf_with_backend(kind: PrfKind, backend: SimdBackend) -> Arc<dyn Prf> {
    match kind {
        PrfKind::Aes128 => Arc::new(Aes128Prf::with_fixed_key().with_backend(backend)),
        PrfKind::Chacha20 => Arc::new(ChaCha20Prf::with_fixed_key().with_backend(backend)),
        PrfKind::SipHash => Arc::new(SipHashPrf::with_fixed_key().with_backend(backend)),
    }
}

/// Construct a counting wrapper around a fresh PRF of the requested kind.
#[must_use]
pub fn build_counting_prf(kind: PrfKind) -> Arc<CountingPrf> {
    Arc::new(CountingPrf::new(build_prf(kind)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_prfs_are_deterministic_and_distinct() {
        let input = Block128::from_u128(0x1234_5678_9abc_def0);
        let mut outputs = Vec::new();
        for kind in PrfKind::ALL {
            let prf = build_prf(kind);
            let a = prf.eval_block(input, 0);
            let b = prf.eval_block(input, 0);
            assert_eq!(a, b, "{kind} must be deterministic");
            let c = prf.eval_block(input, 1);
            assert_ne!(a, c, "{kind} must separate tweak domains");
            outputs.push(a);
        }
        // Different primitives should not collide on the same input.
        for i in 0..outputs.len() {
            for j in (i + 1)..outputs.len() {
                assert_ne!(outputs[i], outputs[j]);
            }
        }
    }

    #[test]
    fn cost_model_ordering_matches_table5() {
        // Table 5: SipHash > ChaCha20 > HighwayHash > AES > SHA-256 in QPS,
        // i.e. the reverse ordering in cycle cost.
        let [aes, sha, chacha, sip, highway] = TABLE5.map(|prf| prf.gpu_cycles_per_block);
        assert!(sip < chacha && chacha < highway && highway < aes && aes < sha);
        // On the CPU, AES-NI keeps AES well below the software-heavy
        // primitives (SHA-256, ChaCha20, HighwayHash); only the very light
        // SipHash comes close.
        let [aes, sha, chacha, _, highway] = TABLE5.map(|prf| prf.cpu_cycles_per_block);
        assert!([sha, chacha, highway].iter().all(|&cycles| cycles > aes));
    }

    #[test]
    fn each_kind_reads_its_own_table5_row() {
        let rows: Vec<&str> = PrfKind::ALL.iter().map(|kind| kind.name()).collect();
        assert_eq!(
            rows,
            [
                "AES-128 Block Cipher (Ctr Mode)",
                "Chacha20 Stream Cipher",
                "SipHash PRF"
            ]
        );
    }

    #[test]
    fn display_names_are_nonempty() {
        for kind in PrfKind::ALL {
            assert!(!kind.to_string().is_empty());
            assert!(!kind.security_note().is_empty());
        }
    }
}
