//! Per-architecture vectorized PRF sweeps.
//!
//! Each submodule implements the batched entry points of one primitive for
//! one instruction set, bit-identical to the portable scalar code in the
//! primitive's own module (which remains the semantic reference and the only
//! implementation of `Prf::eval_block`).
//!
//! The x86 kernels and their helpers are safe `#[target_feature]` functions:
//! the compiler checks that a caller enables the same features, and each
//! kernel is memory-safe for any arguments (it walks its slices or asserts
//! the lengths it indexes), so `unsafe` is left to its raw loads and stores.
//! Each submodule exposes *safe* wrappers whose one `unsafe { kernel(..) }`
//! call rests on the caller holding a [`pir_field::SimdBackend`] value that
//! passed runtime feature detection (`SimdBackend::supported_or_scalar`
//! enforces this at PRF construction), so a kernel cannot execute on a host
//! lacking its instructions. The wider kernels inside the `Avx2` backend —
//! VAES (ymm, and zmm with AVX-512F) for AES, AVX-512F for ChaCha20,
//! SipHash and the GGM pass — additionally check `is_x86_feature_detected!`
//! at their one call, and the PRFs report it in `Prf::backend_label`
//! (`"avx2+vaes"`, `"avx2+avx512"`).
//!
//! Layout mirrors Expander's dual-backend field pattern: one portable entry
//! point per primitive, `*_x86` (AVX2 / AES-NI / VAES / AVX-512F) and `*_neon`
//! implementations selected behind it at runtime. `ggm_x86` is the one
//! kernel that is not a primitive's: the GGM correction pass behind
//! `GgmPrg`, whose scalar reference lives in `prg.rs`.

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use pir_field::Block128;

#[cfg(target_arch = "x86_64")]
pub(crate) mod aes_x86;
#[cfg(target_arch = "aarch64")]
pub(crate) mod chacha_neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod chacha_x86;
#[cfg(target_arch = "x86_64")]
pub(crate) mod ggm_x86;
#[cfg(target_arch = "x86_64")]
pub(crate) mod highway_x86;
#[cfg(target_arch = "x86_64")]
pub(crate) mod sha256_x86;
#[cfg(target_arch = "x86_64")]
pub(crate) mod siphash_x86;

/// A primitive whose vector kernel evaluates `W` independent blocks per step
/// (ChaCha20, SHA-256), each lane under its own tweak.
///
/// The provided sweeps split a batch into whole steps plus a sub-`W` tail and
/// send the tail through one more *padded* step — zero blocks in the unused
/// lanes, only the real results stored — instead of `n` scalar block
/// functions. Both child tweaks of the tail share that step when they fit
/// (`2n <= W`): that is the whole sweep for the 1-, 2- and (at `W = 8`)
/// 4-node levels at the top of every memory-bounded chunk. The one shape a
/// padded step loses on is a lone block under a single tweak (one useful
/// lane), which keeps the scalar block function.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) trait LaneKernel<const W: usize>: crate::Prf {
    /// Whole vector steps over `inputs` (a non-zero multiple of `W` blocks),
    /// lane `j` of every step under `tweaks[j]`. Only called on an instance
    /// whose backend passed runtime detection of the kernel's instruction
    /// set.
    fn steps(&self, inputs: &[Block128], tweaks: &[u64; W], out: &mut [Block128]);

    /// [`LaneKernel::steps`] under one tweak, skipping the kernel's constant
    /// setup when there is no whole step (every sub-`W` level of a chunk).
    fn uniform_steps(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        if !inputs.is_empty() {
            self.steps(inputs, &[tweak; W], out);
        }
    }

    /// `out[i] = PRF(inputs[i], tweak)` through the vector kernel.
    fn sweep(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        assert_eq!(inputs.len(), out.len(), "sweep length mismatch");
        let whole = inputs.len() - inputs.len() % W;
        let (head, tail) = inputs.split_at(whole);
        let (head_out, tail_out) = out.split_at_mut(whole);
        self.uniform_steps(head, tweak, head_out);
        match tail {
            [] => {}
            [lone] => tail_out[0] = self.eval_block(*lone, tweak),
            _ => {
                let mut lanes = [Block128::ZERO; W];
                let mut results = [Block128::ZERO; W];
                lanes[..tail.len()].copy_from_slice(tail);
                self.steps(&lanes, &[tweak; W], &mut results);
                tail_out.copy_from_slice(&results[..tail.len()]);
            }
        }
    }

    /// `out_a[i] = PRF(inputs[i], tweak_a)`, `out_b[i] = PRF(inputs[i],
    /// tweak_b)` through the vector kernel.
    fn sweep_pair(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        let n = inputs.len() % W;
        if 2 * n > W || n == 0 {
            self.sweep(inputs, tweak_a, out_a);
            self.sweep(inputs, tweak_b, out_b);
            return;
        }
        assert_eq!(inputs.len(), out_a.len(), "paired sweep length mismatch");
        assert_eq!(inputs.len(), out_b.len(), "paired sweep length mismatch");
        let (head, tail) = inputs.split_at(inputs.len() - n);
        let (head_a, tail_a) = out_a.split_at_mut(head.len());
        let (head_b, tail_b) = out_b.split_at_mut(head.len());
        self.uniform_steps(head, tweak_a, head_a);
        self.uniform_steps(head, tweak_b, head_b);
        // Lanes [0, n) under tweak_a, lanes [n, 2n) under tweak_b.
        let mut lanes = [Block128::ZERO; W];
        let mut tweaks = [tweak_a; W];
        let mut results = [Block128::ZERO; W];
        lanes[..n].copy_from_slice(tail);
        lanes[n..2 * n].copy_from_slice(tail);
        tweaks[n..2 * n].fill(tweak_b);
        self.steps(&lanes, &tweaks, &mut results);
        tail_a.copy_from_slice(&results[..n]);
        tail_b.copy_from_slice(&results[n..2 * n]);
    }
}
