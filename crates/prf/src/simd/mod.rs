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
//! implementations selected behind it at runtime. The primitive's own module
//! splits a batch into whole kernel steps (ChaCha20 pads its tail into one
//! more step; see `ChaCha20Prf`'s sweeps). `ggm_x86` is the one kernel that
//! is not a primitive's: the GGM correction pass behind `GgmPrg`, whose
//! scalar reference lives in `prg.rs`.

#[cfg(target_arch = "x86_64")]
pub(crate) mod aes_x86;
#[cfg(target_arch = "aarch64")]
pub(crate) mod chacha_neon;
#[cfg(target_arch = "x86_64")]
pub(crate) mod chacha_x86;
#[cfg(target_arch = "x86_64")]
pub(crate) mod ggm_x86;
#[cfg(target_arch = "x86_64")]
pub(crate) mod siphash_x86;
