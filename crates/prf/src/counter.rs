//! A PRF decorator that counts invocations.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use pir_field::Block128;

use crate::{Prf, PrfKind};

/// Wraps any [`Prf`] and counts how many blocks it has evaluated.
///
/// The count is the "number of PRFs evaluated" metric of the paper's Figure 6
/// and also feeds the GPU cost model (PRF evaluations dominate kernel compute
/// time). Counting uses a relaxed atomic so concurrent simulated threads can
/// share one instance.
pub struct CountingPrf {
    inner: Arc<dyn Prf>,
    calls: AtomicU64,
}

impl CountingPrf {
    /// Wrap an existing PRF.
    #[must_use]
    pub fn new(inner: Arc<dyn Prf>) -> Self {
        Self {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of PRF block evaluations performed so far.
    #[must_use]
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Reset the counter to zero (e.g. between benchmark iterations).
    pub fn reset(&self) {
        self.calls.store(0, Ordering::Relaxed);
    }

    /// Record `n` block evaluations with a single atomic add.
    ///
    /// This is the batched-counting path used by [`Prf::eval_blocks`]: a
    /// frontier expansion of `n` seeds performs one read-modify-write instead
    /// of `n`, so counted runs no longer serialize every simulated thread on
    /// this counter.
    pub fn record_many(&self, n: u64) {
        self.calls.fetch_add(n, Ordering::Relaxed);
    }

    /// Access the wrapped PRF.
    #[must_use]
    pub fn inner(&self) -> &Arc<dyn Prf> {
        &self.inner
    }
}

impl Prf for CountingPrf {
    fn kind(&self) -> PrfKind {
        self.inner.kind()
    }

    fn eval_block(&self, input: Block128, tweak: u64) -> Block128 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.eval_block(input, tweak)
    }

    fn eval_blocks(&self, inputs: &[Block128], tweak: u64, out: &mut [Block128]) {
        self.record_many(inputs.len() as u64);
        self.inner.eval_blocks(inputs, tweak, out);
    }

    fn eval_blocks_pair(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        self.record_many(2 * inputs.len() as u64);
        self.inner
            .eval_blocks_pair(inputs, tweak_a, tweak_b, out_a, out_b);
    }

    fn expand_blocks_mmo(
        &self,
        inputs: &[Block128],
        tweak_a: u64,
        tweak_b: u64,
        out_a: &mut [Block128],
        out_b: &mut [Block128],
    ) {
        self.record_many(2 * inputs.len() as u64);
        self.inner
            .expand_blocks_mmo(inputs, tweak_a, tweak_b, out_a, out_b);
    }

    fn call_count(&self) -> Option<u64> {
        Some(self.calls())
    }

    fn backend_label(&self) -> &'static str {
        self.inner.backend_label()
    }

    fn simd_backend(&self) -> pir_field::SimdBackend {
        self.inner.simd_backend()
    }
}

impl std::fmt::Debug for CountingPrf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CountingPrf")
            .field("kind", &self.inner.kind())
            .field("calls", &self.calls())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_prf;

    #[test]
    fn counts_and_resets() {
        let counting = CountingPrf::new(build_prf(PrfKind::SipHash));
        assert_eq!(counting.calls(), 0);
        assert_eq!(counting.call_count(), Some(0));
        for i in 0..10 {
            let _ = counting.eval_block(Block128::from_u128(i), 0);
        }
        assert_eq!(counting.calls(), 10);
        counting.reset();
        assert_eq!(counting.calls(), 0);
    }

    #[test]
    fn output_matches_inner_prf() {
        let inner = build_prf(PrfKind::Chacha20);
        let counting = CountingPrf::new(inner.clone());
        let x = Block128::from_u128(77);
        assert_eq!(counting.eval_block(x, 5), inner.eval_block(x, 5));
        assert_eq!(counting.kind(), PrfKind::Chacha20);
    }

    /// The batched counter path must agree with the scalar path: counting n
    /// blocks via `eval_blocks` equals n scalar `eval_block` calls, and the
    /// outputs are bit-identical.
    #[test]
    fn batched_counts_match_scalar_path() {
        for kind in crate::PrfKind::ALL {
            let scalar = CountingPrf::new(build_prf(kind));
            let batched = CountingPrf::new(build_prf(kind));
            let inputs: Vec<Block128> = (0..33u128).map(Block128::from_u128).collect();

            let scalar_out: Vec<Block128> =
                inputs.iter().map(|x| scalar.eval_block(*x, 5)).collect();
            let mut batched_out = vec![Block128::ZERO; inputs.len()];
            batched.eval_blocks(&inputs, 5, &mut batched_out);

            assert_eq!(scalar_out, batched_out, "{kind} outputs must match");
            assert_eq!(scalar.calls(), 33, "{kind} scalar count");
            assert_eq!(batched.calls(), 33, "{kind} batched count");
        }
    }

    #[test]
    fn record_many_adds_once() {
        let counting = CountingPrf::new(build_prf(PrfKind::SipHash));
        counting.record_many(17);
        counting.record_many(3);
        assert_eq!(counting.calls(), 20);
    }

    #[test]
    fn counting_is_thread_safe() {
        let counting = Arc::new(CountingPrf::new(build_prf(PrfKind::SipHash)));
        std::thread::scope(|scope| {
            for t in 0..4 {
                let prf = Arc::clone(&counting);
                scope.spawn(move || {
                    for i in 0..100u128 {
                        let _ = prf.eval_block(Block128::from_u128(i + t), 0);
                    }
                });
            }
        });
        assert_eq!(counting.calls(), 400);
    }
}
