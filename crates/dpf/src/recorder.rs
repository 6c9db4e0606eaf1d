//! Instrumentation hooks used by the evaluation strategies.

use std::cell::Cell;

use gpu_sim::BlockContext;

/// Receives the hardware-relevant events emitted while a DPF is expanded.
///
/// The evaluation strategies are written once and used in three contexts:
/// plain CPU evaluation (no recording), counter-only analysis (Figure 6's
/// PRF/memory comparison) and simulated GPU kernels (where the recorder is a
/// [`gpu_sim::BlockContext`] feeding the cost model).
pub trait Recorder {
    /// `calls` PRF block evaluations were performed.
    fn prf_calls(&self, calls: u64);
    /// `bytes` of scratch node storage were allocated.
    fn alloc(&self, bytes: u64);
    /// `bytes` of scratch node storage were released.
    fn release(&self, bytes: u64);
    /// `bytes` were read from table/global memory.
    fn global_read(&self, bytes: u64);
    /// `bytes` were written to global memory (e.g. materialized leaf outputs).
    fn global_write(&self, bytes: u64);
    /// `ops` non-PRF arithmetic operations were performed.
    fn arithmetic(&self, ops: u64);
}

/// A recorder that ignores every event (plain CPU evaluation).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NullRecorder;

impl Recorder for NullRecorder {
    fn prf_calls(&self, _calls: u64) {}
    fn alloc(&self, _bytes: u64) {}
    fn release(&self, _bytes: u64) {}
    fn global_read(&self, _bytes: u64) {}
    fn global_write(&self, _bytes: u64) {}
    fn arithmetic(&self, _ops: u64) {}
}

/// Recorder backed by atomic counters, for strategy analysis outside a kernel
/// launch (e.g. the Figure 6 sweep).
#[derive(Debug, Default)]
pub struct CountingRecorder {
    prf: std::sync::atomic::AtomicU64,
    current_bytes: std::sync::atomic::AtomicU64,
    peak_bytes: std::sync::atomic::AtomicU64,
    read_bytes: std::sync::atomic::AtomicU64,
    write_bytes: std::sync::atomic::AtomicU64,
    ops: std::sync::atomic::AtomicU64,
}

impl CountingRecorder {
    /// Create a zeroed recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Total PRF calls recorded.
    #[must_use]
    pub fn prf_calls_total(&self) -> u64 {
        self.prf.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Peak scratch bytes live at any one time.
    #[must_use]
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total global-memory bytes read.
    #[must_use]
    pub fn read_bytes_total(&self) -> u64 {
        self.read_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total global-memory bytes written.
    #[must_use]
    pub fn write_bytes_total(&self) -> u64 {
        self.write_bytes.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Total non-PRF arithmetic operations.
    #[must_use]
    pub fn arithmetic_total(&self) -> u64 {
        self.ops.load(std::sync::atomic::Ordering::Relaxed)
    }
}

impl Recorder for CountingRecorder {
    fn prf_calls(&self, calls: u64) {
        self.prf
            .fetch_add(calls, std::sync::atomic::Ordering::Relaxed);
    }

    fn alloc(&self, bytes: u64) {
        let now = self
            .current_bytes
            .fetch_add(bytes, std::sync::atomic::Ordering::Relaxed)
            + bytes;
        self.peak_bytes
            .fetch_max(now, std::sync::atomic::Ordering::Relaxed);
    }

    fn release(&self, bytes: u64) {
        #[expect(
            clippy::expect_used,
            reason = "the closure always returns Some, so fetch_update cannot fail"
        )]
        self.current_bytes
            .fetch_update(
                std::sync::atomic::Ordering::Relaxed,
                std::sync::atomic::Ordering::Relaxed,
                |cur| Some(cur.saturating_sub(bytes)),
            )
            .expect("fetch_update with Some never fails");
    }

    fn global_read(&self, bytes: u64) {
        self.read_bytes
            .fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    fn global_write(&self, bytes: u64) {
        self.write_bytes
            .fetch_add(bytes, std::sync::atomic::Ordering::Relaxed);
    }

    fn arithmetic(&self, ops: u64) {
        self.ops
            .fetch_add(ops, std::sync::atomic::Ordering::Relaxed);
    }
}

/// A recorder that tags PRF cost with a specific cycle count and feeds a
/// [`BlockContext`] — this is how a DPF strategy becomes a simulated GPU
/// kernel.
///
/// One recorder serves one block, and the block's events are accumulated in
/// plain cells and flushed into the launch's [`gpu_sim::KernelCounters`]
/// once, when the recorder drops: issuing each as an atomic read-modify-write
/// on counters every host thread shares made a multi-threaded launch no
/// faster than one thread. Totals are identical by construction.
///
/// Scratch memory is tracked as the block's own live and peak bytes. Each
/// *rise* of the block's peak is published to the launch's
/// [`gpu_sim::MemoryTracker`] as it happens and the whole peak is returned on
/// drop, so the tracker holds the sum of the live recorders' peaks. The peak
/// is exact only when one worker runs the launch (one host thread, or a
/// launch of at most eight blocks): there one recorder is alive at a time
/// (the batch kernel records a block after computing its key group, and
/// drops each block's recorder before creating the next), so the tracker's
/// high-water mark is the largest block's. On several workers each holds
/// one, and the mark is an upper bound — never less.
pub struct KernelRecorder<'a, 'b> {
    ctx: &'a BlockContext<'b>,
    prf_cycles_per_call: u64,
    prf_calls: Cell<u64>,
    flops: Cell<u64>,
    read_bytes: Cell<u64>,
    write_bytes: Cell<u64>,
    live_bytes: Cell<u64>,
    peak_bytes: Cell<u64>,
}

impl<'a, 'b> KernelRecorder<'a, 'b> {
    /// Wrap a block context, charging `prf_cycles_per_call` per PRF call.
    #[must_use]
    pub fn new(ctx: &'a BlockContext<'b>, prf_cycles_per_call: u64) -> Self {
        Self {
            ctx,
            prf_cycles_per_call,
            prf_calls: Cell::new(0),
            flops: Cell::new(0),
            read_bytes: Cell::new(0),
            write_bytes: Cell::new(0),
            live_bytes: Cell::new(0),
            peak_bytes: Cell::new(0),
        }
    }
}

fn bump(cell: &Cell<u64>, by: u64) {
    cell.set(cell.get() + by);
}

impl Recorder for KernelRecorder<'_, '_> {
    fn prf_calls(&self, calls: u64) {
        bump(&self.prf_calls, calls);
    }

    fn alloc(&self, bytes: u64) {
        bump(&self.live_bytes, bytes);
        let rise = self.live_bytes.get().saturating_sub(self.peak_bytes.get());
        if rise > 0 {
            bump(&self.peak_bytes, rise);
            self.ctx.memory().alloc(rise);
        }
    }

    fn release(&self, bytes: u64) {
        self.live_bytes
            .set(self.live_bytes.get().saturating_sub(bytes));
    }

    fn global_read(&self, bytes: u64) {
        bump(&self.read_bytes, bytes);
    }

    fn global_write(&self, bytes: u64) {
        bump(&self.write_bytes, bytes);
    }

    fn arithmetic(&self, ops: u64) {
        bump(&self.flops, ops);
    }
}

impl Drop for KernelRecorder<'_, '_> {
    fn drop(&mut self) {
        let counters = self.ctx.counters();
        counters.record_prf_calls(self.prf_calls.get(), self.prf_cycles_per_call);
        counters.record_flops(self.flops.get());
        counters.record_global_read(self.read_bytes.get());
        counters.record_global_write(self.write_bytes.get());
        self.ctx.memory().release(self.peak_bytes.get());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_recorder_is_a_no_op() {
        let recorder = NullRecorder;
        recorder.prf_calls(10);
        recorder.alloc(10);
        recorder.release(10);
        recorder.global_read(10);
        recorder.global_write(10);
        recorder.arithmetic(10);
    }

    #[test]
    fn counting_recorder_tracks_peak() {
        let recorder = CountingRecorder::new();
        recorder.prf_calls(3);
        recorder.alloc(100);
        recorder.alloc(50);
        recorder.release(120);
        recorder.alloc(10);
        recorder.global_read(7);
        recorder.global_write(9);
        recorder.arithmetic(11);

        assert_eq!(recorder.prf_calls_total(), 3);
        assert_eq!(recorder.peak_bytes(), 150);
        assert_eq!(recorder.read_bytes_total(), 7);
        assert_eq!(recorder.write_bytes_total(), 9);
        assert_eq!(recorder.arithmetic_total(), 11);
    }
}
