//! The kernel abstraction executed by the simulator.

use std::ops::Range;

use crate::{KernelCounters, LaunchConfig, MemoryTracker};

/// Per-block execution context handed to a kernel.
///
/// A real CUDA kernel sees `blockIdx`/`blockDim` and records nothing; the
/// simulated kernel additionally records the hardware events the cost model
/// needs through [`BlockContext::counters`] and [`BlockContext::memory`].
pub struct BlockContext<'a> {
    block_index: u64,
    config: LaunchConfig,
    counters: &'a KernelCounters,
    memory: &'a MemoryTracker,
}

impl<'a> BlockContext<'a> {
    /// Create a context for one block (used by the executor).
    #[must_use]
    pub fn new(
        block_index: u64,
        config: LaunchConfig,
        counters: &'a KernelCounters,
        memory: &'a MemoryTracker,
    ) -> Self {
        Self {
            block_index,
            config,
            counters,
            memory,
        }
    }

    /// Linear index of this block within the grid.
    #[must_use]
    pub fn block_index(&self) -> u64 {
        self.block_index
    }

    /// The launch configuration of the enclosing kernel.
    #[must_use]
    pub fn config(&self) -> LaunchConfig {
        self.config
    }

    /// Number of threads in this block.
    #[must_use]
    pub fn threads_per_block(&self) -> u64 {
        self.config.threads_per_block()
    }

    /// Shared event counters for the launch.
    #[must_use]
    pub fn counters(&self) -> &KernelCounters {
        self.counters
    }

    /// Shared device-memory tracker for the launch.
    #[must_use]
    pub fn memory(&self) -> &MemoryTracker {
        self.memory
    }
}

/// A contiguous range of one launch's blocks, handed to one host worker.
///
/// On a GPU the blocks resident at the same time share the L2 cache; the
/// host runs a worker's blocks one after another, so a kernel that wants
/// them to share what they read takes the whole range at once
/// ([`Kernel::execute_range`]).
pub struct BlockRange<'a> {
    indices: Range<u64>,
    config: LaunchConfig,
    counters: &'a KernelCounters,
    memory: &'a MemoryTracker,
}

impl<'a> BlockRange<'a> {
    /// The blocks `indices` of a launch (used by the executor).
    #[must_use]
    pub fn new(
        indices: Range<u64>,
        config: LaunchConfig,
        counters: &'a KernelCounters,
        memory: &'a MemoryTracker,
    ) -> Self {
        Self {
            indices,
            config,
            counters,
            memory,
        }
    }

    /// Linear indices of the blocks in this range.
    #[must_use]
    pub fn indices(&self) -> Range<u64> {
        self.indices.clone()
    }

    /// The context of block `index` of this range.
    ///
    /// # Panics
    ///
    /// Panics if `index` is not in the range.
    #[must_use]
    pub fn block(&self, index: u64) -> BlockContext<'a> {
        assert!(
            self.indices.contains(&index),
            "block {index} outside range {:?}",
            self.indices
        );
        BlockContext::new(index, self.config, self.counters, self.memory)
    }
}

/// A simulated GPU kernel.
///
/// Implemented for any `Fn(&BlockContext) + Sync` closure, so simple kernels
/// can be written inline; larger kernels (the DPF strategies) implement the
/// trait on a struct carrying their parameters.
pub trait Kernel: Sync {
    /// Execute one thread block.
    ///
    /// The executor calls this once per block in the grid (through
    /// [`Kernel::execute_range`]), potentially from many host threads
    /// concurrently; implementations must only communicate through
    /// interior-mutable state they own (mirroring global memory) and the
    /// context's counters.
    fn execute_block(&self, block: &BlockContext<'_>);

    /// Execute a contiguous range of blocks on one host worker. The default
    /// runs them one by one in index order; a kernel may run them together,
    /// as long as every block records what it would have recorded alone.
    fn execute_range(&self, range: &BlockRange<'_>) {
        for index in range.indices() {
            self.execute_block(&range.block(index));
        }
    }
}

impl<F> Kernel for F
where
    F: Fn(&BlockContext<'_>) + Sync,
{
    fn execute_block(&self, block: &BlockContext<'_>) {
        self(block);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closures_are_kernels() {
        fn assert_kernel<K: Kernel>(_k: &K) {}
        let kernel = |block: &BlockContext<'_>| {
            block.counters().record_flops(1);
        };
        assert_kernel(&kernel);
    }

    #[test]
    fn context_exposes_geometry() {
        let counters = KernelCounters::new();
        let memory = MemoryTracker::new();
        let config = LaunchConfig::linear(4, 128);
        let ctx = BlockContext::new(3, config, &counters, &memory);
        assert_eq!(ctx.block_index(), 3);
        assert_eq!(ctx.threads_per_block(), 128);
        assert_eq!(ctx.config().total_blocks(), 4);
        ctx.counters().record_flops(10);
        assert_eq!(counters.snapshot().flops, 10);
    }
}
