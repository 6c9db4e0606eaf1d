//! OS threads a launch starts, counted in `/proc/self/task` while its blocks
//! run. The only test in its binary, so no other test's threads come or go
//! while it counts.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicUsize, Ordering};

use gpu_sim::{BlockContext, DeviceSpec, GpuExecutor, LaunchConfig};

fn os_threads() -> usize {
    std::fs::read_dir("/proc/self/task").unwrap().count()
}

/// The most OS threads the process had while a block of the launch ran.
fn threads_during(executor: &GpuExecutor, blocks: u32) -> usize {
    let most = AtomicUsize::new(0);
    executor.launch(
        "count_threads",
        LaunchConfig::linear(blocks, 32),
        |_: &BlockContext<'_>| {
            most.fetch_max(os_threads(), Ordering::Relaxed);
        },
    );
    most.into_inner()
}

#[test]
fn a_launch_of_at_most_eight_blocks_spawns_no_os_thread() {
    let before = os_threads();
    let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 4);
    for blocks in 1..=8 {
        assert_eq!(threads_during(&executor, blocks), before, "{blocks} blocks");
    }
    // The count does see a helper: nine blocks are two workers' worth, and a
    // spawned helper lives until the launch joins it, so every block that runs
    // after the spawn counts it.
    assert_eq!(threads_during(&executor, 9), before + 1, "9 blocks");
}
