//! The runtime-wide device budget: a shared pool of simulated devices that
//! every table's batch dispatch draws from.
//!
//! Replica pools give a table *candidate* capacity; the budget decides how
//! much of the fleet a table may occupy *at this instant*. Each formed batch
//! acquires one token per device its replica spans for the duration of the
//! kernel launch, so cross-table load shifts capacity toward hot tables
//! (their workers acquire more often) instead of statically partitioning the
//! fleet — the "shared device budget" scheduling the ROADMAP calls for.

use std::sync::Arc;

use parking_lot::{Condvar, Mutex};

#[derive(Debug, Default)]
struct BudgetState {
    in_use: usize,
    /// Backend-reported resident table bytes held by in-flight leases. This
    /// is the figure the replica's residency rule computed (and the
    /// backend's ledger verifies) — the serve layer never re-derives table
    /// sizes itself.
    resident_bytes_in_use: u64,
    /// High-water mark of `resident_bytes_in_use` since the runtime started.
    peak_resident_bytes: u64,
    /// Next ticket to hand out / lowest ticket not yet granted: acquires are
    /// granted strictly in ticket order.
    next_ticket: u64,
    now_serving: u64,
}

/// A *fair* counting semaphore over the runtime's simulated device fleet.
///
/// Leases are granted in FIFO order, so a wide (multi-shard) request cannot
/// be starved by a steady stream of narrow ones that happen to fit the
/// remaining capacity — the cost is head-of-line blocking, which is exactly
/// the scheduling policy that makes "every acquire eventually succeeds"
/// true.
///
/// `None` capacity means an unbounded fleet: leases are granted immediately
/// but still tracked, so telemetry reports devices-in-use either way.
#[derive(Debug)]
pub(crate) struct DeviceBudget {
    capacity: Option<usize>,
    state: Mutex<BudgetState>,
    freed: Condvar,
}

impl DeviceBudget {
    pub(crate) fn new(capacity: Option<usize>) -> Self {
        Self {
            capacity,
            state: Mutex::new(BudgetState::default()),
            freed: Condvar::new(),
        }
    }

    pub(crate) fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Devices currently leased by in-flight batches.
    pub(crate) fn devices_in_use(&self) -> usize {
        self.state.lock().in_use
    }

    /// Backend-reported resident bytes held by in-flight leases.
    pub(crate) fn resident_bytes_in_use(&self) -> u64 {
        self.state.lock().resident_bytes_in_use
    }

    /// High-water mark of resident bytes held at once since startup.
    pub(crate) fn peak_resident_bytes(&self) -> u64 {
        self.state.lock().peak_resident_bytes
    }

    /// Block until `devices` tokens are free *and* every older waiter has
    /// been served, then lease them along with `resident_bytes` — the
    /// replica's planned resident footprint for the batch
    /// (tracked for telemetry, not gated on).
    ///
    /// The runtime validates at registration time that no single batch needs
    /// more devices than the whole budget, so with FIFO granting every
    /// acquire eventually succeeds once in-flight batches drain.
    pub(crate) fn acquire(self: &Arc<Self>, devices: usize, resident_bytes: u64) -> DeviceLease {
        let mut state = self.state.lock();
        if let Some(capacity) = self.capacity {
            debug_assert!(
                devices <= capacity,
                "a {devices}-device batch can never fit a {capacity}-device budget"
            );
            let ticket = state.next_ticket;
            state.next_ticket += 1;
            while state.now_serving != ticket || state.in_use + devices > capacity {
                self.freed.wait(&mut state);
            }
            state.now_serving += 1;
        }
        state.in_use += devices;
        state.resident_bytes_in_use += resident_bytes;
        state.peak_resident_bytes = state.peak_resident_bytes.max(state.resident_bytes_in_use);
        drop(state);
        // The next ticket in line may already fit alongside this lease.
        self.freed.notify_all();
        DeviceLease {
            budget: Arc::clone(self),
            devices,
            resident_bytes,
        }
    }
}

/// RAII lease over part of the device budget; freeing wakes blocked batches.
#[derive(Debug)]
pub(crate) struct DeviceLease {
    budget: Arc<DeviceBudget>,
    devices: usize,
    resident_bytes: u64,
}

impl Drop for DeviceLease {
    fn drop(&mut self) {
        let mut state = self.budget.state.lock();
        state.in_use = state.in_use.saturating_sub(self.devices);
        state.resident_bytes_in_use = state
            .resident_bytes_in_use
            .saturating_sub(self.resident_bytes);
        drop(state);
        self.budget.freed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn unbounded_budget_tracks_without_blocking() {
        let budget = Arc::new(DeviceBudget::new(None));
        let a = budget.acquire(4, 4096);
        let b = budget.acquire(1000, 1024);
        assert_eq!(budget.devices_in_use(), 1004);
        assert_eq!(budget.resident_bytes_in_use(), 5120);
        assert_eq!(budget.peak_resident_bytes(), 5120);
        drop(a);
        assert_eq!(budget.devices_in_use(), 1000);
        assert_eq!(budget.resident_bytes_in_use(), 1024);
        drop(b);
        assert_eq!(budget.devices_in_use(), 0);
        assert_eq!(budget.resident_bytes_in_use(), 0);
        assert_eq!(
            budget.peak_resident_bytes(),
            5120,
            "high-water mark persists"
        );
    }

    #[test]
    fn bounded_budget_blocks_until_freed() {
        let budget = Arc::new(DeviceBudget::new(Some(4)));
        let first = budget.acquire(3, 0);
        assert_eq!(budget.devices_in_use(), 3);

        // A 2-device acquire must wait for the 3-device lease to drop.
        let waiter = {
            let budget = Arc::clone(&budget);
            std::thread::spawn(move || {
                let lease = budget.acquire(2, 0);
                let seen = budget.devices_in_use();
                drop(lease);
                seen
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(budget.devices_in_use(), 3, "waiter must still be blocked");
        drop(first);
        assert_eq!(waiter.join().unwrap(), 2);
        assert_eq!(budget.devices_in_use(), 0);
    }

    #[test]
    fn wide_requests_are_not_starved_by_narrow_ones() {
        // Budget 2, one 1-device lease held. A 2-device acquire queues
        // first; a later 1-device acquire *would* fit the free capacity but
        // must wait its turn behind the wide request (FIFO), otherwise a
        // stream of narrow leases could starve the wide one forever.
        let budget = Arc::new(DeviceBudget::new(Some(2)));
        let order = Arc::new(parking_lot::Mutex::new(Vec::new()));
        let held = budget.acquire(1, 0);

        let wide = {
            let budget = Arc::clone(&budget);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let lease = budget.acquire(2, 0);
                order.lock().push("wide");
                drop(lease);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        let narrow = {
            let budget = Arc::clone(&budget);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let lease = budget.acquire(1, 0);
                order.lock().push("narrow");
                drop(lease);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        // The narrow request fits capacity (1 + 1 <= 2) but must not
        // overtake the queued wide request.
        assert!(order.lock().is_empty(), "nobody may be served yet");

        drop(held);
        wide.join().unwrap();
        narrow.join().unwrap();
        assert_eq!(*order.lock(), vec!["wide", "narrow"]);
        assert_eq!(budget.devices_in_use(), 0);
    }
}
