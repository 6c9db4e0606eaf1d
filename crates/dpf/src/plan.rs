//! Device residency: who owns which rows, and whether they stay put.
//!
//! The paper's serving argument is that the table upload is the one transfer
//! worth avoiding: at PCIe rates a table costs orders of magnitude more to
//! move than any batch's keys or answer shares. So each device's table slice
//! stays on the device across batches whenever a batch's working set fits
//! beside it, and is streamed per batch otherwise. Transfer time is strictly
//! increasing in bytes, so resident-when-it-fits is the minimum by
//! construction — there is nothing to search and nothing to cache. The rule
//! itself is [`Scheduler::residency`](crate::Scheduler::residency); this
//! module holds what it is stated in terms of:
//!
//! * [`DeviceSplit`] — the device-ownership rule every layer derives table
//!   slices from.
//! * [`TableResidency`] — the decision's two outcomes.
//! * [`PlanLedger`] — the residency counters a serving layer exports.

use std::ops::Range;

use serde::{Deserialize, Serialize};

use crate::strategy::Subtree;

/// Whether the table (or each device's table slice) stays on the device
/// across batches.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum TableResidency {
    /// Uploaded once (and again only after a hot reload); every subsequent
    /// batch avoids the transfer.
    Resident,
    /// Re-uploaded on every batch because the resident working set would not
    /// fit the device budget.
    Streamed,
}

/// The device-ownership rule (§3.2.7), written down once.
///
/// The padded DPF domain of `2^domain_bits` leaves is cut into
/// `next_pow2(devices)` equal subtrees; subtree `t` belongs to device
/// `t mod devices` (a non-power-of-two count gives the low-index devices one
/// extra subtree each), and a device's rows are its subtrees' leaves clamped
/// to the real, unpadded table. One device is this split at `split_bits = 0`:
/// a single subtree — the root — owned by device 0.
///
/// A server whose table is a masked view — a cluster shard, whose other
/// owners live in other processes — narrows the split to the rows the view
/// kept ([`DeviceSplit::restricted_to`]): it is the same decomposition with
/// fewer subtrees, and the skipped rows are zero.
///
/// Everything that needs to know which device holds which rows derives it
/// from here: [`Scheduler::residency`](crate::Scheduler::residency)'s
/// inputs, the slices [`BatchEvalJob`](crate::BatchEvalJob) uploads, expects
/// and sweeps, and
/// `pir_protocol::{shard_split_bits, shard_owned_ranges}`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeviceSplit {
    domain_bits: u32,
    split_bits: u32,
    /// The subtrees each device evaluates, in leaf order.
    owned: Vec<Vec<Subtree>>,
}

impl DeviceSplit {
    /// Split a `2^domain_bits`-leaf domain across `devices` devices; `None`
    /// if `devices` is zero or the tree is too shallow to give every device
    /// a subtree.
    #[must_use]
    pub fn new(domain_bits: u32, devices: usize) -> Option<Self> {
        if devices == 0 {
            return None;
        }
        let split_bits = (devices as u64).next_power_of_two().trailing_zeros();
        if split_bits > domain_bits {
            return None;
        }
        let mut owned = vec![Vec::new(); devices];
        for prefix in 0..1u64 << split_bits {
            owned[(prefix % devices as u64) as usize].push(Subtree {
                prefix,
                prefix_bits: split_bits,
            });
        }
        Some(Self {
            domain_bits,
            split_bits,
            owned,
        })
    }

    /// This split narrowed to the `kept` row ranges of a view of a
    /// `table_rows`-row table whose other rows are zero: every device keeps
    /// the part of its subtrees inside the aligned cover of `kept`
    /// ([`Subtree::cover`]). Rows past the table are nobody's, so a range
    /// that reaches the last row is covered to the padded end — a shard's
    /// ranges (whole subtrees clamped to the table) come back as those
    /// subtrees, and a view that kept every row leaves the split unchanged.
    ///
    /// Any cover gives the same shares, because the rows it skips contribute
    /// zero; what it skips depends on `kept` alone, never on a key. A device
    /// left without a subtree keeps one leaf of its first — a zero row, the
    /// one-row floor of [`DeviceSplit::slice_bytes`] — so every device still
    /// has a launch.
    #[must_use]
    pub fn restricted_to(mut self, kept: &[Range<u64>], table_rows: u64) -> Self {
        let domain_bits = self.domain_bits;
        let cover: Vec<Subtree> = kept
            .iter()
            .flat_map(|range| {
                let end = if range.end >= table_rows {
                    1 << domain_bits
                } else {
                    range.end
                };
                Subtree::cover(range.start..end, domain_bits)
            })
            .collect();
        for owned in &mut self.owned {
            let floor = owned[0].refined(domain_bits).next();
            *owned = owned
                .iter()
                .flat_map(|subtree| cover.iter().filter_map(|kept| subtree.intersection(*kept)))
                .collect();
            if owned.is_empty() {
                owned.extend(floor);
            }
        }
        self
    }

    /// Prefix bits the domain is split on (`0` for one device).
    #[must_use]
    pub fn split_bits(&self) -> u32 {
        self.split_bits
    }

    /// The subtrees each device evaluates, in device order; never empty for
    /// any device.
    #[must_use]
    pub fn owned_subtrees(&self) -> &[Vec<Subtree>] {
        &self.owned
    }

    /// The row ranges each device owns in a table of `table_rows` rows, in
    /// subtree order. Padded-only subtrees are dropped, so every real row
    /// of an unrestricted split lands in exactly one device's ranges.
    #[must_use]
    pub fn owned_ranges(&self, table_rows: u64) -> Vec<Vec<Range<u64>>> {
        self.owned
            .iter()
            .map(|owned| {
                owned
                    .iter()
                    .map(|subtree| {
                        let leaves = subtree.leaves(self.domain_bits);
                        leaves.start..leaves.end.min(table_rows)
                    })
                    .filter(|rows| !rows.is_empty())
                    .collect()
            })
            .collect()
    }

    /// Bytes of each device's table-slice allocation, with a one-row floor
    /// so a device whose subtrees are all padding still holds a non-empty
    /// allocation.
    #[must_use]
    pub fn slice_bytes(&self, table_rows: u64, row_bytes: u64) -> Vec<u64> {
        self.owned_ranges(table_rows)
            .iter()
            .map(|owned| {
                let rows: u64 = owned.iter().map(|range| range.end - range.start).sum();
                rows.max(1).saturating_mul(row_bytes)
            })
            .collect()
    }
}

/// Residency telemetry a server exports: how many bytes it pins on devices
/// and how the residency decision is paying off.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanLedger {
    /// Bytes the backend currently reports allocated (resident table slices
    /// between batches; includes in-flight batch buffers during a launch).
    pub resident_bytes: u64,
    /// Table uploads actually performed (first batch, post-reload refreshes,
    /// and every batch when streaming).
    pub transfers_issued: u64,
    /// Table uploads skipped because the table was already resident.
    pub transfers_avoided: u64,
}

impl PlanLedger {
    /// Merge another ledger into this one (summing counters), used by
    /// sharded/pooled servers that aggregate per-replica ledgers.
    #[must_use]
    pub fn merged_with(&self, other: &PlanLedger) -> PlanLedger {
        PlanLedger {
            resident_bytes: self.resident_bytes + other.resident_bytes,
            transfers_issued: self.transfers_issued + other.transfers_issued,
            transfers_avoided: self.transfers_avoided + other.transfers_avoided,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_power_of_two_devices_follow_subtree_striping() {
        // 3 devices over a 2^10 domain: 4 subtrees, device 0 owns {0, 3}.
        let split = DeviceSplit::new(10, 3).unwrap();
        assert_eq!(split.split_bits(), 2);
        assert_eq!(split.slice_bytes(1 << 10, 1), vec![512, 256, 256]);
        assert_eq!(
            split.slice_bytes(1 << 10, 32),
            vec![512 * 32, 256 * 32, 256 * 32]
        );
        // A short table clamps the tail subtree (device 0's second).
        assert_eq!(split.slice_bytes(700, 1), vec![256, 256, 188]);
        assert_eq!(
            split.owned_ranges(700),
            vec![vec![0..256], vec![256..512], vec![512..700]]
        );
    }

    #[test]
    fn padded_tail_devices_keep_a_one_row_floor() {
        // 40 rows over 3 devices: subtrees of span 16; device 2's subtree
        // (rows 32..48) clamps to 8, device 0's second subtree (48..64) is
        // pure padding — its slice floors at one row, like the dispatcher.
        let slices = DeviceSplit::new(6, 3).unwrap().slice_bytes(40, 8);
        assert_eq!(slices[0], 16 * 8);
        assert_eq!(slices[2], 8 * 8);
        let split = DeviceSplit::new(6, 4).unwrap();
        assert_eq!(
            split.owned_ranges(16),
            vec![vec![0..16], vec![], vec![], vec![]]
        );
        assert_eq!(split.slice_bytes(16, 8)[1], 8, "one-row floor");
    }

    #[test]
    fn zero_devices_rejected() {
        assert_eq!(DeviceSplit::new(4, 0), None);
    }

    #[test]
    fn ledger_merge_sums_counters() {
        let a = PlanLedger {
            resident_bytes: 10,
            transfers_issued: 1,
            transfers_avoided: 2,
        };
        let merged = a.merged_with(&a);
        assert_eq!(merged.resident_bytes, 20);
        assert_eq!(merged.transfers_issued, 2);
        assert_eq!(merged.transfers_avoided, 4);
    }
}
