//! Parity proofs for the frontier expansion engine.
//!
//! This module preserves the pre-frontier, per-node formulation of the
//! level-by-level and memory-bounded strategies as an executable reference,
//! and asserts two invariants of the rewrite for every PRF family and every
//! strategy:
//!
//! 1. **Bit-identical outputs** — the frontier path produces exactly the leaf
//!    shares of the scalar `eval_point` walk, on power-of-two,
//!    non-power-of-two and singleton domains.
//! 2. **Identical cost model** — every [`CountingRecorder`] counter (PRF
//!    calls, read/write bytes, peak scratch, arithmetic) and the
//!    [`gpu_sim::KernelReport`] derived from a kernel launch are exactly what
//!    the per-node reference records: the simulated cost model is independent
//!    of the host-side batching layout.

use pir_field::{LaneVector, Ring128, ShareMatrix};
use pir_prf::GgmPrg;

use crate::eval::{
    descend_both, descend_one, leaf_share, subtree_root_state, NodeState, NODE_STATE_BYTES,
};
use crate::recorder::Recorder;
use crate::strategy::{EvalStrategy, Subtree};
use crate::DpfKey;

/// Bytes charged per materialized leaf (mirrors `strategy::LEAF_BYTES`).
const LEAF_BYTES: u64 = 16;

/// The pre-refactor level-by-level expansion: one `NodeState` per node, one
/// `descend_both` (two PRF calls) per expansion.
#[allow(clippy::too_many_arguments)]
fn reference_level_by_level<R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    root: NodeState,
    level_offset: u32,
    depth_below: u32,
    base_index: u64,
    recorder: &R,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, &[Ring128]),
{
    let mut current = vec![root];
    recorder.alloc(NODE_STATE_BYTES);

    for level in 0..depth_below {
        let next_len = current.len() as u64 * 2;
        recorder.alloc(next_len * NODE_STATE_BYTES);
        let mut next = Vec::with_capacity(next_len as usize);
        for state in &current {
            let (left, right) =
                descend_both(prg, key, *state, (level_offset + level) as usize, recorder);
            next.push(left);
            next.push(right);
        }
        recorder.release(current.len() as u64 * NODE_STATE_BYTES);
        current = next;
    }

    recorder.alloc(current.len() as u64 * LEAF_BYTES);
    let values: Vec<Ring128> = current
        .iter()
        .map(|state| leaf_share(key, *state))
        .collect();
    recorder.arithmetic(values.len() as u64);
    visitor(base_index, &values);
    recorder.release(current.len() as u64 * LEAF_BYTES);
    recorder.release(current.len() as u64 * NODE_STATE_BYTES);
}

/// The pre-refactor memory-bounded traversal.
#[allow(clippy::too_many_arguments)]
fn reference_memory_bounded<R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    state: NodeState,
    level: u32,
    depth_below: u32,
    chunk_bits: u32,
    base_index: u64,
    recorder: &R,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, &[Ring128]),
{
    if depth_below <= chunk_bits {
        reference_level_by_level(
            prg,
            key,
            state,
            level,
            depth_below,
            base_index,
            recorder,
            visitor,
        );
        return;
    }
    recorder.alloc(NODE_STATE_BYTES);
    let (left, right) = descend_both(prg, key, state, level as usize, recorder);
    let half = 1u64 << (depth_below - 1);
    reference_memory_bounded(
        prg,
        key,
        left,
        level + 1,
        depth_below - 1,
        chunk_bits,
        base_index,
        recorder,
        visitor,
    );
    reference_memory_bounded(
        prg,
        key,
        right,
        level + 1,
        depth_below - 1,
        chunk_bits,
        base_index + half,
        recorder,
        visitor,
    );
    recorder.release(NODE_STATE_BYTES);
}

/// The pre-refactor branch-parallel expansion (unchanged by the frontier
/// engine, kept so the parity sweep covers every strategy).
#[allow(clippy::too_many_arguments)]
fn reference_branch_parallel<R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    root: NodeState,
    subtree: Subtree,
    depth_below: u32,
    base_index: u64,
    recorder: &R,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, &[Ring128]),
{
    let leaves = 1u64 << depth_below;
    let chunk_len = (leaves as usize).min(256);
    recorder.alloc(chunk_len as u64 * LEAF_BYTES);
    let mut buffer = Vec::with_capacity(chunk_len);
    let mut chunk_base = base_index;

    for local in 0..leaves {
        let mut state = root;
        for level in 0..depth_below {
            let right = (local >> (depth_below - 1 - level)) & 1 == 1;
            state = descend_one(
                prg,
                key,
                state,
                (subtree.prefix_bits + level) as usize,
                right,
                recorder,
            );
        }
        buffer.push(leaf_share(key, state));
        recorder.arithmetic(1);
        if buffer.len() == chunk_len {
            visitor(chunk_base, &buffer);
            chunk_base += buffer.len() as u64;
            buffer.clear();
        }
    }
    if !buffer.is_empty() {
        visitor(chunk_base, &buffer);
    }
    recorder.release(chunk_len as u64 * LEAF_BYTES);
}

/// Pre-refactor `eval_subtree_with`.
fn reference_eval_subtree_with<R, F>(
    prg: &GgmPrg,
    key: &DpfKey,
    subtree: Subtree,
    strategy: EvalStrategy,
    recorder: &R,
    visitor: &mut F,
) where
    R: Recorder,
    F: FnMut(u64, &[Ring128]),
{
    let root = subtree_root_state(prg, key, subtree.prefix, subtree.prefix_bits, recorder);
    let depth_below = key.depth() - subtree.prefix_bits;
    let base_index = subtree.base_index(key);

    match strategy {
        EvalStrategy::BranchParallel => reference_branch_parallel(
            prg,
            key,
            root,
            subtree,
            depth_below,
            base_index,
            recorder,
            visitor,
        ),
        EvalStrategy::LevelByLevel => reference_level_by_level(
            prg,
            key,
            root,
            subtree.prefix_bits,
            depth_below,
            base_index,
            recorder,
            visitor,
        ),
        EvalStrategy::MemoryBounded { chunk } => {
            let chunk = chunk.max(1).next_power_of_two();
            let chunk_bits = (chunk as u64).trailing_zeros().min(depth_below);
            reference_memory_bounded(
                prg,
                key,
                root,
                subtree.prefix_bits,
                depth_below,
                chunk_bits,
                base_index,
                recorder,
                visitor,
            );
        }
    }
}

/// Pre-refactor `eval_full_domain` (materialized output vector).
fn reference_eval_full_domain<R: Recorder>(
    prg: &GgmPrg,
    key: &DpfKey,
    strategy: EvalStrategy,
    recorder: &R,
) -> Vec<Ring128> {
    let domain = key.params.domain_size as usize;
    let padded = key.params.padded_size();
    recorder.alloc(padded * LEAF_BYTES);
    recorder.global_write(padded * LEAF_BYTES);
    let mut output = vec![Ring128::ZERO; domain];
    reference_eval_subtree_with(
        prg,
        key,
        Subtree::root(),
        strategy,
        recorder,
        &mut |base, values| {
            for (offset, value) in values.iter().enumerate() {
                let index = base as usize + offset;
                if index < domain {
                    output[index] = *value;
                }
            }
        },
    );
    recorder.release(padded * LEAF_BYTES);
    output
}

/// Pre-refactor fused DPF × matmul (mirrors `fusion::fused_eval_matmul` on
/// top of the reference expansion), for kernel-report parity.
fn reference_fused_eval_matmul<R: Recorder>(
    prg: &GgmPrg,
    key: &DpfKey,
    table: &ShareMatrix,
    strategy: EvalStrategy,
    recorder: &R,
) -> LaneVector {
    let lanes = table.lanes_per_row();
    let row_bytes = lanes as u64 * 4;
    let rows = table.rows() as u64;

    recorder.alloc(row_bytes);
    let mut acc = LaneVector::zeroed(lanes);
    reference_eval_subtree_with(
        prg,
        key,
        Subtree::root(),
        strategy,
        recorder,
        &mut |base, values| {
            if base >= rows {
                return;
            }
            let usable = ((rows - base) as usize).min(values.len());
            recorder.global_read(usable as u64 * row_bytes);
            recorder.arithmetic(usable as u64 * lanes as u64);
            pir_field::matvec_accumulate(&mut acc, &values[..usable], table, base as usize);
        },
    );
    recorder.global_write(row_bytes);
    recorder.release(row_bytes);
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchEvalJob;
    use crate::recorder::{CountingRecorder, NullRecorder};
    use crate::scheduler::{Scheduler, SchedulerConfig};
    use crate::strategy::eval_full_domain;
    use crate::{eval_point, generate_keys, DeviceSplit, DpfParams, TableResidency};
    use gpu_sim::{DeviceBackend, DeviceSpec, GpuExecutor, HostBackend};
    use pir_prf::{build_prf, PrfKind};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const STRATEGIES: [EvalStrategy; 4] = [
        EvalStrategy::BranchParallel,
        EvalStrategy::LevelByLevel,
        EvalStrategy::MemoryBounded { chunk: 4 },
        EvalStrategy::MemoryBounded { chunk: 128 },
    ];

    /// Domains exercising the padded power-of-two case, the non-power-of-two
    /// truncation, the singleton tree, and (5 000) a memory-bounded descent
    /// above several host runs, whose `K`-chunk events are accounted apart
    /// from them.
    const DOMAINS: [u64; 5] = [1, 13, 64, 200, 5000];
    const _: () = assert!(DOMAINS[4] > 2 * crate::tile::HOST_FRONTIER_LEAVES as u64);

    fn assert_counters_equal(actual: &CountingRecorder, expected: &CountingRecorder, what: &str) {
        assert_eq!(
            actual.prf_calls_total(),
            expected.prf_calls_total(),
            "{what}: prf calls"
        );
        assert_eq!(
            actual.peak_bytes(),
            expected.peak_bytes(),
            "{what}: peak scratch bytes"
        );
        assert_eq!(
            actual.read_bytes_total(),
            expected.read_bytes_total(),
            "{what}: read bytes"
        );
        assert_eq!(
            actual.write_bytes_total(),
            expected.write_bytes_total(),
            "{what}: write bytes"
        );
        assert_eq!(
            actual.arithmetic_total(),
            expected.arithmetic_total(),
            "{what}: arithmetic ops"
        );
    }

    /// For every PRF family and strategy, the frontier engine matches the
    /// per-node reference bit for bit — leaf shares, scalar `eval_point`
    /// agreement and every recorded counter.
    #[test]
    fn frontier_matches_reference_outputs_and_counters() {
        for kind in PrfKind::ALL {
            let prg = GgmPrg::new(build_prf(kind));
            let mut rng = StdRng::seed_from_u64(0xF00D ^ kind as u64);
            for domain in DOMAINS {
                let params = DpfParams::for_domain(domain);
                let alpha = rng.gen_range(0..domain);
                let (key_a, key_b) =
                    generate_keys(&prg, &params, alpha, Ring128::new(99), &mut rng);
                for strategy in STRATEGIES {
                    for key in [&key_a, &key_b] {
                        let frontier = CountingRecorder::new();
                        let got = eval_full_domain(&prg, key, strategy, &frontier);
                        let reference = CountingRecorder::new();
                        let want = reference_eval_full_domain(&prg, key, strategy, &reference);

                        let what =
                            format!("{kind} {strategy:?} domain={domain} party={}", key.party);
                        assert_eq!(got, want, "{what}: outputs");
                        assert_counters_equal(&frontier, &reference, &what);

                        // And the reference itself agrees with the scalar walk.
                        for j in (0..domain).step_by(7) {
                            assert_eq!(
                                got[j as usize],
                                eval_point(&prg, key, j),
                                "{what}: eval_point index {j}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// Subtree expansion (the cooperative-groups / multi-GPU path) gets the
    /// same parity guarantee.
    #[test]
    fn frontier_matches_reference_on_subtrees() {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(77);
        // 5 000 leaves in halves: each subtree still spans two host runs.
        for (domain, split_bits) in [(256, 2), (5000, 1)] {
            let params = DpfParams::for_domain(domain);
            let (key, _) = generate_keys(&prg, &params, 100, Ring128::ONE, &mut rng);
            for strategy in STRATEGIES {
                for subtree in Subtree::split(&key, split_bits) {
                    let frontier = CountingRecorder::new();
                    let mut got = Vec::new();
                    crate::strategy::eval_subtree_with(
                        &prg,
                        &key,
                        subtree,
                        strategy,
                        &frontier,
                        &mut |base, values| got.push((base, values.to_vec())),
                    );
                    let reference = CountingRecorder::new();
                    let mut want = Vec::new();
                    reference_eval_subtree_with(
                        &prg,
                        &key,
                        subtree,
                        strategy,
                        &reference,
                        &mut |base, values| want.push((base, values.to_vec())),
                    );
                    let what = format!("{strategy:?} subtree={subtree:?}");
                    assert_eq!(got, want, "{what}: chunks");
                    assert_counters_equal(&frontier, &reference, &what);
                }
            }
        }
    }

    /// A simulated kernel launch over the frontier engine reports exactly the
    /// counters the per-node reference implies: PRF calls, global traffic and
    /// peak memory of the `KernelReport` are unchanged by the rewrite.
    #[test]
    fn kernel_report_matches_reference_cost_model() {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(99);
        let rows = 500usize;
        let lanes = 8usize;
        let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
        let table = ShareMatrix::from_rows(rows, lanes, data);
        let params = DpfParams::for_domain(rows as u64);
        let (key, _) = generate_keys(&prg, &params, 123, Ring128::ONE, &mut rng);
        let keys = vec![key.clone()];

        for strategy in STRATEGIES {
            let reference = CountingRecorder::new();
            let _ = reference_fused_eval_matmul(&prg, &key, &table, strategy, &reference);

            let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
            let job =
                BatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table).with_strategy(strategy);
            let out = job.run_on(&executor);

            let what = format!("{strategy:?}");
            assert_eq!(
                out.report.counters.prf_calls,
                reference.prf_calls_total(),
                "{what}: report prf calls"
            );
            assert_eq!(
                out.report.counters.global_read_bytes,
                reference.read_bytes_total() + key.size_bytes() as u64,
                "{what}: report read bytes (fused reads + streamed key)"
            );
            assert_eq!(
                out.report.counters.global_write_bytes,
                reference.write_bytes_total(),
                "{what}: report write bytes"
            );
            assert_eq!(
                out.report.peak_memory_bytes,
                job.resident_bytes() + reference.peak_bytes(),
                "{what}: report peak memory"
            );
        }

        // A 9-key batch at one host thread runs a range of eight keys in
        // lockstep and a ragged range of one. Its counters are the per-key
        // references summed, and its peak is one key's on top of the
        // resident bytes: the references run one after another into one
        // recorder, which sums their events and keeps the largest peak.
        let keys: Vec<DpfKey> = (0..9)
            .map(|i| generate_keys(&prg, &params, i * 53, Ring128::ONE, &mut rng).0)
            .collect();
        let key_bytes: u64 = keys.iter().map(|key| key.size_bytes() as u64).sum();
        for strategy in STRATEGIES {
            let reference = CountingRecorder::new();
            for key in &keys {
                let _ = reference_fused_eval_matmul(&prg, key, &table, strategy, &reference);
            }
            let executor = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
            let job =
                BatchEvalJob::new(&prg, PrfKind::SipHash, &keys, &table).with_strategy(strategy);
            let out = job.run_on(&executor);

            let what = format!("{strategy:?}, 9 keys");
            let counters = out.report.counters;
            assert_eq!(counters.prf_calls, reference.prf_calls_total(), "{what}");
            assert_eq!(
                counters.global_read_bytes,
                reference.read_bytes_total() + key_bytes,
                "{what}: fused reads + streamed keys"
            );
            assert_eq!(
                counters.global_write_bytes,
                reference.write_bytes_total(),
                "{what}"
            );
            assert_eq!(counters.flops, reference.arithmetic_total(), "{what}");
            assert_eq!(
                out.report.peak_memory_bytes,
                job.resident_bytes() + reference.peak_bytes(),
                "{what}: one key's peak"
            );
        }
    }

    /// The host backend (wall-clock timing, no cost model) and the simulated
    /// backend (analytical roofline) must be *functionally indistinguishable*:
    /// for every PRF family, every strategy and both a single device and a
    /// non-power-of-two split (3 devices over 4 subtrees, one of them pure
    /// padding) the same [`BatchEvalJob`] yields
    /// bit-identical answer shares and, per device, an exactly-equal
    /// [`gpu_sim::CounterSnapshot`], the same peak device memory, and the
    /// same transfer/allocation ledger. Only the time attribution may differ.
    /// Every device's report carries the host SIMD provenance of its sweeps.
    #[test]
    fn host_backend_matches_simulated_backend() {
        for kind in PrfKind::ALL {
            let prg = GgmPrg::new(build_prf(kind));
            let mut rng = StdRng::seed_from_u64(0xBAC0 ^ kind as u64);
            let rows = 300usize;
            let lanes = 6usize;
            let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
            let table = ShareMatrix::from_rows(rows, lanes, data);
            let params = DpfParams::for_domain(rows as u64);
            let keys: Vec<DpfKey> = (0..3)
                .map(|_| {
                    let alpha = rng.gen_range(0..rows as u64);
                    generate_keys(&prg, &params, alpha, Ring128::ONE, &mut rng).0
                })
                .collect();

            for (strategy, devices) in STRATEGIES.into_iter().flat_map(|s| [(s, 1), (s, 3)]) {
                let simulated: Vec<GpuExecutor> = (0..devices)
                    .map(|_| GpuExecutor::with_host_threads(DeviceSpec::v100(), 1))
                    .collect();
                let hosts: Vec<HostBackend> = (0..devices)
                    .map(|_| HostBackend::with_host_threads(DeviceSpec::v100(), 1))
                    .collect();
                let sim_refs: Vec<&dyn DeviceBackend> =
                    simulated.iter().map(|e| e as &dyn DeviceBackend).collect();
                let host_refs: Vec<&dyn DeviceBackend> =
                    hosts.iter().map(|h| h as &dyn DeviceBackend).collect();

                let job = BatchEvalJob::new(&prg, kind, &keys, &table).with_strategy(strategy);
                let split = DeviceSplit::new(keys[0].depth(), devices).unwrap();
                let sim_out = job.run_on_devices(&split, &sim_refs);
                let host_out = job.run_on_devices(&split, &host_refs);

                let what = format!("{kind} {strategy:?} devices={devices}");
                assert_eq!(sim_out.results, host_out.results, "{what}: answer shares");
                assert_eq!(sim_out.per_device().len(), devices, "{what}: reports");
                assert_eq!(host_out.per_device().len(), devices, "{what}: reports");
                for (sim, host) in sim_out.per_device().iter().zip(host_out.per_device()) {
                    assert_eq!(sim.counters, host.counters, "{what}: kernel counters");
                    assert_eq!(
                        sim.peak_memory_bytes, host.peak_memory_bytes,
                        "{what}: peak device memory"
                    );
                    assert_eq!(sim.occupancy, host.occupancy, "{what}: occupancy");
                    for report in [sim, host] {
                        assert_eq!(
                            report.prf_backend,
                            prg.prf().backend_label(),
                            "{what}: PRF backend stamp"
                        );
                    }
                }

                for (sim, host) in sim_refs.iter().zip(&host_refs) {
                    assert_eq!(sim.stats(), host.stats(), "{what}: backend transfer ledger");
                    assert_eq!(
                        sim.stats().live_allocations(),
                        0,
                        "{what}: leaked allocations"
                    );
                }
            }
        }
    }

    /// The residency rule, pinned as a literal table computed on the commit
    /// that still built a memory plan per batch shape: covers a
    /// non-power-of-two device count, both outcomes, and the shapes the repo
    /// benchmark serves under the default budget.
    #[test]
    fn residency_rule_matches_the_pinned_table() {
        use TableResidency::{Resident, Streamed};
        const MIB: u64 = 1 << 20;
        // Small enough that the widest shape's slices fill a device on their
        // own and force streaming, so both outcomes are exercised.
        let tight = Scheduler::new(SchedulerConfig {
            memory_budget_bytes: 8 * MIB,
            ..SchedulerConfig::default()
        });
        let default = Scheduler::default();
        let mut outcomes = Vec::new();
        let mut pin = |scheduler: &Scheduler,
                       rows: u64,
                       lanes: u64,
                       devices: usize,
                       batches: [u64; 3],
                       residency: TableResidency,
                       resident_bytes: u64| {
            let params = DpfParams::for_domain(rows);
            let slices = DeviceSplit::new(params.domain_bits, devices)
                .unwrap()
                .slice_bytes(rows, lanes * 4);
            let slice_sum = match residency {
                Resident => slices.iter().sum(),
                Streamed => 0,
            };
            assert_eq!(resident_bytes, slice_sum, "resident bytes are the slices");
            for batch in batches {
                assert_eq!(
                    scheduler.residency(params, &slices, lanes * 4, batch),
                    (residency, resident_bytes),
                    "rows=2^{} devices={devices} batch={batch}",
                    rows.trailing_zeros()
                );
            }
            outcomes.push(residency);
        };
        pin(&tight, 1 << 12, 8, 1, [4, 37, 256], Resident, MIB / 8);
        pin(&tight, 1 << 16, 16, 3, [4, 37, 256], Resident, 4 * MIB);
        pin(&tight, 1 << 18, 32, 4, [4, 37, 256], Streamed, 0);
        pin(&default, 1 << 16, 16, 1, [1, 32, 64], Resident, 4 * MIB);
        pin(&default, 1 << 10, 8, 1, [1, 32, 64], Resident, MIB / 32);
        assert!(outcomes.contains(&Resident) && outcomes.contains(&Streamed));
    }

    /// For every PRF family × strategy, every SIMD backend this host supports
    /// produces bit-identical shares *and* exactly-equal counters to the
    /// forced-scalar backend on the same build: the vector paths change
    /// nothing observable except wall-clock time. PRF evaluation counts are
    /// checked through [`pir_prf::CountingPrf`] so the paper's "number of
    /// PRFs" metric is also proven backend-invariant.
    #[test]
    fn simd_backends_match_scalar_shares_and_counters() {
        use pir_prf::{build_prf_with_backend, CountingPrf, SimdBackend};
        use std::sync::Arc;

        for kind in PrfKind::ALL {
            // Keys are generated once, under the scalar backend; every
            // backend then expands the same keys.
            let scalar_counting = Arc::new(CountingPrf::new(build_prf_with_backend(
                kind,
                SimdBackend::Scalar,
            )));
            let scalar_prg = GgmPrg::new(scalar_counting.clone());
            let mut rng = StdRng::seed_from_u64(0x51D ^ kind as u64);
            for domain in DOMAINS {
                let params = DpfParams::for_domain(domain);
                let alpha = rng.gen_range(0..domain);
                let (key_a, key_b) =
                    generate_keys(&scalar_prg, &params, alpha, Ring128::new(3), &mut rng);
                for strategy in STRATEGIES {
                    for key in [&key_a, &key_b] {
                        scalar_counting.reset();
                        let scalar_recorder = CountingRecorder::new();
                        let want = eval_full_domain(&scalar_prg, key, strategy, &scalar_recorder);
                        let want_prf_calls = scalar_counting.calls();

                        for backend in SimdBackend::candidates() {
                            let counting =
                                Arc::new(CountingPrf::new(build_prf_with_backend(kind, *backend)));
                            let prg = GgmPrg::new(counting.clone());
                            let recorder = CountingRecorder::new();
                            let got = eval_full_domain(&prg, key, strategy, &recorder);

                            let what = format!(
                                "{kind} {strategy:?} domain={domain} party={} backend={}",
                                key.party,
                                backend.label()
                            );
                            assert_eq!(got, want, "{what}: shares");
                            assert_eq!(counting.calls(), want_prf_calls, "{what}: prf calls");
                            assert_counters_equal(&recorder, &scalar_recorder, &what);
                        }
                    }
                }
            }
        }
    }

    /// Keys arrive off the wire unvalidated, so the engine must expand *any*
    /// key exactly as the per-node reference does — not only the ones `Gen`
    /// emits. Hostile shape: every correction seed has its LSB set (a bit
    /// `Gen` always clears, and which a pass that parked the control bit in
    /// the seed's LSB would corrupt), `t_left`/`t_right`, the root seed and
    /// `final_cw` are arbitrary. Full-width leaves, lane-width (fused)
    /// leaves and every counter must match, on every SIMD backend.
    #[test]
    fn hostile_keys_expand_exactly_like_the_reference() {
        use crate::{fused_eval_matmul, LevelCorrection};
        use pir_field::{Block128, Secret};
        use pir_prf::{build_prf_with_backend, SimdBackend};

        let mut rng = StdRng::seed_from_u64(0x0BAD_5EED);
        for kind in PrfKind::ALL {
            for domain in [1u64, 13, 200, 1024] {
                let params = DpfParams::for_domain(domain);
                let lanes = 5usize;
                let data: Vec<u32> = (0..domain as usize * lanes).map(|_| rng.gen()).collect();
                let table = ShareMatrix::from_rows(domain as usize, lanes, data);
                for party in 0..2u8 {
                    let key = DpfKey {
                        party,
                        params,
                        root_seed: Secret::new(Block128::from_u128(rng.gen())),
                        levels: (0..params.domain_bits)
                            .map(|_| LevelCorrection {
                                seed: Secret::new(Block128::from_u128(rng.gen::<u128>() | 1)),
                                t_left: Secret::new(rng.gen()),
                                t_right: Secret::new(rng.gen()),
                            })
                            .collect(),
                        final_cw: Secret::new(Ring128::new(rng.gen())),
                    };
                    for backend in SimdBackend::candidates() {
                        let prg = GgmPrg::new(build_prf_with_backend(kind, *backend));
                        for strategy in STRATEGIES {
                            let what = format!(
                                "{kind} {strategy:?} domain={domain} party={party} {backend:?}"
                            );
                            let recorder = CountingRecorder::new();
                            let got = eval_full_domain(&prg, &key, strategy, &recorder);
                            let reference = CountingRecorder::new();
                            let want = reference_eval_full_domain(&prg, &key, strategy, &reference);
                            assert_eq!(got, want, "{what}: full-width shares");
                            assert_counters_equal(&recorder, &reference, &what);

                            let recorder = CountingRecorder::new();
                            let got = fused_eval_matmul(&prg, &key, &table, strategy, &recorder);
                            let reference = CountingRecorder::new();
                            let want = reference_fused_eval_matmul(
                                &prg, &key, &table, strategy, &reference,
                            );
                            assert_eq!(got, want, "{what}: fused answer share");
                            assert_counters_equal(&recorder, &reference, &what);
                        }
                    }
                }
            }
        }
    }

    /// The frontier result also reconstructs the point function (end-to-end
    /// sanity on top of the parity proofs), for every PRF family.
    #[test]
    fn frontier_reconstructs_for_all_prfs() {
        for kind in PrfKind::ALL {
            let prg = GgmPrg::new(build_prf(kind));
            let mut rng = StdRng::seed_from_u64(kind as u64 + 1);
            let params = DpfParams::for_domain(100);
            let (a, b) = generate_keys(&prg, &params, 55, Ring128::new(7), &mut rng);
            let va = eval_full_domain(&prg, &a, EvalStrategy::LevelByLevel, &NullRecorder);
            let vb = eval_full_domain(
                &prg,
                &b,
                EvalStrategy::memory_bounded_default(),
                &NullRecorder,
            );
            for j in 0..100usize {
                let expected = if j == 55 {
                    Ring128::new(7)
                } else {
                    Ring128::ZERO
                };
                assert_eq!(va[j] + vb[j], expected, "{kind} index {j}");
            }
        }
    }
}
