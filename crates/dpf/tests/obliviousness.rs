//! Dynamic obliviousness check: the complement of the lexical `secret-flow`
//! lint. A server's work must not depend on the index a key hides, so for a
//! fixed public shape — table, batch size, strategy, grid mapping — every
//! observable the device layer exports must be *identical* across random
//! target indices and across the two parties: the launch's event counters
//! and peak memory, the backend's allocation/transfer ledger, and the number
//! of PRF blocks actually evaluated. A launch restricted to the subtrees a
//! masked view kept skips work — but which work is a function of the public
//! ownership alone, so it is held to the same standard.

use std::sync::Arc;

use gpu_sim::{BackendStats, CounterSnapshot, DeviceBackend, DeviceSpec, GpuExecutor, HostBackend};
use pir_dpf::{
    generate_keys, BatchEvalJob, DeviceSplit, DpfKey, DpfParams, EvalStrategy, GridMapping,
};
use pir_field::{Ring128, ShareMatrix};
use pir_prf::{build_prf, CountingPrf, GgmPrg, Prf, PrfKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const ROWS: usize = 300; // non-power-of-two: the padded leaves are swept too
/// Past two host runs of 2 048 leaves: the memory-bounded descent above a
/// run and the replay of its `K`-leaf chunks are held to the same standard.
const WIDE_ROWS: usize = 5000;
const LANES: usize = 6;
const BATCH: usize = 4;
/// One host worker runs a launch in ranges of eight blocks: nine keys make
/// a range run in lockstep and a ragged range of one.
const LOCKSTEP_BATCH: usize = 9;
const KIND: PrfKind = PrfKind::SipHash;

const SHAPES: [(EvalStrategy, GridMapping); 4] = [
    (EvalStrategy::BranchParallel, GridMapping::BlockPerQuery),
    (EvalStrategy::LevelByLevel, GridMapping::BlockPerQuery),
    (
        EvalStrategy::MemoryBounded { chunk: 16 },
        GridMapping::BlockPerQuery,
    ),
    (
        EvalStrategy::MemoryBounded { chunk: 128 },
        GridMapping::Cooperative { split_bits: 2 },
    ),
];

fn table(rng: &mut StdRng, rows: usize) -> ShareMatrix {
    let data: Vec<u32> = (0..rows * LANES).map(|_| rng.gen()).collect();
    ShareMatrix::from_rows(rows, LANES, data)
}

/// Both parties' keys for `batch` random indices, generated with a PRF the
/// servers' counter never sees.
fn random_batch(rng: &mut StdRng, rows: usize, batch: usize) -> [Vec<DpfKey>; 2] {
    let client = GgmPrg::new(build_prf(KIND));
    let params = DpfParams::for_domain(rows as u64);
    let (party0, party1) = (0..batch)
        .map(|_| {
            let alpha = rng.gen_range(0..rows as u64);
            generate_keys(&client, &params, alpha, Ring128::ONE, rng)
        })
        .unzip();
    [party0, party1]
}

fn backends(host_threads: usize) -> [Box<dyn DeviceBackend>; 2] {
    [
        Box::new(GpuExecutor::with_host_threads(
            DeviceSpec::v100(),
            host_threads,
        )),
        Box::new(HostBackend::with_host_threads(
            DeviceSpec::v100(),
            host_threads,
        )),
    ]
}

/// Everything the device layer lets an observer see of one batch.
#[derive(Debug, PartialEq)]
struct Observed {
    counters: CounterSnapshot,
    peak_memory_bytes: u64,
    ledger: BackendStats,
    prf_blocks: u64,
}

/// One device's ownership: the whole domain, or the cover of `kept`.
fn one_device(rows: usize, kept: Option<&[std::ops::Range<u64>]>) -> DeviceSplit {
    let whole = DeviceSplit::new(DpfParams::for_domain(rows as u64).domain_bits, 1).unwrap();
    match kept {
        None => whole,
        Some(kept) => whole.restricted_to(kept, rows as u64),
    }
}

fn observe(
    backend: &dyn DeviceBackend,
    keys: &[DpfKey],
    table: &ShareMatrix,
    strategy: EvalStrategy,
    mapping: GridMapping,
    split: &DeviceSplit,
) -> Observed {
    let counting = Arc::new(CountingPrf::new(build_prf(KIND)));
    let prg = GgmPrg::new(counting.clone() as Arc<dyn Prf>);
    let out = BatchEvalJob::new(&prg, KIND, keys, table)
        .with_strategy(strategy)
        .with_mapping(mapping)
        .run_on_devices(split, &[backend]);
    Observed {
        counters: out.report.counters,
        peak_memory_bytes: out.report.peak_memory_bytes,
        ledger: backend.stats(),
        prf_blocks: counting.calls(),
    }
}

/// Every observable of a launch of `batch` keys over `split` of a `rows`-row
/// table is one value, whatever the indices the keys hide (inside or outside
/// the owned rows alike) and whichever party's keys they are. Returns that
/// value per shape.
fn pinned_across_indices_and_parties(
    split: &DeviceSplit,
    seed: u64,
    rows: usize,
    batch: usize,
    shapes: &[(EvalStrategy, GridMapping)],
) -> Vec<Observed> {
    let mut rng = StdRng::seed_from_u64(seed);
    let table = table(&mut rng, rows);
    let mut pinned = Vec::new();
    for &(strategy, mapping) in shapes {
        let mut reference: Option<Observed> = None;
        for trial in 0..16 {
            for (party, keys) in random_batch(&mut rng, rows, batch).iter().enumerate() {
                // Fresh backends, so the whole ledger is this batch's delta.
                for backend in backends(1) {
                    let seen = observe(backend.as_ref(), keys, &table, strategy, mapping, split);
                    assert_eq!(seen.prf_blocks, seen.counters.prf_calls);
                    let what = format!(
                        "{strategy:?} {mapping:?} trial={trial} party={party} {:?}",
                        backend.name()
                    );
                    match &reference {
                        None => reference = Some(seen),
                        Some(first) => assert_eq!(&seen, first, "{what}"),
                    }
                }
            }
        }
        pinned.extend(reference);
    }
    pinned
}

#[test]
fn server_work_is_independent_of_the_index_and_the_party() {
    pinned_across_indices_and_parties(&one_device(ROWS, None), 0x0B11_7105, ROWS, BATCH, &SHAPES);
}

/// The deployed shape on a table spanning several host runs.
#[test]
fn server_work_past_one_host_run_is_independent_of_the_index_and_the_party() {
    let shape = (
        EvalStrategy::MemoryBounded { chunk: 128 },
        GridMapping::BlockPerQuery,
    );
    pinned_across_indices_and_parties(
        &one_device(WIDE_ROWS, None),
        0x0B11_7106,
        WIDE_ROWS,
        BATCH,
        &[shape],
    );
}

/// Keys that share a host worker's range run in lockstep, run by run; the
/// ranges are cut from the batch size alone, so nothing observable may
/// depend on which indices the keys of a range hide.
#[test]
fn a_lockstep_batch_with_a_ragged_range_is_independent_of_the_index_and_the_party() {
    let shape = (
        EvalStrategy::MemoryBounded { chunk: 128 },
        GridMapping::BlockPerQuery,
    );
    pinned_across_indices_and_parties(
        &one_device(WIDE_ROWS, None),
        0x0B11_7107,
        WIDE_ROWS,
        LOCKSTEP_BATCH,
        &[shape],
    );
}

/// A shard's launch: the second of two subtrees (clamped to the table), and
/// a view aligned to nothing. The random indices fall inside and outside
/// the owned rows; nothing observable may tell which.
#[test]
fn an_owned_subtree_launch_is_as_oblivious_as_a_full_one() {
    let whole = pinned_across_indices_and_parties(
        &one_device(ROWS, None),
        0x5AAD_0001,
        ROWS,
        BATCH,
        &SHAPES,
    );
    let upper_half = 256..ROWS as u64;
    for kept in [std::slice::from_ref(&upper_half), &[3..40, 100..101]] {
        let owned = pinned_across_indices_and_parties(
            &one_device(ROWS, Some(kept)),
            0x5AAD_0001,
            ROWS,
            BATCH,
            &SHAPES,
        );
        for (owned, whole) in owned.iter().zip(&whole) {
            // Less of everything the ownership decides, by construction.
            assert!(owned.prf_blocks < whole.prf_blocks, "{kept:?}");
            assert!(
                owned.ledger.upload_bytes < whole.ledger.upload_bytes,
                "{kept:?}"
            );
            assert!(
                owned.peak_memory_bytes < whole.peak_memory_bytes,
                "{kept:?}"
            );
        }
    }
}

/// Block-local recording must not make the counters depend on how blocks are
/// spread over host threads; peak memory with concurrent blocks is the sum
/// of their own peaks, never less than the single-thread high-water mark.
#[test]
fn counters_do_not_depend_on_host_threads() {
    let mut rng = StdRng::seed_from_u64(0x7412_EAD5);
    let table = table(&mut rng, ROWS);
    let [keys, _] = random_batch(&mut rng, ROWS, BATCH);
    for (strategy, mapping) in SHAPES {
        for (one, four) in backends(1).iter().zip(backends(4).iter()) {
            let split = one_device(ROWS, None);
            let serial = observe(one.as_ref(), &keys, &table, strategy, mapping, &split);
            let threaded = observe(four.as_ref(), &keys, &table, strategy, mapping, &split);
            let what = format!("{strategy:?} {mapping:?} {:?}", one.name());
            assert_eq!(threaded.counters, serial.counters, "{what}: counters");
            assert_eq!(threaded.prf_blocks, serial.prf_blocks, "{what}: PRF blocks");
            assert_eq!(threaded.ledger, serial.ledger, "{what}: ledger");
            assert!(
                threaded.peak_memory_bytes >= serial.peak_memory_bytes,
                "{what}: peak {} with 4 threads below {} with 1",
                threaded.peak_memory_bytes,
                serial.peak_memory_bytes
            );
        }
    }
}
