//! Heap allocations of one resident batch, counted by a global allocator on
//! the thread that runs it. The two clocks of `gpu_sim::Executor` differ in
//! nothing but the time a report carries, so a batch must allocate exactly as
//! often under the measured one as under the modelled one. The only test in
//! its binary, so no other test allocates while it counts; at one host thread
//! a launch is one range on the launching thread and spawns nothing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};

use gpu_sim::{DeviceBackend, DeviceSpec, GpuExecutor, HostBackend, TransferSrc};
use pir_dpf::{generate_keys, BatchEvalJob, DpfKey, DpfParams};
use pir_field::{Ring128, ShareMatrix};
use pir_prf::{build_prf, GgmPrg, PrfKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting the allocations (and reallocations) made
/// on a thread while it counts.
struct Counting;

impl Counting {
    fn count() {
        if COUNTING.try_with(Cell::get).unwrap_or(false) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
    }
}

// SAFETY: every call is forwarded unchanged to `System`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract is `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract is `System::alloc_zeroed`'s.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count();
        // SAFETY: the caller's contract is `System::realloc`'s.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract is `System::dealloc`'s.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations `run` makes on this thread.
fn allocations_of(run: impl FnOnce()) -> u64 {
    ALLOCATIONS.store(0, Ordering::Relaxed);
    COUNTING.set(true);
    run();
    COUNTING.set(false);
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Allocations of one warm `run_resident` of `keys` on `backend`: the table
/// is resident and one batch of the same shape has run before.
fn batch_allocations(
    backend: &dyn DeviceBackend,
    prg: &GgmPrg,
    keys: &[DpfKey],
    table: &ShareMatrix,
) -> u64 {
    let resident = backend.alloc(table.size_bytes() as u64);
    backend.upload_table(&resident, TransferSrc::Opaque(table.size_bytes() as u64));
    let job = BatchEvalJob::new(prg, PrfKind::Aes128, keys, table);
    black_box(job.run_resident(backend, &resident));
    let count = allocations_of(|| {
        black_box(job.run_resident(backend, &resident));
    });
    backend.free(resident);
    count
}

#[test]
fn a_batch_allocates_as_often_on_either_clock() {
    let mut rng = StdRng::seed_from_u64(0xA110C);
    let (rows, lanes) = (1000usize, 8usize);
    let data: Vec<u32> = (0..rows * lanes).map(|_| rng.gen()).collect();
    let table = ShareMatrix::from_rows(rows, lanes, data);
    let prg = GgmPrg::new(build_prf(PrfKind::Aes128));
    let params = DpfParams::for_domain(rows as u64);
    let keys: Vec<DpfKey> = (0..8)
        .map(|_| {
            let alpha = rng.gen_range(0..rows as u64);
            generate_keys(&prg, &params, alpha, Ring128::ONE, &mut rng).0
        })
        .collect();

    let simulated = GpuExecutor::with_host_threads(DeviceSpec::v100(), 1);
    let host = HostBackend::with_host_threads(DeviceSpec::v100(), 1);
    for batch in [1usize, 8] {
        let keys = &keys[..batch];
        let modelled = batch_allocations(&simulated, &prg, keys, &table);
        let measured = batch_allocations(&host, &prg, keys, &table);
        println!("{batch}-key batch: {modelled} allocations simulated, {measured} host");
        assert_eq!(
            measured, modelled,
            "{batch}-key batch: the host clock allocates differently"
        );
    }
}
