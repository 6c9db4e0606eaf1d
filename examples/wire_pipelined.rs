//! A pipelined multiplexed wire session vs the same session used one query
//! at a time, on the same skewed load — with queue-depth autoscaling and
//! concurrent hot reloads.
//!
//! ```text
//! cargo run --example wire_pipelined --release
//! ```
//!
//! Two phases run the identical skewed two-table workload (hot table takes
//! ~70% of queries) through the wire boundary:
//!
//! * **lockstep** — a window-1 session issuing blocking `query()` calls.
//!   Every device batch carries one query: the batcher never sees two
//!   requests at once.
//! * **pipelined** — a 32-deep session window. The batcher sees
//!   the whole window, forms real batches, the autoscaler grows the hot
//!   table's replica pool under the backlog, and responses come back **out
//!   of order** (fast cold-table answers overtake slow hot-table batches).
//!   Meanwhile an admin session hammers the hot table with hot reloads;
//!   version-stamped responses catch every query whose two shares straddled
//!   a reload, and the session retries it — zero garbage reconstructions.
//!
//! The printed comparison is *modeled device throughput* (answered queries
//! per second of simulated device makespan), the same metric the
//! `replicated` example reports: pipelining must deliver at least 2x.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use gpu_pir_repro::pir_prf::PrfKind;
use gpu_pir_repro::pir_protocol::PirTable;
use gpu_pir_repro::pir_serve::{
    AutoscalePolicy, PirServeRuntime, ServeConfig, StatsSnapshot, TableConfig, WireFrontend,
};
use gpu_pir_repro::pir_wire::{loopback_pair, PirSession, PirTransport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const HOT_ENTRIES: u64 = 1 << 13;
const HOT_BYTES: usize = 32;
const COLD_ENTRIES: u64 = 1 << 9;
const COLD_BYTES: usize = 8;
const QUERIES: usize = 320;
const WINDOW: usize = 32;

/// Hot-table rows the admin churns during the pipelined phase, and the
/// rotation of fill bytes it writes. A mixed-version reconstruction would
/// yield a row matching *none* of the allowed fills.
const CHURNED_ROWS: [u64; 4] = [11, 97, 1024, 8000];
const CHURN_FILLS: [u8; 3] = [0xA1, 0xB2, 0xC3];

fn hot_fill(row: u64, offset: usize) -> u8 {
    (row as u8).wrapping_mul(31).wrapping_add(offset as u8)
}

fn cold_fill(row: u64, offset: usize) -> u8 {
    (row as u8).wrapping_mul(13).wrapping_add(offset as u8)
}

fn build_runtime(seed: u64) -> Arc<PirServeRuntime> {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .queue_capacity(8192)
            .per_tenant_quota(4096)
            .device_budget(16)
            .seed(seed)
            .build()
            .expect("valid serve config"),
    );
    let hot = TableConfig::builder()
        .prf_kind(PrfKind::SipHash)
        .replica_range(1, 4)
        .autoscale(AutoscalePolicy {
            high_depth: 8,
            low_depth: 1,
            sustain_ticks: 2,
            tick: Duration::from_millis(1),
        })
        .max_batch(16)
        .max_wait(Duration::from_millis(1))
        .build()
        .expect("valid hot config");
    runtime
        .register_table(
            "hot",
            PirTable::generate(HOT_ENTRIES, HOT_BYTES, hot_fill),
            hot,
        )
        .expect("register hot");
    let cold = TableConfig::builder()
        .prf_kind(PrfKind::SipHash)
        .max_batch(16)
        .max_wait(Duration::from_millis(1))
        .build()
        .expect("valid cold config");
    runtime
        .register_table(
            "cold",
            PirTable::generate(COLD_ENTRIES, COLD_BYTES, cold_fill),
            cold,
        )
        .expect("register cold");
    Arc::new(runtime)
}

/// Serve one loopback connection, returning the client end.
fn serve_conn(
    runtime: &Arc<PirServeRuntime>,
    party: u8,
) -> (Box<dyn PirTransport>, std::thread::JoinHandle<()>) {
    let (client_end, server_end) = loopback_pair();
    let frontend = WireFrontend::new(runtime.handle(), party);
    let worker = std::thread::spawn(move || {
        frontend
            .serve(Box::new(server_end))
            .expect("serve connection");
    });
    (Box::new(client_end), worker)
}

/// The skewed query schedule, identical across both phases.
fn schedule(rng: &mut StdRng) -> Vec<(&'static str, u64)> {
    (0..QUERIES)
        .map(|_| {
            if rng.gen_range(0..10u32) < 7 {
                ("hot", rng.gen_range(0..HOT_ENTRIES))
            } else {
                ("cold", rng.gen_range(0..COLD_ENTRIES))
            }
        })
        .collect()
}

/// Check one reconstructed row against every value it could legitimately
/// hold (pre-churn fill, or any churn rotation fill for churned rows).
fn check_row(table: &str, index: u64, row: &[u8]) {
    let pristine: Vec<u8> = match table {
        "hot" => (0..HOT_BYTES).map(|o| hot_fill(index, o)).collect(),
        _ => (0..COLD_BYTES).map(|o| cold_fill(index, o)).collect(),
    };
    if row == pristine {
        return;
    }
    if table == "hot" && CHURNED_ROWS.contains(&index) {
        for fill in CHURN_FILLS {
            if row.iter().all(|&b| b == fill) {
                return;
            }
        }
    }
    panic!(
        "row {index} of '{table}' reconstructed to garbage — a mixed-version \
         share pair slipped through: {row:02x?}"
    );
}

fn fleet_makespan_s(stats: &StatsSnapshot) -> f64 {
    stats
        .tables
        .iter()
        .map(|t| t.device_makespan_s())
        .fold(0.0f64, f64::max)
}

struct PhaseOutcome {
    stats: StatsSnapshot,
    wall: Duration,
    out_of_order: u64,
    version_retries: u64,
    skew_failures: u64,
}

/// Phase 1: a window-1 session, one blocking query at a time.
fn run_lockstep() -> PhaseOutcome {
    let runtime = build_runtime(1001);
    let (t0, w0) = serve_conn(&runtime, 0);
    let (t1, w1) = serve_conn(&runtime, 1);
    let mut session = PirSession::connect_with_window(t0, t1, "loadgen", 1).expect("connect");

    let mut rng = StdRng::seed_from_u64(2026);
    let started = Instant::now();
    for (table, index) in schedule(&mut rng) {
        let row = session.query(table, index, &mut rng).expect("answered");
        check_row(table, index, &row);
    }
    let wall = started.elapsed();
    let stats = session.pipeline_stats();
    let snapshot = runtime.stats();
    drop(session);
    w0.join().expect("server 0");
    w1.join().expect("server 1");
    runtime.shutdown();
    PhaseOutcome {
        stats: snapshot,
        wall,
        out_of_order: stats.out_of_order_completions,
        version_retries: stats.version_retries,
        skew_failures: stats.version_skew_failures,
    }
}

/// Phase 2: 32-deep pipeline, autoscaling, concurrent reloads.
fn run_pipelined() -> PhaseOutcome {
    let runtime = build_runtime(1001);
    let (t0, w0) = serve_conn(&runtime, 0);
    let (t1, w1) = serve_conn(&runtime, 1);
    let mut session = PirSession::connect_with_window(t0, t1, "loadgen", WINDOW).expect("connect");

    // The admin: its own session on fresh connections, churning hot-table
    // rows for the whole traffic phase. Every update moves the table
    // version, so in-flight queries can straddle it — the stamps must catch
    // each straddle.
    let stop_churn = Arc::new(AtomicBool::new(false));
    let churn = {
        let (a0, aw0) = serve_conn(&runtime, 0);
        let (a1, aw1) = serve_conn(&runtime, 1);
        let stop = Arc::clone(&stop_churn);
        let handle = std::thread::spawn(move || {
            let mut admin = PirSession::connect(a0, a1, "admin").expect("admin connect");
            let mut round = 0usize;
            let mut updates = 0u64;
            while !stop.load(Ordering::Acquire) {
                let row = CHURNED_ROWS[round % CHURNED_ROWS.len()];
                let fill = CHURN_FILLS[round % CHURN_FILLS.len()];
                admin
                    .update_entry("hot", row, &[fill; HOT_BYTES])
                    .expect("hot reload");
                updates += 1;
                round += 1;
                std::thread::sleep(Duration::from_micros(300));
            }
            drop(admin);
            updates
        });
        (handle, aw0, aw1)
    };

    // A query that straddles hot reloads *twice* fails with the typed
    // `VersionSkew` after its one transparent retry — never with a garbage
    // row. Under this example's deliberately brutal churn that is rare but
    // legitimate, and the documented client behavior is to re-issue; the
    // bound keeps a hypothetical livelock from hanging CI.
    let mut resubmits = 0u64;
    fn settle(
        session: &mut PirSession,
        rng: &mut StdRng,
        done: gpu_pir_repro::pir_wire::CompletedQuery,
        completed: &mut usize,
        resubmits: &mut u64,
    ) {
        match done.outcome {
            Ok(row) => {
                check_row(&done.table, done.index, &row);
                *completed += 1;
            }
            Err(err @ gpu_pir_repro::pir_wire::WireError::VersionSkew { .. }) => {
                *resubmits += 1;
                assert!(*resubmits < 100, "skew resubmissions runaway: {err}");
                session
                    .submit(&done.table, done.index, rng)
                    .expect("resubmit after skew");
            }
            Err(err) => panic!("query {} failed: {err}", done.query_id),
        }
    }

    let mut rng = StdRng::seed_from_u64(2026);
    let started = Instant::now();
    let mut completed = 0usize;
    for (table, index) in schedule(&mut rng) {
        session.submit(table, index, &mut rng).expect("submitted");
        // Opportunistically collect whatever already finished.
        while session.ready() > 0 {
            let done = session.poll().expect("poll");
            settle(&mut session, &mut rng, done, &mut completed, &mut resubmits);
        }
    }
    while completed < QUERIES {
        let done = session.poll().expect("poll");
        settle(&mut session, &mut rng, done, &mut completed, &mut resubmits);
    }
    let wall = started.elapsed();

    stop_churn.store(true, Ordering::Release);
    let (churn_handle, aw0, aw1) = churn;
    let updates = churn_handle.join().expect("churn thread");
    aw0.join().expect("admin server 0");
    aw1.join().expect("admin server 1");

    let stats = session.pipeline_stats();
    let snapshot = runtime.stats();
    drop(session);
    w0.join().expect("server 0");
    w1.join().expect("server 1");
    runtime.shutdown();
    println!(
        "  (churn: {updates} hot reloads applied concurrently; table now at versions {:?})",
        snapshot.table("hot").expect("hot stats").table_versions
    );
    PhaseOutcome {
        stats: snapshot,
        wall,
        out_of_order: stats.out_of_order_completions,
        version_retries: stats.version_retries,
        skew_failures: stats.version_skew_failures,
    }
}

fn report(label: &str, outcome: &PhaseOutcome) -> f64 {
    let makespan = fleet_makespan_s(&outcome.stats);
    let qps = outcome.stats.answered() as f64 / makespan.max(1e-12);
    println!(
        "{label}: answered {} in {:.2?} wall; occupancy {:.2} q/launch; modeled \
         makespan {:.2} ms -> {qps:.0} q/s; out-of-order {}, stamp retries {}",
        outcome.stats.answered(),
        outcome.wall,
        outcome.stats.batch_occupancy(),
        makespan * 1e3,
        outcome.out_of_order,
        outcome.version_retries,
    );
    for table in &outcome.stats.tables {
        println!(
            "  {:<4} answered {:>4}, batches {:>4}, active replicas {:?}, \
             scale-ups {}, scale-downs {}",
            table.table,
            table.answered,
            table.batches,
            table.active_replicas,
            table.scale_up_events,
            table.scale_down_events,
        );
    }
    qps
}

fn main() {
    println!(
        "skewed load ({QUERIES} queries, hot 70%/cold 30%) through the wire \
         boundary, twice\n"
    );

    println!("--- lockstep (window 1, blocking queries) ---");
    let lockstep = run_lockstep();
    let lockstep_qps = report("lockstep ", &lockstep);

    println!("\n--- pipelined (window {WINDOW}, autoscaling, reload churn) ---");
    let pipelined = run_pipelined();
    let pipelined_qps = report("pipelined", &pipelined);

    println!(
        "\nmodeled throughput: {lockstep_qps:.0} q/s lockstep -> {pipelined_qps:.0} q/s \
         pipelined ({:.2}x)",
        pipelined_qps / lockstep_qps
    );

    // The acceptance gates.
    assert_eq!(lockstep.out_of_order, 0, "lockstep cannot reorder");
    assert!(
        pipelined.out_of_order > 0,
        "pipelined phase must observe out-of-order completions"
    );
    assert_eq!(lockstep.skew_failures, 0, "no churn ran in phase 1");
    assert_eq!(lockstep.version_retries, 0, "no reload ran in phase 1");
    // Note on pipelined.skew_failures: a nonzero count is fine — each one
    // is a query that straddled reloads twice, was *detected* by the
    // stamps, failed typed, and was re-issued above. The "zero
    // mixed-version reconstructions" guarantee is enforced by check_row
    // panicking on any garbage row, which no completion produced.
    assert!(
        pipelined_qps >= 2.0 * lockstep_qps,
        "pipelining must at least double modeled throughput \
         ({lockstep_qps:.0} -> {pipelined_qps:.0} q/s)"
    );
    println!(
        "\nall {QUERIES} rows reconstructed exactly in both phases; \
         zero mixed-version reconstructions"
    );
}
