//! Soak test: SLO tiers + autoscaler + client cache under a flash crowd.
//!
//! ```text
//! cargo run --example soak --release            # full soak (~10 s trace)
//! SOAK_QUICK=1 cargo run --example soak --release   # CI smoke (~2 s trace)
//! ```
//!
//! Drives a deterministic `pir-load` trace — Zipf indices, a diurnal swing,
//! and a 10x flash crowd on the interactive tenant — against a hosted table
//! with two SLO tiers and an elastic replica pool, while a reloader thread
//! hot-swaps a row mid-soak. The run asserts the whole PR 10 contract:
//!
//! * every reconstructed row (fresh or cache-hit) matches the ground truth
//!   *for the table generation that answered it* — zero mixed-version
//!   reconstructions across hot reloads;
//! * the interactive tier keeps answering through the flash, its median
//!   latency does not trail the background tier's, and whatever is shed
//!   (displacement + queue-full) skews to the background tier;
//! * the autoscaler's reaction to queue depth is reported (a work-conserving
//!   batch former leaves little standing queue at these rates);
//! * the client-side hot-entry cache hits, and reload generation bumps
//!   invalidate it.
//!
//! Emits the structured report to `BENCH_soak.json` (override with
//! `BENCH_SOAK_JSON=<path>`).

use std::time::Duration;

use gpu_pir_repro::pir_load::{
    replay, Diurnal, FlashCrowd, ReplayConfig, RuntimeTarget, SoakReport, TenantSpec, TraceConfig,
};
use gpu_pir_repro::pir_prf::PrfKind;
use gpu_pir_repro::pir_protocol::PirTable;
use gpu_pir_repro::pir_serve::{AutoscalePolicy, PirServeRuntime, ServeConfig, TableConfig};

const TABLE: &str = "embeddings";
const ENTRY_BYTES: usize = 16;
/// The row the reloader thread rewrites; every other row keeps its seed
/// content for the whole soak.
const RELOADED_INDEX: u64 = 0;

fn base_fill(row: u64, offset: usize) -> u8 {
    (row as u8).wrapping_mul(31).wrapping_add(offset as u8)
}

/// Content of `RELOADED_INDEX` after `updates` hot reloads.
fn reloaded_row(updates: u64) -> Vec<u8> {
    vec![(updates as u8).wrapping_mul(17).wrapping_add(3); ENTRY_BYTES]
}

/// Ground truth for `(index, generation)`: generation `g` means `g - 1`
/// reloads were applied (versions start at 1), and every reload rewrites
/// only `RELOADED_INDEX`. Pure, so worker threads verify with no shared
/// state — a mixed-version reconstruction produces garbage that matches no
/// generation and lands in the corrupt counter.
fn expected_row(index: u64, generation: u64) -> Vec<u8> {
    let updates = generation.saturating_sub(1);
    if index == RELOADED_INDEX && updates > 0 {
        reloaded_row(updates)
    } else {
        (0..ENTRY_BYTES).map(|o| base_fill(index, o)).collect()
    }
}

struct SoakKnobs {
    entries: u64,
    duration: Duration,
    base_rps: f64,
    flash_start: Duration,
    flash_duration: Duration,
    workers: usize,
    reload_every: Duration,
    queue_capacity: usize,
}

fn knobs(quick: bool) -> SoakKnobs {
    if quick {
        SoakKnobs {
            entries: 512,
            duration: Duration::from_secs(2),
            base_rps: 600.0,
            flash_start: Duration::from_millis(600),
            flash_duration: Duration::from_millis(700),
            workers: 24,
            reload_every: Duration::from_millis(250),
            queue_capacity: 8,
        }
    } else {
        SoakKnobs {
            entries: 1 << 10,
            duration: Duration::from_secs(10),
            base_rps: 1000.0,
            flash_start: Duration::from_secs(3),
            flash_duration: Duration::from_secs(3),
            workers: 32,
            reload_every: Duration::from_millis(400),
            queue_capacity: 16,
        }
    }
}

fn main() {
    let quick = std::env::var("SOAK_QUICK").is_ok_and(|v| v == "1");
    let knobs = knobs(quick);
    println!(
        "soak: {} mode — {}s trace, {} rps base, 10x flash, {} workers",
        if quick { "quick" } else { "full" },
        knobs.duration.as_secs(),
        knobs.base_rps,
        knobs.workers
    );

    // --- Serving side: one table, two SLO tiers, elastic replicas. -------
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .queue_capacity(knobs.queue_capacity)
            .per_tenant_quota(knobs.workers)
            .seed(2026)
            .build()
            .expect("valid serve config"),
    );
    let table = PirTable::generate(knobs.entries, ENTRY_BYTES, base_fill);
    let config = TableConfig::builder()
        .prf_kind(PrfKind::Chacha20)
        .max_batch(32)
        .max_wait(Duration::from_millis(2))
        .tier("interactive", Duration::from_millis(2), 0)
        .tier("background", Duration::from_millis(20), 2)
        .assign_tenant("mobile-app", "interactive")
        .default_tier("background")
        .replica_range(1, 3)
        .autoscale(AutoscalePolicy {
            high_depth: 4,
            low_depth: 1,
            sustain_ticks: 2,
            tick: Duration::from_millis(1),
        })
        .build()
        .expect("valid table config");
    runtime
        .register_table(TABLE, table, config)
        .expect("register table");

    // --- Traffic: interactive tenant flashes 10x; analytics stays flat. --
    let trace = TraceConfig {
        entries: knobs.entries,
        zipf_exponent: 1.1,
        duration: knobs.duration,
        base_rps: knobs.base_rps,
        tick: Duration::from_millis(50),
        diurnal: Some(Diurnal {
            period: knobs.duration,
            amplitude: 0.25,
        }),
        flash: Some(FlashCrowd {
            start: knobs.flash_start,
            duration: knobs.flash_duration,
        }),
        tenants: vec![
            TenantSpec::flashy("mobile-app", "interactive", 1.0, 10.0),
            TenantSpec::steady("analytics-1", "background", 2.0),
            TenantSpec::steady("analytics-2", "background", 2.0),
        ],
        seed: 7,
    }
    .generate()
    .expect("valid trace");
    println!(
        "trace: {} requests, peak {:.0} rps over 50 ms ticks",
        trace.len(),
        trace.peak_tick_rps(Duration::from_millis(50))
    );

    // --- Reloader: hot-swap one row mid-soak, bumping the generation. ----
    let reload_handle = runtime.handle();
    let reload_stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let reloader = {
        let stop = std::sync::Arc::clone(&reload_stop);
        let every = knobs.reload_every;
        std::thread::spawn(move || {
            let mut updates = 0u64;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                std::thread::sleep(every);
                if stop.load(std::sync::atomic::Ordering::Relaxed) {
                    break;
                }
                updates += 1;
                reload_handle
                    .update_entry(TABLE, RELOADED_INDEX, &reloaded_row(updates))
                    .expect("hot reload applies");
            }
            updates
        })
    };

    // --- Replay. ---------------------------------------------------------
    let replay_config = ReplayConfig {
        workers: knobs.workers,
        time_scale: 1.0,
        cache_capacity: 64,
    };
    let handle = runtime.handle();
    let result = replay(
        &trace,
        &replay_config,
        |_worker| RuntimeTarget::new(handle.clone(), TABLE),
        |index, generation, row| row == expected_row(index, generation),
    )
    .expect("replay runs");

    reload_stop.store(true, std::sync::atomic::Ordering::Relaxed);
    let reloads = reloader.join().expect("reloader thread");
    let stats = runtime.stats();
    let table_stats = stats
        .tables
        .iter()
        .find(|t| t.table == TABLE)
        .expect("table stats present");

    // --- Report. ---------------------------------------------------------
    let mut report = SoakReport::build(
        if quick { "soak-quick" } else { "soak-full" },
        &trace,
        &result,
    );
    report.reloads = reloads;
    report.autoscale.scale_ups = table_stats.scale_up_events;
    report.autoscale.scale_downs = table_stats.scale_down_events;
    report.autoscale.final_active_replicas = table_stats.active_replicas;
    let json_path =
        std::env::var("BENCH_SOAK_JSON").unwrap_or_else(|_| "BENCH_soak.json".to_string());
    report.write_json(&json_path).expect("write soak report");

    let interactive = report.tier("interactive").expect("interactive tier");
    let background = report.tier("background").expect("background tier");
    let flash_interactive = report.phase("flash", "interactive");
    println!("\ntier      submitted answered cache  shed failed    p50ms    p99ms");
    for tier in &report.tiers {
        println!(
            "{:<12} {:>6} {:>8} {:>5} {:>5} {:>6} {:>8.2} {:>8.2}",
            tier.tier,
            tier.counts.submitted,
            tier.counts.answered,
            tier.counts.cache_hits,
            tier.counts.shed,
            tier.counts.failed,
            tier.latency.p50_ms.unwrap_or(f64::NAN),
            tier.latency.p99_ms.unwrap_or(f64::NAN),
        );
    }
    println!(
        "reloads {reloads}, corrupt {}, displaced {}, scale-ups {}, active replicas {:?}",
        report.corrupt,
        table_stats.displaced,
        report.autoscale.scale_ups,
        report.autoscale.final_active_replicas
    );
    println!(
        "cache: {} hits / {} misses ({}), {} invalidations, {} stale admits rejected",
        report.cache.hits,
        report.cache.misses,
        report
            .cache
            .hit_rate()
            .map_or("n/a".to_string(), |r| format!("{:.1}%", r * 100.0)),
        report.cache.invalidations,
        report.cache.stale_rejected
    );

    // --- The soak contract. ----------------------------------------------
    assert_eq!(
        report.corrupt, 0,
        "zero mixed-version or corrupt reconstructions across {reloads} hot reloads"
    );
    assert!(
        reloads >= 2,
        "soak must span several hot reloads, got {reloads}"
    );
    assert!(
        report.cache.hits > 0,
        "hot-entry cache must absorb repeated Zipf-head lookups"
    );
    assert!(
        report.cache.invalidations >= 1,
        "reload generation bumps must invalidate the client cache"
    );
    assert_eq!(
        report.requests,
        trace.len() as u64,
        "every request accounted"
    );
    assert!(
        interactive.counts.failed == 0 && background.counts.failed == 0,
        "no hard failures: interactive {} background {}",
        interactive.counts.failed,
        background.counts.failed
    );
    if let Some(flash) = flash_interactive {
        assert!(
            flash.counts.answer_rate() > 0.95,
            "interactive tier must keep answering through the flash (rate {:.3})",
            flash.counts.answer_rate()
        );
    }
    // Background absorbs the shedding: under the flash overload the
    // interactive tier displaces queued background work, so any shed skew
    // must point at background.
    if interactive.counts.shed + background.counts.shed > 0 {
        let interactive_rate =
            interactive.counts.shed as f64 / interactive.counts.submitted.max(1) as f64;
        let background_rate =
            background.counts.shed as f64 / background.counts.submitted.max(1) as f64;
        assert!(
            interactive_rate <= background_rate,
            "shedding must skew to background (interactive {interactive_rate:.4} vs background {background_rate:.4})"
        );
    }
    // Latency ordering: formation ranks the urgent tier ahead of the
    // background tier that fills residue behind it, so through the flash —
    // the window where lookups queue behind a launch — its median must not
    // trail. A median over hundreds of lookups: one host stall cannot flip
    // it, as it could a p99.
    let flash_p50 = |tier| report.phase("flash", tier).and_then(|p| p.latency.p50_ms);
    if let (Some(ip50), Some(bp50)) = (flash_p50("interactive"), flash_p50("background")) {
        assert!(
            ip50 <= bp50 * 1.5,
            "interactive flash p50 {ip50:.2} ms must not trail background flash p50 {bp50:.2} ms"
        );
    }
    println!("\nsoak report written to {json_path}");

    runtime.shutdown();
}
