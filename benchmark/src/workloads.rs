//! Running one workload: set-up, correctness checks, the timed run, and the
//! metrics read from the run and from the program's own snapshots.

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use pir_cluster::RouterStatsSnapshot;
use pir_ml::ZipfSampler;
use pir_protocol::{NaivePir, PirClient, PirResponse};
use pir_serve::StatsSnapshot;
use pir_wire::{
    encode_message_v, ConnStats, PipelineStats, QueryMsg, ResponseMsg, WireMessage, PROTOCOL_V2,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{
    build_table, Client, Deployment, Load, Oracle, ServingPath, Spec, HOT_ROWS, TABLE,
};
use crate::drive::{drive_embedded, drive_session, Outcome, Plan, SLICES};
use crate::host::peak_rss_mib;
use crate::kernels;
use crate::metrics::{median, percentile, supported_percentile, Kind, MetricSet};
use crate::schedule::open_loop_offsets;
use crate::staged::{self, Span};

/// Set-up rounds of one run. A fixed count, so every run makes the same
/// sequence of allocations before the timed window.
const SETUP_ROUNDS: usize = 15;
/// Indices answered through the serving path and through `NaivePir` before
/// anything is timed.
const DIFFERENTIAL_CHECKS: usize = 64;
/// Sequential one-at-a-time lookups that give the unloaded latency.
const LONE_LOOKUPS: usize = 32;
/// Latency limit of the rate sweep, on the p99.
const SWEEP_SLO_MS: f64 = 10.0;
const SWEEP_RATES: [f64; 5] = [2_000.0, 4_000.0, 6_000.0, 8_000.0, 10_000.0];

pub struct RunConfig {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Run the staged pass and report per-layer metrics too.
    pub trace: bool,
    /// Short staged pass and sweep steps (the `--quick` smoke run).
    pub quick: bool,
}

pub struct Report {
    pub end_to_end: MetricSet,
    /// Empty unless the run was traced.
    pub per_layer: MetricSet,
    pub spans: Vec<Span>,
    pub attempted: u64,
    pub failed: u64,
    /// Every attempted lookup reconstructed the right row and every
    /// pre-run check passed.
    pub correct: bool,
}

fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(f64::total_cmp);
    values
}

/// Percentile `p` of `values`, or 0 when there are none (a metric that does
/// not apply to this workload).
fn percentile_or_zero(values: Vec<f64>, p: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        supported_percentile(&sorted(values), p)
    }
}

/// Run the load of `plan` against the deployment's client.
fn drive(
    deployment: &mut Deployment,
    plan: Plan<'_>,
    oracle: &Oracle,
    rng: &mut StdRng,
) -> Result<Outcome, String> {
    match &mut deployment.client {
        Client::Embedded(handle) => Ok(drive_embedded(handle, plan, oracle)),
        Client::Remote { session, deadline } => {
            drive_session(session, &deadline.clone(), plan, oracle, rng)
        }
    }
}

// ---------------------------------------------------------------------------
// Before the clock starts
// ---------------------------------------------------------------------------

struct Ready {
    deployment: Deployment,
    oracle: Oracle,
    /// Median over the set-up rounds, and the first (cold) round.
    setup_s: f64,
    cold_setup_s: f64,
    lone_lookup_p50_ms: f64,
}

/// Set up `SETUP_ROUNDS` times and keep the last deployment; then check the
/// serving path against `NaivePir` and take the unloaded latency.
///
/// Each set-up round does what a fresh process would: build the table, bring
/// the serving path up, connect, and get one verified row back. Only the
/// first round pays the process-wide lazy state (SIMD detection, the
/// frontier-tile probe); it is reported on its own as `load.cold_setup_s`.
fn prepare(spec: &Spec, seed: u64, rng: &mut StdRng) -> Result<Ready, String> {
    let mut setups = Vec::with_capacity(SETUP_ROUNDS);
    let (table, mut deployment) = loop {
        let started = Instant::now();
        let table = build_table(spec, seed);
        let mut deployment = Deployment::start(spec, &table, seed)?;
        let probe = rng.gen_range(0..spec.entries);
        if deployment.lookup(probe, rng)? != table.entry(probe) {
            return Err(format!("first lookup of row {probe} returned a wrong row"));
        }
        setups.push(started.elapsed().as_secs_f64());
        if setups.len() == SETUP_ROUNDS {
            break (table, deployment);
        }
        deployment.stop();
    };
    let cold_setup_s = setups[0];
    let setup_s = median(&mut setups);
    let oracle = Oracle::new(table);

    let naive = NaivePir::new(oracle.table().clone());
    for _ in 0..DIFFERENTIAL_CHECKS {
        let index = rng.gen_range(0..spec.entries);
        let served = deployment.lookup(index, rng)?;
        let (q0, q1) = naive.query(index, rng).map_err(|e| e.to_string())?;
        if served != naive.reconstruct(&naive.answer(&q0), &naive.answer(&q1)) {
            return Err(format!(
                "{}: row {index} differs from NaivePir on the {:?} path",
                spec.name, spec.path
            ));
        }
    }

    let mut lone = Vec::with_capacity(LONE_LOOKUPS);
    for _ in 0..LONE_LOOKUPS {
        let index = rng.gen_range(0..spec.entries);
        let started = Instant::now();
        let row = deployment.lookup(index, rng)?;
        lone.push(started.elapsed().as_secs_f64() * 1e3);
        if !oracle.check(index, 0, &row) {
            return Err(format!("lone lookup of row {index} returned a wrong row"));
        }
    }
    Ok(Ready {
        deployment,
        oracle,
        setup_s,
        cold_setup_s,
        lone_lookup_p50_ms: median(&mut lone),
    })
}

// ---------------------------------------------------------------------------
// The timed run
// ---------------------------------------------------------------------------

/// Cumulative serving counters of every runtime of a deployment.
#[derive(Clone, Copy, Default)]
struct ServeCounters {
    batches: u64,
    batched_queries: u64,
    busy_ms: f64,
    replicas: usize,
    shed: u64,
    displaced: u64,
    canceled: u64,
    transfers_issued: u64,
    transfers_avoided: u64,
}

impl ServeCounters {
    fn of(stats: &[StatsSnapshot]) -> Self {
        let mut sum = Self::default();
        for table in stats.iter().flat_map(|s| &s.tables) {
            sum.batches += table.batches;
            sum.batched_queries += table.batched_queries;
            sum.busy_ms += table.replicas.iter().map(|r| r.busy_ms).sum::<f64>();
            sum.replicas += table.replicas.len();
            sum.shed += table.shed;
            sum.displaced += table.displaced;
            sum.canceled += table.canceled;
            sum.transfers_issued += table.plan.transfers_issued;
            sum.transfers_avoided += table.plan.transfers_avoided;
        }
        sum
    }
}

/// The program's own counters at one instant.
struct Snapshots {
    serve: Vec<StatsSnapshot>,
    routers: Vec<RouterStatsSnapshot>,
    /// Remote paths only.
    session: Option<([ConnStats; 2], PipelineStats)>,
}

struct TimedRun {
    outcome: Outcome,
    /// Latency of each `update_entry` begun inside the measured window.
    reloads_ms: Vec<f64>,
    /// Counters as the measured window opened and after the drain. The
    /// session's are read before the warm-up instead: everything it submits
    /// completes inside the run, so its deltas cover whole lookups.
    before: Snapshots,
    after: Snapshots,
    peak_rss_mib: f64,
}

fn session_stats(client: &Client) -> Option<([ConnStats; 2], PipelineStats)> {
    match client {
        Client::Remote { session, .. } => Some((session.conn_stats(), session.pipeline_stats())),
        Client::Embedded(_) => None,
    }
}

fn timed_run(
    spec: &Spec,
    config: &RunConfig,
    deployment: &mut Deployment,
    oracle: &Oracle,
    rng: &mut StdRng,
) -> Result<TimedRun, String> {
    let measured = Duration::from_secs_f64(config.seconds);
    let warmup = Duration::from_secs_f64((config.seconds / 10.0).max(0.3));
    let (offsets, max_in_flight) = match spec.load {
        Load::Open { rate_per_s } => (
            open_loop_offsets(rng, rate_per_s, warmup, measured).0,
            spec.queue_capacity,
        ),
        Load::Closed { window } => (Vec::new(), window),
    };
    let zipf = spec.zipf.map(|s| ZipfSampler::new(spec.entries, s));
    let mut pick_rng = StdRng::seed_from_u64(rng.gen());
    let mut pick = || {
        let index = match &zipf {
            Some(zipf) => zipf.sample(&mut pick_rng),
            None => pick_rng.gen_range(0..spec.entries),
        };
        // Tenant weights 1 : 2 (interactive : background) on the tiered
        // workload; a single tenant elsewhere.
        let tenant = u8::from(spec.tiers && pick_rng.gen_range(0..3) > 0);
        (index, tenant)
    };

    let session_before = session_stats(&deployment.client);
    // Shared handles, so snapshots can be read while the generator holds
    // the client.
    let (runtimes, routers) = deployment.probes();
    let snapshot = || -> (Vec<StatsSnapshot>, Vec<RouterStatsSnapshot>) {
        (
            runtimes.iter().map(|r| r.stats()).collect(),
            routers.iter().map(|r| r.stats()).collect(),
        )
    };
    let mut at_window_start = None;
    let mut on_window_start = || at_window_start = Some(snapshot());

    let stop_writer = AtomicBool::new(false);
    let start = Instant::now();
    let window_opens = start + warmup;
    let (outcome, reloads_ms) = std::thread::scope(|scope| {
        // The writer: one hot row rewritten every `reload_every`, timed.
        let writer = spec.reload_every.map(|every| {
            let Client::Embedded(handle) = &deployment.client else {
                unreachable!("reloads run on the embedded path only");
            };
            let (handle, stop) = (handle.clone(), &stop_writer);
            scope.spawn(move || {
                let mut latencies_ms = Vec::new();
                for n in 0u32.. {
                    let due = start + every * (n + 1);
                    while !stop.load(Ordering::SeqCst) && Instant::now() < due {
                        std::thread::park_timeout(due.saturating_duration_since(Instant::now()));
                    }
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let index = u64::from(n) % HOT_ROWS;
                    let began = Instant::now();
                    if oracle
                        .rewrite(index, |row| handle.update_entry(TABLE, index, row))
                        .is_err()
                    {
                        break;
                    }
                    if began >= window_opens {
                        latencies_ms.push(began.elapsed().as_secs_f64() * 1e3);
                    }
                }
                latencies_ms
            })
        });
        let outcome = drive(
            deployment,
            Plan {
                load: spec.load,
                offsets,
                start,
                warmup,
                measured,
                max_in_flight,
                pick: &mut pick,
                on_window_start: &mut on_window_start,
            },
            oracle,
            rng,
        );
        stop_writer.store(true, Ordering::SeqCst);
        let reloads_ms = writer.map_or_else(Vec::new, |writer| {
            writer.thread().unpark();
            writer.join().expect("reload writer exits")
        });
        (outcome, reloads_ms)
    });
    let outcome = outcome?;
    let (serve_then, routers_then) = at_window_start.ok_or("the measured window never opened")?;
    let (serve_now, routers_now) = snapshot();
    if outcome.verified() == 0 {
        return Err(format!(
            "{}: no lookup completed in the measured window",
            spec.name
        ));
    }
    Ok(TimedRun {
        outcome,
        reloads_ms,
        before: Snapshots {
            serve: serve_then,
            routers: routers_then,
            session: session_before,
        },
        after: Snapshots {
            serve: serve_now,
            routers: routers_now,
            session: session_stats(&deployment.client),
        },
        peak_rss_mib: peak_rss_mib(),
    })
}

// ---------------------------------------------------------------------------
// End-to-end metrics
// ---------------------------------------------------------------------------

/// Encoded `Query` and `Response` frame lengths for this table shape: what
/// one lookup costs on each of its two connections.
fn frame_bytes(spec: &Spec, oracle: &Oracle) -> (usize, usize) {
    let schema = oracle.table().schema();
    let query = PirClient::new(schema, spec.prf).query(0, &mut StdRng::seed_from_u64(0));
    let query_frame = encode_message_v(
        &WireMessage::Query(QueryMsg {
            table: TABLE.to_string(),
            tenant: "bench".to_string(),
            query: query.to_server(0),
        }),
        PROTOCOL_V2,
    );
    let response_frame = encode_message_v(
        &WireMessage::Response(ResponseMsg {
            response: PirResponse {
                query_id: 0,
                party: 0,
                share: vec![0; schema.lanes_per_entry()],
            },
            table_version: 1,
        }),
        PROTOCOL_V2,
    );
    (query_frame.len(), response_frame.len())
}

/// Median and 90th-percentile latency: one reading per slice of the window,
/// then the median of the readings (see `SLICES`).
fn sliced_latency(outcome: &Outcome) -> (f64, f64) {
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    for slice in 0..SLICES {
        let due_here = sorted(
            outcome
                .samples
                .iter()
                .filter(|s| s.due_slice == slice)
                .map(|s| s.latency_ms)
                .collect(),
        );
        if !due_here.is_empty() {
            p50s.push(percentile(&due_here, 50.0));
            p90s.push(supported_percentile(&due_here, 90.0));
        }
    }
    (median(&mut p50s), median(&mut p90s))
}

fn end_to_end(spec: &Spec, ready: &Ready, run: &TimedRun) -> MetricSet {
    let outcome = &run.outcome;
    let (p50_ms, _) = sliced_latency(outcome);

    let (upload, download, bytes_kind) = match (&run.before.session, &run.after.session) {
        (Some((conns_then, pipeline_then)), Some((conns_now, pipeline_now))) => {
            let lookups = (pipeline_now.submitted - pipeline_then.submitted) as f64;
            let delta = |get: fn(&ConnStats) -> u64| -> f64 {
                (0..2)
                    .map(|p| get(&conns_now[p]) - get(&conns_then[p]))
                    .sum::<u64>() as f64
            };
            (
                delta(|c| c.bytes_sent) / lookups,
                delta(|c| c.bytes_received) / lookups,
                Kind::Counted,
            )
        }
        // No bytes cross a socket on the embedded path; this is what the
        // same keys and shares cost once they do.
        _ => {
            let (query_frame, response_frame) = frame_bytes(spec, &ready.oracle);
            (
                2.0 * query_frame as f64,
                2.0 * response_frame as f64,
                Kind::Computed,
            )
        }
    };

    let mut e2e = MetricSet::default();
    e2e.measured("setup_s", ready.setup_s, "s");
    e2e.measured(
        "goodput_qps",
        outcome.verified() as f64 / outcome.window_s,
        "1/s",
    );
    e2e.measured("lookup_p50_ms", p50_ms, "ms");
    e2e.measured("peak_rss_mb", run.peak_rss_mib, "MiB");
    e2e.push("upload_bytes_per_lookup", upload, "B", bytes_kind);
    e2e.push("download_bytes_per_lookup", download, "B", bytes_kind);
    e2e
}

// ---------------------------------------------------------------------------
// Per-layer metrics read from the run and from the program's snapshots
// ---------------------------------------------------------------------------

fn serve_layer(run: &TimedRun, layer: &mut MetricSet) {
    let (then, now) = (
        ServeCounters::of(&run.before.serve),
        ServeCounters::of(&run.after.serve),
    );
    let tables: Vec<_> = run.after.serve.iter().flat_map(|s| &s.tables).collect();
    // Histograms cannot be subtracted: these cover the runtime's whole
    // life, warm-up and pre-run checks included.
    let slowest = |get: fn(&pir_serve::TableStatsSnapshot) -> Option<f64>| {
        tables.iter().filter_map(|t| get(t)).fold(0.0, f64::max)
    };
    let batches = now.batches - then.batches;
    layer.measured("serve.queue_wait_p50_ms", slowest(|t| t.queue_p50_ms), "ms");
    layer.measured("serve.queue_wait_p99_ms", slowest(|t| t.queue_p99_ms), "ms");
    layer.push(
        "serve.batch_occupancy",
        (now.batched_queries - then.batched_queries) as f64 / batches.max(1) as f64,
        "count",
        Kind::Counted,
    );
    layer.counted(
        "serve.max_batch",
        tables.iter().map(|t| t.max_batch).max().unwrap_or(0),
    );
    layer.counted("serve.batches", batches);
    layer.measured(
        "serve.replica_busy_frac",
        (now.busy_ms - then.busy_ms) / 1e3 / run.outcome.window_s / now.replicas as f64,
        "ratio",
    );
    layer.counted("serve.shed", now.shed - then.shed);
    layer.counted("serve.displaced", now.displaced - then.displaced);
    layer.counted("serve.canceled", now.canceled - then.canceled);
    layer.counted(
        "serve.transfers_issued",
        now.transfers_issued - then.transfers_issued,
    );
    layer.counted(
        "serve.transfers_avoided",
        now.transfers_avoided - then.transfers_avoided,
    );
    layer.push(
        "serve.peak_resident_bytes",
        run.after
            .serve
            .iter()
            .map(|s| s.peak_resident_bytes)
            .max()
            .unwrap_or(0) as f64,
        "B",
        Kind::Counted,
    );
    for tier in ["interactive", "background"] {
        let p50 = tables
            .iter()
            .filter_map(|t| t.tier(tier).and_then(|t| t.e2e_p50_ms))
            .fold(0.0, f64::max);
        layer.measured(format!("serve.tier_p50_ms.{tier}"), p50, "ms");
    }
}

fn cluster_layer(spec: &Spec, ready: &Ready, run: &TimedRun, layer: &mut MetricSet) {
    let (mut shard_calls, mut fence_retries, mut fence_lagged, mut failovers) = (0, 0, 0, 0);
    // Mean back-haul call of the slowest (party, shard) pair: each lookup
    // waits for its slowest shard.
    let mut slowest_shard_ms = 0.0f64;
    for (then, now) in run.before.routers.iter().zip(&run.after.routers) {
        fence_retries += now.fence_retries - then.fence_retries;
        fence_lagged += now.fence_lagged - then.fence_lagged;
        for (then, now) in then.shards.iter().zip(&now.shards) {
            let calls = now.calls - then.calls;
            shard_calls += calls;
            failovers += now.failovers - then.failovers;
            if calls > 0 {
                let mean_ms = (now.call_time - then.call_time).as_secs_f64() * 1e3 / calls as f64;
                slowest_shard_ms = slowest_shard_ms.max(mean_ms);
            }
        }
    }
    layer.counted("cluster.shard_calls", shard_calls);
    layer.measured("cluster.shard_call_mean_ms", slowest_shard_ms, "ms");
    layer.counted("cluster.fence_retries", fence_retries);
    layer.counted("cluster.fence_lagged", fence_lagged);
    layer.counted("cluster.failovers", failovers);
    let overhead_ms = if spec.path == ServingPath::Cluster {
        ready.lone_lookup_p50_ms - slowest_shard_ms
    } else {
        0.0
    };
    layer.push(
        "cluster.router_overhead_ms",
        overhead_ms,
        "ms",
        Kind::Computed,
    );
}

fn wire_and_load_layers(
    spec: &Spec,
    config: &RunConfig,
    ready: &Ready,
    run: &TimedRun,
    layer: &mut MetricSet,
) {
    let (out_of_order, retries) = match (&run.before.session, &run.after.session) {
        (Some((_, then)), Some((_, now))) => (
            (now.out_of_order_completions - then.out_of_order_completions) as f64
                / (now.completed - then.completed).max(1) as f64,
            now.version_retries - then.version_retries,
        ),
        _ => (0.0, 0),
    };
    layer.push(
        "wire.out_of_order_frac",
        out_of_order,
        "ratio",
        Kind::Counted,
    );
    layer.counted("wire.version_retries", retries);

    let outcome = &run.outcome;
    layer.push(
        "load.offered_rps",
        outcome.attempted as f64 / config.seconds,
        "1/s",
        Kind::Computed,
    );
    layer.counted("load.samples", outcome.verified());
    layer.measured(
        "load.generator_lag_p99_ms",
        percentile_or_zero(outcome.lag_ms.clone(), 99.0),
        "ms",
    );
    // The tails. Not end-to-end metrics: see README.md, "Demotions".
    layer.measured("load.lookup_p90_ms", sliced_latency(outcome).1, "ms");
    layer.measured(
        "load.lookup_p99_ms",
        percentile_or_zero(outcome.samples.iter().map(|s| s.latency_ms).collect(), 99.0),
        "ms",
    );
    for (tenant, tier) in ["interactive", "background"].iter().enumerate() {
        let of_tier = outcome
            .samples
            .iter()
            .filter(|s| spec.tiers && usize::from(s.tenant) == tenant)
            .map(|s| s.latency_ms)
            .collect();
        layer.measured(
            format!("load.lookup_p50_ms.{tier}"),
            percentile_or_zero(of_tier, 50.0),
            "ms",
        );
    }
    // Process CPU per verified lookup, per slice, then the median. Not an
    // end-to-end metric: see README.md, "Demotions".
    let mut cpu_ms: Vec<f64> = (0..SLICES)
        .filter_map(|slice| {
            let done_here = outcome
                .samples
                .iter()
                .filter(|s| s.done_slice == slice)
                .count();
            let cpu_s = outcome.cpu_marks_s[slice + 1] - outcome.cpu_marks_s[slice];
            (done_here > 0).then(|| cpu_s * 1e3 / done_here as f64)
        })
        .collect();
    layer.measured("load.cpu_ms_per_lookup", median(&mut cpu_ms), "ms");
    layer.counted("load.reloads", run.reloads_ms.len() as u64);
    layer.measured(
        "load.reload_p50_ms",
        percentile_or_zero(run.reloads_ms.clone(), 50.0),
        "ms",
    );
    layer.push(
        "load.fail_frac",
        outcome.not_verified() as f64 / outcome.attempted.max(1) as f64,
        "ratio",
        Kind::Counted,
    );
    layer.measured("load.cold_setup_s", ready.cold_setup_s, "s");
    layer.measured("load.lone_lookup_p50_ms", ready.lone_lookup_p50_ms, "ms");
}

/// Highest of the fixed rates the wire set-up sustains within the latency
/// limit, with nothing failed and no backlog left when the step ends.
fn max_rate_under_slo(
    deployment: &mut Deployment,
    oracle: &Oracle,
    rng: &mut StdRng,
    step: Duration,
) -> Result<f64, String> {
    let entries = oracle.table().entries();
    let mut best = 0.0;
    for rate in SWEEP_RATES {
        let warmup = Duration::from_millis(200);
        let (offsets, _) = open_loop_offsets(rng, rate, warmup, step);
        let mut pick_rng = StdRng::seed_from_u64(rng.gen());
        let mut pick = || (pick_rng.gen_range(0..entries), 0u8);
        let outcome = drive(
            deployment,
            Plan {
                load: Load::Open { rate_per_s: rate },
                offsets,
                start: Instant::now(),
                warmup,
                measured: step,
                max_in_flight: usize::MAX,
                pick: &mut pick,
                on_window_start: &mut || {},
            },
            oracle,
            rng,
        )?;
        let p99 = percentile_or_zero(outcome.samples.iter().map(|s| s.latency_ms).collect(), 99.0);
        let sustained = outcome.not_verified() == 0
            && outcome.verified() > 0
            && p99 <= SWEEP_SLO_MS
            // A backlog shows as a drain that outlasts the schedule.
            && outcome.window_s <= step.as_secs_f64() + 0.05;
        // Every step runs, so one disturbed step does not hide the rates
        // above it.
        if sustained {
            best = rate;
        }
    }
    Ok(best)
}

// ---------------------------------------------------------------------------

pub fn run(spec: &Spec, config: &RunConfig) -> Result<Report, String> {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x0b5e_55ed);
    let mut ready = prepare(spec, config.seed, &mut rng)?;
    let run = timed_run(spec, config, &mut ready.deployment, &ready.oracle, &mut rng)?;
    let mut report = Report {
        end_to_end: end_to_end(spec, &ready, &run),
        per_layer: MetricSet::default(),
        spans: Vec::new(),
        attempted: run.outcome.attempted,
        failed: run.outcome.not_verified(),
        correct: run.outcome.corrupt == 0,
    };
    if !config.trace {
        ready.deployment.stop();
        return Ok(report);
    }

    let layer = &mut report.per_layer;
    serve_layer(&run, layer);
    cluster_layer(spec, &ready, &run, layer);
    wire_and_load_layers(spec, config, &ready, &run, layer);
    // The rate sweep needs the wire deployment; the other workloads report
    // 0, "does not apply".
    let max_rate = if spec.name == "wire_small_open" {
        let step = Duration::from_secs_f64(if config.quick { 0.4 } else { 2.0 });
        max_rate_under_slo(&mut ready.deployment, &ready.oracle, &mut rng, step)?
    } else {
        0.0
    };
    layer.measured("load.max_rate_under_slo_rps", max_rate, "1/s");
    ready.deployment.stop();

    // The staged pass, on this workload's table shape.
    let staged_lookups = match (config.quick, spec.entries >= 1 << 14) {
        (true, _) => 40,
        (false, true) => 200,
        (false, false) => 2_000,
    };
    let pass = staged::run(
        &staged::Shape {
            table: ready.oracle.table(),
            prf: spec.prf,
            backend: spec.backend,
        },
        config.seed,
        staged_lookups,
        layer,
    )?;
    // What the serving tower adds to an unloaded lookup beyond the staged
    // stages that block it: batch-formation wait, hand-offs, scheduling.
    let blocking_ms = match spec.path {
        ServingPath::Embedded => pass.compute_path_p50_ms,
        ServingPath::Wire | ServingPath::Cluster => pass.critical_path_p50_ms,
    };
    layer.push(
        "serve.overhead_ms",
        ready.lone_lookup_p50_ms - blocking_ms,
        "ms",
        Kind::Computed,
    );

    kernels::run(config.quick, layer);
    report.spans = pass.spans;
    Ok(report)
}
