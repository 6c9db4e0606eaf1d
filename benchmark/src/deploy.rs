//! The four workloads and the three serving paths they run on.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use gpu_sim::BackendKind;
use pir_cluster::{ClusterConfig, ClusterMembership, ClusterRouter, ShardEndpoints, ShardMap};
use pir_prf::PrfKind;
use pir_protocol::PirTable;
use pir_serve::{PirServeRuntime, ServeConfig, ServeHandle, TableConfig, WireFrontend};
use pir_wire::{Dialer, PirSession, TcpDialer};
use rand::rngs::StdRng;

use crate::transport::{Deadline, DeadlineTransport, TcpEndpoint};

/// The one table every deployment hosts.
pub const TABLE: &str = "emb";

/// Tenant names; index 0 is the interactive tenant of the tiered workload.
pub const TENANTS: [&str; 2] = ["mobile-app", "analytics"];

/// Rows the reload writer rotates over: the head of the Zipf distribution,
/// so reads keep landing on rows that were just rewritten.
pub const HOT_ROWS: u64 = 16;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServingPath {
    /// `ServeHandle` in the client's own process.
    Embedded,
    /// `PirSession` ↔ two `WireFrontend`s over TCP.
    Wire,
    /// `PirSession` ↔ two `ClusterRouter`s ↔ 2 shards each over TCP.
    Cluster,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Load {
    /// One generator keeps `window` lookups in flight.
    Closed { window: usize },
    /// Arrivals on a fixed schedule at `rate_per_s`, whatever the system does.
    Open { rate_per_s: f64 },
}

#[derive(Clone, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub path: ServingPath,
    pub entries: u64,
    pub entry_bytes: usize,
    pub prf: PrfKind,
    pub backend: BackendKind,
    pub max_batch: usize,
    pub max_wait: Duration,
    /// Dispatch-queue capacity and per-tenant quota of every runtime.
    pub queue_capacity: usize,
    /// Two SLO tiers with one tenant each, or a single default tier.
    pub tiers: bool,
    pub load: Load,
    /// `PirSession` window on the remote paths.
    pub session_window: usize,
    /// Zipf exponent of the index distribution; uniform when `None`.
    pub zipf: Option<f64>,
    /// A writer calls `update_entry` this often while the load runs.
    pub reload_every: Option<Duration>,
}

/// The benchmark's workloads. `BENCHMARK.json` and `README.md` say why each
/// exists; the numbers here are the ones ISSUE 11 fixed.
pub fn specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "embed_sweep_closed",
            path: ServingPath::Embedded,
            entries: 1 << 16,
            entry_bytes: 64,
            prf: PrfKind::Aes128,
            backend: BackendKind::Host,
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 4096,
            tiers: false,
            load: Load::Closed { window: 64 },
            session_window: 0,
            zipf: None,
            reload_every: None,
        },
        Spec {
            name: "wire_small_open",
            path: ServingPath::Wire,
            entries: 1 << 10,
            entry_bytes: 32,
            prf: PrfKind::Aes128,
            backend: BackendKind::Host,
            max_batch: 32,
            max_wait: Duration::from_micros(500),
            queue_capacity: 4096,
            tiers: false,
            load: Load::Open {
                rate_per_s: 2_000.0,
            },
            session_window: 64,
            zipf: None,
            reload_every: None,
        },
        Spec {
            name: "embed_tiers_reload_open",
            path: ServingPath::Embedded,
            entries: 1 << 15,
            entry_bytes: 64,
            prf: PrfKind::Chacha20,
            backend: BackendKind::Simulated,
            max_batch: 32,
            max_wait: Duration::from_millis(2),
            queue_capacity: 1024,
            tiers: true,
            load: Load::Open { rate_per_s: 120.0 },
            session_window: 0,
            zipf: Some(1.1),
            reload_every: Some(Duration::from_millis(250)),
        },
        Spec {
            name: "cluster_shards_closed",
            path: ServingPath::Cluster,
            entries: 1 << 14,
            entry_bytes: 64,
            prf: PrfKind::SipHash,
            backend: BackendKind::Simulated,
            max_batch: 8,
            max_wait: Duration::from_micros(50),
            queue_capacity: 4096,
            tiers: false,
            load: Load::Closed { window: 8 },
            session_window: 8,
            zipf: None,
            reload_every: None,
        },
    ]
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The table's initial content, a function of the seed.
pub fn build_table(spec: &Spec, seed: u64) -> PirTable {
    let salt = splitmix(seed);
    PirTable::generate(spec.entries, spec.entry_bytes, |row, offset| {
        (splitmix(row ^ salt) >> (8 * (offset % 8))) as u8 ^ (offset / 8) as u8
    })
}

/// Content of `index` after its `update`-th rewrite (`update >= 1`).
pub fn reloaded_row(index: u64, update: u64, entry_bytes: usize) -> Vec<u8> {
    let fill = (update as u8).wrapping_mul(17).wrapping_add(index as u8);
    (0..entry_bytes)
        .map(|offset| fill ^ 0xA5 ^ offset as u8)
        .collect()
}

/// Ground truth for every row, including the ones a writer rewrites while
/// reads are in flight.
///
/// The writer bumps `started` before `update_entry` and `done` after it
/// returns, so a read submitted when `done = lo` and completed when
/// `started = hi` must reconstruct one of the versions `lo..=hi` — anything
/// else (a mixed-version pair of shares, say) is a corrupt row.
pub struct Oracle {
    table: PirTable,
    started: Vec<AtomicU64>,
    done: Vec<AtomicU64>,
}

impl Oracle {
    pub fn new(table: PirTable) -> Self {
        let counters = || (0..HOT_ROWS).map(|_| AtomicU64::new(0)).collect();
        Self {
            table,
            started: counters(),
            done: counters(),
        }
    }

    pub fn table(&self) -> &PirTable {
        &self.table
    }

    /// Taken at submit time: rewrites of `index` known to be applied.
    pub fn mark(&self, index: u64) -> u64 {
        self.done
            .get(index as usize)
            .map_or(0, |done| done.load(Ordering::SeqCst))
    }

    pub fn check(&self, index: u64, mark: u64, row: &[u8]) -> bool {
        let latest = self
            .started
            .get(index as usize)
            .map_or(0, |started| started.load(Ordering::SeqCst));
        (mark..=latest).any(|update| {
            if update == 0 {
                row == self.table.entry(index)
            } else {
                row == reloaded_row(index, update, self.table.entry_bytes())
            }
        })
    }

    /// Rewrite hot row `index` through `apply`, keeping the version bounds.
    pub fn rewrite<E>(
        &self,
        index: u64,
        apply: impl FnOnce(&[u8]) -> Result<(), E>,
    ) -> Result<(), E> {
        let slot = index as usize;
        let update = self.started[slot].load(Ordering::SeqCst) + 1;
        self.started[slot].store(update, Ordering::SeqCst);
        apply(&reloaded_row(index, update, self.table.entry_bytes()))?;
        self.done[slot].store(update, Ordering::SeqCst);
        Ok(())
    }
}

/// What the load generator talks to.
pub enum Client {
    Embedded(ServeHandle),
    Remote {
        session: Box<PirSession>,
        deadline: Deadline,
    },
}

/// One running deployment of a workload's serving path.
pub struct Deployment {
    runtimes: Vec<Arc<PirServeRuntime>>,
    endpoints: Vec<TcpEndpoint>,
    routers: Vec<Arc<ClusterRouter>>,
    pub client: Client,
}

fn table_config(spec: &Spec) -> TableConfig {
    let mut builder = TableConfig::builder()
        .prf_kind(spec.prf)
        .backend(spec.backend)
        .max_batch(spec.max_batch)
        .max_wait(spec.max_wait);
    if spec.tiers {
        builder = builder
            .tier("interactive", Duration::from_millis(2), 0)
            .tier("background", Duration::from_millis(20), 2)
            .assign_tenant(TENANTS[0], "interactive")
            .default_tier("background");
    }
    builder.build().expect("workload table config is valid")
}

fn start_runtime(spec: &Spec, table: PirTable, seed: u64) -> Arc<PirServeRuntime> {
    let runtime = PirServeRuntime::new(
        ServeConfig::builder()
            .queue_capacity(spec.queue_capacity)
            .per_tenant_quota(spec.queue_capacity)
            .seed(seed)
            .build()
            .expect("workload serve config is valid"),
    );
    runtime
        .register_table(TABLE, table, table_config(spec))
        .expect("register the workload table");
    Arc::new(runtime)
}

/// A runtime for one party behind a TCP listener.
fn start_frontend(runtime: &PirServeRuntime, party: u8) -> TcpEndpoint {
    let handle = runtime.handle();
    TcpEndpoint::spawn(move |transport| {
        // A per-connection error ends that connection only.
        let _ = WireFrontend::new(handle.clone(), party).serve(transport);
    })
}

fn connect_session(
    endpoints: [&TcpEndpoint; 2],
    window: usize,
) -> Result<(Box<PirSession>, Deadline), String> {
    let deadline = Deadline::new();
    let dial = |endpoint: &TcpEndpoint| {
        DeadlineTransport::connect(endpoint.addr, deadline.clone())
            .map_err(|err| format!("dial {}: {err}", endpoint.addr))
    };
    let session = PirSession::connect_with_window(
        Box::new(dial(endpoints[0])?),
        Box::new(dial(endpoints[1])?),
        "bench",
        window,
    )
    .map_err(|err| format!("session handshake: {err}"))?;
    Ok((Box::new(session), deadline))
}

impl Deployment {
    /// Bring the serving path up and connect the client. Everything the
    /// benchmark calls set-up except building the table itself.
    pub fn start(spec: &Spec, table: &PirTable, seed: u64) -> Result<Self, String> {
        match spec.path {
            ServingPath::Embedded => {
                let runtime = start_runtime(spec, table.clone(), seed);
                let client = Client::Embedded(runtime.handle());
                Ok(Self {
                    runtimes: vec![runtime],
                    endpoints: Vec::new(),
                    routers: Vec::new(),
                    client,
                })
            }
            ServingPath::Wire => {
                let runtimes: Vec<_> = (0..2)
                    .map(|party| start_runtime(spec, table.clone(), seed ^ party))
                    .collect();
                let endpoints: Vec<_> = runtimes
                    .iter()
                    .zip(0u8..)
                    .map(|(runtime, party)| start_frontend(runtime, party))
                    .collect();
                let (session, deadline) =
                    connect_session([&endpoints[0], &endpoints[1]], spec.session_window)?;
                Ok(Self {
                    runtimes,
                    endpoints,
                    routers: Vec::new(),
                    client: Client::Remote { session, deadline },
                })
            }
            ServingPath::Cluster => {
                const SHARDS: usize = 2;
                let map = ShardMap::new(spec.entries, SHARDS).map_err(|e| e.to_string())?;
                let views = map.provision(table);
                let mut runtimes = Vec::new();
                let mut endpoints = Vec::new();
                let mut routers = Vec::new();
                for party in 0..2u8 {
                    let mut shards = Vec::new();
                    for (shard, view) in views.iter().enumerate() {
                        let shard_seed =
                            seed ^ (u64::from(party) << 8) ^ ((shard as u64 + 1) << 16);
                        let runtime = start_runtime(spec, view.clone(), shard_seed);
                        let endpoint = start_frontend(&runtime, party);
                        shards.push(ShardEndpoints::single(Arc::new(TcpDialer::with_timeouts(
                            endpoint.addr,
                            Duration::from_millis(500),
                            Duration::from_secs(5),
                        ))
                            as Arc<dyn Dialer>));
                        runtimes.push(runtime);
                        endpoints.push(endpoint);
                    }
                    let router = ClusterRouter::connect(
                        &ClusterMembership::new(shards),
                        // No prober: a background thread waking on a timer
                        // is noise, and no replica dies in this benchmark.
                        &ClusterConfig {
                            probe_interval: None,
                        },
                        party,
                    )
                    .map_err(|err| format!("router {party} connect: {err}"))?;
                    routers.push(Arc::new(router));
                }
                let fronts: Vec<TcpEndpoint> = routers
                    .iter()
                    .map(|router| {
                        let router = Arc::clone(router);
                        TcpEndpoint::spawn(move |transport| {
                            let _ = router.serve(transport);
                        })
                    })
                    .collect();
                let (session, deadline) =
                    connect_session([&fronts[0], &fronts[1]], spec.session_window)?;
                endpoints.extend(fronts);
                Ok(Self {
                    runtimes,
                    endpoints,
                    routers,
                    client: Client::Remote { session, deadline },
                })
            }
        }
    }

    /// One lookup, start to reconstructed row, blocking (as the interactive
    /// tenant where there are tiers).
    pub fn lookup(&mut self, index: u64, rng: &mut StdRng) -> Result<Vec<u8>, String> {
        match &mut self.client {
            Client::Embedded(handle) => handle
                .query(TABLE, TENANTS[0], index)
                .and_then(pir_serve::PendingQuery::wait)
                .map_err(|err| err.to_string()),
            Client::Remote { session, deadline } => {
                deadline.set(None);
                session
                    .query(TABLE, index, rng)
                    .map_err(|err| err.to_string())
            }
        }
    }

    /// Shared handles to the runtimes and routers, for reading snapshots
    /// while the load generator holds the client.
    pub fn probes(&self) -> (Vec<Arc<PirServeRuntime>>, Vec<Arc<ClusterRouter>>) {
        (self.runtimes.clone(), self.routers.clone())
    }

    /// Hang up, stop every listener and join every thread this deployment
    /// started: client first, then routers, then the runtimes behind them.
    pub fn stop(self) {
        let Self {
            runtimes,
            mut endpoints,
            routers,
            client,
        } = self;
        drop(client);
        for router in &routers {
            router.shutdown();
        }
        // Router fronts were pushed last; close them before the shards.
        for endpoint in endpoints.iter_mut().rev() {
            endpoint.close();
        }
        drop(routers);
        for runtime in &runtimes {
            runtime.shutdown();
        }
    }
}
