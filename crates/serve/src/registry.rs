//! The table registry: many named tables, each with its own protocol
//! parameters, per-party replica pools and batch-formation queues.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use gpu_sim::DeviceSpec;
use parking_lot::{Condvar, Mutex, RwLock};
use pir_protocol::{GpuPirServer, PirClient, PirResponse, PirTable, ServerQuery};

use crate::config::TableConfig;
use crate::error::ServeError;
use crate::oneshot;
use crate::stats::{ReplicaStats, TableStats};

/// One server share, stamped with the table version it was computed
/// against.
///
/// The stamp is what lets a *wire* client detect a query whose two
/// projections straddled a hot reload (the shares would reconstruct
/// garbage): both parties count applied updates from 1, so matching stamps
/// prove both shares read the same table version. Embedded (pair-enqueued)
/// queries get the same guarantee from the cross-queue update barrier and
/// only use the stamp as a debug check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) struct AnsweredShare {
    pub response: PirResponse,
    pub table_version: u64,
}

/// One query waiting in a batch former's queue.
pub(crate) struct PendingEntry {
    pub query: ServerQuery,
    pub enqueued_at: Instant,
    /// Absolute promotion deadline: `enqueued_at` plus the tenant's
    /// SLO-class deadline. Once it has passed, the entry is ranked ahead of
    /// every fresh one at formation (see [`crate::tier::formation_order`]);
    /// it never delays a launch.
    pub deadline: Instant,
    /// Index of the tenant's SLO class in the table's tier set.
    pub tier: usize,
    /// The class's priority (0 = most urgent), denormalized so queue
    /// operations never consult the config.
    pub priority: u8,
    pub responder: oneshot::Sender<Result<AnsweredShare, ServeError>>,
    /// Shared with the submitter's `PendingQuery` (and the sibling entry at
    /// the other party): set when the caller abandons the query, so batch
    /// formation can skip it instead of spending device work on an answer
    /// nobody will read.
    pub canceled: Arc<AtomicBool>,
}

impl PendingEntry {
    pub(crate) fn is_canceled(&self) -> bool {
        self.canceled.load(Ordering::Acquire)
    }
}

/// A hot-reload marker queued *in order* with the queries.
///
/// Both parties' markers are enqueued atomically, so every *pair-enqueued*
/// query (the embedded path: [`HostedTable::enqueue`] given both
/// projections) sits on the same side of the marker in both queues. The
/// batch former applies the update when the marker reaches the queue front,
/// after draining in-flight batches — which makes the update a consistent
/// cut: every pair-enqueued query is answered by both parties from the same
/// table version, and mixed-version shares (which would reconstruct
/// garbage, not stale data) cannot occur.
///
/// Wire-path submissions arrive one projection at a time on independent
/// connections, so no such cross-queue atomicity exists for them — there
/// the version stamp on every share ([`AnsweredShare::table_version`]) lets
/// the client detect a query that straddled the update and retry it.
pub(crate) struct UpdateMarker {
    pub index: u64,
    pub bytes: Arc<Vec<u8>>,
    pub responder: oneshot::Sender<Result<(), ServeError>>,
}

/// One item in a party's dispatch queue.
pub(crate) enum QueueItem {
    /// A query projection awaiting batch formation.
    Query(PendingEntry),
    /// A table-update barrier (see [`UpdateMarker`]).
    Update(UpdateMarker),
}

#[derive(Default)]
pub(crate) struct QueueState {
    pub entries: std::collections::VecDeque<QueueItem>,
    pub closed: bool,
    /// Batches popped from this queue whose device launch has not finished.
    pub inflight_batches: usize,
    /// An update barrier is being applied: all pops pause until cleared.
    pub barrier: bool,
}

/// The bounded queue feeding one party's batch formers.
#[derive(Default)]
pub(crate) struct BatchQueue {
    pub state: Mutex<QueueState>,
    pub arrived: Condvar,
    /// Parked (autoscaler-inactive) workers wait *here*, not on `arrived`,
    /// so the per-query enqueue paths keep their single-wakeup
    /// `notify_one` instead of waking the whole pool per query.
    pub activated: Condvar,
}

impl BatchQueue {
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().entries.len()
    }

    pub(crate) fn close(&self) {
        self.state.lock().closed = true;
        self.arrived.notify_all();
        self.activated.notify_all();
    }
}

/// One interchangeable server replica in a party's pool, plus its dispatch
/// telemetry.
pub(crate) struct ReplicaSlot {
    pub server: GpuPirServer,
    pub stats: ReplicaStats,
}

/// A table hosted by the runtime: client state and, per non-colluding party,
/// a pool of interchangeable server replicas (each possibly sharded over
/// several devices) fed from one shared dispatch queue.
pub(crate) struct HostedTable {
    pub name: String,
    pub config: TableConfig,
    /// The table's (immutable) shape; entry *values* may change through
    /// hot reloads, the shape never does.
    pub schema: pir_protocol::TableSchema,
    pub client: PirClient,
    /// `pools[party][replica]`: the replicas of a party share one table (a
    /// write through any of them is served by all) and answer any batch, so
    /// formed batches go to whichever active replica is idle. The parties'
    /// tables share rows until one party writes them. Built at the range's
    /// `max` size; only the first [`Self::active_replicas`] of a party drain
    /// the queue.
    pub pools: [Vec<ReplicaSlot>; 2],
    pub queues: [BatchQueue; 2],
    /// Replicas currently draining each party's queue, moved by the
    /// autoscale controller inside `config.replicas`.
    pub active: [AtomicUsize; 2],
    pub stats: TableStats,
    pub registered_at: Instant,
    /// The kernel label of the PRF every replica of this table runs.
    pub prf_backend: &'static str,
}

impl HostedTable {
    pub(crate) fn build(
        name: &str,
        table: PirTable,
        config: TableConfig,
    ) -> Result<Self, ServeError> {
        // A config the DPF domain cannot satisfy fails on a party's first
        // server, before any replica exists. The pool is built at the
        // range's max, so a scale-up never waits on a replica's planning.
        let make_pool = || -> Result<Vec<ReplicaSlot>, ServeError> {
            let first = GpuPirServer::new(
                table.clone(),
                config.prf_kind,
                vec![DeviceSpec::v100(); config.shards],
                config.scheduler,
                config.backend,
            )
            .map_err(|err| ServeError::InvalidConfig(err.to_string()))?;
            let replicas: Vec<_> = (1..config.replicas.max).map(|_| first.replica()).collect();
            let slot = |server| ReplicaSlot {
                server,
                stats: ReplicaStats::default(),
            };
            Ok(std::iter::once(first).chain(replicas).map(slot).collect())
        };
        Ok(Self {
            name: name.to_string(),
            schema: table.schema(),
            client: PirClient::new(table.schema(), config.prf_kind),
            pools: [make_pool()?, make_pool()?],
            queues: [BatchQueue::default(), BatchQueue::default()],
            active: [
                AtomicUsize::new(config.replicas.min),
                AtomicUsize::new(config.replicas.min),
            ],
            stats: TableStats::with_tiers(config.tiers.len()),
            registered_at: Instant::now(),
            prf_backend: pir_prf::build_prf(config.prf_kind).backend_label(),
            config,
        })
    }

    /// `party`'s table-version stamp: hot reloads applied, plus one (stamps
    /// start at 1, so 0 stays free for "no row" in
    /// `CompletedQuery::table_version`).
    pub(crate) fn version(&self, party: usize) -> u64 {
        self.pools[party][0].server.generation() + 1
    }

    /// Replicas currently draining `party`'s queue.
    pub(crate) fn active_replicas(&self, party: usize) -> usize {
        self.active[party].load(Ordering::Acquire)
    }

    /// Move `party`'s active replica count (the autoscale controller's
    /// write path). Newly-activated replicas are woken off the park
    /// condvar; on a scale-down the surplus workers park lazily the next
    /// time they look at the queue.
    pub(crate) fn set_active_replicas(&self, party: usize, count: usize) {
        debug_assert!(
            (self.config.replicas.min..=self.config.replicas.max).contains(&count),
            "active count {count} outside configured range"
        );
        // Publish the count and notify under the queue lock: a parking
        // worker reads the active count and waits on `activated` while
        // holding this lock, so doing both inside it leaves no window
        // between the worker's read and its wait for the notification to
        // land in — a scaled-up worker cannot stay parked while counted
        // active.
        let _state = self.queues[party].state.lock();
        self.active[party].store(count, Ordering::Release);
        self.queues[party].activated.notify_all();
    }

    /// Atomically enqueue the one or two server projections of one query
    /// (slot = party), or shed.
    ///
    /// The embedded path hands over both projections; the wire frontend's
    /// path only its own party's (a networked deployment runs one frontend
    /// per party, and each server process only ever sees its own
    /// projection). The touched queues are locked in party order — the order
    /// [`Self::enqueue_update`] takes them in — so concurrent enqueuers
    /// cannot deadlock, and admissibility is decided on every touched queue
    /// before any push: a query is either fully admitted or not admitted at
    /// all. A full queue does not immediately shed the *arrival*: if a
    /// strictly lower-priority entry is queued, that entry is displaced
    /// instead (shed with [`ServeError::Displaced`]) — the background tier
    /// absorbs overload so urgent tenants keep their deadline.
    pub(crate) fn enqueue(
        &self,
        capacity: usize,
        entries: [Option<PendingEntry>; 2],
    ) -> Result<(), ServeError> {
        // The queues this query touches, in party order.
        let touched: Vec<&BatchQueue> = self
            .queues
            .iter()
            .zip(&entries)
            .filter_map(|(queue, entry)| entry.as_ref().map(|_| queue))
            .collect();
        let displaced = {
            let mut locked: Vec<_> = touched.iter().map(|queue| queue.state.lock()).collect();
            if locked.iter().any(|queue| queue.closed) {
                return Err(ServeError::ShuttingDown);
            }
            // Plan every slot before mutating any: admission stays
            // all-or-nothing.
            let plans: Option<Vec<SlotPlan>> = locked
                .iter()
                .zip(entries.iter().flatten())
                .map(|(queue, entry)| plan_slot(queue, capacity, entry.priority))
                .collect();
            let Some(plans) = plans else {
                return Err(ServeError::QueueFull {
                    table: self.name.clone(),
                    depth: locked
                        .iter()
                        .map(|queue| queue.entries.len())
                        .max()
                        .unwrap_or(0),
                });
            };
            let mut displaced = Vec::new();
            for ((queue, plan), entry) in locked
                .iter_mut()
                .zip(plans)
                .zip(entries.into_iter().flatten())
            {
                displaced.extend(execute_slot_plan(queue, plan));
                queue.entries.push_back(QueueItem::Query(entry));
            }
            displaced
        };
        self.settle_displaced(displaced);
        for queue in touched {
            // A single wakeup suffices: only *active* workers wait on
            // `arrived` (parked ones sit on `activated`), and a worker that
            // discovers it was scaled down mid-wait re-notifies before
            // parking so the baton cannot be lost.
            #[expect(
                clippy::disallowed_methods,
                reason = "one item, one wakeup: parked workers re-pass the baton, and barrier epochs end in notify_all, so no enqueue notification is lost"
            )]
            queue.arrived.notify_one();
        }
        Ok(())
    }

    /// Deliver [`ServeError::Displaced`] to evicted entries and account the
    /// eviction.
    ///
    /// Called *off* the queue locks: responder delivery runs an arbitrary
    /// waker (thread unpark, writer poke), which must never execute under a
    /// dispatch-queue lock.
    fn settle_displaced(&self, displaced: Vec<PendingEntry>) {
        for victim in displaced {
            // Flag the shared cancellation so the sibling projection at the
            // other party (which may not have been displaced) is skipped at
            // formation instead of computing a share nobody will combine.
            // `swap` also dedupes accounting when *both* parties displaced
            // the same query's projections in one planning pass: the query
            // was displaced once, not twice.
            if victim.canceled.swap(true, Ordering::AcqRel) {
                continue;
            }
            for stats in self.stats.levels(victim.tier) {
                stats.displaced.fetch_add(1, Ordering::Relaxed);
            }
            let tier = self.config.tiers.class(victim.tier).name.clone();
            victim.responder.send(Err(ServeError::Displaced {
                table: self.name.clone(),
                tier,
            }));
        }
    }

    /// Atomically enqueue a hot-reload barrier at both parties' queues.
    ///
    /// Same locking discipline as [`Self::enqueue`], so every query pair is
    /// ordered identically relative to the marker in both queues —
    /// the property the consistency guarantee rests on. Updates are control
    /// traffic and bypass the data queue's capacity check.
    pub(crate) fn enqueue_update(
        &self,
        to0: UpdateMarker,
        to1: UpdateMarker,
    ) -> Result<(), ServeError> {
        let mut q0 = self.queues[0].state.lock();
        let mut q1 = self.queues[1].state.lock();
        if q0.closed || q1.closed {
            return Err(ServeError::ShuttingDown);
        }
        q0.entries.push_back(QueueItem::Update(to0));
        q1.entries.push_back(QueueItem::Update(to1));
        drop(q0);
        drop(q1);
        // All formers must wake: whichever reaches the marker first becomes
        // the barrier applier, the rest must re-check the barrier flag.
        self.queues[0].arrived.notify_all();
        self.queues[1].arrived.notify_all();
        Ok(())
    }
}

/// How one queue can make room for an arriving entry.
#[derive(Clone, Copy, Debug)]
pub(crate) enum SlotPlan {
    /// The queue has capacity; just push.
    Room,
    /// Remove the (already dead) entry at this position first.
    PruneCanceled(usize),
    /// Evict the live, strictly lower-priority entry at this position.
    Displace(usize),
}

/// Decide how `state`'s queue admits an arrival of `priority`, or `None`
/// if it cannot (full, and every queued entry is at least as urgent).
///
/// Preference order when full: free a canceled entry (costs nobody
/// anything), else displace the *youngest, least urgent* queued entry whose
/// priority number is strictly greater than the arrival's. Strictness
/// matters twice: same-priority traffic can never displace itself (so the
/// single-tier degenerate case keeps exact classic `QueueFull` semantics),
/// and an arrival never displaces an equally urgent peer that got there
/// first.
fn plan_slot(state: &QueueState, capacity: usize, priority: u8) -> Option<SlotPlan> {
    if state.entries.len() < capacity {
        return Some(SlotPlan::Room);
    }
    let mut victim: Option<(usize, u8)> = None;
    for (position, item) in state.entries.iter().enumerate() {
        let QueueItem::Query(entry) = item else {
            continue;
        };
        if entry.is_canceled() {
            return Some(SlotPlan::PruneCanceled(position));
        }
        if entry.priority > priority {
            // `>=` keeps the youngest among equals as the scan runs
            // front-to-back: a later (younger) entry of the same lowest
            // priority replaces an older one, so FIFO fairness is preserved
            // among the doomed.
            let beats = victim.is_none_or(|(_, best)| entry.priority >= best);
            if beats {
                victim = Some((position, entry.priority));
            }
        }
    }
    victim.map(|(position, _)| SlotPlan::Displace(position))
}

/// Apply a [`SlotPlan`], returning the displaced entry if there is one.
fn execute_slot_plan(state: &mut QueueState, plan: SlotPlan) -> Option<PendingEntry> {
    match plan {
        SlotPlan::Room => None,
        SlotPlan::PruneCanceled(position) => {
            drop(state.entries.remove(position));
            None
        }
        SlotPlan::Displace(position) => match state.entries.remove(position) {
            Some(QueueItem::Query(entry)) => Some(entry),
            // Unreachable: the plan was made under the same lock.
            Some(other) => {
                state
                    .entries
                    .insert(position.min(state.entries.len()), other);
                None
            }
            None => None,
        },
    }
}

/// The runtime's collection of hosted tables.
#[derive(Default)]
pub(crate) struct TableRegistry {
    tables: RwLock<HashMap<String, Arc<HostedTable>>>,
}

impl TableRegistry {
    pub(crate) fn insert(&self, hosted: Arc<HostedTable>) -> Result<(), ServeError> {
        let mut tables = self.tables.write();
        if tables.contains_key(&hosted.name) {
            return Err(ServeError::TableExists(hosted.name.clone()));
        }
        tables.insert(hosted.name.clone(), hosted);
        Ok(())
    }

    pub(crate) fn get(&self, name: &str) -> Result<Arc<HostedTable>, ServeError> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| ServeError::UnknownTable(name.to_string()))
    }

    pub(crate) fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    pub(crate) fn all(&self) -> Vec<Arc<HostedTable>> {
        let mut all: Vec<Arc<HostedTable>> = self.tables.read().values().cloned().collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_prf::PrfKind;
    use pir_protocol::PirServer;

    fn hosted(name: &str) -> Arc<HostedTable> {
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        Arc::new(HostedTable::build(name, table, TableConfig::default()).expect("valid table"))
    }

    #[test]
    fn registry_inserts_and_rejects_duplicates() {
        let registry = TableRegistry::default();
        registry.insert(hosted("users")).unwrap();
        registry.insert(hosted("items")).unwrap();
        assert_eq!(registry.names(), vec!["items", "users"]);
        assert!(matches!(
            registry.insert(hosted("users")),
            Err(ServeError::TableExists(_))
        ));
        assert!(registry.get("users").is_ok());
        assert!(matches!(
            registry.get("ghosts"),
            Err(ServeError::UnknownTable(_))
        ));
    }

    #[test]
    fn sharded_tables_get_sharded_servers() {
        let table = PirTable::generate(256, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .shards(4)
            .build()
            .unwrap();
        let hosted = HostedTable::build("big", table, config).expect("valid table");
        // Both parties' replicas serve the same schema.
        assert_eq!(
            hosted.pools[0][0].server.schema(),
            hosted.pools[1][0].server.schema()
        );
        assert_eq!(hosted.pools[0][0].server.schema().entries, 256);
    }

    #[test]
    fn replica_pools_hold_interchangeable_servers() {
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .replicas(3)
            .build()
            .unwrap();
        let hosted = HostedTable::build("pooled", table, config).expect("valid table");
        for party in 0..2 {
            assert_eq!(hosted.pools[party].len(), 3);
            for slot in &hosted.pools[party] {
                assert_eq!(slot.server.schema().entries, 128);
            }
        }
    }

    #[test]
    fn a_write_reaches_every_replica_of_its_party_and_no_other() {
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .replica_range(1, 3)
            .build()
            .unwrap();
        let hosted = HostedTable::build("elastic", table.clone(), config).expect("valid table");
        let mut written = table.clone();
        written.update_entry(7, &[9; 8]);
        // Replica 1 is parked (one of three is active); its write is the
        // party's.
        hosted.pools[0][1]
            .server
            .update_entry(7, &[9; 8])
            .expect("valid update");

        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(2);
        let query = hosted.client.query(7, &mut rng);
        for (party, served) in [(0u8, &written), (1, &table)] {
            let projection = [query.to_server(party)];
            let unshared = GpuPirServer::with_defaults(served.clone(), PrfKind::SipHash);
            let expected = unshared.answer_batch(&projection).unwrap();
            for slot in &hosted.pools[usize::from(party)] {
                assert_eq!(slot.server.answer_batch(&projection).unwrap(), expected);
            }
        }
        assert_eq!([hosted.version(0), hosted.version(1)], [2, 1]);
    }

    fn entry(hosted: &HostedTable, party: u8) -> PendingEntry {
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let query = hosted.client.query(3, &mut rng);
        let (tx, _rx) = oneshot::channel();
        let now = Instant::now();
        PendingEntry {
            query: query.to_server(party),
            enqueued_at: now,
            deadline: now + std::time::Duration::from_millis(2),
            tier: 0,
            priority: 0,
            responder: tx,
            canceled: Arc::new(AtomicBool::new(false)),
        }
    }

    #[test]
    fn enqueue_respects_capacity() {
        let hosted = hosted("capped");
        let pair = || [Some(entry(&hosted, 0)), Some(entry(&hosted, 1))];
        hosted.enqueue(1, pair()).unwrap();
        let err = hosted.enqueue(1, pair()).unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { depth: 1, .. }));
        assert_eq!(hosted.queues[0].depth(), 1);
        assert_eq!(hosted.queues[1].depth(), 1);
        // A pair is all-or-nothing: party 0's full queue sheds it whole.
        hosted.queues[1].state.lock().entries.clear();
        let err = hosted.enqueue(1, pair()).unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { depth: 1, .. }));
        assert_eq!(hosted.queues[1].depth(), 0);
        // A lone projection touches (and is bounded by) only its own
        // party's queue.
        hosted.enqueue(1, [None, Some(entry(&hosted, 1))]).unwrap();
        let err = hosted
            .enqueue(1, [Some(entry(&hosted, 0)), None])
            .unwrap_err();
        assert!(matches!(err, ServeError::QueueFull { depth: 1, .. }));
        assert_eq!(hosted.queues[0].depth(), 1);
        assert_eq!(hosted.queues[1].depth(), 1);
    }

    #[test]
    fn oversharded_tables_are_rejected_with_typed_error() {
        let table = PirTable::generate(4, 8, |row, _| row as u8);
        let config = TableConfig::builder().shards(64).build().unwrap();
        let err = match HostedTable::build("tiny", table, config) {
            Err(err) => err,
            Ok(_) => panic!("oversharded table must be rejected"),
        };
        assert!(matches!(err, ServeError::InvalidConfig(_)));
        assert!(err.to_string().contains("4 entries"));

        // A 1-entry table has a depth-0 DPF tree: even 2 shards must be
        // rejected here rather than panicking on the first query.
        let singleton = PirTable::generate(1, 8, |row, _| row as u8);
        let config = TableConfig::builder().shards(2).build().unwrap();
        assert!(HostedTable::build("one", singleton, config).is_err());
    }

    #[test]
    fn closed_queues_shed_with_shutting_down() {
        let hosted = hosted("closing");
        hosted.queues[0].close();
        let err = hosted
            .enqueue(8, [Some(entry(&hosted, 0)), Some(entry(&hosted, 1))])
            .unwrap_err();
        assert_eq!(err, ServeError::ShuttingDown);
        // Only the touched queue decides: party 1's is still open.
        hosted.enqueue(8, [None, Some(entry(&hosted, 1))]).unwrap();
    }
}
