//! The dynamic batch former and replica dispatcher: one worker per (table,
//! party, replica).
//!
//! Each party's replicas drain one shared bounded queue under a
//! *work-conserving* formation rule: a replica that is free takes what is
//! queued now — at most `max_batch` entries — and submits it to its own
//! server replica in one call, where the scheduler turns it into a single
//! [`pir_dpf::ExecutionPlan`] and launches it as one simulated kernel.
//! Nothing waits in front of an idle device; queries that arrive while every
//! active replica is inside `answer_batch` queue up and form the next batch,
//! so the in-flight launch is the batching window: under load batches fill
//! (the paper's launch amortisation, §3.2.1, §3.2.5), and a lone query is
//! launched at once. `max_wait` and the tier deadlines do not delay a launch;
//! they are the age at which a queued entry is promoted to the front of
//! formation (see [`formation_order`]).
//!
//! Because every replica worker competes for the same queue, a burst on a hot
//! table naturally fans out: while replica 0 is inside `answer_batch`,
//! replica 1's worker forms the next batch instead of queueing behind it.
//! Before launching, a worker leases the replica's devices from the
//! runtime-wide [`DeviceBudget`](crate::budget::DeviceBudget), so cross-table
//! load shares one fleet instead of statically partitioning it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::budget::DeviceBudget;
use crate::error::ServeError;
use crate::registry::{
    AnsweredShare, HostedTable, PendingEntry, QueueItem, QueueState, UpdateMarker,
};
use crate::tier::{formation_order, BatchCandidate};

/// What one trip through the queue decided to do.
enum Action {
    /// Launch a formed batch.
    Batch(Vec<PendingEntry>),
    /// Apply a hot-reload barrier to every replica of this party.
    Apply(UpdateMarker),
    /// Queue closed and drained: exit.
    Exit,
}

/// Run one replica's batch former until its party's queue is closed *and*
/// drained.
///
/// Shutdown is graceful by construction: closing the queue stops new
/// arrivals, but every already-admitted query is still formed into a final
/// batch and answered, preserving the exactly-once answer guarantee.
/// Canceled entries are skipped at formation time — an abandoned query costs
/// queue capacity only until the next drain, and device work never.
///
/// Hot reloads ride the same queue as [`QueueItem::Update`] barriers.
/// Whichever replica worker finds a marker at the queue front claims it:
/// it raises the party's barrier flag (pausing all pops), waits until every
/// previously-popped batch has finished its launch, applies the update to
/// every replica of the party, then lowers the barrier. Together with the
/// atomic pair/marker enqueue ordering this yields the consistency
/// guarantee: both parties answer any given *pair-enqueued* query from the
/// same table version (wire-path projections enqueue per party and carry
/// a table-version stamp the client compares instead; see `WireFrontend`).
pub(crate) fn run_batch_former(
    table: Arc<HostedTable>,
    party: usize,
    replica: usize,
    budget: Arc<DeviceBudget>,
) {
    let max_batch = table.config.batch.max_batch;
    let queue = &table.queues[party];
    let slot = &table.pools[party][replica];

    loop {
        let action: Action = {
            let mut state = queue.state.lock();
            loop {
                // A barrier in progress pauses every pop path.
                if state.barrier {
                    queue.arrived.wait(&mut state);
                    continue;
                }
                // A replica the autoscaler has parked does not pop. It
                // still exits promptly on shutdown (active replicas drain
                // whatever is queued) and re-checks on every wake, so a
                // scale-up activates it without respawning a thread.
                if replica >= table.active_replicas(party) {
                    if state.closed {
                        break Action::Exit;
                    }
                    // This worker may have been waiting on `arrived` when
                    // it was scaled down, in which case it could just have
                    // consumed a single-wakeup notification meant for an
                    // active worker — pass the baton before parking on the
                    // dedicated condvar.
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "baton re-pass: barrier is false under this lock, so every arrived-waiter is an active worker (or another to-be-parked one, which re-passes); barrier epochs end in notify_all"
                    )]
                    queue.arrived.notify_one();
                    queue.activated.wait(&mut state);
                    continue;
                }
                match state.entries.front() {
                    Some(QueueItem::Update(_)) => {
                        let Some(QueueItem::Update(marker)) = state.entries.pop_front() else {
                            unreachable!("front checked above");
                        };
                        state.barrier = true;
                        // Entries popped before the marker must finish
                        // reading the old table before the update lands.
                        while state.inflight_batches > 0 {
                            queue.arrived.wait(&mut state);
                        }
                        break Action::Apply(marker);
                    }
                    // Work-conserving: this replica is free, so it takes
                    // what is queued *now*; the launch is the only window
                    // in which the next batch accumulates.
                    Some(QueueItem::Query(_)) => {
                        let batch = form_batch(&mut state, max_batch);
                        if batch.is_empty() {
                            // Everything ahead of the next marker was
                            // canceled; look at the queue again.
                            continue;
                        }
                        state.inflight_batches += 1;
                        break Action::Batch(batch);
                    }
                    None if state.closed => break Action::Exit,
                    None => queue.arrived.wait(&mut state),
                }
            }
        };

        let batch = match action {
            Action::Exit => return,
            Action::Apply(marker) => {
                let result = apply_update(&table, party, &marker);
                {
                    let mut state = queue.state.lock();
                    state.barrier = false;
                }
                queue.arrived.notify_all();
                marker.responder.send(result);
                continue;
            }
            Action::Batch(batch) => batch,
        };

        // Submit the formed batch as one execution plan, off the queue lock
        // so new arrivals keep queueing (and sibling replicas keep forming)
        // during the launch.
        let queries: Vec<_> = batch.iter().map(|entry| entry.query.clone()).collect();
        let drained_at = Instant::now();
        table.stats.record_batch(batch.len());
        for entry in &batch {
            let waited = drained_at.saturating_duration_since(entry.enqueued_at);
            table.stats.queue_wait.record_ms(waited.as_secs_f64() * 1e3);
        }

        // The lease carries the table slices the replica keeps on-device
        // for this batch size (zero when it streams) — the replica's
        // residency rule, not the serve layer, decides what stays, so
        // telemetry reflects what the backend will actually hold.
        let planned_bytes = slot.server.planned_resident_bytes(queries.len());
        let lease = budget.acquire(table.config.shards, planned_bytes);
        table
            .stats
            .in_flight_batches
            .fetch_add(1, Ordering::Relaxed);
        // Stable for the whole launch: an update barrier waits until every
        // popped batch has finished (`inflight_batches == 0`) before the
        // version moves, so every share in this batch reads — and is
        // stamped with — the same table version.
        let table_version = table.versions[party].load(Ordering::Acquire);
        let launched_at = Instant::now();
        let outcome = slot.server.answer_batch(&queries);
        slot.stats
            .record_batch(batch.len() as u64, launched_at.elapsed());
        table
            .stats
            .in_flight_batches
            .fetch_sub(1, Ordering::Relaxed);
        // The lease covers only the kernel launch: response delivery below
        // must not hold devices that sibling replicas could be using.
        drop(lease);
        // The launch has read the table; a waiting update barrier may
        // proceed once every popped batch has reached this point.
        {
            let mut state = queue.state.lock();
            state.inflight_batches -= 1;
        }
        queue.arrived.notify_all();

        match outcome {
            Ok(responses) => {
                for (entry, response) in batch.into_iter().zip(responses) {
                    entry.responder.send(Ok(AnsweredShare {
                        response,
                        table_version,
                    }));
                }
            }
            Err(err) => {
                for entry in batch {
                    entry.responder.send(Err(err.clone().into()));
                }
            }
        }
    }
}

/// Form one batch from what is queued now: at most `max_batch` live
/// entries of the prefix ahead of the first update marker (entries behind it
/// belong to the new table version's batches), in [`formation_order`] —
/// expired deadlines first (age promotion: an overdue background entry
/// cannot be starved by a stream of urgent arrivals), then priority, then
/// FIFO, so urgent entries take the batch and background entries fill
/// whatever residue `max_batch` leaves.
///
/// Canceled entries in that prefix are discarded as they are found — their
/// responders close (nobody is listening), they never reach the device and
/// they occupy no batch slot, so heavy cancellation cannot make formed
/// batches run undersized.
fn form_batch(state: &mut QueueState, max_batch: usize) -> Vec<PendingEntry> {
    let mut positions = Vec::new();
    let mut candidates = Vec::new();
    let mut index = 0;
    while index < state.entries.len() {
        match &state.entries[index] {
            QueueItem::Query(entry) => {
                if entry.is_canceled() {
                    drop(state.entries.remove(index));
                } else {
                    positions.push(index);
                    candidates.push(BatchCandidate {
                        deadline: entry.deadline,
                        priority: entry.priority,
                    });
                    index += 1;
                }
            }
            QueueItem::Update(_) => break,
        }
    }
    let order = formation_order(Instant::now(), &candidates);
    // Map ranks to queue positions, then pull highest positions first so
    // earlier removals don't shift later ones.
    let mut picks: Vec<(usize, usize)> = order
        .iter()
        .take(max_batch)
        .enumerate()
        .filter_map(|(rank, &candidate)| positions.get(candidate).map(|&position| (position, rank)))
        .collect();
    picks.sort_unstable_by_key(|pick| std::cmp::Reverse(pick.0));
    let mut ranked = Vec::with_capacity(picks.len());
    for (position, rank) in picks {
        if let Some(QueueItem::Query(entry)) = state.entries.remove(position) {
            ranked.push((rank, entry));
        }
    }
    ranked.sort_unstable_by_key(|(rank, _)| *rank);
    ranked.into_iter().map(|(_, entry)| entry).collect()
}

/// Apply one hot-reload marker to every replica of `party`.
///
/// Called with the party's barrier raised and no batches in flight, so no
/// replica is reading while the rows change.
fn apply_update(
    table: &HostedTable,
    party: usize,
    marker: &UpdateMarker,
) -> Result<(), ServeError> {
    // Every replica of the pool — active or parked — takes the update, so
    // a later scale-up activates a replica that is already current.
    for slot in &table.pools[party] {
        slot.server
            .update_entry(marker.index, &marker.bytes)
            .map_err(ServeError::from)?;
    }
    // Bump the party's stamp only after every replica serves the new
    // version; batches launched from here on carry it.
    table.versions[party].fetch_add(1, Ordering::AcqRel);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
    use crate::oneshot;
    use crate::registry::PendingEntry;
    use pir_protocol::PirTable;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    fn pending(
        hosted: &HostedTable,
        index: u64,
        rng: &mut StdRng,
        canceled: bool,
    ) -> (
        PendingEntry,
        oneshot::Receiver<Result<AnsweredShare, crate::ServeError>>,
    ) {
        let query = hosted.client.query(index, rng);
        let (tx, rx) = oneshot::channel();
        let class = hosted.config.tiers.class(0);
        let now = Instant::now();
        (
            PendingEntry {
                query: query.to_server(0),
                enqueued_at: now,
                deadline: now + class.deadline,
                tier: 0,
                priority: class.priority,
                responder: tx,
                canceled: Arc::new(AtomicBool::new(canceled)),
            },
            rx,
        )
    }

    /// A single-tier table whose `max_wait` is far beyond any test's
    /// runtime: nothing below may depend on it elapsing.
    fn patient_table(max_batch: usize) -> Arc<HostedTable> {
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .max_batch(max_batch)
            .max_wait(Duration::from_secs(10))
            .build()
            .unwrap();
        Arc::new(HostedTable::build("t", table, config).expect("valid table"))
    }

    fn spawn_former(
        hosted: &Arc<HostedTable>,
        budget: Arc<DeviceBudget>,
    ) -> std::thread::JoinHandle<()> {
        let hosted = Arc::clone(hosted);
        std::thread::spawn(move || run_batch_former(hosted, 0, 0, budget))
    }

    #[test]
    fn former_coalesces_queued_entries_into_one_batch() {
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .max_batch(8)
            .max_wait(Duration::from_millis(20))
            .build()
            .unwrap();
        let hosted = Arc::new(HostedTable::build("t", table, config).expect("valid table"));
        let mut rng = StdRng::seed_from_u64(5);

        // Queue 5 entries for party 0 *before* the worker starts, so they
        // must come out as one batch of 5.
        let mut receivers = Vec::new();
        {
            let mut state = hosted.queues[0].state.lock();
            for index in 0..5u64 {
                let (entry, rx) = pending(&hosted, index, &mut rng, false);
                state.entries.push_back(QueueItem::Query(entry));
                receivers.push(rx);
            }
        }
        hosted.queues[0].close(); // run one batch, then exit

        spawn_former(&hosted, Arc::new(DeviceBudget::new(None)))
            .join()
            .unwrap();

        for rx in receivers {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(hosted.stats.batched_queries.load(Ordering::Relaxed), 5);
        assert_eq!(hosted.stats.max_batch.load(Ordering::Relaxed), 5);
        assert_eq!(hosted.stats.queue_wait.count(), 5);
        // The replica that served the batch recorded its work.
        assert_eq!(hosted.pools[0][0].stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(hosted.pools[0][0].stats.queries.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn canceled_entries_are_skipped_at_formation() {
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        let hosted = Arc::new(HostedTable::build("t", table, config).expect("valid table"));
        let mut rng = StdRng::seed_from_u64(6);

        let mut live = Vec::new();
        {
            let mut state = hosted.queues[0].state.lock();
            for index in 0..6u64 {
                let (entry, rx) = pending(&hosted, index, &mut rng, index % 2 == 0);
                state.entries.push_back(QueueItem::Query(entry));
                if index % 2 != 0 {
                    live.push(rx);
                }
            }
        }
        hosted.queues[0].close();

        spawn_former(&hosted, Arc::new(DeviceBudget::new(None)))
            .join()
            .unwrap();

        // Only the 3 live entries crossed the device.
        assert_eq!(hosted.stats.batched_queries.load(Ordering::Relaxed), 3);
        assert_eq!(hosted.pools[0][0].server.metrics().queries_served, 3);
        for rx in live {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
    }

    #[test]
    fn cancellation_does_not_shrink_formed_batches() {
        // 6 queued entries of which 3 are canceled, and room for 3 per
        // launch: canceled entries occupy no batch slot, so the 3 live ones
        // come out as exactly one full batch.
        let hosted = patient_table(3);
        let mut rng = StdRng::seed_from_u64(8);
        let mut live = Vec::new();
        {
            let mut state = hosted.queues[0].state.lock();
            for index in 0..6u64 {
                let (entry, rx) = pending(&hosted, index, &mut rng, index % 2 == 0);
                state.entries.push_back(QueueItem::Query(entry));
                if index % 2 != 0 {
                    live.push(rx);
                }
            }
        }
        hosted.queues[0].close();
        spawn_former(&hosted, Arc::new(DeviceBudget::new(None)))
            .join()
            .unwrap();
        for rx in live {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(hosted.stats.max_batch.load(Ordering::Relaxed), 3);
        assert_eq!(hosted.pools[0][0].server.metrics().queries_served, 3);
    }

    #[test]
    fn lone_query_on_an_idle_replica_launches_at_once() {
        let hosted = patient_table(8);
        let worker = spawn_former(&hosted, Arc::new(DeviceBudget::new(None)));
        let mut rng = StdRng::seed_from_u64(9);
        let (entry, rx) = pending(&hosted, 5, &mut rng, false);
        hosted.enqueue(16, [Some(entry), None]).unwrap();
        assert!(oneshot::block_on(rx).unwrap().is_ok());
        hosted.queues[0].close();
        worker.join().unwrap();
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 1);
        let waited_ms = hosted.stats.queue_wait.quantile_ms(1.0).unwrap();
        assert!(
            waited_ms < 100.0,
            "an idle replica must not sit out the 10 s max_wait (waited {waited_ms} ms)"
        );
    }

    #[test]
    fn launch_in_flight_is_the_batching_window() {
        // The only replica is held mid-launch: the test owns the one-device
        // budget, so the worker forms a first batch and blocks leasing it.
        let hosted = patient_table(8);
        let budget = Arc::new(DeviceBudget::new(Some(1)));
        let held = budget.acquire(1, 0);
        let mut rng = StdRng::seed_from_u64(10);
        let (first, first_rx) = pending(&hosted, 0, &mut rng, false);
        hosted.enqueue(16, [Some(first), None]).unwrap();
        let worker = spawn_former(&hosted, Arc::clone(&budget));
        while hosted.stats.batches.load(Ordering::Relaxed) == 0 {
            std::thread::yield_now();
        }

        // Everything that arrives meanwhile comes out as one batch.
        let mut receivers = vec![first_rx];
        for index in 1..=5u64 {
            let (entry, rx) = pending(&hosted, index, &mut rng, false);
            hosted.enqueue(16, [Some(entry), None]).unwrap();
            receivers.push(rx);
        }
        hosted.queues[0].close();
        drop(held);
        worker.join().unwrap();
        for rx in receivers {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 2);
        assert_eq!(hosted.stats.max_batch.load(Ordering::Relaxed), 5);
        assert_eq!(hosted.stats.batched_queries.load(Ordering::Relaxed), 6);
    }

    #[test]
    fn formation_takes_the_expired_background_entry_first() {
        // Two tiers queued behind a busy replica, more than one launch
        // admits: the overdue background entry is picked first, the residue
        // goes to the urgent tier in arrival order, and nothing behind the
        // update marker is touched.
        let hosted = patient_table(2);
        let mut rng = StdRng::seed_from_u64(11);
        let now = Instant::now();
        let mut entry = |priority: u8, deadline: Instant| {
            let (mut entry, _rx) = pending(&hosted, 1, &mut rng, false);
            entry.priority = priority;
            entry.deadline = deadline;
            QueueItem::Query(entry)
        };
        let urgent = [1, 2, 3].map(|ms| now + Duration::from_secs(ms));
        let overdue = now - Duration::from_millis(1);
        let mut state = QueueState::default();
        state.entries.push_back(entry(0, urgent[0]));
        state.entries.push_back(entry(0, urgent[1]));
        state.entries.push_back(entry(2, overdue));
        let (tx, _rx) = oneshot::channel();
        state.entries.push_back(QueueItem::Update(UpdateMarker {
            index: 0,
            bytes: Arc::new(vec![0; 8]),
            responder: tx,
        }));
        state.entries.push_back(entry(0, urgent[2]));

        let deadlines = |batch: &[PendingEntry]| -> Vec<Instant> {
            batch.iter().map(|entry| entry.deadline).collect()
        };
        assert_eq!(deadlines(&form_batch(&mut state, 2)), [overdue, urgent[0]]);
        assert_eq!(deadlines(&form_batch(&mut state, 2)), [urgent[1]]);
        assert!(form_batch(&mut state, 2).is_empty());
        assert!(matches!(state.entries.front(), Some(QueueItem::Update(_))));
        assert_eq!(state.entries.len(), 2);
    }

    #[test]
    fn all_canceled_batch_launches_nothing() {
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .max_batch(4)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        let hosted = Arc::new(HostedTable::build("t", table, config).expect("valid table"));
        let mut rng = StdRng::seed_from_u64(7);
        {
            let mut state = hosted.queues[0].state.lock();
            for index in 0..4u64 {
                let (entry, _rx) = pending(&hosted, index, &mut rng, true);
                state.entries.push_back(QueueItem::Query(entry));
            }
        }
        hosted.queues[0].close();
        spawn_former(&hosted, Arc::new(DeviceBudget::new(None)))
            .join()
            .unwrap();
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 0);
        assert_eq!(hosted.pools[0][0].server.metrics().queries_served, 0);
    }
}
