//! The dynamic batch former and replica dispatcher: one worker per (table,
//! party, replica).
//!
//! Each party's replicas drain one shared bounded queue under a
//! *max-batch-size / max-wait-time* policy — the same two-knob formation rule
//! production inference servers use — and submit each formed batch to their
//! own server replica in one call, where the scheduler turns it into a single
//! [`pir_dpf::ExecutionPlan`] and launches it as one simulated kernel.
//! Because every replica worker competes for the same queue, a burst on a hot
//! table naturally fans out: while replica 0 is inside `answer_batch`,
//! replica 1's worker picks up the next formed batch instead of queueing
//! behind it. Before launching, a worker leases the replica's devices from
//! the runtime-wide [`DeviceBudget`](crate::budget::DeviceBudget), so
//! cross-table load shares one fleet instead of statically partitioning it.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

use crate::budget::DeviceBudget;
use crate::error::ServeError;
use crate::registry::{AnsweredShare, HostedTable, PendingEntry, QueueItem, UpdateMarker};
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
    let policy = table.config.batch;
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
                    // pir-lint: allow(notify-one, "baton re-pass: barrier is false under this lock, so every arrived-waiter is an active worker (or another to-be-parked one, which re-passes); barrier epochs end in notify_all")
                    queue.arrived.notify_one();
                    queue.activated.wait(&mut state);
                    continue;
                }
                match state.entries.front() {
                    Some(QueueItem::Update(_)) => {
                        let Some(QueueItem::Update(marker)) = state.entries.pop_front() else {
                            unreachable!("front checked above");
                        };
                        state.pending_updates -= 1;
                        state.barrier = true;
                        // Entries popped before the marker must finish
                        // reading the old table before the update lands.
                        while state.inflight_batches > 0 {
                            queue.arrived.wait(&mut state);
                        }
                        break Action::Apply(marker);
                    }
                    Some(QueueItem::Query(_)) => {}
                    None if state.closed => break Action::Exit,
                    None => {
                        queue.arrived.wait(&mut state);
                        continue;
                    }
                }

                // Phase 2: accumulate until the *earliest queued deadline*
                // (each entry's `enqueued_at + its SLO class's deadline`) —
                // so an urgent arrival ends a background batch's
                // accumulation at its own, tighter deadline, and with a
                // single tier this degenerates to the classic
                // `oldest + max_wait` rule. Re-scanned on every wakeup
                // because a new arrival can carry an *earlier* deadline
                // than everything already queued. A queued update ends
                // accumulation early so the barrier is reached promptly.
                loop {
                    let (live, earliest) = scan_live(&mut state, policy.max_batch);
                    if live >= policy.max_batch
                        || state.pending_updates > 0
                        || state.closed
                        || state.barrier
                    {
                        break;
                    }
                    let Some(earliest) = earliest else {
                        // Everything queued was canceled and pruned.
                        break;
                    };
                    let Some(remaining) = earliest.checked_duration_since(Instant::now()) else {
                        break;
                    };
                    if queue.arrived.wait_for(&mut state, remaining).timed_out() {
                        break;
                    }
                }
                if state.barrier {
                    continue;
                }

                // Formation: rank the live prefix (everything ahead of the
                // first update marker — entries behind it belong to the new
                // table version's batches) with the tier ordering: expired
                // deadlines first (age promotion: an overdue background
                // entry cannot be starved by a stream of urgent arrivals),
                // then priority, then FIFO. Urgent entries take the batch,
                // background entries fill whatever residue `max_batch`
                // leaves. Canceled queries are discarded as they are found —
                // their responders close (nobody is listening) and they
                // never reach the device — and they don't occupy batch
                // slots, so heavy cancellation can't make formed batches
                // run undersized.
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
                // Map ranks to queue positions, then pull highest positions
                // first so earlier removals don't shift later ones.
                let mut picks: Vec<(usize, usize)> = order
                    .iter()
                    .take(policy.max_batch)
                    .enumerate()
                    .filter_map(|(rank, &candidate)| {
                        positions.get(candidate).map(|&position| (position, rank))
                    })
                    .collect();
                picks.sort_unstable_by_key(|pick| std::cmp::Reverse(pick.0));
                let mut ranked = Vec::with_capacity(picks.len());
                for (position, rank) in picks {
                    if let Some(QueueItem::Query(entry)) = state.entries.remove(position) {
                        ranked.push((rank, entry));
                    }
                }
                ranked.sort_unstable_by_key(|(rank, _)| *rank);
                let batch: Vec<PendingEntry> = ranked.into_iter().map(|(_, entry)| entry).collect();
                if batch.is_empty() {
                    // Everything was canceled (or a marker is at the
                    // front); go around again.
                    continue;
                }
                state.inflight_batches += 1;
                break Action::Batch(batch);
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

        // Phase 3: submit the formed batch as one execution plan, off the
        // queue lock so new arrivals keep queueing (and sibling replicas
        // keep forming) during the launch.
        let queries: Vec<_> = batch.iter().map(|entry| entry.query.clone()).collect();
        let drained_at = Instant::now();
        table.stats.record_batch(batch.len());
        {
            let mut queue_wait = table.stats.queue_wait.lock();
            for entry in &batch {
                let waited = drained_at.saturating_duration_since(entry.enqueued_at);
                queue_wait.record_ms(waited.as_secs_f64() * 1e3);
            }
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

/// Queries in the queue that are still worth answering, counted up to
/// `cap` — pruning canceled entries as they are found — together with the
/// earliest SLO deadline among them.
///
/// Accumulation counts *these* toward `max_batch`: formation discards
/// canceled entries, so counting them too would let heavy cancellation end
/// accumulation early and launch undersized batches before the deadline.
/// The scan runs under the queue lock on every accumulation wakeup, so it
/// stops at `cap` live entries, and canceled entries (which formation
/// would discard anyway) are dropped on sight — each one costs a visit
/// once ever, not once per wakeup, keeping a canceled-dominated backlog
/// from turning every wakeup into a full-queue walk.
fn scan_live(state: &mut crate::registry::QueueState, cap: usize) -> (usize, Option<Instant>) {
    let mut live = 0;
    let mut earliest: Option<Instant> = None;
    let mut index = 0;
    while live < cap && index < state.entries.len() {
        match &state.entries[index] {
            QueueItem::Query(entry) => {
                if entry.is_canceled() {
                    drop(state.entries.remove(index));
                } else {
                    live += 1;
                    earliest = Some(match earliest {
                        Some(current) => current.min(entry.deadline),
                        None => entry.deadline,
                    });
                    index += 1;
                }
            }
            // An update marker: leave it in place (the accumulation gate's
            // `pending_updates` check ends the wait) and skip past it.
            QueueItem::Update(_) => index += 1,
        }
    }
    (live, earliest)
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

        let worker = {
            let hosted = Arc::clone(&hosted);
            let budget = Arc::new(DeviceBudget::new(None));
            std::thread::spawn(move || run_batch_former(hosted, 0, 0, budget))
        };
        worker.join().unwrap();

        for rx in receivers {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(hosted.stats.batched_queries.load(Ordering::Relaxed), 5);
        assert_eq!(hosted.stats.max_batch.load(Ordering::Relaxed), 5);
        assert_eq!(hosted.stats.queue_wait.lock().count(), 5);
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

        let worker = {
            let hosted = Arc::clone(&hosted);
            let budget = Arc::new(DeviceBudget::new(None));
            std::thread::spawn(move || run_batch_former(hosted, 0, 0, budget))
        };
        worker.join().unwrap();

        // Only the 3 live entries crossed the device.
        assert_eq!(hosted.stats.batched_queries.load(Ordering::Relaxed), 3);
        assert_eq!(hosted.pools[0][0].server.metrics().queries_served, 3);
        for rx in live {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
    }

    #[test]
    fn cancellation_does_not_shrink_formed_batches() {
        // 3 queued entries of which 2 are canceled: with a generous
        // deadline the former must keep accumulating (canceled entries
        // don't count toward max_batch) instead of launching an undersized
        // batch of 1 — the 2 live entries fed in later complete one full
        // batch of 3.
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .max_batch(3)
            .max_wait(Duration::from_secs(10))
            .build()
            .unwrap();
        let hosted = Arc::new(HostedTable::build("t", table, config).expect("valid table"));
        let mut rng = StdRng::seed_from_u64(8);
        let mut live = Vec::new();
        {
            let mut state = hosted.queues[0].state.lock();
            for index in 0..3u64 {
                let (entry, rx) = pending(&hosted, index, &mut rng, index < 2);
                state.entries.push_back(QueueItem::Query(entry));
                if index >= 2 {
                    live.push(rx);
                }
            }
        }
        let worker = {
            let hosted = Arc::clone(&hosted);
            let budget = Arc::new(DeviceBudget::new(None));
            std::thread::spawn(move || run_batch_former(hosted, 0, 0, budget))
        };
        // Give a buggy former ample time to launch the undersized batch
        // before the queue refills.
        std::thread::sleep(Duration::from_millis(100));
        for index in 3..5u64 {
            let (entry, rx) = pending(&hosted, index, &mut rng, false);
            live.push(rx);
            hosted.enqueue(16, [Some(entry), None]).unwrap();
        }
        hosted.queues[0].close();
        worker.join().unwrap();
        for rx in live {
            assert!(oneshot::block_on(rx).unwrap().is_ok());
        }
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 1);
        assert_eq!(hosted.stats.max_batch.load(Ordering::Relaxed), 3);
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
        let worker = {
            let hosted = Arc::clone(&hosted);
            let budget = Arc::new(DeviceBudget::new(None));
            std::thread::spawn(move || run_batch_former(hosted, 0, 0, budget))
        };
        worker.join().unwrap();
        assert_eq!(hosted.stats.batches.load(Ordering::Relaxed), 0);
        assert_eq!(hosted.pools[0][0].server.metrics().queries_served, 0);
    }
}
