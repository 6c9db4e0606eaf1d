//! The client API: [`ServeHandle`] to submit queries, [`PendingQuery`] to
//! await them.

use std::future::Future;
use std::pin::Pin;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Context, Poll};
use std::time::Instant;

use pir_protocol::{PirError, PirQuery, ServerQuery};

use crate::admission::InFlightGuard;
use crate::error::ServeError;
use crate::oneshot::{self, Receiver};
use crate::registry::{AnsweredShare, HostedTable, PendingEntry, UpdateMarker};
use crate::runtime::RuntimeInner;
use crate::stats::StatsSnapshot;

/// A clonable, thread-safe handle for submitting queries to the runtime.
///
/// Handles stay valid across runtime shutdown: submissions after shutdown
/// shed with [`ServeError::ShuttingDown`].
#[derive(Clone)]
pub struct ServeHandle {
    pub(crate) inner: Arc<RuntimeInner>,
}

impl ServeHandle {
    /// Submit one private lookup of `index` in `table` on behalf of
    /// `tenant`.
    ///
    /// On success the query has been admitted: its keys are generated and
    /// its two server projections are queued at the table's two per-party
    /// dispatch queues. Await (or [`PendingQuery::wait`]) the returned
    /// future for the reconstructed row. Dropping the future cancels the
    /// query: its queued entries are skipped at batch formation and cost no
    /// device work.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTable`] — no such table.
    /// * [`ServeError::IndexOutOfRange`] — index outside the table.
    /// * [`ServeError::QuotaExceeded`] / [`ServeError::QueueFull`] /
    ///   [`ServeError::ShuttingDown`] — backpressure; retry later.
    pub fn query(&self, table: &str, tenant: &str, index: u64) -> Result<PendingQuery, ServeError> {
        let hosted = self.inner.registry.get(table)?;
        if index >= hosted.schema.entries {
            return Err(ServeError::IndexOutOfRange {
                index,
                entries: hosted.schema.entries,
            });
        }
        let ticket = self.admit(hosted, tenant)?;
        // Key generation is the dominant client-side cost (which is why it
        // comes after the quota check); give every query its own
        // deterministic RNG stream so concurrent submitters never serialize
        // on a shared generator.
        let mut rng = self.inner.query_rng();
        let query = ticket.hosted.client.query(index, &mut rng);
        let (done, [rx0, rx1]) = ticket.enqueue([query.to_server(0), query.to_server(1)])?;
        Ok(PendingQuery {
            query,
            rx0: Some(rx0),
            rx1: Some(rx1),
            response0: None,
            response1: None,
            done,
        })
    }

    /// Submit one *already-generated* server projection at a single party's
    /// queue (the wire frontend's path: keys arrive from remote clients,
    /// this runtime never sees the pair).
    ///
    /// # Errors
    ///
    /// Same backpressure errors as [`Self::query`], plus
    /// [`ServeError::Protocol`] with a schema mismatch if the query was
    /// generated for a different table shape.
    pub(crate) fn submit_server_query(
        &self,
        table: &str,
        tenant: &str,
        query: ServerQuery,
    ) -> Result<PendingShare, ServeError> {
        let hosted = self.inner.registry.get(table)?;
        if query.schema != hosted.schema || query.key.params.domain_size != hosted.schema.entries {
            return Err(ServeError::Protocol(PirError::SchemaMismatch {
                expected: query.schema.describe(),
                actual: hosted.schema.describe(),
            }));
        }
        let (done, [rx]) = self.admit(hosted, tenant)?.enqueue([query])?;
        Ok(PendingShare { rx, done })
    }

    /// The one admission gate, shared by the embedded and the wire
    /// submission paths: resolve the tenant's tier, refuse during shutdown,
    /// take the tenant's quota slot. Every refusal is a shed counted against
    /// the table and the tier.
    fn admit(&self, hosted: Arc<HostedTable>, tenant: &str) -> Result<Ticket, ServeError> {
        // Resolved up front so every shed below is tier-attributed.
        let tier = hosted.config.tiers.tier_of(tenant);
        // Shutdown is checked after table resolution so queries shed by it
        // are attributed to their table's telemetry instead of vanishing.
        let admitted = if self.inner.shutting_down.load(Ordering::SeqCst) {
            Err(ServeError::ShuttingDown)
        } else {
            self.inner.admission.admit(tenant)
        };
        match admitted {
            Ok(guard) => Ok(Ticket {
                hosted,
                tier,
                capacity: self.inner.admission.policy().queue_capacity,
                guard,
            }),
            Err(err) => {
                account(&hosted, tier, Err(&err));
                Err(err)
            }
        }
    }

    /// Overwrite one entry of a hosted table (hot reload) and block until
    /// both parties have applied it.
    ///
    /// The update travels through the same per-party dispatch queues as the
    /// queries, as a barrier: every in-flight *embedded* query (admitted by
    /// [`Self::query`], whose two projections enqueue atomically) is
    /// answered by both parties from the same table version — queries
    /// admitted before the update see the old row everywhere, queries
    /// admitted after see the new row everywhere, and mixed-version share
    /// pairs (which would reconstruct garbage) cannot occur. Clients need
    /// no new keys (§4.2: value updates are transparent).
    ///
    /// Wire-path queries arrive one projection per connection and get no
    /// such cross-queue atomicity; instead every wire response is stamped
    /// with the table version its share was computed against (see
    /// [`Self::table_versions`]), so a client whose two shares straddled
    /// the update sees differing stamps and retries (`PirSession` does so
    /// transparently, once) instead of reconstructing garbage.
    ///
    /// # Errors
    ///
    /// * [`ServeError::UnknownTable`] — no such table.
    /// * [`ServeError::IndexOutOfRange`] — index outside the table.
    /// * [`ServeError::Protocol`] — payload width differs from the schema.
    /// * [`ServeError::ShuttingDown`] — the runtime stopped first.
    pub fn update_entry(&self, table: &str, index: u64, bytes: &[u8]) -> Result<(), ServeError> {
        let hosted = self.inner.registry.get(table)?;
        if index >= hosted.schema.entries {
            return Err(ServeError::IndexOutOfRange {
                index,
                entries: hosted.schema.entries,
            });
        }
        if bytes.len() != hosted.schema.entry_bytes {
            return Err(ServeError::Protocol(PirError::SchemaMismatch {
                expected: format!("{} B entries", hosted.schema.entry_bytes),
                actual: format!("{} B update payload", bytes.len()),
            }));
        }
        let payload = Arc::new(bytes.to_vec());
        let (tx0, rx0) = oneshot::channel();
        let (tx1, rx1) = oneshot::channel();
        hosted.enqueue_update(
            UpdateMarker {
                index,
                bytes: Arc::clone(&payload),
                responder: tx0,
            },
            UpdateMarker {
                index,
                bytes: payload,
                responder: tx1,
            },
        )?;
        for rx in [rx0, rx1] {
            match oneshot::block_on(rx) {
                Ok(result) => result?,
                Err(oneshot::Canceled) => return Err(ServeError::ShuttingDown),
            }
        }
        Ok(())
    }

    /// Names of the registered tables.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.inner.registry.names()
    }

    /// The per-party table-version stamps of a hosted table.
    ///
    /// Each party's counter starts at 1 and increments once per applied
    /// update; every wire response is stamped with the version its share
    /// was computed against. A cluster tier staging an update across shard
    /// owners reads this to verify the staged flip landed (the stamp is the
    /// fence: a shard answering with an unexpected version is mid-reload).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::UnknownTable`] if no such table is registered.
    pub fn table_versions(&self, table: &str) -> Result<[u64; 2], ServeError> {
        let hosted = self.inner.registry.get(table)?;
        Ok([hosted.version(0), hosted.version(1)])
    }

    /// A point-in-time statistics snapshot across all tables.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.inner.stats_snapshot()
    }
}

/// What a batch former sends back for one queued projection.
type ShareReceiver = Receiver<Result<AnsweredShare, ServeError>>;

/// Where one party's half of a [`PendingQuery`] stands.
enum Side {
    /// The share is in its slot.
    Ready,
    Pending,
    /// The entry was dropped unanswered.
    Closed,
    Failed(ServeError),
}

/// The one outcome → counters mapping, at table and tier level: every
/// admission refusal, enqueue shed and settled future is counted here.
/// `Ok` carries the submission time the end-to-end latency is measured from.
fn account(hosted: &HostedTable, tier: usize, outcome: Result<Instant, &ServeError>) {
    let elapsed_ms = outcome.map(|submitted_at| submitted_at.elapsed().as_secs_f64() * 1e3);
    for stats in hosted.stats.levels(tier) {
        let counter = match elapsed_ms {
            Ok(ms) => {
                stats.e2e.record_ms(ms);
                &stats.answered
            }
            // Backpressure and tier displacement are typed sheds, not
            // protocol failures; keep the two ledgers apart.
            Err(err) if err.is_shed() => &stats.shed,
            Err(_) => &stats.failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }
}

/// A query past the admission gate ([`ServeHandle::admit`]) and not yet
/// queued: it holds the tenant's quota slot and knows the tier its entries
/// are built for. Dropping it un-enqueued releases the slot and counts
/// nothing.
struct Ticket {
    hosted: Arc<HostedTable>,
    tier: usize,
    capacity: usize,
    guard: InFlightGuard,
}

impl Ticket {
    /// Build one [`PendingEntry`] per projection, count the submission and
    /// enqueue the entries atomically — or shed, rolling the count back.
    ///
    /// One call is one future and one count: a pair of projections (the
    /// embedded path) is one submitted query, and so is the lone projection
    /// a wire frontend sees of a client's query.
    fn enqueue<const N: usize>(
        self,
        queries: [ServerQuery; N],
    ) -> Result<(Completion, [ShareReceiver; N]), ServeError> {
        let Self {
            hosted,
            tier,
            capacity,
            guard,
        } = self;
        let class = hosted.config.tiers.class(tier);
        let submitted_at = Instant::now();
        let canceled = Arc::new(AtomicBool::new(false));
        let mut entries = [None, None];
        let receivers = queries.map(|query| {
            let (responder, receiver) = oneshot::channel();
            let party = usize::from(query.party() & 1);
            debug_assert!(entries[party].is_none(), "one projection per party");
            entries[party] = Some(PendingEntry {
                query,
                enqueued_at: submitted_at,
                deadline: submitted_at + class.deadline,
                tier,
                priority: class.priority,
                responder,
                canceled: Arc::clone(&canceled),
            });
            receiver
        });
        // Counted *before* the entries become visible to the batch formers:
        // a worker can answer within the enqueue call itself, and a stats
        // snapshot must never transiently observe answered > submitted.
        for stats in hosted.stats.levels(tier) {
            stats.submitted.fetch_add(1, Ordering::Relaxed);
        }
        if let Err(err) = hosted.enqueue(capacity, entries) {
            for stats in hosted.stats.levels(tier) {
                stats.submitted.fetch_sub(1, Ordering::Relaxed);
            }
            account(&hosted, tier, Err(&err));
            return Err(err);
        }
        let done = Completion {
            hosted,
            tier,
            submitted_at,
            canceled,
            settled: false,
            _guard: guard,
        };
        Ok((done, receivers))
    }
}

/// The completion record of one queued query, owned by its future
/// ([`PendingQuery`] or [`PendingShare`]): the tenant's quota slot, the
/// cancel flag shared with the queued entries, and the accounting of how
/// the future ended — settled with an outcome, or dropped first.
struct Completion {
    hosted: Arc<HostedTable>,
    tier: usize,
    submitted_at: Instant,
    canceled: Arc<AtomicBool>,
    settled: bool,
    _guard: InFlightGuard,
}

impl Completion {
    /// Record how the future resolved (see [`account`]).
    fn settle<T>(&mut self, outcome: &Result<T, ServeError>) {
        self.settled = true;
        if outcome.is_err() {
            // A sibling projection may still be queued at the other party;
            // flag it so batch formation skips it instead of spending device
            // work on a share this future will never combine.
            self.canceled.store(true, Ordering::Release);
        }
        let outcome = outcome.as_ref().map(|_| self.submitted_at);
        account(&self.hosted, self.tier, outcome);
    }
}

impl Drop for Completion {
    fn drop(&mut self) {
        if self.settled {
            return;
        }
        // Abandoned before resolution (the caller dropped the future, the
        // wire client hung up): flag the queued entries so batch formation
        // discards them instead of spending device work, and count the
        // cancellation so it doesn't vanish from telemetry. (The quota slot
        // is released by the guard either way.)
        self.canceled.store(true, Ordering::Release);
        self.hosted.stats.canceled.fetch_add(1, Ordering::Relaxed);
    }
}

/// An admitted query: a [`Future`] resolving to the reconstructed row.
///
/// Dropping the future *cancels* the query: the tenant's quota slot is
/// released immediately and both queued server projections are marked
/// canceled, so batch formation skips them and the abandoned query consumes
/// no device work.
pub struct PendingQuery {
    query: PirQuery,
    rx0: Option<ShareReceiver>,
    rx1: Option<ShareReceiver>,
    response0: Option<AnsweredShare>,
    response1: Option<AnsweredShare>,
    done: Completion,
}

impl std::fmt::Debug for PendingQuery {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PendingQuery")
            .field("table", &self.done.hosted.name)
            .field("query_id", &self.query.query_id)
            .field("have_response0", &self.response0.is_some())
            .field("have_response1", &self.response1.is_some())
            .finish()
    }
}

impl PendingQuery {
    /// The query id assigned by the table's client.
    #[must_use]
    pub fn query_id(&self) -> u64 {
        self.query.query_id
    }

    /// Block the current thread until the row is reconstructed.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as polling the future.
    pub fn wait(self) -> Result<Vec<u8>, ServeError> {
        oneshot::block_on(self)
    }

    /// Block until the row is reconstructed, returning it together with the
    /// *table version* both shares were computed against.
    ///
    /// The version is the generation key a client-side hot-entry cache
    /// (`pir_protocol::hot_cache`) needs: cached rows admitted under version `g`
    /// stay bit-identical to served answers exactly until a hot reload
    /// bumps the table to `g + 1`, at which point the generation mismatch
    /// invalidates them.
    ///
    /// # Errors
    ///
    /// Propagates the same errors as polling the future.
    pub fn wait_versioned(self) -> Result<(Vec<u8>, u64), ServeError> {
        struct Versioned(PendingQuery);
        impl Future for Versioned {
            type Output = Result<(Vec<u8>, u64), ServeError>;
            fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
                self.get_mut().0.poll_inner(cx)
            }
        }
        oneshot::block_on(Versioned(self))
    }

    fn poll_side(
        rx: &mut Option<ShareReceiver>,
        slot: &mut Option<AnsweredShare>,
        cx: &mut Context<'_>,
    ) -> Side {
        if slot.is_some() {
            return Side::Ready;
        }
        // A receiver is taken when its slot fills or its channel closes.
        let Some(receiver) = rx.as_mut() else {
            return Side::Closed;
        };
        match Pin::new(receiver).poll(cx) {
            Poll::Pending => Side::Pending,
            Poll::Ready(Err(oneshot::Canceled)) => {
                *rx = None;
                Side::Closed
            }
            Poll::Ready(Ok(Err(err))) => Side::Failed(err),
            Poll::Ready(Ok(Ok(response))) => {
                *slot = Some(response);
                *rx = None;
                Side::Ready
            }
        }
    }

    /// The shared completion path: resolves to the reconstructed row plus
    /// the table version both shares were stamped with.
    fn poll_inner(&mut self, cx: &mut Context<'_>) -> Poll<Result<(Vec<u8>, u64), ServeError>> {
        // Poll *both* sides even if the first is pending, so each registers
        // its waker and either server can wake this future.
        let sides = [
            Self::poll_side(&mut self.rx0, &mut self.response0, cx),
            Self::poll_side(&mut self.rx1, &mut self.response1, cx),
        ];
        // A typed error from either party is the outcome. A channel that
        // closed unanswered carries no reason of its own — the entry was
        // pruned because its sibling was displaced at the other party (whose
        // typed error is there or on its way), or its worker is gone — so it
        // decides the outcome only once the other side has resolved too.
        let failure = match sides {
            [Side::Failed(err), _] | [_, Side::Failed(err)] => Some(err),
            [Side::Pending, _] | [_, Side::Pending] => return Poll::Pending,
            [Side::Closed, _] | [_, Side::Closed] => Some(ServeError::ShuttingDown),
            [Side::Ready, Side::Ready] => None,
        };
        if let Some(err) = failure {
            let outcome = Err(err);
            self.done.settle(&outcome);
            return Poll::Ready(outcome);
        }

        #[expect(
            clippy::expect_used,
            reason = "both sides are Ready, which fills the slots"
        )]
        let (share0, share1) = (
            self.response0.take().expect("side 0 resolved"),
            self.response1.take().expect("side 1 resolved"),
        );
        // Pair-enqueued queries are protected by the cross-queue update
        // barrier: both parties must have answered from the same table
        // version. The stamp exists for wire clients; here it only guards
        // the invariant.
        debug_assert_eq!(
            share0.table_version, share1.table_version,
            "update barrier must keep pair-enqueued shares on one version"
        );
        let outcome = self
            .done
            .hosted
            .client
            .reconstruct(&self.query, &share0.response, &share1.response)
            .map(|row| (row, share0.table_version))
            .map_err(ServeError::from);
        self.done.settle(&outcome);
        Poll::Ready(outcome)
    }
}

impl Future for PendingQuery {
    type Output = Result<Vec<u8>, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        self.get_mut()
            .poll_inner(cx)
            .map(|outcome| outcome.map(|(row, _version)| row))
    }
}

/// A single-party projection admitted through the wire frontend: a
/// [`Future`] resolving to *one server's stamped share*, not a
/// reconstructed row (reconstruction happens client-side, beyond the trust
/// boundary).
///
/// Dropping an unresolved share *cancels* it, exactly like dropping a
/// [`PendingQuery`]: the queued entry is skipped at batch formation, so a
/// client that hangs up mid-pipeline costs no device work.
pub(crate) struct PendingShare {
    rx: ShareReceiver,
    done: Completion,
}

impl Future for PendingShare {
    type Output = Result<AnsweredShare, ServeError>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        let outcome = match Pin::new(&mut this.rx).poll(cx) {
            Poll::Pending => return Poll::Pending,
            Poll::Ready(Err(oneshot::Canceled)) => Err(ServeError::ShuttingDown),
            Poll::Ready(Ok(result)) => result,
        };
        this.done.settle(&outcome);
        Poll::Ready(outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ServeConfig, TableConfig};
    use crate::runtime::PirServeRuntime;
    use pir_protocol::{PirClient, PirTable};
    use std::time::Duration;

    /// The two submission paths behind one face, so one scenario drives both.
    #[derive(Clone, Copy)]
    enum Path {
        /// `ServeHandle::query`: both projections, reconstructed row.
        Embedded,
        /// `ServeHandle::submit_server_query`: party 0's projection, share.
        Wire,
    }

    /// An admitted query of either path: call it to wait for the outcome,
    /// drop it to cancel.
    type Admitted = Box<dyn FnOnce() -> Result<(), ServeError>>;

    /// Every table- and tier-level counter a submission path can move, as
    /// `name=value` lines.
    type Ledger = Vec<String>;

    /// Drive quota shed, queue-full shed, displacement, prune-on-cancel,
    /// cancel-on-drop and shutdown through one submission path and return
    /// the counters it left behind.
    ///
    /// Both parties' replicas are parked mid-launch for the whole scenario,
    /// so nothing drains until they are released and the queue contents at
    /// every step are exact.
    fn drive(path: Path) -> Ledger {
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .queue_capacity(2)
                .per_tenant_quota(2)
                .device_budget(1)
                .seed(5)
                .build()
                .unwrap(),
        );
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .max_batch(64)
            .tier("urgent", Duration::from_secs(60), 0)
            .tier("background", Duration::from_secs(120), 2)
            .assign_tenant("vip", "urgent")
            .default_tier("background")
            .build()
            .unwrap();
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let client = PirClient::new(table.schema(), pir_prf::PrfKind::SipHash);
        runtime.register_table("t", table, config).unwrap();
        let handle = runtime.handle();
        let (launching, parked) = runtime.park_replicas("t");
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let mut submit = |tenant: &str| -> Result<Admitted, ServeError> {
            match path {
                Path::Embedded => handle
                    .query("t", tenant, 3)
                    .map(|pending| Box::new(|| pending.wait().map(drop)) as Admitted),
                Path::Wire => handle
                    .submit_server_query("t", tenant, client.query(3, &mut rng).to_server(0))
                    .map(|pending| Box::new(|| oneshot::block_on(pending).map(drop)) as Admitted),
            }
        };

        // Two background queries fill the queue; a third is shed outright
        // (equal priority never displaces).
        let background1 = submit("worker-a").unwrap();
        let background2 = submit("worker-b").unwrap();
        assert!(matches!(
            submit("worker-c"),
            Err(ServeError::QueueFull { .. })
        ));
        // Urgent arrivals displace them, youngest first.
        let urgent1 = submit("vip").unwrap();
        assert!(matches!(background2(), Err(ServeError::Displaced { .. })));
        let urgent2 = submit("vip").unwrap();
        assert!(matches!(background1(), Err(ServeError::Displaced { .. })));
        // The tenant's quota of two is spent.
        assert!(matches!(
            submit("vip"),
            Err(ServeError::QuotaExceeded { .. })
        ));
        // A dropped future cancels; its dead entry is what makes room for
        // the next background arrival in the still-full queue.
        drop(urgent2);
        let background3 = submit("worker-d").unwrap();
        // Shutdown answers what is queued and sheds what comes after.
        drop(launching);
        runtime.shutdown();
        parked.wait().unwrap();
        urgent1().unwrap();
        background3().unwrap();
        assert!(matches!(submit("worker-e"), Err(ServeError::ShuttingDown)));

        let stats = handle.stats();
        let table = stats.table("t").unwrap();
        let mut ledger = vec![
            format!("submitted={}", table.submitted),
            format!("answered={}", table.answered),
            format!("shed={}", table.shed),
            format!("failed={}", table.failed),
            format!("canceled={}", table.canceled),
            format!("displaced={}", table.displaced),
        ];
        for name in ["urgent", "background"] {
            let tier = table.tier(name).unwrap();
            ledger.extend([
                format!("{name}.submitted={}", tier.submitted),
                format!("{name}.answered={}", tier.answered),
                format!("{name}.shed={}", tier.shed),
                format!("{name}.failed={}", tier.failed),
                format!("{name}.displaced={}", tier.displaced),
            ]);
        }
        ledger
    }

    #[test]
    fn a_query_displaced_at_one_party_resolves_as_displaced() {
        // The two queues drain independently, so a query can be evicted at
        // one party while its sibling entry is still queued at the other,
        // where formation then prunes it unanswered. The typed reason must
        // win over the closed channel, whichever party it comes from.
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .queue_capacity(1)
                .device_budget(1)
                .seed(6)
                .build()
                .unwrap(),
        );
        let config = TableConfig::builder()
            .prf_kind(pir_prf::PrfKind::SipHash)
            .tier("urgent", Duration::from_secs(60), 0)
            .tier("background", Duration::from_secs(120), 2)
            .assign_tenant("vip", "urgent")
            .default_tier("background")
            .build()
            .unwrap();
        let table = PirTable::generate(64, 8, |row, _| row as u8);
        let client = PirClient::new(table.schema(), pir_prf::PrfKind::SipHash);
        runtime.register_table("t", table, config).unwrap();
        let handle = runtime.handle();
        let (launching, parked) = runtime.park_replicas("t");

        let background = handle.query("t", "worker", 3).unwrap();
        // A wire-path arrival touches party 1's queue only.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(9);
        let urgent = handle
            .submit_server_query("t", "vip", client.query(3, &mut rng).to_server(1))
            .unwrap();
        drop(launching);
        runtime.shutdown();
        assert!(matches!(
            background.wait(),
            Err(ServeError::Displaced { .. })
        ));
        oneshot::block_on(urgent).unwrap();
        parked.wait().unwrap();
        assert_eq!(handle.stats().table("t").unwrap().displaced, 1);
    }

    #[test]
    fn both_submission_paths_keep_one_ledger() {
        let embedded = drive(Path::Embedded);
        let wire = drive(Path::Wire);
        assert_eq!(embedded, wire, "embedded vs wire counter deltas");
        let expected = [
            "submitted=6",
            "answered=3",
            "shed=5",
            "failed=0",
            "canceled=1",
            "displaced=2",
            "urgent.submitted=2",
            "urgent.answered=1",
            "urgent.shed=1", // the quota refusal
            "urgent.failed=0",
            "urgent.displaced=0",
            "background.submitted=4", // one of them the parked query
            "background.answered=2",
            "background.shed=4", // queue-full, two displaced, shutdown
            "background.failed=0",
            "background.displaced=2",
        ];
        assert_eq!(embedded, expected);
    }
}
