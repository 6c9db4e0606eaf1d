//! The load generators: one thread each, never spinning.
//!
//! Both drivers follow the same rules. A lookup's latency runs from its
//! *due* time (the schedule's, on an open loop; the moment a window slot
//! freed, on a closed loop) to the instant its future or `poll()` resolved
//! on the generator thread — not to when a FIFO drain got round to it, so
//! tiers may complete out of order. A lookup that is shed, fails or
//! reconstructs a wrong row has no latency and counts as failed. Only
//! lookups due inside the measured window count; the warm-up before it and
//! the drain after it run the same code.

use std::collections::HashMap;
use std::future::Future;
use std::pin::Pin;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;
use std::time::{Duration, Instant};

use pir_serve::{PendingQuery, ServeHandle};
use pir_wire::{PirSession, WireError};
use rand::rngs::StdRng;

use crate::deploy::{Load, Oracle, TABLE, TENANTS};
use crate::host::process_cpu_s;
use crate::transport::Deadline;

/// What to offer, when.
pub struct Plan<'a> {
    pub load: Load,
    /// Open loop only: arrival offsets from `start`, ascending, covering
    /// warm-up and measured window. Fixed before the run.
    pub offsets: Vec<Duration>,
    pub start: Instant,
    pub warmup: Duration,
    pub measured: Duration,
    /// Most lookups the generator may have in flight at once.
    pub max_in_flight: usize,
    /// The next lookup's `(index, tenant)`, drawn from the seeded stream.
    pub pick: &'a mut dyn FnMut() -> (u64, u8),
    /// Called once, on the generator thread, as the measured window opens.
    pub on_window_start: &'a mut dyn FnMut(),
}

/// The measured window is read in this many equal slices; latency and CPU
/// metrics are the median over the slices, so a disturbance that hits one
/// slice (another tenant of the host, a page-cache flush) does not move the
/// reported number.
pub const SLICES: usize = 6;

/// One verified lookup.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    pub latency_ms: f64,
    pub tenant: u8,
    /// Slice of the measured window the lookup was due in.
    pub due_slice: usize,
    /// Slice it completed in; `SLICES` for a completion during the drain.
    pub done_slice: usize,
}

impl Plan<'_> {
    /// Open loop: when arrival number `next` is due, if there is one.
    fn arrival(&self, next: usize) -> Option<Instant> {
        self.offsets.get(next).map(|offset| self.start + *offset)
    }
}

/// What happened to the lookups due inside the measured window.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every verified lookup, in completion order.
    pub samples: Vec<Sample>,
    pub attempted: u64,
    pub shed: u64,
    pub failed: u64,
    pub corrupt: u64,
    /// Open loop: how late each lookup was handed to the system.
    pub lag_ms: Vec<f64>,
    /// Window start to the last measured completion.
    pub window_s: f64,
    /// Process CPU seconds at each of the `SLICES + 1` slice boundaries.
    pub cpu_marks_s: Vec<f64>,
}

impl Outcome {
    pub fn verified(&self) -> u64 {
        self.samples.len() as u64
    }

    pub fn not_verified(&self) -> u64 {
        self.shed + self.failed + self.corrupt
    }
}

/// Book-keeping shared by both drivers.
struct Ledger<'a> {
    oracle: &'a Oracle,
    warm_end: Instant,
    end: Instant,
    slice: Duration,
    outcome: Outcome,
    window_open: bool,
    last_completion: Instant,
}

struct Ticket {
    due: Instant,
    index: u64,
    tenant: u8,
    mark: u64,
}

impl<'a> Ledger<'a> {
    fn new(plan: &Plan<'_>, oracle: &'a Oracle) -> Self {
        let warm_end = plan.start + plan.warmup;
        Self {
            oracle,
            warm_end,
            end: warm_end + plan.measured,
            slice: plan.measured / SLICES as u32,
            outcome: Outcome::default(),
            window_open: false,
            last_completion: warm_end,
        }
    }

    /// Called on every turn of a driver's loop: opens the measured window
    /// and reads the CPU clock as each slice boundary passes.
    fn tick(&mut self, now: Instant, on_window_start: &mut dyn FnMut()) {
        if !self.window_open && now >= self.warm_end {
            self.window_open = true;
            on_window_start();
        }
        while self.outcome.cpu_marks_s.len() <= SLICES
            && now >= self.warm_end + self.slice * self.outcome.cpu_marks_s.len() as u32
        {
            self.outcome.cpu_marks_s.push(process_cpu_s());
        }
    }

    /// Slice of the measured window `at` falls in (`SLICES` once past it).
    fn slice_of(&self, at: Instant) -> usize {
        let into = at.saturating_duration_since(self.warm_end);
        ((into.as_secs_f64() / self.slice.as_secs_f64()) as usize).min(SLICES)
    }

    fn measured(&self, ticket: &Ticket) -> bool {
        ticket.due >= self.warm_end && ticket.due < self.end
    }

    fn issue(&self, due: Instant, index: u64, tenant: u8) -> Ticket {
        Ticket {
            due,
            index,
            tenant,
            mark: self.oracle.mark(index),
        }
    }

    fn submitted(&mut self, ticket: &Ticket, at: Instant) {
        if self.measured(ticket) {
            let lag = at.saturating_duration_since(ticket.due);
            self.outcome.lag_ms.push(lag.as_secs_f64() * 1e3);
        }
    }

    /// `result`: the row, or whether the error was a shed.
    fn completed(&mut self, ticket: &Ticket, result: Result<&[u8], bool>, at: Instant) {
        if !self.measured(ticket) {
            return;
        }
        self.outcome.attempted += 1;
        self.last_completion = self.last_completion.max(at);
        match result {
            Ok(row) if self.oracle.check(ticket.index, ticket.mark, row) => {
                let latency = at.saturating_duration_since(ticket.due);
                self.outcome.samples.push(Sample {
                    latency_ms: latency.as_secs_f64() * 1e3,
                    tenant: ticket.tenant,
                    due_slice: self.slice_of(ticket.due),
                    done_slice: self.slice_of(at),
                });
            }
            Ok(_) => self.outcome.corrupt += 1,
            Err(true) => self.outcome.shed += 1,
            Err(false) => self.outcome.failed += 1,
        }
    }

    fn finish(mut self, on_window_start: &mut dyn FnMut()) -> Outcome {
        // A run too short to have crossed every boundary in its loop still
        // ends with a full set of readings.
        self.tick(self.end, on_window_start);
        self.outcome.window_s = (self.last_completion - self.warm_end).as_secs_f64();
        self.outcome
    }
}

// ---------------------------------------------------------------------------
// Embedded path: futures on a one-thread executor
// ---------------------------------------------------------------------------

/// Slots whose futures were woken, and the generator thread to unpark.
struct Ready {
    woken: Mutex<Vec<usize>>,
    generator: Thread,
}

struct SlotWaker {
    slot: usize,
    ready: Arc<Ready>,
}

impl Wake for SlotWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.ready
            .woken
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(self.slot);
        self.ready.generator.unpark();
    }
}

/// Drive `ServeHandle` from the calling thread: submit what is due, poll
/// exactly the futures that were woken, park until a waker or the next due
/// time. Completion is stamped when the future resolves.
pub fn drive_embedded(handle: &ServeHandle, plan: Plan<'_>, oracle: &Oracle) -> Outcome {
    let mut ledger = Ledger::new(&plan, oracle);
    let ready = Arc::new(Ready {
        woken: Mutex::new(Vec::new()),
        generator: std::thread::current(),
    });
    let wakers: Vec<Waker> = (0..plan.max_in_flight)
        .map(|slot| {
            Waker::from(Arc::new(SlotWaker {
                slot,
                ready: Arc::clone(&ready),
            }))
        })
        .collect();
    let mut slots: Vec<Option<(PendingQuery, Ticket)>> =
        (0..plan.max_in_flight).map(|_| None).collect();
    let mut free: Vec<usize> = (0..plan.max_in_flight).rev().collect();
    let mut next = 0usize; // open loop: next arrival to submit

    loop {
        let now = Instant::now();
        ledger.tick(now, plan.on_window_start);

        // Submit everything that is due and fits.
        loop {
            let due = match plan.load {
                Load::Closed { .. } => {
                    let now = Instant::now();
                    (now < ledger.end).then_some(now)
                }
                Load::Open { .. } => plan.arrival(next).filter(|due| *due <= Instant::now()),
            };
            let (Some(due), Some(&slot)) = (due, free.last()) else {
                break;
            };
            next += 1;
            let (index, tenant) = (plan.pick)();
            let ticket = ledger.issue(due, index, tenant);
            match handle.query(TABLE, TENANTS[usize::from(tenant)], index) {
                Ok(mut pending) => {
                    ledger.submitted(&ticket, Instant::now());
                    // The first poll registers the waker (or finds the
                    // answer already there).
                    let mut cx = Context::from_waker(&wakers[slot]);
                    match Pin::new(&mut pending).poll(&mut cx) {
                        Poll::Ready(result) => {
                            let result = result.as_deref().map_err(pir_serve::ServeError::is_shed);
                            ledger.completed(&ticket, result, Instant::now());
                        }
                        Poll::Pending => {
                            free.pop();
                            slots[slot] = Some((pending, ticket));
                        }
                    }
                }
                Err(err) => ledger.completed(&ticket, Err(err.is_shed()), Instant::now()),
            }
        }

        // Poll what was woken. A stale wake-up for a slot that has since
        // been reused polls the new future once, which is harmless.
        let woken = std::mem::take(
            &mut *ready
                .woken
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for slot in woken {
            let Some((pending, _)) = slots[slot].as_mut() else {
                continue;
            };
            let mut cx = Context::from_waker(&wakers[slot]);
            if let Poll::Ready(result) = Pin::new(pending).poll(&mut cx) {
                let at = Instant::now();
                let (_, ticket) = slots[slot].take().expect("slot was occupied");
                free.push(slot);
                let result = result.as_deref().map_err(pir_serve::ServeError::is_shed);
                ledger.completed(&ticket, result, at);
            }
        }

        let in_flight = plan.max_in_flight - free.len();
        let now = Instant::now();
        let next_due = match plan.load {
            Load::Closed { .. } => (now < ledger.end && !free.is_empty()).then_some(now),
            Load::Open { .. } => plan.arrival(next),
        };
        match next_due {
            None if in_flight == 0 => break,
            // Nothing left to submit, or no room: only a waker can help.
            None => std::thread::park(),
            Some(_) if free.is_empty() => std::thread::park(),
            Some(due) if due > now => {
                // Also wake for the window opening, so its snapshot is on time.
                let until = if ledger.window_open {
                    due
                } else {
                    due.min(ledger.warm_end)
                };
                std::thread::park_timeout(until.saturating_duration_since(now));
            }
            Some(_) => {}
        }
    }
    ledger.finish(plan.on_window_start)
}

// ---------------------------------------------------------------------------
// Remote paths: one `PirSession`, submit and poll from one thread
// ---------------------------------------------------------------------------

/// Drive a `PirSession` from the calling thread. `poll()` may block only
/// until the next arrival is due (see [`Deadline`]); a submit that finds the
/// session window full blocks inside the session, and that wait is charged
/// to the lookup because its latency runs from the due time.
pub fn drive_session(
    session: &mut PirSession,
    deadline: &Deadline,
    plan: Plan<'_>,
    oracle: &Oracle,
    rng: &mut StdRng,
) -> Result<Outcome, String> {
    let mut ledger = Ledger::new(&plan, oracle);
    let mut issued: HashMap<u64, Ticket> = HashMap::new();
    let mut next = 0usize;

    loop {
        let now = Instant::now();
        ledger.tick(now, plan.on_window_start);

        let due = match plan.load {
            Load::Closed { .. } => {
                (now < ledger.end && session.in_flight() < plan.max_in_flight).then_some(now)
            }
            Load::Open { .. } => plan.arrival(next).filter(|due| *due <= now),
        };
        if let Some(due) = due {
            next += 1;
            let (index, tenant) = (plan.pick)();
            let ticket = ledger.issue(due, index, tenant);
            deadline.set(None);
            let id = session
                .submit(TABLE, index, rng)
                .map_err(|err| format!("submit: {err}"))?;
            ledger.submitted(&ticket, Instant::now());
            issued.insert(id, ticket);
            continue;
        }

        let next_due = match plan.load {
            Load::Closed { .. } => None,
            Load::Open { .. } => plan.arrival(next),
        };
        if session.ready() > 0 || session.in_flight() > 0 {
            // Buffered completions return at once; otherwise block until a
            // response, the next due time or the window opening.
            let wake_at = if ledger.window_open {
                next_due
            } else {
                Some(next_due.map_or(ledger.warm_end, |due| due.min(ledger.warm_end)))
            };
            deadline.set(wake_at);
            match session.poll() {
                Ok(done) => {
                    let at = Instant::now();
                    let ticket = issued
                        .remove(&done.query_id)
                        .ok_or_else(|| format!("completion for unknown query {}", done.query_id))?;
                    let result = done
                        .outcome
                        .as_deref()
                        .map_err(|err| matches!(err, WireError::Remote { shed: true, .. }));
                    ledger.completed(&ticket, result, at);
                }
                Err(WireError::TimedOut) => {}
                Err(err) => return Err(format!("poll: {err}")),
            }
            continue;
        }

        // Nothing in flight: sleep until the next arrival, or finish.
        match next_due {
            Some(due) => std::thread::sleep(due.saturating_duration_since(Instant::now())),
            None => break,
        }
    }
    deadline.set(None);
    Ok(ledger.finish(plan.on_window_start))
}
