//! The back-haul: per shard-owner, one pipelined query link plus lockstep
//! admin connections, each failing over across the shard's replicas.
//!
//! **Query legs** ride one live connection per shard, split into halves.
//! [`ShardConn::submit`] registers a leg under its router-wide back-haul id
//! and writes it without waiting; one reader thread per connection matches
//! replies to pending legs by that id. A shard therefore sees a session's
//! whole window at once, and its batcher can form multi-key launches.
//!
//! A link has failed on a transport error or hang-up, on a reply whose id
//! is not pending (the connection is desynchronized), on a
//! connection-level error (id 0), and on a read timeout while a leg written
//! before that read is still unanswered (a stall). A read timeout with
//! nothing outstanding is an idle link and changes nothing. On failure the
//! connection is discarded and every leg pending on it is re-sent on the
//! *next* replica — each replica dialed at most once per leg, so a query
//! lost to a dying replica is retried exactly on the failover path and
//! never spins. Only legs that have tried every replica surface the typed
//! [`ClusterError::ShardUnavailable`] degradation.
//!
//! **Control traffic** — the connect handshake, fence calibration, staged
//! updates and probes — stays lockstep, one request and one reply, on
//! persistent per-replica admin connections. Replicas that fail an update
//! *stage* may now serve a stale row, so they are marked stale and excluded
//! from failover until re-provisioned (see [`ShardConn::broadcast_update`]).
//!
//! Nothing here joins a reader. [`ShardConn::close`] fails every pending
//! leg with [`ClusterError::ShuttingDown`] and drops the send half; a reader
//! still blocked in `recv` exits when the shard hangs up, when its io
//! timeout fires, or (in-process) when the dropped half closes the pipe.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pir_wire::{
    decode_message, encode_message, Catalog, Dialer, PirTransport, SplitTransport, WireError,
    WireMessage,
};

use crate::error::ClusterError;
use crate::stats::{ShardStatsSnapshot, ShardTelemetry};

/// Receives a leg's outcome: exactly once per leg, and never while a
/// back-haul lock is held (a sink may submit further legs).
pub(crate) trait LegSink: Send + Sync {
    fn leg_done(self: Arc<Self>, shard: usize, outcome: Result<WireMessage, ClusterError>);
}

/// One query leg awaiting its shard's reply.
struct Leg {
    frame: Arc<Vec<u8>>,
    sink: Arc<dyn LegSink>,
    /// Dials this leg may still cause: each replica at most once.
    dials_left: usize,
    /// First write; `calls` / `call_time` span it to the reply.
    submitted: Instant,
    /// Last write: a read timeout is a stall only for a leg written before
    /// that read began.
    sent: Instant,
}

/// The query link's connection: the send half and where it points.
struct Link {
    /// `None` while disconnected.
    send: Option<Box<dyn PirTransport>>,
    /// The replica the live connection points at.
    replica: usize,
    /// Next replica to dial.
    next: usize,
}

/// Legs in flight on the query link, keyed by back-haul id.
struct Pending {
    /// Bumped (under both locks) whenever a connection is installed or torn
    /// down: a reader from an older epoch exits without touching a leg.
    epoch: u64,
    legs: HashMap<u64, Leg>,
    /// The router shut down: no leg is accepted any more.
    closed: bool,
}

/// Why one replica could not carry the query link.
enum DialError {
    /// Its transport cannot split into halves, so the link can never run
    /// on it.
    Unsplittable(String),
    Failed(String),
}

/// What one reply frame does on the query link.
enum Delivery {
    Matched(Leg, WireMessage),
    /// The reader's connection was replaced or closed: exit quietly.
    Stale,
    /// The link is broken.
    Broken(String),
}

/// One shard's failover-capable back-haul.
pub(crate) struct ShardConn {
    shard: usize,
    replicas: Vec<Arc<dyn Dialer>>,
    /// Replicas excluded from failover (failed an update stage).
    stale: Vec<AtomicBool>,
    /// Lock order: `link` before `pending`. Readers match replies under
    /// `pending` alone, so a slow write never delays a reply.
    link: Mutex<Link>,
    pending: Mutex<Pending>,
    /// Persistent per-replica connections for lockstep control calls.
    admin: Mutex<Vec<Option<Box<dyn PirTransport>>>>,
    telemetry: ShardTelemetry,
}

impl ShardConn {
    pub(crate) fn new(shard: usize, replicas: Vec<Arc<dyn Dialer>>) -> Self {
        Self {
            shard,
            stale: replicas.iter().map(|_| AtomicBool::new(false)).collect(),
            admin: Mutex::new(replicas.iter().map(|_| None).collect()),
            replicas,
            link: Mutex::new(Link {
                send: None,
                replica: 0,
                next: 0,
            }),
            pending: Mutex::new(Pending {
                epoch: 0,
                legs: HashMap::new(),
                closed: false,
            }),
            telemetry: ShardTelemetry::default(),
        }
    }

    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    fn is_stale(&self, replica: usize) -> bool {
        self.stale[replica].load(Relaxed)
    }

    /// Fetch the shard's catalog (the connect-time handshake); its
    /// advertised version ceiling is checked by the router.
    pub(crate) fn handshake(&self) -> Result<Catalog, ClusterError> {
        match self.call(&encode_message(&WireMessage::CatalogRequest))? {
            WireMessage::Catalog(catalog) => Ok(catalog),
            other => Err(ClusterError::CatalogMismatch {
                shard: self.shard,
                detail: format!("handshake answered with a {} frame", other.name()),
            }),
        }
    }

    /// One lockstep control call: the first non-stale replica, in
    /// preference order, that answers it.
    pub(crate) fn call(&self, frame: &[u8]) -> Result<WireMessage, ClusterError> {
        self.timed(|| {
            let mut admin = self.admin.lock();
            let mut last_err = "every replica is marked stale".to_string();
            for replica in 0..self.replicas.len() {
                if self.is_stale(replica) {
                    continue;
                }
                match self.admin_exchange(&mut admin, replica, frame) {
                    Ok(reply) => return Ok(reply),
                    Err(err) => last_err = err,
                }
            }
            Err(ClusterError::ShardUnavailable {
                shard: self.shard,
                detail: last_err,
            })
        })
    }

    /// Dial the query link at connect, so the first query does not pay the
    /// dial and a transport that cannot split is refused up front.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Config`] for an unsplittable transport;
    /// [`ClusterError::ShardUnavailable`] when no replica can be dialed.
    pub(crate) fn connect_link(self: &Arc<Self>) -> Result<(), ClusterError> {
        let mut link = self.link.lock();
        let mut last_err = "no replica attempted".to_string();
        for _ in 0..self.replicas.len() {
            match self.dial_next(&mut link) {
                Ok(()) => return Ok(()),
                Err(DialError::Unsplittable(detail)) => {
                    return Err(ClusterError::Config(format!(
                        "shard {}: {detail}",
                        self.shard
                    )))
                }
                Err(DialError::Failed(detail)) => last_err = detail,
            }
        }
        Err(ClusterError::ShardUnavailable {
            shard: self.shard,
            detail: last_err,
        })
    }

    /// Send one query leg under back-haul id `id` without waiting for its
    /// reply; `sink` hears the outcome. The caller encodes, so a query
    /// fanned out to every shard is encoded once, not once per leg.
    pub(crate) fn submit(self: &Arc<Self>, id: u64, frame: Arc<Vec<u8>>, sink: Arc<dyn LegSink>) {
        self.telemetry.in_flight.fetch_add(1, Relaxed);
        let now = Instant::now();
        let leg = Leg {
            frame,
            sink,
            dials_left: self.replicas.len(),
            submitted: now,
            sent: now,
        };
        let mut link = self.link.lock();
        let mut pending = self.pending.lock();
        let failed = if pending.closed {
            vec![(leg, ClusterError::ShuttingDown)]
        } else if link.send.is_none() {
            drop(pending);
            let why = format!("replica {}: not connected", link.replica);
            self.reconnect(&mut link, vec![(id, leg)], why)
        } else {
            // Registered before it is written, so no reply can outrun it.
            let frame = Arc::clone(&leg.frame);
            pending.legs.insert(id, leg);
            drop(pending);
            match write_all(&mut link, std::slice::from_ref(&frame)) {
                Ok(()) => Vec::new(),
                Err(err) => {
                    let why = format!("replica {}: {err}", link.replica);
                    self.fail_link(&mut link, why)
                }
            }
        };
        drop(link);
        self.finish_all(failed);
    }

    /// The reader of one connection: match replies to legs until the link
    /// fails or is replaced.
    fn read_loop(self: Arc<Self>, epoch: u64, mut recv: Box<dyn PirTransport>) {
        loop {
            let reading = Instant::now();
            let why = match recv.recv() {
                Ok(frame) => match self.deliver(epoch, &frame) {
                    Delivery::Matched(leg, reply) => {
                        self.finish(leg, Ok(reply));
                        continue;
                    }
                    Delivery::Stale => return,
                    Delivery::Broken(why) => why,
                },
                Err(WireError::TimedOut) => {
                    let pending = self.pending.lock();
                    if pending.epoch != epoch || pending.closed {
                        return;
                    }
                    if !pending.legs.values().any(|leg| leg.sent <= reading) {
                        continue; // idle, not stalled
                    }
                    "stalled: a leg went unanswered past the io timeout".to_string()
                }
                Err(err) => err.to_string(),
            };
            self.link_failed(epoch, why);
            return;
        }
    }

    /// Match one reply frame to its pending leg.
    fn deliver(&self, epoch: u64, frame: &[u8]) -> Delivery {
        let reply = match decode_message(frame) {
            Ok(reply) => reply,
            Err(err) => return Delivery::Broken(format!("undecodable reply: {err}")),
        };
        let id = match &reply {
            WireMessage::Response(msg) => msg.response.query_id,
            WireMessage::Error(error) if error.query_id != 0 => error.query_id,
            WireMessage::Error(error) => {
                return Delivery::Broken(format!(
                    "connection-level error ({:?}: {})",
                    error.code, error.message
                ))
            }
            other => {
                return Delivery::Broken(format!("a {} frame on the query link", other.name()))
            }
        };
        let mut pending = self.pending.lock();
        if pending.epoch != epoch || pending.closed {
            return Delivery::Stale;
        }
        match pending.legs.remove(&id) {
            Some(leg) => Delivery::Matched(leg, reply),
            None => Delivery::Broken(format!("reply desynchronized: query {id} is not pending")),
        }
    }

    /// A reader saw its connection fail: fail over, unless the connection
    /// was already replaced or the router shut down.
    fn link_failed(self: &Arc<Self>, epoch: u64, why: String) {
        let mut link = self.link.lock();
        {
            let pending = self.pending.lock();
            if pending.epoch != epoch || pending.closed {
                return;
            }
        }
        let why = format!("replica {}: {why}", link.replica);
        let failed = self.fail_link(&mut link, why);
        drop(link);
        self.finish_all(failed);
    }

    /// Abandon the live connection and carry its legs to the next replica.
    fn fail_link(self: &Arc<Self>, link: &mut Link, why: String) -> Vec<(Leg, ClusterError)> {
        let legs = self.take_legs(link);
        self.telemetry.failovers.fetch_add(1, Relaxed);
        self.reconnect(link, legs, why)
    }

    /// Tear the live connection down and take every pending leg off it.
    fn take_legs(&self, link: &mut Link) -> Vec<(u64, Leg)> {
        link.send = None;
        let mut pending = self.pending.lock();
        pending.epoch += 1;
        pending.legs.drain().collect()
    }

    /// Carry `legs` to a fresh connection: dial replicas in rotation until
    /// one takes them all, each replica at most once per leg. Returns the
    /// legs that ran out of replicas, with the error each surfaces.
    fn reconnect(
        self: &Arc<Self>,
        link: &mut Link,
        mut legs: Vec<(u64, Leg)>,
        mut last_err: String,
    ) -> Vec<(Leg, ClusterError)> {
        let mut failed = Vec::new();
        loop {
            let (spent, live): (Vec<_>, Vec<_>) =
                legs.into_iter().partition(|(_, leg)| leg.dials_left == 0);
            failed.extend(spent.into_iter().map(|(_, leg)| {
                let err = ClusterError::ShardUnavailable {
                    shard: self.shard,
                    detail: last_err.clone(),
                };
                (leg, err)
            }));
            legs = live;
            if legs.is_empty() {
                return failed;
            }
            for (_, leg) in &mut legs {
                leg.dials_left -= 1;
            }
            if let Err(DialError::Unsplittable(err) | DialError::Failed(err)) = self.dial_next(link)
            {
                last_err = err;
                continue;
            }
            let frames: Vec<Arc<Vec<u8>>> =
                legs.iter().map(|(_, leg)| Arc::clone(&leg.frame)).collect();
            {
                let now = Instant::now();
                let mut pending = self.pending.lock();
                for (id, mut leg) in legs.drain(..) {
                    leg.sent = now;
                    pending.legs.insert(id, leg);
                }
            }
            match write_all(link, &frames) {
                Ok(()) => return failed,
                Err(err) => {
                    last_err = format!("replica {}: {err}", link.replica);
                    legs = self.take_legs(link);
                    self.telemetry.failovers.fetch_add(1, Relaxed);
                }
            }
        }
    }

    /// Dial the next non-stale replica in rotation and install it as the
    /// query link, with its own reader.
    fn dial_next(self: &Arc<Self>, link: &mut Link) -> Result<(), DialError> {
        let replica = link.next;
        link.next = (replica + 1) % self.replicas.len();
        if self.is_stale(replica) {
            return Err(DialError::Failed(format!(
                "replica {replica}: marked stale after a failed stage"
            )));
        }
        let dialer = &self.replicas[replica];
        let transport = dialer.dial().map_err(|err| {
            DialError::Failed(format!("replica {replica} ({}): {err}", dialer.describe()))
        })?;
        let SplitTransport::Halves { recv, send } = transport.split() else {
            return Err(DialError::Unsplittable(format!(
                "replica {replica} ({}): transport cannot split into receive/send halves, \
                 which the pipelined query link needs",
                dialer.describe()
            )));
        };
        let epoch = {
            let mut pending = self.pending.lock();
            pending.epoch += 1;
            pending.epoch
        };
        let conn = Arc::clone(self);
        std::thread::Builder::new()
            .name(crate::thread_name("link-s", self.shard))
            .spawn(move || conn.read_loop(epoch, recv))
            .map_err(|err| DialError::Failed(format!("replica {replica}: reader thread: {err}")))?;
        link.send = Some(send);
        link.replica = replica;
        Ok(())
    }

    fn finish_all(&self, failed: Vec<(Leg, ClusterError)>) {
        for (leg, err) in failed {
            self.finish(leg, Err(err));
        }
    }

    /// Account one leg and hand its outcome over.
    fn finish(&self, leg: Leg, outcome: Result<WireMessage, ClusterError>) {
        self.telemetry.in_flight.fetch_sub(1, Relaxed);
        self.telemetry.record_call(leg.submitted.elapsed());
        leg.sink.leg_done(self.shard, outcome);
    }

    /// Shut the back-haul: fail every pending leg (and every later submit)
    /// with [`ClusterError::ShuttingDown`] and drop the query link's send
    /// half. Never waits for a reader.
    pub(crate) fn close(&self) {
        let mut link = self.link.lock();
        link.send = None;
        let legs: Vec<Leg> = {
            let mut pending = self.pending.lock();
            pending.closed = true;
            pending.epoch += 1;
            pending.legs.drain().map(|(_, leg)| leg).collect()
        };
        drop(link);
        if let Some(mut admin) = self.admin.try_lock() {
            admin.iter_mut().for_each(|conn| *conn = None);
        }
        for leg in legs {
            self.finish(leg, Err(ClusterError::ShuttingDown));
        }
    }

    /// One lockstep exchange on `replica`'s admin connection, dialing it if
    /// absent. A pre-existing connection that fails is redialed once (it may
    /// have idled to death); a fresh one that fails is not.
    fn admin_exchange(
        &self,
        admin: &mut [Option<Box<dyn PirTransport>>],
        replica: usize,
        frame: &[u8],
    ) -> Result<WireMessage, String> {
        if let Some(transport) = admin[replica].as_mut() {
            match exchange(transport.as_mut(), frame) {
                Ok(reply) => return Ok(reply),
                Err(_) => admin[replica] = None,
            }
        }
        let dialer = &self.replicas[replica];
        let mut transport = dialer
            .dial()
            .map_err(|err| format!("replica {replica} ({}): {err}", dialer.describe()))?;
        let reply = exchange(transport.as_mut(), frame)
            .map_err(|err| format!("replica {replica}: {err}"))?;
        admin[replica] = Some(transport);
        Ok(reply)
    }

    /// Phase one of the two-phase reload: stage `message` (an
    /// `UpdateEntry`) on **every** non-stale replica of this shard, not
    /// just the one the query link points at — otherwise a later failover
    /// would resurface the pre-update row.
    ///
    /// A replica that cannot be reached or does not ack is marked stale and
    /// excluded from failover until re-provisioned (the router cannot
    /// repair it: it has no source copy of the table); if the query link
    /// points at it, the link fails over. Returns how many replicas acked.
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardUnavailable`] when zero replicas acked — the
    /// caller must not flip the fence.
    pub(crate) fn broadcast_update(
        self: &Arc<Self>,
        message: &WireMessage,
    ) -> Result<usize, ClusterError> {
        let frame = encode_message(message);
        let (acked, last_err, newly_stale) = self.timed(|| {
            let mut admin = self.admin.lock();
            let mut acked = 0;
            let mut last_err = "all replicas already stale".to_string();
            let mut newly_stale = Vec::new();
            for replica in 0..self.replicas.len() {
                if self.is_stale(replica) {
                    continue;
                }
                last_err = match self.admin_exchange(&mut admin, replica, &frame) {
                    Ok(WireMessage::UpdateAck(_)) => {
                        acked += 1;
                        continue;
                    }
                    Ok(WireMessage::Error(reply)) => format!(
                        "replica {replica}: staged update rejected ({:?}: {})",
                        reply.code, reply.message
                    ),
                    Ok(other) => format!("replica {replica}: staged reply was {}", other.name()),
                    Err(err) => err,
                };
                self.stale[replica].store(true, Relaxed);
                admin[replica] = None;
                newly_stale.push(replica);
            }
            (acked, last_err, newly_stale)
        });
        // A stale replica may serve the pre-update row: move the query link
        // off it. That abandons the connection, so it counts as a failover.
        for replica in newly_stale {
            let mut link = self.link.lock();
            if link.send.is_some() && link.replica == replica {
                let failed = self.fail_link(&mut link, last_err.clone());
                drop(link);
                self.finish_all(failed);
            }
        }
        if acked == 0 {
            return Err(ClusterError::ShardUnavailable {
                shard: self.shard,
                detail: format!("no replica acked the staged update: {last_err}"),
            });
        }
        Ok(acked)
    }

    /// One liveness probe round. Never blocks behind a write, a redial or a
    /// control call (busy means alive): pre-dials a disconnected query link
    /// so the first leg after an outage does not pay the dial, then pings
    /// the link's replica over its admin connection.
    pub(crate) fn try_probe(self: &Arc<Self>) {
        let replica = {
            let Some(mut link) = self.link.try_lock() else {
                return;
            };
            if link.send.is_none() && !self.pending.lock().closed {
                let dialed = (0..self.replicas.len()).any(|_| self.dial_next(&mut link).is_ok());
                if !dialed {
                    self.telemetry.probe_failures.fetch_add(1, Relaxed);
                    return;
                }
            }
            link.replica
        };
        let Some(mut admin) = self.admin.try_lock() else {
            return;
        };
        let frame = encode_message(&WireMessage::CatalogRequest);
        let alive = self.timed(|| {
            matches!(
                self.admin_exchange(&mut admin, replica, &frame),
                Ok(WireMessage::Catalog(_))
            )
        });
        if !alive {
            admin[replica] = None;
            self.telemetry.probe_failures.fetch_add(1, Relaxed);
        }
    }

    /// Run one control call as an outstanding, timed back-haul call.
    fn timed<T>(&self, call: impl FnOnce() -> T) -> T {
        let started = Instant::now();
        self.telemetry.in_flight.fetch_add(1, Relaxed);
        let outcome = call();
        self.telemetry.in_flight.fetch_sub(1, Relaxed);
        self.telemetry.record_call(started.elapsed());
        outcome
    }

    pub(crate) fn snapshot(&self) -> ShardStatsSnapshot {
        let link = self.link.lock();
        ShardStatsSnapshot {
            shard: self.shard,
            in_flight: self.telemetry.in_flight.load(Relaxed),
            calls: self.telemetry.calls.load(Relaxed),
            failovers: self.telemetry.failovers.load(Relaxed),
            call_time: std::time::Duration::from_nanos(self.telemetry.call_nanos.load(Relaxed)),
            probe_failures: self.telemetry.probe_failures.load(Relaxed),
            stale_replicas: self.stale.iter().filter(|s| s.load(Relaxed)).count(),
            connected_replica: link.send.as_ref().map(|_| link.replica),
        }
    }
}

/// Write frames to the query link's live connection, as one burst.
fn write_all(link: &mut Link, frames: &[Arc<Vec<u8>>]) -> Result<(), WireError> {
    let send = link.send.as_mut().ok_or(WireError::ConnectionClosed)?;
    let frames: Vec<&[u8]> = frames.iter().map(|frame| frame.as_slice()).collect();
    send.send_many(&frames)
}

/// One lockstep exchange on an admin connection.
fn exchange(transport: &mut dyn PirTransport, frame: &[u8]) -> Result<WireMessage, WireError> {
    transport.send(frame)?;
    decode_message(&transport.recv()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_protocol::PirResponse;
    use pir_wire::{loopback_pair, ErrorCode, ErrorReply, ResponseMsg, TcpDialer, TcpTransport};
    use std::net::TcpListener;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// A leg's frame is opaque to the link: here it is just the id, which
    /// the scripted replicas read back.
    fn leg_frame(id: u64) -> Arc<Vec<u8>> {
        Arc::new(id.to_le_bytes().to_vec())
    }

    fn frame_id(frame: &[u8]) -> u64 {
        u64::from_le_bytes(frame.try_into().expect("an 8-byte leg frame"))
    }

    /// A share that names the query it answers.
    fn response(id: u64, share: u32) -> WireMessage {
        WireMessage::Response(ResponseMsg {
            response: PirResponse {
                query_id: id,
                party: 0,
                share: vec![share],
            },
            table_version: 1,
        })
    }

    fn canned_error(id: u64) -> WireMessage {
        WireMessage::Error(ErrorReply::new(ErrorCode::UnknownTable, id, "canned"))
    }

    /// Collects outcomes as (the id the leg was sent under, outcome).
    struct Sink {
        id: u64,
        outcomes: mpsc::Sender<(u64, Result<WireMessage, ClusterError>)>,
    }

    impl LegSink for Sink {
        fn leg_done(self: Arc<Self>, _shard: usize, outcome: Result<WireMessage, ClusterError>) {
            let _ = self.outcomes.send((self.id, outcome));
        }
    }

    fn submit(
        conn: &Arc<ShardConn>,
        id: u64,
        outcomes: &mpsc::Sender<(u64, Result<WireMessage, ClusterError>)>,
    ) {
        let sink = Arc::new(Sink {
            id,
            outcomes: outcomes.clone(),
        });
        conn.submit(id, leg_frame(id), sink);
    }

    /// Submit one leg and wait for its outcome.
    fn one_leg(conn: &Arc<ShardConn>, id: u64) -> Result<WireMessage, ClusterError> {
        let (tx, rx) = mpsc::channel();
        submit(conn, id, &tx);
        rx.recv_timeout(Duration::from_secs(10))
            .expect("the leg completes")
            .1
    }

    /// A dialer whose connections answer each leg with `reply(id)`,
    /// optionally dying after N legs.
    struct Scripted {
        dials: Arc<AtomicUsize>,
        die_after: usize,
        reply: fn(u64) -> WireMessage,
    }

    impl Scripted {
        fn replica(
            die_after: usize,
            reply: fn(u64) -> WireMessage,
        ) -> (Arc<dyn Dialer>, Arc<AtomicUsize>) {
            let dials = Arc::new(AtomicUsize::new(0));
            let dialer = Arc::new(Self {
                dials: Arc::clone(&dials),
                die_after,
                reply,
            });
            (dialer, dials)
        }
    }

    impl Dialer for Scripted {
        fn dial(&self) -> Result<Box<dyn PirTransport>, WireError> {
            self.dials.fetch_add(1, Ordering::SeqCst);
            let (client, mut server) = loopback_pair();
            let (budget, reply) = (self.die_after, self.reply);
            std::thread::spawn(move || {
                let mut served = 0;
                while let Ok(frame) = server.recv() {
                    let answer = encode_message(&reply(frame_id(&frame)));
                    if served >= budget || server.send(&answer).is_err() {
                        return;
                    }
                    served += 1;
                }
            });
            Ok(Box::new(client))
        }
    }

    #[test]
    fn calls_fail_over_to_the_next_replica() {
        let (dying, dials0) = Scripted::replica(0, canned_error); // dies on the first leg
        let (healthy, dials1) = Scripted::replica(usize::MAX, canned_error);
        let conn = Arc::new(ShardConn::new(0, vec![dying, healthy]));
        let reply = one_leg(&conn, 7).unwrap();
        assert!(matches!(reply, WireMessage::Error(ref e) if e.query_id == 7));
        assert_eq!(dials0.load(Ordering::SeqCst), 1);
        assert_eq!(dials1.load(Ordering::SeqCst), 1);
        assert_eq!(conn.snapshot().failovers, 1);
        assert_eq!(conn.snapshot().connected_replica, Some(1));
    }

    #[test]
    fn exhausting_every_replica_is_shard_unavailable() {
        let conn = Arc::new(ShardConn::new(
            3,
            vec![Arc::new(|| -> Result<Box<dyn PirTransport>, WireError> {
                Err(WireError::Transport("connection refused".into()))
            }) as Arc<dyn Dialer>],
        ));
        match one_leg(&conn, 1) {
            Err(ClusterError::ShardUnavailable { shard: 3, detail }) => {
                assert!(detail.contains("connection refused"));
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
        assert_eq!(conn.snapshot().in_flight, 0);
    }

    #[test]
    fn desynchronized_replies_are_discarded_like_transport_failures() {
        // Wrong id, every time.
        let (dialer, _) = Scripted::replica(usize::MAX, |_| canned_error(999));
        let conn = Arc::new(ShardConn::new(0, vec![dialer]));
        match one_leg(&conn, 7) {
            Err(ClusterError::ShardUnavailable { detail, .. }) => {
                assert!(detail.contains("desynchronized"), "{detail}");
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn a_window_answered_in_reverse_reaches_every_leg() {
        // The replica holds the whole window of 8, then answers it last
        // first once released.
        let (release, released) = mpsc::channel::<()>();
        let released = Mutex::new(Some(released));
        let dialer = move || -> Result<Box<dyn PirTransport>, WireError> {
            let (client, mut server) = loopback_pair();
            let released = released.lock().take().expect("one dial");
            std::thread::spawn(move || {
                let ids: Vec<u64> = (0..8).map(|_| frame_id(&server.recv().unwrap())).collect();
                released.recv().unwrap();
                for &id in ids.iter().rev() {
                    server
                        .send(&encode_message(&response(id, id as u32 * 3)))
                        .unwrap();
                }
                while server.recv().is_ok() {}
            });
            Ok(Box::new(client) as Box<dyn PirTransport>)
        };
        let conn = Arc::new(ShardConn::new(0, vec![Arc::new(dialer) as Arc<dyn Dialer>]));
        let (tx, rx) = mpsc::channel();
        for id in 101..=108 {
            submit(&conn, id, &tx);
        }
        assert_eq!(
            conn.snapshot().in_flight,
            8,
            "the whole window is in flight"
        );
        release.send(()).unwrap();
        let mut order = Vec::new();
        for _ in 0..8 {
            let (id, outcome) = rx.recv_timeout(Duration::from_secs(10)).unwrap();
            match outcome {
                Ok(WireMessage::Response(msg)) => {
                    assert_eq!(msg.response.query_id, id);
                    assert_eq!(msg.response.share, vec![id as u32 * 3], "leg {id}");
                }
                other => panic!("leg {id}: {other:?}"),
            }
            order.push(id);
        }
        assert_eq!(order, (101..=108).rev().collect::<Vec<_>>());
        let stats = conn.snapshot();
        assert_eq!((stats.in_flight, stats.calls, stats.failovers), (0, 8, 0));
    }

    #[test]
    fn a_reply_for_no_pending_leg_fails_over_instead_of_misattributing() {
        // Replica 0 answers every leg under an id nobody sent; replica 1
        // answers correctly.
        let (confused, _) =
            Scripted::replica(usize::MAX, |id| response(id + 1000, id as u32 + 1000));
        let (healthy, _) = Scripted::replica(usize::MAX, |id| response(id, id as u32));
        let conn = Arc::new(ShardConn::new(0, vec![confused, healthy]));
        match one_leg(&conn, 5) {
            Ok(WireMessage::Response(msg)) => {
                assert_eq!(msg.response.query_id, 5);
                assert_eq!(msg.response.share, vec![5]);
            }
            other => panic!("expected replica 1's share, got {other:?}"),
        }
        let stats = conn.snapshot();
        assert_eq!(stats.failovers, 1);
        assert_eq!(stats.connected_replica, Some(1));
    }

    /// A TCP replica: every accepted connection runs `serve` on a thread.
    fn tcp_replica(serve: fn(TcpTransport)) -> Arc<dyn Dialer> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                let transport = TcpTransport::from_stream(stream).unwrap();
                std::thread::spawn(move || serve(transport));
            }
        });
        Arc::new(TcpDialer::with_timeouts(
            addr,
            Duration::from_secs(1),
            Duration::from_millis(50),
        ))
    }

    fn answers_every_leg(mut transport: TcpTransport) {
        while let Ok(frame) = transport.recv() {
            let id = frame_id(&frame);
            if transport
                .send(&encode_message(&response(id, id as u32)))
                .is_err()
            {
                return;
            }
        }
    }

    /// Holds every leg, and the connection, until the router hangs up.
    fn swallows_every_leg(mut transport: TcpTransport) {
        while transport.recv().is_ok() {}
    }

    #[test]
    fn a_leg_held_past_the_io_timeout_fails_over() {
        let conn = Arc::new(ShardConn::new(
            0,
            vec![
                tcp_replica(swallows_every_leg),
                tcp_replica(answers_every_leg),
            ],
        ));
        conn.connect_link().unwrap();
        let started = Instant::now();
        match one_leg(&conn, 9) {
            Ok(WireMessage::Response(msg)) => assert_eq!(msg.response.share, vec![9]),
            other => panic!("expected replica 1's share, got {other:?}"),
        }
        // Detected within two read timeouts, not by the replica hanging up.
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        let stats = conn.snapshot();
        assert_eq!(stats.failovers, 1, "the stall is a failover");
        assert_eq!(stats.connected_replica, Some(1));
    }

    #[test]
    fn an_idle_link_past_the_io_timeout_is_not_a_failover() {
        let conn = Arc::new(ShardConn::new(0, vec![tcp_replica(answers_every_leg)]));
        conn.connect_link().unwrap();
        std::thread::sleep(Duration::from_millis(250)); // ~5 read timeouts
        let stats = conn.snapshot();
        assert_eq!(stats.failovers, 0);
        assert_eq!(stats.connected_replica, Some(0));
        match one_leg(&conn, 4) {
            Ok(WireMessage::Response(msg)) => assert_eq!(msg.response.share, vec![4]),
            other => panic!("expected a share, got {other:?}"),
        }
        assert_eq!(conn.snapshot().failovers, 0);
    }

    #[test]
    fn closing_fails_pending_and_later_legs_with_a_typed_error() {
        // A replica that never answers holds the first leg.
        let silent = Arc::new(ShardConn::new(
            1,
            vec![Arc::new(|| -> Result<Box<dyn PirTransport>, WireError> {
                let (client, mut server) = loopback_pair();
                std::thread::spawn(move || while server.recv().is_ok() {});
                Ok(Box::new(client))
            }) as Arc<dyn Dialer>],
        ));
        let (tx, rx) = mpsc::channel();
        submit(&silent, 1, &tx);
        assert_eq!(silent.snapshot().in_flight, 1);
        silent.close();
        let (_, outcome) = rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(outcome.unwrap_err(), ClusterError::ShuttingDown);
        assert_eq!(one_leg(&silent, 2).unwrap_err(), ClusterError::ShuttingDown);
        assert_eq!(silent.snapshot().in_flight, 0);
        assert_eq!(silent.snapshot().failovers, 0);
    }
}
