//! The back-haul: one failover-capable lockstep connection per shard-owner.
//!
//! Each shard has a preference-ordered replica list. [`ShardConn`] keeps at
//! most one live transport; when a call fails mid-flight (connection
//! closed, deadline elapsed, transport error, or a desynchronized reply)
//! the transport is discarded and the *next* replica is dialed and the call
//! re-sent — each replica at most once per call, so a query lost to a dying
//! replica is retried exactly on the failover path and never spins. Only
//! when every replica has failed does the typed
//! [`ClusterError::ShardUnavailable`] degradation surface.
//!
//! Replicas that fail an update *stage* are special: they may now be
//! serving a stale row, so they are marked stale and excluded from
//! failover until re-provisioned (see [`ShardConn::broadcast_update`]).

use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;
use pir_wire::{
    decode_message, encode_message, Catalog, Dialer, PirTransport, WireError, WireMessage,
};

use crate::error::ClusterError;
use crate::stats::{ShardStatsSnapshot, ShardTelemetry};

/// The live-connection state behind the lock.
struct ConnState {
    /// The current transport, if connected.
    transport: Option<Box<dyn PirTransport>>,
    /// Which replica `transport` points at.
    replica: usize,
    /// Next replica to try when (re)dialing.
    next: usize,
    /// Replicas excluded from failover (failed an update stage).
    stale: Vec<bool>,
    /// Persistent per-replica connections used only for update broadcasts.
    /// Dialing a fresh socket per staged update would churn through file
    /// descriptors under reload churn; these live until a broadcast fails
    /// on them. The query transport's replica is served through the query
    /// transport instead, so its slot stays `None`.
    admin: Vec<Option<Box<dyn PirTransport>>>,
}

/// One shard's failover-capable back-haul connection.
pub(crate) struct ShardConn {
    shard: usize,
    replicas: Vec<Arc<dyn Dialer>>,
    state: Mutex<ConnState>,
    telemetry: ShardTelemetry,
}

impl ShardConn {
    pub(crate) fn new(shard: usize, replicas: Vec<Arc<dyn Dialer>>) -> Self {
        let stale = vec![false; replicas.len()];
        let admin = (0..replicas.len()).map(|_| None).collect();
        Self {
            shard,
            replicas,
            state: Mutex::new(ConnState {
                transport: None,
                replica: 0,
                next: 0,
                stale,
                admin,
            }),
            telemetry: ShardTelemetry::default(),
        }
    }

    pub(crate) fn shard(&self) -> usize {
        self.shard
    }

    /// Fetch the shard's catalog (the connect-time handshake); its
    /// advertised version ceiling is checked by the router.
    pub(crate) fn handshake(&self) -> Result<Catalog, ClusterError> {
        match self.call(&encode_message(&WireMessage::CatalogRequest), None)? {
            WireMessage::Catalog(catalog) => Ok(catalog),
            other => Err(ClusterError::CatalogMismatch {
                shard: self.shard,
                detail: format!("handshake answered with a {} frame", other.name()),
            }),
        }
    }

    /// Send one encoded request and read its reply, failing over across
    /// replicas. The caller encodes, so a query fanned out to every shard is
    /// encoded once, not once per leg.
    ///
    /// `expect_query_id` guards pipelining invariants: the back-haul is
    /// lockstep per connection, so a reply whose query id disagrees means
    /// the connection is desynchronized (e.g. a reply from before a
    /// half-failed send) — it is discarded like a transport failure.
    pub(crate) fn call(
        &self,
        frame: &[u8],
        expect_query_id: Option<u64>,
    ) -> Result<WireMessage, ClusterError> {
        let started = Instant::now();
        self.telemetry
            .in_flight
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let outcome = self.call_inner(frame, expect_query_id);
        self.telemetry
            .in_flight
            .fetch_sub(1, std::sync::atomic::Ordering::Relaxed);
        self.telemetry.record_call(started.elapsed());
        outcome
    }

    fn call_inner(
        &self,
        frame: &[u8],
        expect_query_id: Option<u64>,
    ) -> Result<WireMessage, ClusterError> {
        let mut state = self.state.lock();
        // Each replica gets at most one *dial* per call: a fresh dial that
        // then fails mid-exchange must not be retried this call. A
        // pre-existing live connection is free — if it turns out to have
        // idled to death, redialing the same replica is legitimate.
        let mut attempts_left = self.replicas.len();
        let mut last_err = "no replica attempted".to_string();
        loop {
            if state.transport.is_none() {
                match self.dial_next(&mut state, &mut attempts_left, &mut last_err) {
                    Ok(()) => {}
                    Err(()) => {
                        return Err(ClusterError::ShardUnavailable {
                            shard: self.shard,
                            detail: last_err,
                        })
                    }
                }
            }
            // pir-lint: allow(panic-path, "the redial match above returned ShardUnavailable on failure, so the connection is Some here")
            let transport = state.transport.as_mut().expect("dialed above");
            match exchange(transport.as_mut(), frame, expect_query_id) {
                Ok(reply) => return Ok(reply),
                Err(err) => {
                    // Whatever failed, the connection may be mid-frame:
                    // discard it and fail over.
                    last_err = format!("replica {}: {err}", state.replica);
                    state.transport = None;
                    self.telemetry
                        .failovers
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if attempts_left == 0 {
                        return Err(ClusterError::ShardUnavailable {
                            shard: self.shard,
                            detail: last_err,
                        });
                    }
                }
            }
        }
    }

    /// Dial the next non-stale replica in rotation, consuming attempts.
    fn dial_next(
        &self,
        state: &mut ConnState,
        attempts_left: &mut usize,
        last_err: &mut String,
    ) -> Result<(), ()> {
        while *attempts_left > 0 {
            *attempts_left -= 1;
            let replica = state.next % self.replicas.len();
            state.next = (replica + 1) % self.replicas.len();
            if state.stale[replica] {
                *last_err = format!("replica {replica}: marked stale after a failed stage");
                continue;
            }
            match self.replicas[replica].dial() {
                Ok(transport) => {
                    state.transport = Some(transport);
                    state.replica = replica;
                    return Ok(());
                }
                Err(err) => {
                    *last_err = format!(
                        "replica {replica} ({}): {err}",
                        self.replicas[replica].describe()
                    );
                }
            }
        }
        Err(())
    }

    /// Phase one of the two-phase reload: stage `message` (an
    /// `UpdateEntry`) on **every** non-stale replica of this shard, not
    /// just the live connection — otherwise a later failover would resurface
    /// the pre-update row.
    ///
    /// A replica that cannot be reached or does not ack is marked stale and
    /// excluded from failover until re-provisioned (the router cannot
    /// repair it: it has no source copy of the table). Returns how many
    /// replicas acked.
    ///
    /// # Errors
    ///
    /// [`ClusterError::ShardUnavailable`] when zero replicas acked — the
    /// caller must not flip the fence.
    pub(crate) fn broadcast_update(&self, message: &WireMessage) -> Result<usize, ClusterError> {
        let frame = encode_message(message);
        let started = Instant::now();
        let mut state = self.state.lock();
        let mut acked = 0;
        let mut last_err = "all replicas already stale".to_string();
        for replica in 0..self.replicas.len() {
            if state.stale[replica] {
                continue;
            }
            let via_query_conn = state.transport.is_some() && state.replica == replica;
            if !via_query_conn && state.admin[replica].is_none() {
                match self.replicas[replica].dial() {
                    Ok(dialed) => state.admin[replica] = Some(dialed),
                    Err(err) => {
                        last_err = format!("replica {replica}: {err}");
                        state.stale[replica] = true;
                        continue;
                    }
                }
            }
            let transport: &mut dyn PirTransport = if via_query_conn {
                // pir-lint: allow(panic-path, "via_query_conn is set only after the query transport was found live above")
                state.transport.as_mut().expect("checked above").as_mut()
            } else {
                state.admin[replica]
                    .as_mut()
                    // pir-lint: allow(panic-path, "the admin dial above continued to the next replica on failure")
                    .expect("dialed above")
                    .as_mut()
            };
            let failure = match exchange(transport, &frame, None) {
                Ok(WireMessage::UpdateAck(_)) => {
                    acked += 1;
                    None
                }
                Ok(WireMessage::Error(reply)) => Some(format!(
                    "replica {replica}: staged update rejected ({:?}: {})",
                    reply.code, reply.message
                )),
                Ok(other) => Some(format!(
                    "replica {replica}: staged reply was {}",
                    other.name()
                )),
                Err(err) => Some(format!("replica {replica}: {err}")),
            };
            if let Some(detail) = failure {
                last_err = detail;
                state.stale[replica] = true;
                state.admin[replica] = None;
                if via_query_conn {
                    // Abandoning the query connection moves service to
                    // another replica even though no query observed the
                    // failure: count it, or a crash first detected by an
                    // update broadcast would leave `failovers` at zero.
                    state.transport = None;
                    self.telemetry
                        .failovers
                        .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                }
            }
        }
        self.telemetry.record_call(started.elapsed());
        if acked == 0 {
            return Err(ClusterError::ShardUnavailable {
                shard: self.shard,
                detail: format!("no replica acked the staged update: {last_err}"),
            });
        }
        Ok(acked)
    }

    /// One liveness probe round. Never blocks behind an in-flight call
    /// (busy means alive); pings the live connection, or pre-dials the next
    /// replica so the first query after an outage does not pay the dial.
    pub(crate) fn try_probe(&self) {
        let Some(mut state) = self.state.try_lock() else {
            return; // A call holds the lock: the shard is demonstrably live.
        };
        if state.transport.is_none() {
            let mut attempts = self.replicas.len();
            let mut scratch = String::new();
            if self
                .dial_next(&mut state, &mut attempts, &mut scratch)
                .is_err()
            {
                self.telemetry
                    .probe_failures
                    .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                return;
            }
        }
        let frame = encode_message(&WireMessage::CatalogRequest);
        let started = Instant::now();
        // pir-lint: allow(panic-path, "the dial check at the top of the probe returned early when no connection could be made")
        let transport = state.transport.as_mut().expect("dialed above");
        let alive = matches!(
            exchange(transport.as_mut(), &frame, None),
            Ok(WireMessage::Catalog(_))
        );
        self.telemetry.record_call(started.elapsed());
        if !alive {
            state.transport = None;
            self.telemetry
                .probe_failures
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    pub(crate) fn snapshot(&self) -> ShardStatsSnapshot {
        use std::sync::atomic::Ordering::Relaxed;
        let state = self.state.lock();
        ShardStatsSnapshot {
            shard: self.shard,
            in_flight: self.telemetry.in_flight.load(Relaxed),
            calls: self.telemetry.calls.load(Relaxed),
            failovers: self.telemetry.failovers.load(Relaxed),
            call_time: std::time::Duration::from_nanos(self.telemetry.call_nanos.load(Relaxed)),
            probe_failures: self.telemetry.probe_failures.load(Relaxed),
            stale_replicas: state.stale.iter().filter(|&&s| s).count(),
            connected_replica: state.transport.as_ref().map(|_| state.replica),
        }
    }
}

/// One lockstep exchange on an established transport.
fn exchange(
    transport: &mut dyn PirTransport,
    frame: &[u8],
    expect_query_id: Option<u64>,
) -> Result<WireMessage, WireError> {
    transport.send(frame)?;
    let reply = transport.recv()?;
    let message = decode_message(&reply)?;
    if let Some(expected) = expect_query_id {
        let got = match &message {
            WireMessage::Response(msg) => Some(msg.response.query_id),
            // A connection-level error (id 0) answers whatever is in
            // flight on a lockstep link.
            WireMessage::Error(reply) if reply.query_id != 0 => Some(reply.query_id),
            _ => None,
        };
        if let Some(got) = got {
            if got != expected {
                return Err(WireError::Transport(format!(
                    "lockstep reply desynchronized: expected query {expected}, got {got}"
                )));
            }
        }
    }
    Ok(message)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_wire::{loopback_pair, ErrorCode, ErrorReply};
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A dialer whose connections answer every frame with a canned reply,
    /// optionally dying after N exchanges.
    struct Scripted {
        dials: Arc<AtomicUsize>,
        die_after: usize,
        reply: WireMessage,
    }

    impl Dialer for Scripted {
        fn dial(&self) -> Result<Box<dyn PirTransport>, WireError> {
            self.dials.fetch_add(1, Ordering::SeqCst);
            let (client, mut server) = loopback_pair();
            let reply = encode_message(&self.reply);
            let budget = self.die_after;
            std::thread::spawn(move || {
                let mut served = 0;
                while server.recv().is_ok() {
                    if served >= budget || server.send(&reply).is_err() {
                        return;
                    }
                    served += 1;
                }
            });
            Ok(Box::new(client))
        }
    }

    fn catalog_request() -> Vec<u8> {
        encode_message(&WireMessage::CatalogRequest)
    }

    fn canned_error() -> WireMessage {
        WireMessage::Error(ErrorReply::new(ErrorCode::UnknownTable, 0, "canned"))
    }

    #[test]
    fn calls_fail_over_to_the_next_replica() {
        let dials0 = Arc::new(AtomicUsize::new(0));
        let dials1 = Arc::new(AtomicUsize::new(0));
        let conn = ShardConn::new(
            0,
            vec![
                Arc::new(Scripted {
                    dials: Arc::clone(&dials0),
                    die_after: 0, // dies on the first exchange
                    reply: canned_error(),
                }),
                Arc::new(Scripted {
                    dials: Arc::clone(&dials1),
                    die_after: usize::MAX,
                    reply: canned_error(),
                }),
            ],
        );
        let reply = conn.call(&catalog_request(), None).unwrap();
        assert!(matches!(reply, WireMessage::Error(_)));
        assert_eq!(dials0.load(Ordering::SeqCst), 1);
        assert_eq!(dials1.load(Ordering::SeqCst), 1);
        assert_eq!(conn.snapshot().failovers, 1);
        assert_eq!(conn.snapshot().connected_replica, Some(1));
    }

    #[test]
    fn exhausting_every_replica_is_shard_unavailable() {
        let conn = ShardConn::new(
            3,
            vec![Arc::new(|| -> Result<Box<dyn PirTransport>, WireError> {
                Err(WireError::Transport("connection refused".into()))
            }) as Arc<dyn Dialer>],
        );
        match conn.call(&catalog_request(), None) {
            Err(ClusterError::ShardUnavailable { shard: 3, detail }) => {
                assert!(detail.contains("connection refused"));
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
    }

    #[test]
    fn desynchronized_replies_are_discarded_like_transport_failures() {
        let conn = ShardConn::new(
            0,
            vec![Arc::new(Scripted {
                dials: Arc::new(AtomicUsize::new(0)),
                die_after: usize::MAX,
                reply: WireMessage::Error(ErrorReply {
                    query_id: 999, // wrong id, every time
                    ..match canned_error() {
                        WireMessage::Error(reply) => reply,
                        _ => unreachable!(),
                    }
                }),
            })],
        );
        match conn.call(&catalog_request(), Some(7)) {
            Err(ClusterError::ShardUnavailable { detail, .. }) => {
                assert!(detail.contains("desynchronized"), "{detail}");
            }
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
    }
}
