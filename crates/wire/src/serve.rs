//! The one server connection loop, shared by `pir-serve`'s `WireFrontend`
//! and `pir-cluster`'s `ClusterRouter`.
//!
//! To batch, a server must see a client's whole pipeline window at once. So
//! [`serve_split`] splits the transport: the calling thread reads each frame
//! and hands it to the server's `dispatch`, which answers through a
//! [`Replies`] handle without waiting. One writer thread per connection
//! sends each drain as one [`PirTransport::send_many`] burst: queued frames
//! in queue order, then completions as they resolve.
//!
//! **Hang-up.** When the reader sees the peer hang up, everything still owed
//! is dropped unsent, and dropping a completion is how a server cancels the
//! work behind it. No transport half-closes, so the peer could read none of
//! it anyway. **Errors.** A transport that cannot split is refused before
//! anything is read. The reader's error wins; otherwise the writer's
//! surfaces, unless the peer simply hung up.

use std::future::Future;
use std::mem::take;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};

use parking_lot::{Condvar, Mutex};

use crate::error::{ErrorCode, WireError};
use crate::messages::{encode_message, ErrorReply};
use crate::transport::{PirTransport, SplitTransport};

/// The reply side of one connection, handed to `dispatch` with every frame.
/// Clone it into whatever answers later; once the connection has ended,
/// every reply is dropped unsent.
pub struct Replies(Arc<Outbox>);

/// What the writer still owes the peer.
#[derive(Default)]
struct Outbox {
    state: Mutex<OutboxState>,
    bell: Condvar,
}

#[derive(Default)]
struct OutboxState {
    /// Finished replies, in queue order.
    frames: Vec<Vec<u8>>,
    /// Replies still computing, each resolving to its encoded frame.
    pending: Vec<Pin<Box<dyn Future<Output = Vec<u8>> + Send>>>,
    /// Live [`Replies`] handles.
    handles: usize,
    /// The connection ended: nothing more is queued or sent.
    closed: bool,
    /// Something arrived or woke since the writer last looked.
    woken: bool,
}

impl Replies {
    fn new() -> Self {
        let outbox = Arc::new(Outbox::default());
        outbox.state.lock().handles = 1;
        Self(outbox)
    }

    /// Queue a finished, encoded reply.
    pub fn send(&self, frame: Vec<u8>) {
        self.0.queue(|state| state.frames.push(frame));
    }

    /// Register a reply still computing; the writer sends the frame it
    /// resolves to, or drops it unpolled if the connection ends first.
    pub fn complete(&self, reply: impl Future<Output = Vec<u8>> + Send + 'static) {
        let reply = Box::pin(reply);
        self.0.queue(|state| state.pending.push(reply));
    }
}

impl Clone for Replies {
    fn clone(&self) -> Self {
        self.0.state.lock().handles += 1;
        Self(Arc::clone(&self.0))
    }
}

impl Drop for Replies {
    fn drop(&mut self) {
        let mut state = self.0.state.lock();
        state.handles -= 1;
        if state.handles == 0 {
            self.0.bell.notify_all();
        }
    }
}

/// A completion's waker rings the writer's bell.
impl Wake for Outbox {
    fn wake(self: Arc<Self>) {
        self.queue(|_| {});
    }
}

impl Outbox {
    /// Apply `add` unless the connection has closed, and ring the bell. A
    /// refused reply is dropped after the lock is released.
    fn queue(&self, add: impl FnOnce(&mut OutboxState)) {
        let mut state = self.state.lock();
        if !state.closed {
            add(&mut state);
            state.woken = true;
        }
        drop(state);
        self.bell.notify_all();
    }

    /// Block until something is ready and take all of it. `None` once the
    /// connection has closed, or when nothing is queued or computing and no
    /// handle is left to add more.
    fn next_burst(self: &Arc<Self>) -> Option<Vec<Vec<u8>>> {
        let waker = Waker::from(Arc::clone(self));
        let mut cx = Context::from_waker(&waker);
        let mut state = self.state.lock();
        while !state.closed {
            state.woken = false;
            let (mut burst, mut pending) = (take(&mut state.frames), take(&mut state.pending));
            // Poll without the lock: a completion may wake itself, or
            // answer through a `Replies`, from inside its own poll.
            drop(state);
            pending.retain_mut(|reply| match reply.as_mut().poll(&mut cx) {
                Poll::Ready(frame) => {
                    burst.push(frame);
                    false
                }
                Poll::Pending => true,
            });
            state = self.state.lock();
            if state.closed {
                break; // what was taken is dropped with the lock released
            }
            pending.append(&mut state.pending);
            state.pending = pending;
            if !burst.is_empty() {
                return Some(burst);
            }
            if !state.woken {
                if state.handles == 0 && state.pending.is_empty() {
                    break;
                }
                self.bell.wait(&mut state);
            }
        }
        None
    }

    /// End the connection, dropping everything still owed (outside the
    /// lock: dropping a completion may cancel work elsewhere).
    fn close(&self) {
        let mut state = self.state.lock();
        state.closed = true;
        let _owed = (take(&mut state.frames), take(&mut state.pending));
        drop(state);
        self.bell.notify_all();
    }
}

/// Serve one connection until the peer hangs up: this thread reads and
/// calls `dispatch` with each frame, and a writer thread named
/// `writer_name` sends the replies (see the module docs).
///
/// # Errors
///
/// [`WireError::Transport`] for a transport that cannot split (nothing is
/// read from it) or a writer thread that cannot start; then the reader's
/// error, or else the writer's unless the peer simply hung up.
pub fn serve_split(
    transport: Box<dyn PirTransport>,
    writer_name: String,
    mut dispatch: impl FnMut(&[u8], &Replies),
) -> Result<(), WireError> {
    let SplitTransport::Halves { mut recv, mut send } = transport.split() else {
        return Err(WireError::Transport(
            "transport cannot split into receive/send halves, which the server loop needs".into(),
        ));
    };
    let replies = Replies::new();
    let outbox = Arc::clone(&replies.0);
    let writer = std::thread::Builder::new()
        .name(writer_name)
        .spawn(move || {
            while let Some(burst) = outbox.next_burst() {
                let frames: Vec<&[u8]> = burst.iter().map(Vec::as_slice).collect();
                send.send_many(&frames).inspect_err(|_| outbox.close())?;
            }
            Ok(())
        })
        .map_err(|err| WireError::Transport(format!("cannot start the writer: {err}")))?;
    let read = loop {
        match recv.recv() {
            Ok(_) if replies.0.state.lock().closed => break Ok(()), // the writer failed
            Ok(frame) => dispatch(&frame, &replies),
            Err(WireError::ConnectionClosed) => break Ok(()),
            Err(err) => break Err(err),
        }
    };
    replies.0.close();
    let written = writer
        .join()
        .unwrap_or_else(|_| Err(WireError::Transport("the writer panicked".into())));
    match (read, written) {
        (Ok(()), Err(err)) if err != WireError::ConnectionClosed => Err(err),
        (read, _) => read,
    }
}

/// Answer one request frame on the calling thread: run `dispatch`, then
/// block until the first reply it queues or completes. Total: if `dispatch`
/// drops every handle unanswered, the answer is a typed
/// [`ErrorCode::Protocol`] error, not a hang.
#[must_use]
pub fn answer_one(frame: &[u8], dispatch: impl FnOnce(&[u8], &Replies)) -> Vec<u8> {
    let outbox = {
        let replies = Replies::new();
        dispatch(frame, &replies);
        Arc::clone(&replies.0)
    };
    let reply = outbox
        .next_burst()
        .and_then(|burst| burst.into_iter().next());
    outbox.close();
    let unanswered = || ErrorReply::new(ErrorCode::Protocol, 0, "request dropped unanswered");
    reply.unwrap_or_else(|| encode_message(&unanswered().into()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::messages::{decode_message, WireMessage};
    use crate::transport::loopback_pair;
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::mpsc;
    use std::time::Duration;

    /// The shared state of a [`Scripted`] connection.
    #[derive(Default)]
    struct Wire {
        state: Mutex<WireState>,
        changed: Condvar,
    }

    #[derive(Default)]
    struct WireState {
        /// Every burst the send half took, in order.
        bursts: Vec<Vec<Vec<u8>>>,
        /// `send_many` calls entered so far.
        entered: usize,
        /// Sends block until the gate opens.
        open: bool,
    }

    impl Wire {
        fn open(&self) {
            self.state.lock().open = true;
            self.changed.notify_all();
        }
    }

    /// A scripted connection. The receive half plays `steps`, each once
    /// `send_many` has been entered at least the given number of times, then
    /// reports a hang-up. The send half waits for the gate, records each
    /// burst and returns `sent`.
    struct Scripted {
        wire: Arc<Wire>,
        steps: VecDeque<(usize, Result<Vec<u8>, WireError>)>,
        sent: Result<(), WireError>,
    }

    impl Scripted {
        fn new(
            steps: Vec<(usize, Result<Vec<u8>, WireError>)>,
            sent: Result<(), WireError>,
        ) -> (Box<Self>, Arc<Wire>) {
            let wire = Arc::new(Wire::default());
            let script = Self {
                wire: Arc::clone(&wire),
                steps: steps.into(),
                sent,
            };
            (Box::new(script), wire)
        }
    }

    impl PirTransport for Scripted {
        fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
            self.send_many(&[frame])
        }

        fn send_many(&mut self, frames: &[&[u8]]) -> Result<(), WireError> {
            let mut state = self.wire.state.lock();
            state.entered += 1;
            self.wire.changed.notify_all();
            while !state.open {
                self.wire.changed.wait(&mut state);
            }
            state
                .bursts
                .push(frames.iter().map(|f| f.to_vec()).collect());
            self.sent.clone()
        }

        fn recv(&mut self) -> Result<Vec<u8>, WireError> {
            let Some((entered, step)) = self.steps.pop_front() else {
                return Err(WireError::ConnectionClosed);
            };
            let mut state = self.wire.state.lock();
            while state.entered < entered {
                self.wire.changed.wait(&mut state);
            }
            step
        }

        fn split(self: Box<Self>) -> SplitTransport {
            let send = Box::new(Self {
                wire: Arc::clone(&self.wire),
                steps: VecDeque::new(),
                sent: self.sent.clone(),
            });
            SplitTransport::Halves { recv: self, send }
        }
    }

    /// Serve `transport` on a thread, answering every frame by echoing it;
    /// return what `serve_split` returned, or fail if it takes over 5 s.
    fn serve_echo(transport: Box<dyn PirTransport>) -> Result<(), WireError> {
        let (done, outcome) = mpsc::channel();
        std::thread::spawn(move || {
            let served = serve_split(transport, "test-writer".into(), |frame, replies| {
                replies.send(frame.to_vec());
            });
            let _ = done.send(served);
        });
        outcome
            .recv_timeout(Duration::from_secs(5))
            .expect("serve_split returns")
    }

    #[test]
    fn unsplittable_transports_are_refused_with_a_typed_error() {
        /// A transport that cannot split; touching it is a test failure.
        struct Unsplittable;
        impl PirTransport for Unsplittable {
            fn send(&mut self, _frame: &[u8]) -> Result<(), WireError> {
                panic!("an unsplittable transport must not be served");
            }
            fn recv(&mut self) -> Result<Vec<u8>, WireError> {
                panic!("an unsplittable transport must not be served");
            }
            fn split(self: Box<Self>) -> SplitTransport {
                SplitTransport::Whole(self)
            }
        }
        let served = serve_split(Box::new(Unsplittable), "test-writer".into(), |_, _| {
            panic!("nothing is dispatched from an unsplittable transport")
        });
        match served {
            Err(WireError::Transport(detail)) => assert!(detail.contains("cannot split")),
            other => panic!("expected a transport error, got {other:?}"),
        }
    }

    #[test]
    fn queued_frames_go_out_in_queue_order_ahead_of_completions_in_the_same_burst() {
        // Frame "a" is answered at once and the writer blocks sending it.
        // Frame "b" registers a completion that is already resolved and then
        // queues two frames, and only then lets the writer go on: its next
        // drain holds all three.
        let (transport, wire) = Scripted::new(
            vec![
                (0, Ok(b"a".to_vec())),
                (1, Ok(b"b".to_vec())),
                (2, Err(WireError::ConnectionClosed)),
            ],
            Ok(()),
        );
        let gate = Arc::clone(&wire);
        let served = serve_split(transport, "test-writer".into(), move |frame, replies| {
            if frame == b"a" {
                replies.send(b"first".to_vec());
            } else {
                replies.complete(std::future::ready(b"done".to_vec()));
                replies.send(b"q1".to_vec());
                replies.send(b"q2".to_vec());
                gate.open();
            }
        });
        assert_eq!(served, Ok(()));
        let bursts = wire.state.lock().bursts.clone();
        let expected: Vec<Vec<Vec<u8>>> = vec![
            vec![b"first".to_vec()],
            vec![b"q1".to_vec(), b"q2".to_vec(), b"done".to_vec()],
        ];
        assert_eq!(bursts, expected);
    }

    #[test]
    fn a_completion_pending_at_hang_up_is_dropped_unsent_and_not_awaited() {
        /// Never resolves; records being dropped.
        struct Never(Arc<AtomicBool>);
        impl Future for Never {
            type Output = Vec<u8>;
            fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Vec<u8>> {
                Poll::Pending
            }
        }
        impl Drop for Never {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        let dropped = Arc::new(AtomicBool::new(false));
        let (mut client, server) = loopback_pair();
        let (done, outcome) = mpsc::channel();
        {
            let dropped = Arc::clone(&dropped);
            std::thread::spawn(move || {
                let served = serve_split(Box::new(server), "test-writer".into(), |_, replies| {
                    replies.complete(Never(Arc::clone(&dropped)));
                });
                let _ = done.send(served);
            });
        }
        client.send(b"query").unwrap();
        drop(client);
        let served = outcome
            .recv_timeout(Duration::from_secs(5))
            .expect("serve_split returns without waiting for the completion");
        assert_eq!(served, Ok(()));
        assert!(
            dropped.load(Ordering::SeqCst),
            "the owed completion is dropped"
        );
    }

    #[test]
    fn writer_errors_surface_unless_the_peer_hung_up_and_reader_errors_win() {
        let failed = || WireError::Transport("write failed".into());
        // The reader ends cleanly after the writer failed: the writer's
        // error surfaces.
        let (transport, wire) = Scripted::new(
            vec![
                (0, Ok(b"a".to_vec())),
                (1, Err(WireError::ConnectionClosed)),
            ],
            Err(failed()),
        );
        wire.open();
        assert_eq!(serve_echo(transport), Err(failed()));
        // A send that failed only because the peer hung up is a clean end.
        let (transport, wire) = Scripted::new(
            vec![
                (0, Ok(b"a".to_vec())),
                (1, Err(WireError::ConnectionClosed)),
            ],
            Err(WireError::ConnectionClosed),
        );
        wire.open();
        assert_eq!(serve_echo(transport), Ok(()));
        // The reader's own I/O error wins over the writer's.
        let read_failed = WireError::Transport("read failed".into());
        let (transport, wire) = Scripted::new(
            vec![(0, Ok(b"a".to_vec())), (1, Err(read_failed.clone()))],
            Err(failed()),
        );
        wire.open();
        assert_eq!(serve_echo(transport), Err(read_failed));
    }

    #[test]
    fn answer_one_returns_the_first_reply_or_a_typed_protocol_error() {
        assert_eq!(
            answer_one(b"x", |frame, replies| replies.send(frame.to_vec())),
            b"x"
        );
        assert_eq!(
            answer_one(b"x", |_, replies| replies
                .complete(std::future::ready(b"later".to_vec()))),
            b"later"
        );
        // A clone that answers from another thread is waited for.
        let reply = answer_one(b"x", |_, replies| {
            let replies = replies.clone();
            std::thread::spawn(move || replies.send(b"leg".to_vec()));
        });
        assert_eq!(reply, b"leg");
        // Every handle dropped unanswered: a typed error, not a hang.
        let unanswered = |_: &[u8], replies: &Replies| drop(replies.clone());
        match decode_message(&answer_one(b"x", unanswered)).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::Protocol);
                assert!(error.message.contains("unanswered"), "{}", error.message);
            }
            other => panic!("expected an error, got {}", other.name()),
        }
    }
}
