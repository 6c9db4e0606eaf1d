//! A minimal waker-correct oneshot channel and a `block_on` executor.
//!
//! The runtime is async without an external executor dependency: queries
//! resolve through [`std::future::Future`]s backed by this channel, and
//! callers either `.await` them from their own executor or use the provided
//! thread-parking [`block_on`].

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Wake, Waker};
use std::thread::Thread;

use parking_lot::Mutex;

enum State<T> {
    /// No value yet; the receiver may have parked a waker.
    Pending { waker: Option<Waker> },
    /// Value delivered, not yet taken.
    Ready(T),
    /// Sender dropped without sending.
    Closed,
    /// Value taken by the receiver.
    Taken,
}

struct Shared<T> {
    state: Mutex<State<T>>,
}

/// Sending half; delivering a value consumes it.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
    sent: bool,
}

/// Receiving half; a [`Future`] resolving to `Err(Canceled)` if the sender
/// is dropped first.
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

/// The sender was dropped without delivering a value.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Canceled;

/// Create a connected sender/receiver pair.
pub fn channel<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State::Pending { waker: None }),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
            sent: false,
        },
        Receiver { shared },
    )
}

impl<T> Sender<T> {
    /// Deliver the value, waking the receiver if it is parked.
    pub fn send(mut self, value: T) {
        let waker = {
            let mut state = self.shared.state.lock();
            let previous = std::mem::replace(&mut *state, State::Ready(value));
            match previous {
                State::Pending { waker } => waker,
                // Unreachable by construction (send consumes self), but keep
                // the channel sane if it ever happens.
                other => {
                    *state = other;
                    None
                }
            }
        };
        self.sent = true;
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        if self.sent {
            return;
        }
        let waker = {
            let mut state = self.shared.state.lock();
            if let State::Pending { waker } = &mut *state {
                let waker = waker.take();
                *state = State::Closed;
                waker
            } else {
                None
            }
        };
        if let Some(waker) = waker {
            waker.wake();
        }
    }
}

impl<T> Future for Receiver<T> {
    type Output = Result<T, Canceled>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let mut state = self.shared.state.lock();
        match std::mem::replace(&mut *state, State::Taken) {
            State::Ready(value) => Poll::Ready(Ok(value)),
            State::Closed => Poll::Ready(Err(Canceled)),
            State::Pending { .. } => {
                *state = State::Pending {
                    waker: Some(cx.waker().clone()),
                };
                Poll::Pending
            }
            #[expect(
                clippy::panic,
                reason = "Future contract violation: poll after Ready, mirroring std channel semantics"
            )]
            State::Taken => panic!("oneshot polled after completion"),
        }
    }
}

struct ThreadWaker(Thread);

impl Wake for ThreadWaker {
    fn wake(self: Arc<Self>) {
        self.0.unpark();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.0.unpark();
    }
}

/// Drive a future to completion on the current thread.
///
/// Parks the thread between polls; wake-ups come from the future's waker
/// (here: batch formers delivering responses from their worker threads).
pub fn block_on<F: Future>(future: F) -> F::Output {
    let mut future = std::pin::pin!(future);
    let waker = Waker::from(Arc::new(ThreadWaker(std::thread::current())));
    let mut cx = Context::from_waker(&waker);
    loop {
        match future.as_mut().poll(&mut cx) {
            Poll::Ready(value) => return value,
            Poll::Pending => std::thread::park(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn send_before_poll_resolves() {
        let (tx, rx) = channel();
        tx.send(7u32);
        assert_eq!(block_on(rx), Ok(7));
    }

    #[test]
    fn cross_thread_wakeup() {
        let (tx, rx) = channel();
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            tx.send("late".to_string());
        });
        assert_eq!(block_on(rx).unwrap(), "late");
        sender.join().unwrap();
    }

    #[test]
    fn dropped_sender_cancels() {
        let (tx, rx) = channel::<u8>();
        drop(tx);
        assert_eq!(block_on(rx), Err(Canceled));
    }

    #[test]
    fn dropped_sender_wakes_parked_receiver() {
        let (tx, rx) = channel::<u8>();
        let dropper = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(tx);
        });
        assert_eq!(block_on(rx), Err(Canceled));
        dropper.join().unwrap();
    }
}
