//! Client-side TCP plumbing: a transport whose `recv` can give up at a
//! deadline, and the listener that puts a serve loop behind a socket.
//!
//! `PirSession::poll` blocks in `recv` until a response arrives. An open
//! loop must also submit on time, from the same thread (the session is
//! `&mut`), so the generator tells the transport when its next arrival is
//! due and `recv` returns `WireError::TimedOut` at that instant — before
//! reading a single byte, so no frame is ever torn. `SO_RCVTIMEO` cannot do
//! this: the kernel rounds it up to scheduler ticks (1–4 ms), longer than
//! the 500 µs gaps of the open loop.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use pir_wire::{PirTransport, SplitTransport, TcpTransport, WireError};

/// The instant until which `recv` may block, shared by a session's two
/// connections and set by the load generator. Stored as nanoseconds after
/// `base`; zero means "no deadline".
#[derive(Clone)]
pub struct Deadline {
    base: Instant,
    nanos: Arc<AtomicU64>,
}

impl Deadline {
    pub fn new() -> Self {
        Self {
            base: Instant::now(),
            nanos: Arc::new(AtomicU64::new(0)),
        }
    }

    pub fn set(&self, at: Option<Instant>) {
        let nanos = at.map_or(0, |at| {
            (at.saturating_duration_since(self.base).as_nanos() as u64).max(1)
        });
        // Relaxed: written and read by the one generator thread.
        self.nanos.store(nanos, Ordering::Relaxed);
    }

    /// Time left, `None` without a deadline, zero once it has passed.
    fn remaining(&self) -> Option<Duration> {
        match self.nanos.load(Ordering::Relaxed) {
            0 => None,
            nanos => Some(
                (self.base + Duration::from_nanos(nanos)).saturating_duration_since(Instant::now()),
            ),
        }
    }
}

/// A `TcpTransport` whose `recv` honours a [`Deadline`].
pub struct DeadlineTransport {
    inner: TcpTransport,
    /// A second handle to the same socket, kept only to wait on.
    waiter: TcpStream,
    deadline: Deadline,
}

impl DeadlineTransport {
    pub fn connect(addr: SocketAddr, deadline: Deadline) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(|e| WireError::Transport(e.to_string()))?;
        let waiter = stream
            .try_clone()
            .map_err(|e| WireError::Transport(e.to_string()))?;
        Ok(Self {
            inner: TcpTransport::from_stream(stream)?,
            waiter,
            deadline,
        })
    }
}

impl PirTransport for DeadlineTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.inner.send(frame)
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        if let Some(left) = self.deadline.remaining() {
            if !readable_within(&self.waiter, left) {
                return Err(WireError::TimedOut);
            }
        }
        self.inner.recv()
    }

    fn split(self: Box<Self>) -> SplitTransport {
        SplitTransport::Whole(self)
    }
}

/// Wait until `stream` has bytes to read (or has been closed), for at most
/// `timeout`. Returns whether it became readable.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn readable_within(stream: &TcpStream, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    const POLLIN: i16 = 0x001;
    extern "C" {
        // int ppoll(struct pollfd *, nfds_t, const struct timespec *, const sigset_t *);
        fn ppoll(
            fds: *mut PollFd,
            nfds: u64,
            timeout: *const Timespec,
            sigmask: *const std::ffi::c_void,
        ) -> i32;
    }

    let until = Instant::now() + timeout;
    loop {
        let left = until.saturating_duration_since(Instant::now());
        let mut fd = PollFd {
            fd: stream.as_raw_fd(),
            events: POLLIN,
            revents: 0,
        };
        let spec = Timespec {
            tv_sec: left.as_secs() as i64,
            tv_nsec: i64::from(left.subsec_nanos()),
        };
        // SAFETY: `fd` and `spec` are live, correctly laid-out locals for
        // the duration of the call (`struct pollfd` is {int, short, short};
        // `struct timespec` is two 64-bit longs on 64-bit Linux), nfds is 1,
        // a null sigmask is allowed, and the descriptor is owned by `stream`.
        let ready = unsafe { ppoll(&mut fd, 1, &spec, std::ptr::null()) };
        if ready > 0 {
            return true; // readable, hung up or errored: let recv report it
        }
        if ready == 0 {
            return false;
        }
        if std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
            return true; // let recv surface the real error
        }
    }
}

/// Without `ppoll` the deadline is not enforced: `recv` blocks, and the
/// open loop's generator lag (which is reported) shows the cost.
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn readable_within(_stream: &TcpStream, _timeout: Duration) -> bool {
    true
}

/// A `127.0.0.1` listener whose accept loop hands every connection to
/// `serve` on a thread of its own.
pub struct TcpEndpoint {
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accepted: Arc<Mutex<Vec<TcpStream>>>,
    workers: Arc<Mutex<Vec<JoinHandle<()>>>>,
    accept: Option<JoinHandle<()>>,
}

impl TcpEndpoint {
    pub fn spawn<F>(serve: F) -> Self
    where
        F: Fn(Box<dyn PirTransport>) + Send + Sync + 'static,
    {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind a loopback listener");
        let addr = listener.local_addr().expect("listener has an address");
        let stop = Arc::new(AtomicBool::new(false));
        let accepted: Arc<Mutex<Vec<TcpStream>>> = Arc::default();
        let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let serve = Arc::new(serve);
        let accept = {
            let (stop, accepted, workers) = (stop.clone(), accepted.clone(), workers.clone());
            std::thread::spawn(move || {
                while let Ok((stream, _)) = listener.accept() {
                    if stop.load(Ordering::SeqCst) {
                        return; // the connection `close` made to unblock us
                    }
                    if let Ok(clone) = stream.try_clone() {
                        accepted.lock().expect("accepted list").push(clone);
                    }
                    let serve = Arc::clone(&serve);
                    let worker = std::thread::spawn(move || {
                        if let Ok(transport) = TcpTransport::from_stream(stream) {
                            serve(Box::new(transport));
                        }
                    });
                    workers.lock().expect("worker list").push(worker);
                }
            })
        };
        Self {
            addr,
            stop,
            accepted,
            workers,
            accept: Some(accept),
        }
    }

    /// Stop accepting, shut every live connection and join every thread.
    /// Idempotent, and panic-free because `Drop` calls it.
    pub fn close(&mut self) {
        let Some(accept) = self.accept.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        let drain = |list: &Mutex<Vec<_>>| {
            std::mem::take(
                &mut *list
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner),
            )
        };
        for stream in drain(&self.accepted) {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop so it sees the stop flag.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
        let workers: Vec<JoinHandle<()>> = std::mem::take(
            &mut *self
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for worker in workers {
            let _ = worker.join();
        }
    }
}

impl Drop for TcpEndpoint {
    fn drop(&mut self) {
        self.close();
    }
}
