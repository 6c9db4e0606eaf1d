//! Transports: framed byte pipes the protocol runs over.
//!
//! A transport moves whole frames (already-encoded envelopes) between
//! exactly two endpoints. Two implementations ship in-tree:
//!
//! * [`loopback_pair`] — an in-process duplex channel, for tests and
//!   benches that want to exercise the full encode→frame→decode path
//!   without sockets;
//! * [`TcpTransport`] — length-prefixed frames over a [`TcpStream`], the
//!   real networked deployment shape.
//!
//! A pipelined writer hands a whole burst of ready frames to
//! [`PirTransport::send_many`]. Over TCP that burst costs one vectored
//! `write` (every `len ‖ frame` pair gathered, nothing copied) instead of two
//! syscalls and two segments per frame. On the receive side, the half that
//! [`PirTransport::split`] hands to a dedicated reader buffers its reads, so
//! a burst that arrives in one segment is taken in one `read`. A whole,
//! unsplit transport stays unbuffered: it never reads past the frame it
//! returns, so a readiness poll on its socket (or on a clone of it) tells
//! the truth about whether another frame is waiting.

use std::collections::VecDeque;
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex};

use crate::error::WireError;

/// Hard cap on a single frame. Far above any legitimate query (keys are
/// `O(log L)`), low enough that a corrupt length prefix cannot OOM the
/// receiver.
pub const MAX_FRAME_BYTES: usize = 1 << 26; // 64 MiB

/// The outcome of [`PirTransport::split`].
pub enum SplitTransport {
    /// Two independently-usable handles onto the *same* connection: one for
    /// the receive direction, one for the send direction. A pipelined
    /// endpoint runs them on separate threads (see [`crate::serve_split`]).
    Halves {
        /// Handle intended for `recv` calls.
        recv: Box<dyn PirTransport>,
        /// Handle intended for `send` calls.
        send: Box<dyn PirTransport>,
    },
    /// The transport cannot be split (client-side wrappers that never serve,
    /// or a socket whose handle could not be duplicated); a server refuses
    /// it with a typed error.
    Whole(Box<dyn PirTransport>),
}

/// A blocking, two-endpoint, frame-oriented byte pipe.
///
/// Implementations must deliver frames intact and in order. `recv` blocks
/// until a frame arrives or the peer hangs up.
pub trait PirTransport: Send {
    /// Send one frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::ConnectionClosed`] if the peer hung up,
    /// [`WireError::FrameTooLarge`] for oversized frames (checked *before*
    /// any byte is written, so an oversized frame never poisons the stream)
    /// and [`WireError::Transport`] for I/O failures.
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError>;

    /// Send a burst of frames, in order, as if by one `send` each.
    ///
    /// Transports that can move a burst more cheaply than frame by frame
    /// override this; the default loops [`Self::send`].
    ///
    /// # Errors
    ///
    /// As [`Self::send`]. A burst holding an oversized frame fails with
    /// [`WireError::FrameTooLarge`] before any of its frames is written.
    fn send_many(&mut self, frames: &[&[u8]]) -> Result<(), WireError> {
        for frame in frames {
            check_frame_len(frame.len())?;
        }
        frames.iter().try_for_each(|frame| self.send(frame))
    }

    /// Receive one frame, blocking until it arrives.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::ConnectionClosed`] on clean hang-up and
    /// [`WireError::Transport`] for I/O failures.
    fn recv(&mut self) -> Result<Vec<u8>, WireError>;

    /// Split into independently-usable receive/send halves of the same
    /// connection, enabling full-duplex pipelined service. Transports that
    /// cannot split return themselves whole and cannot be served.
    fn split(self: Box<Self>) -> SplitTransport;
}

// ---------------------------------------------------------------------------
// In-process loopback
// ---------------------------------------------------------------------------

struct ChannelState {
    frames: VecDeque<Vec<u8>>,
    closed: bool,
}

struct Channel {
    state: Mutex<ChannelState>,
    arrived: Condvar,
}

impl Channel {
    fn new() -> Arc<Self> {
        Arc::new(Self {
            state: Mutex::new(ChannelState {
                frames: VecDeque::new(),
                closed: false,
            }),
            arrived: Condvar::new(),
        })
    }

    fn push(&self, frame: Vec<u8>) -> Result<(), WireError> {
        let mut state = self.state.lock();
        if state.closed {
            return Err(WireError::ConnectionClosed);
        }
        state.frames.push_back(frame);
        drop(state);
        #[expect(
            clippy::disallowed_methods,
            reason = "one frame, one wakeup: each pop consumes exactly one frame per wait exit, and close() uses notify_all"
        )]
        self.arrived.notify_one();
        Ok(())
    }

    fn pop(&self) -> Result<Vec<u8>, WireError> {
        let mut state = self.state.lock();
        loop {
            if let Some(frame) = state.frames.pop_front() {
                return Ok(frame);
            }
            if state.closed {
                return Err(WireError::ConnectionClosed);
            }
            self.arrived.wait(&mut state);
        }
    }

    fn close(&self) {
        self.state.lock().closed = true;
        self.arrived.notify_all();
    }
}

/// One endpoint of an in-process duplex frame channel.
///
/// Dropping an endpoint closes both directions: the peer's pending and
/// future `recv`s drain already-delivered frames and then report
/// [`WireError::ConnectionClosed`].
pub struct LoopbackTransport {
    tx: Arc<Channel>,
    rx: Arc<Channel>,
}

/// Create a connected pair of in-process endpoints.
#[must_use]
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let a_to_b = Channel::new();
    let b_to_a = Channel::new();
    (
        LoopbackTransport {
            tx: Arc::clone(&a_to_b),
            rx: Arc::clone(&b_to_a),
        },
        LoopbackTransport {
            tx: b_to_a,
            rx: a_to_b,
        },
    )
}

/// Refuse a frame of `len` bytes if it is over [`MAX_FRAME_BYTES`].
fn check_frame_len(len: usize) -> Result<(), WireError> {
    if len > MAX_FRAME_BYTES {
        return Err(WireError::FrameTooLarge {
            len,
            limit: MAX_FRAME_BYTES,
        });
    }
    Ok(())
}

impl PirTransport for LoopbackTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        check_frame_len(frame.len())?;
        self.tx.push(frame.to_vec())
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        self.rx.pop()
    }

    fn split(self: Box<Self>) -> SplitTransport {
        // Both halves alias the same pair of channels; as with the whole
        // endpoint, dropping either half closes the connection in both
        // directions (half-close is not modeled).
        let recv = Box::new(LoopbackTransport {
            tx: Arc::clone(&self.tx),
            rx: Arc::clone(&self.rx),
        });
        SplitTransport::Halves { recv, send: self }
    }
}

impl Drop for LoopbackTransport {
    fn drop(&mut self) {
        self.tx.close();
        self.rx.close();
    }
}

impl std::fmt::Debug for LoopbackTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopbackTransport").finish()
    }
}

// ---------------------------------------------------------------------------
// TCP
// ---------------------------------------------------------------------------

/// Length-prefixed framing over a [`TcpStream`]: each frame travels as a
/// 4-byte little-endian length followed by the frame bytes.
///
/// A burst of frames ([`PirTransport::send_many`], and `send` as a burst of
/// one) goes out as one vectored write of every `len ‖ frame` pair.
///
/// Reads go through a [`BufReader`] whose capacity depends on the handle. A
/// whole transport has capacity 0, so every read bypasses the buffer and
/// `recv` never takes a byte past the frame it returns: a caller that polls
/// the socket for readiness between frames sees exactly what is still
/// unread. The receive half that [`PirTransport::split`] returns has std's
/// default capacity, so a burst of small frames costs one `read`, not two
/// per frame; nothing else reads that socket, so the bytes it buffers
/// ahead belong to no one else.
pub struct TcpTransport {
    reader: BufReader<TcpStream>,
}

impl TcpTransport {
    /// Wrap an already-connected stream (e.g. from a listener's `accept`).
    ///
    /// Disables Nagle so the two small per-query frames are not coalesced
    /// behind a delayed-ack timer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] if socket options cannot be set.
    pub fn from_stream(stream: TcpStream) -> Result<Self, WireError> {
        stream.set_nodelay(true).map_err(io_error)?;
        Ok(Self {
            reader: BufReader::with_capacity(0, stream),
        })
    }

    fn stream(&self) -> &TcpStream {
        self.reader.get_ref()
    }

    /// Connect to a listening server.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] if the connection fails.
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Self, WireError> {
        let stream = TcpStream::connect(addr).map_err(io_error)?;
        Self::from_stream(stream)
    }

    /// Connect to a listening server, giving up after `timeout`.
    ///
    /// `addr` may resolve to several endpoints; each is tried with the full
    /// timeout until one connects.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TimedOut`] if the deadline elapsed and
    /// [`WireError::Transport`] for other connection failures.
    pub fn connect_timeout(addr: impl ToSocketAddrs, timeout: Duration) -> Result<Self, WireError> {
        let mut last_err = None;
        for candidate in addr.to_socket_addrs().map_err(io_error)? {
            match TcpStream::connect_timeout(&candidate, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.map_or(
            WireError::Transport("address resolved to no endpoints".into()),
            io_error,
        ))
    }

    /// Bound every subsequent `recv` / `send` by the given deadlines
    /// (`None` restores blocking forever). Without this, a dead-but-open
    /// peer hangs a blocking `recv` indefinitely — which is what makes
    /// router failover impossible to bound.
    ///
    /// A call that fails with [`WireError::TimedOut`] may have moved a
    /// partial frame: the stream is desynchronized and the transport must
    /// be discarded (redial), never reused. A `recv` that times out before
    /// taking any byte of a frame (an idle link) consumed nothing, and the
    /// transport stays usable. On a split receive half, bytes already
    /// buffered count as read: a frame whose start sits in the buffer when
    /// the deadline elapses is a partial frame.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] if the socket options cannot be
    /// set (e.g. a zero duration, which the OS rejects).
    pub fn set_io_timeouts(
        &self,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<(), WireError> {
        self.stream().set_read_timeout(read).map_err(io_error)?;
        self.stream().set_write_timeout(write).map_err(io_error)
    }

    /// The peer's socket address, for diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] if the socket is no longer
    /// connected.
    pub fn peer_addr(&self) -> Result<std::net::SocketAddr, WireError> {
        self.stream().peer_addr().map_err(io_error)
    }
}

fn io_error(err: std::io::Error) -> WireError {
    // Unix reports an elapsed socket deadline as `WouldBlock`, Windows as
    // `TimedOut`; both mean the same thing to callers.
    match err.kind() {
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => WireError::TimedOut,
        _ => WireError::Transport(err.to_string()),
    }
}

impl PirTransport for TcpTransport {
    fn send(&mut self, frame: &[u8]) -> Result<(), WireError> {
        self.send_many(&[frame])
    }

    fn send_many(&mut self, frames: &[&[u8]]) -> Result<(), WireError> {
        for frame in frames {
            check_frame_len(frame.len())?;
        }
        // Checked above: every length fits the 4-byte prefix.
        let lens: Vec<[u8; 4]> = frames
            .iter()
            .map(|frame| (frame.len() as u32).to_le_bytes())
            .collect();
        let mut slices: Vec<IoSlice<'_>> = lens
            .iter()
            .zip(frames)
            .flat_map(|(len, frame)| [IoSlice::new(len), IoSlice::new(frame)])
            .collect();
        let mut unsent = &mut slices[..];
        let mut stream = self.stream();
        while !unsent.is_empty() {
            match stream.write_vectored(unsent) {
                Ok(0) => return Err(io_error(std::io::ErrorKind::WriteZero.into())),
                Ok(written) => IoSlice::advance_slices(&mut unsent, written),
                Err(err) if err.kind() == std::io::ErrorKind::Interrupted => {}
                Err(err) => return Err(io_error(err)),
            }
        }
        Ok(())
    }

    fn recv(&mut self) -> Result<Vec<u8>, WireError> {
        let mut len_bytes = [0u8; 4];
        if let Err(err) = self.reader.read_exact(&mut len_bytes) {
            // A clean shutdown between frames is a hang-up, not a failure.
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                return Err(WireError::ConnectionClosed);
            }
            return Err(io_error(err));
        }
        let len = u32::from_le_bytes(len_bytes) as usize;
        check_frame_len(len)?;
        let mut frame = vec![0u8; len];
        self.reader.read_exact(&mut frame).map_err(|err| {
            if err.kind() == std::io::ErrorKind::UnexpectedEof {
                WireError::ConnectionClosed
            } else {
                io_error(err)
            }
        })?;
        Ok(frame)
    }

    fn split(self: Box<Self>) -> SplitTransport {
        // A TCP socket is already full-duplex; the halves are two handles to
        // the same kernel socket (the OS closes it when both are dropped).
        // Only the receive half reads, so only it buffers. A whole
        // transport's reader has capacity 0 and holds no bytes, so
        // re-wrapping its stream loses nothing; a receive half split again
        // keeps its buffer.
        let send = match self.stream().try_clone() {
            Ok(stream) => TcpTransport {
                reader: BufReader::with_capacity(0, stream),
            },
            Err(_) => return SplitTransport::Whole(self),
        };
        let reader = if self.reader.capacity() == 0 {
            BufReader::new(self.reader.into_inner())
        } else {
            self.reader
        };
        SplitTransport::Halves {
            recv: Box::new(TcpTransport { reader }),
            send: Box::new(send),
        }
    }
}

impl std::fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpTransport")
            .field("peer", &self.stream().peer_addr().ok())
            .finish()
    }
}

// ---------------------------------------------------------------------------
// Redial
// ---------------------------------------------------------------------------

/// A factory for fresh connections to one endpoint.
///
/// Connections die (peer restarts, deadlines elapse, frames desynchronize);
/// a transport that failed mid-frame can never be reused. `Dialer` is the
/// redial seam: a failover layer holds a list of dialers per shard and asks
/// the next one for a *new* transport instead of poking at a corpse.
///
/// Any `Fn() -> Result<Box<dyn PirTransport>, WireError>` closure is a
/// dialer, so tests wire up in-process [`loopback_pair`] endpoints with the
/// same machinery production uses for [`TcpDialer`].
pub trait Dialer: Send + Sync {
    /// Open a fresh connection to the endpoint.
    ///
    /// # Errors
    ///
    /// Returns the underlying transport error when the endpoint cannot be
    /// reached ([`WireError::TimedOut`] when a connect deadline elapsed).
    fn dial(&self) -> Result<Box<dyn PirTransport>, WireError>;

    /// Human-readable endpoint description for diagnostics.
    fn describe(&self) -> String {
        "endpoint".to_string()
    }
}

impl<F> Dialer for F
where
    F: Fn() -> Result<Box<dyn PirTransport>, WireError> + Send + Sync,
{
    fn dial(&self) -> Result<Box<dyn PirTransport>, WireError> {
        self()
    }
}

/// Dials a TCP endpoint, applying connect and I/O deadlines to every
/// connection it produces.
#[derive(Clone, Debug)]
pub struct TcpDialer {
    addr: SocketAddr,
    connect_timeout: Option<Duration>,
    io_timeout: Option<Duration>,
}

impl TcpDialer {
    /// A dialer with no deadlines (blocking connect, blocking I/O).
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            connect_timeout: None,
            io_timeout: None,
        }
    }

    /// A dialer whose connections give up after `connect` when dialing and
    /// after `io` on every subsequent frame — the shape a failover layer
    /// needs so a dead peer costs a bounded delay, not a hang.
    #[must_use]
    pub fn with_timeouts(addr: SocketAddr, connect: Duration, io: Duration) -> Self {
        Self {
            addr,
            connect_timeout: Some(connect),
            io_timeout: Some(io),
        }
    }

    /// The endpoint this dialer connects to.
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Dialer for TcpDialer {
    fn dial(&self) -> Result<Box<dyn PirTransport>, WireError> {
        let transport = match self.connect_timeout {
            Some(deadline) => TcpTransport::connect_timeout(self.addr, deadline)?,
            None => TcpTransport::connect(self.addr)?,
        };
        transport.set_io_timeouts(self.io_timeout, self.io_timeout)?;
        Ok(Box::new(transport))
    }

    fn describe(&self) -> String {
        self.addr.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loopback_delivers_frames_in_order() {
        let (mut a, mut b) = loopback_pair();
        a.send(&[1, 2, 3]).unwrap();
        a.send(&[4]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1, 2, 3]);
        b.send(&[9, 9]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![4]);
        assert_eq!(a.recv().unwrap(), vec![9, 9]);
    }

    #[test]
    fn dropping_an_endpoint_closes_the_peer() {
        let (a, mut b) = loopback_pair();
        drop(a);
        assert_eq!(b.recv(), Err(WireError::ConnectionClosed));
        assert_eq!(b.send(&[1]), Err(WireError::ConnectionClosed));
    }

    #[test]
    fn oversized_frames_are_rejected_before_sending() {
        let (mut a, _b) = loopback_pair();
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        assert!(matches!(
            a.send(&huge),
            Err(WireError::FrameTooLarge { .. })
        ));
    }

    #[test]
    fn tcp_send_cap_is_enforced_before_any_byte_is_written() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut transport = TcpTransport::from_stream(stream).unwrap();
            // The only frame that ever arrives is the small follow-up: the
            // oversized send wrote nothing, so the stream is not poisoned.
            assert_eq!(transport.recv().unwrap(), vec![1, 2, 3]);
            assert_eq!(transport.recv(), Err(WireError::ConnectionClosed));
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        let huge = vec![0u8; MAX_FRAME_BYTES + 1];
        let too_large = Err(WireError::FrameTooLarge {
            len: MAX_FRAME_BYTES + 1,
            limit: MAX_FRAME_BYTES,
        });
        assert_eq!(client.send(&huge), too_large);
        // Anywhere in a burst, the oversized frame fails the whole burst
        // before its legal neighbours are written.
        for burst in [
            [&huge[..], &[7][..], &[8][..]],
            [&[7][..], &huge[..], &[8][..]],
            [&[7][..], &[8][..], &huge[..]],
        ] {
            assert_eq!(client.send_many(&burst), too_large);
        }
        client.send(&[1, 2, 3]).unwrap();
        drop(client);
        server.join().unwrap();
    }

    /// A connected pair of loopback sockets.
    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    /// The wire image of a burst: each frame as `len ‖ frame`.
    fn framed(frames: &[&[u8]]) -> Vec<u8> {
        frames
            .iter()
            .flat_map(|frame| {
                let len = (frame.len() as u32).to_le_bytes();
                len.into_iter().chain(frame.iter().copied())
            })
            .collect()
    }

    fn halves(transport: TcpTransport) -> (Box<dyn PirTransport>, Box<dyn PirTransport>) {
        match Box::new(transport).split() {
            SplitTransport::Halves { recv, send } => (recv, send),
            SplitTransport::Whole(_) => panic!("tcp must split"),
        }
    }

    #[test]
    fn tcp_send_many_writes_each_frame_behind_its_length() {
        let (near, mut far) = tcp_pair();
        let reader = std::thread::spawn(move || {
            let mut bytes = Vec::new();
            far.read_to_end(&mut bytes).unwrap();
            bytes
        });
        let mut sender = TcpTransport::from_stream(near).unwrap();
        let big = vec![0xa5u8; 1 << 20];
        let burst: [&[u8]; 4] = [&[1, 2, 3], &[], &big, &[9]];
        sender.send_many(&burst).unwrap();
        sender.send(&[4, 4]).unwrap();
        drop(sender);
        let bytes = reader.join().unwrap();
        let mut expected = framed(&burst);
        expected.extend(framed(&[&[4, 4]]));
        assert_eq!(bytes, expected);
    }

    #[test]
    fn whole_tcp_transport_never_reads_past_its_frame() {
        let (near, mut far) = tcp_pair();
        let probe = near.try_clone().unwrap();
        let mut whole = TcpTransport::from_stream(near).unwrap();
        far.write_all(&framed(&[&[1, 2, 3], &[4, 5]])).unwrap();
        assert_eq!(whole.recv().unwrap(), vec![1, 2, 3]);
        // The second frame is still in the socket, where a readiness poll
        // on another handle can see it.
        probe.set_nonblocking(true).unwrap();
        let mut peeked = [0u8; 16];
        let seen = probe.peek(&mut peeked).unwrap();
        assert_eq!(&peeked[..seen], framed(&[&[4, 5]]).as_slice());
        probe.set_nonblocking(false).unwrap();
        assert_eq!(whole.recv().unwrap(), vec![4, 5]);
    }

    #[test]
    fn split_receive_half_delivers_a_burst_intact() {
        let (near, mut far) = tcp_pair();
        let (mut recv, _send) = halves(TcpTransport::from_stream(near).unwrap());
        let capacity = BufReader::new(std::io::empty()).capacity();
        // The first frame ends two bytes short of the buffer's edge, so the
        // second frame's length straddles it; a later frame is larger than
        // the whole buffer.
        let first = vec![1u8; capacity - 6];
        let larger = (0..3 * capacity).map(|i| i as u8).collect::<Vec<_>>();
        let burst: Vec<&[u8]> = vec![&first, &[2, 2, 2], &[], &larger, &[3], &[4; 40]];
        far.write_all(&framed(&burst)).unwrap();
        for frame in &burst {
            assert_eq!(recv.recv().unwrap(), *frame);
        }
        drop(far);
        assert_eq!(recv.recv(), Err(WireError::ConnectionClosed));
    }

    #[test]
    fn an_idle_timeout_leaves_a_split_receive_half_usable() {
        let (near, mut far) = tcp_pair();
        let transport = TcpTransport::from_stream(near).unwrap();
        transport
            .set_io_timeouts(Some(Duration::from_millis(30)), None)
            .unwrap();
        let (mut recv, _send) = halves(transport);
        assert_eq!(recv.recv(), Err(WireError::TimedOut));
        far.write_all(&framed(&[&[1], &[2, 2]])).unwrap();
        assert_eq!(recv.recv().unwrap(), vec![1]);
        assert_eq!(recv.recv().unwrap(), vec![2, 2]);
        // Idle again with the buffer drained: still no byte of a frame taken.
        assert_eq!(recv.recv(), Err(WireError::TimedOut));
        far.write_all(&framed(&[&[3, 3, 3]])).unwrap();
        assert_eq!(recv.recv().unwrap(), vec![3, 3, 3]);
    }

    #[test]
    fn split_halves_share_the_connection() {
        let (a, mut b) = loopback_pair();
        let (mut recv_half, mut send_half) = match Box::new(a).split() {
            SplitTransport::Halves { recv, send } => (recv, send),
            SplitTransport::Whole(_) => panic!("loopback must split"),
        };
        send_half.send(&[1]).unwrap();
        assert_eq!(b.recv().unwrap(), vec![1]);
        b.send(&[2, 2]).unwrap();
        assert_eq!(recv_half.recv().unwrap(), vec![2, 2]);
    }

    #[test]
    fn tcp_splits_into_working_halves() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let (mut recv_half, mut send_half) = halves(TcpTransport::from_stream(stream).unwrap());
            // Echo from a different handle than the one receiving.
            let frame = recv_half.recv().unwrap();
            send_half.send(&frame).unwrap();
        });
        let mut client = TcpTransport::connect(addr).unwrap();
        client.send(&[9, 8, 7]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![9, 8, 7]);
        server.join().unwrap();
    }

    #[test]
    fn read_deadline_surfaces_as_timed_out() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // The server accepts but never sends: without a deadline the
        // client's recv would hang forever.
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            // Hold the socket open until the client has timed out.
            std::thread::sleep(Duration::from_millis(300));
            drop(stream);
        });
        let client = TcpTransport::connect_timeout(addr, Duration::from_secs(5)).unwrap();
        client
            .set_io_timeouts(Some(Duration::from_millis(30)), None)
            .unwrap();
        let mut client = client;
        assert_eq!(client.recv(), Err(WireError::TimedOut));
        drop(client);
        server.join().unwrap();
    }

    #[test]
    fn tcp_dialer_redials_fresh_connections() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            for _ in 0..2 {
                let (stream, _) = listener.accept().unwrap();
                let mut transport = TcpTransport::from_stream(stream).unwrap();
                let frame = transport.recv().unwrap();
                transport.send(&frame).unwrap();
            }
        });
        let dialer = TcpDialer::with_timeouts(addr, Duration::from_secs(5), Duration::from_secs(5));
        assert_eq!(dialer.describe(), addr.to_string());
        for payload in [vec![1u8], vec![2, 3]] {
            let mut conn = dialer.dial().unwrap();
            conn.send(&payload).unwrap();
            assert_eq!(conn.recv().unwrap(), payload);
        }
        server.join().unwrap();
    }

    #[test]
    fn closures_are_dialers() {
        let dialer = || {
            let (a, _b) = loopback_pair();
            // Leak the peer end deliberately: the test only needs a dial.
            std::mem::forget(_b);
            Ok(Box::new(a) as Box<dyn PirTransport>)
        };
        let conn = Dialer::dial(&dialer);
        assert!(conn.is_ok());
    }

    #[test]
    fn tcp_roundtrips_frames() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let mut transport = TcpTransport::from_stream(stream).unwrap();
            let frame = transport.recv().unwrap();
            transport.send(&frame).unwrap(); // echo
            assert_eq!(transport.recv(), Err(WireError::ConnectionClosed));
        });

        let mut client = TcpTransport::connect(addr).unwrap();
        client.send(&[7, 6, 5]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![7, 6, 5]);
        drop(client);
        server.join().unwrap();
    }
}
