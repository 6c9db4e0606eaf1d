//! `pir-wire` — the versioned wire protocol and transport-agnostic session
//! API of the PIR serving boundary.
//!
//! The paper's deployment is a real *service*: phone-class clients upload
//! DPF keys to two non-colluding GPU servers they do not share an address
//! space with. This crate makes that client↔server boundary an explicit,
//! versioned byte protocol:
//!
//! * **Envelope** ([`WireEnvelope`]): every frame is
//!   `magic ‖ version ‖ msg_type ‖ body_len ‖ body`; the protocol is
//!   version 2 and anything else is rejected with the supported range.
//! * **Canonical codecs** ([`codec`]): hand-rolled, deterministic binary
//!   encodings for [`ServerQuery`](pir_protocol::ServerQuery),
//!   [`PirResponse`](pir_protocol::PirResponse), catalog discovery, typed
//!   error/backpressure replies and the `UpdateEntry` admin message. The
//!   protocol crates' `size_bytes` accessors are defined as the lengths
//!   these encoders produce, so reported communication costs are wire-true.
//! * **Typed decode failures** ([`WireError`]): truncated, corrupted or
//!   wrong-version frames decode to errors, never panics — a server exposed
//!   to untrusted bytes answers garbage with a typed reply.
//! * **Transports** ([`PirTransport`]): blocking framed send/recv, with an
//!   in-process [`loopback_pair`] and a length-prefixed [`TcpTransport`].
//! * **Sessions** ([`PirSession`]): the client type. It holds two
//!   *independent* per-server connections, discovers table schemas from the
//!   servers' catalogs, uploads exactly one key projection per server and
//!   reconstructs rows from the two byte responses. The key pair never
//!   crosses the boundary — no message type can carry it.
//! * **The server connection loop** ([`serve_split`], [`answer_one`]): what
//!   a server does with a request is its `dispatch` closure, which keeps
//!   this crate free of any serving-policy dependencies.

#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented
)]
#![warn(missing_docs)]

pub mod codec;
pub mod envelope;
pub mod error;
pub mod messages;
pub mod serve;
pub mod session;
pub mod transport;

pub use envelope::{
    MsgType, WireEnvelope, ENVELOPE_HEADER_BYTES, MAX_SUPPORTED_VERSION, MIN_SUPPORTED_VERSION,
    PROTOCOL_V2, WIRE_MAGIC,
};
pub use error::{ErrorCode, WireError};
pub use messages::{
    decode_message, decode_request, encode_message, encode_message_v, Catalog, CatalogEntry,
    ErrorReply, QueryMsg, Request, ResponseMsg, UpdateAckMsg, UpdateEntryMsg, WireMessage,
};
pub use serve::{answer_one, serve_split, Replies};
pub use session::{CompletedQuery, ConnStats, PipelineStats, PirSession};
pub use transport::{
    loopback_pair, Dialer, LoopbackTransport, PirTransport, SplitTransport, TcpDialer,
    TcpTransport, MAX_FRAME_BYTES,
};
