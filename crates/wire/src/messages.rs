//! The protocol's message set and its frame-level encode/decode entry
//! points.
//!
//! Everything that crosses the client↔server trust boundary is one of the
//! [`WireMessage`] variants below, wrapped in a [`WireEnvelope`]. Note what
//! is *not* here: there is no message carrying both DPF keys. The paired
//! [`PirQuery`](pir_protocol::PirQuery) never leaves the client — each
//! server only ever receives its own [`ServerQuery`] projection.

// The bytes decoded here come off the network: an out-of-range index
// would be a remote panic.
#![deny(clippy::indexing_slicing)]

use pir_prf::PrfKind;
use pir_protocol::{PirResponse, ServerQuery, TableSchema};

use crate::codec::{
    decode_prf_kind, decode_response, decode_schema, decode_server_query, encode_prf_kind,
    encode_response, encode_schema, encode_server_query, WireReader, WireWriter,
};
use crate::envelope::{
    MsgType, WireEnvelope, MAX_SUPPORTED_VERSION, MIN_SUPPORTED_VERSION, PROTOCOL_V2,
};
use crate::error::{ErrorCode, WireError};

/// One table a server advertises in its catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CatalogEntry {
    /// Registered table name.
    pub name: String,
    /// Table shape queries must be generated for.
    pub schema: TableSchema,
    /// PRF family the table's servers evaluate (must match key generation).
    pub prf_kind: PrfKind,
}

/// A server's self-description: protocol version, which non-colluding party
/// it is, and the tables it hosts.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Catalog {
    /// Highest protocol version the server speaks.
    pub protocol_version: u16,
    /// The party (0 or 1) this server answers for.
    pub party: u8,
    /// Hosted tables, sorted by name.
    pub tables: Vec<CatalogEntry>,
}

/// A client query frame: routing fields plus one server's key projection.
/// It carries key material, so it has no `PartialEq`: compare two by their
/// encodings.
#[derive(Clone, Debug)]
pub struct QueryMsg {
    /// Which hosted table to read.
    pub table: String,
    /// Tenant the query is accounted against (quotas, telemetry).
    pub tenant: String,
    /// This server's projection of the query (schema + ONE key).
    pub query: ServerQuery,
}

/// One server's answer share, with its table-version stamp.
///
/// Each party counts the hot reloads it has applied to the table (starting
/// at 1), and every share is stamped with the version it was computed
/// against. A client holding two shares whose stamps differ knows the query
/// straddled a reload — the shares would reconstruct garbage — and retries
/// instead. Every `Response` frame carries the stamp; 0 has no reserved
/// meaning on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ResponseMsg {
    /// The answer share (query id, party, lanes).
    pub response: PirResponse,
    /// Table version the share was computed against (a cluster router
    /// stamps a digest of its shards' versions instead).
    pub table_version: u64,
}

/// An admin frame overwriting one table entry (hot reload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateEntryMsg {
    /// Which hosted table to update.
    pub table: String,
    /// Row to overwrite.
    pub index: u64,
    /// New row value; must match the schema's entry width exactly.
    pub bytes: Vec<u8>,
}

/// Acknowledgement that an update was applied to every replica.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UpdateAckMsg {
    /// Echoed table name.
    pub table: String,
    /// Echoed row index.
    pub index: u64,
}

/// A typed error / backpressure reply.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ErrorReply {
    /// Machine-readable category.
    pub code: ErrorCode,
    /// Whether this is a load-shedding signal (retry later) rather than a
    /// hard failure.
    pub shed: bool,
    /// For [`ErrorCode::UnsupportedVersion`]: the lowest version the server
    /// accepts. Zero otherwise.
    pub min_version: u16,
    /// For [`ErrorCode::UnsupportedVersion`]: the highest version the
    /// server accepts. Zero otherwise.
    pub max_version: u16,
    /// The query this error answers, so a pipelined client can attribute it
    /// (0 = connection-level error: a rejected or malformed frame, a failed
    /// update).
    pub query_id: u64,
    /// Human-readable detail, at most [`Self::MAX_DETAIL_BYTES`] (plus a
    /// truncation marker) when built by [`Self::new`].
    pub message: String,
}

impl ErrorReply {
    /// Longest detail string a server-built reply carries.
    ///
    /// Details can echo client-supplied strings (table and tenant names),
    /// and the canonical encoding caps strings at `u16::MAX` bytes —
    /// bounding the echo keeps a hostile 64 KiB table name from ever pushing
    /// a reply past what `put_string` can encode (which would panic the
    /// serve thread) and keeps error frames small.
    pub const MAX_DETAIL_BYTES: usize = 512;

    /// The reply a server sends for `code`, attributed to `query_id`
    /// (0 = connection-level), its detail truncated on a char boundary to
    /// [`Self::MAX_DETAIL_BYTES`]. Flagged `shed` exactly for
    /// [`ErrorCode::Shed`].
    #[must_use]
    pub fn new(code: ErrorCode, query_id: u64, detail: impl Into<String>) -> Self {
        let mut message = detail.into();
        if message.len() > Self::MAX_DETAIL_BYTES {
            let mut cut = Self::MAX_DETAIL_BYTES;
            while !message.is_char_boundary(cut) {
                cut -= 1;
            }
            message.truncate(cut);
            message.push_str("... (truncated)");
        }
        Self {
            code,
            shed: code == ErrorCode::Shed,
            min_version: 0,
            max_version: 0,
            query_id,
            message,
        }
    }

    /// The reply a server sends when a frame's version is outside its
    /// supported range (the reject-with-supported-range rule).
    #[must_use]
    pub fn unsupported_version(got: u16) -> Self {
        Self {
            min_version: MIN_SUPPORTED_VERSION,
            max_version: MAX_SUPPORTED_VERSION,
            ..Self::new(
                ErrorCode::UnsupportedVersion,
                0,
                format!("version {got} is not supported"),
            )
        }
    }

    /// Convert into the typed client-side error.
    #[must_use]
    pub fn into_wire_error(self) -> WireError {
        if self.code == ErrorCode::UnsupportedVersion {
            // `got` is the version *we* spoke — the peer rejected it and
            // told us its supported range.
            return WireError::UnsupportedVersion {
                got: PROTOCOL_V2,
                min: self.min_version,
                max: self.max_version,
            };
        }
        WireError::Remote {
            code: self.code,
            shed: self.shed,
            message: self.message,
        }
    }
}

impl From<ErrorReply> for WireMessage {
    fn from(reply: ErrorReply) -> Self {
        Self::Error(reply)
    }
}

/// Every message that can cross the wire. A `Query` carries key material,
/// so messages compare by their canonical encodings, not by `PartialEq`.
#[derive(Clone, Debug)]
pub enum WireMessage {
    /// Client → server: describe your tables.
    CatalogRequest,
    /// Server → client: the catalog.
    Catalog(Catalog),
    /// Client → server: one key projection of a query.
    Query(QueryMsg),
    /// Server → client: one stamped answer share.
    Response(ResponseMsg),
    /// Server → client: typed error / backpressure.
    Error(ErrorReply),
    /// Admin → server: overwrite one entry.
    UpdateEntry(UpdateEntryMsg),
    /// Server → admin: update applied.
    UpdateAck(UpdateAckMsg),
}

impl WireMessage {
    /// The envelope tag this message travels under.
    #[must_use]
    pub fn msg_type(&self) -> MsgType {
        match self {
            Self::CatalogRequest => MsgType::CatalogRequest,
            Self::Catalog(_) => MsgType::Catalog,
            Self::Query(_) => MsgType::Query,
            Self::Response(_) => MsgType::Response,
            Self::Error(_) => MsgType::Error,
            Self::UpdateEntry(_) => MsgType::UpdateEntry,
            Self::UpdateAck(_) => MsgType::UpdateAck,
        }
    }

    /// Human-readable message name for diagnostics.
    #[must_use]
    pub fn name(&self) -> &'static str {
        self.msg_type().name()
    }
}

/// [`encode_message`] with the protocol version spelled out by the caller —
/// for call sites that want the version they measure or test on the page.
///
/// # Panics
///
/// Panics if `version` is outside the supported range (there is one body
/// layout, so the only encodable version is [`PROTOCOL_V2`]): the version is
/// chosen by the caller's code, never by untrusted input.
#[must_use]
pub fn encode_message_v(message: &WireMessage, version: u16) -> Vec<u8> {
    assert!(
        (MIN_SUPPORTED_VERSION..=MAX_SUPPORTED_VERSION).contains(&version),
        "cannot encode under unsupported version {version}"
    );
    encode_message(message)
}

/// Encode a message into a complete [`PROTOCOL_V2`] frame.
#[must_use]
pub fn encode_message(message: &WireMessage) -> Vec<u8> {
    let mut body = WireWriter::new();
    match message {
        WireMessage::CatalogRequest => {}
        WireMessage::Catalog(catalog) => {
            body.put_u16(catalog.protocol_version);
            body.put_u8(catalog.party);
            body.put_u32(catalog.tables.len() as u32);
            for entry in &catalog.tables {
                body.put_string(&entry.name);
                encode_schema(entry.schema, &mut body);
                body.put_u8(encode_prf_kind(entry.prf_kind));
            }
        }
        WireMessage::Query(query) => {
            body.put_string(&query.table);
            body.put_string(&query.tenant);
            encode_server_query(&query.query, &mut body);
        }
        WireMessage::Response(response) => {
            encode_response(&response.response, &mut body);
            body.put_u64(response.table_version);
        }
        WireMessage::Error(error) => {
            body.put_u8(error.code as u8);
            body.put_bool(error.shed);
            body.put_u16(error.min_version);
            body.put_u16(error.max_version);
            body.put_string(&error.message);
            body.put_u64(error.query_id);
        }
        WireMessage::UpdateEntry(update) => {
            body.put_string(&update.table);
            body.put_u64(update.index);
            body.put_bytes(&update.bytes);
        }
        WireMessage::UpdateAck(ack) => {
            body.put_string(&ack.table);
            body.put_u64(ack.index);
        }
    }
    WireEnvelope::new(message.msg_type(), body.into_bytes()).encode()
}

/// Decode a complete frame into a message.
///
/// # Errors
///
/// Returns the appropriate [`WireError`] for any malformed, truncated,
/// wrong-version or trailing-garbage frame; this function never panics on
/// untrusted input.
pub fn decode_message(frame: &[u8]) -> Result<WireMessage, WireError> {
    let envelope = WireEnvelope::decode(frame)?;
    let mut reader = WireReader::new(&envelope.body);
    let message = match envelope.msg_type {
        MsgType::CatalogRequest => WireMessage::CatalogRequest,
        MsgType::Catalog => {
            let protocol_version = reader.u16()?;
            let party = reader.u8()?;
            if party > 1 {
                return Err(WireError::InvalidValue("catalog party must be 0 or 1"));
            }
            let count = reader.u32()? as usize;
            let mut tables = Vec::new();
            for _ in 0..count {
                let name = reader.string()?;
                let schema = decode_schema(&mut reader)?;
                let prf_kind = decode_prf_kind(reader.u8()?)?;
                tables.push(CatalogEntry {
                    name,
                    schema,
                    prf_kind,
                });
            }
            WireMessage::Catalog(Catalog {
                protocol_version,
                party,
                tables,
            })
        }
        MsgType::Query => {
            let table = reader.string()?;
            let tenant = reader.string()?;
            let query = decode_server_query(&mut reader)?;
            WireMessage::Query(QueryMsg {
                table,
                tenant,
                query,
            })
        }
        MsgType::Response => {
            let response = decode_response(&mut reader)?;
            let table_version = reader.u64()?;
            WireMessage::Response(ResponseMsg {
                response,
                table_version,
            })
        }
        MsgType::Error => {
            let code_byte = reader.u8()?;
            let code = ErrorCode::from_u8(code_byte)
                .ok_or(WireError::InvalidValue("unknown error code byte"))?;
            let shed = reader.bool()?;
            let min_version = reader.u16()?;
            let max_version = reader.u16()?;
            let message = reader.string()?;
            let query_id = reader.u64()?;
            WireMessage::Error(ErrorReply {
                code,
                shed,
                min_version,
                max_version,
                query_id,
                message,
            })
        }
        MsgType::UpdateEntry => {
            let table = reader.string()?;
            let index = reader.u64()?;
            let bytes = reader.bytes()?;
            WireMessage::UpdateEntry(UpdateEntryMsg {
                table,
                index,
                bytes,
            })
        }
        MsgType::UpdateAck => {
            let table = reader.string()?;
            let index = reader.u64()?;
            WireMessage::UpdateAck(UpdateAckMsg { table, index })
        }
    };
    reader.finish()?;
    Ok(message)
}

/// A message a client may send a server: the three a server accepts.
#[derive(Clone, Debug)]
pub enum Request {
    /// Describe your tables.
    CatalogRequest,
    /// One key projection of a query.
    Query(QueryMsg),
    /// Overwrite one entry (admin).
    UpdateEntry(UpdateEntryMsg),
}

/// Decode a frame a server received from an untrusted peer, mapping every
/// failure onto the connection-level [`ErrorReply`] to send back: a version
/// outside the supported range is rejected with that range (the
/// reject-with-supported-range rule), a server→client message is
/// [`ErrorCode::InvalidRequest`], and anything else undecodable is
/// [`ErrorCode::Malformed`].
///
/// # Errors
///
/// The reply to encode and send instead of serving the frame.
pub fn decode_request(frame: &[u8]) -> Result<Request, ErrorReply> {
    let message = decode_message(frame).map_err(|err| match err {
        WireError::UnsupportedVersion { got, .. } => ErrorReply::unsupported_version(got),
        err => ErrorReply::new(ErrorCode::Malformed, 0, err.to_string()),
    })?;
    match message {
        WireMessage::CatalogRequest => Ok(Request::CatalogRequest),
        WireMessage::Query(query) => Ok(Request::Query(query)),
        WireMessage::UpdateEntry(update) => Ok(Request::UpdateEntry(update)),
        other => Err(ErrorReply::new(
            ErrorCode::InvalidRequest,
            0,
            format!("a server cannot accept a {} message", other.name()),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_dpf::{generate_keys, DpfParams};
    use pir_field::Ring128;
    use pir_prf::{build_prf, GgmPrg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_messages() -> Vec<WireMessage> {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(5);
        let params = DpfParams::for_domain(4096);
        let (key0, _) = generate_keys(&prg, &params, 17, Ring128::ONE, &mut rng);
        vec![
            WireMessage::CatalogRequest,
            WireMessage::Catalog(Catalog {
                protocol_version: PROTOCOL_V2,
                party: 1,
                tables: vec![
                    CatalogEntry {
                        name: "embeddings".into(),
                        schema: TableSchema::new(4096, 64),
                        prf_kind: PrfKind::Chacha20,
                    },
                    CatalogEntry {
                        name: "users".into(),
                        schema: TableSchema::new(100, 8),
                        prf_kind: PrfKind::SipHash,
                    },
                ],
            }),
            WireMessage::Query(QueryMsg {
                table: "embeddings".into(),
                tenant: "tenant-a".into(),
                query: ServerQuery {
                    query_id: 12,
                    schema: TableSchema::new(4096, 64),
                    key: key0,
                },
            }),
            WireMessage::Response(ResponseMsg {
                response: PirResponse {
                    query_id: 12,
                    party: 0,
                    share: vec![1, 2, 3, 4],
                },
                table_version: 41,
            }),
            WireMessage::Error(ErrorReply::new(ErrorCode::Shed, 77, "queue full")),
            WireMessage::UpdateEntry(UpdateEntryMsg {
                table: "users".into(),
                index: 3,
                bytes: vec![9; 8],
            }),
            WireMessage::UpdateAck(UpdateAckMsg {
                table: "users".into(),
                index: 3,
            }),
        ]
    }

    #[test]
    fn every_message_roundtrips() {
        for message in sample_messages() {
            let frame = encode_message(&message);
            let decoded = decode_message(&frame).unwrap();
            // Queries carry keys, which have no `==`: the decoded message
            // must re-encode to the very frame it came from.
            assert_eq!(encode_message(&decoded), frame, "{}", message.name());
        }
    }

    #[test]
    fn undecodable_requests_map_to_typed_replies() {
        let mut frame = encode_message(&WireMessage::CatalogRequest);
        assert!(matches!(
            decode_request(&frame),
            Ok(Request::CatalogRequest)
        ));
        frame[2] = 1; // the retired version 1
        let reply = decode_request(&frame).unwrap_err();
        assert_eq!(reply, ErrorReply::unsupported_version(1));
        let reply = decode_request(b"XX").unwrap_err();
        assert_eq!(reply.code, ErrorCode::Malformed);
        assert_eq!((reply.min_version, reply.max_version), (0, 0));
        // Every server→client message is refused, and every client→server
        // one decodes.
        for message in sample_messages() {
            let outcome = decode_request(&encode_message(&message));
            match message {
                WireMessage::CatalogRequest
                | WireMessage::Query(_)
                | WireMessage::UpdateEntry(_) => assert!(outcome.is_ok(), "{}", message.name()),
                WireMessage::Catalog(_)
                | WireMessage::Response(_)
                | WireMessage::Error(_)
                | WireMessage::UpdateAck(_) => {
                    let reply = outcome.unwrap_err();
                    assert_eq!(reply.code, ErrorCode::InvalidRequest, "{}", message.name());
                    assert!(reply.message.contains(message.name()), "{}", reply.message);
                }
            }
        }
    }

    #[test]
    fn server_built_replies_bound_their_detail_and_flag_sheds() {
        let reply = ErrorReply::new(ErrorCode::UnknownTable, 9, "€".repeat(30_000));
        assert!(reply.message.len() <= ErrorReply::MAX_DETAIL_BYTES + 32);
        assert!(reply.message.ends_with("(truncated)"));
        assert!(!reply.shed);
        assert_eq!(reply.query_id, 9);
        let reply = ErrorReply::new(ErrorCode::Shed, 0, "queue full");
        assert_eq!(reply.message, "queue full");
        assert!(reply.shed);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut frame = encode_message(&WireMessage::CatalogRequest);
        // Append garbage and fix up the declared body length so the envelope
        // itself stays valid — the *message* decoder must reject it.
        frame.push(0xAB);
        let body_len = (frame.len() - 9) as u32;
        frame[5..9].copy_from_slice(&body_len.to_le_bytes());
        assert_eq!(
            decode_message(&frame).unwrap_err(),
            WireError::TrailingBytes { remaining: 1 }
        );
    }

    #[test]
    fn unsupported_version_reply_carries_range() {
        let reply = ErrorReply::unsupported_version(99);
        assert_eq!(reply.min_version, MIN_SUPPORTED_VERSION);
        assert_eq!(reply.max_version, MAX_SUPPORTED_VERSION);
        assert!(matches!(
            reply.into_wire_error(),
            WireError::UnsupportedVersion {
                got: PROTOCOL_V2,
                ..
            }
        ));
    }

    #[test]
    fn query_frames_carry_exactly_one_key() {
        // The trust-boundary property at the message level: a Query frame
        // encodes one ServerQuery, and there is no message type that could
        // carry a key pair.
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(6);
        let params = DpfParams::for_domain(1024);
        let (key0, key1) = generate_keys(&prg, &params, 5, Ring128::ONE, &mut rng);
        let frame = encode_message(&WireMessage::Query(QueryMsg {
            table: "t".into(),
            tenant: "a".into(),
            query: ServerQuery {
                query_id: 1,
                schema: TableSchema::new(1024, 16),
                key: key0.clone(),
            },
        }));
        #[expect(
            clippy::disallowed_methods,
            reason = "the test looks for each root seed's bytes in the frame"
        )]
        let (needle0, needle1) = (
            key0.root_seed.expose().to_le_bytes(),
            key1.root_seed.expose().to_le_bytes(),
        );
        let contains = |hay: &[u8], needle: &[u8]| hay.windows(needle.len()).any(|w| w == needle);
        assert!(contains(&frame, &needle0));
        assert!(!contains(&frame, &needle1));
    }
}
