//! The versioned envelope every frame travels in.
//!
//! ```text
//! offset  size  field
//! 0       2     magic  b"PW"
//! 2       2     version (u16 LE)
//! 4       1     msg_type
//! 5       4     body length (u32 LE)
//! 9       n     body
//! ```
//!
//! There is one body layout per message type — the protocol is version 2 —
//! but the envelope keeps its `version` field and the range check, so a
//! version 3 can be staged by widening the range. The rule is
//! *reject-with-supported-range*: a peer receiving a version outside
//! `MIN_SUPPORTED_VERSION..=MAX_SUPPORTED_VERSION` (today `2..=2`) answers
//! with an [`ErrorReply`](crate::messages::ErrorReply) carrying that range
//! (it cannot decode the body, so it cannot do anything cleverer), and the
//! sender learns what to speak from the typed
//! [`WireError::UnsupportedVersion`].

// The bytes decoded here come off the network: an out-of-range index
// would be a remote panic.
#![deny(clippy::indexing_slicing)]

use crate::codec::{WireReader, WireWriter};
use crate::error::WireError;

/// First two bytes of every frame.
pub const WIRE_MAGIC: [u8; 2] = *b"PW";

/// The protocol version: pipelined, multiplexed sessions. Query frames carry
/// client-assigned ids, servers may answer **out of order** as batches
/// complete, `Response` bodies carry a table-version stamp and `Error`
/// bodies carry the query id they answer (0 = connection-level). Every
/// frame, the `CatalogRequest` handshake included, travels under it.
pub const PROTOCOL_V2: u16 = 2;

/// Lowest version this implementation accepts.
pub const MIN_SUPPORTED_VERSION: u16 = PROTOCOL_V2;

/// Highest version this implementation accepts.
pub const MAX_SUPPORTED_VERSION: u16 = PROTOCOL_V2;

/// Bytes of envelope header before the body.
pub const ENVELOPE_HEADER_BYTES: usize = 2 + 2 + 1 + 4;

/// Message-type tags. Part of the wire format; never renumber within a
/// version.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum MsgType {
    /// Client asks a server to describe its hosted tables.
    CatalogRequest = 1,
    /// Server's catalog: protocol version, party, table schemas and PRFs.
    Catalog = 2,
    /// One server's projection of a PIR query.
    Query = 3,
    /// One server's answer share.
    Response = 4,
    /// Typed error / backpressure reply.
    Error = 5,
    /// Admin: overwrite one table entry (hot reload).
    UpdateEntry = 6,
    /// Acknowledgement of an applied update.
    UpdateAck = 7,
}

impl MsgType {
    /// Decode from the on-wire byte.
    #[must_use]
    pub fn from_u8(value: u8) -> Option<Self> {
        match value {
            1 => Some(Self::CatalogRequest),
            2 => Some(Self::Catalog),
            3 => Some(Self::Query),
            4 => Some(Self::Response),
            5 => Some(Self::Error),
            6 => Some(Self::UpdateEntry),
            7 => Some(Self::UpdateAck),
            _ => None,
        }
    }

    /// Human-readable name for diagnostics.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::CatalogRequest => "CatalogRequest",
            Self::Catalog => "Catalog",
            Self::Query => "Query",
            Self::Response => "Response",
            Self::Error => "Error",
            Self::UpdateEntry => "UpdateEntry",
            Self::UpdateAck => "UpdateAck",
        }
    }
}

/// A decoded envelope: version, message type and the still-encoded body.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireEnvelope {
    /// Protocol version the frame was encoded under.
    pub version: u16,
    /// What the body contains.
    pub msg_type: MsgType,
    /// The encoded message body.
    pub body: Vec<u8>,
}

impl WireEnvelope {
    /// Wrap a body under [`PROTOCOL_V2`].
    #[must_use]
    pub fn new(msg_type: MsgType, body: Vec<u8>) -> Self {
        Self {
            version: PROTOCOL_V2,
            msg_type,
            body,
        }
    }

    /// Encode the full frame (header + body).
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut writer = WireWriter::with_capacity(ENVELOPE_HEADER_BYTES + self.body.len());
        writer.put_raw(&WIRE_MAGIC);
        writer.put_u16(self.version);
        writer.put_u8(self.msg_type as u8);
        writer.put_u32(self.body.len() as u32);
        writer.put_raw(&self.body);
        writer.into_bytes()
    }

    /// Decode a frame into an envelope, enforcing magic, version range and
    /// exact body length.
    ///
    /// # Errors
    ///
    /// * [`WireError::Truncated`] — shorter than the header or body.
    /// * [`WireError::BadMagic`] — wrong leading bytes.
    /// * [`WireError::UnsupportedVersion`] — version outside the supported
    ///   range (carries the range, per the reject-with-supported-range rule).
    /// * [`WireError::UnknownMsgType`] — unrecognized type byte.
    /// * [`WireError::BodyLength`] — declared length disagrees with frame.
    pub fn decode(frame: &[u8]) -> Result<Self, WireError> {
        let mut reader = WireReader::new(frame);
        let magic: [u8; 2] = reader.take_array()?;
        if magic != WIRE_MAGIC {
            return Err(WireError::BadMagic(magic));
        }
        let version = reader.u16()?;
        if !(MIN_SUPPORTED_VERSION..=MAX_SUPPORTED_VERSION).contains(&version) {
            return Err(WireError::UnsupportedVersion {
                got: version,
                min: MIN_SUPPORTED_VERSION,
                max: MAX_SUPPORTED_VERSION,
            });
        }
        let type_byte = reader.u8()?;
        let msg_type = MsgType::from_u8(type_byte).ok_or(WireError::UnknownMsgType(type_byte))?;
        let declared = reader.u32()? as usize;
        let actual = reader.remaining();
        if declared != actual {
            return Err(WireError::BodyLength { declared, actual });
        }
        let body = reader.take(declared)?.to_vec();
        Ok(Self {
            version,
            msg_type,
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_roundtrips() {
        let envelope = WireEnvelope::new(MsgType::Query, vec![1, 2, 3]);
        let frame = envelope.encode();
        assert_eq!(frame.len(), ENVELOPE_HEADER_BYTES + 3);
        let decoded = WireEnvelope::decode(&frame).unwrap();
        assert_eq!(decoded.version, PROTOCOL_V2);
        assert_eq!(decoded, envelope);
        assert_eq!(decoded.encode(), frame);
    }

    #[test]
    fn version_outside_range_carries_the_supported_range() {
        assert_eq!((MIN_SUPPORTED_VERSION, MAX_SUPPORTED_VERSION), (2, 2));
        // The retired version 1 and a future version alike.
        for version in [1u8, 9] {
            let mut frame = WireEnvelope::new(MsgType::CatalogRequest, Vec::new()).encode();
            frame[2] = version; // version low byte
            assert_eq!(
                WireEnvelope::decode(&frame),
                Err(WireError::UnsupportedVersion {
                    got: u16::from(version),
                    min: MIN_SUPPORTED_VERSION,
                    max: MAX_SUPPORTED_VERSION,
                })
            );
        }
    }

    #[test]
    fn bad_magic_unknown_type_and_length_mismatch_are_typed() {
        let good = WireEnvelope::new(MsgType::Response, vec![7; 4]).encode();

        let mut bad = good.clone();
        bad[0] = b'X';
        assert!(matches!(
            WireEnvelope::decode(&bad),
            Err(WireError::BadMagic(_))
        ));

        let mut bad = good.clone();
        bad[4] = 200;
        assert_eq!(
            WireEnvelope::decode(&bad),
            Err(WireError::UnknownMsgType(200))
        );

        let mut bad = good.clone();
        bad[5] = 99; // declared body length
        assert!(matches!(
            WireEnvelope::decode(&bad),
            Err(WireError::BodyLength { .. })
        ));

        assert!(matches!(
            WireEnvelope::decode(&good[..6]),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn every_msg_type_byte_roundtrips() {
        for t in [
            MsgType::CatalogRequest,
            MsgType::Catalog,
            MsgType::Query,
            MsgType::Response,
            MsgType::Error,
            MsgType::UpdateEntry,
            MsgType::UpdateAck,
        ] {
            assert_eq!(MsgType::from_u8(t as u8), Some(t));
            assert!(!t.name().is_empty());
        }
        assert_eq!(MsgType::from_u8(0), None);
        assert_eq!(MsgType::from_u8(77), None);
    }
}
