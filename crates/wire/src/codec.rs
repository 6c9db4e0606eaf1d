//! Hand-rolled deterministic binary codecs for the protocol bodies.
//!
//! All integers are little-endian. Every record has exactly one canonical
//! encoding: flag bytes must be `0`/`1`, reserved bits must be zero, string
//! and vector lengths are explicit, and decoders reject anything else with a
//! typed [`WireError`] instead of guessing. That determinism is what lets
//! the rest of the workspace report *wire-true* communication costs —
//! [`ServerQuery::size_bytes`] and [`PirResponse::size_bytes`] are defined
//! as the exact lengths these encoders produce, and tests assert the two
//! never drift.

// The bytes decoded here come off the network: an out-of-range index
// would be a remote panic.
#![deny(clippy::indexing_slicing)]

use pir_dpf::{DpfKey, DpfParams, LevelCorrection};
use pir_field::{Block128, Ring128, Secret};
use pir_prf::PrfKind;
use pir_protocol::{PirResponse, ServerQuery, TableSchema};

use crate::error::WireError;

/// Longest string (table / tenant names) the canonical encoding carries.
pub const MAX_STRING_BYTES: usize = u16::MAX as usize;

/// Append-only writer for the canonical encoding.
#[derive(Debug, Default)]
pub struct WireWriter {
    bytes: Vec<u8>,
}

impl WireWriter {
    /// Start an empty writer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Start a writer with `capacity` bytes preallocated.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            bytes: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Finish and take the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Write one byte.
    pub fn put_u8(&mut self, value: u8) {
        self.bytes.push(value);
    }

    /// Write a little-endian `u16`.
    pub fn put_u16(&mut self, value: u16) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Write a little-endian `u32`.
    pub fn put_u32(&mut self, value: u32) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Write a little-endian `u64`.
    pub fn put_u64(&mut self, value: u64) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Write a little-endian `u128`.
    pub fn put_u128(&mut self, value: u128) {
        self.bytes.extend_from_slice(&value.to_le_bytes());
    }

    /// Write a strict boolean (`0` or `1`).
    pub fn put_bool(&mut self, value: bool) {
        self.bytes.push(u8::from(value));
    }

    /// Write raw bytes with no length prefix.
    pub fn put_raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// Write a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Panics
    ///
    /// Panics if the string exceeds [`MAX_STRING_BYTES`]; names crossing the
    /// wire are bounded well below that.
    pub fn put_string(&mut self, value: &str) {
        assert!(value.len() <= MAX_STRING_BYTES, "string too long for wire");
        self.put_u16(value.len() as u16);
        self.bytes.extend_from_slice(value.as_bytes());
    }

    /// Write a `u32`-length-prefixed byte blob.
    pub fn put_bytes(&mut self, value: &[u8]) {
        self.put_u32(value.len() as u32);
        self.bytes.extend_from_slice(value);
    }
}

/// Cursor over a received frame; every read is bounds-checked.
#[derive(Debug)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Read from the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Take `len` raw bytes.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], WireError> {
        let slice = self
            .bytes
            .get(self.pos..self.pos.saturating_add(len))
            .ok_or(WireError::Truncated {
                needed: len,
                available: self.remaining(),
            })?;
        self.pos += len;
        Ok(slice)
    }

    /// Take exactly `N` bytes as a fixed-size array.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if fewer than `N` bytes remain.
    pub fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        self.take(N)?.try_into().map_err(|_| WireError::Truncated {
            needed: N,
            available: 0,
        })
    }

    /// Read one byte.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of frame.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let [byte] = self.take_array::<1>()?;
        Ok(byte)
    }

    /// Read a little-endian `u16`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of frame.
    pub fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of frame.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of frame.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Read a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] at end of frame.
    pub fn u128(&mut self) -> Result<u128, WireError> {
        Ok(u128::from_le_bytes(self.take_array()?))
    }

    /// Read a strict boolean byte (`0` or `1`).
    ///
    /// # Errors
    ///
    /// Returns [`WireError::InvalidValue`] for any other byte.
    pub fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::InvalidValue("boolean byte must be 0 or 1")),
        }
    }

    /// Read a `u16`-length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] / [`WireError::InvalidValue`] on
    /// short or non-UTF-8 payloads.
    pub fn string(&mut self) -> Result<String, WireError> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| WireError::InvalidValue("string is not UTF-8"))
    }

    /// Read a `u32`-length-prefixed byte blob.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Truncated`] if the declared length overruns the
    /// frame (checked before any allocation).
    pub fn bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Assert the frame is fully consumed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] otherwise — a canonical message
    /// is exactly as long as its fields.
    pub fn finish(self) -> Result<(), WireError> {
        if self.remaining() != 0 {
            return Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            });
        }
        Ok(())
    }
}

/// Encode a [`PrfKind`] as its stable wire byte: its discriminant (0 AES-128,
/// 2 ChaCha20, 3 SipHash).
#[must_use]
pub fn encode_prf_kind(kind: PrfKind) -> u8 {
    kind as u8
}

/// Decode a [`PrfKind`] from its wire byte.
///
/// # Errors
///
/// Returns [`WireError::InvalidValue`] for unknown bytes, including the
/// retired 1 (SHA-256) and 4 (HighwayHash): those PRFs are modelled in
/// Table 5 but not executed, and their bytes are never reused.
pub fn decode_prf_kind(value: u8) -> Result<PrfKind, WireError> {
    match value {
        0 => Ok(PrfKind::Aes128),
        2 => Ok(PrfKind::Chacha20),
        3 => Ok(PrfKind::SipHash),
        _ => Err(WireError::InvalidValue("unknown PRF kind byte")),
    }
}

/// Encode a [`TableSchema`]: 8-byte entry count, 4-byte entry width.
pub fn encode_schema(schema: TableSchema, writer: &mut WireWriter) {
    writer.put_u64(schema.entries);
    writer.put_u32(schema.entry_bytes as u32);
}

/// Decode a [`TableSchema`].
///
/// # Errors
///
/// Returns [`WireError::InvalidValue`] for zero-sized dimensions (which the
/// in-memory type forbids with panics — decoders must never panic).
pub fn decode_schema(reader: &mut WireReader<'_>) -> Result<TableSchema, WireError> {
    let entries = reader.u64()?;
    let entry_bytes = reader.u32()? as usize;
    if entries == 0 {
        return Err(WireError::InvalidValue("schema with zero entries"));
    }
    if entry_bytes == 0 {
        return Err(WireError::InvalidValue("schema with zero-byte entries"));
    }
    Ok(TableSchema {
        entries,
        entry_bytes,
    })
}

/// `DpfKey` header byte: party in bit 7, tree depth in bits 0..=6.
const KEY_PARTY_BIT: u8 = 0x80;
const KEY_DEPTH_MASK: u8 = 0x7F;
/// `LevelCorrection` flag byte: `t_left` in bit 0, `t_right` in bit 1.
const CW_T_LEFT: u8 = 0x01;
const CW_T_RIGHT: u8 = 0x02;

/// Encode a [`DpfKey`] in its canonical `DpfKey::size_bytes()` layout:
/// 1 header byte (party bit + depth), 16-byte root seed, 17 bytes per level
/// (seed correction + flag byte), 16-byte final correction word.
///
/// The domain *size* is not part of the key record — it travels in the
/// enclosing [`ServerQuery`]'s schema, and the depth is re-derived from it
/// on decode.
#[expect(
    clippy::disallowed_methods,
    reason = "the key's canonical encoding: its bytes are what the client uploads"
)]
pub fn encode_dpf_key(key: &DpfKey, writer: &mut WireWriter) {
    debug_assert_eq!(
        key.levels.len(),
        key.params.domain_bits as usize,
        "key has one correction word per level"
    );
    debug_assert!(key.params.domain_bits <= u32::from(KEY_DEPTH_MASK));
    writer.put_u8((key.party & 1) << 7 | (key.params.domain_bits as u8 & KEY_DEPTH_MASK));
    writer.put_u128(key.root_seed.expose().as_u128());
    for level in &key.levels {
        writer.put_u128(level.seed.expose().as_u128());
        let t_left = u8::from(level.t_left.expose()) * CW_T_LEFT;
        let t_right = u8::from(level.t_right.expose()) * CW_T_RIGHT;
        writer.put_u8(t_left | t_right);
    }
    writer.put_u128(key.final_cw.expose().value());
}

/// Decode a [`DpfKey`] for a table of `domain_size` entries.
///
/// # Errors
///
/// Returns [`WireError::InvalidValue`] if the header depth disagrees with
/// `domain_size` (a key that could never match the table it claims to
/// query) or a correction-word flag byte has reserved bits set, and
/// [`WireError::Truncated`] on short frames.
pub fn decode_dpf_key(reader: &mut WireReader<'_>, domain_size: u64) -> Result<DpfKey, WireError> {
    let header = reader.u8()?;
    let party = u8::from(header & KEY_PARTY_BIT != 0);
    let depth = u32::from(header & KEY_DEPTH_MASK);
    let params = DpfParams::for_domain(domain_size);
    if params.domain_bits != depth {
        return Err(WireError::InvalidValue("key depth does not match schema"));
    }
    let root_seed = Secret::new(Block128::from_u128(reader.u128()?));
    let mut levels = Vec::with_capacity(depth as usize);
    for _ in 0..depth {
        let seed = Secret::new(Block128::from_u128(reader.u128()?));
        let flags = reader.u8()?;
        if flags & !(CW_T_LEFT | CW_T_RIGHT) != 0 {
            return Err(WireError::InvalidValue(
                "correction-word flag byte has reserved bits set",
            ));
        }
        levels.push(LevelCorrection {
            seed,
            t_left: Secret::new(flags & CW_T_LEFT != 0),
            t_right: Secret::new(flags & CW_T_RIGHT != 0),
        });
    }
    let final_cw = Secret::new(Ring128::new(reader.u128()?));
    Ok(DpfKey {
        party,
        params,
        root_seed,
        levels,
        final_cw,
    })
}

/// Encode a [`ServerQuery`] record: 8-byte query id, schema, DPF key.
///
/// Produces exactly [`ServerQuery::size_bytes`] bytes.
pub fn encode_server_query(query: &ServerQuery, writer: &mut WireWriter) {
    writer.put_u64(query.query_id);
    encode_schema(query.schema, writer);
    encode_dpf_key(&query.key, writer);
}

/// Decode a [`ServerQuery`] record.
///
/// # Errors
///
/// Propagates schema and key decode failures.
pub fn decode_server_query(reader: &mut WireReader<'_>) -> Result<ServerQuery, WireError> {
    let query_id = reader.u64()?;
    let schema = decode_schema(reader)?;
    let key = decode_dpf_key(reader, schema.entries)?;
    Ok(ServerQuery {
        query_id,
        schema,
        key,
    })
}

/// Encode a [`PirResponse`] record: 8-byte query id, 1-byte party, 4-byte
/// lane count, then the lanes.
///
/// Produces exactly [`PirResponse::size_bytes`] bytes.
pub fn encode_response(response: &PirResponse, writer: &mut WireWriter) {
    writer.put_u64(response.query_id);
    writer.put_u8(response.party);
    writer.put_u32(response.share.len() as u32);
    for lane in &response.share {
        writer.put_u32(*lane);
    }
}

/// Decode a [`PirResponse`] record.
///
/// # Errors
///
/// Returns [`WireError::InvalidValue`] for a party byte other than 0/1 and
/// [`WireError::Truncated`] if the declared lane count overruns the frame
/// (checked before any allocation).
pub fn decode_response(reader: &mut WireReader<'_>) -> Result<PirResponse, WireError> {
    let query_id = reader.u64()?;
    let party = reader.u8()?;
    if party > 1 {
        return Err(WireError::InvalidValue("response party must be 0 or 1"));
    }
    let lanes = reader.u32()? as usize;
    if lanes.saturating_mul(4) > reader.remaining() {
        return Err(WireError::Truncated {
            needed: lanes.saturating_mul(4),
            available: reader.remaining(),
        });
    }
    let mut share = Vec::with_capacity(lanes);
    for _ in 0..lanes {
        share.push(reader.u32()?);
    }
    Ok(PirResponse {
        query_id,
        party,
        share,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pir_dpf::generate_keys;
    use pir_prf::{build_prf, GgmPrg};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn sample_query(seed: u64, entries: u64) -> ServerQuery {
        let prg = GgmPrg::new(build_prf(PrfKind::SipHash));
        let mut rng = StdRng::seed_from_u64(seed);
        let params = DpfParams::for_domain(entries);
        let (key0, _key1) = generate_keys(&prg, &params, seed % entries, Ring128::ONE, &mut rng);
        ServerQuery {
            query_id: seed.wrapping_mul(77),
            schema: TableSchema::new(entries, 24),
            key: key0,
        }
    }

    #[test]
    fn server_query_roundtrips_and_size_is_wire_true() {
        for entries in [1u64, 2, 3, 1000, 1 << 16] {
            let query = sample_query(9, entries);
            let mut writer = WireWriter::new();
            encode_server_query(&query, &mut writer);
            let bytes = writer.into_bytes();
            assert_eq!(bytes.len(), query.size_bytes(), "{entries} entries");

            let mut reader = WireReader::new(&bytes);
            let decoded = decode_server_query(&mut reader).unwrap();
            reader.finish().unwrap();
            // Keys have no `==`: the decoded query must re-encode to the
            // very bytes it came from.
            let mut writer = WireWriter::new();
            encode_server_query(&decoded, &mut writer);
            assert_eq!(writer.into_bytes(), bytes, "{entries} entries");
        }
    }

    #[test]
    fn response_roundtrips_and_size_is_wire_true() {
        let response = PirResponse {
            query_id: 31,
            party: 1,
            share: (0..33u32).collect(),
        };
        let mut writer = WireWriter::new();
        encode_response(&response, &mut writer);
        let bytes = writer.into_bytes();
        assert_eq!(bytes.len(), response.size_bytes());
        let mut reader = WireReader::new(&bytes);
        assert_eq!(decode_response(&mut reader).unwrap(), response);
        reader.finish().unwrap();
    }

    #[test]
    fn mismatched_key_depth_is_rejected() {
        let query = sample_query(4, 1024);
        let mut writer = WireWriter::new();
        writer.put_u64(query.query_id);
        // Lie about the table size: 512 entries needs depth 9, key has 10.
        encode_schema(TableSchema::new(512, 24), &mut writer);
        encode_dpf_key(&query.key, &mut writer);
        let bytes = writer.into_bytes();
        assert_eq!(
            decode_server_query(&mut WireReader::new(&bytes)).unwrap_err(),
            WireError::InvalidValue("key depth does not match schema")
        );
    }

    #[test]
    fn oversized_share_length_does_not_allocate() {
        let mut writer = WireWriter::new();
        writer.put_u64(1);
        writer.put_u8(0);
        writer.put_u32(u32::MAX); // declares a 16 GiB share
        let bytes = writer.into_bytes();
        assert!(matches!(
            decode_response(&mut WireReader::new(&bytes)),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn strict_booleans_and_strings() {
        let mut writer = WireWriter::new();
        writer.put_u8(2);
        assert_eq!(
            WireReader::new(&writer.into_bytes()).bool(),
            Err(WireError::InvalidValue("boolean byte must be 0 or 1"))
        );

        let mut writer = WireWriter::new();
        writer.put_u16(2);
        writer.put_raw(&[0xFF, 0xFE]);
        assert!(matches!(
            WireReader::new(&writer.into_bytes()).string(),
            Err(WireError::InvalidValue(_))
        ));

        let mut writer = WireWriter::new();
        writer.put_string("emb");
        let bytes = writer.into_bytes();
        let mut reader = WireReader::new(&bytes);
        assert_eq!(reader.string().unwrap(), "emb");
        reader.finish().unwrap();
    }

    #[test]
    fn prf_kinds_roundtrip() {
        for kind in PrfKind::ALL {
            assert_eq!(decode_prf_kind(encode_prf_kind(kind)).unwrap(), kind);
        }
        let bytes = PrfKind::ALL.map(encode_prf_kind);
        assert_eq!(bytes, [0, 2, 3], "served bytes never move");
        // 1 and 4 were SHA-256 and HighwayHash: retired, never reused. 9
        // was never assigned.
        for byte in [1, 4, 9] {
            assert!(matches!(
                decode_prf_kind(byte),
                Err(WireError::InvalidValue(_))
            ));
        }
    }
}
