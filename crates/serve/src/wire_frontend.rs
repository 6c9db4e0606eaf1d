//! [`WireFrontend`]: the server half of the `pir-wire` boundary.
//!
//! A frontend decodes envelopes arriving from untrusted clients, bridges
//! them into the runtime's batching machinery for **one party only**, and
//! encodes the replies. One frontend per party is the deployment shape: in
//! the paper's two-server model each non-colluding server process runs its
//! own runtime and its own frontend, so no code path reachable from a
//! single connection can ever observe both DPF keys — this type does not
//! even have a way to *represent* the pair.
//!
//! # Pipelined service
//!
//! [`WireFrontend::serve`] runs [`pir_wire::serve_split`]; each admitted
//! query is a completion, answered with a share stamped with this party's
//! table version.
//!
//! Malformed, truncated or wrong-version frames produce typed
//! [`ErrorReply`]s (for version mismatches, carrying the supported range
//! per the reject-with-supported-range rule, see
//! [`pir_wire::decode_request`]); backpressure sheds
//! ([`ServeError::QueueFull`], quota, shutdown) become `shed`-flagged wire
//! errors rather than panics or dropped connections. A client that hangs
//! up with queries still in flight costs no further device work: the
//! dropped pending shares cancel their queued entries.

use std::future::Future;

use pir_wire::{
    answer_one, decode_request, encode_message, serve_split, Catalog, CatalogEntry, ErrorCode,
    ErrorReply, PirTransport, QueryMsg, Replies, Request, ResponseMsg, UpdateAckMsg,
    UpdateEntryMsg, WireError, WireMessage, MAX_SUPPORTED_VERSION,
};

use crate::error::ServeError;
use crate::handle::{PendingShare, ServeHandle};

/// The wire-facing server endpoint for one party of the runtime.
pub struct WireFrontend {
    handle: ServeHandle,
    party: u8,
}

impl WireFrontend {
    /// Create a frontend answering for `party` (0 or 1).
    ///
    /// # Panics
    ///
    /// Panics if `party` is not 0 or 1 (a deployment wiring error).
    #[must_use]
    pub fn new(handle: ServeHandle, party: u8) -> Self {
        assert!(party < 2, "two-server protocol: party must be 0 or 1");
        Self { handle, party }
    }

    /// The party this frontend answers for.
    #[must_use]
    pub fn party(&self) -> u8 {
        self.party
    }

    /// Handle one request frame and produce the reply frame, blocking until
    /// the answer is ready (the one-frame special case of [`Self::serve`]).
    ///
    /// Total: every input, including garbage, yields an encoded reply.
    #[must_use]
    pub fn handle_frame(&self, frame: &[u8]) -> Vec<u8> {
        answer_one(frame, |frame, replies| self.dispatch(frame, replies))
    }

    /// Serve one connection until the peer hangs up, through
    /// [`pir_wire::serve_split`]: a client that hangs up with queries in
    /// flight cancels them.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::Transport`] for I/O failures and for a
    /// transport that cannot split into halves (nothing is read from it); a
    /// clean [`WireError::ConnectionClosed`] hang-up returns `Ok(())`.
    pub fn serve(&self, transport: Box<dyn PirTransport>) -> Result<(), WireError> {
        serve_split(
            transport,
            format!("fe-writer-p{}", self.party),
            |frame, replies| self.dispatch(frame, replies),
        )
    }

    /// Answer one frame: control requests at once, an admitted query when
    /// its share completes.
    fn dispatch(&self, frame: &[u8], replies: &Replies) {
        let reply = match decode_request(frame) {
            Err(reply) => reply.into(),
            Ok(Request::CatalogRequest) => self.catalog(),
            Ok(Request::Query(query)) => match self.query(query) {
                Ok(share) => return replies.complete(share),
                Err(reply) => reply.into(),
            },
            Ok(Request::UpdateEntry(update)) => self.update(update),
        };
        replies.send(encode_message(&reply));
    }

    fn catalog(&self) -> WireMessage {
        let tables = self
            .handle
            .inner
            .registry
            .all()
            .into_iter()
            .map(|hosted| CatalogEntry {
                name: hosted.name.clone(),
                schema: hosted.schema,
                prf_kind: hosted.config.prf_kind,
            })
            .collect();
        WireMessage::Catalog(Catalog {
            protocol_version: MAX_SUPPORTED_VERSION,
            party: self.party,
            tables,
        })
    }

    /// Admit one query into the batcher; its reply is ready when its share
    /// is.
    fn query(&self, query: QueryMsg) -> Result<impl Future<Output = Vec<u8>>, ErrorReply> {
        let query_id = query.query.query_id;
        if query.query.party() != self.party {
            return Err(ErrorReply::new(
                ErrorCode::InvalidRequest,
                query_id,
                format!(
                    "this server answers for party {}, key is for party {}",
                    self.party,
                    query.query.party()
                ),
            ));
        }
        self.handle
            .submit_server_query(&query.table, &query.tenant, query.query)
            .map(|share| share_reply(query_id, share))
            .map_err(|err| serve_error_reply(&err, query_id))
    }

    fn update(&self, update: UpdateEntryMsg) -> WireMessage {
        match self
            .handle
            .update_entry(&update.table, update.index, &update.bytes)
        {
            Ok(()) => WireMessage::UpdateAck(UpdateAckMsg {
                table: update.table,
                index: update.index,
            }),
            Err(err) => serve_error_reply(&err, 0).into(),
        }
    }
}

impl std::fmt::Debug for WireFrontend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireFrontend")
            .field("party", &self.party)
            .finish()
    }
}

/// The encoded reply to one admitted query, once its share (or its
/// per-query failure) is in.
async fn share_reply(query_id: u64, share: PendingShare) -> Vec<u8> {
    let reply = match share.await {
        Ok(answered) => WireMessage::Response(ResponseMsg {
            response: answered.response,
            table_version: answered.table_version,
        }),
        Err(err) => serve_error_reply(&err, query_id).into(),
    };
    encode_message(&reply)
}

/// Map a runtime error onto the wire's typed error reply, attributed to
/// the query it answers (0 = connection-level).
fn serve_error_reply(err: &ServeError, query_id: u64) -> ErrorReply {
    let code = match err {
        ServeError::UnknownTable(_) => ErrorCode::UnknownTable,
        ServeError::IndexOutOfRange { .. } => ErrorCode::IndexOutOfRange,
        ServeError::QueueFull { .. }
        | ServeError::QuotaExceeded { .. }
        | ServeError::Displaced { .. }
        | ServeError::ShuttingDown => ErrorCode::Shed,
        ServeError::Protocol(_) => ErrorCode::Protocol,
        ServeError::TableExists(_)
        | ServeError::InvalidConfig(_)
        | ServeError::TierInversion { .. } => ErrorCode::InvalidRequest,
    };
    ErrorReply::new(code, query_id, err.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TableConfig;
    use crate::runtime::PirServeRuntime;
    use crate::ServeConfig;
    use pir_prf::PrfKind;
    use pir_protocol::PirTable;
    use pir_wire::{decode_message, MsgType, WireEnvelope};
    use std::time::Duration;

    fn runtime() -> PirServeRuntime {
        let runtime = PirServeRuntime::new(ServeConfig::builder().seed(7).build().unwrap());
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(8)
            .max_wait(Duration::from_millis(1))
            .build()
            .unwrap();
        runtime.register_table("emb", table, config).unwrap();
        runtime
    }

    #[test]
    fn catalog_identifies_party_tables_and_version_ceiling() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 1);
        let reply = frontend.handle_frame(&encode_message(&WireMessage::CatalogRequest));
        match decode_message(&reply).unwrap() {
            WireMessage::Catalog(catalog) => {
                assert_eq!(catalog.party, 1);
                assert_eq!(catalog.protocol_version, MAX_SUPPORTED_VERSION);
                assert_eq!(catalog.tables.len(), 1);
                assert_eq!(catalog.tables[0].name, "emb");
                assert_eq!(catalog.tables[0].schema.entries, 128);
                assert_eq!(catalog.tables[0].prf_kind, PrfKind::SipHash);
            }
            other => panic!("expected catalog, got {}", other.name()),
        }
    }

    #[test]
    fn query_replies_are_stamped_with_the_table_version() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(12);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let mut stamp_of = |index: u64| {
            let query = client.query(index, &mut rng);
            let frame = encode_message(&WireMessage::Query(QueryMsg {
                table: "emb".into(),
                tenant: "t".into(),
                query: query.to_server(0),
            }));
            match decode_message(&frontend.handle_frame(&frame)).unwrap() {
                WireMessage::Response(msg) => {
                    assert_eq!(msg.response.query_id, query.query_id);
                    msg.table_version
                }
                other => panic!("expected response, got {}", other.name()),
            }
        };
        assert_eq!(stamp_of(5), 1, "fresh table is at version 1");
        // After a hot reload the stamp moves.
        runtime.update_entry("emb", 9, &[7u8; 8]).unwrap();
        assert_eq!(stamp_of(6), 2);
    }

    #[test]
    fn garbage_frames_get_typed_error_replies_not_panics() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        for frame in [
            &b""[..],
            &b"XX"[..],
            &[0x50, 0x57, 2, 0, 3][..],               // truncated header
            &[0x50, 0x57, 2, 0, 200, 0, 0, 0, 0][..], // unknown msg type
        ] {
            let reply = frontend.handle_frame(frame);
            match decode_message(&reply).unwrap() {
                WireMessage::Error(error) => assert_eq!(error.code, ErrorCode::Malformed),
                other => panic!("expected error, got {}", other.name()),
            }
        }
    }

    #[test]
    fn hostile_64kib_table_names_get_bounded_error_replies_not_panics() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        // A well-formed Query frame whose table/tenant names are as long as
        // the u16 length prefix allows: the lookup fails, and the error
        // reply must truncate the echoed name instead of panicking the
        // serve thread inside the string encoder.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(8);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let query = client.query(5, &mut rng);
        let frame = encode_message(&WireMessage::Query(pir_wire::QueryMsg {
            table: "x".repeat(u16::MAX as usize),
            tenant: "y".repeat(u16::MAX as usize),
            query: query.to_server(0),
        }));
        let reply = frontend.handle_frame(&frame);
        match decode_message(&reply).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::UnknownTable);
                assert!(error.message.len() <= ErrorReply::MAX_DETAIL_BYTES + 32);
                assert!(error.message.ends_with("(truncated)"));
            }
            other => panic!("expected error, got {}", other.name()),
        }
    }

    #[test]
    fn version_rejection_carries_the_supported_range() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        // The retired version 1 and a future version: both well-formed
        // frames, both outside the range.
        for version in [1u8, 42] {
            let mut frame = encode_message(&WireMessage::CatalogRequest);
            frame[2] = version;
            let reply = frontend.handle_frame(&frame);
            match decode_message(&reply).unwrap() {
                WireMessage::Error(error) => {
                    assert_eq!(error.code, ErrorCode::UnsupportedVersion);
                    assert_eq!((error.min_version, error.max_version), (2, 2));
                }
                other => panic!("expected error, got {}", other.name()),
            }
        }
    }

    #[test]
    fn a_client_that_hangs_up_cancels_every_query_it_still_has_in_flight() {
        // Formation is work-conserving, so only a held replica keeps the
        // client's queries queued until it hangs up.
        const QUERIES: u64 = 4;
        let runtime = PirServeRuntime::new(
            ServeConfig::builder()
                .device_budget(1)
                .seed(7)
                .build()
                .unwrap(),
        );
        let config = TableConfig::builder()
            .prf_kind(PrfKind::SipHash)
            .max_batch(8)
            .build()
            .unwrap();
        let table = PirTable::generate(128, 8, |row, _| row as u8);
        runtime.register_table("emb", table, config).unwrap();
        let (launching, parked) = runtime.park_replicas("emb");
        let parked_batches = runtime.stats().table("emb").unwrap().batches;
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let (mut client, server) = pir_wire::loopback_pair();
        let keys =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(5);
        for index in 0..QUERIES {
            let frame = encode_message(&WireMessage::Query(QueryMsg {
                table: "emb".into(),
                tenant: "t".into(),
                query: keys.query(index, &mut rng).to_server(0),
            }));
            client.send(&frame).unwrap();
        }
        drop(client);
        // The frames were delivered before the hang-up, so `serve` admits
        // all of them, then drops what it owes and returns.
        let serving = std::thread::spawn(move || frontend.serve(Box::new(server)));
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while !serving.is_finished() {
            assert!(
                std::time::Instant::now() < deadline,
                "serve awaited the queries"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        serving.join().unwrap().unwrap();
        let stats = runtime.stats();
        let table = stats.table("emb").unwrap();
        assert_eq!(table.canceled, QUERIES);
        assert_eq!(
            table.batches, parked_batches,
            "no batch formed after the park"
        );
        drop(launching);
        assert!(parked.wait().is_ok());
    }

    #[test]
    fn wrong_party_keys_are_rejected_at_the_boundary() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        // Generate a legitimate query for the *other* party.
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(3);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let query = client.query(5, &mut rng);
        let frame = encode_message(&WireMessage::Query(pir_wire::QueryMsg {
            table: "emb".into(),
            tenant: "t".into(),
            query: query.to_server(1),
        }));
        let reply = frontend.handle_frame(&frame);
        match decode_message(&reply).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::InvalidRequest);
                assert!(error.message.contains("party"));
                // Errors are attributed to the query they answer.
                assert_eq!(error.query_id, query.query_id);
            }
            other => panic!("expected error, got {}", other.name()),
        }
    }

    #[test]
    fn shutdown_sheds_wire_queries_with_the_shed_flag() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(4);
        let client =
            pir_protocol::PirClient::new(pir_protocol::TableSchema::new(128, 8), PrfKind::SipHash);
        let query = client.query(5, &mut rng);
        runtime.shutdown();
        let frame = encode_message(&WireMessage::Query(pir_wire::QueryMsg {
            table: "emb".into(),
            tenant: "t".into(),
            query: query.to_server(0),
        }));
        let reply = frontend.handle_frame(&frame);
        match decode_message(&reply).unwrap() {
            WireMessage::Error(error) => {
                assert_eq!(error.code, ErrorCode::Shed);
                assert!(error.shed);
            }
            other => panic!("expected error, got {}", other.name()),
        }
    }

    #[test]
    fn servers_reject_server_to_client_message_types() {
        let runtime = runtime();
        let frontend = WireFrontend::new(runtime.handle(), 0);
        let frame = WireEnvelope::new(MsgType::CatalogRequest, Vec::new()).encode();
        // Sanity: a valid request works...
        assert!(matches!(
            decode_message(&frontend.handle_frame(&frame)).unwrap(),
            WireMessage::Catalog(_)
        ));
        // ...but a Response sent *to* a server is an InvalidRequest.
        let frame = encode_message(&WireMessage::Response(ResponseMsg {
            response: pir_protocol::PirResponse {
                query_id: 1,
                party: 0,
                share: vec![1],
            },
            table_version: 0,
        }));
        match decode_message(&frontend.handle_frame(&frame)).unwrap() {
            WireMessage::Error(error) => assert_eq!(error.code, ErrorCode::InvalidRequest),
            other => panic!("expected error, got {}", other.name()),
        }
    }
}
