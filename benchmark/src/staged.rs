//! The staged pass: one lookup walked, single-threaded, through the public
//! functions of each layer, with the benchmark's own span recorder.
//!
//! End-to-end metrics come from runs with no spans. This separate pass gives
//! the per-layer numbers: every call into a layer is wrapped in a span, a
//! span's self time is its duration minus its children's, and the sum of the
//! stages' self times must account for the staged lookup
//! (`bench.stage_sum_frac`). The same walk with the recorder disabled gives
//! the recorder's overhead. Spans *inside* the crates are a later change.

use std::fmt::Write as _;
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

use gpu_sim::BackendKind;
use pir_dpf::SchedulerConfig;
use pir_prf::PrfKind;
use pir_protocol::{build_replica_with_backend, PirClient, PirServer, PirTable};
use pir_wire::{
    decode_message, encode_message_v, PirTransport, QueryMsg, ResponseMsg, TcpTransport,
    WireMessage, PROTOCOL_V2,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::deploy::{reloaded_row, TABLE};
use crate::metrics::{median, Kind, MetricSet};

/// One recorded interval. `parent` indexes the span that caused it; spans
/// of one lookup share `lookup`.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub lookup: u32,
    pub party: Option<u8>,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Keeps spans in memory; written out when the benchmark ends.
pub struct Recorder {
    enabled: bool,
    base: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            base: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.base.elapsed().as_nanos() as u64
    }

    fn open(
        &mut self,
        name: &'static str,
        lookup: u32,
        party: Option<u8>,
        parent: Option<usize>,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            lookup,
            party,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() - 1)
    }

    fn close(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.now_ns();
        }
    }

    fn span<T>(
        &mut self,
        name: &'static str,
        lookup: u32,
        party: Option<u8>,
        parent: Option<usize>,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, lookup, party, parent);
        let out = work();
        self.close(id);
        out
    }

    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Per-span self time: duration minus the time covered by child spans.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent] = own[parent].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Σ self time of the stages ÷ Σ duration of the roots: the share of the
/// staged lookup the named layers account for.
pub fn stage_sum_frac(spans: &[Span]) -> f64 {
    let own = self_times_ns(spans);
    let (mut stages, mut roots) = (0u64, 0u64);
    for (span, own) in spans.iter().zip(own) {
        if span.parent.is_some() {
            stages += own;
        } else {
            roots += span.duration_ns();
        }
    }
    stages as f64 / roots.max(1) as f64
}

pub fn spans_to_json(spans: &[Span]) -> String {
    let mut out = String::from("[\n");
    for (i, span) in spans.iter().enumerate() {
        let _ = write!(
            out,
            "  {{\"id\": {i}, \"name\": \"{}\", \"lookup\": {}, \"party\": {}, \"parent\": {}, \"start_ns\": {}, \"end_ns\": {}}}{}",
            span.name,
            span.lookup,
            span.party.map_or("null".to_string(), |p| p.to_string()),
            span.parent.map_or("null".to_string(), |p| p.to_string()),
            span.start_ns,
            span.end_ns,
            if i + 1 < spans.len() { ",\n" } else { "\n" }
        );
    }
    out.push(']');
    out
}

/// The table shape and kernel settings a staged walk reproduces.
pub struct Shape<'a> {
    pub table: &'a PirTable,
    pub prf: PrfKind,
    pub backend: BackendKind,
}

/// A connected loopback socket pair, both ends in this thread.
fn tcp_pair() -> Result<(TcpTransport, TcpTransport), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let client = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    let (server, _) = listener.accept().map_err(|e| e.to_string())?;
    Ok((
        TcpTransport::from_stream(client).map_err(|e| e.to_string())?,
        TcpTransport::from_stream(server).map_err(|e| e.to_string())?,
    ))
}

struct Stage {
    client: PirClient,
    servers: [Box<dyn PirServer>; 2],
    /// Per party: (client end, server end).
    pipes: [(TcpTransport, TcpTransport); 2],
    rng: StdRng,
    query_frame_bytes: usize,
    response_frame_bytes: usize,
}

impl Stage {
    fn new(shape: &Shape<'_>, seed: u64) -> Result<Self, String> {
        let server = || {
            build_replica_with_backend(
                shape.table,
                shape.prf,
                1,
                SchedulerConfig::default(),
                shape.backend,
            )
            .map_err(|e| e.to_string())
        };
        Ok(Self {
            client: PirClient::new(shape.table.schema(), shape.prf),
            servers: [server()?, server()?],
            pipes: [tcp_pair()?, tcp_pair()?],
            rng: StdRng::seed_from_u64(seed),
            query_frame_bytes: 0,
            response_frame_bytes: 0,
        })
    }

    /// Walk one lookup through every layer boundary of the wire path.
    fn walk(&mut self, rec: &mut Recorder, lookup: u32, index: u64) -> Result<Vec<u8>, String> {
        let wire = |e: pir_wire::WireError| e.to_string();
        let root = rec.open("lookup", lookup, None, None);
        let query = rec.span("pir.client_query", lookup, None, root, || {
            self.client.query(index, &mut self.rng)
        });
        let mut frames = Vec::with_capacity(2);
        for party in 0..2u8 {
            frames.push(
                rec.span("wire.encode_query", lookup, Some(party), root, || {
                    encode_message_v(
                        &WireMessage::Query(QueryMsg {
                            table: TABLE.to_string(),
                            tenant: "bench".to_string(),
                            query: query.to_server(party),
                        }),
                        PROTOCOL_V2,
                    )
                }),
            );
        }
        self.query_frame_bytes = frames[0].len();
        for (party, frame) in frames.iter_mut().enumerate() {
            let (client_end, server_end) = &mut self.pipes[party];
            *frame = rec
                .span("wire.tcp_frame", lookup, Some(party as u8), root, || {
                    client_end.send(frame)?;
                    server_end.recv()
                })
                .map_err(wire)?;
        }
        let mut queries = Vec::with_capacity(2);
        for (party, frame) in frames.iter().enumerate() {
            let message = rec
                .span("wire.decode_query", lookup, Some(party as u8), root, || {
                    decode_message(frame)
                })
                .map_err(wire)?;
            let WireMessage::Query(message) = message else {
                return Err("query frame decoded to another message".into());
            };
            queries.push(message.query);
        }
        let mut responses = Vec::with_capacity(2);
        for (party, query) in queries.iter().enumerate() {
            let mut answered = rec
                .span("pir.answer_batch", lookup, Some(party as u8), root, || {
                    self.servers[party].answer_batch(std::slice::from_ref(query))
                })
                .map_err(|e| e.to_string())?;
            responses.push(answered.remove(0));
        }
        let mut frames = Vec::with_capacity(2);
        for (party, response) in responses.into_iter().enumerate() {
            frames.push(rec.span(
                "wire.encode_response",
                lookup,
                Some(party as u8),
                root,
                || {
                    encode_message_v(
                        &WireMessage::Response(ResponseMsg {
                            response,
                            table_version: 1,
                        }),
                        PROTOCOL_V2,
                    )
                },
            ));
        }
        self.response_frame_bytes = frames[0].len();
        for (party, frame) in frames.iter_mut().enumerate() {
            let (client_end, server_end) = &mut self.pipes[party];
            *frame = rec
                .span("wire.tcp_frame", lookup, Some(party as u8), root, || {
                    server_end.send(frame)?;
                    client_end.recv()
                })
                .map_err(wire)?;
        }
        let mut shares = Vec::with_capacity(2);
        for (party, frame) in frames.iter().enumerate() {
            let message = rec
                .span(
                    "wire.decode_response",
                    lookup,
                    Some(party as u8),
                    root,
                    || decode_message(frame),
                )
                .map_err(wire)?;
            let WireMessage::Response(message) = message else {
                return Err("response frame decoded to another message".into());
            };
            shares.push(message.response);
        }
        let row = rec
            .span("pir.reconstruct", lookup, None, root, || {
                self.client.reconstruct(&query, &shares[0], &shares[1])
            })
            .map_err(|e| e.to_string())?;
        rec.close(root);
        Ok(row)
    }
}

/// Result of the staged pass for one table shape.
pub struct StagedPass {
    /// Spans of the traced walk (written to the trace file).
    pub spans: Vec<Span>,
    /// Median staged lookup minus party 1's stages: in a live deployment
    /// the two parties work side by side, so only one of them is on the
    /// path that blocks the result.
    pub critical_path_p50_ms: f64,
    /// The same without the codec and socket stages, which the embedded
    /// path does not have: key generation, party 0's answer, reconstruction.
    pub compute_path_p50_ms: f64,
}

fn durations_ms(spans: &[Span], name: &str, party: Option<u8>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && (party.is_none() || s.party == party))
        .map(|s| s.duration_ns() as f64 / 1e6)
        .collect()
}

/// Walk `lookups` lookups with the recorder on and the same lookups with it
/// off, time the B = 32 batch and the reload pair, and report the `pir.*`,
/// `wire.*` (staged) and `bench.*` metrics for this shape.
pub fn run(
    shape: &Shape<'_>,
    seed: u64,
    lookups: usize,
    out: &mut MetricSet,
) -> Result<StagedPass, String> {
    let entries = shape.table.entries();
    let mut index_rng = StdRng::seed_from_u64(seed ^ 0x57A6ED);
    let indices: Vec<u64> = (0..lookups)
        .map(|_| index_rng.gen_range(0..entries))
        .collect();
    let mut stage = Stage::new(shape, seed)?;
    let check = |index: u64, row: &[u8]| -> Result<(), String> {
        if row == shape.table.entry(index) {
            Ok(())
        } else {
            Err(format!(
                "staged walk reconstructed a wrong row for index {index}"
            ))
        }
    };

    // Let the lazy state settle (tile probe, first resident upload).
    for &index in indices.iter().take(8) {
        check(index, &stage.walk(&mut Recorder::new(false), 0, index)?)?;
    }

    // Traced and untraced walks of the same lookup alternate, and so does
    // which of the two goes first, so drift (caches, clock speed) cancels
    // out of the overhead figure.
    let mut traced = Recorder::new(true);
    let mut untraced = Recorder::new(false);
    let (mut wall_traced, mut wall_untraced) = (0.0, 0.0);
    for (lookup, &index) in indices.iter().enumerate() {
        for pass in 0..2 {
            let tracing = (pass == 0) == (lookup % 2 == 0);
            let recorder = if tracing { &mut traced } else { &mut untraced };
            let started = Instant::now();
            let row = stage.walk(recorder, lookup as u32, index)?;
            let took = started.elapsed().as_secs_f64();
            check(index, &row)?;
            if tracing {
                wall_traced += took;
            } else {
                wall_untraced += took;
            }
        }
    }

    let spans = traced.spans;
    let p50 = |name: &str, party: Option<u8>| median(&mut durations_ms(&spans, name, party));
    out.push(
        "pir.client_query_us",
        p50("pir.client_query", None) * 1e3,
        "us",
        Kind::Measured,
    );
    out.push(
        "pir.answer_batch_ms.b1",
        p50("pir.answer_batch", None),
        "ms",
        Kind::Measured,
    );
    out.push(
        "pir.reconstruct_us",
        p50("pir.reconstruct", None) * 1e3,
        "us",
        Kind::Measured,
    );
    for stage_name in [
        "wire.encode_query",
        "wire.decode_query",
        "wire.encode_response",
        "wire.decode_response",
    ] {
        out.push(
            format!("{stage_name}_ns"),
            p50(stage_name, None) * 1e6,
            "ns",
            Kind::Measured,
        );
    }
    // One party's query hop plus its response hop, per lookup.
    let mut rtts: Vec<f64> = durations_ms(&spans, "wire.tcp_frame", Some(0))
        .chunks_exact(2)
        .map(|hops| (hops[0] + hops[1]) * 1e3)
        .collect();
    out.push(
        "wire.tcp_frame_rtt_us",
        median(&mut rtts),
        "us",
        Kind::Measured,
    );
    out.push(
        "wire.query_frame_bytes",
        stage.query_frame_bytes as f64,
        "B",
        Kind::Counted,
    );
    out.push(
        "wire.response_frame_bytes",
        stage.response_frame_bytes as f64,
        "B",
        Kind::Counted,
    );
    out.push(
        "bench.stage_sum_frac",
        stage_sum_frac(&spans),
        "ratio",
        Kind::Computed,
    );
    out.push(
        "bench.trace_overhead_frac",
        (wall_traced - wall_untraced) / wall_untraced,
        "ratio",
        Kind::Measured,
    );

    // Per lookup: the root, the root without party 1's stages, and the
    // compute stages of party 0 alone.
    let mut party1_ns = vec![0u64; lookups];
    let mut compute_ns = vec![0u64; lookups];
    let mut answer_ns = 0u64;
    for span in &spans {
        if span.party == Some(1) {
            party1_ns[span.lookup as usize] += span.duration_ns();
        }
        match span.name {
            "pir.answer_batch" => {
                answer_ns += span.duration_ns();
                if span.party == Some(0) {
                    compute_ns[span.lookup as usize] += span.duration_ns();
                }
            }
            "pir.client_query" | "pir.reconstruct" => {
                compute_ns[span.lookup as usize] += span.duration_ns();
            }
            _ => {}
        }
    }
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    let root_ns: u64 = roots.iter().map(|s| s.duration_ns()).sum();
    let mut root_ms: Vec<f64> = roots.iter().map(|s| s.duration_ns() as f64 / 1e6).collect();
    let mut critical_ms: Vec<f64> = roots
        .iter()
        .map(|s| (s.duration_ns() - party1_ns[s.lookup as usize]) as f64 / 1e6)
        .collect();
    let mut compute_ms: Vec<f64> = compute_ns.iter().map(|ns| *ns as f64 / 1e6).collect();
    out.measured("bench.staged_lookup_p50_ms", median(&mut root_ms), "ms");
    out.counted("bench.staged_lookups", lookups as u64);
    // Both parties' kernels as a share of the staged lookup. A staged
    // lookup has no waits in it, so this is a share of the work, not of a
    // live lookup's latency.
    out.push(
        "bench.answer_batch_share",
        answer_ns as f64 / root_ns.max(1) as f64,
        "ratio",
        Kind::Computed,
    );

    // A batch of 32 the benchmark forms itself, cost ÷ 32.
    let batch: Vec<_> = (0..32)
        .map(|i| {
            stage
                .client
                .query(indices[i % lookups], &mut stage.rng)
                .to_server(0)
        })
        .collect();
    let mut per_query = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let answers = stage.servers[0]
            .answer_batch(&batch)
            .map_err(|e| e.to_string())?;
        per_query.push(started.elapsed().as_secs_f64() * 1e3 / batch.len() as f64);
        std::hint::black_box(answers);
    }
    out.push(
        "pir.answer_batch_ms_per_query.b32",
        median(&mut per_query),
        "ms",
        Kind::Measured,
    );

    // Reload pair: the write itself, and the first batch after it (which
    // re-uploads the resident table).
    let (mut updates, mut first_batches) = (Vec::new(), Vec::new());
    for update in 1..=8u64 {
        let row = reloaded_row(0, update, shape.table.entry_bytes());
        let started = Instant::now();
        stage.servers[0]
            .update_entry(0, &row)
            .map_err(|e| e.to_string())?;
        updates.push(started.elapsed().as_secs_f64() * 1e6);
        let started = Instant::now();
        let answers = stage.servers[0]
            .answer_batch(&batch[..1])
            .map_err(|e| e.to_string())?;
        first_batches.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(answers);
    }
    out.push(
        "pir.update_entry_us",
        median(&mut updates),
        "us",
        Kind::Measured,
    );
    out.push(
        "pir.post_reload_batch_ms",
        median(&mut first_batches),
        "ms",
        Kind::Measured,
    );

    Ok(StagedPass {
        critical_path_p50_ms: median(&mut critical_ms),
        compute_path_p50_ms: median(&mut compute_ms),
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            lookup: 0,
            party: None,
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span("lookup", None, 0, 100),
            span("a", Some(0), 0, 40),
            span("b", Some(0), 45, 95),
            span("inner", Some(2), 50, 60),
        ];
        assert_eq!(self_times_ns(&spans), vec![10, 40, 40, 10]);
        // stages 40 + 40 + 10 over a root of 100
        assert!((stage_sum_frac(&spans) - 0.9).abs() < 1e-12);
    }

    #[test]
    fn disabled_recorder_records_nothing_and_still_runs_the_work() {
        let mut rec = Recorder::new(false);
        let root = rec.open("lookup", 0, None, None);
        assert_eq!(rec.span("a", 0, None, root, || 7), 7);
        rec.close(root);
        assert!(rec.spans().is_empty());

        let mut rec = Recorder::new(true);
        let root = rec.open("lookup", 0, None, None);
        rec.span("a", 0, Some(1), root, || ());
        rec.close(root);
        assert_eq!(rec.spans().len(), 2);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert!(rec.spans()[0].end_ns >= rec.spans()[1].end_ns);
        assert!(spans_to_json(rec.spans()).contains("\"name\": \"a\""));
    }
}
