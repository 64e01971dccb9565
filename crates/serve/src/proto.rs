//! The wire protocol: length-prefixed JSON frames.
//!
//! Every message on an `hfs-serve` connection is one *frame*: a 4-byte
//! big-endian length followed by that many bytes of compact JSON. The
//! JSON itself reuses the harness's hand-rolled serializers — jobs
//! travel as [`hfs_harness::spec`] documents and outcomes as
//! [`hfs_harness::ser`] documents — so the server and the offline
//! engine literally share one codec, which is what makes server-routed
//! artifacts byte-identical to local ones.
//!
//! Frame types are closed enums ([`ClientFrame`], [`ServerFrame`]) with
//! a `"type"` tag; unknown tags decode to [`ProtoError::Malformed`] so
//! version skew fails loudly instead of silently dropping work. Each
//! frame is described once, over [`Sink`]/[`Source`], and `write_to`
//! and `read_from` run that description straight to and from the
//! frame's text; a hot-cache hit's stored outcome text rides in
//! verbatim ([`JobResult::encoded`]).

use std::io::{self, Read, Write};
use std::sync::Arc;

use hfs_harness::json::Writer;
use hfs_harness::{
    from_text, is_cache_key, read_job, read_outcome, to_text, write_job, write_outcome,
    DecodeError, Job, JobOutcome, ParseError, Sink, Source,
};

/// Upper bound on a single frame body. Large sweeps are a few megabytes
/// of job specs; anything beyond this is a corrupt length prefix, not a
/// real message, and is rejected before allocating.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// Anything that can go wrong reading or decoding a frame.
#[derive(Debug)]
pub enum ProtoError {
    /// Transport failure mid-frame.
    Io(io::Error),
    /// The frame body was not valid JSON.
    Parse(ParseError),
    /// The JSON did not decode into a known frame.
    Decode(DecodeError),
    /// Structurally valid JSON but not a frame we recognize.
    Malformed(String),
    /// The length prefix exceeded [`MAX_FRAME_BYTES`].
    TooLarge(usize),
}

impl std::fmt::Display for ProtoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtoError::Io(e) => write!(f, "frame I/O error: {e}"),
            ProtoError::Parse(e) => write!(f, "frame is not valid JSON: {e}"),
            ProtoError::Decode(e) => write!(f, "frame failed to decode: {e}"),
            ProtoError::Malformed(m) => write!(f, "malformed frame: {m}"),
            ProtoError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
        }
    }
}

impl std::error::Error for ProtoError {}

impl From<io::Error> for ProtoError {
    fn from(e: io::Error) -> ProtoError {
        ProtoError::Io(e)
    }
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        match e {
            DecodeError::Syntax(e) => ProtoError::Parse(e),
            shape => ProtoError::Decode(shape),
        }
    }
}

fn malformed<T>(message: impl Into<String>) -> Result<T, ProtoError> {
    Err(ProtoError::Malformed(message.into()))
}

/// Writes one frame: 4-byte big-endian length, then the compact JSON
/// `emit` pushes.
pub(crate) fn write_frame(
    w: &mut impl Write,
    emit: impl FnOnce(&mut Writer<'_>),
) -> io::Result<()> {
    let text = to_text(false, emit);
    let len = u32::try_from(text.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Reads one frame body. Returns `Ok(None)` on a clean EOF *between*
/// frames (the peer closed); EOF mid-frame is an error.
fn read_frame(r: &mut impl Read) -> Result<Option<String>, ProtoError> {
    let mut len_buf = [0u8; 4];
    // Distinguish "no more frames" from "truncated prefix" by hand: a
    // clean close yields 0 bytes before the next prefix.
    let mut filled = 0;
    while filled < 4 {
        let n = r.read(&mut len_buf[filled..])?;
        if n == 0 {
            if filled == 0 {
                return Ok(None);
            }
            return Err(ProtoError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-prefix",
            )));
        }
        filled += n;
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(ProtoError::TooLarge(len));
    }
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    String::from_utf8(body)
        .map(Some)
        .or_else(|_| malformed("frame body is not UTF-8"))
}

/// The `write_to`/`read_from` pair every frame type offers, over its
/// one `write`/`read` description.
macro_rules! frame_drivers {
    ($frame:ty) => {
        impl $frame {
            /// Writes the frame to a transport.
            ///
            /// # Errors
            ///
            /// Propagates transport write failures.
            pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
                write_frame(w, |s| self.write(s))
            }

            /// Reads the next frame; `Ok(None)` on clean EOF.
            ///
            /// # Errors
            ///
            /// Transport failures, [`ProtoError::Malformed`] on unknown
            /// tags, [`ProtoError::Decode`] on missing or mistyped
            /// fields.
            pub fn read_from(r: &mut impl Read) -> Result<Option<$frame>, ProtoError> {
                match read_frame(r)? {
                    None => Ok(None),
                    Some(text) => from_text(&text, Self::read).map(Some),
                }
            }
        }
    };
}

/// How much per-job traffic a batch submission wants back. Results
/// always travel as [`ServerFrame::BatchResults`]; the level picks how
/// eagerly the server flushes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Subscribe {
    /// No per-job frames at all: `accepted`, then `done`
    /// (cache-priming submissions).
    None,
    /// Results buffered into a handful of chunked frames, then `done`.
    #[default]
    Final,
    /// A frame after every result — per-job streaming — then `done`.
    All,
}

impl Subscribe {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Subscribe::None => "none",
            Subscribe::Final => "final",
            Subscribe::All => "all",
        }
    }

    /// Parses the wire spelling.
    pub fn parse(s: &str) -> Option<Subscribe> {
        match s {
            "none" => Some(Subscribe::None),
            "final" => Some(Subscribe::Final),
            "all" => Some(Subscribe::All),
            _ => None,
        }
    }
}

/// One resolved job inside a [`ServerFrame::BatchResults`] chunk.
#[derive(Debug, Clone)]
pub struct JobResult {
    /// The job's position in the submitted batch.
    pub index: u64,
    /// The job's display label.
    pub label: String,
    /// Content-derived cache key.
    pub key: String,
    /// Whether the outcome came from the result cache.
    pub cached: bool,
    /// The outcome itself.
    pub outcome: JobOutcome,
    /// Encode-side fast path: when the sender already holds the
    /// outcome's cached serialization (a hot-cache hit), the text is
    /// spliced into the frame verbatim instead of re-encoding
    /// `outcome`. Must be exactly the serialization of `outcome` when
    /// set. Decoders always leave this `None`; the wire layout is
    /// identical either way.
    pub encoded: Option<Arc<str>>,
}

impl JobResult {
    fn write<S: Sink>(&self, s: &mut S) {
        s.begin_obj();
        s.u64_field("index", self.index);
        s.str_field("label", &self.label);
        s.str_field("key", &self.key);
        s.bool_field("cached", self.cached);
        s.key("outcome");
        match &self.encoded {
            Some(text) => s.raw(text),
            None => write_outcome(s, &self.outcome),
        }
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<JobResult, DecodeError> {
        s.obj(|s, o| {
            Ok(JobResult {
                index: s.u64_field(o, "index")?,
                label: s.str_field(o, "label")?.into_owned(),
                key: s.str_field(o, "key")?.into_owned(),
                cached: s.bool_field(o, "cached")?,
                outcome: s.field(o, "outcome", read_outcome)?,
                encoded: None,
            })
        })
    }
}

/// A content-key reference to one job of a `submit_refs` chunk.
///
/// The client holds the full spec and sends only the content key
/// ([`hfs_harness::Job::key`]) plus its display label; the server
/// resolves the key against its result cache (or attaches to an
/// in-flight execution of the same key) without parsing or re-hashing
/// a spec. That makes re-submitting a warm sweep almost free — the
/// dominant per-job costs of the spec path are exactly the spec
/// serialize/parse/hash this reference skips.
#[derive(Debug, Clone)]
pub struct JobRef {
    /// Content-derived cache key, as computed by the client.
    pub key: String,
    /// Client-chosen display label, used for delivery and artifacts.
    pub label: String,
}

impl JobRef {
    /// Pushes one entry of a `submit_refs` frame.
    pub(crate) fn write<S: Sink>(s: &mut S, key: &str, label: &str) {
        s.begin_obj();
        s.str_field("key", key);
        s.str_field("label", label);
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<JobRef, ProtoError> {
        s.obj(|s, o| {
            let key = s.str_field(o, "key")?;
            if !is_cache_key(&key) {
                // The key names a file in the server's cache directory.
                return malformed(format!("ref key {key:?} is not 16 lowercase hex digits"));
            }
            Ok(JobRef {
                key: key.into_owned(),
                label: s.str_field(o, "label")?.into_owned(),
            })
        })
    }
}

/// A message from a client to the server.
#[derive(Debug, Clone)]
pub enum ClientFrame {
    /// Submit a named batch of full job specs with an explicit id and a
    /// per-job update subscription level. Responses carrying
    /// the same `id` (`accepted`/`busy`/`batch_results`/`done`) can
    /// interleave with those of other in-flight batches on the same
    /// connection.
    SubmitBatch {
        /// Experiment name (artifact file stem on the client side).
        experiment: String,
        /// Client-chosen nonzero batch id, echoed on every response.
        id: u64,
        /// How much per-job traffic to send back.
        subscribe: Subscribe,
        /// The jobs, in submission order.
        jobs: Vec<Job>,
    },
    /// Submit a batch chunk by content key only ([`JobRef`]) — the
    /// warm-path complement of [`ClientFrame::SubmitBatch`]. The server
    /// either resolves *every* reference (from its caches or in-flight
    /// executions) and answers `accepted`, or rejects the whole chunk
    /// with [`ServerFrame::RefsMiss`], after which the client re-sends
    /// it with full specs. Nothing is enqueued on a miss, so the
    /// rejection is free of side effects.
    SubmitRefs {
        /// Experiment name (artifact file stem on the client side).
        experiment: String,
        /// Client-chosen nonzero batch id, echoed on every response.
        id: u64,
        /// How much per-job traffic to send back.
        subscribe: Subscribe,
        /// The references, in submission order.
        refs: Vec<JobRef>,
    },
    /// Liveness probe; answered with [`ServerFrame::Pong`].
    Ping,
    /// Request a [`ServeStats`] snapshot.
    Stats,
    /// Request the live metric registry as Prometheus text
    /// ([`ServerFrame::Metrics`]).
    Metrics,
    /// Ask the server to drain and exit.
    Shutdown,
}

/// Pushes a submission frame: the tag, the header `submit_batch` and
/// `submit_refs` share, then whatever `entries` pushes. What
/// [`ClientFrame::write_to`] runs, lent to the client so that it can
/// frame a chunk of jobs it goes on owning.
pub(crate) fn write_submit<S: Sink>(
    s: &mut S,
    tag: &str,
    experiment: &str,
    id: u64,
    subscribe: Subscribe,
    entries: impl FnOnce(&mut S),
) {
    s.begin_obj();
    s.str_field("type", tag);
    s.str_field("experiment", experiment);
    s.u64_field("id", id);
    s.str_field("subscribe", subscribe.as_str());
    entries(s);
    s.end_obj();
}

/// The header after the tag: experiment, the nonzero batch id, and the
/// subscription level.
fn read_submit_header<'a, S: Source<'a>>(
    s: &mut S,
    o: &mut S::Obj,
) -> Result<(String, u64, Subscribe), ProtoError> {
    let experiment = s.str_field(o, "experiment")?.into_owned();
    let id = s.u64_field(o, "id")?;
    if id == 0 {
        return malformed("submission id must be nonzero");
    }
    match Subscribe::parse(&s.str_field(o, "subscribe")?) {
        Some(subscribe) => Ok((experiment, id, subscribe)),
        None => malformed("subscribe must be none|final|all"),
    }
}

impl ClientFrame {
    fn write<S: Sink>(&self, s: &mut S) {
        let tag = match self {
            ClientFrame::SubmitBatch {
                experiment,
                id,
                subscribe,
                jobs,
            } => {
                return write_submit(s, "submit_batch", experiment, *id, *subscribe, |s| {
                    s.arr_field("jobs", jobs, write_job);
                });
            }
            ClientFrame::SubmitRefs {
                experiment,
                id,
                subscribe,
                refs,
            } => {
                return write_submit(s, "submit_refs", experiment, *id, *subscribe, |s| {
                    s.arr_field("refs", refs, |s, r| JobRef::write(s, &r.key, &r.label));
                });
            }
            ClientFrame::Ping => "ping",
            ClientFrame::Stats => "stats",
            ClientFrame::Metrics => "metrics",
            ClientFrame::Shutdown => "shutdown",
        };
        s.begin_obj();
        s.str_field("type", tag);
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<ClientFrame, ProtoError> {
        s.obj(|s, o| {
            Ok(match &*read_tag(s, o)? {
                "submit_batch" => {
                    let (experiment, id, subscribe) = read_submit_header(s, o)?;
                    ClientFrame::SubmitBatch {
                        experiment,
                        id,
                        subscribe,
                        jobs: s.arr_field(o, "jobs", read_job)?,
                    }
                }
                "submit_refs" => {
                    let (experiment, id, subscribe) = read_submit_header(s, o)?;
                    ClientFrame::SubmitRefs {
                        experiment,
                        id,
                        subscribe,
                        refs: s.arr_field(o, "refs", JobRef::read)?,
                    }
                }
                "ping" => ClientFrame::Ping,
                "stats" => ClientFrame::Stats,
                "metrics" => ClientFrame::Metrics,
                "shutdown" => ClientFrame::Shutdown,
                other => return malformed(format!("unknown client frame type {other:?}")),
            })
        })
    }
}

frame_drivers!(ClientFrame);

/// The `"type"` tag every frame leads with.
fn read_tag<'a, S: Source<'a>>(
    s: &mut S,
    o: &mut S::Obj,
) -> Result<std::borrow::Cow<'a, str>, ProtoError> {
    if !s.seek(o, "type")? {
        return malformed("frame has no \"type\" tag");
    }
    Ok(s.str()?)
}

/// Aggregate server counters, reported via [`ServerFrame::Stats`].
///
/// `submitted = deduped + flights`, where a *flight* is a job that got
/// its own execution slot; `executed + cache_hits` flights have resolved
/// so far. `deduped > 0` under concurrent identical submissions is the
/// observable proof of single-flight execution.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Job submissions accepted (counting every waiter, deduped or not).
    pub submitted: u64,
    /// Jobs actually simulated (cache misses that ran to completion).
    pub executed: u64,
    /// Jobs answered from the on-disk result cache.
    pub cache_hits: u64,
    /// Submissions that attached to an already-queued or running flight
    /// instead of enqueuing their own.
    pub deduped: u64,
    /// Running flights cancelled because every waiter disconnected.
    pub cancelled: u64,
    /// Queued flights discarded because every waiter disconnected.
    pub aborted: u64,
    /// Whole-batch submissions rejected by admission control.
    pub rejected: u64,
    /// Job results delivered to waiters.
    pub delivered: u64,
    /// Flights currently waiting in the queue.
    pub queued: u64,
    /// Flights currently executing on a worker.
    pub running: u64,
    /// Whether the server is draining toward exit.
    pub draining: bool,
}

// The body of a `stats` frame after its tag, and all of what
// `hfs-client stats` prints.
hfs_harness::wire! {
    fields ServeStats {
        submitted, executed, cache_hits, deduped, cancelled, aborted, rejected, delivered,
        queued, running, draining,
    }
}

/// A message from the server to a client.
#[derive(Debug, Clone)]
pub enum ServerFrame {
    /// The batch passed admission control; results will follow.
    Accepted {
        /// Echo of the submitted experiment name.
        experiment: String,
        /// Number of jobs accepted.
        total: u64,
        /// Echo of the batch id.
        id: u64,
    },
    /// The whole batch was rejected: the flight queue is full.
    Busy {
        /// Flights currently queued.
        queued: u64,
        /// The admission limit.
        limit: u64,
        /// Echo of the batch id.
        id: u64,
    },
    /// A chunk of resolved jobs. Chunks stream as results accumulate
    /// (after every result under `subscribe: all`); indexes within and
    /// across chunks arrive in resolution order, not submission order.
    BatchResults {
        /// The batch they belong to.
        experiment: String,
        /// Echo of the batch id.
        id: u64,
        /// The resolved jobs in this chunk.
        results: Vec<JobResult>,
    },
    /// A `submit_refs` chunk could not be fully resolved: at least one
    /// key is neither cached nor in flight. The whole chunk was dropped
    /// without side effects; the client re-sends it with full specs.
    RefsMiss {
        /// Echo of the chunk's batch id.
        id: u64,
        /// Chunk-relative indexes of the unresolved references.
        missing: Vec<u64>,
    },
    /// Every job of the batch has been delivered.
    Done {
        /// The batch that finished.
        experiment: String,
        /// Whether every job succeeded.
        ok: bool,
        /// Echo of the batch id.
        id: u64,
    },
    /// Counter snapshot, answering [`ClientFrame::Stats`].
    Stats(ServeStats),
    /// The live metric registry in Prometheus text exposition format,
    /// answering [`ClientFrame::Metrics`].
    Metrics {
        /// The exposition text (counters, gauges, summaries).
        text: String,
    },
    /// Liveness answer.
    Pong,
    /// The server is draining; new submissions are refused.
    ShuttingDown,
    /// The request could not be processed.
    Error {
        /// Human-readable reason.
        message: String,
    },
}

impl ServerFrame {
    fn write<S: Sink>(&self, s: &mut S) {
        s.begin_obj();
        match self {
            ServerFrame::Accepted {
                experiment,
                total,
                id,
            } => {
                s.str_field("type", "accepted");
                s.str_field("experiment", experiment);
                s.u64_field("total", *total);
                s.u64_field("id", *id);
            }
            ServerFrame::Busy { queued, limit, id } => {
                s.str_field("type", "busy");
                s.u64_field("queued", *queued);
                s.u64_field("limit", *limit);
                s.u64_field("id", *id);
            }
            ServerFrame::BatchResults {
                experiment,
                id,
                results,
            } => {
                s.str_field("type", "batch_results");
                s.str_field("experiment", experiment);
                s.u64_field("id", *id);
                s.arr_field("results", results, |s, r| r.write(s));
            }
            ServerFrame::RefsMiss { id, missing } => {
                s.str_field("type", "refs_miss");
                s.u64_field("id", *id);
                s.arr_field("missing", missing.iter().copied(), S::u64);
            }
            ServerFrame::Done { experiment, ok, id } => {
                s.str_field("type", "done");
                s.str_field("experiment", experiment);
                s.bool_field("ok", *ok);
                s.u64_field("id", *id);
            }
            ServerFrame::Stats(stats) => {
                s.str_field("type", "stats");
                stats.write_fields(s);
            }
            ServerFrame::Metrics { text } => {
                s.str_field("type", "metrics");
                s.str_field("text", text);
            }
            ServerFrame::Pong => s.str_field("type", "pong"),
            ServerFrame::ShuttingDown => s.str_field("type", "shutting_down"),
            ServerFrame::Error { message } => {
                s.str_field("type", "error");
                s.str_field("message", message);
            }
        }
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<ServerFrame, ProtoError> {
        s.obj(|s, o| {
            Ok(match &*read_tag(s, o)? {
                "accepted" => ServerFrame::Accepted {
                    experiment: s.str_field(o, "experiment")?.into_owned(),
                    total: s.u64_field(o, "total")?,
                    id: s.u64_field(o, "id")?,
                },
                "busy" => ServerFrame::Busy {
                    queued: s.u64_field(o, "queued")?,
                    limit: s.u64_field(o, "limit")?,
                    id: s.u64_field(o, "id")?,
                },
                "batch_results" => ServerFrame::BatchResults {
                    experiment: s.str_field(o, "experiment")?.into_owned(),
                    id: s.u64_field(o, "id")?,
                    results: s.arr_field(o, "results", JobResult::read)?,
                },
                "refs_miss" => ServerFrame::RefsMiss {
                    id: s.u64_field(o, "id")?,
                    missing: s.arr_field(o, "missing", S::u64)?,
                },
                "done" => ServerFrame::Done {
                    experiment: s.str_field(o, "experiment")?.into_owned(),
                    ok: s.bool_field(o, "ok")?,
                    id: s.u64_field(o, "id")?,
                },
                "stats" => ServerFrame::Stats(ServeStats::read_fields(s, o)?),
                "metrics" => ServerFrame::Metrics {
                    text: s.str_field(o, "text")?.into_owned(),
                },
                "pong" => ServerFrame::Pong,
                "shutting_down" => ServerFrame::ShuttingDown,
                "error" => ServerFrame::Error {
                    message: s.str_field(o, "message")?.into_owned(),
                },
                other => return malformed(format!("unknown server frame type {other:?}")),
            })
        })
    }
}

frame_drivers!(ServerFrame);

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};
    use hfs_harness::{execute, outcome_to_text};

    fn demo_job() -> Job {
        Job::pipeline(
            "proto/demo",
            KernelPair::simple("demo", 2, 40),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    fn decode_client(frame: &ClientFrame) -> Result<Option<ClientFrame>, ProtoError> {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        ClientFrame::read_from(&mut buf.as_slice())
    }

    fn pipe_client(frame: &ClientFrame) -> ClientFrame {
        decode_client(frame).unwrap().expect("a frame was written")
    }

    fn pipe_server(frame: &ServerFrame) -> ServerFrame {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        ServerFrame::read_from(&mut buf.as_slice())
            .unwrap()
            .expect("a frame was written")
    }

    #[test]
    fn refs_frames_round_trip_and_refuse_zero_ids_and_foreign_keys() {
        let refs = |id, key: &str| ClientFrame::SubmitRefs {
            experiment: "sweep".to_string(),
            id,
            subscribe: Subscribe::Final,
            refs: vec![JobRef {
                key: key.to_string(),
                label: "sweep/p0".to_string(),
            }],
        };
        match pipe_client(&refs(7, "00ff00ff00ff00ff")) {
            ClientFrame::SubmitRefs {
                experiment,
                id,
                subscribe,
                refs,
            } => {
                assert_eq!(experiment, "sweep");
                assert_eq!(id, 7);
                assert!(matches!(subscribe, Subscribe::Final));
                assert_eq!(refs.len(), 1);
                assert_eq!(refs[0].key, "00ff00ff00ff00ff");
                assert_eq!(refs[0].label, "sweep/p0");
            }
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(
            decode_client(&refs(0, "00ff00ff00ff00ff")).is_err(),
            "id 0 must be rejected"
        );
        // A key is a file name server-side: only the exact key shape
        // decodes.
        for foreign in ["../victim", "00ff00ff00ff00f", "00FF00FF00FF00FF"] {
            assert!(
                matches!(
                    decode_client(&refs(7, foreign)),
                    Err(ProtoError::Malformed(_))
                ),
                "{foreign:?}"
            );
        }
    }

    #[test]
    fn refs_miss_round_trips() {
        let frame = ServerFrame::RefsMiss {
            id: 9,
            missing: vec![0, 3, 511],
        };
        match pipe_server(&frame) {
            ServerFrame::RefsMiss { id, missing } => {
                assert_eq!(id, 9);
                assert_eq!(missing, vec![0, 3, 511]);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn submit_batch_round_trips_id_subscribe_and_jobs() {
        let job = demo_job();
        for sub in [Subscribe::None, Subscribe::Final, Subscribe::All] {
            let frame = ClientFrame::SubmitBatch {
                experiment: "sweep".to_string(),
                id: 7,
                subscribe: sub,
                jobs: vec![job.clone()],
            };
            match pipe_client(&frame) {
                ClientFrame::SubmitBatch {
                    experiment,
                    id,
                    subscribe,
                    jobs,
                } => {
                    assert_eq!(experiment, "sweep");
                    assert_eq!(id, 7);
                    assert_eq!(subscribe, sub);
                    // Key equality is the strong property: the decoded
                    // job hits the same cache entry and simulates
                    // identically.
                    assert_eq!(jobs[0].key(), job.key());
                    assert_eq!(jobs[0].label, job.label);
                }
                other => panic!("wrong frame: {other:?}"),
            }
        }
    }

    #[test]
    fn raw_splice_survives_hostile_outcome_text_byte_identically() {
        // Outcome text carrying quotes, backslashes, control characters
        // and multi-byte UTF-8: the hot-cache splice (`Sink::raw`) must
        // deliver exactly the bytes the parsed path would re-encode.
        let nasty = "q\"uote \\back\\slash\\ \nπ🚀é \t\u{1} end";
        let mut ok = execute(&demo_job(), 0);
        if let JobOutcome::Ok(r) = &mut ok {
            r.design = nasty.to_string();
        }
        for outcome in [ok, JobOutcome::WorkerDied(nasty.to_string())] {
            // What the caches hold (compact) and what a caller of
            // `HotCache::insert` may bring (pretty): either splices.
            let pretty = to_text(true, |s| write_outcome(s, &outcome));
            for text in [outcome_to_text(&outcome), pretty.clone()] {
                let text: Arc<str> = text.into();
                let mk = |encoded| ServerFrame::BatchResults {
                    experiment: "sweep".to_string(),
                    id: 5,
                    results: vec![JobResult {
                        index: 0,
                        label: nasty.to_string(),
                        key: "0123456789abcdef".to_string(),
                        cached: true,
                        outcome: outcome.clone(),
                        encoded,
                    }],
                };
                let (plain, spliced) = (
                    pipe_server(&mk(None)),
                    pipe_server(&mk(Some(Arc::clone(&text)))),
                );
                match (plain, spliced) {
                    (
                        ServerFrame::BatchResults { results: a, .. },
                        ServerFrame::BatchResults { results: b, .. },
                    ) => {
                        assert_eq!(
                            to_text(true, |s| write_outcome(s, &a[0].outcome)),
                            pretty,
                            "parsed path must reproduce the source bytes"
                        );
                        assert_eq!(
                            to_text(true, |s| write_outcome(s, &b[0].outcome)),
                            pretty,
                            "spliced path must reproduce the source bytes"
                        );
                        assert_eq!(a[0].label, nasty);
                        assert_eq!(b[0].label, nasty);
                        assert!(b[0].encoded.is_none(), "decoders never set `encoded`");
                    }
                    other => panic!("wrong frames: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn zero_batch_id_is_rejected() {
        let frame = ClientFrame::SubmitBatch {
            experiment: "sweep".to_string(),
            id: 0,
            subscribe: Subscribe::Final,
            jobs: vec![],
        };
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        assert!(ClientFrame::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn batch_results_round_trip_and_ids_echo() {
        let outcome = execute(&demo_job(), 0);
        let cycles = outcome.ok().expect("demo job runs").cycles;
        let frame = ServerFrame::BatchResults {
            experiment: "sweep".to_string(),
            id: 9,
            results: vec![
                JobResult {
                    index: 4,
                    label: "sweep/a".to_string(),
                    key: "0123456789abcdef".to_string(),
                    cached: true,
                    outcome: outcome.clone(),
                    encoded: None,
                },
                JobResult {
                    index: 2,
                    label: "sweep/b".to_string(),
                    key: "fedcba9876543210".to_string(),
                    cached: false,
                    outcome: JobOutcome::WorkerDied("worker 0 died".to_string()),
                    encoded: None,
                },
            ],
        };
        match pipe_server(&frame) {
            ServerFrame::BatchResults { id, results, .. } => {
                assert_eq!(id, 9);
                assert_eq!(results.len(), 2);
                assert_eq!(results[0].index, 4);
                assert_eq!(results[0].outcome.ok().unwrap().cycles, cycles);
                assert_eq!(results[1].outcome.status(), "worker_died");
            }
            other => panic!("wrong frame: {other:?}"),
        }
        match pipe_server(&ServerFrame::Done {
            experiment: "sweep".to_string(),
            ok: true,
            id: 9,
        }) {
            ServerFrame::Done { id, .. } => assert_eq!(id, 9),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn control_frames_round_trip() {
        assert!(matches!(pipe_client(&ClientFrame::Ping), ClientFrame::Ping));
        assert!(matches!(
            pipe_client(&ClientFrame::Stats),
            ClientFrame::Stats
        ));
        assert!(matches!(
            pipe_client(&ClientFrame::Shutdown),
            ClientFrame::Shutdown
        ));
        assert!(matches!(pipe_server(&ServerFrame::Pong), ServerFrame::Pong));
        assert!(matches!(
            pipe_server(&ServerFrame::ShuttingDown),
            ServerFrame::ShuttingDown
        ));
    }

    #[test]
    fn stats_round_trip() {
        let stats = ServeStats {
            submitted: 10,
            executed: 4,
            cache_hits: 2,
            deduped: 4,
            cancelled: 1,
            aborted: 1,
            rejected: 2,
            delivered: 9,
            queued: 3,
            running: 2,
            draining: true,
        };
        match pipe_server(&ServerFrame::Stats(stats)) {
            ServerFrame::Stats(back) => assert_eq!(back, stats),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn metrics_frames_round_trip() {
        assert!(matches!(
            pipe_client(&ClientFrame::Metrics),
            ClientFrame::Metrics
        ));
        let text = "# TYPE hfs_jobs_submitted_total counter\nhfs_jobs_submitted_total 7\n";
        match pipe_server(&ServerFrame::Metrics {
            text: text.to_string(),
        }) {
            ServerFrame::Metrics { text: back } => assert_eq!(back, text),
            other => panic!("wrong frame: {other:?}"),
        }
    }

    #[test]
    fn multiple_frames_stream_back_to_back() {
        let mut buf = Vec::new();
        ClientFrame::Ping.write_to(&mut buf).unwrap();
        ClientFrame::Stats.write_to(&mut buf).unwrap();
        let mut r = buf.as_slice();
        assert!(matches!(
            ClientFrame::read_from(&mut r).unwrap(),
            Some(ClientFrame::Ping)
        ));
        assert!(matches!(
            ClientFrame::read_from(&mut r).unwrap(),
            Some(ClientFrame::Stats)
        ));
        assert!(ClientFrame::read_from(&mut r).unwrap().is_none());
    }

    #[test]
    fn truncated_prefix_is_an_error_not_eof() {
        let mut buf = Vec::new();
        ClientFrame::Ping.write_to(&mut buf).unwrap();
        buf.truncate(2);
        assert!(ClientFrame::read_from(&mut buf.as_slice()).is_err());
    }

    #[test]
    fn oversized_length_prefix_is_rejected() {
        let mut buf = Vec::from(u32::MAX.to_be_bytes());
        buf.extend_from_slice(b"xx");
        match read_frame(&mut buf.as_slice()) {
            Err(ProtoError::TooLarge(_)) => {}
            other => panic!("expected TooLarge, got {other:?}"),
        }
    }

    #[test]
    fn unknown_frame_types_fail_loudly() {
        // `submit` and `job` were frames once; a peer that still speaks
        // them must hear about it.
        for tag in ["warp_core", "submit", "job"] {
            let body = format!("{{\"type\":\"{tag}\"}}");
            let mut frame = (body.len() as u32).to_be_bytes().to_vec();
            frame.extend_from_slice(body.as_bytes());
            assert!(
                ClientFrame::read_from(&mut frame.as_slice()).is_err(),
                "{tag}"
            );
            assert!(
                ServerFrame::read_from(&mut frame.as_slice()).is_err(),
                "{tag}"
            );
        }
    }
}
