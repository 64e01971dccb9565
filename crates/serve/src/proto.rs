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
//! version skew fails loudly instead of silently dropping work.

use std::io::{self, Read, Write};
use std::sync::Arc;

use hfs_harness::{
    is_cache_key, job_from_json, job_to_json, outcome_from_json, outcome_to_json, parse,
    DecodeError, Job, JobOutcome, Json, ParseError,
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

impl From<ParseError> for ProtoError {
    fn from(e: ParseError) -> ProtoError {
        ProtoError::Parse(e)
    }
}

impl From<DecodeError> for ProtoError {
    fn from(e: DecodeError) -> ProtoError {
        ProtoError::Decode(e)
    }
}

/// Writes one frame: 4-byte big-endian length, then the compact JSON.
///
/// # Errors
///
/// Propagates transport write failures.
pub fn write_frame(w: &mut impl Write, body: &Json) -> io::Result<()> {
    let text = body.to_string();
    let len = u32::try_from(text.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "frame body too large"))?;
    w.write_all(&len.to_be_bytes())?;
    w.write_all(text.as_bytes())?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF *between* frames
/// (the peer closed); EOF mid-frame is an error.
///
/// # Errors
///
/// Transport failures, oversized length prefixes, and invalid JSON.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Json>, ProtoError> {
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
    let text = String::from_utf8(body)
        .map_err(|_| ProtoError::Malformed("frame body is not UTF-8".to_string()))?;
    Ok(Some(parse(&text)?))
}

fn tag_of(v: &Json) -> Result<&str, ProtoError> {
    v.get("type")
        .and_then(Json::as_str)
        .ok_or_else(|| ProtoError::Malformed("frame has no \"type\" tag".to_string()))
}

fn str_field(v: &Json, key: &str) -> Result<String, ProtoError> {
    v.get(key)
        .and_then(Json::as_str)
        .map(str::to_string)
        .ok_or_else(|| ProtoError::Malformed(format!("missing string field \"{key}\"")))
}

fn u64_field(v: &Json, key: &str) -> Result<u64, ProtoError> {
    v.get(key)
        .and_then(Json::as_u64)
        .ok_or_else(|| ProtoError::Malformed(format!("missing integer field \"{key}\"")))
}

fn bool_field(v: &Json, key: &str) -> Result<bool, ProtoError> {
    match v.get(key) {
        Some(Json::Bool(b)) => Ok(*b),
        _ => Err(ProtoError::Malformed(format!(
            "missing boolean field \"{key}\""
        ))),
    }
}

fn arr_field<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], ProtoError> {
    v.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| ProtoError::Malformed(format!("missing array field \"{key}\"")))
}

/// The fields `submit_batch` and `submit_refs` share: experiment, the
/// nonzero batch id, and the subscription level.
fn submit_header(v: &Json) -> Result<(String, u64, Subscribe), ProtoError> {
    let id = u64_field(v, "id")?;
    if id == 0 {
        return Err(ProtoError::Malformed(
            "submission id must be nonzero".to_string(),
        ));
    }
    let subscribe = Subscribe::parse(&str_field(v, "subscribe")?)
        .ok_or_else(|| ProtoError::Malformed("subscribe must be none|final|all".to_string()))?;
    Ok((str_field(v, "experiment")?, id, subscribe))
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
    fn to_json(&self) -> Json {
        let outcome = match &self.encoded {
            Some(text) => Json::Raw(Arc::clone(text)),
            None => outcome_to_json(&self.outcome),
        };
        Json::obj(vec![
            ("index", Json::U64(self.index)),
            ("label", Json::Str(self.label.clone())),
            ("key", Json::Str(self.key.clone())),
            ("cached", Json::Bool(self.cached)),
            ("outcome", outcome),
        ])
    }

    fn from_json(v: &Json) -> Result<JobResult, ProtoError> {
        Ok(JobResult {
            index: u64_field(v, "index")?,
            label: str_field(v, "label")?,
            key: str_field(v, "key")?,
            cached: bool_field(v, "cached")?,
            outcome: outcome_from_json(
                v.get("outcome")
                    .ok_or_else(|| ProtoError::Malformed("result has no outcome".to_string()))?,
            )?,
            encoded: None,
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
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("key", Json::Str(self.key.clone())),
            ("label", Json::Str(self.label.clone())),
        ])
    }

    fn from_json(v: &Json) -> Result<JobRef, ProtoError> {
        let key = str_field(v, "key")?;
        if !is_cache_key(&key) {
            // The key names a file in the server's cache directory.
            return Err(ProtoError::Malformed(format!(
                "ref key {key:?} is not 16 lowercase hex digits"
            )));
        }
        Ok(JobRef {
            key,
            label: str_field(v, "label")?,
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

impl ClientFrame {
    /// Encodes the frame body.
    pub fn to_json(&self) -> Json {
        match self {
            ClientFrame::SubmitBatch {
                experiment,
                id,
                subscribe,
                jobs,
            } => Json::obj(vec![
                ("type", Json::Str("submit_batch".to_string())),
                ("experiment", Json::Str(experiment.clone())),
                ("id", Json::U64(*id)),
                ("subscribe", Json::Str(subscribe.as_str().to_string())),
                ("jobs", Json::Arr(jobs.iter().map(job_to_json).collect())),
            ]),
            ClientFrame::SubmitRefs {
                experiment,
                id,
                subscribe,
                refs,
            } => Json::obj(vec![
                ("type", Json::Str("submit_refs".to_string())),
                ("experiment", Json::Str(experiment.clone())),
                ("id", Json::U64(*id)),
                ("subscribe", Json::Str(subscribe.as_str().to_string())),
                (
                    "refs",
                    Json::Arr(refs.iter().map(JobRef::to_json).collect()),
                ),
            ]),
            ClientFrame::Ping => Json::obj(vec![("type", Json::Str("ping".to_string()))]),
            ClientFrame::Stats => Json::obj(vec![("type", Json::Str("stats".to_string()))]),
            ClientFrame::Metrics => Json::obj(vec![("type", Json::Str("metrics".to_string()))]),
            ClientFrame::Shutdown => Json::obj(vec![("type", Json::Str("shutdown".to_string()))]),
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown tags or missing fields.
    pub fn from_json(v: &Json) -> Result<ClientFrame, ProtoError> {
        match tag_of(v)? {
            "submit_batch" => {
                let (experiment, id, subscribe) = submit_header(v)?;
                let jobs = arr_field(v, "jobs")?
                    .iter()
                    .map(job_from_json)
                    .collect::<Result<Vec<Job>, DecodeError>>()?;
                Ok(ClientFrame::SubmitBatch {
                    experiment,
                    id,
                    subscribe,
                    jobs,
                })
            }
            "submit_refs" => {
                let (experiment, id, subscribe) = submit_header(v)?;
                let refs = arr_field(v, "refs")?
                    .iter()
                    .map(JobRef::from_json)
                    .collect::<Result<Vec<_>, _>>()?;
                Ok(ClientFrame::SubmitRefs {
                    experiment,
                    id,
                    subscribe,
                    refs,
                })
            }
            "ping" => Ok(ClientFrame::Ping),
            "stats" => Ok(ClientFrame::Stats),
            "metrics" => Ok(ClientFrame::Metrics),
            "shutdown" => Ok(ClientFrame::Shutdown),
            other => Err(ProtoError::Malformed(format!(
                "unknown client frame type {other:?}"
            ))),
        }
    }

    /// Writes the frame to a transport.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, &self.to_json())
    }

    /// Reads the next client frame; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Transport or decode failures.
    pub fn read_from(r: &mut impl Read) -> Result<Option<ClientFrame>, ProtoError> {
        match read_frame(r)? {
            None => Ok(None),
            Some(v) => ClientFrame::from_json(&v).map(Some),
        }
    }
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

impl ServeStats {
    /// Encodes the snapshot as a stats frame body (sans tag).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("submitted", Json::U64(self.submitted)),
            ("executed", Json::U64(self.executed)),
            ("cache_hits", Json::U64(self.cache_hits)),
            ("deduped", Json::U64(self.deduped)),
            ("cancelled", Json::U64(self.cancelled)),
            ("aborted", Json::U64(self.aborted)),
            ("rejected", Json::U64(self.rejected)),
            ("delivered", Json::U64(self.delivered)),
            ("queued", Json::U64(self.queued)),
            ("running", Json::U64(self.running)),
            ("draining", Json::Bool(self.draining)),
        ])
    }

    /// Decodes a snapshot from a stats frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on missing fields.
    pub fn from_json(v: &Json) -> Result<ServeStats, ProtoError> {
        Ok(ServeStats {
            submitted: u64_field(v, "submitted")?,
            executed: u64_field(v, "executed")?,
            cache_hits: u64_field(v, "cache_hits")?,
            deduped: u64_field(v, "deduped")?,
            cancelled: u64_field(v, "cancelled")?,
            aborted: u64_field(v, "aborted")?,
            rejected: u64_field(v, "rejected")?,
            delivered: u64_field(v, "delivered")?,
            queued: u64_field(v, "queued")?,
            running: u64_field(v, "running")?,
            draining: bool_field(v, "draining")?,
        })
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
    /// Encodes the frame body.
    pub fn to_json(&self) -> Json {
        match self {
            ServerFrame::Accepted {
                experiment,
                total,
                id,
            } => Json::obj(vec![
                ("type", Json::Str("accepted".to_string())),
                ("experiment", Json::Str(experiment.clone())),
                ("total", Json::U64(*total)),
                ("id", Json::U64(*id)),
            ]),
            ServerFrame::Busy { queued, limit, id } => Json::obj(vec![
                ("type", Json::Str("busy".to_string())),
                ("queued", Json::U64(*queued)),
                ("limit", Json::U64(*limit)),
                ("id", Json::U64(*id)),
            ]),
            ServerFrame::BatchResults {
                experiment,
                id,
                results,
            } => Json::obj(vec![
                ("type", Json::Str("batch_results".to_string())),
                ("experiment", Json::Str(experiment.clone())),
                ("id", Json::U64(*id)),
                (
                    "results",
                    Json::Arr(results.iter().map(JobResult::to_json).collect()),
                ),
            ]),
            ServerFrame::RefsMiss { id, missing } => Json::obj(vec![
                ("type", Json::Str("refs_miss".to_string())),
                ("id", Json::U64(*id)),
                (
                    "missing",
                    Json::Arr(missing.iter().map(|&i| Json::U64(i)).collect()),
                ),
            ]),
            ServerFrame::Done { experiment, ok, id } => Json::obj(vec![
                ("type", Json::Str("done".to_string())),
                ("experiment", Json::Str(experiment.clone())),
                ("ok", Json::Bool(*ok)),
                ("id", Json::U64(*id)),
            ]),
            ServerFrame::Stats(stats) => {
                let mut body = vec![("type".to_string(), Json::Str("stats".to_string()))];
                if let Json::Obj(pairs) = stats.to_json() {
                    body.extend(pairs);
                }
                Json::Obj(body)
            }
            ServerFrame::Metrics { text } => Json::obj(vec![
                ("type", Json::Str("metrics".to_string())),
                ("text", Json::Str(text.clone())),
            ]),
            ServerFrame::Pong => Json::obj(vec![("type", Json::Str("pong".to_string()))]),
            ServerFrame::ShuttingDown => {
                Json::obj(vec![("type", Json::Str("shutting_down".to_string()))])
            }
            ServerFrame::Error { message } => Json::obj(vec![
                ("type", Json::Str("error".to_string())),
                ("message", Json::Str(message.clone())),
            ]),
        }
    }

    /// Decodes a frame body.
    ///
    /// # Errors
    ///
    /// [`ProtoError::Malformed`] on unknown tags or missing fields.
    pub fn from_json(v: &Json) -> Result<ServerFrame, ProtoError> {
        match tag_of(v)? {
            "accepted" => Ok(ServerFrame::Accepted {
                experiment: str_field(v, "experiment")?,
                total: u64_field(v, "total")?,
                id: u64_field(v, "id")?,
            }),
            "busy" => Ok(ServerFrame::Busy {
                queued: u64_field(v, "queued")?,
                limit: u64_field(v, "limit")?,
                id: u64_field(v, "id")?,
            }),
            "batch_results" => Ok(ServerFrame::BatchResults {
                experiment: str_field(v, "experiment")?,
                id: u64_field(v, "id")?,
                results: arr_field(v, "results")?
                    .iter()
                    .map(JobResult::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "refs_miss" => Ok(ServerFrame::RefsMiss {
                id: u64_field(v, "id")?,
                missing: arr_field(v, "missing")?
                    .iter()
                    .map(|e| {
                        e.as_u64().ok_or_else(|| {
                            ProtoError::Malformed("refs_miss index is not a u64".to_string())
                        })
                    })
                    .collect::<Result<Vec<_>, _>>()?,
            }),
            "done" => Ok(ServerFrame::Done {
                experiment: str_field(v, "experiment")?,
                ok: bool_field(v, "ok")?,
                id: u64_field(v, "id")?,
            }),
            "stats" => Ok(ServerFrame::Stats(ServeStats::from_json(v)?)),
            "metrics" => Ok(ServerFrame::Metrics {
                text: str_field(v, "text")?,
            }),
            "pong" => Ok(ServerFrame::Pong),
            "shutting_down" => Ok(ServerFrame::ShuttingDown),
            "error" => Ok(ServerFrame::Error {
                message: str_field(v, "message")?,
            }),
            other => Err(ProtoError::Malformed(format!(
                "unknown server frame type {other:?}"
            ))),
        }
    }

    /// Writes the frame to a transport.
    ///
    /// # Errors
    ///
    /// Propagates transport write failures.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        write_frame(w, &self.to_json())
    }

    /// Reads the next server frame; `Ok(None)` on clean EOF.
    ///
    /// # Errors
    ///
    /// Transport or decode failures.
    pub fn read_from(r: &mut impl Read) -> Result<Option<ServerFrame>, ProtoError> {
        match read_frame(r)? {
            None => Ok(None),
            Some(v) => ServerFrame::from_json(&v).map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};
    use hfs_harness::execute;

    fn demo_job() -> Job {
        Job::pipeline(
            "proto/demo",
            KernelPair::simple("demo", 2, 40),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    fn pipe_client(frame: &ClientFrame) -> ClientFrame {
        let mut buf = Vec::new();
        frame.write_to(&mut buf).unwrap();
        ClientFrame::read_from(&mut buf.as_slice())
            .unwrap()
            .expect("a frame was written")
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
        let frame = ClientFrame::SubmitRefs {
            experiment: "sweep".to_string(),
            id: 7,
            subscribe: Subscribe::Final,
            refs: vec![JobRef {
                key: "00ff00ff00ff00ff".to_string(),
                label: "sweep/p0".to_string(),
            }],
        };
        match pipe_client(&frame) {
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
        let mut body = frame.to_json();
        if let Json::Obj(pairs) = &mut body {
            for (k, v) in pairs.iter_mut() {
                if k == "id" {
                    *v = Json::U64(0);
                }
            }
        }
        assert!(
            ClientFrame::from_json(&body).is_err(),
            "id 0 must be rejected"
        );
        // A key is a file name server-side: only the exact key shape
        // decodes.
        for foreign in ["../victim", "00ff00ff00ff00f", "00FF00FF00FF00FF"] {
            let frame = ClientFrame::SubmitRefs {
                experiment: "sweep".to_string(),
                id: 7,
                subscribe: Subscribe::Final,
                refs: vec![JobRef {
                    key: foreign.to_string(),
                    label: "sweep/p0".to_string(),
                }],
            };
            assert!(
                matches!(
                    ClientFrame::from_json(&frame.to_json()),
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
        // and multi-byte UTF-8: the hot-cache splice (`Json::Raw`) must
        // deliver exactly the bytes the parsed path would re-encode.
        let nasty = "q\"uote \\back\\slash\\ \nπ🚀é \t\u{1} end";
        let mut ok = execute(&demo_job(), 0);
        if let JobOutcome::Ok(r) = &mut ok {
            r.design = nasty.to_string();
        }
        for outcome in [ok, JobOutcome::WorkerDied(nasty.to_string())] {
            let text: Arc<str> = outcome_to_json(&outcome).to_pretty().into();
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
                        outcome_to_json(&a[0].outcome).to_pretty(),
                        text.as_ref(),
                        "parsed path must reproduce the source bytes"
                    );
                    assert_eq!(
                        outcome_to_json(&b[0].outcome).to_pretty(),
                        text.as_ref(),
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
            let v = Json::obj(vec![("type", Json::Str(tag.to_string()))]);
            assert!(ClientFrame::from_json(&v).is_err(), "{tag}");
            assert!(ServerFrame::from_json(&v).is_err(), "{tag}");
        }
    }
}
