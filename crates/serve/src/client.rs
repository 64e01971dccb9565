//! Client-side library for talking to an `hfs-serve` instance.
//!
//! [`Client::submit_batched`] carries a sweep of any size through the
//! server and reassembles the answers into the same
//! [`hfs_harness::Batch`] the offline [`hfs_harness::Engine`] produces —
//! so `Batch::write_artifact` yields byte-identical
//! `results/<experiment>.json` files whichever path ran the jobs. It
//! splits the jobs into chunks of [`SUBMIT_CHUNK`], keeps
//! [`SUBMIT_WINDOW`] of them in flight so the server never idles
//! between chunks, offers each chunk by content key first and as full
//! specs only once the server reports a miss, and rides out `busy`
//! rejections with bounded retries. [`Client::submit`] is the same
//! conversation with a result frame per job.

use std::collections::{HashMap, VecDeque};
use std::io;
use std::time::Duration;

use hfs_harness::{write_job, Batch, Job, JobOutcome, Record, Sink};

use crate::net::{Endpoint, Stream};
use crate::proto::{
    write_frame, write_submit, ClientFrame, JobRef, ProtoError, ServeStats, ServerFrame, Subscribe,
};

/// Jobs per submission frame. With [`SUBMIT_WINDOW`] chunks in flight
/// this keeps at most `DEFAULT_QUEUE_LIMIT` jobs enqueued server-side,
/// so a lone client never trips a default server's admission control;
/// against a smaller limit the client shrinks its chunks to fit.
pub const SUBMIT_CHUNK: usize = 512;

/// Chunks kept in flight.
pub const SUBMIT_WINDOW: usize = 2;

/// Consecutive `busy` rejections tolerated before the batched path
/// gives up (each idle retry backs off 50ms).
const BUSY_RETRY_LIMIT: u32 = 1200;

/// Anything that can go wrong on the client side.
#[derive(Debug)]
pub enum ClientError {
    /// No `HFS_SOCK`/`HFS_ADDR` in the environment.
    NoEndpoint,
    /// Transport failure.
    Io(io::Error),
    /// Protocol failure.
    Proto(ProtoError),
    /// The server rejected the batch: its queue is full.
    Busy {
        /// Flights queued server-side at rejection time.
        queued: u64,
        /// The server's admission limit.
        limit: u64,
    },
    /// The server is draining and refused the request.
    ShuttingDown,
    /// The server reported an error frame.
    Server(String),
    /// The server broke the protocol's sequencing rules.
    Unexpected(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::NoEndpoint => {
                write!(f, "no server endpoint: set HFS_SOCK (or HFS_ADDR)")
            }
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Proto(e) => write!(f, "protocol error: {e}"),
            ClientError::Busy { queued, limit } => {
                write!(f, "server busy: {queued} flights queued (limit {limit})")
            }
            ClientError::ShuttingDown => write!(f, "server is shutting down"),
            ClientError::Server(m) => write!(f, "server error: {m}"),
            ClientError::Unexpected(m) => write!(f, "unexpected server behavior: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<ProtoError> for ClientError {
    fn from(e: ProtoError) -> ClientError {
        ClientError::Proto(e)
    }
}

/// A per-job progress update, lent to the submit callbacks as results
/// arrive (completion order, not submission order).
#[derive(Debug, Clone, Copy)]
pub struct JobUpdate<'a> {
    /// How many of the batch's jobs have resolved, this one included.
    pub finished: u64,
    /// Total jobs in the batch.
    pub total: u64,
    /// The resolved job's label.
    pub label: &'a str,
    /// Whether it was served from the server's cache.
    pub cached: bool,
    /// Its outcome.
    pub outcome: &'a JobOutcome,
}

/// A connection to an `hfs-serve` instance.
pub struct Client {
    stream: Stream,
}

impl Client {
    /// Connects to an explicit endpoint.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(endpoint: &Endpoint) -> io::Result<Client> {
        Ok(Client {
            stream: endpoint.connect()?,
        })
    }

    /// Connects to the endpoint named by `HFS_SOCK`/`HFS_ADDR`.
    ///
    /// # Errors
    ///
    /// [`ClientError::NoEndpoint`] when neither variable is set, else
    /// connect failures.
    pub fn from_env() -> Result<Client, ClientError> {
        let endpoint = Endpoint::from_env().ok_or(ClientError::NoEndpoint)?;
        Ok(Client::connect(&endpoint)?)
    }

    fn read_frame(&mut self) -> Result<ServerFrame, ClientError> {
        match ServerFrame::read_from(&mut self.stream)? {
            Some(frame) => Ok(frame),
            None => Err(ClientError::Unexpected(
                "server closed the connection mid-conversation".to_string(),
            )),
        }
    }

    /// Liveness round-trip.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-`pong` answer.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        ClientFrame::Ping.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Pong => Ok(()),
            other => Err(ClientError::Unexpected(format!(
                "expected pong, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's counter snapshot.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-`stats` answer.
    pub fn stats(&mut self) -> Result<ServeStats, ClientError> {
        ClientFrame::Stats.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Stats(s) => Ok(s),
            other => Err(ClientError::Unexpected(format!(
                "expected stats, got {other:?}"
            ))),
        }
    }

    /// Fetches the server's live metric registry as Prometheus text
    /// exposition (counters, gauges, and p50/p95/p99 summaries).
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or a non-`metrics` answer.
    pub fn metrics(&mut self) -> Result<String, ClientError> {
        ClientFrame::Metrics.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::Metrics { text } => Ok(text),
            other => Err(ClientError::Unexpected(format!(
                "expected metrics, got {other:?}"
            ))),
        }
    }

    /// Asks the server to drain and exit; returns once acknowledged.
    ///
    /// # Errors
    ///
    /// Transport/protocol failures, or an unexpected answer.
    pub fn shutdown_server(&mut self) -> Result<(), ClientError> {
        ClientFrame::Shutdown.write_to(&mut self.stream)?;
        match self.read_frame()? {
            ServerFrame::ShuttingDown => Ok(()),
            other => Err(ClientError::Unexpected(format!(
                "expected shutting_down, got {other:?}"
            ))),
        }
    }

    /// [`Client::submit_batched`] with [`Subscribe::All`]: the server
    /// sends every result as it resolves, so `on_update` fires per job
    /// while later jobs are still running.
    ///
    /// # Errors
    ///
    /// As [`Client::submit_batched`].
    pub fn submit(
        &mut self,
        experiment: &str,
        jobs: Vec<Job>,
        on_update: impl FnMut(&JobUpdate<'_>),
    ) -> Result<Batch, ClientError> {
        self.submit_batched(experiment, jobs, Subscribe::All, on_update)
    }

    /// Submits a sweep and blocks until every job has resolved. The
    /// returned [`Batch`] holds records in submission order, exactly
    /// like [`hfs_harness::Engine::run_batch`].
    ///
    /// `subscribe` picks the result traffic: [`Subscribe::Final`]
    /// streams results in chunked frames (the default choice);
    /// [`Subscribe::All`] a frame per result; [`Subscribe::None`]
    /// suppresses them entirely — a cache-priming mode that returns an
    /// empty-record [`Batch`].
    ///
    /// Jobs travel in chunks of [`SUBMIT_CHUNK`], [`SUBMIT_WINDOW`] in
    /// flight. Chunks are first offered as `submit_refs` — content keys
    /// plus labels, a few dozen bytes per job instead of a full spec —
    /// so a warm resweep costs neither client-side job serialization nor
    /// server-side parsing. If any key is unknown server-side the whole
    /// chunk bounces back (`refs_miss`, side-effect free) and this and
    /// every later chunk goes as full `submit_batch` specs.
    ///
    /// A `busy` rejection is not fatal. A chunk larger than the limit
    /// the frame reports could never be admitted, so it (and every
    /// later chunk) is cut to fit and sent again at once; otherwise the
    /// chunk is requeued and retried once a whole in-flight chunk
    /// drains (or after a 50ms backoff when nothing is in flight), up
    /// to a bounded number of consecutive rejections.
    ///
    /// # Errors
    ///
    /// [`ClientError::Busy`] after the retry budget is exhausted,
    /// [`ClientError::ShuttingDown`] on server drain, plus transport,
    /// protocol, and sequencing failures.
    pub fn submit_batched(
        &mut self,
        experiment: &str,
        jobs: Vec<Job>,
        subscribe: Subscribe,
        mut on_update: impl FnMut(&JobUpdate<'_>),
    ) -> Result<Batch, ClientError> {
        let total = jobs.len() as u64;
        if jobs.is_empty() {
            return Ok(Batch {
                name: experiment.to_string(),
                records: Vec::new(),
            });
        }
        // Key-reference probing starts on and latches off at the first
        // `refs_miss`: a sweep is either warm (every chunk resolves
        // from the server's caches) or cold (one bounced chunk per
        // window slot, then full specs for the rest).
        let mut use_refs = true;
        // Largest chunk worth sending; a `busy` frame can lower it.
        let mut fit = SUBMIT_CHUNK;

        // Unsent jobs, cut into chunks of `fit` as they are sent. Chunk
        // ids count up from 1; `base_of` maps them back to global slot
        // positions and doubles as the outstanding-chunk set (an id
        // enters when its chunk is cut and leaves on `done`).
        let mut pending: VecDeque<(u64, Vec<Job>)> = VecDeque::from([(1, jobs)]);
        let mut base_of: HashMap<u64, usize> = HashMap::from([(1, 0)]);
        let mut next_id = 2u64;

        let mut slots: Vec<Option<Record>> = (0..total).map(|_| None).collect();
        // Chunks written but not yet accepted keep their jobs here in
        // case a `busy` bounces them back to `pending`.
        let mut awaiting: HashMap<u64, Vec<Job>> = HashMap::new();
        let mut finished: u64 = 0;
        let mut in_flight = 0usize;
        let mut stalled = false;
        let mut consecutive_busy: u32 = 0;

        while !base_of.is_empty() {
            // Keep the window full — unless the server just said busy,
            // in which case resubmitting before anything drained would
            // only spin on rejections.
            while in_flight < SUBMIT_WINDOW && !pending.is_empty() && (!stalled || in_flight == 0) {
                if stalled {
                    // Nothing of ours is in flight, so no result
                    // traffic will free queue space; back off in time
                    // instead.
                    std::thread::sleep(Duration::from_millis(50));
                    stalled = false;
                }
                let (id, mut chunk) = pending.pop_front().expect("checked non-empty");
                if chunk.len() > fit {
                    let tail = chunk.split_off(fit);
                    base_of.insert(next_id, base_of[&id] + fit);
                    pending.push_front((next_id, tail));
                    next_id += 1;
                }
                // The frame borrows the chunk: what `ClientFrame::
                // {SubmitRefs, SubmitBatch}` would write, without cloning
                // a key, a label or a job into one.
                write_frame(&mut self.stream, |w| {
                    if use_refs {
                        write_submit(w, "submit_refs", experiment, id, subscribe, |w| {
                            w.arr_field("refs", &chunk, |w, j| {
                                JobRef::write(w, j.key_ref(), &j.label);
                            });
                        });
                    } else {
                        write_submit(w, "submit_batch", experiment, id, subscribe, |w| {
                            w.arr_field("jobs", &chunk, write_job);
                        });
                    }
                })?;
                awaiting.insert(id, chunk);
                in_flight += 1;
            }
            match self.read_frame()? {
                ServerFrame::Accepted {
                    experiment: e, id, ..
                } => {
                    if e != experiment || awaiting.remove(&id).is_none() {
                        return Err(ClientError::Unexpected(format!(
                            "accept for unknown chunk {id} of batch {e:?}"
                        )));
                    }
                    consecutive_busy = 0;
                }
                ServerFrame::Busy { queued, limit, id } => {
                    let Some(chunk) = awaiting.remove(&id) else {
                        return Err(ClientError::Busy { queued, limit });
                    };
                    let room = usize::try_from(limit).unwrap_or(usize::MAX).max(1);
                    if room < chunk.len() {
                        // Retrying this chunk whole can never succeed.
                        fit = room;
                    } else {
                        consecutive_busy += 1;
                        if consecutive_busy > BUSY_RETRY_LIMIT {
                            return Err(ClientError::Busy { queued, limit });
                        }
                        stalled = true;
                    }
                    pending.push_front((id, chunk));
                    in_flight -= 1;
                }
                ServerFrame::RefsMiss { id, .. } => {
                    let Some(chunk) = awaiting.remove(&id) else {
                        return Err(ClientError::Unexpected(format!(
                            "refs_miss for unknown chunk {id}"
                        )));
                    };
                    // The sweep is cold: the rejection had no side
                    // effects, so resubmitting the same chunk as full
                    // specs (front of the queue, order preserved) is
                    // safe. Stay in spec mode for the rest of the sweep.
                    use_refs = false;
                    pending.push_front((id, chunk));
                    in_flight -= 1;
                }
                ServerFrame::BatchResults {
                    experiment: e,
                    id,
                    results,
                } => {
                    if e != experiment {
                        return Err(ClientError::Unexpected(format!(
                            "results for batch {e:?} while sweeping {experiment:?}"
                        )));
                    }
                    let base = *base_of.get(&id).ok_or_else(|| {
                        ClientError::Unexpected(format!("results for unknown chunk {id}"))
                    })?;
                    for r in results {
                        let index = base + r.index as usize;
                        let slot = slots.get_mut(index).ok_or_else(|| {
                            ClientError::Unexpected(format!(
                                "chunk {id} result index {} out of range {total}",
                                r.index
                            ))
                        })?;
                        if slot.is_some() {
                            return Err(ClientError::Unexpected(format!(
                                "duplicate result for sweep index {index}"
                            )));
                        }
                        finished += 1;
                        let record = slot.insert(Record {
                            label: r.label,
                            key: r.key,
                            cached: r.cached,
                            // Wall time is a server-side detail;
                            // artifacts exclude it, so zero keeps
                            // records honest without affecting bytes.
                            wall_millis: 0,
                            outcome: r.outcome,
                        });
                        on_update(&JobUpdate {
                            finished,
                            total,
                            label: &record.label,
                            cached: record.cached,
                            outcome: &record.outcome,
                        });
                    }
                }
                ServerFrame::Done {
                    experiment: e, id, ..
                } => {
                    // `batch_results` for a chunk always precede its
                    // `done` (sent under the same lock server-side), so
                    // dropping the id here also rejects double-dones.
                    if e != experiment || base_of.remove(&id).is_none() {
                        return Err(ClientError::Unexpected(format!(
                            "done for unknown chunk {id} of batch {e:?}"
                        )));
                    }
                    in_flight -= 1;
                    consecutive_busy = 0;
                    stalled = false;
                }
                ServerFrame::ShuttingDown => return Err(ClientError::ShuttingDown),
                ServerFrame::Error { message } => return Err(ClientError::Server(message)),
                other => {
                    return Err(ClientError::Unexpected(format!(
                        "unexpected frame mid-sweep: {other:?}"
                    )))
                }
            }
        }
        if matches!(subscribe, Subscribe::None) {
            // Cache priming: the server sent no results, by request.
            return Ok(Batch {
                name: experiment.to_string(),
                records: Vec::new(),
            });
        }
        let records: Vec<Record> = slots
            .into_iter()
            .enumerate()
            .map(|(i, s)| {
                s.ok_or_else(|| {
                    ClientError::Unexpected(format!("sweep finished before job {i} resolved"))
                })
            })
            .collect::<Result<_, _>>()?;
        Ok(Batch {
            name: experiment.to_string(),
            records,
        })
    }
}

/// A progress reporter matching the offline engine's structured stream:
/// one `job_done` record at info level per resolved job, so `HFS_LOG`
/// governs client-side progress exactly like engine-side progress.
pub fn print_update(experiment: &str, u: &JobUpdate<'_>) {
    hfs_harness::log_job_done(
        "client",
        experiment,
        u.label,
        (u.finished, u.total),
        u.outcome,
        u.cached,
        None,
    );
}
