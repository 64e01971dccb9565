//! The `--worker` child process and its parent↔worker pipe protocol.
//!
//! In process mode (`hfs-serve --workers N`) the server re-execs its
//! own binary with `--worker`. The child is a pure executor: it owns no
//! cache, no listener, and no telemetry — it reads [`WorkerRequest`]
//! frames on stdin, simulates, and writes [`WorkerReply`] frames on
//! stdout. All caching, dedup, and accounting stay in the parent, which
//! is what keeps the stats identities and byte-identical artifacts
//! independent of the worker mode.
//!
//! Frames reuse the client protocol's transport (4-byte big-endian
//! length + compact JSON) and the harness codec for jobs and outcomes,
//! so nothing new has to round-trip.
//!
//! The child runs one job at a time (the parent never pipelines a
//! second `run` before the reply), but a `cancel` frame may arrive
//! mid-run: a reader thread watches stdin and fires the running job's
//! [`CancelToken`] when the cancelled key matches. EOF on stdin — the
//! parent died or dropped the pipe — is an exit signal, so a crashed
//! parent never leaves orphan workers behind.

use std::io::{self, Read, Write};
use std::sync::mpsc::channel;
use std::sync::{Arc, Mutex};

use hfs_harness::{
    execute_cancellable, from_text, from_tree, read_job, read_outcome, to_tree, write_job,
    write_outcome, Job, JobOutcome, Json, Sink, Source,
};
use hfs_sim::CancelToken;

use crate::proto::{frame_drivers, read_frame, read_tag, write_frame, ProtoError};

/// A parent→worker frame.
// `Run` dwarfs the other variants, but requests are built once per
// dispatch and never collected — boxing the job would cost more than
// the stack space saves.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub enum WorkerRequest {
    /// Execute one job and reply with a [`WorkerReply`].
    Run {
        /// The job's content key (echoed back; the child never hashes).
        key: String,
        /// The job itself.
        job: Job,
    },
    /// Fire the cancel token of the currently running job if its key
    /// matches; ignored otherwise (the reply already raced ahead).
    Cancel {
        /// Key of the job to cancel.
        key: String,
    },
    /// Finish up and exit cleanly (also implied by stdin EOF).
    Exit,
}

impl WorkerRequest {
    /// Pushes a `run` frame for a job the dispatcher goes on owning.
    pub(crate) fn write_run<S: Sink>(s: &mut S, key: &str, job: &Job) {
        s.begin_obj();
        s.str_field("type", "run");
        s.str_field("key", key);
        s.key("job");
        write_job(s, job);
        s.end_obj();
    }

    fn write<S: Sink>(&self, s: &mut S) {
        if let WorkerRequest::Run { key, job } = self {
            return WorkerRequest::write_run(s, key, job);
        }
        s.begin_obj();
        match self {
            WorkerRequest::Cancel { key } => {
                s.str_field("type", "cancel");
                s.str_field("key", key);
            }
            _ => s.str_field("type", "exit"),
        }
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<WorkerRequest, ProtoError> {
        s.obj(|s, o| {
            let tag = read_tag(s, o)?;
            if &*tag == "exit" {
                return Ok(WorkerRequest::Exit);
            }
            let key = s.str_field(o, "key")?.into_owned();
            Ok(match &*tag {
                "run" => WorkerRequest::Run {
                    key,
                    job: s.field(o, "job", read_job)?,
                },
                "cancel" => WorkerRequest::Cancel { key },
                other => {
                    return Err(ProtoError::Malformed(format!(
                        "unknown worker frame type {other:?}"
                    )))
                }
            })
        })
    }
}

frame_drivers!(WorkerRequest);

/// A worker→parent frame: the outcome of one `run`.
#[derive(Debug, Clone)]
pub struct WorkerReply {
    /// Echo of the run's key.
    pub key: String,
    /// The simulation outcome.
    pub outcome: JobOutcome,
}

impl WorkerReply {
    fn write<S: Sink>(&self, s: &mut S) {
        s.begin_obj();
        s.str_field("type", "result");
        s.str_field("key", &self.key);
        s.key("outcome");
        write_outcome(s, &self.outcome);
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<WorkerReply, ProtoError> {
        s.obj(|s, o| {
            if &*read_tag(s, o)? != "result" {
                return Err(ProtoError::Malformed(
                    "worker reply is not a result frame".to_string(),
                ));
            }
            Ok(WorkerReply {
                key: s.str_field(o, "key")?.into_owned(),
                outcome: s.field(o, "outcome", read_outcome)?,
            })
        })
    }
}

frame_drivers!(WorkerReply);

/// The `--worker` entry point: serve `run` requests from stdin until
/// `exit` or EOF. Returns the process exit code.
pub fn worker_main() -> i32 {
    // None = exit; Some = one job to run.
    let (work_tx, work_rx) = channel::<Option<(String, Job)>>();
    let current: Arc<Mutex<Option<(String, CancelToken)>>> = Arc::new(Mutex::new(None));

    let reader_current = Arc::clone(&current);
    let reader = std::thread::spawn(move || {
        let mut stdin = io::stdin().lock();
        loop {
            match WorkerRequest::read_from(&mut stdin) {
                Ok(Some(WorkerRequest::Run { key, job })) => {
                    if work_tx.send(Some((key, job))).is_err() {
                        return;
                    }
                }
                Ok(Some(WorkerRequest::Cancel { key })) => {
                    let guard = reader_current.lock().unwrap();
                    if let Some((running, token)) = guard.as_ref() {
                        if *running == key {
                            token.cancel();
                        }
                    }
                }
                // EOF (parent gone), transport errors and frames that do
                // not decode all end the worker; never linger as an
                // orphan.
                Ok(Some(WorkerRequest::Exit) | None) | Err(_) => {
                    let _ = work_tx.send(None);
                    return;
                }
            }
        }
    });

    let mut stdout = io::stdout().lock();
    while let Ok(Some((key, job))) = work_rx.recv() {
        let token = CancelToken::new();
        *current.lock().unwrap() = Some((key.clone(), token.clone()));
        let outcome = execute_cancellable(&job, Some(&token));
        *current.lock().unwrap() = None;
        let reply = WorkerReply { key, outcome };
        if reply.write_to(&mut stdout).is_err() {
            break; // parent gone; nothing left to report to
        }
    }
    drop(work_rx);
    // The reader exits on its own at EOF/exit; don't block on a stdin
    // read that may never return if the parent holds the pipe open.
    drop(reader);
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_core::kernel::KernelPair;
    use hfs_core::{DesignPoint, MachineConfig};

    fn demo_job() -> Job {
        Job::pipeline(
            "worker/demo",
            KernelPair::simple("demo", 2, 40),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    #[test]
    fn requests_round_trip() {
        let job = demo_job();
        let run = WorkerRequest::Run {
            key: job.key(),
            job: job.clone(),
        };
        match WorkerRequest::from_json(&run.to_json()).unwrap() {
            WorkerRequest::Run { key, job: back } => {
                assert_eq!(key, job.key());
                assert_eq!(back.key(), job.key());
            }
            other => panic!("wrong frame: {other:?}"),
        }
        let cancel = WorkerRequest::Cancel { key: "abc".into() };
        assert!(matches!(
            WorkerRequest::from_json(&cancel.to_json()).unwrap(),
            WorkerRequest::Cancel { .. }
        ));
        assert!(matches!(
            WorkerRequest::from_json(&WorkerRequest::Exit.to_json()).unwrap(),
            WorkerRequest::Exit
        ));
    }

    #[test]
    fn replies_round_trip() {
        let job = demo_job();
        let outcome = hfs_harness::execute(&job, 0);
        let cycles = outcome.ok().expect("demo job runs").cycles;
        let reply = WorkerReply {
            key: job.key(),
            outcome,
        };
        let back = WorkerReply::from_json(&reply.to_json()).unwrap();
        assert_eq!(back.key, job.key());
        assert_eq!(back.outcome.ok().unwrap().cycles, cycles);
    }

    #[test]
    fn unknown_worker_frames_fail_loudly() {
        let v = Json::obj(vec![("type", Json::Str("warp".to_string()))]);
        assert!(WorkerRequest::from_json(&v).is_err());
        assert!(WorkerReply::from_json(&v).is_err());
    }
}
