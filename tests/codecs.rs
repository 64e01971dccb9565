//! One description per type, two drivers. Every codec is written once
//! against `Sink`/`Source`; the text driver (frames, cache entries) must
//! write exactly the bytes the tree driver's `.to_string()` /
//! `.to_pretty()` gives, and read exactly what the tree driver reads from
//! the same bytes — unknown keys, duplicated keys, missing fields and
//! shuffled fields included. Content keys are pinned to the values the
//! commit before the text driver computed.

use std::sync::Arc;

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{
    execute, from_text, from_tree, job_to_json, outcome_to_json, outcome_to_text, parse, read_job,
    read_outcome, to_text, write_job, write_outcome, DecodeError, Job, JobOutcome, Json, Mode,
};
use hfs::isa::QueueId;
use hfs::mem::Protocol;
use hfs::serve::worker::{WorkerReply, WorkerRequest};
use hfs::serve::{ClientFrame, JobRef, JobResult, ServeStats, ServerFrame, Subscribe};
use hfs::sim::Rng64;

/// Quotes, backslashes, control characters and multi-byte UTF-8.
const NASTY: &str = "q\"uote \\back\\slash\\ \nπ🚀é \t\u{1} end";

/// A pair using every step kind, regions and a nested loop.
fn busy_pair() -> KernelPair {
    let q = QueueId(2);
    let mut producer = Kernel::new(vec![
        KStep::Alu(4),
        KStep::AluChain(2),
        KStep::Fp(1),
        KStep::FpChain(3),
        KStep::Branch,
        KStep::Loop(
            vec![KStep::Produce(q), KStep::Loop(vec![KStep::Alu(1)], 2)],
            4,
        ),
    ]);
    let src = producer.add_region("src", 1 << 16);
    producer.steps.push(KStep::LoadStream {
        region: src,
        stride: 8,
    });
    producer.steps.push(KStep::LoadRandom { region: src });
    let mut consumer = Kernel::new(vec![KStep::Loop(vec![KStep::Consume(q)], 4)]);
    let dst = consumer.add_region("dst", 1 << 12);
    consumer.steps.push(KStep::StoreStream {
        region: dst,
        stride: 16,
    });
    consumer.steps.push(KStep::StoreRandom { region: dst });
    KernelPair {
        name: "busy".into(),
        producer,
        consumer,
        iterations: 7,
    }
}

fn designs() -> [DesignPoint; 6] {
    [
        DesignPoint::existing(),
        DesignPoint::memopti_with_qlu(4),
        DesignPoint::syncopti(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
        DesignPoint::regmapped(3),
    ]
}

/// Every design variant x protocol x mode, labels and flags varied.
fn jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for design in designs() {
        for protocol in [Protocol::Msi, Protocol::Mesi, Protocol::Dragon] {
            for mode in [Mode::Pipeline, Mode::Single, Mode::Multi(2)] {
                let mut cfg = MachineConfig::itanium2_cmp(design);
                cfg.mem.protocol = protocol;
                cfg.mem.bus.favor_app_traffic = jobs.len() % 2 == 1;
                cfg.seed = jobs.len() as u64;
                let label = if jobs.len() % 5 == 0 {
                    NASTY.to_string()
                } else {
                    format!("codecs/{design}/{}", protocol.label())
                };
                jobs.push(Job::from_parts(
                    label,
                    busy_pair(),
                    cfg,
                    mode,
                    10_000 + jobs.len() as u64,
                    jobs.len() % 4 == 0,
                ));
            }
        }
    }
    jobs
}

fn demo_job(design: DesignPoint) -> Job {
    Job::pipeline(
        "codecs/demo",
        KernelPair::simple("demo", 2, 30),
        MachineConfig::itanium2_cmp(design),
    )
}

/// All six outcome variants; `Ok` with and without metrics, with and
/// without a stream cache, and with hostile text in it.
fn outcomes() -> Vec<JobOutcome> {
    let mut nasty = execute(&demo_job(DesignPoint::syncopti_sc_q64()), 0);
    match &mut nasty {
        JobOutcome::Ok(r) => {
            assert!(r.stream_cache.is_some());
            r.design = NASTY.to_string();
        }
        other => panic!("demo job failed: {other}"),
    }
    let metered = execute(&demo_job(DesignPoint::heavywt()).with_metrics(true), 0);
    assert!(metered.ok().expect("metered job runs").metrics.is_some());
    vec![
        execute(&demo_job(DesignPoint::existing()), 0),
        nasty,
        metered,
        JobOutcome::SimError(NASTY.to_string()),
        JobOutcome::CheckFailed("machine-check: [cycle 9] bus.double_grant: x".to_string()),
        JobOutcome::Timeout { max_cycles: 42 },
        JobOutcome::Cancelled,
        JobOutcome::WorkerDied(NASTY.to_string()),
    ]
}

fn framed(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> String {
    let mut buf = Vec::new();
    write(&mut buf).expect("in-memory write");
    let len = u32::from_be_bytes(buf[..4].try_into().unwrap()) as usize;
    assert_eq!(len, buf.len() - 4, "the prefix is the body's length");
    String::from_utf8(buf.split_off(4)).expect("frames are UTF-8")
}

fn client_frames() -> Vec<ClientFrame> {
    let jobs: Vec<Job> = jobs().into_iter().step_by(7).collect();
    vec![
        ClientFrame::SubmitRefs {
            experiment: NASTY.to_string(),
            id: 4,
            subscribe: Subscribe::None,
            refs: jobs
                .iter()
                .map(|j| JobRef {
                    key: j.key(),
                    label: j.label.clone(),
                })
                .collect(),
        },
        ClientFrame::SubmitBatch {
            experiment: "codecs".to_string(),
            id: 3,
            subscribe: Subscribe::All,
            jobs,
        },
        ClientFrame::SubmitBatch {
            experiment: "empty".to_string(),
            id: 5,
            subscribe: Subscribe::Final,
            jobs: Vec::new(),
        },
        ClientFrame::Ping,
        ClientFrame::Stats,
        ClientFrame::Metrics,
        ClientFrame::Shutdown,
    ]
}

fn server_frames() -> Vec<ServerFrame> {
    let results = outcomes()
        .into_iter()
        .enumerate()
        .map(|(i, outcome)| JobResult {
            index: i as u64,
            label: if i % 2 == 0 {
                NASTY.to_string()
            } else {
                format!("codecs/p{i}")
            },
            key: format!("{i:016x}"),
            cached: i % 3 == 0,
            // Every other result rides as its stored text, as a
            // hot-cache hit does.
            encoded: (i % 2 == 1).then(|| Arc::from(outcome_to_text(&outcome))),
            outcome,
        })
        .collect();
    vec![
        ServerFrame::Accepted {
            experiment: NASTY.to_string(),
            total: 2,
            id: 3,
        },
        ServerFrame::Busy {
            queued: 9,
            limit: 8,
            id: 3,
        },
        ServerFrame::BatchResults {
            experiment: "codecs".to_string(),
            id: 3,
            results,
        },
        ServerFrame::RefsMiss {
            id: 4,
            missing: vec![0, 3, 511],
        },
        ServerFrame::RefsMiss {
            id: 4,
            missing: Vec::new(),
        },
        ServerFrame::Done {
            experiment: "codecs".to_string(),
            ok: false,
            id: 3,
        },
        ServerFrame::Stats(ServeStats {
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
        }),
        ServerFrame::Metrics {
            text: format!("# TYPE x counter\nx 7\n{NASTY}"),
        },
        ServerFrame::Pong,
        ServerFrame::ShuttingDown,
        ServerFrame::Error {
            message: NASTY.to_string(),
        },
    ]
}

fn worker_frames() -> (Vec<WorkerRequest>, Vec<WorkerReply>) {
    let job = jobs().swap_remove(11);
    let requests = vec![
        WorkerRequest::Run {
            key: job.key(),
            job,
        },
        WorkerRequest::Cancel {
            key: "0123456789abcdef".to_string(),
        },
        WorkerRequest::Exit,
    ];
    let replies = outcomes()
        .into_iter()
        .map(|outcome| WorkerReply {
            key: "0123456789abcdef".to_string(),
            outcome,
        })
        .collect();
    (requests, replies)
}

#[test]
fn the_text_driver_writes_the_tree_drivers_bytes() {
    for o in outcomes() {
        let tree = outcome_to_json(&o);
        assert_eq!(outcome_to_text(&o), tree.to_pretty(), "{o}");
        assert_eq!(
            to_text(false, |w| write_outcome(w, &o)),
            tree.to_string(),
            "{o}"
        );
    }
    for job in jobs() {
        let tree = job_to_json(&job);
        assert_eq!(to_text(false, |w| write_job(w, &job)), tree.to_string());
        assert_eq!(to_text(true, |w| write_job(w, &job)), tree.to_pretty());
    }
    for f in client_frames() {
        assert_eq!(framed(|b| f.write_to(b)), f.to_json().to_string());
    }
    for f in server_frames() {
        assert_eq!(framed(|b| f.write_to(b)), f.to_json().to_string());
    }
    let (requests, replies) = worker_frames();
    for f in requests {
        assert_eq!(framed(|b| f.write_to(b)), f.to_json().to_string());
    }
    for f in replies {
        assert_eq!(framed(|b| f.write_to(b)), f.to_json().to_string());
    }
}

/// A value no codec expects anywhere.
fn junk(rng: &mut Rng64) -> Json {
    match rng.below(6) {
        0 => Json::Null,
        1 => Json::Bool(rng.bool()),
        2 => Json::U64(rng.next_u64()),
        3 => Json::Str(NASTY.to_string()),
        4 => Json::Arr(vec![
            Json::U64(1),
            Json::Obj(vec![("k".into(), Json::Null)]),
        ]),
        _ => Json::Obj(vec![("status".into(), Json::F64(0.5))]),
    }
}

/// Rewrites objects throughout `v`: an unknown key, a repeated key with
/// some other value (before or after the real one), a dropped field, a
/// new field order. A decoder may refuse the result; the two drivers
/// must do the same with it.
fn scramble(v: &mut Json, rng: &mut Rng64) {
    match v {
        Json::Arr(items) => items.iter_mut().for_each(|item| scramble(item, rng)),
        Json::Obj(pairs) => {
            pairs.iter_mut().for_each(|(_, item)| scramble(item, rng));
            if rng.below(3) == 0 {
                let at = rng.below(pairs.len() as u64 + 1) as usize;
                pairs.insert(at, ("zz_unknown".to_string(), junk(rng)));
            }
            if !pairs.is_empty() && rng.below(4) == 0 {
                let key = pairs[rng.below(pairs.len() as u64) as usize].0.clone();
                let at = rng.below(pairs.len() as u64 + 1) as usize;
                pairs.insert(at, (key, junk(rng)));
            }
            if !pairs.is_empty() && rng.below(16) == 0 {
                pairs.remove(rng.below(pairs.len() as u64) as usize);
            }
            if rng.below(4) == 0 {
                for i in (1..pairs.len()).rev() {
                    pairs.swap(i, rng.below(i as u64 + 1) as usize);
                }
            }
        }
        _ => {}
    }
}

/// Decodes `doc` through both drivers (the text driver from its compact
/// and its pretty text) and requires one answer; `Some` when it decoded.
fn decoded_alike<T, E: From<DecodeError> + std::fmt::Display>(
    doc: &Json,
    read_text: impl Fn(&str) -> Result<T, E>,
    read_tree: impl Fn(&Json) -> Result<T, E>,
    encode: impl Fn(&T) -> Json,
) -> Option<Json> {
    let by_tree = read_tree(doc).map(|v| encode(&v));
    for text in [doc.to_string(), doc.to_pretty()] {
        let by_text = read_text(&text).map(|v| encode(&v));
        match (&by_text, &by_tree) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "drivers decoded {text} differently"),
            (Err(_), Err(_)) => {}
            (Ok(_), Err(e)) => panic!("only the tree driver refused {text}: {e}"),
            (Err(e), Ok(_)) => panic!("only the text driver refused {text}: {e}"),
        }
    }
    by_tree.ok()
}

/// Runs `doc` and 200 scrambles of it through [`decoded_alike`]; the
/// untouched document must decode back to itself, and enough scrambles
/// must still decode for the comparison to mean something.
fn both_drivers_read_alike<T, E: From<DecodeError> + std::fmt::Display>(
    stream: u64,
    doc: &Json,
    read_text: impl Fn(&str) -> Result<T, E>,
    read_tree: impl Fn(&Json) -> Result<T, E>,
    encode: impl Fn(&T) -> Json,
) -> (u32, u32) {
    let plain = decoded_alike(doc, &read_text, &read_tree, &encode).expect("the seed decodes");
    assert_eq!(
        parse(&plain.to_string()).expect("re-encoding parses"),
        parse(&doc.to_string()).expect("the seed parses"),
        "decoding lost something"
    );
    let mut rng = Rng64::new(0xc0dec).split(stream);
    let mut decoded = 0;
    for _ in 0..200 {
        let mut scrambled = doc.clone();
        scramble(&mut scrambled, &mut rng);
        decoded += u32::from(decoded_alike(&scrambled, &read_text, &read_tree, &encode).is_some());
    }
    (decoded, 200)
}

#[test]
fn the_text_driver_reads_what_the_tree_driver_reads() {
    let (mut decoded, mut tried) = (0, 0);
    let mut tally = |(d, t): (u32, u32)| {
        decoded += d;
        tried += t;
    };
    for (i, o) in outcomes().iter().enumerate() {
        tally(both_drivers_read_alike(
            i as u64,
            &outcome_to_json(o),
            |t| from_text(t, read_outcome),
            |v| from_tree(v, read_outcome),
            outcome_to_json,
        ));
    }
    for (i, job) in jobs().iter().enumerate().step_by(5) {
        tally(both_drivers_read_alike(
            100 + i as u64,
            &job_to_json(job),
            |t| from_text(t, read_job),
            |v| from_tree(v, read_job),
            job_to_json,
        ));
    }
    // Frames: `read_from` is the text driver, `from_json` the tree
    // driver. (A spliced `encoded` text is not a tree; it decodes to the
    // tree it was written from.)
    let prefixed = |text: &str| {
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        bytes
    };
    for (i, f) in client_frames().iter().enumerate() {
        tally(both_drivers_read_alike(
            200 + i as u64,
            &f.to_json(),
            |t| ClientFrame::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame")),
            ClientFrame::from_json,
            ClientFrame::to_json,
        ));
    }
    for (i, f) in server_frames().iter().enumerate() {
        let doc = parse(&f.to_json().to_string()).expect("frames parse");
        tally(both_drivers_read_alike(
            300 + i as u64,
            &doc,
            |t| ServerFrame::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame")),
            ServerFrame::from_json,
            ServerFrame::to_json,
        ));
    }
    let (requests, replies) = worker_frames();
    for (i, f) in requests.iter().enumerate() {
        tally(both_drivers_read_alike(
            400 + i as u64,
            &f.to_json(),
            |t| WorkerRequest::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame")),
            WorkerRequest::from_json,
            WorkerRequest::to_json,
        ));
    }
    for (i, f) in replies.iter().enumerate() {
        tally(both_drivers_read_alike(
            500 + i as u64,
            &f.to_json(),
            |t| WorkerReply::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame")),
            WorkerReply::from_json,
            WorkerReply::to_json,
        ));
    }
    assert!(
        decoded > tried / 4 && decoded < tried,
        "{decoded} of {tried} scrambled documents decoded"
    );
}

/// Replaces the object at `path` in `doc` by `edit` of its pairs.
fn edit_at(doc: &mut Json, path: &[&str], edit: impl FnOnce(&mut Vec<(String, Json)>)) {
    let mut at = doc;
    for key in path {
        at = match at {
            Json::Obj(pairs) => &mut pairs.iter_mut().find(|(k, _)| k == key).expect("path").1,
            _ => panic!("{key} is not in an object"),
        };
    }
    match at {
        Json::Obj(pairs) => edit(pairs),
        _ => panic!("the path does not end at an object"),
    }
}

#[test]
fn unknown_keys_are_ignored_first_duplicates_win_and_old_blobs_default() {
    let outcome = execute(&demo_job(DesignPoint::heavywt()), 0);
    let seed = outcome_to_json(&outcome);
    let read = |doc: &Json| {
        decoded_alike(
            doc,
            |t| from_text(t, read_outcome),
            |v| from_tree(v, read_outcome),
            outcome_to_json,
        )
    };

    // An unknown key first and a repeat of a real key last, at every level.
    let mut doc = seed.clone();
    for path in [
        &[][..],
        &["result"],
        &["result", "mem"],
        &["result", "mem", "bus"],
    ] {
        edit_at(&mut doc, path, |pairs| {
            let repeat = pairs[0].0.clone();
            pairs.insert(0, ("unknown".to_string(), Json::Arr(vec![Json::Null])));
            pairs.push((repeat, Json::Str("ignored".to_string())));
        });
    }
    assert_eq!(read(&doc), Some(seed.clone()));

    // The first of two wins even when it is the wrong one.
    let mut doc = seed.clone();
    edit_at(&mut doc, &["result"], |pairs| {
        pairs.insert(0, ("cycles".to_string(), Json::U64(7)));
    });
    let first = read(&doc).expect("decodes");
    assert_eq!(
        first.get("result").unwrap().get("cycles"),
        Some(&Json::U64(7))
    );
    let mut doc = seed.clone();
    edit_at(&mut doc, &["result"], |pairs| {
        pairs.insert(0, ("cycles".to_string(), Json::Str("7".to_string())));
    });
    assert_eq!(read(&doc), None, "a mistyped first duplicate is refused");

    // A missing required field is refused; a blob from before the
    // protocol axis has no `updates` and reads as zero.
    let mut doc = seed.clone();
    edit_at(&mut doc, &["result", "mem"], |pairs| {
        pairs.retain(|(k, _)| k != "forwards")
    });
    assert_eq!(read(&doc), None);
    let mut doc = seed.clone();
    edit_at(&mut doc, &["result", "mem"], |pairs| {
        pairs.retain(|(k, _)| k != "updates")
    });
    let old = read(&doc).expect("old blobs decode");
    let mem = old.get("result").unwrap().get("mem").unwrap();
    assert_eq!(mem.get("updates"), Some(&Json::U64(0)));

    // Likewise a spec from before the protocol axis is MSI.
    let job = demo_job(DesignPoint::heavywt());
    let mut doc = job_to_json(&job);
    edit_at(&mut doc, &["cfg", "mem"], |pairs| {
        pairs.retain(|(k, _)| k != "protocol")
    });
    let old = decoded_alike(
        &doc,
        |t| from_text(t, read_job),
        |v| from_tree(v, read_job),
        job_to_json,
    );
    assert_eq!(old, Some(job_to_json(&job)));
}

#[test]
fn leftover_retry_members_are_unknown_keys() {
    // Specs and worker frames written before the retry mechanism went
    // still decode, to what they decode to without the member.
    let prefixed = |text: &str| {
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        bytes
    };
    // `doc` with a leftover `member` among the fields at `path`, ahead
    // of the ones still read.
    let with = |doc: &Json, path: &[&str], member: &str| {
        let mut old = doc.clone();
        edit_at(&mut old, path, |pairs| {
            pairs.insert(2, (member.to_string(), Json::U64(2)));
        });
        old
    };

    let job = jobs().swap_remove(11);
    let spec = job_to_json(&job);
    assert!(spec.get("retries").is_none(), "the spec carries no retries");
    let old = decoded_alike(
        &with(&spec, &[], "retries"),
        |t| from_text(t, read_job),
        |v| from_tree(v, read_job),
        job_to_json,
    );
    assert_eq!(old, Some(spec));

    let run = WorkerRequest::Run {
        key: job.key(),
        job,
    }
    .to_json();
    let old = decoded_alike(
        &with(&with(&run, &["job"], "retries"), &[], "retries"),
        |t| WorkerRequest::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame")),
        WorkerRequest::from_json,
        WorkerRequest::to_json,
    );
    assert_eq!(old, Some(run));

    let reply = worker_frames().1.swap_remove(0).to_json();
    let old = decoded_alike(
        &with(&reply, &[], "retries_used"),
        |t| WorkerReply::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame")),
        WorkerReply::from_json,
        WorkerReply::to_json,
    );
    assert_eq!(old, Some(reply));
}

#[test]
fn keys_are_what_the_parent_commit_computed() {
    let pair = || KernelPair::simple("pinned", 3, 50);
    let cfg = MachineConfig::itanium2_cmp;
    let mut dragon = cfg(DesignPoint::heavywt());
    dragon.mem.protocol = Protocol::Dragon;
    // Literal keys printed by this list at f43720b, where the key was
    // the FNV-1a of a `format!`ted string.
    let pinned = [
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::existing())),
            "613d5f09f5efd021",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::memopti_with_qlu(4))),
            "fbc1e06e2e72543f",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::syncopti_sc_q64())),
            "24f8acc74fda9084",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::heavywt())),
            "39f4f2486e75bddd",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::regmapped(3))),
            "1f8fb1393b5d8fb3",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::heavywt())).with_metrics(true),
            "e9df59cc49c69abe",
        ),
        (
            Job::multi("a", pair(), cfg(DesignPoint::heavywt()), 2),
            "045b40580cca2189",
        ),
        (
            Job::single("a", pair(), MachineConfig::itanium2_single()).with_max_cycles(12_345),
            "248765178d9d317c",
        ),
        (Job::pipeline("a", pair(), dragon), "c2cfd4c44799cd29"),
    ];
    for (job, key) in pinned {
        assert_eq!(job.key(), key, "{:?} {}", job.mode, job.cfg.design);
    }
}
