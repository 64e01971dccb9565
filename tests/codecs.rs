//! One description per type, two drivers. Every codec is written once
//! against `Sink`/`Source`; the text driver (frames, cache entries) must
//! write exactly the bytes the tree driver's `.to_string()` /
//! `.to_pretty()` gives, and read exactly what the tree driver reads from
//! the same bytes — unknown keys, duplicated keys, missing fields and
//! shuffled fields included. Content keys are a third driver's output
//! over the same description: nine are pinned (cache schema 2), and the
//! properties a hash of the canonical spec owes — blind to the label, to
//! a trip over the wire and to field order; moved by every keyed leaf;
//! collision-free over the sweeps the repository runs — are checked, as
//! is the locality pair the server orders a chunk by: moved by every
//! keyed leaf but the cycle budget and the iteration count.

use std::collections::HashMap;
use std::sync::Arc;

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{
    execute, from_text, from_tree, job_to_json, locality_key, outcome_to_json, outcome_to_text,
    parse, read_job, read_outcome, to_text, write_job, write_outcome, DecodeError, Job, JobOutcome,
    Json, Mode,
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

fn designs() -> impl Iterator<Item = DesignPoint> {
    let tuned = [DesignPoint::memopti_with_qlu(4), DesignPoint::regmapped(3)];
    DesignPoint::paper_points().into_iter().chain(tuned)
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
        assert_eq!(outcome_to_text(&o), tree.to_string(), "{o}");
        assert_eq!(
            to_text(true, |w| write_outcome(w, &o)),
            tree.to_pretty(),
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

/// Fisher–Yates.
fn shuffle<T>(items: &mut [T], rng: &mut Rng64) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.below(i as u64 + 1) as usize);
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
                shuffle(pairs, rng);
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
fn keys_are_pinned() {
    let pair = || KernelPair::simple("pinned", 3, 50);
    let cfg = MachineConfig::itanium2_cmp;
    let mut dragon = cfg(DesignPoint::heavywt());
    dragon.mem.protocol = Protocol::Dragon;
    // Literal keys printed by this list when `CACHE_SCHEMA` became 2 and
    // the key became a hash of the canonical spec (`HashSink` under
    // `write_job`'s field list, label excluded). A change here orphans
    // every cache: bump the schema and re-pin, once.
    let pinned = [
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::existing())),
            "3d0de9819264215f",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::memopti_with_qlu(4))),
            "631a94285a639d18",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::syncopti_sc_q64())),
            "807fdbb46727f45e",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::heavywt())),
            "cdc4f310aae55bb0",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::regmapped(3))),
            "0c847dfb4a7e5c9b",
        ),
        (
            Job::pipeline("a", pair(), cfg(DesignPoint::heavywt())).with_metrics(true),
            "7f0c00a6e4da0bc8",
        ),
        (
            Job::multi("a", pair(), cfg(DesignPoint::heavywt()), 2),
            "36fe6858bc000ceb",
        ),
        (
            Job::single("a", pair(), MachineConfig::itanium2_single()).with_max_cycles(12_345),
            "c9a7bc61453ef806",
        ),
        (Job::pipeline("a", pair(), dragon), "b96baa9989dfda2c"),
    ];
    for (job, key) in pinned {
        assert_eq!(job.key(), key, "{:?} {}", job.mode, job.cfg.design);
    }
}

/// Puts the members of every object in `v` in a random order.
fn shuffle_fields(v: &mut Json, rng: &mut Rng64) {
    match v {
        Json::Arr(items) => items.iter_mut().for_each(|item| shuffle_fields(item, rng)),
        Json::Obj(pairs) => {
            pairs
                .iter_mut()
                .for_each(|(_, item)| shuffle_fields(item, rng));
            shuffle(pairs, rng);
        }
        _ => {}
    }
}

#[test]
fn a_key_is_blind_to_the_label_the_wire_and_field_order() {
    let mut rng = Rng64::new(0xc0dec).split(600);
    for job in jobs() {
        let key = job.key();
        let mut relabelled = job.clone().with_max_cycles(job.max_cycles);
        relabelled.label = format!("{NASTY}/{}", job.label);
        assert_eq!(relabelled.key(), key, "the label is not keyed");

        let text = to_text(false, |w| write_job(w, &job));
        let back = from_text(&text, read_job).expect("a written spec reads back");
        assert_eq!(back.key(), key, "a trip over the wire keeps the key");

        let mut doc = job_to_json(&job);
        shuffle_fields(&mut doc, &mut rng);
        for text in [doc.to_string(), doc.to_pretty()] {
            assert_ne!(text, job_to_json(&job).to_string());
            let back = from_text(&text, read_job).expect("any field order decodes");
            assert_eq!(back.key(), key, "field order in {text}");
        }
    }
}

/// Changes the leaf at `pairs[at]` to another value the decoder takes.
/// A string that names a variant becomes another variant, with whatever
/// member the new one requires and the old one lacks.
fn change_leaf(pairs: &mut Vec<(String, Json)>, at: usize) {
    let variants: HashMap<&str, (&str, Option<&str>)> = HashMap::from([
        ("pipeline", ("single", None)),
        ("single", ("pipeline", None)),
        ("multi", ("pipeline", None)),
        ("alu", ("alu_chain", None)),
        ("alu_chain", ("alu", None)),
        ("fp", ("fp_chain", None)),
        ("fp_chain", ("fp", None)),
        ("branch", ("alu", Some("n"))),
        ("produce", ("consume", None)),
        ("consume", ("produce", None)),
        ("load_stream", ("store_stream", None)),
        ("store_stream", ("load_stream", None)),
        ("load_random", ("store_random", None)),
        ("store_random", ("load_random", None)),
        ("loop", ("branch", None)),
        ("existing", ("memopti", None)),
        ("memopti", ("existing", None)),
        ("syncopti", ("existing", None)),
        ("heavywt", ("regmapped", Some("spill_ops"))),
        ("regmapped", ("heavywt", Some("sa_latency"))),
        ("msi", ("mesi", None)),
        ("mesi", ("dragon", None)),
        ("dragon", ("msi", None)),
    ]);
    let extra = match &mut pairs[at].1 {
        Json::U64(v) => {
            *v += 1;
            None
        }
        Json::Bool(b) => {
            *b = !*b;
            None
        }
        Json::Str(text) => match variants.get(text.as_str()) {
            Some((other, extra)) => {
                *text = other.to_string();
                *extra
            }
            // A name.
            None => {
                text.push('x');
                None
            }
        },
        other => panic!("a spec holds no {other}"),
    };
    if let Some(member) = extra {
        pairs.push((member.to_string(), Json::U64(1)));
    }
}

/// Calls `visit` once per leaf of `doc` with a copy of `doc` in which
/// that leaf alone has changed, and the path to it.
fn each_single_change(doc: &Json, visit: &mut impl FnMut(&str, Json)) {
    // Paths are walked by index so that each copy is edited in one place.
    fn walk(
        root: &Json,
        at: &Json,
        path: &mut Vec<usize>,
        name: &str,
        visit: &mut dyn FnMut(&str, Json),
    ) {
        let children: Vec<(String, &Json)> = match at {
            Json::Obj(pairs) => pairs
                .iter()
                .map(|(k, v)| (format!("{name}.{k}"), v))
                .collect(),
            Json::Arr(items) => items
                .iter()
                .enumerate()
                .map(|(i, v)| (format!("{name}[{i}]"), v))
                .collect(),
            _ => unreachable!("leaves are changed in their parent"),
        };
        for (i, (child_name, child)) in children.into_iter().enumerate() {
            path.push(i);
            if matches!(child, Json::Obj(_) | Json::Arr(_)) {
                walk(root, child, path, &child_name, visit);
            } else {
                let mut copy = root.clone();
                let mut parent = &mut copy;
                for &step in &path[..path.len() - 1] {
                    parent = match parent {
                        Json::Obj(pairs) => &mut pairs[step].1,
                        Json::Arr(items) => &mut items[step],
                        _ => unreachable!(),
                    };
                }
                match parent {
                    Json::Obj(pairs) => change_leaf(pairs, i),
                    other => panic!("{child_name}: a spec holds no bare value in {other}"),
                }
                visit(&child_name, copy);
            }
            path.pop();
        }
    }
    walk(doc, doc, &mut Vec::new(), "", visit);
}

#[test]
fn every_keyed_leaf_moves_the_key_and_about_half_its_bits() {
    let (mut leaves, mut bits) = (0u64, 0u64);
    // Every design variant, step kind and mode between them.
    for job in jobs().into_iter().step_by(4) {
        let key = job.key();
        let place = locality_key(&job);
        let mut seen = HashMap::from([(key.clone(), "the job itself".to_string())]);
        each_single_change(&job_to_json(&job), &mut |path, doc| {
            let changed = from_tree(&doc, read_job)
                .unwrap_or_else(|e| panic!("{path} changed to something undecodable: {e}"));
            // The locality pair is the key less the cycle budget and the
            // pair's iteration count.
            let unplaced = matches!(path, ".label" | ".max_cycles" | ".pair.iterations");
            assert_eq!(
                locality_key(&changed) == place,
                unplaced,
                "{path} and the locality pair"
            );
            if path == ".label" {
                assert_eq!(changed.key(), key);
                return;
            }
            let flipped = u64::from_str_radix(&changed.key(), 16).unwrap()
                ^ u64::from_str_radix(&key, 16).unwrap();
            leaves += 1;
            bits += u64::from(flipped.count_ones());
            if let Some(other) = seen.insert(changed.key(), path.to_string()) {
                panic!("changing {path} gives the key of changing {other}");
            }
        });
        // `pairs` exists only under `multi`, `metrics` everywhere.
        assert!(seen.values().any(|p| p == ".metrics"));
        assert_eq!(
            seen.values().any(|p| p == ".pairs"),
            matches!(job.mode, Mode::Multi(_))
        );
    }
    assert!(leaves > 1_000, "{leaves} leaves walked");
    let mean = bits as f64 / leaves as f64;
    assert!(mean >= 20.0, "a changed leaf flips {mean:.1} of 64 bits");
}

/// The benchmark's sweep grid (5 designs x 8 work x 61 lengths, the
/// budget carrying the index) and figure-shaped jobs: every kernel of
/// the paper under every design, protocol and mode the figures use.
fn sweeps() -> Vec<Job> {
    let cfg = MachineConfig::itanium2_cmp;
    let mut all = Vec::new();
    for design in [
        DesignPoint::existing(),
        DesignPoint::memopti(),
        DesignPoint::syncopti(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
    ] {
        for work in 1..=8 {
            for iterations in 20..=80 {
                let pair = KernelPair::simple("sweep", work, iterations);
                let i = all.len() as u64;
                all.push(
                    Job::pipeline(format!("sweep/p{i}"), pair, cfg(design))
                        .with_max_cycles(1_000_000 + i),
                );
            }
        }
    }
    assert_eq!(all.len(), 2_440);
    for b in hfs::workloads::all_benchmarks() {
        let label = |what: &str| format!("figures/{}/{what}", b.name);
        all.push(Job::single(
            label("single"),
            b.pair.clone(),
            MachineConfig::itanium2_single(),
        ));
        let tuned = [
            DesignPoint::existing_with_qlu(1),
            DesignPoint::memopti_with_qlu(4),
            DesignPoint::heavywt_with(10, 32),
            DesignPoint::heavywt_with(10, 64),
            DesignPoint::heavywt_centralized(12),
            DesignPoint::regmapped(3),
        ];
        for design in DesignPoint::paper_points().into_iter().chain(tuned) {
            for protocol in [Protocol::Msi, Protocol::Mesi, Protocol::Dragon] {
                let mut cfg = cfg(design);
                cfg.mem.protocol = protocol;
                all.push(Job::pipeline(
                    label(&format!("{design}/{}", protocol.label())),
                    b.pair.clone(),
                    cfg,
                ));
            }
            for pairs in 2..=4 {
                let job = Job::multi(label("multi"), b.pair.clone(), cfg(design), pairs);
                all.push(job.with_metrics(pairs == 3));
            }
        }
    }
    all
}

#[test]
fn no_two_jobs_of_the_sweeps_share_a_key() {
    let all = sweeps();
    assert!(all.len() > 2_700, "{} jobs", all.len());
    let mut by_key: HashMap<String, &Job> = HashMap::new();
    let mut by_spec: HashMap<String, &Job> = HashMap::new();
    for job in &all {
        let mut unlabelled = job.clone();
        unlabelled.label.clear();
        let spec = to_text(false, |w| write_job(w, &unlabelled));
        assert!(
            by_spec.insert(spec, job).is_none(),
            "{} is listed twice",
            job.label
        );
        if let Some(other) = by_key.insert(job.key(), job) {
            panic!("{} and {} share {}", job.label, other.label, job.key());
        }
    }
}
