//! One description per type, one text driver. Every codec is written
//! once against `Sink`/`Source` and runs straight to and from text. What
//! it writes is pinned by one checksum: the compact and pretty text of
//! every outcome variant and of jobs over every design, protocol and
//! mode, every frame as `write_to` sends it, and the counters
//! `hfs-client stats` prints. What it reads is held against a reference:
//! [`TreeSource`] walks the parsed tree through the same `Source` trait,
//! and the text must read as the tree reads — unknown keys, duplicated
//! keys, missing fields and shuffled fields included. Content keys are
//! the hash driver's output over the same description: nine are pinned
//! (cache schema 2), and the properties a hash of the canonical spec
//! owes — blind to the label, to a trip over the wire and to field
//! order; moved by every keyed leaf; collision-free over the sweeps the
//! repository runs — are checked, as is the locality pair the server
//! orders a chunk by: moved by every keyed leaf but the cycle budget and
//! the iteration count. Last, every numeric leaf is pushed to its bound
//! and past it: a spec that decodes runs or fails as a job.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::Arc;

use hfs::core::kernel::{KStep, Kernel, KernelPair};
use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{
    execute, from_text, locality_key, outcome_to_text, parse, read_job, read_outcome, to_text,
    write_job, write_outcome, DecodeError, Job, JobOutcome, Json, Mode, Sink, Source,
};
use hfs::isa::QueueId;
use hfs::mem::Protocol;
use hfs::serve::{ClientFrame, JobRef, JobResult, ServeStats, ServerFrame, Subscribe};
use hfs::sim::Rng64;

/// The tree driver's [`Source`]: walks a parsed [`Json`] value.
pub struct TreeSource<'a> {
    on: &'a Json,
}

/// The tree driver's place in an object ([`Source::Obj`]).
pub struct TreeObj<'a> {
    pairs: &'a [(String, Json)],
    next: usize,
}

impl<'a> Source<'a> for TreeSource<'a> {
    type Obj = TreeObj<'a>;
    type Arr = std::slice::Iter<'a, Json>;

    fn begin_obj(&mut self) -> Result<TreeObj<'a>, DecodeError> {
        match self.on {
            Json::Obj(pairs) => Ok(TreeObj { pairs, next: 0 }),
            _ => Err(DecodeError::Shape("expected an object".into())),
        }
    }

    fn seek(&mut self, obj: &mut TreeObj<'a>, key: &str) -> Result<bool, DecodeError> {
        let found = obj.pairs.iter().find(|(k, _)| k == key);
        if let Some((_, v)) = found {
            self.on = v;
        }
        Ok(found.is_some())
    }

    fn next_entry(&mut self, obj: &mut TreeObj<'a>) -> Result<Option<Cow<'a, str>>, DecodeError> {
        let Some((k, v)) = obj.pairs.get(obj.next) else {
            return Ok(None);
        };
        obj.next += 1;
        self.on = v;
        Ok(Some(Cow::Borrowed(k)))
    }

    fn end_obj(&mut self, _: TreeObj<'a>) -> Result<(), DecodeError> {
        Ok(())
    }

    fn begin_arr(&mut self) -> Result<Self::Arr, DecodeError> {
        match self.on {
            Json::Arr(items) => Ok(items.iter()),
            _ => Err(DecodeError::Shape("expected an array".into())),
        }
    }

    fn next_item(&mut self, arr: &mut Self::Arr) -> Result<bool, DecodeError> {
        let item = arr.next();
        if let Some(v) = item {
            self.on = v;
        }
        Ok(item.is_some())
    }

    fn null(&mut self) -> Result<bool, DecodeError> {
        Ok(self.on.is_null())
    }

    fn bool(&mut self) -> Result<bool, DecodeError> {
        match self.on {
            Json::Bool(b) => Ok(*b),
            _ => Err(DecodeError::Shape("expected a boolean".into())),
        }
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        self.on
            .as_u64()
            .ok_or_else(|| DecodeError::Shape("expected an unsigned integer".into()))
    }

    fn str(&mut self) -> Result<Cow<'a, str>, DecodeError> {
        match self.on {
            Json::Str(s) => Ok(Cow::Borrowed(s)),
            _ => Err(DecodeError::Shape("expected a string".into())),
        }
    }
}

/// Decodes a parsed tree.
pub fn from_tree<'a, T, E>(
    v: &'a Json,
    read: impl FnOnce(&mut TreeSource<'a>) -> Result<T, E>,
) -> Result<T, E> {
    read(&mut TreeSource { on: v })
}

/// The tree of a written text: a document to edit and read back.
fn doc(text: String) -> Json {
    parse(&text).expect("the text driver writes JSON")
}

/// A job's spec as a document.
fn spec(job: &Job) -> Json {
    doc(to_text(false, |w| write_job(w, job)))
}

/// An outcome as a document.
fn outcome_doc(o: &JobOutcome) -> Json {
    doc(outcome_to_text(o))
}

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

fn stats() -> ServeStats {
    ServeStats {
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
    }
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
        ServerFrame::Stats(stats()),
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

/// FNV-1a over each text's length and bytes.
fn checksum(texts: &[String]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for text in texts {
        for b in (text.len() as u64)
            .to_le_bytes()
            .iter()
            .chain(text.as_bytes())
        {
            h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn the_text_drivers_bytes_are_pinned() {
    let mut texts = Vec::new();
    for o in outcomes() {
        texts.push(outcome_to_text(&o));
        texts.push(to_text(true, |w| write_outcome(w, &o)));
    }
    for job in jobs() {
        texts.push(to_text(false, |w| write_job(w, &job)));
        texts.push(to_text(true, |w| write_job(w, &job)));
    }
    texts.extend(client_frames().iter().map(|f| framed(|b| f.write_to(b))));
    texts.extend(server_frames().iter().map(|f| framed(|b| f.write_to(b))));
    // What `hfs-client stats` prints.
    texts.push(to_text(true, |w| {
        w.begin_obj();
        stats().write_fields(w);
        w.end_obj();
    }));
    // Taken while a tree driver still wrote these texts too, byte for
    // byte. A change here moves a byte on the wire, in a cache entry or
    // in an artifact.
    let bytes: usize = texts.iter().map(String::len).sum();
    assert_eq!(
        format!("{:016x}", checksum(&texts)),
        "e268415b89bf6dbc",
        "{} texts, {bytes} bytes",
        texts.len()
    );
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
/// new field order. A decoder may refuse the result; the text and the
/// tree reader must do the same with it.
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

/// Decodes `doc` through the tree reader and through the text driver
/// (from its compact and its pretty text) and requires one answer;
/// `Some` when it decoded.
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
            &outcome_doc(o),
            |t| from_text(t, read_outcome),
            |v| from_tree(v, read_outcome),
            outcome_doc,
        ));
    }
    for (i, job) in jobs().iter().enumerate().step_by(5) {
        tally(both_drivers_read_alike(
            100 + i as u64,
            &spec(job),
            |t| from_text(t, read_job),
            |v| from_tree(v, read_job),
            spec,
        ));
    }
    // Frames: their codecs are private to `hfs-serve`, so `read_from` of
    // the compact text stands in for the tree reader, and the pretty text
    // must decode alike. The jobs and outcomes inside them are held
    // against the tree reader above.
    let prefixed = |text: &str| {
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        bytes
    };
    let read_client =
        |t: &str| ClientFrame::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame"));
    let client_doc = |f: &ClientFrame| doc(framed(|b| f.write_to(b)));
    for (i, f) in client_frames().iter().enumerate() {
        tally(both_drivers_read_alike(
            200 + i as u64,
            &client_doc(f),
            read_client,
            |v| read_client(&v.to_string()),
            client_doc,
        ));
    }
    let read_server =
        |t: &str| ServerFrame::read_from(&mut prefixed(t).as_slice()).map(|f| f.expect("a frame"));
    let server_doc = |f: &ServerFrame| doc(framed(|b| f.write_to(b)));
    for (i, f) in server_frames().iter().enumerate() {
        tally(both_drivers_read_alike(
            300 + i as u64,
            &server_doc(f),
            read_server,
            |v| read_server(&v.to_string()),
            server_doc,
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
    let seed = outcome_doc(&outcome);
    let read = |doc: &Json| {
        decoded_alike(
            doc,
            |t| from_text(t, read_outcome),
            |v| from_tree(v, read_outcome),
            outcome_doc,
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
    let mut doc = spec(&job);
    edit_at(&mut doc, &["cfg", "mem"], |pairs| {
        pairs.retain(|(k, _)| k != "protocol")
    });
    let old = decoded_alike(
        &doc,
        |t| from_text(t, read_job),
        |v| from_tree(v, read_job),
        spec,
    );
    assert_eq!(old, Some(spec(&job)));
}

#[test]
fn leftover_retry_members_are_unknown_keys() {
    // Specs written before the retry mechanism went still decode, to what
    // they decode to without the member.
    let job = jobs().swap_remove(11);
    let written = spec(&job);
    assert!(
        written.get("retries").is_none(),
        "the spec carries no retries"
    );
    let mut old = written.clone();
    edit_at(&mut old, &[], |pairs| {
        pairs.insert(2, ("retries".to_string(), Json::U64(2)));
    });
    let back = decoded_alike(
        &old,
        |t| from_text(t, read_job),
        |v| from_tree(v, read_job),
        spec,
    );
    assert_eq!(back, Some(written));
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

        let mut doc = spec(&job);
        shuffle_fields(&mut doc, &mut rng);
        for text in [doc.to_string(), doc.to_pretty()] {
            assert_ne!(text, spec(&job).to_string());
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

/// Edits the leaf at an index of the object holding it; says whether it
/// changed the leaf.
type LeafEdit<'a> = dyn FnMut(&mut Vec<(String, Json)>, usize) -> bool + 'a;

/// Calls `visit` once per leaf of `doc` that `edit` changes, with a copy
/// of `doc` in which that leaf alone has changed, and the path to it.
fn each_edited_leaf(doc: &Json, edit: &mut LeafEdit, visit: &mut dyn FnMut(&str, Json)) {
    // Paths are walked by index so that each copy is edited in one place.
    fn walk(
        root: &Json,
        at: &Json,
        path: &mut Vec<usize>,
        name: &str,
        edit: &mut LeafEdit,
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
                walk(root, child, path, &child_name, edit, visit);
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
                let changed = match parent {
                    Json::Obj(pairs) => edit(pairs, i),
                    other => panic!("{child_name}: a spec holds no bare value in {other}"),
                };
                if changed {
                    visit(&child_name, copy);
                }
            }
            path.pop();
        }
    }
    walk(doc, doc, &mut Vec::new(), "", edit, visit);
}

#[test]
fn every_keyed_leaf_moves_the_key_and_about_half_its_bits() {
    let (mut leaves, mut bits) = (0u64, 0u64);
    // Every design variant, step kind and mode between them.
    for job in jobs().into_iter().step_by(4) {
        let key = job.key();
        let place = locality_key(&job);
        let mut seen = HashMap::from([(key.clone(), "the job itself".to_string())]);
        let mut change = |pairs: &mut Vec<(String, Json)>, at| {
            change_leaf(pairs, at);
            true
        };
        each_edited_leaf(&spec(&job), &mut change, &mut |path, doc| {
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

/// Every numeric leaf of a spec, set to 0, 1, its bound and one past it,
/// `u32::MAX` and `u64::MAX`: whatever decodes runs as a job that ends
/// `Ok`, `SimError` or `Timeout`. Never `WorkerDied`, which is how a
/// panic (in this profile, an unchecked overflow too) ends; an abort would
/// end the test binary.
#[test]
fn no_numeric_leaf_can_abort_a_job() {
    use hfs::core::kernel::{MAX_BODY_STEPS, MAX_REGION_BYTES};
    use hfs::core::lower::ARCH_QUEUES;
    use hfs::cpu::{MAX_ISSUE_WIDTH, MAX_WINDOW};
    use hfs::mem::config::{MAX_BUS_CYCLES, MAX_L2_PORTS, MAX_LATENCY, MAX_OZQ_ENTRIES};
    use hfs::mem::{MAX_CACHE_LINES, MAX_LINE_BYTES};
    // The bound of each leaf that has one, by name (a cache's `bytes`
    // bound is its largest geometry at 128-byte lines).
    let bounds: HashMap<&str, u64> = HashMap::from([
        ("n", MAX_BODY_STEPS),
        ("stride", MAX_REGION_BYTES),
        ("queue", ARCH_QUEUES - 1),
        ("cores", 8),
        ("line_bytes", MAX_LINE_BYTES),
        ("l1_latency", MAX_LATENCY),
        ("l2_latency_min", MAX_LATENCY),
        ("l3_latency", MAX_LATENCY),
        ("dram_latency", MAX_LATENCY),
        ("recirc_interval", MAX_LATENCY),
        ("l2_ports", MAX_L2_PORTS.into()),
        ("ozq_entries", MAX_OZQ_ENTRIES.into()),
        ("clock_divider", MAX_BUS_CYCLES),
        ("pipeline_stages", MAX_BUS_CYCLES),
        ("issue_width", MAX_ISSUE_WIDTH.into()),
        ("int_alus", MAX_ISSUE_WIDTH.into()),
        ("fp_units", MAX_ISSUE_WIDTH.into()),
        ("branch_units", MAX_ISSUE_WIDTH.into()),
        ("mem_ports", MAX_ISSUE_WIDTH.into()),
        ("window", MAX_WINDOW.into()),
    ]);
    let (mut ran, mut refused) = (0u32, 0u32);
    // Every design variant and every mode between them.
    for job in jobs().into_iter().step_by(7) {
        let doc = spec(&job);
        for slot in 0..6 {
            let value = std::cell::Cell::new(0);
            let mut set = |pairs: &mut Vec<(String, Json)>, at: usize| {
                // A cache's `bytes` are bounded by its lines, a region's
                // by their own bound.
                let line_bytes = pairs.iter().find_map(|(k, v)| match (k.as_str(), v) {
                    ("line_bytes", Json::U64(l)) => Some(*l),
                    _ => None,
                });
                let bound = match (pairs[at].0.as_str(), line_bytes) {
                    ("bytes", Some(line)) => Some(MAX_CACHE_LINES * line),
                    ("bytes", None) => Some(MAX_REGION_BYTES),
                    (name, _) => bounds.get(name).copied(),
                };
                value.set(match (slot, bound) {
                    (0, _) => 0,
                    (1, _) => 1,
                    (2, _) => u64::from(u32::MAX),
                    (3, _) => u64::MAX,
                    (4, Some(max)) => max,
                    (5, Some(max)) => max + 1,
                    _ => return false,
                });
                let leaf = &mut pairs[at].1;
                let numeric = matches!(leaf, Json::U64(_));
                *leaf = Json::U64(value.get());
                numeric
            };
            each_edited_leaf(&doc, &mut set, &mut |path, edited| {
                let Ok(spec) = from_text(&edited.to_string(), read_job) else {
                    refused += 1;
                    return;
                };
                let budget = spec.max_cycles.min(300);
                let spec = spec.with_max_cycles(budget);
                let outcome = hfs::harness::resolve(None, "", || execute(&spec, 0)).outcome;
                assert!(
                    matches!(
                        outcome,
                        JobOutcome::Ok(_) | JobOutcome::SimError(_) | JobOutcome::Timeout { .. }
                    ),
                    "{} with {path} = {}: {outcome}",
                    job.label,
                    value.get()
                );
                ran += 1;
            });
        }
    }
    assert!(ran > 3_000 && refused > 300, "{ran} ran, {refused} refused");
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
