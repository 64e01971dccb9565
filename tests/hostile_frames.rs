//! Hostile input at the wire boundary: seeded mutations of real client
//! and server frames — truncation, bit flips, lying length prefixes,
//! wrong-typed fields — pushed through `read_from`. A decoder may refuse
//! a frame; it may never panic, never hang, and never hand back a frame
//! whose `write_to` bytes do not decode to the same bytes again. The
//! same for the one JSON tokenizer
//! under them: deep nesting, huge numbers, surrogates, truncation, bit
//! flips — and whatever parses must re-serialise to the same tree.

use std::sync::mpsc;
use std::time::Duration;

use hfs::core::kernel::KernelPair;
use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{execute, parse, Job, JobOutcome, Json};
use hfs::serve::{
    ClientFrame, JobRef, JobResult, ServeStats, ServerFrame, Subscribe, MAX_FRAME_BYTES,
};
use hfs::sim::Rng64;

/// Mutated frames per side.
const CASES: u64 = 2_000;

fn job(i: u32) -> Job {
    Job::pipeline(
        format!("hostile/p{i}"),
        KernelPair::simple("hostile", 2 + i, 30),
        MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
    )
}

fn encoded(write: impl FnOnce(&mut Vec<u8>) -> std::io::Result<()>) -> Vec<u8> {
    let mut buf = Vec::new();
    write(&mut buf).expect("in-memory write");
    buf
}

fn client_seeds() -> Vec<Vec<u8>> {
    let jobs = vec![job(0), job(1)];
    let refs = jobs
        .iter()
        .map(|j| JobRef {
            key: j.key(),
            label: j.label.clone(),
        })
        .collect();
    [
        ClientFrame::SubmitBatch {
            experiment: "hostile".to_string(),
            id: 3,
            subscribe: Subscribe::All,
            jobs,
        },
        ClientFrame::SubmitRefs {
            experiment: "hostile".to_string(),
            id: 4,
            subscribe: Subscribe::Final,
            refs,
        },
        ClientFrame::Ping,
    ]
    .iter()
    .map(|f| encoded(|b| f.write_to(b)))
    .collect()
}

fn server_seeds() -> Vec<Vec<u8>> {
    let result = |index, outcome| JobResult {
        index,
        label: format!("hostile/p{index}"),
        key: job(index as u32).key(),
        cached: index == 0,
        outcome,
        encoded: None,
    };
    [
        ServerFrame::Accepted {
            experiment: "hostile".to_string(),
            total: 2,
            id: 3,
        },
        ServerFrame::BatchResults {
            experiment: "hostile".to_string(),
            id: 3,
            results: vec![
                result(0, execute(&job(0), 0)),
                result(1, JobOutcome::WorkerDied("worker 0 died".to_string())),
            ],
        },
        ServerFrame::RefsMiss {
            id: 4,
            missing: vec![0, 1],
        },
        ServerFrame::Done {
            experiment: "hostile".to_string(),
            ok: false,
            id: 3,
        },
        ServerFrame::Stats(ServeStats {
            submitted: 2,
            delivered: 2,
            ..ServeStats::default()
        }),
    ]
    .iter()
    .map(|f| encoded(|b| f.write_to(b)))
    .collect()
}

/// Replaces one randomly chosen value somewhere in `v` with a value of
/// another type.
fn retype(v: &mut Json, rng: &mut Rng64) {
    // Descend with probability 3/4 so deep fields get their share.
    let child = match v {
        Json::Obj(pairs) if !pairs.is_empty() && rng.below(4) > 0 => {
            let pick = rng.below(pairs.len() as u64) as usize;
            Some(&mut pairs[pick].1)
        }
        Json::Arr(items) if !items.is_empty() && rng.below(4) > 0 => {
            let pick = rng.below(items.len() as u64) as usize;
            Some(&mut items[pick])
        }
        _ => None,
    };
    match child {
        Some(c) => retype(c, rng),
        None => {
            *v = match v {
                Json::Str(_) => Json::U64(rng.next_u64()),
                Json::U64(_) => Json::Str("7".to_string()),
                Json::Bool(_) => Json::Null,
                _ => Json::Bool(true),
            }
        }
    }
}

/// One mutation of a well-formed frame.
fn mutate(seed: &[u8], rng: &mut Rng64) -> Vec<u8> {
    let mut bytes = seed.to_vec();
    match rng.below(4) {
        // Truncation, anywhere from nothing to one byte short.
        0 => bytes.truncate(rng.below(bytes.len() as u64) as usize),
        // One to four flipped bits in the body.
        1 => {
            for _ in 0..rng.range(1, 5) {
                let at = rng.range(4, bytes.len() as u64) as usize;
                bytes[at] ^= 1 << rng.below(8);
            }
        }
        // A length prefix that promises more than follows: past the
        // frame cap, or just past the end of the input.
        2 => {
            let body = (bytes.len() - 4) as u64;
            let lie = if rng.bool() {
                rng.range(MAX_FRAME_BYTES as u64 + 1, u64::from(u32::MAX) + 1)
            } else {
                body + rng.range(1, 64)
            };
            bytes[..4].copy_from_slice(&(lie as u32).to_be_bytes());
        }
        // A field of the wrong type, honestly framed.
        _ => {
            let text = std::str::from_utf8(&bytes[4..]).expect("frames are UTF-8");
            let mut doc = parse(text).expect("seed frames parse");
            retype(&mut doc, rng);
            let text = doc.to_string();
            bytes = (text.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(text.as_bytes());
        }
    }
    bytes
}

/// Runs [`CASES`] mutations of `seeds` through `decode`, which reports
/// what came back: `Ok(Some(bytes))` for a frame (re-encoded by
/// `write_to`), `Ok(None)` for a clean EOF, `Err` for a refusal. A frame
/// must re-decode to the bytes it was re-encoded to. Returns how many
/// were refused.
fn fuzz(
    stream: u64,
    seeds: &[Vec<u8>],
    decode: impl Fn(&mut &[u8]) -> Result<Option<Vec<u8>>, String>,
) -> u64 {
    let mut rng = Rng64::new(0x5eed).split(stream);
    let mut refused = 0;
    for case in 0..CASES {
        let seed = &seeds[rng.below(seeds.len() as u64) as usize];
        let input = mutate(seed, &mut rng);
        match decode(&mut input.as_slice()) {
            Err(_) => refused += 1,
            Ok(None) => assert!(
                input.is_empty(),
                "case {case}: EOF on {} bytes",
                input.len()
            ),
            Ok(Some(bytes)) => assert!(
                decode(&mut bytes.as_slice()) == Ok(Some(bytes.clone())),
                "case {case}: decoded a frame that does not re-decode: {}",
                String::from_utf8_lossy(&bytes)
            ),
        }
    }
    refused
}

#[test]
fn mutated_frames_are_refused_or_well_formed() {
    let (tx, rx) = mpsc::channel();
    // On its own thread so that a decoder that never returns fails the
    // test instead of wedging it.
    std::thread::spawn(move || {
        let client = fuzz(1, &client_seeds(), |r| match ClientFrame::read_from(r) {
            Ok(f) => Ok(f.map(|f| encoded(|b| f.write_to(b)))),
            Err(e) => Err(e.to_string()),
        });
        let server = fuzz(2, &server_seeds(), |r| match ServerFrame::read_from(r) {
            Ok(f) => Ok(f.map(|f| encoded(|b| f.write_to(b)))),
            Err(e) => Err(e.to_string()),
        });
        let _ = tx.send((client, server));
    });
    let (client, server) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("a decoder panicked or hung on a mutated frame");
    // Most mutations must actually bite, or the loop tests nothing.
    assert!(client > CASES / 2, "only {client} client frames refused");
    assert!(server > CASES / 2, "only {server} server frames refused");
}

#[test]
fn a_deeply_nested_frame_is_refused_not_recursed_into() {
    // 200 KB of open brackets, honestly framed: well under the frame
    // cap, and once enough to overflow the parser's stack and abort the
    // process. Also behind a key the decoder has to step over.
    for body in [
        "[".repeat(200_000),
        format!("{{\"type\":\"ping\",\"x\":{}", "{\"y\":".repeat(40_000)),
    ] {
        let mut frame = (body.len() as u32).to_be_bytes().to_vec();
        frame.extend_from_slice(body.as_bytes());
        assert!(ClientFrame::read_from(&mut frame.as_slice()).is_err());
        assert!(ServerFrame::read_from(&mut frame.as_slice()).is_err());
    }
}

/// A random document: nested to `depth`, with the values that stress
/// the tokenizer (huge and tiny numbers, escapes, surrogate pairs).
fn document(rng: &mut Rng64, depth: u32) -> String {
    const SCALARS: [&str; 14] = [
        "null",
        "true",
        "0",
        "18446744073709551615",
        "18446744073709551616",
        "-0",
        "1e308",
        "-2.5E-3",
        "123456789012345678901234567890",
        "\"\"",
        "\"a\\\"b\\\\c\\n\\u0041\\u00e9\"",
        "\"\\ud83d\\ude80\"",
        "\"π🚀é\"",
        "\"\\/\\b\\f\\r\\t\"",
    ];
    let n = rng.below(4);
    match if depth == 0 { 0 } else { rng.below(3) } {
        0 => SCALARS[rng.below(SCALARS.len() as u64) as usize].to_string(),
        1 => {
            let items: Vec<String> = (0..n).map(|_| document(rng, depth - 1)).collect();
            format!("[{}]", items.join(if rng.bool() { "," } else { " ,\n\t" }))
        }
        _ => {
            let pairs: Vec<String> = (0..n)
                .map(|i| format!("\"k{i}\\u00e9\" : {}", document(rng, depth - 1)))
                .collect();
            format!("{{{}}}", pairs.join(","))
        }
    }
}

#[test]
fn hostile_json_is_refused_or_round_trips() {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let mut rng = Rng64::new(0x5eed).split(3);
        let (mut parsed, mut refused) = (0u64, 0u64);
        for case in 0..4 * CASES {
            let mut text = document(&mut rng, 1 + (case % 6) as u32).into_bytes();
            match rng.below(6) {
                // As generated: must parse.
                0 => {}
                1 => text.truncate(rng.below(text.len() as u64 + 1) as usize),
                2 => {
                    let at = rng.below(text.len() as u64) as usize;
                    text[at] ^= 1 << rng.below(8);
                }
                // Nesting past any sane depth, closed or not.
                3 => {
                    let levels = rng.range(100, 5_000) as usize;
                    let mut deep = b"[".repeat(levels);
                    deep.extend_from_slice(&text);
                    if rng.bool() {
                        deep.extend_from_slice(&b"]".repeat(levels));
                    }
                    text = deep;
                }
                // The tokenizer's own edge cases.
                4 => {
                    let bad = [
                        "\"\\ud83d\"",
                        "\"\\ude80\\ud83d\"",
                        "\"\\u+123\"",
                        "01",
                        "1.",
                        "1e999",
                        "-",
                        "\"\\u12",
                    ];
                    text = bad[rng.below(bad.len() as u64) as usize]
                        .as_bytes()
                        .to_vec();
                }
                _ => text.extend_from_slice(b" x"),
            }
            // Bit flips can leave invalid UTF-8, which never reaches the
            // parser (`read_frame` refuses it first).
            let Ok(text) = String::from_utf8(text) else {
                refused += 1;
                continue;
            };
            match parse(&text) {
                Err(_) => refused += 1,
                Ok(tree) => {
                    parsed += 1;
                    for again in [tree.to_string(), tree.to_pretty()] {
                        assert_eq!(
                            parse(&again).as_ref(),
                            Ok(&tree),
                            "case {case}: {text:?} re-serialised to {again:?}"
                        );
                    }
                }
            }
        }
        let _ = tx.send((parsed, refused));
    });
    let (parsed, refused) = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the parser panicked or hung on hostile text");
    assert!(parsed > CASES / 2, "only {parsed} documents parsed");
    assert!(refused > CASES / 2, "only {refused} documents refused");
}

#[test]
fn every_distinct_name_from_the_wire_decodes() {
    // A name is owned by the job that carries it: no process-wide table
    // fills up, so a client cannot talk the server out of new names.
    let frame = ClientFrame::SubmitBatch {
        experiment: "hostile".to_string(),
        id: 9,
        subscribe: Subscribe::Final,
        jobs: vec![job(0)],
    };
    let seed = String::from_utf8(encoded(|b| frame.write_to(b)).split_off(4)).expect("UTF-8");
    let own = "\"name\":\"hostile\"";
    assert_eq!(seed.matches(own).count(), 1, "one kernel name per job");
    let submit = |name: &str| {
        let text = seed.replace(own, &format!("\"name\":\"{name}\""));
        let mut bytes = (text.len() as u32).to_be_bytes().to_vec();
        bytes.extend_from_slice(text.as_bytes());
        match ClientFrame::read_from(&mut bytes.as_slice()) {
            Ok(Some(f)) => Ok(f),
            Ok(None) => Err("no frame".to_string()),
            Err(e) => Err(e.to_string()),
        }
    };
    assert!(submit("hostile").is_ok());

    let refused = (0..5_000)
        .filter(|i| submit(&format!("flood-{i}")).is_err())
        .count();
    assert_eq!(refused, 0, "of 5000 distinct names");
    // The length bound on a name is what stays.
    assert!(submit(&"n".repeat(129)).is_err(), "a 129-byte name");
    assert!(submit("hostile").is_ok());
}
