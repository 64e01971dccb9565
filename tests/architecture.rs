//! The architecture rules: each decision that one module owns a concern
//! is checked here against the source tree, so tier-1 fails the moment a
//! second module takes the concern up.
//!
//! A rule reads the product code of `crates/*/src` — what precedes a
//! file's first `#[cfg(test)]` line — with `std::fs`, and returns the
//! offending lines. Each test runs its rule on the tree, which must be
//! clean, and then on a mutant: the tree with one stray line added in
//! memory, which the rule must report. A rule that reports nothing on
//! its mutant is vacuous.

use std::collections::BTreeSet;
use std::fs;
use std::path::Path;

/// One Rust file: its path from the repository root, and its text.
#[derive(Clone)]
struct Source {
    path: String,
    text: String,
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn read(path: &str) -> String {
    fs::read_to_string(root().join(path)).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// Every `.rs` file under `dir` and its subdirectories, sorted by path.
fn walk(dir: &str, out: &mut Vec<Source>) {
    let entries = fs::read_dir(root().join(dir)).unwrap_or_else(|e| panic!("{dir}: {e}"));
    for entry in entries {
        let name = entry.expect("a directory entry").file_name();
        let path = format!("{dir}/{}", name.to_string_lossy());
        if root().join(&path).is_dir() {
            walk(&path, out);
        } else if path.ends_with(".rs") {
            out.push(Source {
                text: read(&path),
                path,
            });
        }
    }
}

/// Every `.rs` file under `crates/*/src`.
fn tree() -> Vec<Source> {
    let mut out = Vec::new();
    let mut crates: Vec<_> = fs::read_dir(root().join("crates"))
        .expect("crates/")
        .map(|e| e.expect("a directory entry").file_name())
        .collect();
    crates.sort();
    for name in crates {
        let src = format!("crates/{}/src", name.to_string_lossy());
        if root().join(&src).is_dir() {
            walk(&src, &mut out);
        }
    }
    out.sort_by(|a, b| a.path.cmp(&b.path));
    out
}

/// `files` with `line` added at the top of `path`, before any test code.
fn with_line(files: &[Source], path: &str, line: &str) -> Vec<Source> {
    let mut files = files.to_vec();
    let file = files
        .iter_mut()
        .find(|f| f.path == path)
        .unwrap_or_else(|| panic!("{path} is not in the tree"));
    file.text.insert_str(0, &format!("{line}\n"));
    files
}

/// What precedes a file's first `#[cfg(test)]` line.
fn product(text: &str) -> &str {
    let mut at = 0;
    for line in text.split_inclusive('\n') {
        if line.starts_with("#[cfg(test)]") {
            return &text[..at];
        }
        at += line.len();
    }
    text
}

/// Whether `path` is a file in `dir` or one of its subdirectories.
fn under(path: &str, dir: &str) -> bool {
    path.strip_prefix(dir)
        .is_some_and(|rest| rest.starts_with('/'))
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// The offsets in `line` where `word` starts on a word boundary.
fn word_starts<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    line.match_indices(word)
        .map(|(i, _)| i)
        .filter(move |&i| !line[..i].chars().next_back().is_some_and(is_ident))
}

/// Whether `line` holds `word` as a whole word.
fn has_word(line: &str, word: &str) -> bool {
    word_starts(line, word).any(|i| !line[i + word.len()..].starts_with(is_ident))
}

/// The product lines, as `path:n: line`, of `files` accepted by `keep`
/// that `offends`.
fn offending(
    files: &[Source],
    keep: impl Fn(&str) -> bool,
    offends: impl Fn(&str) -> bool,
) -> Vec<String> {
    let mut out = Vec::new();
    for f in files.iter().filter(|f| keep(&f.path)) {
        for (n, line) in product(&f.text).lines().enumerate() {
            if offends(line) {
                out.push(format!("{}:{}: {}", f.path, n + 1, line.trim()));
            }
        }
    }
    out
}

/// Runs `rule` on the tree (clean) and on `mutant` (reported).
fn holds(rule: fn(&[Source]) -> Vec<String>, mutant: impl FnOnce(&[Source]) -> Vec<Source>) {
    let files = tree();
    let found = rule(&files);
    assert!(found.is_empty(), "{}", found.join("\n"));
    let found = rule(&mutant(&files));
    assert!(!found.is_empty(), "the rule missed its mutant");
}

// ---------------------------------------------------------------------
// The knob table
// ---------------------------------------------------------------------

/// The `HFS_[A-Z_]+` names in `text` that follow `lead` and, when
/// `closed`, are followed by a closing quote.
fn knob_names(text: &str, lead: &str, closed: bool) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, _) in text.match_indices(lead) {
        let rest = &text[i + lead.len()..];
        let n = rest
            .find(|c: char| !(c.is_ascii_uppercase() || c == '_'))
            .unwrap_or(rest.len());
        if n > 0 && (!closed || rest[n..].starts_with('"')) {
            out.insert(format!("HFS_{}", &rest[..n]));
        }
    }
    out
}

/// README's knob table names exactly the `HFS_*` variables the crates
/// read (README "Configuration"; DESIGN §6a, the engine's `HFS_*`
/// environment). Allowed: `HFS_ENV_FLAG_UNDER_TEST` exists only inside a
/// unit test, and `HFS_FULL` is `scripts/ci.sh`'s own.
fn knob_table(files: &[Source]) -> Vec<String> {
    let mut code = BTreeSet::from(["HFS_FULL".to_string()]);
    for f in files {
        code.extend(knob_names(&f.text, "\"HFS_", true));
    }
    let mut readme = knob_names(&read("README.md"), "HFS_", false);
    readme.insert("HFS_ENV_FLAG_UNDER_TEST".to_string());
    let only_code = code
        .difference(&readme)
        .map(|k| format!("{k}: read, not in README.md"));
    let only_readme = readme
        .difference(&code)
        .map(|k| format!("{k}: in README.md, not read"));
    only_code.chain(only_readme).collect()
}

#[test]
fn the_knob_table_names_every_variable_read() {
    holds(knob_table, |files| {
        let knob = r#"const SHADOW: &str = "HFS_SHADOW_KNOB";"#;
        with_line(files, "crates/harness/src/engine.rs", knob)
    });
}

// ---------------------------------------------------------------------
// One protocol module
// ---------------------------------------------------------------------

/// The number of seeded faults in `Mutation::ALL`.
const MUTATIONS: usize = 16;

/// No file of `hfs-mem` but `protocol.rs` compares a `Protocol`
/// (DESIGN §6e); the `Protocol::Msi` default in `config.rs` is allowed.
/// And every fault hook is in place: each of the `Mutation::ALL` faults
/// is armed by product code of `hfs-mem`, `hfs-core` or `hfs-cpu`
/// (DESIGN §6d).
fn protocol_module(files: &[Source]) -> Vec<String> {
    let mut out = offending(
        files,
        |p| under(p, "crates/mem/src") && p != "crates/mem/src/protocol.rs",
        |line| line.contains("Protocol::") && !line.contains("protocol: Protocol::Msi,"),
    );
    let check = &files
        .iter()
        .find(|f| f.path == "crates/check/src/lib.rs")
        .expect("hfs-check's lib.rs")
        .text;
    let head = format!("pub const ALL: [Mutation; {MUTATIONS}]");
    let Some(start) = check.find(&head) else {
        out.push(format!("crates/check/src/lib.rs: no `{head}`"));
        return out;
    };
    let list = &check[start + head.len()..];
    let list = &list[..list.find("];").unwrap_or(list.len())];
    let names: Vec<String> = list
        .match_indices("Mutation::")
        .map(|(i, lead)| {
            let rest = &list[i + lead.len()..];
            let name = &rest[..rest.find(|c: char| !is_ident(c)).unwrap_or(rest.len())];
            format!("{lead}{name}")
        })
        .collect();
    if names.len() != MUTATIONS {
        out.push(format!("expected {MUTATIONS} mutations in Mutation::ALL"));
    }
    let armed: String = files
        .iter()
        .filter(|f| {
            ["mem", "core", "cpu"]
                .iter()
                .any(|c| under(&f.path, &format!("crates/{c}/src")))
        })
        .map(|f| product(&f.text))
        .collect();
    for m in names {
        let ends = |(i, _): (usize, &str)| !armed[i + m.len()..].starts_with(is_ident);
        if !armed.match_indices(m.as_str()).any(ends) {
            out.push(format!("{m} is armed by no product code"));
        }
    }
    out
}

#[test]
fn one_module_compares_a_protocol_and_every_fault_is_armed() {
    holds(protocol_module, |files| {
        with_line(
            files,
            "crates/mem/src/l3.rs",
            "const P: Protocol = Protocol::Dragon;",
        )
    });
    holds(protocol_module, |files| {
        let mut files = files.to_vec();
        let system = files
            .iter_mut()
            .find(|f| f.path == "crates/mem/src/system.rs")
            .expect("system.rs");
        system.text = system
            .text
            .replace("Mutation::SwallowForwardDone", "Mutation::Unarmed");
        files
    });
}

// ---------------------------------------------------------------------
// One design module
// ---------------------------------------------------------------------

/// No product file but `design.rs` names a `DesignPoint` variant
/// (DESIGN §5 decision 9). Doc-comment links are allowed; a glob or group
/// import would hide the names, so it counts as naming them.
fn design_module(files: &[Source]) -> Vec<String> {
    const VARIANTS: [&str; 7] = [
        "Existing",
        "MemOpti",
        "SyncOpti",
        "HeavyWt",
        "RegMapped",
        "*",
        "{",
    ];
    offending(
        files,
        |p| p != "crates/core/src/design.rs",
        |line| {
            !line.contains("[`DesignPoint::")
                && line.match_indices("DesignPoint::").any(|(i, _)| {
                    let rest = &line[i + "DesignPoint::".len()..];
                    VARIANTS.iter().any(|v| rest.starts_with(v))
                })
        },
    )
}

#[test]
fn one_module_names_a_design_point_variant() {
    holds(design_module, |files| {
        let stray = "fn f(d: &DesignPoint) -> bool { matches!(d, DesignPoint::HeavyWt(_)) }";
        with_line(files, "crates/core/src/storage.rs", stray)
    });
}

// ---------------------------------------------------------------------
// One codec driver
// ---------------------------------------------------------------------

/// The tree wrappers `ser.rs` and `spec.rs` keep for `benchmark/` alone.
const KEPT: [&str; 5] = [
    "job_to_json",
    "job_from_json",
    "outcome_to_json",
    "outcome_from_json",
    "sweep_to_json",
];

/// No product code writes or reads a `Json` tree as a codec, or calls a
/// wrapper kept for `benchmark/` (DESIGN §6a, one field list per record,
/// two product drivers); the wrappers' definitions are the exception.
fn codec_driver(files: &[Source]) -> Vec<String> {
    const TREE: [&str; 6] = [
        "to_tree",
        "from_tree",
        "TreeSink",
        "TreeSource",
        "TreeObj",
        "Json::Raw",
    ];
    offending(
        files,
        |_| true,
        |line| {
            let uses = TREE.iter().any(|t| line.contains(t))
                || KEPT
                    .iter()
                    .any(|k| word_starts(line, &format!("{k}(")).next().is_some());
            uses && !KEPT.iter().any(|k| line.contains(&format!("pub fn {k}(")))
        },
    )
}

#[test]
fn one_codec_driver_and_no_product_caller_of_a_kept_wrapper() {
    holds(codec_driver, |files| {
        let stray = "fn f(jobs: &[Job]) -> Json { hfs_harness::job_to_json(&jobs[0]) }";
        with_line(files, "crates/bench/src/bin/fig6.rs", stray)
    });
}

// ---------------------------------------------------------------------
// One count, one place
// ---------------------------------------------------------------------

/// No shadow copy of a count (DESIGN §6b): the executors count through
/// the harness's `Lifecycle`, the hot cache's counts are its registry
/// handles, and `MemSystem::counters` in `system.rs` is the one place a
/// `mem.*`/`bus.*` counter is named.
fn one_count(files: &[Source]) -> Vec<String> {
    const SHADOWS: [&str; 4] = ["EngineCounters", "install_metrics", "sync_gauges", "HotObs"];
    let mut out = offending(
        files,
        |_| true,
        |line| SHADOWS.iter().any(|s| line.contains(s)),
    );
    out.extend(offending(
        files,
        |p| p != "crates/mem/src/system.rs",
        |line| word_starts(line, "Counter::new(").next().is_some(),
    ));
    out
}

#[test]
fn a_count_is_kept_once() {
    holds(one_count, |files| {
        with_line(
            files,
            "crates/mem/src/bus.rs",
            r#"fn c() { Counter::new("x", 0); }"#,
        )
    });
}

// ---------------------------------------------------------------------
// One sweep shape
// ---------------------------------------------------------------------

/// Every experiment batch goes through `experiments::grid` (DESIGN §4):
/// `mod.rs` is the one caller of `run_batch` and the one place results
/// are regrouped by row.
fn sweep_shape(files: &[Source]) -> Vec<String> {
    offending(
        files,
        |p| under(p, "crates/bench/src/experiments") && p != "crates/bench/src/experiments/mod.rs",
        |line| {
            ["run_batch(", "chunks_exact("]
                .iter()
                .any(|call| word_starts(line, call).next().is_some())
        },
    )
}

#[test]
fn every_sweep_goes_through_one_grid() {
    holds(sweep_shape, |files| {
        let stray = r#"fn f() { crate::runner::run_batch("x", Vec::new()); }"#;
        with_line(files, "crates/bench/src/experiments/fig8.rs", stray)
    });
}

// ---------------------------------------------------------------------
// One address map
// ---------------------------------------------------------------------

/// Only the map module and the queue layout place a window, a queue or a
/// line (DESIGN §5 decision 10): no other product file of `hfs-core` or
/// `hfs-isa` names `QUEUE_BASE`, `QUEUE_SPAN`, `LINE_BYTES`, a
/// `WORK_BASE` or `line_base(`; `lower.rs` may re-export three of them.
fn address_map(files: &[Source]) -> Vec<String> {
    const PLACES: [&str; 5] = [
        "QUEUE_BASE",
        "QUEUE_SPAN",
        "LINE_BYTES",
        "WORK_BASE",
        "line_base(",
    ];
    offending(
        files,
        |p| {
            (under(p, "crates/core/src") || under(p, "crates/isa/src"))
                && p != "crates/core/src/addr_map.rs"
                && p != "crates/isa/src/program.rs"
        },
        |line| {
            PLACES.iter().any(|w| line.contains(w))
                && !line
                    .starts_with("pub use crate::addr_map::{ARCH_QUEUES, LINE_BYTES, QUEUE_BASE};")
        },
    )
}

#[test]
fn one_module_places_queues_and_lines() {
    holds(address_map, |files| {
        with_line(
            files,
            "crates/core/src/ledger.rs",
            "const LINE: u64 = hfs_isa::program::LINE_BYTES;",
        )
    });
}

// ---------------------------------------------------------------------
// One JSON writer
// ---------------------------------------------------------------------

/// Only `hfs_sim::json` escapes a JSON string or frames a JSON object
/// (DESIGN §6b): an escaper is a `fn escape` or a `"\\u` escape, framing
/// a string literal that opens an object.
fn json_writer(files: &[Source]) -> Vec<String> {
    const WRITES: [&str; 4] = ["fn escape", r#""\\u"#, r#""{\""#, r#"{{\""#];
    offending(
        files,
        |p| p != "crates/sim/src/json.rs",
        |line| WRITES.iter().any(|w| line.contains(w)),
    )
}

#[test]
fn one_json_writer() {
    holds(json_writer, |files| {
        with_line(files, "crates/trace/src/chrome.rs", "fn escape(s: &str) {}")
    });
    holds(json_writer, |files| {
        let head = r#"const HEAD: &str = "{\"traceEvents\":[";"#;
        with_line(files, "crates/trace/src/chrome.rs", head)
    });
}

// ---------------------------------------------------------------------
// One field list
// ---------------------------------------------------------------------

/// A wire record is a `wire!` field list (DESIGN §6a): in `hfs-harness`
/// and `hfs-serve`, the only `fn read_*` are the special documents, the
/// tagged outcome, the frame transport and its header helpers, and the
/// `read_fields` that `wire!` generates; the only hand-written `impl
/// Wire` are the leaves in `wire.rs`, the tagged `KStep`, the
/// kind-tagged `DesignPoint` and the `Breakdown`.
fn field_list(files: &[Source]) -> Vec<String> {
    const READ_OK: [&str; 10] = [
        "job",
        "sweep",
        "run_result",
        "metrics",
        "outcome",
        "frame",
        "from",
        "submit_header",
        "tag",
        "fields",
    ];
    const WIRE_OK: [&str; 11] = [
        "u64",
        "$t",
        "$ty",
        "bool",
        "String",
        "Arc<str>",
        "Vec<T>",
        "Protocol",
        "KStep",
        "DesignPoint",
        "Breakdown",
    ];
    offending(
        files,
        |p| p.starts_with("crates/harness/src/") || p.starts_with("crates/serve/src/"),
        |line| {
            let reader = word_starts(line, "fn read_")
                .any(|i| line[i + "fn read_".len()..].starts_with(is_ident));
            let wire = word_starts(line, "impl").any(|i| {
                !line[i + 4..].starts_with(is_ident)
                    && word_starts(&line[i..], "Wire for ").next().is_some()
            });
            let allowed = READ_OK
                .iter()
                .any(|n| has_word(line, &format!("fn read_{n}")))
                || WIRE_OK.iter().any(|t| {
                    word_starts(line, &format!("Wire for {t} {{"))
                        .next()
                        .is_some()
                });
            (reader || wire) && !allowed
        },
    )
}

#[test]
fn a_wire_record_is_one_field_list() {
    holds(field_list, |files| {
        let by_hand = "fn read_geometry(s: &mut dyn Source) {}";
        with_line(files, "crates/harness/src/spec.rs", by_hand)
    });
    holds(field_list, |files| {
        let by_hand = "impl Wire for CacheGeometry {";
        with_line(files, "crates/harness/src/spec.rs", by_hand)
    });
}

// ---------------------------------------------------------------------
// One release profile
// ---------------------------------------------------------------------

/// The offending lines of `manifests` (no `[profile` table) and of the
/// cargo configuration `config` (its `[profile.release]` keeps
/// `lto = "fat"`).
fn profile_violations(manifests: &[(String, String)], config: &str) -> Vec<String> {
    let mut out: Vec<String> = manifests
        .iter()
        .flat_map(|(path, text)| {
            text.lines()
                .enumerate()
                .filter(|(_, l)| l.trim_start().starts_with("[profile"))
                .map(move |(n, l)| format!("{path}:{}: {l}", n + 1))
        })
        .collect();
    let release = config
        .lines()
        .skip_while(|l| !l.starts_with("[profile.release]"))
        .enumerate()
        .take_while(|&(n, l)| n == 0 || !l.starts_with('['))
        .any(|(_, l)| l == r#"lto = "fat""#);
    if !release {
        out.push(r#".cargo/config.toml: [profile.release] lost `lto = "fat"`"#.to_string());
    }
    out
}

/// `Cargo.toml`, `crates/*/Cargo.toml` and `benchmark/Cargo.toml`.
fn manifests() -> Vec<(String, String)> {
    let mut paths = vec!["Cargo.toml".to_string(), "benchmark/Cargo.toml".to_string()];
    for entry in fs::read_dir(root().join("crates")).expect("crates/") {
        let name = entry.expect("a directory entry").file_name();
        let path = format!("crates/{}/Cargo.toml", name.to_string_lossy());
        if root().join(&path).is_file() {
            paths.push(path);
        }
    }
    paths.sort();
    paths
        .into_iter()
        .map(|path| {
            let text = read(&path);
            (path, text)
        })
        .collect()
}

/// `.cargo/config.toml` sets the release profile for the root workspace
/// and `benchmark/`'s, and no manifest sets one of its own (DESIGN §6c,
/// "One optimisation unit").
#[test]
fn one_release_profile() {
    let (manifests, config) = (manifests(), read(".cargo/config.toml"));
    assert!(manifests.len() > 2, "the crates' manifests were found");
    let found = profile_violations(&manifests, &config);
    assert!(found.is_empty(), "{}", found.join("\n"));
    for manifest in ["Cargo.toml", "benchmark/Cargo.toml"] {
        let mut mutant = manifests.clone();
        let (_, text) = mutant
            .iter_mut()
            .find(|(path, _)| path == manifest)
            .expect("the manifest is read");
        text.push_str("\n[profile.release]\nlto = \"thin\"\n");
        assert!(
            !profile_violations(&mutant, &config).is_empty(),
            "{manifest}"
        );
    }
    for lto in ["", r#"lto = "thin""#] {
        let mutant = config.replace(r#"lto = "fat""#, lto);
        assert!(!profile_violations(&manifests, &mutant).is_empty(), "{lto}");
    }
}

// ---------------------------------------------------------------------
// The protocol table
// ---------------------------------------------------------------------

/// A benchmark's five Figure 7 cycle counts: EXISTING (MSI), SYNCOPTI
/// (MSI), EXISTING (MESI), EXISTING (Dragon), SYNCOPTI (Dragon).
type Row = (String, [u64; 5]);

/// EXPERIMENTS.md's "Coherence protocols" table, gap columns dropped.
fn doc_rows(doc: &str) -> Vec<Row> {
    let start = doc.find("### Coherence protocols").expect("the section");
    let section = &doc[start..];
    let section = &section[..section.find("Geomean EXISTING").unwrap_or(section.len())];
    section
        .lines()
        .filter_map(|line| {
            let cells: Vec<&str> = line.split('|').map(str::trim).collect();
            let n = |i: usize| cells.get(i)?.parse::<u64>().ok();
            Some((
                cells.get(1)?.to_string(),
                [n(2)?, n(3)?, n(5)?, n(7)?, n(8)?],
            ))
        })
        .collect()
}

/// `tests/protocols.rs`'s `FIG7_CYCLES`.
fn test_rows(test: &str) -> Vec<Row> {
    let start = test.find("const FIG7_CYCLES").expect("the pins");
    let pins = &test[start..];
    let pins = &pins[..pins.find("\n];").unwrap_or(pins.len())];
    pins.lines()
        .filter_map(|line| {
            let (name, rest) = line.trim().strip_prefix("(\"")?.split_once("\", [")?;
            let nums: Vec<u64> = rest
                .strip_suffix("]),")?
                .split(", ")
                .map(|n| n.parse().ok())
                .collect::<Option<_>>()?;
            Some((name.to_string(), nums.try_into().ok()?))
        })
        .collect()
}

/// EXPERIMENTS.md and `tests/protocols.rs` pin the same 45 cycle counts
/// (DESIGN §6e; the test runs them, the document reports them).
fn protocol_table(doc: &str, test: &str) -> Vec<String> {
    let (doc, test) = (doc_rows(doc), test_rows(test));
    let mut out = Vec::new();
    if test.len() != 9 {
        out.push(format!(
            "tests/protocols.rs: expected 9 pinned rows, found {}",
            test.len()
        ));
    }
    if doc != test {
        out.push(format!(
            "EXPERIMENTS.md {doc:?} != tests/protocols.rs {test:?}"
        ));
    }
    out
}

#[test]
fn the_protocol_table_is_the_pinned_one() {
    let (doc, test) = (read("EXPERIMENTS.md"), read("tests/protocols.rs"));
    let found = protocol_table(&doc, &test);
    assert!(found.is_empty(), "{}", found.join("\n"));
    let mutant = doc.replacen("| art | 34805 |", "| art | 34806 |", 1);
    assert_ne!(mutant, doc, "the mutant edits a row");
    assert!(!protocol_table(&mutant, &test).is_empty());
}

// ---------------------------------------------------------------------
// One line ledger
// ---------------------------------------------------------------------

/// In `hfs-core`, only the ledger module reads a write-forward's outcome
/// (DESIGN §5 decision 6): no other product file matches `ForwardDone`
/// or `ForwardDropped`, so which slots a line covers and whether it
/// arrived is decided once.
fn line_ledger(files: &[Source]) -> Vec<String> {
    offending(
        files,
        |p| under(p, "crates/core/src") && p != "crates/core/src/ledger.rs",
        |line| line.contains("ForwardDone") || line.contains("ForwardDropped"),
    )
}

#[test]
fn one_ledger_reads_a_forwards_outcome() {
    holds(line_ledger, |files| {
        let credit = "fn f(e: &MemEvent) -> bool { matches!(e, MemEvent::ForwardDone { .. }) }";
        with_line(files, "crates/core/src/backend/syncopti.rs", credit)
    });
}

// ---------------------------------------------------------------------
// The key path
// ---------------------------------------------------------------------

/// Whether `line` formats with `Debug` (`{:?}`, `{:#?}`, `{x:?}`) or
/// names the trait.
fn uses_debug(line: &str) -> bool {
    [":?}", ":#?}", "Debug"].iter().any(|p| line.contains(p))
}

/// A cache key depends on no `Debug` output (DESIGN §6a): no line of
/// `Job::key_ref`, of `key_with` and the field lists it hashes (`spec.rs`,
/// `wire.rs`) or of the hash (`key.rs`) formats with `Debug` or requires
/// it.
fn key_path(files: &[Source]) -> Vec<String> {
    const HASHED: [&str; 3] = [
        "crates/harness/src/spec.rs",
        "crates/harness/src/wire.rs",
        "crates/harness/src/key.rs",
    ];
    let mut out = offending(files, |p| HASHED.contains(&p), uses_debug);
    let job = "crates/harness/src/job.rs";
    let text = product(&files.iter().find(|f| f.path == job).expect("job.rs").text);
    let mut lines = text
        .lines()
        .enumerate()
        .skip_while(|(_, l)| !l.contains("pub fn key_ref"));
    let Some(head) = lines.next() else {
        out.push(format!("{job}: no `pub fn key_ref`"));
        return out;
    };
    let body = lines.take_while(|(_, l)| !l.starts_with("    }"));
    for (n, line) in std::iter::once(head).chain(body) {
        if uses_debug(line) {
            out.push(format!("{job}:{}: {}", n + 1, line.trim()));
        }
    }
    out
}

#[test]
fn a_cache_key_depends_on_no_debug_output() {
    holds(key_path, |files| {
        with_line(files, "crates/harness/src/key.rs", "#[derive(Debug)]")
    });
    holds(key_path, |files| {
        let mut files = files.to_vec();
        let job = files
            .iter_mut()
            .find(|f| f.path == "crates/harness/src/job.rs")
            .expect("job.rs");
        let hashed = "key_with(MODEL_FINGERPRINT, self)";
        assert!(job.text.contains(hashed), "the mutant edits key_ref");
        job.text = job.text.replace(
            hashed,
            r#"key_with(MODEL_FINGERPRINT, &format!("{self:?}"))"#,
        );
        files
    });
}

// ---------------------------------------------------------------------
// The skip path
// ---------------------------------------------------------------------

/// The skip path charges cores only (DESIGN §6c): a refused attempt
/// leaves nothing behind outside the core, so `Machine::advance` calls
/// no memory-system method but `next_event` and takes no `get_mut` on a
/// backend. A replay of refused attempts' side effects would need both.
fn skip_path(files: &[Source]) -> Vec<String> {
    let path = "crates/core/src/machine.rs";
    let text = product(
        &files
            .iter()
            .find(|f| f.path == path)
            .expect("machine.rs")
            .text,
    );
    let mut lines = text
        .lines()
        .enumerate()
        .skip_while(|(_, l)| !l.contains("fn advance("));
    if lines.next().is_none() {
        return vec![format!("{path}: no `fn advance`")];
    }
    let mem_call = |line: &str| {
        line.match_indices("self.mem.").any(|(i, m)| {
            let rest = &line[i + m.len()..];
            let name: String = rest.chars().take_while(|&c| is_ident(c)).collect();
            rest[name.len()..].starts_with('(') && name != "next_event"
        })
    };
    lines
        .take_while(|(_, l)| !l.starts_with("    }"))
        .filter(|(_, l)| mem_call(l) || l.contains("backends") && l.contains("get_mut"))
        .map(|(n, l)| format!("{path}:{}: {}", n + 1, l.trim()))
        .collect()
}

#[test]
fn the_skip_path_charges_cores_only() {
    let charge = "self.cores[i].charge_idle(skipped, comps[i]);";
    for replay in [
        "self.mem.replay_blocked_probes(id, addr, skipped);",
        "if let Some(b) = self.backends.get_mut(i / 2) { b.charge_blocked(id, q, produce, skipped); }",
    ] {
        holds(skip_path, |files| {
            let mut files = files.to_vec();
            let machine = files
                .iter_mut()
                .find(|f| f.path == "crates/core/src/machine.rs")
                .expect("machine.rs");
            assert!(machine.text.contains(charge), "the mutant edits advance");
            machine.text = machine.text.replace(charge, &format!("{charge}\n{replay}"));
            files
        });
    }
}

// ---------------------------------------------------------------------
// The model's fingerprint
// ---------------------------------------------------------------------

/// The crates under `crates/` whose sources `hfs-harness`'s `build.rs`
/// hashes into `MODEL_FINGERPRINT`: its `CRATES` literal.
fn fingerprinted(build: &str) -> BTreeSet<String> {
    let line = build
        .lines()
        .find(|l| l.starts_with("const CRATES: &str = "))
        .expect("build.rs keeps its crate list on one line");
    let list = line.split('"').nth(1).expect("a string literal");
    list.split(' ').map(str::to_string).collect()
}

/// `harness` and every crate it depends on, transitively, by the
/// `hfs-*` lines of each `[dependencies]` table in `manifests`.
fn model_crates(manifests: &[(String, String)]) -> BTreeSet<String> {
    let mut reached = BTreeSet::from(["harness".to_string()]);
    let mut todo = vec!["harness".to_string()];
    while let Some(name) = todo.pop() {
        let path = format!("crates/{name}/Cargo.toml");
        let (_, text) = manifests
            .iter()
            .find(|(p, _)| *p == path)
            .unwrap_or_else(|| panic!("{path} is not read"));
        let deps = text
            .lines()
            .skip_while(|l| *l != "[dependencies]")
            .skip(1)
            .take_while(|l| !l.starts_with('['))
            .filter_map(|l| l.strip_prefix("hfs-"))
            .map(|l| l.split(['.', ' ', '=']).next().unwrap_or(l).to_string());
        for dep in deps {
            if reached.insert(dep.clone()) {
                todo.push(dep);
            }
        }
    }
    reached
}

/// The fingerprint covers what a result depends on (DESIGN §6a): the
/// crates `build.rs` hashes are `hfs-harness` and its dependencies, no
/// more and no fewer.
fn fingerprint_crates(manifests: &[(String, String)], build: &str) -> Vec<String> {
    let (hashed, needed) = (fingerprinted(build), model_crates(manifests));
    let missed = needed
        .difference(&hashed)
        .map(|c| format!("{c}: a dependency of hfs-harness, not fingerprinted"));
    let extra = hashed
        .difference(&needed)
        .map(|c| format!("{c}: fingerprinted, not a dependency of hfs-harness"));
    missed.chain(extra).collect()
}

#[test]
fn the_fingerprint_covers_what_a_result_depends_on() {
    let (manifests, build) = (manifests(), read("crates/harness/build.rs"));
    let found = fingerprint_crates(&manifests, &build);
    assert!(found.is_empty(), "{}", found.join("\n"));
    let mut mutant = manifests.clone();
    let (_, harness) = mutant
        .iter_mut()
        .find(|(path, _)| path == "crates/harness/Cargo.toml")
        .expect("harness's manifest is read");
    let deps = "[dependencies]\n";
    assert!(harness.contains(deps), "the mutant edits [dependencies]");
    *harness = harness.replace(deps, &format!("{deps}hfs-workloads.workspace = true\n"));
    assert!(
        !fingerprint_crates(&mutant, &build).is_empty(),
        "the rule missed its mutant"
    );
}

/// FNV-1a over `bytes`, continuing from `h`.
fn fnv1a(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// `MODEL_FINGERPRINT` is what `build.rs` says it is: FNV-1a over the
/// path below `crates/`, the length and the bytes of each source file of
/// the model's crates, in path order. Catches a build script that hashed
/// an empty or a wrong directory, or read files in `read_dir` order.
/// (`walk` reads `.rs` files only; those `src/` trees hold nothing else.)
#[test]
fn the_fingerprint_is_a_hash_of_the_models_sources() {
    let mut files = Vec::new();
    for name in model_crates(&manifests()) {
        walk(&format!("crates/{name}/src"), &mut files);
    }
    files.sort_by(|a, b| a.path.cmp(&b.path));
    assert!(files.len() > 50, "the sources were found");
    let mut h = 0xcbf2_9ce4_8422_2325;
    for f in &files {
        let path = f.path.strip_prefix("crates/").expect("under crates/");
        h = fnv1a(h, path.as_bytes());
        h = fnv1a(h, &(f.text.len() as u64).to_le_bytes());
        h = fnv1a(h, f.text.as_bytes());
    }
    assert_eq!(
        format!("{h:#018x}"),
        format!("{:#018x}", hfs_harness::MODEL_FINGERPRINT),
        "{} files",
        files.len()
    );
}
