//! `BENCH_trajectory.json`, the repository's perf trajectory: one record
//! per measured change, workload and end-to-end metric, each a set of
//! alternated parent/change pairs from `scripts/pairs.sh`. Ratios compose
//! along a chain only if the chain skips no commit, so per workload every
//! change's parent must be the previous change's commit, or the record
//! must name the gap it follows. Read with `hfs_sim`'s JSON reader.

use std::borrow::Cow;

use hfs_sim::json::{DecodeError, Reader, Source};

fn read(name: &str) -> String {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

/// The `name` of every item of `BENCHMARK.json`'s `list`.
fn manifest_names(manifest: &str, list: &str) -> Vec<String> {
    let mut r = Reader::new(manifest);
    let names = r.obj(|r, o| {
        r.arr_field(o, list, |r| {
            r.obj(|r, o| Ok::<_, DecodeError>(r.str_field(o, "name")?.into_owned()))
        })
    });
    names.expect("BENCHMARK.json lists its workloads and metrics")
}

struct Record<'a> {
    commit: Cow<'a, str>,
    parent: Cow<'a, str>,
    workload: Cow<'a, str>,
    metric: Cow<'a, str>,
    gap: Option<Cow<'a, str>>,
    wins: Option<u64>,
    pairs: u64,
}

fn record<'a>(r: &mut Reader<'a>) -> Result<Record<'a>, DecodeError> {
    r.obj(|r, o| {
        let (commit, parent) = (r.str_field(o, "commit")?, r.str_field(o, "parent")?);
        let (workload, metric) = (r.str_field(o, "workload")?, r.str_field(o, "metric")?);
        let gap = if r.seek(o, "gap")? {
            Some(r.str()?)
        } else {
            None
        };
        let wins = r.field(o, "wins", |r| {
            if r.null()? {
                Ok(None)
            } else {
                r.u64().map(Some)
            }
        })?;
        let pairs = r.u64_field(o, "pairs")?;
        Ok(Record {
            commit,
            parent,
            workload,
            metric,
            gap,
            wins,
            pairs,
        })
    })
}

#[test]
fn each_workloads_records_chain_commit_to_commit_or_name_their_gap() {
    let (text, manifest) = (read("BENCH_trajectory.json"), read("BENCHMARK.json"));
    let workloads = manifest_names(&manifest, "workloads");
    let metrics = manifest_names(&manifest, "end_to_end");
    let mut r = Reader::new(&text);
    let records = r
        .obj(|r, o| r.arr_field(o, "records", record))
        .expect("a `records` array of pairs.sh records");
    r.finish().expect("nothing after the object");
    assert!(!records.is_empty());

    for w in &workloads {
        let chain: Vec<&Record> = records.iter().filter(|x| &*x.workload == w).collect();
        for (i, x) in chain.iter().enumerate() {
            let at = format!("{w} {} record {}", x.metric, x.commit);
            assert!(
                metrics.iter().any(|m| *m == x.metric),
                "{at}: unknown metric"
            );
            assert!(x.pairs > 0 && x.wins.is_none_or(|n| n <= x.pairs), "{at}");
            if let Some(stem) = x.commit.strip_suffix("-dirty") {
                assert_eq!(stem, x.parent, "{at}: a dirty tree is its parent's");
            }
            if let Some(gap) = &x.gap {
                assert!(!gap.trim().is_empty(), "{at}: a gap names its reason");
            }
            let Some(prev) = i.checked_sub(1).map(|p| chain[p]) else {
                continue;
            };
            if prev.commit == x.commit {
                assert_eq!(prev.parent, x.parent, "{at}: one change, one parent");
                assert_eq!(prev.gap, x.gap, "{at}: one change, one gap");
                continue;
            }
            assert!(
                !prev.commit.ends_with("-dirty"),
                "{w}: {} has a successor, so it is committed: record its hash",
                prev.commit
            );
            assert!(
                x.parent == prev.commit || x.gap.is_some(),
                "{at}: its parent {} is not the previous record's commit {}, \
                 and it names no gap",
                x.parent,
                prev.commit
            );
        }
    }
    // Every record belongs to a benchmark workload, so none escapes the
    // chain check.
    for x in &records {
        assert!(workloads.iter().any(|w| *w == x.workload), "{}", x.workload);
    }
}
