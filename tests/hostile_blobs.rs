//! Hostile input at the two byte boundaries `hostile_frames.rs` does not
//! reach: files in the result cache and job specs. A cache entry that is
//! cut short, has a flipped bit, sits under another entry's name, lacks
//! its header or was written under cache schema 1 must be a miss that the
//! next store rewrites — never a served outcome, never a panic. A mutated
//! spec must decode or be refused, and whatever decodes must keep its key
//! over a trip through `write_job` and back.

use std::fs;
use std::path::{Path, PathBuf};

use hfs::core::kernel::KernelPair;
use hfs::core::{DesignPoint, MachineConfig};
use hfs::harness::{
    execute, from_text, outcome_to_text, read_job, to_text, write_job, write_outcome, Cache, Job,
    JobOutcome,
};
use hfs::sim::Rng64;

/// Mutated specs.
const SPECS: u64 = 4_000;

/// Random single-bit flips per part (header, body) of each blob.
const FLIPS: u64 = 150;

fn job(i: u32, design: DesignPoint) -> Job {
    Job::pipeline(
        format!("hostile/p{i}"),
        KernelPair::simple("hostile", 2 + i, 30),
        MachineConfig::itanium2_cmp(design),
    )
}

/// One stored entry: its key, its file, the bytes the store wrote and
/// the outcome they hold.
struct Blob {
    key: String,
    path: PathBuf,
    good: Vec<u8>,
    outcome: JobOutcome,
}

/// A fresh cache directory holding one blob per design.
struct Blobs {
    dir: PathBuf,
    cache: Cache,
    entries: Vec<Blob>,
}

impl Blobs {
    fn new(tag: &str) -> Blobs {
        let dir = std::env::temp_dir().join(format!("hfs-hostile-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // No hot layer: every load reads the file.
        let cache = Cache::with_hot(&dir, None);
        let entries = [
            DesignPoint::existing(),
            DesignPoint::syncopti_sc_q64(),
            DesignPoint::heavywt(),
        ]
        .into_iter()
        .enumerate()
        .map(|(i, design)| {
            let job = job(i as u32, design);
            let (key, outcome) = (job.key(), execute(&job, 0));
            assert!(outcome.is_ok(), "{outcome}");
            cache.store(&key, &outcome);
            let path = dir.join(&key[..1]).join(format!("{key}.json"));
            let good = fs::read(&path).expect("the store wrote the blob");
            Blob {
                key,
                path,
                good,
                outcome,
            }
        })
        .collect();
        Blobs {
            dir,
            cache,
            entries,
        }
    }

    /// With `bad` in the file of entry `i`: the load misses, a store
    /// restores the file byte for byte, and the load hits again.
    fn must_miss_then_heal(&self, i: usize, bad: &[u8], what: &str) {
        let Blob {
            key, path, good, ..
        } = &self.entries[i];
        assert_ne!(bad, good, "{what}: not a mutation");
        fs::write(path, bad).expect("write the bad blob");
        if let Some(served) = self.cache.load(key) {
            panic!(
                "{what}: served {} from {:?}",
                outcome_to_text(&served),
                String::from_utf8_lossy(bad)
            );
        }
        self.heal(i, what);
    }

    fn heal(&self, i: usize, what: &str) {
        let Blob {
            key,
            path,
            good,
            outcome,
        } = &self.entries[i];
        self.cache.store(key, outcome);
        assert_eq!(&fs::read(path).unwrap(), good, "{what}: not rewritten");
        let back = self.cache.load(key).expect("a rewritten entry hits");
        assert_eq!(outcome_to_text(&back), outcome_to_text(outcome), "{what}");
    }
}

impl Drop for Blobs {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.dir);
    }
}

#[test]
fn a_damaged_blob_is_a_miss_the_next_store_rewrites() {
    let blobs = Blobs::new("damage");
    let mut rng = Rng64::new(0x5eed).split(4);
    for (i, Blob { good, outcome, .. }) in blobs.entries.iter().enumerate() {
        let newline = good.iter().position(|&b| b == b'\n').expect("a header");
        let body = &good[newline + 1..];
        assert_eq!(body, outcome_to_text(outcome).as_bytes());

        for len in (0..good.len()).step_by(8) {
            blobs.must_miss_then_heal(i, &good[..len], &format!("cut to {len} bytes"));
        }
        for (part, range) in [
            ("header", 0..newline + 1),
            ("body", newline + 1..good.len()),
        ] {
            for _ in 0..FLIPS {
                let at = rng.range(range.start as u64, range.end as u64) as usize;
                let bit = rng.below(8);
                let mut bad = good.clone();
                bad[at] ^= 1 << bit;
                blobs.must_miss_then_heal(i, &bad, &format!("bit {bit} of {part} byte {at}"));
            }
        }
        blobs.must_miss_then_heal(i, body, "the header dropped");
        // What schema 1 stored under a key: the pretty text, no header.
        let schema_1 = to_text(true, |w| write_outcome(w, outcome));
        blobs.must_miss_then_heal(i, schema_1.as_bytes(), "a schema-1 blob");
    }
}

#[test]
fn a_blob_under_another_blobs_name_is_a_miss() {
    let blobs = Blobs::new("swap");
    let n = blobs.entries.len();
    let path = |i: usize| -> &Path { &blobs.entries[i % n].path };
    for i in 0..n {
        // Swap the files of two entries: each is intact, neither is the
        // entry its name promises.
        let tmp = blobs.dir.join("swap.tmp");
        fs::rename(path(i), &tmp).unwrap();
        fs::rename(path(i + 1), path(i)).unwrap();
        fs::rename(&tmp, path(i + 1)).unwrap();
        for j in [i, i + 1] {
            let key = &blobs.entries[j % n].key;
            assert!(blobs.cache.load(key).is_none(), "{key} served a stranger");
        }
        blobs.heal(i, "swapped");
        blobs.heal((i + 1) % n, "swapped");
    }
}

/// One mutation of a well-formed spec text.
fn mutate(seed: &str, rng: &mut Rng64) -> Vec<u8> {
    let mut bytes = seed.as_bytes().to_vec();
    let len = bytes.len() as u64;
    match rng.below(5) {
        0 => bytes.truncate(rng.below(len) as usize),
        1 => {
            for _ in 0..rng.range(1, 4) {
                bytes[rng.below(len) as usize] ^= 1 << rng.below(8);
            }
        }
        // A number replaced: small, at a narrowing edge, past `u64`.
        2 => {
            let digits: Vec<usize> = (0..bytes.len())
                .filter(|&i| bytes[i].is_ascii_digit() && !bytes[i - 1].is_ascii_digit())
                .collect();
            let at = digits[rng.below(digits.len() as u64) as usize];
            let end = at
                + bytes[at..]
                    .iter()
                    .take_while(|b| b.is_ascii_digit())
                    .count();
            let with = ["0", "7", "255", "256", "4294967296", "18446744073709551616"];
            let with = with[rng.below(with.len() as u64) as usize];
            bytes.splice(at..end, with.bytes());
        }
        // A stretch cut out, or said twice.
        3 => {
            let from = rng.below(len) as usize;
            let to = (from + rng.range(1, 40) as usize).min(bytes.len());
            bytes.drain(from..to);
        }
        _ => {
            let from = rng.below(len) as usize;
            let to = (from + rng.range(1, 40) as usize).min(bytes.len());
            let again = bytes[from..to].to_vec();
            bytes.splice(to..to, again);
        }
    }
    bytes
}

#[test]
fn a_mutated_spec_is_refused_or_keeps_its_key_over_the_wire() {
    let seeds: Vec<String> = [
        job(0, DesignPoint::existing()),
        job(1, DesignPoint::syncopti_sc_q64()).with_metrics(true),
        job(2, DesignPoint::regmapped(3)).with_max_cycles(77),
        Job::multi(
            "hostile/multi",
            KernelPair::simple("hostile", 3, 30),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
            3,
        ),
    ]
    .iter()
    .map(|j| to_text(false, |w| write_job(w, j)))
    .collect();
    let mut rng = Rng64::new(0x5eed).split(5);
    let (mut decoded, mut refused) = (0u64, 0u64);
    for case in 0..SPECS {
        let seed = &seeds[rng.below(seeds.len() as u64) as usize];
        // Invalid UTF-8 never reaches a decoder (`read_frame` refuses it).
        let Ok(text) = String::from_utf8(mutate(seed, &mut rng)) else {
            refused += 1;
            continue;
        };
        let Ok(job) = from_text(&text, read_job) else {
            refused += 1;
            continue;
        };
        decoded += 1;
        let again = to_text(false, |w| write_job(w, &job));
        let back = from_text(&again, read_job)
            .unwrap_or_else(|e| panic!("case {case}: {text} re-encoded to {again}: {e}"));
        assert_eq!(back.key(), job.key(), "case {case}: {text} vs {again}");
        assert_eq!(
            to_text(false, |w| write_job(w, &back)),
            again,
            "case {case}"
        );
    }
    // Both answers must be common, or the loop tests nothing.
    assert!(decoded > SPECS / 10, "only {decoded} specs decoded");
    assert!(refused > SPECS / 4, "only {refused} specs refused");
}
