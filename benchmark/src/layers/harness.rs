//! `hfs-harness`: per-job costs below the server — key, spec and outcome
//! codecs, JSON, the disk and hot caches — and the engine's own rows,
//! over a slice of the sweep's jobs and their real outcomes.

use std::hint::black_box;

use hfs_core::DesignPoint;
use hfs_harness::{
    job_from_json, job_to_json, outcome_from_json, outcome_to_json, parse, Cache, Engine, HotCache,
    Job, JobOutcome,
};

use crate::inputs::sweep_jobs;
use crate::layers::{low_of, timed, Ctx, Ledger};
use crate::stats::{quantile, HEADLINE_Q};
use crate::workloads::sweep::WORKERS;

/// Jobs in the slice: one client chunk.
pub const SLICE_JOBS: usize = 512;

/// Seconds `f` takes.
fn secs(f: impl FnOnce()) -> f64 {
    timed(f).0
}

/// The first [`SLICE_JOBS`] jobs of the sweep with their keys, their real
/// outcomes and the outcomes' cached serialization: what the per-job rows
/// of `harness` and the frame rows of `serve` loop over.
pub struct SweepSlice {
    /// The jobs (their keys already computed).
    pub jobs: Vec<Job>,
    /// Content keys, in job order.
    pub keys: Vec<String>,
    /// Outcomes of a direct `hfs_harness::execute`.
    pub outcomes: Vec<JobOutcome>,
    /// `outcome_to_json(..).to_pretty()`, as the caches store it.
    pub texts: Vec<String>,
}

impl SweepSlice {
    /// Builds and executes the slice for `seed`.
    pub fn new(seed: u64, l: &mut Ledger) -> SweepSlice {
        let jobs = sweep_jobs(seed, SLICE_JOBS);
        let keys = jobs.iter().map(Job::key).collect();
        let outcomes: Vec<JobOutcome> = jobs.iter().map(|j| hfs_harness::execute(j, 0)).collect();
        l.check(
            outcomes.iter().all(JobOutcome::is_ok),
            "a job of the sweep slice failed",
        );
        let texts = outcomes
            .iter()
            .map(|o| outcome_to_json(o).to_pretty())
            .collect();
        SweepSlice {
            jobs,
            keys,
            outcomes,
            texts,
        }
    }
}

/// The batch the parallel-efficiency row runs cold: every benchmark under
/// three designs at a thousand iterations — jobs of uneven length, like a
/// figure's.
fn uneven_batch() -> Vec<Job> {
    hfs_workloads::all_benchmarks()
        .iter()
        .flat_map(|b| {
            let b = b.with_iterations(b.pair.iterations.min(1_000));
            [
                DesignPoint::existing(),
                DesignPoint::syncopti(),
                DesignPoint::heavywt(),
            ]
            .map(|d| hfs_bench::runner::design_job("eff", &b, d))
        })
        .collect()
}

/// The `harness.*` rows.
pub fn measure(ctx: &Ctx, slice: &SweepSlice, l: &mut Ledger) {
    let n = SLICE_JOBS as u64;
    let per_job = |s: f64| s / n as f64;
    let fresh = || sweep_jobs(ctx.seed, SLICE_JOBS);
    let SweepSlice {
        jobs,
        keys,
        outcomes,
        texts,
    } = slice;

    // `Job::key()` memoises, so every pass hashes freshly built jobs.
    let key_s = low_of(5, || {
        let built = fresh();
        secs(|| {
            for j in &built {
                black_box(j.key_ref());
            }
        })
    });
    l.put("harness.key_ns", per_job(key_s) * 1e9, 5 * n);

    let specs: Vec<String> = jobs.iter().map(|j| job_to_json(j).to_string()).collect();
    let enc_s = low_of(5, || {
        secs(|| {
            for j in jobs {
                black_box(job_to_json(j).to_string());
            }
        })
    });
    l.put("harness.spec_encode_us", per_job(enc_s) * 1e6, 5 * n);
    let dec_s = low_of(5, || {
        secs(|| {
            for s in &specs {
                black_box(job_from_json(&parse(s).expect("spec parses")).expect("spec decodes"));
            }
        })
    });
    l.put("harness.spec_decode_us", per_job(dec_s) * 1e6, 5 * n);

    let bytes: usize = texts.iter().map(String::len).sum();
    let enc_s = low_of(5, || {
        secs(|| {
            for o in outcomes {
                black_box(outcome_to_json(o).to_pretty());
            }
        })
    });
    l.put("harness.outcome_encode_us", per_job(enc_s) * 1e6, 5 * n);
    let dec_s = low_of(5, || {
        secs(|| {
            for t in texts {
                black_box(outcome_from_json(&parse(t).expect("outcome parses")).expect("decodes"));
            }
        })
    });
    l.put("harness.outcome_decode_us", per_job(dec_s) * 1e6, 5 * n);

    let trees: Vec<_> = texts.iter().map(|t| parse(t).expect("parses")).collect();
    let parse_s = low_of(5, || {
        secs(|| {
            for t in texts {
                black_box(parse(t).expect("parses"));
            }
        })
    });
    l.put(
        "harness.json_parse_mb_per_s",
        bytes as f64 / 1e6 / parse_s,
        5 * n,
    );
    let write_s = low_of(5, || {
        secs(|| {
            for t in &trees {
                black_box(t.to_pretty());
            }
        })
    });
    l.put(
        "harness.json_write_mb_per_s",
        bytes as f64 / 1e6 / write_s,
        5 * n,
    );

    // Disk tier alone (no hot layer in front).
    let dir = ctx.dir.join("layer_cache");
    let _ = std::fs::remove_dir_all(&dir);
    let disk = Cache::with_hot(&dir, None);
    let store_s = secs(|| {
        for (k, o) in keys.iter().zip(outcomes) {
            disk.store(k, o);
        }
    });
    l.put("harness.disk_store_us", per_job(store_s) * 1e6, n);
    let load_s = low_of(5, || {
        secs(|| {
            for k in keys {
                black_box(disk.load(k));
            }
        })
    });
    l.put("harness.disk_load_us", per_job(load_s) * 1e6, 5 * n);

    // Hot tier alone, at the server's default budget.
    let hot = HotCache::new(hfs_harness::hotcache::DEFAULT_HOT_CACHE_MB << 20);
    let insert_s = secs(|| {
        for ((k, o), t) in keys.iter().zip(outcomes).zip(texts) {
            hot.insert(k, o, Some(t));
        }
    });
    l.put("harness.hot_insert_ns", per_job(insert_s) * 1e9, n);
    let get_s = low_of(5, || {
        secs(|| {
            for k in keys {
                black_box(hot.get(k));
            }
        })
    });
    l.put("harness.hot_get_ns", per_job(get_s) * 1e9, 5 * n);
    // A budget the slice overflows: what the LRU bound keeps of a sweep
    // walked in insertion order.
    let small = HotCache::new(256 << 10);
    for ((k, o), t) in keys.iter().zip(outcomes).zip(texts) {
        small.insert(k, o, Some(t));
    }
    for k in keys {
        black_box(small.get(k));
    }
    let s = small.stats();
    l.put(
        "harness.hot_hit_ratio",
        s.hits as f64 / (s.hits + s.misses) as f64,
        s.hits + s.misses,
    );

    // The offline engine on the warm disk cache just written.
    let engine = Engine::new(WORKERS).with_cache_dir(&dir);
    let built = fresh();
    let mut warm = None;
    let warm_s = secs(|| warm = Some(engine.run_batch("slice", built)));
    let warm = warm.expect("the batch ran");
    l.put("harness.engine_us_per_job_warm", per_job(warm_s) * 1e6, n);
    let stats = engine.stats();
    l.put(
        "harness.cache_hit_ratio",
        stats.cache_hits as f64 / stats.jobs as f64,
        stats.jobs,
    );
    let write_s = secs(|| {
        warm.write_artifact(&ctx.dir.join("layer_artifacts"))
            .expect("write the batch artifact");
    });
    l.put("harness.artifact_write_ms", write_s * 1e3, 1);

    // One worker against two, cold and cache-less, on uneven jobs; the
    // two sides alternate so that slow drift of the host hits both. On
    // the one CPU `run.sh` pins the run to, two workers cannot beat one:
    // the row then reads 0.5 less what running the second one costs.
    let (one, two) = (Engine::new(1), Engine::new(2));
    let cold = |engine: &Engine| {
        let batch = uneven_batch();
        secs(|| {
            black_box(engine.run_batch("eff", batch));
        })
    };
    let (mut ones, mut twos) = (Vec::new(), Vec::new());
    for _ in 0..3 {
        ones.push(cold(&one));
        twos.push(cold(&two));
    }
    let one_s = quantile(&ones, HEADLINE_Q);
    let two_s = quantile(&twos, HEADLINE_Q);
    l.put(
        "harness.engine_parallel_eff",
        one_s / (2.0 * two_s),
        two.stats().jobs,
    );
    let waits = two.metrics_report();
    let wait = waits
        .get_histogram("harness.queue_wait_ms")
        .expect("the engine keeps a queue-wait histogram");
    l.put("harness.queue_wait_ms_p50", wait.p50 as f64, wait.count);
}
