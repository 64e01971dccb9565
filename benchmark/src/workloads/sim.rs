//! `sim_dense` and `sim_stream`: the run loop alone, through
//! `hfs_harness::execute_once` (no engine, no cache, no server).

use std::time::Instant;

use hfs_core::{Machine, RunResult};
use hfs_harness::{execute_once, Job};
use hfs_sim::Rng64;

use crate::goldens;
use crate::inputs::{shuffle, SimPoint};
use crate::report::Tally;
use crate::spans::Recorder;
use crate::workloads::{same_result, Workload};

/// A fixed set of simulator points run in interleaved rounds.
pub struct Sim {
    points: Vec<SimPoint>,
    jobs: Vec<Job>,
    /// Each point's warm-up result: the reference every timed run of the
    /// point must reproduce.
    first: Vec<RunResult>,
    /// Seeds the per-round point order.
    rng: Rng64,
    tally: Tally,
}

impl Sim {
    /// A workload over `points`; `seed` shuffles the order of the points
    /// within each round (the points themselves are fixed).
    pub fn new(points: Vec<SimPoint>, seed: u64) -> Sim {
        Sim {
            points,
            jobs: Vec::new(),
            first: Vec::new(),
            rng: Rng64::new(seed).split(0x0de2),
            tally: Tally::default(),
        }
    }

    fn run_point(&mut self, i: usize, rec: &mut Recorder, op_id: u64) -> (f64, Option<RunResult>) {
        let job = &self.jobs[i];
        let start = Instant::now();
        let result = if !rec.is_enabled() {
            execute_once(job).ok()
        } else {
            // The traced rep makes the same calls `execute_once` makes,
            // with a span around each.
            rec.enter("core", "machine_new", op_id);
            let machine = Machine::new_pipeline(&job.cfg, &job.pair);
            rec.exit();
            rec.enter("core", "run", op_id);
            let result = machine.ok().and_then(|mut m| m.run(job.max_cycles).ok());
            rec.exit();
            result
        };
        (start.elapsed().as_secs_f64(), result)
    }
}

impl Workload for Sim {
    fn setup(&mut self) {
        self.jobs = self.points.iter().map(SimPoint::job).collect();
        // Warm-up round: pages in code, primes the allocator, and yields
        // the reference results.
        self.first = self
            .jobs
            .iter()
            .map(|j| execute_once(j).unwrap_or_else(|e| panic!("{}: {e}", j.label)))
            .collect();
    }

    fn parts(&self) -> usize {
        self.points.len()
    }

    fn rep(&mut self, rec: &mut Recorder, op_id: u64, out: &mut Vec<(usize, f64)>) {
        let mut order: Vec<usize> = (0..self.points.len()).collect();
        shuffle(&mut order, &mut self.rng);
        rec.enter("bench", "round", op_id);
        for i in order {
            let (secs, result) = self.run_point(i, rec, op_id);
            out.push((i, secs));
            let ok = result.is_some_and(|r| same_result(&r, &self.first[i]));
            self.tally.record(ok);
        }
        rec.exit();
    }

    fn jobs_per_rep(&self) -> u64 {
        self.points.len() as u64
    }

    fn cycles_per_rep(&self) -> u64 {
        self.first.iter().map(|r| r.cycles).sum()
    }

    fn finish(&mut self, notes: &mut Vec<String>) -> Tally {
        // The production run loop against the per-cycle walk (the test
        // oracle the other loops are bit-identical to by construction).
        for (i, job) in self.jobs.iter().enumerate() {
            let walked = Machine::new_pipeline(&job.cfg, &job.pair)
                .ok()
                .and_then(|mut m| {
                    m.set_fast_forward(false);
                    m.run(job.max_cycles).ok()
                });
            self.tally
                .record(walked.is_some_and(|r| same_result(&r, &self.first[i])));
            notes.extend(goldens::drift(&self.points[i], &self.first[i]));
        }
        self.tally
    }

    fn layer_jobs(&self) -> Vec<Job> {
        self.points.iter().map(SimPoint::job).collect()
    }
}
