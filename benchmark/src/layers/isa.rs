//! `hfs-isa`: draining a `Sequencer` over the workload's lowered
//! programs, with nothing behind it — spin values are delivered at once.

use std::time::Instant;

use hfs_core::lower::{lower, lower_fused, Lowered, Role};
use hfs_harness::{Job, Mode};
use hfs_isa::{DynOp, Sequencer};

use crate::layers::{Ctx, Ledger};

/// The programs `job` runs, each with the flag value that ends its
/// spins: a producer waits for an empty slot (0), a consumer for a full
/// one (1).
pub fn lowered_programs(job: &Job) -> Vec<(Lowered, u64)> {
    let lowered = |role| lower(&job.pair, &job.cfg.design, role).expect("the job lowers");
    match job.mode {
        Mode::Single => vec![(lower_fused(&job.pair).expect("the job fuses"), 0)],
        Mode::Pipeline | Mode::Multi(_) => {
            vec![(lowered(Role::Producer), 0), (lowered(Role::Consumer), 1)]
        }
    }
}

/// Pops every dynamic instruction of `program`; returns how many.
fn drain(program: &Lowered, seed: u64, spin_exit: u64) -> u64 {
    let mut seq =
        Sequencer::new(&program.program, &program.region_bases, seed).expect("valid program");
    let mut instrs = 0u64;
    loop {
        match seq.pop() {
            Some(i) => {
                instrs += 1;
                if let DynOp::Load {
                    spin: Some(token), ..
                } = i.op
                {
                    seq.deliver_spin(token, spin_exit);
                }
            }
            None if seq.finished() => return instrs,
            None => panic!("sequencer blocked with its spin value already delivered"),
        }
    }
}

/// The `isa.*` rows.
pub fn measure(ctx: &Ctx, l: &mut Ledger) {
    let (mut nanos, mut instrs) = (0u128, 0u64);
    for job in &ctx.jobs {
        for (program, spin_exit) in lowered_programs(job) {
            let t = Instant::now();
            instrs += drain(&program, job.cfg.seed, spin_exit);
            nanos += t.elapsed().as_nanos();
        }
    }
    l.put("isa.seq_ns_per_instr", nanos as f64 / instrs as f64, instrs);
    l.put("isa.seq_instrs", instrs as f64, instrs);
}
