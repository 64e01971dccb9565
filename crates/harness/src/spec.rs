//! Wire (de)serialization of [`Job`] specifications.
//!
//! The `hfs-serve` protocol ships whole jobs — kernel pair, full machine
//! configuration, mode, budgets — as JSON, so a client can submit any
//! sweep the offline runner could build (including the ablation sweeps
//! that mutate arbitrary [`MachineConfig`] fields). Encoding is
//! total; decoding validates shape but deliberately not semantics (the
//! simulator's own `validate()` runs when the machine is built, so a
//! malformed spec fails the job, not the server).
//!
//! Each Table 2 parameter group and kernel record is one field list
//! ([`wire!`](crate::wire!)); `KStep`, `DesignPoint` and the job (each
//! tagged) are written by hand. Frames run [`write_job`]/[`read_job`]
//! straight to and from text, `fig6 --dump-jobs` and `hfs-client
//! submit` run [`write_sweep`]/[`read_sweep`] the same way, and
//! [`Job::key`] hashes what `write_job` writes after the label.
//!
//! Kernel and region names are owned by the job that carries them; a
//! name from the wire is refused past [`crate::wire::MAX_NAME_BYTES`].

use std::fmt::Write as _;

use hfs_core::kernel::{KRegion, KStep, Kernel, KernelPair};
use hfs_core::{DesignPoint, MachineConfig};
use hfs_cpu::CoreConfig;
use hfs_isa::QueueId;
use hfs_mem::{BusConfig, CacheGeometry, MemConfig, Protocol};

use crate::job::{Job, Mode};
use crate::json::{from_text, parse, to_text, Json, Sink, Source};
use crate::key::HashSink;
use crate::ser::DecodeError;
use crate::wire::{field, Wire};

crate::wire! {
    KRegion { name, bytes }
    Kernel { regions, steps }
    KernelPair { name, producer, consumer, iterations }
    CacheGeometry { bytes, ways, line_bytes }
    BusConfig { width_bytes, clock_divider, pipeline_stages, favor_app_traffic }
    // Specs written before the protocol axis existed are MSI.
    MemConfig {
        cores, l1d, l1_latency, l2, l2_latency_min, l2_ports, ozq_entries, recirc_interval,
        l3, l3_latency, dram_latency, bus, protocol = Protocol::Msi,
    }
    CoreConfig { issue_width, int_alus, fp_units, branch_units, mem_ports, window, free_queue_ops }
    MachineConfig { mem, core, design, seed, deadlock_cycles }
}

impl Wire for KStep {
    fn write<S: Sink>(&self, s: &mut S) {
        use KStep::*;
        s.begin_obj();
        s.str_field(
            "op",
            match self {
                Alu(_) => "alu",
                AluChain(_) => "alu_chain",
                FpChain(_) => "fp_chain",
                Fp(_) => "fp",
                Branch => "branch",
                LoadStream { .. } => "load_stream",
                LoadRandom { .. } => "load_random",
                StoreStream { .. } => "store_stream",
                StoreRandom { .. } => "store_random",
                Produce(_) => "produce",
                Consume(_) => "consume",
                Loop(..) => "loop",
            },
        );
        match self {
            Alu(n) | AluChain(n) | FpChain(n) | Fp(n) => s.u64_field("n", u64::from(*n)),
            Branch => {}
            LoadStream { region, .. }
            | LoadRandom { region }
            | StoreStream { region, .. }
            | StoreRandom { region } => s.u64_field("region", *region as u64),
            Produce(q) | Consume(q) => s.u64_field("queue", u64::from(q.0)),
            Loop(body, count) => {
                s.u64_field("count", *count);
                s.arr_field("body", body, |s, step| step.write(s));
            }
        }
        if let LoadStream { stride, .. } | StoreStream { stride, .. } = self {
            s.u64_field("stride", *stride);
        }
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<KStep, DecodeError> {
        s.obj(|s, o| {
            let op = s.str_field(o, "op")?;
            Ok(match &*op {
                "alu" | "alu_chain" | "fp_chain" | "fp" => {
                    let n = s.uint_field(o, "n")?;
                    match &*op {
                        "alu" => KStep::Alu(n),
                        "alu_chain" => KStep::AluChain(n),
                        "fp_chain" => KStep::FpChain(n),
                        _ => KStep::Fp(n),
                    }
                }
                "branch" => KStep::Branch,
                "load_random" | "store_random" | "load_stream" | "store_stream" => {
                    let region = s.uint_field(o, "region")?;
                    let load = op.starts_with("load");
                    if op.ends_with("random") {
                        if load {
                            KStep::LoadRandom { region }
                        } else {
                            KStep::StoreRandom { region }
                        }
                    } else {
                        let stride = s.u64_field(o, "stride")?;
                        if load {
                            KStep::LoadStream { region, stride }
                        } else {
                            KStep::StoreStream { region, stride }
                        }
                    }
                }
                "produce" | "consume" => {
                    let q = QueueId(s.uint_field(o, "queue")?);
                    if &*op == "produce" {
                        KStep::Produce(q)
                    } else {
                        KStep::Consume(q)
                    }
                }
                "loop" => {
                    let count = s.u64_field(o, "count")?;
                    KStep::Loop(field(s, o, "body", None)?, count)
                }
                other => return Err(DecodeError::Shape(format!("unknown kernel op `{other}`"))),
            })
        })
    }
}

impl Wire for DesignPoint {
    fn write<S: Sink>(&self, s: &mut S) {
        s.begin_obj();
        s.str_field("kind", self.wire_kind());
        // Handing every value back makes the result `self` again. A field
        // whose `max` is 1 is a flag, and travels as a boolean.
        let _ = self.map_wire_fields(|name, max, v| {
            if max == 1 {
                s.bool_field(name, v != 0);
            } else {
                s.u64_field(name, v);
            }
            Ok::<_, std::convert::Infallible>(v)
        });
        s.end_obj();
    }

    fn read<'a, S: Source<'a>>(s: &mut S) -> Result<DesignPoint, DecodeError> {
        s.obj(|s, o| {
            let kind = s.str_field(o, "kind")?;
            DesignPoint::of_wire_kind(&kind)
                .ok_or_else(|| DecodeError::Shape(format!("unknown design kind `{kind}`")))?
                .map_wire_fields(|name, max, _| {
                    let v = if max == 1 {
                        s.bool_field(o, name)?.into()
                    } else {
                        s.u64_field(o, name)?
                    };
                    if v > max {
                        return Err(DecodeError::Shape(format!(
                            "field `{name}` is out of range"
                        )));
                    }
                    Ok(v)
                })
        })
    }
}

/// The members of a job's spec that determine its outcome — all but
/// the display label — into the object `s` has open. The wire and the
/// cache key ([`key_with`]) both run this one list.
fn write_keyed<S: Sink>(s: &mut S, job: &Job) {
    write_mode(s, job.mode);
    s.u64_field("max_cycles", job.max_cycles);
    s.bool_field("metrics", job.metrics);
    s.key("pair");
    job.pair.write(s);
    s.key("cfg");
    job.cfg.write(s);
}

fn write_mode<S: Sink>(s: &mut S, mode: Mode) {
    s.key("mode");
    match mode {
        Mode::Pipeline => s.str("pipeline"),
        Mode::Single => s.str("single"),
        Mode::Multi(n) => {
            s.str("multi");
            s.u64_field("pairs", u64::from(n));
        }
    }
}

/// Pushes a [`Job`] spec into `s` — everything a remote engine needs to
/// run it, including the display label (which is not part of the cache
/// key).
pub fn write_job<S: Sink>(s: &mut S, job: &Job) {
    s.begin_obj();
    s.str_field("label", &job.label);
    write_keyed(s, job);
    s.end_obj();
}

/// `job`'s key in a build whose [`crate::MODEL_FINGERPRINT`] is
/// `fingerprint`: its canonical spec's keyed members, hashed from that seed.
pub fn key_with(fingerprint: u64, job: &Job) -> String {
    let mut h = HashSink::new(fingerprint);
    write_keyed(&mut h, job);
    // Sized up front: `format!` alone may allocate twice.
    let mut hex = String::with_capacity(16);
    let _ = write!(hex, "{:016x}", h.finish());
    hex
}

/// The hashes of a job's machine config (the keyed members less `pair`
/// and `max_cycles`) and of its kernel shape (the pair's name and
/// kernels, not its iteration count): jobs that repeat both back to back
/// run faster on the host.
pub fn locality_key(job: &Job) -> (u64, u64) {
    let mut config = HashSink::new(0);
    write_mode(&mut config, job.mode);
    config.bool_field("metrics", job.metrics);
    job.cfg.write(&mut config);
    let mut shape = HashSink::new(0);
    job.pair.name.write(&mut shape);
    job.pair.producer.write(&mut shape);
    job.pair.consumer.write(&mut shape);
    (config.finish(), shape.finish())
}

/// Pulls a [`Job`] out of its wire spec.
///
/// # Errors
///
/// [`DecodeError`] on missing or mistyped fields, unknown modes, or
/// unknown design kinds.
pub fn read_job<'a, S: Source<'a>>(s: &mut S) -> Result<Job, DecodeError> {
    s.obj(|s, o| {
        let label = field(s, o, "label", None)?;
        let mode = match &*s.str_field(o, "mode")? {
            "pipeline" => Mode::Pipeline,
            "single" => Mode::Single,
            "multi" => Mode::Multi(s.uint_field(o, "pairs")?),
            other => return Err(DecodeError::Shape(format!("unknown mode `{other}`"))),
        };
        let max_cycles = s.u64_field(o, "max_cycles")?;
        let metrics = s.bool_field(o, "metrics")?;
        let pair = field(s, o, "pair", None)?;
        let cfg = field(s, o, "cfg", None)?;
        Ok(Job::from_parts(label, pair, cfg, mode, max_cycles, metrics))
    })
}

/// Pushes a named sweep — the `hfs-client submit` payload and the
/// `--dump-jobs` output format: `{"experiment": ..., "jobs": [...]}`.
pub fn write_sweep<S: Sink>(s: &mut S, experiment: &str, jobs: &[Job]) {
    s.begin_obj();
    s.str_field("experiment", experiment);
    s.arr_field("jobs", jobs, write_job);
    s.end_obj();
}

/// Pulls a named sweep back out as `(experiment, jobs)`.
///
/// # Errors
///
/// [`DecodeError`] on malformed sweeps or any malformed job within.
pub fn read_sweep<'a, S: Source<'a>>(s: &mut S) -> Result<(String, Vec<Job>), DecodeError> {
    s.obj(|s, o| {
        Ok((
            field(s, o, "experiment", None)?,
            s.arr_field(o, "jobs", read_job)?,
        ))
    })
}

/// A job's spec as a [`Json`] tree, through the text driver. Kept for
/// `benchmark/`, whose codec rows still time it; product code runs
/// [`write_job`].
pub fn job_to_json(job: &Job) -> Json {
    parse(&to_text(false, |s| write_job(s, job))).expect("the text driver writes JSON")
}

/// A job back out of its spec's [`Json`] tree, through the text driver.
/// Kept for `benchmark/`, like [`job_to_json`].
///
/// # Errors
///
/// As [`read_job`].
pub fn job_from_json(v: &Json) -> Result<Job, DecodeError> {
    from_text(&v.to_string(), read_job)
}

/// A named sweep as a [`Json`] tree, through the text driver. Kept for
/// `benchmark/`, like [`job_to_json`]; product code runs [`write_sweep`].
pub fn sweep_to_json(experiment: &str, jobs: &[Job]) -> Json {
    parse(&to_text(false, |s| write_sweep(s, experiment, jobs)))
        .expect("the text driver writes JSON")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MAX_NAME_BYTES;

    fn spec_text(job: &Job) -> String {
        to_text(false, |w| write_job(w, job))
    }

    fn decode(text: &str) -> Result<Job, DecodeError> {
        from_text(text, read_job)
    }

    fn demo_job() -> Job {
        Job::pipeline(
            "spec/demo/HEAVYWT",
            KernelPair::simple("demo", 3, 50),
            MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
        )
    }

    #[test]
    fn simple_job_round_trips_exactly() {
        let job = demo_job();
        let text = to_text(true, |w| write_job(w, &job));
        let back = decode(&text).unwrap();
        assert_eq!(back.label, job.label);
        assert_eq!(back.pair, job.pair);
        assert_eq!(back.cfg, job.cfg);
        assert_eq!(back.mode, job.mode);
        assert_eq!(
            back.key(),
            job.key(),
            "wire round-trip preserves the cache key"
        );
        assert_eq!(to_text(true, |w| write_job(w, &back)), text);
    }

    #[test]
    fn complex_job_round_trips() {
        // Exercise every step kind, regions, loops, multi mode, a mutated
        // memory config (the ablation sweeps), and a non-default design.
        use hfs_isa::QueueId;
        let q = QueueId(2);
        let mut producer = Kernel::new(vec![
            KStep::Alu(4),
            KStep::AluChain(2),
            KStep::Fp(1),
            KStep::FpChain(3),
            KStep::Branch,
            KStep::Loop(vec![KStep::Produce(q), KStep::Alu(1)], 4),
        ]);
        let src = producer.add_region("src", 1 << 20);
        producer.steps.push(KStep::LoadStream {
            region: src,
            stride: 8,
        });
        producer.steps.push(KStep::LoadRandom { region: src });
        let mut consumer = Kernel::new(vec![KStep::Loop(vec![KStep::Consume(q)], 4)]);
        let dst = consumer.add_region("dst", 64 * 1024);
        consumer.steps.push(KStep::StoreStream {
            region: dst,
            stride: 16,
        });
        consumer.steps.push(KStep::StoreRandom { region: dst });
        let pair = KernelPair {
            name: "complex".into(),
            producer,
            consumer,
            iterations: 77,
        };
        let mut cfg = MachineConfig::itanium2_cmp(DesignPoint::syncopti_sc_q64())
            .with_bus_divider(4)
            .with_bus_width(128);
        cfg.mem.ozq_entries = 8;
        cfg.mem.l2_ports = 2;
        cfg.mem.bus.favor_app_traffic = true;
        cfg.seed = 42;
        let job = Job::multi("spec/complex", pair, cfg, 3)
            .with_max_cycles(123_456)
            .with_metrics(true);
        let back = decode(&spec_text(&job)).unwrap();
        assert_eq!(back.pair, job.pair);
        assert_eq!(back.cfg, job.cfg);
        assert_eq!(back.mode, Mode::Multi(3));
        assert_eq!(back.max_cycles, 123_456);
        assert!(back.metrics);
        assert_eq!(back.key(), job.key());
    }

    #[test]
    fn every_design_kind_round_trips() {
        let tuned = [
            DesignPoint::existing_with_qlu(1),
            DesignPoint::memopti_with_qlu(4),
            DesignPoint::heavywt_with(10, 64),
            DesignPoint::heavywt_centralized(12),
            DesignPoint::regmapped(3),
        ];
        for d in DesignPoint::paper_points().into_iter().chain(tuned) {
            let back = from_text(&to_text(false, |s| d.write(s)), DesignPoint::read).unwrap();
            assert_eq!(back, d, "{d}");
        }
    }

    #[test]
    fn decoded_run_matches_local_run() {
        // The decode path must produce a job the simulator treats as
        // identical: same key, same deterministic cycle count.
        let job = demo_job();
        let back = decode(&spec_text(&job)).unwrap();
        let a = crate::job::execute(&job, 0);
        let b = crate::job::execute(&back, 0);
        assert_eq!(a.ok().unwrap().cycles, b.ok().unwrap().cycles);
    }

    #[test]
    fn an_overlong_name_is_refused() {
        let named = |len: usize| {
            let pair = KernelPair::simple("n".repeat(len), 3, 50);
            let job = Job::pipeline("spec/long", pair, demo_job().cfg);
            decode(&spec_text(&job))
        };
        assert!(named(MAX_NAME_BYTES).is_ok());
        let err = named(MAX_NAME_BYTES + 1).unwrap_err();
        assert!(matches!(err, DecodeError::Shape(_)), "{err}");
    }

    #[test]
    fn sweep_round_trips() {
        let jobs = vec![demo_job(), demo_job().with_metrics(true)];
        let text = to_text(true, |w| write_sweep(w, "fig6", &jobs));
        let (name, back) = from_text(&text, read_sweep).unwrap();
        assert_eq!(name, "fig6");
        assert_eq!(back.len(), 2);
        assert_eq!(back[0].key(), jobs[0].key());
        assert_eq!(back[1].key(), jobs[1].key());
    }

    #[test]
    fn decode_rejects_malformed_specs() {
        for bad in [
            "{}",
            r#"{"label":"x","mode":"warp"}"#,
            r#"{"label":"x","mode":"multi","max_cycles":1,"metrics":false}"#,
        ] {
            assert!(decode(bad).is_err(), "{bad}");
        }
        assert!(from_text("{}", read_sweep).is_err());
    }
}
