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
//! Each type is described once, as a `write_*`/`read_*` pair over
//! [`Sink`]/[`Source`]: frames run [`write_job`]/[`read_job`] straight
//! to and from text, `fig6 --dump-jobs` and `hfs-client submit` run
//! [`write_sweep`]/[`read_sweep`] the same way, and [`Job::key`] hashes
//! what `write_job` writes after the label.
//!
//! Kernel and region names are owned by the job that carries them; a
//! name from the wire is refused past [`MAX_NAME_BYTES`].

use std::sync::Arc;

use hfs_core::kernel::{KRegion, KStep, Kernel, KernelPair};
use hfs_core::{DesignPoint, MachineConfig};
use hfs_cpu::CoreConfig;
use hfs_isa::QueueId;
use hfs_mem::{BusConfig, CacheGeometry, MemConfig, Protocol};

use crate::job::{Job, Mode, CACHE_SCHEMA};
use crate::json::{from_text, parse, to_text, Json, Sink, Source};
use crate::key::HashSink;
use crate::ser::DecodeError;

/// Longest kernel or region name a spec may carry; the repository's own
/// are at most 16 bytes.
const MAX_NAME_BYTES: usize = 128;

/// The required `name` of a kernel pair or a region.
///
/// # Errors
///
/// A name longer than [`MAX_NAME_BYTES`]: names arrive from the wire.
fn read_name<'a, S: Source<'a>>(s: &mut S, o: &mut S::Obj) -> Result<Arc<str>, DecodeError> {
    let name = s.str_field(o, "name")?;
    if name.len() > MAX_NAME_BYTES {
        return Err(DecodeError::Shape(format!(
            "a {}-byte name (at most {MAX_NAME_BYTES})",
            name.len()
        )));
    }
    Ok(name.into())
}

fn write_step<S: Sink>(s: &mut S, step: &KStep) {
    use KStep::*;
    s.begin_obj();
    s.str_field(
        "op",
        match step {
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
    match step {
        Alu(n) | AluChain(n) | FpChain(n) | Fp(n) => s.u64_field("n", u64::from(*n)),
        Branch => {}
        LoadStream { region, .. }
        | LoadRandom { region }
        | StoreStream { region, .. }
        | StoreRandom { region } => s.u64_field("region", *region as u64),
        Produce(q) | Consume(q) => s.u64_field("queue", u64::from(q.0)),
        Loop(body, count) => {
            s.u64_field("count", *count);
            s.arr_field("body", body, write_step);
        }
    }
    if let LoadStream { stride, .. } | StoreStream { stride, .. } = step {
        s.u64_field("stride", *stride);
    }
    s.end_obj();
}

fn read_step<'a, S: Source<'a>>(s: &mut S) -> Result<KStep, DecodeError> {
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
                KStep::Loop(s.arr_field(o, "body", read_step)?, count)
            }
            other => return Err(DecodeError::Shape(format!("unknown kernel op `{other}`"))),
        })
    })
}

fn write_kernel<S: Sink>(s: &mut S, k: &Kernel) {
    s.begin_obj();
    s.arr_field("regions", &k.regions, |s, r| {
        s.begin_obj();
        s.str_field("name", &r.name);
        s.u64_field("bytes", r.bytes);
        s.end_obj();
    });
    s.arr_field("steps", &k.steps, write_step);
    s.end_obj();
}

fn read_kernel<'a, S: Source<'a>>(s: &mut S) -> Result<Kernel, DecodeError> {
    s.obj(|s, o| {
        Ok(Kernel {
            regions: s.arr_field(o, "regions", |s| {
                s.obj(|s, o| {
                    Ok::<_, DecodeError>(KRegion {
                        name: read_name(s, o)?,
                        bytes: s.u64_field(o, "bytes")?,
                    })
                })
            })?,
            steps: s.arr_field(o, "steps", read_step)?,
        })
    })
}

/// `p` with `iterations` in place of its own: [`locality_key`] writes
/// every pair of one kernel shape alike.
fn write_pair<S: Sink>(s: &mut S, p: &KernelPair, iterations: u64) {
    s.begin_obj();
    s.str_field("name", &p.name);
    s.key("producer");
    write_kernel(s, &p.producer);
    s.key("consumer");
    write_kernel(s, &p.consumer);
    s.u64_field("iterations", iterations);
    s.end_obj();
}

fn read_pair<'a, S: Source<'a>>(s: &mut S) -> Result<KernelPair, DecodeError> {
    s.obj(|s, o| {
        Ok(KernelPair {
            name: read_name(s, o)?,
            producer: s.field(o, "producer", read_kernel)?,
            consumer: s.field(o, "consumer", read_kernel)?,
            iterations: s.u64_field(o, "iterations")?,
        })
    })
}

fn write_design<S: Sink>(s: &mut S, d: &DesignPoint) {
    s.begin_obj();
    s.str_field("kind", d.wire_kind());
    // Handing every value back makes the result `d` again. A field whose
    // `max` is 1 is a flag, and travels as a boolean.
    let _ = d.map_wire_fields(|name, max, v| {
        if max == 1 {
            s.bool_field(name, v != 0);
        } else {
            s.u64_field(name, v);
        }
        Ok::<_, std::convert::Infallible>(v)
    });
    s.end_obj();
}

fn read_design<'a, S: Source<'a>>(s: &mut S) -> Result<DesignPoint, DecodeError> {
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

fn write_geometry<S: Sink>(s: &mut S, key: &str, g: &CacheGeometry) {
    s.key(key);
    s.begin_obj();
    s.u64_field("bytes", g.bytes);
    s.u64_field("ways", u64::from(g.ways));
    s.u64_field("line_bytes", g.line_bytes);
    s.end_obj();
}

fn read_geometry<'a, S: Source<'a>>(s: &mut S) -> Result<CacheGeometry, DecodeError> {
    s.obj(|s, o| {
        Ok(CacheGeometry {
            bytes: s.u64_field(o, "bytes")?,
            ways: s.uint_field(o, "ways")?,
            line_bytes: s.u64_field(o, "line_bytes")?,
        })
    })
}

fn write_bus<S: Sink>(s: &mut S, b: &BusConfig) {
    s.begin_obj();
    s.u64_field("width_bytes", b.width_bytes);
    s.u64_field("clock_divider", b.clock_divider);
    s.u64_field("pipeline_stages", b.pipeline_stages);
    s.bool_field("favor_app_traffic", b.favor_app_traffic);
    s.end_obj();
}

fn read_bus<'a, S: Source<'a>>(s: &mut S) -> Result<BusConfig, DecodeError> {
    s.obj(|s, o| {
        Ok(BusConfig {
            width_bytes: s.u64_field(o, "width_bytes")?,
            clock_divider: s.u64_field(o, "clock_divider")?,
            pipeline_stages: s.u64_field(o, "pipeline_stages")?,
            favor_app_traffic: s.bool_field(o, "favor_app_traffic")?,
        })
    })
}

fn write_mem<S: Sink>(s: &mut S, m: &MemConfig) {
    s.begin_obj();
    s.u64_field("cores", u64::from(m.cores));
    write_geometry(s, "l1d", &m.l1d);
    s.u64_field("l1_latency", m.l1_latency);
    write_geometry(s, "l2", &m.l2);
    s.u64_field("l2_latency_min", m.l2_latency_min);
    s.u64_field("l2_ports", u64::from(m.l2_ports));
    s.u64_field("ozq_entries", u64::from(m.ozq_entries));
    s.u64_field("recirc_interval", m.recirc_interval);
    write_geometry(s, "l3", &m.l3);
    s.u64_field("l3_latency", m.l3_latency);
    s.u64_field("dram_latency", m.dram_latency);
    s.key("bus");
    write_bus(s, &m.bus);
    s.str_field("protocol", m.protocol.label());
    s.end_obj();
}

fn read_mem<'a, S: Source<'a>>(s: &mut S) -> Result<MemConfig, DecodeError> {
    s.obj(|s, o| {
        Ok(MemConfig {
            cores: s.uint_field(o, "cores")?,
            l1d: s.field(o, "l1d", read_geometry)?,
            l1_latency: s.u64_field(o, "l1_latency")?,
            l2: s.field(o, "l2", read_geometry)?,
            l2_latency_min: s.u64_field(o, "l2_latency_min")?,
            l2_ports: s.uint_field(o, "l2_ports")?,
            ozq_entries: s.uint_field(o, "ozq_entries")?,
            recirc_interval: s.u64_field(o, "recirc_interval")?,
            l3: s.field(o, "l3", read_geometry)?,
            l3_latency: s.u64_field(o, "l3_latency")?,
            dram_latency: s.u64_field(o, "dram_latency")?,
            bus: s.field(o, "bus", read_bus)?,
            // Specs written before the protocol axis existed default to
            // MSI.
            protocol: if s.seek(o, "protocol")? {
                let label = s.str()?;
                Protocol::parse(&label)
                    .ok_or_else(|| DecodeError::Shape(format!("unknown protocol `{label}`")))?
            } else {
                Protocol::Msi
            },
        })
    })
}

fn write_core<S: Sink>(s: &mut S, c: &CoreConfig) {
    s.begin_obj();
    s.u64_field("issue_width", u64::from(c.issue_width));
    s.u64_field("int_alus", u64::from(c.int_alus));
    s.u64_field("fp_units", u64::from(c.fp_units));
    s.u64_field("branch_units", u64::from(c.branch_units));
    s.u64_field("mem_ports", u64::from(c.mem_ports));
    s.u64_field("window", u64::from(c.window));
    s.bool_field("free_queue_ops", c.free_queue_ops);
    s.end_obj();
}

fn read_core<'a, S: Source<'a>>(s: &mut S) -> Result<CoreConfig, DecodeError> {
    s.obj(|s, o| {
        Ok(CoreConfig {
            issue_width: s.uint_field(o, "issue_width")?,
            int_alus: s.uint_field(o, "int_alus")?,
            fp_units: s.uint_field(o, "fp_units")?,
            branch_units: s.uint_field(o, "branch_units")?,
            mem_ports: s.uint_field(o, "mem_ports")?,
            window: s.uint_field(o, "window")?,
            free_queue_ops: s.bool_field(o, "free_queue_ops")?,
        })
    })
}

fn write_machine_config<S: Sink>(s: &mut S, c: &MachineConfig) {
    s.begin_obj();
    s.key("mem");
    write_mem(s, &c.mem);
    s.key("core");
    write_core(s, &c.core);
    s.key("design");
    write_design(s, &c.design);
    s.u64_field("seed", c.seed);
    s.u64_field("deadlock_cycles", c.deadlock_cycles);
    s.end_obj();
}

fn read_machine_config<'a, S: Source<'a>>(s: &mut S) -> Result<MachineConfig, DecodeError> {
    s.obj(|s, o| {
        Ok(MachineConfig {
            mem: s.field(o, "mem", read_mem)?,
            core: s.field(o, "core", read_core)?,
            design: s.field(o, "design", read_design)?,
            seed: s.u64_field(o, "seed")?,
            deadlock_cycles: s.u64_field(o, "deadlock_cycles")?,
        })
    })
}

/// The members of a job's spec that determine its outcome — all but
/// the display label — into the object `s` has open. The wire and the
/// cache key ([`content_hash`]) both run this one list.
fn write_keyed<S: Sink>(s: &mut S, job: &Job) {
    write_mode(s, job.mode);
    s.u64_field("max_cycles", job.max_cycles);
    s.bool_field("metrics", job.metrics);
    s.key("pair");
    write_pair(s, &job.pair, job.pair.iterations);
    s.key("cfg");
    write_machine_config(s, &job.cfg);
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

/// The hash behind [`Job::key`]: [`CACHE_SCHEMA`], then the keyed
/// members of the canonical spec.
pub(crate) fn content_hash(job: &Job) -> u64 {
    let mut h = HashSink::new(u64::from(CACHE_SCHEMA));
    write_keyed(&mut h, job);
    h.finish()
}

/// The hashes of a job's machine config (the keyed members less `pair`
/// and `max_cycles`) and of its kernel shape (the pair with `iterations`
/// cleared): jobs that repeat both back to back run faster on the host.
pub fn locality_key(job: &Job) -> (u64, u64) {
    let mut config = HashSink::new(0);
    write_mode(&mut config, job.mode);
    config.bool_field("metrics", job.metrics);
    write_machine_config(&mut config, &job.cfg);
    let mut shape = HashSink::new(0);
    write_pair(&mut shape, &job.pair, 0);
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
        let label = s.str_field(o, "label")?.into_owned();
        let mode = match &*s.str_field(o, "mode")? {
            "pipeline" => Mode::Pipeline,
            "single" => Mode::Single,
            "multi" => Mode::Multi(s.uint_field(o, "pairs")?),
            other => return Err(DecodeError::Shape(format!("unknown mode `{other}`"))),
        };
        let max_cycles = s.u64_field(o, "max_cycles")?;
        let metrics = s.bool_field(o, "metrics")?;
        let pair = s.field(o, "pair", read_pair)?;
        let cfg = s.field(o, "cfg", read_machine_config)?;
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
            s.str_field(o, "experiment")?.into_owned(),
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
            let back = from_text(&to_text(false, |s| write_design(s, &d)), read_design).unwrap();
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
