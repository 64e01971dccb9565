//! Abstract workload kernels: design-independent descriptions of the
//! producer/consumer loop pairs that DSWP and StreamIt create.
//!
//! A [`KernelPair`] says *what* each thread does per iteration —
//! application work (ALU/FP/loads/stores over named regions), queue
//! produces/consumes, and loop nesting — without committing to a
//! communication mechanism. [`crate::lower`] turns a kernel into a
//! concrete ISA program for a given [`crate::DesignPoint`].

use std::sync::Arc;

use hfs_isa::QueueId;
use hfs_sim::ConfigError;

use crate::addr_map::ARCH_QUEUES;

// Upper bounds on what lowering and running a kernel allocate: a spec from
// the wire must fail validation, not exhaust memory. Each is 8x or more
// the largest committed use (a 34-step body, 2 regions, a 6 MiB region,
// a 24-byte stride).

/// The most steps one kernel's body lowers to, inner loop bodies
/// included: `n` for an `n`-instruction work step, a software queue
/// sequence for a queue operation, one for anything else.
pub const MAX_BODY_STEPS: u64 = 4096;
/// The most regions one kernel declares.
pub const MAX_REGIONS: usize = 16;
/// The largest region, and the longest stride through one.
pub const MAX_REGION_BYTES: u64 = 64 << 20;

/// Instructions a queue operation lowers to at most: the §4.3 software
/// sequence.
const QUEUE_OP_STEPS: u64 = 10;

/// One abstract step of a kernel loop body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KStep {
    /// `n` independent integer ALU instructions.
    Alu(u32),
    /// A chain of `n` dependent integer ALU instructions (dependence
    /// height). When it follows a `Consume`, the chain's first link reads
    /// the consumed value, exposing consume-to-use latency.
    AluChain(u32),
    /// A chain of `n` dependent floating-point instructions; seeded by a
    /// preceding `Consume` like [`KStep::AluChain`].
    FpChain(u32),
    /// `n` independent floating-point instructions.
    Fp(u32),
    /// A branch instruction.
    Branch,
    /// A sequential load over region `region` with the given byte stride.
    LoadStream {
        /// Kernel-local region index.
        region: usize,
        /// Byte stride per execution.
        stride: u64,
    },
    /// A load at a random 8-byte-aligned offset in `region`.
    LoadRandom {
        /// Kernel-local region index.
        region: usize,
    },
    /// A sequential store over `region`.
    StoreStream {
        /// Kernel-local region index.
        region: usize,
        /// Byte stride per execution.
        stride: u64,
    },
    /// A store at a random offset in `region`.
    StoreRandom {
        /// Kernel-local region index.
        region: usize,
    },
    /// Send one value on queue `q` (producer side).
    Produce(QueueId),
    /// Receive one value from queue `q` (consumer side).
    Consume(QueueId),
    /// An inner counted loop.
    Loop(Vec<KStep>, u64),
}

/// A named memory region a kernel touches. The size determines cache
/// behavior (working-set effects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KRegion {
    /// Human-readable name.
    pub name: Arc<str>,
    /// Size in bytes.
    pub bytes: u64,
}

/// One thread's kernel: regions plus the outer-loop body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Kernel {
    /// Regions, indexed by position (referenced by `KStep::*Stream` etc.).
    pub regions: Vec<KRegion>,
    /// Outer-loop body steps.
    pub steps: Vec<KStep>,
}

impl Kernel {
    /// A kernel with no memory regions.
    pub fn new(steps: Vec<KStep>) -> Self {
        Kernel {
            regions: Vec::new(),
            steps,
        }
    }

    /// Adds a region and returns its kernel-local index.
    pub fn add_region(&mut self, name: impl Into<Arc<str>>, bytes: u64) -> usize {
        let name = name.into();
        self.regions.push(KRegion { name, bytes });
        self.regions.len() - 1
    }

    fn collect_queues(steps: &[KStep], produces: &mut Vec<QueueId>, consumes: &mut Vec<QueueId>) {
        for s in steps {
            match s {
                KStep::Produce(q) if !produces.contains(q) => {
                    produces.push(*q);
                }
                KStep::Consume(q) if !consumes.contains(q) => {
                    consumes.push(*q);
                }
                KStep::Loop(body, _) => Self::collect_queues(body, produces, consumes),
                _ => {}
            }
        }
    }

    /// Queues this kernel produces into and consumes from.
    pub fn queue_uses(&self) -> (Vec<QueueId>, Vec<QueueId>) {
        let mut p = Vec::new();
        let mut c = Vec::new();
        Self::collect_queues(&self.steps, &mut p, &mut c);
        (p, c)
    }

    /// Communication operations per outer iteration, or `u64::MAX` if
    /// the count overflows.
    pub fn comm_ops_per_iteration(&self) -> u64 {
        per_iteration(&self.steps, &|s| {
            matches!(s, KStep::Produce(_) | KStep::Consume(_))
        })
        .unwrap_or(u64::MAX)
    }

    /// Checks the kernel against its bounds: regions, strides, queue ids
    /// and the size of its body.
    fn validate(&self) -> Result<(), ConfigError> {
        if self.regions.len() > MAX_REGIONS {
            return Err(ConfigError::new(format!(
                "a kernel declares at most {MAX_REGIONS} regions"
            )));
        }
        if self.regions.iter().any(|r| r.bytes > MAX_REGION_BYTES) {
            return Err(ConfigError::new(format!(
                "a region is at most {MAX_REGION_BYTES} bytes"
            )));
        }
        if body_steps(&self.steps) > MAX_BODY_STEPS {
            return Err(ConfigError::new(format!(
                "a kernel body lowers to at most {MAX_BODY_STEPS} steps"
            )));
        }
        self.check_steps(&self.steps)
    }

    fn check_steps(&self, steps: &[KStep]) -> Result<(), ConfigError> {
        steps.iter().try_for_each(|s| match s {
            KStep::LoadRandom { region } | KStep::StoreRandom { region } => {
                self.check_region(*region, 0)
            }
            KStep::LoadStream { region, stride } | KStep::StoreStream { region, stride } => {
                self.check_region(*region, *stride)
            }
            KStep::Produce(q) | KStep::Consume(q) if u64::from(q.0) >= ARCH_QUEUES => Err(
                ConfigError::new(format!("{q}: the machine has {ARCH_QUEUES} queues")),
            ),
            KStep::Loop(body, _) => self.check_steps(body),
            _ => Ok(()),
        })
    }

    fn check_region(&self, region: usize, stride: u64) -> Result<(), ConfigError> {
        if region >= self.regions.len() {
            return Err(ConfigError::new(format!(
                "a step names region {region} of {}",
                self.regions.len()
            )));
        }
        if stride > MAX_REGION_BYTES {
            return Err(ConfigError::new(format!(
                "a stride is at most {MAX_REGION_BYTES} bytes"
            )));
        }
        Ok(())
    }
}

/// The steps `steps` lowers to at most (see [`MAX_BODY_STEPS`]),
/// saturating.
fn body_steps(steps: &[KStep]) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            KStep::Alu(n) | KStep::AluChain(n) | KStep::Fp(n) | KStep::FpChain(n) => u64::from(*n),
            KStep::Produce(_) | KStep::Consume(_) => QUEUE_OP_STEPS,
            KStep::Loop(body, _) => body_steps(body).saturating_add(2),
            _ => 1,
        })
        .fold(0, u64::saturating_add)
}

/// How many of the steps `counts` picks one outer iteration of `steps`
/// executes, inner loops multiplied out; `None` on overflow.
fn per_iteration(steps: &[KStep], counts: &impl Fn(&KStep) -> bool) -> Option<u64> {
    steps.iter().try_fold(0u64, |sum, s| {
        let n = match s {
            KStep::Loop(body, n) => n.checked_mul(per_iteration(body, counts)?)?,
            s => u64::from(counts(s)),
        };
        sum.checked_add(n)
    })
}

/// A two-thread streaming pipeline: the unit the paper evaluates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KernelPair {
    /// Benchmark name (Table 1).
    pub name: Arc<str>,
    /// The upstream (producer) thread's kernel.
    pub producer: Kernel,
    /// The downstream (consumer) thread's kernel.
    pub consumer: Kernel,
    /// Outer-loop iterations both threads execute.
    pub iterations: u64,
}

impl KernelPair {
    /// A minimal pipeline for tests and quickstarts: the producer does
    /// `work` ALU ops then produces; the consumer consumes then does
    /// `work` ALU ops. One queue, `iterations` iterations.
    pub fn simple(name: impl Into<Arc<str>>, work: u32, iterations: u64) -> Self {
        let q = QueueId(0);
        KernelPair {
            name: name.into(),
            producer: Kernel::new(vec![KStep::Alu(work), KStep::Produce(q), KStep::Branch]),
            consumer: Kernel::new(vec![KStep::Consume(q), KStep::Alu(work), KStep::Branch]),
            iterations,
        }
    }

    /// Returns a copy with every queue id shifted by `offset` — used to
    /// give each pipeline of a multi-pair CMP a disjoint queue range.
    ///
    /// # Example
    ///
    /// ```
    /// use hfs_core::kernel::KernelPair;
    /// use hfs_isa::QueueId;
    ///
    /// let pair = KernelPair::simple("p", 2, 10).with_queue_offset(16);
    /// assert_eq!(pair.queues().unwrap(), vec![QueueId(16)]);
    /// ```
    #[must_use]
    pub fn with_queue_offset(&self, offset: u16) -> KernelPair {
        fn shift(steps: &[KStep], offset: u16) -> Vec<KStep> {
            steps
                .iter()
                .map(|s| match s {
                    // Saturating: an id past the machine's queues fails
                    // validation, however far past.
                    KStep::Produce(q) => KStep::Produce(QueueId(q.0.saturating_add(offset))),
                    KStep::Consume(q) => KStep::Consume(QueueId(q.0.saturating_add(offset))),
                    KStep::Loop(body, n) => KStep::Loop(shift(body, offset), *n),
                    other => other.clone(),
                })
                .collect()
        }
        let mut out = self.clone();
        out.producer.steps = shift(&self.producer.steps, offset);
        out.consumer.steps = shift(&self.consumer.steps, offset);
        out
    }

    /// All queues used, in id order, with their (producer-side,
    /// consumer-side) role check.
    ///
    /// # Errors
    ///
    /// Returns an error when a queue is produced or consumed by both
    /// threads, produced but never consumed, or vice versa — pipelined
    /// streaming requires acyclic single-producer/single-consumer queues.
    pub fn queues(&self) -> Result<Vec<QueueId>, ConfigError> {
        let (pp, pc) = self.producer.queue_uses();
        let (cp, cc) = self.consumer.queue_uses();
        if !pc.is_empty() || !cp.is_empty() {
            return Err(ConfigError::new(
                "pipeline is acyclic: the producer thread may only produce and \
                 the consumer thread may only consume",
            ));
        }
        let mut ps = pp.clone();
        ps.sort_unstable();
        let mut cs = cc.clone();
        cs.sort_unstable();
        if ps != cs {
            return Err(ConfigError::new(
                "every queue must have exactly one producer and one consumer",
            ));
        }
        Ok(ps)
    }

    /// Validates structure: each kernel within its bounds (regions,
    /// strides, queue ids, body size), queue pairing and per-iteration
    /// produce / consume balance per queue.
    ///
    /// # Errors
    ///
    /// See [`KernelPair::queues`]; additionally rejects a kernel past a
    /// bound, a step naming an undeclared region, and pairs whose
    /// per-iteration produce and consume counts differ (or overflow) for
    /// some queue. The iteration count is a cycle budget, not a bound.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.producer.validate()?;
        self.consumer.validate()?;
        let queues = self.queues()?;
        for q in queues {
            let p = per_iteration(&self.producer.steps, &|s| *s == KStep::Produce(q));
            let c = per_iteration(&self.consumer.steps, &|s| *s == KStep::Consume(q));
            match (p, c) {
                (Some(p), Some(c)) if p == c => {}
                (Some(p), Some(c)) => {
                    return Err(ConfigError::new(format!(
                        "queue {q}: {p} produces but {c} consumes per iteration"
                    )))
                }
                _ => {
                    return Err(ConfigError::new(format!(
                        "queue {q}: operations per iteration overflow"
                    )))
                }
            }
        }
        if self.iterations == 0 {
            return Err(ConfigError::new("kernel pair needs at least one iteration"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_pair_validates() {
        let p = KernelPair::simple("t", 4, 10);
        assert!(p.validate().is_ok());
        assert_eq!(p.queues().unwrap(), vec![QueueId(0)]);
        assert_eq!(p.producer.comm_ops_per_iteration(), 1);
    }

    #[test]
    fn rejects_cyclic_pipelines() {
        let mut p = KernelPair::simple("t", 1, 10);
        p.producer.steps.push(KStep::Consume(QueueId(1)));
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_unbalanced_queues() {
        let mut p = KernelPair::simple("t", 1, 10);
        p.producer.steps.push(KStep::Produce(QueueId(0)));
        assert!(p.validate().is_err());
    }

    #[test]
    fn rejects_unpaired_queue() {
        let mut p = KernelPair::simple("t", 1, 10);
        p.producer.steps.push(KStep::Produce(QueueId(5)));
        assert!(p.queues().is_err());
    }

    #[test]
    fn nested_loops_multiply_comm_counts() {
        let q = QueueId(0);
        let pair = KernelPair {
            name: "nest".into(),
            producer: Kernel::new(vec![KStep::Loop(vec![KStep::Produce(q)], 4)]),
            consumer: Kernel::new(vec![KStep::Loop(vec![KStep::Consume(q)], 4)]),
            iterations: 3,
        };
        assert!(pair.validate().is_ok());
        assert_eq!(pair.producer.comm_ops_per_iteration(), 4);
    }

    #[test]
    fn regions_index_in_order() {
        let mut k = Kernel::default();
        assert_eq!(k.add_region("a", 64), 0);
        assert_eq!(k.add_region("b", 128), 1);
        assert_eq!(&*k.regions[1].name, "b");
    }
}
