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

    fn count_comm(steps: &[KStep]) -> u64 {
        steps
            .iter()
            .map(|s| match s {
                KStep::Produce(_) | KStep::Consume(_) => 1,
                KStep::Loop(body, n) => n * Self::count_comm(body),
                _ => 0,
            })
            .sum()
    }

    /// Communication operations per outer iteration.
    pub fn comm_ops_per_iteration(&self) -> u64 {
        Self::count_comm(&self.steps)
    }
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
                    KStep::Produce(q) => KStep::Produce(QueueId(q.0 + offset)),
                    KStep::Consume(q) => KStep::Consume(QueueId(q.0 + offset)),
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

    /// Validates structure: queue pairing and per-iteration produce /
    /// consume balance per queue.
    ///
    /// # Errors
    ///
    /// See [`KernelPair::queues`]; additionally rejects pairs whose
    /// per-iteration produce and consume counts differ for some queue.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let queues = self.queues()?;
        for q in queues {
            let p = count_queue_ops(&self.producer.steps, q, true);
            let c = count_queue_ops(&self.consumer.steps, q, false);
            if p != c {
                return Err(ConfigError::new(format!(
                    "queue {q}: {p} produces but {c} consumes per iteration"
                )));
            }
        }
        if self.iterations == 0 {
            return Err(ConfigError::new("kernel pair needs at least one iteration"));
        }
        Ok(())
    }
}

fn count_queue_ops(steps: &[KStep], q: QueueId, produce: bool) -> u64 {
    steps
        .iter()
        .map(|s| match s {
            KStep::Produce(x) if produce && *x == q => 1,
            KStep::Consume(x) if !produce && *x == q => 1,
            KStep::Loop(body, n) => n * count_queue_ops(body, q, produce),
            _ => 0,
        })
        .sum()
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
