//! The Table 1 benchmark registry.

use hfs_core::kernel::{KStep, Kernel, KernelPair};
use hfs_isa::QueueId;

/// Benchmark suite of origin (Table 1 / §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// SPEC CPU2000.
    Spec2000,
    /// Mediabench.
    Mediabench,
    /// Unix utilities.
    Unix,
    /// StreamIt benchmarks (hand-parallelized C versions).
    StreamIt,
}

impl Suite {
    /// Display name.
    pub fn label(self) -> &'static str {
        match self {
            Suite::Spec2000 => "SPEC-CPU2000",
            Suite::Mediabench => "Mediabench",
            Suite::Unix => "Unix",
            Suite::StreamIt => "StreamIt",
        }
    }
}

/// One evaluated benchmark: Table 1 metadata plus the kernel pair.
#[derive(Debug, Clone)]
pub struct Benchmark {
    /// Short name used in the figures (`wc`, `mcf`, `fft2`, …).
    pub name: &'static str,
    /// The parallelized function (Table 1).
    pub function: &'static str,
    /// Percent of total execution time the loop covers (Table 1);
    /// `None` for the StreamIt kernels, which are whole programs.
    pub exec_time_pct: Option<u32>,
    /// Originating suite.
    pub suite: Suite,
    /// The two-thread pipeline kernel.
    pub pair: KernelPair,
}

impl Benchmark {
    /// Returns a copy with a different outer-loop iteration count
    /// (smaller for quick tests, larger for steady-state measurements).
    #[must_use]
    pub fn with_iterations(&self, iterations: u64) -> Benchmark {
        let mut b = self.clone();
        b.pair.iterations = iterations;
        b
    }
}

/// The benchmark plotting order used by the paper's figures.
pub fn paper_order() -> [&'static str; 9] {
    [
        "art", "equake", "mcf", "bzip2", "adpcmdec", "epicdec", "wc", "fir", "fft2",
    ]
}

/// Looks up one benchmark by name.
pub fn benchmark(name: &str) -> Option<Benchmark> {
    all_benchmarks().into_iter().find(|b| b.name == name)
}

/// All nine benchmarks with their default iteration counts.
pub fn all_benchmarks() -> Vec<Benchmark> {
    vec![
        art(),
        equake(),
        mcf(),
        bzip2(),
        adpcmdec(),
        epicdec(),
        wc(),
        fir(),
        fft2(),
    ]
}

const Q0: QueueId = QueueId(0);
const Q1: QueueId = QueueId(1);
const Q2: QueueId = QueueId(2);

/// 179.art `match`: FP neural-network matching. Moderate loop, FP-heavy
/// consumer (consumer-bound: the producer frequently finds the queue
/// full, making it transit-tolerant in Figure 6).
fn art() -> Benchmark {
    let mut producer = Kernel::default();
    let f1 = producer.add_region("f1_layer", 64 * 1024);
    producer.steps = vec![
        KStep::LoadStream {
            region: f1,
            stride: 8,
        },
        KStep::Fp(1),
        KStep::Alu(2),
        KStep::Produce(Q0),
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let bus = consumer.add_region("bus_weights", 64 * 1024);
    consumer.steps = vec![
        KStep::Consume(Q0),
        KStep::FpChain(2),
        KStep::LoadStream {
            region: bus,
            stride: 8,
        },
        KStep::Fp(2),
        KStep::Alu(1),
        KStep::Branch,
    ];
    Benchmark {
        name: "art",
        function: "match",
        exec_time_pct: Some(20),
        suite: Suite::Spec2000,
        pair: KernelPair {
            name: "art".into(),
            producer,
            consumer,
            iterations: 1500,
        },
    }
}

/// 183.equake `smvp`: sparse matrix-vector product. Memory intensive
/// (working set beyond the L3) with FP reduction in the consumer.
fn equake() -> Benchmark {
    let mut producer = Kernel::default();
    let matrix = producer.add_region("sparse_matrix", 4 * 1024 * 1024);
    producer.steps = vec![
        KStep::LoadRandom { region: matrix },
        KStep::LoadStream {
            region: matrix,
            stride: 24,
        },
        KStep::Alu(3),
        KStep::Produce(Q0),
        KStep::Produce(Q1),
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let vec_out = consumer.add_region("result_vector", 128 * 1024);
    consumer.steps = vec![
        KStep::Consume(Q0),
        KStep::Consume(Q1),
        KStep::FpChain(2),
        KStep::Fp(2),
        KStep::AluChain(2),
        KStep::StoreStream {
            region: vec_out,
            stride: 8,
        },
        KStep::Branch,
    ];
    Benchmark {
        name: "equake",
        function: "smvp",
        exec_time_pct: Some(68),
        suite: Suite::Spec2000,
        pair: KernelPair {
            name: "equake".into(),
            producer,
            consumer,
            iterations: 800,
        },
    }
}

/// 181.mcf `refresh_potential`: pointer chasing over a multi-megabyte
/// node arena — the most memory-bound loop.
fn mcf() -> Benchmark {
    let mut producer = Kernel::default();
    let nodes = producer.add_region("node_arena", 6 * 1024 * 1024);
    producer.steps = vec![
        KStep::LoadRandom { region: nodes },
        KStep::LoadRandom { region: nodes },
        KStep::AluChain(3),
        KStep::Alu(2),
        KStep::Produce(Q0),
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let pots = consumer.add_region("potentials", 2 * 1024 * 1024);
    consumer.steps = vec![
        KStep::Consume(Q0),
        KStep::AluChain(2),
        KStep::LoadRandom { region: pots },
        KStep::Alu(2),
        KStep::StoreRandom { region: pots },
        KStep::Branch,
    ];
    Benchmark {
        name: "mcf",
        function: "refresh_potential",
        exec_time_pct: Some(30),
        suite: Suite::Spec2000,
        pair: KernelPair {
            name: "mcf".into(),
            producer,
            consumer,
            iterations: 700,
        },
    }
}

/// 256.bzip2 `getAndMoveToFrontDecode`: a two-deep loop nest with
/// inter-thread communication at *both* levels. The outer-loop stream
/// cannot be pipelined (the producer reaches the outer produce only after
/// finishing every inner iteration), which is why a 10-cycle interconnect
/// slows this benchmark ~33% in Figure 6.
fn bzip2() -> Benchmark {
    // Inner trip count equals the 32-entry queue depth: the producer can
    // run at most one nest ahead before the inner queue back-pressures
    // it, so the outer stream's transit delay lands on the critical path
    // (Figure 6) — and a 64-entry queue restores the slack.
    const INNER: u64 = 32;
    let mut producer = Kernel::default();
    let block = producer.add_region("mtf_block", 4 * 1024);
    producer.steps = vec![
        KStep::Loop(
            vec![
                KStep::LoadStream {
                    region: block,
                    stride: 8,
                },
                KStep::AluChain(1),
                KStep::Produce(Q0),
            ],
            INNER,
        ),
        KStep::Alu(2),
        KStep::Produce(Q1), // outer-loop stream: produced after the nest
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let out = consumer.add_region("unzftab", 4 * 1024);
    consumer.steps = vec![
        // The outer-loop value gates the whole iteration: the consumer
        // blocks here until the producer finishes its previous nest, so
        // the outer stream is never pipelined (the Figure 6 sensitivity).
        KStep::Consume(Q1),
        KStep::AluChain(2),
        KStep::Loop(
            vec![
                KStep::Consume(Q0),
                KStep::AluChain(2),
                KStep::Alu(1),
                KStep::StoreStream {
                    region: out,
                    stride: 8,
                },
            ],
            INNER,
        ),
        KStep::Branch,
    ];
    Benchmark {
        name: "bzip2",
        function: "getAndMoveToFrontDecode",
        exec_time_pct: Some(17),
        suite: Suite::Spec2000,
        pair: KernelPair {
            name: "bzip2".into(),
            producer,
            consumer,
            iterations: 150,
        },
    }
}

/// adpcmdec `adpcm_decoder`: tight DSP loop, one stream, dependent ALU
/// chains on both sides.
fn adpcmdec() -> Benchmark {
    let mut producer = Kernel::default();
    let input = producer.add_region("compressed", 32 * 1024);
    producer.steps = vec![
        KStep::LoadStream {
            region: input,
            stride: 8,
        },
        KStep::AluChain(4),
        KStep::Produce(Q0),
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let pcm = consumer.add_region("pcm_out", 32 * 1024);
    consumer.steps = vec![
        KStep::Consume(Q0),
        KStep::AluChain(5),
        KStep::StoreStream {
            region: pcm,
            stride: 8,
        },
        KStep::Branch,
    ];
    Benchmark {
        name: "adpcmdec",
        function: "adpcm_decoder",
        exec_time_pct: Some(98),
        suite: Suite::Mediabench,
        pair: KernelPair {
            name: "adpcmdec".into(),
            producer,
            consumer,
            iterations: 2000,
        },
    }
}

/// epicdec `read_and_huffman_decode`: tight streaming decode loop.
fn epicdec() -> Benchmark {
    let mut producer = Kernel::default();
    let bits = producer.add_region("bitstream", 32 * 1024);
    producer.steps = vec![
        KStep::LoadStream {
            region: bits,
            stride: 8,
        },
        KStep::Alu(3),
        KStep::Produce(Q0),
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let sym = consumer.add_region("symbols", 32 * 1024);
    consumer.steps = vec![
        KStep::Consume(Q0),
        KStep::AluChain(2),
        KStep::Alu(2),
        KStep::StoreStream {
            region: sym,
            stride: 8,
        },
        KStep::Branch,
    ];
    Benchmark {
        name: "epicdec",
        function: "read_and_huffman_decode",
        exec_time_pct: Some(21),
        suite: Suite::Mediabench,
        pair: KernelPair {
            name: "epicdec".into(),
            producer,
            consumer,
            iterations: 2000,
        },
    }
}

/// `wc` `cnt`: the tightest loop of the study — three streams with one
/// consume each per iteration and almost no application work, making it
/// maximally sensitive to consume-to-use latency (§4.4: SYNCOPTI is
/// almost twice as slow as HEAVYWT here).
fn wc() -> Benchmark {
    let mut producer = Kernel::default();
    let text = producer.add_region("text", 8 * 1024);
    producer.steps = vec![
        KStep::LoadStream {
            region: text,
            stride: 8,
        },
        KStep::Alu(2),
        KStep::Produce(Q0), // character class
        KStep::Produce(Q1), // in-word flag
        KStep::Produce(Q2), // newline flag
        KStep::Branch,
    ];
    let consumer = Kernel::new(vec![
        KStep::Consume(Q0),
        KStep::Consume(Q1),
        KStep::Consume(Q2),
        KStep::AluChain(3),
        KStep::Branch,
    ]);
    Benchmark {
        name: "wc",
        function: "cnt",
        exec_time_pct: Some(100),
        suite: Suite::Unix,
        pair: KernelPair {
            name: "wc".into(),
            producer,
            consumer,
            iterations: 2000,
        },
    }
}

/// StreamIt `fir`: FP filter pipeline; the consumer's tap accumulation
/// dominates, so the producer often waits on a full queue.
fn fir() -> Benchmark {
    let mut producer = Kernel::default();
    let samples = producer.add_region("samples", 8 * 1024);
    producer.steps = vec![
        KStep::LoadStream {
            region: samples,
            stride: 8,
        },
        KStep::Fp(1),
        KStep::Produce(Q0),
        KStep::Branch,
    ];
    let consumer = Kernel::new(vec![
        KStep::Consume(Q0),
        KStep::FpChain(3),
        KStep::AluChain(2),
        KStep::Branch,
    ]);
    Benchmark {
        name: "fir",
        function: "fir (StreamIt)",
        exec_time_pct: None,
        suite: Suite::StreamIt,
        pair: KernelPair {
            name: "fir".into(),
            producer,
            consumer,
            iterations: 2000,
        },
    }
}

/// StreamIt `fft2`: butterfly stages split across two streams.
fn fft2() -> Benchmark {
    let mut producer = Kernel::default();
    let twiddle = producer.add_region("twiddle", 32 * 1024);
    producer.steps = vec![
        KStep::LoadStream {
            region: twiddle,
            stride: 16,
        },
        KStep::Fp(2),
        KStep::Alu(1),
        KStep::Produce(Q0),
        KStep::Produce(Q1),
        KStep::Branch,
    ];
    let mut consumer = Kernel::default();
    let spectrum = consumer.add_region("spectrum", 32 * 1024);
    consumer.steps = vec![
        KStep::Consume(Q0),
        KStep::Consume(Q1),
        KStep::FpChain(2),
        KStep::Fp(1),
        KStep::StoreStream {
            region: spectrum,
            stride: 8,
        },
        KStep::Branch,
    ];
    Benchmark {
        name: "fft2",
        function: "fft2 (StreamIt)",
        exec_time_pct: None,
        suite: Suite::StreamIt,
        pair: KernelPair {
            name: "fft2".into(),
            producer,
            consumer,
            iterations: 1500,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_nine_present_and_valid() {
        let all = all_benchmarks();
        assert_eq!(all.len(), 9);
        for b in &all {
            b.pair
                .validate()
                .unwrap_or_else(|e| panic!("{}: {e}", b.name));
        }
    }

    #[test]
    fn paper_order_matches_registry() {
        let names: Vec<_> = all_benchmarks().iter().map(|b| b.name).collect();
        for n in paper_order() {
            assert!(names.contains(&n), "missing {n}");
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(benchmark("wc").is_some());
        assert!(benchmark("nonesuch").is_none());
        assert_eq!(benchmark("mcf").unwrap().function, "refresh_potential");
    }

    #[test]
    fn table1_exec_times_match_paper() {
        let pct = |n: &str| benchmark(n).unwrap().exec_time_pct;
        assert_eq!(pct("wc"), Some(100));
        assert_eq!(pct("adpcmdec"), Some(98));
        assert_eq!(pct("equake"), Some(68));
        assert_eq!(pct("mcf"), Some(30));
        assert_eq!(pct("epicdec"), Some(21));
        assert_eq!(pct("art"), Some(20));
        assert_eq!(pct("bzip2"), Some(17));
        assert_eq!(pct("fir"), None);
        assert_eq!(pct("fft2"), None);
    }

    #[test]
    fn wc_has_three_consumes_per_iteration() {
        let wc = benchmark("wc").unwrap();
        assert_eq!(wc.pair.consumer.comm_ops_per_iteration(), 3);
    }

    #[test]
    fn bzip2_communicates_at_both_nest_levels() {
        let b = benchmark("bzip2").unwrap();
        // 32 inner + 1 outer produce per outer iteration.
        assert_eq!(b.pair.producer.comm_ops_per_iteration(), 33);
        let has_loop = b
            .pair
            .producer
            .steps
            .iter()
            .any(|s| matches!(s, KStep::Loop(..)));
        assert!(has_loop);
    }

    #[test]
    fn communication_frequency_in_paper_band() {
        // Figure 8: one communication every 5-20 dynamic application
        // instructions. Statically estimate app instrs per comm op.
        for b in all_benchmarks() {
            for kernel in [&b.pair.producer, &b.pair.consumer] {
                let comm = kernel.comm_ops_per_iteration() as f64;
                let app = static_app_instrs(&kernel.steps) as f64;
                let per = app / comm;
                assert!(
                    (1.0..=20.0).contains(&per),
                    "{}: {per:.1} app instrs per comm op",
                    b.name
                );
            }
        }
    }

    fn static_app_instrs(steps: &[KStep]) -> u64 {
        steps
            .iter()
            .map(|s| match s {
                KStep::Alu(n) | KStep::AluChain(n) | KStep::Fp(n) | KStep::FpChain(n) => {
                    u64::from(*n)
                }
                KStep::Branch => 1,
                KStep::LoadStream { .. }
                | KStep::LoadRandom { .. }
                | KStep::StoreStream { .. }
                | KStep::StoreRandom { .. } => 1,
                KStep::Produce(_) | KStep::Consume(_) => 0,
                KStep::Loop(body, n) => n * static_app_instrs(body),
            })
            .sum()
    }

    #[test]
    fn with_iterations_overrides() {
        let b = benchmark("fir").unwrap().with_iterations(10);
        assert_eq!(b.pair.iterations, 10);
    }

    #[test]
    fn suites_label() {
        assert_eq!(Suite::Spec2000.label(), "SPEC-CPU2000");
        assert_eq!(Suite::StreamIt.label(), "StreamIt");
        assert_eq!(benchmark("wc").unwrap().suite, Suite::Unix);
        assert_eq!(benchmark("adpcmdec").unwrap().suite, Suite::Mediabench);
    }
}
