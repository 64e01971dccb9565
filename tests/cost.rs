//! Counted, not timed: allocation counts the host's load cannot blur.
//!
//! A counting global allocator keeps one count per thread (tests run in
//! parallel), and each test counts only what its own thread allocates
//! inside one closure.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hfs::core::kernel::KernelPair;
use hfs::core::{DesignPoint, Machine, MachineConfig};
use hfs::harness::json::Writer;
use hfs::harness::{
    execute, from_text, outcome_from_text, outcome_to_text, read_job, to_text, write_job,
    write_outcome, HotCache, Job, DEFAULT_MAX_CYCLES,
};
use hfs::mem::Protocol;
use hfs::obs::{Level, Logger, Value};

/// The system allocator, counting each allocation on the calling thread.
struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the count is a
// const-initialized thread-local `Cell`, which itself never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (reallocations included) this thread makes inside `f`.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// Allocations of `Machine::run` alone, construction excluded.
fn run_allocations(design: DesignPoint, protocol: Protocol, iterations: u64) -> u64 {
    let pair = KernelPair::simple("cost", 4, iterations);
    let mut cfg = MachineConfig::itanium2_cmp(design);
    cfg.mem.protocol = protocol;
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    let (n, r) = allocations(|| m.run(DEFAULT_MAX_CYCLES));
    r.expect("run completes");
    n
}

/// A run's footprint is fixed: sixteen times the iterations allocate
/// exactly as often, under every coherence protocol. This is the test
/// behind the steady-state "allocates nothing" comments in `hfs-mem`,
/// `hfs-cpu` and `hfs-core`.
///
/// SYNCOPTI+SC+Q64 reaches its footprint later. Its stream cache keys
/// entries in an `FnvMap`, which is std's `HashMap`: here it never holds
/// more than 22 entries, so it settles at 32 buckets. Std's table grows
/// when an insert finds its 7/8 load allowance (28 of 32) used up, and
/// some removals leave tombstones that count against it; with more than
/// half of that live (20 entries), it doubles to 64 buckets (one 1 104-byte
/// allocation) instead of rehashing in place. Under MSI and MESI a
/// 200-iteration run never churns that far, and every run of 1 600 or
/// more does. And 200 is not a multiple of its QLU (16), so the run ends
/// on a half line that the idle flush hands over item by item; on the way
/// the memory system's request and completion queues and the backend's
/// wait lists reach a higher peak than a run ending on a full line.
/// Measured under MSI and MESI: 93 allocations at 200 iterations (the
/// doubling and one buffer growth fewer, seven end-of-run allocations
/// more) and 88 at 1 600 and 3 200; under Dragon, where at most 18
/// entries are live and the table never doubles, 86 at all three. So it
/// is pinned equal at 1 600 and 3 200, and within a bound of 8 at 200.
#[test]
fn a_run_allocates_the_same_at_any_length() {
    for protocol in Protocol::ALL {
        let p = protocol.label();
        for design in [
            DesignPoint::existing(),
            DesignPoint::memopti(),
            DesignPoint::syncopti(),
            DesignPoint::heavywt(),
        ] {
            let short = run_allocations(design, protocol, 200);
            let long = run_allocations(design, protocol, 3_200);
            println!("{design}/{p}: {short} allocations at 200 iterations, {long} at 3200");
            assert_eq!(
                short, long,
                "{design}/{p}: run allocations grow with length"
            );
        }
        let design = DesignPoint::syncopti_sc_q64();
        let (short, filled, long) = (
            run_allocations(design, protocol, 200),
            run_allocations(design, protocol, 1_600),
            run_allocations(design, protocol, 3_200),
        );
        println!(
            "{design}/{p}: {short} allocations at 200 iterations, {filled} at 1600, {long} at 3200"
        );
        assert_eq!(
            filled, long,
            "{design}/{p}: run allocations grow with length"
        );
        assert!(
            short.abs_diff(long) <= 8,
            "{design}/{p}: a short run allocates {short} times, a long one {long}"
        );
    }
}

/// What the simulator does, not how fast: on the benchmark's nine
/// `sim_dense` and `sim_stream` points, at a twentieth of their
/// iterations, the simulated cycles and the run loop's fast-forward
/// counts (cycles jumped over, bounds computed). A change that means to
/// move one of these says so; one that did not mean to fails here.
#[test]
fn the_benchmark_points_simulate_pinned_counts() {
    let (existing, sc_q64, heavywt) = (
        DesignPoint::existing(),
        DesignPoint::syncopti_sc_q64(),
        DesignPoint::heavywt(),
    );
    let (msi, dragon) = (Protocol::Msi, Protocol::Dragon);
    // (kernel, design, protocol, iterations): [cycles, skipped, bounds]
    let points = [
        (("fir", existing, msi, 1_000), [16_684, 3_063, 6_249]),
        (("mcf", existing, msi, 250), [23_711, 13_341, 8_580]),
        (("wc", existing, msi, 1_000), [32_559, 5_490, 11_193]),
        (("fir", existing, dragon, 1_000), [15_911, 2_355, 6_243]),
        (("fir", sc_q64, msi, 1_000), [11_939, 3_376, 4_870]),
        (("fir", heavywt, msi, 1_000), [11_777, 3_997, 4_131]),
        (("mcf", sc_q64, msi, 250), [12_108, 5_043, 5_891]),
        (("mcf", heavywt, msi, 250), [11_713, 5_366, 5_173]),
        (("wc", heavywt, msi, 1_000), [12_281, 8_899, 254]),
    ];
    for ((kernel, design, protocol, iterations), want) in points {
        let b = hfs::workloads::benchmark(kernel)
            .expect("a Table 1 kernel")
            .with_iterations(iterations);
        let mut cfg = MachineConfig::itanium2_cmp(design);
        cfg.mem.protocol = protocol;
        let mut m = Machine::new_pipeline(&cfg, &b.pair).expect("machine builds");
        let r = m.run(DEFAULT_MAX_CYCLES).expect("run completes");
        let ff = m.fast_forward_stats();
        let got = [r.cycles, ff.skipped_cycles, ff.bound_computations];
        println!("{kernel}/{design}/{}: {got:?}", protocol.label());
        assert_eq!(got, want, "{kernel}/{design}/{}", protocol.label());
    }
}

/// A hot-cache hit moves its key to a new tick in the shard's LRU tree:
/// that allocates nothing, except one tree node when the newest leaf
/// splits. One resident entry never splits.
#[test]
fn a_hot_cache_hit_allocates_at_most_one_node() {
    let job = Job::pipeline(
        "cost/hot",
        KernelPair::simple("cost", 4, 20),
        MachineConfig::itanium2_cmp(DesignPoint::heavywt()),
    );
    let outcome = execute(&job, 0);
    let hot = HotCache::new(1 << 30);
    let key = job.key();
    hot.insert(&key, &outcome, None);
    for _ in 0..3 {
        let (n, hit) = allocations(|| hot.get(&key));
        assert!(hit.is_some(), "the entry is resident");
        assert_eq!(n, 0, "a hit on a lone entry allocated");
    }
    // Twenty-five entries a shard.
    let keys: Vec<String> = (0..400u64)
        .map(|i| format!("{:016x}", i.wrapping_mul(0x9e37_79b9_7f4a_7c15)))
        .collect();
    for k in &keys {
        hot.insert(k, &outcome, None);
    }
    let mut splits = 0;
    for k in keys.iter().cycle().take(2_000) {
        let (n, hit) = allocations(|| hot.get(k));
        assert!(hit.is_some(), "every entry is resident");
        assert!(n <= 1, "a hit allocated {n} times");
        splits += n;
    }
    println!("{splits} of 2000 hits allocated a tree node");
    assert!(splits < 2_000 / 4, "most hits allocate nothing");
}

/// `json::Writer` into a buffer with room to spare allocates nothing:
/// the logger writes every line this way into the buffer it keeps.
#[test]
fn a_compact_write_into_a_sized_buffer_allocates_nothing() {
    let job = Job::pipeline(
        "cost/writer",
        KernelPair::simple("cost", 4, 20),
        MachineConfig::itanium2_cmp(DesignPoint::syncopti()),
    );
    let outcome = execute(&job, 0);
    let mut buf = String::with_capacity(1 << 16);
    let (n, ()) = allocations(|| write_outcome(&mut Writer::new(&mut buf, false), &outcome));
    assert!(buf.len() > 100, "an outcome was written");
    assert_eq!(n, 0, "the writer allocated");

    let log = Logger::with_sink(Level::Info, Box::new(std::io::sink()));
    let line = |i: u64| log.info("cost", "tick", &[("i", Value::U64(i)), ("ok", true.into())]);
    line(0);
    for i in 1..4 {
        let (n, ()) = allocations(|| line(i));
        assert_eq!(n, 0, "a log line allocated once its buffer had grown");
    }
}

/// A warm decode allocates what the decoded value owns, and nothing per
/// key or per number: a SYNCOPTI job's 629-byte outcome its design name
/// and its vector of core stats; the job's spec its label, its pair's
/// name and the two kernels' step vectors. A fresh key is the memoised
/// hex and the copy `key` hands out; `key_ref` on a job that has one
/// allocates nothing.
#[test]
fn a_warm_decode_allocates_what_it_keeps() {
    let job = Job::pipeline(
        "cost/codec",
        KernelPair::simple("cost", 4, 20),
        MachineConfig::itanium2_cmp(DesignPoint::syncopti()),
    );
    let outcome = outcome_to_text(&execute(&job, 0));
    assert_eq!(outcome.len(), 629, "the outcome's text");
    let (n, decoded) = allocations(|| outcome_from_text(&outcome));
    decoded.expect("the outcome decodes");
    assert_eq!(n, 2, "decoding the outcome");

    let spec = to_text(false, |s| write_job(s, &job));
    let (n, decoded) = allocations(|| from_text(&spec, read_job));
    let fresh = decoded.expect("the spec decodes");
    assert_eq!(n, 4, "decoding the spec");

    let (n, key) = allocations(|| fresh.key());
    assert_eq!(key, job.key());
    assert_eq!(n, 2, "a fresh key");
    let (n, _) = allocations(|| fresh.key_ref().len());
    assert_eq!(n, 0, "a memoised key");
}

/// The `sweep_cold` grid the benchmark serves — five designs × 1–8 ALU
/// operations × 20–80 iterations of `KernelPair::simple`, 2 440 jobs —
/// summed per design: [cycles, skipped_cycles, bound_computations]. The
/// cycles total the benchmark's `sim_cycles_per_rep`. One thread per
/// design keeps a debug build inside the tier-1 time budget.
#[test]
fn the_sweep_grid_simulates_pinned_totals() {
    let designs = [
        (DesignPoint::existing(), [646_656, 216_848, 216_449]),
        (DesignPoint::memopti(), [651_901, 217_842, 219_048]),
        (DesignPoint::syncopti(), [232_592, 148_333, 28_006]),
        (DesignPoint::syncopti_sc_q64(), [321_881, 240_570, 25_017]),
        (DesignPoint::heavywt(), [27_857, 0, 0]),
    ];
    let totals: Vec<[u64; 3]> = std::thread::scope(|scope| {
        let threads: Vec<_> = designs
            .iter()
            .map(|&(design, _)| {
                scope.spawn(move || {
                    let cfg = MachineConfig::itanium2_cmp(design);
                    let mut sum = [0u64; 3];
                    for work in 1..=8 {
                        for iterations in 20..=80 {
                            let pair = KernelPair::simple("sweep", work, iterations);
                            let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
                            let r = m.run(DEFAULT_MAX_CYCLES).expect("run completes");
                            let ff = m.fast_forward_stats();
                            let got = [r.cycles, ff.skipped_cycles, ff.bound_computations];
                            for (s, v) in sum.iter_mut().zip(got) {
                                *s += v;
                            }
                        }
                    }
                    sum
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("a design's grid runs"))
            .collect()
    });
    for ((design, want), got) in designs.iter().zip(&totals) {
        println!("{design}: {got:?}");
        assert_eq!(got, want, "{design}");
    }
    let cycles: u64 = totals.iter().map(|t| t[0]).sum();
    assert_eq!(cycles, 1_880_887, "the grid's simulated cycles");
}
