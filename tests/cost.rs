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
use hfs::harness::{execute, write_outcome, HotCache, Job, DEFAULT_MAX_CYCLES};
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
fn run_allocations(design: DesignPoint, iterations: u64) -> u64 {
    let pair = KernelPair::simple("cost", 4, iterations);
    let cfg = MachineConfig::itanium2_cmp(design);
    let mut m = Machine::new_pipeline(&cfg, &pair).expect("machine builds");
    let (n, r) = allocations(|| m.run(DEFAULT_MAX_CYCLES));
    r.expect("run completes");
    n
}

/// A run's footprint is fixed: sixteen times the iterations allocate
/// exactly as often.
///
/// SYNCOPTI+SC+Q64 reaches its footprint later. Its stream cache keys
/// entries in an `FnvMap`, whose table doubles to 256 slots (one 6 KB
/// allocation) on the first fill that finds 96 entries resident: a
/// 200-iteration run never holds that many, and every run of 400 or more
/// does. And 200 is not a multiple of its QLU (16), so the run ends on a
/// half line that the idle flush hands over item by item; on the way the
/// memory system's request and completion queues and the backend's wait
/// lists reach a higher peak than a run ending on a full line. Measured:
/// 92 allocations at 200 iterations (one table doubling fewer, six
/// end-of-run buffer growths more), 85 at 800, and 87 at every length
/// from 1 600 to 12 800. So it is pinned equal at 1 600 and 3 200, and
/// within a bound of 8 at 200.
#[test]
fn a_run_allocates_the_same_at_any_length() {
    for design in [
        DesignPoint::existing(),
        DesignPoint::memopti(),
        DesignPoint::syncopti(),
        DesignPoint::heavywt(),
    ] {
        let short = run_allocations(design, 200);
        let long = run_allocations(design, 3_200);
        println!("{design}: {short} allocations at 200 iterations, {long} at 3200");
        assert_eq!(short, long, "{design}: run allocations grow with length");
    }
    let design = DesignPoint::syncopti_sc_q64();
    let (short, filled, long) = (
        run_allocations(design, 200),
        run_allocations(design, 1_600),
        run_allocations(design, 3_200),
    );
    println!("{design}: {short} allocations at 200 iterations, {filled} at 1600, {long} at 3200");
    assert_eq!(filled, long, "{design}: run allocations grow with length");
    assert!(
        short.abs_diff(long) <= 8,
        "{design}: a short run allocates {short} times, a long one {long}"
    );
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
        (("fir", sc_q64, msi, 1_000), [12_199, 3_484, 5_051]),
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
