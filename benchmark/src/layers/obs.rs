//! `hfs-obs`: a log line at an enabled and at a filtered level, and a
//! registry counter. (`obs.exposition_us` is measured against the live
//! server, in the `serve` rows.)

use hfs_obs::{BufferSink, Level, Logger, Registry};

use crate::layers::{ns_per_op, Ledger};

/// The `obs.*` rows.
pub fn measure(l: &mut Ledger) {
    let log_line = |logger: &Logger, i: u64| {
        logger.info(
            "bench",
            "tick",
            &[("i", i.into()), ("label", "sweep/p0".into())],
        );
    };
    let enabled = Logger::with_sink(Level::Info, Box::new(BufferSink::new()));
    let mut i = 0u64;
    let (ns, n) = ns_per_op(256, || {
        i += 1;
        log_line(&enabled, i);
    });
    l.put("obs.log_ns_per_line", ns, n);

    // The workloads run at `HFS_LOG=warn`: every progress line takes
    // this path.
    let filtered = Logger::with_sink(Level::Warn, Box::new(BufferSink::new()));
    let (ns, n) = ns_per_op(4096, || {
        i += 1;
        log_line(&filtered, i);
    });
    l.put("obs.log_disabled_ns", ns, n);

    let counter = Registry::new().counter("hfs_bench_ops_total");
    let (ns, n) = ns_per_op(4096, || counter.inc());
    l.put("obs.counter_inc_ns", ns, n);
    std::hint::black_box(counter.get());
}
