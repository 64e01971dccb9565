//! `hfs-trace`: what an attached tracer costs, and the Chrome export.
//! Tracing is off in every workload; any end-to-end movement from these
//! rows would be a disabled-path leak.

use std::time::Instant;

use hfs_core::DesignPoint;
use hfs_harness::execute_once_with;
use hfs_trace::{chrome_trace_json, Tracer};

use crate::inputs::SimPoint;
use crate::layers::{low_of, timed, Ledger};

/// The `trace.*` rows, on fir/SYNCOPTI+SC+Q64.
pub fn measure(l: &mut Ledger) {
    let job = SimPoint {
        bench: "fir",
        design: DesignPoint::syncopti_sc_q64(),
        protocol: hfs_mem::Protocol::Msi,
        iterations: 2_000,
    }
    .job();
    // Low quantile of five runs, a fresh tracer each; the last recording
    // tracer is kept for the export row.
    let mut recorder = Tracer::disabled();
    let mut timed = |make: fn() -> Tracer| {
        let mut cycles = 0;
        let secs = low_of(5, || {
            recorder = make();
            let (secs, r) = timed(|| execute_once_with(&job, &recorder).expect("fir runs"));
            cycles = r.cycles;
            secs
        });
        (secs, cycles)
    };
    let (plain, want) = timed(Tracer::disabled);
    let (metrics, m_cycles) = timed(Tracer::metrics_only);
    let (recording, r_cycles) = timed(Tracer::recording);
    l.check(
        m_cycles == want && r_cycles == want,
        "a traced run's cycle count differs from the untraced run's",
    );
    l.put("trace.metrics_overhead_ratio", metrics / plain, 5);
    l.put("trace.recording_overhead_ratio", recording / plain, 5);
    let events = recorder.take_events();
    let t = Instant::now();
    let json = chrome_trace_json(&events);
    l.put(
        "trace.chrome_export_ms",
        t.elapsed().as_secs_f64() * 1e3,
        events.len() as u64,
    );
    std::hint::black_box(json);
}
