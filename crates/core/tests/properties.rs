//! Randomized property tests for streaming hardware components and the
//! analytic model, driven by the workspace's deterministic [`Rng64`].

use hfs_core::analytic::{steady_throughput, AnalyticParams};
use hfs_core::{HeavyWtConfig, StreamCache, SyncArray};
use hfs_isa::QueueId;
use hfs_sim::Rng64;

const CASES: u64 = 32;

/// The synchronization array conserves and orders items: everything
/// injected comes out exactly once, in FIFO order per queue.
#[test]
fn sync_array_conserves_fifo() {
    let mut rng = Rng64::new(0xC0_0001);
    for _ in 0..CASES {
        let len = 1 + rng.below(119) as usize;
        let items: Vec<u16> = (0..len).map(|_| rng.below(3) as u16).collect();
        let transit = rng.range(1, 12);
        let mut sa = SyncArray::new(HeavyWtConfig {
            transit,
            ..HeavyWtConfig::default()
        })
        .unwrap();
        let mut sent: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut got: Vec<Vec<u64>> = vec![Vec::new(); 3];
        let mut pending: std::collections::VecDeque<(QueueId, u64)> = items
            .iter()
            .enumerate()
            .map(|(i, &q)| (QueueId(q), i as u64))
            .collect();
        for _cycle in 0..10_000 {
            sa.begin_cycle();
            // Drain whatever is available.
            for q in 0..3u16 {
                while let Some(v) = sa.try_consume(QueueId(q)) {
                    got[q as usize].push(v);
                }
            }
            // Inject as the network allows.
            while let Some(&(q, v)) = pending.front() {
                if sa.try_inject(q, v) {
                    sent[q.index()].push(v);
                    pending.pop_front();
                } else {
                    break;
                }
            }
            if pending.is_empty() && sa.is_empty() {
                break;
            }
        }
        assert!(
            pending.is_empty() && sa.is_empty(),
            "items stuck in the array"
        );
        assert_eq!(got, sent);
    }
}

/// The stream cache never yields a value it was not filled with, and
/// every hit invalidates.
#[test]
fn stream_cache_exact_once() {
    let mut rng = Rng64::new(0xC0_0002);
    for _ in 0..CASES {
        let len = 1 + rng.below(79) as usize;
        let slots: Vec<u64> = (0..len).map(|_| rng.below(200)).collect();
        let mut sc = StreamCache::with_capacity_bytes(256); // 32 entries
        let mut resident = std::collections::HashMap::new();
        for &s in &slots {
            if sc.fill(QueueId(0), s, s * 3) {
                resident.insert(s, s * 3);
            }
            assert!(sc.len() <= sc.capacity());
        }
        for (&s, &v) in &resident {
            assert_eq!(sc.take(QueueId(0), s), Some(v));
            assert_eq!(sc.take(QueueId(0), s), None, "hit must invalidate");
        }
    }
}

/// Analytic model: more buffers never reduce throughput, and
/// throughput never exceeds the COMM-OP bound.
#[test]
fn analytic_monotone_in_buffers() {
    let mut rng = Rng64::new(0xC0_0003);
    for _ in 0..CASES {
        let comm = rng.range(2, 40);
        let transit = rng.range(1, 30);
        let b1 = rng.range(1, 6) as u32;
        let extra = rng.range(1, 6) as u32;
        let t = |buffers| {
            steady_throughput(AnalyticParams {
                comm_a: comm,
                comm_b: comm,
                transit,
                buffers,
                compute: 0,
            })
        };
        let low = t(b1);
        let high = t(b1 + extra);
        assert!(
            high >= low * 0.999,
            "buffers {b1}->{} reduced throughput",
            b1 + extra
        );
        // Allow for the +/-1 iteration quantization at the window edges.
        assert!(
            high <= (1.0 / comm as f64) * 1.001 + 1e-4,
            "throughput beats COMM-OP bound"
        );
    }
}
