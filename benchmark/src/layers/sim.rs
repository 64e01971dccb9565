//! `hfs-sim`: the calendar queue and the FNV map, on the access patterns
//! the machine gives them.

use std::hint::black_box;

use hfs_sim::sched::CalendarQueue;
use hfs_sim::{Cycle, FnvMap, Rng64};

use crate::layers::{ns_per_op, Ledger};

/// Tokens kept armed, as a dual-core machine keeps (memory, sweep,
/// sample, watchdog, backends, cores).
const TOKENS: u32 = 8;

/// Schedule/`pop_due` pairs with re-arm delays drawn from `lo..hi`:
/// every popped token is scheduled again, so the queue stays `TOKENS`
/// deep and each pop pairs with one schedule.
fn calendar_pairs(lo: u64, hi: u64) -> (f64, u64) {
    let mut rng = Rng64::new(0xca1e);
    let delays: Vec<u64> = (0..1024).map(|_| rng.range(lo, hi)).collect();
    let mut q = CalendarQueue::new(Cycle::ZERO);
    for t in 0..TOKENS {
        q.schedule(Cycle::new(delays[t as usize]), t);
    }
    let mut now = 0u64;
    let mut i = 0usize;
    ns_per_op(4096, || {
        // Jump to the next wake, as the event loop does, and re-arm
        // whatever is due there.
        now = q.next_due().map_or(now + 1, Cycle::as_u64);
        let (_, token) = q
            .pop_due(Cycle::new(now))
            .expect("a wake is due at next_due");
        i = (i + 1) % delays.len();
        q.schedule(Cycle::new(now + delays[i]), black_box(token));
    })
}

/// Get/insert/remove over a rolling window of 16 live line addresses —
/// the size of an L2 controller's `pending_lines`.
fn fnv_mix() -> (f64, u64) {
    let mut map: FnvMap<u64> = FnvMap::new();
    let line = |i: u64| 0x4000_0000 + (i % 4096) * 128;
    for i in 0..16 {
        map.insert(line(i), i);
    }
    let mut i = 16u64;
    let (ns, calls) = ns_per_op(1024, || {
        // One line retires, one is allocated, two lookups in between.
        black_box(map.remove(line(i - 16)));
        black_box(map.get(line(i - 8)));
        black_box(map.get(line(i + 1)));
        map.insert(line(i), i);
        i += 1;
    });
    (ns / 4.0, calls * 4)
}

/// The `sim.*` rows.
pub fn measure(l: &mut Ledger) {
    let (ns, n) = calendar_pairs(2, 200);
    l.put("sim.calq_ns_per_op", ns, n);
    // Beyond the 256-slot wheel: park in the overflow heap, promote.
    let (ns, n) = calendar_pairs(300, 3_000);
    l.put("sim.calq_overflow_ns_per_op", ns, n);
    let (ns, n) = fnv_mix();
    l.put("sim.fnvmap_ns_per_op", ns, n);
}
