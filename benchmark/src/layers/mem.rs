//! `hfs-mem`: `MemSystem` alone, driven one reference per core per cycle
//! from seeded per-core load/store streams (the input shape of a
//! trace-driven coherence simulator), per protocol.

use std::time::{Duration, Instant};

use hfs_isa::{Addr, CoreId};
use hfs_mem::{MemConfig, MemEvent, MemOp, MemSystem, Protocol, Submit};
use hfs_sim::{Cycle, Rng64};

use crate::layers::{low_of, timed, Ctx, Ledger};

/// One memory reference of a replay stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ref {
    /// Byte address.
    pub addr: u64,
    /// `Some(value)` for a store.
    pub write: Option<u64>,
}

/// Where the software queues live in a lowered program.
const QUEUE_BASE: u64 = hfs_core::lower::QUEUE_BASE;
const LINE: u64 = hfs_core::lower::LINE_BYTES;

/// `next_event` calls inside one bracket.
const NEXT_EVENT_CALLS: u64 = 16;

/// References per core in one replay.
const REFS_PER_CORE: usize = 12_288;

/// `pingpong`: two cores over the same 64 queue-slot lines. Core 0 walks
/// the slots storing, core 1 walks them loading; a seeded quarter of the
/// references go the other way to a random slot, so ownership of every
/// line keeps changing hands.
pub fn pingpong_streams(seed: u64) -> Vec<Vec<Ref>> {
    (0..2u64)
        .map(|core| {
            let mut rng = Rng64::new(seed).split(0x9199 + core);
            (0..REFS_PER_CORE as u64)
                .map(|i| {
                    let flip = rng.below(4) == 0;
                    let slot = if flip { rng.below(64) } else { i % 64 };
                    let stores = (core == 0) != flip;
                    Ref {
                        addr: QUEUE_BASE + slot * LINE + 8 * rng.below(LINE / 8),
                        write: stores.then_some(i),
                    }
                })
                .collect()
        })
        .collect()
}

/// `private`: each core streams line by line through its own 512 KiB
/// (twice the L2), a seeded quarter of the references being stores.
pub fn private_streams(seed: u64) -> Vec<Vec<Ref>> {
    const LINES: u64 = 4096;
    (0..2u64)
        .map(|core| {
            let mut rng = Rng64::new(seed).split(0x9417 + core);
            let base = 0x1000_0000 + core * 0x1000_0000;
            (0..REFS_PER_CORE as u64)
                .map(|i| Ref {
                    addr: base + (i % LINES) * LINE,
                    write: (rng.below(4) == 0).then_some(i),
                })
                .collect()
        })
        .collect()
}

/// The exact counts of one replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    refs: u64,
    cycles: u64,
    attempts: u64,
    rejects: u64,
    completions: u64,
    evictions: u64,
    writebacks: u64,
    updates: u64,
    bus_txns: u64,
    l2_hits: u64,
    l2_misses: u64,
}

impl Counts {
    /// Adds another replay's counts to these.
    fn absorb(&mut self, o: &Counts) {
        self.refs += o.refs;
        self.cycles += o.cycles;
        self.attempts += o.attempts;
        self.rejects += o.rejects;
        self.completions += o.completions;
        self.evictions += o.evictions;
        self.writebacks += o.writebacks;
        self.updates += o.updates;
        self.bus_txns += o.bus_txns;
        self.l2_hits += o.l2_hits;
        self.l2_misses += o.l2_misses;
    }
}

/// Time spent inside each bracketed call, and how many calls.
#[derive(Debug, Default)]
struct Brackets {
    tick: (Duration, u64),
    submit: (Duration, u64),
    drain: (Duration, u64),
    next_event: (Duration, u64),
}

/// Evaluates `f`, charging its time to `slot` when bracketing is on.
fn bracket<T>(slot: Option<&mut (Duration, u64)>, f: impl FnOnce() -> T) -> T {
    match slot {
        None => f(),
        Some(slot) => {
            let t = Instant::now();
            let out = f();
            slot.0 += t.elapsed();
            slot.1 += 1;
            out
        }
    }
}

/// Replays `streams` into a fresh memory system: each cycle the system
/// ticks, every core drains its completions and submits its next
/// reference (the same one again after a rejection). Runs until every
/// reference is in and the system is idle.
fn replay(protocol: Protocol, streams: &[Vec<Ref>], mut brackets: Option<&mut Brackets>) -> Counts {
    let cfg = MemConfig {
        cores: streams.len() as u8,
        protocol,
        ..MemConfig::itanium2_cmp()
    };
    let mut mem = MemSystem::new(cfg).expect("valid memory configuration");
    let mut next = vec![0usize; streams.len()];
    let mut c = Counts::default();
    let (mut events, mut done) = (Vec::new(), Vec::new());
    let mut now = Cycle::ZERO;
    loop {
        bracket(brackets.as_deref_mut().map(|b| &mut b.tick), || {
            mem.tick(now)
        });
        mem.take_events(&mut events);
        for e in &events {
            match e {
                MemEvent::LineEvicted { dirty, .. } => {
                    c.evictions += 1;
                    c.writebacks += u64::from(*dirty);
                }
                MemEvent::UpdateDelivered { .. } => c.updates += 1,
                _ => {}
            }
        }
        for (i, stream) in streams.iter().enumerate() {
            let core = CoreId(i as u8);
            done.clear();
            bracket(brackets.as_deref_mut().map(|b| &mut b.drain), || {
                mem.drain_completions_into(core, now, &mut done)
            });
            c.completions += done.len() as u64;
            let Some(r) = stream.get(next[i]) else {
                continue;
            };
            let addr = Addr::new(r.addr);
            let op = match r.write {
                Some(v) => MemOp::store(addr, v),
                None => MemOp::load(addr),
            };
            c.attempts += 1;
            let outcome = bracket(brackets.as_deref_mut().map(|b| &mut b.submit), || {
                mem.submit(core, op, now)
            });
            match outcome {
                Submit::Rejected(_) => c.rejects += 1,
                Submit::L1Hit { .. } | Submit::Accepted(_) => next[i] += 1,
            }
        }
        // What a fast-forwarding run loop asks every cycle. The call is
        // pure, so one bracket holds `NEXT_EVENT_CALLS` of them: alone it
        // is far below the clock's resolution.
        bracket(brackets.as_deref_mut().map(|b| &mut b.next_event), || {
            for _ in 0..NEXT_EVENT_CALLS {
                std::hint::black_box(mem.next_event(std::hint::black_box(now)));
            }
        });
        let submitted_all = next.iter().zip(streams).all(|(n, s)| *n == s.len());
        if submitted_all && mem.is_idle() {
            break;
        }
        now = now.next();
    }
    c.refs = streams.iter().map(|s| s.len() as u64).sum();
    c.cycles = now.as_u64();
    c.bus_txns = mem.stats().bus.addr_phases;
    for counter in mem.counters() {
        match counter.name() {
            "mem.l2_hits" => c.l2_hits = counter.value(),
            "mem.l2_misses" => c.l2_misses = counter.value(),
            _ => {}
        }
    }
    c
}

/// The `mem.*` rows.
pub fn measure(ctx: &Ctx, bracket_ns: f64, l: &mut Ledger) {
    let pingpong = pingpong_streams(ctx.seed);
    let private = private_streams(ctx.seed);
    let mut all = Counts::default();
    let mut invalidations = 0u64;

    // Plain passes: the whole replay timed, three times, low quantile.
    let mut timed_replay = |protocol, streams: &[Vec<Ref>], l: &mut Ledger| {
        let mut counts: Option<Counts> = None;
        let nanos = low_of(3, || {
            let (secs, c) = timed(|| replay(protocol, streams, None));
            match counts {
                None => counts = Some(c),
                Some(first) => l.check(first == c, "a mem replay's counts changed between passes"),
            }
            secs * 1e9
        });
        let c = counts.expect("three passes ran");
        all.absorb(&c);
        (nanos / c.refs as f64, c)
    };
    for (protocol, name) in [
        (Protocol::Msi, "mem.replay_ns_per_ref.msi"),
        (Protocol::Mesi, "mem.replay_ns_per_ref.mesi"),
        (Protocol::Dragon, "mem.replay_ns_per_ref.dragon"),
    ] {
        let (ns, c) = timed_replay(protocol, &pingpong, l);
        // 64 lines never outgrow an L2: every line that leaves one here
        // was taken by the other core.
        invalidations += c.evictions;
        l.put(name, ns, c.refs);
    }
    let (ns, c) = timed_replay(Protocol::Msi, &private, l);
    l.put("mem.replay_private_ns_per_ref", ns, c.refs);

    // Bracketed pass: the same MSI ping-pong with a clock read around
    // every call; its counts must equal the plain pass's.
    let mut b = Brackets::default();
    let plain = replay(Protocol::Msi, &pingpong, None);
    let bracketed = replay(Protocol::Msi, &pingpong, Some(&mut b));
    l.check(
        plain == bracketed,
        "bracketing the mem replay changed its counts",
    );
    // Net of the clock read, and not clamped: a call cheaper than the
    // clock's resolution reads as zero give or take that resolution.
    let per_call =
        |(time, calls): (Duration, u64)| time.as_nanos() as f64 / calls as f64 - bracket_ns;
    l.put("mem.tick_ns_per_cycle", per_call(b.tick), b.tick.1);
    l.put("mem.submit_ns", per_call(b.submit), b.submit.1);
    l.put("mem.drain_ns", per_call(b.drain), b.drain.1);
    l.put(
        "mem.next_event_ns",
        per_call(b.next_event) / NEXT_EVENT_CALLS as f64,
        b.next_event.1 * NEXT_EVENT_CALLS,
    );

    let refs = all.refs as f64;
    l.put("mem.refs", refs, all.refs);
    l.put("mem.sim_cycles_per_ref", all.cycles as f64 / refs, all.refs);
    l.put(
        "mem.l2_miss_ratio",
        all.l2_misses as f64 / (all.l2_hits + all.l2_misses) as f64,
        all.l2_hits + all.l2_misses,
    );
    l.put("mem.bus_txns_per_ref", all.bus_txns as f64 / refs, all.refs);
    l.put("mem.invalidations", invalidations as f64, all.refs);
    l.put("mem.updates", all.updates as f64, all.refs);
    l.put("mem.writebacks", all.writebacks as f64, all.refs);
    l.put(
        "mem.reject_ratio",
        all.rejects as f64 / all.attempts as f64,
        all.attempts,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_a_function_of_the_seed() {
        assert_eq!(pingpong_streams(3), pingpong_streams(3));
        assert_ne!(pingpong_streams(3), pingpong_streams(4));
        assert_eq!(private_streams(3), private_streams(3));
        assert_ne!(private_streams(3), private_streams(4));
    }

    #[test]
    fn replay_counts_repeat_and_survive_bracketing() {
        let streams: Vec<Vec<Ref>> = pingpong_streams(1)
            .into_iter()
            .map(|s| s[..512].to_vec())
            .collect();
        for protocol in Protocol::ALL {
            let plain = replay(protocol, &streams, None);
            assert_eq!(plain, replay(protocol, &streams, None));
            let mut b = Brackets::default();
            assert_eq!(plain, replay(protocol, &streams, Some(&mut b)));
            assert_eq!(plain.refs, 1024);
            assert!(b.tick.1 > 0 && b.submit.1 == plain.attempts);
        }
        // Only the update protocol broadcasts updates.
        assert_eq!(replay(Protocol::Msi, &streams, None).updates, 0);
        assert!(replay(Protocol::Dragon, &streams, None).updates > 0);
    }
}
