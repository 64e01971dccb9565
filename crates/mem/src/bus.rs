//! The shared split-transaction snoopy bus.
//!
//! Table 2: "16-byte, 1-cycle, 3-stage pipelined, split-transaction bus
//! with round robin arbitration". The bus has an *address channel*
//! (one address phase granted per bus cycle, delivered to snoopers after
//! the pipeline depth) and a *data channel* (one transfer at a time, a
//! 128-byte line taking `128/width` bus cycles). Both channels arbitrate
//! round-robin among their agents. A bus cycle is `clock_divider` CPU
//! cycles (§4.5 raises this to 4).

use std::collections::VecDeque;

use hfs_check::{Checker, Mutation};
use hfs_isa::CoreId;
use hfs_sim::{fold_bound, Cycle, TimedQueue};
use hfs_trace::{TraceEvent, Tracer};

use crate::cache::LineState;
use crate::config::BusConfig;
use crate::msg::CtlPayload;
use crate::protocol::LineOp;

/// A bus agent: a core's L2 controller or the shared L3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Agent {
    /// A core's L2.
    Core(CoreId),
    /// The shared L3 / memory controller.
    L3,
}

/// Address-channel transactions (requests and small control messages).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AddrTxn {
    /// A coherence request for a line.
    Line {
        op: LineOp,
        line: u64,
        requester: CoreId,
        /// Targets the streaming (queue) region: deprioritized when the
        /// arbiter favors application traffic.
        streaming: bool,
    },
    /// Streaming control message (occupancy update / bulk ACK).
    Ctl {
        from: CoreId,
        to: CoreId,
        payload: CtlPayload,
    },
}

/// Data-channel transfers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DataTxn {
    /// A line fill delivered to a requesting L2.
    FillL2 {
        line: u64,
        dest: CoreId,
        /// Coherence state the line installs in at the destination
        /// (Modified for ownership fills, Exclusive for MESI/Dragon
        /// exclusive-clean fills, Shared otherwise).
        state: LineState,
    },
    /// A dirty-line writeback into the L3.
    WbL3 { line: u64, from: CoreId },
    /// A write-forward push of a streaming line from one L2 to another.
    ForwardLine { line: u64, from: CoreId, to: CoreId },
}

/// Aggregate bus statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Address phases granted.
    pub addr_phases: u64,
    /// Data transfers completed.
    pub data_transfers: u64,
    /// CPU cycles the data channel was busy.
    pub data_busy_cycles: u64,
    /// Control messages delivered.
    pub ctl_delivered: u64,
}

/// The agent after `idx` in round-robin order among `n`.
fn next_agent(idx: usize, n: usize) -> usize {
    if idx + 1 == n {
        0
    } else {
        idx + 1
    }
}

#[derive(Debug)]
pub(crate) struct Bus {
    cfg: BusConfig,
    /// The first bus cycle after the last tick: a tick before it is not
    /// on a bus cycle, a tick at it is, and only a tick past it (the run
    /// loop skipped cycles) has to divide to find out.
    next_bus_cycle: Cycle,
    addr_queues: Vec<VecDeque<AddrTxn>>,
    /// Requests in `addr_queues`, all agents together.
    addr_queued: usize,
    addr_rr: usize,
    addr_inflight: TimedQueue<AddrTxn>,
    data_queues: Vec<VecDeque<(u64, DataTxn)>>,
    /// Transfers in `data_queues`, all agents together.
    data_queued: usize,
    data_rr: usize,
    data_busy_until: Cycle,
    data_inflight: TimedQueue<DataTxn>,
    stats: BusStats,
    tracer: Tracer,
    checker: Checker,
}

impl Bus {
    pub(crate) fn new(cfg: BusConfig, cores: usize) -> Self {
        Bus {
            cfg,
            next_bus_cycle: Cycle::ZERO,
            addr_queues: vec![VecDeque::new(); cores],
            addr_queued: 0,
            addr_rr: 0,
            addr_inflight: TimedQueue::new(),
            // Data agents: each core plus the L3 (last index).
            data_queues: vec![VecDeque::new(); cores + 1],
            data_queued: 0,
            data_rr: 0,
            data_busy_until: Cycle::ZERO,
            data_inflight: TimedQueue::new(),
            stats: BusStats::default(),
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
        }
    }

    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    pub(crate) fn set_checker(&mut self, checker: Checker) {
        self.checker = checker;
    }

    pub(crate) fn stats(&self) -> BusStats {
        self.stats
    }

    fn data_agent_index(&self, agent: Agent) -> usize {
        match agent {
            Agent::Core(c) => c.index(),
            Agent::L3 => self.data_queues.len() - 1,
        }
    }

    /// Queues an address-phase request from a core.
    pub(crate) fn request_addr(&mut self, from: CoreId, txn: AddrTxn) {
        self.addr_queues[from.index()].push_back(txn);
        self.addr_queued += 1;
    }

    /// Queues a data transfer of `bytes` from `agent`.
    pub(crate) fn request_data(&mut self, agent: Agent, bytes: u64, txn: DataTxn) {
        let idx = self.data_agent_index(agent);
        self.data_queues[idx].push_back((bytes, txn));
        self.data_queued += 1;
    }

    /// Whether any channel has in-flight or queued work.
    pub(crate) fn is_idle(&self) -> bool {
        self.addr_inflight.is_empty()
            && self.data_inflight.is_empty()
            && self.addr_queued == 0
            && self.data_queued == 0
    }

    /// Whether `now` is a bus cycle (a multiple of the clock divider),
    /// moving the `next_bus_cycle` stamp past it. Ticks never go back in
    /// time, which is what lets the stamp stand in for the division.
    fn on_bus_cycle(&mut self, now: Cycle) -> bool {
        if now < self.next_bus_cycle {
            return false;
        }
        let d = self.cfg.clock_divider;
        let on = now == self.next_bus_cycle || now.as_u64().is_multiple_of(d);
        self.next_bus_cycle = if on {
            now + d
        } else {
            Cycle::new((now.as_u64() / d + 1) * d)
        };
        on
    }

    /// Advances one CPU cycle. Address phases and data transfers
    /// delivered this cycle are appended, in deterministic order, to the
    /// caller-owned `addr_out` / `data_out` buffers.
    pub(crate) fn tick(
        &mut self,
        now: Cycle,
        addr_out: &mut Vec<AddrTxn>,
        data_out: &mut Vec<DataTxn>,
    ) {
        while let Some(t) = self.addr_inflight.pop_ready(now) {
            if matches!(t, AddrTxn::Ctl { .. }) {
                self.stats.ctl_delivered += 1;
            }
            addr_out.push(t);
        }
        while let Some(t) = self.data_inflight.pop_ready(now) {
            self.stats.data_transfers += 1;
            data_out.push(t);
        }

        if self.on_bus_cycle(now) {
            self.checker.on_bus_slot(now);
            // Address channel: grant one phase round-robin. With
            // favor_app_traffic, a first pass grants only agents whose
            // head request targets ordinary memory; streaming (queue)
            // traffic is served when no application request is waiting.
            let n = self.addr_queues.len();
            let is_streaming = |t: &AddrTxn| {
                matches!(
                    t,
                    AddrTxn::Line {
                        streaming: true,
                        ..
                    } | AddrTxn::Ctl { .. }
                )
            };
            let passes: &[bool] = if self.cfg.favor_app_traffic {
                &[false, true]
            } else {
                &[true]
            };
            // Fault injection: a starved agent is never eligible, so the
            // checker's bounded-wait rule must eventually flag it.
            let starve_armed = self.checker.mutation_active(Mutation::StarveBusAgent);
            let starved = move |idx: usize| idx == 1 && starve_armed;
            // An empty slot (the common case) grants nothing whoever is
            // asked first.
            let passes = if self.addr_queued == 0 { &[] } else { passes };
            'grant: for &allow_streaming in passes {
                let mut idx = self.addr_rr;
                for _ in 0..n {
                    let eligible = match self.addr_queues[idx].front() {
                        Some(t) => (allow_streaming || !is_streaming(t)) && !starved(idx),
                        None => false,
                    };
                    if eligible {
                        let txn = self.addr_queues[idx].pop_front().expect("front checked");
                        self.addr_queued -= 1;
                        self.stats.addr_phases += 1;
                        self.tracer.emit(|| TraceEvent::BusGrant {
                            core: CoreId(idx as u8),
                            at: now.as_u64(),
                            streaming: is_streaming(&txn),
                        });
                        self.checker.on_grant(now, idx as u8);
                        let deliver = now + self.cfg.pipeline_stages * self.cfg.clock_divider;
                        self.addr_inflight.push(deliver, txn);
                        self.addr_rr = next_agent(idx, n);
                        // Fault injection: grant a second phase in the
                        // same arbitration slot.
                        if self.checker.mutation_active(Mutation::DoubleGrantBus) {
                            let second =
                                (0..n).map(|j| (self.addr_rr + j) % n).find(|&j| {
                                    match self.addr_queues[j].front() {
                                        Some(t) => allow_streaming || !is_streaming(t),
                                        None => false,
                                    }
                                });
                            if let Some(idx2) = second {
                                if self.checker.fire_once(Mutation::DoubleGrantBus) {
                                    let txn2 =
                                        self.addr_queues[idx2].pop_front().expect("front checked");
                                    self.addr_queued -= 1;
                                    self.stats.addr_phases += 1;
                                    self.checker.on_grant(now, idx2 as u8);
                                    self.addr_inflight.push(deliver, txn2);
                                    self.addr_rr = next_agent(idx2, n);
                                }
                            }
                        }
                        break 'grant;
                    }
                    idx = next_agent(idx, n);
                }
            }
            // Bounded-wait audit: any agent that ends the slot with a
            // queued address request went ungranted this slot.
            if self.checker.is_enabled() {
                for idx in 0..n {
                    if !self.addr_queues[idx].is_empty() {
                        self.checker.on_agent_waiting(now, idx as u8);
                    }
                }
            }
            // Data channel: start the next transfer if idle.
            if self.data_busy_until <= now && self.data_queued > 0 {
                let n = self.data_queues.len();
                let mut idx = self.data_rr;
                for _ in 0..n {
                    if let Some((bytes, txn)) = self.data_queues[idx].pop_front() {
                        self.data_queued -= 1;
                        // Fault injection: silently drop one fill
                        // response; the requester's split transaction is
                        // never answered.
                        if matches!(txn, DataTxn::FillL2 { .. })
                            && self.checker.fire_once(Mutation::DropBusResponse)
                        {
                            self.data_rr = next_agent(idx, n);
                            break;
                        }
                        let busy = self.cfg.data_cycles(bytes) * self.cfg.clock_divider;
                        self.stats.data_busy_cycles += busy;
                        self.tracer.emit(|| TraceEvent::BusData {
                            at: now.as_u64(),
                            cycles: busy,
                        });
                        self.data_busy_until = now + busy;
                        self.data_inflight.push(now + busy, txn);
                        self.data_rr = next_agent(idx, n);
                        break;
                    }
                    idx = next_agent(idx, n);
                }
            }
        }
    }

    /// Lower bound on the next cycle at which the bus can deliver or
    /// grant anything: the head stamps of the two in-flight queues (exact
    /// — FIFOs gated by their heads); the next bus cycle boundary while
    /// an address request waits for a grant; and, while a data transfer
    /// waits, that boundary or the cycle the channel frees up, whichever
    /// is later (no transfer starts on a busy channel). A bound that
    /// falls between two boundaries is only early, and an early wake-up
    /// is a harmless no-op.
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut best = None;
        if let Some(t) = self.addr_inflight.next_ready() {
            fold_bound(&mut best, now, t);
        }
        if let Some(t) = self.data_inflight.next_ready() {
            fold_bound(&mut best, now, t);
        }
        // After a tick at `now` the stamp is the boundary itself;
        // without one it can only be early.
        if self.addr_queued > 0 {
            fold_bound(&mut best, now, self.next_bus_cycle);
        }
        if self.data_queued > 0 {
            fold_bound(
                &mut best,
                now,
                self.next_bus_cycle.max(self.data_busy_until),
            );
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> Bus {
        Bus::new(BusConfig::baseline(), 2)
    }

    type Stamped<T> = Vec<(u64, T)>;

    fn run(bus: &mut Bus, from: u64, to: u64) -> (Stamped<AddrTxn>, Stamped<DataTxn>) {
        let mut a = Vec::new();
        let mut d = Vec::new();
        let (mut ads, mut dts) = (Vec::new(), Vec::new());
        for c in from..to {
            bus.tick(Cycle::new(c), &mut ads, &mut dts);
            a.extend(ads.drain(..).map(|t| (c, t)));
            d.extend(dts.drain(..).map(|t| (c, t)));
        }
        (a, d)
    }

    #[test]
    fn addr_phase_delivers_after_pipeline() {
        let mut b = bus();
        b.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 5,
                requester: CoreId(0),
                streaming: false,
            },
        );
        let (a, _) = run(&mut b, 0, 10);
        assert_eq!(a.len(), 1);
        // Granted at cycle 0, delivered 3 bus cycles later.
        assert_eq!(a[0].0, 3);
    }

    #[test]
    fn addr_arbitration_is_round_robin() {
        let mut b = bus();
        for _ in 0..2 {
            b.request_addr(
                CoreId(0),
                AddrTxn::Line {
                    op: LineOp::Rd,
                    line: 1,
                    requester: CoreId(0),
                    streaming: false,
                },
            );
            b.request_addr(
                CoreId(1),
                AddrTxn::Line {
                    op: LineOp::Rd,
                    line: 2,
                    requester: CoreId(1),
                    streaming: false,
                },
            );
        }
        let (a, _) = run(&mut b, 0, 20);
        let order: Vec<u64> = a
            .iter()
            .map(|(_, t)| match t {
                AddrTxn::Line { requester, .. } => u64::from(requester.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![0, 1, 0, 1]);
    }

    #[test]
    fn line_transfer_occupies_width_cycles() {
        let mut b = bus();
        b.request_data(
            Agent::L3,
            128,
            DataTxn::FillL2 {
                line: 1,
                dest: CoreId(0),
                state: LineState::Shared,
            },
        );
        let (_, d) = run(&mut b, 0, 20);
        assert_eq!(d.len(), 1);
        // 128B / 16B = 8 bus cycles.
        assert_eq!(d[0].0, 8);
        assert_eq!(b.stats().data_busy_cycles, 8);
    }

    #[test]
    fn clock_divider_stretches_everything() {
        let cfg = BusConfig {
            clock_divider: 4,
            ..BusConfig::baseline()
        };
        let mut b = Bus::new(cfg, 2);
        b.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 9,
                requester: CoreId(0),
                streaming: false,
            },
        );
        b.request_data(
            Agent::Core(CoreId(0)),
            128,
            DataTxn::WbL3 {
                line: 9,
                from: CoreId(0),
            },
        );
        let (a, d) = run(&mut b, 0, 64);
        assert_eq!(a[0].0, 12); // 3 stages x divider 4
        assert_eq!(d[0].0, 32); // 8 bus cycles x divider 4
    }

    #[test]
    fn data_transfers_serialize() {
        let mut b = bus();
        for i in 0..2 {
            b.request_data(
                Agent::Core(CoreId(i)),
                128,
                DataTxn::WbL3 {
                    line: u64::from(i),
                    from: CoreId(i),
                },
            );
        }
        let (_, d) = run(&mut b, 0, 40);
        assert_eq!(d.len(), 2);
        assert_eq!(d[0].0, 8);
        assert_eq!(d[1].0, 16); // starts only after the first finishes
    }

    #[test]
    fn data_queued_behind_a_busy_channel_reports_data_busy_until() {
        let cfg = BusConfig {
            clock_divider: 4,
            ..BusConfig::baseline()
        };
        let mut b = Bus::new(cfg, 2);
        let writeback = |i: u8| DataTxn::WbL3 {
            line: u64::from(i),
            from: CoreId(i),
        };
        for i in 0..2 {
            b.request_data(Agent::Core(CoreId(i)), 128, writeback(i));
        }
        let at = Cycle::new;
        // Idle channel: the next bus cycle, as for an address request.
        assert_eq!(b.next_event(at(0)), Some(at(1)));
        let (mut ads, mut dts) = (Vec::new(), Vec::new());
        b.tick(at(0), &mut ads, &mut dts);
        // The first transfer holds the channel for 8 bus cycles of 4:
        // the second cannot start at the boundaries in between.
        assert_eq!(b.data_busy_until, at(32));
        assert_eq!(b.next_event(at(0)), Some(at(32)));
        assert_eq!(b.next_event(at(17)), Some(at(32)));
        // A waiting address request still wants the very next boundary.
        b.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 5,
                requester: CoreId(0),
                streaming: false,
            },
        );
        assert_eq!(b.next_event(at(0)), Some(at(4)));
        // Skipping to each bound delivers the data ticking every cycle
        // does (the address request rides along and changes none of it).
        let mut skipped = Vec::new();
        let mut now = at(0);
        while let Some(next) = b.next_event(now) {
            now = next;
            b.tick(now, &mut ads, &mut dts);
            skipped.extend(dts.drain(..).map(|t| (now.as_u64(), t)));
        }
        let mut every = Bus::new(cfg, 2);
        for i in 0..2 {
            every.request_data(Agent::Core(CoreId(i)), 128, writeback(i));
        }
        assert_eq!(skipped, run(&mut every, 0, 100).1);
        assert_eq!(skipped.iter().map(|d| d.0).collect::<Vec<_>>(), [32, 64]);
    }

    #[test]
    fn ctl_counts_in_stats() {
        let mut b = bus();
        b.request_addr(
            CoreId(1),
            AddrTxn::Ctl {
                from: CoreId(1),
                to: CoreId(0),
                payload: CtlPayload {
                    kind: 1,
                    a: 2,
                    b: 3,
                },
            },
        );
        let (a, _) = run(&mut b, 0, 10);
        assert_eq!(a.len(), 1);
        assert_eq!(b.stats().ctl_delivered, 1);
        assert_eq!(b.stats().addr_phases, 1);
    }

    #[test]
    fn favor_app_traffic_reorders_across_agents() {
        let cfg = BusConfig {
            favor_app_traffic: true,
            ..BusConfig::baseline()
        };
        let mut b = Bus::new(cfg, 2);
        // Core 0 (round-robin first) has a streaming request; core 1 has
        // an application request. The arbiter must grant core 1 first.
        b.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 1,
                requester: CoreId(0),
                streaming: true,
            },
        );
        b.request_addr(
            CoreId(1),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 2,
                requester: CoreId(1),
                streaming: false,
            },
        );
        let (a, _) = run(&mut b, 0, 10);
        let order: Vec<u64> = a
            .iter()
            .map(|(_, t)| match t {
                AddrTxn::Line { requester, .. } => u64::from(requester.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 0], "application traffic goes first");

        // Without the flag, plain round-robin serves core 0 first.
        let mut fair = Bus::new(BusConfig::baseline(), 2);
        fair.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 1,
                requester: CoreId(0),
                streaming: true,
            },
        );
        fair.request_addr(
            CoreId(1),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 2,
                requester: CoreId(1),
                streaming: false,
            },
        );
        let mut a2 = Vec::new();
        let mut dts = Vec::new();
        for c in 0..10u64 {
            fair.tick(Cycle::new(c), &mut a2, &mut dts);
        }
        let order2: Vec<u64> = a2
            .iter()
            .map(|t| match t {
                AddrTxn::Line { requester, .. } => u64::from(requester.0),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order2, vec![0, 1]);
    }

    #[test]
    fn streaming_starvation_is_bounded_by_empty_app_queues() {
        let cfg = BusConfig {
            favor_app_traffic: true,
            ..BusConfig::baseline()
        };
        let mut b = Bus::new(cfg, 2);
        b.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 7,
                requester: CoreId(0),
                streaming: true,
            },
        );
        // No app traffic at all: the streaming request is still granted.
        let (a, _) = run(&mut b, 0, 10);
        assert_eq!(a.len(), 1);
    }

    #[test]
    fn idle_reports_correctly() {
        let mut b = bus();
        assert!(b.is_idle());
        b.request_addr(
            CoreId(0),
            AddrTxn::Line {
                op: LineOp::Rd,
                line: 0,
                requester: CoreId(0),
                streaming: false,
            },
        );
        assert!(!b.is_idle());
        let _ = run(&mut b, 0, 10);
        assert!(b.is_idle());
    }
}
