//! Design-point backends: the streaming hardware behind the cores.
//!
//! * [`SoftwareBackend`] — EXISTING/MEMOPTI: communication is ordinary
//!   loads/stores; the backend only implements MEMOPTI's write-forward
//!   trigger (push a queue line once all its slots' flags are set).
//! * [`SyncOptiBackend`] — §4.2: stream address generation, distributed
//!   occupancy counters, dormant OzQ waiting, line forwarding, bulk ACKs
//!   on the shared bus, the consume timeout flush, and optionally the
//!   1 KB stream cache.
//! * [`HeavyWtBackend`] — §4.1: the synchronization array and its
//!   dedicated pipelined interconnect.

mod heavywt;
mod software;
mod syncopti;

use hfs_check::Checker;
use hfs_cpu::{StreamCompletion, StreamPort, StreamSubmit, StreamToken};
use hfs_isa::{CoreId, QueueId};
use hfs_mem::{Completion, MemEvent, MemSystem};
use hfs_sim::stats::StallComponent;
use hfs_sim::Cycle;
use hfs_trace::{TraceEvent, Tracer};

use crate::design::{DesignPoint, Mechanism};
use crate::queues::QueueCheck;
use crate::stream_cache::StreamCache;

use heavywt::HeavyWtBackend;
use software::SoftwareBackend;
use syncopti::SyncOptiBackend;

/// One pipeline's streaming hardware, owned by the machine.
#[derive(Debug)]
pub(crate) struct Backend {
    shared: Shared,
    mech: Mech,
}

/// The mechanism behind a design point.
#[derive(Debug)]
enum Mech {
    /// EXISTING / MEMOPTI.
    Software(SoftwareBackend),
    /// SYNCOPTI and its SC / Q64 variants.
    SyncOpti(SyncOptiBackend),
    /// HEAVYWT.
    HeavyWt(HeavyWtBackend),
}

/// The state every mechanism declares: the producer and consumer cores,
/// the FIFO check, the tracer and checker handles, and the completions
/// of pending consumes with the tokens that name them. The software
/// backend's traffic is ordinary loads and stores, so it completes
/// nothing and never reads the checker (the memory system's own hooks
/// cover it).
#[derive(Debug)]
struct Shared {
    producer: CoreId,
    consumer: CoreId,
    check: QueueCheck,
    tracer: Tracer,
    checker: Checker,
    completions: Vec<StreamCompletion>,
    next_token: u64,
}

impl Shared {
    /// A token for a consume left pending.
    fn mint(&mut self) -> StreamToken {
        let t = StreamToken(self.next_token);
        self.next_token += 1;
        t
    }

    /// A produce of `value`, the `seq`-th on `q`, was accepted, leaving
    /// `depth` items in flight.
    fn produced(&mut self, q: QueueId, seq: u64, value: u64, depth: u64, now: Cycle) {
        self.check.on_produce(q, value);
        let core = self.producer;
        self.tracer.emit(|| TraceEvent::Produce {
            core,
            queue: q,
            seq,
            at: now.as_u64(),
        });
        self.tracer.emit(|| TraceEvent::QueueDepth {
            queue: q,
            at: now.as_u64(),
            depth,
        });
    }

    /// The consume of `slot` on `q` returns `value` to the consumer at
    /// `at`, completing `pending`, the token of a consume that waited.
    fn consumed(
        &mut self,
        q: QueueId,
        slot: u64,
        value: u64,
        at: Cycle,
        pending: Option<StreamToken>,
    ) {
        self.check.on_consume(q, slot, value);
        let core = self.consumer;
        self.tracer.emit(|| TraceEvent::Consume {
            core,
            queue: q,
            seq: slot,
            at: at.as_u64(),
        });
        if let Some(token) = pending {
            let value = Some(value);
            self.completions.push(StreamCompletion { token, value, at });
        }
    }
}

impl Backend {
    pub(crate) fn new(
        design: &DesignPoint,
        queues: &[QueueId],
        producer: CoreId,
        consumer: CoreId,
    ) -> Result<Self, hfs_sim::ConfigError> {
        design.validate()?;
        let mech = match design.mechanism() {
            Mechanism::Software(_) => Mech::Software(SoftwareBackend::new(design, queues)),
            Mechanism::SyncOpti(c) => {
                Mech::SyncOpti(SyncOptiBackend::new(design, c.stream_cache, queues))
            }
            Mechanism::Dedicated(c) => Mech::HeavyWt(HeavyWtBackend::new(c)?),
        };
        let shared = Shared {
            producer,
            consumer,
            check: QueueCheck::new(),
            tracer: Tracer::disabled(),
            checker: Checker::disabled(),
            completions: Vec::new(),
            next_token: 0,
        };
        Ok(Backend { shared, mech })
    }

    /// Processes one cycle. `events` is the memory-event stream drained
    /// once per cycle by the machine and shared by every backend (each
    /// filters to its own queues), so multiple pipelines can coexist on
    /// one CMP.
    pub(crate) fn process(&mut self, mem: &mut MemSystem, events: &[MemEvent], now: Cycle) {
        let s = &mut self.shared;
        match &mut self.mech {
            Mech::Software(b) => b.process(s, mem, events, now),
            Mech::SyncOpti(b) => b.process(s, mem, events, now),
            Mech::HeavyWt(b) => b.process(s, now),
        }
    }

    pub(crate) fn quiescent(&self) -> bool {
        self.shared.completions.is_empty()
            && match &self.mech {
                Mech::Software(b) => b.queued.is_empty(),
                Mech::SyncOpti(b) => b.quiescent(),
                Mech::HeavyWt(b) => b.quiescent(),
            }
    }

    /// Conservative lower bound on the next cycle this backend could act
    /// on its own: retry a queued forward, release a gated operation,
    /// advance the sync-array network, fire the consume-timeout flush, or
    /// surface a completion. `None` means the backend is purely
    /// event-driven until another component changes state (those changes
    /// are covered by the memory system's and cores' own bounds).
    pub(crate) fn next_event(&self, now: Cycle) -> Option<Cycle> {
        if !self.shared.completions.is_empty() {
            return Some(now.next());
        }
        match &self.mech {
            Mech::Software(b) => (!b.queued.is_empty()).then(|| now.next()),
            Mech::SyncOpti(b) => b.next_event(now),
            Mech::HeavyWt(b) => b.next_event(now),
        }
    }

    pub(crate) fn check(&self) -> &QueueCheck {
        &self.shared.check
    }

    /// Stream-cache statistics, when the design has one.
    pub(crate) fn stream_cache(&self) -> Option<&StreamCache> {
        match &self.mech {
            Mech::SyncOpti(b) => b.sc.as_ref(),
            _ => None,
        }
    }

    /// Hands the backend a shared tracer handle.
    pub(crate) fn set_tracer(&mut self, tracer: Tracer) {
        self.shared.tracer = tracer;
    }

    /// Hands the backend a shared machine-checker handle.
    pub(crate) fn set_checker(&mut self, checker: Checker) {
        self.shared.checker = checker;
    }
}

impl StreamPort for Backend {
    fn try_produce(
        &mut self,
        mem: &mut MemSystem,
        core: CoreId,
        q: QueueId,
        value: u64,
        now: Cycle,
    ) -> StreamSubmit {
        let s = &mut self.shared;
        assert_eq!(core, s.producer, "{q} is produced by {}", s.producer);
        match &mut self.mech {
            Mech::Software(_) => {
                panic!("software-queue programs must not contain produce instructions")
            }
            Mech::SyncOpti(b) => b.try_produce(s, mem, q, value, now),
            Mech::HeavyWt(b) => b.try_produce(s, q, value, now),
        }
    }

    fn try_consume(
        &mut self,
        mem: &mut MemSystem,
        core: CoreId,
        q: QueueId,
        now: Cycle,
    ) -> StreamSubmit {
        let s = &mut self.shared;
        assert_eq!(core, s.consumer, "{q} is consumed by {}", s.consumer);
        match &mut self.mech {
            Mech::Software(_) => {
                panic!("software-queue programs must not contain consume instructions")
            }
            Mech::SyncOpti(b) => b.try_consume(s, mem, q, now),
            Mech::HeavyWt(b) => b.try_consume(s, q, now),
        }
    }

    fn poll(&mut self, core: CoreId, _now: Cycle, out: &mut Vec<StreamCompletion>) {
        if core == self.shared.consumer {
            out.append(&mut self.shared.completions);
        }
    }

    fn location(&self, mem: &MemSystem, token: StreamToken) -> StallComponent {
        match &self.mech {
            Mech::SyncOpti(b) => b.location(mem, token),
            _ => StallComponent::PreL2,
        }
    }

    fn on_mem_completion(&mut self, completion: Completion) {
        if let Mech::SyncOpti(b) = &mut self.mech {
            b.on_mem_completion(&mut self.shared, completion);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfs_mem::MemConfig;

    fn mem() -> MemSystem {
        MemSystem::new(MemConfig::itanium2_cmp()).unwrap()
    }

    fn hw_backend(transit: u64, depth: u32) -> (Backend, MemSystem) {
        let design = DesignPoint::heavywt_with(transit, depth);
        let b = Backend::new(&design, &[QueueId(0), QueueId(3)], CoreId(0), CoreId(1)).unwrap();
        (b, mem())
    }

    #[test]
    fn heavywt_produce_then_consume_roundtrip() {
        let (mut b, mut m) = hw_backend(1, 32);
        let q = QueueId(0);
        let now = Cycle::new(0);
        match b.try_produce(&mut m, CoreId(0), q, 0, now) {
            StreamSubmit::Done { .. } => {}
            other => panic!("expected immediate produce, got {other:?}"),
        }
        // Data needs one network cycle to reach the array.
        b.process(&mut m, &[], Cycle::new(1));
        match b.try_consume(&mut m, CoreId(1), q, Cycle::new(1)) {
            StreamSubmit::Done { value: Some(0), at } => assert_eq!(at, Cycle::new(2)),
            other => panic!("expected consume hit, got {other:?}"),
        }
        assert!(b.check().finish().is_ok());
    }

    #[test]
    fn heavywt_consume_before_data_pends_then_completes() {
        let (mut b, mut m) = hw_backend(2, 32);
        let q = QueueId(3);
        let tok = match b.try_consume(&mut m, CoreId(1), q, Cycle::new(0)) {
            StreamSubmit::Pending(t) => t,
            other => panic!("expected pending, got {other:?}"),
        };
        let mut done = Vec::new();
        b.poll(CoreId(1), Cycle::new(0), &mut done);
        assert!(done.is_empty());
        let _ = b.try_produce(&mut m, CoreId(0), q, 0, Cycle::new(1));
        // Two network cycles later the waiting consume completes.
        b.process(&mut m, &[], Cycle::new(2));
        b.process(&mut m, &[], Cycle::new(3));
        b.poll(CoreId(1), Cycle::new(3), &mut done);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].token, tok);
        assert_eq!(done[0].value, Some(0));
    }

    #[test]
    fn heavywt_occupancy_blocks_until_ack_returns() {
        let (mut b, mut m) = hw_backend(4, 4);
        let q = QueueId(0);
        let mut t = 0u64;
        // Fill the queue (4 entries) plus whatever the network holds.
        let mut sent = 0u64;
        for _ in 0..200 {
            b.process(&mut m, &[], Cycle::new(t));
            while let StreamSubmit::Done { .. } =
                b.try_produce(&mut m, CoreId(0), q, sent, Cycle::new(t))
            {
                sent += 1;
            }
            t += 1;
            if sent >= 4 {
                break;
            }
        }
        assert_eq!(sent, 4, "occupancy counter must cap at the queue depth");
        assert!(matches!(
            b.try_produce(&mut m, CoreId(0), q, sent, Cycle::new(t)),
            StreamSubmit::Blocked
        ));
        // One consume; its completion sends the ACK, which takes
        // `transit` cycles to free a producer credit.
        let tok = match b.try_consume(&mut m, CoreId(1), q, Cycle::new(t)) {
            StreamSubmit::Pending(tk) => Some(tk),
            StreamSubmit::Done { .. } => None,
            StreamSubmit::Blocked => panic!("consume cannot block"),
        };
        let mut consumed_at = if tok.is_none() { Some(t) } else { None };
        let mut unblocked_at = None;
        for _ in 0..40 {
            t += 1;
            b.process(&mut m, &[], Cycle::new(t));
            if consumed_at.is_none() {
                let mut done = Vec::new();
                b.poll(CoreId(1), Cycle::new(t), &mut done);
                if !done.is_empty() {
                    consumed_at = Some(t);
                }
            }
            if consumed_at.is_some() {
                if let StreamSubmit::Done { .. } =
                    b.try_produce(&mut m, CoreId(0), q, sent, Cycle::new(t))
                {
                    unblocked_at = Some(t);
                    break;
                }
            }
        }
        let consumed = consumed_at.expect("consume must complete");
        let unblocked = unblocked_at.expect("producer must eventually unblock");
        assert!(
            unblocked >= consumed + 4,
            "credit must take >= transit cycles to return ({consumed} -> {unblocked})"
        );
    }

    #[test]
    fn syncopti_consume_waits_for_forward_watermark() {
        let mut b = Backend::new(
            &DesignPoint::syncopti(),
            &[QueueId(0)],
            CoreId(0),
            CoreId(1),
        )
        .unwrap();
        let mut m = mem();
        let tok = match b.try_consume(&mut m, CoreId(1), QueueId(0), Cycle::new(0)) {
            StreamSubmit::Pending(t) => t,
            other => panic!("{other:?}"),
        };
        // Nothing produced, nothing forwarded: stays pending.
        b.process(&mut m, &[], Cycle::new(1));
        let mut done = Vec::new();
        b.poll(CoreId(1), Cycle::new(1), &mut done);
        assert!(done.is_empty());
        assert_eq!(b.location(&m, tok), StallComponent::PreL2);
    }
}
