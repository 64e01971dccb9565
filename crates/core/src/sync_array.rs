//! The HEAVYWT synchronization array and its dedicated interconnect.
//!
//! Data moves from the producer core through a pipelined point-to-point
//! network (one stage per transit cycle, with per-stage back-pressure)
//! into per-queue ring buffers located at the consumer core. Because
//! stalled items wait *in the network*, a longer pipeline effectively adds
//! buffering — the §4.4 observation that a 10-cycle interconnect can
//! *help* codes that frequently fill their queues — while a freed queue
//! slot takes `transit` cycles to become visible to the producer as the
//! bubble propagates backwards (the synchronization-acknowledgment delay).
//!
//! The array services a fixed number of operations per cycle (4 in the
//! paper), shared between network arrivals and consume reads.

use std::collections::VecDeque;

use hfs_isa::QueueId;
use hfs_sim::{ConfigError, DenseMap};

use crate::design::HeavyWtConfig;

/// The dedicated backing store plus its network.
#[derive(Debug)]
pub struct SyncArray {
    /// Ring depth, network stages, and array ports. Each network stage
    /// holds as many items as the array serves per cycle.
    cfg: HeavyWtConfig,
    /// `stages[0]` is the injection point; the last stage feeds the array.
    stages: Vec<VecDeque<(QueueId, u64)>>,
    rings: DenseMap<VecDeque<u64>>,
    budget: u32,
    injected: u64,
    delivered: u64,
}

impl SyncArray {
    /// Creates the array and network.
    ///
    /// # Errors
    ///
    /// Propagates [`HeavyWtConfig::validate`] failures.
    pub fn new(cfg: HeavyWtConfig) -> Result<Self, ConfigError> {
        cfg.validate()?;
        Ok(SyncArray {
            stages: (0..cfg.transit).map(|_| VecDeque::new()).collect(),
            rings: DenseMap::new(),
            budget: cfg.sa_ops_per_cycle,
            injected: 0,
            delivered: 0,
            cfg,
        })
    }

    /// Starts a new cycle: advance the network (consuming array ports for
    /// arrivals) and reset the consume budget.
    pub fn begin_cycle(&mut self) {
        self.budget = self.cfg.sa_ops_per_cycle;
        // Drain the last stage into the rings, respecting per-queue depth
        // and the port budget, in FIFO order with head-of-line blocking.
        let last = self.stages.len() - 1;
        while self.budget > 0 {
            let Some(&(q, _)) = self.stages[last].front() else {
                break;
            };
            let ring = self.rings.or_default(q.index());
            if ring.len() >= self.cfg.queue_depth as usize {
                break; // head-of-line blocked on a full ring
            }
            let (_, v) = self.stages[last].pop_front().expect("front checked");
            ring.push_back(v);
            self.delivered += 1;
            self.budget -= 1;
        }
        // Advance earlier stages towards the array.
        for i in (0..last).rev() {
            while self.stages[i + 1].len() < self.cfg.sa_ops_per_cycle as usize {
                match self.stages[i].pop_front() {
                    Some(item) => self.stages[i + 1].push_back(item),
                    None => break,
                }
            }
        }
    }

    /// Producer-side injection. Returns false when the first network
    /// stage is full (back-pressure reached the producer).
    pub fn try_inject(&mut self, q: QueueId, value: u64) -> bool {
        if self.stages[0].len() >= self.cfg.sa_ops_per_cycle as usize {
            return false;
        }
        self.stages[0].push_back((q, value));
        self.injected += 1;
        true
    }

    /// Consumer-side read: pops the oldest value of `q` if present and an
    /// array port is available this cycle.
    pub fn try_consume(&mut self, q: QueueId) -> Option<u64> {
        if self.budget == 0 {
            return None;
        }
        let v = self.rings.get_mut(q.index())?.pop_front()?;
        self.budget -= 1;
        Some(v)
    }

    /// Items buffered in `q`'s ring.
    pub fn occupancy(&self, q: QueueId) -> usize {
        self.rings.get(q.index()).map_or(0, VecDeque::len)
    }

    /// Items anywhere in the network.
    pub fn in_network(&self) -> usize {
        self.stages.iter().map(VecDeque::len).sum()
    }

    /// Whether the network and every ring are empty.
    pub fn is_empty(&self) -> bool {
        self.in_network() == 0 && self.rings.values().all(VecDeque::is_empty)
    }

    /// Total items injected.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Total items delivered into rings.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Array ports still unused this cycle.
    pub fn budget_left(&self) -> u32 {
        self.budget
    }

    /// Test aid: silently discards one in-flight network item, simulating
    /// a lost-item hardware fault. Returns whether anything was dropped.
    /// The injected/delivered counters are *not* adjusted, so the machine
    /// checker's conservation audit must flag the discrepancy.
    pub fn lose_one_in_network(&mut self) -> bool {
        for stage in &mut self.stages {
            if stage.pop_front().is_some() {
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sa(transit: u64, queue_depth: u32) -> SyncArray {
        SyncArray::new(HeavyWtConfig {
            queue_depth,
            transit,
            ..HeavyWtConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn transit_sets_delivery_delay() {
        let mut a = sa(3, 32);
        assert!(a.try_inject(QueueId(0), 7));
        // After 1 and 2 cycles: still in the network.
        a.begin_cycle();
        assert_eq!(a.try_consume(QueueId(0)), None);
        a.begin_cycle();
        assert_eq!(a.try_consume(QueueId(0)), None);
        // Third cycle: delivered.
        a.begin_cycle();
        assert_eq!(a.try_consume(QueueId(0)), Some(7));
    }

    #[test]
    fn fifo_order_is_preserved() {
        let mut a = sa(1, 32);
        for i in 0..4 {
            assert!(a.try_inject(QueueId(0), i));
        }
        // Cycle 1: the four arrivals consume the whole port budget.
        a.begin_cycle();
        assert_eq!(a.try_consume(QueueId(0)), None);
        // Cycle 2: a fresh budget serves the consumes in FIFO order.
        a.begin_cycle();
        for i in 0..4 {
            assert_eq!(a.try_consume(QueueId(0)), Some(i));
        }
    }

    #[test]
    fn ports_cap_consumes_per_cycle() {
        let mut a = sa(1, 32);
        for i in 0..8 {
            let _ = a.try_inject(QueueId(0), i);
        }
        a.begin_cycle(); // delivers up to 4 (port budget)
        a.begin_cycle(); // delivers the rest; fresh budget of 4
        let mut got = 0;
        while a.try_consume(QueueId(0)).is_some() {
            got += 1;
        }
        assert_eq!(got, 4, "port budget limits consumes per cycle");
    }

    #[test]
    fn full_ring_backpressures_into_network() {
        let mut a = sa(2, 4);
        // Fill ring (4) + network (2 stages x 4) + reject beyond.
        let mut accepted = 0;
        for i in 0..64 {
            a.begin_cycle();
            // Never consume: everything backs up.
            while a.try_inject(QueueId(0), i) {
                accepted += 1;
            }
        }
        assert_eq!(a.occupancy(QueueId(0)), 4);
        assert_eq!(a.in_network(), 8);
        assert_eq!(accepted, 12, "capacity = ring + network stages");
        // Consuming one frees space that propagates back.
        a.begin_cycle();
        assert!(a.try_consume(QueueId(0)).is_some());
        a.begin_cycle(); // bubble moves into the network
        assert!(a.try_inject(QueueId(0), 99), "freed slot reaches producer");
    }

    #[test]
    fn queues_do_not_interfere_when_draining() {
        let mut a = sa(1, 32);
        a.try_inject(QueueId(0), 1);
        a.try_inject(QueueId(1), 2);
        a.begin_cycle();
        assert_eq!(a.try_consume(QueueId(1)), Some(2));
        assert_eq!(a.try_consume(QueueId(0)), Some(1));
        assert!(a.is_empty());
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(SyncArray::new(HeavyWtConfig {
            queue_depth: 0,
            ..HeavyWtConfig::default()
        })
        .is_err());
    }

    #[test]
    fn stats_count() {
        let mut a = sa(1, 2);
        a.try_inject(QueueId(0), 0);
        a.begin_cycle();
        assert_eq!(a.injected(), 1);
        assert_eq!(a.delivered(), 1);
    }
}
