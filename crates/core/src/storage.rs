//! Hardware-storage and OS-context cost accounting (§3.4–§3.5, §6).
//!
//! The paper's closing claim is that SYNCOPTI+SC achieves 98% of
//! HEAVYWT's speedup "while using only 1% of the additional on-chip
//! storage hardware". This module makes that comparison computable: for
//! each design point it reports the dedicated storage added to the CMP
//! and the architectural state the OS must save and restore on a context
//! switch (the hidden cost that §3.4.2/§3.5.2 charge against dedicated
//! designs).

use crate::addr_map::ARCH_QUEUES;
use crate::design::{DesignPoint, Mechanism};

/// Queue datum size in bytes.
const ENTRY_BYTES: u64 = 8;
/// Bytes per hardware occupancy counter (enough for depth 64).
const COUNTER_BYTES: u64 = 2;
/// Cores sharing the streaming hardware in the evaluated CMP.
const CORES: u64 = 2;

/// Storage/OS cost summary for one design point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StorageCost {
    /// Dedicated on-chip storage added to the CMP, in bytes (backing
    /// stores, stream caches, occupancy counters, dedicated-network
    /// buffers). Excludes the ordinary caches, which every design shares.
    pub added_storage_bytes: u64,
    /// Architectural streaming state the OS must context-switch, in
    /// bytes. Memory-backed designs keep queue *data* in ordinary pages
    /// (switched with the address space for free); dedicated stores make
    /// the whole backing store plus in-flight network data part of the
    /// process context (§3.5.2/§3.5.3).
    pub os_context_bytes: u64,
    /// Whether the design needs new interconnect fabric beyond the
    /// existing memory network (§3.2).
    pub needs_new_interconnect: bool,
}

/// Computes the cost summary for `design`.
///
/// # Example
///
/// ```
/// use hfs_core::storage::storage_cost;
/// use hfs_core::DesignPoint;
///
/// let sw = storage_cost(&DesignPoint::existing());
/// let hw = storage_cost(&DesignPoint::heavywt());
/// assert_eq!(sw.added_storage_bytes, 0);
/// assert!(hw.added_storage_bytes > 1000 * sw.added_storage_bytes.max(1));
/// ```
pub fn storage_cost(design: &DesignPoint) -> StorageCost {
    let counters = ARCH_QUEUES * COUNTER_BYTES * CORES;
    match design.mechanism() {
        // Software queues add no hardware: queue state lives in ordinary
        // memory and thread-local registers. MEMOPTI adds only the
        // write-forward parameterization in the cache controller (a few
        // configuration registers).
        Mechanism::Software(_) => StorageCost {
            added_storage_bytes: if design.write_forwards() { 16 } else { 0 },
            os_context_bytes: 0,
            needs_new_interconnect: false,
        },
        // SYNCOPTI adds replicated per-queue occupancy counters at each
        // core's L2 controller, plus the optional 1 KB stream cache; the
        // counters are the only new OS context (§4.1: "OS support to
        // context switch the synchronization counters").
        Mechanism::SyncOpti(c) => StorageCost {
            added_storage_bytes: counters + if c.stream_cache { 1024 } else { 0 },
            os_context_bytes: counters,
            needs_new_interconnect: false,
        },
        // Dedicated hardware (HEAVYWT, and REGMAPPED on top of it, whose
        // remapped register space is architectural state by definition)
        // adds the distributed queue backing store (per-core so any core
        // can consume), occupancy counters at both ends, and a dedicated
        // interconnect whose in-flight buffers are also process state
        // (§3.5.3).
        Mechanism::Dedicated(h) => {
            let backing = ARCH_QUEUES * u64::from(h.queue_depth) * ENTRY_BYTES * CORES;
            let network = h.transit * u64::from(h.sa_ops_per_cycle) * ENTRY_BYTES;
            StorageCost {
                added_storage_bytes: backing + counters + network,
                os_context_bytes: backing + counters + network,
                needs_new_interconnect: true,
            }
        }
    }
}

/// The §6 headline: the proposed design's added storage as a fraction of
/// HEAVYWT's.
pub fn sc_q64_storage_fraction() -> f64 {
    let sc = storage_cost(&DesignPoint::syncopti_sc_q64());
    let hw = storage_cost(&DesignPoint::heavywt());
    sc.added_storage_bytes as f64 / hw.added_storage_bytes as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn software_designs_add_nothing() {
        let c = storage_cost(&DesignPoint::existing());
        assert_eq!(c.added_storage_bytes, 0);
        assert_eq!(c.os_context_bytes, 0);
        assert!(!c.needs_new_interconnect);
        assert!(storage_cost(&DesignPoint::memopti()).added_storage_bytes < 64);
    }

    #[test]
    fn heavywt_storage_is_dominated_by_the_backing_store() {
        let c = storage_cost(&DesignPoint::heavywt());
        // 64 queues x 32 entries x 8 B x 2 cores = 32 KiB of backing.
        assert!(c.added_storage_bytes >= 32 * 1024);
        assert!(c.needs_new_interconnect);
        assert_eq!(c.os_context_bytes, c.added_storage_bytes);
    }

    #[test]
    fn syncopti_context_is_counters_only() {
        let c = storage_cost(&DesignPoint::syncopti_sc_q64());
        assert_eq!(c.os_context_bytes, ARCH_QUEUES * 2 * 2);
        assert!(!c.needs_new_interconnect);
        // The stream cache dominates its added storage.
        assert!(c.added_storage_bytes >= 1024);
        assert!(c.added_storage_bytes < 2048);
    }

    #[test]
    fn paper_headline_one_percent_storage() {
        let f = sc_q64_storage_fraction();
        // Paper: "only 1% of the additional on-chip storage hardware".
        assert!(
            f < 0.05,
            "SC+Q64 should use a few percent of HEAVYWT's storage, got {:.1}%",
            f * 100.0
        );
    }

    #[test]
    fn regmapped_costs_at_least_heavywt() {
        let rm = storage_cost(&DesignPoint::regmapped(0));
        let hw = storage_cost(&DesignPoint::heavywt());
        assert!(rm.added_storage_bytes >= hw.added_storage_bytes);
    }
}
