//! High-frequency streaming support for CMPs — the design space of
//! Rangan et al., *Support for High-Frequency Streaming in CMPs*
//! (MICRO 2006), as an executable cycle-level model.
//!
//! The paper studies how producer/consumer thread pipelines (created by
//! DSWP or StreamIt-style parallelization) should communicate on a chip
//! multiprocessor. This crate implements the four evaluated design points
//! plus the proposed optimizations:
//!
//! * **EXISTING** — software queues in shared memory: ~10 instructions per
//!   communication (spin on a full/empty flag, fence, pointer update),
//!   coherence ping-pong on flag lines ([`DesignPoint::Existing`]);
//! * **MEMOPTI** — EXISTING plus write-forwarding: the producer's L2
//!   pushes a streaming line to the consumer's L2 once every queue entry
//!   on it has been written ([`DesignPoint::MemOpti`]);
//! * **SYNCOPTI** — `produce`/`consume` ISA instructions renamed to
//!   stream addresses, per-queue occupancy counters at the L2 controllers,
//!   bulk ACKs on the shared bus, dormant (non-recirculating) OzQ waiting,
//!   and optionally a 1 KB fully-associative stream cache and a 64-entry
//!   queue with QLU 16 ([`DesignPoint::SyncOpti`]);
//! * **HEAVYWT** — a dedicated distributed queue backing store
//!   (synchronization array) at the consumer with a dedicated pipelined
//!   interconnect ([`DesignPoint::HeavyWt`]).
//!
//! Workloads are written as abstract [`kernel::KernelPair`]s; [`lower`]
//! translates them into per-design ISA programs; [`machine::Machine`]
//! assembles cores, memory system, and streaming hardware and runs the
//! simulation to completion, producing a [`machine::RunResult`] with the
//! paper's Figure 7 stall breakdown.
//!
//! # Quickstart
//!
//! ```
//! use hfs_core::{DesignPoint, Machine, MachineConfig};
//! use hfs_core::kernel::KernelPair;
//!
//! // A tiny pipeline: 4 ALU ops + one produce per iteration.
//! let pair = KernelPair::simple("demo", 4, 200);
//! let cfg = MachineConfig::itanium2_cmp(DesignPoint::heavywt());
//! let mut machine = Machine::new_pipeline(&cfg, &pair).unwrap();
//! let result = machine.run(1_000_000).unwrap();
//! assert_eq!(result.iterations, 200);
//! ```

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod addr_map;
pub mod analytic;
mod backend;
mod config;
mod design;
pub mod kernel;
pub mod lower;
mod machine;
mod queues;
pub mod storage;
mod stream_cache;
mod sync_array;

pub use config::MachineConfig;
pub use design::{DesignPoint, HeavyWtConfig, RegMappedConfig, SoftwareConfig, SyncOptiConfig};
pub use hfs_check::{CheckLevel, Checker, Mutation, Violation};
pub use machine::{FastForwardStats, Machine, RunResult, SchedMode, SchedStats, SimError};
pub use queues::QueueCheck;
pub use stream_cache::StreamCache;
pub use sync_array::{SyncArray, SyncArrayConfig};
