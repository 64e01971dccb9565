//! Memory substrate for the `hfs` CMP simulator.
//!
//! Models the machine of Table 2 in the paper: per-core write-through L1D
//! caches, private write-back L2 caches with an ordered transaction queue
//! (OzQ — the Itanium 2 structure whose entries double as MSHRs), a shared
//! L3, fixed-latency DRAM, snoop-based coherence under a per-run
//! [`Protocol`] (write-invalidate MSI, the paper's baseline, or MESI, or
//! write-update Dragon), and a split-transaction pipelined shared bus with
//! round-robin arbitration and configurable width and clock divider.
//!
//! The crate is *timing-directed with functional backing*: a sparse
//! [`FuncMem`] holds 64-bit words; loads sample their value at the moment
//! the timing model services them, and stores update it when they perform
//! at the L2 (i.e. after ownership is acquired). Because a store can only
//! perform after remote copies are invalidated, value sampling is exact
//! for the single-writer flag protocol used by software queues.
//!
//! Streaming support hooks (used by `hfs-core` to build the paper's design
//! points):
//!
//! * *gated submissions* — produce/consume operations that wait dormant in
//!   an OzQ slot (no port recirculation) until released by occupancy
//!   counters (§4.2, SYNCOPTI),
//! * *line forwarding* — write-forward push of a streaming line from the
//!   producer's L2 into the consumer's L2 (§3.5.1),
//! * *control messages* — small bus messages for bulk occupancy ACKs,
//! * an event stream ([`MemEvent`]) reporting performed stores, fills,
//!   forwards, and evictions to the machine model.

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod bus;
mod cache;
pub mod config;
mod func;
mod l1;
mod l2;
mod l3;
mod msg;
mod protocol;
mod system;

pub use bus::BusStats;
pub use cache::{CacheArray, CacheGeometry, LineState, MAX_CACHE_LINES, MAX_LINE_BYTES};
pub use config::{BusConfig, MemConfig, Protocol};
pub use func::FuncMem;
pub use msg::{Completion, CtlPayload, MemEvent, MemToken, OpLocation, RejectReason};
pub use system::{MemOp, MemStats, MemSystem, Submit};
