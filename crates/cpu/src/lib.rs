//! In-order core model for the `hfs` CMP simulator.
//!
//! Models an Itanium-2-like core (Table 2): 6-issue in-order with 6
//! integer ALUs, 4 memory ports, 2 FP units, and 3 branch units. The core
//! pulls dynamic instructions from an [`hfs_isa::Sequencer`], tracks
//! register readiness with a scoreboard, sends memory operations to an
//! [`hfs_mem::MemSystem`], and routes `produce`/`consume` instructions to
//! a design-specific [`StreamPort`] implemented by the machine model in
//! `hfs-core`.
//!
//! Every cycle with no commit is charged to the paper's Figure 7 stall
//! component determined by where the oldest in-flight instruction
//! currently is (PreL2 / L2 / BUS / L3 / MEM / PostL2).

#![deny(missing_docs)]
#![deny(unsafe_code)]

mod config;
mod core_model;
mod port;

pub use config::{CoreConfig, MAX_ISSUE_WIDTH, MAX_WINDOW};
pub use core_model::{Core, CoreStats};
pub use port::{NullStreamPort, StreamCompletion, StreamPort, StreamSubmit, StreamToken};
