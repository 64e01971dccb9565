//! Instruction model and dynamic sequencing for the `hfs` CMP simulator.
//!
//! The paper's workloads are producer/consumer loop kernels. This crate
//! provides:
//!
//! * [`ids`] — typed identifiers for cores, queues, registers, and memory
//!   regions,
//! * [`instr`] — the small RISC-like instruction template model, including
//!   the `produce`/`consume` ISA extension of §3.1.2,
//! * [`addr`] — byte addresses, memory regions, and address-generation
//!   patterns (sequential streams, strided walks, working-set random),
//! * [`program`] — loop-nest programs built from instruction templates,
//!   spin-synchronization steps, and queue access plans,
//! * [`seq`] — the [`seq::Sequencer`], which expands a program into the
//!   dynamic instruction stream, resolving spin-loop control flow from the
//!   values returned by flag loads,
//! * [`builder`] — an ergonomic [`builder::ProgramBuilder`].
//!
//! Registers carry *timing* (dependences) only; the sole value-dependent
//! control flow is spin loops, which the sequencer resolves directly from
//! delivered load values. This keeps the core model simple while still
//! reproducing the coherence ping-pong that spin-based software queues
//! suffer (§3.4.1 of the paper).

#![deny(missing_docs)]
#![deny(unsafe_code)]

pub mod addr;
pub mod builder;
pub mod ids;
pub mod instr;
pub mod program;
pub mod seq;

pub use addr::{Addr, AddrPattern, Region};
pub use builder::ProgramBuilder;
pub use ids::{CoreId, QueueId, Reg, RegionId};
pub use instr::{DynInstr, DynOp, FuClass, InstrKind, InstrTemplate, Op, StoreValue};
pub use program::{Program, QueuePlan, Step};
pub use seq::{Sequencer, SpinToken, SPIN_REG};
