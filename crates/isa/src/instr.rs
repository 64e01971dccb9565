//! The instruction template and dynamic instruction model.

use std::fmt;

use crate::addr::{Addr, AddrPattern};
use crate::ids::{QueueId, Reg};

/// Functional-unit class an instruction executes on, mirroring the
/// Itanium 2 mix of Table 2 (6 ALU, 4 memory ports, 2 FP, 3 branch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FuClass {
    /// Integer ALU.
    IntAlu,
    /// Floating-point unit.
    Fp,
    /// Branch unit.
    Branch,
    /// Memory port (loads, stores, produce/consume data movement).
    Mem,
}

impl FuClass {
    /// Execution latency in cycles for register-to-register operations.
    /// Memory-class latency is determined by the memory system instead.
    pub fn latency(self) -> u64 {
        match self {
            FuClass::IntAlu => 1,
            FuClass::Fp => 4,
            FuClass::Branch => 1,
            FuClass::Mem => 1,
        }
    }
}

/// Whether an instruction is part of the application's own work or part of
/// the communication/synchronization overhead — the distinction plotted in
/// Figure 8 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InstrKind {
    /// Application work.
    App,
    /// Communication or synchronization overhead (COMM-OP instructions).
    Comm,
}

/// The value a store template writes; evaluated by the sequencer into a
/// concrete 64-bit value at expansion time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreValue {
    /// An uninterpreted value (application data); stored as 0.
    Opaque,
    /// The next payload of the given queue: the per-queue produce counter,
    /// so FIFO order can be verified end to end.
    QueuePayload(QueueId),
    /// A full/empty flag value: 1 when `true` (full), 0 when `false`.
    Flag(bool),
}

/// An instruction template: one static instruction inside a loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InstrTemplate {
    /// Operation performed.
    pub op: Op,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Source registers (up to two).
    pub srcs: [Option<Reg>; 2],
    /// Application work or communication overhead.
    pub kind: InstrKind,
}

impl InstrTemplate {
    /// Creates a template with no register operands.
    pub fn new(op: Op, kind: InstrKind) -> Self {
        InstrTemplate {
            op,
            dest: None,
            srcs: [None, None],
            kind,
        }
    }

    /// Sets the destination register (builder style).
    #[must_use]
    pub fn dest(mut self, r: Reg) -> Self {
        self.dest = Some(r);
        self
    }

    /// Sets one or two source registers (builder style).
    #[must_use]
    pub fn srcs(mut self, a: Option<Reg>, b: Option<Reg>) -> Self {
        self.srcs = [a, b];
        self
    }
}

/// A static operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Integer ALU operation (1-cycle).
    IntAlu,
    /// Floating-point operation (4-cycle).
    FpAlu,
    /// Branch (control only; direction handled by the sequencer).
    Branch,
    /// Load from memory.
    Load(AddrPattern),
    /// Store to memory.
    Store(AddrPattern, StoreValue),
    /// Release store (`st.rel`): performs only after all earlier memory
    /// operations from this core (software-queue flag publication).
    StoreRelease(AddrPattern, StoreValue),
    /// ISA `produce` instruction (§3.1.2): enqueue one datum on a stream
    /// queue. Blocks (dormant) while the queue is full.
    Produce(QueueId),
    /// ISA `consume` instruction (§3.1.2): dequeue one datum from a stream
    /// queue. Blocks (dormant) while the queue is empty.
    Consume(QueueId),
}

/// A dynamic operation: an [`Op`] with its address/value operands resolved
/// by the sequencer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynOp {
    /// Integer ALU operation.
    IntAlu,
    /// Floating-point operation.
    FpAlu,
    /// Branch.
    Branch,
    /// Load from a concrete address. `spin` carries the token the core
    /// must use to deliver the loaded value back to the sequencer when
    /// this load is part of a spin-synchronization sequence.
    Load {
        /// Concrete byte address.
        addr: Addr,
        /// Set when the sequencer needs the loaded value to resolve a spin.
        spin: Option<crate::seq::SpinToken>,
    },
    /// Store of a concrete value to a concrete address.
    Store {
        /// Concrete byte address.
        addr: Addr,
        /// Concrete 64-bit value written.
        value: u64,
        /// Release-store ordering (`st.rel`).
        release: bool,
    },
    /// ISA produce of a concrete payload.
    Produce {
        /// Queue written.
        q: QueueId,
        /// Payload (the queue's produce sequence number).
        value: u64,
    },
    /// ISA consume.
    Consume {
        /// Queue read.
        q: QueueId,
    },
}

impl DynOp {
    /// The functional-unit class of the dynamic operation.
    pub fn fu_class(&self) -> FuClass {
        match self {
            DynOp::IntAlu => FuClass::IntAlu,
            DynOp::FpAlu => FuClass::Fp,
            DynOp::Branch => FuClass::Branch,
            DynOp::Load { .. }
            | DynOp::Store { .. }
            | DynOp::Produce { .. }
            | DynOp::Consume { .. } => FuClass::Mem,
        }
    }
}

/// One dynamic instruction, produced by the sequencer and executed by the
/// core model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DynInstr {
    /// Resolved operation.
    pub op: DynOp,
    /// Destination register, if any.
    pub dest: Option<Reg>,
    /// Source registers.
    pub srcs: [Option<Reg>; 2],
    /// Application work or communication overhead.
    pub kind: InstrKind,
}

impl fmt::Display for DynInstr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?} {:?}", self.kind, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fu_classes() {
        assert_eq!(DynOp::IntAlu.fu_class(), FuClass::IntAlu);
        assert_eq!(DynOp::FpAlu.fu_class(), FuClass::Fp);
        assert_eq!(DynOp::Branch.fu_class(), FuClass::Branch);
        assert_eq!(
            DynOp::Load {
                addr: Addr::new(0),
                spin: None
            }
            .fu_class(),
            FuClass::Mem
        );
        assert_eq!(
            DynOp::Produce {
                q: QueueId(0),
                value: 0
            }
            .fu_class(),
            FuClass::Mem
        );
    }

    #[test]
    fn fu_latencies() {
        assert_eq!(FuClass::IntAlu.latency(), 1);
        assert_eq!(FuClass::Fp.latency(), 4);
        assert_eq!(FuClass::Branch.latency(), 1);
    }

    #[test]
    fn template_builders() {
        let t = InstrTemplate::new(Op::IntAlu, InstrKind::App)
            .dest(Reg(3))
            .srcs(Some(Reg(1)), Some(Reg(2)));
        assert_eq!(t.dest, Some(Reg(3)));
        assert_eq!(t.srcs, [Some(Reg(1)), Some(Reg(2))]);
        assert_eq!(t.kind, InstrKind::App);
    }

    #[test]
    fn dyn_instr_display() {
        let d = DynInstr {
            op: DynOp::IntAlu,
            dest: None,
            srcs: [None, None],
            kind: InstrKind::App,
        };
        assert_eq!(d.to_string(), "App IntAlu");
    }

    /// The core reads the sequencer's lookahead in place on every issue.
    /// Dropping the unread sequence number and a niche in `SpinToken`
    /// took it from 48 to 32 bytes; a new field is a measured decision.
    #[test]
    fn dyn_instr_fits_32_bytes() {
        assert!(std::mem::size_of::<DynInstr>() <= 32);
        assert_eq!(std::mem::size_of::<Option<crate::SpinToken>>(), 8);
    }
}
