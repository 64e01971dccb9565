//! Dynamic instruction sequencing.
//!
//! A [`Sequencer`] compiles a [`Program`] into a small bytecode and expands
//! it on demand into [`DynInstr`]s. All control flow is resolved here:
//! counted loops from trip counts, and spin loops from the values the core
//! delivers for flag loads (via [`Sequencer::deliver_spin`]). The core
//! model stays oblivious to program structure — it just pulls instructions.

use std::collections::HashMap;
use std::num::NonZeroU64;

use hfs_sim::{DenseMap, Rng64};

use crate::addr::{Addr, AddrPattern};
use crate::ids::{QueueId, Reg, RegionId};
use crate::instr::{DynInstr, DynOp, InstrKind, InstrTemplate, Op, StoreValue};
use crate::program::{Program, QueueMemLayout, Step};

/// Identifies one spin attempt's flag load; the core passes it back with
/// the loaded value via [`Sequencer::deliver_spin`]. Tokens start at 1,
/// so `Option<SpinToken>` is as small as the token.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpinToken(pub NonZeroU64);

/// The register spin-flag loads write and spin branches read. Reserved by
/// convention; programs should not use it for application values.
pub const SPIN_REG: Reg = Reg(127);

/// Compiled bytecode step.
#[derive(Debug, Clone, Copy)]
enum CStep {
    Instr { site: usize, t: InstrTemplate },
    Spin { q: QueueId, until_full: bool },
    Advance(QueueId),
    LoopStart { count: u64 },
    LoopEnd { start: usize },
}

/// Sequencing state of one planned queue.
#[derive(Debug)]
struct QueueState {
    layout: Option<QueueMemLayout>,
    /// Thread-local head/tail slot index.
    slot: u32,
    /// Produce payload counter.
    payload: u64,
}

impl QueueState {
    fn layout(&self) -> &QueueMemLayout {
        self.layout.as_ref().expect("validated queue layout")
    }
}

/// Spin-expansion micro-state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SpinState {
    /// Not in a spin.
    Idle,
    /// Emitted the flag load; the spin branch comes next.
    EmitBranch { token: SpinToken },
    /// Both load and branch emitted; waiting for the load value.
    AwaitValue { token: SpinToken },
}

/// Expands a program into its dynamic instruction stream.
///
/// # Example
///
/// ```
/// use hfs_isa::{ProgramBuilder, Sequencer};
///
/// let prog = ProgramBuilder::new(3).alu_work(2).build();
/// let mut seq = Sequencer::new(&prog, &Default::default(), 1).unwrap();
/// let mut n = 0;
/// while seq.pop().is_some() {
///     n += 1;
/// }
/// assert_eq!(n, 6); // 2 ALU ops x 3 iterations
/// assert!(seq.finished());
/// ```
#[derive(Debug)]
pub struct Sequencer {
    code: Vec<CStep>,
    pc: usize,
    outer_remaining: u64,
    loop_counters: Vec<u64>,
    /// Per-site stream cursors (byte offsets).
    cursors: Vec<u64>,
    /// Base address and size of each region, by region id.
    regions: DenseMap<(Addr, u64)>,
    /// State of each planned queue, by queue id.
    queues: DenseMap<QueueState>,
    spin: SpinState,
    spin_until_full: bool,
    /// A flag value delivered before the spin branch was generated
    /// (the core can resolve a flag load faster than it fetches the
    /// following branch); applied when the spin reaches `AwaitValue`.
    spin_value_early: Option<(SpinToken, u64)>,
    next_token: NonZeroU64,
    iterations_done: u64,
    finished: bool,
    /// Buffered next instruction for peek/pop.
    lookahead: Option<DynInstr>,
    rng: Rng64,
}

impl Sequencer {
    /// Creates a sequencer for `program`, with region base addresses
    /// assigned by `region_bases` and deterministic randomness from
    /// `seed`.
    ///
    /// # Errors
    ///
    /// Returns a [`hfs_sim::ConfigError`] if the program fails
    /// [`Program::validate`] or a referenced region has no base address.
    pub fn new(
        program: &Program,
        region_bases: &HashMap<RegionId, Addr>,
        seed: u64,
    ) -> Result<Self, hfs_sim::ConfigError> {
        program.validate()?;
        let mut regions = DenseMap::new();
        for r in &program.regions {
            let Some(&base) = region_bases.get(&r.id) else {
                return Err(hfs_sim::ConfigError::new(format!(
                    "no base address assigned for region {} ({})",
                    r.id, r.name
                )));
            };
            regions.insert(r.id.index(), (base, r.bytes));
        }
        let mut queues = DenseMap::new();
        for qp in &program.queues {
            let state = QueueState {
                layout: qp.layout,
                slot: 0,
                payload: 0,
            };
            queues.insert(qp.q.index(), state);
        }
        let mut code = Vec::new();
        let mut sites = 0usize;
        compile(&program.body, &mut code, &mut sites);
        Ok(Sequencer {
            code,
            pc: 0,
            outer_remaining: program.iterations,
            loop_counters: Vec::new(),
            cursors: vec![0; sites],
            regions,
            queues,
            spin: SpinState::Idle,
            spin_until_full: false,
            spin_value_early: None,
            next_token: NonZeroU64::MIN,
            iterations_done: 0,
            finished: program.iterations == 0,
            lookahead: None,
            rng: Rng64::new(seed),
        })
    }

    /// Whether the program has run to completion.
    pub fn finished(&self) -> bool {
        self.finished && self.lookahead.is_none()
    }

    /// Outer-loop iterations completed so far.
    pub fn iterations_completed(&self) -> u64 {
        self.iterations_done
    }

    /// The next instruction, if one is available without further input.
    /// Returns `None` when finished **or** when blocked awaiting a spin
    /// value (distinguish with [`Sequencer::finished`]).
    #[inline]
    pub fn peek(&mut self) -> Option<&DynInstr> {
        if self.lookahead.is_none() {
            self.lookahead = self.generate();
        }
        self.lookahead.as_ref()
    }

    /// Consumes and returns the next instruction.
    #[inline]
    pub fn pop(&mut self) -> Option<DynInstr> {
        match self.lookahead.take() {
            Some(i) => Some(i),
            None => self.generate(),
        }
    }

    /// Consumes the instruction the last [`Sequencer::peek`] returned,
    /// for a caller that has read what it needs from it in place.
    #[inline]
    pub fn skip(&mut self) {
        debug_assert!(
            self.lookahead.is_some(),
            "skip without a peeked instruction"
        );
        self.lookahead = None;
    }

    /// Delivers the value loaded by the spin flag load identified by
    /// `token`. Unblocks the sequencer: either the spin exits or another
    /// load/branch attempt is emitted.
    ///
    /// Tokens from superseded attempts are ignored, which lets the core
    /// deliver completions in any order safely.
    pub fn deliver_spin(&mut self, token: SpinToken, value: u64) {
        match self.spin {
            SpinState::AwaitValue { token: want } if want == token => {
                self.resolve_spin(value);
            }
            SpinState::EmitBranch { token: want } if want == token => {
                // The value beat the branch generation; hold it until the
                // spin reaches `AwaitValue`.
                self.spin_value_early = Some((token, value));
            }
            _ => {}
        }
    }

    /// Applies a delivered flag value: exits the spin or re-enters the
    /// Spin step (pc was not advanced) to emit a fresh load/branch pair.
    fn resolve_spin(&mut self, value: u64) {
        let full = value != 0;
        self.spin = SpinState::Idle;
        if full == self.spin_until_full {
            self.pc += 1;
        }
    }

    /// Advances the bytecode VM until an instruction is produced, the
    /// sequencer blocks on a spin value, or the program finishes.
    ///
    /// Inlined into its two callers (as `expand` is into it) so the
    /// instruction is assembled field by field where it ends up — the
    /// lookahead slot, or `pop`'s return value. Handed on by value, each
    /// hop re-reads with wide loads what was just written with narrow
    /// stores, which stalls the host pipeline for longer than the whole
    /// step otherwise takes.
    #[inline(always)]
    fn generate(&mut self) -> Option<DynInstr> {
        loop {
            if self.finished {
                return None;
            }
            // Mid-spin handling takes priority over the pc.
            match self.spin {
                SpinState::EmitBranch { token } => {
                    self.spin = SpinState::AwaitValue { token };
                    return Some(DynInstr {
                        op: DynOp::Branch,
                        dest: None,
                        srcs: [Some(SPIN_REG), None],
                        kind: InstrKind::Comm,
                    });
                }
                SpinState::AwaitValue { token } => {
                    // A value may have arrived while the branch was still
                    // being generated.
                    match self.spin_value_early.take() {
                        Some((t, v)) if t == token => {
                            self.resolve_spin(v);
                            continue;
                        }
                        _ => return None, // blocked
                    }
                }
                SpinState::Idle => {}
            }
            if self.pc >= self.code.len() {
                // Outer iteration boundary.
                self.iterations_done += 1;
                self.outer_remaining -= 1;
                self.pc = 0;
                if self.outer_remaining == 0 {
                    self.finished = true;
                    return None;
                }
                continue;
            }
            match self.code[self.pc] {
                CStep::Instr { site, t } => {
                    self.pc += 1;
                    return Some(self.expand(site, &t));
                }
                CStep::Spin { q, until_full } => {
                    // Emit the flag load; the branch and the wait follow.
                    self.spin_until_full = until_full;
                    let token = SpinToken(self.next_token);
                    self.next_token = self.next_token.checked_add(1).expect("< 2^64 spins");
                    self.spin = SpinState::EmitBranch { token };
                    return Some(DynInstr {
                        op: DynOp::Load {
                            addr: self.queue_flag_addr(q),
                            spin: Some(token),
                        },
                        dest: Some(SPIN_REG),
                        srcs: [None, None],
                        kind: InstrKind::Comm,
                    });
                }
                CStep::Advance(q) => {
                    self.pc += 1;
                    let qs = self.queue_mut(q);
                    // `slot < depth`, so this is `(slot + 1) % depth`.
                    qs.slot = if qs.slot + 1 == qs.layout().depth {
                        0
                    } else {
                        qs.slot + 1
                    };
                    return Some(DynInstr {
                        op: DynOp::IntAlu,
                        dest: None,
                        srcs: [None, None],
                        kind: InstrKind::Comm,
                    });
                }
                CStep::LoopStart { count } => {
                    self.loop_counters.push(count);
                    self.pc += 1;
                }
                CStep::LoopEnd { start } => {
                    let c = self
                        .loop_counters
                        .last_mut()
                        .expect("loop counter underflow");
                    *c -= 1;
                    if *c == 0 {
                        self.loop_counters.pop();
                        self.pc += 1;
                    } else {
                        self.pc = start + 1;
                    }
                }
            }
        }
    }

    #[inline(always)]
    fn expand(&mut self, site: usize, t: &InstrTemplate) -> DynInstr {
        let op = match &t.op {
            Op::IntAlu => DynOp::IntAlu,
            Op::FpAlu => DynOp::FpAlu,
            Op::Branch => DynOp::Branch,
            Op::Load(p) => DynOp::Load {
                addr: self.gen_addr(site, *p),
                spin: None,
            },
            Op::Store(p, v) => {
                let addr = self.gen_addr(site, *p);
                let value = self.store_value(*v);
                DynOp::Store {
                    addr,
                    value,
                    release: false,
                }
            }
            Op::StoreRelease(p, v) => {
                let addr = self.gen_addr(site, *p);
                let value = self.store_value(*v);
                DynOp::Store {
                    addr,
                    value,
                    release: true,
                }
            }
            Op::Produce(q) => {
                let value = self.next_payload(*q);
                DynOp::Produce { q: *q, value }
            }
            Op::Consume(q) => DynOp::Consume { q: *q },
        };
        DynInstr {
            op,
            dest: t.dest,
            srcs: t.srcs,
            kind: t.kind,
        }
    }

    fn store_value(&mut self, v: StoreValue) -> u64 {
        match v {
            StoreValue::Opaque => 0,
            StoreValue::Flag(full) => u64::from(full),
            StoreValue::QueuePayload(q) => self.next_payload(q),
        }
    }

    fn next_payload(&mut self, q: QueueId) -> u64 {
        let c = &mut self.queue_mut(q).payload;
        let v = *c;
        *c += 1;
        v
    }

    fn gen_addr(&mut self, site: usize, p: AddrPattern) -> Addr {
        match p {
            AddrPattern::Stream { region, stride } => {
                let (base, size) = self.region(region);
                let cur = &mut self.cursors[site];
                let a = base + *cur;
                let next = *cur + stride;
                *cur = if next < size { next } else { next % size };
                a
            }
            AddrPattern::Random { region } => {
                let (base, size) = self.region(region);
                // 8-byte aligned uniform offset.
                let words = (size / 8).max(1);
                base + self.rng.below(words) * 8
            }
            AddrPattern::QueueData { q } => {
                let qs = self.queue(q);
                qs.layout().data_addr(qs.slot)
            }
            AddrPattern::QueueFlag { q } => self.queue_flag_addr(q),
        }
    }

    fn queue_flag_addr(&self, q: QueueId) -> Addr {
        let qs = self.queue(q);
        qs.layout().flag_addr(qs.slot)
    }

    fn region(&self, id: RegionId) -> (Addr, u64) {
        *self.regions.get(id.index()).expect("validated region")
    }

    fn queue(&self, q: QueueId) -> &QueueState {
        self.queues.get(q.index()).expect("validated queue")
    }

    fn queue_mut(&mut self, q: QueueId) -> &mut QueueState {
        self.queues.get_mut(q.index()).expect("validated queue")
    }

    /// The current slot index this thread would access next on `q`.
    pub fn current_slot(&self, q: QueueId) -> Option<u32> {
        self.queues.get(q.index()).map(|qs| qs.slot)
    }
}

fn compile(steps: &[Step], out: &mut Vec<CStep>, sites: &mut usize) {
    for s in steps {
        match s {
            Step::Instr(t) => {
                out.push(CStep::Instr {
                    site: *sites,
                    t: *t,
                });
                *sites += 1;
            }
            Step::Spin { q, until_full } => out.push(CStep::Spin {
                q: *q,
                until_full: *until_full,
            }),
            Step::AdvanceQueue(q) => out.push(CStep::Advance(*q)),
            Step::Loop { body, count } => {
                let start = out.len();
                out.push(CStep::LoopStart { count: *count });
                compile(body, out, sites);
                out.push(CStep::LoopEnd { start });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::Region;
    use crate::program::QueuePlan;

    fn alu(kind: InstrKind) -> Step {
        Step::Instr(InstrTemplate::new(Op::IntAlu, kind))
    }

    fn bases() -> HashMap<RegionId, Addr> {
        let mut m = HashMap::new();
        m.insert(RegionId(0), Addr::new(0x10000));
        m
    }

    #[test]
    fn expands_flat_body_times_iterations() {
        let p = Program {
            regions: vec![],
            queues: vec![],
            body: vec![alu(InstrKind::App), alu(InstrKind::App)],
            iterations: 3,
        };
        let mut s = Sequencer::new(&p, &HashMap::new(), 0).unwrap();
        let kinds: Vec<InstrKind> = std::iter::from_fn(|| s.pop()).map(|d| d.kind).collect();
        assert_eq!(kinds, vec![InstrKind::App; 6]);
        assert!(s.finished());
        assert_eq!(s.iterations_completed(), 3);
    }

    #[test]
    fn inner_loops_multiply() {
        let p = Program {
            regions: vec![],
            queues: vec![],
            body: vec![
                alu(InstrKind::App),
                Step::Loop {
                    body: vec![alu(InstrKind::App)],
                    count: 4,
                },
            ],
            iterations: 2,
        };
        let mut s = Sequencer::new(&p, &HashMap::new(), 0).unwrap();
        let mut n = 0;
        while s.pop().is_some() {
            n += 1;
        }
        assert_eq!(n, 2 * (1 + 4));
    }

    #[test]
    fn stream_pattern_advances_and_wraps() {
        let p = Program {
            regions: vec![Region::new(RegionId(0), "a", 32)],
            queues: vec![],
            body: vec![Step::Instr(InstrTemplate::new(
                Op::Load(AddrPattern::Stream {
                    region: RegionId(0),
                    stride: 16,
                }),
                InstrKind::App,
            ))],
            iterations: 3,
        };
        let mut s = Sequencer::new(&p, &bases(), 0).unwrap();
        let addrs: Vec<u64> = std::iter::from_fn(|| s.pop())
            .map(|d| match d.op {
                DynOp::Load { addr, .. } => addr.as_u64(),
                _ => panic!("expected load"),
            })
            .collect();
        assert_eq!(addrs, vec![0x10000, 0x10010, 0x10000]);
    }

    #[test]
    fn missing_region_base_is_an_error() {
        let p = Program {
            regions: vec![Region::new(RegionId(0), "a", 32)],
            queues: vec![],
            body: vec![alu(InstrKind::App)],
            iterations: 1,
        };
        assert!(Sequencer::new(&p, &HashMap::new(), 0).is_err());
    }

    fn spin_program(until_full: bool) -> Program {
        Program {
            regions: vec![],
            queues: vec![QueuePlan {
                q: QueueId(0),
                layout: Some(QueueMemLayout {
                    base: Addr::new(0x8000),
                    depth: 4,
                    qlu: 8,
                    stride: 16,
                    flag_offset: Some(8),
                }),
            }],
            body: vec![
                Step::Spin {
                    q: QueueId(0),
                    until_full,
                },
                Step::AdvanceQueue(QueueId(0)),
            ],
            iterations: 2,
        }
    }

    #[test]
    fn spin_blocks_until_value_delivered() {
        let mut s = Sequencer::new(&spin_program(false), &HashMap::new(), 0).unwrap();
        // First: flag load carrying a token.
        let load = s.pop().unwrap();
        let token = match load.op {
            DynOp::Load {
                spin: Some(t),
                addr,
            } => {
                assert_eq!(addr, Addr::new(0x8008));
                t
            }
            other => panic!("expected spin load, got {other:?}"),
        };
        // Then the spin branch.
        let br = s.pop().unwrap();
        assert_eq!(br.op, DynOp::Branch);
        // Now blocked.
        assert!(s.pop().is_none());
        assert!(!s.finished());
        // Flag reads 1 (full) but we want empty: retry emitted.
        s.deliver_spin(token, 1);
        let retry = s.pop().unwrap();
        let token2 = match retry.op {
            DynOp::Load { spin: Some(t), .. } => t,
            other => panic!("expected retry load, got {other:?}"),
        };
        assert_ne!(token, token2);
        let _br2 = s.pop().unwrap();
        assert!(s.pop().is_none());
        // Now the flag reads 0 (empty): spin exits, advance comes next.
        s.deliver_spin(token2, 0);
        let adv = s.pop().unwrap();
        assert_eq!(adv.op, DynOp::IntAlu);
        assert_eq!(adv.kind, InstrKind::Comm);
    }

    #[test]
    fn stale_spin_token_is_ignored() {
        let mut s = Sequencer::new(&spin_program(true), &HashMap::new(), 0).unwrap();
        let load = s.pop().unwrap();
        let tok = match load.op {
            DynOp::Load { spin: Some(t), .. } => t,
            _ => unreachable!(),
        };
        let _ = s.pop(); // branch
        s.deliver_spin(SpinToken(tok.0.saturating_add(999)), 1); // bogus token
        assert!(s.pop().is_none()); // still blocked
        s.deliver_spin(tok, 1); // full, and we wait until_full
        assert!(s.pop().is_some());
    }

    #[test]
    fn advance_wraps_slot_index() {
        let p = spin_program(false);
        let mut s = Sequencer::new(&p, &HashMap::new(), 0).unwrap();
        assert_eq!(s.current_slot(QueueId(0)), Some(0));
        // Drive one full iteration: load, branch, deliver(0), advance.
        let load = s.pop().unwrap();
        let tok = match load.op {
            DynOp::Load { spin: Some(t), .. } => t,
            _ => unreachable!(),
        };
        let _ = s.pop();
        s.deliver_spin(tok, 0);
        let _adv = s.pop().unwrap();
        assert_eq!(s.current_slot(QueueId(0)), Some(1));
    }

    #[test]
    fn produce_payloads_count_up() {
        let p = Program {
            regions: vec![],
            queues: vec![QueuePlan {
                q: QueueId(3),
                layout: None,
            }],
            body: vec![Step::Instr(InstrTemplate::new(
                Op::Produce(QueueId(3)),
                InstrKind::Comm,
            ))],
            iterations: 3,
        };
        let mut s = Sequencer::new(&p, &HashMap::new(), 0).unwrap();
        let vals: Vec<u64> = std::iter::from_fn(|| s.pop())
            .map(|d| match d.op {
                DynOp::Produce { value, .. } if d.kind == InstrKind::Comm => value,
                _ => panic!(),
            })
            .collect();
        assert_eq!(vals, vec![0, 1, 2]);
    }

    #[test]
    fn random_pattern_stays_in_region() {
        let p = Program {
            regions: vec![Region::new(RegionId(0), "ws", 256)],
            queues: vec![],
            body: vec![Step::Instr(InstrTemplate::new(
                Op::Load(AddrPattern::Random {
                    region: RegionId(0),
                }),
                InstrKind::App,
            ))],
            iterations: 50,
        };
        let mut s = Sequencer::new(&p, &bases(), 42).unwrap();
        while let Some(d) = s.pop() {
            if let DynOp::Load { addr, .. } = d.op {
                assert!(addr.as_u64() >= 0x10000 && addr.as_u64() < 0x10000 + 256);
                assert_eq!(addr.as_u64() % 8, 0);
            }
        }
    }

    #[test]
    fn determinism_across_same_seed() {
        let p = Program {
            regions: vec![Region::new(RegionId(0), "ws", 1024)],
            queues: vec![],
            body: vec![Step::Instr(InstrTemplate::new(
                Op::Load(AddrPattern::Random {
                    region: RegionId(0),
                }),
                InstrKind::App,
            ))],
            iterations: 20,
        };
        let run = |seed| {
            let mut s = Sequencer::new(&p, &bases(), seed).unwrap();
            std::iter::from_fn(|| s.pop())
                .map(|d| format!("{:?}", d.op))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn peek_does_not_consume() {
        let p = Program {
            regions: vec![],
            queues: vec![],
            body: vec![alu(InstrKind::App)],
            iterations: 1,
        };
        let mut s = Sequencer::new(&p, &HashMap::new(), 0).unwrap();
        let a = s.peek().cloned().unwrap();
        let b = s.pop().unwrap();
        assert_eq!(a, b);
        assert!(s.pop().is_none());
    }

    #[test]
    fn skip_consumes_what_peek_returned() {
        let p = Program {
            regions: vec![],
            queues: vec![],
            body: vec![alu(InstrKind::App), alu(InstrKind::Comm)],
            iterations: 1,
        };
        let mut s = Sequencer::new(&p, &HashMap::new(), 0).unwrap();
        assert_eq!(s.peek().map(|d| d.kind), Some(InstrKind::App));
        s.skip();
        assert_eq!(s.pop().map(|d| d.kind), Some(InstrKind::Comm));
        assert!(s.peek().is_none());
        assert!(s.finished());
    }

    /// Software-queue produce sequences on three queues plus a streamed
    /// and a scalar region, under the given ids: `queues[i]` is planned
    /// at position `i` (depths 2, 3, 4) but used in the order 2, 0, 1.
    fn queue_program(queues: [u16; 3], regions: [u16; 2]) -> (Program, HashMap<RegionId, Addr>) {
        let [stream, scalar] = regions.map(RegionId);
        let plans = queues
            .iter()
            .zip(0u64..)
            .map(|(&q, i)| QueuePlan {
                q: QueueId(q),
                layout: Some(QueueMemLayout {
                    base: Addr::new(0x4000_0000 + i * 0x1_0000),
                    depth: 2 + i as u32,
                    qlu: 8,
                    stride: 16,
                    flag_offset: Some(8),
                }),
            })
            .collect();
        let instr = |op| Step::Instr(InstrTemplate::new(op, InstrKind::Comm));
        let mut body = vec![instr(Op::Load(AddrPattern::Stream {
            region: stream,
            stride: 24,
        }))];
        for q in [queues[2], queues[0], queues[1]].map(QueueId) {
            body.extend([
                instr(Op::Store(
                    AddrPattern::QueueData { q },
                    StoreValue::QueuePayload(q),
                )),
                instr(Op::StoreRelease(
                    AddrPattern::QueueFlag { q },
                    StoreValue::Flag(true),
                )),
                Step::AdvanceQueue(q),
            ]);
        }
        body.push(instr(Op::Store(
            AddrPattern::Stream {
                region: scalar,
                stride: 8,
            },
            StoreValue::Opaque,
        )));
        let program = Program {
            regions: vec![
                Region::new(stream, "stream", 64),
                Region::new(scalar, "scalar", 16),
            ],
            queues: plans,
            body,
            iterations: 5,
        };
        let bases = HashMap::from([(scalar, Addr::new(0x7000)), (stream, Addr::new(0x9000))]);
        (program, bases)
    }

    /// Queue ids as `new_multi_pipeline` assigns them (16 apart) and
    /// non-contiguous region ids.
    fn sparse_program() -> (Program, HashMap<RegionId, Addr>) {
        queue_program([16, 32, 48], [40, 7])
    }

    #[test]
    fn sparse_queue_and_region_ids_sequence_like_dense_ones() {
        let stream = |(p, bases): (Program, HashMap<RegionId, Addr>)| {
            let mut s = Sequencer::new(&p, &bases, 0).unwrap();
            let stream: Vec<DynInstr> = std::iter::from_fn(|| s.pop()).collect();
            (stream, s)
        };
        let (sparse, s) = stream(sparse_program());
        let (dense, _) = stream(queue_program([0, 1, 2], [0, 1]));
        assert_eq!(sparse, dense);
        assert_eq!(sparse.len(), 5 * 11);
        assert_eq!(s.current_slot(QueueId(32)), Some(5 % 3));
        assert_eq!(s.current_slot(QueueId(0)), None);
        // Spot checks against the plans: the streamed load wraps at 64
        // bytes, and the fourth iteration's first data store is payload 3
        // into slot 3 of the depth-4 queue planned last.
        let loads: Vec<u64> = sparse
            .iter()
            .filter_map(|d| match d.op {
                DynOp::Load { addr, .. } => Some(addr.as_u64()),
                _ => None,
            })
            .collect();
        assert_eq!(loads, vec![0x9000, 0x9018, 0x9030, 0x9008, 0x9020]);
        assert_eq!(
            sparse[3 * 11 + 1].op,
            DynOp::Store {
                addr: Addr::new(0x4002_0000 + 3 * 16),
                value: 3,
                release: false,
            }
        );
    }

    #[test]
    fn sparse_region_without_a_base_is_an_error_not_a_panic() {
        let (p, mut bases) = sparse_program();
        bases.remove(&RegionId(40));
        assert!(Sequencer::new(&p, &bases, 0).is_err());
    }
}
