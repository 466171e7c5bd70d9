//! The frontend: instruction fetch through the L1I, branch prediction, and
//! the decode queue.
//!
//! Fetch is where two of the paper's mechanisms live:
//!
//! * instruction fetches are **visible** cache accesses even on
//!   mis-speculated paths (InvisiSpec and DoM leave the I-cache
//!   unprotected, §3.2.2) — the `G^I_RS` attack's transmitter-to-receiver
//!   path;
//! * when the decode queue backs up (because dispatch stalls on a full
//!   RS/ROB), fetch stops — the back-throttling that makes the secret
//!   control *whether* a target line is ever fetched (Figure 5/10).

use std::collections::VecDeque;

use si_cache::{AccessClass, Hierarchy, Visibility};
use si_isa::{Instruction, Opcode, Program, INSTR_BYTES};

use crate::predictor::Predictor;
use crate::trace::{StallReason, Trace, TraceEvent};

/// A fetched instruction with its prediction metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FetchedInstr {
    /// Fetch address.
    pub pc: u64,
    /// The instruction.
    pub instr: Instruction,
    /// Predicted next PC (for branches; `pc + 8` otherwise).
    pub predicted_next: u64,
}

/// Fetch + decode-queue state for one core.
#[derive(Debug, Clone)]
pub struct Frontend {
    pc: u64,
    stalled_until: u64,
    stopped: bool,
    queue: VecDeque<FetchedInstr>,
    capacity: usize,
    fetch_width: usize,
    /// The I-cache line fetch is currently streaming from (avoids
    /// re-accessing the cache for every instruction on the same line).
    current_line: Option<u64>,
    /// `NoSpec(E)` mode: stop at conditional branches instead of
    /// predicting (§5.1 reference execution).
    no_speculation: bool,
    /// Instruction-line fills (`(cycle, line)`) that came from beyond the
    /// L1I — the record an I-cache-protecting scheme rolls back on squash.
    ifetch_fills: Vec<(u64, u64)>,
}

impl Frontend {
    /// Creates a frontend starting at `entry`.
    pub fn new(entry: u64, capacity: usize, fetch_width: usize) -> Frontend {
        Frontend {
            pc: entry,
            stalled_until: 0,
            stopped: false,
            queue: VecDeque::with_capacity(capacity),
            capacity,
            fetch_width,
            current_line: None,
            no_speculation: false,
            ifetch_fills: Vec::new(),
        }
    }

    /// Creates a non-speculating frontend (see
    /// [`CoreConfig::no_speculation`](crate::CoreConfig)): fetch stops at
    /// every conditional branch and resumes when the resolved branch
    /// redirects it.
    pub fn new_no_speculation(entry: u64, capacity: usize, fetch_width: usize) -> Frontend {
        Frontend {
            no_speculation: true,
            ..Frontend::new(entry, capacity, fetch_width)
        }
    }

    /// Current fetch PC.
    pub fn pc(&self) -> u64 {
        self.pc
    }

    /// Whether fetch has run past a `Halt` or off the end of code.
    pub fn stopped(&self) -> bool {
        self.stopped
    }

    /// Number of queued instructions awaiting dispatch.
    pub fn queued(&self) -> usize {
        self.queue.len()
    }

    /// Peeks the next instruction awaiting dispatch.
    pub fn peek(&self) -> Option<&FetchedInstr> {
        self.queue.front()
    }

    /// Pops the next instruction for dispatch.
    pub fn pop(&mut self) -> Option<FetchedInstr> {
        self.queue.pop_front()
    }

    /// Takes the record of instruction-line fills that missed the L1I.
    pub fn take_ifetch_fills(&mut self) -> Vec<(u64, u64)> {
        std::mem::take(&mut self.ifetch_fills)
    }

    /// The cycle an in-progress I-cache stall ends (fetch resumes then).
    pub(crate) fn stall_deadline(&self) -> u64 {
        self.stalled_until
    }

    /// Classifies what [`Frontend::tick`] would do at `now` **without
    /// doing it** — same check order as `tick` (stopped, then stalled,
    /// then queue-full). Used by the idle-cycle skip to prove a fetch
    /// cycle is a pure stall and to replay its exact stall accounting.
    pub(crate) fn quiet_state(&self, now: u64) -> FrontendQuiet {
        if self.stopped {
            FrontendQuiet::Stopped
        } else if now < self.stalled_until {
            FrontendQuiet::Stalled
        } else if self.queue.len() >= self.capacity {
            FrontendQuiet::QueueFull
        } else {
            FrontendQuiet::Active
        }
    }

    /// Redirects fetch after a squash: clears the queue, restarts at
    /// `target`.
    pub fn redirect(&mut self, target: u64, now: u64) {
        self.queue.clear();
        self.pc = target;
        self.stopped = false;
        self.stalled_until = now;
        self.current_line = None;
    }

    /// Fetches up to `fetch_width` instructions this cycle.
    pub fn tick(
        &mut self,
        now: u64,
        core: usize,
        program: &Program,
        hierarchy: &mut Hierarchy,
        predictor: &mut Predictor,
        trace: &mut Trace,
    ) -> FetchOutcome {
        if self.stopped {
            return FetchOutcome::Stopped;
        }
        if now < self.stalled_until {
            trace.record(
                now,
                TraceEvent::FetchStall {
                    reason: StallReason::ICacheMiss,
                },
            );
            return FetchOutcome::StalledICache;
        }
        if self.queue.len() >= self.capacity {
            trace.record(
                now,
                TraceEvent::FetchStall {
                    reason: StallReason::QueueFull,
                },
            );
            return FetchOutcome::StalledQueueFull;
        }
        let mut fetched = 0;
        while fetched < self.fetch_width && self.queue.len() < self.capacity {
            let pc = self.pc;
            let line = pc / si_cache::LINE_BYTES;
            if self.current_line != Some(line) {
                let res =
                    hierarchy.read_demand(now, core, pc, AccessClass::Instr, Visibility::Visible);
                self.current_line = Some(line);
                if res.level != si_cache::HitLevel::L1 {
                    self.ifetch_fills.push((now, line));
                    // Line was not in the L1I: stall for the fill latency;
                    // the fill itself has already happened (visible).
                    self.stalled_until = now + res.latency;
                    trace.record(
                        now,
                        TraceEvent::FetchStall {
                            reason: StallReason::ICacheMiss,
                        },
                    );
                    return if fetched > 0 {
                        FetchOutcome::Fetched(fetched)
                    } else {
                        FetchOutcome::StalledICache
                    };
                }
            }
            let Some(instr) = program.fetch(pc).copied() else {
                self.stopped = true;
                trace.record(
                    now,
                    TraceEvent::FetchStall {
                        reason: StallReason::NoInstruction,
                    },
                );
                break;
            };
            trace.record(now, TraceEvent::Fetch { pc });
            let fallthrough = pc + INSTR_BYTES;
            let predicted_next = match instr.opcode {
                Opcode::Branch if self.no_speculation => {
                    // Sentinel next-PC: the resolution always "mispredicts",
                    // which reuses the squash path to redirect a stopped
                    // frontend with nothing younger to squash.
                    u64::MAX
                }
                Opcode::Branch if predictor.predict(pc) => {
                    instr.target().expect("branch has target")
                }
                Opcode::Jump => instr.target().expect("jump has target"),
                _ => fallthrough,
            };
            if instr.opcode == Opcode::Branch && self.no_speculation {
                self.queue.push_back(FetchedInstr {
                    pc,
                    instr,
                    predicted_next,
                });
                fetched += 1;
                self.stopped = true; // resumes via redirect at resolution
                break;
            }
            self.queue.push_back(FetchedInstr {
                pc,
                instr,
                predicted_next,
            });
            fetched += 1;
            self.pc = predicted_next;
            if instr.opcode == Opcode::Halt {
                self.stopped = true;
                break;
            }
            // A predicted-taken control transfer ends the fetch group.
            if predicted_next != fallthrough {
                self.current_line = None;
                break;
            }
        }
        FetchOutcome::Fetched(fetched)
    }
}

/// What [`Frontend::tick`] would do this cycle (see
/// [`Frontend::quiet_state`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum FrontendQuiet {
    /// Fetch has stopped; a tick records nothing.
    Stopped,
    /// Stalled on an I-cache fill; a tick records one stall per cycle.
    Stalled,
    /// Decode queue full; a tick records one stall per cycle.
    QueueFull,
    /// Fetch would make progress (mutating state).
    Active,
}

/// What fetch accomplished in one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchOutcome {
    /// Fetched this many instructions (possibly zero at a line boundary).
    Fetched(usize),
    /// Stalled waiting for an I-cache fill.
    StalledICache,
    /// Stalled because the decode queue is full.
    StalledQueueFull,
    /// Fetch has stopped (halt or end of code).
    Stopped,
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cache::HierarchyConfig;
    use si_isa::{Assembler, R1, R2};

    fn setup(asm: Assembler) -> (Program, Hierarchy, Predictor, Trace) {
        (
            asm.assemble().unwrap(),
            Hierarchy::new(HierarchyConfig::kaby_lake_like(1)),
            Predictor::new(crate::predictor::PredictorKind::Bimodal, 64),
            Trace::new(),
        )
    }

    #[test]
    fn first_fetch_misses_icache_and_stalls() {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 1);
        asm.halt();
        let (p, mut h, mut bp, mut t) = setup(asm);
        let mut fe = Frontend::new(0, 16, 4);
        let out = fe.tick(0, 0, &p, &mut h, &mut bp, &mut t);
        assert_eq!(out, FetchOutcome::StalledICache);
        assert_eq!(fe.queued(), 0);
        // After the fill latency the whole 2-instruction program fetches.
        let dram = h.config().latency.dram;
        let out = fe.tick(dram, 0, &p, &mut h, &mut bp, &mut t);
        assert_eq!(out, FetchOutcome::Fetched(2));
        assert!(fe.stopped(), "halt stops fetch");
    }

    #[test]
    fn fetch_width_bounds_per_cycle_progress() {
        let mut asm = Assembler::new(0);
        for _ in 0..10 {
            asm.nop();
        }
        asm.halt();
        let (p, mut h, mut bp, mut t) = setup(asm);
        let mut fe = Frontend::new(0, 32, 4);
        fe.tick(0, 0, &p, &mut h, &mut bp, &mut t); // icache fill
        let dram = h.config().latency.dram;
        assert_eq!(
            fe.tick(dram, 0, &p, &mut h, &mut bp, &mut t),
            FetchOutcome::Fetched(4)
        );
        assert_eq!(fe.queued(), 4);
    }

    #[test]
    fn queue_full_stalls_fetch() {
        let mut asm = Assembler::new(0);
        for _ in 0..10 {
            asm.nop();
        }
        asm.halt();
        let (p, mut h, mut bp, mut t) = setup(asm);
        let mut fe = Frontend::new(0, 4, 4);
        fe.tick(0, 0, &p, &mut h, &mut bp, &mut t);
        let dram = h.config().latency.dram;
        fe.tick(dram, 0, &p, &mut h, &mut bp, &mut t);
        assert_eq!(
            fe.tick(dram + 1, 0, &p, &mut h, &mut bp, &mut t),
            FetchOutcome::StalledQueueFull
        );
        fe.pop();
        assert!(matches!(
            fe.tick(dram + 2, 0, &p, &mut h, &mut bp, &mut t),
            FetchOutcome::Fetched(_)
        ));
    }

    #[test]
    fn untrained_branch_falls_through_and_trained_branch_redirects() {
        let mut asm = Assembler::new(0);
        let target = asm.label("target");
        asm.branch_eq(R1, R2, target);
        asm.nop();
        asm.org(0x100);
        asm.bind(target);
        asm.halt();
        let (p, mut h, mut bp, mut t) = setup(asm);
        let mut fe = Frontend::new(0, 16, 4);
        fe.tick(0, 0, &p, &mut h, &mut bp, &mut t);
        let dram = h.config().latency.dram;
        fe.tick(dram, 0, &p, &mut h, &mut bp, &mut t);
        let first = fe.pop().unwrap();
        assert_eq!(first.predicted_next, INSTR_BYTES, "weakly not-taken");
        // Train taken, redirect a fresh frontend.
        bp.update(0, true, false);
        bp.update(0, true, false);
        let mut fe2 = Frontend::new(0, 16, 4);
        // Line 0 is already warm in the L1I, so the first tick fetches; the
        // predicted-taken branch ends the fetch group after one instruction.
        let out = fe2.tick(dram + 1, 0, &p, &mut h, &mut bp, &mut t);
        assert!(
            matches!(out, FetchOutcome::Fetched(1)),
            "taken ends group: {out:?}"
        );
        assert_eq!(fe2.pop().unwrap().predicted_next, 0x100);
        assert_eq!(fe2.pc(), 0x100);
    }

    #[test]
    fn redirect_clears_queue_and_resumes() {
        let mut asm = Assembler::new(0);
        asm.nop();
        asm.nop();
        asm.org(0x200);
        asm.halt();
        let (p, mut h, mut bp, mut t) = setup(asm);
        let mut fe = Frontend::new(0, 16, 4);
        fe.tick(0, 0, &p, &mut h, &mut bp, &mut t);
        let dram = h.config().latency.dram;
        fe.tick(dram, 0, &p, &mut h, &mut bp, &mut t);
        assert!(fe.queued() > 0);
        fe.redirect(0x200, dram + 1);
        assert_eq!(fe.queued(), 0);
        assert_eq!(fe.pc(), 0x200);
        assert!(!fe.stopped());
    }

    #[test]
    fn running_off_code_stops_fetch() {
        let mut asm = Assembler::new(0);
        asm.nop();
        let (p, mut h, mut bp, mut t) = setup(asm);
        let mut fe = Frontend::new(0, 16, 4);
        fe.tick(0, 0, &p, &mut h, &mut bp, &mut t);
        let dram = h.config().latency.dram;
        fe.tick(dram, 0, &p, &mut h, &mut bp, &mut t);
        assert!(fe.stopped());
        assert_eq!(fe.queued(), 1);
    }
}
