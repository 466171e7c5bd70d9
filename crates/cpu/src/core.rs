//! The out-of-order core: one cycle at a time.
//!
//! Pipeline phases run in a fixed order each cycle (completions, retire,
//! issue, load-store processing, writeback, squash, safe-promotion,
//! dispatch, fetch). Two ordering choices are load-bearing for the paper's
//! attacks:
//!
//! * **Issue runs before writeback**, so an operand woken this cycle can
//!   issue only next cycle. This models the wakeup/select gap that lets a
//!   ready mis-speculated instruction slip into a non-pipelined unit in the
//!   window where an older instruction's operand is still in flight — the
//!   cascading delay of `G^D_NPEU` (§3.2.2, Figure 3: "once f1 completes,
//!   f2 does not immediately become ready, due to f1's writeback delay; in
//!   contrast f'2 ... is already ready and so is issued").
//! * **Issue selection is age-ordered** among ready candidates, so the
//!   interference is a *delay*, not a starvation — exactly the paper's
//!   alternating `f'1, f1, f'2, f2, ...` interleaving.
//!
//! A cycle costs work in proportion to what happens in it, not to how full
//! the ROB is: the scheduling state each phase reads is kept current at the
//! events that change it (dispatch, writeback, retire, squash) rather than
//! rescanned per cycle — the safety frontier ([`Rob::safety_view`]), the
//! RS ready list and wakeup table, the pending squash, and the age-ordered
//! list of deferred loads. [`Core::audit`] checks all of it against a
//! from-scratch rescan; `tick` runs it under debug assertions.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::Rng;

use si_cache::{line_of, AccessClass, Hierarchy, HitLevel, Visibility};
use si_isa::{isqrt, FuClass, Instruction, Opcode, Program, Reg, INSTR_BYTES, NUM_REGS};

use crate::config::CoreConfig;
use crate::exec::{ExecPayload, ExecUnits, InFlight};
use crate::frontend::{FetchOutcome, Frontend, FrontendQuiet};
use crate::memory::Memory;
use crate::predictor::Predictor;
use crate::rob::{fresh_rat, EntryState, Rat, RegTag, Rob, RobEntry};
use crate::rs::{Operand, OperandList, ReservationStation, RsEntry};
use crate::scheme::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};
use crate::stats::CoreStats;
use crate::trace::{Trace, TraceEvent};
use crate::MshrFile;

/// Shared machine state a core needs during its tick.
#[derive(Debug)]
pub struct TickCtx<'a> {
    /// The shared cache hierarchy.
    pub hierarchy: &'a mut Hierarchy,
    /// The shared backing memory.
    pub memory: &'a mut Memory,
    /// Maximum extra cycles on DRAM-level accesses (0 disables jitter).
    pub dram_jitter: u64,
    /// Seeded RNG for jitter (owned by the machine).
    pub rng: &'a mut StdRng,
}

#[derive(Debug, Clone, Copy)]
struct LoadCompletion {
    seq: u64,
    done_at: u64,
    value: u64,
}

/// A single out-of-order core.
///
/// Construct via [`Core::new`], then drive with [`Core::tick`] (normally
/// through [`Machine`](crate::Machine)). Architectural state is readable
/// with [`Core::reg`] once [`Core::halted`].
#[derive(Debug)]
pub struct Core {
    id: usize,
    config: CoreConfig,
    /// Shared, immutable program image: cores only read it (fetch), so
    /// clones — including every checkpoint fork — share one copy.
    program: std::sync::Arc<Program>,
    frontend: Frontend,
    predictor: Predictor,
    rob: Rob,
    rs: ReservationStation,
    exec: ExecUnits,
    rat: Rat,
    /// RAT snapshots of in-flight, not yet squashed branches, oldest
    /// first: `(branch seq, RAT at its dispatch)`.
    checkpoints: VecDeque<(u64, Rat)>,
    arch_regs: [u64; NUM_REGS],
    mshrs: MshrFile,
    pending_loads: Vec<u64>,
    /// Seqs of loads that are delayed or hold a pending safe action, oldest
    /// first — the only entries safe promotion acts on.
    deferred: VecDeque<u64>,
    /// The oldest resolved, mispredicted branch whose squash is not done.
    pending_squash: Option<u64>,
    load_completions: Vec<LoadCompletion>,
    /// `(cycle, line)` of I-fetch fills recorded while the active scheme
    /// protects the I-cache; rolled back on squash.
    spec_ifetch_fills: Vec<(u64, u64)>,
    wb_queue: Vec<(u64, ExecPayload)>,
    scheme: Box<dyn SpeculationScheme>,
    halted: bool,
    next_seq: u64,
    stats: CoreStats,
    trace: Trace,
    /// Reused allocation for the completion sweep.
    done_scratch: Vec<InFlight>,
    /// Reused allocation for a squash's speculatively filled lines.
    fill_scratch: Vec<u64>,
}

impl Clone for Core {
    /// Deep-copies the core, including the scheme's private state via
    /// [`SpeculationScheme::boxed_clone`] — the field that keeps `Clone`
    /// from being derivable. Machine checkpointing relies on this being a
    /// complete copy: any field omitted here would leak state between
    /// forked trials. The program image is the one exception — it is
    /// immutable and shared, so the clone bumps its `Arc` instead of
    /// copying it.
    fn clone(&self) -> Core {
        Core {
            id: self.id,
            config: self.config.clone(),
            program: self.program.clone(),
            frontend: self.frontend.clone(),
            predictor: self.predictor.clone(),
            rob: self.rob.clone(),
            rs: self.rs.clone(),
            exec: self.exec.clone(),
            rat: self.rat,
            checkpoints: self.checkpoints.clone(),
            arch_regs: self.arch_regs,
            mshrs: self.mshrs.clone(),
            pending_loads: self.pending_loads.clone(),
            deferred: self.deferred.clone(),
            pending_squash: self.pending_squash,
            load_completions: self.load_completions.clone(),
            spec_ifetch_fills: self.spec_ifetch_fills.clone(),
            wb_queue: self.wb_queue.clone(),
            scheme: self.scheme.boxed_clone(),
            halted: self.halted,
            next_seq: self.next_seq,
            stats: self.stats,
            trace: self.trace.clone(),
            done_scratch: self.done_scratch.clone(),
            fill_scratch: self.fill_scratch.clone(),
        }
    }
}

/// A proof that ticking the core would be a pure stall for every cycle in
/// `[now, until)`, carrying the per-cycle stall accounting the skipped
/// ticks would have performed. Produced by [`Core::quiet_plan`]; replayed
/// exactly by [`Core::apply_quiet_cycles`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct QuietPlan {
    /// First cycle at which the core may act again (`u64::MAX` when only
    /// external input could wake it).
    pub(crate) until: u64,
    icache_stall: bool,
    queue_stall: bool,
    rob_stall: bool,
    rs_stall: bool,
}

impl Core {
    /// Creates a core that will run `program` under `scheme`.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new(
        id: usize,
        config: CoreConfig,
        program: Program,
        scheme: Box<dyn SpeculationScheme>,
    ) -> Core {
        let entry = program.entry();
        Core::new_shared(id, config, std::sync::Arc::new(program), scheme, entry)
    }

    /// Creates a core over a **shared** program image, starting fetch at
    /// `entry` instead of the program's recorded entry point.
    ///
    /// Sampled trace replay builds one machine per representative
    /// interval from the same program; sharing the image and overriding
    /// the entry PC replaces a per-interval deep clone (and a mutated
    /// `set_entry`) with an `Arc` bump. `Core::new` is the
    /// `entry == program.entry()` special case.
    ///
    /// # Panics
    ///
    /// Panics if `config` fails validation.
    pub fn new_shared(
        id: usize,
        config: CoreConfig,
        program: std::sync::Arc<Program>,
        scheme: Box<dyn SpeculationScheme>,
        entry: u64,
    ) -> Core {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid core config: {e}"));
        let frontend = if config.no_speculation {
            Frontend::new_no_speculation(entry, config.decode_queue, config.fetch_width)
        } else {
            Frontend::new(entry, config.decode_queue, config.fetch_width)
        };
        Core {
            id,
            frontend,
            predictor: Predictor::new(config.predictor_kind, config.predictor_entries),
            rob: Rob::new(config.rob_size),
            rs: ReservationStation::new(config.rs_size, config.rob_size),
            exec: ExecUnits::new(&config.fu),
            rat: fresh_rat(),
            checkpoints: VecDeque::new(),
            arch_regs: [0; NUM_REGS],
            mshrs: MshrFile::new(config.mshrs),
            pending_loads: Vec::new(),
            deferred: VecDeque::new(),
            pending_squash: None,
            load_completions: Vec::new(),
            spec_ifetch_fills: Vec::new(),
            wb_queue: Vec::new(),
            scheme,
            halted: false,
            next_seq: 0,
            stats: CoreStats::default(),
            trace: Trace::new(),
            done_scratch: Vec::new(),
            fill_scratch: Vec::new(),
            program,
            config,
        }
    }

    /// This core's index.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether `Halt` has retired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    /// Committed architectural register value.
    pub fn reg(&self, r: Reg) -> u64 {
        if r.is_zero() {
            0
        } else {
            self.arch_regs[r.index()]
        }
    }

    /// Injects a committed architectural register value (writes to `r0`
    /// are discarded). Trace replay uses this to seed a freshly built
    /// core with the functional state at a sampled interval's start;
    /// calling it mid-execution on in-flight state is not meaningful.
    pub fn set_reg(&mut self, r: Reg, v: u64) {
        if !r.is_zero() {
            self.arch_regs[r.index()] = v;
            // A fresh core's RAT caches committed values directly;
            // keep it coherent so renamed operands see the injection.
            self.rat[r.index()] = RegTag::Value(v);
        }
    }

    /// Pre-trains the branch predictor on a resolved outcome without
    /// issuing a prediction — trace replay uses this to warm the
    /// predictor from recorded history before simulating a sample
    /// interval. Does not count as a prediction or misprediction in
    /// [`predictor_stats`](Core::predictor_stats).
    pub fn train_branch(&mut self, pc: u64, taken: bool) {
        self.predictor.update(pc, taken, false);
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CoreStats {
        self.stats
    }

    /// The pipeline trace.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables or disables pipeline tracing.
    pub fn set_trace_enabled(&mut self, enabled: bool) {
        self.trace.set_enabled(enabled);
    }

    /// The active speculation scheme's name.
    pub fn scheme_name(&self) -> String {
        self.scheme.name()
    }

    /// Branch predictor statistics `(predictions, mispredictions)`.
    pub fn predictor_stats(&self) -> (u64, u64) {
        self.predictor.stats()
    }

    /// Peak simultaneous private-MSHR occupancy observed.
    pub fn mshr_high_water(&self) -> usize {
        self.mshrs.high_water()
    }

    /// Lifetime issue count per execution port (index = port number) —
    /// the contention profile a port-pressure transmitter skews.
    pub fn port_issues(&self) -> &[u64] {
        self.exec.issues_per_port()
    }

    /// Advances the core by one cycle.
    pub fn tick(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        if self.halted {
            return;
        }
        self.stats.cycles += 1;
        self.exec.begin_cycle();

        self.collect_completions(now);
        self.retire(now, ctx);
        if self.halted {
            return;
        }
        // Neither issue nor the LSU changes a safety flag, so one frontier
        // read serves both.
        let view = self.rob.safety_view();
        self.issue(now, &view);
        self.process_loads(now, ctx, &view);
        self.writeback(now);
        self.handle_squash(now, ctx);
        self.promote_safe(now, ctx);
        self.dispatch(now);
        self.fetch(now, ctx);
        debug_assert_eq!(self.audit(), Ok(()), "cycle {now}");
    }

    /// Checks the scheduling state the core keeps current at events — the
    /// safety frontier, the RS ready list and wakeup table, the pending
    /// squash, the deferred-load list and the branch RAT checkpoints —
    /// against what a from-scratch scan of the ROB and RS gives. `tick`
    /// runs this after every cycle under debug assertions.
    ///
    /// # Errors
    ///
    /// Describes the first piece of state that disagrees with its rescan.
    pub fn audit(&self) -> Result<(), String> {
        let view = self.rob.safety_view();
        let scanned = self.rob.scan_safety_view();
        if view != scanned {
            return Err(format!("frontier {view:?} != rescan {scanned:?}"));
        }
        self.rs.audit(|producer| self.rob.slot_of(producer))?;
        let squash = self.scan_pending_squash();
        if self.pending_squash != squash {
            return Err(format!(
                "pending squash {:?} != rescan {squash:?}",
                self.pending_squash
            ));
        }
        // One pass checks both age-ordered side lists against the ROB.
        let mut deferred = self.deferred.iter();
        let mut checkpoints = self.checkpoints.iter();
        for e in self.rob.iter() {
            if (e.delayed || e.pending_safe_action.is_some()) && deferred.next() != Some(&e.seq) {
                return Err(format!("deferred loads {:?} are stale", self.deferred));
            }
            if e.is_branch() && !e.squash_handled && checkpoints.next().map(|c| c.0) != Some(e.seq)
            {
                return Err("branch RAT checkpoints are stale".to_owned());
            }
        }
        if deferred.next().is_some() || checkpoints.next().is_some() {
            return Err("a side list holds an entry the ROB does not".to_owned());
        }
        Ok(())
    }

    fn scan_pending_squash(&self) -> Option<u64> {
        self.rob
            .iter()
            .find(|e| e.mispredicted && e.resolved && !e.squash_handled)
            .map(|e| e.seq)
    }

    // ------------------------------------------------------------------
    // Idle-cycle skipping
    // ------------------------------------------------------------------

    /// Proves (conservatively) that ticking this core at `now` — and at
    /// every later cycle before the returned plan's `until` — would be a
    /// pure stall: no pipeline phase would mutate core, cache, or memory
    /// state, and the only per-cycle effects are the stall counters and
    /// stall trace events captured in the plan. Returns `None` whenever any
    /// phase might act, in which case the machine must tick cycle-by-cycle.
    ///
    /// The proof works because a quiet core can only be re-activated by a
    /// *timed* internal event (an execution-unit completion, a load
    /// completion, or the end of an I-fetch stall) — everything else in the
    /// pipeline is demand-driven off those events. `until` is the earliest
    /// such event; the machine additionally bounds the skip by scheduled
    /// agent ops and background-noise cycles, which are the only external
    /// inputs.
    pub(crate) fn quiet_plan(&self, now: u64) -> Option<QuietPlan> {
        let mut plan = QuietPlan {
            until: u64::MAX,
            icache_stall: false,
            queue_stall: false,
            rob_stall: false,
            rs_stall: false,
        };
        if self.halted {
            return Some(plan); // a halted tick is a no-op, forever
        }
        // O(1) rejections first — on busy cycles this function runs once
        // per cycle, so the common path must not rescan the ROB/RS.
        //
        // Phase 5 (writeback) acts on anything queued.
        if !self.wb_queue.is_empty() {
            return None;
        }
        // Phase 2 (retire) acts once the head is done.
        if self.rob.head().is_some_and(|h| h.state == EntryState::Done) {
            return None;
        }
        // Phase 9 (fetch): stopped is silent; stalls are replayable
        // per-cycle counters (+ trace events); anything else fetches.
        match self.frontend.quiet_state(now) {
            FrontendQuiet::Stopped => {}
            FrontendQuiet::Stalled => {
                plan.icache_stall = true;
                plan.until = plan.until.min(self.frontend.stall_deadline());
            }
            FrontendQuiet::QueueFull => plan.queue_stall = true,
            FrontendQuiet::Active => return None,
        }
        // Phase 8 (dispatch): either nothing is queued, or the stall is a
        // per-cycle counter we can replay.
        if let Some(next) = self.frontend.peek() {
            if self.rob.is_full() {
                plan.rob_stall = true;
            } else if next.instr.opcode.fu_class() != FuClass::None && self.rs.is_full() {
                plan.rs_stall = true;
            } else {
                return None; // would dispatch
            }
        }
        // Phase 1 (completions): due events force a tick; pending ones
        // bound the skip.
        if let Some(t) = self.exec.next_done_at() {
            if t <= now {
                return None;
            }
            plan.until = plan.until.min(t);
        }
        for c in &self.load_completions {
            if c.done_at <= now {
                return None;
            }
            plan.until = plan.until.min(c.done_at);
        }
        // Phase 3 (issue): any ready candidate may issue — or, under a
        // defense, accrue per-cycle issue-stall counters — so tick.
        if self.rs.has_ready() {
            return None;
        }
        // Phase 4 (LSU): non-delayed pending loads retry (and may count
        // MSHR stalls) every cycle; delayed loads park silently.
        for seq in &self.pending_loads {
            if self.rob.get(*seq).is_some_and(|e| !e.delayed) {
                return None;
            }
        }
        // Phase 6 (squash) acts on any unhandled resolved mispredict.
        if self.pending_squash.is_some() {
            return None;
        }
        // Phase 7 (safe promotion) acts iff a deferred load is safe now and
        // is delayed or has its result back. Safety can only change through
        // events (which bound the skip), so checking once covers the whole
        // window; it is monotone in age, so the walk stops at the first
        // unsafe entry.
        let view = self.rob.safety_view();
        for &seq in &self.deferred {
            if !self.scheme.is_safe(&view, seq) {
                break;
            }
            let e = self.rob.get(seq).expect("deferred loads are in flight");
            if e.delayed || e.state == EntryState::Done {
                return None;
            }
        }
        debug_assert!(plan.until > now);
        Some(plan)
    }

    /// Replays the per-cycle effects of `count` skipped quiet cycles
    /// starting at `from`, exactly as `count` calls to [`Core::tick`]
    /// would have under `plan`'s conditions.
    pub(crate) fn apply_quiet_cycles(&mut self, from: u64, count: u64, plan: &QuietPlan) {
        if self.halted || count == 0 {
            return;
        }
        self.stats.cycles += count;
        if plan.icache_stall {
            self.stats.fetch_stall_icache += count;
            if self.trace.enabled() {
                for cycle in from..from + count {
                    self.trace.record(
                        cycle,
                        TraceEvent::FetchStall {
                            reason: crate::trace::StallReason::ICacheMiss,
                        },
                    );
                }
            }
        } else if plan.queue_stall {
            self.stats.fetch_stall_queue += count;
            if self.trace.enabled() {
                for cycle in from..from + count {
                    self.trace.record(
                        cycle,
                        TraceEvent::FetchStall {
                            reason: crate::trace::StallReason::QueueFull,
                        },
                    );
                }
            }
        }
        if plan.rob_stall {
            self.stats.rob_full_stalls += count;
        } else if plan.rs_stall {
            self.stats.rs_full_stalls += count;
        }
    }

    // ------------------------------------------------------------------
    // Phase 1: completions
    // ------------------------------------------------------------------

    fn collect_completions(&mut self, now: u64) {
        let hold = self.scheme.holds_resources_until_safe();
        let mut done = std::mem::take(&mut self.done_scratch);
        self.exec.drain_done_into(now, &mut done);
        if hold && !done.is_empty() {
            let view = self.rob.safety_view();
            for op in done.drain(..) {
                if op.non_pipelined && !self.op_is_safe(&view, op.seq) {
                    // §5.4 rule 1: the unit (and the result) are held while
                    // the occupant is speculative.
                    self.exec.hold_port(op.port, now + 1);
                    self.requeue_inflight(op, now + 1);
                } else {
                    self.wb_queue.push((op.seq, op.payload));
                }
            }
        } else {
            for op in done.drain(..) {
                self.wb_queue.push((op.seq, op.payload));
            }
        }
        self.done_scratch = done;
        self.mshrs.drain_ready(now);
        let mut i = 0;
        while i < self.load_completions.len() {
            if self.load_completions[i].done_at <= now {
                let c = self.load_completions.swap_remove(i);
                self.wb_queue.push((c.seq, ExecPayload::Value(c.value)));
            } else {
                i += 1;
            }
        }
    }

    fn op_is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        // Squashed or retired: nothing to protect.
        self.rob.position(seq).is_none() || self.scheme.is_safe(view, seq)
    }

    fn requeue_inflight(&mut self, op: InFlight, done_at: u64) {
        // Re-inject with a later completion; implemented by re-issuing the
        // payload through the load-completion queue to keep exec simple.
        match op.payload {
            ExecPayload::Value(v) => self.load_completions.push(LoadCompletion {
                seq: op.seq,
                done_at,
                value: v,
            }),
            other => {
                // Non-value payloads from non-pipelined units do not exist
                // (sqrt/div produce values), but stay conservative.
                self.wb_queue.push((op.seq, other));
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 2: retire
    // ------------------------------------------------------------------

    fn retire(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        for _ in 0..self.config.retire_width {
            let Some(head) = self.rob.head() else { return };
            if head.state != EntryState::Done {
                return;
            }
            if head.mispredicted && !head.squash_handled {
                return; // squash first (later this cycle), retire next cycle
            }
            let rob_slot = self.rob.head_slot();
            let mut entry = self.rob.pop_head().expect("head exists");
            while self
                .checkpoints
                .front()
                .is_some_and(|(s, _)| *s <= entry.seq)
            {
                self.checkpoints.pop_front();
            }
            // Apply any deferred cache action that never found an earlier
            // safe point (at the head everything is safe).
            if let Some(action) = entry.pending_safe_action.take() {
                debug_assert_eq!(self.deferred.front(), Some(&entry.seq));
                self.deferred.pop_front();
                let addr = entry.addr.expect("loads with safe actions have addresses");
                self.apply_safe_action(now, ctx, addr, action);
            }
            match entry.instr.opcode {
                Opcode::Store => {
                    let addr = entry.addr.expect("store address known at retire");
                    let value = entry.store_value.expect("store value known at retire");
                    ctx.memory.write_u64(addr, value);
                    ctx.hierarchy.write(now, self.id, addr);
                }
                Opcode::Flush => {
                    let addr = entry.addr.expect("flush address known at retire");
                    ctx.hierarchy.flush_addr(addr);
                }
                Opcode::Halt => {
                    self.halted = true;
                }
                _ => {}
            }
            if let (Some(dst), Some(result)) = (entry.instr.writes(), entry.result) {
                self.arch_regs[dst.index()] = result;
                if self.rat[dst.index()] == RegTag::Rob(entry.seq) {
                    self.rat[dst.index()] = RegTag::Value(result);
                }
                // Stale `Rob(seq)` references in outstanding branch
                // checkpoints are resolved lazily when a checkpoint is
                // restored (see handle_squash) — patching every resident
                // checkpoint here would rescan the ROB per retirement.
            }
            if self.scheme.holds_resources_until_safe() {
                self.rs.release(rob_slot, entry.seq);
            }
            self.stats.retired += 1;
            self.trace.record(
                now,
                TraceEvent::Retire {
                    seq: entry.seq,
                    pc: entry.pc,
                },
            );
            if self.halted {
                return;
            }
        }
    }

    // ------------------------------------------------------------------
    // Phase 3: issue (age-ordered, before writeback)
    // ------------------------------------------------------------------

    /// Walks the age-ordered ready list once; entries that issue leave it.
    fn issue(&mut self, now: u64, view: &SafetyView) {
        let mut ready = self.rs.take_ready();
        ready.retain(|&(seq, slot)| !self.try_issue(now, view, seq, slot));
        self.rs.restore_ready(ready);
    }

    /// Issues ready candidate `seq` (RS `slot`) if nothing holds it back
    /// this cycle; returns whether it issued.
    fn try_issue(&mut self, now: u64, view: &SafetyView, seq: u64, slot: u32) -> bool {
        if view.fence_blocked(seq) {
            return false;
        }
        if self.scheme.blocks_issue(view, seq) {
            self.stats.defense_issue_stalls += 1;
            return false;
        }
        let rs_entry = self.rs.entry(slot);
        let class = rs_entry.fu;
        let mut operands = [0u64; 2];
        let mut n_operands = 0;
        for o in &rs_entry.operands {
            operands[n_operands] = o.value().expect("candidate is ready");
            n_operands += 1;
        }
        let timing = self.config.fu.timing(class);
        if self.scheme.strict_age_priority()
            && !timing.pipelined
            && self.rs.older_unissued_for(class, seq)
        {
            return false; // §5.4 rule 2: reserve the unit for the older op
        }
        let Some(port) = self.exec.free_port(&self.config.fu, class, now) else {
            self.stats.port_contention_stalls += 1;
            return false;
        };
        let entry = self.rob.get_mut(seq).expect("RS entry has a ROB entry");
        let payload = Self::make_payload(&entry.instr, entry.pc, &operands[..n_operands]);
        entry.state = EntryState::Issued;
        entry.issued_at = Some(now);
        self.exec
            .issue(&self.config.fu, class, port, seq, now, payload);
        self.rs
            .mark_issued(slot, self.scheme.holds_resources_until_safe());
        self.stats.issued += 1;
        self.trace.record(now, TraceEvent::Issue { seq, port });
        true
    }

    fn make_payload(instr: &Instruction, pc: u64, ops: &[u64]) -> ExecPayload {
        let s1 = ops.first().copied().unwrap_or(0);
        let s2 = ops.get(1).copied().unwrap_or(0);
        match instr.opcode {
            Opcode::Load => ExecPayload::AddrReady {
                addr: s1.wrapping_add(instr.imm as u64),
            },
            Opcode::Store => ExecPayload::StoreReady {
                addr: s1.wrapping_add(instr.imm as u64),
                value: s2,
            },
            Opcode::Flush => ExecPayload::FlushReady {
                addr: s1.wrapping_add(instr.imm as u64),
            },
            Opcode::Branch => {
                let taken = instr.cond.eval(s1, s2);
                let next_pc = if taken {
                    instr.imm as u64
                } else {
                    pc + INSTR_BYTES
                };
                ExecPayload::BranchResolved { next_pc, taken }
            }
            _ => ExecPayload::Value(Self::compute_alu(instr, s1, s2)),
        }
    }

    /// ALU semantics, kept identical to [`si_isa::Interpreter`] (checked by
    /// the differential property tests in `tests/`).
    fn compute_alu(instr: &Instruction, s1: u64, s2: u64) -> u64 {
        match instr.opcode {
            Opcode::Add => s1.wrapping_add(s2),
            Opcode::Sub => s1.wrapping_sub(s2),
            Opcode::And => s1 & s2,
            Opcode::Or => s1 | s2,
            Opcode::Xor => s1 ^ s2,
            Opcode::Shl => s1.wrapping_shl((s2 & 63) as u32),
            Opcode::Shr => s1.wrapping_shr((s2 & 63) as u32),
            Opcode::AddImm => s1.wrapping_add(instr.imm as u64),
            Opcode::Mul => s1.wrapping_mul(s2),
            Opcode::Sqrt => isqrt(s1),
            Opcode::Div => s1 / s2.max(1),
            other => unreachable!("{other:?} is not an ALU opcode"),
        }
    }

    // ------------------------------------------------------------------
    // Phase 4: load-store unit
    // ------------------------------------------------------------------

    fn process_loads(&mut self, now: u64, ctx: &mut TickCtx<'_>, view: &SafetyView) {
        let mut pending = std::mem::take(&mut self.pending_loads);
        pending.retain(|&seq| self.try_load(now, ctx, view, seq) == LoadStep::Retry);
        self.pending_loads = pending;
    }

    fn try_load(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        view: &SafetyView,
        seq: u64,
    ) -> LoadStep {
        let Some(entry) = self.rob.get(seq) else {
            return LoadStep::Squashed;
        };
        if entry.delayed {
            return LoadStep::Retry; // waiting to become safe
        }
        let addr = entry.addr.expect("pending load has an address");
        // Store-to-load ordering: wait for older stores' addresses; forward
        // from the youngest older store to the same address.
        if !view.store_addrs_known(seq) {
            return LoadStep::Retry;
        }
        if let Some(value) = self.rob.forwarded_value(seq, addr) {
            self.load_completions.push(LoadCompletion {
                seq,
                done_at: now + 1,
                value,
            });
            return LoadStep::Done;
        }
        let safe = self.scheme.is_safe(view, seq);
        let level = ctx.hierarchy.probe_level(self.id, addr, AccessClass::Data);
        if safe {
            return self.access_visible(now, ctx, seq, addr, level, false);
        }
        let plan = self.scheme.plan_unsafe_load(&UnsafeLoadCtx {
            core: self.id,
            addr,
            level,
            cycle: now,
        });
        match plan {
            LoadPlan::Visible => self.access_visible(now, ctx, seq, addr, level, true),
            LoadPlan::Invisible {
                on_safe,
                latency_override,
            } => self.access_invisible(now, ctx, seq, addr, level, on_safe, latency_override),
            LoadPlan::Delay => {
                let entry = self.rob.get_mut(seq).expect("exists");
                entry.delayed = true;
                self.defer(seq);
                self.stats.delayed_loads += 1;
                self.trace
                    .record(now, TraceEvent::LoadDelayed { seq, addr });
                LoadStep::Retry
            }
        }
    }

    fn dram_latency(&self, base: u64, level: HitLevel, ctx: &mut TickCtx<'_>) -> u64 {
        if level == HitLevel::Memory && ctx.dram_jitter > 0 {
            base + ctx.rng.gen_range(0..=ctx.dram_jitter)
        } else {
            base
        }
    }

    fn access_visible(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        seq: u64,
        addr: u64,
        level: HitLevel,
        speculative: bool,
    ) -> LoadStep {
        let line = line_of(addr);
        let mut new_fill = false;
        let done_at = if level == HitLevel::L1 {
            let res = ctx.hierarchy.read_demand(
                now,
                self.id,
                addr,
                AccessClass::Data,
                Visibility::Visible,
            );
            now + res.latency
        } else if let Some(id) = self.mshrs.lookup(line) {
            // Coalesce onto the outstanding miss; the fill (and any state
            // change) belongs to the primary miss, so no new access here.
            self.mshrs.coalesce(id, seq);
            self.mshrs.ready_at(id)
        } else if self.mshrs.is_full() {
            // Structural hazard: the access is not sent at all this cycle —
            // the delay the G^D_MSHR gadget manufactures (§3.2.2, Fig. 4).
            self.stats.mshr_stalls += 1;
            self.trace.record(now, TraceEvent::MshrStall { seq, addr });
            return LoadStep::Retry;
        } else {
            let res = ctx.hierarchy.read_demand(
                now,
                self.id,
                addr,
                AccessClass::Data,
                Visibility::Visible,
            );
            let latency = self.dram_latency(res.latency, level, ctx);
            let ready = now + latency;
            self.mshrs
                .allocate(line, ready, seq)
                .expect("fullness checked above");
            new_fill = true;
            ready
        };
        let value = ctx.memory.read_u64(addr);
        self.load_completions.push(LoadCompletion {
            seq,
            done_at,
            value,
        });
        if speculative && new_fill {
            // Record for CleanupSpec-style rollback on squash.
            self.rob.get_mut(seq).expect("exists").spec_fill_line = Some(line);
        }
        self.trace.record(
            now,
            TraceEvent::LoadAccess {
                seq,
                addr,
                level,
                visible: true,
            },
        );
        LoadStep::Done
    }

    #[allow(clippy::too_many_arguments)]
    fn access_invisible(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        seq: u64,
        addr: u64,
        level: HitLevel,
        on_safe: Option<SafeAction>,
        latency_override: Option<u64>,
    ) -> LoadStep {
        let line = line_of(addr);
        let needs_mshr = latency_override.is_none() && level != HitLevel::L1;
        let done_at = if needs_mshr {
            if let Some(id) = self.mshrs.lookup(line) {
                self.mshrs.coalesce(id, seq);
                self.mshrs.ready_at(id)
            } else if self.mshrs.is_full() {
                // Check *before* touching the hierarchy: the request is
                // not sent at all this cycle, so it must not occupy a
                // shared-side MSHR entry either (a demand read would).
                self.stats.mshr_stalls += 1;
                self.trace.record(now, TraceEvent::MshrStall { seq, addr });
                return LoadStep::Retry;
            } else {
                let res = ctx.hierarchy.read_demand(
                    now,
                    self.id,
                    addr,
                    AccessClass::Data,
                    Visibility::Invisible,
                );
                let latency = self.dram_latency(res.latency, level, ctx);
                let ready = now + latency;
                self.mshrs
                    .allocate(line, ready, seq)
                    .expect("fullness checked above");
                ready
            }
        } else {
            let latency = latency_override.unwrap_or_else(|| {
                ctx.hierarchy
                    .read_demand(now, self.id, addr, AccessClass::Data, Visibility::Invisible)
                    .latency
            });
            now + latency
        };
        let value = ctx.memory.read_u64(addr);
        self.load_completions.push(LoadCompletion {
            seq,
            done_at,
            value,
        });
        let entry = self.rob.get_mut(seq).expect("exists");
        entry.pending_safe_action = on_safe;
        if on_safe.is_some() {
            self.defer(seq);
        }
        self.stats.invisible_loads += 1;
        self.trace.record(
            now,
            TraceEvent::LoadAccess {
                seq,
                addr,
                level,
                visible: false,
            },
        );
        LoadStep::Done
    }

    /// Adds `seq` to the age-ordered deferred-load list.
    fn defer(&mut self, seq: u64) {
        let at = self.deferred.partition_point(|&s| s < seq);
        debug_assert_ne!(self.deferred.get(at), Some(&seq), "deferred twice");
        self.deferred.insert(at, seq);
    }

    // ------------------------------------------------------------------
    // Phase 5: writeback (CDB)
    // ------------------------------------------------------------------

    fn writeback(&mut self, now: u64) {
        self.wb_queue.sort_by_key(|(seq, _)| *seq);
        // Process a prefix bounded by the CDB width; anything past it stays
        // queued (sorted) for next cycle — no reallocation per cycle.
        let mut granted = 0;
        let mut idx = 0;
        while idx < self.wb_queue.len() && granted < self.config.cdb_width {
            let (seq, payload) = self.wb_queue[idx];
            idx += 1;
            let Some(rob_slot) = self.rob.slot_of(seq) else {
                continue; // squashed in flight: result dropped, no CDB slot
            };
            let entry = self.rob.get_mut(seq).expect("just found");
            granted += 1;
            match payload {
                ExecPayload::Value(v) => {
                    entry.state = EntryState::Done;
                    entry.result = Some(v);
                    entry.completed_at = Some(now);
                    self.rs.wake(rob_slot, seq, v);
                    self.trace.record(now, TraceEvent::Writeback { seq });
                }
                ExecPayload::AddrReady { addr } => {
                    entry.addr = Some(addr);
                    self.pending_loads.push(seq);
                }
                ExecPayload::StoreReady { addr, value } => {
                    entry.addr = Some(addr);
                    entry.store_value = Some(value);
                    entry.state = EntryState::Done;
                    entry.completed_at = Some(now);
                }
                ExecPayload::FlushReady { addr } => {
                    entry.addr = Some(addr);
                    entry.state = EntryState::Done;
                    entry.completed_at = Some(now);
                }
                ExecPayload::BranchResolved { next_pc, taken } => {
                    entry.resolved = true;
                    entry.actual_next = next_pc;
                    entry.mispredicted = next_pc != entry.predicted_next;
                    entry.state = EntryState::Done;
                    entry.completed_at = Some(now);
                    let pc = entry.pc;
                    let mispredicted = entry.mispredicted;
                    self.predictor.update(pc, taken, mispredicted);
                    if mispredicted {
                        self.pending_squash = Some(self.pending_squash.map_or(seq, |s| s.min(seq)));
                    }
                }
            }
        }
        self.wb_queue.drain(..idx);
        self.rob.settle();
    }

    // ------------------------------------------------------------------
    // Phase 6: squash
    // ------------------------------------------------------------------

    fn handle_squash(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        debug_assert_eq!(self.pending_squash, self.scan_pending_squash());
        let Some(branch_seq) = self.pending_squash.take() else {
            return;
        };
        let entry = self.rob.get_mut(branch_seq).expect("exists");
        entry.squash_handled = true;
        let (target, branch_dispatched_at) = (entry.actual_next, entry.dispatched_at);
        while self
            .checkpoints
            .back()
            .is_some_and(|(s, _)| *s > branch_seq)
        {
            self.checkpoints.pop_back();
        }
        let (checkpoint_seq, checkpoint) = self
            .checkpoints
            .pop_back()
            .expect("branches checkpoint the RAT at dispatch");
        debug_assert_eq!(checkpoint_seq, branch_seq);
        let mut spec_fills = std::mem::take(&mut self.fill_scratch);
        spec_fills.clear();
        let mut squashed = 0;
        for e in self.rob.squash_after(branch_seq) {
            self.mshrs.remove_target(e.seq);
            spec_fills.extend(e.spec_fill_line);
            squashed += 1;
        }
        self.rat = checkpoint;
        // Resolve checkpoint references to producers that retired after the
        // checkpoint was taken: a missing ROB entry here can only mean
        // "retired" (an older squash removing it would have removed this
        // branch too), and no post-branch writer can have retired before
        // this branch resolved, so the architectural register still holds
        // exactly that producer's result.
        for (reg, tag) in self.rat.iter_mut().enumerate() {
            if let RegTag::Rob(seq) = *tag {
                if self.rob.position(seq).is_none() {
                    *tag = RegTag::Value(self.arch_regs[reg]);
                }
            }
        }
        self.rs.squash_after(branch_seq);
        self.pending_loads.retain(|s| *s <= branch_seq);
        self.load_completions.retain(|c| c.seq <= branch_seq);
        self.wb_queue.retain(|(s, _)| *s <= branch_seq);
        let kept = self.deferred.partition_point(|&s| s <= branch_seq);
        self.deferred.truncate(kept);
        self.scheme.on_squash(ctx.hierarchy, self.id, &spec_fills);
        self.fill_scratch = spec_fills;
        if self.scheme.protects_ifetch() {
            // Shadow-I-cache / filter-cache semantics: wrong-path
            // instruction fills are undone. Every line fetched after the
            // mispredicted branch entered the ROB is on the wrong path.
            self.spec_ifetch_fills.retain(|&(cycle, line)| {
                let wrong_path = cycle >= branch_dispatched_at;
                if wrong_path {
                    ctx.hierarchy.flush_addr(line * si_cache::LINE_BYTES);
                }
                !wrong_path
            });
        }
        self.frontend.redirect(target, now);
        self.stats.squashes += 1;
        self.stats.squashed_instrs += squashed as u64;
        self.trace.record(
            now,
            TraceEvent::Squash {
                branch_seq,
                squashed,
            },
        );
    }

    // ------------------------------------------------------------------
    // Phase 7: safe promotion (delayed loads, deferred exposures)
    // ------------------------------------------------------------------

    /// Applies what became safe, oldest deferred load first. Safety is
    /// monotone in age (nothing older can start shadowing), so the walk
    /// stops at the first unsafe entry.
    fn promote_safe(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        if self.deferred.is_empty() {
            return;
        }
        let view = self.rob.safety_view();
        let mut i = 0;
        while let Some(&seq) = self.deferred.get(i) {
            if !self.scheme.is_safe(&view, seq) {
                break;
            }
            let entry = self.rob.get_mut(seq).expect("deferred loads are in flight");
            entry.delayed = false; // re-issues visibly next LSU pass
            match entry.pending_safe_action {
                Some(action) if entry.state == EntryState::Done => {
                    entry.pending_safe_action = None;
                    let addr = entry.addr.expect("loads with safe actions have addresses");
                    self.apply_safe_action(now, ctx, addr, action);
                    self.deferred.remove(i);
                }
                // Safe, but the data is not back yet: act once it is.
                Some(_) => i += 1,
                None => {
                    self.deferred.remove(i);
                }
            }
        }
    }

    fn apply_safe_action(
        &mut self,
        now: u64,
        ctx: &mut TickCtx<'_>,
        addr: u64,
        action: SafeAction,
    ) {
        match action {
            SafeAction::TouchReplacement => {
                ctx.hierarchy.touch(now, self.id, addr, AccessClass::Data);
            }
            SafeAction::Expose => {
                ctx.hierarchy.promote(now, self.id, addr, AccessClass::Data);
            }
        }
        self.stats.exposures += 1;
    }

    // ------------------------------------------------------------------
    // Phase 8: dispatch
    // ------------------------------------------------------------------

    fn dispatch(&mut self, now: u64) {
        for _ in 0..self.config.dispatch_width {
            let Some(next) = self.frontend.peek() else {
                return;
            };
            if self.rob.is_full() {
                self.stats.rob_full_stalls += 1;
                return;
            }
            let class = next.instr.opcode.fu_class();
            if class != FuClass::None && self.rs.is_full() {
                self.stats.rs_full_stalls += 1;
                return;
            }
            let fetched = self.frontend.pop().expect("peeked");
            let seq = self.next_seq;
            self.next_seq += 1;
            let mut entry = RobEntry::new(seq, fetched.pc, fetched.instr, now);
            entry.predicted_next = fetched.predicted_next;
            match fetched.instr.opcode {
                Opcode::Branch => {
                    self.checkpoints.push_back((seq, self.rat));
                }
                Opcode::Jump => {
                    entry.resolved = true;
                    entry.actual_next = fetched.instr.target().expect("jump target");
                    entry.state = EntryState::Done;
                }
                Opcode::Nop | Opcode::Fence | Opcode::Halt => {
                    entry.state = EntryState::Done;
                }
                Opcode::MovImm => {
                    entry.state = EntryState::Done;
                    entry.result = Some(fetched.instr.imm as u64);
                }
                Opcode::Rdtsc => {
                    entry.state = EntryState::Done;
                    entry.result = Some(now);
                }
                _ => {}
            }
            let operands: OperandList = fetched
                .instr
                .reads()
                .map(|r| self.resolve_operand(r))
                .collect();
            let rob_slot = self.rob.push(entry);
            if class != FuClass::None {
                let rob = &self.rob;
                self.rs.insert(
                    RsEntry {
                        seq,
                        fu: class,
                        operands,
                        issued: false,
                    },
                    rob_slot,
                    |producer| rob.slot_of(producer).expect("producers are in flight"),
                );
            }
            if let Some(dst) = fetched.instr.writes() {
                self.rat[dst.index()] = RegTag::Rob(seq);
            }
            self.trace.record(
                now,
                TraceEvent::Dispatch {
                    seq,
                    pc: fetched.pc,
                },
            );
            self.stats.dispatched += 1;
        }
    }

    fn resolve_operand(&self, r: Reg) -> Operand {
        if r.is_zero() {
            return Operand::Ready(0);
        }
        match self.rat[r.index()] {
            RegTag::Value(v) => Operand::Ready(v),
            RegTag::Rob(seq) => match self.rob.get(seq) {
                Some(e) if e.state == EntryState::Done => {
                    Operand::Ready(e.result.expect("done writers have results"))
                }
                _ => Operand::Waiting(seq),
            },
        }
    }

    // ------------------------------------------------------------------
    // Phase 9: fetch
    // ------------------------------------------------------------------

    fn fetch(&mut self, now: u64, ctx: &mut TickCtx<'_>) {
        let outcome = self.frontend.tick(
            now,
            self.id,
            &self.program,
            ctx.hierarchy,
            &mut self.predictor,
            &mut self.trace,
        );
        match outcome {
            FetchOutcome::StalledICache => self.stats.fetch_stall_icache += 1,
            FetchOutcome::StalledQueueFull => self.stats.fetch_stall_queue += 1,
            FetchOutcome::Fetched(_) | FetchOutcome::Stopped => {}
        }
        let fills = self.frontend.take_ifetch_fills();
        if self.scheme.protects_ifetch() {
            self.spec_ifetch_fills.extend(fills);
            // Fills become architectural once no branch is unresolved.
            if self.rob.safety_view().branch == SafetyView::NONE {
                self.spec_ifetch_fills.clear();
            }
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadStep {
    Done,
    Retry,
    Squashed,
}
