//! The **replay plan**: stage 1 of sampled replay, split out so it can
//! be computed once per trace and shared.
//!
//! [`replay_sampled`](crate::replay_sampled) used to interleave two very
//! different kinds of work per representative interval: a scheme- and
//! config-*independent* interpreter fast-forward (architectural
//! registers, memory, touched lines, branch history at the interval
//! boundary) and a scheme-*dependent* cycle-level simulation. The
//! fast-forward repeats identically for every (scheme, predictor,
//! trial) cell over the same trace, so [`ReplayPlan::build`] hoists it
//! into a standalone, immutable artifact:
//!
//! * one fast-forward pass over the whole trace, shared by all
//!   intervals;
//! * per interval, the **memory delta since the previous representative
//!   interval** (only bytes written by stores) instead of a full memory
//!   snapshot — [`ReplayPlan::warm_machine`] replays the deltas
//!   cumulatively, which reproduces the snapshot contents exactly
//!   because machine memory is content-addressed (a byte overwritten
//!   with its own value is unobservable);
//! * the deduplicated warm-up line sequence, the bounded branch-history
//!   window, and the program's code lines, precomputed.
//!
//! Stage 2 — [`ReplayPlan::warm_machine`] + [`ReplayPlan::run_interval`]
//! or the [`replay_planned`] convenience loop — is pure consumption: it
//! never touches the interpreter. Callers that cache (si-workloads, via
//! the si-engine artifact cache) share the plan and memoize each
//! interval's simulated outcome under quiet noise, so a repeat replay
//! warms no machine at all.
//!
//! Everything here is deterministic: a plan is a pure function of the
//! trace, and plan-based replay is cycle-for-cycle identical to the
//! former monolithic implementation (a property test holds the two
//! against each other).

use std::sync::Arc;

use si_cpu::{AgentOp, CoreStats, Machine, MachineConfig, SpeculationScheme};
use si_isa::{Interpreter, Program, Reg, NUM_REGS};

use crate::format::TraceFile;
use crate::replay::{ReplayError, ReplayOutcome};

/// Most recent resolved branches replayed into a sample interval's
/// fresh predictor. Enough to saturate both predictor organizations'
/// tables; bounding it keeps per-interval warm-up cost independent of
/// how deep into the trace the interval sits.
pub(crate) const TRAIN_WINDOW: usize = 65_536;

/// Everything stage 2 needs to warm a machine for one representative
/// interval, captured at the interval's start boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanInterval {
    /// Interval index in the trace's sampling plan.
    pub interval: u64,
    /// How many intervals this representative stands for.
    pub cluster_size: u64,
    /// PC at the interval boundary — the warmed machine's fetch entry.
    pub entry_pc: u64,
    /// Architectural register file at the boundary (`regs[0]` unused).
    pub regs: [u64; NUM_REGS],
    /// Bytes written by stores since the **previous** plan interval
    /// (last value per address, ascending). Warm-up applies the deltas
    /// of intervals `0..=i` in order, reproducing the full memory image
    /// without snapshotting it per interval.
    pub mem_delta: Vec<(u64, u8)>,
    /// Data lines touched before the boundary, deduplicated to each
    /// line's last use, in last-use order — the LRU warm-up feed.
    pub warm_lines: Vec<u64>,
    /// The most recent resolved branches before the boundary (at most
    /// [`TRAIN_WINDOW`]): `(pc, taken)` predictor training food.
    pub branch_window: Vec<(u64, bool)>,
    /// Instructions to simulate (the interval length, shortened at the
    /// trace tail).
    pub target_instr: u64,
}

/// The scheme- and config-independent product of one interpreter
/// fast-forward pass over a trace: everything needed to build a warmed
/// machine at any representative interval. Immutable once built —
/// share it (`Arc`) across schemes, trials, and threads freely.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayPlan {
    /// The embedded program, shared unmodified by every interval
    /// machine (the entry PC travels separately per interval).
    pub program: Arc<Program>,
    /// The program's code lines (deduplicated, ascending) — fetched
    /// into every interval machine's I-side.
    pub code_lines: Vec<u64>,
    /// One entry per representative interval that has instructions to
    /// simulate, ascending by interval index.
    pub intervals: Vec<PlanInterval>,
}

impl ReplayPlan {
    /// Runs the single fast-forward pass and captures per-interval
    /// warm-up state. Pure function of `trace`.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Interp`] if fast-forwarding faults (corrupt trace
    /// or program/trace mismatch).
    pub fn build(trace: &TraceFile) -> Result<ReplayPlan, ReplayError> {
        let samples = &trace.samples;
        let mut interp = Interpreter::new(&trace.program);
        let mut intervals = Vec::with_capacity(samples.reps.len());
        // Data lines touched and branches resolved during fast-forward,
        // in program order — the warm-up feed for each interval.
        let mut touched_lines: Vec<u64> = Vec::new();
        let mut branch_hist: Vec<(u64, bool)> = Vec::new();
        // Store-written bytes since the last captured interval (last
        // value per address); drained into each interval's delta.
        let mut pending_writes: std::collections::HashMap<u64, u8> =
            std::collections::HashMap::new();
        for rep in &samples.reps {
            let start_instr = rep.interval * samples.interval_len;
            while interp.retired() < start_instr && !interp.halted() {
                let pc = interp.pc();
                let (_, ev) = interp.step_event().map_err(ReplayError::Interp)?;
                if let Some(m) = ev.mem {
                    touched_lines.push(m.addr & !63);
                    if m.store {
                        // Stores write one little-endian u64; read the
                        // committed bytes back rather than re-deriving
                        // the operand.
                        for (i, byte) in interp.read_u64(m.addr).to_le_bytes().iter().enumerate() {
                            pending_writes.insert(m.addr + i as u64, *byte);
                        }
                    }
                }
                if let Some(taken) = ev.branch_taken {
                    branch_hist.push((pc, taken));
                }
            }
            if interp.halted() && interp.retired() < start_instr {
                // Sampling plan points past the end of execution; the
                // decoder bounds rep indices, so this only happens for a
                // trace whose recorded totals are internally
                // inconsistent.
                break;
            }
            let remaining = trace.total_instr.saturating_sub(start_instr);
            let target = samples.interval_len.min(remaining);
            if target == 0 {
                continue;
            }
            let mut mem_delta: Vec<(u64, u8)> = pending_writes.drain().collect();
            mem_delta.sort_unstable();
            let mut regs = [0u64; NUM_REGS];
            for (i, slot) in regs.iter_mut().enumerate().skip(1) {
                let r = Reg::new(i as u8).expect("register index in range");
                *slot = interp.reg(r);
            }
            let skip = branch_hist.len().saturating_sub(TRAIN_WINDOW);
            intervals.push(PlanInterval {
                interval: rep.interval,
                cluster_size: rep.cluster_size,
                entry_pc: interp.pc(),
                regs,
                mem_delta,
                warm_lines: dedup_keep_last(&touched_lines),
                branch_window: branch_hist[skip..].to_vec(),
                target_instr: target,
            });
        }
        let mut code_lines: Vec<u64> = trace.program.iter().map(|(pc, _)| pc & !63).collect();
        code_lines.dedup();
        Ok(ReplayPlan {
            program: Arc::new(trace.program.clone()),
            code_lines,
            intervals,
        })
    }

    /// Builds the fully warmed machine for plan interval `idx` (by
    /// position in [`ReplayPlan::intervals`]): architectural injection,
    /// cumulative memory deltas, cache re-touch, code-line fetch, and
    /// predictor training — everything up to (but not including) the
    /// measured simulation. The result is exactly the machine the
    /// monolithic replay used to build in place, so capturing it with
    /// `si_cpu::MachineCheckpoint` and forking per trial is
    /// byte-equivalent to rebuilding (for configs that draw no noise
    /// randomness before the snapshot — quiet-noise presets).
    pub fn warm_machine(
        &self,
        idx: usize,
        config: &MachineConfig,
        scheme: Box<dyn SpeculationScheme>,
    ) -> Machine {
        let iv = &self.intervals[idx];
        let mut m = Machine::new(config.clone());
        m.load_shared_program_with_scheme(0, Arc::clone(&self.program), scheme, iv.entry_pc);
        for (i, &v) in iv.regs.iter().enumerate().skip(1) {
            let r = Reg::new(i as u8).expect("register index in range");
            m.core_mut(0).set_reg(r, v);
        }
        // Memory deltas are cumulative: replaying segments 0..=idx in
        // order leaves every byte at its last-written value — the same
        // contents the old full-snapshot injection produced.
        for segment in &self.intervals[..=idx] {
            for &(addr, byte) in &segment.mem_delta {
                m.memory_mut().write_u8(addr, byte);
            }
        }
        // Functional warm-up: replay the pre-interval working set into
        // the cache hierarchy, oldest-first so LRU leaves the machine
        // holding what the full run would hold, then touch the code
        // lines (the frontend of the real run has them resident).
        for &line in &iv.warm_lines {
            m.run_op(AgentOp::Access {
                core: 0,
                addr: line,
            });
        }
        for &line in &self.code_lines {
            m.run_op(AgentOp::FetchAccess {
                core: 0,
                addr: line,
            });
        }
        // Predictor warm-up: re-train on the most recent resolved
        // branches (bounded so huge traces stay cheap to sample).
        for &(pc, taken) in &iv.branch_window {
            m.core_mut(0).train_branch(pc, taken);
        }
        m
    }

    /// Simulates plan interval `idx` on a machine produced by
    /// [`ReplayPlan::warm_machine`] (or forked from a checkpoint of
    /// one), returning the core's statistics at interval end.
    ///
    /// # Errors
    ///
    /// [`ReplayError::Timeout`] when `max_cycles` is exhausted before
    /// the interval's instructions retire.
    pub fn run_interval(
        &self,
        idx: usize,
        m: &mut Machine,
        max_cycles: u64,
    ) -> Result<CoreStats, ReplayError> {
        let target = self.intervals[idx].target_instr;
        while !m.core(0).halted() && m.core(0).stats().retired < target {
            if m.cycle() >= max_cycles {
                return Err(ReplayError::Timeout {
                    cycle_limit: max_cycles,
                });
            }
            m.advance(max_cycles);
        }
        Ok(m.core(0).stats())
    }
}

/// Stage 2 without caching: warm a fresh machine per interval and
/// simulate, accumulating the weighted estimate. With a freshly built
/// plan this is exactly the former monolithic
/// [`replay_sampled`](crate::replay_sampled) (which now delegates
/// here); with a shared plan the fast-forward cost is gone.
pub fn replay_planned(
    plan: &ReplayPlan,
    config: &MachineConfig,
    scheme_factory: &dyn Fn() -> Box<dyn SpeculationScheme>,
    max_cycles: u64,
) -> Result<ReplayOutcome, ReplayError> {
    let mut est_cycles = 0u64;
    let mut simulated_instr = 0u64;
    let mut intervals_run = 0u64;
    for idx in 0..plan.intervals.len() {
        let mut m = plan.warm_machine(idx, config, scheme_factory());
        let stats = plan.run_interval(idx, &mut m, max_cycles)?;
        est_cycles += stats.cycles * plan.intervals[idx].cluster_size;
        simulated_instr += stats.retired;
        intervals_run += 1;
    }
    Ok(ReplayOutcome {
        cycles: est_cycles,
        simulated_instr,
        intervals_run,
    })
}

/// Deduplicates line addresses keeping each line's **last** occurrence,
/// preserving relative order — so warming oldest-first ends with the
/// most recently used lines, matching what LRU would retain. A flat
/// hash map plus one sort of the surviving `(position, line)` pairs;
/// the result is fully determined by the input (last positions are
/// unique), so the unordered map never leaks iteration order.
fn dedup_keep_last(lines: &[u64]) -> Vec<u64> {
    let mut last_pos = std::collections::HashMap::with_capacity(1024);
    for (i, &l) in lines.iter().enumerate() {
        last_pos.insert(l, i);
    }
    let mut ordered: Vec<(usize, u64)> = last_pos.into_iter().map(|(l, i)| (i, l)).collect();
    ordered.sort_unstable();
    ordered.into_iter().map(|(_, l)| l).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_keeps_last_occurrence_in_order() {
        assert_eq!(dedup_keep_last(&[]), Vec::<u64>::new());
        assert_eq!(
            dedup_keep_last(&[64, 128, 64, 192, 128]),
            vec![64, 192, 128]
        );
        assert_eq!(dedup_keep_last(&[0, 0, 0]), vec![0]);
    }
}
