//! Differential property test for the staged sampled replay: the
//! [`ReplayPlan`]-based implementation must match a monolithic
//! reference — a verbatim port of the pre-plan `replay_sampled`, with
//! its full per-interval memory-snapshot injection — cycle for cycle
//! on freshly recorded traces.
//!
//! This is the proof that the plan split (entry-PC sharing, memory
//! deltas instead of snapshots, precomputed warm-up sequences) is a
//! pure refactor of the replay semantics: any divergence in estimated
//! cycles, simulated instructions, or interval count fails here before
//! it can silently skew sweep results.

use proptest::prelude::*;

use si_cpu::{AgentOp, Machine, MachineConfig, SpeculationScheme, Unprotected};
use si_isa::{Assembler, Interpreter, Program, Reg, NUM_REGS, R1, R2, R3, R4};
use si_trace::{record, RecordConfig, ReplayOutcome, ReplayPlan, TraceFile};

const TRAIN_WINDOW: usize = 65_536;
const BUDGET: u64 = 10_000_000;

/// A loop kernel with data-dependent loads and overlapping 8-byte
/// stores (consecutive base addresses), exercising the plan's
/// last-write-wins memory-delta capture.
fn kernel(iters: i64, seed: u8) -> Program {
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, 0);
    asm.mov_imm(R2, iters);
    asm.mov_imm(R4, 0);
    let top = asm.here("top");
    asm.add_imm(R1, R1, 1);
    asm.load(R3, R1, 0x1000);
    asm.add(R4, R4, R3);
    asm.store(R4, R1, 0x4000);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    let mut p = asm.assemble().expect("kernel assembles");
    for i in 0..64u8 {
        p.write_data(
            0x1000 + u64::from(i),
            &[seed.wrapping_mul(7).wrapping_add(i * 3)],
        );
    }
    p
}

fn unprotected() -> Box<dyn SpeculationScheme> {
    Box::new(Unprotected)
}

/// Verbatim port of the monolithic pre-plan `replay_sampled`: one
/// interpreter fast-forward interleaved with per-interval machine
/// construction, including the full `mem_snapshot` injection and the
/// per-interval `dedup_keep_last` recomputation the plan replaced.
fn replay_sampled_reference(
    trace: &TraceFile,
    config: &MachineConfig,
    max_cycles: u64,
) -> ReplayOutcome {
    let samples = &trace.samples;
    assert!(!samples.reps.is_empty(), "reference needs a sampling plan");
    let mut interp = Interpreter::new(&trace.program);
    let mut est_cycles = 0u64;
    let mut simulated_instr = 0u64;
    let mut intervals_run = 0u64;
    let mut touched_lines: Vec<u64> = Vec::new();
    let mut branch_hist: Vec<(u64, bool)> = Vec::new();
    for rep in &samples.reps {
        let start_instr = rep.interval * samples.interval_len;
        while interp.retired() < start_instr && !interp.halted() {
            let pc = interp.pc();
            let (_, ev) = interp.step_event().expect("fast-forward succeeds");
            if let Some(m) = ev.mem {
                touched_lines.push(m.addr & !63);
            }
            if let Some(taken) = ev.branch_taken {
                branch_hist.push((pc, taken));
            }
        }
        if interp.halted() && interp.retired() < start_instr {
            break;
        }
        let remaining = trace.total_instr.saturating_sub(start_instr);
        let target = samples.interval_len.min(remaining);
        if target == 0 {
            continue;
        }
        let mut sub = trace.program.clone();
        sub.set_entry(interp.pc());
        let mut m = Machine::new(config.clone());
        m.load_program_with_scheme(0, &sub, unprotected());
        for i in 1..NUM_REGS {
            let r = Reg::new(i as u8).expect("register index in range");
            m.core_mut(0).set_reg(r, interp.reg(r));
        }
        for (addr, byte) in interp.mem_snapshot() {
            m.memory_mut().write_u8(addr, byte);
        }
        for line in dedup_keep_last_reference(&touched_lines) {
            m.run_op(AgentOp::Access {
                core: 0,
                addr: line,
            });
        }
        let mut code_lines: Vec<u64> = trace.program.iter().map(|(pc, _)| pc & !63).collect();
        code_lines.dedup();
        for line in code_lines {
            m.run_op(AgentOp::FetchAccess {
                core: 0,
                addr: line,
            });
        }
        let skip = branch_hist.len().saturating_sub(TRAIN_WINDOW);
        for &(pc, taken) in &branch_hist[skip..] {
            m.core_mut(0).train_branch(pc, taken);
        }
        while !m.core(0).halted() && m.core(0).stats().retired < target {
            assert!(m.cycle() < max_cycles, "reference replay timed out");
            m.advance(max_cycles);
        }
        let stats = m.core(0).stats();
        est_cycles += stats.cycles * rep.cluster_size;
        simulated_instr += stats.retired;
        intervals_run += 1;
    }
    ReplayOutcome {
        cycles: est_cycles,
        simulated_instr,
        intervals_run,
    }
}

/// The pre-plan `BTreeMap` last-occurrence dedup, kept verbatim so the
/// reference stays an independent implementation.
fn dedup_keep_last_reference(lines: &[u64]) -> Vec<u64> {
    let mut last_pos = std::collections::BTreeMap::new();
    for (i, &l) in lines.iter().enumerate() {
        last_pos.insert(l, i);
    }
    let mut ordered: Vec<(usize, u64)> = last_pos.into_iter().map(|(l, i)| (i, l)).collect();
    ordered.sort_unstable();
    ordered.into_iter().map(|(_, l)| l).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn plan_replay_matches_monolithic_reference(
        iters in 16i64..160,
        seed in any::<u8>(),
        interval_len in prop_oneof![Just(64u64), Just(128u64), Just(256u64)],
        clusters in 2usize..5,
    ) {
        let p = kernel(iters, seed);
        let trace = record(
            &p,
            &RecordConfig {
                interval_len,
                max_clusters: clusters,
                warmup_intervals: 1,
                max_steps: 1_000_000,
            },
        )
        .expect("kernel records");
        // warmup_intervals=1 pins the first interval as an exact
        // singleton, so every recorded trace carries a sampling plan.
        prop_assert!(!trace.samples.reps.is_empty());
        let config = MachineConfig::default();
        let reference = replay_sampled_reference(&trace, &config, BUDGET);
        let plan = ReplayPlan::build(&trace).expect("plan builds");
        let planned =
            si_trace::replay_planned(&plan, &config, &unprotected, BUDGET).expect("plan replays");
        let sampled =
            si_trace::replay_sampled(&trace, &config, &unprotected, BUDGET).expect("replays");
        prop_assert_eq!(planned, reference, "plan-based replay diverged from the reference");
        prop_assert_eq!(sampled, reference, "replay_sampled diverged from the reference");
    }
}
