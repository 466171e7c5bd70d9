//! The core keeps its per-cycle scheduling state current at events
//! (dispatch, writeback, retire, squash) instead of rescanning the ROB and
//! RS every cycle: the safety frontier, the RS ready list and wakeup
//! table, the pending squash, the deferred-load list and the branch RAT
//! checkpoints. This test drives random programs cycle by cycle and, after
//! every tick, checks all of it against a from-scratch rescan
//! (`Core::audit`) — in release builds too, where `tick` skips its own
//! debug-assertion audit.

use proptest::prelude::*;

use speculative_interference::cpu::{CoreStats, Machine, MachineConfig};
use speculative_interference::isa::{
    Assembler, BranchCond, Program, Reg, R25, R26, R27, R28, R29, R30,
};
use speculative_interference::schemes::SchemeKind;

/// The schemes whose hooks read the frontier in different ways: none,
/// Spectre shadows with delayed loads, Futuristic shadows with exposures,
/// an issue gate, and held resources with strict age priority.
const SCHEMES: [SchemeKind; 5] = [
    SchemeKind::Unprotected,
    SchemeKind::DomSpectre,
    SchemeKind::InvisiSpecFuturistic,
    SchemeKind::FenceFuturistic,
    SchemeKind::Advanced,
];

/// Ops the generator emits; the only backward branch is the counted loop,
/// so every program halts.
#[derive(Debug, Clone)]
enum GenOp {
    MovImm(u8, i32),
    Add(u8, u8, u8),
    Mul(u8, u8, u8),
    Sqrt(u8, u8),
    Div(u8, u8, u8),
    Load(u8, u8),
    /// A load from a line far outside the warm window: an L1 miss, which
    /// DoM-style schemes delay while it is speculative.
    ColdLoad(u8, u8),
    Store(u8, u8),
    Flush(u8),
    Fence,
    /// A data-dependent forward branch over the next instruction, so the
    /// predictor mispredicts and squashes happen.
    SkipIf(BranchCond, u8, u8),
}

fn reg(i: u8) -> Reg {
    Reg::new(i % 16).expect("generated registers are r0..r15")
}

fn op_strategy() -> impl Strategy<Value = GenOp> {
    prop_oneof![
        (any::<u8>(), any::<i32>()).prop_map(|(d, i)| GenOp::MovImm(d, i)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenOp::Add(a, b, c)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenOp::Mul(a, b, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Sqrt(a, b)),
        (any::<u8>(), any::<u8>(), any::<u8>()).prop_map(|(a, b, c)| GenOp::Div(a, b, c)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Load(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::ColdLoad(a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::Store(a, b)),
        any::<u8>().prop_map(GenOp::Flush),
        Just(GenOp::Fence),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::SkipIf(BranchCond::Ltu, a, b)),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| GenOp::SkipIf(BranchCond::Eq, a, b)),
    ]
}

/// `r27 = base + (r[a] % 64) * stride`: every access stays in a window.
fn confine(asm: &mut Assembler, a: u8, base: Reg, stride_log2: i64) {
    asm.mov_imm(R26, 63);
    asm.and(R27, reg(a), R26);
    asm.mov_imm(R26, stride_log2);
    asm.shl(R27, R27, R26);
    asm.add(R27, base, R27);
}

fn build(ops: &[GenOp], iters: u8) -> Program {
    let mut asm = Assembler::new(0);
    let data = 0x8000u64;
    let cold = 0x40_0000u64;
    asm.mov_imm(R30, data as i64);
    asm.mov_imm(R29, 0);
    asm.mov_imm(R28, i64::from(iters % 4) + 1);
    for w in 0..64u64 {
        asm.data_u64(data + w * 8, w.wrapping_mul(0x9e37_79b9));
    }
    let top = asm.here("top");
    for (i, op) in ops.iter().enumerate() {
        match op {
            GenOp::MovImm(d, v) => {
                asm.mov_imm(reg(*d), i64::from(*v));
            }
            GenOp::Add(d, a, b) => {
                asm.add(reg(*d), reg(*a), reg(*b));
            }
            GenOp::Mul(d, a, b) => {
                asm.mul(reg(*d), reg(*a), reg(*b));
            }
            GenOp::Sqrt(d, a) => {
                asm.sqrt(reg(*d), reg(*a));
            }
            GenOp::Div(d, a, b) => {
                asm.div(reg(*d), reg(*a), reg(*b));
            }
            GenOp::Load(d, a) => {
                confine(&mut asm, *a, R30, 3);
                asm.load(reg(*d), R27, 0);
            }
            GenOp::ColdLoad(d, a) => {
                asm.mov_imm(R25, cold as i64);
                confine(&mut asm, *a, R25, 12);
                asm.load(reg(*d), R27, 0);
            }
            GenOp::Store(s, a) => {
                confine(&mut asm, *a, R30, 3);
                asm.store(reg(*s), R27, 0);
            }
            GenOp::Flush(a) => {
                confine(&mut asm, *a, R30, 3);
                asm.flush(R27, 0);
            }
            GenOp::Fence => {
                asm.fence();
            }
            GenOp::SkipIf(c, a, b) => {
                let l = asm.label(&format!("skip{i}"));
                asm.branch(*c, reg(*a), reg(*b), l);
                asm.nop();
                asm.bind(l);
            }
        }
    }
    asm.add_imm(R29, R29, 1);
    asm.branch(BranchCond::Ltu, R29, R28, top);
    asm.halt();
    asm.assemble().expect("generated program assembles")
}

/// Runs `program` under `scheme` one cycle at a time, auditing the core's
/// event-kept state after every tick.
fn audit_every_tick(program: &Program, scheme: SchemeKind) -> Result<CoreStats, String> {
    let mut m = Machine::new(MachineConfig {
        disable_idle_skip: true,
        ..MachineConfig::default()
    });
    m.load_program_with_scheme(0, program, scheme.build());
    while !m.core(0).halted() {
        if m.cycle() > 400_000 {
            return Err(format!("{scheme:?}: no halt"));
        }
        m.step();
        m.core(0)
            .audit()
            .map_err(|e| format!("{scheme:?} after cycle {}: {e}", m.cycle()))?;
    }
    Ok(m.core(0).stats())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn event_kept_state_matches_a_rescan_after_every_tick(
        ops in proptest::collection::vec(op_strategy(), 1..24),
        iters in any::<u8>(),
    ) {
        let program = build(&ops, iters);
        for scheme in SCHEMES {
            let outcome = audit_every_tick(&program, scheme);
            prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
        }
    }
}

/// A fixed program that exercises every event the state is kept at:
/// mispredicted branches (squashes), delayed cold loads, fences, flushes,
/// store forwarding and non-pipelined units.
#[test]
fn a_fixed_mixed_program_audits_clean_under_every_scheme() {
    // The second cold load reaches the LSU while the branch on the first
    // one's data is unresolved: a speculative miss.
    let ops = [
        GenOp::MovImm(1, 9),
        GenOp::ColdLoad(2, 1),
        GenOp::SkipIf(BranchCond::Ltu, 2, 1),
        GenOp::ColdLoad(3, 7),
        GenOp::Store(2, 1),
        GenOp::Load(3, 1),
        GenOp::Sqrt(4, 3),
        GenOp::Fence,
        GenOp::Div(5, 4, 1),
        GenOp::Flush(5),
        GenOp::SkipIf(BranchCond::Eq, 5, 3),
        GenOp::Mul(6, 5, 2),
    ];
    let program = build(&ops, 3);
    let mut total = CoreStats::default();
    for scheme in SchemeKind::all() {
        let stats = audit_every_tick(&program, scheme).unwrap_or_else(|e| panic!("{e}"));
        total.squashes += stats.squashes;
        total.delayed_loads += stats.delayed_loads;
        total.exposures += stats.exposures;
        total.defense_issue_stalls += stats.defense_issue_stalls;
    }
    assert!(total.squashes > 0, "no squash");
    assert!(total.delayed_loads > 0, "no delayed load");
    assert!(total.exposures > 0, "no safe action");
    assert!(total.defense_issue_stalls > 0, "no issue gate");
}
