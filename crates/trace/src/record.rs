//! Trace recording: run a program through the architectural
//! interpreter, capturing branch outcomes, memory accesses, and
//! per-interval basic-block vectors, then choose sample intervals.

use std::collections::BTreeMap;
use std::fmt;

use si_isa::{InterpError, Interpreter, Program, StepOutcome, INSTR_BYTES};

use crate::format::{MemRecord, Samples, TraceFile};
use crate::sampler;

/// Recording parameters.
#[derive(Debug, Clone, Copy)]
pub struct RecordConfig {
    /// Instructions per sampling interval.
    pub interval_len: u64,
    /// Maximum number of clusters. The sampling plan carries at most
    /// `warmup_intervals + max_clusters` representatives.
    pub max_clusters: usize,
    /// Leading intervals pinned as always-simulated singletons; see
    /// [`sampler::simpoints_with_warmup`].
    pub warmup_intervals: usize,
    /// Instruction budget; recording fails rather than spin forever.
    pub max_steps: u64,
}

impl Default for RecordConfig {
    fn default() -> RecordConfig {
        RecordConfig {
            interval_len: 1_024,
            max_clusters: 8,
            warmup_intervals: 4,
            max_steps: 30_000_000,
        }
    }
}

/// Errors while recording a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecordError {
    /// The program faulted in the interpreter.
    Interp(InterpError),
    /// The program did not halt within the step budget.
    Budget(u64),
    /// `interval_len` was zero.
    ZeroInterval,
}

impl fmt::Display for RecordError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecordError::Interp(e) => write!(f, "program faulted while recording: {e}"),
            RecordError::Budget(n) => write!(f, "program did not halt within {n} steps"),
            RecordError::ZeroInterval => write!(f, "interval length must be nonzero"),
        }
    }
}

impl std::error::Error for RecordError {}

impl From<InterpError> for RecordError {
    fn from(e: InterpError) -> RecordError {
        RecordError::Interp(e)
    }
}

/// Runs `program` to completion in the architectural interpreter and
/// returns a [`TraceFile`] embedding the program, its branch and
/// memory streams, and a SimPoint-style sampling plan.
///
/// Basic blocks are delimited dynamically: a block ends at every
/// control transfer (taken or fall-through-diverging next pc) and at
/// `Halt`. An interval boundary may split a block; the split halves
/// accrue to the same leader key in adjacent intervals, which is the
/// standard BBV treatment.
pub fn record(program: &Program, cfg: &RecordConfig) -> Result<TraceFile, RecordError> {
    if cfg.interval_len == 0 {
        return Err(RecordError::ZeroInterval);
    }
    let mut interp = Interpreter::new(program);
    let mut branches = Vec::new();
    let mut accesses = Vec::new();
    let mut bbvs: Vec<BTreeMap<u64, u64>> = Vec::new();
    let mut cur = BTreeMap::new();
    let mut block_start = program.entry();
    let mut block_len = 0u64;
    let mut in_interval = 0u64;

    while !interp.halted() {
        if interp.retired() >= cfg.max_steps {
            return Err(RecordError::Budget(cfg.max_steps));
        }
        let pc = interp.pc();
        let (outcome, ev) = interp.step_event()?;
        block_len += 1;
        in_interval += 1;
        if let Some(taken) = ev.branch_taken {
            branches.push(taken);
        }
        if let Some(m) = ev.mem {
            accesses.push(MemRecord {
                addr: m.addr,
                store: m.store,
            });
        }
        let transferred = outcome == StepOutcome::Halted || interp.pc() != pc + INSTR_BYTES;
        if transferred {
            *cur.entry(block_start).or_insert(0) += block_len;
            block_start = interp.pc();
            block_len = 0;
        }
        if in_interval == cfg.interval_len {
            if block_len > 0 {
                // Interval boundary splits a block: charge the executed
                // half here; the rest accrues to the same leader next
                // interval.
                *cur.entry(block_start).or_insert(0) += block_len;
                block_len = 0;
            }
            bbvs.push(std::mem::take(&mut cur));
            in_interval = 0;
        }
    }
    if block_len > 0 {
        *cur.entry(block_start).or_insert(0) += block_len;
    }
    if !cur.is_empty() {
        bbvs.push(cur);
    }

    let reps = sampler::simpoints_with_warmup(&bbvs, cfg.max_clusters, cfg.warmup_intervals);
    Ok(TraceFile {
        program: program.clone(),
        branches,
        accesses,
        samples: Samples {
            interval_len: cfg.interval_len,
            n_intervals: bbvs.len() as u64,
            reps,
        },
        total_instr: interp.retired(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_isa::{Assembler, R1, R2, R3};

    fn loop_program(iters: i64) -> Program {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 0);
        asm.mov_imm(R2, iters);
        let top = asm.here("top");
        asm.add_imm(R1, R1, 1);
        asm.load(R3, R1, 0x1000);
        asm.store(R3, R1, 0x2000);
        asm.branch_ltu(R1, R2, top);
        asm.halt();
        asm.assemble().unwrap()
    }

    #[test]
    fn records_branches_memory_and_intervals() {
        let p = loop_program(10);
        let t = record(
            &p,
            &RecordConfig {
                interval_len: 8,
                max_clusters: 3,
                warmup_intervals: 0,
                max_steps: 10_000,
            },
        )
        .unwrap();
        // 10 branch executions: 9 taken, final not taken.
        assert_eq!(t.branches.len(), 10);
        assert_eq!(t.branches.iter().filter(|&&b| b).count(), 9);
        assert!(!t.branches[9]);
        // One load + one store per iteration, alternating.
        assert_eq!(t.accesses.len(), 20);
        assert!(!t.accesses[0].store && t.accesses[1].store);
        // 2 setup + 10 * 4 loop body + 1 halt.
        assert_eq!(t.total_instr, 43);
        assert_eq!(t.samples.n_intervals, 43u64.div_ceil(8));
        let total: u64 = t.samples.reps.iter().map(|r| r.cluster_size).sum();
        assert_eq!(total, t.samples.n_intervals);
        // The recorded file round-trips.
        assert_eq!(TraceFile::decode(&t.encode()).unwrap(), t);
    }

    #[test]
    fn budget_exceeded_is_an_error() {
        let p = loop_program(1_000_000);
        let err = record(
            &p,
            &RecordConfig {
                interval_len: 100,
                max_clusters: 2,
                warmup_intervals: 0,
                max_steps: 50,
            },
        )
        .unwrap_err();
        assert_eq!(err, RecordError::Budget(50));
    }

    #[test]
    fn zero_interval_is_an_error() {
        let p = loop_program(1);
        let cfg = RecordConfig {
            interval_len: 0,
            ..RecordConfig::default()
        };
        assert_eq!(record(&p, &cfg).unwrap_err(), RecordError::ZeroInterval);
    }
}
