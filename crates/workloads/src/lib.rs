//! Synthetic benchmark kernels for the defense evaluation (Figure 12).
//!
//! The paper measures its basic defense on SPEC CPU2017 with SimPoints on
//! gem5 (§5.3). SPEC binaries cannot run on this micro-ISA, so this crate
//! provides eight small kernels spanning the behavioural axes that
//! determine fence-defense cost (see DESIGN.md's substitution table):
//!
//! * **memory-bound, serially dependent** — [`WorkloadKind::PointerChase`]
//!   (an `mcf`-like list walk);
//! * **memory-bound, independent** — [`WorkloadKind::Stream`],
//!   [`WorkloadKind::CacheThrash`];
//! * **compute-bound** — [`WorkloadKind::Gemm`] (multiply-dense),
//!   [`WorkloadKind::Crc`] (ALU-dense);
//! * **branchy, data-dependent** — [`WorkloadKind::BranchySort`],
//!   [`WorkloadKind::HashProbe`];
//! * **balanced** — [`WorkloadKind::Mixed`].
//!
//! The harness runs each kernel to completion under a scheme and reports
//! cycles; dividing by the unprotected baseline's cycles gives Figure 12's
//! y-axis.
//!
//! Every kernel checks itself: the program computes a checksum into `r31`
//! and [`run`] verifies it against the reference interpreter, so a defense
//! or scheme that corrupts execution is caught rather than silently
//! mis-measured.

pub mod gadgets;
pub mod replay_cache;
pub mod traces;

pub use replay_cache::replay_trace_cached;
pub use traces::SampleTrace;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use si_cpu::{CoreStats, Machine, MachineConfig, Timeout};
use si_isa::{Assembler, Interpreter, Program, R1, R2, R3, R31, R4, R5, R6, R7, R8, R9};
use si_schemes::SchemeKind;

/// The benchmark kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum WorkloadKind {
    /// Serial pointer chase through a shuffled linked list (`mcf`-like:
    /// every load depends on the previous one; long memory latencies
    /// dominate and branch resolution rides on them).
    PointerChase,
    /// Sequential streaming sum over a large array (`lbm`/STREAM-like).
    Stream,
    /// Blocked dense multiply-accumulate (`gemm`-like compute).
    Gemm,
    /// Insertion sort with data-dependent branches (`sort`-like,
    /// mispredict-heavy).
    BranchySort,
    /// Random probes into a hash table with hit/miss branches
    /// (`xalancbmk`-ish pointer-and-branch mix).
    HashProbe,
    /// Shift/xor checksum over data (ALU-serial, `crc`-like).
    Crc,
    /// Strided walk exceeding the L1 (cache-thrashing loads).
    CacheThrash,
    /// Interleaved loads, multiplies, and branches (balanced).
    Mixed,
    /// Weighted sampled replay of a committed `.sit` trace (SimPoint
    /// methodology, §5.3): only the trace's representative intervals
    /// are simulated and the estimate is extrapolated by cluster size.
    Trace(SampleTrace),
}

impl WorkloadKind {
    /// All kernels, in presentation order.
    pub fn all() -> Vec<WorkloadKind> {
        use WorkloadKind::*;
        vec![
            PointerChase,
            Stream,
            Gemm,
            BranchySort,
            HashProbe,
            Crc,
            CacheThrash,
            Mixed,
        ]
    }

    /// The trace-replay workloads (one per committed sample trace).
    pub fn traces() -> Vec<WorkloadKind> {
        SampleTrace::all()
            .into_iter()
            .map(WorkloadKind::Trace)
            .collect()
    }

    /// Display name (Figure 12 x-axis labels).
    pub fn label(self) -> &'static str {
        match self {
            WorkloadKind::PointerChase => "ptr-chase",
            WorkloadKind::Stream => "stream",
            WorkloadKind::Gemm => "gemm",
            WorkloadKind::BranchySort => "sort",
            WorkloadKind::HashProbe => "hash",
            WorkloadKind::Crc => "crc",
            WorkloadKind::CacheThrash => "thrash",
            WorkloadKind::Mixed => "mixed",
            WorkloadKind::Trace(t) => t.label(),
        }
    }

    /// Parses a kernel label (as printed by [`label`](Self::label)),
    /// case-insensitive — the workload axis of `sia sweep` grids.
    pub fn parse(text: &str) -> Option<WorkloadKind> {
        let needle = text.to_ascii_lowercase();
        WorkloadKind::all()
            .into_iter()
            .chain(WorkloadKind::traces())
            .find(|k| k.label() == needle)
    }

    /// Builds the kernel program at the given problem scale (elements /
    /// iterations; each kernel interprets it sensibly).
    pub fn program(self, scale: usize, seed: u64) -> Program {
        match self {
            WorkloadKind::PointerChase => pointer_chase(scale, seed),
            WorkloadKind::Stream => stream(scale),
            WorkloadKind::Gemm => gemm(scale),
            WorkloadKind::BranchySort => branchy_sort(scale, seed),
            WorkloadKind::HashProbe => hash_probe(scale, seed),
            WorkloadKind::Crc => crc(scale, seed),
            WorkloadKind::CacheThrash => cache_thrash(scale),
            WorkloadKind::Mixed => mixed(scale, seed),
            // Trace workloads carry their own program; scale and seed
            // were fixed at record time. Program-only decode — the
            // branch/memory/sampling sections are never parsed here.
            WorkloadKind::Trace(t) => (*t.program_shared()).clone(),
        }
    }
}

const DATA: u64 = 0x0020_0000;

/// `mcf`-like: walk a shuffled singly linked list `scale` times.
fn pointer_chase(scale: usize, seed: u64) -> Program {
    let nodes = 256usize;
    let mut order: Vec<u64> = (1..nodes as u64).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    for i in (1..order.len()).rev() {
        order.swap(i, rng.gen_range(0..=i));
    }
    let mut asm = Assembler::new(0);
    // node i at DATA + i*64 holds the address of the next node.
    let mut cur = 0u64;
    for next in &order {
        asm.data_u64(DATA + cur * 64, DATA + next * 64);
        cur = *next;
    }
    asm.data_u64(DATA + cur * 64, 0); // terminator
    asm.mov_imm(R2, scale as i64);
    asm.mov_imm(R3, 0); // outer counter
    asm.mov_imm(R31, 0);
    let outer = asm.here("outer");
    asm.mov_imm(R1, DATA as i64);
    let walk = asm.here("walk");
    asm.load(R1, R1, 0);
    asm.add(R31, R31, R1);
    asm.branch_ne(R1, si_isa::R0, walk);
    asm.add_imm(R3, R3, 1);
    asm.branch_ltu(R3, R2, outer);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// STREAM-like: sum `scale` sequential words.
fn stream(scale: usize) -> Program {
    let mut asm = Assembler::new(0);
    for i in 0..scale as u64 {
        asm.data_u64(DATA + i * 8, i.wrapping_mul(0x9e37) & 0xffff);
    }
    asm.mov_imm(R1, DATA as i64);
    asm.mov_imm(R2, (DATA + scale as u64 * 8) as i64);
    asm.mov_imm(R31, 0);
    let top = asm.here("top");
    asm.load(R3, R1, 0);
    asm.add(R31, R31, R3);
    asm.add_imm(R1, R1, 8);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// `gemm`-like: `scale × scale` multiply-accumulate over in-register tiles.
fn gemm(scale: usize) -> Program {
    let n = scale.max(2) as i64;
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, 0); // i
    asm.mov_imm(R2, n);
    asm.mov_imm(R31, 0);
    let outer = asm.here("outer");
    asm.mov_imm(R3, 0); // j
    let inner = asm.here("inner");
    asm.add_imm(R4, R1, 3);
    asm.add_imm(R5, R3, 5);
    asm.mul(R6, R4, R5);
    asm.mul(R6, R6, R4);
    asm.add(R31, R31, R6);
    asm.add_imm(R3, R3, 1);
    asm.branch_ltu(R3, R2, inner);
    asm.add_imm(R1, R1, 1);
    asm.branch_ltu(R1, R2, outer);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// Insertion sort over `scale` random words (branch-heavy, data-dependent).
fn branchy_sort(scale: usize, seed: u64) -> Program {
    let n = scale.max(4) as u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut asm = Assembler::new(0);
    for i in 0..n {
        asm.data_u64(DATA + i * 8, rng.gen_range(0..1_000_000));
    }
    // for i in 1..n: insert a[i] into a[0..i]
    asm.mov_imm(R1, 1); // i
    asm.mov_imm(R2, n as i64);
    asm.mov_imm(R7, DATA as i64);
    asm.mov_imm(R8, 3);
    let outer = asm.here("outer");
    let inner = asm.label("inner");
    let shift = asm.label("shift");
    let place = asm.label("place");
    // key = a[i]; j = i
    asm.shl(R4, R1, R8);
    asm.add(R4, R7, R4);
    asm.load(R3, R4, 0); // key
    asm.add_imm(R5, R1, 0); // j
    asm.bind(inner);
    asm.branch_eq(R5, si_isa::R0, place);
    // prev = a[j-1]
    asm.add_imm(R6, R5, -1);
    asm.shl(R9, R6, R8);
    asm.add(R9, R7, R9);
    asm.load(R6, R9, 0);
    asm.branch_ltu(R3, R6, shift); // if key < prev: shift prev right
    asm.jump(place);
    asm.bind(shift);
    asm.shl(R4, R5, R8);
    asm.add(R4, R7, R4);
    asm.store(R6, R4, 0);
    asm.add_imm(R5, R5, -1);
    asm.jump(inner);
    asm.bind(place);
    // a[j] = key
    asm.shl(R4, R5, R8);
    asm.add(R4, R7, R4);
    asm.store(R3, R4, 0);
    asm.add_imm(R1, R1, 1);
    asm.branch_ltu(R1, R2, outer);
    // checksum: sum of array
    asm.mov_imm(R1, DATA as i64);
    asm.mov_imm(R2, (DATA + n * 8) as i64);
    asm.mov_imm(R31, 0);
    let sum = asm.here("sum");
    asm.load(R3, R1, 0);
    asm.add(R31, R31, R3);
    asm.add_imm(R1, R1, 8);
    asm.branch_ltu(R1, R2, sum);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// Hash-table probes with hit/miss branches.
fn hash_probe(scale: usize, seed: u64) -> Program {
    let buckets = 512u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut asm = Assembler::new(0);
    for b in 0..buckets {
        // Half the buckets are occupied (non-zero tag).
        let tag = if rng.gen_bool(0.5) { b * 7 + 1 } else { 0 };
        asm.data_u64(DATA + b * 8, tag);
    }
    asm.mov_imm(R1, 0); // probe counter
    asm.mov_imm(R2, scale as i64);
    asm.mov_imm(R7, DATA as i64);
    asm.mov_imm(R8, 0x9e37);
    asm.mov_imm(R9, (buckets - 1) as i64);
    asm.mov_imm(R31, 0);
    let top = asm.here("top");
    let miss = asm.label("miss");
    let next = asm.label("next");
    // bucket = (i * 0x9e37) & (buckets-1)
    asm.mul(R3, R1, R8);
    asm.and(R3, R3, R9);
    asm.mov_imm(R4, 3);
    asm.shl(R3, R3, R4);
    asm.add(R3, R7, R3);
    asm.load(R4, R3, 0);
    asm.branch_eq(R4, si_isa::R0, miss);
    asm.add(R31, R31, R4); // hit: accumulate tag
    asm.jump(next);
    asm.bind(miss);
    asm.add_imm(R31, R31, 1);
    asm.bind(next);
    asm.add_imm(R1, R1, 1);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// Serial shift/xor checksum (`crc`-like ALU chain).
fn crc(scale: usize, seed: u64) -> Program {
    let mut asm = Assembler::new(0);
    asm.mov_imm(R31, (seed & 0xffff) as i64 | 1);
    asm.mov_imm(R1, 0);
    asm.mov_imm(R2, scale as i64);
    asm.mov_imm(R4, 13);
    asm.mov_imm(R5, 7);
    asm.mov_imm(R6, 17);
    let top = asm.here("top");
    asm.shl(R3, R31, R4);
    asm.xor(R31, R31, R3);
    asm.shr(R3, R31, R5);
    asm.xor(R31, R31, R3);
    asm.shl(R3, R31, R6);
    asm.xor(R31, R31, R3);
    asm.add_imm(R1, R1, 1);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// Strided walk with a stride defeating the L1 (cache-thrashing loads).
fn cache_thrash(scale: usize) -> Program {
    let lines = 4096u64; // 256 KB footprint, larger than L1+L2 ways allow
    let mut asm = Assembler::new(0);
    // Touch only every 64th line with data; untouched reads return 0.
    for i in (0..lines).step_by(64) {
        asm.data_u64(DATA + i * 64, i);
    }
    asm.mov_imm(R1, 0);
    asm.mov_imm(R2, scale as i64);
    asm.mov_imm(R7, DATA as i64);
    asm.mov_imm(R8, 0x1fff); // lines-1 mask on a 64-line stride walk
    asm.mov_imm(R9, 521 * 64); // odd line stride
    asm.mov_imm(R5, 0); // offset
    asm.mov_imm(R31, 0);
    let top = asm.here("top");
    asm.add(R5, R5, R9);
    asm.mov_imm(R4, 18);
    asm.shl(R3, R8, R4); // mask helper (keeps ALU busy)
    asm.and(R3, R5, R3);
    asm.and(R3, R5, R8);
    asm.mov_imm(R4, 6);
    asm.shl(R3, R3, R4);
    asm.add(R3, R7, R3);
    asm.load(R4, R3, 0);
    asm.add(R31, R31, R4);
    asm.add_imm(R1, R1, 1);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// Balanced mix: load + multiply + branch per iteration.
fn mixed(scale: usize, seed: u64) -> Program {
    let words = 1024u64;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut asm = Assembler::new(0);
    for i in 0..words {
        asm.data_u64(DATA + i * 8, rng.gen_range(0..1024));
    }
    asm.mov_imm(R1, 0);
    asm.mov_imm(R2, scale as i64);
    asm.mov_imm(R7, DATA as i64);
    asm.mov_imm(R8, (words - 1) as i64);
    asm.mov_imm(R9, 3);
    asm.mov_imm(R31, 0);
    let top = asm.here("top");
    let skip = asm.label("skip");
    asm.mul(R3, R1, R1);
    asm.and(R3, R3, R8);
    asm.shl(R3, R3, R9);
    asm.add(R3, R7, R3);
    asm.load(R4, R3, 0);
    asm.mul(R5, R4, R4);
    asm.mov_imm(R6, 512);
    asm.branch_ltu(R4, R6, skip);
    asm.add(R31, R31, R5);
    asm.bind(skip);
    asm.add_imm(R31, R31, 1);
    asm.add_imm(R1, R1, 1);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    asm.assemble().expect("kernel assembles")
}

/// One workload measurement.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Measurement {
    /// Cycles to completion.
    pub cycles: u64,
    /// Instructions retired.
    pub retired: u64,
    /// Retired IPC.
    pub ipc: f64,
}

/// Errors from the workload harness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The kernel did not halt within the cycle budget.
    Timeout(u64),
    /// The pipeline's architectural result diverged from the reference
    /// interpreter (checksum mismatch) — a correctness bug, not a
    /// performance result.
    ChecksumMismatch {
        /// What the pipeline computed.
        got: u64,
        /// What the reference interpreter computed.
        expected: u64,
    },
}

impl std::fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkloadError::Timeout(c) => write!(f, "kernel did not halt within {c} cycles"),
            WorkloadError::ChecksumMismatch { got, expected } => {
                write!(
                    f,
                    "checksum mismatch: pipeline {got:#x}, reference {expected:#x}"
                )
            }
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<Timeout> for WorkloadError {
    fn from(t: Timeout) -> WorkloadError {
        WorkloadError::Timeout(t.cycles)
    }
}

/// Cycle budget per kernel run.
const BUDGET: u64 = 30_000_000;

/// Runs one kernel under one scheme, verifying the checksum against the
/// reference interpreter.
///
/// # Errors
///
/// [`WorkloadError::Timeout`] if the kernel stalls;
/// [`WorkloadError::ChecksumMismatch`] if the pipeline computed a wrong
/// result.
pub fn run(
    kind: WorkloadKind,
    scale: usize,
    scheme: SchemeKind,
    config: &MachineConfig,
) -> Result<Measurement, WorkloadError> {
    if let WorkloadKind::Trace(t) = kind {
        return run_trace(t, scheme, config);
    }
    let program = kind.program(scale, 42);
    let mut reference = Interpreter::new(&program);
    reference
        .run(BUDGET)
        .expect("reference interpreter completes");
    let expected = reference.reg(R31);
    let mut m = Machine::new(config.clone());
    m.load_program_with_scheme(0, &program, scheme.build());
    let cycles = m.run_core_to_halt(0, BUDGET)?;
    let got = m.core(0).reg(R31);
    if got != expected {
        return Err(WorkloadError::ChecksumMismatch { got, expected });
    }
    let stats: CoreStats = m.core(0).stats();
    Ok(Measurement {
        cycles,
        retired: stats.retired,
        ipc: stats.ipc(),
    })
}

/// Runs a committed sample trace under one scheme: weighted sampled
/// replay of the trace's representative intervals, through the
/// process-wide artifact cache ([`replay_trace_cached`]) — the decoded
/// trace, its replay plan, and quiet-noise interval outcomes are shared
/// across calls, with results identical to uncached
/// [`si_trace::replay_sampled`]. The checksum verification of kernel
/// runs does not apply — a sampled replay never computes the full
/// result; architectural correctness was verified against the
/// interpreter when the trace was recorded.
fn run_trace(
    t: SampleTrace,
    scheme: SchemeKind,
    config: &MachineConfig,
) -> Result<Measurement, WorkloadError> {
    let trace = t.decode_shared();
    let out = replay_trace_cached(&trace, t.content_digest(), scheme, config, BUDGET).map_err(
        |e| match e {
            si_trace::ReplayError::Timeout { cycle_limit } => WorkloadError::Timeout(cycle_limit),
            // A fast-forward fault means the embedded program and streams
            // disagree — surface it as a checksum-style correctness error.
            si_trace::ReplayError::Interp(_) => WorkloadError::ChecksumMismatch {
                got: 0,
                expected: 1,
            },
        },
    )?;
    Ok(Measurement {
        cycles: out.cycles,
        retired: trace.total_instr,
        ipc: trace.total_instr as f64 / out.cycles.max(1) as f64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MachineConfig {
        MachineConfig::default()
    }

    #[test]
    fn every_kernel_runs_and_verifies_on_the_baseline() {
        for kind in WorkloadKind::all() {
            let m = run(kind, 64, SchemeKind::Unprotected, &cfg())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            assert!(m.retired > 50, "{kind:?} retired {}", m.retired);
            assert!(m.ipc > 0.0);
        }
    }

    #[test]
    fn kernels_verify_under_delay_on_miss() {
        for kind in WorkloadKind::all() {
            run(kind, 48, SchemeKind::DomSpectre, &cfg())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
        }
    }

    /// `kind`'s cycles under `scheme` over its unprotected cycles.
    fn normalized_time(kind: WorkloadKind, scale: usize, scheme: SchemeKind) -> f64 {
        let cycles = |s| run(kind, scale, s, &cfg()).unwrap().cycles as f64;
        cycles(scheme) / cycles(SchemeKind::Unprotected)
    }

    #[test]
    fn fence_futuristic_is_slower_than_fence_spectre() {
        let spectre = normalized_time(WorkloadKind::PointerChase, 24, SchemeKind::FenceSpectre);
        let futuristic =
            normalized_time(WorkloadKind::PointerChase, 24, SchemeKind::FenceFuturistic);
        assert!(spectre >= 1.0, "defenses never speed things up: {spectre}");
        assert!(
            futuristic >= spectre,
            "futuristic ({futuristic:.2}x) must cost at least spectre ({spectre:.2}x)"
        );
    }

    #[test]
    fn stream_prefers_baseline_over_futuristic_fence() {
        let slowdown = normalized_time(WorkloadKind::Stream, 128, SchemeKind::FenceFuturistic);
        assert!(slowdown > 1.1, "fence cost visible: {slowdown:?}");
    }

    #[test]
    fn labels_round_trip_through_parse() {
        for kind in WorkloadKind::all() {
            assert_eq!(WorkloadKind::parse(kind.label()), Some(kind), "{kind:?}");
        }
        assert_eq!(WorkloadKind::parse("STREAM"), Some(WorkloadKind::Stream));
        assert_eq!(WorkloadKind::parse("nope"), None);
    }

    #[test]
    fn trace_labels_parse_and_run_deterministically() {
        assert_eq!(
            WorkloadKind::parse("trace-mixed"),
            Some(WorkloadKind::Trace(SampleTrace::Mixed))
        );
        for kind in WorkloadKind::traces() {
            let a = run(kind, 48, SchemeKind::DomSpectre, &cfg())
                .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
            let b = run(kind, 48, SchemeKind::DomSpectre, &cfg()).unwrap();
            assert_eq!(a, b, "{kind:?} not deterministic");
            assert!(a.cycles > 0 && a.retired > 0);
        }
    }

    #[test]
    fn sampled_trace_slowdown_tracks_full_replay() {
        // The acceptance bound documented in docs/TRACE_FORMAT.md:
        // per-scheme slowdown from sampled replay stays within 10% of
        // the full-trace slowdown.
        let trace = SampleTrace::Mixed.decode();
        let config = cfg();
        let slow = |scheme: SchemeKind, sampled: bool| -> f64 {
            let run = |s: SchemeKind| {
                if sampled {
                    si_trace::replay_sampled(&trace, &config, &|| s.build(), BUDGET)
                        .unwrap()
                        .cycles
                } else {
                    si_trace::replay_full(&trace, &config, s.build(), BUDGET)
                        .unwrap()
                        .cycles
                }
            };
            run(scheme) as f64 / run(SchemeKind::Unprotected) as f64
        };
        for scheme in [SchemeKind::FenceSpectre, SchemeKind::FenceFuturistic] {
            let full = slow(scheme, false);
            let sampled = slow(scheme, true);
            assert!(
                (sampled / full - 1.0).abs() < 0.10,
                "{scheme:?}: sampled slowdown {sampled:.3} vs full {full:.3}"
            );
        }
    }

    #[test]
    fn programs_are_deterministic_per_seed() {
        let a = WorkloadKind::BranchySort.program(32, 42);
        let b = WorkloadKind::BranchySort.program(32, 42);
        assert_eq!(a, b);
    }
}
