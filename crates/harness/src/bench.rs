//! `sia bench` — the repo's wall-clock microbenchmark suite and the
//! producer of the schema-versioned `BENCH_baseline.json` perf snapshot.
//!
//! Every tier is the reference or a measured tier of at least one gated
//! ratio in [`RATIOS`]; a layer no ratio reads is left to perfbench.
//! The tiers mirror the simulation hot path bottom-up:
//!
//! * **calib** — a fixed pure-integer loop (`calib/int_loop`) that runs
//!   no simulator code. Layers without a second production path to pair
//!   with are gated as *calib min ÷ tier min*: the host's speed cancels
//!   out, so the ratio moves only when the layer itself gets slower or
//!   faster;
//! * **policy** — per-access cost of the set-associative cache under each
//!   replacement policy (`policy_flat/*`), gated against the calibration
//!   kernel as one geomean over the four policies;
//! * **pipeline** — cycles/second of the out-of-order core on an ALU loop,
//!   driven through [`Machine::advance`] (`pipeline_advance`, the
//!   idle-cycle-skipping path) and through per-cycle [`Machine::step`]
//!   (`pipeline_step`) — their ratio is the event-skip speedup on a
//!   compute-bound kernel (memory-bound kernels skip far more); the
//!   `pipeline_step` tiers are also gated against the calibration kernel,
//!   as the absolute cost of a simulated cycle;
//! * **trial** — one scored MSHR attack-grid bit trial, the unit of every
//!   Monte-Carlo figure in the paper, forked from the cell's parked
//!   checkpoint (`trial_fork/*`, gated against the calibration kernel)
//!   and run from scratch (`trial_scratch/*`, the fork's reference);
//! * **engine** — empty-unit dispatch through the work-stealing
//!   scheduler (`engine_dispatch/*`), the per-unit overhead of every
//!   grid, gated against the calibration kernel;
//! * **store** — warm-lookup cost of the packed unit store
//!   (`store_lookup/*`, the in-memory index behind `sia serve`), gated
//!   against the calibration kernel;
//! * **trace** — replay of the committed `traces/mixed.sit` fixture in
//!   full (`trace_full/*`) and SimPoint-sampled (`trace_sampled/*`)
//!   mode — their ratio is the wall-clock return on simulating only the
//!   representative intervals.
//!
//! Wall-clock numbers are machine-dependent and are **not** covered by the
//! determinism contract; everything else in the emitted document is.

use std::time::Instant;

use si_cache::{CacheConfig, PolicyKind, SetAssocCache};
use si_cpu::{Machine, MachineConfig};
use si_isa::{Assembler, Program, R1, R2, R3};
use si_schemes::SchemeKind;

use crate::json::{arr, obj, Json};

/// Version stamp of the `BENCH_baseline.json` schema — the shared
/// result-file version ([`crate::json::SCHEMA_VERSION`]); the bench
/// document has carried its `kind: "bench"` discriminator since v1.
pub const BENCH_SCHEMA_VERSION: u64 = crate::json::SCHEMA_VERSION;

/// Default output path for the benchmark snapshot.
pub const BENCH_DEFAULT_PATH: &str = "BENCH_baseline.json";

/// `--against` fails when a speedup ratio falls below this fraction of
/// its baseline value (a > 25% regression).
pub const BENCH_FAIL_FRACTION: f64 = 0.75;

/// `--against` warns when a ratio falls below this fraction of its
/// baseline value (a > 10% regression).
pub const BENCH_WARN_FRACTION: f64 = 0.90;

/// Outcome of comparing a bench run against a baseline snapshot.
///
/// Only the derived **speedup ratios** are compared — they are
/// dimensionless (a reference tier's time over a measured tier's time on
/// the *same* machine and build), so a committed baseline from one
/// machine gates a CI run on another. Raw wall-clock numbers are
/// machine-dependent and deliberately ignored.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchComparison {
    /// Ratios that regressed past [`BENCH_FAIL_FRACTION`] (or vanished),
    /// plus baseline bench tiers the current build no longer emits.
    pub failures: Vec<String>,
    /// Ratios that regressed past [`BENCH_WARN_FRACTION`].
    pub warnings: Vec<String>,
    /// Ratios present in both documents and compared.
    pub checked: usize,
    /// Baseline bench tier ids missing from the current run (each is also
    /// a failure: a silently dropped tier must not pass the gate).
    pub missing_tiers: Vec<String>,
    /// Tier ids the current run emits that the baseline lacks — new
    /// benchmarks awaiting a baseline regeneration; informational only.
    pub new_tiers: Vec<String>,
}

impl BenchComparison {
    /// Whether the gate passes (warnings allowed, failures not).
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The sorted bench tier ids of a bench document (empty when the
/// document carries no `benches` array — old snapshots predate it).
fn bench_ids(doc: &Json) -> Vec<String> {
    let mut ids: Vec<String> = match doc.get("benches") {
        Some(Json::Arr(items)) => items
            .iter()
            .filter_map(|b| match b.get("id") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    ids.sort();
    ids
}

/// The `(name, ratio)` pairs of a bench document's flat `speedups`
/// object, as [`run_benches`] writes it.
fn speedup_ratios(doc: &Json, which: &str) -> Result<Vec<(String, f64)>, String> {
    let Some(Json::Obj(pairs)) = doc.get("speedups") else {
        return Err(format!("{which} document has no speedups object"));
    };
    let ratios: Vec<(String, f64)> = pairs
        .iter()
        .filter_map(|(name, v)| match v {
            Json::F64(r) => Some((name.clone(), *r)),
            _ => None,
        })
        .collect();
    if ratios.is_empty() {
        return Err(format!("{which} document has no speedup ratios"));
    }
    Ok(ratios)
}

/// Compares `current`'s speedup ratios against `baseline`'s (both full
/// bench documents). A ratio present in the baseline but missing from
/// the current run is a failure — a silently dropped benchmark must not
/// pass the gate.
///
/// # Errors
///
/// Errors when either document carries no `speedups` object.
pub fn compare_speedups(current: &Json, baseline: &Json) -> Result<BenchComparison, String> {
    let base = speedup_ratios(baseline, "baseline")?;
    let cur = speedup_ratios(current, "current")?;
    let mut cmp = BenchComparison::default();
    // Tier roll call before ratio math: every tier the baseline recorded
    // must still be emitted by the current build, or the gate fails —
    // a deleted benchmark would otherwise vanish without a trace (its
    // ratios might survive via other pairs, or never have had one).
    let base_ids = bench_ids(baseline);
    let cur_ids = bench_ids(current);
    for id in &base_ids {
        if !cur_ids.contains(id) {
            cmp.missing_tiers.push(id.clone());
            cmp.failures.push(format!(
                "tier {id}: in the baseline but not emitted by this build"
            ));
        }
    }
    for id in &cur_ids {
        if !base_ids.contains(id) {
            cmp.new_tiers.push(id.clone());
        }
    }
    for (name, base_ratio) in &base {
        let Some((_, cur_ratio)) = cur.iter().find(|(n, _)| n == name) else {
            cmp.failures
                .push(format!("{name}: missing from the current run"));
            continue;
        };
        cmp.checked += 1;
        let line = format!(
            "{name}: {cur_ratio:.2}x vs baseline {base_ratio:.2}x ({:+.1}%)",
            (cur_ratio / base_ratio - 1.0) * 100.0
        );
        if *cur_ratio < base_ratio * BENCH_FAIL_FRACTION {
            cmp.failures.push(line);
        } else if *cur_ratio < base_ratio * BENCH_WARN_FRACTION {
            cmp.warnings.push(line);
        }
    }
    Ok(cmp)
}

/// One measured benchmark.
struct Measured {
    id: String,
    samples: usize,
    mean_ns: u64,
    min_ns: u64,
    max_ns: u64,
    /// Work units per sample (accesses, cycles, or trials) for the
    /// normalized `ns_per_unit` figure.
    units: u64,
    unit: &'static str,
}

impl Measured {
    fn ns_per_unit(&self) -> f64 {
        self.mean_ns as f64 / self.units.max(1) as f64
    }

    fn to_json(&self) -> Json {
        obj([
            ("id", Json::from(self.id.as_str())),
            ("samples", Json::from(self.samples)),
            ("mean_ns", Json::from(self.mean_ns)),
            ("min_ns", Json::from(self.min_ns)),
            ("max_ns", Json::from(self.max_ns)),
            ("units_per_sample", Json::from(self.units)),
            ("unit", Json::from(self.unit)),
            ("ns_per_unit", Json::from(self.ns_per_unit())),
        ])
    }
}

/// A benchmark before it is timed: its id, the work units one sample
/// does (accesses, cycles, or trials), and the work itself.
struct Tier<'a> {
    id: String,
    units: u64,
    unit: &'static str,
    work: Box<dyn FnMut() + 'a>,
}

impl<'a> Tier<'a> {
    fn new(id: impl Into<String>, units: u64, unit: &'static str, work: impl FnMut() + 'a) -> Self {
        Tier {
            id: id.into(),
            units,
            unit,
            work: Box::new(work),
        }
    }
}

/// Times `tiers` round-robin after one untimed warmup pass: each of
/// `rounds` passes takes one sample of every tier. On a shared host,
/// memory- and branch-heavy code runs up to ~2× slower through busy
/// stretches that leave a pure-integer loop untouched; a tier timed in
/// one short burst can miss every quiet stretch, so its minimum would
/// depend on when it ran. Interleaved, every tier's samples span the
/// same stretch of machine time.
fn measure_round_robin(rounds: usize, mut tiers: Vec<Tier<'_>>) -> Vec<Measured> {
    for tier in &mut tiers {
        (tier.work)();
    }
    let mut times = vec![Vec::with_capacity(rounds); tiers.len()];
    for _ in 0..rounds {
        for (tier, times) in tiers.iter_mut().zip(&mut times) {
            let start = Instant::now();
            (tier.work)();
            times.push(start.elapsed().as_nanos() as u64);
        }
    }
    tiers
        .iter()
        .zip(times)
        .map(|(tier, times)| Measured {
            id: tier.id.clone(),
            samples: rounds,
            mean_ns: times.iter().sum::<u64>() / rounds.max(1) as u64,
            min_ns: times.iter().copied().min().unwrap_or(0),
            max_ns: times.iter().copied().max().unwrap_or(0),
            units: tier.units,
            unit: tier.unit,
        })
        .collect()
}

/// The policy benchmark runs `POLICY_REPS` cold-start passes of a
/// 1000-access mixed pattern per sample.
const POLICY_REPS: u64 = 10;
const POLICY_ACCESSES: u64 = POLICY_REPS * 1000;

fn policy_trace(mut access: impl FnMut(u64)) {
    for i in 0..1000u64 {
        access(i * 17 % 2048);
    }
}

fn policy_geometry(policy: PolicyKind) -> CacheConfig {
    CacheConfig::new(64, 16, policy)
}

fn policy_tiers() -> Vec<Tier<'static>> {
    let policies = [
        ("lru", PolicyKind::Lru),
        ("qlru_h11_m1_r0_u0", PolicyKind::qlru_h11_m1_r0_u0()),
        ("srrip", PolicyKind::Srrip),
        ("tree_plru", PolicyKind::TreePlru),
    ];
    policies
        .into_iter()
        .map(|(name, policy)| {
            // Each rep starts from an empty cache (the miss/fill-heavy
            // shape of a prime round): the flat storage resets its arena
            // in place.
            let mut flat = SetAssocCache::new("bench", policy_geometry(policy));
            let id = format!("policy_flat/{name}");
            Tier::new(id, POLICY_ACCESSES, "access", move || {
                for _ in 0..POLICY_REPS {
                    flat.reset();
                    policy_trace(|line| {
                        flat.access(line);
                    });
                }
            })
        })
        .collect()
}

fn alu_loop_program() -> Program {
    let mut asm = Assembler::new(0);
    asm.mov_imm(R1, 0);
    asm.mov_imm(R2, 2000);
    let top = asm.here("top");
    asm.add_imm(R1, R1, 1);
    asm.mul(R3, R1, R1);
    asm.branch_ltu(R1, R2, top);
    asm.halt();
    asm.assemble().expect("static program assembles")
}

/// A dependent pointer chase: each load's address is the previous load's
/// data, so exactly one miss is outstanding and the core idles for the
/// full memory latency between loads — the shape of every prime/probe
/// phase, and the case idle-cycle skipping exists for.
fn pointer_chase_program() -> Program {
    let mut asm = Assembler::new(0);
    const NODES: u64 = 64;
    const STRIDE: u64 = 4096;
    const BASE: u64 = 0x10_0000;
    for i in 0..NODES {
        asm.data_u64(BASE + i * STRIDE, BASE + ((i + 1) % NODES) * STRIDE);
    }
    asm.mov_imm(R1, BASE as i64);
    asm.mov_imm(R2, 200); // chase steps
    asm.mov_imm(R3, 0);
    let top = asm.here("top");
    asm.load(R1, R1, 0);
    asm.add_imm(R3, R3, 1);
    asm.branch_ltu(R3, R2, top);
    asm.halt();
    asm.assemble().expect("static program assembles")
}

/// The pipeline tiers over `programs` (`(name, program)` pairs): each
/// program through the idle-skipping and the per-cycle driver.
fn pipeline_tiers<'a>(programs: &'a [(&'static str, Program)]) -> Vec<Tier<'a>> {
    let mut tiers = Vec::new();
    for (name, program) in programs {
        let cycles = {
            let mut m = Machine::new(MachineConfig::default());
            m.load_program(0, program);
            m.run_core_to_halt(0, 1_000_000).expect("kernel halts")
        };
        tiers.push(Tier::new(
            format!("pipeline_advance/{name}"),
            cycles,
            "cycle",
            move || {
                let mut m = Machine::new(MachineConfig::default());
                m.load_program(0, program);
                m.run_core_to_halt(0, 1_000_000).expect("kernel halts");
            },
        ));
        tiers.push(Tier::new(
            format!("pipeline_step/{name}"),
            cycles,
            "cycle",
            move || {
                // Same driver, skipping disabled — bounded so a divergence
                // between the two modes fails fast instead of spinning.
                let mut m = Machine::new(MachineConfig {
                    disable_idle_skip: true,
                    ..MachineConfig::default()
                });
                m.load_program(0, program);
                m.run_core_to_halt(0, 1_000_000).expect("kernel halts");
            },
        ));
    }
    tiers
}

/// The attack-grid cell behind the MSHR trial tiers.
fn mshr_cell() -> si_attack::AttackScenario {
    si_attack::AttackScenario::new(
        si_attack::InterferenceVariant::MshrPressure,
        SchemeKind::InvisiSpecSpectre,
        si_cpu::GeometryPreset::KabyLake,
        si_cpu::NoisePreset::Quiet,
    )
}

/// The attack-trial tiers: one scored attack-grid bit trial (the
/// `sia attack` unit) of the MSHR cell, once on the `--no-checkpoint`
/// differential path (`scratch`) and once forked from the cell's parked
/// checkpoint as every grid trial is (`prepared`). Both emit the
/// byte-identical BitTrial; only the simulated-setup replay differs.
///
/// The scratch tier goes first: whichever trial tier directly follows
/// the pipeline tiers in a round reads slower, and the fork is the
/// cheaper, calibration-gated one. In four interleaved runs of each
/// order on a 2-vCPU VM, its minimum read 183–191 µs timed first and
/// 164–175 µs timed after the scratch trial.
fn trial_tiers<'a>(
    prepared: &'a si_attack::PreparedScenario,
    scratch: &'a si_attack::PreparedScenario,
) -> Vec<Tier<'a>> {
    vec![
        Tier::new("trial_scratch/attack_mshr_invisispec", 1, "trial", || {
            scratch.run_bit_trial(1, 42);
        }),
        Tier::new("trial_fork/attack_mshr_invisispec", 1, "trial", || {
            prepared.run_bit_trial(1, 42);
        }),
    ]
}

/// Units in one empty-dispatch sample: enough that per-unit scheduler
/// overhead dominates thread spawn/join.
const DISPATCH_UNITS: usize = 1_000_000;
/// Scheduler workers in the dispatch tier. A constant, so every host
/// dispatches the same work and the ratio compares across machines; two
/// is the fewest that exercise the scheduler (`threads <= 1` runs the
/// units inline).
const DISPATCH_THREADS: usize = 2;
/// Records in one warm store-lookup sample.
const STORE_UNITS: usize = 10_000;

/// Warm-lookup cost of the packed store (`store_lookup/*`): every probe
/// answers from the in-memory index, zero syscalls — the daemon's warm
/// path.
fn store_tier() -> Tier<'static> {
    let specs: Vec<si_engine::UnitSpec> = (0..STORE_UNITS)
        .map(|t| si_engine::UnitSpec {
            kind: "bench",
            key: "cell=warm-lookup".to_owned(),
            trial: t as u64,
            seed: (t as u64).wrapping_mul(0x9e37_79b9),
            config_digest: 0,
        })
        .collect();
    let dir = std::env::temp_dir().join(format!("si-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let packed = si_engine::PackStore::open(&dir);
    for spec in &specs {
        packed.store(spec, 1, &spec.trial.to_string());
    }
    packed.flush().expect("bench store flush");
    // Reopen so the timed lookups go through a store whose index was
    // built from disk, exactly like a daemon restarted over its packs.
    // Lookups never touch the disk again, so the files can go now.
    let packed = si_engine::PackStore::open(&dir);
    let _ = std::fs::remove_dir_all(&dir);
    Tier::new(
        "store_lookup/warm_10k",
        STORE_UNITS as u64,
        "lookup",
        move || {
            let mut hits = 0usize;
            for spec in &specs {
                hits += usize::from(packed.lookup(spec, 1).is_some());
            }
            assert_eq!(hits, STORE_UNITS);
        },
    )
}

/// Empty units through the scheduler: the measured cost is pure dispatch
/// (claim, call, slot write, reassembly), the overhead every real grid
/// pays per unit on top of its simulation work.
fn dispatch_tier() -> Tier<'static> {
    Tier::new(
        "engine_dispatch/empty_1m",
        DISPATCH_UNITS as u64,
        "unit",
        || {
            let v =
                si_engine::scheduler::run_indexed(DISPATCH_UNITS, DISPATCH_THREADS, |i| i as u64);
            assert_eq!(v.len(), DISPATCH_UNITS);
        },
    )
}

fn bench_trace(samples: usize, out: &mut Vec<Measured>) {
    let trace = si_workloads::SampleTrace::Mixed.decode();
    let config = MachineConfig::default();
    let budget = 30_000_000;
    let digest = si_workloads::SampleTrace::Mixed.content_digest();
    let warm_trace = si_workloads::SampleTrace::Mixed.decode_shared();
    let mut tiers = Vec::new();
    tiers.push(Tier::new(
        "trace_full/mixed",
        trace.total_instr,
        "instr",
        || {
            let o = si_trace::replay_full(&trace, &config, SchemeKind::Unprotected.build(), budget)
                .expect("fixture replays");
            assert_eq!(o.simulated_instr, trace.total_instr);
        },
    ));
    // Same normalization unit as the full tier — the sampled replay
    // *estimates* the whole trace, so ns-per-represented-instruction is
    // the figure a user of the estimate pays. This is the cold tier: the
    // full per-unit cost a sweep cell pays with the artifact cache
    // disabled — payload decode, the plan fast-forward, per-interval
    // machine warm-up, and the measured simulation.
    tiers.push(Tier::new(
        "trace_sampled/mixed",
        trace.total_instr,
        "instr",
        || {
            let t = si_workloads::SampleTrace::Mixed.decode();
            let o =
                si_trace::replay_sampled(&t, &config, &|| SchemeKind::Unprotected.build(), budget)
                    .expect("fixture replays");
            assert!(o.intervals_run > 0);
        },
    ));
    // Warm tier: the same unit against a hot artifact cache — the
    // decoded trace, replay plan, and every interval's simulated outcome
    // are memoized, so a warm call pays no machine fork and no
    // simulation: it hits the interval memo. The untimed warmup pass populates the cache;
    // results are byte-identical to the cold tier by contract. 32
    // replays per sample: a single warm replay is tens of microseconds,
    // so batching keeps the min-of-samples stable enough for the ratio
    // gate.
    const WARM_REPS: u64 = 32;
    tiers.push(Tier::new(
        "trace_sampled_warm/mixed",
        trace.total_instr * WARM_REPS,
        "instr",
        || {
            for _ in 0..WARM_REPS {
                let o = si_workloads::replay_trace_cached(
                    &warm_trace,
                    digest,
                    SchemeKind::Unprotected,
                    &config,
                    budget,
                )
                .expect("fixture replays");
                assert!(o.intervals_run > 0);
            }
        },
    ));
    out.extend(measure_round_robin(samples, tiers));
}

/// The calibration kernel's tier id.
const CALIB_ID: &str = "calib/int_loop";

/// Iterations of the calibration kernel per sample (~3 ms).
const CALIB_ITERS: u64 = 1 << 20;

/// Rounds of the calibration-gated tiers (about a second in all).
const CALIB_ROUNDS: usize = 64;

/// Rounds of the trace tiers. A round of them costs ~42 ms and no ratio
/// divides them by the calibration kernel, so they keep their own,
/// shorter round-robin.
const TRACE_ROUNDS: usize = 16;

/// The calibration kernel: a fixed xorshift stream folded into an
/// accumulator. Pure integer work — no memory traffic, no allocation, no
/// simulator code — so its time tracks only the host CPU.
fn calib_tier() -> Tier<'static> {
    Tier::new(CALIB_ID, CALIB_ITERS, "iter", || {
        let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
        let mut acc = 0u64;
        for _ in 0..std::hint::black_box(CALIB_ITERS) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(x);
        }
        std::hint::black_box(acc);
    })
}

/// The gated ratios: `(name, reference, measured prefix)`, each the
/// geomean over the measured tiers of *reference min ÷ tier min*. A
/// reference ending in `/` pairs each measured tier with the reference
/// tier of the same suffix; any other reference is one tier divided by
/// every measured tier (the calibration kernel). The three per-tier
/// `*_over_calib` rows hold the absolute cost of a simulated cycle and of
/// an attack trial.
#[rustfmt::skip]
const RATIOS: [(&str, &str, &str); 10] = [
    ("policy_flat_over_calib", CALIB_ID, "policy_flat/"),
    ("pipeline_step_alu_over_calib", CALIB_ID, "pipeline_step/alu_loop_2k"),
    ("pipeline_step_chase_over_calib", CALIB_ID, "pipeline_step/pointer_chase_200"),
    ("trial_mshr_over_calib", CALIB_ID, "trial_fork/attack_mshr_invisispec"),
    ("pipeline_advance_over_step", "pipeline_step/", "pipeline_advance/"),
    ("engine_dispatch_over_calib", CALIB_ID, "engine_dispatch/"),
    ("trial_fork_over_scratch", "trial_scratch/", "trial_fork/"),
    ("store_lookup_over_calib", CALIB_ID, "store_lookup/"),
    ("trace_sampled_over_full", "trace_full/", "trace_sampled/"),
    ("trace_warm_over_cold", "trace_sampled/", "trace_sampled_warm/"),
];

/// The reference tier id a [`RATIOS`] row with `reference` and `prefix`
/// divides the measured tier `tier_id` into.
fn reference_id(reference: &str, prefix: &str, tier_id: &str) -> String {
    if reference.ends_with('/') {
        format!("{reference}{}", &tier_id[prefix.len()..])
    } else {
        reference.to_owned()
    }
}

/// One [`RATIOS`] row's value, or `None` when no tier pairs up.
fn speedup(benches: &[Measured], reference: &str, prefix: &str) -> Option<f64> {
    let ratios: Vec<f64> = benches
        .iter()
        .filter(|b| b.id.starts_with(prefix))
        .filter_map(|tier| {
            let reference_id = reference_id(reference, prefix, &tier.id);
            let reference = benches.iter().find(|b| b.id == reference_id)?;
            // Ratio of minima: on a noisy shared machine the best observed
            // sample approximates the undisturbed cost far better than the
            // mean, which soaks up scheduler interference.
            Some(reference.min_ns as f64 / tier.min_ns.max(1) as f64)
        })
        .collect();
    if ratios.is_empty() {
        return None;
    }
    let log_sum: f64 = ratios.iter().map(|r| r.ln()).sum();
    Some((log_sum / ratios.len() as f64).exp())
}

/// Runs the benchmark suite and returns the `BENCH_baseline.json` document.
/// There is one sample count: the CI gate compares this run's ratios
/// against the committed baseline, so a cheaper, noisier mode would set
/// the gate's false-positive rate.
pub fn run_benches() -> Json {
    let programs = [
        ("alu_loop_2k", alu_loop_program()),
        ("pointer_chase_200", pointer_chase_program()),
    ];
    let prepared = mshr_cell().prepare();
    let mut scratch_cell = mshr_cell();
    scratch_cell.disable_checkpoint = true;
    let scratch = scratch_cell.prepare();
    // The calibration-gated tiers and the attack-trial tiers (with the
    // fork/scratch pair) are timed in one round-robin with the calibration
    // kernel, so host load hits both sides of each ratio alike.
    let mut gated = vec![calib_tier()];
    gated.extend(policy_tiers());
    gated.push(dispatch_tier());
    gated.push(store_tier());
    gated.extend(pipeline_tiers(&programs));
    gated.extend(trial_tiers(&prepared, &scratch));
    let mut benches = measure_round_robin(CALIB_ROUNDS, gated);
    bench_trace(TRACE_ROUNDS, &mut benches);

    let mut speedups = obj([]);
    for (name, reference, prefix) in RATIOS {
        if let Some(ratio) = speedup(&benches, reference, prefix) {
            speedups.push(name, Json::from(ratio));
        }
    }

    obj([
        ("schema_version", Json::from(BENCH_SCHEMA_VERSION)),
        ("kind", Json::from("bench")),
        (
            "benches",
            arr(benches.iter().map(Measured::to_json).collect::<Vec<_>>()),
        ),
        ("speedups", speedups),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;

    fn bench_doc(geomean: f64, advance: f64) -> Json {
        obj([(
            "speedups",
            obj([
                ("policy_flat_over_calib", Json::from(geomean)),
                ("pipeline_advance_over_step", Json::from(advance)),
            ]),
        )])
    }

    #[test]
    fn equal_ratios_pass_the_gate_cleanly() {
        let cmp = compare_speedups(&bench_doc(2.0, 2.7), &bench_doc(2.0, 2.7)).unwrap();
        assert!(cmp.passed());
        assert!(cmp.warnings.is_empty());
        assert_eq!(cmp.checked, 2);
    }

    #[test]
    fn regressions_warn_past_10_percent_and_fail_past_25() {
        // 15% down on one ratio: warn, still passing.
        let cmp = compare_speedups(&bench_doc(2.0 * 0.85, 2.7), &bench_doc(2.0, 2.7)).unwrap();
        assert!(cmp.passed());
        assert_eq!(cmp.warnings.len(), 1);
        // 30% down: fail.
        let cmp = compare_speedups(&bench_doc(2.0, 2.7 * 0.7), &bench_doc(2.0, 2.7)).unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.failures.len(), 1);
        assert!(cmp.failures[0].contains("pipeline_advance_over_step"));
        // Improvements never warn.
        let cmp = compare_speedups(&bench_doc(3.0, 4.0), &bench_doc(2.0, 2.7)).unwrap();
        assert!(cmp.passed() && cmp.warnings.is_empty());
    }

    /// Satellite gate hardening: a tier recorded in the baseline that
    /// this build no longer emits is a failure, and the comparison
    /// carries the full tier diff in both directions.
    #[test]
    fn dropped_bench_tiers_fail_the_gate_with_a_tier_diff() {
        let with_tiers = |ids: &[&str]| {
            let mut doc = bench_doc(2.0, 2.7);
            doc.push(
                "benches",
                arr(ids
                    .iter()
                    .map(|id| obj([("id", Json::from(*id))]))
                    .collect::<Vec<_>>()),
            );
            doc
        };
        let baseline = with_tiers(&["trial_e2e/a", "trial_fork/a", "checkpoint_restore/fork"]);
        let current = with_tiers(&["trial_e2e/a", "calib/int_loop"]);
        let cmp = compare_speedups(&current, &baseline).unwrap();
        assert!(!cmp.passed());
        assert_eq!(
            cmp.missing_tiers,
            ["checkpoint_restore/fork", "trial_fork/a"],
            "sorted baseline-only tiers"
        );
        assert_eq!(cmp.new_tiers, ["calib/int_loop"]);
        assert!(
            cmp.failures.iter().any(|f| f.contains("trial_fork/a")),
            "{:?}",
            cmp.failures
        );
        // Identical tier sets: clean pass, no diff.
        let cmp = compare_speedups(&baseline, &baseline).unwrap();
        assert!(cmp.passed() && cmp.missing_tiers.is_empty() && cmp.new_tiers.is_empty());
        // A baseline without a benches array (pre-tier snapshots) only
        // gates ratios.
        let cmp = compare_speedups(&current, &bench_doc(2.0, 2.7)).unwrap();
        assert!(cmp.passed());
        assert_eq!(cmp.new_tiers.len(), 2);
    }

    #[test]
    fn missing_ratios_fail_rather_than_silently_pass() {
        let current = obj([("speedups", obj([("only_this", Json::from(2.0))]))]);
        let cmp = compare_speedups(&current, &bench_doc(2.0, 2.7)).unwrap();
        assert!(!cmp.passed());
        assert_eq!(cmp.failures.len(), 2, "every baseline ratio is missing");
        assert!(compare_speedups(&obj([]), &bench_doc(2.0, 2.7)).is_err());
    }

    #[test]
    fn bench_emits_valid_versioned_json() {
        let doc = run_benches();
        let text = doc.to_pretty();
        let parsed = parse(&text).expect("bench document parses");
        assert_eq!(
            parsed.get("schema_version"),
            Some(&Json::from(BENCH_SCHEMA_VERSION))
        );
        assert_eq!(parsed.get("kind"), Some(&Json::from("bench")));
        let Some(Json::Arr(items)) = parsed.get("benches") else {
            panic!("benches not an array: {:?}", parsed.get("benches"));
        };
        assert!(items.len() >= 10, "bench set too small: {}", items.len());
        let num = |b: &Json, key: &str| match b.get(key) {
            Some(Json::I64(v)) => u64::try_from(*v).expect("a count"),
            Some(Json::U64(v)) => *v,
            other => panic!("{key} not a count: {other:?}"),
        };
        let mut ids = Vec::new();
        for b in items {
            let Some(Json::Str(id)) = b.get("id") else {
                panic!("tier without an id: {b:?}");
            };
            assert!(num(b, "min_ns") <= num(b, "mean_ns"), "{id}");
            assert!(num(b, "mean_ns") <= num(b, "max_ns"), "{id}");
            assert!(num(b, "samples") >= 1, "{id}");
            assert!(num(b, "units_per_sample") >= 1, "{id}");
            ids.push(id.as_str());
        }
        let speedups = parsed.get("speedups").expect("speedups present");
        for (name, _, _) in RATIOS {
            assert!(speedups.get(name).is_some(), "{name} missing");
        }
        for required in [CALIB_ID, "engine_dispatch/empty_1m"] {
            assert!(ids.contains(&required), "{required} missing");
        }
        // Every tier is timed for a gate: it is the reference or a
        // measured tier of at least one ratio row.
        for id in &ids {
            let gated = RATIOS.iter().any(|(_, reference, prefix)| {
                ids.iter()
                    .filter(|tier| tier.starts_with(prefix))
                    .any(|tier| {
                        let reference = reference_id(reference, prefix, tier);
                        ids.contains(&reference.as_str()) && (tier == id || reference == *id)
                    })
            });
            assert!(gated, "{id} feeds no ratio in RATIOS");
        }
    }
}
