//! The traced run: one job of every workload, re-executed layer by
//! layer.
//!
//! The benchmark calls each crate's public functions itself, with a span
//! around every call ([`Recorder`]), and derives the per-layer metrics
//! from those spans and from counters read at the same boundaries. Each
//! suite first runs its workload's job untraced, exactly as an untraced
//! run does, so it can report its own overhead and check that every
//! re-executed unit reproduces the untraced outcome (its cycles and, for
//! attack trials, its decoded bit). A unit that does not is a failure:
//! its per-layer numbers would describe a different program.

use std::collections::BTreeSet;
use std::sync::Barrier;
use std::time::Instant;

use si_attack::{leakage, AttackScenario, BitTrial};
use si_cache::{AccessClass, Hierarchy, Visibility};
use si_core::attacks::{Attack, AttackKind};
use si_core::matrix::run_cell;
use si_cpu::{Machine, MachineCheckpoint, MachineConfig};
use si_engine::{digest::fnv64, ArtifactCache, PackStore, UnitSpec};
use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::exec::{mix_seed, parallel_map};
use si_harness::json::{parse, Json};
use si_harness::render::render_doc;
use si_harness::scan::{run_scan, ScanJob};
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{registry, run_experiment, scheme_slug, Engine, RunConfig, CODE_EPOCH};
use si_http::client::Conn;
use si_isa::{Interpreter, R31};
use si_scan::{corpus, ScanConfig};
use si_schemes::SchemeKind;
use si_trace::{ReplayError, ReplayPlan, TraceFile};
use si_workloads::{replay_trace_cached, SampleTrace, WorkloadError, WorkloadKind};

use crate::checks::{self, items, text, DEFAULT_SEED};
use crate::serve_mixed::{self, exchange, oneshot, unit_counts, Class, Phase, POPULAR};
use crate::spans::{self, Recorder};
use crate::{stats, work_root, Ctx, Report};

/// Cycle budget of one kernel or trace unit (the workloads crate's).
const BUDGET: u64 = 30_000_000;

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let rec = Recorder::new();
    let mut report = Report::default();
    defense(ctx, &rec, &mut report)?;
    attack(ctx, &rec, &mut report)?;
    paper(ctx, &rec, &mut report)?;
    serve(ctx, &rec, &mut report)?;
    span_table(&rec, &mut report);
    let path = work_root().join(format!("trace-{}.json", ctx.workload));
    std::fs::write(&path, rec.chrome_json())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    report.notes.push(format!(
        "spans written to {} (Chrome trace-event JSON)",
        path.display()
    ));
    Ok(report)
}

/// [`Recorder::time`] that also returns the span's duration in
/// nanoseconds.
fn timed<T>(
    rec: &Recorder,
    name: &str,
    parent: Option<u32>,
    job: u64,
    f: impl FnOnce(u32) -> T,
) -> (T, u64) {
    rec.time(name, parent, job, |id| {
        let t = Instant::now();
        let out = f(id);
        (out, t.elapsed().as_nanos() as u64)
    })
}

/// Median duration of the spans named `name`, in milliseconds.
fn median_ms(rec: &Recorder, name: &str) -> f64 {
    stats::median(&rec.durations(name)).unwrap_or(0.0) / 1e6
}

fn total_ns(rec: &Recorder, name: &str) -> f64 {
    rec.durations(name).iter().sum()
}

fn count(rec: &Recorder, name: &str) -> usize {
    rec.durations(name).len()
}

/// Checks re-executed outcomes against the untraced job's unit store.
fn reproduce<'a>(
    report: &mut Report,
    what: &str,
    reference: &PackStore,
    units: impl Iterator<Item = (&'a UnitSpec, String)>,
) {
    let mut total = 0;
    let mut differ = 0;
    for (spec, payload) in units {
        total += 1;
        if reference.lookup(spec, CODE_EPOCH).as_deref() != Some(payload.as_str()) {
            differ += 1;
        }
    }
    report.attempted += total;
    if differ > 0 {
        report.fail(
            differ,
            format!("{what}: {differ} of {total} re-executed units differ from the untraced job"),
        );
    }
}

// ---------------------------------------------------------------- defense

/// One unit of the defense grid, compiled exactly as `run_sweep`
/// compiles it (same keys, seeds and config digests).
struct SweepUnit {
    spec: UnitSpec,
    workload: WorkloadKind,
    scheme: SchemeKind,
    predictor: &'static str,
    cfg: MachineConfig,
}

fn sweep_units(grid: &GridSpec, seed: u64) -> Vec<SweepUnit> {
    let columns: Vec<SchemeKind> = std::iter::once(SchemeKind::Unprotected)
        .chain(grid.schemes.iter().copied())
        .collect();
    let mut units = Vec::new();
    for &geometry in &grid.geometries {
        for &noise in &grid.noises {
            for &predictor in &grid.predictors {
                for &workload in &grid.workloads {
                    let base = MachineConfig::from_presets(geometry, noise, predictor);
                    let mut digest = fnv64(base.fingerprint().as_bytes());
                    if let WorkloadKind::Trace(t) = workload {
                        digest ^= t.content_digest();
                    }
                    for &scheme in &columns {
                        for trial in 0..grid.trials.max(1) {
                            let spec = UnitSpec {
                                kind: "sweep",
                                key: format!(
                                    "scheme={} workload={} geometry={} noise={} predictor={} scale={}",
                                    scheme_slug(scheme),
                                    workload.label(),
                                    geometry.slug(),
                                    noise.slug(),
                                    predictor.slug(),
                                    grid.scale
                                ),
                                trial: trial as u64,
                                seed: mix_seed(seed, units.len() as u64),
                                config_digest: digest,
                            };
                            let mut cfg = base.clone();
                            cfg.noise.seed = spec.seed;
                            units.push(SweepUnit {
                                spec,
                                workload,
                                scheme,
                                predictor: predictor.slug(),
                                cfg,
                            });
                        }
                    }
                }
            }
        }
    }
    units
}

/// What re-executing one sweep unit produced.
#[derive(Debug, Clone, Default)]
struct SweepOutcome {
    /// The unit's store payload (`ok <cycles>` or `err <message>`).
    payload: String,
    cycles: u64,
    /// Instructions the reference interpreter retired (kernels), or the
    /// trace's recorded instruction count (traces).
    instructions: u64,
    interp_ns: u64,
    model_ns: u64,
}

impl SweepOutcome {
    fn new(
        outcome: Result<u64, WorkloadError>,
        instructions: u64,
        interp_ns: u64,
        model_ns: u64,
    ) -> SweepOutcome {
        SweepOutcome {
            payload: match &outcome {
                Ok(cycles) => format!("ok {cycles}"),
                Err(e) => format!("err {e}"),
            },
            cycles: outcome.unwrap_or(0),
            instructions,
            interp_ns,
            model_ns,
        }
    }
}

/// Re-executes one unit the way `si_workloads::run` does, one span per
/// layer call.
fn exec_sweep_unit(
    rec: &Recorder,
    parent: u32,
    i: usize,
    u: &SweepUnit,
    scale: usize,
) -> SweepOutcome {
    let job = i as u64;
    rec.time("engine.unit_exec", Some(parent), job, |me| {
        let me = Some(me);
        let (program, _) = timed(rec, "workloads.program", me, job, |_| {
            u.workload.program(scale, 42)
        });
        if let WorkloadKind::Trace(t) = u.workload {
            let (trace, _) = timed(rec, "trace.decode_shared", me, job, |_| t.decode_shared());
            let (out, model_ns) = timed(rec, "trace.replay", me, job, |_| {
                replay_trace_cached(&trace, t.content_digest(), u.scheme, &u.cfg, BUDGET)
            });
            let outcome = out.map(|o| o.cycles).map_err(|e| match e {
                ReplayError::Timeout { cycle_limit } => WorkloadError::Timeout(cycle_limit),
                ReplayError::Interp(_) => WorkloadError::ChecksumMismatch {
                    got: 0,
                    expected: 1,
                },
            });
            return SweepOutcome::new(outcome, trace.total_instr, 0, model_ns);
        }
        let (reference, interp_ns) = timed(rec, "isa.interp.run", me, job, |_| {
            let mut r = Interpreter::new(&program);
            r.run(BUDGET).map(|()| (r.reg(R31), r.retired()))
        });
        let Ok((expected, retired)) = reference else {
            return SweepOutcome {
                payload: "err reference interpreter did not complete".to_owned(),
                ..SweepOutcome::default()
            };
        };
        let (mut m, _) = timed(rec, "cpu.machine_build", me, job, |_| {
            let mut m = Machine::new(u.cfg.clone());
            m.load_program_with_scheme(0, &program, u.scheme.build());
            m
        });
        let (run, model_ns) = timed(rec, "cpu.run_core_to_halt", me, job, |_| {
            m.run_core_to_halt(0, BUDGET)
        });
        let outcome = run.map_err(WorkloadError::from).and_then(|cycles| {
            let got = m.core(0).reg(R31);
            if got == expected {
                Ok(cycles)
            } else {
                Err(WorkloadError::ChecksumMismatch { got, expected })
            }
        });
        SweepOutcome::new(outcome, retired, interp_ns, model_ns)
    })
}

fn defense(ctx: &Ctx, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let grid = GridSpec::named("defense")?;
    let seed = DEFAULT_SEED;

    ArtifactCache::global().clear();
    let ref_engine = Engine::with_cache(ctx.threads, CODE_EPOCH, ctx.fresh_dir("ref-store"));
    let t = Instant::now();
    let (doc, _) = run_sweep(&grid, seed, &ref_engine)?;
    let untraced_s = t.elapsed().as_secs_f64();
    if let Err(e) = checks::check_pinned("defense-sweep", &doc.to_pretty()) {
        report.fail(0, e);
    }

    ArtifactCache::global().clear();
    let units = sweep_units(&grid, seed);
    let specs: Vec<UnitSpec> = units.iter().map(|u| u.spec.clone()).collect();
    let engine = Engine::with_cache(ctx.threads, CODE_EPOCH, ctx.fresh_dir("traced-store"));
    let ((outcomes, _), traced_ns) = timed(rec, "engine.run_units", None, 0, |parent| {
        engine.run_units(
            &specs,
            |i| exec_sweep_unit(rec, parent, i, &units[i], grid.scale),
            |o| Some(o.payload.clone()),
            |p| {
                Some(SweepOutcome {
                    payload: p.to_owned(),
                    ..SweepOutcome::default()
                })
            },
        )
    });
    let artifact = ArtifactCache::global().stats();
    let reference = ref_engine
        .store()
        .ok_or("the reference engine has no store")?;
    reproduce(
        report,
        "defense sweep",
        reference,
        units
            .iter()
            .zip(&outcomes)
            .map(|(u, o)| (&u.spec, o.payload.clone())),
    );

    // Simulator cost per kernel and per scheme column.
    let kernel_units: Vec<(&SweepUnit, &SweepOutcome)> = units
        .iter()
        .zip(&outcomes)
        .filter(|(u, _)| !matches!(u.workload, WorkloadKind::Trace(_)))
        .collect();
    let ns_per_cycle = |keep: &dyn Fn(&SweepUnit) -> bool| -> (f64, usize) {
        let picked: Vec<&SweepOutcome> = kernel_units
            .iter()
            .filter(|(u, _)| keep(u))
            .map(|(_, o)| *o)
            .collect();
        let ns: u64 = picked.iter().map(|o| o.model_ns).sum();
        let cycles: u64 = picked.iter().map(|o| o.cycles).sum();
        (ns as f64 / cycles.max(1) as f64, picked.len())
    };
    for kernel in WorkloadKind::all() {
        let (v, n) = ns_per_cycle(&|u| u.workload == kernel);
        report.metric(
            format!("cpu.ns_per_cycle.{}", kernel.label()),
            v,
            "ns/cycle",
            n,
        );
    }
    for scheme in std::iter::once(SchemeKind::Unprotected).chain(grid.schemes.iter().copied()) {
        let (v, n) = ns_per_cycle(&|u| u.scheme == scheme);
        report.metric(
            format!("cpu.ns_per_cycle.{}", scheme_slug(scheme)),
            v,
            "ns/cycle",
            n,
        );
    }
    let sim_cycles: u64 = kernel_units.iter().map(|(_, o)| o.cycles).sum();
    report.metric(
        "cpu.sim_cycles",
        sim_cycles as f64,
        "count",
        kernel_units.len(),
    );
    let interp_ns: u64 = kernel_units.iter().map(|(_, o)| o.interp_ns).sum();
    let retired: u64 = kernel_units.iter().map(|(_, o)| o.instructions).sum();
    report.metric(
        "isa.interp.ns_per_instr",
        interp_ns as f64 / retired.max(1) as f64,
        "ns/instr",
        kernel_units.len(),
    );
    // Each kernel's reference program is a pure function of (kernel,
    // scale), so every call past the first per kernel redoes work.
    let distinct: BTreeSet<&str> = kernel_units
        .iter()
        .map(|(u, _)| u.workload.label())
        .collect();
    report.metric(
        "isa.interp.useful_frac",
        distinct.len() as f64 / kernel_units.len().max(1) as f64,
        "fraction",
        kernel_units.len(),
    );
    report.metric(
        "trace.replay_ms",
        median_ms(rec, "trace.replay"),
        "ms",
        count(rec, "trace.replay"),
    );
    for ns in ["trace", "program", "plan", "checkpoint", "interval"] {
        let (hits, misses) = artifact
            .iter()
            .find(|s| s.namespace == ns)
            .map_or((0, 0), |s| (s.hits, s.misses));
        let frac = if hits + misses > 0 {
            hits as f64 / (hits + misses) as f64
        } else {
            0.0
        };
        report.metric(
            format!("artifact.hit_frac.{ns}"),
            frac,
            "fraction",
            (hits + misses) as usize,
        );
    }
    let spans = rec.spans();
    let selfs = spans::self_ns(&spans);
    let run_units_self = spans
        .iter()
        .filter(|s| s.name == "engine.run_units")
        .map(|s| selfs[&s.id])
        .sum::<u64>();
    report.metric(
        "engine.overhead_us_per_unit",
        run_units_self as f64 / 1e3 / units.len() as f64,
        "us/unit",
        units.len(),
    );

    // Layer probes outside the job: trace decode and plan build, cache
    // accesses, checkpoints of a machine parked mid-kernel, the store.
    let mut plan_ns = Vec::new();
    let mut accesses = 0u64;
    for t in SampleTrace::all() {
        let mut builds = Vec::new();
        for rep in 0..3 {
            let trace = rec
                .time("trace.decode", None, rep, |_| TraceFile::decode(t.bytes()))
                .map_err(|e| format!("{}: {e:?}", t.label()))?;
            let (plan, ns) = timed(rec, "trace.plan", None, rep, |_| ReplayPlan::build(&trace));
            plan.map_err(|e| format!("{}: {e:?}", t.label()))?;
            builds.push(ns as f64);
        }
        plan_ns.push((t, stats::median(&builds).unwrap_or(0.0)));
        let trace = t.decode();
        let mut h = Hierarchy::new(MachineConfig::default().hierarchy.clone());
        rec.time("cache.read", None, 0, |_| {
            for (k, a) in trace.accesses.iter().enumerate() {
                std::hint::black_box(h.read(
                    k as u64 * 4,
                    0,
                    a.addr,
                    AccessClass::Data,
                    Visibility::Visible,
                ));
            }
        });
        accesses += trace.accesses.len() as u64;
    }
    report.metric(
        "trace.decode_ms",
        median_ms(rec, "trace.decode"),
        "ms",
        count(rec, "trace.decode"),
    );
    report.metric(
        "trace.plan_ms",
        median_ms(rec, "trace.plan"),
        "ms",
        count(rec, "trace.plan"),
    );
    report.metric(
        "cache.ns_per_access",
        total_ns(rec, "cache.read") / accesses.max(1) as f64,
        "ns/access",
        accesses as usize,
    );
    for (kernel, o) in kernel_units
        .iter()
        .filter(|(u, _)| u.scheme == SchemeKind::Unprotected && u.predictor == "p1k")
        .map(|(u, o)| (u.workload, *o))
    {
        let mut m = Machine::new(MachineConfig::default());
        m.load_program_with_scheme(
            0,
            &kernel.program(grid.scale, 42),
            SchemeKind::Unprotected.build(),
        );
        m.run_cycles(o.cycles / 2);
        for rep in 0..5 {
            let ck = rec.time("cpu.checkpoint.capture", None, rep, |_| {
                MachineCheckpoint::capture(&m)
            });
            let forked = rec.time("cpu.checkpoint.fork", None, rep, |_| ck.fork_with_seed(rep));
            drop(forked);
        }
    }
    report.metric(
        "cpu.checkpoint.capture_us",
        median_ms(rec, "cpu.checkpoint.capture") * 1e3,
        "us",
        count(rec, "cpu.checkpoint.capture"),
    );
    report.metric(
        "cpu.checkpoint.fork_us",
        median_ms(rec, "cpu.checkpoint.fork") * 1e3,
        "us",
        count(rec, "cpu.checkpoint.fork"),
    );
    let dir = ctx.fresh_dir("probe-store");
    let store = PackStore::open(&dir);
    for (u, o) in units.iter().zip(&outcomes) {
        store.store(&u.spec, CODE_EPOCH, &o.payload);
    }
    rec.time("engine.store.flush", None, 0, |_| store.flush())
        .map_err(|e| format!("flushing the probe store: {e}"))?;
    let reopened = rec.time("engine.store.open", None, 0, |_| PackStore::open(&dir));
    let found = rec.time("engine.store.lookup", None, 0, |_| {
        specs
            .iter()
            .filter(|s| reopened.lookup(s, CODE_EPOCH).is_some())
            .count()
    });
    if found != specs.len() {
        report.fail(
            0,
            format!("probe store: {found} of {} lookups hit", specs.len()),
        );
    }
    report.metric(
        "engine.store.open_ms",
        median_ms(rec, "engine.store.open"),
        "ms",
        1,
    );
    report.metric(
        "engine.store.lookup_us",
        total_ns(rec, "engine.store.lookup") / 1e3 / specs.len() as f64,
        "us",
        specs.len(),
    );
    report.metric(
        "engine.store.flush_ms",
        median_ms(rec, "engine.store.flush"),
        "ms",
        1,
    );
    report.metric(
        "engine.store.kb",
        reopened.stats(CODE_EPOCH).live_bytes as f64 / 1024.0,
        "KiB",
        specs.len(),
    );
    report.metric(
        "traced.overhead_s.defense-sweep",
        traced_ns as f64 / 1e9 - untraced_s,
        "s",
        1,
    );
    overhead_table(report, &kernel_units, &units, &outcomes, &plan_ns);
    Ok(())
}

/// The per-kernel overhead table (unprotected column, `p1k`): one row
/// per kernel and per trace fixture, as markdown.
fn overhead_table(
    report: &mut Report,
    kernel_units: &[(&SweepUnit, &SweepOutcome)],
    units: &[SweepUnit],
    outcomes: &[SweepOutcome],
    plan_ns: &[(SampleTrace, f64)],
) {
    let mut lines = vec![
        "Per-kernel overhead (defense grid, scale 48, unprotected column, p1k predictor):".to_owned(),
        String::new(),
        "| row | instructions | simulated cycles | interpreter ms | OoO model ms | model ÷ interpreter |".to_owned(),
        "|---|---|---|---|---|---|".to_owned(),
    ];
    let row = |name: &str, instr: u64, cycles: u64, interp_ns: f64, model_ns: f64| {
        format!(
            "| {name} | {instr} | {cycles} | {:.3} | {:.3} | {:.0}× |",
            interp_ns / 1e6,
            model_ns / 1e6,
            model_ns / interp_ns.max(1.0)
        )
    };
    for (u, o) in kernel_units
        .iter()
        .filter(|(u, _)| u.scheme == SchemeKind::Unprotected && u.predictor == "p1k")
    {
        lines.push(row(
            u.workload.label(),
            o.instructions,
            o.cycles,
            o.interp_ns as f64,
            o.model_ns as f64,
        ));
    }
    for (u, o) in units.iter().zip(outcomes) {
        let WorkloadKind::Trace(t) = u.workload else {
            continue;
        };
        if u.scheme != SchemeKind::Unprotected || u.predictor != "p1k" {
            continue;
        }
        let interp = plan_ns
            .iter()
            .find(|(p, _)| *p == t)
            .map_or(0.0, |(_, ns)| *ns);
        lines.push(row(
            t.label(),
            o.instructions,
            o.cycles,
            interp,
            o.model_ns as f64,
        ));
    }
    lines.push(String::new());
    lines.push(
        "Trace rows: instructions are the recorded trace's; cycles are the sampled estimate; the \
         interpreter column is the replay plan's fast-forward (ReplayPlan::build); the model column \
         is replay_trace_cached on an empty artifact cache, so it includes that plan build and the \
         warm checkpoints."
            .to_owned(),
    );
    report.notes.extend(lines);
}

// ----------------------------------------------------------------- attack

fn attack(ctx: &Ctx, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let grid = AttackGrid::named("headline")?;
    let seed = DEFAULT_SEED;

    ArtifactCache::global().clear();
    let ref_engine = Engine::with_cache(ctx.threads, CODE_EPOCH, ctx.fresh_dir("ref-store"));
    let t = Instant::now();
    let (doc, _) = run_attack_grid(&grid, seed, &ref_engine)?;
    let untraced_s = t.elapsed().as_secs_f64();
    if let Err(e) =
        checks::check_fixture("attack-headline", &doc.to_pretty(), checks::ATTACK_HEADLINE)
    {
        report.fail(0, e);
    }

    // The grid's cells in `run_attack_grid` order: rows (geometry ×
    // noise × variant), then schemes.
    let mut cells: Vec<AttackScenario> = Vec::new();
    for &geometry in &grid.geometries {
        for &noise in &grid.noises {
            for &variant in &grid.variants {
                for &scheme in &grid.schemes {
                    let mut cell = AttackScenario::new(variant, scheme, geometry, noise);
                    cell.disable_checkpoint = grid.disable_checkpoint;
                    cells.push(cell);
                }
            }
        }
    }
    let trials = grid.trials.max(1);
    let bits = leakage::secret_bits(trials, seed);

    ArtifactCache::global().clear();
    let (outcomes, traced_ns): (Vec<Vec<BitTrial>>, u64) =
        timed(rec, "attack.job", None, 0, |job| {
            parallel_map(cells.len(), ctx.threads, |c| {
                let prepared = rec.time("attack.prepare", Some(job), c as u64, |_| {
                    cells[c].prepare()
                });
                (0..trials)
                    .map(|trial| {
                        let i = (c * trials + trial) as u64;
                        rec.time("attack.run_bit_trial", Some(job), i, |_| {
                            prepared.run_bit_trial(bits[trial], mix_seed(seed, i))
                        })
                    })
                    .collect()
            })
        });
    let reference = ref_engine
        .store()
        .ok_or("the reference engine has no store")?;
    let mut checked: Vec<(UnitSpec, String)> = Vec::new();
    for (c, cell) in cells.iter().enumerate() {
        let digest = fnv64(cell.machine().fingerprint().as_bytes());
        for (trial, bt) in outcomes[c].iter().enumerate() {
            let spec = UnitSpec {
                kind: "attack",
                key: format!(
                    "variant={} scheme={} geometry={} noise={} bit={}",
                    cell.variant.slug(),
                    scheme_slug(cell.scheme),
                    cell.geometry.slug(),
                    cell.noise.slug(),
                    bits[trial]
                ),
                trial: trial as u64,
                seed: mix_seed(seed, (c * trials + trial) as u64),
                config_digest: digest,
            };
            let decoded = bt.decoded.map_or("-".to_owned(), |d| d.to_string());
            checked.push((spec, format!("{} {decoded} {}", bt.secret, bt.cycles)));
        }
    }
    reproduce(
        report,
        "attack grid",
        reference,
        checked.iter().map(|(s, p)| (s, p.clone())),
    );

    // si-core calls that `prepare` and `run_bit_trial` make, timed
    // one by one on each cell.
    for (c, cell) in cells.iter().enumerate() {
        let c = c as u64;
        let mut attack = Attack::new(cell.variant.attack_kind(), cell.scheme, cell.machine());
        if attack.attacker_provides_reference() {
            let delta = rec.time("core.calibrate", None, c, |_| attack.calibrate());
            attack.reference_delta = Some(delta);
        }
        if !attack.checkpointable() {
            continue;
        }
        for secret in 0..2 {
            let Some(ck) = rec.time("core.checkpoint_trial", None, c, |_| {
                attack.checkpoint_trial(secret)
            }) else {
                continue;
            };
            for k in 0..3 {
                attack.machine.noise.seed = mix_seed(seed, k);
                rec.time("core.trial_from", None, c, |_| attack.run_trial_from(&ck));
            }
        }
    }
    report.metric(
        "core.calibrate_ms",
        median_ms(rec, "core.calibrate"),
        "ms",
        count(rec, "core.calibrate"),
    );
    report.metric(
        "core.checkpoint_trial_ms",
        median_ms(rec, "core.checkpoint_trial"),
        "ms",
        count(rec, "core.checkpoint_trial"),
    );
    report.metric(
        "core.trial_from_us",
        median_ms(rec, "core.trial_from") * 1e3,
        "us",
        count(rec, "core.trial_from"),
    );
    report.metric(
        "attack.prepare_ms",
        median_ms(rec, "attack.prepare"),
        "ms",
        count(rec, "attack.prepare"),
    );
    report.metric(
        "attack.trial_us",
        median_ms(rec, "attack.run_bit_trial") * 1e3,
        "us",
        count(rec, "attack.run_bit_trial"),
    );
    let prepare = total_ns(rec, "attack.prepare");
    let trial = total_ns(rec, "attack.run_bit_trial");
    report.metric(
        "attack.prepare_frac",
        prepare / (prepare + trial),
        "fraction",
        cells.len(),
    );
    report.metric(
        "traced.overhead_s.attack-headline",
        traced_ns as f64 / 1e9 - untraced_s,
        "s",
        1,
    );
    Ok(())
}

// ------------------------------------------------------------------ paper

fn paper(ctx: &Ctx, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let cfg = RunConfig {
        trials: None,
        threads: ctx.threads,
        seed: DEFAULT_SEED,
        scheme: None,
    };
    let exps = registry();

    ArtifactCache::global().clear();
    let t = Instant::now();
    let reference: Vec<Result<String, String>> = exps
        .iter()
        .map(|e| run_experiment(e.as_ref(), &cfg).map(|d| d.to_pretty()))
        .collect();
    let untraced_s = t.elapsed().as_secs_f64();
    for (e, doc) in exps.iter().zip(&reference) {
        let verdict = doc
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|text| match e.id() {
                "fig09" => checks::check_fixture("fig09", text, checks::FIG09),
                id => checks::check_pinned(&format!("experiment.{id}"), text),
            });
        if let Err(err) = verdict {
            report.fail(0, err);
        }
    }

    ArtifactCache::global().clear();
    let (traced, traced_ns) = timed(rec, "paper.job", None, 0, |job| {
        exps.iter()
            .enumerate()
            .map(|(k, e)| {
                rec.time(
                    &format!("harness.run_experiment.{}", e.id()),
                    Some(job),
                    k as u64,
                    |_| run_experiment(e.as_ref(), &cfg).map(|d| d.to_pretty()),
                )
            })
            .collect::<Vec<_>>()
    });
    for ((e, got), want) in exps.iter().zip(&traced).zip(&reference) {
        report.attempted += 1;
        if got.is_err() || got != want {
            report.fail(
                1,
                format!(
                    "{}: the re-executed document differs from the untraced one",
                    e.id()
                ),
            );
        }
        report.metric(
            format!("harness.experiment_ms.{}", e.id()),
            median_ms(rec, &format!("harness.run_experiment.{}", e.id())),
            "ms",
            1,
        );
    }

    // Table 1's cells through matrix::run_cell, against the untraced
    // table1 document.
    let machine = MachineConfig::default();
    let attacks = AttackKind::interference_attacks();
    let pairs: Vec<(SchemeKind, AttackKind)> = SchemeKind::invisible_schemes()
        .into_iter()
        .chain([
            SchemeKind::FenceSpectre,
            SchemeKind::FenceFuturistic,
            SchemeKind::Advanced,
        ])
        .flat_map(|s| attacks.iter().map(move |a| (s, *a)))
        .collect();
    let cells = parallel_map(pairs.len(), ctx.threads, |i| {
        rec.time("core.matrix_cell", None, i as u64, |_| {
            run_cell(pairs[i].0, pairs[i].1, &machine)
        })
    });
    let table1 = exps
        .iter()
        .position(|e| e.id() == "table1")
        .and_then(|k| reference[k].as_ref().ok())
        .and_then(|text| parse(text).ok())
        .ok_or("no untraced table1 document")?;
    let result = table1.get("result");
    let entries: Vec<&Json> = items(result.and_then(|r| r.get("matrix")))
        .iter()
        .chain(items(result.and_then(|r| r.get("defense_check"))))
        .collect();
    let mut differ = 0;
    for c in &cells {
        let entry = entries.iter().find(|e| {
            text(e.get("scheme")) == Some(scheme_slug(c.scheme))
                && text(e.get("attack")) == Some(c.attack.label())
        });
        let same = entry.is_some_and(|e| {
            e.get("leaks") == Some(&Json::from(c.leaks))
                && e.get("decoded_secret0") == Some(&Json::from(c.decoded[0]))
                && e.get("decoded_secret1") == Some(&Json::from(c.decoded[1]))
        });
        differ += u64::from(!same);
    }
    report.attempted += cells.len() as u64;
    if differ > 0 {
        report.fail(
            differ,
            format!("table1: {differ} re-run cells differ from the document"),
        );
    }

    // Scratch and traced trials of each interference attack.
    for (k, kind) in attacks.iter().enumerate() {
        let k = k as u64;
        let mut quiet = machine.clone();
        quiet.noise.dram_jitter = 0;
        quiet.noise.background_period = 0;
        let mut attack = Attack::new(*kind, SchemeKind::Unprotected, quiet);
        if attack.attacker_provides_reference() {
            attack.reference_delta = Some(attack.calibrate());
        }
        for secret in 0..2 {
            rec.time("core.run_trial", None, k, |_| attack.run_trial(secret));
        }
        rec.time("core.run_traced", None, k, |_| attack.run_traced(1));
    }
    report.metric(
        "core.trial_scratch_ms",
        median_ms(rec, "core.run_trial"),
        "ms",
        count(rec, "core.run_trial"),
    );
    report.metric(
        "core.traced_trial_ms",
        median_ms(rec, "core.run_traced"),
        "ms",
        count(rec, "core.run_traced"),
    );
    report.metric(
        "core.matrix_cell_ms",
        median_ms(rec, "core.matrix_cell"),
        "ms",
        count(rec, "core.matrix_cell"),
    );
    report.metric(
        "traced.overhead_s.paper-run",
        traced_ns as f64 / 1e9 - untraced_s,
        "s",
        1,
    );
    Ok(())
}

// ------------------------------------------------------------------ serve

/// Runs a popular body's job in-process, as the daemon would.
fn run_popular(p: usize, engine: &Engine) -> Result<Json, String> {
    let doc = match p {
        0 => {
            let mut grid = GridSpec::named("defense")?;
            grid.quick();
            run_sweep(&grid, DEFAULT_SEED, engine)?.0
        }
        1 => run_sweep(&GridSpec::named("trace")?, DEFAULT_SEED, engine)?.0,
        2 => run_attack_grid(&AttackGrid::named("headline")?, DEFAULT_SEED, engine)?.0,
        _ => run_scan(&ScanJob::standard(), DEFAULT_SEED, engine)?.0,
    };
    Ok(doc)
}

fn serve(ctx: &Ctx, rec: &Recorder, report: &mut Report) -> Result<(), String> {
    let expected = serve_mixed::expected()?;
    let (daemon, _) = serve_mixed::start_daemon(ctx, &expected, report)?;
    let addr = daemon.addr();
    let untraced = serve_mixed::replay(ctx, addr, &expected, 0, Some(1), None);
    let traced = serve_mixed::replay(ctx, addr, &expected, 1, Some(1), Some(rec));
    serve_mixed::verify(ctx, &untraced, report);
    serve_mixed::verify(ctx, &traced, report);
    for class in Class::ALL {
        let ms: Vec<f64> = traced
            .samples
            .iter()
            .filter(|s| s.class == class && s.error.is_none())
            .map(|s| s.ms)
            .collect();
        report.metric(
            format!("serve.p50_ms.{}", class.label()),
            stats::median(&ms).unwrap_or(0.0),
            "ms",
            ms.len(),
        );
    }

    // si-http round trips: keep-alive and fresh connections.
    let mut conn = Conn::connect(&addr).map_err(|e| format!("connecting: {e}"))?;
    for k in 0..200 {
        let resp = rec
            .time("http.healthz_keepalive", None, k, |_| {
                exchange(&mut conn, "GET", "/healthz", b"", false)
            })
            .map_err(|e| format!("GET /healthz: {e}"))?;
        if resp.status != 200 {
            report.fail(1, format!("GET /healthz answered {}", resp.status));
        }
    }
    drop(conn);
    for k in 0..20 {
        let resp = rec
            .time("http.healthz_fresh", None, k, |_| {
                oneshot(&addr, "GET", "/healthz", b"")
            })
            .map_err(|e| format!("GET /healthz: {e}"))?;
        if resp.status != 200 {
            report.fail(1, format!("GET /healthz answered {}", resp.status));
        }
    }
    report.attempted += 220;
    report.metric(
        "http.rtt_us",
        median_ms(rec, "http.healthz_keepalive") * 1e3,
        "us",
        count(rec, "http.healthz_keepalive"),
    );
    report.metric(
        "http.connect_ms",
        median_ms(rec, "http.healthz_fresh"),
        "ms",
        count(rec, "http.healthz_fresh"),
    );

    // Engine counters over the traced pass, plus one client per core
    // posting the same fresh job at once so the in-flight table has work
    // to share.
    let probe = coalesce_probe(&addr, ctx.threads.max(1))?;
    let mut units = [0u64; 4];
    for s in traced.samples.iter().map(|s| &s.units).chain(&probe) {
        for (k, u) in s.iter().enumerate() {
            units[k] += u;
        }
    }
    report.metric(
        "engine.executed",
        units[1] as f64,
        "count",
        traced.samples.len() + probe.len(),
    );
    report.metric(
        "engine.cached",
        units[2] as f64,
        "count",
        traced.samples.len() + probe.len(),
    );
    report.metric(
        "engine.coalesced",
        units[3] as f64,
        "count",
        traced.samples.len() + probe.len(),
    );

    // The popular bodies in-process on the daemon's (warm) engine: job,
    // emit, re-parse and render, each against the served bytes.
    let mut doc_bytes = 0usize;
    for (p, pop) in POPULAR.iter().enumerate() {
        for rep in 0..5 {
            let doc = rec.time(&format!("harness.job.{}", pop.stem), None, rep, |_| {
                run_popular(p, &daemon.engine)
            })?;
            let emitted = rec.time("harness.emit", None, rep, |_| doc.to_pretty());
            rec.time("harness.parse", None, rep, |_| parse(&emitted))?;
            let md = rec.time("harness.render", None, rep, |_| render_doc(pop.stem, &doc))?;
            report.attempted += 1;
            if emitted != expected.json[p] || md != expected.md[p] {
                report.fail(
                    1,
                    format!(
                        "{}: in-process document differs from the served one",
                        pop.stem
                    ),
                );
            }
            if rep == 0 {
                doc_bytes += emitted.len();
            }
        }
    }
    report.metric(
        "harness.emit_ms",
        median_ms(rec, "harness.emit"),
        "ms",
        count(rec, "harness.emit"),
    );
    report.metric(
        "harness.parse_ms",
        median_ms(rec, "harness.parse"),
        "ms",
        count(rec, "harness.parse"),
    );
    report.metric(
        "harness.render_ms",
        median_ms(rec, "harness.render"),
        "ms",
        count(rec, "harness.render"),
    );
    report.metric(
        "harness.doc_kb",
        doc_bytes as f64 / 1024.0,
        "KiB",
        POPULAR.len(),
    );

    // The static scan every /v1/scan request re-runs, warm or not.
    let entries = corpus();
    let config = ScanConfig::default();
    for rep in 0..10 {
        rec.time("scan.static", None, rep, |_| {
            entries
                .iter()
                .map(|e| {
                    si_scan::scan(&e.program, &e.secrets, &config)
                        .findings
                        .len()
                })
                .sum::<usize>()
        });
    }
    report.metric(
        "scan.static_ms",
        median_ms(rec, "scan.static"),
        "ms",
        count(rec, "scan.static"),
    );
    daemon.stop();

    let wall = |phase: &Phase| phase.pass_walls.iter().sum::<f64>();
    report.metric(
        "traced.overhead_s.serve-mixed",
        wall(&traced) - wall(&untraced),
        "s",
        1,
    );
    Ok(())
}

/// `clients` clients post the same fresh cold sweep at once; returns the
/// `x-sia-*` unit counts of their responses.
fn coalesce_probe(addr: &std::net::SocketAddr, clients: usize) -> Result<Vec<[u64; 4]>, String> {
    let body = r#"{"quick":true,"filters":["workload=gemm","predictor=p1k"],"seed":7}"#;
    let barrier = Barrier::new(clients);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| -> Result<[u64; 4], String> {
                    let mut conn = Conn::connect(addr).map_err(|e| format!("connecting: {e}"))?;
                    // A first request makes sure the daemon accepted the
                    // connection before both clients start together.
                    exchange(&mut conn, "GET", "/healthz", b"", false)
                        .map_err(|e| format!("GET /healthz: {e}"))?;
                    barrier.wait();
                    let resp = exchange(&mut conn, "POST", "/v1/sweep", body.as_bytes(), false)
                        .map_err(|e| format!("coalesce probe: {e}"))?;
                    if resp.status != 200 {
                        return Err(format!("coalesce probe answered {}", resp.status));
                    }
                    Ok(unit_counts(&resp))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .map_err(|_| "coalesce probe client panicked".to_owned())?
            })
            .collect()
    })
}

/// Count, total, self time, median and tail per span name.
fn span_table(rec: &Recorder, report: &mut Report) {
    report.notes.push(String::new());
    report.notes.push(format!(
        "{:<44} {:>7} {:>11} {:>11} {:>10}  tail",
        "span", "count", "total ms", "self ms", "p50 ms"
    ));
    for s in spans::summarize(&rec.spans()) {
        let tail = s
            .tail
            .map_or("-".to_owned(), |(p, v)| format!("p{p} {:.3} ms", v / 1e6));
        report.notes.push(format!(
            "{:<44} {:>7} {:>11.3} {:>11.3} {:>10.3}  {tail}",
            s.name,
            s.count,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.median_ns / 1e6
        ));
    }
    report.notes.push(String::new());
}
