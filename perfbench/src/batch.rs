//! The batch workloads: cold jobs back to back, each on an empty
//! artifact cache, through the entry points the verbs use (`run_sweep`,
//! `run_attack_grid`, `run_experiment`).
//!
//! `defense-sweep` runs each job on a fresh unit store. The stores stay
//! on disk until the run ends: deleting one between jobs would put its
//! file-system work (on a `discard` mount, the device trims too) into
//! the next job's time. `attack-headline` runs without a store, as
//! `sia attack` does without `--cache`: a fresh store's flush writes one
//! segment file per touched shard, and that file-system time was the
//! largest part of its run-to-run spread. `serve-mixed` measures the
//! store's append path instead.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::Instant;

use si_engine::ArtifactCache;
use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::exec::mix_seed;
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{registry, run_experiment, Engine, RunConfig, CODE_EPOCH};

use crate::checks::{self, DEFAULT_SEED};
use crate::{peak_rss_mb, reset_peak_rss, stats, Ctx, Report};

/// Jobs a run holds at least, however long each lasts.
const MIN_JOBS: usize = 3;

/// Set-up is timed in blocks of this many back-to-back set-ups, so
/// the timer's own cost (tens of nanoseconds) does not swamp it.
const SETUPS_PER_BLOCK: usize = 100;

/// Timed blocks before each job; the job runs on the last set-up.
const SETUP_BLOCKS: usize = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    DefenseSweep,
    AttackHeadline,
    PaperRun,
}

/// The seed of a run's job `j`: the CLI default for the first job, so
/// every run byte-checks a fixture or pinned digest, then seeds derived
/// from the workload seed.
pub fn job_seed(seed: u64, j: usize) -> u64 {
    if j == 0 {
        DEFAULT_SEED
    } else {
        mix_seed(seed, j as u64)
    }
}

/// One cold job.
struct Job {
    setup_s: f64,
    wall_s: f64,
    /// Peak resident set while the job ran, in MiB.
    peak_mb: f64,
    /// Latency of each operation: a unit, or an experiment.
    op_ms: Vec<f64>,
    units: u64,
    failed: u64,
    sim_cycles: f64,
    problems: Vec<String>,
}

/// Completion marks of a job's units, per engine worker. A worker runs
/// its units one after another, so the gaps between one worker's marks
/// (the first measured from the job's start) are its units' latencies:
/// execution, plus the store probe and append when there is a store.
#[derive(Clone, Default)]
struct UnitClock(Arc<Mutex<Vec<(ThreadId, Instant)>>>);

impl UnitClock {
    /// An engine, on a fresh store or on none, that marks every unit it
    /// resolves.
    fn engine(&self, ctx: &Ctx, store: bool) -> Engine {
        let marks = Arc::clone(&self.0);
        let engine = if store {
            Engine::with_cache(ctx.threads, CODE_EPOCH, ctx.fresh_dir("store"))
        } else {
            Engine::new(ctx.threads)
        };
        engine.with_progress(Arc::new(move |_, _| {
            let mut marks = marks.lock().expect("unit marks poisoned");
            marks.push((std::thread::current().id(), Instant::now()));
        }))
    }

    fn latencies_ms(&self, start: Instant) -> Vec<f64> {
        let marks = self.0.lock().expect("unit marks poisoned");
        let mut last: HashMap<ThreadId, Instant> = HashMap::new();
        marks
            .iter()
            .map(|&(worker, t)| {
                let prev = last.insert(worker, t).unwrap_or(start);
                t.duration_since(prev).as_secs_f64() * 1e3
            })
            .collect()
    }
}

/// Runs `setup` in [`SETUP_BLOCKS`] timed blocks of
/// [`SETUPS_PER_BLOCK`] and keeps the last result, with the median
/// over blocks of the time one set-up took.
fn timed_setup<T>(mut setup: impl FnMut() -> T) -> (T, f64) {
    let mut per_setup = Vec::with_capacity(SETUP_BLOCKS);
    let mut last = None;
    for _ in 0..SETUP_BLOCKS {
        let t = Instant::now();
        for _ in 0..SETUPS_PER_BLOCK {
            drop(last.take());
            last = Some(setup());
        }
        per_setup.push(t.elapsed().as_secs_f64() / SETUPS_PER_BLOCK as f64);
    }
    (
        last.expect("at least one set-up"),
        stats::median(&per_setup).expect("at least one block"),
    )
}

pub fn run(ctx: &Ctx, batch: Batch) -> Result<Report, String> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    while jobs.len() < MIN_JOBS || start.elapsed().as_secs_f64() < ctx.seconds {
        let j = jobs.len();
        ArtifactCache::global().clear();
        reset_peak_rss()?;
        let mut job = match batch {
            Batch::DefenseSweep => defense_job(ctx, j)?,
            Batch::AttackHeadline => attack_job(ctx, j)?,
            Batch::PaperRun => paper_job(ctx, j)?,
        };
        job.peak_mb = peak_rss_mb()?;
        jobs.push(job);
    }
    summarize(&jobs, batch)
}

/// `run_sweep(GridSpec::named("defense"))` at scale 48.
fn defense_job(ctx: &Ctx, j: usize) -> Result<Job, String> {
    let seed = job_seed(ctx.seed, j);
    let clock = UnitClock::default();
    let ((engine, grid), setup_s) = timed_setup(|| {
        let grid = GridSpec::named("defense").expect("the defense grid is built in");
        (clock.engine(ctx, true), grid)
    });
    let t = Instant::now();
    let (doc, stats) = run_sweep(&grid, seed, &engine)?;
    let wall_s = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if seed == DEFAULT_SEED {
        problems.extend(checks::check_pinned("defense-sweep", &doc.to_pretty()).err());
    }
    problems.extend(
        checks::sweep_invariants(&doc)
            .err()
            .map(|e| format!("defense sweep, seed {seed}: {e}")),
    );
    Ok(Job {
        setup_s,
        wall_s,
        peak_mb: 0.0,
        op_ms: clock.latencies_ms(t),
        units: stats.total as u64,
        failed: if problems.is_empty() {
            0
        } else {
            stats.total as u64
        },
        sim_cycles: checks::reported_cycles(&doc),
        problems,
    })
}

/// `run_attack_grid(AttackGrid::named("headline"))`.
fn attack_job(ctx: &Ctx, j: usize) -> Result<Job, String> {
    let seed = job_seed(ctx.seed, j);
    let clock = UnitClock::default();
    let ((engine, grid), setup_s) = timed_setup(|| {
        let grid = AttackGrid::named("headline").expect("the headline grid is built in");
        (clock.engine(ctx, false), grid)
    });
    let t = Instant::now();
    let (doc, stats) = run_attack_grid(&grid, seed, &engine)?;
    let wall_s = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    if seed == DEFAULT_SEED {
        problems.extend(
            checks::check_fixture("attack-headline", &doc.to_pretty(), checks::ATTACK_HEADLINE)
                .err(),
        );
    }
    problems.extend(
        checks::attack_invariants(&doc)
            .err()
            .map(|e| format!("attack grid, seed {seed}: {e}")),
    );
    Ok(Job {
        setup_s,
        wall_s,
        peak_mb: 0.0,
        op_ms: clock.latencies_ms(t),
        units: stats.total as u64,
        failed: if problems.is_empty() {
            0
        } else {
            stats.total as u64
        },
        sim_cycles: checks::reported_cycles(&doc),
        problems,
    })
}

/// `run_experiment` on every registry entry at its default trials. One
/// experiment is one operation.
fn paper_job(ctx: &Ctx, j: usize) -> Result<Job, String> {
    let seed = job_seed(ctx.seed, j);
    let ((exps, cfg), setup_s) = timed_setup(|| {
        let cfg = RunConfig {
            trials: None,
            threads: ctx.threads,
            seed,
            scheme: None,
        };
        (registry(), cfg)
    });
    let t = Instant::now();
    let mut op_ms = Vec::with_capacity(exps.len());
    let docs: Vec<_> = exps
        .iter()
        .map(|e| {
            let op = Instant::now();
            let doc = run_experiment(e.as_ref(), &cfg);
            op_ms.push(op.elapsed().as_secs_f64() * 1e3);
            (e.id(), doc)
        })
        .collect();
    let wall_s = t.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    let mut failed = 0;
    for (id, doc) in &docs {
        let verdict = doc.as_ref().map_err(Clone::clone).and_then(|doc| {
            if seed == DEFAULT_SEED {
                let text = doc.to_pretty();
                match *id {
                    "fig09" => checks::check_fixture("fig09", &text, checks::FIG09)?,
                    _ => checks::check_pinned(&format!("experiment.{id}"), &text)?,
                }
            }
            match *id {
                "table1" => checks::table1_invariants(doc),
                _ => Ok(()),
            }
        });
        if let Err(e) = verdict {
            failed += 1;
            problems.push(format!("{id}, seed {seed}: {e}"));
        }
    }
    Ok(Job {
        setup_s,
        wall_s,
        peak_mb: 0.0,
        op_ms,
        units: docs.len() as u64,
        failed,
        sim_cycles: 0.0,
        problems,
    })
}

/// The end-to-end metrics of a batch run. `peak_rss_mb` is the median
/// job's peak resident set (the mark is reset before each job, after
/// the previous job's artifacts are dropped). A batch workload's
/// "request" is one operation, as `failed` counts them: a unit of the
/// grid, or one experiment of `paper-run`.
fn summarize(jobs: &[Job], batch: Batch) -> Result<Report, String> {
    let mut report = Report::default();
    let walls: Vec<f64> = jobs.iter().map(|j| j.wall_s).collect();
    let setups: Vec<f64> = jobs.iter().map(|j| j.setup_s).collect();
    let busy_s: f64 = walls.iter().sum();
    let n = jobs.len();
    report.metric("wall_s", stats::median(&walls).ok_or("no jobs")?, "s", n);
    report.metric(
        "setup_s",
        stats::median(&setups).ok_or("no jobs")?,
        "s",
        n * SETUP_BLOCKS,
    );
    let peaks: Vec<f64> = jobs.iter().map(|j| j.peak_mb).collect();
    report.metric(
        "peak_rss_mb",
        stats::median(&peaks).ok_or("no jobs")?,
        "MiB",
        n,
    );
    let ops: Vec<f64> = jobs.iter().flat_map(|j| j.op_ms.iter().copied()).collect();
    report.metric(
        "req_p50_ms",
        stats::median(&ops).ok_or("no operations")?,
        "ms",
        ops.len(),
    );
    report.metric(
        "req_p99_ms",
        stats::percentile(&ops, 990).ok_or("no operations")?,
        "ms",
        ops.len(),
    );
    report.metric("req_per_s", ops.len() as f64 / busy_s, "req/s", ops.len());
    for job in jobs {
        report.attempted += job.units;
        report.failed += job.failed;
        report.problems.extend(job.problems.iter().cloned());
    }
    let tail = stats::tail(&ops).map_or("-".to_owned(), |(p, v)| format!("p{p} {v:.3} ms"));
    report.notes.push(format!(
        "jobs {n}; operations {}; operation tail {tail}; job seconds {}",
        ops.len(),
        walls
            .iter()
            .map(|w| format!("{w:.3}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    if batch != Batch::PaperRun {
        let cycles: f64 = jobs.iter().map(|j| j.sim_cycles).sum();
        report.notes.push(format!(
            "sim_mcycles_per_s {:.3} Mcycle/s ({n} jobs, {:.0} Mcycles reported)",
            cycles / busy_s / 1e6,
            cycles / 1e6
        ));
    }
    Ok(report)
}
