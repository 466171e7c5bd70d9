//! `perfbench` — end-to-end and per-layer benchmark of the `sia` verbs.
//!
//! One process runs one workload and prints, as the last line of its
//! standard output, one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`:
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics. `--trace 1` re-executes
//! one job of every workload layer by layer and prints the per-layer
//! metrics instead. `--steadiness <runs>` runs every workload that many
//! times in child processes and prints each metric's spread; `--pin`
//! prints the digests kept in `pinned.txt`. README.md maps each metric to
//! its layer and workload.

mod batch;
mod checks;
mod layers;
mod serve_mixed;
mod spans;
mod stats;
mod steady;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use si_harness::json::{obj, Json};

/// The workloads, in presentation order.
pub const WORKLOADS: [&str; 4] = [
    "defense-sweep",
    "attack-headline",
    "paper-run",
    "serve-mixed",
];

const USAGE: &str =
    "usage: perfbench --workload <defense-sweep|attack-headline|paper-run|serve-mixed> \
[--seed <n>] [--seconds <s>] [--trace <0|1>]
       perfbench --steadiness <runs> [--seconds <s>]
       perfbench --pin";

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted: units, experiments or requests.
    pub attempted: u64,
    /// Operations that failed, or whose document failed its check.
    pub failed: u64,
    /// One line per failed check.
    pub problems: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Extra lines for the human-readable part of the output.
    pub notes: Vec<String>,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value summarizes.
    pub samples: usize,
}

impl Report {
    pub fn metric(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        samples: usize,
    ) {
        self.metrics.push(Metric {
            name: name.into(),
            value,
            unit,
            samples,
        });
    }

    /// Records a failed check that costs `units` operations.
    pub fn fail(&mut self, units: u64, problem: String) {
        self.failed += units;
        self.problems.push(problem);
    }
}

/// Settings of one run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    /// Engine threads and client connections: the host's parallelism.
    pub threads: usize,
    /// This run's scratch directory (unit stores), removed at exit.
    pub work: PathBuf,
}

impl Ctx {
    /// A fresh path under the run's scratch directory (not created).
    pub fn fresh_dir(&self, tag: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        self.work
            .join(format!("{tag}-{}", NEXT.fetch_add(1, Ordering::Relaxed)))
    }
}

/// Scratch and trace output, inside the benchmark's own directory.
pub fn work_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("work")
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Resets the peak-resident-set mark to the current resident set, so
/// the next [`peak_rss_mb`] reads the peak since this call.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("resetting VmHWM: {e}"))
}

/// Times a fixed pure-integer loop. Printed at the start and the end of
/// every run so host drift between runs shows; never used to rescale.
fn calib_ns() -> f64 {
    const ITERS: u64 = 20_000_000;
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15_u64);
    let mut acc = 0u64;
    for i in 0..ITERS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    start.elapsed().as_nanos() as f64
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    steadiness: Option<usize>,
    pin: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
        steadiness: None,
        pin: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--steadiness" => {
                args.steadiness = Some(value()?.parse().map_err(|e| format!("--steadiness: {e}"))?)
            }
            "--pin" => args.pin = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.pin {
        return checks::print_pins(threads());
    }
    if let Some(runs) = args.steadiness {
        return steady::report(runs, args.seconds);
    }
    let Some(workload) = args.workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        eprintln!("perfbench: name one workload\n{USAGE}");
        return ExitCode::from(2);
    };
    let ctx = Ctx {
        workload,
        seed: args.seed,
        seconds: args.seconds,
        threads: threads(),
        work: work_root().join(format!("run-{}", std::process::id())),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work) {
        eprintln!("perfbench: creating {}: {e}", ctx.work.display());
        return ExitCode::FAILURE;
    }
    let calib_start = calib_ns();
    let outcome = if args.trace {
        layers::run(&ctx)
    } else {
        match ctx.workload.as_str() {
            "defense-sweep" => batch::run(&ctx, batch::Batch::DefenseSweep),
            "attack-headline" => batch::run(&ctx, batch::Batch::AttackHeadline),
            "paper-run" => batch::run(&ctx, batch::Batch::PaperRun),
            _ => serve_mixed::run(&ctx),
        }
    };
    let calib_end = calib_ns();
    let _ = std::fs::remove_dir_all(&ctx.work);
    // Commit the deletions now, so their file-system work (and, on a
    // `discard` mount, the device trims) lands in this process's exit
    // rather than in the next run's measurement.
    if let Ok(dir) = std::fs::File::open(work_root()) {
        let _ = dir.sync_all();
    }
    match outcome {
        Ok(mut report) => {
            report.notes.push(format!(
                "calib_ns start={calib_start:.0} end={calib_end:.0}"
            ));
            print_report(&ctx, &report, args.trace);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}

/// The human-readable lines, then the result object as the last line.
fn print_report(ctx: &Ctx, report: &Report, traced: bool) {
    println!(
        "perfbench workload={} seed={} seconds={} threads={} trace={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        ctx.threads,
        u8::from(traced)
    );
    for note in &report.notes {
        println!("{note}");
    }
    println!(
        "{:<36} {:>18} {:<10} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &report.metrics {
        println!(
            "{:<36} {:>18.6} {:<10} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    let attempted = report.attempted.max(1);
    println!(
        "failed_frac {} ({} of {} operations)",
        report.failed as f64 / attempted as f64,
        report.failed,
        attempted
    );
    for p in &report.problems {
        println!("check FAILED: {p}");
    }
    let correct = report.failed == 0 && report.problems.is_empty();
    println!("verdict: {}", if correct { "correct" } else { "INCORRECT" });
    let metrics = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    obj([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        obj([
            ("correct", Json::from(correct)),
            ("attempted", Json::from(attempted)),
            ("failed", Json::from(report.failed)),
            ("metrics", metrics),
        ])
        .to_compact()
    );
}
