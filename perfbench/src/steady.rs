//! The steadiness report: every workload `runs` times, each run its own
//! child process with its own seed, alternating the workload order
//! between rounds. For every end-to-end metric it prints the median,
//! the quartiles, (Q3 − Q1) ÷ median and the sample count, against the
//! bound `BENCHMARK.json` gives the metric. This is the evidence behind
//! those bounds.

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use si_harness::json::{parse, Json};

use crate::checks::{items, num, text};
use crate::{stats, WORKLOADS};

const BENCHMARK: &str = include_str!("../../BENCHMARK.json");

pub fn report(runs: usize, seconds: f64) -> ExitCode {
    match run(runs, seconds) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: steadiness: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs everything and prints the report; `Ok(false)` when a run failed
/// or was incorrect, or a metric spread beyond its bound.
fn run(runs: usize, seconds: f64) -> Result<bool, String> {
    let bench = parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let bounds: Vec<(String, f64)> = items(bench.get("end_to_end"))
        .iter()
        .filter_map(|m| Some((text(m.get("name"))?.to_owned(), num(m.get("bound"))?)))
        .collect();
    let exe = std::env::current_exe().map_err(|e| format!("locating myself: {e}"))?;
    let mut values: BTreeMap<(&str, String), Vec<f64>> = BTreeMap::new();
    // The calibration loop's start and end times per run (host drift).
    let mut calib: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut all_ok = true;
    for round in 0..runs {
        let mut order = WORKLOADS.to_vec();
        if round % 2 == 1 {
            order.reverse();
        }
        for workload in order {
            let seed = (round + 1).to_string();
            let out = Command::new(&exe)
                .args(["--workload", workload, "--seed", &seed])
                .args(["--seconds", &seconds.to_string(), "--trace", "0"])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("spawning {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let result = stdout.lines().last().and_then(|l| parse(l).ok());
            let correct = matches!(
                result.as_ref().and_then(|r| r.get("correct")),
                Some(Json::Bool(true))
            );
            eprintln!(
                "steadiness: round {} {workload} seed {seed}: exit {:?}, correct {correct}",
                round + 1,
                out.status.code()
            );
            if !out.status.success() || !correct {
                all_ok = false;
                eprint!("{stdout}");
                continue;
            }
            for line in stdout.lines().filter_map(|l| l.strip_prefix("calib_ns ")) {
                let times = line
                    .split(' ')
                    .filter_map(|kv| kv.split_once('=')?.1.parse::<f64>().ok());
                calib.entry(workload).or_default().extend(times);
            }
            if let Some(Json::Obj(metrics)) = result.as_ref().and_then(|r| r.get("metrics")) {
                for (name, m) in metrics {
                    if let Some(v) = num(m.get("value")) {
                        values.entry((workload, name.clone())).or_default().push(v);
                    }
                }
            }
        }
    }
    println!("## Steadiness: {runs} runs per workload, --seconds {seconds}, seeds 1..={runs}\n");
    println!("| workload | metric | median | Q1 | Q3 | (Q3-Q1)/median | n | bound | verdict |");
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut unsteady: Vec<&str> = Vec::new();
    for workload in WORKLOADS {
        for (name, bound) in &bounds {
            let Some(v) = values.get(&(workload, name.clone())) else {
                println!("| {workload} | {name} | — | — | — | — | 0 | {bound} | missing |");
                all_ok = false;
                continue;
            };
            let median = stats::median(v).unwrap_or(f64::NAN);
            let [q1, _, q3] = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
            let spread = (q3 - q1) / median;
            // Set-up time is gated on its median only, never its spread.
            let verdict = if name == "setup_s" {
                "median only"
            } else if spread < bound / 3.0 {
                "steady"
            } else if spread < *bound {
                "within bound"
            } else {
                if !unsteady.contains(&workload) {
                    unsteady.push(workload);
                }
                "UNSTEADY"
            };
            println!(
                "| {workload} | {name} | {median:.6} | {q1:.6} | {q3:.6} | {spread:.4} | {} | {bound} | {verdict} |",
                v.len()
            );
        }
    }
    println!("\nCalibration loop (host drift; not used to rescale anything):\n");
    println!("| workload | calib_ns median | Q1 | Q3 | (Q3-Q1)/median | n |");
    println!("|---|---|---|---|---|---|");
    for (workload, v) in &calib {
        let median = stats::median(v).unwrap_or(f64::NAN);
        let [q1, _, q3] = stats::quartiles(v).unwrap_or([f64::NAN; 3]);
        println!(
            "| {workload} | {median:.0} | {q1:.0} | {q3:.0} | {:.4} | {} |",
            (q3 - q1) / median,
            v.len()
        );
    }
    if unsteady.is_empty() {
        println!("\nNo workload is unsteady.");
    } else {
        all_ok = false;
        println!("\nUnsteady workloads: {}", unsteady.join(", "));
    }
    Ok(all_ok)
}
