//! Output checks. With the CLI's default seed a document must equal its
//! committed fixture byte for byte, or, where no fixture has the same
//! settings, the digest pinned in `pinned.txt`. With any seed it must
//! hold the invariants below: no error cells and the headline leak
//! pattern.

use std::process::ExitCode;

use si_harness::json::Json;
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{registry, run_experiment, Engine, RunConfig};

/// The CLI's default seed, which generated the committed fixtures.
pub const DEFAULT_SEED: u64 = 0x51A0_2021;

pub const ATTACK_HEADLINE: &str = include_str!("../../results/attack-headline.json");
pub const SWEEP_DEFENSE_QUICK: &str = include_str!("../../results/sweep-defense.json");
pub const SWEEP_TRACE: &str = include_str!("../../results/sweep-trace.json");
pub const SCAN_CORPUS: &str = include_str!("../../results/scan-corpus.json");
pub const FIG09: &str = include_str!("../../results/fig09.json");

/// `<name> <bytes> <fnv1a64>` per default-seed document without a
/// committed fixture (written by `--pin`).
const PINNED: &str = include_str!("../pinned.txt");

/// FNV-1a, 64-bit.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pin_line(name: &str, text: &str) -> String {
    format!("{name} {} {:016x}", text.len(), fnv1a64(text.as_bytes()))
}

/// Compares a default-seed document with its pinned digest.
pub fn check_pinned(name: &str, text: &str) -> Result<(), String> {
    let want = PINNED
        .lines()
        .find(|l| l.split(' ').next() == Some(name))
        .ok_or_else(|| format!("{name}: no pinned digest"))?;
    let got = pin_line(name, text);
    if got == want.trim() {
        Ok(())
    } else {
        Err(format!("{name}: got '{got}', pinned '{want}'"))
    }
}

/// Compares a document with a committed fixture.
pub fn check_fixture(name: &str, text: &str, fixture: &str) -> Result<(), String> {
    if text == fixture {
        Ok(())
    } else {
        Err(format!(
            "{name}: {} bytes differ from the committed fixture ({} bytes)",
            text.len(),
            fixture.len()
        ))
    }
}

pub fn num(j: Option<&Json>) -> Option<f64> {
    match j? {
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::F64(v) => Some(*v),
        _ => None,
    }
}

pub fn items(j: Option<&Json>) -> &[Json] {
    match j {
        Some(Json::Arr(a)) => a,
        _ => &[],
    }
}

pub fn text(j: Option<&Json>) -> Option<&str> {
    match j? {
        Json::Str(s) => Some(s),
        _ => None,
    }
}

fn rows(doc: &Json) -> &[Json] {
    items(doc.get("result").and_then(|r| r.get("rows")))
}

/// Sweep documents: zero error cells.
pub fn sweep_invariants(doc: &Json) -> Result<(), String> {
    match num(doc.get("summary").and_then(|s| s.get("errors"))) {
        Some(0.0) => Ok(()),
        Some(e) => Err(format!("sweep has {e} error cells")),
        None => Err("sweep document has no summary.errors".to_owned()),
    }
}

/// Attack documents: the headline leak pattern. Invisible schemes leak
/// under both transmitters, DoM only under port contention, and both
/// fences read exactly 0.50.
pub fn attack_invariants(doc: &Json) -> Result<(), String> {
    if rows(doc).is_empty() {
        return Err("attack document has no rows".to_owned());
    }
    for row in rows(doc) {
        let variant = text(row.get("variant")).unwrap_or("?");
        for cell in items(row.get("cells")) {
            let scheme = text(cell.get("scheme")).unwrap_or("?");
            let accuracy = num(cell.get("accuracy"));
            let leaks = matches!(cell.get("leaks"), Some(Json::Bool(true)));
            let ok = match scheme {
                "fence" | "fence-futuristic" => accuracy == Some(0.5) && !leaks,
                "dom" => leaks == (variant == "port-contention"),
                "unprotected" | "invisispec" | "safespec-wfb" | "muontrap" | "cleanupspec" => leaks,
                _ => true,
            };
            if !ok {
                return Err(format!(
                    "{variant}/{scheme}: leak pattern broken (accuracy {accuracy:?}, leaks {leaks})"
                ));
            }
        }
    }
    Ok(())
}

/// Table 1: every invisible scheme leaks somewhere; no defense leaks.
pub fn table1_invariants(doc: &Json) -> Result<(), String> {
    let summary = doc.get("summary");
    let every = matches!(
        summary.and_then(|s| s.get("every_scheme_vulnerable")),
        Some(Json::Bool(true))
    );
    let defense = num(summary.and_then(|s| s.get("defense_leaking_cells")));
    if every && defense == Some(0.0) {
        Ok(())
    } else {
        Err(format!(
            "table1: every_scheme_vulnerable={every}, defense_leaking_cells={defense:?}"
        ))
    }
}

/// Simulated cycles a sweep or attack document reports: the sum of
/// `mean_cycles × trials` over every baseline and cell. Trace rows
/// contribute their sampled estimate.
pub fn reported_cycles(doc: &Json) -> f64 {
    let trials = num(doc.get("config").and_then(|c| c.get("trials"))).unwrap_or(1.0);
    let mut total = 0.0;
    for row in rows(doc) {
        total += num(row.get("baseline").and_then(|b| b.get("mean_cycles"))).unwrap_or(0.0);
        for cell in items(row.get("cells")) {
            total += num(cell.get("mean_cycles")).unwrap_or(0.0);
        }
    }
    total * trials
}

/// `--pin`: prints `pinned.txt` for the current code.
pub fn print_pins(threads: usize) -> ExitCode {
    println!("# Digests of the default-seed documents that no committed fixture");
    println!("# covers, pinned at the seed commit. Regenerate with `--pin`.");
    println!("# <name> <bytes> <fnv1a64>");
    let grid = GridSpec::named("defense").expect("the defense grid is built in");
    match run_sweep(&grid, DEFAULT_SEED, &Engine::new(threads)) {
        Ok((doc, _)) => println!("{}", pin_line("defense-sweep", &doc.to_pretty())),
        Err(e) => {
            eprintln!("perfbench: defense sweep: {e}");
            return ExitCode::FAILURE;
        }
    }
    let cfg = RunConfig {
        trials: None,
        threads,
        seed: DEFAULT_SEED,
        scheme: None,
    };
    for exp in registry() {
        match run_experiment(exp.as_ref(), &cfg) {
            Ok(doc) => println!(
                "{}",
                pin_line(&format!("experiment.{}", exp.id()), &doc.to_pretty())
            ),
            Err(e) => {
                eprintln!("perfbench: {}: {e}", exp.id());
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_harness::json::parse;

    #[test]
    fn committed_attack_fixture_holds_the_leak_pattern() {
        let doc = parse(ATTACK_HEADLINE).expect("fixture parses");
        attack_invariants(&doc).expect("fixture leak pattern");
        assert!(reported_cycles(&doc) > 0.0);
    }

    #[test]
    fn committed_sweep_fixtures_have_no_error_cells() {
        for fixture in [SWEEP_DEFENSE_QUICK, SWEEP_TRACE] {
            sweep_invariants(&parse(fixture).expect("fixture parses")).expect("no errors");
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
