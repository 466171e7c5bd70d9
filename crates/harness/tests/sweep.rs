//! Sweep-subsystem guarantees: the seed reaches the noise draws,
//! envelopes are well-formed schema v2, and the markdown renderer
//! reproduces the committed golden output for the committed fixture
//! result file. Thread-count, store, artifact-cache and served
//! invariance are rows of `tests/invariants.rs`.

use si_harness::json::{parse, Json};
use si_harness::render::render_doc;
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::Engine;

/// A small grid that still exercises multiple axes (2 schemes × 2
/// workloads × 2 noise presets, 2 trials per cell = 24 units).
fn small_grid() -> GridSpec {
    let mut grid = GridSpec::named("noise").expect("named grid");
    grid.quick();
    grid.apply_filter("workload=ptr-chase,mixed")
        .expect("filter");
    grid.apply_filter("noise=quiet,jitter").expect("filter");
    grid.trials = 2;
    grid
}

/// Different base seeds must reach the noise machinery (jitter cells
/// draw per-trial noise seeds derived from the base seed).
#[test]
fn sweep_seed_reaches_the_noise_draws() {
    let grid = small_grid();
    let engine = Engine::new(2);
    let a = run_sweep(&grid, 1, &engine).expect("runs").0.to_pretty();
    let b = run_sweep(&grid, 2, &engine).expect("runs").0.to_pretty();
    assert_ne!(a, b, "sweep output ignored the seed");
}

/// The sweep envelope is well-formed schema v2 and internally
/// consistent: every row carries one cell per scheme column.
#[test]
fn sweep_envelope_is_well_formed() {
    let grid = small_grid();
    let (doc, stats) = run_sweep(&grid, 7, &Engine::new(2)).expect("runs");
    assert_eq!(stats.executed, stats.total, "uncached engine runs all");
    let parsed = parse(&doc.to_pretty()).expect("parses");
    assert_eq!(
        parsed.get("schema_version"),
        Some(&Json::from(si_harness::SCHEMA_VERSION))
    );
    assert_eq!(parsed.get("kind"), Some(&Json::from("sweep")));
    assert_eq!(parsed.get("grid"), Some(&Json::from("noise")));
    let rows = match parsed.get("result").and_then(|r| r.get("rows")) {
        Some(Json::Arr(rows)) => rows,
        other => panic!("rows missing: {other:?}"),
    };
    assert_eq!(rows.len(), 4, "2 workloads × 2 noise presets");
    for row in rows {
        match row.get("cells") {
            Some(Json::Arr(cells)) => assert_eq!(cells.len(), grid.schemes.len()),
            other => panic!("cells missing: {other:?}"),
        }
        assert!(row.get("baseline").is_some());
    }
}

/// Golden-output test: rendering the committed fixture result file
/// (`results/sweep-defense.json`, written by `sia sweep --quick
/// --no-wall-time`) must reproduce the committed markdown byte for
/// byte. CI runs the same comparison against EXPERIMENTS.md.
#[test]
fn report_reproduces_the_committed_golden_markdown() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/sweep-defense.json"
    );
    let golden = include_str!("fixtures/sweep_defense.md");
    let text = std::fs::read_to_string(fixture).expect("committed fixture readable");
    let doc = parse(&text).expect("fixture parses");
    let rendered = render_doc("sweep-defense", &doc).expect("renders");
    assert_eq!(
        rendered, golden,
        "render drift: regenerate crates/harness/tests/fixtures/sweep_defense.md \
         with `sia report results/sweep-defense.json` (minus the header comment)"
    );
}
