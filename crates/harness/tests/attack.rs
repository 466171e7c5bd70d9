//! Attack-grid guarantees: the seed reaches the noise draws, envelopes
//! are well-formed schema v2 `kind:"attack"` documents, and the
//! markdown renderer reproduces the committed golden output for the
//! committed fixture result file. Thread-count, store, checkpoint and
//! served invariance are rows of `tests/invariants.rs`.

use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::json::{parse, Json};
use si_harness::render::render_doc;
use si_harness::Engine;

/// A small grid that still exercises both transmitter variants and the
/// VD-AD calibration path (2 schemes × 2 variants, 3 bits per cell).
fn small_grid() -> AttackGrid {
    let mut grid = AttackGrid::named("headline").expect("named grid");
    grid.apply_filter("scheme=invisispec,fence-futuristic")
        .expect("filter");
    grid.trials = 3;
    grid
}

/// Different base seeds must reach the noise machinery: on a jittery
/// machine, per-trial cycle counts (and so the scored `mean_cycles`)
/// depend on the seed-derived noise draws.
#[test]
fn attack_seed_reaches_the_noise_draws() {
    let mut grid = AttackGrid::named("noise").expect("named grid");
    grid.apply_filter("scheme=invisispec").expect("filter");
    grid.apply_filter("variant=port-contention")
        .expect("filter");
    grid.apply_filter("noise=jitter").expect("filter");
    grid.trials = 3;
    let result = |seed| {
        let (doc, _) = run_attack_grid(&grid, seed, &Engine::new(2)).expect("runs");
        doc.get("result").expect("result present").to_pretty()
    };
    assert_ne!(result(1), result(2), "attack results ignored the seed");
}

/// The attack envelope is well-formed schema v2 and internally
/// consistent: every row carries one scored cell per scheme column,
/// and the quiet headline sub-grid reproduces the qualitative result
/// (invisible speculation leaks, the fence holds).
#[test]
fn attack_envelope_is_well_formed_and_qualitatively_right() {
    let grid = small_grid();
    let (doc, stats) = run_attack_grid(&grid, 7, &Engine::new(2)).expect("runs");
    assert_eq!(stats.executed, stats.total, "uncached engine runs all");
    let parsed = parse(&doc.to_pretty()).expect("parses");
    assert_eq!(
        parsed.get("schema_version"),
        Some(&Json::from(si_harness::SCHEMA_VERSION))
    );
    assert_eq!(parsed.get("kind"), Some(&Json::from("attack")));
    assert_eq!(parsed.get("grid"), Some(&Json::from("headline")));
    let rows = match parsed.get("result").and_then(|r| r.get("rows")) {
        Some(Json::Arr(rows)) => rows,
        other => panic!("rows missing: {other:?}"),
    };
    assert_eq!(rows.len(), 2, "one row per variant");
    for row in rows {
        let cells = match row.get("cells") {
            Some(Json::Arr(cells)) => cells,
            other => panic!("cells missing: {other:?}"),
        };
        assert_eq!(cells.len(), grid.schemes.len());
        let leak_of = |slug: &str| -> bool {
            cells
                .iter()
                .find(|c| c.get("scheme") == Some(&Json::from(slug)))
                .and_then(|c| match c.get("leaks") {
                    Some(Json::Bool(b)) => Some(*b),
                    _ => None,
                })
                .expect(slug)
        };
        assert!(leak_of("invisispec"), "invisible speculation leaks");
        assert!(!leak_of("fence-futuristic"), "the fence defense holds");
    }
}

/// Golden-output test: rendering the committed fixture result file
/// (`results/attack-headline.json`, written by `sia attack
/// --no-wall-time`) must reproduce the committed markdown byte for
/// byte. CI checks the same fixture through the EXPERIMENTS.md drift
/// gate.
#[test]
fn report_reproduces_the_committed_golden_markdown() {
    let fixture = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/attack-headline.json"
    );
    let golden = include_str!("fixtures/attack_headline.md");
    let text = std::fs::read_to_string(fixture).expect("committed fixture readable");
    let doc = parse(&text).expect("fixture parses");
    let rendered = render_doc("attack-headline", &doc).expect("renders");
    assert_eq!(
        rendered, golden,
        "render drift: regenerate crates/harness/tests/fixtures/attack_headline.md \
         with `sia report results/attack-headline.json` (minus the header comment)"
    );
}
