//! Execution-engine guarantees at the verb level: re-shaping a grid
//! re-executes exactly the units whose spec changed, and a mixed
//! (cached + fresh) document equals a from-scratch one. That a warm
//! re-run of an unchanged job executes zero units and emits identical
//! bytes is the store toggle of `tests/invariants.rs`.

use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{Engine, CODE_EPOCH};

/// A fresh, empty cache directory unique to this test and process.
fn temp_cache(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("sia-engine-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The quick defense sweep, shrunk along the workload and predictor
/// axes so the test stays fast and single-row (1 row × 5 columns = 5
/// units).
fn quick_sweep_grid() -> GridSpec {
    let mut grid = GridSpec::named("defense").expect("named grid");
    grid.quick();
    grid.apply_filter("workload=ptr-chase").expect("filter");
    grid.apply_filter("predictor=p1k").expect("filter");
    grid
}

/// Widening the scheme axis appends columns; on a single-row grid every
/// pre-existing unit keeps its index (and so its spec and mixed seed),
/// so only the new column's units execute.
#[test]
fn widening_the_scheme_axis_executes_only_the_new_units() {
    let dir = temp_cache("sweep-widen");
    let cached = Engine::with_cache(2, CODE_EPOCH, &dir);

    let mut narrow = quick_sweep_grid();
    narrow.apply_filter("scheme=dom").expect("filter");
    assert_eq!(narrow.unit_count(), 2, "baseline + dom");
    run_sweep(&narrow, 7, &cached).expect("runs");

    let mut wide = quick_sweep_grid();
    wide.apply_filter("scheme=dom,fence").expect("filter");
    // defense-grid column order keeps dom first, so the widened grid
    // appends fence columns after the units the cache already holds.
    let (wide_doc, stats) = run_sweep(&wide, 7, &cached).expect("runs");
    assert_eq!(stats.total, wide.unit_count());
    assert_eq!(stats.cached, 2, "baseline + dom splice from cache");
    assert_eq!(
        stats.executed,
        stats.total - 2,
        "only the fence columns execute"
    );

    // The mixed (cached + fresh) document is still byte-identical to a
    // from-scratch run of the widened grid.
    let (fresh_doc, _) = run_sweep(&wide, 7, &Engine::new(2)).expect("runs");
    assert_eq!(wide_doc.to_pretty(), fresh_doc.to_pretty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// Bumping trials re-flattens the grid: on a single-cell-column grid the
/// first unit keeps its spec, every later unit's (trial, seed) pair is
/// new — the cache serves exactly the unchanged prefix.
#[test]
fn bumping_trials_reexecutes_only_respecced_units() {
    let dir = temp_cache("sweep-trials");
    let cached = Engine::with_cache(2, CODE_EPOCH, &dir);

    let mut grid = quick_sweep_grid();
    grid.apply_filter("scheme=dom").expect("filter");
    run_sweep(&grid, 7, &cached).expect("runs");

    grid.trials = 2;
    let (doc, stats) = run_sweep(&grid, 7, &cached).expect("runs");
    assert_eq!(stats.total, 4);
    // Unit 0 (baseline, trial 0, seed mix(0)) is unchanged; the other
    // three carry new trial indices or shifted seeds.
    assert_eq!(stats.cached, 1);
    assert_eq!(stats.executed, 3);
    let (fresh_doc, _) = run_sweep(&grid, 7, &Engine::new(2)).expect("runs");
    assert_eq!(doc.to_pretty(), fresh_doc.to_pretty());
    let _ = std::fs::remove_dir_all(&dir);
}

/// A different base seed changes every unit's spec: nothing may be
/// served from the old seed's entries.
#[test]
fn seed_changes_invalidate_every_unit() {
    let dir = temp_cache("sweep-seed");
    let cached = Engine::with_cache(2, CODE_EPOCH, &dir);
    let grid = quick_sweep_grid();
    run_sweep(&grid, 1, &cached).expect("runs");
    let (_, stats) = run_sweep(&grid, 2, &cached).expect("runs");
    assert_eq!(stats.executed, stats.total, "new seed, all units re-run");
    assert_eq!(stats.cached, 0);
    let _ = std::fs::remove_dir_all(&dir);
}
