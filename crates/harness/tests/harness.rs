//! Harness-level guarantees: every registered experiment runs, emits a
//! well-formed envelope, and produces bit-identical output regardless of
//! thread count.

use si_harness::json::{parse, Json};
use si_harness::{find, registry, run_experiment, RunConfig};

fn cfg(trials: usize, threads: usize) -> RunConfig {
    RunConfig {
        trials: Some(trials),
        threads,
        seed: 0xD5_2021,
        scheme: None,
    }
}

/// The acceptance-criterion test: for a fixed seed, a single-threaded
/// run and a many-threaded run serialize to the same bytes. The sample
/// covers every fan-out shape in the registry: paired-condition sampling
/// (fig07), per-trial noise seeds (fig09), the flattened multi-curve
/// sweep (fig11), scheme-parallel rows (fig06), and bit-parallel
/// statistical transmission (occupancy).
#[test]
fn one_thread_and_many_threads_are_bit_identical() {
    for id in ["fig06", "fig07", "fig09", "fig11", "occupancy"] {
        let exp = find(id).expect("registered");
        let serial = run_experiment(exp.as_ref(), &cfg(2, 1))
            .unwrap_or_else(|e| panic!("{id} serial: {e}"))
            .to_pretty();
        let parallel = run_experiment(exp.as_ref(), &cfg(2, 8))
            .unwrap_or_else(|e| panic!("{id} parallel: {e}"))
            .to_pretty();
        assert_eq!(serial, parallel, "{id}: thread count changed the output");
    }
}

/// Different seeds must actually reach the noise machinery of the
/// sampled experiments (a determinism test would pass vacuously if the
/// seed were ignored everywhere).
#[test]
fn seed_changes_noisy_experiment_output() {
    let exp = find("fig07").expect("registered");
    let mut a_cfg = cfg(4, 2);
    let mut b_cfg = cfg(4, 2);
    a_cfg.seed = 1;
    b_cfg.seed = 2;
    let a = run_experiment(exp.as_ref(), &a_cfg)
        .expect("runs")
        .to_pretty();
    let b = run_experiment(exp.as_ref(), &b_cfg)
        .expect("runs")
        .to_pretty();
    assert_ne!(a, b, "fig07 output ignored the seed");
}

/// Every experiment `sia list` reports must run with `--trials 1` and
/// emit a parseable envelope carrying the required schema fields.
#[test]
fn every_registered_experiment_runs_with_one_trial() {
    for exp in registry() {
        let envelope = run_experiment(exp.as_ref(), &cfg(1, 2))
            .unwrap_or_else(|e| panic!("{}: {e}", exp.id()));
        let text = envelope.to_pretty();
        let parsed = parse(&text).unwrap_or_else(|e| panic!("{}: malformed JSON: {e}", exp.id()));
        assert_eq!(
            parsed.get("experiment"),
            Some(&Json::from(exp.id())),
            "{}: envelope id mismatch",
            exp.id()
        );
        assert_eq!(
            parsed.get("schema_version"),
            Some(&Json::from(si_harness::SCHEMA_VERSION)),
            "{}: schema version missing",
            exp.id()
        );
        assert_eq!(
            parsed.get("kind"),
            Some(&Json::from("experiment")),
            "{}: v2 envelopes carry a kind discriminator",
            exp.id()
        );
        for key in ["title", "config", "result", "summary"] {
            assert!(
                parsed.get(key).is_some(),
                "{}: envelope missing '{key}'",
                exp.id()
            );
        }
    }
}

/// Figure 12 runs its cells on the sweep's unit path. Its document is
/// locked to the bytes `sia run fig12 --no-wall-time` wrote when it still
/// ran a private per-kernel loop (default trials and seed), so the move
/// changed no cycle count.
#[test]
fn fig12_reproduces_its_locked_document() {
    let exp = find("fig12").expect("registered");
    let cfg = RunConfig {
        threads: 2,
        ..RunConfig::default()
    };
    let doc = run_experiment(exp.as_ref(), &cfg)
        .expect("runs")
        .to_pretty();
    assert_eq!(doc, include_str!("fixtures/fig12.json"));
}

/// The scheme override changes output only for experiments that declare
/// support for it, and is recorded in the envelope config.
#[test]
fn scheme_override_is_honored_and_recorded() {
    let exp = find("fig09").expect("registered");
    let mut with_scheme = cfg(2, 2);
    with_scheme.scheme = si_harness::parse_scheme("invisispec");
    let envelope = run_experiment(exp.as_ref(), &with_scheme).expect("runs");
    assert_eq!(
        envelope.get("config").and_then(|c| c.get("scheme")),
        Some(&Json::from("invisispec"))
    );
    let sweeping = find("table1").expect("registered");
    let envelope = run_experiment(sweeping.as_ref(), &with_scheme).expect("runs");
    assert_eq!(
        envelope.get("config").and_then(|c| c.get("scheme")),
        None,
        "table1 sweeps schemes itself; the override must not be recorded"
    );
}
