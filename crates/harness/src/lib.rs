//! # `si-harness` — the parallel, seeded experiment harness
//!
//! Every figure and table of the paper is an [`Experiment`] registered in
//! [`registry`]; the `sia` CLI (`crates/harness/src/bin/sia.rs`) is the
//! single entry point that lists and runs them:
//!
//! ```text
//! sia list
//! sia run fig07 --scheme dom
//! sia run --all --trials 5 --out results/
//! sia sweep --grid defense --filter scheme=dom,fence
//! sia report results/ --check EXPERIMENTS.md
//! ```
//!
//! Beyond the fixed figure/table experiments, [`sweep`] runs declarative
//! scenario grids (scheme × workload × geometry × noise × predictor) and
//! [`render`] turns any result document into deterministic markdown —
//! the generated sections of EXPERIMENTS.md.
//!
//! ## Determinism contract
//!
//! An experiment's JSON payload is a pure function of
//! `(experiment, RunConfig)`. Trials fan out across threads through
//! [`exec::parallel_map`] (a shim over `si-engine`'s work-stealing
//! scheduler; Figure 12 runs its cells as sweep units on that same
//! scheduler), which derives a private seed per trial index
//! ([`exec::mix_seed`]) and writes results into preallocated per-index
//! slots — so runs with `--threads 1` and `--threads N` are
//! **bit-identical** (`tests/invariants.rs` asserts it, with the other
//! toggles, for every job). The thread count is therefore execution detail, deliberately excluded
//! from the output envelope.
//!
//! The same purity makes caching sound: every job verb compiles its work
//! into `si-engine` unit specs (a run job is one unit, the whole
//! experiment; see [`job`]), and `--cache` re-runs splice
//! unchanged units' outcomes from `results/.cache/` instead of
//! re-simulating them (see [`CODE_EPOCH`] for the invalidation rule).
//!
//! ## Output schema
//!
//! Each run writes one JSON document per experiment (see
//! [`run_experiment`]):
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "kind": "experiment",
//!   "experiment": "fig07",
//!   "title": "...",
//!   "config": { "trials": 60, "seed": 1369251873, "scheme": "dom" },
//!   "result": { ... experiment-specific payload ... },
//!   "summary": { ... flat key→number/string map for dashboards ... }
//! }
//! ```

pub mod attack;
pub mod bench;
pub mod exec;
pub mod experiments;
pub mod job;
pub mod json;
pub mod render;
pub mod report;
pub mod scan;
pub mod serve;
pub mod sweep;

use json::{obj, Json};
use si_cpu::MachineConfig;
use si_schemes::SchemeKind;

pub use json::{DocKind, SCHEMA_VERSION};
pub use si_engine::{Engine, ExecStats, UnitSpec};

/// The code epoch every unit-store address is derived under.
///
/// **Invalidation rule:** a stored unit outcome is valid only while the
/// code computes the same function of its unit spec. Config-shape
/// changes invalidate automatically (specs digest
/// `MachineConfig::fingerprint`). Code changes invalidate through this
/// constant, which `build.rs` derives from a digest of every `src/` tree
/// under `crates/`: the simulation crates, the engine, the vendored
/// `compat/*` crates, and this crate's experiments, verb executors and
/// payload codecs. Any edit there, even to a comment, moves the epoch and
/// orphans every older `results/.cache/` and `sia serve` store entry; a
/// false invalidation costs one cold run. Only the files that print,
/// serve or time documents (`render.rs`, `serve.rs`, `bench.rs`, `bin/`)
/// are left out, so a report or CLI edit keeps a warm store. No constant
/// is bumped by hand. The epoch is folded to 32 bits: it is printed in
/// every store record's canonical line.
pub const CODE_EPOCH: u64 = (SOURCE_DIGEST ^ (SOURCE_DIGEST >> 32)) & 0xffff_ffff;

/// The source digest, written by `build.rs`.
const SOURCE_DIGEST: u64 = include!(concat!(env!("OUT_DIR"), "/source_digest.rs"));

/// The on-disk location of the unit cache (`--cache` default).
pub const CACHE_DEFAULT_DIR: &str = "results/.cache";

/// Everything a single experiment run is parameterized by. The payload
/// an experiment produces must be a pure function of this struct (plus
/// the experiment's own code) — `threads` excepted, which may only
/// affect wall time.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Sample-size knob; each experiment documents its meaning (trials
    /// per condition, bits per channel point, workload scale factor, …).
    /// `None` means the experiment's default.
    pub trials: Option<usize>,
    /// Worker threads for trial fan-out (never part of the payload).
    pub threads: usize,
    /// Base seed; every trial derives its own via [`exec::mix_seed`].
    pub seed: u64,
    /// Scheme override for experiments that run against one scheme.
    pub scheme: Option<SchemeKind>,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            trials: None,
            threads: std::thread::available_parallelism().map_or(1, usize::from),
            seed: 0x51A0_2021,
            scheme: None,
        }
    }
}

/// The resolved per-run context handed to [`Experiment::run`].
pub struct RunCtx {
    /// Resolved sample-size knob (the experiment default unless set).
    pub trials: usize,
    /// Worker threads for the experiment's own fan-out.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// Scheme override, if the experiment supports one.
    pub scheme: Option<SchemeKind>,
}

impl RunCtx {
    /// The machine every experiment starts from.
    pub fn machine(&self) -> MachineConfig {
        MachineConfig::default()
    }

    /// The scheme to attack: the override if set, else `default`.
    pub fn scheme_or(&self, default: SchemeKind) -> SchemeKind {
        self.scheme.unwrap_or(default)
    }
}

/// One registered figure/table reproduction.
pub trait Experiment: Sync + Send {
    /// Stable identifier (`fig07`, `table1`, …) — the registry key, the
    /// CLI argument, and the result-file stem.
    fn id(&self) -> &'static str;

    /// One-line human title.
    fn title(&self) -> &'static str;

    /// Default value of the sample-size knob.
    fn default_trials(&self) -> usize {
        1
    }

    /// Whether `--scheme` changes this experiment (experiments that
    /// sweep schemes themselves ignore the override).
    fn supports_scheme_override(&self) -> bool {
        false
    }

    /// Produces the experiment payload: a `result` object, plus a flat
    /// `summary` object of headline numbers.
    fn run(&self, ctx: &RunCtx) -> Result<(Json, Json), String>;
}

/// All registered experiments, in presentation order.
pub fn registry() -> Vec<Box<dyn Experiment>> {
    experiments::all()
}

/// Looks up one experiment by id.
pub fn find(id: &str) -> Option<Box<dyn Experiment>> {
    registry().into_iter().find(|e| e.id() == id)
}

/// Runs one experiment and wraps its payload in the result envelope.
/// The envelope (and everything inside) is bit-identical for identical
/// `(experiment, trials, seed, scheme)` regardless of `cfg.threads`.
pub fn run_experiment(exp: &dyn Experiment, cfg: &RunConfig) -> Result<Json, String> {
    let ctx = RunCtx {
        trials: cfg.trials.unwrap_or_else(|| exp.default_trials()),
        threads: cfg.threads.max(1),
        seed: cfg.seed,
        scheme: cfg.scheme.filter(|_| exp.supports_scheme_override()),
    };
    let (result, summary) = exp.run(&ctx)?;
    let mut config = obj([
        ("trials", Json::from(ctx.trials)),
        ("seed", Json::from(ctx.seed)),
    ]);
    if let Some(s) = ctx.scheme {
        config.push("scheme", Json::from(scheme_slug(s)));
    }
    Ok(obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("kind", Json::from(DocKind::Experiment.slug())),
        ("experiment", Json::from(exp.id())),
        ("title", Json::from(exp.title())),
        ("config", config),
        ("result", result),
        ("summary", summary),
    ]))
}

/// Canonical CLI/JSON slug for a scheme.
pub fn scheme_slug(s: SchemeKind) -> &'static str {
    match s {
        SchemeKind::Unprotected => "unprotected",
        SchemeKind::DomSpectre => "dom",
        SchemeKind::DomNonTso => "dom-nontso",
        SchemeKind::DomFuturistic => "dom-futuristic",
        SchemeKind::InvisiSpecSpectre => "invisispec",
        SchemeKind::InvisiSpecFuturistic => "invisispec-futuristic",
        SchemeKind::SafeSpecWfb => "safespec-wfb",
        SchemeKind::SafeSpecWfc => "safespec-wfc",
        SchemeKind::MuonTrap => "muontrap",
        SchemeKind::ConditionalSpeculation => "condspec",
        SchemeKind::CleanupSpec => "cleanupspec",
        SchemeKind::FenceSpectre => "fence",
        SchemeKind::FenceFuturistic => "fence-futuristic",
        SchemeKind::Advanced => "advanced",
        SchemeKind::AdvancedHoldOnly => "advanced-hold",
        SchemeKind::AdvancedAgeOnly => "advanced-age",
    }
}

/// Parses a scheme slug (as printed by [`scheme_slug`]), case-insensitive.
pub fn parse_scheme(text: &str) -> Option<SchemeKind> {
    let needle = text.to_ascii_lowercase();
    SchemeKind::all()
        .into_iter()
        .find(|s| scheme_slug(*s) == needle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_slugs_round_trip() {
        for s in SchemeKind::all() {
            assert_eq!(parse_scheme(scheme_slug(s)), Some(s), "{s:?}");
        }
        assert_eq!(parse_scheme("DOM"), Some(SchemeKind::DomSpectre));
        assert_eq!(parse_scheme("nope"), None);
    }

    #[test]
    fn registry_ids_are_unique_and_stable() {
        let ids: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        let mut dedup = ids.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), ids.len(), "duplicate experiment ids");
        for required in ["fig03", "fig07", "fig11", "table1", "occupancy"] {
            assert!(ids.contains(&required), "{required} missing from registry");
        }
    }
}
