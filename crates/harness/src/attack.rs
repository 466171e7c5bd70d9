//! Declarative attack-grid evaluation (`sia attack`): leakage scoring
//! over the (scheme × interference-variant × geometry × noise) axes,
//! compiled into a [`si_engine::UnitSpec`] stream and run through
//! [`si_engine::Engine::run_units`] — so 1-thread and N-thread runs are
//! bit-identical and `--cache` re-runs execute only changed units,
//! exactly like `sia sweep`.
//!
//! ## Grid → unit-spec compilation
//!
//! An [`AttackGrid`] is four axis lists plus a `trials` count. The cross
//! product of (geometry × noise × variant) forms the **rows**; each row
//! holds one **cell** per scheme. Every `(cell, trial)` pair becomes one
//! bit-trial unit at a fixed index whose noise seed is
//! `mix_seed(base, index)` and whose transmitted bit is
//! `secret_bits(trials, base)[trial]` — a deterministic, exactly
//! balanced sequence shared by every cell. A cell's shared state (the
//! deterministic VD-AD reference calibration,
//! `AttackScenario::prepare`) is resolved **lazily** by the first
//! executing unit that needs it, so a fully-cached warm re-run
//! calibrates nothing at all. Outcomes reassemble in index order, so
//! the emitted JSON is a pure function of `(grid, seed)`.
//!
//! ## Output (schema v2, `kind: "attack"`)
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "kind": "attack",
//!   "grid": "headline",
//!   "title": "...",
//!   "config": { trials, seed, schemes, variants, geometries, noises },
//!   "result": { "rows": [ { variant, geometry, noise,
//!                           cells: [ {scheme, accuracy, correct, wrong, abstained,
//!                                     mean_cycles, raw_bandwidth_bps, leaks,
//!                                     trials_to_95?, confident_bandwidth_bps?} ] } ] },
//!   "summary": { rows, cells, units, leaking_cells, ... }
//! }
//! ```
//!
//! `trials_to_95` / `confident_bandwidth_bps` are omitted for cells
//! whose per-trial accuracy never concentrates (≤ 0.5); renderers show
//! them as placeholder cells.

use std::sync::OnceLock;

use si_attack::{leakage, AttackScenario, BitTrial, InterferenceVariant, PreparedScenario};
use si_cpu::{GeometryPreset, NoisePreset};
use si_engine::{digest::fnv64, Engine, ExecStats, UnitSpec};
use si_schemes::SchemeKind;

use crate::exec::mix_seed;
use crate::json::{arr, obj, DocKind, Json, SCHEMA_VERSION};
use crate::scheme_slug;
use crate::sweep::{parse_filter_spec, retain_axis, scheme_family_matches};

/// The named grids `sia attack --grid` accepts, in presentation order.
pub const ATTACK_GRID_NAMES: [&str; 4] = ["headline", "geometry", "noise", "full"];

/// A declarative attack grid: axis value lists plus the trial count.
///
/// Unlike sweep grids, `schemes` may include
/// [`SchemeKind::Unprotected`] — the baseline's leak is itself a
/// result (the channel the defenses were built to close).
#[derive(Debug, Clone)]
pub struct AttackGrid {
    /// The grid's name (recorded in the output envelope).
    pub name: String,
    /// Scheme columns.
    pub schemes: Vec<SchemeKind>,
    /// Interference transmitters.
    pub variants: Vec<InterferenceVariant>,
    /// Cache-geometry presets.
    pub geometries: Vec<GeometryPreset>,
    /// Noise-environment presets.
    pub noises: Vec<NoisePreset>,
    /// Secret bits transmitted per cell.
    pub trials: usize,
    /// Force every cell onto the from-scratch trial path (the CLI's
    /// `--no-checkpoint`). Folded into each cell's machine fingerprint —
    /// and therefore its unit addresses — so cached outcomes from the two
    /// paths never alias; the emitted document itself is identical either
    /// way, which the invariance matrix (`tests/invariants.rs`) asserts.
    pub disable_checkpoint: bool,
}

impl AttackGrid {
    /// Looks up a named grid.
    ///
    /// * `headline` — the acceptance matrix: baseline, five invisible
    ///   schemes, and both fence defenses under both transmitters on
    ///   the default machine.
    /// * `geometry` — one leaking and one non-leaking scheme across
    ///   every cache-geometry preset.
    /// * `noise` — leak robustness across the noise presets.
    /// * `full` — every invisible scheme and every defense.
    pub fn named(name: &str) -> Result<AttackGrid, String> {
        use SchemeKind::*;
        let grid = match name {
            "headline" => AttackGrid {
                name: name.to_owned(),
                schemes: vec![
                    Unprotected,
                    DomSpectre,
                    InvisiSpecSpectre,
                    SafeSpecWfb,
                    MuonTrap,
                    CleanupSpec,
                    FenceSpectre,
                    FenceFuturistic,
                ],
                variants: InterferenceVariant::all(),
                geometries: vec![GeometryPreset::KabyLake],
                noises: vec![NoisePreset::Quiet],
                trials: 24,
                disable_checkpoint: false,
            },
            "geometry" => AttackGrid {
                name: name.to_owned(),
                schemes: vec![InvisiSpecSpectre, FenceFuturistic],
                variants: InterferenceVariant::all(),
                geometries: GeometryPreset::all(),
                noises: vec![NoisePreset::Quiet],
                trials: 12,
                disable_checkpoint: false,
            },
            "noise" => AttackGrid {
                name: name.to_owned(),
                schemes: vec![DomSpectre, InvisiSpecSpectre, FenceFuturistic],
                variants: InterferenceVariant::all(),
                geometries: vec![GeometryPreset::KabyLake],
                noises: NoisePreset::all(),
                trials: 24,
                disable_checkpoint: false,
            },
            "full" => AttackGrid {
                name: name.to_owned(),
                schemes: std::iter::once(Unprotected)
                    .chain(SchemeKind::invisible_schemes())
                    .chain([FenceSpectre, FenceFuturistic, Advanced])
                    .collect(),
                variants: InterferenceVariant::all(),
                geometries: vec![GeometryPreset::KabyLake],
                noises: vec![NoisePreset::Quiet],
                trials: 24,
                disable_checkpoint: false,
            },
            other => {
                return Err(format!(
                    "unknown attack grid '{other}' (grids: {})",
                    ATTACK_GRID_NAMES.join(", ")
                ))
            }
        };
        Ok(grid)
    }

    /// Shrinks the grid for quick runs: six trials per cell. Axis
    /// lists are untouched, so `--quick` exercises the same cells.
    pub fn quick(&mut self) {
        self.trials = 6;
    }

    /// Applies one `--filter axis=v1,v2,…` spec. Axes: `scheme`,
    /// `variant`, `geometry`, `noise`; scheme values match as family
    /// prefixes, the rest match slugs exactly. Errors list the valid
    /// values for the axis (same diagnostics as `sia sweep`).
    pub fn apply_filter(&mut self, spec: &str) -> Result<(), String> {
        let (axis, values) = parse_filter_spec(spec)?;
        match axis.as_str() {
            "scheme" => retain_axis(
                "scheme",
                &mut self.schemes,
                &values,
                scheme_slug,
                scheme_family_matches,
                &SchemeKind::all()
                    .into_iter()
                    .map(scheme_slug)
                    .collect::<Vec<_>>(),
            ),
            "variant" => retain_axis(
                "variant",
                &mut self.variants,
                &values,
                InterferenceVariant::slug,
                |i, v| i.slug() == v,
                &InterferenceVariant::all()
                    .iter()
                    .map(|i| i.slug())
                    .collect::<Vec<_>>(),
            ),
            "geometry" => retain_axis(
                "geometry",
                &mut self.geometries,
                &values,
                GeometryPreset::slug,
                |g, v| g.slug() == v,
                &GeometryPreset::all()
                    .iter()
                    .map(|g| g.slug())
                    .collect::<Vec<_>>(),
            ),
            "noise" => retain_axis(
                "noise",
                &mut self.noises,
                &values,
                NoisePreset::slug,
                |n, v| n.slug() == v,
                &NoisePreset::all()
                    .iter()
                    .map(|n| n.slug())
                    .collect::<Vec<_>>(),
            ),
            other => Err(format!(
                "unknown filter axis '{other}' (axes: scheme, variant, geometry, noise)"
            )),
        }
    }

    /// The grid's rows: the (geometry × noise × variant) cross product,
    /// in presentation order.
    fn rows(&self) -> Vec<RowKey> {
        let mut rows = Vec::new();
        for &geometry in &self.geometries {
            for &noise in &self.noises {
                for &variant in &self.variants {
                    rows.push(RowKey {
                        geometry,
                        noise,
                        variant,
                    });
                }
            }
        }
        rows
    }

    /// Number of bit-trial units the grid flattens into.
    pub fn unit_count(&self) -> usize {
        self.rows().len() * self.schemes.len() * self.trials.max(1)
    }

    /// The grid's unit stream under `seed`, cell-major with trials
    /// innermost: unit `i`'s noise seed is `mix_seed(seed, i)` and its
    /// transmitted bit is `secret_bits(trials, seed)[trial]`, and each
    /// cell's machine fingerprint pins its cache address.
    pub fn unit_specs(&self, seed: u64) -> Vec<UnitSpec> {
        let trials = self.trials.max(1);
        let cells = grid_cells(self, &self.rows());
        // Every cell transmits the same exactly balanced secret sequence;
        // the per-unit seed feeds only the noise.
        let bits = leakage::secret_bits(trials, seed);
        let mut specs = Vec::with_capacity(cells.len() * trials);
        for scenario in &cells {
            let digest = fnv64(scenario.machine().fingerprint().as_bytes());
            for (trial, bit) in bits.iter().enumerate() {
                specs.push(UnitSpec {
                    kind: "attack",
                    key: format!(
                        "variant={} scheme={} geometry={} noise={} bit={bit}",
                        scenario.variant.slug(),
                        scheme_slug(scenario.scheme),
                        scenario.geometry.slug(),
                        scenario.noise.slug(),
                    ),
                    trial: trial as u64,
                    seed: mix_seed(seed, specs.len() as u64),
                    config_digest: digest,
                });
            }
        }
        specs
    }
}

/// One attack row: a machine plus the transmitter mounted on it.
#[derive(Debug, Clone, Copy)]
struct RowKey {
    geometry: GeometryPreset,
    noise: NoisePreset,
    variant: InterferenceVariant,
}

/// Executes bit-trial units through `engine`: unit `i` transmits
/// `bits[i % bits.len()]` on cell `i / bits.len()`, seeded with its spec's
/// seed. Both `sia attack` and the scan's confirm stage run their trials
/// here.
///
/// A cell's shared state (the VD-AD reference calibration) resolves
/// lazily: the first executing unit of a cell calibrates, later units
/// reuse it, and a cell served entirely from cache never calibrates. The
/// calibration is a deterministic function of the cell, so lazy vs eager
/// resolution cannot change any outcome.
pub(crate) fn run_bit_trials(
    engine: &Engine,
    specs: &[UnitSpec],
    cells: &[&AttackScenario],
    bits: &[u64],
) -> (Vec<BitTrial>, ExecStats) {
    let trials = bits.len();
    let prepared: Vec<OnceLock<PreparedScenario>> = cells.iter().map(|_| OnceLock::new()).collect();
    engine.run_units(
        specs,
        |i| {
            let (cell, trial) = (i / trials, i % trials);
            let p = prepared[cell].get_or_init(|| cells[cell].prepare());
            p.run_bit_trial(bits[trial], specs[i].seed)
        },
        encode_trial,
        decode_trial,
    )
}

/// Serializes one bit-trial outcome for the unit cache.
fn encode_trial(t: &BitTrial) -> Option<String> {
    let decoded = t.decoded.map_or("-".to_owned(), |d| d.to_string());
    Some(format!("{} {decoded} {}", t.secret, t.cycles))
}

/// Parses what [`encode_trial`] wrote; anything else is a cache miss.
fn decode_trial(payload: &str) -> Option<BitTrial> {
    let mut parts = payload.split(' ');
    let secret = parts.next()?.parse().ok()?;
    let decoded = match parts.next()? {
        "-" => None,
        d => Some(d.parse().ok()?),
    };
    let cycles = parts.next()?.parse().ok()?;
    parts.next().is_none().then_some(BitTrial {
        secret,
        decoded,
        cycles,
    })
}

/// Runs an attack grid through the execution engine and returns the
/// schema-v2 result document plus the engine's executed/cached split.
/// The document is a pure function of `(grid, seed)`; the engine's
/// thread count and cache only change wall time.
pub fn run_attack_grid(
    grid: &AttackGrid,
    seed: u64,
    engine: &Engine,
) -> Result<(Json, ExecStats), String> {
    let trials = grid.trials.max(1);
    let rows = grid.rows();
    if rows.is_empty() || grid.schemes.is_empty() {
        return Err("grid has no cells (an axis is empty)".into());
    }
    let cells = grid_cells(grid, &rows);
    let (outcomes, stats) = run_bit_trials(
        engine,
        &grid.unit_specs(seed),
        &cells.iter().collect::<Vec<_>>(),
        &leakage::secret_bits(trials, seed),
    );
    Ok((
        attack_doc(grid, seed, trials, &rows, &cells, &outcomes),
        stats,
    ))
}

/// The grid's cells in row-major order, each carrying the grid's
/// checkpoint policy.
fn grid_cells(grid: &AttackGrid, rows: &[RowKey]) -> Vec<AttackScenario> {
    rows.iter()
        .flat_map(|row| {
            grid.schemes.iter().map(move |scheme| {
                let mut s = AttackScenario::new(row.variant, *scheme, row.geometry, row.noise);
                s.disable_checkpoint = grid.disable_checkpoint;
                s
            })
        })
        .collect()
}

/// Assembles the schema-v2 attack document from cell-major outcomes.
fn attack_doc(
    grid: &AttackGrid,
    seed: u64,
    trials: usize,
    rows: &[RowKey],
    cells: &[AttackScenario],
    outcomes: &[BitTrial],
) -> Json {
    let mut json_rows = Vec::with_capacity(rows.len());
    let mut leaking_cells = 0usize;
    for (r, key) in rows.iter().enumerate() {
        let mut cells_json = Vec::with_capacity(grid.schemes.len());
        for (c, scheme) in grid.schemes.iter().enumerate() {
            let base = (r * grid.schemes.len() + c) * trials;
            let score = leakage::score(&outcomes[base..base + trials]);
            if score.leaks() {
                leaking_cells += 1;
            }
            cells_json.push(score_json(*scheme, &score));
        }
        json_rows.push(obj([
            ("variant", Json::from(key.variant.slug())),
            ("geometry", Json::from(key.geometry.slug())),
            ("noise", Json::from(key.noise.slug())),
            ("cells", Json::Arr(cells_json)),
        ]));
    }

    let config = obj([
        ("trials", Json::from(trials)),
        ("seed", Json::from(seed)),
        (
            "schemes",
            arr(grid
                .schemes
                .iter()
                .map(|s| scheme_slug(*s))
                .collect::<Vec<_>>()),
        ),
        (
            "variants",
            arr(grid.variants.iter().map(|v| v.slug()).collect::<Vec<_>>()),
        ),
        (
            "geometries",
            arr(grid.geometries.iter().map(|g| g.slug()).collect::<Vec<_>>()),
        ),
        (
            "noises",
            arr(grid.noises.iter().map(|n| n.slug()).collect::<Vec<_>>()),
        ),
    ]);
    let summary = obj([
        ("rows", Json::from(json_rows.len())),
        ("cells", Json::from(cells.len())),
        ("units", Json::from(cells.len() * trials)),
        ("leaking_cells", Json::from(leaking_cells)),
    ]);
    obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("kind", Json::from(DocKind::Attack.slug())),
        ("grid", Json::from(grid.name.as_str())),
        (
            "title",
            Json::from(format!("Interference-attack grid '{}'", grid.name)),
        ),
        ("config", config),
        ("result", obj([("rows", Json::Arr(json_rows))])),
        ("summary", summary),
    ])
}

fn score_json(scheme: SchemeKind, score: &leakage::LeakageScore) -> Json {
    let mut cell = obj([
        ("scheme", Json::from(scheme_slug(scheme))),
        ("accuracy", Json::from(score.accuracy)),
        ("correct", Json::from(score.correct)),
        ("wrong", Json::from(score.wrong)),
        ("abstained", Json::from(score.abstained)),
        ("mean_cycles", Json::from(score.mean_cycles)),
        ("raw_bandwidth_bps", Json::from(score.raw_bandwidth_bps)),
        ("leaks", Json::from(score.leaks())),
    ]);
    if let Some(n) = score.trials_to_95 {
        cell.push("trials_to_95", Json::from(n));
    }
    if let Some(bps) = score.confident_bandwidth_bps {
        cell.push("confident_bandwidth_bps", Json::from(bps));
    }
    cell
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_grid_resolves_and_counts_units() {
        for name in ATTACK_GRID_NAMES {
            let grid = AttackGrid::named(name).expect(name);
            assert!(grid.unit_count() > 0, "{name}");
            assert!(!grid.variants.is_empty(), "{name}");
        }
        assert!(AttackGrid::named("nope").is_err());
    }

    #[test]
    fn quick_shrinks_trials_but_not_axes() {
        let mut grid = AttackGrid::named("headline").expect("grid");
        let cells = grid.schemes.len() * grid.variants.len();
        grid.quick();
        assert_eq!(grid.trials, 6);
        assert_eq!(grid.schemes.len() * grid.variants.len(), cells);
    }

    #[test]
    fn trial_codec_round_trips() {
        for t in [
            BitTrial {
                secret: 1,
                decoded: Some(0),
                cycles: 123,
            },
            BitTrial {
                secret: 0,
                decoded: None,
                cycles: 9,
            },
        ] {
            assert_eq!(decode_trial(&encode_trial(&t).expect("encodes")), Some(t));
        }
        assert_eq!(decode_trial("garbage"), None);
        assert_eq!(decode_trial("1 0"), None, "truncated payload is a miss");
        assert_eq!(decode_trial("1 0 5 6"), None, "trailing junk is a miss");
    }

    /// A tiny one-cell grid.
    fn tiny_grid() -> AttackGrid {
        let mut grid = AttackGrid::named("headline").expect("grid");
        grid.apply_filter("variant=port-contention")
            .expect("filter");
        grid.apply_filter("scheme=invisispec").expect("filter");
        grid.schemes.truncate(1);
        grid.trials = 4;
        grid
    }

    /// `disable_checkpoint` changes every cell's machine fingerprint, so
    /// the two paths can never alias in the unit cache.
    #[test]
    fn no_checkpoint_changes_unit_addresses() {
        let grid = tiny_grid();
        let mut scratch_grid = grid.clone();
        scratch_grid.disable_checkpoint = true;
        let digest = |g: &AttackGrid| {
            fnv64(
                grid_cells(g, &g.rows())[0]
                    .machine()
                    .fingerprint()
                    .as_bytes(),
            )
        };
        assert_ne!(digest(&grid), digest(&scratch_grid));
    }

    #[test]
    fn filters_narrow_axes_and_diagnose_bad_values() {
        let mut grid = AttackGrid::named("headline").expect("grid");
        grid.apply_filter("variant=port-contention")
            .expect("filter");
        assert_eq!(grid.variants, [InterferenceVariant::PortContention]);
        grid.apply_filter("scheme=invisispec,fence")
            .expect("filter");
        let slugs: Vec<&str> = grid.schemes.iter().map(|s| scheme_slug(*s)).collect();
        assert_eq!(slugs, ["invisispec", "fence", "fence-futuristic"]);

        // Unknown value: the error teaches the axis domain.
        let err = grid.apply_filter("variant=nope").unwrap_err();
        assert!(err.contains("mshr-pressure"), "{err}");
        assert!(err.contains("port-contention"), "{err}");
        let err = grid.apply_filter("scheme=muontrap").unwrap_err();
        assert!(
            err.contains("valid scheme values") && err.contains("muontrap"),
            "{err}"
        );
        assert!(err.contains("in this grid"), "{err}");
        assert!(grid.apply_filter("planet=earth").is_err());
    }
}
