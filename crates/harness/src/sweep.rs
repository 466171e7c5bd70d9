//! Declarative scenario sweeps (`sia sweep`): a grid spec over the
//! evaluation axes — defense scheme (× shadow model), workload kernel,
//! cache geometry, noise environment, and branch-predictor size — that
//! compiles into a [`si_engine::UnitSpec`] stream and runs through
//! [`si_engine::Engine::run_units`], so 1-thread and N-thread sweeps
//! stay bit-identical and `--cache` re-runs execute only units whose
//! spec changed.
//!
//! ## Grid → unit-spec compilation
//!
//! A [`GridSpec`] is five axis lists plus a workload `scale` and a
//! `trials` count. The cross product of (geometry × noise × predictor ×
//! workload) forms the sweep's **rows**; each row measures the
//! [`SchemeKind::Unprotected`] baseline plus one **cell** per scheme in
//! the grid. Every `(row, column, trial)` triple becomes one unit at a
//! fixed index — row-major, then column (baseline first), then trial —
//! whose spec carries the cell axes, the workload scale, the machine's
//! config fingerprint, and the unit's noise seed
//! `mix_seed(base_seed, unit_index)`. Because the index is assigned
//! before fan-out and outcomes reassemble in index order (executed or
//! spliced from cache alike), the emitted JSON is a pure function of
//! `(grid, seed)` — never of thread count, completion order, or cache
//! temperature.
//!
//! ## Output (schema v2, `kind: "sweep"`)
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "kind": "sweep",
//!   "grid": "defense",
//!   "title": "...",
//!   "config": { scale, trials, seed, schemes, workloads, geometries, noises, predictors },
//!   "result": { "rows": [ { workload, geometry, noise, predictor,
//!                           baseline: {mean_cycles, ...},
//!                           cells: [ {scheme, mean_cycles, slowdown, ...} | {scheme, error} ] } ] },
//!   "summary": { units, errors, "geomean_<scheme>": ... }
//! }
//! ```
//!
//! Failed cells (timeout, checksum mismatch) carry an `error` string
//! instead of numbers; renderers show them as placeholder cells so
//! tables stay rectangular.

use si_cpu::{GeometryPreset, MachineConfig, NoisePreset, PredictorPreset};
use si_engine::{digest::fnv64, Engine, ExecStats, UnitSpec};
use si_schemes::SchemeKind;
use si_workloads::WorkloadKind;

use crate::exec::mix_seed;
use crate::json::{arr, obj, DocKind, Json, SCHEMA_VERSION};
use crate::scheme_slug;

/// The named grids `sia sweep --grid` accepts, in presentation order.
pub const GRID_NAMES: [&str; 6] = ["defense", "schemes", "geometry", "noise", "full", "trace"];

/// A declarative sweep grid: axis value lists plus the sample knobs.
///
/// The `schemes` axis never contains [`SchemeKind::Unprotected`] — the
/// baseline is measured for every row regardless, so each cell can
/// report its slowdown against the matching unprotected run.
#[derive(Debug, Clone)]
pub struct GridSpec {
    /// The grid's name (recorded in the output envelope).
    pub name: String,
    /// Scheme columns (baseline excluded; it is always measured).
    pub schemes: Vec<SchemeKind>,
    /// Workload kernels.
    pub workloads: Vec<WorkloadKind>,
    /// Cache-geometry presets.
    pub geometries: Vec<GeometryPreset>,
    /// Noise-environment presets.
    pub noises: Vec<NoisePreset>,
    /// Branch-predictor presets.
    pub predictors: Vec<PredictorPreset>,
    /// Workload problem scale (see `si_workloads::WorkloadKind::program`).
    pub scale: usize,
    /// Trials per cell (mean-aggregated; >1 only matters under noise).
    pub trials: usize,
}

impl GridSpec {
    /// Looks up a named grid.
    ///
    /// * `defense` — the Figure 12 neighbourhood: DoM, both fence
    ///   models, and the §5.4 advanced defense over all eight kernels
    ///   plus the committed sample traces, under both the bimodal and
    ///   TAGE predictors.
    /// * `schemes` — every protected scheme over four representative
    ///   kernels.
    /// * `geometry` — two schemes × four memory-shaped kernels across
    ///   every cache-geometry preset.
    /// * `noise` — two schemes × two kernels across the noise presets,
    ///   three trials per cell (noise is the point).
    /// * `full` — every protected scheme × every kernel.
    /// * `trace` — the defense schemes over the committed sample traces
    ///   only, under the TAGE predictor (the EXPERIMENTS.md trace
    ///   table). Already quick-shaped: `--quick` changes nothing.
    pub fn named(name: &str) -> Result<GridSpec, String> {
        use SchemeKind::*;
        use WorkloadKind::*;
        let spec = match name {
            "defense" => GridSpec {
                name: name.to_owned(),
                schemes: vec![DomSpectre, FenceSpectre, FenceFuturistic, Advanced],
                workloads: WorkloadKind::all()
                    .into_iter()
                    .chain(WorkloadKind::traces())
                    .collect(),
                geometries: vec![GeometryPreset::KabyLake],
                noises: vec![NoisePreset::Quiet],
                predictors: vec![PredictorPreset::P1k, PredictorPreset::Tage],
                scale: 48,
                trials: 1,
            },
            "schemes" => GridSpec {
                name: name.to_owned(),
                schemes: SchemeKind::all()
                    .into_iter()
                    .filter(|s| *s != Unprotected)
                    .collect(),
                workloads: vec![PointerChase, Stream, BranchySort, Mixed],
                geometries: vec![GeometryPreset::KabyLake],
                noises: vec![NoisePreset::Quiet],
                predictors: vec![PredictorPreset::P1k],
                scale: 32,
                trials: 1,
            },
            "geometry" => GridSpec {
                name: name.to_owned(),
                schemes: vec![DomSpectre, FenceSpectre],
                workloads: vec![PointerChase, Stream, CacheThrash, Mixed],
                geometries: GeometryPreset::all(),
                noises: vec![NoisePreset::Quiet],
                predictors: vec![PredictorPreset::P1k],
                scale: 32,
                trials: 1,
            },
            "noise" => GridSpec {
                name: name.to_owned(),
                schemes: vec![DomSpectre, FenceSpectre],
                workloads: vec![PointerChase, Mixed],
                geometries: vec![GeometryPreset::KabyLake],
                noises: NoisePreset::all(),
                predictors: vec![PredictorPreset::P1k],
                scale: 32,
                trials: 3,
            },
            "full" => GridSpec {
                name: name.to_owned(),
                schemes: SchemeKind::all()
                    .into_iter()
                    .filter(|s| *s != Unprotected)
                    .collect(),
                workloads: WorkloadKind::all(),
                geometries: vec![GeometryPreset::KabyLake],
                noises: vec![NoisePreset::Quiet],
                predictors: vec![PredictorPreset::P1k],
                scale: 48,
                trials: 1,
            },
            // Trace workloads ignore scale (fixed at record time), and
            // the grid uses scale 16 / one trial so `--quick` is a
            // no-op: `--grid trace` reproduces results/sweep-trace.json
            // with or without it.
            "trace" => GridSpec {
                name: name.to_owned(),
                schemes: vec![DomSpectre, FenceSpectre, FenceFuturistic, Advanced],
                workloads: WorkloadKind::traces(),
                geometries: vec![GeometryPreset::KabyLake],
                noises: vec![NoisePreset::Quiet],
                predictors: vec![PredictorPreset::Tage],
                scale: 16,
                trials: 1,
            },
            other => {
                return Err(format!(
                    "unknown grid '{other}' (grids: {})",
                    GRID_NAMES.join(", ")
                ))
            }
        };
        Ok(spec)
    }

    /// Shrinks the grid for quick runs: scale 16, one trial per cell.
    /// Axis lists are untouched, so `--quick` exercises the same cells.
    pub fn quick(&mut self) {
        self.scale = 16;
        self.trials = 1;
    }

    /// Applies one `--filter axis=v1,v2,…` spec. Axes: `scheme`,
    /// `workload`, `geometry`, `noise`, `predictor`. A scheme value
    /// matches its slug exactly or as a family prefix (`dom` matches
    /// `dom`, `dom-nontso`, `dom-futuristic`); the other axes match
    /// slugs exactly. A value matching nothing, or a filter emptying an
    /// axis, is an error whose message lists the axis's valid values
    /// (see [`retain_axis`]).
    pub fn apply_filter(&mut self, spec: &str) -> Result<(), String> {
        let (axis, values) = parse_filter_spec(spec)?;
        match axis.as_str() {
            "scheme" => {
                if values.iter().any(|v| v == "unprotected") {
                    return Err(
                        "the unprotected baseline always runs; filter protected schemes".into(),
                    );
                }
                retain_axis(
                    "scheme",
                    &mut self.schemes,
                    &values,
                    scheme_slug,
                    scheme_family_matches,
                    &SchemeKind::all()
                        .into_iter()
                        .map(scheme_slug)
                        .collect::<Vec<_>>(),
                )
            }
            "workload" => retain_axis(
                "workload",
                &mut self.workloads,
                &values,
                WorkloadKind::label,
                workload_family_matches,
                &WorkloadKind::all()
                    .iter()
                    .chain(WorkloadKind::traces().iter())
                    .map(|w| w.label())
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
            "predictor" => retain_axis(
                "predictor",
                &mut self.predictors,
                &values,
                PredictorPreset::slug,
                |p, v| p.slug() == v,
                &PredictorPreset::all()
                    .iter()
                    .map(|p| p.slug())
                    .collect::<Vec<_>>(),
            ),
            other => Err(format!(
                "unknown filter axis '{other}' (axes: scheme, workload, geometry, noise, predictor)"
            )),
        }
    }

    /// The sweep's rows: the (geometry × noise × predictor × workload)
    /// cross product, in presentation order.
    fn rows(&self) -> Vec<RowKey> {
        let mut rows = Vec::new();
        for &geometry in &self.geometries {
            for &noise in &self.noises {
                for &predictor in &self.predictors {
                    for &workload in &self.workloads {
                        rows.push(RowKey {
                            geometry,
                            noise,
                            predictor,
                            workload,
                        });
                    }
                }
            }
        }
        rows
    }

    /// Number of trial units the grid flattens into (baseline included).
    pub fn unit_count(&self) -> usize {
        self.rows().len() * (self.schemes.len() + 1) * self.trials.max(1)
    }

    /// The grid's columns: the unprotected baseline, then each scheme.
    fn columns(&self) -> Vec<SchemeKind> {
        std::iter::once(SchemeKind::Unprotected)
            .chain(self.schemes.iter().copied())
            .collect()
    }

    /// The grid's unit stream under `seed`, in execution order: rows
    /// row-major, baseline column first, trials innermost. The unit index
    /// doubles as the per-unit seed derivation input; the spec
    /// additionally pins the cell axes and the machine's config
    /// fingerprint, so the cache key survives grid re-shapes only for
    /// units whose work is genuinely unchanged.
    pub fn unit_specs(&self, seed: u64) -> Vec<UnitSpec> {
        let trials = self.trials.max(1);
        let columns = self.columns();
        let mut specs = Vec::with_capacity(self.unit_count());
        for k in self.rows() {
            let mut digest = fnv64(
                MachineConfig::from_presets(k.geometry, k.noise, k.predictor)
                    .fingerprint()
                    .as_bytes(),
            );
            // A trace workload's measurement depends on the trace bytes
            // as much as on the machine config: fold the fixture's
            // content digest into the unit spec so re-recording a trace
            // orphans its cached results.
            if let WorkloadKind::Trace(t) = k.workload {
                digest ^= t.content_digest();
            }
            for &scheme in &columns {
                for trial in 0..trials {
                    specs.push(UnitSpec {
                        kind: "sweep",
                        key: format!(
                            "scheme={} workload={} geometry={} noise={} predictor={} scale={}",
                            scheme_slug(scheme),
                            k.workload.label(),
                            k.geometry.slug(),
                            k.noise.slug(),
                            k.predictor.slug(),
                            self.scale
                        ),
                        trial: trial as u64,
                        seed: mix_seed(seed, specs.len() as u64),
                        config_digest: digest,
                    });
                }
            }
        }
        specs
    }
}

/// Splits a `--filter axis=v1,v2,…` spec into its axis name and
/// normalized (trimmed, lowercased, non-empty) value list. Shared by
/// `sia sweep` and `sia attack`.
pub(crate) fn parse_filter_spec(spec: &str) -> Result<(String, Vec<String>), String> {
    let (axis, values) = spec
        .split_once('=')
        .ok_or_else(|| format!("filter '{spec}' is not of the form axis=v1,v2"))?;
    let values: Vec<String> = values
        .split(',')
        .map(|v| v.trim().to_ascii_lowercase())
        .filter(|v| !v.is_empty())
        .collect();
    if values.is_empty() {
        return Err(format!("filter '{spec}' names no values"));
    }
    Ok((axis.trim().to_owned(), values))
}

/// Scheme filter values match their slug exactly or as a family prefix
/// (`dom` matches `dom`, `dom-nontso`, `dom-futuristic`).
pub(crate) fn scheme_family_matches(s: SchemeKind, v: &str) -> bool {
    let slug = scheme_slug(s);
    slug == v || slug.starts_with(&format!("{v}-"))
}

/// Workload filter values match their label exactly or as a family
/// prefix — `workload=trace` selects every `trace-*` replay workload.
pub(crate) fn workload_family_matches(w: WorkloadKind, v: &str) -> bool {
    let label = w.label();
    label == v || label.starts_with(&format!("{v}-"))
}

/// Narrows one grid axis to the values a `--filter` names. A value that
/// matches nothing is an error listing both the axis's full value
/// domain and what this grid actually carries (the two reasons a filter
/// can miss); a filter that empties the axis is an error too. Shared by
/// every `sia sweep` / `sia attack` axis.
pub(crate) fn retain_axis<T: Copy>(
    axis: &str,
    items: &mut Vec<T>,
    values: &[String],
    slug: impl Fn(T) -> &'static str,
    matches: impl Fn(T, &str) -> bool,
    domain: &[&'static str],
) -> Result<(), String> {
    for v in values {
        if !items.iter().any(|i| matches(*i, v)) {
            let in_grid: Vec<&str> = items.iter().map(|i| slug(*i)).collect();
            return Err(format!(
                "filter value '{v}' matches nothing on axis '{axis}'\n  valid {axis} values: {}\n  in this grid:     {}",
                domain.join(", "),
                in_grid.join(", ")
            ));
        }
    }
    items.retain(|i| values.iter().any(|v| matches(*i, v)));
    if items.is_empty() {
        return Err(format!("filter emptied axis '{axis}'"));
    }
    Ok(())
}

/// One sweep row: a machine configuration plus the kernel it runs.
#[derive(Debug, Clone, Copy)]
struct RowKey {
    geometry: GeometryPreset,
    noise: NoisePreset,
    predictor: PredictorPreset,
    workload: WorkloadKind,
}

/// Serializes one sweep outcome for the unit cache.
fn encode_outcome(outcome: &Result<u64, String>) -> Option<String> {
    Some(match outcome {
        Ok(cycles) => format!("ok {cycles}"),
        // Kernel failures are deterministic (simulated timeouts, checksum
        // mismatches), so caching them is sound and keeps warm re-runs
        // from re-simulating known-failing cells.
        Err(e) => format!("err {e}"),
    })
}

/// Parses what [`encode_outcome`] wrote; anything else is a cache miss.
fn decode_outcome(payload: &str) -> Option<Result<u64, String>> {
    if let Some(cycles) = payload.strip_prefix("ok ") {
        return cycles.parse().ok().map(Ok);
    }
    payload.strip_prefix("err ").map(|e| Err(e.to_owned()))
}

/// Executes `grid`'s unit stream under `seed` through `engine`: one
/// kernel run per unit, each outcome (cycles, or the kernel's error) in
/// unit order. [`run_sweep`] aggregates them into the sweep document;
/// Figure 12 reads its cells straight from them.
pub(crate) fn grid_outcomes(
    grid: &GridSpec,
    seed: u64,
    engine: &Engine,
) -> (Vec<Result<u64, String>>, ExecStats) {
    let trials = grid.trials.max(1);
    let rows = grid.rows();
    let columns = grid.columns();
    let specs = grid.unit_specs(seed);
    engine.run_units(
        &specs,
        |i| {
            // Unit `i` is (row, column, trial) row-major; column 0 is the
            // unprotected baseline, `1 + j` is scheme `j`.
            let (row, col) = (i / (columns.len() * trials), i / trials % columns.len());
            let k = &rows[row];
            let mut cfg = MachineConfig::from_presets(k.geometry, k.noise, k.predictor);
            cfg.noise.seed = specs[i].seed;
            si_workloads::run(k.workload, grid.scale, columns[col], &cfg)
                .map(|m| m.cycles)
                .map_err(|e| e.to_string())
        },
        encode_outcome,
        decode_outcome,
    )
}

/// Runs a sweep through the execution engine and returns the schema-v2
/// result document plus the engine's executed/cached split. The
/// document is a pure function of `(grid, seed)`; the engine's thread
/// count and cache only change wall time.
pub fn run_sweep(grid: &GridSpec, seed: u64, engine: &Engine) -> Result<(Json, ExecStats), String> {
    if grid.scale == 0 {
        return Err("workload scale must be non-zero".into());
    }
    let trials = grid.trials.max(1);
    let rows = grid.rows();
    if rows.is_empty() {
        return Err("grid has no rows (an axis is empty)".into());
    }
    let columns = grid.columns();
    let (outcomes, stats) = grid_outcomes(grid, seed, engine);

    // Aggregate per (row, column): mean cycles over successful trials.
    let mut json_rows = Vec::with_capacity(rows.len());
    let mut errors = 0usize;
    // Per-scheme ln-slowdown accumulators for the geomean summary.
    let mut geo = vec![(0.0f64, 0usize); grid.schemes.len()];
    for (r, key) in rows.iter().enumerate() {
        let cell_of = |col: usize| -> (Option<f64>, usize, Option<String>) {
            let base = (r * columns.len() + col) * trials;
            let slice = &outcomes[base..base + trials];
            let ok: Vec<u64> = slice
                .iter()
                .filter_map(|o| o.as_ref().ok().copied())
                .collect();
            let failed = trials - ok.len();
            let first_err = slice.iter().find_map(|o| o.as_ref().err().cloned());
            let mean = (!ok.is_empty()).then(|| ok.iter().sum::<u64>() as f64 / ok.len() as f64);
            (mean, failed, first_err)
        };
        let (base_mean, base_failed, base_err) = cell_of(0);
        errors += base_failed;
        let mut baseline = obj([("trials", Json::from(trials))]);
        match base_mean {
            Some(m) => baseline.push("mean_cycles", Json::from(m)),
            None => baseline.push("error", Json::from(base_err.unwrap_or_default())),
        }
        let mut cells = Vec::with_capacity(grid.schemes.len());
        for (i, scheme) in grid.schemes.iter().enumerate() {
            let (mean, failed, first_err) = cell_of(1 + i);
            errors += failed;
            let mut cell = obj([("scheme", Json::from(scheme_slug(*scheme)))]);
            match mean {
                Some(m) => {
                    cell.push("mean_cycles", Json::from(m));
                    if let Some(b) = base_mean {
                        let slowdown = m / b;
                        cell.push("slowdown", Json::from(slowdown));
                        let (sum, n) = geo[i];
                        geo[i] = (sum + slowdown.ln(), n + 1);
                    }
                }
                None => cell.push("error", Json::from(first_err.unwrap_or_default())),
            }
            cells.push(cell);
        }
        json_rows.push(obj([
            ("workload", Json::from(key.workload.label())),
            ("geometry", Json::from(key.geometry.slug())),
            ("noise", Json::from(key.noise.slug())),
            ("predictor", Json::from(key.predictor.slug())),
            ("baseline", baseline),
            ("cells", Json::Arr(cells)),
        ]));
    }

    let config = obj([
        ("scale", Json::from(grid.scale)),
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
            "workloads",
            arr(grid.workloads.iter().map(|w| w.label()).collect::<Vec<_>>()),
        ),
        (
            "geometries",
            arr(grid.geometries.iter().map(|g| g.slug()).collect::<Vec<_>>()),
        ),
        (
            "noises",
            arr(grid.noises.iter().map(|n| n.slug()).collect::<Vec<_>>()),
        ),
        (
            "predictors",
            arr(grid.predictors.iter().map(|p| p.slug()).collect::<Vec<_>>()),
        ),
    ]);
    let mut summary = obj([
        ("rows", Json::from(json_rows.len())),
        ("units", Json::from(outcomes.len())),
        ("errors", Json::from(errors)),
    ]);
    for (i, scheme) in grid.schemes.iter().enumerate() {
        let (sum, n) = geo[i];
        if n > 0 {
            summary.push(
                &format!("geomean_{}", scheme_slug(*scheme)),
                Json::from((sum / n as f64).exp()),
            );
        }
    }
    let doc = obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("kind", Json::from(DocKind::Sweep.slug())),
        ("grid", Json::from(grid.name.as_str())),
        (
            "title",
            Json::from(format!("Scenario sweep '{}'", grid.name)),
        ),
        ("config", config),
        ("result", obj([("rows", Json::Arr(json_rows))])),
        ("summary", summary),
    ]);
    Ok((doc, stats))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_named_grid_resolves_and_counts_units() {
        for name in GRID_NAMES {
            let grid = GridSpec::named(name).expect(name);
            assert!(grid.unit_count() > 0, "{name}");
            assert!(
                !grid.schemes.contains(&SchemeKind::Unprotected),
                "{name}: baseline must not be a scheme column"
            );
        }
        assert!(GridSpec::named("nope").is_err());
    }

    #[test]
    fn filters_narrow_axes_with_family_prefixes() {
        let mut grid = GridSpec::named("schemes").expect("grid");
        grid.apply_filter("scheme=dom,fence").expect("filter");
        let slugs: Vec<&str> = grid.schemes.iter().map(|s| scheme_slug(*s)).collect();
        assert_eq!(
            slugs,
            [
                "dom",
                "dom-nontso",
                "dom-futuristic",
                "fence",
                "fence-futuristic"
            ]
        );
        grid.apply_filter("workload=ptr-chase").expect("filter");
        assert_eq!(grid.workloads, [WorkloadKind::PointerChase]);
    }

    #[test]
    fn bad_filters_are_rejected() {
        let mut grid = GridSpec::named("defense").expect("grid");
        assert!(grid.apply_filter("scheme").is_err());
        assert!(grid.apply_filter("scheme=nope").is_err());
        assert!(grid.apply_filter("scheme=unprotected").is_err());
        assert!(grid.apply_filter("planet=earth").is_err());
        // Valid values absent from *this* grid are errors too (defense
        // has no invisispec column).
        assert!(grid.apply_filter("scheme=invisispec").is_err());
    }

    #[test]
    fn bad_filter_values_list_the_axis_domain() {
        let mut grid = GridSpec::named("defense").expect("grid");
        // Unknown value: the error teaches every valid value, not just
        // the axis names.
        let err = grid.apply_filter("workload=streem").unwrap_err();
        assert!(err.contains("valid workload values"), "{err}");
        for label in WorkloadKind::all().iter().map(|w| w.label()) {
            assert!(err.contains(label), "{err} missing {label}");
        }
        // A valid-but-absent value additionally shows the grid's own
        // columns, so the two failure modes are distinguishable.
        let err = grid.apply_filter("scheme=invisispec").unwrap_err();
        assert!(err.contains("valid scheme values"), "{err}");
        assert!(err.contains("invisispec"), "{err}");
        assert!(err.contains("in this grid"), "{err}");
        let err = grid.apply_filter("noise=loud").unwrap_err();
        assert!(err.contains("quiet") && err.contains("bursty"), "{err}");
        let err = grid.apply_filter("geometry=tiny").unwrap_err();
        assert!(
            err.contains("kaby-lake") && err.contains("low-assoc"),
            "{err}"
        );
        let err = grid.apply_filter("predictor=p2").unwrap_err();
        assert!(err.contains("p1k") && err.contains("p8k"), "{err}");
    }

    #[test]
    fn trace_grid_and_workload_family_filter() {
        let mut grid = GridSpec::named("defense").expect("grid");
        assert!(grid.workloads.len() > 8, "defense carries trace workloads");
        assert_eq!(
            grid.predictors,
            [PredictorPreset::P1k, PredictorPreset::Tage]
        );
        grid.apply_filter("workload=trace").expect("family filter");
        assert_eq!(grid.workloads, WorkloadKind::traces());
        grid.apply_filter("predictor=tage")
            .expect("predictor filter");
        assert_eq!(grid.predictors, [PredictorPreset::Tage]);

        // The trace grid is already quick-shaped, so a quick run
        // reproduces the committed fixture byte-for-byte.
        let grid = GridSpec::named("trace").expect("grid");
        let mut quick = grid.clone();
        quick.quick();
        assert_eq!(quick.scale, grid.scale);
        assert_eq!(quick.trials, grid.trials);
        assert_eq!(grid.workloads, WorkloadKind::traces());
    }

    #[test]
    fn outcome_codec_round_trips() {
        for outcome in [
            Ok(123_456_u64),
            Err("kernel timed out after 1000000 cycles".to_owned()),
        ] {
            let payload = encode_outcome(&outcome).expect("encodes");
            assert_eq!(decode_outcome(&payload), Some(outcome));
        }
        assert_eq!(decode_outcome("garbage"), None);
        assert_eq!(decode_outcome("ok not-a-number"), None);
    }

    #[test]
    fn quick_shrinks_knobs_but_not_axes() {
        let mut grid = GridSpec::named("noise").expect("grid");
        let cells = grid.workloads.len() * grid.schemes.len() * grid.noises.len();
        grid.quick();
        assert_eq!(grid.scale, 16);
        assert_eq!(grid.trials, 1);
        assert_eq!(
            grid.workloads.len() * grid.schemes.len() * grid.noises.len(),
            cells
        );
    }
}
