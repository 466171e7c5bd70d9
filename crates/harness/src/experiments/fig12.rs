//! Figure 12 — normalized execution time of the §5.2 basic fence
//! defense (Spectre and Futuristic models) per workload kernel.
//!
//! `--trials` scales the kernels: workload scale = `trials × 8`, clamped
//! to `[16, 96]` (the default of 8 reproduces the seed binaries'
//! scale 64). The cells are the defense sweep's fence columns over the
//! eight kernels on the default machine, executed as sweep units (one
//! per kernel and column) fanned out across threads.

use si_cpu::{GeometryPreset, NoisePreset, PredictorPreset};
use si_schemes::SchemeKind;
use si_workloads::WorkloadKind;

use crate::json::{obj, Json};
use crate::sweep::{grid_outcomes, GridSpec};
use crate::{scheme_slug, Engine, Experiment, RunCtx};

pub struct Fig12;

const SCHEMES: [SchemeKind; 2] = [SchemeKind::FenceSpectre, SchemeKind::FenceFuturistic];

/// Maps the trials knob to a workload scale.
pub(crate) fn scale_of(trials: usize) -> usize {
    (trials * 8).clamp(16, 96)
}

impl Experiment for Fig12 {
    fn id(&self) -> &'static str {
        "fig12"
    }

    fn title(&self) -> &'static str {
        "Basic-defense slowdown per workload, Spectre vs Futuristic (Figure 12)"
    }

    fn default_trials(&self) -> usize {
        8
    }

    fn run(&self, ctx: &RunCtx) -> Result<(Json, Json), String> {
        // The fence columns of the defense sweep, on the default machine.
        // Quiet noise never draws from its RNG streams, so the units' noise
        // seeds change no cycle count.
        let grid = GridSpec {
            name: self.id().to_owned(),
            schemes: SCHEMES.to_vec(),
            workloads: WorkloadKind::all(),
            geometries: vec![GeometryPreset::KabyLake],
            noises: vec![NoisePreset::Quiet],
            predictors: vec![PredictorPreset::P1k],
            scale: scale_of(ctx.trials),
            trials: 1,
        };
        let (outcomes, _) = grid_outcomes(&grid, ctx.seed, &Engine::new(ctx.threads));
        let mut geo = [0.0f64; 2];
        let mut measured = 0usize;
        let mut json_rows = Vec::new();
        // One row per workload: the baseline column, then each scheme's.
        for (kind, cells) in grid
            .workloads
            .iter()
            .zip(outcomes.chunks(1 + SCHEMES.len()))
        {
            let mut row = obj([("workload", Json::from(kind.label()))]);
            // A failed kernel reports its first failing column.
            match cells.iter().cloned().collect::<Result<Vec<u64>, String>>() {
                Ok(cycles) => {
                    let baseline = cycles[0];
                    let mut entries = Vec::with_capacity(SCHEMES.len());
                    for (i, (scheme, &c)) in SCHEMES.iter().zip(&cycles[1..]).enumerate() {
                        let slowdown = c as f64 / baseline as f64;
                        geo[i] += slowdown.ln();
                        entries.push(obj([
                            ("scheme", Json::from(scheme_slug(*scheme))),
                            ("cycles", Json::from(c)),
                            ("slowdown", Json::from(slowdown)),
                        ]));
                    }
                    measured += 1;
                    row.push("baseline_cycles", Json::from(baseline));
                    row.push("entries", Json::Arr(entries));
                }
                Err(e) => row.push("error", Json::from(e)),
            }
            json_rows.push(row);
        }
        if measured == 0 {
            return Err("every workload failed to run".to_owned());
        }
        let geomean = |sum_ln: f64| -> f64 { (sum_ln / measured as f64).exp() };
        let result = obj([
            ("scale", Json::from(grid.scale)),
            ("rows", Json::Arr(json_rows)),
            (
                "paper_reference",
                Json::from("paper geomeans on SPEC2017/gem5: 1.58x (Spectre), 5.38x (Futuristic)"),
            ),
        ]);
        let summary = obj([
            ("workloads_measured", Json::from(measured)),
            ("geomean_fence_spectre", Json::from(geomean(geo[0]))),
            ("geomean_fence_futuristic", Json::from(geomean(geo[1]))),
        ]);
        Ok((result, summary))
    }
}
