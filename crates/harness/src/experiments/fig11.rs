//! Figure 11 — covert-channel bit-error probability versus bit rate for
//! the D-Cache and I-Cache PoCs, by sweeping repetitions-per-bit under
//! injected noise.
//!
//! `--trials` is the number of transmitted bits per operating point.
//! Every `(curve, point, bit, repetition)` trial is an independent unit
//! with its own derived noise seed, so the whole sweep fans out across
//! threads at once.

use si_core::attacks::{Attack, AttackKind};
use si_core::channel::{random_bits, CLOCK_GHZ};
use si_schemes::SchemeKind;

use crate::exec::{mix_seed, parallel_map};
use crate::json::{obj, Json};
use crate::{Experiment, RunCtx};

pub struct Fig11;

const REPS_LIST: [usize; 4] = [1, 2, 4, 8];
const DRAM_JITTER: u64 = 40;
const BG_PERIOD: u64 = 16;

struct Curve {
    name: &'static str,
    kind: AttackKind,
}

const CURVES: [Curve; 2] = [
    Curve {
        name: "dcache",
        kind: AttackKind::NpeuVdVd,
    },
    Curve {
        name: "icache",
        kind: AttackKind::IrsICache,
    },
];

/// One trial unit in the flattened sweep.
struct Unit {
    curve: usize,
    point: usize,
    bit_index: usize,
}

impl Experiment for Fig11 {
    fn id(&self) -> &'static str {
        "fig11"
    }

    fn title(&self) -> &'static str {
        "Covert-channel error rate vs bit rate, D-Cache and I-Cache (Figure 11)"
    }

    fn default_trials(&self) -> usize {
        24
    }

    fn supports_scheme_override(&self) -> bool {
        true
    }

    fn run(&self, ctx: &RunCtx) -> Result<(Json, Json), String> {
        let scheme = ctx.scheme_or(SchemeKind::DomSpectre);
        let bits = random_bits(ctx.trials, mix_seed(ctx.seed, 0xb175));
        let mut machine = ctx.machine();
        machine.noise.dram_jitter = DRAM_JITTER;
        // Co-tenant conflict bursts: every BG_PERIOD cycles the noise
        // agent walks associativity+1 lines of one random LLC set.
        machine.noise.background_period = BG_PERIOD;
        machine.noise.burst_sets = true;
        let attacks: Vec<Attack> = CURVES
            .iter()
            .map(|c| {
                let mut a = Attack::new(c.kind, scheme, machine.clone());
                // Calibrate once per curve so all trials share the
                // reference time.
                a.reference_delta = a.resolved_reference_delta();
                a
            })
            .collect();

        // Flatten (curve, point, bit, rep) into independent units.
        let mut units = Vec::new();
        for (curve, _) in CURVES.iter().enumerate() {
            for (point, reps) in REPS_LIST.iter().enumerate() {
                for bit_index in 0..bits.len() {
                    for _rep in 0..*reps {
                        units.push(Unit {
                            curve,
                            point,
                            bit_index,
                        });
                    }
                }
            }
        }
        let outcomes = parallel_map(units.len(), ctx.threads, |i| {
            let u = &units[i];
            let mut a = attacks[u.curve].clone();
            a.machine.noise.seed = mix_seed(ctx.seed, i as u64 + 1);
            let t = a.run_trial(bits[u.bit_index]);
            (t.cycles, t.decoded)
        });

        // Aggregate: majority vote per (curve, point, bit), then error
        // rate and throughput per point.
        let mut curve_rows = Vec::new();
        let mut min_error = [f64::INFINITY; 2];
        for (curve, spec) in CURVES.iter().enumerate() {
            let mut points = Vec::new();
            for (point, reps) in REPS_LIST.iter().enumerate() {
                let mut votes = vec![[0usize; 2]; bits.len()];
                let mut total_cycles = 0u64;
                for (u, (cycles, decoded)) in units.iter().zip(&outcomes) {
                    if u.curve != curve || u.point != point {
                        continue;
                    }
                    total_cycles += cycles;
                    if let Some(d) = decoded {
                        votes[u.bit_index][(*d & 1) as usize] += 1;
                    }
                }
                let errors = bits
                    .iter()
                    .zip(&votes)
                    .filter(|(bit, v)| u64::from(v[1] > v[0]) != **bit)
                    .count();
                let error_rate = errors as f64 / bits.len() as f64;
                let cycles_per_bit = total_cycles as f64 / bits.len() as f64;
                min_error[curve] = min_error[curve].min(error_rate);
                points.push(obj([
                    ("reps_per_bit", Json::from(*reps)),
                    ("bits", Json::from(bits.len())),
                    ("error_rate", Json::from(error_rate)),
                    ("cycles_per_bit", Json::from(cycles_per_bit)),
                    ("bit_rate_bps", Json::from(CLOCK_GHZ * 1e9 / cycles_per_bit)),
                ]));
            }
            curve_rows.push(obj([
                ("name", Json::from(spec.name)),
                ("attack", Json::from(spec.kind.label())),
                ("points", Json::Arr(points)),
            ]));
        }
        let result = obj([
            ("scheme", Json::from(crate::scheme_slug(scheme))),
            ("clock_ghz", Json::from(CLOCK_GHZ)),
            ("dram_jitter", Json::from(DRAM_JITTER)),
            ("background_period", Json::from(BG_PERIOD)),
            ("curves", Json::Arr(curve_rows)),
        ]);
        let summary = obj([
            ("bits_per_point", Json::from(bits.len())),
            ("dcache_min_error", Json::from(min_error[0])),
            ("icache_min_error", Json::from(min_error[1])),
        ]);
        Ok((result, summary))
    }
}
