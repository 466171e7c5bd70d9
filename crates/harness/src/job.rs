//! One description of a job, shared by the CLI and the daemon.
//!
//! `sia run|sweep|attack|scan` and `POST /v1/run|sweep|attack|scan` take
//! the same keys. One table (`KEYS`) lists each key once — its JSON name,
//! its CLI flag, the verbs it applies to, and its value type — and two
//! thin front ends read it:
//!
//! * [`JobSpec::from_argv`] turns `--flag value` arguments (and run's
//!   positional experiment id) into `(key, value)` pairs;
//! * [`JobSpec::from_json`] turns a POST body's members into the same
//!   pairs.
//!
//! One builder applies the pairs in a fixed order — named grid → quick →
//! filters → scale → trials → horizon → no_checkpoint — so a flag and
//! its body key cannot drift apart. Later pairs overwrite earlier ones;
//! filters accumulate. A run job is one experiment; on the CLI,
//! `sia run <id>... | --all` selects several.

use si_cpu::MachineConfig;
use si_engine::{digest::fnv64, UnitSpec};
use si_schemes::SchemeKind;

use crate::attack::{run_attack_grid, AttackGrid};
use crate::json::{parse, Json, SCHEMA_VERSION};
use crate::scan::{run_scan, ScanJob};
use crate::sweep::{run_sweep, GridSpec};
use crate::{
    find, parse_scheme, registry, run_experiment, scheme_slug, Engine, ExecStats, Experiment,
    RunConfig,
};

/// The job verbs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    /// `sia run`, `POST /v1/run`: one paper experiment.
    Run,
    /// `sia sweep`, `POST /v1/sweep`.
    Sweep,
    /// `sia attack`, `POST /v1/attack`.
    Attack,
    /// `sia scan`, `POST /v1/scan`.
    Scan,
}

impl Verb {
    /// Every job verb.
    pub const ALL: [Verb; 4] = [Verb::Run, Verb::Sweep, Verb::Attack, Verb::Scan];

    /// The verb's CLI name (and the last segment of its POST path).
    pub fn name(self) -> &'static str {
        match self {
            Verb::Run => "run",
            Verb::Sweep => "sweep",
            Verb::Attack => "attack",
            Verb::Scan => "scan",
        }
    }

    /// Looks a verb up by [`name`](Self::name).
    pub fn parse(name: &str) -> Option<Verb> {
        Verb::ALL.into_iter().find(|v| v.name() == name)
    }
}

/// A job key; `KEYS` describes each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Key {
    Experiment,
    Grid,
    Filters,
    Quick,
    Scale,
    Trials,
    Horizon,
    NoCheckpoint,
    Scheme,
    Seed,
}

/// What a key's value is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ValueType {
    Str,
    /// A list of strings (a repeatable flag).
    StrList,
    /// A boolean (a bare flag on the CLI).
    Bool,
    Uint,
    /// An integer of at least 1.
    PositiveUint,
    /// A seed: decimal or `0x`-hex text, or a JSON integer.
    Seed,
}

/// One row of the key table: the key, its name in a POST body, its CLI
/// flag (empty for the verb's positional argument), the verbs that take
/// it, and its value type.
struct KeyDef {
    key: Key,
    json: &'static str,
    flag: &'static str,
    verbs: &'static [Verb],
    value: ValueType,
}

const fn row(
    key: Key,
    json: &'static str,
    flag: &'static str,
    verbs: &'static [Verb],
    value: ValueType,
) -> KeyDef {
    KeyDef {
        key,
        json,
        flag,
        verbs,
        value,
    }
}

const GRID_VERBS: &[Verb] = &[Verb::Sweep, Verb::Attack];

/// Every job key.
#[rustfmt::skip]
const KEYS: [KeyDef; 10] = [
    row(Key::Experiment, "experiment", "", &[Verb::Run], ValueType::Str),
    row(Key::Grid, "grid", "--grid", GRID_VERBS, ValueType::Str),
    row(Key::Filters, "filters", "--filter", GRID_VERBS, ValueType::StrList),
    row(Key::Quick, "quick", "--quick", &[Verb::Sweep, Verb::Attack, Verb::Scan], ValueType::Bool),
    row(Key::Scale, "scale", "--scale", &[Verb::Sweep], ValueType::Uint),
    row(Key::Trials, "trials", "--trials", &Verb::ALL, ValueType::Uint),
    row(Key::Horizon, "horizon", "--horizon", &[Verb::Scan], ValueType::PositiveUint),
    row(Key::NoCheckpoint, "no_checkpoint", "--no-checkpoint", &[Verb::Attack], ValueType::Bool),
    row(Key::Scheme, "scheme", "--scheme", &[Verb::Run], ValueType::Str),
    row(Key::Seed, "seed", "--seed", &Verb::ALL, ValueType::Seed),
];

/// Walks command-line arguments: `each` sees every argument with a puller
/// that takes the next argument as its value (an error naming the flag
/// when none is left). Every `sia` verb reads its flags through here.
pub fn walk_args(
    argv: &[String],
    mut each: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<(), String>,
) -> Result<(), String> {
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs a value"))
        };
        each(arg, &mut value)?;
    }
    Ok(())
}

/// Parses a seed: decimal or `0x`-prefixed hex; `label` names it in
/// errors. Every `--seed` flag and the `seed` body key go through here,
/// so the syntax cannot diverge.
pub fn parse_seed(label: &str, text: &str) -> Result<u64, String> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse(),
    }
    .map_err(|e| format!("{label}: {e}"))
}

/// A parsed value.
#[derive(Debug, Clone)]
enum Value {
    Str(String),
    Bool(bool),
    Num(u64),
}

impl KeyDef {
    /// Parses a numeric key's text (an argv value, or a string seed in a
    /// body). `label` names the key in errors.
    fn number(&self, label: &str, text: &str) -> Result<Value, String> {
        let n = match self.value {
            ValueType::Seed => parse_seed(label, text)?,
            _ => text.parse::<usize>().map_err(|e| format!("{label}: {e}"))? as u64,
        };
        self.checked(label, n)
    }

    /// Applies the value type's range check.
    fn checked(&self, label: &str, n: u64) -> Result<Value, String> {
        if self.value == ValueType::PositiveUint && n == 0 {
            return Err(format!("{label} must be at least 1"));
        }
        Ok(Value::Num(n))
    }
}

/// The work a job runs.
#[derive(Debug, Clone)]
pub enum Job {
    /// One registered experiment.
    Run {
        /// The registry id.
        experiment: &'static str,
        /// The sample-size knob; `None` is the experiment's default.
        trials: Option<usize>,
        /// The scheme override (recorded only where the experiment
        /// supports one).
        scheme: Option<SchemeKind>,
    },
    /// A scenario sweep.
    Sweep(GridSpec),
    /// An attack grid.
    Attack(AttackGrid),
    /// The corpus scan.
    Scan(ScanJob),
}

/// A validated job: the work plus the seed it runs under.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// What to run.
    pub job: Job,
    /// The base seed.
    pub seed: u64,
}

impl JobSpec {
    /// Parses a verb's arguments into its jobs: one for a grid verb, and
    /// for run one per selected experiment — `sia run <id>... | --all`,
    /// the CLI's selection over run jobs, where every other argument
    /// applies to each job and every id is checked before any job is
    /// returned. An argument without a leading `-` is the value of the
    /// verb's flagless key (run's experiment id). A flag outside the key
    /// table for `verb` goes to `other` — the caller's process flags
    /// (`--threads`, `--out`, …) — which returns `Ok(true)` when it
    /// consumed the flag, pulling any value through the closure it is
    /// handed. An argument neither side knows is an error.
    pub fn from_argv(
        verb: Verb,
        argv: &[String],
        default_seed: u64,
        mut other: impl FnMut(&str, &mut dyn FnMut() -> Result<String, String>) -> Result<bool, String>,
    ) -> Result<Vec<JobSpec>, String> {
        let mut pairs = Vec::new();
        let mut all = false;
        walk_args(argv, |arg, value| {
            let flag = if arg.starts_with('-') { arg } else { "" };
            let Some(def) = KEYS
                .iter()
                .find(|k| k.flag == flag && k.verbs.contains(&verb))
            else {
                if verb == Verb::Run && arg == "--all" {
                    all = true;
                    return Ok(());
                }
                return match other(arg, value)? {
                    true => Ok(()),
                    false => Err(format!("unknown {} option '{arg}'", verb.name())),
                };
            };
            let mut text = || match flag {
                "" => Ok(arg.to_owned()),
                _ => value(),
            };
            let parsed = match def.value {
                ValueType::Bool => Value::Bool(true),
                ValueType::Str | ValueType::StrList => Value::Str(text()?),
                ValueType::Uint | ValueType::PositiveUint | ValueType::Seed => {
                    def.number(arg, &text()?)?
                }
            };
            pairs.push((def.key, parsed));
            Ok(())
        })?;
        if verb != Verb::Run {
            return Ok(vec![JobSpec::build(verb, &pairs, default_seed)?]);
        }
        let (mut ids, shared): (Vec<_>, Vec<_>) =
            pairs.into_iter().partition(|(k, _)| *k == Key::Experiment);
        if all {
            ids = registry()
                .iter()
                .map(|e| (Key::Experiment, Value::Str(e.id().to_owned())))
                .collect();
        }
        if ids.is_empty() {
            return Err("nothing to run — name experiments or pass --all".to_owned());
        }
        ids.into_iter()
            .map(|id| JobSpec::build(verb, &[&shared[..], &[id]].concat(), default_seed))
            .collect()
    }

    /// Parses a POST body: a JSON object of job keys (an empty body runs
    /// the verb's default job). Unknown keys are errors — silently
    /// ignoring a typoed `"trails"` would serve the wrong grid.
    pub fn from_json(verb: Verb, body: &[u8], default_seed: u64) -> Result<JobSpec, String> {
        let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_owned())?;
        let doc = if text.trim().is_empty() {
            Json::Obj(Vec::new())
        } else {
            parse(text).map_err(|e| format!("body is not valid JSON: {e}"))?
        };
        let Json::Obj(members) = doc else {
            return Err("body must be a JSON object".to_owned());
        };
        let mut pairs = Vec::new();
        for (name, value) in members {
            let def = KEYS
                .iter()
                .find(|k| k.json == name && k.verbs.contains(&verb))
                .ok_or_else(|| format!("unknown key '{name}' for /v1/{}", verb.name()))?;
            let label = format!("'{name}'");
            let expected = match def.value {
                ValueType::Str => "a string",
                ValueType::StrList => "an array of strings",
                ValueType::Bool => "a boolean",
                ValueType::Uint => "a non-negative integer",
                ValueType::PositiveUint => "a positive integer",
                ValueType::Seed => "an integer or a decimal/0x-hex string",
            };
            let mismatch = || format!("{label} must be {expected}");
            match (def.value, value) {
                (ValueType::Str, Json::Str(s)) => pairs.push((def.key, Value::Str(s))),
                (ValueType::StrList, Json::Arr(items)) => {
                    for item in items {
                        let Json::Str(s) = item else {
                            return Err(mismatch());
                        };
                        pairs.push((def.key, Value::Str(s)));
                    }
                }
                (ValueType::Bool, Json::Bool(b)) => pairs.push((def.key, Value::Bool(b))),
                (ValueType::Seed, Json::Str(s)) => pairs.push((def.key, def.number(&label, &s)?)),
                (ValueType::Uint | ValueType::PositiveUint | ValueType::Seed, Json::U64(n)) => {
                    pairs.push((def.key, def.checked(&label, n)?));
                }
                (ValueType::Uint | ValueType::PositiveUint | ValueType::Seed, Json::I64(n))
                    if n >= 0 =>
                {
                    pairs.push((def.key, def.checked(&label, n as u64)?));
                }
                _ => return Err(mismatch()),
            }
        }
        JobSpec::build(verb, &pairs, default_seed)
    }

    /// The one builder both front ends share: applies the pairs to the
    /// verb's named grid, in the order the module docs give.
    fn build(verb: Verb, pairs: &[(Key, Value)], default_seed: u64) -> Result<JobSpec, String> {
        let last = |key: Key| pairs.iter().rev().find(|(k, _)| *k == key).map(|(_, v)| v);
        let text = |key| match last(key) {
            Some(Value::Str(s)) => Some(s.as_str()),
            _ => None,
        };
        let num = |key| match last(key) {
            Some(Value::Num(n)) => Some(*n),
            _ => None,
        };
        let count = |key| num(key).map(|n| n as usize);
        let flag = |key| matches!(last(key), Some(Value::Bool(true)));
        let filters = || {
            pairs.iter().filter_map(|(k, v)| match (k, v) {
                (Key::Filters, Value::Str(s)) => Some(s.as_str()),
                _ => None,
            })
        };
        let job = match verb {
            Verb::Run => {
                let id = text(Key::Experiment).ok_or(
                    "a run job names its experiment ('experiment' in a body; `sia list` lists them)",
                )?;
                let exp = find(id)
                    .ok_or_else(|| format!("unknown experiment '{id}' (try `sia list`)"))?;
                let scheme = text(Key::Scheme)
                    .map(|s| parse_scheme(s).ok_or_else(|| format!("unknown scheme '{s}'")))
                    .transpose()?;
                Job::Run {
                    experiment: exp.id(),
                    trials: count(Key::Trials),
                    scheme,
                }
            }
            Verb::Sweep => {
                let mut grid = GridSpec::named(text(Key::Grid).unwrap_or("defense"))?;
                if flag(Key::Quick) {
                    grid.quick();
                }
                for f in filters() {
                    grid.apply_filter(f)?;
                }
                grid.scale = count(Key::Scale).unwrap_or(grid.scale);
                grid.trials = count(Key::Trials).unwrap_or(grid.trials);
                Job::Sweep(grid)
            }
            Verb::Attack => {
                let mut grid = AttackGrid::named(text(Key::Grid).unwrap_or("headline"))?;
                if flag(Key::Quick) {
                    grid.quick();
                }
                for f in filters() {
                    grid.apply_filter(f)?;
                }
                grid.trials = count(Key::Trials).unwrap_or(grid.trials);
                grid.disable_checkpoint = flag(Key::NoCheckpoint);
                Job::Attack(grid)
            }
            Verb::Scan => {
                let mut job = ScanJob::standard();
                if flag(Key::Quick) {
                    job.quick();
                }
                job.trials = count(Key::Trials).unwrap_or(job.trials);
                job.horizon = count(Key::Horizon).unwrap_or(job.horizon);
                Job::Scan(job)
            }
        };
        Ok(JobSpec {
            job,
            seed: num(Key::Seed).unwrap_or(default_seed),
        })
    }

    /// The job's verb.
    pub fn verb(&self) -> Verb {
        match self.job {
            Job::Run { .. } => Verb::Run,
            Job::Sweep(_) => Verb::Sweep,
            Job::Attack(_) => Verb::Attack,
            Job::Scan(_) => Verb::Scan,
        }
    }

    /// The experiment id, or the grid's name (`corpus` for the scan).
    pub fn name(&self) -> &str {
        match &self.job {
            Job::Run { experiment, .. } => experiment,
            Job::Sweep(grid) => &grid.name,
            Job::Attack(grid) => &grid.name,
            Job::Scan(_) => "corpus",
        }
    }

    /// The output stem the offline verb writes (`fig07`, `sweep-defense`,
    /// `scan-corpus`, …), which also anchors the markdown rendering.
    pub fn stem(&self) -> String {
        match self.job {
            Job::Run { .. } => self.name().to_owned(),
            _ => format!("{}-{}", self.verb().name(), self.name()),
        }
    }

    /// The job's unit stream, computed without executing anything.
    pub fn unit_specs(&self) -> Result<Vec<UnitSpec>, String> {
        match &self.job {
            Job::Run {
                experiment,
                trials,
                scheme,
            } => Ok(vec![experiment_unit(
                find(experiment).expect("a registry id").as_ref(),
                *trials,
                *scheme,
                self.seed,
            )]),
            Job::Sweep(grid) => Ok(grid.unit_specs(self.seed)),
            Job::Attack(grid) => Ok(grid.unit_specs(self.seed)),
            Job::Scan(job) => job.unit_specs(self.seed),
        }
    }

    /// Runs the job through `engine`: the result document plus the
    /// engine's executed/cached split. A run job is one unit, and the
    /// experiment fans its own trials out over the engine's threads.
    pub fn run(&self, engine: &Engine) -> Result<(Json, ExecStats), String> {
        match &self.job {
            Job::Run {
                experiment,
                trials,
                scheme,
            } => {
                let exp = find(experiment).expect("a registry id");
                let cfg = RunConfig {
                    trials: *trials,
                    threads: engine.threads(),
                    seed: self.seed,
                    scheme: *scheme,
                };
                let (mut out, stats) = engine.run_units(
                    &self.unit_specs()?,
                    |_| run_experiment(exp.as_ref(), &cfg),
                    // Failures are never cached: a flaky environment must
                    // not poison future runs.
                    |outcome| outcome.as_ref().ok().map(Json::to_pretty),
                    |payload| parse(payload).ok().map(Ok),
                );
                Ok((out.pop().expect("one unit")?, stats))
            }
            Job::Sweep(grid) => run_sweep(grid, self.seed, engine),
            Job::Attack(grid) => run_attack_grid(grid, self.seed, engine),
            Job::Scan(job) => run_scan(job, self.seed, engine),
        }
    }
}

/// A run job's one unit: the whole experiment, whose envelope is a pure
/// function of `(experiment, trials, seed, scheme)`. A scheme the
/// experiment ignores stays out of the key, as it stays out of the
/// envelope.
fn experiment_unit(
    exp: &dyn Experiment,
    trials: Option<usize>,
    scheme: Option<SchemeKind>,
    seed: u64,
) -> UnitSpec {
    let scheme = scheme.filter(|_| exp.supports_scheme_override());
    UnitSpec {
        kind: "experiment",
        key: format!(
            "experiment={} trials={} scheme={} schema={SCHEMA_VERSION}",
            exp.id(),
            trials.unwrap_or_else(|| exp.default_trials()),
            scheme.map_or("default", scheme_slug),
        ),
        trial: 0,
        seed,
        config_digest: fnv64(MachineConfig::default().fingerprint().as_bytes()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use Verb::{Attack, Run, Scan, Sweep};

    const SEED: u64 = 0x51A0_2021;

    fn argv(words: &str) -> Vec<String> {
        words.split_whitespace().map(str::to_owned).collect()
    }

    /// `words` as arguments, with no process flags.
    fn jobs_from_argv(verb: Verb, words: &str) -> Result<Vec<JobSpec>, String> {
        JobSpec::from_argv(verb, &argv(words), SEED, |_, _| Ok(false))
    }

    /// The one job `words` describe.
    fn from_argv(verb: Verb, words: &str) -> Result<JobSpec, String> {
        let mut jobs = jobs_from_argv(verb, words)?;
        assert_eq!(jobs.len(), 1, "{words}");
        Ok(jobs.remove(0))
    }

    fn from_json(verb: Verb, body: &str) -> Result<JobSpec, String> {
        JobSpec::from_json(verb, body.as_bytes(), SEED)
    }

    fn addresses(job: &JobSpec) -> Vec<String> {
        let units = job.unit_specs().expect("job compiles");
        units.iter().map(|u| u.address(1)).collect()
    }

    /// A verb's default job in both syntaxes: a run job names fig07; the
    /// grid verbs need no keys.
    fn default_job(verb: Verb) -> (&'static str, &'static str) {
        match verb {
            Run => ("fig07", r#"{"experiment": "fig07"}"#),
            _ => ("", ""),
        }
    }

    /// Every key on every verb that takes it, in both syntaxes: the two
    /// forms build the same job (same stem, same unit addresses), and
    /// each key changes the job away from the verb's default.
    #[test]
    fn argv_and_json_forms_build_the_same_job() {
        let cases = [
            (Run, "fig09", r#"{"experiment": "fig09"}"#),
            (
                Run,
                "fig07 --trials 5",
                r#"{"experiment": "fig07", "trials": 5}"#,
            ),
            (
                Run,
                "--scheme dom fig07",
                r#"{"scheme": "dom", "experiment": "fig07"}"#,
            ),
            (
                Run,
                "fig07 --trials 5 --scheme dom",
                r#"{"experiment": "fig07", "trials": 5, "scheme": "dom"}"#,
            ),
            (
                Run,
                "fig07 --seed 0x2a",
                r#"{"experiment": "fig07", "seed": 42}"#,
            ),
            (Sweep, "--grid geometry", r#"{"grid": "geometry"}"#),
            (
                Sweep,
                "--filter scheme=dom --filter workload=ptr-chase",
                r#"{"filters": ["scheme=dom", "workload=ptr-chase"]}"#,
            ),
            (Sweep, "--quick", r#"{"quick": true}"#),
            (Sweep, "--scale 8", r#"{"scale": 8}"#),
            (Sweep, "--trials 2", r#"{"trials": 2}"#),
            (Sweep, "--seed 0x2a", r#"{"seed": 42}"#),
            (Attack, "--grid noise", r#"{"grid": "noise"}"#),
            (
                Attack,
                "--filter variant=port-contention",
                r#"{"filters": ["variant=port-contention"]}"#,
            ),
            (Attack, "--quick", r#"{"quick": true}"#),
            (Attack, "--trials 4", r#"{"trials": 4}"#),
            (Attack, "--no-checkpoint", r#"{"no_checkpoint": true}"#),
            (Attack, "--seed 7", r#"{"seed": "7"}"#),
            (Scan, "--quick", r#"{"quick": true}"#),
            (Scan, "--trials 2", r#"{"trials": 2}"#),
            (Scan, "--horizon 16", r#"{"horizon": 16}"#),
            (Scan, "--seed 0x2a", r#"{"seed": "0x2a"}"#),
            // The builder's order, not the caller's, decides: trials
            // always lands after quick.
            (
                Sweep,
                "--trials 3 --quick",
                r#"{"trials": 3, "quick": true}"#,
            ),
        ];
        for verb in Verb::ALL {
            let (words, body) = default_job(verb);
            let bare = from_argv(verb, words).expect("bare argv");
            let empty = from_json(verb, body).expect("empty body");
            assert_eq!(bare.stem(), empty.stem());
            assert_eq!(addresses(&bare), addresses(&empty), "{verb:?} default");
            if verb != Run {
                let explicit_off = from_json(verb, r#"{"quick": false}"#).expect("quick off");
                assert_eq!(addresses(&bare), addresses(&explicit_off), "{verb:?}");
            }
        }
        for (verb, words, body) in cases {
            let argv = from_argv(verb, words).unwrap_or_else(|e| panic!("{words}: {e}"));
            let json = from_json(verb, body).unwrap_or_else(|e| panic!("{body}: {e}"));
            assert_eq!(argv.stem(), json.stem(), "{words} vs {body}");
            let units = addresses(&argv);
            assert_eq!(units, addresses(&json), "{words} vs {body}");
            let default = from_argv(verb, default_job(verb).0).expect("default job");
            assert_ne!(units, addresses(&default), "{words} changed nothing");
        }
    }

    /// A run job keeps the unit key `sia run --cache` has always stored
    /// under, and its stem is the experiment id, as `sia report` names
    /// its section.
    #[test]
    fn run_jobs_keep_their_unit_key_and_stem() {
        let job = from_argv(Run, "fig07 --trials 5 --scheme dom").expect("parses");
        assert_eq!((job.name(), job.stem()), ("fig07", "fig07".to_owned()));
        let units = job.unit_specs().expect("compiles");
        assert_eq!(units.len(), 1);
        assert_eq!(units[0].kind, "experiment");
        assert_eq!(
            units[0].key,
            "experiment=fig07 trials=5 scheme=dom schema=2"
        );
        // fig12 takes no scheme override, so the key (like the envelope)
        // leaves it out.
        let job = from_argv(Run, "fig12 --scheme dom").expect("parses");
        assert_eq!(
            job.unit_specs().expect("compiles")[0].key,
            "experiment=fig12 trials=8 scheme=default schema=2"
        );
    }

    #[test]
    fn the_cli_selects_one_run_job_per_experiment() {
        let runs = |words: &str| jobs_from_argv(Run, words);
        let jobs = runs("fig09 --trials 3 fig07").expect("selects");
        let picked: Vec<(&str, u64)> = jobs.iter().map(|j| (j.name(), j.seed)).collect();
        assert_eq!(picked, [("fig09", SEED), ("fig07", SEED)]);
        for job in &jobs {
            assert!(
                matches!(
                    job.job,
                    Job::Run {
                        trials: Some(3),
                        ..
                    }
                ),
                "{job:?}"
            );
        }
        let all = runs("--all").expect("selects");
        let ids: Vec<&str> = all.iter().map(JobSpec::name).collect();
        let registered: Vec<&str> = registry().iter().map(|e| e.id()).collect();
        assert_eq!(ids, registered);
        // An empty selection and an unknown id (even after a good one)
        // fail before any job exists.
        assert!(runs("--trials 3").unwrap_err().contains("nothing to run"));
        let err = runs("fig07 nope").unwrap_err();
        assert!(err.contains("'nope'"), "{err}");
    }

    #[test]
    fn both_forms_reject_bad_input() {
        let cases = [
            // A key on a verb that does not take it.
            (Scan, "--grid headline", r#"{"grid": "headline"}"#),
            (
                Scan,
                "--filter scheme=dom",
                r#"{"filters": ["scheme=dom"]}"#,
            ),
            (Attack, "--scale 8", r#"{"scale": 8}"#),
            (Sweep, "--horizon 8", r#"{"horizon": 8}"#),
            (Sweep, "--no-checkpoint", r#"{"no_checkpoint": true}"#),
            // A zero horizon.
            (Scan, "--horizon 0", r#"{"horizon": 0}"#),
            // Bad seeds.
            (Sweep, "--seed 0xzz", r#"{"seed": "0xzz"}"#),
            (Attack, "--seed -1", r#"{"seed": -1}"#),
            // Unknown keys.
            (Sweep, "--trails 3", r#"{"trails": 3}"#),
            (Scan, "--bogus", r#"{"bogus": true}"#),
            // Bad values the builder catches.
            (Attack, "--grid nope", r#"{"grid": "nope"}"#),
            (
                Sweep,
                "--filter planet=mars",
                r#"{"filters": ["planet=mars"]}"#,
            ),
            (Sweep, "--trials x", r#"{"trials": "x"}"#),
            // Run jobs: an unknown experiment or scheme, a run-only key on
            // a grid verb, a grid key on run, and no experiment at all.
            (Run, "nope", r#"{"experiment": "nope"}"#),
            (
                Run,
                "fig07 --scheme zzz",
                r#"{"experiment": "fig07", "scheme": "zzz"}"#,
            ),
            (Sweep, "--scheme dom", r#"{"scheme": "dom"}"#),
            (
                Run,
                "fig07 --grid defense",
                r#"{"experiment": "fig07", "grid": "defense"}"#,
            ),
            (Run, "--trials 4", r#"{"trials": 4}"#),
            // A positional argument on a verb without one.
            (Sweep, "defense", r#"{"experiment": "defense"}"#),
        ];
        for (verb, words, body) in cases {
            assert!(from_argv(verb, words).is_err(), "argv {words} accepted");
            assert!(from_json(verb, body).is_err(), "body {body} accepted");
        }
        let missing = from_argv(Sweep, "--trials").unwrap_err();
        assert!(missing.contains("needs a value"), "{missing}");
        assert!(from_json(Sweep, "[1]").is_err(), "non-object body");
    }

    #[test]
    fn process_flags_go_to_the_caller_with_their_values() {
        let mut seen = Vec::new();
        let words = argv("--threads 3 --quick --print");
        let jobs = JobSpec::from_argv(Sweep, &words, SEED, |flag, value| {
            match flag {
                "--threads" => seen.push(format!("threads={}", value()?)),
                "--print" => seen.push("print".to_owned()),
                _ => return Ok(false),
            }
            Ok(true)
        })
        .expect("parses");
        assert_eq!(seen, ["threads=3", "print"]);
        assert_eq!(
            (jobs[0].stem(), jobs[0].seed),
            ("sweep-defense".to_owned(), SEED)
        );
    }

    #[test]
    fn seeds_are_decimal_or_hex() {
        assert_eq!(parse_seed("--seed", "42"), Ok(42));
        assert_eq!(parse_seed("--seed", "0x2a"), Ok(42));
        assert!(parse_seed("--seed", "0x").is_err() && parse_seed("--seed", "-1").is_err());
    }
}
