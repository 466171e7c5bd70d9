//! `sia` — the speculative-interference-attacks experiment runner.
//!
//! ```text
//! sia list                          # every registered experiment
//! sia run fig07 --scheme dom        # one experiment
//! sia run --all --trials 5          # everything, small
//! sia sweep --grid defense          # declarative scenario sweep
//! sia sweep --grid defense --cache  # incremental: only changed units run
//! sia attack --grid headline        # interference attacks + leakage scores
//! sia scan                          # static gadget scan + dynamic confirm
//! sia serve                         # long-running job daemon (HTTP)
//! sia cache stats                   # content-addressed unit store
//! sia report results/               # results/*.json -> markdown tables
//! sia bench                         # microbenchmarks -> BENCH_baseline.json
//! sia bench --against BENCH_baseline.json   # perf-regression gate, writes nothing
//! ```
//!
//! Each job writes one validated JSON document (`sia run`: one per
//! experiment, into the output directory, default `results/`) and prints
//! a one-line status. Exit code is non-zero if any job fails.

use std::process::ExitCode;
use std::time::Instant;

use si_engine::{ArtifactCache, PackStore};
use si_harness::attack::ATTACK_GRID_NAMES;
use si_harness::job::{parse_seed, walk_args, JobSpec, Verb};
use si_harness::json::{parse, Json};
use si_harness::render::{render_report, splice_report, REPORT_BEGIN, REPORT_END};
use si_harness::sweep::GRID_NAMES;
use si_harness::{
    parse_scheme, registry, Engine, ExecStats, RunConfig, CACHE_DEFAULT_DIR, CODE_EPOCH,
};

const USAGE: &str = "\
sia — speculative-interference experiment harness

USAGE:
    sia list
    sia run <EXPERIMENT>... [JOB OPTIONS]
    sia run --all [JOB OPTIONS]
    sia sweep [JOB OPTIONS]
    sia attack [JOB OPTIONS]
    sia scan [JOB OPTIONS]
    sia serve [SERVE OPTIONS]
    sia cache stats|clear [--dir <DIR>]
    sia report [PATH...] [REPORT OPTIONS]
    sia bench [--out <FILE>] [--against <FILE>]
    sia trace record|replay|info|example [TRACE OPTIONS]

JOB OPTIONS (run, sweep, attack, scan; `sia serve` reads the same keys from
a JSON body, where the run's one experiment id is experiment,
--no-checkpoint is no_checkpoint and repeated --filter flags are one
filters array):
    <EXPERIMENT>...    run: experiment ids (see `sia list`), one job each, in
                       the given order; an unknown id fails before any runs
    --all              run: every registered experiment, in registry order
    --grid <NAME>      sweep: defense (default), schemes, geometry, noise,
                       full, trace; attack: headline (default), geometry,
                       noise, full
    --filter <A=V,..>  sweep, attack: restrict an axis (repeatable). Sweep
                       axes: scheme, workload, geometry, noise, predictor;
                       attack axes: scheme, variant, geometry, noise. Scheme
                       values match as family prefixes (--filter
                       scheme=dom,fence); unknown values list the axis's
                       valid values in the error
    --quick            fewer samples, same cells: sweep at scale 16 with one
                       trial per cell; attack and scan at six trials per cell
    --scale <N>        sweep: workload problem scale override
    --trials <N>       run: the sample-size knob (per-experiment meaning;
                       default varies, see `sia list`); sweep: trials per
                       cell; attack, scan: secret bits per cell (the scan's
                       default is 12)
    --horizon <N>      scan: speculative-window horizon in instructions
                       (default 128, the ROB depth)
    --no-checkpoint    attack: force every trial onto the from-scratch path
                       instead of forking the per-cell machine checkpoint;
                       output is byte-identical either way (a differential
                       oracle: the test suite compares the two)
    --scheme <S>       run: scheme override for single-scheme experiments
                       (e.g. dom, invisispec, fence-futuristic; see `sia list`)
    --seed <N>         base seed (decimal or 0x-hex; default 0x51A02021)
    --threads <N>      worker threads (0 or absent: all available cores)
    --cache            execute only units whose spec changed; splice the rest
                       from the cache (output stays byte-identical). A run
                       job is one unit; the scan caches its confirm trials,
                       and its static stage always runs
    --cache-dir <DIR>  cache location (default: results/.cache; implies --cache)
    --out <PATH>       run: output directory (default: results/, one
                       <EXPERIMENT>.json each); sweep, attack, scan: output
                       file (default: results/<verb>-<grid>.json, and
                       results/scan-corpus.json for the scan)
    --print            also print each result document to stdout
    --no-wall-time     omit wall_time_ms (bit-stable output)
    --no-artifact-cache  sweep: disable the in-process artifact cache (shared
                       decoded traces, replay plans, interval outcomes);
                       output is byte-identical either way (a differential
                       oracle: the test suite compares the two)

SERVE OPTIONS:
    --addr <A>         bind address (default: 127.0.0.1:8787; port 0 picks
                       an ephemeral port)
    --threads <N>      worker threads per request (0 or absent: all cores)
    --seed <N>         seed for requests that do not carry one
                       (default 0x51A02021, the CLI default)
    --store-dir <DIR>  packed unit store location (default: results/.cache)
                       POST /v1/run|sweep|attack|scan run jobs against the
                       shared warm store; responses are byte-identical to
                       the offline verbs' --no-wall-time output. GET / on
                       the daemon lists the endpoints. SIGTERM/SIGINT shut
                       down cleanly (drain, flush, exit 0).

CACHE OPTIONS:
    stats              entry count and total bytes of the packed unit store
    clear              delete every stored unit outcome
    --dir <DIR>        store location (default: results/.cache)

REPORT OPTIONS:
    PATH...            result files or directories of *.json
                       (default: results/)
    --out <FILE>       write the markdown report to FILE instead of stdout
    --update <FILE>    splice the report between the sia:report markers
                       of FILE (e.g. EXPERIMENTS.md)
    --check <FILE>     verify FILE's marked region matches the report;
                       exit non-zero on drift

BENCH OPTIONS:
    --out <FILE>       output file (default: BENCH_baseline.json; with
                       --against, no file is written unless --out is given)
    --against <FILE>   compare this run's speedup ratios against a baseline
                       snapshot: exit non-zero when any ratio regressed by
                       more than 25%, warn beyond 10%

TRACE OPTIONS (see docs/TRACE_FORMAT.md for the .sit wire format):
    record --workload <KERNEL>   record a kernel run into a .sit trace
           [--scale N]           kernel problem scale (default 48)
           [--seed N]            program-generation seed (default 42)
           [--interval N]        instructions per sample interval (default 1024)
           [--clusters K]        max SimPoint clusters (default 8)
           [--warmup W]          leading intervals pinned as exact singletons (default 4)
           [--out FILE]          output (default traces/<kernel>.sit)
    replay <FILE>                sampled replay through the cycle-level machine
           [--scheme S]          speculation scheme (default unprotected)
           [--predictor P]       predictor preset (default tage)
           [--full]              replay the whole trace, no sampling
           [--budget N]          cycle budget (default 30000000)
           [--no-artifact-cache] rebuild the replay plan and warm machines
                                 from scratch instead of using the in-process
                                 artifact cache (identical output, for
                                 differential testing)
    info <FILE>                  decode and summarize a trace
    example [--out FILE]         write the docs/TRACE_FORMAT.md worked-example
                                 fixture (default traces/example.sit)
";

/// Parses a numeric flag value, naming the flag in the error.
fn parse_num<T: std::str::FromStr>(flag: &str, text: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    text.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Parses a `--threads` value — the one thread policy every verb shares:
/// `0` (like an absent flag) means all available cores, anything else is
/// the worker count (the scheduler clamps to the unit count downstream).
fn parse_threads(text: &str) -> Result<usize, String> {
    let n: usize = text.parse().map_err(|e| format!("--threads: {e}"))?;
    Ok(if n == 0 { default_threads() } else { n })
}

/// The `--threads` default: all available cores.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The `--cache`/`--cache-dir` pair every executing verb shares.
#[derive(Clone, Default)]
struct CacheArgs {
    /// The store directory, when caching is on.
    dir: Option<String>,
}

impl CacheArgs {
    /// Handles one argument if it belongs to this option family.
    fn accept(
        &mut self,
        arg: &str,
        value: &mut dyn FnMut() -> Result<String, String>,
    ) -> Result<bool, String> {
        match arg {
            "--cache" => _ = self.dir.get_or_insert_with(|| CACHE_DEFAULT_DIR.to_owned()),
            "--cache-dir" => self.dir = Some(value()?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// Builds the engine this verb executes through.
    fn engine(&self, threads: usize) -> Engine {
        match &self.dir {
            Some(dir) => Engine::with_cache(threads, CODE_EPOCH, dir),
            None => Engine::new(threads),
        }
    }
}

/// Formats the engine's executed/cached split for a status line.
fn stats_note(stats: &ExecStats) -> String {
    format!(
        "units={} executed={} cached={} coalesced={}",
        stats.total, stats.executed, stats.cached, stats.coalesced
    )
}

fn cmd_list() -> ExitCode {
    println!(
        "{:<16} {:>7} {:>8}  TITLE",
        "EXPERIMENT", "TRIALS", "SCHEME?"
    );
    for e in registry() {
        println!(
            "{:<16} {:>7} {:>8}  {}",
            e.id(),
            e.default_trials(),
            if e.supports_scheme_override() {
                "yes"
            } else {
                "-"
            },
            e.title()
        );
    }
    println!("\nschemes: dom, dom-nontso, dom-futuristic, invisispec, invisispec-futuristic,");
    println!("         safespec-wfb, safespec-wfc, muontrap, condspec, cleanupspec,");
    println!(
        "         unprotected, fence, fence-futuristic, advanced, advanced-hold, advanced-age"
    );
    println!(
        "\nsweep grids (`sia sweep --grid`): {}",
        GRID_NAMES.join(", ")
    );
    println!(
        "attack grids (`sia attack --grid`): {}",
        ATTACK_GRID_NAMES.join(", ")
    );
    ExitCode::SUCCESS
}

/// Extracts `summary` as a compact `k=v` status string.
fn summary_line(envelope: &Json) -> String {
    match envelope.get("summary") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_compact()))
            .collect::<Vec<_>>()
            .join(" "),
        _ => String::new(),
    }
}

/// Writes `bytes` to `path`, creating its directory first.
fn write_file(path: &str, bytes: &[u8]) -> Result<(), String> {
    if let Some(dir) = std::path::Path::new(path)
        .parent()
        .filter(|d| !d.as_os_str().is_empty())
    {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("writing {path}: {e}"))
}

/// Stamps the wall time (`None` under `--no-wall-time`), validates, and
/// writes one result document; `print` also echoes it. Validating before
/// writing makes a malformed document fail the run instead of poisoning
/// downstream consumers.
fn write_doc(doc: &mut Json, wall_ms: Option<u128>, path: &str, print: bool) -> Result<(), String> {
    if let Some(ms) = wall_ms {
        doc.push("wall_time_ms", Json::from(ms as u64));
    }
    let text = doc.to_pretty();
    parse(&text).map_err(|e| format!("emitted malformed JSON: {e}"))?;
    write_file(path, text.as_bytes())?;
    if print {
        print!("{text}");
    }
    Ok(())
}

/// `sia run|sweep|attack|scan`: the jobs (for run, one per selected
/// experiment) come from [`JobSpec::from_argv`] — the same key table
/// `sia serve` reads POST bodies with — and the process flags (threads,
/// cache, output) are handled here. A failed job does not stop the ones
/// after it; any failure exits 1.
fn cmd_job(verb: Verb, argv: &[String]) -> Result<ExitCode, String> {
    let mut threads = default_threads();
    let mut cache = CacheArgs::default();
    let mut out: Option<String> = None;
    let mut print = false;
    let mut wall_time = true;
    let mut no_artifact_cache = false;
    let process = |flag: &str, value: &mut dyn FnMut() -> Result<String, String>| {
        if cache.accept(flag, value)? {
            return Ok(true);
        }
        match flag {
            "--threads" => threads = parse_threads(&value()?)?,
            "--out" => out = Some(value()?),
            "--print" => print = true,
            "--no-wall-time" => wall_time = false,
            // A process-wide toggle, so a flag rather than a job key.
            "--no-artifact-cache" if verb == Verb::Sweep => no_artifact_cache = true,
            _ => return Ok(false),
        }
        Ok(true)
    };
    let jobs = JobSpec::from_argv(verb, argv, RunConfig::default().seed, process)?;
    // The artifact cache only changes wall-clock time, never results
    // (the invariance matrix compares cached and uncached sweeps).
    ArtifactCache::global().set_enabled(!no_artifact_cache);
    let engine = cache.engine(threads);
    let mut failures = 0usize;
    for job in &jobs {
        // A run's --out names a directory; a grid verb's, its one file.
        let path = match (verb, &out) {
            (Verb::Run, dir) => format!(
                "{}/{}.json",
                dir.as_deref().unwrap_or("results"),
                job.stem()
            ),
            (_, Some(file)) => file.clone(),
            (_, None) => format!("results/{}.json", job.stem()),
        };
        if let Err(e) = run_job(job, &engine, &path, print, wall_time) {
            eprintln!("{}:{:<10} FAILED: {e}", verb.name(), job.name());
            failures += 1;
        }
    }
    if failures > 0 {
        eprintln!("{failures} of {} jobs failed", jobs.len());
        return Ok(ExitCode::FAILURE);
    }
    Ok(ExitCode::SUCCESS)
}

/// Runs one job, writes its document to `path`, and prints its status
/// line.
fn run_job(
    job: &JobSpec,
    engine: &Engine,
    path: &str,
    print: bool,
    wall_time: bool,
) -> Result<(), String> {
    let start = Instant::now();
    let (mut envelope, stats) = job.run(engine)?;
    let wall_ms = start.elapsed().as_millis();
    write_doc(&mut envelope, wall_time.then_some(wall_ms), path, print)?;
    println!(
        "{}:{:<10} ok  {:>7}ms  {}  {}  -> {}",
        job.verb().name(),
        job.name(),
        wall_ms,
        stats_note(&stats),
        summary_line(&envelope),
        path
    );
    Ok(())
}

/// `sia cache stats|clear` — inspects or empties the packed unit store.
fn cmd_cache(argv: &[String]) -> Result<ExitCode, String> {
    let mut action: Option<String> = None;
    let mut dir = CACHE_DEFAULT_DIR.to_owned();
    walk_args(argv, |arg, value| {
        match arg {
            "--dir" => dir = value()?,
            "stats" | "clear" if action.is_none() => action = Some(arg.to_owned()),
            other => return Err(format!("unknown cache option '{other}'")),
        }
        Ok(())
    })?;
    let store = PackStore::open(&dir);
    match action.as_deref() {
        Some("stats") => {
            let stats = store.stats(CODE_EPOCH);
            println!(
                "cache: {} live entries ({} bytes), {} orphaned entries ({} bytes) in {dir}",
                stats.live_entries, stats.live_bytes, stats.orphaned_entries, stats.orphaned_bytes
            );
        }
        Some("clear") => {
            let removed = store.clear().map_err(|e| format!("clearing {dir}: {e}"))?;
            println!("cache: removed {removed} entries from {dir}");
        }
        _ => return Err("cache needs an action: stats or clear".into()),
    }
    Ok(ExitCode::SUCCESS)
}

/// `sia serve` — the long-running grid daemon (see
/// `si_harness::serve` for the endpoint table).
fn cmd_serve(argv: &[String]) -> Result<ExitCode, String> {
    let mut addr = "127.0.0.1:8787".to_owned();
    let mut threads = default_threads();
    let mut seed = RunConfig::default().seed;
    let mut dir = CACHE_DEFAULT_DIR.to_owned();
    walk_args(argv, |arg, value| {
        match arg {
            "--addr" => addr = value()?,
            "--threads" => threads = parse_threads(&value()?)?,
            "--seed" => seed = parse_seed(arg, &value()?)?,
            "--store-dir" => dir = value()?,
            other => return Err(format!("unknown serve option '{other}'")),
        }
        Ok(())
    })?;
    let engine = Engine::with_cache(threads, CODE_EPOCH, &dir);
    let handle = si_harness::serve::start(&addr, engine, seed)?;
    install_shutdown_signals(&handle.shutdown);
    println!(
        "serve: listening on http://{} (store: {dir}, threads: {threads}) — SIGTERM/SIGINT to stop",
        handle.addr
    );
    handle.join();
    println!("serve: shut down cleanly");
    Ok(ExitCode::SUCCESS)
}

/// Routes SIGTERM and SIGINT into the daemon's shutdown flag, so a
/// signalled `sia serve` drains connections, flushes the store, and
/// exits 0 instead of dying mid-write. Raw `signal(2)` keeps this
/// dependency-free (std already links libc); the handler body is
/// async-signal-safe (one atomic store).
#[cfg(unix)]
fn install_shutdown_signals(flag: &std::sync::Arc<std::sync::atomic::AtomicBool>) {
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::{Arc, OnceLock};
    static FLAG: OnceLock<Arc<AtomicBool>> = OnceLock::new();
    let _ = FLAG.set(Arc::clone(flag));
    extern "C" fn on_signal(_signum: i32) {
        if let Some(flag) = FLAG.get() {
            flag.store(true, Ordering::SeqCst);
        }
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_shutdown_signals(_flag: &std::sync::Arc<std::sync::atomic::AtomicBool>) {}

/// Expands report paths: a directory yields its `*.json` files sorted by
/// name; a file yields itself. Returns `(stem, parsed document)` pairs.
fn collect_docs(paths: &[String]) -> Result<Vec<(String, Json)>, String> {
    let mut files: Vec<std::path::PathBuf> = Vec::new();
    for p in paths {
        let path = std::path::Path::new(p);
        if path.is_dir() {
            let mut inside: Vec<_> = std::fs::read_dir(path)
                .map_err(|e| format!("reading {p}: {e}"))?
                .filter_map(|entry| entry.ok().map(|e| e.path()))
                .filter(|f| f.extension().is_some_and(|x| x == "json"))
                .collect();
            inside.sort();
            files.extend(inside);
        } else {
            files.push(path.to_owned());
        }
    }
    if files.is_empty() {
        return Err("no result files to report on".into());
    }
    let mut docs = Vec::with_capacity(files.len());
    for f in files {
        let stem = f
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("result")
            .to_owned();
        let text =
            std::fs::read_to_string(&f).map_err(|e| format!("reading {}: {e}", f.display()))?;
        let doc = parse(&text).map_err(|e| format!("{}: {e}", f.display()))?;
        docs.push((stem, doc));
    }
    Ok(docs)
}

fn cmd_report(argv: &[String]) -> Result<ExitCode, String> {
    let mut paths: Vec<String> = Vec::new();
    let mut out: Option<String> = None;
    let mut update: Option<String> = None;
    let mut check: Option<String> = None;
    walk_args(argv, |arg, value| {
        match arg {
            "--out" => out = Some(value()?),
            "--update" => update = Some(value()?),
            "--check" => check = Some(value()?),
            flag if flag.starts_with('-') => return Err(format!("unknown report option '{flag}'")),
            path => paths.push(path.to_owned()),
        }
        Ok(())
    })?;
    if paths.is_empty() {
        paths.push("results".to_owned());
    }
    let docs = collect_docs(&paths)?;
    let generated = render_report(&docs)?;
    if let Some(target) = &update {
        let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
        let spliced = splice_report(&text, &generated)?;
        std::fs::write(target, &spliced).map_err(|e| format!("writing {target}: {e}"))?;
        println!("report: updated {target} ({} sections)", docs.len());
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(target) = &check {
        let text = std::fs::read_to_string(target).map_err(|e| format!("reading {target}: {e}"))?;
        let spliced = splice_report(&text, &generated)?;
        if spliced != text {
            eprintln!(
                "report: {target} has drifted from the committed results — the region between \
                 '{REPORT_BEGIN}' and '{REPORT_END}' no longer matches `sia report`.\n\
                 Regenerate with: sia report {} --update {target}",
                paths.join(" ")
            );
            return Ok(ExitCode::FAILURE);
        }
        println!(
            "report: {target} matches the committed results ({} sections)",
            docs.len()
        );
        return Ok(ExitCode::SUCCESS);
    }
    match &out {
        Some(file) => {
            std::fs::write(file, &generated).map_err(|e| format!("writing {file}: {e}"))?;
            println!("report: wrote {file} ({} sections)", docs.len());
        }
        None => print!("{generated}"),
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_bench(argv: &[String]) -> Result<ExitCode, String> {
    let mut out: Option<String> = None;
    let mut against: Option<String> = None;
    walk_args(argv, |arg, value| {
        match arg {
            "--out" => out = Some(value()?),
            "--against" => against = Some(value()?),
            other => return Err(format!("unknown bench option '{other}'")),
        }
        Ok(())
    })?;
    // A gate run writes only where --out says: the default output path
    // is the committed baseline, which the gate must leave as it is.
    let out = out.or_else(|| {
        against
            .is_none()
            .then(|| si_harness::bench::BENCH_DEFAULT_PATH.to_owned())
    });
    // Load the baseline *before* running or writing anything: --out may
    // name the baseline file itself, and reading it afterwards would
    // compare the run against itself.
    let baseline = match &against {
        Some(path) => match std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| parse(&text).map_err(|e| format!("{path}: {e}")))
        {
            Ok(doc) => Some(doc),
            Err(e) => {
                eprintln!("bench --against  FAILED: {e}");
                return Ok(ExitCode::FAILURE);
            }
        },
        None => None,
    };
    let start = Instant::now();
    let doc = si_harness::bench::run_benches();
    let text = doc.to_pretty();
    if let Err(e) = parse(&text) {
        eprintln!("bench            FAILED: emitted malformed JSON: {e}");
        return Ok(ExitCode::FAILURE);
    }
    if let Some(out) = &out {
        if let Err(e) = std::fs::write(out, &text) {
            eprintln!("bench            FAILED: writing {out}: {e}");
            return Ok(ExitCode::FAILURE);
        }
    }
    let speedups = doc
        .get("speedups")
        .map(|s| s.to_compact())
        .unwrap_or_default();
    println!(
        "bench            ok  {:>7}ms  {}{}",
        start.elapsed().as_millis(),
        speedups,
        out.map(|o| format!("  -> {o}")).unwrap_or_default()
    );
    if let (Some(baseline), Some(path)) = (baseline, against) {
        return Ok(bench_regression_gate(&doc, &baseline, &path));
    }
    Ok(ExitCode::SUCCESS)
}

/// The `sia bench --against` perf-regression gate: compares this run's
/// speedup ratios against the (pre-loaded) baseline snapshot; warns
/// past 10% regression, fails (non-zero exit) past 25% or on missing
/// ratios.
fn bench_regression_gate(current: &Json, baseline: &Json, baseline_path: &str) -> ExitCode {
    match si_harness::bench::compare_speedups(current, baseline) {
        Ok(cmp) => {
            for w in &cmp.warnings {
                eprintln!("bench --against  WARN: {w}");
            }
            for f in &cmp.failures {
                eprintln!("bench --against  FAIL: {f}");
            }
            // Full tier diff whenever the tier sets drifted at all, so
            // the fix (regenerate the baseline, or restore the tier) is
            // obvious from the log alone.
            if !cmp.missing_tiers.is_empty() || !cmp.new_tiers.is_empty() {
                eprintln!("bench --against  tier diff vs {baseline_path}:");
                for id in &cmp.missing_tiers {
                    eprintln!("bench --against    - {id} (baseline only)");
                }
                for id in &cmp.new_tiers {
                    eprintln!("bench --against    + {id} (this build only; regenerate the baseline to gate it)");
                }
            }
            if cmp.passed() {
                println!(
                    "bench --against  ok  {} ratios within 25% of {baseline_path} ({} warnings)",
                    cmp.checked,
                    cmp.warnings.len()
                );
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "bench --against  FAILED: {} of {} ratios regressed more than 25% vs {baseline_path}",
                    cmp.failures.len(),
                    cmp.checked.max(cmp.failures.len())
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("bench --against  FAILED: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sia trace` — record, inspect, and replay `.sit` traces.
fn cmd_trace(argv: &[String]) -> Result<ExitCode, String> {
    use si_cpu::{GeometryPreset, MachineConfig, NoisePreset, PredictorPreset};
    use si_schemes::SchemeKind;
    use si_trace::{RecordConfig, TraceFile};
    use si_workloads::WorkloadKind;

    fn load_trace(path: &str) -> Result<(TraceFile, u64), String> {
        let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
        let trace = TraceFile::decode(&bytes).map_err(|e| format!("{path}: {e}"))?;
        Ok((trace, TraceFile::content_digest(&bytes)))
    }

    fn summary(trace: &TraceFile, digest: u64) -> String {
        format!(
            "instr={} branches={} accesses={} interval={} intervals={} reps={} digest={digest:#018x}",
            trace.total_instr,
            trace.branches.len(),
            trace.accesses.len(),
            trace.samples.interval_len,
            trace.samples.n_intervals,
            trace.samples.reps.len(),
        )
    }

    let sub = argv
        .first()
        .map(String::as_str)
        .ok_or("trace needs a subcommand: record, replay, info, example")?;
    let rest = &argv[1..];
    match sub {
        "record" => {
            let mut workload: Option<String> = None;
            let mut scale = 48usize;
            let mut seed = 42u64;
            let mut cfg = RecordConfig::default();
            let mut out: Option<String> = None;
            walk_args(rest, |arg, value| {
                match arg {
                    "--workload" => workload = Some(value()?),
                    "--scale" => scale = parse_num(arg, &value()?)?,
                    "--seed" => seed = parse_seed(arg, &value()?)?,
                    "--interval" => cfg.interval_len = parse_num(arg, &value()?)?,
                    "--clusters" => cfg.max_clusters = parse_num(arg, &value()?)?,
                    "--warmup" => cfg.warmup_intervals = parse_num(arg, &value()?)?,
                    "--out" => out = Some(value()?),
                    other => return Err(format!("unknown trace record option '{other}'")),
                }
                Ok(())
            })?;
            let label = workload.ok_or("trace record needs --workload <kernel>")?;
            let kind =
                WorkloadKind::parse(&label).ok_or_else(|| format!("unknown workload '{label}'"))?;
            if matches!(kind, WorkloadKind::Trace(_)) {
                return Err(format!(
                    "'{label}' is already a trace workload; record from a kernel"
                ));
            }
            let path = out.unwrap_or_else(|| format!("traces/{label}.sit"));
            let start = Instant::now();
            let trace =
                si_trace::record(&kind.program(scale, seed), &cfg).map_err(|e| e.to_string())?;
            let bytes = trace.encode();
            write_file(&path, &bytes)?;
            let digest = TraceFile::content_digest(&bytes);
            println!(
                "trace:record     ok  {:>7}ms  {} bytes  {}  -> {}",
                start.elapsed().as_millis(),
                bytes.len(),
                summary(&trace, digest),
                path
            );
            Ok(ExitCode::SUCCESS)
        }
        "example" => {
            let mut out = "traces/example.sit".to_owned();
            walk_args(rest, |arg, value| {
                match arg {
                    "--out" => out = value()?,
                    other => return Err(format!("unknown trace example option '{other}'")),
                }
                Ok(())
            })?;
            let trace = si_trace::example_trace();
            let bytes = trace.encode();
            write_file(&out, &bytes)?;
            println!(
                "trace:example    ok  {} bytes  {}  -> {}",
                bytes.len(),
                summary(&trace, TraceFile::content_digest(&bytes)),
                out
            );
            Ok(ExitCode::SUCCESS)
        }
        "info" => {
            let path = rest.first().ok_or("trace info needs a file path")?.as_str();
            let (trace, digest) = load_trace(path)?;
            println!("trace:info       ok  {}  {}", summary(&trace, digest), path);
            Ok(ExitCode::SUCCESS)
        }
        "replay" => {
            let path = rest
                .first()
                .ok_or("trace replay needs a file path")?
                .as_str();
            let mut scheme = SchemeKind::Unprotected;
            let mut predictor = PredictorPreset::Tage;
            let mut full = false;
            let mut budget = 30_000_000u64;
            let mut no_artifact_cache = false;
            walk_args(&rest[1..], |arg, value| {
                match arg {
                    "--scheme" => {
                        let v = value()?;
                        scheme = parse_scheme(&v).ok_or_else(|| format!("unknown scheme '{v}'"))?;
                    }
                    "--predictor" => {
                        let v = value()?;
                        predictor = PredictorPreset::parse(&v)
                            .ok_or_else(|| format!("unknown predictor '{v}'"))?;
                    }
                    "--full" => full = true,
                    "--budget" => budget = parse_num(arg, &value()?)?,
                    "--no-artifact-cache" => no_artifact_cache = true,
                    other => return Err(format!("unknown trace replay option '{other}'")),
                }
                Ok(())
            })?;
            let (trace, digest) = load_trace(path)?;
            let config = MachineConfig::from_presets(
                GeometryPreset::KabyLake,
                NoisePreset::Quiet,
                predictor,
            );
            ArtifactCache::global().set_enabled(!no_artifact_cache);
            let start = Instant::now();
            let out = if full {
                si_trace::replay_full(&trace, &config, scheme.build(), budget)
            } else {
                si_workloads::replay_trace_cached(&trace, digest, scheme, &config, budget)
            }
            .map_err(|e| e.to_string())?;
            println!(
                "trace:replay     ok  {:>7}ms  mode={} cycles={} simulated={} intervals={}  {}",
                start.elapsed().as_millis(),
                if full { "full" } else { "sampled" },
                out.cycles,
                out.simulated_instr,
                out.intervals_run,
                path
            );
            Ok(ExitCode::SUCCESS)
        }
        other => Err(format!(
            "unknown trace subcommand '{other}' (subcommands: record, replay, info, example)"
        )),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let rest = argv.get(1..).unwrap_or_default();
    let outcome = match argv.first().map(String::as_str) {
        Some("list") => Ok(cmd_list()),
        Some("bench") => cmd_bench(rest),
        Some("trace") => cmd_trace(rest),
        Some(name @ ("run" | "sweep" | "attack" | "scan")) => {
            cmd_job(Verb::parse(name).expect("a job verb"), rest)
        }
        Some("serve") => cmd_serve(rest),
        Some("cache") => cmd_cache(rest),
        Some("report") => cmd_report(rest),
        Some("-h" | "--help" | "help") | None => {
            print!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        Some(other) => Err(format!("unknown command '{other}'")),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("error: {e}\n\n{USAGE}");
        ExitCode::FAILURE
    })
}
