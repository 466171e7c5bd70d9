//! The `sia scan` pipeline: static gadget scanning over the committed
//! corpus plus engine-backed dynamic confirmation.
//!
//! ## Two stages, one document
//!
//! 1. **Static** — every [`si_scan::corpus`] program is scanned inline
//!    ([`si_scan::scan`]); this is pure, cheap, and never cached.
//! 2. **Confirm** — for each scaffold-shaped program, each distinct
//!    [`si_scan::ConfirmClass`] among its findings is mounted as a real
//!    attack (`AttackScenario::from_finding`, victim override) against
//!    every scheme in the job, `trials` secret bits per cell. Each bit
//!    trial is one [`si_engine::UnitSpec`] of kind `"scan"`, so
//!    1-thread/N-thread runs are bit-identical and `--cache` re-runs
//!    only execute changed units — the same contract as `sia attack`.
//!
//! A finding's **status** is `confirmed` when its confirm class leaks
//! under at least one scheme of the job, and `static-only` otherwise
//! (no runnable template, non-scaffold program, or no cell leaked).
//!
//! ## Output (schema v2, `kind: "scan"`)
//!
//! ```text
//! {
//!   "schema_version": 2,
//!   "kind": "scan",
//!   "title": "...",
//!   "config": { horizon, trials, seed, schemes },
//!   "result": { "programs": [ { name, instructions, branches, windows,
//!       findings: [ {branch_pc, direction, sink_pc, channel, fu?,
//!                    window_len, relevant_schemes, confirm_class?, status} ],
//!       confirm:  [ {class, cells: [ {scheme, accuracy, correct, wrong,
//!                    abstained, mean_cycles, leaks} ]} ] } ] },
//!   "summary": { programs, findings, confirmed, static_only, ... }
//! }
//! ```
//!
//! Program counters serialize as `0x…` strings; every list is emitted
//! in a fixed order (corpus order, sorted findings, `ConfirmClass` and
//! scheme order of the job), so the document is a pure function of
//! `(job, seed)`.

use si_attack::{leakage, AttackScenario, BitTrial};
use si_engine::{digest::fnv64, Engine, ExecStats, UnitSpec};
use si_scan::{corpus, ConfirmClass, CorpusEntry, Finding, ScanConfig, ScanReport};
use si_schemes::SchemeKind;

use crate::attack::run_bit_trials;
use crate::exec::mix_seed;
use crate::json::{arr, obj, DocKind, Json, SCHEMA_VERSION};
use crate::scheme_slug;

/// A scan job: the static horizon plus the confirm-stage shape.
#[derive(Debug, Clone)]
pub struct ScanJob {
    /// Speculative-window horizon in instructions.
    pub horizon: usize,
    /// Schemes the confirm stage replays each finding class under.
    pub schemes: Vec<SchemeKind>,
    /// Secret bits per confirm cell.
    pub trials: usize,
}

impl ScanJob {
    /// The standard job: default ROB horizon; confirm under the
    /// unprotected baseline, one invisible scheme, and the full fence —
    /// the acceptance matrix (leak / leak / chance) in miniature.
    pub fn standard() -> ScanJob {
        ScanJob {
            horizon: si_scan::ScanConfig::default().horizon,
            schemes: vec![
                SchemeKind::Unprotected,
                SchemeKind::InvisiSpecSpectre,
                SchemeKind::FenceFuturistic,
            ],
            trials: 12,
        }
    }

    /// Shrinks the job for quick runs: six trials per confirm cell.
    pub fn quick(&mut self) {
        self.trials = 6;
    }

    /// The job's unit stream under `seed`. Runs the (cheap) static stage,
    /// which decides the confirm cells.
    pub fn unit_specs(&self, seed: u64) -> Result<Vec<UnitSpec>, String> {
        Ok(self.plan(seed)?.specs)
    }

    /// Compiles the job: the static stage, then the confirm cells and
    /// their unit stream.
    fn plan(&self, seed: u64) -> Result<Plan, String> {
        if self.schemes.is_empty() {
            return Err("scan job has no confirm schemes".into());
        }
        if self.horizon == 0 {
            return Err("scan horizon must be at least 1".into());
        }
        let trials = self.trials.max(1);
        let entries = corpus();
        let config = ScanConfig {
            horizon: self.horizon,
        };
        let reports: Vec<ScanReport> = entries
            .iter()
            .map(|e| si_scan::scan(&e.program, &e.secrets, &config))
            .collect();

        // Confirm cells, in (corpus, class, scheme) order.
        let mut cells: Vec<ConfirmCell> = Vec::new();
        for (i, (entry, report)) in entries.iter().zip(&reports).enumerate() {
            if entry.scaffold.is_none() {
                continue;
            }
            for (class, finding) in confirm_classes(report) {
                for &scheme in &self.schemes {
                    let scenario =
                        AttackScenario::from_finding(&finding, scheme, entry.program.clone())
                            .expect("classes come from confirm_class()");
                    cells.push(ConfirmCell {
                        entry: i,
                        class,
                        scheme,
                        scenario,
                    });
                }
            }
        }

        // Every cell transmits the same exactly balanced bit sequence; the
        // per-unit seed feeds only the (quiet-machine) noise stream. Unit
        // addresses fold the scanned program itself, so editing a corpus
        // program invalidates exactly its own cached confirm trials.
        let bits = leakage::secret_bits(trials, seed);
        let mut specs = Vec::with_capacity(cells.len() * trials);
        for c in &cells {
            let digest = fnv64(
                format!(
                    "{} horizon={} program={:?}",
                    c.scenario.machine().fingerprint(),
                    self.horizon,
                    entries[c.entry].program,
                )
                .as_bytes(),
            );
            for (trial, bit) in bits.iter().enumerate() {
                specs.push(UnitSpec {
                    kind: "scan",
                    key: format!(
                        "program={} class={} scheme={} bit={bit}",
                        entries[c.entry].name,
                        c.class.slug(),
                        scheme_slug(c.scheme),
                    ),
                    trial: trial as u64,
                    seed: mix_seed(seed, specs.len() as u64),
                    config_digest: digest,
                });
            }
        }
        Ok(Plan {
            entries,
            reports,
            cells,
            specs,
        })
    }
}

/// A scan job compiled under one seed: the corpus, its static reports,
/// the confirm cells, and their unit stream (cell-major, trials
/// innermost).
struct Plan {
    entries: Vec<CorpusEntry>,
    reports: Vec<ScanReport>,
    cells: Vec<ConfirmCell>,
    specs: Vec<UnitSpec>,
}

/// One confirm cell: a corpus program's finding class under one scheme.
struct ConfirmCell {
    entry: usize,
    class: ConfirmClass,
    scheme: SchemeKind,
    scenario: AttackScenario,
}

/// The distinct confirm classes among a report's findings, in
/// `ConfirmClass` order, paired with a representative finding each.
fn confirm_classes(report: &ScanReport) -> Vec<(ConfirmClass, Finding)> {
    let mut out: Vec<(ConfirmClass, Finding)> = Vec::new();
    for f in &report.findings {
        if let Some(class) = f.channel.confirm_class() {
            if !out.iter().any(|(c, _)| *c == class) {
                out.push((class, *f));
            }
        }
    }
    out.sort_by_key(|(c, _)| *c);
    out
}

/// Runs the scan pipeline and returns the schema-v2 document plus the
/// engine's executed/cached split. The document is a pure function of
/// `(job, seed)`.
pub fn run_scan(job: &ScanJob, seed: u64, engine: &Engine) -> Result<(Json, ExecStats), String> {
    let trials = job.trials.max(1);
    let Plan {
        entries,
        reports,
        cells,
        specs,
    } = job.plan(seed)?;
    let (outcomes, stats) = run_bit_trials(
        engine,
        &specs,
        &cells.iter().map(|c| &c.scenario).collect::<Vec<_>>(),
        &leakage::secret_bits(trials, seed),
    );
    Ok((
        scan_doc(job, seed, trials, &entries, &reports, &cells, &outcomes),
        stats,
    ))
}

fn hex(pc: u64) -> Json {
    Json::from(format!("0x{pc:x}"))
}

/// Assembles the schema-v2 scan document.
#[allow(clippy::too_many_arguments)]
fn scan_doc(
    job: &ScanJob,
    seed: u64,
    trials: usize,
    entries: &[CorpusEntry],
    reports: &[ScanReport],
    cells: &[ConfirmCell],
    outcomes: &[BitTrial],
) -> Json {
    // Score each confirm cell; `cells` is already in spec order.
    let scored: Vec<(usize, ConfirmClass, SchemeKind, leakage::LeakageScore)> = cells
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let base = i * trials;
            let score = leakage::score(&outcomes[base..base + trials]);
            (c.entry, c.class, c.scheme, score)
        })
        .collect();
    let class_confirmed = |entry: usize, class: ConfirmClass| -> bool {
        scored
            .iter()
            .any(|(e, c, _, s)| *e == entry && *c == class && s.leaks())
    };

    let mut programs = Vec::with_capacity(entries.len());
    let mut total_findings = 0usize;
    let mut confirmed = 0usize;
    let mut static_only = 0usize;
    for (i, (entry, report)) in entries.iter().zip(reports).enumerate() {
        let confirmable = entry.scaffold.is_some();
        let mut findings_json = Vec::with_capacity(report.findings.len());
        for f in &report.findings {
            total_findings += 1;
            let status = match f.channel.confirm_class() {
                Some(class) if confirmable && class_confirmed(i, class) => "confirmed",
                _ => "static-only",
            };
            if status == "confirmed" {
                confirmed += 1;
            } else {
                static_only += 1;
            }
            let mut fj = obj([
                ("branch_pc", hex(f.branch_pc)),
                ("direction", Json::from(f.direction.slug())),
                ("sink_pc", hex(f.sink_pc)),
                ("channel", Json::from(f.channel.slug())),
            ]);
            if let Some(fu) = f.channel.fu() {
                fj.push("fu", Json::from(format!("{fu:?}")));
            }
            fj.push("window_len", Json::from(f.window_len));
            fj.push(
                "relevant_schemes",
                arr(f.channel.scheme_relevance().to_vec()),
            );
            if let Some(class) = f.channel.confirm_class() {
                fj.push("confirm_class", Json::from(class.slug()));
            }
            fj.push("status", Json::from(status));
            findings_json.push(fj);
        }

        // Confirm blocks, grouped per class in cell order.
        let mut confirm_json: Vec<Json> = Vec::new();
        for (class, _) in confirm_classes(report) {
            if !confirmable {
                continue;
            }
            let cells_json: Vec<Json> = scored
                .iter()
                .filter(|(e, c, _, _)| *e == i && *c == class)
                .map(|(_, _, scheme, s)| {
                    obj([
                        ("scheme", Json::from(scheme_slug(*scheme))),
                        ("accuracy", Json::from(s.accuracy)),
                        ("correct", Json::from(s.correct)),
                        ("wrong", Json::from(s.wrong)),
                        ("abstained", Json::from(s.abstained)),
                        ("mean_cycles", Json::from(s.mean_cycles)),
                        ("leaks", Json::from(s.leaks())),
                    ])
                })
                .collect();
            confirm_json.push(obj([
                ("class", Json::from(class.slug())),
                ("confirmed", Json::from(class_confirmed(i, class))),
                ("cells", Json::Arr(cells_json)),
            ]));
        }

        programs.push(obj([
            ("name", Json::from(entry.name)),
            ("instructions", Json::from(report.instructions)),
            ("branches", Json::from(report.branches)),
            ("windows", Json::from(report.windows)),
            ("confirmable", Json::from(confirmable)),
            ("findings", Json::Arr(findings_json)),
            ("confirm", Json::Arr(confirm_json)),
        ]));
    }

    let config = obj([
        ("horizon", Json::from(job.horizon)),
        ("trials", Json::from(trials)),
        ("seed", Json::from(seed)),
        (
            "schemes",
            arr(job
                .schemes
                .iter()
                .map(|s| scheme_slug(*s))
                .collect::<Vec<_>>()),
        ),
    ]);
    let summary = obj([
        ("programs", Json::from(entries.len())),
        ("findings", Json::from(total_findings)),
        ("confirmed", Json::from(confirmed)),
        ("static_only", Json::from(static_only)),
        ("confirm_cells", Json::from(cells.len())),
        ("confirm_units", Json::from(cells.len() * trials)),
    ]);
    obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("kind", Json::from(DocKind::Scan.slug())),
        (
            "title",
            Json::from("Static gadget scan over the committed corpus"),
        ),
        ("config", config),
        ("result", obj([("programs", Json::Arr(programs))])),
        ("summary", summary),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_job() -> ScanJob {
        ScanJob {
            horizon: si_scan::ScanConfig::default().horizon,
            schemes: vec![SchemeKind::InvisiSpecSpectre],
            trials: 2,
        }
    }

    #[test]
    fn paper_gadgets_confirm_and_the_bait_stays_clean() {
        let (doc, _) = run_scan(&tiny_job(), 3, &Engine::new(2)).expect("runs");
        let programs = match doc.get("result").and_then(|r| r.get("programs")) {
            Some(Json::Arr(p)) => p.clone(),
            other => panic!("missing programs: {other:?}"),
        };
        let by_name = |name: &str| -> &Json {
            programs
                .iter()
                .find(|p| matches!(p.get("name"), Some(Json::Str(n)) if n == name))
                .unwrap_or_else(|| panic!("program {name}"))
        };
        for name in ["paper-mshr", "paper-npeu", "novel-div"] {
            let findings = match by_name(name).get("findings") {
                Some(Json::Arr(f)) => f.clone(),
                _ => panic!("{name} findings"),
            };
            assert!(
                findings
                    .iter()
                    .any(|f| matches!(f.get("status"), Some(Json::Str(s)) if s == "confirmed")),
                "{name} must confirm dynamically"
            );
        }
        match by_name("bait-fenced").get("findings") {
            Some(Json::Arr(f)) => assert!(f.is_empty(), "bait must stay clean: {f:?}"),
            other => panic!("bait findings: {other:?}"),
        }
        match by_name("loop-carried").get("findings") {
            Some(Json::Arr(f)) => assert!(!f.is_empty(), "loop-carried finding missing"),
            other => panic!("loop-carried findings: {other:?}"),
        }
    }

    #[test]
    fn empty_scheme_list_is_rejected() {
        let mut job = tiny_job();
        job.schemes.clear();
        assert!(run_scan(&job, 1, &Engine::new(1)).is_err());
    }
}
