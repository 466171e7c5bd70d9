//! Text rendering for the harness's reporting layer: the
//! deterministic markdown renderer behind `sia report`, which turns any
//! `results/*.json` document — experiment, sweep, or bench — into the
//! generated tables of EXPERIMENTS.md.

use crate::json::{doc_kind, DocKind, Json};

/// Marker opening the generated-report region `sia report
/// --update/--check` splices into (EXPERIMENTS.md).
pub const REPORT_BEGIN: &str = "<!-- sia:report:begin -->";
/// Marker closing the generated-report region.
pub const REPORT_END: &str = "<!-- sia:report:end -->";

/// Placeholder cell for failed measurements — tables stay rectangular
/// even when a kernel times out or fails its checksum.
pub const PLACEHOLDER: &str = "—";

/// Renders a markdown table. Every row must have the header's width
/// (the caller guarantees rectangularity; failures become
/// [`PLACEHOLDER`] cells upstream).
pub fn markdown_table(headers: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(&format!("| {} |\n", headers.join(" | ")));
    out.push_str(&format!("|{}\n", "---|".repeat(headers.len())));
    for row in rows {
        debug_assert_eq!(row.len(), headers.len(), "ragged markdown row");
        out.push_str(&format!("| {} |\n", row.join(" | ")));
    }
    out
}

/// Formats a JSON leaf for a table cell: floats with shortest-roundtrip
/// `Display` (deterministic), strings unquoted, containers compact.
fn cell(v: &Json) -> String {
    match v {
        Json::Str(s) => s.clone(),
        other => other.to_compact(),
    }
}

/// Formats a slowdown multiple (`1.43×`).
fn slowdown_cell(v: f64) -> String {
    format!("{v:.2}×")
}

/// Renders one result document as a markdown section. `stem` is the
/// file stem the section is anchored on (stable across regeneration).
/// Unrecognized documents are an error — the report must never silently
/// drop a file.
pub fn render_doc(stem: &str, doc: &Json) -> Result<String, String> {
    match doc_kind(doc) {
        Some(DocKind::Experiment) => Ok(render_experiment(stem, doc)),
        Some(DocKind::Sweep) => Ok(render_sweep(stem, doc)),
        Some(DocKind::Attack) => Ok(render_attack(stem, doc)),
        Some(DocKind::Scan) => Ok(render_scan(stem, doc)),
        Some(DocKind::Bench) => Ok(render_bench(stem, doc)),
        None => Err(format!("{stem}: not a harness result document")),
    }
}

/// Experiment documents: the `config` line plus the flat `summary`
/// table — the headline numbers EXPERIMENTS.md quotes.
fn render_experiment(stem: &str, doc: &Json) -> String {
    let title = doc.get("title").map(cell).unwrap_or_default();
    let mut out = format!("### `{stem}` — {title}\n\n");
    if let Some(Json::Obj(pairs)) = doc.get("config") {
        let line: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_compact()))
            .collect();
        out.push_str(&format!("config: `{}`\n\n", line.join(" ")));
    }
    let rows: Vec<Vec<String>> = match doc.get("summary") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .map(|(k, v)| vec![format!("`{k}`"), cell(v)])
            .collect(),
        _ => Vec::new(),
    };
    out.push_str(&markdown_table(
        &["metric".to_owned(), "value".to_owned()],
        &rows,
    ));
    out
}

/// Sweep documents: one slowdown table (rows = grid rows, columns =
/// baseline cycles + one slowdown column per scheme), with failed cells
/// rendered as [`PLACEHOLDER`] and a geomean footer row. Axis columns
/// that are constant across the grid (single-valued in `config`) are
/// omitted.
fn render_sweep(stem: &str, doc: &Json) -> String {
    let title = doc.get("title").map(cell).unwrap_or_default();
    let mut out = format!("### `{stem}` — {title}\n\n");
    let config = doc.get("config");
    if let Some(Json::Obj(pairs)) = config {
        let line: Vec<String> = pairs
            .iter()
            .filter(|(k, _)| matches!(k.as_str(), "scale" | "trials" | "seed"))
            .map(|(k, v)| format!("{k}={}", v.to_compact()))
            .collect();
        out.push_str(&format!("config: `{}`\n\n", line.join(" ")));
    }
    let axis_len = |axis: &str| -> usize {
        match config.and_then(|c| c.get(axis)) {
            Some(Json::Arr(items)) => items.len(),
            _ => 0,
        }
    };
    let schemes: Vec<String> = match config.and_then(|c| c.get("schemes")) {
        Some(Json::Arr(items)) => items.iter().map(cell).collect(),
        _ => Vec::new(),
    };
    let multi: Vec<&str> = [
        ("geometry", "geometries"),
        ("noise", "noises"),
        ("predictor", "predictors"),
    ]
    .into_iter()
    .filter(|(_, axis)| axis_len(axis) > 1)
    .map(|(col, _)| col)
    .collect();

    let mut headers: Vec<String> = vec!["workload".to_owned()];
    headers.extend(multi.iter().map(|c| (*c).to_owned()));
    headers.push("baseline cycles".to_owned());
    headers.extend(schemes.iter().map(|s| format!("`{s}`")));

    let empty = Vec::new();
    let rows = match doc.get("result").and_then(|r| r.get("rows")) {
        Some(Json::Arr(items)) => items,
        _ => &empty,
    };
    let mut table = Vec::with_capacity(rows.len() + 1);
    for row in rows {
        let mut cells: Vec<String> = vec![row.get("workload").map(cell).unwrap_or_default()];
        for col in &multi {
            cells.push(row.get(col).map(cell).unwrap_or_default());
        }
        cells.push(
            match row.get("baseline").and_then(|b| b.get("mean_cycles")) {
                Some(Json::F64(m)) => format!("{m:.0}"),
                _ => PLACEHOLDER.to_owned(),
            },
        );
        let row_cells = match row.get("cells") {
            Some(Json::Arr(items)) => items.as_slice(),
            _ => &[],
        };
        for scheme in &schemes {
            let entry = row_cells
                .iter()
                .find(|c| c.get("scheme").map(cell).as_deref() == Some(scheme));
            cells.push(match entry.and_then(|c| c.get("slowdown")) {
                Some(Json::F64(s)) => slowdown_cell(*s),
                _ => PLACEHOLDER.to_owned(),
            });
        }
        table.push(cells);
    }
    // Geomean footer from the summary, aligned under the scheme columns.
    let mut footer: Vec<String> = vec!["**geomean**".to_owned()];
    footer.extend(multi.iter().map(|_| String::new()));
    footer.push(String::new());
    for scheme in &schemes {
        footer.push(
            match doc
                .get("summary")
                .and_then(|s| s.get(&format!("geomean_{scheme}")))
            {
                Some(Json::F64(g)) => format!("**{}**", slowdown_cell(*g)),
                _ => PLACEHOLDER.to_owned(),
            },
        );
    }
    table.push(footer);
    out.push_str(&markdown_table(&headers, &table));
    out
}

/// Attack documents: one accuracy table (rows = grid rows, columns =
/// one per scheme; leaking cells — accuracy ≥ the leak threshold —
/// rendered **bold**) with a leaking-cell-count footer, followed by a
/// confident-channel table listing every leaking cell's repetition
/// count and bandwidth. Axis columns constant across the grid are
/// omitted, mirroring the sweep renderer.
fn render_attack(stem: &str, doc: &Json) -> String {
    let title = doc.get("title").map(cell).unwrap_or_default();
    let mut out = format!("### `{stem}` — {title}\n\n");
    let config = doc.get("config");
    if let Some(Json::Obj(pairs)) = config {
        let line: Vec<String> = pairs
            .iter()
            .filter(|(k, _)| matches!(k.as_str(), "trials" | "seed"))
            .map(|(k, v)| format!("{k}={}", v.to_compact()))
            .collect();
        out.push_str(&format!("config: `{}`\n\n", line.join(" ")));
    }
    let axis_len = |axis: &str| -> usize {
        match config.and_then(|c| c.get(axis)) {
            Some(Json::Arr(items)) => items.len(),
            _ => 0,
        }
    };
    let schemes: Vec<String> = match config.and_then(|c| c.get("schemes")) {
        Some(Json::Arr(items)) => items.iter().map(cell).collect(),
        _ => Vec::new(),
    };
    let multi: Vec<&str> = [("geometry", "geometries"), ("noise", "noises")]
        .into_iter()
        .filter(|(_, axis)| axis_len(axis) > 1)
        .map(|(col, _)| col)
        .collect();

    let mut headers: Vec<String> = vec!["variant".to_owned()];
    headers.extend(multi.iter().map(|c| (*c).to_owned()));
    headers.extend(schemes.iter().map(|s| format!("`{s}`")));

    let empty = Vec::new();
    let rows = match doc.get("result").and_then(|r| r.get("rows")) {
        Some(Json::Arr(items)) => items,
        _ => &empty,
    };
    let cell_for = |row: &Json, scheme: &str| -> Option<Json> {
        match row.get("cells") {
            Some(Json::Arr(items)) => items
                .iter()
                .find(|c| c.get("scheme").map(cell).as_deref() == Some(scheme))
                .cloned(),
            _ => None,
        }
    };
    let mut table = Vec::with_capacity(rows.len() + 1);
    let mut leaks_per_scheme = vec![0usize; schemes.len()];
    for row in rows {
        let mut cells: Vec<String> = vec![row.get("variant").map(cell).unwrap_or_default()];
        for col in &multi {
            cells.push(row.get(col).map(cell).unwrap_or_default());
        }
        for (i, scheme) in schemes.iter().enumerate() {
            let entry = cell_for(row, scheme);
            let accuracy = entry.as_ref().and_then(|c| match c.get("accuracy") {
                Some(Json::F64(a)) => Some(*a),
                _ => None,
            });
            let leaks = matches!(
                entry.as_ref().and_then(|c| c.get("leaks")),
                Some(Json::Bool(true))
            );
            cells.push(match accuracy {
                Some(a) if leaks => {
                    leaks_per_scheme[i] += 1;
                    format!("**{a:.2}**")
                }
                Some(a) => format!("{a:.2}"),
                None => PLACEHOLDER.to_owned(),
            });
        }
        table.push(cells);
    }
    let mut footer: Vec<String> = vec!["**leaking cells**".to_owned()];
    footer.extend(multi.iter().map(|_| String::new()));
    for count in &leaks_per_scheme {
        footer.push(format!("**{count}/{}**", rows.len()));
    }
    table.push(footer);
    out.push_str(&markdown_table(&headers, &table));

    // Confident channels: every leaking cell with its amplification cost.
    let mut channel_rows = Vec::new();
    for row in rows {
        for scheme in &schemes {
            let Some(entry) = cell_for(row, scheme) else {
                continue;
            };
            if !matches!(entry.get("leaks"), Some(Json::Bool(true))) {
                continue;
            }
            let mut cells: Vec<String> = vec![row.get("variant").map(cell).unwrap_or_default()];
            for col in &multi {
                cells.push(row.get(col).map(cell).unwrap_or_default());
            }
            cells.push(format!("`{scheme}`"));
            cells.push(match entry.get("trials_to_95") {
                Some(n) => n.to_compact(),
                None => PLACEHOLDER.to_owned(),
            });
            cells.push(match entry.get("confident_bandwidth_bps") {
                Some(Json::F64(bps)) => format!("{:.1} kbit/s", bps / 1000.0),
                _ => PLACEHOLDER.to_owned(),
            });
            channel_rows.push(cells);
        }
    }
    if !channel_rows.is_empty() {
        let mut headers: Vec<String> = vec!["variant".to_owned()];
        headers.extend(multi.iter().map(|c| (*c).to_owned()));
        headers.extend([
            "scheme".to_owned(),
            "trials to 95%".to_owned(),
            "bandwidth @95%".to_owned(),
        ]);
        out.push('\n');
        out.push_str(&markdown_table(&headers, &channel_rows));
    }
    out
}

/// Scan documents: a per-program overview table (sizes, window count,
/// finding count, confirmed/static-only split), then one findings table
/// listing every gadget (confirmed findings **bold**), then a confirm
/// table with each (program, class, scheme) cell's accuracy.
fn render_scan(stem: &str, doc: &Json) -> String {
    let title = doc.get("title").map(cell).unwrap_or_default();
    let mut out = format!("### `{stem}` — {title}\n\n");
    if let Some(Json::Obj(pairs)) = doc.get("config") {
        let line: Vec<String> = pairs
            .iter()
            .map(|(k, v)| format!("{k}={}", v.to_compact()))
            .collect();
        out.push_str(&format!("config: `{}`\n\n", line.join(" ")));
    }
    let empty = Vec::new();
    let programs = match doc.get("result").and_then(|r| r.get("programs")) {
        Some(Json::Arr(items)) => items,
        _ => &empty,
    };

    // Overview: one row per corpus program.
    let mut overview = Vec::with_capacity(programs.len());
    for p in programs {
        let findings = match p.get("findings") {
            Some(Json::Arr(f)) => f.as_slice(),
            _ => &[],
        };
        let confirmed = findings
            .iter()
            .filter(|f| f.get("status").map(cell).as_deref() == Some("confirmed"))
            .count();
        overview.push(vec![
            format!("`{}`", p.get("name").map(cell).unwrap_or_default()),
            p.get("instructions").map(cell).unwrap_or_default(),
            p.get("branches").map(cell).unwrap_or_default(),
            p.get("windows").map(cell).unwrap_or_default(),
            findings.len().to_string(),
            confirmed.to_string(),
            (findings.len() - confirmed).to_string(),
        ]);
    }
    out.push_str(&markdown_table(
        &[
            "program".to_owned(),
            "instructions".to_owned(),
            "branches".to_owned(),
            "windows".to_owned(),
            "findings".to_owned(),
            "confirmed".to_owned(),
            "static-only".to_owned(),
        ],
        &overview,
    ));

    // Findings: every gadget row, confirmed ones bold.
    let mut finding_rows = Vec::new();
    for p in programs {
        let name = p.get("name").map(cell).unwrap_or_default();
        let findings = match p.get("findings") {
            Some(Json::Arr(f)) => f.as_slice(),
            _ => &[],
        };
        for f in findings {
            let status = f.get("status").map(cell).unwrap_or_default();
            let decorate = |s: String| {
                if status == "confirmed" {
                    format!("**{s}**")
                } else {
                    s
                }
            };
            finding_rows.push(vec![
                format!("`{name}`"),
                f.get("branch_pc").map(cell).unwrap_or_default(),
                f.get("direction").map(cell).unwrap_or_default(),
                f.get("sink_pc").map(cell).unwrap_or_default(),
                decorate(f.get("channel").map(cell).unwrap_or_default()),
                f.get("window_len").map(cell).unwrap_or_default(),
                decorate(status.clone()),
            ]);
        }
    }
    if !finding_rows.is_empty() {
        out.push('\n');
        out.push_str(&markdown_table(
            &[
                "program".to_owned(),
                "branch".to_owned(),
                "direction".to_owned(),
                "sink".to_owned(),
                "channel".to_owned(),
                "window".to_owned(),
                "status".to_owned(),
            ],
            &finding_rows,
        ));
    }

    // Confirm cells: accuracy per (program, class, scheme).
    let mut confirm_rows = Vec::new();
    for p in programs {
        let name = p.get("name").map(cell).unwrap_or_default();
        let blocks = match p.get("confirm") {
            Some(Json::Arr(b)) => b.as_slice(),
            _ => &[],
        };
        for block in blocks {
            let class = block.get("class").map(cell).unwrap_or_default();
            let cells = match block.get("cells") {
                Some(Json::Arr(c)) => c.as_slice(),
                _ => &[],
            };
            for c in cells {
                let leaks = matches!(c.get("leaks"), Some(Json::Bool(true)));
                let accuracy = match c.get("accuracy") {
                    Some(Json::F64(a)) if leaks => format!("**{a:.2}**"),
                    Some(Json::F64(a)) => format!("{a:.2}"),
                    _ => PLACEHOLDER.to_owned(),
                };
                confirm_rows.push(vec![
                    format!("`{name}`"),
                    format!("`{class}`"),
                    format!("`{}`", c.get("scheme").map(cell).unwrap_or_default()),
                    accuracy,
                    if leaks { "leaks" } else { "chance" }.to_owned(),
                ]);
            }
        }
    }
    if !confirm_rows.is_empty() {
        out.push('\n');
        out.push_str(&markdown_table(
            &[
                "program".to_owned(),
                "class".to_owned(),
                "scheme".to_owned(),
                "accuracy".to_owned(),
                "verdict".to_owned(),
            ],
            &confirm_rows,
        ));
    }
    out
}

/// Bench documents: the derived speedup ratios only (raw wall-clock
/// numbers are machine-dependent and stay out of generated docs).
fn render_bench(stem: &str, doc: &Json) -> String {
    let mut out = format!("### `{stem}` — microbenchmark snapshot\n\n");
    let rows: Vec<Vec<String>> = match doc.get("speedups") {
        Some(Json::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| match v {
                Json::F64(r) => Some(vec![format!("`{k}`"), format!("{r:.2}×")]),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    };
    out.push_str(&markdown_table(
        &["speedup".to_owned(), "ratio".to_owned()],
        &rows,
    ));
    out
}

/// Assembles the full generated report from `(stem, document)` pairs —
/// the exact text spliced between [`REPORT_BEGIN`] and [`REPORT_END`].
/// Sections are emitted in the given order (callers sort by stem), so
/// the output is deterministic for a fixed result set.
pub fn render_report(docs: &[(String, Json)]) -> Result<String, String> {
    let mut out = String::from(
        "<!-- Generated by `sia report` — do not edit by hand. Regenerate with the\n     \
         `sia report <fixtures> --update` command documented at the top of\n     \
         EXPERIMENTS.md (pass the committed fixture files explicitly; a results/\n     \
         directory with extra local result files would add sections CI rejects). -->\n",
    );
    for (stem, doc) in docs {
        out.push('\n');
        out.push_str(&render_doc(stem, doc)?);
    }
    Ok(out)
}

/// Splices `generated` into `text` between the report markers, returning
/// the new file content. Errors if the markers are missing or inverted.
pub fn splice_report(text: &str, generated: &str) -> Result<String, String> {
    let begin = text
        .find(REPORT_BEGIN)
        .ok_or_else(|| format!("missing '{REPORT_BEGIN}' marker"))?;
    let end = text
        .find(REPORT_END)
        .ok_or_else(|| format!("missing '{REPORT_END}' marker"))?;
    if end < begin {
        return Err("report markers are inverted".into());
    }
    Ok(format!(
        "{}{}\n{}\n{}{}",
        &text[..begin],
        REPORT_BEGIN,
        generated.trim_end(),
        REPORT_END,
        &text[end + REPORT_END.len()..]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::obj;

    #[test]
    fn markdown_tables_are_rectangular_and_stable() {
        let t = markdown_table(
            &["a".to_owned(), "b".to_owned()],
            &[vec!["1".to_owned(), "2".to_owned()]],
        );
        assert_eq!(t, "| a | b |\n|---|---|\n| 1 | 2 |\n");
    }

    #[test]
    fn splice_replaces_only_the_marked_region() {
        let text = format!("head\n{REPORT_BEGIN}\nold\n{REPORT_END}\ntail\n");
        let spliced = splice_report(&text, "new\n").expect("splices");
        assert_eq!(
            spliced,
            format!("head\n{REPORT_BEGIN}\nnew\n{REPORT_END}\ntail\n")
        );
        // Idempotent: splicing the same content again changes nothing.
        assert_eq!(splice_report(&spliced, "new").expect("splices"), spliced);
        assert!(splice_report("no markers", "x").is_err());
    }

    #[test]
    fn unknown_documents_are_an_error_not_a_silent_skip() {
        let doc = obj([("hello", Json::from("world"))]);
        assert!(render_doc("mystery", &doc).is_err());
        assert!(render_report(&[("mystery".to_owned(), doc)]).is_err());
    }

    #[test]
    fn experiment_sections_tabulate_the_summary() {
        let doc = obj([
            ("schema_version", Json::from(2u64)),
            ("kind", Json::from("experiment")),
            ("experiment", Json::from("fig99")),
            ("title", Json::from("A title")),
            ("config", obj([("trials", Json::from(3u64))])),
            ("result", obj([])),
            ("summary", obj([("separation", Json::from(42.0))])),
        ]);
        let md = render_doc("fig99", &doc).expect("renders");
        assert!(md.contains("### `fig99` — A title"));
        assert!(md.contains("config: `trials=3`"));
        assert!(md.contains("| `separation` | 42.0 |"));
    }

    #[test]
    fn scan_sections_tabulate_findings_and_confirm_cells() {
        use crate::json::arr;
        let doc = obj([
            ("schema_version", Json::from(2u64)),
            ("kind", Json::from("scan")),
            ("title", Json::from("A scan")),
            ("config", obj([("horizon", Json::from(128u64))])),
            (
                "result",
                obj([(
                    "programs",
                    arr([obj([
                        ("name", Json::from("paper-mshr")),
                        ("instructions", Json::from(40u64)),
                        ("branches", Json::from(3u64)),
                        ("windows", Json::from(5u64)),
                        ("confirmable", Json::from(true)),
                        (
                            "findings",
                            arr([obj([
                                ("branch_pc", Json::from("0x1010")),
                                ("direction", Json::from("taken")),
                                ("sink_pc", Json::from("0x1040")),
                                ("channel", Json::from("mshr-load")),
                                ("window_len", Json::from(7u64)),
                                ("status", Json::from("confirmed")),
                            ])]),
                        ),
                        (
                            "confirm",
                            arr([obj([
                                ("class", Json::from("mshr-pressure")),
                                ("confirmed", Json::from(true)),
                                (
                                    "cells",
                                    arr([obj([
                                        ("scheme", Json::from("invisispec-spectre")),
                                        ("accuracy", Json::from(1.0)),
                                        ("leaks", Json::from(true)),
                                    ])]),
                                ),
                            ])]),
                        ),
                    ])]),
                )]),
            ),
            ("summary", obj([])),
        ]);
        let md = render_doc("scan-corpus", &doc).expect("renders");
        assert!(md.contains("### `scan-corpus` — A scan"));
        assert!(md.contains("| `paper-mshr` | 40 | 3 | 5 | 1 | 1 | 0 |"));
        assert!(md.contains("**mshr-load**"));
        assert!(md.contains("**confirmed**"));
        assert!(md.contains(
            "| `paper-mshr` | `mshr-pressure` | `invisispec-spectre` | **1.00** | leaks |"
        ));
    }
}
