//! The traced run's span recorder: each call the benchmark makes into a
//! layer's public function is wrapped in a span (name, start, end,
//! parent span, job or request id). Spans stay in memory and are
//! written once, at the end, as Chrome trace-event JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use si_harness::json::{obj, Json};

use crate::stats;

/// One recorded span; times are nanoseconds since the recorder began.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: String,
    /// The job, unit or request the span belongs to.
    pub job: u64,
    /// Small per-thread number (for the trace viewer's lanes).
    pub tid: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

/// Collects spans from any number of threads.
pub struct Recorder {
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's
    /// id, so the calls it makes can name it as their parent.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<u32>,
        job: u64,
        f: impl FnOnce(u32) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        let span = Span {
            id,
            parent,
            name: name.to_owned(),
            job,
            tid: TID.with(|t| *t),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list poisoned").push(span);
        out
    }

    /// A snapshot of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Durations, in nanoseconds, of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Every span as Chrome trace-event JSON ("X" complete events, in
    /// microseconds), loadable by offline trace viewers.
    pub fn chrome_json(&self) -> String {
        let events: Vec<Json> = self
            .spans()
            .iter()
            .map(|s| {
                obj([
                    ("name", Json::from(s.name.as_str())),
                    ("cat", Json::from("perfbench")),
                    ("ph", Json::from("X")),
                    ("ts", Json::from(s.start_ns as f64 / 1e3)),
                    ("dur", Json::from(s.dur_ns() as f64 / 1e3)),
                    ("pid", Json::from(1u64)),
                    ("tid", Json::from(s.tid)),
                    (
                        "args",
                        obj([
                            ("id", Json::from(u64::from(s.id))),
                            ("parent", Json::from(s.parent.map(u64::from))),
                            ("job", Json::from(s.job)),
                        ]),
                    ),
                ])
            })
            .collect();
        obj([
            ("traceEvents", Json::Arr(events)),
            ("displayTimeUnit", Json::from("ms")),
        ])
        .to_compact()
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that its children cover (overlapping children count once).
pub fn self_ns(spans: &[Span]) -> BTreeMap<u32, u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.dur_ns() - covered)
        })
        .collect()
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut run: Option<(u64, u64)> = None;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(lo), e.min(hi));
        if s >= e {
            continue;
        }
        run = match run {
            Some((rs, re)) if s <= re => Some((rs, re.max(e))),
            Some((rs, re)) => {
                covered += re - rs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    covered + run.map_or(0, |(rs, re)| re - rs)
}

/// Per-name aggregate of a span list.
#[derive(Debug, Clone, PartialEq)]
pub struct NameSummary {
    pub name: String,
    pub count: usize,
    pub total_ns: u64,
    pub self_ns: u64,
    pub median_ns: f64,
    /// Highest percentile with ten samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
}

/// Count, total, self time, median and tail per span name, by name.
pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let selfs = self_ns(spans);
    let mut by_name: BTreeMap<&str, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name.as_str()).or_default().push(s);
    }
    by_name
        .into_iter()
        .map(|(name, group)| {
            let durs: Vec<f64> = group.iter().map(|s| s.dur_ns() as f64).collect();
            NameSummary {
                name: name.to_owned(),
                count: group.len(),
                total_ns: group.iter().map(|s| s.dur_ns()).sum(),
                self_ns: group.iter().map(|s| selfs[&s.id]).sum(),
                median_ns: stats::median(&durs).unwrap_or(0.0),
                tail: stats::tail(&durs),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            job: 0,
            tid: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(1, None, 0, 100),
            // Two overlapping children cover 10..50, a third 60..70.
            span(2, Some(1), 10, 30),
            span(3, Some(1), 20, 50),
            span(4, Some(1), 60, 70),
            // A grandchild affects its parent only.
            span(5, Some(2), 12, 18),
            // A child running past its parent is clipped to it.
            span(6, Some(4), 65, 90),
        ];
        let selfs = self_ns(&spans);
        assert_eq!(selfs[&1], 100 - 40 - 10);
        assert_eq!(selfs[&2], 20 - 6);
        assert_eq!(selfs[&3], 30);
        assert_eq!(selfs[&4], 10 - 5);
        assert_eq!(selfs[&5], 6);
    }

    #[test]
    fn summary_groups_by_name() {
        let mut spans = vec![span(1, None, 0, 100), span(2, Some(1), 10, 30)];
        spans[1].name = "s1".to_owned();
        let summary = summarize(&spans);
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].count, 2);
        assert_eq!(summary[0].total_ns, 120);
        assert_eq!(summary[0].self_ns, 80 + 20);
        assert_eq!(summary[0].median_ns, 60.0);
        assert_eq!(summary[0].tail, None);
    }

    #[test]
    fn recorder_links_children_to_parents() {
        let rec = Recorder::new();
        rec.time("outer", None, 7, |outer| {
            rec.time("inner", Some(outer), 7, |_| ());
        });
        let spans = rec.spans();
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
        assert!(rec.chrome_json().starts_with("{\"traceEvents\":["));
    }
}
