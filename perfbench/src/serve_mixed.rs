//! `serve-mixed`: closed-loop clients replay a seeded request mix
//! against an in-process daemon (`serve::start`) over loopback.
//!
//! The mix is generated one pass at a time from the workload seed; the
//! daemon sees only the generated bodies. Per pass, every popular body
//! is requested plain, as markdown, streamed and one-shot, and every
//! cold job is a small grid at a fresh seed (see [`pass_requests`]).

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::Instant;

use si_engine::ArtifactCache;
use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::json::{parse, Json};
use si_harness::render::render_doc;
use si_harness::serve::{self, ServeHandle};
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{Engine, CODE_EPOCH};
use si_http::client::{ClientResponse, Conn};

use crate::checks::{self, DEFAULT_SEED};
use crate::spans::Recorder;
use crate::{peak_rss_mb, stats, Ctx, Report};

/// Daemon set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 3;

/// A run keeps requesting until it has at least this many samples, so
/// its 99th percentile has ten samples beyond it.
const MIN_REQUESTS: usize = 1000;

/// A frequently requested body and the committed fixture it reproduces
/// at the default seed.
pub struct Popular {
    pub path: &'static str,
    pub body: &'static str,
    /// The offline verb's output stem (anchors the markdown rendering).
    pub stem: &'static str,
    pub fixture: &'static str,
}

pub const POPULAR: [Popular; 4] = [
    Popular {
        path: "/v1/sweep",
        body: r#"{"quick":true}"#,
        stem: "sweep-defense",
        fixture: checks::SWEEP_DEFENSE_QUICK,
    },
    Popular {
        path: "/v1/sweep",
        body: r#"{"grid":"trace"}"#,
        stem: "sweep-trace",
        fixture: checks::SWEEP_TRACE,
    },
    Popular {
        path: "/v1/attack",
        body: "{}",
        stem: "attack-headline",
        fixture: checks::ATTACK_HEADLINE,
    },
    Popular {
        path: "/v1/scan",
        body: "{}",
        stem: "scan-corpus",
        fixture: checks::SCAN_CORPUS,
    },
];

/// Requests per popular body and pass, by class.
const PLAIN_PER_BODY: usize = 26;
const MD_PER_BODY: usize = 9;
const STREAM_PER_BODY: usize = 2;
const ONESHOT_PER_BODY: usize = 5;

/// Workloads a cold sweep runs, one sweep each per pass.
const COLD_SWEEP_WORKLOADS: [&str; 11] = [
    "ptr-chase",
    "stream",
    "gemm",
    "sort",
    "hash",
    "crc",
    "thrash",
    "mixed",
    "trace-mixed",
    "trace-sort",
    "trace-hash",
];

/// Headline cells a cold attack runs, one each per pass. `fence` is
/// left out: the scheme filter matches it as the family prefix of
/// `fence-futuristic`, so it cannot select that cell alone.
const COLD_ATTACK_SCHEMES: [&str; 7] = [
    "unprotected",
    "dom",
    "invisispec",
    "safespec-wfb",
    "muontrap",
    "cleanupspec",
    "fence-futuristic",
];
const COLD_ATTACK_VARIANTS: [&str; 2] = ["mshr-pressure", "port-contention"];

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// A popular body on the client's keep-alive connection.
    Warm,
    /// The same, rendered with `?format=md`.
    Md,
    /// The same, streamed with `?stream=1`.
    Stream,
    /// A small grid at a fresh seed on the keep-alive connection.
    Cold,
    /// A popular body on a new connection with `connection: close`.
    Oneshot,
}

impl Class {
    pub const ALL: [Class; 5] = [
        Class::Warm,
        Class::Md,
        Class::Stream,
        Class::Cold,
        Class::Oneshot,
    ];

    pub fn label(self) -> &'static str {
        match self {
            Class::Warm => "warm",
            Class::Md => "md",
            Class::Stream => "stream",
            Class::Cold => "cold",
            Class::Oneshot => "oneshot",
        }
    }
}

/// A cold job: a quick grid narrowed to one cell or one workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColdJob {
    pub attack: bool,
    pub filters: [String; 2],
    pub seed: u64,
}

impl ColdJob {
    fn body(&self) -> String {
        format!(
            r#"{{"quick":true,"filters":["{}","{}"],"seed":{}}}"#,
            self.filters[0], self.filters[1], self.seed
        )
    }

    /// The same job run in-process, for the served-bytes check.
    fn run_in_process(&self, threads: usize) -> Result<String, String> {
        let engine = Engine::new(threads);
        if self.attack {
            let mut grid = AttackGrid::named("headline")?;
            grid.quick();
            for f in &self.filters {
                grid.apply_filter(f)?;
            }
            Ok(run_attack_grid(&grid, self.seed, &engine)?.0.to_pretty())
        } else {
            let mut grid = GridSpec::named("defense")?;
            grid.quick();
            for f in &self.filters {
                grid.apply_filter(f)?;
            }
            Ok(run_sweep(&grid, self.seed, &engine)?.0.to_pretty())
        }
    }
}

/// One generated request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub class: Class,
    /// Path and query.
    pub target: String,
    pub body: String,
    /// Index into [`POPULAR`], or `None` for a cold job.
    pub popular: Option<usize>,
    pub cold: Option<ColdJob>,
}

/// SplitMix64: the request generator's only randomness.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The request list of one pass, a pure function of `(seed, pass)`:
/// 148 popular requests on keep-alive connections (104 plain, 36
/// markdown, 8 streamed), 25 cold jobs (one 5-unit sweep per workload
/// and one 6-trial attack per cell, each at a fresh seed) and 20
/// one-shot requests, shuffled.
pub fn pass_requests(seed: u64, pass: u64) -> Vec<Req> {
    let mut reqs = Vec::new();
    for (p, pop) in POPULAR.iter().enumerate() {
        for (class, n, query) in [
            (Class::Warm, PLAIN_PER_BODY, ""),
            (Class::Md, MD_PER_BODY, "?format=md"),
            (Class::Stream, STREAM_PER_BODY, "?stream=1"),
            (Class::Oneshot, ONESHOT_PER_BODY, ""),
        ] {
            for _ in 0..n {
                reqs.push(Req {
                    class,
                    target: format!("{}{query}", pop.path),
                    body: pop.body.to_owned(),
                    popular: Some(p),
                    cold: None,
                });
            }
        }
    }
    let mut rng = SplitMix64::new(seed ^ pass.wrapping_mul(0xD1B5_4A32_D192_ED03));
    let cold = |attack: bool, filters: [String; 2], rng: &mut SplitMix64| {
        let job = ColdJob {
            attack,
            filters,
            seed: rng.next_u64() >> 1,
        };
        Req {
            class: Class::Cold,
            target: if attack { "/v1/attack" } else { "/v1/sweep" }.to_owned(),
            body: job.body(),
            popular: None,
            cold: Some(job),
        }
    };
    for w in COLD_SWEEP_WORKLOADS {
        let filters = [format!("workload={w}"), "predictor=p1k".to_owned()];
        reqs.push(cold(false, filters, &mut rng));
    }
    for scheme in COLD_ATTACK_SCHEMES {
        for variant in COLD_ATTACK_VARIANTS {
            let filters = [format!("scheme={scheme}"), format!("variant={variant}")];
            reqs.push(cold(true, filters, &mut rng));
        }
    }
    for i in (1..reqs.len()).rev() {
        let j = (rng.next_u64() % (i as u64 + 1)) as usize;
        reqs.swap(i, j);
    }
    reqs
}

/// The bytes each popular request must return.
pub struct Expected {
    pub json: Vec<String>,
    pub md: Vec<String>,
}

pub fn expected() -> Result<Expected, String> {
    let mut out = Expected {
        json: Vec::new(),
        md: Vec::new(),
    };
    for pop in &POPULAR {
        let doc = parse(pop.fixture).map_err(|e| format!("fixture {}: {e}", pop.stem))?;
        out.md.push(render_doc(pop.stem, &doc)?);
        out.json.push(pop.fixture.to_owned());
    }
    Ok(out)
}

/// A running daemon on its own store.
pub struct Daemon {
    pub handle: ServeHandle,
    /// A clone of the daemon's engine: same store, same in-flight table.
    pub engine: Engine,
    dir: PathBuf,
}

impl Daemon {
    pub fn addr(&self) -> SocketAddr {
        self.handle.addr
    }

    pub fn stop(self) {
        self.handle.stop();
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The daemon's set-up: an empty artifact cache, a fresh store, the
/// bind, and one cold pass over the popular bodies. Returns the daemon
/// and the set-up time.
pub fn start_daemon(
    ctx: &Ctx,
    expected: &Expected,
    report: &mut Report,
) -> Result<(Daemon, f64), String> {
    ArtifactCache::global().clear();
    let dir = ctx.fresh_dir("serve-store");
    let t = Instant::now();
    let engine = Engine::with_cache(ctx.threads, CODE_EPOCH, &dir);
    let handle = serve::start("127.0.0.1:0", engine.clone(), DEFAULT_SEED)?;
    let mut conn = Conn::connect(&handle.addr).map_err(|e| format!("connecting: {e}"))?;
    for (p, pop) in POPULAR.iter().enumerate() {
        let resp = exchange(&mut conn, "POST", pop.path, pop.body.as_bytes(), false)
            .map_err(|e| format!("fill {}: {e}", pop.stem))?;
        report.attempted += 1;
        if let Err(e) = check_bytes(&resp, &resp.body, &expected.json[p]) {
            report.fail(1, format!("fill {}: {e}", pop.stem));
        }
    }
    let setup_s = t.elapsed().as_secs_f64();
    Ok((
        Daemon {
            handle,
            engine,
            dir,
        },
        setup_s,
    ))
}

/// Sends one request in a single write, head and body together as curl
/// sends them, and reads the response. (`Conn::send` writes the head
/// and the body separately; on a keep-alive connection the second write
/// then waits for the daemon's delayed ACK, about 40 ms per request, a
/// stall of that client rather than of the daemon under test.)
pub fn exchange(
    conn: &mut Conn,
    method: &str,
    target: &str,
    body: &[u8],
    close: bool,
) -> std::io::Result<ClientResponse> {
    let mut bytes = format!(
        "{method} {target} HTTP/1.1\r\nhost: sia\r\n{}content-length: {}\r\n\r\n",
        if close { "connection: close\r\n" } else { "" },
        body.len()
    )
    .into_bytes();
    bytes.extend_from_slice(body);
    conn.send_raw(&bytes)?;
    conn.read_response()
}

/// A request on a new connection with `connection: close`.
pub fn oneshot(
    addr: &SocketAddr,
    method: &str,
    target: &str,
    body: &[u8],
) -> std::io::Result<ClientResponse> {
    exchange(&mut Conn::connect(addr)?, method, target, body, true)
}

fn check_bytes(resp: &ClientResponse, body: &[u8], want: &str) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text().trim()));
    }
    if body == want.as_bytes() {
        Ok(())
    } else {
        Err(format!(
            "{} bytes differ from the expected {} bytes",
            body.len(),
            want.len()
        ))
    }
}

/// A streamed body without its `progress:` lines.
fn strip_progress(text: &str) -> String {
    text.lines()
        .filter(|l| !l.starts_with("progress: "))
        .map(|l| format!("{l}\n"))
        .collect()
}

/// One completed request.
pub struct Sample {
    pub class: Class,
    pub ms: f64,
    pub error: Option<String>,
    /// `x-sia-units/executed/cached/coalesced` of the response.
    pub units: [u64; 4],
    /// The served document of a cold job, kept for the in-process check.
    pub cold: Option<(ColdJob, String)>,
}

/// A response's `x-sia-units/executed/cached/coalesced` counts (0 when
/// absent, as on GET responses).
pub fn unit_counts(resp: &ClientResponse) -> [u64; 4] {
    [
        "x-sia-units",
        "x-sia-executed",
        "x-sia-cached",
        "x-sia-coalesced",
    ]
    .map(|name| resp.header(name).and_then(|v| v.parse().ok()).unwrap_or(0))
}

/// Sends one request and checks its response. The latency runs from
/// the send to the last body byte; the check happens after it.
fn send_one(
    addr: &SocketAddr,
    conn: &mut Option<Conn>,
    req: &Req,
    expected: &Expected,
    keep_cold: bool,
) -> Sample {
    let t = Instant::now();
    let resp = if req.class == Class::Oneshot {
        oneshot(addr, "POST", &req.target, req.body.as_bytes())
    } else {
        let live = match conn.take() {
            Some(c) => Ok(c),
            None => Conn::connect(addr),
        };
        live.and_then(|mut c| {
            let r = exchange(&mut c, "POST", &req.target, req.body.as_bytes(), false);
            *conn = Some(c);
            r
        })
    };
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let mut sample = Sample {
        class: req.class,
        ms,
        error: None,
        units: [0; 4],
        cold: None,
    };
    let resp = match resp {
        Ok(r) => r,
        Err(e) => {
            *conn = None;
            sample.error = Some(format!("{} {}: {e}", req.class.label(), req.target));
            return sample;
        }
    };
    sample.units = unit_counts(&resp);
    let verdict = match (req.class, req.popular) {
        (Class::Warm | Class::Oneshot, Some(p)) => {
            check_bytes(&resp, &resp.body, &expected.json[p])
        }
        (Class::Md, Some(p)) => check_bytes(&resp, &resp.body, &expected.md[p]),
        (Class::Stream, Some(p)) => {
            let doc = strip_progress(&resp.text());
            check_bytes(&resp, doc.as_bytes(), &expected.json[p])
        }
        _ => check_cold(&resp),
    };
    if let Err(e) = verdict {
        sample.error = Some(format!(
            "{} {} {}: {e}",
            req.class.label(),
            req.target,
            req.body
        ));
    } else if keep_cold {
        if let Some(job) = &req.cold {
            sample.cold = Some((job.clone(), resp.text()));
        }
    }
    sample
}

/// A cold job's document must hold the every-seed invariants.
fn check_cold(resp: &ClientResponse) -> Result<(), String> {
    if resp.status != 200 {
        return Err(format!("status {}: {}", resp.status, resp.text().trim()));
    }
    let doc: Json = parse(&resp.text())?;
    match checks::text(doc.get("kind")) {
        Some("sweep") => checks::sweep_invariants(&doc),
        Some("attack") => checks::attack_invariants(&doc),
        other => Err(format!("unexpected document kind {other:?}")),
    }
}

/// The requests of a timed phase.
pub struct Phase {
    pub samples: Vec<Sample>,
    /// Host seconds of each pass.
    pub pass_walls: Vec<f64>,
}

/// Replays passes `first_pass..` with one closed-loop client per
/// thread until `seconds` have passed and [`MIN_REQUESTS`] requests are
/// done, or exactly `passes` passes when that is set. Clients share
/// each pass's list through a cursor, so they finish a pass within one
/// request of each other and no keep-alive connection idles long.
/// Cold-job documents of the first pass are kept for the in-process
/// check. With a recorder, each request gets a span.
pub fn replay(
    ctx: &Ctx,
    addr: SocketAddr,
    expected: &Expected,
    first_pass: u64,
    passes: Option<u64>,
    rec: Option<&Recorder>,
) -> Phase {
    let clients = ctx.threads.max(1);
    let current: Mutex<Arc<Vec<Req>>> = Mutex::new(Arc::new(Vec::new()));
    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let start_gate = Barrier::new(clients + 1);
    let end_gate = Barrier::new(clients + 1);
    let keep_cold = AtomicBool::new(true);
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let mut pass_walls = Vec::new();
    std::thread::scope(|s| {
        for _ in 0..clients {
            s.spawn(|| {
                let mut conn = Conn::connect(&addr).ok();
                loop {
                    start_gate.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let reqs = Arc::clone(&current.lock().expect("pass list poisoned"));
                    let keep = keep_cold.load(Ordering::SeqCst);
                    let mut local = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::SeqCst);
                        let Some(req) = reqs.get(i) else { break };
                        let mut send = || send_one(&addr, &mut conn, req, expected, keep);
                        local.push(match rec {
                            Some(rec) => rec.time(
                                &format!("serve.request.{}", req.class.label()),
                                None,
                                i as u64,
                                |_| send(),
                            ),
                            None => send(),
                        });
                    }
                    samples.lock().expect("sample list poisoned").extend(local);
                    end_gate.wait();
                }
            });
        }
        let started = Instant::now();
        let mut pass = first_pass;
        loop {
            *current.lock().expect("pass list poisoned") = Arc::new(pass_requests(ctx.seed, pass));
            cursor.store(0, Ordering::SeqCst);
            keep_cold.store(pass == first_pass, Ordering::SeqCst);
            let t = Instant::now();
            start_gate.wait();
            end_gate.wait();
            pass_walls.push(t.elapsed().as_secs_f64());
            pass += 1;
            let done = pass - first_pass;
            let enough = match passes {
                Some(n) => done >= n,
                None => {
                    started.elapsed().as_secs_f64() >= ctx.seconds
                        && samples.lock().expect("sample list poisoned").len() >= MIN_REQUESTS
                }
            };
            if enough {
                break;
            }
        }
        stop.store(true, Ordering::SeqCst);
        start_gate.wait();
    });
    Phase {
        samples: samples.into_inner().expect("sample list poisoned"),
        pass_walls,
    }
}

/// Counts failures and checks the kept cold documents against the same
/// jobs run in-process.
pub fn verify(ctx: &Ctx, phase: &Phase, report: &mut Report) {
    for sample in &phase.samples {
        report.attempted += 1;
        if let Some(e) = &sample.error {
            report.fail(1, e.clone());
        }
    }
    for (job, served) in phase.samples.iter().filter_map(|s| s.cold.as_ref()) {
        match job.run_in_process(ctx.threads) {
            Ok(doc) if &doc == served => {}
            Ok(doc) => report.fail(
                1,
                format!(
                    "cold {}: served {} bytes != in-process {} bytes",
                    job.body(),
                    served.len(),
                    doc.len()
                ),
            ),
            Err(e) => report.fail(
                1,
                format!("cold {}: in-process run failed: {e}", job.body()),
            ),
        }
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let expected = expected()?;
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut daemon: Option<Daemon> = None;
    for _ in 0..SETUP_REPS {
        if let Some(d) = daemon.take() {
            d.stop();
        }
        let (d, setup_s) = start_daemon(ctx, &expected, &mut report)?;
        setups.push(setup_s);
        daemon = Some(d);
    }
    let daemon = daemon.expect("at least one set-up");
    let phase = replay(ctx, daemon.addr(), &expected, 0, None, None);
    daemon.stop();
    verify(ctx, &phase, &mut report);

    let ok: Vec<&Sample> = phase.samples.iter().filter(|s| s.error.is_none()).collect();
    let ms: Vec<f64> = ok.iter().map(|s| s.ms).collect();
    let busy_s: f64 = phase.pass_walls.iter().sum();
    let n = ms.len();
    report.metric(
        "wall_s",
        stats::median(&phase.pass_walls).ok_or("no passes")?,
        "s",
        phase.pass_walls.len(),
    );
    report.metric(
        "setup_s",
        stats::median(&setups).ok_or("no set-up")?,
        "s",
        setups.len(),
    );
    report.metric("peak_rss_mb", peak_rss_mb()?, "MiB", 1);
    report.metric(
        "req_p50_ms",
        stats::median(&ms).ok_or("no requests")?,
        "ms",
        n,
    );
    report.metric(
        "req_p99_ms",
        stats::percentile(&ms, 990).ok_or("no requests")?,
        "ms",
        n,
    );
    report.metric("req_per_s", n as f64 / busy_s, "req/s", n);
    for class in Class::ALL {
        let v: Vec<f64> = ok
            .iter()
            .filter(|s| s.class == class)
            .map(|s| s.ms)
            .collect();
        if let (Some(p50), Some((pct, tail))) = (stats::median(&v), stats::tail(&v)) {
            report.notes.push(format!(
                "class {:<8} n={:<6} p50 {p50:.3} ms  p{pct} {tail:.3} ms",
                class.label(),
                v.len()
            ));
        }
    }
    let mut units = [0u64; 4];
    for s in &phase.samples {
        for (k, u) in s.units.iter().enumerate() {
            units[k] += u;
        }
    }
    report.notes.push(format!(
        "passes {}; requests {n}; units {} executed {} cached {} coalesced {}",
        phase.pass_walls.len(),
        units[0],
        units[1],
        units[2],
        units[3]
    ));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_seed_always_generates_the_same_request_list() {
        assert_eq!(pass_requests(7, 0), pass_requests(7, 0));
        assert_eq!(pass_requests(7, 3), pass_requests(7, 3));
        assert_ne!(pass_requests(7, 0), pass_requests(8, 0));
        assert_ne!(pass_requests(7, 0), pass_requests(7, 1));
    }

    #[test]
    fn the_mix_has_its_documented_shares() {
        let reqs = pass_requests(1, 0);
        let count = |c: Class| reqs.iter().filter(|r| r.class == c).count();
        assert_eq!(reqs.len(), 193);
        assert_eq!(count(Class::Warm), 104);
        assert_eq!(count(Class::Md), 36);
        assert_eq!(count(Class::Stream), 8);
        assert_eq!(count(Class::Cold), 25);
        assert_eq!(count(Class::Oneshot), 20);
        // Cold jobs carry fresh seeds in their bodies.
        let seeds: std::collections::BTreeSet<u64> = reqs
            .iter()
            .filter_map(|r| r.cold.as_ref().map(|c| c.seed))
            .collect();
        assert_eq!(seeds.len(), 25);
        for r in &reqs {
            parse(&r.body).expect("generated bodies are JSON");
        }
    }
}
