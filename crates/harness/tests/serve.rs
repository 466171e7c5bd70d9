//! Service-grade guarantees of `sia serve`, asserted in-process:
//!
//! * **Differential**: documents served over HTTP are byte-identical to
//!   the offline verbs' output — cold store, warm store, and streamed —
//!   paper experiments included.
//! * **Exactly-once**: N clients posting the same grid simultaneously
//!   execute each unique unit once across the whole daemon; every
//!   response is byte-identical.
//! * **Protocol**: malformed requests get 400/404/405 (never a panic or
//!   a dropped connection), keep-alive serves many requests per
//!   connection, and a client hanging up mid-stream does not take the
//!   daemon down.

use std::sync::atomic::Ordering;

use si_harness::attack::{run_attack_grid, AttackGrid};
use si_harness::json::{parse, Json};
use si_harness::render::render_doc;
use si_harness::scan::{run_scan, ScanJob};
use si_harness::serve::{start, ServeHandle};
use si_harness::sweep::{run_sweep, GridSpec};
use si_harness::{find, run_experiment, Engine, RunConfig, CODE_EPOCH};
use si_http::client::{request, ClientResponse, Conn};

/// Starts a daemon on an ephemeral port over a fresh store directory.
fn daemon(tag: &str) -> (ServeHandle, std::path::PathBuf) {
    let dir = std::env::temp_dir().join(format!("sia-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = Engine::with_cache(2, CODE_EPOCH, &dir);
    let handle = start("127.0.0.1:0", engine, RunConfig::default().seed).expect("daemon starts");
    (handle, dir)
}

/// The shrunk quick sweep body used throughout (5 units — one workload
/// row of the quick defense grid).
const SWEEP_BODY: &str = r#"{"quick": true, "filters": ["workload=ptr-chase", "predictor=p1k"]}"#;

/// The offline document the sweep body must reproduce byte-for-byte.
fn offline_sweep() -> String {
    let mut grid = GridSpec::named("defense").expect("grid");
    grid.quick();
    grid.apply_filter("workload=ptr-chase").expect("filter");
    grid.apply_filter("predictor=p1k").expect("filter");
    let (doc, _) = run_sweep(&grid, RunConfig::default().seed, &Engine::new(2)).expect("runs");
    doc.to_pretty()
}

fn header_num(resp: &ClientResponse, name: &str) -> usize {
    resp.header(name)
        .unwrap_or_else(|| panic!("{name} header missing"))
        .parse()
        .expect("numeric header")
}

#[test]
fn served_documents_match_offline_output_cold_and_warm() {
    let (handle, dir) = daemon("differential");

    // Sweep: cold then warm, against the offline bytes.
    let expected = offline_sweep();
    let cold = request(
        &handle.addr,
        "POST",
        "/v1/sweep",
        &[],
        SWEEP_BODY.as_bytes(),
    )
    .expect("cold sweep");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.text(), expected, "cold served sweep != offline");
    assert_eq!(
        header_num(&cold, "x-sia-executed"),
        header_num(&cold, "x-sia-units")
    );
    let warm = request(
        &handle.addr,
        "POST",
        "/v1/sweep",
        &[],
        SWEEP_BODY.as_bytes(),
    )
    .expect("warm sweep");
    assert_eq!(warm.text(), expected, "warm served sweep != offline");
    assert_eq!(
        header_num(&warm, "x-sia-executed"),
        0,
        "warm pass re-ran units"
    );
    assert_eq!(
        header_num(&warm, "x-sia-cached"),
        header_num(&warm, "x-sia-units")
    );

    // Attack: shrunk quick grid.
    let attack_body =
        r#"{"quick": true, "filters": ["scheme=invisispec,fence-futuristic"], "trials": 3}"#;
    let expected_attack = {
        let mut grid = AttackGrid::named("headline").expect("grid");
        grid.quick();
        grid.apply_filter("scheme=invisispec,fence-futuristic")
            .expect("filter");
        grid.trials = 3;
        let (doc, _) =
            run_attack_grid(&grid, RunConfig::default().seed, &Engine::new(2)).expect("runs");
        doc.to_pretty()
    };
    let served = request(
        &handle.addr,
        "POST",
        "/v1/attack",
        &[],
        attack_body.as_bytes(),
    )
    .expect("attack");
    assert_eq!(served.text(), expected_attack, "served attack != offline");
    let warm = request(
        &handle.addr,
        "POST",
        "/v1/attack",
        &[],
        attack_body.as_bytes(),
    )
    .expect("warm attack");
    assert_eq!(header_num(&warm, "x-sia-executed"), 0);

    // Scan: quick corpus with shrunk confirm trials.
    let scan_body = r#"{"quick": true, "trials": 2}"#;
    let expected_scan = {
        let mut job = ScanJob::standard();
        job.quick();
        job.trials = 2;
        let (doc, _) = run_scan(&job, RunConfig::default().seed, &Engine::new(2)).expect("runs");
        doc.to_pretty()
    };
    let served =
        request(&handle.addr, "POST", "/v1/scan", &[], scan_body.as_bytes()).expect("scan");
    assert_eq!(served.text(), expected_scan, "served scan != offline");
    let warm =
        request(&handle.addr, "POST", "/v1/scan", &[], scan_body.as_bytes()).expect("warm scan");
    assert_eq!(header_num(&warm, "x-sia-executed"), 0);

    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `POST /v1/run` serves the offline experiment document byte for byte;
/// a second identical POST is a store hit, and `?format=md` renders the
/// section `sia report` renders for the experiment's result file.
#[test]
fn served_run_matches_the_offline_experiment() {
    let (handle, dir) = daemon("run");
    let body = br#"{"experiment": "fig09", "trials": 4}"#;
    let offline = {
        let exp = find("fig09").expect("registered");
        let cfg = RunConfig {
            trials: Some(4),
            ..RunConfig::default()
        };
        run_experiment(exp.as_ref(), &cfg).expect("runs")
    };
    let cold = request(&handle.addr, "POST", "/v1/run", &[], body).expect("cold run");
    assert_eq!(cold.status, 200);
    assert_eq!(cold.text(), offline.to_pretty(), "served run != offline");
    assert_eq!(header_num(&cold, "x-sia-executed"), 1);
    let warm = request(&handle.addr, "POST", "/v1/run", &[], body).expect("warm run");
    assert_eq!(
        warm.text(),
        offline.to_pretty(),
        "warm served run != offline"
    );
    assert_eq!(header_num(&warm, "x-sia-executed"), 0, "warm pass re-ran");
    let md = request(&handle.addr, "POST", "/v1/run?format=md", &[], body).expect("md");
    assert_eq!(md.text(), render_doc("fig09", &offline).expect("renders"));
    let missing = request(&handle.addr, "POST", "/v1/run", &[], br#"{"trials": 4}"#).expect("400");
    assert_eq!(missing.status, 400, "a run body names its experiment");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// `GET /v1/store/stats` reports the in-process artifact cache's
/// per-namespace entry/hit/miss counters alongside the unit-store
/// totals. After a trace sweep the trace-replay namespaces must be
/// present and populated.
#[test]
fn store_stats_report_artifact_cache_namespaces() {
    let (handle, dir) = daemon("artifact-stats");
    let body = r#"{"grid": "trace", "filters": ["scheme=dom"], "trials": 1}"#;
    let resp = request(&handle.addr, "POST", "/v1/sweep", &[], body.as_bytes()).expect("sweep");
    assert_eq!(resp.status, 200);
    let stats = request(&handle.addr, "GET", "/v1/store/stats", &[], b"").expect("stats");
    assert_eq!(stats.status, 200);
    let doc = parse(&stats.text()).expect("stats parse");
    let cache = doc
        .get("artifact_cache")
        .expect("artifact_cache field present");
    let Json::Arr(namespaces) = cache else {
        panic!("artifact_cache is not an array");
    };
    let find = |name: &str| {
        namespaces
            .iter()
            .find(|ns| matches!(ns.get("namespace"), Some(Json::Str(s)) if s == name))
            .unwrap_or_else(|| panic!("namespace '{name}' missing from store stats"))
    };
    for name in ["plan", "trace"] {
        let ns = find(name);
        let entries = match ns.get("entries") {
            Some(Json::U64(n)) => *n,
            Some(Json::I64(n)) => *n as u64,
            other => panic!("entries not numeric: {other:?}"),
        };
        assert!(entries > 0, "namespace '{name}' has no entries");
    }
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn streamed_responses_carry_progress_and_the_identical_document() {
    let (handle, dir) = daemon("stream");
    let expected = offline_sweep();
    let resp = request(
        &handle.addr,
        "POST",
        "/v1/sweep?stream=1",
        &[],
        SWEEP_BODY.as_bytes(),
    )
    .expect("streamed sweep");
    assert_eq!(resp.status, 200);
    assert_eq!(
        resp.header("transfer-encoding"),
        Some("chunked"),
        "streaming must be chunked"
    );
    let text = resp.text();
    let progress: Vec<&str> = text
        .lines()
        .filter(|l| l.starts_with("progress: "))
        .collect();
    assert!(!progress.is_empty(), "no progress lines in stream");
    assert!(
        progress.last().expect("nonempty").ends_with("/5"),
        "progress denominators report the unit count: {progress:?}"
    );
    let document: String = text
        .lines()
        .filter(|l| !l.starts_with("progress: "))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(document, expected, "streamed document != offline bytes");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// N clients POST the identical grid at once; the daemon must execute
/// each unique unit exactly once (the rest served from the store or
/// coalesced onto the in-flight execution) and give everyone identical
/// bytes.
#[test]
fn concurrent_identical_grids_execute_each_unit_exactly_once() {
    let (handle, dir) = daemon("dedup");
    let clients = 4;
    let responses: Vec<ClientResponse> = std::thread::scope(|scope| {
        let addr = handle.addr;
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(move || {
                    request(&addr, "POST", "/v1/sweep", &[], SWEEP_BODY.as_bytes())
                        .expect("concurrent sweep")
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client"))
            .collect()
    });
    let units = header_num(&responses[0], "x-sia-units");
    let mut executed_total = 0;
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body, responses[0].body, "responses must be identical");
        assert_eq!(header_num(resp, "x-sia-units"), units);
        let (executed, cached, coalesced) = (
            header_num(resp, "x-sia-executed"),
            header_num(resp, "x-sia-cached"),
            header_num(resp, "x-sia-coalesced"),
        );
        assert_eq!(executed + cached + coalesced, units);
        executed_total += executed;
    }
    assert_eq!(
        executed_total, units,
        "each unique unit must execute exactly once across all {clients} clients"
    );
    assert_eq!(responses[0].text(), offline_sweep(), "and match offline");
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn protocol_errors_are_status_codes_never_panics() {
    let (handle, dir) = daemon("protocol");
    let addr = handle.addr;

    // Unknown path: 404.
    assert_eq!(
        request(&addr, "GET", "/nope", &[], b"")
            .expect("404")
            .status,
        404
    );
    // Wrong method on a known path: 405 with Allow.
    let resp = request(&addr, "GET", "/v1/sweep", &[], b"").expect("405");
    assert_eq!((resp.status, resp.header("allow")), (405, Some("POST")));
    let resp = request(&addr, "POST", "/healthz", &[], b"").expect("405");
    assert_eq!((resp.status, resp.header("allow")), (405, Some("GET")));
    // Bad bodies: invalid JSON, non-object, unknown key, unknown grid,
    // unknown filter axis — all 400 with a JSON error.
    for body in [
        "{not json",
        "[1, 2]",
        r#"{"trails": 3}"#,
        r#"{"grid": "nope"}"#,
        r#"{"filters": ["planet=mars"]}"#,
        r#"{"seed": "0xzz"}"#,
    ] {
        let resp = request(&addr, "POST", "/v1/sweep", &[], body.as_bytes())
            .unwrap_or_else(|e| panic!("{body:?}: {e}"));
        assert_eq!(resp.status, 400, "{body:?} must 400, got {}", resp.status);
        assert!(resp.text().contains("error"), "{body:?}: {}", resp.text());
    }
    // Unknown query format: 400.
    let resp = request(&addr, "POST", "/v1/sweep?format=xml", &[], b"{}").expect("format");
    assert_eq!(resp.status, 400);
    // A malformed request line: 400 from the HTTP layer itself.
    let mut conn = Conn::connect(&addr).expect("connect");
    conn.send_raw(b"BROKEN\r\n\r\n").expect("send");
    assert_eq!(conn.read_response().expect("400").status, 400);
    // The daemon is still healthy.
    assert_eq!(
        request(&addr, "GET", "/healthz", &[], b"")
            .expect("alive")
            .status,
        200
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A fresh connection is accepted at once, not at the next tick of an
/// accept poll: 20 one-shot `GET /healthz` requests, each on its own
/// connection, take well under the ~400 ms a 20 ms poll costs them.
#[test]
fn fresh_connections_are_accepted_without_a_poll_delay() {
    let (handle, dir) = daemon("accept");
    // Warm the handler path once so the timed loop measures accepts.
    assert_eq!(
        request(&handle.addr, "GET", "/healthz", &[], b"")
            .expect("warm")
            .status,
        200
    );
    let start = std::time::Instant::now();
    for i in 0..20 {
        let resp = request(&handle.addr, "GET", "/healthz", &[], b"").expect("healthz");
        assert_eq!(resp.status, 200, "request {i}");
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed < std::time::Duration::from_millis(100),
        "20 fresh connections took {elapsed:?}"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A 400 KB body of 200k `[` then 200k `]` — under the 4 MiB body cap —
/// used to recurse the JSON parser off its connection thread's stack
/// and abort the daemon. It is a 400 now, and the daemon stays up.
#[test]
fn deeply_nested_body_is_a_400_and_the_daemon_stays_up() {
    let (handle, dir) = daemon("nesting");
    let body = format!("{}{}", "[".repeat(200_000), "]".repeat(200_000));
    let resp = request(&handle.addr, "POST", "/v1/sweep", &[], body.as_bytes()).expect("400");
    assert_eq!(resp.status, 400, "{}", resp.text());
    assert!(resp.text().contains("nesting"), "{}", resp.text());
    let health = request(&handle.addr, "GET", "/healthz", &[], b"").expect("alive");
    assert_eq!(health.status, 200);
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn keep_alive_and_mid_stream_disconnect_are_survivable() {
    let (handle, dir) = daemon("keepalive");
    let addr = handle.addr;

    // One connection, several requests.
    let mut conn = Conn::connect(&addr).expect("connect");
    for _ in 0..3 {
        let resp = conn
            .send("GET", "/healthz", &[], b"")
            .expect("keep-alive request");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.header("connection"), Some("keep-alive"));
    }
    // Start a streamed grid and hang up after the response head: the
    // job keeps running server-side and its units land in the store.
    {
        let mut conn = Conn::connect(&addr).expect("connect");
        conn.send_head("POST", "/v1/sweep?stream=1", &[], SWEEP_BODY.as_bytes())
            .expect("send");
        let (status, _) = conn.read_streaming_head().expect("head");
        assert_eq!(status, 200);
        // Drop the connection mid-stream.
    }
    // The daemon survives and the abandoned job's units warm the store:
    // poll until the warm response reports zero executions (the
    // abandoned job may still be running).
    let mut warm_executed = usize::MAX;
    for _ in 0..100 {
        let resp = request(&addr, "POST", "/v1/sweep", &[], SWEEP_BODY.as_bytes())
            .expect("post-disconnect sweep");
        assert_eq!(resp.status, 200);
        warm_executed = header_num(&resp, "x-sia-executed");
        if warm_executed == 0 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert_eq!(
        warm_executed, 0,
        "abandoned stream's units never landed in the store"
    );
    handle.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_flag_drains_and_joins() {
    let (handle, dir) = daemon("shutdown");
    assert_eq!(
        request(&handle.addr, "GET", "/healthz", &[], b"")
            .expect("alive")
            .status,
        200
    );
    handle.shutdown.store(true, Ordering::SeqCst);
    handle.join(); // Must return (bounded drain), not hang.
    let _ = std::fs::remove_dir_all(&dir);
}
