//! `sia serve` — the long-running job daemon.
//!
//! The daemon binds an [`si_http::Server`], opens the packed unit store
//! **once**, and compiles every POSTed job onto the same [`Engine`] unit
//! stream the offline verbs use — a body is parsed by
//! [`JobSpec::from_json`], the twin of the CLI's [`JobSpec::from_argv`]
//! over one key table — so a served document is byte-identical to
//! `sia run/sweep/attack/scan --no-wall-time` output by construction, and
//! every request after the first warms the shared store. Concurrent
//! clients posting overlapping grids deduplicate through the engine's
//! in-flight table: each unique unit executes exactly once; later
//! claimants await the running execution instead of re-running it (the
//! response's `x-sia-coalesced` header counts those).
//!
//! ## Endpoints
//!
//! `GET /` serves the endpoint table (`ENDPOINTS` below): `GET /healthz`,
//! `GET /v1/store/stats`, and `POST /v1/run|sweep|attack|scan`, whose body
//! is a JSON object of the verb's job keys (see [`crate::job`]); a run body
//! names one experiment.
//!
//! Job POSTs accept two query parameters: `?format=md` renders the
//! document through the same markdown renderer as `sia report` (the
//! response is that file's report section), and `?stream=1` switches to
//! chunked transfer — `progress: <done>/<total>` lines as units resolve,
//! then the complete document as the final chunk (strip the
//! progress-prefixed lines to recover the exact offline bytes).
//!
//! Unknown body keys, unknown grids or experiments, bad values, and
//! bodies nested past [`crate::json::MAX_DEPTH`] are 400s with a JSON
//! error body; unknown paths are 404; wrong methods are 405 with an
//! `Allow` header. The daemon never panics on client input.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};

use si_http::{Request, Responder, Server};

use crate::job::{JobSpec, Verb};
use crate::json::{obj, parse, Json, SCHEMA_VERSION};
use crate::render::render_doc;
use crate::{Engine, ExecStats};

/// The endpoint table served on `GET /`.
const ENDPOINTS: &str = "\
sia serve — speculative-interference job daemon

ENDPOINTS:
  GET  /healthz          liveness probe
  GET  /v1/store/stats   packed unit-store statistics (JSON)
  POST /v1/run           {\"experiment\",\"trials\",\"scheme\",\"seed\"}
  POST /v1/sweep         {\"grid\",\"quick\",\"filters\",\"scale\",\"trials\",\"seed\"}
  POST /v1/attack        {\"grid\",\"quick\",\"filters\",\"trials\",\"no_checkpoint\",\"seed\"}
  POST /v1/scan          {\"quick\",\"trials\",\"horizon\",\"seed\"}

Job POSTs: ?format=md renders markdown; ?stream=1 streams
'progress: <done>/<total>' lines (chunked) before the document.
Responses are byte-identical to the offline verbs' --no-wall-time output.
";

/// Everything a request handler needs, shared across connections.
struct ServeState {
    /// The daemon's base engine: cloned per request, so every request
    /// shares one store and one in-flight dedup table.
    engine: Engine,
    /// Seed used when a request body does not carry one (the CLI
    /// default, so bodiless POSTs match bare offline invocations).
    default_seed: u64,
}

/// A running daemon: the bound address, the shutdown flag (set it from a
/// signal handler or a test), and the serve-loop thread to join.
pub struct ServeHandle {
    /// The bound address (with the resolved port when binding to `:0`).
    pub addr: SocketAddr,
    /// Set to stop accepting and drain live connections.
    pub shutdown: Arc<AtomicBool>,
    engine: Engine,
    thread: std::thread::JoinHandle<()>,
}

impl ServeHandle {
    /// Blocks until the serve loop exits (the shutdown flag was set),
    /// then flushes the store so no executed unit is lost.
    pub fn join(self) {
        let _ = self.thread.join();
        if let Some(store) = self.engine.store() {
            let _ = store.flush();
        }
    }

    /// Sets the shutdown flag and joins — the one-call teardown tests
    /// use.
    pub fn stop(self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.join();
    }
}

/// Binds `addr` and starts serving on a background thread. The engine
/// should be store-backed (`Engine::with_cache`) — that is the daemon's
/// whole point — but a storeless engine serves correctly too (every
/// request executes everything).
pub fn start(addr: &str, engine: Engine, default_seed: u64) -> Result<ServeHandle, String> {
    let server = Server::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
    let bound = server.local_addr();
    let shutdown = server.shutdown_flag();
    let state = Arc::new(ServeState {
        engine: engine.clone(),
        default_seed,
    });
    let thread = std::thread::spawn(move || {
        server.serve(move |req, resp| handle(&state, req, resp));
    });
    Ok(ServeHandle {
        addr: bound,
        shutdown,
        engine,
        thread,
    })
}

/// Routes one request.
fn handle(state: &ServeState, req: &Request, resp: &mut Responder) {
    let method = req.method.as_str();
    match req.path.as_str() {
        "/healthz" => match method {
            "GET" => resp.respond(200, "text/plain", b"ok\n"),
            _ => method_not_allowed(resp, "GET"),
        },
        "/" => match method {
            "GET" => resp.respond(200, "text/plain", ENDPOINTS.as_bytes()),
            _ => method_not_allowed(resp, "GET"),
        },
        "/v1/store/stats" => match method {
            "GET" => store_stats(state, resp),
            _ => method_not_allowed(resp, "GET"),
        },
        path => match path.strip_prefix("/v1/").and_then(Verb::parse) {
            Some(verb) => match method {
                "POST" => job_endpoint(state, verb, req, resp),
                _ => method_not_allowed(resp, "POST"),
            },
            None => resp.respond(
                404,
                "application/json",
                error_body("no such endpoint (GET / lists them)").as_bytes(),
            ),
        },
    }
}

fn method_not_allowed(resp: &mut Responder, allow: &str) {
    resp.respond_with(
        405,
        "application/json",
        &[("allow", allow)],
        error_body(&format!("method not allowed (use {allow})")).as_bytes(),
    );
}

/// A one-field JSON error document.
fn error_body(message: &str) -> String {
    obj([("error", Json::from(message))]).to_pretty()
}

/// `GET /v1/store/stats`.
fn store_stats(state: &ServeState, resp: &mut Responder) {
    let stats = state
        .engine
        .store()
        .map(|s| s.stats(crate::CODE_EPOCH))
        .unwrap_or_default();
    // In-process artifact cache (decoded traces, replay plans, interval
    // outcomes), one entry per namespace in deterministic order.
    let artifact = si_engine::ArtifactCache::global()
        .stats()
        .into_iter()
        .map(|ns| {
            obj([
                ("namespace", Json::from(ns.namespace)),
                ("entries", Json::from(ns.entries as u64)),
                ("hits", Json::from(ns.hits)),
                ("misses", Json::from(ns.misses)),
            ])
        })
        .collect();
    let doc = obj([
        ("schema_version", Json::from(SCHEMA_VERSION)),
        ("doc", Json::from("store-stats")),
        ("live_entries", Json::from(stats.live_entries)),
        ("live_bytes", Json::from(stats.live_bytes)),
        ("orphaned_entries", Json::from(stats.orphaned_entries)),
        ("orphaned_bytes", Json::from(stats.orphaned_bytes)),
        ("artifact_cache", Json::Arr(artifact)),
    ]);
    resp.respond(200, "application/json", doc.to_pretty().as_bytes());
}

/// `POST /v1/{run,sweep,attack,scan}`.
fn job_endpoint(state: &ServeState, verb: Verb, req: &Request, resp: &mut Responder) {
    let job = match JobSpec::from_json(verb, &req.body, state.default_seed) {
        Ok(job) => job,
        Err(e) => {
            resp.respond(400, "application/json", error_body(&e).as_bytes());
            return;
        }
    };
    let markdown = match req.query_get("format") {
        None | Some("json") => false,
        Some("md") => true,
        Some(other) => {
            let e = format!("unknown format '{other}' (json or md)");
            resp.respond(400, "application/json", error_body(&e).as_bytes());
            return;
        }
    };
    let content_type = if markdown {
        "text/markdown"
    } else {
        "application/json"
    };
    if req.query_flag("stream") {
        return stream_job(state, job, markdown, content_type, resp);
    }
    match run_rendered(&job, &state.engine, markdown) {
        Ok((text, stats)) => {
            let headers = sia_headers(&stats);
            let header_refs: Vec<(&str, &str)> =
                headers.iter().map(|(n, v)| (*n, v.as_str())).collect();
            resp.respond_with(200, content_type, &header_refs, text.as_bytes());
        }
        Err(e) => resp.respond(400, "application/json", error_body(&e).as_bytes()),
    }
}

/// Runs a job and renders it (pretty JSON, or the report markdown).
fn run_rendered(
    job: &JobSpec,
    engine: &Engine,
    markdown: bool,
) -> Result<(String, ExecStats), String> {
    let (doc, stats) = job.run(engine)?;
    let text = if markdown {
        render_doc(&job.stem(), &doc)?
    } else {
        doc.to_pretty()
    };
    if !markdown {
        // Same self-check as the offline emit path: a malformed document
        // is a harness bug and must fail the request, not poison the
        // client.
        parse(&text).map_err(|e| format!("emitted malformed JSON: {e}"))?;
    }
    Ok((text, stats))
}

/// The engine-split response headers.
fn sia_headers(stats: &ExecStats) -> Vec<(&'static str, String)> {
    vec![
        ("x-sia-units", stats.total.to_string()),
        ("x-sia-executed", stats.executed.to_string()),
        ("x-sia-cached", stats.cached.to_string()),
        ("x-sia-coalesced", stats.coalesced.to_string()),
    ]
}

/// `?stream=1`: chunked progress lines, then the document. The job runs
/// on its own thread with a progress callback feeding a channel; this
/// (connection) thread drains the channel into chunks. A client that
/// disconnects mid-stream just stops receiving — the job runs to
/// completion so its units still land in the shared store.
fn stream_job(
    state: &ServeState,
    job: JobSpec,
    markdown: bool,
    content_type: &str,
    resp: &mut Responder,
) {
    let Some(mut body) = resp.begin_chunked(200, content_type, &[]) else {
        return; // Client vanished before the head was written.
    };
    let (tx, rx) = mpsc::channel::<(usize, usize)>();
    let tx = Mutex::new(tx);
    let engine = state
        .engine
        .clone()
        .with_progress(Arc::new(move |done, total| {
            if let Ok(tx) = tx.lock() {
                let _ = tx.send((done, total));
            }
        }));
    let worker = std::thread::spawn(move || {
        let rendered = run_rendered(&job, &engine, markdown);
        drop(engine); // Close the channel so the drain loop ends.
        rendered
    });
    for (done, total) in rx {
        body.write_chunk(format!("progress: {done}/{total}\n").as_bytes());
    }
    let outcome = worker
        .join()
        .unwrap_or_else(|_| Err("job thread panicked".to_owned()));
    match outcome {
        Ok((text, _stats)) => body.write_chunk(text.as_bytes()),
        Err(e) => body.write_chunk(format!("error: {e}\n").as_bytes()),
    }
    body.finish();
}
