//! # `si-engine` — the content-addressed execution engine
//!
//! Every `sia` verb (`run`, `sweep`, `attack`, `bench`) is, underneath,
//! the same shape of work: a grid flattened into independent **units**,
//! each a pure function of its seeded spec. This crate owns that shape:
//!
//! * [`unit::UnitSpec`] — the stable, hashable description of one unit
//!   (kind, cell axes, trial index, mixed seed, sim-config digest);
//! * [`scheduler`] — a chunked work-stealing executor with preallocated
//!   per-index result slots, so output ordering is structural and
//!   1-thread vs N-thread runs are byte-identical by construction;
//! * [`PackStore`] — an on-disk content-addressed store keyed by
//!   `hash(canonical(UnitSpec), code_epoch)`, letting a re-run execute
//!   only the units whose spec changed and splice cached outcomes
//!   in-place.
//!
//! [`Engine::run_units`] ties the three together and reports
//! [`ExecStats`] — how many units actually executed versus were served
//! from cache — which the harness surfaces per run and CI asserts on
//! (a warm re-run of an unchanged grid must execute **zero** units).
//!
//! ## The `code_epoch` invalidation rule
//!
//! Cached outcomes are only valid while the *code* that produced them
//! still computes the same function. The engine cannot see code, so the
//! caller passes a `code_epoch` that is folded into every cache address
//! (printed in hex in each canonical line): any change to simulation
//! semantics must change the caller's epoch, which orphans (not
//! corrupts) every older entry. The harness derives its epoch at build
//! time from a digest of the workspace crates' sources, and per-unit
//! machine-config digests invalidate config-shape changes on top of it.

pub mod artifact;
pub mod digest;
pub mod scheduler;
pub mod store;
pub mod unit;

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

pub use artifact::{ArtifactCache, ArtifactStats};
pub use store::{CacheStats, PackStore};
pub use unit::UnitSpec;

/// How a batch of units was satisfied.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Units in the batch.
    pub total: usize,
    /// Units whose executor actually ran.
    pub executed: usize,
    /// Units spliced from the cache.
    pub cached: usize,
    /// Units awaited from a concurrent in-flight execution (another
    /// thread — possibly serving another request — was already running
    /// the identical unit; this one waited and decoded its payload
    /// instead of re-running).
    pub coalesced: usize,
}

/// One in-flight unit: executors publish the encoded payload (or `None`
/// when the outcome is uncacheable) and wake every waiter.
#[derive(Default)]
struct InflightSlot {
    /// `None` = still running; `Some(result)` = published.
    result: Mutex<Option<Option<String>>>,
    done: Condvar,
}

/// The cross-request in-flight table: unit address → slot. Shared by
/// every clone of an engine, so concurrent batches (daemon requests)
/// posting overlapping grids execute each unique unit exactly once.
type InflightTable = Arc<Mutex<HashMap<String, Arc<InflightSlot>>>>;

/// A progress callback: `(done, total)` after each unit of a batch
/// resolves (by execution, cache hit, or coalesce).
pub type ProgressFn = Arc<dyn Fn(usize, usize) + Send + Sync>;

/// The execution engine a verb hands its unit stream to.
#[derive(Clone)]
pub struct Engine {
    threads: usize,
    code_epoch: u64,
    store: Option<PackStore>,
    inflight: InflightTable,
    progress: Option<ProgressFn>,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("threads", &self.threads)
            .field("code_epoch", &self.code_epoch)
            .field("store", &self.store)
            .field("progress", &self.progress.is_some())
            .finish()
    }
}

impl Engine {
    /// An engine that always executes (no cache).
    pub fn new(threads: usize) -> Engine {
        Engine {
            threads,
            code_epoch: 0,
            store: None,
            inflight: InflightTable::default(),
            progress: None,
        }
    }

    /// An engine backed by the packed on-disk unit store under `dir`,
    /// keyed under `code_epoch` (see the crate docs for the invalidation
    /// rule). Opening reads every pack segment once, so lookups during
    /// runs are pure in-memory.
    pub fn with_cache(
        threads: usize,
        code_epoch: u64,
        dir: impl Into<std::path::PathBuf>,
    ) -> Engine {
        Engine {
            threads,
            code_epoch,
            store: Some(PackStore::open(dir)),
            inflight: InflightTable::default(),
            progress: None,
        }
    }

    /// This engine with a progress callback, invoked `(done, total)` as
    /// each unit of a batch resolves. Clones made *from the result*
    /// share the callback; the daemon clones its base engine per request
    /// instead, so each request observes only its own batch (while still
    /// sharing the store and in-flight table).
    pub fn with_progress(mut self, progress: ProgressFn) -> Engine {
        self.progress = Some(progress);
        self
    }

    /// The worker threads a batch fans out over — also what a unit that
    /// parallelizes internally (a whole paper experiment) is handed.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The packed store this engine splices from, if any.
    pub fn store(&self) -> Option<&PackStore> {
        self.store.as_ref()
    }

    /// Executes one batch of units, returning outcomes in unit order
    /// plus the executed/cached/coalesced split.
    ///
    /// `exec(i)` computes unit `i`'s outcome; it is called only for
    /// units the store cannot serve, from whichever worker thread claims
    /// the unit (store probes run on the workers too, so a warm splice
    /// parallelizes exactly like a cold run). `encode`/`decode` are the
    /// verb's payload codec: decode must reproduce exactly the value
    /// exec would have computed (returning `None` rejects the entry as
    /// a miss), and `encode` may return `None` to keep an outcome out
    /// of the cache (e.g. non-deterministic failures). Without a store
    /// the whole batch executes and the codec is never consulted.
    ///
    /// When two engines sharing one store (clones — e.g. the daemon's
    /// per-request engines) run overlapping batches concurrently, each
    /// unique unit executes **exactly once**: the first claimant runs
    /// it, everyone else blocks on the in-flight slot and decodes the
    /// published payload (counted as `coalesced`).
    ///
    /// The returned vector is byte-stable: outcomes land in unit order
    /// whether they were executed (on any thread count), spliced from
    /// the store, or coalesced, so a document built from it is identical
    /// cold, warm, or mixed.
    pub fn run_units<T, X, E, D>(
        &self,
        units: &[UnitSpec],
        exec: X,
        encode: E,
        decode: D,
    ) -> (Vec<T>, ExecStats)
    where
        T: Send,
        X: Fn(usize) -> T + Sync,
        E: Fn(&T) -> Option<String> + Sync,
        D: Fn(&str) -> Option<T> + Sync,
    {
        use std::sync::atomic::{AtomicUsize, Ordering};

        let done = AtomicUsize::new(0);
        let tick = |_: usize| {
            if let Some(progress) = &self.progress {
                let resolved = done.fetch_add(1, Ordering::SeqCst) + 1;
                progress(resolved, units.len());
            }
        };

        let Some(store) = &self.store else {
            let out = scheduler::run_indexed(units.len(), self.threads, |i| {
                let value = exec(i);
                tick(i);
                value
            });
            let stats = ExecStats {
                total: units.len(),
                executed: units.len(),
                ..ExecStats::default()
            };
            return (out, stats);
        };

        /// How one unit was resolved (the per-slot tag the stats are
        /// assembled from after the batch).
        #[derive(Clone, Copy)]
        enum How {
            Executed,
            Cached,
            Coalesced,
        }

        // One dispatch pass: each worker probes the store for its unit
        // and falls through to claim-or-await on a miss, so lookups,
        // fresh executions, and coalesced waits all share the pool.
        let outcomes: Vec<(T, How)> = scheduler::run_indexed(units.len(), self.threads, |i| {
            let spec = &units[i];
            let outcome = 'resolve: loop {
                if let Some(value) = store.lookup(spec, self.code_epoch).and_then(|p| decode(&p)) {
                    break 'resolve (value, How::Cached);
                }
                let address = spec.address(self.code_epoch);
                let slot = {
                    let mut table = self.inflight.lock().expect("inflight lock");
                    match table.get(&address) {
                        Some(slot) => Arc::clone(slot),
                        None => {
                            // Claimed. Double-check the store before
                            // executing: the previous owner stores its
                            // payload *before* releasing the slot, so a
                            // unit that slipped between our probe and
                            // our claim is visible here.
                            let slot = Arc::new(InflightSlot::default());
                            table.insert(address.clone(), Arc::clone(&slot));
                            drop(table);
                            if let Some(value) =
                                store.lookup(spec, self.code_epoch).and_then(|p| decode(&p))
                            {
                                release_inflight(&self.inflight, &address, &slot, None);
                                break 'resolve (value, How::Cached);
                            }
                            let value = exec(i);
                            let payload = encode(&value);
                            if let Some(payload) = &payload {
                                store.store(spec, self.code_epoch, payload);
                            }
                            release_inflight(&self.inflight, &address, &slot, payload);
                            break 'resolve (value, How::Executed);
                        }
                    }
                };
                // Another thread is running the identical unit: await
                // its published payload instead of re-running.
                let published = {
                    let mut result = slot.result.lock().expect("slot lock");
                    while result.is_none() {
                        result = slot.done.wait(result).expect("slot wait");
                    }
                    result.clone().expect("published")
                };
                match published.as_deref().and_then(&decode) {
                    Some(value) => break 'resolve (value, How::Coalesced),
                    // The owner's outcome was uncacheable (encode
                    // returned None) or undecodable: re-probe and, if
                    // still absent, claim and execute ourselves.
                    None => continue 'resolve,
                }
            };
            tick(i);
            outcome
        });

        let mut stats = ExecStats {
            total: units.len(),
            ..ExecStats::default()
        };
        let out = outcomes
            .into_iter()
            .map(|(value, how)| {
                match how {
                    How::Executed => stats.executed += 1,
                    How::Cached => stats.cached += 1,
                    How::Coalesced => stats.coalesced += 1,
                }
                value
            })
            .collect();
        // Rotate this batch's fresh results into a visible pack segment.
        // Best-effort: a failed flush only costs re-execution after a
        // restart.
        let _ = store.flush();
        (out, stats)
    }
}

/// Publishes an in-flight unit's result (`None` = uncacheable) and
/// removes its slot, waking every waiter. The slot is removed *after*
/// the owning thread stored the payload, so late arrivers always find
/// either the slot or the store entry.
fn release_inflight(
    inflight: &InflightTable,
    address: &str,
    slot: &Arc<InflightSlot>,
    payload: Option<String>,
) {
    *slot.result.lock().expect("slot lock") = Some(payload);
    inflight.lock().expect("inflight lock").remove(address);
    slot.done.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn specs(n: u64) -> Vec<UnitSpec> {
        (0..n)
            .map(|t| UnitSpec {
                kind: "bench",
                key: "cell=engine-test".to_owned(),
                trial: t,
                seed: t * 31,
                config_digest: 9,
            })
            .collect()
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("si-engine-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn codec_exec(
        engine: &Engine,
        units: &[UnitSpec],
        calls: &AtomicUsize,
    ) -> (Vec<u64>, ExecStats) {
        engine.run_units(
            units,
            |i| {
                calls.fetch_add(1, Ordering::Relaxed);
                units[i].seed * 2 + 1
            },
            |v| Some(v.to_string()),
            |p| p.parse().ok(),
        )
    }

    #[test]
    fn uncached_engine_executes_everything() {
        let units = specs(10);
        let calls = AtomicUsize::new(0);
        let (out, stats) = codec_exec(&Engine::new(4), &units, &calls);
        assert_eq!(out, (0..10).map(|t| t * 31 * 2 + 1).collect::<Vec<_>>());
        assert_eq!(calls.load(Ordering::Relaxed), 10);
        assert_eq!(
            stats,
            ExecStats {
                total: 10,
                executed: 10,
                ..ExecStats::default()
            }
        );
    }

    #[test]
    fn warm_rerun_executes_zero_units_and_matches_cold() {
        let units = specs(12);
        let dir = temp_dir("warm");
        let engine = Engine::with_cache(4, 1, &dir);
        let calls = AtomicUsize::new(0);
        let (cold, cold_stats) = codec_exec(&engine, &units, &calls);
        assert_eq!(cold_stats.executed, 12);
        let (warm, warm_stats) = codec_exec(&engine, &units, &calls);
        assert_eq!(warm, cold);
        assert_eq!(
            warm_stats,
            ExecStats {
                total: 12,
                cached: 12,
                ..ExecStats::default()
            }
        );
        assert_eq!(calls.load(Ordering::Relaxed), 12, "warm pass ran nothing");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn widened_batch_executes_only_the_new_units() {
        let all = specs(10);
        let dir = temp_dir("widen");
        let engine = Engine::with_cache(2, 1, &dir);
        let calls = AtomicUsize::new(0);
        codec_exec(&engine, &all[..6], &calls);
        assert_eq!(calls.load(Ordering::Relaxed), 6);
        let (out, stats) = codec_exec(&engine, &all, &calls);
        assert_eq!(out.len(), 10);
        assert_eq!(stats.executed, 4, "only the four new units ran");
        assert_eq!(stats.cached, 6);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn epoch_bump_orphans_the_cache() {
        let units = specs(5);
        let dir = temp_dir("epoch");
        let calls = AtomicUsize::new(0);
        codec_exec(&Engine::with_cache(2, 1, &dir), &units, &calls);
        let (_, stats) = codec_exec(&Engine::with_cache(2, 2, &dir), &units, &calls);
        assert_eq!(stats.executed, 5, "new epoch must ignore old entries");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Clones of one engine share the store and the in-flight table, so
    /// concurrent overlapping batches (the daemon's workload) execute
    /// each unique unit exactly once — later claimants either hit the
    /// store or await the in-flight execution.
    #[test]
    fn concurrent_clones_execute_each_unit_exactly_once() {
        let units = specs(40);
        let dir = temp_dir("dedup");
        let engine = Engine::with_cache(4, 1, &dir);
        let calls = AtomicUsize::new(0);
        let clients = 6;
        let all: Vec<(Vec<u64>, ExecStats)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..clients)
                .map(|_| {
                    let engine = engine.clone();
                    let units = &units;
                    let calls = &calls;
                    scope.spawn(move || {
                        engine.run_units(
                            units,
                            |i| {
                                calls.fetch_add(1, Ordering::SeqCst);
                                // Make executions overlap in time so the
                                // in-flight path actually exercises.
                                std::thread::sleep(std::time::Duration::from_millis(1));
                                units[i].seed * 2 + 1
                            },
                            |v| Some(v.to_string()),
                            |p| p.parse().ok(),
                        )
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client"))
                .collect()
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            units.len(),
            "each unique unit executed exactly once across all clients"
        );
        let expected: Vec<u64> = units.iter().map(|u| u.seed * 2 + 1).collect();
        let mut executed_total = 0;
        for (out, stats) in &all {
            assert_eq!(out, &expected, "every client got identical outcomes");
            assert_eq!(stats.executed + stats.cached + stats.coalesced, units.len());
            executed_total += stats.executed;
        }
        assert_eq!(executed_total, units.len(), "stats agree with exec count");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The progress callback fires once per unit with a final
    /// `(total, total)` tick, cached or not.
    #[test]
    fn progress_callback_ticks_every_unit() {
        let units = specs(9);
        let dir = temp_dir("progress");
        let ticks = Arc::new(AtomicUsize::new(0));
        let seen_total = Arc::new(AtomicUsize::new(0));
        let engine = {
            let ticks = Arc::clone(&ticks);
            let seen_total = Arc::clone(&seen_total);
            Engine::with_cache(3, 1, &dir).with_progress(Arc::new(move |done, total| {
                ticks.fetch_add(1, Ordering::SeqCst);
                if done == total {
                    seen_total.store(total, Ordering::SeqCst);
                }
            }))
        };
        let calls = AtomicUsize::new(0);
        codec_exec(&engine, &units, &calls);
        assert_eq!(ticks.load(Ordering::SeqCst), 9);
        assert_eq!(seen_total.load(Ordering::SeqCst), 9);
        // Warm rerun ticks too (progress is about resolution, not
        // execution).
        codec_exec(&engine, &units, &calls);
        assert_eq!(ticks.load(Ordering::SeqCst), 18);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn encode_none_keeps_outcomes_out_of_the_cache() {
        let units = specs(4);
        let dir = temp_dir("no-store");
        let engine = Engine::with_cache(2, 1, &dir);
        let calls = AtomicUsize::new(0);
        let run = || {
            engine.run_units(
                &units,
                |i| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    i as u64
                },
                |_| None,
                |p: &str| p.parse().ok(),
            )
        };
        run();
        let (_, stats) = run();
        assert_eq!(stats.executed, 4, "nothing was cached");
        assert_eq!(calls.load(Ordering::Relaxed), 8);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
