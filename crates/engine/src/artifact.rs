//! Process-wide, content-addressed **artifact cache** for derived
//! in-memory values that are expensive to build and shared across many
//! units: decoded trace containers, replay plans, warmed machine
//! checkpoints.
//!
//! The unit store ([`crate::store::PackStore`]) deduplicates *whole
//! unit outcomes* across runs; this cache deduplicates the *preparation
//! work inside units* across the current process — every worker thread
//! of the scheduler shares one table, so N concurrent units over the
//! same trace decode it once and the rest wait for the first build
//! instead of re-running it.
//!
//! Design rules:
//!
//! * **Content-addressed keys.** A key must be derived purely from the
//!   content the artifact is a function of (payload digests, config
//!   fingerprints, scheme labels). Two calls with the same
//!   `(namespace, key)` MUST be willing to receive each other's value.
//! * **Determinism is the caller's contract.** Cached values are only
//!   ever *shared*, never mutated; builders must be pure functions of
//!   the key, so a hit is indistinguishable from a rebuild and output
//!   stays byte-identical cold vs. warm, 1 thread vs. N.
//! * **Process lifetime.** Entries live until process exit (or
//!   [`ArtifactCache::clear`]); nothing is persisted. Cross-run reuse
//!   stays the unit store's job, with its `code_epoch` invalidation —
//!   an in-memory cache cannot go stale across code changes.
//! * **Build-once under contention.** Each slot is a [`OnceLock`]:
//!   concurrent requesters block on the first builder instead of
//!   duplicating the work (the same shape as the engine's in-flight
//!   unit table, one level down).

use std::any::Any;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One slot: filled exactly once, shared by every later requester.
type Slot = Arc<OnceLock<Arc<dyn Any + Send + Sync>>>;

/// Hit/miss counters for one namespace.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct Counters {
    hits: u64,
    misses: u64,
}

/// A point-in-time view of one namespace's activity, for stats
/// endpoints and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArtifactStats {
    /// The namespace (`"trace"`, `"plan"`, `"checkpoint"`, …).
    pub namespace: &'static str,
    /// Distinct keys currently resident.
    pub entries: usize,
    /// Requests served from a filled slot (including requesters that
    /// blocked on a concurrent build and received its value).
    pub hits: u64,
    /// Requests that ran the builder.
    pub misses: u64,
}

/// The cache. Usually accessed through [`ArtifactCache::global`];
/// separate instances exist only for tests and benches.
#[derive(Debug, Default)]
pub struct ArtifactCache {
    /// When false, `get_or_build` neither probes nor stores — every
    /// call builds a private value. Output must be identical either
    /// way; the switch exists so `--no-artifact-cache` can prove it.
    disabled: AtomicBool,
    slots: Mutex<BTreeMap<(&'static str, String), Slot>>,
    counters: Mutex<BTreeMap<&'static str, Counters>>,
}

impl ArtifactCache {
    /// An empty, enabled cache.
    pub fn new() -> ArtifactCache {
        ArtifactCache::default()
    }

    /// The process-wide instance every layer shares.
    pub fn global() -> &'static ArtifactCache {
        static GLOBAL: OnceLock<ArtifactCache> = OnceLock::new();
        GLOBAL.get_or_init(ArtifactCache::new)
    }

    /// Enables or disables the cache (disabling does not drop resident
    /// entries; re-enabling sees them again).
    pub fn set_enabled(&self, enabled: bool) {
        self.disabled.store(!enabled, Ordering::SeqCst);
    }

    /// Whether `get_or_build` currently shares results.
    pub fn enabled(&self) -> bool {
        !self.disabled.load(Ordering::SeqCst)
    }

    /// Returns the artifact for `(namespace, key)`, running `build` only
    /// if no other caller has built it yet. Concurrent callers with the
    /// same key coalesce: one builds, the rest block and share.
    ///
    /// The stored value is type-erased; every caller of a namespace must
    /// use one value type `T`.
    ///
    /// # Panics
    ///
    /// Panics if the slot holds a value of a different type — two call
    /// sites disagree about a namespace's value type, a programming
    /// error no fallback should paper over.
    pub fn get_or_build<T, F>(&self, namespace: &'static str, key: &str, build: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: FnOnce() -> T,
    {
        if !self.enabled() {
            return Arc::new(build());
        }
        let slot = {
            let mut slots = self.slots.lock().expect("artifact slot table poisoned");
            Arc::clone(slots.entry((namespace, key.to_owned())).or_default())
        };
        let mut built = false;
        let value = slot.get_or_init(|| {
            built = true;
            Arc::new(build()) as Arc<dyn Any + Send + Sync>
        });
        {
            let mut counters = self.counters.lock().expect("artifact counters poisoned");
            let c = counters.entry(namespace).or_default();
            if built {
                c.misses += 1;
            } else {
                c.hits += 1;
            }
        }
        Arc::clone(value)
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("artifact namespace '{namespace}' holds a different type"))
    }

    /// Per-namespace statistics, sorted by namespace name. Namespaces
    /// appear once they have seen at least one request.
    pub fn stats(&self) -> Vec<ArtifactStats> {
        let slots = self.slots.lock().expect("artifact slot table poisoned");
        let counters = self.counters.lock().expect("artifact counters poisoned");
        counters
            .iter()
            .map(|(ns, c)| ArtifactStats {
                namespace: ns,
                entries: slots.keys().filter(|(s, _)| s == ns).count(),
                hits: c.hits,
                misses: c.misses,
            })
            .collect()
    }

    /// Drops every resident entry and all counters (the enabled/disabled
    /// switch is left as is). Mainly for tests and benches.
    pub fn clear(&self) {
        self.slots
            .lock()
            .expect("artifact slot table poisoned")
            .clear();
        self.counters
            .lock()
            .expect("artifact counters poisoned")
            .clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_and_counts_hits() {
        let cache = ArtifactCache::new();
        let mut builds = 0;
        for _ in 0..3 {
            let v = cache.get_or_build("ns", "k", || {
                builds += 1;
                41_u64 + 1
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(builds, 1);
        let stats = cache.stats();
        assert_eq!(stats.len(), 1);
        assert_eq!(
            (stats[0].entries, stats[0].hits, stats[0].misses),
            (1, 2, 1)
        );
    }

    #[test]
    fn namespaces_and_keys_are_independent() {
        let cache = ArtifactCache::new();
        let a = cache.get_or_build("a", "k", || 1_u64);
        let b = cache.get_or_build("b", "k", || 2_u64);
        let c = cache.get_or_build("a", "other", || 3_u64);
        assert_eq!((*a, *b, *c), (1, 2, 3));
        assert_eq!(cache.stats().iter().map(|s| s.entries).sum::<usize>(), 3);
    }

    #[test]
    fn disabled_cache_builds_every_time_and_stores_nothing() {
        let cache = ArtifactCache::new();
        cache.set_enabled(false);
        let mut builds = 0;
        for _ in 0..2 {
            let v = cache.get_or_build("ns", "k", || {
                builds += 1;
                7_u64
            });
            assert_eq!(*v, 7);
        }
        assert_eq!(builds, 2);
        assert!(cache.stats().is_empty());
        // Re-enabling starts sharing again.
        cache.set_enabled(true);
        let _ = cache.get_or_build("ns", "k", || {
            builds += 1;
            7_u64
        });
        let _ = cache.get_or_build("ns", "k", || {
            builds += 1;
            7_u64
        });
        assert_eq!(builds, 3, "one build after re-enabling, then a hit");
    }

    #[test]
    fn concurrent_requesters_coalesce_into_one_build() {
        use std::sync::atomic::AtomicU64;
        let cache = Arc::new(ArtifactCache::new());
        let builds = Arc::new(AtomicU64::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            handles.push(std::thread::spawn(move || {
                let v = cache.get_or_build("ns", "k", || {
                    builds.fetch_add(1, Ordering::SeqCst);
                    // Widen the race window so contenders really overlap.
                    std::thread::sleep(std::time::Duration::from_millis(20));
                    123_u64
                });
                *v
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), 123);
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        let stats = cache.stats();
        assert_eq!(stats[0].misses, 1);
        assert_eq!(stats[0].hits, 7);
    }

    #[test]
    fn clear_drops_entries() {
        let cache = ArtifactCache::new();
        let _ = cache.get_or_build("ns", "k", || 1_u64);
        cache.clear();
        assert!(cache.stats().is_empty());
        let mut rebuilt = false;
        let _ = cache.get_or_build("ns", "k", || {
            rebuilt = true;
            2_u64
        });
        assert!(rebuilt);
    }
}
