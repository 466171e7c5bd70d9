//! A single set-associative cache over flat, arena-style storage.
//!
//! Tags and validity live in two contiguous arrays indexed by
//! `set * ways + way`; validity is generation-stamped (a way is valid iff
//! its stamp equals the cache's current generation), so [`SetAssocCache::reset`]
//! is a generation bump plus a policy-metadata fill — no reallocation —
//! letting experiment trials reuse one arena. Replacement policies dispatch
//! through the [`FlatPolicy`] enum rather than boxed trait objects on the
//! access fast path; the boxed [`SetPolicy`](crate::replacement::SetPolicy)
//! implementations remain the semantic oracle (see [`crate::reference`]).
//!
//! # Statistics accounting rules
//!
//! * [`access`](SetAssocCache::access) is the only operation that counts
//!   `hits`/`misses` — it models a demand access accounted at this level.
//! * [`fill`](SetAssocCache::fill) counts neither (the access was already
//!   accounted at an outer level), but evictions it causes count.
//! * `evictions` counts valid lines displaced by fills **at this level**
//!   (capacity/conflict victims). Inclusion victims removed from a smaller
//!   cache by an LLC eviction are *not* this cache's evictions; they count
//!   under `invalidations` and `back_invalidations`.
//! * [`touch`](SetAssocCache::touch) — the Delay-on-Miss deferred
//!   replacement update — counts `touch_updates` when the line is present,
//!   never a hit: the access it belongs to was serviced invisibly and
//!   already observed its latency, so counting a hit would double-count the
//!   access in hit-rate denominators.
//! * `invalidations` counts every line removed by
//!   [`invalidate`](SetAssocCache::invalidate) (flush analog) or
//!   [`back_invalidate`](SetAssocCache::back_invalidate);
//!   `back_invalidations` additionally marks the inclusion-victim subset.

use crate::replacement::flat::FlatPolicy;
use crate::{CacheConfig, CacheStats};

/// Outcome of an access or fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessOutcome {
    /// Whether the line was present.
    pub hit: bool,
    /// A valid line displaced by this operation, if any.
    pub evicted: Option<u64>,
}

/// Vacancy facts about one set, gathered during the tag scan: the leftmost
/// invalid way and a bitmask of the invalid ways among the first 64 (the
/// bitmask lets tree-PLRU's descent answer "any invalid way in this
/// subtree?" range queries in O(1)).
#[derive(Debug, Clone, Copy)]
struct SetVacancy {
    leftmost: Option<usize>,
    invalid_mask: u64,
}

/// Diagnostic view of one way: the resident line and its replacement
/// metadata byte (QLRU age, LRU rank, ...).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WayView {
    /// Resident line address, or `None` if the way is empty.
    pub line: Option<u64>,
    /// Replacement metadata (see [`crate::replacement::SetPolicy::state`]).
    pub meta: u8,
}

/// A set-associative cache of line addresses with a pluggable replacement
/// policy.
///
/// The cache stores no data — the simulator's memory is the backing store —
/// only presence and replacement state, which is all the attacks observe.
///
/// # Example
///
/// ```
/// use si_cache::{CacheConfig, PolicyKind, SetAssocCache};
///
/// let mut c = SetAssocCache::new("L1D", CacheConfig::new(16, 2, PolicyKind::Lru));
/// let miss = c.access(7);
/// assert!(!miss.hit);
/// assert!(c.access(7).hit);
/// assert!(c.probe(7));
/// c.invalidate(7);
/// assert!(!c.probe(7));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    name: String,
    config: CacheConfig,
    /// Line tags, `[set * ways + way]`.
    tags: Vec<u64>,
    /// Validity generation stamps: way valid iff `stamp[i] == gen`.
    stamp: Vec<u32>,
    gen: u32,
    /// `sets - 1` when `sets` is a power of two: set indexing becomes a
    /// mask instead of a u64 modulo on the access fast path.
    set_mask: Option<u64>,
    policy: FlatPolicy,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Creates an empty cache.
    pub fn new(name: &str, config: CacheConfig) -> SetAssocCache {
        let slots = config.sets * config.ways;
        SetAssocCache {
            name: name.to_owned(),
            policy: FlatPolicy::new(config.policy, config.sets, config.ways),
            set_mask: config
                .sets
                .is_power_of_two()
                .then(|| config.sets as u64 - 1),
            config,
            tags: vec![0; slots],
            stamp: vec![0; slots],
            gen: 1,
            stats: CacheStats::default(),
        }
    }

    /// The set `line` maps to — a mask for power-of-two set counts,
    /// matching [`CacheConfig::set_of`] bit-for-bit.
    #[inline]
    fn set_index(&self, line: u64) -> usize {
        match self.set_mask {
            Some(mask) => (line & mask) as usize,
            None => self.config.set_of(line),
        }
    }

    /// The cache's diagnostic name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Empties the cache and zeroes its statistics without reallocating:
    /// validity is a generation bump, replacement metadata a contiguous
    /// fill. Equivalent to (but much cheaper than) constructing a fresh
    /// cache with the same name and configuration.
    pub fn reset(&mut self) {
        if self.gen == u32::MAX {
            // Generation wrap: launder the stamps once so stale stamps from
            // eons ago cannot alias the restarted generation counter.
            self.stamp.fill(0);
            self.gen = 1;
        } else {
            self.gen += 1;
        }
        self.policy.reset();
        self.stats = CacheStats::default();
    }

    #[inline]
    fn find_way(&self, set: usize, line: u64) -> Option<usize> {
        self.scan(set, line).0
    }

    /// One pass over the set: the way holding `line` (if any), the leftmost
    /// invalid way, and a bitmask of the invalid ways among the first 64 —
    /// the miss path gets its policy-routed placement candidates without a
    /// second scan.
    #[inline]
    fn scan(&self, set: usize, line: u64) -> (Option<usize>, SetVacancy) {
        let base = set * self.config.ways;
        let gen = self.gen;
        let tags = &self.tags[base..base + self.config.ways];
        let stamps = &self.stamp[base..base + self.config.ways];
        let mut vacancy = SetVacancy {
            leftmost: None,
            invalid_mask: 0,
        };
        for (w, (t, s)) in tags.iter().zip(stamps).enumerate() {
            if *s == gen {
                if *t == line {
                    return (Some(w), vacancy);
                }
            } else {
                if vacancy.leftmost.is_none() {
                    vacancy.leftmost = Some(w);
                }
                if w < 64 {
                    vacancy.invalid_mask |= 1 << w;
                }
            }
        }
        (None, vacancy)
    }

    /// Checks presence without touching any state (a *tag probe*).
    pub fn probe(&self, line: u64) -> bool {
        self.find_way(self.set_index(line), line).is_some()
    }

    /// Accesses `line`: on a hit, updates replacement state; on a miss,
    /// fills the line (possibly evicting). Returns the outcome.
    pub fn access(&mut self, line: u64) -> AccessOutcome {
        let set = self.set_index(line);
        match self.scan(set, line) {
            (Some(w), _) => {
                self.stats.hits += 1;
                self.policy.on_hit(set, w);
                AccessOutcome {
                    hit: true,
                    evicted: None,
                }
            }
            (None, vacancy) => {
                self.stats.misses += 1;
                let evicted = self.fill_into(set, line, vacancy);
                AccessOutcome {
                    hit: false,
                    evicted,
                }
            }
        }
    }

    /// Updates replacement state iff the line is present (a *touch*); does
    /// not fill on miss. Returns whether the line was present.
    ///
    /// This is the deferred replacement update Delay-on-Miss applies when a
    /// speculative L1 hit becomes safe (§2.2). It counts `touch_updates`,
    /// never a hit — the access it belongs to was already serviced (see the
    /// module-level accounting rules).
    pub fn touch(&mut self, line: u64) -> bool {
        let set = self.set_index(line);
        match self.find_way(set, line) {
            Some(w) => {
                self.policy.on_hit(set, w);
                self.stats.touch_updates += 1;
                true
            }
            None => false,
        }
    }

    /// Fills `line` if absent (without counting a hit or miss); returns any
    /// displaced line. Used for fill paths where the access was already
    /// accounted at another level.
    pub fn fill(&mut self, line: u64) -> Option<u64> {
        let set = self.set_index(line);
        match self.scan(set, line) {
            (Some(_), _) => None,
            (None, vacancy) => self.fill_into(set, line, vacancy),
        }
    }

    fn fill_into(&mut self, set: usize, line: u64, vacancy: SetVacancy) -> Option<u64> {
        let base = set * self.config.ways;
        let gen = self.gen;
        // Placement into a not-full set is policy-routed: QLRU's R
        // sub-policy direction, tree-PLRU's direction bits, leftmost for
        // the recency/insertion policies (which reuse the scan's candidate
        // directly). Associativities up to 64 answer placement from the
        // scan's bitmask; wider sets re-derive validity from the stamps.
        let insert = if self.policy.places_leftmost() {
            vacancy.leftmost
        } else if vacancy.leftmost.is_none() {
            None
        } else if self.config.ways <= 64 {
            self.policy
                .choose_insert_way_mask(set, vacancy.invalid_mask)
        } else {
            let stamps = &self.stamp[base..base + self.config.ways];
            self.policy.choose_insert_way(set, |w| stamps[w] == gen)
        };
        if let Some(w) = insert {
            self.tags[base + w] = line;
            self.stamp[base + w] = gen;
            self.policy.on_insert(set, w);
            return None;
        }
        let victim = self.policy.choose_victim(set);
        debug_assert!(
            victim < self.config.ways,
            "policy returned way out of range"
        );
        debug_assert_eq!(self.stamp[base + victim], gen, "victim way must be valid");
        let evicted = self.tags[base + victim];
        self.policy.on_invalidate(set, victim);
        self.tags[base + victim] = line;
        self.policy.on_insert(set, victim);
        self.stats.evictions += 1;
        Some(evicted)
    }

    /// Removes `line` if present; returns whether it was present. Counts
    /// an `invalidation` (the flush/coherence removal path).
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_index(line);
        match self.find_way(set, line) {
            Some(w) => {
                // Any stamp != gen is invalid; gen >= 1 always, so gen - 1
                // is safe and can never alias the live generation.
                self.stamp[set * self.config.ways + w] = self.gen - 1;
                self.policy.on_invalidate(set, w);
                self.stats.invalidations += 1;
                true
            }
            None => false,
        }
    }

    /// Removes `line` as an **inclusion victim** (the containing LLC line
    /// was evicted). Counted under `invalidations` like any coherence
    /// removal, plus the `back_invalidations` sub-counter — it is an LLC
    /// eviction, not an eviction of this cache.
    pub fn back_invalidate(&mut self, line: u64) -> bool {
        if self.invalidate(line) {
            self.stats.back_invalidations += 1;
            true
        } else {
            false
        }
    }

    /// Number of valid lines currently resident.
    pub fn occupancy(&self) -> usize {
        let gen = self.gen;
        self.stamp.iter().filter(|s| **s == gen).count()
    }

    /// Diagnostic view of a set: each way's line and replacement metadata.
    ///
    /// # Panics
    ///
    /// Panics if `set` is out of range.
    pub fn set_view(&self, set: usize) -> Vec<WayView> {
        assert!(set < self.config.sets, "set {set} out of range");
        let base = set * self.config.ways;
        let meta = self.policy.state_of_set(set);
        (0..self.config.ways)
            .zip(meta)
            .map(|(w, meta)| WayView {
                line: (self.stamp[base + w] == self.gen).then(|| self.tags[base + w]),
                meta,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replacement::PolicyKind;

    fn small() -> SetAssocCache {
        SetAssocCache::new("t", CacheConfig::new(4, 2, PolicyKind::Lru))
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small();
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn conflict_evicts_lru_line() {
        let mut c = small();
        // lines 0, 4, 8 all map to set 0 (4 sets)
        c.access(0);
        c.access(4);
        c.access(0); // 4 is now LRU
        let out = c.access(8);
        assert_eq!(out.evicted, Some(4));
        assert!(c.probe(0));
        assert!(!c.probe(4));
    }

    #[test]
    fn probe_does_not_disturb_state() {
        let mut c = small();
        c.access(0);
        c.access(4);
        // Probing 0 must NOT refresh it...
        assert!(c.probe(0));
        // ...so filling a third conflicting line evicts 0 (the LRU way).
        let out = c.access(8);
        assert_eq!(out.evicted, Some(0));
    }

    #[test]
    fn touch_refreshes_only_present_lines() {
        let mut c = small();
        c.access(0);
        c.access(4);
        assert!(c.touch(0)); // refresh 0 -> 4 becomes LRU
        assert!(!c.touch(12));
        let out = c.access(8);
        assert_eq!(out.evicted, Some(4));
    }

    #[test]
    fn fill_is_idempotent_for_present_lines() {
        let mut c = small();
        c.access(0);
        assert_eq!(c.fill(0), None);
        assert_eq!(c.occupancy(), 1);
    }

    #[test]
    fn invalidate_removes_and_counts() {
        let mut c = small();
        c.access(0);
        assert!(c.invalidate(0));
        assert!(!c.invalidate(0));
        assert_eq!(c.stats().invalidations, 1);
        assert_eq!(c.occupancy(), 0);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = small();
        for line in 0..100 {
            c.access(line);
            assert!(c.occupancy() <= 8);
        }
        assert_eq!(c.occupancy(), 8);
    }

    #[test]
    fn set_view_exposes_lines_and_meta() {
        let mut c =
            SetAssocCache::new("q", CacheConfig::new(2, 4, PolicyKind::qlru_h11_m1_r0_u0()));
        c.access(0); // set 0
        c.access(2); // set 0
        let view = c.set_view(0);
        assert_eq!(view.len(), 4);
        assert_eq!(view[0].line, Some(0));
        assert_eq!(view[0].meta, 1); // QLRU insert age
        assert_eq!(view[1].line, Some(2));
        assert_eq!(view[2].line, None);
    }

    #[test]
    fn empty_ways_fill_leftmost_first() {
        let mut c =
            SetAssocCache::new("q", CacheConfig::new(1, 4, PolicyKind::qlru_h11_m1_r0_u0()));
        for line in [10, 20, 30] {
            c.access(line);
        }
        let view = c.set_view(0);
        assert_eq!(view[0].line, Some(10));
        assert_eq!(view[1].line, Some(20));
        assert_eq!(view[2].line, Some(30));
        assert_eq!(view[3].line, None);
    }

    // ------------------------------------------------------------------
    // Policy-routed placement (regression tests for the fill_into bug
    // that applied QLRU-R0 leftmost placement to every policy).
    // ------------------------------------------------------------------

    #[test]
    fn qlru_r1_fills_rightmost_empty_way() {
        use crate::replacement::qlru::{EvictSelect, QlruParams};
        let params = QlruParams {
            evict: EvictSelect::Rightmost,
            ..QlruParams::H11_M1_R0_U0
        };
        let mut c = SetAssocCache::new("r1", CacheConfig::new(1, 4, PolicyKind::Qlru(params)));
        c.access(10);
        c.access(20);
        let view = c.set_view(0);
        assert_eq!(view[3].line, Some(10), "R1 places at the rightmost empty");
        assert_eq!(view[2].line, Some(20));
        assert_eq!(view[0].line, None);
    }

    #[test]
    fn tree_plru_fills_follow_the_direction_bits() {
        let mut c = SetAssocCache::new("p", CacheConfig::new(1, 4, PolicyKind::TreePlru));
        // Empty tree points left-left: way 0 first.
        c.access(10);
        // Inserting 10 pointed the tree away from way 0 — toward the right
        // half — so the next fill lands in way 2, not way 1.
        c.access(20);
        let view = c.set_view(0);
        assert_eq!(view[0].line, Some(10));
        assert_eq!(view[2].line, Some(20), "tree-guided fill skips way 1");
        assert_eq!(view[1].line, None);
    }

    #[test]
    fn invalidated_hole_is_refilled_per_policy() {
        // LRU: hole at way 1 -> leftmost-invalid placement refills way 1.
        let mut c = SetAssocCache::new("l", CacheConfig::new(1, 4, PolicyKind::Lru));
        for line in [10, 20, 30, 40] {
            c.access(line);
        }
        c.invalidate(20);
        c.access(50);
        let view = c.set_view(0);
        assert_eq!(view[1].line, Some(50));
    }

    #[test]
    fn reset_empties_state_and_stats_without_reallocating() {
        let mut c = small();
        for line in 0..16 {
            c.access(line);
        }
        assert!(c.stats().accesses() > 0);
        c.reset();
        assert_eq!(c.occupancy(), 0);
        assert_eq!(c.stats(), CacheStats::default());
        for line in 0..8 {
            assert!(!c.probe(line), "line {line} must be gone after reset");
        }
        // Behaves exactly like a fresh cache afterwards.
        assert!(!c.access(0).hit);
        assert!(c.access(0).hit);
    }

    #[test]
    fn reset_restores_policy_state() {
        // After reset, the eviction order must match a fresh cache's.
        let fresh = |ops: &mut SetAssocCache| -> Vec<Option<u64>> {
            (0..6).map(|l| ops.access(l * 4).evicted).collect()
        };
        let mut a = small();
        fresh(&mut a); // dirty the policy state
        a.reset();
        let after_reset = fresh(&mut a);
        let mut b = small();
        let from_new = fresh(&mut b);
        assert_eq!(after_reset, from_new);
    }

    #[test]
    fn touch_counts_touch_updates_not_hits() {
        let mut c = small();
        c.access(0);
        c.touch(0);
        c.touch(99); // absent: no update
        let s = c.stats();
        assert_eq!(s.hits, 0);
        assert_eq!(s.misses, 1);
        assert_eq!(s.touch_updates, 1);
    }

    #[test]
    fn back_invalidate_counts_both_counters() {
        let mut c = small();
        c.access(0);
        assert!(c.back_invalidate(0));
        assert!(!c.back_invalidate(0));
        let s = c.stats();
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.back_invalidations, 1);
        // A plain flush-invalidate is not a back-invalidation.
        c.access(4);
        c.invalidate(4);
        let s = c.stats();
        assert_eq!(s.invalidations, 2);
        assert_eq!(s.back_invalidations, 1);
    }

    #[test]
    fn evictions_count_capacity_victims_only() {
        let mut c = small(); // 4 sets x 2 ways
        c.access(0);
        c.access(4);
        c.access(8); // evicts 0
        assert_eq!(c.stats().evictions, 1);
        c.invalidate(4); // removal, not an eviction
        assert_eq!(c.stats().evictions, 1);
        assert_eq!(c.stats().invalidations, 1);
    }
}
