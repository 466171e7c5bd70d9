//! The multi-core cache hierarchy.
//!
//! Per-core private L1I/L1D/L2 over a shared, **inclusive** LLC with
//! back-invalidation. All state-changing traffic into the LLC is recorded
//! in an event log: this is the *visible L2 access pattern* `C(E)` of the
//! paper's ideal-invisible-speculation definition (§5.1), which the
//! security checker compares between speculative and `NoSpec` executions.
//!
//! Two access types exist, mirroring §5.1:
//!
//! * **visible** accesses update replacement state and fill lines at every
//!   level, and are logged at the LLC;
//! * **invisible** accesses (the request type invisible-speculation
//!   schemes add) return data and an honest latency but change *no* cache
//!   state and are never logged.

use crate::{
    line_of, AccessOutcome, CacheConfig, CacheStats, HierarchyConfig, MshrFile, SetAssocCache,
    WayView,
};

/// Whether an access flows through the instruction or data path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum AccessClass {
    /// Data-side access (L1D).
    Data,
    /// Instruction fetch (L1I).
    Instr,
}

/// Whether an access may change cache state (§5.1's visible/invisible
/// request types).
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Visibility {
    /// Normal access: fills, replacement updates, LLC log entry.
    Visible,
    /// Invisible request: correct data and latency, zero state change.
    Invisible,
}

/// The level that serviced an access.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, serde::Serialize, serde::Deserialize,
)]
pub enum HitLevel {
    /// Private L1 (I or D).
    L1,
    /// Private L2.
    L2,
    /// Shared last-level cache.
    Llc,
    /// Main memory.
    Memory,
}

/// Result of one hierarchy access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccessResult {
    /// End-to-end latency in cycles.
    pub latency: u64,
    /// Where the line was found.
    pub level: HitLevel,
}

/// What kind of LLC traffic an event records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum LlcEventKind {
    /// Data-side read reaching the LLC.
    DataRead,
    /// Instruction fetch reaching the LLC.
    InstrFetch,
    /// Store commit reaching the LLC.
    Write,
}

/// One visible LLC access — an element of the paper's `C(E)` pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct LlcEvent {
    /// Monotonic sequence number (the pattern is order-without-timing, so
    /// equality checks compare sequences of the other fields).
    pub seq: u64,
    /// Cycle at which the access was issued (diagnostic only; *not* part
    /// of the §5.1 pattern).
    pub cycle: u64,
    /// Issuing core.
    pub core: usize,
    /// Line address.
    pub line: u64,
    /// Traffic kind.
    pub kind: LlcEventKind,
    /// Whether the LLC had the line.
    pub hit: bool,
}

#[derive(Debug, Clone)]
struct CoreCaches {
    l1i: SetAssocCache,
    l1d: SetAssocCache,
    l2: SetAssocCache,
}

/// Occupancy and contention counters of the shared-side MSHR file (the
/// cross-core interference surface of `G^D_MSHR`, §3.2.2).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedMshrStats {
    /// Entries currently in flight.
    pub in_flight: usize,
    /// Peak simultaneous occupancy observed.
    pub high_water: usize,
    /// File capacity.
    pub capacity: usize,
    /// Secondary demand misses that coalesced onto another core's
    /// in-flight entry.
    pub coalesced: u64,
    /// Demand misses that found the file full and absorbed a queueing
    /// delay — the structural hazard cross-core pressure manufactures.
    pub conflicts: u64,
}

/// The full hierarchy shared by every core of the simulated machine.
///
/// # Example
///
/// ```
/// use si_cache::{AccessClass, Hierarchy, HierarchyConfig, HitLevel, Visibility};
///
/// let mut h = Hierarchy::new(HierarchyConfig::kaby_lake_like(2));
/// let first = h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
/// assert_eq!(first.level, HitLevel::Memory);
/// let again = h.read(1, 0, 0x4000, AccessClass::Data, Visibility::Visible);
/// assert_eq!(again.level, HitLevel::L1);
/// // Core 1 misses privately but hits the shared LLC:
/// let cross = h.read(2, 1, 0x4000, AccessClass::Data, Visibility::Visible);
/// assert_eq!(cross.level, HitLevel::Llc);
/// ```
#[derive(Debug, Clone)]
pub struct Hierarchy {
    config: HierarchyConfig,
    cores: Vec<CoreCaches>,
    llc: SetAssocCache,
    log: Vec<LlcEvent>,
    seq: u64,
    /// Shared-side MSHRs: every *demand* miss past the LLC (core loads,
    /// instruction fetches, timed receiver probes) holds an entry for the
    /// DRAM round trip; see [`Hierarchy::read_demand`].
    shared_mshrs: MshrFile,
    shared_coalesced: u64,
    shared_conflicts: u64,
}

impl Hierarchy {
    /// Builds an empty hierarchy.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`HierarchyConfig::validate`].
    pub fn new(config: HierarchyConfig) -> Hierarchy {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid hierarchy config: {e}"));
        let cores = (0..config.cores)
            .map(|i| CoreCaches {
                l1i: SetAssocCache::new(&format!("core{i}.L1I"), config.l1i),
                l1d: SetAssocCache::new(&format!("core{i}.L1D"), config.l1d),
                l2: SetAssocCache::new(&format!("core{i}.L2"), config.l2),
            })
            .collect();
        Hierarchy {
            llc: SetAssocCache::new("LLC", config.llc),
            cores,
            shared_mshrs: MshrFile::new(config.shared_mshrs),
            shared_coalesced: 0,
            shared_conflicts: 0,
            config,
            log: Vec::new(),
            seq: 0,
        }
    }

    /// The configuration this hierarchy was built with.
    pub fn config(&self) -> &HierarchyConfig {
        &self.config
    }

    fn l1(&mut self, core: usize, class: AccessClass) -> &mut SetAssocCache {
        match class {
            AccessClass::Data => &mut self.cores[core].l1d,
            AccessClass::Instr => &mut self.cores[core].l1i,
        }
    }

    fn log_llc(&mut self, cycle: u64, core: usize, line: u64, kind: LlcEventKind, hit: bool) {
        let seq = self.seq;
        self.seq += 1;
        self.log.push(LlcEvent {
            seq,
            cycle,
            core,
            line,
            kind,
            hit,
        });
    }

    /// Removes an LLC eviction victim from every private cache. Counted as
    /// `back_invalidations` (not `evictions`) in the private caches — the
    /// eviction happened at the LLC, the private copies are inclusion
    /// victims.
    fn back_invalidate(&mut self, line: u64) {
        for c in &mut self.cores {
            c.l1i.back_invalidate(line);
            c.l1d.back_invalidate(line);
            c.l2.back_invalidate(line);
        }
    }

    /// Reads `addr` from `core` through the given path.
    ///
    /// Visible reads update replacement state, fill every level on the way
    /// in, back-invalidate on inclusive-LLC evictions, and log LLC traffic.
    /// Invisible reads are pure probes with honest latency.
    ///
    /// This entry point does **not** occupy shared MSHRs: it serves the
    /// attacker agent and the background-noise generator, which abstract
    /// traffic spread over long real-time windows into single calls (see
    /// DESIGN.md's modeled capabilities). Core demand traffic and timed
    /// receiver measurements go through [`Hierarchy::read_demand`].
    pub fn read(
        &mut self,
        cycle: u64,
        core: usize,
        addr: u64,
        class: AccessClass,
        vis: Visibility,
    ) -> AccessResult {
        self.read_inner(cycle, core, addr, class, vis, false)
    }

    /// Reads `addr` as a **demand** request: identical cache-state
    /// semantics to [`Hierarchy::read`], but a miss past the LLC also
    /// contends on the shared-side MSHR file —
    ///
    /// * a fresh miss holds one entry for the DRAM round trip;
    /// * a concurrent miss to the same line from *another* core coalesces
    ///   and completes with the primary fill (its remaining latency);
    /// * a miss that finds the file full absorbs the wait until the
    ///   earliest in-flight fill frees an entry (counted in
    ///   [`SharedMshrStats::conflicts`]). As a deliberate simplification
    ///   the delayed request does not then occupy the freed entry — its
    ///   own round trip is untracked, so simultaneous over-capacity
    ///   misses all wait on the same entry rather than queueing behind
    ///   one another. This under-states saturation contention slightly
    ///   but keeps the file's state a pure function of the access
    ///   stream's timestamps.
    ///
    /// Invisible demand misses contend too — no invisible-speculation
    /// design changes MSHR allocation (§3.2.2), which is precisely what
    /// the `G^D_MSHR` gadget exploits on the shared side.
    pub fn read_demand(
        &mut self,
        cycle: u64,
        core: usize,
        addr: u64,
        class: AccessClass,
        vis: Visibility,
    ) -> AccessResult {
        self.read_inner(cycle, core, addr, class, vis, true)
    }

    fn read_inner(
        &mut self,
        cycle: u64,
        core: usize,
        addr: u64,
        class: AccessClass,
        vis: Visibility,
        tracked: bool,
    ) -> AccessResult {
        let line = line_of(addr);
        let mut result = match vis {
            Visibility::Invisible => self.probe_result(core, line, class),
            Visibility::Visible => self.visible_access(
                cycle,
                core,
                line,
                class,
                match class {
                    AccessClass::Data => LlcEventKind::DataRead,
                    AccessClass::Instr => LlcEventKind::InstrFetch,
                },
            ),
        };
        if tracked && result.level == HitLevel::Memory {
            result.latency = self.shared_miss_latency(cycle, line, result.latency);
        }
        result
    }

    /// Routes one demand miss through the shared MSHR file, returning the
    /// latency it observes (`dram` is the uncontended DRAM latency the
    /// cache lookup reported).
    fn shared_miss_latency(&mut self, cycle: u64, line: u64, dram: u64) -> u64 {
        self.shared_mshrs.drain_ready(cycle);
        if let Some(id) = self.shared_mshrs.lookup(line) {
            // Cross-core secondary miss: ride the primary fill. (A core's
            // own secondary misses coalesce in its private MSHR file and
            // never reach this point.)
            self.shared_mshrs.coalesce(id, 0);
            self.shared_coalesced += 1;
            (self.shared_mshrs.ready_at(id) - cycle).max(self.config.latency.llc)
        } else if self.shared_mshrs.is_full() {
            // Structural hazard: wait for the earliest fill to free an
            // entry, then pay the full round trip.
            self.shared_conflicts += 1;
            let wait = self
                .shared_mshrs
                .earliest_ready()
                .expect("full file has entries")
                - cycle;
            dram + wait
        } else {
            self.shared_mshrs
                .allocate(line, cycle + dram, 0)
                .expect("fullness checked above");
            dram
        }
    }

    /// Shared-side MSHR occupancy and contention counters (as of the last
    /// demand access's drain).
    pub fn shared_mshr_stats(&self) -> SharedMshrStats {
        SharedMshrStats {
            in_flight: self.shared_mshrs.in_flight(),
            high_water: self.shared_mshrs.high_water(),
            capacity: self.shared_mshrs.capacity(),
            coalesced: self.shared_coalesced,
            conflicts: self.shared_conflicts,
        }
    }

    /// Commits a store to `addr` from `core` (always visible;
    /// write-allocate, write-through — dirty state is not modeled because
    /// no attack in the paper depends on it).
    pub fn write(&mut self, cycle: u64, core: usize, addr: u64) -> AccessResult {
        let line = line_of(addr);
        self.visible_access(cycle, core, line, AccessClass::Data, LlcEventKind::Write)
    }

    fn visible_access(
        &mut self,
        cycle: u64,
        core: usize,
        line: u64,
        class: AccessClass,
        kind: LlcEventKind,
    ) -> AccessResult {
        let lat = self.config.latency;
        if self.l1(core, class).access(line).hit {
            return AccessResult {
                latency: lat.l1,
                level: HitLevel::L1,
            };
        }
        if self.cores[core].l2.access(line).hit {
            self.l1(core, class).fill(line);
            return AccessResult {
                latency: lat.l2,
                level: HitLevel::L2,
            };
        }
        let AccessOutcome { hit, evicted } = self.llc.access(line);
        self.log_llc(cycle, core, line, kind, hit);
        if let Some(victim) = evicted {
            self.back_invalidate(victim);
        }
        self.cores[core].l2.fill(line);
        self.l1(core, class).fill(line);
        if hit {
            AccessResult {
                latency: lat.llc,
                level: HitLevel::Llc,
            }
        } else {
            AccessResult {
                latency: lat.dram,
                level: HitLevel::Memory,
            }
        }
    }

    fn probe_result(&self, core: usize, line: u64, class: AccessClass) -> AccessResult {
        let level = self.probe_level_line(core, line, class);
        let lat = self.config.latency;
        let latency = match level {
            HitLevel::L1 => lat.l1,
            HitLevel::L2 => lat.l2,
            HitLevel::Llc => lat.llc,
            HitLevel::Memory => lat.dram,
        };
        AccessResult { latency, level }
    }

    /// Returns where `addr` would hit for `core` without changing any
    /// state.
    pub fn probe_level(&self, core: usize, addr: u64, class: AccessClass) -> HitLevel {
        self.probe_level_line(core, line_of(addr), class)
    }

    fn probe_level_line(&self, core: usize, line: u64, class: AccessClass) -> HitLevel {
        let l1 = match class {
            AccessClass::Data => &self.cores[core].l1d,
            AccessClass::Instr => &self.cores[core].l1i,
        };
        if l1.probe(line) {
            HitLevel::L1
        } else if self.cores[core].l2.probe(line) {
            HitLevel::L2
        } else if self.llc.probe(line) {
            HitLevel::Llc
        } else {
            HitLevel::Memory
        }
    }

    /// Applies the deferred replacement update of a previously invisible
    /// hit (Delay-on-Miss §2.2): touches the line's replacement state at
    /// each level where it is still resident, filling nothing and logging
    /// nothing new below the LLC (an LLC touch is logged as a hit, since an
    /// LLC replacement update *is* visible traffic).
    pub fn touch(&mut self, cycle: u64, core: usize, addr: u64, class: AccessClass) {
        let line = line_of(addr);
        let l1_hit = self.l1(core, class).touch(line);
        if l1_hit {
            return; // L1 hit: only the L1 replacement state was deferred.
        }
        if self.cores[core].l2.touch(line) {
            return;
        }
        if self.llc.touch(line) {
            let kind = match class {
                AccessClass::Data => LlcEventKind::DataRead,
                AccessClass::Instr => LlcEventKind::InstrFetch,
            };
            self.log_llc(cycle, core, line, kind, true);
        }
    }

    /// Performs the visible state changes of an access without caring about
    /// latency — the *exposure* step of InvisiSpec-style schemes, run when
    /// a speculatively (invisibly) executed load becomes safe.
    pub fn promote(&mut self, cycle: u64, core: usize, addr: u64, class: AccessClass) {
        let kind = match class {
            AccessClass::Data => LlcEventKind::DataRead,
            AccessClass::Instr => LlcEventKind::InstrFetch,
        };
        self.visible_access(cycle, core, line_of(addr), class, kind);
    }

    /// Evicts the line containing `addr` from every cache in the system
    /// (`clflush` analog; coherence-global like the real instruction).
    /// Counted as plain `invalidations` everywhere — a flush is not an
    /// inclusion back-invalidation.
    pub fn flush_addr(&mut self, addr: u64) {
        let line = line_of(addr);
        for c in &mut self.cores {
            c.l1i.invalidate(line);
            c.l1d.invalidate(line);
            c.l2.invalidate(line);
        }
        self.llc.invalidate(line);
    }

    /// Empties `core`'s private caches, as a large private-cache-thrashing
    /// buffer walk would. The attacker agent uses this between prime
    /// rounds so that its eviction-set accesses reach the LLC (see
    /// DESIGN.md: modeled capability replacing thousands of thrash loads).
    ///
    /// Implemented as a generation-stamped arena reset — called once per
    /// prime round, so it must not reallocate.
    pub fn clear_private(&mut self, core: usize) {
        self.cores[core].l1i.reset();
        self.cores[core].l1d.reset();
        self.cores[core].l2.reset();
    }

    /// The visible-LLC access log accumulated so far (`C(E)` of §5.1).
    pub fn log(&self) -> &[LlcEvent] {
        &self.log
    }

    /// Takes and clears the log.
    pub fn take_log(&mut self) -> Vec<LlcEvent> {
        std::mem::take(&mut self.log)
    }

    /// Diagnostic view of one LLC set (drives the Figure 8 reproduction).
    pub fn llc_set_view(&self, set: usize) -> Vec<WayView> {
        self.llc.set_view(set)
    }

    /// The LLC's geometry (for eviction-set construction).
    pub fn llc_config(&self) -> &CacheConfig {
        self.llc.config()
    }

    /// LLC statistics.
    pub fn llc_stats(&self) -> CacheStats {
        self.llc.stats()
    }

    /// Whether `addr`'s line is resident anywhere in the hierarchy.
    pub fn resident_anywhere(&self, addr: u64) -> bool {
        let line = line_of(addr);
        if self.llc.probe(line) {
            return true;
        }
        self.cores
            .iter()
            .any(|c| c.l1i.probe(line) || c.l1d.probe(line) || c.l2.probe(line))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LINE_BYTES;

    fn h2() -> Hierarchy {
        Hierarchy::new(HierarchyConfig::kaby_lake_like(2))
    }

    #[test]
    fn fills_propagate_down_the_hierarchy() {
        let mut h = h2();
        let r = h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(r.latency, h.config().latency.dram);
        assert_eq!(h.probe_level(0, 0x4000, AccessClass::Data), HitLevel::L1);
        assert!(h.resident_anywhere(0x4000));
    }

    #[test]
    fn cross_core_sharing_via_llc() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        let r = h.read(1, 1, 0x4000, AccessClass::Data, Visibility::Visible);
        assert_eq!(r.level, HitLevel::Llc);
    }

    #[test]
    fn invisible_reads_change_nothing() {
        let mut h = h2();
        let r = h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Invisible);
        assert_eq!(r.level, HitLevel::Memory);
        assert_eq!(
            h.probe_level(0, 0x4000, AccessClass::Data),
            HitLevel::Memory
        );
        assert!(h.log().is_empty());
        assert!(!h.resident_anywhere(0x4000));
    }

    #[test]
    fn invisible_reads_report_honest_latency() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        let inv = h.read(1, 0, 0x4000, AccessClass::Data, Visibility::Invisible);
        assert_eq!(inv.level, HitLevel::L1);
        assert_eq!(inv.latency, h.config().latency.l1);
    }

    #[test]
    fn llc_log_records_visible_traffic_only() {
        let mut h = h2();
        h.read(5, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        h.read(6, 0, 0x4000, AccessClass::Data, Visibility::Visible); // L1 hit, no LLC traffic
        h.read(7, 0, 0x8000, AccessClass::Instr, Visibility::Invisible);
        let log = h.log();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].kind, LlcEventKind::DataRead);
        assert_eq!(log[0].line, line_of(0x4000));
        assert!(!log[0].hit);
        assert_eq!(log[0].cycle, 5);
    }

    #[test]
    fn flush_is_coherence_global() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        h.read(1, 1, 0x4000, AccessClass::Data, Visibility::Visible);
        h.flush_addr(0x4000);
        assert!(!h.resident_anywhere(0x4000));
        assert_eq!(
            h.probe_level(0, 0x4000, AccessClass::Data),
            HitLevel::Memory
        );
        assert_eq!(
            h.probe_level(1, 0x4000, AccessClass::Data),
            HitLevel::Memory
        );
    }

    #[test]
    fn inclusive_llc_back_invalidates_private_copies() {
        let cfg = HierarchyConfig {
            llc: CacheConfig::new(4, 2, crate::PolicyKind::Lru),
            l2: CacheConfig::new(2, 2, crate::PolicyKind::Lru),
            ..HierarchyConfig::kaby_lake_like(2)
        };
        let mut h = Hierarchy::new(cfg);
        // Three lines in LLC set 0 with 2 ways: the third evicts the first.
        let set0 = |i: u64| i * 4 * LINE_BYTES; // stride over llc sets
        h.read(0, 0, set0(0), AccessClass::Data, Visibility::Visible);
        h.read(1, 0, set0(1), AccessClass::Data, Visibility::Visible);
        h.read(2, 0, set0(2), AccessClass::Data, Visibility::Visible);
        // line 0 was evicted from the LLC and must be gone from core 0's
        // private caches too.
        assert_eq!(
            h.probe_level(0, set0(0), AccessClass::Data),
            HitLevel::Memory
        );
    }

    #[test]
    fn touch_updates_only_where_resident() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        let log_before = h.log().len();
        h.touch(1, 0, 0x4000, AccessClass::Data); // resident in L1: silent
        assert_eq!(h.log().len(), log_before);
        h.touch(2, 0, 0x0dea_d000, AccessClass::Data); // resident nowhere: no-op
        assert_eq!(h.log().len(), log_before);
    }

    #[test]
    fn touch_at_llc_is_logged_as_visible_hit() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        h.clear_private(0);
        let before = h.log().len();
        h.touch(3, 0, 0x4000, AccessClass::Data);
        let log = h.log();
        assert_eq!(log.len(), before + 1);
        assert!(log.last().unwrap().hit);
    }

    #[test]
    fn clear_private_leaves_llc_intact() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        h.clear_private(0);
        assert_eq!(h.probe_level(0, 0x4000, AccessClass::Data), HitLevel::Llc);
    }

    #[test]
    fn instruction_and_data_paths_are_separate_l1s() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Instr, Visibility::Visible);
        // Same line via the data path: misses L1D, hits L2 (filled on the
        // instruction path's way in).
        let r = h.read(1, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        assert_eq!(r.level, HitLevel::L2);
    }

    #[test]
    fn demand_misses_allocate_shared_mshrs_and_drain_by_time() {
        let mut h = h2();
        let dram = h.config().latency.dram;
        h.read_demand(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        h.read_demand(0, 0, 0x8000, AccessClass::Data, Visibility::Visible);
        let s = h.shared_mshr_stats();
        assert_eq!(s.in_flight, 2);
        assert_eq!(s.high_water, 2);
        assert_eq!((s.coalesced, s.conflicts), (0, 0));
        // A demand access after the fills return drains both entries.
        h.read_demand(dram, 0, 0xc000, AccessClass::Data, Visibility::Visible);
        assert_eq!(h.shared_mshr_stats().in_flight, 1);
    }

    #[test]
    fn untracked_reads_do_not_occupy_shared_mshrs() {
        let mut h = h2();
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        h.read(0, 0, 0x8000, AccessClass::Data, Visibility::Invisible);
        assert_eq!(h.shared_mshr_stats().in_flight, 0);
    }

    #[test]
    fn cross_core_demand_miss_coalesces_onto_invisible_in_flight() {
        let mut h = h2();
        let lat = h.config().latency;
        // Core 0 issues an invisible speculative miss (InvisiSpec-style):
        // no cache state changes, but the shared MSHR entry is held.
        let first = h.read_demand(0, 0, 0x4000, AccessClass::Data, Visibility::Invisible);
        assert_eq!(first.level, HitLevel::Memory);
        assert_eq!(first.latency, lat.dram);
        // Core 1 demands the same line mid-flight: it rides the primary
        // fill instead of paying a fresh DRAM round trip.
        let second = h.read_demand(10, 1, 0x4000, AccessClass::Data, Visibility::Visible);
        assert_eq!(second.latency, lat.dram - 10);
        let s = h.shared_mshr_stats();
        assert_eq!(s.coalesced, 1);
        assert_eq!(s.in_flight, 1, "coalesced miss shares the entry");
    }

    #[test]
    fn full_shared_file_charges_the_queueing_delay() {
        let mut cfg = HierarchyConfig::kaby_lake_like(2);
        cfg.shared_mshrs = 2;
        let mut h = Hierarchy::new(cfg);
        let dram = h.config().latency.dram;
        h.read_demand(0, 0, 0x1_0000, AccessClass::Data, Visibility::Visible);
        h.read_demand(4, 0, 0x2_0000, AccessClass::Data, Visibility::Visible);
        // Third distinct-line miss at cycle 9: waits for the earliest
        // fill (ready at dram) before its own round trip starts.
        let r = h.read_demand(9, 1, 0x3_0000, AccessClass::Data, Visibility::Visible);
        assert_eq!(r.latency, dram + (dram - 9));
        let s = h.shared_mshr_stats();
        assert_eq!(s.conflicts, 1);
        assert_eq!(s.high_water, 2);
    }

    #[test]
    fn promote_fills_like_a_visible_access() {
        let mut h = h2();
        h.promote(0, 0, 0x4000, AccessClass::Data);
        assert_eq!(h.probe_level(0, 0x4000, AccessClass::Data), HitLevel::L1);
        assert_eq!(h.log().len(), 1);
    }
}
