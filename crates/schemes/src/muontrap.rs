//! MuonTrap (Ainsworth & Jones, ISCA'20).

use si_cache::{line_of, CacheConfig, Hierarchy, PolicyKind, SetAssocCache};
use si_cpu::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// MuonTrap: speculative loads fill a small per-core **L0 filter cache**
/// rather than the shared hierarchy. The filter is cleared on every squash
/// (so mis-speculated fills leave no trace) and its lines are promoted into
/// the real hierarchy when the owning load becomes safe.
///
/// **Paper reference:** §2.2 (scheme zoo; Table 1 row "MuonTrap").
///
/// **Mechanism.** The filter is a real set-associative cache private to
/// the scheme (default 2 KB, 8 sets × 4 ways, LRU). A speculative load
/// probes it first: a filter hit is serviced at L1 speed
/// (`latency_override`) without touching the hierarchy; a filter miss
/// fetches the data invisibly from wherever it lives and installs the
/// line in the filter for later speculative reuse. On squash the whole
/// filter is flushed; on safety the line is promoted (exposed) into the
/// real hierarchy. MuonTrap still appears in Table 1 because the
/// *timing* of speculative loads (filter hit vs. slow invisible fetch)
/// stays secret-dependent, feeding the interference gadgets.
///
/// # Example
///
/// The first speculative access installs the line; a repeat hits the
/// filter and is served at the configured L1-like latency; a squash
/// empties it again:
///
/// ```
/// use si_cache::HitLevel;
/// use si_cpu::{LoadPlan, SpeculationScheme, UnsafeLoadCtx};
/// use si_schemes::{MuonTrap, ShadowModel};
///
/// let mut mt = MuonTrap::new(ShadowModel::Spectre);
/// let ctx = UnsafeLoadCtx { core: 0, addr: 0x4000, level: HitLevel::Memory, cycle: 0 };
/// mt.plan_unsafe_load(&ctx);                   // miss: fills the filter
/// assert_eq!(mt.filter_occupancy(), 1);
/// match mt.plan_unsafe_load(&ctx) {            // repeat: filter hit
///     LoadPlan::Invisible { latency_override: Some(lat), .. } => assert_eq!(lat, 4),
///     other => panic!("expected a fast filter hit, got {other:?}"),
/// }
/// ```
#[derive(Debug, Clone)]
pub struct MuonTrap {
    shadow: ShadowModel,
    filter: SetAssocCache,
    l1_latency: u64,
}

/// Default filter-cache geometry: 2 KB, 8 sets × 4 ways.
fn default_filter() -> SetAssocCache {
    SetAssocCache::new("L0-filter", CacheConfig::new(8, 4, PolicyKind::Lru))
}

impl MuonTrap {
    /// Creates MuonTrap with the default 2 KB filter cache and an L1-like
    /// 4-cycle filter-hit latency.
    pub fn new(shadow: ShadowModel) -> MuonTrap {
        MuonTrap::with_filter(shadow, default_filter(), 4)
    }

    /// Creates MuonTrap with an explicit filter cache and filter-hit
    /// latency.
    pub fn with_filter(shadow: ShadowModel, filter: SetAssocCache, l1_latency: u64) -> MuonTrap {
        MuonTrap {
            shadow,
            filter,
            l1_latency,
        }
    }

    /// Number of lines currently in the filter (diagnostic).
    pub fn filter_occupancy(&self) -> usize {
        self.filter.occupancy()
    }
}

impl SpeculationScheme for MuonTrap {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(self.clone())
    }

    fn protects_ifetch(&self) -> bool {
        true // shadow/filter/rollback structures cover the I-side
    }

    fn name(&self) -> String {
        "MuonTrap".to_owned()
    }

    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        self.shadow.is_safe(view, seq)
    }

    fn plan_unsafe_load(&mut self, ctx: &UnsafeLoadCtx) -> LoadPlan {
        let line = line_of(ctx.addr);
        if self.filter.access(line).hit {
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::Expose),
                latency_override: Some(self.l1_latency),
            }
        } else {
            // Miss: the filter was just filled (by the access above); the
            // data itself comes invisibly from wherever it lives.
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::Expose),
                latency_override: None,
            }
        }
    }

    fn on_squash(&mut self, _hierarchy: &mut Hierarchy, _core: usize, _fills: &[u64]) {
        // The whole point of the filter: squash clears it.
        self.filter = SetAssocCache::new("L0-filter", *self.filter.config());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cache::{HierarchyConfig, HitLevel};

    fn ctx(addr: u64, level: HitLevel) -> UnsafeLoadCtx {
        UnsafeLoadCtx {
            core: 0,
            addr,
            level,
            cycle: 0,
        }
    }

    #[test]
    fn first_speculative_access_fills_filter_second_hits_fast() {
        let mut mt = MuonTrap::new(ShadowModel::Spectre);
        let first = mt.plan_unsafe_load(&ctx(0x4000, HitLevel::Memory));
        assert_eq!(
            first,
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::Expose),
                latency_override: None,
            }
        );
        assert_eq!(mt.filter_occupancy(), 1);
        let second = mt.plan_unsafe_load(&ctx(0x4000, HitLevel::Memory));
        assert_eq!(
            second,
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::Expose),
                latency_override: Some(4),
            }
        );
    }

    #[test]
    fn squash_clears_the_filter() {
        let mut mt = MuonTrap::new(ShadowModel::Spectre);
        mt.plan_unsafe_load(&ctx(0x4000, HitLevel::Memory));
        mt.plan_unsafe_load(&ctx(0x8000, HitLevel::Memory));
        assert_eq!(mt.filter_occupancy(), 2);
        let mut h = Hierarchy::new(HierarchyConfig::kaby_lake_like(1));
        mt.on_squash(&mut h, 0, &[]);
        assert_eq!(mt.filter_occupancy(), 0);
        // After the squash the same address is slow again.
        let plan = mt.plan_unsafe_load(&ctx(0x4000, HitLevel::Memory));
        assert_eq!(
            plan,
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::Expose),
                latency_override: None,
            }
        );
    }

    #[test]
    fn filter_capacity_is_bounded() {
        let mut mt = MuonTrap::new(ShadowModel::Spectre);
        for i in 0..100 {
            mt.plan_unsafe_load(&ctx(i * 64, HitLevel::Memory));
        }
        assert!(mt.filter_occupancy() <= 32);
    }
}
