//! Conditional Speculation (Li et al., HPCA'19).

use si_cache::HitLevel;
use si_cpu::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// Conditional Speculation: a *cache-hit-based filter* lets speculative
/// loads that hit the L1 proceed (with the replacement update deferred so
/// no state leaks), while suspect loads — speculative misses — wait until
/// they are no longer speculative under a conservative shadow model.
///
/// **Paper reference:** §2.2 (scheme zoo; Table 1 row "CondSpec"),
/// §3.3.1 (unprotection point).
///
/// **Mechanism.** The load policy is Delay-on-Miss's hit filter — L1
/// hits execute invisibly with a deferred replacement touch, misses are
/// held — but under the stricter **Futuristic** shadow: Table 1 groups
/// CondSpec with the designs that unprotect a load "only when it
/// becomes the oldest load or the oldest instruction in the ROB". It
/// also covers instruction fetch (`protects_ifetch`), so the I-cache
/// PoCs need the interference channel rather than direct I-state.
///
/// # Example
///
/// Same hit filter as DoM, stricter shadow than DoM-Spectre:
///
/// ```
/// use si_cache::HitLevel;
/// use si_cpu::{LoadPlan, SpeculationScheme, UnsafeLoadCtx};
/// use si_schemes::ConditionalSpeculation;
///
/// let mut cs = ConditionalSpeculation::new();
/// let hit = UnsafeLoadCtx { core: 0, addr: 0x3000, level: HitLevel::L1, cycle: 0 };
/// assert!(matches!(cs.plan_unsafe_load(&hit), LoadPlan::Invisible { .. }));
/// let miss = UnsafeLoadCtx { level: HitLevel::L2, ..hit };
/// assert_eq!(cs.plan_unsafe_load(&miss), LoadPlan::Delay);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct ConditionalSpeculation {
    shadow: ShadowModel,
}

impl ConditionalSpeculation {
    /// Creates Conditional Speculation (Futuristic shadows, per §3.3.1).
    pub fn new() -> ConditionalSpeculation {
        ConditionalSpeculation {
            shadow: ShadowModel::Futuristic,
        }
    }
}

impl Default for ConditionalSpeculation {
    fn default() -> ConditionalSpeculation {
        ConditionalSpeculation::new()
    }
}

impl SpeculationScheme for ConditionalSpeculation {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn protects_ifetch(&self) -> bool {
        true // shadow/filter/rollback structures cover the I-side
    }

    fn name(&self) -> String {
        "CondSpec".to_owned()
    }

    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        self.shadow.is_safe(view, seq)
    }

    fn plan_unsafe_load(&mut self, ctx: &UnsafeLoadCtx) -> LoadPlan {
        if ctx.level == HitLevel::L1 {
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::TouchReplacement),
                latency_override: None,
            }
        } else {
            LoadPlan::Delay
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_filter_splits_hits_from_misses() {
        let mut cs = ConditionalSpeculation::new();
        let hit = cs.plan_unsafe_load(&UnsafeLoadCtx {
            core: 0,
            addr: 0,
            level: HitLevel::L1,
            cycle: 0,
        });
        assert!(matches!(hit, LoadPlan::Invisible { .. }));
        let miss = cs.plan_unsafe_load(&UnsafeLoadCtx {
            core: 0,
            addr: 0,
            level: HitLevel::Llc,
            cycle: 0,
        });
        assert_eq!(miss, LoadPlan::Delay);
    }
}
