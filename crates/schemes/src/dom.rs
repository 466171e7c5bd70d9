//! Delay-on-Miss (Sakalis et al., ISCA'19) — §2.2's illustrative scheme.

use si_cache::HitLevel;
use si_cpu::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// Delay-on-Miss: speculative loads that hit the L1 execute and forward
/// their value, with the replacement-state update deferred until the load
/// is safe; speculative L1 misses are delayed outright and re-issued when
/// safe.
///
/// **Paper reference:** §2.2 (the illustrative invisible-speculation
/// scheme), §3.3.1 (shadow-model variants), §4 (both PoCs are
/// demonstrated against DoM — emulated there, actually enforced here).
///
/// **Mechanism.** The core consults the scheme before every speculative
/// data access. A probe first asks the hierarchy where the line would
/// hit *without* changing state; on an L1 hit DoM returns the data at
/// honest latency but defers the replacement-state touch
/// ([`SafeAction::TouchReplacement`]) until the load leaves its shadow,
/// so a squashed load leaves the LRU/QLRU ages exactly as it found
/// them. On any miss the access is held back entirely and re-issued
/// visibly once safe — the "delay" that the paper's interference
/// gadgets turn into a timing transmitter (the *latency* of the
/// delayed-then-reissued load still depends on transient state).
///
/// # Example
///
/// A speculative L1 hit executes invisibly with a deferred touch; a
/// speculative miss — any level past L1 — is delayed outright:
///
/// ```
/// use si_cache::HitLevel;
/// use si_cpu::{LoadPlan, SafeAction, SpeculationScheme, UnsafeLoadCtx};
/// use si_schemes::{DelayOnMiss, ShadowModel};
///
/// let mut dom = DelayOnMiss::new(ShadowModel::Spectre);
/// let hit = UnsafeLoadCtx { core: 0, addr: 0x1000, level: HitLevel::L1, cycle: 0 };
/// assert_eq!(
///     dom.plan_unsafe_load(&hit),
///     LoadPlan::Invisible {
///         on_safe: Some(SafeAction::TouchReplacement),
///         latency_override: None,
///     },
/// );
/// let miss = UnsafeLoadCtx { level: HitLevel::Llc, ..hit };
/// assert_eq!(dom.plan_unsafe_load(&miss), LoadPlan::Delay);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct DelayOnMiss {
    shadow: ShadowModel,
}

impl DelayOnMiss {
    /// Creates DoM under the given shadow model (`Spectre` matches the
    /// original paper's branch-only shadows; `NonTso` and `Futuristic` are
    /// the variants discussed in §3.3.1).
    pub fn new(shadow: ShadowModel) -> DelayOnMiss {
        DelayOnMiss { shadow }
    }

    /// The configured shadow model.
    pub fn shadow(&self) -> ShadowModel {
        self.shadow
    }
}

impl SpeculationScheme for DelayOnMiss {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn name(&self) -> String {
        format!("DoM-{}", self.shadow.suffix())
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

    fn ctx(level: HitLevel) -> UnsafeLoadCtx {
        UnsafeLoadCtx {
            core: 0,
            addr: 0x1000,
            level,
            cycle: 0,
        }
    }

    #[test]
    fn l1_hits_execute_invisibly_with_deferred_touch() {
        let mut dom = DelayOnMiss::new(ShadowModel::Spectre);
        assert_eq!(
            dom.plan_unsafe_load(&ctx(HitLevel::L1)),
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::TouchReplacement),
                latency_override: None,
            }
        );
    }

    #[test]
    fn misses_are_delayed_at_every_deeper_level() {
        let mut dom = DelayOnMiss::new(ShadowModel::Spectre);
        for level in [HitLevel::L2, HitLevel::Llc, HitLevel::Memory] {
            assert_eq!(dom.plan_unsafe_load(&ctx(level)), LoadPlan::Delay);
        }
    }

    #[test]
    fn name_reflects_shadow() {
        assert_eq!(DelayOnMiss::new(ShadowModel::NonTso).name(), "DoM-NonTSO");
    }

    #[test]
    fn no_defense_hooks() {
        let dom = DelayOnMiss::new(ShadowModel::Spectre);
        assert!(!dom.holds_resources_until_safe());
        assert!(!dom.strict_age_priority());
    }
}
