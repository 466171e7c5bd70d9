//! The advanced defense sketched in §5.4.

use si_cache::HitLevel;
use si_cpu::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// The §5.4 advanced defense: invisible speculation (DoM-style load
/// handling) *plus* two scheduler rules, each independently toggleable for
/// the ablation bench:
///
/// 1. **Not releasing resources early** — a speculative instruction holds
///    its reservation-station entry until retirement and a non-pipelined
///    unit until its occupant is non-speculative, making occupancy
///    durations operand-independent.
/// 2. **Not delaying older instructions** — a younger instruction may not
///    claim a non-pipelined unit while an older instruction that needs the
///    same unit is still waiting ("the hardware gives precedence to the
///    instruction with higher priority"), implemented as a conservative
///    look-ahead reservation.
///
/// **Paper reference:** §5.4 (the sketch); `sia run ablation`
/// reproduces the rule-by-rule study, and the `defense` sweep grid
/// measures the workload cost.
///
/// **Mechanism.** The load policy underneath is DoM's hit filter; the
/// novelty is in the scheduler hooks `holds_resources_until_safe` and
/// `strict_age_priority`, which the reservation station and the
/// non-pipelined units consult each issue cycle. Together the rules
/// remove the `G^D_NPEU` interference channel: the gadget can no longer
/// slip into port 0 ahead of the older target chain, so the victim's
/// timing stops depending on transiently-computed operands.
///
/// # Example
///
/// The two rules toggle independently (the ablation's three arms):
///
/// ```
/// use si_cpu::SpeculationScheme;
/// use si_schemes::{AdvancedDefense, ShadowModel};
///
/// let both = AdvancedDefense::new(ShadowModel::Spectre, true, true);
/// assert!(both.holds_resources_until_safe() && both.strict_age_priority());
/// assert_eq!(both.name(), "Advanced-Spectre+hold+age");
///
/// let age_only = AdvancedDefense::new(ShadowModel::Spectre, false, true);
/// assert!(!age_only.holds_resources_until_safe());
/// assert_eq!(age_only.name(), "Advanced-Spectre+age");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AdvancedDefense {
    shadow: ShadowModel,
    hold_resources: bool,
    age_priority: bool,
}

impl AdvancedDefense {
    /// Creates the defense; the two booleans enable rules 1 and 2.
    pub fn new(shadow: ShadowModel, hold_resources: bool, age_priority: bool) -> AdvancedDefense {
        AdvancedDefense {
            shadow,
            hold_resources,
            age_priority,
        }
    }
}

impl SpeculationScheme for AdvancedDefense {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn name(&self) -> String {
        format!(
            "Advanced-{}{}{}",
            self.shadow.suffix(),
            if self.hold_resources { "+hold" } else { "" },
            if self.age_priority { "+age" } else { "" },
        )
    }

    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        self.shadow.is_safe(view, seq)
    }

    fn plan_unsafe_load(&mut self, ctx: &UnsafeLoadCtx) -> LoadPlan {
        // DoM-style invisible speculation underneath the scheduler rules.
        if ctx.level == HitLevel::L1 {
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::TouchReplacement),
                latency_override: None,
            }
        } else {
            LoadPlan::Delay
        }
    }

    fn holds_resources_until_safe(&self) -> bool {
        self.hold_resources
    }

    fn strict_age_priority(&self) -> bool {
        self.age_priority
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rules_are_independently_toggleable() {
        let both = AdvancedDefense::new(ShadowModel::Spectre, true, true);
        assert!(both.holds_resources_until_safe());
        assert!(both.strict_age_priority());
        let hold_only = AdvancedDefense::new(ShadowModel::Spectre, true, false);
        assert!(hold_only.holds_resources_until_safe());
        assert!(!hold_only.strict_age_priority());
        let age_only = AdvancedDefense::new(ShadowModel::Spectre, false, true);
        assert!(!age_only.holds_resources_until_safe());
        assert!(age_only.strict_age_priority());
    }

    #[test]
    fn name_encodes_configuration() {
        assert_eq!(
            AdvancedDefense::new(ShadowModel::Spectre, true, true).name(),
            "Advanced-Spectre+hold+age"
        );
        assert_eq!(
            AdvancedDefense::new(ShadowModel::Spectre, false, false).name(),
            "Advanced-Spectre"
        );
    }

    #[test]
    fn load_policy_is_dom_style() {
        let mut d = AdvancedDefense::new(ShadowModel::Spectre, true, true);
        let miss = d.plan_unsafe_load(&UnsafeLoadCtx {
            core: 0,
            addr: 0,
            level: HitLevel::Memory,
            cycle: 0,
        });
        assert_eq!(miss, LoadPlan::Delay);
    }
}
