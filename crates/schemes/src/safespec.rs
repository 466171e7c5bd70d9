//! SafeSpec (Khasawneh et al., DAC'19).

use si_cpu::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// SafeSpec: speculative loads fill *shadow structures* instead of the
/// caches; shadow contents move into the real hierarchy when the load
/// commits.
///
/// **Paper reference:** §2.2 (scheme zoo; Table 1 rows "SafeSpec-WFB" /
/// "SafeSpec-WFC"), §3.3.1 (unprotection points).
///
/// **Mechanism.** SafeSpec adds per-load shadow caches next to the L1:
/// a speculative load that misses the real hierarchy fills the shadow
/// structure, and the line is promoted into the caches only when the
/// load commits. At this crate's modeling granularity the observable
/// policy coincides with InvisiSpec's (invisible execution + exposure
/// when safe, covering the I-side too); the type is kept separate
/// because Table 1 tracks it separately — `WFB` (wait-for-branch) maps
/// to [`ShadowModel::Spectre`] and wait-for-commit (`WFC`) to
/// [`ShadowModel::Futuristic`].
///
/// # Example
///
/// The two Table 1 rows are the same policy under different shadows:
///
/// ```
/// use si_cpu::SpeculationScheme;
/// use si_schemes::{SafeSpec, ShadowModel};
///
/// assert_eq!(SafeSpec::new(ShadowModel::Spectre).name(), "SafeSpec-WFB");
/// assert_eq!(SafeSpec::new(ShadowModel::Futuristic).name(), "SafeSpec-WFC");
/// assert!(SafeSpec::new(ShadowModel::Spectre).protects_ifetch());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SafeSpec {
    shadow: ShadowModel,
}

impl SafeSpec {
    /// Creates SafeSpec in the given mode.
    pub fn new(shadow: ShadowModel) -> SafeSpec {
        SafeSpec { shadow }
    }

    /// The configured shadow model.
    pub fn shadow(&self) -> ShadowModel {
        self.shadow
    }
}

impl SpeculationScheme for SafeSpec {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn protects_ifetch(&self) -> bool {
        true // shadow/filter/rollback structures cover the I-side
    }

    fn name(&self) -> String {
        match self.shadow {
            ShadowModel::Spectre | ShadowModel::NonTso => "SafeSpec-WFB".to_owned(),
            ShadowModel::Futuristic => "SafeSpec-WFC".to_owned(),
        }
    }

    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        self.shadow.is_safe(view, seq)
    }

    fn plan_unsafe_load(&mut self, _ctx: &UnsafeLoadCtx) -> LoadPlan {
        LoadPlan::Invisible {
            on_safe: Some(SafeAction::Expose),
            latency_override: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cache::HitLevel;

    #[test]
    fn shadow_structure_policy_is_invisible_plus_expose() {
        let mut ss = SafeSpec::new(ShadowModel::Spectre);
        let plan = ss.plan_unsafe_load(&UnsafeLoadCtx {
            core: 0,
            addr: 64,
            level: HitLevel::Memory,
            cycle: 0,
        });
        assert_eq!(
            plan,
            LoadPlan::Invisible {
                on_safe: Some(SafeAction::Expose),
                latency_override: None,
            }
        );
    }

    #[test]
    fn names_reflect_wait_mode() {
        assert_eq!(SafeSpec::new(ShadowModel::Spectre).name(), "SafeSpec-WFB");
        assert_eq!(
            SafeSpec::new(ShadowModel::Futuristic).name(),
            "SafeSpec-WFC"
        );
    }
}
