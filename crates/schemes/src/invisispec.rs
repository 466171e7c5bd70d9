//! InvisiSpec (Yan et al., MICRO'18).

use si_cpu::{LoadPlan, SafeAction, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// InvisiSpec: every speculative load executes **invisibly** — data is
/// returned into a per-load speculative buffer without changing any cache
/// state — and performs a visible *exposure* access once safe.
///
/// **Paper reference:** §2.2 (scheme zoo, Table 1 row "InvisiSpec"),
/// §2.1/§3.3.1 (Spectre vs Futuristic unprotection points), §3.2.2
/// (the `G^D_MSHR` gadget it stays vulnerable to).
///
/// **Mechanism.** Unlike Delay-on-Miss, *no* speculative load is ever
/// held back: hits and misses alike are serviced invisibly at honest
/// latency into the load's speculative buffer, and the cache fill is
/// re-played as a visible *exposure* access ([`SafeAction::Expose`])
/// when the load leaves its shadow. `Spectre` mode unprotects loads
/// once no older branch is unresolved; `Futuristic` mode waits until
/// nothing older can squash. Crucially for `G^D_MSHR`, invisible L1
/// misses still allocate MSHRs — the paper notes none of these designs
/// change the MSHR allocation policy, which is exactly the shared
/// resource the gadget contends on.
///
/// # Example
///
/// Every level gets the same plan — invisible now, exposed when safe:
///
/// ```
/// use si_cache::HitLevel;
/// use si_cpu::{LoadPlan, SafeAction, SpeculationScheme, UnsafeLoadCtx};
/// use si_schemes::{InvisiSpec, ShadowModel};
///
/// let mut spec = InvisiSpec::new(ShadowModel::Futuristic);
/// for level in [HitLevel::L1, HitLevel::Llc, HitLevel::Memory] {
///     let ctx = UnsafeLoadCtx { core: 0, addr: 0x2000, level, cycle: 0 };
///     assert_eq!(
///         spec.plan_unsafe_load(&ctx),
///         LoadPlan::Invisible {
///             on_safe: Some(SafeAction::Expose),
///             latency_override: None,
///         },
///     );
/// }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InvisiSpec {
    shadow: ShadowModel,
}

impl InvisiSpec {
    /// Creates InvisiSpec in the given mode.
    pub fn new(shadow: ShadowModel) -> InvisiSpec {
        InvisiSpec { shadow }
    }

    /// The configured shadow model.
    pub fn shadow(&self) -> ShadowModel {
        self.shadow
    }
}

impl SpeculationScheme for InvisiSpec {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn name(&self) -> String {
        format!("InvisiSpec-{}", self.shadow.suffix())
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
    fn every_level_executes_invisibly_with_exposure() {
        let mut is = InvisiSpec::new(ShadowModel::Spectre);
        for level in [HitLevel::L1, HitLevel::L2, HitLevel::Llc, HitLevel::Memory] {
            let plan = is.plan_unsafe_load(&UnsafeLoadCtx {
                core: 0,
                addr: 0,
                level,
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
    }

    #[test]
    fn names_distinguish_modes() {
        assert_eq!(
            InvisiSpec::new(ShadowModel::Spectre).name(),
            "InvisiSpec-Spectre"
        );
        assert_eq!(
            InvisiSpec::new(ShadowModel::Futuristic).name(),
            "InvisiSpec-Futuristic"
        );
    }
}
