//! Shadow models: what counts as "speculative".

use si_cpu::SafetyView;

/// When a load stops being speculative, per the threat models of §2.2/§5.2.
///
/// **Paper reference:** §2.1 (Spectre vs Futuristic threat models),
/// §3.3.1 (the non-TSO variant of DoM's unsafety condition).
///
/// The models are strictly ordered: everything `Futuristic` considers
/// safe is also `NonTso`-safe, and everything `NonTso`-safe is
/// `Spectre`-safe.
///
/// # Example
///
/// An older load still in flight separates the models — only
/// `Futuristic` keeps the younger instruction in its shadow:
///
/// ```
/// use si_cpu::{SafetyFlags, SafetyView};
/// use si_schemes::ShadowModel;
///
/// let older = SafetyFlags {
///     seq: 0,
///     unresolved_branch: false,
///     load_incomplete: true,
///     store_addr_unknown: false,
///     fence: false,
/// };
/// let younger = SafetyFlags { seq: 1, load_incomplete: false, ..older };
/// let view = SafetyView::from_flags([older, younger]);
/// assert!(ShadowModel::Spectre.is_safe(&view, 1));
/// assert!(ShadowModel::NonTso.is_safe(&view, 1));
/// assert!(!ShadowModel::Futuristic.is_safe(&view, 1));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum ShadowModel {
    /// Only unresolved branches cast shadows: a load is safe iff it is
    /// older than the oldest unresolved branch (the **Spectre** model).
    Spectre,
    /// As `Spectre`, but additionally all older stores must have resolved
    /// addresses — DoM's unsafety condition on architectures with a
    /// non-TSO memory consistency model (§3.3.1): "any load can execute
    /// without protection if all older branches have resolved and all
    /// older stores and loads have their addresses resolved". (Older
    /// *load* address resolution is subsumed by our conservative
    /// store-ordering LSU; see DESIGN.md.)
    NonTso,
    /// Nothing older may still squash: branches resolved, loads performed,
    /// store addresses known (the **Futuristic** model).
    Futuristic,
}

impl ShadowModel {
    /// Classifies the in-flight instruction `seq` under this model.
    pub fn is_safe(self, view: &SafetyView, seq: u64) -> bool {
        match self {
            ShadowModel::Spectre => view.spectre_safe(seq),
            ShadowModel::NonTso => view.spectre_safe(seq) && view.store_addrs_known(seq),
            ShadowModel::Futuristic => view.futuristic_safe(seq),
        }
    }

    /// Short suffix for scheme names.
    pub fn suffix(self) -> &'static str {
        match self {
            ShadowModel::Spectre => "Spectre",
            ShadowModel::NonTso => "NonTSO",
            ShadowModel::Futuristic => "Futuristic",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cpu::SafetyFlags;

    fn flags(seq: u64) -> SafetyFlags {
        SafetyFlags {
            seq,
            unresolved_branch: false,
            load_incomplete: false,
            store_addr_unknown: false,
            fence: false,
        }
    }

    #[test]
    fn models_order_by_strictness() {
        // An older incomplete load: Spectre-safe, NonTso-safe, not
        // Futuristic-safe.
        let mut f = vec![flags(0), flags(1)];
        f[0].load_incomplete = true;
        let v = SafetyView::from_flags(f);
        assert!(ShadowModel::Spectre.is_safe(&v, 1));
        assert!(ShadowModel::NonTso.is_safe(&v, 1));
        assert!(!ShadowModel::Futuristic.is_safe(&v, 1));
    }

    #[test]
    fn non_tso_blocks_on_unknown_store_addresses() {
        let mut f = vec![flags(0), flags(1)];
        f[0].store_addr_unknown = true;
        let v = SafetyView::from_flags(f);
        assert!(ShadowModel::Spectre.is_safe(&v, 1));
        assert!(!ShadowModel::NonTso.is_safe(&v, 1));
        assert!(!ShadowModel::Futuristic.is_safe(&v, 1));
    }

    #[test]
    fn all_models_agree_on_branch_shadows() {
        let mut f = vec![flags(0), flags(1)];
        f[0].unresolved_branch = true;
        let v = SafetyView::from_flags(f);
        for m in [
            ShadowModel::Spectre,
            ShadowModel::NonTso,
            ShadowModel::Futuristic,
        ] {
            assert!(!m.is_safe(&v, 1), "{m:?}");
            assert!(m.is_safe(&v, 0), "{m:?} head");
        }
    }
}
