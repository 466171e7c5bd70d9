//! The basic defense of §5.2: automatic fences after squashable
//! instructions.

use si_cpu::{LoadPlan, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// The §5.2 basic defense: "when instructions that might cause a
/// mis-speculation are inserted in the ROB, the hardware automatically
/// inserts a special type of fence. The fence allows subsequent
/// instructions to be inserted into the ROB, but prevents them from being
/// issued until the instruction before the fence becomes non-speculative."
///
/// **Paper reference:** §5.2 (the defense), §5.3 (its SPEC2017 cost,
/// reproduced in Figure 12 / the `defense` sweep grid).
///
/// **Mechanism.** Implemented as an issue-stage gate (`blocks_issue`):
/// an instruction may not issue while it is speculative under the
/// configured model — `Spectre` places the implicit fence after every
/// branch; `Futuristic` after every squashable instruction. Frontend
/// fetch is *not* gated (the fence allows dispatch), so wrong-path
/// instruction fetches still occur; they can no longer be
/// secret-dependent because no transmitter ever issues (see DESIGN.md
/// and the checker's two modes). This achieves ideal invisible
/// speculation on the data side at the §5.3 performance cost.
///
/// # Example
///
/// Nothing younger than an unresolved branch may issue; the branch
/// itself may:
///
/// ```
/// use si_cpu::{SafetyFlags, SafetyView, SpeculationScheme};
/// use si_schemes::{FenceDefense, ShadowModel};
///
/// let fence = FenceDefense::new(ShadowModel::Spectre);
/// let branch = SafetyFlags {
///     seq: 0,
///     unresolved_branch: true,
///     load_incomplete: false,
///     store_addr_unknown: false,
///     fence: false,
/// };
/// let younger = SafetyFlags { seq: 1, unresolved_branch: false, ..branch };
/// let view = SafetyView::from_flags([branch, younger]);
/// assert!(!fence.blocks_issue(&view, 0));
/// assert!(fence.blocks_issue(&view, 1));
/// ```
#[derive(Debug, Clone, Copy)]
pub struct FenceDefense {
    model: ShadowModel,
}

impl FenceDefense {
    /// Creates the fence defense under the given threat model.
    pub fn new(model: ShadowModel) -> FenceDefense {
        FenceDefense { model }
    }

    /// The configured threat model.
    pub fn model(&self) -> ShadowModel {
        self.model
    }
}

impl SpeculationScheme for FenceDefense {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn name(&self) -> String {
        format!("Fence-{}", self.model.suffix())
    }

    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        self.model.is_safe(view, seq)
    }

    fn plan_unsafe_load(&mut self, _ctx: &UnsafeLoadCtx) -> LoadPlan {
        // Unreachable in practice: an instruction only issues once safe,
        // and safety is monotonic (nothing older can become unresolved), so
        // every load that reaches its data access is already safe. Answer
        // conservatively anyway.
        LoadPlan::Delay
    }

    fn blocks_issue(&self, view: &SafetyView, seq: u64) -> bool {
        !self.model.is_safe(view, seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cpu::SafetyFlags;

    fn flags(seq: u64, unresolved_branch: bool) -> SafetyFlags {
        SafetyFlags {
            seq,
            unresolved_branch,
            load_incomplete: false,
            store_addr_unknown: false,
            fence: false,
        }
    }

    #[test]
    fn issue_blocked_behind_unresolved_branch() {
        let fence = FenceDefense::new(ShadowModel::Spectre);
        let v = SafetyView::from_flags([flags(0, true), flags(1, false)]);
        assert!(!fence.blocks_issue(&v, 0), "the branch itself may issue");
        assert!(fence.blocks_issue(&v, 1), "younger instruction is fenced");
    }

    #[test]
    fn futuristic_model_blocks_behind_incomplete_loads() {
        let fence = FenceDefense::new(ShadowModel::Futuristic);
        let mut f = vec![flags(0, false), flags(1, false)];
        f[0].load_incomplete = true;
        let v = SafetyView::from_flags(f);
        assert!(fence.blocks_issue(&v, 1));
        let spectre = FenceDefense::new(ShadowModel::Spectre);
        assert!(!spectre.blocks_issue(&v, 1));
    }

    #[test]
    fn names_reflect_model() {
        assert_eq!(
            FenceDefense::new(ShadowModel::Spectre).name(),
            "Fence-Spectre"
        );
        assert_eq!(
            FenceDefense::new(ShadowModel::Futuristic).name(),
            "Fence-Futuristic"
        );
    }
}
