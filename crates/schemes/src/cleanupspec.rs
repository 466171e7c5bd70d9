//! CleanupSpec (Saileshwar & Qureshi, MICRO'19).

use si_cache::Hierarchy;
use si_cpu::{LoadPlan, SafetyView, SpeculationScheme, UnsafeLoadCtx};

use crate::ShadowModel;

/// CleanupSpec: speculative loads access the caches **normally** (visible
/// fills), and on a squash the occupancy changes are *undone* — every line
/// filled by a squashed load is invalidated from the hierarchy.
///
/// **Paper reference:** §2.2 (scheme zoo; Table 1 row "CleanupSpec"),
/// §6 (the occupancy-channel discussion).
///
/// **Mechanism.** A rollback scheme rather than an invisibility scheme:
/// `plan_unsafe_load` always answers [`LoadPlan::Visible`], and the
/// core records which LLC lines each speculative load filled; on squash
/// the scheme flushes exactly those lines (`on_squash`). The paper (§6)
/// notes CleanupSpec "does not block speculative interference but makes
/// its exploitation more challenging": rollback restores *occupancy*,
/// not the precise replacement ages, and the original design leans on
/// randomized L1 replacement to blunt what remains. Pair this scheme
/// with [`si_cache::PolicyKind::Random`] in the L1 to model that
/// configuration — the `occupancy` experiment attacks exactly this
/// pairing.
///
/// # Example
///
/// Fills are visible; the squash hook is where the protection lives:
///
/// ```
/// use si_cache::HitLevel;
/// use si_cpu::{LoadPlan, SpeculationScheme, UnsafeLoadCtx};
/// use si_schemes::CleanupSpec;
///
/// let mut cs = CleanupSpec::new();
/// let ctx = UnsafeLoadCtx { core: 0, addr: 0x5000, level: HitLevel::Memory, cycle: 0 };
/// assert_eq!(cs.plan_unsafe_load(&ctx), LoadPlan::Visible);
/// assert_eq!(cs.undone(), 0); // counts lines rolled back at squashes
/// ```
#[derive(Debug, Clone, Copy)]
pub struct CleanupSpec {
    shadow: ShadowModel,
    undone: u64,
}

impl CleanupSpec {
    /// Creates CleanupSpec (Spectre shadows, as in the original design).
    pub fn new() -> CleanupSpec {
        CleanupSpec {
            shadow: ShadowModel::Spectre,
            undone: 0,
        }
    }

    /// Number of lines rolled back so far (diagnostic).
    pub fn undone(&self) -> u64 {
        self.undone
    }
}

impl Default for CleanupSpec {
    fn default() -> CleanupSpec {
        CleanupSpec::new()
    }
}

impl SpeculationScheme for CleanupSpec {
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }

    fn protects_ifetch(&self) -> bool {
        true // shadow/filter/rollback structures cover the I-side
    }

    fn name(&self) -> String {
        "CleanupSpec".to_owned()
    }

    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool {
        self.shadow.is_safe(view, seq)
    }

    fn plan_unsafe_load(&mut self, _ctx: &UnsafeLoadCtx) -> LoadPlan {
        LoadPlan::Visible
    }

    fn on_squash(&mut self, hierarchy: &mut Hierarchy, _core: usize, spec_filled_lines: &[u64]) {
        for line in spec_filled_lines {
            hierarchy.flush_addr(line * si_cache::LINE_BYTES);
            self.undone += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cache::{AccessClass, HierarchyConfig, HitLevel, Visibility};

    #[test]
    fn speculative_loads_fill_visibly() {
        let mut cs = CleanupSpec::new();
        let plan = cs.plan_unsafe_load(&UnsafeLoadCtx {
            core: 0,
            addr: 0x4000,
            level: HitLevel::Memory,
            cycle: 0,
        });
        assert_eq!(plan, LoadPlan::Visible);
    }

    #[test]
    fn squash_rolls_back_recorded_fills() {
        let mut cs = CleanupSpec::new();
        let mut h = Hierarchy::new(HierarchyConfig::kaby_lake_like(1));
        h.read(0, 0, 0x4000, AccessClass::Data, Visibility::Visible);
        assert!(h.resident_anywhere(0x4000));
        cs.on_squash(&mut h, 0, &[0x4000 / si_cache::LINE_BYTES]);
        assert!(!h.resident_anywhere(0x4000));
        assert_eq!(cs.undone(), 1);
    }

    #[test]
    fn squash_with_no_fills_is_a_no_op() {
        let mut cs = CleanupSpec::new();
        let mut h = Hierarchy::new(HierarchyConfig::kaby_lake_like(1));
        h.read(0, 0, 0x8000, AccessClass::Data, Visibility::Visible);
        cs.on_squash(&mut h, 0, &[]);
        assert!(h.resident_anywhere(0x8000));
    }
}
