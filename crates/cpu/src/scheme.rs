//! The speculation-scheme interface.
//!
//! Invisible-speculation proposals differ only in *when a speculative load
//! may touch the memory hierarchy and what happens when it becomes safe*
//! (§2.2). This module defines that policy surface; `si-schemes` provides
//! the implementations (Delay-on-Miss, InvisiSpec, SafeSpec, MuonTrap,
//! Conditional Speculation, CleanupSpec, and the §5 defenses). The core
//! consults the active scheme:
//!
//! * at every data access of a load that is not yet **safe**
//!   ([`SpeculationScheme::plan_unsafe_load`]);
//! * to promote deferred loads once they have become safe;
//! * at squashes ([`SpeculationScheme::on_squash`]), for schemes with
//!   rollback or filter state;
//! * at issue ([`SpeculationScheme::blocks_issue`]) and in the scheduler
//!   (resource-holding hooks), for the §5.2/§5.4 defenses.

use si_cache::{Hierarchy, HitLevel};

/// Per-entry facts the safety models need, in ROB (program) order — the
/// input of the from-scratch [`SafetyView::from_flags`] build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyFlags {
    /// Global sequence number of the instruction.
    pub seq: u64,
    /// A conditional branch that has not resolved.
    pub unresolved_branch: bool,
    /// A load whose data has not returned (including delayed loads).
    pub load_incomplete: bool,
    /// A store or flush whose address is not yet known.
    pub store_addr_unknown: bool,
    /// An unretired `Fence` instruction.
    pub fence: bool,
}

/// The safety frontier: for each kind of instruction that can cast a
/// shadow (§2.2/§5.2), the sequence number of the **oldest** one still in
/// flight, or [`SafetyView::NONE`] when there is none. An instruction is
/// shadowed by a kind iff that kind's frontier is older than it, so every
/// shadow-model query is one comparison by sequence number.
///
/// The core keeps the frontier current at the events that move it
/// (dispatch, writeback, retire, squash); [`SafetyView::from_flags`] is the
/// from-scratch build the incremental one is checked against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SafetyView {
    /// Oldest unresolved conditional branch.
    pub branch: u64,
    /// Oldest load whose data has not returned.
    pub load: u64,
    /// Oldest store or flush whose address is unknown.
    pub store: u64,
    /// Oldest unretired `Fence`.
    pub fence: u64,
}

impl Default for SafetyView {
    fn default() -> SafetyView {
        SafetyView::CLEAR
    }
}

impl SafetyView {
    /// Frontier value meaning "nothing of this kind in flight".
    pub const NONE: u64 = u64::MAX;

    /// The frontier of an empty ROB: nothing shadows anything.
    pub const CLEAR: SafetyView = SafetyView {
        branch: SafetyView::NONE,
        load: SafetyView::NONE,
        store: SafetyView::NONE,
        fence: SafetyView::NONE,
    };

    /// Builds the frontier from scratch out of per-entry flags (any
    /// order): the oldest flagged sequence number of each kind.
    pub fn from_flags(flags: impl IntoIterator<Item = SafetyFlags>) -> SafetyView {
        let mut view = SafetyView::CLEAR;
        for f in flags {
            if f.unresolved_branch {
                view.branch = view.branch.min(f.seq);
            }
            if f.load_incomplete {
                view.load = view.load.min(f.seq);
            }
            if f.store_addr_unknown {
                view.store = view.store.min(f.seq);
            }
            if f.fence {
                view.fence = view.fence.min(f.seq);
            }
        }
        view
    }

    /// **Spectre model** safety of instruction `seq`: safe iff no older
    /// branch is unresolved ("a load is non-speculative iff it is older
    /// than the oldest unresolved branch", §1).
    pub fn spectre_safe(&self, seq: u64) -> bool {
        self.branch >= seq
    }

    /// Whether every store and flush older than `seq` has a known address
    /// (the extra condition of DoM's non-TSO model, §3.3.1).
    pub fn store_addrs_known(&self, seq: u64) -> bool {
        self.store >= seq
    }

    /// **Futuristic model** safety: safe iff no older instruction can still
    /// squash — every older branch resolved, every older load performed,
    /// every older store/flush address known (§5.2; InvisiSpec's
    /// Futuristic mode unprotects a load "only when it becomes the oldest
    /// load or the oldest instruction in the ROB").
    pub fn futuristic_safe(&self, seq: u64) -> bool {
        self.branch.min(self.load).min(self.store) >= seq
    }

    /// Whether an unretired program-level `Fence` is older than `seq`.
    pub fn fence_blocked(&self, seq: u64) -> bool {
        self.fence < seq
    }
}

/// What to do when an invisibly executed load becomes safe.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SafeAction {
    /// Apply the deferred replacement-state update (Delay-on-Miss after a
    /// speculative L1 hit).
    TouchReplacement,
    /// Perform the full visible access — InvisiSpec/SafeSpec *exposure*:
    /// fill every level as a normal access would have.
    Expose,
}

/// The scheme's decision for one not-yet-safe load access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadPlan {
    /// Access normally (visible fills) — the unsafe baseline, or
    /// CleanupSpec (which undoes fills on squash via
    /// [`SpeculationScheme::on_squash`]).
    Visible,
    /// Execute invisibly: return data with honest latency, change no cache
    /// state now; apply `on_safe` when the load becomes safe.
    Invisible {
        /// Deferred state change, if any.
        on_safe: Option<SafeAction>,
        /// Overrides the probe latency (e.g. MuonTrap's L0 filter-cache
        /// hit, serviced at L1 speed from scheme-private state).
        latency_override: Option<u64>,
    },
    /// Delay the access entirely; the core re-issues it visibly when the
    /// load becomes safe (Delay-on-Miss).
    Delay,
}

/// Context handed to [`SpeculationScheme::plan_unsafe_load`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnsafeLoadCtx {
    /// Issuing core.
    pub core: usize,
    /// Load's effective address.
    pub addr: u64,
    /// Where a probe says the line would hit (no state was changed).
    pub level: HitLevel,
    /// Current cycle.
    pub cycle: u64,
}

/// An invisible-speculation scheme or defense, as seen by the core.
///
/// Implementations must be deterministic, and — so checkpointed machines
/// can be shared across trial workers — thread-safe plain data
/// (`Send + Sync`). All methods with default bodies are optional hooks
/// for defenses and rollback schemes.
pub trait SpeculationScheme: std::fmt::Debug + Send + Sync {
    /// Human-readable name (used in experiment tables).
    fn name(&self) -> String;

    /// Classifies the in-flight instruction `seq` as safe
    /// (retirement-bound for the scheme's shadow model) or still
    /// speculative, given the current safety frontier. Must be monotone
    /// in age — if `seq` is safe, so is every older in-flight
    /// instruction — as every frontier comparison is: safe promotion
    /// stops at the first unsafe deferred load.
    fn is_safe(&self, view: &SafetyView, seq: u64) -> bool;

    /// Plans the data access of a load that is **not** safe.
    fn plan_unsafe_load(&mut self, ctx: &UnsafeLoadCtx) -> LoadPlan;

    /// Clones the scheme behind its box, including any private state
    /// (MuonTrap's filter cache, a shadow model's bookkeeping). Required
    /// so a whole core — and with it a machine checkpoint — can be
    /// duplicated for copy-on-write trial forking.
    fn boxed_clone(&self) -> Box<dyn SpeculationScheme>;

    /// Called when a mispredicted branch squashes; `spec_filled_lines` are
    /// LLC line addresses filled by squashed loads that accessed visibly
    /// (CleanupSpec's undo set), and `scheme-private` state such as
    /// MuonTrap's filter cache should be cleared here.
    fn on_squash(&mut self, hierarchy: &mut Hierarchy, core: usize, spec_filled_lines: &[u64]) {
        let _ = (hierarchy, core, spec_filled_lines);
    }

    /// Scheduler hook: returning `true` stalls issue of instruction `seq`
    /// this cycle (the §5.2 basic fence defense).
    fn blocks_issue(&self, view: &SafetyView, seq: u64) -> bool {
        let _ = (view, seq);
        false
    }

    /// §5.4 rule 1 ("no instruction releases its hardware resources while
    /// speculative"): when `true`, reservation-station entries are held
    /// until retirement and non-pipelined units are held until their
    /// occupant is safe.
    fn holds_resources_until_safe(&self) -> bool {
        false
    }

    /// Whether the scheme also shields the **instruction cache** from
    /// mis-speculated fetches (SafeSpec's shadow I-cache, MuonTrap's
    /// instruction filter cache, CleanupSpec's rollback). When `true`, the
    /// core rolls back I-side fills performed on a squashed path. Schemes
    /// that leave the I-cache unprotected — InvisiSpec and DoM, per
    /// §3.2.2/Table 1 — keep the default `false`, which is what the
    /// `G^I_RS` attack exploits.
    fn protects_ifetch(&self) -> bool {
        false
    }

    /// §5.4 rule 2 ("no instruction ever delays an older instruction"):
    /// when `true`, a younger instruction may not issue to a non-pipelined
    /// unit while any older instruction that needs the same unit is still
    /// waiting.
    fn strict_age_priority(&self) -> bool {
        false
    }
}

/// The unprotected baseline: every load is safe, every access visible —
/// a conventional out-of-order core with no defense (the paper's "unsafe
/// baseline").
#[derive(Debug, Clone, Copy, Default)]
pub struct Unprotected;

impl SpeculationScheme for Unprotected {
    fn name(&self) -> String {
        "Unprotected".to_owned()
    }

    fn is_safe(&self, _view: &SafetyView, _seq: u64) -> bool {
        true
    }

    fn plan_unsafe_load(&mut self, _ctx: &UnsafeLoadCtx) -> LoadPlan {
        LoadPlan::Visible
    }

    fn boxed_clone(&self) -> Box<dyn SpeculationScheme> {
        Box::new(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn spectre_safety_tracks_unresolved_branches() {
        let mut f = vec![flags(0), flags(1), flags(2)];
        f[1].unresolved_branch = true;
        let v = SafetyView::from_flags(f);
        assert!(v.spectre_safe(0));
        assert!(v.spectre_safe(1)); // the branch itself is safe
        assert!(!v.spectre_safe(2)); // shadowed by the branch
    }

    #[test]
    fn futuristic_safety_is_stricter() {
        let mut f = vec![flags(0), flags(1), flags(2)];
        f[0].load_incomplete = true;
        let v = SafetyView::from_flags(f);
        assert!(v.spectre_safe(2), "no branches -> spectre safe");
        assert!(!v.futuristic_safe(1), "older incomplete load blocks");
        assert!(!v.futuristic_safe(2));
        assert!(v.futuristic_safe(0), "head is always futuristic-safe");
    }

    #[test]
    fn store_addresses_block_futuristic() {
        let mut f = vec![flags(0), flags(1)];
        f[0].store_addr_unknown = true;
        let v = SafetyView::from_flags(f);
        assert!(!v.futuristic_safe(1));
        assert!(!v.store_addrs_known(1));
        assert!(v.store_addrs_known(0));
    }

    #[test]
    fn fences_block_younger_instructions_only() {
        let mut f = vec![flags(0), flags(1), flags(2)];
        f[1].fence = true;
        let v = SafetyView::from_flags(f);
        assert!(!v.fence_blocked(1));
        assert!(v.fence_blocked(2));
    }

    #[test]
    fn the_frontier_is_the_oldest_flagged_seq_with_gaps() {
        // Live seqs have gaps after a squash; only order matters.
        let mut f = vec![flags(5), flags(9), flags(12)];
        f[1].unresolved_branch = true;
        f[2].unresolved_branch = true;
        let v = SafetyView::from_flags(f);
        assert_eq!(v.branch, 9);
        assert_eq!(v.load, SafetyView::NONE);
        assert!(v.spectre_safe(9) && !v.spectre_safe(12));
        assert_eq!(SafetyView::from_flags([]), SafetyView::CLEAR);
    }

    #[test]
    fn unprotected_never_restricts() {
        let v = SafetyView::from_flags([flags(0)]);
        let s = Unprotected;
        assert!(s.is_safe(&v, 0));
        assert!(!s.blocks_issue(&v, 0));
        assert!(!s.holds_resources_until_safe());
        assert!(!s.strict_age_priority());
    }
}
