//! # `si-attack` — end-to-end interference-attack scenarios and leakage scoring
//!
//! The defense simulator can model every invisible-speculation scheme;
//! this crate answers the question the paper's headline result turns on:
//! **does a given scheme actually leak under a speculative interference
//! attack, and how fast?** It packages one attack *scenario* per
//! (interference variant × scheme × machine geometry × noise
//! environment) cell and scores the recovered secret bits:
//!
//! * an [`AttackScenario`] wires a victim gadget (a secret-dependent
//!   speculative load behind a mistrained branch, built by
//!   `si_core::victims`) to an interference **transmitter** — the
//!   [`InterferenceVariant::MshrPressure`] gadget exhausts the MSHR file
//!   with secret-strided loads (§3.2.2, Figure 4); the
//!   [`InterferenceVariant::PortContention`] gadget monopolises the
//!   non-pipelined port-0 unit with a square-root chain (§3.2.2,
//!   Figure 3) — and runs the victim against the cross-core **receiver**
//!   on the second core of the shared [`si_cpu::Machine`]: a
//!   prime+probe [`si_core::OrderReceiver`] over one LLC set, decoding
//!   which of the two ordered accesses happened first from QLRU
//!   replacement state (§4.2.2);
//! * [`PreparedScenario::run_bit_trial`] transmits one secret bit per
//!   seeded trial — a pure function of `(scenario, secret, seed)`, so a
//!   harness can fan trials out across threads and stay bit-identical;
//! * [`leakage`] turns a batch of trials into the channel metrics the
//!   evaluation reports: bit accuracy, trials-to-95%-confidence under
//!   majority voting, and channel bandwidth at the paper's 3.6 GHz
//!   clock (§4.4).
//!
//! The qualitative acceptance bar (the paper's Table 1 row for these
//! gadgets): invisible-speculation schemes score accuracy ≫ 0.5 while
//! the full fence defense stays ≈ 0.5 — see `tests/attack_e2e.rs`.
//!
//! # Example
//!
//! ```no_run
//! use si_attack::{AttackScenario, InterferenceVariant};
//! use si_cpu::{GeometryPreset, NoisePreset};
//! use si_schemes::SchemeKind;
//!
//! let scenario = AttackScenario::new(
//!     InterferenceVariant::PortContention,
//!     SchemeKind::DomSpectre,
//!     GeometryPreset::KabyLake,
//!     NoisePreset::Quiet,
//! );
//! let prepared = scenario.prepare();
//! let trial = prepared.run_bit_trial(1, 42);
//! assert_eq!(trial.decoded, Some(1));
//! ```

pub mod leakage;

use si_core::attacks::{Attack, AttackKind, TrialCheckpoint};
use si_cpu::{GeometryPreset, MachineConfig, NoisePreset, PredictorPreset};
use si_schemes::SchemeKind;

pub use leakage::{score, secret_bits, trials_to_confidence, LeakageScore};

/// The interference transmitter a scenario mounts inside the victim's
/// mis-speculated window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterferenceVariant {
    /// `G^D_MSHR`: secret-strided loads that either exhaust every MSHR
    /// (secret 1, distinct lines) or coalesce into one (secret 0, one
    /// shared line), delaying the victim's bound-to-retire load past the
    /// attacker's fixed-time reference access (VD-AD ordering).
    MshrPressure,
    /// `G^D_NPEU`: a transmitter-fed square-root chain contending for
    /// the non-pipelined port-0 unit, delaying the victim's `f(z)` load
    /// past its own reference load (VD-VD ordering).
    PortContention,
}

impl InterferenceVariant {
    /// All variants, in presentation order.
    pub fn all() -> Vec<InterferenceVariant> {
        vec![
            InterferenceVariant::MshrPressure,
            InterferenceVariant::PortContention,
        ]
    }

    /// Canonical CLI/JSON slug.
    pub fn slug(self) -> &'static str {
        match self {
            InterferenceVariant::MshrPressure => "mshr-pressure",
            InterferenceVariant::PortContention => "port-contention",
        }
    }

    /// Parses a slug (case-insensitive), as printed by
    /// [`slug`](Self::slug).
    pub fn parse(text: &str) -> Option<InterferenceVariant> {
        let needle = text.to_ascii_lowercase();
        InterferenceVariant::all()
            .into_iter()
            .find(|v| v.slug() == needle)
    }

    /// Short table label.
    pub fn label(self) -> &'static str {
        match self {
            InterferenceVariant::MshrPressure => "G^D_MSHR (VD-AD)",
            InterferenceVariant::PortContention => "G^D_NPEU (VD-VD)",
        }
    }

    /// The `si-core` attack this variant mounts.
    pub fn attack_kind(self) -> AttackKind {
        match self {
            InterferenceVariant::MshrPressure => AttackKind::MshrVdAd,
            InterferenceVariant::PortContention => AttackKind::NpeuVdVd,
        }
    }
}

/// One attack-evaluation cell: which transmitter, against which scheme,
/// on which machine.
#[derive(Debug, Clone, PartialEq)]
pub struct AttackScenario {
    /// The interference transmitter.
    pub variant: InterferenceVariant,
    /// The speculation scheme under attack.
    pub scheme: SchemeKind,
    /// Cache geometry of the shared machine.
    pub geometry: GeometryPreset,
    /// Noise environment the trials run under.
    pub noise: NoisePreset,
    /// Force the from-scratch trial path even on checkpointable cells
    /// (the `--no-checkpoint` differential mode). Folded into the machine
    /// config — and therefore into unit fingerprints — so cached results
    /// from the two paths never alias.
    pub disable_checkpoint: bool,
    /// Run this victim program instead of the one the variant's attack
    /// kind builds. The scan confirm stage sets this to mount the attack
    /// around the exact program a [`si_scan::Finding`] came from; the
    /// program must follow the rendezvous victim scaffold
    /// (`si_core::victims`) with [`si_core::DEFAULT_TRAIN_ITERS`]
    /// training rounds and the default kaby-lake address plan.
    pub victim_override: Option<si_isa::Program>,
}

impl AttackScenario {
    /// Builds a scenario cell.
    pub fn new(
        variant: InterferenceVariant,
        scheme: SchemeKind,
        geometry: GeometryPreset,
        noise: NoisePreset,
    ) -> AttackScenario {
        AttackScenario {
            variant,
            scheme,
            geometry,
            noise,
            disable_checkpoint: false,
            victim_override: None,
        }
    }

    /// Synthesizes the confirm-stage scenario for a static scan finding:
    /// the finding's channel picks the interference variant whose
    /// receiver can observe it, and the scanned program itself becomes
    /// the victim. Returns `None` for channels with no runnable template
    /// (e.g. `branch-resolve`). Geometry and noise are pinned to the
    /// quiet default machine — the same one the corpus layouts are
    /// planned against — so confirmation stays deterministic.
    pub fn from_finding(
        finding: &si_scan::Finding,
        scheme: SchemeKind,
        victim: si_isa::Program,
    ) -> Option<AttackScenario> {
        let variant = match finding.channel.confirm_class()? {
            si_scan::ConfirmClass::MshrPressure => InterferenceVariant::MshrPressure,
            si_scan::ConfirmClass::PortContention => InterferenceVariant::PortContention,
        };
        let mut scenario = AttackScenario::new(
            variant,
            scheme,
            GeometryPreset::KabyLake,
            NoisePreset::Quiet,
        );
        scenario.victim_override = Some(victim);
        Some(scenario)
    }

    /// The machine configuration trials run on (per-trial noise seeds
    /// are applied by [`PreparedScenario::run_bit_trial`]).
    pub fn machine(&self) -> MachineConfig {
        let mut cfg = MachineConfig::from_presets(self.geometry, self.noise, PredictorPreset::P1k);
        cfg.disable_checkpoint = self.disable_checkpoint;
        cfg
    }

    fn attack(&self) -> Attack {
        let mut attack = Attack::new(self.variant.attack_kind(), self.scheme, self.machine());
        attack.victim_override = self.victim_override.clone();
        attack
    }

    /// Resolves everything per-trial runs share: the attacker's
    /// fixed-time reference offset for the VD-AD ordering (auto-calibrated
    /// on a noise-free machine, deterministic, so every caller computes
    /// the same value), and — on checkpointable cells — one parked
    /// [`TrialCheckpoint`] per secret value, so each subsequent trial
    /// forks the warm machine instead of re-simulating warmup, mistraining
    /// and calibration. Prepare once per cell, not per trial.
    pub fn prepare(&self) -> PreparedScenario {
        let attack = self.attack();
        let reference_delta = attack.resolved_reference_delta();
        let checkpoints = if attack.checkpointable() {
            match (attack.checkpoint_trial(0), attack.checkpoint_trial(1)) {
                (Some(c0), Some(c1)) => Some(Box::new([c0, c1])),
                // Training timed out: fall back to the scratch path, which
                // reports the timeout per-trial exactly as before.
                _ => None,
            }
        } else {
            None
        };
        PreparedScenario {
            scenario: self.clone(),
            reference_delta,
            checkpoints,
        }
    }
}

/// A scenario with its shared per-cell state resolved (see
/// [`AttackScenario::prepare`]).
#[derive(Debug, Clone)]
pub struct PreparedScenario {
    scenario: AttackScenario,
    reference_delta: Option<u64>,
    /// Parked machine snapshots for secrets 0 and 1; `None` when the cell
    /// is not checkpointable (noisy presets, `disable_checkpoint`) or
    /// training timed out. Boxed to keep the struct small; the snapshots
    /// inside are `Arc`-shared, so cloning a `PreparedScenario` stays
    /// cheap.
    checkpoints: Option<Box<[TrialCheckpoint; 2]>>,
}

/// The outcome of transmitting one secret bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BitTrial {
    /// The bit the victim held.
    pub secret: u64,
    /// What the receiver decoded (`None`: undecodable state, e.g.
    /// co-tenant noise evicted both probe lines).
    pub decoded: Option<u64>,
    /// Simulated cycles the trial consumed (training included).
    pub cycles: u64,
}

impl PreparedScenario {
    /// The scenario this was prepared from.
    pub fn scenario(&self) -> &AttackScenario {
        &self.scenario
    }

    /// The calibrated attacker-reference offset, for orderings that use
    /// one.
    pub fn reference_delta(&self) -> Option<u64> {
        self.reference_delta
    }

    /// Whether trials of this cell run from checkpoint forks (see
    /// [`AttackScenario::prepare`]).
    pub fn checkpointed(&self) -> bool {
        self.checkpoints.is_some()
    }

    /// Transmits one secret bit: one attack episode, one receiver decode.
    /// Pure function of `(self, secret, seed)` — `seed` drives only the
    /// injected noise, so quiet-machine trials are seed-independent and
    /// noisy trials are reproducible. On checkpointable cells the trial
    /// forks the parked per-secret snapshot; otherwise it re-runs the
    /// machine from scratch. Both paths produce byte-identical results —
    /// `--no-checkpoint` in the CLI forces the scratch path to prove it.
    pub fn run_bit_trial(&self, secret: u64, seed: u64) -> BitTrial {
        let mut attack = self.scenario.attack();
        attack.machine.noise.seed = seed;
        attack.reference_delta = self.reference_delta;
        let result = match &self.checkpoints {
            Some(cks) => attack.run_trial_from(&cks[(secret & 1) as usize]),
            None => attack.run_trial(secret),
        };
        BitTrial {
            secret,
            decoded: result.decoded,
            cycles: result.cycles,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn variant_slugs_round_trip() {
        for v in InterferenceVariant::all() {
            assert_eq!(InterferenceVariant::parse(v.slug()), Some(v), "{v:?}");
        }
        assert_eq!(
            InterferenceVariant::parse("MSHR-PRESSURE"),
            Some(InterferenceVariant::MshrPressure)
        );
        assert_eq!(InterferenceVariant::parse("nope"), None);
    }

    /// The differential contract behind `--no-checkpoint`: trials run
    /// from a checkpoint fork must be byte-identical to the same trials
    /// run from scratch, for both secrets and multiple seeds.
    #[test]
    fn checkpointed_and_scratch_trials_are_byte_identical() {
        for variant in InterferenceVariant::all() {
            let mut scenario = AttackScenario::new(
                variant,
                SchemeKind::InvisiSpecSpectre,
                GeometryPreset::KabyLake,
                NoisePreset::Quiet,
            );
            let fast = scenario.prepare();
            assert!(fast.checkpointed(), "{variant:?}");
            scenario.disable_checkpoint = true;
            let slow = scenario.prepare();
            assert!(!slow.checkpointed(), "{variant:?}");
            assert_eq!(fast.reference_delta(), slow.reference_delta());
            for secret in [0u64, 1] {
                for seed in [11u64, 42] {
                    assert_eq!(
                        fast.run_bit_trial(secret, seed),
                        slow.run_bit_trial(secret, seed),
                        "{variant:?} secret={secret} seed={seed}"
                    );
                }
            }
        }
    }

    /// Noisy presets draw from the RNG streams during setup, so they must
    /// refuse checkpointing and keep the scratch path.
    #[test]
    fn noisy_cells_fall_back_to_the_scratch_path() {
        let prepared = AttackScenario::new(
            InterferenceVariant::PortContention,
            SchemeKind::Unprotected,
            GeometryPreset::KabyLake,
            NoisePreset::Jitter,
        )
        .prepare();
        assert!(!prepared.checkpointed());
    }

    #[test]
    fn only_the_vd_ad_ordering_needs_a_reference_delta() {
        let quiet = |v| {
            AttackScenario::new(
                v,
                SchemeKind::Unprotected,
                GeometryPreset::KabyLake,
                NoisePreset::Quiet,
            )
        };
        assert!(quiet(InterferenceVariant::MshrPressure)
            .prepare()
            .reference_delta()
            .is_some());
        assert!(quiet(InterferenceVariant::PortContention)
            .prepare()
            .reference_delta()
            .is_none());
    }
}
