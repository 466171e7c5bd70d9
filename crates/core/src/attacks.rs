//! End-to-end speculative interference attacks (§4).
//!
//! Each attack wires a victim program, a rendezvous-driven attacker, and a
//! receiver into a single *trial*: given a secret bit planted in victim
//! memory, the trial returns what the cross-core receiver decoded. A
//! correct decode of both secret values demonstrates the covert channel;
//! the Table 1 matrix and the Figure 11 channel sweeps are built from
//! trials.

use si_cpu::{AgentOp, Machine, MachineCheckpoint, MachineConfig, Timeout};
use si_schemes::SchemeKind;

use crate::receiver::{Decoded, FlushReload, OrderReceiver};
use crate::rendezvous::{drain_to_halt, release, wait_for_park};
use crate::victims::{
    irs_victim, mshr_victim, npeu_victim, npeu_victim_padded, spectre_v1_victim, NpeuVariant,
    Scaffold,
};
use crate::AttackLayout;

/// Victim core index in every experiment.
pub const VICTIM_CORE: usize = 0;
/// Attacker (receiver) core index — the CrossCore model of §2.1.
pub const ATTACKER_CORE: usize = 1;

/// Cycle budget per trial.
const TRIAL_BUDGET: u64 = 2_000_000;

/// Default training iterations per trial ([`Attack::new`]); victim
/// programs built outside [`Attack`] (e.g. the scan corpus) must bake
/// the same depth into their scaffold or the rendezvous counts diverge.
pub const DEFAULT_TRAIN_ITERS: usize = 6;

/// Result of one attack trial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrialResult {
    /// The bit the receiver decoded, if the state was decodable.
    pub decoded: Option<u64>,
    /// Simulated cycles the whole trial took (training included).
    pub cycles: u64,
    /// Victim-core pipeline trace (empty unless [`Attack::trace`] is set).
    pub trace: Vec<(u64, si_cpu::TraceEvent)>,
}

/// A trial parked at its attack round: the machine snapshot plus the
/// cycle-accounting anchors from setup. Produced by
/// [`Attack::checkpoint_trial`], consumed (any number of times) by
/// [`Attack::run_trial_from`]. Cloning is cheap — the snapshot is shared
/// copy-on-write via [`MachineCheckpoint`].
#[derive(Debug, Clone)]
pub struct TrialCheckpoint {
    checkpoint: MachineCheckpoint,
    secret: u64,
    start: u64,
    deadline: u64,
}

impl TrialCheckpoint {
    /// The secret bit this checkpoint's victim was planted with — forks
    /// replay the attack round for this secret only.
    pub fn secret(&self) -> u64 {
        self.secret
    }

    /// The cycle the snapshot is parked at.
    pub fn cycle(&self) -> u64 {
        self.checkpoint.cycle()
    }
}

/// The attack selector: which gadget and which ordering (§3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum AttackKind {
    /// `G^D_NPEU` reordering two victim loads (VD-VD, Figure 6).
    NpeuVdVd,
    /// `G^D_NPEU` against an attacker reference access (VD-AD).
    NpeuVdAd,
    /// `G^D_NPEU` delaying the squash: post-squash fetch vs victim load
    /// (VD-VI).
    NpeuVdVi,
    /// `G^D_NPEU` delaying the squash: post-squash fetch vs attacker
    /// reference (VI-AD).
    NpeuViAd,
    /// `G^D_MSHR` against an attacker reference access (VD-AD, Figure 4).
    MshrVdAd,
    /// `G^I_RS` frontend throttling observed through the I-cache footprint
    /// (VI, Figures 5 & 10).
    IrsICache,
    /// Classic Spectre v1 through a transient cache fill (the baseline the
    /// schemes were built to stop).
    SpectreV1,
}

impl AttackKind {
    /// All interference attacks (excludes the Spectre v1 baseline).
    pub fn interference_attacks() -> Vec<AttackKind> {
        vec![
            AttackKind::NpeuVdVd,
            AttackKind::NpeuVdAd,
            AttackKind::NpeuVdVi,
            AttackKind::NpeuViAd,
            AttackKind::MshrVdAd,
            AttackKind::IrsICache,
        ]
    }

    /// Short label for tables.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::NpeuVdVd => "G^D_NPEU / VD-VD",
            AttackKind::NpeuVdAd => "G^D_NPEU / VD-AD",
            AttackKind::NpeuVdVi => "G^D_NPEU / VD-VI",
            AttackKind::NpeuViAd => "G^D_NPEU / VI-AD",
            AttackKind::MshrVdAd => "G^D_MSHR / VD-AD",
            AttackKind::IrsICache => "G^I_RS / VI",
            AttackKind::SpectreV1 => "Spectre v1",
        }
    }
}

/// A configured attack instance, reusable across trials.
#[derive(Debug, Clone)]
pub struct Attack {
    /// Which attack this runs.
    pub kind: AttackKind,
    /// Machine configuration (noise knobs included).
    pub machine: MachineConfig,
    /// Scheme under attack.
    pub scheme: SchemeKind,
    /// Training iterations per trial.
    pub train_iters: usize,
    /// Fixed-time reference offset (cycles after episode release) for the
    /// attacker-reference orderings; `None` means calibrate automatically.
    pub reference_delta: Option<u64>,
    /// Record the victim core's pipeline trace during trials.
    pub trace: bool,
    /// Run this victim program instead of the hand-built one for
    /// [`Attack::kind`]. The program must follow the scaffold shape
    /// (same rendezvous rounds, same [`AttackLayout`] addresses) — the
    /// scan confirm stage uses this to dynamically test statically
    /// discovered gadgets with the stock receiver plumbing.
    pub victim_override: Option<si_isa::Program>,
}

impl Attack {
    /// Creates an attack with default training depth and auto-calibrated
    /// reference timing.
    pub fn new(kind: AttackKind, scheme: SchemeKind, machine: MachineConfig) -> Attack {
        Attack {
            kind,
            machine,
            scheme,
            train_iters: DEFAULT_TRAIN_ITERS,
            reference_delta: None,
            trace: false,
            victim_override: None,
        }
    }

    fn scaffold(&self) -> Scaffold {
        Scaffold {
            layout: AttackLayout::plan(&self.machine.hierarchy.llc),
            train_iters: self.train_iters,
            train_value: match self.kind {
                // NPEU training warms S1 (training secret 1); the MSHR,
                // IRS and Spectre victims train with secret 0.
                AttackKind::NpeuVdVd
                | AttackKind::NpeuVdAd
                | AttackKind::NpeuVdVi
                | AttackKind::NpeuViAd => 1,
                _ => 0,
            },
        }
    }

    fn victim_program(&self, s: &Scaffold) -> si_isa::Program {
        if let Some(p) = &self.victim_override {
            return p.clone();
        }
        match self.kind {
            AttackKind::NpeuVdVd => npeu_victim(s, NpeuVariant::VictimPair),
            AttackKind::NpeuVdAd => npeu_victim(s, NpeuVariant::AttackerReference),
            AttackKind::NpeuVdVi => {
                let pad = self.machine.core.rob_size * 2 + 64;
                npeu_victim_padded(s, NpeuVariant::InstrVsVictim, pad)
            }
            AttackKind::NpeuViAd => {
                let pad = self.machine.core.rob_size * 2 + 64;
                npeu_victim_padded(s, NpeuVariant::InstrVsAttacker, pad)
            }
            AttackKind::MshrVdAd => mshr_victim(s),
            AttackKind::IrsICache => {
                let adds = self.machine.core.rs_size + self.machine.core.decode_queue + 16;
                irs_victim(s, adds)
            }
            AttackKind::SpectreV1 => spectre_v1_victim(s),
        }
    }

    /// The line whose (visible) access time carries the signal — the `V`
    /// of the order receiver.
    fn victim_line_addr(&self, layout: &AttackLayout) -> u64 {
        match self.kind {
            AttackKind::NpeuVdVd | AttackKind::NpeuVdAd | AttackKind::MshrVdAd => layout.a_addr,
            AttackKind::NpeuVdVi | AttackKind::NpeuViAd => layout.vi_addr,
            AttackKind::IrsICache | AttackKind::SpectreV1 => unreachable!("presence receivers"),
        }
    }

    fn uses_order_receiver(&self) -> bool {
        !matches!(self.kind, AttackKind::IrsICache | AttackKind::SpectreV1)
    }

    /// Whether this attack needs the attacker's fixed-time reference
    /// access (and therefore calibration of [`Attack::reference_delta`]).
    pub fn attacker_provides_reference(&self) -> bool {
        matches!(
            self.kind,
            AttackKind::NpeuVdAd | AttackKind::NpeuViAd | AttackKind::MshrVdAd
        )
    }

    /// Runs one trial with the given secret bit; fresh machine, fresh
    /// training.
    pub fn run_trial(&self, secret: u64) -> TrialResult {
        self.run_trial_inner(secret, self.resolved_reference_delta(), false)
            .map(|(r, _)| r)
            .unwrap_or(TrialResult {
                decoded: None,
                cycles: TRIAL_BUDGET,
                trace: Vec::new(),
            })
    }

    /// The attacker-reference offset a trial uses: `None` for orderings
    /// without an attacker reference, else [`Attack::reference_delta`]
    /// when set, else [`Attack::calibrate`].
    pub fn resolved_reference_delta(&self) -> Option<u64> {
        self.attacker_provides_reference()
            .then(|| self.reference_delta.unwrap_or_else(|| self.calibrate()))
    }

    /// Auto-calibrates the attacker-reference offset: runs one trial per
    /// secret with no reference access, finds the victim event's cycle in
    /// the LLC log relative to the release, and returns the midpoint.
    ///
    /// Calibration runs without noise so it is exact; the paper's attacker
    /// does the analogous tuning empirically ("we can trade-off error rate
    /// and bit rate by changing PoC parameters", §4.4).
    pub fn calibrate(&self) -> u64 {
        let mut cycles = Vec::new();
        for secret in [0u64, 1] {
            if let Some(c) = self.victim_event_offset(secret) {
                cycles.push(c);
            }
        }
        match cycles.as_slice() {
            [a, b] => (a + b) / 2,
            _ => 120, // fallback: the mid-window default
        }
    }

    /// Runs one noise-free trial with pipeline tracing enabled on the
    /// victim core and returns the recorded trace (for the timeline
    /// figures).
    pub fn run_traced(&self, secret: u64) -> Vec<(u64, si_cpu::TraceEvent)> {
        let mut quiet = self.clone();
        quiet.machine.noise.dram_jitter = 0;
        quiet.machine.noise.background_period = 0;
        quiet.trace = true;
        quiet
            .run_trial_inner(secret, quiet.resolved_reference_delta(), false)
            .map(|(r, _)| r.trace)
            .unwrap_or_default()
    }

    /// Samples the victim event's cycle offset from the attack-round
    /// release with the configured noise active (and a per-sample seed) —
    /// the Figure 7 measurement ("the time ... to execute the interference
    /// target"). `secret = 1` runs with the interference gadget active,
    /// `secret = 0` without.
    pub fn sample_event_offset(&self, secret: u64, seed: u64) -> Option<u64> {
        let mut a = self.clone();
        a.machine.noise.seed = seed;
        a.run_trial_inner(secret, None, true)
            .and_then(|(_, off)| off)
    }

    fn victim_event_offset(&self, secret: u64) -> Option<u64> {
        let mut quiet = self.clone();
        quiet.machine.noise.dram_jitter = 0;
        quiet.machine.noise.background_period = 0;
        quiet
            .run_trial_inner(secret, None, true)
            .and_then(|(_, off)| off)
    }

    /// Runs the trial machinery from scratch: setup, training-round park
    /// loop, then the attack round. When `record_event` is set, the
    /// victim event's cycle offset from the final release is returned
    /// alongside the result instead of a decode.
    fn run_trial_inner(
        &self,
        secret: u64,
        reference_delta: Option<u64>,
        record_event: bool,
    ) -> Option<(TrialResult, Option<u64>)> {
        let (mut m, start, deadline) = self.setup_and_park(secret).ok()?;
        self.finish_parked(&mut m, start, deadline, reference_delta, record_event)
    }

    /// Whether trials of this attack may run from a checkpoint fork and
    /// stay byte-identical to run-from-scratch: quiet noise (neither RNG
    /// stream is consumed during setup, so reseeding at the fork point is
    /// exact), checkpointing not disabled by config, and no tracing (a
    /// trace spans the whole trial, training included).
    pub fn checkpointable(&self) -> bool {
        !self.machine.disable_checkpoint
            && !self.trace
            && self.machine.noise.dram_jitter == 0
            && self.machine.noise.background_period == 0
    }

    /// Runs the trial setup once for `secret` — machine built, secret
    /// planted, training episodes released — and snapshots the machine
    /// parked at the attack round. [`Attack::run_trial_from`] forks the
    /// snapshot per trial instead of re-simulating all of this.
    ///
    /// Returns `None` if the victim times out during training.
    pub fn checkpoint_trial(&self, secret: u64) -> Option<TrialCheckpoint> {
        let (m, start, deadline) = self.setup_and_park(secret).ok()?;
        Some(TrialCheckpoint {
            checkpoint: MachineCheckpoint::from_machine(m),
            secret,
            start,
            deadline,
        })
    }

    /// Runs one trial from a checkpoint fork: restores the parked
    /// machine, reseeds the noise streams with this attack's configured
    /// seed, and runs only the attack round. Under
    /// [`Attack::checkpointable`] configs the result is cycle- and
    /// byte-identical to [`Attack::run_trial`] with the same secret and
    /// seed — the `--no-checkpoint` differential path exists to prove it.
    pub fn run_trial_from(&self, ck: &TrialCheckpoint) -> TrialResult {
        let delta = self.resolved_reference_delta();
        let mut m = ck.checkpoint.fork_with_seed(self.machine.noise.seed);
        self.finish_parked(&mut m, ck.start, ck.deadline, delta, false)
            .map(|(r, _)| r)
            .unwrap_or(TrialResult {
                decoded: None,
                cycles: TRIAL_BUDGET,
                trace: Vec::new(),
            })
    }

    /// Builds the trial machine and runs it to the attack-round park
    /// (§4.2.3 steps 1–2): program loaded under the scheme, secret
    /// planted, every training episode released and consumed, victim
    /// parked awaiting the final round. Returns the machine plus the
    /// trial's start cycle and absolute deadline so the finish phase
    /// accounts cycles identically however it is reached.
    fn setup_and_park(&self, secret: u64) -> Result<(Machine, u64, u64), Timeout> {
        let s = self.scaffold();
        let layout = s.layout.clone();
        let program = self.victim_program(&s);
        let mut m = Machine::new(self.machine.clone());
        m.load_program_with_scheme(VICTIM_CORE, &program, self.scheme.build());
        if self.trace {
            m.core_mut(VICTIM_CORE).set_trace_enabled(true);
        }
        m.memory_mut().write_u64(layout.secret_addr, secret);
        let start = m.cycle();
        let deadline = start + TRIAL_BUDGET;
        for _ in 0..s.train_iters {
            wait_for_park(&mut m, VICTIM_CORE, &layout, deadline)?;
            release(&mut m, VICTIM_CORE, &layout, deadline)?;
        }
        wait_for_park(&mut m, VICTIM_CORE, &layout, deadline)?;
        Ok((m, start, deadline))
    }

    /// The attack round and everything after it, starting from a machine
    /// parked at the final rendezvous: prime/flush preparation, the
    /// release, the drain to halt, and the receiver's decode. `start` and
    /// `deadline` come from [`Attack::setup_and_park`] (possibly via a
    /// checkpoint), keeping cycle accounting identical on both paths.
    fn finish_parked(
        &self,
        m: &mut Machine,
        start: u64,
        deadline: u64,
        reference_delta: Option<u64>,
        record_event: bool,
    ) -> Option<(TrialResult, Option<u64>)> {
        let layout = self.scaffold().layout;
        let order_rx = self.uses_order_receiver().then(|| {
            OrderReceiver::new(
                ATTACKER_CORE,
                self.victim_line_addr(&layout),
                layout.b_addr,
                layout.evset.clone(),
            )
        });
        let icache_rx = matches!(self.kind, AttackKind::IrsICache)
            .then(|| FlushReload::new(ATTACKER_CORE, layout.target_fn));
        let spectre_rx = matches!(self.kind, AttackKind::SpectreV1).then_some(());
        let kind = self.kind;
        // Attack-round preparation (§4.2.3 step 2): prime the monitored
        // set, flush the branch bound and the secret-dependent
        // transmitter lines.
        if let Some(rx) = &order_rx {
            rx.prime(m);
        }
        if let Some(rx) = &icache_rx {
            rx.flush(m);
        }
        if spectre_rx.is_some() {
            m.run_op(AgentOp::Flush(layout.s_addr(0)));
            m.run_op(AgentOp::Flush(layout.s_addr(1)));
        }
        // A flushed branch bound gives the slow-resolving window for the
        // data-side attacks; the instruction-side variants instead put
        // the squash on load A's critical path, so N must stay warm there
        // (the gadget's delay of A *is* the squash delay).
        if !matches!(kind, AttackKind::NpeuVdVi | AttackKind::NpeuViAd) {
            m.run_op(AgentOp::Flush(layout.n_addr));
        }
        if matches!(
            kind,
            AttackKind::NpeuVdVd
                | AttackKind::NpeuVdAd
                | AttackKind::NpeuVdVi
                | AttackKind::NpeuViAd
        ) {
            // The secret-0 transmitter line must be cold so the
            // DoM-delayed path stays empty.
            m.run_op(AgentOp::Flush(layout.s_addr(0)));
        }
        if kind == AttackKind::IrsICache {
            // Cold transmitter for secret=1.
            m.run_op(AgentOp::Flush(layout.s_addr(1)));
        }
        if let Some(delta) = reference_delta {
            m.schedule_op(
                m.cycle() + delta,
                AgentOp::Access {
                    core: ATTACKER_CORE,
                    addr: layout.b_addr,
                },
            );
        }
        let final_release = release(m, VICTIM_CORE, &layout, deadline).ok()?;
        drain_to_halt(m, VICTIM_CORE, deadline).ok()?;
        let cycles = m.cycle() - start;
        if record_event {
            let v_line = si_cache::line_of(self.victim_line_addr(&layout));
            let offset = m
                .take_llc_log()
                .iter()
                .find(|e| e.line == v_line && e.core == VICTIM_CORE && e.cycle >= final_release)
                .map(|e| e.cycle - final_release);
            return Some((
                TrialResult {
                    decoded: None,
                    cycles,
                    trace: Vec::new(),
                },
                offset,
            ));
        }
        let decoded = if let Some(rx) = &order_rx {
            match rx.probe(m) {
                // V first means "not delayed": NPEU/MSHR victims are
                // delayed when the gadget runs, i.e. when secret = 1.
                Decoded::VictimFirst => Some(0),
                Decoded::ReferenceFirst => Some(1),
                Decoded::Noise => None,
            }
        } else if let Some(rx) = &icache_rx {
            // Target fetched (hit) iff the transmitter hit, i.e. secret 0.
            Some(if rx.reload(m) { 0 } else { 1 })
        } else {
            // Spectre v1: reload both candidate lines.
            let fr0 = FlushReload::new(ATTACKER_CORE, layout.s_addr(0));
            let fr1 = FlushReload::new(ATTACKER_CORE, layout.s_addr(1));
            let h1 = fr1.reload(m);
            let h0 = fr0.reload(m);
            match (h0, h1) {
                (true, false) => Some(0),
                (false, true) => Some(1),
                _ => None,
            }
        };
        let trace = if self.trace {
            m.core(VICTIM_CORE).trace().events().to_vec()
        } else {
            Vec::new()
        };
        Some((
            TrialResult {
                decoded,
                cycles,
                trace,
            },
            None,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole equivalence: on a checkpointable config, restoring the
    /// parked snapshot and running the attack round must be cycle- and
    /// byte-identical to running the whole trial from scratch — for both
    /// secrets and across distinct per-trial seeds.
    #[test]
    fn checkpointed_trials_are_byte_identical_to_scratch() {
        for kind in [AttackKind::MshrVdAd, AttackKind::NpeuVdVd] {
            let base = Attack::new(
                kind,
                SchemeKind::InvisiSpecSpectre,
                MachineConfig::default(),
            );
            assert!(base.checkpointable());
            for secret in [0u64, 1] {
                let ck = base.checkpoint_trial(secret).expect("training timed out");
                assert_eq!(ck.secret(), secret);
                for seed in [1u64, 7, 42] {
                    let mut a = base.clone();
                    a.machine.noise.seed = seed;
                    let scratch = a.run_trial(secret);
                    let forked = a.run_trial_from(&ck);
                    assert_eq!(forked, scratch, "{kind:?} secret={secret} seed={seed}");
                }
            }
        }
    }

    /// `disable_checkpoint` and tracing both force the scratch path.
    #[test]
    fn checkpoint_eligibility_respects_config() {
        let mut a = Attack::new(
            AttackKind::MshrVdAd,
            SchemeKind::InvisiSpecSpectre,
            MachineConfig::default(),
        );
        assert!(a.checkpointable());
        a.machine.disable_checkpoint = true;
        assert!(!a.checkpointable());
        a.machine.disable_checkpoint = false;
        a.trace = true;
        assert!(!a.checkpointable());
        a.trace = false;
        a.machine.noise.dram_jitter = 3;
        assert!(!a.checkpointable());
    }
}
