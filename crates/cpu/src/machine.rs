//! The multi-core machine: cores in lockstep over a shared hierarchy, plus
//! the attacker-side memory agent and noise injection.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use si_cache::{AccessClass, AccessResult, Hierarchy, LlcEvent, Visibility, WayView, LINE_BYTES};
use si_isa::Program;

use crate::config::MachineConfig;
use crate::core::{Core, QuietPlan, TickCtx};
use crate::memory::Memory;
use crate::scheme::{SpeculationScheme, Unprotected};

/// An attacker/receiver memory operation.
///
/// The paper's receiver runs on another physical core and only its LLC
/// requests matter (§2.1 CrossCore); the agent issues exactly those without
/// simulating a second full pipeline (see DESIGN.md substitutions). Ops run
/// either immediately (between victim runs) or scheduled at an absolute
/// cycle (the "reference clock" accesses of the VD-AD/VI-AD orderings,
/// §3.3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AgentOp {
    /// `clflush` the line containing this address (coherence-global).
    Flush(u64),
    /// Visible data access from `core`.
    Access {
        /// Issuing core (attribution in the LLC log).
        core: usize,
        /// Byte address.
        addr: u64,
    },
    /// Visible instruction-side access from `core` (Flush+Reload on code).
    FetchAccess {
        /// Issuing core.
        core: usize,
        /// Byte address.
        addr: u64,
    },
    /// Timed visible access; the observed latency is recorded and
    /// retrievable via [`Machine::take_agent_timings`].
    TimedAccess {
        /// Issuing core.
        core: usize,
        /// Byte address.
        addr: u64,
    },
    /// Empty `core`'s private caches (thrash-buffer walk).
    ClearPrivate(usize),
}

/// One recorded timed access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AgentTiming {
    /// Cycle the access ran.
    pub cycle: u64,
    /// Accessed address.
    pub addr: u64,
    /// Observed result.
    pub result: AccessResult,
}

/// Error returned when a run exceeds its cycle budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeout {
    /// Cycles executed before giving up.
    pub cycles: u64,
}

impl std::fmt::Display for Timeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "core did not halt within {} cycles", self.cycles)
    }
}

impl std::error::Error for Timeout {}

#[derive(Debug, Clone)]
struct Shared {
    hierarchy: Hierarchy,
    memory: Memory,
    rng: StdRng,
    dram_jitter: u64,
}

/// The simulated machine.
///
/// # Example
///
/// ```
/// use si_cpu::{Machine, MachineConfig};
/// use si_isa::{Assembler, R1, R2};
///
/// let mut asm = Assembler::new(0);
/// asm.mov_imm(R1, 20);
/// asm.add(R2, R1, R1);
/// asm.halt();
///
/// let mut m = Machine::new(MachineConfig::default());
/// m.load_program(0, &asm.assemble()?);
/// m.run_core_to_halt(0, 10_000)?;
/// assert_eq!(m.core(0).reg(R2), 40);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Machine {
    config: MachineConfig,
    shared: Shared,
    cores: Vec<Core>,
    cycle: u64,
    scheduled: BTreeMap<u64, Vec<AgentOp>>,
    agent_timings: Vec<AgentTiming>,
    noise_rng: StdRng,
    /// Reused allocation for [`Machine::advance`]'s per-core quiet plans.
    quiet_plans: Vec<QuietPlan>,
}

impl Machine {
    /// Builds a machine; every core starts with an empty program and the
    /// [`Unprotected`] baseline scheme.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails validation.
    pub fn new(config: MachineConfig) -> Machine {
        config
            .validate()
            .unwrap_or_else(|e| panic!("invalid machine config: {e}"));
        let cores = (0..config.hierarchy.cores)
            .map(|i| {
                Core::new(
                    i,
                    config.core.clone(),
                    Program::new(),
                    Box::new(Unprotected),
                )
            })
            .collect();
        Machine {
            shared: Shared {
                hierarchy: Hierarchy::new(config.hierarchy.clone()),
                memory: Memory::new(),
                rng: StdRng::seed_from_u64(config.noise.seed),
                dram_jitter: config.noise.dram_jitter,
            },
            cores,
            cycle: 0,
            scheduled: BTreeMap::new(),
            agent_timings: Vec::new(),
            noise_rng: StdRng::seed_from_u64(config.noise.seed ^ 0xbadc_0ffe),
            quiet_plans: Vec::new(),
            config,
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.config
    }

    /// Reseeds both noise RNG streams (DRAM jitter and the background
    /// agent) exactly as [`Machine::new`] would have from a config with
    /// `noise.seed = seed`, and records the seed in the config.
    ///
    /// This is the per-trial divergence point of checkpoint forking
    /// ([`crate::checkpoint::MachineCheckpoint::fork_with_seed`]): when
    /// neither stream has been consumed since construction — quiet-noise
    /// configs never draw from them — the reseeded machine is
    /// indistinguishable from one built fresh with the trial's seed.
    pub fn reseed_noise(&mut self, seed: u64) {
        self.config.noise.seed = seed;
        self.shared.rng = StdRng::seed_from_u64(seed);
        self.noise_rng = StdRng::seed_from_u64(seed ^ 0xbadc_0ffe);
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Loads `program` onto `core_idx` under the [`Unprotected`]
    /// baseline scheme (whatever scheme the core had is dropped) and
    /// merges the program's data into shared memory.
    pub fn load_program(&mut self, core_idx: usize, program: &Program) {
        self.load_program_with_scheme(core_idx, program, Box::new(Unprotected));
    }

    /// Loads `program` onto `core_idx` under `scheme`.
    pub fn load_program_with_scheme(
        &mut self,
        core_idx: usize,
        program: &Program,
        scheme: Box<dyn SpeculationScheme>,
    ) {
        let entry = program.entry();
        self.load_shared_program_with_scheme(
            core_idx,
            std::sync::Arc::new(program.clone()),
            scheme,
            entry,
        );
    }

    /// Loads a **shared** program image onto `core_idx` under `scheme`,
    /// starting fetch at `entry` instead of the image's recorded entry
    /// point. Sampled trace replay builds one machine per representative
    /// interval from one image; this variant replaces the per-interval
    /// program clone with an `Arc` bump and passes the interval's start
    /// PC separately.
    pub fn load_shared_program_with_scheme(
        &mut self,
        core_idx: usize,
        program: std::sync::Arc<Program>,
        scheme: Box<dyn SpeculationScheme>,
        entry: u64,
    ) {
        self.shared.memory.load_program_data(&program);
        self.cores[core_idx] =
            Core::new_shared(core_idx, self.config.core.clone(), program, scheme, entry);
    }

    /// Access to a core.
    pub fn core(&self, idx: usize) -> &Core {
        &self.cores[idx]
    }

    /// Mutable access to a core (e.g. to enable tracing).
    pub fn core_mut(&mut self, idx: usize) -> &mut Core {
        &mut self.cores[idx]
    }

    /// The shared hierarchy (read-only; receivers inspect LLC state
    /// through dedicated agent ops).
    pub fn hierarchy(&self) -> &Hierarchy {
        &self.shared.hierarchy
    }

    /// Shared-memory access for test setup and result checks.
    pub fn memory(&self) -> &Memory {
        &self.shared.memory
    }

    /// Mutable shared-memory access (e.g. planting secrets).
    pub fn memory_mut(&mut self) -> &mut Memory {
        &mut self.shared.memory
    }

    /// Schedules an agent op to run at an absolute cycle (the attacker's
    /// fixed-time reference access).
    pub fn schedule_op(&mut self, cycle: u64, op: AgentOp) {
        self.scheduled.entry(cycle).or_default().push(op);
    }

    /// Runs one agent op immediately, returning the access result for
    /// access-like ops.
    pub fn run_op(&mut self, op: AgentOp) -> Option<AccessResult> {
        let now = self.cycle;
        match op {
            AgentOp::Flush(addr) => {
                self.shared.hierarchy.flush_addr(addr);
                None
            }
            AgentOp::Access { core, addr } => Some(self.shared.hierarchy.read(
                now,
                core,
                addr,
                AccessClass::Data,
                Visibility::Visible,
            )),
            AgentOp::FetchAccess { core, addr } => Some(self.shared.hierarchy.read(
                now,
                core,
                addr,
                AccessClass::Instr,
                Visibility::Visible,
            )),
            AgentOp::TimedAccess { core, addr } => {
                // Timed accesses are the receiver's *measurement*: they
                // observe shared-MSHR contention (read_demand), unlike the
                // setup ops above, which abstract spread-out traffic.
                let result = self.shared.hierarchy.read_demand(
                    now,
                    core,
                    addr,
                    AccessClass::Data,
                    Visibility::Visible,
                );
                self.agent_timings.push(AgentTiming {
                    cycle: now,
                    addr,
                    result,
                });
                Some(result)
            }
            AgentOp::ClearPrivate(core) => {
                self.shared.hierarchy.clear_private(core);
                None
            }
        }
    }

    /// Takes the timed-access log.
    pub fn take_agent_timings(&mut self) -> Vec<AgentTiming> {
        std::mem::take(&mut self.agent_timings)
    }

    /// Diagnostic view of an LLC set (the Figure 8 printout).
    pub fn llc_set_view(&self, set: usize) -> Vec<WayView> {
        self.shared.hierarchy.llc_set_view(set)
    }

    /// Takes the visible-LLC access log (`C(E)` of §5.1).
    pub fn take_llc_log(&mut self) -> Vec<LlcEvent> {
        self.shared.hierarchy.take_log()
    }

    /// Shared-side MSHR occupancy and contention counters (cross-core
    /// demand misses contending past the LLC).
    pub fn shared_mshr_stats(&self) -> si_cache::SharedMshrStats {
        self.shared.hierarchy.shared_mshr_stats()
    }

    /// Advances the machine one cycle: scheduled agent ops, background
    /// noise, then each core.
    pub fn step(&mut self) {
        let now = self.cycle;
        // first_key_value guard: avoid a BTreeMap::remove probe per cycle.
        if self
            .scheduled
            .first_key_value()
            .is_some_and(|(&at, _)| at <= now)
        {
            if let Some(ops) = self.scheduled.remove(&now) {
                for op in ops {
                    self.run_op(op);
                }
            }
        }
        self.background_noise(now);
        let mut ctx = TickCtx {
            hierarchy: &mut self.shared.hierarchy,
            memory: &mut self.shared.memory,
            dram_jitter: self.shared.dram_jitter,
            rng: &mut self.shared.rng,
        };
        for core in &mut self.cores {
            core.tick(now, &mut ctx);
        }
        self.cycle += 1;
    }

    fn background_noise(&mut self, now: u64) {
        let n = self.config.noise;
        if n.background_period == 0 || !now.is_multiple_of(n.background_period) {
            return;
        }
        // The noise agent models uncontrolled co-tenant LLC traffic from
        // the last core: either single random-line accesses in a dedicated
        // high region (colliding with attack sets only through set-index
        // aliasing), or whole conflict-set bursts (see
        // [`NoiseConfig::burst_sets`]).
        let core = self.config.hierarchy.cores - 1;
        let base = 0x4000_0000 / LINE_BYTES;
        if self.config.noise.burst_sets {
            let llc = &self.config.hierarchy.llc;
            let sets = llc.sets as u64;
            let set = self.noise_rng.gen_range(0..sets);
            let rounds = llc.ways as u64 + 1;
            let start = self.noise_rng.gen_range(0..64) * sets;
            for k in 0..rounds {
                let line = (base / sets) * sets + set + (start + k * sets);
                self.shared.hierarchy.read(
                    now,
                    core,
                    line * LINE_BYTES,
                    AccessClass::Data,
                    Visibility::Visible,
                );
            }
        } else {
            let line = base + self.noise_rng.gen_range(0..n.background_lines);
            self.shared.hierarchy.read(
                now,
                core,
                line * LINE_BYTES,
                AccessClass::Data,
                Visibility::Visible,
            );
        }
    }

    /// Advances at least one cycle and at most to `limit`, skipping runs of
    /// idle cycles in one jump.
    ///
    /// When every core proves its tick would be a pure stall
    /// ([`Core::quiet_plan`]) and no scheduled agent op or background-noise
    /// cycle falls in the window, the machine jumps `cycle` straight to the
    /// earliest wake-up event and replays the skipped cycles' stall
    /// accounting exactly — cycle numbers, statistics, and trace events are
    /// bit-identical to stepping cycle-by-cycle. Otherwise it performs one
    /// normal [`step`](Machine::step).
    ///
    /// # Panics
    ///
    /// Panics (debug) if `limit <= cycle`.
    pub fn advance(&mut self, limit: u64) {
        let now = self.cycle;
        debug_assert!(now < limit, "advance needs headroom");
        if self.config.disable_idle_skip {
            return self.step();
        }
        let mut bound = limit;
        // Scheduled agent ops: one due now forces a step; the next one
        // bounds the skip.
        match self.scheduled.first_key_value() {
            Some((&at, _)) if at <= now => return self.step(),
            Some((&at, _)) => bound = bound.min(at),
            None => {}
        }
        // Background noise runs on period multiples; never skip those.
        let period = self.config.noise.background_period;
        if period > 0 {
            if now.is_multiple_of(period) {
                return self.step();
            }
            bound = bound.min(now.next_multiple_of(period));
        }
        let mut plans = std::mem::take(&mut self.quiet_plans);
        plans.clear();
        for core in &self.cores {
            match core.quiet_plan(now) {
                Some(plan) => {
                    bound = bound.min(plan.until);
                    plans.push(plan);
                }
                None => {
                    self.quiet_plans = plans;
                    return self.step();
                }
            }
        }
        debug_assert!(bound > now, "quiet plans always look forward");
        let count = bound - now;
        for (core, plan) in self.cores.iter_mut().zip(&plans) {
            core.apply_quiet_cycles(now, count, plan);
        }
        self.cycle = bound;
        self.quiet_plans = plans;
    }

    /// Steps until core `idx` halts, skipping idle cycles (see
    /// [`Machine::advance`]; the result is bit-identical to stepping).
    ///
    /// # Errors
    ///
    /// Returns [`Timeout`] if the core does not halt within `max_cycles`.
    pub fn run_core_to_halt(&mut self, idx: usize, max_cycles: u64) -> Result<u64, Timeout> {
        let start = self.cycle;
        let deadline = start + max_cycles;
        while !self.cores[idx].halted() {
            if self.cycle >= deadline {
                return Err(Timeout {
                    cycles: self.cycle - start,
                });
            }
            self.advance(deadline);
        }
        Ok(self.cycle - start)
    }

    /// Advances a fixed number of cycles (idle runs skipped exactly).
    pub fn run_cycles(&mut self, cycles: u64) {
        let end = self.cycle + cycles;
        while self.cycle < end {
            self.advance(end);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_cache::HitLevel;
    use si_isa::{Assembler, R1, R2, R3};

    fn machine() -> Machine {
        Machine::new(MachineConfig::default())
    }

    #[test]
    fn straight_line_program_computes() {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 6);
        asm.mov_imm(R2, 7);
        asm.mul(R3, R1, R2);
        asm.halt();
        let mut m = machine();
        m.load_program(0, &asm.assemble().unwrap());
        let cycles = m.run_core_to_halt(0, 10_000).unwrap();
        assert_eq!(m.core(0).reg(R3), 42);
        assert!(cycles > 0);
    }

    #[test]
    fn loads_and_stores_commit_to_shared_memory() {
        let mut asm = Assembler::new(0);
        asm.data_u64(0x2000, 123);
        asm.mov_imm(R1, 0x2000);
        asm.load(R2, R1, 0);
        asm.add_imm(R2, R2, 1);
        asm.store(R2, R1, 8);
        asm.halt();
        let mut m = machine();
        m.load_program(0, &asm.assemble().unwrap());
        m.run_core_to_halt(0, 10_000).unwrap();
        assert_eq!(m.core(0).reg(R2), 124);
        assert_eq!(m.memory().read_u64(0x2008), 124);
    }

    #[test]
    fn loops_with_branches_terminate_correctly() {
        let mut asm = Assembler::new(0);
        asm.mov_imm(R1, 0);
        asm.mov_imm(R2, 50);
        let top = asm.here("top");
        asm.add_imm(R1, R1, 1);
        asm.branch_ltu(R1, R2, top);
        asm.halt();
        let mut m = machine();
        m.load_program(0, &asm.assemble().unwrap());
        m.run_core_to_halt(0, 100_000).unwrap();
        assert_eq!(m.core(0).reg(R1), 50);
        let (_, mispredicts) = m.core(0).predictor_stats();
        assert!(mispredicts >= 1, "final iteration mispredicts");
    }

    #[test]
    fn timeout_reported_for_infinite_loop() {
        let mut asm = Assembler::new(0);
        let top = asm.here("top");
        asm.jump(top);
        let mut m = machine();
        m.load_program(0, &asm.assemble().unwrap());
        assert!(m.run_core_to_halt(0, 500).is_err());
    }

    #[test]
    fn agent_ops_flush_and_time() {
        let mut m = machine();
        m.run_op(AgentOp::Access {
            core: 1,
            addr: 0x4000,
        });
        let timed = m
            .run_op(AgentOp::TimedAccess {
                core: 1,
                addr: 0x4000,
            })
            .unwrap();
        assert_eq!(timed.level, HitLevel::L1);
        m.run_op(AgentOp::Flush(0x4000));
        let timed = m
            .run_op(AgentOp::TimedAccess {
                core: 1,
                addr: 0x4000,
            })
            .unwrap();
        assert_eq!(timed.level, HitLevel::Memory);
        assert_eq!(m.take_agent_timings().len(), 2);
    }

    #[test]
    fn scheduled_ops_run_at_their_cycle() {
        let mut m = machine();
        m.schedule_op(
            5,
            AgentOp::Access {
                core: 1,
                addr: 0x9000,
            },
        );
        m.run_cycles(5);
        assert!(!m.hierarchy().resident_anywhere(0x9000));
        m.run_cycles(1);
        assert!(m.hierarchy().resident_anywhere(0x9000));
    }

    #[test]
    fn background_noise_generates_llc_traffic() {
        let mut cfg = MachineConfig::default();
        cfg.noise.background_period = 10;
        let mut m = Machine::new(cfg);
        m.run_cycles(100);
        assert!(m.take_llc_log().len() >= 10);
    }

    #[test]
    fn two_cores_run_concurrently() {
        let mut a = Assembler::new(0);
        a.mov_imm(R1, 11);
        a.halt();
        let mut b = Assembler::new(0x10000);
        b.mov_imm(R1, 22);
        b.halt();
        let mut m = machine();
        m.load_program(0, &a.assemble().unwrap());
        m.load_program(1, &b.assemble().unwrap());
        m.run_core_to_halt(0, 10_000).unwrap();
        m.run_core_to_halt(1, 10_000).unwrap();
        assert_eq!(m.core(0).reg(R1), 11);
        assert_eq!(m.core(1).reg(R1), 22);
    }
}
