//! A deterministic, cycle-level out-of-order core and multi-core machine.
//!
//! This crate is the pipeline substrate of the speculative-interference
//! reproduction: a dynamically scheduled core (§2.3) whose *unmodified*
//! scheduling behaviour is what the paper attacks. The mechanisms the
//! attacks rely on are modeled explicitly:
//!
//! * readiness-then-age ordered issue into execution ports, with
//!   **non-pipelined** units that block their port (`G^D_NPEU`);
//! * L1D **MSHRs** allocated in issue order (`G^D_MSHR`);
//! * a unified **reservation station** whose exhaustion stalls dispatch and
//!   back-throttles fetch (`G^I_RS`);
//! * a common data bus with bounded writeback bandwidth;
//! * a trainable branch predictor, delayed branch resolution, and precise
//!   squash/recovery;
//! * pluggable [`SpeculationScheme`]s controlling what speculative loads
//!   may do to the cache hierarchy (implementations live in `si-schemes`).
//!
//! # Example
//!
//! ```
//! use si_cpu::{Machine, MachineConfig};
//! use si_isa::{Assembler, R1, R2, R3};
//!
//! let mut asm = Assembler::new(0);
//! asm.mov_imm(R1, 6);
//! asm.mov_imm(R2, 7);
//! asm.mul(R3, R1, R2);
//! asm.halt();
//!
//! let mut machine = Machine::new(MachineConfig::default());
//! machine.load_program(0, &asm.assemble()?);
//! machine.run_core_to_halt(0, 10_000)?;
//! assert_eq!(machine.core(0).reg(R3), 42);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod checkpoint;
mod config;
mod core;
mod exec;
mod frontend;
mod machine;
mod memory;
mod predictor;
mod preset;
mod rob;
mod rs;
mod scheme;
mod stats;
mod tage;
mod trace;

pub use si_cache::MshrFile;

pub use checkpoint::MachineCheckpoint;
pub use config::{CoreConfig, FuTable, FuTiming, MachineConfig, NoiseConfig};
pub use core::{Core, TickCtx};
pub use exec::{ExecPayload, ExecUnits, InFlight};
pub use frontend::{FetchOutcome, FetchedInstr, Frontend};
pub use machine::{AgentOp, AgentTiming, Machine, Timeout};
pub use memory::Memory;
pub use predictor::{BranchPredictor, Predictor, PredictorKind};
pub use preset::{GeometryPreset, NoisePreset, PredictorPreset};
pub use rob::{fresh_rat, EntryState, Rat, RegTag, Rob, RobEntry};
pub use rs::{Operand, OperandList, ReservationStation, RsEntry};
pub use scheme::{
    LoadPlan, SafeAction, SafetyFlags, SafetyView, SpeculationScheme, Unprotected, UnsafeLoadCtx,
};
pub use stats::CoreStats;
pub use tage::TagePredictor;
pub use trace::{StallReason, Trace, TraceEvent};
