//! Branch prediction: per-PC 2-bit direction counters.
//!
//! The paper's attacks *mis-train* this structure (§4.1: "we trigger branch
//! mispredictions by training the target branch in a given direction"). A
//! victim loop executing the branch taken N times drives its counter to
//! strongly-taken, so the attack iteration's not-taken outcome mispredicts
//! and opens the transient window:
//!
//! ```
//! use si_cpu::BranchPredictor;
//!
//! let mut p = BranchPredictor::new(1024);
//! // §4.1 mistraining: resolve the victim branch taken twice, driving
//! // its 2-bit counter from weakly-not-taken to strongly-taken.
//! p.update(0x68, true, false);
//! p.update(0x68, true, false);
//! // The attack iteration now predicts taken — the actual not-taken
//! // outcome will squash, and the transient window is open.
//! assert!(p.predict(0x68));
//! ```
//!
//! The per-PC table is the `p64`/`p1k`/`p8k` preset family; the `tage`
//! preset swaps in the history-correlated [`TagePredictor`], which this
//! module dispatches over via [`Predictor`]. Larger tables reduce
//! *aliasing* (two branches sharing a counter), not mistraining — the
//! §4.1 pattern above works at any size because attacker and victim
//! train the *same* PC.
//!
//! Predictors give only a direction. Every branch in this ISA is direct,
//! so a branch predicted taken goes to its encoded target, and no target
//! buffer is needed.

use crate::tage::TagePredictor;

/// Per-PC 2-bit saturating counters, starting at 1 (weakly not-taken).
#[derive(Debug, Clone)]
pub struct BranchPredictor {
    counters: Vec<u8>,
    mask: u64,
    predicts: u64,
    mispredicts: u64,
}

impl BranchPredictor {
    /// Creates a predictor with `entries` counters (power of two).
    ///
    /// # Panics
    ///
    /// Panics if `entries` is not a power of two.
    pub fn new(entries: usize) -> BranchPredictor {
        assert!(entries.is_power_of_two(), "entries must be a power of two");
        BranchPredictor {
            counters: vec![1; entries],
            mask: entries as u64 - 1,
            predicts: 0,
            mispredicts: 0,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 3) & self.mask) as usize
    }

    /// Predicts whether the branch at `pc` is taken.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.predicts += 1;
        self.counters[self.index(pc)] >= 2
    }

    /// Trains on a resolved branch outcome.
    pub fn update(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        let i = self.index(pc);
        let c = &mut self.counters[i];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
        if mispredicted {
            self.mispredicts += 1;
        }
    }

    /// `(predictions, mispredictions)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.predicts, self.mispredicts)
    }
}

/// Which predictor organization a core builds — the
/// [`CoreConfig::predictor_kind`](crate::CoreConfig) axis behind the
/// `predictor=` slug of sweep grids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum PredictorKind {
    /// Per-PC 2-bit counters ([`BranchPredictor`]) — the original toy
    /// frontend; `p64`/`p1k`/`p8k` presets vary only its table size.
    Bimodal,
    /// Tagged geometric-history predictor
    /// ([`TagePredictor`](crate::TagePredictor)) — the realistic
    /// frontend of the `tage` preset.
    Tage,
}

/// Runtime dispatch over the predictor organizations. The frontend and
/// writeback stages talk to this enum, so both predictors see the exact
/// same predict/update call stream.
#[derive(Debug, Clone)]
pub enum Predictor {
    /// Per-PC bimodal table.
    Bimodal(BranchPredictor),
    /// Tagged geometric-history predictor (boxed: its tables dwarf the
    /// bimodal variant, and cores clone/move `Predictor` by value).
    Tage(Box<TagePredictor>),
}

impl Predictor {
    /// Builds the predictor `kind` names; `entries` sizes the (base)
    /// counter table of either organization.
    pub fn new(kind: PredictorKind, entries: usize) -> Predictor {
        match kind {
            PredictorKind::Bimodal => Predictor::Bimodal(BranchPredictor::new(entries)),
            PredictorKind::Tage => Predictor::Tage(Box::new(TagePredictor::new(entries))),
        }
    }

    /// Predicts whether the branch at `pc` is taken.
    pub fn predict(&mut self, pc: u64) -> bool {
        match self {
            Predictor::Bimodal(p) => p.predict(pc),
            Predictor::Tage(p) => p.predict(pc),
        }
    }

    /// Trains on a resolved branch outcome.
    pub fn update(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        match self {
            Predictor::Bimodal(p) => p.update(pc, taken, mispredicted),
            Predictor::Tage(p) => p.update(pc, taken, mispredicted),
        }
    }

    /// `(predictions, mispredictions)` counters.
    pub fn stats(&self) -> (u64, u64) {
        match self {
            Predictor::Bimodal(p) => p.stats(),
            Predictor::Tage(p) => p.stats(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_weakly_not_taken() {
        let mut p = BranchPredictor::new(16);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn training_flips_direction() {
        let mut p = BranchPredictor::new(16);
        p.update(0x40, true, false);
        assert!(p.predict(0x40)); // counter 1 -> 2
        p.update(0x40, true, false); // -> 3 (saturates)
        p.update(0x40, false, false); // -> 2, still taken
        assert!(p.predict(0x40));
        p.update(0x40, false, false); // -> 1
        assert!(!p.predict(0x40));
    }

    #[test]
    fn mistraining_reproduces_the_spectre_setup() {
        // Train taken N times; the attack iteration (actually not-taken)
        // is predicted taken — the transient window.
        let mut p = BranchPredictor::new(64);
        for _ in 0..8 {
            p.update(0x80, true, false);
        }
        assert!(p.predict(0x80));
    }

    #[test]
    fn distinct_pcs_do_not_alias_in_small_ranges() {
        let mut p = BranchPredictor::new(1024);
        p.update(0x40, true, false);
        p.update(0x40, true, false);
        assert!(!p.predict(0x48), "neighbouring branch unaffected");
    }

    #[test]
    fn stats_count() {
        let mut p = BranchPredictor::new(16);
        p.predict(0);
        p.update(0, true, true);
        assert_eq!(p.stats(), (1, 1));
    }
}
