//! A TAGE branch predictor: TAgged GEometric history lengths.
//!
//! The bimodal table of [`BranchPredictor`](crate::BranchPredictor) keys
//! predictions on the branch PC alone, which is exactly why the paper's
//! mistraining loop works (§4.1): N taken outcomes at one PC saturate one
//! counter. Real frontends correlate on *history* — TAGE (Seznec &
//! Michaud, "A case for (partially) TAgged GEometric history length
//! branch prediction", JILP 2006) is the canonical design and the base of
//! every championship predictor since. Modeling it matters for the
//! paper's channels because interference measurements are gated by
//! *misprediction behaviour*: a history-correlated predictor both resists
//! naive per-PC mistraining and mispredicts on entirely different
//! instruction streams than a bimodal table does, changing where
//! speculative windows open (§2.3, §4.1).
//!
//! # Structure
//!
//! * a **base bimodal table** of 2-bit counters indexed by PC — the
//!   default prediction when no tagged bank matches;
//! * `BANKS` **tagged banks** `T1..T4`, indexed by PC hashed with a
//!   *folded* global-history register whose lengths grow geometrically
//!   ([`HIST_LENGTHS`] = 5, 15, 44, 130 — close to Seznec's published
//!   series). Each entry holds a partial tag, a 3-bit signed counter, and
//!   a 2-bit usefulness counter.
//!
//! # Bank selection, allocation, update
//!
//! Prediction picks the matching bank with the **longest** history (the
//! *provider*); the next-longest match (or the base table) is the
//! *alternate*. On a misprediction the predictor **allocates** a fresh
//! entry in a longer-history bank whose entry has usefulness 0,
//! decrementing usefulness along the way when none is free — the
//! classic TAGE replacement pressure.
//!
//! ```
//! use si_cpu::TagePredictor;
//!
//! let mut p = TagePredictor::new(1024);
//! // Cold: no tagged bank matches, the base table provides (weakly
//! // not-taken, like the bimodal predictor).
//! assert_eq!(p.provider_history_len(0x40), None);
//! assert!(!p.predict(0x40));
//!
//! // The base table mispredicts an alternating pattern eventually; the
//! // misprediction allocates a tagged entry, which then provides.
//! for i in 0..64u64 {
//!     let taken = i % 2 == 0;
//!     let pred = p.predict(0x40);
//!     p.update(0x40, taken, pred != taken);
//! }
//! assert!(p.provider_history_len(0x40).is_some());
//! ```
//!
//! # Determinism and timing simplifications
//!
//! The global history register is mutated **only** in
//! [`TagePredictor::update`], i.e. in branch *resolution* order (the
//! writeback stage), never at fetch. A hardware TAGE speculatively
//! updates history at fetch and repairs it on squash; resolving at
//! update time is behaviourally equivalent for correct-path branches and
//! sidesteps checkpointing folded registers through the ROB. Likewise
//! the provider is recomputed at update time instead of being carried as
//! per-branch metadata. Both choices trade a little prediction accuracy
//! on wrong-path-adjacent branches for state that is a pure function of
//! the resolved branch stream — which is what makes sweep documents
//! byte-identical across thread counts and cache temperature. Graceful
//! usefulness aging (the periodic column reset of Seznec §3.2) is
//! omitted; workloads here are far shorter than the 256K-branch aging
//! period.

/// Geometric history lengths of the tagged banks, shortest first.
pub const HIST_LENGTHS: [usize; BANKS] = [5, 15, 44, 130];

/// Number of tagged banks.
pub const BANKS: usize = 4;

/// Entries per tagged bank.
const BANK_ENTRIES: usize = 512;

/// Partial-tag width in bits.
const TAG_BITS: usize = 8;

/// Bits of global history kept (≥ the longest bank length).
const HIST_BITS: usize = 192;

/// One tagged-bank entry: partial tag, 3-bit signed prediction counter
/// (−4..=3; ≥ 0 predicts taken), 2-bit usefulness counter.
#[derive(Debug, Clone, Copy, Default)]
struct TageEntry {
    tag: u16,
    ctr: i8,
    useful: u8,
}

/// A history register folded down to `bits` by cyclic XOR (Seznec's
/// incremental implementation: shift in the newest bit, XOR out the
/// oldest at its folded position, wrap the overflow).
#[derive(Debug, Clone, Copy)]
struct Folded {
    comp: u64,
    bits: usize,
    hist_len: usize,
}

impl Folded {
    fn new(bits: usize, hist_len: usize) -> Folded {
        Folded {
            comp: 0,
            bits,
            hist_len,
        }
    }

    fn update(&mut self, newest: u64, oldest: u64) {
        self.comp = (self.comp << 1) | newest;
        self.comp ^= oldest << (self.hist_len % self.bits);
        self.comp ^= self.comp >> self.bits;
        self.comp &= (1 << self.bits) - 1;
    }
}

/// Per-bank folded-history registers: one for the index, two for the tag
/// (at different widths, so index and tag decorrelate).
#[derive(Debug, Clone, Copy)]
struct BankHash {
    index: Folded,
    tag0: Folded,
    tag1: Folded,
}

/// The TAGE predictor. See the [module docs](self) for structure and
/// update rules; it is a drop-in peer of
/// [`BranchPredictor`](crate::BranchPredictor) behind the
/// [`Predictor`](crate::Predictor) dispatch enum.
#[derive(Debug, Clone)]
pub struct TagePredictor {
    /// Base bimodal table (2-bit counters, initialized weakly not-taken).
    base: Vec<u8>,
    base_mask: u64,
    banks: [Vec<TageEntry>; BANKS],
    hashes: [BankHash; BANKS],
    /// Global history as a bit deque, newest bit at index `hist_pos`.
    hist: [bool; HIST_BITS],
    hist_pos: usize,
    predicts: u64,
    mispredicts: u64,
}

impl TagePredictor {
    /// Creates a predictor whose base bimodal table has `base_entries`
    /// counters; the four tagged banks have a fixed 512 entries each.
    ///
    /// # Panics
    ///
    /// Panics if `base_entries` is not a power of two.
    pub fn new(base_entries: usize) -> TagePredictor {
        assert!(
            base_entries.is_power_of_two(),
            "base entries must be a power of two"
        );
        let bank_bits = BANK_ENTRIES.trailing_zeros() as usize;
        TagePredictor {
            base: vec![1; base_entries],
            base_mask: base_entries as u64 - 1,
            banks: std::array::from_fn(|_| vec![TageEntry::default(); BANK_ENTRIES]),
            hashes: std::array::from_fn(|b| BankHash {
                index: Folded::new(bank_bits, HIST_LENGTHS[b]),
                tag0: Folded::new(TAG_BITS, HIST_LENGTHS[b]),
                tag1: Folded::new(TAG_BITS - 1, HIST_LENGTHS[b]),
            }),
            hist: [false; HIST_BITS],
            hist_pos: 0,
            predicts: 0,
            mispredicts: 0,
        }
    }

    /// Bank index for `pc` in bank `b`: PC hash XOR folded history.
    fn index(&self, b: usize, pc: u64) -> usize {
        let bank_bits = BANK_ENTRIES.trailing_zeros() as usize;
        let pc = pc >> 3;
        let h = pc ^ (pc >> bank_bits) ^ self.hashes[b].index.comp ^ (b as u64 + 1);
        (h as usize) & (BANK_ENTRIES - 1)
    }

    /// Partial tag for `pc` in bank `b`.
    fn tag(&self, b: usize, pc: u64) -> u16 {
        let pc = pc >> 3;
        let h = pc ^ self.hashes[b].tag0.comp ^ (self.hashes[b].tag1.comp << 1);
        (h as u16) & ((1 << TAG_BITS) - 1)
    }

    /// The matching bank with the longest history for `pc`, and the
    /// next-longest match below `below` when `below < BANKS`.
    fn matches(&self, pc: u64) -> Vec<usize> {
        (0..BANKS)
            .rev()
            .filter(|&b| self.banks[b][self.index(b, pc)].tag == self.tag(b, pc))
            .collect()
    }

    fn base_taken(&self, pc: u64) -> bool {
        self.base[((pc >> 3) & self.base_mask) as usize] >= 2
    }

    /// The provider bank's history length for `pc`, or `None` when only
    /// the base table would provide — observability for tests and
    /// doctests of bank selection.
    pub fn provider_history_len(&self, pc: u64) -> Option<usize> {
        self.matches(pc).first().map(|&b| HIST_LENGTHS[b])
    }

    /// Predicts whether the branch at `pc` is taken: the provider bank's
    /// counter, or the base table's when no bank matches.
    pub fn predict(&mut self, pc: u64) -> bool {
        self.predicts += 1;
        match self.matches(pc).first() {
            Some(&b) => self.banks[b][self.index(b, pc)].ctr >= 0,
            None => self.base_taken(pc),
        }
    }

    /// Trains on a resolved branch outcome: updates the provider's
    /// counter, adjusts usefulness against the alternate prediction,
    /// allocates into a longer bank on misprediction, then shifts the
    /// outcome into the global history (and every folded register).
    pub fn update(&mut self, pc: u64, taken: bool, mispredicted: bool) {
        if mispredicted {
            self.mispredicts += 1;
        }
        let matches = self.matches(pc);
        let provider = matches.first().copied();
        // Provider/alternate predictions from current table state (the
        // resolution-order simplification of the module docs).
        let (pred, alt_pred) = match provider {
            Some(b) => {
                let p = self.banks[b][self.index(b, pc)].ctr >= 0;
                let a = match matches.get(1) {
                    Some(&ab) => self.banks[ab][self.index(ab, pc)].ctr >= 0,
                    None => self.base_taken(pc),
                };
                (p, a)
            }
            None => {
                let p = self.base_taken(pc);
                (p, p)
            }
        };
        // Usefulness: the provider was useful iff it disagreed with the
        // alternate and was right.
        if let Some(b) = provider {
            if pred != alt_pred {
                let i = self.index(b, pc);
                let u = &mut self.banks[b][i].useful;
                if pred == taken {
                    *u = (*u + 1).min(3);
                } else {
                    *u = u.saturating_sub(1);
                }
            }
        }
        // Train the provider (3-bit signed saturating), or the base table.
        match provider {
            Some(b) => {
                let i = self.index(b, pc);
                let c = &mut self.banks[b][i].ctr;
                *c = if taken {
                    (*c + 1).min(3)
                } else {
                    (*c - 1).max(-4)
                };
            }
            None => {
                let i = ((pc >> 3) & self.base_mask) as usize;
                let c = &mut self.base[i];
                *c = if taken {
                    (*c + 1).min(3)
                } else {
                    c.saturating_sub(1)
                };
            }
        }
        // Allocation: on a misprediction with headroom, claim the first
        // longer-history entry with usefulness 0; otherwise decay them.
        let provider_rank = provider.map_or(0, |b| b + 1);
        if pred != taken && provider_rank < BANKS {
            let mut allocated = false;
            for b in provider_rank..BANKS {
                let i = self.index(b, pc);
                if self.banks[b][i].useful == 0 {
                    self.banks[b][i] = TageEntry {
                        tag: self.tag(b, pc),
                        ctr: if taken { 0 } else { -1 },
                        useful: 0,
                    };
                    allocated = true;
                    break;
                }
            }
            if !allocated {
                for b in provider_rank..BANKS {
                    let i = self.index(b, pc);
                    self.banks[b][i].useful = self.banks[b][i].useful.saturating_sub(1);
                }
            }
        }
        self.push_history(taken);
    }

    /// Shifts one outcome bit into the global history and incrementally
    /// refolds every bank's index/tag registers.
    fn push_history(&mut self, taken: bool) {
        self.hist_pos = (self.hist_pos + HIST_BITS - 1) % HIST_BITS;
        self.hist[self.hist_pos] = taken;
        let newest = taken as u64;
        for (hashes, &len) in self.hashes.iter_mut().zip(HIST_LENGTHS.iter()) {
            // The bit falling out of this bank's history window.
            let oldest = self.hist[(self.hist_pos + len) % HIST_BITS] as u64;
            hashes.index.update(newest, oldest);
            hashes.tag0.update(newest, oldest);
            hashes.tag1.update(newest, oldest);
        }
    }

    /// `(predictions, mispredictions)` counters.
    pub fn stats(&self) -> (u64, u64) {
        (self.predicts, self.mispredicts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_predictor_is_weakly_not_taken() {
        let mut p = TagePredictor::new(64);
        assert!(!p.predict(0x40));
        assert_eq!(p.provider_history_len(0x40), None);
    }

    #[test]
    fn monotone_training_flips_direction_like_bimodal() {
        let mut p = TagePredictor::new(64);
        p.update(0x40, true, false);
        assert!(p.predict(0x40), "base counter 1 -> 2");
        p.update(0x40, false, false);
        p.update(0x40, false, false);
        assert!(!p.predict(0x40));
    }

    #[test]
    fn history_correlation_learns_alternation() {
        // A strict alternation is invisible to a bimodal table (counter
        // oscillates around the threshold) but trivially history-
        // predictable. After warmup TAGE must track it near-perfectly.
        let mut p = TagePredictor::new(1024);
        let mut late_wrong = 0;
        for i in 0..400u64 {
            let taken = i % 2 == 0;
            let wrong = p.predict(0x40) != taken;
            if i >= 200 && wrong {
                late_wrong += 1;
            }
            p.update(0x40, taken, wrong);
        }
        assert!(
            late_wrong <= 4,
            "alternation still mispredicting {late_wrong}/200 after warmup"
        );
        assert!(p.provider_history_len(0x40).is_some());
    }

    #[test]
    fn allocation_decays_usefulness_when_banks_are_saturated() {
        // Drive many branch PCs with data-dependent-ish patterns; the
        // predictor must keep functioning (no panics, stats sane) while
        // entries churn.
        let mut p = TagePredictor::new(256);
        let mut x = 0x1234_5678_9abc_def0u64;
        for i in 0..5000u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let pc = 0x40 + (x % 64) * 8;
            let taken = (x >> 7) & 3 != 0;
            let pred = p.predict(pc);
            p.update(pc, taken, pred != taken);
            let _ = i;
        }
        let (predicts, mispredicts) = p.stats();
        assert_eq!(predicts, 5000);
        assert!(mispredicts < predicts);
    }

    #[test]
    fn update_order_is_the_only_state_input() {
        // Two predictors fed the same resolved-branch stream are
        // identical regardless of interleaved predict() calls —
        // predictions never mutate tables or history.
        let mut a = TagePredictor::new(128);
        let mut b = TagePredictor::new(128);
        for i in 0..300u64 {
            let pc = 0x40 + (i % 7) * 8;
            let taken = (i * i) % 3 == 0;
            a.predict(pc);
            a.predict(pc ^ 0x80); // extra predicts on a only
            b.predict(pc);
            a.update(pc, taken, false);
            b.update(pc, taken, false);
        }
        for i in 0..300u64 {
            let pc = 0x40 + (i % 7) * 8;
            assert_eq!(a.predict(pc), b.predict(pc), "divergence at pc {pc:#x}");
        }
    }

    #[test]
    fn folded_history_stays_within_width() {
        let mut f = Folded::new(9, 130);
        let mut x = 1u64;
        for _ in 0..1000 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
            f.update(x & 1, (x >> 1) & 1);
            assert!(f.comp < (1 << 9));
        }
    }
}
