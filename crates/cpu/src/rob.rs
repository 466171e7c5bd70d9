//! The reorder buffer and register-alias table.
//!
//! Besides the age-ordered entries, the ROB keeps the per-cycle facts the
//! scheduler asks about current at the events that change them (push,
//! writeback, retire, squash) instead of rescanning its entries: the
//! [`SafetyView`] frontier and the list of in-flight stores that loads
//! search for forwarding. Lookup by sequence number is O(1) although live
//! seqs have gaps (a squash never rewinds the sequence counter).

use std::collections::VecDeque;

use si_isa::{Instruction, Opcode, NUM_REGS};

use crate::scheme::{SafeAction, SafetyFlags, SafetyView};

/// A rename tag: either a committed value or a reference to the in-flight
/// producer's sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegTag {
    /// The architectural value is known.
    Value(u64),
    /// The youngest writer is the in-flight instruction `seq`.
    Rob(u64),
}

/// The register-alias table: one [`RegTag`] per architectural register.
pub type Rat = [RegTag; NUM_REGS];

/// Creates a RAT with every register holding value 0.
pub fn fresh_rat() -> Rat {
    [RegTag::Value(0); NUM_REGS]
}

/// Execution status of a ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryState {
    /// In the reservation station, waiting to issue.
    Waiting,
    /// Issued; executing or waiting on memory.
    Issued,
    /// Result (if any) produced; retirable once it reaches the head.
    Done,
}

/// One reorder-buffer entry.
#[derive(Debug, Clone)]
pub struct RobEntry {
    /// Global, monotonically increasing sequence number (the instruction's
    /// age — the scheduler's priority key).
    pub seq: u64,
    /// Fetch address.
    pub pc: u64,
    /// The instruction.
    pub instr: Instruction,
    /// Execution status.
    pub state: EntryState,
    /// Destination value, once produced.
    pub result: Option<u64>,
    /// Effective address (memory ops), once generated.
    pub addr: Option<u64>,
    /// Value to store (stores), captured at issue.
    pub store_value: Option<u64>,
    /// Predicted next PC (branches; fallthrough when predicted not-taken).
    pub predicted_next: u64,
    /// Whether the branch has resolved.
    pub resolved: bool,
    /// Actual next PC after resolution.
    pub actual_next: u64,
    /// Whether the branch resolved against its prediction.
    pub mispredicted: bool,
    /// Whether the squash for this mispredict was already performed.
    pub squash_handled: bool,
    /// Deferred cache-state action for an invisibly executed load.
    pub pending_safe_action: Option<SafeAction>,
    /// Load currently parked by a `Delay` plan.
    pub delayed: bool,
    /// LLC line this (speculative) load filled visibly — CleanupSpec's
    /// undo record.
    pub spec_fill_line: Option<u64>,
    /// Cycle dispatched (diagnostics).
    pub dispatched_at: u64,
    /// Cycle issued (diagnostics).
    pub issued_at: Option<u64>,
    /// Cycle completed (diagnostics).
    pub completed_at: Option<u64>,
}

impl RobEntry {
    /// Creates a freshly dispatched entry.
    pub fn new(seq: u64, pc: u64, instr: Instruction, cycle: u64) -> RobEntry {
        RobEntry {
            seq,
            pc,
            instr,
            state: EntryState::Waiting,
            result: None,
            addr: None,
            store_value: None,
            predicted_next: 0,
            resolved: false,
            actual_next: 0,
            mispredicted: false,
            squash_handled: false,
            pending_safe_action: None,
            delayed: false,
            spec_fill_line: None,
            dispatched_at: cycle,
            issued_at: None,
            completed_at: None,
        }
    }

    /// Whether this is a conditional branch.
    pub fn is_branch(&self) -> bool {
        self.instr.opcode == Opcode::Branch
    }

    /// Whether this is a load.
    pub fn is_load(&self) -> bool {
        self.instr.opcode == Opcode::Load
    }

    /// Whether this is a store or flush (address-producing, retire-acting).
    pub fn is_store_like(&self) -> bool {
        matches!(self.instr.opcode, Opcode::Store | Opcode::Flush)
    }

    /// The facts the shadow models read off this entry.
    pub fn safety_flags(&self) -> SafetyFlags {
        SafetyFlags {
            seq: self.seq,
            unresolved_branch: self.is_branch() && !self.resolved,
            load_incomplete: self.is_load() && self.state != EntryState::Done,
            store_addr_unknown: self.is_store_like() && self.state != EntryState::Done,
            fence: self.instr.opcode == Opcode::Fence,
        }
    }
}

/// The flag each frontier queue tracks, in [`SafetyView`] field order.
const FRONTIER_FLAGS: [fn(&SafetyFlags) -> bool; 4] = [
    |f| f.unresolved_branch,
    |f| f.load_incomplete,
    |f| f.store_addr_unknown,
    |f| f.fence,
];

/// Index of the fence queue in [`Frontier`].
const FENCES: usize = 3;

/// Per-kind queues of in-flight seqs in dispatch order, one per
/// [`SafetyView`] field. A seq is queued at push if its entry carries the
/// kind's flag and popped lazily once it no longer does (resolved, done,
/// retired or squashed), so each queue's front is that kind's frontier.
#[derive(Debug, Clone, Default)]
struct Frontier([VecDeque<u64>; 4]);

impl Frontier {
    fn view(&self) -> SafetyView {
        let [branch, load, store, fence] = self
            .0
            .each_ref()
            .map(|q| q.front().copied().unwrap_or(SafetyView::NONE));
        SafetyView {
            branch,
            load,
            store,
            fence,
        }
    }
}

/// The reorder buffer: a bounded, age-ordered queue of in-flight
/// instructions.
#[derive(Debug, Clone, Default)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    /// Dense index of `entries[0]`. Each push takes the next dense index
    /// and a squash hands the removed ones back, so live entries hold
    /// consecutive dense indices while their seqs may have gaps.
    base: u64,
    /// Slot of `entries[0]`: its dense index modulo the capacity, kept
    /// incrementally (no division per lookup).
    head_slot: usize,
    /// `(first seq, its dense index)` of each run of consecutive seqs
    /// still in the ROB, oldest first — one run more per squash whose
    /// branch has not retired yet.
    runs: VecDeque<(u64, u64)>,
    frontier: Frontier,
    /// Seqs of in-flight `Store`s, oldest first: where a load looks for a
    /// value to forward.
    stores: VecDeque<u64>,
}

impl Rob {
    /// Creates an empty ROB with the given capacity.
    pub fn new(capacity: usize) -> Rob {
        Rob {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            ..Rob::default()
        }
    }

    /// Number of in-flight entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the ROB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Appends a dispatched entry and returns its slot (see
    /// [`slot_of`](Rob::slot_of)).
    ///
    /// # Panics
    ///
    /// Panics if the ROB is full or `entry.seq` is not monotonically
    /// increasing.
    pub fn push(&mut self, entry: RobEntry) -> usize {
        assert!(!self.is_full(), "ROB overflow");
        let dense = self.base + self.entries.len() as u64;
        match self.entries.back() {
            Some(back) => {
                assert!(back.seq < entry.seq, "ROB sequence must increase");
                if back.seq + 1 != entry.seq {
                    self.runs.push_back((entry.seq, dense));
                }
            }
            None => {
                self.runs.clear();
                self.runs.push_back((entry.seq, dense));
            }
        }
        let flags = entry.safety_flags();
        for (queue, flagged) in self.frontier.0.iter_mut().zip(FRONTIER_FLAGS) {
            if flagged(&flags) {
                queue.push_back(entry.seq);
            }
        }
        if entry.instr.opcode == Opcode::Store {
            self.stores.push_back(entry.seq);
        }
        self.entries.push_back(entry);
        self.slot_at(self.entries.len() - 1)
    }

    /// The oldest entry, if any.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// The slot (see [`slot_of`](Rob::slot_of)) of the oldest entry.
    pub fn head_slot(&self) -> usize {
        self.head_slot
    }

    /// Removes and returns the oldest entry.
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        let entry = self.entries.pop_front()?;
        self.base += 1;
        self.head_slot = self.slot_at(1);
        while self
            .runs
            .get(1)
            .is_some_and(|&(_, dense)| dense <= self.base)
        {
            self.runs.pop_front();
        }
        if self.stores.front() == Some(&entry.seq) {
            self.stores.pop_front();
        }
        // Only a fence carries its flag until it retires: a retiring entry
        // is done, so it heads no other frontier queue.
        if self.frontier.0[FENCES].front() == Some(&entry.seq) {
            self.frontier.0[FENCES].pop_front();
        }
        Some(entry)
    }

    /// Looks up an entry by sequence number.
    pub fn get(&self, seq: u64) -> Option<&RobEntry> {
        self.position(seq).map(|i| &self.entries[i])
    }

    /// Mutable lookup by sequence number. A caller that changes what
    /// [`RobEntry::safety_flags`] reports must call
    /// [`settle`](Rob::settle) afterwards.
    pub fn get_mut(&mut self, seq: u64) -> Option<&mut RobEntry> {
        self.position(seq).map(move |i| &mut self.entries[i])
    }

    /// Position of `seq` from the head (0 = oldest), in O(1): the run that
    /// holds `seq` gives its dense index, and the entry found there is
    /// checked, since a seq inside a squash gap maps onto a live entry.
    pub fn position(&self, seq: u64) -> Option<usize> {
        locate(&self.entries, &self.runs, self.base, seq)
    }

    /// A slot index in `0..capacity` that is unique among live entries
    /// and fixed for an entry's lifetime — a key for side tables indexed
    /// by ROB entry.
    pub fn slot_of(&self, seq: u64) -> Option<usize> {
        self.position(seq).map(|pos| self.slot_at(pos))
    }

    /// The slot of the entry at `pos` (0 = head).
    fn slot_at(&self, pos: usize) -> usize {
        let slot = self.head_slot + pos;
        if slot >= self.capacity {
            slot - self.capacity
        } else {
            slot
        }
    }

    /// Iterates entries oldest-to-youngest.
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }

    /// Removes every entry younger than `branch_seq` and yields them
    /// (oldest first) — the squash path. The entries are gone once the
    /// iterator is dropped, consumed or not.
    pub fn squash_after(&mut self, branch_seq: u64) -> impl Iterator<Item = RobEntry> + '_ {
        let keep = self
            .entries
            .iter()
            .rposition(|e| e.seq <= branch_seq)
            .map_or(0, |i| i + 1);
        while self
            .runs
            .back()
            .is_some_and(|&(first, _)| first > branch_seq)
        {
            self.runs.pop_back();
        }
        for queue in &mut self.frontier.0 {
            while queue.back().is_some_and(|&s| s > branch_seq) {
                queue.pop_back();
            }
        }
        while self.stores.back().is_some_and(|&s| s > branch_seq) {
            self.stores.pop_back();
        }
        self.entries.drain(keep..)
    }

    /// Pops every frontier queue's front that no longer carries its flag.
    /// Amortized O(1): each seq is queued and popped once.
    pub fn settle(&mut self) {
        let Rob {
            entries,
            runs,
            base,
            frontier,
            ..
        } = self;
        for (queue, flagged) in frontier.0.iter_mut().zip(FRONTIER_FLAGS) {
            while let Some(&seq) = queue.front() {
                let live = locate(entries, runs, *base, seq)
                    .is_some_and(|pos| flagged(&entries[pos].safety_flags()));
                if live {
                    break;
                }
                queue.pop_front();
            }
        }
    }

    /// The safety frontier, kept current at push, writeback (via
    /// [`settle`](Rob::settle)), retire and squash.
    pub fn safety_view(&self) -> SafetyView {
        self.frontier.view()
    }

    /// The safety frontier rebuilt from every entry — the oracle the
    /// incremental [`safety_view`](Rob::safety_view) is checked against.
    pub fn scan_safety_view(&self) -> SafetyView {
        SafetyView::from_flags(self.entries.iter().map(RobEntry::safety_flags))
    }

    /// The value a load `seq` of `addr` forwards from the youngest older
    /// in-flight store to the same address, if any. Meaningful once every
    /// older store address is known.
    pub fn forwarded_value(&self, seq: u64, addr: u64) -> Option<u64> {
        self.stores
            .iter()
            .rev()
            .skip_while(|&&s| s >= seq)
            .filter_map(|&s| self.get(s))
            .find(|e| e.addr == Some(addr))
            .and_then(|e| e.store_value)
    }
}

/// [`Rob::position`] over the ROB's parts, so [`Rob::settle`] can look up
/// entries while it holds the frontier mutably.
fn locate(
    entries: &VecDeque<RobEntry>,
    runs: &VecDeque<(u64, u64)>,
    base: u64,
    seq: u64,
) -> Option<usize> {
    let &(first, dense) = runs.iter().rev().find(|(first, _)| *first <= seq)?;
    let pos = usize::try_from((dense + (seq - first)).checked_sub(base)?).ok()?;
    (entries.get(pos)?.seq == seq).then_some(pos)
}

#[cfg(test)]
mod tests {
    use super::*;
    use si_isa::{Instruction, R1, R2, R3};

    fn entry(seq: u64) -> RobEntry {
        RobEntry::new(seq, seq * 8, Instruction::add(R3, R1, R2), 0)
    }

    #[test]
    fn push_pop_fifo_order() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        rob.push(entry(1));
        assert_eq!(rob.len(), 2);
        assert_eq!(rob.pop_head().unwrap().seq, 0);
        assert_eq!(rob.head().unwrap().seq, 1);
    }

    #[test]
    #[should_panic(expected = "ROB overflow")]
    fn overflow_panics() {
        let mut rob = Rob::new(1);
        rob.push(entry(0));
        rob.push(entry(1));
    }

    #[test]
    #[should_panic(expected = "sequence must increase")]
    fn non_monotonic_seq_panics() {
        let mut rob = Rob::new(4);
        rob.push(entry(5));
        rob.push(entry(3));
    }

    #[test]
    fn lookup_by_seq_after_retirement() {
        let mut rob = Rob::new(8);
        for s in 0..5 {
            rob.push(entry(s));
        }
        rob.pop_head();
        rob.pop_head();
        assert!(rob.get(1).is_none());
        assert_eq!(rob.get(3).unwrap().seq, 3);
        assert_eq!(rob.position(2), Some(0));
    }

    #[test]
    fn squash_removes_strictly_younger() {
        let mut rob = Rob::new(8);
        for s in 0..6 {
            rob.push(entry(s));
        }
        let squashed: Vec<RobEntry> = rob.squash_after(2).collect();
        assert_eq!(squashed.len(), 3);
        assert_eq!(squashed[0].seq, 3);
        assert_eq!(rob.len(), 3);
        assert_eq!(rob.iter().last().unwrap().seq, 2);
    }

    #[test]
    fn squash_with_no_younger_is_empty() {
        let mut rob = Rob::new(4);
        rob.push(entry(0));
        assert_eq!(rob.squash_after(0).count(), 0);
        assert_eq!(rob.len(), 1);
    }

    #[test]
    fn lookup_is_exact_across_squash_gaps() {
        let mut rob = Rob::new(4);
        for s in 0..4 {
            rob.push(entry(s));
        }
        assert_eq!(rob.squash_after(1).count(), 2);
        // The sequence counter is never rewound: seqs 2 and 3 are a gap.
        rob.push(entry(10));
        rob.push(entry(11));
        for (seq, pos) in [(0, 0), (1, 1), (10, 2), (11, 3)] {
            assert_eq!(rob.position(seq), Some(pos), "seq {seq}");
        }
        for seq in [2, 3, 9, 12] {
            assert_eq!(rob.position(seq), None, "seq {seq}");
        }
        // Slots stay unique among live entries after wrap-around.
        rob.pop_head();
        rob.pop_head();
        rob.push(entry(12));
        rob.push(entry(20));
        let mut slots: Vec<usize> = [10, 11, 12, 20]
            .iter()
            .map(|s| rob.slot_of(*s).expect("live"))
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, [0, 1, 2, 3]);
        assert_eq!(rob.get(20).map(|e| e.seq), Some(20));
        assert_eq!(rob.position(1), None);
    }

    #[test]
    fn frontier_tracks_events_and_matches_a_rescan() {
        let mut rob = Rob::new(8);
        let mut push = |seq, instr| rob.push(RobEntry::new(seq, seq * 8, instr, 0));
        push(0, Instruction::add(R3, R1, R2));
        push(1, Instruction::load(R1, R2, 0));
        push(2, Instruction::store(R1, R2, 0));
        push(3, Instruction::load(R2, R2, 0));
        let view = rob.safety_view();
        assert_eq!(
            (view.load, view.store, view.branch),
            (1, 2, SafetyView::NONE)
        );
        assert_eq!(view, rob.scan_safety_view());
        // The younger load completes first: the frontier stays on seq 1.
        rob.get_mut(3).unwrap().state = EntryState::Done;
        rob.settle();
        assert_eq!(rob.safety_view().load, 1);
        rob.get_mut(1).unwrap().state = EntryState::Done;
        rob.settle();
        assert_eq!(rob.safety_view().load, SafetyView::NONE, "lazy pop past 3");
        assert_eq!(rob.safety_view(), rob.scan_safety_view());
        assert_eq!(rob.squash_after(1).count(), 2);
        assert_eq!(rob.safety_view(), SafetyView::CLEAR);
    }

    #[test]
    fn forwarding_takes_the_youngest_older_store_to_the_address() {
        let mut rob = Rob::new(8);
        for seq in 0..4 {
            rob.push(RobEntry::new(
                seq,
                seq * 8,
                Instruction::store(R1, R2, 0),
                0,
            ));
            let e = rob.get_mut(seq).unwrap();
            e.addr = Some(if seq == 2 { 0x80 } else { 0x40 });
            e.store_value = Some(seq * 100);
        }
        assert_eq!(rob.forwarded_value(4, 0x40), Some(300));
        assert_eq!(rob.forwarded_value(3, 0x40), Some(100));
        assert_eq!(rob.forwarded_value(3, 0x80), Some(200));
        assert_eq!(rob.forwarded_value(0, 0x40), None);
        rob.pop_head();
        assert_eq!(
            rob.forwarded_value(1, 0x40),
            None,
            "retired stores are gone"
        );
    }

    #[test]
    fn entry_classification() {
        let load = RobEntry::new(0, 0, Instruction::load(R1, R2, 0), 0);
        assert!(load.is_load() && !load.is_branch() && !load.is_store_like());
        let st = RobEntry::new(1, 8, Instruction::store(R1, R2, 0), 0);
        assert!(st.is_store_like());
        let fl = RobEntry::new(2, 16, Instruction::flush(R2, 0), 0);
        assert!(fl.is_store_like());
    }
}
