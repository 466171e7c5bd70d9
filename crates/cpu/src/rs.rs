//! The unified reservation station.
//!
//! One pool of entries shared by every functional-unit class, as on the
//! paper's Kaby Lake target ("a unified reservation station, shared across
//! execution units, stores up to 97 micro-ops", §4.1). Its finite capacity
//! is the contended resource of the `G^I_RS` gadget: dependent instructions
//! that cannot issue pin entries, the pool fills, dispatch stalls, and the
//! frontend stops fetching (§3.2.2, Figure 5).

use si_isa::FuClass;

/// A source operand: ready with a value, or waiting on a producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Operand {
    /// Value available.
    Ready(u64),
    /// Waiting for the instruction with this sequence number to write back.
    Waiting(u64),
}

impl Operand {
    /// Returns the value if ready.
    pub fn value(&self) -> Option<u64> {
        match self {
            Operand::Ready(v) => Some(*v),
            Operand::Waiting(_) => None,
        }
    }
}

/// An instruction's source operands, stored inline (0–2 of them) so
/// issue and CDB wakeup never chase a heap pointer per entry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OperandList {
    ops: [Option<Operand>; 2],
}

impl OperandList {
    /// An empty operand list.
    pub fn new() -> OperandList {
        OperandList::default()
    }

    /// Appends an operand.
    ///
    /// # Panics
    ///
    /// Panics if the list already holds two operands.
    pub fn push(&mut self, op: Operand) {
        let slot = self
            .ops
            .iter_mut()
            .find(|o| o.is_none())
            .expect("at most two source operands");
        *slot = Some(op);
    }

    /// Iterates the operands.
    pub fn iter(&self) -> impl Iterator<Item = &Operand> {
        self.ops.iter().flatten()
    }

    /// Mutable iteration.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut Operand> {
        self.ops.iter_mut().flatten()
    }
}

impl FromIterator<Operand> for OperandList {
    fn from_iter<I: IntoIterator<Item = Operand>>(iter: I) -> OperandList {
        let mut list = OperandList::new();
        for op in iter {
            list.push(op);
        }
        list
    }
}

impl<'a> IntoIterator for &'a OperandList {
    type Item = &'a Operand;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Option<Operand>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.ops.iter().flatten()
    }
}

/// One reservation-station entry.
#[derive(Debug, Clone)]
pub struct RsEntry {
    /// The instruction's sequence number (age key for scheduling).
    pub seq: u64,
    /// The functional-unit class it needs.
    pub fu: FuClass,
    /// Source operands.
    pub operands: OperandList,
    /// Set once issued. Issued entries normally leave the pool immediately;
    /// under the §5.4 "hold resources until non-speculative" defense they
    /// stay (occupying capacity) until retirement.
    pub issued: bool,
}

impl RsEntry {
    /// Whether every operand is ready.
    pub fn ready(&self) -> bool {
        self.operands.iter().all(|o| o.value().is_some())
    }
}

/// The unified reservation station.
///
/// Entries live in a slab of `capacity` slots. Scheduling state is kept
/// current at events rather than rescanned per cycle:
///
/// * the **ready list** holds `(seq, slot)` of every unissued entry whose
///   operands are all ready, age-ordered; an entry joins it when its last
///   operand arrives, at insert or at wakeup;
/// * the **wakeup table** has one row per producer ROB slot, a bitset of
///   the RS slots that wait on that producer, so a result wakes only its
///   consumers. Bits are not cleared when a consumer is squashed or its
///   slot reused: a wakeup checks each operand for the producer's seq,
///   and seqs are never reused, so a stale bit is a no-op.
#[derive(Debug, Clone)]
pub struct ReservationStation {
    slots: Vec<Option<RsEntry>>,
    free: Vec<u32>,
    occupancy: usize,
    capacity: usize,
    ready: Vec<(u64, u32)>,
    /// `rob_capacity` rows of `words` bitset words.
    waiters: Vec<u64>,
    words: usize,
    /// RS slot of each ROB slot's entry, for release at retirement.
    slot_of_rob: Vec<u32>,
}

impl ReservationStation {
    /// Creates an empty station of `capacity` entries serving a ROB of
    /// `rob_capacity` entries.
    pub fn new(capacity: usize, rob_capacity: usize) -> ReservationStation {
        let words = capacity.div_ceil(64);
        ReservationStation {
            slots: Vec::new(),
            free: Vec::new(),
            occupancy: 0,
            capacity,
            ready: Vec::new(),
            waiters: vec![0; rob_capacity * words],
            words,
            slot_of_rob: vec![0; rob_capacity],
        }
    }

    /// Occupied entries (issued-but-held entries count).
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Whether dispatch must stall.
    pub fn is_full(&self) -> bool {
        self.occupancy >= self.capacity
    }

    /// Inserts a dispatched instruction occupying ROB slot `rob_slot`;
    /// `producer_slot` maps the seq of each waiting operand's producer to
    /// that producer's ROB slot.
    ///
    /// # Panics
    ///
    /// Panics if the station is full, or if `entry` is ready but not
    /// younger than the ready list's youngest entry (dispatch is in age
    /// order).
    pub fn insert(
        &mut self,
        entry: RsEntry,
        rob_slot: usize,
        producer_slot: impl Fn(u64) -> usize,
    ) {
        assert!(!self.is_full(), "RS overflow");
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        for op in entry.operands.iter() {
            if let Operand::Waiting(producer) = op {
                let word = producer_slot(*producer) * self.words + slot as usize / 64;
                self.waiters[word] |= 1 << (slot % 64);
            }
        }
        if entry.ready() {
            if let Some(&(last, _)) = self.ready.last() {
                assert!(last < entry.seq, "RS inserts must be age-ordered");
            }
            self.ready.push((entry.seq, slot));
        }
        self.slot_of_rob[rob_slot] = slot;
        self.slots[slot as usize] = Some(entry);
        self.occupancy += 1;
    }

    /// Delivers `producer`'s `value` (the common-data-bus wakeup) to the
    /// entries registered under its ROB slot; entries left with no
    /// waiting operand join the ready list.
    pub fn wake(&mut self, producer_slot: usize, producer: u64, value: u64) {
        let row = producer_slot * self.words;
        for w in 0..self.words {
            let mut bits = std::mem::take(&mut self.waiters[row + w]);
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let Some(e) = &mut self.slots[slot] else {
                    continue;
                };
                let mut woke = false;
                for op in e.operands.iter_mut() {
                    if *op == Operand::Waiting(producer) {
                        *op = Operand::Ready(value);
                        woke = true;
                    }
                }
                if woke && e.ready() {
                    let at = self.ready.partition_point(|&(s, _)| s < e.seq);
                    self.ready.insert(at, (e.seq, slot as u32));
                }
            }
        }
    }

    /// Whether any unissued entry has all operands ready.
    pub fn has_ready(&self) -> bool {
        !self.ready.is_empty()
    }

    /// Takes the age-ordered ready list out for the issue stage; hand back
    /// what did not issue with [`restore_ready`](Self::restore_ready).
    pub fn take_ready(&mut self) -> Vec<(u64, u32)> {
        std::mem::take(&mut self.ready)
    }

    /// Returns the ready list taken by [`take_ready`](Self::take_ready).
    pub fn restore_ready(&mut self, ready: Vec<(u64, u32)>) {
        debug_assert!(self.ready.is_empty(), "nothing wakes during issue");
        self.ready = ready;
    }

    /// The entry in `slot`.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free.
    pub fn entry(&self, slot: u32) -> &RsEntry {
        self.slots[slot as usize]
            .as_ref()
            .expect("occupied RS slot")
    }

    /// Marks the entry in `slot` issued; frees it unless `hold` is set.
    pub fn mark_issued(&mut self, slot: u32, hold: bool) {
        if hold {
            if let Some(e) = &mut self.slots[slot as usize] {
                e.issued = true;
            }
        } else {
            self.free_slot(slot);
        }
    }

    /// Releases the held entry of `seq` (ROB slot `rob_slot`) at
    /// retirement; a no-op for an instruction that never took an entry.
    pub fn release(&mut self, rob_slot: usize, seq: u64) {
        let slot = self.slot_of_rob[rob_slot];
        let held = self.slots.get(slot as usize);
        if held.is_some_and(|e| e.as_ref().is_some_and(|e| e.seq == seq)) {
            self.free_slot(slot);
        }
    }

    fn free_slot(&mut self, slot: u32) {
        if self.slots[slot as usize].take().is_some() {
            self.occupancy -= 1;
            self.free.push(slot);
        }
    }

    /// Drops every entry younger than `branch_seq` (squash path).
    pub fn squash_after(&mut self, branch_seq: u64) {
        for slot in 0..self.slots.len() {
            if self.slots[slot]
                .as_ref()
                .is_some_and(|e| e.seq > branch_seq)
            {
                self.free_slot(slot as u32);
            }
        }
        let keep = self.ready.partition_point(|&(s, _)| s <= branch_seq);
        self.ready.truncate(keep);
    }

    /// Whether an *unissued* entry older than `seq` needs `fu` — the §5.4
    /// strict-age-priority reservation test.
    pub fn older_unissued_for(&self, fu: FuClass, seq: u64) -> bool {
        self.iter().any(|e| !e.issued && e.fu == fu && e.seq < seq)
    }

    /// Iterates the occupied entries in slot order (not age order).
    pub fn iter(&self) -> impl Iterator<Item = &RsEntry> {
        self.slots.iter().flatten()
    }

    /// Checks the ready list against a rescan of every entry (the oracle
    /// for the event-kept list), and that each waiting operand is
    /// registered under its producer's ROB slot (given by
    /// `producer_slot`, `None` when the producer is not in flight).
    pub fn audit(&self, producer_slot: impl Fn(u64) -> Option<usize>) -> Result<(), String> {
        // The list is strictly age-ordered, names only unissued ready
        // entries, and is as long as the rescan — so it equals the rescan.
        let mut last = None;
        for &(seq, slot) in &self.ready {
            let listed = self.slots[slot as usize]
                .as_ref()
                .is_some_and(|e| e.seq == seq && !e.issued && e.ready());
            if !listed || last >= Some(seq) {
                return Err(format!("ready list {:?} is stale at {seq}", self.ready));
            }
            last = Some(seq);
        }
        let (mut occupied, mut ready) = (0, 0);
        for e in self.iter() {
            occupied += 1;
            ready += usize::from(!e.issued && e.ready());
        }
        if ready != self.ready.len() {
            return Err(format!("ready list {:?} misses entries", self.ready));
        }
        if occupied != self.occupancy {
            return Err(format!("occupancy {} is stale", self.occupancy));
        }
        for (slot, e) in self.slots.iter().enumerate() {
            for op in e.iter().flat_map(|e| e.operands.iter()) {
                if let Operand::Waiting(producer) = op {
                    let Some(row) = producer_slot(*producer) else {
                        return Err(format!("slot {slot} waits on retired {producer}"));
                    };
                    let word = self.waiters[row * self.words + slot / 64];
                    if word & (1 << (slot % 64)) == 0 {
                        return Err(format!("slot {slot} not registered under {producer}"));
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(seq: u64, fu: FuClass, ops: Vec<Operand>) -> RsEntry {
        RsEntry {
            seq,
            fu,
            operands: ops.into_iter().collect(),
            issued: false,
        }
    }

    /// Producer seq `p` sits in ROB slot `p % 8` in these tests.
    fn slot(p: u64) -> usize {
        (p % 8) as usize
    }

    fn ready_seqs(rs: &ReservationStation) -> Vec<u64> {
        rs.ready.iter().map(|&(s, _)| s).collect()
    }

    #[test]
    fn wakeup_readies_waiting_operands_and_joins_the_ready_list() {
        let mut rs = ReservationStation::new(4, 8);
        rs.insert(
            entry(
                1,
                FuClass::IntAlu,
                vec![Operand::Waiting(0), Operand::Ready(5)],
            ),
            1,
            slot,
        );
        assert!(!rs.has_ready());
        rs.wake(slot(0), 0, 37);
        let e = rs.iter().next().unwrap();
        assert!(e.ready());
        assert_eq!(e.operands.iter().next().unwrap().value(), Some(37));
        assert_eq!(ready_seqs(&rs), [1]);
        rs.audit(|p| Some(slot(p))).unwrap();
    }

    #[test]
    fn late_wakeups_keep_the_ready_list_age_ordered() {
        let mut rs = ReservationStation::new(8, 8);
        rs.insert(
            entry(3, FuClass::IntAlu, vec![Operand::Waiting(1)]),
            3,
            slot,
        );
        rs.insert(entry(4, FuClass::IntAlu, vec![]), 4, slot);
        rs.insert(
            entry(
                5,
                FuClass::IntAlu,
                vec![Operand::Waiting(1), Operand::Waiting(2)],
            ),
            5,
            slot,
        );
        assert_eq!(ready_seqs(&rs), [4]);
        rs.wake(slot(1), 1, 10);
        assert_eq!(ready_seqs(&rs), [3, 4], "5 still waits on 2");
        rs.wake(slot(2), 2, 20);
        assert_eq!(ready_seqs(&rs), [3, 4, 5]);
        rs.audit(|p| Some(slot(p))).unwrap();
    }

    #[test]
    fn stale_wakeup_bits_are_harmless() {
        let mut rs = ReservationStation::new(2, 8);
        rs.insert(
            entry(3, FuClass::IntAlu, vec![Operand::Waiting(1)]),
            3,
            slot,
        );
        rs.squash_after(2);
        // The freed slot is reused by an entry that does not wait on 1.
        rs.insert(
            entry(9, FuClass::IntAlu, vec![Operand::Waiting(2)]),
            1,
            slot,
        );
        rs.wake(slot(1), 1, 10);
        assert!(!rs.has_ready());
        rs.wake(slot(2), 2, 20);
        assert_eq!(ready_seqs(&rs), [9]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut rs = ReservationStation::new(2, 8);
        rs.insert(entry(0, FuClass::IntAlu, vec![]), 0, slot);
        rs.insert(entry(1, FuClass::IntAlu, vec![]), 1, slot);
        assert!(rs.is_full());
    }

    #[test]
    #[should_panic(expected = "RS overflow")]
    fn overflow_panics() {
        let mut rs = ReservationStation::new(1, 8);
        rs.insert(entry(0, FuClass::IntAlu, vec![]), 0, slot);
        rs.insert(entry(1, FuClass::IntAlu, vec![]), 1, slot);
    }

    #[test]
    fn issue_removes_by_default_but_holds_under_defense() {
        let mut rs = ReservationStation::new(4, 8);
        rs.insert(entry(0, FuClass::IntAlu, vec![]), 0, slot);
        rs.insert(entry(1, FuClass::IntAlu, vec![]), 1, slot);
        let ready = rs.take_ready();
        rs.mark_issued(ready[0].1, false);
        assert_eq!(rs.occupancy(), 1);
        rs.mark_issued(ready[1].1, true);
        rs.restore_ready(Vec::new());
        assert_eq!(rs.occupancy(), 1, "held entry still occupies a slot");
        assert!(rs.iter().next().unwrap().issued);
        rs.release(1, 1);
        assert_eq!(rs.occupancy(), 0);
    }

    #[test]
    fn squash_drops_younger_only() {
        let mut rs = ReservationStation::new(8, 8);
        for s in 0..5 {
            rs.insert(entry(s, FuClass::IntAlu, vec![]), slot(s), slot);
        }
        rs.squash_after(2);
        assert_eq!(rs.occupancy(), 3);
        assert!(rs.iter().all(|e| e.seq <= 2));
        assert_eq!(ready_seqs(&rs), [0, 1, 2]);
        rs.audit(|p| Some(slot(p))).unwrap();
    }

    #[test]
    fn age_priority_reservation_detects_older_waiters() {
        let mut rs = ReservationStation::new(8, 8);
        rs.insert(
            entry(3, FuClass::FpSqrt, vec![Operand::Waiting(1)]),
            3,
            slot,
        );
        rs.insert(entry(7, FuClass::FpSqrt, vec![]), 7, slot);
        // The younger (7) must see the older unissued sqrt (3).
        assert!(rs.older_unissued_for(FuClass::FpSqrt, 7));
        assert!(!rs.older_unissued_for(FuClass::FpSqrt, 3));
        assert!(!rs.older_unissued_for(FuClass::IntMul, 7));
    }
}
