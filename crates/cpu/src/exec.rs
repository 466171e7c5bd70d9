//! Execution ports and in-flight operations.
//!
//! Ports host functional-unit classes per [`FuTable`](crate::FuTable). A
//! **pipelined** class accepts one operation per cycle per port; a
//! **non-pipelined** class occupies its port for the operation's full
//! latency — the property the `G^D_NPEU` gadget exploits (§3.2.2): a
//! mis-speculated `Sqrt` on port 0 blocks an older, retirement-bound
//! `Sqrt` from issuing.
//!
//! Squashed operations do **not** free their unit early: as on real
//! hardware, a bound-to-squash operation keeps crunching until it
//! completes (making units squashable is one of the §5.4 defense options,
//! not baseline behaviour). Results of squashed operations are dropped at
//! writeback.

use si_isa::FuClass;

use crate::config::FuTable;

/// What an in-flight operation delivers at completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPayload {
    /// A register result.
    Value(u64),
    /// A load's generated address (the data access happens next, in the
    /// load-store unit).
    AddrReady {
        /// Effective address.
        addr: u64,
    },
    /// A store's address and data.
    StoreReady {
        /// Effective address.
        addr: u64,
        /// Value to write at retirement.
        value: u64,
    },
    /// A flush's address.
    FlushReady {
        /// Effective address.
        addr: u64,
    },
    /// A resolved conditional branch.
    BranchResolved {
        /// Actual next PC.
        next_pc: u64,
        /// Whether the branch was taken.
        taken: bool,
    },
}

/// One operation in flight through an execution unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InFlight {
    /// The instruction's sequence number.
    pub seq: u64,
    /// Completion cycle.
    pub done_at: u64,
    /// Executing port.
    pub port: usize,
    /// Whether the occupying class is non-pipelined (port held to
    /// `done_at`).
    pub non_pipelined: bool,
    /// Result delivered at completion.
    pub payload: ExecPayload,
}

/// The pool of execution ports plus in-flight operations.
#[derive(Debug, Clone)]
pub struct ExecUnits {
    busy_until: Vec<u64>,
    issued_this_cycle: Vec<bool>,
    in_flight: Vec<InFlight>,
    /// Operations issued per port over the unit's lifetime — the per-port
    /// contention profile the interference attacks skew (a mis-speculated
    /// sqrt chain shows up as excess port-0 issues).
    issues_per_port: Vec<u64>,
}

impl ExecUnits {
    /// Creates execution units covering every port in `fu`.
    pub fn new(fu: &FuTable) -> ExecUnits {
        let ports = fu.max_port() + 1;
        ExecUnits {
            busy_until: vec![0; ports],
            issued_this_cycle: vec![false; ports],
            in_flight: Vec::new(),
            issues_per_port: vec![0; ports],
        }
    }

    /// Call at the start of each cycle to reset per-cycle issue slots.
    pub fn begin_cycle(&mut self) {
        self.issued_this_cycle.iter_mut().for_each(|b| *b = false);
    }

    /// Finds a port of `class` that can accept an issue at `now`, if any.
    pub fn free_port(&self, fu: &FuTable, class: FuClass, now: u64) -> Option<usize> {
        fu.timing(class)
            .ports
            .iter()
            .copied()
            .find(|p| self.busy_until[*p] <= now && !self.issued_this_cycle[*p])
    }

    /// Issues an operation to `port` at `now`, delivering `payload` after
    /// the class latency. Returns the completion cycle.
    pub fn issue(
        &mut self,
        fu: &FuTable,
        class: FuClass,
        port: usize,
        seq: u64,
        now: u64,
        payload: ExecPayload,
    ) -> u64 {
        let t = fu.timing(class);
        debug_assert!(t.ports.contains(&port), "issue to a port hosting {class:?}");
        debug_assert!(self.busy_until[port] <= now, "issue to a busy port");
        let done_at = now + t.latency;
        self.issued_this_cycle[port] = true;
        self.issues_per_port[port] += 1;
        if !t.pipelined {
            self.busy_until[port] = done_at;
        }
        self.in_flight.push(InFlight {
            seq,
            done_at,
            port,
            non_pipelined: !t.pipelined,
            payload,
        });
        done_at
    }

    /// Moves every operation completing at or before `now` into `done`
    /// (cleared first), oldest sequence first. The buffer is the
    /// caller's, so the per-cycle completion sweep reuses one allocation.
    pub fn drain_done_into(&mut self, now: u64, done: &mut Vec<InFlight>) {
        done.clear();
        self.in_flight.retain(|op| {
            if op.done_at <= now {
                done.push(*op);
                false
            } else {
                true
            }
        });
        done.sort_by_key(|op| op.seq);
    }

    /// Earliest completion cycle among in-flight operations.
    pub fn next_done_at(&self) -> Option<u64> {
        self.in_flight.iter().map(|op| op.done_at).min()
    }

    /// Extends the port reservation of a completed-but-held non-pipelined
    /// operation (§5.4 resource-holding defense).
    pub fn hold_port(&mut self, port: usize, until: u64) {
        self.busy_until[port] = self.busy_until[port].max(until);
    }

    /// Whether any operation is still in flight.
    pub fn idle(&self, now: u64) -> bool {
        self.in_flight.is_empty() && self.busy_until.iter().all(|b| *b <= now)
    }

    /// Lifetime issue count per port (index = port number).
    pub fn issues_per_port(&self) -> &[u64] {
        &self.issues_per_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fu() -> FuTable {
        FuTable::default()
    }

    #[test]
    fn pipelined_port_accepts_one_issue_per_cycle() {
        let fu = fu();
        let mut eu = ExecUnits::new(&fu);
        eu.begin_cycle();
        let p = eu.free_port(&fu, FuClass::IntMul, 0).unwrap();
        eu.issue(&fu, FuClass::IntMul, p, 0, 0, ExecPayload::Value(1));
        assert!(
            eu.free_port(&fu, FuClass::IntMul, 0).is_none(),
            "port 1 already issued this cycle"
        );
        eu.begin_cycle();
        assert!(
            eu.free_port(&fu, FuClass::IntMul, 1).is_some(),
            "pipelined port takes a new op next cycle"
        );
    }

    #[test]
    fn non_pipelined_port_blocks_for_full_latency() {
        let fu = fu();
        let mut eu = ExecUnits::new(&fu);
        eu.begin_cycle();
        let p = eu.free_port(&fu, FuClass::FpSqrt, 0).unwrap();
        assert_eq!(p, 0);
        let done = eu.issue(&fu, FuClass::FpSqrt, p, 0, 0, ExecPayload::Value(1));
        assert_eq!(done, 15);
        for cycle in 1..15 {
            eu.begin_cycle();
            assert!(
                eu.free_port(&fu, FuClass::FpSqrt, cycle).is_none(),
                "port 0 busy at cycle {cycle}"
            );
        }
        eu.begin_cycle();
        assert!(eu.free_port(&fu, FuClass::FpSqrt, 15).is_some());
    }

    #[test]
    fn sqrt_blocks_alu_sharing_its_port_but_not_other_alu_ports() {
        let fu = fu();
        let mut eu = ExecUnits::new(&fu);
        eu.begin_cycle();
        eu.issue(&fu, FuClass::FpSqrt, 0, 0, 0, ExecPayload::Value(1));
        eu.begin_cycle();
        // ALU lives on ports {0,1,4,5}; port 0 is held by the sqrt.
        let p = eu.free_port(&fu, FuClass::IntAlu, 1).unwrap();
        assert_ne!(p, 0);
    }

    #[test]
    fn drain_done_returns_completions_in_age_order() {
        let fu = fu();
        let mut eu = ExecUnits::new(&fu);
        eu.begin_cycle();
        eu.issue(&fu, FuClass::IntAlu, 1, 9, 0, ExecPayload::Value(9));
        eu.issue(&fu, FuClass::IntAlu, 0, 3, 0, ExecPayload::Value(3));
        let mut done = Vec::new();
        eu.drain_done_into(0, &mut done);
        assert!(done.is_empty());
        eu.drain_done_into(1, &mut done);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].seq, 3);
        assert_eq!(done[1].seq, 9);
        assert!(eu.idle(1));
    }

    #[test]
    fn hold_port_extends_reservation() {
        let fu = fu();
        let mut eu = ExecUnits::new(&fu);
        eu.begin_cycle();
        eu.issue(&fu, FuClass::FpSqrt, 0, 0, 0, ExecPayload::Value(1));
        eu.drain_done_into(15, &mut Vec::new());
        eu.hold_port(0, 20);
        eu.begin_cycle();
        assert!(eu.free_port(&fu, FuClass::FpSqrt, 15).is_none());
        assert!(eu.free_port(&fu, FuClass::FpSqrt, 20).is_some());
    }
}
