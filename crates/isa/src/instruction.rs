//! Concrete instructions: opcode plus operands.

use std::fmt;

use crate::{BranchCond, Opcode, Reg, INSTR_BYTES, R0};

/// One micro-ISA instruction.
///
/// All instructions share one operand record; which fields are meaningful
/// depends on the [`Opcode`]. Use the constructor methods rather than
/// building the struct by hand — they fill the unused fields with neutral
/// values so that instruction equality and hashing behave predictably.
///
/// # Example
///
/// ```
/// use si_isa::{Instruction, R1, R2, R3};
///
/// let i = Instruction::add(R3, R1, R2);
/// assert_eq!(i.to_string(), "add r3, r1, r2");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub struct Instruction {
    /// The operation.
    pub opcode: Opcode,
    /// Destination register (meaningful iff `opcode.writes_reg()`).
    pub dst: Reg,
    /// First source register.
    pub src1: Reg,
    /// Second source register.
    pub src2: Reg,
    /// Immediate operand: ALU immediate, memory offset, or absolute
    /// branch/jump target address.
    pub imm: i64,
    /// Branch condition (meaningful iff `opcode == Opcode::Branch`).
    pub cond: BranchCond,
}

impl Instruction {
    fn base(opcode: Opcode) -> Instruction {
        Instruction {
            opcode,
            dst: R0,
            src1: R0,
            src2: R0,
            imm: 0,
            cond: BranchCond::Eq,
        }
    }

    /// `nop`.
    pub fn nop() -> Instruction {
        Instruction::base(Opcode::Nop)
    }

    /// `dst = imm` (the immediate is truncated to 32 bits at encode time;
    /// see [`encode`](crate::encode)).
    pub fn mov_imm(dst: Reg, imm: i64) -> Instruction {
        Instruction {
            dst,
            imm,
            ..Instruction::base(Opcode::MovImm)
        }
    }

    fn alu(opcode: Opcode, dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction {
            dst,
            src1,
            src2,
            ..Instruction::base(opcode)
        }
    }

    /// `dst = src1 + src2`.
    pub fn add(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Add, dst, src1, src2)
    }

    /// `dst = src1 - src2`.
    pub fn sub(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Sub, dst, src1, src2)
    }

    /// `dst = src1 & src2`.
    pub fn and(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::And, dst, src1, src2)
    }

    /// `dst = src1 | src2`.
    pub fn or(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Or, dst, src1, src2)
    }

    /// `dst = src1 ^ src2`.
    pub fn xor(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Xor, dst, src1, src2)
    }

    /// `dst = src1 << (src2 & 63)`.
    pub fn shl(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Shl, dst, src1, src2)
    }

    /// `dst = src1 >> (src2 & 63)`.
    pub fn shr(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Shr, dst, src1, src2)
    }

    /// `dst = src1 + imm`.
    pub fn add_imm(dst: Reg, src1: Reg, imm: i64) -> Instruction {
        Instruction {
            dst,
            src1,
            imm,
            ..Instruction::base(Opcode::AddImm)
        }
    }

    /// `dst = src1 * src2` (pipelined multiplier).
    pub fn mul(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Mul, dst, src1, src2)
    }

    /// `dst = floor(sqrt(src1))` (non-pipelined unit; the gadget/target
    /// instruction of §4.2.1).
    pub fn sqrt(dst: Reg, src1: Reg) -> Instruction {
        Instruction {
            dst,
            src1,
            ..Instruction::base(Opcode::Sqrt)
        }
    }

    /// `dst = src1 / max(src2, 1)` (non-pipelined unit).
    pub fn div(dst: Reg, src1: Reg, src2: Reg) -> Instruction {
        Instruction::alu(Opcode::Div, dst, src1, src2)
    }

    /// `dst = mem[src1 + imm]`.
    pub fn load(dst: Reg, base: Reg, offset: i64) -> Instruction {
        Instruction {
            dst,
            src1: base,
            imm: offset,
            ..Instruction::base(Opcode::Load)
        }
    }

    /// `mem[base + offset] = src`.
    pub fn store(src: Reg, base: Reg, offset: i64) -> Instruction {
        Instruction {
            src1: base,
            src2: src,
            imm: offset,
            ..Instruction::base(Opcode::Store)
        }
    }

    /// Conditional branch to the absolute address `target`.
    pub fn branch(cond: BranchCond, src1: Reg, src2: Reg, target: u64) -> Instruction {
        Instruction {
            src1,
            src2,
            imm: target as i64,
            cond,
            ..Instruction::base(Opcode::Branch)
        }
    }

    /// Unconditional jump to the absolute address `target`.
    pub fn jump(target: u64) -> Instruction {
        Instruction {
            imm: target as i64,
            ..Instruction::base(Opcode::Jump)
        }
    }

    /// Flush the cache line containing `base + offset` from the hierarchy.
    pub fn flush(base: Reg, offset: i64) -> Instruction {
        Instruction {
            src1: base,
            imm: offset,
            ..Instruction::base(Opcode::Flush)
        }
    }

    /// Full speculation fence.
    pub fn fence() -> Instruction {
        Instruction::base(Opcode::Fence)
    }

    /// `dst = current cycle`.
    pub fn rdtsc(dst: Reg) -> Instruction {
        Instruction {
            dst,
            ..Instruction::base(Opcode::Rdtsc)
        }
    }

    /// Stop the core.
    pub fn halt() -> Instruction {
        Instruction::base(Opcode::Halt)
    }

    /// Returns the registers this instruction reads, in operand order.
    ///
    /// Reads of the hardwired-zero register are included (the rename stage
    /// short-circuits them, but dependence analysis is simpler when the
    /// operand shape is uniform). Allocation-free: the rename stage calls
    /// this for every dispatched instruction.
    pub fn reads(&self) -> impl Iterator<Item = Reg> {
        let count = match self.opcode {
            Opcode::Nop
            | Opcode::MovImm
            | Opcode::Jump
            | Opcode::Fence
            | Opcode::Rdtsc
            | Opcode::Halt => 0,
            Opcode::Sqrt | Opcode::AddImm | Opcode::Load | Opcode::Flush => 1,
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::Mul
            | Opcode::Div
            | Opcode::Store
            | Opcode::Branch => 2,
        };
        [self.src1, self.src2].into_iter().take(count)
    }

    /// Returns the register this instruction writes, if any.
    pub fn writes(&self) -> Option<Reg> {
        if self.opcode.writes_reg() && !self.dst.is_zero() {
            Some(self.dst)
        } else {
            None
        }
    }

    /// Returns the absolute control-flow target for branches and jumps.
    pub fn target(&self) -> Option<u64> {
        if self.opcode.is_control() {
            Some(self.imm as u64)
        } else {
            None
        }
    }

    /// Whether this is a conditional branch (the only instruction whose
    /// direction can be mispredicted — the entry point of a speculative
    /// window).
    pub fn is_conditional_branch(&self) -> bool {
        self.opcode == Opcode::Branch
    }

    /// Architectural control-flow successors of this instruction when it
    /// sits at `pc`: `Halt` has none, `Jump` only its target, a
    /// conditional branch both the fall-through and the taken target
    /// (fall-through first), everything else the fall-through.
    pub fn successors(&self, pc: u64) -> Vec<u64> {
        match self.opcode {
            Opcode::Halt => vec![],
            Opcode::Jump => vec![self.imm as u64],
            Opcode::Branch => vec![pc + INSTR_BYTES, self.imm as u64],
            _ => vec![pc + INSTR_BYTES],
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.opcode {
            Opcode::Nop => write!(f, "nop"),
            Opcode::MovImm => write!(f, "movi {}, {}", self.dst, self.imm),
            Opcode::Add
            | Opcode::Sub
            | Opcode::And
            | Opcode::Or
            | Opcode::Xor
            | Opcode::Shl
            | Opcode::Shr
            | Opcode::Mul
            | Opcode::Div => {
                write!(
                    f,
                    "{} {}, {}, {}",
                    self.opcode, self.dst, self.src1, self.src2
                )
            }
            Opcode::AddImm => write!(f, "addi {}, {}, {}", self.dst, self.src1, self.imm),
            Opcode::Sqrt => write!(f, "sqrt {}, {}", self.dst, self.src1),
            Opcode::Load => write!(f, "ld {}, [{} + {}]", self.dst, self.src1, self.imm),
            Opcode::Store => write!(f, "st {}, [{} + {}]", self.src2, self.src1, self.imm),
            Opcode::Branch => write!(
                f,
                "b.{} {}, {}, 0x{:x}",
                self.cond, self.src1, self.src2, self.imm as u64
            ),
            Opcode::Jump => write!(f, "jmp 0x{:x}", self.imm as u64),
            Opcode::Flush => write!(f, "flush [{} + {}]", self.src1, self.imm),
            Opcode::Fence => write!(f, "fence"),
            Opcode::Rdtsc => write!(f, "rdtsc {}", self.dst),
            Opcode::Halt => write!(f, "halt"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{R1, R2, R3};

    #[test]
    fn reads_and_writes_cover_operand_shapes() {
        assert_eq!(
            Instruction::add(R3, R1, R2).reads().collect::<Vec<_>>(),
            vec![R1, R2]
        );
        assert_eq!(Instruction::add(R3, R1, R2).writes(), Some(R3));
        assert_eq!(
            Instruction::load(R3, R1, 8).reads().collect::<Vec<_>>(),
            vec![R1]
        );
        assert_eq!(
            Instruction::store(R2, R1, 8).reads().collect::<Vec<_>>(),
            vec![R1, R2]
        );
        assert_eq!(Instruction::store(R2, R1, 8).writes(), None);
        assert_eq!(
            Instruction::sqrt(R3, R1).reads().collect::<Vec<_>>(),
            vec![R1]
        );
        assert_eq!(
            Instruction::mov_imm(R3, 5).reads().collect::<Vec<_>>(),
            vec![]
        );
        assert_eq!(Instruction::halt().reads().collect::<Vec<_>>(), vec![]);
    }

    #[test]
    fn writes_to_zero_register_are_discarded() {
        assert_eq!(Instruction::add(R0, R1, R2).writes(), None);
    }

    #[test]
    fn control_targets() {
        let b = Instruction::branch(BranchCond::Ltu, R1, R2, 0x4000);
        assert_eq!(b.target(), Some(0x4000));
        assert_eq!(Instruction::jump(0x8000).target(), Some(0x8000));
        assert_eq!(Instruction::nop().target(), None);
    }

    #[test]
    fn successors_cover_control_shapes() {
        let b = Instruction::branch(BranchCond::Ltu, R1, R2, 0x4000);
        assert!(b.is_conditional_branch());
        assert_eq!(b.successors(0x100), vec![0x108, 0x4000]);
        assert_eq!(Instruction::jump(0x80).successors(0x100), vec![0x80]);
        assert!(Instruction::halt().successors(0x100).is_empty());
        assert_eq!(Instruction::nop().successors(0x100), vec![0x108]);
        assert!(!Instruction::jump(0x80).is_conditional_branch());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Instruction::load(R3, R1, 16).to_string(),
            "ld r3, [r1 + 16]"
        );
        assert_eq!(Instruction::store(R2, R1, 0).to_string(), "st r2, [r1 + 0]");
        assert_eq!(
            Instruction::branch(BranchCond::Ltu, R1, R2, 0x40).to_string(),
            "b.ltu r1, r2, 0x40"
        );
        assert_eq!(Instruction::sqrt(R3, R1).to_string(), "sqrt r3, r1");
        assert_eq!(Instruction::fence().to_string(), "fence");
    }
}
