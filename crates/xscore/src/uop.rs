//! Micro-operations, macro-op fusion, and commit events (the probe
//! payloads the design exposes to DiffTest, paper §III-B3).

use crate::bpu::BranchPrediction;
use riscv_isa::exec::int_compute;
use riscv_isa::op::{DecodedInst, Op};
use riscv_isa::trap::Trap;
use serde::{Deserialize, Serialize};

/// A register source operand: class (fp?) and architectural index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SrcReg {
    /// Floating-point register class.
    pub fp: bool,
    /// Architectural register index.
    pub idx: u8,
}

/// A decoded (possibly fused) micro-operation flowing down the pipeline.
#[derive(Debug, Clone)]
pub struct Uop {
    /// PC of the (first) instruction.
    pub pc: u64,
    /// The (first) instruction.
    pub inst: DecodedInst,
    /// Second instruction of a fused macro-op pair.
    pub fused: Option<DecodedInst>,
    /// Branch prediction attached at fetch (control flow only).
    pub pred: Option<BranchPrediction>,
    /// Predicted next PC (what fetch continued with).
    pub predicted_npc: u64,
    /// Source registers (up to 3).
    pub srcs: [Option<SrcReg>; 3],
    /// Destination register, if any.
    pub dest: Option<SrcReg>,
}

impl Uop {
    /// Build a uop from one decoded instruction.
    ///
    /// Source slots are positional — `srcs[0]` is rs1, `srcs[1]` rs2,
    /// `srcs[2]` rs3 — with `None` for an unused operand or the integer
    /// zero register. Everything downstream (rename, wakeup, execute)
    /// relies on the position, so an x0 operand must leave a hole, not
    /// compact the array: `sltu rd, x0, rs2` reads its one source as
    /// operand *two*.
    pub fn new(pc: u64, inst: DecodedInst, pred: Option<BranchPrediction>, npc: u64) -> Self {
        let mut srcs = [None; 3];
        let slot = |fp: bool, idx: u8| {
            if !fp && idx == 0 {
                None
            } else {
                Some(SrcReg { fp, idx })
            }
        };
        if uses_rs1(&inst) {
            srcs[0] = slot(inst.rs1_is_fpr(), inst.rs1);
        }
        if uses_rs2(&inst) {
            srcs[1] = slot(inst.rs2_is_fpr(), inst.rs2);
        }
        if inst.is_fma() {
            srcs[2] = slot(true, inst.rs3);
        }
        let dest = if inst.writes_fpr() {
            Some(SrcReg {
                fp: true,
                idx: inst.rd,
            })
        } else if inst.writes_gpr() {
            Some(SrcReg {
                fp: false,
                idx: inst.rd,
            })
        } else {
            None
        };
        Uop {
            pc,
            inst,
            fused: None,
            pred,
            predicted_npc: npc,
            srcs,
            dest,
        }
    }

    /// Total encoded length in bytes (covers fused pairs).
    pub fn byte_len(&self) -> u64 {
        self.inst.len as u64 + self.fused.map_or(0, |f| f.len as u64)
    }

    /// Architectural next PC for sequential flow.
    pub fn fallthrough(&self) -> u64 {
        self.pc + self.byte_len()
    }

    /// True for a register-move eligible for move elimination:
    /// `addi rd, rs, 0` / `add rd, rs, x0` with integer registers.
    pub fn is_reg_move(&self) -> bool {
        if self.fused.is_some() {
            return false;
        }
        match self.inst.op {
            Op::Addi => self.inst.imm == 0 && self.inst.rd != 0 && self.inst.rs1 != 0,
            Op::Add => {
                self.inst.rd != 0
                    && ((self.inst.rs1 == 0) != (self.inst.rs2 == 0))
            }
            _ => false,
        }
    }

    /// The moved-from source of a register move.
    pub fn move_src(&self) -> u8 {
        debug_assert!(self.is_reg_move());
        if self.inst.op == Op::Add && self.inst.rs1 == 0 {
            self.inst.rs2
        } else {
            self.inst.rs1
        }
    }
}

fn uses_rs1(d: &DecodedInst) -> bool {
    !matches!(
        d.op,
        Op::Lui | Op::Auipc | Op::Jal | Op::Ecall | Op::Ebreak | Op::Mret | Op::Sret | Op::Wfi
            | Op::Fence | Op::FenceI | Op::Csrrwi | Op::Csrrsi | Op::Csrrci | Op::Illegal
    )
}

fn uses_rs2(d: &DecodedInst) -> bool {
    use Op::*;
    d.is_branch()
        || matches!(d.op, Sb | Sh | Sw | Sd | Fsw | Fsd | ScW | ScD)
        || d.is_amo()
        || matches!(d.op, SfenceVma)
        || (d.rs2_is_fpr())
        || matches!(
            d.op,
            Add | Sub | Sll | Slt | Sltu | Xor | Srl | Sra | Or | And | Addw | Subw | Sllw
                | Srlw | Sraw | Mul | Mulh | Mulhsu | Mulhu | Div | Divu | Rem | Remu | Mulw
                | Divw | Divuw | Remw | Remuw | Sh1add | Sh2add | Sh3add | AddUw | Sh1addUw
                | Sh2addUw | Sh3addUw | Andn | Orn | Xnor | Max | Min | Maxu | Minu | Rol | Ror
                | Rolw | Rorw
        )
}

/// Try to fuse two consecutive decoded instructions into one macro-op
/// (paper §IV-A: "certain consecutive arithmetic instructions can be
/// fused into a single micro-operation").
///
/// Patterns (all require the second instruction to overwrite and consume
/// the first's destination):
///
/// - `lui rd, hi` + `addi rd, rd, lo` — load-immediate pair,
/// - `slli rd, rs1, {1,2,3}` + `add rd, rd, rs2` — shXadd shape,
/// - `slli rd, rs, 32` + `srli rd, rd, 32` — zero-extend word.
pub fn try_fuse(a: &DecodedInst, b: &DecodedInst) -> bool {
    if a.rd == 0 || a.rd != b.rd {
        return false;
    }
    match (a.op, b.op) {
        (Op::Lui, Op::Addi) => b.rs1 == a.rd,
        (Op::Slli, Op::Add) => {
            (1..=3).contains(&a.imm) && (b.rs1 == a.rd || b.rs2 == a.rd) && b.rs1 != b.rs2
        }
        (Op::Slli, Op::Srli) => a.imm == 32 && b.imm == 32 && b.rs1 == a.rd,
        _ => false,
    }
}

/// Execute a fused pair given the three possible source values
/// (`v_rs1_a`: first inst rs1; `v_other`: the second inst's non-chained
/// operand).
pub fn exec_fused(a: &DecodedInst, b: &DecodedInst, v_rs1_a: u64, v_other: u64) -> u64 {
    let mid = match a.op {
        Op::Lui => a.imm as u64,
        _ => int_compute(a.op, v_rs1_a, a.imm as u64).expect("fusible first op"),
    };
    match b.op {
        Op::Addi => int_compute(Op::Addi, mid, b.imm as u64).expect("addi"),
        Op::Srli => int_compute(Op::Srli, mid, b.imm as u64).expect("srli"),
        Op::Add => int_compute(Op::Add, mid, v_other).expect("add"),
        _ => unreachable!("non-fusible second op"),
    }
}

/// Build the fused uop from a pair (assumes [`try_fuse`] returned true).
pub fn fuse(pc: u64, a: DecodedInst, b: DecodedInst, npc: u64) -> Uop {
    let mut u = Uop::new(pc, a, None, npc);
    u.fused = Some(b);
    // Positional sources: slot 0 is a.rs1 (absent for lui), slot 1 is
    // b's non-chained operand — `exec_fused` reads them by position.
    let mut srcs = [None; 3];
    if a.op != Op::Lui && a.rs1 != 0 {
        srcs[0] = Some(SrcReg {
            fp: false,
            idx: a.rs1,
        });
    }
    if b.op == Op::Add {
        let other = if b.rs1 == a.rd { b.rs2 } else { b.rs1 };
        if other != 0 {
            srcs[1] = Some(SrcReg {
                fp: false,
                idx: other,
            });
        }
    }
    u.srcs = srcs;
    u.dest = Some(SrcReg {
        fp: false,
        idx: a.rd,
    });
    u
}

/// Memory access details of a committed instruction (probe payload).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitMem {
    /// Virtual address.
    pub vaddr: u64,
    /// Physical address.
    pub paddr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Store?
    pub is_store: bool,
    /// Loaded value / stored data.
    pub value: u64,
    /// MMIO access (DiffTest skips value comparison).
    pub mmio: bool,
}

/// One committed instruction, as reported by the instruction-commit probe.
///
/// This mirrors the paper's per-instruction probe that is "instantiated
/// more than once in a superscalar processor": the commit stage emits up
/// to `commit_width` of these per cycle.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CommitEvent {
    /// Hart index.
    pub hart: usize,
    /// PC.
    pub pc: u64,
    /// The instruction.
    pub inst: DecodedInst,
    /// The second instruction of a fused pair, if any (the macro-fusion
    /// diff-rule steps the REF twice for these).
    pub fused: Option<DecodedInst>,
    /// Destination write (fp?, arch index, value).
    pub wb: Option<(bool, u8, u64)>,
    /// Memory access.
    pub mem: Option<CommitMem>,
    /// Trap taken by/instead of this instruction.
    pub trap: Option<Trap>,
    /// An SC that failed (including micro-architectural timeouts — the
    /// §III-B2c diff-rule source).
    pub sc_failed: bool,
    /// The hart halted at this instruction.
    pub halted: bool,
    /// Cycle of commit.
    pub cycle: u64,
}

/// A committed store leaving the store buffer for the cache hierarchy —
/// the event feeding DiffTest's Global Memory (paper §III-B2b).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SbufferDrainEvent {
    /// Hart index.
    pub hart: usize,
    /// Physical address.
    pub paddr: u64,
    /// Size in bytes.
    pub size: u64,
    /// Data written.
    pub data: u64,
    /// Cycle the store entered the cache hierarchy.
    pub cycle: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::op::Op;

    fn di(op: Op, rd: u8, rs1: u8, rs2: u8, imm: i64) -> DecodedInst {
        DecodedInst {
            op,
            rd,
            rs1,
            rs2,
            imm,
            len: 4,
            ..Default::default()
        }
    }

    #[test]
    fn src_extraction() {
        let u = Uop::new(0, di(Op::Add, 3, 1, 2, 0), None, 4);
        assert_eq!(u.srcs[0], Some(SrcReg { fp: false, idx: 1 }));
        assert_eq!(u.srcs[1], Some(SrcReg { fp: false, idx: 2 }));
        assert_eq!(u.dest, Some(SrcReg { fp: false, idx: 3 }));

        let u = Uop::new(0, di(Op::Lui, 3, 0, 0, 0x1000), None, 4);
        assert_eq!(u.srcs[0], None, "lui has no register sources");

        let u = Uop::new(0, di(Op::Sd, 0, 2, 7, 8), None, 4);
        assert_eq!(u.srcs[0], Some(SrcReg { fp: false, idx: 2 }));
        assert_eq!(u.srcs[1], Some(SrcReg { fp: false, idx: 7 }));
        assert_eq!(u.dest, None);

        let fma = DecodedInst {
            op: Op::FmaddD,
            rd: 1,
            rs1: 2,
            rs2: 3,
            rs3: 4,
            len: 4,
            ..Default::default()
        };
        let u = Uop::new(0, fma, None, 4);
        assert_eq!(u.srcs[2], Some(SrcReg { fp: true, idx: 4 }));
        assert_eq!(u.dest, Some(SrcReg { fp: true, idx: 1 }));
    }

    #[test]
    fn move_detection() {
        assert!(Uop::new(0, di(Op::Addi, 3, 5, 0, 0), None, 4).is_reg_move());
        assert!(!Uop::new(0, di(Op::Addi, 3, 5, 0, 1), None, 4).is_reg_move());
        assert!(!Uop::new(0, di(Op::Addi, 0, 5, 0, 0), None, 4).is_reg_move());
        let mv = Uop::new(0, di(Op::Add, 3, 0, 5, 0), None, 4);
        assert!(mv.is_reg_move());
        assert_eq!(mv.move_src(), 5);
    }

    #[test]
    fn fusion_patterns() {
        let lui = di(Op::Lui, 5, 0, 0, 0x12345000);
        let addi = di(Op::Addi, 5, 5, 0, 0x678);
        assert!(try_fuse(&lui, &addi));
        assert_eq!(exec_fused(&lui, &addi, 0, 0), 0x12345678);

        let slli = di(Op::Slli, 6, 7, 0, 2);
        let add = di(Op::Add, 6, 6, 8, 0);
        assert!(try_fuse(&slli, &add));
        assert_eq!(exec_fused(&slli, &add, 3, 100), 112); // (3<<2)+100

        let slli32 = di(Op::Slli, 6, 7, 0, 32);
        let srli32 = di(Op::Srli, 6, 6, 0, 32);
        assert!(try_fuse(&slli32, &srli32));
        assert_eq!(exec_fused(&slli32, &srli32, 0xdead_beef_1234_5678, 0), 0x1234_5678);
    }

    #[test]
    fn fusion_rejects_broken_chains() {
        let lui = di(Op::Lui, 5, 0, 0, 0x1000);
        let addi_other = di(Op::Addi, 6, 5, 0, 1); // different rd
        assert!(!try_fuse(&lui, &addi_other));
        let addi_nonchain = di(Op::Addi, 5, 4, 0, 1); // doesn't consume rd
        assert!(!try_fuse(&lui, &addi_nonchain));
        let slli4 = di(Op::Slli, 5, 7, 0, 4); // shift too large for shXadd
        let add = di(Op::Add, 5, 5, 8, 0);
        assert!(!try_fuse(&slli4, &add));
    }

    #[test]
    fn fused_uop_sources() {
        let slli = di(Op::Slli, 6, 7, 0, 2);
        let add = di(Op::Add, 6, 6, 8, 0);
        let u = fuse(0x100, slli, add, 0x108);
        assert_eq!(u.byte_len(), 8);
        assert_eq!(u.srcs[0], Some(SrcReg { fp: false, idx: 7 }));
        assert_eq!(u.srcs[1], Some(SrcReg { fp: false, idx: 8 }));
        assert_eq!(u.dest, Some(SrcReg { fp: false, idx: 6 }));
    }
}
