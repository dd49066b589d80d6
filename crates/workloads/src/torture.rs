//! A riscv-torture-style random instruction generator.
//!
//! Generates terminating bare-metal programs from a seed: random ALU and
//! bit-manipulation operations over a register window, constrained
//! loads/stores into a sandbox, and bounded forward branches — all inside
//! a fixed-trip-count outer loop, ending with a register checksum in
//! `a0`. Used by the cross-interpreter and DUT-vs-REF property tests
//! (the paper uses "existing open-source test generation frameworks" for
//! exactly this role).
//!
//! Generation is split in two phases so failing programs can be
//! *minimized*: [`TortureProgram::generate`] deterministically derives an
//! abstract body-instruction list from the seed, and
//! [`TortureProgram::emit_subset`] assembles any kept-subset of that list
//! (prologue, loop scaffolding and checksum epilogue always included)
//! into a runnable [`Program`]. A campaign's delta-debugger shrinks the
//! kept-mask; `(seed, config, mask)` is a complete reproducer.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use riscv_isa::asm::{reg, Asm, Program};
use riscv_isa::op::Op;
use serde::{Deserialize, Serialize};

/// Generator knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TortureConfig {
    /// Instructions per loop body.
    pub body_len: usize,
    /// Outer-loop trip count.
    pub iterations: i64,
    /// Include loads/stores.
    pub memory_ops: bool,
    /// Include forward branches.
    pub branches: bool,
    /// Include M-extension ops.
    pub muldiv: bool,
    /// Sprinkle compressed (RVC) instructions, misaligning later 4-byte
    /// instructions across fetch-block boundaries.
    pub compressed: bool,
}

impl Default for TortureConfig {
    fn default() -> Self {
        TortureConfig {
            body_len: 60,
            iterations: 50,
            memory_ops: true,
            branches: true,
            muldiv: true,
            compressed: false,
        }
    }
}

impl TortureConfig {
    /// Clamp the numeric knobs into the range the generator (and a
    /// campaign's cycle budget) can sensibly handle. Fuzz mutators tweak
    /// `body_len`/`iterations` blindly and rely on this to stay valid.
    pub fn clamped(mut self) -> Self {
        self.body_len = self.body_len.clamp(8, 256);
        self.iterations = self.iterations.clamp(1, 1000);
        self
    }
}

const SANDBOX: i64 = 0x8004_0000;
/// Registers the generator may clobber (x5..x15 plus x28..x31).
const WINDOW: [u8; 15] = [5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 28, 29, 30, 31];

/// Memory-access flavours of a sandboxed [`BodyInstr::Mem`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MemAccess {
    /// `sd rt, 0(t4)`
    Sd,
    /// `ld rt, 0(t4)`
    Ld,
    /// `lw rt, 0(t4)`
    Lw,
    /// `lhu rt, 0(t4)`
    Lhu,
    /// `lb rt, 0(t4)`
    Lb,
}

/// Branch flavours of a [`BodyInstr::Branch`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BranchKind {
    /// `beq rs1, rs2, fwd`
    Beq,
    /// `bne rs1, rs2, fwd`
    Bne,
    /// `blt rs1, rs2, fwd`
    Blt,
    /// `bgeu rs1, rs2, fwd`
    Bgeu,
}

/// Compressed-instruction flavours of a [`BodyInstr::Compressed`] slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompressedKind {
    /// `c.addi rd, imm`
    CAddi {
        /// Destination register.
        rd: u8,
        /// 6-bit signed immediate.
        imm: i64,
    },
    /// `c.li rd, imm`
    CLi {
        /// Destination register.
        rd: u8,
        /// 6-bit signed immediate.
        imm: i64,
    },
    /// `c.mv rd, rs`
    CMv {
        /// Destination register.
        rd: u8,
        /// Source register.
        rs: u8,
    },
    /// `c.nop`
    CNop,
}

/// One abstract body slot of a torture program.
///
/// Each slot occupies exactly one index of [`TortureProgram::body`]; a
/// kept-mask over those indices selects which slots
/// [`TortureProgram::emit_subset`] assembles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BodyInstr {
    /// A pre-encoded 4-byte ALU / imm instruction.
    Encoded(u32),
    /// `li rd, imm` (wide constant; expands to several instructions).
    Li {
        /// Destination register.
        rd: u8,
        /// Constant loaded.
        imm: i64,
    },
    /// Sandboxed access: `andi t4, rv, ..; slli ..; add t4, t4, s2` then
    /// the access on `rt`.
    Mem {
        /// Register masked into the sandbox offset.
        rv: u8,
        /// Data register stored from / loaded into.
        rt: u8,
        /// Access flavour.
        access: MemAccess,
    },
    /// Bounded forward branch binding at body index `until`.
    Branch {
        /// Branch flavour.
        kind: BranchKind,
        /// First compare operand.
        rs1: u8,
        /// Second compare operand.
        rs2: u8,
        /// Body index at which the target label binds.
        until: usize,
    },
    /// A compressed (RVC) instruction.
    Compressed(CompressedKind),
    /// An empty slot (a branch draw suppressed because another branch
    /// was still pending). Emits nothing.
    Skip,
}

/// A torture program in abstract form: the seed-derived body slots plus
/// everything needed to re-emit any subset of them.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TortureProgram {
    /// The generating seed.
    pub seed: u64,
    /// The generator knobs used.
    pub cfg: TortureConfig,
    /// Abstract body slots (length `cfg.body_len`).
    pub body: Vec<BodyInstr>,
}

impl TortureProgram {
    /// Deterministically derive the abstract body from `seed`.
    pub fn generate(seed: u64, cfg: &TortureConfig) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut body = Vec::with_capacity(cfg.body_len);
        // `pending_until`: index at which the one outstanding forward
        // branch binds. Mirrored by emit_subset.
        let mut pending_until: Option<usize> = None;
        let r = |rng: &mut StdRng| WINDOW[rng.gen_range(0..WINDOW.len())];
        for i in 0..cfg.body_len {
            if let Some(at) = pending_until {
                if i >= at {
                    pending_until = None;
                }
            }
            let slot = match rng.gen_range(0..100) {
                0..=54 => {
                    // Register-register ALU ops.
                    let ops: &[Op] = if cfg.muldiv {
                        &[
                            Op::Add,
                            Op::Sub,
                            Op::Xor,
                            Op::Or,
                            Op::And,
                            Op::Sll,
                            Op::Srl,
                            Op::Sra,
                            Op::Slt,
                            Op::Sltu,
                            Op::Addw,
                            Op::Subw,
                            Op::Mul,
                            Op::Mulh,
                            Op::Div,
                            Op::Rem,
                            Op::Divu,
                            Op::Remu,
                            Op::Mulw,
                            Op::Divw,
                            Op::Remw,
                            Op::Andn,
                            Op::Orn,
                            Op::Xnor,
                            Op::Min,
                            Op::Max,
                            Op::Minu,
                            Op::Maxu,
                            Op::Rol,
                            Op::Ror,
                            Op::Sh1add,
                            Op::Sh2add,
                            Op::Sh3add,
                            Op::AddUw,
                        ]
                    } else {
                        &[Op::Add, Op::Sub, Op::Xor, Op::Or, Op::And, Op::Sll, Op::Srl]
                    };
                    let op = ops[rng.gen_range(0..ops.len())];
                    let (rd, rs1, rs2) = (r(&mut rng), r(&mut rng), r(&mut rng));
                    BodyInstr::Encoded(
                        riscv_isa::encode::encode(&riscv_isa::op::DecodedInst {
                            op,
                            rd,
                            rs1,
                            rs2,
                            ..Default::default()
                        })
                        .expect("alu op encodes"),
                    )
                }
                55..=74 => {
                    // Register-immediate ops.
                    let ops = [
                        Op::Addi,
                        Op::Xori,
                        Op::Ori,
                        Op::Andi,
                        Op::Slti,
                        Op::Sltiu,
                        Op::Slli,
                        Op::Srli,
                        Op::Srai,
                        Op::Addiw,
                        Op::Rori,
                    ];
                    let op = ops[rng.gen_range(0..ops.len())];
                    let imm = if matches!(op, Op::Slli | Op::Srli | Op::Srai | Op::Rori) {
                        rng.gen_range(0..64)
                    } else {
                        rng.gen_range(-2048..2048)
                    };
                    BodyInstr::Encoded(
                        riscv_isa::encode::encode(&riscv_isa::op::DecodedInst {
                            op,
                            rd: r(&mut rng),
                            rs1: r(&mut rng),
                            imm,
                            ..Default::default()
                        })
                        .expect("imm op encodes"),
                    )
                }
                75..=84 if cfg.memory_ops => {
                    let (rv, rt) = (r(&mut rng), r(&mut rng));
                    let access = if rng.gen_bool(0.5) {
                        MemAccess::Sd
                    } else {
                        match rng.gen_range(0..4) {
                            0 => MemAccess::Ld,
                            1 => MemAccess::Lw,
                            2 => MemAccess::Lhu,
                            _ => MemAccess::Lb,
                        }
                    };
                    BodyInstr::Mem { rv, rt, access }
                }
                85..=94 if cfg.branches => {
                    // Bounded forward branch over the next few slots; at
                    // most one outstanding at a time.
                    if pending_until.is_some() {
                        BodyInstr::Skip
                    } else {
                        let span = rng.gen_range(1usize..6);
                        let kind = match rng.gen_range(0..4) {
                            0 => BranchKind::Beq,
                            1 => BranchKind::Bne,
                            2 => BranchKind::Blt,
                            _ => BranchKind::Bgeu,
                        };
                        let (rs1, rs2) = (r(&mut rng), r(&mut rng));
                        pending_until = Some(i + span);
                        BodyInstr::Branch {
                            kind,
                            rs1,
                            rs2,
                            until: i + span,
                        }
                    }
                }
                95..=97 if cfg.compressed => {
                    let kind = match rng.gen_range(0..4) {
                        0 => CompressedKind::CAddi {
                            rd: r(&mut rng),
                            imm: rng.gen_range(-32i64..32).max(-32),
                        },
                        1 => CompressedKind::CLi {
                            rd: r(&mut rng),
                            imm: rng.gen_range(-32..32),
                        },
                        2 => CompressedKind::CMv {
                            rd: r(&mut rng),
                            rs: r(&mut rng),
                        },
                        _ => CompressedKind::CNop,
                    };
                    BodyInstr::Compressed(kind)
                }
                _ => {
                    // li with a random wide constant.
                    BodyInstr::Li {
                        rd: r(&mut rng),
                        imm: rng.gen::<i64>() >> rng.gen_range(0..32),
                    }
                }
            };
            body.push(slot);
        }
        TortureProgram {
            seed,
            cfg: *cfg,
            body,
        }
    }

    /// Number of body slots (the kept-mask length).
    pub fn len(&self) -> usize {
        self.body.len()
    }

    /// Whether the body is empty.
    pub fn is_empty(&self) -> bool {
        self.body.is_empty()
    }

    /// Assemble the full program (every slot kept).
    pub fn emit(&self) -> Program {
        self.emit_subset(&vec![true; self.body.len()])
    }

    /// Assemble a runnable program containing only the body slots whose
    /// mask entry is `true`.
    ///
    /// Register-window seeding, loop scaffolding and the checksum
    /// epilogue are always emitted, so any subset terminates with an
    /// exit code. Branch targets stay anchored to *original* body
    /// indices: a kept branch binds where the remaining kept slots of
    /// its original span end, so dropping slots can only shorten the
    /// skipped region, never redirect the branch.
    ///
    /// # Panics
    ///
    /// Panics when `keep.len() != self.len()`.
    pub fn emit_subset(&self, keep: &[bool]) -> Program {
        assert_eq!(
            keep.len(),
            self.body.len(),
            "kept-mask length must equal body length"
        );
        let mut a = Asm::new(0x8000_0000);
        // Seed the register window with deterministic junk.
        for (i, &r) in WINDOW.iter().enumerate() {
            a.li(r, (self.seed as i64).wrapping_mul(i as i64 + 1) ^ 0x5a5a);
        }
        // s2 = sandbox base, s3 = loop counter.
        a.li(reg::S2, SANDBOX);
        a.li(reg::S3, self.cfg.iterations);
        let top = a.bound_label();
        let mut pending: Option<(riscv_isa::asm::Label, usize)> = None;
        for (i, (slot, &kept)) in self.body.iter().zip(keep).enumerate() {
            if let Some((l, at)) = pending {
                if i >= at {
                    a.bind(l);
                    pending = None;
                }
            }
            if !kept {
                continue;
            }
            match *slot {
                BodyInstr::Encoded(word) => a.raw32(word),
                BodyInstr::Li { rd, imm } => a.li(rd, imm),
                BodyInstr::Mem { rv, rt, access } => {
                    // Mask an arbitrary register into [0, 0x7f8] and
                    // index off s2.
                    a.andi(reg::T4, rv, 0x7f8 >> 2);
                    a.slli(reg::T4, reg::T4, 2);
                    a.add(reg::T4, reg::T4, reg::S2);
                    match access {
                        MemAccess::Sd => a.sd(rt, 0, reg::T4),
                        MemAccess::Ld => a.ld(rt, 0, reg::T4),
                        MemAccess::Lw => a.lw(rt, 0, reg::T4),
                        MemAccess::Lhu => a.lhu(rt, 0, reg::T4),
                        MemAccess::Lb => a.lb(rt, 0, reg::T4),
                    }
                }
                BodyInstr::Branch {
                    kind,
                    rs1,
                    rs2,
                    until,
                } => {
                    let l = a.label();
                    match kind {
                        BranchKind::Beq => a.beq(rs1, rs2, l),
                        BranchKind::Bne => a.bne(rs1, rs2, l),
                        BranchKind::Blt => a.blt(rs1, rs2, l),
                        BranchKind::Bgeu => a.bgeu(rs1, rs2, l),
                    }
                    pending = Some((l, until));
                }
                BodyInstr::Compressed(kind) => match kind {
                    CompressedKind::CAddi { rd, imm } => a.c_addi(rd, imm),
                    CompressedKind::CLi { rd, imm } => a.c_li(rd, imm),
                    CompressedKind::CMv { rd, rs } => a.c_mv(rd, rs),
                    CompressedKind::CNop => a.c_nop(),
                },
                BodyInstr::Skip => {}
            }
        }
        if let Some((l, _)) = pending {
            a.bind(l);
        }
        a.addi(reg::S3, reg::S3, -1);
        a.bnez(reg::S3, top);
        // Checksum the register window into a0.
        a.li(reg::A0, 0);
        for &r in &WINDOW {
            a.add(reg::A0, reg::A0, r);
            a.rori(reg::A0, reg::A0, 7);
        }
        a.ebreak();
        a.assemble()
    }
}

/// Generate a random terminating program from `seed` (every slot kept).
pub fn random_program(seed: u64, cfg: &TortureConfig) -> Program {
    TortureProgram::generate(seed, cfg).emit()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemu::{DromajoLike, Interpreter, NemuTrace, SpikeLike};

    #[test]
    fn clamped_bounds_the_knobs() {
        let wild = TortureConfig {
            body_len: 0,
            iterations: -7,
            ..TortureConfig::default()
        }
        .clamped();
        assert_eq!(wild.body_len, 8);
        assert_eq!(wild.iterations, 1);
        let huge = TortureConfig {
            body_len: 100_000,
            iterations: i64::MAX,
            ..TortureConfig::default()
        }
        .clamped();
        assert_eq!(huge.body_len, 256);
        assert_eq!(huge.iterations, 1000);
        // In-range configs pass through untouched.
        let dflt = TortureConfig::default();
        assert_eq!(dflt.clamped(), dflt);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = TortureConfig::default();
        let a = random_program(42, &cfg);
        let b = random_program(42, &cfg);
        let c = random_program(43, &cfg);
        assert_eq!(a.bytes, b.bytes);
        assert_ne!(a.bytes, c.bytes);
    }

    #[test]
    fn abstract_body_is_deterministic_and_masks_re_emit() {
        let cfg = TortureConfig::default();
        let t1 = TortureProgram::generate(11, &cfg);
        let t2 = TortureProgram::generate(11, &cfg);
        assert_eq!(t1, t2);
        assert_eq!(t1.len(), cfg.body_len);
        assert_eq!(t1.emit().bytes, random_program(11, &cfg).bytes);
        // Emitting with every other slot dropped yields a shorter body.
        let keep: Vec<bool> = (0..t1.len()).map(|i| i % 2 == 0).collect();
        let partial = t1.emit_subset(&keep);
        assert!(partial.bytes.len() < t1.emit().bytes.len());
    }

    #[test]
    fn every_subset_terminates_and_matches_reference() {
        // Masked-out slots must never break the loop scaffolding: run a
        // handful of subset shapes through two interpreters.
        let cfg = TortureConfig::default();
        let t = TortureProgram::generate(9, &cfg);
        let masks: Vec<Vec<bool>> = vec![
            vec![false; t.len()],
            (0..t.len()).map(|i| i % 3 == 0).collect(),
            (0..t.len()).map(|i| i < t.len() / 2).collect(),
            (0..t.len()).map(|i| i >= t.len() / 2).collect(),
        ];
        for (mi, keep) in masks.iter().enumerate() {
            let p = t.emit_subset(keep);
            let mut n = NemuTrace::new(&p);
            let mut d = DromajoLike::new(&p);
            let rn = n.run(10_000_000);
            assert!(rn.exit_code.is_some(), "mask {mi} did not halt");
            assert_eq!(rn.exit_code, d.run(10_000_000).exit_code, "mask {mi}");
            assert_eq!(n.hart().state.gpr, d.hart().state.gpr, "mask {mi}");
        }
    }

    #[test]
    fn random_programs_terminate_and_agree() {
        let cfg = TortureConfig::default();
        for seed in 0..20 {
            let p = random_program(seed, &cfg);
            let mut n = NemuTrace::new(&p);
            let mut s = SpikeLike::new(&p);
            let mut d = DromajoLike::new(&p);
            let rn = n.run(10_000_000);
            assert!(rn.exit_code.is_some(), "seed {seed} did not halt");
            assert_eq!(rn.exit_code, s.run(10_000_000).exit_code, "seed {seed}");
            assert_eq!(rn.exit_code, d.run(10_000_000).exit_code, "seed {seed}");
            assert_eq!(n.hart().state.gpr, d.hart().state.gpr, "seed {seed}");
        }
    }

    #[test]
    fn compressed_programs_terminate_and_agree() {
        let cfg = TortureConfig {
            compressed: true,
            ..Default::default()
        };
        for seed in 50..60 {
            let p = random_program(seed, &cfg);
            let mut n = NemuTrace::new(&p);
            let mut d = DromajoLike::new(&p);
            let rn = n.run(10_000_000);
            assert!(rn.exit_code.is_some(), "seed {seed} did not halt");
            assert_eq!(rn.exit_code, d.run(10_000_000).exit_code, "seed {seed}");
            assert_eq!(n.hart().state.gpr, d.hart().state.gpr, "seed {seed}");
        }
    }

    #[test]
    fn knobs_take_effect() {
        let no_mem = TortureConfig {
            memory_ops: false,
            branches: false,
            muldiv: false,
            ..Default::default()
        };
        let p = random_program(7, &no_mem);
        let mut n = NemuTrace::new(&p);
        assert!(n.run(10_000_000).exit_code.is_some());
    }
}
