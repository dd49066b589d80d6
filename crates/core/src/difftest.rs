//! DiffTest: the co-simulation verification framework (paper §III-B).
//!
//! The DUT's instruction-commit probes feed [`DiffTest::on_commit`]; each
//! event advances the corresponding single-core reference model and
//! checks equivalence, applying diff-rules where the specification leaves
//! the outcome open. Multi-core designs are verified against simple
//! single-core REFs by pruning the interleaving space with the Global
//! Memory rule, exactly as in §III-B2b.

use crate::coverage::CommitCoverage;
use crate::rules::{compare_csrs, CsrMismatch, CsrRuleTable, DiffRule, RuleStats};
use nemu::hart::{self, Hart, StepInfo};
use riscv_isa::exec::load_extend;
use riscv_isa::mem::{PhysMem, SparseMemory};
use riscv_isa::state::{ArchState, StateDiff};
use riscv_isa::trap::{Exception, Trap};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use xscore::{CommitEvent, SbufferDrainEvent};

/// A reference model DiffTest can drive (the `R` of §III-A).
///
/// The model must be cheaply cloneable (snapshot/rollback is how DiffTest
/// trial-executes before deciding which rule applies).
pub trait RefModel: Clone {
    /// Execute one instruction, returning its commit information.
    fn step(&mut self) -> StepInfo;
    /// Project the architectural state.
    fn arch_state(&self) -> ArchState;
    /// Force an exception before the next instruction (page-fault rule).
    fn inject_exception(&mut self, cause: Exception, tval: u64);
    /// Force the next SC to fail (SC-timeout rule).
    fn force_sc_fail(&mut self);
    /// Patch a general-purpose register (global-memory/MMIO rules).
    fn patch_gpr(&mut self, rd: u8, value: u64);
    /// Patch a floating-point register (global-memory rule, FP loads).
    fn patch_fpr(&mut self, rd: u8, value: u64);
    /// Patch local memory (global-memory rule).
    fn patch_mem(&mut self, paddr: u64, size: u64, value: u64);
    /// Patch a CSR by address (counter-read rule).
    fn patch_csr(&mut self, csr: u16, value: u64);
}

/// NEMU as the reference model (the paper's choice: "NEMU can also be
/// used as an easy-to-develop REF for DiffTest").
#[derive(Debug, Clone)]
pub struct NemuRef {
    /// The architectural hart.
    pub hart: Hart,
    /// The REF's local memory.
    pub mem: SparseMemory,
}

impl NemuRef {
    /// Boot a REF from a program image.
    pub fn new(program: &riscv_isa::asm::Program, hartid: u64) -> Self {
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        NemuRef {
            hart: Hart::new(program.entry, hartid),
            mem,
        }
    }

    /// Build from explicit state and memory (checkpoint restore).
    pub fn from_state(state: ArchState, mem: SparseMemory) -> Self {
        let mut hart = Hart::new(state.pc, state.csr.mhartid);
        hart.state = state;
        NemuRef { hart, mem }
    }
}

impl RefModel for NemuRef {
    fn step(&mut self) -> StepInfo {
        hart::step(&mut self.hart, &mut self.mem)
    }
    fn arch_state(&self) -> ArchState {
        self.hart.state.clone()
    }
    fn inject_exception(&mut self, cause: Exception, tval: u64) {
        self.hart.pending_injection = Some((cause, tval));
    }
    fn force_sc_fail(&mut self) {
        self.hart.force_sc_fail = true;
    }
    fn patch_gpr(&mut self, rd: u8, value: u64) {
        self.hart.state.write_gpr(rd, value);
    }
    fn patch_fpr(&mut self, rd: u8, value: u64) {
        self.hart.state.fpr[rd as usize] = value;
    }
    fn patch_mem(&mut self, paddr: u64, size: u64, value: u64) {
        self.mem.write_uint(paddr, size, value);
    }
    fn patch_csr(&mut self, csr: u16, value: u64) {
        let _ = self.hart.state.csr.write(csr, value);
    }
}

/// The Global Memory of §III-B2b: records every store that entered the
/// DUT's cache hierarchy, across all harts, together with a bounded
/// per-location history. A load value is "possibly written by other
/// hardware threads" when it matches the current value or a recent one —
/// the history absorbs the bounded lag between a load's execution and its
/// commit-time check.
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    mem: SparseMemory,
    history: HashMap<u64, std::collections::VecDeque<u64>>,
    /// Stores recorded.
    pub stores: u64,
}

/// Per-dword history depth (bounds legal commit-vs-drain lag).
const HISTORY_DEPTH: usize = 16;

impl GlobalMemory {
    /// Initialize from the boot image.
    pub fn new(image: &riscv_isa::asm::Program) -> Self {
        let mut mem = SparseMemory::new();
        image.load_into(&mut mem);
        GlobalMemory {
            mem,
            history: HashMap::new(),
            stores: 0,
        }
    }

    /// Initialize from raw memory.
    pub fn from_memory(mem: SparseMemory) -> Self {
        GlobalMemory {
            mem,
            history: HashMap::new(),
            stores: 0,
        }
    }

    /// Record a drained store.
    pub fn record(&mut self, e: &SbufferDrainEvent) {
        // Remember the pre-store value of each touched dword.
        let start = e.paddr & !7;
        let end = (e.paddr + e.size - 1) & !7;
        let mut d = start;
        while d <= end {
            let old = self.mem.read_uint(d, 8);
            let h = self.history.entry(d).or_default();
            h.push_back(old);
            if h.len() > HISTORY_DEPTH {
                h.pop_front();
            }
            d += 8;
        }
        self.mem.write_uint(e.paddr, e.size, e.data);
        self.stores += 1;
    }

    /// Read the current globally-visible value.
    pub fn read(&mut self, paddr: u64, size: u64) -> u64 {
        self.mem.read_uint(paddr, size)
    }

    /// All values this location may legally return to a recent load: the
    /// current value plus the bounded history.
    pub fn possible_values(&mut self, paddr: u64, size: u64) -> Vec<u64> {
        let mut out = vec![self.mem.read_uint(paddr, size)];
        let d = paddr & !7;
        if (paddr + size - 1) & !7 == d {
            if let Some(h) = self.history.get(&d) {
                let shift = (paddr - d) * 8;
                let mask = if size == 8 { u64::MAX } else { (1 << (size * 8)) - 1 };
                out.extend(h.iter().map(|v| (v >> shift) & mask));
            }
        }
        out
    }
}

/// A DUT/REF divergence no rule could legitimize — a reported bug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DiffError {
    /// Program counters diverged.
    Pc {
        /// Hart index.
        hart: usize,
        /// DUT pc.
        dut: u64,
        /// REF pc.
        reference: u64,
        /// Commits checked before the divergence.
        at_commit: u64,
    },
    /// A register writeback diverged.
    Writeback {
        /// Hart index.
        hart: usize,
        /// PC of the instruction.
        pc: u64,
        /// Register (fp?, index).
        reg: (bool, u8),
        /// DUT value.
        dut: u64,
        /// REF value.
        reference: u64,
    },
    /// Trap behavior diverged.
    Trap {
        /// Hart index.
        hart: usize,
        /// PC.
        pc: u64,
        /// DUT trap.
        dut: Option<Trap>,
        /// REF trap.
        reference: Option<Trap>,
    },
    /// A forced event repeated at the same pc (rule soundness guard,
    /// §III-B2c: "asserted not to repeatedly occur").
    RepeatedForcedEvent {
        /// Hart index.
        hart: usize,
        /// PC of the repeated event.
        pc: u64,
        /// The rule involved.
        rule: String,
    },
    /// Final/periodic full-state comparison failed.
    State {
        /// Hart index.
        hart: usize,
        /// Field difference.
        diff: String,
    },
    /// CSR comparison failed.
    Csr {
        /// Hart index.
        hart: usize,
        /// Mismatch details.
        mismatch: CsrMismatch,
    },
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

impl std::error::Error for DiffError {}

/// The DiffTest engine: one REF per hart, the global memory, the rule
/// table, and the forced-event guards.
#[derive(Debug, Clone)]
pub struct DiffTest<R: RefModel> {
    refs: Vec<R>,
    /// The global memory (multi-core store ordering).
    pub global_mem: GlobalMemory,
    /// The static CSR rule table.
    pub csr_rules: CsrRuleTable,
    /// Rule application statistics.
    pub stats: RuleStats,
    /// Commits verified.
    pub commits_checked: u64,
    /// Decode-level coverage, accumulated per commit when enabled
    /// (`XsConfig::coverage`); `None` keeps the default path free.
    pub coverage: Option<CommitCoverage>,
    forced_guard: HashMap<(usize, u64, &'static str), u32>,
}

impl<R: RefModel> DiffTest<R> {
    /// Build from per-hart REFs and the initial memory image.
    pub fn new(refs: Vec<R>, global_mem: GlobalMemory) -> Self {
        DiffTest {
            refs,
            global_mem,
            csr_rules: CsrRuleTable::standard(),
            stats: RuleStats::default(),
            commits_checked: 0,
            coverage: None,
            forced_guard: HashMap::new(),
        }
    }

    /// Access a hart's REF.
    pub fn reference(&self, hart: usize) -> &R {
        &self.refs[hart]
    }

    /// Record a store entering the DUT's cache hierarchy.
    pub fn on_sbuffer_drain(&mut self, e: &SbufferDrainEvent) {
        self.global_mem.record(e);
    }

    /// Verify one DUT commit event.
    ///
    /// # Errors
    ///
    /// Returns a [`DiffError`] when no diff-rule legitimizes the
    /// divergence — i.e. a detected bug.
    pub fn on_commit(&mut self, e: &CommitEvent) -> Result<(), DiffError> {
        self.commits_checked += 1;
        if let Some(cov) = &mut self.coverage {
            cov.record(&e.inst);
            if let Some(second) = &e.fused {
                cov.record(second);
            }
        }
        let hart = e.hart;

        // --- Trap events -------------------------------------------------
        if let Some(dut_trap) = e.trap {
            // Trial-step the REF: does it trap identically on its own?
            let snapshot = self.refs[hart].clone();
            let info = self.refs[hart].step();
            if info.trap == Some(dut_trap) && info.pc == e.pc {
                return Ok(());
            }
            // Speculative page-fault rule: DUT-only page faults are legal;
            // the REF is forced to take the same fault.
            if let Trap::Exception(cause, tval) = dut_trap {
                if cause.is_page_fault() {
                    self.refs[hart] = snapshot;
                    self.guard(hart, e.pc, "speculative-page-fault")?;
                    self.refs[hart].inject_exception(cause, tval);
                    let info = self.refs[hart].step();
                    debug_assert_eq!(info.trap, Some(dut_trap));
                    self.stats.record(DiffRule::SpeculativePageFault);
                    return Ok(());
                }
            }
            return Err(DiffError::Trap {
                hart,
                pc: e.pc,
                dut: Some(dut_trap),
                reference: info.trap,
            });
        }

        // --- SC-failure rule (must be armed before stepping) -------------
        if e.sc_failed {
            self.guard(hart, e.pc, "sc-failure")?;
            self.refs[hart].force_sc_fail();
            self.stats.record(DiffRule::ScFailure);
        }

        // --- Normal instruction ------------------------------------------
        let mut info = self.refs[hart].step();
        if info.pc != e.pc {
            return Err(DiffError::Pc {
                hart,
                dut: e.pc,
                reference: info.pc,
                at_commit: self.commits_checked,
            });
        }
        if info.trap.is_some() {
            return Err(DiffError::Trap {
                hart,
                pc: e.pc,
                dut: None,
                reference: info.trap,
            });
        }
        // Macro-fusion rule: DUT committed a fused pair in one event.
        if e.fused.is_some() {
            info = self.refs[hart].step();
            self.stats.record(DiffRule::MacroFusion);
        }
        self.clear_guards(hart, e.pc);

        // --- AMO store-value check ----------------------------------------
        // The value an AMO writes must be derivable from a recent globally
        // visible value — even when rd is x0 and the read is otherwise
        // architecturally invisible. This is the check that catches the
        // §IV-C wrong-data bug regardless of how the program consumes it.
        if e.inst.is_amo() {
            if let (Some(dm), Some(rm)) = (e.mem, info.mem) {
                if dm.value != rm.value {
                    let src = self.refs[hart].arch_state().gpr[e.inst.rs2 as usize];
                    let mut legal = false;
                    for old in self.global_mem.possible_values(dm.paddr, dm.size) {
                        let ext = if dm.size == 4 {
                            old as u32 as i32 as i64 as u64
                        } else {
                            old
                        };
                        if riscv_isa::exec::amo_compute(e.inst.op, ext, src) == dm.value {
                            legal = true;
                            break;
                        }
                    }
                    if !legal {
                        return Err(DiffError::Writeback {
                            hart,
                            pc: e.pc,
                            reg: (false, 0),
                            dut: dm.value,
                            reference: rm.value,
                        });
                    }
                    self.refs[hart].patch_mem(dm.paddr, dm.size, dm.value);
                    self.stats.record(DiffRule::GlobalMemoryLoad);
                }
            }
        }

        // --- Writeback comparison with load rules -------------------------
        let Some((dut_fp, dut_rd, dut_v)) = e.wb else {
            return Ok(());
        };
        let ref_wb = info.wb;
        let matches = ref_wb == Some((dut_fp, dut_rd, dut_v));
        if matches {
            return Ok(());
        }
        // MMIO loads / counter reads: trust the DUT.
        if e.mem.map(|m| m.mmio && !m.is_store).unwrap_or(false) {
            self.refs[hart].patch_gpr(dut_rd, dut_v);
            self.stats.record(DiffRule::MmioLoad);
            return Ok(());
        }
        if e.inst.is_system() && CsrRuleTable::is_counter(e.inst.csr()) {
            self.refs[hart].patch_gpr(dut_rd, dut_v);
            self.stats.record(DiffRule::CounterRead);
            return Ok(());
        }
        // Global-memory rule for atomics: the old value read by an AMO
        // may reflect another hart's stores; the REF's memory is patched
        // with the DUT's read-modify-write result.
        if e.inst.is_amo() {
            if let Some(m) = e.mem {
                // The old value read by the AMO must be recently globally
                // visible (AMOs are performed at the memory system).
                for raw in self.global_mem.possible_values(m.paddr, m.size) {
                    let extended = if m.size == 4 {
                        raw as i32 as i64 as u64
                    } else {
                        raw
                    };
                    if extended == dut_v {
                        // m.value carries the DUT's stored (new) value.
                        self.refs[hart].patch_mem(m.paddr, m.size, m.value);
                        self.refs[hart].patch_gpr(dut_rd, dut_v);
                        self.stats.record(DiffRule::GlobalMemoryLoad);
                        return Ok(());
                    }
                }
            }
        }
        // Global-memory rule for loads: the DUT may have observed another
        // hart's store that the REF's local memory has not seen.
        if let Some(m) = e.mem {
            if !m.is_store && !dut_fp {
                for raw in self.global_mem.possible_values(m.paddr, m.size) {
                    let extended = load_extend(e.inst.op, raw);
                    if extended == dut_v {
                        self.refs[hart].patch_mem(m.paddr, m.size, raw);
                        self.refs[hart].patch_gpr(dut_rd, dut_v);
                        self.stats.record(DiffRule::GlobalMemoryLoad);
                        return Ok(());
                    }
                }
            }
            // FP loads through global memory.
            if !m.is_store && dut_fp {
                for raw in self.global_mem.possible_values(m.paddr, m.size) {
                    let boxed = if m.size == 4 {
                        0xffff_ffff_0000_0000 | raw
                    } else {
                        raw
                    };
                    if boxed == dut_v {
                        self.refs[hart].patch_mem(m.paddr, m.size, raw);
                        self.patch_fpr(hart, dut_rd, dut_v);
                        self.stats.record(DiffRule::GlobalMemoryLoad);
                        return Ok(());
                    }
                }
            }
        }
        Err(DiffError::Writeback {
            hart,
            pc: e.pc,
            reg: (dut_fp, dut_rd),
            dut: dut_v,
            reference: ref_wb.map(|w| w.2).unwrap_or(0),
        })
    }

    fn patch_fpr(&mut self, hart: usize, rd: u8, v: u64) {
        self.refs[hart].patch_fpr(rd, v);
    }

    /// Full-state comparison (periodic or at end of simulation).
    ///
    /// # Errors
    ///
    /// Returns the first field mismatch not covered by CSR rules.
    pub fn compare_state(&self, hart: usize, dut: &ArchState) -> Result<(), DiffError> {
        let r = self.refs[hart].arch_state();
        if let Some(d) = dut.first_diff(&r) {
            // CSR differences go through the rule table.
            if matches!(d, StateDiff::Csr) {
                if let Some(m) = compare_csrs(&dut.csr, &r.csr, &self.csr_rules) {
                    return Err(DiffError::Csr { hart, mismatch: m });
                }
                return Ok(());
            }
            return Err(DiffError::State {
                hart,
                diff: d.to_string(),
            });
        }
        Ok(())
    }

    /// Rule-soundness guard: a forced event at the same pc twice in a row
    /// (without an intervening successful commit at that pc) indicates a
    /// real bug rather than legal non-determinism.
    fn guard(&mut self, hart: usize, pc: u64, rule: &'static str) -> Result<(), DiffError> {
        let n = self.forced_guard.entry((hart, pc, rule)).or_insert(0);
        *n += 1;
        if *n > 2 {
            return Err(DiffError::RepeatedForcedEvent {
                hart,
                pc,
                rule: rule.to_string(),
            });
        }
        Ok(())
    }

    fn clear_guards(&mut self, hart: usize, pc: u64) {
        self.forced_guard.retain(|&(h, p, _), _| h != hart || p != pc);
    }
}

impl DiffTest<NemuRef> {
    /// Convenience constructor: one NEMU REF per hart over a program.
    pub fn for_program(program: &riscv_isa::asm::Program, harts: usize) -> Self {
        let refs = (0..harts)
            .map(|h| NemuRef::new(program, h as u64))
            .collect();
        DiffTest::new(refs, GlobalMemory::new(program))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};
    use riscv_isa::op::{DecodedInst, Op};

    fn nop_program() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 1);
        a.li(T1, 2);
        a.add(T2, T0, T1);
        a.ebreak();
        a.assemble()
    }

    fn commit(pc: u64, inst: DecodedInst, wb: Option<(bool, u8, u64)>) -> CommitEvent {
        CommitEvent {
            hart: 0,
            pc,
            inst,
            fused: None,
            wb,
            mem: None,
            trap: None,
            sc_failed: false,
            halted: false,
            cycle: 0,
        }
    }

    #[test]
    fn matching_commits_pass() {
        let p = nop_program();
        let mut dt = DiffTest::for_program(&p, 1);
        // li T0, 1 == addi t0, x0, 1
        let i1 = riscv_isa::decode32(0x0010_0293);
        let e = commit(0x8000_0000, i1, Some((false, 5, 1)));
        dt.on_commit(&e).expect("matches");
        assert_eq!(dt.commits_checked, 1);
    }

    #[test]
    fn wrong_value_is_detected() {
        let p = nop_program();
        let mut dt = DiffTest::for_program(&p, 1);
        let i1 = riscv_isa::decode32(0x0010_0293);
        let e = commit(0x8000_0000, i1, Some((false, 5, 99)));
        let err = dt.on_commit(&e).unwrap_err();
        assert!(matches!(err, DiffError::Writeback { dut: 99, .. }), "{err:?}");
    }

    #[test]
    fn wrong_pc_is_detected() {
        let p = nop_program();
        let mut dt = DiffTest::for_program(&p, 1);
        let i1 = riscv_isa::decode32(0x0010_0293);
        let e = commit(0x8000_0010, i1, None);
        assert!(matches!(dt.on_commit(&e), Err(DiffError::Pc { .. })));
    }

    #[test]
    fn page_fault_rule_forces_ref() {
        let p = nop_program();
        let mut dt = DiffTest::for_program(&p, 1);
        let e = CommitEvent {
            trap: Some(Trap::Exception(Exception::LoadPageFault, 0x4000_0000)),
            ..commit(0x8000_0000, DecodedInst::default(), None)
        };
        dt.on_commit(&e).expect("rule applies");
        assert_eq!(dt.stats.count(DiffRule::SpeculativePageFault), 1);
        // The REF took the fault: its mcause reflects it.
        assert_eq!(
            dt.reference(0).hart.state.csr.mcause,
            Exception::LoadPageFault.code()
        );
    }

    #[test]
    fn repeated_forced_fault_is_a_bug() {
        let p = nop_program();
        let mut dt = DiffTest::for_program(&p, 1);
        let e = CommitEvent {
            trap: Some(Trap::Exception(Exception::LoadPageFault, 0x4000_0000)),
            ..commit(0x8000_0000, DecodedInst::default(), None)
        };
        // mtvec is 0, so the fault loops back near the same pc; force the
        // same pc repeatedly.
        assert!(dt.on_commit(&e).is_ok());
        assert!(dt.on_commit(&e).is_ok());
        let err = dt.on_commit(&e).unwrap_err();
        assert!(matches!(err, DiffError::RepeatedForcedEvent { .. }));
    }

    #[test]
    fn global_memory_rule_patches_ref() {
        let p = nop_program();
        let mut dt = DiffTest::for_program(&p, 1);
        // Another hart's store lands in the global memory.
        dt.on_sbuffer_drain(&SbufferDrainEvent {
            hart: 1,
            paddr: 0x8002_0000,
            size: 8,
            data: 777,
            cycle: 5,
        });
        // The DUT's first committed instruction is a load observing it.
        let ld = DecodedInst {
            op: Op::Ld,
            rd: 5,
            rs1: 6,
            len: 4,
            ..Default::default()
        };
        let e = CommitEvent {
            mem: Some(xscore::CommitMem {
                vaddr: 0x8002_0000,
                paddr: 0x8002_0000,
                size: 8,
                is_store: false,
                value: 777,
                mmio: false,
            }),
            // DUT pc runs the same program; its first inst is li t0,1 but
            // we substitute a load for the scenario. Use a fresh DiffTest
            // whose REF executes a real load instead.
            ..commit(0x8000_0000, ld, Some((false, 5, 777)))
        };
        // Build a program whose first instruction IS that load.
        let mut a = Asm::new(0x8000_0000);
        a.ld(T0, 0, T1); // t1=0.. reads address 0 -> 0 in REF
        a.ebreak();
        let p2 = a.assemble();
        let mut dt2 = DiffTest::for_program(&p2, 1);
        dt2.global_mem = dt.global_mem.clone();
        let mut e2 = e;
        e2.mem = Some(xscore::CommitMem {
            vaddr: 0x8002_0000,
            paddr: 0x8002_0000,
            size: 8,
            is_store: false,
            value: 777,
            mmio: false,
        });
        dt2.on_commit(&e2).expect("global memory rule");
        assert_eq!(dt2.stats.count(DiffRule::GlobalMemoryLoad), 1);
        // REF register and local memory were patched.
        assert_eq!(dt2.reference(0).hart.state.read_gpr(5), 777);
    }

    #[test]
    fn bogus_load_value_still_fails() {
        let mut a = Asm::new(0x8000_0000);
        a.ld(T0, 0, T1);
        a.ebreak();
        let p = a.assemble();
        let mut dt = DiffTest::for_program(&p, 1);
        let ld = DecodedInst {
            op: Op::Ld,
            rd: 5,
            rs1: 6,
            len: 4,
            ..Default::default()
        };
        let e = CommitEvent {
            mem: Some(xscore::CommitMem {
                vaddr: 0x8002_0000,
                paddr: 0x8002_0000,
                size: 8,
                is_store: false,
                value: 1234,
                mmio: false,
            }),
            ..commit(0x8000_0000, ld, Some((false, 5, 1234)))
        };
        // 1234 matches neither the REF memory nor the global memory.
        assert!(matches!(
            dt.on_commit(&e),
            Err(DiffError::Writeback { .. })
        ));
    }

    #[test]
    fn state_comparison_with_csr_rules() {
        let p = nop_program();
        let dt = DiffTest::for_program(&p, 1);
        let mut dut_state = dt.reference(0).arch_state();
        dut_state.csr.mcycle = 42424242; // counters may diverge
        dt.compare_state(0, &dut_state).expect("counters ignored");
        dut_state.csr.mscratch = 7;
        assert!(matches!(
            dt.compare_state(0, &dut_state),
            Err(DiffError::Csr { .. })
        ));
        let mut dut_state2 = dt.reference(0).arch_state();
        dut_state2.gpr[3] = 9;
        assert!(matches!(
            dt.compare_state(0, &dut_state2),
            Err(DiffError::State { .. })
        ));
    }
}
