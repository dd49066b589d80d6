//! The superblock trace-execution tier: one step past the uop cache of
//! [`crate::fast`] (paper §III-D1, ROADMAP item 1's DBT-successor).
//!
//! Where [`crate::fast::Nemu`] memoizes one basic block per trace and
//! re-enters the dispatch loop at every control transfer, this tier
//! builds **superblocks** — linear trace buffers that span multiple
//! basic blocks — and keeps control inside them:
//!
//! - **superblock formation**: decode continues straight through
//!   conditional branches (the fall-through is the next trace slot) and
//!   follows direct `jal` targets inline, so a loop body with calls
//!   flattens into one linear buffer. A trace ends at an indirect jump,
//!   a slow (system) instruction, the length cap, or when it reaches a
//!   pc that already heads another trace (a chain sentinel joins them).
//! - **direct-threaded dispatch**: every uop carries a pre-resolved
//!   handler index (a dense `u8` dispatched through one jump table), and
//!   the hot integer ops get dedicated handlers with fully inlined
//!   semantics instead of a generic `int_compute` dispatch.
//! - **hot-trace chaining with patch-on-resolve**: a taken branch whose
//!   target trace does not exist yet exits through the outer loop and
//!   records the exiting uop; when the target trace is resolved, the
//!   exit edge is patched to transfer directly on every later execution.
//!   Backward branches whose target is already inside the trace being
//!   built are resolved at fill time (loops chain immediately).
//! - **inline TLB micro-caches**: when data translation is active, loads
//!   and stores probe a 2-entry `{vpn, ppn}` micro-cache before falling
//!   back to the full Sv39 walk; load and store caches are separate so a
//!   store-fill always reflects a D-bit-updating walk.
//!
//! Invalidation is deliberately coarse — whole-cache flush on `fence.i`,
//! `sfence.vma`, privilege transitions (`mret`/`sret`/any trap), and
//! `csrrw` to `satp`; micro-TLBs additionally clear on *any* CSR write
//! (which is what can retarget `satp`/`mstatus.MPRV` without a flush).
//! Because traces only ever grow between flushes, a patched chain link
//! can never dangle, so chained transfers skip the target-revalidation
//! that [`crate::fast::Nemu`]'s `chase` pays on every branch.

use crate::hart::{self, Hart, StepInfo, MTIME, UART_TX};
use crate::interp::{Interpreter, RunResult};
use riscv_isa::exec::int_compute;
use riscv_isa::fpu::fp_execute;
use riscv_isa::mem::{PhysMem, SparseMemory};
use riscv_isa::mmu::{self, AccessType};
use riscv_isa::op::{DecodedInst, Op};
use std::collections::HashMap;

const UNRESOLVED: u32 = u32::MAX;
/// Length cap of one superblock in uops (sentinels excluded).
const MAX_SUPERBLOCK: usize = 256;

// Handler indices. Dense u8 codes dispatched through a single `match`
// (one jump table) — the "pre-resolved handler index" of the trace tier.
// Branches are kept contiguous so fill-time logic can range-test them.
const H_LI: u8 = 0;
const H_MV: u8 = 1;
const H_ADDI: u8 = 2;
const H_ADD: u8 = 3;
const H_SUB: u8 = 4;
const H_AND: u8 = 5;
const H_OR: u8 = 6;
const H_XOR: u8 = 7;
const H_ANDI: u8 = 8;
const H_ORI: u8 = 9;
const H_XORI: u8 = 10;
const H_SLLI: u8 = 11;
const H_SRLI: u8 = 12;
const H_SRAI: u8 = 13;
const H_ADDW: u8 = 14;
const H_ADDIW: u8 = 15;
const H_SLT: u8 = 16;
const H_SLTU: u8 = 17;
const H_ALU_RI: u8 = 18;
const H_ALU_RR: u8 = 19;
const H_LD: u8 = 20;
const H_LW: u8 = 21;
const H_LWU: u8 = 22;
const H_LH: u8 = 23;
const H_LHU: u8 = 24;
const H_LB: u8 = 25;
const H_LBU: u8 = 26;
const H_SD: u8 = 27;
const H_SW: u8 = 28;
const H_SH: u8 = 29;
const H_SB: u8 = 30;
const H_FLOAD: u8 = 31;
const H_FSTORE: u8 = 32;
const H_HOSTFP: u8 = 33;
const H_BEQ: u8 = 34;
const H_BNE: u8 = 35;
const H_BLT: u8 = 36;
const H_BGE: u8 = 37;
const H_BLTU: u8 = 38;
const H_BGEU: u8 = 39;
const H_JAL_INLINE: u8 = 40;
const H_JAL_CHAIN: u8 = 41;
const H_JALR: u8 = 42;
const H_RET: u8 = 43;
const H_NOP: u8 = 44;
const H_SLOW: u8 = 45;
/// Sentinel: join another trace at `link` without executing anything.
const H_CHAIN: u8 = 46;
/// Sentinel: length cap hit — re-enter the outer loop at `pc`.
const H_GOTO: u8 = 47;

#[inline]
fn is_branch(h: u8) -> bool {
    (H_BEQ..=H_BGEU).contains(&h)
}

/// One trace-buffer entry.
#[derive(Debug, Clone, Copy)]
struct TUop {
    h: u8,
    /// Destination register, redirected to 32 when the instruction
    /// architecturally targets `x0`.
    rd: u8,
    rs1: u8,
    rs2: u8,
    /// Chained upc of the taken/indirect target (`UNRESOLVED` until the
    /// target trace exists and the edge gets patched).
    link: u32,
    imm: i64,
    pc: u64,
    next_pc: u64,
    /// Static taken-target pc (branches, chained jal); for indirect
    /// jumps the last target the link was patched for, re-validated at
    /// dispatch.
    tpc: u64,
    /// Full decode result for the generic handlers.
    inst: DecodedInst,
}

/// Template for sentinel uops (every field overridden that matters).
fn dead_tuop() -> TUop {
    TUop {
        h: H_GOTO,
        rd: 32,
        rs1: 0,
        rs2: 0,
        link: UNRESOLVED,
        imm: 0,
        pc: 0,
        next_pc: 0,
        tpc: 0,
        inst: DecodedInst::default(),
    }
}

/// One micro-TLB entry (4 KiB granule, also used for superpage leaves).
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    vpn: u64,
    ppn: u64,
}

const TLB_INVALID: TlbEntry = TlbEntry {
    vpn: u64::MAX,
    ppn: 0,
};

/// Trace-tier statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TraceStats {
    /// Trace-entry hits in the pc→upc map plus chained transfers.
    pub trace_hits: u64,
    /// Uops decoded into trace buffers.
    pub trace_fills: u64,
    /// Superblocks built.
    pub traces_built: u64,
    /// Exit edges patched on resolve.
    pub links_patched: u64,
    /// Whole-cache flushes (capacity or system events).
    pub flushes: u64,
    /// Instructions executed through the slow path.
    pub slow_steps: u64,
    /// Micro-TLB hits on the data fast path.
    pub tlb_hits: u64,
    /// Micro-TLB misses that took a full walk.
    pub tlb_misses: u64,
}

/// The superblock trace-execution interpreter.
#[derive(Debug, Clone)]
pub struct NemuTrace {
    hart: Hart,
    mem: SparseMemory,
    regs: [u64; 33],
    code: Vec<TUop>,
    map: HashMap<u64, u32>,
    capacity: usize,
    /// Instruction fetch is untranslated: traces may be built/entered.
    fetch_fast: bool,
    /// Data accesses translate: loads/stores go through the micro-TLBs.
    data_xlat: bool,
    ltlb: [TlbEntry; 2],
    stlb: [TlbEntry; 2],
    ltlb_next: usize,
    stlb_next: usize,
    /// Exiting uop awaiting a chain patch once its target resolves.
    pending_patch: Option<u32>,
    /// Trace statistics.
    pub stats: TraceStats,
}

impl NemuTrace {
    /// Default trace-buffer capacity in uops (matches the uop cache).
    pub const DEFAULT_CAPACITY: usize = 16384;

    /// Boot a program with the default trace-buffer capacity.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        Self::with_capacity(program, Self::DEFAULT_CAPACITY)
    }

    /// Boot a program with an explicit trace-buffer capacity.
    pub fn with_capacity(program: &riscv_isa::asm::Program, capacity: usize) -> Self {
        let (hart, mem) = crate::interp::boot(program);
        Self::from_parts_with_capacity(hart, mem, capacity)
    }

    /// Construct directly from a hart + memory (checkpoint restore path).
    pub fn from_parts(hart: Hart, mem: SparseMemory) -> Self {
        Self::from_parts_with_capacity(hart, mem, Self::DEFAULT_CAPACITY)
    }

    fn from_parts_with_capacity(hart: Hart, mem: SparseMemory, capacity: usize) -> Self {
        let mut n = NemuTrace {
            hart,
            mem,
            regs: [0; 33],
            code: Vec::with_capacity(capacity),
            map: HashMap::new(),
            capacity,
            fetch_fast: true,
            data_xlat: false,
            ltlb: [TLB_INVALID; 2],
            stlb: [TLB_INVALID; 2],
            ltlb_next: 0,
            stlb_next: 0,
            pending_patch: None,
            stats: TraceStats::default(),
        };
        n.sync_regs_from_hart();
        n.refresh_modes();
        n
    }

    fn refresh_modes(&mut self) {
        let csr = &self.hart.state.csr;
        self.fetch_fast = !mmu::translation_active(csr, AccessType::Fetch);
        self.data_xlat = mmu::translation_active(csr, AccessType::Load);
    }

    fn sync_regs_to_hart(&mut self) {
        self.hart.state.gpr.copy_from_slice(&self.regs[..32]);
        self.hart.state.csr.minstret = self.hart.instret;
        self.hart.state.csr.mcycle = self.hart.instret;
    }

    fn sync_regs_from_hart(&mut self) {
        self.regs[..32].copy_from_slice(&self.hart.state.gpr);
        self.regs[0] = 0;
    }

    fn clear_tlbs(&mut self) {
        self.ltlb = [TLB_INVALID; 2];
        self.stlb = [TLB_INVALID; 2];
        self.ltlb_next = 0;
        self.stlb_next = 0;
    }

    fn flush(&mut self) {
        self.code.clear();
        self.map.clear();
        self.pending_patch = None;
        self.clear_tlbs();
        self.stats.flushes += 1;
    }

    /// Translate a load address through the micro-TLB, or `None` when
    /// the access must take the architectural path (page-crossing or a
    /// walk fault — the slow step re-raises the fault with full state).
    #[inline]
    fn load_pa(&mut self, va: u64, size: u64) -> Option<u64> {
        if !self.data_xlat {
            return Some(va);
        }
        if (va & 0xfff) + size > 0x1000 {
            return None;
        }
        let vpn = va >> 12;
        for e in &self.ltlb {
            if e.vpn == vpn {
                self.stats.tlb_hits += 1;
                return Some((e.ppn << 12) | (va & 0xfff));
            }
        }
        self.stats.tlb_misses += 1;
        let t = mmu::translate(&mut self.mem, &self.hart.state.csr, va, AccessType::Load).ok()?;
        let e = TlbEntry { vpn, ppn: t.pa >> 12 };
        self.ltlb[self.ltlb_next] = e;
        self.ltlb_next ^= 1;
        Some((e.ppn << 12) | (va & 0xfff))
    }

    /// Store-side twin of [`Self::load_pa`]: fills only from walks that
    /// performed the D-bit update, so a hit never skips one.
    #[inline]
    fn store_pa(&mut self, va: u64, size: u64) -> Option<u64> {
        if !self.data_xlat {
            return Some(va);
        }
        if (va & 0xfff) + size > 0x1000 {
            return None;
        }
        let vpn = va >> 12;
        for e in &self.stlb {
            if e.vpn == vpn {
                self.stats.tlb_hits += 1;
                return Some((e.ppn << 12) | (va & 0xfff));
            }
        }
        self.stats.tlb_misses += 1;
        let t = mmu::translate(&mut self.mem, &self.hart.state.csr, va, AccessType::Store).ok()?;
        let e = TlbEntry { vpn, ppn: t.pa >> 12 };
        self.stlb[self.stlb_next] = e;
        self.stlb_next ^= 1;
        Some((e.ppn << 12) | (va & 0xfff))
    }

    /// Build a superblock starting at `pc`, returning the upc of its
    /// head, or `None` when the fast path cannot run.
    fn fill(&mut self, pc: u64) -> Option<u32> {
        if !self.fetch_fast {
            return None;
        }
        if self.code.len() + MAX_SUPERBLOCK + 1 > self.capacity {
            self.flush();
        }
        let head = self.code.len() as u32;
        self.stats.traces_built += 1;
        let mut p = pc;
        for _ in 0..MAX_SUPERBLOCK {
            if p != pc {
                if let Some(&u) = self.map.get(&p) {
                    // The superblock ran into an existing trace: join it
                    // through a chain sentinel instead of duplicating.
                    self.code.push(TUop {
                        h: H_CHAIN,
                        link: u,
                        pc: p,
                        next_pc: p,
                        ..dead_tuop()
                    });
                    return Some(head);
                }
            }
            let raw = self.mem.fetch32(p);
            let d = riscv_isa::decode(raw);
            let h = classify(&d);
            let rd = if d.rd == 0 { 32 } else { d.rd };
            let imm = match (h, d.op) {
                // auipc folds pc into the immediate at decode time.
                (H_LI, Op::Auipc) => p.wrapping_add(d.imm as u64) as i64,
                _ => d.imm,
            };
            let next_pc = p.wrapping_add(d.len as u64);
            let tpc = if is_branch(h) || h == H_JAL_INLINE {
                p.wrapping_add(d.imm as u64)
            } else {
                0
            };
            // Backward branches whose target is already in a trace chain
            // at fill time — loops transfer directly from day one.
            let link = if is_branch(h) {
                self.map.get(&tpc).copied().unwrap_or(UNRESOLVED)
            } else {
                UNRESOLVED
            };
            let idx = self.code.len() as u32;
            self.code.push(TUop {
                h,
                rd,
                rs1: d.rs1,
                rs2: d.rs2,
                link,
                imm,
                pc: p,
                next_pc,
                tpc,
                inst: d,
            });
            self.map.insert(p, idx);
            self.stats.trace_fills += 1;
            match h {
                // Indirect/system: the superblock ends here.
                H_JALR | H_RET | H_SLOW => return Some(head),
                // Direct jump: follow it inline — the target's uops are
                // decoded straight into this trace. If the target is
                // already mapped (including `j .` self-loops, whose pc
                // was mapped by the push above), chain instead.
                H_JAL_INLINE => {
                    if let Some(&u) = self.map.get(&tpc) {
                        self.code[idx as usize].h = H_JAL_CHAIN;
                        self.code[idx as usize].link = u;
                        return Some(head);
                    }
                    p = tpc;
                }
                // Conditional branches fall through inside the trace.
                _ => p = next_pc,
            }
        }
        // Length cap hit mid-flow; continue through the outer loop at the
        // unfinished pc (not mapped: the instruction there gets its own
        // trace later).
        self.code.push(TUop {
            h: H_GOTO,
            pc: p,
            next_pc: p,
            ..dead_tuop()
        });
        Some(head)
    }

    /// One slow-path architectural step (also used when the fast path is
    /// unavailable).
    fn slow_step(&mut self) -> StepInfo {
        self.sync_regs_to_hart();
        let info = hart::step(&mut self.hart, &mut self.mem);
        self.sync_regs_from_hart();
        self.stats.slow_steps += 1;
        // System events invalidate cached traces/translations.
        if matches!(
            info.inst.op,
            Op::FenceI | Op::SfenceVma | Op::Mret | Op::Sret
        ) || info.inst.op == Op::Csrrw && info.inst.csr() == riscv_isa::csr::addr::SATP
            || info.trap.is_some()
        {
            self.flush();
        } else if matches!(
            info.inst.op,
            Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci
        ) {
            // Any CSR write can retarget satp or mstatus.MPRV without a
            // flush-class event: drop the translation micro-caches.
            self.clear_tlbs();
        }
        self.refresh_modes();
        info
    }

    /// The trace execution loop; returns steps consumed.
    fn run_fast(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0u64;
        'outer: while steps < max_steps && !self.hart.is_halted() {
            if self.hart.pending_injection.is_some()
                || self.hart.state.csr.pending_interrupt().is_some()
            {
                // Control is being redirected: the pending exit edge must
                // not be patched with the trap vector's trace.
                self.pending_patch = None;
                self.slow_step();
                steps += 1;
                continue;
            }
            let pc = self.hart.state.pc;
            let head = if let Some(&u) = self.map.get(&pc) {
                self.stats.trace_hits += 1;
                u
            } else {
                match self.fill(pc) {
                    Some(u) => u,
                    None => {
                        self.pending_patch = None;
                        self.slow_step();
                        steps += 1;
                        continue;
                    }
                }
            };
            // Patch-on-resolve: the edge that exited last now has a live
            // target. Static edges (branch/jal) patch only when this pc
            // is their own target; indirect edges re-validate `tpc` at
            // dispatch, so they always adopt the newest target.
            if let Some(i) = self.pending_patch.take() {
                let u = &mut self.code[i as usize];
                let indirect = u.h == H_JALR || u.h == H_RET;
                if indirect {
                    u.link = head;
                    u.tpc = pc;
                    self.stats.links_patched += 1;
                } else if u.tpc == pc {
                    u.link = head;
                    self.stats.links_patched += 1;
                }
            }
            let mut upc = head;
            // Tight dispatch loop: stays inside the trace buffers until a
            // slow event, an unresolved edge, or fuel runs out.
            while steps < max_steps {
                let uop = self.code[upc as usize];
                steps += 1;
                self.hart.instret += 1;
                // Take the architectural path for this instruction: roll
                // back the optimistic retire, then slow-step (which
                // re-executes it, retiring or trapping with full state).
                macro_rules! slow_exit {
                    () => {{
                        self.hart.instret -= 1;
                        self.hart.state.pc = uop.pc;
                        self.slow_step();
                        if self.hart.is_halted() {
                            break 'outer;
                        }
                        continue 'outer;
                    }};
                }
                // Conditional-branch arm body: chained transfer on the
                // taken edge, `upc + 1` fall-through, exit-and-record
                // when the taken target is unresolved.
                macro_rules! branch {
                    ($taken:expr) => {{
                        if $taken {
                            if uop.link != UNRESOLVED {
                                self.stats.trace_hits += 1;
                                upc = uop.link;
                            } else {
                                self.hart.state.pc = uop.tpc;
                                self.pending_patch = Some(upc);
                                continue 'outer;
                            }
                        } else {
                            upc += 1;
                        }
                    }};
                }
                match uop.h {
                    H_LI => {
                        self.regs[uop.rd as usize] = uop.imm as u64;
                        upc += 1;
                    }
                    H_MV => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize];
                        upc += 1;
                    }
                    H_ADDI => {
                        self.regs[uop.rd as usize] =
                            self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        upc += 1;
                    }
                    H_ADD => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize]
                            .wrapping_add(self.regs[uop.rs2 as usize]);
                        upc += 1;
                    }
                    H_SUB => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize]
                            .wrapping_sub(self.regs[uop.rs2 as usize]);
                        upc += 1;
                    }
                    H_AND => {
                        self.regs[uop.rd as usize] =
                            self.regs[uop.rs1 as usize] & self.regs[uop.rs2 as usize];
                        upc += 1;
                    }
                    H_OR => {
                        self.regs[uop.rd as usize] =
                            self.regs[uop.rs1 as usize] | self.regs[uop.rs2 as usize];
                        upc += 1;
                    }
                    H_XOR => {
                        self.regs[uop.rd as usize] =
                            self.regs[uop.rs1 as usize] ^ self.regs[uop.rs2 as usize];
                        upc += 1;
                    }
                    H_ANDI => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize] & uop.imm as u64;
                        upc += 1;
                    }
                    H_ORI => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize] | uop.imm as u64;
                        upc += 1;
                    }
                    H_XORI => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize] ^ uop.imm as u64;
                        upc += 1;
                    }
                    H_SLLI => {
                        self.regs[uop.rd as usize] =
                            self.regs[uop.rs1 as usize] << (uop.imm as u64 & 63);
                        upc += 1;
                    }
                    H_SRLI => {
                        self.regs[uop.rd as usize] =
                            self.regs[uop.rs1 as usize] >> (uop.imm as u64 & 63);
                        upc += 1;
                    }
                    H_SRAI => {
                        self.regs[uop.rd as usize] = ((self.regs[uop.rs1 as usize] as i64)
                            >> (uop.imm as u64 & 63))
                            as u64;
                        upc += 1;
                    }
                    H_ADDW => {
                        let v = self.regs[uop.rs1 as usize]
                            .wrapping_add(self.regs[uop.rs2 as usize]);
                        self.regs[uop.rd as usize] = v as i32 as i64 as u64;
                        upc += 1;
                    }
                    H_ADDIW => {
                        let v = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        self.regs[uop.rd as usize] = v as i32 as i64 as u64;
                        upc += 1;
                    }
                    H_SLT => {
                        self.regs[uop.rd as usize] = ((self.regs[uop.rs1 as usize] as i64)
                            < (self.regs[uop.rs2 as usize] as i64))
                            as u64;
                        upc += 1;
                    }
                    H_SLTU => {
                        self.regs[uop.rd as usize] =
                            (self.regs[uop.rs1 as usize] < self.regs[uop.rs2 as usize]) as u64;
                        upc += 1;
                    }
                    H_ALU_RI => {
                        let a = self.regs[uop.rs1 as usize];
                        self.regs[uop.rd as usize] = int_compute(uop.inst.op, a, uop.imm as u64)
                            .expect("ALU_RI ops are int_compute-able");
                        upc += 1;
                    }
                    H_ALU_RR => {
                        let a = self.regs[uop.rs1 as usize];
                        let b = self.regs[uop.rs2 as usize];
                        self.regs[uop.rd as usize] = int_compute(uop.inst.op, a, b)
                            .expect("ALU_RR ops are int_compute-able");
                        upc += 1;
                    }
                    H_LD => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 8) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] = if pa == MTIME {
                            self.hart.state.csr.time
                        } else {
                            self.mem.read_uint(pa, 8)
                        };
                        upc += 1;
                    }
                    H_LW => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 4) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] =
                            self.mem.read_uint(pa, 4) as i32 as i64 as u64;
                        upc += 1;
                    }
                    H_LWU => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 4) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] = self.mem.read_uint(pa, 4);
                        upc += 1;
                    }
                    H_LH => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 2) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] =
                            self.mem.read_uint(pa, 2) as i16 as i64 as u64;
                        upc += 1;
                    }
                    H_LHU => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 2) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] = self.mem.read_uint(pa, 2);
                        upc += 1;
                    }
                    H_LB => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 1) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] =
                            self.mem.read_uint(pa, 1) as i8 as i64 as u64;
                        upc += 1;
                    }
                    H_LBU => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.load_pa(va, 1) else {
                            slow_exit!()
                        };
                        self.regs[uop.rd as usize] = self.mem.read_uint(pa, 1);
                        upc += 1;
                    }
                    H_SD => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.store_pa(va, 8) else {
                            slow_exit!()
                        };
                        let v = self.regs[uop.rs2 as usize];
                        if pa == UART_TX {
                            self.hart.output.push(v as u8);
                        } else {
                            self.mem.write_uint(pa, 8, v);
                        }
                        upc += 1;
                    }
                    H_SW => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.store_pa(va, 4) else {
                            slow_exit!()
                        };
                        let v = self.regs[uop.rs2 as usize];
                        if pa == UART_TX {
                            self.hart.output.push(v as u8);
                        } else {
                            self.mem.write_uint(pa, 4, v);
                        }
                        upc += 1;
                    }
                    H_SH => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.store_pa(va, 2) else {
                            slow_exit!()
                        };
                        let v = self.regs[uop.rs2 as usize];
                        if pa == UART_TX {
                            self.hart.output.push(v as u8);
                        } else {
                            self.mem.write_uint(pa, 2, v);
                        }
                        upc += 1;
                    }
                    H_SB => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let Some(pa) = self.store_pa(va, 1) else {
                            slow_exit!()
                        };
                        let v = self.regs[uop.rs2 as usize];
                        if pa == UART_TX {
                            self.hart.output.push(v as u8);
                        } else {
                            self.mem.write_uint(pa, 1, v);
                        }
                        upc += 1;
                    }
                    H_FLOAD => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let size = uop.inst.mem_size();
                        let Some(pa) = self.load_pa(va, size) else {
                            slow_exit!()
                        };
                        let raw = if pa == MTIME && size == 8 {
                            self.hart.state.csr.time
                        } else {
                            self.mem.read_uint(pa, size)
                        };
                        self.hart.state.fpr[uop.inst.rd as usize] = if uop.inst.op == Op::Flw {
                            0xffff_ffff_0000_0000 | raw
                        } else {
                            raw
                        };
                        upc += 1;
                    }
                    H_FSTORE => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let size = uop.inst.mem_size();
                        let Some(pa) = self.store_pa(va, size) else {
                            slow_exit!()
                        };
                        let v = self.hart.state.fpr[uop.inst.rs2 as usize];
                        if pa == UART_TX {
                            self.hart.output.push(v as u8);
                        } else {
                            self.mem.write_uint(pa, size, v);
                        }
                        upc += 1;
                    }
                    H_HOSTFP => {
                        let d = &uop.inst;
                        let a = if d.rs1_is_fpr() {
                            self.hart.state.fpr[d.rs1 as usize]
                        } else {
                            self.regs[d.rs1 as usize]
                        };
                        let b = if d.rs2_is_fpr() {
                            self.hart.state.fpr[d.rs2 as usize]
                        } else {
                            self.regs[d.rs2 as usize]
                        };
                        let c = self.hart.state.fpr[d.rs3 as usize];
                        let rm = if d.rm == 7 {
                            self.hart.state.csr.frm()
                        } else {
                            d.rm
                        };
                        let r = fp_execute(d.op, a, b, c, rm);
                        self.hart.state.csr.set_fflags(r.flags);
                        if d.writes_fpr() {
                            self.hart.state.fpr[d.rd as usize] = r.bits;
                        } else {
                            self.regs[uop.rd as usize] = r.bits;
                        }
                        upc += 1;
                    }
                    H_BEQ => {
                        branch!(self.regs[uop.rs1 as usize] == self.regs[uop.rs2 as usize])
                    }
                    H_BNE => {
                        branch!(self.regs[uop.rs1 as usize] != self.regs[uop.rs2 as usize])
                    }
                    H_BLT => branch!(
                        (self.regs[uop.rs1 as usize] as i64)
                            < (self.regs[uop.rs2 as usize] as i64)
                    ),
                    H_BGE => branch!(
                        (self.regs[uop.rs1 as usize] as i64)
                            >= (self.regs[uop.rs2 as usize] as i64)
                    ),
                    H_BLTU => {
                        branch!(self.regs[uop.rs1 as usize] < self.regs[uop.rs2 as usize])
                    }
                    H_BGEU => {
                        branch!(self.regs[uop.rs1 as usize] >= self.regs[uop.rs2 as usize])
                    }
                    H_JAL_INLINE => {
                        // The target's uops sit in the next slot: writing
                        // the link register is all a direct jump costs.
                        self.regs[uop.rd as usize] = uop.next_pc;
                        upc += 1;
                    }
                    H_JAL_CHAIN => {
                        self.regs[uop.rd as usize] = uop.next_pc;
                        self.stats.trace_hits += 1;
                        upc = uop.link;
                    }
                    H_JALR => {
                        // Compute the target before writing rd (rd may
                        // alias rs1).
                        let target =
                            self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64) & !1;
                        self.regs[uop.rd as usize] = uop.next_pc;
                        if uop.link != UNRESOLVED && uop.tpc == target {
                            self.stats.trace_hits += 1;
                            upc = uop.link;
                        } else {
                            self.hart.state.pc = target;
                            self.pending_patch = Some(upc);
                            continue 'outer;
                        }
                    }
                    H_RET => {
                        let target = self.regs[1] & !1;
                        if uop.link != UNRESOLVED && uop.tpc == target {
                            self.stats.trace_hits += 1;
                            upc = uop.link;
                        } else {
                            self.hart.state.pc = target;
                            self.pending_patch = Some(upc);
                            continue 'outer;
                        }
                    }
                    H_NOP => upc += 1,
                    H_CHAIN => {
                        // Sentinel: no instruction executed — hop to the
                        // joined trace and keep dispatching.
                        steps -= 1;
                        self.hart.instret -= 1;
                        self.stats.trace_hits += 1;
                        upc = uop.link;
                    }
                    H_GOTO => {
                        // Sentinel: no instruction executed — re-enter via
                        // the outer loop at the continuation pc.
                        steps -= 1;
                        self.hart.instret -= 1;
                        self.hart.state.pc = uop.pc;
                        continue 'outer;
                    }
                    _ => slow_exit!(),
                }
            }
            // Fuel exhausted inside the trace: record the resume pc.
            if steps >= max_steps {
                self.hart.state.pc = self.code[upc as usize].pc;
                break;
            }
        }
        self.sync_regs_to_hart();
        steps
    }
}

/// Classify an instruction into its trace-tier handler index.
fn classify(d: &DecodedInst) -> u8 {
    use Op::*;
    match d.op {
        Illegal | Ecall | Ebreak | Mret | Sret | Wfi | FenceI | SfenceVma | Csrrw | Csrrs
        | Csrrc | Csrrwi | Csrrsi | Csrrci | LrW | LrD | ScW | ScD => H_SLOW,
        _ if d.is_amo() => H_SLOW,
        Fence => H_NOP,
        Lui | Auipc => H_LI,
        Addi if d.rs1 == 0 => H_LI,
        Addi if d.imm == 0 => H_MV,
        Addi => H_ADDI,
        Add => H_ADD,
        Sub => H_SUB,
        And => H_AND,
        Or => H_OR,
        Xor => H_XOR,
        Andi => H_ANDI,
        Ori => H_ORI,
        Xori => H_XORI,
        Slli => H_SLLI,
        Srli => H_SRLI,
        Srai => H_SRAI,
        Addw => H_ADDW,
        Addiw => H_ADDIW,
        Slt => H_SLT,
        Sltu => H_SLTU,
        Jal => H_JAL_INLINE,
        Jalr if d.rd == 0 && d.rs1 == 1 && d.imm == 0 => H_RET,
        Jalr => H_JALR,
        Beq => H_BEQ,
        Bne => H_BNE,
        Blt => H_BLT,
        Bge => H_BGE,
        Bltu => H_BLTU,
        Bgeu => H_BGEU,
        Lb => H_LB,
        Lh => H_LH,
        Lw => H_LW,
        Ld => H_LD,
        Lbu => H_LBU,
        Lhu => H_LHU,
        Lwu => H_LWU,
        Flw | Fld => H_FLOAD,
        Sb => H_SB,
        Sh => H_SH,
        Sw => H_SW,
        Sd => H_SD,
        Fsw | Fsd => H_FSTORE,
        op => {
            if int_compute(op, 0, 0).is_some() {
                if crate::hart::has_imm_operand(op) {
                    H_ALU_RI
                } else {
                    H_ALU_RR
                }
            } else {
                // Remaining ops are floating point.
                H_HOSTFP
            }
        }
    }
}

impl Interpreter for NemuTrace {
    fn name(&self) -> &'static str {
        "nemu-trace"
    }
    fn hart(&self) -> &Hart {
        &self.hart
    }
    fn hart_mut(&mut self) -> &mut Hart {
        &mut self.hart
    }
    fn mem_mut(&mut self) -> &mut SparseMemory {
        &mut self.mem
    }
    fn step_one(&mut self) -> StepInfo {
        // Single-step goes through the architectural slow path so that
        // callers receive full commit information.
        self.sync_regs_to_hart();
        let info = hart::step(&mut self.hart, &mut self.mem);
        self.sync_regs_from_hart();
        if matches!(
            info.inst.op,
            Op::FenceI | Op::SfenceVma | Op::Mret | Op::Sret
        ) || info.inst.op == Op::Csrrw && info.inst.csr() == riscv_isa::csr::addr::SATP
            || info.trap.is_some()
        {
            self.flush();
        } else if matches!(
            info.inst.op,
            Op::Csrrw | Op::Csrrs | Op::Csrrc | Op::Csrrwi | Op::Csrrsi | Op::Csrrci
        ) {
            self.clear_tlbs();
        }
        self.refresh_modes();
        info
    }
    fn run(&mut self, max_steps: u64) -> RunResult {
        let start = self.hart.instret;
        self.sync_regs_from_hart();
        self.run_fast(max_steps);
        RunResult {
            instructions: self.hart.instret - start,
            exit_code: self.hart.halted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interp::DromajoLike;
    use riscv_isa::asm::{reg::*, Asm};

    fn sum_program(n: i64) -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0);
        a.li(T1, n);
        a.li(T2, 0);
        let top = a.bound_label();
        a.add(T2, T2, T0);
        a.addi(T0, T0, 1);
        a.bne(T0, T1, top);
        a.mv(A0, T2);
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn trace_loop_matches_reference() {
        let p = sum_program(1000);
        let mut t = NemuTrace::new(&p);
        let mut d = DromajoLike::new(&p);
        let rt = t.run(10_000_000);
        let rd = d.run(10_000_000);
        assert_eq!(rt.exit_code, Some((0..1000u64).sum()));
        assert_eq!(rt.exit_code, rd.exit_code);
        assert_eq!(rt.instructions, rd.instructions);
        assert_eq!(t.hart().state.gpr, d.hart().state.gpr);
    }

    #[test]
    fn loop_back_edge_chains_at_fill_time() {
        let p = sum_program(10_000);
        let mut t = NemuTrace::new(&p);
        t.run(10_000_000);
        // One superblock covers the whole program: the loop back-edge is
        // resolved during fill, so no runtime patching is ever needed.
        assert_eq!(t.stats.traces_built, 1, "{:?}", t.stats);
        assert_eq!(t.stats.links_patched, 0, "{:?}", t.stats);
        assert!(t.stats.trace_hits > 9_000, "{:?}", t.stats);
    }

    #[test]
    fn call_ret_patches_on_resolve() {
        let mut a = Asm::new(0x8000_0000);
        let func = a.label();
        let done = a.label();
        a.li(A0, 0);
        a.li(T0, 5);
        let top = a.bound_label();
        a.call(func);
        a.addi(T0, T0, -1);
        a.bnez(T0, top);
        a.j(done);
        a.bind(func);
        a.addi(A0, A0, 10);
        a.ret();
        a.bind(done);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(100_000).exit_code, Some(50));
        // The `ret` edge resolves once, then chains for the remaining
        // four iterations.
        assert!(t.stats.links_patched >= 1, "{:?}", t.stats);
    }

    #[test]
    fn capacity_flush() {
        // 1200 straight-line instructions split into length-capped
        // superblocks that overflow a 512-entry buffer.
        let mut a = Asm::new(0x8000_0000);
        for _ in 0..1200 {
            a.addi(T0, T0, 1);
        }
        a.mv(A0, T0);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::with_capacity(&p, 512);
        let r = t.run(100_000);
        assert_eq!(r.exit_code, Some(1200));
        assert!(t.stats.flushes >= 1, "capacity flush expected: {:?}", t.stats);
    }

    #[test]
    fn fuel_stops_mid_trace_and_resumes() {
        let p = sum_program(1000);
        let mut t = NemuTrace::new(&p);
        let mut total = 0;
        loop {
            let r = t.run(7);
            total += r.instructions;
            if r.exit_code.is_some() {
                break;
            }
            assert!(r.instructions <= 7);
        }
        let mut d = DromajoLike::new(&p);
        let rd = d.run(10_000_000);
        assert_eq!(total, rd.instructions);
        assert_eq!(t.hart().halted, rd.exit_code);
    }

    #[test]
    fn slow_path_csr_and_amo() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0x8001_0000);
        a.li(T1, 7);
        a.amoadd_d(T2, T1, T0);
        a.amoadd_d(T3, T1, T0);
        a.csrrw(ZERO, riscv_isa::csr::addr::MSCRATCH, T3);
        a.csrrs(A0, riscv_isa::csr::addr::MSCRATCH, ZERO);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(1000).exit_code, Some(7));
        assert!(t.stats.slow_steps >= 4);
    }

    #[test]
    fn fp_in_trace_loop() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 2);
        a.fcvt_d_l(FT0, T0);
        a.fmv_d_x(FT1, ZERO);
        a.li(T1, 50);
        let top = a.bound_label();
        a.fmadd_d(FT1, FT0, FT0, FT1);
        a.addi(T1, T1, -1);
        a.bnez(T1, top);
        a.fcvt_l_d(A0, FT1);
        a.ebreak();
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(100_000).exit_code, Some(200));
    }

    #[test]
    fn step_one_equals_run() {
        let p = sum_program(50);
        let mut a = NemuTrace::new(&p);
        let mut b = NemuTrace::new(&p);
        while !a.hart().is_halted() {
            a.step_one();
        }
        b.run(1_000_000);
        assert_eq!(a.hart().state.gpr, b.hart().state.gpr);
        assert_eq!(a.hart().instret, b.hart().instret);
    }

    #[test]
    fn self_modifying_code_with_fence_i() {
        let mut a = Asm::new(0x8000_0000);
        let patch_site = a.label();
        let new_insn = a.label();
        a.la(T0, patch_site);
        a.la(T1, new_insn);
        a.lw(T2, 0, T1);
        a.sw(T2, 0, T0);
        a.fence_i();
        a.bind(patch_site);
        a.li(A0, 1); // replaced by li a0, 77
        a.ebreak();
        a.align(2);
        a.bind(new_insn);
        a.data_u32(0x04d0_0513); // li a0, 77
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        assert_eq!(t.run(1000).exit_code, Some(77));
    }

    #[test]
    fn self_jump_becomes_chain() {
        // `j .` would inline forever without the already-mapped check.
        let mut a = Asm::new(0x8000_0000);
        a.li(A0, 3);
        let spin = a.bound_label();
        a.j(spin);
        let p = a.assemble();
        let mut t = NemuTrace::new(&p);
        let r = t.run(10_000);
        assert_eq!(r.exit_code, None);
        assert_eq!(r.instructions, 10_000);
        assert_eq!(t.stats.traces_built, 1, "{:?}", t.stats);
    }
}
