//! NEMU: the fast threaded-code interpreter with a trace-organized uop
//! cache (paper §III-D1).
//!
//! The optimizations of Fig. 7 are reproduced structurally:
//!
//! - **uop cache**: decode results (operation, pre-extracted operands,
//!   handler) are cached; fetch+decode happen only on uop-cache misses.
//! - **trace organization**: entries for a basic block are allocated
//!   sequentially, so advancing within a block is `upc + 1` — no hashing
//!   and no conflict misses. The cache is flushed only when full or on a
//!   system event (fence.i, sfence.vma, privilege/translation changes).
//! - **block chaining**: direct jumps and both edges of conditional
//!   branches cache the uop index of their target; indirect jumps query
//!   the pc→upc hash map (the slow path).
//! - **zero-register redirection**: writes to `x0` are redirected at
//!   decode time to a 33rd scratch register, removing the `rd != 0` check
//!   from every handler.
//! - **pseudo-instruction specialization**: `li`/`mv`/`ret`/`auipc` get
//!   dedicated handlers with fully inlined operands (`auipc` folds
//!   `pc + imm` into a load-immediate at decode time).
//! - **host floating point**: FP arithmetic uses the host FPU
//!   ([`riscv_isa::fpu`]) rather than softfloat.

use crate::hart::{self, Hart, StepInfo, MTIME, UART_TX};
use crate::interp::{Interpreter, RunResult};
use riscv_isa::exec::{branch_taken, int_compute, load_extend};
use riscv_isa::fpu::fp_execute;
use riscv_isa::mem::{PhysMem, SparseMemory};
use riscv_isa::mmu::{self, AccessType};
use riscv_isa::op::{DecodedInst, Op};
use std::collections::HashMap;

const UNRESOLVED: u32 = u32::MAX;
const MAX_TRACE: usize = 64;

/// Dispatch class of a uop (the "execution routine" pointer of Fig. 7).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Handler {
    /// `rd = imm` (li, lui, and auipc with the pc folded in).
    Li,
    /// `rd = rs1` (mv).
    Mv,
    /// Two-register ALU op via [`int_compute`].
    AluRR,
    /// Register-immediate ALU op via [`int_compute`].
    AluRI,
    /// Integer load.
    Load,
    /// FP load.
    FLoad,
    /// Integer store.
    Store,
    /// FP store.
    FStore,
    /// Direct jump with link.
    Jal,
    /// Indirect jump (hash-list query).
    Jalr,
    /// `ret` — jalr x0, 0(ra), specialized.
    Ret,
    /// Conditional branch with chained both edges.
    Branch,
    /// Trace-length-cap sentinel: transfer to `pc` through the outer loop
    /// without consuming an instruction.
    Goto,
    /// Host-FPU floating-point operation.
    HostFp,
    /// `nop` / fence treated as no-op.
    Nop,
    /// Anything else: synchronize and take the interpreter slow path.
    Slow,
}

/// One uop-cache entry.
#[derive(Debug, Clone, Copy)]
struct Uop {
    handler: Handler,
    /// Destination register, redirected to 32 when the instruction
    /// architecturally targets `x0`.
    rd: u8,
    rs1: u8,
    rs2: u8,
    imm: i64,
    pc: u64,
    next_pc: u64,
    /// Chained upc of the taken target (branches, jal).
    target: u32,
    /// Chained upc of the fall-through (branches only).
    fallthru: u32,
    /// Full decode result for generic handlers.
    inst: DecodedInst,
}

/// uop-cache statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NemuStats {
    /// Block-entry hits in the pc→upc map plus chained transfers.
    pub uop_hits: u64,
    /// Fills (fetch+decode) performed.
    pub uop_fills: u64,
    /// Whole-cache flushes (capacity or system events).
    pub flushes: u64,
    /// Instructions executed through the slow path.
    pub slow_steps: u64,
}

/// The NEMU fast interpreter.
#[derive(Debug, Clone)]
pub struct Nemu {
    hart: Hart,
    mem: SparseMemory,
    regs: [u64; 33],
    code: Vec<Uop>,
    map: HashMap<u64, u32>,
    capacity: usize,
    fast_mem: bool,
    /// Cache/trace statistics.
    pub stats: NemuStats,
}

impl Nemu {
    /// Default uop-cache capacity in entries (the paper selects 16384).
    pub const DEFAULT_CAPACITY: usize = 16384;

    /// Boot a program with the default uop-cache capacity.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        Self::with_capacity(program, Self::DEFAULT_CAPACITY)
    }

    /// Boot a program with an explicit uop-cache capacity.
    pub fn with_capacity(program: &riscv_isa::asm::Program, capacity: usize) -> Self {
        let (hart, mem) = crate::interp::boot(program);
        let mut n = Nemu {
            hart,
            mem,
            regs: [0; 33],
            code: Vec::with_capacity(capacity),
            map: HashMap::new(),
            capacity,
            fast_mem: true,
            stats: NemuStats::default(),
        };
        n.refresh_fast_mem();
        n
    }

    /// Construct directly from a hart + memory (checkpoint restore path).
    pub fn from_parts(hart: Hart, mem: SparseMemory) -> Self {
        let mut n = Nemu {
            hart,
            mem,
            regs: [0; 33],
            code: Vec::with_capacity(Self::DEFAULT_CAPACITY),
            map: HashMap::new(),
            capacity: Self::DEFAULT_CAPACITY,
            fast_mem: true,
            stats: NemuStats::default(),
        };
        n.refresh_fast_mem();
        n
    }

    fn refresh_fast_mem(&mut self) {
        // The fast path assumes flat physical memory: machine mode (or
        // bare satp) and no MPRV redirection.
        let csr = &self.hart.state.csr;
        self.fast_mem = !mmu::translation_active(csr, AccessType::Fetch)
            && !mmu::translation_active(csr, AccessType::Load)
            && !self.hart.proxy_kernel_needs_slow();
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

    fn flush(&mut self) {
        self.code.clear();
        self.map.clear();
        self.stats.flushes += 1;
    }

    /// Decode a trace starting at `pc` into the uop cache, returning the
    /// upc of its head, or `None` when the fast path cannot run.
    fn fill(&mut self, pc: u64) -> Option<u32> {
        if !self.fast_mem {
            return None;
        }
        if self.code.len() + MAX_TRACE > self.capacity {
            self.flush();
        }
        let head = self.code.len() as u32;
        let mut p = pc;
        let mut block_ended = false;
        for _ in 0..MAX_TRACE {
            let raw = self.mem.fetch32(p);
            let d = riscv_isa::decode(raw);
            let handler = classify(&d);
            let rd = if d.rd == 0 { 32 } else { d.rd };
            let imm = match (handler, d.op) {
                // auipc folds pc into the immediate at decode time.
                (Handler::Li, Op::Auipc) => p.wrapping_add(d.imm as u64) as i64,
                _ => d.imm,
            };
            let idx = self.code.len() as u32;
            self.code.push(Uop {
                handler,
                rd,
                rs1: d.rs1,
                rs2: d.rs2,
                imm,
                pc: p,
                next_pc: p.wrapping_add(d.len as u64),
                target: UNRESOLVED,
                fallthru: UNRESOLVED,
                inst: d,
            });
            self.map.insert(p, idx);
            self.stats.uop_fills += 1;
            p = p.wrapping_add(d.len as u64);
            if d.ends_block() || handler == Handler::Slow {
                block_ended = true;
                break;
            }
        }
        if !block_ended {
            // The trace hit its length cap mid-block; continue through the
            // outer loop at the unfinished pc (not mapped: the real
            // instruction there gets its own trace later).
            self.code.push(Uop {
                handler: Handler::Goto,
                rd: 32,
                rs1: 0,
                rs2: 0,
                imm: 0,
                pc: p,
                next_pc: p,
                target: UNRESOLVED,
                fallthru: UNRESOLVED,
                inst: DecodedInst::default(),
            });
        }
        Some(head)
    }

    fn lookup_or_fill(&mut self, pc: u64) -> Option<u32> {
        if let Some(&u) = self.map.get(&pc) {
            self.stats.uop_hits += 1;
            return Some(u);
        }
        self.fill(pc)
    }

    /// One slow-path architectural step (also used when the fast path is
    /// unavailable). Returns true when execution may continue.
    fn slow_step(&mut self) -> StepInfo {
        self.sync_regs_to_hart();
        let info = hart::step(&mut self.hart, &mut self.mem);
        self.sync_regs_from_hart();
        self.stats.slow_steps += 1;
        // System events invalidate cached translations/uops.
        if matches!(
            info.inst.op,
            Op::FenceI | Op::SfenceVma | Op::Mret | Op::Sret
        ) || info.inst.op == Op::Csrrw && info.inst.csr() == riscv_isa::csr::addr::SATP
            || info.trap.is_some()
        {
            self.flush();
        }
        self.refresh_fast_mem();
        info
    }

    /// The fast execution loop; returns steps consumed.
    fn run_fast(&mut self, max_steps: u64) -> u64 {
        let mut steps = 0u64;
        'outer: while steps < max_steps && !self.hart.is_halted() {
            if self.hart.pending_injection.is_some()
                || self.hart.state.csr.pending_interrupt().is_some()
            {
                self.slow_step();
                steps += 1;
                continue;
            }
            let Some(mut upc) = self.lookup_or_fill(self.hart.state.pc) else {
                self.slow_step();
                steps += 1;
                continue;
            };
            // Tight dispatch loop: stays inside the uop cache until a
            // slow event, an unresolved edge, or fuel runs out.
            while steps < max_steps {
                let uop = self.code[upc as usize];
                steps += 1;
                self.hart.instret += 1;
                match uop.handler {
                    Handler::Li => {
                        self.regs[uop.rd as usize] = uop.imm as u64;
                        upc += 1;
                    }
                    Handler::Mv => {
                        self.regs[uop.rd as usize] = self.regs[uop.rs1 as usize];
                        upc += 1;
                    }
                    Handler::AluRI => {
                        let a = self.regs[uop.rs1 as usize];
                        self.regs[uop.rd as usize] =
                            int_compute(uop.inst.op, a, uop.imm as u64)
                                .expect("AluRI ops are int_compute-able");
                        upc += 1;
                    }
                    Handler::AluRR => {
                        let a = self.regs[uop.rs1 as usize];
                        let b = self.regs[uop.rs2 as usize];
                        self.regs[uop.rd as usize] = int_compute(uop.inst.op, a, b)
                            .expect("AluRR ops are int_compute-able");
                        upc += 1;
                    }
                    Handler::Load => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let raw = if va == MTIME {
                            self.hart.state.csr.time
                        } else {
                            self.mem.read_uint(va, uop.inst.mem_size())
                        };
                        self.regs[uop.rd as usize] = load_extend(uop.inst.op, raw);
                        upc += 1;
                    }
                    Handler::FLoad => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let raw = self.mem.read_uint(va, uop.inst.mem_size());
                        self.hart.state.fpr[uop.inst.rd as usize] = if uop.inst.op == Op::Flw {
                            0xffff_ffff_0000_0000 | raw
                        } else {
                            raw
                        };
                        upc += 1;
                    }
                    Handler::Store => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let v = self.regs[uop.rs2 as usize];
                        if va == UART_TX {
                            self.hart.output.push(v as u8);
                        } else {
                            self.mem.write_uint(va, uop.inst.mem_size(), v);
                        }
                        upc += 1;
                    }
                    Handler::FStore => {
                        let va = self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64);
                        let v = self.hart.state.fpr[uop.inst.rs2 as usize];
                        self.mem.write_uint(va, uop.inst.mem_size(), v);
                        upc += 1;
                    }
                    Handler::Nop => upc += 1,
                    Handler::HostFp => {
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
                    Handler::Jal => {
                        self.regs[uop.rd as usize] = uop.next_pc;
                        let target_pc = uop.pc.wrapping_add(uop.imm as u64);
                        match self.chase(upc, target_pc, true) {
                            Some(u) => upc = u,
                            None => {
                                self.hart.state.pc = target_pc;
                                continue 'outer;
                            }
                        }
                    }
                    Handler::Ret => {
                        let target_pc = self.regs[1] & !1;
                        match self.map.get(&target_pc) {
                            Some(&u) => {
                                self.stats.uop_hits += 1;
                                upc = u;
                            }
                            None => {
                                self.hart.state.pc = target_pc;
                                continue 'outer;
                            }
                        }
                    }
                    Handler::Jalr => {
                        let target_pc =
                            self.regs[uop.rs1 as usize].wrapping_add(uop.imm as u64) & !1;
                        self.regs[uop.rd as usize] = uop.next_pc;
                        match self.map.get(&target_pc) {
                            Some(&u) => {
                                self.stats.uop_hits += 1;
                                upc = u;
                            }
                            None => {
                                self.hart.state.pc = target_pc;
                                continue 'outer;
                            }
                        }
                    }
                    Handler::Branch => {
                        let a = self.regs[uop.rs1 as usize];
                        let b = self.regs[uop.rs2 as usize];
                        let taken = branch_taken(uop.inst.op, a, b);
                        let target_pc = if taken {
                            uop.pc.wrapping_add(uop.imm as u64)
                        } else {
                            uop.next_pc
                        };
                        match self.chase(upc, target_pc, taken) {
                            Some(u) => upc = u,
                            None => {
                                self.hart.state.pc = target_pc;
                                continue 'outer;
                            }
                        }
                    }
                    Handler::Goto => {
                        // Sentinel: no instruction executed, re-enter via
                        // the outer loop at the continuation pc.
                        steps -= 1;
                        self.hart.instret -= 1;
                        self.hart.state.pc = uop.pc;
                        continue 'outer;
                    }
                    Handler::Slow => {
                        // Roll back the optimistic retire; slow_step
                        // retires (or traps) architecturally.
                        self.hart.instret -= 1;
                        self.hart.state.pc = uop.pc;
                        self.slow_step();
                        if self.hart.is_halted() {
                            break 'outer;
                        }
                        continue 'outer;
                    }
                }
            }
            // Fuel exhausted inside the block: record the resume pc.
            if steps >= max_steps {
                self.hart.state.pc = self.code[upc as usize].pc;
                break;
            }
        }
        self.sync_regs_to_hart();
        steps
    }

    /// Follow (and memoize) a chained control-flow edge.
    fn chase(&mut self, upc: u32, target_pc: u64, taken_edge: bool) -> Option<u32> {
        let cached = if taken_edge {
            self.code[upc as usize].target
        } else {
            self.code[upc as usize].fallthru
        };
        if cached != UNRESOLVED && self.code[cached as usize].pc == target_pc {
            self.stats.uop_hits += 1;
            return Some(cached);
        }
        if let Some(&u) = self.map.get(&target_pc) {
            self.stats.uop_hits += 1;
            let slot = if taken_edge {
                &mut self.code[upc as usize].target
            } else {
                &mut self.code[upc as usize].fallthru
            };
            *slot = u;
            return Some(u);
        }
        None
    }
}

/// Classify an instruction into its fast-path handler.
fn classify(d: &DecodedInst) -> Handler {
    use Op::*;
    match d.op {
        Illegal | Ecall | Ebreak | Mret | Sret | Wfi | FenceI | SfenceVma | Csrrw | Csrrs
        | Csrrc | Csrrwi | Csrrsi | Csrrci | LrW | LrD | ScW | ScD => Handler::Slow,
        _ if d.is_amo() => Handler::Slow,
        Fence => Handler::Nop,
        Lui => Handler::Li,
        Auipc => Handler::Li,
        Addi if d.rs1 == 0 => Handler::Li,
        Addi if d.imm == 0 => Handler::Mv,
        Jal => Handler::Jal,
        Jalr if d.rd == 0 && d.rs1 == 1 && d.imm == 0 => Handler::Ret,
        Jalr => Handler::Jalr,
        Beq | Bne | Blt | Bge | Bltu | Bgeu => Handler::Branch,
        Lb | Lh | Lw | Ld | Lbu | Lhu | Lwu => Handler::Load,
        Flw | Fld => Handler::FLoad,
        Sb | Sh | Sw | Sd => Handler::Store,
        Fsw | Fsd => Handler::FStore,
        op => {
            if int_compute(op, 0, 0).is_some() {
                if crate::hart::has_imm_operand(op) {
                    Handler::AluRI
                } else {
                    Handler::AluRR
                }
            } else {
                // Remaining ops are floating point.
                Handler::HostFp
            }
        }
    }
}

impl Hart {
    /// True when this hart's configuration forces NEMU onto the slow path
    /// for memory accesses (currently only proxy-kernel syscalls need it,
    /// and those are `ecall`s which are always slow anyway).
    fn proxy_kernel_needs_slow(&self) -> bool {
        false
    }
}

impl Interpreter for Nemu {
    fn name(&self) -> &'static str {
        "nemu"
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
        if matches!(info.inst.op, Op::FenceI | Op::SfenceVma | Op::Mret | Op::Sret)
            || info.trap.is_some()
        {
            self.flush();
        }
        self.refresh_fast_mem();
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
    fn fast_loop_matches_reference() {
        let p = sum_program(1000);
        let mut n = Nemu::new(&p);
        let mut d = DromajoLike::new(&p);
        let rn = n.run(10_000_000);
        let rd = d.run(10_000_000);
        assert_eq!(rn.exit_code, Some((0..1000u64).sum()));
        assert_eq!(rn.exit_code, rd.exit_code);
        assert_eq!(rn.instructions, rd.instructions);
        assert_eq!(n.hart().state.gpr, d.hart().state.gpr);
    }

    #[test]
    fn uop_cache_hits_dominate() {
        let p = sum_program(10_000);
        let mut n = Nemu::new(&p);
        n.run(10_000_000);
        assert!(
            n.stats.uop_fills < 50,
            "fills should be one per static instruction, got {}",
            n.stats.uop_fills
        );
        assert!(n.stats.uop_hits > 1000);
    }

    #[test]
    fn capacity_flush() {
        // A tiny cache forces flushes on a program with many blocks.
        let mut a = Asm::new(0x8000_0000);
        let mut labels: Vec<u32> = Vec::new();
        // A long chain of jumps creating many 1-instruction blocks.
        for _ in 0..200 {
            let l = a.label();
            a.j(l);
            a.bind(l);
        }
        a.li(A0, 9);
        a.ebreak();
        let p = a.assemble();
        labels.clear();
        let mut n = Nemu::with_capacity(&p, 128);
        let r = n.run(100_000);
        assert_eq!(r.exit_code, Some(9));
        assert!(n.stats.flushes >= 1, "capacity flush expected");
    }

    #[test]
    fn function_calls_and_ret() {
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
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(100_000).exit_code, Some(50));
    }

    #[test]
    fn fuel_stops_mid_block_and_resumes() {
        let p = sum_program(1000);
        let mut n = Nemu::new(&p);
        let mut total = 0;
        loop {
            let r = n.run(7);
            total += r.instructions;
            if r.exit_code.is_some() {
                break;
            }
            assert!(r.instructions <= 7);
        }
        // Compare against the uninterrupted count.
        let mut d = DromajoLike::new(&p);
        let rd = d.run(10_000_000);
        assert_eq!(total, rd.instructions);
        assert_eq!(n.hart().halted, rd.exit_code);
    }

    #[test]
    fn slow_path_csr_and_amo() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0x8001_0000);
        a.li(T1, 7);
        a.amoadd_d(T2, T1, T0); // mem += 7 (from 0)
        a.amoadd_d(T3, T1, T0); // t3 = 7
        a.csrrw(ZERO, riscv_isa::csr::addr::MSCRATCH, T3);
        a.csrrs(A0, riscv_isa::csr::addr::MSCRATCH, ZERO);
        a.ebreak();
        let p = a.assemble();
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(1000).exit_code, Some(7));
        assert!(n.stats.slow_steps >= 4);
    }

    #[test]
    fn fp_in_fast_loop() {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 2);
        a.fcvt_d_l(FT0, T0);
        a.fmv_d_x(FT1, ZERO);
        a.li(T1, 50);
        let top = a.bound_label();
        a.fmadd_d(FT1, FT0, FT0, FT1); // acc += 4
        a.addi(T1, T1, -1);
        a.bnez(T1, top);
        a.fcvt_l_d(A0, FT1);
        a.ebreak();
        let p = a.assemble();
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(100_000).exit_code, Some(200));
    }

    #[test]
    fn step_one_equals_run() {
        let p = sum_program(50);
        let mut a = Nemu::new(&p);
        let mut b = Nemu::new(&p);
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
        // Overwrite the instruction at patch_site with "li a0, 77".
        a.la(T0, patch_site);
        a.la(T1, new_insn);
        a.lw(T2, 0, T1);
        a.sw(T2, 0, T0);
        a.fence_i();
        a.bind(patch_site);
        a.li(A0, 1); // will be replaced by li a0, 77
        a.ebreak();
        a.align(2);
        a.bind(new_insn);
        // li a0, 77 == addi a0, x0, 77
        a.data_u32(0x04d0_0513);
        let p = a.assemble();
        let mut n = Nemu::new(&p);
        assert_eq!(n.run(1000).exit_code, Some(77));
    }
}
