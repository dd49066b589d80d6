//! The interpreter trait and the three baseline interpreters NEMU is
//! compared against in the paper's Fig. 8: a Spike-like ISS (decoded-
//! instruction cache + SoftFloat arithmetic), a Dromajo-like ISS (plain
//! decode-and-execute, no cache), and a QEMU-TCI-like ISS (an extra
//! bytecode dispatch layer per instruction).

use crate::hart::{self, Hart, StepInfo};
use riscv_isa::mem::SparseMemory;
use riscv_isa::op::{DecodedInst, Op};
use riscv_isa::softfloat;

/// Outcome of [`Interpreter::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunResult {
    /// Instructions retired during this run call.
    pub instructions: u64,
    /// Exit code if the program halted.
    pub exit_code: Option<u64>,
}

/// A whole-system RISC-V interpreter owning one hart and its memory.
pub trait Interpreter {
    /// Human-readable name used by the benchmark harness.
    fn name(&self) -> &'static str;
    /// The hart.
    fn hart(&self) -> &Hart;
    /// Mutable hart access.
    fn hart_mut(&mut self) -> &mut Hart;
    /// The guest physical memory.
    fn mem_mut(&mut self) -> &mut SparseMemory;
    /// Execute one instruction and report its commit information.
    fn step_one(&mut self) -> StepInfo;

    /// Run until halt or until `max_steps` steps execute.
    ///
    /// A step is one instruction or one trap entry, so a trap storm still
    /// consumes fuel; `instructions` in the result counts actual retires.
    fn run(&mut self, max_steps: u64) -> RunResult {
        let start = self.hart().instret;
        let mut steps = 0;
        while steps < max_steps && !self.hart().is_halted() {
            self.step_one();
            steps += 1;
        }
        RunResult {
            instructions: self.hart().instret - start,
            exit_code: self.hart().halted,
        }
    }

    /// Run like [`Interpreter::run`], reporting basic blocks as they end;
    /// returns the steps consumed (same unit as `run`'s fuel).
    ///
    /// Stops exactly at `max_steps` or at halt. `on_block(entry_pc, len)`
    /// fires at every block end — an instruction whose
    /// [`DecodedInst::ends_block`] holds, or a trap — with `len` counted
    /// in steps; on return the trailing partial block, if any, is
    /// reported too. This is the BBV profiler's engine: the default
    /// single-steps; `nemu-trace` overrides it with its own dispatch loop.
    fn run_blocks(&mut self, max_steps: u64, on_block: &mut dyn FnMut(u64, u64)) -> u64 {
        let mut steps = 0;
        let mut block_pc = self.hart().state.pc;
        let mut block_start = 0;
        while steps < max_steps && !self.hart().is_halted() {
            let info = self.step_one();
            steps += 1;
            if info.inst.ends_block() || info.trap.is_some() {
                on_block(block_pc, steps - block_start);
                block_pc = self.hart().state.pc;
                block_start = steps;
            }
        }
        if steps > block_start {
            on_block(block_pc, steps - block_start);
        }
        steps
    }
}

/// Load a program image and create a hart at its entry point.
pub fn boot(program: &riscv_isa::asm::Program) -> (Hart, SparseMemory) {
    let mut mem = SparseMemory::new();
    program.load_into(&mut mem);
    (Hart::new(program.entry, 0), mem)
}

// ---------------------------------------------------------------------
// Dromajo-like: straightforward fetch/decode/execute, no caching.
// ---------------------------------------------------------------------

/// A Dromajo-like interpreter: no decode cache at all (the paper notes
/// "there is no cache in Dromajo", §III-D2).
#[derive(Debug, Clone)]
pub struct DromajoLike {
    hart: Hart,
    mem: SparseMemory,
}

impl DromajoLike {
    /// Boot a program.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        let (hart, mem) = boot(program);
        DromajoLike { hart, mem }
    }
}

impl Interpreter for DromajoLike {
    fn name(&self) -> &'static str {
        "dromajo-like"
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
        hart::step(&mut self.hart, &mut self.mem)
    }
}

// ---------------------------------------------------------------------
// Spike-like: direct-mapped decoded-instruction cache + SoftFloat.
// ---------------------------------------------------------------------

/// A Spike-like interpreter: a direct-mapped software instruction cache of
/// decoded instructions (subject to conflict misses, unlike NEMU's
/// superblock trace buffers) and SoftFloat-style software arithmetic for
/// FP add/sub/mul/FMA — the two structural properties the paper credits
/// for Spike's performance profile.
#[derive(Debug, Clone)]
pub struct SpikeLike {
    hart: Hart,
    mem: SparseMemory,
    cache: Vec<CacheEntry>,
    mask: u64,
    /// Decode-cache hits.
    pub hits: u64,
    /// Decode-cache misses (including conflict misses).
    pub misses: u64,
}

#[derive(Debug, Clone, Copy)]
struct CacheEntry {
    tag: u64,
    inst: DecodedInst,
}

impl SpikeLike {
    /// Default software instruction-cache size (the paper sweeps 1024 to
    /// 32768 and selects 16384 as best for Spike).
    pub const DEFAULT_CACHE_SIZE: usize = 16384;

    /// Boot a program with the default cache size.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        Self::with_cache_size(program, Self::DEFAULT_CACHE_SIZE)
    }

    /// Boot a program with a specific (power-of-two) cache size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not a power of two.
    pub fn with_cache_size(program: &riscv_isa::asm::Program, size: usize) -> Self {
        assert!(size.is_power_of_two(), "cache size must be a power of two");
        let (hart, mem) = boot(program);
        SpikeLike {
            hart,
            mem,
            cache: vec![
                CacheEntry {
                    tag: u64::MAX,
                    inst: DecodedInst::default(),
                };
                size
            ],
            mask: size as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    fn lookup(&mut self) -> Result<DecodedInst, crate::hart::ExecError> {
        let pc = self.hart.state.pc;
        let idx = ((pc >> 1) & self.mask) as usize;
        let e = &self.cache[idx];
        if e.tag == pc {
            self.hits += 1;
            return Ok(e.inst);
        }
        self.misses += 1;
        let inst = hart::fetch(&mut self.hart, &mut self.mem)?;
        self.cache[idx] = CacheEntry { tag: pc, inst };
        Ok(inst)
    }

    fn flush_cache(&mut self) {
        for e in &mut self.cache {
            e.tag = u64::MAX;
        }
    }
}

/// Execute an FP add/sub/mul/FMA through the exact softfloat kernels.
/// Returns `true` when the op was handled.
pub(crate) fn execute_fp_soft(hart: &mut Hart, d: &DecodedInst, info: &mut StepInfo) -> bool {
    use Op::*;
    let s = &mut hart.state;
    if s.csr.mstatus & riscv_isa::csr::mstatus::FS == 0 {
        return false; // let the generic path raise the illegal trap
    }
    let a = s.fpr[d.rs1 as usize];
    let b = s.fpr[d.rs2 as usize];
    let c = s.fpr[d.rs3 as usize];
    const SIGN64: u64 = 1 << 63;
    const SIGN32: u32 = 1 << 31;
    let unb = |v: u64| -> u32 {
        if v >> 32 == 0xffff_ffff {
            v as u32
        } else {
            0x7fc0_0000
        }
    };
    let (bits, flags, single) = match d.op {
        FaddD => {
            let r = softfloat::add64(a, b);
            (r.bits, r.flags, false)
        }
        FsubD => {
            let r = softfloat::sub64(a, b);
            (r.bits, r.flags, false)
        }
        FmulD => {
            let r = softfloat::mul64(a, b);
            (r.bits, r.flags, false)
        }
        FmaddD => {
            let r = softfloat::fma64(a, b, c);
            (r.bits, r.flags, false)
        }
        FmsubD => {
            let r = softfloat::fma64(a, b, c ^ SIGN64);
            (r.bits, r.flags, false)
        }
        FnmsubD => {
            let r = softfloat::fma64(a ^ SIGN64, b, c);
            (r.bits, r.flags, false)
        }
        FnmaddD => {
            let r = softfloat::fma64(a ^ SIGN64, b, c ^ SIGN64);
            (r.bits, r.flags, false)
        }
        FaddS => {
            let r = softfloat::add32(unb(a), unb(b));
            (r.bits as u64, r.flags, true)
        }
        FsubS => {
            let r = softfloat::sub32(unb(a), unb(b));
            (r.bits as u64, r.flags, true)
        }
        FmulS => {
            let r = softfloat::mul32(unb(a), unb(b));
            (r.bits as u64, r.flags, true)
        }
        FmaddS => {
            let r = softfloat::fma32(unb(a), unb(b), unb(c));
            (r.bits as u64, r.flags, true)
        }
        FmsubS => {
            let r = softfloat::fma32(unb(a), unb(b), unb(c) ^ SIGN32);
            (r.bits as u64, r.flags, true)
        }
        FnmsubS => {
            let r = softfloat::fma32(unb(a) ^ SIGN32, unb(b), unb(c));
            (r.bits as u64, r.flags, true)
        }
        FnmaddS => {
            let r = softfloat::fma32(unb(a) ^ SIGN32, unb(b), unb(c) ^ SIGN32);
            (r.bits as u64, r.flags, true)
        }
        _ => return false,
    };
    let boxed = if single {
        0xffff_ffff_0000_0000 | bits
    } else {
        bits
    };
    s.csr.set_fflags(flags);
    s.fpr[d.rd as usize] = boxed;
    info.wb = Some((true, d.rd, boxed));
    s.pc = s.pc.wrapping_add(d.len as u64);
    true
}

impl Interpreter for SpikeLike {
    fn name(&self) -> &'static str {
        "spike-like"
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
        let mut info = StepInfo {
            pc: self.hart.state.pc,
            inst: DecodedInst::default(),
            trap: None,
            wb: None,
            mem: None,
            sc_failed: false,
            halted: false,
        };
        if self.hart.is_halted() {
            info.halted = true;
            return info;
        }
        if self.hart.pending_injection.is_some() || self.hart.state.csr.pending_interrupt().is_some()
        {
            return hart::step(&mut self.hart, &mut self.mem);
        }
        let d = match self.lookup() {
            Ok(d) => d,
            Err(_) => return hart::step(&mut self.hart, &mut self.mem),
        };
        info.inst = d;
        if execute_fp_soft(&mut self.hart, &d, &mut info) {
            self.hart.instret += 1;
            self.hart.state.csr.minstret = self.hart.state.csr.minstret.wrapping_add(1);
            self.hart.state.csr.mcycle = self.hart.state.csr.mcycle.wrapping_add(1);
            return info;
        }
        match hart::execute(&mut self.hart, &mut self.mem, &d, &mut info) {
            Ok(()) => {
                self.hart.instret += 1;
                self.hart.state.csr.minstret = self.hart.state.csr.minstret.wrapping_add(1);
                self.hart.state.csr.mcycle = self.hart.state.csr.mcycle.wrapping_add(1);
                if matches!(d.op, Op::FenceI | Op::SfenceVma) {
                    self.flush_cache();
                }
            }
            Err(e) => {
                let trap = riscv_isa::trap::Trap::Exception(e.cause, e.tval);
                let target = self.hart.state.csr.take_trap(trap, info.pc);
                self.hart.state.pc = target;
                self.hart.state.csr.mcycle = self.hart.state.csr.mcycle.wrapping_add(1);
                info.trap = Some(trap);
            }
        }
        info
    }
}

// ---------------------------------------------------------------------
// QEMU-TCI-like: per-instruction lowering to a bytecode dispatch layer.
// ---------------------------------------------------------------------

/// Micro-op bytecode of the TCI-like dispatch layer.
#[derive(Debug, Clone, Copy)]
enum TciOp {
    /// Read the source operands into the virtual accumulators.
    LoadOperands,
    /// Perform the architectural operation.
    Exec,
    /// Retire: bump counters.
    Retire,
    /// End of bytecode.
    End,
}

/// A QEMU-TCI-like interpreter: every instruction is lowered into a tiny
/// bytecode program which an inner dispatcher then interprets. This models
/// the cost structure of interpreting TCG ops rather than host code (the
/// reason QEMU-TCI trails Spike in Fig. 8).
#[derive(Debug, Clone)]
pub struct QemuTciLike {
    hart: Hart,
    mem: SparseMemory,
    scratch: [u64; 4],
}

impl QemuTciLike {
    /// Boot a program.
    pub fn new(program: &riscv_isa::asm::Program) -> Self {
        let (hart, mem) = boot(program);
        QemuTciLike {
            hart,
            mem,
            scratch: [0; 4],
        }
    }
}

impl Interpreter for QemuTciLike {
    fn name(&self) -> &'static str {
        "qemu-tci-like"
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
        let mut info = StepInfo {
            pc: self.hart.state.pc,
            inst: DecodedInst::default(),
            trap: None,
            wb: None,
            mem: None,
            sc_failed: false,
            halted: false,
        };
        if self.hart.is_halted() {
            info.halted = true;
            return info;
        }
        if self.hart.pending_injection.is_some() || self.hart.state.csr.pending_interrupt().is_some()
        {
            return hart::step(&mut self.hart, &mut self.mem);
        }
        let d = match hart::fetch(&mut self.hart, &mut self.mem) {
            Ok(d) => d,
            Err(_) => return hart::step(&mut self.hart, &mut self.mem),
        };
        info.inst = d;
        // Lower into bytecode, then dispatch it.
        let program = [TciOp::LoadOperands, TciOp::Exec, TciOp::Retire, TciOp::End];
        let mut tpc = 0usize;
        loop {
            match program[tpc] {
                TciOp::LoadOperands => {
                    self.scratch[0] = self.hart.state.read_gpr(d.rs1);
                    self.scratch[1] = self.hart.state.read_gpr(d.rs2);
                    self.scratch[2] = d.imm as u64;
                }
                TciOp::Exec => {
                    match hart::execute(&mut self.hart, &mut self.mem, &d, &mut info) {
                        Ok(()) => {}
                        Err(e) => {
                            let trap = riscv_isa::trap::Trap::Exception(e.cause, e.tval);
                            let target = self.hart.state.csr.take_trap(trap, info.pc);
                            self.hart.state.pc = target;
                            self.hart.state.csr.mcycle =
                                self.hart.state.csr.mcycle.wrapping_add(1);
                            info.trap = Some(trap);
                            return info;
                        }
                    }
                }
                TciOp::Retire => {
                    self.hart.instret += 1;
                    self.hart.state.csr.minstret =
                        self.hart.state.csr.minstret.wrapping_add(1);
                    self.hart.state.csr.mcycle = self.hart.state.csr.mcycle.wrapping_add(1);
                }
                TciOp::End => break,
            }
            tpc += 1;
        }
        info
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    fn sum_program() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 0);
        a.li(T1, 1000);
        a.li(T2, 0);
        let top = a.bound_label();
        a.add(T2, T2, T0);
        a.addi(T0, T0, 1);
        a.bne(T0, T1, top);
        a.mv(A0, T2);
        a.ebreak();
        a.assemble()
    }

    fn fp_program() -> riscv_isa::asm::Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(T0, 1);
        a.fcvt_d_l(FT0, T0); // 1.0
        a.fmv_d_x(FT1, ZERO); // 0.0
        a.li(T1, 100);
        let top = a.bound_label();
        a.fmadd_d(FT1, FT0, FT0, FT1); // acc += 1.0
        a.addi(T1, T1, -1);
        a.bnez(T1, top);
        a.fcvt_l_d(A0, FT1);
        a.ebreak();
        a.assemble()
    }

    #[test]
    fn all_baselines_agree_on_int() {
        let expected = (0..1000u64).sum::<u64>();
        let p = sum_program();
        let mut d = DromajoLike::new(&p);
        let mut s = SpikeLike::new(&p);
        let mut q = QemuTciLike::new(&p);
        assert_eq!(d.run(1_000_000).exit_code, Some(expected));
        assert_eq!(s.run(1_000_000).exit_code, Some(expected));
        assert_eq!(q.run(1_000_000).exit_code, Some(expected));
        // All retire the same dynamic instruction count.
        assert_eq!(d.hart().instret, s.hart().instret);
        assert_eq!(d.hart().instret, q.hart().instret);
    }

    #[test]
    fn softfloat_path_matches_host_path() {
        let p = fp_program();
        let mut d = DromajoLike::new(&p); // host FP
        let mut s = SpikeLike::new(&p); // softfloat
        assert_eq!(d.run(1_000_000).exit_code, Some(100));
        assert_eq!(s.run(1_000_000).exit_code, Some(100));
        assert_eq!(d.hart().state.fpr, s.hart().state.fpr);
    }

    #[test]
    fn spike_cache_hits_dominate_in_loops() {
        let p = sum_program();
        let mut s = SpikeLike::new(&p);
        s.run(1_000_000);
        assert!(s.hits > s.misses * 10, "hits={} misses={}", s.hits, s.misses);
    }

    #[test]
    fn spike_small_cache_conflicts() {
        // A 2-entry cache on a loop of >2 instructions must conflict-miss.
        let p = sum_program();
        let mut s = SpikeLike::with_cache_size(&p, 2);
        s.run(100_000);
        assert!(s.misses > s.hits, "conflict misses expected");
    }

    #[test]
    fn run_respects_fuel() {
        let p = sum_program();
        let mut d = DromajoLike::new(&p);
        let r = d.run(10);
        assert_eq!(r.instructions, 10);
        assert_eq!(r.exit_code, None);
    }
}
