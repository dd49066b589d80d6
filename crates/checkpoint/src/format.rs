//! The RISC-V architectural checkpoint format (paper §III-D3, Fig. 9).
//!
//! A checkpoint is the full architectural state plus the memory image at
//! an instruction boundary. Like the paper's format it is defined purely
//! at the ISA level — restoration needs "only basic RV64 privilege
//! instructions" and no external debug mode: [`Checkpoint::restore_loader`]
//! emits a self-contained boot program that rebuilds every register and
//! CSR with `li`/`csrw`/`fld` sequences and jumps to the checkpointed pc.

use riscv_isa::asm::{reg, Asm, Program};
use riscv_isa::csr::addr;
use riscv_isa::mem::SparseMemory;
use riscv_isa::state::ArchState;
use serde::{Deserialize, Serialize};

/// Load address for the restore loader (must not collide with the
/// checkpointed image's live code/data).
pub const LOADER_BASE: u64 = 0x8F00_0000;

/// One architectural checkpoint.
#[derive(Clone)]
pub struct Checkpoint {
    /// Architectural state at the boundary.
    pub state: ArchState,
    /// Memory image (copy-on-write shared with the generator).
    pub memory: SparseMemory,
    /// Dynamic instruction count at the boundary.
    pub instret: u64,
    /// SimPoint weight (fraction of intervals this checkpoint stands for).
    pub weight: f64,
    /// Intervals in this checkpoint's cluster — the exact integer
    /// numerator of `weight` (denominator: `total_intervals`). Report
    /// aggregation uses the rational form so deterministic bodies stay
    /// float-free.
    pub members: u64,
    /// Total profiled intervals of the run this checkpoint came from.
    pub total_intervals: u64,
    /// Index of the interval this checkpoint represents.
    pub interval: usize,
}

impl std::fmt::Debug for Checkpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Checkpoint")
            .field("pc", &format_args!("{:#x}", self.state.pc))
            .field("instret", &self.instret)
            .field("weight", &self.weight)
            .field("interval", &self.interval)
            .finish()
    }
}

/// Serializable header (memory image stored separately as a binary blob).
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Header {
    state: ArchState,
    instret: u64,
    weight: f64,
    members: u64,
    total_intervals: u64,
    interval: usize,
}

impl Checkpoint {
    /// Serialize to a self-contained byte blob.
    pub fn to_bytes(&self) -> Vec<u8> {
        let header = serde_json::to_vec(&Header {
            state: self.state.clone(),
            instret: self.instret,
            weight: self.weight,
            members: self.members,
            total_intervals: self.total_intervals,
            interval: self.interval,
        })
        .expect("header serializes");
        let mem = self.memory.serialize_full();
        let mut out = Vec::with_capacity(16 + header.len() + mem.len());
        out.extend_from_slice(&(header.len() as u64).to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(&mem);
        out
    }

    /// Deserialize from [`Checkpoint::to_bytes`] output, rejecting
    /// malformed blobs instead of panicking — the checkpoint farm reads
    /// blobs back from a reuse directory, where truncated writes and
    /// format drift are ordinary conditions, not bugs.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem found.
    pub fn try_from_bytes(data: &[u8]) -> Result<Self, String> {
        if data.len() < 8 {
            return Err(format!("blob too short for length prefix: {} bytes", data.len()));
        }
        let hlen = u64::from_le_bytes(data[..8].try_into().expect("8 bytes")) as usize;
        let body = &data[8..];
        if hlen > body.len() {
            return Err(format!(
                "header length {hlen} exceeds remaining {} bytes",
                body.len()
            ));
        }
        let header: Header = serde_json::from_slice(&body[..hlen])
            .map_err(|e| format!("header does not parse: {e}"))?;
        let memory = SparseMemory::deserialize_full(&body[hlen..])
            .ok_or("memory image is truncated or malformed")?;
        Ok(Checkpoint {
            state: header.state,
            memory,
            instret: header.instret,
            weight: header.weight,
            members: header.members,
            total_intervals: header.total_intervals,
            interval: header.interval,
        })
    }

    /// Content hash of the serialized blob (FNV-1a 64, hex) — the
    /// on-disk file name under a checkpoint directory, so re-profiling
    /// the same workload reuses identical blobs instead of rewriting
    /// them.
    pub fn content_hash(&self) -> String {
        const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = FNV_OFFSET;
        for b in self.to_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(FNV_PRIME);
        }
        format!("{h:016x}")
    }

    /// Emit the Fig. 9-style restore loader: a bare-metal program (loaded
    /// beside the memory image) that reconstructs the architectural state
    /// with base-ISA instructions only, then jumps to the checkpointed pc.
    ///
    /// The loader restores, in order: machine CSRs, floating-point
    /// registers (via a staging area), integer registers, and finally
    /// transfers control with an `mret` whose `mepc` is the target pc —
    /// no debug-mode features required.
    pub fn restore_loader(&self) -> Program {
        let s = &self.state;
        let mut a = Asm::new(LOADER_BASE);
        // CSRs first (while registers are free for staging).
        let csrs: [(u16, u64); 10] = [
            (addr::MSTATUS, s.csr.mstatus),
            (addr::MEDELEG, s.csr.medeleg),
            (addr::MIDELEG, s.csr.mideleg),
            (addr::MIE, s.csr.mie),
            (addr::MTVEC, s.csr.mtvec),
            (addr::MSCRATCH, s.csr.mscratch),
            (addr::STVEC, s.csr.stvec),
            (addr::SSCRATCH, s.csr.sscratch),
            (addr::SATP, s.csr.satp),
            (addr::FCSR, s.csr.fcsr),
        ];
        for (csr, v) in csrs {
            a.li(reg::T0, v as i64);
            a.csrrw(reg::ZERO, csr, reg::T0);
        }
        // Floating-point registers via a staging table in the loader.
        let fstage = a.label();
        a.la(reg::T1, fstage);
        for i in 0..32u8 {
            a.fld(i, (i as i64) * 8, reg::T1);
        }
        // mepc = target pc; privilege restored through mstatus.MPP
        // (already written above; we re-write MPP to the target level).
        a.li(reg::T0, s.pc as i64);
        a.csrrw(reg::ZERO, addr::MEPC, reg::T0);
        let mpp = (s.csr.privilege as u64) << 11;
        a.li(reg::T0, (s.csr.mstatus & !(0b11 << 11) | mpp) as i64);
        a.csrrw(reg::ZERO, addr::MSTATUS, reg::T0);
        // Integer registers last (x1..x31), then mret.
        for i in 1..32u8 {
            a.li(i, s.gpr[i as usize] as i64);
        }
        a.mret();
        a.align(3);
        a.bind(fstage);
        for i in 0..32 {
            a.data_u64(s.fpr[i]);
        }
        a.assemble()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nemu::hart::{self, Hart};
    use riscv_isa::mem::PhysMem;

    fn sample_checkpoint() -> Checkpoint {
        let mut state = ArchState::new(0x8000_1234, 0);
        for i in 1..32 {
            state.gpr[i] = (i as u64) * 0x1111;
            state.fpr[i] = f64::from_bits((i as u64) << 52 | 0x3ff0_0000_0000_0000).to_bits();
        }
        state.csr.mscratch = 0xdead_beef;
        state.csr.mtvec = 0x8000_4000;
        state.csr.fcsr = 0x21;
        let mut memory = SparseMemory::new();
        memory.write_uint(0x8000_1234, 4, 0x0010_0073); // ebreak at target pc
        memory.write_uint(0x8002_0000, 8, 42);
        Checkpoint {
            state,
            memory,
            instret: 1_000_000,
            weight: 0.25,
            members: 2,
            total_intervals: 8,
            interval: 7,
        }
    }

    #[test]
    fn byte_roundtrip() {
        let c = sample_checkpoint();
        let blob = c.to_bytes();
        let mut back = Checkpoint::try_from_bytes(&blob).expect("round trip");
        assert_eq!(back.state, c.state);
        assert_eq!(back.instret, 1_000_000);
        assert_eq!(back.weight, 0.25);
        assert_eq!(back.members, 2);
        assert_eq!(back.total_intervals, 8);
        assert_eq!(back.interval, 7);
        assert_eq!(back.memory.read_uint(0x8002_0000, 8), 42);
    }

    #[test]
    fn malformed_blobs_are_rejected_not_panics() {
        let c = sample_checkpoint();
        let blob = c.to_bytes();
        // Too short for the length prefix.
        assert!(Checkpoint::try_from_bytes(&blob[..4]).is_err());
        // Header length pointing past the end.
        let mut lying = blob.clone();
        lying[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Checkpoint::try_from_bytes(&lying).is_err());
        // Corrupted header JSON.
        let mut garbled = blob.clone();
        garbled[8] = b'!';
        assert!(Checkpoint::try_from_bytes(&garbled).is_err());
        // Memory image cut short (a truncated cache file).
        assert!(Checkpoint::try_from_bytes(&blob[..blob.len() - 1]).is_err());
        // The untouched blob still round-trips.
        assert!(Checkpoint::try_from_bytes(&blob).is_ok());
    }

    #[test]
    fn content_hash_tracks_content() {
        let c = sample_checkpoint();
        assert_eq!(c.content_hash(), c.content_hash(), "hash is deterministic");
        assert_eq!(c.content_hash().len(), 16);
        let mut other = sample_checkpoint();
        other.state.gpr[5] ^= 1;
        assert_ne!(c.content_hash(), other.content_hash());
    }

    #[test]
    fn restore_loader_reconstructs_state() {
        let c = sample_checkpoint();
        let loader = c.restore_loader();
        // Boot the loader on a fresh NEMU hart over the checkpoint image.
        let mut mem = c.memory.clone();
        loader.load_into(&mut mem);
        let mut hart = Hart::new(loader.entry, 0);
        // Run the loader until it lands on the checkpointed pc.
        for _ in 0..100_000 {
            if hart.state.pc == c.state.pc || hart.is_halted() {
                break;
            }
            hart::step(&mut hart, &mut mem);
        }
        assert_eq!(hart.state.pc, c.state.pc, "loader must jump to the pc");
        // All architectural registers restored.
        assert_eq!(hart.state.gpr, c.state.gpr);
        assert_eq!(hart.state.fpr, c.state.fpr);
        assert_eq!(hart.state.csr.mscratch, 0xdead_beef);
        assert_eq!(hart.state.csr.mtvec, 0x8000_4000);
        assert_eq!(hart.state.csr.fcsr, 0x21);
        assert_eq!(hart.state.csr.privilege, c.state.csr.privilege);
        // Memory image intact.
        assert_eq!(mem.read_uint(0x8002_0000, 8), 42);
    }

    #[test]
    fn loader_uses_base_isa_only() {
        let c = sample_checkpoint();
        let loader = c.restore_loader();
        // Decode every instruction: no compressed forms, no debug-mode
        // constructs; everything must decode as a known base/priv op.
        let mut off = 0;
        let mut in_code = true;
        while off + 4 <= loader.bytes.len() && in_code {
            let raw = u32::from_le_bytes(loader.bytes[off..off + 4].try_into().unwrap());
            let d = riscv_isa::decode32(raw);
            if d.op == riscv_isa::Op::Mret {
                in_code = false; // data staging follows
            }
            assert_ne!(
                d.op,
                riscv_isa::Op::Illegal,
                "loader instruction at {off} must decode"
            );
            off += 4;
        }
        assert!(!in_code, "loader ends in mret before the staging table");
    }
}
