//! Control and status registers, privilege levels, and trap entry/return.
//!
//! [`CsrFile`] implements the machine- and supervisor-mode CSR subset
//! needed to boot bare-metal and OS-like workloads, with WARL masking as
//! specified. The DiffTest CSR diff-rule table in the `minjie` crate is
//! generated from the same field masks defined here.

use crate::trap::{Exception, Interrupt, Trap};
use serde::{Deserialize, Serialize};

/// Privilege levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Privilege {
    /// User mode (0).
    User = 0,
    /// Supervisor mode (1).
    Supervisor = 1,
    /// Machine mode (3).
    Machine = 3,
}

impl Privilege {
    /// Construct from the 2-bit encoding; 2 (hypervisor) maps to `None`.
    pub fn from_bits(bits: u64) -> Option<Privilege> {
        match bits & 3 {
            0 => Some(Privilege::User),
            1 => Some(Privilege::Supervisor),
            3 => Some(Privilege::Machine),
            _ => None,
        }
    }
}

/// CSR addresses used throughout the workspace.
#[allow(missing_docs)]
pub mod addr {
    pub const FFLAGS: u16 = 0x001;
    pub const FRM: u16 = 0x002;
    pub const FCSR: u16 = 0x003;
    pub const CYCLE: u16 = 0xc00;
    pub const TIME: u16 = 0xc01;
    pub const INSTRET: u16 = 0xc02;
    pub const SSTATUS: u16 = 0x100;
    pub const SIE: u16 = 0x104;
    pub const STVEC: u16 = 0x105;
    pub const SCOUNTEREN: u16 = 0x106;
    pub const SSCRATCH: u16 = 0x140;
    pub const SEPC: u16 = 0x141;
    pub const SCAUSE: u16 = 0x142;
    pub const STVAL: u16 = 0x143;
    pub const SIP: u16 = 0x144;
    pub const SATP: u16 = 0x180;
    pub const MVENDORID: u16 = 0xf11;
    pub const MARCHID: u16 = 0xf12;
    pub const MIMPID: u16 = 0xf13;
    pub const MHARTID: u16 = 0xf14;
    pub const MSTATUS: u16 = 0x300;
    pub const MISA: u16 = 0x301;
    pub const MEDELEG: u16 = 0x302;
    pub const MIDELEG: u16 = 0x303;
    pub const MIE: u16 = 0x304;
    pub const MTVEC: u16 = 0x305;
    pub const MCOUNTEREN: u16 = 0x306;
    pub const MSCRATCH: u16 = 0x340;
    pub const MEPC: u16 = 0x341;
    pub const MCAUSE: u16 = 0x342;
    pub const MTVAL: u16 = 0x343;
    pub const MIP: u16 = 0x344;
    pub const PMPCFG0: u16 = 0x3a0;
    pub const PMPADDR0: u16 = 0x3b0;
    pub const MCYCLE: u16 = 0xb00;
    pub const MINSTRET: u16 = 0xb02;
}

/// mstatus field masks.
#[allow(missing_docs)]
pub mod mstatus {
    pub const SIE: u64 = 1 << 1;
    pub const MIE: u64 = 1 << 3;
    pub const SPIE: u64 = 1 << 5;
    pub const MPIE: u64 = 1 << 7;
    pub const SPP: u64 = 1 << 8;
    pub const MPP: u64 = 0b11 << 11;
    pub const FS: u64 = 0b11 << 13;
    pub const XS: u64 = 0b11 << 15;
    pub const MPRV: u64 = 1 << 17;
    pub const SUM: u64 = 1 << 18;
    pub const MXR: u64 = 1 << 19;
    pub const TVM: u64 = 1 << 20;
    pub const TW: u64 = 1 << 21;
    pub const TSR: u64 = 1 << 22;
    pub const UXL: u64 = 0b11 << 32;
    pub const SXL: u64 = 0b11 << 34;
    pub const SD: u64 = 1 << 63;

    /// Bits writable through the mstatus CSR.
    pub const WRITE_MASK: u64 =
        SIE | MIE | SPIE | MPIE | SPP | MPP | FS | MPRV | SUM | MXR | TVM | TW | TSR;
    /// The sstatus view of mstatus.
    pub const SSTATUS_MASK: u64 = SIE | SPIE | SPP | FS | XS | SUM | MXR | UXL | SD;
}

/// The CSR file of one hart.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CsrFile {
    /// Current privilege level.
    pub privilege: Privilege,
    /// Machine status register (sstatus is a masked view of it).
    pub mstatus: u64,
    /// Machine exception delegation.
    pub medeleg: u64,
    /// Machine interrupt delegation.
    pub mideleg: u64,
    /// Machine interrupt enable.
    pub mie: u64,
    /// Machine interrupt pending.
    pub mip: u64,
    /// Machine trap vector.
    pub mtvec: u64,
    /// Machine counter enable.
    pub mcounteren: u64,
    /// Machine scratch.
    pub mscratch: u64,
    /// Machine exception PC.
    pub mepc: u64,
    /// Machine trap cause.
    pub mcause: u64,
    /// Machine trap value.
    pub mtval: u64,
    /// Cycle counter.
    pub mcycle: u64,
    /// Retired-instruction counter.
    pub minstret: u64,
    /// Supervisor trap vector.
    pub stvec: u64,
    /// Supervisor counter enable.
    pub scounteren: u64,
    /// Supervisor scratch.
    pub sscratch: u64,
    /// Supervisor exception PC.
    pub sepc: u64,
    /// Supervisor trap cause.
    pub scause: u64,
    /// Supervisor trap value.
    pub stval: u64,
    /// Supervisor address translation and protection.
    pub satp: u64,
    /// Floating-point CSR (frm in bits 7:5, fflags in bits 4:0).
    pub fcsr: u64,
    /// Hart id.
    pub mhartid: u64,
    /// Wall-clock time source (read through the `time` CSR).
    pub time: u64,
}

impl Default for CsrFile {
    fn default() -> Self {
        Self::new(0)
    }
}

/// misa value: RV64 with IMAFDC + S + U.
pub const MISA_RV64GCSU: u64 = (2 << 62) // MXL = 64
    | (1 << 0)  // A
    | (1 << 2)  // C
    | (1 << 3)  // D
    | (1 << 5)  // F
    | (1 << 8)  // I
    | (1 << 12) // M
    | (1 << 18) // S
    | (1 << 20); // U

impl CsrFile {
    /// Create a reset-state CSR file for hart `hartid`.
    ///
    /// The hart resets into machine mode with floating point enabled
    /// (`mstatus.FS = dirty`) so that bare-metal workloads can use the FPU
    /// without an enabling stub.
    pub fn new(hartid: u64) -> Self {
        CsrFile {
            privilege: Privilege::Machine,
            mstatus: mstatus::FS | (2 << 32) | (2 << 34), // FS=initial-dirty is set below
            medeleg: 0,
            mideleg: 0,
            mie: 0,
            mip: 0,
            mtvec: 0,
            mcounteren: 0,
            mscratch: 0,
            mepc: 0,
            mcause: 0,
            mtval: 0,
            mcycle: 0,
            minstret: 0,
            stvec: 0,
            scounteren: 0,
            sscratch: 0,
            sepc: 0,
            scause: 0,
            stval: 0,
            satp: 0,
            fcsr: 0,
            mhartid: hartid,
            time: 0,
        }
    }

    #[inline]
    fn mstatus_read(&self) -> u64 {
        let mut v = self.mstatus;
        // SD summarizes FS/XS dirtiness.
        if (v & mstatus::FS) == mstatus::FS || (v & mstatus::XS) == mstatus::XS {
            v |= mstatus::SD;
        }
        v
    }

    /// Read a CSR, checking privilege.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::IllegalInstruction`] for unknown CSRs or
    /// insufficient privilege.
    pub fn read(&self, csr: u16) -> Result<u64, Exception> {
        self.check_privilege(csr)?;
        use addr::*;
        Ok(match csr {
            FFLAGS => self.fcsr & 0x1f,
            FRM => (self.fcsr >> 5) & 0x7,
            FCSR => self.fcsr & 0xff,
            CYCLE => self.counter_read(0)?,
            TIME => self.counter_read(1)?,
            INSTRET => self.counter_read(2)?,
            SSTATUS => self.mstatus_read() & mstatus::SSTATUS_MASK,
            SIE => self.mie & self.mideleg,
            STVEC => self.stvec,
            SCOUNTEREN => self.scounteren,
            SSCRATCH => self.sscratch,
            SEPC => self.sepc,
            SCAUSE => self.scause,
            STVAL => self.stval,
            SIP => self.mip & self.mideleg,
            SATP => {
                if self.privilege == Privilege::Supervisor
                    && self.mstatus & mstatus::TVM != 0
                {
                    return Err(Exception::IllegalInstruction);
                }
                self.satp
            }
            MVENDORID => 0,
            MARCHID => 25, // XiangShan's registered open-source marchid
            MIMPID => 0,
            MHARTID => self.mhartid,
            MSTATUS => self.mstatus_read(),
            MISA => MISA_RV64GCSU,
            MEDELEG => self.medeleg,
            MIDELEG => self.mideleg,
            MIE => self.mie,
            MTVEC => self.mtvec,
            MCOUNTEREN => self.mcounteren,
            MSCRATCH => self.mscratch,
            MEPC => self.mepc,
            MCAUSE => self.mcause,
            MTVAL => self.mtval,
            MIP => self.mip,
            MCYCLE => self.mcycle,
            MINSTRET => self.minstret,
            // PMP registers read as zero (no PMP implemented).
            c if (PMPCFG0..PMPCFG0 + 16).contains(&c) => 0,
            c if (PMPADDR0..PMPADDR0 + 64).contains(&c) => 0,
            // Unimplemented hardware performance counters read as zero.
            c if (0xb03..=0xb1f).contains(&c) => 0,
            c if (0xc03..=0xc1f).contains(&c) => 0,
            c if (0x323..=0x33f).contains(&c) => 0, // mhpmevent
            _ => return Err(Exception::IllegalInstruction),
        })
    }

    /// Write a CSR, applying WARL masks and checking privilege.
    ///
    /// # Errors
    ///
    /// Returns [`Exception::IllegalInstruction`] for unknown or read-only
    /// CSRs, or insufficient privilege.
    pub fn write(&mut self, csr: u16, value: u64) -> Result<(), Exception> {
        self.check_privilege(csr)?;
        if csr >> 10 == 0b11 {
            return Err(Exception::IllegalInstruction); // read-only region
        }
        use addr::*;
        match csr {
            FFLAGS => self.fcsr = (self.fcsr & !0x1f) | (value & 0x1f),
            FRM => self.fcsr = (self.fcsr & !0xe0) | ((value & 0x7) << 5),
            FCSR => self.fcsr = value & 0xff,
            SSTATUS => {
                let mask = mstatus::SSTATUS_MASK & mstatus::WRITE_MASK;
                self.mstatus = (self.mstatus & !mask) | (value & mask);
            }
            SIE => {
                self.mie = (self.mie & !self.mideleg) | (value & self.mideleg);
            }
            STVEC => self.stvec = value & !0b10,
            SCOUNTEREN => self.scounteren = value & 0b111,
            SSCRATCH => self.sscratch = value,
            SEPC => self.sepc = value & !1,
            SCAUSE => self.scause = value,
            STVAL => self.stval = value,
            SIP => {
                // Only SSIP is software-writable from S-mode.
                let mask = self.mideleg & (1 << Interrupt::SupervisorSoftware.code());
                self.mip = (self.mip & !mask) | (value & mask);
            }
            SATP => {
                if self.privilege == Privilege::Supervisor
                    && self.mstatus & mstatus::TVM != 0
                {
                    return Err(Exception::IllegalInstruction);
                }
                let mode = value >> 60;
                if mode == 0 || mode == 8 {
                    self.satp = value & 0x8fff_ffff_ffff_ffff;
                }
                // Other modes: WARL, write ignored.
            }
            MSTATUS => {
                self.mstatus =
                    (self.mstatus & !mstatus::WRITE_MASK) | (value & mstatus::WRITE_MASK);
                // MPP is WARL: only 0/1/3 are legal; map 2 to 0.
                if (self.mstatus >> 11) & 3 == 2 {
                    self.mstatus &= !mstatus::MPP;
                }
            }
            MISA => {} // WARL, fixed
            MEDELEG => self.medeleg = value & 0xb3ff, // delegable exceptions
            MIDELEG => self.mideleg = value & 0x222,  // delegable (S) interrupts
            MIE => self.mie = value & 0xaaa,
            MTVEC => self.mtvec = value & !0b10,
            MCOUNTEREN => self.mcounteren = value & 0b111,
            MSCRATCH => self.mscratch = value,
            MEPC => self.mepc = value & !1,
            MCAUSE => self.mcause = value,
            MTVAL => self.mtval = value,
            MIP => {
                let mask = 0x222; // S-level bits writable from M-mode
                self.mip = (self.mip & !mask) | (value & mask);
            }
            MCYCLE => self.mcycle = value,
            MINSTRET => self.minstret = value,
            c if (PMPCFG0..PMPCFG0 + 16).contains(&c) => {}
            c if (PMPADDR0..PMPADDR0 + 64).contains(&c) => {}
            c if (0xb03..=0xb1f).contains(&c) => {}
            c if (0x323..=0x33f).contains(&c) => {}
            _ => return Err(Exception::IllegalInstruction),
        }
        Ok(())
    }

    fn counter_read(&self, which: u16) -> Result<u64, Exception> {
        // User-level counters are gated by mcounteren/scounteren.
        let bit = 1u64 << which;
        if self.privilege < Privilege::Machine && self.mcounteren & bit == 0 {
            return Err(Exception::IllegalInstruction);
        }
        if self.privilege == Privilege::User && self.scounteren & bit == 0 {
            return Err(Exception::IllegalInstruction);
        }
        Ok(match which {
            0 => self.mcycle,
            1 => self.time,
            _ => self.minstret,
        })
    }

    fn check_privilege(&self, csr: u16) -> Result<(), Exception> {
        let required = (csr >> 8) & 0b11;
        if (self.privilege as u16) < required {
            return Err(Exception::IllegalInstruction);
        }
        // FP CSRs require an enabled FPU.
        if matches!(csr, addr::FFLAGS | addr::FRM | addr::FCSR)
            && self.mstatus & mstatus::FS == 0
        {
            return Err(Exception::IllegalInstruction);
        }
        Ok(())
    }

    /// Take a trap at `pc`, returning the handler address.
    ///
    /// Delegation to S-mode follows medeleg/mideleg when the trap arises
    /// at S or U privilege.
    pub fn take_trap(&mut self, trap: Trap, pc: u64) -> u64 {
        let (code, is_interrupt) = match trap {
            Trap::Exception(e, _) => (e.code(), false),
            Trap::Interrupt(i) => (i.code(), true),
        };
        let deleg = if is_interrupt { self.mideleg } else { self.medeleg };
        let to_s = self.privilege <= Privilege::Supervisor && (deleg >> code) & 1 == 1;

        if to_s {
            self.scause = trap.cause();
            self.sepc = pc;
            self.stval = trap.tval();
            let sie = (self.mstatus & mstatus::SIE) != 0;
            self.mstatus &= !(mstatus::SPIE | mstatus::SPP | mstatus::SIE);
            if sie {
                self.mstatus |= mstatus::SPIE;
            }
            if self.privilege == Privilege::Supervisor {
                self.mstatus |= mstatus::SPP;
            }
            self.privilege = Privilege::Supervisor;
            vector_target(self.stvec, is_interrupt, code)
        } else {
            self.mcause = trap.cause();
            self.mepc = pc;
            self.mtval = trap.tval();
            let mie = (self.mstatus & mstatus::MIE) != 0;
            self.mstatus &= !(mstatus::MPIE | mstatus::MPP | mstatus::MIE);
            if mie {
                self.mstatus |= mstatus::MPIE;
            }
            self.mstatus |= (self.privilege as u64) << 11;
            self.privilege = Privilege::Machine;
            vector_target(self.mtvec, is_interrupt, code)
        }
    }

    /// Execute MRET, returning the PC to resume at.
    ///
    /// # Errors
    ///
    /// Illegal below machine mode.
    pub fn mret(&mut self) -> Result<u64, Exception> {
        if self.privilege != Privilege::Machine {
            return Err(Exception::IllegalInstruction);
        }
        let mpp = Privilege::from_bits(self.mstatus >> 11).unwrap_or(Privilege::User);
        let mpie = self.mstatus & mstatus::MPIE != 0;
        self.mstatus &= !(mstatus::MIE | mstatus::MPIE | mstatus::MPP);
        if mpie {
            self.mstatus |= mstatus::MIE;
        }
        self.mstatus |= mstatus::MPIE;
        if mpp != Privilege::Machine {
            self.mstatus &= !mstatus::MPRV;
        }
        self.privilege = mpp;
        Ok(self.mepc)
    }

    /// Execute SRET, returning the PC to resume at.
    ///
    /// # Errors
    ///
    /// Illegal below supervisor mode, or when `mstatus.TSR` is set in
    /// S-mode.
    pub fn sret(&mut self) -> Result<u64, Exception> {
        if self.privilege < Privilege::Supervisor {
            return Err(Exception::IllegalInstruction);
        }
        if self.privilege == Privilege::Supervisor && self.mstatus & mstatus::TSR != 0 {
            return Err(Exception::IllegalInstruction);
        }
        let spp = if self.mstatus & mstatus::SPP != 0 {
            Privilege::Supervisor
        } else {
            Privilege::User
        };
        let spie = self.mstatus & mstatus::SPIE != 0;
        self.mstatus &= !(mstatus::SIE | mstatus::SPIE | mstatus::SPP);
        if spie {
            self.mstatus |= mstatus::SIE;
        }
        self.mstatus |= mstatus::SPIE;
        self.mstatus &= !mstatus::MPRV;
        self.privilege = spp;
        Ok(self.sepc)
    }

    /// The highest-priority pending-and-enabled interrupt, if any should
    /// be taken at the current privilege.
    pub fn pending_interrupt(&self) -> Option<Interrupt> {
        let pending = self.mip & self.mie;
        if pending == 0 {
            return None;
        }
        let m_enabled = self.privilege < Privilege::Machine
            || (self.mstatus & mstatus::MIE != 0);
        let m_pending = pending & !self.mideleg;
        if m_enabled && m_pending != 0 {
            return pick_interrupt(m_pending);
        }
        let s_enabled = self.privilege < Privilege::Supervisor
            || (self.privilege == Privilege::Supervisor && self.mstatus & mstatus::SIE != 0);
        let s_pending = pending & self.mideleg;
        if s_enabled && s_pending != 0 {
            return pick_interrupt(s_pending);
        }
        None
    }

    /// Accumulate floating-point exception flags into fcsr and mark FS dirty.
    #[inline]
    pub fn set_fflags(&mut self, flags: u64) {
        if flags != 0 {
            self.fcsr |= flags & 0x1f;
            self.mstatus |= mstatus::FS;
        }
    }

    /// The current dynamic rounding mode (frm field).
    #[inline]
    pub fn frm(&self) -> u8 {
        ((self.fcsr >> 5) & 0x7) as u8
    }
}

fn vector_target(tvec: u64, is_interrupt: bool, code: u64) -> u64 {
    let base = tvec & !0b11;
    if tvec & 1 == 1 && is_interrupt {
        base + 4 * code
    } else {
        base
    }
}

fn pick_interrupt(pending: u64) -> Option<Interrupt> {
    // Priority: MEI, MSI, MTI, SEI, SSI, STI.
    [
        Interrupt::MachineExternal,
        Interrupt::MachineSoftware,
        Interrupt::MachineTimer,
        Interrupt::SupervisorExternal,
        Interrupt::SupervisorSoftware,
        Interrupt::SupervisorTimer,
    ]
    .into_iter()
    .find(|&i| pending & (1 << i.code()) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_state() {
        let c = CsrFile::new(3);
        assert_eq!(c.privilege, Privilege::Machine);
        assert_eq!(c.read(addr::MHARTID).unwrap(), 3);
        assert_ne!(c.read(addr::MISA).unwrap() & (1 << 8), 0); // I bit
    }

    #[test]
    fn mstatus_warl_and_sd() {
        let mut c = CsrFile::new(0);
        c.write(addr::MSTATUS, u64::MAX).unwrap();
        let v = c.read(addr::MSTATUS).unwrap();
        assert_ne!(v & mstatus::SD, 0, "SD must mirror dirty FS");
        assert_eq!(v & mstatus::MPP, mstatus::MPP, "MPP=3 is legal");
        // Write MPP=2 (illegal) -> mapped to 0.
        c.write(addr::MSTATUS, 2 << 11).unwrap();
        assert_eq!(c.read(addr::MSTATUS).unwrap() & mstatus::MPP, 0);
    }

    #[test]
    fn sstatus_is_masked_view() {
        let mut c = CsrFile::new(0);
        c.write(addr::MSTATUS, mstatus::SIE | mstatus::MIE | mstatus::SUM)
            .unwrap();
        let s = c.read(addr::SSTATUS).unwrap();
        assert_ne!(s & mstatus::SIE, 0);
        assert_eq!(s & mstatus::MIE, 0, "MIE invisible through sstatus");
        assert_ne!(s & mstatus::SUM, 0);
        // Writing sstatus must not touch MIE.
        c.write(addr::SSTATUS, 0).unwrap();
        assert_ne!(c.read(addr::MSTATUS).unwrap() & mstatus::MIE, 0);
    }

    #[test]
    fn privilege_checks() {
        let mut c = CsrFile::new(0);
        c.privilege = Privilege::User;
        assert_eq!(c.read(addr::MSTATUS), Err(Exception::IllegalInstruction));
        assert_eq!(c.read(addr::SSTATUS), Err(Exception::IllegalInstruction));
        assert_eq!(
            c.write(addr::MSCRATCH, 1),
            Err(Exception::IllegalInstruction)
        );
        // Read-only region rejects writes even from M-mode.
        c.privilege = Privilege::Machine;
        assert_eq!(
            c.write(addr::MHARTID, 1),
            Err(Exception::IllegalInstruction)
        );
    }

    #[test]
    fn counter_gating() {
        let mut c = CsrFile::new(0);
        c.mcycle = 1234;
        assert_eq!(c.read(addr::CYCLE).unwrap(), 1234);
        c.privilege = Privilege::User;
        assert_eq!(c.read(addr::CYCLE), Err(Exception::IllegalInstruction));
        c.privilege = Privilege::Machine;
        c.write(addr::MCOUNTEREN, 1).unwrap();
        c.write(addr::SCOUNTEREN, 1).unwrap();
        c.privilege = Privilege::User;
        assert_eq!(c.read(addr::CYCLE).unwrap(), 1234);
    }

    #[test]
    fn trap_to_machine_and_mret() {
        let mut c = CsrFile::new(0);
        c.write(addr::MTVEC, 0x8000_1000).unwrap();
        c.write(addr::MSTATUS, mstatus::MIE).unwrap();
        c.privilege = Privilege::User;
        let target = c.take_trap(Trap::Exception(Exception::EcallFromU, 0), 0x100);
        assert_eq!(target, 0x8000_1000);
        assert_eq!(c.privilege, Privilege::Machine);
        assert_eq!(c.mepc, 0x100);
        assert_eq!(c.mcause, 8);
        assert_eq!(c.mstatus & mstatus::MPP, 0); // from U
        assert_eq!(c.mstatus & mstatus::MIE, 0);
        let back = c.mret().unwrap();
        assert_eq!(back, 0x100);
        assert_eq!(c.privilege, Privilege::User);
    }

    #[test]
    fn trap_delegation_to_supervisor() {
        let mut c = CsrFile::new(0);
        c.write(addr::MEDELEG, 1 << Exception::EcallFromU.code())
            .unwrap();
        c.write(addr::STVEC, 0x8000_2000).unwrap();
        c.privilege = Privilege::User;
        let target = c.take_trap(Trap::Exception(Exception::EcallFromU, 0), 0x200);
        assert_eq!(target, 0x8000_2000);
        assert_eq!(c.privilege, Privilege::Supervisor);
        assert_eq!(c.scause, 8);
        assert_eq!(c.sepc, 0x200);
        // Machine-mode traps are never delegated.
        c.privilege = Privilege::Machine;
        c.take_trap(Trap::Exception(Exception::EcallFromM, 0), 0x300);
        assert_eq!(c.mepc, 0x300);
    }

    #[test]
    fn vectored_interrupts() {
        let mut c = CsrFile::new(0);
        c.write(addr::MTVEC, 0x8000_0001).unwrap();
        let t = c.take_trap(Trap::Interrupt(Interrupt::MachineTimer), 0x0);
        assert_eq!(t, 0x8000_0000 + 4 * 7);
        assert_ne!(c.mcause >> 63, 0);
    }

    #[test]
    fn pending_interrupt_priority_and_gating() {
        let mut c = CsrFile::new(0);
        c.write(addr::MIE, 0xaaa).unwrap();
        c.mip = (1 << 7) | (1 << 3);
        // MIE clear in M-mode: no interrupt.
        assert_eq!(c.pending_interrupt(), None);
        c.write(addr::MSTATUS, mstatus::MIE).unwrap();
        assert_eq!(c.pending_interrupt(), Some(Interrupt::MachineSoftware));
        // Lower privilege always takes M-level interrupts.
        c.write(addr::MSTATUS, 0).unwrap();
        c.privilege = Privilege::User;
        assert_eq!(c.pending_interrupt(), Some(Interrupt::MachineSoftware));
    }

    #[test]
    fn satp_mode_warl() {
        let mut c = CsrFile::new(0);
        c.write(addr::SATP, 8 << 60 | 0x1234).unwrap();
        assert_eq!(c.read(addr::SATP).unwrap() >> 60, 8);
        // Sv48 (mode 9) unsupported: write ignored entirely.
        c.write(addr::SATP, 9 << 60).unwrap();
        assert_eq!(c.read(addr::SATP).unwrap() >> 60, 8);
    }

    #[test]
    fn fcsr_views() {
        let mut c = CsrFile::new(0);
        c.write(addr::FCSR, 0b101_11011).unwrap();
        assert_eq!(c.read(addr::FFLAGS).unwrap(), 0b11011);
        assert_eq!(c.read(addr::FRM).unwrap(), 0b101);
        c.write(addr::FRM, 0b001).unwrap();
        assert_eq!(c.read(addr::FCSR).unwrap(), 0b001_11011);
        c.set_fflags(0b00100);
        assert_eq!(c.read(addr::FFLAGS).unwrap(), 0b11111);
    }

    #[test]
    fn sret_tsr_trap() {
        let mut c = CsrFile::new(0);
        c.write(addr::MSTATUS, mstatus::TSR).unwrap();
        c.privilege = Privilege::Supervisor;
        assert_eq!(c.sret(), Err(Exception::IllegalInstruction));
    }
}
