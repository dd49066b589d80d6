//! NEMU — the fast RISC-V instruction-set interpreter of the MINJIE
//! platform (paper §III-D) — together with the three baseline interpreters
//! it is evaluated against in Fig. 8.
//!
//! | Interpreter | Paper counterpart | Structure |
//! |---|---|---|
//! | [`NemuTrace`] | NEMU | superblock traces, chained exits, micro-TLBs, host FP |
//! | [`SpikeLike`] | Spike | direct-mapped decode cache, SoftFloat arithmetic |
//! | [`DromajoLike`] | Dromajo | plain decode-and-execute, no cache |
//! | [`QemuTciLike`] | QEMU-TCI | per-instruction bytecode dispatch layer |
//!
//! The [`registry`] module is the canonical enumeration of these
//! personalities; test tiers derive their sets from it.
//!
//! All four share the architectural semantics in [`hart`], so they agree
//! instruction-for-instruction. DiffTest's REF (`minjie::NemuRef`)
//! steps that [`hart`] directly — the paper's "easy-to-develop REF for
//! DiffTest".
//!
//! # Example
//!
//! ```
//! use nemu::{Interpreter, NemuTrace};
//! use riscv_isa::asm::{reg::*, Asm};
//!
//! let mut a = Asm::new(0x8000_0000);
//! a.li(A0, 41);
//! a.addi(A0, A0, 1);
//! a.ebreak();
//! let program = a.assemble();
//!
//! let mut nemu = NemuTrace::new(&program);
//! let result = nemu.run(1_000);
//! assert_eq!(result.exit_code, Some(42));
//! ```

pub mod hart;
pub mod interp;
pub mod registry;
pub mod trace;

pub use hart::{Hart, MemAccess, StepInfo};
pub use interp::{boot, DromajoLike, Interpreter, QemuTciLike, RunResult, SpikeLike};
pub use trace::{NemuTrace, TraceStats};
