//! SPEC-CPU2006-like synthetic kernels and a torture-style random
//! program generator.
//!
//! SPEC itself is proprietary (the paper's artifact likewise omits the
//! binaries), so this suite provides one self-contained kernel per
//! program *class* exercised by the paper's evaluation — branchy game
//! trees, pointer chasing, compression-style byte processing, dense
//! floating point, streaming, and so on (DESIGN.md §5.2). Every kernel
//! ends with a checksum in `a0` and an `ebreak`, so any two engines
//! (NEMU, the baselines, the xscore DUT) can be compared exactly.
//!
//! # Example
//!
//! ```
//! use nemu::Interpreter;
//! use workloads::{all_workloads, Scale};
//!
//! let suite = all_workloads(Scale::Test);
//! assert!(suite.len() >= 12);
//! let mut nemu = nemu::NemuTrace::new(&suite[0].program);
//! assert!(nemu.run(50_000_000).exit_code.is_some());
//! ```

pub mod kernels;
pub mod litmus;
pub mod torture;

pub use kernels::{all_workloads, workload, Scale, Workload, WorkloadClass, NAMES};
pub use litmus::{
    allowed_mask, random_litmus, LitmusConfig, LitmusExit, LitmusProgram, LitmusRound,
    LitmusShape, SerKind,
};
pub use torture::{
    random_program, BodyInstr, BranchKind, CompressedKind, MemAccess, TortureConfig,
    TortureProgram,
};
