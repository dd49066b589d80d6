//! §III-D3: checkpoint generation speed with NEMU.
//!
//! The paper reports plain NEMU at ~1200 MIPS on bzip2-test and
//! checkpoint-generation (profiling) at >300 MIPS. Those numbers are
//! host-specific; the shape to check is that profiling costs a bounded
//! multiple of plain interpretation and that generated checkpoints
//! restore exactly.

use checkpoint::generate_checkpoints;
use nemu::{Interpreter, NemuTrace};
use std::time::Instant;
use workloads::{workload, Scale};

fn main() {
    let w = workload("bzip2", Scale::Ref);
    // Plain NEMU speed.
    let mut n = NemuTrace::new(&w.program);
    let t0 = Instant::now();
    let r = n.run(500_000_000);
    let el = t0.elapsed();
    let plain = r.instructions as f64 / el.as_secs_f64() / 1e6;
    println!("plain NEMU:            {plain:>8.1} MIPS ({} instructions)", r.instructions);

    // Checkpoint-generation (profiling) speed.
    let t0 = Instant::now();
    let set = generate_checkpoints(&w.program, 200_000, 8, 1_000_000_000);
    let el = t0.elapsed();
    let prof = set.total_instructions as f64 / el.as_secs_f64() / 1e6;
    println!(
        "checkpoint generation: {prof:>8.1} MIPS ({} checkpoints from {} intervals)",
        set.checkpoints.len(),
        set.total_instructions / set.interval_len
    );
    println!("profiling slowdown vs plain NEMU: {:.1}x", plain / prof);

    // Restore correctness: each checkpoint resumes to the same exit code.
    let mut full = NemuTrace::new(&w.program);
    let expected = full.run(1_000_000_000).exit_code.expect("halts");
    for c in &set.checkpoints {
        let mut h = c.state.clone();
        let mut mem = c.memory.clone();
        let mut hart = nemu::Hart::new(h.pc, 0);
        hart.state = std::mem::replace(&mut h, riscv_isa::ArchState::new(0, 0));
        while !hart.is_halted() {
            nemu::hart::step(&mut hart, &mut mem);
        }
        assert_eq!(hart.halted, Some(expected));
    }
    println!("all {} checkpoints restore and reach exit code {expected:#x}", set.checkpoints.len());
    println!();
    println!("paper reference: plain NEMU ~1272 MIPS; generation >300 MIPS (x86 host,");
    println!("threaded-code C). This Rust reproduction is slower in absolute terms; the");
    println!("claim preserved is the bounded profiling overhead and exact restore.");
}
