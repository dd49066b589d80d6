//! Quickstart: assemble a program, run it on NEMU and on the XiangShan
//! cycle model, then verify the cycle model against NEMU with DiffTest.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use minjie::{CoSim, CoSimEnd};
use nemu::Interpreter;
use riscv_isa::asm::{reg::*, Asm};
use xscore::{XsConfig, XsSystem};

fn main() {
    // 1. Build a program with the in-repo assembler: sum of 1..=100_000.
    let mut a = Asm::new(0x8000_0000);
    a.li(T0, 1);
    a.li(T1, 100_000);
    a.li(A0, 0);
    let top = a.bound_label();
    a.add(A0, A0, T0);
    a.addi(T0, T0, 1);
    a.bne(T0, T1, top);
    a.add(A0, A0, T0); // include the last term
    a.ebreak();
    let program = a.assemble();
    let expected: u64 = (1..=100_000).sum();

    // 2. Run it on NEMU, the fast interpreter.
    let mut nemu = nemu::NemuTrace::new(&program);
    let r = nemu.run(10_000_000);
    println!(
        "NEMU: exit = {:?} after {} instructions (trace fills: {})",
        r.exit_code,
        r.instructions,
        nemu.stats.trace_fills
    );
    assert_eq!(r.exit_code, Some(expected));

    // 3. Run it on the XiangShan NH cycle model.
    let mut sys = XsSystem::new(XsConfig::nh(), &program);
    let code = sys.run(10_000_000);
    let perf = &sys.cores[0].perf;
    println!(
        "XiangShan NH: exit = {code:?}, {} cycles, IPC {:.2}, branch MPKI {:.2}",
        perf.cycles,
        perf.ipc(),
        perf.mpki()
    );
    assert_eq!(code, Some(expected));

    // 4. Co-simulate: every committed instruction checked against NEMU.
    let mut cosim = CoSim::new(XsConfig::nh(), &program);
    match cosim.run(10_000_000) {
        CoSimEnd::Halted(c) => println!(
            "DiffTest: clean, {} commits verified, exit = {c}",
            cosim.state.diff.commits_checked
        ),
        other => panic!("DiffTest reported: {other:?}"),
    }
}
