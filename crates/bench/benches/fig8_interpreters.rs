//! Figure 8: performance of Spike, QEMU-TCI, Dromajo and NEMU.
//!
//! Reproduces the paper's interpreter comparison over the SPEC-like
//! kernel suite, driven by [`nemu::registry`] so every personality is
//! enrolled automatically. Absolute MIPS differ from the paper's
//! i9-9900K numbers; the *shape* to check is: NEMU (`nemu-trace`)
//! fastest, Spike-like next (decode cache), Dromajo-like and
//! QEMU-TCI-like trailing, and NEMU's advantage larger on SPECfp (host
//! FP vs SoftFloat).
//!
//! Run with `cargo bench --bench fig8_interpreters` (or via
//! `scripts/bench.sh`, which also writes `BENCH_fig8.json`).
//!
//! Environment knobs:
//! - `MINJIE_SCALE=ref` — larger workload inputs,
//! - `MINJIE_BENCH_FUEL=N` — per-workload step budget (default 2e8),
//! - `MINJIE_BENCH_CYCLES=N` — per-workload cycle-model budget
//!   (default 2e6),
//! - `MINJIE_BENCH_OUT=path` — also emit the `BENCH_fig8.json` report
//!   (sim-MIPS per personality, sim-kilocycles/sec + suite CPI per
//!   cycle-model preset, and a timed 12-job DiffTest smoke campaign)
//!   to `path`.

use minjie_bench::fig8;
use minjie_bench::geomean;
use nemu::registry::PERSONALITIES;
use nemu::Interpreter;
use std::time::Instant;
use workloads::{all_workloads, Scale, WorkloadClass};

fn mips(mut interp: Box<dyn Interpreter>, fuel: u64) -> (f64, u64) {
    let t0 = Instant::now();
    let r = interp.run(fuel);
    let el = t0.elapsed().as_secs_f64();
    (r.instructions as f64 / el / 1e6, r.instructions)
}

fn main() {
    let scale = match std::env::var("MINJIE_SCALE").as_deref() {
        Ok("ref") => Scale::Ref,
        _ => Scale::Test,
    };
    let fuel = std::env::var("MINJIE_BENCH_FUEL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(200_000_000u64);
    let t_total = Instant::now();
    println!("Figure 8: interpreter performance (MIPS), {scale:?} inputs");
    print!("{:<12} {:>6}", "benchmark", "class");
    for p in PERSONALITIES {
        print!(" {:>14}", p.name);
    }
    println!(" {:>10}", "insts");
    let mut per_class: std::collections::HashMap<(WorkloadClass, &str), Vec<f64>> =
        std::collections::HashMap::new();
    for w in all_workloads(scale) {
        print!("{:<12} {:>6}", w.name, format!("{:?}", w.class));
        let mut insts = 0;
        for p in PERSONALITIES {
            let (m, i) = mips((p.build)(&w.program), fuel);
            insts = i;
            print!(" {m:>14.1}");
            per_class.entry((w.class, p.name)).or_default().push(m);
        }
        println!(" {insts:>10}");
    }
    println!();
    for class in [WorkloadClass::Int, WorkloadClass::Fp] {
        let g = |n: &str| geomean(&per_class[&(class, n)]);
        print!("geomean {class:?}:");
        for p in PERSONALITIES {
            print!("  {} {:.1}", p.name, g(p.name));
        }
        println!();
    }
    println!();
    println!("paper reference shape: NEMU 733 MIPS vs Spike 142 MIPS (5.16x int),");
    println!("817 vs 106 (7.71x fp) -- expect nemu-trace fastest here,");
    println!("with a larger fp ratio over the SoftFloat engines.");

    if let Ok(out) = std::env::var("MINJIE_BENCH_OUT") {
        // Suite-level measurement for the tracked report (separate pass:
        // the table above interleaves personalities per workload, the
        // report wants one contiguous timed pass per personality).
        let personalities = fig8::measure_personalities(scale, fuel);
        let campaign = fig8::measure_campaign(12, 2_000_000);
        let sim_cycles = std::env::var("MINJIE_BENCH_CYCLES")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(2_000_000u64);
        let cycle_model = fig8::measure_cycle_model(scale, sim_cycles);
        let report = fig8::build_report(
            &format!("spec-like-suite@{scale:?}"),
            fuel,
            &personalities,
            &campaign,
            &cycle_model,
            t_total.elapsed().as_secs_f64() * 1e3,
        );
        fig8::validate(&report).expect("emitted report is schema-clean");
        let json = serde_json::to_string_pretty(&report).expect("report serializes");
        std::fs::write(&out, json + "\n").expect("write BENCH_fig8.json");
        println!("wrote {out}");
    }
}
