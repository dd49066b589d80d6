//! Golden pins for the tracked `BENCH_fig8.json` interpreter report.
//!
//! Two tiers:
//!
//! 1. **Deterministic** — tiny-fuel measurements through the real
//!    `minjie_bench::fig8` machinery: the emitted report must be
//!    schema-clean, its body (everything but `timing`) must be
//!    byte-identical across two same-seed runs, and wall-clock-derived
//!    fields must not appear in the body at all.
//! 2. **File-based** — when the committed `BENCH_fig8.json` is present
//!    at the repo root, parse it, validate the schema, and pin the
//!    Fig. 8 speed gap: NEMU (`nemu-trace`) at least twice as fast as
//!    the plain decode-and-execute interpreter. (Skipped with a note
//!    when the file has not been generated; `scripts/bench.sh` writes
//!    it.)

use minjie_bench::fig8;
use workloads::Scale;

/// Small fuel keeps the deterministic tier fast; the committed report
/// uses the default 2e8 budget via scripts/bench.sh.
const SMOKE_FUEL: u64 = 300_000;

/// Per-workload cycle-model cap for the smoke tier (the committed
/// report uses the default 2e6 via scripts/bench.sh).
const SMOKE_CYCLES: u64 = 50_000;

fn smoke_report() -> serde::Value {
    let ps = fig8::measure_personalities(Scale::Test, SMOKE_FUEL);
    let campaign = fig8::measure_campaign(4, 1_000_000);
    let cm = fig8::measure_cycle_model(Scale::Test, SMOKE_CYCLES);
    fig8::build_report("spec-like-suite@Test", SMOKE_FUEL, &ps, &campaign, &cm, 1.0)
}

#[test]
fn emitted_report_is_schema_clean() {
    let report = smoke_report();
    fig8::validate(&report).expect("fig8 report failed its own schema");
    // The rates exist, but only under timing.
    for p in nemu::registry::names() {
        let m = fig8::mips_of(&report, p).expect("every personality has a rate");
        assert!(m.is_finite() && m > 0.0, "{p}: bad rate {m}");
    }
    for preset in fig8::CYCLE_PRESETS {
        let k = fig8::kilocycles_per_sec_of(&report, preset)
            .expect("every cycle-model preset has a rate");
        assert!(k.is_finite() && k > 0.0, "{preset}: bad rate {k}");
        let cpi = fig8::cpi_milli_of(&report, preset).expect("suite CPI");
        assert!(cpi > 0, "{preset}: zero CPI");
    }
}

#[test]
fn report_body_is_deterministic_and_wall_clock_free() {
    let a = smoke_report();
    let b = smoke_report();
    let body_a = fig8::body_json(&a);
    assert_eq!(
        body_a,
        fig8::body_json(&b),
        "report body differs between identical runs"
    );
    for leak in ["mips", "_ms", "per_sec", "elapsed"] {
        assert!(
            !body_a.contains(leak),
            "wall-clock field {leak:?} leaked into the deterministic body"
        );
    }
    // Every personality retired the identical instruction total — the
    // suites are the same programs, so any difference is an engine bug.
    let ps = a.get_or_null("personalities");
    let counts: Vec<u64> = nemu::registry::names()
        .iter()
        .map(|n| {
            ps.get_or_null(n)
                .get_or_null("instructions")
                .as_u64()
                .expect("instructions")
        })
        .collect();
    assert!(
        counts.windows(2).all(|w| w[0] == w[1]),
        "personalities disagree on retired instructions: {counts:?}"
    );
}

#[test]
fn committed_report_pins_speed_ordering() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCH_fig8.json");
    let Ok(text) = std::fs::read_to_string(path) else {
        eprintln!("note: {path} not generated (run scripts/bench.sh); skipping file pin");
        return;
    };
    let report: serde::Value = serde_json::from_str(&text).expect("BENCH_fig8.json parses");
    fig8::validate(&report).expect("committed BENCH_fig8.json failed schema");
    let trace = fig8::mips_of(&report, "nemu-trace").expect("nemu-trace rate");
    let interp = fig8::mips_of(&report, "dromajo-like").expect("dromajo-like rate");
    // The paper's headline gap (Fig. 8): the memoizing tier is a
    // multiple of the plain interpreter, not a percent-level win.
    assert!(
        trace >= 2.0 * interp,
        "trace tier no longer clears 2x plain interp: {trace:.1} vs {interp:.1} MIPS"
    );
    // Cycle-model pins: both tracked presets report a sane suite CPI
    // (an OoO multi-issue core on these kernels sits well inside
    // 0.2..50 CPI) and a positive simulation rate. The exact CPI is a
    // deterministic body field, so any change shows up in the diff of
    // the committed file rather than here.
    for preset in fig8::CYCLE_PRESETS {
        let cpi = fig8::cpi_milli_of(&report, preset)
            .unwrap_or_else(|| panic!("{preset}: missing cycle-model entry"));
        assert!(
            (200..50_000).contains(&cpi),
            "{preset}: suite CPI {cpi} milli-units is implausible"
        );
        let k = fig8::kilocycles_per_sec_of(&report, preset).expect("rate");
        assert!(k > 0.0, "{preset}: bad sim rate {k}");
        // The checkpoint-farm accuracy tier: the SimPoint-weighted CPI
        // estimate must be plausible and inside the per-mille error
        // gate against the full simulation (validate() enforces the
        // gate; the plausibility band catches a broken estimate that
        // happens to sit near a broken baseline).
        let sampled = fig8::sampled_cpi_milli_of(&report, preset)
            .unwrap_or_else(|| panic!("{preset}: missing sampled_cpi_milli"));
        assert!(
            (200..50_000).contains(&sampled),
            "{preset}: sampled CPI {sampled} milli-units is implausible"
        );
        let err = fig8::sampled_cpi_err_milli_of(&report, preset).expect("sampled error");
        assert!(
            err <= fig8::SAMPLED_ERR_BOUND_MILLI,
            "{preset}: sampled CPI error {err} per mille exceeds the gate"
        );
    }
}
