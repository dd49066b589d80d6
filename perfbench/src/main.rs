//! Campaign benchmark of the MINJIE verification flows.
//!
//! ```text
//! perfbench --workload regress|sample|hunt|profile --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. Each workload drives the public entry
//! points users call (`Campaign::run`, `run_sampled`, `verify_bundle`,
//! `generate_checkpoints_with_ref`) on two worker threads, repeats set-up
//! and the timed section until `--seconds` have passed, checks every
//! outcome, and prints every metric by name and unit. The last stdout
//! line is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics of a separate traced run with `--trace 1`. Spans of the
//! traced run are written to `perfbench/out/`.

mod mirror;
mod trace;
mod work;

use minjie::RefModel;
use minjie_perfbench::stats::{median, tail_percentile};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use work::{Checked, Outcome, Workload};

/// Set-up is cheap next to the timed section, and its median needs many
/// samples: before each repetition it runs until it has run at least this
/// long, and once more than that, untimed, before the first.
const SETUP_BURST: Duration = Duration::from_millis(100);
/// Fewest repetitions a run reports a median over.
const MIN_REPS: usize = 3;
/// Instructions each program is stepped for by the interpreter probes.
const PROBE_INSTS: u64 = 2_000_000;
/// Where run outputs (traces, the farm's checkpoint cache) go.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload regress|sample|hunt|profile --seed N --seconds S --trace 0|1"
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value)
                        .unwrap_or_else(|| usage(&format!("unknown workload `{value}`"))),
                )
            }
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("bad --seed"))),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .unwrap_or_else(|| usage("--seconds must be 1..=3600")),
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace must be 0 or 1"),
                })
            }
            _ => usage(&format!("unknown flag `{flag}`")),
        }
    }
    Args {
        workload: workload.unwrap_or_else(|| usage("--workload is required")),
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
    }
}

/// Peak resident memory of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Metrics in print order: name → (value, unit).
type Metrics = BTreeMap<String, (f64, &'static str)>;

fn put(m: &mut Metrics, name: &str, value: f64, unit: &'static str) {
    m.insert(name.to_string(), (value, unit));
}

/// Accumulates what every repetition of a run checked.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    digests: Vec<u64>,
    problems: Vec<String>,
}

impl Tally {
    fn add(&mut self, c: &Checked) {
        self.attempted += c.attempted;
        self.failed += c.failed;
        if self.failures.is_empty() {
            self.failures = c.failures.clone();
        }
        self.digests.push(c.digest);
        self.problems.extend(c.problem.clone());
    }

    fn deterministic(&mut self) {
        if self.digests.windows(2).any(|w| w[0] != w[1]) {
            self.problems.push(format!(
                "deterministic bodies differ between repetitions: {:x?}",
                self.digests
            ));
        }
    }
}

fn main() {
    let args = parse_args();
    let out_dir = PathBuf::from(OUT_DIR);
    if !Path::new("perfbench").is_dir() {
        usage("run from the repository root");
    }
    std::fs::create_dir_all(&out_dir).expect("create perfbench/out");
    let ckpt_dir = out_dir.join(format!(
        "ckpt-{}-{}",
        args.workload.name(),
        std::process::id()
    ));

    let (metrics, tally) = if args.trace {
        traced_run(&args, &ckpt_dir, &out_dir)
    } else {
        timed_run(&args, &ckpt_dir)
    };
    if ckpt_dir.exists() {
        std::fs::remove_dir_all(&ckpt_dir).expect("remove the checkpoint directory");
    }
    report(&args, &metrics, tally);
}

/// Print the failures, every metric, and the result line; exit 1 when a
/// check of the benchmark itself failed.
fn report(args: &Args, metrics: &Metrics, mut tally: Tally) {
    tally.deterministic();
    for f in tally.failures.iter().take(20) {
        println!("failed: {f}");
    }
    if tally.failures.len() > 20 {
        println!("failed: ... {} more", tally.failures.len() - 20);
    }
    if let Some(d) = tally.digests.first() {
        println!("digest {} {d:016x}", args.workload.name());
    }
    for (name, (value, unit)) in metrics {
        if !value.is_finite() {
            tally.problems.push(format!("metric {name} is not finite"));
        }
        println!("metric {name} {value} {unit}");
    }
    for p in &tally.problems {
        println!("problem: {p}");
        eprintln!("perfbench: {p}");
    }
    if tally.attempted == 0 {
        tally.problems.push("no operation was attempted".into());
    }
    let correct = tally.problems.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .filter(|(_, (v, _))| v.is_finite())
        .map(|(n, (v, u))| format!("\"{n}\": {{\"value\": {v:?}, \"unit\": \"{u}\"}}"))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.attempted,
        tally.failed,
        body.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

/// The untraced run: repeat set-up and the timed section for `seconds`,
/// report medians of the end-to-end metrics.
fn timed_run(args: &Args, ckpt_dir: &Path) -> (Metrics, Tally) {
    let w = args.workload;
    let mut setup_s = Vec::new();
    let warm = Instant::now();
    while warm.elapsed() < SETUP_BURST {
        std::hint::black_box(work::setup(w, args.seed, ckpt_dir));
    }
    // Reference results are computed outside every timed section.
    let full_cpi = (w == Workload::Sample).then(work::full_cpi_milli);

    let mut tally = Tally::default();
    let mut wall_s = Vec::new();
    let mut job_ms = Vec::new();
    let mut cpi_err = None;
    let mut last: Option<Checked> = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    while wall_s.len() < MIN_REPS || Instant::now() < deadline {
        let burst = Instant::now();
        let inputs = loop {
            let t0 = Instant::now();
            let inputs = work::setup(w, args.seed, ckpt_dir);
            setup_s.push(secs(t0.elapsed()));
            if burst.elapsed() >= SETUP_BURST {
                break inputs;
            }
        };
        let t0 = Instant::now();
        let outcome = work::run(w, &inputs);
        wall_s.push(secs(t0.elapsed()));
        let checked = work::check(w, &outcome);
        tally.add(&checked);
        if let Outcome::Campaign { report, .. } = &outcome {
            job_ms.extend(report.wall_clock.per_job_ms.iter().map(|&ms| ms as f64));
            cpi_err = full_cpi
                .as_ref()
                .map(|full| work::cpi_error_permille(report, full));
        }
        last = Some(checked);
    }
    let checked = last.expect("at least one repetition");
    let wall = median(&wall_s).expect("repetitions ran");
    let mut m = Metrics::new();
    put(
        &mut m,
        "setup_s",
        median(&setup_s).expect("set-ups ran"),
        "s",
    );
    put(&mut m, "wall_s", wall, "s");
    put(&mut m, "peak_rss_mb", peak_rss_mb(), "MiB");
    println!(
        "workload {} seed {}: {} repetitions, {} set-ups, {} operations each",
        w.name(),
        args.seed,
        wall_s.len(),
        setup_s.len(),
        checked.attempted
    );
    println!("repetitions wall_s {wall_s:?}");
    println!(
        "extra failed_ratio {} ratio",
        checked.failed as f64 / checked.attempted.max(1) as f64
    );
    if checked.commits > 0 {
        println!(
            "extra verified_kips {} kinst/s",
            checked.commits as f64 / wall / 1e3
        );
        println!(
            "extra sim_kcps {} kcycle/s",
            checked.cycles as f64 / wall / 1e3
        );
    }
    if checked.profiled > 0 {
        println!(
            "extra profiled_mips {} Minst/s",
            checked.profiled as f64 / wall / 1e6
        );
    }
    if let Some(e) = cpi_err {
        println!("extra sampled_cpi_err_permille {e} permille");
    }
    if let Some(s) = checked.repro_slots_mean {
        println!("extra repro_slots_mean {s} slots");
    }
    if let (Some(med), Some((p, v))) = (median(&job_ms), tail_percentile(&job_ms)) {
        println!(
            "extra job_ms p50 {med} ms, p{p} {v} ms over {} jobs",
            job_ms.len()
        );
    }
    (m, tally)
}

/// Interpreter and DUT-boot probes over the workload's programs.
fn probes(w: Workload, inputs: &work::Inputs, m: &mut Metrics) {
    let programs: Vec<_> = inputs
        .programs
        .iter()
        .filter(|(name, _)| !name.starts_with("litmus:"))
        .collect();
    let (mut insts, mut t) = (0u64, Duration::ZERO);
    for (_, p) in &programs {
        let mut r = minjie::NemuRef::new(p, 0);
        let t0 = Instant::now();
        let mut n = 0;
        while n < PROBE_INSTS && !r.hart.is_halted() {
            r.step();
            n += 1;
        }
        t += t0.elapsed();
        insts += n;
    }
    put(m, "nemu.step_mips", insts as f64 / secs(t) / 1e6, "Minst/s");
    let (mut insts, mut t) = (0u64, Duration::ZERO);
    for (_, p) in &programs {
        let mut interp =
            nemu::registry::boot(work::PROFILE_REF, p).expect("registered personality");
        let t0 = Instant::now();
        insts += interp.run(PROBE_INSTS).instructions;
        t += t0.elapsed();
    }
    put(m, "nemu.run_mips", insts as f64 / secs(t) / 1e6, "Minst/s");
    let presets: &[&str] = match w {
        Workload::Hunt => &["small-nh", "small-yqh"],
        _ => &work::PRESETS,
    };
    let t0 = Instant::now();
    for (_, p) in &programs {
        for preset in presets {
            let cfg = xscore::XsConfig::preset(preset).expect("known preset");
            std::hint::black_box(xscore::XsSystem::new(cfg, p));
        }
    }
    put(m, "xscore.boot_s", secs(t0.elapsed()), "s");
}

/// The traced run: pairs of one untraced and one traced repetition for
/// `seconds`; per-layer metrics are medians over the pairs.
fn traced_run(args: &Args, ckpt_dir: &Path, out_dir: &Path) -> (Metrics, Tally) {
    let w = args.workload;
    let origin = Instant::now();
    let mut tally = Tally::default();
    let mut pairs: Vec<Metrics> = Vec::new();
    let mut last_rec = None;
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut inputs = None;
    while pairs.is_empty() || Instant::now() < deadline {
        let untraced_inputs = work::setup(w, args.seed, ckpt_dir);
        let t0 = Instant::now();
        let untraced = work::run(w, &untraced_inputs);
        let wall_u = secs(t0.elapsed());
        let checked = work::check(w, &untraced);
        tally.add(&checked);

        let t0 = Instant::now();
        let traced_inputs = inputs.insert(work::build_inputs(w, args.seed, ckpt_dir));
        let setup_ns = t0.elapsed().as_nanos() as u64;
        work::boot(w, traced_inputs);
        let t0 = Instant::now();
        let (traced, rec) = mirror::run(w, traced_inputs, origin);
        let wall_t = secs(t0.elapsed());
        let traced_body = work::body(&traced);
        if traced_body != work::body(&untraced) {
            tally
                .problems
                .push("the traced run did not reproduce the untraced deterministic body".into());
        }
        pairs.push(layer_metrics(&rec, &untraced, setup_ns, wall_t, wall_u));
        last_rec = Some(rec);
    }
    let mut m = Metrics::new();
    for name in pairs[0].keys() {
        let values: Vec<f64> = pairs.iter().map(|p| p[name].0).collect();
        put(
            &mut m,
            name,
            median(&values).expect("one pair ran"),
            pairs[0][name].1,
        );
    }
    probes(w, inputs.as_ref().expect("one pair ran"), &mut m);
    let path = out_dir.join(format!("trace-{}-seed{}.jsonl", w.name(), args.seed));
    if let Some(rec) = last_rec {
        rec.write_jsonl(&path).expect("write the trace");
        println!("trace {}", path.display());
    }
    println!(
        "workload {} seed {}: {} traced pairs",
        w.name(),
        args.seed,
        pairs.len()
    );
    (m, tally)
}

/// Per-layer metrics of one traced repetition.
fn layer_metrics(
    rec: &trace::Recorder,
    untraced: &Outcome,
    setup_ns: u64,
    wall_t: f64,
    wall_u: f64,
) -> Metrics {
    let st = rec.self_times();
    let host_ns: u64 = st.values().map(|(ns, _)| ns).sum();
    let self_ns = |name: &str| st.get(name).map_or(0, |(ns, _)| *ns);
    let share = |name: &str| self_ns(name) as f64 / host_ns.max(1) as f64;
    let count = |name: &str| rec.counts.get(name).copied().unwrap_or(0);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut m = Metrics::new();
    put(&mut m, "trace.wall_s", wall_t, "s");
    put(&mut m, "trace.host_s", host_ns as f64 / 1e9, "s");
    put(&mut m, "trace.overhead_ratio", wall_t / wall_u, "ratio");
    put(
        &mut m,
        "workloads.build_s",
        (setup_ns + self_ns("workloads.build")) as f64 / 1e9,
        "s",
    );
    let tick = self_ns("xscore.tick") as f64;
    put(&mut m, "xscore.tick_share", share("xscore.tick"), "ratio");
    put(
        &mut m,
        "xscore.tick_calls",
        count("xscore.tick_calls") as f64,
        "count",
    );
    put(
        &mut m,
        "xscore.cycles_per_tick",
        ratio(
            count("xscore.cycles") as f64,
            count("xscore.tick_calls") as f64,
        ),
        "cycles",
    );
    put(&mut m, "minjie.boot_share", share("minjie.boot"), "ratio");
    put(
        &mut m,
        "minjie.difftest_share",
        share("minjie.difftest"),
        "ratio",
    );
    put(
        &mut m,
        "minjie.difftest_overhead",
        ratio(tick + self_ns("minjie.difftest") as f64, tick),
        "ratio",
    );
    put(
        &mut m,
        "minjie.lightsss_share",
        share("minjie.lightsss"),
        "ratio",
    );
    put(
        &mut m,
        "minjie.lightsss_snapshots",
        count("minjie.lightsss_snapshots") as f64,
        "count",
    );
    put(
        &mut m,
        "minjie.replay_share",
        share("minjie.replay"),
        "ratio",
    );
    put(
        &mut m,
        "minjie.archdb_share",
        share("minjie.archdb"),
        "ratio",
    );
    put(
        &mut m,
        "minjie.archdb_rows",
        count("minjie.archdb_rows") as f64,
        "count",
    );
    put(
        &mut m,
        "checkpoint.profile_share",
        share("checkpoint.profile"),
        "ratio",
    );
    put(
        &mut m,
        "checkpoint.profile_mips",
        ratio(
            count("checkpoint.profiled_insts") as f64,
            self_ns("checkpoint.profile") as f64 / 1e3,
        ),
        "Minst/s",
    );
    put(
        &mut m,
        "checkpoint.simpoint_share",
        share("checkpoint.simpoint"),
        "ratio",
    );
    put(
        &mut m,
        "checkpoint.serde_share",
        share("checkpoint.serde"),
        "ratio",
    );
    put(
        &mut m,
        "checkpoint.bytes",
        count("checkpoint.bytes") as f64,
        "bytes",
    );
    put(
        &mut m,
        "checkpoint.aggregated_ratio",
        ratio(
            count("checkpoint.windows_aggregated") as f64,
            count("checkpoint.windows_simulated") as f64,
        ),
        "ratio",
    );
    let pool_s = count("campaign.pool_ns") as f64 / 1e9;
    put(
        &mut m,
        "campaign.busy_ratio",
        ratio(
            rec.total_ns("campaign.job") as f64 / 1e9,
            work::WORKERS as f64 * pool_s,
        ),
        "ratio",
    );
    put(
        &mut m,
        "campaign.serial_share",
        ratio(wall_t - pool_s, wall_t).max(0.0),
        "ratio",
    );
    put(
        &mut m,
        "campaign.minimize_share",
        share("campaign.minimize"),
        "ratio",
    );
    put(
        &mut m,
        "campaign.minimizer_runs",
        count("campaign.minimizer_runs") as f64,
        "count",
    );
    put(
        &mut m,
        "campaign.triage_share",
        share("campaign.triage"),
        "ratio",
    );
    put(
        &mut m,
        "campaign.verify_bundle_share",
        share("campaign.verify_bundle"),
        "ratio",
    );
    simulated_stats(untraced, &mut m);
    m
}

/// Simulated statistics summed over every job of a campaign outcome.
fn simulated_stats(outcome: &Outcome, m: &mut Metrics) {
    let mut cpi = xscore::CpiStack::default();
    let (mut cycles, mut instret, mut l1i, mut l1d, mut dram) = (0u64, 0u64, 0u64, 0u64, 0u64);
    if let Outcome::Campaign { report, .. } = outcome {
        for j in &report.jobs {
            let s = j.perf.cpi_stack();
            for (dst, src) in [
                (&mut cpi.retired, s.retired),
                (&mut cpi.frontend_starved, s.frontend_starved),
                (&mut cpi.mispredict_recovery, s.mispredict_recovery),
                (&mut cpi.memory_stall, s.memory_stall),
                (&mut cpi.rob_full, s.rob_full),
                (&mut cpi.iq_full, s.iq_full),
                (&mut cpi.serialization, s.serialization),
                (&mut cpi.other, s.other),
            ] {
                *dst += src;
            }
            for c in &j.perf.cores {
                cycles += c.perf.cycles;
                instret += c.perf.instret;
            }
            for c in &j.perf.caches {
                // The L2 and L3 count core-side requests only, so their own
                // miss counters stay 0; DRAM accesses stand for their misses.
                if c.name.starts_with("l1i") {
                    l1i += c.stats.misses;
                } else if c.name.starts_with("l1d") {
                    l1d += c.stats.misses;
                }
            }
            dram += j.perf.dram.accesses;
        }
    }
    let per_kinst = |n: u64| {
        if instret > 0 {
            n as f64 * 1e3 / instret as f64
        } else {
            0.0
        }
    };
    put(
        m,
        "xscore.cpi_milli",
        (cycles * 1000).checked_div(instret).unwrap_or(0) as f64,
        "milli",
    );
    for (name, v) in cpi.components() {
        let metric = format!("xscore.cpi.{name}");
        m.insert(metric, (v as f64, "slots"));
    }
    put(m, "uncore.l1i_mpki", per_kinst(l1i), "miss/kinst");
    put(m, "uncore.l1d_mpki", per_kinst(l1d), "miss/kinst");
    put(m, "uncore.dram_accesses", dram as f64, "count");
}
