//! The four campaign-shaped workloads: their inputs, the timed call into
//! the program's public entry point, and the correctness check.
//!
//! The workload seed drives torture and litmus generation only; kernels
//! are fixed programs, so `sample` and `profile` run the same inputs for
//! every seed.

use campaign::{
    run_sampled, verify_bundle, BundleVerification, Campaign, CampaignReport, JobSpec, SampleSpec,
    Verdict, WorkloadSource,
};
use checkpoint::{generate_checkpoints_with_ref, Checkpoint, CheckpointSet};
use riscv_isa::asm::Program;
use std::path::PathBuf;
use std::sync::Mutex;
use workloads::{Scale, TortureConfig};
use xscore::InjectedBug;

/// Worker threads of every workload (the benchmark targets two-core hosts).
pub const WORKERS: usize = 2;

/// The four single-core presets.
pub const PRESETS: [&str; 4] = ["small-nh", "small-yqh", "nh", "yqh"];
/// The presets `hunt` injects its bug into.
const SMALL_PRESETS: [&str; 2] = ["small-nh", "small-yqh"];

/// Cycle budget of every co-simulation job.
const MAX_CYCLES: u64 = 40_000_000;
/// `regress`: torture seeds per preset, litmus recipes, LightSSS interval.
const REGRESS_TORTURE: u64 = 8;
const REGRESS_LITMUS: u64 = 8;
const REGRESS_LIGHTSSS: u64 = 100_000;
/// `hunt`: torture seeds per preset and the short LightSSS interval.
const HUNT_TORTURE: u64 = 16;
const HUNT_LIGHTSSS: u64 = 2_000;
/// `sample`: the accuracy-validated farm settings of the sampling golden
/// tier (interval 8k, k 6, warm-up 2k, window 24k).
const SAMPLE_INTERVAL: u64 = 8_000;
const SAMPLE_K: usize = 6;
const SAMPLE_WARMUP: u64 = 2_000;
const SAMPLE_WINDOW: u64 = 24_000;
/// `profile`: personality, interval, k and instruction budget.
pub const PROFILE_REF: &str = "nemu-trace";
pub const PROFILE_INTERVAL: u64 = 100_000;
pub const PROFILE_K: usize = 6;
pub const PROFILE_BUDGET: u64 = 1 << 32;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Nightly DiffTest regression with no bug.
    Regress,
    /// Cold-cache SimPoint checkpoint farm.
    Sample,
    /// Bug hunt with full debug tracing, minimization and triage.
    Hunt,
    /// Checkpoint generation at benchmark scale.
    Profile,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "regress" => Some(Workload::Regress),
            "sample" => Some(Workload::Sample),
            "hunt" => Some(Workload::Hunt),
            "profile" => Some(Workload::Profile),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Regress => "regress",
            Workload::Sample => "sample",
            Workload::Hunt => "hunt",
            Workload::Profile => "profile",
        }
    }
}

/// The `i`-th torture or litmus seed of a workload seed.
fn derived_seed(seed: u64, i: u64) -> u64 {
    seed.wrapping_mul(1_000).wrapping_add(i)
}

/// Everything a workload's timed section consumes, built during set-up.
pub struct Inputs {
    /// Campaign jobs (`regress`, `hunt`).
    pub jobs: Vec<JobSpec>,
    /// The farm spec (`sample`).
    pub sample: Option<SampleSpec>,
    /// The distinct programs the workload runs, by name.
    pub programs: Vec<(String, Program)>,
}

/// Set a workload up: build its inputs, then boot every harness the
/// timed section boots and drop it again, so allocator arenas and code
/// pages are warm before timing starts.
pub fn setup(w: Workload, seed: u64, ckpt_dir: &std::path::Path) -> Inputs {
    let inputs = build_inputs(w, seed, ckpt_dir);
    boot(w, &inputs);
    inputs
}

/// Boot (and drop) the harnesses a workload's timed section boots: one
/// co-simulation per job (per kernel × preset for `sample`, whose
/// checkpoints do not exist yet), one profiling interpreter per program
/// for `profile`.
pub fn boot(w: Workload, inputs: &Inputs) {
    let program = |name: &str| {
        &inputs
            .programs
            .iter()
            .find(|(n, _)| n == name)
            .expect("every job's program is built")
            .1
    };
    match w {
        Workload::Regress | Workload::Hunt => {
            for j in &inputs.jobs {
                let cfg = j.build_config().expect("known preset");
                std::hint::black_box(minjie::CoSim::new(cfg, program(&j.workload.describe())));
            }
        }
        Workload::Sample => {
            for (_, p) in &inputs.programs {
                for preset in PRESETS {
                    let cfg = xscore::XsConfig::preset(preset).expect("known preset");
                    std::hint::black_box(minjie::CoSim::new(cfg, p));
                }
            }
        }
        Workload::Profile => {
            for (_, p) in &inputs.programs {
                std::hint::black_box(nemu::registry::boot(PROFILE_REF, p));
            }
        }
    }
}

/// Build a workload's inputs. For `sample` this also empties the farm's
/// checkpoint directory `ckpt_dir`, so every run starts cold.
pub fn build_inputs(w: Workload, seed: u64, ckpt_dir: &std::path::Path) -> Inputs {
    let kernels = |scale| {
        workloads::NAMES
            .iter()
            .map(|k| (format!("kernel:{k}"), workloads::workload(k, scale).program))
            .collect::<Vec<_>>()
    };
    match w {
        Workload::Regress => {
            // Long kernel jobs first, so the short ones fill the tail.
            let mut jobs = Vec::new();
            for config in PRESETS {
                for k in workloads::NAMES {
                    jobs.push(JobSpec::new(WorkloadSource::kernel(k), config));
                }
            }
            for config in PRESETS {
                for i in 0..REGRESS_TORTURE {
                    let s = derived_seed(seed, i);
                    jobs.push(JobSpec::new(
                        WorkloadSource::torture(s, TortureConfig::default()),
                        config,
                    ));
                }
            }
            for i in 0..REGRESS_LITMUS {
                let s = derived_seed(seed, i);
                let recipe = campaign::fresh_litmus_recipe(s, "small-nh");
                let cfg = recipe.litmus.expect("litmus recipes carry a litmus config");
                jobs.push(JobSpec::new(WorkloadSource::litmus(s, cfg), "small-nh").with_cores(2));
            }
            let jobs: Vec<JobSpec> = jobs
                .into_iter()
                .map(|j| {
                    j.with_max_cycles(MAX_CYCLES)
                        .with_lightsss(REGRESS_LIGHTSSS)
                })
                .collect();
            let programs = distinct_programs(&jobs);
            Inputs {
                jobs,
                sample: None,
                programs,
            }
        }
        Workload::Hunt => {
            let mut jobs = Vec::new();
            for config in SMALL_PRESETS {
                for k in workloads::NAMES {
                    jobs.push(JobSpec::new(WorkloadSource::kernel(k), config));
                }
            }
            for config in SMALL_PRESETS {
                for i in 0..HUNT_TORTURE {
                    let s = derived_seed(seed, i);
                    jobs.push(JobSpec::new(
                        WorkloadSource::torture(s, TortureConfig::default()),
                        config,
                    ));
                }
            }
            let jobs: Vec<JobSpec> = jobs
                .into_iter()
                .map(|j| {
                    j.with_max_cycles(MAX_CYCLES)
                        .with_lightsss(HUNT_LIGHTSSS)
                        .with_injected_bug(InjectedBug::MulLowBit)
                        .with_lifecycle()
                })
                .collect();
            let programs = distinct_programs(&jobs);
            Inputs {
                jobs,
                sample: None,
                programs,
            }
        }
        Workload::Sample => {
            if ckpt_dir.exists() {
                std::fs::remove_dir_all(ckpt_dir).expect("empty the checkpoint directory");
            }
            std::fs::create_dir_all(ckpt_dir).expect("create the checkpoint directory");
            let spec = SampleSpec::new(
                workloads::NAMES.iter().map(|s| s.to_string()).collect(),
                PRESETS.iter().map(|s| s.to_string()).collect(),
            )
            .with_interval(SAMPLE_INTERVAL)
            .with_max_checkpoints(SAMPLE_K)
            .with_warmup(SAMPLE_WARMUP)
            .with_window(SAMPLE_WINDOW)
            .with_workers(WORKERS)
            .with_checkpoint_dir(PathBuf::from(ckpt_dir));
            Inputs {
                jobs: Vec::new(),
                sample: Some(spec),
                programs: kernels(Scale::Test),
            }
        }
        Workload::Profile => Inputs {
            jobs: Vec::new(),
            sample: None,
            programs: kernels(Scale::Bench),
        },
    }
}

/// One program per distinct workload source, in first-use order.
fn distinct_programs(jobs: &[JobSpec]) -> Vec<(String, Program)> {
    let mut out: Vec<(String, Program)> = Vec::new();
    for j in jobs {
        let name = j.workload.describe();
        if !out.iter().any(|(n, _)| *n == name) {
            out.push((name, j.workload.build()));
        }
    }
    out
}

/// One profiled kernel of `profile`: the checkpoint set and, per
/// checkpoint, its byte size and the checkpoint read back from the bytes.
pub struct Profiled {
    /// Program name.
    pub name: String,
    /// The generated set.
    pub set: CheckpointSet,
    /// Per checkpoint: serialized size and the round-tripped checkpoint.
    pub round_trips: Vec<(usize, Result<Checkpoint, String>)>,
}

/// What a workload's timed section returns.
#[allow(clippy::large_enum_variant)]
pub enum Outcome {
    /// `regress`, `sample`, `hunt`: the campaign report, plus (for
    /// `hunt`) the verification of every triage bundle by job index.
    Campaign {
        /// The report.
        report: CampaignReport,
        /// `verify_bundle` results, job order.
        verified: Vec<(usize, Result<BundleVerification, String>)>,
    },
    /// `profile`: one entry per kernel, program order.
    Profile(Vec<Profiled>),
}

/// Generate one program's checkpoints and round-trip each through bytes.
pub fn profile_one(name: &str, program: &Program) -> Profiled {
    let set = generate_checkpoints_with_ref(
        PROFILE_REF,
        program,
        PROFILE_INTERVAL,
        PROFILE_K,
        PROFILE_BUDGET,
    );
    let round_trips = set.checkpoints.iter().map(round_trip).collect();
    Profiled {
        name: name.to_string(),
        set,
        round_trips,
    }
}

/// Serialize a checkpoint and read it back.
pub fn round_trip(c: &Checkpoint) -> (usize, Result<Checkpoint, String>) {
    let bytes = c.to_bytes();
    (bytes.len(), Checkpoint::try_from_bytes(&bytes))
}

/// Run `work` over `items` on [`WORKERS`] threads; results in item order.
pub fn pool<T: Sync, R: Send>(items: &[T], work: impl Fn(usize, &T) -> R + Sync) -> Vec<R> {
    let next = Mutex::new(0usize);
    let done = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..WORKERS {
            s.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("pool counter lock");
                    let i = *n;
                    *n += 1;
                    i
                };
                let Some(item) = items.get(i) else { break };
                let r = work(i, item);
                done.lock().expect("pool result lock").push((i, r));
            });
        }
    });
    let mut done = done.into_inner().expect("pool result lock");
    done.sort_by_key(|(i, _)| *i);
    done.into_iter().map(|(_, r)| r).collect()
}

/// The timed section: the workload's call into the program.
pub fn run(w: Workload, inputs: &Inputs) -> Outcome {
    match w {
        Workload::Regress => Outcome::Campaign {
            report: Campaign::new(inputs.jobs.clone())
                .with_workers(WORKERS)
                .run(),
            verified: Vec::new(),
        },
        Workload::Hunt => {
            let report = Campaign::new(inputs.jobs.clone())
                .with_workers(WORKERS)
                .run();
            let verified = bundles(&report)
                .map(|(i, b)| (i, verify_bundle(b)))
                .collect();
            Outcome::Campaign { report, verified }
        }
        Workload::Sample => Outcome::Campaign {
            report: run_sampled(inputs.sample.as_ref().expect("sample inputs carry a spec")),
            verified: Vec::new(),
        },
        Workload::Profile => {
            Outcome::Profile(pool(&inputs.programs, |_, (name, p)| profile_one(name, p)))
        }
    }
}

/// Triage bundles of a report with their job index.
pub fn bundles(report: &CampaignReport) -> impl Iterator<Item = (usize, &campaign::TriageBundle)> {
    report
        .jobs
        .iter()
        .enumerate()
        .filter_map(|(i, j)| j.triage.as_ref().map(|b| (i, b)))
}

/// Result of checking one outcome.
#[derive(Debug, Default, Clone)]
pub struct Checked {
    /// Operations attempted (jobs, or checkpoints for `profile`).
    pub attempted: u64,
    /// Operations that failed their check; listed in `failures`.
    pub failed: u64,
    /// One line per failed operation.
    pub failures: Vec<String>,
    /// Digest of the deterministic output body.
    pub digest: u64,
    /// DiffTest-checked commits.
    pub commits: u64,
    /// Simulated DUT cycles.
    pub cycles: u64,
    /// Instructions profiled.
    pub profiled: u64,
    /// Mean kept slots of minimized torture reproducers (`hunt`).
    pub repro_slots_mean: Option<f64>,
    /// A failure of the outcome as a whole, not of one operation.
    pub problem: Option<String>,
}

/// 64-bit FNV-1a.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The deterministic body of an outcome: the campaign report body (plus
/// bundle verifications) or the checkpoint sets' identities.
pub fn body(outcome: &Outcome) -> String {
    match outcome {
        Outcome::Campaign { report, verified } => {
            let mut s = report.deterministic_json();
            for (i, v) in verified {
                match v {
                    Ok(v) => s.push_str(&format!(
                        "\nverify {i}: reproduced={} at_commit={}",
                        v.reproduced, v.at_commit
                    )),
                    Err(e) => s.push_str(&format!("\nverify {i}: error {e}")),
                }
            }
            s
        }
        Outcome::Profile(ps) => {
            let mut s = String::new();
            for p in ps {
                s.push_str(&format!(
                    "{} insts={} intervals={}\n",
                    p.name, p.set.total_instructions, p.set.total_intervals
                ));
                for c in &p.set.checkpoints {
                    s.push_str(&format!(
                        "  interval={} members={} instret={} hash={}\n",
                        c.interval,
                        c.members,
                        c.instret,
                        c.content_hash()
                    ));
                }
            }
            s
        }
    }
}

/// Check an outcome against the workload's correctness rules.
pub fn check(w: Workload, outcome: &Outcome) -> Checked {
    let mut out = Checked {
        digest: fnv1a(body(outcome).as_bytes()),
        ..Default::default()
    };
    match outcome {
        Outcome::Campaign { report, verified } => {
            out.attempted = report.jobs.len() as u64;
            let mut slots = Vec::new();
            for (i, j) in report.jobs.iter().enumerate() {
                out.commits += j.commits_checked;
                out.cycles += j.cycles;
                if let Some(m) = &j.minimized {
                    if m.torture.is_some() {
                        slots.push(m.minimized_kept as f64);
                    }
                }
                if let Some(why) = job_failure(w, j, verified.iter().find(|(k, _)| *k == i)) {
                    out.failed += 1;
                    out.failures
                        .push(format!("job {i} {} on {}: {why}", j.workload, j.config));
                }
            }
            if w == Workload::Sample {
                // Every kernel is profiled once and sampled on every preset.
                out.profiled = report
                    .sampling
                    .iter()
                    .filter(|s| s.config == PRESETS[0])
                    .map(|s| s.total_instructions)
                    .sum();
            }
            if !slots.is_empty() {
                out.repro_slots_mean = Some(slots.iter().sum::<f64>() / slots.len() as f64);
            }
            // The injected bug always corrupts some kernels; a hunt that
            // catches nothing means DiffTest stopped checking.
            if w == Workload::Hunt && report.summary.diverged == 0 {
                out.problem = Some("the hunt caught no divergence".to_string());
            }
        }
        Outcome::Profile(ps) => {
            for p in ps {
                out.profiled += p.set.total_instructions;
                for (c, (_, back)) in p.set.checkpoints.iter().zip(&p.round_trips) {
                    out.attempted += 1;
                    let why = match back {
                        Err(e) => Some(format!("bytes do not read back: {e}")),
                        Ok(b) if b.content_hash() != c.content_hash() => {
                            Some("content hash changed in the round trip".to_string())
                        }
                        Ok(b)
                            if (b.instret, b.interval, b.members, b.total_intervals)
                                != (c.instret, c.interval, c.members, c.total_intervals) =>
                        {
                            Some("header fields changed in the round trip".to_string())
                        }
                        Ok(_) => None,
                    };
                    if let Some(why) = why {
                        out.failed += 1;
                        out.failures
                            .push(format!("{} interval {}: {why}", p.name, c.interval));
                    }
                }
            }
        }
    }
    out
}

/// Why one job record fails its workload's rule, or None when it passes.
fn job_failure(
    w: Workload,
    j: &campaign::JobRecord,
    verified: Option<&(usize, Result<BundleVerification, String>)>,
) -> Option<String> {
    let verdict = || format!("{:?}", j.verdict);
    match w {
        Workload::Regress => (!matches!(j.verdict, Verdict::Halted { .. })).then(verdict),
        Workload::Sample => {
            let Some(s) = &j.sample else {
                return Some(format!("no sample record: {}", verdict()));
            };
            let ok_end = match j.verdict {
                Verdict::Sampled { .. } => true,
                // A halt inside the warm-up of a tail interval.
                Verdict::Halted { .. } => s.halted.is_some(),
                _ => false,
            };
            if !ok_end {
                return Some(verdict());
            }
            let width = j.perf.commit_width;
            if s.cpi_stack.total() != s.window_cycles * width {
                return Some(format!(
                    "CPI-stack identity broken: {} slots for {} cycles x width {width}",
                    s.cpi_stack.total(),
                    s.window_cycles
                ));
            }
            None
        }
        Workload::Hunt => match &j.verdict {
            Verdict::Halted { .. } => None,
            Verdict::Diverged { .. } => {
                let Some(b) = &j.triage else {
                    return Some("diverged without a triage bundle".to_string());
                };
                match verified {
                    Some((_, Ok(v))) if v.reproduced && v.at_commit == b.at_commit => None,
                    Some((_, Ok(v))) => Some(format!(
                        "bundle did not reproduce at commit {} (got reproduced={} at {}: {})",
                        b.at_commit, v.reproduced, v.at_commit, v.detail
                    )),
                    Some((_, Err(e))) => Some(format!("verify_bundle failed: {e}")),
                    None => Some("bundle not verified".to_string()),
                }
            }
            _ => Some(verdict()),
        },
        Workload::Profile => None,
    }
}

/// Weighted CPI of a full (unsampled) run of every kernel on every
/// preset, milli-units, keyed by (config, workload label). The DUT runs
/// without DiffTest, which observes but never steers it.
pub fn full_cpi_milli() -> Vec<((String, String), u64)> {
    let cells: Vec<(&str, &str)> = PRESETS
        .iter()
        .flat_map(|c| workloads::NAMES.iter().map(move |k| (*c, *k)))
        .collect();
    pool(&cells, |_, (config, kernel)| {
        let program = workloads::workload(kernel, Scale::Test).program;
        let cfg = xscore::XsConfig::preset(config).expect("known preset");
        let mut sys = xscore::XsSystem::new(cfg, &program);
        let halted = sys.run(MAX_CYCLES).is_some();
        let cycles = sys.cores[0].cycle();
        let instret = sys.cores[0].instret();
        let cpi = if halted {
            cycles * 1000 / instret.max(1)
        } else {
            0
        };
        ((config.to_string(), format!("kernel:{kernel}")), cpi)
    })
}

/// Mean |sampled − full| / full weighted CPI over the report's
/// kernel × preset cells, per mille.
pub fn cpi_error_permille(report: &CampaignReport, full: &[((String, String), u64)]) -> f64 {
    let errs: Vec<f64> = report
        .sampling
        .iter()
        .map(|s| {
            let reference = full
                .iter()
                .find(|((c, k), _)| *c == s.config && *k == s.workload)
                .map_or(0, |(_, v)| *v);
            if reference == 0 {
                1000.0
            } else {
                s.weighted_cpi_milli.abs_diff(reference) as f64 * 1000.0 / reference as f64
            }
        })
        .collect();
    if errs.is_empty() {
        return 1000.0;
    }
    errs.iter().sum::<f64>() / errs.len() as f64
}
