//! Rollback-replay triage: the self-contained failure bundle.
//!
//! When a campaign job ends in a divergence, a cycle-budget timeout, or
//! a panic, the runner rolls back to the older retained LightSSS
//! snapshot (falling back to the reset state when the failure struck
//! before the first snapshot interval), re-executes the ≤ 2×interval
//! failure window in debug mode, and packs everything a later session
//! needs into a [`TriageBundle`]: the program *recipe* (never raw
//! state), the snapshot anchor, the commit-trace tail, the diff-rule
//! verdict, and the window's CPI stack. The bundle is deterministic —
//! no wall-clock field appears in it — and [`verify_bundle`] reproduces
//! the failure from the bundle alone, checking that the divergence
//! strikes at the *identical commit index*.

use crate::job::{error_class, JobSpec, WorkloadSource};
use crate::report::MinimizedRepro;
use minjie::{ArchDb, BugReport, CoSim, CoSimEnd, CoSimState, DiffError, Salvage, Snapshotable};
use riscv_isa::asm::Program;
use serde::{Deserialize, Serialize};
use serde_json::Value;
use std::panic::{catch_unwind, AssertUnwindSafe};
use workloads::litmus::LitmusConfig;
use workloads::TortureConfig;
use xscore::{CpiStack, InjectedBug};

/// Bundle schema version (independent of the report schema).
/// v4: litmus sources, the `"forbidden-outcome"` trigger with its raw
/// exit code, and the L2 probe/grant race fault flag.
/// v5: sample sources — the `(kernel, personality, interval_len,
/// interval, warmup, window)` recipe re-derives the checkpoint a sample
/// job resumed from, keeping bundles free of memory images.
/// v6: the `ref_model` field is gone — DiffTest has one REF.
pub const BUNDLE_SCHEMA_VERSION: u64 = 6;

/// Commit-trace rows retained in the bundle (the tail closest to the
/// failure point).
const COMMIT_TAIL_LEN: usize = 32;

/// Extra cycles granted past the nominal window so the replay can reach
/// the failure even when commit timing shifts slightly at the margins.
const REPLAY_SLACK: u64 = 10_000;

/// A serializable program recipe — mirrors [`WorkloadSource`], which
/// carries a non-serializable [`Program`] in its inline variant.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum BundleSource {
    /// A named SPEC-like kernel.
    Kernel {
        /// Kernel name.
        name: String,
    },
    /// A torture program regenerated from its seed.
    Torture {
        /// Generator seed.
        seed: u64,
        /// Generator knobs.
        cfg: TortureConfig,
        /// Kept-mask over the abstract body slots (None keeps all).
        keep: Option<Vec<bool>>,
    },
    /// A two-hart litmus program regenerated from its seed.
    Litmus {
        /// Generator seed.
        seed: u64,
        /// Generator knobs.
        cfg: LitmusConfig,
        /// Kept-mask over the abstract rounds (None keeps all).
        keep: Option<Vec<bool>>,
    },
    /// A caller-assembled program, stored as raw bytes.
    Inline {
        /// Display name.
        name: String,
        /// Load base address.
        base: u64,
        /// Entry point.
        entry: u64,
        /// Image bytes.
        bytes: Vec<u8>,
    },
    /// A SimPoint sample job, stored as the checkpoint *recipe*:
    /// re-profiling `kernel` on `ref_model` for `interval ×
    /// interval_len` instructions rebuilds the exact restore state
    /// (see `checkpoint::checkpoint_at_interval`).
    Sample {
        /// Profiled kernel name.
        kernel: String,
        /// Profiling personality.
        ref_model: String,
        /// Interval length, instructions.
        interval_len: u64,
        /// Interval index of the checkpoint.
        interval: u64,
        /// Warm-up instruction budget.
        warmup: u64,
        /// Measured-window instruction budget.
        window: u64,
    },
}

impl BundleSource {
    /// Capture a workload recipe into its serializable form.
    pub fn from_workload(w: &WorkloadSource) -> Self {
        match w {
            WorkloadSource::Kernel { name } => BundleSource::Kernel { name: name.clone() },
            WorkloadSource::Torture { seed, cfg, keep } => BundleSource::Torture {
                seed: *seed,
                cfg: *cfg,
                keep: keep.clone(),
            },
            WorkloadSource::Litmus { seed, cfg, keep } => BundleSource::Litmus {
                seed: *seed,
                cfg: *cfg,
                keep: keep.clone(),
            },
            WorkloadSource::Inline { name, program } => BundleSource::Inline {
                name: name.clone(),
                base: program.base,
                entry: program.entry,
                bytes: program.bytes.clone(),
            },
            WorkloadSource::Sample {
                kernel,
                ref_model,
                interval_len,
                warmup,
                window,
                checkpoint,
            } => BundleSource::Sample {
                kernel: kernel.clone(),
                ref_model: ref_model.clone(),
                interval_len: *interval_len,
                interval: checkpoint.interval as u64,
                warmup: *warmup,
                window: *window,
            },
        }
    }

    /// Rebuild the runnable workload recipe.
    pub fn to_workload(&self) -> WorkloadSource {
        match self {
            BundleSource::Kernel { name } => WorkloadSource::Kernel { name: name.clone() },
            BundleSource::Torture { seed, cfg, keep } => WorkloadSource::Torture {
                seed: *seed,
                cfg: *cfg,
                keep: keep.clone(),
            },
            BundleSource::Litmus { seed, cfg, keep } => WorkloadSource::Litmus {
                seed: *seed,
                cfg: *cfg,
                keep: keep.clone(),
            },
            BundleSource::Inline {
                name,
                base,
                entry,
                bytes,
            } => WorkloadSource::Inline {
                name: name.clone(),
                program: Program {
                    base: *base,
                    entry: *entry,
                    bytes: bytes.clone(),
                },
            },
            // Re-derive the checkpoint from its recipe: profile the
            // kernel on the recorded personality up to the boundary.
            // Deterministic, so the rebuilt state matches the original
            // byte for byte.
            BundleSource::Sample {
                kernel,
                ref_model,
                interval_len,
                interval,
                warmup,
                window,
            } => {
                let program = workloads::workload(kernel, workloads::Scale::Test).program;
                let c = checkpoint::checkpoint_at_interval(
                    ref_model,
                    &program,
                    *interval_len,
                    *interval,
                );
                WorkloadSource::Sample {
                    kernel: kernel.clone(),
                    ref_model: ref_model.clone(),
                    interval_len: *interval_len,
                    warmup: *warmup,
                    window: *window,
                    checkpoint: std::sync::Arc::new(c),
                }
            }
        }
    }
}

/// One row of the commit-trace tail: the last committed instructions
/// before the failure, flattened from the debug-mode `instr_commit`
/// table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CommitTailEntry {
    /// Cycle of commit.
    pub cycle: u64,
    /// Hart index.
    pub hart: u64,
    /// PC.
    pub pc: u64,
    /// Opcode mnemonic.
    pub op: String,
    /// Destination write `(fp, arch index, value)`, if any.
    pub wb: Option<(bool, u8, u64)>,
}

/// The self-contained rollback-replay bundle.
///
/// Everything here is either configuration (recipe) or derived from the
/// deterministic simulation — a bundle for the same failing job is
/// byte-identical across runs, machines, and worker counts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TriageBundle {
    /// Bundle schema version.
    pub schema_version: u64,
    /// The job's position in its campaign.
    pub job_index: u64,
    /// Workload display label.
    pub workload: String,
    /// The program recipe.
    pub source: BundleSource,
    /// Configuration preset slug.
    pub config: String,
    /// Core-count override.
    pub cores: Option<u64>,
    /// Deliberate DUT corruption armed for the job.
    pub injected_bug: Option<InjectedBug>,
    /// §IV-C L2 probe/grant race fault armed for the job.
    pub inject_l2_race: bool,
    /// Per-cycle telemetry enabled.
    pub telemetry: bool,
    /// Full-trace lifecycle streaming enabled (the crash ring below is
    /// captured regardless).
    pub lifecycle: bool,
    /// Cycle budget.
    pub max_cycles: u64,
    /// LightSSS snapshot interval.
    pub lightsss_interval: Option<u64>,
    /// What ended the job: `"diverged"`, `"timeout"`, `"panicked"`, or
    /// `"forbidden-outcome"`.
    pub trigger: String,
    /// Cycle of the snapshot the replay rolled back to (0 for the
    /// reset-state fallback).
    pub snapshot_cycle: u64,
    /// True when no snapshot had been retained and the replay fell back
    /// to the reset state.
    pub fallback_reset: bool,
    /// Cycle at which the failure was detected.
    pub at_cycle: u64,
    /// Commit index at which the failure was detected — the anchor a
    /// deterministic re-execution must hit again.
    pub at_commit: u64,
    /// The divergence (diverged jobs only).
    pub error: Option<DiffError>,
    /// Divergence class.
    pub error_class: Option<String>,
    /// The panic message (panicked jobs only).
    pub panic: Option<String>,
    /// The raw litmus exit code — status, first bad round and outcome
    /// packed into hart 0's `a0` (forbidden-outcome jobs only). A
    /// replay must halt with this exact value to count as reproduced.
    pub forbidden_exit: Option<u64>,
    /// Whether the rollback replay reproduced the original failure.
    pub reproduced: bool,
    /// Cycles re-simulated in the debug-mode window.
    pub cycles_replayed: u64,
    /// Debug-mode events captured during the window.
    pub trace_records: u64,
    /// The last committed instructions before the failure.
    pub commit_tail: Vec<CommitTailEntry>,
    /// The always-on lifecycle ring at the failure point: the last
    /// [`xscore::LIFECYCLE_RING_CAP`] finished uops per core, with
    /// per-stage cycle stamps and squash causes. Pure-integer stamps —
    /// deterministic and bounded like everything else in the bundle.
    pub lifecycle_ring: Vec<xscore::Lifecycle>,
    /// CPI stack of the replayed window alone.
    pub window_cpi: CpiStack,
    /// Minimized reproducer, when ddmin ran on the failure.
    pub minimized: Option<MinimizedRepro>,
}

/// Extract the commit-trace tail from a debug-mode trace.
pub fn commit_tail(trace: &ArchDb) -> Vec<CommitTailEntry> {
    let Some(t) = trace.table("instr_commit") else {
        return Vec::new();
    };
    let skip = t.len().saturating_sub(COMMIT_TAIL_LEN);
    t.rows()
        .skip(skip)
        .map(|(cycle, v)| CommitTailEntry {
            cycle: *cycle,
            hart: v.get("hart").and_then(Value::as_u64).unwrap_or(0),
            pc: v.get("pc").and_then(Value::as_u64).unwrap_or(0),
            op: v
                .get("inst")
                .and_then(|i| i.get("op"))
                .map(|op| match op {
                    Value::String(s) => s.clone(),
                    other => other.to_string(),
                })
                .unwrap_or_default(),
            wb: v
                .get("wb")
                .and_then(|w| <Option<(bool, u8, u64)> as serde::Deserialize>::deserialize(w).ok())
                .flatten(),
        })
        .collect()
}

/// The outcome of re-simulating a failure window in debug mode.
struct WindowRun {
    error: Option<DiffError>,
    at_commit: u64,
    at_cycle: u64,
    cycles_replayed: u64,
    window_cpi: CpiStack,
    trace_records: u64,
    tail: Vec<CommitTailEntry>,
    ring: Vec<xscore::Lifecycle>,
}

/// Roll forward from `start` (a snapshot or the reset state) for up to
/// `budget` cycles with commit tracing on.
fn replay_window(start: CoSimState, from_cycle: u64, budget: u64) -> WindowRun {
    let mut cosim = CoSim::debug_resume(start);
    let start_cpi = minjie::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
    let mut error = None;
    let mut at_commit = 0;
    // A cycle deadline, not a step count: with the event-driven skipper
    // on, one step may consume many idle cycles.
    let deadline = cosim.state.time().saturating_add(budget);
    while cosim.state.time() < deadline {
        if cosim.state.sys.all_halted() {
            break;
        }
        match cosim.step_cycle_until(deadline) {
            Ok(()) => {}
            Err(e) => {
                at_commit = cosim.state.diff.commits_checked;
                error = Some(e);
                break;
            }
        }
    }
    let end_cpi = minjie::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
    WindowRun {
        error,
        at_commit,
        at_cycle: cosim.state.time(),
        cycles_replayed: cosim.state.time().saturating_sub(from_cycle),
        window_cpi: end_cpi.saturating_sub(&start_cpi),
        trace_records: cosim.archdb.records_inserted(),
        tail: commit_tail(&cosim.archdb),
        ring: cosim
            .state
            .sys
            .cores
            .iter()
            .flat_map(|c| c.lifecycle_ring())
            .collect(),
    }
}

/// The recipe-only skeleton every trigger shares.
fn base_bundle(job_index: u64, spec: &JobSpec, trigger: &str) -> TriageBundle {
    TriageBundle {
        schema_version: BUNDLE_SCHEMA_VERSION,
        job_index,
        workload: spec.workload.describe(),
        source: BundleSource::from_workload(&spec.workload),
        config: spec.config.clone(),
        cores: spec.cores.map(|c| c as u64),
        injected_bug: spec.injected_bug,
        inject_l2_race: spec.inject_l2_race,
        telemetry: spec.telemetry,
        lifecycle: spec.lifecycle,
        max_cycles: spec.max_cycles,
        lightsss_interval: spec.lightsss_interval,
        trigger: trigger.to_string(),
        snapshot_cycle: 0,
        fallback_reset: true,
        at_cycle: 0,
        at_commit: 0,
        error: None,
        error_class: None,
        panic: None,
        forbidden_exit: None,
        reproduced: false,
        cycles_replayed: 0,
        trace_records: 0,
        commit_tail: Vec::new(),
        lifecycle_ring: Vec::new(),
        window_cpi: CpiStack::default(),
        minimized: None,
    }
}

/// Triage a divergence: prefer the in-run LightSSS replay debrief; when
/// LightSSS was disabled, roll back to the salvaged reset state and
/// re-execute the failing prefix in debug mode.
pub fn triage_divergence(
    job_index: u64,
    spec: &JobSpec,
    bug: &BugReport,
    salvage: Option<Salvage>,
    minimized: Option<MinimizedRepro>,
    lifecycle_ring: Vec<xscore::Lifecycle>,
) -> TriageBundle {
    let mut b = base_bundle(job_index, spec, "diverged");
    b.at_cycle = bug.at_cycle;
    b.at_commit = bug.at_commit;
    b.error = Some(bug.error.clone());
    b.error_class = Some(error_class(&bug.error).to_string());
    b.minimized = minimized;
    // The failing run ended at the divergence, so its always-on ring is
    // already the window right before the failure.
    b.lifecycle_ring = lifecycle_ring;
    match (&bug.replay, salvage) {
        (Some(r), _) => {
            b.snapshot_cycle = r.from_cycle;
            b.fallback_reset = r.fallback_reset;
            b.reproduced = r.reproduced;
            b.cycles_replayed = r.cycles_replayed;
            b.trace_records = r.trace.records_inserted();
            b.commit_tail = commit_tail(&r.trace);
            b.window_cpi = r.window_cpi;
        }
        (None, Some(s)) => {
            let from = s.snapshot_cycle;
            let budget = bug.at_cycle.saturating_sub(from) + REPLAY_SLACK;
            let w = replay_window(s.state, from, budget);
            b.snapshot_cycle = from;
            b.fallback_reset = s.fallback_reset;
            b.reproduced = w.error.as_ref() == Some(&bug.error) && w.at_commit == bug.at_commit;
            b.cycles_replayed = w.cycles_replayed;
            b.trace_records = w.trace_records;
            b.commit_tail = w.tail;
            b.window_cpi = w.window_cpi;
            if b.lifecycle_ring.is_empty() {
                b.lifecycle_ring = w.ring;
            }
        }
        (None, None) => {}
    }
    b
}

/// Triage a cycle-budget timeout: roll back to the salvaged snapshot
/// and re-execute the final window in debug mode, capturing what the
/// pipeline was doing when the budget ran out.
pub fn triage_timeout(
    job_index: u64,
    spec: &JobSpec,
    salvage: Salvage,
    end_cycle: u64,
    commits_checked: u64,
    lifecycle_ring: Vec<xscore::Lifecycle>,
) -> TriageBundle {
    let mut b = base_bundle(job_index, spec, "timeout");
    b.at_cycle = end_cycle;
    b.at_commit = commits_checked;
    b.snapshot_cycle = salvage.snapshot_cycle;
    b.fallback_reset = salvage.fallback_reset;
    b.lifecycle_ring = lifecycle_ring;
    let from = salvage.snapshot_cycle;
    let budget = end_cycle.saturating_sub(from);
    let w = replay_window(salvage.state, from, budget);
    // A timeout "reproduces" when the window replays to the original
    // end cycle without halting or diverging.
    b.reproduced = w.error.is_none() && w.at_cycle == end_cycle;
    b.cycles_replayed = w.cycles_replayed;
    b.trace_records = w.trace_records;
    b.commit_tail = w.tail;
    b.window_cpi = w.window_cpi;
    if b.lifecycle_ring.is_empty() {
        b.lifecycle_ring = w.ring;
    }
    b
}

/// Triage a litmus forbidden outcome: both harts committed cleanly (so
/// there is no divergence point to roll back to — the *final
/// observation set* is what's illegal), so rebuild from reset and
/// re-execute the whole run in debug mode, capturing the commit tail
/// and both harts' lifecycle rings around the racy rounds.
pub fn triage_forbidden(
    job_index: u64,
    spec: &JobSpec,
    exit_code: u64,
    end_cycle: u64,
    commits_checked: u64,
    minimized: Option<MinimizedRepro>,
    lifecycle_ring: Vec<xscore::Lifecycle>,
) -> TriageBundle {
    let mut b = base_bundle(job_index, spec, "forbidden-outcome");
    b.at_cycle = end_cycle;
    b.at_commit = commits_checked;
    b.forbidden_exit = Some(exit_code);
    b.minimized = minimized;
    b.lifecycle_ring = lifecycle_ring;
    let Some(cfg) = spec.build_config() else {
        return b;
    };
    let program = spec.workload.build();
    let boot = catch_unwind(AssertUnwindSafe(|| CoSim::new(cfg, &program).state));
    let Ok(start) = boot else {
        return b;
    };
    let w = replay_window(start, 0, end_cycle.saturating_add(REPLAY_SLACK));
    // The model is deterministic: halting at the original end cycle with
    // no divergence en route is the same run, so the same forbidden
    // observation was committed.
    b.reproduced = w.error.is_none() && w.at_cycle == end_cycle;
    b.cycles_replayed = w.cycles_replayed;
    b.trace_records = w.trace_records;
    b.commit_tail = w.tail;
    b.window_cpi = w.window_cpi;
    if b.lifecycle_ring.is_empty() {
        b.lifecycle_ring = w.ring;
    }
    b
}

/// Triage a panic: the unwound harness left nothing to salvage, so
/// rebuild from reset and step in debug mode inside a per-step panic
/// boundary until the panic strikes again.
pub fn triage_panic(job_index: u64, spec: &JobSpec, message: &str) -> TriageBundle {
    let mut b = base_bundle(job_index, spec, "panicked");
    b.panic = Some(message.to_string());
    let Some(cfg) = spec.build_config() else {
        return b;
    };
    let max_cycles = spec.max_cycles;
    let boot = catch_unwind(AssertUnwindSafe(|| {
        let program = spec.workload.build();
        CoSim::new(cfg, &program).state
    }));
    let Ok(start) = boot else {
        // Boot itself panics: the failure reproduces from cycle 0 with
        // an empty window.
        b.reproduced = true;
        return b;
    };
    let mut cosim = CoSim::debug_resume(start);
    let start_cpi = minjie::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
    let mut replay_panic = None;
    let deadline = cosim.state.time().saturating_add(max_cycles);
    while cosim.state.time() < deadline {
        if cosim.state.sys.all_halted() {
            break;
        }
        match catch_unwind(AssertUnwindSafe(|| cosim.step_cycle_until(deadline))) {
            Ok(Ok(())) => {}
            // A divergence en route to the panic still ends the window.
            Ok(Err(e)) => {
                b.error = Some(e);
                break;
            }
            Err(payload) => {
                replay_panic = Some(minjie::panic_message(payload));
                break;
            }
        }
    }
    let end_cpi = minjie::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
    b.at_cycle = cosim.state.time();
    b.at_commit = cosim.state.diff.commits_checked;
    b.reproduced = replay_panic.as_deref() == Some(message);
    b.cycles_replayed = cosim.state.time();
    b.trace_records = cosim.archdb.records_inserted();
    b.commit_tail = commit_tail(&cosim.archdb);
    // The original harness unwound, but the debug replay stopped at the
    // same panic, so its ring is the equivalent pre-failure window.
    b.lifecycle_ring = cosim
        .state
        .sys
        .cores
        .iter()
        .flat_map(|c| c.lifecycle_ring())
        .collect();
    b.window_cpi = end_cpi.saturating_sub(&start_cpi);
    b
}

/// Rebuild the [`JobSpec`] a bundle describes.
pub fn bundle_spec(b: &TriageBundle) -> JobSpec {
    let mut spec = JobSpec::new(b.source.to_workload(), b.config.clone());
    if let Some(cores) = b.cores {
        spec = spec.with_cores(cores as usize);
    }
    if let Some(bug) = b.injected_bug {
        spec = spec.with_injected_bug(bug);
    }
    if b.inject_l2_race {
        spec = spec.with_l2_race();
    }
    spec = spec.with_max_cycles(b.max_cycles);
    if let Some(iv) = b.lightsss_interval {
        spec = spec.with_lightsss(iv);
    }
    if b.telemetry {
        spec = spec.with_telemetry();
    }
    if b.lifecycle {
        spec = spec.with_lifecycle();
    }
    spec
}

/// The outcome of replaying a bundle from scratch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BundleVerification {
    /// The original failure reproduced — same kind, same error, same
    /// commit index.
    pub reproduced: bool,
    /// Commit index the re-execution reached (divergences: where it
    /// diverged; timeouts: commits verified at budget exhaustion).
    pub at_commit: u64,
    /// Human-readable explanation of the outcome.
    pub detail: String,
}

/// Re-execute a bundle's job from reset — using only the recipe inside
/// the bundle — and check that the failure reproduces at the identical
/// commit index.
///
/// # Errors
///
/// A bundle written under another schema version, or a setup failure
/// (an unknown configuration preset) that prevents the run from even
/// starting.
pub fn verify_bundle(b: &TriageBundle) -> Result<BundleVerification, String> {
    if b.schema_version != BUNDLE_SCHEMA_VERSION {
        return Err(format!(
            "bundle schema version {} is not the supported version {BUNDLE_SCHEMA_VERSION}",
            b.schema_version
        ));
    }
    let spec = bundle_spec(b);
    let Some(cfg) = spec.build_config() else {
        return Err(format!("unknown configuration preset `{}`", b.config));
    };
    // Sample jobs don't run from reset: re-derive the checkpoint from
    // its recipe and resume the warm-up + window exactly as the runner
    // did.
    if let WorkloadSource::Sample {
        checkpoint,
        warmup,
        window,
        ..
    } = &spec.workload
    {
        let (result, _) = minjie::run_isolated_checkpoint(
            cfg,
            &checkpoint.state,
            &checkpoint.memory,
            *warmup,
            *window,
            b.max_cycles,
            b.lightsss_interval,
        );
        let v = match result {
            Err(message) => BundleVerification {
                reproduced: b.trigger == "panicked" && Some(&message) == b.panic.as_ref(),
                at_commit: 0,
                detail: format!("panicked: {message}"),
            },
            Ok(stats) => match stats.end {
                minjie::SampleEnd::Window | minjie::SampleEnd::Halted(_) => BundleVerification {
                    reproduced: false,
                    at_commit: stats.commits_checked,
                    detail: format!(
                        "sampled cleanly: {} window cycles, {} window instructions",
                        stats.window.window_cycles, stats.window.window_instret
                    ),
                },
                minjie::SampleEnd::OutOfCycles => BundleVerification {
                    reproduced: b.trigger == "timeout"
                        && stats.cycles == b.at_cycle
                        && stats.commits_checked == b.at_commit,
                    at_commit: stats.commits_checked,
                    detail: format!(
                        "cycle budget exhausted at cycle {} after {} commits",
                        stats.cycles, stats.commits_checked
                    ),
                },
                minjie::SampleEnd::Bug(bug) => {
                    let same_error = Some(&bug.error) == b.error.as_ref();
                    let same_commit = bug.at_commit == b.at_commit;
                    BundleVerification {
                        reproduced: b.trigger == "diverged" && same_error && same_commit,
                        at_commit: bug.at_commit,
                        detail: format!(
                            "diverged ({}) at commit {} (bundle: commit {}, error match: {})",
                            error_class(&bug.error),
                            bug.at_commit,
                            b.at_commit,
                            same_error
                        ),
                    }
                }
            },
        };
        return Ok(v);
    }
    let program = spec.workload.build();
    let result = minjie::run_isolated(cfg, &program, b.max_cycles, b.lightsss_interval);
    let v = match result {
        Err(message) => BundleVerification {
            reproduced: b.trigger == "panicked" && Some(&message) == b.panic.as_ref(),
            at_commit: 0,
            detail: format!("panicked: {message}"),
        },
        Ok(stats) => match stats.end {
            CoSimEnd::Halted(code) => {
                let same_exit = b.forbidden_exit == Some(code);
                let same_commit = stats.commits_checked == b.at_commit;
                BundleVerification {
                    reproduced: b.trigger == "forbidden-outcome" && same_exit && same_commit,
                    at_commit: stats.commits_checked,
                    detail: if b.trigger == "forbidden-outcome" {
                        format!(
                            "halted with exit code {code:#x} at commit {} \
                             (bundle: {:#x} at commit {})",
                            stats.commits_checked,
                            b.forbidden_exit.unwrap_or(0),
                            b.at_commit
                        )
                    } else {
                        format!("halted cleanly with exit code {code}")
                    },
                }
            }
            CoSimEnd::OutOfCycles => BundleVerification {
                reproduced: b.trigger == "timeout"
                    && stats.cycles == b.at_cycle
                    && stats.commits_checked == b.at_commit,
                at_commit: stats.commits_checked,
                detail: format!(
                    "cycle budget exhausted at cycle {} after {} commits",
                    stats.cycles, stats.commits_checked
                ),
            },
            CoSimEnd::Bug(bug) => {
                let same_error = Some(&bug.error) == b.error.as_ref();
                let same_commit = bug.at_commit == b.at_commit;
                BundleVerification {
                    reproduced: b.trigger == "diverged" && same_error && same_commit,
                    at_commit: bug.at_commit,
                    detail: format!(
                        "diverged ({}) at commit {} (bundle: commit {}, error match: {})",
                        error_class(&bug.error),
                        bug.at_commit,
                        b.at_commit,
                        same_error
                    ),
                }
            }
        },
    };
    Ok(v)
}

impl TriageBundle {
    /// Render the bundle as a human-readable triage card.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "== triage bundle: job {} ({}) ==\n",
            self.job_index, self.trigger
        ));
        s.push_str(&format!(
            "workload: {}  config: {}  cores: {}\n",
            self.workload,
            self.config,
            self.cores
                .map(|c| c.to_string())
                .unwrap_or_else(|| "(preset)".into()),
        ));
        if let Some(bug) = self.injected_bug {
            s.push_str(&format!("injected bug: {bug:?}\n"));
        }
        s.push_str(&format!(
            "limits: {} cycles, lightsss {}\n",
            self.max_cycles,
            self.lightsss_interval
                .map(|i| format!("every {i}"))
                .unwrap_or_else(|| "off".into()),
        ));
        s.push_str(&format!(
            "failure: cycle {} commit {}\n",
            self.at_cycle, self.at_commit
        ));
        if let Some(e) = &self.error {
            s.push_str(&format!(
                "error [{}]: {e:?}\n",
                self.error_class.as_deref().unwrap_or("?")
            ));
        }
        if let Some(p) = &self.panic {
            s.push_str(&format!("panic: {p}\n"));
        }
        if let Some(x) = self.forbidden_exit {
            s.push_str(&format!(
                "forbidden litmus exit: {x:#x} ({:?})\n",
                workloads::litmus::LitmusExit::decode(x)
            ));
        }
        s.push_str(&format!(
            "rollback: from cycle {}{}, replayed {} cycles, {} trace records, reproduced: {}\n",
            self.snapshot_cycle,
            if self.fallback_reset {
                " (reset-state fallback: failure preceded the first snapshot)"
            } else {
                " (older LightSSS snapshot)"
            },
            self.cycles_replayed,
            self.trace_records,
            self.reproduced,
        ));
        if let Some(m) = &self.minimized {
            s.push_str(&format!(
                "minimized: seed {} kept {}/{} slots ({} runs)\n",
                m.seed, m.minimized_kept, m.original_kept, m.minimizer_runs
            ));
        }
        s.push_str(&minjie::telemetry::render_cpi_stack(
            &self.window_cpi,
            "window CPI stack",
        ));
        if !self.lifecycle_ring.is_empty() {
            s.push_str(&xscore::render_waterfall(&self.lifecycle_ring));
        }
        if !self.commit_tail.is_empty() {
            s.push_str(&format!(
                "commit tail (last {} commits):\n",
                self.commit_tail.len()
            ));
            for e in &self.commit_tail {
                let wb = match e.wb {
                    Some((fp, idx, val)) => {
                        format!("{}{} <- {val:#x}", if fp { "f" } else { "x" }, idx)
                    }
                    None => "-".to_string(),
                };
                s.push_str(&format!(
                    "{:>10} | hart {} pc {:#x} {} {}\n",
                    e.cycle, e.hart, e.pc, e.op, wb
                ));
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    fn mul_bug_spec() -> JobSpec {
        let mut a = Asm::new(0x8000_0000);
        a.li(S0, 3);
        a.li(S1, 5);
        a.mul(A0, S0, S1);
        a.ebreak();
        JobSpec::new(
            WorkloadSource::inline("mulbug", a.assemble()),
            "small-nh",
        )
        .with_injected_bug(InjectedBug::MulLowBit)
        .with_max_cycles(200_000)
        .with_lightsss(1000)
    }

    #[test]
    fn bundle_source_round_trips() {
        let spec = mul_bug_spec();
        let src = BundleSource::from_workload(&spec.workload);
        let back = src.to_workload();
        assert_eq!(back.describe(), spec.workload.describe());
        assert_eq!(back.build().bytes, spec.workload.build().bytes);
    }

    #[test]
    fn divergence_bundle_verifies_at_the_same_commit() {
        let spec = mul_bug_spec();
        let cfg = spec.build_config().unwrap();
        let program = spec.workload.build();
        let (result, salvage) = minjie::run_isolated_salvaging(
            cfg,
            &program,
            spec.max_cycles,
            spec.lightsss_interval,
        );
        let stats = result.expect("no panic");
        let CoSimEnd::Bug(bug) = &stats.end else {
            panic!("expected a divergence, got {:?}", stats.end);
        };
        let bundle = triage_divergence(0, &spec, bug, salvage, None, stats.lifecycle_ring.clone());
        assert_eq!(bundle.trigger, "diverged");
        assert!(bundle.reproduced, "rollback replay reproduces");
        assert_eq!(bundle.error_class.as_deref(), Some("Writeback"));
        assert!(!bundle.commit_tail.is_empty(), "commit tail captured");
        assert!(
            !bundle.lifecycle_ring.is_empty(),
            "lifecycle ring snapshotted at the failure"
        );
        assert!(
            bundle.lifecycle_ring.len() <= xscore::LIFECYCLE_RING_CAP,
            "single-core ring stays within the cap"
        );
        // The bundle alone reproduces the failure at the same commit.
        let v = verify_bundle(&bundle).expect("config resolves");
        assert!(v.reproduced, "{}", v.detail);
        assert_eq!(v.at_commit, bundle.at_commit);
        // Bundles serialize deterministically.
        let j1 = serde_json::to_string(&bundle).unwrap();
        let j2 = serde_json::to_string(&bundle.clone()).unwrap();
        assert_eq!(j1, j2);
        assert!(bundle.render().contains("triage bundle"));
        // A bundle written under another schema is refused, not replayed.
        let mut stale = bundle.clone();
        stale.schema_version = 5;
        let err = verify_bundle(&stale).expect_err("stale schema is refused");
        let current = format!("version {BUNDLE_SCHEMA_VERSION}");
        assert!(
            err.contains("version 5 ") && err.contains(&current),
            "{err}"
        );
    }

    #[test]
    fn timeout_bundle_replays_the_final_window() {
        // An infinite loop exhausts the cycle budget.
        let mut a = Asm::new(0x8000_0000);
        let top = a.bound_label();
        a.addi(S0, S0, 1);
        a.j(top);
        let spec = JobSpec::new(
            WorkloadSource::inline("spin", a.assemble()),
            "small-nh",
        )
        .with_max_cycles(20_000)
        .with_lightsss(4_000);
        let cfg = spec.build_config().unwrap();
        let program = spec.workload.build();
        let (result, salvage) = minjie::run_isolated_salvaging(
            cfg,
            &program,
            spec.max_cycles,
            spec.lightsss_interval,
        );
        let stats = result.expect("no panic");
        assert!(matches!(stats.end, CoSimEnd::OutOfCycles));
        let salvage = salvage.expect("timeout salvages a rollback point");
        assert!(!salvage.fallback_reset, "snapshots were retained");
        let bundle = triage_timeout(
            0,
            &spec,
            salvage,
            stats.cycles,
            stats.commits_checked,
            stats.lifecycle_ring.clone(),
        );
        assert_eq!(bundle.trigger, "timeout");
        assert!(!bundle.lifecycle_ring.is_empty(), "ring captured at budget exhaustion");
        assert!(bundle.reproduced, "window replays to the same end cycle");
        assert!(bundle.cycles_replayed <= 2 * 4_000 + 4_000);
        let v = verify_bundle(&bundle).expect("config resolves");
        assert!(v.reproduced, "{}", v.detail);
    }

    #[test]
    fn panic_bundle_reproduces_the_message() {
        // An empty image panics in the frontend on the first fetch.
        let spec = JobSpec::new(
            WorkloadSource::inline(
                "bogus",
                Program {
                    base: 0x8000_0000,
                    entry: 0x8000_0000,
                    bytes: Vec::new(),
                },
            ),
            "small-nh",
        )
        .with_max_cycles(10_000);
        let cfg = spec.build_config().unwrap();
        let program = spec.workload.build();
        let result = minjie::run_isolated(cfg, &program, spec.max_cycles, None);
        let Err(message) = result else {
            // The empty image halted instead of panicking on this
            // configuration — nothing to triage.
            return;
        };
        let bundle = triage_panic(0, &spec, &message);
        assert_eq!(bundle.trigger, "panicked");
        assert_eq!(bundle.panic.as_deref(), Some(message.as_str()));
        assert!(bundle.reproduced, "panic message matches on replay");
    }
}
