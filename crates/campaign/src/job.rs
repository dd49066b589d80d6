//! Job specifications: what one campaign slot runs.

use minjie::DiffError;
use riscv_isa::asm::Program;
use workloads::litmus::{LitmusConfig, LitmusProgram};
use workloads::{Scale, TortureConfig, TortureProgram};
use xscore::{InjectedBug, XsConfig};

/// Where a job's program comes from.
///
/// Everything here is *recipe*, not bytes: a job re-derives its program
/// on the worker, so specs stay cheap to clone across threads and a
/// `(seed, config, mask)` triple in a report is a complete reproducer.
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// A named SPEC-like kernel (built at [`Scale::Test`]).
    Kernel {
        /// Kernel name, e.g. `"sjeng"`.
        name: String,
    },
    /// A torture program regenerated from its seed, optionally with a
    /// kept-mask over the abstract body slots.
    Torture {
        /// Generator seed.
        seed: u64,
        /// Generator knobs.
        cfg: TortureConfig,
        /// Kept-mask (None keeps every slot).
        keep: Option<Vec<bool>>,
    },
    /// A two-hart litmus program regenerated from its seed, optionally
    /// with a kept-mask over the abstract rounds. Litmus jobs need a
    /// multi-core configuration — pair with [`JobSpec::with_cores`].
    Litmus {
        /// Generator seed.
        seed: u64,
        /// Generator knobs (shape, fences, round count).
        cfg: LitmusConfig,
        /// Kept-mask over rounds (None keeps every round).
        keep: Option<Vec<bool>>,
    },
    /// A caller-assembled program.
    Inline {
        /// Display name for the report.
        name: String,
        /// The program image.
        program: Program,
    },
    /// One SimPoint checkpoint of a profiled kernel, simulated as a
    /// warm-up + measured detail window (§III-D3). The checkpoint
    /// itself rides along behind an `Arc` — its sparse memory image is
    /// copy-on-write, so clones across the worker pool stay cheap — and
    /// the recipe fields `(kernel, ref_model, interval_len, interval)`
    /// re-derive it exactly (see `checkpoint::checkpoint_at_interval`),
    /// which is what triage bundles store.
    Sample {
        /// Profiled kernel name, e.g. `"sjeng"`.
        kernel: String,
        /// Profiling personality the checkpoint came from.
        ref_model: String,
        /// Profiling interval length, instructions.
        interval_len: u64,
        /// Warm-up instruction budget before measurement.
        warmup: u64,
        /// Measured-window instruction budget.
        window: u64,
        /// The checkpoint to resume from.
        checkpoint: std::sync::Arc<checkpoint::Checkpoint>,
    },
}

impl WorkloadSource {
    /// A full torture program from `seed`.
    pub fn torture(seed: u64, cfg: TortureConfig) -> Self {
        WorkloadSource::Torture {
            seed,
            cfg,
            keep: None,
        }
    }

    /// A named kernel.
    pub fn kernel(name: impl Into<String>) -> Self {
        WorkloadSource::Kernel { name: name.into() }
    }

    /// A full litmus program from `seed`.
    pub fn litmus(seed: u64, cfg: LitmusConfig) -> Self {
        WorkloadSource::Litmus {
            seed,
            cfg,
            keep: None,
        }
    }

    /// An inline program.
    pub fn inline(name: impl Into<String>, program: Program) -> Self {
        WorkloadSource::Inline {
            name: name.into(),
            program,
        }
    }

    /// Stable display label used in reports.
    pub fn describe(&self) -> String {
        match self {
            WorkloadSource::Kernel { name } => format!("kernel:{name}"),
            WorkloadSource::Torture { seed, .. } => format!("torture:seed={seed}"),
            WorkloadSource::Litmus { seed, cfg, .. } => {
                format!("litmus:{}:seed={seed}", cfg.shape.slug())
            }
            WorkloadSource::Inline { name, .. } => format!("inline:{name}"),
            WorkloadSource::Sample {
                kernel, checkpoint, ..
            } => format!("sample:{kernel}:interval={}", checkpoint.interval),
        }
    }

    /// Assemble the program this source describes.
    pub fn build(&self) -> Program {
        match self {
            WorkloadSource::Kernel { name } => workloads::workload(name, Scale::Test).program,
            WorkloadSource::Torture { seed, cfg, keep } => {
                let t = TortureProgram::generate(*seed, cfg);
                match keep {
                    Some(mask) => t.emit_subset(mask),
                    None => t.emit(),
                }
            }
            WorkloadSource::Litmus { seed, cfg, keep } => {
                let p = LitmusProgram::generate(*seed, cfg);
                match keep {
                    Some(mask) => p.emit_subset(mask),
                    None => p.emit(),
                }
            }
            WorkloadSource::Inline { program, .. } => program.clone(),
            // Sample jobs don't run a program from reset — the runner
            // resumes from the checkpoint state instead — but the
            // underlying kernel is still the meaningful answer here
            // (triage re-derives checkpoints by profiling it).
            WorkloadSource::Sample { kernel, .. } => {
                workloads::workload(kernel, Scale::Test).program
            }
        }
    }
}

/// One campaign job: a workload on a configuration, with run limits.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// The program recipe.
    pub workload: WorkloadSource,
    /// Configuration preset slug (see [`XsConfig::preset_names`]).
    pub config: String,
    /// Core-count override (None keeps the preset's).
    pub cores: Option<usize>,
    /// Deliberate DUT corruption (verification-flow tests only).
    pub injected_bug: Option<InjectedBug>,
    /// Arm the §IV-C L2 probe/grant race fault in core 0's L2
    /// (verification-flow tests only).
    pub inject_l2_race: bool,
    /// Cycle budget; exceeding it is a [`Timeout`](crate::Verdict::Timeout).
    pub max_cycles: u64,
    /// LightSSS snapshot interval (None disables snapshots).
    pub lightsss_interval: Option<u64>,
    /// Enable per-cycle telemetry (occupancy and latency histograms).
    pub telemetry: bool,
    /// Stream full per-instruction lifecycle traces into ArchDB (the
    /// cheap ring and digest are always on regardless).
    pub lifecycle: bool,
    /// Collect coverage maps (decode, diff-rule, pipeline-event); the
    /// record's `coverage` field is populated only when set.
    pub coverage: bool,
    /// Per-attempt wall-clock limit, milliseconds (None defers to the
    /// campaign-level policy). Exhausting every attempt is a
    /// [`WallTimeout`](crate::Verdict::WallTimeout).
    pub wall_timeout_ms: Option<u64>,
}

impl JobSpec {
    /// A job with default limits (40 M cycles, no snapshots).
    pub fn new(workload: WorkloadSource, config: impl Into<String>) -> Self {
        JobSpec {
            workload,
            config: config.into(),
            cores: None,
            injected_bug: None,
            inject_l2_race: false,
            max_cycles: 40_000_000,
            lightsss_interval: None,
            telemetry: false,
            lifecycle: false,
            coverage: false,
            wall_timeout_ms: None,
        }
    }

    /// Override the preset's core count.
    pub fn with_cores(mut self, cores: usize) -> Self {
        self.cores = Some(cores);
        self
    }

    /// Arm a deliberate DUT bug.
    pub fn with_injected_bug(mut self, bug: InjectedBug) -> Self {
        self.injected_bug = Some(bug);
        self
    }

    /// Arm the §IV-C L2 probe/grant race fault.
    pub fn with_l2_race(mut self) -> Self {
        self.inject_l2_race = true;
        self
    }

    /// Set the cycle budget.
    pub fn with_max_cycles(mut self, max_cycles: u64) -> Self {
        self.max_cycles = max_cycles;
        self
    }

    /// Enable LightSSS with the given snapshot interval.
    pub fn with_lightsss(mut self, interval: u64) -> Self {
        self.lightsss_interval = Some(interval);
        self
    }

    /// Enable per-cycle telemetry (occupancy and latency histograms).
    pub fn with_telemetry(mut self) -> Self {
        self.telemetry = true;
        self
    }

    /// Enable full-trace lifecycle streaming for this job.
    pub fn with_lifecycle(mut self) -> Self {
        self.lifecycle = true;
        self
    }

    /// Enable coverage-map collection for this job.
    pub fn with_coverage(mut self) -> Self {
        self.coverage = true;
        self
    }

    /// Set a per-attempt wall-clock limit for this job (overrides the
    /// campaign-level policy).
    pub fn with_wall_timeout_ms(mut self, ms: u64) -> Self {
        self.wall_timeout_ms = Some(ms);
        self
    }

    /// Resolve the preset slug and apply the job's overrides.
    pub fn build_config(&self) -> Option<XsConfig> {
        let mut cfg = XsConfig::preset(&self.config)?;
        if let Some(cores) = self.cores {
            cfg.cores = cores;
        }
        if let Some(bug) = self.injected_bug {
            cfg.injected_bug = Some(bug);
        }
        if self.inject_l2_race {
            cfg = cfg.with_l2_race();
        }
        if self.telemetry {
            cfg = cfg.with_telemetry();
        }
        if self.lifecycle {
            cfg = cfg.with_lifecycle();
        }
        if self.coverage {
            cfg = cfg.with_coverage();
        }
        Some(cfg)
    }
}

/// The variant name of a [`DiffError`] — campaigns group and match
/// divergences by this class.
pub fn error_class(e: &DiffError) -> &'static str {
    match e {
        DiffError::Pc { .. } => "Pc",
        DiffError::Writeback { .. } => "Writeback",
        DiffError::Trap { .. } => "Trap",
        DiffError::RepeatedForcedEvent { .. } => "RepeatedForcedEvent",
        DiffError::State { .. } => "State",
        DiffError::Csr { .. } => "Csr",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_labels_are_stable() {
        assert_eq!(WorkloadSource::kernel("sjeng").describe(), "kernel:sjeng");
        assert_eq!(
            WorkloadSource::torture(7, TortureConfig::default()).describe(),
            "torture:seed=7"
        );
        assert_eq!(
            WorkloadSource::litmus(3, LitmusConfig::default()).describe(),
            "litmus:mp:seed=3"
        );
    }

    #[test]
    fn litmus_source_build_honours_mask() {
        let cfg = LitmusConfig::default();
        let full = WorkloadSource::litmus(5, cfg).build();
        let keep = vec![false; cfg.rounds];
        let empty = WorkloadSource::Litmus {
            seed: 5,
            cfg,
            keep: Some(keep),
        }
        .build();
        assert!(empty.bytes.len() < full.bytes.len());
    }

    #[test]
    fn config_resolution_applies_overrides() {
        let j = JobSpec::new(WorkloadSource::kernel("mcf"), "small-nh")
            .with_cores(2)
            .with_injected_bug(InjectedBug::MulLowBit);
        let c = j.build_config().unwrap();
        assert_eq!(c.cores, 2);
        assert_eq!(c.injected_bug, Some(InjectedBug::MulLowBit));
        assert!(JobSpec::new(WorkloadSource::kernel("mcf"), "bogus")
            .build_config()
            .is_none());
    }

    #[test]
    fn torture_source_build_honours_mask() {
        let cfg = TortureConfig::default();
        let full = WorkloadSource::torture(3, cfg).build();
        let t = TortureProgram::generate(3, &cfg);
        let keep = vec![false; t.len()];
        let empty = WorkloadSource::Torture {
            seed: 3,
            cfg,
            keep: Some(keep),
        }
        .build();
        assert!(empty.bytes.len() < full.bytes.len());
    }
}
