//! The integrated co-simulation harness — "Put It All Together" (§III-E).
//!
//! [`CoSim`] wires a [`xscore::XsSystem`] DUT, per-hart NEMU REFs under
//! [`DiffTest`], the [`LightSss`] snapshot manager, and [`ArchDb`] event
//! recording into the paper's workflow: launch the simulation, and when
//! DiffTest reports a mismatch, roll back to the older snapshot and
//! replay with debugging information enabled.

use crate::archdb::ArchDb;
use crate::difftest::{DiffError, DiffTest, GlobalMemory, NemuRef};
use crate::lightsss::{LightSss, Snapshotable};
use riscv_isa::asm::Program;
use riscv_isa::mem::SparseMemory;
use riscv_isa::state::ArchState;
use xscore::{XsConfig, XsSystem};

/// The snapshotable simulation state: the DUT and the verification state
/// move through time together, so a snapshot captures both.
#[derive(Clone)]
pub struct CoSimState {
    /// The device under test.
    pub sys: XsSystem,
    /// The DiffTest engine (REF harts + global memory + rule stats).
    pub diff: DiffTest<NemuRef>,
}

impl Snapshotable for CoSimState {
    fn time(&self) -> u64 {
        self.sys.cores[0].cycle()
    }
    fn serialize_full(&self) -> Vec<u8> {
        // The SSS baseline: eagerly serialize the bulk state — backing
        // memory plus the complete cache arrays (the paper's SSS snapshots
        // "the entire circuit state of DUT").
        let mut blob = self.sys.mem.serialize_full_state();
        for c in &self.sys.cores {
            blob.extend_from_slice(
                serde_json::to_string(&c.arch_state())
                    .expect("arch state serializes")
                    .as_bytes(),
            );
        }
        blob
    }
}

/// Why a co-simulation ended.
#[derive(Debug)]
pub enum CoSimEnd {
    /// All harts halted; exit code of hart 0.
    Halted(u64),
    /// Cycle budget exhausted.
    OutOfCycles,
    /// DiffTest reported a bug.
    Bug(BugReport),
}

/// A detected bug, with the LightSSS replay debrief.
#[derive(Debug)]
pub struct BugReport {
    /// The divergence DiffTest reported.
    pub error: DiffError,
    /// Cycle at which the divergence was detected.
    pub at_cycle: u64,
    /// Commit index (commits checked, across harts) at which the
    /// divergence was detected — the anchor a deterministic replay must
    /// hit again.
    pub at_commit: u64,
    /// Replay information, when LightSSS was enabled.
    pub replay: Option<ReplayReport>,
}

/// The result of the on-demand debug-mode replay (§III-C3).
#[derive(Debug)]
pub struct ReplayReport {
    /// Cycle of the snapshot the replay started from (0 for the
    /// reset-state fallback).
    pub from_cycle: u64,
    /// True when no snapshot had been retained yet and the replay fell
    /// back to the reset state.
    pub fallback_reset: bool,
    /// Cycles re-simulated (bounded by 2 × interval when a snapshot was
    /// available).
    pub cycles_replayed: u64,
    /// The error reproduced identically.
    pub reproduced: bool,
    /// Commit index at which the replay reproduced the error (0 when it
    /// did not reproduce).
    pub at_commit: u64,
    /// CPI stack of the replayed window alone (end minus start).
    pub window_cpi: xscore::CpiStack,
    /// Events captured in debug mode during the replay.
    pub trace: ArchDb,
}

/// The co-simulation harness.
pub struct CoSim {
    /// Live simulation state.
    pub state: CoSimState,
    /// The reset state (a COW clone taken at boot): the rollback target
    /// when a failure strikes before the first snapshot interval.
    reset: Box<CoSimState>,
    /// Snapshot manager (None disables LightSSS).
    pub lightsss: Option<LightSss<CoSimState>>,
    /// Event database (populated in debug mode).
    pub archdb: ArchDb,
    /// Debug mode: record commit/drain events into ArchDB. Slows the
    /// simulation — which is the very reason LightSSS exists.
    pub debug_mode: bool,
    /// Reused per-step output buffer (keeps the hot loop allocation-free).
    outs_buf: Vec<xscore::CycleOutput>,
}

/// Per-table row cap of the bounded trace a debug-mode replay records.
const REPLAY_TRACE_CAP: usize = 65_536;

/// Per-table row cap of the full lifecycle trace streamed under
/// `XsConfig::lifecycle` — keeps the newest window so a long run cannot
/// grow the database without bound.
const LIFECYCLE_TRACE_CAP: usize = 262_144;

/// Idle-skip bound of a standalone [`CoSim::step_cycle`] call (callers
/// driving the loop themselves supply their own deadline through
/// [`CoSim::step_cycle_until`]).
const MAX_STANDALONE_SKIP: u64 = 1 << 20;

impl CoSim {
    /// Boot a program under co-simulation.
    pub fn new(cfg: XsConfig, program: &Program) -> Self {
        let diff = DiffTest::for_program(program, cfg.cores);
        let (coverage, lifecycle) = (cfg.coverage, cfg.lifecycle);
        Self::boot(XsSystem::new(cfg, program), diff, coverage, lifecycle)
    }

    /// Boot co-simulation from an architectural checkpoint: the DUT is
    /// rebuilt over the checkpointed memory image with core 0 restored
    /// to the checkpointed state, and the DiffTest REF is a [`NemuRef`]
    /// resumed from the same state — so commits are verified from the
    /// first restored instruction on, exactly as in a from-reset run.
    /// Checkpoints are single-hart (§III-D3 profiles one hart), so the
    /// configuration is clamped to one core.
    pub fn from_checkpoint(mut cfg: XsConfig, state: &ArchState, memory: &SparseMemory) -> Self {
        cfg.cores = 1;
        let (coverage, lifecycle) = (cfg.coverage, cfg.lifecycle);
        let mut sys = XsSystem::from_memory(cfg, memory.clone(), state.pc);
        sys.restore(state);
        let diff = DiffTest::new(
            vec![NemuRef::from_state(state.clone(), memory.clone())],
            GlobalMemory::from_memory(memory.clone()),
        );
        Self::boot(sys, diff, coverage, lifecycle)
    }

    fn boot(sys: XsSystem, mut diff: DiffTest<NemuRef>, coverage: bool, lifecycle: bool) -> Self {
        if coverage {
            diff.coverage = Some(crate::coverage::CommitCoverage::default());
        }
        let state = CoSimState { sys, diff };
        CoSim {
            reset: Box::new(state.clone()),
            state,
            lightsss: None,
            // Full-trace mode streams a lifecycle record per finished uop;
            // bound the database so the stream keeps only the newest window.
            archdb: if lifecycle {
                ArchDb::bounded(LIFECYCLE_TRACE_CAP)
            } else {
                ArchDb::new()
            },
            debug_mode: false,
            outs_buf: Vec::new(),
        }
    }

    /// Build a debug-mode harness resuming from a snapshot (or salvaged)
    /// state: commit/drain tracing on, bounded trace, no snapshots.
    pub fn debug_resume(state: CoSimState) -> Self {
        CoSim {
            reset: Box::new(state.clone()),
            state,
            lightsss: None,
            archdb: ArchDb::bounded(REPLAY_TRACE_CAP),
            debug_mode: true,
            outs_buf: Vec::new(),
        }
    }

    /// The reset state captured at boot.
    pub fn reset_state(&self) -> &CoSimState {
        &self.reset
    }

    /// Enable LightSSS with the given snapshot interval (cycles).
    pub fn with_lightsss(mut self, interval: u64) -> Self {
        self.lightsss = Some(LightSss::new(interval));
        self
    }

    /// Advance one cycle, verifying every commit.
    ///
    /// When the event-driven skipper is on, the step may additionally
    /// jump over a bounded idle span (see [`CoSim::step_cycle_until`]).
    ///
    /// # Errors
    ///
    /// The first [`DiffError`] found.
    pub fn step_cycle(&mut self) -> Result<(), DiffError> {
        // Standalone steps bound the idle skip so a scheduling bug (an
        // event that was never queued) degrades into early landings
        // instead of a single jump to the caller's whole budget.
        let cap = self.state.time().saturating_add(MAX_STANDALONE_SKIP);
        self.step_cycle_until(cap)
    }

    /// Advance one cycle, then — when `XsConfig::event_driven` is on and
    /// no core made progress — skip ahead to just before the next
    /// scheduled event, but never past `limit` or past the next LightSSS
    /// snapshot-due cycle (snapshots must be captured at the same cycles
    /// as a cycle-by-cycle run so their state is byte-identical).
    ///
    /// # Errors
    ///
    /// The first [`DiffError`] found.
    pub fn step_cycle_until(&mut self, mut limit: u64) -> Result<(), DiffError> {
        if let Some(l) = &mut self.lightsss {
            l.tick(&self.state);
            limit = limit.min(l.next_due());
        }
        // Temporarily take the scratch buffer so the borrow checker sees
        // disjoint access to `state.sys` and the rest of `self` below.
        let mut outs = std::mem::take(&mut self.outs_buf);
        self.state.sys.tick_skipping_into(limit, &mut outs);
        // Commits are checked before this cycle's drains are applied to
        // the Global Memory: a value read by a committed instruction
        // predates stores that reach memory in the same cycle.
        for out in &outs {
            for c in &out.commits {
                if self.debug_mode {
                    self.archdb.insert("instr_commit", c.cycle, c);
                }
                self.state.diff.on_commit(c)?;
                if c.halted {
                    // Final full-state comparison for this hart.
                    let dut_state = self.state.sys.cores[c.hart].arch_state();
                    self.state.diff.compare_state(c.hart, &dut_state)?;
                }
            }
        }
        for out in &outs {
            for d in &out.drains {
                self.state.diff.on_sbuffer_drain(d);
                if self.debug_mode {
                    self.archdb.insert("sbuffer_drain", d.cycle, d);
                }
            }
        }
        // Drain full-trace lifecycle records (empty unless
        // `XsConfig::lifecycle` is on, so this is free on the default path).
        for core in &mut self.state.sys.cores {
            for rec in core.take_lifecycle_trace() {
                self.archdb.insert("lifecycle", rec.end_cycle(), &rec);
            }
        }
        // An early `?` above forfeits the buffer — fine, errors end the run.
        self.outs_buf = outs;
        Ok(())
    }

    /// Run to completion, with automatic LightSSS replay on a bug.
    ///
    /// `max_cycles` is a simulated-cycle budget (not a step count): with
    /// the event-driven skipper on, one step may consume many cycles.
    pub fn run(&mut self, max_cycles: u64) -> CoSimEnd {
        let deadline = self.state.time().saturating_add(max_cycles);
        while self.state.time() < deadline {
            if self.state.sys.all_halted() {
                return CoSimEnd::Halted(self.state.sys.cores[0].halted.unwrap_or(0));
            }
            if let Err(error) = self.step_cycle_until(deadline) {
                let at_cycle = self.state.time();
                let at_commit = self.state.diff.commits_checked;
                let replay = self.replay(&error);
                return CoSimEnd::Bug(BugReport {
                    error,
                    at_cycle,
                    at_commit,
                    replay,
                });
            }
        }
        CoSimEnd::OutOfCycles
    }

    /// On-demand debugging: restore the older snapshot and re-simulate in
    /// debug mode until the error reproduces (§III-C3, Fig. 5d).
    ///
    /// Returns `None` only when LightSSS is disabled entirely. When the
    /// failure strikes before the first snapshot interval — so no
    /// snapshot has been retained — the replay falls back to the reset
    /// state instead of panicking on `oldest()`, starting from cycle 0.
    pub fn replay(&self, original: &DiffError) -> Option<ReplayReport> {
        let lightsss = self.lightsss.as_ref()?;
        let (from_cycle, start, fallback_reset) = match lightsss.oldest() {
            Some(snap) => (snap.at, snap.state.clone(), false),
            None => (0, (*self.reset).clone(), true),
        };
        // Bounded trace: a runaway replay (large interval, slow
        // reproduction) keeps only the newest window per table instead of
        // growing without limit.
        let mut replayed = CoSim::debug_resume(start);
        let budget = if fallback_reset {
            // The whole failing prefix is the window: reset → failure.
            self.state.time() + 10_000
        } else {
            4 * lightsss.interval + 10_000
        };
        let start_cpi = crate::telemetry::PerfSnapshot::collect(&replayed.state.sys).cpi_stack();
        let mut reproduced = false;
        let mut at_commit = 0;
        let deadline = replayed.state.time().saturating_add(budget);
        while replayed.state.time() < deadline {
            if replayed.state.sys.all_halted() {
                break;
            }
            match replayed.step_cycle_until(deadline) {
                Ok(()) => {}
                Err(e) => {
                    reproduced = &e == original;
                    at_commit = replayed.state.diff.commits_checked;
                    break;
                }
            }
        }
        let end_cpi = crate::telemetry::PerfSnapshot::collect(&replayed.state.sys).cpi_stack();
        Some(ReplayReport {
            from_cycle,
            fallback_reset,
            cycles_replayed: replayed.state.time().saturating_sub(from_cycle),
            reproduced,
            at_commit,
            window_cpi: end_cpi.saturating_sub(&start_cpi),
            trace: replayed.archdb,
        })
    }
}

/// Render a caught panic payload as text.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic with non-string payload".into())
}

/// Outcome and summary statistics of one isolated co-simulation run.
#[derive(Debug)]
pub struct RunStats {
    /// Why the run ended.
    pub end: CoSimEnd,
    /// Cycles simulated.
    pub cycles: u64,
    /// Commits DiffTest verified.
    pub commits_checked: u64,
    /// Instructions retired, summed over harts.
    pub instret: u64,
    /// Architectural exceptions taken, summed over harts.
    pub exceptions: u64,
    /// Diff-rule applications (rule name → count), sorted by name.
    pub rule_counts: Vec<(String, u64)>,
    /// Unified cross-layer performance snapshot at the end of the run.
    pub perf: crate::telemetry::PerfSnapshot,
    /// Coverage map of the run (`Some` only under `XsConfig::coverage`).
    pub coverage: Option<crate::coverage::CoverageMap>,
    /// The always-on lifecycle ring: the last
    /// [`xscore::LIFECYCLE_RING_CAP`] finished uops per core (core order),
    /// snapshotted at the end of the run for crash triage.
    pub lifecycle_ring: Vec<xscore::Lifecycle>,
}

/// A rollback start point salvaged from a finished run, so a
/// campaign-level triage pass can re-execute the failure window after
/// `run_isolated` has already torn the harness down.
pub struct Salvage {
    /// Cycle of the salvaged state (0 for the reset fallback).
    pub snapshot_cycle: u64,
    /// True when no snapshot had been retained and the reset state was
    /// salvaged instead.
    pub fallback_reset: bool,
    /// The rollback state itself (COW clone — cheap).
    pub state: CoSimState,
}

/// Construct and run a co-simulation inside a panic boundary.
///
/// A campaign worker must survive a crashing job: any panic raised while
/// booting or stepping the simulation is caught and returned as its
/// message instead of unwinding into the worker's pool. The harness is
/// rebuilt from scratch inside the boundary, so no partially-unwound
/// state leaks out.
///
/// # Errors
///
/// The panic payload (as text) if the simulation panicked.
pub fn run_isolated(
    cfg: XsConfig,
    program: &Program,
    max_cycles: u64,
    lightsss_interval: Option<u64>,
) -> Result<RunStats, String> {
    run_isolated_salvaging(cfg, program, max_cycles, lightsss_interval).0
}

/// [`run_isolated`], additionally salvaging a rollback start point when
/// the run ends without its own replay debrief: on a cycle-budget
/// timeout (oldest snapshot, or the reset state), and on a divergence
/// with LightSSS disabled (reset state). A panic unwinds the harness, so
/// nothing can be salvaged on the `Err` path.
pub fn run_isolated_salvaging(
    cfg: XsConfig,
    program: &Program,
    max_cycles: u64,
    lightsss_interval: Option<u64>,
) -> (Result<RunStats, String>, Option<Salvage>) {
    let program = program.clone();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut cosim = CoSim::new(cfg, &program);
        if let Some(iv) = lightsss_interval {
            cosim = cosim.with_lightsss(iv);
        }
        let end = cosim.run(max_cycles);
        let salvage = match &end {
            CoSimEnd::OutOfCycles => Some(salvage_from(&cosim)),
            CoSimEnd::Bug(bug) if bug.replay.is_none() => Some(Salvage {
                snapshot_cycle: 0,
                fallback_reset: true,
                state: (*cosim.reset).clone(),
            }),
            _ => None,
        };
        let mut rule_counts: Vec<(String, u64)> = cosim
            .state
            .diff
            .stats
            .all()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        rule_counts.sort();
        let perf = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys);
        let coverage = cosim.state.diff.coverage.as_ref().map(|commit| {
            crate::coverage::CoverageMap::from_run(commit, &cosim.state.diff.stats, &perf)
        });
        let lifecycle_ring: Vec<xscore::Lifecycle> = cosim
            .state
            .sys
            .cores
            .iter()
            .flat_map(|c| c.lifecycle_ring())
            .collect();
        (
            RunStats {
                cycles: cosim.state.time(),
                commits_checked: cosim.state.diff.commits_checked,
                instret: cosim.state.sys.cores.iter().map(|c| c.instret()).sum(),
                exceptions: cosim.state.sys.cores.iter().map(|c| c.perf.exceptions).sum(),
                rule_counts,
                perf,
                coverage,
                lifecycle_ring,
                end,
            },
            salvage,
        )
    })) {
        Ok((stats, salvage)) => (Ok(stats), salvage),
        Err(payload) => (Err(panic_message(payload)), None),
    }
}

/// Why a checkpoint sample run ended.
#[derive(Debug)]
pub enum SampleEnd {
    /// The full measured window retired — the normal outcome.
    Window,
    /// The program halted before the window filled (checkpoints near
    /// the end of a run legitimately do this); exit code of hart 0.
    /// Whatever part of the window did retire was still measured.
    Halted(u64),
    /// Cycle budget exhausted before the window filled.
    OutOfCycles,
    /// DiffTest reported a bug while warming up or measuring.
    Bug(BugReport),
}

/// The measured detail window of one checkpoint sample (pure integers,
/// so the numbers can live in a deterministic report body).
#[derive(Debug, Clone)]
pub struct SampleWindowStats {
    /// Cycles the warm-up phase consumed.
    pub warmup_cycles: u64,
    /// Instructions the warm-up phase retired.
    pub warmup_instret: u64,
    /// Cycles of the measured window.
    pub window_cycles: u64,
    /// Instructions retired inside the measured window.
    pub window_instret: u64,
    /// CPI stack of the measured window alone (end minus warm-up end) —
    /// its components sum to `window_cycles × commit_width`, same
    /// identity as a whole-run stack.
    pub cpi: xscore::CpiStack,
}

/// Outcome and statistics of one isolated checkpoint sample run:
/// whole-run counters (from the restored state on) plus the measured
/// window carved out after warm-up.
#[derive(Debug)]
pub struct SampleStats {
    /// Why the sample ended.
    pub end: SampleEnd,
    /// Cycles simulated in total (warm-up + window).
    pub cycles: u64,
    /// Commits DiffTest verified.
    pub commits_checked: u64,
    /// Instructions retired since the restore.
    pub instret: u64,
    /// Architectural exceptions taken.
    pub exceptions: u64,
    /// Diff-rule applications (rule name → count), sorted by name.
    pub rule_counts: Vec<(String, u64)>,
    /// Unified cross-layer performance snapshot at the end of the run.
    pub perf: crate::telemetry::PerfSnapshot,
    /// Coverage map (`Some` only under `XsConfig::coverage`).
    pub coverage: Option<crate::coverage::CoverageMap>,
    /// The always-on lifecycle ring, snapshotted at the end of the run.
    pub lifecycle_ring: Vec<xscore::Lifecycle>,
    /// The measured window.
    pub window: SampleWindowStats,
}

/// How one warm-up/window phase of a sample run ended.
enum PhaseEnd {
    /// The phase's instruction target retired.
    Reached,
    /// Every hart halted; exit code of hart 0.
    Halted(u64),
    /// The shared cycle deadline arrived first.
    OutOfCycles,
    /// DiffTest diverged.
    Bug(BugReport),
}

/// Drive `cosim` until core 0 has retired `target` instructions in
/// total, every hart halts, or `deadline` (absolute cycle) arrives.
fn run_phase_to_instret(cosim: &mut CoSim, target: u64, deadline: u64) -> PhaseEnd {
    loop {
        if cosim.state.sys.cores[0].instret() >= target {
            return PhaseEnd::Reached;
        }
        if cosim.state.sys.all_halted() {
            return PhaseEnd::Halted(cosim.state.sys.cores[0].halted.unwrap_or(0));
        }
        if cosim.state.time() >= deadline {
            return PhaseEnd::OutOfCycles;
        }
        if let Err(error) = cosim.step_cycle_until(deadline) {
            let at_cycle = cosim.state.time();
            let at_commit = cosim.state.diff.commits_checked;
            let replay = cosim.replay(&error);
            return PhaseEnd::Bug(BugReport {
                error,
                at_cycle,
                at_commit,
                replay,
            });
        }
    }
}

/// Resume a checkpoint on the cycle model inside a panic boundary, warm
/// caches and predictors for `warmup` instructions, then measure a
/// `window`-instruction detail window — the per-checkpoint half of the
/// paper's §III-D3 sampled-performance flow. DiffTest (against the
/// architectural stepper resumed from the same state) verifies every
/// commit of both phases, and LightSSS rollback/replay applies to
/// sample runs exactly as to from-reset runs.
///
/// # Errors
///
/// The panic payload (as text) if the simulation panicked.
pub fn run_isolated_checkpoint(
    cfg: XsConfig,
    state: &ArchState,
    memory: &SparseMemory,
    warmup: u64,
    window: u64,
    max_cycles: u64,
    lightsss_interval: Option<u64>,
) -> (Result<SampleStats, String>, Option<Salvage>) {
    let state = state.clone();
    let memory = memory.clone();
    match std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
        let mut cosim = CoSim::from_checkpoint(cfg, &state, &memory);
        if let Some(iv) = lightsss_interval {
            cosim = cosim.with_lightsss(iv);
        }
        let deadline = cosim.state.time().saturating_add(max_cycles);

        // Phase 1: warm-up. Caches, TLBs, and predictors start cold at a
        // restore — the paper warms them before measuring for exactly
        // this reason.
        let warm_end = run_phase_to_instret(&mut cosim, warmup, deadline);
        let warmup_cycles = cosim.state.time();
        let warmup_instret = cosim.state.sys.cores[0].instret();
        let warm_cpi = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();

        // Phase 2: the measured window (skipped if warm-up already ended
        // the run).
        let end = match warm_end {
            PhaseEnd::Reached => {
                match run_phase_to_instret(&mut cosim, warmup.saturating_add(window), deadline) {
                    PhaseEnd::Reached => SampleEnd::Window,
                    PhaseEnd::Halted(code) => SampleEnd::Halted(code),
                    PhaseEnd::OutOfCycles => SampleEnd::OutOfCycles,
                    PhaseEnd::Bug(bug) => SampleEnd::Bug(bug),
                }
            }
            PhaseEnd::Halted(code) => SampleEnd::Halted(code),
            PhaseEnd::OutOfCycles => SampleEnd::OutOfCycles,
            PhaseEnd::Bug(bug) => SampleEnd::Bug(bug),
        };

        let salvage = match &end {
            SampleEnd::OutOfCycles => Some(salvage_from(&cosim)),
            SampleEnd::Bug(bug) if bug.replay.is_none() => Some(Salvage {
                snapshot_cycle: 0,
                fallback_reset: true,
                state: (*cosim.reset).clone(),
            }),
            _ => None,
        };
        let end_cpi = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
        let mut rule_counts: Vec<(String, u64)> = cosim
            .state
            .diff
            .stats
            .all()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        rule_counts.sort();
        let perf = crate::telemetry::PerfSnapshot::collect(&cosim.state.sys);
        let coverage = cosim.state.diff.coverage.as_ref().map(|commit| {
            crate::coverage::CoverageMap::from_run(commit, &cosim.state.diff.stats, &perf)
        });
        let lifecycle_ring: Vec<xscore::Lifecycle> = cosim
            .state
            .sys
            .cores
            .iter()
            .flat_map(|c| c.lifecycle_ring())
            .collect();
        (
            SampleStats {
                cycles: cosim.state.time(),
                commits_checked: cosim.state.diff.commits_checked,
                instret: cosim.state.sys.cores[0].instret(),
                exceptions: cosim.state.sys.cores.iter().map(|c| c.perf.exceptions).sum(),
                rule_counts,
                perf,
                coverage,
                lifecycle_ring,
                window: SampleWindowStats {
                    warmup_cycles,
                    warmup_instret,
                    window_cycles: cosim.state.time().saturating_sub(warmup_cycles),
                    window_instret: cosim
                        .state
                        .sys
                        .cores[0]
                        .instret()
                        .saturating_sub(warmup_instret),
                    cpi: end_cpi.saturating_sub(&warm_cpi),
                },
                end,
            },
            salvage,
        )
    })) {
        Ok((stats, salvage)) => (Ok(stats), salvage),
        Err(payload) => (Err(panic_message(payload)), None),
    }
}

/// The preferred rollback start of a live harness: oldest retained
/// snapshot, falling back to the reset state.
fn salvage_from(cosim: &CoSim) -> Salvage {
    match cosim.lightsss.as_ref().and_then(LightSss::oldest) {
        Some(snap) => Salvage {
            snapshot_cycle: snap.at,
            fallback_reset: false,
            state: snap.state.clone(),
        },
        None => Salvage {
            snapshot_cycle: 0,
            fallback_reset: true,
            state: (*cosim.reset).clone(),
        },
    }
}

// The campaign runner shards CoSims across a worker pool, so the whole
// harness must cross thread boundaries.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<CoSim>();
    assert_send::<RunStats>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use riscv_isa::asm::{reg::*, Asm};

    fn tiny_cfg(cores: usize) -> XsConfig {
        let mut c = XsConfig::nh();
        c.cores = cores;
        c.l1i = uncore::CacheConfig::new("l1i", 8192, 2, 2, 4);
        c.l1d = uncore::CacheConfig::new("l1d", 8192, 2, 4, 8);
        c.l2 = uncore::CacheConfig::new("l2", 32768, 4, 10, 8);
        c.l3 = Some(uncore::CacheConfig::new("l3", 131072, 4, 20, 16));
        c.memory = xscore::MemoryModel::FixedAmat(40);
        c
    }

    fn branchy_program() -> Program {
        let mut a = Asm::new(0x8000_0000);
        a.li(S0, 0);
        a.li(S1, 4000);
        a.li(A0, 0);
        a.li(S2, 0x9e3779b97f4a7c15u64 as i64);
        let top = a.bound_label();
        let skip = a.label();
        a.mul(T0, S0, S2);
        a.srli(T1, T0, 33);
        a.andi(T1, T1, 1);
        a.beqz(T1, skip);
        a.xor(A0, A0, T0);
        a.bind(skip);
        a.addi(S0, S0, 1);
        a.bne(S0, S1, top);
        a.andi(A0, A0, 0xff);
        a.li(T5, 0x8002_0000);
        a.sd(A0, 0, T5);
        a.ld(A0, 0, T5);
        a.ebreak();
        let p = a.assemble();
        p
    }

    #[test]
    fn clean_run_verifies_every_commit() {
        let mut cosim = CoSim::new(tiny_cfg(1), &branchy_program());
        match cosim.run(500_000) {
            CoSimEnd::Halted(_) => {}
            other => panic!("{other:?}"),
        }
        assert!(cosim.state.diff.commits_checked > 2_000);
    }

    #[test]
    fn injected_wrong_value_is_caught_and_replayed() {
        let mut cosim =
            CoSim::new(tiny_cfg(1), &branchy_program()).with_lightsss(2_000);
        // Inject a DUT fault mid-run: corrupt the REF-invisible path by
        // flipping a bit in the DUT's architectural result. We simulate a
        // logic bug by corrupting the DUT's memory under it.
        let mut bug_armed = true;
        let mut end = None;
        for _ in 0..500_000 {
            if cosim.state.sys.all_halted() {
                end = Some(CoSimEnd::Halted(0));
                break;
            }
            if bug_armed && cosim.state.sys.cores[0].instret() >= 8_000 {
                // Inject a logic fault: corrupt the hash constant held in
                // s2. Every later multiplication commits a wrong value.
                cosim.state.sys.cores[0].inject_fault_gpr(18, 1 << 17);
                bug_armed = false;
            }
            if let Err(error) = cosim.step_cycle() {
                let at_cycle = cosim.state.time();
                let at_commit = cosim.state.diff.commits_checked;
                let replay = cosim.replay(&error);
                end = Some(CoSimEnd::Bug(BugReport {
                    error,
                    at_cycle,
                    at_commit,
                    replay,
                }));
                break;
            }
        }
        match end.expect("simulation ended") {
            CoSimEnd::Bug(report) => {
                assert!(matches!(report.error, DiffError::Writeback { .. }));
                let replay = report.replay.expect("lightsss enabled");
                assert!(replay.from_cycle <= report.at_cycle);
                assert!(!replay.fallback_reset, "snapshots were retained");
                assert!(
                    report.at_cycle - replay.from_cycle <= 2 * 2_000 + 2_000,
                    "replay window bounded"
                );
                // Debug-mode trace captured commit events around the bug.
                assert!(replay.trace.table("instr_commit").is_some());
                // The replayed window did real work: its CPI stack is live.
                assert!(replay.window_cpi.total() > 0);
            }
            other => panic!("expected a bug, got {other:?}"),
        }
    }

    #[test]
    fn divergence_before_first_snapshot_replays_from_reset() {
        // Regression (ISSUE 3 satellite): an interval larger than the
        // failure cycle leaves LightSSS with zero retained snapshots; the
        // replay must fall back to the reset state, not unwrap `oldest()`.
        // The very first committed instruction is a corrupted Mul, so the
        // co-sim diverges in cycle 1 of a fresh harness.
        let mut a = Asm::new(0x8000_0000);
        a.mul(A0, S0, S1);
        a.ebreak();
        let program = a.assemble();
        let mut cfg = tiny_cfg(1);
        cfg.injected_bug = Some(xscore::InjectedBug::MulLowBit);
        let mut cosim = CoSim::new(cfg, &program).with_lightsss(1 << 40);
        let end = cosim.run(500_000);
        let CoSimEnd::Bug(report) = end else {
            panic!("expected an immediate divergence, got {end:?}");
        };
        assert_eq!(report.at_commit, 1, "first commit diverges");
        assert_eq!(cosim.lightsss.as_ref().unwrap().retained(), 0);
        let replay = report.replay.expect("replay must not require a snapshot");
        assert!(replay.fallback_reset, "reset-state fallback taken");
        assert_eq!(replay.from_cycle, 0);
        assert!(replay.reproduced, "reset replay reproduces the divergence");
        assert_eq!(replay.at_commit, report.at_commit);
    }

    #[test]
    fn isolated_run_matches_direct_run() {
        let stats = run_isolated(tiny_cfg(1), &branchy_program(), 500_000, None)
            .expect("no panic");
        assert!(matches!(stats.end, CoSimEnd::Halted(_)));
        assert!(stats.commits_checked > 2_000);
        assert!(stats.instret > 0 && stats.cycles > 0);
    }

    #[test]
    fn isolated_run_catches_panics() {
        // An empty program image makes the frontend fetch unmapped
        // memory; whatever panic that raises must be contained.
        let bogus = Program {
            base: 0x8000_0000,
            entry: 0x8000_0000,
            bytes: Vec::new(),
        };
        let r = run_isolated(tiny_cfg(1), &bogus, 10_000, None);
        if let Err(msg) = r {
            assert!(!msg.is_empty());
        }
        // Either outcome is fine — the contract is only that a panic
        // never unwinds through `run_isolated`.
    }

    /// Run the architectural stepper to an arbitrary boundary and hand
    /// back the state + memory a checkpoint would carry.
    fn profile_to(program: &Program, insts: u64) -> (riscv_isa::state::ArchState, SparseMemory) {
        let mut mem = SparseMemory::new();
        program.load_into(&mut mem);
        let mut hart = nemu::hart::Hart::new(program.entry, 0);
        for _ in 0..insts {
            assert!(!hart.is_halted(), "boundary must precede the halt");
            nemu::hart::step(&mut hart, &mut mem);
        }
        (hart.state.clone(), mem)
    }

    #[test]
    fn checkpoint_resume_measures_a_verified_window() {
        let program = branchy_program();
        let (state, mem) = profile_to(&program, 5_000);
        let (res, salvage) =
            run_isolated_checkpoint(tiny_cfg(1), &state, &mem, 1_000, 2_000, 500_000, None);
        let stats = res.expect("no panic");
        assert!(matches!(stats.end, SampleEnd::Window), "{:?}", stats.end);
        assert!(salvage.is_none(), "window completion salvages nothing");
        // Both phases hit their instruction targets (modulo event-driven
        // overshoot) and every commit was verified against the REF.
        assert!(stats.window.warmup_instret >= 1_000);
        assert!(stats.window.window_instret >= 2_000);
        assert_eq!(stats.instret, stats.window.warmup_instret + stats.window.window_instret);
        assert!(stats.commits_checked >= stats.instret);
        // The window CPI stack obeys the same identity as a full run's.
        assert_eq!(
            stats.window.cpi.total(),
            stats.window.window_cycles * stats.perf.commit_width,
            "window CPI stack must account for every window slot"
        );
    }

    #[test]
    fn checkpoint_resume_catches_injected_bugs() {
        // The restored REF must keep verifying commits: a DUT corrupted
        // after the restore diverges inside the sample run.
        let program = branchy_program();
        let (state, mem) = profile_to(&program, 3_000);
        let mut cfg = tiny_cfg(1);
        cfg.injected_bug = Some(xscore::InjectedBug::MulLowBit);
        let (res, _) = run_isolated_checkpoint(cfg, &state, &mem, 500, 2_000, 500_000, None);
        let stats = res.expect("no panic");
        assert!(
            matches!(stats.end, SampleEnd::Bug(_)),
            "expected a divergence, got {:?}",
            stats.end
        );
    }

    #[test]
    fn checkpoint_resume_halts_cleanly_past_the_end() {
        // A window larger than the remaining program: the run halts and
        // reports the partial window instead of spinning.
        let program = branchy_program();
        let (state, mem) = profile_to(&program, 15_000);
        let (res, _) = run_isolated_checkpoint(
            tiny_cfg(1),
            &state,
            &mem,
            1_000,
            100_000_000,
            500_000,
            None,
        );
        let stats = res.expect("no panic");
        assert!(matches!(stats.end, SampleEnd::Halted(_)), "{:?}", stats.end);
        assert!(stats.window.window_instret > 0, "partial window measured");
    }

    #[test]
    fn snapshots_track_simulation() {
        let mut cosim = CoSim::new(tiny_cfg(1), &branchy_program()).with_lightsss(500);
        let _ = cosim.run(100_000);
        let l = cosim.lightsss.as_ref().unwrap();
        assert!(l.taken >= 2);
        assert!(l.retained() <= 2);
    }
}
