//! The traced run's drivers.
//!
//! Timing a layer from the outside needs a call boundary. The campaign
//! runner hides the co-simulation loop inside one call, so the traced run
//! drives the same work itself through the crates' public functions:
//! `CoSim::new`, `LightSss::tick`, `XsSystem::tick_skipping_into`,
//! `DiffTest::on_commit`, `ArchDb::insert`, `campaign::minimize`, the
//! `campaign::triage` functions, `nemu::registry::boot`,
//! `checkpoint::simpoints` and so on, in the same order as the runner,
//! `CoSim::run`, `CoSim::replay`, `run_isolated_checkpoint`,
//! `run_sampled` and `generate_checkpoints_with_ref` do. The traced run
//! then checks that it reproduced the untraced run's deterministic body
//! byte for byte (cycles, commits, verdicts, bundles, sampling).

use crate::trace::{Acc, Recorder};
use crate::work::{self, Inputs, Outcome, Profiled, Workload, WORKERS};
use campaign::triage::{triage_divergence, triage_forbidden, triage_panic, triage_timeout};
use campaign::{
    error_class, minimize, CampaignReport, CampaignSummary, JobRecord, JobSpec, MinimizedRepro,
    ReplayWindow, SampleRecord, SamplingPhase, SamplingSummary, Verdict, WallClock, WorkloadSource,
};
use checkpoint::{simpoints, BbvCollector, Checkpoint, CheckpointSet, CLUSTER_SEED};
use minjie::{
    BugReport, CoSim, CoSimEnd, DiffError, PerfSnapshot, ReplayReport, Salvage, Snapshotable,
};
use riscv_isa::asm::Program;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Instant;
use workloads::{LitmusExit, LitmusProgram, TortureProgram};
use xscore::CycleOutput;

/// Minimizer re-run cycle budget (the runner's `MINIMIZE_MAX_CYCLES`).
const MINIMIZE_MAX_CYCLES: u64 = 20_000_000;

/// Per-layer accumulators of one co-simulation loop.
#[derive(Default)]
struct Loop {
    tick: Acc,
    cycles: u64,
    difftest: Acc,
    lightsss: Acc,
    archdb: Acc,
    archdb_rows: u64,
}

impl Loop {
    /// Record the accumulated layers under the open span.
    fn flush(&self, rec: &mut Recorder) {
        self.tick.flush(rec, "xscore.tick");
        self.difftest.flush(rec, "minjie.difftest");
        self.lightsss.flush(rec, "minjie.lightsss");
        self.archdb.flush(rec, "minjie.archdb");
        rec.count("xscore.tick_calls", self.tick.calls);
        rec.count("xscore.cycles", self.cycles);
        rec.count("minjie.archdb_rows", self.archdb_rows);
    }
}

/// One step of `CoSim::step_cycle_until`, each layer timed.
fn step(
    cosim: &mut CoSim,
    mut limit: u64,
    outs: &mut Vec<CycleOutput>,
    acc: &mut Loop,
) -> Result<(), DiffError> {
    if let Some(l) = &mut cosim.lightsss {
        let t0 = Instant::now();
        l.tick(&cosim.state);
        acc.lightsss.add(t0, Instant::now());
        limit = limit.min(l.next_due());
    }
    let before = cosim.state.time();
    let t0 = Instant::now();
    cosim.state.sys.tick_skipping_into(limit, outs);
    let t1 = Instant::now();
    acc.tick.add(t0, t1);
    acc.cycles += cosim.state.time() - before;

    // Commits are checked before this cycle's drains reach the Global
    // Memory, exactly as in `CoSim::step_cycle_until`.
    let mut archdb_ns = 0u64;
    let mut rows = 0u64;
    let checked = (|| {
        for out in outs.iter() {
            for c in &out.commits {
                if cosim.debug_mode {
                    let a = Instant::now();
                    cosim.archdb.insert("instr_commit", c.cycle, c);
                    archdb_ns += a.elapsed().as_nanos() as u64;
                    rows += 1;
                }
                cosim.state.diff.on_commit(c)?;
                if c.halted {
                    let dut_state = cosim.state.sys.cores[c.hart].arch_state();
                    cosim.state.diff.compare_state(c.hart, &dut_state)?;
                }
            }
        }
        for out in outs.iter() {
            for d in &out.drains {
                cosim.state.diff.on_sbuffer_drain(d);
                if cosim.debug_mode {
                    let a = Instant::now();
                    cosim.archdb.insert("sbuffer_drain", d.cycle, d);
                    archdb_ns += a.elapsed().as_nanos() as u64;
                    rows += 1;
                }
            }
        }
        Ok(())
    })();
    let t2 = Instant::now();
    acc.difftest.first.get_or_insert(t1);
    acc.difftest.ns += ((t2 - t1).as_nanos() as u64).saturating_sub(archdb_ns);
    acc.difftest.calls += 1;
    checked?;

    let mut lifecycle = 0u64;
    for core in &mut cosim.state.sys.cores {
        for rec in core.take_lifecycle_trace() {
            cosim.archdb.insert("lifecycle", rec.end_cycle(), &rec);
            lifecycle += 1;
        }
    }
    let t3 = Instant::now();
    if rows + lifecycle > 0 {
        acc.archdb.first.get_or_insert(t1);
        acc.archdb.ns += archdb_ns + (t3 - t2).as_nanos() as u64;
        acc.archdb.calls += rows + lifecycle;
        acc.archdb_rows += rows + lifecycle;
    }
    Ok(())
}

/// `CoSim::replay`, with the debug-mode ArchDB inserts timed.
fn replay(cosim: &CoSim, original: &DiffError, rec: &mut Recorder) -> Option<ReplayReport> {
    let lightsss = cosim.lightsss.as_ref()?;
    rec.span("minjie.replay", |rec| {
        let (from_cycle, start, fallback_reset) = match lightsss.oldest() {
            Some(snap) => (snap.at, snap.state.clone(), false),
            None => (0, cosim.reset_state().clone(), true),
        };
        let mut replayed = CoSim::debug_resume(start);
        let budget = if fallback_reset {
            cosim.state.time() + 10_000
        } else {
            4 * lightsss.interval + 10_000
        };
        let start_cpi = PerfSnapshot::collect(&replayed.state.sys).cpi_stack();
        let mut reproduced = false;
        let mut at_commit = 0;
        let deadline = replayed.state.time().saturating_add(budget);
        let mut outs = Vec::new();
        let mut acc = Loop::default();
        while replayed.state.time() < deadline {
            if replayed.state.sys.all_halted() {
                break;
            }
            if let Err(e) = step(&mut replayed, deadline, &mut outs, &mut acc) {
                reproduced = &e == original;
                at_commit = replayed.state.diff.commits_checked;
                break;
            }
        }
        // The replay's own ticks and checks stay in its self time; only
        // the debug-mode recording is split out.
        acc.archdb.flush(rec, "minjie.archdb");
        rec.count("minjie.archdb_rows", acc.archdb_rows);
        rec.count("minjie.replay_cycles", replayed.state.time() - from_cycle);
        let end_cpi = PerfSnapshot::collect(&replayed.state.sys).cpi_stack();
        Some(ReplayReport {
            from_cycle,
            fallback_reset,
            cycles_replayed: replayed.state.time().saturating_sub(from_cycle),
            reproduced,
            at_commit,
            window_cpi: end_cpi.saturating_sub(&start_cpi),
            trace: replayed.archdb,
        })
    })
}

/// Turn a step error into the bug report `CoSim::run` builds.
fn bug_report(cosim: &CoSim, error: DiffError, rec: &mut Recorder) -> BugReport {
    let at_cycle = cosim.state.time();
    let at_commit = cosim.state.diff.commits_checked;
    let replay = replay(cosim, &error, rec);
    BugReport {
        error,
        at_cycle,
        at_commit,
        replay,
    }
}

/// The oldest retained snapshot, or the reset state.
fn salvage_from(cosim: &CoSim) -> Salvage {
    match cosim.lightsss.as_ref().and_then(|l| l.oldest()) {
        Some(snap) => Salvage {
            snapshot_cycle: snap.at,
            fallback_reset: false,
            state: snap.state.clone(),
        },
        None => Salvage {
            snapshot_cycle: 0,
            fallback_reset: true,
            state: cosim.reset_state().clone(),
        },
    }
}

/// Fill the record's run statistics from a finished harness.
fn fill_stats(record: &mut JobRecord, cosim: &CoSim, instret: u64, rec: &mut Recorder) {
    rec.span("minjie.stats", |_| {
        let mut rule_counts: Vec<(String, u64)> = cosim
            .state
            .diff
            .stats
            .all()
            .iter()
            .map(|(k, &v)| (k.clone(), v))
            .collect();
        rule_counts.sort();
        let perf = PerfSnapshot::collect(&cosim.state.sys);
        record.coverage =
            cosim.state.diff.coverage.as_ref().map(|commit| {
                minjie::CoverageMap::from_run(commit, &cosim.state.diff.stats, &perf)
            });
        record.cycles = cosim.state.time();
        record.commits_checked = cosim.state.diff.commits_checked;
        record.instret = instret;
        record.exceptions = cosim
            .state
            .sys
            .cores
            .iter()
            .map(|c| c.perf.exceptions)
            .sum();
        record.ipc = if record.cycles > 0 {
            (instret as f64 / record.cycles as f64 * 1000.0).round() / 1000.0
        } else {
            0.0
        };
        record.rule_counts = rule_counts;
        record.perf = perf;
    });
}

fn lifecycle_ring(cosim: &CoSim) -> Vec<xscore::Lifecycle> {
    cosim
        .state
        .sys
        .cores
        .iter()
        .flat_map(|c| c.lifecycle_ring())
        .collect()
}

fn replay_window(bug: &BugReport) -> Option<ReplayWindow> {
    bug.replay.as_ref().map(|r| ReplayWindow {
        from_cycle: r.from_cycle,
        fallback_reset: r.fallback_reset,
        at_cycle: bug.at_cycle,
        at_commit: r.at_commit,
        cycles_replayed: r.cycles_replayed,
        reproduced: r.reproduced,
        trace_records: r.trace.records_inserted(),
    })
}

fn base_record(index: usize, spec: &JobSpec) -> JobRecord {
    JobRecord {
        index: index as u64,
        workload: spec.workload.describe(),
        config: spec.config.clone(),
        verdict: Verdict::Timeout,
        cycles: 0,
        commits_checked: 0,
        instret: 0,
        exceptions: 0,
        ipc: 0.0,
        rule_counts: Vec::new(),
        replay: None,
        minimized: None,
        triage: None,
        perf: PerfSnapshot::default(),
        coverage: None,
        sample: None,
    }
}

/// How a from-reset co-simulation ended, with what triage needs (one
/// short-lived value per job, so the variants stay unboxed).
#[allow(clippy::large_enum_variant)]
enum Ended {
    Halted(u64),
    OutOfCycles(Salvage),
    Bug(BugReport, Option<Salvage>),
}

/// One campaign job from reset, as the runner executes it.
fn reset_job(index: usize, spec: &JobSpec, rec: &mut Recorder) -> JobRecord {
    let mut record = base_record(index, spec);
    let Some(cfg) = spec.build_config() else {
        record.verdict = Verdict::Panicked {
            message: format!("unknown configuration preset `{}`", spec.config),
        };
        return record;
    };
    let program = rec.span("workloads.build", |_| spec.workload.build());
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut cosim = rec.span("minjie.boot", |_| {
            let c = CoSim::new(cfg, &program);
            match spec.lightsss_interval {
                Some(iv) => c.with_lightsss(iv),
                None => c,
            }
        });
        let mut acc = Loop::default();
        let deadline = cosim.state.time().saturating_add(spec.max_cycles);
        let mut outs = Vec::new();
        let mut ended = None;
        while cosim.state.time() < deadline {
            if cosim.state.sys.all_halted() {
                ended = Some(Ended::Halted(cosim.state.sys.cores[0].halted.unwrap_or(0)));
                break;
            }
            if let Err(error) = step(&mut cosim, deadline, &mut outs, &mut acc) {
                acc.flush(rec);
                let bug = bug_report(&cosim, error, rec);
                let salvage = bug.replay.is_none().then(|| Salvage {
                    snapshot_cycle: 0,
                    fallback_reset: true,
                    state: cosim.reset_state().clone(),
                });
                ended = Some(Ended::Bug(bug, salvage));
                break;
            }
        }
        if !matches!(ended, Some(Ended::Bug(..))) {
            acc.flush(rec);
        }
        count_lightsss(&cosim, rec);
        let ended = ended.unwrap_or_else(|| Ended::OutOfCycles(salvage_from(&cosim)));
        let instret = cosim.state.sys.cores.iter().map(|c| c.instret()).sum();
        fill_stats(&mut record, &cosim, instret, rec);
        (ended, lifecycle_ring(&cosim))
    }));
    match run {
        Err(payload) => {
            let message = minjie::panic_message(payload);
            record.triage = Some(rec.span("campaign.triage", |_| {
                triage_panic(index as u64, spec, &message)
            }));
            record.verdict = Verdict::Panicked { message };
        }
        Ok((Ended::Halted(exit_code), ring)) => {
            record.verdict = match litmus_forbidden(spec, exit_code) {
                Some(exit) => {
                    record.minimized =
                        rec.span("campaign.minimize", |rec| minimize_failure(spec, None, rec));
                    let (cycles, commits, minimized) = (
                        record.cycles,
                        record.commits_checked,
                        record.minimized.clone(),
                    );
                    record.triage = Some(rec.span("campaign.triage", |_| {
                        triage_forbidden(
                            index as u64,
                            spec,
                            exit_code,
                            cycles,
                            commits,
                            minimized,
                            ring,
                        )
                    }));
                    Verdict::ForbiddenOutcome {
                        round: exit.first_bad_round as u64,
                        outcome: exit.first_bad_outcome as u64,
                        outcome_desc: LitmusExit::describe_outcome(exit.first_bad_outcome),
                        exit_code,
                    }
                }
                None => Verdict::Halted { exit_code },
            };
        }
        Ok((Ended::OutOfCycles(salvage), ring)) => {
            let (cycles, commits) = (record.cycles, record.commits_checked);
            record.triage = Some(rec.span("campaign.triage", |_| {
                triage_timeout(index as u64, spec, salvage, cycles, commits, ring)
            }));
            record.verdict = Verdict::Timeout;
        }
        Ok((Ended::Bug(bug, salvage), ring)) => {
            record.replay = replay_window(&bug);
            record.minimized = rec.span("campaign.minimize", |rec| {
                minimize_failure(spec, Some(&bug.error), rec)
            });
            let minimized = record.minimized.clone();
            record.triage = Some(rec.span("campaign.triage", |_| {
                triage_divergence(index as u64, spec, &bug, salvage, minimized, ring)
            }));
            record.verdict = Verdict::Diverged { error: bug.error };
        }
    }
    record
}

fn count_lightsss(cosim: &CoSim, rec: &mut Recorder) {
    if let Some(l) = &cosim.lightsss {
        rec.count("minjie.lightsss_snapshots", l.taken);
    }
}

fn litmus_forbidden(spec: &JobSpec, exit_code: u64) -> Option<LitmusExit> {
    let WorkloadSource::Litmus { .. } = &spec.workload else {
        return None;
    };
    let exit = LitmusExit::decode(exit_code);
    exit.forbidden().then_some(exit)
}

/// The runner's ddmin pass: torture divergences (`error` set) shrink
/// while the same error class reproduces, litmus forbidden outcomes
/// (`error` None) while a forbidden outcome is committed.
fn minimize_failure(
    spec: &JobSpec,
    error: Option<&DiffError>,
    rec: &mut Recorder,
) -> Option<MinimizedRepro> {
    let budget = spec.max_cycles.min(MINIMIZE_MAX_CYCLES);
    let reruns = |program: Program| {
        let cfg = spec.build_config()?;
        minjie::run_isolated(cfg, &program, budget, None).ok()
    };
    let (seed, torture, litmus, initial, class, outcome) = match (&spec.workload, error) {
        (WorkloadSource::Torture { seed, cfg, keep }, Some(error)) => {
            let class = error_class(error);
            let t = TortureProgram::generate(*seed, cfg);
            let initial = keep.clone().unwrap_or_else(|| vec![true; t.len()]);
            let outcome = minimize(&initial, |mask| {
                matches!(reruns(t.emit_subset(mask)),
                    Some(minjie::RunStats { end: CoSimEnd::Bug(b), .. }) if error_class(&b.error) == class)
            });
            (*seed, Some(*cfg), None, initial, class.to_string(), outcome)
        }
        (WorkloadSource::Litmus { seed, cfg, keep }, None) => {
            let p = LitmusProgram::generate(*seed, cfg);
            let initial = keep.clone().unwrap_or_else(|| vec![true; p.len()]);
            let outcome = minimize(&initial, |mask| {
                matches!(reruns(p.emit_subset(mask)),
                    Some(minjie::RunStats { end: CoSimEnd::Halted(code), .. }) if LitmusExit::decode(code).forbidden())
            });
            (
                *seed,
                None,
                Some(*cfg),
                initial,
                "ForbiddenOutcome".to_string(),
                outcome,
            )
        }
        _ => return None,
    };
    rec.count("campaign.minimizer_runs", outcome.runs);
    Some(MinimizedRepro {
        seed,
        torture,
        litmus,
        kept: outcome
            .kept
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| i as u64)
            .collect(),
        original_kept: initial.iter().filter(|&&k| k).count() as u64,
        minimized_kept: outcome.kept_count() as u64,
        error_class: class,
        minimizer_runs: outcome.runs,
    })
}

/// How one phase of a sample run ended (`run_phase_to_instret`).
enum Phase {
    Reached,
    Halted(u64),
    OutOfCycles,
    Bug(BugReport),
}

fn phase(
    cosim: &mut CoSim,
    target: u64,
    deadline: u64,
    acc: &mut Loop,
    rec: &mut Recorder,
) -> Phase {
    let mut outs = Vec::new();
    loop {
        if cosim.state.sys.cores[0].instret() >= target {
            return Phase::Reached;
        }
        if cosim.state.sys.all_halted() {
            return Phase::Halted(cosim.state.sys.cores[0].halted.unwrap_or(0));
        }
        if cosim.state.time() >= deadline {
            return Phase::OutOfCycles;
        }
        if let Err(error) = step(cosim, deadline, &mut outs, acc) {
            return Phase::Bug(bug_report(cosim, error, rec));
        }
    }
}

/// One sample job, as the runner and `run_isolated_checkpoint` execute it.
fn sample_job(index: usize, spec: &JobSpec, rec: &mut Recorder) -> JobRecord {
    let mut record = base_record(index, spec);
    let WorkloadSource::Sample {
        checkpoint,
        warmup,
        window,
        ..
    } = &spec.workload
    else {
        unreachable!("sample_job runs sample sources only");
    };
    let (warmup, window) = (*warmup, *window);
    let Some(cfg) = spec.build_config() else {
        record.verdict = Verdict::Panicked {
            message: format!("unknown configuration preset `{}`", spec.config),
        };
        return record;
    };
    let run = catch_unwind(AssertUnwindSafe(|| {
        let mut cosim = rec.span("minjie.boot", |_| {
            let c = CoSim::from_checkpoint(cfg, &checkpoint.state, &checkpoint.memory);
            match spec.lightsss_interval {
                Some(iv) => c.with_lightsss(iv),
                None => c,
            }
        });
        let deadline = cosim.state.time().saturating_add(spec.max_cycles);
        let mut acc = Loop::default();
        let warm_end = phase(&mut cosim, warmup, deadline, &mut acc, rec);
        let warmup_cycles = cosim.state.time();
        let warmup_instret = cosim.state.sys.cores[0].instret();
        let warm_cpi = PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
        let end = match warm_end {
            Phase::Reached => phase(
                &mut cosim,
                warmup.saturating_add(window),
                deadline,
                &mut acc,
                rec,
            ),
            other => other,
        };
        acc.flush(rec);
        count_lightsss(&cosim, rec);
        let salvage = match &end {
            Phase::OutOfCycles => Some(salvage_from(&cosim)),
            Phase::Bug(bug) if bug.replay.is_none() => Some(Salvage {
                snapshot_cycle: 0,
                fallback_reset: true,
                state: cosim.reset_state().clone(),
            }),
            _ => None,
        };
        let end_cpi = PerfSnapshot::collect(&cosim.state.sys).cpi_stack();
        let instret = cosim.state.sys.cores[0].instret();
        fill_stats(&mut record, &cosim, instret, rec);
        let window_cycles = cosim.state.time().saturating_sub(warmup_cycles);
        let window_instret = instret.saturating_sub(warmup_instret);
        let cpi_milli = window_cycles
            .saturating_mul(1000)
            .checked_div(window_instret)
            .unwrap_or(0);
        record.sample = Some(SampleRecord {
            interval: checkpoint.interval as u64,
            members: checkpoint.members,
            total_intervals: checkpoint.total_intervals,
            checkpoint_instret: checkpoint.instret,
            warmup_cycles,
            warmup_instret,
            window_cycles,
            window_instret,
            cpi_milli,
            cpi_stack: end_cpi.saturating_sub(&warm_cpi),
            completed_window: matches!(end, Phase::Reached),
            halted: match end {
                Phase::Halted(code) => Some(code),
                _ => None,
            },
        });
        (
            end,
            salvage,
            lifecycle_ring(&cosim),
            cpi_milli,
            window_instret,
        )
    }));
    match run {
        Err(payload) => {
            let message = minjie::panic_message(payload);
            record.triage = Some(rec.span("campaign.triage", |_| {
                triage_panic(index as u64, spec, &message)
            }));
            record.verdict = Verdict::Panicked { message };
        }
        Ok((end, salvage, ring, cpi_milli, window_instret)) => {
            record.verdict = match end {
                Phase::Reached => Verdict::Sampled { cpi_milli },
                Phase::Halted(_) if window_instret > 0 => Verdict::Sampled { cpi_milli },
                Phase::Halted(exit_code) => Verdict::Halted { exit_code },
                Phase::OutOfCycles => {
                    if let Some(s) = salvage {
                        let (cycles, commits) = (record.cycles, record.commits_checked);
                        record.triage = Some(rec.span("campaign.triage", |_| {
                            triage_timeout(index as u64, spec, s, cycles, commits, ring)
                        }));
                    }
                    Verdict::Timeout
                }
                Phase::Bug(bug) => {
                    record.replay = replay_window(&bug);
                    record.triage = Some(rec.span("campaign.triage", |_| {
                        triage_divergence(index as u64, spec, &bug, salvage, None, ring)
                    }));
                    Verdict::Diverged { error: bug.error }
                }
            };
        }
    }
    record
}

/// The campaign worker pool, with one recorder per job.
fn campaign(jobs: &[JobSpec], origin: Instant, rec: &mut Recorder) -> CampaignReport {
    let start = Instant::now();
    let done = work::pool(jobs, |i, spec| {
        let mut jrec = Recorder::new(origin);
        let t0 = Instant::now();
        let record = jrec.job(i, |r| match spec.workload {
            WorkloadSource::Sample { .. } => sample_job(i, spec, r),
            _ => reset_job(i, spec, r),
        });
        (record, t0.elapsed().as_millis() as u64, jrec)
    });
    let pool_ns = start.elapsed().as_nanos() as u64;
    rec.count("campaign.pool_ns", pool_ns);
    let mut records = Vec::with_capacity(done.len());
    let mut per_job_ms = Vec::with_capacity(done.len());
    for (record, ms, jrec) in done {
        rec.merge(jrec);
        records.push(record);
        per_job_ms.push(ms);
    }
    CampaignReport {
        workers: WORKERS as u64,
        summary: CampaignSummary::tally(&records),
        wall_clock: WallClock {
            total_ms: pool_ns / 1_000_000,
            per_job_ms,
            attempts: vec![1; records.len()],
        },
        jobs: records,
        fuzz: None,
        sampling: Vec::new(),
    }
}

/// `generate_checkpoints_with_ref`, with profiling, clustering and
/// checkpoint materialization as separate spans.
pub fn generate(
    ref_name: &str,
    program: &Program,
    interval_len: u64,
    k: usize,
    max_insts: u64,
    rec: &mut Recorder,
) -> CheckpointSet {
    let (vectors, boundaries, executed) = rec.span("checkpoint.profile", |_| {
        let mut interp = nemu::registry::boot(ref_name, program)
            .unwrap_or_else(|| panic!("unknown profiling personality `{ref_name}`"));
        let mut bbv = BbvCollector::new();
        let mut vectors: Vec<Vec<f64>> = Vec::new();
        let mut boundaries = vec![(interp.hart().state.clone(), interp.mem_mut().clone(), 0)];
        let mut block_pc = interp.hart().state.pc;
        let mut block_len = 0u64;
        let mut executed = 0u64;
        while !interp.hart().is_halted() {
            assert!(executed < max_insts, "program did not halt while profiling");
            let info = interp.step_one();
            executed += 1;
            block_len += 1;
            if info.inst.ends_block() || info.trap.is_some() {
                bbv.record(block_pc, block_len);
                block_pc = interp.hart().state.pc;
                block_len = 0;
            }
            if executed.is_multiple_of(interval_len) {
                if block_len > 0 {
                    bbv.record(block_pc, block_len);
                    block_len = 0;
                    block_pc = interp.hart().state.pc;
                }
                vectors.push(bbv.finish());
                boundaries.push((
                    interp.hart().state.clone(),
                    interp.mem_mut().clone(),
                    executed,
                ));
            }
        }
        if block_len > 0 {
            bbv.record(block_pc, block_len);
        }
        if bbv.instructions() > 0 {
            vectors.push(bbv.finish());
        }
        assert!(!vectors.is_empty(), "program too short for one interval");
        (vectors, boundaries, executed)
    });
    rec.count("checkpoint.profiled_insts", executed);
    let total_intervals = vectors.len() as u64;
    let points = rec.span("checkpoint.simpoint", |_| {
        simpoints(&vectors, k, CLUSTER_SEED)
    });
    let checkpoints = points
        .iter()
        .map(|p| {
            let (state, memory, instret) = boundaries[p.interval].clone();
            Checkpoint {
                state,
                memory,
                instret,
                weight: p.weight,
                members: p.members,
                total_intervals,
                interval: p.interval,
            }
        })
        .collect();
    CheckpointSet {
        checkpoints,
        points,
        total_instructions: executed,
        interval_len,
        total_intervals,
    }
}

/// `run_sampled`: profile every kernel, fan the sample jobs out, and
/// aggregate the weighted CPIs; checkpoint blobs are written to
/// `ckpt_dir` as the farm's cache does.
fn sampled(spec: &campaign::SampleSpec, origin: Instant, rec: &mut Recorder) -> CampaignReport {
    let profiled: Vec<(String, CheckpointSet)> = spec
        .workloads
        .iter()
        .map(|kernel| {
            let program = rec.span("workloads.build", |_| {
                workloads::workload(kernel, workloads::Scale::Test).program
            });
            let set = generate(
                &spec.ref_model,
                &program,
                spec.interval_len,
                spec.max_checkpoints,
                spec.max_profile_insts,
                rec,
            );
            if let Some(dir) = &spec.checkpoint_dir {
                rec.span("checkpoint.serde", |rec| {
                    for c in &set.checkpoints {
                        let bytes = c.to_bytes();
                        rec.count("checkpoint.bytes", bytes.len() as u64);
                        let path = dir.join(format!("{}.ckpt", c.content_hash()));
                        std::fs::write(path, bytes).expect("write a checkpoint blob");
                    }
                });
            }
            (kernel.clone(), set)
        })
        .collect();
    let shared: Vec<(String, Vec<Arc<Checkpoint>>, u64, u64)> = profiled
        .into_iter()
        .map(|(k, set)| {
            let n = (set.total_instructions, set.total_intervals);
            (
                k,
                set.checkpoints.into_iter().map(Arc::new).collect(),
                n.0,
                n.1,
            )
        })
        .collect();
    let mut jobs = Vec::new();
    for config in &spec.configs {
        for (kernel, checkpoints, _, _) in &shared {
            for c in checkpoints {
                let mut j = JobSpec::new(
                    WorkloadSource::Sample {
                        kernel: kernel.clone(),
                        ref_model: spec.ref_model.clone(),
                        interval_len: spec.interval_len,
                        warmup: spec.warmup,
                        window: spec.window,
                        checkpoint: Arc::clone(c),
                    },
                    config.clone(),
                )
                .with_max_cycles(spec.max_cycles);
                if let Some(i) = spec.lightsss_interval {
                    j = j.with_lightsss(i);
                }
                jobs.push(j);
            }
        }
    }
    let mut report = campaign(&jobs, origin, rec);
    rec.span("campaign.aggregate", |rec| {
        let mut sampling = Vec::new();
        let mut idx = 0usize;
        let mut aggregated = 0u64;
        for config in &spec.configs {
            for (kernel, checkpoints, total_instructions, total_intervals) in &shared {
                let mut phases = Vec::new();
                let mut cpis = Vec::new();
                let mut members = Vec::new();
                for _ in checkpoints {
                    let r = &report.jobs[idx];
                    idx += 1;
                    let Some(s) = &r.sample else { continue };
                    if s.window_instret == 0 {
                        continue;
                    }
                    phases.push(SamplingPhase {
                        job_index: r.index,
                        interval: s.interval,
                        members: s.members,
                        cpi_milli: s.cpi_milli,
                    });
                    cpis.push(s.cpi_milli);
                    members.push(s.members);
                }
                let weighted = if cpis.is_empty() {
                    0
                } else {
                    checkpoint::weighted_cpi_milli(&cpis, &members)
                };
                aggregated += phases.len() as u64;
                sampling.push(SamplingSummary {
                    workload: format!("kernel:{kernel}"),
                    config: config.clone(),
                    ref_model: spec.ref_model.clone(),
                    interval_len: spec.interval_len,
                    total_intervals: *total_intervals,
                    total_instructions: *total_instructions,
                    checkpoints: checkpoints.len() as u64,
                    aggregated: phases.len() as u64,
                    weighted_cpi_milli: weighted,
                    phases,
                });
            }
        }
        rec.count("checkpoint.windows_aggregated", aggregated);
        rec.count("checkpoint.windows_simulated", idx as u64);
        report.sampling = sampling;
    });
    report
}

/// Run a workload's timed section traced. Returns the outcome (whose
/// body must equal the untraced run's) and the recorded spans.
pub fn run(w: Workload, inputs: &Inputs, origin: Instant) -> (Outcome, Recorder) {
    let mut rec = Recorder::new(origin);
    let outcome = match w {
        Workload::Regress | Workload::Hunt => {
            let report = campaign(&inputs.jobs, origin, &mut rec);
            let verified = work::bundles(&report)
                .map(|(i, b)| {
                    rec.job(i, |r| {
                        r.span("campaign.verify_bundle", |_| {
                            (i, campaign::verify_bundle(b))
                        })
                    })
                })
                .collect();
            Outcome::Campaign { report, verified }
        }
        Workload::Sample => {
            let spec = inputs.sample.as_ref().expect("sample inputs carry a spec");
            Outcome::Campaign {
                report: sampled(spec, origin, &mut rec),
                verified: Vec::new(),
            }
        }
        Workload::Profile => {
            let start = Instant::now();
            let done: Vec<(Profiled, Recorder)> = work::pool(&inputs.programs, |i, (name, p)| {
                let mut wrec = Recorder::new(origin);
                let profiled = wrec.job(i, |r| {
                    let set = generate(
                        work::PROFILE_REF,
                        p,
                        work::PROFILE_INTERVAL,
                        work::PROFILE_K,
                        work::PROFILE_BUDGET,
                        r,
                    );
                    let round_trips = r.span("checkpoint.serde", |r| {
                        let rt: Vec<_> = set.checkpoints.iter().map(work::round_trip).collect();
                        r.count("checkpoint.bytes", rt.iter().map(|(n, _)| *n as u64).sum());
                        rt
                    });
                    Profiled {
                        name: name.clone(),
                        set,
                        round_trips,
                    }
                });
                (profiled, wrec)
            });
            rec.count("campaign.pool_ns", start.elapsed().as_nanos() as u64);
            let mut ps = Vec::new();
            for (p, r) in done {
                rec.merge(r);
                ps.push(p);
            }
            Outcome::Profile(ps)
        }
    };
    (outcome, rec)
}
