//! The parallel campaign runner.
//!
//! Shards a job list across a `std::thread` worker pool (no external
//! runtime: a mutex-guarded queue feeds workers, an mpsc channel
//! collects results). Each job runs inside [`minjie::run_isolated`]'s
//! panic boundary, so a crashing simulation downs one job, not the
//! pool. Results reassemble in job order, making the report body
//! independent of worker interleaving.
//!
//! Failed jobs are *triaged*: the runner rolls back to the older
//! retained LightSSS snapshot (or the reset state when the failure
//! preceded the first snapshot interval), re-executes the failure
//! window in debug mode, and embeds a self-contained
//! [`TriageBundle`](crate::TriageBundle) in the job record. An optional
//! wall-clock timeout bounds each attempt, with bounded
//! retry-with-backoff before the job is written off as a
//! [`Verdict::WallTimeout`].

use crate::job::{error_class, JobSpec, WorkloadSource};
use crate::minimize::minimize;
use crate::report::{
    CampaignReport, CampaignSummary, JobRecord, MinimizedRepro, ReplayWindow, SampleRecord,
    Verdict, WallClock,
};
use crate::triage::{triage_divergence, triage_forbidden, triage_panic, triage_timeout};
use minjie::{run_isolated, run_isolated_checkpoint, run_isolated_salvaging, CoSimEnd, SampleEnd};
use std::collections::VecDeque;
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use workloads::litmus::{LitmusExit, LitmusProgram};
use workloads::TortureProgram;

/// Cycle budget for each minimizer re-run (candidates are subsets of an
/// already-failing program, so they fail — or halt — well within the
/// original budget).
const MINIMIZE_MAX_CYCLES: u64 = 20_000_000;

/// A configured campaign: jobs plus execution policy.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// The job list (report order).
    pub jobs: Vec<JobSpec>,
    /// Worker threads.
    pub workers: usize,
    /// Delta-debug diverged torture jobs into minimized reproducers.
    pub minimize_failures: bool,
    /// Triage failed jobs into self-contained replay bundles.
    pub triage: bool,
    /// Per-attempt wall-clock limit applied to every job that does not
    /// carry its own (None disables the limit).
    pub job_wall_timeout_ms: Option<u64>,
    /// Retries after a wall-clock timeout before giving up.
    pub job_retries: u32,
    /// Backoff before the first retry, milliseconds (doubles each
    /// retry).
    pub retry_backoff_ms: u64,
}

/// Execution policy one worker needs (copied into the pool).
#[derive(Clone, Copy)]
struct JobPolicy {
    minimize_failures: bool,
    triage: bool,
    wall_timeout_ms: Option<u64>,
    retries: u32,
    backoff_ms: u64,
}

impl Campaign {
    /// A campaign over `jobs` with default policy (4 workers,
    /// minimization and triage on, no wall-clock limit).
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Campaign {
            jobs,
            workers: 4,
            minimize_failures: true,
            triage: true,
            job_wall_timeout_ms: None,
            job_retries: 1,
            retry_backoff_ms: 50,
        }
    }

    /// Set the worker-thread count (clamped to at least 1).
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// Enable or disable failure minimization.
    pub fn with_minimization(mut self, on: bool) -> Self {
        self.minimize_failures = on;
        self
    }

    /// Enable or disable rollback-replay triage of failed jobs.
    pub fn with_triage(mut self, on: bool) -> Self {
        self.triage = on;
        self
    }

    /// Set a per-attempt wall-clock limit for every job.
    pub fn with_job_wall_timeout_ms(mut self, ms: u64) -> Self {
        self.job_wall_timeout_ms = Some(ms);
        self
    }

    /// Set the retry budget after wall-clock timeouts.
    pub fn with_job_retries(mut self, retries: u32) -> Self {
        self.job_retries = retries;
        self
    }

    /// Set the initial retry backoff (doubles each retry).
    pub fn with_retry_backoff_ms(mut self, ms: u64) -> Self {
        self.retry_backoff_ms = ms;
        self
    }

    /// Run every job and assemble the report.
    pub fn run(&self) -> CampaignReport {
        let campaign_start = Instant::now();
        let queue: Arc<Mutex<VecDeque<(usize, JobSpec)>>> =
            Arc::new(Mutex::new(self.jobs.iter().cloned().enumerate().collect()));
        let (tx, rx) = mpsc::channel::<(usize, JobRecord, u64, u64)>();

        std::thread::scope(|s| {
            for _ in 0..self.workers.max(1) {
                let queue = Arc::clone(&queue);
                let tx = tx.clone();
                let policy = JobPolicy {
                    minimize_failures: self.minimize_failures,
                    triage: self.triage,
                    wall_timeout_ms: self.job_wall_timeout_ms,
                    retries: self.job_retries,
                    backoff_ms: self.retry_backoff_ms,
                };
                s.spawn(move || loop {
                    let next = queue.lock().expect("queue lock").pop_front();
                    let Some((idx, spec)) = next else { break };
                    let t0 = Instant::now();
                    let (record, attempts) = execute_job_with_policy(idx, &spec, policy);
                    let ms = t0.elapsed().as_millis() as u64;
                    if tx.send((idx, record, ms, attempts)).is_err() {
                        break;
                    }
                });
            }
            drop(tx);

            let mut slots: Vec<Option<(JobRecord, u64, u64)>> =
                (0..self.jobs.len()).map(|_| None).collect();
            for (idx, record, ms, attempts) in rx {
                slots[idx] = Some((record, ms, attempts));
            }
            let mut jobs = Vec::with_capacity(slots.len());
            let mut per_job_ms = Vec::with_capacity(slots.len());
            let mut per_job_attempts = Vec::with_capacity(slots.len());
            for slot in slots {
                let (record, ms, attempts) = slot.expect("every job reports exactly once");
                jobs.push(record);
                per_job_ms.push(ms);
                per_job_attempts.push(attempts);
            }
            CampaignReport {
                workers: self.workers.max(1) as u64,
                summary: CampaignSummary::tally(&jobs),
                jobs,
                fuzz: None,
                sampling: Vec::new(),
                wall_clock: WallClock {
                    total_ms: campaign_start.elapsed().as_millis() as u64,
                    per_job_ms,
                    attempts: per_job_attempts,
                },
            }
        })
    }
}

/// The empty record every execution path starts from.
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
        perf: minjie::PerfSnapshot::default(),
        coverage: None,
        sample: None,
    }
}

/// Run one job under the wall-clock policy: each attempt executes on a
/// dedicated thread; an attempt exceeding the limit is abandoned (the
/// runaway thread is detached — its result, if any, is discarded) and
/// retried after an exponentially growing backoff. Returns the record
/// and the number of attempts made.
fn execute_job_with_policy(index: usize, spec: &JobSpec, policy: JobPolicy) -> (JobRecord, u64) {
    let limit_ms = match spec.wall_timeout_ms.or(policy.wall_timeout_ms) {
        Some(ms) => ms,
        None => return (execute_job(index, spec, policy), 1),
    };
    let max_attempts = 1 + u64::from(policy.retries);
    let mut backoff = policy.backoff_ms;
    for attempt in 1..=max_attempts {
        let (tx, rx) = mpsc::channel();
        let spec_for_attempt = spec.clone();
        std::thread::spawn(move || {
            let _ = tx.send(execute_job(index, &spec_for_attempt, policy));
        });
        match rx.recv_timeout(Duration::from_millis(limit_ms)) {
            Ok(record) => return (record, attempt),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                if attempt == max_attempts {
                    break;
                }
                std::thread::sleep(Duration::from_millis(backoff));
                backoff = backoff.saturating_mul(2);
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                // The attempt thread died without reporting — treat like
                // a contained panic (execute_job itself never panics, so
                // this is a thread-infrastructure failure).
                let mut record = base_record(index, spec);
                record.verdict = Verdict::Panicked {
                    message: "job attempt thread terminated without a result".into(),
                };
                return (record, attempt);
            }
        }
    }
    let mut record = base_record(index, spec);
    record.verdict = Verdict::WallTimeout {
        limit_ms,
        attempts: max_attempts,
    };
    (record, max_attempts)
}

/// Run one job to a deterministic record.
fn execute_job(index: usize, spec: &JobSpec, policy: JobPolicy) -> JobRecord {
    let mut record = base_record(index, spec);
    let Some(cfg) = spec.build_config() else {
        record.verdict = Verdict::Panicked {
            message: format!("unknown configuration preset `{}`", spec.config),
        };
        return record;
    };
    if let WorkloadSource::Sample {
        checkpoint,
        warmup,
        window,
        ..
    } = &spec.workload
    {
        return execute_sample_job(record, spec, cfg, checkpoint, *warmup, *window, policy);
    }
    let program = spec.workload.build();
    let (result, salvage) =
        run_isolated_salvaging(cfg, &program, spec.max_cycles, spec.lightsss_interval);
    match result {
        Err(message) => {
            if policy.triage {
                record.triage = Some(triage_panic(index as u64, spec, &message));
            }
            record.verdict = Verdict::Panicked { message };
        }
        Ok(stats) => {
            record.cycles = stats.cycles;
            record.commits_checked = stats.commits_checked;
            record.instret = stats.instret;
            record.exceptions = stats.exceptions;
            record.ipc = if stats.cycles > 0 {
                (stats.instret as f64 / stats.cycles as f64 * 1000.0).round() / 1000.0
            } else {
                0.0
            };
            record.rule_counts = stats.rule_counts;
            record.perf = stats.perf;
            record.coverage = stats.coverage;
            record.verdict = match stats.end {
                CoSimEnd::Halted(exit_code) => match litmus_forbidden(spec, exit_code) {
                    Some(exit) => {
                        if policy.minimize_failures {
                            record.minimized = minimize_litmus_failure(spec);
                        }
                        if policy.triage {
                            record.triage = Some(triage_forbidden(
                                index as u64,
                                spec,
                                exit_code,
                                stats.cycles,
                                stats.commits_checked,
                                record.minimized.clone(),
                                stats.lifecycle_ring,
                            ));
                        }
                        Verdict::ForbiddenOutcome {
                            round: exit.first_bad_round as u64,
                            outcome: exit.first_bad_outcome as u64,
                            outcome_desc: LitmusExit::describe_outcome(exit.first_bad_outcome),
                            exit_code,
                        }
                    }
                    None => Verdict::Halted { exit_code },
                },
                CoSimEnd::OutOfCycles => {
                    if policy.triage {
                        if let Some(s) = salvage {
                            record.triage = Some(triage_timeout(
                                index as u64,
                                spec,
                                s,
                                stats.cycles,
                                stats.commits_checked,
                                stats.lifecycle_ring,
                            ));
                        }
                    }
                    Verdict::Timeout
                }
                CoSimEnd::Bug(bug) => {
                    record.replay = bug.replay.as_ref().map(|r| ReplayWindow {
                        from_cycle: r.from_cycle,
                        fallback_reset: r.fallback_reset,
                        at_cycle: bug.at_cycle,
                        at_commit: r.at_commit,
                        cycles_replayed: r.cycles_replayed,
                        reproduced: r.reproduced,
                        trace_records: r.trace.records_inserted(),
                    });
                    if policy.minimize_failures {
                        record.minimized = minimize_torture_failure(spec, &bug.error);
                    }
                    if policy.triage {
                        record.triage = Some(triage_divergence(
                            index as u64,
                            spec,
                            &bug,
                            salvage,
                            record.minimized.clone(),
                            stats.lifecycle_ring,
                        ));
                    }
                    Verdict::Diverged { error: bug.error }
                }
            };
        }
    }
    record
}

/// Run one sample job: restore the checkpoint, retire the warm-up, then
/// measure the detailed window under DiffTest. Verification machinery
/// (panic isolation, LightSSS salvage, triage bundles, lifecycle rings)
/// applies exactly as for reset-state jobs.
#[allow(clippy::too_many_arguments)]
fn execute_sample_job(
    mut record: JobRecord,
    spec: &JobSpec,
    cfg: xscore::XsConfig,
    checkpoint: &checkpoint::Checkpoint,
    warmup: u64,
    window: u64,
    policy: JobPolicy,
) -> JobRecord {
    let index = record.index;
    let (result, salvage) = run_isolated_checkpoint(
        cfg,
        &checkpoint.state,
        &checkpoint.memory,
        warmup,
        window,
        spec.max_cycles,
        spec.lightsss_interval,
    );
    match result {
        Err(message) => {
            if policy.triage {
                record.triage = Some(triage_panic(index, spec, &message));
            }
            record.verdict = Verdict::Panicked { message };
        }
        Ok(stats) => {
            record.cycles = stats.cycles;
            record.commits_checked = stats.commits_checked;
            record.instret = stats.instret;
            record.exceptions = stats.exceptions;
            record.ipc = if stats.cycles > 0 {
                (stats.instret as f64 / stats.cycles as f64 * 1000.0).round() / 1000.0
            } else {
                0.0
            };
            record.rule_counts = stats.rule_counts;
            record.perf = stats.perf;
            record.coverage = stats.coverage;
            let w = &stats.window;
            let cpi_milli = w
                .window_cycles
                .saturating_mul(1000)
                .checked_div(w.window_instret)
                .unwrap_or(0);
            record.sample = Some(SampleRecord {
                interval: checkpoint.interval as u64,
                members: checkpoint.members,
                total_intervals: checkpoint.total_intervals,
                checkpoint_instret: checkpoint.instret,
                warmup_cycles: w.warmup_cycles,
                warmup_instret: w.warmup_instret,
                window_cycles: w.window_cycles,
                window_instret: w.window_instret,
                cpi_milli,
                cpi_stack: w.cpi,
                completed_window: matches!(stats.end, SampleEnd::Window),
                halted: match stats.end {
                    SampleEnd::Halted(code) => Some(code),
                    _ => None,
                },
            });
            record.verdict = match stats.end {
                SampleEnd::Window => Verdict::Sampled { cpi_milli },
                // A halt inside the window still measured something; a
                // halt inside the warm-up measured nothing and reports
                // as an ordinary clean halt.
                SampleEnd::Halted(exit_code) => {
                    if w.window_instret > 0 {
                        Verdict::Sampled { cpi_milli }
                    } else {
                        Verdict::Halted { exit_code }
                    }
                }
                SampleEnd::OutOfCycles => {
                    if policy.triage {
                        if let Some(s) = salvage {
                            record.triage = Some(triage_timeout(
                                index,
                                spec,
                                s,
                                stats.cycles,
                                stats.commits_checked,
                                stats.lifecycle_ring,
                            ));
                        }
                    }
                    Verdict::Timeout
                }
                SampleEnd::Bug(bug) => {
                    record.replay = bug.replay.as_ref().map(|r| ReplayWindow {
                        from_cycle: r.from_cycle,
                        fallback_reset: r.fallback_reset,
                        at_cycle: bug.at_cycle,
                        at_commit: r.at_commit,
                        cycles_replayed: r.cycles_replayed,
                        reproduced: r.reproduced,
                        trace_records: r.trace.records_inserted(),
                    });
                    if policy.triage {
                        record.triage = Some(triage_divergence(
                            index,
                            spec,
                            &bug,
                            salvage,
                            None,
                            stats.lifecycle_ring,
                        ));
                    }
                    Verdict::Diverged { error: bug.error }
                }
            };
        }
    }
    record
}

/// Delta-debug a diverged torture job down to a minimized reproducer.
///
/// Non-torture workloads return `None`: kernels and inline programs
/// have no seed-derived slot structure to shrink.
fn minimize_torture_failure(spec: &JobSpec, error: &minjie::DiffError) -> Option<MinimizedRepro> {
    let WorkloadSource::Torture { seed, cfg, keep } = &spec.workload else {
        return None;
    };
    let class = error_class(error);
    let t = TortureProgram::generate(*seed, cfg);
    let initial = keep.clone().unwrap_or_else(|| vec![true; t.len()]);
    let budget = spec.max_cycles.min(MINIMIZE_MAX_CYCLES);
    let outcome = minimize(&initial, |mask| {
        let program = t.emit_subset(mask);
        let Some(job_cfg) = spec.build_config() else {
            return false;
        };
        matches!(
            run_isolated(job_cfg, &program, budget, None),
            Ok(minjie::RunStats {
                end: CoSimEnd::Bug(b),
                ..
            }) if error_class(&b.error) == class
        )
    });
    let original_kept = initial.iter().filter(|&&k| k).count() as u64;
    Some(MinimizedRepro {
        seed: *seed,
        torture: Some(*cfg),
        litmus: None,
        kept: outcome
            .kept
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| i as u64)
            .collect(),
        original_kept,
        minimized_kept: outcome.kept_count() as u64,
        error_class: class.to_string(),
        minimizer_runs: outcome.runs,
    })
}

/// Decode a halted job's exit code as a litmus verdict: `Some` when the
/// workload is a litmus program and it reported a forbidden outcome.
fn litmus_forbidden(spec: &JobSpec, exit_code: u64) -> Option<LitmusExit> {
    let WorkloadSource::Litmus { .. } = &spec.workload else {
        return None;
    };
    let exit = LitmusExit::decode(exit_code);
    exit.forbidden().then_some(exit)
}

/// Delta-debug a forbidden-outcome litmus job down to the smallest
/// round subset that still commits an illegal observation.
fn minimize_litmus_failure(spec: &JobSpec) -> Option<MinimizedRepro> {
    let WorkloadSource::Litmus { seed, cfg, keep } = &spec.workload else {
        return None;
    };
    let p = LitmusProgram::generate(*seed, cfg);
    let initial = keep.clone().unwrap_or_else(|| vec![true; p.len()]);
    let budget = spec.max_cycles.min(MINIMIZE_MAX_CYCLES);
    let outcome = minimize(&initial, |mask| {
        let program = p.emit_subset(mask);
        let Some(job_cfg) = spec.build_config() else {
            return false;
        };
        matches!(
            run_isolated(job_cfg, &program, budget, None),
            Ok(minjie::RunStats {
                end: CoSimEnd::Halted(code),
                ..
            }) if LitmusExit::decode(code).forbidden()
        )
    });
    let original_kept = initial.iter().filter(|&&k| k).count() as u64;
    Some(MinimizedRepro {
        seed: *seed,
        torture: None,
        litmus: Some(*cfg),
        kept: outcome
            .kept
            .iter()
            .enumerate()
            .filter(|(_, &k)| k)
            .map(|(i, _)| i as u64)
            .collect(),
        original_kept,
        minimized_kept: outcome.kept_count() as u64,
        error_class: "ForbiddenOutcome".to_string(),
        minimizer_runs: outcome.runs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::WorkloadSource;
    use workloads::TortureConfig;

    fn quick_torture() -> TortureConfig {
        TortureConfig {
            body_len: 30,
            iterations: 4,
            ..Default::default()
        }
    }

    #[test]
    fn small_parallel_campaign_completes_in_order() {
        let jobs: Vec<JobSpec> = (0..6)
            .map(|seed| {
                JobSpec::new(WorkloadSource::torture(seed, quick_torture()), "small-nh")
                    .with_max_cycles(4_000_000)
            })
            .collect();
        let report = Campaign::new(jobs).with_workers(3).run();
        assert_eq!(report.jobs.len(), 6);
        assert_eq!(report.summary.total, 6);
        assert_eq!(report.summary.halted, 6, "{}", report.deterministic_json());
        for (i, j) in report.jobs.iter().enumerate() {
            assert_eq!(j.index, i as u64, "records must be in job order");
            assert!(j.cycles > 0 && j.ipc > 0.0);
            assert!(j.triage.is_none(), "healthy jobs carry no bundle");
        }
        assert_eq!(report.wall_clock.per_job_ms.len(), 6);
        assert_eq!(report.wall_clock.attempts, vec![1; 6]);
    }

    #[test]
    fn unknown_preset_is_a_contained_failure() {
        let jobs = vec![JobSpec::new(
            WorkloadSource::torture(0, quick_torture()),
            "not-a-preset",
        )];
        let report = Campaign::new(jobs).run();
        assert_eq!(report.summary.panicked, 1);
        assert!(matches!(
            &report.jobs[0].verdict,
            Verdict::Panicked { message } if message.contains("not-a-preset")
        ));
    }

    #[test]
    fn wall_clock_timeout_exhausts_retries() {
        // A long torture run cannot finish within 1 ms: every attempt
        // times out and the job is written off as WallTimeout. Attempt
        // counts land in the timing section only.
        let slow = TortureConfig {
            body_len: 200,
            iterations: 50_000,
            ..Default::default()
        };
        let jobs = vec![JobSpec::new(WorkloadSource::torture(0, slow), "small-nh")
            .with_max_cycles(200_000_000)];
        let report = Campaign::new(jobs)
            .with_workers(1)
            .with_minimization(false)
            .with_job_wall_timeout_ms(1)
            .with_job_retries(1)
            .with_retry_backoff_ms(1)
            .run();
        assert_eq!(report.summary.timeout, 1, "{}", report.deterministic_json());
        match &report.jobs[0].verdict {
            Verdict::WallTimeout { limit_ms, attempts } => {
                assert_eq!(*limit_ms, 1);
                assert_eq!(*attempts, 2, "1 try + 1 retry");
            }
            other => panic!("expected WallTimeout, got {other:?}"),
        }
        assert_eq!(report.wall_clock.attempts, vec![2]);
        // Measured wall-clock data never reaches the deterministic body
        // (the WallTimeout verdict's fields are configuration values).
        assert!(!report.deterministic_json().contains("per_job_ms"));
    }

    #[test]
    fn generous_wall_clock_limit_does_not_disturb_results() {
        let jobs = vec![
            JobSpec::new(WorkloadSource::torture(1, quick_torture()), "small-nh")
                .with_max_cycles(4_000_000),
        ];
        let report = Campaign::new(jobs)
            .with_workers(1)
            .with_job_wall_timeout_ms(120_000)
            .run();
        assert_eq!(report.summary.halted, 1, "{}", report.deterministic_json());
        assert_eq!(report.wall_clock.attempts, vec![1]);
    }
}
