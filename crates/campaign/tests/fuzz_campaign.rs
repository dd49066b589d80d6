//! End-to-end fuzz-campaign regressions (ISSUE satellite): a
//! coverage-guided campaign against a DUT with a deliberately injected
//! bug must converge to a divergence within a small, fixed number of
//! rounds, triage it into a self-contained bundle, and that bundle must
//! re-reproduce the failure at the identical commit index. Also pins
//! report determinism at the fuzz level: identical options give
//! byte-identical deterministic report bodies.

use campaign::{run_fuzz, verify_bundle, FuzzOpts, Verdict};
use xscore::InjectedBug;

fn bug_opts(bug: InjectedBug) -> FuzzOpts {
    let mut opts = FuzzOpts::new(5);
    opts.rounds = 3; // convergence bound: the bug must fall within this
    opts.jobs_per_round = 4;
    opts.configs = vec!["small-nh".into()];
    opts.workers = 2;
    opts.max_cycles = 3_000_000;
    opts.lightsss_interval = Some(2_000);
    opts.injected_bug = Some(bug);
    opts.minimize = false; // keep the wall clock small; minimizer has its own tier
    opts.triage = true;
    opts
}

fn assert_bug_found_and_triaged(bug: InjectedBug) {
    let out = run_fuzz(&bug_opts(bug));
    let report = &out.report;
    assert!(
        report.summary.diverged > 0,
        "{bug:?}: no divergence within {} rounds: {}",
        report.fuzz.as_ref().unwrap().rounds.len(),
        report.deterministic_json()
    );
    let job = report
        .jobs
        .iter()
        .find(|j| matches!(j.verdict, Verdict::Diverged { .. }))
        .unwrap();
    let bundle = job
        .triage
        .as_ref()
        .expect("diverged fuzz jobs are triaged into bundles");
    assert_eq!(bundle.trigger, "diverged");
    assert_eq!(
        bundle.job_index, job.index,
        "bundle must carry the re-indexed fuzz job position"
    );
    assert!(
        bundle.reproduced,
        "{bug:?}: triage replay did not reproduce: {}",
        bundle.detail_or_default()
    );
    // The bundle is a standalone reproducer: re-running it from scratch
    // hits the same divergence at the same commit index.
    let v = verify_bundle(bundle).expect("bundle verifies");
    assert!(v.reproduced, "{bug:?}: {}", v.detail);
    assert_eq!(v.at_commit, bundle.at_commit, "{bug:?}: drifted commit index");
}

trait DetailOrDefault {
    fn detail_or_default(&self) -> String;
}
impl DetailOrDefault for campaign::TriageBundle {
    fn detail_or_default(&self) -> String {
        format!("trigger={} at_commit={}", self.trigger, self.at_commit)
    }
}

#[test]
fn fuzz_converges_on_mul_low_bit() {
    assert_bug_found_and_triaged(InjectedBug::MulLowBit);
}

#[test]
fn fuzz_converges_on_addw_no_sext() {
    assert_bug_found_and_triaged(InjectedBug::AddwNoSext);
}

#[test]
fn injected_fuzz_report_is_deterministic() {
    let a = run_fuzz(&bug_opts(InjectedBug::MulLowBit));
    let b = run_fuzz(&bug_opts(InjectedBug::MulLowBit));
    assert_eq!(a.report.deterministic_json(), b.report.deterministic_json());
}
