//! DiffTest campaign CLI: shard a workload × config × seed matrix
//! across a worker pool and emit a machine-readable JSON report.
//!
//! ```text
//! campaign [--workloads mcf,lbm] [--configs small-nh,small-yqh]
//!          [--torture-seeds 0..8] [--workers 4] [--max-cycles 40000000]
//!          [--lightsss N] [--inject-bug mul-low-bit|addw-no-sext]
//!          [--telemetry] [--lifecycle] [--coverage]
//!          [--no-minimize] [--no-triage]
//!          [--bundle-dir DIR] [--job-timeout-ms N] [--retries N]
//!          [--retry-backoff-ms N] [--out report.json]
//! campaign --fuzz [--rounds N] [--fuzz-jobs N] [--fuzz-seed N]
//!          [--mp] [--inject-l2-race]
//!          [--corpus-dir DIR] [--configs ...] [the flags above]
//! campaign --sample --workloads k1,k2 [--configs ...]
//!          [--ref nemu-trace] [--interval N] [--max-checkpoints K]
//!          [--warmup N] [--window N] [--checkpoint-dir DIR]
//!          [--workers N] [--max-cycles N] [--lightsss N] [--out FILE]
//! ```
//!
//! The job list is the cross product of every named workload and every
//! torture seed with every config, in that order, so reports are
//! deterministic for a given command line. `--fuzz` replaces the fixed
//! matrix with a coverage-guided campaign: rounds of torture recipes
//! scheduled by coverage novelty, with the surviving corpus written to
//! `--corpus-dir` as one JSON recipe per file. `--sample` runs the
//! checkpoint farm instead: each workload is profiled on the `--ref`
//! personality (the only mode `--ref` applies to; DiffTest always
//! checks against the NEMU REF), SimPoint clustering picks
//! representative intervals
//! (checkpoints cached under `--checkpoint-dir` by content hash), and
//! one warm-up + detail-window job per checkpoint × config fans across
//! the pool, aggregating to weighted CPI in the report's `sampling`
//! section. Exit status: 0 when every job halts or samples cleanly,
//! 1 on any divergence/timeout/panic, 2 on usage errors.

use campaign::{run_fuzz, run_sampled, Campaign, FuzzOpts, JobSpec, SampleSpec, Verdict, WorkloadSource};
use workloads::TortureConfig;
use xscore::{InjectedBug, XsConfig};

fn usage(err: &str) -> ! {
    eprintln!("error: {err}");
    eprintln!(
        "usage: campaign [--workloads k1,k2] [--configs c1,c2] [--torture-seeds A..B|s1,s2]\n\
         \x20               [--workers N] [--max-cycles N] [--lightsss N]\n\
         \x20               [--inject-bug mul-low-bit|addw-no-sext] [--telemetry] [--lifecycle]\n\
         \x20               [--coverage] [--no-minimize] [--no-triage] [--bundle-dir DIR]\n\
         \x20               [--job-timeout-ms N] [--retries N] [--retry-backoff-ms N]\n\
         \x20               [--out FILE]\n\
         \x20      campaign --fuzz [--rounds N] [--fuzz-jobs N] [--fuzz-seed N]\n\
         \x20               [--mp] [--inject-l2-race]\n\
         \x20               [--corpus-dir DIR] [--configs c1,c2] [shared flags above]\n\
         \x20      campaign --sample --workloads k1,k2 [--configs c1,c2] [--ref NAME]\n\
         \x20               [--interval N] [--max-checkpoints K] [--warmup N] [--window N]\n\
         \x20               [--checkpoint-dir DIR] [shared flags above]\n\
         kernels: {}\n\
         configs: {}\n\
         profiling refs (--sample only): {}",
        workloads::NAMES.join(", "),
        XsConfig::preset_names().join(", "),
        nemu::registry::names().join(", ")
    );
    std::process::exit(2);
}

fn parse_seeds(spec: &str) -> Vec<u64> {
    if let Some((lo, hi)) = spec.split_once("..") {
        let lo: u64 = lo.parse().unwrap_or_else(|_| usage("bad seed range"));
        let hi: u64 = hi.parse().unwrap_or_else(|_| usage("bad seed range"));
        (lo..hi).collect()
    } else {
        spec.split(',')
            .filter(|s| !s.is_empty())
            .map(|s| s.parse().unwrap_or_else(|_| usage("bad seed list")))
            .collect()
    }
}

fn main() {
    let mut kernels: Vec<String> = Vec::new();
    let mut configs: Vec<String> = vec!["small-nh".into()];
    let mut seeds: Vec<u64> = Vec::new();
    let mut workers = 4usize;
    let mut max_cycles: Option<u64> = None;
    let mut lightsss: Option<u64> = None;
    let mut fuzz = false;
    let mut sample = false;
    let mut interval: Option<u64> = None;
    let mut max_checkpoints: Option<usize> = None;
    let mut warmup: Option<u64> = None;
    let mut window: Option<u64> = None;
    let mut checkpoint_dir: Option<String> = None;
    let mut rounds = 2u64;
    let mut fuzz_jobs = 8usize;
    let mut fuzz_seed = 0u64;
    let mut corpus_dir: Option<String> = None;
    let mut mp = false;
    let mut inject_l2_race = false;
    let mut coverage = false;
    let mut inject: Option<InjectedBug> = None;
    let mut ref_model: Option<String> = None;
    let mut minimize = true;
    let mut triage = true;
    let mut telemetry = false;
    let mut lifecycle = false;
    let mut bundle_dir: Option<String> = None;
    let mut job_timeout_ms: Option<u64> = None;
    let mut retries: Option<u32> = None;
    let mut retry_backoff_ms: Option<u64> = None;
    let mut out: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage("missing value for flag"))
        };
        match flag.as_str() {
            "--workloads" => {
                kernels = value().split(',').map(str::to_string).collect();
            }
            "--configs" => {
                configs = value().split(',').map(str::to_string).collect();
            }
            "--torture-seeds" => seeds = parse_seeds(&value()),
            "--workers" => {
                workers = value().parse().unwrap_or_else(|_| usage("bad --workers"));
            }
            "--max-cycles" => {
                max_cycles =
                    Some(value().parse().unwrap_or_else(|_| usage("bad --max-cycles")));
            }
            "--fuzz" => fuzz = true,
            "--sample" => sample = true,
            "--interval" => {
                interval = Some(value().parse().unwrap_or_else(|_| usage("bad --interval")));
            }
            "--max-checkpoints" => {
                max_checkpoints =
                    Some(value().parse().unwrap_or_else(|_| usage("bad --max-checkpoints")));
            }
            "--warmup" => {
                warmup = Some(value().parse().unwrap_or_else(|_| usage("bad --warmup")));
            }
            "--window" => {
                window = Some(value().parse().unwrap_or_else(|_| usage("bad --window")));
            }
            "--checkpoint-dir" => checkpoint_dir = Some(value()),
            "--rounds" => {
                rounds = value().parse().unwrap_or_else(|_| usage("bad --rounds"));
            }
            "--fuzz-jobs" => {
                fuzz_jobs = value().parse().unwrap_or_else(|_| usage("bad --fuzz-jobs"));
            }
            "--fuzz-seed" => {
                fuzz_seed = value().parse().unwrap_or_else(|_| usage("bad --fuzz-seed"));
            }
            "--corpus-dir" => corpus_dir = Some(value()),
            "--mp" => mp = true,
            "--inject-l2-race" => inject_l2_race = true,
            "--coverage" => coverage = true,
            "--lightsss" => {
                lightsss = Some(value().parse().unwrap_or_else(|_| usage("bad --lightsss")));
            }
            "--inject-bug" => {
                inject = Some(match value().as_str() {
                    "mul-low-bit" => InjectedBug::MulLowBit,
                    "addw-no-sext" => InjectedBug::AddwNoSext,
                    _ => usage("unknown --inject-bug"),
                });
            }
            "--ref" => ref_model = Some(value()),
            "--telemetry" => telemetry = true,
            "--lifecycle" => lifecycle = true,
            "--no-minimize" => minimize = false,
            "--no-triage" => triage = false,
            "--bundle-dir" => bundle_dir = Some(value()),
            "--job-timeout-ms" => {
                job_timeout_ms =
                    Some(value().parse().unwrap_or_else(|_| usage("bad --job-timeout-ms")));
            }
            "--retries" => {
                retries = Some(value().parse().unwrap_or_else(|_| usage("bad --retries")));
            }
            "--retry-backoff-ms" => {
                retry_backoff_ms =
                    Some(value().parse().unwrap_or_else(|_| usage("bad --retry-backoff-ms")));
            }
            "--out" => out = Some(value()),
            "--help" | "-h" => usage("help requested"),
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    for c in &configs {
        if XsConfig::preset(c).is_none() {
            usage(&format!("unknown config preset `{c}`"));
        }
    }
    for k in &kernels {
        if !workloads::NAMES.contains(&k.as_str()) {
            usage(&format!("unknown workload `{k}`"));
        }
    }
    if let Some(r) = &ref_model {
        if !sample {
            usage("--ref names the --sample profiling engine: it requires --sample");
        }
        if !nemu::registry::names().contains(&r.as_str()) {
            usage(&format!("unknown --ref `{r}`"));
        }
    }
    let report = if fuzz {
        if !kernels.is_empty() || !seeds.is_empty() {
            usage("--fuzz evolves its own recipes: drop --workloads/--torture-seeds");
        }
        let opts = FuzzOpts {
            rounds,
            jobs_per_round: fuzz_jobs,
            fuzz_seed,
            configs: configs.clone(),
            workers,
            // Fuzz jobs are deliberately short: breadth over depth.
            max_cycles: max_cycles.unwrap_or(6_000_000),
            lightsss_interval: lightsss,
            injected_bug: inject,
            minimize,
            triage,
            lifecycle,
            mp,
            inject_l2_race,
        };
        eprintln!(
            "fuzz campaign: {} rounds x {} jobs on {} workers (seed {})",
            opts.rounds, opts.jobs_per_round, opts.workers, opts.fuzz_seed
        );
        let outcome = run_fuzz(&opts);
        if let Some(f) = &outcome.report.fuzz {
            for r in &f.rounds {
                eprintln!(
                    "  round {:>2}: {} jobs, +{} features ({} cumulative, corpus {})",
                    r.round, r.jobs, r.new_features, r.cumulative_features, r.corpus_size
                );
            }
        }
        if let Some(dir) = &corpus_dir {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| usage(&format!("create {dir}: {e}")));
            for (i, recipe) in outcome.corpus.iter().enumerate() {
                let path = format!("{dir}/recipe{i:04}.json");
                let json = serde_json::to_string_pretty(recipe).expect("recipes serialize");
                std::fs::write(&path, json)
                    .unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
            }
            eprintln!("corpus: {} recipes in {dir}", outcome.corpus.len());
        }
        outcome.report
    } else if sample {
        if kernels.is_empty() {
            usage("--sample profiles named workloads: give --workloads");
        }
        if !seeds.is_empty() {
            usage("--sample runs checkpoints, not torture seeds: drop --torture-seeds");
        }
        let mut s = SampleSpec::new(kernels.clone(), configs.clone()).with_workers(workers);
        if let Some(r) = &ref_model {
            s = s.with_ref(r.clone());
        }
        if let Some(i) = interval {
            s = s.with_interval(i);
        }
        if let Some(k) = max_checkpoints {
            s = s.with_max_checkpoints(k);
        }
        if let Some(w) = warmup {
            s = s.with_warmup(w);
        }
        if let Some(w) = window {
            s = s.with_window(w);
        }
        if let Some(c) = max_cycles {
            s = s.with_max_cycles(c);
        }
        if let Some(d) = &checkpoint_dir {
            s = s.with_checkpoint_dir(d);
        }
        s.lightsss_interval = lightsss;
        s.triage = triage;
        eprintln!(
            "sample campaign: {} workloads x {} configs on {} workers \
             (ref {}, interval {}, k<={}, warmup {}, window {})",
            s.workloads.len(),
            s.configs.len(),
            s.workers,
            s.ref_model,
            s.interval_len,
            s.max_checkpoints,
            s.warmup,
            s.window
        );
        run_sampled(&s)
    } else {
        if mp {
            usage("--mp schedules litmus recipes: it requires --fuzz");
        }
        if kernels.is_empty() && seeds.is_empty() {
            usage("nothing to run: give --workloads and/or --torture-seeds (or --fuzz)");
        }
        let torture_cfg = TortureConfig::default();
        let mut jobs = Vec::new();
        for config in &configs {
            for k in &kernels {
                jobs.push((WorkloadSource::kernel(k.clone()), config.clone()));
            }
            for &seed in &seeds {
                jobs.push((WorkloadSource::torture(seed, torture_cfg), config.clone()));
            }
        }
        let jobs: Vec<JobSpec> = jobs
            .into_iter()
            .map(|(source, config)| {
                let mut spec = JobSpec::new(source, config)
                    .with_max_cycles(max_cycles.unwrap_or(40_000_000));
                if let Some(interval) = lightsss {
                    spec = spec.with_lightsss(interval);
                }
                if let Some(bug) = inject {
                    spec = spec.with_injected_bug(bug);
                }
                if inject_l2_race {
                    spec = spec.with_l2_race();
                }
                if telemetry {
                    spec = spec.with_telemetry();
                }
                if lifecycle {
                    spec = spec.with_lifecycle();
                }
                if coverage {
                    spec = spec.with_coverage();
                }
                spec
            })
            .collect();

        eprintln!("campaign: {} jobs on {} workers", jobs.len(), workers);
        let mut c = Campaign::new(jobs)
            .with_workers(workers)
            .with_minimization(minimize)
            .with_triage(triage);
        if let Some(ms) = job_timeout_ms {
            c = c.with_job_wall_timeout_ms(ms);
        }
        if let Some(n) = retries {
            c = c.with_job_retries(n);
        }
        if let Some(ms) = retry_backoff_ms {
            c = c.with_retry_backoff_ms(ms);
        }
        c.run()
    };

    if let Some(dir) = &bundle_dir {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| usage(&format!("create {dir}: {e}")));
        for j in &report.jobs {
            let Some(bundle) = &j.triage else { continue };
            let path = format!("{dir}/job{}.bundle.json", j.index);
            let json = serde_json::to_string_pretty(bundle).expect("bundles serialize");
            std::fs::write(&path, json)
                .unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
            eprintln!("bundle: {path}");
        }
    }

    for j in &report.jobs {
        let extra = match (&j.verdict, &j.minimized) {
            (Verdict::Diverged { .. }, Some(m)) => format!(
                " minimized {}→{} slots in {} runs",
                m.original_kept, m.minimized_kept, m.minimizer_runs
            ),
            (
                Verdict::ForbiddenOutcome {
                    round,
                    outcome_desc,
                    ..
                },
                m,
            ) => {
                let min = m
                    .as_ref()
                    .map(|m| {
                        format!(
                            " minimized {}→{} rounds in {} runs",
                            m.original_kept, m.minimized_kept, m.minimizer_runs
                        )
                    })
                    .unwrap_or_default();
                format!(" round {round}: {outcome_desc}{min}")
            }
            (Verdict::Panicked { message }, _) => format!(" ({message})"),
            _ => String::new(),
        };
        eprintln!(
            "  [{:>3}] {:<24} {:<10} {:<8} cycles={} ipc={:.3}{extra}",
            j.index,
            j.workload,
            j.config,
            j.verdict.label(),
            j.cycles,
            j.ipc
        );
    }
    for sm in &report.sampling {
        eprintln!(
            "  sampling {:<24} {:<10} weighted CPI {}.{:03} \
             ({}/{} checkpoints aggregated over {} intervals)",
            sm.workload,
            sm.config,
            sm.weighted_cpi_milli / 1000,
            sm.weighted_cpi_milli % 1000,
            sm.aggregated,
            sm.checkpoints,
            sm.total_intervals
        );
    }
    let s = &report.summary;
    eprintln!(
        "summary: {} jobs — {} halted, {} diverged, {} forbidden, {} sampled, {} timeout, \
         {} panicked ({} ms)",
        s.total, s.halted, s.diverged, s.forbidden, s.sampled, s.timeout, s.panicked,
        report.wall_clock.total_ms
    );

    let json = report.full_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).unwrap_or_else(|e| usage(&format!("write {path}: {e}")));
            eprintln!("report: {path}");
        }
        None => println!("{json}"),
    }
    if s.halted + s.sampled != s.total {
        std::process::exit(1);
    }
}
