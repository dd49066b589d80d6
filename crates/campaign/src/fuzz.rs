//! Coverage-guided fuzzing over the campaign runner.
//!
//! The fuzzer evolves a corpus of [`Recipe`]s — torture-generator
//! `(seed, knobs, kept-mask, config)` quadruples, the same complete
//! reproducers the rest of the stack already speaks. Each round it runs
//! a batch of recipes with coverage maps enabled, absorbs their
//! features into the campaign [`CoverageSet`], admits every recipe
//! that produced novel coverage, and seeds the next round with
//! deterministic mutations of the highest-novelty corpus entries plus
//! a few fresh exploration recipes.
//!
//! Everything is a pure function of [`FuzzOpts`]: mutation seeds are
//! `mix(fuzz_seed, round, slot)`, scheduling sorts by recorded novelty,
//! and the runner already reassembles records in job order — so two
//! runs of the same fuzz campaign produce byte-identical report bodies.
//! Divergences flow through the existing minimize/triage pipeline
//! unchanged; a fuzz-found bug yields the same [`TriageBundle`] a
//! matrix campaign would.
//!
//! [`TriageBundle`]: crate::TriageBundle

use crate::coverage::{minimize_corpus, CoverageSet, FuzzRound, FuzzSummary};
use crate::job::{JobSpec, WorkloadSource};
use crate::report::{CampaignReport, CampaignSummary, WallClock};
use crate::runner::Campaign;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use workloads::litmus::{LitmusConfig, LitmusProgram, LitmusShape};
use workloads::{TortureConfig, TortureProgram};
use xscore::InjectedBug;

/// Salt mixed into litmus recipe seeds so a litmus recipe and a torture
/// recipe sharing a slot seed still draw independent knob streams.
const LITMUS_SALT: u64 = 0x11a7_b05e_ed0c_ab1e;

/// One corpus entry: a complete, serializable workload reproducer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Recipe {
    /// Torture-generator seed.
    pub seed: u64,
    /// Generator knobs.
    pub cfg: TortureConfig,
    /// Kept-mask over the abstract body slots (None keeps every slot).
    pub keep: Option<Vec<bool>>,
    /// Configuration preset slug the recipe runs on.
    pub config: String,
    /// When set, this is a two-hart litmus recipe: `seed` feeds the
    /// litmus generator, these knobs replace `cfg`, and `keep` masks
    /// rounds instead of body slots. The job runs dual-core.
    pub litmus: Option<LitmusConfig>,
}

/// Fuzz-campaign options. Everything that influences the report body
/// lives here, so a `FuzzOpts` value is a complete reproducer of a
/// fuzz campaign's deterministic output.
#[derive(Debug, Clone)]
pub struct FuzzOpts {
    /// Rounds to run.
    pub rounds: u64,
    /// Recipes per round.
    pub jobs_per_round: usize,
    /// Campaign-level seed every derived seed mixes in.
    pub fuzz_seed: u64,
    /// Configuration presets, rotated across fresh recipes.
    pub configs: Vec<String>,
    /// Worker threads.
    pub workers: usize,
    /// Per-job cycle budget (fuzz jobs are deliberately short).
    pub max_cycles: u64,
    /// LightSSS snapshot interval (None disables snapshots).
    pub lightsss_interval: Option<u64>,
    /// Deliberate DUT corruption (verification-flow tests only).
    pub injected_bug: Option<InjectedBug>,
    /// Delta-debug diverged recipes into minimized reproducers.
    pub minimize: bool,
    /// Triage failed jobs into self-contained replay bundles.
    pub triage: bool,
    /// Stream full lifecycle traces on every job (the crash ring is
    /// captured regardless).
    pub lifecycle: bool,
    /// Mix two-hart litmus recipes into the exploration stream (the
    /// `mp:` coverage family then steers exploitation toward
    /// coherence-event novelty).
    pub mp: bool,
    /// Arm the §IV-C L2 probe/grant race fault on every job
    /// (verification-flow tests only).
    pub inject_l2_race: bool,
}

impl FuzzOpts {
    /// Default policy: 2 rounds of 8 jobs on `small-nh`, 4 workers,
    /// 6 M cycles per job, minimization and triage on.
    pub fn new(fuzz_seed: u64) -> Self {
        FuzzOpts {
            rounds: 2,
            jobs_per_round: 8,
            fuzz_seed,
            configs: vec!["small-nh".into()],
            workers: 4,
            max_cycles: 6_000_000,
            lightsss_interval: None,
            injected_bug: None,
            minimize: true,
            triage: true,
            lifecycle: false,
            mp: false,
            inject_l2_race: false,
        }
    }
}

/// A finished fuzz campaign.
#[derive(Debug, Clone)]
pub struct FuzzOutcome {
    /// The campaign report (all rounds' jobs in order, `fuzz` section
    /// populated).
    pub report: CampaignReport,
    /// The minimized corpus: recipes that still jointly hold every
    /// covered feature (greedy set cover).
    pub corpus: Vec<Recipe>,
    /// The accumulated coverage.
    pub coverage: CoverageSet,
}

/// SplitMix64 — the standard 64-bit finalizer, used to derive
/// per-(round, slot) seeds from the campaign seed.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// The deterministic per-slot seed: a pure function of the campaign
/// seed, the round, and the slot.
pub fn mix(fuzz_seed: u64, round: u64, slot: u64) -> u64 {
    splitmix(splitmix(fuzz_seed ^ round.wrapping_mul(0x517c_c1b7_2722_0a95)) ^ slot)
}

/// A fresh exploration recipe: knobs drawn from `seed` so different
/// slots explore different generator regimes (with/without memory ops,
/// branches, muldiv, compressed).
pub fn fresh_recipe(seed: u64, config: &str) -> Recipe {
    let mut rng = StdRng::seed_from_u64(splitmix(seed));
    let cfg = TortureConfig {
        body_len: rng.gen_range(24usize..=64),
        iterations: rng.gen_range(4i64..=10),
        memory_ops: rng.gen_bool(0.8),
        branches: rng.gen_bool(0.8),
        muldiv: rng.gen_bool(0.8),
        compressed: rng.gen_bool(0.3),
    }
    .clamped();
    Recipe {
        seed,
        cfg,
        keep: None,
        config: config.into(),
        litmus: None,
    }
}

/// A fresh two-hart litmus exploration recipe: shape, fencing, and
/// round knobs drawn from `seed` so different slots cover different
/// corners of the shape × fence matrix.
pub fn fresh_litmus_recipe(seed: u64, config: &str) -> Recipe {
    let mut rng = StdRng::seed_from_u64(splitmix(seed ^ LITMUS_SALT));
    let shape = LitmusShape::ALL[rng.gen_range(0..LitmusShape::ALL.len())];
    let litmus = LitmusConfig {
        shape,
        fenced: rng.gen_bool(0.5),
        rounds: rng.gen_range(2usize..=6),
        filler: rng.gen_range(0usize..=6),
        lrsc_iters: rng.gen_range(2usize..=6),
    }
    .clamped();
    Recipe {
        seed,
        cfg: TortureConfig::default(),
        keep: None,
        config: config.into(),
        litmus: Some(litmus),
    }
}

/// Deterministically mutate a recipe: same `(recipe, mutation_seed)`,
/// same result. Mutations that change the seed or the body shape reset
/// the kept-mask (its length would no longer match the regenerated
/// body); mask flips regenerate the body to size the mask correctly,
/// so every mutant emits a valid, decodable program.
pub fn mutate_recipe(r: &Recipe, mutation_seed: u64) -> Recipe {
    if r.litmus.is_some() {
        return mutate_litmus_recipe(r, mutation_seed);
    }
    let mut rng = StdRng::seed_from_u64(mutation_seed);
    let mut out = r.clone();
    match rng.gen_range(0u32..6) {
        // Reseed: a new program under the same knobs.
        0 => {
            out.seed = rng.gen();
            out.keep = None;
        }
        // Flip 1..=4 kept-mask bits.
        1 => {
            let len = TortureProgram::generate(out.seed, &out.cfg).len();
            let mut mask = out
                .keep
                .take()
                .filter(|m| m.len() == len)
                .unwrap_or_else(|| vec![true; len]);
            if len > 0 {
                for _ in 0..rng.gen_range(1usize..=4) {
                    let i = rng.gen_range(0..len);
                    mask[i] = !mask[i];
                }
            }
            out.keep = Some(mask);
        }
        // Grow or shrink the loop body.
        2 => {
            let delta = rng.gen_range(1usize..=24);
            out.cfg.body_len = if rng.gen_bool(0.5) {
                out.cfg.body_len.saturating_add(delta)
            } else {
                out.cfg.body_len.saturating_sub(delta)
            };
            out.keep = None;
        }
        // Tweak the trip count (body shape unchanged: mask survives).
        3 => {
            let delta = rng.gen_range(1i64..=6);
            out.cfg.iterations = if rng.gen_bool(0.5) {
                out.cfg.iterations.saturating_add(delta)
            } else {
                out.cfg.iterations.saturating_sub(delta)
            };
        }
        // Toggle one instruction-mix knob.
        4 => {
            match rng.gen_range(0u32..4) {
                0 => out.cfg.memory_ops = !out.cfg.memory_ops,
                1 => out.cfg.branches = !out.cfg.branches,
                2 => out.cfg.muldiv = !out.cfg.muldiv,
                _ => out.cfg.compressed = !out.cfg.compressed,
            }
            out.keep = None;
        }
        // Combined jump: reseed and flip the compressed regime.
        _ => {
            out.seed = splitmix(out.seed ^ mutation_seed);
            out.cfg.compressed = !out.cfg.compressed;
            out.keep = None;
        }
    }
    out.cfg = out.cfg.clamped();
    out
}

/// The litmus half of [`mutate_recipe`]: hop shapes, toggle fencing,
/// grow or shrink the round count, jitter the filler window, or reseed
/// — the knobs that move the race timing and the coherence traffic mix.
fn mutate_litmus_recipe(r: &Recipe, mutation_seed: u64) -> Recipe {
    let mut rng = StdRng::seed_from_u64(mutation_seed ^ LITMUS_SALT);
    let mut out = r.clone();
    let mut l = out.litmus.expect("litmus recipe");
    match rng.gen_range(0u32..6) {
        // Reseed: new filler draws and FenceTorture serializers under
        // the same knobs.
        0 => {
            out.seed = rng.gen();
            out.keep = None;
        }
        // Flip 1..=2 kept-round bits.
        1 => {
            let len = LitmusProgram::generate(out.seed, &l).len();
            let mut mask = out
                .keep
                .take()
                .filter(|m| m.len() == len)
                .unwrap_or_else(|| vec![true; len]);
            if len > 0 {
                for _ in 0..rng.gen_range(1usize..=2) {
                    let i = rng.gen_range(0..len);
                    mask[i] = !mask[i];
                }
            }
            out.keep = Some(mask);
        }
        // Hop to another shape.
        2 => {
            l.shape = LitmusShape::ALL[rng.gen_range(0..LitmusShape::ALL.len())];
            out.keep = None;
        }
        // Toggle fencing (round count unchanged: the mask survives).
        3 => l.fenced = !l.fenced,
        // Grow or shrink the round count.
        4 => {
            let delta = rng.gen_range(1usize..=2);
            l.rounds = if rng.gen_bool(0.5) {
                l.rounds.saturating_add(delta)
            } else {
                l.rounds.saturating_sub(delta)
            };
            out.keep = None;
        }
        // Jitter the race timing: filler and LR/SC contention knobs.
        _ => {
            l.filler = rng.gen_range(0usize..=8);
            l.lrsc_iters = rng.gen_range(1usize..=8);
            out.keep = None;
        }
    }
    out.litmus = Some(l.clamped());
    out
}

/// The job a recipe runs as (coverage maps always on).
fn job_spec(r: &Recipe, opts: &FuzzOpts) -> JobSpec {
    let workload = match r.litmus {
        Some(cfg) => WorkloadSource::Litmus {
            seed: r.seed,
            cfg,
            keep: r.keep.clone(),
        },
        None => WorkloadSource::Torture {
            seed: r.seed,
            cfg: r.cfg,
            keep: r.keep.clone(),
        },
    };
    let mut spec = JobSpec::new(workload, r.config.clone())
        .with_max_cycles(opts.max_cycles)
        .with_coverage();
    if r.litmus.is_some() {
        // Litmus programs are two-hart by construction.
        spec = spec.with_cores(2);
    }
    if opts.inject_l2_race {
        spec = spec.with_l2_race();
    }
    if let Some(iv) = opts.lightsss_interval {
        spec = spec.with_lightsss(iv);
    }
    if let Some(bug) = opts.injected_bug {
        spec = spec.with_injected_bug(bug);
    }
    if opts.lifecycle {
        spec = spec.with_lifecycle();
    }
    spec
}

/// A live corpus slot: the recipe, its coverage features, and its
/// novelty at admission.
type CorpusEntry = (Recipe, Vec<(String, u8)>, u64);

/// Plan one round's recipes: round 0 (or an empty corpus) is pure
/// exploration; later rounds spend ~3/4 of their slots mutating the
/// highest-novelty corpus entries and the rest on fresh exploration.
fn plan_round(opts: &FuzzOpts, round: u64, corpus: &[CorpusEntry]) -> Vec<Recipe> {
    let slots = opts.jobs_per_round.max(1);
    let config_for = |slot: usize| opts.configs[slot % opts.configs.len()].as_str();
    // With `--mp` on, every other fresh slot explores a litmus recipe;
    // exploitation below is shape-agnostic, so litmus entries earn
    // mutation slots exactly as far as their `mp:` novelty carries them.
    let fresh = |slot: usize, seed: u64| {
        if opts.mp && slot % 2 == 1 {
            fresh_litmus_recipe(seed, config_for(slot))
        } else {
            fresh_recipe(seed, config_for(slot))
        }
    };
    let mut recipes = Vec::with_capacity(slots);
    if round == 0 || corpus.is_empty() {
        for slot in 0..slots {
            let seed = mix(opts.fuzz_seed, round, slot as u64);
            recipes.push(fresh(slot, seed));
        }
        return recipes;
    }
    // Priority: novelty at admission (desc), then admission order —
    // the scheduler of the tentpole, and fully deterministic.
    let mut order: Vec<usize> = (0..corpus.len()).collect();
    order.sort_by(|&a, &b| corpus[b].2.cmp(&corpus[a].2).then(a.cmp(&b)));
    let exploit = slots - slots / 4;
    for slot in 0..slots {
        let mseed = mix(opts.fuzz_seed, round, slot as u64);
        if slot < exploit {
            let parent = &corpus[order[slot % order.len()]].0;
            recipes.push(mutate_recipe(parent, mseed));
        } else {
            recipes.push(fresh(slot, mseed));
        }
    }
    recipes
}

/// Run a coverage-guided fuzz campaign.
///
/// # Panics
///
/// Panics when `opts.configs` is empty.
pub fn run_fuzz(opts: &FuzzOpts) -> FuzzOutcome {
    assert!(!opts.configs.is_empty(), "fuzz needs at least one config preset");
    let mut coverage = CoverageSet::default();
    let mut corpus: Vec<CorpusEntry> = Vec::new();
    let mut all_jobs = Vec::new();
    let mut rounds = Vec::new();
    let mut wall = WallClock::default();
    for round in 0..opts.rounds {
        let recipes = plan_round(opts, round, &corpus);
        let specs = recipes.iter().map(|r| job_spec(r, opts)).collect();
        let report = Campaign::new(specs)
            .with_workers(opts.workers)
            .with_minimization(opts.minimize)
            .with_triage(opts.triage)
            .run();
        let jobs_this_round = report.jobs.len() as u64;
        let mut new_features = 0;
        for (recipe, mut job) in recipes.into_iter().zip(report.jobs) {
            let feats = job
                .coverage
                .as_ref()
                .map(|c| c.features())
                .unwrap_or_default();
            let novelty = coverage.absorb_features(&feats);
            new_features += novelty;
            if novelty > 0 {
                corpus.push((recipe, feats, novelty));
            }
            let index = all_jobs.len() as u64;
            job.index = index;
            if let Some(bundle) = &mut job.triage {
                bundle.job_index = index;
            }
            all_jobs.push(job);
        }
        wall.total_ms += report.wall_clock.total_ms;
        wall.per_job_ms.extend(report.wall_clock.per_job_ms);
        wall.attempts.extend(report.wall_clock.attempts);
        rounds.push(FuzzRound {
            round,
            jobs: jobs_this_round,
            new_features,
            cumulative_features: coverage.len() as u64,
            corpus_size: corpus.len() as u64,
        });
    }
    // Shrink the corpus to a set-cover of the accumulated coverage:
    // recipes made redundant by later discoveries are dropped, recipes
    // uniquely holding a feature never are.
    let kept = minimize_corpus(&corpus.iter().map(|(_, f, _)| f.clone()).collect::<Vec<_>>());
    let corpus: Vec<Recipe> = kept.into_iter().map(|i| corpus[i].0.clone()).collect();
    let report = CampaignReport {
        workers: opts.workers.max(1) as u64,
        summary: CampaignSummary::tally(&all_jobs),
        jobs: all_jobs,
        fuzz: Some(FuzzSummary {
            fuzz_seed: opts.fuzz_seed,
            rounds,
            total_features: coverage.len() as u64,
        }),
        sampling: Vec::new(),
        wall_clock: wall,
    };
    FuzzOutcome {
        report,
        corpus,
        coverage,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_a_pure_function() {
        assert_eq!(mix(7, 1, 3), mix(7, 1, 3));
        assert_ne!(mix(7, 1, 3), mix(7, 1, 4));
        assert_ne!(mix(7, 1, 3), mix(7, 2, 3));
        assert_ne!(mix(7, 1, 3), mix(8, 1, 3));
    }

    #[test]
    fn fresh_and_mutated_recipes_are_deterministic() {
        let fresh = fresh_recipe(42, "small-nh");
        assert_eq!(fresh, fresh_recipe(42, "small-nh"));
        for mseed in 0..32 {
            let a = mutate_recipe(&fresh, mseed);
            assert_eq!(a, mutate_recipe(&fresh, mseed));
        }
    }

    #[test]
    fn every_mutation_emits_a_valid_program() {
        // The structural half of the proptest satellite: a mutant's
        // kept-mask always matches its regenerated body, so emission
        // cannot panic and the program is well-formed.
        let mut r = fresh_recipe(3, "small-nh");
        for mseed in 0..64 {
            r = mutate_recipe(&r, mseed);
            let t = TortureProgram::generate(r.seed, &r.cfg);
            let program = match &r.keep {
                Some(mask) => {
                    assert_eq!(mask.len(), t.len(), "mask tracks the body");
                    t.emit_subset(mask)
                }
                None => t.emit(),
            };
            assert!(!program.bytes.is_empty());
        }
    }

    #[test]
    fn litmus_recipes_are_deterministic_and_mutants_stay_valid() {
        let fresh = fresh_litmus_recipe(42, "small-nh");
        assert_eq!(fresh, fresh_litmus_recipe(42, "small-nh"));
        assert!(fresh.litmus.is_some());
        let mut r = fresh;
        for mseed in 0..64 {
            r = mutate_recipe(&r, mseed);
            let l = r.litmus.expect("litmus mutations stay litmus");
            let p = LitmusProgram::generate(r.seed, &l);
            let program = match &r.keep {
                Some(mask) => {
                    assert_eq!(mask.len(), p.len(), "mask tracks the rounds");
                    p.emit_subset(mask)
                }
                None => p.emit(),
            };
            assert!(!program.bytes.is_empty());
        }
    }

    #[test]
    fn mp_round_planning_interleaves_litmus_recipes() {
        let mut opts = FuzzOpts::new(5);
        opts.mp = true;
        opts.jobs_per_round = 8;
        let recipes = plan_round(&opts, 0, &[]);
        let litmus = recipes.iter().filter(|r| r.litmus.is_some()).count();
        assert_eq!(litmus, 4, "every other fresh slot is a litmus recipe");
        // The spec a litmus recipe runs as is dual-core.
        let spec = job_spec(&recipes[1], &opts);
        assert_eq!(spec.cores, Some(2));
        assert!(!spec.inject_l2_race);
        opts.inject_l2_race = true;
        assert!(job_spec(&recipes[1], &opts).inject_l2_race);
    }

    #[test]
    fn tiny_fuzz_campaign_grows_coverage_and_stays_deterministic() {
        let mut opts = FuzzOpts::new(11);
        opts.rounds = 2;
        opts.jobs_per_round = 3;
        opts.workers = 2;
        opts.max_cycles = 3_000_000;
        opts.minimize = false;
        opts.triage = false;
        let a = run_fuzz(&opts);
        let b = run_fuzz(&opts);
        assert_eq!(
            a.report.deterministic_json(),
            b.report.deterministic_json(),
            "fuzz report bodies must be byte-identical"
        );
        let fuzz = a.report.fuzz.as_ref().expect("fuzz section present");
        assert_eq!(fuzz.rounds.len(), 2);
        assert!(fuzz.rounds[0].new_features > 0);
        assert!(
            fuzz.rounds[1].cumulative_features > fuzz.rounds[0].cumulative_features,
            "coverage must grow round-over-round: {fuzz:?}"
        );
        assert_eq!(fuzz.total_features, a.coverage.len() as u64);
        assert!(!a.corpus.is_empty());
        // Job records were re-indexed globally.
        for (i, j) in a.report.jobs.iter().enumerate() {
            assert_eq!(j.index, i as u64);
            assert!(j.coverage.is_some(), "fuzz jobs carry coverage maps");
        }
    }
}
