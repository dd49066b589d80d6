//! Parent-versus-change verdicts over benchmark result sets.
//!
//! A claim of a gain needs the change to win at least nine tenths of the
//! run pairs and the medians to differ by more than the parent's own
//! quartile spread. A bounded metric is worse when the change's median is
//! worse than the parent's by more than the bound, and unresolved when
//! the parent's own spread is wider than the bound (unless every change
//! run beats every parent run).

use crate::stats::{median, quartiles, win_fraction, Better};

/// Outcome of comparing one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The change wins by the win rule.
    Improved,
    /// Within the bound, or identical counts.
    Unchanged,
    /// Worse than the parent by more than the bound (or, without a bound,
    /// loses by the win rule).
    Worse,
    /// The runs cannot tell.
    Unresolved,
}

impl Verdict {
    /// Lower-case display name.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Summary of one side's runs.
#[derive(Debug, Clone, Copy)]
pub struct Side {
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Side {
    /// Summarize runs; None for fewer than two.
    pub fn of(xs: &[f64]) -> Option<Side> {
        let (q1, q3) = quartiles(xs)?;
        Some(Side {
            median: median(xs)?,
            q1,
            q3,
        })
    }
}

/// Full comparison of one metric.
#[derive(Debug, Clone, Copy)]
pub struct Comparison {
    /// Parent runs.
    pub parent: Side,
    /// Change runs.
    pub change: Side,
    /// Fraction of pairs the change won.
    pub wins: f64,
    /// The verdict.
    pub verdict: Verdict,
}

/// Compare runs of one metric. `bound` is the share of the parent median
/// by which the metric may get worse (None for per-layer metrics).
/// Returns None when either side has fewer than two runs.
pub fn compare(
    parent: &[f64],
    change: &[f64],
    better: Better,
    bound: Option<f64>,
) -> Option<Comparison> {
    let p = Side::of(parent)?;
    let c = Side::of(change)?;
    let wins = win_fraction(parent, change, better)?;
    let losses = win_fraction(change, parent, better)?;
    let spread = p.q3 - p.q1;
    let diff = (c.median - p.median).abs();
    let verdict = if wins >= 0.9 && diff > spread && better.beats(c.median, p.median) {
        Verdict::Improved
    } else if let Some(bound) = bound {
        let limit = bound * p.median.abs();
        let all_better = change
            .iter()
            .all(|x| parent.iter().all(|y| better.beats(*x, *y)));
        if better.beats(p.median, c.median) && diff > limit {
            Verdict::Worse
        } else if spread > limit && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        }
    } else if losses >= 0.9 && diff > spread && better.beats(p.median, c.median) {
        Verdict::Worse
    } else if diff <= spread {
        Verdict::Unchanged
    } else {
        Verdict::Unresolved
    };
    Some(Comparison {
        parent: p,
        change: c,
        wins,
        verdict,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(base: f64, step: f64) -> Vec<f64> {
        (0..10).map(|i| base + step * i as f64).collect()
    }

    #[test]
    fn clear_gain_is_improved() {
        let parent = runs(10.0, 0.01);
        let change = runs(8.0, 0.01);
        let c = compare(&parent, &change, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.wins, 1.0);
        assert_eq!(c.verdict, Verdict::Improved);
        // The same numbers read the other way round are a regression.
        let c = compare(&change, &parent, Better::Lower, Some(0.1)).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
    }

    #[test]
    fn small_shift_within_bound_is_unchanged() {
        let parent = runs(10.0, 0.01);
        let change = runs(10.2, 0.01);
        let c = compare(&parent, &change, Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn win_rule_needs_nine_tenths() {
        // Eight of ten pairs won: not enough for a gain.
        let parent = runs(10.0, 0.0);
        let mut change = vec![9.0; 10];
        change[0] = 11.0;
        change[1] = 11.0;
        let c = compare(&parent, &change, Better::Lower, Some(0.5)).unwrap();
        assert_eq!(c.wins, 0.8);
        assert_eq!(c.verdict, Verdict::Unchanged);
    }

    #[test]
    fn wide_parent_spread_is_unresolved() {
        let parent = runs(10.0, 1.0);
        let change = runs(10.5, 1.0);
        let c = compare(&parent, &change, Better::Lower, Some(0.05)).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
    }

    #[test]
    fn unbounded_metrics_use_the_win_rule_both_ways() {
        let same = vec![5.0; 10];
        let c = compare(&same, &same, Better::Higher, None).unwrap();
        assert_eq!(c.verdict, Verdict::Unchanged);
        let up = vec![6.0; 10];
        let c = compare(&same, &up, Better::Higher, None).unwrap();
        assert_eq!(c.verdict, Verdict::Improved);
        let c = compare(&up, &same, Better::Higher, None).unwrap();
        assert_eq!(c.verdict, Verdict::Worse);
        assert!(compare(&[1.0], &same, Better::Higher, None).is_none());
    }
}
