//! Order statistics shared by the benchmark and the compare helper.

/// Median of `xs` (mean of the middle pair for even lengths); None when
/// empty.
pub fn median(xs: &[f64]) -> Option<f64> {
    let s = sorted(xs);
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// First and third quartile, computed like Python's
/// `statistics.quantiles(xs, n=4)` (the default "exclusive" method);
/// None for fewer than two values.
pub fn quartiles(xs: &[f64]) -> Option<(f64, f64)> {
    let s = sorted(xs);
    let ld = s.len() as i64;
    if ld < 2 {
        return None;
    }
    let n = 4i64;
    let m = ld + 1;
    let q = |i: i64| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = i * m - j * n;
        (s[j as usize - 1] * (n - delta) as f64 + s[j as usize] * delta as f64) / n as f64
    };
    Some((q(1), q(3)))
}

/// The highest whole percentile that still has at least ten samples
/// beyond it (nearest-rank), with its value; None for ten samples or
/// fewer.
pub fn tail_percentile(xs: &[f64]) -> Option<(u32, f64)> {
    let s = sorted(xs);
    let n = s.len();
    (1..=99u32).rev().find_map(|p| {
        let rank = (p as usize * n).div_ceil(100);
        (rank >= 1 && n - rank >= 10).then(|| (p, s[rank - 1]))
    })
}

/// Whether a larger or a smaller value of a metric is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, memory).
    Lower,
    /// Larger is better (rates).
    Higher,
}

impl Better {
    /// Parse the `better` field of a metric declaration.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }

    /// True when `a` is strictly better than `b`.
    pub fn beats(self, a: f64, b: f64) -> bool {
        match self {
            Better::Lower => a < b,
            Better::Higher => a > b,
        }
    }
}

/// Fraction of pairs `(parent[i], change[i])` the change wins; ties count
/// for neither side. None when there are no pairs.
pub fn win_fraction(parent: &[f64], change: &[f64], better: Better) -> Option<f64> {
    let pairs = parent.len().min(change.len());
    if pairs == 0 {
        return None;
    }
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| better.beats(**c, **p))
        .count();
    Some(wins as f64 / pairs as f64)
}

/// A metric or workload name the benchmark accepts: a letter or digit
/// first, then at most 63 more letters, digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    let mut chars = s.chars();
    matches!(chars.next(), Some(c) if c.is_ascii_alphanumeric())
        && s.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// A unit the benchmark accepts: 1 to 16 letters, digits, `_`, `/`, `%`,
/// `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((90, 90.0)));
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((50, 10.0)));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((99, 990.0)));
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(
            tail_percentile(&xs),
            None,
            "no sample count leaves ten beyond"
        );
        let xs: Vec<f64> = (1..=11).map(f64::from).collect();
        assert_eq!(tail_percentile(&xs), Some((9, 1.0)));
    }

    #[test]
    fn win_fraction_ignores_ties() {
        let parent = [10.0, 10.0, 10.0, 10.0];
        let change = [9.0, 10.0, 11.0, 8.0];
        assert_eq!(win_fraction(&parent, &change, Better::Lower), Some(0.5));
        assert_eq!(win_fraction(&parent, &change, Better::Higher), Some(0.25));
        assert_eq!(win_fraction(&[], &change, Better::Lower), None);
    }

    #[test]
    fn names_and_units_follow_the_rules() {
        assert!(valid_name("wall_s"));
        assert!(valid_name("xscore.cpi.rob_full"));
        assert!(valid_name("0-th"));
        assert!(!valid_name(""));
        assert!(!valid_name("_x"));
        assert!(!valid_name(".x"));
        assert!(!valid_name("a b"));
        assert!(!valid_name("a/b"));
        assert!(valid_name(&"a".repeat(64)));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_unit("kinst/s"));
        assert!(valid_unit("%"));
        assert!(!valid_unit(""));
        assert!(!valid_unit("per second"));
        assert!(!valid_unit(&"s".repeat(17)));
    }
}
