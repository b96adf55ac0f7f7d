//! Order statistics and the regression rule shared by every report.

/// Median, quartiles and range of one metric's samples in a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples`; `None` when there are none. Quartiles use
    /// the exclusive method of Python's `statistics.quantiles(n=4)`, so
    /// spreads read the same here as in any script that checks them.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        let n = s.len();
        let (first, last) = (*s.first()?, s[n - 1]);
        let median = if n % 2 == 1 {
            s[n / 2]
        } else {
            (s[n / 2 - 1] + s[n / 2]) / 2.0
        };
        let (q1, q3) = if n == 1 {
            (first, first)
        } else {
            (quartile(&s, 1), quartile(&s, 3))
        };
        Some(Summary {
            median,
            q1,
            q3,
            min: first,
            max: last,
            n,
        })
    }

    /// Interquartile distance as a share of the median (0 for one sample
    /// or a zero median).
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The `i`-th quartile of sorted `s` (`s.len() >= 2`), exclusive method.
/// Clamping `j` can push `delta` outside `0..4`, which extrapolates past
/// the ends exactly as Python does for very small samples.
fn quartile(s: &[f64], i: usize) -> f64 {
    let m = s.len() + 1;
    let j = (i * m / 4).clamp(1, s.len() - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
}

/// The highest of the standard tail percentiles that still has at least
/// ten samples beyond its nearest-rank position, with its value. `None`
/// when even the median has fewer than ten samples above it.
pub fn tail_percentile(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    // Percentiles in permille, so the nearest rank is exact integer math.
    [999, 990, 900, 500].into_iter().find_map(|pm| {
        let rank = (pm * n).div_ceil(1000).max(1);
        (n >= rank + 10).then(|| (pm as f64 / 10.0, s[rank - 1]))
    })
}

/// How a metric compares between a base run and a new run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound in both directions.
    Same,
    /// Better than the base by more than the bound.
    Better,
    /// Worse than the base by more than the bound: a regression.
    Worse,
    /// The spread between one side's runs is wider than the bound, and
    /// not every new run beats every base run, so no call is made.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// The bound check between two run sets, each summarised over its runs'
/// medians: `new` may be worse than `base` by at most `bound` as a share
/// of `base`'s median. A set of one run has no spread, so two single runs
/// are compared on their medians alone.
pub fn compare(base: &Summary, new: &Summary, bound: f64, higher_is_better: bool) -> Verdict {
    let all_better = if higher_is_better {
        new.min > base.max
    } else {
        new.max < base.min
    };
    if (base.spread() > bound || new.spread() > bound) && !all_better {
        return Verdict::Unresolved;
    }
    let change = (new.median - base.median) / base.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = if higher_is_better { -change } else { change };
    if worse_by > bound {
        Verdict::Worse
    } else if worse_by < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one(v: &[f64]) -> Summary {
        Summary::of(v).unwrap()
    }

    #[test]
    fn median_and_quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let s = one(&[10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!((s.min, s.max, s.n), (1.0, 10.0, 10));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = one(&[5.0, 1.0, 4.0, 2.0, 3.0]);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = one(&[2.0, 1.0]);
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        let s = one(&[4.0]);
        assert_eq!((s.q1, s.median, s.q3, s.spread()), (4.0, 4.0, 4.0, 0.0));
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (1..=2000).map(f64::from).collect();
        // p99.9 of 2000 leaves 2 beyond; p99 (rank 1980) leaves 20.
        assert_eq!(tail_percentile(&v), Some((99.0, 1980.0)));
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((90.0, 90.0)));
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail_percentile(&v), Some((50.0, 10.0)));
        assert_eq!(tail_percentile(&v[..19]), None);
    }

    #[test]
    fn bound_check_is_directional_and_respects_spread() {
        let base = one(&[100.0, 100.0, 100.0]);
        let slower = one(&[90.0, 90.0, 90.0]);
        let faster = one(&[112.0, 112.0, 112.0]);
        assert_eq!(compare(&base, &slower, 0.08, true), Verdict::Worse);
        assert_eq!(compare(&base, &slower, 0.08, false), Verdict::Better);
        assert_eq!(compare(&base, &slower, 0.12, true), Verdict::Same);
        assert_eq!(compare(&base, &faster, 0.08, true), Verdict::Better);
        assert_eq!(compare(&base, &faster, 0.08, false), Verdict::Worse);
        // Single runs: only their medians count.
        assert_eq!(
            compare(&one(&[100.0]), &one(&[70.0]), 0.25, true),
            Verdict::Worse
        );
        assert_eq!(
            compare(&one(&[100.0]), &one(&[80.0]), 0.25, true),
            Verdict::Same
        );
        // Runs spread wider than the bound leave the call open...
        let noisy = one(&[80.0, 100.0, 120.0]);
        assert_eq!(compare(&base, &noisy, 0.08, true), Verdict::Unresolved);
        assert_eq!(compare(&noisy, &base, 0.08, true), Verdict::Unresolved);
        // ...unless every new run beats every base run.
        let noisy_faster = one(&[121.0, 140.0, 160.0]);
        assert_eq!(compare(&noisy, &noisy_faster, 0.08, true), Verdict::Better);
        assert_eq!(
            compare(&noisy, &noisy_faster, 0.08, false),
            Verdict::Unresolved
        );
        // A bound of 0 flags any increase of a lower-is-better count.
        assert_eq!(
            compare(&one(&[0.0]), &one(&[0.0]), 0.0, false),
            Verdict::Same
        );
        assert_eq!(
            compare(&one(&[0.0]), &one(&[1e-4]), 0.0, false),
            Verdict::Worse
        );
    }
}
