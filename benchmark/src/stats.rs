//! Exact order statistics on raw samples, and the bound rule that
//! decides whether one set of runs is worse than another.

/// Nearest-rank percentile (`0 < p <= 100`) of raw samples: the value at
/// rank `ceil(p/100 · n)` of the sorted samples. No interpolation and no
/// histogram buckets, so 4 000 latencies leave 200 real samples beyond
/// the reported p95.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    assert!(!samples.is_empty() && p > 0.0 && p <= 100.0);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median: mean of the two middle samples when the count is even.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median wall of `reps` calls of `f`, in microseconds.
pub fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = std::time::Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), which is what the acceptance
/// driver computes. Needs at least two samples.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2);
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let at = |i: usize| {
        // position i·(n+1)/4 on the 1-based sorted samples, clamped
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        sorted[j - 1] + delta * (sorted[j] - sorted[j - 1])
    };
    (at(1), at(3))
}

/// Run-to-run spread: interquartile distance as a share of the median.
/// `None` with fewer than two samples or a zero median.
pub fn spread(samples: &[f64]) -> Option<f64> {
    if samples.len() < 2 {
        return None;
    }
    let m = median(samples);
    let (q1, q3) = quartiles(samples);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// By what share of `base` the value `new` is worse (negative: better).
/// A lower-is-better metric that rises from exactly 0 is infinitely
/// worse — any rise from zero is a regression, whatever the bound.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    let worse_by = match better {
        Better::Lower => new - base,
        Better::Higher => base - new,
    };
    if base == 0.0 {
        return match worse_by.total_cmp(&0.0) {
            std::cmp::Ordering::Greater => f64::INFINITY,
            std::cmp::Ordering::Less => f64::NEG_INFINITY,
            std::cmp::Ordering::Equal => 0.0,
        };
    }
    worse_by / base.abs()
}

/// The outcome of comparing one metric between two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Not worse than the base by more than the bound.
    Agree,
    /// Worse than the base by more than the bound, and by more than two
    /// runs of one seed differ anyway.
    Regressed,
    /// The run-to-run spread exceeds the bound, or what looks like a
    /// regression lies inside it: the comparison can say neither
    /// "unchanged" nor "worse".
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Agree => "agree",
            Verdict::Regressed => "REGRESSED",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One metric compared between two sets of runs, seed by seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Paired {
    /// Median over the seeds of by how much the new run is worse.
    pub worse: f64,
    /// Distance between the quartiles of those per-seed shares: what two
    /// runs of one seed differ by when nothing changed. `None` with one
    /// seed.
    pub spread: Option<f64>,
    pub verdict: Verdict,
}

/// Compares `base[i]` with `new[i]`, two runs of the same seed and so of
/// the same inputs: the variety of the designs, which is most of what ten
/// seeds differ by, cancels, and a metric that repeats exactly for a seed
/// shows any change at all.
pub fn compare(base: &[f64], new: &[f64], better: Better, bound: f64) -> Paired {
    assert!(!base.is_empty() && base.len() == new.len());
    let shares: Vec<f64> = base.iter().zip(new).map(|(a, b)| worsening(*a, *b, better)).collect();
    let worse = median(&shares);
    let spread = (shares.len() >= 2).then(|| {
        let (q1, q3) = quartiles(&shares);
        q3 - q1
    });
    let noise = spread.unwrap_or(0.0);
    let verdict = if worse > bound && worse > noise {
        Verdict::Regressed
    } else if worse > bound || noise > bound {
        Verdict::Unresolved
    } else {
        Verdict::Agree
    };
    Paired { worse, spread, verdict }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_hand_computed_vector() {
        // sorted: 1 2 3 4 5 6 7 8 9 10; rank = ceil(p/100 * 10)
        let v = [7.0, 1.0, 10.0, 3.0, 5.0, 9.0, 2.0, 8.0, 4.0, 6.0];
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 10.0), 1.0);
        assert_eq!(percentile(&v, 11.0), 2.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[42.0], 95.0), 42.0);
        // 20 samples: p95 is the 19th, one real sample beyond it
        let w: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&w, 95.0), 19.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), (10.0, 40.0));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(spread(&[5.0]), None);
    }

    #[test]
    fn bound_rule_including_the_from_zero_case() {
        assert!((worsening(10.0, 11.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!((worsening(10.0, 9.0, Better::Higher) - 0.1).abs() < 1e-12);
        assert!(worsening(10.0, 9.0, Better::Lower) < 0.0);
        assert_eq!(worsening(0.0, 0.0, Better::Lower), 0.0);
        assert_eq!(worsening(0.0, 1.0, Better::Lower), f64::INFINITY);
        let verdict = |a: &[f64], b: &[f64], better, bound| compare(a, b, better, bound).verdict;
        assert_eq!(verdict(&[0.0], &[1.0], Better::Lower, 0.25), Verdict::Regressed);
        assert_eq!(verdict(&[0.0], &[0.0], Better::Lower, 0.25), Verdict::Agree);
        assert_eq!(verdict(&[10.0], &[10.4], Better::Lower, 0.05), Verdict::Agree);
        assert_eq!(verdict(&[10.0], &[10.6], Better::Lower, 0.05), Verdict::Regressed);
        assert_eq!(verdict(&[10.0], &[9.4], Better::Higher, 0.05), Verdict::Regressed);
        // a better median never regresses, however far it moved
        assert_eq!(verdict(&[10.0], &[5.0], Better::Lower, 0.05), Verdict::Agree);
    }

    #[test]
    fn comparison_is_seed_by_seed() {
        // three designs of very different size, each 1 % slower: the spread
        // between the designs does not hide it, nor make it unresolved
        let (base, new) = ([10.0, 20.0, 40.0], [10.1, 20.2, 40.4]);
        let c = compare(&base, &new, Better::Lower, 0.05);
        assert!((c.worse - 0.01).abs() < 1e-12 && c.spread.expect("three seeds") < 1e-12);
        assert_eq!(c.verdict, Verdict::Agree);
        assert_eq!(compare(&base, &new, Better::Lower, 0.005).verdict, Verdict::Regressed);
        // medians agree, but seed by seed the runs are too far apart to say so
        let c = compare(&[10.0, 10.0, 10.0, 10.0], &[9.0, 9.6, 10.4, 11.0], Better::Lower, 0.05);
        assert_eq!(c.verdict, Verdict::Unresolved);
        assert_eq!(compare(&[7.0], &[7.0], Better::Lower, 0.01).spread, None);
        // 8 % worse at the median, but the seeds disagree by more than that:
        // a machine that drifted, not a regression that can be called
        let c = compare(&[10.0, 10.0, 10.0, 10.0], &[9.6, 10.7, 10.9, 12.0], Better::Lower, 0.05);
        assert!(c.worse > 0.05 && c.spread.expect("four seeds") > c.worse);
        assert_eq!(c.verdict, Verdict::Unresolved);
    }
}
