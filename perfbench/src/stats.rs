//! Order statistics for the benchmark's reports: quartiles computed the
//! way Python's `statistics.quantiles(data, n=4)` computes them, exact
//! nearest-rank percentiles, the tail-percentile rule, and the error
//! rate.

/// Percentiles the tail rule picks from, in hundredths of a percent
/// (9900 is p99), highest first.
const TAIL_LADDER: [u32; 7] = [9999, 9990, 9900, 9500, 9000, 7500, 5000];

/// The smallest number of samples that must lie beyond a percentile
/// before it is reported as a tail.
pub const TAIL_SAMPLES: usize = 10;

/// Median and quartiles of one metric's samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Summary {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Summary {
    /// Summarises `samples` (any order). `None` when there are none.
    #[must_use]
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let [q1, median, q3] = quartiles(samples)?;
        Some(Summary {
            q1,
            median,
            q3,
            n: samples.len(),
        })
    }

    /// The distance between the quartiles as a share of the median
    /// (0 when the median is 0).
    #[must_use]
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

/// The three cut points of `statistics.quantiles(samples, n=4)` with
/// Python's default `exclusive` method: first quartile, median, third
/// quartile. One sample yields itself three times; none yields `None`.
#[must_use]
pub fn quartiles(samples: &[f64]) -> Option<[f64; 3]> {
    let mut data = samples.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    match ld {
        0 => return None,
        1 => return Some([data[0]; 3]),
        _ => {}
    }
    // Signed: with few samples the clamped index leaves a negative
    // weight, and Python extrapolates past the extreme samples.
    let (n, m) = (4i64, ld as i64 + 1);
    let mut cuts = [0.0; 3];
    for (i, cut) in (1..n).zip(cuts.iter_mut()) {
        let j = (i * m / n).clamp(1, m - 2);
        let delta = i * m - j * n;
        let (lo, hi) = (data[j as usize - 1], data[j as usize]);
        *cut = (lo * (n - delta) as f64 + hi * delta as f64) / n as f64;
    }
    Some(cuts)
}

/// 1-based nearest rank of percentile `p` (hundredths of a percent)
/// among `n` samples: the smallest rank covering `p` of them.
#[must_use]
pub fn rank(n: usize, p: u32) -> usize {
    (n * p as usize).div_ceil(10_000).max(1)
}

/// How many of `n` samples lie strictly beyond percentile `p`.
#[must_use]
pub fn beyond(n: usize, p: u32) -> usize {
    n - rank(n, p).min(n)
}

/// Nearest-rank percentile `p` (hundredths of a percent) of samples
/// already sorted ascending.
#[must_use]
pub fn percentile(sorted: &[f64], p: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// The highest percentile of the ladder that still has at least
/// [`TAIL_SAMPLES`] of `n` samples beyond it, in hundredths of a
/// percent; `None` when even the median has too few.
#[must_use]
pub fn tail_percentile(n: usize) -> Option<u32> {
    TAIL_LADDER
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= TAIL_SAMPLES)
}

/// Failed operations over attempted ones. The base is every attempt,
/// failed or not; `None` when nothing was attempted.
#[must_use]
pub fn error_rate(failed: u64, attempted: u64) -> Option<f64> {
    (attempted > 0 && failed <= attempted).then(|| failed as f64 / attempted as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some([1.5, 3.0, 4.5]));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[7.0]), Some([7.0; 3]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn spread_is_the_quartile_distance_over_the_median() {
        let s = Summary::of(&(1..=10).map(f64::from).collect::<Vec<_>>()).unwrap();
        assert_eq!(s.median, 5.5);
        assert!((s.spread() - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        assert_eq!(Summary::of(&[3.0; 4]).unwrap().spread(), 0.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond_it() {
        assert_eq!(beyond(1000, 9900), 10);
        assert_eq!(beyond(999, 9900), 9);
        assert_eq!(tail_percentile(1000), Some(9900));
        assert_eq!(tail_percentile(999), Some(9500));
        assert_eq!(tail_percentile(10_000), Some(9990));
        assert_eq!(tail_percentile(100_000), Some(9999));
        assert_eq!(tail_percentile(20), Some(5000));
        assert_eq!(tail_percentile(19), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 9900), Some(990.0));
        assert_eq!(percentile(&sorted, 5000), Some(500.0));
        assert_eq!(percentile(&[4.0], 9999), Some(4.0));
        assert_eq!(percentile(&[], 5000), None);
    }

    #[test]
    fn error_rate_counts_failures_against_all_attempts() {
        assert_eq!(error_rate(0, 12), Some(0.0));
        assert_eq!(error_rate(3, 12), Some(0.25));
        assert_eq!(error_rate(12, 12), Some(1.0));
        assert_eq!(error_rate(0, 0), None);
        assert_eq!(error_rate(2, 1), None);
    }
}
