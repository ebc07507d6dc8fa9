//! Sample statistics on the repo's one quantile convention
//! (`sqm::obs::metrics::nearest_rank_index`: `round((len - 1) * p)` into
//! the ascending-sorted samples).

use sqm::obs::metrics::nearest_rank_index;

/// A tail needs this many samples beyond it before it is worth reporting.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Ascending-sorted copy of `samples`.
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Nearest-rank quantile of ascending-sorted samples. Panics on an empty
/// slice: every caller measures at least one sample first.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[nearest_rank_index(sorted.len(), p)]
}

/// Nearest-rank median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The highest percentile, capped at p99, that still has at least
/// [`TAIL_MIN_BEYOND`] samples beyond it: `(percentile, value)`. With fewer
/// than `TAIL_MIN_BEYOND + 1` samples no tail qualifies and the median is
/// returned as percentile 0.5.
pub fn tail(sorted: &[f64]) -> (f64, f64) {
    let n = sorted.len();
    assert!(n > 0, "tail of no samples");
    if n <= TAIL_MIN_BEYOND {
        return (0.5, quantile(sorted, 0.5));
    }
    let p99 = nearest_rank_index(n, 0.99);
    let index = p99.min(n - 1 - TAIL_MIN_BEYOND);
    let percentile = if index == p99 {
        0.99
    } else {
        index as f64 / (n - 1) as f64
    };
    (percentile, sorted[index])
}

/// Interquartile range as a share of the median.
pub fn iqr_share(sorted: &[f64]) -> f64 {
    (quantile(sorted, 0.75) - quantile(sorted, 0.25)) / quantile(sorted, 0.5)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_is_nearest_rank() {
        assert_eq!(median(&[5.0]), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // Even count: round((4 - 1) * 0.5) = round(1.5) = 2 -> the upper middle.
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 3.0);
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(median(&hundred), 50.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 30 samples: index 19 has exactly 10 beyond it, which is ~p66.
        let thirty: Vec<f64> = (0..30).map(f64::from).collect();
        let (p, v) = tail(&thirty);
        assert_eq!(v, 19.0);
        assert!((p - 19.0 / 29.0).abs() < 1e-12, "{p}");
        // 2000 samples: p99 is index 1979 with 20 beyond it, so p99 stands.
        let many: Vec<f64> = (0..2000).map(f64::from).collect();
        assert_eq!(tail(&many), (0.99, 1979.0));
        // Exactly at the edge: 1001 samples put p99 at index 990, 10 beyond.
        let edge: Vec<f64> = (0..1001).map(f64::from).collect();
        assert_eq!(tail(&edge), (0.99, 990.0));
        // 500 samples: p99 (index 494) has only 5 beyond; fall back to 489.
        let some: Vec<f64> = (0..500).map(f64::from).collect();
        assert_eq!(tail(&some).1, 489.0);
        // Too few samples for any tail: the median, flagged as p50.
        let few: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(tail(&few), (0.5, 5.0));
    }

    #[test]
    fn iqr_share_is_relative_to_the_median() {
        let s: Vec<f64> = (100..=300).map(f64::from).collect();
        assert_eq!(iqr_share(&s), 0.5);
    }
}
