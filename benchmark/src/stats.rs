//! Order statistics for the benchmark's reports.

/// Linear-interpolation percentile (`p` in 0–100) of `values`; `None`
/// for an empty slice.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let last = sorted.len().checked_sub(1)?;
    let rank = p.clamp(0.0, 100.0) / 100.0 * last as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64))
}

/// Median and quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p25: f64,
    pub p75: f64,
    pub n: usize,
}

/// Median and quartiles of `values` (all zero for an empty sample).
pub fn summarize(values: &[f64]) -> Summary {
    let at = |p| percentile(values, p).unwrap_or(0.0);
    Summary {
        median: at(50.0),
        p25: at(25.0),
        p75: at(75.0),
        n: values.len(),
    }
}

/// Percentile levels a tail is reported at, in hundredths of a percent.
const TAIL_LEVELS: [u64; 5] = [5_000, 9_000, 9_900, 9_990, 9_999];

/// The highest level of the tail ladder (p50, p90, p99, p99.9, p99.99)
/// that still has at least ten samples beyond it in a sample of `n`;
/// `None` when even the median has fewer.
pub fn tail_level(n: usize) -> Option<f64> {
    let n = n as u64;
    TAIL_LEVELS
        .iter()
        .rev()
        .find(|&&level| n * (10_000 - level) >= 10 * 10_000)
        .map(|&level| level as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_interpolate() {
        let s = summarize(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.p25, 1.75);
        assert_eq!(s.p75, 3.25);
        assert_eq!(s.n, 4);
        let odd = summarize(&[5.0, 1.0, 3.0]);
        assert_eq!((odd.p25, odd.median, odd.p75), (2.0, 3.0, 4.0));
        assert_eq!(summarize(&[7.0]).p75, 7.0);
        assert_eq!(summarize(&[]).n, 0);
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn tail_level_keeps_ten_samples_beyond() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(20), Some(50.0));
        assert_eq!(tail_level(99), Some(50.0));
        assert_eq!(tail_level(100), Some(90.0));
        assert_eq!(tail_level(999), Some(90.0));
        assert_eq!(tail_level(1_000), Some(99.0));
        assert_eq!(tail_level(15_000), Some(99.9));
        assert_eq!(tail_level(100_000), Some(99.99));
    }
}
