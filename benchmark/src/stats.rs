//! Order statistics the benchmark reports: nearest-rank percentiles,
//! the ten-samples-beyond rule for tails, and segment medians.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of `samples` (unsorted), `q` in `[0, 1]`:
/// the smallest sample with at least `q·n` samples at or below it.
/// Returns 0 on an empty sample.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    // The slack keeps a product like 0.95 × 200 = 190.00000000000003
    // from rounding up to the next rank.
    let rank = (q * s.len() as f64 - 1e-9).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median by nearest rank. Timing metrics are the median of their
/// phase's per-segment values: one neighbour burst can spoil one
/// segment but not the phase's reading.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 0.5)
}

/// The highest percentile, capped at `cap`, that still has
/// [`MIN_BEYOND`] samples beyond it; never below the median, which is
/// what a sample too small to support any tail falls back to.
pub fn supported_tail(n: usize, cap: f64) -> f64 {
    if n == 0 {
        return 0.5;
    }
    let q = 1.0 - MIN_BEYOND as f64 / n as f64;
    q.min(cap).max(0.5)
}

/// `(percentile used, value)` of the tail of `samples`: p99 when the
/// sample supports it, otherwise the highest percentile that does.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let q = supported_tail(samples.len(), 0.99);
    (q, percentile(samples, q))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.99), 99.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&s, 0.0), 1.0);
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), 2.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // Nearest rank never interpolates: the answer is a sample.
        assert_eq!(percentile(&[1.0, 10.0], 0.5), 1.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 of 1000 samples leaves exactly ten beyond it.
        assert_eq!(supported_tail(1000, 0.99), 0.99);
        assert_eq!(supported_tail(5000, 0.99), 0.99);
        // 999 samples cannot support p99; 200 support p95.
        assert!(supported_tail(999, 0.99) < 0.99);
        assert!((supported_tail(200, 0.99) - 0.95).abs() < 1e-12);
        // Too few samples for any tail: fall back to the median.
        assert_eq!(supported_tail(3, 0.99), 0.5);
        assert_eq!(supported_tail(0, 0.99), 0.5);
        let s: Vec<f64> = (1..=200).map(f64::from).collect();
        let (q, v) = tail(&s);
        assert!((q - 0.95).abs() < 1e-12);
        assert_eq!(v, 190.0);
        assert_eq!(s.iter().filter(|&&x| x > v).count(), MIN_BEYOND);
    }

    #[test]
    fn median_ignores_one_spoiled_round() {
        assert_eq!(median(&[10.0, 10.5, 9.5, 10.2, 55.0]), 10.2);
        assert_eq!(median(&[7.0]), 7.0);
    }
}
