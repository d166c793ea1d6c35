//! Sample statistics with the benchmark's reporting rule: a percentile is
//! reported only where at least ten samples lie beyond it.

/// Samples a percentile needs beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count at which percentile `p` (0 < p < 100) has
/// [`MIN_BEYOND`] samples beyond it.
pub fn samples_needed(p: f64) -> usize {
    (1..)
        .find(|&n| beyond(n, p) >= MIN_BEYOND)
        .expect("some sample count supports any p < 100")
}

/// Nearest-rank index of percentile `p` in `n` sorted samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Samples strictly after the nearest-rank position of `p`.
fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - 1 - rank(n, p)
    }
}

/// Percentile `p` of `samples` by nearest rank, or `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it. The median is exempt from the
/// rule and needs one sample.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() || (p > 50.0 && beyond(samples.len(), p) < MIN_BEYOND) {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    Some(s[rank(s.len(), p)])
}

/// Median by nearest rank; `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    percentile(samples, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(samples_needed(99.0), 1000);
        assert_eq!(percentile(&ramp(999), 99.0), None);
        // 1000 samples: rank 990, and samples 991..=1000 lie beyond.
        assert_eq!(percentile(&ramp(1000), 99.0), Some(990.0));
        assert_eq!(samples_needed(90.0), 100);
        assert_eq!(percentile(&ramp(99), 90.0), None);
        assert_eq!(percentile(&ramp(100), 90.0), Some(90.0));
    }

    #[test]
    fn median_needs_one_sample_and_ignores_order() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    }
}
