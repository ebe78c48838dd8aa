//! Exact order statistics over raw samples.
//!
//! Every timing the benchmark prints comes from here, never from the
//! service's log-bucketed `metrics::Histogram`, whose ×2 buckets carry
//! up to ±41% error on a quantile.

/// The `q`-quantile of ascending `sorted` samples, interpolating
/// linearly between the two closest ranks (the "type 7" definition
/// shared by NumPy and R). `None` for an empty slice.
#[must_use]
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "samples unsorted");
    let last = sorted.len().checked_sub(1)?;
    let pos = q.clamp(0.0, 1.0) * last as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// Arithmetic mean (0 for no samples).
#[must_use]
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Median of unsorted samples (0 for none).
#[must_use]
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).p50
}

/// The tail ladder: the highest of these with at least ten samples
/// beyond it is the tail a [`Summary`] reports.
const TAIL_LADDER: [f64; 4] = [0.9999, 0.999, 0.99, 0.9];

/// Sample count, median, and the highest ladder percentile that still
/// has at least ten samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (0 for no samples).
    pub p50: f64,
    /// `(q, value)` of the reported tail, when `n` supports one.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarize unsorted samples.
    #[must_use]
    pub fn of(samples: &[f64]) -> Self {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let tail = TAIL_LADDER
            .iter()
            .find(|&&q| n as f64 * (1.0 - q) >= 10.0 - 1e-9)
            .and_then(|&q| quantile(&sorted, q).map(|v| (q, v)));
        Summary {
            n,
            p50: quantile(&sorted, 0.5).unwrap_or(0.0),
            tail,
        }
    }

    /// `n=… p50=… p99=…` with values scaled by `scale` into `unit`.
    #[must_use]
    pub fn render(&self, scale: f64, unit: &str) -> String {
        let mut s = format!("n={} p50={:.4}{unit}", self.n, self.p50 * scale);
        if let Some((q, v)) = self.tail {
            s.push_str(&format!(" p{}={:.4}{unit}", q * 100.0, v * scale));
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_matches_hand_computed_vectors() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), Some(1.0));
        assert_eq!(quantile(&v, 1.0), Some(4.0));
        // pos = 0.5 * 3 = 1.5 → halfway between 2 and 3.
        assert_eq!(quantile(&v, 0.5), Some(2.5));
        // pos = 0.25 * 3 = 0.75 → 1 + 0.75 * (2 - 1).
        assert_eq!(quantile(&v, 0.25), Some(1.75));
        // pos = 0.9 * 3 = 2.7 → 3 + 0.7 * (4 - 3).
        assert!((quantile(&v, 0.9).unwrap() - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        // Odd count: the median is the middle sample exactly.
        assert_eq!(quantile(&[1.0, 5.0, 100.0], 0.5), Some(5.0));
    }

    #[test]
    fn median_sorts_its_input() {
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 1..=100: p90 has 10 samples beyond it, p99 only 1.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 100);
        assert_eq!(s.p50, 50.5);
        let (q, val) = s.tail.unwrap();
        assert_eq!(q, 0.9);
        assert!((val - 90.1).abs() < 1e-9);
        // 1000 samples support p99 (10 beyond), not p99.9.
        let v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(Summary::of(&v).tail.unwrap().0, 0.99);
        // Too few samples for any tail.
        assert_eq!(Summary::of(&[1.0; 50]).tail, None);
        let (_, p99) = Summary::of(&v).tail.unwrap();
        assert!((p99 - 989.01).abs() < 1e-9, "{p99}");
    }
}
