//! Order statistics over repeated measurements.

/// Samples a tail percentile needs beyond it before it is reported.
const TAIL_SUPPORT: f64 = 10.0;

/// A set of measurements of one quantity, kept sorted.
#[derive(Clone, Debug, PartialEq)]
pub struct Samples {
    sorted: Vec<f64>,
}

impl Samples {
    /// Sorts `values`; NaNs are a bug in the caller.
    pub fn new(mut values: Vec<f64>) -> Samples {
        assert!(values.iter().all(|v| !v.is_nan()), "NaN sample");
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    pub fn n(&self) -> usize {
        self.sorted.len()
    }

    /// The `q`-quantile, interpolating linearly between closest ranks
    /// (0 for an empty set).
    pub fn quantile(&self, q: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        self.sorted[lo] + (self.sorted[hi] - self.sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn p25(&self) -> f64 {
        self.quantile(0.25)
    }

    pub fn p75(&self) -> f64 {
        self.quantile(0.75)
    }

    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(0.0)
    }

    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(0.0)
    }
}

/// Whether `n` samples put at least [`TAIL_SUPPORT`] beyond the
/// `q`-quantile.
pub fn tail_supported(n: usize, q: f64) -> bool {
    n as f64 * (1.0 - q) >= TAIL_SUPPORT - 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        // 1..=n, shuffled so `new` has to sort.
        Samples::new((1..=n).rev().map(|i| i as f64).collect())
    }

    #[test]
    fn quartiles_of_a_fixed_sequence() {
        let s = Samples::new(vec![7.0, 1.0, 3.0, 5.0, 9.0]);
        assert_eq!(s.n(), 5);
        assert_eq!(s.median(), 5.0);
        assert_eq!(s.p25(), 3.0);
        assert_eq!(s.p75(), 7.0);
        assert_eq!((s.min(), s.max()), (1.0, 9.0));
    }

    #[test]
    fn even_counts_interpolate() {
        let s = Samples::new(vec![4.0, 1.0, 2.0, 3.0]);
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.p25(), 1.75);
        assert_eq!(s.p75(), 3.25);
    }

    #[test]
    fn empty_and_single_sets() {
        let empty = Samples::new(Vec::new());
        assert_eq!((empty.n(), empty.median(), empty.max()), (0, 0.0, 0.0));
        let one = Samples::new(vec![42.0]);
        assert_eq!((one.median(), one.p25(), one.p75()), (42.0, 42.0, 42.0));
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert!(!tail_supported(0, 0.9));
        assert!(!tail_supported(99, 0.9));
        // 100 samples: exactly 10 beyond p90.
        assert!(tail_supported(100, 0.9));
        assert!(!tail_supported(999, 0.99));
        assert!(tail_supported(1_000, 0.99));
        assert!(tail_supported(100_000, 0.9999));
        assert!(tail_supported(10_000, 0.999));
        assert!(!tail_supported(9_999, 0.999));
        assert!((ramp(1_000).quantile(0.99) - 990.01).abs() < 1e-9);
    }
}
