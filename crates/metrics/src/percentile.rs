//! Exact quantile computation over recorded samples.

/// Exact quantile estimator that stores every sample.
///
/// The simulator records at most a few hundred thousand requests per run, so
/// exact quantiles (with linear interpolation between order statistics) are
/// affordable and avoid the bias of sketch-based estimators when computing
/// tail SLOs such as p99 (Figure 11 of the paper).
///
/// Samples are sorted lazily: `record` is O(1) amortized and the first
/// quantile query after an insert pays the sort.
///
/// # Examples
///
/// ```
/// use sp_metrics::Quantiles;
///
/// let mut q = Quantiles::new();
/// q.extend([10.0, 20.0, 30.0, 40.0]);
/// assert_eq!(q.quantile(0.0), Some(10.0));
/// assert_eq!(q.quantile(1.0), Some(40.0));
/// assert_eq!(q.quantile(0.5), Some(25.0));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Quantiles {
    samples: Vec<f64>,
    sorted: bool,
}

impl Quantiles {
    /// Creates an empty estimator.
    pub fn new() -> Quantiles {
        Quantiles { samples: Vec::new(), sorted: true }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN sample");
        self.samples.push(value);
        self.sorted = false;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Sorts the samples once per batch of records. Unstable: only
    /// values that compare equal can trade places, and those are
    /// bit-identical except `-0.0` against `0.0`, which no time
    /// difference yields.
    fn ensure_sorted(&mut self) {
        if !self.sorted {
            self.samples.sort_unstable_by(|a, b| a.partial_cmp(b).expect("no NaN recorded"));
            self.sorted = true;
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) with linear interpolation, or `None`
    /// when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1], got {q}");
        if self.samples.is_empty() {
            return None;
        }
        self.ensure_sorted();
        let n = self.samples.len();
        if n == 1 {
            return Some(self.samples[0]);
        }
        let pos = q * (n - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        Some(self.samples[lo] * (1.0 - frac) + self.samples[hi] * frac)
    }

    /// Median (p50), or `None` when empty.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// 99th percentile, or `None` when empty.
    pub fn p99(&mut self) -> Option<f64> {
        self.quantile(0.99)
    }

    /// Smallest sample, or `None` when empty.
    pub fn min(&mut self) -> Option<f64> {
        self.quantile(0.0)
    }

    /// Largest sample, or `None` when empty.
    pub fn max(&mut self) -> Option<f64> {
        self.quantile(1.0)
    }
}

impl Extend<f64> for Quantiles {
    fn extend<T: IntoIterator<Item = f64>>(&mut self, iter: T) {
        for v in iter {
            self.record(v);
        }
    }
}

impl FromIterator<f64> for Quantiles {
    fn from_iter<T: IntoIterator<Item = f64>>(iter: T) -> Quantiles {
        let mut q = Quantiles::new();
        q.extend(iter);
        q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_returns_none() {
        let mut q = Quantiles::new();
        assert_eq!(q.median(), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let mut q: Quantiles = [7.0].into_iter().collect();
        assert_eq!(q.quantile(0.0), Some(7.0));
        assert_eq!(q.quantile(0.37), Some(7.0));
        assert_eq!(q.quantile(1.0), Some(7.0));
    }

    #[test]
    fn median_of_even_count_interpolates() {
        let mut q: Quantiles = [1.0, 2.0, 3.0, 4.0].into_iter().collect();
        assert_eq!(q.median(), Some(2.5));
    }

    #[test]
    fn interleaved_record_and_query() {
        let mut q = Quantiles::new();
        q.record(10.0);
        assert_eq!(q.median(), Some(10.0));
        q.record(20.0);
        assert_eq!(q.median(), Some(15.0));
        q.record(0.0);
        assert_eq!(q.median(), Some(10.0));
    }

    #[test]
    #[should_panic(expected = "in [0, 1]")]
    fn out_of_range_quantile_rejected() {
        let mut q: Quantiles = [1.0].into_iter().collect();
        let _ = q.quantile(1.5);
    }

    proptest! {
        #[test]
        fn quantiles_bounded_and_monotone(
            xs in prop::collection::vec(-1e6f64..1e6, 1..300),
            qs in prop::collection::vec(0.0f64..=1.0, 1..20),
        ) {
            let mut est: Quantiles = xs.iter().copied().collect();
            let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);

            let mut sorted_qs = qs.clone();
            sorted_qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let mut prev = f64::NEG_INFINITY;
            for q in sorted_qs {
                let v = est.quantile(q).unwrap();
                prop_assert!(v >= min - 1e-9 && v <= max + 1e-9);
                prop_assert!(v >= prev - 1e-9);
                prev = v;
            }
        }

        #[test]
        fn median_has_half_mass(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
            let mut est: Quantiles = xs.iter().copied().collect();
            let m = est.median().unwrap();
            let below = xs.iter().filter(|&&x| x <= m + 1e-9).count();
            let above = xs.iter().filter(|&&x| x >= m - 1e-9).count();
            prop_assert!(below * 2 >= xs.len());
            prop_assert!(above * 2 >= xs.len());
        }
    }
}
