//! Time-binned series for throughput-over-time plots.

use crate::units::{Dur, SimTime};

/// The bin that instant `t` (seconds) falls in under bins `width`
/// seconds wide: `(t / width) as usize`, saturating at `usize::MAX`.
/// [`BinnedSeries`] files every weight by this rule.
#[inline]
pub fn bin_index(t: f64, width: f64) -> usize {
    (t / width) as usize
}

/// The exact upper edge of bin `bin` under [`bin_index`]: the least
/// instant whose index is larger, or `None` when no finite instant has
/// one (a saturated index, or bins so wide that `f64::MAX` still falls
/// short). Every instant below the edge falls in `bin` or earlier, so a
/// clock that only moves forward and has reached `bin` stays there
/// until it reaches the edge: a loop can divide once per bin instead of
/// once per instant.
///
/// Found by ulp steps from `(bin + 1) · width` and checked with the
/// same division [`bin_index`] does, so the edge is exact whatever the
/// rounding. That guess is within a few ulps of the edge (the product
/// and the quotient each round by at most half an ulp), so the search
/// takes a handful of steps.
///
/// Every candidate is positive and finite (the guess is at least
/// `width`, and the walk down stops above 0), so a step is one integer
/// add to its bits. `f64::next_down` would also handle 0, whose
/// predecessor is the subnormal `-5e-324`; an optimizer may hoist that
/// branch's division out of the walk into every caller, and a division
/// with a subnormal operand is slow on common hardware.
///
/// `width` must be positive and finite, as a [`BinnedSeries`] width is.
///
/// # Examples
///
/// ```
/// use sp_metrics::timeseries::{bin_edge, bin_index};
///
/// let edge = bin_edge(2, 0.1).unwrap();
/// assert_eq!(bin_index(edge, 0.1), 3);
/// assert_eq!(bin_index(edge.next_down(), 0.1), 2);
/// assert_eq!(bin_edge(usize::MAX, 0.1), None);
/// ```
pub fn bin_edge(bin: usize, width: f64) -> Option<f64> {
    debug_assert!(width > 0.0 && width.is_finite(), "bin width must be positive and finite");
    if bin == usize::MAX {
        return None;
    }
    let above = |t: f64| bin_index(t, width) > bin;
    // Adjacent positive finite floats have adjacent bit patterns.
    let down = |t: f64| f64::from_bits(t.to_bits() - 1);
    let up = |t: f64| f64::from_bits(t.to_bits() + 1);
    let mut edge = ((bin + 1) as f64 * width).min(f64::MAX);
    if above(edge) {
        // Bin 0 starts at 0, so the walk down stops above it.
        while above(down(edge)) {
            edge = down(edge);
        }
    } else {
        while !above(edge) {
            if edge == f64::MAX {
                return None;
            }
            edge = up(edge);
        }
    }
    Some(edge)
}

/// Accumulates `(time, weight)` events into fixed-width time bins.
///
/// Used for the throughput panels of Figures 1 and 7: every processed token
/// is recorded at its completion instant, and `rates()` yields tokens/second
/// per bin. Bins extend automatically as time advances.
///
/// # Examples
///
/// ```
/// use sp_metrics::{BinnedSeries, Dur, SimTime};
///
/// let mut s = BinnedSeries::new(Dur::from_secs(1.0));
/// s.record(SimTime::from_secs(0.5), 100.0);
/// s.record(SimTime::from_secs(0.9), 50.0);
/// s.record(SimTime::from_secs(1.5), 10.0);
/// let rates: Vec<_> = s.rates().collect();
/// assert_eq!(rates[0].1, 150.0); // 150 units in the first 1 s bin
/// assert_eq!(rates[1].1, 10.0);
/// ```
#[derive(Debug, Clone)]
pub struct BinnedSeries {
    bin_width: Dur,
    bins: Vec<f64>,
}

impl BinnedSeries {
    /// Creates a series with the given bin width.
    ///
    /// # Panics
    ///
    /// Panics if `bin_width` is zero.
    pub fn new(bin_width: Dur) -> BinnedSeries {
        assert!(!bin_width.is_zero(), "bin width must be positive");
        BinnedSeries { bin_width, bins: Vec::new() }
    }

    /// Adds `weight` at instant `t`.
    ///
    /// # Panics
    ///
    /// Panics, naming `t` and the bin width, if `t`'s bin index
    /// saturates at `usize::MAX` (an instant 2^64 or more bin widths
    /// from 0): no series can extend to that bin.
    pub fn record(&mut self, t: SimTime, weight: f64) {
        *self.bin_mut(t) += weight;
    }

    /// The bin of instant `t`, extending the series up to it.
    fn bin_mut(&mut self, t: SimTime) -> &mut f64 {
        let width = self.bin_width.as_secs();
        let idx = bin_index(t.as_secs(), width);
        if idx >= self.bins.len() {
            let Some(len) = idx.checked_add(1) else {
                panic!(
                    "instant {:e} s lies past the last bin a series of {} s bins can hold",
                    t.as_secs(),
                    width
                );
            };
            self.bins.resize(len, 0.0);
        }
        &mut self.bins[idx]
    }

    /// Adds `count` repetitions of weight `weight`, all landing in the
    /// bin of instant `t` — the closed-form equivalent of calling
    /// [`BinnedSeries::record`] `count` times with instants that share
    /// `t`'s bin. The caller owns that same-bin guarantee (the engine's
    /// decode fast-forward segments its runs at bin boundaries).
    ///
    /// Bit-identity with the per-event loop is load-bearing: when the
    /// bin and the weight are both non-negative integers and the final
    /// total stays at or below 2^53, every partial sum of the per-event
    /// loop is an exactly-representable integer, so one fused add of
    /// `weight × count` produces the same bits. Outside that regime
    /// (fractional weights, giant totals) the method falls back to the
    /// literal per-event loop rather than re-associate inexact sums.
    ///
    /// # Panics
    ///
    /// Panics as [`BinnedSeries::record`] does when `count` is positive.
    pub fn record_repeated(&mut self, t: SimTime, weight: f64, count: u64) {
        if count == 0 {
            return;
        }
        /// Largest integer up to which every f64 add of integers is exact.
        const EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
        let bin = self.bin_mut(t);
        let total = weight * count as f64;
        let exact = weight >= 0.0
            && weight.fract() == 0.0
            && *bin >= 0.0
            && bin.fract() == 0.0
            && count as f64 <= EXACT
            && *bin + total <= EXACT;
        if exact {
            *bin += total;
        } else {
            for _ in 0..count {
                *bin += weight;
            }
        }
    }

    /// Number of bins so far.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// The configured bin width.
    pub fn bin_width(&self) -> Dur {
        self.bin_width
    }

    /// Iterates over `(bin_start_time, total_weight_in_bin)`.
    pub fn totals(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let w = self.bin_width.as_secs();
        self.bins.iter().enumerate().map(move |(i, &v)| (SimTime::from_secs(i as f64 * w), v))
    }

    /// Iterates over `(bin_start_time, weight_per_second)`.
    pub fn rates(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        let w = self.bin_width.as_secs();
        self.totals().map(move |(t, v)| (t, v / w))
    }

    /// Peak per-second rate over all bins, or 0.0 when empty.
    pub fn peak_rate(&self) -> f64 {
        self.rates().map(|(_, r)| r).fold(0.0, f64::max)
    }

    /// Mean per-second rate over the recorded span, or 0.0 when empty.
    pub fn mean_rate(&self) -> f64 {
        if self.bins.is_empty() {
            return 0.0;
        }
        let total: f64 = self.bins.iter().sum();
        total / (self.bins.len() as f64 * self.bin_width.as_secs())
    }

    /// Total weight across all bins.
    pub fn total(&self) -> f64 {
        self.bins.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn records_land_in_correct_bins() {
        let mut s = BinnedSeries::new(Dur::from_secs(2.0));
        s.record(SimTime::from_secs(0.0), 1.0);
        s.record(SimTime::from_secs(1.99), 2.0);
        s.record(SimTime::from_secs(2.0), 4.0);
        let totals: Vec<_> = s.totals().map(|(_, v)| v).collect();
        assert_eq!(totals, vec![3.0, 4.0]);
    }

    #[test]
    fn gap_bins_are_zero() {
        let mut s = BinnedSeries::new(Dur::from_secs(1.0));
        s.record(SimTime::from_secs(0.5), 1.0);
        s.record(SimTime::from_secs(3.5), 1.0);
        let totals: Vec<_> = s.totals().map(|(_, v)| v).collect();
        assert_eq!(totals, vec![1.0, 0.0, 0.0, 1.0]);
    }

    #[test]
    fn peak_and_mean_rates() {
        let mut s = BinnedSeries::new(Dur::from_millis(500.0));
        s.record(SimTime::from_secs(0.1), 10.0); // bin 0: 20/s
        s.record(SimTime::from_secs(0.6), 5.0); // bin 1: 10/s
        assert_eq!(s.peak_rate(), 20.0);
        assert_eq!(s.mean_rate(), 15.0);
        assert_eq!(s.total(), 15.0);
    }

    #[test]
    fn empty_series_rates_are_zero() {
        let s = BinnedSeries::new(Dur::from_secs(1.0));
        assert!(s.is_empty());
        assert_eq!(s.peak_rate(), 0.0);
        assert_eq!(s.mean_rate(), 0.0);
    }

    proptest! {
        #[test]
        fn total_is_conserved(
            events in prop::collection::vec((0.0f64..100.0, 0.0f64..10.0), 0..100)
        ) {
            let mut s = BinnedSeries::new(Dur::from_secs(0.7));
            let mut expected = 0.0;
            for &(t, w) in &events {
                s.record(SimTime::from_secs(t), w);
                expected += w;
            }
            prop_assert!((s.total() - expected).abs() < 1e-9);
        }

        #[test]
        fn peak_rate_at_least_mean_rate(
            events in prop::collection::vec((0.0f64..50.0, 0.1f64..10.0), 1..100)
        ) {
            let mut s = BinnedSeries::new(Dur::from_secs(1.0));
            for &(t, w) in &events {
                s.record(SimTime::from_secs(t), w);
            }
            prop_assert!(s.peak_rate() >= s.mean_rate() - 1e-9);
        }

        /// `bin_edge` is the exact least instant of the next bin: the
        /// division puts the edge and the ulp above it past `bin`, and
        /// the ulp below it (never below `t`) in `bin`. A guess of
        /// `(bin + 1) · width` without the ulp walk fails this at
        /// width 0.1 (`0.7 / 0.1` rounds below 7, for one).
        #[test]
        fn bin_edge_agrees_with_the_division(
            width in prop_oneof![Just(0.1), Just(1.0 / 3.0), Just(1.0)],
            t in prop_oneof![
                0.0f64..1e4,
                (0u32..100_000).prop_map(|k| f64::from(k) / 10.0),
                (0u32..100_000).prop_map(|k| f64::from(k) / 3.0),
                (0.0f64..308.0).prop_map(|e| 10f64.powf(e)),
                (0.0f64..1.0).prop_map(|f| f * f64::MAX),
            ],
        ) {
            let bin = bin_index(t, width);
            match bin_edge(bin, width) {
                Some(edge) => {
                    prop_assert!(t < edge, "t {} lies past the edge {} of its bin", t, edge);
                    prop_assert!(bin_index(edge, width) > bin);
                    prop_assert!(bin_index(edge.next_up(), width) > bin);
                    prop_assert_eq!(bin_index(edge.next_down(), width), bin);
                }
                None => prop_assert!(bin == usize::MAX || bin_index(f64::MAX, width) == bin),
            }
        }
    }

    #[test]
    #[should_panic(
        expected = "instant 1e300 s lies past the last bin a series of 0.1 s bins can hold"
    )]
    fn record_past_the_last_bin_names_the_instant_and_the_width() {
        BinnedSeries::new(Dur::from_secs(0.1)).record(SimTime::from_secs(1e300), 1.0);
    }

    #[test]
    #[should_panic(
        expected = "instant 2e19 s lies past the last bin a series of 1 s bins can hold"
    )]
    fn record_repeated_past_the_last_bin_names_the_instant_and_the_width() {
        // Past 2^64 s (about 1.8e19 s), where 1 s bins saturate the index.
        BinnedSeries::new(Dur::from_secs(1.0)).record_repeated(SimTime::from_secs(2e19), 1.0, 3);
    }

    #[test]
    fn bin_edge_corrects_the_rounded_guess_both_ways() {
        // 17 × 0.1 rounds to 1.7000000000000002, yet 1.7 already
        // divides to 17: the edge of bin 16 lies below the guess.
        // 43 × 0.1 rounds to 4.3, which divides to just under 43: the
        // edge of bin 42 lies above it.
        let edge = bin_edge(16, 0.1).unwrap();
        assert_eq!(edge, 1.7);
        assert!(edge < 17.0 * 0.1);
        assert_eq!((bin_index(edge, 0.1), bin_index(edge.next_down(), 0.1)), (17, 16));
        let edge = bin_edge(42, 0.1).unwrap();
        assert!(edge > 43.0 * 0.1);
        assert_eq!((bin_index(edge, 0.1), bin_index(edge.next_down(), 0.1)), (43, 42));
        // Past 2^64 bins the index saturates: no edge.
        assert_eq!(bin_index(1e300, 0.1), usize::MAX);
        assert_eq!(bin_edge(usize::MAX, 0.1), None);
    }
}
