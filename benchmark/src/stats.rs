//! Sample statistics and the seeded generator every workload draws from.

/// SplitMix64: the one source of randomness in the benchmark. The same
/// seed always yields the same request mix, catalogue order and feeds.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`). The modulo bias is below 2⁻⁴⁰ for the
    /// sizes used here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        let unit = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        lo + unit * (hi - lo)
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Quantile `q` in `[0, 1]` of an ascending slice, linearly interpolated
/// between the two closest ranks. `None` for an empty slice.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    let last = sorted.len().checked_sub(1)?;
    let h = q.clamp(0.0, 1.0) * last as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (h - lo as f64))
}

/// The highest percentile of the ladder 50/75/90/95/99/99.9 that still has
/// at least ten of `n` samples beyond it; `None` below twenty samples,
/// where not even the median has that support.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    // In tenths of a percent, so that 100 samples at p90 count ten beyond
    // it exactly rather than 9.999….
    let beyond = |per_mille: usize| n * (1000 - per_mille) / 1000;
    [999, 990, 950, 900, 750, 500].into_iter().find(|&p| beyond(p) >= 10).map(|p| p as f64 / 10.0)
}

/// Median, quartiles and the highest supported percentile of one sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    /// `(percentile, value)` by [`highest_supported_percentile`].
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// `None` for an empty sample set.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let at = |q| quantile_sorted(&sorted, q);
        Some(Summary {
            n: sorted.len(),
            p25: at(0.25)?,
            p50: at(0.5)?,
            p75: at(0.75)?,
            tail: highest_supported_percentile(sorted.len())
                .map(|p| (p, at(p / 100.0).expect("non-empty"))),
        })
    }
}

/// Median of a sample set; 0 when empty (a layer that never ran).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).map_or(0.0, |s| s.p50)
}

/// Quantile of an unsorted sample set; 0 when empty.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    quantile_sorted(&sorted, q).unwrap_or(0.0)
}

/// Geometric mean; 0 when empty or when any value is not positive, so a
/// missing row can never hide inside the mean.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(39), Some(50.0));
        assert_eq!(highest_supported_percentile(40), Some(75.0));
        assert_eq!(highest_supported_percentile(100), Some(90.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_interpolate_between_ranks() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0, 5.0]).unwrap();
        assert_eq!((s.n, s.p25, s.p50, s.p75), (5, 2.0, 3.0, 4.0));
        assert_eq!(s.tail, None);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!((s.p25, s.p50, s.p75), (1.75, 2.5, 3.25));
        assert_eq!(Summary::of(&[]), None);
        assert_eq!(median(&[]), 0.0);
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        let (p, v) = Summary::of(&hundred).unwrap().tail.unwrap();
        assert_eq!(p, 90.0);
        assert!((v - 90.1).abs() < 1e-9, "{v}");
    }

    #[test]
    fn geomean_is_the_log_average_and_rejects_missing_rows() {
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-12);
        assert!((geomean(&[2.0, 2.0, 2.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
        assert_eq!(geomean(&[3.0, 0.0]), 0.0);
    }

    #[test]
    fn splitmix_shuffle_is_stable_per_seed() {
        let deal = |seed| {
            let mut deck: Vec<u32> = (0..64).collect();
            SplitMix(seed).shuffle(&mut deck);
            deck
        };
        assert_eq!(deal(7), deal(7));
        assert_ne!(deal(7), deal(8));
        let mut sorted = deal(7);
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // Pinned so a change to the generator cannot silently change every
        // workload's inputs.
        assert_eq!(SplitMix(0).next_u64(), 0xE220_A839_7B1D_CDAF);
        let mut r = SplitMix(1);
        assert!((0..1000).all(|_| (2.0..3.0).contains(&r.range_f64(2.0, 3.0))));
    }
}
