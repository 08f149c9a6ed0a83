//! Measurement helper used by the evaluation harness: the latency histogram
//! (mean / median / p25 / p75 / p90 / p99, as reported in Fig. 13 and
//! Fig. 16).

use crate::time::SimDuration;

/// Declares a struct of `u64` counters and makes it the only list of their
/// names: the struct as written (with the derives every counter struct
/// carries), field-wise `+=` for totals over servers, clients or stores, and
/// `rows()` for reporting — a counter added to the struct is
/// summed and reported without being named again.
#[macro_export]
macro_rules! counters {
    ($(#[$meta:meta])* pub struct $name:ident {
        $($(#[$field_meta:meta])* pub $field:ident: u64,)+
    }) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct $name {
            $($(#[$field_meta])* pub $field: u64,)+
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, other: Self) {
                $(self.$field += other.$field;)+
            }
        }

        impl $name {
            /// Every counter as `(field name, value)`, in declaration order.
            pub fn rows(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field)),+]
            }
        }
    };
}

/// A latency recorder with percentile queries.
///
/// Samples are stored exactly (nanosecond resolution); experiments record at
/// most a few hundred thousand samples per data point so memory is not a
/// concern, and exact percentiles keep the harness output reproducible.
#[derive(Debug, Clone, Default)]
pub struct LatencyHistogram {
    samples: Vec<u64>,
    sorted: bool,
}

impl LatencyHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, d: SimDuration) {
        self.samples.push(d.as_nanos());
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Mean latency.
    pub fn mean(&self) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        let sum: u128 = self.samples.iter().map(|&s| s as u128).sum();
        SimDuration::nanos((sum / self.samples.len() as u128) as u64)
    }

    /// Largest recorded latency.
    pub fn max(&self) -> SimDuration {
        SimDuration::nanos(self.samples.iter().copied().max().unwrap_or(0))
    }

    /// Smallest recorded latency.
    pub fn min(&self) -> SimDuration {
        SimDuration::nanos(self.samples.iter().copied().min().unwrap_or(0))
    }

    /// The `p`-th percentile (0.0–100.0), using nearest-rank interpolation.
    pub fn percentile(&mut self, p: f64) -> SimDuration {
        if self.samples.is_empty() {
            return SimDuration::ZERO;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        let p = p.clamp(0.0, 100.0);
        let rank = ((p / 100.0) * (self.samples.len() - 1) as f64).round() as usize;
        SimDuration::nanos(self.samples[rank])
    }

    /// Median latency.
    pub fn median(&mut self) -> SimDuration {
        self.percentile(50.0)
    }

    /// A one-line summary used in harness output.
    pub fn summary(&mut self) -> String {
        if self.is_empty() {
            return "no samples".to_string();
        }
        format!(
            "mean={:.1}us p50={:.1}us p90={:.1}us p99={:.1}us max={:.1}us n={}",
            self.mean().as_micros_f64(),
            self.percentile(50.0).as_micros_f64(),
            self.percentile(90.0).as_micros_f64(),
            self.percentile(99.0).as_micros_f64(),
            self.max().as_micros_f64(),
            self.count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles() {
        let mut h = LatencyHistogram::new();
        for i in 1..=100u64 {
            h.record(SimDuration::micros(i));
        }
        assert_eq!(h.count(), 100);
        // Nearest-rank on an even sample count lands on the upper neighbour.
        assert_eq!(h.median().as_micros(), 51);
        assert_eq!(h.percentile(99.0).as_micros(), 99);
        assert_eq!(h.percentile(0.0).as_micros(), 1);
        assert_eq!(h.percentile(100.0).as_micros(), 100);
        assert_eq!(h.min().as_micros(), 1);
        assert_eq!(h.max().as_micros(), 100);
        assert_eq!(h.mean().as_nanos(), 50_500);
    }

    #[test]
    fn single_sample_answers_every_percentile() {
        let mut h = LatencyHistogram::new();
        h.record(SimDuration::micros(7));
        assert_eq!(h.count(), 1);
        // With one sample there is only one rank: p0, the median and p100
        // all collapse onto it, as do min/max/mean.
        assert_eq!(h.percentile(0.0).as_micros(), 7);
        assert_eq!(h.median().as_micros(), 7);
        assert_eq!(h.percentile(100.0).as_micros(), 7);
        assert_eq!(h.min().as_micros(), 7);
        assert_eq!(h.max().as_micros(), 7);
        assert_eq!(h.mean().as_micros(), 7);
    }

    #[test]
    fn p0_and_p100_are_clamped_extremes() {
        let mut h = LatencyHistogram::new();
        for v in [30u64, 10, 20] {
            h.record(SimDuration::micros(v));
        }
        // Out-of-range percentiles clamp to the extremes rather than
        // indexing out of bounds.
        assert_eq!(h.percentile(-5.0).as_micros(), 10);
        assert_eq!(h.percentile(0.0).as_micros(), 10);
        assert_eq!(h.percentile(100.0).as_micros(), 30);
        assert_eq!(h.percentile(250.0).as_micros(), 30);
    }

    #[test]
    fn duplicate_samples_keep_nearest_rank_exact() {
        let mut h = LatencyHistogram::new();
        // 5 identical low samples and one outlier: every rank below the
        // last returns the duplicated value exactly (nearest-rank never
        // interpolates between neighbours).
        for _ in 0..5 {
            h.record(SimDuration::micros(4));
        }
        h.record(SimDuration::micros(400));
        assert_eq!(h.median().as_micros(), 4);
        assert_eq!(h.percentile(75.0).as_micros(), 4);
        assert_eq!(h.percentile(99.0).as_micros(), 400);
        assert_eq!(h.percentile(100.0).as_micros(), 400);
        // The mean, unlike the ranks, does see the outlier.
        assert_eq!(h.mean().as_micros(), 70);
    }

    #[test]
    fn empty_histogram_is_zero() {
        let mut h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.mean(), SimDuration::ZERO);
        assert_eq!(h.percentile(99.0), SimDuration::ZERO);
        assert_eq!(h.summary(), "no samples");
    }
}
