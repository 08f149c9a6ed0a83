//! Published operation mixes.
//!
//! * Tab. 2 — metadata-operation ratios from three deployed PanguFS
//!   instances at Alibaba (the motivation for asynchronous updates: 30.76 %
//!   of operations update directories, only 4.19 % read them).
//! * Tab. 5 — the data-center-services (synthetic) mix. The CNN-training and
//!   thumbnail workloads of that table are traces, not mixes: see
//!   `generators`.

use crate::ops::OpKind;
use rand::Rng;

/// A weighted mix of operations.
#[derive(Debug, Clone, PartialEq)]
pub struct OpMix {
    /// `(operation, weight)` pairs; weights need not sum to 1.
    pub weights: Vec<(OpKind, f64)>,
}

impl OpMix {
    /// Creates a mix from `(operation, weight)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn new(weights: Vec<(OpKind, f64)>) -> Self {
        assert!(
            weights.iter().any(|(_, w)| *w > 0.0),
            "an operation mix needs at least one positive weight"
        );
        OpMix { weights }
    }

    /// Tab. 2: the PanguFS metadata-operation ratios.
    pub fn pangu() -> Self {
        OpMix::new(vec![
            (OpKind::Create, 9.58),
            (OpKind::Delete, 11.88),
            (OpKind::Mkdir, 0.01),
            (OpKind::Rmdir, 0.01),
            (OpKind::Rename, 9.29),
            (OpKind::Statdir, 0.28),
            (OpKind::Readdir, 3.91),
            (OpKind::Open, 26.30),
            (OpKind::Close, 26.29),
            (OpKind::Stat, 12.35),
            (OpKind::Chmod, 0.10),
        ])
    }

    /// Tab. 5, "Data Center Services": the synthetic end-to-end workload
    /// (metadata only — the paper omits data access for this one).
    pub fn datacenter_services() -> Self {
        OpMix::new(vec![
            (OpKind::Open, 26.3),
            (OpKind::Close, 26.3),
            (OpKind::Stat, 12.4),
            (OpKind::Create, 9.58),
            (OpKind::Delete, 11.9),
            (OpKind::Rename, 9.3),
            (OpKind::Chmod, 0.1),
            (OpKind::Readdir, 3.9),
            (OpKind::Statdir, 0.2),
        ])
    }

    /// Total weight.
    pub fn total_weight(&self) -> f64 {
        self.weights.iter().map(|(_, w)| w).sum()
    }

    /// The fraction of operations that update directories.
    pub fn dir_update_fraction(&self) -> f64 {
        let upd: f64 = self
            .weights
            .iter()
            .filter(|(k, _)| k.is_dir_update())
            .map(|(_, w)| w)
            .sum();
        upd / self.total_weight()
    }

    /// The fraction of operations that read directories.
    pub fn dir_read_fraction(&self) -> f64 {
        let rd: f64 = self
            .weights
            .iter()
            .filter(|(k, _)| k.is_dir_read())
            .map(|(_, w)| w)
            .sum();
        rd / self.total_weight()
    }

    /// Samples one operation kind.
    pub fn sample(&self, rng: &mut impl Rng) -> OpKind {
        let total = self.total_weight();
        let mut x = rng.gen::<f64>() * total;
        for (kind, w) in &self.weights {
            if x < *w {
                return *kind;
            }
            x -= w;
        }
        self.weights.last().expect("non-empty").0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pangu_mix_matches_table2_imbalance() {
        let mix = OpMix::pangu();
        // Tab. 2: ~30.76% directory updates vs ~4.19% directory reads.
        let upd = mix.dir_update_fraction();
        let rd = mix.dir_read_fraction();
        assert!((upd - 0.3076).abs() < 0.01, "dir update fraction {upd}");
        assert!((rd - 0.0419).abs() < 0.01, "dir read fraction {rd}");
        // The pigeonhole bound of §3.1: at least 86.3% of directory updates
        // are not immediately followed by a directory read.
        assert!((upd - rd) / upd > 0.85);
    }

    #[test]
    fn sampling_respects_weights_roughly() {
        let mix = OpMix::new(vec![(OpKind::Stat, 9.0), (OpKind::Create, 1.0)]);
        let mut rng = StdRng::seed_from_u64(7);
        let n = 10_000;
        let stats = (0..n)
            .filter(|_| mix.sample(&mut rng) == OpKind::Stat)
            .count();
        let frac = stats as f64 / n as f64;
        assert!((frac - 0.9).abs() < 0.03, "stat fraction {frac}");
    }

    #[test]
    fn all_published_mixes_are_well_formed() {
        for mix in [OpMix::pangu(), OpMix::datacenter_services()] {
            assert!(mix.total_weight() > 90.0 && mix.total_weight() < 110.0);
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn zero_weight_mix_panics() {
        let _ = OpMix::new(vec![(OpKind::Stat, 0.0)]);
    }
}
