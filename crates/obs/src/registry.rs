//! The unified metrics registry.
//!
//! The crates each keep their own ad-hoc stats structs (`ServerStats`,
//! `ClientStats`, `KvStats`, simnet's meters) — those stay, because they are
//! part of the replay digest and must not change shape. The registry is a
//! *bridge*: at snapshot time a caller registers the counters it cares about
//! under stable dotted names (`server.ops_completed`, `client.retransmissions`,
//! `wal.bytes_flushed`, …) and gets back a stable-ordered snapshot that
//! `figures --json` and `chaos-sweep --summary` both emit, so CI can assert
//! on *named* metric rows instead of positional ones.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// One registered metric value. Counters are the only kind today; a caller
/// outside this crate matches with a wildcard arm so that a kind added for a
/// caller that needs it breaks nobody.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum MetricValue {
    /// A monotonically accumulated count.
    Counter(u64),
}

impl MetricValue {
    /// The scalar CI compares against: the count.
    pub fn scalar(&self) -> f64 {
        match self {
            MetricValue::Counter(v) => *v as f64,
        }
    }
}

/// A typed registry of named metrics. Names are dotted paths; the map is a
/// `BTreeMap` so snapshots are stable-ordered by construction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Registers (or replaces) a counter.
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        self.metrics
            .insert(name.to_string(), MetricValue::Counter(value));
        self
    }

    /// The stable-ordered snapshot: rows sorted by name.
    pub fn snapshot(&self) -> Vec<(String, MetricValue)> {
        self.metrics
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_is_stable_ordered_by_name() {
        let mut reg = MetricsRegistry::new();
        reg.counter("z.last", 1)
            .counter("a.first", 2)
            .counter("m.mid", 3);
        let names: Vec<String> = reg.snapshot().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, vec!["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn scalar_projection() {
        assert_eq!(MetricValue::Counter(9).scalar(), 9.0);
    }
}
