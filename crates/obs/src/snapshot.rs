//! Frozen, serializable metric state: what the Prometheus writer behind
//! `/metrics` renders and what tests assert on.

use serde::{Deserialize, Serialize};

/// A histogram frozen at snapshot time. `buckets` holds only the non-empty
/// buckets as `(upper_bound, count)` pairs, upper bounds ascending — the
/// layout is stable across runs so artifacts diff cleanly.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Number of observations.
    pub count: u64,
    /// Sum of observations.
    pub sum: f64,
    /// Smallest observation (0 when empty).
    pub min: f64,
    /// Largest observation (0 when empty).
    pub max: f64,
    /// Non-empty `(bucket upper bound, count)` pairs, ascending.
    pub buckets: Vec<(f64, u64)>,
}

impl HistogramSnapshot {
    /// Mean observation (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// Everything a [`MetricsRegistry`](crate::MetricsRegistry) held at
/// snapshot time, name-sorted for stable JSON output.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// `(name, value)` per counter, name-ascending.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` per histogram, name-ascending.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// Value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Counters whose name starts with `prefix`.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |(n, _)| n.starts_with(prefix))
            .map(|(n, v)| (n.as_str(), *v))
    }

    /// The labeled series of counter family `base`, as `(label, value)`
    /// pairs label-ascending (the unlabeled base series is not included).
    pub fn counter_family<'a>(&'a self, base: &str) -> Vec<(&'a str, u64)> {
        self.counters
            .iter()
            .filter_map(|(name, value)| {
                crate::labels::split_labeled(name)
                    .filter(|(b, _)| *b == base)
                    .map(|(_, label)| (label, *value))
            })
            .collect()
    }

    /// Sum of every labeled series of counter family `base` (folds into
    /// the `other` bucket conserve this total across label evictions).
    pub fn counter_family_total(&self, base: &str) -> u64 {
        self.counter_family(base).iter().map(|(_, v)| v).sum()
    }

    /// Serialize to pretty JSON.
    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Parse a snapshot back from [`to_json`](MetricsSnapshot::to_json)
    /// output.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn prefix_and_lookup_helpers() {
        let reg = crate::MetricsRegistry::new();
        reg.add("cg.rounds", 4);
        reg.add("cg.patterns", 9);
        reg.add("bnb.nodes", 2);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("cg.rounds"), 4);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.counters_with_prefix("cg.").count(), 2);
        assert!(snap.histogram("none").is_none());
    }
}
