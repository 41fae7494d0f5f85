//! The named-metric registry, the process-wide [`global()`] instance the
//! solver crates flush into, and the scoped [`Span`] timer.

use crate::labels::{labeled_name, sanitize_label, DEFAULT_LABEL_CAP, OTHER_LABEL};
use crate::metrics::{Counter, Histogram};
use crate::snapshot::MetricsSnapshot;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// LRU table over the distinct label values the labeled-metric API has
/// seen. Recency is a monotone sequence number per touch; eviction picks
/// the smallest.
#[derive(Debug)]
struct LabelTable {
    cap: usize,
    seq: u64,
    last_used: BTreeMap<String, u64>,
}

impl Default for LabelTable {
    fn default() -> Self {
        LabelTable {
            cap: DEFAULT_LABEL_CAP,
            seq: 0,
            last_used: BTreeMap::new(),
        }
    }
}

impl LabelTable {
    fn lru(&self) -> Option<String> {
        self.last_used
            .iter()
            .min_by_key(|(_, &seq)| seq)
            .map(|(label, _)| label.clone())
    }
}

/// A thread-safe registry of named counters and histograms.
///
/// Metric names are dot-separated paths (`"simplex.pivots"`,
/// `"pipeline.stage.solve_secs"`). Recording through
/// [`add`](MetricsRegistry::add) / [`record`](MetricsRegistry::record)
/// takes one short lock to resolve the name; hot paths that record often
/// should hold the [`Arc`] handle from
/// [`counter`](MetricsRegistry::counter) /
/// [`histogram`](MetricsRegistry::histogram) and record lock-free.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
    labels: Mutex<LabelTable>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// The counter registered under `name` (created on first use). The
    /// handle records lock-free.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The histogram registered under `name` (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
        Arc::clone(
            map.entry(name.to_string())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Add `n` to the counter `name`. Adding zero still registers the
    /// name, so always-reported counters (e.g. `pipeline.lost_slots`)
    /// appear in snapshots even when they never fired.
    pub fn add(&self, name: &str, n: u64) {
        self.counter(name).add(n);
    }

    /// Add one to the counter `name`.
    pub fn inc(&self, name: &str) {
        self.counter(name).inc();
    }

    /// Record `v` into the histogram `name`.
    pub fn record(&self, name: &str, v: f64) {
        self.histogram(name).record(v);
    }

    /// Record a duration (in seconds) into the histogram `name`.
    pub fn record_duration(&self, name: &str, d: std::time::Duration) {
        self.record(name, d.as_secs_f64());
    }

    /// Cap the number of distinct label values the labeled-metric API
    /// tracks (minimum 1). Lowering the cap below the current residency
    /// folds least-recently-used labels into the `other` bucket until the
    /// table fits.
    pub fn set_label_cap(&self, cap: usize) {
        let mut table = self.label_table();
        table.cap = cap.max(1);
        while table.last_used.len() > table.cap {
            let Some(label) = table.lru() else { break };
            table.last_used.remove(&label);
            self.fold_label_into_other(&label);
        }
    }

    /// Number of label values currently resident in the LRU table (the
    /// `other` overflow bucket is not tracked).
    pub fn label_count(&self) -> usize {
        self.label_table().last_used.len()
    }

    /// The label table. Lock order: labels → counters/histograms. The
    /// labeled API resolves, folds and records under this one lock, so an
    /// eviction can never take a series between its resolve and its add.
    fn label_table(&self) -> MutexGuard<'_, LabelTable> {
        self.labels.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Resolve a raw label value: sanitize it, mark it most-recently-used,
    /// and — when admitting it would exceed the cap — evict the LRU label,
    /// folding every series that label owns into the `other` bucket.
    fn resolve_label(&self, table: &mut LabelTable, raw: &str) -> String {
        let label = sanitize_label(raw);
        if label == OTHER_LABEL {
            return label;
        }
        table.seq += 1;
        let seq = table.seq;
        if let Some(entry) = table.last_used.get_mut(&label) {
            *entry = seq;
            return label;
        }
        if table.last_used.len() >= table.cap {
            if let Some(lru) = table.lru() {
                table.last_used.remove(&lru);
                self.fold_label_into_other(&lru);
            }
        }
        table.last_used.insert(label.clone(), seq);
        label
    }

    /// Fold every series owned by `label` into its `other`-labeled
    /// counterpart and drop the originals, conserving totals: counter
    /// values transfer via an atomic `take`+`add`, histograms merge
    /// bucket-index exact. Each fold bumps `obs.label_evictions`.
    fn fold_label_into_other(&self, label: &str) {
        let suffix = format!("{{tenant={label}}}");
        {
            let mut map = self.counters.lock().unwrap_or_else(|e| e.into_inner());
            let doomed: Vec<String> = map
                .keys()
                .filter(|k| k.ends_with(suffix.as_str()))
                .cloned()
                .collect();
            for key in doomed {
                if let Some(counter) = map.remove(&key) {
                    let base = &key[..key.len() - suffix.len()];
                    let into = Arc::clone(
                        map.entry(labeled_name(base, OTHER_LABEL))
                            .or_insert_with(|| Arc::new(Counter::new())),
                    );
                    into.add(counter.take());
                }
            }
        }
        {
            let mut map = self.histograms.lock().unwrap_or_else(|e| e.into_inner());
            let doomed: Vec<String> = map
                .keys()
                .filter(|k| k.ends_with(suffix.as_str()))
                .cloned()
                .collect();
            for key in doomed {
                if let Some(hist) = map.remove(&key) {
                    let base = &key[..key.len() - suffix.len()];
                    let into = Arc::clone(
                        map.entry(labeled_name(base, OTHER_LABEL))
                            .or_insert_with(|| Arc::new(Histogram::new())),
                    );
                    into.merge_from(&hist);
                }
            }
        }
        self.inc("obs.label_evictions");
    }

    /// Add `n` to the `tenant=label` series of counter family `base`
    /// (stored under the key `base{tenant=label}`). Only the labeled
    /// series is touched — callers wanting a global total record the
    /// unlabeled `base` separately.
    pub fn add_labeled(&self, base: &str, label: &str, n: u64) {
        let mut table = self.label_table();
        let label = self.resolve_label(&mut table, label);
        self.counter(&labeled_name(base, &label)).add(n);
    }

    /// Add one to the `tenant=label` series of counter family `base`.
    pub fn inc_labeled(&self, base: &str, label: &str) {
        self.add_labeled(base, label, 1);
    }

    /// Record `v` into the `tenant=label` series of histogram family
    /// `base`.
    pub fn record_labeled(&self, base: &str, label: &str, v: f64) {
        let mut table = self.label_table();
        let label = self.resolve_label(&mut table, label);
        self.histogram(&labeled_name(base, &label)).record(v);
    }

    /// Record a duration (seconds) into the `tenant=label` series of
    /// histogram family `base`.
    pub fn record_duration_labeled(&self, base: &str, label: &str, d: std::time::Duration) {
        self.record_labeled(base, label, d.as_secs_f64());
    }

    /// A scoped timer that records its elapsed seconds into the histogram
    /// `name` when dropped.
    pub fn span(&self, name: &str) -> Span {
        Span {
            hist: self.histogram(name),
            start: Instant::now(),
        }
    }

    /// Freeze every metric into a serializable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters: Vec<(String, u64)> = self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        MetricsSnapshot {
            counters,
            histograms,
        }
    }

    /// Atomically drain every counter: read-and-zero each one in a single
    /// atomic step ([`Counter::take`]), returning the `(name, value)`
    /// pairs (name-ascending, zero-valued entries included).
    ///
    /// Unlike `snapshot()` followed by `reset()`, increments flushed
    /// concurrently can never fall into the gap between the read and the
    /// zeroing — each increment is returned by exactly one drain. This is
    /// what interval scrapers (Prometheus-style delta exports) should use.
    /// Histograms are intentionally *not* drained: their count/sum/min/max
    /// live in separate atomics and cannot be read-and-reset as one unit,
    /// so they stay cumulative and scrape-side code takes differences.
    pub fn drain_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.take()))
            .collect()
    }

    /// Reset every metric to zero/empty (names stay registered, handles
    /// stay valid).
    pub fn reset(&self) {
        for c in self
            .counters
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            c.reset();
        }
        for h in self
            .histograms
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .values()
        {
            h.reset();
        }
    }
}

/// Scoped timer from [`MetricsRegistry::span`]; records on drop.
#[must_use = "a span records when dropped — bind it with `let _span = …`"]
pub struct Span {
    hist: Arc<Histogram>,
    start: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.hist.record_duration(self.start.elapsed());
    }
}

/// The process-wide registry every solver layer flushes into.
pub fn global() -> &'static MetricsRegistry {
    static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_and_record_round_trip_through_snapshot() {
        let reg = MetricsRegistry::new();
        reg.add("a.count", 3);
        reg.inc("a.count");
        reg.record("a.secs", 0.5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a.count"), 4);
        assert_eq!(snap.histogram("a.secs").map(|h| h.count), Some(1));
        reg.reset();
        assert_eq!(reg.snapshot().counter("a.count"), 0);
    }

    #[test]
    fn span_records_elapsed_time() {
        let reg = MetricsRegistry::new();
        {
            let _span = reg.span("timed");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.snapshot();
        let h = snap.histogram("timed").expect("span recorded");
        assert_eq!(h.count, 1);
        assert!(h.max >= 0.002, "max {}", h.max);
    }

    #[test]
    fn labeled_series_are_lru_capped_and_fold_into_other() {
        let reg = MetricsRegistry::new();
        reg.set_label_cap(2);
        // 5 distinct labels against a cap of 2: 3 folds into `other`
        for (i, label) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            reg.add_labeled("serve.requests", label, i as u64 + 1);
            reg.record_labeled("serve.request_seconds", label, 0.25);
        }
        assert!(reg.label_count() <= 2, "resident: {}", reg.label_count());
        let snap = reg.snapshot();
        // totals conserved: 1+2+3+4+5 spread over survivors + other
        let total: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("serve.requests{"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(total, 15);
        assert!(
            snap.counter("serve.requests{tenant=other}") >= 1 + 2 + 3,
            "first three labels folded: {:?}",
            snap.counters
        );
        let hist_total: u64 = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("serve.request_seconds{"))
            .map(|(_, h)| h.count)
            .sum();
        assert_eq!(hist_total, 5, "histogram observations conserved");
        assert_eq!(snap.counter("obs.label_evictions"), 3);

        // drain sees the same conserved family total as the snapshot did
        let drained: u64 = reg
            .drain_counters()
            .into_iter()
            .filter(|(name, _)| name.starts_with("serve.requests{"))
            .map(|(_, v)| v)
            .sum();
        assert_eq!(drained, 15);
    }

    #[test]
    fn concurrent_labeled_increments_are_conserved_and_capped() {
        const CAP: usize = 3;
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 3_000;
        let reg = MetricsRegistry::new();
        reg.set_label_cap(CAP);
        let labeled = |reg: &MetricsRegistry| -> Vec<u64> {
            reg.snapshot()
                .counters
                .into_iter()
                .filter(|(name, _)| name.starts_with("serve.requests{"))
                .map(|(_, v)| v)
                .collect()
        };
        let done = std::sync::atomic::AtomicBool::new(false);
        let most_series = std::thread::scope(|scope| {
            let watcher = scope.spawn(|| {
                let mut most = 0;
                while !done.load(std::sync::atomic::Ordering::Relaxed) {
                    most = most.max(labeled(&reg).len());
                }
                most
            });
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let reg = &reg;
                    scope.spawn(move || {
                        // eleven labels against a cap of three: evictions
                        // run all the time
                        for i in 0..PER_THREAD {
                            let label = format!("t{}", (i * 7 + t) % 11);
                            reg.inc_labeled("serve.requests", &label);
                        }
                    })
                })
                .collect();
            for worker in workers {
                worker.join().unwrap();
            }
            done.store(true, std::sync::atomic::Ordering::Relaxed);
            watcher.join().unwrap()
        });
        let series = labeled(&reg);
        assert_eq!(
            series.iter().sum::<u64>(),
            THREADS * PER_THREAD,
            "increments lost"
        );
        assert!(
            most_series.max(series.len()) <= CAP + 1,
            "{most_series} labeled series resident against a cap of {CAP}"
        );
    }

    #[test]
    fn touching_a_label_refreshes_its_recency() {
        let reg = MetricsRegistry::new();
        reg.set_label_cap(2);
        reg.inc_labeled("serve.requests", "a");
        reg.inc_labeled("serve.requests", "b");
        reg.inc_labeled("serve.requests", "a"); // refresh a → b is now LRU
        reg.inc_labeled("serve.requests", "c"); // evicts b, not a
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.requests{tenant=a}"), 2);
        assert_eq!(snap.counter("serve.requests{tenant=b}"), 0);
        assert_eq!(snap.counter("serve.requests{tenant=other}"), 1);
    }

    #[test]
    fn hostile_labels_are_sanitized_and_other_is_never_tracked() {
        let reg = MetricsRegistry::new();
        reg.set_label_cap(4);
        reg.inc_labeled("serve.requests", "Evil{le=\"1\"}\n");
        reg.inc_labeled("serve.requests", "other");
        let snap = reg.snapshot();
        assert_eq!(snap.counter("serve.requests{tenant=evil_le__1___}"), 1);
        assert_eq!(snap.counter("serve.requests{tenant=other}"), 1);
        assert_eq!(reg.label_count(), 1, "`other` bypasses the LRU table");
        // lowering the cap folds residents down to fit
        reg.inc_labeled("serve.requests", "x");
        reg.inc_labeled("serve.requests", "y");
        reg.set_label_cap(1);
        assert_eq!(reg.label_count(), 1);
        assert!(reg.snapshot().counter("serve.requests{tenant=other}") >= 3);
    }

    #[test]
    fn global_registry_is_shared() {
        let name = "obs.registry_test.global";
        let before = global().snapshot().counter(name);
        global().add(name, 2);
        assert!(global().snapshot().counter(name) >= before + 2);
    }
}
