//! The two metric primitives: monotonic counters and log-bucketed
//! histograms. Both record lock-free through atomics so worker threads
//! (the parallel solve pool) can share one instance.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Bucket `i` covers
/// `(BUCKET_BASE·2^i, BUCKET_BASE·2^(i+1)]`, so the range spans from
/// nanoseconds to ~18 years when values are seconds — one scheme fits
/// every duration and count this repository records.
pub const BUCKETS: usize = 64;

/// Lower edge of bucket 0.
const BUCKET_BASE: f64 = 1e-9;

/// A monotonic counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A counter at zero.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Reset to zero.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// Atomically read the current value and reset to zero in one step.
    /// Unlike `get()` followed by `reset()`, a concurrent `add` can never
    /// land in the gap and be lost — every increment is observed by
    /// exactly one `take`.
    pub fn take(&self) -> u64 {
        self.value.swap(0, Ordering::Relaxed)
    }
}

/// Upper bound of bucket `i` (shared with [`HistogramSnapshot`]).
pub(crate) fn bucket_upper_bound(i: usize) -> f64 {
    BUCKET_BASE * 2f64.powi(i as i32 + 1)
}

/// Bucket index for a value.
fn bucket_index(v: f64) -> usize {
    if v.is_nan() || v <= BUCKET_BASE {
        return 0; // non-positive, NaN and tiny values share bucket 0
    }
    let idx = (v / BUCKET_BASE).log2().ceil() - 1.0;
    (idx.max(0.0) as usize).min(BUCKETS - 1)
}

/// A fixed-layout log₂-bucketed histogram with count/sum/min/max, safe for
/// concurrent recording. Snapshots ([`HistogramSnapshot`]) carry the
/// non-empty buckets; they estimate no percentile.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    /// `f64` bits; updated with a CAS loop.
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
    buckets: Vec<AtomicU64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Record one observation. NaN is recorded into bucket 0 but excluded
    /// from min/max.
    pub fn record(&self, v: f64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        fetch_update_f64(&self.sum_bits, |cur| cur + v);
        if !v.is_nan() {
            fetch_update_f64(&self.min_bits, |cur| cur.min(v));
            fetch_update_f64(&self.max_bits, |cur| cur.max(v));
        }
    }

    /// Record a duration in seconds.
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_secs_f64());
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        f64::from_bits(self.sum_bits.load(Ordering::Relaxed))
    }

    /// Freeze into a serializable snapshot (only non-empty buckets are
    /// kept, as `(upper_bound, count)` pairs).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count();
        let buckets: Vec<(f64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter_map(|(i, c)| {
                let c = c.load(Ordering::Relaxed);
                (c > 0).then(|| (bucket_upper_bound(i), c))
            })
            .collect();
        HistogramSnapshot {
            count,
            sum: self.sum(),
            min: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.min_bits.load(Ordering::Relaxed))
            },
            max: if count == 0 {
                0.0
            } else {
                f64::from_bits(self.max_bits.load(Ordering::Relaxed))
            },
            buckets,
        }
    }

    /// Merge every observation of `other` into `self`, bucket-index
    /// exact: per-bucket counts and the count/sum add, min/max widen.
    /// Because both histograms share the fixed log₂ layout the merge
    /// loses no precision beyond what recording already lost — this is
    /// how an evicted label's series folds into the `other` bucket.
    pub fn merge_from(&self, other: &Histogram) {
        let n = other.count.load(Ordering::Relaxed);
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        for (dst, src) in self.buckets.iter().zip(&other.buckets) {
            let c = src.load(Ordering::Relaxed);
            if c > 0 {
                dst.fetch_add(c, Ordering::Relaxed);
            }
        }
        let sum = other.sum();
        fetch_update_f64(&self.sum_bits, |cur| cur + sum);
        let min = f64::from_bits(other.min_bits.load(Ordering::Relaxed));
        let max = f64::from_bits(other.max_bits.load(Ordering::Relaxed));
        fetch_update_f64(&self.min_bits, |cur| cur.min(min));
        fetch_update_f64(&self.max_bits, |cur| cur.max(max));
    }

    /// Reset to empty.
    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.sum_bits.store(0f64.to_bits(), Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
    }
}

/// CAS loop applying `f` to an atomically-stored `f64`.
fn fetch_update_f64(bits: &AtomicU64, f: impl Fn(f64) -> f64) {
    let mut cur = bits.load(Ordering::Relaxed);
    loop {
        let next = f(f64::from_bits(cur)).to_bits();
        match bits.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => cur = actual,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_adds_and_resets() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.reset();
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn bucket_index_is_monotone_and_clamped() {
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(-5.0), 0);
        assert_eq!(bucket_index(f64::NAN), 0);
        assert_eq!(bucket_index(1e-9), 0);
        assert_eq!(bucket_index(f64::INFINITY), BUCKETS - 1);
        let mut last = 0;
        for exp in -30..30 {
            let i = bucket_index(2f64.powi(exp));
            assert!(i >= last, "2^{exp}");
            last = i;
        }
        // every value lands in a bucket whose upper bound covers it
        for v in [1e-8, 1e-3, 0.5, 1.0, 3.0, 1e4] {
            let i = bucket_index(v);
            assert!(bucket_upper_bound(i) >= v, "v={v} bucket={i}");
            if i > 0 {
                assert!(bucket_upper_bound(i - 1) < v, "v={v} not in earlier bucket");
            }
        }
    }

    #[test]
    fn merge_from_is_bucket_exact_and_conserves_totals() {
        let a = Histogram::new();
        let b = Histogram::new();
        let reference = Histogram::new();
        for v in [0.5, 2.0, 1e-4] {
            a.record(v);
            reference.record(v);
        }
        for v in [8.0, 0.25] {
            b.record(v);
            reference.record(v);
        }
        a.merge_from(&b);
        let (merged, expect) = (a.snapshot(), reference.snapshot());
        assert_eq!(merged.count, expect.count);
        assert!((merged.sum - expect.sum).abs() < 1e-12);
        assert_eq!(merged.min, expect.min);
        assert_eq!(merged.max, expect.max);
        assert_eq!(merged.buckets, expect.buckets, "bucket-index exact");
        // merging an empty histogram changes nothing
        a.merge_from(&Histogram::new());
        assert_eq!(a.snapshot().count, expect.count);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let h = Histogram::new();
        for v in [0.5, 2.0, 0.25, 8.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert!((s.sum - 10.75).abs() < 1e-12);
        assert_eq!(s.min, 0.25);
        assert_eq!(s.max, 8.0);
        h.reset();
        let s = h.snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }
}
