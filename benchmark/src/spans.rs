//! The benchmark's own in-memory span list. Spans are recorded around the
//! benchmark's calls into each layer (spans inside the program are a later
//! change), kept in memory, and written out once when the run ends.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent` is the index of the span that caused it;
/// spans of one round share `round_id`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub round_id: u64,
}

/// Handle to an open span; `end` closes it.
#[derive(Clone, Copy, Debug)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The id to pass as `parent` of child spans.
    pub fn as_parent(self) -> Option<u64> {
        self.0.map(|i| i as u64)
    }
}

/// A thread-safe span recorder. A disabled log records nothing, so the same
/// code path runs in the traced and the untraced pass and their difference
/// is the cost of recording.
pub struct SpanLog {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    enabled: bool,
}

impl SpanLog {
    pub fn new(enabled: bool) -> Self {
        SpanLog {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            enabled,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // every update is a single push or field store, so the list is
        // valid even if a recording thread panicked
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Open a span.
    pub fn start(&self, name: &str, parent: Option<u64>, round_id: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let start_ns = self.now_ns();
        let mut spans = self.lock();
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            round_id,
        });
        SpanId(Some(spans.len() - 1))
    }

    /// Close a span opened by [`start`](Self::start).
    pub fn end(&self, id: SpanId) {
        if let Some(i) = id.0 {
            let end_ns = self.now_ns();
            self.lock()[i].end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        round_id: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.start(name, parent, round_id);
        let out = f();
        self.end(id);
        out
    }

    /// Everything recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.lock().clone()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered_ns(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children running in parallel count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(p) = span.parent {
            if let Some(list) = children.get_mut(p as usize) {
                list.push((span.start_ns, span.end_ns));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, kids)| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            duration - covered_ns(kids, span.start_ns, span.end_ns)
        })
        .collect()
}

/// Total self time per span name, in seconds.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (span, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(span.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            round_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("partition", 10, 30, Some(0)),
            span("solve", 40, 90, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans), vec![30, 20, 50]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // two solver threads working at the same time under one parent
        let spans = vec![
            span("solve", 0, 100, None),
            span("sub", 10, 60, Some(0)),
            span("sub", 40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![span("a", 10, 20, None), span("b", 0, 15, Some(0))];
        assert_eq!(self_times_ns(&spans)[0], 5);
    }

    #[test]
    fn self_time_sums_by_name() {
        let spans = vec![
            span("round", 0, 1_000_000_000, None),
            span("sub", 0, 250_000_000, Some(0)),
            span("sub", 500_000_000, 750_000_000, Some(0)),
        ];
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["round"], 0.5);
        assert_eq!(by_name["sub"], 0.5);
    }

    #[test]
    fn a_disabled_log_records_nothing() {
        let log = SpanLog::new(false);
        let id = log.start("x", None, 1);
        log.end(id);
        assert!(log.snapshot().is_empty());
        assert_eq!(id.as_parent(), None);
    }
}
