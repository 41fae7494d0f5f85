//! Prometheus text-format exposition for [`MetricsSnapshot`], with
//! `# HELP` / `# TYPE` lines generated from the `docs/METRICS.md`
//! glossary — the markdown file is the single source of truth for metric
//! names, kinds, and help strings, and [`write_prometheus`] *fails* on a
//! metric the glossary doesn't know (the same contract the
//! doc-consistency test enforces in the other direction).
//!
//! Names are sanitized for Prometheus (`simplex.pivots` →
//! `rasa_simplex_pivots`); histograms are written as cumulative
//! `_bucket{le="…"}` series plus `_sum` / `_count`, straight from the
//! log₂ bucket layout of [`HistogramSnapshot`].
//!
//! ```
//! use rasa_obs::{MetricsRegistry, prometheus};
//! let reg = MetricsRegistry::new();
//! reg.add("simplex.pivots", 42);
//! let text = prometheus::write_prometheus(&reg.snapshot(), prometheus::MetricsGlossary::builtin())
//!     .unwrap();
//! assert!(text.contains("# TYPE rasa_simplex_pivots counter"));
//! assert!(text.contains("rasa_simplex_pivots 42"));
//! ```

use crate::labels::split_labeled;
use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;

/// The glossary markdown, compiled in so the exposition writer and the
/// docs can never drift apart silently.
const GLOSSARY_MD: &str = include_str!("../../../docs/METRICS.md");

/// What kind of metric a glossary entry documents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic `u64` counter.
    Counter,
    /// Log₂-bucketed `f64` histogram.
    Histogram,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn as_str(&self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One documented metric.
#[derive(Clone, Debug)]
struct GlossaryEntry {
    kind: MetricKind,
    help: String,
}

/// The metric glossary parsed out of `docs/METRICS.md` tables.
///
/// The parser understands the glossary's table convention: rows of the
/// form `` | `name` | counter | help text | `` (a cell may document
/// several names, backtick-quoted, sharing one kind and help string).
#[derive(Clone, Debug, Default)]
pub struct MetricsGlossary {
    entries: BTreeMap<String, GlossaryEntry>,
}

impl MetricsGlossary {
    /// Parse a glossary from METRICS.md-style markdown.
    pub fn parse(markdown: &str) -> Self {
        let mut entries = BTreeMap::new();
        for line in markdown.lines() {
            let line = line.trim();
            if !line.starts_with('|') {
                continue;
            }
            let cells: Vec<&str> = line.trim_matches('|').split('|').map(str::trim).collect();
            if cells.len() < 3 {
                continue;
            }
            let kind = match cells[1] {
                "counter" => MetricKind::Counter,
                "histogram" => MetricKind::Histogram,
                _ => continue, // header or separator row
            };
            let help = cells[2..].join(" | "); // help text may itself contain '|'
            let help = help.replace('`', "");
            for name in backticked_names(cells[0]) {
                entries.insert(
                    name,
                    GlossaryEntry {
                        kind,
                        help: help.clone(),
                    },
                );
            }
        }
        MetricsGlossary { entries }
    }

    /// The glossary compiled in from `docs/METRICS.md`.
    pub fn builtin() -> &'static MetricsGlossary {
        static BUILTIN: OnceLock<MetricsGlossary> = OnceLock::new();
        BUILTIN.get_or_init(|| MetricsGlossary::parse(GLOSSARY_MD))
    }

    /// Is `name` documented?
    pub fn contains(&self, name: &str) -> bool {
        self.entries.contains_key(name)
    }

    /// The documented kind of `name`, if present.
    pub fn kind_of(&self, name: &str) -> Option<MetricKind> {
        self.entries.get(name).map(|e| e.kind)
    }

    /// The documented help string of `name`, if present.
    pub fn help_of(&self, name: &str) -> Option<&str> {
        self.entries.get(name).map(|e| e.help.as_str())
    }

    /// Every documented metric name, ascending.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Number of documented metrics.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the glossary empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Extract backtick-quoted metric names from a table cell (a cell may
/// document several names, e.g. `` `pipeline.alg.mip` / `pipeline.alg.cg` ``).
fn backticked_names(cell: &str) -> Vec<String> {
    let mut names = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        let after = &rest[open + 1..];
        let Some(close) = after.find('`') else { break };
        let candidate = &after[..close];
        if !candidate.is_empty()
            && candidate
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
        {
            names.push(candidate.to_string());
        }
        rest = &after[close + 1..];
    }
    names
}

/// Why exposition failed: the snapshot holds a metric the glossary
/// disagrees with. Both variants mean `docs/METRICS.md` and the emitting
/// code have drifted — fix the docs (or the code), don't suppress.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PrometheusError {
    /// A snapshot metric with no glossary row.
    UnknownMetric {
        /// The undocumented metric name.
        name: String,
        /// What the snapshot says it is.
        actual_kind: &'static str,
    },
    /// A snapshot metric documented as the other kind.
    KindMismatch {
        /// The metric name.
        name: String,
        /// The kind documented in the glossary.
        documented: &'static str,
        /// The kind observed in the snapshot.
        actual: &'static str,
    },
}

impl std::fmt::Display for PrometheusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PrometheusError::UnknownMetric { name, actual_kind } => write!(
                f,
                "{actual_kind} `{name}` is not documented in docs/METRICS.md — \
                 add a glossary row for it"
            ),
            PrometheusError::KindMismatch {
                name,
                documented,
                actual,
            } => write!(
                f,
                "`{name}` is documented as a {documented} in docs/METRICS.md \
                 but the registry holds a {actual}"
            ),
        }
    }
}

impl std::error::Error for PrometheusError {}

/// Sanitize a dotted metric name for Prometheus: `simplex.pivots` →
/// `rasa_simplex_pivots`.
pub fn prometheus_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 5);
    out.push_str("rasa_");
    for c in name.chars() {
        if c.is_ascii_alphanumeric() {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

/// Escape a help string for a `# HELP` line.
fn escape_help(help: &str) -> String {
    help.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escape a label value for `{tenant="…"}` (registry labels are already
/// sanitized; this layer escapes defensively anyway).
fn escape_label(value: &str) -> String {
    value
        .replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// Group snapshot series into families: a labeled name
/// (`base{tenant=label}`) joins the family of its base, plain names form
/// their own family. Within a family the unlabeled series (if any) comes
/// first, then labels ascending — the order the name-sorted snapshot
/// already delivers them in.
fn family_groups<T>(series: &[(String, T)]) -> BTreeMap<&str, Vec<(Option<&str>, &T)>> {
    let mut families: BTreeMap<&str, Vec<(Option<&str>, &T)>> = BTreeMap::new();
    for (name, value) in series {
        match split_labeled(name) {
            Some((base, label)) => families.entry(base).or_default().push((Some(label), value)),
            None => families
                .entry(name.as_str())
                .or_default()
                .push((None, value)),
        }
    }
    families
}

/// Glossary lookup for one family base name, mapping disagreement to the
/// right error.
fn check_kind(
    glossary: &MetricsGlossary,
    base: &str,
    expected: MetricKind,
) -> Result<(), PrometheusError> {
    let actual = expected.as_str();
    match glossary.kind_of(base) {
        Some(kind) if kind == expected => Ok(()),
        Some(other) => Err(PrometheusError::KindMismatch {
            name: base.to_string(),
            documented: other.as_str(),
            actual,
        }),
        None => Err(PrometheusError::UnknownMetric {
            name: base.to_string(),
            actual_kind: actual,
        }),
    }
}

/// Render `snapshot` in the Prometheus text exposition format, taking
/// `# HELP` / `# TYPE` metadata from `glossary`. Errors when a metric is
/// undocumented or documented as the wrong kind — the glossary is the
/// contract, not a suggestion. Labeled series (`base{tenant=label}` keys
/// from the registry's labeled API) are validated against their *base*
/// name's glossary row and rendered as one family: `# HELP` / `# TYPE`
/// once, then one sample per label with a `tenant="…"` label pair.
pub fn write_prometheus(
    snapshot: &MetricsSnapshot,
    glossary: &MetricsGlossary,
) -> Result<String, PrometheusError> {
    let mut out = String::new();
    for (base, series) in family_groups(&snapshot.counters) {
        check_kind(glossary, base, MetricKind::Counter)?;
        let pname = prometheus_name(base);
        let help = glossary.help_of(base).unwrap_or_default();
        let _ = writeln!(out, "# HELP {pname} {}", escape_help(help));
        let _ = writeln!(out, "# TYPE {pname} counter");
        for (label, value) in series {
            match label {
                None => {
                    let _ = writeln!(out, "{pname} {value}");
                }
                Some(label) => {
                    let _ = writeln!(out, "{pname}{{tenant=\"{}\"}} {value}", escape_label(label));
                }
            }
        }
    }
    for (base, series) in family_groups(&snapshot.histograms) {
        check_kind(glossary, base, MetricKind::Histogram)?;
        let pname = prometheus_name(base);
        let help = glossary.help_of(base).unwrap_or_default();
        let _ = writeln!(out, "# HELP {pname} {}", escape_help(help));
        let _ = writeln!(out, "# TYPE {pname} histogram");
        for (label, hist) in series {
            write_histogram_series(&mut out, &pname, label, hist);
        }
    }
    Ok(out)
}

/// Cumulative `_bucket` / `_sum` / `_count` series for one histogram
/// (one `tenant` label pair merged into every brace set when labeled).
fn write_histogram_series(
    out: &mut String,
    pname: &str,
    label: Option<&str>,
    hist: &HistogramSnapshot,
) {
    let tenant = label.map(|l| format!("tenant=\"{}\"", escape_label(l)));
    let suffix = match &tenant {
        Some(t) => format!("{{{t}}}"),
        None => String::new(),
    };
    let mut cumulative = 0u64;
    for &(upper, count) in &hist.buckets {
        cumulative += count;
        match &tenant {
            Some(t) => {
                let _ = writeln!(out, "{pname}_bucket{{{t},le=\"{upper}\"}} {cumulative}");
            }
            None => {
                let _ = writeln!(out, "{pname}_bucket{{le=\"{upper}\"}} {cumulative}");
            }
        }
    }
    match &tenant {
        Some(t) => {
            let _ = writeln!(out, "{pname}_bucket{{{t},le=\"+Inf\"}} {}", hist.count);
        }
        None => {
            let _ = writeln!(out, "{pname}_bucket{{le=\"+Inf\"}} {}", hist.count);
        }
    }
    let _ = writeln!(out, "{pname}_sum{suffix} {}", hist.sum);
    let _ = writeln!(out, "{pname}_count{suffix} {}", hist.count);
}

#[cfg(test)]
#[allow(clippy::unwrap_used)]
mod tests {
    use super::*;
    use crate::MetricsRegistry;

    #[test]
    fn builtin_glossary_parses_and_knows_the_core_vocabulary() {
        let g = MetricsGlossary::builtin();
        assert!(g.len() > 30, "glossary rows parsed: {}", g.len());
        assert_eq!(g.kind_of("simplex.pivots"), Some(MetricKind::Counter));
        assert_eq!(g.kind_of("bnb.final_gap"), Some(MetricKind::Histogram));
        assert_eq!(
            g.kind_of("guard.subproblem_seconds"),
            Some(MetricKind::Histogram)
        );
        // the shared-cell row documents both names
        assert!(g.contains("pipeline.alg.mip"));
        assert!(g.contains("pipeline.alg.cg"));
        assert!(g
            .help_of("simplex.pivots")
            .unwrap()
            .contains("Basis-change pivots"));
    }

    #[test]
    fn exposition_renders_counters_and_histograms() {
        let reg = MetricsRegistry::new();
        reg.add("simplex.pivots", 7);
        reg.record("cg.solve_seconds", 0.5);
        reg.record("cg.solve_seconds", 0.75);
        let text = write_prometheus(&reg.snapshot(), MetricsGlossary::builtin()).unwrap();
        assert!(text.contains("# HELP rasa_simplex_pivots "));
        assert!(text.contains("# TYPE rasa_simplex_pivots counter"));
        assert!(text.contains("\nrasa_simplex_pivots 7\n"));
        assert!(text.contains("# TYPE rasa_cg_solve_seconds histogram"));
        assert!(text.contains("rasa_cg_solve_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("rasa_cg_solve_seconds_sum 1.25"));
        assert!(text.contains("rasa_cg_solve_seconds_count 2"));
        // buckets are cumulative and end at the +Inf total
        let mut last = 0u64;
        for line in text.lines().filter(|l| l.contains("_bucket{")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative: {line}");
            last = v;
        }
    }

    #[test]
    fn labeled_series_render_as_one_family_with_tenant_labels() {
        let reg = MetricsRegistry::new();
        reg.add("serve.requests", 10); // global total
        reg.add_labeled("serve.requests", "acme", 7);
        reg.add_labeled("serve.requests", "beta", 3);
        reg.record_labeled("serve.request_seconds", "acme", 0.5);
        let text = write_prometheus(&reg.snapshot(), MetricsGlossary::builtin()).unwrap();
        // HELP/TYPE appear once per family, before all its samples
        assert_eq!(
            text.matches("# TYPE rasa_serve_requests counter").count(),
            1
        );
        assert!(text.contains("\nrasa_serve_requests 10\n"));
        assert!(text.contains("rasa_serve_requests{tenant=\"acme\"} 7"));
        assert!(text.contains("rasa_serve_requests{tenant=\"beta\"} 3"));
        assert_eq!(
            text.matches("# TYPE rasa_serve_request_seconds histogram")
                .count(),
            1
        );
        assert!(text.contains("rasa_serve_request_seconds_bucket{tenant=\"acme\",le=\"+Inf\"} 1"));
        assert!(text.contains("rasa_serve_request_seconds_count{tenant=\"acme\"} 1"));
        // an undocumented labeled family still errors on its base name
        reg.add_labeled("made.up_counter", "acme", 1);
        let err = write_prometheus(&reg.snapshot(), MetricsGlossary::builtin()).unwrap_err();
        assert_eq!(
            err,
            PrometheusError::UnknownMetric {
                name: "made.up_counter".into(),
                actual_kind: "counter",
            }
        );
    }

    #[test]
    fn undocumented_metric_is_an_error() {
        let reg = MetricsRegistry::new();
        reg.add("made.up_counter", 1);
        let err = write_prometheus(&reg.snapshot(), MetricsGlossary::builtin()).unwrap_err();
        assert_eq!(
            err,
            PrometheusError::UnknownMetric {
                name: "made.up_counter".into(),
                actual_kind: "counter",
            }
        );
        assert!(err.to_string().contains("docs/METRICS.md"));
    }

    #[test]
    fn kind_mismatch_is_an_error() {
        let reg = MetricsRegistry::new();
        reg.record("simplex.pivots", 1.0); // documented as a counter
        let err = write_prometheus(&reg.snapshot(), MetricsGlossary::builtin()).unwrap_err();
        assert!(matches!(err, PrometheusError::KindMismatch { .. }));
    }

    #[test]
    fn name_sanitization() {
        assert_eq!(prometheus_name("simplex.pivots"), "rasa_simplex_pivots");
        assert_eq!(
            prometheus_name("guard.status.fell_back"),
            "rasa_guard_status_fell_back"
        );
    }

    #[test]
    fn multi_name_cells_share_kind_and_help() {
        let md = "| `a.x` / `a.y` | counter | shared help |";
        let g = MetricsGlossary::parse(md);
        assert_eq!(g.len(), 2);
        assert_eq!(g.help_of("a.x"), g.help_of("a.y"));
    }
}
