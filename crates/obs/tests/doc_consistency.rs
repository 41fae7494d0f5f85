//! Code ↔ docs consistency: every metric name emitted anywhere in the
//! workspace must be documented in `docs/METRICS.md`, every documented
//! metric must still exist in code, and the flight recorder's span/event
//! vocabulary must match the taxonomy tables: every documented span is
//! opened in code, and the event table lists exactly the tags the
//! [`TraceEvent`] variants serialize under (one event of each also
//! round-trips through a black-box dump). The Prometheus writer
//! sources HELP/TYPE from the same file, so a name that fails here would
//! fail a live scrape identically.
//!
//! No regex crate in the workspace, so the scanner is a hand-written
//! string-literal walk: it reads every `crates/*/src/**/*.rs`, drops
//! comment lines and everything after the first `#[cfg(test)]`, extracts
//! double-quoted literals, and keeps the ones shaped like metric/span
//! names (`prefix.rest` over `[a-z0-9._]` with a known prefix).

#![allow(clippy::unwrap_used)]

use rasa_obs::{
    FlightRecording, MetricsGlossary, SpanNode, TimedEvent, TraceEvent, BLACKBOX_SCHEMA_VERSION,
};
use std::collections::BTreeSet;
use std::path::Path;

/// Prefixes that make a string literal a metric/span name candidate.
const PREFIXES: [&str; 21] = [
    "admission",
    "certify",
    "simplex",
    "bnb",
    "cg",
    "partition",
    "guard",
    "pipeline",
    "cache",
    "flight",
    "solve",
    "lp",
    "mip",
    "chaos",
    "serve",
    "select",
    "strategy",
    "slo",
    "obs",
    "wal",
    "recovery",
];

fn is_name_candidate(s: &str) -> bool {
    if !s.contains('.')
        || s.starts_with(['.', '_'])
        || s.ends_with(['.', '_'])
        || s.contains("..")
        || !s
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '.' || c == '_')
    {
        return false;
    }
    let prefix = s.split('.').next().unwrap();
    PREFIXES.contains(&prefix)
}

/// Double-quoted string literals on one line (no escape handling beyond
/// `\"` — metric names contain none).
fn string_literals(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('"') {
        rest = &rest[open + 1..];
        let mut lit = String::new();
        let mut chars = rest.char_indices();
        let mut close = None;
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    let _ = chars.next();
                }
                '"' => {
                    close = Some(i);
                    break;
                }
                _ => lit.push(c),
            }
        }
        match close {
            Some(i) => {
                out.push(lit);
                rest = &rest[i + 1..];
            }
            None => break,
        }
    }
    out
}

/// All candidate names in the non-test, non-comment portion of one file.
fn scan_file(text: &str, into: &mut BTreeSet<String>) {
    for line in text.lines() {
        if line.contains("#[cfg(test)]") {
            break;
        }
        if line.trim_start().starts_with("//") {
            continue;
        }
        for lit in string_literals(line) {
            if is_name_candidate(&lit) {
                into.insert(lit);
            }
        }
    }
}

fn visit(dir: &Path, into: &mut BTreeSet<String>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            visit(&path, into);
        } else if path.extension().is_some_and(|e| e == "rs") {
            scan_file(&std::fs::read_to_string(&path).unwrap(), into);
        }
    }
}

/// Every candidate name used in workspace source code.
fn code_names() -> BTreeSet<String> {
    let crates = Path::new("../../crates");
    assert!(crates.is_dir(), "run from crates/obs (cargo test does)");
    let mut names = BTreeSet::new();
    for entry in std::fs::read_dir(crates).unwrap() {
        let src = entry.unwrap().path().join("src");
        if src.is_dir() {
            visit(&src, &mut names);
        }
    }
    assert!(
        names.len() > 40,
        "scanner found only {} names — broken scanner, not a clean codebase",
        names.len()
    );
    names
}

/// Backticked names in one markdown table cell.
fn backticked(cell: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = cell;
    while let Some(open) = rest.find('`') {
        rest = &rest[open + 1..];
        let Some(close) = rest.find('`') else { break };
        out.push(rest[..close].to_string());
        rest = &rest[close + 1..];
    }
    out
}

/// Span and event names from the METRICS.md taxonomy tables (rows whose
/// kind cell is `span`, `span scope`, or `event`).
fn taxonomy_names() -> (BTreeSet<String>, BTreeSet<String>) {
    let md = std::fs::read_to_string("../../docs/METRICS.md").unwrap();
    let (mut spans, mut events) = (BTreeSet::new(), BTreeSet::new());
    for line in md.lines() {
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        if cells.len() < 4 {
            continue;
        }
        let names = backticked(cells[1]);
        match cells[2] {
            "span" | "span scope" => spans.extend(names),
            "event" => events.extend(names),
            _ => {}
        }
    }
    (spans, events)
}

#[test]
fn every_code_metric_and_span_is_documented() {
    let glossary = MetricsGlossary::builtin();
    let (spans, _) = taxonomy_names();
    let undocumented: Vec<String> = code_names()
        .into_iter()
        .filter(|n| !glossary.contains(n) && !spans.contains(n))
        .collect();
    assert!(
        undocumented.is_empty(),
        "names used in code but missing from docs/METRICS.md \
         (add a glossary or span-taxonomy row): {undocumented:?}"
    );
}

#[test]
fn every_documented_metric_still_exists_in_code() {
    let code = code_names();
    let glossary = MetricsGlossary::builtin();
    let stale: Vec<&str> = glossary.names().filter(|n| !code.contains(*n)).collect();
    assert!(
        stale.is_empty(),
        "metrics documented in docs/METRICS.md but never emitted in code \
         (remove the row or restore the metric): {stale:?}"
    );
}

#[test]
fn every_documented_span_still_exists_in_code() {
    let code = code_names();
    let (spans, _) = taxonomy_names();
    assert!(!spans.is_empty(), "span taxonomy table parsed empty");
    let stale: Vec<&String> = spans.iter().filter(|n| !code.contains(*n)).collect();
    assert!(
        stale.is_empty(),
        "spans documented in docs/METRICS.md but never opened in code: {stale:?}"
    );
}

/// One event of every [`TraceEvent`] variant, in declaration order. The
/// `match` fails to compile when a variant is added, and the ordinal check
/// fails until the new variant is listed here.
fn every_event() -> Vec<TraceEvent> {
    let all = vec![
        TraceEvent::BnbIncumbent {
            objective: 3.5,
            best_bound: 4.0,
            node: 12,
        },
        TraceEvent::BnbBound {
            best_bound: 3.75,
            node: 14,
        },
        TraceEvent::CgPricingRound {
            round: 2,
            columns_added: 3,
            total_columns: 9,
            best_reduced_cost: 0.25,
        },
        TraceEvent::SimplexPhase {
            transition: "phase1->phase2".into(),
        },
        TraceEvent::RefactorSingular {
            context: "warm_start".into(),
            m: 40,
        },
        TraceEvent::CacheHit {
            cache: "solve_cache".into(),
            key: u64::MAX,
        },
        TraceEvent::CacheMiss {
            cache: "column_cache".into(),
            key: 0xdead_beef,
        },
        TraceEvent::CacheEvict {
            cache: "solve_cache".into(),
            count: 2,
        },
        TraceEvent::FallbackTransition {
            from_rung: 0,
            to_rung: 1,
            from: "MIP".into(),
            to: "CG".into(),
        },
        TraceEvent::AdmissionQuarantine {
            services: 1,
            machines: 2,
            edges: 3,
            rules: 4,
        },
        TraceEvent::CertifyFailure {
            violations: 0,
            claimed_objective: 110.0,
            recomputed_objective: 10.0,
            source: "solve_cache".into(),
        },
        TraceEvent::RungSelected {
            subproblem: 5,
            algorithm: "MIP".into(),
        },
        TraceEvent::WalTornTail {
            segment: 3,
            valid_bytes: 1_024,
            lost_bytes: 77,
        },
        TraceEvent::RecoveryQuarantine {
            tenant: "acme".into(),
            reason: "journaled delta failed to re-apply: bad edge".into(),
        },
    ];
    for (i, event) in all.iter().enumerate() {
        let ordinal = match event {
            TraceEvent::BnbIncumbent { .. } => 0,
            TraceEvent::BnbBound { .. } => 1,
            TraceEvent::CgPricingRound { .. } => 2,
            TraceEvent::SimplexPhase { .. } => 3,
            TraceEvent::RefactorSingular { .. } => 4,
            TraceEvent::CacheHit { .. } => 5,
            TraceEvent::CacheMiss { .. } => 6,
            TraceEvent::CacheEvict { .. } => 7,
            TraceEvent::FallbackTransition { .. } => 8,
            TraceEvent::AdmissionQuarantine { .. } => 9,
            TraceEvent::CertifyFailure { .. } => 10,
            TraceEvent::RungSelected { .. } => 11,
            TraceEvent::WalTornTail { .. } => 12,
            TraceEvent::RecoveryQuarantine { .. } => 13,
        };
        assert_eq!(ordinal, i, "every_event lists each variant once, in order");
    }
    all
}

/// The tag `event` serializes under: its variant name.
fn tag(event: &TraceEvent) -> String {
    let json = serde_json::to_string(event).unwrap();
    json.split('"').nth(1).unwrap().to_string()
}

#[test]
fn every_event_kind_is_documented() {
    let (_, documented) = taxonomy_names();
    let tags: BTreeSet<String> = every_event().iter().map(tag).collect();
    let undocumented: Vec<&String> = tags.difference(&documented).collect();
    assert!(
        undocumented.is_empty(),
        "event variants missing from the METRICS.md event taxonomy: {undocumented:?}"
    );
    let stale: Vec<&String> = documented.difference(&tags).collect();
    assert!(
        stale.is_empty(),
        "events documented in docs/METRICS.md that no variant serializes as: {stale:?}"
    );
}

#[test]
fn a_recording_of_every_event_round_trips_through_json() {
    let recording = FlightRecording {
        schema_version: BLACKBOX_SCHEMA_VERSION,
        verdict: "fell_back".to_string(),
        degraded: true,
        sampled: false,
        request_id: "req-1".to_string(),
        tenant: "acme".to_string(),
        elapsed_secs: 0.5,
        root: SpanNode {
            name: "solve.subproblem".to_string(),
            attrs: vec![("sub_id".to_string(), "0".to_string())],
            start_secs: 0.0,
            end_secs: 0.5,
            children: Vec::new(),
        },
        events: every_event()
            .into_iter()
            .enumerate()
            .map(|(i, event)| TimedEvent {
                t_secs: i as f64 / 64.0,
                event,
            })
            .collect(),
        dropped_events: 0,
        dropped_spans: 0,
    };
    let json = recording.to_json().unwrap();
    assert_eq!(FlightRecording::from_json(&json).unwrap(), recording);
}
