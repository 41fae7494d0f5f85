//! Turning a pass into named metrics, printing them, writing result files,
//! and comparing two result sets (`--agree`).

use crate::spans::{self_time_by_name, Span};
use crate::spec::{find_decl, BenchmarkFile, MetricDecl, BOUNDARY_COUNTERS, END_TO_END, PER_LAYER};
use crate::stats::{highest_supported, median};
use crate::sys::Provenance;
use crate::workloads::{Tally, Traced, Untraced};
use serde::{Deserialize, Serialize};
use std::path::{Path, PathBuf};

/// A measured metric.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct MetricValue {
    pub name: String,
    pub unit: String,
    pub value: f64,
}

/// Everything one workload's run produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WorkloadResult {
    pub name: String,
    pub run_wall_s: f64,
    /// Rounds attempted and failed in the pass the numbers come from.
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Samples behind `round_s_p50` and `warm_round_s`.
    pub round_samples: u64,
    pub warm_samples: u64,
    pub end_to_end: Vec<MetricValue>,
    pub per_layer: Vec<MetricValue>,
}

#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ResultFile {
    pub provenance: Provenance,
    pub workloads: Vec<WorkloadResult>,
}

fn named(
    values: Vec<(&'static str, f64)>,
    decls: &[MetricDecl],
) -> Result<Vec<MetricValue>, String> {
    decls
        .iter()
        .map(|decl| {
            let value = values
                .iter()
                .find(|(name, _)| *name == decl.name)
                .map(|(_, v)| *v)
                .ok_or_else(|| format!("metric {} was not measured", decl.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not a finite number", decl.name));
            }
            Ok(MetricValue {
                name: decl.name.to_string(),
                unit: decl.unit.to_string(),
                value,
            })
        })
        .collect()
}

fn p50(samples: &[f64], what: &str) -> Result<f64, String> {
    median(samples).map_err(|_| format!("no {what} sample was taken"))
}

/// Quality is averaged over every checked placement: the placements of one
/// run differ only where tenants or deltas do, and a mean does not jump
/// between the levels of such a mixture the way a median does.
fn mean(samples: &[f64], what: &str) -> Result<f64, String> {
    if samples.is_empty() {
        return Err(format!("no {what} sample was taken"));
    }
    Ok(samples.iter().sum::<f64>() / samples.len() as f64)
}

/// Rounds per second and CPU seconds per round of a pass.
///
/// A library workload reports the median over its units (a cold round, a
/// cold and warm pair, a whole delta cycle: the same work every time), not
/// one quotient over the whole window: the box has spells of a few seconds
/// in which everything runs a third slower, and a mean over the whole
/// window follows them where a median does not (on `cold-solve` the
/// run-to-run spread of the mean was 0.11 beside 0.06 for the median
/// round). Where rounds overlap there are only totals.
fn rate_and_cost(t: &Tally) -> Result<(f64, f64), String> {
    let rounds = t.round_s.len();
    if rounds == 0 {
        return Err("no round sample was taken".into());
    }
    if t.unit_ends.is_empty() {
        return Ok((rounds as f64 / t.window_s, t.cpu_s / rounds as f64));
    }
    let starts = std::iter::once(&0).chain(&t.unit_ends);
    let units: Vec<(f64, f64, f64)> = starts
        .zip(&t.unit_ends)
        .map(|(&start, &end)| {
            let wall: f64 = t.round_s[start..end].iter().sum();
            let cpu: f64 = t.round_cpu_s[start..end].iter().sum();
            ((end - start) as f64, wall, cpu)
        })
        .collect();
    let rates: Vec<f64> = units.iter().map(|(n, wall, _)| n / wall).collect();
    let costs: Vec<f64> = units.iter().map(|(n, _, cpu)| cpu / n).collect();
    Ok((p50(&rates, "round")?, p50(&costs, "round")?))
}

/// The end-to-end metrics of an untraced pass.
pub fn end_to_end(pass: &Untraced) -> Result<Vec<MetricValue>, String> {
    let t = &pass.tally;
    let (rounds_per_s, _) = rate_and_cost(t)?;
    let values = vec![
        ("setup_s", p50(&pass.setup_s, "set-up")?),
        ("round_s_p50", p50(&t.round_s, "round")?),
        ("warm_round_s", p50(&t.warm_s, "warm round")?),
        ("rounds_per_s", rounds_per_s),
        ("gained_affinity", mean(&t.affinity, "checked placement")?),
        ("placed_share", mean(&t.placed_share, "checked placement")?),
        ("ok_share", t.solves_ok as f64 / (t.solves.max(1)) as f64),
        ("peak_rss_mb", crate::sys::peak_rss_mib()),
    ];
    named(values, END_TO_END)
}

/// The per-layer metrics of a traced pass.
pub fn per_layer(pass: &Traced) -> Result<Vec<MetricValue>, String> {
    let mut values = pass.probes.clone();
    let real = &pass.real;
    for (i, name) in BOUNDARY_COUNTERS.iter().enumerate() {
        let per_round: Vec<f64> = real.counts.iter().map(|c| c[i] as f64).collect();
        let decl = find_decl(&format!("counts.{name}")).ok_or("undeclared boundary counter")?;
        values.push((decl.name, p50(&per_round, "counted round")?));
    }
    values.push((
        "counts.work_repeat",
        f64::from(u8::from(real.work_repeats())),
    ));
    let (percentile, tail) =
        highest_supported(&real.round_s).map_err(|_| "no round sample was taken".to_string())?;
    values.push(("tail.round_s", tail));
    values.push(("tail.percentile", f64::from(percentile)));
    values.push(("tail.samples", real.round_s.len() as f64));
    values.push(("process.cpu_s_per_round", rate_and_cost(real)?.1));
    values.push(("trace.coverage_share", pass.coverage_share));
    values.push(("trace.overhead_ratio", pass.overhead_ratio));
    named(values, PER_LAYER)
}

pub fn print_metrics(workload: &str, metrics: &[MetricValue]) {
    for m in metrics {
        let note = match find_decl(&m.name) {
            Some(MetricDecl {
                better,
                bound: Some(bound),
                ..
            }) => {
                format!(
                    "  ({} is better, may worsen {:.0} %)",
                    better.label(),
                    bound * 100.0
                )
            }
            _ => String::new(),
        };
        println!(
            "{workload:<13} {:<30} {:>18.9} {}{note}",
            m.name, m.value, m.unit
        );
    }
}

/// The sample counts behind the percentiles, and what failed.
pub fn print_tally(workload: &str, t: &Tally) {
    let tail = highest_supported(&t.round_s)
        .map(|(p, v)| format!("p{p} {v:.6} s"))
        .unwrap_or_else(|_| "none".to_string());
    println!(
        "{workload:<13} samples: round n={} (highest percentile they support: {tail}), warm round n={}; rounds attempted {}, failed {}",
        t.round_s.len(),
        t.warm_s.len(),
        t.attempted,
        t.failed
    );
    if let Ok((p, v)) = highest_supported(&t.read_s) {
        println!(
            "{workload:<13} reads interleaved with the writes: n={} p50 {:.6} s, p{p} {v:.6} s",
            t.read_s.len(),
            median(&t.read_s).unwrap_or(v)
        );
    }
    for why in &t.failures {
        println!("{workload:<13} FAILED: {why}");
    }
}

#[derive(Serialize)]
struct TraceFile {
    workload: String,
    self_time_s: Vec<(String, f64)>,
    spans: Vec<Span>,
}

/// Write the span list of a traced pass and print its self-time table.
pub fn write_trace(dir: &Path, workload: &str, spans: &[Span]) -> Result<PathBuf, String> {
    let self_time: Vec<(String, f64)> = self_time_by_name(spans).into_iter().collect();
    let total: f64 = self_time.iter().map(|(_, s)| s).sum();
    for (name, seconds) in &self_time {
        println!(
            "{workload:<13} self time {name:<18} {seconds:>12.6} s  {:>5.1} %",
            100.0 * seconds / total.max(f64::MIN_POSITIVE)
        );
    }
    let file = TraceFile {
        workload: workload.to_string(),
        self_time_s: self_time,
        spans: spans.to_vec(),
    };
    let path = dir.join(format!("trace_{workload}.json"));
    write_json(&path, &file)?;
    Ok(path)
}

pub fn write_json<T: Serialize>(path: &Path, value: &T) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let text = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn load_result(path: &Path) -> Result<ResultFile, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The driver's result line: one JSON object, metrics keyed by name.
pub fn driver_line(result: &WorkloadResult, metrics: &[MetricValue]) -> String {
    let metrics: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        result.failed == 0,
        result.attempted.max(1),
        result.failed,
        metrics.join(", ")
    )
}

/// `--agree A.json B.json`: two result sets of one commit must agree, on
/// every end-to-end metric of every workload, within the metric's bound in
/// `BENCHMARK.json`. One row per pair; the ratio is B over A.
pub fn agree(contract: &BenchmarkFile, a: &ResultFile, b: &ResultFile) -> Result<bool, String> {
    if a.provenance.quick || b.provenance.quick {
        return Err("--quick results are not comparable".into());
    }
    let mut all_agree = true;
    println!(
        "{:<13} {:<18} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for wa in &a.workloads {
        let wb = b
            .workloads
            .iter()
            .find(|w| w.name == wa.name)
            .ok_or_else(|| format!("workload {} is missing from B", wa.name))?;
        for entry in &contract.end_to_end {
            let value = |w: &WorkloadResult| {
                w.end_to_end
                    .iter()
                    .find(|m| m.name == entry.name)
                    .map(|m| m.value)
                    .ok_or_else(|| format!("{} of {} is missing", entry.name, w.name))
            };
            let (va, vb) = (value(wa)?, value(wb)?);
            let ratio = vb / va;
            let agrees = (ratio - 1.0).abs() <= entry.bound;
            all_agree &= agrees;
            println!(
                "{:<13} {:<18} {:>14.6} {:>14.6} {:>9.4} {:>7.2}  {}",
                wa.name,
                entry.name,
                va,
                vb,
                ratio,
                entry.bound,
                if agrees { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(all_agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let result = WorkloadResult {
            name: "w".into(),
            run_wall_s: 1.0,
            attempted: 10,
            failed: 0,
            failures: Vec::new(),
            round_samples: 10,
            warm_samples: 10,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
        };
        let metrics = vec![MetricValue {
            name: "setup_s".into(),
            unit: "s".into(),
            value: 0.8127,
        }];
        assert_eq!(
            driver_line(&result, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.8127, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn every_declared_metric_must_be_measured() {
        let err = named(vec![("setup_s", 1.0)], END_TO_END).unwrap_err();
        assert!(err.contains("round_s_p50"), "{err}");
        assert!(named(vec![("setup_s", f64::NAN)], &END_TO_END[..1]).is_err());
    }
}
