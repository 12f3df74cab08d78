//! The metric catalog, the printed report, and `compare`.
//!
//! The catalog here is the one `BENCHMARK.json` declares; the smoke test
//! holds the two equal, so a metric cannot be added to one and not the
//! other.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::json::Json;
use crate::stats::Samples;

/// Which direction of change is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One declared metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// The share of the baseline median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// What a user of the daemon or of the offline analysis sees. Every
/// workload reports every one of them. The bounds are the largest the
/// contract allows: on the 2-CPU host the benchmark was written on, host
/// speed alone moved every serve metric together by up to a quarter over
/// a few minutes.
pub const END_TO_END: &[MetricDef] = &[
    e2e("p50_ms", "ms", Lower, 0.25),
    e2e("tail_ms", "ms", Lower, 0.25),
    e2e("throughput", "1/s", Higher, 0.25),
    e2e("setup_s", "s", Lower, 0.25),
];

/// One layer each, filled by the traced run. A layer the workload does
/// not cross reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    layer("serve.mut_per_batch", "ratio", Higher),
    layer("serve.decode_ns", "ns", Lower),
    layer("serve.flush_us_p50", "us", Lower),
    layer("serve.flush_us_p99", "us", Lower),
    layer("serve.gateway_busy_frac", "fraction", Lower),
    layer("core.check_ns", "ns", Lower),
    layer("core.checks", "count", Lower),
    layer("core.batch_us_p50", "us", Lower),
    layer("core.batch_us_p99", "us", Lower),
    layer("core.rollback_frac", "fraction", Lower),
    layer("core.audit_ms", "ms", Lower),
    layer("core.refused_frac", "fraction", Lower),
    layer("log.append_us_p50", "us", Lower),
    layer("log.append_us_p99", "us", Lower),
    layer("log.appends_per_mut", "ratio", Lower),
    layer("log.snapshot_ms_p50", "ms", Lower),
    layer("log.snapshot_ms_p99", "ms", Lower),
    layer("log.snapshots", "count", Lower),
    layer("log.bytes_per_req", "B", Lower),
    layer("log.commit_ns", "ns", Lower),
    layer("log.recover_ms", "ms", Lower),
    layer("log.recover_records", "count", Lower),
    layer("log.chain_mb", "MiB", Lower),
    layer("inc.edge_checks_per_mut", "ratio", Lower),
    layer("inc.island_rebuilds", "count", Lower),
    layer("inc.build_ms", "ms", Lower),
    layer("par.queries_us_p50", "us", Lower),
    layer("par.queries_us_p99", "us", Lower),
    layer("par.wave_size", "count", Higher),
    layer("par.audit_ms", "ms", Lower),
    layer("par.audit_speedup", "ratio", Higher),
    layer("analysis.query_ms", "ms", Lower),
    layer("analysis.true_frac", "fraction", Higher),
    layer("flow.closure_ms", "ms", Lower),
    layer("flow.lookup_ns", "ns", Lower),
    layer("flow.rss_delta_mb", "MiB", Lower),
    layer("graph.parse_ms", "ms", Lower),
    layer("graph.edges_growth", "ratio", Lower),
    layer("bench.late_p99_ms", "ms", Lower),
    layer("bench.trace_overhead", "ratio", Lower),
    layer("bench.unattributed_frac", "fraction", Lower),
    layer("proc.cpu_us_per_req", "us", Lower),
    layer("proc.peak_rss_mb", "MiB", Lower),
];

/// Looks a metric up in either table.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END.iter().chain(PER_LAYER).find(|d| d.name == name)
}

/// The measured values of one run, by metric name.
#[derive(Default, Debug)]
pub struct Measured {
    values: BTreeMap<&'static str, Samples>,
}

impl Measured {
    /// Records `samples` for the catalog metric `name`.
    ///
    /// # Panics
    ///
    /// On a name outside the catalog: a typo in the harness.
    pub fn set(&mut self, name: &'static str, samples: Samples) {
        assert!(def(name).is_some(), "metric {name} is not in the catalog");
        self.values.insert(name, samples);
    }

    /// Records a single value.
    pub fn one(&mut self, name: &'static str, value: f64) {
        self.set(name, Samples::new(vec![value]));
    }

    /// Fills the per-layer table from one row per traced repeat: each
    /// metric's values across rows become its samples, and a layer the
    /// rows do not mention reads 0, since the workload does not cross it.
    pub fn fill_layers(&mut self, rows: &[Vec<(&'static str, f64)>]) {
        for d in PER_LAYER {
            let values = rows
                .iter()
                .map(|row| {
                    row.iter()
                        .find(|(n, _)| *n == d.name)
                        .map_or(0.0, |(_, v)| *v)
                })
                .collect();
            self.set(d.name, Samples::new(values));
        }
        for (name, _) in rows.iter().flatten() {
            assert!(
                PER_LAYER.iter().any(|d| d.name == *name),
                "{name} is not a per-layer metric"
            );
        }
    }

    pub fn get(&self, name: &str) -> Option<&Samples> {
        self.values.get(name)
    }
}

/// The outcome of one run, ready to print.
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub trace: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Free-form context lines (host, sizes, chosen tail percentile).
    pub notes: Vec<String>,
    pub measured: Measured,
}

impl RunResult {
    fn table(&self) -> &'static [MetricDef] {
        if self.trace {
            PER_LAYER
        } else {
            END_TO_END
        }
    }

    /// Every metric of the table this run fills, with its median; errors
    /// when one is missing or not finite.
    fn medians(&self) -> Result<Vec<(&'static MetricDef, f64)>, String> {
        self.table()
            .iter()
            .map(|d| {
                let s = self
                    .measured
                    .get(d.name)
                    .ok_or_else(|| format!("metric {} was not measured", d.name))?;
                let m = s.median();
                if !m.is_finite() || s.n() == 0 {
                    return Err(format!("metric {} has no finite value", d.name));
                }
                Ok((d, m))
            })
            .collect()
    }

    /// The human-readable report: one row per metric with its median,
    /// quartiles, range and sample count.
    pub fn render_table(&self) -> Result<String, String> {
        let mut out = String::new();
        let kind = if self.trace {
            "per-layer"
        } else {
            "end-to-end"
        };
        let _ = writeln!(out, "# {} seed {} ({kind})", self.workload, self.seed);
        for note in &self.notes {
            let _ = writeln!(out, "#   {note}");
        }
        let _ = writeln!(
            out,
            "{:<26} {:>9} {:>14} {:>14} {:>14} {:>14} {:>14} {:>7}",
            "metric", "unit", "median", "p25", "p75", "min", "max", "n"
        );
        self.medians()?;
        for d in self.table() {
            let s = &self.measured.values[d.name];
            let _ = writeln!(
                out,
                "{:<26} {:>9} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>7}",
                d.name,
                d.unit,
                s.median(),
                s.p25(),
                s.p75(),
                s.min(),
                s.max(),
                s.n()
            );
        }
        Ok(out)
    }

    fn metrics_json(&self) -> Result<String, String> {
        let parts: Vec<String> = self
            .medians()?
            .into_iter()
            .map(|(d, m)| {
                format!(
                    "\"{}\": {{\"value\": {m}, \"unit\": \"{}\"}}",
                    d.name, d.unit
                )
            })
            .collect();
        Ok(format!("{{{}}}", parts.join(", ")))
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_line(&self) -> Result<String, String> {
        Ok(format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.attempted,
            self.failed,
            self.metrics_json()?
        ))
    }

    /// The result line labelled with its workload, seed and mode, as
    /// `--out` appends it for `compare`.
    pub fn record_line(&self) -> Result<String, String> {
        let line = self.result_line()?;
        Ok(format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            self.workload,
            self.seed,
            u8::from(self.trace),
            &line[1..]
        ))
    }
}

/// `compare`'s judgement of one (workload, metric).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Verdict {
    Better,
    Worse,
    /// The medians differ by less than the bound.
    Same,
    /// One side's quartile spread is wider than the bound, so a
    /// difference of the bound's size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Same => "same",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges `new` against `old` for a metric with the given direction and
/// bound.
pub fn judge(old: &Samples, new: &Samples, better: Better, bound: f64) -> Verdict {
    let spread = |s: &Samples| (s.p75() - s.p25()).abs() / s.median().abs().max(f64::MIN_POSITIVE);
    if spread(old) > bound || spread(new) > bound {
        return Verdict::Unresolved;
    }
    let base = old.median().abs().max(f64::MIN_POSITIVE);
    let change = (new.median() - old.median()) / base;
    let worsening = match better {
        Better::Lower => change,
        Better::Higher => -change,
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// Run records grouped as `(workload, metric) -> values`.
type Grouped = BTreeMap<(String, String), Vec<f64>>;

/// Parses a file of record lines (see [`RunResult::record_line`]);
/// blank lines are skipped.
pub fn parse_records(text: &str) -> Result<Grouped, String> {
    let mut grouped = Grouped::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record = Json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("line {}: no workload", i + 1))?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_object)
            .ok_or_else(|| format!("line {}: no metrics", i + 1))?;
        for (name, metric) in metrics {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("line {}: metric {name} has no value", i + 1))?;
            grouped
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(grouped)
}

/// Compares two record files' end-to-end metrics. Returns the printed
/// table and whether any (workload, metric) got worse.
pub fn compare(old_text: &str, new_text: &str) -> Result<(String, bool), String> {
    let old = parse_records(old_text)?;
    let new = parse_records(new_text)?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<14} {:<12} {:>12} {:>24} {:>12} {:>24} {:>6}  verdict",
        "workload", "metric", "old median", "old p25..p75", "new median", "new p25..p75", "bound"
    );
    let mut regressed = false;
    let mut rows = 0;
    for ((workload, name), old_values) in &old {
        let Some(d) = def(name) else { continue };
        let Some(bound) = d.bound else { continue };
        let Some(new_values) = new.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let (o, n) = (
            Samples::new(old_values.clone()),
            Samples::new(new_values.clone()),
        );
        let verdict = judge(&o, &n, d.better, bound);
        regressed |= verdict == Verdict::Worse;
        rows += 1;
        let _ = writeln!(
            out,
            "{:<14} {:<12} {:>12.5} {:>24} {:>12.5} {:>24} {:>5.0}%  {}",
            workload,
            name,
            o.median(),
            format!("{:.5}..{:.5}", o.p25(), o.p75()),
            n.median(),
            format!("{:.5}..{:.5}", n.p25(), n.p75()),
            bound * 100.0,
            verdict.name()
        );
    }
    if rows == 0 {
        return Err("the two files share no (workload, end-to-end metric)".to_string());
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        Samples::new(values.to_vec())
    }

    #[test]
    fn names_and_units_are_well_formed_and_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for d in END_TO_END {
            assert!(d.bound.is_some_and(|b| b > 0.0 && b <= 0.25), "{}", d.name);
        }
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        let setup = def("setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", Lower));
        assert!(END_TO_END.iter().all(|d| d.bound <= setup.bound));
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn judge_lower_is_better() {
        let old = samples(&[10.0, 10.1, 10.2, 9.9, 10.0]);
        let slower = samples(&[12.0, 12.1, 12.2, 11.9, 12.0]);
        let faster = samples(&[8.0, 8.1, 8.2, 7.9, 8.0]);
        let level = samples(&[10.3, 10.2, 10.4, 10.1, 10.3]);
        assert_eq!(judge(&old, &slower, Lower, 0.10), Verdict::Worse);
        assert_eq!(judge(&old, &faster, Lower, 0.10), Verdict::Better);
        assert_eq!(judge(&old, &level, Lower, 0.10), Verdict::Same);
    }

    #[test]
    fn judge_higher_is_better() {
        let old = samples(&[100.0, 101.0, 99.0]);
        let up = samples(&[130.0, 131.0, 129.0]);
        let down = samples(&[70.0, 71.0, 69.0]);
        assert_eq!(judge(&old, &up, Higher, 0.10), Verdict::Better);
        assert_eq!(judge(&old, &down, Higher, 0.10), Verdict::Worse);
    }

    #[test]
    fn judge_wide_spread_is_unresolved() {
        let tight = samples(&[10.0, 10.0, 10.0, 10.0]);
        let wide = samples(&[5.0, 8.0, 12.0, 20.0]);
        assert_eq!(judge(&tight, &wide, Lower, 0.10), Verdict::Unresolved);
        assert_eq!(judge(&wide, &tight, Lower, 0.10), Verdict::Unresolved);
    }

    fn record(workload: &str, p50: f64, rps: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {{\"p50_ms\": {{\"value\": {p50}, \"unit\": \"ms\"}}, \"throughput\": {{\"value\": {rps}, \"unit\": \"1/s\"}}}}}}"
        )
    }

    #[test]
    fn compare_flags_a_regression_only_where_it_happened() {
        let old: Vec<String> = [1.00, 1.01, 0.99, 1.00, 1.02]
            .iter()
            .flat_map(|&p| {
                [
                    record("serve_write", p, 1000.0),
                    record("offline_audit", p, 5.0),
                ]
            })
            .collect();
        let slower: Vec<String> = [1.30, 1.31, 1.29, 1.30, 1.32]
            .iter()
            .flat_map(|&p| {
                [
                    record("serve_write", p, 1000.0),
                    record("offline_audit", 1.0, 5.0),
                ]
            })
            .collect();
        let (table, regressed) = compare(&old.join("\n"), &slower.join("\n")).unwrap();
        assert!(regressed, "{table}");
        let verdict_of = |workload: &str, metric: &str| {
            table
                .lines()
                .find(|l| l.starts_with(workload) && l.contains(metric))
                .and_then(|l| l.split_whitespace().last())
                .unwrap()
                .to_string()
        };
        assert_eq!(verdict_of("serve_write", "p50_ms"), "worse");
        assert_eq!(verdict_of("serve_write", "throughput"), "same");
        assert_eq!(verdict_of("offline_audit", "p50_ms"), "same");
        let (_, regressed) = compare(&old.join("\n"), &old.join("\n")).unwrap();
        assert!(!regressed);
    }

    #[test]
    fn compare_rejects_disjoint_or_malformed_files() {
        let a = record("serve_write", 1.0, 1.0);
        let b = record("serve_read", 1.0, 1.0);
        assert!(compare(&a, &b).is_err());
        assert!(compare(&a, "{not json").is_err());
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut measured = Measured::default();
        for d in END_TO_END {
            measured.set(d.name, samples(&[1.5, 2.5, 3.5]));
        }
        let result = RunResult {
            workload: "serve_write",
            seed: 7,
            trace: false,
            attempted: 10,
            failed: 0,
            notes: Vec::new(),
            measured,
        };
        let line = Json::parse(&result.result_line().unwrap()).unwrap();
        let keys: Vec<&String> = line.as_object().unwrap().iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let p50 = line.get("metrics").and_then(|m| m.get("p50_ms")).unwrap();
        assert_eq!(p50.get("value").and_then(Json::as_f64), Some(2.5));
        assert_eq!(p50.get("unit").and_then(Json::as_str), Some("ms"));
        // A traced run must fill the per-layer table, not this one.
        let traced = RunResult {
            trace: true,
            ..result
        };
        assert!(traced.result_line().is_err());
    }
}
