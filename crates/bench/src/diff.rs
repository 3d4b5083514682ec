//! Benchmark trajectory diffing: `BENCH_*.json` old vs new with
//! per-field regression thresholds.
//!
//! The repo commits one JSON artifact per benchmark (`BENCH_sweep.json`,
//! `BENCH_serve.json`, `BENCH_screen.json`); without a comparator, a
//! perf regression lands silently in a diff nobody reads. This module
//! flattens both files to dotted numeric paths (`closed_loop.p99_us`,
//! `serial.nets_per_s`), classifies each path by *direction* — whether
//! bigger is better (throughputs, speedups), worse (latencies, memory),
//! or merely descriptive (case counts, worker counts) — and gates only
//! the directional ones against a relative threshold. Fields present in
//! only one file are reported but never gated, so schema evolution (a
//! renamed leg, a new stage) does not block a merge.
//!
//! The CLI front-end is `xtalk bench-diff OLD NEW`; regressions surface
//! through the audit-violation exit code (3) so CI can gate on it.

use xtalk_obs::json::{self, Value};

/// Whether a larger value of a field is an improvement, a regression,
/// or neither.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Throughput-like: `req_per_s`, `nets_per_s`, `speedup`.
    HigherBetter,
    /// Cost-like: times (`*_s`, `*_us`, `*_ms`, `*_ns`), quantiles,
    /// memory.
    LowerBetter,
    /// Descriptive (case counts, jobs, host parallelism): compared for
    /// the report, never gated.
    Neutral,
}

/// Classifies a dotted path by its final segment's naming convention.
#[must_use]
pub fn direction(path: &str) -> Direction {
    let leaf = path.rsplit('.').next().unwrap_or(path);
    if leaf.ends_with("per_s") || leaf.ends_with("speedup") {
        return Direction::HigherBetter;
    }
    if leaf == "peak_rss_bytes"
        || ["_s", "_us", "_ms", "_ns"].iter().any(|s| leaf.ends_with(s))
    {
        return Direction::LowerBetter;
    }
    Direction::Neutral
}

/// One compared field.
#[derive(Debug, Clone)]
pub struct DiffEntry {
    /// Dotted path into the JSON (`closed_loop.p99_us`).
    pub path: String,
    /// Value in the old (baseline) file.
    pub old: f64,
    /// Value in the new (candidate) file.
    pub new: f64,
    /// Relative change in percent, positive when `new > old`.
    pub change_pct: f64,
    /// Gating direction for this path.
    pub direction: Direction,
    /// `true` when the change moves in the bad direction past the
    /// threshold.
    pub regression: bool,
}

/// Comparison tuning.
#[derive(Debug, Clone)]
pub struct DiffConfig {
    /// Relative regression tolerance in percent (default 10): a
    /// lower-better field may grow, and a higher-better field shrink,
    /// by up to this much before it counts as a regression.
    pub max_regress_pct: f64,
    /// When non-empty, only paths containing one of these substrings
    /// are gated (all are still reported).
    pub fields: Vec<String>,
}

impl Default for DiffConfig {
    fn default() -> Self {
        DiffConfig {
            max_regress_pct: 10.0,
            fields: Vec::new(),
        }
    }
}

/// The full comparison result.
#[derive(Debug, Clone)]
pub struct DiffReport {
    /// Fields present in both files, in old-file order.
    pub entries: Vec<DiffEntry>,
    /// Paths present in exactly one file (reported, never gated).
    pub only_old: Vec<String>,
    /// Paths present only in the new file.
    pub only_new: Vec<String>,
    /// Threshold the gating used (echoed into the rendering).
    pub max_regress_pct: f64,
}

impl DiffReport {
    /// Number of regressed fields.
    #[must_use]
    pub fn regressions(&self) -> usize {
        self.entries.iter().filter(|e| e.regression).count()
    }

    /// Human-readable table: one line per field, regressions flagged,
    /// schema drift listed at the end.
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let width = self
            .entries
            .iter()
            .map(|e| e.path.len())
            .max()
            .unwrap_or(0)
            .max(12);
        let _ = writeln!(
            out,
            "bench-diff (threshold {:.1}%): {} field(s), {} regression(s)",
            self.max_regress_pct,
            self.entries.len(),
            self.regressions()
        );
        for e in &self.entries {
            let dir = match e.direction {
                Direction::HigherBetter => "↑better",
                Direction::LowerBetter => "↓better",
                Direction::Neutral => "  info ",
            };
            let flag = if e.regression {
                "  REGRESSION"
            } else if e.direction != Direction::Neutral
                && e.change_pct.abs() > self.max_regress_pct
            {
                "  improved"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<width$}  {dir}  {:>14.4} -> {:>14.4}  {:>+8.2}%{flag}",
                e.path, e.old, e.new, e.change_pct
            );
        }
        for p in &self.only_old {
            let _ = writeln!(out, "  {p}  only in baseline (not gated)");
        }
        for p in &self.only_new {
            let _ = writeln!(out, "  {p}  only in candidate (not gated)");
        }
        out
    }
}

/// Collects every numeric leaf of `v` as a `(dotted_path, value)` pair,
/// arrays indexed as `path[i]`.
fn flatten(prefix: &str, v: &Value, out: &mut Vec<(String, f64)>) {
    match v {
        Value::Num(n) => out.push((prefix.to_string(), *n)),
        Value::Obj(members) => {
            for (k, child) in members {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                flatten(&path, child, out);
            }
        }
        Value::Arr(items) => {
            for (i, child) in items.iter().enumerate() {
                flatten(&format!("{prefix}[{i}]"), child, out);
            }
        }
        Value::Null | Value::Bool(_) | Value::Str(_) => {}
    }
}

/// Diffs two benchmark JSON documents (file contents, not paths).
///
/// # Errors
///
/// Returns a message when either document fails to parse as JSON.
pub fn diff_benchmarks(
    old_json: &str,
    new_json: &str,
    config: &DiffConfig,
) -> Result<DiffReport, String> {
    let old = json::parse(old_json).map_err(|e| format!("baseline: {e}"))?;
    let new = json::parse(new_json).map_err(|e| format!("candidate: {e}"))?;
    let mut old_fields = Vec::new();
    let mut new_fields = Vec::new();
    flatten("", &old, &mut old_fields);
    flatten("", &new, &mut new_fields);

    let gated = |path: &str| {
        config.fields.is_empty() || config.fields.iter().any(|f| path.contains(f.as_str()))
    };

    let mut entries = Vec::new();
    let mut only_old = Vec::new();
    for (path, old_v) in &old_fields {
        let Some((_, new_v)) = new_fields.iter().find(|(p, _)| p == path) else {
            only_old.push(path.clone());
            continue;
        };
        let direction = direction(path);
        let change_pct = if *old_v == 0.0 {
            if *new_v == 0.0 { 0.0 } else { f64::INFINITY * new_v.signum() }
        } else {
            (new_v - old_v) / old_v.abs() * 100.0
        };
        // A zero baseline cannot anchor a relative gate; report only.
        let regression = old_v.abs() > 0.0
            && gated(path)
            && match direction {
                Direction::HigherBetter => change_pct < -config.max_regress_pct,
                Direction::LowerBetter => change_pct > config.max_regress_pct,
                Direction::Neutral => false,
            };
        entries.push(DiffEntry {
            path: path.clone(),
            old: *old_v,
            new: *new_v,
            change_pct,
            direction,
            regression,
        });
    }
    let only_new = new_fields
        .iter()
        .filter(|(p, _)| !old_fields.iter().any(|(op, _)| op == p))
        .map(|(p, _)| p.clone())
        .collect();
    Ok(DiffReport {
        entries,
        only_old,
        only_new,
        max_regress_pct: config.max_regress_pct,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const OLD: &str = r#"{"requests":500,"jobs":2,
        "closed_loop":{"mean_us":133.7,"p50_us":114.2,"p99_us":865.5},
        "pipelined":{"total_s":0.0548,"req_per_s":9124.8}}"#;

    #[test]
    fn identical_files_have_no_regressions() {
        let r = diff_benchmarks(OLD, OLD, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.entries.len(), 7);
        assert!(r.only_old.is_empty() && r.only_new.is_empty());
    }

    #[test]
    fn direction_classification_follows_naming() {
        assert_eq!(direction("pipelined.req_per_s"), Direction::HigherBetter);
        assert_eq!(direction("serial.nets_per_s"), Direction::HigherBetter);
        assert_eq!(direction("speedup"), Direction::HigherBetter);
        assert_eq!(direction("fast_speedup"), Direction::HigherBetter);
        assert_eq!(direction("closed_loop.p99_us"), Direction::LowerBetter);
        assert_eq!(direction("pipelined.total_s"), Direction::LowerBetter);
        assert_eq!(direction("peak_rss_bytes"), Direction::LowerBetter);
        assert_eq!(direction("jobs"), Direction::Neutral);
        assert_eq!(direction("requests"), Direction::Neutral);
        assert_eq!(direction("host_parallelism"), Direction::Neutral);
    }

    #[test]
    fn latency_growth_past_threshold_regresses() {
        let new = OLD.replace("865.5", "1200.0"); // p99 +38.6%
        let r = diff_benchmarks(OLD, &new, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 1);
        let bad = r.entries.iter().find(|e| e.regression).unwrap();
        assert_eq!(bad.path, "closed_loop.p99_us");
        assert!(r.render().contains("REGRESSION"));
    }

    #[test]
    fn throughput_drop_past_threshold_regresses_but_rise_does_not() {
        let slower = OLD.replace("9124.8", "5000.0"); // -45%
        let r = diff_benchmarks(OLD, &slower, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 1);
        let faster = OLD.replace("9124.8", "15000.0");
        let r = diff_benchmarks(OLD, &faster, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 0, "improvements never gate");
    }

    #[test]
    fn within_threshold_noise_passes() {
        let new = OLD.replace("865.5", "900.0"); // p99 +4%
        let r = diff_benchmarks(OLD, &new, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 0);
    }

    #[test]
    fn custom_threshold_and_field_filter_apply() {
        let new = OLD.replace("865.5", "1200.0").replace("0.0548", "0.08");
        // Gate only p99: the total_s regression is reported, not gated.
        let config = DiffConfig {
            max_regress_pct: 10.0,
            fields: vec!["p99".into()],
        };
        let r = diff_benchmarks(OLD, &new, &config).expect("parses");
        assert_eq!(r.regressions(), 1);
        // A 50% threshold tolerates the +38.6% p99 growth.
        let config = DiffConfig {
            max_regress_pct: 50.0,
            fields: Vec::new(),
        };
        let r = diff_benchmarks(OLD, &new, &config).expect("parses");
        assert_eq!(r.regressions(), 0);
    }

    #[test]
    fn missing_fields_are_reported_not_gated() {
        let new = r#"{"requests":500,"jobs":2,
            "closed_loop":{"mean_us":133.7,"p50_us":114.2,"p99_us":865.5},
            "pipelined":{"req_per_s":9124.8},"parallel_skipped":true}"#;
        let r = diff_benchmarks(OLD, new, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 0);
        assert_eq!(r.only_old, vec!["pipelined.total_s".to_string()]);
        assert!(r.only_new.is_empty(), "booleans are not numeric leaves");
        assert!(r.render().contains("only in baseline"));
    }

    #[test]
    fn zero_baseline_never_gates() {
        let old = r#"{"total_s":0.0}"#;
        let new = r#"{"total_s":5.0}"#;
        let r = diff_benchmarks(old, new, &DiffConfig::default()).expect("parses");
        assert_eq!(r.regressions(), 0);
        assert!(r.entries[0].change_pct.is_infinite());
    }

    #[test]
    fn bad_json_is_a_structured_error() {
        assert!(diff_benchmarks("{", OLD, &DiffConfig::default())
            .unwrap_err()
            .contains("baseline"));
        assert!(diff_benchmarks(OLD, "nope", &DiffConfig::default())
            .unwrap_err()
            .contains("candidate"));
    }
}
