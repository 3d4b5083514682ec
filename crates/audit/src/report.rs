//! Structured audit findings and the deterministic report.
//!
//! The report is the audit's contract with CI: the JSON serialization is
//! hand-rolled (no external dependencies), contains **no** run-varying
//! fields (worker count, timestamps, hostnames), and every collection is
//! emitted in case-index order — so the bytes are identical for any
//! `--jobs` value and any machine, given the same `(cases, seed,
//! envelopes)`.

use crate::ErrorEnvelopes;
use std::fmt;
use std::fmt::Write as _;
use xtalk_obs::json;

/// One violated invariant on one audited case. Everything needed to
/// reproduce the case is in the finding: regenerate it with
/// `xtalk_tech::sweep::single_case(&Technology::p25(), family, seed)`.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// Case index within the audit run.
    pub case_index: usize,
    /// The case's own generation seed (derived from the master seed).
    pub seed: u64,
    /// Case family name (`two_pin_far`, `two_pin_near`, `tree`).
    pub family: &'static str,
    /// The generated case's label (human diagnostics).
    pub label: String,
    /// Which evaluation the invariant belongs to (`metric_one`,
    /// `metric_two`, `bounds`, `superpose`, `golden`).
    pub metric: &'static str,
    /// The violated invariant (`identity_tp`, `moment_residual_f2`,
    /// `bound_conservatism`, `error_envelope_vp`, …).
    pub invariant: &'static str,
    /// The observed value.
    pub observed: f64,
    /// The expected value (or the tolerance the observation exceeded).
    pub expected: f64,
    /// Human-readable elaboration.
    pub detail: String,
    /// The degraded-pipeline rung that analyzed this case
    /// ([`xtalk_core::Rung::name`]), or `"none"` when the robust chain
    /// itself failed — context for triaging whether the violation comes
    /// from the full-fidelity path.
    pub rung: &'static str,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "case {} (family {}, seed {:#x}) {}/{}: observed {} vs expected {} — {}",
            self.case_index,
            self.family,
            self.seed,
            self.metric,
            self.invariant,
            self.observed,
            self.expected,
            self.detail
        )
    }
}

/// A case the audit could not score (sim failure or negligible pulse) —
/// recorded, not silently dropped.
#[derive(Debug, Clone, PartialEq)]
pub struct SkippedCase {
    /// Case index within the audit run.
    pub case_index: usize,
    /// The case's generation seed.
    pub seed: u64,
    /// Case family name.
    pub family: &'static str,
    /// Why the case was skipped.
    pub reason: String,
}

/// A metric that returned a *structured* error on a case. Declining with
/// a typed error is designed behavior (the degraded-mode pipeline exists
/// for exactly this), so declines are reported but are not violations.
#[derive(Debug, Clone, PartialEq)]
pub struct DeclinedEvaluation {
    /// Case index within the audit run.
    pub case_index: usize,
    /// The case's generation seed.
    pub seed: u64,
    /// Which evaluation declined (`metric_one`, `metric_two`, `bounds`).
    pub metric: &'static str,
    /// The structured error's message.
    pub reason: String,
}

/// The largest observed |relative error| against the golden waveform for
/// one `(metric, parameter)` pair, with the case that produced it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstError {
    /// `metric_one` or `metric_two`.
    pub metric: &'static str,
    /// `vp`, `tp` or `wn`.
    pub param: &'static str,
    /// Signed relative error `(estimate − golden)/golden` whose magnitude
    /// is the run's maximum.
    pub error: f64,
    /// Case index that produced it.
    pub case_index: usize,
    /// That case's generation seed.
    pub seed: u64,
}

/// Complete audit outcome: configuration echo, coverage counters, the
/// observed worst errors, and every violation.
#[derive(Debug, Clone, PartialEq)]
pub struct AuditReport {
    /// Requested case count.
    pub cases: usize,
    /// Master seed.
    pub seed: u64,
    /// Error envelopes the run was checked against.
    pub envelopes: ErrorEnvelopes,
    /// Cases that were fully checked.
    pub checked: usize,
    /// Cases that could not be scored, in case order.
    pub skipped: Vec<SkippedCase>,
    /// Structured metric declines, in case order.
    pub declined: Vec<DeclinedEvaluation>,
    /// Worst observed errors, in fixed `(metric, param)` order.
    pub worst: Vec<WorstError>,
    /// Invariant violations, in case order.
    pub findings: Vec<Finding>,
}

impl AuditReport {
    /// `true` when no invariant was violated.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic JSON serialization (see module docs). Byte-identical
    /// across worker counts and machines for the same inputs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        let _ = write!(
            s,
            "{{\n  \"cases\": {},\n  \"seed\": {},\n  \"envelopes\": {{\n",
            self.cases, self.seed
        );
        let envelopes = &self.envelopes;
        for (key, env) in [
            ("metric_one", &envelopes.metric_one),
            ("metric_two", &envelopes.metric_two),
        ] {
            let _ = write!(s, "    \"{key}\": {{\"vp\": ");
            json::write_report_number(&mut s, env.vp);
            s.push_str(", \"tp\": ");
            json::write_report_number(&mut s, env.tp);
            s.push_str(", \"wn\": ");
            json::write_report_number(&mut s, env.wn);
            s.push_str("},\n");
        }
        s.push_str("    \"bound_margin\": ");
        json::write_report_number(&mut s, envelopes.bound_margin);
        let _ = write!(
            s,
            "\n  }},\n  \"checked\": {},\n  \"violations\": {},\n  \"worst_errors\": [\n",
            self.checked,
            self.findings.len()
        );
        for (i, w) in self.worst.iter().enumerate() {
            s.push_str("    {\"metric\": ");
            json::write_escaped(&mut s, w.metric);
            s.push_str(", \"param\": ");
            json::write_escaped(&mut s, w.param);
            s.push_str(", \"error\": ");
            json::write_report_number(&mut s, w.error);
            let _ = write!(s, ", \"case\": {}, \"seed\": {}}}", w.case_index, w.seed);
            end_item(&mut s, i, self.worst.len());
        }
        s.push_str("  ],\n  \"skipped\": [\n");
        for (i, sk) in self.skipped.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"case\": {}, \"seed\": {}, \"family\": ",
                sk.case_index, sk.seed
            );
            json::write_escaped(&mut s, sk.family);
            s.push_str(", \"reason\": ");
            json::write_escaped(&mut s, &sk.reason);
            s.push('}');
            end_item(&mut s, i, self.skipped.len());
        }
        s.push_str("  ],\n  \"declined\": [\n");
        for (i, d) in self.declined.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"case\": {}, \"seed\": {}, \"metric\": ",
                d.case_index, d.seed
            );
            json::write_escaped(&mut s, d.metric);
            s.push_str(", \"reason\": ");
            json::write_escaped(&mut s, &d.reason);
            s.push('}');
            end_item(&mut s, i, self.declined.len());
        }
        s.push_str("  ],\n  \"findings\": [\n");
        for (i, f) in self.findings.iter().enumerate() {
            let _ = write!(
                s,
                "    {{\"case\": {}, \"seed\": {}, \"family\": ",
                f.case_index, f.seed
            );
            json::write_escaped(&mut s, f.family);
            s.push_str(", \"label\": ");
            json::write_escaped(&mut s, &f.label);
            s.push_str(", \"metric\": ");
            json::write_escaped(&mut s, f.metric);
            s.push_str(", \"invariant\": ");
            json::write_escaped(&mut s, f.invariant);
            s.push_str(", \"observed\": ");
            json::write_report_number(&mut s, f.observed);
            s.push_str(", \"expected\": ");
            json::write_report_number(&mut s, f.expected);
            s.push_str(", \"rung\": ");
            json::write_escaped(&mut s, f.rung);
            s.push_str(", \"detail\": ");
            json::write_escaped(&mut s, &f.detail);
            s.push('}');
            end_item(&mut s, i, self.findings.len());
        }
        s.push_str("  ]\n}\n");
        s
    }
}

/// Ends item `i` of a `len`-item JSON array: a comma unless it is the
/// last, then the line break.
fn end_item(s: &mut String, i: usize, len: usize) {
    s.push_str(if i + 1 < len { ",\n" } else { "\n" });
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit: {} cases (seed {}) — {} checked, {} skipped, {} declined evaluations, {} violation(s)",
            self.cases,
            self.seed,
            self.checked,
            self.skipped.len(),
            self.declined.len(),
            self.findings.len()
        )?;
        if !self.worst.is_empty() {
            writeln!(f, "worst |relative error| vs golden:")?;
            for w in &self.worst {
                writeln!(
                    f,
                    "  {:>10} {:<2} {:>8.2}%  (case {}, seed {:#x})",
                    w.metric,
                    w.param,
                    w.error * 100.0,
                    w.case_index,
                    w.seed
                )?;
            }
        }
        if self.clean() {
            writeln!(f, "no invariant violations")?;
        } else {
            writeln!(f, "violations:")?;
            for finding in &self.findings {
                writeln!(f, "  {finding}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ErrorEnvelopes;

    fn sample_report() -> AuditReport {
        AuditReport {
            cases: 2,
            seed: 1,
            envelopes: ErrorEnvelopes::default(),
            checked: 1,
            skipped: vec![SkippedCase {
                case_index: 1,
                seed: 99,
                family: "tree",
                reason: "negligible pulse (1.0e-4 Vdd)".into(),
            }],
            declined: vec![],
            worst: vec![WorstError {
                metric: "metric_two",
                param: "vp",
                error: 0.12,
                case_index: 0,
                seed: 42,
            }],
            findings: vec![Finding {
                case_index: 0,
                seed: 42,
                family: "two_pin_far",
                label: "two_pin[0] l1=0.10mm".into(),
                metric: "metric_one",
                invariant: "identity_tp",
                observed: 1.0,
                expected: 0.0,
                detail: "tp − (t0 + t1) exceeded tolerance".into(),
                rung: "metric II",
            }],
        }
    }

    #[test]
    fn json_is_deterministic_and_structured() {
        let r = sample_report();
        let a = r.to_json();
        let b = r.to_json();
        assert_eq!(a, b);
        assert!(a.contains("\"violations\": 1"));
        assert!(a.contains("\"invariant\": \"identity_tp\""));
        assert!(a.contains("\"seed\": 42"));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser dependency).
        assert_eq!(a.matches('{').count(), a.matches('}').count());
        assert_eq!(a.matches('[').count(), a.matches(']').count());
    }

    #[test]
    fn summary_mentions_violations_and_worst_errors() {
        let r = sample_report();
        let text = r.to_string();
        assert!(text.contains("1 violation(s)"));
        assert!(text.contains("worst |relative error|"));
        assert!(text.contains("identity_tp"));
        let clean = AuditReport {
            findings: vec![],
            ..r
        };
        assert!(clean.to_string().contains("no invariant violations"));
    }
}
