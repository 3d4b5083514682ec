//! Incremental-vs-full equivalence invariant.
//!
//! The what-if engine ([`xtalk_incr::WhatIf`]) promises **bit-identity**:
//! after any sequence of single-element deltas and reverts, its report
//! equals the one a fresh session built from scratch on the edited
//! network would produce, byte for byte. The promise rests on
//! floating-point reasoning (a recomputed view re-runs the exact same
//! kernels on the exact same values, and a clean view's cached results
//! were computed from values no delta has since touched), which is
//! exactly the kind of claim an audit should re-verify numerically on
//! every run.
//!
//! For a family of deterministic Figure-4 clusters, this module walks a
//! seeded delta/revert script and, after every step, compares the
//! session's report JSON against a from-scratch rebuild. At the end the
//! script is fully reverted and the report must match the initial bytes;
//! the session's `queries == hits + misses` accounting is checked at
//! every step. The `incr_speedup` bench asserts the same equivalence
//! while timing it; this family keeps the contract enforced by plain
//! `xtalk audit`.

use xtalk_circuit::Delta;
use xtalk_exec::Jobs;
use xtalk_incr::{WhatIf, WhatIfConfig};
use xtalk_tech::{ClusterSpec, Technology};

use crate::report::Finding;

/// Steps per scripted session — enough to mix every delta kind with
/// reverts while keeping the audit fast.
const STEPS: usize = 12;

/// xorshift64*: tiny deterministic generator so the script is seeded
/// without pulling a rand dependency into the audit crate.
fn next(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

/// A fraction in [0, 1) from the generator.
fn frac(state: &mut u64) -> f64 {
    (next(state) >> 11) as f64 / (1u64 << 53) as f64
}

/// The seeded script step: one of the four value-delta kinds or a
/// revert, with targets scaled to the session's element tables.
fn scripted_delta(session: &WhatIf, state: &mut u64) -> Option<Delta> {
    let base = session.base();
    let pick = |f: f64, len: usize| ((f * len as f64) as usize).min(len - 1);
    match next(state) % 5 {
        0 => {
            let nets: Vec<_> = base.nets().map(|(id, _)| id).collect();
            let net = nets[pick(frac(state), nets.len())];
            Some(Delta::ResizeDriver {
                net,
                ohms: 40.0 + frac(state) * 400.0,
            })
        }
        1 => Some(Delta::SetCouplingCap {
            index: pick(frac(state), base.coupling_caps().len()),
            farads: 1e-15 + frac(state) * 3e-14,
        }),
        2 => Some(Delta::SetResistor {
            index: pick(frac(state), base.resistors().len()),
            ohms: 2.0 + frac(state) * 100.0,
        }),
        3 => Some(Delta::SetGroundCap {
            index: pick(frac(state), base.ground_caps().len()),
            farads: 5e-16 + frac(state) * 1e-14,
        }),
        _ => None, // revert
    }
}

/// Runs one scripted session over `spec` and records every divergence.
fn check_spec(spec: &ClusterSpec, seed: u64, case_index: usize, findings: &mut Vec<Finding>) {
    let label = format!("figure4 {} lanes x {} segments", spec.lanes, spec.segments());
    let mut finding = |invariant: &'static str, observed: f64, expected: f64, detail: String| {
        findings.push(Finding {
            case_index,
            seed,
            family: "incremental",
            label: label.clone(),
            metric: "metric_two",
            invariant,
            observed,
            expected,
            detail,
            rung: "none",
        });
    };

    let base = match spec.build(&Technology::p25()) {
        Ok((network, _)) => network,
        Err(e) => {
            finding("incr_run", f64::NAN, 0.0, format!("cluster build failed: {e}"));
            return;
        }
    };
    let config = WhatIfConfig {
        jobs: Jobs::Count(1),
        ..WhatIfConfig::default()
    };
    let mut session = match WhatIf::new(base, config) {
        Ok(s) => s,
        Err(e) => {
            finding("incr_run", f64::NAN, 0.0, format!("session build failed: {e}"));
            return;
        }
    };
    let initial = session.report().to_json();

    let worst_vp = |json: &str| -> f64 {
        // Both JSONs come from the same serializer; comparing bytes is
        // the check, vp is only finding context.
        json.find("\"vp\":")
            .and_then(|i| {
                let tail = &json[i + 5..];
                let end = tail.find([',', '}']).unwrap_or(tail.len());
                tail[..end].parse().ok()
            })
            .unwrap_or(f64::NAN)
    };

    let mut state = seed | 1;
    for step in 0..STEPS {
        let report = match scripted_delta(&session, &mut state) {
            Some(delta) => match session.apply(&delta) {
                Ok(r) => r,
                Err(e) => {
                    finding(
                        "incr_run",
                        f64::NAN,
                        0.0,
                        format!("step {step}: delta failed to apply: {e}"),
                    );
                    return;
                }
            },
            None => match session.revert() {
                Ok(Some(r)) => r,
                Ok(None) => continue, // empty undo stack
                Err(e) => {
                    finding(
                        "incr_run",
                        f64::NAN,
                        0.0,
                        format!("step {step}: revert failed: {e}"),
                    );
                    return;
                }
            },
        };

        let scratch = match WhatIf::new(session.base().clone(), config) {
            Ok(mut s) => s.report().to_json(),
            Err(e) => {
                finding(
                    "incr_run",
                    f64::NAN,
                    0.0,
                    format!("step {step}: scratch rebuild failed: {e}"),
                );
                return;
            }
        };
        let incremental = report.to_json();
        if incremental != scratch {
            finding(
                "incr_bit_identity",
                worst_vp(&incremental),
                worst_vp(&scratch),
                format!(
                    "step {step}: incremental report must equal a from-scratch \
                     rebuild byte-for-byte ({} vs {} bytes)",
                    incremental.len(),
                    scratch.len()
                ),
            );
        }
        let stats = session.stats();
        if stats.queries != stats.hits + stats.misses {
            finding(
                "incr_accounting",
                stats.queries as f64,
                (stats.hits + stats.misses) as f64,
                format!(
                    "step {step}: every query must be either a hit or a miss \
                     (queries {} hits {} misses {})",
                    stats.queries, stats.hits, stats.misses
                ),
            );
        }
    }

    while session.undo_depth() > 0 {
        if let Err(e) = session.revert() {
            finding("incr_run", f64::NAN, 0.0, format!("final revert failed: {e}"));
            return;
        }
    }
    let restored = session.report().to_json();
    if restored != initial {
        finding(
            "incr_revert_restores",
            worst_vp(&restored),
            worst_vp(&initial),
            "reverting the whole script must restore the initial report bytes"
                .to_string(),
        );
    }
}

/// Runs the incremental equivalence checks. `case_offset` numbers the
/// synthetic cases after the randomized and screening ones so findings
/// stay unambiguous in one report.
pub fn incremental_equiv_findings(case_offset: usize) -> Vec<Finding> {
    let _span = xtalk_obs::span!("audit.incremental");
    let mut findings = Vec::new();
    let specs = [
        ClusterSpec::figure4_family(6),
        ClusterSpec {
            lanes: 4,
            length: 1.0e-3,
            driver: 120.0,
            driver_stagger: 25.0,
            load: 12e-15,
            segments_per_mm: 3,
        },
    ];
    for (i, spec) in specs.iter().enumerate() {
        check_spec(spec, 0x1a2b_3c4d ^ ((i as u64) << 32), case_offset + i, &mut findings);
        xtalk_obs::counter!("audit.incremental.checks").add(STEPS as u64);
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equivalence_holds_on_the_stock_specs() {
        let findings = incremental_equiv_findings(0);
        assert!(
            findings.is_empty(),
            "incremental sessions must match full rebuilds: {findings:?}"
        );
    }
}
