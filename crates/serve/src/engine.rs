//! Per-request analysis execution: deck → the shared victim pipeline
//! ([`RobustAnalyzer::analyze_victim`]) → golden cross-checks → reply
//! JSON.
//!
//! This is the code that runs *inside* a worker's `catch_unwind` fence.
//! Everything that can fail in an expected way — deck parse errors,
//! invalid networks, strict-mode refusals, per-aggressor rung exhaustion
//! — is rendered as a structured reply here; only genuine bugs (panics)
//! escape to the fence.
//!
//! Deadlines are cooperative and reflect the paper's cost asymmetry: the
//! closed-form chain is microseconds and always runs to completion even
//! on an expired budget (a late bounded answer beats no answer), while
//! the golden transient cross-check is milliseconds and is dropped the
//! moment the remaining budget cannot cover it. Before giving up, the
//! worker tries the analytic fast tier ([`analytic_noise`]) — closed-form
//! pole superposition, microseconds like the chain — so a deadline-pinched
//! request still gets an independent cross-check when the case admits
//! one. The deadline stamp says which tier the reply's golden values came
//! from (`deadline.golden_tier`: `"transient"`, `"analytic"` or
//! `"skipped"`), and a reply that lost its cross-check entirely degrades
//! (`deadline.golden_skipped`, `status: "degraded"`) so clients can tell
//! a timed-out-but-bounded answer from a full one.

use crate::json;
use crate::proto::{self, AnalyzeRequest, RequestId};
use std::fmt::Write as _;
use std::time::{Duration, Instant};
use xtalk_circuit::{signal::InputSignal, spice, NetId, Network, Severity};
use xtalk_core::victim::{aggressor_nets, AggressorNoise};
use xtalk_core::{FallbackPolicy, NoiseEstimate, Provenance, RobustAnalyzer};
use xtalk_sim::{
    analytic_noise, golden_noise_tiered, FastTier, GoldenOpts, GoldenTier, NoiseWaveformParams,
    SimError, SimWorkspace,
};

/// Budget floor below which a golden escalation is not attempted: a
/// transient sim is milliseconds while the chain is microseconds, so
/// with less than this left the sim would blow the deadline it exists
/// to serve.
const GOLDEN_RESERVE: Duration = Duration::from_millis(5);

/// Deck size bounds applied to client-submitted netlists. Tighter than
/// the parser defaults: a daemon request is one net cluster, not a full
/// chip.
pub fn deck_limits() -> spice::DeckLimits {
    spice::DeckLimits {
        max_lines: 100_000,
        max_nets: 512,
        max_elements: 100_000,
    }
}

/// Per-stage timings and degradation facts for one request, filled by
/// [`run_analyze`] and consumed by the server's event log. All values
/// refer to this request alone; statuses an early error return leaves
/// behind stay at the default `"error"`.
#[derive(Debug, Clone, Copy)]
pub struct RequestTrace {
    /// Wall time spent parsing the deck (ns).
    pub parse_ns: u64,
    /// Wall time spent in the closed-form robust chain, all rows (ns).
    pub chain_ns: u64,
    /// Wall time spent in golden cross-checks, all rows (ns).
    pub golden_ns: u64,
    /// Rows whose estimate came from a fallback rung or was clamped.
    pub degraded_rows: u32,
    /// Rows whose golden cross-check was dropped for deadline reasons.
    pub golden_skips: u32,
    /// Rows rescued by the analytic fast tier under deadline pressure.
    pub analytic_rescues: u32,
    /// Whether the request's deadline had expired by reply time.
    pub deadline_expired: bool,
    /// Reply status: `"ok"`, `"degraded"`, or `"error"`.
    pub status: &'static str,
}

impl Default for RequestTrace {
    fn default() -> Self {
        RequestTrace {
            parse_ns: 0,
            chain_ns: 0,
            golden_ns: 0,
            degraded_rows: 0,
            golden_skips: 0,
            analytic_rescues: 0,
            deadline_expired: false,
            status: "error",
        }
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one validated `analyze` request to a complete reply line.
///
/// `accepted` is when the request was admitted (queue wait counts
/// against the deadline — that is the point of admission control).
/// Stage timings and degradation facts land in `trace`; the per-stage
/// spans (`serve.parse`, `serve.chain`, `serve.golden`) feed the
/// windowed stats and, with tracing on, carry the request id the worker
/// pinned via `xtalk_obs::push_request_ctx`.
pub fn run_analyze(
    id: &RequestId,
    req: &AnalyzeRequest,
    accepted: Instant,
    ws: &mut SimWorkspace,
    trace: &mut RequestTrace,
) -> String {
    xtalk_obs::counter!("serve.requests.analyze").add(1);
    let budget = req.deadline_ms.map(|ms| Duration::from_secs_f64(ms / 1e3));
    let parse_started = Instant::now();
    let parsed = {
        let _span = xtalk_obs::span!("serve.parse");
        spice::parse_deck_with_limits(&req.deck, &deck_limits())
    };
    trace.parse_ns = elapsed_ns(parse_started);
    let network = match parsed {
        Ok(n) => n,
        Err(e @ spice::SpiceParseError::TooLarge { .. }) => {
            xtalk_obs::counter!("serve.replies.error").add(1);
            return proto::error_reply(id, "deck_too_large", &e.to_string(), e.position());
        }
        Err(e) => {
            xtalk_obs::counter!("serve.replies.error").add(1);
            return proto::error_reply(id, "deck", &e.to_string(), e.position());
        }
    };
    let policy = FallbackPolicy::for_strict(req.strict);
    let robust = match RobustAnalyzer::with_policy(&network, policy) {
        Ok(r) => r,
        Err(e) => {
            xtalk_obs::counter!("serve.replies.error").add(1);
            return proto::error_reply(id, "invalid_network", &e.to_string(), None);
        }
    };
    let input = req.shape.input(req.arrival, req.slew);
    let warnings = robust
        .validation()
        .with_severity(Severity::Warning)
        .count();

    let chain_started = Instant::now();
    let victim = {
        let _span = xtalk_obs::span!("serve.chain");
        robust.analyze_victim(&aggressor_nets(&network, req.aggressor.as_deref()), &input)
    };
    trace.chain_ns = elapsed_ns(chain_started);
    if let Some(failure) = victim.first_failure().filter(|_| req.strict) {
        xtalk_obs::counter!("serve.replies.error").add(1);
        return proto::error_reply(id, "strict", failure, None);
    }

    // Rows render as their golden cross-checks finish; the reply's status
    // depends on every row, so they go into their own buffer first.
    let mut rows = String::new();
    let mut degraded = victim.degraded();
    let mut golden_skips = 0usize;
    let mut analytic_runs = 0usize;
    for (i, (agg, row)) in victim.rows.iter().enumerate() {
        if i > 0 {
            rows.push(',');
        }
        rows.push_str("{\"aggressor\":");
        json::write_escaped(&mut rows, network.net(*agg).name());
        match row {
            AggressorNoise::Estimate(est, provenance) => {
                let p = provenance.as_ref().expect("chain rows carry their provenance");
                trace.degraded_rows += u32::from(p.degraded());
                render_estimate(&mut rows, est, p, req.threshold);
                if req.golden {
                    let golden_started = Instant::now();
                    let rescue = out_of_budget(budget, accepted);
                    let golden = {
                        let _span = xtalk_obs::span!("serve.golden");
                        cross_check(&network, &[(*agg, input)], ws, rescue)
                    };
                    trace.golden_ns += elapsed_ns(golden_started);
                    match golden {
                        Some(Ok((params, tier))) => {
                            if rescue {
                                trace.analytic_rescues += 1;
                                xtalk_obs::counter!(perf: "serve.deadline.analytic_rescues").add(1);
                            }
                            analytic_runs += usize::from(tier == GoldenTier::Analytic);
                            render_golden(&mut rows, est, &params, tier);
                        }
                        Some(Err(e)) => {
                            degraded = true;
                            rows.push_str(",\"golden_error\":");
                            json::write_escaped(&mut rows, &e.to_string());
                        }
                        None => {
                            golden_skips += 1;
                            degraded = true;
                            xtalk_obs::counter!(perf: "serve.deadline.golden_skips").add(1);
                            rows.push_str(",\"golden_skipped\":true");
                        }
                    }
                }
            }
            AggressorNoise::NoCoupling => rows.push_str(",\"no_coupling\":true"),
            AggressorNoise::Failed(detail) => {
                rows.push_str(",\"error\":");
                json::write_escaped(&mut rows, detail);
            }
        }
        rows.push('}');
    }

    let elapsed = accepted.elapsed();
    let expired = budget.is_some_and(|b| elapsed > b);
    if expired {
        xtalk_obs::counter!(perf: "serve.deadline.expired").add(1);
    }
    let status = if degraded || expired { "degraded" } else { "ok" };
    trace.golden_skips = u32::try_from(golden_skips).unwrap_or(u32::MAX);
    trace.deadline_expired = expired;
    trace.status = status;
    if degraded || expired {
        xtalk_obs::counter!("serve.replies.degraded").add(1);
    } else {
        xtalk_obs::counter!("serve.replies.ok").add(1);
    }

    let mut out = proto::open_reply(id, status);
    out.push_str(",\"victim\":");
    json::write_escaped(&mut out, network.node_name(network.victim_output()));
    let _ = write!(out, ",\"validation_warnings\":{warnings},\"rows\":[{rows}]");
    let _ = write!(out, ",\"elapsed_ms\":{:.3}", elapsed.as_secs_f64() * 1e3);
    if let Some(b) = budget {
        let _ = write!(
            out,
            ",\"deadline\":{{\"budget_ms\":{},\"expired\":{expired},\"golden_skipped\":{golden_skips}",
            fmt_ms(b)
        );
        if req.golden {
            // Which golden tier the reply's cross-checks came from, at the
            // most-degraded level any row saw: a skip outranks an analytic
            // rescue, which outranks the full transient reference.
            let tier = if golden_skips > 0 {
                "skipped"
            } else if analytic_runs > 0 {
                GoldenTier::Analytic.as_str()
            } else {
                GoldenTier::Transient.as_str()
            };
            let _ = write!(out, ",\"golden_tier\":\"{tier}\"");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// One row's golden cross-check: the tiered golden, or — when the budget
/// cannot cover a transient sim (`rescue`) — the analytic fast tier, which
/// costs microseconds; `None` when that declines too.
fn cross_check(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    ws: &mut SimWorkspace,
    rescue: bool,
) -> Option<Result<(NoiseWaveformParams, GoldenTier), SimError>> {
    let out = network.victim_output();
    if rescue {
        let params = analytic_noise(network, stimuli, out, FastTier::Auto).ok()?;
        Some(Ok((params, GoldenTier::Analytic)))
    } else {
        Some(golden_noise_tiered(
            network,
            stimuli,
            out,
            ws,
            &GoldenOpts::from_globals(),
        ))
    }
}

fn out_of_budget(budget: Option<Duration>, accepted: Instant) -> bool {
    match budget {
        None => false,
        Some(b) => accepted.elapsed() + GOLDEN_RESERVE > b,
    }
}

fn fmt_ms(d: Duration) -> String {
    let mut s = String::new();
    json::write_number(&mut s, d.as_secs_f64() * 1e3);
    s
}

/// The estimate half of a row: waveform, provenance, threshold flag.
fn render_estimate(out: &mut String, est: &NoiseEstimate, p: &Provenance, threshold: Option<f64>) {
    for (key, v) in [
        ("vp", est.vp),
        ("t0", est.t0),
        ("t1", est.t1),
        ("t2", est.t2),
        ("tp", est.tp),
        ("wn", est.wn),
    ] {
        out.push(',');
        proto::push_key(out, key);
        json::write_number(out, v);
    }
    out.push_str(",\"rung\":");
    json::write_escaped(out, p.rung().name());
    let _ = write!(
        out,
        ",\"degraded\":{},\"clamped_vp\":{}",
        p.degraded(),
        p.clamped()
    );
    out.push_str(",\"timing_clamps\":[");
    for (i, c) in p.timing_clamps().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, c);
    }
    out.push_str("],\"failures\":[");
    for (i, f) in p.failures().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, &f.to_string());
    }
    out.push(']');
    if let Some(budget) = threshold {
        let _ = write!(out, ",\"violation\":{}", est.vp > budget);
    }
}

/// The golden cross-check of a row, with the estimate's error against it.
fn render_golden(out: &mut String, est: &NoiseEstimate, g: &NoiseWaveformParams, tier: GoldenTier) {
    out.push_str(",\"golden\":{\"vp\":");
    json::write_number(out, g.vp);
    out.push_str(",\"tp\":");
    json::write_number(out, g.tp);
    out.push_str(",\"wn\":");
    json::write_number(out, g.wn);
    let _ = write!(out, ",\"tier\":\"{}\"", tier.as_str());
    if g.vp != 0.0 {
        out.push_str(",\"err_pct\":");
        json::write_number(out, (est.vp - g.vp) / g.vp * 100.0);
    }
    out.push('}');
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Value;
    use xtalk_circuit::signal::Shape;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn sample_deck() -> String {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 60.0).unwrap();
        b.add_ground_cap(v0, 2e-15).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 25e-15).unwrap();
        spice::write_deck(&b.build().unwrap())
    }

    /// A one-node victim under a 1 pΩ aggressor driver: the aggressor
    /// node follows its source, so the victim's fit has a single pole.
    fn single_pole_deck() -> String {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 1e-12).unwrap();
        b.add_sink(v0, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v0, 25e-15).unwrap();
        spice::write_deck(&b.build().unwrap())
    }

    fn req(deck: String) -> AnalyzeRequest {
        AnalyzeRequest {
            deck,
            slew: 100e-12,
            arrival: 0.0,
            shape: Shape::Ramp,
            threshold: None,
            aggressor: None,
            golden: false,
            strict: false,
            deadline_ms: None,
        }
    }

    fn run(r: &AnalyzeRequest) -> Value {
        let id = RequestId::null();
        let mut trace = RequestTrace::default();
        let reply = run_analyze(&id, r, Instant::now(), &mut SimWorkspace::new(), &mut trace);
        let v = crate::json::parse(&reply).expect("reply is valid JSON");
        // The trace's status must agree with the reply's.
        assert_eq!(
            v.get("status").and_then(Value::as_str),
            Some(trace.status),
            "trace status disagrees with the wire status"
        );
        v
    }

    #[test]
    fn healthy_deck_yields_ok_rows() {
        let v = run(&req(sample_deck()));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!("rows missing: {v:?}")
        };
        assert_eq!(rows.len(), 1);
        let row = &rows[0];
        assert_eq!(row.get("aggressor").and_then(Value::as_str), Some("agg0"));
        assert_eq!(row.get("rung").and_then(Value::as_str), Some("metric II"));
        assert_eq!(row.get("degraded").and_then(Value::as_bool), Some(false));
        let vp = row.get("vp").and_then(Value::as_f64).unwrap();
        assert!(vp > 0.0 && vp < 1.0, "{vp}");
    }

    #[test]
    fn step_input_degrades_with_provenance() {
        let mut r = req(sample_deck());
        r.shape = Shape::Step;
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        let row = &rows[0];
        assert_eq!(row.get("degraded").and_then(Value::as_bool), Some(true));
        assert_eq!(
            row.get("rung").and_then(Value::as_str),
            Some("metric I (m = 1)")
        );
        let Some(Value::Arr(failures)) = row.get("failures") else {
            panic!("failures missing")
        };
        assert!(!failures.is_empty(), "degraded row must carry rung failures");
    }

    #[test]
    fn step_requests_get_a_transient_golden() {
        // A step at t = 0 has not switched in the transient tier's DC
        // state, so the golden run measures the whole pulse.
        let mut r = req(sample_deck());
        r.shape = Shape::Step;
        r.golden = true;
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!("rows missing: {v:?}")
        };
        let golden = rows[0]
            .get("golden")
            .unwrap_or_else(|| panic!("step golden must run: {v:?}"));
        assert_eq!(
            golden.get("tier").and_then(Value::as_str),
            Some("transient")
        );
        let vp = golden.get("vp").and_then(Value::as_f64).unwrap();
        assert!(vp > 0.3 && vp < 0.4, "{vp}");
    }

    #[test]
    fn strict_mode_turns_degradation_into_an_error_reply() {
        let mut r = req(sample_deck());
        r.shape = Shape::Step;
        r.strict = true;
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("strict"));
    }

    #[test]
    fn deck_errors_carry_position() {
        let mut r = req(sample_deck());
        r.deck = "*! net 0 victim v\nRDRV0 src0 n0 abc\n".into();
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("code").and_then(Value::as_str), Some("deck"));
        assert_eq!(v.get("line").and_then(Value::as_f64), Some(2.0));
        assert_eq!(v.get("col").and_then(Value::as_f64), Some(15.0));
    }

    #[test]
    fn absurd_decks_hit_the_request_limits() {
        let mut deck = String::from("*! net 0 victim v\nRDRV0 src0 n0 10\n");
        for i in 0..200_000 {
            deck.push_str(&format!("C{i} n0 0 1f\n"));
        }
        let mut r = req(String::new());
        r.deck = deck;
        let v = run(&r);
        assert_eq!(v.get("code").and_then(Value::as_str), Some("deck_too_large"));
    }

    #[test]
    fn golden_runs_within_budget_and_degrades_without() {
        let mut r = req(sample_deck());
        r.golden = true;
        r.deadline_ms = Some(30_000.0); // generous
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        let golden = rows[0]
            .get("golden")
            .unwrap_or_else(|| panic!("golden should run under a generous budget: {v:?}"));
        assert_eq!(
            golden.get("tier").and_then(Value::as_str),
            Some("transient"),
            "a comfortable budget gets the full transient reference"
        );
        let err = golden.get("err_pct").and_then(Value::as_f64).unwrap();
        assert!(err.abs() < 100.0, "estimate vs golden off by {err}%");
        let dl = v.get("deadline").expect("deadline stamp");
        assert_eq!(dl.get("golden_tier").and_then(Value::as_str), Some("transient"));

        // A microscopic budget: the chain still answers and the deadline
        // is stamped expired; this deck is analytic-eligible, so the fast
        // tier rescues the cross-check instead of skipping it.
        r.deadline_ms = Some(1e-3);
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        let golden = rows[0].get("golden").expect("analytic rescue ran");
        assert_eq!(golden.get("tier").and_then(Value::as_str), Some("analytic"));
        let dl = v.get("deadline").expect("deadline stamp");
        assert_eq!(dl.get("expired").and_then(Value::as_bool), Some(true));
        assert_eq!(dl.get("golden_skipped").and_then(Value::as_f64), Some(0.0));
        assert_eq!(dl.get("golden_tier").and_then(Value::as_str), Some("analytic"));
    }

    #[test]
    fn analytic_ineligible_deck_still_skips_under_deadline_pressure() {
        // A step into a single-pole fit has no rising flank to measure
        // in closed form, so the fast tier declines and the cross-check
        // is skipped outright.
        let mut r = req(single_pole_deck());
        r.golden = true;
        r.shape = Shape::Step;
        r.deadline_ms = Some(1e-3);
        let v = run(&r);
        assert_eq!(v.get("status").and_then(Value::as_str), Some("degraded"));
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        assert_eq!(
            rows[0].get("golden_skipped").and_then(Value::as_bool),
            Some(true)
        );
        let dl = v.get("deadline").expect("deadline stamp");
        assert_eq!(dl.get("golden_skipped").and_then(Value::as_f64), Some(1.0));
        assert_eq!(dl.get("golden_tier").and_then(Value::as_str), Some("skipped"));
    }

    #[test]
    fn threshold_flags_violations() {
        let mut r = req(sample_deck());
        r.threshold = Some(1e-9);
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        assert_eq!(rows[0].get("violation").and_then(Value::as_bool), Some(true));
    }

    #[test]
    fn aggressor_filter_limits_rows() {
        let mut r = req(sample_deck());
        r.aggressor = Some("nonexistent".into());
        let v = run(&r);
        let Some(Value::Arr(rows)) = v.get("rows") else {
            panic!()
        };
        assert!(rows.is_empty());
        assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    }
}
