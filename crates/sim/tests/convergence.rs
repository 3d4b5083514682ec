//! Accuracy validation of the transient simulator against analytic
//! solutions — the evidence that the "HSPICE stand-in" substitution is
//! faithful.
//!
//! The symmetric two-node coupled pair is *exactly* a two-pole circuit, so
//! [`TwoPoleFit`] built from its exact Taylor coefficients gives the exact
//! analytic ramp response. The simulator must converge to it at the
//! trapezoidal rule's 2nd order.

use xtalk_circuit::{signal::InputSignal, NetId, NetRole, Network, NetworkBuilder};
use xtalk_moments::{MomentEngine, TwoPoleFit};
use xtalk_sim::{SimOptions, TransientSim};

fn coupled_pair(rd: f64, cg: f64, cc: f64) -> (Network, NetId) {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("v", NetRole::Victim);
    let a = b.add_net("a", NetRole::Aggressor);
    let vn = b.add_node(v, "v0");
    let an = b.add_node(a, "a0");
    b.add_driver(v, vn, rd).unwrap();
    b.add_driver(a, an, rd).unwrap();
    b.add_sink(vn, cg).unwrap();
    b.add_sink(an, cg).unwrap();
    b.add_coupling_cap(vn, an, cc).unwrap();
    let net = b.build().unwrap();
    let agg = net.aggressor_nets().next().unwrap().0;
    (net, agg)
}

/// Max |simulated − analytic| over the window for a given step.
fn max_error(net: &Network, agg: NetId, fit: &TwoPoleFit, dt: f64, tr: f64) -> f64 {
    let sim = TransientSim::new(net).unwrap();
    let opts = SimOptions {
        dt,
        t_stop: 40.0 * tr,
        probes: vec![],
    };
    let stim = [(agg, InputSignal::rising_ramp(0.0, tr))];
    let res = sim.run(&stim, &opts).unwrap();
    let w = res.probe(net.victim_output()).unwrap();
    let mut err = 0.0_f64;
    for (k, &v) in w.samples().iter().enumerate() {
        let t = w.t_start() + k as f64 * w.dt();
        err = err.max((v - fit.ramp_response(t, tr)).abs());
    }
    err
}

#[test]
fn trapezoidal_matches_analytic_two_pole_response() {
    let (net, agg) = coupled_pair(200.0, 25e-15, 12e-15);
    let engine = MomentEngine::new(&net).unwrap();
    let h = engine.transfer_taylor(agg, net.victim_output(), 4).unwrap();
    let fit = TwoPoleFit::from_taylor(&h).unwrap();
    let tr = 100e-12;
    let err = max_error(&net, agg, &fit, tr / 400.0, tr);
    // Peak noise here is a few percent of Vdd; demand error orders below it.
    let peak = fit.ramp_peak(tr).unwrap().1;
    assert!(
        err < 1e-4 * peak.max(1e-6),
        "max error {err} vs peak {peak}"
    );
}

#[test]
fn trapezoidal_converges_at_second_order() {
    let (net, agg) = coupled_pair(300.0, 20e-15, 15e-15);
    let engine = MomentEngine::new(&net).unwrap();
    let h = engine.transfer_taylor(agg, net.victim_output(), 4).unwrap();
    let fit = TwoPoleFit::from_taylor(&h).unwrap();
    let tr = 80e-12;
    let e1 = max_error(&net, agg, &fit, tr / 25.0, tr);
    let e2 = max_error(&net, agg, &fit, tr / 50.0, tr);
    let e3 = max_error(&net, agg, &fit, tr / 100.0, tr);
    let r12 = e1 / e2;
    let r23 = e2 / e3;
    // 2nd order: halving dt should cut the error ~4x (allow 3x..6x).
    assert!(
        (3.0..6.0).contains(&r12),
        "e1/e2 = {r12} (e1={e1}, e2={e2})"
    );
    assert!(
        (3.0..6.0).contains(&r23),
        "e2/e3 = {r23} (e2={e2}, e3={e3})"
    );
}

#[test]
fn simulated_pulse_area_equals_first_moment() {
    // ∫ noise dt = f1 = h1·g0 — charge conservation through the coupling.
    let (net, agg) = coupled_pair(250.0, 30e-15, 10e-15);
    let engine = MomentEngine::new(&net).unwrap();
    let h = engine.transfer_taylor(agg, net.victim_output(), 2).unwrap();
    let sim = TransientSim::new(&net).unwrap();
    let tr = 120e-12;
    let stim = [(agg, InputSignal::rising_ramp(0.0, tr))];
    let opts = SimOptions::auto(&net, &stim);
    let res = sim.run(&stim, &opts).unwrap();
    let w = res.probe(net.victim_output()).unwrap();
    assert!(
        (w.integral() - h[1]).abs() < 1e-3 * h[1].abs(),
        "area {} vs f1 {}",
        w.integral(),
        h[1]
    );
}

#[test]
fn exponential_input_produces_noise_pulse() {
    let (net, agg) = coupled_pair(400.0, 25e-15, 20e-15);
    let sim = TransientSim::new(&net).unwrap();
    let stim = [(agg, InputSignal::rising_exp(0.0, 150e-12))];
    let opts = SimOptions::auto(&net, &stim);
    let res = sim.run(&stim, &opts).unwrap();
    let params =
        xtalk_sim::measure_noise(res.probe(net.victim_output()).unwrap(), 1.0).unwrap();
    assert!(params.vp > 0.01);
    assert!(params.t1 > 0.0 && params.t2 > 0.0);
    assert!(params.tp > params.t0);
}
