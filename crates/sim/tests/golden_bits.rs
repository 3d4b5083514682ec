//! Bit-level fixture for the golden tiers.
//!
//! Records `f64::to_bits` of `vp, tp, t0, t1, t2, wn, area` from
//! `golden_noise_tiered` (fixed stepping with fast tier `off`; adaptive
//! stepping with fast tier `off` and `auto`) and from `analytic_noise`
//! (fast tier `on` and `auto`) over:
//!
//! * PEX island victims with several direct aggressors (sparse backend);
//! * seeded cases from each sweep family, each driven by a rising ramp, a
//!   falling ramp and a step;
//! * a lumped coupled pair small enough for the dense backend;
//! * a slow exponential input whose pulse outlasts the auto horizon, so
//!   the fixed golden takes a horizon resume and the adaptive golden a
//!   horizon retry.
//!
//! Every line must equal the matching line of `fixtures/golden_bits.txt`:
//! the stepping kernels, factorizations and orderings may get faster,
//! never different. On a mismatch the full output is written to the
//! system temp directory for inspection.

use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_circuit::{NetId, NetRole, Network, NetworkBuilder};
use xtalk_linalg::SolverKind;
use xtalk_sim::{
    analytic_noise, golden_noise_tiered, measure_noise, set_solver_override, FastTier, GoldenOpts,
    NoiseWaveformParams, SimError, SimMode, SimOptions, SimWorkspace, TransientSim,
};
use xtalk_tech::sweep::{single_case, CaseFamily};
use xtalk_tech::{PexDeckSpec, Technology};

const FIXTURE: &str = include_str!("fixtures/golden_bits.txt");

/// Sweep seeds drawn per family.
const SWEEP_SEEDS: u64 = 4;

/// One golden measurement setup: a network and its stimuli.
struct Case {
    label: String,
    network: Network,
    stimuli: Vec<(NetId, InputSignal)>,
}

/// Victims of a two-bus PEX deck (16 lanes × 4 segments, one island per
/// bus), each with every directly coupled aggressor switching: the weak
/// middle lanes the screen escalates, and the edge lanes.
fn pex_cases() -> Vec<Case> {
    let deck = PexDeckSpec::new(2, 16, 4).deck_string(&Technology::p25());
    let index = DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default())
        .expect("generated deck parses");
    let clusters = CouplingClusters::partition(&index);
    let mut cases = Vec::new();
    for victim in [8, 24, 0, 31] {
        let network = clusters
            .victim_network(&index, victim)
            .expect("island materializes");
        let aggressors: Vec<NetId> = network
            .nets()
            .map(|(id, _)| id)
            .filter(|&id| {
                id != network.victim()
                    && network
                        .couplings_between(id, network.victim())
                        .next()
                        .is_some()
            })
            .collect();
        for (shape, input) in [
            ("rise", InputSignal::rising_ramp(0.0, 100e-12)),
            ("fall", InputSignal::falling_ramp(20e-12, 60e-12)),
        ] {
            cases.push(Case {
                label: format!("pex-{victim}-{shape}"),
                network: network.clone(),
                stimuli: aggressors.iter().map(|&a| (a, input)).collect(),
            });
        }
    }
    cases
}

/// Seeded cases of every sweep family, each under a rising ramp and a
/// falling ramp with the drawn arrival and transition, and a step one
/// transition after the drawn arrival, so that every step case switches
/// strictly after `t = 0`.
fn sweep_cases() -> Vec<Case> {
    let tech = Technology::p25();
    let mut cases = Vec::new();
    for family in CaseFamily::ALL {
        for seed in 1..=SWEEP_SEEDS {
            let case = single_case(&tech, family, seed).expect("sweep case builds");
            let (arrival, tr) = (case.input.arrival(), case.input.transition());
            for (shape, input) in [
                ("rise", InputSignal::rising_ramp(arrival, tr)),
                ("fall", InputSignal::falling_ramp(arrival, tr)),
                ("step", InputSignal::step(arrival + tr)),
            ] {
                cases.push(Case {
                    label: format!("{family}-{seed}-{shape}"),
                    network: case.network.clone(),
                    stimuli: vec![(case.aggressor, input)],
                });
            }
        }
    }
    cases
}

/// Lumped victim/aggressor pair: two nodes, dense backend.
fn lumped_case() -> Case {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("v", NetRole::Victim);
    let a = b.add_net("a", NetRole::Aggressor);
    let vn = b.add_node(v, "v0");
    let an = b.add_node(a, "a0");
    b.add_driver(v, vn, 900.0).unwrap();
    b.add_driver(a, an, 300.0).unwrap();
    b.add_sink(vn, 15e-15).unwrap();
    b.add_sink(an, 20e-15).unwrap();
    b.add_coupling_cap(vn, an, 12e-15).unwrap();
    Case {
        label: "lumped-rise".into(),
        network: b.build().unwrap(),
        stimuli: vec![(a, InputSignal::rising_ramp(10e-12, 80e-12))],
    }
}

/// Coupled 12-segment ladders under an exponential input a thousand
/// open-circuit time constants slow: the noise tail decays with the
/// input, long after the auto horizon of `arrival + transition + 25·b1`.
fn retry_case() -> Case {
    let mut b = NetworkBuilder::new();
    let v = b.add_net("v", NetRole::Victim);
    let a = b.add_net("a", NetRole::Aggressor);
    let mut prev_v = b.add_node(v, "v0");
    let mut prev_a = b.add_node(a, "a0");
    b.add_driver(v, prev_v, 120.0).unwrap();
    b.add_driver(a, prev_a, 90.0).unwrap();
    for i in 1..=12 {
        let nv = b.add_node(v, format!("v{i}"));
        let na = b.add_node(a, format!("a{i}"));
        b.add_resistor(prev_v, nv, 15.0).unwrap();
        b.add_resistor(prev_a, na, 12.0).unwrap();
        b.add_ground_cap(nv, 2e-15).unwrap();
        b.add_ground_cap(na, 2e-15).unwrap();
        if i % 2 == 0 {
            b.add_coupling_cap(nv, na, 4e-15).unwrap();
        }
        prev_v = nv;
        prev_a = na;
    }
    b.add_sink(prev_v, 8e-15).unwrap();
    b.add_sink(prev_a, 6e-15).unwrap();
    let network = b.build().unwrap();
    let b1 = xtalk_moments::tree::open_circuit_b1(&network);
    Case {
        label: "ladder-slow-exp".into(),
        stimuli: vec![(a, InputSignal::rising_exp(0.0, 1000.0 * b1))],
        network,
    }
}

fn all_cases() -> Vec<Case> {
    let mut cases = pex_cases();
    cases.extend(sweep_cases());
    cases.push(lumped_case());
    cases.push(retry_case());
    cases
}

fn bits(p: &NoiseWaveformParams) -> String {
    [p.vp, p.tp, p.t0, p.t1, p.t2, p.wn, p.area]
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// The fixture lines of one case: three golden calls, two analytic
/// calls.
fn case_lines(case: &Case, ws: &mut SimWorkspace) -> Vec<String> {
    let node = case.network.victim_output();
    let mut lines = Vec::with_capacity(5);
    for (name, mode, tier) in [
        ("fixed", SimMode::Fixed, FastTier::Off),
        ("off", SimMode::Adaptive, FastTier::Off),
        ("auto", SimMode::Adaptive, FastTier::Auto),
    ] {
        let opts = GoldenOpts { mode, tier };
        let outcome = match golden_noise_tiered(&case.network, &case.stimuli, node, ws, &opts) {
            Ok((params, provenance)) => format!("{} {}", provenance.as_str(), bits(&params)),
            Err(e) => format!("error {e}"),
        };
        lines.push(format!("{} golden-{name} {outcome}", case.label));
    }
    for tier in [FastTier::On, FastTier::Auto] {
        let outcome = match analytic_noise(&case.network, &case.stimuli, node, tier) {
            Ok(params) => format!("analytic {}", bits(&params)),
            Err(reason) => format!("declined {}", reason.as_str()),
        };
        lines.push(format!(
            "{} analytic-{} {outcome}",
            case.label,
            tier.as_str()
        ));
    }
    lines
}

#[test]
fn golden_and_analytic_bits_match_the_fixture() {
    // Pin the backend heuristic so `XTALK_SOLVER` cannot move the bits.
    set_solver_override(SolverKind::Auto);
    let cases = all_cases();

    // The case mix reaches both backends and a horizon retry.
    let sparse = |c: &Case| TransientSim::new(&c.network).unwrap().uses_sparse_solver();
    assert!(cases
        .iter()
        .filter(|c| c.label.starts_with("pex-"))
        .all(sparse));
    assert!(cases.iter().any(|c| !sparse(c)), "no dense-backend case");
    let retry = cases.last().unwrap();
    let sim = TransientSim::new(&retry.network).unwrap();
    let opts = SimOptions::auto(&retry.network, &retry.stimuli);
    let first = sim
        .run_with(
            &retry.stimuli,
            &opts,
            SimMode::Adaptive,
            &mut SimWorkspace::new(),
        )
        .unwrap();
    assert!(
        matches!(
            measure_noise(first.probe(retry.network.victim_output()).unwrap(), 1.0),
            Err(SimError::Truncated)
        ),
        "the retry case fits its first horizon"
    );

    let mut ws = SimWorkspace::new();
    let lines: Vec<String> = cases.iter().flat_map(|c| case_lines(c, &mut ws)).collect();
    let expected: Vec<&str> = FIXTURE.lines().collect();
    if lines != expected {
        let actual =
            std::env::temp_dir().join(format!("golden_bits.actual.{}.txt", std::process::id()));
        std::fs::write(&actual, lines.join("\n") + "\n").expect("actual output written");
        eprintln!("full output in {}", actual.display());
    }
    assert_eq!(lines.len(), expected.len(), "fixture line count");
    for (got, want) in lines.iter().zip(&expected) {
        assert_eq!(got, want);
    }
    for needle in [" transient ", " analytic ", "declined multi_aggressor"] {
        assert!(FIXTURE.contains(needle), "fixture lacks {needle:?}");
    }
}
