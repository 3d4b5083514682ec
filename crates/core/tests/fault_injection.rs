//! Fault-injection harness for the degraded-mode pipeline.
//!
//! Every fault in the catalog drives corrupt data at a public entry point
//! — poisoned element values, truncated or non-physical moments, extreme
//! shape ratios, mangled SPICE decks, degenerate topologies — and the
//! contract under test is uniform:
//!
//! * nothing panics, ever;
//! * the raw metrics return a structured [`MetricError`] or an estimate
//!   (possibly garbage-in-garbage-out, e.g. NaN fields from NaN moments —
//!   they are deliberately thin);
//! * the [`RobustAnalyzer`] path is stricter: any accepted estimate has
//!   all-finite fields and `vp ∈ [0, 1]` under the default policy;
//! * a raw [`NoiseAnalyzer`], which skips validation, turns non-finite
//!   moments into a structured error rather than a NaN estimate.

use std::panic::{catch_unwind, AssertUnwindSafe};

use xtalk_circuit::signal::InputSignal;
use xtalk_circuit::spice::parse_deck;
use xtalk_core::{
    MetricError, MetricKind, MetricOne, MetricTwo, NoiseAnalyzer, OutputMoments, RobustAnalyzer,
};
use xtalk_linalg::LinalgError;
use xtalk_moments::MomentError;

/// Helpers for building deliberately corrupted inputs.
mod faults {
    use xtalk_circuit::{CircuitError, NetRole, Network, NetworkBuilder};

    /// A structurally complete two-pin coupled pair whose element values
    /// can be poisoned one at a time. Built through the permissive
    /// builder, so corrupt values reach the analysis layer instead of
    /// being rejected at insertion.
    pub struct TwoPin {
        pub victim_driver: f64,
        pub aggressor_driver: f64,
        pub wire_res: f64,
        pub ground_cap: f64,
        pub victim_sink: f64,
        pub aggressor_sink: f64,
        pub coupling: f64,
    }

    impl Default for TwoPin {
        fn default() -> Self {
            TwoPin {
                victim_driver: 300.0,
                aggressor_driver: 150.0,
                wire_res: 60.0,
                ground_cap: 8e-15,
                victim_sink: 12e-15,
                aggressor_sink: 10e-15,
                coupling: 25e-15,
            }
        }
    }

    impl TwoPin {
        /// Builds the (possibly corrupt) network. A build-time rejection
        /// is itself a valid structured outcome.
        pub fn build(&self) -> Result<Network, CircuitError> {
            let mut b = NetworkBuilder::permissive();
            let v = b.add_net("victim", NetRole::Victim);
            let a = b.add_net("agg0", NetRole::Aggressor);
            let v0 = b.add_node(v, "v0");
            let v1 = b.add_node(v, "v1");
            let a0 = b.add_node(a, "a0");
            b.add_driver(v, v0, self.victim_driver)?;
            b.add_driver(a, a0, self.aggressor_driver)?;
            b.add_resistor(v0, v1, self.wire_res)?;
            b.add_ground_cap(v0, self.ground_cap)?;
            b.add_ground_cap(v1, self.ground_cap)?;
            b.add_sink(v1, self.victim_sink)?;
            b.add_sink(a0, self.aggressor_sink)?;
            b.add_coupling_cap(a0, v1, self.coupling)?;
            b.build()
        }
    }

    /// Victim collapsed to a single node: driver and sink share it, no
    /// wire at all. The moment machinery sees a zero-length tree.
    pub fn single_node_victim() -> Result<Network, CircuitError> {
        let mut b = NetworkBuilder::permissive();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0)?;
        b.add_driver(a, a0, 150.0)?;
        b.add_sink(v0, 12e-15)?;
        b.add_sink(a0, 10e-15)?;
        b.add_coupling_cap(a0, v0, 25e-15)?;
        b.build()
    }

    /// A victim no aggressor couples into at all.
    pub fn uncoupled_victim() -> Result<Network, CircuitError> {
        let mut b = NetworkBuilder::permissive();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 300.0)?;
        b.add_driver(a, a0, 150.0)?;
        b.add_ground_cap(v0, 8e-15)?;
        b.add_sink(v0, 12e-15)?;
        b.add_sink(a0, 10e-15)?;
        b.build()
    }
}

use faults::TwoPin;

/// Drives the robust pipeline over a (possibly corrupt) network and
/// enforces its accepted-estimate guarantees. Structured rejections at any
/// stage are fine; panics and non-finite accepted estimates are not.
fn probe_network(
    built: Result<xtalk_circuit::Network, xtalk_circuit::CircuitError>,
    input: &InputSignal,
) {
    let Ok(network) = built else {
        return; // rejected at build time: structured
    };
    let robust = match RobustAnalyzer::new(&network) {
        Ok(r) => r,
        Err(e) => {
            let _ = e.to_string(); // structured rejection; Display must not panic
            return;
        }
    };
    for (agg, _) in network.aggressor_nets() {
        match robust.analyze(agg, input) {
            Ok(re) => {
                let est = &re.estimate;
                for (name, v) in [
                    ("vp", est.vp),
                    ("t0", est.t0),
                    ("t1", est.t1),
                    ("t2", est.t2),
                    ("tp", est.tp),
                    ("wn", est.wn),
                ] {
                    assert!(v.is_finite(), "accepted estimate has non-finite {name}");
                }
                assert!(
                    (0.0..=1.0).contains(&est.vp),
                    "accepted vp {} out of range",
                    est.vp
                );
                let _ = re.provenance.to_string();
            }
            Err(e) => {
                let _ = e.to_string();
            }
        }
    }
}

/// Exercises the raw metric layer with arbitrary moment triples. The only
/// guarantee down here is "no panic": `from_raw` may reject, the metrics
/// may error, and garbage moments may produce garbage estimates.
fn probe_moments(f1: f64, f2: f64, f3: f64) {
    for polarity in [1.0, -1.0] {
        let Ok(f) = OutputMoments::from_raw(f1, f2, f3, polarity) else {
            continue;
        };
        let _ = MetricOne::estimate(&f, 1.0);
        let _ = MetricOne::estimate_symmetric(&f);
        let _ = MetricOne::estimate_auto(&f, 1e-10);
        let _ = MetricOne::bounds(&f);
        let _ = MetricTwo::default().estimate(&f, 1.0);
        let _ = MetricTwo::default().estimate_auto(&f, 1e-10);
    }
}

/// Exercises both metrics with an extreme or invalid shape ratio over
/// healthy moments.
fn probe_shape_ratio(m: f64) {
    let f = OutputMoments::from_raw(1e-11, -5e-22, 2e-32, 1.0).expect("healthy moments");
    let _ = MetricOne::estimate(&f, m);
    let _ = MetricTwo::default().estimate(&f, m);
}

/// Parses a corrupt deck; if it somehow parses, pushes it through the
/// robust pipeline too.
fn probe_deck(deck: &str) {
    match parse_deck(deck) {
        Ok(network) => probe_network(Ok(network), &InputSignal::rising_ramp(0.0, 1e-10)),
        Err(e) => {
            let _ = e.to_string();
        }
    }
}

/// A deck in the exporter subset that parses cleanly, used as the template
/// for the corrupted-deck faults.
const GOOD_DECK: &str = "\
* two-pin pair
*! net 0 victim victim
*! net 1 aggressor agg0
*! output n1
VDRV0 src0 0 DC 0
RDRV0 src0 n0 300
VDRV1 src1 0 DC 0
RDRV1 src1 n2 150
R0 n0 n1 60
C0 n0 0 2e-15
C1 n1 0 8e-15
CL0 n1 0 12e-15
CL1 n2 0 10e-15
CC0 n2 n1 25e-15
.end
";

/// One named, self-asserting fault closure.
type Fault = (&'static str, Box<dyn Fn()>);

/// A named poisoning of one [`TwoPin`] element value.
type ValueFault = (&'static str, fn(&mut TwoPin));

/// The full fault catalog.
fn catalog() -> Vec<Fault> {
    let ramp = InputSignal::rising_ramp(0.0, 1e-10);
    let mut faults: Vec<Fault> = Vec::new();

    // --- poisoned network element values -----------------------------
    let value_faults: [ValueFault; 19] = [
        ("zeroed victim driver", |t| t.victim_driver = 0.0),
        ("negated victim driver", |t| t.victim_driver = -300.0),
        ("NaN victim driver", |t| t.victim_driver = f64::NAN),
        ("infinite victim driver", |t| t.victim_driver = f64::INFINITY),
        ("zeroed aggressor driver", |t| t.aggressor_driver = 0.0),
        ("NaN aggressor driver", |t| t.aggressor_driver = f64::NAN),
        ("zeroed wire resistance", |t| t.wire_res = 0.0),
        ("negated wire resistance", |t| t.wire_res = -60.0),
        ("NaN wire resistance", |t| t.wire_res = f64::NAN),
        ("infinite wire resistance", |t| t.wire_res = f64::INFINITY),
        ("zeroed ground caps", |t| t.ground_cap = 0.0),
        ("negated ground caps", |t| t.ground_cap = -8e-15),
        ("NaN ground caps", |t| t.ground_cap = f64::NAN),
        ("negated victim sink", |t| t.victim_sink = -12e-15),
        ("NaN victim sink", |t| t.victim_sink = f64::NAN),
        ("NaN aggressor sink", |t| t.aggressor_sink = f64::NAN),
        ("negated coupling cap", |t| t.coupling = -25e-15),
        ("NaN coupling cap", |t| t.coupling = f64::NAN),
        ("infinite coupling cap", |t| t.coupling = f64::INFINITY),
    ];
    for (name, poison) in value_faults {
        let input = ramp;
        faults.push((
            name,
            Box::new(move || {
                let mut pair = TwoPin::default();
                poison(&mut pair);
                probe_network(pair.build(), &input);
            }),
        ));
    }

    // --- degenerate topologies ---------------------------------------
    faults.push((
        "single-node victim",
        Box::new(move || probe_network(faults::single_node_victim(), &ramp)),
    ));
    faults.push((
        "uncoupled victim",
        Box::new(move || probe_network(faults::uncoupled_victim(), &ramp)),
    ));

    // --- corrupt / truncated output moments --------------------------
    let moment_faults: [(&'static str, [f64; 3]); 9] = [
        ("all-zero moments", [0.0, 0.0, 0.0]),
        ("NaN f1", [f64::NAN, -1e-21, 1e-33]),
        ("negated f1", [-1e-11, -1e-21, 1e-33]),
        ("NaN f2", [1e-11, f64::NAN, 1e-33]),
        ("infinite f2", [1e-11, f64::INFINITY, 1e-33]),
        ("truncated f3 (zeroed)", [1e-11, -1e-21, 0.0]),
        ("NaN f3", [1e-11, -1e-21, f64::NAN]),
        ("non-physical triple (T_W^2 < 0)", [1e-11, -1e-21, 1e-33]),
        ("denormal-scale moments", [1e-300, -1e-310, 1e-320]),
    ];
    for (name, [f1, f2, f3]) in moment_faults {
        faults.push((name, Box::new(move || probe_moments(f1, f2, f3))));
    }

    // --- extreme / invalid shape ratios ------------------------------
    let m_faults: [(&'static str, f64); 6] = [
        ("zero shape ratio", 0.0),
        ("negative shape ratio", -1.0),
        ("NaN shape ratio", f64::NAN),
        ("infinite shape ratio", f64::INFINITY),
        ("denormal shape ratio", 1e-300),
        ("huge shape ratio", 1e300),
    ];
    for (name, m) in m_faults {
        faults.push((name, Box::new(move || probe_shape_ratio(m))));
    }

    // --- corrupted SPICE decks ---------------------------------------
    let deck_faults: [(&'static str, String); 8] = [
        ("empty deck", String::new()),
        ("garbage deck", "not a deck at all\n\u{0}\u{1}\n".to_string()),
        ("deck with NaN value", GOOD_DECK.replace("60", "NaN")),
        (
            "deck with negated cap",
            GOOD_DECK.replace("25e-15", "-25e-15"),
        ),
        (
            "deck with truncated card",
            GOOD_DECK.replace("R0 n0 n1 60", "R0 n0"),
        ),
        (
            "deck with duplicate card",
            GOOD_DECK.replace("R0 n0 n1 60", "R0 n0 n1 60\nR0 n0 n1 60"),
        ),
        (
            "deck missing output directive",
            GOOD_DECK.replace("*! output n1\n", ""),
        ),
        (
            "deck referencing an undefined node",
            GOOD_DECK.replace("CC0 n2 n1 25e-15", "CC0 n2 n99 25e-15"),
        ),
    ];
    for (name, deck) in deck_faults {
        faults.push((name, Box::new(move || probe_deck(&deck))));
    }

    // --- extreme but valid input signals -----------------------------
    faults.push((
        "attosecond input transition",
        Box::new(|| probe_network(TwoPin::default().build(), &InputSignal::rising_ramp(0.0, 1e-30))),
    ));
    faults.push((
        "glacial input transition",
        Box::new(|| probe_network(TwoPin::default().build(), &InputSignal::rising_ramp(0.0, 1e30))),
    ));
    faults.push((
        "deeply negative arrival",
        Box::new(|| probe_network(TwoPin::default().build(), &InputSignal::rising_ramp(-1.0, 1e-10))),
    ));
    faults.push((
        "ideal step input",
        Box::new(|| probe_network(TwoPin::default().build(), &InputSignal::step(0.0))),
    ));
    faults.push((
        "falling exponential input",
        Box::new(|| probe_network(TwoPin::default().build(), &InputSignal::falling_exp(0.0, 1e-10))),
    ));

    faults
}

#[test]
fn no_fault_in_the_catalog_panics() {
    let faults = catalog();
    assert!(
        faults.len() >= 30,
        "catalog shrank to {} faults; keep it at 30+",
        faults.len()
    );
    let mut panicked = Vec::new();
    for (name, fault) in faults {
        if catch_unwind(AssertUnwindSafe(fault)).is_err() {
            panicked.push(name);
        }
    }
    assert!(panicked.is_empty(), "faults panicked: {panicked:?}");
}

#[test]
fn compound_faults_do_not_panic_either() {
    // Pairwise combinations of element poisonings: corruption rarely
    // arrives one field at a time.
    let ramp = InputSignal::rising_ramp(0.0, 1e-10);
    let poisons: [fn(&mut TwoPin); 5] = [
        |t| t.victim_driver = f64::NAN,
        |t| t.wire_res = -60.0,
        |t| t.ground_cap = 0.0,
        |t| t.coupling = f64::INFINITY,
        |t| t.victim_sink = f64::NAN,
    ];
    for (i, a) in poisons.iter().enumerate() {
        for b in &poisons[i + 1..] {
            let result = catch_unwind(AssertUnwindSafe(|| {
                let mut pair = TwoPin::default();
                a(&mut pair);
                b(&mut pair);
                probe_network(pair.build(), &ramp);
            }));
            assert!(result.is_ok(), "compound fault panicked");
        }
    }
}

#[test]
fn healthy_reference_case_stays_healthy() {
    // The harness itself must not be degenerate: the unpoisoned pair
    // analyzes at full fidelity.
    let network = TwoPin::default().build().expect("healthy pair builds");
    let robust = RobustAnalyzer::new(&network).expect("healthy pair validates");
    let input = InputSignal::rising_ramp(0.0, 1e-10);
    let (agg, _) = network.aggressor_nets().next().expect("one aggressor");
    let re = robust.analyze(agg, &input).expect("healthy pair analyzes");
    assert!(!re.provenance.degraded(), "{}", re.provenance);
    assert!(re.estimate.vp > 0.0 && re.estimate.vp < 1.0);
}

#[test]
fn raw_analyzer_rejects_non_finite_moments() {
    // The tree engine factors nothing, so a corrupt value that slips past
    // a build without value checks shows up only in the moments: the
    // engine must report it instead of handing NaNs to the metrics.
    let ramp = InputSignal::rising_ramp(0.0, 1e-10);
    let poisons: [ValueFault; 2] = [
        ("NaN wire resistance", |t| t.wire_res = f64::NAN),
        ("zero-ohm aggressor driver", |t| t.aggressor_driver = 0.0),
    ];
    for (name, poison) in poisons {
        let mut pair = TwoPin::default();
        poison(&mut pair);
        let network = pair
            .build()
            .expect("the permissive builder takes any value");
        let analyzer = NoiseAnalyzer::new(&network).expect("the engine builds");
        let (agg, _) = network.aggressor_nets().next().expect("one aggressor");
        for kind in [MetricKind::One, MetricKind::OneSymmetric, MetricKind::Two] {
            match analyzer.analyze(agg, &ramp, kind) {
                Err(MetricError::Moments(MomentError::Numerical(LinalgError::NonFinite {
                    ..
                }))) => {}
                other => {
                    panic!("{name}, {kind:?}: expected a non-finite moment error, got {other:?}")
                }
            }
        }
    }
}
