//! Property-based tests for the what-if session: any random sequence of
//! deltas and reverts yields reports bit-identical to a from-scratch
//! rebuild, and the query accounting always adds up.

#![allow(clippy::unwrap_used)] // test code; helpers sit outside #[test] fns

use proptest::prelude::*;
use xtalk_circuit::{Delta, Network};
use xtalk_incr::{WhatIf, WhatIfConfig};
use xtalk_tech::{ClusterSpec, Technology};

/// One step of a session script, with targets as fractions of the
/// respective element-table sizes so any script fits any cluster.
#[derive(Debug, Clone)]
enum Step {
    Driver { lane_frac: f64, ohms: f64 },
    Coupling { idx_frac: f64, farads: f64 },
    Resistor { idx_frac: f64, ohms: f64 },
    GroundCap { idx_frac: f64, farads: f64 },
    SinkCap { idx_frac: f64, farads: f64 },
    Revert,
}

fn step() -> impl Strategy<Value = Step> {
    prop_oneof![
        (0.0..1.0f64, 40.0..500.0f64).prop_map(|(lane_frac, ohms)| Step::Driver { lane_frac, ohms }),
        (0.0..1.0f64, 1e-15..3e-14f64)
            .prop_map(|(idx_frac, farads)| Step::Coupling { idx_frac, farads }),
        (0.0..1.0f64, 2.0..120.0f64).prop_map(|(idx_frac, ohms)| Step::Resistor { idx_frac, ohms }),
        (0.0..1.0f64, 5e-16..1e-14f64)
            .prop_map(|(idx_frac, farads)| Step::GroundCap { idx_frac, farads }),
        (0.0..1.0f64, 5e-15..4e-14f64)
            .prop_map(|(idx_frac, farads)| Step::SinkCap { idx_frac, farads }),
        Just(Step::Revert),
    ]
}

fn pick(frac: f64, len: usize) -> usize {
    ((frac * len as f64) as usize).min(len - 1)
}

fn as_delta(step: &Step, net: &Network) -> Option<Delta> {
    Some(match *step {
        Step::Driver { lane_frac, ohms } => {
            let nets: Vec<_> = net.nets().map(|(id, _)| id).collect();
            Delta::ResizeDriver { net: nets[pick(lane_frac, nets.len())], ohms }
        }
        Step::Coupling { idx_frac, farads } => Delta::SetCouplingCap {
            index: pick(idx_frac, net.coupling_caps().len()),
            farads,
        },
        Step::Resistor { idx_frac, ohms } => Delta::SetResistor {
            index: pick(idx_frac, net.resistors().len()),
            ohms,
        },
        Step::GroundCap { idx_frac, farads } => Delta::SetGroundCap {
            index: pick(idx_frac, net.ground_caps().len()),
            farads,
        },
        Step::SinkCap { idx_frac, farads } => {
            let sinks: Vec<_> = net
                .nets()
                .flat_map(|(_, n)| n.sinks().iter().map(|s| s.node))
                .collect();
            Delta::SetSinkCap {
                node: sinks[pick(idx_frac, sinks.len())],
                farads,
            }
        }
        Step::Revert => return None,
    })
}

fn small_cluster(lanes: usize) -> Network {
    let spec = ClusterSpec {
        lanes,
        length: 0.5e-3,
        driver: 150.0,
        driver_stagger: 20.0,
        load: 15e-15,
        segments_per_mm: 4,
    };
    spec.build(&Technology::p25()).unwrap().0
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole contract: after every step of an arbitrary
    /// delta/revert script, the session's report is byte-identical to a
    /// fresh session built from scratch on the current network state.
    #[test]
    fn session_matches_from_scratch_rebuild(
        lanes in 3usize..7,
        script in prop::collection::vec(step(), 1..12),
    ) {
        let base = small_cluster(lanes);
        let mut session = WhatIf::new(base, WhatIfConfig::default()).unwrap();
        prop_assert_eq!(
            session.report().to_json(),
            WhatIf::new(session.base().clone(), WhatIfConfig::default())
                .unwrap()
                .report()
                .to_json()
        );
        for s in &script {
            let report = match as_delta(s, session.base()) {
                Some(d) => session.apply(&d).unwrap(),
                None => match session.revert().unwrap() {
                    Some(r) => r,
                    None => continue, // empty undo stack: nothing to check
                },
            };
            let scratch = WhatIf::new(session.base().clone(), WhatIfConfig::default())
                .unwrap()
                .report();
            prop_assert_eq!(report.to_json(), scratch.to_json());
        }
    }

    /// Accounting invariants: `queries == hits + misses` for both the
    /// session and the metric memo, and reverting everything restores
    /// the initial report bytes.
    #[test]
    fn accounting_holds_and_full_revert_restores(
        lanes in 3usize..6,
        script in prop::collection::vec(step(), 1..10),
    ) {
        let base = small_cluster(lanes);
        let mut session = WhatIf::new(base, WhatIfConfig::default()).unwrap();
        let initial = session.report().to_json();
        for s in &script {
            match as_delta(s, session.base()) {
                Some(d) => { session.apply(&d).unwrap(); }
                None => { session.revert().unwrap(); }
            }
            let st = session.stats();
            prop_assert_eq!(st.queries, st.hits + st.misses);
            let m = session.memo_stats();
            prop_assert_eq!(m.queries(), m.hits + m.misses);
        }
        while session.undo_depth() > 0 {
            session.revert().unwrap();
        }
        prop_assert_eq!(session.report().to_json(), initial);
        let st = session.stats();
        prop_assert_eq!(st.queries, st.hits + st.misses);
        prop_assert!(st.hits > 0, "repeat queries must hit the cache");
    }
}
