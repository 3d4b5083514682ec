//! Property tests for the screening pipeline's structural promises:
//!
//! * exporting a randomized multi-island network with
//!   [`spice::write_deck`] and re-reading it through the *streaming*
//!   parser recovers the island structure exactly — the partitioner
//!   finds one cluster per constructed island with the right members;
//! * the screened Metric II numbers are bit-identical to the classic
//!   whole-deck [`spice::parse_deck`] path for the deck's victim, and to
//!   the per-victim path ([`CouplingClusters::victim_network`] plus a
//!   fresh [`RobustAnalyzer`]) for every net;
//! * folding element cards with `+` continuations mid-card, or
//!   prepending benign directives (under the lenient reader), changes
//!   nothing about the screened numbers.

#![allow(clippy::unwrap_used)] // test code; helpers sit outside #[test] fns

use proptest::prelude::*;
use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_circuit::spice::{self, parse_deck};
use xtalk_circuit::{NetRole, Network, NetworkBuilder, NodeId};
use xtalk_core::superpose::{worst_case, TimingWindow};
use xtalk_core::{FallbackPolicy, RobustAnalyzer, Rung};
use xtalk_eval::screen::{screen_deck, ScreenConfig};
use xtalk_exec::Jobs;

/// One coupling island: `lanes` parallel RC lines, neighbours coupled
/// at every segment. Island 0's lane 0 is the deck's victim.
#[derive(Debug, Clone)]
struct IslandSpec {
    lanes: usize,
    segs: usize,
    res: f64,
    cap: f64,
}

fn islands() -> impl Strategy<Value = Vec<IslandSpec>> {
    prop::collection::vec(
        (1usize..4, 1usize..4, 10.0..300.0f64, 1e-15..2e-14f64).prop_map(
            |(lanes, segs, res, cap)| IslandSpec {
                lanes,
                segs,
                res,
                cap,
            },
        ),
        1..4,
    )
}

/// Builds one network holding every island; nets are declared island by
/// island, so island `k`'s nets occupy one contiguous index range.
fn build(specs: &[IslandSpec]) -> Network {
    let mut b = NetworkBuilder::new();
    for (k, spec) in specs.iter().enumerate() {
        let mut prev_lane: Vec<NodeId> = Vec::new();
        for lane in 0..spec.lanes {
            let role = if k == 0 && lane == 0 {
                NetRole::Victim
            } else {
                NetRole::Aggressor
            };
            let net = b.add_net(format!("i{k}_l{lane}"), role);
            let mut nodes = vec![b.add_node(net, format!("i{k}_l{lane}_0"))];
            b.add_driver(net, nodes[0], spec.res * 3.0).unwrap();
            for s in 1..=spec.segs {
                let n = b.add_node(net, format!("i{k}_l{lane}_{s}"));
                b.add_resistor(nodes[s - 1], n, spec.res).unwrap();
                b.add_ground_cap(n, spec.cap).unwrap();
                if let Some(&other) = prev_lane.get(s) {
                    b.add_coupling_cap(n, other, spec.cap * 1.5).unwrap();
                }
                nodes.push(n);
            }
            b.add_sink(nodes[spec.segs], spec.cap * 2.0).unwrap();
            prev_lane = nodes;
        }
    }
    b.build().unwrap()
}

/// Folds every element card of `deck` mid-card: the last field moves to
/// a `+` continuation line.
fn fold_cards(deck: &str) -> String {
    let mut out = String::with_capacity(deck.len() + 128);
    for line in deck.lines() {
        if !line.starts_with('*')
            && !line.starts_with('.')
            && line.split_whitespace().count() >= 4
        {
            let pos = line.rfind(' ').unwrap();
            out.push_str(&line[..pos]);
            out.push_str("\n+ ");
            out.push_str(&line[pos + 1..]);
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// The whole-deck reference path: [`parse_deck`] + the robust analyzer
/// over every aggressor directly coupled to the victim, combined by
/// worst-case superposition. Mirrors what screening does per island.
fn full_eval_vp(deck: &str, config: &ScreenConfig) -> (f64, f64) {
    let network = parse_deck(deck).unwrap();
    let robust = RobustAnalyzer::with_policy(&network, FallbackPolicy::default()).unwrap();
    let input = config.input();
    let victim = network.victim();
    let mut contributions = Vec::new();
    for (agg, _) in network.nets() {
        if agg == victim || network.couplings_between(agg, victim).next().is_none() {
            continue;
        }
        match robust.analyze(agg, &input) {
            Ok(re) => contributions.push((re.estimate, TimingWindow::pinned())),
            Err(e) if e.is_no_noise() => {}
            Err(e) => panic!("full path failed: {e}"),
        }
    }
    if contributions.is_empty() {
        (0.0, 0.0)
    } else {
        let combined = worst_case(&contributions);
        (combined.vp, combined.at)
    }
}

/// Per-victim reference for deck net `net`: its island materialized with
/// it as the victim, a fresh [`RobustAnalyzer`], every directly coupled
/// aggressor through the chain, worst-case superposition. Returns
/// `(vp, at, rung, degraded, aggressors)` as the screen reports them.
fn per_victim(
    index: &DeckIndex,
    clusters: &CouplingClusters,
    net: usize,
    config: &ScreenConfig,
) -> (f64, f64, &'static str, bool, usize) {
    let network = clusters.victim_network(index, net).unwrap();
    let robust = RobustAnalyzer::with_policy(&network, FallbackPolicy::default()).unwrap();
    let input = config.input();
    let victim = network.victim();
    let (mut contributions, mut rung, mut degraded, mut aggressors) = (Vec::new(), None, false, 0);
    for (agg, _) in network.nets() {
        if agg == victim || network.couplings_between(agg, victim).next().is_none() {
            continue;
        }
        aggressors += 1;
        match robust.analyze(agg, &input) {
            Ok(re) => {
                rung = rung.max(Some(re.provenance.rung()));
                degraded |= re.provenance.degraded();
                contributions.push((re.estimate, TimingWindow::pinned()));
            }
            Err(e) if e.is_no_noise() => {}
            Err(e) => panic!("per-victim path failed on net {net}: {e}"),
        }
    }
    let (vp, at) = if contributions.is_empty() {
        (0.0, 0.0)
    } else {
        let combined = worst_case(&contributions);
        (combined.vp, combined.at)
    };
    (
        vp,
        at,
        rung.map_or("none", Rung::name),
        degraded,
        aggressors,
    )
}

fn screen_config() -> ScreenConfig {
    ScreenConfig {
        jobs: Jobs::Count(1),
        escalate: false,
        ..ScreenConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn streamed_clusters_match_construction(specs in islands()) {
        let deck = spice::write_deck(&build(&specs));
        let index = DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default()).unwrap();
        let clusters = CouplingClusters::partition(&index);

        prop_assert_eq!(clusters.len(), specs.len());
        let mut first = 0usize;
        for spec in &specs {
            let id = clusters.cluster_of(first).unwrap();
            let members: Vec<u32> = (first..first + spec.lanes).map(|i| i as u32).collect();
            prop_assert_eq!(clusters.members(id), members.as_slice());
            first += spec.lanes;
        }
    }

    #[test]
    fn screened_metrics_match_whole_deck_parse(specs in islands()) {
        let deck = spice::write_deck(&build(&specs));
        let config = screen_config();
        let report = screen_deck(deck.as_bytes(), &config).unwrap();
        prop_assert_eq!(report.failed, 0);

        // The deck's declared victim (net 0) is the one net the classic
        // single-victim path can evaluate; its numbers must agree bit
        // for bit with the streamed island analysis.
        let (vp, at) = full_eval_vp(&deck, &config);
        let screened = report.nets.iter().find(|n| n.index == 0).unwrap();
        prop_assert_eq!(screened.vp.to_bits(), vp.to_bits());
        prop_assert_eq!(screened.at.to_bits(), at.to_bits());

        // Every net: the island screen, which factors each island once,
        // matches a fresh per-victim analysis bit for bit.
        let index = DeckIndex::from_reader(deck.as_bytes(), StreamOptions::default()).unwrap();
        let clusters = CouplingClusters::partition(&index);
        prop_assert_eq!(report.nets.len(), index.net_count());
        for n in &report.nets {
            let (vp, at, rung, degraded, aggressors) = per_victim(&index, &clusters, n.index, &config);
            prop_assert_eq!(n.vp.to_bits(), vp.to_bits(), "net {}", n.index);
            prop_assert_eq!(n.at.to_bits(), at.to_bits(), "net {}", n.index);
            prop_assert_eq!(n.rung, rung, "net {}", n.index);
            prop_assert_eq!(n.degraded, degraded, "net {}", n.index);
            prop_assert_eq!(n.aggressors, aggressors, "net {}", n.index);
        }
    }

    #[test]
    fn folding_and_benign_directives_change_nothing(specs in islands()) {
        let deck = spice::write_deck(&build(&specs));
        let config = screen_config();
        let plain = screen_deck(deck.as_bytes(), &config).unwrap();

        // Mid-card continuation folds: identical nets, bit-identical
        // numbers, counted continuations.
        let folded_deck = fold_cards(&deck);
        let folded = screen_deck(folded_deck.as_bytes(), &config).unwrap();
        prop_assert!(folded.continuations > 0);
        prop_assert_eq!(plain.nets.len(), folded.nets.len());
        for (a, b) in plain.nets.iter().zip(folded.nets.iter()) {
            prop_assert_eq!(a.index, b.index);
            prop_assert_eq!(a.vp.to_bits(), b.vp.to_bits());
            prop_assert_eq!(a.at.to_bits(), b.at.to_bits());
            prop_assert_eq!(a.cluster, b.cluster);
        }

        // Benign front matter under the lenient reader: skipped with a
        // count, numbers untouched.
        let benign_deck = format!(".GLOBAL vdd vss\n.TEMP 25\n.OPTION post=1\n{deck}");
        let benign = screen_deck(benign_deck.as_bytes(), &config).unwrap();
        prop_assert_eq!(benign.skipped_directives, 3);
        for (a, b) in plain.nets.iter().zip(benign.nets.iter()) {
            prop_assert_eq!(a.vp.to_bits(), b.vp.to_bits());
        }
    }
}
