//! Full-chip screen-then-escalate pipeline.
//!
//! This is the paper's methodology applied at chip scale: the
//! closed-form metrics are cheap enough to screen *every* net of a flat
//! extracted deck, so only the small fraction that actually threatens a
//! noise failure ever pays for transient simulation. The pipeline:
//!
//! 1. **Stream** the deck through
//!    [`DeckIndex::from_reader`](xtalk_circuit::spice::stream::DeckIndex)
//!    — bounded memory, `+` continuation support, optional lenient
//!    skipping of benign directives.
//! 2. **Partition** nets into coupling islands with
//!    [`CouplingClusters`].
//! 3. **Screen** islands, not nets: each island is materialized once,
//!    validated structurally once and its `O(n)` tree moment engine
//!    built once ([`SharedMoments`]); then every member takes a turn as
//!    the victim — its own validation findings, Metric II through the
//!    fallback chain ([`RobustAnalyzer`]) per directly coupled
//!    aggressor, per-aggressor estimates combined by worst-case
//!    superposition. Outputs are bit-identical to analyzing each net
//!    with a fresh engine. Nets are ranked by `peak noise / threshold`.
//! 4. **Escalate** only nets whose ratio reaches
//!    [`ScreenConfig::escalate_ratio`] to the tiered golden simulator for
//!    a reference peak. A worker takes [`LANES`] islands at a time and
//!    escalates their flagged nets in island order, [`LANES`] at a time,
//!    through [`golden_noise_batch`]: runs whose stamped patterns agree
//!    share one symbolic analysis and march as the lanes of one batch,
//!    each bit-identical to its own
//!    [`golden_noise_tiered`](xtalk_sim::golden_noise_tiered) call.
//!
//! Work is parallel over groups of islands via [`xtalk_exec`], and the
//! report — including its JSON rendering — is byte-identical at any
//! `--jobs` value. A whole-deck [`Network`] is never built: peak memory
//! follows the element table and a few islands per worker (one
//! materialized at a time, plus a copy of each queued flagged net's
//! designated island, at most [`LANES`]), not the chip.
//!
//! # Examples
//!
//! ```
//! use xtalk_eval::screen::{screen_deck, ScreenConfig};
//! use xtalk_tech::{PexDeckSpec, Technology};
//!
//! let deck = PexDeckSpec::new(2, 5, 3).deck_string(&Technology::p25());
//! let report = screen_deck(deck.as_bytes(), &ScreenConfig::default()).unwrap();
//! assert_eq!(report.nets_total, 10);
//! assert_eq!(report.clusters, 2);
//! assert_eq!(report.screened + report.escalated, 10);
//! ```

use std::error::Error;
use std::fmt;
use std::fmt::Write as _;
use std::io::BufRead;

use xtalk_circuit::cluster::CouplingClusters;
use xtalk_circuit::signal::{InputSignal, Shape};
use xtalk_circuit::spice::stream::{DeckIndex, StreamOptions};
use xtalk_circuit::spice::{DeckLimits, SpiceParseError};
use xtalk_circuit::{NetId, Network, ValidationReport};
use xtalk_core::victim::coupled_nets;
use xtalk_core::{FallbackPolicy, RobustAnalyzer, SharedMoments};
use xtalk_exec::{par_map_groups_with, Jobs};
use xtalk_obs::json;
use xtalk_sim::{
    golden_noise_batch, GoldenOpts, GoldenRun, GoldenTier, NoiseWaveformParams, SimError,
    SimWorkspace, LANES,
};

/// Screening parameters. [`Default`] gives a 100 ps ramp, a noise
/// threshold of 0.1 × Vdd, escalation at 80% of threshold, automatic
/// parallelism and the stock deck limits with the net bound lifted to
/// what the element bound allows.
#[derive(Debug, Clone)]
pub struct ScreenConfig {
    /// Aggressor transition time (s); ignored for [`Shape::Step`].
    pub slew: f64,
    /// Aggressor switching time (s).
    pub arrival: f64,
    /// Aggressor waveform shape.
    pub shape: Shape,
    /// Failure threshold as a fraction of Vdd.
    pub threshold: f64,
    /// Escalate nets whose `vp/threshold` reaches this ratio.
    pub escalate_ratio: f64,
    /// Worker-count policy.
    pub jobs: Jobs,
    /// Strict mode: hard-error on benign directives and forbid any
    /// fallback below Metric II.
    pub strict: bool,
    /// Run the golden simulator on flagged nets (disable for
    /// screening-only runs and agreement checks).
    pub escalate: bool,
    /// Deck size bounds.
    pub limits: DeckLimits,
}

impl Default for ScreenConfig {
    fn default() -> Self {
        ScreenConfig {
            slew: 100e-12,
            arrival: 0.0,
            shape: Shape::Ramp,
            threshold: 0.1,
            escalate_ratio: 0.8,
            jobs: Jobs::Auto,
            strict: false,
            escalate: true,
            // Screening never builds a whole-deck network and runs in
            // time linear in the deck, so the net count needs no bound of
            // its own: every net takes at least a driver and a sink card,
            // and the element bound caps memory first.
            limits: DeckLimits {
                max_nets: DeckLimits::default().max_elements / 2,
                ..DeckLimits::default()
            },
        }
    }
}

impl ScreenConfig {
    /// The aggressor stimulus this configuration screens with (rising;
    /// victims are assumed quiet at low, the paper's worst case for
    /// positive noise).
    #[must_use]
    pub fn input(&self) -> InputSignal {
        self.shape.input(self.arrival, self.slew)
    }
}

/// Screening failures.
#[derive(Debug)]
pub enum ScreenError {
    /// The deck failed to stream or index.
    Parse(SpiceParseError),
    /// Strict mode: a net's analysis failed.
    Strict {
        /// Net index in declaration order.
        net: usize,
        /// The underlying failure.
        detail: String,
    },
    /// The parallel executor failed (worker panic).
    Worker(String),
}

impl fmt::Display for ScreenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScreenError::Parse(e) => write!(f, "deck parse failed: {e}"),
            ScreenError::Strict { net, detail } => {
                write!(f, "strict screening failed on net {net}: {detail}")
            }
            ScreenError::Worker(detail) => write!(f, "screening worker failed: {detail}"),
        }
    }
}

impl Error for ScreenError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ScreenError::Parse(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SpiceParseError> for ScreenError {
    fn from(e: SpiceParseError) -> Self {
        ScreenError::Parse(e)
    }
}

/// Per-net screening result.
#[derive(Debug, Clone)]
pub struct NetScreen {
    /// Net name from the deck.
    pub net: String,
    /// Net index in declaration order.
    pub index: usize,
    /// Coupling-island id the net belongs to.
    pub cluster: usize,
    /// Number of nets in that island.
    pub cluster_nets: usize,
    /// Directly coupled aggressors analyzed.
    pub aggressors: usize,
    /// Worst-case combined peak noise (× Vdd).
    pub vp: f64,
    /// Observation time of the combined peak (s).
    pub at: f64,
    /// `vp / threshold` — the ranking key.
    pub ratio: f64,
    /// Worst fallback rung used across this net's aggressors (`"none"`
    /// for uncoupled nets).
    pub rung: &'static str,
    /// True when any aggressor degraded below Metric II or failed.
    pub degraded: bool,
    /// True when the net was escalated to the golden simulator.
    pub escalated: bool,
    /// Golden peak noise when escalated and simulation succeeded.
    pub golden_vp: Option<f64>,
    /// Which golden tier produced `golden_vp`.
    pub golden_tier: Option<&'static str>,
    /// Analysis failure, when the net could not be screened at all.
    pub error: Option<String>,
}

/// A finished screening run over one deck.
#[derive(Debug, Clone)]
pub struct ScreenReport {
    /// Nets declared in the deck.
    pub nets_total: usize,
    /// Coupling islands found.
    pub clusters: usize,
    /// Nets below the escalation ratio (screened out — no simulation).
    pub screened: usize,
    /// Nets escalated (or flagged for escalation when the golden stage
    /// is disabled).
    pub escalated: usize,
    /// Nets whose analysis failed outright.
    pub failed: usize,
    /// Benign directives skipped by the lenient parser.
    pub skipped_directives: usize,
    /// `+` continuation lines joined.
    pub continuations: usize,
    /// Element cards in the deck.
    pub elements: usize,
    /// Physical lines read.
    pub lines: usize,
    /// The failure threshold screened against (× Vdd).
    pub threshold: f64,
    /// The escalation ratio used.
    pub escalate_ratio: f64,
    /// True when any net degraded or failed.
    pub degraded: bool,
    /// Per-net results, ranked worst-first (ratio descending, then net
    /// index ascending).
    pub nets: Vec<NetScreen>,
}

/// Screens every net of the deck read from `reader`.
///
/// See the [module docs](self) for the pipeline. The returned report is
/// deterministic: byte-identical JSON at any [`ScreenConfig::jobs`]
/// value.
///
/// # Errors
///
/// [`ScreenError::Parse`] when the deck fails to stream,
/// [`ScreenError::Strict`] in strict mode when any net's analysis
/// degrades or fails, [`ScreenError::Worker`] when a worker panics.
pub fn screen_deck<R: BufRead>(
    reader: R,
    config: &ScreenConfig,
) -> Result<ScreenReport, ScreenError> {
    let index = {
        let _span = xtalk_obs::span!("screen.parse");
        DeckIndex::from_reader(
            reader,
            StreamOptions {
                limits: config.limits.clone(),
                lenient: !config.strict,
            },
        )?
    };
    let stats = index.stats();
    xtalk_obs::counter!("screen.deck.skipped_directives").add(stats.skipped_directives as u64);
    xtalk_obs::counter!("screen.deck.continuations").add(stats.continuations as u64);
    for (line, name) in index.skipped_samples() {
        xtalk_obs::warn!("screen: skipped benign directive {name} on line {line}");
    }
    if stats.skipped_directives > index.skipped_samples().len() {
        xtalk_obs::warn!(
            "screen: {} more benign directives skipped",
            stats.skipped_directives - index.skipped_samples().len()
        );
    }
    let unassigned = index.unassigned_nodes();
    if unassigned > 0 {
        xtalk_obs::warn!(
            "screen: {unassigned} node(s) unreachable from any driver; their elements are ignored"
        );
    }

    let clusters = {
        let _span = xtalk_obs::span!("screen.partition");
        CouplingClusters::partition(&index)
    };
    xtalk_obs::counter!("screen.clusters").add(clusters.len() as u64);

    let islands: Vec<usize> = (0..clusters.len()).collect();
    let outcomes = {
        let _span = xtalk_obs::span!("screen.analyze");
        par_map_groups_with(
            &islands,
            LANES,
            config.jobs,
            SimWorkspace::new,
            |ws, _, group| screen_islands(&index, &clusters, config, ws, group),
        )
        .map_err(|e| ScreenError::Worker(e.to_string()))?
    };
    if config.strict {
        // Islands interleave net indices: report the first failing net
        // in index order.
        let failing = outcomes
            .iter()
            .flatten()
            .filter(|s| s.error.is_some() || s.degraded)
            .min_by_key(|s| s.index);
        if let Some(s) = failing {
            return Err(ScreenError::Strict {
                net: s.index,
                detail: s
                    .error
                    .clone()
                    .unwrap_or_else(|| format!("degraded to {}", s.rung)),
            });
        }
    }

    let mut report = ScreenReport {
        nets_total: index.net_count(),
        clusters: clusters.len(),
        screened: 0,
        escalated: 0,
        failed: 0,
        skipped_directives: stats.skipped_directives,
        continuations: stats.continuations,
        elements: stats.elements,
        lines: stats.lines,
        threshold: config.threshold,
        escalate_ratio: config.escalate_ratio,
        degraded: false,
        nets: Vec::with_capacity(index.net_count()),
    };
    for s in outcomes.into_iter().flatten() {
        if s.error.is_some() {
            report.failed += 1;
        } else if s.escalated {
            report.escalated += 1;
        } else {
            report.screened += 1;
        }
        report.degraded |= s.degraded || s.error.is_some();
        report.nets.push(s);
    }
    xtalk_obs::counter!("screen.nets.total").add(report.nets_total as u64);
    xtalk_obs::counter!("screen.nets.screened").add(report.screened as u64);
    xtalk_obs::counter!("screen.nets.escalated").add(report.escalated as u64);
    xtalk_obs::counter!("screen.nets.failed").add(report.failed as u64);

    // Rank worst-first; ties (uncoupled nets all at 0) by net index so
    // the order — and the JSON bytes — never depend on scheduling.
    report.nets.sort_by(|a, b| {
        b.ratio
            .partial_cmp(&a.ratio)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.index.cmp(&b.index))
    });
    Ok(report)
}

/// A flagged net waiting for its golden batch: a copy of its designated
/// island, its stimuli, and where its result goes.
struct Escalation {
    /// Position of its island in the group, and of the net among the
    /// island's members.
    at: (usize, usize),
    network: Network,
    stimuli: Vec<(NetId, InputSignal)>,
}

/// A golden result and where it goes.
type Golden = (
    (usize, usize),
    Result<(NoiseWaveformParams, GoldenTier), SimError>,
);

/// Screens a group of islands, escalating their flagged nets in island
/// order through [`golden_noise_batch`], [`LANES`] at a time. Returns
/// each island's screens, in group order.
fn screen_islands(
    index: &DeckIndex,
    clusters: &CouplingClusters,
    config: &ScreenConfig,
    ws: &mut SimWorkspace,
    group: &[usize],
) -> Vec<Vec<NetScreen>> {
    let mut queue = Vec::with_capacity(LANES);
    let mut goldens = Vec::new();
    let mut screens: Vec<Vec<NetScreen>> = Vec::with_capacity(group.len());
    for (slot, &cluster) in group.iter().enumerate() {
        let island = screen_island(
            index,
            clusters,
            config,
            (cluster, slot),
            ws,
            &mut queue,
            &mut goldens,
        );
        screens.push(island);
    }
    escalate(&mut queue, &mut goldens, ws);
    for ((island, member), golden) in goldens {
        let screen = &mut screens[island][member];
        match golden {
            Ok((params, tier)) => {
                screen.golden_vp = Some(params.vp);
                screen.golden_tier = Some(tier.as_str());
            }
            Err(err) => {
                // The closed-form screen already flagged the net; a
                // golden failure degrades the report but keeps the flag.
                screen.degraded = true;
                screen.golden_tier = Some("failed");
                xtalk_obs::warn!(
                    "screen: golden escalation failed on net {}: {err}",
                    screen.index
                );
            }
        }
    }
    screens
}

/// Runs the queued escalations as one golden batch, which marches runs
/// of one stamped pattern together, and empties the queue.
fn escalate(queue: &mut Vec<Escalation>, goldens: &mut Vec<Golden>, ws: &mut SimWorkspace) {
    if queue.is_empty() {
        return;
    }
    let _span = xtalk_obs::span!("screen.escalate");
    let runs: Vec<GoldenRun<'_>> = queue
        .iter()
        .map(|e| GoldenRun {
            network: &e.network,
            stimuli: &e.stimuli,
            node: e.network.victim_output(),
        })
        .collect();
    let results = golden_noise_batch(&runs, ws, &GoldenOpts::from_globals());
    goldens.extend(queue.iter().map(|e| e.at).zip(results));
    queue.clear();
}

/// Screens every member of island `cluster` as its victim in turn (the
/// island sits at `slot` of its group), queueing the nets to escalate and
/// escalating whenever [`LANES`] are queued.
///
/// One materialization, one structural validation and one tree moment
/// engine serve the whole island, and each source net's moment
/// vectors are solved once ([`SharedMoments`]). Per victim remain only
/// the designation, its victim findings, the rung chain per directly
/// coupled aggressor and superposition. Never panics on analysis
/// failures — they land in `NetScreen::error`.
fn screen_island(
    index: &DeckIndex,
    clusters: &CouplingClusters,
    config: &ScreenConfig,
    (cluster, slot): (usize, usize),
    ws: &mut SimWorkspace,
    queue: &mut Vec<Escalation>,
    goldens: &mut Vec<Golden>,
) -> Vec<NetScreen> {
    let members = clusters.members(cluster);
    // The results outlive the island's working data: allocate them first.
    let mut screens: Vec<NetScreen> = members
        .iter()
        .map(|&net| NetScreen {
            net: index.net_name(net as usize).to_string(),
            index: net as usize,
            cluster,
            cluster_nets: members.len(),
            aggressors: 0,
            vp: 0.0,
            at: 0.0,
            ratio: 0.0,
            rung: "none",
            degraded: false,
            escalated: false,
            golden_vp: None,
            golden_tier: None,
            error: None,
        })
        .collect();
    // Island-level failures do not depend on the victim designation.
    let mut island = match clusters.island(index, cluster) {
        Ok(island) => island,
        Err(e) => {
            for screen in &mut screens {
                screen.error = Some(e.to_string());
            }
            return screens;
        }
    };
    let structure = island.network().validate_structure();
    let coupled = coupled_nets(island.network());
    let moments = SharedMoments::new(island.network());
    for (member, screen) in screens.iter_mut().enumerate() {
        match island.designate(screen.index) {
            Ok(network) => {
                if let Some(stimuli) =
                    screen_victim(network, &structure, &moments, &coupled, config, screen)
                {
                    queue.push(Escalation {
                        at: (slot, member),
                        network: network.clone(),
                        stimuli,
                    });
                    if queue.len() == LANES {
                        escalate(queue, goldens, ws);
                    }
                }
            }
            Err(e) => screen.error = Some(e.to_string()),
        }
    }
    screens
}

/// Screens the designated victim of `network` into `screen`: the shared
/// victim pipeline over the directly coupled aggressors. Returns the
/// golden stimuli when the net is to be escalated.
fn screen_victim(
    network: &Network,
    structure: &ValidationReport,
    moments: &SharedMoments,
    coupled: &[Vec<NetId>],
    config: &ScreenConfig,
    screen: &mut NetScreen,
) -> Option<Vec<(NetId, InputSignal)>> {
    let policy = FallbackPolicy::for_strict(config.strict);
    let validation = network.validate_victim(structure);
    let robust = match RobustAnalyzer::with_source(network, policy, validation, || Ok(moments)) {
        Ok(r) => r,
        Err(e) => {
            screen.error = Some(e.to_string());
            return None;
        }
    };

    let aggressors = &coupled[network.victim().index()];
    let input = config.input();
    let victim = robust.analyze_victim(aggressors, &input);
    screen.aggressors = aggressors.len();
    screen.degraded = victim.degraded();
    if let Some(failure) = victim.first_failure() {
        screen.error = Some(failure.to_string());
        return None;
    }
    if let Some(rung) = victim.worst_rung() {
        screen.rung = rung.name();
    }
    let combined = victim.combined()?;
    screen.vp = combined.vp;
    screen.at = combined.at;
    screen.ratio = if config.threshold > 0.0 {
        combined.vp / config.threshold
    } else {
        f64::INFINITY
    };
    screen.escalated = screen.ratio >= config.escalate_ratio;
    (screen.escalated && config.escalate)
        .then(|| aggressors.iter().map(|&agg| (agg, input)).collect())
}

impl ScreenReport {
    /// True when every net screened or escalated cleanly.
    #[must_use]
    pub fn clean(&self) -> bool {
        !self.degraded && self.failed == 0
    }

    /// Deterministic JSON rendering — byte-identical at any worker
    /// count.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + self.nets.len() * 160);
        let _ = write!(
            out,
            "{{\n  \"nets_total\": {},\n  \"clusters\": {},\n  \"screened\": {},\n  \
             \"escalated\": {},\n  \"failed\": {},\n  \"skipped_directives\": {},\n  \
             \"continuations\": {},\n  \"elements\": {},\n  \"lines\": {},\n  \"threshold\": ",
            self.nets_total,
            self.clusters,
            self.screened,
            self.escalated,
            self.failed,
            self.skipped_directives,
            self.continuations,
            self.elements,
            self.lines
        );
        json::write_report_number(&mut out, self.threshold);
        out.push_str(",\n  \"escalate_ratio\": ");
        json::write_report_number(&mut out, self.escalate_ratio);
        let _ = write!(
            out,
            ",\n  \"degraded\": {},\n  \"nets\": [\n",
            self.degraded
        );
        for (i, n) in self.nets.iter().enumerate() {
            out.push_str("    {\"net\": ");
            json::write_escaped(&mut out, &n.net);
            let _ = write!(
                out,
                ", \"index\": {}, \"cluster\": {}, \"cluster_nets\": {}, \"aggressors\": {}, \"vp\": ",
                n.index, n.cluster, n.cluster_nets, n.aggressors
            );
            json::write_report_number(&mut out, n.vp);
            out.push_str(", \"at\": ");
            json::write_report_number(&mut out, n.at);
            out.push_str(", \"ratio\": ");
            json::write_report_number(&mut out, n.ratio);
            out.push_str(", \"rung\": ");
            json::write_escaped(&mut out, n.rung);
            let _ = write!(
                out,
                ", \"degraded\": {}, \"escalated\": {}",
                n.degraded, n.escalated
            );
            if let Some(vp) = n.golden_vp {
                out.push_str(", \"golden_vp\": ");
                json::write_report_number(&mut out, vp);
            }
            if let Some(tier) = n.golden_tier {
                out.push_str(", \"golden_tier\": ");
                json::write_escaped(&mut out, tier);
            }
            if let Some(err) = &n.error {
                out.push_str(", \"error\": ");
                json::write_escaped(&mut out, err);
            }
            out.push_str(if i + 1 < self.nets.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

impl fmt::Display for ScreenReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "screened {} nets in {} clusters: {} below threshold, {} escalated, {} failed",
            self.nets_total, self.clusters, self.screened, self.escalated, self.failed
        )?;
        writeln!(
            f,
            "threshold {:.3} x Vdd, escalation at ratio {:.2}; {} directives skipped, {} continuations",
            self.threshold, self.escalate_ratio, self.skipped_directives, self.continuations
        )?;
        let shown = self.nets.iter().take(20).count();
        if shown > 0 {
            writeln!(f, "worst {shown} nets:")?;
            writeln!(
                f,
                "{:<20} {:>8} {:>10} {:>8} {:>6}  rung",
                "net", "cluster", "vp (xVdd)", "ratio", "esc"
            )?;
        }
        for n in self.nets.iter().take(20) {
            let esc = if n.escalated { "yes" } else { "no" };
            let golden = match n.golden_vp {
                Some(vp) => format!(" golden={vp:.4} ({})", n.golden_tier.unwrap_or("?")),
                None => String::new(),
            };
            writeln!(
                f,
                "{:<20} {:>8} {:>10.4} {:>8.3} {:>6}  {}{}",
                n.net, n.cluster, n.vp, n.ratio, esc, n.rung, golden
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_tech::{PexDeckSpec, Technology};

    fn small_deck() -> String {
        PexDeckSpec::new(2, 5, 3).deck_string(&Technology::p25())
    }

    #[test]
    fn accounting_always_balances() {
        let report = screen_deck(small_deck().as_bytes(), &ScreenConfig::default()).unwrap();
        assert_eq!(report.nets_total, 10);
        assert_eq!(
            report.screened + report.escalated + report.failed,
            report.nets_total
        );
        assert_eq!(report.failed, 0);
        assert_eq!(report.clusters, 2);
        assert_eq!(report.nets.len(), report.nets_total);
    }

    #[test]
    fn report_is_ranked_and_deterministic_across_jobs() {
        let mut config = ScreenConfig {
            jobs: Jobs::Count(1),
            ..ScreenConfig::default()
        };
        let serial = screen_deck(small_deck().as_bytes(), &config).unwrap();
        config.jobs = Jobs::Count(3);
        let parallel = screen_deck(small_deck().as_bytes(), &config).unwrap();
        assert_eq!(serial.to_json(), parallel.to_json());
        assert!(serial
            .nets
            .windows(2)
            .all(|w| w[0].ratio >= w[1].ratio
                || (w[0].ratio == w[1].ratio && w[0].index < w[1].index)));
    }

    #[test]
    fn decks_past_the_parse_net_bound_screen() {
        // More nets than `DeckLimits::default()` admits, far fewer
        // element cards than it does.
        let spec = PexDeckSpec::new(626, 16, 1);
        assert!(spec.net_count() > DeckLimits::default().max_nets);
        let config = ScreenConfig {
            escalate: false,
            ..ScreenConfig::default()
        };
        let report = screen_deck(spec.deck_string(&Technology::p25()).as_bytes(), &config).unwrap();
        assert_eq!(report.nets_total, spec.net_count());
        assert_eq!(report.failed, 0);
    }

    #[test]
    fn lenient_mode_counts_skipped_directives() {
        let mut spec = PexDeckSpec::new(1, 4, 2);
        spec.benign_directives = true;
        let deck = spec.deck_string(&Technology::p25());
        let report = screen_deck(deck.as_bytes(), &ScreenConfig::default()).unwrap();
        assert_eq!(report.skipped_directives, 5);
        assert_eq!(report.nets_total, 4);

        let strict = ScreenConfig {
            strict: true,
            ..ScreenConfig::default()
        };
        assert!(matches!(
            screen_deck(deck.as_bytes(), &strict),
            Err(ScreenError::Parse(_))
        ));
    }

    #[test]
    fn continuations_are_counted_and_harmless() {
        let mut spec = PexDeckSpec::new(1, 4, 2);
        let plain = screen_deck(
            spec.deck_string(&Technology::p25()).as_bytes(),
            &ScreenConfig::default(),
        )
        .unwrap();
        spec.fold_cards = true;
        let folded = screen_deck(
            spec.deck_string(&Technology::p25()).as_bytes(),
            &ScreenConfig::default(),
        )
        .unwrap();
        assert!(folded.continuations > 0);
        assert_eq!(plain.continuations, 0);
        for (a, b) in plain.nets.iter().zip(&folded.nets) {
            assert_eq!(a.net, b.net);
            assert_eq!(a.vp.to_bits(), b.vp.to_bits(), "net {}", a.net);
        }
    }

    #[test]
    fn weak_lanes_escalate_and_stay_a_minority() {
        // Large enough to include weak drivers (every 16th lane).
        let spec = PexDeckSpec::new(2, 16, 3);
        let config = ScreenConfig {
            escalate: false, // flag only; golden sim not needed here
            ..ScreenConfig::default()
        };
        let report =
            screen_deck(spec.deck_string(&Technology::p25()).as_bytes(), &config).unwrap();
        assert_eq!(report.nets_total, 32);
        assert!(report.escalated > 0, "weak lanes must flag");
        assert!(
            report.escalated * 10 < report.nets_total,
            "escalation must stay under 10% ({}/{})",
            report.escalated,
            report.nets_total
        );
        // The ranked head must be exactly the weak lanes.
        for n in report.nets.iter().take(report.escalated) {
            assert!(n.escalated);
            assert!(spec.driver_of(n.index) > spec.driver * 2.0, "net {}", n.net);
        }
    }

    #[test]
    fn failed_nets_count_every_coupled_aggressor() {
        // Under an ideal step every rung fails on some lanes; bus0_bit2
        // has two neighbours on each side.
        let config = ScreenConfig {
            shape: Shape::Step,
            escalate: false,
            ..ScreenConfig::default()
        };
        let deck = PexDeckSpec::new(2, 17, 3).deck_string(&Technology::p25());
        let report = screen_deck(deck.as_bytes(), &config).unwrap();
        let net = report.nets.iter().find(|n| n.net == "bus0_bit2").unwrap();
        assert!(
            net.error.is_some(),
            "bus0_bit2 fails every rung under a step"
        );
        assert_eq!(net.aggressors, 4);
        assert_eq!((net.rung, net.vp, net.ratio), ("none", 0.0, 0.0));
    }

    #[test]
    fn escalated_nets_get_golden_peaks() {
        let spec = PexDeckSpec::new(1, 17, 2);
        let report = screen_deck(
            spec.deck_string(&Technology::p25()).as_bytes(),
            &ScreenConfig::default(),
        )
        .unwrap();
        let escalated: Vec<_> = report.nets.iter().filter(|n| n.escalated).collect();
        assert!(!escalated.is_empty());
        for n in &escalated {
            let golden = n.golden_vp.expect("escalation ran the golden sim");
            assert!(golden.is_finite() && golden >= 0.0);
            assert!(n.golden_tier.is_some());
        }
    }
}
