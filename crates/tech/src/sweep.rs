//! Seeded random case generation for the table reproductions.
//!
//! The paper sweeps "different coupling locations, driver strengths,
//! coupling lengths, etc." over 40 000+ cases, deliberately including
//! extreme corners: drastically different driver sizes, coupling flush
//! against the victim driver or receiver, coupling lengths 0.1–2.0 mm.
//! [`two_pin_cases`] and [`tree_cases`] reproduce those distributions at a
//! configurable case count with a fixed seed (tables are bit-reproducible).
//!
//! Generation is split into two passes so the sweep parallelizes without
//! touching the RNG stream: a **serial** pass makes every random draw
//! (specs, labels, inputs) in case order, then a **parallel** pass builds
//! the drawn specs into networks with [`xtalk_exec::par_map_indexed`].
//! Same seed → same draws → same cases, whatever the worker count, and
//! [`SweepRun::cases`]/[`SweepRun::failures`] keep their case-index
//! ordering.

use crate::{random_tree, CouplingDirection, Technology, TreeSpec, TwoPinSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use xtalk_circuit::{signal::InputSignal, CircuitError, NetId, Network};
use xtalk_exec::{par_map_indexed, Jobs};

/// One generated validation case.
#[derive(Debug)]
pub struct SweepCase {
    /// Short label (for diagnostics).
    pub label: String,
    /// The coupled network.
    pub network: Network,
    /// The switching aggressor.
    pub aggressor: NetId,
    /// The aggressor input.
    pub input: InputSignal,
}

/// A case whose generated spec failed to build into a network. The sweep
/// keeps going; the failure is reported in the run summary instead of
/// aborting the batch.
#[derive(Debug)]
pub struct SweepFailure {
    /// Label of the failed case.
    pub label: String,
    /// Why the spec did not build.
    pub error: CircuitError,
}

impl fmt::Display for SweepFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.label, self.error)
    }
}

/// The outcome of a case-generation sweep: every case that built, plus a
/// record of every case that did not.
#[derive(Debug, Default)]
pub struct SweepRun {
    /// Successfully built cases.
    pub cases: Vec<SweepCase>,
    /// Cases whose spec failed to build (degraded batch).
    pub failures: Vec<SweepFailure>,
}

impl SweepRun {
    /// `true` when every requested case was generated.
    pub fn is_complete(&self) -> bool {
        self.failures.is_empty()
    }

    /// One-line human-readable summary of the run.
    pub fn summary(&self) -> String {
        if self.is_complete() {
            format!("{} cases generated", self.cases.len())
        } else {
            let mut s = format!(
                "{} cases generated, {} failed:",
                self.cases.len(),
                self.failures.len()
            );
            for failure in &self.failures {
                s.push_str(&format!(" [{failure}]"));
            }
            s
        }
    }
}

/// Sweep configuration.
#[derive(Debug, Clone, Copy)]
pub struct SweepConfig {
    /// Number of cases to generate.
    pub cases: usize,
    /// RNG seed (same seed → same cases → same table).
    pub seed: u64,
    /// Fraction of cases forced into extreme corners (the paper stresses
    /// that its error figures include such corners).
    pub corner_fraction: f64,
}

impl Default for SweepConfig {
    /// 500 cases, fixed seed, 20% corners — enough for stable table
    /// statistics in seconds; crank `cases` to 40 000 to match the paper's
    /// volume.
    fn default() -> Self {
        SweepConfig {
            cases: 500,
            seed: 0x2002_da7e,
            corner_fraction: 0.2,
        }
    }
}

fn draw_input(rng: &mut StdRng, tech: &Technology, fast: bool) -> InputSignal {
    let (lo, hi) = tech.slew_range;
    let tr = if fast {
        rng.random_range(lo..lo * 2.0)
    } else {
        rng.random_range(lo..hi)
    };
    // Mix shapes: mostly ramps, some exponentials (the paper admits
    // arbitrary input types); polarity mixed as well.
    match rng.random_range(0..6) {
        0 => InputSignal::falling_ramp(0.0, tr),
        1 => InputSignal::rising_exp(0.0, tr),
        2 => InputSignal::falling_exp(0.0, tr),
        _ => InputSignal::rising_ramp(0.0, tr),
    }
}

/// Log-uniform draw: device sizes span decades, and a linear draw would
/// almost never produce a strong driver.
fn log_uniform(rng: &mut StdRng, lo: f64, hi: f64) -> f64 {
    (rng.random_range(lo.ln()..hi.ln())).exp()
}

/// Corner flavors (the paper's "extreme corner cases").
#[derive(Clone, Copy, PartialEq)]
enum Corner {
    /// Normal random case.
    None,
    /// Drastically different driver sizes.
    DriverMismatch,
    /// Both drivers strong with the fastest input slews — the regime where
    /// the near-/far-end distinction is most pronounced.
    StrongFast,
}

fn draw_corner(rng: &mut StdRng, fraction: f64) -> Corner {
    if !rng.random_bool(fraction) {
        Corner::None
    } else if rng.random_bool(0.5) {
        Corner::DriverMismatch
    } else {
        Corner::StrongFast
    }
}

fn draw_driver(rng: &mut StdRng, tech: &Technology, corner: Corner) -> (f64, f64) {
    let (lo, hi) = tech.driver_range;
    match corner {
        Corner::DriverMismatch => {
            // Drastically different sizes: one end of the range each.
            if rng.random_bool(0.5) {
                (rng.random_range(lo..1.5 * lo), rng.random_range(0.7 * hi..hi))
            } else {
                (rng.random_range(0.7 * hi..hi), rng.random_range(lo..1.5 * lo))
            }
        }
        Corner::StrongFast => (
            rng.random_range(lo..3.0 * lo),
            rng.random_range(lo..3.0 * lo),
        ),
        Corner::None => (log_uniform(rng, lo, hi), log_uniform(rng, lo, hi)),
    }
}

/// A fully drawn (but not yet built) case: the output of the serial RNG
/// pass, the input of the parallel build pass.
#[derive(Debug, Clone)]
struct DrawnCase<S> {
    label: String,
    spec: S,
    input: InputSignal,
}

/// Builds drawn specs into networks in parallel and folds the outcomes —
/// in case-index order — into a [`SweepRun`].
fn build_drawn<S: Sync + Send>(
    drawn: Vec<DrawnCase<S>>,
    tech: &Technology,
    jobs: Jobs,
    build: impl Fn(&S, &Technology) -> Result<(Network, NetId), CircuitError> + Sync,
) -> SweepRun {
    let _span = xtalk_obs::span!("sweep.build");
    let built = par_map_indexed(&drawn, jobs, |_, case| build(&case.spec, tech))
        .unwrap_or_else(|e| panic!("sweep build worker failed: {e}"));
    let mut out = SweepRun::default();
    for (case, result) in drawn.into_iter().zip(built) {
        match result {
            Ok((network, aggressor)) => out.cases.push(SweepCase {
                label: case.label,
                network,
                aggressor,
                input: case.input,
            }),
            Err(error) => out.failures.push(SweepFailure {
                label: case.label,
                error,
            }),
        }
    }
    xtalk_obs::counter!("sweep.cases.generated").add(out.cases.len() as u64);
    xtalk_obs::counter!("sweep.cases.failed").add(out.failures.len() as u64);
    out
}

/// Generates two-pin coupling cases (Tables 1 and 2).
///
/// A spec that fails to build (possible with a degenerate [`Technology`],
/// e.g. from a corrupt config file) lands in [`SweepRun::failures`]
/// instead of aborting the sweep.
///
/// Equivalent to [`two_pin_cases_jobs`] with [`Jobs::Auto`].
pub fn two_pin_cases(
    tech: &Technology,
    direction: CouplingDirection,
    config: &SweepConfig,
) -> SweepRun {
    two_pin_cases_jobs(tech, direction, config, Jobs::Auto)
}

/// [`two_pin_cases`] with an explicit worker-count policy for the
/// network-build pass. The RNG pass is always serial, so the generated
/// cases are bit-identical for every `jobs` value.
pub fn two_pin_cases_jobs(
    tech: &Technology,
    direction: CouplingDirection,
    config: &SweepConfig,
    jobs: Jobs,
) -> SweepRun {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut drawn = Vec::with_capacity(config.cases);
    for i in 0..config.cases {
        let corner = draw_corner(&mut rng, config.corner_fraction);
        let l2: f64 = rng.random_range(0.1e-3..2.0e-3);
        let slack: f64 = rng.random_range(0.0..1.5e-3);
        // Corner cases pin the window to an extreme; normal cases place it
        // anywhere.
        let l1 = match corner {
            Corner::DriverMismatch => {
                if rng.random_bool(0.5) {
                    0.0
                } else {
                    slack
                }
            }
            // The near-end-critical corner: window flush at the receiver.
            Corner::StrongFast => slack,
            Corner::None => rng.random_range(0.0..slack.max(1e-9)),
        };
        let l3 = l1 + l2 + (slack - l1).max(0.0);
        let (victim_driver, aggressor_driver) = draw_driver(&mut rng, tech, corner);
        let spec = TwoPinSpec {
            l1,
            l2,
            l3,
            direction,
            victim_driver,
            aggressor_driver,
            victim_load: rng.random_range(tech.load_range.0..tech.load_range.1),
            aggressor_load: rng.random_range(tech.load_range.0..tech.load_range.1),
            segments_per_mm: 8,
        };
        let label = format!(
            "two_pin[{i}]{} l1={:.2}mm l2={:.2}mm l3={:.2}mm",
            if corner != Corner::None { " corner" } else { "" },
            l1 * 1e3,
            l2 * 1e3,
            l3 * 1e3
        );
        // Draw the input unconditionally so a failed build does not shift
        // the RNG stream of the remaining cases.
        let input = draw_input(&mut rng, tech, corner == Corner::StrongFast);
        drawn.push(DrawnCase { label, spec, input });
    }
    build_drawn(drawn, tech, jobs, TwoPinSpec::build)
}

/// Generates coupled RC-tree cases (Table 3).
///
/// As [`two_pin_cases`], specs that fail to build are collected in
/// [`SweepRun::failures`] rather than aborting the batch.
///
/// Equivalent to [`tree_cases_jobs`] with [`Jobs::Auto`].
pub fn tree_cases(tech: &Technology, far_end: bool, config: &SweepConfig) -> SweepRun {
    tree_cases_jobs(tech, far_end, config, Jobs::Auto)
}

/// [`tree_cases`] with an explicit worker-count policy for the
/// network-build pass (the RNG pass stays serial; see [`two_pin_cases_jobs`]).
pub fn tree_cases_jobs(
    tech: &Technology,
    far_end: bool,
    config: &SweepConfig,
    jobs: Jobs,
) -> SweepRun {
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0x7ee_1000);
    let mut drawn = Vec::with_capacity(config.cases);
    for i in 0..config.cases {
        let corner = draw_corner(&mut rng, config.corner_fraction);
        let mut spec = random_tree(&mut rng, tech, far_end);
        let (vd, ad) = draw_driver(&mut rng, tech, corner);
        if corner != Corner::None {
            spec.victim_driver = vd;
            spec.aggressor_driver = ad;
        }
        let label = format!(
            "tree[{i}]{}",
            if corner != Corner::None { " corner" } else { "" }
        );
        let input = draw_input(&mut rng, tech, corner == Corner::StrongFast);
        drawn.push(DrawnCase { label, spec, input });
    }
    build_drawn(drawn, tech, jobs, TreeSpec::build)
}

/// A family of randomized case topologies, used by callers (like the
/// audit harness) that draw one case at a time from an explicit per-case
/// seed instead of walking a shared RNG stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CaseFamily {
    /// Two coupled pin-to-pin lines, far-end coupling (Table 1 regime).
    TwoPinFar,
    /// Two coupled pin-to-pin lines, near-end coupling (Table 2 regime).
    TwoPinNear,
    /// Coupled RC trees (Table 3 regime).
    Tree,
}

impl CaseFamily {
    /// All families, in rotation order.
    pub const ALL: [CaseFamily; 3] = [
        CaseFamily::TwoPinFar,
        CaseFamily::TwoPinNear,
        CaseFamily::Tree,
    ];

    /// Short machine-readable name (stable; used in reports).
    pub fn name(self) -> &'static str {
        match self {
            CaseFamily::TwoPinFar => "two_pin_far",
            CaseFamily::TwoPinNear => "two_pin_near",
            CaseFamily::Tree => "tree",
        }
    }
}

impl fmt::Display for CaseFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Generates exactly one case of `family` from its own `seed`, with the
/// same parameter distributions as the batch sweeps (25% corner cases).
///
/// Differential harnesses use this to give every audit case an
/// independent seed: a flagged case is then reproducible from `(family,
/// seed)` alone, without regenerating the rest of the batch.
///
/// # Errors
///
/// The [`SweepFailure`] of the drawn spec when it fails to build
/// (possible only with a degenerate [`Technology`]).
pub fn single_case(
    tech: &Technology,
    family: CaseFamily,
    seed: u64,
) -> Result<SweepCase, SweepFailure> {
    let config = SweepConfig {
        cases: 1,
        seed,
        corner_fraction: 0.25,
    };
    let mut run = match family {
        CaseFamily::TwoPinFar => {
            two_pin_cases_jobs(tech, CouplingDirection::FarEnd, &config, Jobs::Count(1))
        }
        CaseFamily::TwoPinNear => {
            two_pin_cases_jobs(tech, CouplingDirection::NearEnd, &config, Jobs::Count(1))
        }
        CaseFamily::Tree => tree_cases_jobs(tech, true, &config, Jobs::Count(1)),
    };
    match run.failures.pop() {
        Some(failure) => Err(failure),
        None => Ok(run
            .cases
            .pop()
            .expect("a one-case sweep without failures yields one case")),
    }
}

/// The Figure 5 sweep: `L2 = 0.5 mm`, `L3 = 1.5 mm`,
/// `L1 = 0.1 … 1.0 mm` in `points` steps, far-end, fixed mid-range
/// drivers and loads, 100 ps rising ramp.
///
/// # Errors
///
/// Returns the first [`SweepFailure`] when a sweep point fails to build
/// (possible only with a degenerate [`Technology`]).
///
/// # Panics
///
/// Panics when `points < 2` (a caller bug, not a data condition).
pub fn figure5_cases(
    tech: &Technology,
    points: usize,
) -> Result<Vec<(f64, SweepCase)>, SweepFailure> {
    assert!(points >= 2, "need at least two sweep points");
    let mut out = Vec::with_capacity(points);
    for k in 0..points {
        let l1 = 0.1e-3 + (1.0e-3 - 0.1e-3) * k as f64 / (points - 1) as f64;
        let spec = TwoPinSpec {
            l1,
            l2: 0.5e-3,
            l3: 1.5e-3,
            direction: CouplingDirection::FarEnd,
            victim_driver: 300.0,
            aggressor_driver: 200.0,
            victim_load: 20e-15,
            aggressor_load: 20e-15,
            segments_per_mm: 10,
        };
        let label = format!("figure5 L1={:.2}mm", l1 * 1e3);
        let (network, aggressor) = spec
            .build(tech)
            .map_err(|error| SweepFailure {
                label: label.clone(),
                error,
            })?;
        out.push((
            l1,
            SweepCase {
                label,
                network,
                aggressor,
                input: InputSignal::rising_ramp(0.0, 100e-12),
            },
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweeps_are_reproducible() {
        let tech = Technology::p25();
        let cfg = SweepConfig {
            cases: 10,
            ..SweepConfig::default()
        };
        let a = two_pin_cases(&tech, CouplingDirection::FarEnd, &cfg);
        let b = two_pin_cases(&tech, CouplingDirection::FarEnd, &cfg);
        assert!(a.is_complete() && b.is_complete());
        let (a, b) = (a.cases, b.cases);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.label, y.label);
            assert_eq!(x.network.node_count(), y.network.node_count());
            assert_eq!(x.input, y.input);
        }
    }

    #[test]
    fn parallel_build_matches_serial_build_exactly() {
        let tech = Technology::p25();
        let cfg = SweepConfig {
            cases: 40,
            ..SweepConfig::default()
        };
        let serial = two_pin_cases_jobs(&tech, CouplingDirection::FarEnd, &cfg, Jobs::Count(1));
        let par = two_pin_cases_jobs(&tech, CouplingDirection::FarEnd, &cfg, Jobs::Count(4));
        assert_eq!(serial.cases.len(), par.cases.len());
        for (a, b) in serial.cases.iter().zip(&par.cases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.input, b.input);
            assert_eq!(a.network.node_count(), b.network.node_count());
        }
        let ts = tree_cases_jobs(&tech, true, &cfg, Jobs::Count(1));
        let tp = tree_cases_jobs(&tech, true, &cfg, Jobs::Count(5));
        assert_eq!(ts.cases.len(), tp.cases.len());
        for (a, b) in ts.cases.iter().zip(&tp.cases) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.network.node_count(), b.network.node_count());
        }
    }

    #[test]
    fn failure_ordering_is_stable_under_parallel_build() {
        // Every case fails against a corrupt technology; the failures
        // must come back in case-index order for any worker count.
        let mut tech = Technology::p25();
        tech.c_per_m = -tech.c_per_m;
        let cfg = SweepConfig {
            cases: 12,
            ..SweepConfig::default()
        };
        for jobs in [Jobs::Count(1), Jobs::Count(3), Jobs::Count(8)] {
            let run = two_pin_cases_jobs(&tech, CouplingDirection::FarEnd, &cfg, jobs);
            assert_eq!(run.failures.len(), 12);
            for (i, f) in run.failures.iter().enumerate() {
                assert!(
                    f.label.starts_with(&format!("two_pin[{i}]")),
                    "failure {i} out of order: {}",
                    f.label
                );
            }
        }
    }

    #[test]
    fn corner_cases_appear_at_requested_rate() {
        let tech = Technology::p25();
        let cfg = SweepConfig {
            cases: 300,
            seed: 42,
            corner_fraction: 0.5,
        };
        let cases = two_pin_cases(&tech, CouplingDirection::NearEnd, &cfg).cases;
        let corners = cases.iter().filter(|c| c.label.contains("corner")).count();
        assert!(
            (90..210).contains(&corners),
            "unexpected corner count {corners}"
        );
    }

    #[test]
    fn tree_sweep_builds_valid_cases() {
        let tech = Technology::p25();
        let default = SweepConfig {
            cases: 30,
            ..SweepConfig::default()
        };
        // Seed 6 at 400 cases draws a coupling window whose slack on the
        // trunk is under 1 µm, in both orientations.
        let seed6 = SweepConfig {
            cases: 400,
            seed: 6,
            ..SweepConfig::default()
        };
        for (cfg, far_end) in [(&default, true), (&seed6, true), (&seed6, false)] {
            let run = tree_cases(&tech, far_end, cfg);
            assert!(run.is_complete(), "{}", run.summary());
            assert_eq!(run.cases.len(), cfg.cases);
            for case in run.cases {
                assert!(case.network.node_count() > 4, "{}", case.label);
                assert!(
                    case.network
                        .couplings_between(case.aggressor, case.network.victim())
                        .count()
                        > 0
                );
            }
        }
    }

    #[test]
    fn single_case_is_reproducible_from_family_and_seed() {
        let tech = Technology::p25();
        for family in CaseFamily::ALL {
            let a = single_case(&tech, family, 0xfeed).unwrap();
            let b = single_case(&tech, family, 0xfeed).unwrap();
            assert_eq!(a.label, b.label, "{family}");
            assert_eq!(a.input, b.input);
            assert_eq!(a.network.node_count(), b.network.node_count());
            // A different seed draws a different case.
            let c = single_case(&tech, family, 0xfeed + 1).unwrap();
            assert!(a.input != c.input || a.network.node_count() != c.network.node_count());
        }
    }

    #[test]
    fn single_case_reports_build_failures() {
        let mut tech = Technology::p25();
        tech.c_per_m = -tech.c_per_m;
        assert!(single_case(&tech, CaseFamily::TwoPinFar, 7).is_err());
    }

    #[test]
    fn figure5_sweep_spans_the_paper_range() {
        let tech = Technology::p25();
        let pts = figure5_cases(&tech, 10).unwrap();
        assert_eq!(pts.len(), 10);
        assert!((pts[0].0 - 0.1e-3).abs() < 1e-9);
        assert!((pts[9].0 - 1.0e-3).abs() < 1e-9);
        // Strictly increasing L1.
        for w in pts.windows(2) {
            assert!(w[1].0 > w[0].0);
        }
    }

    #[test]
    fn corrupt_technology_degrades_instead_of_panicking() {
        // A negated wire capacitance (e.g. from a corrupt tech file) makes
        // every spec fail to build; the sweep must collect the failures
        // and report them rather than panic.
        let mut tech = Technology::p25();
        tech.c_per_m = -tech.c_per_m;
        let cfg = SweepConfig {
            cases: 5,
            ..SweepConfig::default()
        };
        let run = two_pin_cases(&tech, CouplingDirection::FarEnd, &cfg);
        assert!(run.cases.is_empty());
        assert_eq!(run.failures.len(), 5);
        assert!(!run.is_complete());
        assert!(run.summary().contains("5 failed"), "{}", run.summary());
        let trees = tree_cases(&tech, true, &cfg);
        assert_eq!(trees.cases.len() + trees.failures.len(), 5);
        assert!(!trees.is_complete());
        assert!(figure5_cases(&tech, 3).is_err());
    }

    #[test]
    fn inputs_mix_shapes_and_polarities() {
        let tech = Technology::p25();
        let cfg = SweepConfig {
            cases: 200,
            seed: 9,
            corner_fraction: 0.1,
        };
        let cases = two_pin_cases(&tech, CouplingDirection::FarEnd, &cfg).cases;
        let falling = cases
            .iter()
            .filter(|c| c.input.noise_polarity() < 0.0)
            .count();
        assert!(falling > 20, "only {falling} falling inputs in 200");
        assert!(falling < 180);
    }
}
