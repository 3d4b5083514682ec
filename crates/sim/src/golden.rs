//! One-call golden measurement: simulate, measure, retry the horizon.
//!
//! Every consumer that wants a golden (simulated) waveform measurement —
//! the paper-table evaluation harness, the differential audit, ad-hoc
//! comparisons — needs the same three steps: build a [`TransientSim`],
//! run it with [`SimOptions::auto`], and extract the waveform parameters
//! with [`measure_noise`]. Slowly decaying tails need one extra wrinkle:
//! when the pulse has not fallen back below the 50% crossing by the end
//! of the auto horizon, [`measure_noise`] reports [`SimError::Truncated`]
//! and the horizon (and step, keeping the point count constant) must grow
//! until the tail fits. This module packages that loop so the retry
//! policy cannot drift between callers.

use crate::engine::{march_batch, MarchRun, LANES};
use crate::{
    analytic, fast_tier, measure_noise, sim_mode, FastTier, NoiseWaveformParams, SimError, SimMode,
    SimOptions, SimResult, SimWorkspace, TransientSim, Waveform,
};
use xtalk_circuit::{signal::InputSignal, NetId, Network, NodeId};
use xtalk_linalg::LdlSymbolic;

/// Longest horizon the retry loop grows to before giving up: 1 µs, three
/// orders of magnitude beyond any realistic on-chip noise tail. A pulse
/// still truncated at this horizon is reported as [`SimError::Truncated`].
pub const MAX_HORIZON: f64 = 1e-6;

/// Factor the horizon (and step) grow by on each truncation retry.
const HORIZON_GROWTH: f64 = 4.0;

/// Largest sample count the fixed-mode resume path lets the stitched
/// waveform grow to before giving up on the fine grid and re-running the
/// whole horizon coarsened (the pre-resume behaviour). Retries multiply
/// the sample count by [`HORIZON_GROWTH`], so this bounds memory at a
/// few tens of MB while covering every realistic tail.
const RESUME_SAMPLE_CAP: usize = 4_000_000;

/// Which golden tier produced a measurement — the provenance consumers
/// (serve's deadline stamp, the audit) record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GoldenTier {
    /// Closed-form pole superposition ([`analytic::analytic_noise`]).
    Analytic,
    /// Transient time-stepping simulation (fixed or adaptive).
    Transient,
}

impl GoldenTier {
    /// Stable name for provenance stamps.
    pub fn as_str(self) -> &'static str {
        match self {
            GoldenTier::Analytic => "analytic",
            GoldenTier::Transient => "transient",
        }
    }
}

/// Per-call golden policy: stepping mode and fast-tier gate. The default
/// (`Fixed`/`Off`) is the historical behaviour;
/// [`GoldenOpts::from_globals`] picks up the process-wide `--sim` /
/// `--fast-tier` switches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GoldenOpts {
    /// Time-marching strategy for the transient tier.
    pub mode: SimMode,
    /// Analytic fast-tier policy.
    pub tier: FastTier,
}

impl GoldenOpts {
    /// Resolves the process-wide flags/environment
    /// ([`crate::sim_mode`], [`crate::fast_tier`]).
    pub fn from_globals() -> Self {
        GoldenOpts {
            mode: sim_mode(),
            tier: fast_tier(),
        }
    }
}

/// Golden waveform parameters at the victim output for a single
/// aggressor, with a fresh workspace. See [`golden_noise_with`].
///
/// # Errors
///
/// As [`golden_noise_with`].
///
/// # Examples
///
/// ```
/// use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder};
/// use xtalk_sim::golden::golden_noise;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut b = NetworkBuilder::new();
/// let v = b.add_net("v", NetRole::Victim);
/// let a = b.add_net("a", NetRole::Aggressor);
/// let vn = b.add_node(v, "v0");
/// let an = b.add_node(a, "a0");
/// b.add_driver(v, vn, 1000.0)?;
/// b.add_driver(a, an, 1000.0)?;
/// b.add_sink(vn, 20e-15)?;
/// b.add_sink(an, 20e-15)?;
/// b.add_coupling_cap(vn, an, 40e-15)?;
/// let network = b.build()?;
///
/// let golden = golden_noise(&network, a, &InputSignal::rising_ramp(0.0, 1e-10))?;
/// assert!(golden.vp > 0.0 && golden.wn > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn golden_noise(
    network: &Network,
    aggressor: NetId,
    input: &InputSignal,
) -> Result<NoiseWaveformParams, SimError> {
    golden_noise_with(
        network,
        &[(aggressor, *input)],
        network.victim_output(),
        &mut SimWorkspace::new(),
    )
}

/// Golden waveform parameters at `node`, reusing a caller-provided
/// workspace (one per worker thread in batch flows; the retries within a
/// case recycle the factorization buffers).
///
/// The measured polarity is taken from the first stimulus — callers with
/// several simultaneous aggressors must switch them in the same
/// direction, which is the worst-case alignment the paper analyzes.
///
/// # Errors
///
/// Any [`SimError`] from setup, integration, or measurement.
/// [`SimError::Truncated`] is retried with a `4×` longer horizon (and
/// proportionally coarser step) until [`MAX_HORIZON`]; it escapes only
/// when even that horizon cannot contain the pulse.
pub fn golden_noise_with(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    node: NodeId,
    workspace: &mut SimWorkspace,
) -> Result<NoiseWaveformParams, SimError> {
    golden_noise_tiered(network, stimuli, node, workspace, &GoldenOpts::from_globals())
        .map(|(params, _)| params)
}

/// [`golden_noise_with`] with an explicit [`GoldenOpts`] policy, also
/// reporting which tier produced the measurement.
///
/// With `tier != Off` the analytic fast tier is tried first; any
/// [`analytic::FastTierFallback`] falls through to the transient
/// simulator (counted per reason in `sim.fast_tier.fallback.*`). The
/// transient tier steps fixed or adaptive per `mode`; on truncation the
/// fixed march resumes from its final state over a 4× coarser extension
/// (no re-integration of the covered span), while the adaptive march —
/// whose settled tail costs only a handful of steps — simply re-runs
/// with the grown horizon. This is the one-run case of
/// [`golden_noise_batch`].
///
/// # Errors
///
/// As [`golden_noise_with`].
pub fn golden_noise_tiered(
    network: &Network,
    stimuli: &[(NetId, InputSignal)],
    node: NodeId,
    workspace: &mut SimWorkspace,
    gopts: &GoldenOpts,
) -> Result<(NoiseWaveformParams, GoldenTier), SimError> {
    let run = GoldenRun {
        network,
        stimuli,
        node,
    };
    golden_noise_batch(&[run], workspace, gopts)
        .pop()
        .expect("one result per run")
}

/// One golden measurement of a batch: the network, its stimuli (the
/// first sets the measured polarity, as in [`golden_noise_with`]) and
/// the observed node.
#[derive(Debug, Clone, Copy)]
pub struct GoldenRun<'a> {
    /// The network, with its victim designated.
    pub network: &'a Network,
    /// Aggressor stimuli.
    pub stimuli: &'a [(NetId, InputSignal)],
    /// The node whose pulse is measured.
    pub node: NodeId,
}

/// [`golden_noise_tiered`] for a batch of runs: one result per run, in
/// order, each bit-identical to its own [`golden_noise_tiered`] call.
///
/// The analytic gate runs per run. The runs left for the transient tier
/// are stamped, and runs whose `G ∪ C` patterns are equal share one
/// symbolic analysis. Up to [`LANES`] runs of one analysis, in input
/// order, make their first transient run as the lanes of one march;
/// a lone run (a dense-backend network, a pattern of its own) takes the
/// one-lane path with no batch set-up. Each run is measured on its own,
/// and a truncated pulse grows its horizon on the one-lane path.
///
/// Counts `sim.golden.marches` first-run marches and
/// `sim.golden.batched_runs` runs that marched beside at least one other
/// run.
///
/// # Errors
///
/// Per run, as [`golden_noise_with`].
pub fn golden_noise_batch(
    runs: &[GoldenRun<'_>],
    workspace: &mut SimWorkspace,
    gopts: &GoldenOpts,
) -> Vec<Result<(NoiseWaveformParams, GoldenTier), SimError>> {
    let _span = xtalk_obs::span!("sim.golden");
    let mut results: Vec<Option<Result<(NoiseWaveformParams, GoldenTier), SimError>>> =
        runs.iter().map(|_| None).collect();
    // Runs left for the transient tier, with the analyses of the
    // distinct patterns seen so far.
    let mut transient: Vec<Transient<'_>> = Vec::new();
    let mut analyses: Vec<LdlSymbolic> = Vec::new();
    for (i, run) in runs.iter().enumerate() {
        match prepare(run, gopts, &mut analyses) {
            Ok(Prepared::Analytic(params)) => results[i] = Some(Ok((params, GoldenTier::Analytic))),
            Ok(Prepared::Transient(polarity, sim)) => transient.push(Transient {
                run: i,
                polarity,
                options: SimOptions::auto(run.network, run.stimuli),
                sim: *sim,
            }),
            Err(e) => results[i] = Some(Err(e)),
        }
    }

    let marches = plan_marches(transient.iter().map(|t| &t.sim));
    for lanes in marches {
        let march_runs: Vec<MarchRun<'_, '_>> = lanes
            .iter()
            .map(|&t| MarchRun {
                sim: &transient[t].sim,
                stimuli: runs[transient[t].run].stimuli,
                options: &transient[t].options,
                start: None,
            })
            .collect();
        xtalk_obs::counter!(perf: "sim.golden.marches").add(1);
        if lanes.len() > 1 {
            xtalk_obs::counter!(perf: "sim.golden.batched_runs").add(lanes.len() as u64);
        }
        let firsts = march_batch(&march_runs, gopts.mode, workspace);
        // Retries march on the one-lane path, which rewrites only lane
        // 0's final state: each lane reads its own before its retries.
        for (lane, (&t, first)) in lanes.iter().zip(firsts).enumerate() {
            let tr = &transient[t];
            let run = &runs[tr.run];
            let measured =
                first.and_then(|res| measure_or_extend(tr, run, res, lane, workspace, gopts.mode));
            results[tr.run] = Some(measured.map(|params| (params, GoldenTier::Transient)));
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every run is measured or failed"))
        .collect()
}

/// The marches of a batch's transient runs, as indices into `sims`:
/// runs of one symbolic analysis in input order, up to [`LANES`] each;
/// anything else alone.
fn plan_marches<'s, 'a: 's>(sims: impl Iterator<Item = &'s TransientSim<'a>>) -> Vec<Vec<usize>> {
    let mut marches: Vec<(Option<&LdlSymbolic>, Vec<usize>)> = Vec::new();
    for (t, sim) in sims.enumerate() {
        let sym = sim.symbolic();
        let joins = sym.and_then(|sym| {
            marches.iter().position(|(s, m)| {
                m.len() < LANES && s.is_some_and(|s| std::ptr::eq(s.pattern(), sym.pattern()))
            })
        });
        match joins {
            Some(m) => marches[m].1.push(t),
            None => marches.push((sym, vec![t])),
        }
    }
    marches.into_iter().map(|(_, m)| m).collect()
}

/// A run bound for the transient tier.
struct Transient<'a> {
    /// Index of the run in the batch.
    run: usize,
    polarity: f64,
    options: SimOptions,
    sim: TransientSim<'a>,
}

/// Where the analytic gate sends a run.
enum Prepared<'a> {
    Analytic(NoiseWaveformParams),
    Transient(f64, Box<TransientSim<'a>>),
}

/// The per-run front of the golden procedure: the polarity, the analytic
/// gate, and the stamped simulator (reusing an analysis of `analyses`
/// whose pattern matches, else adding its own).
fn prepare<'a>(
    run: &GoldenRun<'a>,
    gopts: &GoldenOpts,
    analyses: &mut Vec<LdlSymbolic>,
) -> Result<Prepared<'a>, SimError> {
    let polarity = match run.stimuli.first() {
        Some((_, input)) => input.noise_polarity(),
        None => {
            return Err(SimError::BadOptions {
                detail: "golden measurement needs at least one stimulus".into(),
            })
        }
    };
    xtalk_obs::counter!("sim.golden.runs").add(1);

    if gopts.tier != FastTier::Off {
        match analytic::analytic_noise(run.network, run.stimuli, run.node, gopts.tier) {
            Ok(params) => {
                xtalk_obs::counter!(perf: "sim.fast_tier.hits").add(1);
                return Ok(Prepared::Analytic(params));
            }
            Err(reason) => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback").add(1);
                reason.record();
            }
        }
    }

    let sim = TransientSim::sharing(run.network, analyses)?;
    sim.check_noise_stimuli(run.stimuli)?;
    if let Some(sym) = sim.symbolic() {
        if !analyses
            .iter()
            .any(|a| std::ptr::eq(a.pattern(), sym.pattern()))
        {
            analyses.push(sym.clone());
        }
    }
    Ok(Prepared::Transient(polarity, Box::new(sim)))
}

/// Measures the first run's pulse; a truncated one grows the horizon 4×
/// per retry until it fits or reaches [`MAX_HORIZON`]. `lane` is the
/// run's lane in the first march, whose final state the fixed march's
/// resume starts from.
fn measure_or_extend(
    tr: &Transient<'_>,
    run: &GoldenRun<'_>,
    first: SimResult,
    lane: usize,
    workspace: &mut SimWorkspace,
    mode: SimMode,
) -> Result<NoiseWaveformParams, SimError> {
    let (sim, stimuli, node, polarity) = (&tr.sim, run.stimuli, run.node, tr.polarity);
    let mut opts = tr.options.clone();
    // Det-class workload record on success: the final horizon in units of
    // the initial auto step — identical across stepping modes and resume
    // strategies by construction.
    let dt0 = opts.dt;
    let record_steps = |t_stop: f64| {
        xtalk_obs::histogram!("sim.golden.steps").record((t_stop / dt0).max(0.0) as u64);
    };
    let probe_err = || SimError::BadOptions {
        detail: format!("probe node {node:?} is not part of the simulated network"),
    };

    // First run: the auto horizon from DC.
    let mut wave = first.into_probe(node).ok_or_else(probe_err)?;
    match measure_noise(&wave, polarity) {
        Ok(params) => {
            record_steps(opts.t_stop);
            return Ok(params);
        }
        Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {}
        Err(e) => return Err(e),
    }

    // A truncated pulse grows the horizon 4× per retry. The adaptive
    // march, whose settled tail costs only a handful of steps, re-runs
    // from DC with the step grown alike (the base-grid point count stays
    // constant). The fixed march resumes from its final state instead of
    // re-paying the covered horizon, until the stitched waveform would
    // outgrow `RESUME_SAMPLE_CAP`. `wave` is the uniform waveform so far,
    // from `t = 0` at step `cur_dt`, and `state` the node voltages at its
    // end.
    let mut cur_dt = opts.dt;
    let mut state: Vec<f64> = workspace.final_state(lane).to_vec();
    let ratio = HORIZON_GROWTH as usize;
    loop {
        xtalk_obs::counter!("sim.golden.horizon_retries").add(1);
        if mode == SimMode::Adaptive || wave.len().saturating_mul(ratio) > RESUME_SAMPLE_CAP {
            cur_dt *= HORIZON_GROWTH;
            opts.t_stop *= HORIZON_GROWTH;
            let full = SimOptions {
                dt: cur_dt,
                ..opts.clone()
            };
            let res = sim.run_with(stimuli, &full, mode, workspace)?;
            wave = res.into_probe(node).ok_or_else(probe_err)?;
        } else {
            xtalk_obs::counter!("sim.golden.retry_resumes").add(1);
            // Extend from the exact end of the stitched grid with a 4×
            // coarser step (the tail is smooth), then upsample the
            // extension back onto the fine grid so the waveform stays
            // uniform.
            let mut samples = wave.into_samples();
            let t_end = (samples.len() - 1) as f64 * cur_dt;
            let ext = SimOptions {
                dt: cur_dt * HORIZON_GROWTH,
                t_stop: opts.t_stop * HORIZON_GROWTH,
                ..opts.clone()
            };
            let start = Some((t_end, state.as_slice()));
            let res = sim.march(stimuli, &ext, SimMode::Fixed, workspace, start)?;
            let ext_wf = res.probe(node).ok_or_else(probe_err)?;
            for pair in ext_wf.samples().windows(2) {
                let (v0, v1) = (pair[0], pair[1]);
                for j in 1..=ratio {
                    let frac = j as f64 / ratio as f64;
                    samples.push(v0 + (v1 - v0) * frac);
                }
            }
            opts.t_stop *= HORIZON_GROWTH;
            wave = Waveform::new(0.0, cur_dt, samples);
        }
        state.clear();
        state.extend_from_slice(workspace.final_state(0));
        match measure_noise(&wave, polarity) {
            Ok(params) => {
                record_steps(opts.t_stop);
                return Ok(params);
            }
            Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::PARTIAL_COMMITS;
    use xtalk_circuit::{NetRole, NetworkBuilder};

    fn coupled() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let vn = b.add_node(v, "v0");
        let an = b.add_node(a, "a0");
        b.add_driver(v, vn, 1000.0).unwrap();
        b.add_driver(a, an, 1000.0).unwrap();
        b.add_sink(vn, 20e-15).unwrap();
        b.add_sink(an, 20e-15).unwrap();
        b.add_coupling_cap(vn, an, 40e-15).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn matches_the_manual_simulate_and_measure_path() {
        let (net, agg) = coupled();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let golden = golden_noise(&net, agg, &input).unwrap();

        let sim = TransientSim::new(&net).unwrap();
        let stim = [(agg, input)];
        let opts = SimOptions::auto(&net, &stim);
        let res = sim.run(&stim, &opts).unwrap();
        let manual =
            measure_noise(res.probe(net.victim_output()).unwrap(), 1.0).unwrap();
        assert_eq!(golden.vp, manual.vp);
        assert_eq!(golden.wn, manual.wn);
        assert_eq!(golden.tp, manual.tp);
    }

    /// The two-net smoke deck of the command-line docs: a 300 Ω victim
    /// with one 60 Ω segment, a 150 Ω aggressor, 25 fF of coupling.
    fn smoke_deck() -> (Network, NetId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("victim", NetRole::Victim);
        let a = b.add_net("agg0", NetRole::Aggressor);
        let v0 = b.add_node(v, "n0");
        let v1 = b.add_node(v, "n1");
        let a0 = b.add_node(a, "n2");
        b.add_driver(v, v0, 300.0).unwrap();
        b.add_driver(a, a0, 150.0).unwrap();
        b.add_resistor(v0, v1, 60.0).unwrap();
        b.add_ground_cap(v0, 2e-15).unwrap();
        b.add_ground_cap(v1, 8e-15).unwrap();
        b.add_sink(v1, 12e-15).unwrap();
        b.add_sink(a0, 10e-15).unwrap();
        b.add_coupling_cap(a0, v1, 25e-15).unwrap();
        (b.build().unwrap(), a)
    }

    #[test]
    fn transient_step_at_time_zero_matches_the_analytic_tier() {
        // A step at t = 0 has not switched when the run starts: the DC
        // initial condition rests it at 0, so the transient tier sees the
        // whole pulse the analytic tier predicts.
        let (net, agg) = smoke_deck();
        let stim = [(agg, InputSignal::step(0.0))];
        let out = net.victim_output();
        let analytic = analytic::analytic_noise(&net, &stim, out, FastTier::Auto).unwrap();
        for mode in [SimMode::Fixed, SimMode::Adaptive] {
            let opts = GoldenOpts {
                mode,
                tier: FastTier::Off,
            };
            let (transient, tier) =
                golden_noise_tiered(&net, &stim, out, &mut SimWorkspace::new(), &opts).unwrap();
            assert_eq!(tier, GoldenTier::Transient);
            let rel = (transient.vp - analytic.vp).abs() / analytic.vp;
            assert!(
                rel < 1e-3,
                "{mode:?}: {} vs {} ({rel:e})",
                transient.vp,
                analytic.vp
            );
        }
    }

    #[test]
    fn empty_stimuli_is_a_structured_error() {
        let (net, _) = coupled();
        let err = golden_noise_with(
            &net,
            &[],
            net.victim_output(),
            &mut SimWorkspace::new(),
        )
        .unwrap_err();
        assert!(matches!(err, SimError::BadOptions { .. }));
    }

    #[test]
    fn workspace_reuse_is_bit_identical() {
        let (net, agg) = coupled();
        let input = InputSignal::rising_ramp(0.0, 1e-10);
        let mut ws = SimWorkspace::new();
        let first = golden_noise_with(&net, &[(agg, input)], net.victim_output(), &mut ws).unwrap();
        let second =
            golden_noise_with(&net, &[(agg, input)], net.victim_output(), &mut ws).unwrap();
        assert_eq!(first.vp, second.vp);
        assert_eq!(first.t0, second.t0);
    }

    /// Coupled `segs`-segment ladders (victim and one aggressor) with
    /// their resistances, ground and coupling capacitances scaled by
    /// `jitter`: every jitter stamps one pattern.
    fn ladder(segs: usize, jitter: [f64; 3]) -> (Network, NetId) {
        let [r, cg, cc] = jitter;
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let a = b.add_net("a", NetRole::Aggressor);
        let mut prev_v = b.add_node(v, "v0");
        let mut prev_a = b.add_node(a, "a0");
        b.add_driver(v, prev_v, 120.0).unwrap();
        b.add_driver(a, prev_a, 90.0).unwrap();
        for i in 1..=segs {
            let nv = b.add_node(v, format!("v{i}"));
            let na = b.add_node(a, format!("a{i}"));
            b.add_resistor(prev_v, nv, 15.0 * r).unwrap();
            b.add_resistor(prev_a, na, 12.0 * r).unwrap();
            b.add_ground_cap(nv, 2e-15 * cg).unwrap();
            b.add_ground_cap(na, 2e-15 * cg).unwrap();
            if i % 2 == 0 {
                b.add_coupling_cap(nv, na, 4e-15 * cc).unwrap();
            }
            prev_v = nv;
            prev_a = na;
        }
        b.add_sink(prev_v, 8e-15 * cg).unwrap();
        b.add_sink(prev_a, 6e-15 * cg).unwrap();
        (b.build().unwrap(), a)
    }

    /// One request of a batch: a network and its stimuli.
    type Request = (Network, Vec<(NetId, InputSignal)>);

    fn bits_of(r: &Result<(NoiseWaveformParams, GoldenTier), SimError>) -> String {
        match r {
            Ok((p, tier)) => {
                let fields = [p.vp, p.tp, p.t0, p.t1, p.t2, p.wn, p.area, p.polarity];
                format!("{tier:?} {:x?}", fields.map(f64::to_bits))
            }
            Err(e) => format!("{e:?}"),
        }
    }

    /// Every run of `requests` through one [`golden_noise_batch`] call
    /// must match its own [`golden_noise_tiered`] call bit for bit, in
    /// all seven measured fields and the polarity.
    fn assert_golden_batch_matches(requests: &[Request], gopts: &GoldenOpts) {
        let runs: Vec<GoldenRun<'_>> = requests
            .iter()
            .map(|(network, stimuli)| GoldenRun {
                network,
                stimuli,
                node: network.victim_output(),
            })
            .collect();
        let mut ws = SimWorkspace::new();
        let batched = golden_noise_batch(&runs, &mut ws, gopts);
        assert_eq!(batched.len(), runs.len());
        for (run, got) in runs.iter().zip(&batched) {
            let alone = golden_noise_tiered(
                run.network,
                run.stimuli,
                run.node,
                &mut SimWorkspace::new(),
                gopts,
            );
            assert_eq!(bits_of(got), bits_of(&alone), "{gopts:?}");
        }
    }

    /// One march over same-pattern `requests` must reproduce every lane's
    /// one-lane run: every sample and the final state, bit for bit.
    /// Returns the lanes' sample counts.
    fn assert_march_matches(requests: &[Request], mode: SimMode) -> Vec<usize> {
        let mut analyses = Vec::new();
        let sims: Vec<TransientSim<'_>> = requests
            .iter()
            .map(|(network, _)| {
                let sim = TransientSim::sharing(network, &analyses).unwrap();
                analyses.extend(sim.symbolic().cloned());
                sim
            })
            .collect();
        let opts: Vec<SimOptions> = requests
            .iter()
            .map(|(network, stimuli)| SimOptions::auto(network, stimuli))
            .collect();
        let runs: Vec<MarchRun<'_, '_>> = sims
            .iter()
            .zip(requests)
            .zip(&opts)
            .map(|((sim, (_, stimuli)), options)| MarchRun {
                sim,
                stimuli,
                options,
                start: None,
            })
            .collect();
        let mut ws = SimWorkspace::new();
        let batched = march_batch(&runs, mode, &mut ws);
        let mut lens = Vec::new();
        for (l, ((sim, (network, stimuli)), options)) in
            sims.iter().zip(requests).zip(&opts).enumerate()
        {
            let mut alone_ws = SimWorkspace::new();
            let alone = sim.run_with(stimuli, options, mode, &mut alone_ws).unwrap();
            let out = network.victim_output();
            let got = batched[l].as_ref().unwrap().probe(out).unwrap();
            let want = alone.probe(out).unwrap();
            let sample_bits =
                |w: &Waveform| -> Vec<u64> { w.samples().iter().map(|v| v.to_bits()).collect() };
            assert_eq!(sample_bits(got), sample_bits(want), "lane {l}, {mode:?}");
            let state_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
            assert_eq!(
                state_bits(ws.final_state(l)),
                state_bits(alone_ws.final_state(0)),
                "lane {l} final state, {mode:?}"
            );
            lens.push(want.len());
        }
        lens
    }

    fn shaped(shape: usize, arrival: f64, slew: f64, falling: bool) -> InputSignal {
        match (shape, falling) {
            (0, false) => InputSignal::rising_ramp(arrival, slew),
            (0, true) => InputSignal::falling_ramp(arrival, slew),
            (1, false) => InputSignal::rising_exp(arrival, slew),
            (1, true) => InputSignal::falling_exp(arrival, slew),
            _ => InputSignal::step(arrival),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        #[test]
        fn batched_lanes_are_bit_identical_to_one_lane_runs(
            segs in 8usize..12,
            lanes in proptest::collection::vec(
                (
                    (0.85..1.15f64, 0.85..1.15f64, 0.85..1.15f64),
                    (0usize..3, 0.0..120e-12f64, 15e-12..250e-12f64, proptest::arbitrary::any::<bool>()),
                ),
                2..=LANES,
            ),
            adaptive in proptest::arbitrary::any::<bool>(),
            auto_tier in proptest::arbitrary::any::<bool>(),
        ) {
            // Jittered values on one pattern, each lane with its own
            // input shape, arrival and slew: lanes differ in step, horizon
            // and (adaptive) level sequence, and finish at different steps.
            let requests: Vec<Request> = lanes
                .iter()
                .map(|&((r, cg, cc), (shape, arrival, slew, falling))| {
                    let (network, agg) = ladder(segs, [r, cg, cc]);
                    (network, vec![(agg, shaped(shape, arrival, slew, falling))])
                })
                .collect();
            let mode = if adaptive { SimMode::Adaptive } else { SimMode::Fixed };
            assert_march_matches(&requests, mode);
            let tier = if auto_tier { FastTier::Auto } else { FastTier::Off };
            assert_golden_batch_matches(&requests, &GoldenOpts { mode, tier });
        }
    }

    #[test]
    fn batches_cover_early_finishes_rejections_retries_and_mixed_requests() {
        let ramp = |arrival: f64, slew: f64| InputSignal::rising_ramp(arrival, slew);
        let (base, agg) = ladder(10, [1.0, 1.0, 1.0]);
        let b1 = xtalk_moments::tree::open_circuit_b1(&base);
        // Four lanes of one pattern: a fast ramp, a late slow ramp, a
        // step, and (lane 3) a slow exponential whose pulse outlasts its
        // auto horizon, so its golden retries from its own final state.
        let same: Vec<Request> = [
            ([1.0, 1.0, 1.0], ramp(0.0, 20e-12)),
            ([1.1, 0.9, 1.05], ramp(150e-12, 240e-12)),
            ([0.9, 1.1, 0.95], InputSignal::step(30e-12)),
            ([1.0, 1.0, 1.0], InputSignal::rising_exp(0.0, 1000.0 * b1)),
        ]
        .into_iter()
        .map(|(jitter, input)| {
            let (network, agg) = ladder(10, jitter);
            (network, vec![(agg, input)])
        })
        .collect();
        for mode in [SimMode::Fixed, SimMode::Adaptive] {
            PARTIAL_COMMITS.with(|c| c.set(0));
            let lens = assert_march_matches(&same, mode);
            assert!(
                lens.iter().any(|&n| n != lens[0]),
                "{mode:?}: lanes finish at different steps ({lens:?})"
            );
            if mode == SimMode::Adaptive {
                assert!(
                    PARTIAL_COMMITS.with(|c| c.get()) > 0,
                    "some lane rejects a step while another accepts"
                );
            }
            let retry = &same[3];
            let sim = TransientSim::new(&retry.0).unwrap();
            let first = sim
                .run_with(
                    &retry.1,
                    &SimOptions::auto(&retry.0, &retry.1),
                    mode,
                    &mut SimWorkspace::new(),
                )
                .unwrap();
            assert!(matches!(
                measure_noise(first.probe(retry.0.victim_output()).unwrap(), 1.0),
                Err(SimError::Truncated)
            ));
            for tier in [FastTier::Off, FastTier::Auto] {
                assert_golden_batch_matches(&same, &GoldenOpts { mode, tier });
            }
        }

        // A request mixing patterns, a dense-backend job and an empty
        // stimulus list: the same-pattern runs march together, the rest
        // alone, and every result matches its own call.
        let (lumped, lumped_agg) = coupled();
        let (other, other_agg) = ladder(11, [1.0, 1.0, 1.0]);
        let mut mixed: Vec<Request> = vec![
            (base.clone(), vec![(agg, ramp(0.0, 60e-12))]),
            (other, vec![(other_agg, ramp(10e-12, 90e-12))]),
            (lumped, vec![(lumped_agg, ramp(0.0, 50e-12))]),
            same[1].clone(),
            (base, Vec::new()),
        ];
        mixed.extend(same[..3].iter().cloned());
        let sims: Vec<TransientSim<'_>> = {
            let mut analyses = Vec::new();
            mixed[..4]
                .iter()
                .map(|(network, _)| {
                    let sim = TransientSim::sharing(network, &analyses).unwrap();
                    analyses.extend(sim.symbolic().cloned());
                    sim
                })
                .collect()
        };
        assert!(!sims[2].uses_sparse_solver());
        assert_eq!(
            plan_marches(sims.iter()),
            vec![vec![0, 3], vec![1], vec![2]]
        );
        for mode in [SimMode::Fixed, SimMode::Adaptive] {
            assert_golden_batch_matches(
                &mixed,
                &GoldenOpts {
                    mode,
                    tier: FastTier::Off,
                },
            );
        }
    }
}
