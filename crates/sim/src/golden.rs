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

use crate::{
    analytic, fast_tier, measure_noise, sim_mode, FastTier, NoiseWaveformParams, SimError, SimMode,
    SimOptions, SimWorkspace, TransientSim, Waveform,
};
use xtalk_circuit::{signal::InputSignal, NetId, Network, NodeId};

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
/// with the grown horizon.
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
    let polarity = match stimuli.first() {
        Some((_, input)) => input.noise_polarity(),
        None => {
            return Err(SimError::BadOptions {
                detail: "golden measurement needs at least one stimulus".into(),
            })
        }
    };
    let _span = xtalk_obs::span!("sim.golden");
    xtalk_obs::counter!("sim.golden.runs").add(1);

    if gopts.tier != FastTier::Off {
        match analytic::analytic_noise(network, stimuli, node, gopts.tier) {
            Ok(params) => {
                xtalk_obs::counter!(perf: "sim.fast_tier.hits").add(1);
                return Ok((params, GoldenTier::Analytic));
            }
            Err(reason) => {
                xtalk_obs::counter!(perf: "sim.fast_tier.fallback").add(1);
                reason.record();
            }
        }
    }

    let sim = TransientSim::new(network)?;
    let mut opts = SimOptions::auto(network, stimuli);
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
    let res = sim.run_with(stimuli, &opts, gopts.mode, workspace)?;
    let waveform = res.probe(node).ok_or_else(probe_err)?;
    match measure_noise(waveform, polarity) {
        Ok(params) => {
            record_steps(opts.t_stop);
            return Ok((params, GoldenTier::Transient));
        }
        Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {}
        Err(e) => return Err(e),
    }

    // A truncated pulse grows the horizon 4× per retry. The adaptive
    // march, whose settled tail costs only a handful of steps, re-runs
    // from DC with the step grown alike (the base-grid point count stays
    // constant). The fixed march resumes from its final state instead of
    // re-paying the covered horizon, until the stitched waveform would
    // outgrow `RESUME_SAMPLE_CAP`. `samples` is the uniform waveform so
    // far and `state` the node voltages at its end.
    let mut samples: Vec<f64> = waveform.samples().to_vec();
    let mut cur_dt = opts.dt;
    let mut state: Vec<f64> = workspace.final_state().to_vec();
    let ratio = HORIZON_GROWTH as usize;
    loop {
        xtalk_obs::counter!("sim.golden.horizon_retries").add(1);
        if gopts.mode == SimMode::Adaptive
            || samples.len().saturating_mul(ratio) > RESUME_SAMPLE_CAP
        {
            cur_dt *= HORIZON_GROWTH;
            opts.t_stop *= HORIZON_GROWTH;
            let full = SimOptions {
                dt: cur_dt,
                ..opts.clone()
            };
            let res = sim.run_with(stimuli, &full, gopts.mode, workspace)?;
            samples = res.probe(node).ok_or_else(probe_err)?.samples().to_vec();
        } else {
            xtalk_obs::counter!("sim.golden.retry_resumes").add(1);
            // Extend from the exact end of the stitched grid with a 4×
            // coarser step (the tail is smooth), then upsample the
            // extension back onto the fine grid so the waveform stays
            // uniform.
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
        }
        state.clear();
        state.extend_from_slice(workspace.final_state());
        let wave = Waveform::new(0.0, cur_dt, samples.clone());
        match measure_noise(&wave, polarity) {
            Ok(params) => {
                record_steps(opts.t_stop);
                return Ok((params, GoldenTier::Transient));
            }
            Err(SimError::Truncated) if opts.t_stop < MAX_HORIZON => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
}
