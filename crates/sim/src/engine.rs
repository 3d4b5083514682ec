#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::{SimError, Waveform};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU8, Ordering};
use xtalk_circuit::{signal::InputSignal, NetId, NetRole, Network, NodeId};
use xtalk_linalg::sparse::{Csr, Triplets};
use xtalk_linalg::{LdlSymbolic, LinalgError, Matrix, Solver};
use xtalk_moments::tree;

/// Time-marching strategy of the golden simulator. Both modes run the
/// same trapezoidal march on the base grid `SimOptions::dt`: fixed holds
/// it at the base step, adaptive doubles and halves the step on an
/// embedded local-truncation-error estimate. See
/// [`TransientSim::run_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimMode {
    /// The march held at `SimOptions::dt` (the default).
    #[default]
    Fixed,
    /// Step doubling/halving on the same base grid, driven by a
    /// trapezoidal-vs-backward-Euler error estimate; settled exponential
    /// tails take a handful of large steps instead of thousands.
    Adaptive,
}

impl SimMode {
    /// Parses the `--sim` flag's spelling (`fixed`/`adaptive`).
    pub fn parse(s: &str) -> Option<SimMode> {
        match s.to_ascii_lowercase().as_str() {
            "fixed" => Some(SimMode::Fixed),
            "adaptive" => Some(SimMode::Adaptive),
            _ => None,
        }
    }

    /// Canonical flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SimMode::Fixed => "fixed",
            SimMode::Adaptive => "adaptive",
        }
    }
}

/// Analytic fast-tier policy for the golden noise path: synthesize the
/// victim response from extracted poles (no time-stepping) when the fit
/// is trustworthy. See `golden::golden_noise_tiered`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FastTier {
    /// Never use the analytic tier (the default; always time-step).
    #[default]
    Off,
    /// Use the analytic tier whenever it is structurally possible
    /// (stable, well-behaved extracted poles), skipping the conditioning
    /// margins — for benchmarking the tier itself.
    On,
    /// Use the analytic tier only when the conditioning gate passes
    /// (pole separation and model-adequacy margins); otherwise fall back
    /// to the transient simulator.
    Auto,
}

impl FastTier {
    /// Parses the `--fast-tier` flag's spelling (`off`/`on`/`auto`).
    pub fn parse(s: &str) -> Option<FastTier> {
        match s.to_ascii_lowercase().as_str() {
            "off" => Some(FastTier::Off),
            "on" => Some(FastTier::On),
            "auto" => Some(FastTier::Auto),
            _ => None,
        }
    }

    /// Canonical flag spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            FastTier::Off => "off",
            FastTier::On => "on",
            FastTier::Auto => "auto",
        }
    }
}

/// Process-wide golden stepping mode (`--sim`), as `SimMode as u8`.
static SIM_MODE: AtomicU8 = AtomicU8::new(SimMode::Fixed as u8);

/// Forces the golden stepping mode for the process — the hook behind
/// `xtalk --sim` and the fixed-vs-adaptive equivalence gates in CI.
pub fn set_sim_mode_override(mode: SimMode) {
    SIM_MODE.store(mode as u8, Ordering::Relaxed);
}

/// The effective stepping mode: the override, else [`SimMode::Fixed`].
pub fn sim_mode() -> SimMode {
    let code = SIM_MODE.load(Ordering::Relaxed);
    [SimMode::Fixed, SimMode::Adaptive]
        .into_iter()
        .find(|&m| m as u8 == code)
        .unwrap_or_default()
}

/// Process-wide analytic fast-tier policy (`--fast-tier`), as
/// `FastTier as u8`.
static FAST_TIER: AtomicU8 = AtomicU8::new(FastTier::Off as u8);

/// Forces the analytic fast-tier policy for the process — the hook
/// behind `xtalk --fast-tier`.
pub fn set_fast_tier_override(tier: FastTier) {
    FAST_TIER.store(tier as u8, Ordering::Relaxed);
}

/// The effective fast-tier policy: the override, else [`FastTier::Off`].
pub fn fast_tier() -> FastTier {
    let code = FAST_TIER.load(Ordering::Relaxed);
    [FastTier::Off, FastTier::On, FastTier::Auto]
        .into_iter()
        .find(|&t| t as u8 == code)
        .unwrap_or_default()
}

/// Options controlling a transient run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimOptions {
    /// Base time step (s): the fixed march's step, and the adaptive
    /// march's smallest step and sample spacing.
    pub dt: f64,
    /// Simulation horizon (s); samples cover `0 ..= t_stop`.
    pub t_stop: f64,
    /// Nodes to record; when empty, only the victim output is recorded.
    pub probes: Vec<NodeId>,
}

impl SimOptions {
    /// Picks a step and horizon from the circuit's time constants and the
    /// stimuli: `dt` resolves both the fastest input transition and the
    /// aggregate time constant `b1`; `t_stop` spans the latest arrival
    /// plus several `b1` for full pulse decay.
    ///
    /// The defaults aim at metric-validation accuracy (relative waveform
    /// errors well below the metric errors being measured) at modest cost.
    pub fn auto(network: &Network, stimuli: &[(NetId, InputSignal)]) -> Self {
        let b1 = tree::open_circuit_b1(network).max(1e-15);
        let min_tr = stimuli
            .iter()
            .map(|(_, s)| {
                if s.transition() > 0.0 {
                    s.transition()
                } else {
                    f64::INFINITY
                }
            })
            .fold(f64::INFINITY, f64::min);
        let max_end = stimuli
            .iter()
            .map(|(_, s)| s.arrival() + s.transition())
            .fold(0.0_f64, f64::max);
        let scale = if min_tr.is_finite() {
            min_tr.min(b1)
        } else {
            b1
        };
        let mut dt = scale / 200.0;
        let t_stop = max_end + 25.0 * b1;
        // Corner cases (fast input on a slow net, or vice versa) can push
        // the naive step count into the millions; cap it — 2nd-order
        // accuracy keeps waveform errors far below metric errors even at
        // the cap.
        const MAX_STEPS: f64 = 50_000.0;
        if t_stop / dt > MAX_STEPS {
            dt = t_stop / MAX_STEPS;
        }
        SimOptions {
            dt,
            t_stop,
            probes: Vec::new(),
        }
    }

    /// Returns a copy with a different step (for convergence studies).
    pub fn with_dt(mut self, dt: f64) -> Self {
        self.dt = dt;
        self
    }

    /// Checks the span `t0 ..= t_stop` a run integrates.
    fn validate(&self, t0: f64) -> Result<(), SimError> {
        let span = self.t_stop - t0;
        if !(self.dt.is_finite() && self.dt > 0.0) {
            return Err(SimError::BadOptions {
                detail: format!("dt = {} must be positive and finite", self.dt),
            });
        }
        if !(span.is_finite() && span > self.dt) {
            return Err(SimError::BadOptions {
                detail: format!("t_stop = {} must exceed one step dt = {}", span, self.dt),
            });
        }
        if span / self.dt > 5e7 {
            return Err(SimError::BadOptions {
                detail: format!(
                    "{} steps requested; refusing runs beyond 5e7 steps",
                    (span / self.dt) as u64
                ),
            });
        }
        Ok(())
    }
}

/// Result of a transient run: recorded waveforms per probe node.
#[derive(Debug, Clone)]
pub struct SimResult {
    probes: Vec<(NodeId, Waveform)>,
}

impl SimResult {
    /// The waveform recorded at `node`, if it was probed.
    pub fn probe(&self, node: NodeId) -> Option<&Waveform> {
        self.probes
            .iter()
            .find(|(n, _)| *n == node)
            .map(|(_, w)| w)
    }

    /// All recorded `(node, waveform)` pairs.
    pub fn probes(&self) -> &[(NodeId, Waveform)] {
        &self.probes
    }
}

/// Reusable per-node buffers for transient runs.
///
/// [`TransientSim::run`] allocates its right-hand-side and solution
/// buffers on every call. In batch workloads (table sweeps,
/// multi-aggressor screens) thousands of runs execute back to back, so a
/// worker thread keeps one `SimWorkspace` and passes it to
/// [`TransientSim::run_with`], which recycles the buffers across runs.
/// A workspace never changes *what* is computed, so results are
/// bit-identical with and without one.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    b_now: Vec<f64>,
    b_next: Vec<f64>,
    rhs: Vec<f64>,
    v: Vec<f64>,
    v_next: Vec<f64>,
    /// Second trial solution for the adaptive march (the embedded
    /// backward-Euler step the error estimate compares against), with
    /// its own right-hand side and solve scratch.
    v_alt: Vec<f64>,
    rhs_alt: Vec<f64>,
    scratch_alt: Vec<f64>,
    /// Running per-component amplitude scale for the adaptive error
    /// norm (largest |v_i| seen this run).
    vscale: Vec<f64>,
    /// Solve scratch for the sparse backend (permuted intermediate).
    scratch: Vec<f64>,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Grows the per-node buffers to `n`, reusing prior capacity.
    fn resize(&mut self, n: usize) {
        for buf in [
            &mut self.b_now,
            &mut self.b_next,
            &mut self.rhs,
            &mut self.v,
            &mut self.v_next,
            &mut self.v_alt,
            &mut self.rhs_alt,
            &mut self.scratch_alt,
            &mut self.vscale,
            &mut self.scratch,
        ] {
            buf.clear();
            buf.resize(n, 0.0);
        }
    }

    /// Node voltages after the most recent run through this workspace —
    /// the state at the run's `t_stop`, for resuming a horizon extension
    /// without re-integrating from `t = 0`.
    pub(crate) fn final_state(&self) -> &[f64] {
        &self.v
    }
}

/// Factorization backend of one simulator: the stamped matrices in the
/// representation its solver consumes.
#[derive(Debug)]
enum Backend {
    /// Dense `G`/`C` with LU factorizations — small or structurally
    /// unsuitable systems.
    Dense { g: Matrix, c: Matrix },
    /// Sparse LDLᵀ over the union pattern of `G` and `C`: the stepping
    /// matrix `(C + coeff·G)/dt` lives on that pattern for every `dt`,
    /// so one symbolic analysis serves all timesteps and horizon
    /// retries.
    Sparse {
        /// Symbolic factorization (ordering, etree, structure of `L`) of
        /// the union pattern — computed once per simulator and shared by
        /// every factor built from it. Its [`LdlSymbolic::pattern`] is
        /// the G∪C pattern every stepping matrix lives on.
        symbolic: LdlSymbolic,
        /// `G` scattered onto the union pattern (zeros where absent).
        g_vals: Vec<f64>,
        /// `C` scattered onto the union pattern.
        c_vals: Vec<f64>,
    },
}

/// Transient MNA simulator over a validated [`Network`], integrating with
/// the trapezoidal rule.
///
/// Construction stamps `G` and `C` and factors `G` (for the DC initial
/// condition) once. Each run marches in the [`SimMode`] it is given:
/// fixed runs factor the stepping matrix for `dt` once; adaptive runs
/// factor it per doubling level, each with a backward-Euler companion
/// for the error estimate. [`TransientSim::run`] and
/// [`TransientSim::run_full`] march fixed with fresh buffers; the `_with`
/// variants take the mode and a reusable [`SimWorkspace`]. See the
/// [crate-level example](crate).
///
/// Two factorization backends exist behind one interface: sparse LDLᵀ
/// with a fill-reducing ordering (the default for the tree-like MNA
/// systems of RC interconnect, where factorization is O(nnz)) and dense
/// LU with partial pivoting (small or structurally unsuitable systems).
/// The stamped matrices choose between them (see [`TransientSim::new`]).
#[derive(Debug)]
pub struct TransientSim<'a> {
    network: &'a Network,
    backend: Backend,
    /// Factorization of `G`, reused for the DC initial condition of every
    /// run.
    dc: Solver,
}

impl<'a> TransientSim<'a> {
    /// Stamps the MNA matrices for `network` and factors `G` on the
    /// backend they call for: sparse LDLᵀ when
    /// [`prefer_sparse`](xtalk_linalg::prefer_sparse) accepts `G` and `C`
    /// is symmetric, dense LU otherwise, or when the sparse factorization
    /// of `G` fails.
    ///
    /// # Errors
    ///
    /// [`SimError::Numerical`] when `G` cannot be factored (conditioning
    /// pathology; structurally impossible for a validated network).
    pub fn new(network: &'a Network) -> Result<Self, SimError> {
        let (g, c) = Self::stamp_sparse(network);
        let sparse = xtalk_linalg::prefer_sparse(&g) && c.is_symmetric();
        Self::on_backend(network, g, c, sparse)
    }

    /// Stamps the sparse `G`/`C` matrices (same element order as the
    /// dense stamping, so merged entries accumulate identically).
    fn stamp_sparse(network: &Network) -> (Csr, Csr) {
        let n = network.node_count();
        let mut g = Triplets::new(n, n);
        let mut c = Triplets::new(n, n);
        for r in network.resistors() {
            let (a, b, cond) = (r.a.index(), r.b.index(), 1.0 / r.ohms);
            g.push(a, a, cond);
            g.push(b, b, cond);
            g.push(a, b, -cond);
            g.push(b, a, -cond);
        }
        for (_, net) in network.nets() {
            let d = net.driver();
            g.push(d.node.index(), d.node.index(), 1.0 / d.ohms);
            for s in net.sinks() {
                c.push(s.node.index(), s.node.index(), s.farads);
            }
        }
        for gc in network.ground_caps() {
            c.push(gc.node.index(), gc.node.index(), gc.farads);
        }
        for cc in network.coupling_caps() {
            let (a, b) = (cc.a.index(), cc.b.index());
            c.push(a, a, cc.farads);
            c.push(b, b, cc.farads);
            c.push(a, b, -cc.farads);
            c.push(b, a, -cc.farads);
        }
        (g.to_csr(), c.to_csr())
    }

    /// Factors `G` on the sparse backend when `sparse` is set and its
    /// numeric factorization succeeds, on the dense backend otherwise.
    fn on_backend(
        network: &'a Network,
        g_csr: Csr,
        c_csr: Csr,
        sparse: bool,
    ) -> Result<Self, SimError> {
        if sparse {
            let (pattern, g_pos, c_pos) =
                Csr::union_pattern(&g_csr, &c_csr).expect("same shape");
            let mut g_vals = vec![0.0; pattern.nnz()];
            for (k, &p) in g_pos.iter().enumerate() {
                g_vals[p] = g_csr.values()[k];
            }
            let mut c_vals = vec![0.0; pattern.nnz()];
            for (k, &p) in c_pos.iter().enumerate() {
                c_vals[p] = c_csr.values()[k];
            }
            let symbolic = LdlSymbolic::analyze(&pattern)?;
            // The DC factorization takes G on the union pattern (explicit
            // zeros where only C has entries). A numeric failure here
            // means G is not positive-definite after all; the pivoting
            // dense path below handles it.
            if let Ok(dc) = symbolic.factor_values(&g_vals) {
                xtalk_obs::counter!(perf: "sim.solve.path.sparse").add(1);
                return Ok(TransientSim {
                    network,
                    backend: Backend::Sparse {
                        symbolic,
                        g_vals,
                        c_vals,
                    },
                    dc: Solver::Sparse(Box::new(dc)),
                });
            }
        }
        // Dense fallback: stamp densely in the original element order so
        // this path reproduces the historical dense results bit-for-bit.
        let n = network.node_count();
        let mut g = Matrix::zeros(n, n);
        let mut c = Matrix::zeros(n, n);
        for r in network.resistors() {
            let (a, b, cond) = (r.a.index(), r.b.index(), 1.0 / r.ohms);
            g.add_at(a, a, cond);
            g.add_at(b, b, cond);
            g.add_at(a, b, -cond);
            g.add_at(b, a, -cond);
        }
        for (_, net) in network.nets() {
            let d = net.driver();
            g.add_at(d.node.index(), d.node.index(), 1.0 / d.ohms);
            for s in net.sinks() {
                c.add_at(s.node.index(), s.node.index(), s.farads);
            }
        }
        for gc in network.ground_caps() {
            c.add_at(gc.node.index(), gc.node.index(), gc.farads);
        }
        for cc in network.coupling_caps() {
            let (a, b) = (cc.a.index(), cc.b.index());
            c.add_at(a, a, cc.farads);
            c.add_at(b, b, cc.farads);
            c.add_at(a, b, -cc.farads);
            c.add_at(b, a, -cc.farads);
        }
        let g_lu = g.lu()?;
        xtalk_obs::counter!(perf: "sim.solve.path.dense").add(1);
        Ok(TransientSim {
            network,
            backend: Backend::Dense { g, c },
            dc: Solver::Dense(g_lu),
        })
    }

    /// `true` when this simulator runs on the sparse LDLᵀ backend.
    pub fn uses_sparse_solver(&self) -> bool {
        matches!(self.backend, Backend::Sparse { .. })
    }

    /// Integrates `C·dv/dt + G·v = B·u(t)` with the given stimuli and
    /// options, marching fixed. Aggressor nets without a stimulus are
    /// held quiet at 0; the victim source is always quiet (the
    /// noise-analysis convention).
    ///
    /// The initial state is the DC solution for the inputs before the run
    /// starts (falling inputs start their net at 1; an input switching at
    /// `t = 0`, a step included, has not switched yet).
    ///
    /// # Errors
    ///
    /// * [`SimError::StimulusOnNonAggressor`] / [`SimError::DuplicateStimulus`]
    ///   — malformed stimulus list.
    /// * [`SimError::BadOptions`] — non-positive step/horizon or an
    ///   excessive step count.
    /// * [`SimError::Numerical`] — factorization failure.
    pub fn run(
        &self,
        stimuli: &[(NetId, InputSignal)],
        options: &SimOptions,
    ) -> Result<SimResult, SimError> {
        self.run_with(stimuli, options, SimMode::Fixed, &mut SimWorkspace::new())
    }

    /// Like [`TransientSim::run`], marching in `mode` and reusing
    /// `workspace` buffers — the batch-workload entry point (one
    /// workspace per worker thread).
    ///
    /// # Errors
    ///
    /// As [`TransientSim::run`].
    pub fn run_with(
        &self,
        stimuli: &[(NetId, InputSignal)],
        options: &SimOptions,
        mode: SimMode,
        workspace: &mut SimWorkspace,
    ) -> Result<SimResult, SimError> {
        for (net, _) in stimuli {
            if self.network.net(*net).role() != NetRole::Aggressor {
                return Err(SimError::StimulusOnNonAggressor(*net));
            }
        }
        self.march(stimuli, options, mode, workspace, None)
    }

    /// Like [`TransientSim::run`], but any net — the victim included — may
    /// carry a stimulus. This is the entry point for *delay* analysis
    /// (victim switching while aggressors switch along or against it);
    /// the noise convention of [`TransientSim::run`] keeps the victim
    /// quiet.
    ///
    /// # Errors
    ///
    /// As [`TransientSim::run`], minus the role restriction.
    pub fn run_full(
        &self,
        stimuli: &[(NetId, InputSignal)],
        options: &SimOptions,
    ) -> Result<SimResult, SimError> {
        self.run_full_with(stimuli, options, SimMode::Fixed, &mut SimWorkspace::new())
    }

    /// Like [`TransientSim::run_full`], marching in `mode` and reusing
    /// `workspace` (see [`SimWorkspace`]).
    ///
    /// # Errors
    ///
    /// As [`TransientSim::run_full`].
    pub fn run_full_with(
        &self,
        stimuli: &[(NetId, InputSignal)],
        options: &SimOptions,
        mode: SimMode,
        workspace: &mut SimWorkspace,
    ) -> Result<SimResult, SimError> {
        self.march(stimuli, options, mode, workspace, None)
    }

    /// Resolves stimuli to `(driver node, 1/Rd, signal)` source entries.
    fn resolve_sources(&self, stimuli: &[(NetId, InputSignal)]) -> Vec<(usize, f64, InputSignal)> {
        stimuli
            .iter()
            .map(|(net, sig)| {
                let d = self.network.net(*net).driver();
                (d.node.index(), 1.0 / d.ohms, *sig)
            })
            .collect()
    }

    /// Builds the stepping systems for one doubling level (step `dt`):
    /// the trapezoidal system and, with `companion`, the backward-Euler
    /// system the adaptive error estimate compares against. Each scheme
    /// has a stepping matrix `(C + step·G)/dt` and a left-hand side
    /// `(C + lhs·G)/dt`, formed entry by entry. The sparse backend keeps
    /// the stepping matrices as value arrays on the simulator's G∪C
    /// pattern and factors the left-hand sides against its one symbolic
    /// analysis, so each level costs only value rewrites plus one numeric
    /// factorization per scheme.
    fn build_level(&self, dt: f64, companion: bool) -> Result<LevelSystem<'_>, SimError> {
        let scheme = |step: f64, lhs: f64| -> Result<Scheme<'_>, SimError> {
            Ok(match &self.backend {
                Backend::Dense { g, c } => {
                    let m =
                        |coeff: f64| c.add_scaled(g, coeff).expect("same shape").scaled(1.0 / dt);
                    Scheme {
                        step: StepMatrix::Own(Csr::from_dense(&m(step))),
                        lhs: Solver::Dense(m(lhs).lu()?),
                    }
                }
                Backend::Sparse {
                    symbolic,
                    g_vals,
                    c_vals,
                } => {
                    let inv_dt = 1.0 / dt;
                    let values = |coeff: f64| -> Vec<f64> {
                        g_vals
                            .iter()
                            .zip(c_vals)
                            .map(|(gv, cv)| (cv + coeff * gv) * inv_dt)
                            .collect()
                    };
                    Scheme {
                        step: StepMatrix::Shared(symbolic.pattern(), values(step)),
                        lhs: Solver::Sparse(Box::new(symbolic.factor_values(&values(lhs))?)),
                    }
                }
            })
        };
        Ok(LevelSystem {
            trap: scheme(-0.5 * dt, 0.5 * dt)?,
            be: companion.then(|| scheme(0.0, dt)).transpose()?,
        })
    }

    /// The one time-marching loop behind every run: trapezoidal steps on
    /// the base grid (`options.dt`, `options.t_stop`), recorded at every
    /// base-grid point.
    ///
    /// [`SimMode::Fixed`] holds the march at the base step. Under
    /// [`SimMode::Adaptive`] it doubles the step over quiescent spans
    /// and halves it back when the embedded error estimate objects,
    /// filling the base-grid points inside a long step by linear
    /// interpolation — so every consumer (probe waveforms, noise
    /// measurement) sees the same sample layout in both modes. Each
    /// accepted step advances with the trapezoidal solution; a
    /// backward-Euler companion step from the same state provides the
    /// local-truncation-error estimate (their difference bounds the
    /// lower-order error). Steps never reject at the base level, so the
    /// accuracy floor is the fixed march itself. The companion runs only
    /// where it can change a decision — not on base steps that end while
    /// the inputs still slew — and shares one pass over the stepping
    /// pattern and one sweep over `L` with the trapezoidal step (the
    /// sparse backend's pair kernels), so every sample is bit-identical
    /// to computing both schemes on every step.
    ///
    /// With `start = None` the march starts from the DC solution at
    /// `t = 0`; with `start = Some((t0, v0))` it starts from state `v0`
    /// (one voltage per node) at `t0` and samples cover `t0 ..= t_stop`
    /// (the first sample repeats `v0`) — the golden tier's horizon
    /// resume.
    pub(crate) fn march(
        &self,
        stimuli: &[(NetId, InputSignal)],
        options: &SimOptions,
        mode: SimMode,
        workspace: &mut SimWorkspace,
        start: Option<(f64, &[f64])>,
    ) -> Result<SimResult, SimError> {
        let t0 = start.map_or(0.0, |(t, _)| t);
        options.validate(t0)?;
        let mut seen: HashSet<NetId> = HashSet::with_capacity(stimuli.len());
        if let Some((net, _)) = stimuli.iter().find(|(net, _)| !seen.insert(*net)) {
            return Err(SimError::DuplicateStimulus(*net));
        }

        let dt = options.dt;
        let n_base = ((options.t_stop - t0) / dt).ceil() as usize;

        // Source conductance vector entries: input u_j enters as
        // (1/Rd_j)·u_j at the driver node.
        let sources = self.resolve_sources(stimuli);
        let rhs_inputs = |t: f64, out: &mut [f64]| {
            out.fill(0.0);
            for (node, cond, sig) in &sources {
                out[*node] += cond * sig.value(t);
            }
        };
        // Inputs stop slewing (ramps saturate, exponentials go smooth)
        // after the last arrival + transition; until then the step is
        // pinned to the base grid so no kink is ever stepped over.
        let active_end = stimuli
            .iter()
            .map(|(_, s)| s.arrival() + s.transition())
            .fold(0.0_f64, f64::max);
        let active_idx = (((active_end - t0) / dt).ceil() as usize).min(n_base);

        // Deepest doubling level: none when fixed; adaptive strides stay
        // within a quarter of the horizon (and a hard cap keeps level
        // systems bounded).
        let adaptive = mode == SimMode::Adaptive;
        let mut max_k = 0usize;
        while adaptive && max_k < 14 && (1usize << (max_k + 1)) <= n_base.max(4) / 4 {
            max_k += 1;
        }

        // Per-level stepping systems, built on first use; only adaptive
        // levels carry the backward-Euler companion.
        let mut levels: Vec<Option<LevelSystem<'_>>> = Vec::new();
        levels.resize_with(max_k + 1, || None);

        workspace.resize(self.network.node_count());
        let ws = workspace;

        // Initial condition: the given state, or the DC solution before
        // the run starts (`b_next` is rewritten before its first use).
        rhs_inputs(t0, &mut ws.b_now);
        match start {
            Some((_, v0)) => ws.v.copy_from_slice(v0),
            None => {
                dc_inputs(&sources, &mut ws.b_next);
                self.dc.solve_into(&ws.b_next, &mut ws.v, &mut ws.scratch)?;
            }
        }
        if adaptive {
            for (s, v) in ws.vscale.iter_mut().zip(&ws.v) {
                *s = v.abs();
            }
        }

        // Probe bookkeeping: resolve the probe set (the victim output
        // when unspecified) and reserve every trace to its final length
        // up front, before the stepping loop.
        let probe_nodes = if options.probes.is_empty() {
            vec![self.network.victim_output()]
        } else {
            options.probes.clone()
        };
        let mut traces: Vec<Vec<f64>> = Vec::with_capacity(probe_nodes.len());
        for node in &probe_nodes {
            let mut t = Vec::with_capacity(n_base + 1);
            t.push(ws.v[node.index()]);
            traces.push(t);
        }

        // Error-norm knobs: the estimate divides the trapezoidal-vs-BE
        // difference by `ATOL + RTOL·scale_i` per component, where
        // `scale_i` is the largest |v_i| seen. RTOL is set so accumulated
        // waveform error stays well below the closed-form metric errors
        // the golden tier exists to measure; ATOL sits below the
        // measurable pulse floor.
        const RTOL: f64 = 2e-4;
        const ATOL: f64 = 1e-9;
        /// Grow the step only when the estimate is comfortably inside
        /// the acceptance region.
        const GROW_THRESHOLD: f64 = 0.25;

        let mut idx = 0usize; // current base-grid index
        let mut k = 0usize; // current doubling level
        let mut accepted = 0u64;
        let mut rejected = 0u64;
        while idx < n_base {
            while k > 0 && (idx < active_idx || idx + (1usize << k) > n_base) {
                k -= 1;
            }
            let stride = 1usize << k;
            if levels[k].is_none() {
                levels[k] = Some(self.build_level(dt * stride as f64, adaptive)?);
            }
            let LevelSystem { trap, be } = levels[k].as_ref().expect("built above");
            let t1 = t0 + (idx + stride) as f64 * dt;
            rhs_inputs(t1, &mut ws.b_next);
            // The backward-Euler companion and its error norm matter only
            // where they can change a decision. A base-level step always
            // accepts and no step grows before `active_idx`, so a base
            // step that ends short of it skips both.
            let companion = be.as_ref().filter(|_| k > 0 || idx + 1 >= active_idx);
            // Trapezoidal trial step into v_next; with the companion, the
            // backward-Euler step from the same state into v_alt.
            // `rhs = step·v` (+ input terms); `step` carries the 1/dt
            // scaling.
            match companion {
                Some(be) => trap
                    .step
                    .mul_pair(&be.step, &ws.v, &mut ws.rhs, &mut ws.rhs_alt)?,
                None => trap.step.mul(&ws.v, &mut ws.rhs)?,
            }
            for (r, (b0, b1)) in ws.rhs.iter_mut().zip(ws.b_now.iter().zip(&ws.b_next)) {
                *r += 0.5 * (b0 + b1);
            }
            let err = match companion {
                Some(be) => {
                    for (r, b1) in ws.rhs_alt.iter_mut().zip(&ws.b_next) {
                        *r += b1;
                    }
                    trap.lhs.solve_pair_into(
                        &be.lhs,
                        (&ws.rhs, &ws.rhs_alt),
                        (&mut ws.v_next, &mut ws.v_alt),
                        (&mut ws.scratch, &mut ws.scratch_alt),
                    )?;
                    // Scaled max-norm of the scheme difference.
                    let mut err = 0.0_f64;
                    for ((trap, be), scale) in ws.v_next.iter().zip(&ws.v_alt).zip(&ws.vscale) {
                        let tol = ATOL + RTOL * scale.max(trap.abs());
                        err = err.max((trap - be).abs() / tol);
                    }
                    Some(err)
                }
                None => {
                    trap.lhs
                        .solve_into(&ws.rhs, &mut ws.v_next, &mut ws.scratch)?;
                    None
                }
            };
            if k == 0 || err.is_some_and(|e| e <= 1.0) {
                // Accept: record the end state, after filling a long
                // step's skipped base-grid samples by linear interpolation
                // between the endpoint states.
                accepted += 1;
                for (trace, node) in traces.iter_mut().zip(&probe_nodes) {
                    let v0 = ws.v[node.index()];
                    let v1 = ws.v_next[node.index()];
                    for j in 1..stride {
                        let frac = j as f64 / stride as f64;
                        trace.push(v0 + (v1 - v0) * frac);
                    }
                    trace.push(v1);
                }
                std::mem::swap(&mut ws.v, &mut ws.v_next);
                std::mem::swap(&mut ws.b_now, &mut ws.b_next);
                if adaptive {
                    for (s, v) in ws.vscale.iter_mut().zip(&ws.v) {
                        *s = s.max(v.abs());
                    }
                }
                idx += stride;
                if err.is_some_and(|e| e < GROW_THRESHOLD) && k < max_k && idx >= active_idx {
                    k += 1;
                }
            } else {
                rejected += 1;
                k -= 1; // a rejection implies k > 0 here
            }
        }

        if adaptive {
            xtalk_obs::counter!(perf: "sim.adaptive.runs").add(1);
            xtalk_obs::histogram!(perf: "sim.adaptive.steps").record(accepted + rejected);
            xtalk_obs::counter!(perf: "sim.adaptive.steps_saved")
                .add((n_base as u64).saturating_sub(accepted + rejected));
        }

        let probes = probe_nodes
            .into_iter()
            .zip(traces)
            .map(|(node, samples)| (node, Waveform::new(t0, dt, samples)))
            .collect();
        Ok(SimResult { probes })
    }
}

/// Prepared stepping systems for one doubling level.
struct LevelSystem<'p> {
    /// Trapezoidal rule, `(C/dt + G/2)·v1 = (C/dt − G/2)·v0 + (b0 + b1)/2`.
    trap: Scheme<'p>,
    /// Backward-Euler companion of the adaptive error estimate,
    /// `(C/dt + G)·v1 = (C/dt)·v0 + b1`. Adaptive levels only.
    be: Option<Scheme<'p>>,
}

/// One integration scheme at one step: the stepping matrix (the per-step
/// matvec operand) and the factored left-hand side.
struct Scheme<'p> {
    step: StepMatrix<'p>,
    lhs: Solver,
}

/// A stepping matrix in its backend's representation.
enum StepMatrix<'p> {
    /// Dense backend: compressed on its own nonzeros.
    Own(Csr),
    /// Sparse backend: a value array on the simulator's G∪C pattern.
    Shared(&'p Csr, Vec<f64>),
}

impl StepMatrix<'_> {
    /// `out = self·v`.
    fn mul(&self, v: &[f64], out: &mut [f64]) -> Result<(), LinalgError> {
        match self {
            StepMatrix::Own(m) => m.mul_vec_into(v, out),
            StepMatrix::Shared(pattern, values) => pattern.mul_vec_values_into(values, v, out),
        }
    }

    /// `out = self·v` and `out_other = other·v`, each bit-equal to its
    /// single product; one pass over a shared pattern.
    fn mul_pair(
        &self,
        other: &StepMatrix<'_>,
        v: &[f64],
        out: &mut [f64],
        out_other: &mut [f64],
    ) -> Result<(), LinalgError> {
        match (self, other) {
            (StepMatrix::Shared(pattern, a), StepMatrix::Shared(_, b)) => {
                pattern.mul_vec_pair_into((a, b), v, (out, out_other))
            }
            _ => {
                self.mul(v, out)?;
                other.mul(v, out_other)
            }
        }
    }
}

/// Right-hand side of the DC initial condition: every source at the value
/// its input rests at before the run starts. An input that switches at
/// `t ≥ 0` rests at [`InputSignal::initial_value`] — a step at `t = 0` has
/// not switched yet, although its `value(0)` is already 1 — while one that
/// switched earlier rests at `value(0)`. For every other input the two
/// agree bit for bit.
fn dc_inputs(sources: &[(usize, f64, InputSignal)], out: &mut [f64]) {
    out.fill(0.0);
    for (node, cond, sig) in sources {
        let rest = if sig.arrival() >= 0.0 {
            sig.initial_value()
        } else {
            sig.value(0.0)
        };
        out[*node] += cond * rest;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_circuit::NetworkBuilder;

    impl<'a> TransientSim<'a> {
        /// [`TransientSim::new`] on a forced backend, for the tests that
        /// hold the two against each other.
        fn new_forced(network: &'a Network, sparse: bool) -> Result<Self, SimError> {
            let (g, c) = Self::stamp_sparse(network);
            Self::on_backend(network, g, c, sparse)
        }
    }

    /// Lumped RC victim driven by one coupled aggressor node.
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

    #[test]
    fn quiet_network_stays_at_zero() {
        let (net, _) = coupled_pair(100.0, 10e-15, 5e-15);
        let sim = TransientSim::new(&net).unwrap();
        let opts = SimOptions {
            dt: 1e-12,
            t_stop: 1e-10,
            probes: vec![],
        };
        let res = sim.run(&[], &opts).unwrap();
        let w = res.probe(net.victim_output()).unwrap();
        assert!(w.samples().iter().all(|&v| v.abs() < 1e-15));
    }

    #[test]
    fn falling_input_starts_aggressor_high() {
        let (net, agg) = coupled_pair(100.0, 10e-15, 5e-15);
        let sim = TransientSim::new(&net).unwrap();
        let agg_node = net.net(agg).driver().node;
        let opts = SimOptions {
            dt: 1e-13,
            t_stop: 2e-9,
            probes: vec![agg_node, net.victim_output()],
        };
        let stim = [(agg, InputSignal::falling_ramp(1e-10, 1e-10))];
        let res = sim.run(&stim, &opts).unwrap();
        let wa = res.probe(agg_node).unwrap();
        assert!((wa.samples()[0] - 1.0).abs() < 1e-9);
        // Aggressor ends low; victim noise is negative-going.
        assert!(wa.samples().last().unwrap().abs() < 1e-3);
        let wv = res.probe(net.victim_output()).unwrap();
        let min = wv.samples().iter().cloned().fold(f64::INFINITY, f64::min);
        assert!(min < -1e-3, "expected negative noise, min = {min}");
    }

    #[test]
    fn stimulus_validation() {
        let (net, agg) = coupled_pair(100.0, 10e-15, 5e-15);
        let sim = TransientSim::new(&net).unwrap();
        let opts = SimOptions {
            dt: 1e-12,
            t_stop: 1e-10,
            probes: vec![],
        };
        let sig = InputSignal::rising_ramp(0.0, 1e-10);
        assert!(matches!(
            sim.run(&[(net.victim(), sig)], &opts),
            Err(SimError::StimulusOnNonAggressor(_))
        ));
        assert!(matches!(
            sim.run(&[(agg, sig), (agg, sig)], &opts),
            Err(SimError::DuplicateStimulus(_))
        ));
    }

    #[test]
    fn options_validation() {
        let (net, agg) = coupled_pair(100.0, 10e-15, 5e-15);
        let sim = TransientSim::new(&net).unwrap();
        let sig = InputSignal::rising_ramp(0.0, 1e-10);
        for bad in [
            SimOptions {
                dt: 0.0,
                t_stop: 1e-10,
                probes: vec![],
            },
            SimOptions {
                dt: 1e-12,
                t_stop: 1e-13,
                probes: vec![],
            },
            SimOptions {
                dt: 1e-22,
                t_stop: 1.0,
                probes: vec![],
            },
        ] {
            assert!(matches!(
                sim.run(&[(agg, sig)], &bad),
                Err(SimError::BadOptions { .. })
            ));
        }
    }

    #[test]
    fn workspace_reuse_is_bit_identical_across_runs_and_networks() {
        // One workspace threaded through runs on two different networks,
        // two different steps and both stepping modes must reproduce the
        // fresh-workspace samples exactly: nothing a run leaves in the
        // buffers may reach the next one.
        let (net_a, agg_a) = coupled_pair(100.0, 10e-15, 5e-15);
        let (net_b, agg_b) = coupled_pair(350.0, 22e-15, 9e-15);
        let sim_a = TransientSim::new(&net_a).unwrap();
        let sim_b = TransientSim::new(&net_b).unwrap();
        let stim_a = [(agg_a, InputSignal::rising_ramp(0.0, 1e-10))];
        let stim_b = [(agg_b, InputSignal::falling_ramp(5e-11, 2e-10))];
        let opts = SimOptions {
            dt: 1e-12,
            t_stop: 1e-9,
            probes: vec![],
        };
        let opts_coarse = opts.clone().with_dt(4e-12);

        let mut ws = SimWorkspace::new();
        for (sim, net, stim, o, mode) in [
            (&sim_a, &net_a, &stim_a[..], &opts, SimMode::Fixed),
            (&sim_b, &net_b, &stim_b[..], &opts, SimMode::Fixed),
            (&sim_a, &net_a, &stim_a[..], &opts_coarse, SimMode::Fixed),
            (&sim_a, &net_a, &stim_a[..], &opts, SimMode::Adaptive),
            (&sim_a, &net_a, &stim_a[..], &opts, SimMode::Fixed),
        ] {
            let reused = sim.run_with(stim, o, mode, &mut ws).unwrap();
            let fresh = sim
                .run_with(stim, o, mode, &mut SimWorkspace::new())
                .unwrap();
            let out = net.victim_output();
            assert_eq!(
                reused.probe(out).unwrap().samples(),
                fresh.probe(out).unwrap().samples(),
            );
        }
    }

    /// Distributed RC ladder pair (victim + aggressor, `segs` segments
    /// each) with coupling caps along the span — large enough to engage
    /// the sparse LDLᵀ backend under `Auto`.
    fn coupled_ladder(segs: usize) -> (Network, NetId) {
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
        let net = b.build().unwrap();
        let agg = net.aggressor_nets().next().unwrap().0;
        (net, agg)
    }

    #[test]
    fn auto_selects_sparse_for_ladders_and_dense_for_lumped() {
        let (ladder, _) = coupled_ladder(12);
        let sim = TransientSim::new(&ladder).unwrap();
        assert!(sim.uses_sparse_solver());
        let (lumped, _) = coupled_pair(100.0, 10e-15, 5e-15);
        let sim = TransientSim::new(&lumped).unwrap();
        assert!(!sim.uses_sparse_solver());
        // A forced-sparse simulator still engages on the tiny system …
        let sim = TransientSim::new_forced(&lumped, true).unwrap();
        assert!(sim.uses_sparse_solver());
        // … and a forced-dense one overrides the ladder heuristic.
        let sim = TransientSim::new_forced(&ladder, false).unwrap();
        assert!(!sim.uses_sparse_solver());
    }

    #[test]
    fn sparse_and_dense_backends_agree() {
        for segs in [12, 16, 32] {
            let (net, agg) = coupled_ladder(segs);
            let stim = [(agg, InputSignal::rising_ramp(5e-11, 1.2e-10))];
            let opts = SimOptions::auto(&net, &stim);
            let dense = TransientSim::new_forced(&net, false).unwrap();
            let sparse = TransientSim::new_forced(&net, true).unwrap();
            assert!(sparse.uses_sparse_solver() && !dense.uses_sparse_solver());
            for mode in [SimMode::Fixed, SimMode::Adaptive] {
                let rd = dense
                    .run_with(&stim, &opts, mode, &mut SimWorkspace::new())
                    .unwrap();
                let rs = sparse
                    .run_with(&stim, &opts, mode, &mut SimWorkspace::new())
                    .unwrap();
                let out = net.victim_output();
                let (wd, ws) = (rd.probe(out).unwrap(), rs.probe(out).unwrap());
                assert_eq!(wd.samples().len(), ws.samples().len());
                // Peak noise is well above 1e-3; per-sample agreement to
                // 1e-10 makes the backends interchangeable for every metric
                // the sweep derives from the waveform.
                for (d, s) in wd.samples().iter().zip(ws.samples()) {
                    assert!(
                        (d - s).abs() < 1e-10,
                        "{segs} segments, {mode:?}: dense {d} vs sparse {s} diverged"
                    );
                }
                let pd = crate::measure_noise(wd, 1.0).unwrap();
                let ps = crate::measure_noise(ws, 1.0).unwrap();
                for (name, d, s) in [
                    ("vp", pd.vp, ps.vp),
                    ("tp", pd.tp, ps.tp),
                    ("t0", pd.t0, ps.t0),
                    ("t1", pd.t1, ps.t1),
                    ("t2", pd.t2, ps.t2),
                    ("wn", pd.wn, ps.wn),
                    ("area", pd.area, ps.area),
                ] {
                    assert!(
                        (d - s).abs() <= 1e-9 * d.abs(),
                        "{segs} segments, {mode:?}: {name} dense {d} vs sparse {s}"
                    );
                }
            }
        }
    }

    #[test]
    fn sparse_workspace_reuse_is_bit_identical() {
        // Runs across dt and mode changes must reproduce fresh-workspace
        // samples exactly, including when the workspace hops between
        // backends and simulators.
        let (net, agg) = coupled_ladder(14);
        let (lumped, agg_l) = coupled_pair(100.0, 10e-15, 5e-15);
        let sparse = TransientSim::new_forced(&net, true).unwrap();
        let dense = TransientSim::new_forced(&lumped, false).unwrap();
        let stim = [(agg, InputSignal::rising_ramp(0.0, 1e-10))];
        let stim_l = [(agg_l, InputSignal::rising_ramp(0.0, 1e-10))];
        let opts = SimOptions {
            dt: 2e-12,
            t_stop: 1.5e-9,
            probes: vec![],
        };
        let opts_coarse = opts.clone().with_dt(8e-12);
        let mut ws = SimWorkspace::new();
        for (sim, net, stim, o, mode) in [
            (&sparse, &net, &stim[..], &opts, SimMode::Fixed),
            (&sparse, &net, &stim[..], &opts_coarse, SimMode::Fixed),
            (&dense, &lumped, &stim_l[..], &opts, SimMode::Fixed), // backend hop
            (&sparse, &net, &stim[..], &opts, SimMode::Adaptive),
            (&sparse, &net, &stim[..], &opts, SimMode::Fixed),
        ] {
            let reused = sim.run_with(stim, o, mode, &mut ws).unwrap();
            let fresh = sim
                .run_with(stim, o, mode, &mut SimWorkspace::new())
                .unwrap();
            let out = net.victim_output();
            assert_eq!(
                reused.probe(out).unwrap().samples(),
                fresh.probe(out).unwrap().samples(),
            );
        }
    }

    #[test]
    fn adaptive_matches_fixed_waveform_closely() {
        // Same base grid, same sample count; the adaptive march with its
        // error control must stay within a small fraction of the peak of
        // the fixed march everywhere, on both backends.
        for (net, agg) in [coupled_pair(500.0, 20e-15, 10e-15), coupled_ladder(16)] {
            let stim = [(agg, InputSignal::rising_ramp(2e-11, 1.2e-10))];
            let opts = SimOptions::auto(&net, &stim);
            let sim = TransientSim::new(&net).unwrap();
            let fixed = sim.run(&stim, &opts).unwrap();
            let adaptive = sim
                .run_with(&stim, &opts, SimMode::Adaptive, &mut SimWorkspace::new())
                .unwrap();
            let out = net.victim_output();
            let wf = fixed.probe(out).unwrap();
            let wa = adaptive.probe(out).unwrap();
            assert_eq!(wf.samples().len(), wa.samples().len());
            let vp = wf.max().1;
            assert!(vp > 1e-3);
            for (f, a) in wf.samples().iter().zip(wa.samples()) {
                assert!(
                    (f - a).abs() < 2e-3 * vp,
                    "fixed {f} vs adaptive {a} (vp {vp})"
                );
            }
        }
    }

    #[test]
    fn adaptive_validates_like_fixed() {
        let (net, agg) = coupled_pair(100.0, 10e-15, 5e-15);
        let sim = TransientSim::new(&net).unwrap();
        let sig = InputSignal::rising_ramp(0.0, 1e-10);
        let bad = SimOptions {
            dt: 0.0,
            t_stop: 1e-10,
            probes: vec![],
        };
        assert!(matches!(
            sim.run_with(
                &[(agg, sig)],
                &bad,
                SimMode::Adaptive,
                &mut SimWorkspace::new()
            ),
            Err(SimError::BadOptions { .. })
        ));
        assert!(matches!(
            sim.run_with(
                &[(net.victim(), sig)],
                &SimOptions::auto(&net, &[(agg, sig)]),
                SimMode::Adaptive,
                &mut SimWorkspace::new()
            ),
            Err(SimError::StimulusOnNonAggressor(_))
        ));
    }

    #[test]
    fn span_resume_continues_the_fixed_march() {
        // Integrating [0, T] in one go vs [0, T/2] + resume [T/2, T] at
        // the same dt must agree to integration rounding: the resumed
        // segment replays the identical recurrence from the start state.
        let (net, agg) = coupled_ladder(12);
        let stim = [(agg, InputSignal::rising_ramp(0.0, 1e-10))];
        let sim = TransientSim::new(&net).unwrap();
        let dt = 2e-12;
        let full_opts = SimOptions {
            dt,
            t_stop: 2e-9,
            probes: vec![],
        };
        let full = sim.run(&stim, &full_opts).unwrap();
        let out = net.victim_output();
        let wf = full.probe(out).unwrap();

        let half_opts = full_opts.clone().with_dt(dt); // same dt, half span
        let half_opts = SimOptions {
            t_stop: 1e-9,
            ..half_opts
        };
        let mut ws = SimWorkspace::new();
        let first = sim
            .run_with(&stim, &half_opts, SimMode::Fixed, &mut ws)
            .unwrap();
        let first_wf = first.probe(out).unwrap();
        let n_half = first_wf.samples().len();
        let t_end = (n_half - 1) as f64 * dt;
        let state: Vec<f64> = ws.final_state().to_vec();
        let second = sim
            .march(
                &stim,
                &full_opts,
                SimMode::Fixed,
                &mut ws,
                Some((t_end, &state)),
            )
            .unwrap();
        let second_wf = second.probe(out).unwrap();
        assert_eq!(second_wf.samples()[0], *first_wf.samples().last().unwrap());

        // Stitch and compare against the one-shot run.
        let stitched: Vec<f64> = first_wf
            .samples()
            .iter()
            .chain(&second_wf.samples()[1..])
            .copied()
            .collect();
        assert_eq!(stitched.len(), wf.samples().len());
        for (s, f) in stitched.iter().zip(wf.samples()) {
            assert!((s - f).abs() < 1e-12, "stitched {s} vs full {f}");
        }
    }

    #[test]
    fn mode_and_tier_flags_parse() {
        assert_eq!(SimMode::parse("fixed"), Some(SimMode::Fixed));
        assert_eq!(SimMode::parse("ADAPTIVE"), Some(SimMode::Adaptive));
        assert_eq!(SimMode::parse("nope"), None);
        assert_eq!(SimMode::Adaptive.as_str(), "adaptive");
        assert_eq!(FastTier::parse("off"), Some(FastTier::Off));
        assert_eq!(FastTier::parse("On"), Some(FastTier::On));
        assert_eq!(FastTier::parse("auto"), Some(FastTier::Auto));
        assert_eq!(FastTier::parse(""), None);
        assert_eq!(FastTier::Auto.as_str(), "auto");
        assert_eq!(SimMode::default(), SimMode::Fixed);
        assert_eq!(FastTier::default(), FastTier::Off);
    }

    #[test]
    fn auto_options_cover_the_pulse() {
        let (net, agg) = coupled_pair(500.0, 20e-15, 10e-15);
        let stim = [(agg, InputSignal::rising_ramp(2e-10, 1e-10))];
        let opts = SimOptions::auto(&net, &stim);
        assert!(opts.t_stop > 3e-10);
        assert!(opts.dt < 1e-11);
        let sim = TransientSim::new(&net).unwrap();
        let res = sim.run(&stim, &opts).unwrap();
        let w = res.probe(net.victim_output()).unwrap();
        // Pulse decays by the end of the window.
        let (_, vp) = w.max();
        assert!(vp > 0.0);
        assert!(w.samples().last().unwrap().abs() < 1e-3 * vp);
    }
}
