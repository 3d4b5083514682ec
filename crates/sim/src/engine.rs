#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::{SimError, Waveform};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU8, Ordering};
use xtalk_circuit::{signal::InputSignal, NetId, NetRole, Network, NodeId};
use xtalk_linalg::sparse::{Csr, Triplets};
use xtalk_linalg::{LdlFactors, LdlSymbolic, LuFactors, Matrix, Solver};
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

    /// [`SimResult::probe`] by value.
    pub(crate) fn into_probe(self, node: NodeId) -> Option<Waveform> {
        self.probes
            .into_iter()
            .find(|(n, _)| *n == node)
            .map(|(_, w)| w)
    }
}

/// Lane width of the batched march: golden runs whose stamped `G ∪ C`
/// patterns agree march together this many at a time
/// ([`crate::golden::golden_noise_batch`]). Picked from the measured
/// 1/2/4/8-lane sweep recorded in EXPERIMENTS.md; not a knob.
pub const LANES: usize = 4;

/// Reusable per-node buffers for transient runs.
///
/// [`TransientSim::run`] allocates its right-hand-side and solution
/// buffers on every call. In batch workloads (table sweeps,
/// multi-aggressor screens) thousands of runs execute back to back, so a
/// worker thread keeps one `SimWorkspace` and passes it to
/// [`TransientSim::run_with`], which recycles the buffers across runs.
/// The batched march keeps its own lane-interleaved buffers here too,
/// sized on its first use. A workspace never changes *what* is computed,
/// so results are bit-identical with and without one.
#[derive(Debug, Default)]
pub struct SimWorkspace {
    /// Buffers of the one-lane march.
    one: LaneBufs<1>,
    /// Buffers of the batched march.
    wide: LaneBufs<LANES>,
    /// Node voltages at the end of each lane of the most recent march —
    /// the state at its `t_stop`, for resuming a horizon extension
    /// without re-integrating from `t = 0`.
    finals: Vec<Vec<f64>>,
}

impl SimWorkspace {
    /// Creates an empty workspace; buffers are sized on first use.
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Node voltages at the end of lane `lane` of the most recent march.
    pub(crate) fn final_state(&self, lane: usize) -> &[f64] {
        &self.finals[lane]
    }
}

/// Per-node buffers of a march over `L` lanes, interleaved by node: entry
/// `i` holds node `i`'s value in every lane.
#[derive(Debug, Default)]
struct LaneBufs<const L: usize> {
    b_now: Vec<[f64; L]>,
    b_next: Vec<[f64; L]>,
    rhs: Vec<[f64; L]>,
    v: Vec<[f64; L]>,
    v_next: Vec<[f64; L]>,
    /// Second trial solution for the adaptive march (the embedded
    /// backward-Euler step the error estimate compares against), with
    /// its own right-hand side and solve scratch.
    v_alt: Vec<[f64; L]>,
    rhs_alt: Vec<[f64; L]>,
    scratch_alt: Vec<[f64; L]>,
    /// Running per-component amplitude scale for the adaptive error
    /// norm (largest |v_i| seen this run).
    vscale: Vec<[f64; L]>,
    /// Solve scratch for the sparse backend (permuted intermediate).
    scratch: Vec<[f64; L]>,
    /// Every lane's current trapezoidal and backward-Euler stepping
    /// matrices, as values on their one pattern.
    trap_step: Vec<[f64; L]>,
    be_step: Vec<[f64; L]>,
}

impl<const L: usize> LaneBufs<L> {
    /// Sizes every buffer to `n` nodes and the stepping values to `nnz`
    /// entries, all zero, reusing prior capacity.
    fn resize(&mut self, n: usize, nnz: usize) {
        for buf in self.all() {
            buf.clear();
            buf.resize(n, [0.0; L]);
        }
        for buf in [&mut self.trap_step, &mut self.be_step] {
            buf.clear();
            buf.resize(nnz, [0.0; L]);
        }
    }

    /// Zeroes lane `l` everywhere: an idle lane then steps zeros, which
    /// no kernel can turn into anything else.
    fn clear_lane(&mut self, l: usize) {
        for buf in self.all() {
            for e in buf.iter_mut() {
                e[l] = 0.0;
            }
        }
    }

    fn all(&mut self) -> [&mut Vec<[f64; L]>; 10] {
        [
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
        ]
    }
}

/// Factorization backend of one simulator.
#[derive(Debug)]
enum Backend {
    /// Dense `G`/`C` with LU factorizations — small or structurally
    /// unsuitable systems — and the `G ∪ C` pattern the stepping matrices
    /// live on.
    Dense { g: Matrix, c: Matrix, pattern: Csr },
    /// Sparse LDLᵀ: one symbolic factorization (ordering, etree,
    /// structure of `L`) of the `G ∪ C` pattern, shared by every factor
    /// built from it — every `dt`, every horizon retry, and every
    /// simulator of the same pattern. Its [`LdlSymbolic::pattern`] is the
    /// pattern the stepping matrices live on.
    Sparse { symbolic: LdlSymbolic },
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
    /// `G` scattered onto the `G ∪ C` pattern (zeros where absent): the
    /// stepping matrix `(C + coeff·G)/dt` lives on that pattern for every
    /// `dt`, as a bare value array.
    g_vals: Vec<f64>,
    /// `C` scattered onto the pattern.
    c_vals: Vec<f64>,
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
        Self::sharing(network, &[])
    }

    /// Like [`TransientSim::new`], reusing the symbolic analysis of the
    /// first of `analyzed` whose pattern equals this network's stamped
    /// `G ∪ C` pattern. The analysis depends on the pattern alone, so a
    /// shared one factors every value bit-identically to a fresh one;
    /// simulators that share one can march as lanes of one batch.
    pub(crate) fn sharing(
        network: &'a Network,
        analyzed: &[LdlSymbolic],
    ) -> Result<Self, SimError> {
        let (g, c) = Self::stamp_sparse(network);
        let sparse = xtalk_linalg::prefer_sparse(&g) && c.is_symmetric();
        Self::on_backend(network, g, c, sparse.then_some(analyzed))
    }

    /// The symbolic analysis of the sparse backend.
    pub(crate) fn symbolic(&self) -> Option<&LdlSymbolic> {
        match &self.backend {
            Backend::Sparse { symbolic, .. } => Some(symbolic),
            Backend::Dense { .. } => None,
        }
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

    /// Factors `G` on the sparse backend when `sparse` is set (with the
    /// analyses it may reuse) and its numeric factorization succeeds, on
    /// the dense backend otherwise.
    fn on_backend(
        network: &'a Network,
        g_csr: Csr,
        c_csr: Csr,
        sparse: Option<&[LdlSymbolic]>,
    ) -> Result<Self, SimError> {
        let (pattern, g_pos, c_pos) = Csr::union_pattern(&g_csr, &c_csr).expect("same shape");
        let mut g_vals = vec![0.0; pattern.nnz()];
        for (k, &p) in g_pos.iter().enumerate() {
            g_vals[p] = g_csr.values()[k];
        }
        let mut c_vals = vec![0.0; pattern.nnz()];
        for (k, &p) in c_pos.iter().enumerate() {
            c_vals[p] = c_csr.values()[k];
        }
        if let Some(analyzed) = sparse {
            let symbolic = match analyzed.iter().find(|s| s.pattern().same_pattern(&pattern)) {
                Some(shared) => shared.clone(),
                None => LdlSymbolic::analyze(&pattern)?,
            };
            // The DC factorization takes G on the union pattern (explicit
            // zeros where only C has entries). A numeric failure here
            // means G is not positive-definite after all; the pivoting
            // dense path below handles it.
            if let Ok(dc) = symbolic.factor_values(&g_vals) {
                xtalk_obs::counter!(perf: "sim.solve.path.sparse").add(1);
                return Ok(TransientSim {
                    network,
                    g_vals,
                    c_vals,
                    backend: Backend::Sparse { symbolic },
                    dc: Solver::Sparse(Box::new(dc)),
                });
            }
        }
        // Dense fallback: stamp densely in the original element order so
        // this path reproduces the historical dense results bit-for-bit.
        // Its stepping matrices live on the G ∪ C pattern too: an entry
        // that cancels to an explicit zero adds ±0 to a row sum, which
        // moves no bit.
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
            g_vals,
            c_vals,
            backend: Backend::Dense { g, c, pattern },
            dc: Solver::Dense(g_lu),
        })
    }

    /// The `G ∪ C` pattern every stepping matrix lives on.
    fn pattern(&self) -> &Csr {
        match &self.backend {
            Backend::Dense { pattern, .. } => pattern,
            Backend::Sparse { symbolic } => symbolic.pattern(),
        }
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
        self.check_noise_stimuli(stimuli)?;
        self.march(stimuli, options, mode, workspace, None)
    }

    /// The noise convention of [`TransientSim::run`]: only aggressors
    /// carry stimuli.
    pub(crate) fn check_noise_stimuli(
        &self,
        stimuli: &[(NetId, InputSignal)],
    ) -> Result<(), SimError> {
        match stimuli
            .iter()
            .find(|(net, _)| self.network.net(*net).role() != NetRole::Aggressor)
        {
            Some((net, _)) => Err(SimError::StimulusOnNonAggressor(*net)),
            None => Ok(()),
        }
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
    /// has a stepping matrix `(C + step·G)/dt`, kept as a value array on
    /// the simulator's G∪C pattern, and a factored left-hand side
    /// `(C + lhs·G)/dt`, formed entry by entry. The sparse backend
    /// factors against its one symbolic analysis, so each level costs
    /// only value rewrites plus one numeric factorization per scheme.
    fn build_level(&self, dt: f64, companion: bool) -> Result<LevelSystem, SimError> {
        let inv_dt = 1.0 / dt;
        let values = |coeff: f64| -> Vec<f64> {
            self.g_vals
                .iter()
                .zip(&self.c_vals)
                .map(|(gv, cv)| (cv + coeff * gv) * inv_dt)
                .collect()
        };
        let scheme = |step: f64, lhs: f64| -> Result<Scheme, SimError> {
            let lhs = match &self.backend {
                Backend::Dense { g, c, .. } => Solver::Dense(
                    c.add_scaled(g, lhs)
                        .expect("same shape")
                        .scaled(1.0 / dt)
                        .lu()?,
                ),
                Backend::Sparse { symbolic } => {
                    Solver::Sparse(Box::new(symbolic.factor_values(&values(lhs))?))
                }
            };
            Ok(Scheme {
                step: values(step),
                lhs,
            })
        };
        Ok(LevelSystem {
            trap: scheme(-0.5 * dt, 0.5 * dt)?,
            be: companion.then(|| scheme(0.0, dt)).transpose()?,
        })
    }

    /// One run of [`march`] from `start` (`None`: from the DC solution at
    /// `t = 0`), on the one-lane path; its final state is lane 0's of
    /// `workspace`.
    pub(crate) fn march(
        &self,
        stimuli: &[(NetId, InputSignal)],
        options: &SimOptions,
        mode: SimMode,
        workspace: &mut SimWorkspace,
        start: Option<(f64, &[f64])>,
    ) -> Result<SimResult, SimError> {
        let run = MarchRun {
            sim: self,
            stimuli,
            options,
            start,
        };
        march(&[run], mode, &mut workspace.one, &mut workspace.finals)
            .pop()
            .expect("one result per run")
    }
}

/// One run of a march: its simulator, stimuli and options, and an
/// optional starting state `(t0, v0)`.
pub(crate) struct MarchRun<'r, 'a> {
    pub(crate) sim: &'r TransientSim<'a>,
    pub(crate) stimuli: &'r [(NetId, InputSignal)],
    pub(crate) options: &'r SimOptions,
    pub(crate) start: Option<(f64, &'r [f64])>,
}

/// Marches `runs` together and returns one result per run, in order;
/// lane `l`'s final state is `workspace.final_state(l)`. One run takes
/// the one-lane path; up to [`LANES`] runs whose simulators share one
/// symbolic analysis march as the lanes of one batch.
///
/// # Panics
///
/// Panics on more than [`LANES`] runs, or on several runs that do not
/// share one analysis.
pub(crate) fn march_batch(
    runs: &[MarchRun<'_, '_>],
    mode: SimMode,
    workspace: &mut SimWorkspace,
) -> Vec<Result<SimResult, SimError>> {
    if let [_] = runs {
        return march(runs, mode, &mut workspace.one, &mut workspace.finals);
    }
    let shared = runs[0].sim.symbolic();
    assert!(
        runs.len() <= LANES
            && runs.iter().all(|r| match (r.sim.symbolic(), shared) {
                (Some(a), Some(b)) => std::ptr::eq(a.pattern(), b.pattern()),
                _ => false,
            }),
        "a batched march takes up to {LANES} runs of one symbolic analysis"
    );
    march(runs, mode, &mut workspace.wide, &mut workspace.finals)
}

/// Error-norm knobs of the adaptive march: the estimate divides the
/// trapezoidal-vs-BE difference by `ATOL + RTOL·scale_i` per component,
/// where `scale_i` is the largest |v_i| seen. RTOL is set so accumulated
/// waveform error stays well below the closed-form metric errors the
/// golden tier exists to measure; ATOL sits below the measurable pulse
/// floor.
const RTOL: f64 = 2e-4;
const ATOL: f64 = 1e-9;
/// Grow the step only when the estimate is comfortably inside the
/// acceptance region.
const GROW_THRESHOLD: f64 = 0.25;

/// The one time-marching loop behind every run: trapezoidal steps on
/// each run's base grid (`options.dt`, `options.t_stop`), recorded at
/// every base-grid point, for up to `L` runs at once.
///
/// [`SimMode::Fixed`] holds the march at the base step. Under
/// [`SimMode::Adaptive`] it doubles the step over quiescent spans and
/// halves it back when the embedded error estimate objects, filling the
/// base-grid points inside a long step by linear interpolation — so
/// every consumer (probe waveforms, noise measurement) sees the same
/// sample layout in both modes. Each accepted step advances with the
/// trapezoidal solution; a backward-Euler companion step from the same
/// state provides the local-truncation-error estimate (their difference
/// bounds the lower-order error). Steps never reject at the base level,
/// so the accuracy floor is the fixed march itself. The companion runs
/// only where it can change a decision — not on base steps that end
/// while the inputs still slew — and shares one pass over the stepping
/// pattern and one sweep over `L` with the trapezoidal step (the pair
/// kernels), so every sample is bit-identical to computing both schemes
/// on every step.
///
/// Each run is one lane, with its own step, horizon, doubling level,
/// accept/reject decisions, level systems, DC state and probes. The
/// lanes share the kernels' passes over their one pattern: every lane's
/// current level is copied into lane-interleaved arrays when the lane
/// changes level ([`xtalk_linalg::lanes`]), and each step runs the
/// companion kernels when any lane needs them. Every lane performs
/// exactly the floating-point operations of its run marched alone, in
/// the same order, so batching never moves a bit. A lane that finishes
/// (or fails) steps zeros until the last lane is done.
///
/// A run with `start = None` starts from the DC solution at `t = 0`;
/// with `start = Some((t0, v0))` it starts from state `v0` (one voltage
/// per node) at `t0` and samples cover `t0 ..= t_stop` (the first sample
/// repeats `v0`) — the golden tier's horizon resume.
fn march<const L: usize>(
    runs: &[MarchRun<'_, '_>],
    mode: SimMode,
    bufs: &mut LaneBufs<L>,
    finals: &mut Vec<Vec<f64>>,
) -> Vec<Result<SimResult, SimError>> {
    assert!((1..=L).contains(&runs.len()), "a march takes 1 to {L} runs");
    let adaptive = mode == SimMode::Adaptive;
    let lead = runs[0].sim;
    bufs.resize(lead.network.node_count(), lead.pattern().nnz());
    if finals.len() < runs.len() {
        finals.resize_with(runs.len(), Vec::new);
    }
    // The lanes' left-hand sides, lane-interleaved (sparse) or each
    // lane's own (dense, one lane).
    let mut lhs = lead.symbolic().map(|sym| {
        (
            LdlFactors::<L>::lanes(sym),
            adaptive.then(|| LdlFactors::<L>::lanes(sym)),
        )
    });

    let mut results: Vec<Option<Result<SimResult, SimError>>> = Vec::with_capacity(runs.len());
    let mut lanes: Vec<Option<Lane<'_, '_>>> = Vec::with_capacity(runs.len());
    for (l, run) in runs.iter().enumerate() {
        match Lane::start(run, adaptive) {
            Ok(lane) => {
                lane_inputs(&lane.sources, |sig| sig.value(lane.t0), &mut bufs.b_now, l);
                lane_inputs(&lane.sources, dc_value, &mut bufs.b_next, l);
                lanes.push(Some(lane));
                results.push(None);
            }
            Err(e) => {
                lanes.push(None);
                results.push(Some(Err(e)));
            }
        }
    }

    // Initial condition: the given state, or the DC solution before the
    // run starts (`b_next` is rewritten before its first use).
    let from_dc = runs
        .iter()
        .zip(&lanes)
        .any(|(r, l)| l.is_some() && r.start.is_none());
    if from_dc {
        solve_dc(&lanes, bufs);
    }
    for (l, (run, lane)) in runs.iter().zip(&mut lanes).enumerate() {
        let Some(lane) = lane else { continue };
        if let Some((_, v0)) = run.start {
            for (e, &v) in bufs.v.iter_mut().zip(v0) {
                e[l] = v;
            }
        }
        if adaptive {
            for (s, v) in bufs.vscale.iter_mut().zip(&bufs.v) {
                s[l] = v[l].abs();
            }
        }
        for (trace, node) in lane.traces.iter_mut().zip(&lane.probe_nodes) {
            trace.push(bufs.v[node.index()][l]);
        }
    }

    loop {
        // Per lane: the step's level (built on first use and loaded into
        // the lane's slot when it changes), the inputs at the step's end
        // and whether the companion runs.
        let mut any_live = false;
        let mut companion = false;
        for (l, slot) in lanes.iter_mut().enumerate() {
            let Some(lane) = slot else { continue };
            while lane.k > 0
                && (lane.idx < lane.active_idx || lane.idx + (1usize << lane.k) > lane.n_base)
            {
                lane.k -= 1;
            }
            let stride = 1usize << lane.k;
            if let Err(e) = lane.load_level(l, adaptive, bufs, lhs.as_mut()) {
                results[l] = Some(Err(e));
                *slot = None;
                bufs.clear_lane(l);
                continue;
            }
            let t1 = lane.t0 + (lane.idx + stride) as f64 * lane.dt;
            lane_inputs(&lane.sources, |sig| sig.value(t1), &mut bufs.b_next, l);
            // The backward-Euler companion and its error norm matter only
            // where they can change a decision. A base-level step always
            // accepts and no step grows before `active_idx`, so a base
            // step that ends short of it skips both.
            lane.companion = adaptive && (lane.k > 0 || lane.idx + 1 >= lane.active_idx);
            companion |= lane.companion;
            any_live = true;
        }
        if !any_live {
            break;
        }

        // Trapezoidal trial step into v_next; with the companion, the
        // backward-Euler step from the same state into v_alt. A dense
        // lane (always alone) solves with its level's own factors.
        let step_lhs = match &lhs {
            Some((trap, be)) => Lhs::Sparse(trap, be.as_ref().filter(|_| companion)),
            None => {
                let lane = lanes[0].as_ref().expect("a dense run marches alone");
                let level = lane.levels[lane.k].as_ref().expect("built above");
                let be = level.be.as_ref().filter(|_| companion);
                Lhs::Dense(
                    [level.trap.lhs.as_dense(); L],
                    be.map(|be| [be.lhs.as_dense(); L]),
                )
            }
        };
        step_lanes(lead.pattern(), bufs, step_lhs);

        // Per lane: error estimate, accept or reject.
        let mut all_accepted = true;
        for (l, slot) in lanes.iter_mut().enumerate() {
            let Some(lane) = slot else { continue };
            let stride = 1usize << lane.k;
            let err = lane.companion.then(|| {
                // Scaled max-norm of the scheme difference.
                let mut err = 0.0_f64;
                for ((trap, be), scale) in bufs.v_next.iter().zip(&bufs.v_alt).zip(&bufs.vscale) {
                    let (trap, be, scale) = (trap[l], be[l], scale[l]);
                    let tol = ATOL + RTOL * scale.max(trap.abs());
                    err = err.max((trap - be).abs() / tol);
                }
                err
            });
            lane.accepted_now = lane.k == 0 || err.is_some_and(|e| e <= 1.0);
            if lane.accepted_now {
                // Accept: record the end state, after filling a long
                // step's skipped base-grid samples by linear
                // interpolation between the endpoint states.
                lane.accepted += 1;
                for (trace, node) in lane.traces.iter_mut().zip(&lane.probe_nodes) {
                    let v0 = bufs.v[node.index()][l];
                    let v1 = bufs.v_next[node.index()][l];
                    for j in 1..stride {
                        let frac = j as f64 / stride as f64;
                        trace.push(v0 + (v1 - v0) * frac);
                    }
                    trace.push(v1);
                }
                if adaptive {
                    for (s, v) in bufs.vscale.iter_mut().zip(&bufs.v_next) {
                        s[l] = s[l].max(v[l].abs());
                    }
                }
                lane.idx += stride;
                if err.is_some_and(|e| e < GROW_THRESHOLD)
                    && lane.k < lane.max_k
                    && lane.idx >= lane.active_idx
                {
                    lane.k += 1;
                }
            } else {
                all_accepted = false;
                lane.rejected += 1;
                lane.k -= 1; // a rejection implies k > 0 here
            }
        }
        // Advance the accepted lanes: all at once when every live lane
        // accepted (an idle lane steps zeros into zeros), else lane by
        // lane.
        if all_accepted {
            std::mem::swap(&mut bufs.v, &mut bufs.v_next);
            std::mem::swap(&mut bufs.b_now, &mut bufs.b_next);
        } else {
            #[cfg(test)]
            PARTIAL_COMMITS.with(|c| c.set(c.get() + 1));
            for (l, lane) in lanes.iter().enumerate() {
                if lane.as_ref().is_some_and(|lane| lane.accepted_now) {
                    for (v, v1) in bufs.v.iter_mut().zip(&bufs.v_next) {
                        v[l] = v1[l];
                    }
                    for (b, b1) in bufs.b_now.iter_mut().zip(&bufs.b_next) {
                        b[l] = b1[l];
                    }
                }
            }
        }
        // Retire the lanes that reached their horizon.
        for (l, slot) in lanes.iter_mut().enumerate() {
            if slot.as_ref().is_some_and(|lane| lane.idx >= lane.n_base) {
                let lane = slot.take().expect("checked above");
                let final_state = &mut finals[l];
                final_state.clear();
                final_state.extend(bufs.v.iter().map(|v| v[l]));
                bufs.clear_lane(l);
                results[l] = Some(Ok(lane.finish(adaptive)));
            }
        }
    }
    results
        .into_iter()
        .map(|r| r.expect("every lane finishes or fails"))
        .collect()
}

#[cfg(test)]
thread_local! {
    /// Steps on this thread where some live lane rejected while another
    /// accepted: the batch tests' coverage probe.
    pub(crate) static PARTIAL_COMMITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The DC solution of every live lane into `v`, from the DC inputs in
/// `b_next`.
fn solve_dc<const L: usize>(lanes: &[Option<Lane<'_, '_>>], bufs: &mut LaneBufs<L>) {
    let live = || {
        lanes
            .iter()
            .enumerate()
            .filter_map(|(l, lane)| Some((l, lane.as_ref()?)))
    };
    let (_, lead) = live().next().expect("a live lane");
    let solved = match lead.sim.symbolic() {
        Some(sym) => {
            let mut dc = LdlFactors::<L>::lanes(sym);
            for (l, lane) in live() {
                dc.set_lane(l, lane.sim.dc.as_sparse())
                    .expect("one analysis");
            }
            dc.solve_into(&bufs.b_next[..], &mut bufs.v[..], &mut bufs.scratch[..])
        }
        None => LuFactors::solve_into(
            [lead.sim.dc.as_dense(); L],
            &bufs.b_next[..],
            &mut bufs.v[..],
        ),
    };
    solved.expect("the lanes' buffers and factors fit their one pattern");
}

/// The lanes' factored left-hand sides for one step: the trapezoidal
/// system and, with the companion, the backward-Euler one.
enum Lhs<'a, const L: usize> {
    /// Lane-interleaved sparse factors.
    Sparse(&'a LdlFactors<L>, Option<&'a LdlFactors<L>>),
    /// A lone dense lane's own LU factors.
    Dense([&'a LuFactors; L], Option<[&'a LuFactors; L]>),
}

/// One step of every lane: the stepping products (with the companion's
/// when `lhs` carries it), the input terms, and the solves into `v_next`
/// (and `v_alt`).
fn step_lanes<const L: usize>(pattern: &Csr, bufs: &mut LaneBufs<L>, lhs: Lhs<'_, L>) {
    let b = &mut *bufs;
    let companion = matches!(lhs, Lhs::Sparse(_, Some(_)) | Lhs::Dense(_, Some(_)));
    // `rhs = step·v` (+ input terms); `step` carries the 1/dt scaling.
    let stepped = if companion {
        pattern.mul_vec_pair_into(
            (&b.trap_step[..], &b.be_step[..]),
            &b.v[..],
            (&mut b.rhs[..], &mut b.rhs_alt[..]),
        )
    } else {
        pattern.mul_vec_values_into(&b.trap_step[..], &b.v[..], &mut b.rhs[..])
    };
    for (r, (b0, b1)) in b.rhs.iter_mut().zip(b.b_now.iter().zip(&b.b_next)) {
        for l in 0..L {
            r[l] += 0.5 * (b0[l] + b1[l]);
        }
    }
    if companion {
        for (r, b1) in b.rhs_alt.iter_mut().zip(&b.b_next) {
            for l in 0..L {
                r[l] += b1[l];
            }
        }
    }
    let solved = stepped.and_then(|()| match lhs {
        Lhs::Sparse(trap, Some(be)) => trap.solve_pair_into(
            be,
            (&b.rhs[..], &b.rhs_alt[..]),
            (&mut b.v_next[..], &mut b.v_alt[..]),
            (&mut b.scratch[..], &mut b.scratch_alt[..]),
        ),
        Lhs::Sparse(trap, None) => {
            trap.solve_into(&b.rhs[..], &mut b.v_next[..], &mut b.scratch[..])
        }
        Lhs::Dense(trap, be) => {
            LuFactors::solve_into(trap, &b.rhs[..], &mut b.v_next[..])?;
            match be {
                Some(be) => LuFactors::solve_into(be, &b.rhs_alt[..], &mut b.v_alt[..]),
                None => Ok(()),
            }
        }
    });
    solved.expect("the lanes' buffers and systems fit their one pattern");
}

/// The state of one run in a march.
struct Lane<'r, 'a> {
    sim: &'r TransientSim<'a>,
    /// Source conductance vector entries: input `u_j` enters as
    /// `(1/Rd_j)·u_j` at the driver node.
    sources: Vec<(usize, f64, InputSignal)>,
    t0: f64,
    dt: f64,
    n_base: usize,
    /// Inputs stop slewing (ramps saturate, exponentials go smooth)
    /// after the last arrival + transition; until then the step is
    /// pinned to the base grid so no kink is ever stepped over.
    active_idx: usize,
    /// Deepest doubling level.
    max_k: usize,
    /// Per-level stepping systems, built on first use; only adaptive
    /// levels carry the backward-Euler companion.
    levels: Vec<Option<LevelSystem>>,
    /// The level whose systems the lane's slot holds.
    loaded: Option<usize>,
    /// Current base-grid index and doubling level.
    idx: usize,
    k: usize,
    accepted: u64,
    rejected: u64,
    /// Whether this step runs the companion, and whether it accepted.
    companion: bool,
    accepted_now: bool,
    probe_nodes: Vec<NodeId>,
    traces: Vec<Vec<f64>>,
}

impl<'r, 'a> Lane<'r, 'a> {
    /// Validates `run` and lays out its march.
    fn start(run: &MarchRun<'r, 'a>, adaptive: bool) -> Result<Self, SimError> {
        let options = run.options;
        let t0 = run.start.map_or(0.0, |(t, _)| t);
        options.validate(t0)?;
        let mut seen: HashSet<NetId> = HashSet::with_capacity(run.stimuli.len());
        if let Some((net, _)) = run.stimuli.iter().find(|(net, _)| !seen.insert(*net)) {
            return Err(SimError::DuplicateStimulus(*net));
        }
        let dt = options.dt;
        let n_base = ((options.t_stop - t0) / dt).ceil() as usize;
        let active_end = run
            .stimuli
            .iter()
            .map(|(_, s)| s.arrival() + s.transition())
            .fold(0.0_f64, f64::max);
        let active_idx = (((active_end - t0) / dt).ceil() as usize).min(n_base);
        // Deepest doubling level: none when fixed; adaptive strides stay
        // within a quarter of the horizon (and a hard cap keeps level
        // systems bounded).
        let mut max_k = 0usize;
        while adaptive && max_k < 14 && (1usize << (max_k + 1)) <= n_base.max(4) / 4 {
            max_k += 1;
        }
        let mut levels = Vec::new();
        levels.resize_with(max_k + 1, || None);
        // Probe bookkeeping: resolve the probe set (the victim output
        // when unspecified) and reserve every trace to its final length
        // up front, before the stepping loop.
        let probe_nodes = if options.probes.is_empty() {
            vec![run.sim.network.victim_output()]
        } else {
            options.probes.clone()
        };
        let traces = probe_nodes
            .iter()
            .map(|_| Vec::with_capacity(n_base + 1))
            .collect();
        Ok(Lane {
            sim: run.sim,
            sources: run.sim.resolve_sources(run.stimuli),
            t0,
            dt,
            n_base,
            active_idx,
            max_k,
            levels,
            loaded: None,
            idx: 0,
            k: 0,
            accepted: 0,
            rejected: 0,
            companion: false,
            accepted_now: false,
            probe_nodes,
            traces,
        })
    }

    /// Builds level `k` on first use and, when slot `l` holds another
    /// level, copies its systems in: the stepping values into the
    /// lane-interleaved arrays, the sparse factors into `lhs`.
    fn load_level<const L: usize>(
        &mut self,
        l: usize,
        adaptive: bool,
        bufs: &mut LaneBufs<L>,
        lhs: Option<&mut (LdlFactors<L>, Option<LdlFactors<L>>)>,
    ) -> Result<(), SimError> {
        let k = self.k;
        if self.loaded == Some(k) {
            return Ok(());
        }
        if self.levels[k].is_none() {
            let dt = self.dt * (1usize << k) as f64;
            self.levels[k] = Some(self.sim.build_level(dt, adaptive)?);
        }
        let level = self.levels[k].as_ref().expect("built above");
        for (dst, &v) in bufs.trap_step.iter_mut().zip(&level.trap.step) {
            dst[l] = v;
        }
        if let Some(be) = &level.be {
            for (dst, &v) in bufs.be_step.iter_mut().zip(&be.step) {
                dst[l] = v;
            }
        }
        if let Some((trap, be_lhs)) = lhs {
            trap.set_lane(l, level.trap.lhs.as_sparse())
                .expect("one analysis");
            if let (Some(be_lhs), Some(be)) = (be_lhs, &level.be) {
                be_lhs
                    .set_lane(l, be.lhs.as_sparse())
                    .expect("one analysis");
            }
        }
        self.loaded = Some(k);
        Ok(())
    }

    /// The finished run's probe waveforms, recording its step counts.
    fn finish(self, adaptive: bool) -> SimResult {
        if adaptive {
            let steps = self.accepted + self.rejected;
            xtalk_obs::counter!(perf: "sim.adaptive.runs").add(1);
            xtalk_obs::histogram!(perf: "sim.adaptive.steps").record(steps);
            xtalk_obs::counter!(perf: "sim.adaptive.steps_saved")
                .add((self.n_base as u64).saturating_sub(steps));
        }
        let (t0, dt) = (self.t0, self.dt);
        let probes = self
            .probe_nodes
            .into_iter()
            .zip(self.traces)
            .map(|(node, samples)| (node, Waveform::new(t0, dt, samples)))
            .collect();
        SimResult { probes }
    }
}

/// Prepared stepping systems for one doubling level.
struct LevelSystem {
    /// Trapezoidal rule, `(C/dt + G/2)·v1 = (C/dt − G/2)·v0 + (b0 + b1)/2`.
    trap: Scheme,
    /// Backward-Euler companion of the adaptive error estimate,
    /// `(C/dt + G)·v1 = (C/dt)·v0 + b1`. Adaptive levels only.
    be: Option<Scheme>,
}

/// One integration scheme at one step: the stepping matrix (the per-step
/// matvec operand, as values on the simulator's G∪C pattern) and the
/// factored left-hand side.
struct Scheme {
    step: Vec<f64>,
    lhs: Solver,
}

/// Writes lane `l` of an input vector: every source at `value` of its
/// input. Only source nodes are ever nonzero in an input vector, so only
/// they are cleared first.
fn lane_inputs<const L: usize>(
    sources: &[(usize, f64, InputSignal)],
    value: impl Fn(&InputSignal) -> f64,
    out: &mut [[f64; L]],
    l: usize,
) {
    for (node, _, _) in sources {
        out[*node][l] = 0.0;
    }
    for (node, cond, sig) in sources {
        out[*node][l] += cond * value(sig);
    }
}

/// The value an input rests at before the run starts, for the DC
/// initial condition. An input that switches at `t ≥ 0` rests at
/// [`InputSignal::initial_value`] — a step at `t = 0` has not switched
/// yet, although its `value(0)` is already 1 — while one that switched
/// earlier rests at `value(0)`. For every other input the two agree bit
/// for bit.
fn dc_value(sig: &InputSignal) -> f64 {
    if sig.arrival() >= 0.0 {
        sig.initial_value()
    } else {
        sig.value(0.0)
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
            Self::on_backend(network, g, c, sparse.then_some(&[]))
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
        let state: Vec<f64> = ws.final_state(0).to_vec();
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
