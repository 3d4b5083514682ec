//! Transient simulation of coupled RC networks — the workspace's golden
//! reference ("HSPICE stand-in").
//!
//! The paper validates its closed-form metrics against HSPICE on the
//! *linearized* coupling circuit (drivers replaced by equivalent
//! resistances). On that circuit HSPICE integrates exactly the linear ODE
//! system
//!
//! ```text
//! C·dv/dt + G·v = B·u(t)
//! ```
//!
//! that [`TransientSim`] integrates here with the trapezoidal rule
//! (2nd-order accurate), so the substitution preserves the behaviour
//! being validated. One time-marching loop serves both stepping modes:
//! [`SimMode::Fixed`] holds it at the base step, [`SimMode::Adaptive`]
//! grows the step on a backward-Euler error estimate. Accuracy is
//! controlled by the time step; the test suite verifies the expected
//! convergence order against analytic solutions.
//!
//! [`measure::measure_noise`] then extracts the paper's waveform
//! parameters (`Vp`, `Tp`, `T0`, `T1`, `T2`, `Wn`) from a simulated
//! [`Waveform`] using the 10–90% extrapolated-transition convention of
//! eq. (6).
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::{signal::InputSignal, NetRole, NetworkBuilder};
//! use xtalk_sim::{SimOptions, TransientSim};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut b = NetworkBuilder::new();
//! let v = b.add_net("v", NetRole::Victim);
//! let a = b.add_net("a", NetRole::Aggressor);
//! let vn = b.add_node(v, "v0");
//! let an = b.add_node(a, "a0");
//! b.add_driver(v, vn, 1000.0)?;
//! b.add_driver(a, an, 1000.0)?;
//! b.add_sink(vn, 20e-15)?;
//! b.add_sink(an, 20e-15)?;
//! b.add_coupling_cap(vn, an, 40e-15)?;
//! let network = b.build()?;
//!
//! let sim = TransientSim::new(&network)?;
//! let stim = [(a, InputSignal::rising_ramp(0.0, 100e-12))];
//! let result = sim.run(&stim, &SimOptions::auto(&network, &stim))?;
//! let noise = result.probe(network.victim_output()).unwrap();
//! assert!(noise.max().1 > 0.0); // a positive noise spike appears
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analytic;
mod engine;
mod error;
pub mod golden;
pub mod measure;
mod waveform;

pub use analytic::{analytic_noise, FastTierFallback};
pub use engine::{
    fast_tier, set_fast_tier_override, set_sim_mode_override, sim_mode, FastTier, SimMode,
    SimOptions, SimResult, SimWorkspace, TransientSim,
};
pub use error::SimError;
pub use golden::{golden_noise, golden_noise_tiered, golden_noise_with, GoldenOpts, GoldenTier};
pub use measure::{measure_noise, NoiseWaveformParams};
pub use waveform::Waveform;
