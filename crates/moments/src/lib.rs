//! Moment computation for coupled distributed-RC trees.
//!
//! This crate is the *FrontEnd* of the crosstalk-noise flow in
//! Chen & Marek-Sadowska (DATE 2002): it turns a validated
//! [`xtalk_circuit::Network`] into the Laplace-domain quantities the
//! closed-form metrics consume —
//!
//! * **exact transfer-function Taylor coefficients** `h_k` from any
//!   aggressor source to any victim node via the moment recursion
//!   `G·m_k = −C·m_{k−1}`, solved in `O(n)` per order by two tree passes
//!   per net ([`TreeMomentEngine`]; [`IncrTreeEngine`] takes value edits
//!   in place and re-runs the same recursion per query). The dense MNA
//!   engine ([`MomentEngine`]) is kept only as the test oracle;
//! * **closed-form tree formulas** for the dominant coefficients — the
//!   numerator coefficient `a1` (paper ref. \[13\]) and the denominator
//!   coefficient `b1` as the sum of open-circuit time constants (paper
//!   ref. \[11\]) — in [`tree`];
//! * **two-pole Padé fits** with pole extraction, stability
//!   classification and time-domain response evaluation ([`TwoPoleFit`]),
//!   used by the Yu-style baseline metrics and for the paper's remark that
//!   two-pole models can go unstable.
//!
//! # Conventions
//!
//! We work with Taylor coefficients of the transfer function around
//! `s = 0`: `H(s) = h0 + h1·s + h2·s² + …`. For an aggressor→victim
//! transfer, `h0 = 0` (no DC path) and `h1 = a1` of the paper. (The paper's
//! probabilistic "moments" `m_p = (−1)^p p!·h_p` differ only by bookkeeping.)
//!
//! # Examples
//!
//! ```
//! use xtalk_circuit::{NetRole, NetworkBuilder};
//! use xtalk_moments::TreeMomentEngine;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // One coupling cap between two single-node nets.
//! let mut b = NetworkBuilder::new();
//! let v = b.add_net("v", NetRole::Victim);
//! let a = b.add_net("a", NetRole::Aggressor);
//! let vn = b.add_node(v, "v0");
//! let an = b.add_node(a, "a0");
//! b.add_driver(v, vn, 100.0)?;
//! b.add_driver(a, an, 100.0)?;
//! b.add_sink(vn, 10e-15)?;
//! b.add_sink(an, 10e-15)?;
//! b.add_coupling_cap(vn, an, 20e-15)?;
//! let network = b.build()?;
//!
//! let engine = TreeMomentEngine::new(&network);
//! let h = engine.transfer_taylor(a, network.victim_output(), 4)?;
//! assert_eq!(h[0], 0.0);                 // no DC path
//! assert!((h[1] - 20e-15 * 100.0).abs() < 1e-18); // a1 = Cc * Rd_victim
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
pub mod incr;
mod pade;
pub mod tree;
mod tree_engine;

pub use engine::MomentEngine;
pub use error::MomentError;
pub use incr::IncrTreeEngine;
pub use pade::{PoleKind, TwoPoleFit};
pub use tree_engine::TreeMomentEngine;
