//! Coupled distributed-RC interconnect model for crosstalk analysis.
//!
//! This crate provides the circuit substrate assumed by
//! *Chen & Marek-Sadowska, "Closed-Form Crosstalk Noise Metrics for Physical
//! Design Applications" (DATE 2002)*: a **victim** net and one or more
//! **aggressor** nets, each a tree of wire resistances with grounded wire
//! capacitances, joined by **coupling capacitors**. Non-linear drivers are
//! linearized to an equivalent resistance between an ideal source and the
//! net; receivers are load capacitances at net sinks.
//!
//! The central types are:
//!
//! * [`NetworkBuilder`] — incremental construction with full validation,
//! * [`Network`] — the immutable, validated coupled network,
//! * [`NetTree`] — per-net rooted-tree view (parents, traversal order, path
//!   and common-path resistances) used by moment engines,
//! * [`spice`] — SPICE-deck export (for cross-checking against a real
//!   simulator) and a round-trip parser for the exported subset.
//!
//! # Conventions
//!
//! All quantities are SI: ohms, farads, seconds, volts, meters. The
//! [`units`] module provides readable constructors (`ff`, `ohm`, `mm`, …).
//! Each net's resistive graph must be a *tree* (the paper's model class);
//! nets are resistively disjoint and interact only through coupling
//! capacitors.
//!
//! # Examples
//!
//! A minimal two-net coupling circuit:
//!
//! ```
//! use xtalk_circuit::{NetRole, NetworkBuilder, units::*};
//!
//! # fn main() -> Result<(), xtalk_circuit::CircuitError> {
//! let mut b = NetworkBuilder::new();
//! let vic = b.add_net("victim", NetRole::Victim);
//! let agg = b.add_net("agg", NetRole::Aggressor);
//!
//! let v0 = b.add_node(vic, "v0");
//! let v1 = b.add_node(vic, "v1");
//! b.add_driver(vic, v0, 150.0 * OHM)?;
//! b.add_resistor(v0, v1, 60.0 * OHM)?;
//! b.add_ground_cap(v1, ff(25.0))?;
//! b.add_sink(v1, ff(15.0))?;
//!
//! let a0 = b.add_node(agg, "a0");
//! let a1 = b.add_node(agg, "a1");
//! b.add_driver(agg, a0, 100.0 * OHM)?;
//! b.add_resistor(a0, a1, 60.0 * OHM)?;
//! b.add_sink(a1, ff(15.0))?;
//! b.add_coupling_cap(a1, v1, ff(40.0))?;
//!
//! let network = b.build()?;
//! assert_eq!(network.node_count(), 4);
//! assert_eq!(network.aggressor_nets().count(), 1);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod builder;
pub mod cluster;
mod delta;
mod elements;
mod error;
mod ids;
mod network;
pub mod reduce;
pub mod signal;
pub mod spice;
mod tree;
pub mod units;
mod validate;

pub use builder::NetworkBuilder;
pub use delta::{Delta, DeltaError};
pub use elements::{CouplingCap, Driver, GroundCap, Resistor, Sink};
pub use error::CircuitError;
pub use ids::{NetId, NodeId};
pub use network::{Net, NetRole, Network};
pub use tree::NetTree;
pub use validate::{Severity, ValidationFinding, ValidationKind, ValidationReport};
