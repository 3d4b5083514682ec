//! Incremental what-if engine over coupled-net clusters.
//!
//! The paper's target application is a router moving **one wire at a
//! time**: metrics cheap enough for an optimization inner loop. The
//! static pipeline (`moments` → `core`) recomputes everything per call;
//! this crate makes single-edit queries nearly free by memoizing every
//! pipeline stage and invalidating by dependency:
//!
//! * **Views** — each net is analyzed as the victim of a truncated view
//!   holding only its 1-hop coupled neighbours, so an edit's blast
//!   radius is a neighbourhood, not the cluster. A flat routing table
//!   built with the views sends each edit straight to the views holding
//!   its element; the others are never visited.
//! * **Moments** — each view runs an
//!   [`xtalk_moments::IncrTreeEngine`], which takes the routed edit
//!   into the one value slot it names. Moments are not memoized: a
//!   touched view re-runs the tree recursion per aggressor into one
//!   reused buffer, the float operations of a from-scratch build.
//! * **Metrics** — Metric I/II estimates and bounds are memoized behind
//!   bit-pattern keys ([`xtalk_core::memo::StageMemo`]); unchanged
//!   victim–aggressor pairs replay stored results verbatim.
//! * **Ranking** — the report order is kept between reports; only the
//!   recomputed nets are re-inserted, and rows share their view's name.
//!
//! So an edit costs work in proportion to the views it touches, not to
//! the cluster.
//!
//! The contract throughout is **bit-identity**: an incremental report
//! equals a from-scratch rebuild of the same edited network byte for
//! byte. Conservative recomputation is allowed (same inputs → same
//! bits); approximation is not.
//!
//! Entry point: [`WhatIf`] — `apply(Delta) → NoiseReport`, `revert()`,
//! with `incr.query.{hit,miss,invalidated}` Perf counters and the
//! `incr.delta` (routing) and `incr.report` (recompute and rank) spans
//! wired through `xtalk-obs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod session;
mod view;

pub use session::{
    NetNoise, NoiseReport, SessionStats, WhatIf, WhatIfConfig, WhatIfError,
};
