//! Shared fixtures for the Criterion benchmarks.
//!
//! Each bench target regenerates one of the paper's evaluation artifacts
//! at a small, fixed case count (the `xtalk-eval` binaries produce the
//! full-volume numbers; the benches time the pipelines and keep them
//! exercised in CI).

use xtalk_circuit::{signal::InputSignal, NetId, Network};
use xtalk_tech::{CouplingDirection, Technology, TwoPinSpec};

pub mod diff;

/// Summed nanoseconds under the named span histogram so far (zero
/// until metrics are on and the span has closed once).
pub fn span_sum_ns(name: &str) -> u64 {
    xtalk_obs::snapshot().histogram(name).map_or(0, |h| h.sum)
}

/// A mid-range two-pin coupling circuit used by the throughput benches.
pub fn reference_two_pin() -> (Network, NetId, InputSignal) {
    let tech = Technology::p25();
    let spec = TwoPinSpec {
        l1: 0.3e-3,
        l2: 0.8e-3,
        l3: 1.5e-3,
        direction: CouplingDirection::FarEnd,
        victim_driver: 200.0,
        aggressor_driver: 150.0,
        victim_load: 20e-15,
        aggressor_load: 20e-15,
        segments_per_mm: 8,
    };
    let (network, aggressor) = spec.build(&tech).expect("reference spec is valid");
    (network, aggressor, InputSignal::rising_ramp(0.0, 100e-12))
}

/// Case count for the table benches: large enough to exercise every code
/// path (corners included), small enough for a benchable iteration.
pub const BENCH_CASES: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_circuit_builds() {
        let (net, agg, input) = reference_two_pin();
        assert!(net.node_count() > 10);
        assert!(net.couplings_between(agg, net.victim()).count() > 0);
        assert!(input.transition() > 0.0);
    }
}
