//! Concurrency property test: parallel recording equals the serial sum.
//!
//! The determinism contract says [`Class::Det`]-class metrics count
//! *work* and are therefore independent of thread count or scheduling.
//! This test hammers one counter, one histogram and one span from N
//! threads with a deterministically generated workload, computes the
//! same totals serially, and asserts the snapshot *delta* over the
//! parallel burst matches exactly — counter value, histogram count, sum
//! and every bucket.
//!
//! The obs registry and flags are process-global, so this binary holds
//! exactly one `#[test]` (the proptest macro expands to one test fn
//! whose cases run sequentially) — same discipline as `tests/obs.rs`.
//! Deltas, not absolute values, keep the cases independent of each
//! other's accumulation.
//!
//! [`Class::Det`]: xtalk_obs::Class::Det

use proptest::prelude::*;
use std::thread;

/// SplitMix64 finalizer: the per-op value generator. Pure function of
/// its inputs, so serial and parallel runs see the same multiset.
fn op_value(case_seed: u64, thread: u64, op: u64) -> u64 {
    let mut z = case_seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(thread << 32 | op);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    // Span 0 .. 2^40 so a fraction of values lands in the overflow
    // bucket (≥ 2^38) and bucket-level equality covers it too.
    (z ^ (z >> 31)) % (1u64 << 40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_det_snapshot_equals_serial_sum(
        (threads, ops, case_seed) in (2u64..=8, 1u64..=200, 0u64..u64::MAX)
    ) {
        xtalk_obs::enable_metrics();

        // Serial expectation: same workload, summed on one thread.
        let mut expect_count = 0u64;
        let mut expect_sum = 0u64;
        let mut expect_buckets = [0u64; xtalk_obs::BUCKETS];
        for t in 0..threads {
            for op in 0..ops {
                let v = op_value(case_seed, t, op);
                expect_count += 1;
                expect_sum = expect_sum.wrapping_add(v);
                expect_buckets[xtalk_obs::bucket_index(v)] += 1;
            }
        }

        let before = xtalk_obs::snapshot();

        thread::scope(|scope| {
            for t in 0..threads {
                scope.spawn(move || {
                    for op in 0..ops {
                        let _span = xtalk_obs::span!("conc.stage");
                        let v = op_value(case_seed, t, op);
                        xtalk_obs::counter!("conc.events").add(v % 7 + 1);
                        xtalk_obs::histogram!("conc.values").record(v);
                    }
                });
            }
        });

        let delta = xtalk_obs::snapshot().delta_since(&before);

        let expect_counter: u64 = (0..threads)
            .flat_map(|t| (0..ops).map(move |op| op_value(case_seed, t, op) % 7 + 1))
            .sum();
        prop_assert_eq!(delta.counter("conc.events"), Some(expect_counter));

        let hist = delta.histogram("conc.values").expect("histogram recorded");
        prop_assert_eq!(hist.count, expect_count);
        prop_assert_eq!(hist.sum, expect_sum);
        let expect_sparse: Vec<(usize, u64)> = expect_buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        prop_assert_eq!(&hist.buckets, &expect_sparse);

        // Span histograms are Perf class (durations vary) but their
        // *count* is still the number of spans — one per op.
        let spans = delta.histogram("span.conc.stage.ns").expect("spans recorded");
        prop_assert_eq!(spans.count, expect_count);
    }
}
