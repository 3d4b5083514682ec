//! Point-in-time metric snapshots and their serialized forms.
//!
//! A [`Snapshot`] is an owned copy of every registered metric, sorted by
//! name and merged across duplicate registrations, so its serializations
//! depend only on recorded values — never on registration order, thread
//! scheduling, or worker count. [`Snapshot::to_json`] keeps only
//! [`Class::Det`] metrics and is therefore byte-identical for a given
//! workload at any `--jobs`; the stats table and [`Snapshot::to_json_full`]
//! add the performance-class metrics for humans and profiling.

use crate::hist::{bucket_lower_bound, bucket_upper_bound, BUCKETS, OVERFLOW_BUCKET};
use crate::json;
use crate::registry::{with_registry, MetricRef};
use crate::Class;
use std::fmt::Write as _;

/// An approximate quantile read off a log2 histogram.
///
/// Closed buckets yield an inclusive upper bound; when the quantile
/// lands in the open-ended overflow bucket, the best available statement
/// is a lower bound (`≥ 2^38`), and reporting must say so rather than
/// blank the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuantileBound {
    /// The quantile is at most this value (closed bucket's upper edge).
    UpperBound(u64),
    /// The quantile fell in the overflow bucket; it is at least this
    /// value (the overflow bucket's lower edge, `2^38`).
    OverflowAtLeast(u64),
}

impl QuantileBound {
    /// The bound's numeric value, losing the direction marker.
    #[must_use]
    pub fn value(self) -> u64 {
        match self {
            Self::UpperBound(v) | Self::OverflowAtLeast(v) => v,
        }
    }

    /// `"≤"` for closed buckets, `"≥"` for the overflow bucket.
    #[must_use]
    pub fn marker(self) -> &'static str {
        match self {
            Self::UpperBound(_) => "≤",
            Self::OverflowAtLeast(_) => "≥",
        }
    }
}

/// One counter's value at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Determinism class.
    pub class: Class,
    /// Accumulated value.
    pub value: u64,
}

/// One histogram's state at snapshot time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnap {
    /// Metric name.
    pub name: String,
    /// Determinism class.
    pub class: Class,
    /// Number of recorded values.
    pub count: u64,
    /// Sum of recorded values (exact, for means).
    pub sum: u64,
    /// Sparse `(bucket_index, count)` pairs, ascending, zero counts
    /// omitted. Bucket semantics are defined by [`crate::bucket_index`].
    pub buckets: Vec<(usize, u64)>,
}

impl HistogramSnap {
    /// Mean of recorded values, or 0 for an empty histogram.
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile: the bucket edge bracketing the first bucket
    /// whose cumulative count reaches `q * count`, or `None` when the
    /// histogram is empty. A quantile landing in the open-ended overflow
    /// bucket yields [`QuantileBound::OverflowAtLeast`] with the bucket's
    /// lower edge instead of vanishing.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<QuantileBound> {
        if self.count == 0 {
            return None;
        }
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        let mut last_index = 0usize;
        for &(index, count) in &self.buckets {
            cumulative += count;
            last_index = index;
            if cumulative >= target {
                return Some(match bucket_upper_bound(index) {
                    Some(hi) => QuantileBound::UpperBound(hi),
                    None => QuantileBound::OverflowAtLeast(bucket_lower_bound(index)),
                });
            }
        }
        // count > 0 but the walk fell through (inconsistent sparse
        // buckets); answer with the highest populated bucket.
        Some(match bucket_upper_bound(last_index) {
            Some(hi) => QuantileBound::UpperBound(hi),
            None => QuantileBound::OverflowAtLeast(bucket_lower_bound(last_index)),
        })
    }

    /// Numeric form of [`HistogramSnap::quantile`]: `None` only when the
    /// histogram is empty. A quantile in the overflow bucket reports the
    /// bucket's lower edge (`2^38`) — callers that care about direction
    /// should use [`HistogramSnap::quantile`] for the `≥` marker.
    #[must_use]
    pub fn quantile_upper_bound(&self, q: f64) -> Option<u64> {
        self.quantile(q).map(QuantileBound::value)
    }
}

/// An owned, sorted, merge-deduplicated copy of all registered metrics.
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterSnap>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistogramSnap>,
}

/// Captures the current state of every registered metric.
#[must_use]
pub fn snapshot() -> Snapshot {
    let (mut counters, mut histograms) = with_registry(|metrics| {
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        for metric in metrics {
            match metric {
                MetricRef::Counter(c) => counters.push(CounterSnap {
                    name: c.name().to_owned(),
                    class: c.class(),
                    value: c.get(),
                }),
                MetricRef::Histogram(h) => {
                    let (count, sum, raw) = h.read();
                    let buckets = raw
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| (i, n))
                        .collect();
                    histograms.push(HistogramSnap {
                        name: h.name().to_owned(),
                        class: h.class(),
                        count,
                        sum,
                        buckets,
                    });
                }
            }
        }
        (counters, histograms)
    });

    counters.sort_by(|a, b| a.name.cmp(&b.name));
    counters.dedup_by(|dup, keep| {
        if dup.name == keep.name {
            keep.value += dup.value;
            true
        } else {
            false
        }
    });

    histograms.sort_by(|a, b| a.name.cmp(&b.name));
    histograms.dedup_by(|dup, keep| {
        if dup.name != keep.name {
            return false;
        }
        keep.count += dup.count;
        keep.sum += dup.sum;
        let mut merged = [0u64; BUCKETS];
        for &(i, n) in keep.buckets.iter().chain(dup.buckets.iter()) {
            merged[i.min(OVERFLOW_BUCKET)] += n;
        }
        keep.buckets = merged
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (i, n))
            .collect();
        true
    });

    Snapshot {
        counters,
        histograms,
    }
}

impl Snapshot {
    /// Looks up a counter's value by name.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Looks up a histogram by name.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// All counters whose name starts with `prefix`, in name order
    /// (the snapshot is already sorted). Used by commands that surface
    /// one subsystem's counters — e.g. everything under `incr.` — as a
    /// block without naming each counter individually.
    pub fn counters_with_prefix<'a>(
        &'a self,
        prefix: &'a str,
    ) -> impl Iterator<Item = (&'a str, u64)> + 'a {
        self.counters
            .iter()
            .filter(move |c| c.name.starts_with(prefix))
            .map(|c| (c.name.as_str(), c.value))
    }

    /// What happened between `base` and `self`: per-counter and
    /// per-bucket saturating differences. Metrics absent from `base`
    /// (registered later) keep their full value; entries whose delta is
    /// zero are dropped, so interval deltas stay sparse. Both snapshots
    /// must come from [`snapshot`] (sorted, deduplicated) — the walk
    /// relies on name order.
    #[must_use]
    pub fn delta_since(&self, base: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .filter_map(|c| {
                let before = base
                    .counters
                    .binary_search_by(|b| b.name.as_str().cmp(&c.name))
                    .map_or(0, |i| base.counters[i].value);
                let value = c.value.saturating_sub(before);
                (value > 0).then(|| CounterSnap {
                    name: c.name.clone(),
                    class: c.class,
                    value,
                })
            })
            .collect();
        let histograms = self
            .histograms
            .iter()
            .filter_map(|h| {
                let mut dense = [0u64; BUCKETS];
                for &(i, n) in &h.buckets {
                    dense[i.min(OVERFLOW_BUCKET)] = n;
                }
                let mut count = h.count;
                let mut sum = h.sum;
                if let Ok(i) = base
                    .histograms
                    .binary_search_by(|b| b.name.as_str().cmp(&h.name))
                {
                    let before = &base.histograms[i];
                    count = count.saturating_sub(before.count);
                    sum = sum.saturating_sub(before.sum);
                    for &(i, n) in &before.buckets {
                        let slot = &mut dense[i.min(OVERFLOW_BUCKET)];
                        *slot = slot.saturating_sub(n);
                    }
                }
                (count > 0).then(|| HistogramSnap {
                    name: h.name.clone(),
                    class: h.class,
                    count,
                    sum,
                    buckets: dense
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| (i, n))
                        .collect(),
                })
            })
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Accumulates `other` into `self` by metric name (counters add,
    /// histogram counts/sums/buckets add). Used to merge a window's
    /// interval deltas back into one reportable snapshot; keeps the
    /// sorted-by-name invariant.
    pub fn merge_from(&mut self, other: &Snapshot) {
        for c in &other.counters {
            match self
                .counters
                .binary_search_by(|s| s.name.as_str().cmp(&c.name))
            {
                Ok(i) => self.counters[i].value += c.value,
                Err(i) => self.counters.insert(i, c.clone()),
            }
        }
        for h in &other.histograms {
            match self
                .histograms
                .binary_search_by(|s| s.name.as_str().cmp(&h.name))
            {
                Ok(i) => {
                    let mine = &mut self.histograms[i];
                    mine.count += h.count;
                    mine.sum += h.sum;
                    let mut dense = [0u64; BUCKETS];
                    for &(b, n) in mine.buckets.iter().chain(h.buckets.iter()) {
                        dense[b.min(OVERFLOW_BUCKET)] += n;
                    }
                    mine.buckets = dense
                        .iter()
                        .enumerate()
                        .filter(|(_, &n)| n > 0)
                        .map(|(i, &n)| (i, n))
                        .collect();
                }
                Err(i) => self.histograms.insert(i, h.clone()),
            }
        }
    }

    /// Deterministic JSON: [`Class::Det`] metrics only, sorted by name.
    /// For a fixed workload this is byte-identical at any worker count.
    #[must_use]
    pub fn to_json(&self) -> String {
        self.render_json(false)
    }

    /// Full JSON including performance-class metrics (wall-clock spans,
    /// per-worker load). Not stable across runs — for profiling, not
    /// diffing.
    #[must_use]
    pub fn to_json_full(&self) -> String {
        self.render_json(true)
    }

    fn render_json(&self, include_perf: bool) -> String {
        let keep = |class: Class| include_perf || class == Class::Det;
        let mut out = String::new();
        out.push_str("{\n  \"counters\": {");
        let counters: Vec<&CounterSnap> =
            self.counters.iter().filter(|c| keep(c.class)).collect();
        for (i, c) in counters.iter().enumerate() {
            let sep = if i + 1 < counters.len() { "," } else { "" };
            out.push_str("\n    ");
            json::write_escaped(&mut out, &c.name);
            let _ = write!(out, ": {}{sep}", c.value);
        }
        if counters.is_empty() {
            out.push_str("},\n");
        } else {
            out.push_str("\n  },\n");
        }
        out.push_str("  \"histograms\": {");
        let histograms: Vec<&HistogramSnap> =
            self.histograms.iter().filter(|h| keep(h.class)).collect();
        for (i, h) in histograms.iter().enumerate() {
            let sep = if i + 1 < histograms.len() { "," } else { "" };
            out.push_str("\n    ");
            json::write_escaped(&mut out, &h.name);
            let _ = write!(
                out,
                ": {{\"count\": {}, \"sum\": {}, \"buckets\": [",
                h.count, h.sum
            );
            for (j, (index, count)) in h.buckets.iter().enumerate() {
                let bsep = if j + 1 < h.buckets.len() { ", " } else { "" };
                let _ = write!(out, "[{index}, {count}]{bsep}");
            }
            let _ = write!(out, "]}}{sep}");
        }
        if histograms.is_empty() {
            out.push_str("}\n}\n");
        } else {
            out.push_str("\n  }\n}\n");
        }
        out
    }

    /// Human-readable summary table (all classes) for `--stats` output.
    #[must_use]
    pub fn stats_table(&self) -> String {
        let mut out = String::new();
        let name_width = self
            .counters
            .iter()
            .map(|c| c.name.len())
            .chain(self.histograms.iter().map(|h| h.name.len()))
            .max()
            .unwrap_or(0)
            .max(20);

        out.push_str("── xtalk stats ──\n");
        let det: Vec<&CounterSnap> = self
            .counters
            .iter()
            .filter(|c| c.class == Class::Det)
            .collect();
        if !det.is_empty() {
            out.push_str("counters (deterministic):\n");
            for c in det {
                let _ = writeln!(out, "  {:<name_width$}  {}", c.name, c.value);
            }
        }
        let perf: Vec<&CounterSnap> = self
            .counters
            .iter()
            .filter(|c| c.class == Class::Perf)
            .collect();
        if !perf.is_empty() {
            out.push_str("counters (perf):\n");
            for c in perf {
                let _ = writeln!(out, "  {:<name_width$}  {}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("distributions:\n");
            for h in &self.histograms {
                let is_ns = h.name.ends_with(".ns");
                let fmt = |v: f64| {
                    if is_ns {
                        format_ns(v)
                    } else {
                        format_count(v)
                    }
                };
                let (marker, p95) = h.quantile(0.95).map_or_else(
                    || ("≤", "-".to_owned()),
                    |b| (b.marker(), fmt(b.value() as f64)),
                );
                let _ = writeln!(
                    out,
                    "  {:<name_width$}  n={:<7} mean={:<10} p95{marker}{:<10} total={}",
                    h.name,
                    h.count,
                    fmt(h.mean()),
                    p95,
                    fmt(h.sum as f64),
                );
            }
        }
        out
    }
}

/// Formats a nanosecond quantity with a readable unit.
fn format_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}µs", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

fn format_count(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.1}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        Snapshot {
            counters: vec![
                CounterSnap {
                    name: "a.det".into(),
                    class: Class::Det,
                    value: 7,
                },
                CounterSnap {
                    name: "b.perf".into(),
                    class: Class::Perf,
                    value: 9,
                },
            ],
            histograms: vec![
                HistogramSnap {
                    name: "h.det".into(),
                    class: Class::Det,
                    count: 3,
                    sum: 12,
                    buckets: vec![(1, 1), (3, 2)],
                },
                HistogramSnap {
                    name: "span.x.ns".into(),
                    class: Class::Perf,
                    count: 2,
                    sum: 2_000,
                    buckets: vec![(10, 2)],
                },
            ],
        }
    }

    #[test]
    fn det_json_excludes_perf_metrics() {
        let json = sample().to_json();
        assert!(json.contains("\"a.det\": 7"));
        assert!(json.contains("\"h.det\""));
        assert!(!json.contains("b.perf"));
        assert!(!json.contains("span.x.ns"));
    }

    #[test]
    fn full_json_includes_everything() {
        let json = sample().to_json_full();
        assert!(json.contains("\"b.perf\": 9"));
        assert!(json.contains("span.x.ns"));
    }

    #[test]
    fn empty_snapshot_is_valid_json_shape() {
        let json = Snapshot::default().to_json();
        assert_eq!(json, "{\n  \"counters\": {},\n  \"histograms\": {}\n}\n");
    }

    #[test]
    fn stats_table_mentions_all_sections() {
        let table = sample().stats_table();
        assert!(table.contains("counters (deterministic):"));
        assert!(table.contains("counters (perf):"));
        assert!(table.contains("distributions:"));
        assert!(table.contains("a.det"));
        assert!(table.contains("span.x.ns"));
    }

    #[test]
    fn quantile_upper_bound_walks_buckets() {
        let h = &sample().histograms[0]; // counts: bucket1=1, bucket3=2
        assert_eq!(h.quantile_upper_bound(0.01), Some(1)); // first value
        assert_eq!(h.quantile_upper_bound(1.0), Some(7)); // bucket 3 → ≤ 7
        let empty = HistogramSnap {
            name: "e".into(),
            class: Class::Det,
            count: 0,
            sum: 0,
            buckets: vec![],
        };
        assert_eq!(empty.quantile_upper_bound(0.5), None);
    }

    #[test]
    fn overflow_quantile_reports_lower_edge_not_none() {
        let h = HistogramSnap {
            name: "slow".into(),
            class: Class::Perf,
            count: 10,
            sum: 0,
            buckets: vec![(1, 5), (OVERFLOW_BUCKET, 5)],
        };
        // Median is still in the closed buckets...
        assert_eq!(h.quantile(0.5), Some(QuantileBound::UpperBound(1)));
        // ...but p95 lands in overflow: a `≥ 2^38` statement, not a blank.
        let p95 = h.quantile(0.95).expect("non-empty");
        assert_eq!(p95, QuantileBound::OverflowAtLeast(1u64 << 38));
        assert_eq!(p95.marker(), "≥");
        assert_eq!(h.quantile_upper_bound(0.95), Some(1u64 << 38));
        // The stats table renders the marker instead of "overflow".
        let table = Snapshot {
            counters: vec![],
            histograms: vec![h],
        }
        .stats_table();
        assert!(table.contains("p95≥"), "table was:\n{table}");
    }

    #[test]
    fn delta_since_subtracts_per_name_and_per_bucket() {
        let base = Snapshot {
            counters: vec![CounterSnap {
                name: "a".into(),
                class: Class::Det,
                value: 3,
            }],
            histograms: vec![HistogramSnap {
                name: "h".into(),
                class: Class::Det,
                count: 2,
                sum: 5,
                buckets: vec![(1, 1), (3, 1)],
            }],
        };
        let now = Snapshot {
            counters: vec![
                CounterSnap {
                    name: "a".into(),
                    class: Class::Det,
                    value: 10,
                },
                CounterSnap {
                    name: "b".into(),
                    class: Class::Det,
                    value: 4,
                },
            ],
            histograms: vec![HistogramSnap {
                name: "h".into(),
                class: Class::Det,
                count: 5,
                sum: 25,
                buckets: vec![(1, 1), (3, 3), (4, 1)],
            }],
        };
        let d = now.delta_since(&base);
        assert_eq!(d.counter("a"), Some(7));
        assert_eq!(d.counter("b"), Some(4));
        let h = d.histogram("h").expect("histogram delta present");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum, 20);
        assert_eq!(h.buckets, vec![(3, 2), (4, 1)]);
        // A no-change delta is empty, not full of zeros.
        let none = now.delta_since(&now);
        assert!(none.counters.is_empty() && none.histograms.is_empty());
    }

    #[test]
    fn merge_from_accumulates_and_keeps_order() {
        let mut acc = Snapshot::default();
        let part = Snapshot {
            counters: vec![CounterSnap {
                name: "b".into(),
                class: Class::Det,
                value: 2,
            }],
            histograms: vec![HistogramSnap {
                name: "h".into(),
                class: Class::Det,
                count: 1,
                sum: 4,
                buckets: vec![(3, 1)],
            }],
        };
        acc.merge_from(&part);
        acc.merge_from(&part);
        let other = Snapshot {
            counters: vec![CounterSnap {
                name: "a".into(),
                class: Class::Det,
                value: 1,
            }],
            histograms: vec![],
        };
        acc.merge_from(&other);
        assert_eq!(acc.counter("a"), Some(1));
        assert_eq!(acc.counter("b"), Some(4));
        assert_eq!(
            acc.counters.iter().map(|c| c.name.as_str()).collect::<Vec<_>>(),
            vec!["a", "b"],
            "merge must keep the sorted-by-name invariant"
        );
        let h = acc.histogram("h").expect("merged histogram");
        assert_eq!((h.count, h.sum), (2, 8));
        assert_eq!(h.buckets, vec![(3, 2)]);
    }

    #[test]
    fn counters_with_prefix_selects_in_name_order() {
        let snap = Snapshot {
            counters: vec![
                CounterSnap {
                    name: "incr.query.hit".into(),
                    class: Class::Perf,
                    value: 7,
                },
                CounterSnap {
                    name: "incr.query.miss".into(),
                    class: Class::Perf,
                    value: 3,
                },
                CounterSnap {
                    name: "other.counter".into(),
                    class: Class::Det,
                    value: 9,
                },
            ],
            histograms: vec![],
        };
        let got: Vec<_> = snap.counters_with_prefix("incr.").collect();
        assert_eq!(got, vec![("incr.query.hit", 7), ("incr.query.miss", 3)]);
        assert_eq!(snap.counters_with_prefix("absent.").count(), 0);
    }
}
