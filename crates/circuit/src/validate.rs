//! Pre-analysis network validation.
//!
//! [`Network::validate`] inspects a built network for conditions that
//! would make the downstream moment engine and closed-form metrics
//! produce cryptic errors, NaNs, or silently meaningless numbers. It
//! returns a structured [`ValidationReport`] instead of failing fast, so
//! callers (notably the `RobustAnalyzer` in `xtalk-core` and the CLI)
//! can decide per-policy whether to abort, degrade, or merely warn.
//!
//! [`crate::NetworkBuilder`] already rejects most of these conditions at
//! construction time; the validator matters for networks built through
//! [`crate::NetworkBuilder::permissive`] (fault injection, external
//! deserialization) and for *analytical* degeneracies that are
//! structurally legal — a victim with no coupling path, an observation
//! node with no capacitance — which the builder deliberately allows.

use crate::network::Network;
use crate::{NetId, NodeId};
use std::fmt;

/// How serious a [`ValidationFinding`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Analysis can proceed; the result may be trivial or less accurate.
    Warning,
    /// Analysis on this network is meaningless or numerically unsafe.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// The category of a single validation finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ValidationKind {
    /// An element value (R or C) is NaN or infinite.
    NonFiniteValue,
    /// A resistance or capacitance that must be positive is zero or
    /// negative (sink loads may be zero; everything else may not).
    NonPositiveValue,
    /// A node carries no capacitance of any kind (ground, sink, or
    /// coupling) — it is charge-floating and contributes nothing.
    FloatingNode,
    /// A node is not resistively reachable from its net's driver.
    DisconnectedNode,
    /// The victim net has no coupling capacitor to any aggressor: every
    /// noise estimate is trivially zero.
    VictimNotCoupled,
    /// The victim observation node carries no capacitance, so lumped
    /// estimates at that node degenerate.
    ZeroCapObservation,
    /// A net's total capacitance is zero: time constants collapse and
    /// moment ratios divide by zero.
    ZeroNetCapacitance,
}

impl fmt::Display for ValidationKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValidationKind::NonFiniteValue => "non-finite element value",
            ValidationKind::NonPositiveValue => "non-positive element value",
            ValidationKind::FloatingNode => "capacitance-free node",
            ValidationKind::DisconnectedNode => "node unreachable from driver",
            ValidationKind::VictimNotCoupled => "victim has no coupling path",
            ValidationKind::ZeroCapObservation => "observation node has no capacitance",
            ValidationKind::ZeroNetCapacitance => "net has zero total capacitance",
        };
        write!(f, "{s}")
    }
}

/// One problem discovered by [`Network::validate`].
#[derive(Debug, Clone, PartialEq)]
pub struct ValidationFinding {
    /// How serious the finding is.
    pub severity: Severity,
    /// Machine-matchable category.
    pub kind: ValidationKind,
    /// Human-readable detail (names the element and its value).
    pub message: String,
    /// The net involved, when the finding is net-scoped.
    pub net: Option<NetId>,
    /// The node involved, when the finding is node-scoped.
    pub node: Option<NodeId>,
}

impl fmt::Display for ValidationFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}: {}", self.severity, self.kind, self.message)
    }
}

/// Outcome of [`Network::validate`]: an ordered list of findings.
///
/// An empty report means the network is safe for the moment engine and
/// analytically non-trivial. Reports render line-per-finding via
/// `Display`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    findings: Vec<ValidationFinding>,
}

impl ValidationReport {
    /// No findings at all.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// `true` when at least one finding is [`Severity::Error`].
    pub fn has_errors(&self) -> bool {
        self.findings.iter().any(|f| f.severity == Severity::Error)
    }

    /// All findings, in discovery order (element values first, then
    /// structure, then analytical degeneracies).
    pub fn findings(&self) -> &[ValidationFinding] {
        &self.findings
    }

    /// Findings of exactly `severity`.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &ValidationFinding> {
        self.findings.iter().filter(move |f| f.severity == severity)
    }

    /// The most severe level present, or `None` for a clean report.
    pub fn worst(&self) -> Option<Severity> {
        self.findings.iter().map(|f| f.severity).max()
    }

    fn push(
        &mut self,
        severity: Severity,
        kind: ValidationKind,
        message: String,
        net: Option<NetId>,
        node: Option<NodeId>,
    ) {
        self.findings.push(ValidationFinding {
            severity,
            kind,
            message,
            net,
            node,
        });
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.findings.is_empty() {
            return write!(f, "network validation: clean");
        }
        for (i, finding) in self.findings.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{finding}")?;
        }
        Ok(())
    }
}

/// Classifies a value that must be strictly positive and finite. The
/// label is formatted only when a finding is pushed.
fn check_value(
    report: &mut ValidationReport,
    what: impl FnOnce() -> String,
    value: f64,
    allow_zero: bool,
    net: Option<NetId>,
    node: Option<NodeId>,
) {
    let kind = if !value.is_finite() {
        ValidationKind::NonFiniteValue
    } else if value < 0.0 || (value == 0.0 && !allow_zero) {
        ValidationKind::NonPositiveValue
    } else {
        return;
    };
    report.push(
        Severity::Error,
        kind,
        format!("{} is {value}", what()),
        net,
        node,
    );
}

impl Network {
    /// Checks the network for conditions that break or trivialize the
    /// noise analysis, returning every finding rather than the first.
    ///
    /// Severity semantics:
    ///
    /// * [`Severity::Error`] — the moment engine would produce NaNs,
    ///   divide by zero, or operate on a disconnected graph: non-finite
    ///   or non-positive element values, nodes unreachable from their
    ///   driver, nets with zero total capacitance.
    /// * [`Severity::Warning`] — analysis is well-defined but the result
    ///   is trivial or locally degenerate: a victim with no coupling
    ///   path (noise is identically zero), a capacitance-free internal
    ///   node, an observation node carrying no capacitance.
    ///
    /// Networks built through the checked [`crate::NetworkBuilder`] can
    /// only produce warnings; errors appear for networks built through
    /// [`crate::NetworkBuilder::permissive`] or corrupted on disk.
    ///
    /// The report is [`Network::validate_structure`] followed by the
    /// victim findings of [`Network::validate_victim`]; the whole pass is
    /// linear in the element count.
    ///
    /// # Examples
    ///
    /// ```
    /// use xtalk_circuit::{NetRole, NetworkBuilder, Severity, ValidationKind};
    ///
    /// # fn main() -> Result<(), xtalk_circuit::CircuitError> {
    /// let mut b = NetworkBuilder::new();
    /// let v = b.add_net("vic", NetRole::Victim);
    /// let v0 = b.add_node(v, "v0");
    /// b.add_driver(v, v0, 100.0)?;
    /// b.add_sink(v0, 1e-15)?;
    /// // No aggressor at all: legal, but the noise is trivially zero.
    /// let report = b.build()?.validate();
    /// assert!(report.has_errors() == false);
    /// assert!(report
    ///     .findings()
    ///     .iter()
    ///     .any(|f| f.kind == ValidationKind::VictimNotCoupled));
    /// # Ok(())
    /// # }
    /// ```
    pub fn validate(&self) -> ValidationReport {
        let mut report = self.validate_structure();
        self.push_victim_findings(&mut report);
        report
    }

    /// The findings of [`Network::validate`] that do not depend on which
    /// net is the victim: element values, reachability, and per-net
    /// capacitance. One report serves every victim designation of the
    /// same elements (see [`Network::validate_victim`]).
    pub fn validate_structure(&self) -> ValidationReport {
        let mut report = ValidationReport::default();

        // --- Element values -------------------------------------------------
        for (i, r) in self.resistors.iter().enumerate() {
            check_value(
                &mut report,
                || format!("resistor {i} ({}-{})", r.a, r.b),
                r.ohms,
                false,
                Some(self.node_net(r.a)),
                Some(r.a),
            );
        }
        for (net_id, net) in self.nets() {
            check_value(
                &mut report,
                || format!("driver resistance of net {:?}", net.name()),
                net.driver().ohms,
                false,
                Some(net_id),
                Some(net.driver().node),
            );
            for s in net.sinks() {
                check_value(
                    &mut report,
                    || format!("sink load at node {}", s.node),
                    s.farads,
                    true, // zero loads model ideal probes
                    Some(net_id),
                    Some(s.node),
                );
            }
        }
        for (i, c) in self.ground_caps.iter().enumerate() {
            check_value(
                &mut report,
                || format!("ground capacitor {i} at node {}", c.node),
                c.farads,
                false,
                Some(self.node_net(c.node)),
                Some(c.node),
            );
        }
        for (i, c) in self.coupling_caps.iter().enumerate() {
            check_value(
                &mut report,
                || format!("coupling capacitor {i} ({}-{})", c.a, c.b),
                c.farads,
                false,
                Some(self.node_net(c.a)),
                Some(c.a),
            );
        }

        // --- Structure ------------------------------------------------------
        // Re-walk each net's resistive graph from its driver. The checked
        // builder guarantees connectivity, but permissively built or
        // hand-deserialized networks may not honor it. One adjacency list
        // serves every net; a node counts as reached only by the walk of
        // the net that marked it.
        let n = self.node_count();
        let mut start = vec![0usize; n + 1];
        for r in &self.resistors {
            start[r.a.index() + 1] += 1;
            start[r.b.index() + 1] += 1;
        }
        for i in 0..n {
            start[i + 1] += start[i];
        }
        let mut fill = start.clone();
        let mut adjacent = vec![NodeId(0); start[n]];
        for r in &self.resistors {
            adjacent[fill[r.a.index()]] = r.b;
            fill[r.a.index()] += 1;
            adjacent[fill[r.b.index()]] = r.a;
            fill[r.b.index()] += 1;
        }
        let mut reached_by: Vec<Option<NetId>> = vec![None; n];
        let mut stack = Vec::new();
        for (net_id, net) in self.nets() {
            reached_by[net.driver().node.index()] = Some(net_id);
            stack.push(net.driver().node);
            while let Some(u) = stack.pop() {
                for &next in &adjacent[start[u.index()]..start[u.index() + 1]] {
                    if self.node_net(next) == net_id && reached_by[next.index()] != Some(net_id) {
                        reached_by[next.index()] = Some(net_id);
                        stack.push(next);
                    }
                }
            }
            for &n in net.nodes() {
                if reached_by[n.index()] != Some(net_id) {
                    report.push(
                        Severity::Error,
                        ValidationKind::DisconnectedNode,
                        format!(
                            "node {} ({:?}) is not resistively reachable from the driver of net {:?}",
                            n,
                            self.node_name(n),
                            net.name()
                        ),
                        Some(net_id),
                        Some(n),
                    );
                }
            }
        }

        // --- Analytical degeneracies ---------------------------------------
        // Per-node totals in one pass, summed in the order
        // `node_total_cap` uses (ground caps, sinks, coupling caps), so
        // every total is bit-identical to it.
        let mut node_cap = vec![0.0; n];
        for gc in &self.ground_caps {
            node_cap[gc.node.index()] += gc.farads;
        }
        for net in &self.nets {
            for s in &net.sinks {
                node_cap[s.node.index()] += s.farads;
            }
        }
        for cc in &self.coupling_caps {
            node_cap[cc.a.index()] += cc.farads;
            if cc.b != cc.a {
                node_cap[cc.b.index()] += cc.farads;
            }
        }
        for (net_id, net) in self.nets() {
            let total: f64 = net.nodes().iter().map(|n| node_cap[n.index()]).sum();
            if total == 0.0 {
                report.push(
                    Severity::Error,
                    ValidationKind::ZeroNetCapacitance,
                    format!("net {:?} carries no capacitance at all", net.name()),
                    Some(net_id),
                    None,
                );
            } else if total.is_finite() {
                for &n in net.nodes() {
                    // Leaf sinks always carry a (possibly zero) load; an
                    // interior node without any capacitance is legal but
                    // suspicious in a distributed-RC extraction. The
                    // driver root is exempt: a bare driver node feeding an
                    // RC ladder is the normal generated/extracted shape.
                    if n == net.driver().node {
                        continue;
                    }
                    if node_cap[n.index()] == 0.0 {
                        report.push(
                            Severity::Warning,
                            ValidationKind::FloatingNode,
                            format!(
                                "node {} ({:?}) carries no ground, sink, or coupling capacitance",
                                n,
                                self.node_name(n)
                            ),
                            Some(net_id),
                            Some(n),
                        );
                    }
                }
            }
        }
        report
    }

    /// `structure` — this network's [`Network::validate_structure`]
    /// report, possibly taken under another victim designation of the
    /// same elements — followed by the findings about the current victim.
    /// Equal to [`Network::validate`], at the cost of the victim findings
    /// alone.
    pub fn validate_victim(&self, structure: &ValidationReport) -> ValidationReport {
        let mut report = structure.clone();
        self.push_victim_findings(&mut report);
        report
    }

    fn push_victim_findings(&self, report: &mut ValidationReport) {
        let victim_coupled = self
            .coupling_caps
            .iter()
            .any(|c| self.node_net(c.a) == self.victim || self.node_net(c.b) == self.victim);
        if !victim_coupled {
            report.push(
                Severity::Warning,
                ValidationKind::VictimNotCoupled,
                format!(
                    "victim net {:?} has no coupling capacitor to any aggressor; noise is identically zero",
                    self.victim_net().name()
                ),
                Some(self.victim),
                None,
            );
        }

        if self.node_total_cap(self.victim_output) == 0.0 {
            report.push(
                Severity::Warning,
                ValidationKind::ZeroCapObservation,
                format!(
                    "victim observation node {} ({:?}) carries no capacitance",
                    self.victim_output,
                    self.node_name(self.victim_output)
                ),
                Some(self.victim),
                Some(self.victim_output),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NetRole, NetworkBuilder};

    fn coupled_pair() -> Network {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 100.0).unwrap();
        b.add_driver(a, a0, 100.0).unwrap();
        b.add_sink(v0, 1e-15).unwrap();
        b.add_sink(a0, 1e-15).unwrap();
        b.add_coupling_cap(v0, a0, 1e-15).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn healthy_network_is_clean() {
        let report = coupled_pair().validate();
        assert!(report.is_clean(), "{report}");
        assert_eq!(report.worst(), None);
    }

    #[test]
    fn uncoupled_victim_is_a_warning() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let v0 = b.add_node(v, "v0");
        b.add_driver(v, v0, 100.0).unwrap();
        b.add_sink(v0, 1e-15).unwrap();
        let report = b.build().unwrap().validate();
        assert!(!report.has_errors());
        assert_eq!(report.worst(), Some(Severity::Warning));
        assert!(report
            .findings()
            .iter()
            .any(|f| f.kind == ValidationKind::VictimNotCoupled));
    }

    #[test]
    fn zero_cap_observation_node_is_flagged() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, 100.0).unwrap();
        b.add_driver(a, a0, 100.0).unwrap();
        b.add_resistor(v0, v1, 10.0).unwrap();
        b.add_sink(v1, 0.0).unwrap(); // ideal probe: zero load
        b.add_sink(a0, 1e-15).unwrap();
        b.add_coupling_cap(v0, a0, 1e-15).unwrap();
        let report = b.build().unwrap().validate();
        assert!(report
            .findings()
            .iter()
            .any(|f| f.kind == ValidationKind::ZeroCapObservation));
        assert!(report
            .findings()
            .iter()
            .any(|f| f.kind == ValidationKind::FloatingNode));
    }

    #[test]
    fn permissive_corruption_is_reported_as_errors() {
        let mut b = NetworkBuilder::permissive();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        b.add_driver(v, v0, f64::NAN).unwrap();
        b.add_driver(a, a0, 100.0).unwrap();
        b.add_resistor(v0, v1, -25.0).unwrap();
        b.add_ground_cap(v1, f64::INFINITY).unwrap();
        b.add_sink(v1, 1e-15).unwrap();
        b.add_sink(a0, 1e-15).unwrap();
        b.add_coupling_cap(v1, a0, 0.0).unwrap();
        let report = b.build().unwrap().validate();
        assert!(report.has_errors());
        let kinds: Vec<ValidationKind> =
            report.findings().iter().map(|f| f.kind).collect();
        assert!(kinds.contains(&ValidationKind::NonFiniteValue));
        assert!(kinds.contains(&ValidationKind::NonPositiveValue));
    }

    /// A network that triggers every [`ValidationKind`]: a NaN driver, a
    /// negative resistor, a capacitance-free victim sink (observation and
    /// floating node), no coupling at all, a net with zero capacitance,
    /// and an aggressor node cut off from its driver.
    fn every_finding() -> Network {
        let mut b = NetworkBuilder::permissive();
        let v = b.add_net("vic", NetRole::Victim);
        let a = b.add_net("agg", NetRole::Aggressor);
        let d = b.add_net("dead", NetRole::Aggressor);
        let v0 = b.add_node(v, "v0");
        let v1 = b.add_node(v, "v1");
        let a0 = b.add_node(a, "a0");
        let a1 = b.add_node(a, "a1");
        let d0 = b.add_node(d, "d0");
        b.add_driver(v, v0, f64::NAN).unwrap();
        b.add_driver(a, a0, 100.0).unwrap();
        b.add_driver(d, d0, 100.0).unwrap();
        b.add_resistor(a0, a1, 10.0).unwrap();
        b.add_resistor(v0, v1, -25.0).unwrap();
        b.add_ground_cap(v0, 2e-15).unwrap();
        b.add_sink(v1, 0.0).unwrap();
        b.add_sink(a1, 1e-15).unwrap();
        b.add_sink(d0, 0.0).unwrap();
        let mut network = b.build().unwrap();
        // Cut a1 off from the aggressor driver after construction.
        network.resistors.remove(0);
        network
    }

    #[test]
    fn report_display_lists_every_finding() {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("vic", NetRole::Victim);
        let v0 = b.add_node(v, "v0");
        b.add_driver(v, v0, 100.0).unwrap();
        b.add_sink(v0, 1e-15).unwrap();
        for network in [b.build().unwrap(), every_finding()] {
            let report = network.validate();
            let text = report.to_string();
            assert!(text.contains("warning"), "{text}");
            assert!(text.contains("coupling"), "{text}");
            assert_eq!(text.lines().count(), report.findings().len());
        }

        let report = every_finding().validate();
        assert_eq!(
            report.to_string(),
            "error: non-positive element value: resistor 0 (n0-n1) is -25\n\
             error: non-finite element value: driver resistance of net \"vic\" is NaN\n\
             error: node unreachable from driver: node n3 (\"a1\") is not resistively \
             reachable from the driver of net \"agg\"\n\
             warning: capacitance-free node: node n1 (\"v1\") carries no ground, sink, \
             or coupling capacitance\n\
             error: net has zero total capacitance: net \"dead\" carries no capacitance \
             at all\n\
             warning: victim has no coupling path: victim net \"vic\" has no coupling \
             capacitor to any aggressor; noise is identically zero\n\
             warning: observation node has no capacitance: victim observation node n1 \
             (\"v1\") carries no capacitance"
        );
    }
}
