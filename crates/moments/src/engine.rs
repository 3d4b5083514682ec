#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
use crate::MomentError;
use xtalk_circuit::{NetId, Network, NodeId};
use xtalk_linalg::sparse::Csr;
use xtalk_linalg::{LuFactors, Matrix};

/// Dense MNA moment engine: the test oracle for
/// [`TreeMomentEngine`](crate::TreeMomentEngine).
///
/// No production path uses this engine; the tests compare the tree
/// engine's moments, and the closed-form tree formulas, against it. It
/// builds the nodal conductance matrix `G` (wire resistors plus driver
/// conductances; ideal sources are folded into the right-hand side) and
/// capacitance matrix `C` (grounded wire caps, sink loads, coupling caps),
/// factors `G` once, and evaluates the moment recursion
///
/// ```text
/// G·m0 = B_j        (unit DC excitation of source j)
/// G·m_k = −C·m_{k−1}
/// ```
///
/// where `m_k` is the vector of `k`-th Taylor coefficients of all node
/// voltages for a unit input at source `j`. The Taylor coefficients of the
/// transfer function to node `o` are `h_k = m_k[o]`; they are **exact** for
/// the linearized network (no model-order reduction involved).
///
/// Construction is `O(n³)` once and holds two dense `n × n` matrices;
/// each additional moment order or source is an `O(n²)` solve.
#[derive(Debug)]
pub struct MomentEngine {
    n: usize,
    lu: LuFactors,
    /// `C`, stored sparse: it has only a few entries per row, so the
    /// recursion matvec `−C·m_{k−1}` costs O(nnz) per order instead of
    /// O(n²), and the engine keeps no second dense matrix.
    c_csr: Csr,
    /// Per net: (driver node index, driver conductance).
    driver: Vec<(usize, f64)>,
}

impl MomentEngine {
    /// Builds and factors the MNA system for `network`.
    ///
    /// # Errors
    ///
    /// Returns [`MomentError::Numerical`] if `G` cannot be factored
    /// (conditioning pathology; structurally impossible for a validated
    /// network).
    pub fn new(network: &Network) -> Result<Self, MomentError> {
        let _span = xtalk_obs::span!("moments.mna_build");
        xtalk_obs::counter!("moments.mna.builds").add(1);
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
        let mut driver = Vec::with_capacity(network.net_count());
        for (_, net) in network.nets() {
            let d = net.driver();
            let cond = 1.0 / d.ohms;
            g.add_at(d.node.index(), d.node.index(), cond);
            driver.push((d.node.index(), cond));
        }
        for gc in network.ground_caps() {
            c.add_at(gc.node.index(), gc.node.index(), gc.farads);
        }
        for (_, net) in network.nets() {
            for s in net.sinks() {
                c.add_at(s.node.index(), s.node.index(), s.farads);
            }
        }
        for cc in network.coupling_caps() {
            let (a, b) = (cc.a.index(), cc.b.index());
            c.add_at(a, a, cc.farads);
            c.add_at(b, b, cc.farads);
            c.add_at(a, b, -cc.farads);
            c.add_at(b, a, -cc.farads);
        }

        let lu = g.lu()?;
        let c_csr = Csr::from_dense(&c);
        Ok(MomentEngine {
            n,
            lu,
            c_csr,
            driver,
        })
    }

    /// Number of nodes in the underlying network.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// DC node-voltage vector for a unit input at the source of `net`
    /// (all other sources quiet): 1 on that net's nodes, 0 elsewhere.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    ///
    /// # Panics
    ///
    /// Panics if `net` is out of bounds for the engine's network.
    pub fn dc_response(&self, net: NetId) -> Result<Vec<f64>, MomentError> {
        let (node, cond) = self.driver[net.index()];
        let mut b = vec![0.0; self.n];
        b[node] = cond;
        Ok(self.lu.solve(&b)?)
    }

    /// Taylor-coefficient vectors `m_0 … m_{order−1}` of all node voltages
    /// for a unit input at the source of `net`.
    ///
    /// # Errors
    ///
    /// [`MomentError::ZeroOrder`] when `order == 0`; numerical failures
    /// otherwise.
    pub fn moment_vectors(&self, net: NetId, order: usize) -> Result<Vec<Vec<f64>>, MomentError> {
        if order == 0 {
            return Err(MomentError::ZeroOrder);
        }
        xtalk_obs::counter!("moments.mna.moment_vectors").add(1);
        let mut out = Vec::with_capacity(order);
        out.push(self.dc_response(net)?);
        // One reusable rhs buffer across all orders; each m_k is solved
        // directly into its own (returned) vector.
        let mut rhs = vec![0.0; self.n];
        for _ in 1..order {
            let prev = out.last().expect("at least m0 present");
            // rhs = -C * prev, over the stored entries of sparse C.
            self.c_csr.mul_vec_into(prev, &mut rhs)?;
            for r in &mut rhs {
                *r = -*r;
            }
            let mut next = vec![0.0; self.n];
            LuFactors::solve_into([&self.lu], &rhs, &mut next)?;
            out.push(next);
        }
        Ok(out)
    }

    /// Taylor coefficients `h_0 … h_{order−1}` of the transfer function
    /// from the source of `net` to node `output`.
    ///
    /// For an aggressor source and a victim observation node, `h0 = 0`
    /// and `h1` is the paper's `a1` coefficient.
    ///
    /// # Errors
    ///
    /// [`MomentError::ZeroOrder`] when `order == 0`; numerical failures
    /// otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `output` is out of bounds.
    pub fn transfer_taylor(
        &self,
        net: NetId,
        output: NodeId,
        order: usize,
    ) -> Result<Vec<f64>, MomentError> {
        let vectors = self.moment_vectors(net, order)?;
        Ok(vectors.iter().map(|m| m[output.index()]).collect())
    }

    /// Shared denominator coefficients `(b1, b2)` of the network's
    /// characteristic polynomial `det(I + s·G⁻¹C) = 1 + b1·s + b2·s² + …`,
    /// computed exactly from the matrix invariants of `A = G⁻¹C`:
    /// `b1 = tr A`, `b2 = (tr²A − tr A²)/2`.
    ///
    /// All transfer functions of the circuit share this denominator; the
    /// paper takes `b1` from the sum of open-circuit time constants
    /// (ref. \[11\]) — see [`crate::tree::open_circuit_b1`], which this
    /// method cross-validates.
    ///
    /// # Errors
    ///
    /// Propagates numerical failures.
    pub fn denominator(&self) -> Result<(f64, f64), MomentError> {
        // A = G^{-1} C, built column by column.
        let n = self.n;
        let c = self.c_csr.to_dense();
        let mut a = Matrix::zeros(n, n);
        let mut col = vec![0.0; n];
        let mut sol = vec![0.0; n];
        for j in 0..n {
            for i in 0..n {
                col[i] = c[(i, j)];
            }
            LuFactors::solve_into([&self.lu], &col, &mut sol)?;
            for i in 0..n {
                a[(i, j)] = sol[i];
            }
        }
        let mut tr = 0.0;
        for i in 0..n {
            tr += a[(i, i)];
        }
        let mut tr_sq = 0.0;
        for i in 0..n {
            for j in 0..n {
                tr_sq += a[(i, j)] * a[(j, i)];
            }
        }
        Ok((tr, 0.5 * (tr * tr - tr_sq)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xtalk_circuit::{NetRole, NetworkBuilder, NodeId};

    /// Single-net lumped RC: driver Rd into one node with cap C.
    /// H(s) from own source = 1/(1 + s·Rd·C).
    fn lumped_rc(rd: f64, cap: f64) -> (Network, NodeId) {
        let mut b = NetworkBuilder::new();
        let v = b.add_net("v", NetRole::Victim);
        let n0 = b.add_node(v, "n0");
        b.add_driver(v, n0, rd).unwrap();
        b.add_sink(n0, cap).unwrap();
        (b.build().unwrap(), n0)
    }

    /// Two single-node nets coupled by Cc; each net Rd, Cg.
    fn coupled_pair(rd: f64, cg: f64, cc: f64) -> Network {
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
        b.build().unwrap()
    }

    #[test]
    fn dc_response_is_indicator_of_driven_net() {
        let net = coupled_pair(100.0, 10e-15, 5e-15);
        let engine = MomentEngine::new(&net).unwrap();
        let agg = net.aggressor_nets().next().unwrap().0;
        let dc = engine.dc_response(agg).unwrap();
        let vic_node = net.victim_output().index();
        let agg_node = net.net(agg).driver().node.index();
        assert!((dc[agg_node] - 1.0).abs() < 1e-12);
        assert!(dc[vic_node].abs() < 1e-12);
    }

    #[test]
    fn lumped_rc_taylor_matches_analytic_geometric_series() {
        // H(s) = 1/(1+s*tau): h_k = (-tau)^k.
        let (net, n0) = lumped_rc(200.0, 50e-15);
        let tau: f64 = 200.0 * 50e-15;
        let engine = MomentEngine::new(&net).unwrap();
        let h = engine.transfer_taylor(net.victim(), n0, 5).unwrap();
        for (k, hk) in h.iter().enumerate() {
            let expect = (-tau).powi(k as i32);
            assert!(
                (hk - expect).abs() < 1e-12 * expect.abs().max(1e-30),
                "h[{k}] = {hk}, expected {expect}"
            );
        }
    }

    #[test]
    fn coupled_pair_matches_analytic_transfer() {
        // Symmetric coupled pair. Let tau_g = Rd*Cg, tau_c = Rd*Cc.
        // Aggressor->victim transfer: H(s) = s*tau_c /
        //   ((1 + s(tau_g+tau_c))^2 - (s*tau_c)^2).
        // Expand: denominator D(s) = 1 + 2(tau_g+tau_c)s + (tau_g^2 + 2*tau_g*tau_c)s^2.
        let (rd, cg, cc) = (150.0, 20e-15, 8e-15);
        let (tg, tc) = (rd * cg, rd * cc);
        let net = coupled_pair(rd, cg, cc);
        let engine = MomentEngine::new(&net).unwrap();
        let agg = net.aggressor_nets().next().unwrap().0;
        let h = engine
            .transfer_taylor(agg, net.victim_output(), 4)
            .unwrap();
        // Analytic Taylor coefficients of s*tc/D(s):
        let d1 = 2.0 * (tg + tc);
        let d2 = tg * tg + 2.0 * tg * tc;
        let h1 = tc;
        let h2 = -tc * d1;
        let h3 = tc * (d1 * d1 - d2);
        assert!(h[0].abs() < 1e-20);
        assert!((h[1] - h1).abs() < 1e-12 * h1.abs());
        assert!((h[2] - h2).abs() < 1e-12 * h2.abs());
        assert!((h[3] - h3).abs() < 1e-12 * h3.abs());
    }

    #[test]
    fn denominator_matches_analytic_for_coupled_pair() {
        let (rd, cg, cc) = (100.0, 15e-15, 6e-15);
        let (tg, tc) = (rd * cg, rd * cc);
        let net = coupled_pair(rd, cg, cc);
        let engine = MomentEngine::new(&net).unwrap();
        let (b1, b2) = engine.denominator().unwrap();
        assert!((b1 - 2.0 * (tg + tc)).abs() < 1e-12 * b1);
        let b2_expect = tg * tg + 2.0 * tg * tc;
        assert!((b2 - b2_expect).abs() < 1e-12 * b2);
    }

    #[test]
    fn zero_order_rejected() {
        let (net, _) = lumped_rc(100.0, 1e-15);
        let engine = MomentEngine::new(&net).unwrap();
        assert!(matches!(
            engine.moment_vectors(net.victim(), 0),
            Err(MomentError::ZeroOrder)
        ));
    }

    #[test]
    fn moments_do_not_depend_on_roles() {
        // The engine reads element and net order only: swapping which
        // net is the victim leaves every moment vector bit-identical.
        let net = coupled_pair(100.0, 1e-15, 1e-15);
        let mut swapped = NetworkBuilder::new();
        let v = swapped.add_net("v", NetRole::Aggressor);
        let a = swapped.add_net("a", NetRole::Victim);
        let n0 = swapped.add_node(v, "n0");
        let n1 = swapped.add_node(a, "n1");
        swapped.add_driver(v, n0, 100.0).unwrap();
        swapped.add_driver(a, n1, 100.0).unwrap();
        swapped.add_sink(n0, 1e-15).unwrap();
        swapped.add_sink(n1, 1e-15).unwrap();
        swapped.add_coupling_cap(n0, n1, 1e-15).unwrap();
        let swapped = swapped.build().unwrap();
        let (e1, e2) = (
            MomentEngine::new(&net).unwrap(),
            MomentEngine::new(&swapped).unwrap(),
        );
        assert_eq!(e1.node_count(), 2);
        for (id, _) in net.nets() {
            let (m1, m2) = (
                e1.moment_vectors(id, 4).unwrap(),
                e2.moment_vectors(id, 4).unwrap(),
            );
            for (x, y) in m1.iter().flatten().zip(m2.iter().flatten()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }
}
