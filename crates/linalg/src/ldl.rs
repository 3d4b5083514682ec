#![allow(clippy::needless_range_loop)] // index loops mirror the matrix math
//! Sparse symmetric LDLᵀ factorization with a fill-reducing ordering.
//!
//! MNA matrices of coupled RC interconnect are structurally sparse
//! symmetric positive-definite systems: a resistor tree contributes a
//! tridiagonal-like pattern, coupling capacitors add a handful of
//! off-tree entries. Factoring them densely costs O(n³) per step matrix;
//! the up-looking LDLᵀ here costs O(nnz(L)) per numeric factorization —
//! for an RC *tree* under the minimum-degree ordering, nnz(L) equals the
//! edge count, i.e. **zero fill-in**.
//!
//! The factorization is split the standard way so batch workloads pay the
//! structural analysis once:
//!
//! 1. [`LdlSymbolic::analyze`] — fill-reducing (minimum-degree)
//!    permutation, elimination tree, and the full structure of `L` (row
//!    indices per column, row patterns in solve order). Depends only on
//!    the sparsity *pattern*; shared by every timestep matrix `G + C/dt`
//!    on the pattern.
//! 2. [`LdlSymbolic::factor`] / [`LdlSymbolic::factor_values`] — numeric
//!    factorization allocating the `L`/`D` values once.
//! 3. [`LdlFactors::solve_into`] — forward/diagonal/backward
//!    substitution into caller buffers, for one system or for `L` lanes
//!    of one analysis in one sweep ([`crate::lanes`]); two factors of one
//!    analysis solve together through [`LdlFactors::solve_pair_into`].
//!    Allocation-free.
//!
//! The kernel is the classic up-looking method (cf. the SuiteSparse LDL
//! algorithm): row `k` of `L` is computed by a sparse triangular solve
//! whose nonzero pattern is read off the elimination tree (once, at
//! analysis time), so the work is proportional to the entries touched,
//! never to `n²`.
//!
//! # Examples
//!
//! ```
//! use xtalk_linalg::sparse::Triplets;
//! use xtalk_linalg::LdlSymbolic;
//!
//! // 3-node resistive chain: tridiagonal SPD.
//! let mut t = Triplets::new(3, 3);
//! for i in 0..3 {
//!     t.push(i, i, 2.0);
//! }
//! for i in 0..2 {
//!     t.push(i, i + 1, -1.0);
//!     t.push(i + 1, i, -1.0);
//! }
//! let a = t.to_csr();
//! let sym = LdlSymbolic::analyze(&a).unwrap();
//! let f = sym.factor(&a).unwrap();
//! let x = f.solve(&[1.0, 0.0, 0.0]).unwrap();
//! // Residual check: A·x == b.
//! let r = a.mul_vec(&x).unwrap();
//! assert!((r[0] - 1.0).abs() < 1e-12 && r[1].abs() < 1e-12);
//! ```

use crate::lanes::Lanes;
use crate::sparse::Csr;
use crate::LinalgError;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Sentinel for "no parent" in the elimination tree.
const NONE: usize = usize::MAX;

/// Diagonal pivots with magnitude below this are reported singular —
/// the same absolute floor the dense LU uses, so the two solvers map the
/// same degenerate systems to [`LinalgError::Singular`].
const PIVOT_EPS: f64 = 1e-300;

/// Minimum-degree ordering of a symmetric sparsity pattern.
///
/// Greedy elimination: repeatedly eliminate the vertex of smallest
/// current degree (ties broken by smallest index, so the result is
/// deterministic), connecting its neighbors into a clique. On a tree
/// this eliminates leaves first and produces **no fill at all**; coupling
/// caps that close cycles cost only local clique edges.
///
/// The adjacency lists share one flat buffer, each list duplicate-free
/// and in no particular order: the greedy choice depends only on each
/// vertex's degree and index, never on list order. A list that outgrows
/// its slot moves to the end of the buffer with twice the room.
fn min_degree_order(a: &Csr) -> (Vec<usize>, Vec<usize>) {
    let n = a.rows();
    assert!(
        n <= u32::MAX as usize,
        "ordering keys hold 32-bit vertex indices"
    );
    // Symmetrized adjacency without self loops: count, place, then sort
    // and dedup each list in place. On a symmetric pattern every edge
    // arrives from both of its rows, so each list keeps half its slot as
    // room to grow.
    let mut start = vec![0usize; n + 1];
    for r in 0..n {
        for (c, _) in a.row(r) {
            if c != r {
                start[r + 1] += 1;
                start[c + 1] += 1;
            }
        }
    }
    for v in 0..n {
        start[v + 1] += start[v];
    }
    let mut cap: Vec<usize> = (0..n).map(|v| start[v + 1] - start[v]).collect();
    let mut len = vec![0usize; n];
    let mut buf = vec![0usize; start[n]];
    for r in 0..n {
        for (c, _) in a.row(r) {
            if c != r {
                buf[start[r] + len[r]] = c;
                len[r] += 1;
                buf[start[c] + len[c]] = r;
                len[c] += 1;
            }
        }
    }
    for v in 0..n {
        let list = &mut buf[start[v]..start[v] + len[v]];
        list.sort_unstable();
        let mut kept = 0;
        for i in 0..list.len() {
            if kept == 0 || list[i] != list[kept - 1] {
                list[kept] = list[i];
                kept += 1;
            }
        }
        len[v] = kept;
    }
    // Lazy-deletion min-heap of `degree << 32 | vertex` keys, which
    // order exactly as (degree, vertex) pairs; stale entries (degree no
    // longer current) are skipped on pop.
    let key = |deg: usize, v: usize| ((deg as u64) << 32) | v as u64;
    let mut heap: BinaryHeap<Reverse<u64>> = (0..n).map(|v| Reverse(key(len[v], v))).collect();
    let mut eliminated = vec![false; n];
    // `mark[w] == stamp` flags `w` as already adjacent to the vertex
    // whose clique edges are being added.
    let mut mark = vec![0usize; n];
    let mut stamp = 0usize;
    let mut neigh = Vec::new();
    let mut perm = Vec::with_capacity(n);
    while let Some(Reverse(top)) = heap.pop() {
        let (deg, v) = ((top >> 32) as usize, (top & u64::from(u32::MAX)) as usize);
        if eliminated[v] || deg != len[v] {
            continue;
        }
        eliminated[v] = true;
        perm.push(v);
        neigh.clear();
        neigh.extend_from_slice(&buf[start[v]..start[v] + len[v]]);
        len[v] = 0;
        for &u in &neigh {
            let list = &mut buf[start[u]..start[u] + len[u]];
            if let Some(at) = list.iter().position(|&w| w == v) {
                list[at] = list[list.len() - 1];
                len[u] -= 1;
            }
        }
        for &u in &neigh {
            stamp += 1;
            for &w in &buf[start[u]..start[u] + len[u]] {
                mark[w] = stamp;
            }
            for &w in &neigh {
                if w == u || mark[w] == stamp {
                    continue;
                }
                if len[u] == cap[u] {
                    let (from, room) = (start[u], (2 * cap[u]).max(4));
                    start[u] = buf.len();
                    cap[u] = room;
                    buf.extend_from_within(from..from + len[u]);
                    buf.resize(start[u] + room, 0);
                }
                buf[start[u] + len[u]] = w;
                len[u] += 1;
            }
        }
        for &u in &neigh {
            heap.push(Reverse(key(len[u], u)));
        }
    }
    let mut pinv = vec![0usize; n];
    for (k, &v) in perm.iter().enumerate() {
        pinv[v] = k;
    }
    (perm, pinv)
}

/// Symbolic LDLᵀ analysis of a symmetric sparsity pattern: fill-reducing
/// permutation, elimination tree, and the exact structure of `L`.
///
/// Depends only on *which* entries are stored, so one analysis serves
/// every matrix sharing the pattern — `G`, `G + C/dt` at any `dt`, and
/// every horizon-retry refactorization. The analysis is shared, not
/// copied: cloning an `LdlSymbolic` or factoring with it hands out a
/// reference to the one structure, and factors of the same analysis can
/// be solved together ([`LdlFactors::set_lane`],
/// [`LdlFactors::solve_pair_into`]).
#[derive(Debug, Clone)]
pub struct LdlSymbolic {
    structure: Arc<Structure>,
}

/// The pattern-only half of an LDLᵀ factorization.
#[derive(Debug)]
struct Structure {
    n: usize,
    /// The analyzed pattern, values zeroed. Numeric factorizations read
    /// their values in its CSR entry order.
    pattern: Csr,
    /// `perm[k]` = original index eliminated at step `k`.
    perm: Vec<usize>,
    /// `pinv[original]` = elimination position.
    pinv: Vec<usize>,
    /// Column pointers of `L` (`n + 1` entries); `lp[n]` = nnz(L).
    lp: Vec<usize>,
    /// Row indices of `L`'s strictly-lower entries, column-major per
    /// `lp`, ascending within each column.
    li: Vec<usize>,
    /// Row `k` of `L` has its entries in the columns
    /// `ri[rp[k]..rp[k + 1]]`, listed in the topological order the
    /// up-looking solve visits them.
    rp: Vec<usize>,
    ri: Vec<usize>,
}

impl LdlSymbolic {
    /// Analyzes the pattern of `a` (must be square with a symmetric
    /// pattern — the stamped MNA matrices always are; use
    /// [`Csr::is_symmetric`] to verify arbitrary inputs).
    ///
    /// Records the predicted fill-in in the `linalg.ldl.fill` histogram
    /// (performance class: the value depends on which solver path a run
    /// selects, not on the workload itself).
    ///
    /// # Errors
    ///
    /// [`LinalgError::NotSquare`] when `a` is not square.
    pub fn analyze(a: &Csr) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                rows: a.rows(),
                cols: a.cols(),
            });
        }
        let n = a.rows();
        let (perm, pinv) = min_degree_order(a);

        // Elimination tree and exact per-column counts of L, via the
        // classic path-compression-free traversal: for every upper entry
        // (i, k) of the permuted matrix, walk i's root path until a node
        // already flagged for step k.
        let mut parent = vec![NONE; n];
        let mut lnz = vec![0usize; n];
        let mut flag = vec![NONE; n];
        for k in 0..n {
            flag[k] = k;
            for (c, _) in a.row(perm[k]) {
                let mut i = pinv[c];
                if i >= k {
                    continue;
                }
                while flag[i] != k {
                    if parent[i] == NONE {
                        parent[i] = k;
                    }
                    lnz[i] += 1;
                    flag[i] = k;
                    i = parent[i];
                }
            }
        }
        let mut lp = vec![0usize; n + 1];
        for k in 0..n {
            lp[k + 1] = lp[k] + lnz[k];
        }

        // Row patterns of L: for every upper entry (i, k), the reach of i
        // in the finished tree, each path pushed onto `order[top..n]` so
        // the row ends up in topological order. Column k of every visited
        // node gains row k, so `li` comes out ascending per column.
        let mut li = vec![0usize; lp[n]];
        let mut next = lp[..n].to_vec();
        let mut rp = vec![0usize; n + 1];
        let mut ri = Vec::with_capacity(lp[n]);
        let mut stack = vec![0usize; n];
        let mut order = vec![0usize; n];
        flag.fill(NONE);
        for k in 0..n {
            let mut top = n;
            flag[k] = k;
            for (c, _) in a.row(perm[k]) {
                let i0 = pinv[c];
                if i0 > k {
                    continue;
                }
                let mut len = 0;
                let mut i = i0;
                while flag[i] != k {
                    stack[len] = i;
                    len += 1;
                    flag[i] = k;
                    i = parent[i];
                }
                while len > 0 {
                    len -= 1;
                    top -= 1;
                    order[top] = stack[len];
                }
            }
            for &i in &order[top..] {
                ri.push(i);
                li[next[i]] = k;
                next[i] += 1;
            }
            rp[k + 1] = ri.len();
        }
        xtalk_obs::histogram!(perf: "linalg.ldl.fill").record(lp[n] as u64);
        let mut pattern = a.clone();
        pattern.values_mut().fill(0.0);
        Ok(LdlSymbolic {
            structure: Arc::new(Structure {
                n,
                pattern,
                perm,
                pinv,
                lp,
                li,
                rp,
                ri,
            }),
        })
    }

    /// Dimension of the analyzed pattern.
    pub fn dim(&self) -> usize {
        self.structure.n
    }

    /// Number of strictly-lower-triangular nonzeros `L` will hold
    /// (0 for a tree under the fill-reducing ordering).
    pub fn fill_nnz(&self) -> usize {
        self.structure.lp[self.structure.n]
    }

    /// The fill-reducing permutation (`perm[k]` = original index
    /// eliminated at step `k`).
    pub fn perm(&self) -> &[usize] {
        &self.structure.perm
    }

    /// The analyzed pattern with every stored value zero. Matrices on it
    /// can be kept as bare value arrays in its CSR entry order and
    /// factored with [`LdlSymbolic::factor_values`].
    pub fn pattern(&self) -> &Csr {
        &self.structure.pattern
    }

    /// Numerically factors `a`, which must be symmetric and store exactly
    /// the analyzed pattern (explicit zeros included). Allocates the
    /// `L`/`D` storage.
    ///
    /// # Errors
    ///
    /// * [`LinalgError::ShapeMismatch`] — `a` has a different dimension
    ///   or pattern.
    /// * [`LinalgError::NonFinite`] — `a` contains NaN/∞.
    /// * [`LinalgError::Singular`] — a diagonal pivot vanished (the
    ///   matrix is singular or far from positive definite).
    pub fn factor(&self, a: &Csr) -> Result<LdlFactors, LinalgError> {
        self.check_pattern(a)?;
        self.factor_values(a.values())
    }

    /// Like [`LdlSymbolic::factor`] for the matrix with the analyzed
    /// pattern and `values`, one per stored entry of
    /// [`LdlSymbolic::pattern`] in CSR order.
    ///
    /// # Errors
    ///
    /// As [`LdlSymbolic::factor`].
    pub fn factor_values(&self, values: &[f64]) -> Result<LdlFactors, LinalgError> {
        let mut f = LdlFactors::<1>::lanes(self);
        f.refactor_values(values)?;
        Ok(f)
    }

    fn check_pattern(&self, a: &Csr) -> Result<(), LinalgError> {
        let n = self.structure.n;
        if a.rows() != n || a.cols() != n {
            return Err(LinalgError::ShapeMismatch {
                found: format!("matrix of shape {}x{}", a.rows(), a.cols()),
                expected: format!("{n}x{n}"),
            });
        }
        if !a.same_pattern(&self.structure.pattern) {
            return Err(LinalgError::ShapeMismatch {
                found: format!("a pattern of {} stored entries", a.nnz()),
                expected: format!(
                    "the analyzed pattern of {} stored entries",
                    self.structure.pattern.nnz()
                ),
            });
        }
        Ok(())
    }
}

/// Numeric LDLᵀ factors `P·A·Pᵀ = L·D·Lᵀ`, of one system or of `L`
/// lanes side by side.
///
/// Obtained from [`LdlSymbolic::factor`] or
/// [`LdlSymbolic::factor_values`]; [`LdlFactors::solve_into`] solves
/// into caller buffers without allocating.
/// The structure of `L` belongs to the shared [`LdlSymbolic`]; a factor
/// holds only values. An `LdlFactors<L>` keeps the values of `L` factors
/// of one analysis interleaved, one `[f64; L]` per stored entry
/// ([`LdlFactors::lanes`], [`LdlFactors::set_lane`]), and solves them
/// all in one sweep (see [`crate::lanes`]); the default `L = 1` is a
/// single factor.
#[derive(Debug, Clone)]
pub struct LdlFactors<const L: usize = 1> {
    sym: LdlSymbolic,
    /// Values of L's strictly-lower entries (unit diagonal implied), in
    /// the symbolic analysis' column-major slot order, per lane.
    lx: Vec<[f64; L]>,
    /// The diagonal D, per lane.
    d: Vec<[f64; L]>,
}

impl LdlFactors {
    /// Runs the numeric factorization into this factor's buffers for the
    /// matrix with the analyzed pattern and `values` (see
    /// [`LdlSymbolic::factor_values`]). On error the factors are left
    /// invalid.
    fn refactor_values(&mut self, values: &[f64]) -> Result<(), LinalgError> {
        let s = &*self.sym.structure;
        let n = s.n;
        if values.len() != s.pattern.nnz() {
            return Err(LinalgError::ShapeMismatch {
                found: format!("{} values", values.len()),
                expected: format!("one per stored entry ({})", s.pattern.nnz()),
            });
        }
        if !values.iter().all(|v| v.is_finite()) {
            return Err(LinalgError::NonFinite {
                context: "LDL input matrix".to_string(),
            });
        }
        xtalk_obs::counter!(perf: "linalg.ldl.factor").add(1);
        let (row_ptr, col_idx) = (s.pattern.row_ptr(), s.pattern.col_idx());
        // Sparse accumulator for the up-looking row solve, and the
        // entries stored so far per column of L.
        let mut y = vec![0.0; n];
        let mut lnz = vec![0usize; n];
        let (lx, d) = (&mut self.lx, &mut self.d);
        for k in 0..n {
            // Scatter the upper part of row k of the permuted matrix.
            let row = row_ptr[s.perm[k]]..row_ptr[s.perm[k] + 1];
            for (&c, &v) in col_idx[row.clone()].iter().zip(&values[row]) {
                let i0 = s.pinv[c];
                if i0 <= k {
                    y[i0] += v;
                }
            }
            // Up-looking sparse triangular solve along row k's pattern.
            let mut dk = y[k];
            y[k] = 0.0;
            for &i in &s.ri[s.rp[k]..s.rp[k + 1]] {
                let yi = y[i];
                y[i] = 0.0;
                let p2 = s.lp[i] + lnz[i];
                for (&r, &[l]) in s.li[s.lp[i]..p2].iter().zip(&lx[s.lp[i]..p2]) {
                    y[r] -= l * yi;
                }
                let l_ki = yi / d[i][0];
                dk -= l_ki * yi;
                lx[p2] = [l_ki];
                lnz[i] += 1;
            }
            d[k] = [dk];
            // A NaN pivot (overflow products of finite inputs) must take
            // the singular branch too, hence the explicit is_nan arm.
            if dk.abs() < PIVOT_EPS || dk.is_nan() {
                return Err(LinalgError::Singular { pivot: k });
            }
        }
        Ok(())
    }
}

impl<const L: usize> LdlFactors<L> {
    /// `L` lanes of factors of `sym`, every lane the identity until
    /// [`LdlFactors::set_lane`] fills it.
    #[must_use]
    pub fn lanes(sym: &LdlSymbolic) -> Self {
        LdlFactors {
            sym: sym.clone(),
            lx: vec![[0.0; L]; sym.fill_nnz()],
            d: vec![[1.0; L]; sym.dim()],
        }
    }

    /// Copies the values of `one` into lane `l`.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when `one` comes from another
    /// analysis.
    ///
    /// # Panics
    ///
    /// Panics if `l >= L`.
    pub fn set_lane(&mut self, l: usize, one: &LdlFactors) -> Result<(), LinalgError> {
        if !Arc::ptr_eq(&self.sym.structure, &one.sym.structure) {
            return Err(other_analysis());
        }
        for (dst, src) in self.lx.iter_mut().zip(&one.lx) {
            dst[l] = src[0];
        }
        for (dst, src) in self.d.iter_mut().zip(&one.d) {
            dst[l] = src[0];
        }
        Ok(())
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.sym.dim()
    }

    /// Number of strictly-lower-triangular nonzeros in `L`.
    pub fn fill_nnz(&self) -> usize {
        self.sym.fill_nnz()
    }

    /// Solves `A_l·x = b` per lane `l` into caller-provided buffers: `x`
    /// receives the solutions, `scratch` is the permuted intermediate.
    /// The lanes share one sweep over the permutation and `L` structure
    /// (see [`crate::lanes`]); each goes through exactly the operations
    /// of its own one-lane solve, in the same order, so every lane is
    /// bit-equal to solving it alone. The one-lane instance on plain
    /// slices is the scalar solve. Allocation-free; `b`, `x` and
    /// `scratch` must be three distinct buffers.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when any buffer has the wrong
    /// length.
    pub fn solve_into<B, X, Z>(&self, b: &B, x: &mut X, scratch: &mut Z) -> Result<(), LinalgError>
    where
        B: Lanes<L> + ?Sized,
        X: Lanes<L> + ?Sized,
        Z: Lanes<L> + ?Sized,
    {
        let s = &*self.sym.structure;
        let n = s.n;
        check_solve_lengths(n, b.lane_len(), x.lane_len(), scratch.lane_len())?;
        let (perm, lp, li) = (&s.perm, &s.lp, &s.li);
        // ŷ = P·b.
        for i in 0..n {
            scratch.set_lanes(i, b.lanes(perm[i]));
        }
        // L·z = ŷ (unit lower triangular, column sweep).
        for j in 0..n {
            let zj = scratch.lanes(j);
            let col = lp[j]..lp[j + 1];
            for (&r, l) in li[col.clone()].iter().zip(&self.lx[col]) {
                let mut zr = scratch.lanes(r);
                for k in 0..L {
                    zr[k] -= l[k] * zj[k];
                }
                scratch.set_lanes(r, zr);
            }
        }
        // D·w = z.
        for (j, d) in self.d.iter().enumerate().take(n) {
            let mut z = scratch.lanes(j);
            for k in 0..L {
                z[k] /= d[k];
            }
            scratch.set_lanes(j, z);
        }
        // Lᵀ·v = w (row sweep, bottom up).
        for j in (0..n).rev() {
            let mut acc = scratch.lanes(j);
            let col = lp[j]..lp[j + 1];
            for (&r, l) in li[col.clone()].iter().zip(&self.lx[col]) {
                let zr = scratch.lanes(r);
                for k in 0..L {
                    acc[k] -= l[k] * zr[k];
                }
            }
            scratch.set_lanes(j, acc);
        }
        // x = Pᵀ·v.
        for i in 0..n {
            x.set_lanes(perm[i], scratch.lanes(i));
        }
        Ok(())
    }

    /// Solves `A_l·x₁ = b₁` with `self` and `B_l·x₂ = b₂` with `other`
    /// per lane — the simulator's trapezoidal and backward-Euler stepping
    /// matrices — in one sweep over the shared permutation and `L`
    /// structure when both come from one [`LdlSymbolic`]. Each solution
    /// goes through exactly the operations of its own
    /// [`LdlFactors::solve_into`], in the same order, so both are
    /// bit-equal to two single solves. Factors of different analyses are
    /// solved one after the other. Allocation-free.
    ///
    /// # Errors
    ///
    /// [`LinalgError::ShapeMismatch`] when any buffer has the wrong
    /// length.
    pub fn solve_pair_into<B, X, Z>(
        &self,
        other: &LdlFactors<L>,
        (b1, b2): (&B, &B),
        (x1, x2): (&mut X, &mut X),
        (z1, z2): (&mut Z, &mut Z),
    ) -> Result<(), LinalgError>
    where
        B: Lanes<L> + ?Sized,
        X: Lanes<L> + ?Sized,
        Z: Lanes<L> + ?Sized,
    {
        if !Arc::ptr_eq(&self.sym.structure, &other.sym.structure) {
            self.solve_into(b1, x1, z1)?;
            return other.solve_into(b2, x2, z2);
        }
        let s = &*self.sym.structure;
        let n = s.n;
        check_solve_lengths(n, b1.lane_len(), x1.lane_len(), z1.lane_len())?;
        check_solve_lengths(n, b2.lane_len(), x2.lane_len(), z2.lane_len())?;
        let (perm, lp, li) = (&s.perm, &s.lp, &s.li);
        let (lx1, lx2) = (&self.lx, &other.lx);
        for i in 0..n {
            let p = perm[i];
            z1.set_lanes(i, b1.lanes(p));
            z2.set_lanes(i, b2.lanes(p));
        }
        for j in 0..n {
            let (u1, u2) = (z1.lanes(j), z2.lanes(j));
            let col = lp[j]..lp[j + 1];
            for ((&r, l1), l2) in li[col.clone()].iter().zip(&lx1[col.clone()]).zip(&lx2[col]) {
                let (mut r1, mut r2) = (z1.lanes(r), z2.lanes(r));
                for k in 0..L {
                    r1[k] -= l1[k] * u1[k];
                    r2[k] -= l2[k] * u2[k];
                }
                z1.set_lanes(r, r1);
                z2.set_lanes(r, r2);
            }
        }
        for (j, (d1, d2)) in self.d.iter().zip(&other.d).enumerate() {
            let (mut w1, mut w2) = (z1.lanes(j), z2.lanes(j));
            for k in 0..L {
                w1[k] /= d1[k];
                w2[k] /= d2[k];
            }
            z1.set_lanes(j, w1);
            z2.set_lanes(j, w2);
        }
        for j in (0..n).rev() {
            let (mut acc1, mut acc2) = (z1.lanes(j), z2.lanes(j));
            let col = lp[j]..lp[j + 1];
            for ((&r, l1), l2) in li[col.clone()].iter().zip(&lx1[col.clone()]).zip(&lx2[col]) {
                let (r1, r2) = (z1.lanes(r), z2.lanes(r));
                for k in 0..L {
                    acc1[k] -= l1[k] * r1[k];
                    acc2[k] -= l2[k] * r2[k];
                }
            }
            z1.set_lanes(j, acc1);
            z2.set_lanes(j, acc2);
        }
        for i in 0..n {
            let p = perm[i];
            x1.set_lanes(p, z1.lanes(i));
            x2.set_lanes(p, z2.lanes(i));
        }
        Ok(())
    }
}

impl LdlFactors {
    /// Solves `A·x = b`, allocating the result and scratch (convenience
    /// wrapper for tests and one-off solves; hot paths use
    /// [`LdlFactors::solve_into`]).
    ///
    /// # Errors
    ///
    /// As [`LdlFactors::solve_into`].
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        let mut x = vec![0.0; n];
        let mut scratch = vec![0.0; n];
        self.solve_into(b, &mut x, &mut scratch)?;
        Ok(x)
    }
}

fn other_analysis() -> LinalgError {
    LinalgError::ShapeMismatch {
        found: "factors of another symbolic analysis".to_string(),
        expected: "factors of this analysis".to_string(),
    }
}

fn check_solve_lengths(n: usize, b: usize, x: usize, scratch: usize) -> Result<(), LinalgError> {
    if b != n || x != n || scratch != n {
        return Err(LinalgError::ShapeMismatch {
            found: format!("rhs length {b} / out length {x} / scratch length {scratch}"),
            expected: format!("all of length {n}"),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sparse::Triplets;
    use crate::Matrix;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    /// The original minimum-degree ordering, on ordered-set adjacency:
    /// the oracle [`min_degree_order`] must match exactly.
    fn min_degree_order_btree(a: &Csr) -> (Vec<usize>, Vec<usize>) {
        let n = a.rows();
        let mut adj: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); n];
        for r in 0..n {
            for (c, _) in a.row(r) {
                if c != r {
                    adj[r].insert(c);
                    adj[c].insert(r);
                }
            }
        }
        let mut heap: BinaryHeap<Reverse<(usize, usize)>> =
            (0..n).map(|v| Reverse((adj[v].len(), v))).collect();
        let mut eliminated = vec![false; n];
        let mut perm = Vec::with_capacity(n);
        while let Some(Reverse((deg, v))) = heap.pop() {
            if eliminated[v] || deg != adj[v].len() {
                continue;
            }
            eliminated[v] = true;
            perm.push(v);
            let neigh: Vec<usize> = adj[v].iter().copied().collect();
            for &u in &neigh {
                adj[u].remove(&v);
            }
            for i in 0..neigh.len() {
                for j in (i + 1)..neigh.len() {
                    let (u, w) = (neigh[i], neigh[j]);
                    if adj[u].insert(w) {
                        adj[w].insert(u);
                    }
                }
            }
            for &u in &neigh {
                if !eliminated[u] {
                    heap.push(Reverse((adj[u].len(), u)));
                }
            }
        }
        let mut pinv = vec![0usize; n];
        for (k, &v) in perm.iter().enumerate() {
            pinv[v] = k;
        }
        (perm, pinv)
    }

    /// Strategy: a randomized RC-tree-plus-coupling-caps MNA-style system.
    ///
    /// A random tree over `n` nodes carries edge conductances (resistor
    /// stamps), every node gets a positive diagonal contribution (driver /
    /// ground-cap stamps), and a few random node pairs get coupling-cap
    /// style symmetric off-tree stamps — the exact matrix family the
    /// transient simulator factors as `G + C/dt`.
    fn rc_tree_system(n: usize) -> impl Strategy<Value = (Csr, Vec<f64>)> {
        (
            prop::collection::vec(0usize..1_000_000, n - 1),
            prop::collection::vec(0.1..10.0f64, n - 1),
            prop::collection::vec(0.5..5.0f64, n),
            prop::collection::vec((0usize..1_000_000, 0usize..1_000_000, 0.01..1.0f64), 0..6),
            prop::collection::vec(-10.0..10.0f64, n),
        )
            .prop_map(move |(parents, conds, diags, couplings, b)| {
                let mut t = Triplets::new(n, n);
                for i in 1..n {
                    let p = parents[i - 1] % i;
                    let g = conds[i - 1];
                    t.push(i, i, g);
                    t.push(p, p, g);
                    t.push(i, p, -g);
                    t.push(p, i, -g);
                }
                for (i, &d) in diags.iter().enumerate() {
                    t.push(i, i, d);
                }
                for &(ra, rb, v) in &couplings {
                    let (a, c) = (ra % n, rb % n);
                    if a != c {
                        t.push(a, a, v);
                        t.push(c, c, v);
                        t.push(a, c, -v);
                        t.push(c, a, -v);
                    }
                }
                (t.to_csr(), b)
            })
    }

    /// The G∪C pattern of one PEX-deck island (the `PexDeckSpec`
    /// topology): `lanes` RC chains of `segments + 1` nodes, every
    /// segment node coupled to the same segment of the next two lanes.
    /// Node `(lane, s)` gets the number `label[lane * (segments + 1) + s]`.
    fn pex_island_pattern(lanes: usize, segments: usize, label: &[usize]) -> Csr {
        let n = lanes * (segments + 1);
        let node = |lane: usize, s: usize| label[lane * (segments + 1) + s];
        let mut t = Triplets::new(n, n);
        let mut edge = |a: usize, b: usize| {
            t.push(a, a, 1.0);
            t.push(b, b, 1.0);
            t.push(a, b, -1.0);
            t.push(b, a, -1.0);
        };
        for lane in 0..lanes {
            for s in 1..=segments {
                edge(node(lane, s - 1), node(lane, s));
                for other in [lane + 1, lane + 2] {
                    if other < lanes {
                        edge(node(lane, s), node(other, s));
                    }
                }
            }
        }
        t.to_csr()
    }

    /// A permutation of `0..keys.len()`: the ranks of `keys`.
    fn ranks(keys: &[u64]) -> Vec<usize> {
        let mut order: Vec<usize> = (0..keys.len()).collect();
        order.sort_by_key(|&i| (keys[i], i));
        let mut rank = vec![0; keys.len()];
        for (r, &i) in order.iter().enumerate() {
            rank[i] = r;
        }
        rank
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn min_degree_matches_the_oracle_on_a_pex_island() {
        let label: Vec<usize> = (0..80).collect();
        let a = pex_island_pattern(16, 4, &label);
        assert_eq!(min_degree_order(&a), min_degree_order_btree(&a));
    }

    proptest! {
        #[test]
        fn min_degree_matches_the_oracle_on_rc_trees(
            (a, _) in rc_tree_system(40),
        ) {
            prop_assert_eq!(min_degree_order(&a), min_degree_order_btree(&a));
        }

        #[test]
        fn min_degree_matches_the_oracle_on_relabeled_pex_islands(
            keys in prop::collection::vec(0u64..1_000_000, 80),
        ) {
            let a = pex_island_pattern(16, 4, &ranks(&keys));
            prop_assert_eq!(min_degree_order(&a), min_degree_order_btree(&a));
        }

        #[test]
        fn pair_kernels_are_bit_equal_to_single_calls(
            (a, b1) in rc_tree_system(20),
            scale in 0.25..4.0f64,
        ) {
            let sym = LdlSymbolic::analyze(&a).unwrap();
            let pattern = sym.pattern();
            let va = a.values().to_vec();
            let vb: Vec<f64> = va.iter().map(|v| v * scale).collect();
            let b2: Vec<f64> = b1.iter().rev().map(|v| v - 0.5).collect();
            let n = a.rows();
            let buf = || vec![0.0; n];

            // One pass over the pattern == two products.
            let (mut pa, mut pb, mut sa, mut sb) = (buf(), buf(), buf(), buf());
            pattern.mul_vec_pair_into((&va, &vb), &b1, (&mut pa, &mut pb)).unwrap();
            pattern.mul_vec_values_into(&va, &b1, &mut sa).unwrap();
            pattern.mul_vec_values_into(&vb, &b1, &mut sb).unwrap();
            prop_assert_eq!(bits(&pa), bits(&sa));
            prop_assert_eq!(bits(&pb), bits(&sb));
            a.mul_vec_into(&b1, &mut sa).unwrap();
            prop_assert_eq!(bits(&pa), bits(&sa));

            // One sweep over the shared L structure == two solves, for
            // factors of one analysis and of two analyses.
            let fa = sym.factor_values(&va).unwrap();
            let fb = sym.factor_values(&vb).unwrap();
            let fb_other = LdlSymbolic::analyze(&a).unwrap().factor_values(&vb).unwrap();
            for second in [&fb, &fb_other] {
                let (mut x1, mut x2, mut z1, mut z2) = (buf(), buf(), buf(), buf());
                fa.solve_pair_into(second, (&b1, &b2), (&mut x1, &mut x2), (&mut z1, &mut z2))
                    .unwrap();
                let (mut y1, mut y2) = (buf(), buf());
                fa.solve_into(&b1, &mut y1, &mut z1).unwrap();
                second.solve_into(&b2, &mut y2, &mut z2).unwrap();
                prop_assert_eq!(bits(&x1), bits(&y1));
                prop_assert_eq!(bits(&x2), bits(&y2));
            }
        }

        #[test]
        fn lane_kernels_are_bit_equal_to_one_lane_calls(
            (a, b0) in rc_tree_system(20),
            scales in prop::collection::vec(0.25..4.0f64, 3),
        ) {
            // Three lanes of one analysis with their own values and
            // vectors: every lane of every kernel must match its own
            // one-lane call bit for bit.
            let sym = LdlSymbolic::analyze(&a).unwrap();
            let pattern = sym.pattern();
            let n = a.rows();
            let va: Vec<Vec<f64>> = scales
                .iter()
                .map(|s| a.values().iter().map(|v| v * s).collect())
                .collect();
            let vb: Vec<Vec<f64>> = va.iter().map(|v| v.iter().map(|x| x * 1.5).collect()).collect();
            let rhs: Vec<Vec<f64>> = scales
                .iter()
                .map(|s| b0.iter().map(|v| v * s - 0.25).collect())
                .collect();
            let lanes = |vs: &[Vec<f64>]| -> Vec<[f64; 3]> {
                (0..vs[0].len()).map(|i| [vs[0][i], vs[1][i], vs[2][i]]).collect()
            };
            let lane = |v: &[[f64; 3]], l: usize| -> Vec<u64> {
                v.iter().map(|e| e[l].to_bits()).collect()
            };
            let (x, wa, wb) = (lanes(&rhs), lanes(&va), lanes(&vb));
            let wide = || vec![[0.0; 3]; n];

            let (mut ya, mut yb, mut y) = (wide(), wide(), wide());
            pattern.mul_vec_values_into(&wa, &x, &mut y).unwrap();
            pattern.mul_vec_pair_into((&wa, &wb), &x, (&mut ya, &mut yb)).unwrap();
            let fa: Vec<LdlFactors> = va.iter().map(|v| sym.factor_values(v).unwrap()).collect();
            let fb: Vec<LdlFactors> = vb.iter().map(|v| sym.factor_values(v).unwrap()).collect();
            let (mut la, mut lb) = (LdlFactors::<3>::lanes(&sym), LdlFactors::<3>::lanes(&sym));
            for l in 0..3 {
                la.set_lane(l, &fa[l]).unwrap();
                lb.set_lane(l, &fb[l]).unwrap();
            }
            let (mut xa, mut xb, mut za, mut zb, mut xs, mut zs) =
                (wide(), wide(), wide(), wide(), wide(), wide());
            la.solve_into(&x, &mut xs, &mut zs).unwrap();
            la.solve_pair_into(&lb, (&x, &x), (&mut xa, &mut xb), (&mut za, &mut zb)).unwrap();
            for l in 0..3 {
                let (mut s, mut t, mut z) = (vec![0.0; n], vec![0.0; n], vec![0.0; n]);
                pattern.mul_vec_values_into(&va[l], &rhs[l], &mut s).unwrap();
                prop_assert_eq!(lane(&y, l), bits(&s));
                prop_assert_eq!(lane(&ya, l), bits(&s));
                pattern.mul_vec_values_into(&vb[l], &rhs[l], &mut s).unwrap();
                prop_assert_eq!(lane(&yb, l), bits(&s));
                fa[l].solve_into(&rhs[l], &mut t, &mut z).unwrap();
                prop_assert_eq!(lane(&xs, l), bits(&t));
                prop_assert_eq!(lane(&xa, l), bits(&t));
                fb[l].solve_into(&rhs[l], &mut t, &mut z).unwrap();
                prop_assert_eq!(lane(&xb, l), bits(&t));
            }
            // A lane takes only factors of its own analysis.
            let other = LdlSymbolic::analyze(&a).unwrap().factor_values(&va[1]).unwrap();
            prop_assert!(la.set_lane(1, &other).is_err());
        }

        #[test]
        fn ldl_matches_lu_on_rc_trees(
            (a, b) in rc_tree_system(24),
        ) {
            let sym = LdlSymbolic::analyze(&a).unwrap();
            let f = sym.factor(&a).unwrap();
            let x_ldl = f.solve(&b).unwrap();
            let x_lu = a.to_dense().lu().unwrap().solve(&b).unwrap();
            for (s, d) in x_ldl.iter().zip(&x_lu) {
                prop_assert!(
                    (s - d).abs() <= 1e-9 * (1.0 + d.abs()),
                    "LDL {s} vs LU {d} diverged"
                );
            }
            // Residual check against the matrix itself, independent of LU.
            let r = a.mul_vec(&x_ldl).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                prop_assert!((ri - bi).abs() < 1e-8 * (1.0 + bi.abs()));
            }
        }

        #[test]
        fn ldl_and_lu_both_reject_floating_nodes(
            (a, _) in rc_tree_system(12),
            dead in 0usize..12,
        ) {
            // Detach one node entirely (no driver, no resistors, no caps):
            // the system is exactly singular and both backends must say so
            // with the same error variant — the simulator maps either into
            // SimError::Numerical unchanged.
            let mut t = Triplets::new(12, 12);
            for r in 0..12 {
                for (c, v) in a.row(r) {
                    if r != dead && c != dead {
                        t.push(r, c, v);
                    }
                }
            }
            let cut = t.to_csr();
            let ldl_err = LdlSymbolic::analyze(&cut).unwrap().factor(&cut).unwrap_err();
            let lu_err = cut.to_dense().lu().unwrap_err();
            prop_assert!(matches!(ldl_err, LinalgError::Singular { .. }), "{ldl_err:?}");
            prop_assert!(matches!(lu_err, LinalgError::Singular { .. }), "{lu_err:?}");
        }

        #[test]
        fn ldl_and_lu_both_reject_non_finite(
            (a, _) in rc_tree_system(8),
            bad in 0usize..8,
        ) {
            let mut t = Triplets::new(8, 8);
            for r in 0..8 {
                for (c, v) in a.row(r) {
                    t.push(r, c, v);
                }
            }
            t.push(bad, bad, f64::NAN);
            let poisoned = t.to_csr();
            let ldl_err = LdlSymbolic::analyze(&poisoned)
                .unwrap()
                .factor(&poisoned)
                .unwrap_err();
            let lu_err = poisoned.to_dense().lu().unwrap_err();
            prop_assert!(matches!(ldl_err, LinalgError::NonFinite { .. }), "{ldl_err:?}");
            prop_assert!(matches!(lu_err, LinalgError::NonFinite { .. }), "{lu_err:?}");
        }
    }

    /// Resistive-chain SPD matrix: 2 on the diagonal, -1 off.
    fn chain(n: usize) -> Csr {
        let mut t = Triplets::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0 + i as f64 * 0.01);
        }
        for i in 0..n - 1 {
            t.push(i, i + 1, -1.0);
            t.push(i + 1, i, -1.0);
        }
        t.to_csr()
    }

    /// Star tree with a cross-coupling entry closing one cycle.
    fn star_with_coupling(n: usize) -> Csr {
        let mut t = Triplets::new(n, n);
        t.push(0, 0, n as f64);
        for i in 1..n {
            t.push(i, i, 3.0);
            t.push(0, i, -1.0);
            t.push(i, 0, -1.0);
        }
        t.push(1, n - 1, -0.5);
        t.push(n - 1, 1, -0.5);
        t.to_csr()
    }

    fn assert_solves_like_lu(a: &Csr, b: &[f64], tol: f64) {
        let sym = LdlSymbolic::analyze(a).unwrap();
        let f = sym.factor(a).unwrap();
        let x = f.solve(b).unwrap();
        let x_lu = a.to_dense().lu().unwrap().solve(b).unwrap();
        for (s, d) in x.iter().zip(&x_lu) {
            assert!((s - d).abs() <= tol * (1.0 + d.abs()), "{s} vs {d}");
        }
    }

    #[test]
    fn chain_matches_dense_lu() {
        let a = chain(17);
        let b: Vec<f64> = (0..17).map(|i| (i as f64).sin()).collect();
        assert_solves_like_lu(&a, &b, 1e-12);
    }

    #[test]
    fn tree_ordering_produces_zero_fill() {
        // A chain is a tree: the min-degree ordering must yield exactly
        // one off-diagonal per eliminated column — n-1 entries, no fill.
        let a = chain(32);
        let sym = LdlSymbolic::analyze(&a).unwrap();
        assert_eq!(sym.fill_nnz(), 31);
    }

    #[test]
    fn coupling_cycle_still_solves() {
        let a = star_with_coupling(9);
        let b: Vec<f64> = (0..9).map(|i| 1.0 / (1.0 + i as f64)).collect();
        assert_solves_like_lu(&a, &b, 1e-12);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        // Zero row/column (a floating node with no element at all).
        let mut t = Triplets::new(3, 3);
        t.push(0, 0, 1.0);
        t.push(2, 2, 1.0);
        let a = t.to_csr();
        let sym = LdlSymbolic::analyze(&a).unwrap();
        assert!(matches!(
            sym.factor(&a),
            Err(LinalgError::Singular { .. })
        ));
    }

    #[test]
    fn non_finite_is_rejected() {
        let mut t = Triplets::new(2, 2);
        t.push(0, 0, f64::NAN);
        t.push(1, 1, 1.0);
        let a = t.to_csr();
        let sym = LdlSymbolic::analyze(&a).unwrap();
        assert!(matches!(
            sym.factor(&a),
            Err(LinalgError::NonFinite { .. })
        ));
    }

    #[test]
    fn not_square_is_rejected() {
        let t = Triplets::new(2, 3);
        assert!(matches!(
            LdlSymbolic::analyze(&t.to_csr()),
            Err(LinalgError::NotSquare { .. })
        ));
    }

    #[test]
    fn factors_take_exactly_the_analyzed_pattern() {
        let a = chain(6);
        let sym = LdlSymbolic::analyze(&a).unwrap();
        let mut t = Triplets::new(6, 6);
        for i in 0..6 {
            t.push(i, i, 2.0);
        }
        let diagonal = t.to_csr();
        assert!(matches!(
            sym.factor(&diagonal),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        let f = sym.factor(&a).unwrap();
        assert!(matches!(
            sym.factor_values(&[1.0; 3]),
            Err(LinalgError::ShapeMismatch { .. })
        ));
        // Bare values on the analyzed pattern factor like the matrix.
        let g = sym.factor_values(a.values()).unwrap();
        let b = [1.0, 0.0, -1.0, 2.0, 0.5, 0.0];
        assert_eq!(bits(&g.solve(&b).unwrap()), bits(&f.solve(&b).unwrap()));
    }

    #[test]
    fn solve_into_rejects_bad_lengths() {
        let a = chain(4);
        let f = LdlSymbolic::analyze(&a).unwrap().factor(&a).unwrap();
        let mut x = [0.0; 4];
        let mut s = [0.0; 3];
        assert!(f.solve_into(&[1.0; 4][..], &mut x[..], &mut s[..]).is_err());
        assert!(f.solve(&[1.0; 3]).is_err());
    }

    #[test]
    fn identity_permutation_roundtrip() {
        // Dense-ish random SPD via AᵀA + I on a small pattern exercises
        // fill-in paths (min-degree cannot avoid fill on a dense block).
        let m = Matrix::from_rows(&[
            &[4.0, 1.0, 0.5, 0.0],
            &[1.0, 5.0, 1.0, 0.5],
            &[0.5, 1.0, 6.0, 1.0],
            &[0.0, 0.5, 1.0, 7.0],
        ])
        .unwrap();
        let a = Csr::from_dense(&m);
        let b = [1.0, -2.0, 3.0, -4.0];
        assert_solves_like_lu(&a, &b, 1e-12);
    }
}
