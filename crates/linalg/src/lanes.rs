//! Lane-interleaved vectors: `L` same-length vectors kept side by side.
//!
//! The sparse kernels ([`Csr::mul_vec_values_into`],
//! [`Csr::mul_vec_pair_into`], [`LdlFactors::solve_into`],
//! [`LdlFactors::solve_pair_into`]) are generic over a constant lane
//! count `L`: they step `L` independent systems that share one sparsity
//! pattern in a single pass over it, each lane with its own values and
//! its own vectors. Every lane goes through exactly the floating-point
//! operations of a one-lane call, in the same order, so its result is
//! bit-equal to solving it alone; the lanes share the index traffic, load
//! side by side, and give the processor independent work to overlap.
//!
//! Their value arrays and vectors are read and written through [`Lanes`].
//! `[[f64; L]]` stores the `L` lane values of entry `i` together, and a
//! plain `[f64]` is the one-lane case, so scalar callers pass their
//! slices unchanged.
//!
//! [`Csr::mul_vec_values_into`]: crate::sparse::Csr::mul_vec_values_into
//! [`Csr::mul_vec_pair_into`]: crate::sparse::Csr::mul_vec_pair_into
//! [`LdlFactors::solve_into`]: crate::LdlFactors::solve_into
//! [`LdlFactors::solve_pair_into`]: crate::LdlFactors::solve_pair_into
//!
//! # Examples
//!
//! ```
//! use xtalk_linalg::lanes::Lanes;
//!
//! let mut two = vec![[0.0; 2]; 3];
//! two.set_lanes(1, [1.5, -2.0]);
//! assert_eq!(two.lanes(1), [1.5, -2.0]);
//! let one = [4.0, 5.0];
//! assert_eq!(one[..].lanes(1), [5.0]);
//! ```

use std::ops::Range;

/// `L` interleaved vectors of one length, addressed by entry.
pub trait Lanes<const L: usize> {
    /// Number of entries (each holds one value per lane).
    fn lane_len(&self) -> usize;
    /// The `L` lane values of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn lanes(&self, i: usize) -> [f64; L];
    /// Overwrites the `L` lane values of entry `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    fn set_lanes(&mut self, i: usize, v: [f64; L]);
    /// The lane values of the entries in `range`, in order.
    ///
    /// # Panics
    ///
    /// Panics if `range` is out of bounds.
    fn lanes_in(&self, range: Range<usize>) -> impl Iterator<Item = [f64; L]> + '_;
}

impl Lanes<1> for [f64] {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn lanes_in(&self, range: Range<usize>) -> impl Iterator<Item = [f64; 1]> + '_ {
        self[range].iter().map(|&v| [v])
    }
    #[inline]
    fn lanes(&self, i: usize) -> [f64; 1] {
        [self[i]]
    }
    #[inline]
    fn set_lanes(&mut self, i: usize, v: [f64; 1]) {
        self[i] = v[0];
    }
}

impl Lanes<1> for Vec<f64> {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn lanes_in(&self, range: Range<usize>) -> impl Iterator<Item = [f64; 1]> + '_ {
        self[range].iter().map(|&v| [v])
    }
    #[inline]
    fn lanes(&self, i: usize) -> [f64; 1] {
        [self[i]]
    }
    #[inline]
    fn set_lanes(&mut self, i: usize, v: [f64; 1]) {
        self[i] = v[0];
    }
}

impl<const L: usize> Lanes<L> for [[f64; L]] {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn lanes_in(&self, range: Range<usize>) -> impl Iterator<Item = [f64; L]> + '_ {
        self[range].iter().copied()
    }
    #[inline]
    fn lanes(&self, i: usize) -> [f64; L] {
        self[i]
    }
    #[inline]
    fn set_lanes(&mut self, i: usize, v: [f64; L]) {
        self[i] = v;
    }
}

impl<const L: usize> Lanes<L> for Vec<[f64; L]> {
    #[inline]
    fn lane_len(&self) -> usize {
        self.len()
    }
    #[inline]
    fn lanes_in(&self, range: Range<usize>) -> impl Iterator<Item = [f64; L]> + '_ {
        self[range].iter().copied()
    }
    #[inline]
    fn lanes(&self, i: usize) -> [f64; L] {
        self[i]
    }
    #[inline]
    fn set_lanes(&mut self, i: usize, v: [f64; L]) {
        self[i] = v;
    }
}
