//! Small, dependency-free linear-algebra kernel for the `xtalk` workspace.
//!
//! The crosstalk-analysis stack needs exactly three numerical services:
//!
//! 1. dense matrices with LU factorization ([`Matrix`], [`LuFactors`]) —
//!    used by the dense moment oracle and the transient simulator, where the
//!    same system matrix is factored once and solved against many
//!    right-hand sides;
//! 2. sparse matrices in CSR form ([`sparse::Csr`]) for building and
//!    inspecting large stamped systems, with a sparse symmetric LDLᵀ
//!    factorization ([`LdlSymbolic`], [`LdlFactors`]) that exploits the
//!    tree structure of RC interconnect — and a [`Solver`] enum that
//!    selects between the two backends per matrix;
//! 3. a handful of vector helpers ([`vec_ops`]).
//!
//! Everything is `f64`; EDA moment/transient analysis does not benefit from
//! genericity over scalar types and the concrete code is simpler to audit.
//!
//! # Examples
//!
//! ```
//! use xtalk_linalg::Matrix;
//!
//! # fn main() -> Result<(), xtalk_linalg::LinalgError> {
//! let a = Matrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = a.lu()?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! assert!((x[0] + 3.0 * x[1] - 2.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dense;
mod error;
pub mod ldl;
mod lu;
pub mod solver;
pub mod sparse;
pub mod vec_ops;

pub use dense::Matrix;
pub use error::LinalgError;
pub use ldl::{LdlFactors, LdlSymbolic};
pub use lu::LuFactors;
pub use solver::{prefer_sparse, Solver};
