//! Dense linear algebra for SEMSIM.
//!
//! Single-electron circuit simulation needs exactly one nontrivial linear
//! algebra operation: building the island-block capacitance matrix `C` and
//! inverting it (the paper's `C⁻¹` in Eq. 2). Circuits in the paper's
//! evaluation reach ~3500 islands, so a dense LU with partial pivoting is
//! both sufficient and simple to verify. The inverse is formed from the
//! factors' nonzeros only, bit-identical to dense substitution (see
//! [`LuDecomposition::into_inverse`]). On top of the inverse we provide a
//! [`SparsifiedMatrix`] view that drops negligible entries per row — the
//! adaptive solver uses it to bound the cost of locality queries.
//!
//! # Example
//!
//! ```
//! use semsim_linalg::Matrix;
//!
//! # fn main() -> Result<(), semsim_linalg::LinalgError> {
//! let c = Matrix::from_rows(&[&[4.0, -1.0], &[-1.0, 3.0]])?;
//! let inv = c.inverse()?;
//! let id = c.mul(&inv)?;
//! assert!((id.get(0, 0) - 1.0).abs() < 1e-12);
//! assert!(id.get(0, 1).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

mod error;
mod lu;
mod matrix;
mod sparse;
mod vector;

pub use error::LinalgError;
pub use lu::LuDecomposition;
pub use matrix::Matrix;
pub use sparse::{SparseEntry, SparsifiedMatrix};
pub use vector::{axpy, dot, norm_inf, norm_two};
