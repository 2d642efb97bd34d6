use crate::{LinalgError, Matrix};

/// LU decomposition with partial pivoting (`P·A = L·U`).
///
/// The decomposition is computed once and can then solve any number of
/// right-hand sides or produce the full inverse. The capacitance matrices
/// of well-posed single-electron circuits are symmetric and strictly
/// diagonally dominant, so partial pivoting is ample.
///
/// # Example
///
/// ```
/// use semsim_linalg::Matrix;
///
/// # fn main() -> Result<(), semsim_linalg::LinalgError> {
/// let a = Matrix::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]])?;
/// let lu = a.lu()?;
/// let x = lu.solve(&[5.0, 5.0])?;
/// assert!((x[0] - 1.0).abs() < 1e-12);
/// assert!((x[1] - 2.0).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct LuDecomposition {
    /// Combined L (strict lower, unit diagonal implied) and U (upper).
    lu: Matrix,
    /// Row permutation applied to the input.
    perm: Vec<usize>,
    /// Sign of the permutation, used by [`LuDecomposition::determinant`].
    perm_sign: f64,
}

/// Pivots whose magnitude is below this absolute value are treated as
/// exact zeros; the threshold is not scaled by the matrix's entries.
/// Capacitances in farads are ~1e-18, so it only trips when a pivot
/// collapses to the underflow range, as in the
/// `sc002_singular_cmatrix.cir` lint fixture (1e-320 F anchors).
const PIVOT_EPS: f64 = 1e-300;

impl LuDecomposition {
    /// Factorizes `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::NotSquare`] for non-square input and
    /// [`LinalgError::Singular`] when no usable pivot remains.
    pub fn new(a: &Matrix) -> Result<Self, LinalgError> {
        if a.rows() != a.cols() {
            return Err(LinalgError::NotSquare {
                shape: (a.rows(), a.cols()),
            });
        }
        let n = a.rows();
        let mut lu = a.clone();
        let mut perm: Vec<usize> = (0..n).collect();
        let mut perm_sign = 1.0;

        for k in 0..n {
            // Find the largest pivot in column k at or below the diagonal.
            let mut pivot_row = k;
            let mut pivot_val = lu.get(k, k).abs();
            for r in (k + 1)..n {
                let v = lu.get(r, k).abs();
                if v > pivot_val {
                    pivot_val = v;
                    pivot_row = r;
                }
            }
            if pivot_val < PIVOT_EPS {
                return Err(LinalgError::Singular { pivot: k });
            }
            if pivot_row != k {
                for c in 0..n {
                    let tmp = lu.get(k, c);
                    lu.set(k, c, lu.get(pivot_row, c));
                    lu.set(pivot_row, c, tmp);
                }
                perm.swap(k, pivot_row);
                perm_sign = -perm_sign;
            }
            let inv_pivot = 1.0 / lu.get(k, k);
            for r in (k + 1)..n {
                let factor = lu.get(r, k) * inv_pivot;
                lu.set(r, k, factor);
                if factor == 0.0 {
                    continue;
                }
                for c in (k + 1)..n {
                    lu.add_to(r, c, -factor * lu.get(k, c));
                }
            }
        }
        Ok(LuDecomposition {
            lu,
            perm,
            perm_sign,
        })
    }

    /// Dimension of the factorized matrix.
    pub fn dim(&self) -> usize {
        self.lu.rows()
    }

    /// Solves `A·x = b` using the stored factors.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution with the permuted RHS (L has unit diagonal).
        let mut x: Vec<f64> = self.perm.iter().map(|&p| b[p]).collect();
        for i in 1..n {
            let dot: f64 = x[..i]
                .iter()
                .enumerate()
                .map(|(k, &xk)| self.lu.get(i, k) * xk)
                .sum();
            x[i] -= dot;
        }
        // Backward substitution with U.
        for i in (0..n).rev() {
            let dot: f64 = x[i + 1..]
                .iter()
                .enumerate()
                .map(|(k, &xk)| self.lu.get(i, i + 1 + k) * xk)
                .sum();
            x[i] = (x[i] - dot) / self.lu.get(i, i);
        }
        Ok(x)
    }

    /// Solves `Aᵀ·x = b` using the stored factors.
    ///
    /// With `P·A = L·U` we have `Aᵀ = Uᵀ·Lᵀ·P`, so the transposed system
    /// is a forward substitution with `Uᵀ`, a backward substitution with
    /// `Lᵀ` (unit diagonal), and an inverse permutation.
    ///
    /// # Errors
    ///
    /// Returns [`LinalgError::ShapeMismatch`] if `b.len() != self.dim()`.
    pub fn solve_transpose(&self, b: &[f64]) -> Result<Vec<f64>, LinalgError> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                left: (n, n),
                right: (b.len(), 1),
            });
        }
        // Forward substitution with Uᵀ (lower triangular, general diagonal).
        let mut w = b.to_vec();
        for i in 0..n {
            let dot: f64 = w[..i]
                .iter()
                .enumerate()
                .map(|(k, &wk)| self.lu.get(k, i) * wk)
                .sum();
            w[i] = (w[i] - dot) / self.lu.get(i, i);
        }
        // Backward substitution with Lᵀ (upper triangular, unit diagonal).
        for i in (0..n).rev() {
            let dot: f64 = w[i + 1..]
                .iter()
                .enumerate()
                .map(|(k, &wk)| self.lu.get(i + 1 + k, i) * wk)
                .sum();
            w[i] -= dot;
        }
        // Undo the row permutation: x = Pᵀ·w.
        let mut x = vec![0.0; n];
        for (i, &p) in self.perm.iter().enumerate() {
            x[p] = w[i];
        }
        Ok(x)
    }

    /// Hager's estimate of `‖A⁻¹‖₁` from the stored factors: a gradient
    /// ascent on `‖A⁻¹x‖₁` over the 1-norm unit ball, needing only a few
    /// solves instead of the full inverse. The result is a lower bound on
    /// the true norm and is usually within a small factor of it.
    ///
    /// # Errors
    ///
    /// Propagates errors from the triangular solves; cannot fail for a
    /// successfully constructed decomposition.
    pub fn inverse_norm_one_estimate(&self) -> Result<f64, LinalgError> {
        let n = self.dim();
        if n == 0 {
            return Ok(0.0);
        }
        let mut x = vec![1.0 / n as f64; n];
        let mut est = 0.0f64;
        // Hager converges in 2–3 steps in practice; 5 bounds the cost.
        for _ in 0..5 {
            let y = self.solve(&x)?;
            let ynorm: f64 = y.iter().map(|v| v.abs()).sum();
            est = est.max(ynorm);
            let xi: Vec<f64> = y
                .iter()
                .map(|&v| if v < 0.0 { -1.0 } else { 1.0 })
                .collect();
            let z = self.solve_transpose(&xi)?;
            let (mut j_best, mut z_best) = (0, 0.0f64);
            for (j, &zj) in z.iter().enumerate() {
                if zj.abs() > z_best {
                    z_best = zj.abs();
                    j_best = j;
                }
            }
            let zx: f64 = z.iter().zip(&x).map(|(a, b)| a * b).sum();
            if z_best <= zx {
                break;
            }
            x = vec![0.0; n];
            x[j_best] = 1.0;
        }
        Ok(est)
    }

    /// Consumes the decomposition and returns the full inverse, written
    /// into the factors' own `n × n` buffer.
    ///
    /// Column `j` of the inverse is the solution of `A·x = e_j`, computed
    /// with the same row-oriented substitutions as
    /// [`LuDecomposition::solve`] but over the nonzeros of `L` and `U`
    /// only, each row's terms in ascending column order. Every term that
    /// is skipped is a product with an exact-zero factor entry, i.e.
    /// `±0`, and adding `±0` to a nonzero partial sum leaves it
    /// unchanged; so a skipping sum can differ only in the sign of a
    /// zero result. That cannot reach the inverse either: the value a
    /// sum is subtracted from is never `−0` (the right-hand side holds
    /// only `+0` and `1`, and a difference that rounds to zero is `+0`),
    /// and `v − (+0) = v − (−0)` for every such `v`. The inverse is
    /// therefore bit-identical to solving against each unit vector with
    /// [`LuDecomposition::solve`], at a cost of `O(n·(nnz(L) + nnz(U)))`
    /// instead of `O(n³)`. Apart from the returned buffer, only the
    /// compressed factors, the diagonal of `U` and one `n × 8` work
    /// array are allocated.
    pub fn into_inverse(self) -> Matrix {
        let n = self.dim();
        let lower = TriangularRows::strictly_lower(&self.lu);
        let upper = TriangularRows::strictly_upper(&self.lu);
        let diag: Vec<f64> = (0..n).map(|i| self.lu.get(i, i)).collect();
        let mut inv = self.lu;
        // Column `perm[i]` is the solve whose permuted unit vector has its
        // 1 in row `i`. Taking the columns in `perm` order, BLOCK at a
        // time, lets one pass over the factors serve BLOCK solves (lane
        // `b` of `x[i·BLOCK + b]` is one column's vector), each keeping
        // its own sum order; rows above a lane's 1 only see zeros and
        // stay +0, so starting the block at its first lane's row is exact.
        let mut x = vec![0.0; n * BLOCK];
        for (block, cols) in self.perm.chunks(BLOCK).enumerate() {
            let first = block * BLOCK;
            x.fill(0.0);
            for b in 0..cols.len() {
                x[(first + b) * BLOCK + b] = 1.0;
            }
            for i in first + 1..n {
                let dot = lower.dot_block(i, &x);
                for (xi, d) in x[i * BLOCK..(i + 1) * BLOCK].iter_mut().zip(dot) {
                    *xi -= d;
                }
            }
            for i in (0..n).rev() {
                let dot = upper.dot_block(i, &x);
                for (xi, d) in x[i * BLOCK..(i + 1) * BLOCK].iter_mut().zip(dot) {
                    *xi = (*xi - d) / diag[i];
                }
            }
            for (b, &col) in cols.iter().enumerate() {
                for row in 0..n {
                    inv.set(row, col, x[row * BLOCK + b]);
                }
            }
        }
        inv
    }

    /// Determinant of the factorized matrix.
    pub fn determinant(&self) -> f64 {
        let mut det = self.perm_sign;
        for i in 0..self.dim() {
            det *= self.lu.get(i, i);
        }
        det
    }
}

/// Right-hand sides solved together by [`LuDecomposition::into_inverse`].
const BLOCK: usize = 8;

/// The nonzero entries of one strict triangle of a dense matrix, stored
/// row by row in ascending column order (compressed sparse rows). Sized
/// exactly: the entries are counted before the arrays are allocated.
struct TriangularRows {
    /// Row `i` occupies `cols[start[i]..start[i + 1]]`.
    start: Vec<usize>,
    cols: Vec<u32>,
    vals: Vec<f64>,
}

impl TriangularRows {
    /// The strictly lower triangle of `m` (the unit-diagonal `L` factor).
    fn strictly_lower(m: &Matrix) -> Self {
        Self::from_rows(m, |i| 0..i)
    }

    /// The strictly upper triangle of `m` (`U` without its diagonal).
    fn strictly_upper(m: &Matrix) -> Self {
        Self::from_rows(m, |i| i + 1..m.cols())
    }

    fn from_rows(m: &Matrix, span: impl Fn(usize) -> std::ops::Range<usize>) -> Self {
        let n = m.rows();
        assert!(
            u32::try_from(m.cols()).is_ok(),
            "column indices are stored as u32"
        );
        let nnz = (0..n)
            .map(|i| m.row(i)[span(i)].iter().filter(|&&v| v != 0.0).count())
            .sum();
        let mut start = Vec::with_capacity(n + 1);
        let mut cols = Vec::with_capacity(nnz);
        let mut vals = Vec::with_capacity(nnz);
        start.push(0);
        for i in 0..n {
            let range = span(i);
            let offset = range.start;
            for (k, &v) in m.row(i)[range].iter().enumerate() {
                if v != 0.0 {
                    cols.push((offset + k) as u32);
                    vals.push(v);
                }
            }
            start.push(cols.len());
        }
        TriangularRows { start, cols, vals }
    }

    /// `Σₖ row_i[k]·x[k·BLOCK + b]` for each lane `b`, over the row's
    /// nonzeros in ascending `k`: each lane is its own sequential sum.
    #[inline]
    fn dot_block(&self, i: usize, x: &[f64]) -> [f64; BLOCK] {
        let range = self.start[i]..self.start[i + 1];
        let mut acc = [0.0; BLOCK];
        for (&k, &v) in self.cols[range.clone()].iter().zip(&self.vals[range]) {
            let xk = &x[k as usize * BLOCK..(k as usize + 1) * BLOCK];
            for (a, &xkb) in acc.iter_mut().zip(xk) {
                *a += v * xkb;
            }
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() <= tol, "{a} != {b} (tol {tol})");
    }

    #[test]
    fn solve_2x2() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0]]).unwrap();
        let x = a.solve(&[3.0, 5.0]).unwrap();
        assert_close(x[0], 0.8, 1e-12);
        assert_close(x[1], 1.4, 1e-12);
    }

    #[test]
    fn inverse_roundtrip_4x4() {
        // A strictly diagonally dominant symmetric matrix, like a
        // capacitance matrix.
        let a = Matrix::from_rows(&[
            &[5.0, -1.0, 0.0, -0.5],
            &[-1.0, 4.0, -1.0, 0.0],
            &[0.0, -1.0, 6.0, -2.0],
            &[-0.5, 0.0, -2.0, 7.0],
        ])
        .unwrap();
        let inv = a.inverse().unwrap();
        let id = a.mul(&inv).unwrap();
        for r in 0..4 {
            for c in 0..4 {
                assert_close(id.get(r, c), if r == c { 1.0 } else { 0.0 }, 1e-12);
            }
        }
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 0.0]]).unwrap();
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_close(x[0], 3.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn singular_detected() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0]]).unwrap();
        assert!(matches!(a.lu(), Err(LinalgError::Singular { .. })));
    }

    #[test]
    fn not_square_rejected() {
        let a = Matrix::zeros(2, 3);
        assert!(matches!(a.lu(), Err(LinalgError::NotSquare { .. })));
    }

    #[test]
    fn determinant_with_permutation() {
        let a = Matrix::from_rows(&[&[0.0, 2.0], &[3.0, 0.0]]).unwrap();
        assert_close(a.lu().unwrap().determinant(), -6.0, 1e-12);
    }

    #[test]
    fn determinant_identity() {
        assert_close(Matrix::identity(5).lu().unwrap().determinant(), 1.0, 1e-12);
    }

    #[test]
    fn solve_rejects_bad_rhs_length() {
        let lu = Matrix::identity(3).lu().unwrap();
        assert!(lu.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn solve_transpose_matches_explicit_transpose() {
        let a =
            Matrix::from_rows(&[&[0.0, 2.0, -1.0], &[3.0, 0.5, 0.0], &[-1.0, 1.0, 4.0]]).unwrap();
        let b = [1.0, -2.0, 3.0];
        let x1 = a.lu().unwrap().solve_transpose(&b).unwrap();
        let x2 = a.transposed().solve(&b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert_close(*u, *v, 1e-12);
        }
    }

    #[test]
    fn condition_estimate_identity_is_one() {
        let est = Matrix::identity(4).condition_estimate().unwrap();
        assert_close(est, 1.0, 1e-12);
    }

    #[test]
    fn condition_estimate_grows_with_ill_conditioning() {
        // diag(1, 1e-8): κ₁ = 1e8 exactly.
        let mut m = Matrix::identity(2);
        m.set(1, 1, 1e-8);
        let est = m.condition_estimate().unwrap();
        assert_close(est, 1e8, 1.0);
    }

    #[test]
    fn inverse_of_symmetric_is_symmetric() {
        let a = Matrix::from_rows(&[&[4.0, -1.0, -0.3], &[-1.0, 5.0, -0.7], &[-0.3, -0.7, 6.0]])
            .unwrap();
        let inv = a.inverse().unwrap();
        assert!(inv.is_symmetric(1e-12));
    }
}
