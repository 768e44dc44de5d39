//! Dense symmetric linear algebra for the Gaussian-process substrate.
//!
//! Gaussian-process regression needs exactly one factorization — the
//! Cholesky decomposition of a symmetric positive-definite kernel matrix —
//! plus triangular solves against it. Kernel matrices in the tuning setting
//! are small (hundreds of observations), so the factor is dense, stored as
//! a packed lower triangle. Two things make it fast without changing a bit
//! of it: [`Cholesky::factor_from`] continues from a known leading factor,
//! so a model that gains observations factors only its new rows, and it
//! computes four rows at once, so independent dot products share each
//! load of a finished row. Every entry's dot product still runs in
//! column order, as in the row-oriented Cholesky–Banachiewicz loop.

/// A dense symmetric matrix stored row-major in full (not packed) form.
///
/// Full storage keeps row access contiguous, which is what the
/// Cholesky inner loops traverse.
#[derive(Debug, Clone)]
pub struct SymMatrix {
    n: usize,
    data: Vec<f64>,
}

impl SymMatrix {
    /// Zero matrix of dimension `n`.
    pub fn zeros(n: usize) -> Self {
        SymMatrix {
            n,
            data: vec![0.0; n * n],
        }
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.data[i * self.n + j]
    }

    /// Set `(i,j)` and `(j,i)`.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.n + j] = v;
        self.data[j * self.n + i] = v;
    }

    /// Add `v` to every diagonal element (jitter / noise variance).
    pub fn add_diagonal(&mut self, v: f64) {
        for i in 0..self.n {
            self.data[i * self.n + i] += v;
        }
    }

    /// Matrix-vector product `A x`.
    pub fn matvec(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.n);
        (0..self.n)
            .map(|i| dot(&self.data[i * self.n..(i + 1) * self.n], x))
            .collect()
    }
}

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct Cholesky {
    n: usize,
    /// The lower triangle packed row by row: row `i` holds `L[i][0..=i]`
    /// from [`row_start`]`(i)` on, so a larger factor extends a smaller one.
    l: Vec<f64>,
}

/// Error raised when a matrix is not (numerically) positive definite.
#[derive(Debug, Clone, PartialEq)]
pub struct NotPositiveDefinite {
    /// Pivot index at which the factorization broke down.
    pub pivot: usize,
    /// The offending diagonal value after elimination.
    pub value: f64,
}

impl std::fmt::Display for NotPositiveDefinite {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "matrix is not positive definite: pivot {} has value {:.3e}",
            self.pivot, self.value
        )
    }
}

impl std::error::Error for NotPositiveDefinite {}

impl Cholesky {
    /// Factor a symmetric positive-definite matrix: [`factor_from`] an
    /// empty prefix.
    ///
    /// [`factor_from`]: Self::factor_from
    pub fn factor(a: &SymMatrix) -> Result<Self, NotPositiveDefinite> {
        let empty = Cholesky {
            n: 0,
            l: Vec::new(),
        };
        Self::factor_from(&empty, a)
    }

    /// Factor `a` continuing from `prefix`, the factor of `a`'s leading
    /// `p × p` block; only rows `p..` of `a`'s lower triangle are read.
    ///
    /// Each entry is the Cholesky–Banachiewicz one, `(a[i][j] − Σₖ L[i][k]
    /// L[j][k]) / L[j][j]` or the root of the diagonal's, with its sum in
    /// `k` order. So the factor is bit-identical to the row-oriented loop
    /// for any `p`, and so is the error: the first pivot in row order that
    /// is not positive and finite, with its value. Rows go four at a time,
    /// the last few one by one.
    pub fn factor_from(prefix: &Cholesky, a: &SymMatrix) -> Result<Self, NotPositiveDefinite> {
        let (p, n) = (prefix.n, a.n());
        assert!(p <= n, "a {p}-row prefix for a {n}-row matrix");
        let mut l = Vec::with_capacity(row_start(n));
        l.extend_from_slice(&prefix.l);
        l.resize(row_start(n), 0.0);
        let mut scratch = Vec::with_capacity(n * LOCKSTEP);
        let mut i = p;
        while i + LOCKSTEP <= n {
            factor_rows::<LOCKSTEP>(&mut l, &mut scratch, a, i)?;
            i += LOCKSTEP;
        }
        for i in i..n {
            factor_rows::<1>(&mut l, &mut scratch, a, i)?;
        }
        Ok(Cholesky { n, l })
    }

    /// Dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `L[i][j]` for `j <= i`.
    #[inline]
    pub fn l(&self, i: usize, j: usize) -> f64 {
        debug_assert!(j <= i && i < self.n);
        self.l[row_start(i) + j]
    }

    /// Solve `L y = b` (forward substitution): a tile of one column.
    pub fn solve_lower(&self, b: &[f64]) -> Vec<f64> {
        let mut y = b.to_vec();
        self.solve_lower_tile::<1>(&mut y);
        y
    }

    /// Solve `L Y = B` in place for `W` right-hand sides at once, with `b`
    /// the row-major `n × W` block `B`.
    ///
    /// Every column's sums run in the order of a one-column [`dot`], so
    /// each column is bit-identical to solving it alone; the `W`
    /// independent accumulators are what make the tile faster than `W`
    /// serially dependent solves.
    pub(crate) fn solve_lower_tile<const W: usize>(&self, b: &mut [f64]) {
        assert_eq!(b.len(), self.n * W);
        for i in 0..self.n {
            let (done, rest) = b.split_at_mut(i * W);
            let (li, lii) = self.row(i);
            let mut s = [0.0; W];
            for (&lik, yk) in li.iter().zip(done.chunks_exact(W)) {
                for (sc, &y) in s.iter_mut().zip(yk) {
                    *sc += lik * y;
                }
            }
            for (bc, sc) in rest[..W].iter_mut().zip(s) {
                *bc = (*bc - sc) / lii;
            }
        }
    }

    /// Solve `Lᵀ x = y` (backward substitution).
    pub fn solve_upper(&self, y: &[f64]) -> Vec<f64> {
        assert_eq!(y.len(), self.n);
        let mut x = vec![0.0; self.n];
        for i in (0..self.n).rev() {
            let mut s = 0.0;
            for (k, xk) in x.iter().enumerate().skip(i + 1) {
                s += self.l(k, i) * xk;
            }
            x[i] = (y[i] - s) / self.l(i, i);
        }
        x
    }

    /// Solve `A x = b` where `A = L Lᵀ`.
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        self.solve_upper(&self.solve_lower(b))
    }

    /// `log det A = 2 Σ log L[i][i]` — the determinant term of the
    /// Gaussian log-marginal likelihood.
    pub fn log_det(&self) -> f64 {
        (0..self.n).map(|i| self.l(i, i).ln()).sum::<f64>() * 2.0
    }

    /// Row `i` of `L` left of the diagonal, and the diagonal entry.
    #[inline]
    fn row(&self, i: usize) -> (&[f64], f64) {
        let start = row_start(i);
        (&self.l[start..start + i], self.l[start + i])
    }
}

/// Rows of the factor that [`Cholesky::factor_from`] computes at once.
const LOCKSTEP: usize = 4;

/// Offset of row `i` in a packed lower triangle.
#[inline]
fn row_start(i: usize) -> usize {
    i * (i + 1) / 2
}

/// Rows `i..i + R` of the packed factor `l`, whose rows `..i` are done.
///
/// Left of the block, each finished row `j` meets the `R` rows at once:
/// `R` independent sums in `k` order, over `t`, the block's finished
/// columns interleaved as `t[k * R + r]`. Inside the block, entries go in
/// row order with one [`dot`] each.
fn factor_rows<const R: usize>(
    l: &mut [f64],
    t: &mut Vec<f64>,
    a: &SymMatrix,
    i: usize,
) -> Result<(), NotPositiveDefinite> {
    let (done, block) = l[..row_start(i + R)].split_at_mut(row_start(i));
    let start: [usize; R] = std::array::from_fn(|r| row_start(i + r) - row_start(i));
    t.clear();
    for j in 0..i {
        let lj = &done[row_start(j)..row_start(j + 1)];
        let mut s = [0.0; R];
        for (&ljk, tk) in lj[..j].iter().zip(t.chunks_exact(R)) {
            for (sr, &lrk) in s.iter_mut().zip(tk) {
                *sr += lrk * ljk;
            }
        }
        for (r, sr) in s.into_iter().enumerate() {
            let v = (a.get(i + r, j) - sr) / lj[j];
            block[start[r] + j] = v;
            t.push(v);
        }
    }
    for r in 0..R {
        for j in i..=i + r {
            let partner = start[j - i];
            let s = dot(&block[start[r]..start[r] + j], &block[partner..partner + j]);
            block[start[r] + j] = if j == i + r {
                let d = a.get(j, j) - s;
                if d <= 0.0 || !d.is_finite() {
                    return Err(NotPositiveDefinite { pivot: j, value: d });
                }
                d.sqrt()
            } else {
                (a.get(i + r, j) - s) / block[partner + j]
            };
        }
    }
    Ok(())
}

/// Dense dot product. The explicit loop vectorizes well; slices keep the
/// bounds check out of the loop.
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        s += x * y;
    }
    s
}

/// Squared Euclidean distance between two feature vectors.
#[inline]
pub fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let mut s = 0.0;
    for (x, y) in a.iter().zip(b) {
        let d = x - y;
        s += d * d;
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spd(n: usize, seed: u64) -> SymMatrix {
        // A = B Bᵀ + n·I is SPD for any B.
        let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15).wrapping_add(1);
        let mut next = || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        let b: Vec<f64> = (0..n * n).map(|_| next()).collect();
        let mut a = SymMatrix::zeros(n);
        for i in 0..n {
            for j in 0..=i {
                let v = dot(&b[i * n..(i + 1) * n], &b[j * n..(j + 1) * n]);
                a.set(i, j, v);
            }
        }
        a.add_diagonal(n as f64);
        a
    }

    #[test]
    fn cholesky_reconstructs_matrix() {
        for n in [1, 2, 3, 7, 20] {
            let a = spd(n, n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            for i in 0..n {
                for j in 0..=i {
                    let mut s = 0.0;
                    for k in 0..=j {
                        s += ch.l(i, k) * ch.l(j, k);
                    }
                    assert!(
                        (s - a.get(i, j)).abs() < 1e-8 * (1.0 + a.get(i, j).abs()),
                        "n={n} ({i},{j}): {s} vs {}",
                        a.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn solve_inverts_matvec() {
        for n in [1, 3, 9, 25] {
            let a = spd(n, 100 + n as u64);
            let ch = Cholesky::factor(&a).unwrap();
            let x_true: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
            let b = a.matvec(&x_true);
            let x = ch.solve(&b);
            for (got, want) in x.iter().zip(&x_true) {
                assert!((got - want).abs() < 1e-8, "n={n}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn log_det_matches_2x2_closed_form() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 4.0);
        a.set(1, 1, 9.0);
        a.set(0, 1, 2.0);
        let ch = Cholesky::factor(&a).unwrap();
        let det: f64 = 4.0 * 9.0 - 2.0 * 2.0;
        assert!((ch.log_det() - det.ln()).abs() < 1e-12);
    }

    #[test]
    fn indefinite_matrix_is_rejected() {
        let mut a = SymMatrix::zeros(2);
        a.set(0, 0, 1.0);
        a.set(1, 1, 1.0);
        a.set(0, 1, 2.0); // eigenvalues 3 and -1
        let err = Cholesky::factor(&a).unwrap_err();
        assert_eq!(err.pivot, 1);
        assert!(err.value <= 0.0);
    }

    #[test]
    fn zero_matrix_is_rejected() {
        let a = SymMatrix::zeros(3);
        assert!(Cholesky::factor(&a).is_err());
    }

    #[test]
    fn triangular_solves_agree_with_full_solve() {
        let a = spd(6, 42);
        let ch = Cholesky::factor(&a).unwrap();
        let b: Vec<f64> = (0..6).map(|i| i as f64 - 2.5).collect();
        let y = ch.solve_lower(&b);
        let x = ch.solve_upper(&y);
        let direct = ch.solve(&b);
        for (a, b) in x.iter().zip(&direct) {
            assert!((a - b).abs() < 1e-14);
        }
    }

    #[test]
    fn tile_columns_match_one_column_dot_solves() {
        let n = 13;
        let ch = Cholesky::factor(&spd(n, 9)).unwrap();
        let cols: Vec<Vec<f64>> = (0..8)
            .map(|c| (0..n).map(|i| ((i * 7 + c * 3) as f64).sin()).collect())
            .collect();
        let mut tile = vec![0.0; n * 8];
        for (c, col) in cols.iter().enumerate() {
            for (i, &b) in col.iter().enumerate() {
                tile[i * 8 + c] = b;
            }
        }
        ch.solve_lower_tile::<8>(&mut tile);
        for (c, b) in cols.iter().enumerate() {
            // Forward substitution with one `dot` per row.
            let mut y = vec![0.0; n];
            for i in 0..n {
                let s = dot(ch.row(i).0, &y[..i]);
                y[i] = (b[i] - s) / ch.l(i, i);
            }
            for i in 0..n {
                assert_eq!(tile[i * 8 + c].to_bits(), y[i].to_bits(), "({i},{c})");
            }
            let one: Vec<u64> = ch.solve_lower(b).iter().map(|v| v.to_bits()).collect();
            assert_eq!(one, y.iter().map(|v| v.to_bits()).collect::<Vec<_>>());
        }
    }

    #[test]
    fn sq_dist_and_dot_basics() {
        assert_eq!(dot(&[1.0, 2.0], &[3.0, 4.0]), 11.0);
        assert_eq!(sq_dist(&[0.0, 0.0], &[3.0, 4.0]), 25.0);
        assert_eq!(sq_dist(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn add_diagonal_only_touches_diagonal() {
        let mut a = spd(4, 7);
        let before = a.clone();
        a.add_diagonal(2.5);
        for i in 0..4 {
            for j in 0..4 {
                let expect = before.get(i, j) + if i == j { 2.5 } else { 0.0 };
                assert_eq!(a.get(i, j), expect);
            }
        }
    }
}
