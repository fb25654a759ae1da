//! Cook–Toom generation of the Winograd minimal-filtering matrices.
//!
//! For `F(m, r)` (computing `m` outputs of an `r`-tap FIR filter from
//! `α = m + r - 1` inputs) with finite interpolation points `p₀ … p_{α-2}`
//! plus the point at infinity:
//!
//! * `Aᵀ` is `m × α`; finite column `j` is `[1, pⱼ, …, pⱼ^{m-1}]ᵀ`, the ∞
//!   column is `[0, …, 0, 1]ᵀ`.
//! * `G` is `α × r`; finite row `i` is `wᵢ · [1, pᵢ, …, pᵢ^{r-1}]` with the
//!   barycentric weight `wᵢ = 1 / ∏_{k≠i}(pᵢ - p_k)`; the ∞ row is
//!   `[0, …, 0, 1]`.
//! * `Bᵀ` is `α × α`; finite row `i` holds the coefficients of
//!   `mᵢ(x) = ∏_{k≠i}(x - p_k)` (degree α-2, zero-padded), the ∞ row holds
//!   the coefficients of `M(x) = ∏_k(x - p_k)` (degree α-1).
//!
//! Then `y = Aᵀ[(G·g) ⊙ (Bᵀ·d)]` equals the correlation
//! `y_s = Σ_k d_{s+k}·g_k` **exactly** (verified over the rationals by the
//! tests in this module). This is the transposed modified-Toom–Cook
//! construction, identical to what Wincnn produces up to paired sign flips
//! of (G row i, Bᵀ row i), which cancel in the element-wise product.

use crate::points::default_points;
use crate::rational::Rational;

/// A dense matrix of exact rationals (row-major).
#[derive(Clone, PartialEq, Eq)]
pub struct RatMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Rational>,
}

impl RatMatrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        RatMatrix { rows, cols, data: vec![Rational::ZERO; rows * cols] }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn at(&self, i: usize, j: usize) -> Rational {
        assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    pub fn set(&mut self, i: usize, j: usize, v: Rational) {
        assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    pub fn row(&self, i: usize) -> &[Rational] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    pub fn transpose(&self) -> RatMatrix {
        let mut t = RatMatrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.at(i, j));
            }
        }
        t
    }

    /// Exact matrix–vector product.
    pub fn matvec(&self, x: &[Rational]) -> Vec<Rational> {
        assert_eq!(self.cols, x.len());
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(x)
                    .fold(Rational::ZERO, |acc, (&a, &b)| acc + a * b)
            })
            .collect()
    }

    /// Lossily convert to a row-major `f32` matrix.
    pub fn to_f32(&self) -> F32Matrix {
        F32Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|r| r.to_f32()).collect(),
        }
    }
}

impl std::fmt::Debug for RatMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "RatMatrix {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows {
            write!(f, "  ")?;
            for j in 0..self.cols {
                write!(f, "{:>8} ", format!("{}", self.at(i, j)))?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

/// A dense row-major `f32` matrix (the form consumed by codelet builders).
#[derive(Clone, Debug, PartialEq)]
pub struct F32Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f32>,
}

impl F32Matrix {
    pub fn at(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }
}

/// Coefficients (ascending degree) of `∏ᵢ (x - rootᵢ)`.
fn poly_from_roots(roots: &[Rational]) -> Vec<Rational> {
    let mut coeffs = vec![Rational::ONE];
    for &root in roots {
        // multiply by (x - root)
        let mut next = vec![Rational::ZERO; coeffs.len() + 1];
        for (d, &c) in coeffs.iter().enumerate() {
            next[d + 1] += c;
            next[d] -= root * c;
        }
        coeffs = next;
    }
    coeffs
}

/// The exact 1-D Winograd transform triple for `F(m, r)`.
#[derive(Clone, Debug)]
pub struct Transform1D {
    /// Number of outputs per tile.
    pub m: usize,
    /// Filter taps.
    pub r: usize,
    /// Tile size `α = m + r - 1`.
    pub alpha: usize,
    /// `m × α` inverse-transform matrix `Aᵀ`.
    pub at: RatMatrix,
    /// `α × r` kernel-transform matrix `G`.
    pub g: RatMatrix,
    /// `α × α` input-transform matrix `Bᵀ`.
    pub bt: RatMatrix,
}

impl Transform1D {
    /// Generate `F(m, r)` using the default interpolation-point schedule.
    ///
    /// # Panics
    /// Panics if `m == 0 || r == 0`, or the tile is too large for the point
    /// schedule.
    pub fn generate(m: usize, r: usize) -> Transform1D {
        Self::generate_with_points(m, r, &default_points(m + r - 2))
    }

    /// Generate `F(m, r)` with explicit finite interpolation points (the
    /// final point at infinity is implicit). `points.len()` must equal
    /// `m + r - 2` and all points must be distinct.
    pub fn generate_with_points(m: usize, r: usize, points: &[Rational]) -> Transform1D {
        assert!(m >= 1, "F(m, r) requires m >= 1");
        assert!(r >= 1, "F(m, r) requires r >= 1");
        let alpha = m + r - 1;
        assert_eq!(
            points.len(),
            alpha - 1,
            "F({m}, {r}) needs {} finite interpolation points",
            alpha - 1
        );
        for i in 0..points.len() {
            for j in (i + 1)..points.len() {
                assert_ne!(points[i], points[j], "interpolation points must be distinct");
            }
        }

        // Aᵀ: m × α.
        let mut at = RatMatrix::zeros(m, alpha);
        for (j, &p) in points.iter().enumerate() {
            let mut pow = Rational::ONE;
            for i in 0..m {
                at.set(i, j, pow);
                pow *= p;
            }
        }
        at.set(m - 1, alpha - 1, Rational::ONE); // ∞ column

        // Barycentric weights wᵢ = 1 / ∏_{k≠i}(pᵢ - p_k).
        let weights: Vec<Rational> = (0..points.len())
            .map(|i| {
                let prod = points
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != i)
                    .fold(Rational::ONE, |acc, (_, &pk)| acc * (points[i] - pk));
                prod.recip()
            })
            .collect();

        // G: α × r.
        let mut g = RatMatrix::zeros(alpha, r);
        for (i, &p) in points.iter().enumerate() {
            let mut pow = weights[i];
            for j in 0..r {
                g.set(i, j, pow);
                pow *= p;
            }
        }
        g.set(alpha - 1, r - 1, Rational::ONE); // ∞ row

        // Bᵀ: α × α.
        let mut bt = RatMatrix::zeros(alpha, alpha);
        for i in 0..points.len() {
            let others: Vec<Rational> = points
                .iter()
                .enumerate()
                .filter(|&(k, _)| k != i)
                .map(|(_, &p)| p)
                .collect();
            let mi = poly_from_roots(&others); // degree α-2 → α-1 coeffs
            for (d, &c) in mi.iter().enumerate() {
                bt.set(i, d, c);
            }
        }
        let big_m = poly_from_roots(points); // degree α-1 → α coeffs
        for (d, &c) in big_m.iter().enumerate() {
            bt.set(alpha - 1, d, c);
        }

        let t = Transform1D { m, r, alpha, at, g, bt };
        t.normalize_signs()
    }

    /// Flip paired signs so that the first non-zero entry of every G row is
    /// positive (the convention used in the paper's printed matrices). A
    /// simultaneous flip of G row i and Bᵀ row i leaves
    /// `(G·g) ⊙ (Bᵀ·d)` unchanged.
    fn normalize_signs(mut self) -> Self {
        for i in 0..self.alpha {
            let lead = (0..self.r).map(|j| self.g.at(i, j)).find(|v| !v.is_zero());
            if let Some(v) = lead {
                if v.is_negative() {
                    for j in 0..self.r {
                        let x = self.g.at(i, j);
                        self.g.set(i, j, -x);
                    }
                    for j in 0..self.alpha {
                        let x = self.bt.at(i, j);
                        self.bt.set(i, j, -x);
                    }
                }
            }
        }
        self
    }

    /// Exact FIR correlation through the Winograd identity:
    /// `Aᵀ[(G·g) ⊙ (Bᵀ·d)]`. Used by tests and by higher-dimensional
    /// verification; production code uses compiled f32 codelets instead.
    pub fn apply_exact(&self, d: &[Rational], g_taps: &[Rational]) -> Vec<Rational> {
        assert_eq!(d.len(), self.alpha);
        assert_eq!(g_taps.len(), self.r);
        let e = self.bt.matvec(d);
        let f = self.g.matvec(g_taps);
        let prod: Vec<Rational> = e.iter().zip(&f).map(|(&a, &b)| a * b).collect();
        self.at.matvec(&prod)
    }
}

/// Brute-force exact correlation `y_s = Σ_k d_{s+k} g_k`, `s = 0..m`.
pub fn direct_correlation(d: &[Rational], g: &[Rational], m: usize) -> Vec<Rational> {
    assert!(d.len() + 1 >= g.len() + m, "input too short: need m + r - 1 samples");
    (0..m)
        .map(|s| {
            g.iter()
                .enumerate()
                .fold(Rational::ZERO, |acc, (k, &gk)| acc + d[s + k] * gk)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rat(n: i128, d: i128) -> Rational {
        Rational::new(n, d)
    }

    fn int(n: i128) -> Rational {
        Rational::from_int(n)
    }

    impl RatMatrix {
        fn from_rows(rows: Vec<Vec<Rational>>) -> Self {
            let r = rows.len();
            let c = rows.first().map_or(0, |row| row.len());
            assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
            RatMatrix { rows: r, cols: c, data: rows.into_iter().flatten().collect() }
        }

        /// Number of structurally non-zero entries.
        fn nnz(&self) -> usize {
            self.data.iter().filter(|r| !r.is_zero()).count()
        }
    }

    #[test]
    fn f23_matches_paper_equation_5() {
        // The paper's Eq. 5 matrices for F(2, 3), up to the documented
        // paired sign convention. With points [0, 1, -1] and our
        // normalisation, G must equal the paper's G exactly.
        let t = Transform1D::generate(2, 3);
        assert_eq!(t.alpha, 4);
        let g_expect = RatMatrix::from_rows(vec![
            vec![int(1), int(0), int(0)],
            vec![rat(1, 2), rat(1, 2), rat(1, 2)],
            vec![rat(1, 2), rat(-1, 2), rat(1, 2)],
            vec![int(0), int(0), int(1)],
        ]);
        assert_eq!(t.g, g_expect, "G mismatch:\n{:?}", t.g);

        // Bᵀ rows carry the paired sign flips; the element-wise products are
        // what must match, which the exactness test below already guarantees.
        // Still, check the magnitude pattern against the paper's Bᵀ.
        let bt_abs: Vec<Vec<Rational>> =
            (0..4).map(|i| t.bt.row(i).iter().map(|v| v.abs()).collect()).collect();
        let expect_abs = vec![
            vec![int(1), int(0), int(1), int(0)],
            vec![int(0), int(1), int(1), int(0)],
            vec![int(0), int(1), int(1), int(0)],
            vec![int(0), int(1), int(0), int(1)],
        ];
        assert_eq!(bt_abs, expect_abs);
    }

    #[test]
    fn f23_identity_on_symbolic_basis() {
        // Exactness on the standard basis is equivalent to exactness for all
        // inputs (bilinearity).
        let t = Transform1D::generate(2, 3);
        for di in 0..4 {
            for gi in 0..3 {
                let mut d = vec![Rational::ZERO; 4];
                let mut g = vec![Rational::ZERO; 3];
                d[di] = Rational::ONE;
                g[gi] = Rational::ONE;
                let got = t.apply_exact(&d, &g);
                let want = direct_correlation(&d, &g, 2);
                assert_eq!(got, want, "basis d[{di}], g[{gi}]");
            }
        }
    }

    #[test]
    fn exhaustive_sizes_are_exact() {
        // Every practically relevant (m, r): bilinearity means checking the
        // standard basis proves the identity for all inputs.
        for m in 1..=8usize {
            for r in 1..=6usize {
                let t = Transform1D::generate(m, r);
                assert_eq!(t.alpha, m + r - 1);
                assert_eq!(t.at.rows(), m);
                assert_eq!(t.at.cols(), t.alpha);
                assert_eq!(t.g.rows(), t.alpha);
                assert_eq!(t.g.cols(), r);
                assert_eq!(t.bt.rows(), t.alpha);
                assert_eq!(t.bt.cols(), t.alpha);
                for di in 0..t.alpha {
                    for gi in 0..r {
                        let mut d = vec![Rational::ZERO; t.alpha];
                        let mut g = vec![Rational::ZERO; r];
                        d[di] = Rational::ONE;
                        g[gi] = Rational::ONE;
                        let got = t.apply_exact(&d, &g);
                        let want = direct_correlation(&d, &g, m);
                        assert_eq!(got, want, "F({m},{r}) basis d[{di}] g[{gi}]");
                    }
                }
            }
        }
    }

    #[test]
    fn random_rational_inputs_are_exact() {
        let t = Transform1D::generate(4, 3);
        // Deterministic "random" small rationals.
        let d: Vec<Rational> = (0..6).map(|i| rat((i * 7 % 11) as i128 - 5, 1 + (i % 3) as i128)).collect();
        let g: Vec<Rational> = (0..3).map(|i| rat((i * 5 % 7) as i128 - 3, 2)).collect();
        assert_eq!(t.apply_exact(&d, &g), direct_correlation(&d, &g, 4));
    }

    #[test]
    fn degenerate_f11_is_plain_product() {
        let t = Transform1D::generate(1, 1);
        assert_eq!(t.alpha, 1);
        let y = t.apply_exact(&[int(3)], &[int(5)]);
        assert_eq!(y, vec![int(15)]);
    }

    #[test]
    fn fm1_is_identity_scaling() {
        // r = 1: convolution with a scalar.
        let t = Transform1D::generate(3, 1);
        let d = vec![int(2), int(-4), int(6)];
        let y = t.apply_exact(&d, &[int(3)]);
        assert_eq!(y, vec![int(6), int(-12), int(18)]);
    }

    #[test]
    fn multiplication_count_is_minimal() {
        // The whole point: the element-wise product stage uses exactly
        // α = m + r - 1 multiplications.
        let t = Transform1D::generate(6, 3);
        assert_eq!(t.alpha, 8); // vs m*r = 18 for the direct method
    }

    #[test]
    fn transform_matrices_are_sparse_for_small_points(){
        // B and G contain many structural zeros (exploited by codelets).
        let t = Transform1D::generate(2, 3);
        assert_eq!(t.bt.nnz(), 8); // paper's Bᵀ has 8 non-zeros out of 16
        assert!(t.at.nnz() <= 6);
    }

    #[test]
    fn matrix_ops() {
        let a = RatMatrix::from_rows(vec![vec![int(1), int(2)], vec![int(3), int(4)]]);
        let t = a.transpose();
        assert_eq!(t.at(0, 1), int(3));
        assert_eq!(a.matvec(&[int(1), int(1)]), vec![int(3), int(7)]);
    }

    #[test]
    fn poly_from_roots_expands_correctly() {
        // (x - 1)(x + 1) = x² - 1
        let c = poly_from_roots(&[int(1), int(-1)]);
        assert_eq!(c, vec![int(-1), int(0), int(1)]);
        // (x)(x-1)(x+1) = x³ - x
        let c = poly_from_roots(&[int(0), int(1), int(-1)]);
        assert_eq!(c, vec![int(0), int(-1), int(0), int(1)]);
        // empty product = 1
        assert_eq!(poly_from_roots(&[]), vec![int(1)]);
    }

    #[test]
    fn f32_conversion_roundtrips_small_values() {
        let t = Transform1D::generate(4, 3);
        let f = t.bt.to_f32();
        assert_eq!(f.rows, 6);
        assert_eq!(f.cols, 6);
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(f.at(i, j) as f64, t.bt.at(i, j).to_f64(), "entry {i},{j} not f32-exact");
            }
        }
    }
}
