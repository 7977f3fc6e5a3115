//! The empirical performance model of Figs. 3 and 4.
//!
//! The paper regresses a cubic model over serial reasoning times for
//! LUBM-1, LUBM-5, LUBM-10, ... ("since the worst case of the reasoning
//! for the rule set is cubic, fitting a cubic model is reasonable") and
//! uses it to compute a theoretical maximum speedup: a perfect partition
//! splits the n-resource problem into k problems of n/k resources with no
//! replication, so
//! `max_speedup(n, k) = t(n) / t(n/k)`.

use owlpar_obs::json::{obj, Value};

/// A fitted polynomial `t(x) = c₀ + c₁x + c₂x² + …`.
#[derive(Debug, Clone)]
pub struct PolyModel {
    /// Coefficients, lowest order first.
    pub coeffs: Vec<f64>,
    /// Coefficient of determination on the training points.
    pub r_squared: f64,
}

impl PolyModel {
    /// `{"coeffs": [...], "r_squared": ...}` — the Fig. 4 model row.
    pub fn to_json(&self) -> Value {
        obj([
            ("coeffs", self.coeffs.clone().into()),
            ("r_squared", self.r_squared.into()),
        ])
    }

    /// Evaluate the model at `x`.
    pub fn predict(&self, x: f64) -> f64 {
        self.coeffs
            .iter()
            .rev()
            .fold(0.0, |acc, &c| acc * x + c)
    }

    /// Theoretical maximum speedup on a size-`n` input over `k` perfect
    /// partitions (Fig. 3): the serial time over the time of one
    /// (n/k)-sized partition.
    pub fn max_speedup(&self, n: f64, k: f64) -> f64 {
        let whole = self.predict(n);
        let part = self.predict(n / k);
        if part <= 0.0 {
            return f64::NAN;
        }
        whole / part
    }
}

/// Least-squares fit of a degree-`deg` polynomial through `(x, y)` points
/// via the normal equations (fine for the tiny systems of Fig. 4).
pub fn fit_poly(xs: &[f64], ys: &[f64], deg: usize) -> PolyModel {
    assert_eq!(xs.len(), ys.len());
    assert!(
        xs.len() > deg,
        "need more points than coefficients ({} <= {deg})",
        xs.len()
    );
    let m = deg + 1;
    // normal matrix A[i][j] = Σ x^(i+j), rhs b[i] = Σ y x^i
    let mut a = vec![vec![0.0f64; m]; m];
    let mut b = vec![0.0f64; m];
    for (&x, &y) in xs.iter().zip(ys) {
        let mut powers = vec![1.0f64; 2 * m - 1];
        for p in 1..2 * m - 1 {
            powers[p] = powers[p - 1] * x;
        }
        for i in 0..m {
            for j in 0..m {
                a[i][j] += powers[i + j];
            }
            b[i] += y * powers[i];
        }
    }
    let coeffs = solve(a, b);
    // R²
    let mean = ys.iter().sum::<f64>() / ys.len() as f64;
    let ss_tot: f64 = ys.iter().map(|&y| (y - mean).powi(2)).sum();
    let model = PolyModel {
        coeffs,
        r_squared: 0.0,
    };
    let ss_res: f64 = xs
        .iter()
        .zip(ys)
        .map(|(&x, &y)| (y - model.predict(x)).powi(2))
        .sum();
    let r_squared = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    PolyModel {
        r_squared,
        ..model
    }
}

/// Cubic fit — the paper's choice.
pub fn fit_cubic(xs: &[f64], ys: &[f64]) -> PolyModel {
    fit_poly(xs, ys, 3)
}

/// Gaussian elimination with partial pivoting.
fn solve(mut a: Vec<Vec<f64>>, mut b: Vec<f64>) -> Vec<f64> {
    let n = b.len();
    for col in 0..n {
        // pivot
        let pivot = (col..n)
            .max_by(|&i, &j| a[i][col].abs().total_cmp(&a[j][col].abs()))
            .unwrap_or(col);
        a.swap(col, pivot);
        b.swap(col, pivot);
        let diag = a[col][col];
        assert!(
            diag.abs() > 1e-12,
            "singular normal matrix (collinear sample points?)"
        );
        for row in (col + 1)..n {
            let f = a[row][col] / diag;
            let (head, tail) = a.split_at_mut(row);
            let pivot_row = &head[col];
            for (dst, src) in tail[0][col..n].iter_mut().zip(&pivot_row[col..n]) {
                *dst -= f * src;
            }
            b[row] -= f * b[col];
        }
    }
    let mut x = vec![0.0; n];
    for row in (0..n).rev() {
        let mut acc = b[row];
        for c in (row + 1)..n {
            acc -= a[row][c] * x[c];
        }
        x[row] = acc / a[row][row];
    }
    x
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_cubic_recovered() {
        // t(x) = 2 + 3x + 0.5x² + 0.25x³
        let truth = |x: f64| 2.0 + 3.0 * x + 0.5 * x * x + 0.25 * x * x * x;
        let xs: Vec<f64> = (1..=8).map(|i| i as f64).collect();
        let ys: Vec<f64> = xs.iter().map(|&x| truth(x)).collect();
        let m = fit_cubic(&xs, &ys);
        for (i, want) in [2.0, 3.0, 0.5, 0.25].iter().enumerate() {
            assert!(
                (m.coeffs[i] - want).abs() < 1e-6,
                "coeff {i}: {} vs {want}",
                m.coeffs[i]
            );
        }
        assert!(m.r_squared > 0.999999);
        assert!((m.predict(10.0) - truth(10.0)).abs() < 1e-4);
    }

    #[test]
    fn noisy_fit_has_reasonable_r2() {
        let xs: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        // pseudo-noise deterministic
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, &x)| x * x * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let m = fit_cubic(&xs, &ys);
        assert!(m.r_squared > 0.99, "r2={}", m.r_squared);
    }

    #[test]
    fn linear_data_fits_with_linear_poly() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys = [3.0, 5.0, 7.0, 9.0]; // 1 + 2x
        let m = fit_poly(&xs, &ys, 1);
        assert!((m.coeffs[0] - 1.0).abs() < 1e-9);
        assert!((m.coeffs[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn superlinear_speedup_for_cubic_model() {
        // pure cubic: t(n) = n³ → speedup at k = t(n)/t(n/k) = k³
        let m = PolyModel {
            coeffs: vec![0.0, 0.0, 0.0, 1.0],
            r_squared: 1.0,
        };
        assert!((m.max_speedup(1000.0, 4.0) - 64.0).abs() < 1e-9);
        // the paper's 18x on 16 nodes is far below the cubic ceiling
        assert!(m.max_speedup(1000.0, 16.0) > 18.0);
    }

    #[test]
    fn linear_model_gives_linear_speedup() {
        let m = PolyModel {
            coeffs: vec![0.0, 2.0],
            r_squared: 1.0,
        };
        assert!((m.max_speedup(100.0, 8.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "need more points")]
    fn underdetermined_fit_panics() {
        fit_cubic(&[1.0, 2.0], &[1.0, 2.0]);
    }
}
