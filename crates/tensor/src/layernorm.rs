//! Layer normalisation with manual backward, factored so the 2D-parallel
//! version can compute row-partial sums locally and all-reduce them.
//!
//! Section 3.2.2 of the paper: in the forward pass `Σx` and `Σx²` are summed
//! locally and all-reduced along mesh rows; `x̂` and `1/√(Var+ε)` are saved
//! for the backward pass. In backward, `Σ x̂·(∂J/∂x̂)` and `Σ (∂J/∂x̂)` are
//! treated the same way. The `*_partial` / `*_finish` split below is exactly
//! that decomposition; the serial entry points simply glue the two halves
//! with no communication in between.
//!
//! Each pair of row sums travels as one interleaved `[rows, 2]` buffer
//! (`[a₀, b₀, a₁, b₁, …]`), so the distributed case completes both with one
//! all-reduce. When the group size divides `rows`, a ring splits that
//! buffer exactly where it would split each half alone, and every sum is
//! combined in the same order as two separate all-reduces would.

use crate::recycler;
use crate::tensor::Tensor;

/// Default epsilon used by all models in the workspace.
pub const LN_EPS: f32 = 1e-5;

/// Saved forward state needed by the backward pass.
#[derive(Clone, Debug)]
pub struct LnCache {
    /// Normalised activations `x̂`, same shape as the input block.
    pub xhat: Tensor,
    /// Per-row `1/√(Var[x]+ε)`.
    pub inv_std: Vec<f32>,
}

/// Per-row partial sums `[Σ_j x_j, Σ_j x_j²]` over the *local* columns, as
/// one interleaved `[rows, 2]` buffer from the thread's recycler.
pub fn ln_partial_sums(x: &Tensor) -> Vec<f32> {
    let cols = x.cols();
    let mut sums = recycler::take(2 * x.rows());
    for (row, pair) in x.as_slice().chunks(cols).zip(sums.chunks_mut(2)) {
        let mut a = 0.0f64;
        let mut b = 0.0f64;
        for &v in row {
            a += v as f64;
            b += (v * v) as f64;
        }
        pair[0] = a as f32;
        pair[1] = b as f32;
    }
    sums
}

/// Completes the forward pass given *global* row sums `[Σx, Σx²]` (the
/// [`ln_partial_sums`] layout) over the full hidden dimension `h_total`
/// (after the all-reduce in the distributed case).
///
/// Returns `x̂` and the per-row `inv_std`; the affine transform is applied by
/// [`ln_affine`].
pub fn ln_finish(x: &Tensor, sums: &[f32], h_total: usize, eps: f32) -> LnCache {
    let rows = x.rows();
    assert_eq!(sums.len(), 2 * rows);
    let cols = x.cols();
    let mut xhat = x.clone();
    let mut inv_std = recycler::take(rows);
    let inv_h = 1.0 / h_total as f32;
    for (r, row) in xhat.as_mut_slice().chunks_mut(cols).enumerate() {
        let mean = sums[2 * r] * inv_h;
        let var = (sums[2 * r + 1] * inv_h - mean * mean).max(0.0);
        let is = 1.0 / (var + eps).sqrt();
        inv_std[r] = is;
        for v in row {
            *v = (*v - mean) * is;
        }
    }
    LnCache { xhat, inv_std }
}

/// Applies the affine transform `y = x̂ ⊙ γ + β` over the local columns.
pub fn ln_affine(xhat: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
    let cols = xhat.cols();
    assert_eq!(gamma.len(), cols);
    assert_eq!(beta.len(), cols);
    let mut y = xhat.clone();
    for row in y.as_mut_slice().chunks_mut(cols) {
        for ((v, &g), &b) in row.iter_mut().zip(gamma.iter()).zip(beta.iter()) {
            *v = *v * g + b;
        }
    }
    y
}

/// Serial layer-norm forward over the last dimension. The cache's
/// `inv_std` is the recycler's: a caller that drops the cache gives it back.
pub fn layer_norm_forward(x: &Tensor, gamma: &[f32], beta: &[f32], eps: f32) -> (Tensor, LnCache) {
    let sums = ln_partial_sums(x);
    let cache = ln_finish(x, &sums, x.cols(), eps);
    recycler::give(sums);
    let y = ln_affine(&cache.xhat, gamma, beta);
    (y, cache)
}

/// Converts the upstream gradient `dy` into `∂J/∂x̂ = dy ⊙ γ` and the local
/// parameter gradients `dγ = Σ_rows dy ⊙ x̂`, `dβ = Σ_rows dy`.
pub fn ln_param_grads(dy: &Tensor, xhat: &Tensor, gamma: &[f32]) -> (Tensor, Vec<f32>, Vec<f32>) {
    let cols = dy.cols();
    assert_eq!(dy.dims(), xhat.dims());
    assert_eq!(gamma.len(), cols);
    let mut dxhat = dy.clone();
    let mut dgamma = vec![0.0f32; cols];
    let mut dbeta = vec![0.0f32; cols];
    for (drow, xrow) in dxhat
        .as_mut_slice()
        .chunks_mut(cols)
        .zip(xhat.as_slice().chunks(cols))
    {
        for (c, (d, &xh)) in drow.iter_mut().zip(xrow.iter()).enumerate() {
            dgamma[c] += *d * xh;
            dbeta[c] += *d;
            *d *= gamma[c];
        }
    }
    (dxhat, dgamma, dbeta)
}

/// Per-row partial sums `[Σ_j x̂_j g_j, Σ_j g_j]` of the backward pass, where
/// `g = ∂J/∂x̂`, as one interleaved `[rows, 2]` buffer. All-reduced along
/// mesh rows in the distributed case. The buffer is the recycler's, like
/// [`ln_partial_sums`]'s.
pub fn ln_backward_partials(dxhat: &Tensor, xhat: &Tensor) -> Vec<f32> {
    let cols = dxhat.cols();
    let mut sums = recycler::take(2 * dxhat.rows());
    let row_pairs = dxhat
        .as_slice()
        .chunks(cols)
        .zip(xhat.as_slice().chunks(cols));
    for ((drow, xrow), pair) in row_pairs.zip(sums.chunks_mut(2)) {
        let mut gx = 0.0f64;
        let mut g = 0.0f64;
        for (&d, &xh) in drow.iter().zip(xrow.iter()) {
            gx += (d * xh) as f64;
            g += d as f64;
        }
        pair[0] = gx as f32;
        pair[1] = g as f32;
    }
    sums
}

/// Completes the input gradient given global backward sums `[Σx̂g, Σg]` (the
/// [`ln_backward_partials`] layout):
/// `dx = inv_std * [ g − (Σ x̂g / h)·x̂ − (Σ g / h) ]` (paper Section 3.2.2).
pub fn ln_backward_finish(
    dxhat: &Tensor,
    xhat: &Tensor,
    inv_std: &[f32],
    sums: &[f32],
    h_total: usize,
) -> Tensor {
    let cols = dxhat.cols();
    let rows = dxhat.rows();
    assert_eq!(inv_std.len(), rows);
    assert_eq!(sums.len(), 2 * rows);
    let inv_h = 1.0 / h_total as f32;
    let mut dx = dxhat.clone();
    let row_pairs = dx
        .as_mut_slice()
        .chunks_mut(cols)
        .zip(xhat.as_slice().chunks(cols));
    for (r, (drow, xrow)) in row_pairs.enumerate() {
        let a = sums[2 * r] * inv_h;
        let b = sums[2 * r + 1] * inv_h;
        let is = inv_std[r];
        for (d, &xh) in drow.iter_mut().zip(xrow.iter()) {
            *d = is * (*d - a * xh - b);
        }
    }
    dx
}

/// Serial layer-norm backward: returns `(dx, dgamma, dbeta)`.
pub fn layer_norm_backward(
    dy: &Tensor,
    cache: &LnCache,
    gamma: &[f32],
) -> (Tensor, Vec<f32>, Vec<f32>) {
    let (dxhat, dgamma, dbeta) = ln_param_grads(dy, &cache.xhat, gamma);
    let sums = ln_backward_partials(&dxhat, &cache.xhat);
    let dx = ln_backward_finish(&dxhat, &cache.xhat, &cache.inv_std, &sums, dy.cols());
    recycler::give(sums);
    (dx, dgamma, dbeta)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;
    use crate::{assert_close, Tensor};

    /// The forward's output; its cache's buffer goes back.
    fn forward(x: &Tensor, gamma: &[f32], beta: &[f32]) -> Tensor {
        let (y, cache) = layer_norm_forward(x, gamma, beta, LN_EPS);
        recycler::give(cache.inv_std);
        y
    }

    fn loss(y: &Tensor, w: &Tensor) -> f32 {
        y.as_slice()
            .iter()
            .zip(w.as_slice())
            .map(|(a, b)| a * b)
            .sum()
    }

    #[test]
    fn output_rows_have_zero_mean_unit_var() {
        let mut rng = Rng::new(0);
        let x = Tensor::randn(&[4, 16], 2.0, &mut rng);
        let gamma = vec![1.0; 16];
        let beta = vec![0.0; 16];
        let y = forward(&x, &gamma, &beta);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 16.0;
            let var: f32 = row.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / 16.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    #[test]
    fn affine_applies_gamma_beta() {
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[2, 8], 1.0, &mut rng);
        let gamma = vec![2.0; 8];
        let beta = vec![0.5; 8];
        let (y, cache) = layer_norm_forward(&x, &gamma, &beta, LN_EPS);
        for (yv, xh) in y.as_slice().iter().zip(cache.xhat.as_slice()) {
            assert!((yv - (2.0 * xh + 0.5)).abs() < 1e-6);
        }
        recycler::give(cache.inv_std);
    }

    #[test]
    fn backward_matches_finite_difference() {
        let mut rng = Rng::new(2);
        let x = Tensor::randn(&[3, 8], 1.5, &mut rng);
        let gamma: Vec<f32> = (0..8).map(|i| 0.5 + 0.1 * i as f32).collect();
        let beta: Vec<f32> = (0..8).map(|i| -0.2 + 0.05 * i as f32).collect();
        let w = Tensor::randn(&[3, 8], 1.0, &mut rng);
        let (_, cache) = layer_norm_forward(&x, &gamma, &beta, LN_EPS);
        let (dx, dgamma, dbeta) = layer_norm_backward(&w, &cache, &gamma);
        recycler::give(cache.inv_std);

        let eps = 1e-2f32;
        // Input gradient.
        for idx in 0..x.len() {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let (yp, ym) = (forward(&xp, &gamma, &beta), forward(&xm, &gamma, &beta));
            let fd = (loss(&yp, &w) - loss(&ym, &w)) / (2.0 * eps);
            assert!(
                (dx.as_slice()[idx] - fd).abs() < 3e-2,
                "dx[{idx}]={} fd={fd}",
                dx.as_slice()[idx]
            );
        }
        // Parameter gradients.
        for c in 0..8 {
            let mut gp = gamma.clone();
            gp[c] += eps;
            let mut gm = gamma.clone();
            gm[c] -= eps;
            let (yp, ym) = (forward(&x, &gp, &beta), forward(&x, &gm, &beta));
            let fd = (loss(&yp, &w) - loss(&ym, &w)) / (2.0 * eps);
            assert!(
                (dgamma[c] - fd).abs() < 2e-2,
                "dgamma[{c}]={} fd={fd}",
                dgamma[c]
            );

            let mut bp = beta.clone();
            bp[c] += eps;
            let mut bm = beta.clone();
            bm[c] -= eps;
            let (yp, ym) = (forward(&x, &gamma, &bp), forward(&x, &gamma, &bm));
            let fd = (loss(&yp, &w) - loss(&ym, &w)) / (2.0 * eps);
            assert!(
                (dbeta[c] - fd).abs() < 2e-2,
                "dbeta[{c}]={} fd={fd}",
                dbeta[c]
            );
        }
    }

    #[test]
    fn split_partials_match_serial_forward() {
        // Simulate the 2D decomposition: split columns into two halves,
        // compute partial sums per half, add them, and finish each half.
        let mut rng = Rng::new(3);
        let x = Tensor::randn(&[4, 12], 1.0, &mut rng);
        let gamma = vec![1.0; 12];
        let beta = vec![0.0; 12];
        let y_ref = forward(&x, &gamma, &beta);

        let left = x.block(0, 0, 4, 6);
        let right = x.block(0, 6, 4, 6);
        let sl = ln_partial_sums(&left);
        let sr = ln_partial_sums(&right);
        let s: Vec<f32> = sl.iter().zip(&sr).map(|(a, b)| a + b).collect();
        let cl = ln_finish(&left, &s, 12, LN_EPS);
        let cr = ln_finish(&right, &s, 12, LN_EPS);
        [sl, sr].into_iter().for_each(recycler::give);

        let mut reassembled = Tensor::zeros(&[4, 12]);
        reassembled.set_block(0, 0, &cl.xhat);
        reassembled.set_block(0, 6, &cr.xhat);
        assert_close(reassembled.as_slice(), y_ref.as_slice(), 1e-5, 1e-5);
        [cl.inv_std, cr.inv_std]
            .into_iter()
            .for_each(recycler::give);
    }
}
