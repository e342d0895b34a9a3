//! 2D-distributed layer normalisation (paper Section 3.2.2) — the
//! standalone form of [`serial::ln_forward`] under [`Summa2d`], used by the
//! final layer norm.
//!
//! The hidden dimension spans a mesh row, so `Σx` and `Σx²` are summed
//! locally and **all-reduced along the row**; `x̂` and `1/√(Var+ε)` are saved
//! for backward. In backward, `Σ x̂·g` and `Σ g` get the same treatment. The
//! affine parameters γ, β are hosted by mesh row 0 (like biases, Fig. 5):
//! broadcast down columns in forward, gradients reduced back in backward.

use crate::layer2d::Summa2d;
use crate::params2d::hosted_slice;
use mesh::{Communicator, Grid2d};
use serial::{ln_backward, ln_forward, LnCache};
use tensor::Tensor;

/// Layer-norm parameters: `Some` slices (length `h/q`) on mesh row 0.
#[derive(Clone, Debug)]
pub struct LayerNorm2d {
    pub gamma: Option<Vec<f32>>,
    pub beta: Option<Vec<f32>>,
}

impl LayerNorm2d {
    /// Builds from full `[h]` parameter vectors, slicing column `j`.
    pub fn from_full<C: Communicator>(
        grid: &Grid2d<C>,
        gamma_full: &[f32],
        beta_full: &[f32],
    ) -> Self {
        LayerNorm2d {
            gamma: hosted_slice(grid, gamma_full),
            beta: hosted_slice(grid, beta_full),
        }
    }

    /// Forward over the local `[rows/q, h/q]` block.
    pub fn forward<C: Communicator>(&self, low: &Summa2d<C>, x: &Tensor) -> (Tensor, LnCache) {
        ln_forward(low, x, &self.gamma, &self.beta)
    }

    /// Backward: returns `dx` and (on mesh row 0) the parameter gradients.
    pub fn backward<C: Communicator>(
        &self,
        low: &Summa2d<C>,
        dy: &Tensor,
        cache: &LnCache,
    ) -> (Tensor, Option<Vec<f32>>, Option<Vec<f32>>) {
        ln_backward(low, dy, cache)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // explicit indices aid test diagnostics
mod tests {
    use super::*;
    use crate::OptimusConfig;
    use mesh::Mesh2d;
    use summa::{collect_blocks, distribute};
    use tensor::layernorm::{layer_norm_backward, layer_norm_forward, LN_EPS};
    use tensor::{assert_close, Rng, Tensor};

    #[test]
    fn forward_matches_serial_layernorm() {
        for q in [1usize, 2, 3] {
            let h = 4 * q;
            let mut rng = Rng::new(0);
            let x = Tensor::randn(&[2 * q, h], 1.3, &mut rng);
            let gamma: Vec<f32> = (0..h).map(|i| 1.0 + 0.05 * i as f32).collect();
            let beta: Vec<f32> = (0..h).map(|i| -0.1 + 0.02 * i as f32).collect();
            let (y_ref, _) = layer_norm_forward(&x, &gamma, &beta, LN_EPS);
            let cfg = OptimusConfig {
                hidden: h,
                ..OptimusConfig::tiny(q)
            };
            let blocks = Mesh2d::run(q, |g| {
                let ln = LayerNorm2d::from_full(g, &gamma, &beta);
                ln.forward(&Summa2d { grid: g, cfg: &cfg }, &distribute(g, &x))
                    .0
            });
            assert_close(
                collect_blocks(&blocks, q).as_slice(),
                y_ref.as_slice(),
                1e-4,
                1e-4,
            );
        }
    }

    #[test]
    fn backward_matches_serial_layernorm() {
        let q = 2;
        let h = 4 * q;
        let mut rng = Rng::new(1);
        let x = Tensor::randn(&[2 * q, h], 1.0, &mut rng);
        let dy = Tensor::randn(&[2 * q, h], 1.0, &mut rng);
        let gamma: Vec<f32> = (0..h).map(|i| 1.0 + 0.05 * i as f32).collect();
        let beta = vec![0.0f32; h];
        let (_, cache_ref) = layer_norm_forward(&x, &gamma, &beta, LN_EPS);
        let (dx_ref, dg_ref, db_ref) = layer_norm_backward(&dy, &cache_ref, &gamma);

        let cfg = OptimusConfig {
            hidden: h,
            ..OptimusConfig::tiny(q)
        };
        let outs = Mesh2d::run(q, |g| {
            let low = Summa2d { grid: g, cfg: &cfg };
            let ln = LayerNorm2d::from_full(g, &gamma, &beta);
            let (_, cache) = ln.forward(&low, &distribute(g, &x));
            ln.backward(&low, &distribute(g, &dy), &cache)
        });
        let dx: Vec<Tensor> = outs.iter().map(|(a, _, _)| a.clone()).collect();
        assert_close(
            collect_blocks(&dx, q).as_slice(),
            dx_ref.as_slice(),
            1e-4,
            1e-3,
        );
        let mut dg = Vec::new();
        let mut db = Vec::new();
        for j in 0..q {
            dg.extend(outs[j].1.as_ref().unwrap());
            db.extend(outs[j].2.as_ref().unwrap());
        }
        assert_close(&dg, &dg_ref, 1e-4, 1e-3);
        assert_close(&db, &db_ref, 1e-4, 1e-3);
        for rank in q..q * q {
            assert!(outs[rank].1.is_none());
        }
    }
}
