//! SUMMA linear layer with row-0 bias hosting (paper Fig. 5) — the
//! standalone form of [`serial::linear_forward`] under [`Summa2d`], used by
//! the classification head.

use crate::layer2d::Summa2d;
use crate::params2d::hosted_slice;
use mesh::{Communicator, Grid2d};
use serial::{linear_backward, linear_forward, Role};
use tensor::Tensor;

/// A dense layer distributed as `q × q` SUMMA blocks.
///
/// Device `(i, j)` holds weight block `[in/q, out/q]`. The bias slice for
/// output columns `j` is **hosted by the device in mesh row 0** and
/// broadcast down the column in forward; its gradient is reduced back to
/// row 0 in backward, so each bias parameter is updated on exactly one
/// device (Section 3.2.2, Fig. 5).
#[derive(Clone, Debug)]
pub struct Linear2d {
    /// Local weight block `[in/q, out/q]`.
    pub w: Tensor,
    /// `Some(slice)` on mesh row 0, `None` elsewhere.
    pub bias: Option<Vec<f32>>,
}

impl Linear2d {
    /// Builds the local block of a full `[in, out]` weight and `[out]` bias.
    pub fn from_full<C: Communicator>(grid: &Grid2d<C>, w_full: &Tensor, b_full: &[f32]) -> Self {
        assert_eq!(w_full.cols(), b_full.len());
        Linear2d {
            w: w_full.summa_block(grid.row(), grid.col(), grid.q()),
            bias: hosted_slice(grid, b_full),
        }
    }

    /// `y = x W + b` over the mesh: SUMMA `C = AB` plus the column bias
    /// broadcast. `x: [rows/q, in/q]` local block.
    pub fn forward<C: Communicator>(&self, low: &Summa2d<C>, x: &Tensor) -> Tensor {
        linear_forward(low, Role::Expand, x, &self.w, &self.bias)
    }

    /// Backward (paper Eq. 1 + Fig. 5b): returns
    /// `dx = dy Wᵀ` (Algorithm 2), `dw = xᵀ dy` (Algorithm 3), and the bias
    /// gradient — `Some` only on mesh row 0, where the bias lives.
    pub fn backward<C: Communicator>(
        &self,
        low: &Summa2d<C>,
        x: &Tensor,
        dy: &Tensor,
    ) -> (Tensor, Tensor, Option<Vec<f32>>) {
        linear_backward(low, Role::Expand, x, &self.w, dy)
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // explicit indices aid test diagnostics
mod tests {
    use super::*;
    use crate::OptimusConfig;
    use mesh::Mesh2d;
    use serial::Linear;
    use summa::{collect_blocks, distribute};
    use tensor::{assert_close, Rng, Tensor};

    fn setup(q: usize) -> (Tensor, Vec<f32>, Tensor, Tensor) {
        let mut rng = Rng::new(1);
        let w = Tensor::randn(&[4 * q, 2 * q], 0.5, &mut rng);
        let b: Vec<f32> = (0..2 * q).map(|i| 0.1 * i as f32).collect();
        let x = Tensor::randn(&[3 * q, 4 * q], 1.0, &mut rng);
        let dy = Tensor::randn(&[3 * q, 2 * q], 1.0, &mut rng);
        (w, b, x, dy)
    }

    #[test]
    fn forward_matches_serial_linear() {
        for q in [1usize, 2, 3] {
            let (w, b, x, _) = setup(q);
            let expect = Linear::new(w.clone(), b.clone()).forward(&x);
            let blocks = Mesh2d::run(q, |g| {
                let cfg = OptimusConfig::tiny(q);
                let lin = Linear2d::from_full(g, &w, &b);
                lin.forward(&Summa2d { grid: g, cfg: &cfg }, &distribute(g, &x))
            });
            assert_close(
                collect_blocks(&blocks, q).as_slice(),
                expect.as_slice(),
                1e-4,
                1e-4,
            );
        }
    }

    #[test]
    fn backward_matches_serial_linear() {
        let q = 2;
        let (w, b, x, dy) = setup(q);
        let serial_lin = Linear::new(w.clone(), b.clone());
        let (dx_ref, dw_ref, db_ref) = serial_lin.backward(&x, &dy);
        let outs = Mesh2d::run(q, |g| {
            let cfg = OptimusConfig::tiny(q);
            let lin = Linear2d::from_full(g, &w, &b);
            lin.backward(
                &Summa2d { grid: g, cfg: &cfg },
                &distribute(g, &x),
                &distribute(g, &dy),
            )
        });
        let dx: Vec<Tensor> = outs.iter().map(|(a, _, _)| a.clone()).collect();
        let dw: Vec<Tensor> = outs.iter().map(|(_, b, _)| b.clone()).collect();
        assert_close(
            collect_blocks(&dx, q).as_slice(),
            dx_ref.as_slice(),
            1e-4,
            1e-4,
        );
        assert_close(
            collect_blocks(&dw, q).as_slice(),
            dw_ref.as_slice(),
            1e-4,
            1e-4,
        );
        // Bias grads: only row 0 devices have them; concatenated by column
        // they equal the serial bias gradient.
        let mut db = Vec::new();
        for j in 0..q {
            db.extend(outs[j].2.as_ref().expect("row 0 must own bias grads"));
        }
        assert_close(&db, &db_ref, 1e-4, 1e-4);
        for rank in q..q * q {
            assert!(outs[rank].2.is_none(), "rank {rank} must not own bias");
        }
    }
}
