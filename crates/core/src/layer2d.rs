//! One 2D-parallel transformer layer (paper Fig. 4), as a lowering of the
//! one layer body in [`serial::layer_forward`].
//!
//! Every activation between operations is a `[b/q·s, h/q]` block — nothing
//! is ever replicated. The four matmuls are SUMMA products; attention is
//! fully local because the partition is along batch and hidden (each device
//! owns `b/q` whole sequences and `n/q` whole heads, Section 3.2.1).
//!
//! The stem around the layers lowers the same way (Sections 3.2.1–3.2.2).
//! The embedding table `[v, h]` is `q × q`-blocked like every other
//! parameter; the lookup is SUMMA `C = A·B` where `A` is the one-hot token
//! matrix — never materialised: mesh row `i` holds the token ids of batch
//! block `i` (replicated along the row), so the `A` panels need no
//! communication and each iteration only broadcasts a table panel down the
//! column. The tied LM head is exactly Algorithm 2 (`logits = H·Eᵀ`), and
//! the cross-entropy completes `max` / `Σexp` / label-logit partials along
//! mesh rows (the vocabulary spans a row).

use crate::config::OptimusConfig;
use crate::params2d::Layer2dParams;
use mesh::{Communicator, Grid2d};
use serial::{layer_backward, layer_forward, LayerCache, Lowering, Reduce, Role, Span};
use std::borrow::Cow;
use summa::{summa_nn, summa_nt, summa_tn};
use tensor::gemm::Form;
use tensor::Tensor;

/// The Optimus-2D lowering: SUMMA products (Algorithms 1–3), vectors hosted
/// on mesh row 0 (Fig. 5), layer-norm statistics summed along mesh rows
/// (Section 3.2.2).
pub struct Summa2d<'a, C: Communicator> {
    pub grid: &'a Grid2d<'a, C>,
    pub cfg: &'a OptimusConfig,
}

impl<C: Communicator> Lowering for Summa2d<'_, C> {
    type Hosted = Option<Vec<f32>>;

    fn gemm(&self, form: Form, _role: Role, a: &Tensor, b: &Tensor) -> Tensor {
        match form {
            Form::NN => summa_nn(self.grid, a, b),
            Form::NT => summa_nt(self.grid, a, b),
            Form::TN => summa_tn(self.grid, a, b),
        }
    }

    /// Column broadcast from the hosting device in mesh row 0.
    fn fetch<'v>(&self, v: &'v Option<Vec<f32>>, len: usize) -> Cow<'v, [f32]> {
        debug_assert_eq!(v.is_some(), self.grid.row() == 0);
        // Non-root buffers are pre-sized so the trace backend knows the
        // payload length.
        let mut buf = v.clone().unwrap_or_else(|| vec![0.0; len]);
        self.grid
            .ctx()
            .broadcast(self.grid.col_group(), 0, &mut buf);
        Cow::Owned(buf)
    }

    /// Column reduce to mesh row 0, so each vector is updated on exactly
    /// one device.
    fn send_home(&self, mut g: Vec<f32>) -> Option<Vec<f32>> {
        self.grid.ctx().reduce(self.grid.col_group(), 0, &mut g);
        (self.grid.row() == 0).then_some(g)
    }

    fn complete_rows(&self, partial: &mut [f32]) {
        self.grid.ctx().all_reduce(self.grid.row_group(), partial);
    }
    fn hidden(&self) -> usize {
        self.cfg.hidden
    }
    fn attn_view(&self) -> serial::ModelConfig {
        self.cfg.local_view()
    }
    fn cache_probs(&self) -> bool {
        !self.cfg.fused_attention
    }
    fn scope<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        let name = match span {
            Span::Fwd => "fwd",
            Span::LossHead => "loss_head",
            Span::Bwd => "bwd",
            Span::LayerFwd => "fwd.layer2d",
            Span::LayerBwd => "bwd.layer2d",
            Span::LinearFwd => "fwd.linear2d",
            Span::LinearBwd => "bwd.linear2d",
        };
        trace::span(name, f)
    }

    /// SUMMA `C = A·B` with implicit one-hot `A`. `table: [v/q, h/q]` is
    /// this device's block (vocab rows block = mesh row, hidden columns
    /// block = mesh column); `tokens` are the `b/q · s` ids of this mesh
    /// row's batch block. Returns the local `[b/q·s, h/q]` activation block.
    fn embed(&self, table: &Tensor, tokens: &[usize]) -> Tensor {
        let (q, vb) = (self.grid.q(), table.rows());
        let mut x = Tensor::zeros(&[tokens.len(), table.cols()]);
        for l in 0..q {
            let panel = self.table_panel(table, l);
            let off = l * vb;
            for (r, &t) in tokens.iter().enumerate() {
                if t >= off && t < off + vb {
                    let src = panel.row(t - off).to_vec();
                    for (dst, v) in x.row_mut(r).iter_mut().zip(src) {
                        *dst += v;
                    }
                }
            }
        }
        x
    }

    /// The gradient of vocab slice `l` is scatter-accumulated locally and
    /// reduced down the column to mesh row `l` (the transpose of the
    /// forward broadcast).
    fn embed_backward(&self, d_table: &mut Tensor, dx: &Tensor, tokens: &[usize]) {
        let (q, vb) = (self.grid.q(), d_table.rows());
        for l in 0..q {
            let mut partial = Tensor::zeros(&[vb, dx.cols()]);
            let off = l * vb;
            for (r, &t) in tokens.iter().enumerate() {
                if t >= off && t < off + vb {
                    let src = dx.row(r).to_vec();
                    for (dst, v) in partial.row_mut(t - off).iter_mut().zip(src) {
                        *dst += v;
                    }
                }
            }
            self.grid
                .ctx()
                .reduce(self.grid.col_group(), l, partial.as_mut_slice());
            if self.grid.row() == l {
                d_table.add_assign(&partial);
            }
        }
    }

    fn vocab_block(&self) -> usize {
        self.grid.col()
    }

    fn complete_vocab(&self, how: Reduce, partial: &mut [f32]) {
        let (ctx, row) = (self.grid.ctx(), self.grid.row_group());
        match how {
            Reduce::Sum => ctx.all_reduce(row, partial),
            Reduce::Max => ctx.all_reduce_max(row, partial),
        }
    }

    /// Per-row losses are identical across the mesh row; this block's sum
    /// is rounded to `f32`, combined across batch blocks (the column) and
    /// divided by the global row count, so every device reports the same
    /// mean.
    fn mean_loss(&self, local_sum: f64, total_rows: usize) -> f32 {
        let mut total = vec![local_sum as f32];
        self.grid
            .ctx()
            .all_reduce(self.grid.col_group(), &mut total);
        total[0] / total_rows as f32
    }
}

impl<C: Communicator> Summa2d<'_, C> {
    /// Broadcasts the root row's table block down each column and returns it.
    fn table_panel(&self, table_block: &Tensor, root_row: usize) -> Tensor {
        let grid = self.grid;
        let dims = [table_block.rows(), table_block.cols()];
        let mut buf = if grid.row() == root_row {
            table_block.as_slice().to_vec()
        } else {
            // Pre-sized so the trace backend knows the payload length.
            vec![0.0; dims[0] * dims[1]]
        };
        grid.ctx().broadcast(grid.col_group(), root_row, &mut buf);
        Tensor::from_vec(&dims, buf)
    }
}

/// Layer forward over the local input block `x: [b/q·s, h/q]`.
pub fn layer2d_forward<C: Communicator>(
    grid: &Grid2d<C>,
    cfg: &OptimusConfig,
    p: &Layer2dParams,
    x: &Tensor,
) -> (Tensor, LayerCache) {
    assert_eq!(
        x.dims(),
        &[cfg.local_rows(), cfg.local_cols()],
        "bad local activation block"
    );
    layer_forward(&Summa2d { grid, cfg }, p, x)
}

/// Layer backward: local output-gradient block in, local input-gradient
/// block and local parameter gradients (bias/affine grads only on mesh row
/// 0) out.
pub fn layer2d_backward<C: Communicator>(
    grid: &Grid2d<C>,
    cfg: &OptimusConfig,
    p: &Layer2dParams,
    cache: &LayerCache,
    dy: &Tensor,
) -> (Tensor, Layer2dParams) {
    layer_backward(&Summa2d { grid, cfg }, p, cache, dy)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // explicit indices aid test diagnostics
mod tests {
    use super::*;
    use crate::params2d::{hosted_slice, slice_layer2d};
    use mesh::Mesh2d;
    use serial::{linear_backward, linear_forward, ln_backward, ln_forward, stem};
    use serial::{Hosted, LayerParams, LayerTensors, Local};
    use summa::{collect_blocks, distribute};
    use tensor::layernorm::{layer_norm_backward, layer_norm_forward, LN_EPS};
    use tensor::{assert_close, Rng, Tensor};

    fn setup(q: usize) -> (OptimusConfig, LayerParams, Tensor, Tensor) {
        let cfg = OptimusConfig::tiny(q);
        let full = LayerParams::init(3, 0, cfg.hidden);
        let mut rng = Rng::new(4);
        let rows = cfg.batch * cfg.seq;
        let x = Tensor::randn(&[rows, cfg.hidden], 1.0, &mut rng);
        let dy = Tensor::randn(&[rows, cfg.hidden], 1.0, &mut rng);
        (cfg, full, x, dy)
    }

    #[test]
    fn forward_matches_serial_layer() {
        for q in [1usize, 2, 3] {
            let (cfg, full, x, _) = setup(q);
            let (y_ref, _) = layer_forward(&Local(cfg.model()), &full, &x);
            let blocks = Mesh2d::run(q, |g| {
                let p = slice_layer2d(g, &full);
                layer2d_forward(g, &cfg, &p, &distribute(g, &x)).0
            });
            assert_close(
                collect_blocks(&blocks, q).as_slice(),
                y_ref.as_slice(),
                2e-4,
                1e-3,
            );
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// An output, an input gradient and all twelve parameter gradients as
    /// bit patterns.
    fn all_bits<B: Hosted>(y: &Tensor, dx: &Tensor, mut grads: LayerTensors<B>) -> Vec<Vec<u32>> {
        let mut out = vec![bits(y.as_slice()), bits(dx.as_slice())];
        grads.walk_mut(&mut |g| out.push(bits(g)));
        out
    }

    #[test]
    fn backward_matches_serial_layer() {
        for (q, fused) in [(1, false), (1, true), (2, false), (2, true)] {
            let (mut cfg, full, x, dy) = setup(q);
            cfg.fused_attention = fused;
            let low = Local(cfg.model());
            let (y_ref, cache_ref) = layer_forward(&low, &full, &x);
            let (dx_ref, grads_ref) = layer_backward(&low, &full, &cache_ref, &dy);

            let outs = Mesh2d::run(q, |g| {
                let p = slice_layer2d(g, &full);
                let (y, cache) = layer2d_forward(g, &cfg, &p, &distribute(g, &x));
                assert_eq!(cache.attn.is_none(), fused);
                let (dx, grads) = layer2d_backward(g, &cfg, &p, &cache, &distribute(g, &dy));
                (y, dx, grads)
            });
            if q == 1 {
                // Same body, same kernels, trivial groups: the lowering must
                // not change a bit of the output, the input gradient or any
                // of the twelve parameter gradients.
                let (y, dx, grads) = outs.into_iter().next().unwrap();
                assert_eq!(
                    all_bits(&y, &dx, grads),
                    all_bits(&y_ref, &dx_ref, grads_ref),
                    "fused_attention = {fused}"
                );
                continue;
            }
            let dx: Vec<Tensor> = outs.iter().map(|o| o.1.clone()).collect();
            assert_close(
                collect_blocks(&dx, q).as_slice(),
                dx_ref.as_slice(),
                2e-4,
                1e-3,
            );
            // Reassemble dW_out (plain SUMMA blocks) and compare.
            let dw_out: Vec<Tensor> = outs.iter().map(|o| o.2.w_out.clone()).collect();
            assert_close(
                collect_blocks(&dw_out, q).as_slice(),
                grads_ref.w_out.as_slice(),
                2e-4,
                1e-3,
            );
            // dW_fc1 as well.
            let dw_fc1: Vec<Tensor> = outs.iter().map(|o| o.2.w_fc1.clone()).collect();
            assert_close(
                collect_blocks(&dw_fc1, q).as_slice(),
                grads_ref.w_fc1.as_slice(),
                2e-4,
                1e-3,
            );
            // Bias grads concatenated across row 0 equal the serial gradient.
            let mut db_fc1 = Vec::new();
            for j in 0..q {
                db_fc1.extend(outs[j].2.b_fc1.as_ref().unwrap());
            }
            assert_close(&db_fc1, &grads_ref.b_fc1, 2e-4, 1e-3);
        }
    }

    #[test]
    fn linear_and_layer_norm_match_the_tensor_kernels() {
        // The classification head and the final layer norm use these two
        // outside a layer: forward and backward against the plain kernels,
        // with every row-0-hosted vector gradient concatenated by column.
        for q in [1usize, 2, 3] {
            let (cfg, full, x, dy) = setup(q);
            let w = &full.w_out;
            let b: Vec<f32> = (0..cfg.hidden).map(|i| 0.1 * i as f32).collect();
            let gamma: Vec<f32> = b.iter().map(|v| 1.0 + v).collect();
            let beta: Vec<f32> = b.iter().map(|v| v - 0.3).collect();

            let mut y_ref = tensor::matmul_nn(&x, w);
            tensor::ops::bias_add(&mut y_ref, &b);
            let db_ref: Vec<f32> = (0..dy.cols())
                .map(|c| (0..dy.rows()).map(|r| dy.at(r, c)).sum())
                .collect();
            let (ln_ref, cache_ref) = layer_norm_forward(&x, &gamma, &beta, LN_EPS);
            let (dxln_ref, dg_ref, dbeta_ref) = layer_norm_backward(&dy, &cache_ref, &gamma);
            let blocks_ref = [
                y_ref,
                tensor::matmul_nt(&dy, w),
                tensor::matmul_tn(&x, &dy),
                ln_ref,
                dxln_ref,
            ];

            let outs = Mesh2d::run(q, |g| {
                let low = Summa2d { grid: g, cfg: &cfg };
                let (xl, wl, dyl) = (distribute(g, &x), distribute(g, w), distribute(g, &dy));
                let y = linear_forward(&low, Role::Expand, &xl, &wl, &hosted_slice(g, &b));
                let (dx, dw, db) = linear_backward(&low, Role::Expand, &xl, &wl, &dyl);
                let (yln, cache) =
                    ln_forward(&low, &xl, &hosted_slice(g, &gamma), &hosted_slice(g, &beta));
                let (dxln, dg, dbeta) = ln_backward(&low, &dyl, &cache);
                ([y, dx, dw, yln, dxln], [db, dg, dbeta])
            });
            for (i, want) in blocks_ref.iter().enumerate() {
                let got: Vec<Tensor> = outs.iter().map(|o| o.0[i].clone()).collect();
                let got = collect_blocks(&got, q);
                assert_close(got.as_slice(), want.as_slice(), 1e-4, 1e-3);
            }
            for (i, want) in [db_ref, dg_ref, dbeta_ref].iter().enumerate() {
                let got: Vec<f32> = outs[..q]
                    .iter()
                    .flat_map(|o| o.1[i].clone().unwrap())
                    .collect();
                assert_close(&got, want, 1e-4, 1e-3);
                assert!(
                    outs[q..].iter().all(|o| o.1[i].is_none()),
                    "hosted off row 0"
                );
            }
        }
    }

    /// `rows` per-row values split evenly over the mesh rows: this row's.
    fn row_share<'a, C: Communicator>(g: &Grid2d<C>, ids: &'a [usize]) -> &'a [usize] {
        let per = ids.len() / g.q();
        &ids[g.row() * per..(g.row() + 1) * per]
    }

    #[test]
    fn embed_matches_serial_lookup_and_scatter() {
        for q in [1usize, 2, 3] {
            let (v, h, b, s) = (6 * q, 4 * q, q, 3);
            let cfg = OptimusConfig::tiny(q);
            let mut rng = Rng::new(1);
            let full = Tensor::randn(&[v, h], 0.5, &mut rng);
            let tokens: Vec<usize> = (0..b * s).map(|_| rng.below(v)).collect();
            let dx = Tensor::randn(&[b * s, h], 1.0, &mut rng);
            let low = Local(cfg.model());
            let mut d_ref = Tensor::zeros(&[v, h]);
            low.embed_backward(&mut d_ref, &dx, &tokens);

            let blocks = Mesh2d::run(q, |g| {
                let low = Summa2d { grid: g, cfg: &cfg };
                let local = row_share(g, &tokens);
                let mut dt = Tensor::zeros(&[v / q, h / q]);
                low.embed_backward(&mut dt, &distribute(g, &dx), local);
                (low.embed(&distribute(g, &full), local), dt)
            });
            let (x, dt): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
            let expect = low.embed(&full, &tokens);
            assert_close(
                collect_blocks(&x, q).as_slice(),
                expect.as_slice(),
                1e-5,
                1e-5,
            );
            assert_close(
                collect_blocks(&dt, q).as_slice(),
                d_ref.as_slice(),
                1e-5,
                1e-5,
            );
        }
    }

    #[test]
    fn head_and_cross_entropy_match_serial() {
        let q = 2;
        let (v, h, rows) = (8, 4, 6);
        let cfg = OptimusConfig::tiny(q);
        let mut rng = Rng::new(3);
        let table = Tensor::randn(&[v, h], 0.5, &mut rng);
        let hidden = Tensor::randn(&[rows, h], 1.0, &mut rng);
        let labels: Vec<usize> = (0..rows).map(|_| rng.below(v)).collect();
        let logits_ref = tensor::matmul_nt(&hidden, &table);
        let (loss_ref, grad_ref) = tensor::loss::cross_entropy(&logits_ref, &labels);
        let outs = Mesh2d::run(q, |g| {
            let low = Summa2d { grid: g, cfg: &cfg };
            let logits = stem::logits(&low, &distribute(g, &hidden), &distribute(g, &table));
            let (loss, grad) = stem::cross_entropy(&low, &logits, row_share(g, &labels), rows);
            (logits, loss, grad)
        });
        for (_, loss, _) in &outs {
            assert!((loss - loss_ref).abs() < 1e-5, "{loss} vs {loss_ref}");
        }
        let logits: Vec<Tensor> = outs.iter().map(|o| o.0.clone()).collect();
        let grads: Vec<Tensor> = outs.iter().map(|o| o.2.clone()).collect();
        assert_close(
            collect_blocks(&logits, q).as_slice(),
            logits_ref.as_slice(),
            1e-4,
            1e-4,
        );
        assert_close(
            collect_blocks(&grads, q).as_slice(),
            grad_ref.as_slice(),
            1e-5,
            1e-5,
        );
    }

    #[test]
    fn activations_are_fully_distributed() {
        // The local cache pins ~1/p of the serial activation volume: this is
        // the paper's core memory claim (Section 3.1.1).
        let q = 2;
        let (cfg, full, x, _) = setup(q);
        let sizes = Mesh2d::run(q, |g| {
            let p = slice_layer2d(g, &full);
            let (_, cache) = layer2d_forward(g, &cfg, &p, &distribute(g, &x));
            cache.bytes()
        });
        let rows = cfg.batch * cfg.seq;
        let serial_equiv = {
            // Same inventory, undistributed.
            let t = rows * cfg.hidden * 4;
            // xhat*2, ln_out*2, q,k,v, ctxt, x1, g = 10 tensors of [rows, h],
            // f1 + g are [rows, 4h] -> adjust: f1 (4h), g (4h).
            10 * t - 2 * t + 2 * 4 * t
                + 2 * rows * 4 // inv_std x2
                + cfg.batch * cfg.heads * cfg.seq * cfg.seq * 4 // probs
        };
        for s in &sizes {
            // Each device holds (1/p) of tensors and (1/p) of probs
            // (b/q sequences x n/q heads = bn/p score matrices).
            let ratio = serial_equiv as f64 / *s as f64;
            assert!(
                (3.0..=4.5).contains(&ratio),
                "expected ~p x reduction, got {ratio} (local {s} vs serial {serial_equiv})"
            );
        }
    }
}
