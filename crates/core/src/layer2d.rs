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
use mesh::{Communicator, Grid2d};
use serial::{layer_backward, layer_forward, Cut, LayerCache, LayerTensors, Lowering, Reduce};
use serial::{Role, Slot, Span};
use summa::{summa_product, summa_receive, Strips};
use tensor::gemm::Form;
use tensor::{recycler, Tensor};

/// The Optimus-2D lowering: SUMMA products (Algorithms 1–3), vectors hosted
/// on mesh row 0 (Fig. 5), layer-norm statistics summed along mesh rows
/// (Section 3.2.2). A device's layer parameters (or their gradients) are
/// `[·/q, ·/q]` weight blocks and, on mesh row 0 only, this column's slice
/// of every bias and layer-norm vector, empty elsewhere
/// ([`Lowering::place`]).
pub struct Summa2d<'a, C: Communicator> {
    pub grid: &'a Grid2d<'a, C>,
    pub cfg: &'a OptimusConfig,
}

impl<C: Communicator> Lowering for Summa2d<'_, C> {
    type Panels = Strips;

    fn gemm(
        &self,
        form: Form,
        _role: Role,
        a: &Tensor,
        b: &Tensor,
        from: &Strips,
        keep: Option<&mut Strips>,
    ) -> Tensor {
        summa_product(self.grid, form, a, b, from, keep)
    }

    /// A receive-only SUMMA `NN`: the broadcasts of `x·W`, no product.
    fn receive(&self, x: &Tensor, w: &Tensor, keep: &mut Strips) {
        summa_receive(self.grid, x, w, keep);
    }

    /// A kept row strip holds every panel of the left operand this device's
    /// depth slice reads, and `TN` reads no other.
    fn carries_left(&self, kept: &Strips) -> bool {
        !kept.row.is_empty()
    }

    /// One column broadcast from mesh row 0, which hosts the vectors.
    fn broadcast_vectors(&self, region: &mut [f32]) {
        self.grid.ctx().broadcast(self.grid.col_group(), 0, region);
    }

    /// One column reduce to mesh row 0, so each vector is updated on exactly
    /// one device.
    fn reduce_vector_grads(&self, region: &mut [f32]) {
        self.grid.ctx().reduce(self.grid.col_group(), 0, region);
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
            Span::Update => "update",
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
                    for (dst, v) in x.row_mut(r).iter_mut().zip(panel.row(t - off)) {
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
                    for (dst, v) in partial.row_mut(t - off).iter_mut().zip(dx.row(r)) {
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

    /// Weights and the table are block `(i, j)`; a vector is column slice
    /// `j`, hosted on mesh row 0 only (Fig. 5).
    fn place(&self, slot: Slot) -> Cut {
        let (q, i, j) = (self.grid.q(), self.grid.row(), self.grid.col());
        match slot {
            Slot::Table | Slot::Weight(_) => Cut::new((i, q), (j, q), true),
            Slot::Bias(_) | Slot::Norm => Cut::new((0, 1), (j, q), i == 0),
        }
    }

    /// A vector along mesh row 0; a matrix over this device's depth slice
    /// (each slice of a `[q, q, d]` mesh holds a replica, so each slice's
    /// `(0, 0)` is a root).
    fn gather_pieces(&self, slot: Slot, piece: Option<&[f32]>) -> Option<Vec<f32>> {
        let (grid, ctx) = (self.grid, self.grid.ctx());
        let group = match slot {
            Slot::Bias(_) | Slot::Norm => grid.row_group().clone(),
            Slot::Table | Slot::Weight(_) => grid.slice_group(),
        };
        let flat = ctx.gather(&group, 0, piece?);
        (ctx.rank() == group.rank_of(0)).then_some(flat)
    }

    /// Over this device's depth slice, in `f32`: each slice of a `[q, q, d]`
    /// mesh holds every parameter once.
    fn complete_norm(&self, partial: f64) -> f64 {
        let mut total = vec![partial as f32];
        let slice = self.grid.slice_group();
        self.grid.ctx().all_reduce(&slice, &mut total);
        total[0] as f64
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
        // Pre-sized so the trace backend knows the payload length; the
        // broadcast overwrites a non-root's buffer.
        let mut buf = recycler::take(dims[0] * dims[1]);
        if grid.row() == root_row {
            buf.copy_from_slice(table_block.as_slice());
        }
        grid.ctx().broadcast(grid.col_group(), root_row, &mut buf);
        Tensor::from_vec(&dims, buf)
    }
}

/// Layer forward over the local input block `x: [b/q·s, h/q]`.
pub fn layer2d_forward<C: Communicator>(
    grid: &Grid2d<C>,
    cfg: &OptimusConfig,
    p: &LayerTensors,
    x: &Tensor,
) -> (Tensor, LayerCache<Strips>) {
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
    p: &LayerTensors,
    cache: &LayerCache<Strips>,
    dy: &Tensor,
) -> (Tensor, LayerTensors) {
    layer_backward(&Summa2d { grid, cfg }, p, cache, dy)
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // explicit indices aid test diagnostics
mod tests {
    use super::*;
    use mesh::Mesh2d;
    use serial::{linear_backward, linear_forward, ln_backward, ln_forward, stem};
    use serial::{shard_layer, shard_tensor, LayerParams, Local};
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
                let p = shard_layer(&Summa2d { grid: g, cfg: &cfg }, &full);
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
    fn all_bits(y: &Tensor, dx: &Tensor, mut grads: LayerTensors) -> Vec<Vec<u32>> {
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
                let p = shard_layer(&Summa2d { grid: g, cfg: &cfg }, &full);
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
                db_fc1.extend(&outs[j].2.b_fc1);
            }
            assert_close(&db_fc1, &grads_ref.b_fc1, 2e-4, 1e-3);
        }
    }

    #[test]
    fn linear_and_layer_norm_match_the_tensor_kernels() {
        // The classification head and the final layer norm use these two
        // outside a layer: forward and backward against the plain kernels,
        // with every vector gradient reduced to mesh row 0 and concatenated
        // by column there.
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
            tensor::recycler::give(cache_ref.inv_std);
            let blocks_ref = [
                y_ref,
                tensor::matmul_nt(&dy, w),
                tensor::matmul_tn(&x, &dy),
                ln_ref,
                dxln_ref,
            ];

            let outs = Mesh2d::run(q, |g| {
                let low = Summa2d { grid: g, cfg: &cfg };
                let host = |v: &[f32]| {
                    let full = Tensor::from_vec(&[1, v.len()], v.to_vec());
                    let piece = shard_tensor(&low, Slot::Norm, &full);
                    piece.map_or_else(Vec::new, Tensor::into_vec)
                };
                let (xl, wl, dyl) = (distribute(g, &x), distribute(g, w), distribute(g, &dy));
                let y = linear_forward(&low, Role::Expand, &xl, &wl, &host(&b), None);
                let (kept, cols) = (Strips::default(), dyl.cols());
                let [mut db, mut dg, mut dbeta] = [(); 3].map(|_| vec![0.0; cols]);
                let (dx, dw) = linear_backward(&low, Role::Expand, &xl, &wl, &dyl, &kept, &mut db);
                let (yln, cache) = ln_forward(&low, &xl, &host(&gamma), &host(&beta));
                let dxln = ln_backward(&low, &dyl, &cache, [&mut dg, &mut dbeta]);
                // The vector gradients are summed onto mesh row 0.
                let mut grads = [db, dg, dbeta];
                grads.iter_mut().for_each(|v| low.reduce_vector_grads(v));
                ([y, dx, dw, yln, dxln], grads)
            });
            for (i, want) in blocks_ref.iter().enumerate() {
                let got: Vec<Tensor> = outs.iter().map(|o| o.0[i].clone()).collect();
                let got = collect_blocks(&got, q);
                assert_close(got.as_slice(), want.as_slice(), 1e-4, 1e-3);
            }
            for (i, want) in [db_ref, dg_ref, dbeta_ref].iter().enumerate() {
                let got: Vec<f32> = outs[..q].iter().flat_map(|o| o.1[i].clone()).collect();
                assert_close(&got, want, 1e-4, 1e-3);
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
            let p = shard_layer(&Summa2d { grid: g, cfg: &cfg }, &full);
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
