//! One 1D tensor-parallel transformer layer (paper Fig. 2), as a lowering
//! of the one layer body in [`serial::layer_forward`].
//!
//! Activations entering and leaving the layer are **replicated** on all `p`
//! devices; the two all-reduces (after the attention output projection and
//! after the MLP contraction) restore replication in the forward pass, and
//! two more restore it for the input gradients in the backward pass.
//!
//! The stem around the layers lowers the same way: the embedding table is
//! split along the vocabulary, a device embeds the tokens whose ids fall in
//! its slice and an all-reduce assembles the replicated activations; the
//! tied head reuses the local slice, producing vocabulary-sliced logits,
//! and the cross-entropy's per-row partials are completed by world
//! all-reduces — the decomposition the Optimus 2D cross-entropy uses along
//! mesh rows (Section 3.2.2).

use crate::params::{Layer1dParams, MegatronConfig};
use mesh::{Communicator, Group};
use serial::{layer_backward, layer_forward, local_gemm, LayerCache, Lowering, Reduce, Role, Span};
use std::borrow::Cow;
use tensor::gemm::Form;
use tensor::Tensor;

/// The Megatron-1D lowering: column-parallel *expand* projections,
/// row-parallel *contract* projections, every vector replicated.
pub struct Megatron1d<'a, C: Communicator> {
    pub ctx: &'a C,
    pub world: &'a Group,
    pub cfg: &'a MegatronConfig,
}

impl<C: Communicator> Lowering for Megatron1d<'_, C> {
    type Hosted = Vec<f32>;
    type Panels = ();

    /// A local GEMM on this device's slice. The two products that contract
    /// over the partitioned dimension — a row-parallel forward and a
    /// column-parallel input gradient — are partial sums, completed by the
    /// one world all-reduce of Fig. 2.
    fn gemm(
        &self,
        form: Form,
        role: Role,
        a: &Tensor,
        b: &Tensor,
        _: &(),
        _: Option<&mut ()>,
    ) -> Tensor {
        let mut c = local_gemm(form, a, b);
        if matches!(
            (form, role),
            (Form::NN, Role::Contract) | (Form::NT, Role::Expand)
        ) {
            self.ctx.all_reduce(self.world, c.as_mut_slice());
        }
        c
    }
    fn fetch<'v>(&self, v: &'v Vec<f32>, _len: usize) -> Cow<'v, [f32]> {
        Cow::Borrowed(v)
    }
    fn send_home(&self, g: Vec<f32>) -> Vec<f32> {
        g
    }
    fn hidden(&self) -> usize {
        self.cfg.model.hidden
    }
    fn attn_view(&self) -> serial::ModelConfig {
        self.cfg.local_view()
    }
    fn scope<R>(&self, span: Span, f: impl FnOnce() -> R) -> R {
        let name = match span {
            Span::Fwd => "fwd",
            Span::LossHead => "loss_head",
            Span::Bwd => "bwd",
            Span::LayerFwd => "fwd.layer1d",
            Span::LayerBwd => "bwd.layer1d",
            Span::LinearFwd | Span::LinearBwd => return f(),
        };
        trace::span(name, f)
    }

    /// `table: [v/p, h]` is this device's vocabulary slice. Returns the
    /// replicated `[b·s, h]` activations.
    fn embed(&self, table: &Tensor, tokens: &[usize]) -> Tensor {
        let h = table.cols();
        let v_local = table.rows();
        let vocab_offset = self.vocab_block() * v_local;
        let mut x = Tensor::zeros(&[tokens.len(), h]);
        for (r, &t) in tokens.iter().enumerate() {
            if t >= vocab_offset && t < vocab_offset + v_local {
                x.row_mut(r).copy_from_slice(table.row(t - vocab_offset));
            }
        }
        self.ctx.all_reduce(self.world, x.as_mut_slice());
        x
    }

    /// Scatter-adds `dx` rows into the local table gradient for tokens
    /// this device owns. Purely local.
    fn embed_backward(&self, d_table: &mut Tensor, dx: &Tensor, tokens: &[usize]) {
        let v_local = d_table.rows();
        let vocab_offset = self.vocab_block() * v_local;
        for (r, &t) in tokens.iter().enumerate() {
            if t >= vocab_offset && t < vocab_offset + v_local {
                let src = dx.row(r).to_vec();
                for (dst, v) in d_table.row_mut(t - vocab_offset).iter_mut().zip(src) {
                    *dst += v;
                }
            }
        }
    }

    fn vocab_block(&self) -> usize {
        self.ctx.rank()
    }

    fn complete_vocab(&self, how: Reduce, partial: &mut [f32]) {
        match how {
            Reduce::Sum => self.ctx.all_reduce(self.world, partial),
            Reduce::Max => self.ctx.all_reduce_max(self.world, partial),
        }
    }
}

/// Layer forward. `x` is the replicated `[b·s, h]` input.
pub fn layer1d_forward<C: Communicator>(
    ctx: &C,
    world: &Group,
    cfg: &MegatronConfig,
    p: &Layer1dParams,
    x: &Tensor,
) -> (Tensor, LayerCache) {
    assert_eq!(x.dims(), &[cfg.model.tokens(), cfg.model.hidden]);
    layer_forward(&Megatron1d { ctx, world, cfg }, p, x)
}

/// Layer backward. `dy` is the replicated output gradient; returns the
/// replicated input gradient and the device-local parameter gradients.
pub fn layer1d_backward<C: Communicator>(
    ctx: &C,
    world: &Group,
    cfg: &MegatronConfig,
    p: &Layer1dParams,
    cache: &LayerCache,
    dy: &Tensor,
) -> (Tensor, Layer1dParams) {
    layer_backward(&Megatron1d { ctx, world, cfg }, p, cache, dy)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::slice_layer1d;
    use mesh::Mesh;
    use serial::{LayerParams, Local, ModelConfig};
    use tensor::{assert_close, Rng};

    fn setup() -> (MegatronConfig, LayerParams, Tensor, Tensor) {
        let model = ModelConfig::tiny();
        let cfg = MegatronConfig::new(model, 2);
        let full = LayerParams::init(3, 0, model.hidden);
        let mut rng = Rng::new(4);
        let x = Tensor::randn(&[model.tokens(), model.hidden], 1.0, &mut rng);
        let dy = Tensor::randn(&[model.tokens(), model.hidden], 1.0, &mut rng);
        (cfg, full, x, dy)
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|v| v.to_bits()).collect()
    }

    /// An input gradient and all twelve parameter gradients as bit patterns.
    fn all_bits(dx: &Tensor, mut grads: Layer1dParams) -> Vec<Vec<u32>> {
        let mut out = vec![bits(dx.as_slice())];
        grads.walk_mut(&mut |g| out.push(bits(g)));
        out
    }

    #[test]
    fn forward_matches_serial_layer() {
        let (cfg, full, x, _) = setup();
        let (y_ref, _) = layer_forward(&Local(cfg.model), &full, &x);
        for p in [1, cfg.p] {
            let cfg = MegatronConfig::new(cfg.model, p);
            let outs = Mesh::run(p, |ctx| {
                let world = Group::world(p);
                let lp = slice_layer1d(&full, cfg.model.hidden, p, ctx.rank());
                layer1d_forward(ctx, &world, &cfg, &lp, &x).0
            });
            for (rank, y) in outs.iter().enumerate() {
                assert_close(y.as_slice(), y_ref.as_slice(), 1e-4, 1e-4);
                assert_eq!(y.dims(), y_ref.dims(), "rank {rank}");
            }
            if p == 1 {
                // Same body, same kernels, a trivial group: bitwise.
                assert_eq!(bits(outs[0].as_slice()), bits(y_ref.as_slice()));
            }
        }
    }

    #[test]
    fn backward_input_grad_matches_serial() {
        let (cfg, full, x, dy) = setup();
        let (_, cache_ref) = layer_forward(&Local(cfg.model), &full, &x);
        let (dx_ref, grads_ref) = layer_backward(&Local(cfg.model), &full, &cache_ref, &dy);
        let run = |p: usize| {
            let cfg = MegatronConfig::new(cfg.model, p);
            Mesh::run(p, |ctx| {
                let world = Group::world(p);
                let lp = slice_layer1d(&full, cfg.model.hidden, p, ctx.rank());
                let (_, cache) = layer1d_forward(ctx, &world, &cfg, &lp, &x);
                layer1d_backward(ctx, &world, &cfg, &lp, &cache, &dy)
            })
        };
        let outs = run(cfg.p);
        for (dx, grads) in &outs {
            assert_close(dx.as_slice(), dx_ref.as_slice(), 1e-4, 1e-3);
            // Replicated parameter grads match serial exactly.
            assert_close(&grads.b_out, &grads_ref.b_out, 1e-4, 1e-3);
            assert_close(&grads.ln1_g, &grads_ref.ln1_g, 1e-4, 1e-3);
        }
        // Row-sliced fc2 grads tile the serial gradient.
        let h = cfg.model.hidden;
        let mut re = Tensor::zeros(&[4 * h, h]);
        for (j, (_, grads)) in outs.iter().enumerate() {
            re.set_block(j * 2 * h, 0, &grads.w_fc2);
        }
        assert_close(re.as_slice(), grads_ref.w_fc2.as_slice(), 1e-4, 1e-3);
        // The degenerate lowering is the serial layer: input gradient and
        // all twelve parameter gradients agree bitwise at p = 1.
        let (dx, grads) = run(1).pop().unwrap();
        assert_eq!(all_bits(&dx, grads), all_bits(&dx_ref, grads_ref));
    }

    #[test]
    fn embed_matches_serial_lookup_and_scatters_only_owned_tokens() {
        let (cfg, ..) = setup();
        let model = cfg.model;
        let full = tensor::init::init_matrix(
            0,
            tensor::init::param_ids::EMBEDDING,
            &[model.vocab, model.hidden],
            0.5,
        );
        let mut rng = Rng::new(1);
        let tokens: Vec<usize> = (0..model.tokens())
            .map(|_| rng.below(model.vocab))
            .collect();
        let vp = model.vocab / cfg.p;
        let outs = Mesh::run(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let (ctx, world, cfg) = (ctx, &world, &cfg);
            let low = Megatron1d { ctx, world, cfg };
            let x = low.embed(&full.block(ctx.rank() * vp, 0, vp, model.hidden), &tokens);
            // All-zero tokens are owned by device 0 alone.
            let mut d = Tensor::zeros(&[vp, model.hidden]);
            let ones = Tensor::full(&[model.tokens(), model.hidden], 1.0);
            low.embed_backward(&mut d, &ones, &vec![0; model.tokens()]);
            (x, d)
        });
        let expect = Local(model).embed(&full, &tokens);
        for (x, _) in &outs {
            assert_close(x.as_slice(), expect.as_slice(), 1e-5, 1e-5);
        }
        assert_eq!(outs[0].1.at(0, 0), model.tokens() as f32);
        assert_eq!(outs[1].1.sum(), 0.0);
    }

    #[test]
    fn vocab_parallel_cross_entropy_matches_serial() {
        let (cfg, ..) = setup();
        let (rows, vocab) = (cfg.model.tokens(), cfg.model.vocab);
        let mut rng = Rng::new(2);
        let logits = Tensor::randn(&[rows, vocab], 1.5, &mut rng);
        let labels: Vec<usize> = (0..rows).map(|_| rng.below(vocab)).collect();
        let (loss_ref, grad_ref) = tensor::loss::cross_entropy(&logits, &labels);
        let vp = vocab / cfg.p;
        let outs = Mesh::run(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let (ctx, world, cfg) = (ctx, &world, &cfg);
            let local = logits.block(0, ctx.rank() * vp, rows, vp);
            serial::stem::cross_entropy(&Megatron1d { ctx, world, cfg }, &local, &labels, rows)
        });
        let mut grad = Tensor::zeros(&[rows, vocab]);
        for (j, (loss, g)) in outs.iter().enumerate() {
            assert!((loss - loss_ref).abs() < 1e-5);
            grad.set_block(0, j * vp, g);
        }
        assert_close(grad.as_slice(), grad_ref.as_slice(), 1e-5, 1e-5);
    }

    #[test]
    fn forward_comm_volume_matches_table1() {
        // Table 1 row 1: forward communication = 2 all-reduces of bsh.
        let (cfg, full, x, _) = setup();
        let (_, logs) = Mesh::run_with_logs(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let p = slice_layer1d(&full, cfg.model.hidden, cfg.p, ctx.rank());
            layer1d_forward(ctx, &world, &cfg, &p, &x);
        });
        let bsh = cfg.model.tokens() * cfg.model.hidden;
        for log in &logs {
            assert_eq!(log.op_count(mesh::CommOp::AllReduce), 2);
            assert_eq!(log.op_elems(mesh::CommOp::AllReduce), 2 * bsh);
        }
    }

    #[test]
    fn activations_stay_replicated() {
        let (cfg, full, x, _) = setup();
        let outs = Mesh::run(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let p = slice_layer1d(&full, cfg.model.hidden, cfg.p, ctx.rank());
            layer1d_forward(ctx, &world, &cfg, &p, &x).0
        });
        // Ring all-reduce is deterministic, so replicas are bit-identical.
        for y in &outs[1..] {
            assert_eq!(y.as_slice(), outs[0].as_slice());
        }
    }
}
