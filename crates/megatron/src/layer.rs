//! One 1D tensor-parallel transformer layer (paper Fig. 2), as a lowering
//! of the one layer body in [`serial::layer_forward`].
//!
//! Activations entering and leaving the layer are **replicated** on all `p`
//! devices; the two all-reduces (after the attention output projection and
//! after the MLP contraction) restore replication in the forward pass, and
//! two more restore it for the input gradients in the backward pass.

use crate::params::{Layer1dParams, MegatronConfig};
use mesh::{Communicator, Group};
use serial::{layer_backward, layer_forward, local_gemm, LayerCache, Lowering, Role};
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

    /// A local GEMM on this device's slice. The two products that contract
    /// over the partitioned dimension — a row-parallel forward and a
    /// column-parallel input gradient — are partial sums, completed by the
    /// one world all-reduce of Fig. 2.
    fn gemm(&self, form: Form, role: Role, a: &Tensor, b: &Tensor) -> Tensor {
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
}

/// Layer forward. `x` is the replicated `[b·s, h]` input.
pub fn layer1d_forward<C: Communicator>(
    ctx: &C,
    world: &Group,
    cfg: &MegatronConfig,
    p: &Layer1dParams,
    x: &Tensor,
) -> (Tensor, LayerCache) {
    let _span = trace::span_guard("fwd.layer1d");
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
    let _span = trace::span_guard("bwd.layer1d");
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
