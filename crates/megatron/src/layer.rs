//! One 1D tensor-parallel transformer layer (paper Fig. 2).
//!
//! Activations entering and leaving the layer are **replicated** on all `p`
//! devices; the two all-reduces (after the attention output projection and
//! after the MLP contraction) restore replication in the forward pass, and
//! two more restore it for the input gradients in the backward pass.

use crate::params::{Layer1dParams, MegatronConfig};
use mesh::{Communicator, Group};
use serial::{attention_backward, attention_forward, AttnCache, Linear};
use tensor::layernorm::{layer_norm_backward, layer_norm_forward, LnCache, LN_EPS};
use tensor::ops::{bias_add, bias_grad, gelu_backward_in_place, gelu_forward};
use tensor::{matmul_nt, matmul_tn, Tensor};

/// Forward state saved for backward (local where the scheme is local).
pub struct Layer1dCache {
    pub ln1: LnCache,
    pub ln1_out: Tensor,
    pub q: Tensor,
    pub k: Tensor,
    pub v: Tensor,
    pub attn: AttnCache,
    pub ctxt: Tensor,
    pub x1: Tensor,
    pub ln2: LnCache,
    pub ln2_out: Tensor,
    pub f1: Tensor,
    pub g: Tensor,
}

/// Device-local parameter gradients, mirroring [`Layer1dParams`].
#[derive(Clone, Debug)]
pub struct Layer1dGrads {
    pub ln1_g: Vec<f32>,
    pub ln1_b: Vec<f32>,
    pub w_qkv: Tensor,
    pub b_qkv: Vec<f32>,
    pub w_out: Tensor,
    pub b_out: Vec<f32>,
    pub ln2_g: Vec<f32>,
    pub ln2_b: Vec<f32>,
    pub w_fc1: Tensor,
    pub b_fc1: Vec<f32>,
    pub w_fc2: Tensor,
    pub b_fc2: Vec<f32>,
}

/// Layer forward. `x` is the replicated `[b·s, h]` input.
pub fn layer1d_forward<C: Communicator>(
    ctx: &C,
    world: &Group,
    cfg: &MegatronConfig,
    p: &Layer1dParams,
    x: &Tensor,
) -> (Tensor, Layer1dCache) {
    let _span = trace::span_guard("fwd.layer1d");
    let local = cfg.local_view();
    let w = cfg.local_hidden();
    let rows = cfg.model.tokens();
    assert_eq!(x.dims(), &[rows, cfg.model.hidden]);

    // Self-attention half.
    let (ln1_out, ln1) = layer_norm_forward(x, &p.ln1_g, &p.ln1_b, LN_EPS);
    let qkv_lin = Linear::new(p.w_qkv.clone(), p.b_qkv.clone());
    let qkv = qkv_lin.forward(&ln1_out);
    let q = qkv.block(0, 0, rows, w);
    let k = qkv.block(0, w, rows, w);
    let v = qkv.block(0, 2 * w, rows, w);
    let (ctxt, attn) = attention_forward(&local, &q, &k, &v);
    // Row-parallel output projection: partial product + all-reduce + bias.
    let mut attn_out = tensor::matmul_nn(&ctxt, &p.w_out);
    ctx.all_reduce(world, attn_out.as_mut_slice());
    bias_add(&mut attn_out, &p.b_out);
    let mut x1 = x.clone();
    x1.add_assign(&attn_out);

    // MLP half.
    let (ln2_out, ln2) = layer_norm_forward(&x1, &p.ln2_g, &p.ln2_b, LN_EPS);
    let fc1 = Linear::new(p.w_fc1.clone(), p.b_fc1.clone());
    let f1 = fc1.forward(&ln2_out);
    let g = gelu_forward(&f1);
    let mut f2 = tensor::matmul_nn(&g, &p.w_fc2);
    ctx.all_reduce(world, f2.as_mut_slice());
    bias_add(&mut f2, &p.b_fc2);
    let mut y = x1.clone();
    y.add_assign(&f2);

    (
        y,
        Layer1dCache {
            ln1,
            ln1_out,
            q,
            k,
            v,
            attn,
            ctxt,
            x1,
            ln2,
            ln2_out,
            f1,
            g,
        },
    )
}

/// Layer backward. `dy` is the replicated output gradient; returns the
/// replicated input gradient and the device-local parameter gradients.
pub fn layer1d_backward<C: Communicator>(
    ctx: &C,
    world: &Group,
    cfg: &MegatronConfig,
    p: &Layer1dParams,
    cache: &Layer1dCache,
    dy: &Tensor,
) -> (Tensor, Layer1dGrads) {
    let _span = trace::span_guard("bwd.layer1d");
    let local = cfg.local_view();
    let w = cfg.local_hidden();
    let rows = cfg.model.tokens();

    // MLP half.
    let db_fc2 = bias_grad(dy); // replicated, equals the serial gradient
    let mut df1 = matmul_nt(dy, &p.w_fc2);
    let dw_fc2 = matmul_tn(&cache.g, dy);
    gelu_backward_in_place(&mut df1, &cache.f1);
    let db_fc1 = bias_grad(&df1);
    let dw_fc1 = matmul_tn(&cache.ln2_out, &df1);
    let mut dln2_out = matmul_nt(&df1, &p.w_fc1);
    ctx.all_reduce(world, dln2_out.as_mut_slice());
    let (dx1_ln, dln2_g, dln2_b) = layer_norm_backward(&dln2_out, &cache.ln2, &p.ln2_g);
    let mut dx1 = dy.clone();
    dx1.add_assign(&dx1_ln);

    // Attention half.
    let db_out = bias_grad(&dx1);
    let dctxt = matmul_nt(&dx1, &p.w_out);
    let dw_out = matmul_tn(&cache.ctxt, &dx1);
    let (dq, dk, dv) =
        attention_backward(&local, &dctxt, &cache.q, &cache.k, &cache.v, &cache.attn);
    let mut dqkv = Tensor::zeros(&[rows, 3 * w]);
    dqkv.set_block(0, 0, &dq);
    dqkv.set_block(0, w, &dk);
    dqkv.set_block(0, 2 * w, &dv);
    let db_qkv = bias_grad(&dqkv);
    let dw_qkv = matmul_tn(&cache.ln1_out, &dqkv);
    let mut dln1_out = matmul_nt(&dqkv, &p.w_qkv);
    ctx.all_reduce(world, dln1_out.as_mut_slice());
    let (dx_ln, dln1_g, dln1_b) = layer_norm_backward(&dln1_out, &cache.ln1, &p.ln1_g);
    let mut dx = dx1;
    dx.add_assign(&dx_ln);

    (
        dx,
        Layer1dGrads {
            ln1_g: dln1_g,
            ln1_b: dln1_b,
            w_qkv: dw_qkv,
            b_qkv: db_qkv,
            w_out: dw_out,
            b_out: db_out,
            ln2_g: dln2_g,
            ln2_b: dln2_b,
            w_fc1: dw_fc1,
            b_fc1: db_fc1,
            w_fc2: dw_fc2,
            b_fc2: db_fc2,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Mesh;
    use serial::{layer_backward, layer_forward, LayerParams, ModelConfig};
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

    #[test]
    fn forward_matches_serial_layer() {
        let (cfg, full, x, _) = setup();
        let (y_ref, _) = layer_forward(&cfg.model, &full, &x);
        let outs = Mesh::run(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let p = Layer1dParams::from_full(&full, cfg.model.hidden, cfg.p, ctx.rank());
            layer1d_forward(ctx, &world, &cfg, &p, &x).0
        });
        for (rank, y) in outs.iter().enumerate() {
            assert_close(y.as_slice(), y_ref.as_slice(), 1e-4, 1e-4);
            assert_eq!(y.dims(), y_ref.dims(), "rank {rank}");
        }
    }

    #[test]
    fn backward_input_grad_matches_serial() {
        let (cfg, full, x, dy) = setup();
        let (_, cache_ref) = layer_forward(&cfg.model, &full, &x);
        let (dx_ref, grads_ref) = layer_backward(&cfg.model, &full, &cache_ref, &dy);
        let outs = Mesh::run(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let p = Layer1dParams::from_full(&full, cfg.model.hidden, cfg.p, ctx.rank());
            let (_, cache) = layer1d_forward(ctx, &world, &cfg, &p, &x);
            layer1d_backward(ctx, &world, &cfg, &p, &cache, &dy)
        });
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
    }

    #[test]
    fn forward_comm_volume_matches_table1() {
        // Table 1 row 1: forward communication = 2 all-reduces of bsh.
        let (cfg, full, x, _) = setup();
        let (_, logs) = Mesh::run_with_logs(cfg.p, |ctx| {
            let world = Group::world(cfg.p);
            let p = Layer1dParams::from_full(&full, cfg.model.hidden, cfg.p, ctx.rank());
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
            let p = Layer1dParams::from_full(&full, cfg.model.hidden, cfg.p, ctx.rank());
            layer1d_forward(ctx, &world, &cfg, &p, &x).0
        });
        // Ring all-reduce is deterministic, so replicas are bit-identical.
        for y in &outs[1..] {
            assert_eq!(y.as_slice(), outs[0].as_slice());
        }
    }
}
