//! One 2D-parallel transformer layer (paper Fig. 4).
//!
//! Every activation between operations is a `[b/q·s, h/q]` block — nothing
//! is ever replicated. The four matmuls are SUMMA products; attention is
//! fully local because the partition is along batch and hidden (each device
//! owns `b/q` whole sequences and `n/q` whole heads, Section 3.2.1).

use crate::config::OptimusConfig;
use crate::layernorm2d::Ln2dCache;
use crate::params2d::Layer2dParams;
use mesh::{Communicator, Grid2d};
use serial::{
    attention_backward, attention_backward_recomputed, attention_ctx_only, attention_forward,
    AttnCache,
};
use tensor::ops::{gelu_backward_in_place, gelu_forward};
use tensor::Tensor;

/// Forward state saved for backward — all blocks are local `1/p` shares.
pub struct Layer2dCache {
    pub ln1: Ln2dCache,
    pub ln1_out: Tensor,
    pub q: Tensor,
    pub k: Tensor,
    pub v: Tensor,
    /// Attention probabilities — `None` under `fused_attention` (recomputed
    /// per head in backward, paper Section 6).
    pub attn: Option<AttnCache>,
    pub ctxt: Tensor,
    pub x1: Tensor,
    pub ln2: Ln2dCache,
    pub ln2_out: Tensor,
    pub f1: Tensor,
    pub g: Tensor,
}

impl Layer2dCache {
    /// Bytes of activation state this cache pins (for the memory meter).
    pub fn bytes(&self) -> usize {
        let t = |x: &Tensor| x.len() * 4;
        let probs: usize = self
            .attn
            .as_ref()
            .map_or(0, |a| a.probs.iter().map(|p| p.len() * 4).sum());
        t(&self.ln1.xhat)
            + self.ln1.inv_std.len() * 4
            + t(&self.ln1_out)
            + t(&self.q)
            + t(&self.k)
            + t(&self.v)
            + probs
            + t(&self.ctxt)
            + t(&self.x1)
            + t(&self.ln2.xhat)
            + self.ln2.inv_std.len() * 4
            + t(&self.ln2_out)
            + t(&self.f1)
            + t(&self.g)
    }
}

/// Device-local parameter gradients (bias/affine grads only on mesh row 0).
pub struct Layer2dGrads {
    pub ln1_g: Option<Vec<f32>>,
    pub ln1_b: Option<Vec<f32>>,
    pub w_qkv: Tensor,
    pub b_qkv: Option<Vec<f32>>,
    pub w_out: Tensor,
    pub b_out: Option<Vec<f32>>,
    pub ln2_g: Option<Vec<f32>>,
    pub ln2_b: Option<Vec<f32>>,
    pub w_fc1: Tensor,
    pub b_fc1: Option<Vec<f32>>,
    pub w_fc2: Tensor,
    pub b_fc2: Option<Vec<f32>>,
}

/// Layer forward over the local input block `x: [b/q·s, h/q]`.
pub fn layer2d_forward<C: Communicator>(
    grid: &Grid2d<C>,
    cfg: &OptimusConfig,
    p: &Layer2dParams,
    x: &Tensor,
) -> (Tensor, Layer2dCache) {
    let _span = trace::span_guard("fwd.layer2d");
    let local = cfg.local_view();
    let hb = cfg.local_cols();
    let rows = cfg.local_rows();
    assert_eq!(x.dims(), &[rows, hb], "bad local activation block");

    // Attention half.
    let (ln1_out, ln1) = p.ln1.forward(grid, x, cfg.hidden);
    let qkv = p.qkv.forward(grid, &ln1_out); // [rows, 3h/q], layout [Q|K|V]
    let q = qkv.block(0, 0, rows, hb);
    let k = qkv.block(0, hb, rows, hb);
    let v = qkv.block(0, 2 * hb, rows, hb);
    let (ctxt, attn) = if cfg.fused_attention {
        (attention_ctx_only(&local, &q, &k, &v), None)
    } else {
        let (c, a) = attention_forward(&local, &q, &k, &v);
        (c, Some(a))
    };
    let attn_out = p.out.forward(grid, &ctxt);
    let mut x1 = x.clone();
    x1.add_assign(&attn_out);

    // MLP half.
    let (ln2_out, ln2) = p.ln2.forward(grid, &x1, cfg.hidden);
    let f1 = p.fc1.forward(grid, &ln2_out);
    let g = gelu_forward(&f1);
    let f2 = p.fc2.forward(grid, &g);
    let mut y = x1.clone();
    y.add_assign(&f2);

    (
        y,
        Layer2dCache {
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

/// Layer backward: local output-gradient block in, local input-gradient
/// block and local parameter gradients out.
pub fn layer2d_backward<C: Communicator>(
    grid: &Grid2d<C>,
    cfg: &OptimusConfig,
    p: &Layer2dParams,
    cache: &Layer2dCache,
    dy: &Tensor,
) -> (Tensor, Layer2dGrads) {
    let _span = trace::span_guard("bwd.layer2d");
    let local = cfg.local_view();
    let hb = cfg.local_cols();
    let rows = cfg.local_rows();

    // MLP half.
    let (mut df1, dw_fc2, db_fc2) = p.fc2.backward(grid, &cache.g, dy);
    gelu_backward_in_place(&mut df1, &cache.f1);
    let (dln2_out, dw_fc1, db_fc1) = p.fc1.backward(grid, &cache.ln2_out, &df1);
    let (dx1_ln, dln2_g, dln2_b) = p.ln2.backward(grid, &dln2_out, &cache.ln2, cfg.hidden);
    let mut dx1 = dy.clone();
    dx1.add_assign(&dx1_ln);

    // Attention half.
    let (dctxt, dw_out, db_out) = p.out.backward(grid, &cache.ctxt, &dx1);
    let (dq, dk, dv) = match &cache.attn {
        Some(attn) => attention_backward(&local, &dctxt, &cache.q, &cache.k, &cache.v, attn),
        None => attention_backward_recomputed(&local, &dctxt, &cache.q, &cache.k, &cache.v),
    };
    let mut dqkv = Tensor::zeros(&[rows, 3 * hb]);
    dqkv.set_block(0, 0, &dq);
    dqkv.set_block(0, hb, &dk);
    dqkv.set_block(0, 2 * hb, &dv);
    let (dln1_out, dw_qkv, db_qkv) = p.qkv.backward(grid, &cache.ln1_out, &dqkv);
    let (dx_ln, dln1_g, dln1_b) = p.ln1.backward(grid, &dln1_out, &cache.ln1, cfg.hidden);
    let mut dx = dx1;
    dx.add_assign(&dx_ln);

    (
        dx,
        Layer2dGrads {
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
#[allow(clippy::needless_range_loop)] // explicit indices aid test diagnostics
mod tests {
    use super::*;
    use mesh::Mesh2d;
    use serial::{layer_backward, layer_forward, LayerParams};
    use summa::{collect_blocks, distribute};
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
            let (y_ref, _) = layer_forward(&cfg.model(), &full, &x);
            let blocks = Mesh2d::run(q, |g| {
                let p = Layer2dParams::from_full(g, &full);
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

    #[test]
    fn backward_matches_serial_layer() {
        let q = 2;
        let (cfg, full, x, dy) = setup(q);
        let model_cfg = cfg.model();
        let (_, cache_ref) = layer_forward(&model_cfg, &full, &x);
        let (dx_ref, grads_ref) = layer_backward(&model_cfg, &full, &cache_ref, &dy);

        let outs = Mesh2d::run(q, |g| {
            let p = Layer2dParams::from_full(g, &full);
            let (_, cache) = layer2d_forward(g, &cfg, &p, &distribute(g, &x));
            layer2d_backward(g, &cfg, &p, &cache, &distribute(g, &dy))
        });
        let dx: Vec<Tensor> = outs.iter().map(|(a, _)| a.clone()).collect();
        assert_close(
            collect_blocks(&dx, q).as_slice(),
            dx_ref.as_slice(),
            2e-4,
            1e-3,
        );
        // Reassemble dW_out (plain SUMMA blocks) and compare.
        let dw_out: Vec<Tensor> = outs.iter().map(|(_, g)| g.w_out.clone()).collect();
        assert_close(
            collect_blocks(&dw_out, q).as_slice(),
            grads_ref.w_out.as_slice(),
            2e-4,
            1e-3,
        );
        // dW_fc1 as well.
        let dw_fc1: Vec<Tensor> = outs.iter().map(|(_, g)| g.w_fc1.clone()).collect();
        assert_close(
            collect_blocks(&dw_fc1, q).as_slice(),
            grads_ref.w_fc1.as_slice(),
            2e-4,
            1e-3,
        );
        // Bias grads concatenated across row 0 equal the serial gradient.
        let mut db_fc1 = Vec::new();
        for j in 0..q {
            db_fc1.extend(outs[j].1.b_fc1.as_ref().unwrap());
        }
        assert_close(&db_fc1, &grads_ref.b_fc1, 2e-4, 1e-3);
    }

    #[test]
    fn activations_are_fully_distributed() {
        // The local cache pins ~1/p of the serial activation volume: this is
        // the paper's core memory claim (Section 3.1.1).
        let q = 2;
        let (cfg, full, x, _) = setup(q);
        let sizes = Mesh2d::run(q, |g| {
            let p = Layer2dParams::from_full(g, &full);
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
