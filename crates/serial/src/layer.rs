//! One pre-LN transformer layer: forward, cache, backward.

use crate::attention::{attention_backward, attention_forward, AttnCache};
use crate::config::ModelConfig;
use crate::linear::Linear;
use crate::params::LayerParams;
use tensor::layernorm::{layer_norm_backward, layer_norm_forward, LnCache, LN_EPS};
use tensor::ops::{gelu_backward_in_place, gelu_forward};
use tensor::Tensor;

/// Everything the backward pass needs, saved during forward.
///
/// This is the serial analogue of the paper's forward buffer: note that the
/// *outputs* of the matmuls other than the layer's final output never appear
/// here — only matmul inputs, layer-norm caches and attention probabilities
/// (the observation behind memory method (3) of Section 3.2.3).
pub struct LayerCache {
    pub x: Tensor,
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

/// Gradients mirroring [`LayerParams`].
#[derive(Clone, Debug)]
pub struct LayerGrads {
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

/// Layer forward over `x: [b·s, h]`; returns the output and cache.
pub fn layer_forward(cfg: &ModelConfig, p: &LayerParams, x: &Tensor) -> (Tensor, LayerCache) {
    let h = cfg.hidden;
    let rows = cfg.tokens();
    assert_eq!(x.dims(), &[rows, h]);

    let (ln1_out, ln1) = layer_norm_forward(x, &p.ln1_g, &p.ln1_b, LN_EPS);
    let qkv_lin = Linear::new(p.w_qkv.clone(), p.b_qkv.clone());
    let qkv = qkv_lin.forward(&ln1_out);
    let q = qkv.block(0, 0, rows, h);
    let k = qkv.block(0, h, rows, h);
    let v = qkv.block(0, 2 * h, rows, h);
    let (ctxt, attn) = attention_forward(cfg, &q, &k, &v);
    let out_lin = Linear::new(p.w_out.clone(), p.b_out.clone());
    let attn_out = out_lin.forward(&ctxt);
    let mut x1 = x.clone();
    x1.add_assign(&attn_out);

    let (ln2_out, ln2) = layer_norm_forward(&x1, &p.ln2_g, &p.ln2_b, LN_EPS);
    let fc1 = Linear::new(p.w_fc1.clone(), p.b_fc1.clone());
    let f1 = fc1.forward(&ln2_out);
    let g = gelu_forward(&f1);
    let fc2 = Linear::new(p.w_fc2.clone(), p.b_fc2.clone());
    let f2 = fc2.forward(&g);
    let mut y = x1.clone();
    y.add_assign(&f2);

    (
        y,
        LayerCache {
            x: x.clone(),
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

/// Layer backward: returns the input gradient and all parameter gradients.
pub fn layer_backward(
    cfg: &ModelConfig,
    p: &LayerParams,
    cache: &LayerCache,
    dy: &Tensor,
) -> (Tensor, LayerGrads) {
    let h = cfg.hidden;
    let rows = cfg.tokens();

    // MLP branch.
    let fc2 = Linear::new(p.w_fc2.clone(), p.b_fc2.clone());
    let (mut df1, dw_fc2, db_fc2) = fc2.backward(&cache.g, dy);
    gelu_backward_in_place(&mut df1, &cache.f1);
    let fc1 = Linear::new(p.w_fc1.clone(), p.b_fc1.clone());
    let (dln2_out, dw_fc1, db_fc1) = fc1.backward(&cache.ln2_out, &df1);
    let (dx1_ln, dln2_gamma, dln2_beta) = layer_norm_backward(&dln2_out, &cache.ln2, &p.ln2_g);

    // Residual into x1: from the skip connection (dy) and from LN2.
    let mut dx1 = dy.clone();
    dx1.add_assign(&dx1_ln);

    // Attention branch.
    let out_lin = Linear::new(p.w_out.clone(), p.b_out.clone());
    let (dctxt, dw_out, db_out) = out_lin.backward(&cache.ctxt, &dx1);
    let (dq, dk, dv) = attention_backward(cfg, &dctxt, &cache.q, &cache.k, &cache.v, &cache.attn);
    let mut dqkv = Tensor::zeros(&[rows, 3 * h]);
    dqkv.set_block(0, 0, &dq);
    dqkv.set_block(0, h, &dk);
    dqkv.set_block(0, 2 * h, &dv);
    let qkv_lin = Linear::new(p.w_qkv.clone(), p.b_qkv.clone());
    let (dln1_out, dw_qkv, db_qkv) = qkv_lin.backward(&cache.ln1_out, &dqkv);
    let (dx_ln, dln1_gamma, dln1_beta) = layer_norm_backward(&dln1_out, &cache.ln1, &p.ln1_g);

    // Residual into x: skip (dx1) plus LN1 path.
    let mut dx = dx1;
    dx.add_assign(&dx_ln);

    (
        dx,
        LayerGrads {
            ln1_g: dln1_gamma,
            ln1_b: dln1_beta,
            w_qkv: dw_qkv,
            b_qkv: db_qkv,
            w_out: dw_out,
            b_out: db_out,
            ln2_g: dln2_gamma,
            ln2_b: dln2_beta,
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
    use tensor::gradcheck::check_grad;
    use tensor::{Rng, Tensor};

    fn setup() -> (ModelConfig, LayerParams, Tensor, Tensor) {
        let cfg = ModelConfig {
            batch: 2,
            seq: 3,
            hidden: 8,
            heads: 2,
            vocab: 10,
            layers: 1,
            causal: false,
        };
        let p = LayerParams::init(5, 0, cfg.hidden);
        let mut rng = Rng::new(9);
        let x = Tensor::randn(&[cfg.tokens(), cfg.hidden], 1.0, &mut rng);
        let w = Tensor::randn(&[cfg.tokens(), cfg.hidden], 1.0, &mut rng);
        (cfg, p, x, w)
    }

    fn dot(a: &Tensor, b: &Tensor) -> f32 {
        a.as_slice()
            .iter()
            .zip(b.as_slice())
            .map(|(x, y)| x * y)
            .sum()
    }

    #[test]
    fn forward_preserves_shape() {
        let (cfg, p, x, _) = setup();
        let (y, _) = layer_forward(&cfg, &p, &x);
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn near_init_layer_is_close_to_identity_plus_small() {
        // With 0.02-std weights the residual branches contribute little.
        let (cfg, p, x, _) = setup();
        let (y, _) = layer_forward(&cfg, &p, &x);
        let diff = tensor::max_abs_diff(y.as_slice(), x.as_slice());
        assert!(diff < 1.0, "residual output drifted too far: {diff}");
        assert!(diff > 0.0, "layer must not be exactly identity");
    }

    #[test]
    fn input_gradient_checks() {
        let (cfg, p, x, w) = setup();
        let (_, cache) = layer_forward(&cfg, &p, &x);
        let (dx, _) = layer_backward(&cfg, &p, &cache, &w);
        check_grad(
            |t: &Tensor| dot(&layer_forward(&cfg, &p, t).0, &w),
            &x,
            &dx,
            1e-2,
            5e-3,
            5e-2,
        );
    }

    #[test]
    fn weight_gradients_check() {
        let (cfg, p, x, w) = setup();
        let (_, cache) = layer_forward(&cfg, &p, &x);
        let (_, grads) = layer_backward(&cfg, &p, &cache, &w);

        let with_wqkv = |wq: &Tensor| {
            let mut p2 = p.clone();
            p2.w_qkv = wq.clone();
            dot(&layer_forward(&cfg, &p2, &x).0, &w)
        };
        check_grad(with_wqkv, &p.w_qkv, &grads.w_qkv, 1e-2, 5e-3, 5e-2);

        let with_wfc2 = |wf: &Tensor| {
            let mut p2 = p.clone();
            p2.w_fc2 = wf.clone();
            dot(&layer_forward(&cfg, &p2, &x).0, &w)
        };
        check_grad(with_wfc2, &p.w_fc2, &grads.w_fc2, 1e-2, 5e-3, 5e-2);
    }

    #[test]
    fn layernorm_gradients_check() {
        let (cfg, p, x, w) = setup();
        let (_, cache) = layer_forward(&cfg, &p, &x);
        let (_, grads) = layer_backward(&cfg, &p, &cache, &w);
        let eps = 1e-2f32;
        for c in 0..cfg.hidden {
            let mut p2 = p.clone();
            p2.ln1_g[c] += eps;
            let up = dot(&layer_forward(&cfg, &p2, &x).0, &w);
            let mut p3 = p.clone();
            p3.ln1_g[c] -= eps;
            let dn = dot(&layer_forward(&cfg, &p3, &x).0, &w);
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (grads.ln1_g[c] - fd).abs() < 5e-2_f32.max(0.05 * fd.abs()),
                "ln1_g[{c}]: analytic={} fd={fd}",
                grads.ln1_g[c]
            );
        }
    }
}
