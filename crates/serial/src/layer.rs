//! One pre-LN transformer layer — forward, cache, backward — written once
//! and lowered three ways.
//!
//! The paper's Fig. 2 (Megatron) and Fig. 4 (Optimus) draw the same layer:
//! LN → QKV → attention → out-proj → residual → LN → fc1 → GELU → fc2 →
//! residual. They differ only in how each matmul and each row statistic is
//! carried out, which is what a [`Lowering`] decides. [`Local`] is the
//! single-device lowering; `megatron::Megatron1d` and
//! `optimus_core::Summa2d` are the distributed ones, and none of them
//! appears here: this module issues no communication of its own.

use crate::attention::{attention_backward, attention_forward, AttnCache};
use crate::config::ModelConfig;
use crate::params::{Hosted, LayerTensors};
use std::borrow::Cow;
use tensor::gemm::Form;
use tensor::layernorm::{
    ln_affine, ln_backward_finish, ln_backward_partials, ln_finish, ln_param_grads,
    ln_partial_sums, LN_EPS,
};
use tensor::ops::{bias_add, bias_grad, gelu_backward_in_place, gelu_forward};
use tensor::{matmul_nn, matmul_nt, matmul_tn, Tensor};

/// Which way a projection changes the width a device works on: QKV and fc1
/// *expand* from the layer's activation into per-head / 4h columns, the
/// output projection and fc2 *contract* back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Role {
    Expand,
    Contract,
}

/// The phases of a step a lowering may attribute to a trace span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Span {
    /// Embedding, layers and final layer norm of the forward pass.
    Fwd,
    /// Tied head and cross-entropy, forward and backward.
    LossHead,
    /// Final layer norm, layers and embedding of the backward pass.
    Bwd,
    LayerFwd,
    LayerBwd,
    LinearFwd,
    LinearBwd,
}

/// How a per-row partial over the local vocabulary slice is completed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reduce {
    Sum,
    Max,
}

/// How one parallel scheme carries out the operations of the layer body
/// and of the stem around it ([`crate::stem`]). Chosen by type at each
/// scheme's entry point; never `dyn`.
pub trait Lowering {
    /// How a device holds a bias or layer-norm vector.
    type Hosted: Hosted;

    /// Operand panels a product received from other devices, kept for a
    /// later product that needs the same ones (`()` for a lowering that
    /// moves no panels).
    type Panels: Default;

    /// One of a projection's three products on this device's operands:
    /// `NN` is `x·W`, `NT` is `dy·Wᵀ`, `TN` is `xᵀ·dy`. Panels that `from`
    /// holds are read from there instead of being received again; with
    /// `keep`, it ends up holding the panels the product did receive (its
    /// old panels lending them their storage).
    fn gemm(
        &self,
        form: Form,
        role: Role,
        a: &Tensor,
        b: &Tensor,
        from: &Self::Panels,
        keep: Option<&mut Self::Panels>,
    ) -> Tensor;

    /// The `len` values of a hosted vector this device's columns need.
    fn fetch<'a>(&self, v: &'a Self::Hosted, len: usize) -> Cow<'a, [f32]>;

    /// Delivers a vector gradient to whoever hosts the vector.
    fn send_home(&self, g: Vec<f32>) -> Self::Hosted;

    /// Turns per-row sums over the local columns into sums over the whole
    /// hidden dimension.
    fn complete_rows(&self, _partial: &mut [f32]) {}

    /// The full hidden size `h` (layer norm's divisor).
    fn hidden(&self) -> usize;

    /// The sequences and heads this device runs attention over.
    fn attn_view(&self) -> ModelConfig;

    /// Whether forward keeps the attention probabilities for backward
    /// (otherwise backward recomputes them per head, paper Section 6).
    fn cache_probs(&self) -> bool {
        true
    }

    /// Runs one phase of the step, for lowerings that attribute it to a
    /// trace span.
    fn scope<R>(&self, _span: Span, f: impl FnOnce() -> R) -> R {
        f()
    }

    /// Embedding lookup: this device's activation block for `tokens`, from
    /// its block of the table.
    fn embed(&self, table: &Tensor, tokens: &[usize]) -> Tensor;

    /// Embedding lookup backward: scatter-adds the rows of `dx` into this
    /// device's block of the table gradient.
    fn embed_backward(&self, d_table: &mut Tensor, dx: &Tensor, tokens: &[usize]);

    /// Which block of the vocabulary this device's table rows and logits
    /// columns are.
    fn vocab_block(&self) -> usize {
        0
    }

    /// Turns per-row partials over the local vocabulary slice into values
    /// over the whole vocabulary.
    fn complete_vocab(&self, _how: Reduce, _partial: &mut [f32]) {}

    /// The reported mean loss from this device's `f64` sum of row losses.
    /// `total_rows` is the global `b·s`, so microbatch and replica losses
    /// add without rescaling.
    fn mean_loss(&self, local_sum: f64, total_rows: usize) -> f32 {
        (local_sum / total_rows as f64) as f32
    }
}

/// A local product in the given form.
pub fn local_gemm(form: Form, a: &Tensor, b: &Tensor) -> Tensor {
    match form {
        Form::NN => matmul_nn(a, b),
        Form::NT => matmul_nt(a, b),
        Form::TN => matmul_tn(a, b),
    }
}

/// The single-device lowering: local GEMMs, every vector at hand.
#[derive(Clone, Copy, Debug)]
pub struct Local(pub ModelConfig);

impl Lowering for Local {
    type Hosted = Vec<f32>;
    type Panels = ();

    fn gemm(
        &self,
        form: Form,
        _: Role,
        a: &Tensor,
        b: &Tensor,
        _: &(),
        _: Option<&mut ()>,
    ) -> Tensor {
        local_gemm(form, a, b)
    }
    fn fetch<'a>(&self, v: &'a Vec<f32>, _len: usize) -> Cow<'a, [f32]> {
        Cow::Borrowed(v)
    }
    fn send_home(&self, g: Vec<f32>) -> Vec<f32> {
        g
    }
    fn hidden(&self) -> usize {
        self.0.hidden
    }
    fn attn_view(&self) -> ModelConfig {
        self.0
    }
    fn embed(&self, table: &Tensor, tokens: &[usize]) -> Tensor {
        let mut x = Tensor::zeros(&[tokens.len(), table.cols()]);
        for (r, &t) in tokens.iter().enumerate() {
            x.row_mut(r).copy_from_slice(table.row(t));
        }
        x
    }
    fn embed_backward(&self, d_table: &mut Tensor, dx: &Tensor, tokens: &[usize]) {
        for (r, &t) in tokens.iter().enumerate() {
            for (dst, v) in d_table.row_mut(t).iter_mut().zip(dx.row(r)) {
                *dst += v;
            }
        }
    }
}

/// `y = xW + b`. With `keep`, the operand panels the product receives are
/// left there for [`linear_backward`].
pub fn linear_forward<L: Lowering>(
    low: &L,
    role: Role,
    x: &Tensor,
    w: &Tensor,
    b: &L::Hosted,
    keep: Option<&mut L::Panels>,
) -> Tensor {
    low.scope(Span::LinearFwd, || {
        let mut y = low.gemm(Form::NN, role, x, w, &L::Panels::default(), keep);
        let bias = low.fetch(b, y.cols());
        bias_add(&mut y, &bias);
        y
    })
}

/// Given a linear layer's input and upstream gradient, returns
/// `(dx, dw, db)`: `dx = dy Wᵀ`, `dw = xᵀ dy`, `db = Σ_rows dy` (paper
/// Eq. 1 plus the bias rule of Fig. 5). `kept` holds the panels of `x` and
/// `W` that the forward product kept, if any.
pub fn linear_backward<L: Lowering>(
    low: &L,
    role: Role,
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    kept: &L::Panels,
) -> (Tensor, Tensor, L::Hosted) {
    low.scope(Span::LinearBwd, || {
        let dx = low.gemm(Form::NT, role, dy, w, kept, None);
        let dw = low.gemm(Form::TN, role, x, dy, kept, None);
        let db = low.send_home(bias_grad(dy));
        (dx, dw, db)
    })
}

/// Saved layer-norm forward state.
pub struct LnCache {
    /// Normalised activations `x̂`, same shape as the input block.
    pub xhat: Tensor,
    /// Per-row `1/√(Var[x]+ε)`.
    pub inv_std: Vec<f32>,
    /// The γ values forward fetched for the local columns.
    pub gamma: Vec<f32>,
}

impl LnCache {
    /// Bytes of state this cache pins.
    pub fn bytes(&self) -> usize {
        (self.xhat.len() + self.inv_std.len() + self.gamma.len()) * 4
    }
}

/// Layer norm over the hidden dimension (paper Section 3.2.2).
pub fn ln_forward<L: Lowering>(
    low: &L,
    x: &Tensor,
    gamma: &L::Hosted,
    beta: &L::Hosted,
) -> (Tensor, LnCache) {
    let gamma = low.fetch(gamma, x.cols());
    let beta = low.fetch(beta, x.cols());
    let (mut s, mut s2) = ln_partial_sums(x);
    low.complete_rows(&mut s);
    low.complete_rows(&mut s2);
    let cache = ln_finish(x, &s, &s2, low.hidden(), LN_EPS);
    let y = ln_affine(&cache.xhat, &gamma, &beta);
    (
        y,
        LnCache {
            xhat: cache.xhat,
            inv_std: cache.inv_std,
            gamma: gamma.into_owned(),
        },
    )
}

/// Layer-norm backward: returns `(dx, dγ, dβ)`.
pub fn ln_backward<L: Lowering>(
    low: &L,
    dy: &Tensor,
    cache: &LnCache,
) -> (Tensor, L::Hosted, L::Hosted) {
    let (dxhat, dgamma, dbeta) = ln_param_grads(dy, &cache.xhat, &cache.gamma);
    let dgamma = low.send_home(dgamma);
    let dbeta = low.send_home(dbeta);
    let (mut sum_gx, mut sum_g) = ln_backward_partials(&dxhat, &cache.xhat);
    low.complete_rows(&mut sum_gx);
    low.complete_rows(&mut sum_g);
    let dx = ln_backward_finish(
        &dxhat,
        &cache.xhat,
        &cache.inv_std,
        &sum_gx,
        &sum_g,
        low.hidden(),
    );
    (dx, dgamma, dbeta)
}

/// Everything the backward pass needs, saved during forward.
///
/// This is the paper's forward buffer: the *outputs* of the matmuls other
/// than the layer's final output never appear here — only matmul inputs,
/// layer-norm caches and attention probabilities (the observation behind
/// memory method (3) of Section 3.2.3). A recompute ([`layer_recompute`])
/// also keeps the operand panels of its four projections, `P` being the
/// lowering's [`Lowering::Panels`].
pub struct LayerCache<P = ()> {
    pub ln1: LnCache,
    pub ln1_out: Tensor,
    pub q: Tensor,
    pub k: Tensor,
    pub v: Tensor,
    /// `None` when the lowering does not cache probabilities.
    pub attn: Option<AttnCache>,
    pub ctxt: Tensor,
    pub x1: Tensor,
    pub ln2: LnCache,
    pub ln2_out: Tensor,
    pub f1: Tensor,
    pub g: Tensor,
    /// The operand panels each projection's forward product kept, in the
    /// order QKV, output projection, fc1, fc2. Transport buffers, not
    /// activations: [`LayerCache::bytes`] leaves them out.
    pub panels: [P; 4],
}

impl<P> LayerCache<P> {
    /// Bytes of activation state this cache pins (for the memory meter).
    pub fn bytes(&self) -> usize {
        let probs = self.attn.iter().flat_map(|a| &a.probs);
        let tensors = [
            &self.ln1_out,
            &self.q,
            &self.k,
            &self.v,
            &self.ctxt,
            &self.x1,
            &self.ln2_out,
            &self.f1,
            &self.g,
        ];
        self.ln1.bytes()
            + self.ln2.bytes()
            + tensors
                .into_iter()
                .chain(probs)
                .map(|t| t.len() * 4)
                .sum::<usize>()
    }
}

/// Layer forward over this device's activation block; returns the output
/// and the cache.
pub fn layer_forward<L: Lowering>(
    low: &L,
    p: &LayerTensors<L::Hosted>,
    x: &Tensor,
) -> (Tensor, LayerCache<L::Panels>) {
    layer_pass(low, p, x, None)
}

/// The checkpoint recompute of [`layer_forward`] right before the layer's
/// backward: returns the cache, with the operand panels each projection
/// received kept in it, so [`layer_backward`] reads them instead of
/// receiving them a second time. `reuse` is a previous cache's `panels`,
/// whose storage the new panels take over (pass `Default::default()` when
/// there is none).
pub fn layer_recompute<L: Lowering>(
    low: &L,
    p: &LayerTensors<L::Hosted>,
    x: &Tensor,
    reuse: [L::Panels; 4],
) -> LayerCache<L::Panels> {
    layer_pass(low, p, x, Some(reuse)).1
}

/// [`layer_forward`], keeping each projection's panels in `keep` when given.
fn layer_pass<L: Lowering>(
    low: &L,
    p: &LayerTensors<L::Hosted>,
    x: &Tensor,
    keep: Option<[L::Panels; 4]>,
) -> (Tensor, LayerCache<L::Panels>) {
    low.scope(Span::LayerFwd, || {
        let view = low.attn_view();
        let (rows, w) = (view.tokens(), view.hidden);
        assert_eq!(x.rows(), rows, "bad activation block");
        let keeping = keep.is_some();
        let mut panels = keep.unwrap_or_default();
        let [qkv_p, out_p, fc1_p, fc2_p] = &mut panels;

        // Attention half.
        let (ln1_out, ln1) = ln_forward(low, x, &p.ln1_g, &p.ln1_b);
        let qkv = linear_forward(
            low,
            Role::Expand,
            &ln1_out,
            &p.w_qkv,
            &p.b_qkv,
            keeping.then_some(qkv_p),
        );
        let q = qkv.block(0, 0, rows, w);
        let k = qkv.block(0, w, rows, w);
        let v = qkv.block(0, 2 * w, rows, w);
        let (ctxt, attn) = attention_forward(&view, &q, &k, &v, low.cache_probs());
        let attn_out = linear_forward(
            low,
            Role::Contract,
            &ctxt,
            &p.w_out,
            &p.b_out,
            keeping.then_some(out_p),
        );
        let mut x1 = x.clone();
        x1.add_assign(&attn_out);

        // MLP half.
        let (ln2_out, ln2) = ln_forward(low, &x1, &p.ln2_g, &p.ln2_b);
        let f1 = linear_forward(
            low,
            Role::Expand,
            &ln2_out,
            &p.w_fc1,
            &p.b_fc1,
            keeping.then_some(fc1_p),
        );
        let g = gelu_forward(&f1);
        let f2 = linear_forward(
            low,
            Role::Contract,
            &g,
            &p.w_fc2,
            &p.b_fc2,
            keeping.then_some(fc2_p),
        );
        let mut y = x1.clone();
        y.add_assign(&f2);

        (
            y,
            LayerCache {
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
                panels,
            },
        )
    })
}

/// Layer backward: returns the input gradient and all parameter gradients.
/// Each projection's products read the panels `cache` kept for it.
pub fn layer_backward<L: Lowering>(
    low: &L,
    p: &LayerTensors<L::Hosted>,
    cache: &LayerCache<L::Panels>,
    dy: &Tensor,
) -> (Tensor, LayerTensors<L::Hosted>) {
    low.scope(Span::LayerBwd, || {
        let view = low.attn_view();
        let (rows, w) = (view.tokens(), view.hidden);
        let [qkv_p, out_p, fc1_p, fc2_p] = &cache.panels;

        // MLP half.
        let (mut df1, w_fc2, b_fc2) =
            linear_backward(low, Role::Contract, &cache.g, &p.w_fc2, dy, fc2_p);
        gelu_backward_in_place(&mut df1, &cache.f1);
        let (dln2_out, w_fc1, b_fc1) =
            linear_backward(low, Role::Expand, &cache.ln2_out, &p.w_fc1, &df1, fc1_p);
        let (dx1_ln, ln2_g, ln2_b) = ln_backward(low, &dln2_out, &cache.ln2);

        // Residual into x1: from the skip connection (dy) and from LN2.
        let mut dx1 = dy.clone();
        dx1.add_assign(&dx1_ln);

        // Attention half.
        let (dctxt, w_out, b_out) =
            linear_backward(low, Role::Contract, &cache.ctxt, &p.w_out, &dx1, out_p);
        let (dq, dk, dv) = attention_backward(
            &view,
            &dctxt,
            &cache.q,
            &cache.k,
            &cache.v,
            cache.attn.as_ref(),
        );
        let mut dqkv = Tensor::zeros(&[rows, 3 * w]);
        dqkv.set_block(0, 0, &dq);
        dqkv.set_block(0, w, &dk);
        dqkv.set_block(0, 2 * w, &dv);
        let (dln1_out, w_qkv, b_qkv) =
            linear_backward(low, Role::Expand, &cache.ln1_out, &p.w_qkv, &dqkv, qkv_p);
        let (dx_ln, ln1_g, ln1_b) = ln_backward(low, &dln1_out, &cache.ln1);

        // Residual into x: skip (dx1) plus LN1 path.
        let mut dx = dx1;
        dx.add_assign(&dx_ln);

        let grads = LayerTensors {
            ln1_g,
            ln1_b,
            w_qkv,
            b_qkv,
            w_out,
            b_out,
            ln2_g,
            ln2_b,
            w_fc1,
            b_fc1,
            w_fc2,
            b_fc2,
        };
        (dx, grads)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::LayerParams;
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
        let (y, _) = layer_forward(&Local(cfg), &p, &x);
        assert_eq!(y.dims(), x.dims());
    }

    #[test]
    fn near_init_layer_is_close_to_identity_plus_small() {
        // With 0.02-std weights the residual branches contribute little.
        let (cfg, p, x, _) = setup();
        let (y, _) = layer_forward(&Local(cfg), &p, &x);
        let diff = tensor::max_abs_diff(y.as_slice(), x.as_slice());
        assert!(diff < 1.0, "residual output drifted too far: {diff}");
        assert!(diff > 0.0, "layer must not be exactly identity");
    }

    #[test]
    fn input_gradient_checks() {
        let (cfg, p, x, w) = setup();
        let (_, cache) = layer_forward(&Local(cfg), &p, &x);
        let (dx, _) = layer_backward(&Local(cfg), &p, &cache, &w);
        check_grad(
            |t: &Tensor| dot(&layer_forward(&Local(cfg), &p, t).0, &w),
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
        let (_, cache) = layer_forward(&Local(cfg), &p, &x);
        let (_, grads) = layer_backward(&Local(cfg), &p, &cache, &w);

        let with_wqkv = |wq: &Tensor| {
            let mut p2 = p.clone();
            p2.w_qkv = wq.clone();
            dot(&layer_forward(&Local(cfg), &p2, &x).0, &w)
        };
        check_grad(with_wqkv, &p.w_qkv, &grads.w_qkv, 1e-2, 5e-3, 5e-2);

        let with_wfc2 = |wf: &Tensor| {
            let mut p2 = p.clone();
            p2.w_fc2 = wf.clone();
            dot(&layer_forward(&Local(cfg), &p2, &x).0, &w)
        };
        check_grad(with_wfc2, &p.w_fc2, &grads.w_fc2, 1e-2, 5e-3, 5e-2);

        // fc2's output joins the residual unchanged, so its bias gradient is
        // the column sum of the upstream gradient.
        for c in 0..cfg.hidden {
            let col: f32 = (0..cfg.tokens()).map(|r| w.at(r, c)).sum();
            assert!((grads.b_fc2[c] - col).abs() < 1e-5, "b_fc2[{c}]");
        }
    }

    #[test]
    fn layernorm_gradients_check() {
        let (cfg, p, x, w) = setup();
        let (_, cache) = layer_forward(&Local(cfg), &p, &x);
        let (_, grads) = layer_backward(&Local(cfg), &p, &cache, &w);
        let eps = 1e-2f32;
        for c in 0..cfg.hidden {
            let mut p2 = p.clone();
            p2.ln1_g[c] += eps;
            let up = dot(&layer_forward(&Local(cfg), &p2, &x).0, &w);
            let mut p3 = p.clone();
            p3.ln1_g[c] -= eps;
            let dn = dot(&layer_forward(&Local(cfg), &p3, &x).0, &w);
            let fd = (up - dn) / (2.0 * eps);
            assert!(
                (grads.ln1_g[c] - fd).abs() < 5e-2_f32.max(0.05 * fd.abs()),
                "ln1_g[{c}]: analytic={} fd={fd}",
                grads.ln1_g[c]
            );
        }
    }
}
