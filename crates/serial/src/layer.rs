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
use crate::layout::{Cut, Slot};
use crate::params::{add, LayerTensors};
use crate::region::Region;
use tensor::gemm::Form;
use tensor::layernorm::{
    ln_affine, ln_backward_finish, ln_backward_partials, ln_finish, ln_param_grads,
    ln_partial_sums, LN_EPS,
};
use tensor::ops::{bias_add, bias_grad, gelu_backward_in_place, gelu_forward};
use tensor::recycler;
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
    /// The optimizer's update after a step that collects its gradients.
    Update,
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

    /// Gives every device the hosted vectors its columns need: `region`
    /// holds bias and layer-norm vectors back to back, filled where they are
    /// hosted ([`crate::Region`]). Nothing to do where every device hosts
    /// its own (the default).
    fn broadcast_vectors(&self, _region: &mut [f32]) {}

    /// Sums every device's vector gradients, laid out as in
    /// [`Lowering::broadcast_vectors`], onto the devices that host the
    /// vectors. Nothing to do where every device hosts its own (the
    /// default).
    fn reduce_vector_grads(&self, _region: &mut [f32]) {}

    /// Turns per-row sums over the local columns into sums over the whole
    /// hidden dimension. The layer norm passes each pair of row sums as one
    /// interleaved `[rows, 2]` buffer, so a pair costs one call.
    fn complete_rows(&self, _partial: &mut [f32]) {}

    /// The full hidden size `h` (layer norm's divisor).
    fn hidden(&self) -> usize;

    /// The sequences and heads this device runs attention over.
    fn attn_view(&self) -> ModelConfig;

    /// Receives into `keep` the operand panels the product `x·W` would
    /// receive, without computing it: for a recompute whose backward reads
    /// a projection's panels but not its output. Nothing to receive for a
    /// lowering that moves no panels (the default).
    fn receive(&self, _x: &Tensor, _w: &Tensor, _keep: &mut Self::Panels) {}

    /// Whether the panels a product kept carry its whole left operand, so
    /// a cache need not hold the operand too (never, by default).
    fn carries_left(&self, _kept: &Self::Panels) -> bool {
        false
    }

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

    /// How this device's share of a canonical tensor is cut from the full
    /// one, and whether the device hosts it, for [`crate::init`],
    /// [`crate::shard`] and [`crate::gather`]: all of it, by default.
    fn place(&self, _slot: Slot) -> Cut {
        Cut::WHOLE
    }

    /// Gathers the pieces of a tensor that is not held whole (`piece` is
    /// `None` where it is hosted elsewhere) to the root over the devices
    /// that hold distinct pieces, concatenated in row-major order of their
    /// [`Lowering::place`] blocks. `Some` on the root only.
    fn gather_pieces(&self, _slot: Slot, piece: Option<&[f32]>) -> Option<Vec<f32>> {
        piece.map(<[f32]>::to_vec)
    }

    /// Completes a squared gradient norm summed over this device's pieces of
    /// tensors that are not held whole, over the devices that hold distinct
    /// pieces: as it is, by default.
    fn complete_norm(&self, partial: f64) -> f64 {
        partial
    }

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
    fn hidden(&self) -> usize {
        self.0.hidden
    }
    fn attn_view(&self) -> ModelConfig {
        self.0
    }
    fn embed(&self, table: &Tensor, tokens: &[usize]) -> Tensor {
        let mut x = Tensor::for_overwrite(&[tokens.len(), table.cols()]);
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

/// `y = xW + b`, the bias already at hand. With `keep`, the operand panels
/// the product receives are left there for [`linear_backward`].
fn linear<L: Lowering>(
    low: &L,
    role: Role,
    x: &Tensor,
    w: &Tensor,
    b: &[f32],
    keep: Option<&mut L::Panels>,
) -> Tensor {
    low.scope(Span::LinearFwd, || {
        let mut y = low.gemm(Form::NN, role, x, w, &L::Panels::default(), keep);
        bias_add(&mut y, b);
        y
    })
}

/// Given a linear layer's input and upstream gradient, returns `(dx, dw)`,
/// `dx = dy Wᵀ` and `dw = xᵀ dy`, and adds `Σ_rows dy` to `db`, this
/// device's part of a gradient region that its caller reduces onto the
/// bias's hosts (paper Eq. 1 plus the bias rule of Fig. 5). `kept` holds the
/// panels of `x` and `W` that the forward product kept, if any.
pub fn linear_backward<L: Lowering>(
    low: &L,
    role: Role,
    x: &Tensor,
    w: &Tensor,
    dy: &Tensor,
    kept: &L::Panels,
    db: &mut [f32],
) -> (Tensor, Tensor) {
    low.scope(Span::LinearBwd, || {
        let dx = low.gemm(Form::NT, role, dy, w, kept, None);
        let dw = low.gemm(Form::TN, role, x, dy, kept, None);
        let g = bias_grad(dy);
        add(db, &g);
        recycler::give(g);
        (dx, dw)
    })
}

/// `y = xW + b` on its own: the bias, hosted as `low` hosts it (empty
/// elsewhere), is broadcast to the devices that need it first (a region of
/// one vector). With `keep`, the operand panels the product receives are
/// left there for [`linear_backward`].
pub fn linear_forward<L: Lowering>(
    low: &L,
    role: Role,
    x: &Tensor,
    w: &Tensor,
    b: &[f32],
    keep: Option<&mut L::Panels>,
) -> Tensor {
    let mut bias = match b.is_empty() {
        true => vec![0.0; w.cols()],
        false => b.to_vec(),
    };
    low.broadcast_vectors(&mut bias);
    linear(low, role, x, w, &bias, keep)
}

/// Saved layer-norm forward state.
pub struct LnCache {
    /// Normalised activations `x̂`, same shape as the input block.
    pub xhat: Tensor,
    /// Per-row `1/√(Var[x]+ε)`.
    pub inv_std: Vec<f32>,
    /// The γ values of the local columns.
    pub gamma: Vec<f32>,
}

/// `inv_std` came from the device's recycler (`ln_finish`) and goes back.
impl Drop for LnCache {
    fn drop(&mut self) {
        recycler::give(std::mem::take(&mut self.inv_std));
    }
}

impl LnCache {
    /// Bytes of state this cache pins.
    pub fn bytes(&self) -> usize {
        (self.xhat.len() + self.inv_std.len() + self.gamma.len()) * 4
    }
}

/// Layer norm over the hidden dimension (paper Section 3.2.2), γ and β
/// already at hand.
pub(crate) fn norm<L: Lowering>(
    low: &L,
    x: &Tensor,
    [gamma, beta]: [&[f32]; 2],
) -> (Tensor, LnCache) {
    let mut sums = ln_partial_sums(x);
    low.complete_rows(&mut sums);
    let cache = ln_finish(x, &sums, low.hidden(), LN_EPS);
    recycler::give(sums);
    let y = ln_affine(&cache.xhat, gamma, beta);
    (
        y,
        LnCache {
            xhat: cache.xhat,
            inv_std: cache.inv_std,
            gamma: gamma.to_vec(),
        },
    )
}

/// Layer-norm backward: returns `dx` and adds `dγ`, `dβ` to `[dg, db]`,
/// this device's part of a gradient region that its caller reduces onto
/// the vectors' hosts.
pub fn ln_backward<L: Lowering>(
    low: &L,
    dy: &Tensor,
    cache: &LnCache,
    [dg, db]: [&mut [f32]; 2],
) -> Tensor {
    let (dxhat, dgamma, dbeta) = ln_param_grads(dy, &cache.xhat, &cache.gamma);
    add(dg, &dgamma);
    add(db, &dbeta);
    let mut sums = ln_backward_partials(&dxhat, &cache.xhat);
    low.complete_rows(&mut sums);
    let dx = ln_backward_finish(&dxhat, &cache.xhat, &cache.inv_std, &sums, low.hidden());
    recycler::give(sums);
    dx
}

/// Layer norm on its own: γ and β, hosted as `low` hosts them (empty
/// elsewhere), are broadcast to the devices that need them first (one region
/// of two).
pub fn ln_forward<L: Lowering>(
    low: &L,
    x: &Tensor,
    gamma: &[f32],
    beta: &[f32],
) -> (Tensor, LnCache) {
    let v = Region::load(low, Some([gamma, beta]), &[]);
    norm(low, x, v.final_ln())
}

/// Everything the backward pass needs, saved during forward.
///
/// This is the paper's forward buffer: the *outputs* of the matmuls other
/// than the layer's final output never appear here — only matmul inputs,
/// layer-norm caches and attention probabilities (the observation behind
/// memory method (3) of Section 3.2.3). A recompute ([`layer_recompute`])
/// and the top layer's forward in a sweep that keeps its cache for a
/// backward run straight after it also keep the operand panels of their
/// four projections, `P` being the lowering's [`Lowering::Panels`]. Where a
/// projection's kept panels carry its whole left operand
/// ([`Lowering::carries_left`]: a 2D row strip), that operand's field is
/// empty, because the backward's `xᵀ·dy` reads the panels instead.
pub struct LayerCache<P = ()> {
    pub ln1: LnCache,
    /// QKV's input; empty where `panels[0]` carries it.
    pub ln1_out: Tensor,
    pub q: Tensor,
    pub k: Tensor,
    pub v: Tensor,
    /// `None` when the lowering does not cache probabilities.
    pub attn: Option<AttnCache>,
    /// The output projection's input; empty where `panels[1]` carries it.
    pub ctxt: Tensor,
    pub x1: Tensor,
    pub ln2: LnCache,
    /// fc1's input; empty where `panels[2]` carries it.
    pub ln2_out: Tensor,
    pub f1: Tensor,
    /// fc2's input; empty where `panels[3]` carries it.
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
/// and the cache. Run on its own, the layer's vectors travel as one region
/// of eight.
pub fn layer_forward<L: Lowering>(
    low: &L,
    p: &LayerTensors,
    x: &Tensor,
) -> (Tensor, LayerCache<L::Panels>) {
    let v = Region::load(low, None, std::slice::from_ref(p));
    let (y, cache) = layer_pass(low, p, v.layer(0), x, Run::Forward(None));
    (y.expect("a forward has an output"), cache)
}

/// The checkpoint recompute of [`layer_forward`] right before the layer's
/// backward: returns the cache, with the operand panels each projection
/// received kept in it, so [`layer_backward`] reads them instead of
/// receiving them a second time. Nothing reads the layer's output, so the
/// pass stops at `g = gelu(f1)`: fc2 only receives the panels its backward
/// reads ([`Lowering::receive`]), and its product, bias and residual are
/// not computed. `reuse` is a previous cache's `panels`, whose storage the
/// new panels take over (pass `Default::default()` when there is none).
pub fn layer_recompute<L: Lowering>(
    low: &L,
    p: &LayerTensors,
    x: &Tensor,
    reuse: [L::Panels; 4],
) -> LayerCache<L::Panels> {
    let v = Region::load(low, None, std::slice::from_ref(p));
    layer_pass(low, p, v.layer(0), x, Run::Recompute(reuse)).1
}

/// What a [`layer_pass`] runs for.
pub(crate) enum Run<P> {
    /// A forward, whose output the next layer or the head reads. With
    /// `Some`, each projection keeps the panels it receives there, their
    /// old storage lent to them.
    Forward(Option<[P; 4]>),
    /// A checkpoint recompute ([`layer_recompute`]): panels kept as by
    /// `Forward(Some(_))`, and no output.
    Recompute([P; 4]),
}

/// [`layer_forward`] with the layer's vectors `v` at hand: the one body
/// behind [`layer_forward`], [`layer_recompute`] and every layer of a
/// stem's sweeps ([`crate::stem`]), which read `v` from the step's one
/// region. Returns the output, `None` for a recompute.
pub(crate) fn layer_pass<L: Lowering>(
    low: &L,
    p: &LayerTensors,
    v: [&[f32]; 8],
    x: &Tensor,
    run: Run<L::Panels>,
) -> (Option<Tensor>, LayerCache<L::Panels>) {
    low.scope(Span::LayerFwd, || {
        let view = low.attn_view();
        let (rows, w) = (view.tokens(), view.hidden);
        assert_eq!(x.rows(), rows, "bad activation block");
        let (keeping, recompute, mut panels) = match run {
            Run::Forward(keep) => (keep.is_some(), false, keep.unwrap_or_default()),
            Run::Recompute(reuse) => (true, true, reuse),
        };
        let [qkv_p, out_p, fc1_p, fc2_p] = &mut panels;
        let [ln1_g, ln1_b, b_qkv, b_out, ln2_g, ln2_b, b_fc1, b_fc2] = v;
        // A left operand is cached only where its kept panels do not carry it.
        let cached = |x: Tensor, kept: &L::Panels| match low.carries_left(kept) {
            true => Tensor::zeros(&[0, 0]),
            false => x,
        };

        // Attention half.
        let (ln1_out, ln1) = norm(low, x, [ln1_g, ln1_b]);
        let qkv_keep = keeping.then_some(&mut *qkv_p);
        let qkv = linear(low, Role::Expand, &ln1_out, &p.w_qkv, b_qkv, qkv_keep);
        let ln1_out = cached(ln1_out, qkv_p);
        let q = qkv.block(0, 0, rows, w);
        let k = qkv.block(0, w, rows, w);
        let v = qkv.block(0, 2 * w, rows, w);
        let (ctxt, attn) = attention_forward(&view, &q, &k, &v, low.cache_probs());
        let out_keep = keeping.then_some(&mut *out_p);
        let attn_out = linear(low, Role::Contract, &ctxt, &p.w_out, b_out, out_keep);
        let ctxt = cached(ctxt, out_p);
        let mut x1 = x.clone();
        x1.add_assign(&attn_out);

        // MLP half.
        let (ln2_out, ln2) = norm(low, &x1, [ln2_g, ln2_b]);
        let fc1_keep = keeping.then_some(&mut *fc1_p);
        let f1 = linear(low, Role::Expand, &ln2_out, &p.w_fc1, b_fc1, fc1_keep);
        let ln2_out = cached(ln2_out, fc1_p);
        let g = gelu_forward(&f1);
        let y = if recompute {
            low.scope(Span::LinearFwd, || low.receive(&g, &p.w_fc2, fc2_p));
            None
        } else {
            let fc2_keep = keeping.then_some(&mut *fc2_p);
            let f2 = linear(low, Role::Contract, &g, &p.w_fc2, b_fc2, fc2_keep);
            let mut y = x1.clone();
            y.add_assign(&f2);
            Some(y)
        };
        let g = cached(g, fc2_p);

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
/// Each projection's products read the panels `cache` kept for it. Run on
/// its own, the eight vector gradients travel home as one region.
pub fn layer_backward<L: Lowering>(
    low: &L,
    p: &LayerTensors,
    cache: &LayerCache<L::Panels>,
    dy: &Tensor,
) -> (Tensor, LayerTensors) {
    let mut dv = Region::vectors(low, 1, false);
    let (dx, weights) = layer_grads(low, p, cache, dy, dv.layer_mut(0));
    dv.reduce(low);
    let (_, mut vectors) = dv.hosted(low);
    let vectors = vectors.pop().expect("one layer");
    (dx, LayerTensors::from_parts(weights, vectors))
}

/// [`layer_backward`]'s body: returns the input gradient and the four
/// weight gradients in field order, and adds the eight vector gradients to
/// `dv`, the layer's part of a gradient region.
pub(crate) fn layer_grads<L: Lowering>(
    low: &L,
    p: &LayerTensors,
    cache: &LayerCache<L::Panels>,
    dy: &Tensor,
    dv: [&mut [f32]; 8],
) -> (Tensor, [Tensor; 4]) {
    low.scope(Span::LayerBwd, || {
        let view = low.attn_view();
        let (rows, w) = (view.tokens(), view.hidden);
        let [qkv_p, out_p, fc1_p, fc2_p] = &cache.panels;
        let [ln1_g, ln1_b, b_qkv, b_out, ln2_g, ln2_b, b_fc1, b_fc2] = dv;

        // MLP half.
        let (mut df1, w_fc2) =
            linear_backward(low, Role::Contract, &cache.g, &p.w_fc2, dy, fc2_p, b_fc2);
        gelu_backward_in_place(&mut df1, &cache.f1);
        let (dln2_out, w_fc1) = linear_backward(
            low,
            Role::Expand,
            &cache.ln2_out,
            &p.w_fc1,
            &df1,
            fc1_p,
            b_fc1,
        );
        let dx1_ln = ln_backward(low, &dln2_out, &cache.ln2, [ln2_g, ln2_b]);

        // Residual into x1: from the skip connection (dy) and from LN2.
        let mut dx1 = dy.clone();
        dx1.add_assign(&dx1_ln);

        // Attention half.
        let (dctxt, w_out) = linear_backward(
            low,
            Role::Contract,
            &cache.ctxt,
            &p.w_out,
            &dx1,
            out_p,
            b_out,
        );
        let (dq, dk, dv) = attention_backward(
            &view,
            &dctxt,
            &cache.q,
            &cache.k,
            &cache.v,
            cache.attn.as_ref(),
        );
        let mut dqkv = Tensor::for_overwrite(&[rows, 3 * w]);
        dqkv.set_block(0, 0, &dq);
        dqkv.set_block(0, w, &dk);
        dqkv.set_block(0, 2 * w, &dv);
        let (dln1_out, w_qkv) = linear_backward(
            low,
            Role::Expand,
            &cache.ln1_out,
            &p.w_qkv,
            &dqkv,
            qkv_p,
            b_qkv,
        );
        let dx_ln = ln_backward(low, &dln1_out, &cache.ln1, [ln1_g, ln1_b]);

        // Residual into x: skip (dx1) plus LN1 path.
        let mut dx = dx1;
        dx.add_assign(&dx_ln);
        (dx, [w_qkv, w_out, w_fc1, w_fc2])
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
