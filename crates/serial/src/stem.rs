//! The stem around the layer — embedding → layers → final layer norm → tied
//! head + cross-entropy, and the way back — written once and lowered like
//! the layer itself.
//!
//! Three pieces, each the only copy in the workspace:
//!
//! * the **stage pair** over a slice of layers: [`stage_forward`] takes the
//!   stage's input (an embedding, or a block from the stage below), keeps
//!   each layer's input (checkpointing, paper Section 3.2.3) or its
//!   [`LayerCache`] and, on the stage with the head, runs the final layer
//!   norm, the loss and the head's backward; [`stage_backward`] recomputes
//!   or pops, runs the layer's backward, and ends in the embedding backward
//!   or a send to the stage below ([`Bottom`]). Both read the stem's bias
//!   and layer-norm vectors from one region the caller loaded ([`Region`]),
//!   and the backward adds their gradients to a second one, which the
//!   caller reduces once after its last stage backward. Each weight and
//!   table gradient goes to a caller's sink as soon as it is complete
//!   ([`Grad`]) — collected ([`Grads`], which is [`lm_grads`]), added to a
//!   running total (the same sink, once per pipeline microbatch), or
//!   applied on the spot and dropped (the paper's immediate update, which
//!   is [`step`] under SGD and Adam). The recompute keeps the operand
//!   panels its products received, and the layer's backward reads them
//!   instead of receiving them again; it stops before fc2, whose output the
//!   backward never reads ([`crate::layer_recompute`]), and its cache holds
//!   no left operand that a kept row strip carries. When the backward
//!   comes straight after the forward ([`Keep::TopCache`]), the top layer's
//!   forward keeps its cache and panels and is its own recompute, so a
//!   checkpointed step re-runs `L − 1` layers, not `L`;
//! * the **tied head**: [`logits`]` = H·Eᵀ`, [`cross_entropy`] over a
//!   vocabulary split across devices, and [`head_backward`]
//!   (`dH = dL·E`, `dE += dLᵀ·H`, the table panels kept by [`head_loss`]'s
//!   logits product and the `dL` panels shared between the two);
//! * the **single-stage compositions** [`hidden_states`], [`lm_loss`],
//!   [`lm_grads`] and [`step`] that the serial, Megatron and Optimus models
//!   call.
//!
//! Like `layer`, this module issues no communication of its own: what a
//! product, a lookup or a row statistic costs is the [`Lowering`]'s business.

use crate::layer::{
    layer_grads, layer_pass, ln_backward, norm, LayerCache, LnCache, Lowering, Reduce, Role, Run,
    Span,
};
use crate::layout::weight_fields;
use crate::optim::Optimizer;
use crate::params::{LayerTensors, ModelTensors};
use crate::region::Region;
use std::borrow::Borrow;
use tensor::gemm::Form;
use tensor::loss::{ce_grad_local, partial_label_logit, partial_row_max, partial_sumexp};
use tensor::{recycler, Tensor};

/// Live-byte accounting with a high-water mark: what the sweeps and the
/// head pin for backward, plus the one activation block in flight.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemMeter {
    current: usize,
    peak: usize,
}

impl MemMeter {
    pub fn new() -> Self {
        MemMeter::default()
    }

    /// Registers `bytes` of newly live data.
    pub fn alloc(&mut self, bytes: usize) {
        self.current += bytes;
        self.peak = self.peak.max(self.current);
    }

    /// Releases `bytes` of live data.
    pub fn free(&mut self, bytes: usize) {
        assert!(bytes <= self.current, "freeing more than allocated");
        self.current -= bytes;
    }

    /// Bytes currently live.
    pub fn current(&self) -> usize {
        self.current
    }

    /// High-water mark since construction.
    pub fn peak(&self) -> usize {
        self.peak
    }
}

fn bytes(t: &Tensor) -> usize {
    t.len() * 4
}

/// The stem parameters one device holds (for its stage), by reference.
pub struct StemRef<'a> {
    /// This device's block of the embedding table, tied with the LM head.
    pub table: &'a Tensor,
    pub layers: &'a [LayerTensors],
    /// Final layer-norm `[γ, β]`, empty where hosted elsewhere.
    pub final_ln: [&'a [f32]; 2],
}

/// [`StemRef`] by mutable reference: what an optimizer step updates.
pub struct StemMut<'a> {
    pub table: &'a mut Tensor,
    pub layers: &'a mut [LayerTensors],
    pub final_ln: [&'a mut [f32]; 2],
}

impl StemMut<'_> {
    /// The same parameters by shared reference.
    pub(crate) fn view(&self) -> StemRef<'_> {
        StemRef {
            table: self.table,
            layers: self.layers,
            final_ln: [&*self.final_ln[0], &*self.final_ln[1]],
        }
    }
}

/// What a forward sweep keeps of each layer for the reverse sweep.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Keep {
    /// Forward only (evaluation, inference).
    Nothing,
    /// The layer's input block; backward re-runs the layer from it.
    Inputs,
    /// The layer's full [`LayerCache`].
    Caches,
    /// For a sweep whose backward comes straight after its forward: the top
    /// layer's full [`LayerCache`] with the operand panels its projections
    /// received, which its backward reads as it would a recompute's; below
    /// it, each layer's input (with `checkpoint`) or full cache. A
    /// recompute of the top layer would repeat the forward just run —
    /// input, panels and row statistics alike — so backward re-runs only
    /// the layers below it. A sweep whose backward waits for other sweeps'
    /// forwards (a pipeline stage before the last) keeps [`Keep::Inputs`]
    /// or [`Keep::Caches`] instead: the top cache and its panels would
    /// outlive them.
    TopCache { checkpoint: bool },
}

/// One layer's share of a forward sweep's state.
enum Kept<P> {
    Input(Tensor),
    Cache(Box<LayerCache<P>>),
}

/// Panics unless `ids` holds `rows` ids, all below `vocab`. Every entry
/// point that takes tokens or labels calls this before issuing anything.
pub fn check_ids(what: &str, ids: &[usize], rows: usize, vocab: usize) {
    assert_eq!(ids.len(), rows, "expected b*s {what} ids");
    for &id in ids {
        assert!(id < vocab, "{what} {id} out of vocab {vocab}");
    }
}

/// [`check_ids`] against the rows and vocabulary of this device's view.
fn check<L: Lowering>(low: &L, what: &str, ids: &[usize]) {
    let view = low.attn_view();
    check_ids(what, ids, view.tokens(), view.vocab);
}

/// Checks this device's `tokens` and `labels` before a training step.
pub fn check_batch<L: Lowering>(low: &L, tokens: &[usize], labels: &[usize]) {
    check(low, "token", tokens);
    check(low, "label", labels);
}

/// Runs `x` up through `layers`, keeping per layer what `keep` says.
/// Returns the last layer's output and the kept state, bottom layer first.
fn sweep_forward<L: Lowering>(
    low: &L,
    layers: &[LayerTensors],
    v: &Region,
    mut x: Tensor,
    keep: Keep,
    meter: &mut MemMeter,
) -> (Tensor, Vec<Kept<L::Panels>>) {
    let mut kept = Vec::new();
    for (l, p) in layers.iter().enumerate() {
        let top = matches!(keep, Keep::TopCache { .. }) && l + 1 == layers.len();
        let run = Run::Forward(top.then(Default::default));
        let (y, cache) = layer_pass(low, p, v.layer(l), &x, run);
        match keep {
            Keep::Nothing => {}
            Keep::Inputs | Keep::TopCache { checkpoint: true } if !top => {
                meter.alloc(bytes(&x));
                kept.push(Kept::Input(x));
            }
            _ => {
                meter.alloc(cache.bytes());
                kept.push(Kept::Cache(Box::new(cache)));
            }
        }
        x = y.expect("a forward has an output");
    }
    (x, kept)
}

/// Tied LM head: `logits = H·Eᵀ` on this device's blocks.
pub fn logits<L: Lowering>(low: &L, hidden: &Tensor, table: &Tensor) -> Tensor {
    low.gemm(
        Form::NT,
        Role::Contract,
        hidden,
        table,
        &L::Panels::default(),
        None,
    )
}

/// Cross-entropy over logits whose vocabulary columns may be split across
/// devices (paper Section 3.2.2): per-row max, `Σexp` and label logit are
/// completed over the vocabulary, then the softmax-minus-onehot gradient is
/// local. Returns the lowering's mean loss and the local `dlogits` block,
/// both scaled by `1 / total_rows`.
pub fn cross_entropy<L: Lowering>(
    low: &L,
    logits: &Tensor,
    labels: &[usize],
    total_rows: usize,
) -> (f32, Tensor) {
    assert_eq!(labels.len(), logits.rows());
    let off = low.vocab_block() * logits.cols();
    let mut m = partial_row_max(logits);
    low.complete_vocab(Reduce::Max, &mut m);
    // `Σexp` and the label logit complete in one call, as interleaved row
    // pairs (see `tensor::layernorm` for why the sums keep their bits).
    let se = partial_sumexp(logits, &m);
    let ll = partial_label_logit(logits, labels, off);
    let mut pairs = recycler::take(2 * se.len());
    for (p, (&s, &l)) in pairs.chunks_mut(2).zip(se.iter().zip(&ll)) {
        p.copy_from_slice(&[s, l]);
    }
    low.complete_vocab(Reduce::Sum, &mut pairs);
    let (se, ll): (Vec<f32>, Vec<f32>) = pairs.chunks(2).map(|p| (p[0], p[1])).unzip();
    recycler::give(pairs);
    let local_sum: f64 = (0..logits.rows())
        .map(|r| (m[r] + se[r].ln() - ll[r]) as f64)
        .sum();
    let loss = low.mean_loss(local_sum, total_rows);
    let grad = ce_grad_local(logits, labels, off, &m, &se, 1.0 / total_rows as f32);
    (loss, grad)
}

/// Head forward and loss: returns the mean loss, `dlogits` and the table
/// panels the logits product received, which [`head_backward`] reads. The
/// logits themselves do not outlive the call; `dlogits`, the same size,
/// carries their metered bytes until [`head_backward`].
pub fn head_loss<L: Lowering>(
    low: &L,
    table: &Tensor,
    hidden: &Tensor,
    labels: &[usize],
    total_rows: usize,
    meter: &mut MemMeter,
) -> (f32, Tensor, L::Panels) {
    let mut panels = L::Panels::default();
    let from = &L::Panels::default();
    let logits = low.gemm(
        Form::NT,
        Role::Contract,
        hidden,
        table,
        from,
        Some(&mut panels),
    );
    meter.alloc(bytes(&logits));
    let (loss, dlogits) = cross_entropy(low, &logits, labels, total_rows);
    (loss, dlogits, panels)
}

/// Tied head backward (paper Eq. 3): returns `dH = dL·E` and adds
/// `dE = dLᵀ·H` to `d_table`. `dL·E` reads the table panels [`head_loss`]
/// kept and keeps the `dL` panels it receives, which `dLᵀ·H` then reads.
pub fn head_backward<L: Lowering>(
    low: &L,
    table: &Tensor,
    hidden: &Tensor,
    dlogits: Tensor,
    table_panels: L::Panels,
    d_table: &mut Tensor,
    meter: &mut MemMeter,
) -> Tensor {
    let mut dl_panels = L::Panels::default();
    let dh = low.gemm(
        Form::NN,
        Role::Contract,
        &dlogits,
        table,
        &table_panels,
        Some(&mut dl_panels),
    );
    drop(table_panels);
    let de = low.gemm(Form::TN, Role::Contract, &dlogits, hidden, &dl_panels, None);
    d_table.add_assign(&de);
    meter.free(bytes(&dlogits));
    dh
}

/// Forward-only stem: embedding → layers → final layer norm, the stem's
/// vectors loaded in one region first.
pub fn hidden_states<L: Lowering>(low: &L, p: &StemRef, tokens: &[usize]) -> Tensor {
    check(low, "token", tokens);
    let v = Region::load(low, Some(p.final_ln), p.layers);
    let x = low.embed(p.table, tokens);
    let (y, _) = sweep_forward(low, p.layers, &v, x, Keep::Nothing, &mut MemMeter::new());
    norm(low, &y, v.final_ln()).0
}

/// Mean LM loss of this device's `tokens` / `labels`, no gradients.
pub fn lm_loss<L: Lowering>(
    low: &L,
    p: &StemRef,
    tokens: &[usize],
    labels: &[usize],
    total_rows: usize,
) -> f32 {
    check(low, "label", labels);
    let hidden = hidden_states(low, p, tokens);
    let logits = logits(low, &hidden, p.table);
    cross_entropy(low, &logits, labels, total_rows).0
}

/// What a stage forward leaves for its stage backward.
pub struct Pass<P> {
    kept: Vec<Kept<P>>,
    /// Metered bytes of the stage's input block.
    block: usize,
    /// The shape of this device's table block.
    table: [usize; 2],
    top: Option<Top>,
}

/// A head stage's share of a [`Pass`]: the final layer norm's cache, output
/// and output gradient, and the table gradient the tied head began.
struct Top {
    ln: LnCache,
    hidden: Tensor,
    dhidden: Tensor,
    d_table: Tensor,
}

/// How a stage forward ends.
pub enum Out {
    /// Below the head: the stage's output block, for the stage above.
    Block(Tensor),
    /// The head stage's loss, already scaled by `1 / total_rows`.
    Loss(f32),
}

impl Out {
    /// The head stage's loss.
    pub fn loss(self) -> f32 {
        match self {
            Out::Loss(loss) => loss,
            Out::Block(_) => panic!("only a head stage has a loss"),
        }
    }
}

/// A gradient a stage backward hands its sink as soon as it is complete.
/// Vector gradients are not among them: they add up in the caller's
/// gradient region ([`Region`]).
pub enum Grad<P> {
    /// Layer `l`'s four weight gradients in field order, with the layer as
    /// `layers` yielded it, top layer first.
    Layer(usize, P, [Tensor; 4]),
    /// The table block's, last, from a stage that embeds or has the head; a
    /// stage with neither has none.
    Table(Tensor),
}

/// Where a stage backward's input gradient goes.
pub enum Bottom<'a, S: FnOnce(Tensor)> {
    /// The embedding of these tokens: scattered into the table gradient.
    Embed(&'a [usize]),
    /// The stage below, by this send.
    Send(S),
}

/// A stage forward: `input` (the embedding of the stage's tokens, or a
/// block received from the stage below) up through its layers, keeping per
/// layer what `keep` says, each layer reading its vectors from `v`. With a
/// `head` — this device's labels and the global row count — then the final
/// layer norm, the loss and the tied head's backward, whose gradients wait
/// in the [`Pass`].
pub fn stage_forward<L: Lowering>(
    low: &L,
    p: &StemRef,
    v: &Region,
    input: impl FnOnce() -> Tensor,
    head: Option<(&[usize], usize)>,
    keep: Keep,
    meter: &mut MemMeter,
) -> (Pass<L::Panels>, Out) {
    let (y, ln, kept, block) = low.scope(Span::Fwd, || {
        let x = input();
        // One activation block is in flight from here to the stage's input
        // gradient: `x` going up, its gradient coming down.
        let block = bytes(&x);
        meter.alloc(block);
        let (y, kept) = sweep_forward(low, p.layers, v, x, keep, meter);
        if head.is_none() {
            return (y, None, kept, block);
        }
        let (hidden, ln) = norm(low, &y, v.final_ln());
        meter.alloc(bytes(&hidden));
        (hidden, Some(ln), kept, block)
    });
    let table = [p.table.rows(), p.table.cols()];
    let (top, out) = match (head, ln) {
        (Some((labels, total_rows)), Some(ln)) => {
            let mut d_table = Tensor::zeros(&table);
            let (loss, dhidden) = low.scope(Span::LossHead, || {
                let (loss, dlogits, panels) =
                    head_loss(low, p.table, &y, labels, total_rows, meter);
                let dhidden = head_backward(low, p.table, &y, dlogits, panels, &mut d_table, meter);
                (loss, dhidden)
            });
            let top = Top {
                ln,
                hidden: y,
                dhidden,
                d_table,
            };
            (Some(top), Out::Loss(loss))
        }
        _ => (None, Out::Block(y)),
    };
    (
        Pass {
            kept,
            block,
            table,
            top,
        },
        out,
    )
}

/// A stage backward from its [`Pass`]: the gradient of the final layer
/// norm's output (a head stage) or the received gradient `dy` of the
/// stage's output runs down through `layers`, top layer first, popping each
/// layer's cache or recomputing it from the kept input with its vectors
/// from `v` (keeping the panels the recompute received for the layer's
/// backward); then `bottom` takes the gradient of the stage's input — the
/// embedding backward into the table gradient, or a send to the stage
/// below. Each weight and table gradient goes to `sink` as soon as it is
/// complete; each vector gradient is added to `dv`, which the caller
/// reduces once after its last stage backward. A cache the forward kept
/// with its panels ([`Keep::TopCache`]) is read exactly like a recompute's,
/// and lends its panels' storage to the next recompute.
///
/// `layers` yields `&LayerTensors` or, when the sink updates parameters in
/// place, `&mut LayerTensors`; nothing reads a layer again once the sink
/// has had it.
#[allow(clippy::too_many_arguments)]
pub fn stage_backward<L: Lowering, P: Borrow<LayerTensors>>(
    low: &L,
    layers: impl ExactSizeIterator<Item = P> + DoubleEndedIterator,
    v: &Region,
    pass: Pass<L::Panels>,
    dy: Option<Tensor>,
    bottom: Bottom<impl FnOnce(Tensor)>,
    meter: &mut MemMeter,
    dv: &mut Region,
    mut sink: impl FnMut(Grad<P>),
) {
    let mut kept = pass.kept;
    assert_eq!(kept.len(), layers.len(), "one kept entry per layer");
    low.scope(Span::Bwd, || {
        let (mut dy, mut d_table) = match (pass.top, dy) {
            (Some(top), None) => {
                let dx = ln_backward(low, &top.dhidden, &top.ln, dv.final_ln_mut());
                meter.free(bytes(&top.hidden));
                drop((top.hidden, top.ln, top.dhidden));
                (dx, Some(top.d_table))
            }
            (None, Some(dy)) => (dy, None),
            _ => panic!("a head stage's backward starts at its loss, any other at dy"),
        };
        // Each recompute's panels take over the storage of the previous
        // layer's, which its backward has finished reading.
        let mut spare: [L::Panels; 4] = Default::default();
        for (l, p) in layers.enumerate().rev() {
            let (mut cache, input_bytes) = match kept.pop().expect("one kept entry per layer") {
                Kept::Cache(cache) => (*cache, 0),
                Kept::Input(x) => {
                    let run = Run::Recompute(std::mem::take(&mut spare));
                    let (_, cache) = layer_pass(low, p.borrow(), v.layer(l), &x, run);
                    meter.alloc(cache.bytes());
                    (cache, bytes(&x))
                }
            };
            let (dx, grads) = layer_grads(low, p.borrow(), &cache, &dy, dv.layer_mut(l));
            spare = std::mem::take(&mut cache.panels);
            meter.free(cache.bytes() + input_bytes);
            sink(Grad::Layer(l, p, grads));
            dy = dx;
        }
        match bottom {
            Bottom::Embed(tokens) => {
                let d_table = d_table.get_or_insert_with(|| Tensor::zeros(&pass.table));
                low.embed_backward(d_table, &dy, tokens);
            }
            Bottom::Send(send) => send(dy),
        }
        meter.free(pass.block);
        if let Some(d_table) = d_table {
            sink(Grad::Table(d_table));
        }
    });
}

/// The collecting and accumulating sink for weight and table gradients: the
/// first stage backward's are moved in as they complete, each later one's
/// added to them.
#[derive(Default)]
pub struct Grads {
    /// Each layer's weight gradients, bottom layer first.
    layers: Vec<Option<[Tensor; 4]>>,
    table: Option<Tensor>,
}

impl Grads {
    /// An empty sink.
    pub fn new() -> Self {
        Grads::default()
    }

    /// Takes one completed gradient.
    pub fn put<P>(&mut self, g: Grad<P>) {
        match g {
            Grad::Layer(l, _, w) => {
                if self.layers.len() <= l {
                    self.layers.resize_with(l + 1, || None);
                }
                match &mut self.layers[l] {
                    Some(sum) => sum.iter_mut().zip(&w).for_each(|(a, b)| a.add_assign(b)),
                    slot => *slot = Some(w),
                }
            }
            Grad::Table(d) => match &mut self.table {
                Some(sum) => sum.add_assign(&d),
                slot => *slot = Some(d),
            },
        }
    }

    /// Every completed stage backward's gradients, summed, with the vector
    /// gradients of the region `dv` as `low` hosts them. A stage that
    /// neither embeds nor has the head reports a zero gradient for its
    /// `table`, made here once.
    pub fn finish<L: Lowering>(self, low: &L, dv: &Region, table: &Tensor) -> ModelTensors {
        let ([final_ln_g, final_ln_b], vectors) = dv.hosted(low);
        let layers = self.layers.into_iter().zip(vectors);
        let layer = |(w, v): (Option<_>, _)| {
            LayerTensors::from_parts(w.expect("a completed stage backward"), v)
        };
        ModelTensors {
            embedding: self.table.unwrap_or_else(|| Tensor::zeros(table.dims())),
            layers: layers.map(layer).collect(),
            final_ln_g,
            final_ln_b,
        }
    }
}

/// The forward half of a whole stem held by one device (group): the stem's
/// vectors travel in one region, then the stage forward from the embedding
/// of `tokens` to the loss. With `checkpoint`, only each layer's input is
/// kept, except the top layer's cache ([`Keep::TopCache`]).
fn forward<L: Lowering>(
    low: &L,
    p: &StemRef,
    tokens: &[usize],
    labels: &[usize],
    total_rows: usize,
    checkpoint: bool,
    meter: &mut MemMeter,
) -> (f32, Region, Pass<L::Panels>) {
    check_batch(low, tokens, labels);
    let v = Region::load(low, Some(p.final_ln), p.layers);
    let (input, keep) = (|| low.embed(p.table, tokens), Keep::TopCache { checkpoint });
    let (pass, out) = stage_forward(low, p, &v, input, Some((labels, total_rows)), keep, meter);
    (out.loss(), v, pass)
}

/// The backward half after [`forward`]: the stage backward down to the
/// embedding, each weight and table gradient to `sink`, then the one reduce
/// of the vector gradients, which it returns.
fn backward<L: Lowering, P: Borrow<LayerTensors>>(
    low: &L,
    layers: impl ExactSizeIterator<Item = P> + DoubleEndedIterator,
    (v, pass): (Region, Pass<L::Panels>),
    tokens: &[usize],
    meter: &mut MemMeter,
    sink: impl FnMut(Grad<P>),
) -> Region {
    let mut dv = Region::vectors(low, layers.len(), true);
    let bottom = Bottom::<fn(Tensor)>::Embed(tokens);
    stage_backward(low, layers, &v, pass, None, bottom, meter, &mut dv, sink);
    dv.reduce(low);
    dv
}

/// Forward + backward over a whole stem held by one device (group): returns
/// the loss and every gradient. The stem's vectors travel in one region
/// before the forward and their gradients in one after the backward. With
/// `checkpoint`, only each layer's input is kept and the layer is
/// recomputed inside the reverse sweep, except the top layer, whose cache
/// the forward keeps ([`Keep::TopCache`]). `meter` sees the step's pinned
/// activation bytes.
pub fn lm_grads<L: Lowering>(
    low: &L,
    p: &StemRef,
    tokens: &[usize],
    labels: &[usize],
    total_rows: usize,
    checkpoint: bool,
    meter: &mut MemMeter,
) -> (f32, ModelTensors) {
    let (loss, v, pass) = forward(low, p, tokens, labels, total_rows, checkpoint, meter);
    (loss, collect(low, p, (v, pass), tokens, meter))
}

/// [`backward`] into a collecting sink: every gradient of the stem.
fn collect<L: Lowering>(
    low: &L,
    p: &StemRef,
    fwd: (Region, Pass<L::Panels>),
    tokens: &[usize],
    meter: &mut MemMeter,
) -> ModelTensors {
    let mut grads = Grads::new();
    let dv = backward(low, p.layers.iter(), fwd, tokens, meter, |g| grads.put(g));
    grads.finish(low, &dv, p.table)
}

/// One training step under `opt` over a whole stem held by one device
/// (group), forward and backward as in [`lm_grads`]. Returns the pre-update
/// loss and the clip scale (1 unless [`Optimizer::Clipped`]).
///
/// Under [`Optimizer::Sgd`] and [`Optimizer::Adam`] this is the paper's
/// method (2) (Section 3.2.3): the backward's sink applies each weight and
/// table gradient as soon as it is complete and drops it, so no layer's
/// weight gradients outlive its backward; the vectors update after their
/// one reduce. Each tensor is updated by its index in the canonical walk,
/// where Adam keeps its moments, in whatever order the gradients complete.
/// Both rules are elementwise, Adam's step count advances once per step,
/// and no backward reads a layer above it, so the parameters end bitwise
/// where collecting first would leave them. [`Optimizer::Clipped`] needs
/// the global norm before any update: it collects every gradient and then
/// takes [`Optimizer::step`].
#[allow(clippy::too_many_arguments)]
pub fn step<L: Lowering>(
    low: &L,
    mut p: StemMut,
    tokens: &[usize],
    labels: &[usize],
    total_rows: usize,
    checkpoint: bool,
    meter: &mut MemMeter,
    opt: &mut Optimizer,
) -> (f32, f32) {
    let stem = p.view();
    let (loss, v, pass) = forward(low, &stem, tokens, labels, total_rows, checkpoint, meter);
    if let Optimizer::Clipped { .. } = opt {
        let grads = collect(low, &stem, (v, pass), tokens, meter);
        return (loss, low.scope(Span::Update, || opt.step(low, p, &grads)));
    }
    let mut update = opt.update(&stem, true, true, 1.0);
    let StemMut { table, layers, .. } = &mut p;
    let sink = |g| match g {
        Grad::Layer(l, w, g) => {
            let weights = weight_fields(l).zip(LayerTensors::weights_mut(w)).zip(&g);
            weights.for_each(|((i, w), g)| update.apply(i, w.as_mut_slice(), g.as_slice()));
        }
        Grad::Table(d) => update.apply(0, table.as_mut_slice(), d.as_slice()),
    };
    let mut dv = backward(low, layers.iter_mut(), (v, pass), tokens, meter, sink);
    dv.walk(p, &mut |i, p, g| update.apply(i, p, g));
    (loss, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meter_tracks_peak() {
        let mut m = MemMeter::new();
        m.alloc(100);
        m.alloc(50);
        m.free(120);
        m.alloc(10);
        assert_eq!(m.current(), 40);
        assert_eq!(m.peak(), 150);
    }

    #[test]
    #[should_panic(expected = "freeing more")]
    fn meter_rejects_overfree() {
        let mut m = MemMeter::new();
        m.alloc(10);
        m.free(11);
    }
}
