//! The stem around the layer — embedding → layers → final layer norm → tied
//! head + cross-entropy, and the way back — written once and lowered like
//! the layer itself.
//!
//! Three pieces, each the only copy in the workspace:
//!
//! * the **sweeps** over a slice of layers: [`sweep_forward`] keeps each
//!   layer's input (checkpointing, paper Section 3.2.3) or its
//!   [`LayerCache`]; [`sweep_backward`] recomputes or pops, runs
//!   [`layer_backward`] and hands each layer's gradients to a caller-supplied
//!   sink — collect them, add them to a running total, or apply them on the
//!   spot and drop them (the paper's immediate update);
//! * the **tied head**: [`logits`]` = H·Eᵀ`, [`cross_entropy`] over a
//!   vocabulary split across devices, and [`head_backward`]
//!   (`dH = dL·E`, `dE += dLᵀ·H`);
//! * the **single-stage compositions** [`hidden_states`], [`lm_loss`] and
//!   [`lm_grads`] that the serial, Megatron and Optimus models call; a
//!   pipeline stage composes the same pieces around its boundary send/recv.
//!
//! Like `layer`, this module issues no communication of its own: what a
//! product, a lookup or a row statistic costs is the [`Lowering`]'s business.

use crate::layer::{
    layer_backward, layer_forward, ln_backward, ln_forward, LayerCache, Lowering, Reduce, Role,
    Span,
};
use crate::params::{LayerTensors, ModelTensors};
use std::borrow::Borrow;
use tensor::gemm::Form;
use tensor::loss::{ce_grad_local, partial_label_logit, partial_row_max, partial_sumexp};
use tensor::Tensor;

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

    /// High-water mark since construction (or last [`MemMeter::reset_peak`]).
    pub fn peak(&self) -> usize {
        self.peak
    }

    /// Resets the peak to the current level.
    pub fn reset_peak(&mut self) {
        self.peak = self.current;
    }
}

fn bytes(t: &Tensor) -> usize {
    t.len() * 4
}

/// The stem parameters one device holds (for its stage), by reference.
pub struct StemRef<'a, H> {
    /// This device's block of the embedding table, tied with the LM head.
    pub table: &'a Tensor,
    pub layers: &'a [LayerTensors<H>],
    /// Final layer-norm `[γ, β]`.
    pub final_ln: [&'a H; 2],
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
}

impl Keep {
    /// What a training step keeps with or without activation checkpointing.
    pub fn training(checkpoint: bool) -> Keep {
        if checkpoint {
            Keep::Inputs
        } else {
            Keep::Caches
        }
    }
}

/// One layer's share of a forward sweep's state.
pub enum Kept {
    Input(Tensor),
    Cache(Box<LayerCache>),
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
pub fn sweep_forward<L: Lowering>(
    low: &L,
    layers: &[LayerTensors<L::Hosted>],
    mut x: Tensor,
    keep: Keep,
    meter: &mut MemMeter,
) -> (Tensor, Vec<Kept>) {
    let mut kept = Vec::new();
    for p in layers {
        let (y, cache) = layer_forward(low, p, &x);
        match keep {
            Keep::Nothing => {}
            Keep::Inputs => {
                meter.alloc(bytes(&x));
                kept.push(Kept::Input(x));
            }
            Keep::Caches => {
                meter.alloc(cache.bytes());
                kept.push(Kept::Cache(Box::new(cache)));
            }
        }
        x = y;
    }
    (x, kept)
}

/// Runs the output gradient `dy` down through `layers`, top layer first:
/// pops each layer's cache (or recomputes it from the kept input), runs
/// [`layer_backward`] and hands `(l, layer, gradients)` to `sink`. Returns
/// the gradient of the bottom layer's input.
///
/// `layers` yields `&LayerTensors` or, when the sink updates parameters in
/// place, `&mut LayerTensors`; nothing reads a layer again once the sink
/// has had it.
pub fn sweep_backward<L: Lowering, P: Borrow<LayerTensors<L::Hosted>>>(
    low: &L,
    layers: impl ExactSizeIterator<Item = P> + DoubleEndedIterator,
    mut kept: Vec<Kept>,
    mut dy: Tensor,
    meter: &mut MemMeter,
    mut sink: impl FnMut(usize, P, LayerTensors<L::Hosted>),
) -> Tensor {
    assert_eq!(kept.len(), layers.len(), "one kept entry per layer");
    for (l, p) in layers.enumerate().rev() {
        let (cache, input_bytes) = match kept.pop().expect("one kept entry per layer") {
            Kept::Cache(cache) => (*cache, 0),
            Kept::Input(x) => {
                let (_, cache) = layer_forward(low, p.borrow(), &x);
                meter.alloc(cache.bytes());
                (cache, bytes(&x))
            }
        };
        let (dx, grads) = layer_backward(low, p.borrow(), &cache, &dy);
        meter.free(cache.bytes() + input_bytes);
        sink(l, p, grads);
        dy = dx;
    }
    dy
}

/// Tied LM head: `logits = H·Eᵀ` on this device's blocks.
pub fn logits<L: Lowering>(low: &L, hidden: &Tensor, table: &Tensor) -> Tensor {
    low.gemm(Form::NT, Role::Contract, hidden, table)
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
    let mut se = partial_sumexp(logits, &m);
    low.complete_vocab(Reduce::Sum, &mut se);
    let mut ll = partial_label_logit(logits, labels, off);
    low.complete_vocab(Reduce::Sum, &mut ll);
    let local_sum: f64 = (0..logits.rows())
        .map(|r| (m[r] + se[r].ln() - ll[r]) as f64)
        .sum();
    let loss = low.mean_loss(local_sum, total_rows);
    let grad = ce_grad_local(logits, labels, off, &m, &se, 1.0 / total_rows as f32);
    (loss, grad)
}

/// Head forward and loss: returns the mean loss and `dlogits`. The logits
/// themselves do not outlive the call; `dlogits`, the same size, carries
/// their metered bytes until [`head_backward`].
pub fn head_loss<L: Lowering>(
    low: &L,
    table: &Tensor,
    hidden: &Tensor,
    labels: &[usize],
    total_rows: usize,
    meter: &mut MemMeter,
) -> (f32, Tensor) {
    let logits = logits(low, hidden, table);
    meter.alloc(bytes(&logits));
    cross_entropy(low, &logits, labels, total_rows)
}

/// Tied head backward (paper Eq. 3): returns `dH = dL·E` and adds
/// `dE = dLᵀ·H` to `d_table`.
pub fn head_backward<L: Lowering>(
    low: &L,
    table: &Tensor,
    hidden: &Tensor,
    dlogits: Tensor,
    d_table: &mut Tensor,
    meter: &mut MemMeter,
) -> Tensor {
    let dh = low.gemm(Form::NN, Role::Contract, &dlogits, table);
    let de = low.gemm(Form::TN, Role::Contract, &dlogits, hidden);
    d_table.add_assign(&de);
    meter.free(bytes(&dlogits));
    dh
}

/// Forward-only stem: embedding → layers → final layer norm.
pub fn hidden_states<L: Lowering>(low: &L, p: &StemRef<L::Hosted>, tokens: &[usize]) -> Tensor {
    check(low, "token", tokens);
    let x = low.embed(p.table, tokens);
    let (y, _) = sweep_forward(low, p.layers, x, Keep::Nothing, &mut MemMeter::new());
    ln_forward(low, &y, p.final_ln[0], p.final_ln[1]).0
}

/// Mean LM loss of this device's `tokens` / `labels`, no gradients.
pub fn lm_loss<L: Lowering>(
    low: &L,
    p: &StemRef<L::Hosted>,
    tokens: &[usize],
    labels: &[usize],
    total_rows: usize,
) -> f32 {
    check(low, "label", labels);
    let hidden = hidden_states(low, p, tokens);
    let meter = &mut MemMeter::new();
    head_loss(low, p.table, &hidden, labels, total_rows, meter).0
}

/// Forward + backward over a whole stem held by one device (group): returns
/// the loss and every gradient. With `checkpoint`, only each layer's input
/// is kept and the layer is recomputed inside the reverse sweep. `meter`
/// sees the step's pinned activation bytes.
pub fn lm_grads<L: Lowering>(
    low: &L,
    p: &StemRef<L::Hosted>,
    tokens: &[usize],
    labels: &[usize],
    total_rows: usize,
    checkpoint: bool,
    meter: &mut MemMeter,
) -> (f32, ModelTensors<L::Hosted>) {
    check_batch(low, tokens, labels);
    let [gamma, beta] = p.final_ln;

    let (kept, hidden, final_ln, block) = low.scope(Span::Fwd, || {
        let x = low.embed(p.table, tokens);
        // One activation block is in flight from here to the embedding
        // backward: `x` going up, its gradient coming down.
        let block = bytes(&x);
        meter.alloc(block);
        let (y, kept) = sweep_forward(low, p.layers, x, Keep::training(checkpoint), meter);
        let (hidden, final_ln) = ln_forward(low, &y, gamma, beta);
        meter.alloc(bytes(&hidden));
        (kept, hidden, final_ln, block)
    });

    let mut d_table = Tensor::zeros(&[p.table.rows(), p.table.cols()]);
    let (loss, dhidden) = low.scope(Span::LossHead, || {
        let (loss, dlogits) = head_loss(low, p.table, &hidden, labels, total_rows, meter);
        let dhidden = head_backward(low, p.table, &hidden, dlogits, &mut d_table, meter);
        (loss, dhidden)
    });

    let mut layers = Vec::with_capacity(p.layers.len());
    let (final_ln_g, final_ln_b) = low.scope(Span::Bwd, || {
        let (dx, g, b) = ln_backward(low, &dhidden, &final_ln);
        meter.free(bytes(&hidden));
        drop((hidden, final_ln, dhidden));
        let dx = sweep_backward(low, p.layers.iter(), kept, dx, meter, |_, _, g| {
            layers.push(g)
        });
        low.embed_backward(&mut d_table, &dx, tokens);
        meter.free(block);
        (g, b)
    });
    layers.reverse();

    let grads = ModelTensors {
        embedding: d_table,
        layers,
        final_ln_g,
        final_ln_b,
    };
    (loss, grads)
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
        m.reset_peak();
        assert_eq!(m.peak(), 40);
    }

    #[test]
    #[should_panic(expected = "freeing more")]
    fn meter_rejects_overfree() {
        let mut m = MemMeter::new();
        m.alloc(10);
        m.free(11);
    }
}
