//! The optimizer as a value: one update rule, applied to each tensor by its
//! index in the canonical walk order of [`walk_stem`], whatever the scheme
//! and whenever the tensor's gradient is complete.

use crate::layer::Lowering;
use crate::layout::{stage_uses, walk_values, Cut};
use crate::params::{walk_stage, ModelTensors};
use crate::stem::{StemMut, StemRef};
use tensor::optim::{clip_scale, sgd_update, sq_norm, Adam, AdamStep};

/// How a training step turns gradients into a parameter update.
#[derive(Clone, Debug)]
pub enum Optimizer {
    /// Plain SGD, `p -= lr·g`.
    Sgd { lr: f32 },
    /// SGD under global gradient-norm clipping: when the norm exceeds
    /// `max_norm`, every gradient is scaled down uniformly (applied as an
    /// effective learning-rate scale, which is algebraically identical).
    Clipped { lr: f32, max_norm: f64 },
    /// Adam; the state carries this device's moments across steps, laid
    /// out by walk entry over the tensors the device updates.
    Adam(Adam),
}

/// One step's update, applied to each tensor by its walk-order index.
pub(crate) enum Update<'a> {
    Sgd(f32),
    /// The step under way and where each walk entry's moments start.
    Adam(AdamStep<'a>, Vec<usize>),
}

impl Update<'_> {
    /// Updates walk entry `i`'s parameter `p` from its gradient `g`.
    pub(crate) fn apply(&mut self, i: usize, p: &mut [f32], g: &[f32]) {
        match self {
            Update::Sgd(lr) => sgd_update(p, g, *lr),
            Update::Adam(step, at) => step.apply(at[i], p, g),
        }
    }
}

impl Optimizer {
    /// One step of `grads` on `params`, one device's share of a stem under
    /// `low`, in the canonical walk order. Returns the clip scale — 1 unless
    /// [`Optimizer::Clipped`], identical on every device and to the serial
    /// model's.
    pub fn step<L: Lowering>(&mut self, low: &L, params: StemMut<'_>, grads: &ModelTensors) -> f32 {
        self.step_stage(low, params, grads, true, true)
    }

    /// [`Optimizer::step`] on a pipeline stage: the table is updated only
    /// `with_table` and the final layer norm only `with_final` (the rule
    /// [`crate::Region::synced`] follows), so Adam keeps no moments for
    /// tensors whose gradients are always zero.
    pub fn step_stage<L: Lowering>(
        &mut self,
        low: &L,
        params: StemMut<'_>,
        grads: &ModelTensors,
        with_table: bool,
        with_final: bool,
    ) -> f32 {
        let scale = match self {
            Optimizer::Clipped { max_norm, .. } => {
                clip_scale(global_sq_norm(low, grads), *max_norm)
            }
            _ => 1.0,
        };
        let mut update = self.update(&params.view(), with_table, with_final, scale);
        walk_stage(params, grads, with_table, with_final, &mut |i, p, g| {
            update.apply(i, p, g)
        });
        scale
    }

    /// This step's update of `params`, the learning rate scaled by `scale`
    /// (a clip scale). Adam's moments are laid out by walk entry over the
    /// tensors hosted here that the stage uses ([`walk_stage`]'s rule).
    pub(crate) fn update(
        &mut self,
        params: &StemRef<'_>,
        with_table: bool,
        with_final: bool,
        scale: f32,
    ) -> Update<'_> {
        match self {
            Optimizer::Sgd { lr } | Optimizer::Clipped { lr, .. } => Update::Sgd(*lr * scale),
            Optimizer::Adam(adam) => {
                let mut at = vec![0];
                for (i, (_, p)) in walk_values(params).enumerate() {
                    let used = stage_uses(i, with_table, with_final);
                    at.push(at[i] + usize::from(used) * p.len());
                }
                let n = at.pop().expect("a walk");
                Update::Adam(adam.step(n), at)
            }
        }
    }
}

/// The squared norm of every gradient of the model, identical on every
/// device: squares of pieces cut across devices are completed over them
/// ([`Lowering::complete_norm`]), those of tensors every device holds whole
/// added once, locally. Both sums run in `f64` and in walk order.
fn global_sq_norm<L: Lowering>(low: &L, grads: &ModelTensors) -> f64 {
    let (mut cut, mut whole) = (0.0f64, 0.0f64);
    for (slot, g) in walk_values(&grads.stem()) {
        match low.place(slot) {
            Cut::WHOLE => whole += sq_norm(g),
            _ => cut += sq_norm(g),
        }
    }
    low.complete_norm(cut) + whole
}
