//! The optimizer as a value: one update rule, applied by one walk over a
//! stem in the canonical order of [`walk_stem`], whatever the scheme.

use crate::layer::Lowering;
use crate::layout::{walk_values, Cut};
use crate::params::{walk_stage, ModelTensors};
use crate::stem::StemMut;
use tensor::optim::{clip_scale, sgd_update, sq_norm, AdamSet};

/// How a training step turns gradients into a parameter update.
#[derive(Clone, Debug)]
pub enum Optimizer {
    /// Plain SGD, `p -= lr·g`.
    Sgd { lr: f32 },
    /// SGD under global gradient-norm clipping: when the norm exceeds
    /// `max_norm`, every gradient is scaled down uniformly (applied as an
    /// effective learning-rate scale, which is algebraically identical).
    Clipped { lr: f32, max_norm: f64 },
    /// Adam; the set carries this device's moments across steps.
    Adam(AdamSet),
}

impl Optimizer {
    /// One step of `grads` on `params`, one device's share of a stem under
    /// `low`, in the canonical walk order. Returns the clip scale — 1 unless
    /// [`Optimizer::Clipped`], identical on every device and to the serial
    /// model's.
    pub fn step<L: Lowering>(
        &mut self,
        low: &L,
        params: StemMut<'_, L::Hosted>,
        grads: &ModelTensors<L::Hosted>,
    ) -> f32 {
        self.step_stage(low, params, grads, true, true)
    }

    /// [`Optimizer::step`] on a pipeline stage: the table is updated only
    /// `with_table` and the final layer norm only `with_final`
    /// ([`walk_stage`]), so Adam keeps no moments for tensors whose
    /// gradients are always zero.
    pub fn step_stage<L: Lowering>(
        &mut self,
        low: &L,
        params: StemMut<'_, L::Hosted>,
        grads: &ModelTensors<L::Hosted>,
        with_table: bool,
        with_final: bool,
    ) -> f32 {
        let (lr, scale) = match self {
            Optimizer::Sgd { lr } => (*lr, 1.0),
            Optimizer::Clipped { lr, max_norm } => {
                (*lr, clip_scale(global_sq_norm(low, grads), *max_norm))
            }
            Optimizer::Adam(opt) => {
                opt.begin_step();
                walk_stage(params, grads, with_table, with_final, &mut |p, g| {
                    opt.apply(p, g)
                });
                return 1.0;
            }
        };
        let lr = lr * scale;
        walk_stage(params, grads, with_table, with_final, &mut |p, g| {
            sgd_update(p, g, lr)
        });
        scale
    }
}

/// The squared norm of every gradient of the model, identical on every
/// device: squares of pieces cut across devices are completed over them
/// ([`Lowering::complete_norm`]), those of tensors every device holds whole
/// added once, locally. Both sums run in `f64` and in walk order.
fn global_sq_norm<L: Lowering>(low: &L, grads: &ModelTensors<L::Hosted>) -> f64 {
    let (mut cut, mut whole) = (0.0f64, 0.0f64);
    for (slot, g) in walk_values(&grads.stem()) {
        let Some(g) = g else { continue };
        match low.place(slot) {
            Cut::WHOLE => whole += sq_norm(g),
            _ => cut += sq_norm(g),
        }
    }
    low.complete_norm(cut) + whole
}
