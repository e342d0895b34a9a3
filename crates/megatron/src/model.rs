//! The full 1D tensor-parallel stem: vocab-parallel embedding → N parallel
//! layers → replicated final layer norm → tied vocab-parallel LM head →
//! vocab-parallel cross-entropy.

use crate::layer::Megatron1d;
use crate::params::{Layer1dParams, MegatronConfig};
use mesh::{Communicator, Group};
use serial::stem::{self, MemMeter, StemRef};
use serial::{walk_stem, ModelParams, ModelTensors, Optimizer, StemMut};
use tensor::optim::sgd_update;
use tensor::{recycler, Tensor};

/// One device's shard of the Megatron model.
pub struct MegatronModel {
    pub cfg: MegatronConfig,
    pub rank: usize,
    pub world: Group,
    /// Vocabulary slice `[v/p, h]`: rows `rank·v/p ..` of the full table.
    pub table: Tensor,
    pub layers: Vec<Layer1dParams>,
    pub final_ln_g: Vec<f32>,
    pub final_ln_b: Vec<f32>,
}

impl MegatronModel {
    /// Builds this device's shard of the model `seed` initialises, drawing
    /// only this device's pieces ([`serial::init`]).
    pub fn new<C: Communicator>(cfg: MegatronConfig, seed: u64, ctx: &C) -> Self {
        let layers = 0..cfg.model.layers;
        MegatronModel::build(cfg, ctx, |low| serial::init(low, seed, &cfg.model, layers))
    }

    /// Builds a device's shard from explicit canonical parameters (the
    /// inverse of [`MegatronModel::gather_params`]), cut by [`Megatron1d`]'s
    /// placement table. Panics naming any tensor whose shape does not match
    /// `cfg.model`.
    pub fn from_params<C: Communicator>(
        cfg: MegatronConfig,
        params: &ModelParams,
        ctx: &C,
    ) -> Self {
        MegatronModel::build(cfg, ctx, |low| serial::shard(low, params, &cfg.model))
    }

    /// Builds this device's shard from the tensors `tensors` makes under
    /// [`Megatron1d`]'s placement table.
    fn build<C: Communicator>(
        cfg: MegatronConfig,
        ctx: &C,
        tensors: impl FnOnce(&Megatron1d<C>) -> ModelTensors,
    ) -> Self {
        assert_eq!(ctx.world_size(), cfg.p, "mesh size must equal cfg.p");
        let world = Group::world(cfg.p);
        let t = tensors(&Megatron1d {
            ctx,
            world: &world,
            cfg: &cfg,
        });
        MegatronModel {
            cfg,
            rank: ctx.rank(),
            world,
            table: t.embedding,
            layers: t.layers,
            final_ln_g: t.final_ln_g,
            final_ln_b: t.final_ln_b,
        }
    }

    /// Gathers every parameter to rank 0 and reassembles the canonical
    /// [`ModelParams`]: split tensors over the world, replicated ones from
    /// rank 0's own copy. All devices must call this together.
    pub fn gather_params<C: Communicator>(&self, ctx: &C) -> Option<ModelParams> {
        serial::gather(&self.low(ctx), &self.stem())
    }

    fn low<'a, C: Communicator>(&'a self, ctx: &'a C) -> Megatron1d<'a, C> {
        Megatron1d {
            ctx,
            world: &self.world,
            cfg: &self.cfg,
        }
    }

    fn stem(&self) -> StemRef<'_> {
        StemRef {
            table: &self.table,
            layers: &self.layers,
            final_ln: [&self.final_ln_g, &self.final_ln_b],
        }
    }

    fn stem_mut(&mut self) -> StemMut<'_> {
        StemMut {
            table: &mut self.table,
            layers: &mut self.layers,
            final_ln: [&mut self.final_ln_g, &mut self.final_ln_b],
        }
    }

    /// Stem forward; the returned hidden states `[b·s, h]` are replicated.
    pub fn hidden_states<C: Communicator>(&self, ctx: &C, tokens: &[usize]) -> Tensor {
        stem::hidden_states(&self.low(ctx), &self.stem(), tokens)
    }

    /// Mean LM loss (identical on every device).
    pub fn lm_loss<C: Communicator>(&self, ctx: &C, tokens: &[usize], labels: &[usize]) -> f32 {
        let rows = self.cfg.model.tokens();
        stem::lm_loss(&self.low(ctx), &self.stem(), tokens, labels, rows)
    }

    /// Forward + backward; returns the loss and this device's gradients
    /// (every parameter it owns plus its replicas of the shared ones, the
    /// table gradient its vocabulary slice).
    ///
    /// Honors `cfg.checkpoint`: when set, only each layer's replicated
    /// input is kept during forward and the layer is recomputed (including
    /// its two all-reduces — the source of Table 1's `8(p−1)/p·bsh`
    /// backward communication) inside the backward sweep. The top layer's
    /// forward keeps its cache instead, so a step makes `L − 1` recomputes.
    pub fn lm_grads<C: Communicator>(
        &self,
        ctx: &C,
        tokens: &[usize],
        labels: &[usize],
    ) -> (f32, ModelTensors) {
        let (rows, checkpoint) = (self.cfg.model.tokens(), self.cfg.checkpoint);
        let meter = &mut MemMeter::new();
        let (low, stem) = (self.low(ctx), self.stem());
        stem::lm_grads(&low, &stem, tokens, labels, rows, checkpoint, meter)
    }

    /// One training step under `opt` ([`stem::step`]: SGD updates each
    /// gradient as soon as it is complete, honoring `cfg.checkpoint`);
    /// returns the pre-update loss and the clip scale (1 unless
    /// [`Optimizer::Clipped`]). Replicated parameters see identical
    /// gradients on every device, so per-device optimizer states stay in
    /// sync.
    pub fn step<C: Communicator>(
        &mut self,
        ctx: &C,
        tokens: &[usize],
        labels: &[usize],
        opt: &mut Optimizer,
    ) -> (f32, f32) {
        let (cfg, world) = (self.cfg, self.world.clone());
        let low = Megatron1d {
            ctx,
            world: &world,
            cfg: &cfg,
        };
        let (rows, meter) = (cfg.model.tokens(), &mut MemMeter::new());
        let stem = self.stem_mut();
        stem::step(&low, stem, tokens, labels, rows, cfg.checkpoint, meter, opt)
    }

    /// One SGD step; returns the pre-update loss.
    pub fn train_step<C: Communicator>(
        &mut self,
        ctx: &C,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        self.step(ctx, tokens, labels, &mut Optimizer::Sgd { lr }).0
    }

    /// Greedy next-token prediction: each device holds a `[b·s, v/p]`
    /// logits slice; the final-position slices are all-gathered across the
    /// world (group order = rank = vocabulary order) and argmaxed.
    pub fn greedy_next<C: Communicator>(&self, ctx: &C, tokens: &[usize]) -> Vec<usize> {
        let hidden = self.hidden_states(ctx, tokens);
        let logits = stem::logits(&self.low(ctx), &hidden, &self.table);
        let s = self.cfg.model.seq;
        (0..self.cfg.model.batch)
            .map(|b| {
                let last = logits.row(b * s + s - 1);
                let full = ctx.all_gather(&self.world, last);
                let next = full
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .expect("non-empty vocab")
                    .0;
                recycler::give(full);
                next
            })
            .collect()
    }

    /// Plain SGD over all local parameters.
    pub fn apply_sgd(&mut self, grads: &ModelTensors, lr: f32) {
        walk_stem(self.stem_mut(), grads, &mut |p, g| sgd_update(p, g, lr));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Mesh;
    use serial::{ModelConfig, SerialModel};
    use tensor::Rng;

    fn data(cfg: &ModelConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let tokens = (0..cfg.tokens()).map(|_| rng.below(cfg.vocab)).collect();
        let labels = (0..cfg.tokens()).map(|_| rng.below(cfg.vocab)).collect();
        (tokens, labels)
    }

    #[test]
    fn loss_matches_serial_reference() {
        let model_cfg = ModelConfig {
            heads: 4,
            ..ModelConfig::tiny()
        };
        let (tokens, labels) = data(&model_cfg, 10);
        let reference = SerialModel::new(model_cfg, 7).lm_loss(&tokens, &labels);
        for p in [1usize, 2, 4] {
            let cfg = MegatronConfig::new(model_cfg, p);
            let losses = Mesh::run(p, |ctx| {
                MegatronModel::new(cfg, 7, ctx).lm_loss(ctx, &tokens, &labels)
            });
            for l in losses {
                assert!(
                    (l - reference).abs() < 1e-4,
                    "p={p}: megatron={l} serial={reference}"
                );
            }
        }
    }

    #[test]
    fn training_trajectory_matches_serial() {
        // Several SGD steps must track the serial model step for step —
        // this exercises every parameter gradient in the scheme.
        let model_cfg = ModelConfig::tiny();
        let (tokens, labels) = data(&model_cfg, 11);
        let mut reference = SerialModel::new(model_cfg, 9);
        let ref_losses: Vec<f32> = (0..4)
            .map(|_| reference.train_step(&tokens, &labels, 0.2))
            .collect();
        let cfg = MegatronConfig::new(model_cfg, 2);
        let losses = Mesh::run(cfg.p, |ctx| {
            let mut m = MegatronModel::new(cfg, 9, ctx);
            (0..4)
                .map(|_| m.train_step(ctx, &tokens, &labels, 0.2))
                .collect::<Vec<f32>>()
        });
        for dev in &losses {
            for (a, b) in dev.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 2e-3, "megatron={a} serial={b}");
            }
        }
    }

    #[test]
    fn checkpointing_is_numerically_identical() {
        let model_cfg = ModelConfig::tiny();
        let (tokens, labels) = data(&model_cfg, 14);
        let run = |checkpoint: bool| {
            let cfg = if checkpoint {
                MegatronConfig::new(model_cfg, 2).with_checkpoint()
            } else {
                MegatronConfig::new(model_cfg, 2)
            };
            Mesh::run(cfg.p, |ctx| {
                let mut m = MegatronModel::new(cfg, 4, ctx);
                (0..3)
                    .map(|_| m.train_step(ctx, &tokens, &labels, 0.2))
                    .collect::<Vec<f32>>()
            })
        };
        let plain = run(false);
        let ckpt = run(true);
        // One sweep body: recomputing a layer repeats its forward bit for bit.
        let bits = |l: &[Vec<f32>]| -> Vec<Vec<u32>> {
            (l.iter().map(|d| d.iter().map(|x| x.to_bits()).collect())).collect()
        };
        assert_eq!(bits(&plain), bits(&ckpt));
    }

    #[test]
    fn gradients_are_consistent_across_devices_for_replicated_params() {
        let model_cfg = ModelConfig::tiny();
        let (tokens, labels) = data(&model_cfg, 12);
        let cfg = MegatronConfig::new(model_cfg, 2);
        let outs = Mesh::run(cfg.p, |ctx| {
            let m = MegatronModel::new(cfg, 3, ctx);
            let (_, g) = m.lm_grads(ctx, &tokens, &labels);
            (g.final_ln_g, g.layers[0].b_out.clone())
        });
        assert_eq!(outs[0].0, outs[1].0);
        assert_eq!(outs[0].1, outs[1].1);
    }

    #[test]
    fn gather_recovers_initial_parameters() {
        let model_cfg = ModelConfig::tiny();
        let cfg = MegatronConfig::new(model_cfg, 2);
        let gathered = Mesh::run(2, |ctx| MegatronModel::new(cfg, 13, ctx).gather_params(ctx));
        let full = serial::ModelParams::init(13, &model_cfg);
        let got = gathered[0].as_ref().expect("rank 0 has the params");
        assert_eq!(got.embedding, full.embedding);
        assert_eq!(got.layers[0].w_qkv, full.layers[0].w_qkv);
        assert_eq!(got.layers[1].w_fc1, full.layers[1].w_fc1);
        assert_eq!(got.layers[0].b_qkv, full.layers[0].b_qkv);
        assert!(gathered[1].is_none());
    }

    #[test]
    fn trained_gathered_params_match_serial() {
        let model_cfg = ModelConfig::tiny();
        let cfg = MegatronConfig::new(model_cfg, 2);
        let (tokens, labels) = data(&model_cfg, 0);
        let gathered = Mesh::run(2, |ctx| {
            let mut m = MegatronModel::new(cfg, 21, ctx);
            for _ in 0..3 {
                m.train_step(ctx, &tokens, &labels, 0.2);
            }
            m.gather_params(ctx)
        });
        let mut reference = SerialModel::new(model_cfg, 21);
        for _ in 0..3 {
            reference.train_step(&tokens, &labels, 0.2);
        }
        let got = gathered[0].as_ref().unwrap();
        tensor::assert_close(
            got.embedding.as_slice(),
            reference.params.embedding.as_slice(),
            1e-4,
            1e-3,
        );
        tensor::assert_close(
            got.layers[1].w_qkv.as_slice(),
            reference.params.layers[1].w_qkv.as_slice(),
            1e-4,
            1e-3,
        );
    }
}
