//! The full 1D tensor-parallel stem: vocab-parallel embedding → N parallel
//! layers → replicated final layer norm → tied vocab-parallel LM head →
//! vocab-parallel cross-entropy.

use crate::embedding::{
    embed_backward, embed_forward, lm_head_backward, lm_head_forward, vocab_parallel_ce,
};
use crate::layer::{layer1d_backward, layer1d_forward};
use crate::params::{slice_layer1d, Layer1dParams, MegatronConfig};
use mesh::{Communicator, Group};
use serial::{walk_stem, LayerCache, ModelTensors};
use tensor::layernorm::{layer_norm_backward, layer_norm_forward, LnCache, LN_EPS};
use tensor::Tensor;

/// Device-local gradients for every parameter this device owns (plus its
/// replicas of the shared ones); `embedding` is the vocabulary slice.
pub type Model1dGrads = ModelTensors<Vec<f32>>;

/// Forward state of the stem.
pub struct Stem1dCache {
    pub layers: Vec<LayerCache>,
    pub final_ln: LnCache,
    pub hidden: Tensor,
}

/// One device's shard of the Megatron model.
pub struct MegatronModel {
    pub cfg: MegatronConfig,
    pub rank: usize,
    pub world: Group,
    /// Vocabulary slice `[v/p, h]` starting at [`MegatronModel::vocab_offset`].
    pub table: Tensor,
    pub vocab_offset: usize,
    pub layers: Vec<Layer1dParams>,
    pub final_ln_g: Vec<f32>,
    pub final_ln_b: Vec<f32>,
}

impl MegatronModel {
    /// Builds this device's shard by slicing the canonical full parameters.
    pub fn new<C: Communicator>(cfg: MegatronConfig, seed: u64, ctx: &C) -> Self {
        assert_eq!(ctx.world_size(), cfg.p, "mesh size must equal cfg.p");
        let full = serial::ModelParams::init(seed, &cfg.model);
        let rank = ctx.rank();
        let vp = cfg.model.vocab / cfg.p;
        MegatronModel {
            cfg,
            rank,
            world: Group::world(cfg.p),
            table: full.embedding.block(rank * vp, 0, vp, cfg.model.hidden),
            vocab_offset: rank * vp,
            layers: full
                .layers
                .iter()
                .map(|lp| slice_layer1d(lp, cfg.model.hidden, cfg.p, rank))
                .collect(),
            final_ln_g: full.final_ln_g,
            final_ln_b: full.final_ln_b,
        }
    }

    /// Stem forward; the returned hidden states are replicated.
    pub fn forward<C: Communicator>(&self, ctx: &C, tokens: &[usize]) -> Stem1dCache {
        let mut x = embed_forward(ctx, &self.world, &self.table, tokens, self.vocab_offset);
        let mut caches = Vec::with_capacity(self.layers.len());
        for lp in &self.layers {
            let (y, c) = layer1d_forward(ctx, &self.world, &self.cfg, lp, &x);
            caches.push(c);
            x = y;
        }
        let (hidden, final_ln) = layer_norm_forward(&x, &self.final_ln_g, &self.final_ln_b, LN_EPS);
        Stem1dCache {
            layers: caches,
            final_ln,
            hidden,
        }
    }

    /// Mean LM loss (identical on every device).
    pub fn lm_loss<C: Communicator>(&self, ctx: &C, tokens: &[usize], labels: &[usize]) -> f32 {
        let cache = self.forward(ctx, tokens);
        let logits = lm_head_forward(&cache.hidden, &self.table);
        vocab_parallel_ce(ctx, &self.world, &logits, labels, self.vocab_offset).0
    }

    /// Forward + backward; returns the loss and this device's gradients.
    ///
    /// Honors `cfg.checkpoint`: when set, only each layer's replicated
    /// input is kept during forward and the layer is recomputed (including
    /// its two all-reduces — the source of Table 1's `8(p−1)/p·bsh`
    /// backward communication) inside the backward sweep.
    pub fn lm_grads<C: Communicator>(
        &self,
        ctx: &C,
        tokens: &[usize],
        labels: &[usize],
    ) -> (f32, Model1dGrads) {
        // ---- Forward ----
        let fwd_span = trace::span_guard("fwd");
        let mut x = embed_forward(ctx, &self.world, &self.table, tokens, self.vocab_offset);
        // Checkpointing keeps each layer's input, otherwise its full cache.
        let mut inputs: Vec<Tensor> = Vec::new();
        let mut caches = Vec::new();
        for lp in &self.layers {
            if self.cfg.checkpoint {
                inputs.push(x.clone());
            }
            let (y, cache) = layer1d_forward(ctx, &self.world, &self.cfg, lp, &x);
            if !self.cfg.checkpoint {
                caches.push(cache);
            }
            x = y;
        }
        let (hidden, final_ln) = layer_norm_forward(&x, &self.final_ln_g, &self.final_ln_b, LN_EPS);
        drop(fwd_span);

        // ---- Loss head ----
        let loss_span = trace::span_guard("loss_head");
        let logits = lm_head_forward(&hidden, &self.table);
        let (loss, dlogits) =
            vocab_parallel_ce(ctx, &self.world, &logits, labels, self.vocab_offset);
        let mut d_table = Tensor::zeros(&[self.table.rows(), self.table.cols()]);
        let dhidden = lm_head_backward(
            ctx,
            &self.world,
            &dlogits,
            &hidden,
            &self.table,
            &mut d_table,
        );
        drop(loss_span);

        // ---- Layer backward (reverse), recomputing when checkpointed ----
        let bwd_span = trace::span_guard("bwd");
        let (mut dx, final_ln_g, final_ln_b) =
            layer_norm_backward(&dhidden, &final_ln, &self.final_ln_g);
        let mut layer_grads = Vec::with_capacity(self.layers.len());
        for l in (0..self.layers.len()).rev() {
            let cache = if self.cfg.checkpoint {
                layer1d_forward(ctx, &self.world, &self.cfg, &self.layers[l], &inputs[l]).1
            } else {
                caches.pop().expect("one cache per layer")
            };
            let (dprev, g) =
                layer1d_backward(ctx, &self.world, &self.cfg, &self.layers[l], &cache, &dx);
            layer_grads.push(g);
            dx = dprev;
        }
        layer_grads.reverse();

        embed_backward(&mut d_table, &dx, tokens, self.vocab_offset);
        drop(bwd_span);

        (
            loss,
            Model1dGrads {
                embedding: d_table,
                layers: layer_grads,
                final_ln_g,
                final_ln_b,
            },
        )
    }

    /// One SGD step; returns the pre-update loss.
    pub fn train_step<C: Communicator>(
        &mut self,
        ctx: &C,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        let (loss, grads) = self.lm_grads(ctx, tokens, labels);
        trace::span("update", || self.apply_sgd(&grads, lr));
        loss
    }

    /// Greedy next-token prediction: each device holds a `[b·s, v/p]`
    /// logits slice; the final-position slices are all-gathered across the
    /// world (group order = rank = vocabulary order) and argmaxed.
    pub fn greedy_next<C: Communicator>(&self, ctx: &C, tokens: &[usize]) -> Vec<usize> {
        let cache = self.forward(ctx, tokens);
        let logits = lm_head_forward(&cache.hidden, &self.table);
        let s = self.cfg.model.seq;
        (0..self.cfg.model.batch)
            .map(|b| {
                let last = logits.row(b * s + s - 1);
                let full = ctx.all_gather(&self.world, last);
                full.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .expect("non-empty vocab")
                    .0
            })
            .collect()
    }

    /// Visits every `(parameter, gradient)` slice pair in the canonical
    /// order of [`serial::walk_stem`] (replicated parameters see identical
    /// gradients on every device, so per-device optimizer states stay in
    /// sync).
    pub fn visit_params_grads(
        &mut self,
        grads: &Model1dGrads,
        f: &mut impl FnMut(&mut [f32], &[f32]),
    ) {
        walk_stem(
            &mut self.table,
            [&mut self.final_ln_g, &mut self.final_ln_b],
            &mut self.layers,
            grads,
            f,
        );
    }

    /// One Adam training step; `opt` holds this device's moments.
    pub fn train_step_adam<C: Communicator>(
        &mut self,
        ctx: &C,
        tokens: &[usize],
        labels: &[usize],
        opt: &mut tensor::optim::AdamSet,
    ) -> f32 {
        let (loss, grads) = self.lm_grads(ctx, tokens, labels);
        opt.begin_step();
        self.visit_params_grads(&grads, &mut |p, g| opt.apply(p, g));
        loss
    }

    /// Plain SGD over all local parameters.
    pub fn apply_sgd(&mut self, grads: &Model1dGrads, lr: f32) {
        self.visit_params_grads(grads, &mut |p, g| tensor::optim::sgd_update(p, g, lr));
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
        for (a, b) in plain[0].iter().zip(&ckpt[0]) {
            assert!((a - b).abs() < 1e-6, "plain={a} ckpt={b}");
        }
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
}
