//! The full Optimus model: 2D embedding → N 2D layers → 2D final layer
//! norm → tied LM head (Algorithm 2) → row-parallel cross-entropy, with
//! distributed activation checkpointing and the paper's immediate-update
//! training step.

use crate::config::OptimusConfig;
use crate::layer2d::Summa2d;
use crate::params2d::{hosted_slice, Layer2dParams};
use mesh::{Communicator, Grid2d};
use serial::stem::{self, Keep, MemMeter, StemRef};
use serial::{
    linear_forward, ln_backward, ln_forward, walk_pair, walk_stem, Lowering, ModelTensors, Role,
};
use tensor::Tensor;

/// Device-local gradients for everything this device owns; `embedding`
/// is the table block.
pub type Model2dGrads = ModelTensors<Option<Vec<f32>>>;

/// Result of a detailed training step.
#[derive(Clone, Copy, Debug)]
pub struct TrainOutput {
    /// Global mean loss (identical on every device).
    pub loss: f32,
    /// High-water mark of live activation bytes on this device during the
    /// step — the quantity Fig. 9's max-batch search is about.
    pub peak_activation_bytes: usize,
}

/// One device's shard of the Optimus model.
pub struct OptimusModel {
    pub cfg: OptimusConfig,
    /// Embedding table block `[v/q, h/q]` (tied with the LM head).
    pub table: Tensor,
    pub layers: Vec<Layer2dParams>,
    /// Final layer-norm γ, β: this column's `h/q` slice on mesh row 0.
    pub final_ln_g: Option<Vec<f32>>,
    pub final_ln_b: Option<Vec<f32>>,
    /// Sentence-classification head (the second branch of the paper's
    /// Fig. 1): weight block `[h/q, c/q]` and, on mesh row 0, this column's
    /// bias slice; present after [`OptimusModel::with_classifier`].
    pub cls: Option<(Tensor, Option<Vec<f32>>)>,
    /// Activation-byte accounting for the most recent step.
    pub meter: MemMeter,
}

impl OptimusModel {
    /// Builds this device's shard by slicing the canonical full parameters
    /// generated deterministically from `seed`.
    pub fn new<C: Communicator>(cfg: &OptimusConfig, seed: u64, grid: &Grid2d<C>) -> Self {
        let full = serial::ModelParams::init(seed, &cfg.model());
        OptimusModel::from_params(cfg, &full, grid)
    }

    /// Adds the sentence-classification branch (Fig. 1): a `[h, c]` head
    /// applied to the first token's hidden state of every sequence, blocked
    /// like every other parameter. Requires `q | num_classes`.
    pub fn with_classifier<C: Communicator>(
        mut self,
        grid: &Grid2d<C>,
        seed: u64,
        num_classes: usize,
    ) -> Self {
        assert_eq!(
            num_classes % self.cfg.q,
            0,
            "classes {num_classes} must be divisible by q={}",
            self.cfg.q
        );
        let full = tensor::init::init_matrix(
            seed,
            tensor::init::param_ids::CLS_HEAD,
            &[self.cfg.hidden, num_classes],
            tensor::init::WEIGHT_STD,
        );
        let w = full.summa_block(grid.row(), grid.col(), grid.q());
        self.cls = Some((w, hosted_slice(grid, &vec![0.0f32; num_classes])));
        self
    }

    /// Pools the first token of each local sequence: `[b/q, h/q]`.
    fn pool_first_token(&self, hidden: &Tensor) -> Tensor {
        let s = self.cfg.seq;
        let local_b = self.cfg.batch / self.cfg.q;
        let hb = self.cfg.local_cols();
        let mut pooled = Tensor::zeros(&[local_b, hb]);
        for sb in 0..local_b {
            pooled.row_mut(sb).copy_from_slice(hidden.row(sb * s));
        }
        pooled
    }

    fn stem(&self) -> StemRef<'_, Option<Vec<f32>>> {
        StemRef {
            table: &self.table,
            layers: &self.layers,
            final_ln: [&self.final_ln_g, &self.final_ln_b],
        }
    }

    /// Forward-only stem over this device's batch block: embedding → layers
    /// → final layer norm, `[b/q·s, h/q]`.
    fn hidden_states<C: Communicator>(&self, low: &Summa2d<C>, tokens: &[usize]) -> Tensor {
        let tokens_local = low.cfg.local_tokens(tokens, low.grid.row());
        stem::hidden_states(low, &self.stem(), tokens_local)
    }

    /// Classification logits for this device's sequences: `[b/q, c/q]`.
    pub fn classify_forward<C: Communicator>(&self, grid: &Grid2d<C>, tokens: &[usize]) -> Tensor {
        let (w, b) = self.cls.as_ref().expect("built without classifier head");
        let cfg = &self.cfg;
        let low = Summa2d { grid, cfg };
        let hidden = self.hidden_states(&low, tokens);
        linear_forward(&low, Role::Expand, &self.pool_first_token(&hidden), w, b)
    }

    /// Global mean classification loss for per-sequence labels `[b]`
    /// (identical on every device).
    pub fn classify_loss<C: Communicator>(
        &self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
    ) -> f32 {
        let cfg = &self.cfg;
        assert_eq!(labels.len(), cfg.batch, "one label per sequence");
        let logits = self.classify_forward(grid, tokens);
        let local_b = cfg.batch / cfg.q;
        let labels_local = &labels[grid.row() * local_b..(grid.row() + 1) * local_b];
        stem::cross_entropy(&Summa2d { grid, cfg }, &logits, labels_local, cfg.batch).0
    }

    /// Evaluation loss (no gradients). `tokens`/`labels` are the full
    /// `b·s` arrays; each device uses its batch block.
    pub fn lm_loss<C: Communicator>(
        &self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
    ) -> f32 {
        let cfg = &self.cfg;
        let tokens_local = cfg.local_tokens(tokens, grid.row());
        let labels_local = cfg.local_tokens(labels, grid.row());
        let (low, rows) = (Summa2d { grid, cfg }, cfg.batch * cfg.seq);
        stem::lm_loss(&low, &self.stem(), tokens_local, labels_local, rows)
    }

    /// Forward + backward. Honors `cfg.checkpoint`: when set, only each
    /// layer's input block is kept during forward and the layer is
    /// recomputed inside backward (Section 3.2.3). Returns the loss and all
    /// local gradients; `self.meter` holds the step's activation peak.
    pub fn lm_grads<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
    ) -> (f32, Model2dGrads) {
        let cfg = self.cfg;
        let tokens_local = cfg.local_tokens(tokens, grid.row());
        let labels_local = cfg.local_tokens(labels, grid.row());
        let (low, rows) = (Summa2d { grid, cfg: &cfg }, cfg.batch * cfg.seq);
        let mut meter = MemMeter::new();
        let out = stem::lm_grads(
            &low,
            &self.stem(),
            tokens_local,
            labels_local,
            rows,
            cfg.checkpoint,
            &mut meter,
        );
        self.meter = meter;
        out
    }

    /// One SGD step (gradients accumulated, then applied). Returns the
    /// pre-update loss.
    pub fn train_step<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        self.train_step_detailed(grid, tokens, labels, lr).loss
    }

    /// [`OptimusModel::train_step`] plus memory accounting.
    pub fn train_step_detailed<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> TrainOutput {
        let (loss, grads) = self.lm_grads(grid, tokens, labels);
        trace::span("update", || self.apply_sgd(&grads, lr));
        TrainOutput {
            loss,
            peak_activation_bytes: self.meter.peak(),
        }
    }

    /// The paper's method (2): update each layer's parameters *immediately*
    /// after its backward pass and release its gradient buffer, so only one
    /// layer's parameter gradients are ever live. Requires checkpointing.
    /// Mathematically identical to [`OptimusModel::train_step`].
    pub fn train_step_fused<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        let cfg = self.cfg;
        let low = Summa2d { grid, cfg: &cfg };
        let tokens_local = cfg.local_tokens(tokens, grid.row());
        let labels_local = cfg.local_tokens(labels, grid.row());
        let total_rows = cfg.batch * cfg.seq;
        let (table, meter) = (&self.table, &mut MemMeter::new());
        stem::check_batch(&low, tokens_local, labels_local);

        let x = low.embed(table, tokens_local);
        let (y, kept) = stem::sweep_forward(&low, &self.layers, x, Keep::Inputs, meter);
        let (hidden, final_ln_cache) = ln_forward(&low, &y, &self.final_ln_g, &self.final_ln_b);
        let (loss, dlogits) =
            stem::head_loss(&low, table, &hidden, labels_local, total_rows, meter);

        let mut d_table = Tensor::zeros(&[table.rows(), table.cols()]);
        let dhidden = stem::head_backward(&low, table, &hidden, dlogits, &mut d_table, meter);
        let (dx, fg, fb) = ln_backward(&low, &dhidden, &final_ln_cache);
        let mut update = |p: &mut [f32], g: &[f32]| sgd(p, g, lr);
        walk_pair(&mut self.final_ln_g, &fg, &mut update);
        walk_pair(&mut self.final_ln_b, &fb, &mut update);

        // Immediate update: the sink applies a layer's gradients and drops
        // them, which is the "reset the parameter gradient buffer" step.
        let layers = self.layers.iter_mut();
        let dx = stem::sweep_backward(&low, layers, kept, dx, meter, |_, p, g| {
            p.walk(&g, &mut update)
        });

        low.embed_backward(&mut d_table, &dx, tokens_local);
        update(self.table.as_mut_slice(), d_table.as_slice());
        loss
    }

    /// Distributed greedy next-token prediction (the paper's "inference"
    /// measurement is a forward pass; this adds the decode step).
    ///
    /// Each device holds a `[b/q·s, v/q]` logits block. Per local sequence,
    /// the final position's vocabulary slice is all-gathered along the mesh
    /// **row** (group order = mesh column = vocabulary order) and argmaxed;
    /// the per-row results are then all-gathered along the **column** (group
    /// order = mesh row = batch order), so every device returns the full
    /// `b` next tokens.
    pub fn greedy_next<C: Communicator>(&self, grid: &Grid2d<C>, tokens: &[usize]) -> Vec<usize> {
        let cfg = &self.cfg;
        let low = Summa2d { grid, cfg };
        let hidden = self.hidden_states(&low, tokens);
        let logits = stem::logits(&low, &hidden, &self.table);

        let s = cfg.seq;
        let local_b = cfg.batch / cfg.q;
        let mut local_next = Vec::with_capacity(local_b);
        for sb in 0..local_b {
            let last = logits.row(sb * s + s - 1);
            let full = grid.ctx().all_gather(grid.row_group(), last);
            let next = full
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                .expect("non-empty vocab")
                .0;
            local_next.push(next as f32);
        }
        let all = grid.ctx().all_gather(grid.col_group(), &local_next);
        all.into_iter().map(|v| v as usize).collect()
    }

    /// Visits every *locally hosted* `(parameter, gradient)` pair in the
    /// canonical order of [`serial::walk_stem`]. Devices off mesh row 0
    /// simply skip the bias/affine entries, so each device's visitation
    /// order is stable across steps (the contract
    /// [`tensor::optim::AdamSet`] needs).
    pub fn visit_params_grads(
        &mut self,
        grads: &Model2dGrads,
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

    /// One SGD step with **global** gradient-norm clipping: every device
    /// contributes its hosted gradients' squared norm (each parameter is
    /// hosted exactly once, so the mesh-wide sum is the true global norm),
    /// one scalar all-reduce shares it, and the uniform clip is applied as
    /// an effective learning-rate scale. Returns `(loss, clip scale)` —
    /// identical on every device and to the serial model.
    pub fn train_step_clipped<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
        max_norm: f64,
    ) -> (f32, f32) {
        let (loss, grads) = self.lm_grads(grid, tokens, labels);
        let mut sq = 0.0f64;
        self.visit_params_grads(&grads, &mut |_, g| sq += tensor::schedule::sq_norm(g));
        let mut total = vec![sq as f32];
        grid.ctx().all_reduce(&grid.slice_group(), &mut total);
        let scale = tensor::schedule::clip_scale(total[0] as f64, max_norm);
        self.apply_sgd(&grads, lr * scale);
        (loss, scale)
    }

    /// One Adam training step; `opt` holds this device's moments.
    ///
    /// Because every parameter is hosted (and therefore Adam-updated) on
    /// exactly one device, the distributed Adam trajectory is identical to
    /// the serial one — asserted by the integration tests.
    pub fn train_step_adam<C: Communicator>(
        &mut self,
        grid: &Grid2d<C>,
        tokens: &[usize],
        labels: &[usize],
        opt: &mut tensor::optim::AdamSet,
    ) -> f32 {
        let (loss, grads) = self.lm_grads(grid, tokens, labels);
        opt.begin_step();
        self.visit_params_grads(&grads, &mut |p, g| opt.apply(p, g));
        loss
    }

    /// Plain SGD over all local parameters.
    pub fn apply_sgd(&mut self, grads: &Model2dGrads, lr: f32) {
        self.visit_params_grads(grads, &mut |p, g| sgd(p, g, lr));
    }
}

/// `p -= lr·g`, inline on the device thread.
fn sgd(p: &mut [f32], g: &[f32], lr: f32) {
    for (a, b) in p.iter_mut().zip(g) {
        *a -= lr * b;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Mesh2d;
    use serial::SerialModel;
    use tensor::Rng;

    fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let n = cfg.batch * cfg.seq;
        let tokens = (0..n).map(|_| rng.below(cfg.vocab)).collect();
        let labels = (0..n).map(|_| rng.below(cfg.vocab)).collect();
        (tokens, labels)
    }

    fn bits(losses: &[Vec<f32>]) -> Vec<Vec<u32>> {
        let dev = |d: &Vec<f32>| d.iter().map(|x| x.to_bits()).collect();
        losses.iter().map(dev).collect()
    }

    #[test]
    fn loss_matches_serial_reference() {
        for q in [1usize, 2, 3] {
            let cfg = OptimusConfig::tiny(q);
            let (tokens, labels) = data(&cfg, 20);
            let reference = SerialModel::new(cfg.model(), 7).lm_loss(&tokens, &labels);
            let losses = Mesh2d::run(q, |grid| {
                OptimusModel::new(&cfg, 7, grid).lm_loss(grid, &tokens, &labels)
            });
            for l in losses {
                assert!(
                    (l - reference).abs() < 1e-4,
                    "q={q}: optimus={l} serial={reference}"
                );
            }
        }
    }

    #[test]
    fn training_trajectory_matches_serial() {
        let cfg = OptimusConfig::tiny(2);
        let (tokens, labels) = data(&cfg, 21);
        let mut reference = SerialModel::new(cfg.model(), 9);
        let ref_losses: Vec<f32> = (0..4)
            .map(|_| reference.train_step(&tokens, &labels, 0.2))
            .collect();
        let losses = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 9, grid);
            (0..4)
                .map(|_| m.train_step(grid, &tokens, &labels, 0.2))
                .collect::<Vec<f32>>()
        });
        for dev in &losses {
            for (a, b) in dev.iter().zip(&ref_losses) {
                assert!((a - b).abs() < 2e-3, "optimus={a} serial={b}");
            }
        }
    }

    #[test]
    fn checkpointing_is_numerically_identical() {
        let mut cfg = OptimusConfig::tiny(2);
        let (tokens, labels) = data(&cfg, 22);
        cfg.checkpoint = false;
        let plain = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 3, grid);
            (0..3)
                .map(|_| m.train_step(grid, &tokens, &labels, 0.3))
                .collect::<Vec<f32>>()
        });
        cfg.checkpoint = true;
        let ckpt = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 3, grid);
            (0..3)
                .map(|_| m.train_step(grid, &tokens, &labels, 0.3))
                .collect::<Vec<f32>>()
        });
        // One sweep body: recomputing a layer repeats its forward bit for bit.
        assert_eq!(bits(&plain), bits(&ckpt));
    }

    #[test]
    fn checkpointing_reduces_peak_activation_memory() {
        let mut cfg = OptimusConfig::tiny(2);
        cfg.layers = 4;
        let (tokens, labels) = data(&cfg, 23);
        let peak = |checkpoint: bool| {
            let mut c = cfg;
            c.checkpoint = checkpoint;
            let outs = Mesh2d::run(c.q, |grid| {
                let mut m = OptimusModel::new(&c, 5, grid);
                m.train_step_detailed(grid, &tokens, &labels, 0.1)
                    .peak_activation_bytes
            });
            outs[0]
        };
        let plain = peak(false);
        let ckpt = peak(true);
        assert!(
            (ckpt as f64) < 0.6 * plain as f64,
            "checkpointing should cut peak activations: plain={plain} ckpt={ckpt}"
        );
    }

    #[test]
    fn fused_immediate_update_matches_plain_step() {
        let mut cfg = OptimusConfig::tiny(2);
        cfg.checkpoint = true;
        let (tokens, labels) = data(&cfg, 24);
        let plain = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 6, grid);
            (0..3)
                .map(|_| m.train_step(grid, &tokens, &labels, 0.2))
                .collect::<Vec<f32>>()
        });
        let fused = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 6, grid);
            (0..3)
                .map(|_| m.train_step_fused(grid, &tokens, &labels, 0.2))
                .collect::<Vec<f32>>()
        });
        // The same sweep with a different sink: when a gradient is applied
        // does not change it.
        assert_eq!(bits(&plain), bits(&fused));
    }

    #[test]
    fn classification_branch_matches_serial() {
        let cfg = OptimusConfig::tiny(2);
        let mut rng = tensor::Rng::new(30);
        let tokens: Vec<usize> = (0..cfg.batch * cfg.seq)
            .map(|_| rng.below(cfg.vocab))
            .collect();
        let cls_labels: Vec<usize> = (0..cfg.batch).map(|_| rng.below(2)).collect();
        let serial = SerialModel::new(cfg.model(), 12).with_classifier(12);
        let expect_logits = serial.classify_forward(&tokens);
        let expect_loss = serial.classify_loss(&tokens, &cls_labels);

        let outs = Mesh2d::run(cfg.q, |grid| {
            let m = OptimusModel::new(&cfg, 12, grid).with_classifier(grid, 12, 2);
            (
                m.classify_forward(grid, &tokens),
                m.classify_loss(grid, &tokens, &cls_labels),
            )
        });
        // Reassemble the [b, 2] logits from the q x q blocks.
        let blocks: Vec<Tensor> = outs.iter().map(|(l, _)| l.clone()).collect();
        let got = Tensor::from_summa_blocks(&blocks, cfg.q);
        tensor::assert_close(got.as_slice(), expect_logits.as_slice(), 1e-4, 1e-3);
        for (_, loss) in &outs {
            assert!((loss - expect_loss).abs() < 1e-4, "{loss} vs {expect_loss}");
        }
    }

    #[test]
    #[should_panic] // device threads die with "classes 3 must be divisible"
    fn classifier_rejects_indivisible_classes() {
        let cfg = OptimusConfig::tiny(2);
        Mesh2d::run(cfg.q, |grid| {
            let _ = OptimusModel::new(&cfg, 0, grid).with_classifier(grid, 0, 3);
        });
    }

    #[test]
    fn fused_attention_is_numerically_identical() {
        let mut cfg = OptimusConfig::tiny(2);
        let (tokens, labels) = data(&cfg, 26);
        cfg.fused_attention = false;
        let plain = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 4, grid);
            (0..3)
                .map(|_| m.train_step(grid, &tokens, &labels, 0.3))
                .collect::<Vec<f32>>()
        });
        cfg.fused_attention = true;
        let fused = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 4, grid);
            (0..3)
                .map(|_| m.train_step(grid, &tokens, &labels, 0.3))
                .collect::<Vec<f32>>()
        });
        for (a, b) in plain[0].iter().zip(&fused[0]) {
            assert!((a - b).abs() < 1e-6, "plain={a} fused={b}");
        }
    }

    #[test]
    fn fused_attention_cuts_cached_score_memory() {
        // At long sequence lengths the b·n·s² score tensor dominates; the
        // fused path must not cache it.
        let mut cfg = OptimusConfig::tiny(2);
        cfg.seq = 64; // make scores dominate
        cfg.layers = 2;
        let (tokens, labels) = data(&cfg, 27);
        let peak = |fused: bool| {
            let mut c = cfg;
            c.fused_attention = fused;
            Mesh2d::run(c.q, |grid| {
                let mut m = OptimusModel::new(&c, 5, grid);
                m.train_step_detailed(grid, &tokens, &labels, 0.1)
                    .peak_activation_bytes
            })[0]
        };
        let plain = peak(false);
        let fused = peak(true);
        assert!(
            (fused as f64) < 0.75 * plain as f64,
            "fused attention should cut peak activations: {plain} -> {fused}"
        );
    }

    #[test]
    fn losses_agree_across_all_devices() {
        let cfg = OptimusConfig::tiny(3);
        let (tokens, labels) = data(&cfg, 25);
        let losses = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 8, grid);
            m.train_step(grid, &tokens, &labels, 0.1)
        });
        for l in &losses {
            assert!((l - losses[0]).abs() < 1e-6);
        }
    }
}
