//! GPipe-style pipeline parallelism — the *other* model-parallel paradigm
//! the paper positions itself against (Section 1: "Pipeline parallelism is
//! to partition the whole model by layer in a serial manner").
//!
//! The stem's `N` layers are split into `S` contiguous stages, one device
//! per stage; the batch is split into `m` microbatches that stream through
//! the pipeline. Two schedules are provided:
//!
//! * [`PipelineStage::train_step`] — GPipe's **flush** schedule (all
//!   forwards, then all backwards): simple, but every stage holds `m`
//!   microbatch caches at the peak.
//! * [`PipelineStage::train_step_1f1b`] — the **1F1B** (PipeDream-flush)
//!   schedule: after a warm-up of `S−1−stage` forwards, each stage
//!   alternates one-forward-one-backward, bounding live caches at
//!   `S − stage` independent of `m`. Numerically identical (asserted).
//!
//! Communication is pure point-to-point: each stage boundary moves one
//! `[b/m·s, h]` activation per microbatch forward and one gradient back —
//! `2(S−1)·bsh` scalars per step, independent of the per-stage model size,
//! which is why pipelining composes with (rather than replaces) tensor
//! parallelism. The first and last stages share the tied embedding table;
//! its gradient is all-reduced between exactly those two devices (the
//! Megatron-LM trick).
//!
//! Numerical contract (asserted by tests): from the same seed, both
//! schedules follow the serial model's trajectory exactly — microbatching
//! only reorders the *summation* of gradients.
//!
//! The stage loop runs on [`mesh::DeviceCtx`], the **live** communicator:
//! its cyclic send/recv pattern (stage `s` blocks on stage `s±1` across
//! loop iterations) is exactly the shape the trace-only `DryRunComm`
//! backend cannot replay sequentially, as documented on the `Communicator`
//! trait. Wall-clock traces still work — run a step under
//! `mesh::Mesh::run_traced` to see the pipeline bubble on Perfetto tracks
//! (`OBSERVABILITY.md` at the repo root); for α-β projections of pipeline
//! schedules use `perf`'s analytic pipeline cost model instead.

use mesh::{DeviceCtx, Group};
use serial::{layer_backward, layer_forward, LayerCache, LayerParams, Local, ModelConfig};
use tensor::layernorm::{layer_norm_backward, layer_norm_forward, LnCache, LN_EPS};
use tensor::loss::cross_entropy;
use tensor::optim::sgd_update;
use tensor::{matmul_nn, matmul_nt, matmul_tn, Tensor};

/// Pipeline run configuration.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    pub model: ModelConfig,
    /// Number of stages (= devices).
    pub stages: usize,
    /// Number of microbatches per step (GPipe's `m`).
    pub microbatches: usize,
}

impl PipelineConfig {
    pub fn new(model: ModelConfig, stages: usize, microbatches: usize) -> Self {
        assert!(stages > 0 && microbatches > 0);
        assert_eq!(
            model.layers % stages,
            0,
            "layers {} must divide into {} stages",
            model.layers,
            stages
        );
        assert_eq!(
            model.batch % microbatches,
            0,
            "batch {} must divide into {} microbatches",
            model.batch,
            microbatches
        );
        PipelineConfig {
            model,
            stages,
            microbatches,
        }
    }

    /// Layers per stage.
    pub fn layers_per_stage(&self) -> usize {
        self.model.layers / self.stages
    }

    /// Sequences per microbatch.
    pub fn micro_batch(&self) -> usize {
        self.model.batch / self.microbatches
    }

    /// The per-microbatch model view (same model, smaller batch).
    pub fn micro_view(&self) -> ModelConfig {
        ModelConfig {
            batch: self.micro_batch(),
            ..self.model
        }
    }

    /// GPipe bubble fraction: the pipeline is idle for `(S−1)/(m+S−1)` of
    /// the step (the classic flush-schedule overhead). 1F1B has the same
    /// bubble but bounded memory.
    pub fn bubble_fraction(&self) -> f64 {
        let s = self.stages as f64;
        let m = self.microbatches as f64;
        (s - 1.0) / (m + s - 1.0)
    }
}

/// One stage's state for one in-flight microbatch.
struct MicroState {
    caches: Vec<LayerCache>,
    /// Last stage only: the head state.
    final_ln: Option<LnCache>,
    hidden: Option<Tensor>,
    dlogits: Option<Tensor>,
}

/// Gradient accumulators for one training step.
struct GradAcc {
    d_embedding: Option<Tensor>,
    layer_grads: Vec<Option<LayerParams>>,
    d_final_g: Option<Vec<f32>>,
    d_final_b: Option<Vec<f32>>,
}

/// One device's stage of the pipeline.
pub struct PipelineStage {
    pub cfg: PipelineConfig,
    pub stage: usize,
    /// This stage's contiguous layers.
    pub layers: Vec<LayerParams>,
    /// Tied embedding copy — `Some` on the first and last stages.
    pub embedding: Option<Tensor>,
    /// Final layer norm — `Some` on the last stage.
    pub final_ln: Option<(Vec<f32>, Vec<f32>)>,
    /// High-water mark of simultaneously live microbatch caches during the
    /// most recent step — the quantity 1F1B bounds.
    pub peak_live_microbatches: usize,
}

impl PipelineStage {
    /// Builds this device's stage by slicing the canonical parameters.
    pub fn new(cfg: PipelineConfig, seed: u64, ctx: &DeviceCtx) -> Self {
        assert_eq!(ctx.world_size(), cfg.stages, "one device per stage");
        let full = serial::ModelParams::init(seed, &cfg.model);
        let stage = ctx.rank();
        let lps = cfg.layers_per_stage();
        let first_or_last = stage == 0 || stage == cfg.stages - 1;
        PipelineStage {
            cfg,
            stage,
            layers: full.layers[stage * lps..(stage + 1) * lps].to_vec(),
            embedding: first_or_last.then(|| full.embedding.clone()),
            final_ln: (stage == cfg.stages - 1)
                .then(|| (full.final_ln_g.clone(), full.final_ln_b.clone())),
            peak_live_microbatches: 0,
        }
    }

    fn is_first(&self) -> bool {
        self.stage == 0
    }

    fn is_last(&self) -> bool {
        self.stage == self.cfg.stages - 1
    }

    fn mb_tokens(&self) -> usize {
        self.cfg.micro_batch() * self.cfg.model.seq
    }

    /// Forward of microbatch `i`: receive (or embed), run this stage's
    /// layers, send on (or compute the loss head). Adds the microbatch's
    /// loss contribution to `losses`.
    fn forward_micro(
        &self,
        ctx: &DeviceCtx,
        tokens: &[usize],
        labels: &[usize],
        i: usize,
        losses: &mut f64,
    ) -> MicroState {
        let cfg = self.cfg;
        let micro = cfg.micro_view();
        let m = cfg.microbatches;
        let mb = self.mb_tokens();
        let mb_tok = &tokens[i * mb..(i + 1) * mb];

        let mut x = if self.is_first() {
            let table = self.embedding.as_ref().expect("first stage embeds");
            let mut x = Tensor::zeros(&[mb, cfg.model.hidden]);
            for (r, &t) in mb_tok.iter().enumerate() {
                x.row_mut(r).copy_from_slice(table.row(t));
            }
            x
        } else {
            Tensor::from_vec(&[mb, cfg.model.hidden], ctx.recv(self.stage - 1))
        };

        let mut caches = Vec::with_capacity(self.layers.len());
        for lp in &self.layers {
            let (y, cache) = layer_forward(&Local(micro), lp, &x);
            caches.push(cache);
            x = y;
        }

        let mut state = MicroState {
            caches,
            final_ln: None,
            hidden: None,
            dlogits: None,
        };
        if self.is_last() {
            let (g, b) = self.final_ln.as_ref().expect("last stage has final LN");
            let (hidden, ln) = layer_norm_forward(&x, g, b, LN_EPS);
            let table = self.embedding.as_ref().expect("last stage holds the head");
            let logits = matmul_nt(&hidden, table);
            let mb_lab = &labels[i * mb..(i + 1) * mb];
            let (loss, mut dlogits) = cross_entropy(&logits, mb_lab);
            // cross_entropy scales by 1/mb; the global mean needs 1/(m·mb).
            dlogits.scale(1.0 / m as f32);
            *losses += loss as f64 / m as f64;
            state.final_ln = Some(ln);
            state.hidden = Some(hidden);
            state.dlogits = Some(dlogits);
        } else {
            ctx.send(self.stage + 1, x.into_vec());
        }
        state
    }

    /// Backward of microbatch `i` given its forward state; accumulates the
    /// parameter gradients into `acc` and forwards the input gradient.
    fn backward_micro(
        &self,
        ctx: &DeviceCtx,
        mut state: MicroState,
        i: usize,
        tokens: &[usize],
        acc: &mut GradAcc,
    ) {
        let cfg = self.cfg;
        let micro = cfg.micro_view();
        let mb = self.mb_tokens();

        let mut dx = if self.is_last() {
            let table = self.embedding.as_ref().unwrap();
            let dlogits = state.dlogits.take().unwrap();
            let hidden = state.hidden.take().unwrap();
            // Tied head: dH = dlogits · E; dE += dlogitsᵀ · H.
            let dh = matmul_nn(&dlogits, table);
            acc.d_embedding
                .as_mut()
                .unwrap()
                .add_assign(&matmul_tn(&dlogits, &hidden));
            let (g, _) = self.final_ln.as_ref().unwrap();
            let (dx, dg, db) = layer_norm_backward(&dh, state.final_ln.as_ref().unwrap(), g);
            accumulate_vec(&mut acc.d_final_g, dg);
            accumulate_vec(&mut acc.d_final_b, db);
            dx
        } else {
            Tensor::from_vec(&[mb, cfg.model.hidden], ctx.recv(self.stage + 1))
        };

        for (l, lp) in self.layers.iter().enumerate().rev() {
            let (dprev, g) = layer_backward(&Local(micro), lp, &state.caches[l], &dx);
            accumulate_layer(&mut acc.layer_grads[l], g);
            dx = dprev;
        }

        if self.is_first() {
            let mb_tok = &tokens[i * mb..(i + 1) * mb];
            let de = acc.d_embedding.as_mut().unwrap();
            for (r, &t) in mb_tok.iter().enumerate() {
                let row = dx.row(r).to_vec();
                for (dst, v) in de.row_mut(t).iter_mut().zip(row) {
                    *dst += v;
                }
            }
        } else {
            ctx.send(self.stage - 1, dx.into_vec());
        }
    }

    /// Embedding-gradient sync, parameter update, and loss broadcast.
    fn finish_step(&mut self, ctx: &DeviceCtx, mut acc: GradAcc, losses: f64, lr: f32) -> f32 {
        if self.cfg.stages > 1 {
            if let Some(de) = acc.d_embedding.as_mut() {
                let ends = Group::new(vec![0, self.cfg.stages - 1]);
                ctx.all_reduce(&ends, de.as_mut_slice());
            }
        }
        if let (Some(e), Some(de)) = (self.embedding.as_mut(), acc.d_embedding.as_ref()) {
            e.axpy(-lr, de);
        }
        if let Some((g, b)) = self.final_ln.as_mut() {
            sgd_update(g, acc.d_final_g.as_ref().unwrap(), lr);
            sgd_update(b, acc.d_final_b.as_ref().unwrap(), lr);
        }
        for (lp, lg) in self.layers.iter_mut().zip(acc.layer_grads.iter()) {
            lp.walk(lg.as_ref().unwrap(), &mut |p, g| sgd_update(p, g, lr));
        }
        let world = Group::world(self.cfg.stages);
        let mut loss = vec![if self.is_last() { losses as f32 } else { 0.0 }];
        ctx.broadcast(&world, self.cfg.stages - 1, &mut loss);
        loss[0]
    }

    fn fresh_acc(&self) -> GradAcc {
        GradAcc {
            d_embedding: self
                .embedding
                .as_ref()
                .map(|e| Tensor::zeros(&[e.rows(), e.cols()])),
            layer_grads: vec![None; self.layers.len()],
            d_final_g: None,
            d_final_b: None,
        }
    }

    /// One training step with the GPipe **flush** schedule. Returns the
    /// global mean loss (identical on every stage).
    pub fn train_step(
        &mut self,
        ctx: &DeviceCtx,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        let m = self.cfg.microbatches;
        assert_eq!(tokens.len(), self.cfg.model.tokens());
        assert_eq!(labels.len(), self.cfg.model.tokens());

        let mut losses = 0.0f64;
        let mut states: Vec<MicroState> = (0..m)
            .map(|i| self.forward_micro(ctx, tokens, labels, i, &mut losses))
            .collect();
        self.peak_live_microbatches = m;

        let mut acc = self.fresh_acc();
        for i in (0..m).rev() {
            let state = states.pop().expect("one state per microbatch");
            self.backward_micro(ctx, state, i, tokens, &mut acc);
        }
        self.finish_step(ctx, acc, losses, lr)
    }

    /// One training step with the **1F1B** (PipeDream-flush) schedule:
    /// `S−1−stage` warm-up forwards, then one-forward-one-backward until
    /// forwards run out, then a cooldown of backwards. Numerically identical
    /// to [`PipelineStage::train_step`], but live caches are bounded by
    /// `S − stage` instead of `m` (tracked in `peak_live_microbatches`).
    pub fn train_step_1f1b(
        &mut self,
        ctx: &DeviceCtx,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
    ) -> f32 {
        let m = self.cfg.microbatches;
        let s = self.cfg.stages;
        assert_eq!(tokens.len(), self.cfg.model.tokens());
        assert_eq!(labels.len(), self.cfg.model.tokens());

        let warmup = (s - 1 - self.stage).min(m);
        let mut losses = 0.0f64;
        let mut acc = self.fresh_acc();
        let mut live: std::collections::VecDeque<(usize, MicroState)> =
            std::collections::VecDeque::new();
        self.peak_live_microbatches = 0;
        let mut next_fwd = 0usize;
        let mut next_bwd = 0usize;

        // Warm-up forwards.
        for _ in 0..warmup {
            let st = self.forward_micro(ctx, tokens, labels, next_fwd, &mut losses);
            live.push_back((next_fwd, st));
            next_fwd += 1;
            self.peak_live_microbatches = self.peak_live_microbatches.max(live.len());
        }
        // Steady 1F1B.
        while next_fwd < m {
            let st = self.forward_micro(ctx, tokens, labels, next_fwd, &mut losses);
            live.push_back((next_fwd, st));
            next_fwd += 1;
            self.peak_live_microbatches = self.peak_live_microbatches.max(live.len());
            let (i, st) = live.pop_front().expect("a forward is outstanding");
            debug_assert_eq!(i, next_bwd);
            self.backward_micro(ctx, st, i, tokens, &mut acc);
            next_bwd += 1;
        }
        // Cooldown backwards.
        while let Some((i, st)) = live.pop_front() {
            debug_assert_eq!(i, next_bwd);
            self.backward_micro(ctx, st, i, tokens, &mut acc);
            next_bwd += 1;
        }
        self.finish_step(ctx, acc, losses, lr)
    }
}

fn add(x: &mut [f32], y: &[f32]) {
    for (x, y) in x.iter_mut().zip(y) {
        *x += y;
    }
}

fn accumulate_vec(acc: &mut Option<Vec<f32>>, g: Vec<f32>) {
    match acc {
        None => *acc = Some(g),
        Some(a) => add(a, &g),
    }
}

fn accumulate_layer(acc: &mut Option<LayerParams>, g: LayerParams) {
    match acc {
        None => *acc = Some(g),
        Some(a) => a.walk(&g, &mut add),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Mesh;
    use serial::SerialModel;
    use tensor::Rng;

    fn model_cfg() -> ModelConfig {
        ModelConfig {
            batch: 4,
            seq: 6,
            hidden: 8,
            heads: 2,
            vocab: 16,
            layers: 4,
            causal: false,
        }
    }

    fn data(cfg: &ModelConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let n = cfg.tokens();
        (
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        )
    }

    #[test]
    fn pipeline_matches_serial_trajectory() {
        let model = model_cfg();
        let (tokens, labels) = data(&model, 1);
        let mut reference = SerialModel::new(model, 7);
        let ref_losses: Vec<f32> = (0..4)
            .map(|_| reference.train_step(&tokens, &labels, 0.25))
            .collect();

        for (stages, micro) in [(2usize, 2usize), (4, 1), (4, 4), (2, 4), (1, 2)] {
            let cfg = PipelineConfig::new(model, stages, micro);
            let losses = Mesh::run(stages, |ctx| {
                let mut st = PipelineStage::new(cfg, 7, ctx);
                (0..4)
                    .map(|_| st.train_step(ctx, &tokens, &labels, 0.25))
                    .collect::<Vec<f32>>()
            });
            for dev in &losses {
                for (a, b) in dev.iter().zip(&ref_losses) {
                    assert!(
                        (a - b).abs() < 2e-3,
                        "stages={stages} m={micro}: pipeline={a} serial={b}"
                    );
                }
            }
        }
    }

    #[test]
    fn one_f_one_b_matches_the_flush_schedule() {
        let model = model_cfg();
        let (tokens, labels) = data(&model, 5);
        for (stages, micro) in [(2usize, 4usize), (4, 4), (4, 2), (1, 4)] {
            let cfg = PipelineConfig::new(model, stages, micro);
            let flush = Mesh::run(stages, |ctx| {
                let mut st = PipelineStage::new(cfg, 9, ctx);
                (0..3)
                    .map(|_| st.train_step(ctx, &tokens, &labels, 0.2))
                    .collect::<Vec<f32>>()
            });
            let f1b1 = Mesh::run(stages, |ctx| {
                let mut st = PipelineStage::new(cfg, 9, ctx);
                (0..3)
                    .map(|_| st.train_step_1f1b(ctx, &tokens, &labels, 0.2))
                    .collect::<Vec<f32>>()
            });
            for (a, b) in flush[0].iter().zip(&f1b1[0]) {
                assert!(
                    (a - b).abs() < 1e-5,
                    "stages={stages} m={micro}: flush={a} 1f1b={b}"
                );
            }
        }
    }

    #[test]
    fn one_f_one_b_bounds_live_microbatches() {
        // With m=4 microbatches on 4 stages, the flush schedule holds 4
        // caches everywhere; 1F1B holds S - stage.
        let model = model_cfg();
        let (tokens, labels) = data(&model, 6);
        let cfg = PipelineConfig::new(model, 4, 4);
        let peaks = Mesh::run(4, |ctx| {
            let mut st = PipelineStage::new(cfg, 3, ctx);
            st.train_step_1f1b(ctx, &tokens, &labels, 0.1);
            let p_1f1b = st.peak_live_microbatches;
            st.train_step(ctx, &tokens, &labels, 0.1);
            (p_1f1b, st.peak_live_microbatches)
        });
        for (stage, &(p1, pf)) in peaks.iter().enumerate() {
            assert_eq!(pf, 4, "flush holds all microbatches");
            assert_eq!(p1, 4 - stage, "1F1B bound at stage {stage}");
        }
    }

    #[test]
    fn boundary_traffic_matches_the_formula() {
        // 2(S-1)·bsh scalars cross stage boundaries per step, independent
        // of the microbatch count.
        let model = model_cfg();
        let (tokens, labels) = data(&model, 2);
        for micro in [1usize, 2, 4] {
            let cfg = PipelineConfig::new(model, 2, micro);
            let (_, logs) = Mesh::run_with_logs(2, |ctx| {
                let mut st = PipelineStage::new(cfg, 3, ctx);
                st.train_step(ctx, &tokens, &labels, 0.1)
            });
            let bsh = model.tokens() * model.hidden;
            let p2p: usize = logs
                .iter()
                .flat_map(|l| &l.links)
                .filter(|l| l.elems == bsh / micro)
                .map(|l| l.elems)
                .sum();
            assert_eq!(p2p, 2 * bsh, "m={micro}");
        }
    }

    #[test]
    fn bubble_fraction_shrinks_with_more_microbatches() {
        let model = model_cfg();
        let b1 = PipelineConfig::new(model, 4, 1).bubble_fraction();
        let b4 = PipelineConfig::new(model, 4, 4).bubble_fraction();
        assert!((b1 - 0.75).abs() < 1e-12);
        assert!(b4 < b1);
        assert!((b4 - 3.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must divide")]
    fn rejects_indivisible_layers() {
        PipelineConfig::new(model_cfg(), 3, 1);
    }

    #[test]
    fn single_stage_degenerates_to_serial() {
        let model = model_cfg();
        let (tokens, labels) = data(&model, 3);
        let cfg = PipelineConfig::new(model, 1, 2);
        let mut reference = SerialModel::new(model, 9);
        let expect = reference.train_step(&tokens, &labels, 0.3);
        let losses = Mesh::run(1, |ctx| {
            let mut st = PipelineStage::new(cfg, 9, ctx);
            st.train_step(ctx, &tokens, &labels, 0.3)
        });
        assert!((losses[0] - expect).abs() < 2e-3);
    }
}
