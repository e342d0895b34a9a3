//! The full serial transformer stem with both output branches of the
//! paper's Figure 1: the token-wise LM branch (tied LM head +
//! cross-entropy) and the sentence-level classification branch.

use crate::config::ModelConfig;
use crate::layer::{linear_forward, Local, Lowering, Role};
use crate::params::ModelParams;
use crate::stem::{self, MemMeter, StemRef};
use tensor::init::{init_matrix, init_vector, param_ids, WEIGHT_STD};
use tensor::loss::cross_entropy;
use tensor::Tensor;

/// The reference model.
pub struct SerialModel {
    pub cfg: ModelConfig,
    pub params: ModelParams,
    /// Sentence-classification head: weight `[h, 2]` and bias `[2]`,
    /// present when constructed with [`SerialModel::with_classifier`].
    pub cls: Option<(Tensor, Vec<f32>)>,
}

impl SerialModel {
    /// Builds the model with deterministic parameters from `seed`.
    pub fn new(cfg: ModelConfig, seed: u64) -> Self {
        SerialModel {
            cfg,
            params: ModelParams::init(seed, &cfg),
            cls: None,
        }
    }

    /// Adds the binary sentence-classification head.
    pub fn with_classifier(mut self, seed: u64) -> Self {
        let w = init_matrix(seed, param_ids::CLS_HEAD, &[self.cfg.hidden, 2], WEIGHT_STD);
        self.cls = Some((w, init_vector(2, 0.0)));
        self
    }

    fn stem(&self) -> StemRef<'_, Vec<f32>> {
        StemRef {
            table: &self.params.embedding,
            layers: &self.params.layers,
            final_ln: [&self.params.final_ln_g, &self.params.final_ln_b],
        }
    }

    /// Embedding lookup: tokens `[b·s]` → activations `[b·s, h]`.
    pub fn embed(&self, tokens: &[usize]) -> Tensor {
        stem::check_ids("token", tokens, self.cfg.tokens(), self.cfg.vocab);
        Local(self.cfg).embed(&self.params.embedding, tokens)
    }

    /// Stem forward: embedding → layers → final LN, the hidden states
    /// `[b·s, h]`.
    pub fn hidden_states(&self, tokens: &[usize]) -> Tensor {
        stem::hidden_states(&Local(self.cfg), &self.stem(), tokens)
    }

    /// LM logits via the tied head: `hidden · Eᵀ`, `[b·s, v]`.
    pub fn lm_logits(&self, hidden: &Tensor) -> Tensor {
        stem::logits(&Local(self.cfg), hidden, &self.params.embedding)
    }

    /// Mean LM loss for token labels `[b·s]`.
    pub fn lm_loss(&self, tokens: &[usize], labels: &[usize]) -> f32 {
        let rows = self.cfg.tokens();
        stem::lm_loss(&Local(self.cfg), &self.stem(), tokens, labels, rows)
    }

    /// Full forward + backward: returns the loss and all parameter grads.
    pub fn lm_grads(&self, tokens: &[usize], labels: &[usize]) -> (f32, ModelParams) {
        let (low, rows) = (Local(self.cfg), self.cfg.tokens());
        let meter = &mut MemMeter::new();
        stem::lm_grads(&low, &self.stem(), tokens, labels, rows, false, meter)
    }

    /// One SGD training step; returns the loss before the update.
    pub fn train_step(&mut self, tokens: &[usize], labels: &[usize], lr: f32) -> f32 {
        let (loss, grads) = self.lm_grads(tokens, labels);
        self.apply_sgd(&grads, lr);
        loss
    }

    /// Plain SGD over every parameter.
    pub fn apply_sgd(&mut self, grads: &ModelParams, lr: f32) {
        self.visit_params_grads(grads, &mut |p, g| tensor::optim::sgd_update(p, g, lr));
    }

    /// Greedy next-token prediction: for each of the `b` sequences, the
    /// argmax of the logits at its final position.
    pub fn greedy_next(&self, tokens: &[usize]) -> Vec<usize> {
        let logits = self.lm_logits(&self.hidden_states(tokens));
        let s = self.cfg.seq;
        (0..self.cfg.batch)
            .map(|b| {
                let row = logits.row(b * s + s - 1);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite logits"))
                    .expect("non-empty vocab")
                    .0
            })
            .collect()
    }

    /// Visits every `(parameter, gradient)` slice pair in the canonical
    /// order of [`crate::walk_stem`] — the contract
    /// [`tensor::optim::AdamSet`] relies on.
    pub fn visit_params_grads(
        &mut self,
        grads: &ModelParams,
        f: &mut impl FnMut(&mut [f32], &[f32]),
    ) {
        self.params.walk(grads, f);
    }

    /// One SGD step with global gradient-norm clipping: if the gradient
    /// norm exceeds `max_norm`, all gradients are scaled down uniformly
    /// (implemented as an effective learning-rate scale, which is
    /// algebraically identical). Returns `(loss, clip scale)`.
    pub fn train_step_clipped(
        &mut self,
        tokens: &[usize],
        labels: &[usize],
        lr: f32,
        max_norm: f64,
    ) -> (f32, f32) {
        let (loss, grads) = self.lm_grads(tokens, labels);
        let mut sq = 0.0f64;
        self.visit_params_grads(&grads, &mut |_, g| sq += tensor::schedule::sq_norm(g));
        let scale = tensor::schedule::clip_scale(sq, max_norm);
        self.apply_sgd(&grads, lr * scale);
        (loss, scale)
    }

    /// One Adam training step; `opt` carries the moments across steps.
    pub fn train_step_adam(
        &mut self,
        tokens: &[usize],
        labels: &[usize],
        opt: &mut tensor::optim::AdamSet,
    ) -> f32 {
        let (loss, grads) = self.lm_grads(tokens, labels);
        opt.begin_step();
        self.visit_params_grads(&grads, &mut |p, g| opt.apply(p, g));
        loss
    }

    /// Classification branch (Fig. 1): take the hidden state of the first
    /// token of each sequence and project to two classes. Returns per-
    /// sequence logits `[b, 2]`.
    pub fn classify_forward(&self, tokens: &[usize]) -> Tensor {
        let (w, b) = self.cls.as_ref().expect("built without classifier head");
        let hidden = self.hidden_states(tokens);
        let mut pooled = Tensor::zeros(&[self.cfg.batch, self.cfg.hidden]);
        for b in 0..self.cfg.batch {
            pooled
                .row_mut(b)
                .copy_from_slice(hidden.row(b * self.cfg.seq));
        }
        linear_forward(&Local(self.cfg), Role::Expand, &pooled, w, b)
    }

    /// Classification loss for per-sequence binary labels.
    pub fn classify_loss(&self, tokens: &[usize], labels: &[usize]) -> f32 {
        assert_eq!(labels.len(), self.cfg.batch);
        cross_entropy(&self.classify_forward(tokens), labels).0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tensor::Rng;

    fn toy() -> (ModelConfig, Vec<usize>, Vec<usize>) {
        let cfg = ModelConfig::tiny();
        let mut rng = Rng::new(77);
        let tokens: Vec<usize> = (0..cfg.tokens()).map(|_| rng.below(cfg.vocab)).collect();
        let labels: Vec<usize> = (0..cfg.tokens()).map(|_| rng.below(cfg.vocab)).collect();
        (cfg, tokens, labels)
    }

    #[test]
    fn initial_loss_is_near_log_vocab() {
        let (cfg, tokens, labels) = toy();
        let model = SerialModel::new(cfg, 1);
        let loss = model.lm_loss(&tokens, &labels);
        let uniform = (cfg.vocab as f32).ln();
        assert!((loss - uniform).abs() < 0.5, "loss={loss}, log v={uniform}");
    }

    #[test]
    fn training_reduces_loss() {
        let (cfg, tokens, labels) = toy();
        let mut model = SerialModel::new(cfg, 1);
        let first = model.train_step(&tokens, &labels, 0.5);
        let mut last = first;
        for _ in 0..20 {
            last = model.train_step(&tokens, &labels, 0.5);
        }
        assert!(
            last < first - 0.3,
            "loss did not decrease: first={first} last={last}"
        );
    }

    #[test]
    fn embedding_gradient_matches_finite_difference() {
        let (cfg, tokens, labels) = toy();
        let model = SerialModel::new(cfg, 2);
        let (_, grads) = model.lm_grads(&tokens, &labels);
        let eps = 1e-2f32;
        // Check a few entries of the embedding gradient (lookup + tied head).
        for &(r, c) in &[(0usize, 0usize), (3, 5), (11, 7)] {
            let mut mp = SerialModel::new(cfg, 2);
            *mp.params.embedding.at_mut(r, c) += eps;
            let up = mp.lm_loss(&tokens, &labels);
            let mut mm = SerialModel::new(cfg, 2);
            *mm.params.embedding.at_mut(r, c) -= eps;
            let dn = mm.lm_loss(&tokens, &labels);
            let fd = (up - dn) / (2.0 * eps);
            let got = grads.embedding.at(r, c);
            assert!(
                (got - fd).abs() < 5e-3,
                "dE[{r},{c}]: analytic={got} fd={fd}"
            );
        }
    }

    #[test]
    fn layer_weight_gradient_matches_finite_difference() {
        let (cfg, tokens, labels) = toy();
        let model = SerialModel::new(cfg, 3);
        let (_, grads) = model.lm_grads(&tokens, &labels);
        let eps = 1e-2f32;
        for &(l, r, c) in &[(0usize, 0usize, 0usize), (1, 3, 9)] {
            let mut mp = SerialModel::new(cfg, 3);
            *mp.params.layers[l].w_qkv.at_mut(r, c) += eps;
            let up = mp.lm_loss(&tokens, &labels);
            let mut mm = SerialModel::new(cfg, 3);
            *mm.params.layers[l].w_qkv.at_mut(r, c) -= eps;
            let dn = mm.lm_loss(&tokens, &labels);
            let fd = (up - dn) / (2.0 * eps);
            let got = grads.layers[l].w_qkv.at(r, c);
            assert!(
                (got - fd).abs() < 5e-3,
                "layer {l} dWqkv[{r},{c}]: analytic={got} fd={fd}"
            );
        }
    }

    #[test]
    fn forward_is_deterministic() {
        let (cfg, tokens, labels) = toy();
        let m1 = SerialModel::new(cfg, 4);
        let m2 = SerialModel::new(cfg, 4);
        assert_eq!(m1.lm_loss(&tokens, &labels), m2.lm_loss(&tokens, &labels));
    }

    #[test]
    fn classifier_branch_produces_per_sequence_logits() {
        let (cfg, tokens, _) = toy();
        let model = SerialModel::new(cfg, 5).with_classifier(5);
        let logits = model.classify_forward(&tokens);
        assert_eq!(logits.dims(), &[cfg.batch, 2]);
        let loss = model.classify_loss(&tokens, &[0, 1]);
        assert!((loss - (2.0f32).ln()).abs() < 0.2, "loss={loss}");
    }

    #[test]
    #[should_panic(expected = "out of vocab")]
    fn embed_rejects_bad_token() {
        let (cfg, mut tokens, _) = toy();
        tokens[0] = cfg.vocab;
        SerialModel::new(cfg, 0).embed(&tokens);
    }
}
