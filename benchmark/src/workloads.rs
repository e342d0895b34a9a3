//! The four named workloads and the per-device model each one trains.

use hybrid::{HybridSpec, HybridStage};
use megatron::{MegatronConfig, MegatronModel};
use mesh::{DeviceCtx, GridNd};
use optimus_core::{OptimusConfig, OptimusModel};
use serial::ModelConfig;
use tensor::Rng;

pub const SEQ: usize = 64;
pub const HEADS: usize = 8;
pub const LAYERS: usize = 4;
pub const LR: f32 = 0.01;

/// Distinct symbols of the cyclic pattern corpus.
const PATTERN_PERIOD: usize = 16;

#[derive(Clone, Copy, Debug)]
pub enum Scheme {
    /// Optimus 2D on a `q × q` mesh.
    Optimus { q: usize },
    /// Megatron 1D over `p` devices.
    Megatron { p: usize },
    /// Pipeline × data × 2D stages.
    Hybrid(HybridSpec),
}

#[derive(Clone, Copy, Debug)]
pub struct Workload {
    pub name: &'static str,
    /// One line on which layer this workload stresses and which it bypasses.
    pub why: &'static str,
    pub scheme: Scheme,
    /// The single-device model of the same task; `batch` is the global batch.
    pub model: ModelConfig,
}

const fn model(hidden: usize, batch: usize, vocab: usize) -> ModelConfig {
    ModelConfig {
        batch,
        seq: SEQ,
        hidden,
        heads: HEADS,
        vocab,
        layers: LAYERS,
        causal: true,
    }
}

/// Sizes were chosen on a 2-core host for steady step times under neighbour
/// load; the README gives the spreads measured at hidden 512, 384 and 256.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "opt2d_2x2_h256",
        why: "Optimus 2x2, 128-wide blocks: GEMM and element-wise kernels dominate, group-of-2 collectives are degenerate",
        scheme: Scheme::Optimus { q: 2 },
        model: model(256, 8, 256),
    },
    Workload {
        name: "opt2d_4x4_h128",
        why: "Optimus 4x4, 32-wide blocks on 16 threads: collective latency, wait/skew and pool contention dominate, GEMM does little",
        scheme: Scheme::Optimus { q: 4 },
        model: model(128, 8, 256),
    },
    Workload {
        name: "meg1d_p4_h256",
        why: "Megatron-1D p=4 baseline: few large all-reduce/all-gather calls over a group of 4; SUMMA and the 2D layers are bypassed",
        scheme: Scheme::Megatron { p: 4 },
        model: model(256, 8, 256),
    },
    Workload {
        name: "hyb_pp2_dp2_2x2_h128",
        why: "pp=2 x dp=2 x 2x2 on 16 threads: 1F1B with p2p, dp gradient all-reduce and tied-embedding sync composed with SUMMA stages",
        scheme: Scheme::Hybrid(HybridSpec {
            pp: 2,
            dp: 2,
            grid: [2, 2, 1],
            microbatches: 2,
        }),
        model: model(128, 16, 256),
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Device threads the workload runs on.
    pub fn world(&self) -> usize {
        match self.scheme {
            Scheme::Optimus { q } => q * q,
            Scheme::Megatron { p } => p,
            Scheme::Hybrid(spec) => spec.devices(),
        }
    }

    pub fn tokens_per_step(&self) -> usize {
        self.model.tokens()
    }

    /// The 2D run configuration (Optimus and hybrid workloads).
    fn optimus_cfg(&self, q: usize) -> OptimusConfig {
        let m = self.model;
        OptimusConfig {
            q,
            batch: m.batch,
            seq: m.seq,
            hidden: m.hidden,
            heads: m.heads,
            vocab: m.vocab,
            layers: m.layers,
            causal: m.causal,
            checkpoint: true,
            fused_attention: false,
        }
    }

    /// Checks the scheme's divisibility rules; the error names the rule.
    pub fn validate(&self) -> Result<(), String> {
        let check = || match self.scheme {
            Scheme::Optimus { q } => {
                self.optimus_cfg(q).validate();
                Ok(())
            }
            Scheme::Megatron { p } => {
                MegatronConfig::new(self.model, p);
                Ok(())
            }
            Scheme::Hybrid(spec) => {
                spec.validate_for_world(&self.optimus_cfg(spec.q()), self.world())
            }
        };
        // The 1D/2D validators assert; turn that into the same Result.
        std::panic::catch_unwind(check)
            .unwrap_or_else(|_| Err(format!("{}: divisibility rule violated", self.name)))
    }

    /// Token and label arrays of training step `step`: each sequence walks a
    /// cycle of [`PATTERN_PERIOD`] seed-chosen tokens from a random phase,
    /// and the label is the next token of the cycle.
    pub fn batch(&self, seed: u64, step: usize) -> (Vec<usize>, Vec<usize>) {
        let base = Rng::new(seed);
        let mut pick = base.stream(0);
        let mut cycle: Vec<usize> = Vec::with_capacity(PATTERN_PERIOD);
        while cycle.len() < PATTERN_PERIOD {
            let t = pick.below(self.model.vocab);
            if !cycle.contains(&t) {
                cycle.push(t);
            }
        }
        let mut rng = base.stream(step as u64 + 1);
        let n = self.tokens_per_step();
        let (mut tokens, mut labels) = (Vec::with_capacity(n), Vec::with_capacity(n));
        for _ in 0..self.model.batch {
            let phase = rng.below(PATTERN_PERIOD);
            for t in 0..self.model.seq {
                tokens.push(cycle[(phase + t) % PATTERN_PERIOD]);
                labels.push(cycle[(phase + t + 1) % PATTERN_PERIOD]);
            }
        }
        (tokens, labels)
    }

    /// Mesh side of the SUMMA grid the workload runs on; the Megatron
    /// workload has none, so its SUMMA probe uses the `2 × 2` grid its four
    /// devices would form.
    pub fn summa_q(&self) -> usize {
        match self.scheme {
            Scheme::Optimus { q } => q,
            Scheme::Megatron { .. } => 2,
            Scheme::Hybrid(spec) => spec.q(),
        }
    }

    /// Global `(m, k, n)` of the MLP-up product one tensor mesh computes.
    pub fn mlp_up_shape(&self) -> (usize, usize, usize) {
        let rows = match self.scheme {
            Scheme::Hybrid(spec) => {
                self.model.batch / (spec.dp * spec.microbatches) * self.model.seq
            }
            _ => self.model.tokens(),
        };
        (rows, self.model.hidden, 4 * self.model.hidden)
    }

    /// `(m, k, n)` of the MLP-up GEMM a single device runs per call.
    pub fn local_mlp_up_shape(&self) -> (usize, usize, usize) {
        let (m, k, n) = self.mlp_up_shape();
        match self.scheme {
            Scheme::Megatron { p } => (m, k, n / p),
            _ => {
                let q = self.summa_q();
                (m / q, k / q, n / q)
            }
        }
    }

    /// Scheduled pipeline bubble `(pp − 1) / (m + pp − 1)`; 0 without stages.
    pub fn bubble_frac(&self) -> f64 {
        match self.scheme {
            Scheme::Hybrid(s) => (s.pp - 1) as f64 / (s.microbatches + s.pp - 1) as f64,
            _ => 0.0,
        }
    }
}

/// One device's shard of a workload's model, with the communicator view it
/// trains on.
pub enum Device<'a> {
    Optimus(OptimusModel, GridNd<'a>),
    Megatron(MegatronModel, &'a DeviceCtx),
    Hybrid(HybridStage, GridNd<'a>),
}

impl<'a> Device<'a> {
    pub fn build(w: &Workload, seed: u64, ctx: &'a DeviceCtx) -> Self {
        match w.scheme {
            Scheme::Optimus { q } => {
                let grid = GridNd::with_shape(ctx, &[q, q]);
                Device::Optimus(OptimusModel::new(&w.optimus_cfg(q), seed, &grid), grid)
            }
            Scheme::Megatron { p } => {
                let cfg = MegatronConfig::new(w.model, p).with_checkpoint();
                Device::Megatron(MegatronModel::new(cfg, seed, ctx), ctx)
            }
            Scheme::Hybrid(spec) => {
                let (stage, grid) = hybrid::build(ctx, &spec, &w.optimus_cfg(spec.q()), seed);
                Device::Hybrid(stage, grid)
            }
        }
    }

    /// One SGD step; returns the global mean loss before the update.
    pub fn train_step(&mut self, tokens: &[usize], labels: &[usize]) -> f32 {
        match self {
            Device::Optimus(m, g) => m.train_step(g, tokens, labels, LR),
            Device::Megatron(m, ctx) => m.train_step(*ctx, tokens, labels, LR),
            Device::Hybrid(st, g) => st.train_step(g, tokens, labels, LR),
        }
    }

    /// Microbatch caches live at once during the last step (1 without a
    /// pipeline: the one batch in flight).
    pub fn peak_live_microbatches(&self) -> usize {
        match self {
            Device::Hybrid(st, _) => st.peak_live_microbatches,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_workload_passes_its_scheme_validation() {
        for w in &WORKLOADS {
            w.validate().unwrap_or_else(|e| panic!("{}: {e}", w.name));
        }
    }

    #[test]
    fn validation_reports_a_broken_spec() {
        let mut w = WORKLOADS[1];
        w.model.heads = 6; // 4 does not divide 6
        assert!(w.validate().is_err());
    }

    #[test]
    fn batches_depend_on_seed_and_step_only() {
        let w = &WORKLOADS[0];
        assert_eq!(w.batch(3, 5), w.batch(3, 5));
        assert_ne!(w.batch(3, 5), w.batch(4, 5));
        assert_ne!(w.batch(3, 5), w.batch(3, 6));
        let (tokens, labels) = w.batch(3, 0);
        assert_eq!(tokens.len(), w.tokens_per_step());
        assert!(tokens.iter().chain(&labels).all(|&t| t < w.model.vocab));
        // Labels are the next token of the same sequence.
        assert_eq!(tokens[1..SEQ], labels[..SEQ - 1]);
    }

    #[test]
    fn local_mlp_blocks_follow_the_partition() {
        assert_eq!(WORKLOADS[0].local_mlp_up_shape(), (256, 128, 512));
        assert_eq!(WORKLOADS[1].local_mlp_up_shape(), (128, 32, 128));
        assert_eq!(WORKLOADS[2].local_mlp_up_shape(), (512, 256, 256));
        assert_eq!(WORKLOADS[3].local_mlp_up_shape(), (128, 64, 256));
        assert_eq!(WORKLOADS[3].bubble_frac(), 1.0 / 3.0);
    }
}
