//! Property-style gradient verification: random model shapes, random data,
//! random perturbation directions — the analytic gradients of the serial
//! reference (which anchors both distributed schemes) must match central
//! differences, and the distributed schemes must match the serial gradients
//! on randomly chosen parameters.
//!
//! Cases are drawn from the workspace's own seeded PRNG (deterministic).

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::summa::collect_blocks;
use optimus::tensor::Rng;

fn random_cfg(heads: usize, seq: usize, layers: usize) -> ModelConfig {
    ModelConfig {
        batch: 2,
        seq,
        hidden: 4 * heads,
        heads,
        vocab: 12,
        layers,
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
fn serial_loss_gradient_matches_finite_difference() {
    let mut case = Rng::new(0x6A01);
    for _ in 0..10 {
        let heads = 1 + case.below(3);
        let seq = 2 + case.below(4);
        let layers = 1 + case.below(2);
        let seed = case.below(500) as u64;
        let probe = case.below(1000);

        let cfg = random_cfg(heads, seq, layers);
        let (tokens, labels) = data(&cfg, seed);
        let model = SerialModel::new(cfg, seed + 1);
        let (_, grads) = model.lm_grads(&tokens, &labels);

        // Probe one embedding entry and one QKV entry.
        let e_idx = probe % model.params.embedding.len();
        let eps = 3e-3f32; // small enough that curvature error is negligible
        let mut up = SerialModel::new(cfg, seed + 1);
        up.params.embedding.as_mut_slice()[e_idx] += eps;
        let mut dn = SerialModel::new(cfg, seed + 1);
        dn.params.embedding.as_mut_slice()[e_idx] -= eps;
        let fd = (up.lm_loss(&tokens, &labels) - dn.lm_loss(&tokens, &labels)) / (2.0 * eps);
        let got = grads.embedding.as_slice()[e_idx];
        // f32 central differences on a tied-embedding loss carry noticeable
        // curvature error; allow a relative slack.
        assert!(
            (got - fd).abs() < 6e-3 + 0.15 * fd.abs(),
            "dE[{e_idx}] analytic {got} vs fd {fd}"
        );

        let w_idx = probe % model.params.layers[0].w_qkv.len();
        let mut up = SerialModel::new(cfg, seed + 1);
        up.params.layers[0].w_qkv.as_mut_slice()[w_idx] += eps;
        let mut dn = SerialModel::new(cfg, seed + 1);
        dn.params.layers[0].w_qkv.as_mut_slice()[w_idx] -= eps;
        let fd = (up.lm_loss(&tokens, &labels) - dn.lm_loss(&tokens, &labels)) / (2.0 * eps);
        let got = grads.layers[0].w_qkv.as_slice()[w_idx];
        assert!(
            (got - fd).abs() < 6e-3 + 0.15 * fd.abs(),
            "dWqkv[{w_idx}] analytic {got} vs fd {fd}"
        );
    }
}

#[test]
fn distributed_gradients_tile_serial_gradients() {
    let mut case = Rng::new(0x6A02);
    for _ in 0..10 {
        let heads_per_q = 1 + case.below(2);
        let seq = 2 + case.below(3);
        let seed = case.below(500) as u64;

        let q = 2usize;
        let cfg = ModelConfig {
            batch: 2 * q,
            seq,
            hidden: 4 * heads_per_q * q,
            heads: heads_per_q * q,
            vocab: 8 * q,
            layers: 1,
            causal: false,
        };
        let (tokens, labels) = data(&cfg, seed);
        let (_, ref_grads) = SerialModel::new(cfg, seed).lm_grads(&tokens, &labels);

        let ocfg = OptimusConfig {
            q,
            batch: cfg.batch,
            seq: cfg.seq,
            hidden: cfg.hidden,
            heads: cfg.heads,
            vocab: cfg.vocab,
            layers: cfg.layers,
            causal: false,
            checkpoint: seed.is_multiple_of(2), // exercise both paths
            fused_attention: seed.is_multiple_of(3),
        };
        let blocks = Mesh2d::run(q, |g| {
            let mut m = OptimusModel::new(&ocfg, seed, g);
            let (_, grads) = m.lm_grads(g, &tokens, &labels);
            (grads.embedding, grads.layers[0].w_out.clone())
        });
        let tables: Vec<_> = blocks.iter().map(|(t, _)| t.clone()).collect();
        let wouts: Vec<_> = blocks.iter().map(|(_, w)| w.clone()).collect();
        let table = collect_blocks(&tables, q);
        let wout = collect_blocks(&wouts, q);
        assert!(
            optimus::tensor::max_abs_diff(table.as_slice(), ref_grads.embedding.as_slice()) < 1e-3
        );
        assert!(
            optimus::tensor::max_abs_diff(wout.as_slice(), ref_grads.layers[0].w_out.as_slice())
                < 1e-3
        );
    }
}

#[test]
fn loss_is_permutation_covariant_in_the_batch() {
    let mut case = Rng::new(0x6A03);
    for _ in 0..10 {
        let seed = case.below(500) as u64;
        // Swapping two sequences in the batch (tokens and labels together)
        // must not change the mean loss — catches any cross-sequence
        // leakage in the attention partition.
        let cfg = random_cfg(2, 4, 1);
        let (mut tokens, mut labels) = data(&cfg, seed);
        let model = SerialModel::new(cfg, seed);
        let base = model.lm_loss(&tokens, &labels);
        // Swap sequences 0 and 1.
        let s = cfg.seq;
        for t in 0..s {
            tokens.swap(t, s + t);
            labels.swap(t, s + t);
        }
        let swapped = model.lm_loss(&tokens, &labels);
        assert!((base - swapped).abs() < 1e-5, "{base} vs {swapped}");
    }
}
