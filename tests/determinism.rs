//! Determinism guarantees: the whole stack (PRNG → parameter slicing →
//! threaded collectives → training) is bit-reproducible, which is what makes
//! the cross-scheme equivalence tests meaningful.

use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Group, Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::Rng;

fn data(n: usize, vocab: usize, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    (
        (0..n).map(|_| rng.below(vocab)).collect(),
        (0..n).map(|_| rng.below(vocab)).collect(),
    )
}

#[test]
fn repeated_mesh_runs_are_bit_identical() {
    let cfg = OptimusConfig::tiny(2);
    let (tokens, labels) = data(cfg.batch * cfg.seq, cfg.vocab, 0);
    let run = || {
        Mesh2d::run(cfg.q, |g| {
            let mut m = OptimusModel::new(&cfg, 1, g);
            (0..3)
                .map(|_| m.train_step(g, &tokens, &labels, 0.2))
                .collect::<Vec<f32>>()
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b, "thread scheduling must not affect results");
}

#[test]
fn ring_all_reduce_is_deterministic_despite_threads() {
    // The ring fixes the reduction order, so f32 non-associativity cannot
    // introduce run-to-run noise.
    let run = || {
        Mesh::run(8, |ctx| {
            let g = Group::world(8);
            let mut data: Vec<f32> = (0..1000)
                .map(|i| ((ctx.rank() * 1000 + i) as f32).sin())
                .collect();
            ctx.all_reduce(&g, &mut data);
            data
        })
    };
    let a = run();
    let b = run();
    assert_eq!(a, b);
}

#[test]
fn different_seeds_give_different_models() {
    let cfg = ModelConfig::tiny();
    let (tokens, labels) = data(cfg.tokens(), cfg.vocab, 1);
    let l1 = SerialModel::new(cfg, 1).lm_loss(&tokens, &labels);
    let l2 = SerialModel::new(cfg, 2).lm_loss(&tokens, &labels);
    assert_ne!(l1, l2);
}

#[test]
fn mesh_size_does_not_change_the_math() {
    // The same model evaluated on 1, 4 and 9 simulated devices gives the
    // same loss (tolerances only from f32 reduction order).
    let cfg = ModelConfig {
        batch: 6,
        seq: 4,
        hidden: 12,
        heads: 6,
        vocab: 18,
        layers: 1,
        causal: false,
    };
    let (tokens, labels) = data(cfg.tokens(), cfg.vocab, 2);
    let reference = SerialModel::new(cfg, 3).lm_loss(&tokens, &labels);
    for q in [1usize, 2, 3] {
        let ocfg = OptimusConfig {
            q,
            batch: cfg.batch,
            seq: cfg.seq,
            hidden: cfg.hidden,
            heads: cfg.heads,
            vocab: cfg.vocab,
            layers: cfg.layers,
            causal: false,
            checkpoint: false,
            fused_attention: false,
        };
        let l = Mesh2d::run(q, |g| {
            OptimusModel::new(&ocfg, 3, g).lm_loss(g, &tokens, &labels)
        })[0];
        assert!((l - reference).abs() < 1e-4, "q={q}: {l} vs {reference}");
    }
}

#[test]
fn parameter_slicing_is_independent_of_device_count() {
    // Device (0,0)'s block of a 2x2 partition equals the union of the
    // corresponding finer blocks — guaranteed because blocks are sliced
    // from one deterministic full matrix, never generated per device.
    use optimus::tensor::init::{init_matrix, param_ids};
    let full = init_matrix(9, param_ids::EMBEDDING, &[12, 12], 0.02);
    let coarse = full.summa_block(0, 0, 2); // 6x6
    let fine = full.summa_block(0, 0, 3); // 4x4
    for r in 0..4 {
        for c in 0..4 {
            assert_eq!(coarse.at(r, c), fine.at(r, c));
        }
    }
}

#[test]
fn megatron_replicas_are_bit_identical_across_devices() {
    let cfg = ModelConfig::tiny();
    let (tokens, labels) = data(cfg.tokens(), cfg.vocab, 3);
    let mcfg = MegatronConfig::new(cfg, 2);
    let losses = Mesh::run(2, |ctx| {
        let mut m = MegatronModel::new(mcfg, 5, ctx);
        (0..3)
            .map(|_| m.train_step(ctx, &tokens, &labels, 0.1))
            .collect::<Vec<f32>>()
    });
    assert_eq!(losses[0], losses[1]);
}

#[test]
fn gelu_is_independent_of_how_the_activation_is_partitioned() {
    // An element's GELU (and GELU gradient) is a function of its value
    // alone: the serial block, the four Optimus [2,2] blocks and the two
    // Megatron column slices of one global activation, each computed on its
    // own device thread at its own offset and length, reassemble bitwise.
    use optimus::tensor::ops::{gelu_backward, gelu_forward};
    use optimus::tensor::Tensor;
    let (rows, cols) = (18, 44); // blocks of 9x22 and 18x22: vector tails everywhere
    let mut rng = Rng::new(11);
    let f1 = Tensor::randn(&[rows, cols], 2.0, &mut rng);
    let dg = Tensor::randn(&[rows, cols], 1.0, &mut rng);
    let serial = (gelu_forward(&f1), gelu_backward(&dg, &f1));

    let blocks = Mesh2d::run(2, |g| {
        let (x, dy) = (
            f1.summa_block(g.row(), g.col(), 2),
            dg.summa_block(g.row(), g.col(), 2),
        );
        (gelu_forward(&x), gelu_backward(&dy, &x))
    });
    let (fwd, bwd): (Vec<_>, Vec<_>) = blocks.into_iter().unzip();
    assert_eq!(Tensor::from_summa_blocks(&fwd, 2), serial.0);
    assert_eq!(Tensor::from_summa_blocks(&bwd, 2), serial.1);

    let slices = Mesh::run(2, |ctx| {
        let w = cols / 2;
        let (x, dy) = (
            f1.block(0, ctx.rank() * w, rows, w),
            dg.block(0, ctx.rank() * w, rows, w),
        );
        (gelu_forward(&x), gelu_backward(&dy, &x))
    });
    let mut fwd = Tensor::zeros(&[rows, cols]);
    let mut bwd = Tensor::zeros(&[rows, cols]);
    for (r, (y, dx)) in slices.iter().enumerate() {
        fwd.set_block(0, r * cols / 2, y);
        bwd.set_block(0, r * cols / 2, dx);
    }
    assert_eq!(fwd, serial.0);
    assert_eq!(bwd, serial.1);
}

#[test]
fn causal_attention_rows_are_exactly_zero_above_the_diagonal() {
    use optimus::serial::attention_forward;
    use optimus::tensor::Tensor;
    let cfg = ModelConfig {
        causal: true,
        ..ModelConfig::tiny()
    };
    let mut rng = Rng::new(12);
    let mut qkv = || Tensor::randn(&[cfg.tokens(), cfg.hidden], 3.0, &mut rng);
    let (q, k, v) = (qkv(), qkv(), qkv());
    let (_, cache) = attention_forward(&cfg, &q, &k, &v, true);
    let cache = cache.expect("probabilities were kept");
    assert_eq!(cache.probs.len(), cfg.batch * cfg.heads);
    for a in &cache.probs {
        for i in 0..cfg.seq {
            for j in 0..cfg.seq {
                if j > i {
                    assert_eq!(a.at(i, j).to_bits(), 0, "masked ({i}, {j}) must be +0.0");
                }
            }
            let sum: f32 = a.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
    }
}
