//! Three-way numerical equivalence: the serial reference, the Megatron 1D
//! scheme and the Optimus 2D scheme must produce identical losses and
//! follow identical training trajectories from the same seed — the
//! strongest possible check that every distributed gradient is correct.

use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, Optimizer, SerialModel};
use optimus::tensor::Rng;

fn model_cfg() -> ModelConfig {
    ModelConfig {
        batch: 6,
        seq: 8,
        hidden: 12,
        heads: 6,
        vocab: 24,
        layers: 2,
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

fn optimus_cfg(cfg: &ModelConfig, q: usize, checkpoint: bool) -> OptimusConfig {
    OptimusConfig {
        q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint,
        fused_attention: false,
    }
}

#[test]
fn all_three_schemes_agree_on_the_loss() {
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 1);
    let reference = SerialModel::new(cfg, 11).lm_loss(&tokens, &labels);

    for p in [1usize, 2, 3, 6] {
        let mcfg = MegatronConfig::new(cfg, p);
        let losses = Mesh::run(p, |ctx| {
            MegatronModel::new(mcfg, 11, ctx).lm_loss(ctx, &tokens, &labels)
        });
        for l in losses {
            assert!(
                (l - reference).abs() < 1e-4,
                "megatron p={p}: {l} vs {reference}"
            );
        }
    }
    for q in [1usize, 2, 3] {
        let ocfg = optimus_cfg(&cfg, q, false);
        let losses = Mesh2d::run(q, |g| {
            OptimusModel::new(&ocfg, 11, g).lm_loss(g, &tokens, &labels)
        });
        for l in losses {
            assert!(
                (l - reference).abs() < 1e-4,
                "optimus q={q}: {l} vs {reference}"
            );
        }
    }
}

#[test]
fn training_trajectories_are_identical_across_schemes() {
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 2);
    let steps = 5;
    let lr = 0.25;

    let mut serial = SerialModel::new(cfg, 5);
    let ref_losses: Vec<f32> = (0..steps)
        .map(|_| serial.train_step(&tokens, &labels, lr))
        .collect();

    let mcfg = MegatronConfig::new(cfg, 2);
    let meg = Mesh::run(2, |ctx| {
        let mut m = MegatronModel::new(mcfg, 5, ctx);
        (0..steps)
            .map(|_| m.train_step(ctx, &tokens, &labels, lr))
            .collect::<Vec<f32>>()
    });

    let ocfg = optimus_cfg(&cfg, 2, false);
    let opt = Mesh2d::run(2, |g| {
        let mut m = OptimusModel::new(&ocfg, 5, g);
        (0..steps)
            .map(|_| m.train_step(g, &tokens, &labels, lr))
            .collect::<Vec<f32>>()
    });

    for step in 0..steps {
        let r = ref_losses[step];
        assert!(
            (meg[0][step] - r).abs() < 2e-3,
            "megatron step {step}: {} vs {r}",
            meg[0][step]
        );
        assert!(
            (opt[0][step] - r).abs() < 2e-3,
            "optimus step {step}: {} vs {r}",
            opt[0][step]
        );
    }
    // Losses must decrease overall.
    assert!(ref_losses[steps - 1] < ref_losses[0]);
}

#[test]
fn causal_models_agree_too() {
    let cfg = ModelConfig {
        causal: true,
        ..model_cfg()
    };
    let (tokens, labels) = data(&cfg, 3);
    let reference = SerialModel::new(cfg, 4).lm_loss(&tokens, &labels);
    let ocfg = optimus_cfg(&cfg, 2, false);
    let losses = Mesh2d::run(2, |g| {
        OptimusModel::new(&ocfg, 4, g).lm_loss(g, &tokens, &labels)
    });
    for l in losses {
        assert!((l - reference).abs() < 1e-4);
    }
    let mcfg = MegatronConfig::new(cfg, 2);
    let losses = Mesh::run(2, |ctx| {
        MegatronModel::new(mcfg, 4, ctx).lm_loss(ctx, &tokens, &labels)
    });
    for l in losses {
        assert!((l - reference).abs() < 1e-4);
    }
}

#[test]
fn embedding_gradients_reassemble_across_schemes() {
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 6);
    let (_, ref_grads) = SerialModel::new(cfg, 8).lm_grads(&tokens, &labels);

    // Megatron: vocab row-slices tile the serial gradient.
    let p = 2;
    let mcfg = MegatronConfig::new(cfg, p);
    let meg = Mesh::run(p, |ctx| {
        let m = MegatronModel::new(mcfg, 8, ctx);
        m.lm_grads(ctx, &tokens, &labels).1.embedding
    });
    let vp = cfg.vocab / p;
    for (j, block) in meg.iter().enumerate() {
        let expect = ref_grads.embedding.block(j * vp, 0, vp, cfg.hidden);
        optimus::tensor::assert_close(block.as_slice(), expect.as_slice(), 1e-4, 1e-3);
    }

    // Optimus: q x q SUMMA blocks tile it.
    let q = 2;
    let ocfg = optimus_cfg(&cfg, q, false);
    let opt = Mesh2d::run(q, |g| {
        let mut m = OptimusModel::new(&ocfg, 8, g);
        m.lm_grads(g, &tokens, &labels).1.embedding
    });
    let re = optimus::summa::collect_blocks(&opt, q);
    optimus::tensor::assert_close(re.as_slice(), ref_grads.embedding.as_slice(), 1e-4, 1e-3);
}

#[test]
fn sixteen_device_mesh_matches_serial() {
    // The largest mesh exercised in tests: q=4 (16 device threads).
    // 16 heads of dimension 1 so Megatron's p=16 divisibility holds too.
    let cfg = ModelConfig {
        batch: 4,
        seq: 4,
        hidden: 16,
        heads: 16,
        vocab: 16,
        layers: 1,
        causal: false,
    };
    let (tokens, labels) = data(&cfg, 16);
    let mut serial = SerialModel::new(cfg, 4);
    let ref_losses: Vec<f32> = (0..3)
        .map(|_| serial.train_step(&tokens, &labels, 0.2))
        .collect();
    let ocfg = optimus_cfg(&cfg, 4, true);
    let losses = Mesh2d::run(4, |g| {
        let mut m = OptimusModel::new(&ocfg, 4, g);
        (0..3)
            .map(|_| m.train_step(g, &tokens, &labels, 0.2))
            .collect::<Vec<f32>>()
    });
    for dev in &losses {
        for (a, b) in dev.iter().zip(&ref_losses) {
            assert!((a - b).abs() < 2e-3, "q=4: {a} vs {b}");
        }
    }
    // Megatron at the same device count.
    let mcfg = MegatronConfig::new(cfg, 16).with_checkpoint();
    let meg = Mesh::run(16, |ctx| {
        let mut m = MegatronModel::new(mcfg, 4, ctx);
        (0..3)
            .map(|_| m.train_step(ctx, &tokens, &labels, 0.2))
            .collect::<Vec<f32>>()
    });
    for (a, b) in meg[0].iter().zip(&ref_losses) {
        assert!((a - b).abs() < 2e-3, "p=16: {a} vs {b}");
    }
}

#[test]
fn clipped_training_matches_serial_including_the_clip_scale() {
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 9);
    let lr = 0.3;
    // A max-norm low enough that early steps actually clip.
    let max_norm = 0.5;

    let clipped = || Optimizer::Clipped { lr, max_norm };

    let (mut serial, mut opt) = (SerialModel::new(cfg, 6), clipped());
    let serial_out: Vec<(f32, f32)> = (0..4)
        .map(|_| serial.step(&tokens, &labels, &mut opt))
        .collect();
    assert!(
        serial_out.iter().any(|(_, s)| *s < 1.0),
        "the test must exercise actual clipping: {serial_out:?}"
    );

    let ocfg = optimus_cfg(&cfg, 2, false);
    let mut runs = Mesh2d::run(2, |g| {
        let (mut m, mut opt) = (OptimusModel::new(&ocfg, 6, g), clipped());
        (0..4)
            .map(|_| m.step(g, &tokens, &labels, &mut opt))
            .collect::<Vec<(f32, f32)>>()
    });
    // Megatron at the widths that split the config's 6 heads.
    for p in [2, 3] {
        let mcfg = MegatronConfig::new(cfg, p);
        runs.extend(Mesh::run(p, |ctx| {
            let (mut m, mut opt) = (MegatronModel::new(mcfg, 6, ctx), clipped());
            (0..4)
                .map(|_| m.step(ctx, &tokens, &labels, &mut opt))
                .collect::<Vec<(f32, f32)>>()
        }));
    }
    for dev in &runs {
        for ((l, s), (rl, rs)) in dev.iter().zip(&serial_out) {
            assert!((l - rl).abs() < 2e-3, "loss {l} vs {rl}");
            assert!((s - rs).abs() < 1e-4, "clip scale {s} vs {rs}");
        }
    }
}

#[test]
fn checkpointed_and_fused_paths_follow_the_same_trajectory() {
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 7);
    let lr = 0.3;
    let steps = 4;

    // SGD updates each gradient as soon as it is complete; clipping at an
    // infinite norm scales by exactly 1 but collects every gradient first.
    let collecting = Optimizer::Clipped {
        lr,
        max_norm: f64::INFINITY,
    };
    let run = |checkpoint: bool, opt: &Optimizer| {
        let ocfg = optimus_cfg(&cfg, 2, checkpoint);
        Mesh2d::run(2, |g| {
            let (mut m, mut opt) = (OptimusModel::new(&ocfg, 6, g), opt.clone());
            (0..steps)
                .map(|_| m.step(g, &tokens, &labels, &mut opt).0)
                .collect::<Vec<f32>>()
        })
    };
    let plain = run(false, &collecting);
    let ckpt = run(true, &collecting);
    let fused = run(true, &Optimizer::Sgd { lr });
    for step in 0..steps {
        assert!((plain[0][step] - ckpt[0][step]).abs() < 1e-5);
        assert!((plain[0][step] - fused[0][step]).abs() < 1e-5);
    }
}
