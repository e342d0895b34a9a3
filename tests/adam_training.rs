//! Adam optimizer parity: every parameter lives on exactly one device (2D)
//! or holds identical replicas (1D), so distributed Adam trajectories must
//! match the serial one bit-for-tolerance — a much stricter test than SGD
//! because Adam's moments amplify any gradient discrepancy over steps.

use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::optim::AdamSet;
use optimus::tensor::Rng;

fn model_cfg() -> ModelConfig {
    ModelConfig {
        batch: 4,
        seq: 8,
        hidden: 8,
        heads: 4,
        vocab: 16,
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

#[test]
fn adam_trajectories_match_across_schemes() {
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 1);
    let steps = 6;
    let lr = 0.01;

    let mut serial = SerialModel::new(cfg, 3);
    let mut opt = AdamSet::new(lr);
    let ref_losses: Vec<f32> = (0..steps)
        .map(|_| serial.train_step_adam(&tokens, &labels, &mut opt))
        .collect();

    let mcfg = MegatronConfig::new(cfg, 2);
    let meg = Mesh::run(2, |ctx| {
        let mut m = MegatronModel::new(mcfg, 3, ctx);
        let mut opt = AdamSet::new(lr);
        (0..steps)
            .map(|_| m.train_step_adam(ctx, &tokens, &labels, &mut opt))
            .collect::<Vec<f32>>()
    });

    let ocfg = OptimusConfig {
        q: 2,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: false,
        checkpoint: true,
        fused_attention: false,
    };
    let opt2d = Mesh2d::run(2, |g| {
        let mut m = OptimusModel::new(&ocfg, 3, g);
        let mut opt = AdamSet::new(lr);
        (0..steps)
            .map(|_| m.train_step_adam(g, &tokens, &labels, &mut opt))
            .collect::<Vec<f32>>()
    });

    for step in 0..steps {
        let r = ref_losses[step];
        assert!(
            (meg[0][step] - r).abs() < 2e-3,
            "megatron adam step {step}: {} vs {r}",
            meg[0][step]
        );
        assert!(
            (opt2d[0][step] - r).abs() < 2e-3,
            "optimus adam step {step}: {} vs {r}",
            opt2d[0][step]
        );
    }
}

#[test]
fn adam_converges_faster_than_sgd_with_small_lr() {
    // Sanity check that the integration is a real Adam: with a tiny lr,
    // Adam's normalised steps make much more progress than raw SGD.
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 2);
    let steps = 12;
    let lr = 0.02;

    let mut sgd_model = SerialModel::new(cfg, 5);
    let mut sgd_last = 0.0;
    for _ in 0..steps {
        sgd_last = sgd_model.train_step(&tokens, &labels, lr);
    }
    let mut adam_model = SerialModel::new(cfg, 5);
    let mut opt = AdamSet::new(lr);
    let mut adam_last = 0.0;
    for _ in 0..steps {
        adam_last = adam_model.train_step_adam(&tokens, &labels, &mut opt);
    }
    assert!(
        adam_last < sgd_last - 0.1,
        "adam ({adam_last}) should beat sgd ({sgd_last}) at lr={lr}"
    );
}

#[test]
fn adam_state_is_sharded_like_the_parameters() {
    // Each device's optimizer tracks exactly its hosted parameters: the
    // whole mesh's Adam state adds up to 8 bytes per global parameter.
    let cfg = model_cfg();
    let (tokens, labels) = data(&cfg, 3);
    let ocfg = OptimusConfig {
        q: 2,
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
    let state_bytes = Mesh2d::run(2, |g| {
        let mut m = OptimusModel::new(&ocfg, 3, g);
        let mut opt = AdamSet::new(0.01);
        m.train_step_adam(g, &tokens, &labels, &mut opt);
        opt.state_bytes()
    });
    let total: usize = state_bytes.iter().sum();
    assert_eq!(total, cfg.total_params() * 8);
    // Row-0 devices host biases/affines, so they carry more state.
    assert!(state_bytes[0] > state_bytes[2]);
}

#[test]
fn parameter_walk_order_is_the_documented_one_for_both_hostings() {
    // AdamSet keys its moments by visitation order, so the walk must visit
    // ln1_g, ln1_b, w_qkv, b_qkv, w_out, b_out, ln2_g, ln2_b, w_fc1, b_fc1,
    // w_fc2, b_fc2 — and a device that hosts no vectors must see the four
    // weights in the same relative order. Entry k has length k + 1 here.
    use optimus::serial::{Hosted, LayerTensors};
    use optimus::tensor::Tensor;
    fn layer<B: Hosted>(vec: impl Fn(usize) -> B) -> LayerTensors<B> {
        let mat = |n: usize| Tensor::zeros(&[1, n]);
        LayerTensors {
            ln1_g: vec(1),
            ln1_b: vec(2),
            w_qkv: mat(3),
            b_qkv: vec(4),
            w_out: mat(5),
            b_out: vec(6),
            ln2_g: vec(7),
            ln2_b: vec(8),
            w_fc1: mat(9),
            b_fc1: vec(10),
            w_fc2: mat(11),
            b_fc2: vec(12),
        }
    }
    fn visited<B: Hosted + Clone>(mut p: LayerTensors<B>) -> Vec<usize> {
        let g = p.clone();
        let mut opt = AdamSet::new(0.1);
        let mut seen = Vec::new();
        for _ in 0..2 {
            // A second step in a different order would trip AdamSet's
            // "changed size between steps" panic.
            seen.clear();
            opt.begin_step();
            p.walk(&g, &mut |p, g| {
                seen.push(p.len());
                opt.apply(p, g);
            });
        }
        assert_eq!(opt.tracked(), seen.len());
        assert_eq!(p.num_params(), seen.iter().sum::<usize>());
        seen
    }
    let all: Vec<usize> = (1..=12).collect();
    assert_eq!(visited(layer(|n| vec![0.0f32; n])), all);
    assert_eq!(visited(layer(|n| Some(vec![0.0f32; n]))), all);
    assert_eq!(visited(layer(|_| None::<Vec<f32>>)), [3, 5, 9, 11]);
}

#[test]
#[should_panic(expected = "hosting mismatch")]
fn walking_a_hosted_parameter_against_an_unhosted_gradient_panics() {
    use optimus::serial::walk_pair;
    walk_pair(&mut Some(vec![0.0f32]), &None, &mut |_, _| {});
}
