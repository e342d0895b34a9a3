//! Validates the paper's Table 1 closed-form communication costs against
//! the *executed* simulation's communication logs, for both schemes, at
//! several problem sizes.

use optimus::megatron::{layer1d_backward, layer1d_forward, slice_layer1d, MegatronConfig};
use optimus::mesh::{CommOp, Group, Mesh, Mesh2d};
use optimus::optimus_core::{layer2d_backward, layer2d_forward, slice_layer2d, OptimusConfig};
use optimus::perf::table1::{megatron_layer_costs, optimus_layer_costs};
use optimus::serial::{LayerParams, ModelConfig};
use optimus::summa::distribute;
use optimus::tensor::{Rng, Tensor};

/// Ring all-reduce wire volume per device for a logged op.
fn ring_wire(elems: usize, g: usize) -> usize {
    2 * (g - 1) * elems / g
}

fn megatron_case(b: usize, s: usize, h: usize, n: usize, p: usize) {
    let cfg = ModelConfig {
        batch: b,
        seq: s,
        hidden: h,
        heads: n,
        vocab: 4 * h,
        layers: 1,
        causal: false,
    };
    let mcfg = MegatronConfig::new(cfg, p);
    let full = LayerParams::init(0, 0, h);
    let mut rng = Rng::new(1);
    let x = Tensor::randn(&[cfg.tokens(), h], 1.0, &mut rng);
    let dy = Tensor::randn(&[cfg.tokens(), h], 1.0, &mut rng);

    let (_, logs) = Mesh::run_with_logs(p, |ctx| {
        let world = Group::world(p);
        let lp = slice_layer1d(&full, h, p, ctx.rank());
        let (_, cache) = layer1d_forward(ctx, &world, &mcfg, &lp, &x);
        layer1d_backward(ctx, &world, &mcfg, &lp, &cache, &dy);
    });
    let expect = megatron_layer_costs(b, s, h, p);
    for log in &logs {
        // Our run does forward once + backward (2 ARs each, no recompute
        // since we reuse the cache): 4 all-reduces of bsh.
        let wire: usize = log
            .ops
            .iter()
            .filter(|o| o.op == CommOp::AllReduce)
            .map(|o| ring_wire(o.elems, o.group_size))
            .sum();
        // fwd_comm covers 2 ARs; our total is fwd + backward-without-
        // recompute = 2x fwd_comm.
        let model = 2.0 * expect.fwd_comm;
        assert!(
            (wire as f64 - model).abs() < 1.0,
            "megatron p={p}: wire {wire} vs Table-1 {model}"
        );
    }
}

#[test]
fn megatron_comm_matches_table1_across_sizes() {
    megatron_case(4, 8, 16, 4, 2);
    megatron_case(4, 8, 16, 4, 4);
    megatron_case(2, 16, 32, 8, 4);
}

fn optimus_case(b: usize, s: usize, h: usize, n: usize, q: usize) {
    let cfg = OptimusConfig {
        q,
        batch: b,
        seq: s,
        hidden: h,
        heads: n,
        vocab: 4 * h,
        layers: 1,
        causal: false,
        checkpoint: false,
        fused_attention: false,
    };
    cfg.validate();
    let full = LayerParams::init(0, 0, h);
    let mut rng = Rng::new(2);
    let x = Tensor::randn(&[b * s, h], 1.0, &mut rng);
    let dy = Tensor::randn(&[b * s, h], 1.0, &mut rng);

    let (_, logs) = Mesh2d::run_with_logs(q, |g| {
        let lp = slice_layer2d(g, &full);
        let (_, cache) = layer2d_forward(g, &cfg, &lp, &distribute(g, &x));
        layer2d_backward(g, &cfg, &lp, &cache, &distribute(g, &dy));
    });

    // The Table-1 Optimus *payload* (without the tree-depth factor) is
    // (7bsh + 12h²)/q forward and twice that for the backward-without-
    // recompute (each matmul backward = 2 SUMMA products).
    let p = q * q;
    // Smallest SUMMA panel: activation panels are bsh/p, the smallest
    // weight panel is h*h/p; bias/LN broadcasts are at most 4h/q (smaller).
    let panel_threshold = (b * s * h).min(h * h) / p;
    let fwd_payload = (7 * b * s * h + 12 * h * h) / q;
    let expect_total = 3 * fwd_payload;
    for log in &logs {
        let measured: usize = log
            .ops
            .iter()
            .filter(|o| {
                matches!(o.op, CommOp::Broadcast | CommOp::Reduce) && o.elems >= panel_threshold
            })
            .map(|o| o.elems)
            .sum();
        assert_eq!(
            measured, expect_total,
            "optimus q={q}: SUMMA payload {measured} vs closed form {expect_total}"
        );
    }
}

#[test]
fn optimus_comm_matches_table1_across_sizes() {
    optimus_case(4, 8, 16, 4, 2);
    optimus_case(4, 4, 32, 8, 2);
    optimus_case(6, 8, 24, 6, 3);
}

#[test]
fn megatron_checkpointed_step_has_table1_all_reduce_count() {
    // With activation checkpointing, one training step performs per layer:
    // 2 forward ARs + 2 recompute ARs + 2 gradient ARs = 6 all-reduces of
    // bsh (Table 1's fwd 4(p−1)/p·bsh + bwd 8(p−1)/p·bsh), plus one for the
    // embedding and one for the LM-head input gradient.
    use optimus::megatron::MegatronModel;
    let cfg = ModelConfig {
        batch: 4,
        seq: 8,
        hidden: 16,
        heads: 4,
        vocab: 32,
        layers: 3,
        causal: false,
    };
    let p = 4;
    let mcfg = MegatronConfig::new(cfg, p).with_checkpoint();
    let mut rng = Rng::new(9);
    let tokens: Vec<usize> = (0..cfg.tokens()).map(|_| rng.below(cfg.vocab)).collect();
    let labels: Vec<usize> = (0..cfg.tokens()).map(|_| rng.below(cfg.vocab)).collect();
    let (_, logs) = Mesh::run_with_logs(p, |ctx| {
        let mut m = MegatronModel::new(mcfg, 2, ctx);
        m.train_step(ctx, &tokens, &labels, 0.1)
    });
    let bsh = cfg.tokens() * cfg.hidden;
    for log in &logs {
        let big_ars = log
            .ops
            .iter()
            .filter(|o| o.op == CommOp::AllReduce && o.elems == bsh)
            .count();
        assert_eq!(big_ars, 6 * cfg.layers + 2, "bsh-sized all-reduces");
    }

    // Without checkpointing the recompute ARs disappear: 4 per layer.
    let mcfg_plain = MegatronConfig::new(cfg, p);
    let (_, logs) = Mesh::run_with_logs(p, |ctx| {
        let mut m = MegatronModel::new(mcfg_plain, 2, ctx);
        m.train_step(ctx, &tokens, &labels, 0.1)
    });
    for log in &logs {
        let big_ars = log
            .ops
            .iter()
            .filter(|o| o.op == CommOp::AllReduce && o.elems == bsh)
            .count();
        assert_eq!(big_ars, 4 * cfg.layers + 2);
    }
}

#[test]
fn backward_to_forward_comm_ratios() {
    // Megatron bwd (with recompute) = 2x fwd; Optimus = 3x fwd.
    let m = megatron_layer_costs(16, 128, 512, 8);
    assert!((m.bwd_comm / m.fwd_comm - 2.0).abs() < 1e-12);
    let o = optimus_layer_costs(16, 128, 512, 16);
    assert!((o.bwd_comm / o.fwd_comm - 3.0).abs() < 1e-12);
}

#[test]
fn computation_per_device_is_equal_in_both_schemes() {
    for p in [4usize, 16, 64] {
        let m = megatron_layer_costs(32, 512, 2048, p);
        let o = optimus_layer_costs(32, 512, 2048, p);
        assert_eq!(m.fwd_macs, o.fwd_macs);
        assert_eq!(m.bwd_macs, o.bwd_macs);
    }
}

#[test]
fn non_summa_comm_is_negligible() {
    // Section 3.2.2's claim: the LN/bias traffic is small next to SUMMA's.
    let (b, s, h, n, q) = (4usize, 8usize, 32usize, 4usize, 2usize);
    let cfg = OptimusConfig {
        q,
        batch: b,
        seq: s,
        hidden: h,
        heads: n,
        vocab: 4 * h,
        layers: 1,
        causal: false,
        checkpoint: false,
        fused_attention: false,
    };
    let full = LayerParams::init(0, 0, h);
    let mut rng = Rng::new(3);
    let x = Tensor::randn(&[b * s, h], 1.0, &mut rng);
    let (_, logs) = Mesh2d::run_with_logs(q, |g| {
        let lp = slice_layer2d(g, &full);
        layer2d_forward(g, &cfg, &lp, &distribute(g, &x));
    });
    let p = q * q;
    let threshold = (h * h) / p;
    let (mut summa, mut other) = (0usize, 0usize);
    for o in &logs[0].ops {
        let is_panel = matches!(o.op, CommOp::Broadcast | CommOp::Reduce) && o.elems >= threshold;
        if is_panel {
            summa += o.elems;
        } else {
            other += o.elems;
        }
    }
    assert!(
        (other as f64) < 0.15 * summa as f64,
        "non-SUMMA traffic should be negligible: {other} vs {summa}"
    );
}
