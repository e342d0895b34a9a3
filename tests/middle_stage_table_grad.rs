//! A pipeline stage that neither embeds nor has the head has no table
//! gradient to build: its backward ends in a send, so it emits none, and the
//! zero gradient its table block reports to the optimizer is made once per
//! step, when the stage's gradients are collected, not once per microbatch.
//!
//! Alone in its test binary: the `metrics` sink is process-global, so a live
//! mesh of any concurrently running test would land in this test's
//! `drain()`.

use optimus::hybrid::{build, HybridSpec};
use optimus::mesh::Mesh;
use optimus::optimus_core::OptimusConfig;
use optimus::tensor::Rng;

const HIDDEN: usize = 8;

/// Bytes of tensors the middle stage of a `pp = 3` pipeline allocates over
/// its build and one training step of `m` microbatches.
fn middle_stage_allocations(vocab: usize, m: usize) -> u64 {
    let cfg = OptimusConfig {
        q: 1,
        batch: 4,
        seq: 4,
        hidden: HIDDEN,
        heads: 2,
        vocab,
        layers: 3,
        causal: true,
        checkpoint: false,
        fused_attention: false,
    };
    let spec = HybridSpec {
        pp: 3,
        dp: 1,
        grid: [1, 1, 1],
        microbatches: m,
    };
    spec.validate(&cfg).unwrap();
    let mut rng = Rng::new(5);
    let n = cfg.batch * cfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(vocab)).collect();

    metrics::enable();
    let stages = Mesh::run(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, &spec, &cfg, 7);
        st.train_step(&grid, &tokens, &labels, 0.1);
        (ctx.rank(), spec.position(ctx.rank()).0)
    });
    metrics::disable();
    let devices = metrics::drain();
    let (middle, _) = stages.into_iter().find(|&(_, stage)| stage == 1).unwrap();
    let d = devices.iter().find(|d| d.rank == middle).unwrap();
    d.alloc_bytes_total
}

#[test]
fn a_middle_stage_builds_its_zero_table_gradient_once_per_step() {
    // Only the table block `[v, h]` and its gradient depend on the
    // vocabulary here, so doubling it from 16 to 32 adds one `[16, h]` block
    // per table-shaped tensor the stage allocates: its parameter block and
    // the one zero gradient, whatever the microbatch count (it was one zero
    // gradient per microbatch).
    let block = (16 * HIDDEN * 4) as u64;
    for m in [2, 4] {
        let grown = middle_stage_allocations(32, m) - middle_stage_allocations(16, m);
        assert_eq!(grown, 2 * block, "m = {m}");
    }
}
