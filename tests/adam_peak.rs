//! The tensor memory a checkpointed Adam step peaks at, pinned: Adam
//! applies and drops each gradient as soon as it is complete, as SGD does
//! (`serial::stem::step`), so its step peaks where the SGD step of
//! `tests/tensor_peak.rs` does. Adam's moments are plain buffers of the
//! optimizer state, not tensors, and do not count here.
//!
//! Alone in its test binary: the `metrics` sink is process-global, so a live
//! mesh of any concurrently running test would land in this test's
//! `drain()`.

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::Optimizer;
use optimus::tensor::optim::Adam;
use optimus::tensor::Rng;

#[test]
fn a_checkpointed_four_layer_2d_adam_step_peaks_where_the_sgd_step_does() {
    let cfg = OptimusConfig {
        q: 2,
        batch: 4,
        seq: 8,
        hidden: 16,
        heads: 4,
        vocab: 32,
        layers: 4,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let mut rng = Rng::new(3);
    let n = cfg.batch * cfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();

    metrics::enable();
    Mesh2d::run(cfg.q, |g| {
        let mut m = OptimusModel::new(&cfg, 1, g);
        m.step(g, &tokens, &labels, &mut Optimizer::Adam(Adam::new(0.01)));
    });
    metrics::disable();
    let tracked: Vec<u64> = metrics::drain().iter().map(|d| d.peak_bytes).collect();

    // The top layer's backward, beside all three kept 512-byte inputs, as
    // under SGD: 36 864 bytes less the seven 512-byte blocks of left
    // operands (`ln1_out`, `ctxt`, `ln2_out` and the four-block `g`) that
    // the top layer's cache leaves to its kept row strips. An Adam step that
    // collected its gradients first would peak in the bottom layer's
    // backward holding three layers' weight gradients: 40 960 bytes.
    assert_eq!(tracked, vec![36_864 - 7 * 512; 4]);
    assert!(tracked.iter().all(|&b| b <= 36_864));
}
