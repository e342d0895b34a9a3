//! Hybrid data-parallel × 2D tensor-parallel training: 2 replicas, each an
//! Optimus 2×2 sub-mesh (8 simulated devices total), trained on a shared
//! global batch — and verified against the serial model on that same batch.
//! Data parallelism is the `dp` axis of a `HybridSpec` with one pipeline
//! stage and one microbatch.
//!
//! ```text
//! cargo run --release --example hybrid_dp
//! ```

use optimus::hybrid::{self, HybridSpec};
use optimus::mesh::Mesh;
use optimus::optimus_core::OptimusConfig;
use optimus::serial::SerialModel;
use optimus::tensor::Rng;

fn main() {
    let spec = HybridSpec {
        pp: 1,
        dp: 2, // data-parallel replicas
        grid: [2, 2, 1],
        microbatches: 1,
    };
    let cfg = OptimusConfig {
        q: spec.q(),
        batch: 8, // the global batch: 4 sequences per replica
        seq: 8,
        hidden: 16,
        heads: 4,
        vocab: 32,
        layers: 2,
        causal: false,
        checkpoint: true,
        fused_attention: false,
    };
    let devices = spec.devices();
    println!(
        "hybrid layout: {} replicas x {}x{} mesh = {devices} devices, global batch {}",
        spec.dp, cfg.q, cfg.q, cfg.batch
    );

    let mut rng = Rng::new(0);
    let n = cfg.batch * cfg.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(cfg.vocab)).collect();

    let steps = 8;
    let lr = 0.4;
    let losses = Mesh::run(devices, |ctx| {
        let (mut stage, grid) = hybrid::build(ctx, &spec, &cfg, 11);
        (0..steps)
            .map(|_| stage.train_step(&grid, &tokens, &labels, lr))
            .collect::<Vec<f32>>()
    });

    // The serial reference trained on the full global batch must follow the
    // exact same trajectory (summed replica gradients == global mean loss).
    let mut reference = SerialModel::new(cfg.model(), 11);
    println!("\nstep   hybrid(2x2x2)   serial(b=8)   |diff|");
    for (step, &loss) in losses[0].iter().enumerate() {
        let r = reference.train_step(&tokens, &labels, lr);
        println!(
            "{step:>4}   {loss:>12.6}   {r:>11.6}   {:.2e}",
            (loss - r).abs()
        );
        assert!((loss - r).abs() < 5e-3, "hybrid and serial diverged");
    }
    println!("\nhybrid data x tensor parallel == serial on the global batch ✓");
}
