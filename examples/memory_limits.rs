//! Memory limits (Figure 9) two ways:
//!
//! 1. The analytic per-device memory model at the paper's full scale
//!    (16 GB Quadro RTX 5000): max batch size for Megatron vs Optimus.
//! 2. The *measured* activation footprint of the executed simulation at
//!    small scale — the same mechanism, observed rather than modelled —
//!    including the checkpointing ablation.
//!
//! ```text
//! cargo run --release --example memory_limits
//! ```

use optimus::mesh::{Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel, Summa2d};
use optimus::perf::memory::{fig9, megatron_bytes, optimus_bytes, MemoryConfig};
use optimus::perf::HardwareProfile;
use optimus::serial::Lowering;
use optimus::tensor::Rng;

fn main() {
    let profile = HardwareProfile::frontera_rtx5000();

    println!("== Figure 9: max batch per scheme (model, 16 GB/device) ==\n");
    println!("gpus  hidden   megatron ξ(η)   optimus ξ(η)   advantage");
    let (meg, opt) = fig9(&profile, 4);
    for (m, o) in meg.iter().zip(&opt) {
        println!(
            "{:>4}  {:>6}   {:>6} ({:>4})   {:>6} ({:>4})   {:>6.1}x",
            m.gpus,
            m.hidden,
            m.runs,
            m.ooms,
            o.runs,
            o.ooms,
            o.runs as f64 / m.runs.max(1) as f64
        );
    }
    println!("\npaper: Optimus trains with b=480 on 64 GPUs — 8x Megatron's limit.\n");

    // Where the memory goes at 64 GPUs, b=30 (Megatron's weak-scaling max).
    let c = MemoryConfig {
        seq: 512,
        hidden: 8192,
        heads: 128,
        vocab: 32_000,
        layers: 24,
        p: 64,
    };
    let m = megatron_bytes(&c, 30);
    let o = optimus_bytes(&c, 30);
    println!("== breakdown at 64 GPUs, h=8192, b=30 (GB/device) ==\n");
    println!("component     megatron   optimus");
    for (name, mv, ov) in [
        ("params", m.params, o.params),
        ("grads", m.grads, o.grads),
        ("checkpoints", m.checkpoints, o.checkpoints),
        ("working set", m.working_set, o.working_set),
        ("total", m.total, o.total),
    ] {
        println!("{name:<12}  {:>8.2}   {:>7.2}", mv / 1e9, ov / 1e9);
    }

    // Executed simulation: measured activation peaks per device.
    println!("\n== measured activation peaks (thread-mesh simulation, 2x2 mesh) ==\n");
    let base = OptimusConfig {
        q: 2,
        batch: 4,
        seq: 16,
        hidden: 32,
        heads: 4,
        vocab: 64,
        layers: 6,
        causal: false,
        checkpoint: false,
        fused_attention: false,
    };
    let mut rng = Rng::new(0);
    let n = base.batch * base.seq;
    let tokens: Vec<usize> = (0..n).map(|_| rng.below(base.vocab)).collect();
    let labels: Vec<usize> = (0..n).map(|_| rng.below(base.vocab)).collect();

    for checkpoint in [false, true] {
        let cfg = OptimusConfig { checkpoint, ..base };
        let peaks = Mesh2d::run(cfg.q, |grid| {
            let mut m = OptimusModel::new(&cfg, 3, grid);
            m.train_step_detailed(grid, &tokens, &labels, 0.1)
                .peak_activation_bytes
        });
        println!(
            "checkpointing {}: peak activation bytes/device = {}",
            if checkpoint { "ON " } else { "OFF" },
            peaks[0]
        );
    }

    // The same step on a Megatron mesh replicates activations: compare the
    // raw activation volume per device (full bsh vs bsh/p per tensor).
    let mcfg = optimus::megatron::MegatronConfig::new(base.model(), 4);
    let replicated = Mesh::run(4, |ctx| {
        let model = optimus::megatron::MegatronModel::new(mcfg, 3, ctx);
        // Bytes of the replicated hidden state alone.
        model.hidden_states(ctx, &tokens).len() * 4
    });
    let block = Mesh2d::run(base.q, |grid| {
        let model = OptimusModel::new(&base, 3, grid);
        let tl = base.local_tokens(&tokens, grid.row());
        let low = Summa2d { grid, cfg: &base };
        low.embed(&model.table, tl).len() * 4
    });
    println!(
        "\none [b·s, h] activation per device: megatron {} bytes (replicated) vs optimus {} bytes (1/p block)",
        replicated[0], block[0]
    );
}
