//! Every kernel runs on its caller's thread: a live `[2, 2]` training step
//! runs on the driver thread plus one thread per device, and the serial
//! reference and a large GEMM on the driver thread start no thread either —
//! no compute-pool worker, no progress thread (Linux only: threads are
//! listed from `/proc/self/task`).
//!
//! One test, alone in its file, so that no other test's threads are counted.
#![cfg(target_os = "linux")]

use optimus::mesh::Mesh2d;
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::{ModelConfig, SerialModel};
use optimus::tensor::gemm::{gemm_acc, Form};

/// Names of this process's threads.
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .unwrap()
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim_end().to_string())
        .collect()
}

#[test]
fn kernels_start_no_thread() {
    let cfg = ModelConfig {
        batch: 4,
        seq: 64,
        hidden: 64,
        heads: 4,
        vocab: 64,
        layers: 1,
        causal: true,
    };
    let q = 2;
    let ocfg = OptimusConfig {
        q,
        batch: cfg.batch,
        seq: cfg.seq,
        hidden: cfg.hidden,
        heads: cfg.heads,
        vocab: cfg.vocab,
        layers: cfg.layers,
        causal: cfg.causal,
        checkpoint: true,
        fused_attention: false,
    };
    let tokens: Vec<usize> = (0..cfg.tokens()).map(|i| i % cfg.vocab).collect();
    let labels: Vec<usize> = tokens.iter().map(|t| (t + 1) % cfg.vocab).collect();

    let before = thread_names().len();
    let live = Mesh2d::run(q, |g| {
        let loss = OptimusModel::new(&ocfg, 5, g).train_step(g, &tokens, &labels, 0.1);
        // Peers may have returned already, never more than q² devices run.
        let now = thread_names().len();
        assert!(
            now <= before + q * q,
            "{now} threads during a {q}x{q} step, {before} before it"
        );
        loss
    });

    let serial = SerialModel::new(cfg, 5).train_step(&tokens, &labels, 0.1);
    assert!((serial - live[0]).abs() < 1e-3, "{serial} vs {}", live[0]);
    let s = 256;
    let (a, b) = (vec![1.0f32; s * s], vec![0.5f32; s * s]);
    let mut c = vec![0.0f32; s * s];
    gemm_acc(Form::NN, &mut c, s, s, &a, &b, s);
    assert!(c.iter().all(|&v| v == 128.0));

    for name in thread_names() {
        assert!(
            !name.starts_with("compute-pool") && !name.starts_with("mesh-progress"),
            "a thread ({name}) runs kernels for its caller"
        );
    }
}
