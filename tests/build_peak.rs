//! Building a model never holds the whole model on a device: while
//! `OptimusModel::new`, `MegatronModel::new` and `HybridStage::new` run, a
//! device's tracked tensor bytes peak at exactly the tensors it keeps. Each
//! draws its pieces straight from the parameter streams (`serial::init`)
//! rather than cutting them from a whole `ModelParams::init`. (The tracker
//! counts `Tensor` payloads — the table and weight blocks; bias and
//! layer-norm vectors are plain `Vec`s and are not counted.)
//!
//! Alone in its test binary: the `metrics` sink is process-global, so a live
//! mesh of any concurrently running test would land in this test's
//! `drain()`.

use optimus::hybrid::{build, HybridSpec};
use optimus::megatron::{MegatronConfig, MegatronModel};
use optimus::mesh::{Mesh, Mesh2d};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::serial::LayerTensors;
use optimus::tensor::Tensor;
use std::iter::once;

/// Bytes of the tensors a device keeps: its table block and weight blocks.
fn kept_bytes(table: &Tensor, layers: &[LayerTensors]) -> u64 {
    let weights = layers
        .iter()
        .flat_map(|l| [&l.w_qkv, &l.w_out, &l.w_fc1, &l.w_fc2]);
    4 * once(table).chain(weights).map(Tensor::len).sum::<usize>() as u64
}

/// Runs `build` (which returns the bytes its model keeps) with tracking on;
/// returns each device's kept bytes and tracked peak, in rank order.
fn peaks(run: impl FnOnce() -> Vec<u64>) -> Vec<(u64, u64)> {
    metrics::enable();
    let kept = run();
    metrics::disable();
    let tracked = metrics::drain().iter().map(|d| d.peak_bytes).collect();
    let pairs: Vec<_> = kept.into_iter().zip::<Vec<u64>>(tracked).collect();
    assert!(!pairs.is_empty(), "no device reported");
    pairs
}

fn cfg() -> OptimusConfig {
    OptimusConfig {
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
    }
}

/// The table and weight bytes of the whole model `cfg` describes.
fn whole_model_bytes(cfg: &OptimusConfig) -> u64 {
    let (h, v) = (cfg.hidden, cfg.vocab);
    4 * (v * h + cfg.layers * 12 * h * h) as u64
}

#[test]
fn building_a_model_peaks_at_the_tensors_a_device_keeps() {
    let cfg = cfg();
    let whole = whole_model_bytes(&cfg);

    let optimus = peaks(|| {
        Mesh2d::run(cfg.q, |g| {
            let m = OptimusModel::new(&cfg, 1, g);
            kept_bytes(&m.table, &m.layers)
        })
    });
    for (rank, &(kept, peak)) in optimus.iter().enumerate() {
        assert_eq!(peak, kept, "optimus 2x2 rank {rank}");
        assert_eq!(kept * 4, whole, "optimus 2x2 rank {rank}: a quarter");
    }

    let mcfg = MegatronConfig::new(cfg.model(), 4);
    let megatron = peaks(|| {
        Mesh::run(4, |ctx| {
            let m = MegatronModel::new(mcfg, 1, ctx);
            kept_bytes(&m.table, &m.layers)
        })
    });
    for (rank, &(kept, peak)) in megatron.iter().enumerate() {
        assert_eq!(peak, kept, "megatron p=4 rank {rank}");
        assert_eq!(kept * 4, whole, "megatron p=4 rank {rank}: a quarter");
    }

    let spec = HybridSpec {
        pp: 2,
        dp: 1,
        grid: [2, 2, 1],
        microbatches: 2,
    };
    let hybrid = peaks(|| {
        Mesh::run(spec.devices(), |ctx| {
            let (st, _) = build(ctx, &spec, &cfg, 1);
            kept_bytes(&st.model.table, &st.model.layers)
        })
    });
    let stage = whole_model_bytes(&spec.micro_cfg(&cfg));
    for (rank, &(kept, peak)) in hybrid.iter().enumerate() {
        assert_eq!(peak, kept, "hybrid pp=2 rank {rank}");
        assert_eq!(
            kept * 4,
            stage,
            "hybrid pp=2 rank {rank}: a quarter of a stage"
        );
    }
}
