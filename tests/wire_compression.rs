//! End-to-end wire compression: an 8 × 8 dry-run selecting bf16 everywhere
//! must reconcile against the α-β-γ cost model to < 1e-5 (the ISSUE 10
//! acceptance bar), and a live 2 × 2 × dp=2 training run with error-feedback
//! bf16 gradient all-reduce must track the f32 loss curve. (The bytes-on-wire
//! counters are checked in `tests/wire_counters.rs`.)

use hybrid::HybridSpec;
use mesh::{CollTables, Mesh, MeshRun, WireDtype};
use optimus_core::{OptimusConfig, OptimusModel};
use perf::{CostModel, HardwareProfile};
use tensor::Rng;

fn batch(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.batch * cfg.seq;
    (
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
    )
}

/// The paper-scale 8 × 8 mesh, every collective compressed to bf16, one
/// Optimus training step dry-run: the priced timeline must reconcile with
/// `CostModel::meta_time` re-applied to the same events — proof that
/// tracecheck re-prices exactly the bytes that traveled (β halved plus the
/// γ pack/unpack term), not the logical f32 volume.
#[test]
fn compressed_8x8_dry_run_reconciles_with_the_cost_model() {
    const Q: usize = 8;
    let cfg = OptimusConfig {
        q: Q,
        batch: 8,
        seq: 16,
        hidden: 64,
        heads: 8,
        vocab: 16,
        layers: 2,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    };
    let (tokens, labels) = batch(&cfg, 0xC0117);
    // Fine clock (same as `tune-coll`'s gate): the 1 ns clock-rounding
    // floor drops well below the 1e-5 bar without moving relative gaps.
    let profile = HardwareProfile::frontera_rtx5000();
    let p = Q * Q;
    let cost = CostModel::new(
        profile.clock_scaled(1024.0),
        mesh::Topology::flat(p, profile.gpus_per_node.min(p)),
    );
    let compressed = CollTables {
        wire: WireDtype::Bf16,
        ..CollTables::default()
    };
    let run = MeshRun::new(&[Q, Q, 1], compressed);
    let (_, logs, traces) = run.dry_run_traced(cost.ns_pricer(), |g| {
        let mut m = OptimusModel::new(&cfg, 7, g);
        m.train_step(g, &tokens, &labels, 0.1)
    });

    // The run must actually have compressed: every collective op event is
    // stamped bf16, and the recorded wire volume is about half the logical.
    let mut ops = 0usize;
    for dev in &traces {
        for ev in &dev.events {
            if let trace::Event::Op { meta, .. } = ev {
                assert_eq!(meta.wire, "bf16", "unstamped op: {}", meta.kind);
                ops += 1;
            }
        }
    }
    assert!(ops > 0, "no collective op events recorded");
    let sent: usize = logs
        .iter()
        .flat_map(|l| l.links.iter().map(|lk| lk.elems))
        .sum();
    let totals = perf::tracecheck::op_totals(&cost, &traces);
    let logical: usize = totals.iter().map(|t| t.elems).sum();
    assert!(
        sent * 2 <= logical + ops, // +ops absorbs the odd-tail slot per op
        "wire volume {sent} is not half of logical {logical}"
    );

    let gap = perf::tracecheck::max_rel_gap(&totals);
    assert!(
        gap.is_finite() && gap < 1e-5,
        "compressed 8x8 reconciliation gap {gap:.3e} >= 1e-5"
    );
}

/// Live 2 × 2 tensor mesh × 2 data-parallel replicas: with error feedback,
/// bf16 gradient all-reduce must track the f32 loss curve within the
/// documented 2e-2 tolerance — and still learn. bf16 keeps 8 mantissa bits
/// (relative rounding error <= 2^-8 per element); the residual carried into
/// the next step keeps the per-step loss gap that small.
#[test]
fn live_2x2_bf16_error_feedback_training_tracks_f32() {
    let spec = HybridSpec {
        pp: 1,
        dp: 2,
        grid: [2, 2, 1],
        microbatches: 1,
    };
    let cfg = OptimusConfig {
        q: spec.q(),
        batch: 4,
        seq: 4,
        hidden: 8,
        heads: 2,
        vocab: 16,
        layers: 2,
        causal: false,
        checkpoint: false,
        fused_attention: false,
    };
    let (tokens, labels) = batch(&cfg, 0xEF);
    let run = |wire: WireDtype| {
        Mesh::run(spec.devices(), |ctx| {
            let (mut stage, grid) = hybrid::build(ctx, &spec, &cfg, 11);
            stage.set_grad_wire(wire);
            (0..6)
                .map(|_| stage.train_step(&grid, &tokens, &labels, 0.1))
                .collect::<Vec<f32>>()
        })
    };
    let full = run(WireDtype::F32);
    let half = run(WireDtype::Bf16);
    for rank in 0..spec.devices() {
        assert_eq!(full[rank], full[0], "f32 loss diverged across ranks");
        assert_eq!(half[rank], half[0], "bf16 loss diverged across ranks");
    }
    for (a, b) in full[0].iter().zip(&half[0]) {
        assert!((a - b).abs() < 2e-2, "f32={a} bf16+ef={b}");
    }
    assert!(
        half[0].last().unwrap() < &(half[0][0] - 1e-3),
        "bf16+ef run failed to learn: {:?}",
        half[0]
    );
}
