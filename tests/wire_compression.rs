//! End-to-end wire compression: an 8 × 8 dry-run with bf16 rules installed
//! must reconcile against the α-β-γ cost model to < 1e-5 (the ISSUE 10
//! acceptance bar), the bytes-on-wire metrics counters must record the
//! halved traffic, and a live 2 × 2 × dp=2 training run with error-feedback
//! bf16 gradient all-reduce must track the f32 loss curve.
//!
//! Tests here share one process-global wire table (and the metrics sink),
//! so they serialize on a mutex; the table-installing test restores the
//! baseline before releasing it.

use mesh::{Coll, CollBuf, CollPlan, CommOp, Communicator, Group, Mesh, WireDtype, WireTable};
use optimus_core::{hybrid_layout, hybrid_train_step_ef, OptimusConfig, OptimusModel};
use perf::{CostModel, HardwareProfile};
use std::sync::Mutex;
use tensor::Rng;

/// Serializes tests that touch process-global state (wire table, metrics).
static GLOBALS: Mutex<()> = Mutex::new(());

fn batch(cfg: &OptimusConfig, seed: u64, shards: usize) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = shards * cfg.batch * cfg.seq;
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
    let _guard = GLOBALS.lock().unwrap();
    mesh::install_wire_table(WireTable::all(WireDtype::Bf16));

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
    let (tokens, labels) = batch(&cfg, 0xC0117, 1);
    // Fine-clock trick (same as `tune-coll`'s gate): the model is linear in
    // its rate terms, so scaling them together pushes the 1 ns clock-
    // rounding floor well below the 1e-5 bar without moving relative gaps.
    const CLOCK_SCALE: f64 = 1024.0;
    let profile = HardwareProfile::frontera_rtx5000();
    let fine = HardwareProfile {
        mac_rate: profile.mac_rate / CLOCK_SCALE,
        alpha: profile.alpha * CLOCK_SCALE,
        beta_intra: profile.beta_intra * CLOCK_SCALE,
        beta_inter: profile.beta_inter * CLOCK_SCALE,
        gamma: profile.gamma * CLOCK_SCALE,
        ..profile.clone()
    };
    let p = Q * Q;
    let cost = CostModel::new(fine, mesh::Topology::flat(p, profile.gpus_per_node.min(p)));
    let (_, logs, traces) = mesh::MeshNd::dry_run_traced(&[Q, Q, 1], cost.ns_pricer(), |g| {
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

    mesh::install_wire_table(WireTable::baseline());
}

/// The `coll_wire_bytes` / `coll_logical_bytes` counters must record the
/// genuine halving: a bf16 all-reduce moves about half the bytes its
/// logical payload implies, an f32 one exactly as many. Posted collectives
/// count too — SUMMA's panel traffic is all `ibroadcast` / `ireduce` — and
/// every rank's wire counter is exactly the bytes of its link records.
#[test]
fn bytes_on_wire_counters_record_the_halved_traffic() {
    let _guard = GLOBALS.lock().unwrap();
    for (w, ratio_num, ratio_den) in [(WireDtype::F32, 1usize, 1usize), (WireDtype::Bf16, 1, 2)] {
        metrics::enable();
        Mesh::run(4, move |ctx| {
            let world = Group::world(4);
            let mut data = vec![1.0f32; 4096];
            let plan = CollPlan {
                wire: w,
                ..CollPlan::select(CommOp::AllReduce, 4, data.len())
            };
            ctx.collective(Coll::AllReduce, &world, CollBuf::Now(&mut data), plan);
        });
        metrics::disable();
        let devices = metrics::drain();
        assert_eq!(devices.len(), 4);
        for d in &devices {
            let wire = d.counters["coll_wire_bytes"];
            let logical = d.counters["coll_logical_bytes"];
            assert!(logical > 0, "rank {}: no logical bytes recorded", d.rank);
            assert_eq!(
                wire,
                logical * ratio_num as u64 / ratio_den as u64,
                "rank {}: {} wire bytes vs {} logical under {:?}",
                d.rank,
                wire,
                logical,
                w
            );
        }
    }

    metrics::enable();
    let (_, logs) = Mesh::run_with_logs(4, |ctx| {
        let world = Group::world(4);
        let panel = ctx.ibroadcast(&world, 1, vec![1.0f32; 300]).wait();
        ctx.ireduce(&world, 2, panel).wait();
    });
    metrics::disable();
    let mut devices = metrics::drain();
    devices.sort_by_key(|d| d.rank);
    assert_eq!(devices.len(), 4);
    for (d, log) in devices.iter().zip(&logs) {
        let link_elems: usize = log.links.iter().map(|l| l.elems).sum();
        assert_eq!(
            d.counters.get("coll_wire_bytes").copied().unwrap_or(0),
            4 * link_elems as u64,
            "rank {}: posted collectives missing from the wire counter",
            d.rank
        );
    }
    assert!(logs.iter().any(|l| !l.links.is_empty()));
}

/// Live 2 × 2 tensor mesh × 2 data-parallel replicas: with error feedback,
/// bf16 gradient all-reduce must track the f32 loss curve within the
/// documented 2e-2 tolerance — and still learn.
#[test]
fn live_2x2_bf16_error_feedback_training_tracks_f32() {
    let _guard = GLOBALS.lock().unwrap();
    let (dp, q) = (2usize, 2usize);
    let cfg = OptimusConfig {
        q,
        batch: 2,
        seq: 4,
        hidden: 8,
        heads: 2,
        vocab: 16,
        layers: 2,
        causal: false,
        checkpoint: false,
        fused_attention: false,
    };
    let (tokens, labels) = batch(&cfg, 0xEF, dp);
    let run = |wire: WireDtype| {
        Mesh::run(dp * q * q, |ctx| {
            let (grid, dp_group, replica) = hybrid_layout(ctx, dp, q);
            let mut model = OptimusModel::new(&cfg, 11, &grid);
            let mut ef = mesh::ErrorFeedback::new();
            (0..6)
                .map(|_| {
                    hybrid_train_step_ef(
                        &mut model, &grid, &dp_group, replica, &tokens, &labels, 0.1, wire, &mut ef,
                    )
                })
                .collect::<Vec<f32>>()
        })
    };
    let full = run(WireDtype::F32);
    let half = run(WireDtype::Bf16);
    for rank in 0..dp * q * q {
        assert_eq!(half[rank], half[0], "loss diverged across ranks");
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
