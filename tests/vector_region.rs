//! Hosted vectors travel once per step. Every bias and layer-norm vector a
//! 2D stage holds lives in one region per device (`serial::Region`): a
//! step broadcasts it down each mesh column once before its first forward
//! and reduces the summed gradients back to mesh row 0 once after its last
//! backward — however many layers, recomputes and pipeline microbatches
//! lie between (paper Fig. 5, Section 3.2.2).

use optimus::hybrid::{build, HybridSpec};
use optimus::mesh::{CommLog, CommOp, Group, Mesh, MeshNd};
use optimus::optimus_core::{OptimusConfig, OptimusModel};
use optimus::tensor::{Rng, Tensor};

fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
    let mut rng = Rng::new(seed);
    let n = cfg.batch * cfg.seq;
    (
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        (0..n).map(|_| rng.below(cfg.vocab)).collect(),
    )
}

/// The model one of the step benchmark's 2D workloads trains: sequence 64,
/// 8 heads, 4 layers, causal, vocabulary 256, checkpointing on.
fn bench_cfg(q: usize, hidden: usize, batch: usize) -> OptimusConfig {
    OptimusConfig {
        q,
        batch,
        seq: 64,
        hidden,
        heads: 8,
        vocab: 256,
        layers: 4,
        causal: true,
        checkpoint: true,
        fused_attention: false,
    }
}

/// The step benchmark's hybrid workload: 2 stages × 2 replicas × `[2, 2]`,
/// two microbatches.
const HYBRID: HybridSpec = HybridSpec {
    pp: 2,
    dp: 2,
    grid: [2, 2, 1],
    microbatches: 2,
};

/// One dry-run SGD step of the 2D model on a `dims` mesh.
fn step_2d(dims: &[usize], cfg: &OptimusConfig) -> Vec<CommLog> {
    let (tokens, labels) = data(cfg, 3);
    MeshNd::dry_run_with_logs(dims, |g| {
        OptimusModel::new(cfg, 1, g).train_step(g, &tokens, &labels, 0.01)
    })
    .1
}

/// One dry-run SGD step of `spec` on `cfg`.
fn step_hybrid(spec: &HybridSpec, cfg: &OptimusConfig) -> Vec<CommLog> {
    let (tokens, labels) = data(cfg, 3);
    Mesh::dry_run_with_logs(spec.devices(), |ctx| {
        let (mut st, grid) = build(ctx, spec, cfg, 1);
        st.train_step(&grid, &tokens, &labels, 0.01)
    })
    .1
}

/// `(broadcasts, reduces)` of exactly `len` elements this device joined.
fn vector_calls(log: &CommLog, len: usize) -> (usize, usize) {
    let count = |op| {
        (log.ops.iter())
            .filter(|o| o.op == op && o.elems == len)
            .count()
    };
    (count(CommOp::Broadcast), count(CommOp::Reduce))
}

/// Collective participations of every device in one step.
fn participations(logs: &[CommLog]) -> usize {
    logs.iter().map(|l| l.ops.len()).sum()
}

#[test]
fn a_2d_step_moves_its_vectors_in_one_broadcast_and_one_reduce() {
    // The region is the final layer norm's two vectors plus each layer's
    // eight, `(13L + 2)·h/q` elements; no other column call carries a
    // vector's width (`h/q`, `3h/q` or `4h/q`, which no panel of this shape
    // has).
    for dims in [&[2, 2][..], &[4, 4], &[2, 2, 2]] {
        let q = dims[0];
        let cfg = OptimusConfig {
            seq: 5,
            hidden: 8 * q,
            layers: 3,
            checkpoint: true,
            ..OptimusConfig::tiny(q)
        };
        let w = cfg.hidden / q;
        let region = (13 * cfg.layers + 2) * w;
        for log in step_2d(dims, &cfg) {
            assert_eq!(vector_calls(&log, region), (1, 1), "{dims:?}");
            for len in [w, 3 * w, 4 * w] {
                assert_eq!(vector_calls(&log, len), (0, 0), "{dims:?}: {len}");
            }
        }
    }
}

#[test]
fn a_pipeline_stage_reduces_its_vectors_once_per_step_not_per_microbatch() {
    // Each stage's region holds its own layers' vectors; only the last
    // stage, which runs the final layer norm, adds that norm's two.
    let cfg = bench_cfg(2, 128, 16);
    let w = cfg.hidden / HYBRID.q();
    let layers = HYBRID.layers_per_stage(&cfg);
    for log in step_hybrid(&HYBRID, &cfg) {
        let (stage, _, _) = HYBRID.position(log.rank);
        let head = if stage + 1 == HYBRID.pp { 2 } else { 0 };
        let region = (13 * layers + head) * w;
        assert_eq!(vector_calls(&log, region), (1, 1), "rank {}", log.rank);
        for len in [w, 3 * w, 4 * w] {
            let calls = vector_calls(&log, len);
            assert_eq!(calls, (0, 0), "rank {}: {len}", log.rank);
        }
    }
}

#[test]
fn the_benchmark_2d_workloads_join_the_pinned_collectives_per_step() {
    // Before the region a 2×2 or 4×4 device joined `24L − 4 = 92` vector
    // calls a step: `8L + 2` fetches in the forward, `8(L − 1)` in the
    // recomputes and `8L + 2` sends home; now it joins 2.
    let saved = |devices: usize| devices * (24 * 4 - 4 - 2);
    let now = participations(&step_2d(&[2, 2], &bench_cfg(2, 256, 8)));
    assert_eq!((now, now + saved(4)), (868, 1228));
    let now = participations(&step_2d(&[4, 4], &bench_cfg(4, 128, 8)));
    assert_eq!((now, now + saved(16)), (6480, 7920));

    // The hybrid's stages fetched per microbatch, in the forward and in
    // each recompute (all of a stage's layers below the last stage, all but
    // the top one on it), and sent home per microbatch; every device then
    // all-reduced the table and each weight over the replicas, and the `q`
    // devices of mesh row 0 each vector too. Now each device joins one
    // broadcast, one reduce and one dp all-reduce of its synced region.
    let cfg = bench_cfg(2, 128, 16);
    let (m, l, q) = (
        HYBRID.microbatches,
        HYBRID.layers_per_stage(&cfg),
        HYBRID.q(),
    );
    let stage = |last: usize| {
        let vectors = 8 * l + 2 * last;
        let column = m * (2 * vectors + 8 * (l - last)) - 2;
        q * q * (column + 4 * l) + q * vectors
    };
    let saved = HYBRID.dp * (stage(0) + stage(1));
    let now = participations(&step_hybrid(&HYBRID, &cfg));
    assert_eq!((now, now + saved), (3528, 5232));
}

#[test]
fn a_tree_reduce_of_the_region_is_the_concatenated_reduces() {
    // Under the default table every reduce is a tree, which sums each
    // element over the members in the same order whatever the buffer's
    // length: reducing the region moves no bit of any vector gradient.
    for q in [2usize, 3, 4] {
        let widths = [8usize, 8, 24, 8, 8, 8, 32, 8];
        let outs = Mesh::run(q, |ctx| {
            let (column, rng) = (Group::world(q), &mut Rng::new(ctx.rank() as u64));
            let mut pieces = widths.map(|w| Tensor::randn(&[1, w], 1.0, rng).into_vec());
            let mut region = pieces.concat();
            ctx.reduce(&column, 0, &mut region);
            pieces.iter_mut().for_each(|p| ctx.reduce(&column, 0, p));
            (region, pieces.concat())
        });
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&outs[0].0), bits(&outs[0].1), "q={q}");
    }
}
