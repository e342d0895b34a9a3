//! Stem time models and the weak/strong scaling experiments
//! (Tables 2–3 and Figure 7).
//!
//! A *stem* is `N` consecutive transformer layers — exactly what the paper
//! times ("we choose to use the stem of Transformer … to characterize both
//! communication efficiency and memory performance"). Forward/backward times
//! are compute (Table 1 MACs at the calibrated rate) plus communication:
//! Megatron's per-layer all-reduces over the world group and Optimus's SUMMA
//! panel broadcasts/reductions over mesh rows and columns — all priced by
//! [`CostModel`], so node placement (Fig. 8) and NIC contention are in the
//! numbers. One formula, [`optimus25d_stem_times`], prices every Optimus
//! mesh: the paper's 2D stem is its depth-1 case.

use crate::cost::{pipelined_loop_time, CostModel};
use crate::profile::HardwareProfile;
use crate::table1::layer_macs;
use mesh::{Arrangement, Topology};

/// Paper constants: all scaling experiments fix `s = 512`, `N = 24`.
pub const SEQ: usize = 512;
pub const LAYERS: usize = 24;

/// One row of Table 2 / Table 3.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    pub scheme: &'static str,
    pub nodes: usize,
    pub gpus: usize,
    pub batch: usize,
    pub hidden: usize,
    pub heads: usize,
    /// Forward time per sequence, seconds (the paper's "forward time /
    /// batch size").
    pub fwd_per_seq: f64,
    /// Backward time per sequence, seconds.
    pub bwd_per_seq: f64,
    /// Sequences per second for training (fwd+bwd).
    pub throughput: f64,
    /// Sequences per second for a forward pass only.
    pub inference: f64,
    /// Parallel efficiency `T_serial / (p · T_p)` for the same problem.
    pub efficiency: f64,
    /// Speedup `T_serial / T_p` (the quantity whose trend Fig. 7-right
    /// shows: decreasing for Megatron, *increasing* for Optimus).
    pub speedup: f64,
}

/// Megatron stem forward/backward times (seconds per iteration).
///
/// Forward: compute/p + 2 world all-reduces of `bsh` per layer.
/// Backward (with activation checkpointing): 3× forward compute, and the
/// recompute's 2 all-reduces plus 2 gradient all-reduces.
pub fn megatron_stem_times(
    cm: &CostModel,
    b: usize,
    s: usize,
    h: usize,
    layers: usize,
    p: usize,
) -> (f64, f64) {
    let world: Vec<usize> = (0..p).collect();
    let comp_fwd = layers as f64 * cm.compute_time(layer_macs(b, s, h) / p as f64);
    let ar = cm.all_reduce_time(&world, b * s * h);
    let comm_fwd = layers as f64 * 2.0 * ar;
    (comp_fwd + comm_fwd, 3.0 * comp_fwd + 2.0 * comm_fwd)
}

/// The four SUMMA products of one layer: (activation panel, weight panel)
/// element counts per broadcast, for a `q × q` mesh.
fn layer_products(b: usize, s: usize, h: usize, q: usize) -> [(usize, usize); 4] {
    let p = q * q;
    let bsh = b * s * h;
    let h2 = h * h;
    [
        (bsh / p, 3 * h2 / p),     // QKV projection [bs,h]x[h,3h]
        (bsh / p, h2 / p),         // attention output [bs,h]x[h,h]
        (bsh / p, 4 * h2 / p),     // MLP expansion [bs,h]x[h,4h]
        (4 * bsh / p, 4 * h2 / p), // MLP contraction [bs,4h]x[4h,h]
    ]
}

/// Per-product output-block element counts on a `q × q` slice — the C
/// blocks the 2.5D depth epilogues move — in [`layer_products`] order.
fn layer_product_outputs(b: usize, s: usize, h: usize, q: usize) -> [usize; 4] {
    let p = q * q;
    let bsh = b * s * h;
    [3 * bsh / p, bsh / p, 4 * bsh / p, bsh / p]
}

/// Tesseract 2.5D stem times on a `[q, q, d]` mesh (`q²·d` devices,
/// `d | q`).
///
/// Each depth slice runs `q/d` of the `q` SUMMA panel rounds, so panel
/// traffic *and* GEMM work shrink by `d`; the price is a per-product depth
/// epilogue: Algorithm 1 reduces the partial C over the `d`-deep subgroup
/// and broadcasts the total back (every replica keeps a full copy), while
/// the reduce-form Algorithms 2–3 complete each output block inside one
/// slice and broadcast it from its owner. The attention-score/context
/// matmuls are local under the adopted `(b, h)` partition and are
/// replicated across depth, so their compute does **not** divide by `d`.
/// With `d = 1` every epilogue vanishes and this is the paper's 2D Optimus
/// stem on a `q × q` mesh: forward, Algorithm 1 (an activation panel along
/// the row and a weight panel down the column per round); backward, the
/// dX and dW products of Algorithms 2–3 plus the checkpoint recompute of
/// the forward.
///
/// Group geometry comes from [`mesh::MeshShape`] on `[q, q, d]`, so the
/// priced rank lists are exactly the live mesh's axis subgroups: depth
/// groups are contiguous (replicas pack onto the same node first), rows
/// stride by `d`, columns by `q·d`.
pub fn optimus25d_stem_times(
    cm: &CostModel,
    b: usize,
    s: usize,
    h: usize,
    layers: usize,
    q: usize,
    d: usize,
) -> (f64, f64) {
    assert!(
        d >= 1 && q.is_multiple_of(d),
        "2.5D needs d | q (q={q}, d={d})"
    );
    let shape = mesh::MeshShape::new(&[q, q, d]);
    let origin = [0usize, 0, 0];
    let row = shape.axis_ranks(&origin, 1);
    let col = shape.axis_ranks(&origin, 0);
    let depth = shape.axis_ranks(&origin, 2);
    let p2 = q * q;
    let rounds = (q / d) as f64;

    let (bs, hf) = ((b * s) as f64, h as f64);
    let summa_macs = bs * hf * 3.0 * hf + bs * hf * hf + bs * hf * 4.0 * hf + 4.0 * bs * hf * hf;
    let other_macs = layer_macs(b, s, h) - summa_macs;
    let comp_fwd = layers as f64
        * (cm.compute_time(summa_macs / (p2 * d) as f64) + cm.compute_time(other_macs / p2 as f64));

    let mut comm_fwd = 0.0;
    let mut comm_bwd_grads = 0.0;
    let outs = layer_product_outputs(b, s, h, q);
    for ((act, w), out) in layer_products(b, s, h, q).into_iter().zip(outs) {
        comm_fwd += rounds * (cm.broadcast_time(&row, act) + cm.broadcast_time(&col, w));
        comm_bwd_grads += rounds
            * (cm.broadcast_time(&col, w)
                + cm.reduce_time(&row, act)
                + cm.broadcast_time(&row, act)
                + cm.reduce_time(&col, w));
        if d > 1 {
            // Algorithm 1 epilogue: partial-C reduce to depth 0, replica
            // broadcast back out.
            comm_fwd += cm.reduce_time(&depth, out) + cm.broadcast_time(&depth, out);
            // Algorithms 2/3 epilogue: dX (activation-shaped) and dW
            // (weight-shaped) blocks broadcast from their owning slice.
            comm_bwd_grads += cm.broadcast_time(&depth, act) + cm.broadcast_time(&depth, w);
        }
    }
    // Layer norms run within each 2D slice exactly as on a plain mesh.
    let ln_rows = b * s / q;
    let ln = 2.0 * (2.0 * cm.all_reduce_time(&row, ln_rows) + 2.0 * cm.broadcast_time(&col, h / q));
    comm_fwd += ln;
    comm_bwd_grads += ln;

    let comm_fwd = layers as f64 * comm_fwd;
    let comm_bwd = layers as f64 * comm_bwd_grads + comm_fwd; // + recompute
    (comp_fwd + comm_fwd, 3.0 * comp_fwd + comm_bwd)
}

/// Like [`optimus25d_stem_times`] at `d = 1` but pricing every SUMMA
/// product's `q`-round panel loop with a prefetch schedule
/// ([`pipelined_loop_time`]) instead of the serial sum: a projection for
/// GPUs whose communication engine moves round `l+1`'s panels while round
/// `l` computes. The thread mesh does not run this schedule; its SUMMA is
/// the serial loop [`optimus25d_stem_times`] prices. Communication volumes
/// are identical; only the exposure differs: per product, one panel
/// transfer and one GEMM round stay on the critical path while the interior
/// rounds cost `max(T_comm, T_comp)` each.
pub fn optimus_stem_times_overlapped(
    cm: &CostModel,
    b: usize,
    s: usize,
    h: usize,
    layers: usize,
    q: usize,
) -> (f64, f64) {
    let p = q * q;
    let row: Vec<usize> = (0..q).collect();
    let col: Vec<usize> = (0..q).map(|i| i * q).collect();
    let (bs, hf) = ((b * s) as f64, h as f64);

    // The four products of `layer_products`, paired with their MAC counts
    // (together exactly the 12·bsh² term of `layer_macs`).
    let prods = layer_products(b, s, h, q);
    let macs = [
        bs * hf * 3.0 * hf,
        bs * hf * hf,
        bs * hf * 4.0 * hf,
        4.0 * bs * hf * hf,
    ];
    // The attention-score/context matmuls (the 2·bs²h term) are not SUMMA
    // panel loops and stay serial.
    let comp_other = cm.compute_time((layer_macs(b, s, h) - macs.iter().sum::<f64>()) / p as f64);

    let mut fwd = 0.0;
    let mut bwd_grads = 0.0;
    for ((act, w), m) in prods.iter().zip(macs) {
        let t_comp = cm.compute_time(m / (p * q) as f64);
        let t_fwd = cm.broadcast_time(&row, *act) + cm.broadcast_time(&col, *w);
        fwd += pipelined_loop_time(q, t_fwd, t_comp);
        // dX: weight broadcasts down columns + partial-activation reduces
        // along rows; dW: activation broadcasts + partial-weight reduces.
        let t_dx = cm.broadcast_time(&col, *w) + cm.reduce_time(&row, *act);
        let t_dw = cm.broadcast_time(&row, *act) + cm.reduce_time(&col, *w);
        bwd_grads += pipelined_loop_time(q, t_dx, t_comp) + pipelined_loop_time(q, t_dw, t_comp);
    }
    let ln_rows = b * s / q;
    let ln = 2.0 * (2.0 * cm.all_reduce_time(&row, ln_rows) + 2.0 * cm.broadcast_time(&col, h / q));

    let fwd_layer = fwd + comp_other + ln;
    // Backward = dX + dW loops (compute included), the attention backward,
    // layer-norm traffic, and the checkpoint recompute of the forward.
    let bwd_layer = bwd_grads + 2.0 * comp_other + ln + fwd_layer;
    (layers as f64 * fwd_layer, layers as f64 * bwd_layer)
}

/// Theoretical serial time for the same stem (the paper's baseline for
/// efficiency: the 1-GPU-characterised compute cost, no recompute).
pub fn serial_stem_time(
    profile: &HardwareProfile,
    b: usize,
    s: usize,
    h: usize,
    layers: usize,
) -> f64 {
    3.0 * layers as f64 * layer_macs(b, s, h) / profile.mac_rate
}

#[allow(clippy::too_many_arguments)] // a plain record constructor
fn row(
    scheme: &'static str,
    profile: &HardwareProfile,
    nodes: usize,
    gpus: usize,
    b: usize,
    h: usize,
    n: usize,
    times: (f64, f64),
) -> ScalingRow {
    let (fwd, bwd) = times;
    let t_serial = serial_stem_time(profile, b, SEQ, h, LAYERS);
    ScalingRow {
        scheme,
        nodes,
        gpus,
        batch: b,
        hidden: h,
        heads: n,
        fwd_per_seq: fwd / b as f64,
        bwd_per_seq: bwd / b as f64,
        throughput: b as f64 / (fwd + bwd),
        inference: b as f64 / fwd,
        efficiency: t_serial / (gpus as f64 * (fwd + bwd)),
        speedup: t_serial / (fwd + bwd),
    }
}

/// Weak-scaling configurations (Table 2): `(nodes, gpus, q, h, n, b_megatron,
/// b_optimus)`. `h ∝ q`, `n ∝ p`, per-device parameters constant; Megatron's
/// batch must *shrink* to fit memory while Optimus's grows with `q`.
pub const WEAK_CONFIGS: [(usize, usize, usize, usize, usize, usize, usize); 4] = [
    (1, 4, 2, 2048, 32, 60, 96),
    (4, 16, 4, 4096, 64, 60, 192),
    (9, 36, 6, 6120, 72, 40, 288),
    (16, 64, 8, 8192, 128, 30, 384),
];

/// Generates Table 2 (and the data behind Fig. 7-left).
pub fn weak_scaling(profile: &HardwareProfile) -> (Vec<ScalingRow>, Vec<ScalingRow>) {
    let mut meg = Vec::new();
    let mut opt = Vec::new();
    for &(nodes, gpus, q, h, n, b_meg, b_opt) in &WEAK_CONFIGS {
        let cm_meg = CostModel::new(
            profile.clone(),
            Topology::flat(gpus, profile.gpus_per_node.min(gpus)),
        );
        let cm_opt = CostModel::new(
            profile.clone(),
            Topology::new(q, profile.gpus_per_node.min(gpus), Arrangement::Bunched),
        );
        let mt = megatron_stem_times(&cm_meg, b_meg, SEQ, h, LAYERS, gpus);
        let ot = optimus25d_stem_times(&cm_opt, b_opt, SEQ, h, LAYERS, q, 1);
        meg.push(row("megatron", profile, nodes, gpus, b_meg, h, n, mt));
        opt.push(row("optimus", profile, nodes, gpus, b_opt, h, n, ot));
    }
    (meg, opt)
}

/// Strong-scaling configurations (Table 3): fixed problem size, `h = 3072`
/// (3096 for Megatron on 36 GPUs so that `p | n`), `b = 12` for Megatron
/// (memory limit) vs `24` for Optimus.
pub const STRONG_CONFIGS: [(usize, usize, usize, usize, usize, usize, usize); 4] = [
    // (nodes, gpus, q, h_meg, n_meg, h_opt, n_opt)
    (1, 4, 2, 3072, 64, 3072, 24),
    (4, 16, 4, 3072, 64, 3072, 24),
    (9, 36, 6, 3096, 72, 3072, 24),
    (16, 64, 8, 3072, 64, 3072, 24),
];

/// Megatron's strong-scaling batch (halved to fit memory) and Optimus's.
pub const STRONG_BATCH_MEGATRON: usize = 12;
pub const STRONG_BATCH_OPTIMUS: usize = 24;

/// Generates Table 3 (and the data behind Fig. 7-right).
pub fn strong_scaling(profile: &HardwareProfile) -> (Vec<ScalingRow>, Vec<ScalingRow>) {
    let mut meg = Vec::new();
    let mut opt = Vec::new();
    for &(nodes, gpus, q, h_meg, n_meg, h_opt, n_opt) in &STRONG_CONFIGS {
        let cm_meg = CostModel::new(
            profile.clone(),
            Topology::flat(gpus, profile.gpus_per_node.min(gpus)),
        );
        let cm_opt = CostModel::new(
            profile.clone(),
            Topology::new(q, profile.gpus_per_node.min(gpus), Arrangement::Bunched),
        );
        let mt = megatron_stem_times(&cm_meg, STRONG_BATCH_MEGATRON, SEQ, h_meg, LAYERS, gpus);
        let ot = optimus25d_stem_times(&cm_opt, STRONG_BATCH_OPTIMUS, SEQ, h_opt, LAYERS, q, 1);
        meg.push(row(
            "megatron",
            profile,
            nodes,
            gpus,
            STRONG_BATCH_MEGATRON,
            h_meg,
            n_meg,
            mt,
        ));
        opt.push(row(
            "optimus",
            profile,
            nodes,
            gpus,
            STRONG_BATCH_OPTIMUS,
            h_opt,
            n_opt,
            ot,
        ));
    }
    (meg, opt)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> HardwareProfile {
        HardwareProfile::frontera_rtx5000()
    }

    #[test]
    fn weak_scaling_optimus_overtakes_from_16_gpus() {
        // The paper's headline shape: Megatron wins on one node, Optimus
        // wins from 16 GPUs on, by ~1.5x at 64.
        let (meg, opt) = weak_scaling(&profile());
        assert!(
            opt[0].throughput < meg[0].throughput,
            "on one node Megatron should win: {} vs {}",
            opt[0].throughput,
            meg[0].throughput
        );
        for i in 1..4 {
            assert!(
                opt[i].throughput > meg[i].throughput,
                "at {} GPUs Optimus should win: {} vs {}",
                opt[i].gpus,
                opt[i].throughput,
                meg[i].throughput
            );
        }
        let ratio = opt[3].throughput / meg[3].throughput;
        assert!(
            (1.2..2.2).contains(&ratio),
            "64-GPU training speedup should be ~1.5x, got {ratio}"
        );
    }

    #[test]
    fn weak_scaling_inference_advantage_is_larger() {
        let (meg, opt) = weak_scaling(&profile());
        let train = opt[3].throughput / meg[3].throughput;
        let infer = opt[3].inference / meg[3].inference;
        assert!(
            infer > train,
            "inference speedup ({infer}) should exceed training ({train})"
        );
        assert!((1.3..2.6).contains(&infer), "inference ratio {infer}");
    }

    #[test]
    fn weak_efficiency_decreases_for_both() {
        let (meg, opt) = weak_scaling(&profile());
        for w in [&meg, &opt] {
            for i in 1..4 {
                assert!(
                    w[i].efficiency < w[i - 1].efficiency + 1e-9,
                    "{}: efficiency should not increase under weak scaling",
                    w[i].scheme
                );
            }
        }
        // Optimus's efficiency overtakes Megatron's from 16 GPUs.
        for i in 1..4 {
            assert!(opt[i].efficiency > meg[i].efficiency);
        }
    }

    #[test]
    fn strong_scaling_trends_match_fig7_right() {
        let (meg, opt) = strong_scaling(&profile());
        // Megatron's speedup stalls/decreases as latency and the (p−1)/p
        // factor bite; Optimus's keeps increasing.
        assert!(
            opt[3].speedup > opt[0].speedup,
            "Optimus strong-scaling speedup must increase: {} -> {}",
            opt[0].speedup,
            opt[3].speedup
        );
        // Optimus overtakes Megatron by 64 GPUs.
        assert!(
            opt[3].throughput > meg[3].throughput,
            "crossover by 64 GPUs: {} vs {}",
            opt[3].throughput,
            meg[3].throughput
        );
        // ...but not on a single node.
        assert!(opt[0].throughput < meg[0].throughput);
    }

    #[test]
    fn per_seq_times_are_batch_normalised() {
        let (meg, _) = weak_scaling(&profile());
        for r in &meg {
            let iter_time = r.fwd_per_seq * r.batch as f64;
            assert!((r.inference - r.batch as f64 / iter_time).abs() < 1e-9);
        }
    }

    #[test]
    fn overlap_never_slows_a_stem_and_hides_at_most_half() {
        let prof = profile();
        for &(_, gpus, q, h, _, _, b_opt) in &WEAK_CONFIGS {
            let cm = CostModel::new(
                prof.clone(),
                Topology::new(q, prof.gpus_per_node.min(gpus), Arrangement::Bunched),
            );
            let (sf, sb) = optimus25d_stem_times(&cm, b_opt, SEQ, h, LAYERS, q, 1);
            let (of, ob) = optimus_stem_times_overlapped(&cm, b_opt, SEQ, h, LAYERS, q);
            assert!(of <= sf * (1.0 + 1e-12), "fwd {of} > serial {sf} at q={q}");
            assert!(ob <= sb * (1.0 + 1e-12), "bwd {ob} > serial {sb} at q={q}");
            // Prefetch hides the smaller of the two streams, never more.
            assert!(of >= sf / 2.0, "fwd {of} < half of serial {sf}");
            assert!(ob >= sb / 2.0, "bwd {ob} < half of serial {sb}");
        }
    }

    #[test]
    fn overlap_helps_where_comm_and_comp_are_comparable() {
        // At the paper's 64-GPU point communication is a substantial share,
        // so a GPU prefetch schedule must buy a visible improvement.
        let prof = profile();
        let cm = CostModel::new(prof.clone(), Topology::new(8, 4, Arrangement::Bunched));
        let (sf, sb) = optimus25d_stem_times(&cm, 384, SEQ, 8192, LAYERS, 8, 1);
        let (of, ob) = optimus_stem_times_overlapped(&cm, 384, SEQ, 8192, LAYERS, 8);
        let gain = (sf + sb) / (of + ob);
        assert!(
            gain > 1.05,
            "overlap gain at 64 GPUs should exceed 5%: {gain}"
        );
    }

    #[test]
    fn deeper_meshes_shorten_the_stem_at_fixed_q() {
        // Growing d at fixed q adds devices and splits the panel loop: the
        // epilogue cost must never eat the round savings.
        let prof = profile();
        let (q, h, b) = (16usize, 8192usize, 384usize);
        let time_at = |d: usize| {
            let cm = CostModel::new(prof.clone(), Topology::flat(q * q * d, prof.gpus_per_node));
            let (f, bw) = optimus25d_stem_times(&cm, b, SEQ, h, LAYERS, q, d);
            f + bw
        };
        let (t1, t2, t4) = (time_at(1), time_at(2), time_at(4));
        assert!(t2 < t1, "d=2 must beat d=1: {t2} vs {t1}");
        assert!(t4 < t2, "d=4 must beat d=2: {t4} vs {t2}");
    }

    #[test]
    #[should_panic(expected = "needs d | q")]
    fn depth_must_divide_the_side_in_the_model_too() {
        let prof = profile();
        let cm = CostModel::new(prof.clone(), Topology::flat(6 * 6 * 4, 4));
        optimus25d_stem_times(&cm, 8, SEQ, 1024, LAYERS, 6, 4);
    }

    #[test]
    fn backward_is_about_three_times_forward_for_optimus() {
        let (_, opt) = weak_scaling(&profile());
        for r in &opt {
            let ratio = r.bwd_per_seq / r.fwd_per_seq;
            assert!((2.5..3.5).contains(&ratio), "bwd/fwd = {ratio}");
        }
    }
}
