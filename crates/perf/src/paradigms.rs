//! Cross-paradigm analysis: pipeline parallelism vs the two tensor-parallel
//! schemes, and the paper's rejected attention partition.
//!
//! * [`pipeline_stem_times`] — GPipe-style cost model: per-stage compute is
//!   `1/S` of the stem, boundary traffic is `2(S−1)·bsh` per step, and the
//!   flush schedule idles the pipeline for the classic bubble fraction
//!   `(S−1)/(m+S−1)`.
//! * [`attention_partition_volumes`] — Section 3.2.1's design choice made
//!   quantitative: partitioning attention along `(s, h)` forces the
//!   `b·n·s²` score tensor through SUMMA, while the adopted `(b, h)`
//!   partition keeps `softmax(QKᵀ)V` local and moves only `bsh`-sized
//!   activations.

use crate::cost::CostModel;
use crate::table1::layer_macs;

/// GPipe stem times `(fwd, bwd)` in seconds for one training step over the
/// whole batch, on `stages` devices with `micro` microbatches.
///
/// Compute: each microbatch's stage work is `layers/S` layer-forwards (and
/// 3× that backward, with recompute); the flush schedule stretches the
/// critical path by `(m + S − 1)/m`. Communication: one boundary activation
/// per microbatch per boundary, each `(b/m)·s·h` elements, modelled as
/// point-to-point at the topology's link bandwidth.
pub fn pipeline_stem_times(
    cm: &CostModel,
    b: usize,
    s: usize,
    h: usize,
    layers: usize,
    stages: usize,
    micro: usize,
) -> (f64, f64) {
    assert!(stages >= 1 && micro >= 1);
    let stage_macs_per_micro = layer_macs(b / micro, s, h) * (layers as f64 / stages as f64);
    let stage_fwd = cm.compute_time(stage_macs_per_micro);
    // Boundary hop for one microbatch activation (worst link: inter-node).
    let hop = if stages > 1 {
        let pair = [0usize, 1];
        cm.profile().alpha + cm.group_beta(&pair) * (b / micro * s * h) as f64
    } else {
        0.0
    };
    // Flush schedule: m + S - 1 "ticks" of (stage compute + hop).
    let ticks = (micro + stages - 1) as f64;
    let fwd = ticks * (stage_fwd + hop);
    // Backward per tick: 3x compute (2x grads + recompute) + gradient hop.
    let bwd = ticks * (3.0 * stage_fwd + hop);
    (fwd, bwd)
}

/// Communication volume (f32 elements per device per layer, forward) of the
/// two candidate attention partitions from Section 3.2.1:
///
/// * `(b, h)` — the adopted scheme: only the Table-1 activation/weight
///   panels move; `(QKᵀ)V` is local.
/// * `(s, h)` — the rejected scheme: the `[b, n, s, s]` attention scores are
///   themselves SUMMA outputs/inputs, adding `O(b·n·s²/√p)` traffic for the
///   two score-products (`QKᵀ` reduce + `A·V` broadcast panels).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AttentionPartitionVolumes {
    pub batch_hidden: f64,
    pub seq_hidden: f64,
}

/// Forward comm volumes per device per layer for both partitions.
pub fn attention_partition_volumes(
    b: usize,
    s: usize,
    h: usize,
    n: usize,
    p: usize,
) -> AttentionPartitionVolumes {
    let q = (p as f64).sqrt();
    let bsh = (b * s * h) as f64;
    let h2 = (h * h) as f64;
    // Adopted: Table 1's panels.
    let batch_hidden = (7.0 * bsh + 12.0 * h2) / q;
    // Rejected: the same projection/MLP panels, plus the score tensor
    // moving through SUMMA twice (QK^T reduction and A·V panels): the
    // paper's point is that |A| = b·n·s² dwarfs the activations.
    let scores = (b * n * s * s) as f64;
    let seq_hidden = batch_hidden + 2.0 * scores / q;
    AttentionPartitionVolumes {
        batch_hidden,
        seq_hidden,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::HardwareProfile;
    use mesh::Topology;

    fn cm() -> CostModel {
        CostModel::new(HardwareProfile::frontera_rtx5000(), Topology::flat(4, 4))
    }

    #[test]
    fn more_microbatches_shrink_the_step_time() {
        let cm = cm();
        let t = |micro| {
            let (f, b) = pipeline_stem_times(&cm, 32, 512, 1024, 24, 4, micro);
            f + b
        };
        assert!(t(8) < t(2));
        assert!(t(2) < t(1));
    }

    #[test]
    fn bubble_limit_matches_formula() {
        // As micro -> infinity the step time approaches the no-bubble ideal
        // (S stages perfectly overlapped): t(m)/t_ideal -> 1.
        let cm = cm();
        let layers = 24;
        let (f1, b1) = pipeline_stem_times(&cm, 64, 512, 1024, layers, 4, 64);
        // Ideal: total compute / S plus negligible hops.
        let total = 4.0 * cm.compute_time(layer_macs(64, 512, 1024) * layers as f64) / 4.0;
        let ratio = (f1 + b1) / total;
        assert!(
            (0.9..1.2).contains(&ratio),
            "near-ideal at many microbatches: ratio={ratio}"
        );
    }

    #[test]
    fn single_stage_is_serial_compute() {
        let cm = cm();
        let (f, b) = pipeline_stem_times(&cm, 8, 64, 128, 4, 1, 1);
        let serial_fwd = cm.compute_time(layer_macs(8, 64, 128) * 4.0);
        assert!((f - serial_fwd).abs() < 1e-12);
        assert!((b - 3.0 * serial_fwd).abs() < 1e-12);
    }

    #[test]
    fn rejected_partition_moves_far_more_data() {
        // The paper's configs: s = 512, n scales with p. At every weak-
        // scaling point the (s,h) partition's volume is dominated by the
        // b·n·s² scores.
        for &(_, gpus, _, h, n, _, b_opt) in &crate::scaling::WEAK_CONFIGS {
            let v = attention_partition_volumes(b_opt, 512, h, n, gpus);
            assert!(
                v.seq_hidden > 1.5 * v.batch_hidden,
                "at p={gpus}: rejected {} vs adopted {}",
                v.seq_hidden,
                v.batch_hidden
            );
        }
    }

    #[test]
    fn short_sequences_narrow_the_gap() {
        // The score tensor scales with s²: at tiny s the two partitions
        // converge, which is exactly why the paper's argument is about
        // long-sequence models.
        let long = attention_partition_volumes(32, 2048, 4096, 64, 16);
        let short = attention_partition_volumes(32, 32, 4096, 64, 16);
        let gap_long = long.seq_hidden / long.batch_hidden;
        let gap_short = short.seq_hidden / short.batch_hidden;
        assert!(gap_long > 10.0 * gap_short || gap_short < 1.2);
    }
}
