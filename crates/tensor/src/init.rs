//! Deterministic parameter initialisation.
//!
//! The serial reference, the Megatron 1D model and the Optimus 2D model must
//! start from *identical* weights for the element-wise equivalence tests to
//! mean anything. Every parameter matrix is therefore defined as the
//! row-major draw of a PRNG stream keyed only by `(experiment seed,
//! parameter id)` ([`init_matrix`]). A distributed device never generates
//! the full matrix: it draws the runs of positions its block covers from
//! that stream and skips the rest ([`init_runs`]), so each of its values is
//! bitwise the one the full matrix holds there and partitioning cannot
//! perturb initialisation.

use crate::rng::Rng;
use crate::tensor::Tensor;
use std::iter::once;
use std::ops::Range;

/// Stable parameter ids for a transformer stem. Layer `l`'s parameter `p`
/// gets id `BASE + l * STRIDE + p`; ids below `STRIDE` are globals.
pub mod param_ids {
    /// Embedding table `[v, h]`.
    pub const EMBEDDING: u64 = 1;
    /// Final layer norm gamma/beta.
    pub const FINAL_LN: u64 = 2;
    /// Classifier head (sentence-level branch).
    pub const CLS_HEAD: u64 = 3;
    /// Per-layer id stride.
    pub const STRIDE: u64 = 100;
    /// First per-layer id.
    pub const LAYER_BASE: u64 = 1000;

    // Offsets within a layer.
    pub const LN1: u64 = 0;
    pub const W_QKV: u64 = 1;
    pub const B_QKV: u64 = 2;
    pub const W_OUT: u64 = 3;
    pub const B_OUT: u64 = 4;
    pub const LN2: u64 = 5;
    pub const W_FC1: u64 = 6;
    pub const B_FC1: u64 = 7;
    pub const W_FC2: u64 = 8;
    pub const B_FC2: u64 = 9;

    /// Id of parameter `offset` in layer `layer`.
    pub fn layer(layer: usize, offset: u64) -> u64 {
        LAYER_BASE + layer as u64 * STRIDE + offset
    }
}

/// Generates the full parameter matrix `dims` with i.i.d. normal entries of
/// standard deviation `std`, deterministically from `(seed, param_id)`: the
/// stream's draws in row-major order.
pub fn init_matrix(seed: u64, param_id: u64, dims: &[usize], std: f32) -> Tensor {
    let n = dims.iter().product();
    Tensor::from_vec(dims, init_runs(seed, param_id, std, once(0..n), n))
}

/// The `len` entries at `runs` — ascending, disjoint ranges of row-major
/// positions — of the matrix [`init_matrix`] generates for `(seed,
/// param_id)`, drawn without generating any other entry.
///
/// # Panics
/// If the runs are not ascending and disjoint.
pub fn init_runs(
    seed: u64,
    param_id: u64,
    std: f32,
    runs: impl IntoIterator<Item = Range<usize>>,
    len: usize,
) -> Vec<f32> {
    let mut rng = Rng::new(seed).stream(param_id);
    let (mut values, mut at) = (Vec::with_capacity(len), 0);
    for run in runs {
        let gap = run.start.checked_sub(at).expect("runs ascend");
        rng.skip_normals(gap);
        at = run.end;
        values.extend(run.map(|_| rng.normal() * std));
    }
    values
}

/// The standard deviation used for weight matrices: `0.02` scaled down by
/// `1/√(2N)` for output projections is what Megatron uses; for the numeric
/// comparisons here a single global value suffices.
pub const WEIGHT_STD: f32 = 0.02;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_key_same_matrix() {
        let a = init_matrix(1, param_ids::EMBEDDING, &[8, 4], 0.02);
        let b = init_matrix(1, param_ids::EMBEDDING, &[8, 4], 0.02);
        assert_eq!(a, b);
    }

    #[test]
    fn different_param_ids_differ() {
        let a = init_matrix(1, 10, &[8, 4], 0.02);
        let b = init_matrix(1, 11, &[8, 4], 0.02);
        assert_ne!(a, b);
    }

    #[test]
    fn block_of_full_matrix_is_deterministic() {
        // The property the distributed models rely on: drawing only a
        // block's runs from the stream gives, bit for bit, the block of the
        // full matrix — here block (1, 0) of a 2×2 cut of `[6, 6]`.
        let full = init_matrix(7, 42, &[6, 6], 1.0);
        let runs = (3..6).map(|r| r * 6..r * 6 + 3);
        let block = Tensor::from_vec(&[3, 3], init_runs(7, 42, 1.0, runs, 9));
        assert_eq!(block, full.summa_block(1, 0, 2));
    }

    #[test]
    fn layer_param_ids_do_not_collide() {
        let mut ids = vec![
            param_ids::EMBEDDING,
            param_ids::FINAL_LN,
            param_ids::CLS_HEAD,
        ];
        for l in 0..48 {
            for off in 0..param_ids::STRIDE.min(10) {
                ids.push(param_ids::layer(l, off));
            }
        }
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n);
    }
}
