//! Per-device 2D parameter blocks, sliced from the canonical full matrices.

use mesh::{Communicator, Grid2d};
use serial::{LayerParams, LayerTensors};
use tensor::Tensor;

/// Slices device `(i, j)`'s block of the fused QKV weight, preserving head
/// alignment: the local `[h/q, 3h/q]` block is
/// `[Wq(i, j-cols) | Wk(i, j-cols) | Wv(i, j-cols)]`, so that after the
/// SUMMA product the local output columns split cleanly into this device's
/// `n/q` heads of Q, K and V.
fn slice_qkv_block(w_qkv: &Tensor, h: usize, q: usize, i: usize, j: usize) -> Tensor {
    let (rb, cb) = (h / q, h / q);
    let mut out = Tensor::zeros(&[rb, 3 * cb]);
    for part in 0..3 {
        let block = w_qkv.block(i * rb, part * h + j * cb, rb, cb);
        out.set_block(0, part * cb, &block);
    }
    out
}

fn slice_qkv_bias(b_qkv: &[f32], h: usize, q: usize, j: usize) -> Vec<f32> {
    let cb = h / q;
    let mut out = Vec::with_capacity(3 * cb);
    for part in 0..3 {
        out.extend_from_slice(&b_qkv[part * h + j * cb..part * h + (j + 1) * cb]);
    }
    out
}

/// One layer's parameters (or their gradients) as held by a single device
/// of the mesh: `[·/q, ·/q]` weight blocks — `w_qkv` in the permuted layout
/// of `slice_qkv_block` above — and, on mesh row 0 only, this column's
/// slice of every bias and layer-norm vector.
pub type Layer2dParams = LayerTensors<Option<Vec<f32>>>;

/// This device's share of a full bias or layer-norm vector: the slice for
/// mesh column `j`, hosted by mesh row 0 only (Fig. 5).
pub(crate) fn hosted_slice<C: Communicator>(grid: &Grid2d<C>, full: &[f32]) -> Option<Vec<f32>> {
    let w = full.len() / grid.q();
    (grid.row() == 0).then(|| full[grid.col() * w..(grid.col() + 1) * w].to_vec())
}

/// Slices the canonical full layer parameters for this device.
pub fn slice_layer2d<C: Communicator>(grid: &Grid2d<C>, full: &LayerParams) -> Layer2dParams {
    let h = full.w_out.rows();
    let (q, i, j) = (grid.q(), grid.row(), grid.col());
    Layer2dParams {
        ln1_g: hosted_slice(grid, &full.ln1_g),
        ln1_b: hosted_slice(grid, &full.ln1_b),
        w_qkv: slice_qkv_block(&full.w_qkv, h, q, i, j),
        b_qkv: (i == 0).then(|| slice_qkv_bias(&full.b_qkv, h, q, j)),
        w_out: full.w_out.summa_block(i, j, q),
        b_out: hosted_slice(grid, &full.b_out),
        ln2_g: hosted_slice(grid, &full.ln2_g),
        ln2_b: hosted_slice(grid, &full.ln2_b),
        w_fc1: full.w_fc1.summa_block(i, j, q),
        b_fc1: hosted_slice(grid, &full.b_fc1),
        w_fc2: full.w_fc2.summa_block(i, j, q),
        b_fc2: hosted_slice(grid, &full.b_fc2),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mesh::Mesh2d;
    use serial::LayerParams;

    #[test]
    fn qkv_block_head_alignment() {
        let h = 8;
        let q = 2;
        let full = LayerParams::init(0, 0, h);
        // Device (0,1)'s local Q columns are full Wq columns 4..8.
        let b01 = slice_qkv_block(&full.w_qkv, h, q, 0, 1);
        for r in 0..h / q {
            for c in 0..h / q {
                assert_eq!(b01.at(r, c), full.w_qkv.at(r, 4 + c)); // Q
                assert_eq!(b01.at(r, h / q + c), full.w_qkv.at(r, h + 4 + c)); // K
                assert_eq!(b01.at(r, 2 * (h / q) + c), full.w_qkv.at(r, 2 * h + 4 + c));
                // V
            }
        }
    }

    #[test]
    fn weight_blocks_partition_params_exactly() {
        // Summing local_params over the mesh = total layer params.
        let h = 8;
        let q = 2;
        let full = LayerParams::init(1, 0, h);
        let f = full.clone();
        let locals = Mesh2d::run(q, move |g| slice_layer2d(g, &f).num_params());
        let total: usize = locals.iter().sum();
        assert_eq!(total, full.num_params());
    }

    #[test]
    fn bias_hosted_only_on_row0() {
        let h = 8;
        let q = 2;
        let full = LayerParams::init(2, 0, h);
        let f = full.clone();
        let has_bias = Mesh2d::run(q, move |g| {
            let p = slice_layer2d(g, &f);
            p.b_qkv.is_some() && p.b_fc1.is_some() && p.ln1_g.is_some()
        });
        assert_eq!(has_bias, vec![true, true, false, false]);
    }
}
