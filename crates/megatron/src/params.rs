//! Local parameter slices for the 1D scheme, cut from the canonical full
//! matrices so that Megatron and the serial reference start bit-identical.

use serial::{LayerParams, ModelConfig};
use tensor::Tensor;

/// Megatron run configuration: the model plus the partition width.
#[derive(Clone, Copy, Debug)]
pub struct MegatronConfig {
    pub model: ModelConfig,
    /// Number of devices (1D partition width).
    pub p: usize,
    /// Distributed activation checkpointing: keep only each layer's
    /// (replicated) input and recompute the layer inside backward — the
    /// configuration the paper's Megatron baseline runs with.
    pub checkpoint: bool,
}

impl MegatronConfig {
    pub fn new(model: ModelConfig, p: usize) -> Self {
        model.validate_1d(p);
        MegatronConfig {
            model,
            p,
            checkpoint: false,
        }
    }

    /// Enables activation checkpointing.
    pub fn with_checkpoint(mut self) -> Self {
        self.checkpoint = true;
        self
    }

    /// Local hidden width `h/p` (heads × head-dim owned by one device).
    pub fn local_hidden(&self) -> usize {
        self.model.hidden / self.p
    }

    /// The per-device view of the model used inside local attention:
    /// `n/p` heads of unchanged head dimension.
    pub fn local_view(&self) -> ModelConfig {
        ModelConfig {
            hidden: self.local_hidden(),
            heads: self.model.heads / self.p,
            ..self.model
        }
    }
}

/// Extracts device `j`'s columns of one `[h, h]` third of the fused QKV
/// matrix and stacks q/k/v slices side by side: `[h, 3h/p]`.
fn slice_qkv_cols(w_qkv: &Tensor, h: usize, p: usize, j: usize) -> Tensor {
    let w = h / p;
    let mut out = Tensor::zeros(&[h, 3 * w]);
    for part in 0..3 {
        let block = w_qkv.block(0, part * h + j * w, h, w);
        out.set_block(0, part * w, &block);
    }
    out
}

fn slice_qkv_bias(b_qkv: &[f32], h: usize, p: usize, j: usize) -> Vec<f32> {
    let w = h / p;
    let mut out = Vec::with_capacity(3 * w);
    for part in 0..3 {
        out.extend_from_slice(&b_qkv[part * h + j * w..part * h + (j + 1) * w]);
    }
    out
}

/// Device-local slice of one layer's parameters (or their gradients):
/// `w_qkv` is this device's heads `[h, 3h/p]`, `w_out` a `[h/p, h]` row
/// slice, `w_fc1` a `[h, 4h/p]` column slice with its bias slice, `w_fc2` a
/// `[4h/p, h]` row slice; layer norms and the `b_out` / second-matrix
/// biases (added after the all-reduce) are replicated.
pub type Layer1dParams = LayerParams;

/// Slices the canonical full layer parameters for device `j` of `p`.
pub fn slice_layer1d(full: &LayerParams, h: usize, p: usize, j: usize) -> Layer1dParams {
    let w = h / p;
    Layer1dParams {
        ln1_g: full.ln1_g.clone(),
        ln1_b: full.ln1_b.clone(),
        w_qkv: slice_qkv_cols(&full.w_qkv, h, p, j),
        b_qkv: slice_qkv_bias(&full.b_qkv, h, p, j),
        w_out: full.w_out.block(j * w, 0, w, h),
        b_out: full.b_out.clone(),
        ln2_g: full.ln2_g.clone(),
        ln2_b: full.ln2_b.clone(),
        w_fc1: full.w_fc1.block(0, j * 4 * w, h, 4 * w),
        b_fc1: full.b_fc1[j * 4 * w..(j + 1) * 4 * w].to_vec(),
        w_fc2: full.w_fc2.block(j * 4 * w, 0, 4 * w, h),
        b_fc2: full.b_fc2.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MegatronConfig {
        MegatronConfig::new(ModelConfig::tiny(), 2)
    }

    #[test]
    fn qkv_slice_keeps_head_alignment() {
        let c = cfg();
        let h = c.model.hidden;
        let full = LayerParams::init(0, 0, h);
        let p0 = slice_layer1d(&full, h, 2, 0);
        let p1 = slice_layer1d(&full, h, 2, 1);
        // Device 0's first column equals the full Wq's first column; device
        // 1's first column equals Wq's column h/2.
        for r in 0..h {
            assert_eq!(p0.w_qkv.at(r, 0), full.w_qkv.at(r, 0));
            assert_eq!(p1.w_qkv.at(r, 0), full.w_qkv.at(r, h / 2));
            // K slices start at offset h in the full layout.
            assert_eq!(p0.w_qkv.at(r, h / 2), full.w_qkv.at(r, h));
        }
    }

    #[test]
    fn column_slices_tile_the_full_matrix() {
        let c = cfg();
        let h = c.model.hidden;
        let full = LayerParams::init(1, 0, h);
        let parts: Vec<Layer1dParams> = (0..2).map(|j| slice_layer1d(&full, h, 2, j)).collect();
        // fc1 column slices reassemble to the full fc1.
        let mut re = Tensor::zeros(&[h, 4 * h]);
        for (j, p) in parts.iter().enumerate() {
            re.set_block(0, j * 2 * h, &p.w_fc1);
        }
        assert_eq!(re, full.w_fc1);
        // fc2 row slices reassemble too.
        let mut re2 = Tensor::zeros(&[4 * h, h]);
        for (j, p) in parts.iter().enumerate() {
            re2.set_block(j * 2 * h, 0, &p.w_fc2);
        }
        assert_eq!(re2, full.w_fc2);
    }

    #[test]
    fn local_view_shrinks_heads_and_hidden() {
        let c = cfg();
        let v = c.local_view();
        assert_eq!(v.hidden, 4);
        assert_eq!(v.heads, 1);
        assert_eq!(v.head_dim(), c.model.head_dim());
    }
}
