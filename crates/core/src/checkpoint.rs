//! Distributed checkpointing: gathering a 2D-sharded model back into the
//! canonical (serial) parameter form on one device, and rebuilding a
//! sharded model from canonical parameters.
//!
//! The canonical form is `serial::ModelParams` — the same structure the
//! deterministic initialiser produces — so a gathered checkpoint can be
//! saved as JSON, loaded into the serial reference, resharded onto a
//! *different* mesh size, or handed to the Megatron implementation.

use crate::model::OptimusModel;
use crate::params2d::{hosted_slice, slice_layer2d};
use mesh::{Communicator, Grid2d};
use serial::{LayerParams, ModelParams};
use tensor::Tensor;

/// Gathers the `q × q` blocks of one matrix to mesh position (0,0).
/// Returns `Some(full)` there, `None` elsewhere.
fn gather_matrix<C: Communicator>(
    grid: &Grid2d<C>,
    local: &Tensor,
    full_rows: usize,
    full_cols: usize,
) -> Option<Tensor> {
    // Gather within this device's 2D slice: on a [q, q, d] mesh every depth
    // slice holds a full parameter replica, so slice 0's (0,0) device is the
    // canonical root and deeper slices gather redundant (identical) copies.
    let mesh = grid.slice_group();
    let root_rank = mesh.rank_of(0);
    let flat = grid.ctx().gather(&mesh, 0, local.as_slice());
    if grid.ctx().rank() != root_rank {
        return None;
    }
    let q = grid.q();
    let (br, bc) = (full_rows / q, full_cols / q);
    assert_eq!(flat.len(), full_rows * full_cols, "gathered size mismatch");
    let blocks: Vec<Tensor> = flat
        .chunks(br * bc)
        .map(|c| Tensor::from_vec(&[br, bc], c.to_vec()))
        .collect();
    Some(Tensor::from_summa_blocks(&blocks, q))
}

/// Gathers a row-0-hosted vector (bias / LN affine) to mesh position (0,0).
/// Only mesh-row-0 devices participate; everyone else returns `None`.
fn gather_row0_vector<C: Communicator>(
    grid: &Grid2d<C>,
    local: Option<&Vec<f32>>,
) -> Option<Vec<f32>> {
    if grid.row() != 0 {
        assert!(local.is_none(), "non-row-0 device holds a hosted vector");
        return None;
    }
    let slice = local.expect("row-0 device missing its hosted vector");
    let gathered = grid.ctx().gather(grid.row_group(), 0, slice);
    if grid.col() == 0 {
        Some(gathered)
    } else {
        None
    }
}

/// Un-permutes a gathered fused-QKV matrix: block `(i, j)` of the gathered
/// matrix holds `[Wq_ij | Wk_ij | Wv_ij]`; the canonical layout is
/// `[Wq | Wk | Wv]` with contiguous thirds.
fn unpermute_qkv(fused: &Tensor, h: usize, q: usize) -> Tensor {
    let cb = h / q;
    let mut out = Tensor::zeros(&[h, 3 * h]);
    for part in 0..3 {
        for j in 0..q {
            let block = fused.block(0, j * 3 * cb + part * cb, h, cb);
            out.set_block(0, part * h + j * cb, &block);
        }
    }
    out
}

/// Un-permutes a gathered fused-QKV bias: per-column triples
/// `[bq_j | bk_j | bv_j]` → contiguous thirds.
fn unpermute_qkv_bias(fused: &[f32], h: usize, q: usize) -> Vec<f32> {
    let cb = h / q;
    let mut out = vec![0.0f32; 3 * h];
    for part in 0..3 {
        for j in 0..q {
            let src = &fused[j * 3 * cb + part * cb..j * 3 * cb + (part + 1) * cb];
            out[part * h + j * cb..part * h + (j + 1) * cb].copy_from_slice(src);
        }
    }
    out
}

impl OptimusModel {
    /// Builds a device's shard from explicit canonical parameters (the
    /// inverse of [`OptimusModel::gather_params`]). The parameters must
    /// match `cfg.model()`'s dimensions.
    pub fn from_params<C: Communicator>(
        cfg: &crate::OptimusConfig,
        params: &ModelParams,
        grid: &Grid2d<C>,
    ) -> Self {
        cfg.validate();
        assert_eq!(grid.q(), cfg.q, "grid side must equal cfg.q");
        assert_eq!(
            params.embedding.rows(),
            cfg.vocab,
            "parameter dimensions must match the config"
        );
        assert_eq!(params.layers.len(), cfg.layers);
        OptimusModel {
            cfg: *cfg,
            table: params.embedding.summa_block(grid.row(), grid.col(), cfg.q),
            layers: params
                .layers
                .iter()
                .map(|lp| slice_layer2d(grid, lp))
                .collect(),
            final_ln_g: hosted_slice(grid, &params.final_ln_g),
            final_ln_b: hosted_slice(grid, &params.final_ln_b),
            cls: None,
            meter: crate::MemMeter::new(),
        }
    }

    /// Gathers every parameter block to mesh position (0,0) and reassembles
    /// the canonical [`ModelParams`]. Returns `Some` only there. All mesh
    /// devices must call this together (it is a collective).
    pub fn gather_params<C: Communicator>(&self, grid: &Grid2d<C>) -> Option<ModelParams> {
        let (h, v) = (self.cfg.hidden, self.cfg.vocab);
        let q = self.cfg.q;
        let embedding = gather_matrix(grid, &self.table, v, h);

        // Struct fields evaluate in source order, so every device issues
        // the gathers in the canonical order; off the root they yield empty
        // placeholders, discarded with the `None` embedding below.
        let mat = |w: &Tensor, rows: usize, cols: usize| {
            gather_matrix(grid, w, rows, cols).unwrap_or_else(|| Tensor::zeros(&[0, 0]))
        };
        let vec = |v: &Option<Vec<f32>>| gather_row0_vector(grid, v.as_ref()).unwrap_or_default();
        let mut layers = Vec::with_capacity(self.layers.len());
        for lp in &self.layers {
            layers.push(LayerParams {
                ln1_g: vec(&lp.ln1_g),
                ln1_b: vec(&lp.ln1_b),
                w_qkv: mat(&lp.w_qkv, h, 3 * h),
                b_qkv: vec(&lp.b_qkv),
                w_out: mat(&lp.w_out, h, h),
                b_out: vec(&lp.b_out),
                ln2_g: vec(&lp.ln2_g),
                ln2_b: vec(&lp.ln2_b),
                w_fc1: mat(&lp.w_fc1, h, 4 * h),
                b_fc1: vec(&lp.b_fc1),
                w_fc2: mat(&lp.w_fc2, 4 * h, h),
                b_fc2: vec(&lp.b_fc2),
            });
        }
        let final_g = gather_row0_vector(grid, self.final_ln_g.as_ref());
        let final_b = gather_row0_vector(grid, self.final_ln_b.as_ref());

        embedding.map(|embedding| ModelParams {
            embedding,
            layers: layers
                .into_iter()
                .map(|l| LayerParams {
                    w_qkv: unpermute_qkv(&l.w_qkv, h, q),
                    b_qkv: unpermute_qkv_bias(&l.b_qkv, h, q),
                    ..l
                })
                .collect(),
            final_ln_g: final_g.unwrap(),
            final_ln_b: final_b.unwrap(),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{OptimusConfig, OptimusModel};
    use mesh::Mesh2d;
    use serial::{ModelParams, SerialModel};
    use tensor::Rng;

    fn data(cfg: &OptimusConfig, seed: u64) -> (Vec<usize>, Vec<usize>) {
        let mut rng = Rng::new(seed);
        let n = cfg.batch * cfg.seq;
        (
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
            (0..n).map(|_| rng.below(cfg.vocab)).collect(),
        )
    }

    #[test]
    fn gather_recovers_the_initial_parameters() {
        for q in [1usize, 2, 3] {
            let cfg = OptimusConfig::tiny(q);
            let gathered = Mesh2d::run(q, |g| {
                let m = OptimusModel::new(&cfg, 17, g);
                m.gather_params(g)
            });
            let full = ModelParams::init(17, &cfg.model());
            let got = gathered[0].as_ref().expect("root has the params");
            assert_eq!(got.embedding, full.embedding);
            assert_eq!(got.layers[0].w_qkv, full.layers[0].w_qkv);
            assert_eq!(got.layers[1].w_fc2, full.layers[1].w_fc2);
            assert_eq!(got.layers[0].b_qkv, full.layers[0].b_qkv);
            assert_eq!(got.final_ln_g, full.final_ln_g);
            for (i, slot) in gathered.iter().enumerate().skip(1) {
                assert!(slot.is_none(), "device {i} must not hold the params");
            }
        }
    }

    #[test]
    fn trained_gathered_params_match_serial_training() {
        let cfg = OptimusConfig::tiny(2);
        let (tokens, labels) = data(&cfg, 1);
        let gathered = Mesh2d::run(cfg.q, |g| {
            let mut m = OptimusModel::new(&cfg, 8, g);
            for _ in 0..3 {
                m.train_step(g, &tokens, &labels, 0.2);
            }
            m.gather_params(g)
        });
        let mut reference = SerialModel::new(cfg.model(), 8);
        for _ in 0..3 {
            reference.train_step(&tokens, &labels, 0.2);
        }
        let got = gathered[0].as_ref().unwrap();
        tensor::assert_close(
            got.embedding.as_slice(),
            reference.params.embedding.as_slice(),
            1e-4,
            1e-3,
        );
        tensor::assert_close(
            got.layers[1].w_qkv.as_slice(),
            reference.params.layers[1].w_qkv.as_slice(),
            1e-4,
            1e-3,
        );
        tensor::assert_close(
            &got.layers[0].b_fc1,
            &reference.params.layers[0].b_fc1,
            1e-4,
            1e-3,
        );
    }

    #[test]
    fn save_load_reshard_roundtrip() {
        // Train on a 2x2 mesh, gather, serialize, deserialize, reshard onto
        // a *3x3* mesh — the loss must be preserved exactly.
        let cfg2 = OptimusConfig {
            q: 2,
            batch: 6,
            seq: 4,
            hidden: 12,
            heads: 6,
            vocab: 18,
            layers: 2,
            causal: false,
            checkpoint: false,
            fused_attention: false,
        };
        let (tokens, labels) = data(&cfg2, 2);
        let gathered = Mesh2d::run(cfg2.q, |g| {
            let mut m = OptimusModel::new(&cfg2, 4, g);
            for _ in 0..2 {
                m.train_step(g, &tokens, &labels, 0.2);
            }
            (m.gather_params(g), m.lm_loss(g, &tokens, &labels))
        });
        let params = gathered[0].0.as_ref().unwrap();
        let loss_2x2 = gathered[0].1;

        let json = params.to_json().to_string();
        let loaded = ModelParams::from_json(&minjson::parse(&json).unwrap()).unwrap();

        let cfg3 = OptimusConfig { q: 3, ..cfg2 };
        let losses = Mesh2d::run(cfg3.q, |g| {
            let m = OptimusModel::from_params(&cfg3, &loaded, g);
            m.lm_loss(g, &tokens, &labels)
        });
        for l in &losses {
            assert!(
                (l - loss_2x2).abs() < 1e-4,
                "resharded loss {l} vs original {loss_2x2}"
            );
        }
    }
}
