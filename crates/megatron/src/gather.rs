//! Gathering the 1D-sharded model back into canonical parameters on rank 0
//! (checkpoint saving), mirroring `optimus_core::checkpoint`.

use crate::model::MegatronModel;
use mesh::{Communicator, Group};
use serial::{LayerParams, ModelParams};
use tensor::Tensor;

fn gather_concat_rows<C: Communicator>(
    ctx: &C,
    world: &Group,
    local: &Tensor,
    full_rows: usize,
    cols: usize,
) -> Option<Tensor> {
    let flat = ctx.gather(world, 0, local.as_slice());
    (ctx.rank() == 0).then(|| {
        assert_eq!(flat.len(), full_rows * cols);
        Tensor::from_vec(&[full_rows, cols], flat)
    })
}

/// Reassembles column-sliced weights: device `j` holds columns
/// `[j·w, (j+1)·w)` of a `[rows, p·w]` matrix.
fn gather_concat_cols<C: Communicator>(
    ctx: &C,
    world: &Group,
    local: &Tensor,
    rows: usize,
    full_cols: usize,
) -> Option<Tensor> {
    let p = world.len();
    let w = full_cols / p;
    let flat = ctx.gather(world, 0, local.as_slice());
    (ctx.rank() == 0).then(|| {
        let mut out = Tensor::zeros(&[rows, full_cols]);
        for (j, chunk) in flat.chunks(rows * w).enumerate() {
            out.set_block(0, j * w, &Tensor::from_vec(&[rows, w], chunk.to_vec()));
        }
        out
    })
}

/// Reassembles the permuted fused-QKV weight: device `j`'s local matrix is
/// `[Wq_j | Wk_j | Wv_j]` (each `[h, h/p]`); canonical is contiguous thirds.
fn gather_qkv<C: Communicator>(ctx: &C, world: &Group, local: &Tensor, h: usize) -> Option<Tensor> {
    let p = world.len();
    let w = h / p;
    let flat = ctx.gather(world, 0, local.as_slice());
    (ctx.rank() == 0).then(|| {
        let mut out = Tensor::zeros(&[h, 3 * h]);
        for (j, chunk) in flat.chunks(h * 3 * w).enumerate() {
            let local_j = Tensor::from_vec(&[h, 3 * w], chunk.to_vec());
            for part in 0..3 {
                let block = local_j.block(0, part * w, h, w);
                out.set_block(0, part * h + j * w, &block);
            }
        }
        out
    })
}

fn gather_qkv_bias<C: Communicator>(
    ctx: &C,
    world: &Group,
    local: &[f32],
    h: usize,
) -> Option<Vec<f32>> {
    let p = world.len();
    let w = h / p;
    let flat = ctx.gather(world, 0, local);
    (ctx.rank() == 0).then(|| {
        let mut out = vec![0.0f32; 3 * h];
        for (j, chunk) in flat.chunks(3 * w).enumerate() {
            for part in 0..3 {
                out[part * h + j * w..part * h + (j + 1) * w]
                    .copy_from_slice(&chunk[part * w..(part + 1) * w]);
            }
        }
        out
    })
}

fn gather_concat_vec<C: Communicator>(ctx: &C, world: &Group, local: &[f32]) -> Option<Vec<f32>> {
    let flat = ctx.gather(world, 0, local);
    (ctx.rank() == 0).then_some(flat)
}

impl MegatronModel {
    /// Gathers every parameter to rank 0 and reassembles the canonical
    /// [`ModelParams`]. All devices must call this together. Replicated
    /// parameters (layer norms, second-matrix biases) are taken from rank
    /// 0's copy — the replicas are bit-identical by construction.
    pub fn gather_params<C: Communicator>(&self, ctx: &C) -> Option<ModelParams> {
        let h = self.cfg.model.hidden;
        let v = self.cfg.model.vocab;
        let world = &self.world;

        let embedding = gather_concat_rows(ctx, world, &self.table, v, h);

        let mut layers: Vec<Option<LayerParams>> = Vec::with_capacity(self.layers.len());
        for lp in &self.layers {
            let w_qkv = gather_qkv(ctx, world, &lp.w_qkv, h);
            let b_qkv = gather_qkv_bias(ctx, world, &lp.b_qkv, h);
            let w_out = gather_concat_rows(ctx, world, &lp.w_out, h, h);
            let w_fc1 = gather_concat_cols(ctx, world, &lp.w_fc1, h, 4 * h);
            let b_fc1 = gather_concat_vec(ctx, world, &lp.b_fc1);
            let w_fc2 = gather_concat_rows(ctx, world, &lp.w_fc2, 4 * h, h);
            // Replicated entries (layer norms, `b_out`, the fc2 bias) are
            // rank 0's own copies.
            layers.push(w_qkv.map(|w_qkv| LayerParams {
                w_qkv,
                b_qkv: b_qkv.unwrap(),
                w_out: w_out.unwrap(),
                w_fc1: w_fc1.unwrap(),
                b_fc1: b_fc1.unwrap(),
                w_fc2: w_fc2.unwrap(),
                ..lp.clone()
            }));
        }

        (ctx.rank() == 0).then(|| ModelParams {
            embedding: embedding.unwrap(),
            layers: layers.into_iter().map(|l| l.unwrap()).collect(),
            final_ln_g: self.final_ln_g.clone(),
            final_ln_b: self.final_ln_b.clone(),
        })
    }
}

#[cfg(test)]
mod tests {
    use crate::{MegatronConfig, MegatronModel};
    use mesh::Mesh;
    use serial::{ModelConfig, ModelParams, SerialModel};
    use tensor::Rng;

    #[test]
    fn gather_recovers_initial_parameters() {
        let model_cfg = ModelConfig::tiny();
        let cfg = MegatronConfig::new(model_cfg, 2);
        let gathered = Mesh::run(2, |ctx| MegatronModel::new(cfg, 13, ctx).gather_params(ctx));
        let full = ModelParams::init(13, &model_cfg);
        let got = gathered[0].as_ref().expect("rank 0 has the params");
        assert_eq!(got.embedding, full.embedding);
        assert_eq!(got.layers[0].w_qkv, full.layers[0].w_qkv);
        assert_eq!(got.layers[1].w_fc1, full.layers[1].w_fc1);
        assert_eq!(got.layers[0].b_qkv, full.layers[0].b_qkv);
        assert!(gathered[1].is_none());
    }

    #[test]
    fn trained_gathered_params_match_serial() {
        let model_cfg = ModelConfig::tiny();
        let cfg = MegatronConfig::new(model_cfg, 2);
        let mut rng = Rng::new(0);
        let tokens: Vec<usize> = (0..model_cfg.tokens())
            .map(|_| rng.below(model_cfg.vocab))
            .collect();
        let labels: Vec<usize> = (0..model_cfg.tokens())
            .map(|_| rng.below(model_cfg.vocab))
            .collect();
        let gathered = Mesh::run(2, |ctx| {
            let mut m = MegatronModel::new(cfg, 21, ctx);
            for _ in 0..3 {
                m.train_step(ctx, &tokens, &labels, 0.2);
            }
            m.gather_params(ctx)
        });
        let mut reference = SerialModel::new(model_cfg, 21);
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
    }
}
