//! Distributed checkpointing: gathering a 2D-sharded model back into the
//! canonical (serial) parameter form on one device, and rebuilding a
//! sharded model from canonical parameters.
//!
//! Both directions read [`Summa2d`]'s one placement table
//! (`serial::Lowering::place`) through `serial::{shard, gather}`, the same
//! two interpreters `megatron::MegatronModel::{from_params, gather_params}`
//! use. The canonical form is `serial::ModelParams` — the same structure
//! the deterministic initialiser produces — so a gathered checkpoint can be
//! saved as JSON, loaded into the serial reference, resharded onto a
//! *different* mesh size, or loaded by the Megatron implementation, and a
//! Megatron checkpoint loads here the same way.

use crate::model::OptimusModel;
use crate::Summa2d;
use mesh::{Communicator, Grid2d};
use serial::ModelParams;

impl OptimusModel {
    /// Builds a device's shard from explicit canonical parameters (the
    /// inverse of [`OptimusModel::gather_params`]), cut by [`Summa2d`]'s
    /// placement table. Panics naming any tensor whose shape does not match
    /// `cfg.model()`.
    pub fn from_params<C: Communicator>(
        cfg: &crate::OptimusConfig,
        params: &ModelParams,
        grid: &Grid2d<C>,
    ) -> Self {
        OptimusModel::build(cfg, grid, |low| serial::shard(low, params, &cfg.model()))
    }

    /// Gathers every parameter block to mesh position (0,0) and reassembles
    /// the canonical [`ModelParams`]: matrices over the mesh (each depth
    /// slice's own), row-0 vectors along mesh row 0. Returns `Some` only
    /// there. All mesh devices must call this together (it is a
    /// collective).
    pub fn gather_params<C: Communicator>(&self, grid: &Grid2d<C>) -> Option<ModelParams> {
        let cfg = &self.cfg;
        serial::gather(&Summa2d { grid, cfg }, &self.stem())
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
