//! Canonical parameter containers and their deterministic initialisation.
//!
//! All three implementations (serial, Megatron, Optimus) construct their
//! parameters by regenerating these full matrices from the same
//! `(seed, param id)` streams and slicing — see [`tensor::init`].
//!
//! One per-layer tensor set, [`LayerTensors`], serves as parameters *and*
//! gradients for every scheme, and one ordered walk over it
//! ([`LayerTensors::walk`]) is what every update, accumulation, optimizer
//! visit and gradient sync in the workspace is derived from.

use crate::config::ModelConfig;
use minjson::Json;
use tensor::init::{init_matrix, init_vector, param_ids, WEIGHT_STD};
use tensor::Tensor;

/// How a device holds one per-layer vector (bias or layer-norm affine):
/// `Vec<f32>` where every device has it (serial, Megatron-1D),
/// `Option<Vec<f32>>` where only mesh row 0 hosts it (Optimus-2D, Fig. 5).
pub trait Hosted {
    /// The local values, `None` on a device that does not host them.
    fn hosted(&self) -> Option<&[f32]>;
    /// Mutable counterpart of [`Hosted::hosted`].
    fn hosted_mut(&mut self) -> Option<&mut [f32]>;
}

impl Hosted for Vec<f32> {
    fn hosted(&self) -> Option<&[f32]> {
        Some(self)
    }
    fn hosted_mut(&mut self) -> Option<&mut [f32]> {
        Some(self)
    }
}

impl Hosted for Option<Vec<f32>> {
    fn hosted(&self) -> Option<&[f32]> {
        self.as_deref()
    }
    fn hosted_mut(&mut self) -> Option<&mut [f32]> {
        self.as_deref_mut()
    }
}

fn pair(p: Option<&mut [f32]>, g: Option<&[f32]>, f: &mut impl FnMut(&mut [f32], &[f32])) {
    match (p, g) {
        (Some(p), Some(g)) => f(p, g),
        (None, None) => {}
        _ => panic!("parameter/gradient hosting mismatch"),
    }
}

/// Calls `f` on a `(parameter, gradient)` vector pair hosted here, skips one
/// hosted elsewhere, and panics when the two sides disagree about hosting.
pub fn walk_pair<B: Hosted>(p: &mut B, g: &B, f: &mut impl FnMut(&mut [f32], &[f32])) {
    pair(p.hosted_mut(), g.hosted(), f);
}

/// The twelve tensors of one pre-LN transformer layer — parameters or their
/// gradients, full or one device's slice — with vectors held as `B`.
///
/// Field order is the canonical walk order of [`LayerTensors::walk`].
/// Optimizer state ([`tensor::optim::AdamSet`]), error-feedback residuals
/// and the order of data-parallel gradient all-reduces in a `CommLog` all
/// follow it.
///
/// The fused QKV weight uses the canonical column layout `[Wq | Wk | Wv]`
/// (each `[h, h]`); partitioned implementations permute columns as needed
/// but must map their gradients back to this layout for comparison.
#[derive(Clone, Debug)]
pub struct LayerTensors<B> {
    pub ln1_g: B,
    pub ln1_b: B,
    /// `[h, 3h]` fused QKV projection.
    pub w_qkv: Tensor,
    pub b_qkv: B,
    /// `[h, h]` attention output projection.
    pub w_out: Tensor,
    pub b_out: B,
    pub ln2_g: B,
    pub ln2_b: B,
    /// `[h, 4h]` MLP expansion.
    pub w_fc1: Tensor,
    pub b_fc1: B,
    /// `[4h, h]` MLP contraction.
    pub w_fc2: Tensor,
    pub b_fc2: B,
}

/// One layer's full parameters (or their gradients) on a single device.
pub type LayerParams = LayerTensors<Vec<f32>>;

/// The twelve tensors as flat slices in field order, `None` where a vector
/// is hosted elsewhere; `$vec`/`$mat` pick the shared or mutable accessors.
macro_rules! slots {
    ($t:expr, $vec:ident, $mat:ident) => {
        [
            $t.ln1_g.$vec(),
            $t.ln1_b.$vec(),
            Some($t.w_qkv.$mat()),
            $t.b_qkv.$vec(),
            Some($t.w_out.$mat()),
            $t.b_out.$vec(),
            $t.ln2_g.$vec(),
            $t.ln2_b.$vec(),
            Some($t.w_fc1.$mat()),
            $t.b_fc1.$vec(),
            Some($t.w_fc2.$mat()),
            $t.b_fc2.$vec(),
        ]
    };
}

impl<B: Hosted> LayerTensors<B> {
    fn slots(&self) -> [Option<&[f32]>; 12] {
        slots!(self, hosted, as_slice)
    }

    fn slots_mut(&mut self) -> [Option<&mut [f32]>; 12] {
        slots!(self, hosted_mut, as_mut_slice)
    }

    /// Visits every locally hosted `(self, other)` slice pair in field
    /// order, skipping entries hosted elsewhere.
    ///
    /// # Panics
    /// If the two sides disagree about which entries are hosted.
    pub fn walk(&mut self, other: &Self, f: &mut impl FnMut(&mut [f32], &[f32])) {
        for (p, g) in self.slots_mut().into_iter().zip(other.slots()) {
            pair(p, g, f);
        }
    }

    /// [`LayerTensors::walk`] over one set of tensors.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut [f32])) {
        self.slots_mut().into_iter().flatten().for_each(f);
    }

    /// Scalars held locally (weights plus any hosted vectors).
    pub fn num_params(&self) -> usize {
        self.slots().into_iter().flatten().map(<[f32]>::len).sum()
    }
}

impl LayerParams {
    /// Deterministic initialisation of layer `idx`.
    pub fn init(seed: u64, idx: usize, h: usize) -> Self {
        let id = |off| param_ids::layer(idx, off);
        LayerParams {
            ln1_g: init_vector(h, 1.0),
            ln1_b: init_vector(h, 0.0),
            w_qkv: init_matrix(seed, id(param_ids::W_QKV), &[h, 3 * h], WEIGHT_STD),
            b_qkv: init_vector(3 * h, 0.0),
            w_out: init_matrix(seed, id(param_ids::W_OUT), &[h, h], WEIGHT_STD),
            b_out: init_vector(h, 0.0),
            ln2_g: init_vector(h, 1.0),
            ln2_b: init_vector(h, 0.0),
            w_fc1: init_matrix(seed, id(param_ids::W_FC1), &[h, 4 * h], WEIGHT_STD),
            b_fc1: init_vector(4 * h, 0.0),
            w_fc2: init_matrix(seed, id(param_ids::W_FC2), &[4 * h, h], WEIGHT_STD),
            b_fc2: init_vector(h, 0.0),
        }
    }

    /// Checkpoint JSON (an object keyed by field name).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("ln1_g", Json::f32_arr(&self.ln1_g)),
            ("ln1_b", Json::f32_arr(&self.ln1_b)),
            ("w_qkv", self.w_qkv.to_json()),
            ("b_qkv", Json::f32_arr(&self.b_qkv)),
            ("w_out", self.w_out.to_json()),
            ("b_out", Json::f32_arr(&self.b_out)),
            ("ln2_g", Json::f32_arr(&self.ln2_g)),
            ("ln2_b", Json::f32_arr(&self.ln2_b)),
            ("w_fc1", self.w_fc1.to_json()),
            ("b_fc1", Json::f32_arr(&self.b_fc1)),
            ("w_fc2", self.w_fc2.to_json()),
            ("b_fc2", Json::f32_arr(&self.b_fc2)),
        ])
    }

    /// Inverse of [`LayerParams::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(LayerParams {
            ln1_g: v.get("ln1_g")?.as_f32_vec()?,
            ln1_b: v.get("ln1_b")?.as_f32_vec()?,
            w_qkv: Tensor::from_json(v.get("w_qkv")?)?,
            b_qkv: v.get("b_qkv")?.as_f32_vec()?,
            w_out: Tensor::from_json(v.get("w_out")?)?,
            b_out: v.get("b_out")?.as_f32_vec()?,
            ln2_g: v.get("ln2_g")?.as_f32_vec()?,
            ln2_b: v.get("ln2_b")?.as_f32_vec()?,
            w_fc1: Tensor::from_json(v.get("w_fc1")?)?,
            b_fc1: v.get("b_fc1")?.as_f32_vec()?,
            w_fc2: Tensor::from_json(v.get("w_fc2")?)?,
            b_fc2: v.get("b_fc2")?.as_f32_vec()?,
        })
    }
}

/// All stem tensors — parameters or their gradients — with vectors held
/// as `B` (see [`LayerTensors`]).
#[derive(Clone, Debug)]
pub struct ModelTensors<B> {
    /// Embedding table `[v, h]`, tied with the LM head.
    pub embedding: Tensor,
    pub layers: Vec<LayerTensors<B>>,
    pub final_ln_g: B,
    pub final_ln_b: B,
}

/// The full stem parameters (or their gradients) on a single device.
pub type ModelParams = ModelTensors<Vec<f32>>;

/// The one ordered walk over a stem's `(parameter, gradient)` slice pairs:
/// embedding table, final layer-norm γ and β, then every layer in
/// [`LayerTensors::walk`] order. The parameter side is taken piecewise
/// because the distributed models hold these as fields of their own.
pub fn walk_stem<B: Hosted>(
    embedding: &mut Tensor,
    final_ln: [&mut B; 2],
    layers: &mut [LayerTensors<B>],
    grads: &ModelTensors<B>,
    f: &mut impl FnMut(&mut [f32], &[f32]),
) {
    f(embedding.as_mut_slice(), grads.embedding.as_slice());
    let [gamma, beta] = final_ln;
    walk_pair(gamma, &grads.final_ln_g, f);
    walk_pair(beta, &grads.final_ln_b, f);
    for (lp, lg) in layers.iter_mut().zip(&grads.layers) {
        lp.walk(lg, f);
    }
}

impl<B: Hosted> ModelTensors<B> {
    /// [`walk_stem`] over `(self, other)`.
    pub fn walk(&mut self, other: &Self, f: &mut impl FnMut(&mut [f32], &[f32])) {
        walk_stem(
            &mut self.embedding,
            [&mut self.final_ln_g, &mut self.final_ln_b],
            &mut self.layers,
            other,
            f,
        );
    }

    /// `self += other` — gradient accumulation.
    pub fn accumulate(&mut self, other: &Self) {
        self.walk(other, &mut |a, b| {
            for (x, y) in a.iter_mut().zip(b) {
                *x += y;
            }
        });
    }

    /// Scalars held locally.
    pub fn num_params(&self) -> usize {
        let ln = [&self.final_ln_g, &self.final_ln_b];
        self.embedding.len()
            + ln.iter()
                .filter_map(|v| v.hosted())
                .map(<[f32]>::len)
                .sum::<usize>()
            + self
                .layers
                .iter()
                .map(LayerTensors::num_params)
                .sum::<usize>()
    }
}

impl ModelParams {
    /// Deterministic initialisation of the whole stem.
    pub fn init(seed: u64, cfg: &ModelConfig) -> Self {
        ModelParams {
            embedding: init_matrix(
                seed,
                param_ids::EMBEDDING,
                &[cfg.vocab, cfg.hidden],
                WEIGHT_STD,
            ),
            layers: (0..cfg.layers)
                .map(|l| LayerParams::init(seed, l, cfg.hidden))
                .collect(),
            final_ln_g: init_vector(cfg.hidden, 1.0),
            final_ln_b: init_vector(cfg.hidden, 0.0),
        }
    }

    /// Checkpoint JSON (an object keyed by field name).
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("embedding", self.embedding.to_json()),
            (
                "layers",
                Json::Arr(self.layers.iter().map(LayerParams::to_json).collect()),
            ),
            ("final_ln_g", Json::f32_arr(&self.final_ln_g)),
            ("final_ln_b", Json::f32_arr(&self.final_ln_b)),
        ])
    }

    /// Inverse of [`ModelParams::to_json`].
    pub fn from_json(v: &Json) -> Result<Self, String> {
        Ok(ModelParams {
            embedding: Tensor::from_json(v.get("embedding")?)?,
            layers: v
                .get("layers")?
                .as_arr()?
                .iter()
                .map(LayerParams::from_json)
                .collect::<Result<_, _>>()?,
            final_ln_g: v.get("final_ln_g")?.as_f32_vec()?,
            final_ln_b: v.get("final_ln_b")?.as_f32_vec()?,
        })
    }

    /// Writes the parameters as JSON (the workspace's checkpoint format —
    /// every implementation can produce and consume it via
    /// `gather_params` / `from_params`).
    pub fn save_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json().to_string())
    }

    /// Reads parameters written by [`ModelParams::save_json`].
    pub fn load_json(path: &std::path::Path) -> std::io::Result<Self> {
        let body = std::fs::read_to_string(path)?;
        let v = minjson::parse(&body).map_err(std::io::Error::other)?;
        Self::from_json(&v).map_err(std::io::Error::other)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_deterministic() {
        let cfg = ModelConfig::tiny();
        let a = ModelParams::init(3, &cfg);
        let b = ModelParams::init(3, &cfg);
        assert_eq!(a.embedding, b.embedding);
        assert_eq!(a.layers[1].w_fc2, b.layers[1].w_fc2);
    }

    #[test]
    fn different_layers_get_different_weights() {
        let cfg = ModelConfig::tiny();
        let p = ModelParams::init(0, &cfg);
        assert_ne!(p.layers[0].w_qkv, p.layers[1].w_qkv);
    }

    #[test]
    fn param_count_matches_config_formula() {
        let cfg = ModelConfig::tiny();
        let p = ModelParams::init(0, &cfg);
        assert_eq!(p.num_params(), cfg.total_params());
    }

    #[test]
    fn layer_norm_starts_at_identity() {
        let p = LayerParams::init(0, 0, 8);
        assert!(p.ln1_g.iter().all(|&g| g == 1.0));
        assert!(p.ln1_b.iter().all(|&b| b == 0.0));
    }

    #[test]
    fn save_load_roundtrip() {
        let cfg = ModelConfig::tiny();
        let params = ModelParams::init(9, &cfg);
        let path = std::env::temp_dir().join("optimus_params_roundtrip.json");
        params.save_json(&path).unwrap();
        let back = ModelParams::load_json(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(back.embedding, params.embedding);
        assert_eq!(back.layers[1].w_fc1, params.layers[1].w_fc1);
        assert_eq!(back.final_ln_g, params.final_ln_g);
    }

    #[test]
    fn load_rejects_garbage() {
        let path = std::env::temp_dir().join("optimus_params_garbage.json");
        std::fs::write(&path, b"not json").unwrap();
        assert!(ModelParams::load_json(&path).is_err());
        std::fs::remove_file(&path).ok();
    }
}
