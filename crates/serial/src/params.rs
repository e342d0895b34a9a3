//! Canonical parameter containers and their deterministic initialisation.
//!
//! All three implementations (serial, Megatron, Optimus) draw their
//! parameters from the same `(seed, param id)` streams — see
//! [`tensor::init`] — through one table read by [`crate::init`]: the serial
//! model reads it whole, a distributed device reads only its own pieces.
//!
//! One per-layer tensor set, [`LayerTensors`], serves as parameters *and*
//! gradients for every scheme, and one ordered walk over a stem of them
//! ([`walk_stem`]) is what every optimizer step, accumulation and gradient
//! sync in the workspace is derived from.

use crate::config::ModelConfig;
use crate::layer::Local;
use crate::stem::{StemMut, StemRef};
use minjson::Json;
use tensor::Tensor;

/// The twelve tensors of one pre-LN transformer layer — parameters or their
/// gradients, full or one device's slice. A bias or layer-norm vector is
/// empty on a device that does not host it, which is what the lowering's
/// placement row says ([`crate::Cut::hosted`]; Optimus-2D hosts them on
/// mesh row 0 only, Fig. 5).
///
/// Field order is the canonical walk order of [`LayerTensors::walk`]. Adam's
/// moments ([`tensor::optim::Adam`]) and the order of data-parallel gradient
/// all-reduces in a `CommLog` both follow it.
///
/// The fused QKV weight uses the canonical column layout `[Wq | Wk | Wv]`
/// (each `[h, h]`). How each scheme cuts a device's share from the full
/// tensors, and puts the shares back, is one table per lowering
/// ([`crate::Lowering::place`]) read by [`crate::shard`] and
/// [`crate::gather`]; a device's QKV columns are its heads' `[Q | K | V]`.
#[derive(Clone, Debug)]
pub struct LayerTensors {
    pub ln1_g: Vec<f32>,
    pub ln1_b: Vec<f32>,
    /// `[h, 3h]` fused QKV projection.
    pub w_qkv: Tensor,
    pub b_qkv: Vec<f32>,
    /// `[h, h]` attention output projection.
    pub w_out: Tensor,
    pub b_out: Vec<f32>,
    pub ln2_g: Vec<f32>,
    pub ln2_b: Vec<f32>,
    /// `[h, 4h]` MLP expansion.
    pub w_fc1: Tensor,
    pub b_fc1: Vec<f32>,
    /// `[4h, h]` MLP contraction.
    pub w_fc2: Tensor,
    pub b_fc2: Vec<f32>,
}

/// One layer's full parameters (or their gradients) on a single device.
pub type LayerParams = LayerTensors;

/// The twelve tensors as flat slices in field order, a vector hosted
/// elsewhere empty; `$as` picks the shared or mutable accessor.
macro_rules! slots {
    ($t:expr, $as:ident) => {
        [
            $t.ln1_g.$as(),
            $t.ln1_b.$as(),
            $t.w_qkv.$as(),
            $t.b_qkv.$as(),
            $t.w_out.$as(),
            $t.b_out.$as(),
            $t.ln2_g.$as(),
            $t.ln2_b.$as(),
            $t.w_fc1.$as(),
            $t.b_fc1.$as(),
            $t.w_fc2.$as(),
            $t.b_fc2.$as(),
        ]
    };
}

impl LayerTensors {
    pub(crate) fn slots(&self) -> [&[f32]; 12] {
        slots!(self, as_slice)
    }

    /// Builds a layer from its twelve tensors in field order, each given as
    /// its values (a vector hosted elsewhere empty) and shape.
    pub(crate) fn from_slots(slots: impl IntoIterator<Item = (Vec<f32>, [usize; 2])>) -> Self {
        let mut slots = slots.into_iter();
        let mut next = || slots.next().expect("twelve layer tensors");
        let mat = |(v, dims): (Vec<f32>, [usize; 2])| Tensor::from_vec(&dims, v);
        // Fields evaluate in source order, which is the slot order.
        LayerTensors {
            ln1_g: next().0,
            ln1_b: next().0,
            w_qkv: mat(next()),
            b_qkv: next().0,
            w_out: mat(next()),
            b_out: next().0,
            ln2_g: next().0,
            ln2_b: next().0,
            w_fc1: mat(next()),
            b_fc1: next().0,
            w_fc2: mat(next()),
            b_fc2: next().0,
        }
    }

    pub(crate) fn slots_mut(&mut self) -> [&mut [f32]; 12] {
        slots!(self, as_mut_slice)
    }

    /// Builds a layer from its four weights and eight vectors, each in
    /// field order.
    pub(crate) fn from_parts(weights: [Tensor; 4], vectors: [Vec<f32>; 8]) -> Self {
        let [w_qkv, w_out, w_fc1, w_fc2] = weights;
        let [ln1_g, ln1_b, b_qkv, b_out, ln2_g, ln2_b, b_fc1, b_fc2] = vectors;
        LayerTensors {
            ln1_g,
            ln1_b,
            w_qkv,
            b_qkv,
            w_out,
            b_out,
            ln2_g,
            ln2_b,
            w_fc1,
            b_fc1,
            w_fc2,
            b_fc2,
        }
    }

    /// The four weights in field order.
    pub fn weights_mut(&mut self) -> [&mut Tensor; 4] {
        [
            &mut self.w_qkv,
            &mut self.w_out,
            &mut self.w_fc1,
            &mut self.w_fc2,
        ]
    }

    /// Visits every locally hosted `(self, other)` slice pair in field
    /// order, skipping entries hosted elsewhere.
    ///
    /// # Panics
    /// If the two sides disagree about which entries are hosted.
    pub fn walk(&mut self, other: &Self, f: &mut impl FnMut(&mut [f32], &[f32])) {
        let pairs = self.slots_mut().into_iter().zip(other.slots());
        walk_hosted(pairs, &mut |_, p, g| f(p, g));
    }

    /// [`LayerTensors::walk`] over one set of tensors.
    pub fn walk_mut(&mut self, f: &mut impl FnMut(&mut [f32])) {
        let slots = self.slots_mut().into_iter();
        slots.filter(|v| !v.is_empty()).for_each(f);
    }

    /// Scalars held locally (weights plus any hosted vectors).
    pub fn num_params(&self) -> usize {
        self.slots().into_iter().map(<[f32]>::len).sum()
    }
}

/// Calls `f` on each `(parameter, gradient)` pair hosted here with its
/// index, and skips each pair hosted elsewhere, where both sides are empty.
///
/// # Panics
/// Where only one side is empty: the two disagree about hosting.
fn walk_hosted<'a>(
    pairs: impl Iterator<Item = (&'a mut [f32], &'a [f32])>,
    f: &mut impl FnMut(usize, &mut [f32], &[f32]),
) {
    for (i, (p, g)) in pairs.enumerate() {
        let hosted = !p.is_empty();
        assert_eq!(hosted, !g.is_empty(), "parameter/gradient hosting mismatch");
        if hosted {
            f(i, p, g);
        }
    }
}

impl LayerParams {
    /// Deterministic initialisation of layer `idx`: [`crate::init`]'s
    /// table read whole.
    pub fn init(seed: u64, idx: usize, h: usize) -> Self {
        crate::layout::init_layer(seed, idx, h)
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

/// All stem tensors — parameters or their gradients — with a vector hosted
/// elsewhere empty (see [`LayerTensors`]).
#[derive(Clone, Debug)]
pub struct ModelTensors {
    /// Embedding table `[v, h]`, tied with the LM head.
    pub embedding: Tensor,
    pub layers: Vec<LayerTensors>,
    pub final_ln_g: Vec<f32>,
    pub final_ln_b: Vec<f32>,
}

/// The full stem parameters (or their gradients) on a single device.
pub type ModelParams = ModelTensors;

/// The one ordered walk over a stem's `(parameter, gradient)` slice pairs:
/// embedding table, final layer-norm γ and β, then every layer in
/// [`LayerTensors::walk`] order. Every optimizer step
/// ([`crate::Optimizer`]), accumulation and gradient sync in the workspace
/// follows it.
///
/// # Panics
/// If the two sides hold different numbers of layers, or disagree about
/// hosting.
pub fn walk_stem(
    params: StemMut<'_>,
    grads: &ModelTensors,
    f: &mut impl FnMut(&mut [f32], &[f32]),
) {
    walk_stage(params, grads, true, true, &mut |_, p, g| f(p, g));
}

/// [`walk_stem`] over the tensors a pipeline stage uses, each with its index
/// in the walk: the table only `with_table`, the final layer norm only
/// `with_final` — the rule [`crate::Region::synced`] follows. The stage
/// holds the others with gradients that are always zero.
pub(crate) fn walk_stage(
    params: StemMut<'_>,
    grads: &ModelTensors,
    with_table: bool,
    with_final: bool,
    f: &mut impl FnMut(usize, &mut [f32], &[f32]),
) {
    let (n, m) = (params.layers.len(), grads.layers.len());
    assert_eq!(n, m, "a stem of {n} layers given gradients of {m}");
    let pairs = walk_slices(params).zip(crate::layout::walk_values(&grads.stem()));
    walk_hosted(pairs.map(|((_, p), (_, g))| (p, g)), &mut |i, p, g| {
        if crate::layout::stage_uses(i, with_table, with_final) {
            f(i, p, g);
        }
    });
}

/// Every tensor of `params` in walk order with its slot, a vector hosted
/// elsewhere empty.
pub(crate) fn walk_slices<'a>(
    params: StemMut<'a>,
) -> impl Iterator<Item = (crate::Slot, &'a mut [f32])> {
    let [gamma, beta] = params.final_ln;
    crate::layout::in_walk_order(
        params.table.as_mut_slice(),
        [gamma, beta],
        params.layers.iter_mut().map(LayerTensors::slots_mut),
    )
}

/// `a += b`, element-wise — gradient accumulation.
pub(crate) fn add(a: &mut [f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "accumulating gradients of another shape");
    for (x, y) in a.iter_mut().zip(b) {
        *x += y;
    }
}

impl ModelTensors {
    /// The tensors by reference, as the stem and [`crate::gather`] take them.
    pub fn stem(&self) -> StemRef<'_> {
        StemRef {
            table: &self.embedding,
            layers: &self.layers,
            final_ln: [&self.final_ln_g, &self.final_ln_b],
        }
    }

    /// The tensors by mutable reference, as [`walk_stem`] takes them.
    pub fn stem_mut(&mut self) -> StemMut<'_> {
        StemMut {
            table: &mut self.embedding,
            layers: &mut self.layers,
            final_ln: [&mut self.final_ln_g, &mut self.final_ln_b],
        }
    }

    /// [`walk_stem`] over `(self, other)`.
    pub fn walk(&mut self, other: &Self, f: &mut impl FnMut(&mut [f32], &[f32])) {
        walk_stem(self.stem_mut(), other, f);
    }

    /// `self += other` — gradient accumulation.
    pub fn accumulate(&mut self, other: &Self) {
        self.walk(other, &mut add);
    }

    /// Scalars held locally.
    pub fn num_params(&self) -> usize {
        crate::layout::stem_values(&self.stem())
            .map(<[f32]>::len)
            .sum()
    }
}

impl ModelParams {
    /// Deterministic initialisation of the whole stem: [`crate::init`]
    /// under the [`Local`] lowering, which places every tensor whole.
    pub fn init(seed: u64, cfg: &ModelConfig) -> Self {
        crate::init(&Local(*cfg), seed, cfg, 0..cfg.layers)
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
