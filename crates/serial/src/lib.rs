//! Single-device reference transformer.
//!
//! This crate is the numeric ground truth of the workspace: a transformer
//! stem (embedding → N pre-LN layers → final layer norm → tied LM head →
//! cross-entropy) implemented on one device with fully manual backward
//! passes. The Megatron (1D) and Optimus (2D) crates are required — by
//! integration tests — to produce *the same* losses and parameter gradients
//! as this model when started from the same seed, because all three draw
//! their parameters from the same deterministic `(seed, param id)` streams
//! ([`tensor::init`]).
//!
//! The transformer layer itself is written exactly once, here
//! ([`layer_forward`] / [`layer_backward`]), generic over a [`Lowering`]
//! that says how each matmul and row statistic is carried out; [`Local`]
//! is this crate's lowering, and the Megatron and Optimus crates supply
//! theirs. Likewise one tensor set ([`LayerTensors`], [`ModelTensors`])
//! holds parameters and gradients for all three, walked in one canonical
//! order ([`walk_stem`]) by the one [`Optimizer`], which addresses each
//! tensor — and Adam each tensor's moments — by its index in that walk.
//! One placement table per lowering ([`Lowering::place`]) is what [`init`]
//! draws every device's share by, [`shard`] cuts it by and [`gather`]
//! reassembles it by, and where a device does not host a vector it holds
//! it empty; a step
//! moves every bias and layer-norm vector it places, and a data-parallel
//! replica every gradient it syncs, as one walk-order region ([`Region`]).
//! The stem around the layer — the forward and reverse
//! sweeps with checkpoint recompute, the tied head and the
//! vocabulary-split cross-entropy — is written once too, in [`stem`], over the same [`Lowering`], as one stage
//! forward and one stage backward that every step composes.
//!
//! The model follows the structure of the paper's Figure 1: a token-wise
//! language-modelling branch (LM head + token labels) plus a sentence-level
//! classification branch ([`SerialModel::classify_forward`]).
//!
//! Being single-device, this crate performs no communication and carries no
//! trace spans: in an observability story it is the *denominator* — the
//! distributed schemes' traced timelines (`OBSERVABILITY.md` at the repo
//! root) show exactly the collectives their math added on top of this
//! model, and the equivalence tests pin that math to these kernels.

mod attention;
mod config;
mod layer;
mod layout;
mod model;
mod optim;
mod params;
mod region;
pub mod stem;

pub use attention::{attention_backward, attention_forward, AttnCache};
pub use config::ModelConfig;
pub use layer::{
    layer_backward, layer_forward, layer_recompute, linear_backward, linear_forward, ln_backward,
    ln_forward, local_gemm, LayerCache, LnCache, Local, Lowering, Reduce, Role, Span,
};
pub use layout::{gather, init, init_head, shard, shard_layer, shard_tensor, Cut, Slot};
pub use model::SerialModel;
pub use optim::Optimizer;
pub use params::{walk_stem, LayerParams, LayerTensors, ModelParams, ModelTensors};
pub use region::Region;
pub use stem::{MemMeter, StemMut, StemRef};
