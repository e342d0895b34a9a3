//! Single-device reference transformer.
//!
//! This crate is the numeric ground truth of the workspace: a transformer
//! stem (embedding → N pre-LN layers → final layer norm → tied LM head →
//! cross-entropy) implemented on one device with fully manual backward
//! passes. The Megatron (1D) and Optimus (2D) crates are required — by
//! integration tests — to produce *the same* losses and parameter gradients
//! as this model when started from the same seed, because all three slice
//! their parameters from the same deterministic full matrices
//! ([`tensor::init`]).
//!
//! The transformer layer itself is written exactly once, here
//! ([`layer_forward`] / [`layer_backward`]), generic over a [`Lowering`]
//! that says how each matmul and row statistic is carried out; [`Local`]
//! is this crate's lowering, and the Megatron and Optimus crates supply
//! theirs. Likewise one tensor set ([`LayerTensors`], [`ModelTensors`])
//! holds parameters and gradients for all three, walked in one canonical
//! order ([`walk_stem`]). The stem around the layer — the forward and
//! reverse sweeps with checkpoint recompute, the tied head and the
//! vocabulary-split cross-entropy — is written once too, in [`stem`], over
//! the same [`Lowering`].
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
mod model;
mod params;
pub mod stem;

pub use attention::{attention_backward, attention_forward, AttnCache};
pub use config::ModelConfig;
pub use layer::{
    layer_backward, layer_forward, linear_backward, linear_forward, ln_backward, ln_forward,
    local_gemm, LayerCache, LnCache, Local, Lowering, Reduce, Role, Span,
};
pub use model::SerialModel;
pub use params::{
    walk_pair, walk_stem, Hosted, LayerParams, LayerTensors, ModelParams, ModelTensors,
};
pub use stem::{MemMeter, StemRef};
