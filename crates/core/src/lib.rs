//! **Optimus** — the paper's contribution: 2D tensor parallelism for
//! transformers, built on SUMMA distributed matrix multiplication.
//!
//! In the 1D (Megatron) scheme every device holds the *whole* `[b·s, h]`
//! activation of every layer; Optimus partitions activations *and*
//! parameters into `q × q` blocks over a device mesh (`p = q²`), so per
//! device the activation footprint shrinks from `bsh` to `bsh/p`.
//!
//! The transformer layer is the one body in `serial::layer`, lowered by
//! [`Summa2d`] ([`layer2d_forward`] / [`layer2d_backward`]); parameters and
//! gradients are `serial::LayerTensors` blocks, a vector empty off mesh row
//! 0, walked in the canonical order of [`serial::walk_stem`]. What the
//! lowering decides:
//!
//! * **SUMMA linear layers** (`serial::linear_{forward,backward}` under
//!   [`Summa2d`]) — all four matmuls of a transformer layer, and the
//!   classification head, run as Algorithm 1 forward and Algorithms 2–3 in
//!   backward (the closed set of paper Eqs. 1–3). Biases live on mesh row 0,
//!   broadcast down columns in forward and reduced back in backward
//!   (Fig. 5).
//! * **2D self-attention** — activations are partitioned along *batch* and
//!   *hidden* (not sequence), so each device owns `b/q` sequences × `n/q`
//!   complete heads and `softmax(QKᵀ)V` is entirely local (Section 3.2.1);
//!   the rejected `(s, h)` partition would move the `b·n·s²` score tensor.
//! * **2D layer norm** (`serial::ln_{forward,backward}` under [`Summa2d`])
//!   — local `Σx`, `Σx²` all-reduced along mesh rows; `x̂` and `1/σ` saved
//!   for backward; γ, β hosted on mesh row 0 like biases (Section 3.2.2).
//! * **2D embedding / LM head / cross-entropy** — the embedding table is
//!   `q × q`-blocked; the lookup is SUMMA `C = AB` with an implicit one-hot
//!   `A`, the tied LM head is Algorithm 2, and the cross-entropy completes
//!   log-sum-exp partials along mesh rows. These are [`Summa2d`]'s share of
//!   the one stem in `serial::stem`.
//! * **Memory management** ([`MemMeter`], activation checkpointing in
//!   [`OptimusModel`]) — the Section 3.2.3 techniques: per-layer recompute
//!   and immediate parameter update + gradient-buffer reset, both policies
//!   of the shared sweeps. The device's `tensor::recycler` recycles
//!   tensors, message buffers and panels: the model's products go through
//!   `summa::summa_product`, which builds a `summa::Workspace` each, and
//!   its buffers come from and return to the recycler, so a steady step
//!   allocates no panel.
//!
//! Every layer and the full stem are verified element-wise against the
//! serial reference (same seed ⇒ same losses, same gradients) by this
//! crate's tests and the workspace integration tests.

pub mod checkpoint;
mod config;
mod layer2d;
mod model;

pub use config::OptimusConfig;
pub use layer2d::{layer2d_backward, layer2d_forward, Summa2d};
pub use model::{OptimusModel, TrainOutput};
pub use serial::stem::MemMeter;
