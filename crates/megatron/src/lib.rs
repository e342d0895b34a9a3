//! Megatron-style 1D tensor parallelism — the paper's baseline (Section 2.2).
//!
//! Parameters of each transformer layer are split across all `p` devices
//! along one dimension (columns of the first matrix of MLP/attention, rows
//! of the second), while **activations are fully replicated**: every layer
//! ends with an all-reduce that rebuilds the whole `[b·s, h]` activation on
//! every device. That replication is exactly the memory bottleneck Optimus
//! removes (Section 3.1.1), and the all-reduce volume `4(p−1)/p·bsh` per
//! layer forward is the first row of the paper's Table 1 — validated against
//! this implementation's [`mesh::CommLog`] by integration tests.
//!
//! The transformer layer itself is not written here: [`Megatron1d`] is a
//! [`serial::Lowering`] of the one layer body in `serial::layer` — local
//! GEMMs on column-parallel *expand* and row-parallel *contract* slices plus
//! the one world all-reduce Fig. 2 needs after each — and
//! [`layer1d_forward`] / [`layer1d_backward`] are that body under it.
//! Parameters and gradients are `serial::LayerTensors<Vec<f32>>` slices,
//! walked in the canonical order of [`serial::walk_stem`].
//!
//! Layout conventions (per device `j` of `p`):
//! * fused QKV weight: columns of each of `Wq`, `Wk`, `Wv` for heads
//!   `j·n/p … (j+1)·n/p`, i.e. a `[h, 3h/p]` local matrix;
//! * attention output projection: row slice `[h/p, h]`;
//! * MLP: `[h, 4h/p]` column slice and `[4h/p, h]` row slice;
//! * layer norms and second-matrix biases: replicated;
//! * embedding table: vocabulary row slice `[v/p, h]` (vocab-parallel), with
//!   the LM head tied and the cross-entropy computed vocab-parallel.

mod gather;
mod layer;
mod model;
mod params;

pub use layer::{layer1d_backward, layer1d_forward, Megatron1d};
pub use model::MegatronModel;
pub use params::{slice_layer1d, Layer1dParams, MegatronConfig};
