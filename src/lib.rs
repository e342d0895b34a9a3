//! # Optimus-rs
//!
//! A from-scratch Rust reproduction of *"An Efficient 2D Method for Training
//! Super-Large Deep Learning Models"* (Xu, Li, Gong, You): **Optimus**, a
//! 2D tensor-parallelism scheme for transformers built on SUMMA-style
//! distributed matrix multiplication, together with the Megatron-style 1D
//! baseline it is evaluated against.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`tensor`] — dense `f32` tensor substrate: blocked matmul kernels
//!   (NN/NT/TN), softmax, layer norm, GELU, cross-entropy, all with manual
//!   backward passes, plus a seedable PRNG and gradient-check helpers.
//! * [`mesh`] — a simulated device mesh: every "GPU" is an OS thread, and
//!   collectives are implemented from scratch over channels with exact
//!   per-device communication accounting — each with a menu of selectable
//!   algorithms (tree/chain broadcast and reduce, ring/halving/tree
//!   all-reduce, ring/Bruck all-gather, ring/halving reduce-scatter)
//!   picked per call by a message-size- and group-size-keyed table.
//! * [`summa`] — the three SUMMA product forms (`C=AB`, `C=ABᵀ`, `C=AᵀB`)
//!   on a `q×q` mesh, closed under differentiation (paper Eqs. 1–3).
//! * [`serial`] — the single-device reference transformer (ground truth).
//! * [`megatron`] — the 1D tensor-parallel baseline (paper Section 2.2).
//! * [`optimus_core`] — the paper's contribution: 2D-parallel transformer
//!   layers (SUMMA linear with row-0 bias hosting, 2D attention partitioned
//!   over batch and hidden, 2D layer norm, 2D embedding/LM-head/cross-
//!   entropy) and activation checkpointing.
//! * [`hybrid`] — the 3D/4D composition: pipeline stages × data-parallel
//!   replicas × 2D/2.5D tensor meshes running one 1F1B-over-SUMMA schedule,
//!   live or dry-run, searched by `perf::autotune`. GPipe-style pipeline
//!   parallelism (the related-work paradigm) is its `dp = 1`, `[1, 1, 1]`
//!   mesh case.
//! * [`trace`] — structured tracing: phase-scoped spans, per-device
//!   timelines from both `Communicator` backends, Chrome `trace_event`
//!   export (Perfetto-loadable) and per-phase summaries (see
//!   `OBSERVABILITY.md`).
//! * [`perf`] — the α-β communication cost model, memory model and the
//!   generators for every table and figure of the paper's evaluation
//!   (Tables 1–3, Figures 7–9), plus projections to 1024 devices.
//!
//! ## Quickstart
//!
//! Run a tiny 2D-parallel transformer on a simulated 2×2 mesh and check it
//! against the serial reference:
//!
//! ```
//! use optimus::mesh::Mesh2d;
//! use optimus::optimus_core::{OptimusConfig, OptimusModel};
//! use optimus::tensor::Rng;
//!
//! let cfg = OptimusConfig {
//!     q: 2,          // 2x2 mesh, p = 4 devices
//!     batch: 4,
//!     seq: 8,
//!     hidden: 16,
//!     heads: 4,
//!     vocab: 32,
//!     layers: 2,
//!     causal: false,
//!     checkpoint: false,
//!     fused_attention: false,
//! };
//! let mut rng = Rng::new(0);
//! let tokens: Vec<usize> = (0..cfg.batch * cfg.seq).map(|_| rng.below(cfg.vocab)).collect();
//! let labels: Vec<usize> = (0..cfg.batch * cfg.seq).map(|_| rng.below(cfg.vocab)).collect();
//! let losses = Mesh2d::run(cfg.q, |grid| {
//!     let mut model = OptimusModel::new(&cfg, 42, grid);
//!     model.train_step(grid, &tokens, &labels, 0.1)
//! });
//! // Every device reports the same global loss.
//! for l in &losses {
//!     assert!((l - losses[0]).abs() < 1e-5);
//! }
//! ```

pub use hybrid;
pub use megatron;
pub use mesh;
pub use minjson;
pub use optimus_core;
pub use perf;
pub use serial;
pub use summa;
pub use tensor;
pub use trace;
