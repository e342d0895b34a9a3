//! SUMMA: Scalable Universal Matrix Multiplication Algorithm on a `q × q`
//! device mesh (paper Section 2.4, Van De Geijn & Watts 1997).
//!
//! Matrices are uniformly partitioned into `q × q` blocks; device `(i, j)`
//! holds block `(i, j)`. Three product forms are provided, matching the
//! paper's Algorithms 1–3:
//!
//! * [`summa_nn`] — `C = A B`: panels of `A` broadcast along rows, panels of
//!   `B` broadcast along columns, local accumulation (Fig. 3).
//! * [`summa_nt`] — `C = A Bᵀ`: panels of `B` broadcast along columns,
//!   partial products reduced along rows.
//! * [`summa_tn`] — `C = Aᵀ B`: panels of `A` broadcast along rows, partial
//!   products reduced along columns.
//!
//! The set is **closed under differentiation** (paper Eqs. 1–3), so every
//! gradient of a SUMMA product is itself a SUMMA product — see the
//! `grad_*` helpers. Each product stages its panels through a workspace of
//! the paper's Section 3.2.3 pre-allocated communication buffers, built per
//! call, whose buffers come from the device's `tensor::recycler` and go
//! back to it, so the model's step finds its panel buffers again there.
//! [`summa_product`] runs any of the three forms and can keep the panels it
//! receives as [`Strips`], or read a later product's panels from strips an
//! earlier one kept: a checkpointed layer's backward `NT`/`TN` read the
//! panels of `W` and `x` that the recompute's `NN` (or the top layer's
//! forward `NN`) received, so they issue only their reduces. A `TN` whose
//! left operand is an empty block reads it, and its size, from the kept row
//! strip alone, so a cache need not hold what its strip carries.
//! [`summa_receive`] issues an `NN`'s broadcasts into a strip without the
//! product, for a recompute whose backward reads fc2's panels but not its
//! output.
//!
//! All routines are generic over `mesh`'s `Communicator` trait, so they run
//! unchanged on the live thread mesh and on the trace-only dry-run backend
//! (see the trait docs for the pre-sizing contract). Every collective runs
//! inside the call that issues it, so each product is the paper's blocking
//! loop (see `workspace.rs`). Every product opens a `trace` span —
//! `"summa.nn"`, `"summa.nt"`, `"summa.tn"` — so a traced run attributes each
//! broadcast/reduce wave to the algorithm that issued it
//! (`OBSERVABILITY.md` at the repo root shows the resulting timelines).
//! The per-panel communication volumes are priced in closed form by
//! `perf::table1` and cross-checked against executed runs in tests.

mod dist;
mod ops;
mod workspace;

pub use dist::{collect_blocks, distribute};
pub use ops::{grad_nn, grad_nt, grad_tn, summa_nn, summa_nt, summa_product, summa_tn};
pub use workspace::{summa_receive, Strips};
