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
//! `grad_*` helpers. [`Workspace`] provides the paper's Section 3.2.3
//! pre-allocated communication buffers: after warm-up, a training step
//! performs zero fresh panel allocations.
//!
//! All routines are generic over `mesh`'s `Communicator` trait, so they run
//! unchanged on the live thread mesh and on the trace-only dry-run backend
//! (see the trait docs for the blocking/pre-sizing contract). Every product
//! opens a `trace` span — `"summa.nn"`, `"summa.nt"`, `"summa.tn"`, shared
//! by the allocating and [`Workspace`] variants — so a traced run attributes
//! each broadcast/reduce wave to the algorithm that issued it
//! (`OBSERVABILITY.md` at the repo root shows the resulting timelines).
//! The per-panel communication volumes are priced in closed form by
//! `perf::table1` and cross-checked against executed runs in tests.

mod dist;
mod ops;
mod workspace;

pub use dist::{collect_blocks, distribute};
pub use ops::{grad_nn, grad_nt, grad_tn, summa_nn, summa_nt, summa_tn};
pub use workspace::{summa_nn_into, summa_nt_into, summa_tn_into, Workspace};
