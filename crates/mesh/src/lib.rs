//! Simulated multi-device mesh runtime.
//!
//! The paper evaluates Optimus on 64 GPUs driven by NCCL collectives. This
//! crate is the substitute substrate: every *device* is an OS thread, and the
//! collective operations the paper's analysis assumes — binomial-**tree
//! broadcast** and **reduce** within a mesh row/column (cost `log(q)·β·B`,
//! Eq. 4) and **ring all-reduce** across a group (cost `2(p−1)/p·β·B`,
//! Eq. 5) — are implemented from scratch on top of std mpsc channels.
//!
//! Two properties matter for the reproduction:
//!
//! 1. **Numerical fidelity** — the distributed layers in `megatron` and
//!    `optimus-core` run their real communication pattern and are checked
//!    element-wise against the serial reference.
//! 2. **Communication accounting** — every collective records the bytes each
//!    device moves ([`CommLog`]), which the `perf` crate replays through the
//!    α-β cost model and which the integration tests validate against the
//!    closed forms of the paper's Table 1.
//!
//! # Communicator backends
//!
//! The collective surface is a trait, [`Communicator`], with two backends:
//!
//! * [`DeviceCtx`] — the **live** backend. One OS thread per device, real
//!   payloads over per-pair FIFO channels. Per-hop send buffers are drawn
//!   from the device thread's [`tensor::recycler`] — the one its tensors
//!   use — and given back to the receiver's on receive, so steady-state
//!   collective traffic performs no heap allocation
//!   (`tensor::recycler::misses` counts the allocations it could not
//!   avoid).
//! * [`DryRunComm`] — the **trace-only** backend. No threads, no data
//!   movement: each collective records the op/link stream its live
//!   counterpart would produce, and received payloads are zeros. Because
//!   every distributed program here is data-independent (communication
//!   depends on shapes and mesh geometry, never tensor values), a dry run
//!   emits logs byte-for-byte identical to a live run — cheap input for the
//!   `perf` cost model at mesh sizes too big to simulate
//!   (`optimus-cli --dry-run`).
//!
//! Library code is generic: layers take `&Grid2d<C>` (or `&C`) with
//! `C: Communicator` and run unmodified on either backend. Entry points:
//! [`Mesh::run_with_logs`] / [`Mesh2d::run_with_logs`] (live) and
//! [`Mesh::dry_run_with_logs`] / [`Mesh2d::dry_run_with_logs`] (trace).
//!
//! # Structured tracing
//!
//! The `*_traced` entry points ([`MeshRun::run_traced`],
//! [`MeshRun::dry_run_traced`] and their shorthands) additionally
//! return per-device [`trace::DeviceTrace`] timelines: every collective
//! issued through the [`Communicator`] trait becomes a timed op event, and
//! library code groups them into phases with `trace::span`. Live devices
//! stamp wall-clock time; dry runs stamp α-β model time from a caller
//! pricer, so both produce *structurally identical* traces of the same
//! program. See `OBSERVABILITY.md` at the repo root.
//!
//! # Deadlock discipline
//!
//! Collectives are matched by program order per (sender, receiver) pair: all
//! members of a group must call the same sequence of collectives on that
//! group. If a device thread panics, its channel endpoints drop and every
//! peer blocked on it panics with a "disconnected" error instead of hanging.
//! Two further rules keep the backends interchangeable: non-root `broadcast`
//! buffers are pre-sized by callers (the trace backend cannot learn sizes
//! from the wire), and point-to-point receives in a dry run must be matched
//! by a send already replayed on a lower-or-equal rank.

mod algo;
mod collectives;
mod comm;
mod dryrun;
mod fabric;
mod group;
mod launch;
mod mesh2d;
mod schedule;
mod shape;
mod stats;
mod topology;

pub use algo::{AlgoRule, AlgoTable, CollAlgo};
pub use comm::Communicator;
pub use dryrun::DryRunComm;
pub use fabric::DeviceCtx;
pub use group::Group;
pub use launch::{Mesh, Mesh2d, MeshNd, MeshRun};
pub use mesh2d::{Grid2d, GridNd};
pub use schedule::{chain_segments, chunk, coll_steps, group_steps, replay, Coll, RecvMode, Step};
pub use shape::MeshShape;
pub use stats::{CommLog, CommOp, LinkRecord, OpRecord};
pub use topology::{Arrangement, Topology};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_in_rank_order() {
        let out = Mesh::run(4, |ctx| ctx.rank() * 10);
        assert_eq!(out, vec![0, 10, 20, 30]);
    }

    #[test]
    fn single_device_mesh_works() {
        let out = Mesh::run(1, |ctx| {
            let mut v = vec![1.0f32, 2.0];
            ctx.all_reduce(&Group::world(1), &mut v);
            v
        });
        assert_eq!(out[0], vec![1.0, 2.0]);
    }

    #[test]
    #[should_panic]
    fn device_panic_propagates() {
        Mesh::run(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("boom");
            }
            ctx.rank()
        });
    }

    #[test]
    #[should_panic]
    fn peer_death_unblocks_receivers() {
        // Device 1 dies before sending; device 0 must panic (disconnected),
        // not hang forever.
        Mesh::run(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("dying without sending");
            }
            ctx.recv(1)
        });
    }
}
