//! The pluggable collective surface.
//!
//! Every distributed layer in the workspace (`summa`, `megatron`,
//! `optimus-core`, `hybrid`) speaks to its devices through this trait
//! rather than a concrete context, so the same program runs on two backends:
//!
//! * [`crate::DeviceCtx`] — the **live** backend: one OS thread per device,
//!   real data movement over channels, recycled per-hop send buffers.
//! * [`crate::DryRunComm`] — the **trace-only** backend: no threads, no data
//!   movement; it just replays each collective's communication pattern into
//!   the [`CommLog`], producing op/link streams identical to the live
//!   backend's so the `perf` cost model can price a step without running it.
//!
//! A collective is one definition with two interpreters. Its schedule is a
//! per-member step list ([`crate::coll_steps`]); the crate-private
//! `run_collective` below resolves the list, emits one [`trace`] op event
//! (when a collector is active on the calling thread — see
//! [`crate::Mesh::run_traced`] / [`crate::Mesh::dry_run_traced`]; untraced
//! runs pay a single thread-local read) and writes the op and link records,
//! identically for both backends. Only the last stage differs: the live
//! backend executes the steps, the trace-only one has nothing left to do.
//!
//! # Contract
//!
//! Implementations must preserve the live backend's logging discipline:
//! every collective appends exactly one [`crate::OpRecord`] per
//! participating device, and one [`crate::LinkRecord`] per point-to-point
//! send that device performs, in program order. Callers must follow the
//! deadlock discipline documented at the crate root (same collectives, same
//! groups, same order on every member), and — because the trace backend
//! cannot learn payload sizes from the wire — must pre-size non-root
//! `broadcast` buffers to the root's payload length.
//!
//! The contract is runnable: the same generic program produces identical
//! communication logs on both backends.
//!
//! ```
//! use mesh::{Communicator, Group, Mesh};
//!
//! fn program<C: Communicator>(comm: &C) -> Vec<mesh::OpRecord> {
//!     let world = Group::world(comm.world_size());
//!     // Every member calls the same collectives on the same groups in the
//!     // same program order (the deadlock discipline) ...
//!     let mut x = vec![comm.rank() as f32; 4];
//!     comm.all_reduce(&world, &mut x);
//!     // ... and non-root broadcast buffers are PRE-SIZED to the root's
//!     // payload length: the trace backend has no wire to learn it from.
//!     let mut y = vec![0.0f32; 3];
//!     comm.broadcast(&world, 0, &mut y);
//!     comm.log_snapshot().ops
//! }
//!
//! let (live, _) = Mesh::run_with_logs(4, |ctx| program(ctx));
//! let (dry, _) = Mesh::dry_run_with_logs(4, |c| program(c));
//! assert_eq!(live, dry); // op streams are identical, rank by rank
//! ```

use crate::algo::{AlgoTable, CollAlgo};
use crate::group::Group;
use crate::schedule::{chunk, coll_steps, Coll, Combine, Step};
use crate::stats::{group_shape, record_group_op, CommLog, CommOp};
use std::cell::RefCell;
use std::time::Instant;

/// A device's handle to the communication fabric: identity, point-to-point
/// transfers, collectives, and the per-device communication log.
///
/// Every collective goes through the one required entry,
/// [`Communicator::collective`]; the named methods are written once here
/// and only resolve a [`CollAlgo`] and lay out the working buffer.
pub trait Communicator {
    /// This device's world rank.
    fn rank(&self) -> usize;

    /// Number of devices in the world.
    fn world_size(&self) -> usize;

    /// Point-to-point send (logged as a link record).
    fn send(&self, to: usize, data: Vec<f32>);

    /// Point-to-point receive (blocking on the live backend).
    fn recv(&self, from: usize) -> Vec<f32>;

    /// Point-to-point receive with a declared payload length.
    ///
    /// Semantically identical to [`Communicator::recv`] on the live backend
    /// (the declared `len` is checked against the wire payload). The trace
    /// backend replays ranks sequentially and therefore cannot satisfy a
    /// `recv` whose matching send happens on a *higher* rank (e.g. the
    /// backward hops of a 1F1B pipeline schedule); `recv_expect` lets it
    /// synthesize a zero payload of the declared length instead of
    /// panicking. Receives record nothing in the [`CommLog`] (only senders
    /// record link records), so logs stay byte-identical across backends —
    /// this is the p2p analogue of pre-sizing non-root broadcast buffers.
    fn recv_expect(&self, from: usize, len: usize) -> Vec<f32> {
        let data = self.recv(from);
        debug_assert_eq!(
            data.len(),
            len,
            "recv_expect from {from}: declared {len} elems, wire carried {}",
            data.len()
        );
        data
    }

    /// The algorithm table of the run this device belongs to.
    fn tables(&self) -> &AlgoTable;

    /// The one selection lookup: this run's [`AlgoTable`], keyed on `(op,
    /// group size, payload bytes)`. `elems` is the payload in `f32`
    /// elements.
    fn algo(&self, op: CommOp, group_size: usize, elems: usize) -> CollAlgo {
        self.tables().select(op, group_size, elems * 4)
    }

    /// Runs `coll` over `group` under an explicit `algo`: logs the op and
    /// this member's sends, then interprets its step list
    /// ([`crate::coll_steps`]) over the working buffer — moving the bytes on
    /// the live backend, nothing more on the trace-only one. The collective
    /// is complete when the call returns.
    ///
    /// The working buffer is the payload itself, except for
    /// [`Coll::AllGather`] and [`Coll::Gather`], where it is the `g`-slot
    /// output with this member's block already in its slot.
    fn collective(&self, coll: Coll, group: &Group, buf: &mut [f32], algo: CollAlgo);

    /// Broadcast from group index `root`. Non-root buffers must be
    /// pre-sized to the root's payload length on both backends (no
    /// collective resizes the buffer).
    fn broadcast(&self, group: &Group, root: usize, data: &mut [f32]) {
        let algo = self.algo(CommOp::Broadcast, group.len(), data.len());
        self.collective(Coll::Broadcast { root }, group, data, algo);
    }

    /// Sum-reduce to group index `root`. Non-root buffers hold partial
    /// sums afterwards and must be treated as scratch.
    fn reduce(&self, group: &Group, root: usize, data: &mut [f32]) {
        let algo = self.algo(CommOp::Reduce, group.len(), data.len());
        self.collective(Coll::Reduce { root }, group, data, algo);
    }

    /// All-reduce (sum): every member ends with the element-wise sum.
    fn all_reduce(&self, group: &Group, data: &mut [f32]) {
        let algo = self.algo(CommOp::AllReduce, group.len(), data.len());
        self.collective(Coll::AllReduce, group, data, algo);
    }

    /// All-reduce (max) — for the distributed log-sum-exp.
    fn all_reduce_max(&self, group: &Group, data: &mut [f32]) {
        let algo = self.algo(CommOp::AllReduce, group.len(), data.len());
        self.collective(Coll::AllReduceMax, group, data, algo);
    }

    /// All-gather: concatenation of every member's equal-length `local` in
    /// group order.
    fn all_gather(&self, group: &Group, local: &[f32]) -> Vec<f32> {
        let algo = self.algo(CommOp::AllGather, group.len(), local.len());
        let mut out = slots(my_index(self.rank(), group), group.len(), local);
        self.collective(Coll::AllGather, group, &mut out, algo);
        out
    }

    /// Reduce-scatter (sum): returns this member's chunk (`n·i/g`
    /// boundaries) of the summed vector; `data` ends as scratch.
    fn reduce_scatter(&self, group: &Group, data: &mut [f32]) -> Vec<f32> {
        let algo = self.algo(CommOp::ReduceScatter, group.len(), data.len());
        let mine = chunk(data.len(), group.len(), my_index(self.rank(), group));
        self.collective(Coll::ReduceScatter, group, data, algo);
        let mut out = tensor::recycler::take_empty(mine.len());
        out.extend_from_slice(&data[mine]);
        out
    }

    /// Gather every member's equal-length `local` to group index `root`, in
    /// group order; non-roots get an empty vector.
    fn gather(&self, group: &Group, root: usize, local: &[f32]) -> Vec<f32> {
        let me = my_index(self.rank(), group);
        let mut out = slots(me, group.len(), local);
        self.collective(Coll::Gather { root }, group, &mut out, CollAlgo::Ring);
        if me == root {
            out
        } else {
            tensor::recycler::give(out);
            Vec::new()
        }
    }

    /// Barrier over a group (empty reduce to index 0 + empty broadcast).
    fn barrier(&self, group: &Group) {
        self.collective(Coll::Barrier, group, &mut [], CollAlgo::Tree);
    }

    /// Read-only snapshot of the accumulated communication log.
    fn log_snapshot(&self) -> CommLog;

    /// Extracts the accumulated communication log, resetting it.
    fn take_log(&self) -> CommLog;
}

fn my_index(rank: usize, group: &Group) -> usize {
    group
        .index_of(rank)
        .unwrap_or_else(|| panic!("device {rank} is not in group {group:?}"))
}

/// The `g`-slot working buffer of an all-gather or gather, with `local` in
/// slot `me`. The other slots are left as the recycler hands them out: the
/// collective's receives overwrite every one of them.
fn slots(me: usize, g: usize, local: &[f32]) -> Vec<f32> {
    let n = local.len();
    let mut out = tensor::recycler::take(n * g);
    out[me * n..(me + 1) * n].copy_from_slice(local);
    out
}

/// One member's resolved schedule: its steps (peers as world ranks) and the
/// operator `Combine` receives apply.
pub(crate) struct StepList {
    pub steps: Vec<Step>,
    pub combine: Combine,
}

/// What a backend supplies to [`run_collective`]: its log, and how it
/// interprets a step list whose op and link records are already written.
pub(crate) trait Backend: Communicator {
    fn log(&self) -> &RefCell<CommLog>;

    /// Interprets `list` over `buf` before returning.
    fn run_steps(&self, list: &StepList, buf: &mut [f32]);
}

/// [`Communicator::collective`] for every backend: step list → op event →
/// log records → interpret. Record order is part of the log contract:
/// a broadcast records its links, then the op; everything else the op, then
/// its links; a barrier its own op, then an empty reduce and broadcast.
///
/// When a metrics registry is active on the calling thread, the time spent
/// interpreting the steps feeds the `wait_ns` histogram of the collective's
/// kind (a barrier's parts count as their own reduce and broadcast).
pub(crate) fn run_collective<B: Backend>(
    b: &B,
    coll: Coll,
    group: &Group,
    buf: &mut [f32],
    algo: CollAlgo,
) {
    let g = group.len();
    let me = my_index(b.rank(), group);
    let op = coll.op();
    if coll == Coll::Barrier {
        // The nested op events collapse into this one (the tracer's depth
        // guard), so both backends emit one event per logical collective.
        return traced_op(b.log(), op, algo, group, 0, || {
            record_group_op(&mut b.log().borrow_mut(), op, algo, group, 0);
            for part in Coll::BARRIER_PARTS {
                run_collective(b, part, group, &mut [], b.algo(part.op(), g, 0));
            }
        });
    }
    let n = coll.payload_len(buf.len(), g);
    let mut list = StepList {
        steps: coll_steps(coll, algo, g, me, n),
        combine: coll.combine(),
    };
    for step in &mut list.steps {
        if let Step::Send { peer, .. } | Step::Recv { peer, .. } = step {
            *peer = group.rank_of(*peer);
        }
    }
    traced_op(b.log(), op, algo, group, n, || {
        let mut log = b.log().borrow_mut();
        if op != CommOp::Broadcast {
            record_group_op(&mut log, op, algo, group, n);
        }
        for step in &list.steps {
            if let Step::Send { peer, range } = step {
                let p = b.world_size();
                assert!(*peer < p, "send to rank {peer} out of range (p={p})");
                log.record_link(b.rank(), *peer, range.len(), Some(op));
            }
        }
        if op == CommOp::Broadcast {
            record_group_op(&mut log, op, algo, group, n);
        }
        drop(log);
        let started = metrics::device_active().then(Instant::now);
        b.run_steps(&list, buf);
        if let Some(t0) = started {
            metrics::comm_wait_ns(op.name(), t0.elapsed().as_nanos() as u64);
        }
    });
}

/// The trace metadata of one collective participation.
fn op_meta(
    op: CommOp,
    algo: CollAlgo,
    group: &Group,
    elems: usize,
    wire_elems: usize,
) -> trace::OpMeta {
    let (group_size, group_first, group_stride) = group_shape(group);
    trace::OpMeta {
        kind: op.name(),
        group_size,
        group_first,
        group_stride,
        elems,
        wire_elems,
        axis: group.label(),
        algo: algo.name(),
    }
}

/// Runs one collective under a trace op event (when a collector is active;
/// untraced runs pay a single thread-local read). The log's O(1) total of
/// sent elements is sampled before and after to attribute wire traffic to
/// the event.
fn traced_op(
    log: &RefCell<CommLog>,
    op: CommOp,
    algo: CollAlgo,
    group: &Group,
    elems: usize,
    run: impl FnOnce(),
) {
    if !trace::is_active() {
        return run();
    }
    let wire_before = log.borrow().total_link_elems();
    let timer = trace::op_begin();
    run();
    let wire_elems = log.borrow().total_link_elems() - wire_before;
    trace::op_end(timer, op_meta(op, algo, group, elems, wire_elems));
}
