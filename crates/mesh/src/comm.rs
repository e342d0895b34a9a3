//! The pluggable collective surface.
//!
//! Every distributed layer in the workspace (`summa`, `megatron`,
//! `optimus-core`, `hybrid`) speaks to its devices through this trait
//! rather than a concrete context, so the same program runs on two backends:
//!
//! * [`crate::DeviceCtx`] — the **live** backend: one OS thread per device,
//!   real data movement over channels, pooled per-hop scratch buffers.
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

use crate::algo::{CollAlgo, CollPlan, CollTables};
use crate::group::Group;
use crate::nonblocking::{post_records, PendingColl};
use crate::schedule::{chunk, coll_steps, Coll, Combine, Step};
use crate::stats::{group_shape, record_group_op, CommLog, CommOp};
use crate::wire::{packed_len, WireDtype};
use std::cell::RefCell;

/// A collective's working buffer — and with it, when the collective runs.
pub enum CollBuf<'a> {
    /// Borrowed: the collective completes before the call returns.
    Now(&'a mut [f32]),
    /// Owned: the collective is posted and the returned [`PendingColl`]
    /// yields the buffer back.
    Post(Vec<f32>),
}

impl CollBuf<'_> {
    fn len(&self) -> usize {
        match self {
            CollBuf::Now(data) => data.len(),
            CollBuf::Post(data) => data.len(),
        }
    }
}

/// A device's handle to the communication fabric: identity, point-to-point
/// transfers, collectives, and the per-device communication log.
///
/// Every collective goes through the one required entry,
/// [`Communicator::collective`]; the named methods are written once here
/// and only resolve a [`CollPlan`] and lay out the working buffer.
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

    /// The selection tables of the run this device belongs to.
    fn tables(&self) -> &CollTables;

    /// The one selection lookup: this run's [`crate::AlgoTable`] and
    /// [`crate::WireTable`], both keyed on `(op, group size, payload
    /// bytes)`. `elems` is the logical payload in `f32` elements. Override
    /// one half with struct-update syntax:
    /// `CollPlan { wire, ..comm.plan(op, g, n) }`.
    fn plan(&self, op: CommOp, group_size: usize, elems: usize) -> CollPlan {
        let tables = self.tables();
        CollPlan {
            algo: tables.algo.select(op, group_size, elems * 4),
            wire: tables.wire.select(op, group_size, elems * 4),
        }
    }

    /// Runs `coll` over `group` under an explicit `plan`: logs the op and
    /// this member's sends, then interprets its step list
    /// ([`crate::coll_steps`]) over the working buffer — moving the bytes on
    /// the live backend, nothing more on the trace-only one. Returns the
    /// pending handle for [`CollBuf::Post`], `None` for [`CollBuf::Now`].
    ///
    /// The working buffer is the payload itself, except for
    /// [`Coll::AllGather`] and [`Coll::Gather`], where it is the `g`-slot
    /// output with this member's block already in its slot. Under a 16-bit
    /// wire dtype every hop moves the packed half-length buffer: each wire
    /// crossing costs a reduction at most one rounding error per element
    /// (partial sums accumulate in f32), pure movement delivers the
    /// once-quantized payload (re-packing is lossless), and a member's own
    /// data never crosses the wire — so compressed all-reduce results are
    /// **not** bitwise-equal across members.
    fn collective(
        &self,
        coll: Coll,
        group: &Group,
        buf: CollBuf<'_>,
        plan: CollPlan,
    ) -> Option<PendingColl<'_>>;

    /// Broadcast from group index `root`. Non-root buffers must be
    /// pre-sized to the root's payload length on both backends (no
    /// collective resizes the buffer).
    fn broadcast(&self, group: &Group, root: usize, data: &mut [f32]) {
        let plan = self.plan(CommOp::Broadcast, group.len(), data.len());
        self.collective(Coll::Broadcast { root }, group, CollBuf::Now(data), plan);
    }

    /// Sum-reduce to group index `root`. Non-root buffers hold partial
    /// sums afterwards and must be treated as scratch.
    fn reduce(&self, group: &Group, root: usize, data: &mut [f32]) {
        let plan = self.plan(CommOp::Reduce, group.len(), data.len());
        self.collective(Coll::Reduce { root }, group, CollBuf::Now(data), plan);
    }

    /// Non-blocking broadcast: posts the transfer and returns a
    /// [`PendingColl`] immediately; `wait()` runs it and yields the buffer.
    /// Non-root buffers must be pre-sized to the root's payload length (the
    /// logical size is recorded at post). Between post and wait, callers
    /// must not issue collectives sharing a (src, dst) pair with the
    /// in-flight tree. Always the tree schedule; wire precision from the
    /// run's tables.
    fn ibroadcast(&self, group: &Group, root: usize, buf: Vec<f32>) -> PendingColl<'_> {
        let plan = CollPlan {
            algo: CollAlgo::Tree,
            ..self.plan(CommOp::Broadcast, group.len(), buf.len())
        };
        self.collective(Coll::Broadcast { root }, group, CollBuf::Post(buf), plan)
            .expect("a posted collective returns its handle")
    }

    /// Non-blocking sum-reduce; see [`Communicator::ibroadcast`] for the
    /// pending-collective contract. Only the root's waited buffer holds the
    /// full sum.
    fn ireduce(&self, group: &Group, root: usize, buf: Vec<f32>) -> PendingColl<'_> {
        let plan = CollPlan {
            algo: CollAlgo::Tree,
            ..self.plan(CommOp::Reduce, group.len(), buf.len())
        };
        self.collective(Coll::Reduce { root }, group, CollBuf::Post(buf), plan)
            .expect("a posted collective returns its handle")
    }

    /// All-reduce (sum): every member ends with the element-wise sum.
    fn all_reduce(&self, group: &Group, data: &mut [f32]) {
        let plan = self.plan(CommOp::AllReduce, group.len(), data.len());
        self.collective(Coll::AllReduce, group, CollBuf::Now(data), plan);
    }

    /// All-reduce (max) — for the distributed log-sum-exp.
    fn all_reduce_max(&self, group: &Group, data: &mut [f32]) {
        let plan = self.plan(CommOp::AllReduce, group.len(), data.len());
        self.collective(Coll::AllReduceMax, group, CollBuf::Now(data), plan);
    }

    /// All-gather: concatenation of every member's equal-length `local` in
    /// group order.
    fn all_gather(&self, group: &Group, local: &[f32]) -> Vec<f32> {
        let plan = self.plan(CommOp::AllGather, group.len(), local.len());
        let mut out = slots(my_index(self.rank(), group), group.len(), local);
        self.collective(Coll::AllGather, group, CollBuf::Now(&mut out), plan);
        out
    }

    /// Reduce-scatter (sum): returns this member's chunk (`n·i/g`
    /// boundaries) of the summed vector; `data` ends as scratch.
    fn reduce_scatter(&self, group: &Group, data: &mut [f32]) -> Vec<f32> {
        let plan = self.plan(CommOp::ReduceScatter, group.len(), data.len());
        let mine = chunk(data.len(), group.len(), my_index(self.rank(), group));
        self.collective(Coll::ReduceScatter, group, CollBuf::Now(data), plan);
        data[mine].to_vec()
    }

    /// Gather every member's equal-length `local` to group index `root`, in
    /// group order; non-roots get an empty vector. Always full-width f32.
    fn gather(&self, group: &Group, root: usize, local: &[f32]) -> Vec<f32> {
        let plan = CollPlan {
            algo: CollAlgo::Ring,
            wire: WireDtype::F32,
        };
        let me = my_index(self.rank(), group);
        let mut out = slots(me, group.len(), local);
        self.collective(Coll::Gather { root }, group, CollBuf::Now(&mut out), plan);
        if me == root {
            out
        } else {
            Vec::new()
        }
    }

    /// Barrier over a group (empty reduce to index 0 + empty broadcast).
    fn barrier(&self, group: &Group) {
        let plan = CollPlan {
            algo: CollAlgo::Tree,
            wire: WireDtype::F32,
        };
        self.collective(Coll::Barrier, group, CollBuf::Now(&mut []), plan);
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
/// slot `me`.
fn slots(me: usize, g: usize, local: &[f32]) -> Vec<f32> {
    let n = local.len();
    let mut out = vec![0.0f32; n * g];
    out[me * n..(me + 1) * n].copy_from_slice(local);
    out
}

/// One member's resolved schedule: its steps (peers as world ranks), the
/// wire precision of every hop and the operator `Combine` receives apply.
pub(crate) struct StepList {
    pub steps: Vec<Step>,
    pub wire: WireDtype,
    pub combine: Combine,
}

/// What a backend supplies to [`run_collective`]: its log, and the two ways
/// of interpreting a step list whose op and link records are already
/// written.
pub(crate) trait Backend: Communicator {
    fn log(&self) -> &RefCell<CommLog>;

    /// Interprets `list` over `buf` before returning.
    fn run_steps(&self, list: &StepList, buf: &mut [f32]);

    /// Takes `list` and `buf`; the returned handle yields `buf` once the
    /// steps have run. `traced` is the post-time trace bookkeeping.
    fn post_steps(
        &self,
        list: StepList,
        buf: Vec<f32>,
        op: CommOp,
        traced: Option<(u64, trace::OpMeta)>,
    ) -> PendingColl<'_>;
}

/// [`Communicator::collective`] for every backend: step list → op event →
/// log records → interpret. Record order is part of the log contract:
/// a broadcast records its links, then the op; everything else the op, then
/// its links; a barrier its own op, then an empty reduce and broadcast.
pub(crate) fn run_collective<'b, B: Backend>(
    b: &'b B,
    coll: Coll,
    group: &Group,
    buf: CollBuf<'_>,
    plan: CollPlan,
) -> Option<PendingColl<'b>> {
    let g = group.len();
    let me = my_index(b.rank(), group);
    let op = coll.op();
    if coll == Coll::Barrier {
        // The nested op events collapse into this one (the tracer's depth
        // guard), so both backends emit one event per logical collective.
        traced_op(b.log(), op, plan, group, 0, || {
            record_group_op(&mut b.log().borrow_mut(), op, plan.algo, group, 0);
            for part in Coll::BARRIER_PARTS {
                let plan = b.plan(part.op(), g, 0);
                run_collective(b, part, group, CollBuf::Now(&mut []), plan);
            }
        });
        return None;
    }
    let n = coll.payload_len(buf.len(), g);
    let mut list = StepList {
        steps: coll_steps(coll, plan.algo, g, me, n),
        wire: plan.wire,
        combine: coll.combine(),
    };
    for step in &mut list.steps {
        if let Step::Send { peer, .. } | Step::Recv { peer, .. } = step {
            *peer = group.rank_of(*peer);
        }
    }
    let record = || {
        let mut log = b.log().borrow_mut();
        if op != CommOp::Broadcast {
            record_group_op(&mut log, op, plan.algo, group, n);
        }
        let (mut wire_elems, mut logical_elems) = (0, 0);
        for step in &list.steps {
            if let Step::Send { peer, range } = step {
                let p = b.world_size();
                assert!(*peer < p, "send to rank {peer} out of range (p={p})");
                let packed = packed_len(range.len(), plan.wire);
                log.record_link(b.rank(), *peer, packed);
                wire_elems += packed;
                logical_elems += range.len();
            }
        }
        if op == CommOp::Broadcast {
            record_group_op(&mut log, op, plan.algo, group, n);
        }
        metrics::device_counter_add("coll_wire_bytes", 4 * wire_elems as u64);
        metrics::device_counter_add("coll_logical_bytes", 4 * logical_elems as u64);
    };
    match buf {
        CollBuf::Now(data) => {
            traced_op(b.log(), op, plan, group, n, || {
                record();
                b.run_steps(&list, data);
            });
            None
        }
        CollBuf::Post(data) => {
            let traced = post_records(b.log(), op, plan, group, n, record);
            Some(b.post_steps(list, data, op, traced))
        }
    }
}

/// The trace metadata of one collective participation.
pub(crate) fn op_meta(
    op: CommOp,
    plan: CollPlan,
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
        algo: plan.algo.name(),
        wire: plan.wire.name(),
    }
}

/// Runs one collective under a trace op event (when a collector is active;
/// untraced runs pay a single thread-local read). The log's O(1) total of
/// sent elements is sampled before and after to attribute wire traffic to
/// the event.
fn traced_op(
    log: &RefCell<CommLog>,
    op: CommOp,
    plan: CollPlan,
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
    trace::op_end(timer, op_meta(op, plan, group, elems, wire_elems));
}
