//! Non-blocking collectives: `ibroadcast` / `ireduce` on the live backend.
//!
//! Posting returns a [`PendingColl`] immediately and [`PendingColl::wait`]
//! hands the finished buffer back. This is the mechanism behind SUMMA's
//! double-buffered panel prefetch (`summa::workspace`): iteration `l+1`'s
//! broadcasts are posted before iteration `l`'s GEMM runs.
//!
//! # Design
//!
//! * **A posted collective is device-thread state.** Each live device keeps
//!   a FIFO of posted step lists and a list of finished ones in a `RefCell`
//!   on its [`DeviceCtx`]; a handle borrows the context it was posted on.
//!   A device is one thread for communication as for compute: no other
//!   thread ever runs its transfers.
//! * **`wait()` is where a posted transfer runs.** It runs queued tasks on
//!   the calling thread, in post order, until its own is done; a task
//!   finished on behalf of a later-posted handle is parked for its own
//!   `wait`. Strict post order keeps the fabric's per-(src, dst) FIFO
//!   matching consistent across members. What overlaps the caller's compute
//!   is its peers' progress: their sends land in this device's mailbox
//!   without blocking.
//! * **Dropped handles still complete.** A task whose handle was dropped
//!   unwaited runs when a later handle waits, or on the device thread after
//!   its program returns and before its context closes
//!   ([`DeviceCtx::run_posted`]), so peers blocked on its transfers are fed.
//!   A device that is unwinding abandons its queue; its peers see it
//!   disconnect.
//! * **The post is pure bookkeeping.** The posting thread records the op,
//!   its full link schedule and the bytes-on-wire counters *at post time*
//!   (`comm::run_collective` — the same code that logs a blocking call), so
//!   the live op/link stream is byte-identical to the blocking path and to
//!   the dry-run backend. Execution only moves payloads.
//! * **Same steps, same executor, same pool.** A task carries the step list
//!   ([`crate::coll_steps`]) its blocking form would run and hands it to the
//!   same `collectives::execute`, drawing send buffers from and recycling
//!   receives into the device's one `BufferPool` — so `ireduce` accumulates
//!   incoming buffers in exactly the blocking receive order and overlapped
//!   results are **bitwise identical** to the serial reference.
//!
//! # Discipline
//!
//! The fabric matches messages per (sender, receiver) pair in FIFO order,
//! so a pending collective must not race a blocking transfer on the same
//! pair: between post and `wait`, do not issue another collective that
//! shares a (src, dst) edge with the in-flight tree. SUMMA is safe by
//! construction — row and column groups of a 2D mesh intersect only at the
//! caller, and a binomial tree never self-sends. Posts on the *same* group
//! are always safe (the queue runs them in a globally consistent order).
//!
//! # Tracing
//!
//! When a collector is active, the post emits a `comm.pending` span and
//! `wait` a `comm.wait` span; the collective's op event is emitted at wait
//! time covering `[post, completion]`. Under the virtual clock the event is
//! priced from the α-β model but only advances the clock to
//! `max(now, post + price)` — time hidden behind compute costs nothing,
//! which is how a dry run prices overlap (see `perf`).

use crate::collectives::execute;
use crate::comm::{op_meta, StepList};
use crate::fabric::DeviceCtx;
use crate::group::Group;
use crate::stats::{CommLog, CommOp};
use crate::CollPlan;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::time::Instant;

/// One posted collective: the steps fixed at post and its working buffer.
struct CollTask {
    /// Post-order ticket tying this task to its [`PendingColl`] handle.
    id: u64,
    list: StepList,
    buf: Vec<f32>,
}

/// A device's posted collectives, run on its own thread in post order.
#[derive(Default)]
pub(crate) struct PostQueue {
    tasks: VecDeque<CollTask>,
    /// Finished tasks awaiting pickup by their handle's `wait`. Stays tiny
    /// (SUMMA keeps at most one panel in flight per group), so a linear
    /// scan beats any per-op channel allocation.
    done: Vec<(u64, Vec<f32>, Instant)>,
    next_id: u64,
}

enum PendingInner<'a> {
    /// Completed at post time (trivial group, or the dry-run backend).
    Ready(Vec<f32>),
    /// Queued on `ctx`'s posted-collective queue under ticket `id`.
    Live {
        id: u64,
        posted: Instant,
        ctx: &'a DeviceCtx,
    },
}

/// A posted non-blocking collective. [`PendingColl::wait`] runs the transfer
/// (and any posted before it) and returns the buffer: the received panel for
/// `ibroadcast`, the (partial or full) sum for `ireduce`.
pub struct PendingColl<'a> {
    inner: PendingInner<'a>,
    /// Collective kind, labeling the metrics wait histograms.
    op: CommOp,
    /// Trace bookkeeping captured at post: (post timestamp, op metadata).
    traced: Option<(u64, trace::OpMeta)>,
}

impl PendingColl<'_> {
    pub(crate) fn ready(op: CommOp, buf: Vec<f32>, traced: Option<(u64, trace::OpMeta)>) -> Self {
        PendingColl {
            inner: PendingInner::Ready(buf),
            op,
            traced,
        }
    }

    /// Completes the collective and returns its buffer.
    ///
    /// When a metrics registry is active on this thread, two histograms are
    /// fed per completed live collective: `wait_ns` (how long this call
    /// took — the transfer runs inside it) and `inflight_ns`
    /// (post→completion), both labeled by the collective kind.
    pub fn wait(self) -> Vec<f32> {
        let _guard = trace::span_guard("comm.wait");
        match self.inner {
            PendingInner::Ready(buf) => {
                if let Some((t0, meta)) = self.traced {
                    trace::op_async_end(t0, None, meta);
                }
                buf
            }
            PendingInner::Live { id, posted, ctx } => {
                let wait_from = if metrics::device_active() {
                    Some(Instant::now())
                } else {
                    None
                };
                let (buf, done_at) = ctx.complete(id);
                if let Some(w0) = wait_from {
                    let kind = self.op.name();
                    metrics::comm_wait_ns(kind, w0.elapsed().as_nanos() as u64);
                    metrics::comm_inflight_ns(
                        kind,
                        done_at.saturating_duration_since(posted).as_nanos() as u64,
                    );
                }
                if let Some((t0, meta)) = self.traced {
                    let t1 = t0 + done_at.duration_since(posted).as_nanos() as u64;
                    trace::op_async_end(t0, Some(t1), meta);
                }
                buf
            }
        }
    }
}

/// Runs `record` (a pending collective's op + link records) at post time
/// and, when a collector is active, captures the op metadata for the
/// wait-side event. The log records go inside a `comm.pending` span so
/// traces show the post.
pub(crate) fn post_records(
    log: &RefCell<CommLog>,
    op: CommOp,
    plan: CollPlan,
    group: &Group,
    elems: usize,
    record: impl FnOnce(),
) -> Option<(u64, trace::OpMeta)> {
    if !trace::is_active() {
        record();
        return None;
    }
    let wire_before = log.borrow().total_link_elems();
    trace::span("comm.pending", record);
    let wire_elems = log.borrow().total_link_elems() - wire_before;
    Some((trace::now_ns(), op_meta(op, plan, group, elems, wire_elems)))
}

impl DeviceCtx {
    /// Queues an already-logged step list; it runs at a `wait` or in
    /// [`DeviceCtx::run_posted`] (see the module docs). A member with
    /// nothing to do (a trivial group) completes at once.
    pub(crate) fn post(
        &self,
        list: StepList,
        buf: Vec<f32>,
        op: CommOp,
        traced: Option<(u64, trace::OpMeta)>,
    ) -> PendingColl<'_> {
        if list.steps.is_empty() {
            return PendingColl::ready(op, buf, traced);
        }
        let posted = Instant::now();
        let mut q = self.posted.borrow_mut();
        let id = q.next_id;
        q.next_id += 1;
        q.tasks.push_back(CollTask { id, list, buf });
        PendingColl {
            inner: PendingInner::Live {
                id,
                posted,
                ctx: self,
            },
            op,
            traced,
        }
    }

    /// Runs the oldest queued task on this thread and returns its completion.
    fn run_next(&self) -> Option<(u64, Vec<f32>, Instant)> {
        let mut task = self.posted.borrow_mut().tasks.pop_front()?;
        execute(
            self.rank(),
            &self.boxes,
            &mut self.pool.borrow_mut(),
            &task.list,
            &mut task.buf,
        );
        Some((task.id, task.buf, Instant::now()))
    }

    /// Runs queued tasks in post order until the one ticketed `id` is done.
    fn complete(&self, id: u64) -> (Vec<f32>, Instant) {
        loop {
            {
                let mut q = self.posted.borrow_mut();
                if let Some(pos) = q.done.iter().position(|e| e.0 == id) {
                    let (_, buf, at) = q.done.swap_remove(pos);
                    return (buf, at);
                }
            }
            let (done, buf, at) = self
                .run_next()
                .expect("a pending collective is neither queued nor finished");
            if done == id {
                return (buf, at);
            }
            self.posted.borrow_mut().done.push((done, buf, at));
        }
    }

    /// Runs every task still queued: those whose handles were dropped
    /// without `wait()`, whose transfers peers may be blocked on. The
    /// launcher calls this after the device program returns.
    pub(crate) fn run_posted(&self) {
        while self.run_next().is_some() {}
    }
}

#[cfg(test)]
mod tests {
    use crate::{Communicator, Group, Mesh};

    #[test]
    fn ibroadcast_matches_blocking_for_every_root() {
        for p in [2usize, 3, 4, 7] {
            for root in 0..p {
                let out = Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let buf = if ctx.rank() == root {
                        (0..5).map(|i| (root * 10 + i) as f32).collect()
                    } else {
                        vec![0.0f32; 5]
                    };
                    ctx.ibroadcast(&g, root, buf).wait()
                });
                let expect: Vec<f32> = (0..5).map(|i| (root * 10 + i) as f32).collect();
                for (r, d) in out.iter().enumerate() {
                    assert_eq!(d, &expect, "p={p} root={root} rank={r}");
                }
            }
        }
    }

    #[test]
    fn ireduce_sums_to_root() {
        for p in [2usize, 3, 4, 7] {
            for root in [0, p - 1] {
                let out = Mesh::run(p, |ctx| {
                    let g = Group::world(p);
                    let buf = vec![ctx.rank() as f32 + 1.0; 4];
                    ctx.ireduce(&g, root, buf).wait()
                });
                let expected = (p * (p + 1) / 2) as f32;
                assert_eq!(out[root], vec![expected; 4], "p={p} root={root}");
            }
        }
    }

    #[test]
    fn ireduce_is_bitwise_identical_to_blocking_reduce() {
        // Float addition is not associative: the overlapped path must
        // accumulate in exactly the blocking order. Use payloads that
        // expose reordering (catastrophic cancellation candidates).
        for p in [3usize, 4, 7, 8] {
            let blocking = Mesh::run(p, |ctx| {
                let g = Group::world(p);
                let mut buf: Vec<f32> = (0..6)
                    .map(|i| (0.1 + ctx.rank() as f32 * 1e-3).powi(i % 3 + 1))
                    .collect();
                ctx.reduce(&g, 0, &mut buf);
                buf
            });
            let pending = Mesh::run(p, |ctx| {
                let g = Group::world(p);
                let buf: Vec<f32> = (0..6)
                    .map(|i| (0.1 + ctx.rank() as f32 * 1e-3).powi(i % 3 + 1))
                    .collect();
                ctx.ireduce(&g, 0, buf).wait()
            });
            assert_eq!(
                blocking[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                pending[0].iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "p={p}"
            );
        }
    }

    #[test]
    fn two_pending_collectives_complete_in_post_order() {
        let out = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let first = if ctx.rank() == 0 {
                vec![1.0f32; 3]
            } else {
                vec![0.0f32; 3]
            };
            let second = if ctx.rank() == 0 {
                vec![2.0f32; 3]
            } else {
                vec![0.0f32; 3]
            };
            let p1 = ctx.ibroadcast(&g, 0, first);
            let p2 = ctx.ibroadcast(&g, 0, second);
            (p1.wait(), p2.wait())
        });
        for (a, b) in out {
            assert_eq!(a, vec![1.0; 3]);
            assert_eq!(b, vec![2.0; 3]);
        }
    }

    #[test]
    fn waiting_out_of_post_order_still_completes() {
        // A wait must run earlier tasks first (executions are strictly
        // FIFO), even when the caller waits the later handle before the
        // earlier one.
        let out = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let mk = |v: f32| {
                if ctx.rank() == 0 {
                    vec![v; 3]
                } else {
                    vec![0.0f32; 3]
                }
            };
            let p1 = ctx.ibroadcast(&g, 0, mk(1.0));
            let p2 = ctx.ibroadcast(&g, 0, mk(2.0));
            let b = p2.wait();
            let a = p1.wait();
            (a, b)
        });
        for (a, b) in out {
            assert_eq!(a, vec![1.0; 3]);
            assert_eq!(b, vec![2.0; 3]);
        }
    }

    #[test]
    fn pending_overlaps_compute_between_post_and_wait() {
        // Compute between post and wait; result must be unaffected.
        let out = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let buf = if ctx.rank() == 2 {
                vec![5.0f32; 64]
            } else {
                vec![0.0f32; 64]
            };
            let pending = ctx.ibroadcast(&g, 2, buf);
            let mut acc = 0.0f32;
            for i in 0..10_000 {
                acc += (i as f32).sqrt();
            }
            assert!(acc > 0.0);
            pending.wait()
        });
        for d in out {
            assert_eq!(d, vec![5.0; 64]);
        }
    }

    #[test]
    fn pending_log_matches_blocking_log() {
        // Op and link streams recorded at post time must be byte-identical
        // to the blocking collectives' streams, rank by rank.
        let run = |pending: bool| {
            Mesh::run_with_logs(4, move |ctx| {
                let g = Group::world(4);
                let row = Group::new(vec![ctx.rank() / 2 * 2, ctx.rank() / 2 * 2 + 1]);
                let buf = vec![ctx.rank() as f32; 8];
                if pending {
                    let b = ctx.ibroadcast(&g, 1, buf).wait();
                    let _ = ctx.ireduce(&row, 0, b).wait();
                } else {
                    let mut b = buf;
                    ctx.broadcast(&g, 1, &mut b);
                    ctx.reduce(&row, 0, &mut b);
                }
            })
            .1
        };
        let blocking = run(false);
        let pending = run(true);
        for (rank, (b, p)) in blocking.iter().zip(&pending).enumerate() {
            assert_eq!(b.ops, p.ops, "op stream rank {rank}");
            assert_eq!(b.links, p.links, "link stream rank {rank}");
        }
    }

    #[test]
    fn posted_collectives_draw_from_the_device_pool() {
        let fresh = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let mut buf = vec![1.0f32; 256];
            // A cold device's first posted send misses its own pool.
            buf = ctx.ibroadcast(&g, 0, buf).wait();
            let cold = ctx.fresh_allocs();
            // Root 0 sends the broadcast and receives the reduce over the
            // same tree, so every device's buffers balance per round.
            let round = |buf: Vec<f32>| {
                let mut ring = vec![1.0f32; 256];
                ctx.all_reduce(&g, &mut ring);
                let buf = ctx.ibroadcast(&g, 0, buf).wait();
                ctx.ireduce(&g, 0, buf).wait()
            };
            for _ in 0..3 {
                buf = round(buf);
            }
            ctx.reset_pool_stats();
            for _ in 0..10 {
                buf = round(buf);
            }
            (cold, ctx.fresh_allocs())
        });
        assert!(fresh[0].0 > 0, "the root's first post must miss its pool");
        assert!(fresh.iter().all(|f| f.1 == 0), "steady state: {fresh:?}");
    }

    #[test]
    #[should_panic]
    fn wait_after_peer_death_panics() {
        Mesh::run(2, |ctx| {
            if ctx.rank() == 1 {
                panic!("dying before sending");
            }
            let g = Group::world(2);
            ctx.ibroadcast(&g, 1, vec![0.0f32; 4]).wait()
        });
    }
}
