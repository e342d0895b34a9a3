//! Non-blocking collectives: `ibroadcast` / `ireduce` on the live backend.
//!
//! Posting returns a [`PendingColl`] immediately; the transfer proceeds in
//! the background while the posting thread computes, and
//! [`PendingColl::wait`] hands the finished buffer back. This is the
//! mechanism behind SUMMA's double-buffered panel prefetch (`summa::ops`):
//! iteration `l+1`'s broadcasts move through the fabric while iteration
//! `l`'s GEMM runs.
//!
//! # Design
//!
//! * **A shared FIFO task queue per device**, drained by two cooperating
//!   executors: a lazily-spawned background **progress thread** (named
//!   `mesh-progress-{rank}`, joined when the device context drops), and the
//!   waiting device thread itself. `wait()` first checks whether its
//!   collective already completed; otherwise it **steals** queued tasks from
//!   the front and runs them inline. A `running` flag serializes executions
//!   so tasks complete strictly in post order either way (the fabric
//!   matches messages per (src, dst) pair in FIFO order, so two executors
//!   must never interleave pops).
//! * **The progress thread only engages when it can help.** A post wakes
//!   the worker only when the host has spare cores beyond the device
//!   threads (`available_parallelism() > mesh size`); on a saturated or
//!   single-core host every wakeup is a scheduler round-trip that steals
//!   time from compute, so posts stay silent and the wait-side steal
//!   completes everything with no thread ping-pong. The worker still
//!   drains whatever is queued at shutdown, so abandoned handles cannot
//!   starve peers.
//! * **The post is pure bookkeeping.** The posting thread records the op,
//!   its full link schedule and the bytes-on-wire counters *at post time*
//!   (`comm::run_collective` — the same code that logs a blocking call), so
//!   the live op/link stream is byte-identical to the blocking path and to
//!   the dry-run backend. The executors only move payloads.
//! * **Same steps, same executor.** A task carries the step list
//!   ([`crate::coll_steps`]) its blocking form would run, and both executors
//!   hand it to the same `collectives::execute` — so `ireduce` accumulates
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
//! are always safe (the queue drains them in a globally consistent order).
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
use crate::fabric::{DeviceCtx, Mailbox};
use crate::group::Group;
use crate::pool::BufferPool;
use crate::stats::{CommLog, CommOp};
use crate::CollPlan;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

/// One posted collective, executed by whichever executor claims it first.
pub(crate) struct CollTask {
    /// Post-order ticket tying this task to its [`PendingColl`] handle.
    id: u64,
    /// The steps to run, fixed at post.
    list: StepList,
    buf: Vec<f32>,
}

/// The per-device pending-collective state shared between the device thread
/// and its progress thread.
pub(crate) struct ExecShared {
    rank: usize,
    boxes: Vec<Arc<Mailbox>>,
    /// Wake the worker on every post. False when the host has no spare
    /// cores beyond the device threads: the wakeup would preempt compute
    /// for zero parallelism, so the wait-side steal runs everything.
    eager: bool,
    queue: Mutex<TaskQueue>,
    /// Wakes `complete()` waiters parked while another executor is
    /// mid-task. Signalled only when `TaskQueue::task_waiters > 0`, so the
    /// steady-state steal path never pays a futex syscall.
    cv_task: Condvar,
    /// Wakes the progress thread: posts (eager mode only) and shutdown.
    cv_worker: Condvar,
    /// Scratch for send copies and consumed receive buffers, so
    /// steady-state pending traffic is allocation-free (same property as
    /// the blocking path). Accesses are already serialized by the
    /// `running` protocol; the mutex only satisfies `Sync`.
    pool: Mutex<BufferPool>,
}

struct TaskQueue {
    tasks: VecDeque<CollTask>,
    /// Finished tasks awaiting pickup by their handle's `wait`. Stays tiny
    /// (SUMMA keeps at most one panel in flight per group), so a linear
    /// scan beats any per-op channel allocation.
    done: Vec<(u64, Vec<f32>, Instant)>,
    next_id: u64,
    /// An executor is mid-task. While set, no other executor may pop: task
    /// executions are strictly serialized to keep (src, dst) FIFO matching.
    running: bool,
    /// Threads parked on `cv_task` inside `complete()`.
    task_waiters: usize,
    shutdown: bool,
}

fn qlock(shared: &ExecShared) -> MutexGuard<'_, TaskQueue> {
    // Ignore poison: the queue is consistent at every panic site, and
    // teardown must proceed while peers unwind.
    shared.queue.lock().unwrap_or_else(|e| e.into_inner())
}

/// Clears `running` and wakes the other executor even on unwind — a steal
/// that panics (peer death) must not leave the worker blocked forever.
struct RunningGuard<'a>(&'a ExecShared);

impl Drop for RunningGuard<'_> {
    fn drop(&mut self) {
        let (wake_task, wake_worker) = {
            let mut q = qlock(self.0);
            q.running = false;
            (
                q.task_waiters > 0,
                // The worker re-checks the queue after every own task, so
                // it only needs a nudge when *another* executor finishes
                // while it is parked with claimable (or shutdown) work.
                (self.0.eager && !q.tasks.is_empty()) || q.shutdown,
            )
        };
        if wake_task {
            self.0.cv_task.notify_all();
        }
        if wake_worker {
            self.0.cv_worker.notify_one();
        }
    }
}

/// Executes one task. Caller holds the `running` claim and is responsible
/// for parking the returned completion in `TaskQueue::done` (or returning it
/// directly if it is the caller's own).
fn run_task(shared: &ExecShared, mut task: CollTask) -> (u64, Vec<f32>, Instant) {
    let mut pool = shared.pool.lock().unwrap_or_else(|e| e.into_inner());
    execute(
        shared.rank,
        &shared.boxes,
        &mut pool,
        &task.list,
        &mut task.buf,
    );
    (task.id, task.buf, Instant::now())
}

/// Handle to a device's progress thread, stored in its [`DeviceCtx`].
pub(crate) struct Progress {
    shared: Arc<ExecShared>,
    worker: JoinHandle<()>,
}

impl Progress {
    pub(crate) fn shared(&self) -> Arc<ExecShared> {
        self.shared.clone()
    }

    /// Asks the worker to exit after draining queued tasks and returns its
    /// handle for joining.
    pub(crate) fn shutdown(self) -> JoinHandle<()> {
        qlock(&self.shared).shutdown = true;
        self.shared.cv_worker.notify_one();
        self.worker
    }
}

pub(crate) fn spawn_progress(rank: usize, boxes: Vec<Arc<Mailbox>>) -> Progress {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let shared = Arc::new(ExecShared {
        rank,
        eager: cores > boxes.len(),
        boxes,
        queue: Mutex::new(TaskQueue {
            tasks: VecDeque::new(),
            done: Vec::new(),
            next_id: 0,
            running: false,
            task_waiters: 0,
            shutdown: false,
        }),
        cv_task: Condvar::new(),
        cv_worker: Condvar::new(),
        pool: Mutex::new(BufferPool::new()),
    });
    let worker_shared = shared.clone();
    let worker = std::thread::Builder::new()
        .name(format!("mesh-progress-{rank}"))
        .spawn(move || progress_worker(worker_shared))
        .expect("spawn mesh progress thread");
    Progress { shared, worker }
}

fn progress_worker(shared: Arc<ExecShared>) {
    loop {
        let task = {
            let mut q = qlock(&shared);
            loop {
                if !q.running {
                    if let Some(t) = q.tasks.pop_front() {
                        q.running = true;
                        break Some(t);
                    }
                    if q.shutdown {
                        break None;
                    }
                }
                q = shared.cv_worker.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(task) = task else { return };
        let _claim = RunningGuard(&shared);
        let done = run_task(&shared, task);
        qlock(&shared).done.push(done);
        // The claim guard drops here, waking the waiter to pick it up.
    }
}

enum PendingInner {
    /// Completed at post time (trivial group, or the dry-run backend).
    Ready(Vec<f32>),
    /// Queued on the device's pending-collective queue under ticket `id`.
    Live {
        id: u64,
        posted: Instant,
        shared: Arc<ExecShared>,
    },
}

/// A posted non-blocking collective. [`PendingColl::wait`] blocks until the
/// transfer completes and returns the buffer: the received panel for
/// `ibroadcast`, the (partial or full) sum for `ireduce`.
pub struct PendingColl {
    inner: PendingInner,
    /// Collective kind, labeling the metrics wait histograms.
    op: CommOp,
    /// Trace bookkeeping captured at post: (post timestamp, op metadata).
    traced: Option<(u64, trace::OpMeta)>,
}

impl PendingColl {
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
    /// blocked — overlap losses) and `inflight_ns` (post→completion — what
    /// the fabric actually took), both labeled by the collective kind.
    pub fn wait(self) -> Vec<f32> {
        let _guard = trace::span_guard("comm.wait");
        match self.inner {
            PendingInner::Ready(buf) => {
                if let Some((t0, meta)) = self.traced {
                    trace::op_async_end(t0, None, meta);
                }
                buf
            }
            PendingInner::Live { id, posted, shared } => {
                let wait_from = if metrics::device_active() {
                    Some(Instant::now())
                } else {
                    None
                };
                let (buf, done_at) = complete(&shared, id);
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

/// Wait-side completion with work stealing: drain queued tasks (in post
/// order) on the calling thread until the task ticketed `my_id` is done.
/// If the progress thread got there first, the completion is already
/// parked in `TaskQueue::done` and this returns without blocking.
fn complete(shared: &ExecShared, my_id: u64) -> (Vec<f32>, Instant) {
    loop {
        let task = {
            let mut q = qlock(shared);
            loop {
                if let Some(pos) = q.done.iter().position(|e| e.0 == my_id) {
                    let (_, buf, at) = q.done.swap_remove(pos);
                    return (buf, at);
                }
                if !q.running {
                    match q.tasks.pop_front() {
                        Some(t) => {
                            q.running = true;
                            break t;
                        }
                        // Our task left the queue but never completed: the
                        // executor that claimed it died mid-transfer.
                        None => {
                            panic!("an executor died before completing a pending collective")
                        }
                    }
                }
                // The worker is mid-task; it clears `running` (and
                // notifies registered waiters) after parking each
                // completion.
                q.task_waiters += 1;
                q = shared.cv_task.wait(q).unwrap_or_else(|e| e.into_inner());
                q.task_waiters -= 1;
            }
        };
        let mine = task.id == my_id;
        let _claim = RunningGuard(shared);
        let done = run_task(shared, task);
        if mine {
            return (done.1, done.2);
        }
        qlock(shared).done.push(done);
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
    fn progress_shared(&self) -> Arc<ExecShared> {
        let mut slot = self.progress.borrow_mut();
        slot.get_or_insert_with(|| spawn_progress(self.rank(), self.boxes.clone()))
            .shared()
    }

    /// Queues an already-logged step list; the transfer proceeds in the
    /// background (see the module docs). A member with nothing to do (a
    /// trivial group) completes at once without waking the machinery.
    pub(crate) fn post(
        &self,
        list: StepList,
        buf: Vec<f32>,
        op: CommOp,
        traced: Option<(u64, trace::OpMeta)>,
    ) -> PendingColl {
        if list.steps.is_empty() {
            return PendingColl::ready(op, buf, traced);
        }
        // Capture the post instant *before* queueing the task: an executor's
        // completion instant must not precede it.
        let posted = Instant::now();
        let shared = self.progress_shared();
        let id = {
            let mut q = qlock(&shared);
            let id = q.next_id;
            q.next_id += 1;
            q.tasks.push_back(CollTask { id, list, buf });
            id
        };
        if shared.eager {
            shared.cv_worker.notify_one();
        }
        PendingColl {
            inner: PendingInner::Live { id, posted, shared },
            op,
            traced,
        }
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
        // The wait-side steal must drain earlier tasks first (executions
        // are strictly FIFO), even when the caller waits the later handle
        // before the earlier one.
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
    fn ibroadcast_steady_state_allocates_nothing_on_main_thread() {
        let fresh = Mesh::run(4, |ctx| {
            let g = Group::world(4);
            let mut buf = vec![1.0f32; 256];
            for _ in 0..3 {
                buf = ctx.ibroadcast(&g, 0, buf).wait();
            }
            ctx.reset_pool_stats();
            for _ in 0..10 {
                buf = ctx.ibroadcast(&g, 0, buf).wait();
            }
            ctx.fresh_allocs()
        });
        // The posting thread never touches its own pool for pending ops;
        // all per-hop scratch lives in the shared pending-collective pool.
        assert_eq!(fresh, vec![0; 4]);
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
