//! Persistent work-stealing compute pool for callers that own spare cores.
//!
//! # A device is one thread
//!
//! The mesh runtime runs one OS thread per simulated device, the way the
//! paper runs one process per GPU: every device executes the same program on
//! its own slice and its kernels run on *that* thread. A thread marked by
//! [`enter_device`] (which `mesh` installs on every device thread) therefore
//! runs every [`parallel_for`] / [`parallel_chunks_mut`] /
//! [`parallel_row_blocks`] call inline, task by task in index order. Nothing
//! is acquired, nobody is woken, and a device never waits on another device
//! for anything but the messages the schedule sends — so a live mesh of `p`
//! devices computes on exactly `p` threads and the single-thread rate
//! `perf::Calibration` measures is the rate a device gets.
//!
//! # Why a shared pool
//!
//! Callers that are *not* devices — `SerialModel` on the driver thread,
//! `gemm-bench` thread sweeps, `calibrate` — have the host to themselves and
//! fan out. The seed kernels spawned `available_parallelism()` scoped threads
//! on every matmul call; this module replaces that with **one**
//! lazily-initialized, process-wide pool ([`pool`]):
//!
//! * The pool owns `HW − 1` persistent worker threads (zero on a single-core
//!   host). Work is published as `Job`s on a shared injector; idle workers
//!   steal task indices from any live job via an atomic cursor, so load
//!   balances dynamically without per-task allocation.
//! * [`parallel_for`] lets the *caller* participate: it claims task indices
//!   from its own job alongside at most `min(cap − 1, workers, tasks − 1)`
//!   workers ([`with_thread_cap`] sets `cap`), and only returns once every
//!   task has finished — which is what makes lending borrowed slices to
//!   worker threads sound (see Safety below).
//!
//! # Determinism
//!
//! Callers split work so that each output element is written by exactly one
//! task, and every task computes its elements in the same order regardless of
//! which thread runs it. Pooled results are therefore **bitwise identical**
//! to the serial path; the regression tests in `tests/kernel_shapes.rs`
//! assert exactly that.
//!
//! # Safety
//!
//! [`ComputePool::run`] erases the lifetime of the task closure to hand it to
//! detached worker threads. This is sound because the call blocks until
//! `completed == tasks` (panics included — workers catch unwinds and still
//! count the task as completed), so no worker can observe the closure or its
//! borrows after `run` returns.

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// A lifetime-erased `Fn(usize)` pointer. Only dereferenced while the owning
/// [`ComputePool::run`] call is still blocked (see module-level Safety).
struct RawTask(*const (dyn Fn(usize) + Sync));
// SAFETY: the pointee is `Sync` and outlives every dereference (the
// submitting call joins all tasks before returning).
unsafe impl Send for RawTask {}
unsafe impl Sync for RawTask {}

struct JobState {
    completed: usize,
    panicked: bool,
}

/// One `parallel_for` invocation: a task cursor that caller and helping
/// workers race on, plus a completion latch the caller waits on.
struct Job {
    task: RawTask,
    tasks: usize,
    /// Next unclaimed task index; claiming is a `fetch_add`, which is the
    /// work-stealing step — whoever gets there first owns the task.
    next: AtomicUsize,
    /// Worker slots still claimable on this job (the caller's helper count).
    slots: AtomicUsize,
    state: Mutex<JobState>,
    done: Condvar,
}

impl Job {
    fn exhausted(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks
    }

    /// Claims one worker slot; `false` once the helper budget is spent.
    fn try_claim_slot(&self) -> bool {
        let mut cur = self.slots.load(Ordering::Relaxed);
        while cur > 0 {
            match self.slots.compare_exchange_weak(
                cur,
                cur - 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => cur = seen,
            }
        }
        false
    }

    /// Claims and runs task indices until the cursor is exhausted, returning
    /// how many tasks this thread ran. Panics in the task body are caught so
    /// the completion latch always fires; the caller re-raises them after
    /// joining.
    fn run_tasks(&self) -> usize {
        let mut ran = 0;
        loop {
            let i = self.next.fetch_add(1, Ordering::Relaxed);
            if i >= self.tasks {
                return ran;
            }
            ran += 1;
            // SAFETY: see module-level Safety — the submitter is still
            // blocked in `run`, so the closure borrow is live.
            let f = unsafe { &*self.task.0 };
            let ok = catch_unwind(AssertUnwindSafe(|| f(i))).is_ok();
            let mut st = self.state.lock().unwrap();
            st.completed += 1;
            if !ok {
                st.panicked = true;
            }
            if st.completed == self.tasks {
                self.done.notify_all();
            }
        }
    }

    /// Blocks until every task has completed; returns whether any panicked.
    fn join(&self) -> bool {
        let mut st = self.state.lock().unwrap();
        while st.completed < self.tasks {
            st = self.done.wait(st).unwrap();
        }
        st.panicked
    }
}

struct Shared {
    injector: Mutex<VecDeque<Arc<Job>>>,
    work: Condvar,
    workers: usize,
    threads_spawned: AtomicUsize,
    jobs_shared: AtomicUsize,
    jobs_inline: AtomicUsize,
}

/// Interned handles into the process-wide metrics registry. Resolved once
/// (the registry lookup takes a lock) and then each update is a single
/// relaxed atomic op — cheap enough for the job paths, which run per
/// `parallel_for` call or per claimed task, not per element.
struct PoolMetrics {
    tasks_executed: &'static metrics::Counter,
    tasks_stolen: &'static metrics::Counter,
    idle_ns: &'static metrics::Counter,
    jobs_shared: &'static metrics::Counter,
    jobs_inline: &'static metrics::Counter,
    queue_depth: &'static metrics::Gauge,
}

fn pool_metrics() -> &'static PoolMetrics {
    static M: OnceLock<PoolMetrics> = OnceLock::new();
    M.get_or_init(|| PoolMetrics {
        tasks_executed: metrics::global_counter("pool.tasks_executed"),
        tasks_stolen: metrics::global_counter("pool.tasks_stolen"),
        idle_ns: metrics::global_counter("pool.idle_ns"),
        jobs_shared: metrics::global_counter("pool.jobs_shared"),
        jobs_inline: metrics::global_counter("pool.jobs_inline"),
        queue_depth: metrics::global_gauge("pool.queue_depth"),
    })
}

/// The persistent compute pool. One instance lives for the whole process
/// (see [`pool`]); tests may build private instances with
/// [`ComputePool::with_workers`] to exercise the worker paths regardless of
/// the host's core count.
pub struct ComputePool {
    shared: Arc<Shared>,
}

impl ComputePool {
    /// A pool with exactly `workers` worker threads.
    pub fn with_workers(workers: usize) -> Self {
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            work: Condvar::new(),
            workers,
            threads_spawned: AtomicUsize::new(0),
            jobs_shared: AtomicUsize::new(0),
            jobs_inline: AtomicUsize::new(0),
        });
        for w in 0..workers {
            let sh = Arc::clone(&shared);
            std::thread::Builder::new()
                .name(format!("compute-pool-{w}"))
                .spawn(move || worker_loop(sh))
                .expect("spawn pool worker");
            shared.threads_spawned.fetch_add(1, Ordering::Relaxed);
        }
        ComputePool { shared }
    }

    fn new_global() -> Self {
        let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
        Self::with_workers(hw - 1)
    }

    /// Hardware threads this pool was sized for (`workers + 1`, the `+ 1`
    /// being the caller's own core).
    pub fn hw_threads(&self) -> usize {
        self.shared.workers + 1
    }

    /// Number of persistent worker threads (0 on a single-core host).
    pub fn worker_count(&self) -> usize {
        self.shared.workers
    }

    /// Total worker threads ever spawned by this pool. Constant after
    /// construction — the regression test for the seed's per-call spawning.
    pub fn threads_spawned(&self) -> usize {
        self.shared.threads_spawned.load(Ordering::Relaxed)
    }

    /// `(jobs run with workers, jobs run inline)` counters.
    pub fn job_counts(&self) -> (usize, usize) {
        (
            self.shared.jobs_shared.load(Ordering::Relaxed),
            self.shared.jobs_inline.load(Ordering::Relaxed),
        )
    }

    /// Runs `f(0..tasks)` with the caller participating, fanning out to
    /// `min(max_helpers, workers, tasks − 1)` workers. With no helper it is an
    /// inline serial loop, so it is always safe to call, including from
    /// inside another pool task.
    pub fn run(&self, tasks: usize, max_helpers: usize, f: &(dyn Fn(usize) + Sync)) {
        let sh = &self.shared;
        let helpers = max_helpers.min(sh.workers).min(tasks.saturating_sub(1));
        if helpers == 0 {
            sh.jobs_inline.fetch_add(1, Ordering::Relaxed);
            pool_metrics().jobs_inline.inc();
            pool_metrics().tasks_executed.add(tasks as u64);
            for i in 0..tasks {
                f(i);
            }
            return;
        }
        sh.jobs_shared.fetch_add(1, Ordering::Relaxed);
        pool_metrics().jobs_shared.inc();
        // SAFETY: lifetime erasure; `run` joins the job before returning.
        let raw = RawTask(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(f)
                as *const _
        });
        let job = Arc::new(Job {
            task: raw,
            tasks,
            next: AtomicUsize::new(0),
            slots: AtomicUsize::new(helpers),
            state: Mutex::new(JobState {
                completed: 0,
                panicked: false,
            }),
            done: Condvar::new(),
        });
        {
            let mut q = sh.injector.lock().unwrap();
            q.push_back(Arc::clone(&job));
            pool_metrics().queue_depth.set(q.len() as u64);
        }
        if helpers == 1 {
            sh.work.notify_one();
        } else {
            sh.work.notify_all();
        }
        let ran = job.run_tasks();
        pool_metrics().tasks_executed.add(ran as u64);
        let panicked = job.join();
        // Remove the (exhausted) job if no worker got to it first.
        sh.injector
            .lock()
            .unwrap()
            .retain(|j| !Arc::ptr_eq(j, &job));
        if panicked {
            panic!("compute pool task panicked");
        }
    }
}

fn worker_loop(sh: Arc<Shared>) {
    let m = pool_metrics();
    loop {
        let job = {
            let mut q = sh.injector.lock().unwrap();
            loop {
                q.retain(|j| !j.exhausted());
                m.queue_depth.set(q.len() as u64);
                let picked = q.iter().find(|j| j.try_claim_slot()).cloned();
                match picked {
                    Some(j) => break j,
                    None => {
                        let idle_from = std::time::Instant::now();
                        q = sh.work.wait(q).unwrap();
                        m.idle_ns.add(idle_from.elapsed().as_nanos() as u64);
                    }
                }
            }
        };
        let ran = job.run_tasks();
        m.tasks_executed.add(ran as u64);
        m.tasks_stolen.add(ran as u64);
    }
}

static POOL: OnceLock<ComputePool> = OnceLock::new();

/// The process-wide pool, created on first use.
pub fn pool() -> &'static ComputePool {
    POOL.get_or_init(ComputePool::new_global)
}

thread_local! {
    /// Whether this thread simulates a mesh device (set by [`enter_device`]).
    static IS_DEVICE: Cell<bool> = const { Cell::new(false) };
    /// Per-thread cap on total threads per kernel (0 = no cap). Benchmarks
    /// use this to sweep thread counts on one process.
    static THREAD_CAP: Cell<usize> = const { Cell::new(0) };
}

/// Marks the current thread as a simulated device thread until the returned
/// guard drops: every `parallel_*` call on it runs inline (see the module
/// docs). `mesh` installs this on every device thread it spawns.
pub fn enter_device() -> DeviceGuard {
    let prev = IS_DEVICE.with(|d| d.replace(true));
    DeviceGuard { prev }
}

/// Restores the previous device-thread flag on drop.
pub struct DeviceGuard {
    prev: bool,
}

impl Drop for DeviceGuard {
    fn drop(&mut self) {
        IS_DEVICE.with(|d| d.set(self.prev));
    }
}

/// Whether the current thread is a simulated device thread.
pub fn is_device_thread() -> bool {
    IS_DEVICE.with(|d| d.get())
}

/// Caps the total threads any kernel on this thread may use (own thread +
/// helpers) while `f` runs. Used by `gemm-bench` to sweep thread counts.
pub fn with_thread_cap<T>(cap: usize, f: impl FnOnce() -> T) -> T {
    /// Restores the previous cap on drop, so a panic in `f` does too.
    struct CapGuard(usize);
    impl Drop for CapGuard {
        fn drop(&mut self) {
            THREAD_CAP.with(|c| c.set(self.0));
        }
    }
    let _restore = CapGuard(THREAD_CAP.with(|c| c.replace(cap)));
    f()
}

/// Helpers a kernel on this thread may use: none on a device thread (a
/// device is one thread), otherwise the thread cap minus the caller.
fn helper_budget() -> usize {
    if is_device_thread() {
        return 0;
    }
    match THREAD_CAP.with(|c| c.get()) {
        0 => usize::MAX,
        cap => cap - 1,
    }
}

/// Workers a `parallel_*` call made now on this thread could share its tasks
/// with: zero on a device thread, under a thread cap of one and on a
/// one-core host. A kernel whose tasks each repeat some set-up reads it to
/// cut fewer, larger tasks when it is the only participant.
pub fn helpers() -> usize {
    helper_budget().min(pool().worker_count())
}

/// Runs `f(0..tasks)` on the global pool with the caller participating.
/// Respects [`with_thread_cap`]; inline on a device thread.
pub fn parallel_for(tasks: usize, f: impl Fn(usize) + Sync) {
    pool().run(tasks, helper_budget(), &f);
}

/// Splits `data` into `chunk_len`-sized chunks and runs `f(chunk_index,
/// chunk)` over them on the pool. Chunks are disjoint, so tasks may mutate
/// them concurrently; each chunk is processed by exactly one task.
pub fn parallel_chunks_mut<T: Send + Sync>(
    data: &mut [T],
    chunk_len: usize,
    f: impl Fn(usize, &mut [T]) + Sync,
) {
    let total = data.len();
    if total == 0 {
        return;
    }
    let chunk_len = chunk_len.max(1);
    let chunks = total.div_ceil(chunk_len);
    let base = SendPtr(data.as_mut_ptr());
    parallel_for(chunks, |i| {
        let start = i * chunk_len;
        let len = chunk_len.min(total - start);
        // SAFETY: chunk ranges are disjoint per task index and in-bounds.
        let chunk = unsafe { std::slice::from_raw_parts_mut(base.get().add(start), len) };
        f(i, chunk);
    });
}

/// Runs `f(r0, r1)` over disjoint `[r0, r1)` blocks of at most `rows_per`
/// rows on the pool. The common shape for row-parallel elementwise ops:
/// each block is processed by exactly one task, so results are bitwise
/// independent of the thread count.
pub fn parallel_row_blocks(rows: usize, rows_per: usize, f: impl Fn(usize, usize) + Sync) {
    let rows_per = rows_per.max(1);
    parallel_for(rows.div_ceil(rows_per), |t| {
        let r0 = t * rows_per;
        f(r0, rows.min(r0 + rows_per));
    });
}

/// A raw pointer that may cross thread boundaries. Used by pool callers to
/// hand each task a *disjoint* region of a buffer; the caller is responsible
/// for disjointness.
pub struct SendPtr<T>(*mut T);
// SAFETY: the caller guarantees disjoint access per task (see docs).
unsafe impl<T: Send> Send for SendPtr<T> {}
unsafe impl<T: Send> Sync for SendPtr<T> {}

impl<T> SendPtr<T> {
    /// Wraps a mutable base pointer.
    pub fn new(p: *mut T) -> Self {
        SendPtr(p)
    }

    /// The raw pointer back.
    pub fn get(&self) -> *mut T {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn inline_when_no_workers() {
        let p = ComputePool::with_workers(0);
        let hits = AtomicUsize::new(0);
        p.run(10, usize::MAX, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(hits.load(Ordering::Relaxed), 10);
        assert_eq!(p.threads_spawned(), 0);
        assert_eq!(p.job_counts(), (0, 1));
    }

    #[test]
    fn every_task_runs_exactly_once_with_workers() {
        let p = ComputePool::with_workers(3);
        let mut out = vec![0u8; 1000];
        let base = SendPtr::new(out.as_mut_ptr());
        p.run(1000, usize::MAX, &|i| {
            // SAFETY: each index is claimed by exactly one task.
            unsafe { *base.get().add(i) += 1 };
        });
        assert!(out.iter().all(|&v| v == 1));
        assert_eq!(p.threads_spawned(), 3);
    }

    #[test]
    fn thread_count_is_constant_across_many_jobs() {
        let p = ComputePool::with_workers(2);
        for round in 0..100 {
            let acc = AtomicUsize::new(0);
            p.run(8, usize::MAX, &|i| {
                acc.fetch_add(i + round, Ordering::Relaxed);
            });
        }
        assert_eq!(p.threads_spawned(), 2);
    }

    #[test]
    fn worker_panic_propagates_after_all_tasks_finish() {
        let p = ComputePool::with_workers(2);
        let completed = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&completed);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            p.run(16, usize::MAX, &|i| {
                if i == 3 {
                    panic!("boom");
                }
                c2.fetch_add(1, Ordering::Relaxed);
            });
        }));
        assert!(result.is_err(), "panic must propagate to the caller");
        assert_eq!(completed.load(Ordering::Relaxed), 15);
        // The pool stays usable after a panicked job.
        let ok = AtomicUsize::new(0);
        p.run(4, usize::MAX, &|_| {
            ok.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(ok.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn device_flag_nests_and_restores() {
        assert!(!is_device_thread());
        {
            let _g = enter_device();
            assert!(is_device_thread());
            {
                let _g2 = enter_device();
                assert!(is_device_thread());
            }
            assert!(is_device_thread());
        }
        assert!(!is_device_thread());
    }

    #[test]
    fn thread_cap_is_restored_when_the_body_panics() {
        let before = helper_budget();
        let r = catch_unwind(|| with_thread_cap(1, || panic!("boom")));
        assert!(r.is_err());
        assert_eq!(helper_budget(), before, "cap must not leak past a panic");
    }

    #[test]
    fn parallel_chunks_mut_covers_all_elements() {
        let mut data = vec![1.0f32; 1037];
        parallel_chunks_mut(&mut data, 64, |_, chunk| {
            for v in chunk {
                *v += 1.0;
            }
        });
        assert!(data.iter().all(|&v| v == 2.0));
    }

    #[test]
    fn thread_cap_forces_inline() {
        let p = ComputePool::with_workers(1);
        // cap of 1 thread -> 0 helpers -> inline.
        let hits = AtomicUsize::new(0);
        p.run(4, 0, &|_| {
            hits.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(p.job_counts().1, 1);
        assert_eq!(hits.load(Ordering::Relaxed), 4);
    }
}
