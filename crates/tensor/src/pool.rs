//! What is left of the compute pool: the two calls the step benchmark
//! (`benchmark/`) makes, kept so that its source builds unchanged.
//!
//! Every kernel of this crate runs on its caller's thread. A mesh device is
//! one thread, like the paper's one process per GPU, and the serial reference
//! on the driver thread is one device too — the paper's `T_serial`. Nothing
//! here starts, wakes or counts a thread.

/// Runs `f`. A kernel only ever uses its caller's thread, so there is no
/// thread count to cap and `_cap` is ignored.
pub fn with_thread_cap<T>(_cap: usize, f: impl FnOnce() -> T) -> T {
    f()
}

/// The handle [`pool`] returns. It holds nothing.
pub struct Pool;

impl Pool {
    /// `(jobs shared with a worker, jobs run inline)`: always `(0, 0)`, since
    /// no job is ever queued.
    pub fn job_counts(&self) -> (usize, usize) {
        (0, 0)
    }
}

/// The one [`Pool`].
pub fn pool() -> &'static Pool {
    &Pool
}
