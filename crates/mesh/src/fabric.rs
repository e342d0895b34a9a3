//! The mailbox fabric connecting simulated devices, and the per-device
//! context handle.
//!
//! Each device owns one [`Mailbox`]: a mutex-protected set of per-source
//! FIFO queues plus a condvar. A send locks the *destination's* mailbox,
//! pushes, and wakes it; a receive blocks on the owner's mailbox until the
//! queue for the requested source is non-empty. Any device thread may push
//! into any mailbox, but **only the owning device thread pops** — blocking
//! and posted collectives alike run on it (see `nonblocking.rs`) — so a
//! mailbox has at most one waiter.
//!
//! Disconnect semantics match the old channel fabric: when a device's
//! context drops (normally or during a panic), it marks itself closed in
//! every peer's mailbox and retires its own, so peers blocked on it panic
//! with a "disconnected" error instead of hanging.

use crate::algo::CollTables;
use crate::nonblocking::PostQueue;
use crate::pool::BufferPool;
use crate::stats::CommLog;
use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

struct MailboxInner {
    /// `queues[src]` — payloads from `src`, FIFO per (src, this device).
    queues: Vec<VecDeque<Vec<f32>>>,
    /// `closed[src]` — `src`'s context dropped; it will never send again.
    closed: Vec<bool>,
    /// The owning device's context dropped: sends to it and further
    /// receives on it must fail instead of queueing/blocking forever.
    retired: bool,
}

/// One device's inbox, shared (`Arc`) with every peer. Peers push; only the
/// owning device thread pops, so at most one thread waits on `cv`.
pub(crate) struct Mailbox {
    inner: Mutex<MailboxInner>,
    cv: Condvar,
}

impl Mailbox {
    fn new(p: usize) -> Self {
        Mailbox {
            inner: Mutex::new(MailboxInner {
                queues: (0..p).map(|_| VecDeque::new()).collect(),
                closed: vec![false; p],
                retired: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Locks the inner state, ignoring poison: the state is consistent at
    /// every panic site, and teardown must proceed while peers unwind.
    fn lock(&self) -> MutexGuard<'_, MailboxInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Delivers a payload from `src` to this mailbox (never blocks).
    pub(crate) fn push(&self, src: usize, dst: usize, data: Vec<f32>) {
        let mut inner = self.lock();
        if inner.retired {
            drop(inner);
            panic!("device {dst} disconnected (send from {src})");
        }
        inner.queues[src].push_back(data);
        drop(inner);
        self.cv.notify_one();
    }

    /// Blocks until a payload from `src` is available and returns it.
    /// Panics if `src` disconnects first, or if this mailbox is retired
    /// (its owner is unwinding) while waiting.
    pub(crate) fn pop(&self, src: usize, dst: usize) -> Vec<f32> {
        let mut inner = self.lock();
        loop {
            if let Some(data) = inner.queues[src].pop_front() {
                return data;
            }
            if inner.retired {
                drop(inner);
                panic!("device {dst} is shutting down (recv from {src})");
            }
            if inner.closed[src] {
                drop(inner);
                panic!("device {src} disconnected (recv at {dst})");
            }
            inner = self.cv.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Marks `src` as never sending again and wakes all waiters.
    fn close_src(&self, src: usize) {
        self.lock().closed[src] = true;
        self.cv.notify_all();
    }

    /// Marks the owner as gone and wakes all waiters.
    fn retire(&self) {
        self.lock().retired = true;
        self.cv.notify_all();
    }
}

/// Per-device handle: identity plus the mailbox fabric to every peer.
///
/// Collectives ([`crate::Communicator`]) move their payloads through the
/// same mailboxes, interpreted by `collectives.rs` (inline) and
/// `nonblocking.rs` (posted), both on the device thread. Per-hop scratch
/// buffers come from the one per-device [`BufferPool`]; consumed receive
/// buffers are recycled back into it, so steady-state collective traffic
/// allocates nothing.
pub struct DeviceCtx {
    rank: usize,
    p: usize,
    /// `boxes[d]` — device `d`'s mailbox; `boxes[rank]` is our own.
    pub(crate) boxes: Vec<Arc<Mailbox>>,
    /// The run's selection tables, shared by all its devices.
    pub(crate) tables: Arc<CollTables>,
    pub(crate) log: RefCell<CommLog>,
    pub(crate) pool: RefCell<BufferPool>,
    /// Posted collectives not yet waited (`nonblocking.rs`).
    pub(crate) posted: RefCell<PostQueue>,
}

/// Builds a fully connected fabric of `p` devices selecting from `tables`.
pub(crate) fn build_fabric(p: usize, tables: &Arc<CollTables>) -> Vec<DeviceCtx> {
    let boxes: Vec<Arc<Mailbox>> = (0..p).map(|_| Arc::new(Mailbox::new(p))).collect();
    (0..p)
        .map(|rank| DeviceCtx {
            rank,
            p,
            boxes: boxes.clone(),
            tables: tables.clone(),
            log: RefCell::new(CommLog::new(rank)),
            pool: RefCell::new(BufferPool::new()),
            posted: RefCell::default(),
        })
        .collect()
}

impl DeviceCtx {
    /// This device's world rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of devices in the world.
    pub fn world_size(&self) -> usize {
        self.p
    }

    /// Point-to-point send. Counted in the [`CommLog`].
    pub fn send(&self, to: usize, data: Vec<f32>) {
        assert!(to < self.p, "send to rank {to} out of range (p={})", self.p);
        self.log
            .borrow_mut()
            .record_link(self.rank, to, data.len(), None);
        self.boxes[to].push(self.rank, to, data);
    }

    /// Point-to-point receive (blocking).
    pub fn recv(&self, from: usize) -> Vec<f32> {
        assert!(from < self.p, "recv from rank {from} out of range");
        self.boxes[self.rank].pop(from, self.rank)
    }

    /// Returns a consumed receive buffer to the scratch pool so a later
    /// collective send can reuse its allocation.
    pub fn recycle(&self, buf: Vec<f32>) {
        self.pool.borrow_mut().put(buf);
    }

    /// Buffers the scratch pool had to allocate fresh (pool misses) since
    /// the mesh started or [`DeviceCtx::reset_pool_stats`] was called.
    pub fn fresh_allocs(&self) -> usize {
        self.pool.borrow().fresh_allocs()
    }

    /// Zeroes the pool-miss counter — call after a warm-up pass to assert
    /// steady-state collectives are allocation-free.
    pub fn reset_pool_stats(&self) {
        self.pool.borrow_mut().reset_stats();
    }

    /// Extracts the accumulated communication log (resets it).
    pub fn take_log(&self) -> CommLog {
        std::mem::replace(&mut self.log.borrow_mut(), CommLog::new(self.rank))
    }

    /// Read-only snapshot of the current log.
    pub fn log_snapshot(&self) -> CommLog {
        self.log.borrow().clone()
    }
}

impl Drop for DeviceCtx {
    fn drop(&mut self) {
        // Sends to us now fail, and peers blocked waiting on us wake up.
        self.boxes[self.rank].retire();
        for (dst, mailbox) in self.boxes.iter().enumerate() {
            if dst != self.rank {
                mailbox.close_src(self.rank);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::{Group, Mesh};

    #[test]
    fn p2p_send_recv_roundtrip() {
        let out = Mesh::run(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![1.0, 2.0, 3.0]);
                vec![]
            } else {
                ctx.recv(0)
            }
        });
        assert_eq!(out[1], vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn p2p_preserves_fifo_order_per_pair() {
        let out = Mesh::run(2, |ctx| {
            if ctx.rank() == 0 {
                for i in 0..10 {
                    ctx.send(1, vec![i as f32]);
                }
                vec![]
            } else {
                (0..10).map(|_| ctx.recv(0)[0]).collect()
            }
        });
        assert_eq!(out[1], (0..10).map(|i| i as f32).collect::<Vec<_>>());
    }

    #[test]
    fn self_send_works() {
        let out = Mesh::run(1, |ctx| {
            ctx.send(0, vec![7.0]);
            ctx.recv(0)
        });
        assert_eq!(out[0], vec![7.0]);
    }

    #[test]
    fn interleaved_sources_match_by_origin() {
        // Rank 2 receives from 0 and 1 in the *opposite* order of arrival;
        // the mailbox must match by source, not arrival order.
        let out = Mesh::run(3, |ctx| match ctx.rank() {
            0 => {
                ctx.send(2, vec![10.0]);
                vec![]
            }
            1 => {
                ctx.send(2, vec![20.0]);
                vec![]
            }
            _ => {
                let b = ctx.recv(1);
                let a = ctx.recv(0);
                vec![a[0], b[0]]
            }
        });
        assert_eq!(out[2], vec![10.0, 20.0]);
    }

    #[test]
    fn log_counts_p2p_bytes() {
        let (_, logs) = Mesh::run_with_logs(2, |ctx| {
            if ctx.rank() == 0 {
                ctx.send(1, vec![0.0; 100]);
            } else {
                ctx.recv(0);
            }
            ctx.barrier(&Group::world(2));
        });
        assert_eq!(logs[0].total_link_elems(), 100 + logs[1].total_link_elems());
    }
}
