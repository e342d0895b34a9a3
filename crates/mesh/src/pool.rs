//! Reusable scratch-buffer pool for the live collectives.
//!
//! Every hop of a tree or ring collective needs an owned `Vec<f32>` to push
//! into a peer's mailbox. Allocating one per hop dominates small-payload collective
//! cost and makes the simulation's timing noisier than the α-β model it is
//! meant to ground. The pool recycles those vectors instead: a send draws a
//! cleared buffer ([`BufferPool::take`]) and the matching receive returns the
//! consumed buffer ([`BufferPool::put`]). Buffers therefore migrate between
//! devices along with the traffic, and because tree/ring traffic is balanced
//! across an iteration, each device's pool reaches a steady state after one
//! warm-up pass — from then on [`BufferPool::fresh_allocs`] stays flat
//! (`collectives.rs`'s tests assert exactly this over blocking all-reduce,
//! broadcast and reduce rounds).

/// Size of the free list above which a buffer is dropped instead of kept.
/// A device that receives more messages than it sends reaches it every step
/// (all but the first mesh row in a 2D step), so which buffer goes matters:
/// a full list keeps its largest buffers, or small all-reduce chunks would
/// crowd out the panel-sized ones that SUMMA's broadcasts and reduces
/// need.
const MAX_FREE: usize = 64;

/// A free list of `Vec<f32>` scratch buffers with allocation accounting.
#[derive(Debug, Default)]
pub struct BufferPool {
    free: Vec<Vec<f32>>,
    fresh: usize,
}

impl BufferPool {
    pub fn new() -> Self {
        BufferPool::default()
    }

    /// Returns an empty buffer with capacity at least `len`: the smallest
    /// pooled buffer that fits, so small sends leave the large buffers to
    /// large ones; otherwise a fresh allocation (counted in
    /// [`BufferPool::fresh_allocs`]).
    pub fn take(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            // Empty sends (barrier tokens) need no backing storage.
            return Vec::new();
        }
        let fit = self
            .free
            .iter()
            .enumerate()
            .filter(|(_, b)| b.capacity() >= len)
            .min_by_key(|(_, b)| b.capacity())
            .map(|(pos, _)| pos);
        if let Some(pos) = fit {
            let mut buf = self.free.swap_remove(pos);
            buf.clear();
            return buf;
        }
        self.fresh += 1;
        Vec::with_capacity(len)
    }

    /// Returns a consumed buffer to the free list. A full list keeps its
    /// largest buffers: `buf` replaces the smallest one if it is larger.
    pub fn put(&mut self, buf: Vec<f32>) {
        if buf.capacity() == 0 {
            return;
        }
        if self.free.len() < MAX_FREE {
            self.free.push(buf);
        } else if let Some(smallest) = self.free.iter_mut().min_by_key(|b| b.capacity()) {
            if buf.capacity() > smallest.capacity() {
                *smallest = buf;
            }
        }
    }

    /// Number of buffers allocated because the pool had nothing large
    /// enough, since construction or the last [`BufferPool::reset_stats`].
    pub fn fresh_allocs(&self) -> usize {
        self.fresh
    }

    /// Zeroes the allocation counter (e.g. after a warm-up pass).
    pub fn reset_stats(&mut self) {
        self.fresh = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_reuses_returned_buffers() {
        let mut pool = BufferPool::new();
        let mut a = pool.take(16);
        assert_eq!(pool.fresh_allocs(), 1);
        a.extend_from_slice(&[1.0; 16]);
        pool.put(a);
        let b = pool.take(8); // smaller fits in the recycled 16-cap buffer
        assert_eq!(pool.fresh_allocs(), 1);
        assert!(b.is_empty() && b.capacity() >= 8);
    }

    #[test]
    fn take_allocates_when_nothing_fits() {
        let mut pool = BufferPool::new();
        let a = pool.take(4);
        pool.put(a);
        let _big = pool.take(1024);
        assert_eq!(pool.fresh_allocs(), 2);
        pool.reset_stats();
        assert_eq!(pool.fresh_allocs(), 0);
    }

    #[test]
    fn take_picks_the_smallest_buffer_that_fits() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(1024));
        pool.put(Vec::with_capacity(16));
        assert!(pool.take(8).capacity() < 1024);
        let _ = pool.take(1024);
        assert_eq!(pool.fresh_allocs(), 0);
    }

    #[test]
    fn a_full_pool_keeps_its_largest_buffers() {
        let mut pool = BufferPool::new();
        pool.put(Vec::with_capacity(1024));
        for _ in 0..MAX_FREE {
            pool.put(Vec::with_capacity(8));
        }
        pool.put(Vec::with_capacity(2048));
        let _ = (pool.take(2048), pool.take(1024));
        assert_eq!(pool.fresh_allocs(), 0);
    }

    #[test]
    fn zero_capacity_buffers_are_not_pooled() {
        let mut pool = BufferPool::new();
        pool.put(Vec::new());
        let _ = pool.take(1);
        assert_eq!(pool.fresh_allocs(), 1);
    }
}
