//! The device's recycler of `f32` buffers.
//!
//! Every [`Tensor`](crate::Tensor) takes its storage from here and gives it
//! back when it drops; the mesh fabric draws its send buffers from the same
//! place and returns consumed receives to it, and so do the other buffers a
//! step needs (SUMMA's panels, a region of vectors, a gather's slots). A
//! step that repeats its shapes therefore finds every buffer it needs among
//! the ones the previous step gave back, and stops asking the system
//! allocator — whose trimming of a device's freed working set made the next
//! layer fault it back in.
//!
//! A mesh device is one thread, so the recycler is thread-local, beside
//! `gemm`'s packing scratch: no op's signature carries it, and the serial
//! reference on the driver thread gets one of its own. Everything it holds
//! is freed when the thread ends.
//!
//! Reuse is best-fit by capacity: [`take`] hands out the held buffer that
//! last held a request of the same length — so each shape a step repeats
//! finds the buffer it had in the step before — else the smallest that
//! fits. The recycler holds at most the thread's own high-water mark of
//! live buffer bytes, and a give that would exceed it frees the smallest
//! held buffers first. Live bytes are those of the thread's tensors
//! (counted as the allocation tracker counts them, however the buffer was
//! made), of buffers in use outside a tensor, and of buffers sent to
//! another device that no receive has yet balanced. A take that must
//! allocate also counts the held buffers too small to serve it: the device
//! needed them beside the new one.

use std::cell::RefCell;

#[derive(Default)]
struct Recycler {
    /// Held buffers, ascending by capacity.
    free: Vec<Vec<f32>>,
    /// Bytes the held buffers own.
    held: usize,
    /// Bytes the thread's live tensors own.
    tensors: usize,
    /// Bytes of buffers in use outside a tensor.
    loose: usize,
    /// Bytes sent to other devices and not yet balanced by receives.
    in_flight: usize,
    /// High-water mark of live bytes: the bound on `held`.
    peak: usize,
    /// Takes no held buffer could serve, since the thread started or
    /// [`reset_misses`].
    misses: usize,
}

thread_local! {
    static RECYCLER: RefCell<Recycler> = RefCell::new(Recycler::default());
}

fn bytes(buf: &Vec<f32>) -> usize {
    buf.capacity() * std::mem::size_of::<f32>()
}

impl Recycler {
    /// The held buffer that last held `len` elements, else the smallest
    /// with capacity for `len`, if any.
    fn best_fit(&mut self, len: usize) -> Option<Vec<f32>> {
        let fits = self.free.partition_point(|b| b.capacity() < len);
        let same_shape = self.free[fits..].iter().position(|b| b.len() == len);
        let at = fits + same_shape.unwrap_or(0);
        (at < self.free.len()).then(|| {
            let buf = self.free.remove(at);
            self.held -= bytes(&buf);
            buf
        })
    }

    fn live(&self) -> usize {
        self.tensors + self.loose + self.in_flight
    }

    fn lend(&mut self, b: usize) {
        self.loose += b;
        self.peak = self.peak.max(self.live());
    }

    fn keep(&mut self, buf: Vec<f32>) {
        let at = self.free.partition_point(|b| b.capacity() < buf.capacity());
        self.held += bytes(&buf);
        self.free.insert(at, buf);
        while self.held > self.peak {
            let smallest = self.free.remove(0);
            self.held -= bytes(&smallest);
        }
    }
}

/// Runs `f` on this thread's recycler; `None` once the thread is tearing
/// down its thread-locals (a buffer dropped then goes to the system).
fn with<T>(f: impl FnOnce(&mut Recycler) -> T) -> Option<T> {
    RECYCLER.try_with(|r| f(&mut r.borrow_mut())).ok()
}

/// A buffer of `len` elements whose contents are unspecified (initialised,
/// but left over from its last use): for outputs the caller overwrites
/// completely. A miss allocates zeroed memory, which costs no `memset`.
pub fn take(len: usize) -> Vec<f32> {
    if len == 0 {
        return Vec::new();
    }
    let fit = with(|r| {
        let fit = r.best_fit(len);
        if fit.is_none() {
            r.misses += 1;
            r.peak = r
                .peak
                .max(r.live() + r.held + len * std::mem::size_of::<f32>());
        }
        fit
    });
    let buf = match fit.flatten() {
        Some(mut buf) => {
            if buf.len() >= len {
                buf.truncate(len);
            } else {
                buf.resize(len, 0.0);
            }
            buf
        }
        None => vec![0.0; len],
    };
    with(|r| r.lend(bytes(&buf)));
    buf
}

/// A buffer of `len` zeros.
pub fn take_zeroed(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.fill(0.0);
    buf
}

/// An empty buffer with capacity for `len` elements, to be filled by
/// `extend`.
pub fn take_empty(len: usize) -> Vec<f32> {
    let mut buf = take(len);
    buf.clear();
    buf
}

/// Gives a buffer that is in use outside a tensor back for a later [`take`]
/// on this thread.
pub fn give(buf: Vec<f32>) {
    with(|r| r.loose = r.loose.saturating_sub(bytes(&buf)));
    keep(buf);
}

fn keep(buf: Vec<f32>) {
    if buf.capacity() > 0 {
        // A buffer given back while the thread tears down is simply freed.
        let _ = RECYCLER.try_with(|r| r.borrow_mut().keep(buf));
    }
}

/// Books `buf` as sent to another device: no longer in use here, but in
/// flight until a receive balances it.
pub fn sent(buf: &Vec<f32>) {
    with(|r| {
        r.loose = r.loose.saturating_sub(bytes(buf));
        r.in_flight += bytes(buf);
        r.peak = r.peak.max(r.live());
    });
}

/// Books `buf` as received from another device: in use here until it is
/// given back, and balancing what this device has in flight.
pub fn received(buf: &Vec<f32>) {
    with(|r| {
        r.in_flight = r.in_flight.saturating_sub(bytes(buf));
        r.lend(bytes(buf));
    });
}

/// Books a new tensor's buffer: from outside a tensor to inside one.
pub(crate) fn tensor_created(buf: &Vec<f32>) {
    with(|r| {
        r.loose = r.loose.saturating_sub(bytes(buf));
        r.tensors += bytes(buf);
        r.peak = r.peak.max(r.live());
    });
}

/// A dropped tensor's buffer goes back. A tensor made on another thread may
/// end here: the count stops at zero.
pub(crate) fn tensor_dropped(buf: Vec<f32>) {
    with(|r| r.tensors = r.tensors.saturating_sub(bytes(&buf)));
    keep(buf);
}

/// `Tensor::into_vec`: the buffer leaves its tensor and stays in use.
pub(crate) fn tensor_unwrapped(buf: &Vec<f32>) {
    with(|r| {
        r.tensors = r.tensors.saturating_sub(bytes(buf));
        r.loose += bytes(buf);
    });
}

/// Takes that found no held buffer and allocated, since the thread started
/// or the last [`reset_misses`].
pub fn misses() -> usize {
    with(|r| r.misses).unwrap_or(0)
}

/// Zeroes the miss counter (e.g. after a warm-up step).
pub fn reset_misses() {
    with(|r| r.misses = 0);
}

/// Bytes this thread's recycler holds.
pub fn held_bytes() -> usize {
    with(|r| r.held).unwrap_or(0)
}

/// This thread's high-water mark of live buffer bytes: the most the
/// recycler ever holds.
pub fn peak_live_bytes() -> usize {
    with(|r| r.peak).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tensor;

    /// Each test runs on a thread of its own, so its recycler starts empty.
    fn fresh<T: Send>(f: impl FnOnce() -> T + Send) -> T {
        std::thread::scope(|s| s.spawn(f).join().unwrap())
    }

    #[test]
    fn a_given_buffer_serves_the_next_take_that_fits() {
        fresh(|| {
            let a = take(16);
            assert_eq!((a.len(), misses()), (16, 1));
            give(a);
            let b = take(8);
            assert_eq!((b.len(), misses()), (8, 1));
            assert!(b.capacity() >= 16);
            give(b);
            let _big = take(1024);
            assert_eq!(misses(), 2);
            reset_misses();
            assert_eq!(misses(), 0);
        });
    }

    #[test]
    fn take_prefers_the_same_shape_then_the_smallest_that_fits() {
        fresh(|| {
            let (mut exact, mut borrowed, big) = (take(16), take(64), take(1024));
            exact.truncate(8);
            borrowed.truncate(16);
            [exact, borrowed, big].into_iter().for_each(give);
            // The buffer that last held 16 elements serves 16 again, though
            // a smaller one fits; then best fit by capacity.
            assert_eq!(take(16).capacity(), 64);
            assert_eq!(take(16).capacity(), 16);
            assert_eq!(take(512).capacity(), 1024);
            assert_eq!(misses(), 3);
        });
    }

    #[test]
    fn held_bytes_never_exceed_the_live_peak() {
        fresh(|| {
            let ts: Vec<_> = (1..=3).map(|i| Tensor::zeros(&[256 * i])).collect();
            let loose = take(1024);
            let peak = peak_live_bytes();
            assert_eq!(peak, 4 * 256 * 10);
            drop(ts);
            give(loose);
            assert_eq!(held_bytes(), peak);
            // A buffer from elsewhere does not grow the holding past the
            // peak: the smallest held buffers make room.
            give(vec![0.0; 512]);
            assert!(held_bytes() <= peak);
            assert_eq!(take(1024).capacity(), 1024);
        });
    }

    #[test]
    fn a_buffer_counts_once_whether_loose_or_in_a_tensor() {
        fresh(|| {
            // Taken, wrapped, unwrapped: one buffer's bytes at a time.
            let t = Tensor::from_vec(&[64], take(64));
            let v = t.into_vec();
            assert_eq!(peak_live_bytes(), 256);
            give(v);
            // A buffer made elsewhere counts once it is a tensor.
            let t = Tensor::from_vec(&[128], vec![1.0; 128]);
            assert_eq!(peak_live_bytes(), 512);
            drop(t);
            assert_eq!(held_bytes(), 512);
        });
    }

    #[test]
    fn a_send_counts_until_a_receive_balances_it() {
        fresh(|| {
            let out = take_empty(256);
            sent(&out);
            drop(out);
            let incoming = vec![0.0f32; 256];
            received(&incoming);
            give(incoming);
            // The send and the receive overlap nowhere: one buffer's worth.
            assert_eq!(peak_live_bytes(), 1024);
            assert_eq!(held_bytes(), 1024);
            // A device that only receives holds no more than it ever used.
            for _ in 0..4 {
                let incoming = vec![0.0f32; 256];
                received(&incoming);
                give(incoming);
            }
            assert_eq!(held_bytes(), 1024);
        });
    }

    #[test]
    fn a_thread_that_never_held_a_buffer_keeps_none() {
        fresh(|| {
            give(vec![1.0; 64]);
            assert_eq!(held_bytes(), 0);
        });
    }

    #[test]
    fn zeroed_and_empty_takes_are_what_they_say() {
        fresh(|| {
            drop(Tensor::full(&[8], 3.0));
            assert_eq!(take_zeroed(8), vec![0.0; 8]);
            assert_eq!(misses(), 1);
            let e = take_empty(4);
            assert!(e.is_empty() && e.capacity() >= 4);
            assert!(take(0).capacity() == 0);
        });
    }
}
