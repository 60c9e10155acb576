//! A bounded free list of buffers.
//!
//! A served answer needs the same buffers the previous one just finished
//! with — region canvases on the query side, encoded frames on the socket
//! side — and handing a few hundred KB back to the allocator after every
//! answer makes it trim the heap and fault the pages back in for the next.
//! The owner of each buffer kind keeps them here instead: the store that
//! composes canvases ([`crate::VideoStore::canvases`]) and the queue that
//! writes frames. What is kept is bounded by a constant, in bytes of
//! capacity, and reported on a gauge.

use std::sync::{Arc, Mutex};
use tasm_obs::sync;

/// What a pool keeps: a byte buffer or the three planes of a canvas.
pub trait Spare {
    /// Bytes allocated, whatever the length.
    fn capacity(&self) -> usize;
}

impl Spare for Vec<u8> {
    fn capacity(&self) -> usize {
        Vec::capacity(self)
    }
}

impl Spare for [Vec<u8>; 3] {
    fn capacity(&self) -> usize {
        self.iter().map(Vec::capacity).sum()
    }
}

/// The spare region canvases of a store, each the Y, U and V planes of a
/// finished region.
pub type CanvasPool = BufferPool<[Vec<u8>; 3]>;

/// Smallest buffer a pool keeps.
const MIN_POOLED: usize = 1024;

/// Buffers waiting to be used again: at most `limit` bytes of capacity.
pub struct BufferPool<B> {
    /// The spare buffers, most recently given last, and their capacity.
    /// Taken as is on poison: a section pops or pushes one buffer and
    /// moves the count with it, and no step between can panic.
    free: Mutex<(Vec<B>, usize)>,
    limit: usize,
    gauge: Arc<tasm_obs::Gauge>,
}

impl<B: Spare> BufferPool<B> {
    /// An empty pool that keeps at most `limit` bytes and adds what it
    /// holds to the gauge `name` (pools of one kind share a gauge).
    pub fn new(limit: usize, name: &'static str, help: &'static str) -> Self {
        BufferPool {
            free: Mutex::default(),
            limit,
            gauge: tasm_obs::gauge(name, help),
        }
    }

    /// A buffer for `len` bytes: the one given last, contents intact
    /// (callers overwrite or clear it), if it holds that many; otherwise
    /// that one is freed and an empty one returned, which the caller's
    /// first write sizes exactly.
    pub fn take(&self, len: usize) -> B
    where
        B: Default,
    {
        let latest = {
            let mut free = sync::lock(&self.free);
            let latest = free.0.pop();
            if let Some(buf) = &latest {
                free.1 -= buf.capacity();
                self.gauge.add(-(buf.capacity() as i64));
            }
            latest
        };
        // One that does not fit is freed here, outside the lock.
        latest
            .filter(|buf| buf.capacity() >= len)
            .unwrap_or_default()
    }

    /// Keeps `buf` for a later [`BufferPool::take`], or frees it when it
    /// would take the pool past its limit — or is under `MIN_POOLED`
    /// bytes: a header or an error frame that never came from the pool is
    /// the allocator's fastest case, and kept here it would be found too
    /// small by the next `take` and cost that caller a fresh buffer, one
    /// more in the pool per answer until the limit.
    pub fn give(&self, buf: B) {
        let capacity = buf.capacity();
        let mut free = sync::lock(&self.free);
        if capacity >= MIN_POOLED && free.1 + capacity <= self.limit {
            free.1 += capacity;
            self.gauge.add(capacity as i64);
            free.0.push(buf);
        }
    }

    /// Bytes of capacity held right now; never more than the limit.
    pub fn retained_bytes(&self) -> usize {
        sync::lock(&self.free).1
    }
}

impl<B> std::fmt::Debug for BufferPool<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("limit", &self.limit)
            .finish_non_exhaustive()
    }
}

impl<B> Drop for BufferPool<B> {
    fn drop(&mut self) {
        let free = sync::lock(&self.free);
        self.gauge.add(-(free.1 as i64));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keeps_buffers_up_to_its_limit_and_hands_back_the_latest_that_fits() {
        let pool = BufferPool::<Vec<u8>>::new(10_000, "tasm_test_pool_bytes", "test");
        assert_eq!(
            pool.take(10).capacity(),
            0,
            "an empty pool allocates nothing"
        );
        pool.give(Vec::with_capacity(6000));
        pool.give(Vec::with_capacity(4000));
        pool.give(Vec::with_capacity(1024));
        assert_eq!(
            pool.retained_bytes(),
            10_000,
            "the third would pass the limit"
        );
        assert_eq!(pool.take(2000).capacity(), 4000);
        pool.give(Vec::with_capacity(MIN_POOLED - 1));
        assert_eq!(pool.retained_bytes(), 6000, "too small to be worth keeping");
        assert_eq!(pool.take(6001).capacity(), 0, "too small: freed, not grown");
        assert_eq!(pool.retained_bytes(), 0);
        let mut used = Vec::with_capacity(2048);
        used.extend_from_slice(b"stale");
        pool.give(used);
        assert_eq!(pool.take(8), b"stale", "contents are the caller's to clear");
    }

    #[test]
    fn a_canvas_counts_all_three_planes() {
        let pool = BufferPool::<[Vec<u8>; 3]>::new(9600, "tasm_test_pool_bytes", "test");
        pool.give([6400, 1600, 1600].map(Vec::with_capacity));
        assert_eq!(pool.retained_bytes(), 9600);
        pool.give([6400, 1600, 1600].map(Vec::with_capacity));
        assert_eq!(pool.retained_bytes(), 9600, "a second would pass the limit");
        assert_eq!(pool.take(9600).map(|p| p.capacity()), [6400, 1600, 1600]);
    }
}
