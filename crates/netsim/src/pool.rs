//! Datagram buffer recycling.
//!
//! Every packet the simulator moves is an owned `Vec<u8>` inside an
//! [`ecn_wire::Datagram`]. Without pooling, each encode allocates a fresh
//! vector and each delivery or drop frees one — millions of allocator
//! round-trips per campaign. [`PacketPool`] closes the loop: buffers are
//! checked out when a packet is encoded ([`PacketPool::take`]) and handed
//! back when the simulator consumes the packet
//! ([`PacketPool::recycle_datagram`] on deliver/drop), so the steady-state
//! hot loop reuses the same handful of buffers.
//!
//! The pool is deliberately simulator-local (no locks): each work unit's
//! world owns one, matching the engine's world-per-unit isolation.

use ecn_wire::Datagram;

/// Maximum number of idle buffers retained. Probe traffic keeps only a few
/// packets in flight; the cap just bounds pathological floods.
const POOL_RETAIN: usize = 256;

/// A freelist of datagram byte buffers.
#[derive(Debug, Default)]
pub struct PacketPool {
    free: Vec<Vec<u8>>,
    /// Buffers handed out in total.
    taken: u64,
    /// Takes served from the freelist (the rest were fresh allocations).
    reused: u64,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> PacketPool {
        PacketPool::default()
    }

    /// Check a buffer out of the pool (empty, capacity retained from its
    /// previous life when recycled).
    pub fn take(&mut self) -> Vec<u8> {
        self.taken += 1;
        match self.free.pop() {
            Some(buf) => {
                self.reused += 1;
                buf
            }
            None => Vec::with_capacity(128),
        }
    }

    /// Return a buffer to the pool.
    pub fn recycle(&mut self, mut bytes: Vec<u8>) {
        if self.free.len() < POOL_RETAIN && bytes.capacity() > 0 {
            bytes.clear();
            self.free.push(bytes);
        }
    }

    /// Return a consumed datagram's buffer to the pool.
    pub fn recycle_datagram(&mut self, dgram: Datagram) {
        self.recycle(dgram.into_bytes());
    }

    /// (total takes, takes served by reuse) — the recycling hit rate.
    pub fn stats(&self) -> (u64, u64) {
        (self.taken, self.reused)
    }

    /// Idle buffers currently pooled.
    pub fn idle(&self) -> usize {
        self.free.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_recycle_take_reuses_the_buffer() {
        let mut pool = PacketPool::new();
        let mut buf = pool.take();
        buf.extend_from_slice(&[1, 2, 3]);
        let cap = buf.capacity();
        pool.recycle(buf);
        assert_eq!(pool.idle(), 1);
        let buf2 = pool.take();
        assert!(buf2.is_empty(), "recycled buffers come back cleared");
        assert_eq!(buf2.capacity(), cap);
        let (taken, reused) = pool.stats();
        assert_eq!((taken, reused), (2, 1));
    }

    #[test]
    fn retention_is_bounded() {
        let mut pool = PacketPool::new();
        for _ in 0..(POOL_RETAIN + 50) {
            pool.recycle(Vec::with_capacity(8));
        }
        assert_eq!(pool.idle(), POOL_RETAIN);
    }

    #[test]
    fn zero_capacity_buffers_are_not_retained() {
        let mut pool = PacketPool::new();
        pool.recycle(Vec::new());
        assert_eq!(pool.idle(), 0);
    }
}
