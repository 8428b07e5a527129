//! Bounded per-connection output queue for SSE write-back.
//!
//! The reactor never blocks on a socket write: frames are appended to a
//! [`WriteQueue`] and pumped out whenever the fd reports writable. The
//! queue is the backpressure contract — it holds at most `cap` unsent
//! bytes, and a push that would exceed the cap fails with [`Overflow`] so
//! the caller can drop the slow reader instead of buffering without bound.
//!
//! Bytes are drained strictly FIFO through a head cursor; the backing
//! buffer compacts once the consumed prefix dominates, so steady-state
//! streaming costs amortized O(1) per byte with no per-frame allocation.

use std::io::{self, Write};

/// A push would have exceeded the queue's byte cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Overflow {
    /// Unsent bytes already queued.
    pub queued: usize,
    /// Bytes the rejected push attempted to add.
    pub(crate) attempted: usize,
    /// The configured cap.
    pub cap: usize,
}

/// Bounded FIFO byte queue with a partial-write pump.
#[derive(Debug)]
pub struct WriteQueue {
    buf: Vec<u8>,
    /// Bytes of `buf` already written to the socket.
    head: usize,
    cap: usize,
}

impl WriteQueue {
    /// A queue holding at most `cap` unsent bytes.
    pub fn new(cap: usize) -> WriteQueue {
        WriteQueue {
            buf: Vec::new(),
            head: 0,
            cap,
        }
    }

    /// Unsent bytes currently queued.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Append `bytes`, failing (and queuing nothing) if the queue would
    /// exceed its cap. All-or-nothing: a frame is never half-queued.
    pub fn push(&mut self, bytes: &[u8]) -> Result<(), Overflow> {
        if self.len() + bytes.len() > self.cap {
            return Err(Overflow {
                queued: self.len(),
                attempted: bytes.len(),
                cap: self.cap,
            });
        }
        self.compact();
        self.buf.extend_from_slice(bytes);
        Ok(())
    }

    /// Append `bytes` regardless of the cap. For **finite** one-shot
    /// payloads only (a complete HTTP response, the SSE head): memory
    /// stays bounded by the payload's own size because the connection
    /// queues nothing further. Streaming frames must use [`Self::push`]
    /// so the cap can trip.
    pub(crate) fn push_unchecked(&mut self, bytes: &[u8]) {
        self.compact();
        self.buf.extend_from_slice(bytes);
    }

    /// Drop the consumed prefix when it dominates the buffer, keeping the
    /// amortized cost of `push` linear.
    fn compact(&mut self) {
        if self.head > 0 && (self.head >= self.buf.len() || self.head >= 4096) {
            self.buf.drain(..self.head);
            self.head = 0;
        }
    }

    /// Write queued bytes to `w` until empty or `WouldBlock`, tolerating
    /// short writes. Returns `Ok(true)` if the queue drained (fd still
    /// writable), `Ok(false)` on `WouldBlock` (wait for the next writable
    /// edge). Interrupted writes retry; zero-length writes and all other
    /// errors surface as `Err` so the caller tears the connection down.
    pub fn pump(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while !self.is_empty() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ));
                }
                Ok(n) => {
                    self.head += n;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        self.compact();
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_through_partial_writes() {
        let mut q = WriteQueue::new(64);
        q.push(b"hello ").unwrap();
        q.push(b"world").unwrap();
        assert_eq!(q.len(), 11);

        // A writer that accepts 3 bytes then blocks.
        struct Throttle(Vec<u8>, usize);
        impl Write for Throttle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.1 == 0 {
                    return Err(io::Error::from(io::ErrorKind::WouldBlock));
                }
                let n = buf.len().min(3).min(self.1);
                self.0.extend_from_slice(&buf[..n]);
                self.1 -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut w = Throttle(Vec::new(), 7);
        assert!(!q.pump(&mut w).unwrap());
        assert_eq!(w.0, b"hello w");
        assert_eq!(q.len(), 4);
        w.1 = usize::MAX;
        assert!(q.pump(&mut w).unwrap());
        assert_eq!(w.0, b"hello world");
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_is_all_or_nothing() {
        let mut q = WriteQueue::new(8);
        q.push(b"12345678").unwrap();
        let err = q.push(b"9").unwrap_err();
        assert_eq!(
            err,
            Overflow {
                queued: 8,
                attempted: 1,
                cap: 8
            }
        );
        // The failed push queued nothing.
        assert_eq!(q.len(), 8);
        let mut sink = Vec::new();
        q.pump(&mut sink).unwrap();
        assert_eq!(sink, b"12345678");
    }

    #[test]
    fn drained_capacity_is_reusable() {
        let mut q = WriteQueue::new(4);
        for _ in 0..1000 {
            q.push(b"abcd").unwrap();
            let mut sink = Vec::new();
            assert!(q.pump(&mut sink).unwrap());
            assert_eq!(sink, b"abcd");
        }
        // Compaction kept the backing buffer bounded.
        assert!(q.buf.capacity() <= 16 * 4096);
    }

    #[test]
    fn write_zero_is_an_error() {
        struct Zero;
        impl Write for Zero {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut q = WriteQueue::new(8);
        q.push(b"x").unwrap();
        assert!(q.pump(&mut Zero).is_err());
    }
}
