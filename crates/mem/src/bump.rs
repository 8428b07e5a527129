//! The self-managed VRAM buffer with bump allocation.
//!
//! At instance startup Aegaeon requests all the VRAM it will manage (weights
//! plus the unified GPU KV cache region) in one allocation, then hands out
//! extents by bumping a pointer. Deallocation is wholesale: resetting the
//! pointer (or rewinding to a [`BumpMark`]) frees everything allocated after
//! it in O(1), which is what removes the garbage-collection stage from the
//! auto-scaling critical path (§5.2, Figure 8).

use std::fmt;

/// A contiguous extent inside a [`BumpBuffer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Extent {
    /// Offset from the start of the buffer.
    pub offset: u64,
    /// Length in bytes.
    pub len: u64,
}

impl Extent {
    /// One-past-the-end offset.
    pub fn end(&self) -> u64 {
        self.offset + self.len
    }
}

/// A snapshot of the bump pointer, used to rewind.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BumpMark(u64);

/// Error returned when an allocation does not fit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutOfMemory {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes available at the time of the request.
    pub available: u64,
}

impl fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "bump buffer out of memory: requested {} bytes, {} available",
            self.requested, self.available
        )
    }
}

impl std::error::Error for OutOfMemory {}

/// A bump allocator over a fixed-capacity region.
///
/// # Examples
///
/// ```
/// use aegaeon_mem::BumpBuffer;
///
/// let mut buf = BumpBuffer::new(1 << 30);
/// let weights = buf.alloc(14 << 20, 256).unwrap();
/// let mark = buf.mark();
/// let prefetched = buf.alloc(28 << 20, 256).unwrap();
/// assert!(prefetched.offset >= weights.end());
/// buf.rewind(mark); // drop the prefetched extent in O(1)
/// assert_eq!(buf.used(), weights.end());
/// ```
#[derive(Debug, Clone)]
pub struct BumpBuffer {
    capacity: u64,
    cursor: u64,
}

impl BumpBuffer {
    /// Creates a buffer managing `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        BumpBuffer {
            capacity,
            cursor: 0,
        }
    }

    /// Total managed bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently allocated (everything below the bump pointer).
    pub fn used(&self) -> u64 {
        self.cursor
    }

    /// Bytes still available.
    pub fn remaining(&self) -> u64 {
        self.capacity - self.cursor
    }

    /// Allocates `len` bytes aligned to `align` (a power of two).
    ///
    /// # Panics
    ///
    /// Panics if `align` is zero or not a power of two.
    pub fn alloc(&mut self, len: u64, align: u64) -> Result<Extent, OutOfMemory> {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let offset = (self.cursor + align - 1) & !(align - 1);
        let end = offset.checked_add(len).ok_or(OutOfMemory {
            requested: len,
            available: self.remaining(),
        })?;
        if end > self.capacity {
            return Err(OutOfMemory {
                requested: len,
                available: self.capacity.saturating_sub(offset),
            });
        }
        self.cursor = end;
        Ok(Extent { offset, len })
    }

    /// Returns true if an allocation of `len`/`align` would currently succeed.
    pub fn would_fit(&self, len: u64, align: u64) -> bool {
        let offset = (self.cursor + align - 1) & !(align - 1);
        offset.checked_add(len).is_some_and(|end| end <= self.capacity)
    }

    /// Snapshots the bump pointer.
    pub fn mark(&self) -> BumpMark {
        BumpMark(self.cursor)
    }

    /// Rewinds to a previous mark, freeing everything allocated after it.
    ///
    /// # Panics
    ///
    /// Panics if the mark is ahead of the current pointer (i.e. taken after
    /// a rewind that already invalidated it).
    pub fn rewind(&mut self, mark: BumpMark) {
        assert!(
            mark.0 <= self.cursor,
            "rewinding to a mark ({}) ahead of the cursor ({})",
            mark.0,
            self.cursor
        );
        self.cursor = mark.0;
    }

    /// Frees everything: the O(1) wholesale deallocation used at scale-down.
    pub fn reset(&mut self) {
        self.cursor = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sequential_allocations_do_not_overlap() {
        let mut b = BumpBuffer::new(1000);
        let a = b.alloc(100, 1).unwrap();
        let c = b.alloc(200, 1).unwrap();
        assert_eq!(a.offset, 0);
        assert_eq!(c.offset, 100);
        assert_eq!(b.used(), 300);
    }

    #[test]
    fn alignment_is_respected() {
        let mut b = BumpBuffer::new(1024);
        b.alloc(3, 1).unwrap();
        let e = b.alloc(10, 256).unwrap();
        assert_eq!(e.offset, 256);
    }

    #[test]
    fn oom_reports_availability() {
        let mut b = BumpBuffer::new(100);
        b.alloc(60, 1).unwrap();
        let err = b.alloc(50, 1).unwrap_err();
        assert_eq!(err.requested, 50);
        assert_eq!(err.available, 40);
        // The failed allocation must not move the cursor.
        assert_eq!(b.used(), 60);
    }

    #[test]
    fn rewind_frees_suffix_only() {
        let mut b = BumpBuffer::new(1000);
        let running = b.alloc(300, 1).unwrap();
        let m = b.mark();
        b.alloc(400, 1).unwrap();
        b.rewind(m);
        assert_eq!(b.used(), running.end());
        // Space is reusable after rewind.
        let again = b.alloc(400, 1).unwrap();
        assert_eq!(again.offset, 300);
    }

    #[test]
    fn reset_is_total() {
        let mut b = BumpBuffer::new(1000);
        b.alloc(999, 1).unwrap();
        b.reset();
        assert_eq!(b.used(), 0);
        assert!(b.alloc(1000, 1).is_ok());
    }

    #[test]
    fn would_fit_matches_alloc() {
        let mut b = BumpBuffer::new(128);
        assert!(b.would_fit(128, 1));
        assert!(!b.would_fit(129, 1));
        b.alloc(1, 1).unwrap();
        assert!(!b.would_fit(128, 64));
        assert!(b.would_fit(64, 64));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn bad_alignment_panics() {
        let mut b = BumpBuffer::new(10);
        let _ = b.alloc(1, 3);
    }
}
