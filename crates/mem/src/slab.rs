//! Slab allocation for the unified KV caches.
//!
//! The KV cache shape — and therefore the natural block size — varies across
//! models (Table 1: 128 KB to 2560 KB per token). Pre-allocating fixed pools
//! per shape would fragment badly, so Aegaeon divides each cache region
//! (VRAM or DRAM) into fixed-size *slabs*; each slab is dynamically assigned
//! to one shape and serves as a pool of that shape's blocks. Allocation
//! prefers free blocks in already-assigned slabs, acquiring fresh slabs only
//! when needed; a slab whose last block is freed returns to the shared free
//! list and can be re-assigned to any shape (§5.2, Figure 9 bottom).

use std::fmt;

/// A registered KV-cache shape class within one [`SlabPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey(pub u32);

/// A block handle: slab index plus block index within the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Slab index within the pool.
    pub slab: u32,
    /// Block index within the slab.
    pub index: u32,
}

/// Pool geometry.
#[derive(Debug, Clone, Copy)]
pub struct SlabPoolConfig {
    /// Total bytes managed by the pool.
    pub capacity_bytes: u64,
    /// Size of each slab; the fragmentation/management-overhead knob.
    pub slab_bytes: u64,
}

/// Error: the pool cannot satisfy a block allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlabExhausted {
    /// Shape that failed to allocate.
    pub shape: ShapeKey,
    /// Blocks requested.
    pub requested: usize,
    /// Blocks that were available for this shape (free blocks plus blocks
    /// materializable from free slabs).
    pub available: usize,
}

impl fmt::Display for SlabExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slab pool exhausted for shape {:?}: requested {} blocks, {} available",
            self.shape, self.requested, self.available
        )
    }
}

impl std::error::Error for SlabExhausted {}

#[derive(Debug, Clone)]
struct ShapeInfo {
    label: String,
    block_bytes: u64,
    blocks_per_slab: u32,
    slabs: Vec<u32>,
    free_blocks: Vec<BlockRef>,
    used_blocks: u64,
    peak_slab_bytes: u64,
}

#[derive(Debug, Clone)]
struct Slab {
    shape: Option<ShapeKey>,
    used: u32,
}

/// Per-shape usage snapshot (drives the Figure 16 fragmentation report).
#[derive(Debug, Clone)]
pub struct ShapeUsage {
    /// Shape label given at registration.
    pub label: String,
    /// Bytes in slabs currently assigned to the shape.
    pub allocated_bytes: u64,
    /// Bytes in blocks currently in use.
    pub used_bytes: u64,
    /// Peak bytes ever assigned to the shape.
    pub peak_allocated_bytes: u64,
}

impl ShapeUsage {
    /// Unused fraction of the currently assigned memory (0 when nothing is
    /// assigned).
    pub fn fragmentation(&self) -> f64 {
        if self.allocated_bytes == 0 {
            0.0
        } else {
            1.0 - self.used_bytes as f64 / self.allocated_bytes as f64
        }
    }
}

/// A multi-shape slab allocator.
///
/// # Examples
///
/// ```
/// use aegaeon_mem::{SlabPool, SlabPoolConfig};
///
/// let mut pool = SlabPool::new(SlabPoolConfig {
///     capacity_bytes: 64 << 20,
///     slab_bytes: 16 << 20,
/// });
/// let qwen = pool.register_shape("qwen-7b", 512 * 1024 * 16); // 16-token blocks
/// let blocks = pool.alloc(qwen, 3).unwrap();
/// assert_eq!(blocks.len(), 3);
/// pool.free(qwen, &blocks);
/// assert_eq!(pool.slabs_in_use(), 0); // empty slab reclaimed
/// ```
#[derive(Debug, Clone)]
pub struct SlabPool {
    cfg: SlabPoolConfig,
    shapes: Vec<ShapeInfo>,
    slabs: Vec<Slab>,
    free_slabs: Vec<u32>,
}

impl SlabPool {
    /// Creates a pool; the capacity is rounded down to whole slabs.
    ///
    /// # Panics
    ///
    /// Panics if `slab_bytes` is zero.
    pub fn new(cfg: SlabPoolConfig) -> Self {
        assert!(cfg.slab_bytes > 0, "slab size must be positive");
        let n = (cfg.capacity_bytes / cfg.slab_bytes) as u32;
        SlabPool {
            cfg,
            shapes: Vec::new(),
            slabs: (0..n)
                .map(|_| Slab {
                    shape: None,
                    used: 0,
                })
                .collect(),
            free_slabs: (0..n).rev().collect(),
        }
    }

    /// Registers a shape class with the given block size.
    ///
    /// # Panics
    ///
    /// Panics if a block does not fit in one slab.
    pub fn register_shape(&mut self, label: impl Into<String>, block_bytes: u64) -> ShapeKey {
        assert!(
            block_bytes > 0 && block_bytes <= self.cfg.slab_bytes,
            "block size must be in (0, slab_bytes]"
        );
        let blocks_per_slab = (self.cfg.slab_bytes / block_bytes) as u32;
        let key = ShapeKey(self.shapes.len() as u32);
        self.shapes.push(ShapeInfo {
            label: label.into(),
            block_bytes,
            blocks_per_slab,
            slabs: Vec::new(),
            free_blocks: Vec::new(),
            used_blocks: 0,
            peak_slab_bytes: 0,
        });
        key
    }

    /// Allocates `n` blocks of `shape`, acquiring fresh slabs as needed.
    ///
    /// On failure the pool is left unchanged.
    pub fn alloc(&mut self, shape: ShapeKey, n: usize) -> Result<Vec<BlockRef>, SlabExhausted> {
        let si = shape.0 as usize;
        let (free_now, per_slab) = {
            let s = &self.shapes[si];
            (s.free_blocks.len(), s.blocks_per_slab as usize)
        };
        let available = free_now + self.free_slabs.len() * per_slab;
        if n > available {
            return Err(SlabExhausted {
                shape,
                requested: n,
                available,
            });
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            if let Some(b) = self.shapes[si].free_blocks.pop() {
                self.slabs[b.slab as usize].used += 1;
                self.shapes[si].used_blocks += 1;
                out.push(b);
            } else {
                let slab_idx = self
                    .free_slabs
                    .pop()
                    .expect("availability was pre-checked");
                self.assign_slab(slab_idx, shape);
            }
        }
        Ok(out)
    }

    /// Frees blocks back to their shape; slabs that become empty return to
    /// the shared free list immediately.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) on double free or on freeing a block whose
    /// slab is not assigned to `shape`.
    pub fn free(&mut self, shape: ShapeKey, blocks: &[BlockRef]) {
        let si = shape.0 as usize;
        let mut emptied: Vec<u32> = Vec::new();
        for &b in blocks {
            let slab = &mut self.slabs[b.slab as usize];
            debug_assert_eq!(
                slab.shape,
                Some(shape),
                "freeing block {b:?} into the wrong shape"
            );
            debug_assert!(slab.used > 0, "double free of {b:?}");
            slab.used -= 1;
            self.shapes[si].used_blocks -= 1;
            self.shapes[si].free_blocks.push(b);
            if slab.used == 0 {
                emptied.push(b.slab);
            }
        }
        for slab_idx in emptied {
            // A freed slab may have been refilled by an interleaved alloc of
            // the same call? No allocation happens during `free`, but the
            // same slab can appear twice in `emptied` only if `blocks` holds
            // duplicates, which the double-free assert rejects.
            if self.slabs[slab_idx as usize].used == 0 {
                self.unassign_slab(slab_idx, shape);
            }
        }
    }

    fn assign_slab(&mut self, slab_idx: u32, shape: ShapeKey) {
        let si = shape.0 as usize;
        let s = &mut self.shapes[si];
        self.slabs[slab_idx as usize].shape = Some(shape);
        s.slabs.push(slab_idx);
        for i in 0..s.blocks_per_slab {
            s.free_blocks.push(BlockRef {
                slab: slab_idx,
                index: i,
            });
        }
        let assigned = s.slabs.len() as u64 * self.cfg.slab_bytes;
        s.peak_slab_bytes = s.peak_slab_bytes.max(assigned);
    }

    fn unassign_slab(&mut self, slab_idx: u32, shape: ShapeKey) {
        let si = shape.0 as usize;
        let s = &mut self.shapes[si];
        s.free_blocks.retain(|b| b.slab != slab_idx);
        s.slabs.retain(|&x| x != slab_idx);
        self.slabs[slab_idx as usize].shape = None;
        self.free_slabs.push(slab_idx);
    }

    /// Number of slabs currently assigned to any shape.
    pub fn slabs_in_use(&self) -> usize {
        self.slabs.len() - self.free_slabs.len()
    }

    /// Total slab count.
    pub fn total_slabs(&self) -> usize {
        self.slabs.len()
    }

    /// Free blocks currently materialized for `shape` plus blocks obtainable
    /// from free slabs.
    pub fn available_blocks(&self, shape: ShapeKey) -> usize {
        let s = &self.shapes[shape.0 as usize];
        s.free_blocks.len() + self.free_slabs.len() * s.blocks_per_slab as usize
    }

    /// Blocks of `shape` currently in use.
    pub fn used_blocks(&self, shape: ShapeKey) -> u64 {
        self.shapes[shape.0 as usize].used_blocks
    }

    /// Total bytes in blocks currently in use across every shape.
    ///
    /// Allocation-free (unlike [`usage`](Self::usage)), so the telemetry
    /// poller can read it every sampling interval.
    pub fn total_used_bytes(&self) -> u64 {
        self.shapes.iter().map(|s| s.used_blocks * s.block_bytes).sum()
    }

    /// Usage snapshot for every registered shape (Figure 16 input).
    pub fn usage(&self) -> Vec<ShapeUsage> {
        self.shapes
            .iter()
            .map(|s| ShapeUsage {
                label: s.label.clone(),
                allocated_bytes: s.slabs.len() as u64 * self.cfg.slab_bytes,
                used_bytes: s.used_blocks * s.block_bytes,
                peak_allocated_bytes: s.peak_slab_bytes,
            })
            .collect()
    }

    /// Block size of a registered shape.
    pub fn block_bytes(&self, shape: ShapeKey) -> u64 {
        self.shapes[shape.0 as usize].block_bytes
    }

    /// Checks the pool's books against its holders' and returns the first
    /// inconsistency, or `None` when both balance.
    ///
    /// `held` lists every block [`Self::alloc`] handed out and nobody has
    /// freed yet, grouped by shape (one entry per request's block list or
    /// parked batch). The check is double-entry and dense: one bit per
    /// block of every slab, set once by the pool's free lists or by a
    /// holder, and per-slab holder counts beside the pool's own.
    ///
    /// Invariants: free and assigned slab sets are disjoint and together
    /// cover the pool; every block of an assigned slab is exactly once
    /// either free or held, by its slab's shape; each slab's used count
    /// equals the blocks held in it; per-shape used totals equal the sum
    /// over the shape's slabs, and used + free equals the shape's capacity.
    pub fn audit<'a>(
        &self,
        held: impl IntoIterator<Item = (ShapeKey, &'a [BlockRef])>,
    ) -> Option<String> {
        let mut seen = vec![false; self.slabs.len()];
        for &idx in &self.free_slabs {
            let i = idx as usize;
            if seen[i] {
                return Some(format!("slab {idx} appears twice in the free list"));
            }
            seen[i] = true;
            if self.slabs[i].shape.is_some() || self.slabs[i].used != 0 {
                return Some(format!("free slab {idx} is still assigned or in use"));
            }
        }
        for (key, s) in self.shapes.iter().enumerate() {
            let shape = ShapeKey(key as u32);
            let mut used_sum = 0u64;
            for &idx in &s.slabs {
                let i = idx as usize;
                if seen[i] {
                    return Some(format!("slab {idx} owned by two shapes or also free"));
                }
                seen[i] = true;
                if self.slabs[i].shape != Some(shape) {
                    return Some(format!(
                        "shape {} lists slab {idx} but the slab belongs to {:?}",
                        s.label, self.slabs[i].shape
                    ));
                }
                used_sum += self.slabs[i].used as u64;
            }
            if used_sum != s.used_blocks {
                return Some(format!(
                    "shape {}: per-slab used sum {} != used_blocks {}",
                    s.label, used_sum, s.used_blocks
                ));
            }
            let cap = s.slabs.len() as u64 * s.blocks_per_slab as u64;
            if s.used_blocks + s.free_blocks.len() as u64 != cap {
                return Some(format!(
                    "shape {}: used {} + free {} != assigned capacity {}",
                    s.label,
                    s.used_blocks,
                    s.free_blocks.len(),
                    cap
                ));
            }
        }
        if let Some(idx) = seen.iter().position(|&s| !s) {
            return Some(format!("slab {idx} is neither free nor assigned"));
        }

        // Block ledger, slab-major with the widest shape's stride.
        let stride = self
            .shapes
            .iter()
            .map(|s| s.blocks_per_slab)
            .max()
            .unwrap_or(0) as usize;
        let mut bits = vec![0u64; (self.slabs.len() * stride).div_ceil(64)];
        let mut held_in_slab = vec![0u32; self.slabs.len()];
        let mut mark = |shape: ShapeKey, b: BlockRef, role: &str| -> Option<String> {
            if self.slabs.get(b.slab as usize).map(|x| x.shape) != Some(Some(shape)) {
                return Some(format!(
                    "{role} block {b:?} lives outside the slabs of {shape:?}"
                ));
            }
            let s = &self.shapes[shape.0 as usize];
            if b.index >= s.blocks_per_slab {
                return Some(format!(
                    "shape {}: {role} block {b:?} out of slab range",
                    s.label
                ));
            }
            let bit = b.slab as usize * stride + b.index as usize;
            let (word, mask) = (bit / 64, 1u64 << (bit % 64));
            if bits[word] & mask != 0 {
                return Some(format!(
                    "shape {}: block {b:?} listed twice (again as {role})",
                    s.label
                ));
            }
            bits[word] |= mask;
            None
        };
        for (key, s) in self.shapes.iter().enumerate() {
            for &b in &s.free_blocks {
                if let Some(err) = mark(ShapeKey(key as u32), b, "free") {
                    return Some(err);
                }
            }
        }
        for (shape, blocks) in held {
            for &b in blocks {
                if let Some(err) = mark(shape, b, "held") {
                    return Some(err);
                }
                held_in_slab[b.slab as usize] += 1;
            }
        }
        for (idx, (slab, &held)) in self.slabs.iter().zip(&held_in_slab).enumerate() {
            if slab.used != held {
                return Some(format!(
                    "slab {idx}: pool counts {} used blocks but holders hold {held}",
                    slab.used
                ));
            }
        }
        None
    }

    /// Pool configuration.
    pub fn config(&self) -> SlabPoolConfig {
        self.cfg
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool(capacity_mb: u64, slab_mb: u64) -> SlabPool {
        SlabPool::new(SlabPoolConfig {
            capacity_bytes: capacity_mb << 20,
            slab_bytes: slab_mb << 20,
        })
    }

    #[test]
    fn alloc_prefers_existing_slabs() {
        let mut p = pool(64, 16);
        let k = p.register_shape("a", 1 << 20);
        let b1 = p.alloc(k, 3).unwrap();
        assert_eq!(p.slabs_in_use(), 1);
        let _b2 = p.alloc(k, 10).unwrap();
        assert_eq!(p.slabs_in_use(), 1, "16 blocks fit in one 16 MB slab");
        let _b3 = p.alloc(k, 4).unwrap();
        assert_eq!(p.slabs_in_use(), 2);
        p.free(k, &b1);
        assert_eq!(p.slabs_in_use(), 2, "partially used slabs stay assigned");
    }

    #[test]
    fn empty_slab_is_reclaimed_and_reassignable() {
        let mut p = pool(16, 16);
        let a = p.register_shape("a", 4 << 20);
        let b = p.register_shape("b", 2 << 20);
        let ba = p.alloc(a, 4).unwrap();
        assert!(p.alloc(b, 1).is_err(), "single slab is owned by shape a");
        p.free(a, &ba);
        assert_eq!(p.slabs_in_use(), 0);
        assert!(p.alloc(b, 8).is_ok(), "slab reassigned to shape b");
    }

    #[test]
    fn failed_alloc_leaves_pool_unchanged() {
        let mut p = pool(32, 16);
        let k = p.register_shape("a", 1 << 20);
        let got = p.alloc(k, 20).unwrap();
        let err = p.alloc(k, 13).unwrap_err();
        assert_eq!(err.available, 12);
        assert_eq!(p.used_blocks(k), 20);
        assert_eq!(got.len(), 20);
        assert_eq!(p.available_blocks(k), 12);
    }

    #[test]
    fn blocks_are_never_double_allocated() {
        let mut p = pool(64, 8);
        let a = p.register_shape("a", 1 << 20);
        let b = p.register_shape("b", 3 << 20);
        let mut live = std::collections::HashSet::new();
        let xa = p.alloc(a, 10).unwrap();
        let xb = p.alloc(b, 5).unwrap();
        for blk in xa.iter().chain(xb.iter()) {
            assert!(live.insert(*blk), "duplicate block {blk:?}");
        }
        p.free(a, &xa[..5]);
        let ya = p.alloc(a, 5).unwrap();
        for blk in &ya {
            assert!(!xa[5..].contains(blk), "reissued a live block");
        }
    }

    #[test]
    fn usage_reports_fragmentation() {
        let mut p = pool(64, 16);
        let k = p.register_shape("qwen", 4 << 20);
        let blocks = p.alloc(k, 1).unwrap();
        let u = &p.usage()[0];
        assert_eq!(u.allocated_bytes, 16 << 20);
        assert_eq!(u.used_bytes, 4 << 20);
        assert!((u.fragmentation() - 0.75).abs() < 1e-9);
        p.free(k, &blocks);
        let u = &p.usage()[0];
        assert_eq!(u.fragmentation(), 0.0);
        assert_eq!(u.peak_allocated_bytes, 16 << 20);
    }

    #[test]
    fn capacity_rounds_down_to_whole_slabs() {
        let p = SlabPool::new(SlabPoolConfig {
            capacity_bytes: 100,
            slab_bytes: 30,
        });
        assert_eq!(p.total_slabs(), 3);
    }

    #[test]
    fn audit_accepts_every_reachable_state() {
        let mut p = pool(64, 8);
        assert_eq!(p.audit([]), None);
        let a = p.register_shape("a", 1 << 20);
        let b = p.register_shape("b", 3 << 20);
        let xa = p.alloc(a, 10).unwrap();
        let xb = p.alloc(b, 5).unwrap();
        assert_eq!(p.audit([(a, &xa[..]), (b, &xb[..])]), None);
        p.free(a, &xa[..7]);
        assert_eq!(p.audit([(a, &xa[7..]), (b, &xb[..])]), None);
        p.free(b, &xb);
        p.free(a, &xa[7..]);
        assert_eq!(p.audit([]), None);
        assert_eq!(p.slabs_in_use(), 0);
    }

    #[test]
    fn audit_balances_holders_against_the_pool_block_by_block() {
        let mut p = pool(64, 8);
        let a = p.register_shape("a", 1 << 20);
        let b = p.register_shape("b", 3 << 20);
        let xa = p.alloc(a, 10).unwrap();
        let xb = p.alloc(b, 2).unwrap();
        let err = |p: &SlabPool, held: &[(ShapeKey, &[BlockRef])]| {
            p.audit(held.iter().copied()).expect("violation detected")
        };
        // A leaked block: the pool counts it used, nobody holds it.
        assert!(err(&p, &[(a, &xa[1..]), (b, &xb[..])]).contains("holders hold"));
        // One block held twice.
        let twice = [xa.clone(), vec![xa[0]]].concat();
        assert!(err(&p, &[(a, &twice[..]), (b, &xb[..])]).contains("listed twice"));
        // A held block filed under the wrong shape.
        assert!(err(&p, &[(a, &xa[..]), (a, &xb[..])]).contains("lives outside the slabs"));
        // Use after free: a held block also sits on the free list.
        p.free(a, &xa[..1]);
        assert!(err(&p, &[(a, &xa[..]), (b, &xb[..])]).contains("again as held"));
        assert_eq!(p.audit([(a, &xa[1..]), (b, &xb[..])]), None);
        // A block that is neither free nor counted used.
        p.shapes[a.0 as usize].free_blocks.pop();
        assert!(err(&p, &[(a, &xa[1..]), (b, &xb[..])]).contains("assigned capacity"));
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn oversized_block_panics() {
        let mut p = pool(16, 16);
        let _ = p.register_shape("huge", 17 << 20);
    }
}
