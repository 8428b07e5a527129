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

use crate::Journal;

/// A registered KV-cache shape class within one [`SlabPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShapeKey(pub(crate) u32);

/// A block handle: slab index plus block index within the slab.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockRef {
    /// Slab index within the pool.
    pub(crate) slab: u32,
    /// Block index within the slab.
    pub(crate) index: u32,
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
    pub(crate) shape: ShapeKey,
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

/// One change the pool made to its side of the ledger, in the order it made
/// them (see [`SlabPool::touches`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTouch {
    /// A free block of the shape was handed out.
    Alloc(ShapeKey, BlockRef),
    /// A block came back to the shape's free list.
    Free(ShapeKey, BlockRef),
    /// A free slab was assigned to the shape; all its blocks became free.
    Assign(ShapeKey, u32),
    /// An empty slab of the shape went back to the shared free list.
    Unassign(ShapeKey, u32),
}

/// Per-shape usage snapshot (drives the Figure 16 fragmentation report).
#[derive(Debug, Clone)]
pub struct ShapeUsage {
    /// Shape label given at registration.
    pub(crate) label: String,
    /// Bytes in slabs currently assigned to the shape.
    pub allocated_bytes: u64,
    /// Bytes in blocks currently in use.
    pub used_bytes: u64,
    /// Peak bytes ever assigned to the shape.
    pub peak_allocated_bytes: u64,
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
    /// Every change since the last [`Self::clear_touches`], in order.
    touches: Vec<PoolTouch>,
    /// Marked whenever `touches` grows; says whether it records at all.
    journal: Journal,
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
            touches: Vec::new(),
            journal: Journal::default(),
        }
    }

    /// Logs into `journal`'s set: marks it whenever the touch log grows,
    /// and records only while it does.
    pub fn join(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// Appends `t` to the touch log while the journal records.
    #[inline]
    fn log(&mut self, t: PoolTouch) {
        if self.journal.recording() {
            self.touches.push(t);
            self.journal.mark();
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
                self.log(PoolTouch::Alloc(shape, b));
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
    /// Panics on freeing a block whose slab is not assigned to `shape`, and
    /// on freeing more blocks from a slab than it has in use (a double
    /// free).
    pub fn free(&mut self, shape: ShapeKey, blocks: &[BlockRef]) {
        let si = shape.0 as usize;
        let mut emptied: Vec<u32> = Vec::new();
        for &b in blocks {
            let slab = &mut self.slabs[b.slab as usize];
            assert_eq!(
                slab.shape,
                Some(shape),
                "freeing block {b:?} into the wrong shape"
            );
            assert!(slab.used > 0, "double free of {b:?}");
            slab.used -= 1;
            if slab.used == 0 {
                emptied.push(b.slab);
            }
            self.shapes[si].used_blocks -= 1;
            self.shapes[si].free_blocks.push(b);
            self.log(PoolTouch::Free(shape, b));
        }
        for slab_idx in emptied {
            self.unassign_slab(slab_idx, shape);
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
        self.log(PoolTouch::Assign(shape, slab_idx));
    }

    fn unassign_slab(&mut self, slab_idx: u32, shape: ShapeKey) {
        let si = shape.0 as usize;
        let s = &mut self.shapes[si];
        s.free_blocks.retain(|b| b.slab != slab_idx);
        s.slabs.retain(|&x| x != slab_idx);
        self.slabs[slab_idx as usize].shape = None;
        self.free_slabs.push(slab_idx);
        self.log(PoolTouch::Unassign(shape, slab_idx));
    }

    /// Every block and slab the pool handed out or took back since the last
    /// [`Self::clear_touches`], in order: the pool's side of the touch log
    /// a [`SlabShadow`] applies.
    #[inline]
    pub fn touches(&self) -> &[PoolTouch] {
        &self.touches
    }

    /// Block allocations and frees in [`Self::touches`].
    pub fn block_ops(&self) -> usize {
        self.touches
            .iter()
            .filter(|t| matches!(t, PoolTouch::Alloc(..) | PoolTouch::Free(..)))
            .count()
    }

    /// Empties the touch log.
    #[inline]
    pub fn clear_touches(&mut self) {
        self.touches.clear();
    }

    /// Number of slabs currently assigned to any shape.
    pub fn slabs_in_use(&self) -> usize {
        self.slabs.len() - self.free_slabs.len()
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
}

/// The pool's side of one block slot, as the pool's touch log left it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
enum Side {
    /// The slot's slab is not assigned to a shape that has this block.
    #[default]
    Absent,
    /// On its shape's free list.
    Free,
    /// Handed out by [`SlabPool::alloc`].
    Used,
}

/// One block slot of a [`SlabShadow`]: the pool's side and the owner side.
#[derive(Debug, Clone, Copy)]
struct Slot {
    side: Side,
    /// Holders holding the block (1 when used, 0 when not).
    held: i8,
    /// The last [`SlabShadow::apply`] that touched the slot.
    seen: u32,
    /// The shape of the last holder that gained the block during the
    /// current [`SlabShadow::apply`] ([`NOT_FILED`] when none did).
    filed: u32,
}

impl Default for Slot {
    fn default() -> Slot {
        Slot {
            side: Side::Absent,
            held: 0,
            seen: 0,
            filed: NOT_FILED,
        }
    }
}

/// [`Slot::filed`] when no holder gained the block.
const NOT_FILED: u32 = u32::MAX;

/// An auditor's running copy of one [`SlabPool`]'s double-entry ledger,
/// kept in step by the touch logs instead of re-derived from the pool.
///
/// [`SlabPool::audit`] checks the whole ledger in one dense pass. A shadow
/// is seeded from the state such a pass accepted ([`Self::seed`]); after
/// every event [`Self::apply`] replays the pool's log ([`SlabPool::touches`])
/// and the holders' log (blocks each holder gained or lost) and checks only
/// what they touched:
///
/// - each touched block is free or held exactly once, and a held block
///   lives in a slab of the shape its holder filed it under;
/// - each touched slab has the shape its log says, and its `used` count
///   equals the blocks its holders hold;
/// - for each shape the pool's log touched, the pool's used count equals
///   the log's, and used + free equals the assigned capacity.
///
/// The work is proportional to the blocks an event touched, and the memory
/// to the slabs ever assigned, not to the pool's capacity.
#[derive(Debug, Clone, Default)]
pub struct SlabShadow {
    /// Per slab.
    rows: Vec<Row>,
    /// Per shape, blocks per slab, and the blocks the pool's log handed out
    /// and did not take back.
    bps: Vec<u32>,
    used: Vec<u64>,
    /// Counts [`Self::apply`] calls, stamping the slots each one touched
    /// (it skips 0, the stamp of a slot never touched).
    applies: u32,
    /// Scratch for one [`Self::apply`]: the blocks it touched, each once,
    /// and the slabs and shapes its pool log touched.
    touched: Vec<BlockRef>,
    slabs: Vec<u32>,
    shapes: Vec<ShapeKey>,
}

/// One slab of a [`SlabShadow`].
#[derive(Debug, Clone, Default)]
struct Row {
    /// The shape the pool's log last assigned the slab to.
    shape: Option<ShapeKey>,
    /// The blocks its holders hold.
    held: i64,
    /// Its block slots: as many as the widest shape it was ever assigned
    /// to has blocks per slab (none for a slab never assigned).
    slots: Vec<Slot>,
}

impl SlabShadow {
    /// A shadow of `pool` and its holders' blocks `held` as they are now.
    /// The state should be one [`SlabPool::audit`] accepts: the shadow
    /// copies it without checking.
    pub fn seed<'a>(
        pool: &SlabPool,
        held: impl IntoIterator<Item = (ShapeKey, &'a [BlockRef])>,
    ) -> SlabShadow {
        let mut sh = SlabShadow {
            used: pool.shapes.iter().map(|s| s.used_blocks).collect(),
            ..SlabShadow::default()
        };
        sh.sync_shapes(pool);
        let used = Slot {
            side: Side::Used,
            ..Slot::default()
        };
        sh.rows = (pool.slabs.iter())
            .map(|slab| Row {
                shape: slab.shape,
                held: 0,
                slots: slab
                    .shape
                    .map_or(Vec::new(), |k| vec![used; sh.bps[k.0 as usize] as usize]),
            })
            .collect();
        for s in &pool.shapes {
            for &b in &s.free_blocks {
                if let Some(slot) = sh.slot(b) {
                    slot.side = Side::Free;
                }
            }
        }
        for (_, blocks) in held {
            for &b in blocks {
                if let Some(slot) = sh.slot(b) {
                    slot.held = slot.held.wrapping_add(1);
                    sh.rows[b.slab as usize].held += 1;
                }
            }
        }
        sh
    }

    /// Picks up shapes registered since the last call.
    fn sync_shapes(&mut self, pool: &SlabPool) {
        let known = self.bps.len();
        self.bps
            .extend(pool.shapes[known..].iter().map(|s| s.blocks_per_slab));
        self.used.resize(pool.shapes.len(), 0);
    }

    /// The slot of `b`; `None` when its slab was never assigned a shape
    /// with that many blocks, or lies outside the pool.
    fn slot(&mut self, b: BlockRef) -> Option<&mut Slot> {
        let row = self.rows.get_mut(b.slab as usize)?;
        row.slots.get_mut(b.index as usize)
    }

    /// Replays one event's logs — the pool's [`SlabPool::touches`], then
    /// `held`, each block a holder gained (`true`) or lost (`false`) — and
    /// checks the double entry of every block, slab and shape they touched.
    /// Returns the number of block allocations and frees replayed, or the
    /// first inconsistency. After an error the shadow is no longer in step
    /// with the pool and must be re-seeded.
    pub fn apply<'a>(
        &mut self,
        pool: &SlabPool,
        held: impl IntoIterator<Item = (ShapeKey, &'a [BlockRef], bool)>,
    ) -> Result<usize, String> {
        self.touched.clear();
        self.slabs.clear();
        self.shapes.clear();
        self.applies = self.applies.wrapping_add(1).max(1);
        if self.bps.len() != pool.shapes.len() {
            self.sync_shapes(pool);
        }
        let mut ops = 0;
        for &t in pool.touches() {
            match t {
                PoolTouch::Alloc(k, b) => {
                    ops += 1;
                    self.hand(k, b, Side::Free, Side::Used)?;
                    self.used[k.0 as usize] += 1;
                }
                PoolTouch::Free(k, b) => {
                    ops += 1;
                    self.hand(k, b, Side::Used, Side::Free)?;
                    self.used[k.0 as usize] -= 1;
                }
                PoolTouch::Assign(k, slab) => self.reassign(k, slab, true)?,
                PoolTouch::Unassign(k, slab) => self.reassign(k, slab, false)?,
            }
        }
        for (k, blocks, gained) in held {
            let d = if gained { 1 } else { -1 };
            for &b in blocks {
                let stamp = self.applies;
                let row = self.rows.get_mut(b.slab as usize);
                let Some(slot) = row.and_then(|r| {
                    r.held += d as i64;
                    r.slots.get_mut(b.index as usize)
                }) else {
                    return Err(format!("held block {b:?} lies in no assigned slab"));
                };
                slot.held = slot.held.wrapping_add(d);
                if slot.seen != stamp {
                    slot.seen = stamp;
                    self.touched.push(b);
                }
                if gained {
                    slot.filed = k.0;
                }
            }
        }
        let mut last_slab = u32::MAX;
        for &b in &self.touched {
            let row = &mut self.rows[b.slab as usize];
            let slot = &mut row.slots[b.index as usize];
            let s = *slot;
            slot.filed = NOT_FILED;
            if !matches!(
                (s.side, s.held),
                (Side::Used, 1) | (Side::Free | Side::Absent, 0)
            ) {
                return Err(unbalanced(b, s));
            }
            let real = &pool.slabs[b.slab as usize];
            if s.held == 1 && s.filed != NOT_FILED && real.shape != Some(ShapeKey(s.filed)) {
                let k = ShapeKey(s.filed);
                return Err(format!("held block {b:?} lives outside the slabs of {k:?}"));
            }
            if last_slab != b.slab {
                last_slab = b.slab;
                check_slab(b.slab, real, row)?;
            }
        }
        for &i in &self.slabs {
            check_slab(i, &pool.slabs[i as usize], &self.rows[i as usize])?;
        }
        for &k in &self.shapes {
            let s = &pool.shapes[k.0 as usize];
            if s.used_blocks != self.used[k.0 as usize] {
                return Err(format!(
                    "shape {}: pool counts {} used blocks, its log {}",
                    s.label, s.used_blocks, self.used[k.0 as usize]
                ));
            }
            let cap = s.slabs.len() as u64 * s.blocks_per_slab as u64;
            if s.used_blocks + s.free_blocks.len() as u64 != cap {
                return Err(format!(
                    "shape {}: used {} + free {} != assigned capacity {}",
                    s.label,
                    s.used_blocks,
                    s.free_blocks.len(),
                    cap
                ));
            }
        }
        Ok(ops)
    }

    /// Replays the pool handing block `b` of shape `k` out (`from` free
    /// `to` used) or taking it back.
    #[inline]
    fn hand(&mut self, k: ShapeKey, b: BlockRef, from: Side, to: Side) -> Result<(), String> {
        if self.shapes.last() != Some(&k) {
            self.shapes.push(k);
        }
        let bps = self.bps[k.0 as usize];
        let row = self.rows.get_mut(b.slab as usize);
        let row = row.filter(|r| r.shape == Some(k) && b.index < bps);
        let Some(slot) = row.and_then(|r| r.slots.get_mut(b.index as usize)) else {
            return Err(misplaced(
                b,
                from,
                to,
                format!("outside the slabs of {k:?}"),
            ));
        };
        if slot.side != from {
            return Err(misplaced(b, from, to, format!("while {:?}", slot.side)));
        }
        slot.side = to;
        if slot.seen != self.applies {
            slot.seen = self.applies;
            self.touched.push(b);
        }
        Ok(())
    }

    /// Replays the pool assigning `slab` to shape `k`, or releasing it.
    fn reassign(&mut self, k: ShapeKey, slab: u32, assign: bool) -> Result<(), String> {
        let (from, to, what) = if assign {
            (None, Some(k), "assigned to")
        } else {
            (Some(k), None, "released by")
        };
        let bps = self.bps[k.0 as usize] as usize;
        let row = self.rows.get_mut(slab as usize);
        let Some(row) = row.filter(|r| r.shape == from) else {
            return Err(format!("slab {slab} {what} {k:?} against its log"));
        };
        row.shape = to;
        if row.slots.len() < bps {
            row.slots.resize(bps, Slot::default());
        }
        for (j, s) in row.slots.iter_mut().enumerate() {
            s.side = match (s.side, assign) {
                (Side::Absent, _) if j >= bps => continue,
                (Side::Absent, true) => Side::Free,
                (Side::Free, false) => Side::Absent,
                (side, _) => {
                    return Err(format!("slab {slab} {what} {k:?} with block {j} {side:?}"))
                }
            };
        }
        self.slabs.push(slab);
        self.shapes.push(k);
        Ok(())
    }
}

/// Slab `i`'s shape and used count in the pool (`real`) against its
/// shadow `row`.
fn check_slab(i: u32, real: &Slab, row: &Row) -> Result<(), String> {
    if real.shape != row.shape {
        return Err(format!(
            "slab {i}: pool has it at {:?}, its log at {:?}",
            real.shape, row.shape
        ));
    }
    if real.used as i64 != row.held {
        return Err(format!(
            "slab {i}: pool counts {} used blocks but holders hold {}",
            real.used, row.held
        ));
    }
    Ok(())
}

/// Describes a block the pool moved `from` one side `to` another where it
/// could not (`why`).
#[cold]
fn misplaced(b: BlockRef, from: Side, to: Side, why: String) -> String {
    format!("block {b:?} moved {from:?} to {to:?} {why}")
}

/// Describes a block whose two sides disagree.
#[cold]
fn unbalanced(b: BlockRef, s: Slot) -> String {
    match (s.side, s.held) {
        (_, n) if n > 1 => format!("block {b:?} held {n} times"),
        (_, n) if n < 0 => format!("block {b:?} released more often than held"),
        (Side::Used, _) => format!("block {b:?} is in use but no holder holds it"),
        (Side::Free, _) => format!("held block {b:?} is also free"),
        (Side::Absent, _) => format!("held block {b:?} lies in no assigned slab"),
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
        p.free(k, &blocks);
        let u = &p.usage()[0];
        assert_eq!(u.used_bytes, 0);
        assert_eq!(u.peak_allocated_bytes, 16 << 20);
    }

    #[test]
    fn capacity_rounds_down_to_whole_slabs() {
        let mut p = SlabPool::new(SlabPoolConfig {
            capacity_bytes: 100,
            slab_bytes: 30,
        });
        // One 30-byte block per slab: the blocks obtainable are the slabs.
        let k = p.register_shape("a", 30);
        assert_eq!(p.available_blocks(k), 3);
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

    /// A pool with shapes `a` (1 MB blocks, 8 per slab) and `b` (3 MB, 2
    /// per slab), ten blocks of `a` and two of `b` held, and a shadow seeded
    /// from that state with the pool's log cleared.
    fn shadowed() -> (
        SlabPool,
        [ShapeKey; 2],
        Vec<BlockRef>,
        Vec<BlockRef>,
        SlabShadow,
    ) {
        let mut p = pool(64, 8);
        let a = p.register_shape("a", 1 << 20);
        let b = p.register_shape("b", 3 << 20);
        let xa = p.alloc(a, 10).unwrap();
        let xb = p.alloc(b, 2).unwrap();
        let sh = SlabShadow::seed(&p, [(a, &xa[..]), (b, &xb[..])]);
        p.clear_touches();
        (p, [a, b], xa, xb, sh)
    }

    #[test]
    fn shadow_replays_every_reachable_state() {
        let (mut p, [a, b], xa, xb, mut sh) = shadowed();
        assert_eq!(sh.apply(&p, []), Ok(0), "an empty log checks nothing");
        // Free a whole slab of `a` back to the shared list, reuse it for
        // `b`, and hand out blocks freed the same event.
        p.free(a, &xa[..8]);
        let yb = p.alloc(b, 3).unwrap();
        let ya = p.alloc(a, 2).unwrap();
        let held = [(a, &xa[..8], false), (b, &yb[..], true), (a, &ya[..], true)];
        assert_eq!(sh.apply(&p, held), Ok(13));
        p.clear_touches();
        // A move between holders touches no pool block.
        assert_eq!(
            sh.apply(&p, [(a, &ya[..], false), (a, &ya[..], true)]),
            Ok(0)
        );
        p.free(a, &xa[8..]);
        p.free(a, &ya);
        p.free(b, &xb);
        p.free(b, &yb);
        let gone = [
            (a, &xa[8..], false),
            (a, &ya[..], false),
            (b, &xb[..], false),
        ];
        assert_eq!(
            sh.apply(&p, gone.into_iter().chain([(b, &yb[..], false)])),
            Ok(9)
        );
        assert_eq!(p.slabs_in_use(), 0);
    }

    /// The dense audit's violation classes, each caught by the incremental
    /// check on the event that causes it.
    #[test]
    fn shadow_flags_each_violation_on_its_event() {
        let err = |r: Result<usize, String>, what: &str| {
            let e = r.expect_err("violation detected");
            assert!(e.contains(what), "{e}");
        };
        // A leak: the pool hands out a block no holder logs.
        let (mut p, [a, _], _, _, mut sh) = shadowed();
        p.alloc(a, 1).unwrap();
        err(sh.apply(&p, []), "no holder holds it");
        // One block held twice.
        let (p, [a, _], xa, _, mut sh) = shadowed();
        err(sh.apply(&p, [(a, &xa[..1], true)]), "held 2 times");
        // A held block filed under the wrong shape.
        let (mut p, [a, b], _, _, mut sh) = shadowed();
        let yb = p.alloc(b, 1).unwrap();
        err(
            sh.apply(&p, [(a, &yb[..], true)]),
            "lives outside the slabs",
        );
        // Use after free: a held block goes back to the free list.
        let (mut p, [a, _], xa, _, mut sh) = shadowed();
        p.free(a, &xa[..1]);
        err(sh.apply(&p, []), "also free");
        // The pool frees one block while its holder lets go of another: the
        // slab's counts balance, the blocks do not.
        let (mut p, [a, _], xa, _, mut sh) = shadowed();
        p.free(a, &xa[..1]);
        err(sh.apply(&p, [(a, &xa[1..2], false)]), "also free");
        // A block that is neither free nor counted used.
        let (mut p, [a, _], _, _, mut sh) = shadowed();
        p.shapes[a.0 as usize].free_blocks.pop();
        let ya = p.alloc(a, 1).unwrap();
        err(sh.apply(&p, [(a, &ya[..], true)]), "assigned capacity");
    }

    #[test]
    fn logs_mark_their_journal_and_stop_while_it_is_off() {
        let root = Journal::default();
        let mut p = pool(16, 8);
        p.join(root.member(2));
        let k = p.register_shape("a", 1 << 20);
        let x = p.alloc(k, 2).unwrap();
        assert_eq!(root.take(), 1 << 2, "an allocation marks the book");
        p.free(k, &x);
        assert_eq!(root.take(), 1 << 2, "a free marks the book");
        assert_eq!(p.block_ops(), 4);
        p.clear_touches();
        root.record(false);
        let x = p.alloc(k, 2).unwrap();
        p.free(k, &x);
        assert!(p.touches().is_empty() && root.marked() == 0);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_every_build() {
        let mut p = pool(16, 16);
        let k = p.register_shape("a", 1 << 20);
        let x = p.alloc(k, 1).unwrap();
        p.free(k, &[x[0], x[0]]);
    }

    #[test]
    #[should_panic(expected = "block size")]
    fn oversized_block_panics() {
        let mut p = pool(16, 16);
        let _ = p.register_shape("huge", 17 << 20);
    }

    #[test]
    fn total_used_bytes_matches_the_usage_snapshot() {
        let mut p = pool(64, 16);
        let a = p.register_shape("a", 4 << 20);
        let b = p.register_shape("b", 2 << 20);
        assert_eq!((p.block_bytes(a), p.block_bytes(b)), (4 << 20, 2 << 20));
        let xa = p.alloc(a, 3).unwrap();
        let _xb = p.alloc(b, 5).unwrap();
        let from_usage: u64 = p.usage().iter().map(|u| u.used_bytes).sum();
        assert_eq!(p.total_used_bytes(), from_usage);
        assert_eq!(p.total_used_bytes(), 3 * (4 << 20) + 5 * (2 << 20));
        p.free(a, &xa);
        assert_eq!(p.total_used_bytes(), 5 * (2 << 20));
    }
}
