//! The shared host-DRAM Model Cache.
//!
//! Raw tensor chunks of model checkpoints are cached in a shared host-memory
//! region (Figure 9: "Model Cache, 640 GB") so that scale-ups hit DRAM
//! instead of the remote registry. Eviction is LRU; models currently being
//! loaded onto a GPU are pinned and cannot be evicted.

use std::collections::HashMap;

/// LRU cache of model weights in host memory.
///
/// Keys are caller-chosen `u32` model identifiers.
///
/// # Examples
///
/// ```
/// use aegaeon_mem::ModelCache;
///
/// let mut cache = ModelCache::new(40);
/// assert!(cache.insert(0, 26).is_ok());
/// assert!(cache.insert(1, 14).is_ok());
/// assert!(cache.contains(0));
/// // Inserting a third model evicts the least recently used one.
/// cache.touch(0);
/// assert!(cache.insert(2, 14).is_ok());
/// assert!(!cache.contains(1));
/// assert!(cache.contains(0));
/// ```
#[derive(Debug, Clone)]
pub struct ModelCache {
    capacity: u64,
    used: u64,
    entries: HashMap<u32, Entry>,
    clock: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    last_use: u64,
    pins: u32,
}

/// Error: a model cannot be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFull {
    /// Bytes requested.
    pub requested: u64,
    /// Bytes that could be made free by evicting all unpinned entries.
    pub reclaimable: u64,
}

impl std::fmt::Display for CacheFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model cache full: need {} bytes, only {} reclaimable",
            self.requested, self.reclaimable
        )
    }
}

impl std::error::Error for CacheFull {}

impl ModelCache {
    /// Creates a cache with the given capacity in bytes.
    pub fn new(capacity: u64) -> Self {
        ModelCache {
            capacity,
            used: 0,
            entries: HashMap::new(),
            clock: 0,
        }
    }

    /// True if `model` is resident. Does not update recency.
    pub fn contains(&self, model: u32) -> bool {
        self.entries.contains_key(&model)
    }

    /// Looks `model` up, updating recency.
    pub fn lookup(&mut self, model: u32) -> bool {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&model) {
            e.last_use = self.clock;
            true
        } else {
            false
        }
    }

    /// Marks `model` as recently used.
    pub fn touch(&mut self, model: u32) {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&model) {
            e.last_use = self.clock;
        }
    }

    /// Inserts `model` (`bytes` large), evicting LRU unpinned entries as
    /// needed. Inserting a resident model only refreshes recency.
    pub fn insert(&mut self, model: u32, bytes: u64) -> Result<(), CacheFull> {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&model) {
            e.last_use = self.clock;
            return Ok(());
        }
        let reclaimable: u64 = self.capacity - self.used
            + self
                .entries
                .values()
                .filter(|e| e.pins == 0)
                .map(|e| e.bytes)
                .sum::<u64>();
        if bytes > reclaimable {
            return Err(CacheFull {
                requested: bytes,
                reclaimable,
            });
        }
        while self.used + bytes > self.capacity {
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.pins == 0)
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&k, _)| k)
                .expect("reclaimable check guarantees an unpinned victim");
            let e = self.entries.remove(&victim).expect("victim exists");
            self.used -= e.bytes;
        }
        self.used += bytes;
        self.entries.insert(
            model,
            Entry {
                bytes,
                last_use: self.clock,
                pins: 0,
            },
        );
        Ok(())
    }

    /// Pins a resident model against eviction (reference counted).
    ///
    /// Returns false if the model is not resident.
    pub fn pin(&mut self, model: u32) -> bool {
        if let Some(e) = self.entries.get_mut(&model) {
            e.pins += 1;
            true
        } else {
            false
        }
    }

    /// Releases one pin.
    ///
    /// # Panics
    ///
    /// Panics if the model is not resident or not pinned.
    pub fn unpin(&mut self, model: u32) {
        let e = self
            .entries
            .get_mut(&model)
            .expect("unpinning a non-resident model");
        assert!(e.pins > 0, "unpin without matching pin");
        e.pins -= 1;
    }

    /// Bytes in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_eviction_order() {
        let mut c = ModelCache::new(30);
        c.insert(1, 10).unwrap();
        c.insert(2, 10).unwrap();
        c.insert(3, 10).unwrap();
        c.touch(1); // order now: 2 (oldest), 3, 1
        c.insert(4, 15).unwrap(); // evicts 2 and 3
        assert!(!c.contains(2));
        assert!(!c.contains(3));
        assert!(c.contains(1));
        assert!(c.contains(4));
    }

    #[test]
    fn pinned_models_survive_eviction() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(2, 10).unwrap();
        assert!(c.pin(1));
        c.touch(2);
        // 1 is LRU but pinned; 2 must be evicted instead.
        c.insert(3, 10).unwrap();
        assert!(c.contains(1));
        assert!(!c.contains(2));
        c.unpin(1);
    }

    #[test]
    fn insert_fails_when_pins_block_reclaim() {
        let mut c = ModelCache::new(20);
        c.insert(1, 15).unwrap();
        c.pin(1);
        let err = c.insert(2, 10).unwrap_err();
        assert_eq!(err.reclaimable, 5);
        c.unpin(1);
        assert!(c.insert(2, 10).is_ok());
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(1, 10).unwrap();
        assert_eq!(c.used(), 10);
    }

    #[test]
    fn lookup_reports_residency() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        assert!(c.lookup(1));
        assert!(!c.lookup(2));
    }

    #[test]
    fn lookup_refreshes_recency() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(2, 10).unwrap();
        assert!(c.lookup(1)); // order now: 2 (oldest), 1
        c.insert(3, 10).unwrap();
        assert!(c.contains(1));
        assert!(!c.contains(2));
        assert_eq!(c.used(), 20);
    }

    #[test]
    fn missed_lookup_changes_nothing() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(2, 10).unwrap();
        assert!(!c.lookup(3));
        assert!(!c.contains(3));
        assert_eq!(c.used(), 20);
        // 1 is still the eviction victim.
        c.insert(4, 10).unwrap();
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }
}
