//! The shared host-DRAM Model Cache.
//!
//! Raw tensor chunks of model checkpoints are cached in a shared host-memory
//! region (Figure 9: "Model Cache, 640 GB") so that scale-ups hit DRAM
//! instead of the remote registry. Eviction is LRU over every resident entry.

use std::collections::BTreeMap;

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
    entries: BTreeMap<u32, Entry>,
    clock: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    bytes: u64,
    last_use: u64,
}

/// Error: a model cannot be admitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheFull {
    /// Bytes requested.
    pub(crate) requested: u64,
    /// Cache capacity: the most any eviction can free.
    pub(crate) capacity: u64,
}

impl std::fmt::Display for CacheFull {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "model cache full: need {} bytes, capacity is {}",
            self.requested, self.capacity
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
            entries: BTreeMap::new(),
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

    /// Inserts `model` (`bytes` large), evicting LRU entries as needed.
    /// Inserting a resident model only refreshes recency; a model larger
    /// than the whole cache is refused.
    pub fn insert(&mut self, model: u32, bytes: u64) -> Result<(), CacheFull> {
        self.clock += 1;
        if let Some(e) = self.entries.get_mut(&model) {
            e.last_use = self.clock;
            return Ok(());
        }
        if bytes > self.capacity {
            return Err(CacheFull {
                requested: bytes,
                capacity: self.capacity,
            });
        }
        while self.used + bytes > self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(&k, _)| k)
                .expect("capacity check guarantees a victim");
            let e = self.entries.remove(&victim).expect("victim exists");
            self.used -= e.bytes;
        }
        self.used += bytes;
        self.entries.insert(
            model,
            Entry {
                bytes,
                last_use: self.clock,
            },
        );
        Ok(())
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
    fn insert_fails_only_when_larger_than_capacity() {
        let mut c = ModelCache::new(20);
        c.insert(1, 15).unwrap();
        let err = c.insert(2, 21).unwrap_err();
        assert_eq!(err, CacheFull { requested: 21, capacity: 20 });
        assert_eq!(err.to_string(), "model cache full: need 21 bytes, capacity is 20");
        assert!(c.contains(1), "a refused insert evicts nothing");
        // Exactly the capacity fits, by evicting everything else.
        assert!(c.insert(2, 20).is_ok());
        assert!(!c.contains(1));
        assert_eq!(c.used, 20);
    }

    #[test]
    fn touching_an_absent_model_changes_nothing() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(2, 10).unwrap();
        c.touch(3);
        assert!(!c.contains(3));
        assert_eq!(c.used, 20);
        // 1 is still the eviction victim.
        c.insert(4, 10).unwrap();
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }

    #[test]
    fn reinsert_refreshes_without_growth() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(1, 10).unwrap();
        assert_eq!(c.used, 10);
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
        assert_eq!(c.used, 20);
    }

    #[test]
    fn missed_lookup_changes_nothing() {
        let mut c = ModelCache::new(20);
        c.insert(1, 10).unwrap();
        c.insert(2, 10).unwrap();
        assert!(!c.lookup(3));
        assert!(!c.contains(3));
        assert_eq!(c.used, 20);
        // 1 is still the eviction victim.
        c.insert(4, 10).unwrap();
        assert!(!c.contains(1));
        assert!(c.contains(2));
    }
}
