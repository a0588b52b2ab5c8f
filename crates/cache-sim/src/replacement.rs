//! Per-set LRU state of the general cache simulator.

/// Storage and LRU bookkeeping for one cache set.
///
/// Blocks are identified by their full block address, so the simulation is
/// correct for any index function without needing an explicit tag function
/// (the hardware tag-function question is handled by the cost model in the
/// `xorindex` crate).
#[derive(Debug, Clone)]
pub(crate) struct CacheSet {
    /// Resident blocks, most recently used last.
    blocks: Vec<u64>,
    ways: usize,
}

/// Result of inserting a block into a set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SetAccess {
    /// The block was already resident.
    Hit,
    /// The block was inserted into a free way.
    MissFilled,
    /// The block was inserted after evicting the returned block.
    MissEvicted(u64),
}

impl CacheSet {
    pub(crate) fn new(ways: usize) -> Self {
        CacheSet {
            blocks: Vec::with_capacity(ways),
            ways,
        }
    }

    pub(crate) fn contains(&self, block: u64) -> bool {
        self.blocks.contains(&block)
    }

    pub(crate) fn access(&mut self, block: u64) -> SetAccess {
        if let Some(pos) = self.blocks.iter().position(|&b| b == block) {
            // Move to the most-recently-used end.
            let b = self.blocks.remove(pos);
            self.blocks.push(b);
            return SetAccess::Hit;
        }
        if self.blocks.len() < self.ways {
            self.blocks.push(block);
            return SetAccess::MissFilled;
        }
        // The least recently used block sits at the front.
        let victim = self.blocks.remove(0);
        self.blocks.push(block);
        SetAccess::MissEvicted(victim)
    }

    pub(crate) fn flush(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direct_mapped_set_always_evicts_on_conflict() {
        let mut set = CacheSet::new(1);
        assert_eq!(set.access(1), SetAccess::MissFilled);
        assert_eq!(set.access(1), SetAccess::Hit);
        assert_eq!(set.access(2), SetAccess::MissEvicted(1));
        assert!(set.contains(2));
        assert!(!set.contains(1));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut set = CacheSet::new(2);
        set.access(1);
        set.access(2);
        // Touch 1 so 2 becomes LRU.
        assert_eq!(set.access(1), SetAccess::Hit);
        assert_eq!(set.access(3), SetAccess::MissEvicted(2));
    }

    #[test]
    fn flush_empties_the_set() {
        let mut set = CacheSet::new(2);
        set.access(1);
        set.flush();
        assert!(!set.contains(1));
        assert_eq!(set.access(1), SetAccess::MissFilled);
    }
}
