//! Shared 3C pre-classification of a block-address trace.
//!
//! The reuse class of an access (cold / near / far with respect to a
//! fully-associative LRU cache of the simulated capacity) depends only on the
//! trace and the cache geometry — *not* on the index function. The classical
//! consequence, which the paper's verification step leans on, is that
//! compulsory and capacity misses are index-function-independent: only
//! conflict behaviour changes per candidate function.
//!
//! [`ReuseStream`] exploits that by classifying the trace **once** per
//! (trace, geometry) and recording one compact reuse-class code per access.
//! Replaying `k` candidate index functions then pays the classification once
//! instead of `k` times; each replay only needs the per-access code to turn
//! its own misses into 3C classes.
//!
//! The classification simulates the fully-associative LRU cache itself
//! rather than walking [`MissClassifier`]'s LRU stack: an LRU cache of `c`
//! blocks holds exactly the top `c` entries of the stack, so "resident" is
//! "stack distance < `c`", the classifier's near boundary. Blocks are mapped
//! to dense `u32` ids by an open-addressed table, and the resident blocks sit
//! on an id-indexed doubly linked recency list, so every access is O(1).
//! [`MissClassifier`] stays the oracle the stream is tested against.
//!
//! [`MissClassifier`]: crate::MissClassifier

use crate::{BlockAddr, MissClass};

/// Compact per-access reuse code: first touch of the block.
const CODE_COLD: u8 = 0;
/// Reuse distance below capacity — a miss on this access is a conflict miss.
const CODE_NEAR: u8 = 1;
/// Reuse distance at or beyond capacity — a miss here is a capacity miss.
const CODE_FAR: u8 = 2;

/// A function-independent reuse-class stream for one (trace, geometry) pair.
///
/// Built by a single fully-associative LRU pass; one byte per access. The
/// stream answers, for access `i`, "if a cache of this capacity misses here,
/// what 3C class is the miss?" — exactly the information `Cache::access_block`
/// derives per access when classification is enabled.
///
/// # Example
///
/// ```
/// use cache_sim::{BlockAddr, MissClass, ReuseStream};
///
/// let trace = [BlockAddr(1), BlockAddr(2), BlockAddr(1)];
/// let stream = ReuseStream::build(&trace, 2);
/// assert_eq!(stream.len(), 3);
/// assert_eq!(stream.miss_class(0), MissClass::Compulsory);
/// assert_eq!(stream.miss_class(2), MissClass::Conflict); // distance 1 < 2
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReuseStream {
    codes: Vec<u8>,
    capacity_blocks: usize,
}

impl ReuseStream {
    /// Classifies every access of `trace` against a fully-associative LRU
    /// cache holding `capacity_blocks` blocks.
    ///
    /// # Panics
    ///
    /// Panics if the trace touches more than `u32::MAX` distinct blocks.
    #[must_use]
    pub fn build(trace: &[BlockAddr], capacity_blocks: usize) -> Self {
        let mut ids = BlockIds::new();
        let mut lru = LruIds::new(capacity_blocks);
        let codes = trace
            .iter()
            .map(|&block| lru.access(ids.id_of(block.as_u64())))
            .collect();
        ReuseStream {
            codes,
            capacity_blocks,
        }
    }

    /// Number of accesses classified.
    #[must_use]
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// `true` when the stream covers no accesses.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Capacity (in blocks) the reuse distances were compared against.
    #[must_use]
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// 3C class of access `i` *if it misses* in the simulated cache.
    ///
    /// Matches `MissClassifier::classify_miss(observe(trace[i]))`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    #[must_use]
    pub fn miss_class(&self, i: usize) -> MissClass {
        match self.codes[i] {
            CODE_COLD => MissClass::Compulsory,
            CODE_NEAR => MissClass::Conflict,
            _ => MissClass::Capacity,
        }
    }

    /// Number of accesses whose miss (if any) would be conflict-eligible.
    #[must_use]
    pub fn conflict_eligible(&self) -> usize {
        self.codes.iter().filter(|&&c| c == CODE_NEAR).count()
    }
}

/// Marks a free [`BlockIds`] slot. Emptiness lives in the id, not the key,
/// because a block address may be any `u64`.
const NO_ID: u32 = u32::MAX;

/// One open-addressing slot: a block address and its dense id.
#[derive(Debug, Clone, Copy)]
struct Slot {
    block: u64,
    id: u32,
}

/// Maps block addresses to dense ids `0, 1, 2, …` in first-touch order:
/// Fibonacci hashing into a power-of-two table with linear probing, doubled
/// whenever it would pass half full. Sized by distinct blocks, not by trace
/// length. The hash is fixed, not seeded: a trace built to collide could
/// lengthen probes, but ids and codes do not depend on the hash.
#[derive(Debug)]
struct BlockIds {
    slots: Vec<Slot>,
    /// `64 − log2(slots.len())`: the hash keeps the product's top bits.
    shift: u32,
    len: u32,
}

impl BlockIds {
    const INITIAL_SLOTS_LOG2: u32 = 6;

    fn new() -> Self {
        BlockIds {
            slots: Self::empty_slots(1 << Self::INITIAL_SLOTS_LOG2),
            shift: 64 - Self::INITIAL_SLOTS_LOG2,
            len: 0,
        }
    }

    fn empty_slots(n: usize) -> Vec<Slot> {
        vec![
            Slot {
                block: 0,
                id: NO_ID
            };
            n
        ]
    }

    #[inline]
    fn home(&self, block: u64) -> usize {
        (block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// The dense id of `block`, assigning the next id on first touch.
    #[inline]
    fn id_of(&mut self, block: u64) -> u32 {
        let mask = self.slots.len() - 1;
        let mut i = self.home(block);
        loop {
            let slot = self.slots[i];
            if slot.id == NO_ID {
                break;
            }
            if slot.block == block {
                return slot.id;
            }
            i = (i + 1) & mask;
        }
        let id = self.len;
        assert!(id < NO_ID, "more than u32::MAX distinct blocks");
        self.slots[i] = Slot { block, id };
        self.len += 1;
        if 2 * self.len as usize > self.slots.len() {
            self.grow();
        }
        id
    }

    fn grow(&mut self) {
        let grown = Self::empty_slots(2 * self.slots.len());
        let old = std::mem::replace(&mut self.slots, grown);
        self.shift -= 1;
        let mask = self.slots.len() - 1;
        for slot in old.into_iter().filter(|s| s.id != NO_ID) {
            let mut i = self.home(slot.block);
            while self.slots[i].id != NO_ID {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }
}

/// Null link of the recency list.
const NIL: u32 = u32::MAX;

/// Recency-list links of one id.
#[derive(Debug, Clone, Copy)]
struct Links {
    prev: u32,
    next: u32,
}

/// A fully-associative LRU cache of `capacity` blocks over dense ids: the
/// resident ids form a doubly linked list, most recently used at `head`.
/// Both links of an id share one 8-byte entry, so a relink touches one cache
/// line per id.
///
/// An id's state byte is the reuse code its next access gets: cold until
/// first touched, near while resident, far once evicted.
#[derive(Debug)]
struct LruIds {
    links: Vec<Links>,
    state: Vec<u8>,
    head: u32,
    tail: u32,
    resident: usize,
    capacity: usize,
}

impl LruIds {
    fn new(capacity: usize) -> Self {
        LruIds {
            links: Vec::new(),
            state: Vec::new(),
            head: NIL,
            tail: NIL,
            resident: 0,
            capacity,
        }
    }

    /// Accesses `id` and returns its reuse code. Ids arrive densely, so a
    /// new id is always the next one.
    #[inline]
    fn access(&mut self, id: u32) -> u8 {
        let i = id as usize;
        if i == self.state.len() {
            self.links.push(Links {
                prev: NIL,
                next: NIL,
            });
            self.state.push(CODE_COLD);
        }
        let code = self.state[i];
        if code == CODE_NEAR {
            if id != self.head {
                self.unlink(id);
                self.push_front(id);
            }
            return CODE_NEAR;
        }
        self.push_front(id);
        self.state[i] = CODE_NEAR;
        if self.resident == self.capacity {
            let lru = self.tail;
            self.unlink(lru);
            self.state[lru as usize] = CODE_FAR;
        } else {
            self.resident += 1;
        }
        code
    }

    #[inline]
    fn unlink(&mut self, id: u32) {
        let Links { prev, next } = self.links[id as usize];
        match prev {
            NIL => self.head = next,
            p => self.links[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.links[n as usize].prev = prev,
        }
    }

    #[inline]
    fn push_front(&mut self, id: u32) {
        self.links[id as usize] = Links {
            prev: NIL,
            next: self.head,
        };
        match self.head {
            NIL => self.tail = id,
            h => self.links[h as usize].prev = id,
        }
        self.head = id;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MissClassifier;

    fn blocks(ids: &[u64]) -> Vec<BlockAddr> {
        ids.iter().copied().map(BlockAddr).collect()
    }

    #[test]
    fn matches_the_classifier_access_by_access() {
        let trace = blocks(&[1, 2, 3, 1, 2, 4, 1, 5, 5, 2]);
        for capacity in [1usize, 2, 3, 8] {
            let stream = ReuseStream::build(&trace, capacity);
            let mut classifier = MissClassifier::new(capacity);
            for (i, &b) in trace.iter().enumerate() {
                let reuse = classifier.observe(b);
                assert_eq!(
                    stream.miss_class(i),
                    MissClassifier::classify_miss(reuse),
                    "access {i} capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn cold_near_far_codes() {
        let trace = blocks(&[7, 8, 7, 9, 10, 8]);
        let stream = ReuseStream::build(&trace, 2);
        assert_eq!(stream.miss_class(0), MissClass::Compulsory);
        assert_eq!(stream.miss_class(2), MissClass::Conflict); // distance 1
        assert_eq!(stream.miss_class(5), MissClass::Capacity); // distance 3
        assert_eq!(stream.capacity_blocks(), 2);
        assert_eq!(stream.len(), 6);
        assert!(!stream.is_empty());
        assert_eq!(stream.conflict_eligible(), 1);
    }

    #[test]
    fn empty_trace() {
        let stream = ReuseStream::build(&[], 4);
        assert!(stream.is_empty());
        assert_eq!(stream.len(), 0);
    }

    #[test]
    fn zero_capacity_never_reports_near() {
        let trace = blocks(&[1, 1, 2, 1]);
        let stream = ReuseStream::build(&trace, 0);
        assert_eq!(stream.miss_class(0), MissClass::Compulsory);
        assert_eq!(stream.miss_class(1), MissClass::Capacity);
        assert_eq!(stream.miss_class(3), MissClass::Capacity);
    }

    #[test]
    fn block_ids_are_dense_across_growth_and_extreme_keys() {
        let mut ids = BlockIds::new();
        let keys: Vec<u64> = (0..1000u64)
            .map(|k| k.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .chain([0, u64::MAX, u64::MAX - 1])
            .collect();
        let first: Vec<u32> = keys.iter().map(|&k| ids.id_of(k)).collect();
        // Key 0 was already drawn as `0 * odd`; the two maxima are new.
        assert_eq!(first[1000], first[0]);
        assert_eq!(first[1001], 1000);
        assert_eq!(first[1002], 1001);
        assert_eq!(first[..1000], (0..1000).collect::<Vec<u32>>()[..]);
        let again: Vec<u32> = keys.iter().map(|&k| ids.id_of(k)).collect();
        assert_eq!(again, first);
        assert!(2 * ids.len as usize <= ids.slots.len());
    }
}
