//! LRU stack (stack-distance) data structure.
//!
//! Blocks are kept sorted by recency, and an access to block `x` learns which
//! blocks were touched since the previous access to `x` (they are exactly the
//! blocks above `x` on the stack).
//!
//! The 3C [`MissClassifier`](crate::MissClassifier) and `memtrace`'s
//! `TraceStats` walk it. So does the test-only oracle the `xorindex` crate
//! pins its profiler to: the paper's Fig. 1 walk, verbatim. The profiler
//! itself keeps only the top `capacity + 1` blocks of the stack, and the
//! fully-associative reference of Table 3 is read from
//! [`ReuseStream`](crate::ReuseStream)'s O(1)-per-access LRU pass instead.

use std::collections::HashMap;

/// Result of scanning the stack for a block, as returned by
/// [`LruStack::access_scan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackScan {
    /// The block had never been accessed before (a compulsory / cold access).
    Cold,
    /// The block was found within the scan limit; the payload is the stack
    /// distance, i.e. the number of *distinct* blocks accessed since the
    /// previous access to this block.
    Within {
        /// Number of distinct blocks above the accessed block.
        distance: usize,
    },
    /// The block exists on the stack but deeper than the scan limit: its reuse
    /// distance exceeds the limit (a capacity miss for a cache of that many
    /// blocks).
    Beyond,
}

/// A move-to-front LRU stack over block addresses with bounded-depth scanning.
///
/// Each access moves the block to the top of the stack. The caller supplies a
/// scan `limit`: blocks whose previous access is deeper than the limit are
/// reported as [`StackScan::Beyond`] without walking the whole stack, exactly
/// matching the capacity-miss filtering of the paper's profiling algorithm
/// ("reuse distance > cache size").
///
/// # Example
///
/// ```
/// use cache_sim::{LruStack, StackScan};
///
/// let mut stack = LruStack::new();
/// assert_eq!(stack.access_scan(10, 4, |_| {}), StackScan::Cold);
/// assert_eq!(stack.access_scan(20, 4, |_| {}), StackScan::Cold);
/// let mut seen = Vec::new();
/// // Re-access 10: block 20 was touched in between.
/// assert_eq!(
///     stack.access_scan(10, 4, |b| seen.push(b)),
///     StackScan::Within { distance: 1 }
/// );
/// assert_eq!(seen, vec![20]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct LruStack {
    /// Doubly linked list stored in a slab; `head` is the most recent block.
    nodes: Vec<Node>,
    head: Option<usize>,
    position: HashMap<u64, usize>,
}

#[derive(Debug, Clone)]
struct Node {
    block: u64,
    prev: Option<usize>,
    next: Option<usize>,
}

impl LruStack {
    /// Creates an empty stack.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of distinct blocks ever pushed (current stack depth).
    #[must_use]
    pub fn len(&self) -> usize {
        self.position.len()
    }

    /// `true` when no block has been accessed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.position.is_empty()
    }

    /// Accesses `block`: scans for it from the top of the stack (calling
    /// `visit` on every distinct block encountered above it, as long as the
    /// block is found within `limit` entries), reports the outcome, and moves
    /// the block to the top.
    ///
    /// When the block is deeper than `limit`, `visit` receives nothing and the
    /// outcome is [`StackScan::Beyond`]; when the block was never seen,
    /// the outcome is [`StackScan::Cold`]. In both cases the block still moves
    /// to (or is pushed on) the top of the stack.
    pub fn access_scan<F: FnMut(u64)>(
        &mut self,
        block: u64,
        limit: usize,
        mut visit: F,
    ) -> StackScan {
        let outcome = self.scan(block, limit);
        if let StackScan::Within { distance } = outcome {
            // The blocks above are the first `distance` nodes from the head.
            let mut cursor = self.head;
            for _ in 0..distance {
                let i = cursor.expect("the scan found the block below these nodes");
                visit(self.nodes[i].block);
                cursor = self.nodes[i].next;
            }
        }
        self.touch(block);
        outcome
    }

    /// Accesses `block` without visiting the intermediate blocks; the same
    /// outcome and stack update as `access_scan(block, limit, |_| {})`.
    pub fn access(&mut self, block: u64, limit: usize) -> StackScan {
        let outcome = self.scan(block, limit);
        self.touch(block);
        outcome
    }

    /// Where `block` sits: walks from the head looking for it, up to `limit`
    /// steps, without moving anything.
    fn scan(&self, block: u64, limit: usize) -> StackScan {
        let Some(&node_idx) = self.position.get(&block) else {
            return StackScan::Cold;
        };
        let mut distance = 0usize;
        let mut cursor = self.head;
        while let Some(i) = cursor {
            if i == node_idx {
                return StackScan::Within { distance };
            }
            if distance >= limit {
                break;
            }
            distance += 1;
            cursor = self.nodes[i].next;
        }
        StackScan::Beyond
    }

    /// Moves `block` to the top of the stack, inserting it if new.
    pub fn touch(&mut self, block: u64) {
        match self.position.get(&block).copied() {
            Some(idx) => {
                self.unlink(idx);
                self.push_front(idx);
            }
            None => {
                self.nodes.push(Node {
                    block,
                    prev: None,
                    next: None,
                });
                let idx = self.nodes.len() - 1;
                self.position.insert(block, idx);
                self.push_front(idx);
            }
        }
    }

    /// Removes every block from the stack.
    pub fn clear(&mut self) {
        self.nodes.clear();
        self.head = None;
        self.position.clear();
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        match prev {
            Some(p) => self.nodes[p].next = next,
            None => self.head = next,
        }
        if let Some(n) = next {
            self.nodes[n].prev = prev;
        }
        self.nodes[idx].prev = None;
        self.nodes[idx].next = None;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = None;
        self.nodes[idx].next = self.head;
        if let Some(h) = self.head {
            self.nodes[h].prev = Some(idx);
        }
        self.head = Some(idx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_accesses_are_reported_once_per_block() {
        let mut s = LruStack::new();
        assert_eq!(s.access(1, 10), StackScan::Cold);
        assert_eq!(s.access(2, 10), StackScan::Cold);
        assert_eq!(s.access(1, 10), StackScan::Within { distance: 1 });
        assert_eq!(s.len(), 2);
        // Block 3 was never pushed; block 1 is on the stack.
        assert_eq!(s.clone().access(3, 10), StackScan::Cold);
        assert_ne!(s.clone().access(1, 10), StackScan::Cold);
    }

    #[test]
    fn distance_counts_distinct_intermediate_blocks() {
        let mut s = LruStack::new();
        for b in [1u64, 2, 3, 2, 2, 4] {
            s.access(b, 100);
        }
        // Since the last access to 1, distinct blocks {2, 3, 4} were touched.
        assert_eq!(s.access(1, 100), StackScan::Within { distance: 3 });
    }

    #[test]
    fn visit_reports_blocks_above_most_recent_first() {
        let mut s = LruStack::new();
        for b in [10u64, 20, 30, 40] {
            s.access(b, 100);
        }
        let mut seen = Vec::new();
        assert_eq!(
            s.access_scan(10, 100, |b| seen.push(b)),
            StackScan::Within { distance: 3 }
        );
        assert_eq!(seen, vec![40, 30, 20]);
        // 10 is now the most recent block, and the whole stack reads
        // 10, 40, 30 above the bottom block 20.
        assert_eq!(s.clone().access(10, 0), StackScan::Within { distance: 0 });
        seen.clear();
        assert_eq!(
            s.access_scan(20, usize::MAX, |b| seen.push(b)),
            StackScan::Within { distance: 3 }
        );
        assert_eq!(seen, vec![10, 40, 30]);
    }

    #[test]
    fn beyond_limit_is_reported_without_visiting() {
        let mut s = LruStack::new();
        for b in 0..10u64 {
            s.access(b, 100);
        }
        let mut seen = Vec::new();
        // Block 0 is at distance 9, deeper than the limit of 4.
        assert_eq!(s.access_scan(0, 4, |b| seen.push(b)), StackScan::Beyond);
        assert!(seen.is_empty());
        // It still moved to the top.
        assert_eq!(s.access(0, 4), StackScan::Within { distance: 0 });
    }

    #[test]
    fn limit_is_inclusive_boundary() {
        let mut s = LruStack::new();
        for b in [1u64, 2, 3, 4, 5] {
            s.access(b, 100);
        }
        // Block 1 is at distance 4: found when limit >= 4, beyond when < 4.
        assert_eq!(
            s.clone().access(1, usize::MAX),
            StackScan::Within { distance: 4 }
        );
        let mut clone = s.clone();
        assert_eq!(clone.access(1, 4), StackScan::Within { distance: 4 });
        assert_eq!(s.access(1, 3), StackScan::Beyond);
    }

    #[test]
    fn repeated_access_has_distance_zero() {
        let mut s = LruStack::new();
        s.access(7, 10);
        assert_eq!(s.access(7, 10), StackScan::Within { distance: 0 });
        assert_eq!(s.access(7, 0), StackScan::Within { distance: 0 });
    }

    #[test]
    fn clear_empties_the_stack() {
        let mut s = LruStack::new();
        s.access(1, 10);
        s.access(2, 10);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.access(1, 10), StackScan::Cold);
    }

    #[test]
    fn distance_matches_reference_simulation() {
        // Cross-check against a naive Vec-based LRU stack.
        let trace: Vec<u64> = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8, 9, 7, 9, 3, 2, 3, 8, 4]
            .into_iter()
            .collect();
        let mut s = LruStack::new();
        let mut reference: Vec<u64> = Vec::new();
        for &b in &trace {
            let expect = reference.iter().position(|&x| x == b);
            // `access` and `access_scan` agree, and the visit lists exactly
            // the reference's blocks above, most recent first.
            assert_eq!(s.clone().access(b, 2), s.clone().access_scan(b, 2, |_| {}));
            let mut seen = Vec::new();
            let got = s.access_scan(b, usize::MAX, |x| seen.push(x));
            match expect {
                None => assert_eq!(got, StackScan::Cold),
                Some(d) => {
                    assert_eq!(got, StackScan::Within { distance: d });
                    assert_eq!(seen, reference[..d]);
                }
            }
            if let Some(pos) = expect {
                reference.remove(pos);
            }
            reference.insert(0, b);
        }
    }
}
