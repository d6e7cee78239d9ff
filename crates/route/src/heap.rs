//! The A* open set: an indexed 4-ary min-heap with decrease-key.
//!
//! A node is in the heap at most once. Relaxing a node that is already
//! queued moves its entry instead of queueing a second one, so the search
//! never pops a stale entry. Entries are ordered by `(key, node)`, both
//! integers, so the pop order is total and does not depend on the order
//! in which entries were inserted or moved.

/// `pos` value of a node that is not in the heap.
const ABSENT: u32 = u32::MAX;
const ARITY: usize = 4;

/// Key in the high 64 bits, node in the low 32: one integer comparison
/// orders entries by `(key, node)`.
type Entry = u128;

fn entry(key: u64, node: u32) -> Entry {
    (key as u128) << 32 | node as u128
}

fn node_of(e: Entry) -> u32 {
    e as u32
}

/// Min-heap over node ids `0..nodes`, keyed by a `u64`.
#[derive(Debug)]
pub(crate) struct NodeHeap {
    entries: Vec<Entry>,
    /// Index of each node's entry in `entries`, [`ABSENT`] without one.
    pos: Vec<u32>,
    /// `entries[0]` has been popped and its slot not yet refilled. A
    /// search queues neighbours right after a pop, at keys close to the
    /// popped one: the first of them takes the root and sinks a level or
    /// two, where the last leaf would sink all the way down.
    root_vacant: bool,
}

impl NodeHeap {
    /// An empty heap for nodes `0..nodes`.
    pub(crate) fn new(nodes: usize) -> Self {
        NodeHeap { entries: Vec::new(), pos: vec![ABSENT; nodes], root_vacant: false }
    }

    /// Empties the heap, keeping its buffers. Costs one store per entry
    /// still queued, nothing per node.
    pub(crate) fn clear(&mut self) {
        for &e in &self.entries {
            self.pos[node_of(e) as usize] = ABSENT;
        }
        self.entries.clear();
        self.root_vacant = false;
    }

    /// Queues `node` under `key`, or lowers its key to `key` if it is
    /// queued already (`key` must not exceed the queued one).
    pub(crate) fn push_or_decrease(&mut self, node: u32, key: u64) {
        let e = entry(key, node);
        if self.pos[node as usize] != ABSENT {
            self.fill_root();
            let at = self.pos[node as usize] as usize;
            debug_assert!(e <= self.entries[at], "key of node {node} raised");
            self.sift_up(at, e);
        } else if self.root_vacant {
            self.root_vacant = false;
            self.sift_down(e);
        } else {
            self.entries.push(e);
            self.sift_up(self.entries.len() - 1, e);
        }
    }

    /// Removes and returns the node with the smallest `(key, node)`.
    pub(crate) fn pop(&mut self) -> Option<u32> {
        self.fill_root();
        let top = node_of(*self.entries.first()?);
        self.pos[top as usize] = ABSENT;
        self.root_vacant = true;
        Some(top)
    }

    /// Refills a vacant root with the last leaf.
    fn fill_root(&mut self) {
        if self.root_vacant {
            self.root_vacant = false;
            let last = self.entries.pop().expect("the vacant root is a slot");
            if !self.entries.is_empty() {
                self.sift_down(last);
            }
        }
    }

    /// Places `e` at index `at` or above, moving larger ancestors down.
    fn sift_up(&mut self, mut at: usize, e: Entry) {
        while at > 0 {
            let up = (at - 1) / ARITY;
            let above = self.entries[up];
            if above <= e {
                break;
            }
            self.set(at, above);
            at = up;
        }
        self.set(at, e);
    }

    /// Places `e` at the root or below, moving smaller children up.
    fn sift_down(&mut self, e: Entry) {
        let len = self.entries.len();
        let mut at = 0;
        loop {
            let first = ARITY * at + 1;
            let (least, k) = if first + ARITY <= len {
                // a full group: pairwise minima compile to selects, not to
                // branches the predictor cannot learn
                let kids = &self.entries[first..first + ARITY];
                let (a, ka) = if kids[1] < kids[0] { (kids[1], 1) } else { (kids[0], 0) };
                let (b, kb) = if kids[3] < kids[2] { (kids[3], 3) } else { (kids[2], 2) };
                if b < a {
                    (b, kb)
                } else {
                    (a, ka)
                }
            } else if first < len {
                let kids = &self.entries[first..len];
                let (k, &least) =
                    kids.iter().enumerate().min_by_key(|(_, &c)| c).expect("a child exists");
                (least, k)
            } else {
                break;
            };
            if least >= e {
                break;
            }
            self.set(at, least);
            at = first + k;
        }
        self.set(at, e);
    }

    fn set(&mut self, at: usize, e: Entry) {
        self.entries[at] = e;
        self.pos[node_of(e) as usize] = at as u32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::BTreeSet;

    /// Every queued node's `pos` points at its entry, every other node's
    /// is absent, and no entry is smaller than its parent.
    fn check(h: &NodeHeap) {
        let live = h.root_vacant as usize;
        for (i, &e) in h.entries.iter().enumerate().skip(live) {
            assert_eq!(h.pos[node_of(e) as usize], i as u32);
            if i > 0 && (i - 1) / ARITY >= live {
                assert!(h.entries[(i - 1) / ARITY] <= e);
            }
        }
        assert_eq!(h.pos.iter().filter(|&&p| p != ABSENT).count(), h.entries.len() - live);
    }

    #[test]
    fn pops_in_key_then_node_order() {
        let mut h = NodeHeap::new(8);
        for (node, key) in [(5, 7), (1, 3), (6, 3), (0, 9), (2, 3)] {
            h.push_or_decrease(node, key);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop()).collect();
        assert_eq!(order, [1, 2, 6, 5, 0]);
    }

    #[test]
    fn random_operations_match_an_ordered_set() {
        let mut rng = StdRng::seed_from_u64(14);
        for nodes in [1usize, 2, 5, 40, 300] {
            let mut h = NodeHeap::new(nodes);
            let mut model: BTreeSet<(u64, u32)> = BTreeSet::new();
            let mut key_of = vec![None; nodes];
            for step in 0..4000 {
                match rng.gen_range(0..10) {
                    0..=5 => {
                        let node = rng.gen_range(0..nodes) as u32;
                        // few distinct keys: ties are the interesting case
                        let key = match key_of[node as usize] {
                            Some(k) => k - rng.gen_range(0..3u64).min(k),
                            None => rng.gen_range(0..12u64),
                        };
                        if let Some(old) = key_of[node as usize].replace(key) {
                            model.remove(&(old, node));
                        }
                        model.insert((key, node));
                        h.push_or_decrease(node, key);
                    }
                    6..=8 => {
                        let want = model.pop_first();
                        if let Some((_, node)) = want {
                            key_of[node as usize] = None;
                        }
                        assert_eq!(h.pop(), want.map(|(_, node)| node), "step {step}");
                    }
                    _ => {
                        if rng.gen_range(0..20) == 0 {
                            h.clear();
                            model.clear();
                            key_of.fill(None);
                        }
                    }
                }
                check(&h);
            }
        }
    }
}
