//! Per-key subscription lists for the wakeup, reader and load-snoop
//! indices.
//!
//! Each of the three indices maps a key (a physical register, or a memory
//! word) to the window slots that care about it. A map of `Vec`s allocates
//! a fresh buffer for every new key and frees it again when the key fires
//! or is swept; with one new physical register per renamed destination,
//! that was the simulator's dominant heap traffic. [`SubscriptionIndex`]
//! instead threads every key's entries as a FIFO chain through one shared
//! node arena with a free list, so the hash map holds only a small
//! `(head, tail, len)` record per key and the arena stops growing once it
//! covers the live working set.

use std::collections::hash_map::Entry;
use std::hash::Hash;

use tp_isa::fxhash::FxHashMap;

/// A `(pe, gen, slot)` reference into the window, validated against the
/// PE's generation counter before use (stale entries are dropped lazily).
pub(super) type SlotRef = (usize, u64, usize);

/// Minimum live-entry count before an amortized sweep is considered
/// (comfortably above the live window's worst case of
/// `16 PEs x 32 slots x 2 sources`).
const GC_FLOOR: usize = 4096;

/// End-of-chain / empty-free-list marker.
const NIL: u32 = u32::MAX;

/// One entry, packed to 16 bytes: PE ids are below 256
/// ([`crate::TraceProcessorConfig::validate`]) and slot indices below 64
/// (the ready bitmask), so both fit in `u16`.
#[derive(Clone, Copy, Debug)]
struct Node {
    gen: u64,
    next: u32,
    pe: u16,
    slot: u16,
}

impl Node {
    fn item(self) -> SlotRef {
        (usize::from(self.pe), self.gen, usize::from(self.slot))
    }
}

/// One key's chain: first and last node, and its length.
#[derive(Clone, Copy, Debug)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// Per-key FIFO lists of [`SlotRef`]s sharing one node arena.
///
/// Chains keep insertion order, so iterating a key visits its entries in
/// exactly the order they were pushed (minus the ones removed). Removed
/// nodes go to a free list and are reused by later pushes. The index also
/// owns its amortized collection: wrong-path consumers subscribe to
/// producers that are squashed before ever firing, so without sweeps the
/// index would grow with *dispatched* rather than live instructions.
/// [`SubscriptionIndex::maybe_sweep`] runs a caller-supplied keep
/// predicate over every entry once the live count passes a threshold that
/// doubles after each sweep (O(1) amortized).
#[derive(Debug)]
pub(super) struct SubscriptionIndex<K> {
    chains: FxHashMap<K, Chain>,
    nodes: Vec<Node>,
    /// Head of the free list threaded through `nodes[..].next`.
    free: u32,
    /// Entries across all chains.
    live: usize,
    /// Live count above which the next [`SubscriptionIndex::maybe_sweep`]
    /// sweeps.
    pub(super) gc_at: usize,
}

impl<K> Default for SubscriptionIndex<K> {
    fn default() -> Self {
        SubscriptionIndex {
            chains: FxHashMap::default(),
            nodes: Vec::new(),
            free: NIL,
            live: 0,
            gc_at: GC_FLOOR,
        }
    }
}

impl<K: Copy + Eq + Hash> SubscriptionIndex<K> {
    /// Appends `item` to the end of `key`'s chain.
    pub(super) fn push(&mut self, key: K, item: SlotRef) {
        let n = self.alloc(item);
        match self.chains.entry(key) {
            Entry::Occupied(mut e) => {
                let c = e.get_mut();
                self.nodes[c.tail as usize].next = n;
                c.tail = n;
                c.len += 1;
            }
            Entry::Vacant(e) => {
                e.insert(Chain { head: n, tail: n, len: 1 });
            }
        }
        self.live += 1;
    }

    /// Removes `key`'s whole chain, handing each entry to `f` in order.
    pub(super) fn take(&mut self, key: K, mut f: impl FnMut(SlotRef)) {
        let Some(c) = self.chains.remove(&key) else { return };
        let mut n = c.head;
        while n != NIL {
            let node = self.nodes[n as usize];
            f(node.item());
            n = node.next;
        }
        // The chain is already linked: splice it onto the free list whole.
        self.nodes[c.tail as usize].next = self.free;
        self.free = c.head;
        self.live -= c.len as usize;
    }

    /// Drops the entries of `key`'s chain for which `keep` is false,
    /// keeping the order of the rest. An emptied chain loses its key.
    pub(super) fn filter(&mut self, key: K, keep: impl FnMut(&SlotRef) -> bool) {
        let Some(c) = self.chains.get_mut(&key) else { return };
        self.live -= filter_chain(&mut self.nodes, &mut self.free, c, keep);
        if c.len == 0 {
            self.chains.remove(&key);
        }
    }

    /// Once the live count has passed the sweep threshold, drops every
    /// entry for which `keep(key, entry)` is false and re-arms the
    /// threshold at twice the surviving count; otherwise does nothing.
    pub(super) fn maybe_sweep(&mut self, mut keep: impl FnMut(K, &SlotRef) -> bool) {
        if self.live <= self.gc_at {
            return;
        }
        let (nodes, free) = (&mut self.nodes, &mut self.free);
        let mut removed = 0;
        self.chains.retain(|&k, c| {
            removed += filter_chain(nodes, free, c, |e| keep(k, e));
            c.len > 0
        });
        self.live -= removed;
        self.gc_at = GC_FLOOR.max(self.live * 2);
    }

    /// `key`'s entries, oldest first.
    pub(super) fn iter(&self, key: K) -> impl Iterator<Item = SlotRef> + '_ {
        let mut n = self.chains.get(&key).map_or(NIL, |c| c.head);
        std::iter::from_fn(move || {
            if n == NIL {
                return None;
            }
            let node = self.nodes[n as usize];
            n = node.next;
            Some(node.item())
        })
    }

    /// Whether `key`'s chain holds `item`.
    pub(super) fn contains(&self, key: K, item: SlotRef) -> bool {
        self.iter(key).any(|e| e == item)
    }

    /// Entries across all chains.
    pub(super) fn len(&self) -> usize {
        self.live
    }

    /// Keys with a non-empty chain.
    pub(super) fn keys(&self) -> usize {
        self.chains.len()
    }

    /// Recounts the index the slow way: `(sum of walked chain lengths,
    /// arena nodes not on the free list)`. Both equal [`Self::len`] while
    /// the bookkeeping is exact.
    #[cfg(test)]
    pub(super) fn recount(&self) -> (usize, usize) {
        let walked = self.chains.keys().map(|&k| self.iter(k).count()).sum();
        let mut free = 0;
        let mut n = self.free;
        while n != NIL {
            free += 1;
            n = self.nodes[n as usize].next;
        }
        (walked, self.nodes.len() - free)
    }

    fn alloc(&mut self, (pe, gen, slot): SlotRef) -> u32 {
        let narrow = |i: usize| u16::try_from(i).expect("PE ids and slot indices fit u16");
        let node = Node { gen, next: NIL, pe: narrow(pe), slot: narrow(slot) };
        if self.free == NIL {
            self.nodes.push(node);
            u32::try_from(self.nodes.len() - 1).expect("subscription arena exceeds u32 nodes")
        } else {
            let n = self.free;
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        }
    }
}

/// Unlinks the entries of `c` failing `keep` onto the free list, in
/// place; returns how many were removed.
fn filter_chain(
    nodes: &mut [Node],
    free: &mut u32,
    c: &mut Chain,
    mut keep: impl FnMut(&SlotRef) -> bool,
) -> usize {
    let (mut prev, mut n, mut removed) = (NIL, c.head, 0);
    while n != NIL {
        let next = nodes[n as usize].next;
        if keep(&nodes[n as usize].item()) {
            prev = n;
        } else {
            if prev == NIL {
                c.head = next;
            } else {
                nodes[prev as usize].next = next;
            }
            nodes[n as usize].next = *free;
            *free = n;
            removed += 1;
        }
        n = next;
    }
    c.tail = prev;
    c.len -= removed as u32;
    removed
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries(ix: &SubscriptionIndex<u32>, key: u32) -> Vec<SlotRef> {
        ix.iter(key).collect()
    }

    /// Live count, walked chains and arena occupancy agree.
    fn assert_exact(ix: &SubscriptionIndex<u32>) {
        assert_eq!(ix.recount(), (ix.len(), ix.len()));
    }

    #[test]
    fn chains_are_fifo_per_key() {
        let mut ix = SubscriptionIndex::default();
        for i in 0..5 {
            ix.push(7, (i, 0, i));
            ix.push(9, (i, 1, 0));
        }
        assert_eq!(entries(&ix, 7), (0..5).map(|i| (i, 0, i)).collect::<Vec<_>>());
        assert_eq!(entries(&ix, 9), (0..5).map(|i| (i, 1, 0)).collect::<Vec<_>>());
        assert!(entries(&ix, 8).is_empty());
        assert!(ix.contains(7, (3, 0, 3)) && !ix.contains(7, (3, 1, 3)));
        let mut seen = Vec::new();
        ix.take(7, |e| seen.push(e));
        assert_eq!(seen, (0..5).map(|i| (i, 0, i)).collect::<Vec<_>>());
        assert_eq!((ix.len(), ix.keys()), (5, 1));
        assert_exact(&ix);
    }

    #[test]
    fn filter_keeps_order_and_frees_removed_nodes() {
        let mut ix = SubscriptionIndex::default();
        for i in 0..6 {
            ix.push(1, (i, 0, 0));
        }
        ix.filter(1, |&(pe, _, _)| pe % 2 == 1);
        assert_eq!(entries(&ix, 1), vec![(1, 0, 0), (3, 0, 0), (5, 0, 0)]);
        assert_exact(&ix);
        // The tail moved back correctly: appends land after the last kept.
        ix.filter(1, |&(pe, _, _)| pe != 5);
        ix.push(1, (9, 0, 0));
        assert_eq!(entries(&ix, 1), vec![(1, 0, 0), (3, 0, 0), (9, 0, 0)]);
        // Freed nodes are reused before the arena grows.
        let arena = ix.nodes.len();
        ix.push(2, (0, 0, 0));
        ix.push(2, (0, 0, 1));
        ix.push(2, (0, 0, 2));
        assert_eq!(ix.nodes.len(), arena);
        // Emptying a chain drops its key.
        ix.filter(1, |_| false);
        assert_eq!((ix.keys(), ix.len()), (1, 3));
        assert_exact(&ix);
    }

    #[test]
    fn sweep_drops_rejected_entries_and_rearms_the_threshold() {
        let mut ix = SubscriptionIndex::default();
        for k in 0..100u32 {
            for g in 0..50 {
                ix.push(k, (k as usize, g, 0));
            }
        }
        assert_eq!(ix.len(), 5000);
        ix.maybe_sweep(|k, &(_, g, _)| k < 10 && g == 0);
        assert_eq!((ix.len(), ix.keys()), (10, 10));
        assert_eq!(ix.gc_at, GC_FLOOR);
        assert_exact(&ix);
        // Below the threshold nothing is swept.
        ix.maybe_sweep(|_, _| false);
        assert_eq!(ix.len(), 10);
    }

    #[test]
    fn push_take_cycles_do_not_grow_the_arena() {
        let mut ix = SubscriptionIndex::default();
        for round in 0..1000u32 {
            for i in 0..8 {
                ix.push(round, (i, u64::from(round), i));
            }
            if round % 3 == 0 {
                ix.filter(round, |&(pe, _, _)| pe < 4);
            }
            ix.take(round, |_| {});
            assert_exact(&ix);
        }
        assert_eq!(ix.len(), 0);
        assert_eq!(ix.nodes.len(), 8);
    }
}
