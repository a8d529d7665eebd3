//! The `in3t` (index-3-tier) data structure of Figure 1 (right).
//!
//! R4 permits several events with the same `(Vs, Payload)` and different
//! `Ve`s, plus exact duplicates. `in3t` therefore replaces `in2t`'s single
//! `Ve` per stream with a small ordered map `Ve → count` per stream (the
//! paper uses a red-black tree with counts).
//!
//! Like `in2t`, every tier is an *ordered* map so that iteration is a pure
//! function of the index's contents — the restorable-iteration property
//! the durability layer's byte-identical recovery depends on. As in `in2t`,
//! every change to a node goes through the index so that the wake index
//! over the half-frozen region ([`crate::wake`]) stays exact.

use crate::mem::btree_bytes;
use crate::wake::{SweepAction, WakeIndex, WakeNode};
use lmerge_temporal::{Payload, StreamId, Time};
use std::collections::BTreeMap;

/// `Ve → multiplicity` for one stream at one `(Vs, Payload)`.
pub type VeCounts = BTreeMap<Time, usize>;

/// Per-key node: shared payload, per-stream `Ve` multisets, output multiset.
#[derive(Clone, Debug, Default)]
pub struct Node {
    /// Each input stream's live `Ve` multiset.
    pub per_input: BTreeMap<u32, VeCounts>,
    /// The output's live `Ve` multiset (the "special key ∞" entry).
    pub output: VeCounts,
}

impl Node {
    /// Total event count for stream `s` at this key (`GetCount(s)`).
    pub fn count_of(&self, s: StreamId) -> usize {
        self.per_input
            .get(&s.0)
            .map(|m| m.values().sum())
            .unwrap_or(0)
    }

    /// Total output event count at this key (`GetCount(∞)`).
    pub fn count_out(&self) -> usize {
        self.output.values().sum()
    }

    /// Largest live `Ve` for stream `s` (`GetMaxVe(s)`), if any.
    pub fn max_ve(&self, s: StreamId) -> Option<Time> {
        self.per_input
            .get(&s.0)
            .and_then(|m| m.keys().next_back().copied())
    }

    /// Add one occurrence of `ve` for stream `s` (`IncrementCount`).
    pub fn increment(&mut self, s: StreamId, ve: Time) {
        *self
            .per_input
            .entry(s.0)
            .or_default()
            .entry(ve)
            .or_insert(0) += 1;
    }

    /// Remove one occurrence of `ve` for stream `s` (`DecrementCount`).
    /// Returns false if no such occurrence was recorded (stale element).
    pub fn decrement(&mut self, s: StreamId, ve: Time) -> bool {
        let Some(m) = self.per_input.get_mut(&s.0) else {
            return false;
        };
        match m.get_mut(&ve) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    m.remove(&ve);
                }
                true
            }
            _ => false,
        }
    }

    /// Add one output occurrence of `ve`.
    pub fn out_increment(&mut self, ve: Time) {
        *self.output.entry(ve).or_insert(0) += 1;
    }

    /// Remove one output occurrence of `ve`. Returns false when absent.
    pub fn out_decrement(&mut self, ve: Time) -> bool {
        match self.output.get_mut(&ve) {
            Some(c) if *c > 0 => {
                *c -= 1;
                if *c == 0 {
                    self.output.remove(&ve);
                }
                true
            }
            _ => false,
        }
    }
}

impl WakeNode for Node {
    fn wake(&self) -> Time {
        let inputs = self.per_input.values().filter_map(|m| m.keys().next());
        let output = self.output.keys().next();
        inputs
            .chain(output)
            .min()
            .copied()
            .unwrap_or(Time::INFINITY)
    }

    /// An input carries the node while it holds at least one `Ve` there
    /// (an adjust-to-removal can empty its multiset).
    fn for_each_input(&self, mut f: impl FnMut(u32)) {
        for (id, m) in &self.per_input {
            if !m.is_empty() {
                f(*id);
            }
        }
    }
}

/// The three-tier index: `Vs → (Payload → Node)`, nodes holding `Ve` trees.
#[derive(Debug)]
pub struct In3t<P: Payload> {
    tiers: BTreeMap<Time, BTreeMap<P, Node>>,
    nodes: usize,
    payload_bytes: usize,
    /// Which half-frozen tiers a stable can change.
    wake: WakeIndex,
}

impl<P: Payload> In3t<P> {
    /// An empty index. A restored index starts with an empty wake index
    /// too: the first two sweeps after a restore walk the whole prefix and
    /// rebuild it.
    pub fn new() -> In3t<P> {
        In3t {
            tiers: BTreeMap::new(),
            nodes: 0,
            payload_bytes: 0,
            wake: WakeIndex::new(),
        }
    }

    /// Number of live `(Vs, Payload)` nodes.
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Look up the node for `(vs, payload)`.
    pub fn get(&self, vs: Time, payload: &P) -> Option<&Node> {
        self.tiers.get(&vs).and_then(|m| m.get(payload))
    }

    /// Apply `f` to the node for `(vs, payload)`, if it exists, keeping
    /// its wake time and carried inputs accounted.
    #[inline]
    pub fn update<R>(
        &mut self,
        vs: Time,
        payload: &P,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Option<R> {
        let node = self.tiers.get_mut(&vs)?.get_mut(payload)?;
        Some(self.wake.touch(vs, node, f))
    }

    /// Apply `f` to the node for `(vs, payload)`, creating it empty first
    /// if needed.
    pub fn upsert<R>(&mut self, vs: Time, payload: &P, f: impl FnOnce(&mut Node) -> R) -> R {
        let m = self.tiers.entry(vs).or_default();
        if !m.contains_key(payload) {
            self.nodes += 1;
            self.payload_bytes += payload.heap_bytes();
            self.wake.admit(vs, &Node::default());
        }
        let node = m.entry(payload.clone()).or_default();
        self.wake.touch(vs, node, f)
    }

    /// Rebuild one node from checkpoint data. The caller must not restore
    /// a key that already exists.
    pub fn restore_node(&mut self, vs: Time, payload: P, node: Node) {
        self.nodes += 1;
        self.payload_bytes += payload.heap_bytes();
        self.wake.admit(vs, &node);
        self.tiers.entry(vs).or_default().insert(payload, node);
    }

    /// The incremental `FindHalfFrozen` for a `stable(t)` driven by input
    /// `s` (see [`crate::wake`]): visit every node with `Vs < t` that the
    /// stable can change, in `(Vs, payload)` order among those that act,
    /// unlinking the ones the visitor retires. The visitor must leave
    /// unchanged a node that `s` carries and whose `Ve` keys are all
    /// `≥ t`, and must not change which inputs a node carries.
    pub fn sweep(
        &mut self,
        t: Time,
        s: StreamId,
        visit: impl FnMut(Time, &P, &mut Node) -> SweepAction,
    ) {
        let In3t {
            tiers,
            nodes,
            payload_bytes,
            wake,
        } = self;
        wake.sweep(tiers, t, s, visit, |payload, _| {
            *nodes -= 1;
            *payload_bytes -= payload.heap_bytes();
        });
    }

    /// The smallest live `Vs` in the index, if any (batch-discard bound).
    pub fn min_live_vs(&self) -> Option<Time> {
        self.tiers.keys().next().copied()
    }

    /// Drop all state belonging to stream `s` (detach).
    pub fn purge_stream(&mut self, s: StreamId) {
        for m in self.tiers.values_mut() {
            for node in m.values_mut() {
                node.per_input.remove(&s.0);
            }
        }
        self.wake.forget(s);
    }

    /// Iterate every node in canonical `(Vs, payload)` order — the
    /// checkpoint export walk, including nodes at `Vs = ∞`.
    pub fn iter_all(&self) -> impl Iterator<Item = (Time, &P, &Node)> + '_ {
        self.tiers
            .iter()
            .flat_map(|(vs, m)| m.iter().map(move |(p, n)| (*vs, p, n)))
    }

    /// Estimated memory: tree structure, the per-`Vs` payload tiers and
    /// each node's per-stream tree (modelled by [`btree_bytes`] so the
    /// figure is a pure function of the contents), shared payloads,
    /// per-stream `Ve` tree entries, and the wake index (derived state
    /// whose stale entries depend on history).
    pub fn memory_bytes(&self) -> usize {
        const TIER_OVERHEAD: usize = 48;
        const VE_ENTRY: usize = std::mem::size_of::<(Time, usize)>() + 16;
        let mut entries = 0usize;
        let mut tables = 0usize;
        for m in self.tiers.values() {
            tables += btree_bytes(m.len(), std::mem::size_of::<(P, Node)>());
            for node in m.values() {
                tables += btree_bytes(node.per_input.len(), std::mem::size_of::<(u32, VeCounts)>());
                entries += node.output.len();
                entries += node.per_input.values().map(BTreeMap::len).sum::<usize>();
            }
        }
        self.tiers.len() * TIER_OVERHEAD
            + tables
            + self.payload_bytes
            + entries * VE_ENTRY
            + self.wake.memory_bytes()
    }
}

impl<P: Payload> Default for In3t<P> {
    fn default() -> Self {
        In3t::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Sweep at `t` driven by `s` with R4's retirement rule; returns the
    /// visited keys.
    fn sweep(ix: &mut In3t<&'static str>, t: i64, s: u32) -> Vec<(i64, &'static str)> {
        let mut seen = Vec::new();
        ix.sweep(Time(t), StreamId(s), |vs, p, node| {
            seen.push((vs.0, *p));
            if node.max_ve(StreamId(s)).is_none_or(|m| m < Time(t)) {
                SweepAction::Retire
            } else {
                SweepAction::Keep
            }
        });
        seen
    }

    #[test]
    fn counts_and_max_ve() {
        let mut n = Node::default();
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(5));
        n.increment(StreamId(0), Time(9));
        assert_eq!(n.count_of(StreamId(0)), 3);
        assert_eq!(n.max_ve(StreamId(0)), Some(Time(9)));
        assert!(n.decrement(StreamId(0), Time(9)));
        assert_eq!(n.max_ve(StreamId(0)), Some(Time(5)));
        assert!(!n.decrement(StreamId(0), Time(9)), "already gone");
    }

    #[test]
    fn upsert_is_idempotent_on_node_count() {
        let mut ix: In3t<&str> = In3t::new();
        ix.upsert(Time(1), &"A", |n| n.increment(StreamId(0), Time(5)));
        ix.upsert(Time(1), &"A", |n| n.increment(StreamId(0), Time(5)));
        assert_eq!(ix.len(), 1);
        assert_eq!(ix.get(Time(1), &"A").unwrap().count_of(StreamId(0)), 2);
        assert_eq!(
            ix.update(Time(2), &"A", |_| ()),
            None,
            "update never creates"
        );
    }

    #[test]
    fn output_multiset() {
        let mut n = Node::default();
        n.out_increment(Time(5));
        n.out_increment(Time(5));
        assert_eq!(n.count_out(), 2);
        assert!(n.out_decrement(Time(5)));
        assert_eq!(n.count_out(), 1);
        assert!(!n.out_decrement(Time(7)));
    }

    #[test]
    fn sweep_retires_in_place_with_bookkeeping() {
        let mut ix: In3t<&str> = In3t::new();
        ix.upsert(Time(1), &"A", |n| n.increment(StreamId(0), Time(3)));
        ix.upsert(Time(5), &"B", |n| n.increment(StreamId(0), Time(90)));
        ix.upsert(Time(9), &"C", |_| ());
        assert_eq!(sweep(&mut ix, 6, 0), [(1, "A"), (5, "B")]);
        assert_eq!(ix.len(), 2, "A retired, B and C live");
        assert!(ix.get(Time(1), &"A").is_none());
        assert_eq!(ix.min_live_vs(), Some(Time(5)));
    }

    #[test]
    fn sweep_skips_half_frozen_nodes_it_cannot_change() {
        let mut ix: In3t<&str> = In3t::new();
        ix.upsert(Time(1), &"A", |n| {
            n.increment(StreamId(0), Time(50));
            n.out_increment(Time(50));
        });
        ix.upsert(Time(2), &"B", |n| {
            n.increment(StreamId(0), Time(40));
            n.out_increment(Time(15));
        });
        assert_eq!(sweep(&mut ix, 10, 0), [(1, "A"), (2, "B")]);
        // The young tiers are walked once more, then indexed.
        assert_eq!(sweep(&mut ix, 12, 0), [(1, "A"), (2, "B")]);
        // B's output bucket at 15 falls below 20; A sleeps until 50.
        assert_eq!(sweep(&mut ix, 20, 0), [(2, "B")]);
        assert_eq!(sweep(&mut ix, 30, 0), [(2, "B")], "still below: revisit");
        // A data-path adjust lowering A's end wakes it.
        ix.update(Time(1), &"A", |n| {
            n.decrement(StreamId(0), Time(50));
            n.increment(StreamId(0), Time(33));
        });
        assert_eq!(sweep(&mut ix, 35, 0), [(1, "A"), (2, "B")]);
    }

    #[test]
    fn an_emptied_multiset_no_longer_carries_the_node() {
        let mut ix: In3t<&str> = In3t::new();
        ix.upsert(Time(1), &"A", |n| {
            n.increment(StreamId(0), Time(50));
            n.increment(StreamId(1), Time(50));
        });
        sweep(&mut ix, 10, 0);
        // Input 1 removes its only copy (adjust to Ve = Vs): it now lacks
        // A, so its stable must visit (and retire) A.
        ix.update(Time(1), &"A", |n| n.decrement(StreamId(1), Time(50)));
        assert_eq!(sweep(&mut ix, 20, 1), [(1, "A")]);
        assert!(ix.is_empty());
    }

    #[test]
    fn memory_accounts_for_tier_trees() {
        use crate::mem::btree_bytes;
        let mut ix: In3t<&'static str> = In3t::new();
        ix.upsert(Time(1), &"A", |n| {
            n.increment(StreamId(0), Time(5));
            n.increment(StreamId(1), Time(6));
            n.out_increment(Time(5));
        });
        // One tier map (1 node), one per-input map (2 streams), three Ve
        // entries (two input, one output) — pinned exactly.
        let expected = 48
            + btree_bytes(1, std::mem::size_of::<(&str, Node)>())
            + btree_bytes(2, std::mem::size_of::<(u32, VeCounts)>())
            + 3 * (std::mem::size_of::<(Time, usize)>() + 16);
        assert_eq!(ix.memory_bytes(), expected);
        // Once indexed (the second sweep after it is half frozen), the
        // node adds one wake entry and two counters.
        ix.sweep(Time(3), StreamId(0), |_, _, _| SweepAction::Keep);
        ix.sweep(Time(4), StreamId(0), |_, _, _| SweepAction::Keep);
        let wake =
            btree_bytes(1, std::mem::size_of::<(Time, Time)>()) + 2 * std::mem::size_of::<usize>();
        assert_eq!(ix.memory_bytes(), expected + wake);
    }

    #[test]
    fn iter_all_walks_canonical_order_and_supports_rebuild() {
        let mut ix: In3t<&'static str> = In3t::new();
        ix.upsert(Time(5), &"B", |n| n.increment(StreamId(1), Time(9)));
        ix.upsert(Time(1), &"A", |n| {
            n.increment(StreamId(0), Time(5));
            n.increment(StreamId(0), Time(5));
            n.out_increment(Time(5));
        });

        let mut back: In3t<&'static str> = In3t::new();
        for (vs, p, node) in ix.iter_all() {
            back.restore_node(vs, *p, node.clone());
        }
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.memory_bytes(), ix.memory_bytes());
        let a: Vec<_> = ix.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        assert_eq!(a, vec![(Time(1), "A"), (Time(5), "B")]);
        let b: Vec<_> = back.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        assert_eq!(a, b);
        assert_eq!(back.get(Time(1), &"A").unwrap().count_of(StreamId(0)), 2);
        assert_eq!(back.get(Time(1), &"A").unwrap().count_out(), 1);
    }

    #[test]
    fn purge_stream_drops_only_that_stream() {
        let mut ix: In3t<&str> = In3t::new();
        ix.upsert(Time(1), &"A", |n| {
            n.increment(StreamId(0), Time(5));
            n.increment(StreamId(1), Time(6));
        });
        ix.purge_stream(StreamId(0));
        let n = ix.get(Time(1), &"A").unwrap();
        assert_eq!(n.count_of(StreamId(0)), 0);
        assert_eq!(n.count_of(StreamId(1)), 1);
    }
}
