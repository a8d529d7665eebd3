//! The `in2t` (index-2-tier) data structure of Figure 1 (left).
//!
//! The top tier orders live `(Vs, Payload)` keys by `Vs` (the paper uses a
//! red-black tree; we use a `BTreeMap<Vs, BTreeMap<Payload, Node>>`, which
//! supports the same `FindHalfFrozen` range scan). Each node stores the
//! event *once* — payloads are shared across inputs, which is what makes
//! LMR3+ memory nearly independent of the number of inputs — plus a small
//! table mapping each input stream (and the output pseudo-stream) to its
//! current `Ve` for the event.
//!
//! The inner tier is an ordered map rather than a hash map because the
//! durability layer requires *restorable iteration*: a sweep over an index
//! rebuilt from a checkpoint must emit in exactly the order the original
//! would have, and a hash table's slot layout is a function of its full
//! insertion/deletion history, which a rebuild cannot reproduce. Keying by
//! payload `Ord` makes iteration a pure function of the index's contents.
//!
//! Every change to a node goes through the index ([`In2t::insert`],
//! [`In2t::update`], [`In2t::sweep`]) so that the wake index over the
//! half-frozen region ([`crate::wake`]) stays exact.

use crate::mem::btree_bytes;
use crate::wake::{SweepAction, WakeIndex, WakeNode};
use lmerge_temporal::{Payload, StreamId, Time};
use std::collections::BTreeMap;

/// Per-key node: one shared event, per-stream current end times.
///
/// The per-stream table is a small vector rather than a hash map: LMerge
/// fans in a handful of streams, and a linear scan over an inline vector is
/// both faster and leaner than a heap-allocated map per event.
#[derive(Clone, Debug)]
pub struct Node {
    /// Current `Ve` on each input stream that has produced the event.
    per_input: Vec<(u32, Time)>,
    /// Current `Ve` on the output (`None` until first emitted — the paper's
    /// hash entry with "special key ∞", made optional to support the
    /// `WaitHalfFrozen`/`Quorum` insert policies).
    pub output_ve: Option<Time>,
}

impl Node {
    /// Record `ve` for input `s`. Returns true when `s` is new to the node.
    pub fn set_input(&mut self, s: StreamId, ve: Time) -> bool {
        for entry in &mut self.per_input {
            if entry.0 == s.0 {
                entry.1 = ve;
                return false;
            }
        }
        self.per_input.push((s.0, ve));
        true
    }

    /// The current `Ve` recorded for input `s`, if any.
    pub fn input_ve(&self, s: StreamId) -> Option<Time> {
        self.per_input
            .iter()
            .find(|(id, _)| *id == s.0)
            .map(|(_, ve)| *ve)
    }

    /// Whether input `s` has produced the event.
    pub fn has_input(&self, s: StreamId) -> bool {
        self.per_input.iter().any(|(id, _)| *id == s.0)
    }

    /// Drop input `s`'s entry. Returns true if one existed.
    fn remove_input(&mut self, s: StreamId) -> bool {
        if let Some(pos) = self.per_input.iter().position(|(id, _)| *id == s.0) {
            self.per_input.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Number of distinct inputs that have produced the event (drives the
    /// `Quorum` insert policy).
    pub fn support(&self) -> u32 {
        self.per_input.len() as u32
    }

    /// Iterate the `(input, Ve)` entries currently recorded on the node
    /// (robustness accounting: callers decrement per-input live-entry
    /// counters when a node retires).
    pub fn entries(&self) -> impl Iterator<Item = (StreamId, Time)> + '_ {
        self.per_input.iter().map(|&(id, ve)| (StreamId(id), ve))
    }
}

impl WakeNode for Node {
    fn wake(&self) -> Time {
        let inputs = self.per_input.iter().map(|e| e.1);
        inputs.chain(self.output_ve).min().unwrap_or(Time::INFINITY)
    }

    fn for_each_input(&self, mut f: impl FnMut(u32)) {
        self.per_input.iter().for_each(|e| f(e.0));
    }
}

/// The two-tier index: `Vs → (Payload → Node)`.
#[derive(Debug)]
pub struct In2t<P: Payload> {
    tiers: BTreeMap<Time, BTreeMap<P, Node>>,
    nodes: usize,
    /// Retained payload heap bytes (each payload stored once).
    payload_bytes: usize,
    /// Total per-input hash entries across all nodes.
    entries: usize,
    /// Which half-frozen tiers a stable can change.
    wake: WakeIndex,
}

impl<P: Payload> In2t<P> {
    /// An empty index. A restored index starts with an empty wake index
    /// too: the first two sweeps after a restore walk the whole prefix and
    /// rebuild it.
    pub fn new() -> In2t<P> {
        In2t {
            tiers: BTreeMap::new(),
            nodes: 0,
            payload_bytes: 0,
            entries: 0,
            wake: WakeIndex::new(),
        }
    }

    /// Number of live `(Vs, Payload)` nodes (the paper's `w`).
    pub fn len(&self) -> usize {
        self.nodes
    }

    /// Whether the index holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes == 0
    }

    /// Look up the node for `(vs, payload)` (the paper's `SameVsPayload`).
    pub fn get(&self, vs: Time, payload: &P) -> Option<&Node> {
        self.tiers.get(&vs).and_then(|m| m.get(payload))
    }

    /// Apply `f` to the node for `(vs, payload)`, if it exists, with full
    /// bookkeeping of its per-input entries and wake time.
    #[inline]
    pub fn update<R>(
        &mut self,
        vs: Time,
        payload: &P,
        f: impl FnOnce(&mut Node) -> R,
    ) -> Option<R> {
        let node = self.tiers.get_mut(&vs)?.get_mut(payload)?;
        let before = node.per_input.len();
        let r = self.wake.touch(vs, node, f);
        self.entries = self.entries + node.per_input.len() - before;
        Some(r)
    }

    /// Add a node for `(vs, payload)` with the given per-input end times,
    /// emitted with `output_ve` (`None`: not yet) — a first arrival or a
    /// node rebuilt from checkpoint data. The caller must not add a node
    /// that already exists.
    pub fn insert(
        &mut self,
        vs: Time,
        payload: P,
        per_input: &[(u32, Time)],
        output_ve: Option<Time>,
    ) {
        self.nodes += 1;
        self.payload_bytes += payload.heap_bytes();
        self.entries += per_input.len();
        // Built in place: allocating the entry vector before the tree slot
        // costs the data path ~2x on insert-heavy feeds (heap layout).
        let node = self
            .tiers
            .entry(vs)
            .or_default()
            .entry(payload)
            .or_insert_with(|| Node {
                per_input: Vec::new(),
                output_ve,
            });
        node.per_input.extend_from_slice(per_input);
        self.wake.admit(vs, node);
    }

    /// The paper's `FindHalfFrozen` for a `stable(t)` driven by input `s`,
    /// made incremental by the wake index ([`crate::wake`]): visit every
    /// node with `Vs < t` that the stable can change — in `(Vs, payload)`
    /// order among those that act — with mutable access. Nodes for which the
    /// visitor returns [`SweepAction::Retire`] are unlinked during the walk
    /// with full bookkeeping. The visitor must leave unchanged a node that
    /// `s` carries and whose end times are all `≥ t`, and must not change
    /// which inputs a node carries.
    pub fn sweep(
        &mut self,
        t: Time,
        s: StreamId,
        visit: impl FnMut(Time, &P, &mut Node) -> SweepAction,
    ) {
        let In2t {
            tiers,
            nodes,
            payload_bytes,
            entries,
            wake,
        } = self;
        wake.sweep(tiers, t, s, visit, |payload, node| {
            *nodes -= 1;
            *payload_bytes -= payload.heap_bytes();
            *entries -= node.per_input.len();
        });
    }

    /// The smallest live `Vs` in the index, if any — an O(log n) lower
    /// bound that lets callers discard whole stale batches without probing
    /// each element (no node can exist below this timestamp).
    pub fn min_live_vs(&self) -> Option<Time> {
        self.tiers.keys().next().copied()
    }

    /// Drop every per-input entry belonging to `s` (stream detach).
    pub fn purge_stream(&mut self, s: StreamId) {
        for m in self.tiers.values_mut() {
            for node in m.values_mut() {
                if node.remove_input(s) {
                    self.entries -= 1;
                }
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

    /// Estimated memory: tree structure, the per-`Vs` payload tiers
    /// (modelled by [`btree_bytes`] so the figure is a pure function of the
    /// contents — a restored index reports the same bytes as its source),
    /// shared payloads, per-input entries, and the wake index (derived
    /// state: its stale entries depend on history, so after a restore it
    /// may report less until the next sweeps re-key it).
    pub fn memory_bytes(&self) -> usize {
        const TIER_OVERHEAD: usize = 48; // BTree node amortized per key
        const ENTRY_BYTES: usize = std::mem::size_of::<(u32, Time)>() + 16;
        let tables: usize = self
            .tiers
            .values()
            .map(|m| btree_bytes(m.len(), std::mem::size_of::<(P, Node)>()))
            .sum();
        self.tiers.len() * TIER_OVERHEAD
            + tables
            + self.payload_bytes
            + self.entries * ENTRY_BYTES
            + self.wake.memory_bytes()
    }
}

impl<P: Payload> Default for In2t<P> {
    fn default() -> Self {
        In2t::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ENTRY: usize = std::mem::size_of::<(u32, Time)>() + 16;

    /// Sweep at `t` driven by `s` with R3's retirement rule (the driver's
    /// end, or `Vs` when it lacks the node, falls below `t`); returns the
    /// visited keys.
    fn sweep(ix: &mut In2t<&'static str>, t: i64, s: u32) -> Vec<(i64, &'static str)> {
        let mut seen = Vec::new();
        ix.sweep(Time(t), StreamId(s), |vs, p, node| {
            seen.push((vs.0, *p));
            if node.input_ve(StreamId(s)).unwrap_or(vs) < Time(t) {
                SweepAction::Retire
            } else {
                SweepAction::Keep
            }
        });
        seen
    }

    #[test]
    fn insert_get_update() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(5), "A", &[(0, Time(9))], None);
        assert_eq!(ix.len(), 1);
        assert_eq!(
            ix.get(Time(5), &"A").unwrap().input_ve(StreamId(0)),
            Some(Time(9))
        );
        assert!(ix.get(Time(5), &"B").is_none());
        assert_eq!(ix.update(Time(5), &"B", |_| ()), None);
        let was_new = ix.update(Time(5), &"A", |n| n.set_input(StreamId(1), Time(9)));
        assert_eq!(was_new, Some(true));
        assert_eq!(ix.entries, 2, "update counts the new per-input entry");
    }

    #[test]
    fn support_counts_distinct_inputs() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(5))], None);
        ix.update(Time(1), &"A", |n| {
            n.set_input(StreamId(0), Time(7)); // same input again
            n.set_input(StreamId(1), Time(5));
        });
        assert_eq!(ix.get(Time(1), &"A").unwrap().support(), 2);
    }

    #[test]
    fn purge_stream_removes_entries() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(5))], None);
        ix.update(Time(1), &"A", |n| n.set_input(StreamId(1), Time(6)));
        ix.purge_stream(StreamId(0));
        let node = ix.get(Time(1), &"A").unwrap();
        assert!(!node.has_input(StreamId(0)));
        assert!(node.has_input(StreamId(1)));
        assert_eq!(ix.entries, 1);
    }

    #[test]
    fn sweep_visits_in_vs_order_and_retires_in_place() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(3))], None);
        ix.insert(Time(5), "B", &[(0, Time(90))], None);
        ix.insert(Time(9), "C", &[(0, Time(90))], None);
        assert_eq!(sweep(&mut ix, 6, 0), [(1, "A"), (5, "B")]);
        assert!(ix.get(Time(1), &"A").is_none(), "A retired");
        assert!(ix.get(Time(5), &"B").is_some(), "B kept");
        assert_eq!(ix.len(), 2);
        assert_eq!(ix.min_live_vs(), Some(Time(5)), "empty tier unlinked");
    }

    #[test]
    fn sweep_skips_half_frozen_nodes_it_cannot_change() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(50))], Some(Time(50)));
        ix.insert(Time(2), "B", &[(0, Time(15))], Some(Time(15)));
        ix.insert(Time(12), "C", &[(0, Time(70))], Some(Time(70)));
        assert_eq!(sweep(&mut ix, 10, 0), [(1, "A"), (2, "B")]);
        // The young tiers are walked once more (B's end, 15, falls below
        // 20); C becomes half frozen.
        assert_eq!(sweep(&mut ix, 20, 0), [(1, "A"), (2, "B"), (12, "C")]);
        assert_eq!(sweep(&mut ix, 40, 0), [(12, "C")]);
        assert_eq!(sweep(&mut ix, 45, 0), [], "A sleeps until 50, C until 70");
        // A data-path change that lowers a half-frozen end wakes the node.
        ix.update(Time(12), &"C", |n| n.set_input(StreamId(0), Time(46)));
        assert_eq!(sweep(&mut ix, 48, 0), [(12, "C")]);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn sweep_walks_everything_when_the_driver_lacks_a_half_frozen_node() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(50))], Some(Time(50)));
        ix.update(Time(1), &"A", |n| n.set_input(StreamId(1), Time(50)));
        ix.insert(Time(2), "B", &[(0, Time(60))], Some(Time(60)));
        sweep(&mut ix, 10, 0);
        // Input 1 never brought B: its stable retires B though no end
        // time is below 20.
        assert_eq!(sweep(&mut ix, 20, 1), [(1, "A"), (2, "B")]);
        assert!(ix.get(Time(2), &"B").is_none());
        // A detach purges input 1 from A, so 0 drives alone again.
        ix.purge_stream(StreamId(1));
        assert_eq!(sweep(&mut ix, 30, 0), []);
    }

    #[test]
    fn sweep_can_mutate_kept_nodes() {
        let mut ix: In2t<&str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(50))], None);
        ix.sweep(Time(10), StreamId(0), |_, _, node| {
            node.output_ve = Some(Time(50));
            SweepAction::Keep
        });
        assert_eq!(ix.get(Time(1), &"A").unwrap().output_ve, Some(Time(50)));
    }

    #[test]
    fn min_live_vs_tracks_smallest_tier() {
        let mut ix: In2t<&str> = In2t::new();
        assert_eq!(ix.min_live_vs(), None);
        ix.insert(Time(7), "A", &[(0, Time(20))], None);
        ix.insert(Time(3), "B", &[(0, Time(5))], None);
        assert_eq!(ix.min_live_vs(), Some(Time(3)));
        sweep(&mut ix, 6, 0);
        assert_eq!(ix.min_live_vs(), Some(Time(7)));
    }

    #[test]
    fn memory_accounts_for_tier_trees() {
        // Known shape: 10 nodes in one tier, one per-input entry each,
        // static payloads (zero heap bytes) — the estimate is pinned
        // exactly.
        let mut ix: In2t<&'static str> = In2t::new();
        let keys = ["a", "b", "c", "d", "e", "f", "g", "h", "i", "j"];
        for k in keys {
            ix.insert(Time(1), k, &[(0, Time(9))], None);
        }
        let expected = 48 + btree_bytes(10, std::mem::size_of::<(&str, Node)>()) + 10 * ENTRY;
        assert_eq!(ix.memory_bytes(), expected);
    }

    #[test]
    fn memory_accounts_for_the_wake_index() {
        // Two half-frozen tiers (one finite wake each) carried by inputs
        // 0 and 1: two wake entries and two counters on top of the nodes.
        let mut ix: In2t<&'static str> = In2t::new();
        ix.insert(Time(1), "a", &[(0, Time(50))], None);
        ix.insert(Time(2), "b", &[(0, Time(60)), (1, Time(60))], None);
        let nodes = ix.memory_bytes();
        // The second sweep indexes the tiers the first one half-froze.
        ix.sweep(Time(10), StreamId(0), |_, _, _| SweepAction::Keep);
        ix.sweep(Time(11), StreamId(0), |_, _, _| SweepAction::Keep);
        let wake =
            btree_bytes(2, std::mem::size_of::<(Time, Time)>()) + 2 * std::mem::size_of::<usize>();
        assert_eq!(ix.memory_bytes(), nodes + wake);
    }

    #[test]
    fn restore_rebuilds_an_identical_index() {
        let mut ix: In2t<&'static str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(5))], Some(Time(5)));
        ix.update(Time(1), &"A", |n| n.set_input(StreamId(2), Time(9)));
        ix.insert(Time(7), "B", &[(1, Time(8))], None);

        let mut back: In2t<&'static str> = In2t::new();
        for (vs, p, node) in ix.iter_all() {
            let per_input: Vec<(u32, Time)> = node.entries().map(|(s, ve)| (s.0, ve)).collect();
            back.insert(vs, *p, &per_input, node.output_ve);
        }
        assert_eq!(back.len(), ix.len());
        assert_eq!(back.memory_bytes(), ix.memory_bytes());
        let a: Vec<_> = ix.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        let b: Vec<_> = back.iter_all().map(|(vs, p, _)| (vs, *p)).collect();
        assert_eq!(a, b, "canonical iteration survives the round trip");
        assert_eq!(
            back.get(Time(1), &"A").unwrap().input_ve(StreamId(2)),
            Some(Time(9))
        );
        assert_eq!(back.get(Time(1), &"A").unwrap().output_ve, Some(Time(5)));
    }

    #[test]
    fn a_restored_index_rebuilds_its_wake_index_in_two_sweeps() {
        // Restored half-frozen nodes are not indexed yet, so the first two
        // sweeps walk the whole prefix; from then on it is incremental.
        let mut ix: In2t<&'static str> = In2t::new();
        ix.insert(Time(1), "A", &[(0, Time(15))], Some(Time(15)));
        ix.insert(Time(2), "B", &[(0, Time(80))], Some(Time(80)));
        assert_eq!(sweep(&mut ix, 12, 0), [(1, "A"), (2, "B")]);
        assert_eq!(sweep(&mut ix, 20, 0), [(1, "A"), (2, "B")]);
        assert_eq!(sweep(&mut ix, 30, 0), []);
        assert_eq!(ix.len(), 1);
    }

    #[test]
    fn memory_shares_payloads_across_inputs() {
        use lmerge_temporal::Value;
        let mut ix: In2t<Value> = In2t::new();
        let p = Value::synthetic(1, 1000);
        ix.insert(Time(1), p.clone(), &[(0, Time(5))], None);
        ix.update(Time(1), &p, |n| {
            for s in 1..10 {
                n.set_input(StreamId(s), Time(5));
            }
        });
        // Ten inputs, but only one kilobyte of payload is charged.
        let mem = ix.memory_bytes();
        assert!(mem > 1000 && mem < 3000, "got {mem}");
    }
}
