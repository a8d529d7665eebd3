//! The wake-time index behind the incremental stable sweep of R3+ and R4.
//!
//! A `stable(t)` from the driving input `s` reconciles every node with
//! `Vs < t` against `s` (the paper's `FindHalfFrozen`, R3 lines 17–27 and
//! R4's `AdjustOutputCount`/`AdjustOutput`). Walking that whole prefix
//! costs O(half-frozen set) per punctuation, yet a node that is already
//! half frozen (`Vs < MaxStable`) can only change when one of its end
//! times falls below `t`, or when `s` does not carry it at all. So a
//! stable visits exactly three sets:
//!
//! * tiers whose **wake time** is below `t` — the wake time of a node is
//!   the minimum of every end time recorded on it (each input's and the
//!   output's); a half-frozen node that `s` carries and whose wake is
//!   `≥ t` is a provable no-op for both algorithms;
//! * the newly half-frozen range `[MaxStable, t)` (and the range the
//!   previous stable half-froze, see below);
//! * the half-frozen nodes `s` lacks. Exact per-input counts of the
//!   half-frozen nodes carrying each input detect them: when
//!   `carry[s] != half_frozen`, the sweep walks all of `..t` and rebuilds
//!   the index (only dropped events, late attach or detach cause this).
//!
//! The wake set holds `(wake, Vs)` entries, each a *lower bound* on the
//! true wake of some node in tier `Vs`. A change that lowers a half-frozen
//! node's wake adds an entry; a raised wake leaves a stale one behind,
//! which the next sweep it wakes simply re-keys. Fresh nodes
//! (`Vs ≥ MaxStable`) get no entry, so the data path of short-lived
//! workloads pays one comparison. A tier the sweep half-freezes is walked
//! once more by the next sweep (the *young* range `[old MaxStable,
//! MaxStable)`, contiguous with the fresh one) and enters the wake set
//! only if it survives that: nodes that settle within two stables never
//! touch the set, and walking a range costs less than indexing it.
//!
//! Visit order is woken tiers in ascending `Vs`, then the young and fresh
//! range — which is ascending `(Vs, payload)` over the nodes that act, the
//! order of the full walk, so output is unchanged. The index is derived
//! state: a restored index starts empty and the first two sweeps walk the
//! whole prefix, which rebuilds it. It is never persisted.

use crate::mem::btree_bytes;
use lmerge_temporal::{StreamId, Time};
use std::collections::{BTreeMap, BTreeSet};

/// Verdict returned by a sweep visitor for each visited node: keep it in
/// the index, or retire (remove) it as settled.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SweepAction {
    /// The node stays live (it still has unfrozen end times).
    Keep,
    /// The node is fully settled; remove it during the walk.
    Retire,
}

/// An index node as the wake index sees it.
pub(crate) trait WakeNode {
    /// The earliest end time recorded on the node — every input's and the
    /// output's (`Time::INFINITY` when it records none).
    fn wake(&self) -> Time;
    /// Call `f` with the id of each input the node carries.
    fn for_each_input(&self, f: impl FnMut(u32));
}

/// Wake set plus the half-frozen counts, shared by
/// [`crate::in2t::In2t`] and [`crate::in3t::In3t`].
#[derive(Debug)]
pub(crate) struct WakeIndex {
    /// Nodes with `Vs` below this are half frozen (the owner's `MaxStable`).
    frontier: Time,
    /// Tiers in `[young, frontier)` were half frozen by the last sweep and
    /// have no wake entry yet: the next sweep walks them again.
    young: Time,
    /// `(wake, Vs)`: a lower bound on the wake of some node in tier `Vs`.
    wakes: BTreeSet<(Time, Time)>,
    /// Number of half-frozen nodes.
    half_frozen: usize,
    /// `carry[s]`: half-frozen nodes that carry input `s`.
    carry: Vec<usize>,
}

impl Default for WakeIndex {
    fn default() -> Self {
        WakeIndex::new()
    }
}

impl WakeIndex {
    /// An empty index: nothing is half frozen before the first sweep.
    pub fn new() -> WakeIndex {
        WakeIndex {
            frontier: Time::MIN,
            young: Time::MIN,
            wakes: BTreeSet::new(),
            half_frozen: 0,
            carry: Vec::new(),
        }
    }

    /// Apply `f` to the live `node` at `vs`, keeping the counts and the
    /// wake set exact for half-frozen nodes.
    #[inline]
    pub fn touch<N: WakeNode, R>(
        &mut self,
        vs: Time,
        node: &mut N,
        f: impl FnOnce(&mut N) -> R,
    ) -> R {
        if vs >= self.frontier {
            return f(node);
        }
        let before = node.wake();
        self.count(node, false);
        let r = f(node);
        self.count(node, true);
        let after = node.wake();
        if after < before {
            self.note(vs, after);
        }
        r
    }

    /// Register a node that just joined the index at `vs`.
    pub fn admit<N: WakeNode>(&mut self, vs: Time, node: &N) {
        if vs < self.frontier {
            self.count(node, true);
            self.note(vs, node.wake());
        }
    }

    /// Every node just dropped input `s` (detach).
    pub fn forget(&mut self, s: StreamId) {
        if let Some(c) = self.carry.get_mut(s.0 as usize) {
            *c = 0;
        }
    }

    /// Estimated memory of the wake set and the counters.
    pub fn memory_bytes(&self) -> usize {
        btree_bytes(self.wakes.len(), std::mem::size_of::<(Time, Time)>())
            + self.carry.len() * std::mem::size_of::<usize>()
    }

    /// The incremental `FindHalfFrozen` for a `stable(t)` driven by `s`:
    /// visit, in the order described in the module docs, every node of
    /// `tiers` below `t` that the stable can change, unlinking the ones
    /// the visitor retires (`retire` does the owner's bookkeeping first).
    /// The visitor may change a node's end times but not which inputs it
    /// carries.
    pub fn sweep<P: Ord, N: WakeNode>(
        &mut self,
        tiers: &mut BTreeMap<Time, BTreeMap<P, N>>,
        t: Time,
        s: StreamId,
        mut visit: impl FnMut(Time, &P, &mut N) -> SweepAction,
        mut retire: impl FnMut(&P, &N),
    ) {
        let lacks = self.carry.get(s.0 as usize).copied().unwrap_or(0) != self.half_frozen;
        // The walk covers `[walk_from, t)`; tiers it keeps below
        // `index_below` get a wake entry.
        let (walk_from, index_below) = if lacks {
            // `s` lacks some half-frozen node: walk everything and recount.
            self.wakes.clear();
            self.half_frozen = 0;
            self.carry.fill(0);
            (Time::MIN, t)
        } else {
            (self.young.min(t), self.frontier)
        };
        let mut woken = Vec::new();
        while let Some(&(wake, vs)) = self.wakes.first() {
            if wake >= t {
                break;
            }
            self.wakes.pop_first();
            if vs < walk_from {
                woken.push(vs); // younger tiers are walked anyway
            }
        }
        woken.sort_unstable();
        woken.dedup();
        let mut emptied = Vec::new();
        for &vs in &woken {
            if let Some(tier) = tiers.get_mut(&vs) {
                if self.visit_tier(vs, tier, true, true, &mut visit, &mut retire) {
                    emptied.push(vs);
                }
            }
        }
        for vs in emptied {
            tiers.remove(&vs);
        }
        // The contiguous range unlinks its emptied tiers as it goes.
        let counted_below = if lacks { Time::MIN } else { self.frontier };
        let walk = tiers.extract_if(walk_from..t, |&vs, tier| {
            let (counted, index) = (vs < counted_below, vs < index_below);
            self.visit_tier(vs, tier, counted, index, &mut visit, &mut retire)
        });
        walk.for_each(drop);
        self.young = index_below;
        self.frontier = self.frontier.max(t);
        if self.half_frozen == 0 {
            // Nothing is half frozen: stale entries and zeroed counters
            // carry no information, so release them.
            self.wakes.clear();
            self.carry = Vec::new();
        }
    }

    /// Visit one tier; `counted` says whether its nodes are already
    /// counted as half frozen, `index` whether it gets a wake entry if it
    /// survives. Returns whether the tier is now empty.
    fn visit_tier<P: Ord, N: WakeNode>(
        &mut self,
        vs: Time,
        tier: &mut BTreeMap<P, N>,
        counted: bool,
        index: bool,
        visit: &mut impl FnMut(Time, &P, &mut N) -> SweepAction,
        retire: &mut impl FnMut(&P, &N),
    ) -> bool {
        let mut wake = Time::INFINITY;
        tier.retain(|payload, node| match visit(vs, payload, node) {
            SweepAction::Keep => {
                if !counted {
                    self.count(node, true);
                }
                wake = wake.min(node.wake());
                true
            }
            SweepAction::Retire => {
                if counted {
                    self.count(node, false);
                }
                retire(payload, node);
                false
            }
        });
        if index {
            self.note(vs, wake);
        }
        tier.is_empty()
    }

    fn count<N: WakeNode>(&mut self, node: &N, add: bool) {
        if add {
            self.half_frozen += 1;
        } else {
            self.half_frozen -= 1;
        }
        let carry = &mut self.carry;
        node.for_each_input(|id| {
            let i = id as usize;
            if i >= carry.len() {
                carry.resize(i + 1, 0);
            }
            if add {
                carry[i] += 1;
            } else {
                carry[i] -= 1;
            }
        });
    }

    /// Record a wake bound for tier `vs`. An infinite wake never falls
    /// below a stable, so it needs no entry.
    fn note(&mut self, vs: Time, wake: Time) {
        if wake != Time::INFINITY {
            self.wakes.insert((wake, vs));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A node that is just its list of `(input, end time)` entries.
    struct Ends(Vec<(u32, Time)>);

    impl WakeNode for Ends {
        fn wake(&self) -> Time {
            self.0.iter().map(|e| e.1).min().unwrap_or(Time::INFINITY)
        }
        fn for_each_input(&self, mut f: impl FnMut(u32)) {
            self.0.iter().for_each(|e| f(e.0));
        }
    }

    type Tiers = BTreeMap<Time, BTreeMap<&'static str, Ends>>;
    /// `(Vs, payload, [(input, Ve)])`.
    type Spec<'a> = (i64, &'static str, &'a [(u32, i64)]);

    fn tiers(nodes: &[Spec]) -> Tiers {
        let mut tiers = Tiers::new();
        for (vs, p, ends) in nodes {
            let ends = ends.iter().map(|&(s, ve)| (s, Time(ve))).collect();
            tiers.entry(Time(*vs)).or_default().insert(*p, Ends(ends));
        }
        tiers
    }

    /// Sweep at `t` driven by `s`; returns the visited keys. Retires a
    /// node whose end for `s` (or lack of one) falls below `t`.
    fn sweep(ix: &mut WakeIndex, tiers: &mut Tiers, t: i64, s: u32) -> Vec<(i64, &'static str)> {
        let mut seen = Vec::new();
        ix.sweep(
            tiers,
            Time(t),
            StreamId(s),
            |vs, p, node| {
                seen.push((vs.0, *p));
                let end = node.0.iter().find(|e| e.0 == s).map_or(vs, |e| e.1);
                if end < Time(t) {
                    SweepAction::Retire
                } else {
                    SweepAction::Keep
                }
            },
            |_, _| {},
        );
        seen
    }

    #[test]
    fn a_stable_visits_only_woken_tiers_and_the_young_and_fresh_range() {
        let mut ix = WakeIndex::new();
        let mut t = tiers(&[
            (1, "a", &[(0, 50)]),
            (2, "b", &[(0, 15)]),
            (3, "c", &[(0, 90)]),
            (12, "d", &[(0, 70)]),
        ]);
        assert_eq!(
            sweep(&mut ix, &mut t, 10, 0),
            [(1, "a"), (2, "b"), (3, "c")],
            "first stable walks the whole prefix"
        );
        assert_eq!((ix.half_frozen, ix.carry.as_slice()), (3, &[3][..]));
        assert!(ix.wakes.is_empty(), "young tiers are not indexed yet");
        // The young tiers are walked again (b retires, a and c enter the
        // wake set); d is newly half frozen.
        assert_eq!(
            sweep(&mut ix, &mut t, 20, 0),
            [(1, "a"), (2, "b"), (3, "c"), (12, "d")]
        );
        assert!(!t.contains_key(&Time(2)), "b retired, its tier unlinked");
        assert_eq!(ix.wakes.len(), 2);
        assert_eq!(sweep(&mut ix, &mut t, 40, 0), [(12, "d")]);
        assert_eq!(sweep(&mut ix, &mut t, 45, 0), [], "nothing wakes before 50");
        assert_eq!(sweep(&mut ix, &mut t, 80, 0), [(1, "a"), (12, "d")]);
        assert_eq!((ix.half_frozen, ix.carry.as_slice()), (1, &[1][..]));
    }

    #[test]
    fn a_driver_that_lacks_a_node_walks_everything_and_recounts() {
        let mut ix = WakeIndex::new();
        let mut t = tiers(&[(1, "a", &[(0, 50), (1, 50)]), (2, "b", &[(0, 60)])]);
        sweep(&mut ix, &mut t, 10, 0);
        assert_eq!(ix.carry, [2, 1]);
        // Input 1 lacks b: its stable must visit (and retire) it although
        // no wake is below 20.
        assert_eq!(sweep(&mut ix, &mut t, 20, 1), [(1, "a"), (2, "b")]);
        assert!(!t.contains_key(&Time(2)));
        assert_eq!((ix.half_frozen, ix.carry.as_slice()), (1, &[1, 1][..]));
        assert_eq!(ix.wakes.len(), 1, "the walk indexed what it kept");
        assert_eq!(sweep(&mut ix, &mut t, 30, 1), [], "counts agree again");
    }

    #[test]
    fn touch_adds_an_entry_only_when_the_wake_falls() {
        let mut ix = WakeIndex::new();
        let mut t = tiers(&[(1, "a", &[(0, 50)])]);
        sweep(&mut ix, &mut t, 10, 0);
        sweep(&mut ix, &mut t, 12, 0);
        assert_eq!(ix.wakes.len(), 1);
        let node = t.get_mut(&Time(1)).unwrap().get_mut("a").unwrap();
        ix.touch(Time(1), node, |n| n.0[0].1 = Time(60));
        assert_eq!(ix.wakes.len(), 1, "a raised wake leaves the old entry");
        // The stale 50 entry wakes the tier, which re-keys to 60.
        assert_eq!(sweep(&mut ix, &mut t, 55, 0), [(1, "a")]);
        assert_eq!(sweep(&mut ix, &mut t, 58, 0), []);
        let node = t.get_mut(&Time(1)).unwrap().get_mut("a").unwrap();
        ix.touch(Time(1), node, |n| n.0.push((1, Time(59))));
        assert_eq!(ix.wakes.len(), 2, "a lowered wake adds an entry");
        assert_eq!((ix.half_frozen, ix.carry.as_slice()), (1, &[1, 1][..]));
        assert_eq!(sweep(&mut ix, &mut t, 59, 0), []);
        assert_eq!(sweep(&mut ix, &mut t, 60, 0), [(1, "a")]);
        ix.forget(StreamId(1));
        assert_eq!(ix.carry, [1, 0]);
    }

    #[test]
    fn fresh_nodes_pay_no_bookkeeping() {
        let mut ix = WakeIndex::new();
        ix.frontier = Time(10);
        let mut node = Ends(vec![(0, Time(12))]);
        ix.touch(Time(10), &mut node, |n| n.0[0].1 = Time(11));
        ix.admit(Time(11), &node);
        assert_eq!((ix.half_frozen, ix.wakes.len()), (0, 0));
        ix.admit(Time(9), &node);
        assert_eq!((ix.half_frozen, ix.wakes.len()), (1, 1));
    }

    #[test]
    fn memory_counts_entries_and_counters() {
        let mut ix = WakeIndex::new();
        ix.frontier = Time(100);
        assert_eq!(ix.memory_bytes(), 0);
        ix.admit(Time(1), &Ends(vec![(0, Time(5)), (2, Time(7))]));
        ix.admit(Time(2), &Ends(vec![(1, Time::INFINITY)]));
        let expected =
            btree_bytes(1, std::mem::size_of::<(Time, Time)>()) + 3 * std::mem::size_of::<usize>();
        assert_eq!(ix.memory_bytes(), expected, "one finite wake, three inputs");
    }
}
