//! TDB events: a payload with a half-open validity interval.

use crate::payload::{HeapSize, Payload};
use crate::time::Time;

/// An event of the temporal database: payload `p` valid over `[Vs, Ve)`.
///
/// `Ve` may be [`Time::INFINITY`]. The paper requires `Vs < Ve` for a live
/// event; an adjust that sets `Ve = Vs` *removes* the event (Example 5).
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Event<P> {
    /// Validity start (the event's timestamp).
    pub vs: Time,
    /// Validity end (exclusive); may be infinite.
    pub ve: Time,
    /// The relational payload.
    pub payload: P,
}

impl<P: Payload> Event<P> {
    /// Construct an event, asserting interval validity in debug builds.
    pub fn new(payload: P, vs: impl Into<Time>, ve: impl Into<Time>) -> Event<P> {
        let (vs, ve) = (vs.into(), ve.into());
        debug_assert!(vs < ve, "event interval must be non-empty: [{vs}, {ve})");
        Event { vs, ve, payload }
    }

    /// An event that never expires (`Ve = ∞`).
    pub fn open_ended(payload: P, vs: impl Into<Time>) -> Event<P> {
        Event::new(payload, vs, Time::INFINITY)
    }

    /// Whether the event is active at application time `t`
    /// (i.e. `t ∈ [Vs, Ve)`).
    #[inline]
    pub fn active_at(&self, t: Time) -> bool {
        self.vs <= t && t < self.ve
    }

    /// The `(Vs, Payload)` key used by the paper's `in2t`/`in3t` indexes.
    #[inline]
    pub fn key(&self) -> (Time, &P) {
        (self.vs, &self.payload)
    }

    /// Replace the end time, returning a new event.
    #[must_use]
    pub fn with_ve(&self, ve: Time) -> Event<P> {
        Event {
            vs: self.vs,
            ve,
            payload: self.payload.clone(),
        }
    }
}

impl<P: HeapSize> HeapSize for Event<P> {
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.payload.heap_bytes()
    }
}

impl<P: std::fmt::Debug> std::fmt::Debug for Event<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "⟨{:?}, [{}, {})⟩", self.payload, self.vs, self.ve)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn active_at_half_open() {
        let e = Event::new("A", 5, 10);
        assert!(!e.active_at(Time(4)));
        assert!(e.active_at(Time(5)));
        assert!(e.active_at(Time(9)));
        assert!(!e.active_at(Time(10)), "interval is half-open");
    }

    #[test]
    fn open_ended_is_always_active_after_start() {
        let e = Event::open_ended("A", 5);
        assert!(e.active_at(Time(1_000_000_000)));
        assert!(!e.active_at(Time(4)));
    }

    // The check is a `debug_assert!`: release builds do not have it.
    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "non-empty")]
    fn empty_interval_panics_in_debug() {
        let _ = Event::new("A", 5, 5);
    }

    #[test]
    fn with_ve_preserves_rest() {
        let e = Event::new("A", 5, 10).with_ve(Time(20));
        assert_eq!(e.vs, Time(5));
        assert_eq!(e.ve, Time(20));
        assert_eq!(e.payload, "A");
    }
}
