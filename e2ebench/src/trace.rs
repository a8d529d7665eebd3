//! Spans recorded from outside the program.
//!
//! The traced run measures each layer only by wrapping the public trait
//! objects the stack is assembled from — [`Source`], [`LogicalMerge`],
//! [`RunHooks`], [`CheckpointSink`] and [`TraceSink`] — plus the load
//! generator's own socket and `lmerge_net::wire` calls. Every wrapper
//! opens a span on entry and closes it on exit; spans nest through a
//! per-thread stack, so a layer's self time is its span minus its
//! children. Spans stay in a per-thread vector until the round ends.

use lmerge_core::{InputCounters, InputHealth, LogicalMerge, MergeStats, SpillHandler};
use lmerge_engine::{
    CheckpointSave, CheckpointSink, ControlAction, FaultAction, RunHooks, RunImage, Source,
    TimedElement,
};
use lmerge_obs::{TraceEvent, TraceSink};
use lmerge_properties::RLevel;
use lmerge_temporal::{Element, StreamId, Time, VTime, Value};
use std::cell::RefCell;

/// A layer boundary the benchmark can see.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum Stage {
    /// The executor thread from its first traced call to its last.
    EngineLoop,
    /// `NetSource::next`: the executor blocked on the ingest ring.
    SourceNext,
    /// `LogicalMerge::push_batch` of a data element.
    PushData,
    /// `LogicalMerge::push_batch` of a stable punctuation.
    PushStable,
    /// `RunHooks::on_consumed` of the egress hooks.
    Hooks,
    /// The egress writer (`NetHooks::with_egress`).
    Egress,
    /// `BroadcastHooks::on_consumed`: publishing into the epoch buffer.
    Publish,
    /// `TraceSink::record` of the metered run tracer.
    Record,
    /// `CheckpointSink::save` of the durable sink.
    Save,
    /// Generator: one socket write of pre-encoded data frames.
    LoadSend,
    /// Generator: `wire::decode` of a credit, ack or bye frame.
    LoadDecode,
    /// Generator: waiting for credits.
    LoadWait,
    /// Subscriber: one socket read of fanned-out frames.
    SubRead,
}

/// Every stage, in table order.
pub const STAGES: [Stage; 13] = [
    Stage::EngineLoop,
    Stage::SourceNext,
    Stage::PushData,
    Stage::PushStable,
    Stage::Hooks,
    Stage::Egress,
    Stage::Publish,
    Stage::Record,
    Stage::Save,
    Stage::LoadSend,
    Stage::LoadDecode,
    Stage::LoadWait,
    Stage::SubRead,
];

impl Stage {
    /// The span name: the layer (crate) and the boundary.
    pub fn name(self) -> &'static str {
        match self {
            Stage::EngineLoop => "engine.loop",
            Stage::SourceNext => "net.source_next",
            Stage::PushData => "core.push_data",
            Stage::PushStable => "core.push_stable",
            Stage::Hooks => "engine.hooks",
            Stage::Egress => "net.egress",
            Stage::Publish => "sub.publish",
            Stage::Record => "obs.record",
            Stage::Save => "durable.save",
            Stage::LoadSend => "load.send",
            Stage::LoadDecode => "load.decode",
            Stage::LoadWait => "load.credit_wait",
            Stage::SubRead => "sub.read",
        }
    }

    /// Whether the span runs on the executor thread.
    pub fn on_executor(self) -> bool {
        !matches!(
            self,
            Stage::LoadSend | Stage::LoadDecode | Stage::LoadWait | Stage::SubRead
        )
    }
}

/// No parent.
pub const NONE: u32 = u32::MAX;

/// The id of a span that belongs to no single input element.
pub const NO_ELEMENT: u64 = u64::MAX;

/// One recorded span. Times are nanoseconds since the process epoch.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub stage: Stage,
    /// Index of the enclosing span in the same thread's log.
    pub parent: u32,
    /// The input element the work belongs to: `input << 32 | seq`.
    pub id: u64,
    pub start: u64,
    pub end: u64,
}

/// Element id of feed element `seq` of `input`.
pub fn elem_id(input: u32, seq: u64) -> u64 {
    (input as u64) << 32 | seq
}

/// The span clock: the time-stamp counter, calibrated once against
/// `Instant` (the kernel's own clock source here). Reading it costs a few
/// nanoseconds where `Instant::now` costs ~40 on this class of VM, which
/// keeps the traced run's overhead low enough to trust the table.
#[cfg(target_arch = "x86_64")]
mod clock {
    use std::sync::OnceLock;
    use std::time::{Duration, Instant};

    fn ticks() -> u64 {
        // SAFETY: `rdtsc` has no preconditions; it only reads the counter.
        unsafe { core::arch::x86_64::_rdtsc() }
    }

    struct Calibration {
        tick0: u64,
        ns_per_tick: f64,
    }

    fn calibration() -> &'static Calibration {
        static CAL: OnceLock<Calibration> = OnceLock::new();
        CAL.get_or_init(|| {
            let (t0, c0) = (Instant::now(), ticks());
            std::thread::sleep(Duration::from_millis(20));
            let (t1, c1) = (Instant::now(), ticks());
            Calibration {
                tick0: c0,
                ns_per_tick: (t1 - t0).as_nanos() as f64 / c1.wrapping_sub(c0).max(1) as f64,
            }
        })
    }

    pub fn now_ns() -> u64 {
        let cal = calibration();
        (ticks().wrapping_sub(cal.tick0) as f64 * cal.ns_per_tick) as u64
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod clock {
    use std::sync::OnceLock;
    use std::time::Instant;

    pub fn now_ns() -> u64 {
        static EPOCH: OnceLock<Instant> = OnceLock::new();
        EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Nanoseconds since the process epoch.
pub fn now_ns() -> u64 {
    clock::now_ns()
}

struct Log {
    spans: Vec<Span>,
    open: Option<u32>,
    /// Last element popped per input (the batch the merge pushes next).
    last_pop: Vec<u64>,
    /// Element whose batch the executor is working on.
    current: u64,
}

impl Default for Log {
    fn default() -> Log {
        Log {
            spans: Vec::new(),
            open: None,
            last_pop: Vec::new(),
            current: NO_ELEMENT,
        }
    }
}

thread_local! {
    static LOG: RefCell<Log> = RefCell::new(Log::default());
}

/// Open a span on this thread; returns its index for [`exit`].
pub fn enter(stage: Stage, id: u64) -> u32 {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let idx = l.spans.len() as u32;
        let parent = l.open.unwrap_or(NONE);
        l.spans.push(Span {
            stage,
            parent,
            id,
            start: now_ns(),
            end: 0,
        });
        l.open = Some(idx);
        idx
    })
}

/// Close span `idx`, returning its end time.
pub fn exit(idx: u32) -> u64 {
    let end = now_ns();
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let span = &mut l.spans[idx as usize];
        span.end = end;
        let parent = span.parent;
        l.open = (parent != NONE).then_some(parent);
    });
    end
}

/// Time `f` as one span.
pub fn span<R>(stage: Stage, id: u64, f: impl FnOnce() -> R) -> R {
    let idx = enter(stage, id);
    let r = f();
    exit(idx);
    r
}

fn set_last_pop(input: u32, id: u64) {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let i = input as usize;
        if l.last_pop.len() <= i {
            l.last_pop.resize(i + 1, NO_ELEMENT);
        }
        l.last_pop[i] = id;
    })
}

fn begin_batch(input: u32) -> u64 {
    LOG.with(|l| {
        let mut l = l.borrow_mut();
        let id = l
            .last_pop
            .get(input as usize)
            .copied()
            .unwrap_or(NO_ELEMENT);
        l.current = id;
        id
    })
}

/// The input element whose batch the executor is working on.
pub fn current() -> u64 {
    LOG.with(|l| l.borrow().current)
}

/// Take this thread's spans, resetting its log.
pub fn take() -> Vec<Span> {
    LOG.with(|l| std::mem::take(&mut *l.borrow_mut()).spans)
}

/// Wrap the executor thread's spans in one `engine.loop` root spanning the
/// first to the last traced call: the part of the thread no span covers
/// is what `trace.coverage` leaves out.
pub fn close_loop(spans: &mut Vec<Span>) {
    let (Some(first), Some(last)) = (spans.first(), spans.iter().map(|s| s.end).max()) else {
        return;
    };
    let root = Span {
        stage: Stage::EngineLoop,
        parent: NONE,
        id: NO_ELEMENT,
        start: first.start,
        end: last,
    };
    for s in spans.iter_mut() {
        s.parent = if s.parent == NONE { 0 } else { s.parent + 1 };
    }
    spans.insert(0, root);
}

/// Self time per stage (span minus child spans), in nanoseconds, and
/// span count per stage.
pub fn self_times(spans: &[Span]) -> ([u64; STAGES.len()], [u64; STAGES.len()]) {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if s.parent != NONE {
            child[s.parent as usize] += s.end.saturating_sub(s.start);
        }
    }
    let mut total = [0u64; STAGES.len()];
    let mut count = [0u64; STAGES.len()];
    for (s, c) in spans.iter().zip(&child) {
        total[s.stage as usize] += s.end.saturating_sub(s.start).saturating_sub(*c);
        count[s.stage as usize] += 1;
    }
    (total, count)
}

/// [`Source`] wrapper: `net.source_next` spans carrying the popped
/// element's id.
pub struct TracedSource<S> {
    pub inner: S,
    pub input: u32,
    seq: u64,
}

impl<S> TracedSource<S> {
    pub fn new(inner: S, input: u32) -> TracedSource<S> {
        TracedSource {
            inner,
            input,
            seq: 0,
        }
    }
}

impl<S: Source<Value>> Source<Value> for TracedSource<S> {
    fn next(&mut self) -> Option<TimedElement<Value>> {
        let id = elem_id(self.input, self.seq);
        let r = span(Stage::SourceNext, id, || self.inner.next());
        if r.is_some() {
            set_last_pop(self.input, id);
            self.seq += 1;
        }
        r
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }
}

/// [`LogicalMerge`] wrapper: data and punctuation pushes as separate
/// spans; also remembers the largest state size the executor sampled.
pub struct TracedMerge {
    pub inner: Box<dyn LogicalMerge<Value>>,
    pub peak_state_bytes: std::rc::Rc<std::cell::Cell<usize>>,
}

impl LogicalMerge<Value> for TracedMerge {
    fn push(&mut self, input: StreamId, element: &Element<Value>, out: &mut Vec<Element<Value>>) {
        self.inner.push(input, element, out)
    }

    fn push_batch(
        &mut self,
        input: StreamId,
        elements: &[Element<Value>],
        out: &mut Vec<Element<Value>>,
    ) {
        let id = begin_batch(input.0);
        let stage = if elements.iter().any(Element::is_stable) {
            Stage::PushStable
        } else {
            Stage::PushData
        };
        span(stage, id, || self.inner.push_batch(input, elements, out))
    }

    fn attach(&mut self, join_time: Time) -> StreamId {
        self.inner.attach(join_time)
    }

    fn detach(&mut self, input: StreamId) {
        self.inner.detach(input)
    }

    fn max_stable(&self) -> Time {
        self.inner.max_stable()
    }

    fn feedback_point(&self) -> Time {
        self.inner.feedback_point()
    }

    fn stats(&self) -> MergeStats {
        self.inner.stats()
    }

    fn input_counters(&self) -> &[InputCounters] {
        self.inner.input_counters()
    }

    fn input_stable(&self, input: StreamId) -> Time {
        self.inner.input_stable(input)
    }

    fn input_health(&self, input: StreamId) -> InputHealth {
        self.inner.input_health(input)
    }

    fn health_transitions(&self) -> lmerge_core::inputs::HealthTransitions {
        self.inner.health_transitions()
    }

    fn memory_bytes(&self) -> usize {
        let m = self.inner.memory_bytes();
        self.peak_state_bytes
            .set(self.peak_state_bytes.get().max(m));
        m
    }

    fn level(&self) -> RLevel {
        self.inner.level()
    }

    fn export_state(&self) -> Option<lmerge_core::MergeStateImage<Value>> {
        self.inner.export_state()
    }

    fn restore_state(&mut self, image: lmerge_core::MergeStateImage<Value>) -> bool {
        self.inner.restore_state(image)
    }

    fn set_spill_handler(&mut self, handler: Box<dyn SpillHandler<Value>>) {
        self.inner.set_spill_handler(handler)
    }
}

/// [`RunHooks`] wrapper: `engine.hooks` spans around `on_consumed`. The
/// per-batch `control` and `on_deliver` calls only forward to inert inner
/// hooks in this wiring; they are left unspanned (a span would cost more
/// than the call) and count as executor self time.
pub struct TracedHooks<H> {
    pub inner: H,
}

impl<H: RunHooks<Value>> RunHooks<Value> for TracedHooks<H> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn on_deliver(
        &mut self,
        input: u32,
        at: VTime,
        elements: &[Element<Value>],
    ) -> FaultAction<Value> {
        self.inner.on_deliver(input, at, elements)
    }

    fn on_consumed(
        &mut self,
        input: u32,
        at: VTime,
        delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        span(Stage::Hooks, current(), || {
            self.inner.on_consumed(input, at, delivered, emitted)
        })
    }

    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<Value>>) {
        self.inner.control(at, actions)
    }
}

/// The broadcast publisher, traced: besides the `sub.publish` span it
/// notes when each output frame was emitted and when the stable advance
/// that seals its epoch was published (the buffer seals synchronously
/// inside `publish`).
pub struct TracedPublish<H> {
    pub inner: H,
    pub emit_ns: Vec<u64>,
    pub seal_ns: Vec<u64>,
    stable: Time,
}

impl<H> TracedPublish<H> {
    pub fn new(inner: H) -> TracedPublish<H> {
        TracedPublish {
            inner,
            emit_ns: Vec::new(),
            seal_ns: Vec::new(),
            stable: Time::MIN,
        }
    }
}

impl<H: RunHooks<Value>> RunHooks<Value> for TracedPublish<H> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn on_deliver(
        &mut self,
        input: u32,
        at: VTime,
        elements: &[Element<Value>],
    ) -> FaultAction<Value> {
        self.inner.on_deliver(input, at, elements)
    }

    fn on_consumed(
        &mut self,
        input: u32,
        at: VTime,
        delivered: &[Element<Value>],
        emitted: &[Element<Value>],
    ) {
        let idx = enter(Stage::Publish, current());
        self.inner.on_consumed(input, at, delivered, emitted);
        let end = exit(idx);
        let start = end; // emission is the publish call itself
        for e in emitted {
            self.emit_ns.push(start);
            if let Element::Stable(t) = e {
                if *t > self.stable {
                    self.stable = *t;
                    let sealed = self.emit_ns.len();
                    self.seal_ns.resize(sealed, end);
                }
            }
        }
    }

    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<Value>>) {
        self.inner.control(at, actions)
    }
}

/// [`TraceSink`] wrapper: `obs.record` spans.
pub struct TracedSink<S> {
    pub inner: S,
}

impl<S: TraceSink> TraceSink for TracedSink<S> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn record(&mut self, event: TraceEvent) {
        span(Stage::Record, current(), || self.inner.record(event))
    }
}

/// [`CheckpointSink`] wrapper: `durable.save` spans.
pub struct TracedCheckpoint<'a, C> {
    pub inner: &'a mut C,
}

impl<C: CheckpointSink<Value>> CheckpointSink<Value> for TracedCheckpoint<'_, C> {
    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn want(&mut self, stable: Time, delivered: u64) -> bool {
        self.inner.want(stable, delivered)
    }

    fn save(&mut self, image: RunImage<Value>) -> CheckpointSave {
        span(Stage::Save, current(), || self.inner.save(image))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn at(stage: Stage, parent: u32, start: u64, end: u64) -> Span {
        Span {
            stage,
            parent,
            id: NO_ELEMENT,
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_the_root_tiles_the_thread() {
        let mut spans = vec![
            at(Stage::SourceNext, NONE, 10, 20),
            at(Stage::Hooks, NONE, 25, 45),
            at(Stage::Egress, 1, 30, 40),
        ];
        close_loop(&mut spans);
        let (t, c) = self_times(&spans);
        assert_eq!(t[Stage::EngineLoop as usize], 35 - 10 - 20);
        assert_eq!(t[Stage::SourceNext as usize], 10);
        assert_eq!(t[Stage::Hooks as usize], 10);
        assert_eq!(t[Stage::Egress as usize], 10);
        assert_eq!(t.iter().sum::<u64>(), 45 - 10);
        assert_eq!(c[Stage::EngineLoop as usize], 1);
    }
}
