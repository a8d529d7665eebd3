//! The three workloads, their seeded feeds, and the in-process reference
//! run every networked round is checked against.

use lmerge_core::{new_for_level, MergePolicy};
use lmerge_engine::{
    ControlAction, FaultAction, MergeRun, NoHooks, Query, RunConfig, RunHooks, TimedElement,
};
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge_net::egress::NetHooks;
use lmerge_net::wire::{self, Frame, HEADER_LEN};
use lmerge_net::SharedBuf;
use lmerge_obs::{EngineMetrics, MeteredSink, MetricsRegistry, Tracer};
use lmerge_properties::RLevel;
use lmerge_sub::{BroadcastHooks, EpochBuffer, SubPolicy};
use lmerge_temporal::{Element, VTime, Value};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The seed used while the benchmark and later changes are developed.
pub const DEV_SEED: u64 = 1;
/// A seed kept out of development, for confirming a claimed gain.
pub const HELD_OUT_SEED: u64 = 7919;

/// Virtual presentation rate of one replica: 50 K elements per virtual
/// second, as in the loopback figure.
const REPLICA_RATE_EPS: f64 = 50_000.0;

/// One workload. R3+ throughout; disorder 0.10, 32-byte payloads and the
/// default divergence.
pub struct Workload {
    pub name: &'static str,
    /// Replica connections feeding the merge.
    pub replicas: usize,
    /// Insert events in the logical stream.
    pub events: usize,
    /// EventDuration (application ms): sets how many events are live.
    pub event_duration_ms: i64,
    /// StableFreq: share of the logical stream that is punctuation.
    pub stable_freq: f64,
    /// Subscriber fan-out and durable checkpoints instead of an egress
    /// writer (`lmerge-ingest --subscribe --checkpoint-to`).
    pub fanout: bool,
    /// Offered rate of the paced phase, elements/s across all replicas.
    /// A tenth to a sixth of the flat rate on an idle 2-vCPU VM: on a
    /// shared VM the flat rate halves when the hypervisor steals CPU, and
    /// an offered rate near half of it would then measure a growing
    /// backlog instead of the system.
    pub paced_eps: f64,
    /// Why the workload exists.
    pub why: &'static str,
    /// Per-layer metrics the workload is expected to move.
    pub moves: &'static str,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "replicas-longlive",
        replicas: 2,
        events: 24_000,
        // ~5e3 live events (1.2 MB of merge state, within one core's L2):
        // the sweep still takes ~85 % of merge time. With ~1e4 (2.3 MB,
        // in the host's shared L3) the in-process merge cost of equal-sized
        // feeds ranged 3.7-7.6 µs/el on a shared VM.
        event_duration_ms: 50_000_000,
        stable_freq: 0.02,
        fanout: false,
        // Low enough that well under half the elements arrive during a
        // ~0.3 ms sweep even when the VM is slow: p50 then measures
        // delivery, instead of flipping between delivery and sweep waits.
        paced_eps: 20_000.0,
        why: "EventDuration 5e4 s keeps ~5e3 events live, so the R3+ stable sweep \
              dominates merge time: gains in core show here",
        moves: "core.stable_us_per_punct, core.stable_share, core.data_ns_per_el \
                -> throughput_eps, cpu_us_per_el (and the printed latency_p99_us)",
    },
    Workload {
        name: "replicas-shortlive",
        replicas: 2,
        events: 24_000,
        event_duration_ms: 20_000,
        stable_freq: 0.02,
        fanout: false,
        paced_eps: 80_000.0,
        why: "EventDuration 20 s keeps few events live: time goes to sessions, decode, \
              ring polling and the executor; a sweep change must not move it",
        moves: "net.source_wait_ns_per_el, net.ingest_latency_*, engine.self_ns_per_el, \
                obs.record_ns_per_el -> throughput_eps, latency_p50_us, cpu_us_per_el",
    },
    Workload {
        name: "fanout-durable",
        replicas: 1,
        events: 64_000,
        event_duration_ms: 20_000,
        // StableFreq 0.2 %, not 2 %: with a fsync'd checkpoint at every
        // output stable advance, 2 % made the disk's fsync latency (which
        // varies 2x over minutes on a shared host) set the throughput.
        stable_freq: 0.002,
        fanout: true,
        // A seventh of the flat rate: at 80K el/s, runs in which fsync or
        // the host slowed the flat rate to ~100K el/s measured a backlog.
        paced_eps: 40_000.0,
        why: "one replica and one subscriber with fsync'd checkpoints at every output \
              stable advance: epoch sealing, ranged writes and persistence dominate",
        moves: "sub.*, durable.* -> throughput_eps, cpu_us_per_el, latency_p50_us",
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// One replica's feed, timed and pre-encoded as the wire frames the
/// generator writes (data frame `i` carries `seq = i`, as a replayer's).
pub struct ReplicaFeed {
    pub timed: Vec<TimedElement<Value>>,
    /// Concatenated data frames.
    pub bytes: Vec<u8>,
    /// `ends[i]` is the end offset of frame `i` in `bytes`.
    pub ends: Vec<usize>,
}

impl ReplicaFeed {
    pub fn frame_range(&self, from: usize, to: usize) -> &[u8] {
        let start = if from == 0 { 0 } else { self.ends[from - 1] };
        &self.bytes[start..self.ends[to - 1]]
    }

    /// Virtual arrival time of element `i`, in µs.
    pub fn at_us(&self, i: usize) -> u64 {
        self.timed[i].at.0
    }
}

/// The seeded input of one workload.
pub struct Feeds {
    pub replicas: Vec<ReplicaFeed>,
    /// Virtual time from the first to the last element, µs.
    pub span_us: u64,
}

impl Feeds {
    pub fn elements(&self) -> u64 {
        self.replicas.iter().map(|r| r.timed.len() as u64).sum()
    }

    /// Real nanoseconds per virtual µs that offers the feed at `eps`
    /// elements per second across all replicas.
    pub fn ns_per_vus(&self, eps: f64) -> f64 {
        let virtual_eps = self.elements() as f64 / (self.span_us.max(1) as f64 / 1e6);
        1e3 * virtual_eps / eps
    }
}

/// The feed seed of set-up `k` of a run with `seed`; set-up 0 uses the
/// run's seed itself.
pub fn feed_seed(seed: u64, k: u64) -> u64 {
    seed.wrapping_add(k.wrapping_mul(0xD1B5_4A32_D192_ED03))
}

/// Generate the workload's replicas from `seed`: one logical stream,
/// `replicas` physically divergent copies. Copies differ in length (each
/// keeps its own subset of punctuation and its own revisions), so each is
/// timed to span the same virtual interval, as copies of one live stream
/// do; replica 0 runs at the nominal 50 K el/s.
pub fn make_feeds(w: &Workload, seed: u64) -> Feeds {
    let cfg = GenConfig {
        num_events: w.events,
        disorder: 0.10,
        stable_freq: w.stable_freq,
        payload_len: 32,
        event_duration_ms: w.event_duration_ms,
        seed,
        ..Default::default()
    };
    let reference = generate(&cfg);
    let div = DivergenceConfig {
        seed: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        ..Default::default()
    };
    let copies: Vec<Vec<Element<Value>>> = (0..w.replicas as u64)
        .map(|i| diverge(&reference.elements, &div, i))
        .collect();
    let span_s = copies[0].len() as f64 / REPLICA_RATE_EPS;
    let replicas = copies
        .iter()
        .map(|copy| {
            let timed: Vec<TimedElement<Value>> = assign_times(copy, copy.len() as f64 / span_s)
                .into_iter()
                .map(|(at, e)| TimedElement::new(at, e))
                .collect();
            let mut bytes = Vec::with_capacity(timed.len() * 96);
            let mut ends = Vec::with_capacity(timed.len());
            for (i, te) in timed.iter().enumerate() {
                wire::encode_into(
                    &Frame::Data {
                        seq: i as u64,
                        at: te.at,
                        element: te.element.clone(),
                    },
                    &mut bytes,
                );
                ends.push(bytes.len());
            }
            ReplicaFeed { timed, bytes, ends }
        })
        .collect::<Vec<_>>();
    let span_us = replicas
        .iter()
        .filter_map(|r| r.timed.last().map(|t| t.at.0))
        .max()
        .unwrap_or(0);
    Feeds { replicas, span_us }
}

/// Length of the frame at the front of `buf`, if its header is there.
pub fn frame_len(buf: &[u8]) -> Option<usize> {
    let header = buf.get(..HEADER_LEN)?;
    let payload = u32::from_le_bytes(header[8..12].try_into().expect("4-byte length field"));
    Some(HEADER_LEN + payload as usize + wire::CHECKSUM_LEN)
}

/// The expected output of one round.
pub struct Reference {
    /// Expected output frames, concatenated.
    pub bytes: Vec<u8>,
    /// `ends[j]` is the end offset of output frame `j`.
    pub ends: Vec<usize>,
    /// Per output frame: virtual arrival (µs) of the input element whose
    /// batch produced it — what its due time is computed from.
    pub due_at: Vec<u64>,
    /// Per output frame: whether it is a data element (not punctuation).
    pub is_data: Vec<bool>,
    /// Wall time of the in-process run.
    pub wall: Duration,
}

impl Reference {
    pub fn frames(&self) -> usize {
        self.ends.len()
    }

    pub fn frame(&self, j: usize) -> &[u8] {
        let start = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.bytes[start..self.ends[j]]
    }

    fn from_bytes(bytes: Vec<u8>, due_at: Vec<u64>, is_data: Vec<bool>, wall: Duration) -> Self {
        let mut ends = Vec::with_capacity(due_at.len());
        let mut off = 0;
        while let Some(len) = frame_len(&bytes[off..]) {
            off += len;
            ends.push(off);
        }
        assert_eq!(off, bytes.len(), "reference output ends mid-frame");
        assert_eq!(ends.len(), due_at.len(), "one producer per output frame");
        Reference {
            bytes,
            ends,
            due_at,
            is_data,
            wall,
        }
    }
}

/// Records, for every emitted element, which input element's batch
/// produced it. Each batch is one source element (passthrough queries),
/// so the k-th consumption of input i is feed element k of replica i.
struct Producers<'a, H> {
    inner: H,
    feeds: &'a Feeds,
    consumed: Vec<usize>,
    due_at: Vec<u64>,
    is_data: Vec<bool>,
}

impl<H: RunHooks<Value>> RunHooks<Value> for Producers<'_, H> {
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
        let i = input as usize;
        let due = self.feeds.replicas[i].at_us(self.consumed[i]);
        self.consumed[i] += 1;
        for e in emitted {
            self.due_at.push(due);
            self.is_data.push(!e.is_stable());
        }
        self.inner.on_consumed(input, at, delivered, emitted);
    }

    fn control(&mut self, at: VTime, actions: &mut Vec<ControlAction<Value>>) {
        self.inner.control(at, actions)
    }
}

/// Run the feeds through the executor in-process, wired as the served
/// stack is (R3, default run config, metered tracer, streaming egress
/// hooks; the broadcast publisher for fan-out workloads). Checkpointing
/// is left out: it observes the merge and never changes its output.
pub fn reference(w: &Workload, feeds: &Feeds) -> Reference {
    let queries: Vec<Query<Value>> = feeds
        .replicas
        .iter()
        .map(|r| Query::passthrough(r.timed.clone()))
        .collect();
    let registry = MetricsRegistry::new();
    let mut sink = MeteredSink::new(Tracer::new(), EngineMetrics::new(&registry));
    let lmerge = new_for_level(RLevel::R3, feeds.replicas.len(), MergePolicy::default());
    let run = MergeRun::new(queries, lmerge, RunConfig::default());
    fn producers<H>(inner: H, feeds: &Feeds) -> Producers<'_, H> {
        Producers {
            inner,
            feeds,
            consumed: vec![0; feeds.replicas.len()],
            due_at: Vec::new(),
            is_data: Vec::new(),
        }
    }
    if w.fanout {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let inner = NetHooks::streaming(BroadcastHooks::wrap(NoHooks, Arc::clone(&buf)));
        let mut hooks = producers(inner, feeds);
        let start = Instant::now();
        run.run_with_hooks(&mut sink, &mut hooks);
        buf.finish();
        let wall = start.elapsed();
        Reference::from_bytes(buf.image().frames, hooks.due_at, hooks.is_data, wall)
    } else {
        let out = SharedBuf::new();
        let inner = NetHooks::streaming(NoHooks).with_egress(Box::new(out.clone()));
        let mut hooks = producers(inner, feeds);
        let start = Instant::now();
        run.run_with_hooks(&mut sink, &mut hooks);
        let wall = start.elapsed();
        Reference::from_bytes(out.bytes(), hooks.due_at, hooks.is_data, wall)
    }
}
