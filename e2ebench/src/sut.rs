//! The system under test: the `lmerge-ingest` wiring, assembled in-process
//! with exactly the library calls the binary makes, and one measured round
//! of it against the load generator.

use crate::load::{self, Pace, SendReport, SubReport};
use crate::trace::{self, Span, Stage, TracedCheckpoint, TracedHooks, TracedMerge, TracedPublish};
use crate::trace::{TracedSink, TracedSource};
use crate::workload::{frame_len, Feeds, Reference, Workload};
use lmerge_core::{new_for_level, LogicalMerge, MergePolicy};
use lmerge_durable::{CheckpointStore, DurableCheckpointSink};
use lmerge_engine::{
    CheckpointSink, MergeRun, NoCheckpoint, NoHooks, Query, RunConfig, RunHooks, RunMetrics,
};
use lmerge_net::egress::NetHooks;
use lmerge_net::server::{IngestConfig, IngestServer};
use lmerge_obs::{EngineMetrics, MeteredSink, MetricsRegistry, TraceSink, Tracer};
use lmerge_properties::RLevel;
use lmerge_sub::{BroadcastHooks, EpochBuffer, SubConfig, SubFilter, SubPolicy, SubServer};
use lmerge_temporal::Value;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};

/// `lmerge-ingest` defaults: `--ring 256 --credit 32`.
const RING: usize = 256;
const CREDIT: u32 = 32;

/// Rounds started by this process (names its checkpoint directories).
static ROUNDS: AtomicU64 = AtomicU64::new(0);

/// Remove the checkpoint directories this process's rounds left behind.
pub fn remove_checkpoints(scratch: &Path) {
    for k in 0..ROUNDS.load(Ordering::Relaxed) {
        let _ = std::fs::remove_dir_all(scratch.join(format!("ckpt-{}-{k}", std::process::id())));
    }
}

/// How long the executor may run on after the generator has ended.
const EXECUTOR_GRACE: Duration = Duration::from_secs(5);

/// The servers of one round, bound and listening.
pub struct Servers {
    pub registry: MetricsRegistry,
    pub ingest: IngestServer,
    pub buf: Option<Arc<EpochBuffer>>,
    pub sub: Option<SubServer>,
}

/// Bind the ingest server and, for fan-out, the broadcast buffer and the
/// subscription server — as `lmerge-ingest` does at start-up.
pub fn bind(w: &Workload) -> Servers {
    let registry = MetricsRegistry::new();
    let config = IngestConfig {
        inputs: w.replicas,
        ring_capacity: RING,
        credit_batch: CREDIT,
    };
    let ingest = IngestServer::bind_with_metrics("127.0.0.1:0", config, &registry)
        .expect("bind the ingest server on loopback");
    let (buf, sub) = if w.fanout {
        let policy = SubPolicy {
            max_lag_epochs: u64::MAX,
            retain_min_epochs: 1,
        };
        let buf = Arc::new(EpochBuffer::new(policy));
        let config = SubConfig {
            filters: vec![SubFilter::All],
        };
        let sub = SubServer::bind_with_metrics("127.0.0.1:0", Arc::clone(&buf), config, &registry)
            .expect("bind the subscription server on loopback");
        (Some(buf), Some(sub))
    } else {
        (None, None)
    };
    Servers {
        registry,
        ingest,
        buf,
        sub,
    }
}

/// The egress writer of the replica workloads: discards the merged
/// stream after checking each frame against the reference and stamping
/// when it left the system.
struct EgressCheck {
    reference: Arc<Reference>,
    pending: Vec<u8>,
    result: EgressResult,
    slot: Arc<Mutex<Option<EgressResult>>>,
    traced: bool,
}

#[derive(Default)]
struct EgressResult {
    out_ns: Vec<u64>,
    received: u64,
    mismatched: u64,
}

impl EgressCheck {
    fn frame(&mut self, frame: &[u8], t: u64) {
        let j = self.result.received as usize;
        if j < self.reference.frames() {
            self.result.out_ns[j] = t;
            if frame != self.reference.frame(j) {
                self.result.mismatched += 1;
            }
        } else {
            self.result.mismatched += 1;
        }
        self.result.received += 1;
    }

    fn accept(&mut self, buf: &[u8]) {
        let t = trace::now_ns();
        if self.pending.is_empty() && frame_len(buf) == Some(buf.len()) {
            self.frame(buf, t);
            return;
        }
        self.pending.extend_from_slice(buf);
        let mut off = 0;
        while let Some(len) = frame_len(&self.pending[off..]) {
            if self.pending.len() < off + len {
                break;
            }
            let frame = self.pending[off..off + len].to_vec();
            self.frame(&frame, t);
            off += len;
        }
        self.pending.drain(..off);
    }
}

impl Write for EgressCheck {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if self.traced {
            trace::span(Stage::Egress, trace::current(), || self.accept(buf));
        } else {
            self.accept(buf);
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Drop for EgressCheck {
    fn drop(&mut self) {
        if let Ok(mut slot) = self.slot.lock() {
            *slot = Some(std::mem::take(&mut self.result));
        }
    }
}

/// Executor-side observations of a traced round.
#[derive(Default)]
pub struct ExecTrace {
    pub spans: Vec<Span>,
    pub peak_state_bytes: usize,
    /// Fan-out only: per output frame, publish and seal times.
    pub emit_ns: Vec<u64>,
    pub seal_ns: Vec<u64>,
}

/// Everything one round measured.
pub struct Round {
    pub send: SendReport,
    pub sub: Option<SubReport>,
    /// Per output frame: when it left the system (0 = never).
    pub out_ns: Vec<u64>,
    /// Output frames missing or not byte-identical, plus unclean sessions.
    pub failed: u64,
    pub exec_wall_ns: u64,
    pub cpu: Duration,
    pub metrics: RunMetrics,
    pub exec: Option<ExecTrace>,
    /// Durable checkpoints: count and bytes on disk.
    pub saves: u64,
    pub ckpt_bytes: u64,
    /// Fan-out: sealed epochs.
    pub epochs: u64,
}

impl Round {
    /// First send to the last output leaving the system.
    pub fn wall_ns(&self) -> u64 {
        let last = self.out_ns.iter().copied().max().unwrap_or(0);
        last.saturating_sub(self.send.t0).max(1)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// The merge: R3+ from the level selector, as `--level r3` builds it.
fn merge(n: usize) -> Box<dyn LogicalMerge<Value>> {
    new_for_level(RLevel::R3, n, MergePolicy::default())
}

/// Run the executor to completion and measure its thread's wall time.
fn execute<S: TraceSink, H: RunHooks<Value>, C: CheckpointSink<Value>>(
    run: MergeRun<Value>,
    sink: &mut S,
    hooks: &mut H,
    ck: &mut C,
) -> (RunMetrics, u64) {
    let start = trace::now_ns();
    let metrics = run.run_checkpointed(sink, hooks, ck);
    (metrics, trace::now_ns() - start)
}

/// One round: bind, connect the generator, stream the feeds, merge,
/// fan out, tear down, and check the output against `reference`.
pub fn round(
    w: &Workload,
    feeds: &Feeds,
    reference: &Arc<Reference>,
    pace: Pace,
    traced: bool,
    scratch: &Path,
) -> Round {
    let mut servers = bind(w);
    let addr = servers.ingest.local_addr().to_string();
    let conns: Vec<load::Replica> = (0..w.replicas as u32)
        .map(|i| load::connect_replica(&addr, i).expect("replica handshake"))
        .collect();
    let subscriber = servers.sub.as_ref().map(|s| {
        load::connect_subscriber(&s.local_addr().to_string()).expect("subscriber handshake")
    });
    let sources = servers.ingest.sources();
    // Each round checkpoints into a fresh directory; all of them are
    // removed when the run ends, so no deletion competes with the
    // measured fsyncs.
    let ckpt_dir: Option<PathBuf> = w.fanout.then(|| {
        let k = ROUNDS.fetch_add(1, Ordering::Relaxed);
        scratch.join(format!("ckpt-{}-{k}", std::process::id()))
    });
    let egress_slot = Arc::new(Mutex::new(None));
    let registry = servers.registry.clone();
    let cursors = servers.ingest.cursor_handle();
    let buf = servers.buf.clone();
    let cpu0 = crate::sys::process_cpu();

    let (send, sub, exec_out) = thread::scope(|s| {
        let sender = s.spawn(|| load::send(conns, feeds, pace, traced));
        let subscriber =
            subscriber.map(|sub| s.spawn(move || load::subscribe(sub, reference, traced)));

        // The executor: what `lmerge-ingest` runs on its main thread.
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let egress_slot = &egress_slot;
        let ckpt_dir = &ckpt_dir;
        let executor = s.spawn(move || {
            let n = sources.len();
            let queries: Vec<Query<Value>> = sources
                .into_iter()
                .enumerate()
                .map(|(i, src)| {
                    if traced {
                        Query::from_source(Box::new(TracedSource::new(src, i as u32)), Vec::new())
                    } else {
                        Query::from_source(Box::new(src), Vec::new())
                    }
                })
                .collect();
            let peak = Rc::new(std::cell::Cell::new(0usize));
            let lmerge = if traced {
                Box::new(TracedMerge {
                    inner: merge(n),
                    peak_state_bytes: Rc::clone(&peak),
                })
            } else {
                merge(n)
            };
            let run = MergeRun::new(queries, lmerge, RunConfig::default());
            let mut sink = MeteredSink::new(Tracer::new(), EngineMetrics::new(&registry));
            let mut ck = ckpt_dir.as_ref().map(|dir| {
                let store = CheckpointStore::create(dir).expect("create the checkpoint directory");
                let mut ck = DurableCheckpointSink::new(store)
                    .with_cursor_source(Box::new(move || cursors.cursors()));
                if let Some(b) = &buf {
                    let b = Arc::clone(b);
                    ck = ck.with_egress_source(Box::new(move || b.image()));
                }
                ck
            });
            let mut exec = ExecTrace::default();
            let (metrics, wall) = match (&buf, traced) {
                (Some(b), false) => {
                    let mut hooks =
                        NetHooks::streaming(BroadcastHooks::wrap(NoHooks, Arc::clone(b)));
                    let ck = ck.as_mut().expect("fan-out checkpoints");
                    execute(run, &mut sink, &mut hooks, ck)
                }
                (Some(b), true) => {
                    let publish = TracedPublish::new(BroadcastHooks::wrap(NoHooks, Arc::clone(b)));
                    let mut hooks = TracedHooks {
                        inner: NetHooks::streaming(publish),
                    };
                    let ck = ck.as_mut().expect("fan-out checkpoints");
                    let r = execute(
                        run,
                        &mut TracedSink { inner: &mut sink },
                        &mut hooks,
                        &mut TracedCheckpoint { inner: ck },
                    );
                    let (_, publish) = hooks.inner.into_parts();
                    exec.emit_ns = publish.emit_ns;
                    exec.seal_ns = publish.seal_ns;
                    r
                }
                (None, t) => {
                    let writer = EgressCheck {
                        reference: Arc::clone(reference),
                        pending: Vec::new(),
                        result: EgressResult {
                            out_ns: vec![0; reference.frames()],
                            ..Default::default()
                        },
                        slot: Arc::clone(egress_slot),
                        traced: t,
                    };
                    let hooks = NetHooks::streaming(NoHooks).with_egress(Box::new(writer));
                    if t {
                        let mut hooks = TracedHooks { inner: hooks };
                        execute(
                            run,
                            &mut TracedSink { inner: &mut sink },
                            &mut hooks,
                            &mut NoCheckpoint,
                        )
                    } else {
                        let mut hooks = hooks;
                        execute(run, &mut sink, &mut hooks, &mut NoCheckpoint)
                    }
                }
            };
            sink.metrics()
                .set_ring_dropped(sink.inner().ring().dropped());
            let saves = ck.as_ref().map_or(0, |c| c.store().next_seq());
            if let Some(c) = &ck {
                assert!(c.error.is_none(), "checkpointing failed: {:?}", c.error);
            }
            if traced {
                exec.spans = trace::take();
                exec.peak_state_bytes = peak.get();
            }
            let _ = done_tx.send(());
            (metrics, wall, traced.then_some(exec), saves)
        });
        // A generator that gave up leaves its sessions open without Bye,
        // and the merge would wait for them forever: once the sender has
        // ended, give the executor a grace period, then shut the ingest
        // server down so its sources report the end of input.
        let mut sender_done: Option<Instant> = None;
        while done_rx.recv_timeout(Duration::from_millis(100)).is_err() {
            if sender_done.is_none() && sender.is_finished() {
                sender_done = Some(Instant::now());
            }
            if sender_done.is_some_and(|t| t.elapsed() > EXECUTOR_GRACE) {
                servers.ingest.shutdown();
            }
        }
        let exec_out = executor.join().expect("executor thread");

        // Teardown as `lmerge-ingest` does it: let ingest sessions finish
        // their close handshakes, seal the broadcast stream, let
        // subscriber sessions close.
        servers.ingest.await_sessions_closed(Duration::from_secs(2));
        if let Some(b) = &servers.buf {
            b.finish();
        }
        if let Some(sub) = &servers.sub {
            sub.await_sessions_closed(Duration::from_secs(5));
        }
        let sub = subscriber.map(|h| h.join().expect("subscriber thread"));
        if let Some(sub) = servers.sub.as_mut() {
            sub.shutdown();
        }
        servers.ingest.shutdown();
        let send = sender.join().expect("sender thread");
        (send, sub, exec_out)
    });
    let cpu = crate::sys::process_cpu() - cpu0;
    let (metrics, exec_wall_ns, exec, saves) = exec_out;
    let epochs = servers.buf.as_ref().map_or(0, |b| b.stats().2);
    let ckpt_bytes = ckpt_dir.as_deref().map_or(0, dir_bytes);

    let expected = reference.frames() as u64;
    let unclean = (w.replicas - send.clean) as u64 + sub.as_ref().map_or(0, |s| !s.clean as u64);
    let (out_ns, received, mismatched) = match &sub {
        Some(s) => (s.read_ns.clone(), s.received, s.mismatched),
        None => {
            let r = egress_slot
                .lock()
                .expect("egress slot")
                .take()
                .unwrap_or_default();
            (r.out_ns, r.received, r.mismatched)
        }
    };
    let missing = expected.saturating_sub(received.min(expected));
    Round {
        send,
        sub,
        out_ns,
        failed: missing + mismatched + unclean,
        exec_wall_ns,
        cpu,
        metrics,
        exec,
        saves,
        ckpt_bytes,
        epochs,
    }
}
