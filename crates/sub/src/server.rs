//! The subscriber session server: the subscribe direction of the
//! [session protocol](lmerge_net::session), where the server streams and
//! the subscriber grants credits.
//!
//! A subscriber sends `Subscribe { protocol, subscriber, filter,
//! resume_from, credits }`; the server validates the version and filter
//! class and answers `Welcome`:
//!
//! * `resume_seq` — the first output sequence it will deliver: the
//!   requested `resume_from`, clamped into the retained window. Retention
//!   is pinned by each subscriber's durable cursor, so a rejoin asking for
//!   the sequence after the last it processed gets precisely the missing
//!   suffix — exactly-once, the mirror of the ingest side's `next_seq`.
//! * `resume_stable` — the stable point covered by whatever the clamp
//!   skipped (the catch-up point of a demoted subscriber).
//! * `credits` — echo of the client's initial grant.
//!
//! The server spends one credit per `Data` frame and stalls (counted) when
//! the grant runs dry. A subscriber more than
//! [`SubPolicy::max_lag_epochs`](crate::SubPolicy) sealed epochs behind
//! stops pinning retention; when the epoch it wants is gone it is demoted:
//! re-`Welcome`d from the horizon (catch-up-from-stable, the paper's
//! rejoining-replica move applied to an output replica). At end of output
//! the server initiates the `Bye` close; a subscriber may initiate it to
//! unsubscribe. Lifecycle events land in a private [`Tracer`], never the
//! run's, which must stay byte-identical to an unobserved run.

use crate::buffer::{EpochBuffer, EpochSegment, EpochWait, SubFilter};
use lmerge_net::session::{self, Acceptor, PeerState, Registry, SessionCounters, Window};
use lmerge_net::wire::{self, Frame, PROTOCOL_VERSION};
use lmerge_obs::{Counter, Gauge, MetricsRegistry, TraceEvent, TraceSink, Tracer};
use lmerge_temporal::VTime;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// Subscriber-plane configuration: the filter classes sessions may pick
/// from. Class 0 should usually be [`SubFilter::All`].
#[derive(Clone, Debug)]
pub struct SubConfig {
    /// Filter classes, indexed by the `Subscribe` frame's `filter` field.
    pub filters: Vec<SubFilter>,
}

impl SubConfig {
    /// A single class: the whole stream.
    pub fn new() -> SubConfig {
        SubConfig {
            filters: vec![SubFilter::All],
        }
    }

    /// Add a filter class, returning its id.
    pub fn add_filter(&mut self, f: SubFilter) -> u32 {
        self.filters.push(f);
        (self.filters.len() - 1) as u32
    }
}

impl Default for SubConfig {
    fn default() -> SubConfig {
        SubConfig::new()
    }
}

/// Aggregate live telemetry for the subscriber plane, registered at bind.
/// Per-session series (`subscriber` label) are minted lazily at each
/// handshake from the stored registry handle.
pub struct SubMetrics {
    sessions: SessionCounters,
    sessions_active: Gauge,
    resumes: Counter,
    demotions: Counter,
    credit_stalls: Counter,
    epochs_retained: Gauge,
    next_seq: Gauge,
}

impl SubMetrics {
    fn new(registry: &MetricsRegistry) -> SubMetrics {
        let l: [(&str, &str); 0] = [];
        let counter = |name, help| registry.counter(name, help, &l);
        let gauge = |name, help| registry.gauge(name, help, &l);
        SubMetrics {
            sessions: SessionCounters::register(registry, "lmerge_sub", &l),
            sessions_active: gauge(
                "lmerge_sub_sessions_active",
                "Subscriber sessions currently open.",
            ),
            resumes: counter(
                "lmerge_sub_resumes_total",
                "Sessions welcomed with resume_from > 0 (reconnects).",
            ),
            demotions: counter(
                "lmerge_sub_demotions_total",
                "Slow-subscriber demotions: sessions jumped to the compaction horizon.",
            ),
            credit_stalls: counter(
                "lmerge_sub_credit_stalls_total",
                "Delivery stalls waiting for a subscriber's credit grant.",
            ),
            epochs_retained: gauge(
                "lmerge_sub_epochs_retained",
                "Broadcast-buffer epochs currently retained for fan-out.",
            ),
            next_seq: gauge(
                "lmerge_sub_next_seq",
                "Next output sequence the broadcast buffer will assign.",
            ),
        }
    }
}

/// Per-session series, minted at handshake (`subscriber` label).
struct SessionMetrics {
    frames: Counter,
    bytes: Counter,
    lag_epochs: Gauge,
}

impl SessionMetrics {
    fn new(registry: &MetricsRegistry, subscriber: u64) -> SessionMetrics {
        let id = subscriber.to_string();
        let l: [(&str, &str); 1] = [("subscriber", id.as_str())];
        let counter = |name, help| registry.counter(name, help, &l);
        SessionMetrics {
            frames: counter(
                "lmerge_sub_frames_total",
                "Data frames delivered, per subscriber.",
            ),
            bytes: counter(
                "lmerge_sub_bytes_total",
                "Wire bytes delivered, per subscriber.",
            ),
            lag_epochs: registry.gauge(
                "lmerge_sub_lag_epochs",
                "Sealed epochs the subscriber trails behind the tail.",
                &l,
            ),
        }
    }
}

/// State shared by every thread the subscriber server spawns.
struct SubShared {
    buf: Arc<EpochBuffer>,
    filters: Vec<SubFilter>,
    sessions: Registry,
    shutdown: AtomicBool,
    tracer: Mutex<Tracer>,
    metrics: SubMetrics,
    registry: MetricsRegistry,
}

impl SubShared {
    fn trace(&self, event: TraceEvent) {
        self.tracer.lock().unwrap().record(event);
    }
}

/// A TCP server fanning the shared [`EpochBuffer`] out to subscribers.
pub struct SubServer {
    shared: Arc<SubShared>,
    accept: Acceptor,
}

impl SubServer {
    /// Bind to `addr` (port 0 for ephemeral) and start accepting
    /// subscriber sessions over `buf`. Telemetry lands in a private
    /// throwaway registry; use
    /// [`bind_with_metrics`](SubServer::bind_with_metrics) to scrape it.
    pub fn bind(addr: &str, buf: Arc<EpochBuffer>, config: SubConfig) -> io::Result<SubServer> {
        SubServer::bind_with_metrics(addr, buf, config, &MetricsRegistry::new())
    }

    /// Like [`bind`](SubServer::bind), registering the `lmerge_sub_*`
    /// series in the caller's `registry`.
    pub fn bind_with_metrics(
        addr: &str,
        buf: Arc<EpochBuffer>,
        config: SubConfig,
        registry: &MetricsRegistry,
    ) -> io::Result<SubServer> {
        assert!(!config.filters.is_empty(), "at least one filter class");
        let listener = TcpListener::bind(addr)?;
        let shared = Arc::new(SubShared {
            buf,
            filters: config.filters,
            sessions: Registry::default(),
            shutdown: AtomicBool::new(false),
            tracer: Mutex::new(Tracer::new()),
            metrics: SubMetrics::new(registry),
            registry: registry.clone(),
        });
        let handler_shared = Arc::clone(&shared);
        let accept = Acceptor::spawn(listener, move |s| session(Arc::clone(&handler_shared), s))?;
        Ok(SubServer { shared, accept })
    }

    /// The bound address (point `lmerge-subscribe` here).
    pub fn local_addr(&self) -> SocketAddr {
        self.accept.local_addr()
    }

    /// The server's private session tracer (subscriber lane events).
    pub fn tracer(&self) -> MutexGuard<'_, Tracer> {
        self.shared.tracer.lock().unwrap()
    }

    /// Wait (up to `timeout`) for every accepted session to finish its
    /// close handshake; returns `true` once all have. Call between
    /// publishing `finish()` and [`shutdown`](SubServer::shutdown) so
    /// paced subscribers' final `Bye` round trips are not severed.
    pub fn await_sessions_closed(&self, timeout: Duration) -> bool {
        self.shared.sessions.await_closed(timeout)
    }

    /// Stop accepting, sever live sessions, and join the accept loop.
    pub fn shutdown(&mut self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
        self.shared.sessions.sever_all();
        // Unstick writers blocked on an epoch wait.
        self.shared.buf.finish();
        self.accept.stop();
    }
}

impl Drop for SubServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// How long a writer waits per epoch poll before re-checking liveness.
const EPOCH_POLL: Duration = Duration::from_millis(50);

/// Serve one subscriber: handshake, then stream epochs under credits.
fn session(shared: Arc<SubShared>, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    // Wrong version, wrong frame, garbage, or EOF: drop the connection;
    // there is no session to resume.
    let Ok(Some(Frame::Subscribe {
        protocol: PROTOCOL_VERSION,
        subscriber,
        filter: class,
        resume_from,
        credits: initial_credits,
    })) = wire::read_frame(&mut stream)
    else {
        return;
    };
    let Some(filter) = shared.filters.get(class as usize).cloned() else {
        return;
    };

    // Clamp the requested cursor into what exists: up to the compaction
    // horizon (a demoted/stale cursor resumes from stable), down to the
    // tail (a cursor from the future is a protocol lie, not a crash).
    let (_, horizon_seq, compact_stable) = shared.buf.horizon();
    let (tail_seq, _, _, _) = shared.buf.stats();
    let demoted_at_join = resume_from < horizon_seq;
    let resume_seq = resume_from.clamp(horizon_seq, tail_seq.max(horizon_seq));
    let welcome = Frame::Welcome {
        input: class,
        resume_seq,
        resume_stable: compact_stable,
        credits: initial_credits,
    };
    if wire::write_frame(&mut stream, &welcome).is_err() {
        return;
    }
    // Pin retention from the session's position so its window survives
    // until it acks (the durable cursor is monotone, so a rejoin with an
    // older clamped cursor cannot move it backwards).
    shared.buf.ack(subscriber, resume_seq);

    // The peer reader drains Credit/Ack/Bye while the writer streams; an
    // ack advances the subscriber's durable cursor (pins retention,
    // persists via checkpoints).
    let window = Window::new(initial_credits as u64);
    let buf = Arc::clone(&shared.buf);
    let Ok(reader) = session::spawn_peer_reader(&stream, &window, move |seq, _| {
        buf.ack(subscriber, seq.saturating_add(1))
    }) else {
        return;
    };
    let m = &shared.metrics;
    let id = shared.sessions.open(&stream, &m.sessions);
    m.sessions_active.add(1);
    if resume_from > 0 {
        m.resumes.inc();
    }
    if demoted_at_join {
        m.demotions.inc();
    }
    let session_m = SessionMetrics::new(&shared.registry, subscriber);
    shared.trace(TraceEvent::SubSessionOpened {
        at: VTime(resume_seq),
        subscriber,
        resume_seq,
    });

    let clean = writer_loop(
        &shared,
        &mut stream,
        &window,
        &session_m,
        subscriber,
        class,
        &filter,
        resume_seq,
    );

    // Unblock and collect the reader before reporting the close.
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    shared.trace(TraceEvent::SubSessionClosed {
        at: VTime(resume_seq),
        subscriber,
        clean,
    });
    m.sessions_active.add(-1);
    shared.sessions.close(id, clean, &m.sessions);
}

/// Stream epochs to one subscriber. Returns whether the close was clean.
#[allow(clippy::too_many_arguments)]
fn writer_loop(
    shared: &Arc<SubShared>,
    stream: &mut TcpStream,
    window: &Window,
    session_m: &SessionMetrics,
    subscriber: u64,
    class: u32,
    filter: &SubFilter,
    resume_seq: u64,
) -> bool {
    let m = &shared.metrics;
    let mut seq_cursor = resume_seq;
    let mut index = shared.buf.index_for_seq(resume_seq);
    loop {
        match window.state() {
            PeerState::Gone => return false,
            // Unsolicited unsubscribe: echo it and part cleanly.
            PeerState::SaidBye => return wire::write_frame(stream, &Frame::Bye).is_ok(),
            PeerState::Live => {}
        }
        if shared.shutdown.load(Ordering::Relaxed) {
            return false;
        }
        match shared.buf.wait_epoch(index, EPOCH_POLL) {
            EpochWait::TimedOut => continue,
            EpochWait::Compacted {
                resume_index,
                resume_seq: horizon_seq,
                stable,
            } => {
                // Demotion: the epoch this session wanted was retired.
                // Jump to the horizon and re-welcome so the subscriber
                // knows it is catching up from `stable`, not resuming.
                m.demotions.inc();
                let rewelcome = Frame::Welcome {
                    input: class,
                    resume_seq: horizon_seq,
                    resume_stable: stable,
                    credits: 0,
                };
                if wire::write_frame(stream, &rewelcome).is_err() {
                    return false;
                }
                seq_cursor = horizon_seq;
                index = resume_index;
                shared.buf.ack(subscriber, seq_cursor);
            }
            // Stream over: initiate the close.
            EpochWait::Finished => return session::close(stream, window),
            EpochWait::Ready(seg) => {
                // Refresh the gauges only when there is something to
                // deliver: polling sessions must not hammer the shared
                // buffer lock once per wait timeout.
                let (tail_seq, _, sealed, retained) = shared.buf.stats();
                m.epochs_retained.set(retained as i64);
                m.next_seq.set(tail_seq as i64);
                session_m
                    .lag_epochs
                    .set(sealed.saturating_sub(index) as i64);
                match deliver_epoch(
                    shared, stream, window, session_m, filter, class, &seg, seq_cursor,
                ) {
                    Some(frames) => {
                        shared.trace(TraceEvent::SubEpochDelivered {
                            at: VTime(seg.end_seq()),
                            subscriber,
                            epoch: seg.index,
                            frames,
                        });
                    }
                    None => return false,
                }
                seq_cursor = seg.end_seq();
                index = seg.index + 1;
            }
        }
    }
}

/// Send one epoch's admitted frames from `seq_cursor` on, spending one
/// credit per frame and coalescing contiguous admitted runs into single
/// writes out of the shared segment bytes. Returns the frames delivered,
/// or `None` if the session died.
#[allow(clippy::too_many_arguments)]
fn deliver_epoch(
    shared: &Arc<SubShared>,
    stream: &mut TcpStream,
    window: &Window,
    session_m: &SessionMetrics,
    filter: &SubFilter,
    class: u32,
    seg: &EpochSegment,
    seq_cursor: u64,
) -> Option<u32> {
    let bits = seg.bitmap(class, filter);
    let start = (seq_cursor.saturating_sub(seg.base_seq)) as usize;
    let mut taken: u64 = 0; // credits in hand
    let mut delivered: u32 = 0;
    let mut bytes_sent: u64 = 0;
    // A contiguous run of admitted frames: byte range into the segment.
    let mut run: Option<(usize, usize)> = None;
    for i in start..seg.frames() {
        if !EpochSegment::admitted(&bits, i) {
            if !flush(stream, seg, &mut run, &mut bytes_sent) {
                return None;
            }
            continue;
        }
        if taken == 0 {
            // Flush before blocking so the subscriber can consume what it
            // already has and grant more.
            if !flush(stream, seg, &mut run, &mut bytes_sent) {
                return None;
            }
            taken = window.take(u64::MAX, || shared.metrics.credit_stalls.inc())?;
        }
        taken -= 1;
        delivered += 1;
        let frame = seg.frame_bytes(i);
        let off = frame.as_ptr() as usize - seg.bytes().as_ptr() as usize;
        run = match run {
            Some((a, b)) if b == off => Some((a, off + frame.len())),
            Some(_) => {
                if !flush(stream, seg, &mut run, &mut bytes_sent) {
                    return None;
                }
                Some((off, off + frame.len()))
            }
            None => Some((off, off + frame.len())),
        };
    }
    if !flush(stream, seg, &mut run, &mut bytes_sent) {
        return None;
    }
    // Return unused credits to the pool for the next epoch.
    if taken > 0 {
        window.grant(taken);
    }
    session_m.frames.add(delivered as u64);
    session_m.bytes.add(bytes_sent);
    Some(delivered)
}

/// Write out the pending run, if any. Returns `false` on i/o failure.
fn flush(
    stream: &mut TcpStream,
    seg: &EpochSegment,
    run: &mut Option<(usize, usize)>,
    bytes_sent: &mut u64,
) -> bool {
    if let Some((a, b)) = run.take() {
        if stream.write_all(&seg.bytes()[a..b]).is_err() {
            return false;
        }
        *bytes_sent += (b - a) as u64;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{subscribe, subscribe_until_finished, SubscribeConfig};
    use crate::SubPolicy;
    use lmerge_temporal::{Element, Time, Value};
    use std::thread;

    /// Block until `n` sessions have been welcomed. A session's `Welcome`
    /// fixes where it starts, so publishing before every handshake lands
    /// would let a late joiner be (correctly) clamped to the horizon.
    fn await_welcomed(server: &SubServer, n: u64) {
        assert!(
            server
                .shared
                .sessions
                .wait_until(Duration::from_secs(10), |c| c.opened >= n),
            "{n} subscriber handshakes within the deadline"
        );
    }

    fn publish_feed(buf: &EpochBuffer, n: u64) -> Vec<u8> {
        // Reference bytes: the canonical encoding of the full stream.
        let mut reference = Vec::new();
        let mut seq = {
            let (s, _, _, _) = buf.stats();
            s
        };
        for i in 0..n {
            let elements = vec![
                Element::insert(Value::bare(i as i32), i as i64, i as i64 + 5),
                Element::<Value>::stable(Time(i as i64 * 10 + 1)),
            ];
            for e in &elements {
                wire::encode_into(
                    &Frame::Data {
                        seq,
                        at: VTime(i),
                        element: e.clone(),
                    },
                    &mut reference,
                );
                seq += 1;
            }
            buf.publish(VTime(i), &elements);
        }
        reference
    }

    #[test]
    fn one_subscriber_gets_the_stream_byte_identically() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
        let addr = server.local_addr().to_string();
        let client =
            thread::spawn(move || subscribe(&addr, &SubscribeConfig::new(1)).expect("subscribe"));
        await_welcomed(&server, 1);
        let reference = publish_feed(&buf, 30);
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.resumed_from, 0);
        assert_eq!(outcome.received, 60);
        assert_eq!(outcome.bytes, reference, "fan-out is byte-identical");
    }

    #[test]
    fn filtered_subscriber_gets_its_slice_plus_all_stables() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let mut config = SubConfig::new();
        let class = config.add_filter(SubFilter::KeyMod {
            modulus: 2,
            residue: 0,
        });
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), config).unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(2).with_filter(class)).expect("subscribe")
        });
        await_welcomed(&server, 1);
        publish_feed(&buf, 20);
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        // 10 even-keyed inserts + all 20 stables.
        assert_eq!(outcome.received, 30);
        for (_, _, e) in &outcome.frames {
            match e {
                Element::Insert(ev) => assert_eq!(ev.payload.key % 2, 0),
                Element::Adjust { payload, .. } => assert_eq!(payload.key % 2, 0),
                Element::Stable(_) => {}
            }
        }
        // Sequences are the global stream's (gaps where odd keys were),
        // so a reconnect cursor still means one thing.
        assert!(outcome.frames.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn kill_and_resume_is_exactly_once() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let server = SubServer::bind("127.0.0.1:0", Arc::clone(&buf), SubConfig::new()).unwrap();
        let addr = server.local_addr().to_string();
        let reference = publish_feed(&buf, 40);
        buf.finish();
        let outcome =
            subscribe_until_finished(&addr, &SubscribeConfig::new(3).with_kill_after(17), 8)
                .expect("stitched subscription");
        assert!(outcome.clean && outcome.finished);
        assert!(outcome.attempts > 1, "the kill forced at least one resume");
        assert_eq!(outcome.bytes, reference, "stitched output byte-identical");
        let _ = server;
    }

    #[test]
    fn stale_resume_is_demoted_to_the_horizon() {
        let policy = SubPolicy {
            retain_min_epochs: 1,
            ..SubPolicy::default()
        };
        let buf = Arc::new(EpochBuffer::new(policy));
        publish_feed(&buf, 10); // 10 epochs, seqs 0..20
        buf.ack(99, 20); // a fast subscriber let everything compact
        let (first_index, horizon_seq, _) = buf.horizon();
        assert!(first_index > 0 && horizon_seq > 0);
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        buf.finish();
        // Asks for seq 0, which is long gone: welcomed from the horizon.
        let outcome = subscribe(&addr, &SubscribeConfig::new(4)).expect("subscribe");
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.resumed_from, horizon_seq);
        assert_eq!(outcome.received, 20 - horizon_seq);
        assert_eq!(
            registry.sum_value("lmerge_sub_demotions_total"),
            Some(1.0),
            "the clamped join counts as a demotion"
        );
    }

    #[test]
    fn tiny_credit_grants_still_deliver_everything() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let client = thread::spawn(move || {
            subscribe(&addr, &SubscribeConfig::new(5).with_credits(2)).expect("subscribe")
        });
        await_welcomed(&server, 1);
        let reference = publish_feed(&buf, 50);
        buf.finish();
        let outcome = client.join().unwrap();
        assert!(outcome.clean && outcome.finished);
        assert_eq!(outcome.bytes, reference);
        assert!(
            registry
                .sum_value("lmerge_sub_credit_stalls_total")
                .unwrap_or(0.0)
                >= 1.0,
            "a 2-credit window must have stalled at least once"
        );
    }

    #[test]
    fn many_subscribers_share_one_encoding() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let addr = server.local_addr().to_string();
        let clients: Vec<_> = (0..8)
            .map(|s| {
                let addr = addr.clone();
                thread::spawn(move || {
                    subscribe(&addr, &SubscribeConfig::new(100 + s)).expect("subscribe")
                })
            })
            .collect();
        await_welcomed(&server, 8);
        let reference = publish_feed(&buf, 25);
        buf.finish();
        for c in clients {
            let outcome = c.join().unwrap();
            assert!(outcome.clean && outcome.finished);
            assert_eq!(outcome.bytes, reference);
        }
        assert!(server.await_sessions_closed(Duration::from_secs(5)));
        assert_eq!(
            registry.sum_value("lmerge_sub_sessions_opened_total"),
            Some(8.0)
        );
        assert_eq!(
            registry.sum_value("lmerge_sub_session_closes_clean_total"),
            Some(8.0)
        );
        let tracer = server.tracer();
        let opened = tracer
            .events()
            .filter(|e| matches!(e, TraceEvent::SubSessionOpened { .. }))
            .count();
        assert_eq!(opened, 8, "subscriber lanes landed in the tracer");
        drop(tracer);
    }

    #[test]
    fn garbage_or_wrong_version_first_frame_never_opens_a_session() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let registry = MetricsRegistry::new();
        let server = SubServer::bind_with_metrics(
            "127.0.0.1:0",
            Arc::clone(&buf),
            SubConfig::new(),
            &registry,
        )
        .unwrap();
        let wrong_version = wire::encode(&Frame::Subscribe {
            protocol: PROTOCOL_VERSION + 1,
            subscriber: 1,
            filter: 0,
            resume_from: 0,
            credits: 8,
        });
        for first in [b"not a frame at all".to_vec(), wrong_version] {
            let mut stream = TcpStream::connect(server.local_addr()).unwrap();
            stream.write_all(&first).unwrap();
            // The server drops the connection instead of welcoming us.
            assert!(matches!(wire::read_frame(&mut stream), Ok(None) | Err(_)));
        }
        assert_eq!(server.shared.sessions.counts().opened, 0);
        assert_eq!(
            registry.sum_value("lmerge_sub_sessions_opened_total"),
            Some(0.0)
        );
        assert!(server.await_sessions_closed(Duration::ZERO), "nothing open");
        // A well-formed subscriber afterwards is the first session.
        buf.finish();
        let outcome = subscribe(&server.local_addr().to_string(), &SubscribeConfig::new(3))
            .expect("subscribe");
        assert!(outcome.clean && outcome.finished);
        assert!(server.await_sessions_closed(Duration::from_secs(5)));
        assert_eq!(server.shared.sessions.counts().opened, 1);
    }

    #[test]
    fn await_sessions_closed_times_out_on_a_hung_session() {
        let buf = Arc::new(EpochBuffer::new(SubPolicy::default()));
        let server = SubServer::bind("127.0.0.1:0", buf, SubConfig::new()).unwrap();
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        wire::write_frame(
            &mut stream,
            &Frame::Subscribe {
                protocol: PROTOCOL_VERSION,
                subscriber: 1,
                filter: 0,
                resume_from: 0,
                credits: 8,
            },
        )
        .unwrap();
        assert!(matches!(
            wire::read_frame(&mut stream),
            Ok(Some(Frame::Welcome { .. }))
        ));
        // Session opened, stream never finished: the wait must give up.
        await_welcomed(&server, 1);
        assert!(!server.await_sessions_closed(Duration::from_millis(50)));
    }
}
