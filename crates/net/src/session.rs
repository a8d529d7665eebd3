//! The session core shared by ingest ([`crate::server`], [`crate::client`])
//! and subscribe (`lmerge-sub`): one protocol, whichever way data flows.
//!
//! 1. **Handshake.** The client sends `Hello` or `Subscribe`; the server
//!    answers `Welcome { resume_seq, resume_stable, credits }`. A garbage,
//!    wrong-version or wrong-kind first frame drops the connection before
//!    the [`Registry`] counts a session.
//! 2. **Credits.** The streaming side's [peer reader](spawn_peer_reader)
//!    feeds the peer's `Credit` grants into a [`Window`], where the sender
//!    blocks when the grant runs dry, and hands its `Ack`s on.
//! 3. **Close.** The side that knows the stream is over [`close`]s: it
//!    sends `Bye`, and only the responder's echo makes the close clean.
//!
//! | direction | streams `Data` | grants credits | sends the first `Bye` |
//! |---|---|---|---|
//! | ingest | replayer | ingest server | replayer, at the end of its feed |
//! | subscribe | subscription server | subscriber | server at end of output, or subscriber to unsubscribe |
//!
//! An unclean close is resumable: the client [`reconnect`]s and the next
//! `Welcome` says where to pick up.

use crate::wire::{self, Frame, WireError};
use lmerge_obs::{Counter, MetricsRegistry};
use lmerge_temporal::Time;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// The one liveness rule: a close initiator gives up on the `Bye` echo once
/// the peer has been silent this long — idle time, not time since the
/// `Bye`, because a live peer draining a deep socket buffer keeps acking
/// and granting. Unit tests shorten it.
pub const BYE_IDLE_TIMEOUT: Duration = if cfg!(test) {
    Duration::from_millis(300)
} else {
    Duration::from_secs(10)
};

/// Every update under these locks leaves the state valid, so a guard
/// poisoned by a panicking holder is still safe to use.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn wait<'a, T>(cv: &Condvar, guard: MutexGuard<'a, T>, timeout: Duration) -> MutexGuard<'a, T> {
    let waited = cv.wait_timeout(guard, timeout);
    waited.unwrap_or_else(PoisonError::into_inner).0
}

/// A listener thread that runs a handler thread per accepted connection.
/// `accept` blocks; [`stop`](Acceptor::stop) wakes it with a connection.
pub struct Acceptor {
    local_addr: SocketAddr,
    /// The stop flag and the listener thread, until stopped.
    running: Option<(Arc<AtomicBool>, JoinHandle<()>)>,
}

impl Acceptor {
    /// Serve every connection `listener` accepts with `handler`.
    pub fn spawn(
        listener: TcpListener,
        handler: impl Fn(TcpStream) + Send + Sync + 'static,
    ) -> io::Result<Acceptor> {
        let local_addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let (stopped, handler) = (Arc::clone(&stop), Arc::new(handler));
        let thread = thread::spawn(move || {
            for conn in listener.incoming() {
                if stopped.load(Ordering::Acquire) {
                    return;
                }
                if let Ok(stream) = conn {
                    let handler = Arc::clone(&handler);
                    thread::spawn(move || handler(stream));
                }
            }
        });
        let running = Some((stop, thread));
        Ok(Acceptor {
            local_addr,
            running,
        })
    }

    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting and join the listener thread; running handlers
    /// finish on their own. If the wake-up connection fails, the thread is
    /// left to end with the process.
    pub fn stop(&mut self) {
        let Some((stop, thread)) = self.running.take() else {
            return;
        };
        stop.store(true, Ordering::Release);
        if TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1)).is_ok() {
            let _ = thread.join();
        }
    }
}

impl Drop for Acceptor {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Sessions a server opened (handshake done) and closed clean or lost.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    pub opened: u64,
    pub clean: u64,
    pub lost: u64,
}

/// The metric series mirroring a [`Registry`]'s counts. The registry
/// bumps them; no decision reads them.
#[derive(Clone)]
pub struct SessionCounters {
    pub opened: Counter,
    pub clean: Counter,
    pub lost: Counter,
}

impl SessionCounters {
    /// Register `{plane}_sessions_opened_total` and `{plane}_session_closes_
    /// {clean,lost}_total`, e.g. `lmerge_net_sessions_opened_total`.
    pub fn register(registry: &MetricsRegistry, plane: &str, labels: &[(&str, &str)]) -> Self {
        let counter = |name, help| registry.counter(&format!("{plane}_{name}"), help, labels);
        SessionCounters {
            opened: counter("sessions_opened_total", "Sessions opened (handshake done)."),
            clean: counter("session_closes_clean_total", "Sessions closed by Bye."),
            lost: counter("session_closes_lost_total", "Sessions ended otherwise."),
        }
    }
}

#[derive(Default)]
struct Book {
    counts: Counts,
    /// Open sessions' connections by id, severed on shutdown.
    live: Vec<(u64, TcpStream)>,
}

/// A server's sessions: the source of truth for
/// `await_sessions_closed`. Every change wakes one condvar; nothing polls.
#[derive(Default)]
pub struct Registry {
    book: Mutex<Book>,
    changed: Condvar,
}

impl Registry {
    /// Count a session whose handshake completed; returns its id.
    pub fn open(&self, stream: &TcpStream, view: &SessionCounters) -> u64 {
        let mut book = lock(&self.book);
        let id = book.counts.opened;
        if let Ok(s) = stream.try_clone() {
            book.live.push((id, s));
        }
        book.counts.opened += 1;
        view.opened.inc();
        self.changed.notify_all();
        id
    }

    /// Count session `id`'s end.
    pub fn close(&self, id: u64, clean: bool, view: &SessionCounters) {
        let mut book = lock(&self.book);
        book.live.retain(|(live, _)| *live != id);
        let (count, counter) = if clean {
            (&mut book.counts.clean, &view.clean)
        } else {
            (&mut book.counts.lost, &view.lost)
        };
        *count += 1;
        counter.inc();
        self.changed.notify_all();
    }

    pub fn counts(&self) -> Counts {
        lock(&self.book).counts
    }

    /// Wake the waiters after a change outside the registry that a
    /// [`wait_until`](Registry::wait_until) condition reads.
    pub fn notify(&self) {
        let _book = lock(&self.book);
        self.changed.notify_all();
    }

    /// Block until `ready` holds (returns `true`) or `timeout` passes. It
    /// runs under the registry lock, so no change followed by `notify` or
    /// `close` can slip between its check and the wait.
    pub fn wait_until(&self, timeout: Duration, mut ready: impl FnMut(Counts) -> bool) -> bool {
        let deadline = Instant::now() + timeout;
        let mut book = lock(&self.book);
        while !ready(book.counts) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            book = wait(&self.changed, book, left);
        }
        true
    }

    /// Wait (up to `timeout`) until every opened session has closed.
    pub fn await_closed(&self, timeout: Duration) -> bool {
        self.wait_until(timeout, |c| c.clean + c.lost >= c.opened)
    }

    /// Sever every open session's connection and wake the waiters.
    pub fn sever_all(&self) {
        let book = lock(&self.book);
        for (_, s) in &book.live {
            let _ = s.shutdown(Shutdown::Both);
        }
        self.changed.notify_all();
    }
}

/// Where the streaming side's peer stands.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PeerState {
    Live,
    /// Sent `Bye`: an unsubscribe, or the echo of ours.
    SaidBye,
    /// The connection ended any other way.
    Gone,
}

struct Peer {
    credits: u64,
    state: PeerState,
    heard: Instant,
}

/// The streaming side's view of its peer — granted credits, state, when
/// last heard — fed by the [peer reader](spawn_peer_reader).
pub struct Window {
    peer: Mutex<Peer>,
    changed: Condvar,
}

impl Window {
    /// A window opened with the handshake's `credits`.
    pub fn new(credits: u64) -> Arc<Window> {
        let (state, heard) = (PeerState::Live, Instant::now());
        let peer = Mutex::new(Peer {
            credits,
            state,
            heard,
        });
        Arc::new(Window {
            peer,
            changed: Condvar::new(),
        })
    }

    fn update<R>(&self, f: impl FnOnce(&mut Peer) -> R) -> R {
        let r = f(&mut lock(&self.peer));
        self.changed.notify_all();
        r
    }

    /// Add `n` credits: a grant, or unspent credits handed back.
    pub fn grant(&self, n: u64) {
        self.update(|p| p.credits += n);
    }

    /// Block until there is credit and take up to `max` of it, running
    /// `stalled` first if there is none. `None` once the peer has left.
    pub fn take(&self, max: u64, stalled: impl FnOnce()) -> Option<u64> {
        let mut peer = lock(&self.peer);
        if peer.credits == 0 {
            stalled();
        }
        while peer.credits == 0 {
            if peer.state != PeerState::Live {
                return None;
            }
            peer = self
                .changed
                .wait(peer)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let n = peer.credits.min(max);
        peer.credits -= n;
        Some(n)
    }

    pub fn state(&self) -> PeerState {
        lock(&self.peer).state
    }
}

/// The close initiator's half: send `Bye` and wait for the echo until the
/// peer has been idle for [`BYE_IDLE_TIMEOUT`]. Returns whether it came.
pub fn close(stream: &mut impl Write, window: &Window) -> bool {
    if wire::write_frame(stream, &Frame::Bye).is_err() {
        return false;
    }
    let sent = Instant::now();
    let mut peer = lock(&window.peer);
    while peer.state == PeerState::Live {
        let idle_until = peer.heard.max(sent) + BYE_IDLE_TIMEOUT;
        let left = idle_until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return false;
        }
        peer = wait(&window.changed, peer, left);
    }
    peer.state == PeerState::SaidBye
}

/// Spawn the peer reader of the side that streams `Data`: it grants each
/// `Credit` into `window`, hands each `Ack`'s `(seq, stable)` to `on_ack`,
/// stamps when the peer was last heard, and ends at `Bye` or at anything
/// else — EOF, corruption, a frame that makes no sense here.
pub fn spawn_peer_reader(
    stream: &TcpStream,
    window: &Arc<Window>,
    mut on_ack: impl FnMut(u64, Time) + Send + 'static,
) -> io::Result<JoinHandle<()>> {
    let mut stream = stream.try_clone()?;
    let window = Arc::clone(window);
    Ok(thread::spawn(move || loop {
        let frame = wire::read_frame(&mut stream);
        let (state, ack) = window.update(|p| {
            let mut ack = None;
            match frame {
                Ok(Some(Frame::Credit { n })) => p.credits += n as u64,
                Ok(Some(Frame::Ack { seq, stable })) => ack = Some((seq, stable)),
                Ok(Some(Frame::Bye)) => p.state = PeerState::SaidBye,
                _ => p.state = PeerState::Gone,
            }
            p.heard = Instant::now();
            (p.state, ack)
        });
        if let Some((seq, stable)) = ack {
            on_ack(seq, stable);
        }
        if state != PeerState::Live {
            return;
        }
    }))
}

/// The client's handshake: send `hello` to `addr`; returns the stream and
/// the `Welcome`'s `(resume_seq, resume_stable, credits)`.
pub fn connect(addr: &str, hello: &Frame) -> Result<(TcpStream, u64, Time, u32), WireError> {
    let mut stream = TcpStream::connect(addr)?;
    let _ = stream.set_nodelay(true);
    wire::write_frame(&mut stream, hello)?;
    match wire::read_frame(&mut stream)? {
        Some(Frame::Welcome {
            resume_seq,
            resume_stable,
            credits,
            ..
        }) => Ok((stream, resume_seq, resume_stable, credits)),
        _ => Err(WireError::Protocol("no Welcome to the handshake")),
    }
}

/// The one reconnect loop: run `attempt` (given its index) until it
/// reports a clean finish (`Ok(true)`), at most `max_attempts` times but
/// at least once, pausing between tries. Returns the last result.
pub fn reconnect(
    max_attempts: usize,
    pause: Duration,
    mut attempt: impl FnMut(usize) -> Result<bool, WireError>,
) -> Result<bool, WireError> {
    let mut last = attempt(0);
    for i in 1..max_attempts {
        if matches!(last, Ok(true)) {
            break;
        }
        thread::sleep(pause);
        last = attempt(i);
    }
    last
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{replay, ReplayConfig};
    use lmerge_engine::TimedElement;
    use lmerge_temporal::{Element, VTime, Value};
    use std::sync::mpsc;

    /// Read frames until the peer's `Bye`; `false` if the stream ends first.
    fn read_until_bye(stream: &mut TcpStream) -> bool {
        loop {
            match wire::read_frame(stream) {
                Ok(Some(Frame::Bye)) => return true,
                Ok(Some(_)) => {}
                _ => return false,
            }
        }
    }

    /// The listener side of a test: each accepted connection is sent to
    /// the returned channel.
    fn listen() -> (Acceptor, mpsc::Receiver<TcpStream>) {
        let (tx, rx) = mpsc::channel();
        let tx = Mutex::new(tx);
        let acceptor = Acceptor::spawn(TcpListener::bind("127.0.0.1:0").unwrap(), move |s| {
            let _ = lock(&tx).send(s);
        })
        .unwrap();
        (acceptor, rx)
    }

    /// The streaming side's close against `stream`: spawn its peer reader,
    /// send `Bye`, and time the wait for the echo.
    fn timed_close(mut stream: TcpStream) -> (bool, Duration) {
        let window = Window::new(0);
        let reader = spawn_peer_reader(&stream, &window, |_, _| {}).unwrap();
        let start = Instant::now();
        let clean = close(&mut stream, &window);
        let took = start.elapsed();
        let _ = stream.shutdown(Shutdown::Both);
        reader.join().unwrap();
        (clean, took)
    }

    fn assert_unclean_within_the_idle_bound((clean, took): (bool, Duration)) {
        assert!(!clean, "a silent peer never makes the close clean");
        assert!(took >= BYE_IDLE_TIMEOUT, "gave up early: {took:?}");
        assert!(
            took < BYE_IDLE_TIMEOUT * 10,
            "hung past the bound: {took:?}"
        );
    }

    #[test]
    fn silent_peer_after_bye_is_unclean_when_the_client_initiates() {
        let (acceptor, accepted) = listen();
        let stream = TcpStream::connect(acceptor.local_addr()).unwrap();
        let mut server_side = accepted.recv().unwrap();
        let silent = thread::spawn(move || {
            // Reads the Bye, then neither echoes nor closes.
            assert!(read_until_bye(&mut server_side));
            server_side
        });
        assert_unclean_within_the_idle_bound(timed_close(stream));
        drop(silent.join().unwrap());
    }

    #[test]
    fn silent_peer_after_bye_is_unclean_when_the_server_initiates() {
        let (acceptor, accepted) = listen();
        let mut client = TcpStream::connect(acceptor.local_addr()).unwrap();
        let server_side = accepted.recv().unwrap();
        let closing = thread::spawn(move || timed_close(server_side));
        assert!(read_until_bye(&mut client));
        // The client stays connected and silent.
        assert_unclean_within_the_idle_bound(closing.join().unwrap());
    }

    #[test]
    fn a_peer_that_keeps_talking_is_waited_for_past_the_idle_bound() {
        let (acceptor, accepted) = listen();
        let mut client = TcpStream::connect(acceptor.local_addr()).unwrap();
        let server_side = accepted.recv().unwrap();
        let closing = thread::spawn(move || timed_close(server_side));
        assert!(read_until_bye(&mut client));
        // Busy draining: grants keep arriving for twice the idle bound
        // before the echo does.
        let busy = Instant::now();
        while busy.elapsed() < BYE_IDLE_TIMEOUT * 2 {
            wire::write_frame(&mut client, &Frame::Credit { n: 1 }).unwrap();
            thread::sleep(BYE_IDLE_TIMEOUT / 4);
        }
        wire::write_frame(&mut client, &Frame::Bye).unwrap();
        let (clean, took) = closing.join().unwrap();
        assert!(clean, "the echo arrived: the close is clean");
        assert!(took >= BYE_IDLE_TIMEOUT * 2);
    }

    #[test]
    fn replay_against_a_server_that_never_echoes_bye_returns_unclean() {
        let (acceptor, accepted) = listen();
        let addr = acceptor.local_addr().to_string();
        let server = thread::spawn(move || {
            let mut s = accepted.recv().unwrap();
            assert!(matches!(
                wire::read_frame(&mut s),
                Ok(Some(Frame::Hello { .. }))
            ));
            let welcome = Frame::Welcome {
                input: 0,
                resume_seq: 0,
                resume_stable: Time::MIN,
                credits: 64,
            };
            wire::write_frame(&mut s, &welcome).unwrap();
            assert!(read_until_bye(&mut s), "the replayer sent its Bye");
            s // held open, never echoing, until the test ends
        });
        let feed: Vec<TimedElement<Value>> = (0..5)
            .map(|i| TimedElement::new(VTime(i), Element::insert(Value::bare(1), i as i64, 9)))
            .collect();
        let start = Instant::now();
        let outcome = replay(&addr, &feed, &ReplayConfig::new(0)).expect("handshake");
        assert!(!outcome.clean, "an unechoed Bye is not a clean close");
        assert_eq!(outcome.sent, 5);
        assert!(start.elapsed() < BYE_IDLE_TIMEOUT * 10, "replay returned");
        drop(server.join().unwrap());
    }

    #[test]
    fn window_take_blocks_for_a_grant_and_ends_with_the_peer() {
        let (acceptor, accepted) = listen();
        let mut peer = TcpStream::connect(acceptor.local_addr()).unwrap();
        let window = Window::new(0);
        let reader = spawn_peer_reader(&accepted.recv().unwrap(), &window, |_, _| {}).unwrap();
        let (stalled_tx, stalled) = mpsc::channel();
        let taker = {
            let window = Arc::clone(&window);
            thread::spawn(move || {
                let first = window.take(10, || stalled_tx.send(()).unwrap());
                (first, window.take(10, || {}))
            })
        };
        // The stall runs under the window lock: the taker is waiting.
        stalled.recv().unwrap();
        wire::write_frame(&mut peer, &Frame::Credit { n: 3 }).unwrap();
        drop(peer);
        let (first, after) = taker.join().unwrap();
        assert_eq!(first, Some(3), "took the whole grant (under max)");
        assert_eq!(after, None, "no credit and no peer: the sender stops");
        reader.join().unwrap();
        assert_eq!(window.state(), PeerState::Gone);
        window.grant(2);
        assert_eq!(
            window.take(1, || {}),
            Some(1),
            "leftover credit still spends"
        );
    }

    #[test]
    fn registry_waits_wake_on_close_not_on_a_poll() {
        let registry = Arc::new(Registry::default());
        let view = SessionCounters {
            opened: Counter::default(),
            clean: Counter::default(),
            lost: Counter::default(),
        };
        let (acceptor, accepted) = listen();
        let _client = TcpStream::connect(acceptor.local_addr()).unwrap();
        let stream = accepted.recv().unwrap();
        let id = registry.open(&stream, &view);
        assert!(!registry.await_closed(Duration::from_millis(20)));
        let closer = {
            let (registry, view) = (Arc::clone(&registry), view.clone());
            thread::spawn(move || registry.close(id, true, &view))
        };
        assert!(registry.await_closed(Duration::from_secs(5)));
        closer.join().unwrap();
        let counts = registry.counts();
        assert_eq!((counts.opened, counts.clean, counts.lost), (1, 1, 0));
        assert_eq!(
            (view.opened.get(), view.clean.get()),
            (1, 1),
            "view mirrors"
        );
    }

    #[test]
    fn acceptor_stop_joins_and_releases_the_port() {
        let (mut acceptor, _accepted) = listen();
        let addr = acceptor.local_addr();
        let start = Instant::now();
        acceptor.stop();
        assert!(start.elapsed() < Duration::from_secs(1), "no accept poll");
        assert!(TcpStream::connect(addr).is_err(), "listener closed");
        acceptor.stop(); // idempotent
                         // Bound to the unspecified address, the wake-up still lands.
        let listener = TcpListener::bind("0.0.0.0:0").unwrap();
        let mut wildcard = Acceptor::spawn(listener, |_| {}).unwrap();
        let port = wildcard.local_addr().port();
        wildcard.stop();
        assert!(TcpStream::connect(("127.0.0.1", port)).is_err(), "joined");
    }

    #[test]
    fn reconnect_stops_at_the_first_clean_attempt() {
        let mut calls = Vec::new();
        let result = reconnect(5, Duration::ZERO, |i| {
            calls.push(i);
            match i {
                0 => Err(WireError::Protocol("refused")),
                1 => Ok(false),
                _ => Ok(true),
            }
        });
        assert!(matches!(result, Ok(true)));
        assert_eq!(calls, vec![0, 1, 2]);
        let last = reconnect(2, Duration::ZERO, |_| Err(WireError::Protocol("down")));
        assert!(matches!(last, Err(WireError::Protocol("down"))));
        let mut once = 0;
        let _ = reconnect(0, Duration::ZERO, |_| {
            once += 1;
            Ok(false)
        });
        assert_eq!(once, 1, "always at least one attempt");
    }
}
