//! The load generator: one sender thread that speaks the ingest protocol
//! over every replica connection, and (for fan-out) one subscriber thread
//! that speaks the Subscribe protocol. Nothing but the generated frames
//! reaches the system.

use crate::sys::{self, PollFd, POLLIN, POLLOUT};
use crate::trace::{self, elem_id, Span, Stage};
use crate::workload::{frame_len, Feeds, Reference};
use lmerge_net::wire::{self, Frame, WireError, PROTOCOL_VERSION};
use lmerge_temporal::Element;
use std::io::{self, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::fd::AsRawFd;
use std::time::Duration;

/// Frames per socket write at most (flat phase: up to the credit window).
const MAX_RUN: usize = 64;

/// Read pending control frames at least this often even with credit in
/// hand (acks arrive at every punctuation the merge consumes).
const DRAIN_EVERY_NS: u64 = 500_000;

/// Give up on a connection that shows no progress for this long.
const STALL_LIMIT_NS: u64 = 20_000_000_000;

/// How the sender offers the feed.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// As fast as credits allow.
    Flat,
    /// Open loop: frame `i` is due at `t0 + at_i × ns_per_vus`.
    Paced { ns_per_vus: f64 },
}

/// One replica connection after the Hello/Welcome handshake.
pub struct Replica {
    stream: TcpStream,
    credits: u64,
    /// When credits last went from none to some (ns since the epoch).
    credit_since: u64,
    rbuf: Vec<u8>,
    drained_at: u64,
    next: usize,
    bye_sent: bool,
    done: bool,
    clean: bool,
}

/// Open the session for `input`.
pub fn connect_replica(addr: &str, input: u32) -> Result<Replica, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    wire::write_frame(
        &mut stream,
        &Frame::Hello {
            protocol: PROTOCOL_VERSION,
            input,
        },
    )?;
    match wire::read_frame(&mut stream)? {
        Some(Frame::Welcome {
            resume_seq: 0,
            credits,
            ..
        }) => Ok(Replica {
            stream,
            credits: credits as u64,
            credit_since: 0,
            rbuf: Vec::with_capacity(4096),
            drained_at: 0,
            next: 0,
            bye_sent: false,
            done: false,
            clean: false,
        }),
        _ => Err(WireError::Protocol("expected a fresh Welcome")),
    }
}

/// What the sender saw.
#[derive(Default)]
pub struct SendReport {
    /// Due-time origin and first send (ns since the epoch).
    pub t0: u64,
    /// Data frames written.
    pub sent: u64,
    /// Sessions closed with an acknowledged Bye.
    pub clean: usize,
    /// Per data frame (paced only): send time minus due time, µs.
    pub lateness_us: Vec<f64>,
    /// Per data frame (paced only): send time minus the later of its due
    /// time and the moment its connection last had credit — the lateness
    /// the generator itself caused.
    pub own_lateness_us: Vec<f64>,
    /// Time spent waiting with no credit on any sendable connection.
    pub credit_wait_ns: u64,
    /// First send to last data frame written.
    pub busy_ns: u64,
    pub spans: Vec<Span>,
}

/// Drain pending control frames (credits, acks, bye) without blocking.
fn drain(r: &mut Replica, traced: bool) {
    let fd = r.stream.as_raw_fd();
    let mut chunk = [0u8; 4096];
    loop {
        match sys::recv_nonblocking(fd, &mut chunk) {
            Ok(0) => {
                r.done = true;
                break;
            }
            Ok(n) => r.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                r.done = true;
                break;
            }
        }
    }
    let mut off = 0;
    while let Some(len) = frame_len(&r.rbuf[off..]) {
        if r.rbuf.len() < off + len {
            break;
        }
        let frame = if traced {
            trace::span(Stage::LoadDecode, trace::NO_ELEMENT, || {
                wire::decode(&r.rbuf[off..])
            })
        } else {
            wire::decode(&r.rbuf[off..])
        };
        off += len;
        match frame {
            Ok((Frame::Credit { n }, _)) => {
                if r.credits == 0 {
                    r.credit_since = trace::now_ns();
                }
                r.credits += n as u64;
            }
            Ok((Frame::Ack { .. }, _)) => {}
            Ok((Frame::Bye, _)) => {
                r.clean = r.bye_sent;
                r.done = true;
            }
            _ => r.done = true,
        }
    }
    r.rbuf.drain(..off);
}

/// Write all of `bytes`, waiting for socket space if needed.
fn write_all(stream: &mut TcpStream, mut bytes: &[u8]) -> io::Result<()> {
    while !bytes.is_empty() {
        match stream.write(bytes) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => bytes = &bytes[n..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                let mut fd = [PollFd {
                    fd: stream.as_raw_fd(),
                    events: POLLOUT,
                    revents: 0,
                }];
                sys::poll(&mut fd, Duration::from_millis(10));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Stream every replica's feed to completion and close each session with
/// Bye. Runs on the generator's sender thread.
pub fn send(mut conns: Vec<Replica>, feeds: &Feeds, pace: Pace, traced: bool) -> SendReport {
    sys::tight_timer_slack();
    let mut rep = SendReport::default();
    let t0 = trace::now_ns();
    rep.t0 = t0;
    for c in &mut conns {
        c.credit_since = t0;
    }
    let due = |i: usize, k: usize| -> u64 {
        match pace {
            Pace::Flat => 0,
            Pace::Paced { ns_per_vus } => {
                t0 + (feeds.replicas[i].at_us(k) as f64 * ns_per_vus) as u64
            }
        }
    };
    let mut last_progress = t0;
    let mut last_send = t0;
    let mut rr = 0usize;
    let mut woke = true;
    loop {
        // Read control frames when credit runs low, after a wait, and
        // periodically; not on every pass, which would double the
        // generator's system calls.
        let now = trace::now_ns();
        for c in conns.iter_mut() {
            let stale = now.saturating_sub(c.drained_at) > DRAIN_EVERY_NS;
            if woke || stale || c.bye_sent || c.credits < MAX_RUN as u64 {
                drain(c, traced);
                c.drained_at = now;
            }
        }
        woke = false;
        if conns.iter().all(|c| c.done) {
            break;
        }
        let now = trace::now_ns();
        let mut progressed = false;
        let n = conns.len();
        for k in 0..n {
            let i = (rr + k) % n;
            let feed = &feeds.replicas[i];
            let c = &mut conns[i];
            if c.done {
                continue;
            }
            if c.next < feed.timed.len() {
                let mut end = c.next;
                let cap = (c.next + MAX_RUN.min(c.credits as usize)).min(feed.timed.len());
                while end < cap && due(i, end) <= now {
                    end += 1;
                }
                if end == c.next {
                    continue;
                }
                let bytes = feed.frame_range(c.next, end);
                let wrote = if traced {
                    let id = elem_id(i as u32, c.next as u64);
                    trace::span(Stage::LoadSend, id, || write_all(&mut c.stream, bytes))
                } else {
                    write_all(&mut c.stream, bytes)
                };
                if wrote.is_err() {
                    c.done = true;
                    continue;
                }
                let sent_at = trace::now_ns();
                if let Pace::Paced { .. } = pace {
                    for f in c.next..end {
                        let d = due(i, f);
                        rep.lateness_us.push(sent_at.saturating_sub(d) as f64 / 1e3);
                        rep.own_lateness_us
                            .push(sent_at.saturating_sub(d.max(c.credit_since)) as f64 / 1e3);
                    }
                }
                rep.sent += (end - c.next) as u64;
                c.credits -= (end - c.next) as u64;
                c.next = end;
                last_send = sent_at;
                progressed = true;
            } else if !c.bye_sent {
                if wire::write_frame(&mut c.stream, &Frame::Bye).is_err() {
                    c.done = true;
                }
                let _ = c.stream.shutdown(Shutdown::Write);
                c.bye_sent = true;
                progressed = true;
            }
        }
        rr = rr.wrapping_add(1);
        if progressed {
            last_progress = now;
            continue;
        }
        if now.saturating_sub(last_progress) > STALL_LIMIT_NS {
            break;
        }
        // Nothing could be sent: sleep until the next due frame of a
        // connection with credit, waking early for incoming frames.
        let next_due = conns
            .iter()
            .enumerate()
            .filter(|(i, c)| !c.done && c.credits > 0 && c.next < feeds.replicas[*i].timed.len())
            .map(|(i, c)| due(i, c.next))
            .min();
        let starved = conns
            .iter()
            .enumerate()
            .any(|(i, c)| !c.done && c.credits == 0 && c.next < feeds.replicas[i].timed.len());
        let timeout = match next_due {
            Some(d) => Duration::from_nanos(d.saturating_sub(now)),
            None => Duration::from_millis(10),
        };
        let mut fds: Vec<PollFd> = conns
            .iter()
            .filter(|c| !c.done)
            .map(|c| PollFd {
                fd: c.stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            })
            .collect();
        let waited_from = trace::now_ns();
        if starved && traced {
            trace::span(Stage::LoadWait, trace::NO_ELEMENT, || {
                sys::poll(&mut fds, timeout)
            });
        } else {
            sys::poll(&mut fds, timeout);
        }
        if starved {
            rep.credit_wait_ns += trace::now_ns() - waited_from;
        }
        woke = true;
    }
    rep.busy_ns = last_send - t0;
    rep.clean = conns.iter().filter(|c| c.clean).count();
    if traced {
        rep.spans = trace::take();
    }
    rep
}

/// What the subscriber saw.
#[derive(Default)]
pub struct SubReport {
    /// Per output frame: when it was read (ns since the epoch; 0 = never).
    pub read_ns: Vec<u64>,
    /// Output frames received.
    pub received: u64,
    /// Frames not byte-identical to the reference (or beyond its end).
    pub mismatched: u64,
    pub clean: bool,
    pub spans: Vec<Span>,
}

/// A subscriber session after the Subscribe/Welcome handshake.
pub struct Subscriber {
    stream: TcpStream,
}

/// Initial credit grant; half of it is re-granted as frames are consumed.
const SUB_CREDITS: u32 = 256;

pub fn connect_subscriber(addr: &str) -> Result<Subscriber, WireError> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    wire::write_frame(
        &mut stream,
        &Frame::Subscribe {
            protocol: PROTOCOL_VERSION,
            subscriber: 1,
            filter: 0,
            resume_from: 0,
            credits: SUB_CREDITS,
        },
    )?;
    match wire::read_frame(&mut stream)? {
        Some(Frame::Welcome { resume_seq: 0, .. }) => Ok(Subscriber { stream }),
        _ => Err(WireError::Protocol("expected a fresh Welcome")),
    }
}

fn is_data_tag(tag: u8) -> bool {
    (3..=5).contains(&tag)
}

/// Consume the fanned-out stream until the server's Bye, checking every
/// frame against the reference and stamping when it was read. Runs on the
/// generator's subscriber thread.
pub fn subscribe(sub: Subscriber, reference: &Reference, traced: bool) -> SubReport {
    let Subscriber { mut stream } = sub;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(30)));
    let mut rep = SubReport {
        read_ns: vec![0; reference.frames()],
        ..Default::default()
    };
    let grant = (SUB_CREDITS / 2) as u64;
    let mut since_grant = 0u64;
    let mut buf = vec![0u8; 1 << 16];
    let mut filled = 0usize;
    let mut j = 0usize;
    'read: loop {
        if filled == buf.len() {
            buf.resize(buf.len() * 2, 0);
        }
        let idx = traced.then(|| trace::enter(Stage::SubRead, trace::NO_ELEMENT));
        let got = stream.read(&mut buf[filled..]);
        let t = match idx {
            Some(idx) => trace::exit(idx),
            None => trace::now_ns(),
        };
        let n = match got {
            Ok(0) | Err(_) => break,
            Ok(n) => n,
        };
        filled += n;
        let mut off = 0;
        while let Some(len) = frame_len(&buf[off..filled]) {
            if filled < off + len {
                break;
            }
            let frame = &buf[off..off + len];
            off += len;
            let tag = frame[6];
            if is_data_tag(tag) {
                if j < reference.frames() {
                    rep.read_ns[j] = t;
                    if frame != reference.frame(j) {
                        rep.mismatched += 1;
                    }
                } else {
                    rep.mismatched += 1;
                }
                j += 1;
                rep.received += 1;
                since_grant += 1;
                if tag == 5 {
                    if let Ok((
                        Frame::Data {
                            seq,
                            element: Element::Stable(stable),
                            ..
                        },
                        _,
                    )) = wire::decode(frame)
                    {
                        let _ = wire::write_frame(&mut stream, &Frame::Ack { seq, stable });
                    }
                }
                if since_grant >= grant {
                    let n = since_grant as u32;
                    since_grant = 0;
                    if wire::write_frame(&mut stream, &Frame::Credit { n }).is_err() {
                        break 'read;
                    }
                }
            } else if let Ok((Frame::Bye, _)) = wire::decode(frame) {
                rep.clean = wire::write_frame(&mut stream, &Frame::Bye).is_ok();
                break 'read;
            }
        }
        buf.copy_within(off..filled, 0);
        filled -= off;
    }
    if traced {
        rep.spans = trace::take();
    }
    rep
}
