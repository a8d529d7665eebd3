//! The replayer: stream a pre-timed feed to an ingest server.
//!
//! One call to [`replay`] is one session of the ingest direction of the
//! [session protocol](crate::session), where the replayer streams, honours
//! credits and initiates the `Bye` close. The server's `Welcome` tells a
//! rejoining client where to resume (`feed[resume_seq..]`), so a crash
//! drill is just calling `replay` again after a connection died — by
//! choice ([`ReplayConfig::kill_after`]) or by a proxy-injected reset.

use crate::session::{self, Window};
use crate::wire::{self, Frame, WireError, PROTOCOL_VERSION};
use lmerge_engine::TimedElement;
use lmerge_temporal::{Time, Value};
use std::net::Shutdown;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

/// One replay session's parameters.
#[derive(Clone, Copy, Debug)]
pub struct ReplayConfig {
    /// The input id to claim.
    pub input: u32,
    /// Real-time pacing between frames, in microseconds (0 = flat out).
    /// Pacing shapes socket timing only; virtual arrival times travel in
    /// the frames, so the merge result is pace-independent.
    pub pace_us: u64,
    /// Sever the connection (no `Bye`) after sending this many data
    /// frames — simulates a replica crash for resume testing.
    pub kill_after: Option<u64>,
}

impl ReplayConfig {
    /// Stream `input` flat out to completion.
    pub fn new(input: u32) -> ReplayConfig {
        ReplayConfig {
            input,
            pace_us: 0,
            kill_after: None,
        }
    }

    /// Sleep `us` microseconds between frames.
    #[must_use]
    pub fn with_pace_us(mut self, us: u64) -> ReplayConfig {
        self.pace_us = us;
        self
    }

    /// Crash (sever without `Bye`) after `n` data frames.
    #[must_use]
    pub fn with_kill_after(mut self, n: u64) -> ReplayConfig {
        self.kill_after = Some(n);
        self
    }
}

/// What one replay session accomplished.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOutcome {
    /// Data frames sent this session.
    pub sent: u64,
    /// The resume offset the server's `Welcome` carried (0 on a first
    /// session; the crash point after a rejoin).
    pub resumed_from: u64,
    /// Whether the session ended with a server-acknowledged `Bye`
    /// (false after a kill, a connection loss, or a `Bye` the transport
    /// ate before delivery — call [`replay`] again to resume).
    pub clean: bool,
    /// Highest stable point the server acked as durably consumed.
    pub acked_stable: Time,
}

/// Run one replay session against `addr`. Returns when the feed is fully
/// streamed (`clean == true`), the configured kill point was reached, or
/// the connection died. Transport-level failures surface as `Err`; a
/// severed-but-resumable session is `Ok` with `clean == false`.
pub fn replay(
    addr: &str,
    feed: &[TimedElement<Value>],
    config: &ReplayConfig,
) -> Result<ReplayOutcome, WireError> {
    let hello = Frame::Hello {
        protocol: PROTOCOL_VERSION,
        input: config.input,
    };
    let (mut stream, resume_seq, _, credits) = session::connect(addr, &hello)?;
    let window = Window::new(credits as u64);
    let acked = Arc::new(AtomicI64::new(Time::MIN.0));
    let reader = {
        let acked = Arc::clone(&acked);
        session::spawn_peer_reader(&stream, &window, move |_, stable| {
            acked.store(stable.0, Ordering::Release)
        })?
    };

    let mut sent = 0u64;
    let clean = 'session: {
        for (i, te) in feed.iter().enumerate().skip(resume_seq as usize) {
            // No credit ever again means the server vanished mid-stream:
            // resumable, not fatal.
            if window.take(1, || {}).is_none() {
                break 'session false;
            }
            let frame = Frame::Data {
                seq: i as u64,
                at: te.at,
                element: te.element.clone(),
            };
            if wire::write_frame(&mut stream, &frame).is_err() {
                break 'session false;
            }
            sent += 1;
            if config.pace_us > 0 {
                thread::sleep(Duration::from_micros(config.pace_us));
            }
            if config.kill_after == Some(sent) {
                break 'session false;
            }
        }
        // A written-but-unechoed `Bye` is NOT a clean close — a transport
        // fault may have eaten it after our write succeeded — so the
        // caller resumes (from `resume_seq == feed.len()`, i.e. it just
        // re-sends the `Bye`).
        session::close(&mut stream, &window)
    };
    let _ = stream.shutdown(Shutdown::Both);
    let _ = reader.join();
    Ok(ReplayOutcome {
        sent,
        resumed_from: resume_seq,
        clean,
        acked_stable: Time(acked.load(Ordering::Acquire)),
    })
}

/// Replay to completion, reconnecting after crashes or injected resets.
/// Pauses real time briefly between attempts so the server can recycle
/// the session. Errors if `max_attempts` sessions all fail to finish the
/// feed.
pub fn replay_until_clean(
    addr: &str,
    feed: &[TimedElement<Value>],
    config: &ReplayConfig,
    max_attempts: usize,
) -> Result<ReplayOutcome, WireError> {
    let mut last = None;
    session::reconnect(max_attempts, Duration::from_millis(20), |_| {
        let outcome = replay(addr, feed, config)?;
        last = Some(outcome);
        Ok(outcome.clean)
    })?;
    last.filter(|o| o.clean)
        .ok_or(WireError::Protocol("no session closed cleanly"))
}
