//! End-to-end replicated-merge benchmark.
//!
//! Runs the shipped `lmerge-ingest` wiring in-process — replicas over TCP
//! into the R3+ merge, then egress or subscriber fan-out with durable
//! checkpoints — against a separate load generator, and checks every
//! output frame against an in-process reference run.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload replicas-longlive --seed 1 --seconds 12 --trace 0
//! ```
//!
//! A run splits `--seconds` between a flat phase (send as fast as credits
//! allow; throughput and CPU, as trimmed means over rounds) and a paced
//! open-loop phase (latency from each input's due time, as percentiles
//! over all rounds). Every round runs on a feed of its own, made from the
//! seed and the round's number: the merge's cost differs from feed to
//! feed by up to 1.6x, and one run averages over dozens of them. Each
//! set-up (feeds, reference run, server binds) is timed and `setup_s` is
//! their median.
//! With `--trace 1` the flat phase alternates untraced and traced rounds
//! and the paced rounds are traced: per-layer numbers come from spans
//! around the public trait objects only. The last stdout line is one
//! JSON object; the exit code is non-zero if any output frame was
//! missing or wrong, or a session closed uncleanly.

mod load;
mod report;
mod sut;
mod sys;
mod trace;
mod workload;

use load::Pace;
use report::Kind;
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;
use workload::{Feeds, Reference, Workload};

/// Share of measuring time given to the flat phase; the paced phase
/// gets the rest.
const FLAT_SHARE: f64 = 0.5;

/// Where runs leave checkpoints and span files, relative to the checkout.
const SCRATCH: &str = ".bench_out";

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEV_SEED;
    let mut seconds: f64 = 10.0;
    let mut trace = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or(format!(
                    "unknown workload {value:?}; one of: {}",
                    workload::WORKLOADS.map(|w| w.name).join(", ")
                ))?)
            }
            "--seed" => seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if seconds.is_nan() || seconds <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// The products of one set-up.
struct Setup {
    feeds: Feeds,
    reference: Arc<Reference>,
    ns_per_vus: f64,
}

/// Feed generation, the reference run and the server binds: everything
/// before the first frame is sent. Each set-up of a run uses its own feed.
fn setup(w: &Workload, seed: u64, times: &mut report::SetupTimes) -> Setup {
    let k = times.setup_s.len() as u64;
    let start = Instant::now();
    let feeds = workload::make_feeds(w, workload::feed_seed(seed, k));
    let reference = Arc::new(workload::reference(w, &feeds));
    drop(sut::bind(w));
    times.setup_s.push(start.elapsed().as_secs_f64());
    times
        .inproc_ns
        .push(reference.wall.as_nanos() as f64 / feeds.elements() as f64);
    let ns_per_vus = feeds.ns_per_vus(w.paced_eps);
    Setup {
        feeds,
        reference,
        ns_per_vus,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("e2ebench: {msg}");
            return ExitCode::FAILURE;
        }
    };
    let w = args.workload;
    trace::now_ns(); // calibrate the clock before anything is timed
    let scratch = Path::new(SCRATCH);
    if let Err(e) = std::fs::create_dir_all(scratch) {
        eprintln!("e2ebench: create {SCRATCH}: {e}");
        return ExitCode::FAILURE;
    }

    println!(
        "workload {} seed {} ({} replicas; {} events per feed, a feed per round)",
        w.name, args.seed, w.replicas, w.events
    );
    println!(
        "  seeds: {} for development, {} held out for confirming claims",
        workload::DEV_SEED,
        workload::HELD_OUT_SEED
    );
    println!("  why: {}", w.why);
    println!("  moves: {}", w.moves);
    println!(
        "  paced phase offers {:.0} el/s (open loop); available_parallelism {}",
        w.paced_eps,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Flat and paced rounds alternate, each phase taking its share of
    // the measuring time, so both sample the same stretch of machine
    // conditions. The run ends when `--seconds` have passed, set-ups
    // included.
    let start = Instant::now();
    let mut times = report::SetupTimes::default();
    let mut acc = report::Acc::default();
    let (mut flat_s, mut paced_s) = (0.0, 0.0);
    while start.elapsed().as_secs_f64() < args.seconds {
        let paced = flat_s * (1.0 - FLAT_SHARE) > paced_s * FLAT_SHARE;
        let s = setup(w, args.seed, &mut times);
        let ctx = report::Context {
            workload: w,
            feeds: &s.feeds,
            reference: &s.reference,
            ns_per_vus: s.ns_per_vus,
        };
        let t = Instant::now();
        if paced {
            let pace = Pace::Paced {
                ns_per_vus: s.ns_per_vus,
            };
            let r = sut::round(w, &s.feeds, &s.reference, pace, args.trace, scratch);
            acc.add(&ctx, r, Kind::Paced, scratch);
            paced_s += t.elapsed().as_secs_f64();
        } else {
            let r = sut::round(w, &s.feeds, &s.reference, Pace::Flat, false, scratch);
            acc.add(&ctx, r, Kind::Flat, scratch);
            if args.trace {
                let r = sut::round(w, &s.feeds, &s.reference, Pace::Flat, true, scratch);
                acc.add(&ctx, r, Kind::FlatTraced, scratch);
            }
            flat_s += t.elapsed().as_secs_f64();
        }
        drop(s);
        sys::release_freed_memory();
    }
    sut::remove_checkpoints(scratch);
    report::finish(w, &times, &acc, args.trace)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(name: &'static str, replicas: usize, fanout: bool) -> Workload {
        Workload {
            name,
            replicas,
            events: 1_500,
            event_duration_ms: 20_000,
            stable_freq: 0.02,
            fanout,
            paced_eps: 50_000.0,
            why: "",
            moves: "",
        }
    }

    /// One traced flat round against the reference, with one reference
    /// byte flipped if `corrupt`; returns the round's failure count.
    fn failures(w: &Workload, corrupt: bool) -> u64 {
        let feeds = workload::make_feeds(w, 3);
        let mut reference = workload::reference(w, &feeds);
        if corrupt {
            let mid = reference.bytes.len() / 2;
            reference.bytes[mid] ^= 0x20;
        }
        let reference = Arc::new(reference);
        let scratch = std::env::temp_dir().join(format!("e2ebench-test-{}", w.name));
        std::fs::create_dir_all(&scratch).expect("scratch dir");
        let round = sut::round(w, &feeds, &reference, Pace::Flat, true, &scratch);
        sut::remove_checkpoints(&scratch);
        let _ = std::fs::remove_dir_all(&scratch);
        round.failed
    }

    #[test]
    fn replica_output_matches_reference() {
        let w = small("test-replicas", 2, false);
        assert_eq!(failures(&w, false), 0);
    }

    #[test]
    fn corrupted_reference_byte_counts_as_failed() {
        let w = small("test-corrupt", 2, false);
        assert!(failures(&w, true) > 0);
    }

    #[test]
    fn fanout_output_matches_reference_and_corruption_is_caught() {
        let w = small("test-fanout", 1, true);
        assert_eq!(failures(&w, false), 0);
        assert!(failures(&w, true) > 0);
    }
}
