//! `lmerge-replay`: stream one physically divergent replica of a
//! generated feed to an ingest server.
//!
//! ```text
//! lmerge-replay --addr 127.0.0.1:7171 --input 0 --events 500 --seed 42
//! ```
//!
//! Every replica of the same `--seed` shares one logical history; the
//! `--input` index selects which physically divergent copy this process
//! streams (provisional lifetimes, differing stable cadence — the gen
//! crate's divergence model). `--pace-us` throttles real-time send rate;
//! `--kill-after N` severs the connection after N frames to exercise the
//! server's resume path, and `--attempts` reconnects until the feed
//! finishes cleanly. To tail the merged output instead, use
//! `lmerge-subscribe`.

use lmerge_engine::TimedElement;
use lmerge_gen::{assign_times, diverge, generate, DivergenceConfig, GenConfig};
use lmerge_net::client::{replay_until_clean, ReplayConfig};
use std::process::ExitCode;

struct Args {
    addr: String,
    input: u32,
    events: usize,
    seed: u64,
    rate_eps: f64,
    pace_us: u64,
    kill_after: Option<u64>,
    attempts: usize,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7171".to_string(),
        input: 0,
        events: 500,
        seed: 42,
        rate_eps: 50_000.0,
        pace_us: 0,
        kill_after: None,
        attempts: 1,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        let parse = |name: &str, s: String| -> Result<u64, String> {
            s.parse().map_err(|e| format!("{name}: {e}"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--input" => args.input = parse("--input", value("--input")?)? as u32,
            "--events" => args.events = parse("--events", value("--events")?)? as usize,
            "--seed" => args.seed = parse("--seed", value("--seed")?)?,
            "--rate" => {
                args.rate_eps = value("--rate")?
                    .parse()
                    .map_err(|e| format!("--rate: {e}"))?
            }
            "--pace-us" => args.pace_us = parse("--pace-us", value("--pace-us")?)?,
            "--kill-after" => {
                args.kill_after = Some(parse("--kill-after", value("--kill-after")?)?)
            }
            "--attempts" => args.attempts = parse("--attempts", value("--attempts")?)? as usize,
            "--help" | "-h" => {
                return Err("usage: lmerge-replay [--addr HOST:PORT] [--input I] \
                     [--events N] [--seed S] [--rate EPS] [--pace-us US] \
                     [--kill-after N] [--attempts N]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let reference = generate(&GenConfig::small(args.events, args.seed).with_stable_freq(0.06));
    let divergence = DivergenceConfig {
        seed: args.seed.wrapping_mul(0x9E37_79B9).wrapping_add(1),
        ..Default::default()
    };
    let replica = diverge(&reference.elements, &divergence, args.input as u64);
    let feed: Vec<TimedElement<_>> = assign_times(&replica, args.rate_eps)
        .into_iter()
        .map(|(at, element)| TimedElement::new(at, element))
        .collect();
    println!(
        "replica {} of seed {}: {} elements at {} eps",
        args.input,
        args.seed,
        feed.len(),
        args.rate_eps
    );

    let mut config = ReplayConfig::new(args.input).with_pace_us(args.pace_us);
    if let Some(n) = args.kill_after {
        config = config.with_kill_after(n);
    }
    // A kill-after run is intentionally unclean; send the severed session
    // as-is. Otherwise retry until the whole feed lands.
    let result = if args.kill_after.is_some() {
        lmerge_net::client::replay(&args.addr, &feed, &config).inspect(|o| {
            println!(
                "severed after {} frames (resume point for the next run)",
                o.sent
            );
        })
    } else {
        replay_until_clean(&args.addr, &feed, &config, args.attempts.max(1))
    };
    match result {
        Ok(outcome) => {
            println!(
                "sent {} frames (resumed from {}), clean={}, acked stable {}",
                outcome.sent, outcome.resumed_from, outcome.clean, outcome.acked_stable
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("replay failed: {e}");
            ExitCode::FAILURE
        }
    }
}
