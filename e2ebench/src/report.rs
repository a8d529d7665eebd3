//! Turning rounds into the end-to-end and per-layer metrics, the tables
//! printed for people, the span file, and the final JSON line. Each round
//! is folded into [`Acc`] as soon as it ends, so the process's memory is
//! the system's plus a constant, whatever the run length.

use crate::sut::Round;
use crate::trace::{self, Span, Stage, STAGES};
use crate::workload::{Feeds, Reference, Workload};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::process::ExitCode;

/// A paced round is invalid — the generator, not the system, is being
/// measured — when the median lateness the generator itself caused
/// reaches half the round's median latency. Medians, because on a shared
/// host both p99 tails are set by the same virtual-CPU stalls, and a rule
/// on them would discard rounds that the system, not the generator, made
/// slow.
const OWN_LATENESS_SHARE: f64 = 0.5;

/// Accepted range of `trace.coverage`.
const COVERAGE: (f64, f64) = (0.9, 1.1);

/// What a round was run against: its workload and the set-up it used.
pub struct Context<'a> {
    pub workload: &'a Workload,
    pub feeds: &'a Feeds,
    pub reference: &'a Reference,
    pub ns_per_vus: f64,
}

/// Per set-up: its wall time and the in-process reference run's cost.
#[derive(Default)]
pub struct SetupTimes {
    pub setup_s: Vec<f64>,
    pub inproc_ns: Vec<f64>,
}

/// Nearest-rank percentile of unsorted samples (`q` in 0..=1).
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Share of rounds dropped at each end before averaging a per-round
/// figure. On a few shared cores, flat rounds of one feed fall into a
/// fast and a slow mode (up to 1.8x apart); a median of rounds jumps
/// between the two modes from run to run, while a trimmed mean moves
/// only with the share of slow rounds.
const TRIM: f64 = 0.1;

/// Mean of `v` without its lowest and highest `TRIM` share.
pub fn trimmed_mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_unstable_by(f64::total_cmp);
    let cut = (v.len() as f64 * TRIM).floor() as usize;
    let kept = &v[cut..v.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

fn throughput(r: &Round) -> f64 {
    r.send.sent as f64 / (r.wall_ns() as f64 / 1e9)
}

/// One paced round, summarised.
struct Paced {
    p50: f64,
    own_late_p50: f64,
    own_late_p99: f64,
    late_p50: f64,
    valid: bool,
}

/// Latency of output data elements, µs from the due time of the input
/// element whose batch produced them; sorted.
fn paced(ctx: &Context, r: &Round) -> (Paced, Vec<f64>) {
    let due0 = r.send.t0 as f64;
    let mut lat: Vec<f64> = (0..ctx.reference.frames())
        .filter(|&j| ctx.reference.is_data[j] && r.out_ns[j] != 0)
        .map(|j| {
            let due = due0 + ctx.reference.due_at[j] as f64 * ctx.ns_per_vus;
            (r.out_ns[j] as f64 - due) / 1e3
        })
        .collect();
    let p50 = percentile(&mut lat, 0.50);
    let mut own = r.send.own_lateness_us.clone();
    let own_late_p50 = percentile(&mut own, 0.50);
    let p = Paced {
        p50,
        own_late_p50,
        own_late_p99: percentile(&mut own, 0.99),
        late_p50: percentile(&mut r.send.lateness_us.clone(), 0.50),
        valid: own_late_p50 < OWN_LATENESS_SHARE * p50,
    };
    (p, lat)
}

/// Self time per stage summed over traced flat rounds.
#[derive(Default)]
struct Stages {
    self_ns: [u64; STAGES.len()],
    count: [u64; STAGES.len()],
    exec_wall_ns: u64,
    elements: u64,
    outputs: u64,
    save_us: Vec<f64>,
}

impl Stages {
    fn add(&mut self, r: &Round, exec_spans: &[Span]) {
        let empty = Vec::new();
        let sub = r.sub.as_ref().map_or(&empty, |s| &s.spans);
        for set in [exec_spans, &r.send.spans, sub] {
            let (t, c) = trace::self_times(set);
            for k in 0..STAGES.len() {
                self.self_ns[k] += t[k];
                self.count[k] += c[k];
            }
        }
        self.save_us.extend(
            exec_spans
                .iter()
                .filter(|s| s.stage == Stage::Save)
                .map(|s| (s.end - s.start) as f64 / 1e3),
        );
        self.exec_wall_ns += r.exec_wall_ns;
        self.elements += r.send.sent;
        self.outputs += r.out_ns.iter().filter(|&&t| t != 0).count() as u64;
    }

    fn ns(&self, s: Stage) -> f64 {
        self.self_ns[s as usize] as f64
    }

    fn count(&self, s: Stage) -> f64 {
        self.count[s as usize] as f64
    }

    fn coverage(&self) -> f64 {
        let covered: u64 = STAGES
            .iter()
            .filter(|s| s.on_executor())
            .map(|&s| self.self_ns[s as usize])
            .sum();
        covered as f64 / self.exec_wall_ns.max(1) as f64
    }

    fn print(&self) {
        println!("self time by stage (traced flat rounds)");
        println!(
            "  {:<20} {:>10} {:>12} {:>10} {:>9}",
            "stage", "spans", "self ms", "ns/el", "share"
        );
        for &s in &STAGES {
            let ns = self.ns(s);
            // The generator's stages run on its own threads and include
            // blocking waits; only executor stages are shares of a wall.
            let share = if s.on_executor() {
                format!("{:>8.1}%", 100.0 * ns / self.exec_wall_ns.max(1) as f64)
            } else {
                format!("{:>9}", "-")
            };
            println!(
                "  {:<20} {:>10} {:>12.3} {:>10.1} {share}",
                s.name(),
                self.count(s),
                ns / 1e6,
                ns / self.elements.max(1) as f64,
            );
        }
        println!(
            "  executor wall {:.3} ms over {} input elements; shares are of executor wall",
            self.exec_wall_ns as f64 / 1e6,
            self.elements
        );
    }
}

/// Per-round percentiles of the layer latencies of traced paced rounds:
/// due → ring pop (ingest), pop → emit (merge), emit → sealed and
/// sealed → subscriber read (sub).
#[derive(Default)]
struct LayerLatency {
    ingest_p50: Vec<f64>,
    ingest_p99: Vec<f64>,
    merge_p50: Vec<f64>,
    seal_wait_p50: Vec<f64>,
    fanout_p50: Vec<f64>,
    fanout_p99: Vec<f64>,
    own_late_p99: Vec<f64>,
}

impl LayerLatency {
    fn add(&mut self, ctx: &Context, r: &Round, own_late_p99: f64) {
        let exec = r.exec.as_ref().expect("traced round");
        let feeds = ctx.feeds;
        let mut pop: Vec<Vec<u64>> = feeds
            .replicas
            .iter()
            .map(|f| vec![0; f.timed.len()])
            .collect();
        let split = |id: u64| ((id >> 32) as usize, (id & 0xFFFF_FFFF) as usize);
        let mut ingest = Vec::new();
        for s in exec.spans.iter().filter(|s| s.stage == Stage::SourceNext) {
            let (input, seq) = split(s.id);
            if let Some(slot) = pop.get_mut(input).and_then(|p| p.get_mut(seq)) {
                *slot = s.end;
                let at = feeds.replicas[input].at_us(seq) as f64;
                let due = r.send.t0 as f64 + at * ctx.ns_per_vus;
                ingest.push((s.end as f64 - due) / 1e3);
            }
        }
        let mut merge = Vec::new();
        for s in exec.spans.iter().filter(|s| s.stage == Stage::Hooks) {
            let (input, seq) = split(s.id);
            if let Some(&p) = pop.get(input).and_then(|p| p.get(seq)) {
                if p != 0 {
                    merge.push(s.start.saturating_sub(p) as f64 / 1e3);
                }
            }
        }
        let mut seal_wait = Vec::new();
        let mut fanout = Vec::new();
        for (j, &seal) in exec.seal_ns.iter().enumerate() {
            seal_wait.push(seal.saturating_sub(exec.emit_ns[j]) as f64 / 1e3);
            if r.out_ns[j] != 0 {
                fanout.push(r.out_ns[j].saturating_sub(seal) as f64 / 1e3);
            }
        }
        self.ingest_p50.push(percentile(&mut ingest, 0.50));
        self.ingest_p99.push(percentile(&mut ingest, 0.99));
        self.merge_p50.push(percentile(&mut merge, 0.50));
        self.seal_wait_p50.push(percentile(&mut seal_wait, 0.50));
        self.fanout_p50.push(percentile(&mut fanout, 0.50));
        self.fanout_p99.push(percentile(&mut fanout, 0.99));
        self.own_late_p99.push(own_late_p99);
    }
}

/// Counts that repeat exactly from round to round (the merge is
/// deterministic), taken from the first traced flat round.
struct Counts {
    stable_pushes: f64,
    dup_drop_ratio: f64,
    adjusts_out: f64,
    peak_state_bytes: f64,
    saves: f64,
    bytes_per_save: f64,
    frames_per_epoch: f64,
}

fn counts(ctx: &Context, r: &Round) -> Counts {
    let stats = &r.metrics.merge;
    let exec = r.exec.as_ref().expect("traced round");
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    Counts {
        stable_pushes: exec
            .spans
            .iter()
            .filter(|s| s.stage == Stage::PushStable)
            .count() as f64,
        dup_drop_ratio: per(stats.dropped, stats.inserts_in + stats.adjusts_in),
        adjusts_out: stats.adjusts_out as f64,
        peak_state_bytes: exec.peak_state_bytes as f64,
        saves: r.saves as f64,
        bytes_per_save: per(r.ckpt_bytes, r.saves),
        frames_per_epoch: per(ctx.reference.frames() as u64, r.epochs),
    }
}

/// Which phase a round belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Flat,
    FlatTraced,
    Paced,
}

/// Everything the run keeps from its rounds.
#[derive(Default)]
pub struct Acc {
    rounds: u64,
    /// Expected output frames over all rounds.
    attempted: u64,
    failed: u64,
    tput: Vec<f64>,
    cpu: Vec<f64>,
    traced_tput: Vec<f64>,
    credit_wait_ns: u64,
    sender_busy_ns: u64,
    paced: Vec<Paced>,
    /// Output latencies of every valid paced round, µs.
    latency_us: Vec<f32>,
    stages: Stages,
    layer: LayerLatency,
    counts: Option<Counts>,
}

impl Acc {
    pub fn add(&mut self, ctx: &Context, r: Round, kind: Kind, scratch: &Path) {
        self.rounds += 1;
        self.attempted += ctx.reference.frames() as u64;
        self.failed += r.failed;
        match kind {
            Kind::Flat => {
                self.tput.push(throughput(&r));
                self.cpu
                    .push(r.cpu.as_secs_f64() * 1e6 / r.send.sent.max(1) as f64);
                self.credit_wait_ns += r.send.credit_wait_ns;
                self.sender_busy_ns += r.send.busy_ns;
            }
            Kind::FlatTraced => {
                self.traced_tput.push(throughput(&r));
                self.credit_wait_ns += r.send.credit_wait_ns;
                self.sender_busy_ns += r.send.busy_ns;
                let exec = r.exec.as_ref().expect("traced round");
                let mut spans = exec.spans.clone();
                trace::close_loop(&mut spans);
                self.stages.add(&r, &spans);
                if self.counts.is_none() {
                    self.counts = Some(counts(ctx, &r));
                    let path = scratch.join(format!("spans-{}.tsv", ctx.workload.name));
                    match write_spans(&path, &r, &spans) {
                        Ok(()) => {
                            println!("spans of the first traced flat round: {}", path.display())
                        }
                        Err(e) => eprintln!("e2ebench: write {}: {e}", path.display()),
                    }
                }
            }
            Kind::Paced => {
                let (p, lat) = paced(ctx, &r);
                if p.valid {
                    self.latency_us.extend(lat.iter().map(|&l| l as f32));
                    if r.exec.is_some() {
                        self.layer.add(ctx, &r, p.own_late_p99);
                    }
                }
                self.paced.push(p);
            }
        }
    }
}

/// One metric as printed and emitted.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name,
        value,
        unit,
        note: String::new(),
    }
}

fn print_table(title: &str, metrics: &[&Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<28} {:>16.4} {:<8} {}",
            m.name, m.value, m.unit, m.note
        );
    }
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            if i == 0 { "" } else { ", " },
            m.name,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

/// Write one round's spans: one line per span, with its thread, parent
/// (index within the thread, -1 for none) and input element (-1 if the
/// span belongs to no single element).
fn write_spans(path: &Path, r: &Round, exec_spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "thread\tspan\tstart_ns\tend_ns\tparent\tinput\tseq")?;
    let empty = Vec::new();
    let threads: [(&str, &[Span]); 3] = [
        ("executor", exec_spans),
        ("sender", &r.send.spans),
        ("subscriber", r.sub.as_ref().map_or(&empty, |s| &s.spans)),
    ];
    for (thread, spans) in threads {
        for s in spans {
            let parent = if s.parent == trace::NONE {
                -1
            } else {
                s.parent as i64
            };
            let (input, seq) = if s.id == trace::NO_ELEMENT {
                (-1, -1)
            } else {
                ((s.id >> 32) as i64, (s.id & 0xFFFF_FFFF) as i64)
            };
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{input}\t{seq}",
                s.stage.name(),
                s.start,
                s.end
            )?;
        }
    }
    out.flush()
}

pub fn finish(w: &Workload, setups: &SetupTimes, acc: &Acc, traced: bool) -> ExitCode {
    let attempted = acc.attempted;
    let failed = acc.failed;
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let valid = acc.paced.iter().filter(|p| p.valid).count();
    let inproc_ns = median(&setups.inproc_ns);
    let throughput_eps = trimmed_mean(&acc.tput);

    let mut sorted = acc.tput.clone();
    sorted.sort_unstable_by(f64::total_cmp);
    println!(
        "rounds: {} flat (el/s min {:.0}, max {:.0}), {} flat traced, {} paced ({} valid)",
        acc.tput.len(),
        sorted.first().copied().unwrap_or(0.0),
        sorted.last().copied().unwrap_or(0.0),
        acc.traced_tput.len(),
        acc.paced.len(),
        valid
    );
    for (i, p) in acc.paced.iter().enumerate().filter(|(_, p)| !p.valid) {
        println!(
            "  paced round {i} invalid (generator-bound): p50 {:.1} µs, sender lateness p50 \
             {:.1} µs, of which its own {:.1} µs",
            p.p50, p.late_p50, p.own_late_p50
        );
    }

    // Percentiles over the output latencies of all valid paced rounds.
    let mut latency: Vec<f64> = acc.latency_us.iter().map(|&l| f64::from(l)).collect();
    let mut e2e = vec![
        metric("throughput_eps", throughput_eps, "el/s"),
        metric("cpu_us_per_el", trimmed_mean(&acc.cpu), "us/el"),
        metric("latency_p50_us", percentile(&mut latency, 0.50), "us"),
        metric("setup_s", median(&setups.setup_s), "s"),
        metric("peak_rss_mb", crate::sys::peak_rss_mib(), "MiB"),
    ];
    e2e[0].note = format!(
        "trimmed mean of {} flat rounds; in-process baseline {:.0} ns/el = {:.0} el/s ({:.2}x)",
        acc.tput.len(),
        inproc_ns,
        1e9 / inproc_ns,
        (1e9 / inproc_ns) / throughput_eps.max(1e-9)
    );
    e2e[2].note = format!(
        "over {} valid paced rounds at {:.0} el/s offered",
        valid, w.paced_eps
    );
    e2e[3].note = format!("median of {} set-ups", setups.setup_s.len());
    // Printed, not part of the result line: the p99 tail is set by the
    // few multi-millisecond stalls of a shared host's virtual CPUs in a
    // round, and moves from run to run by more than any bound a change
    // could be held to there.
    let p99 = Metric {
        name: "latency_p99_us",
        value: percentile(&mut latency, 0.99),
        unit: "us",
        note: format!("{} samples; not in the result line", latency.len()),
    };
    let failed_row = Metric {
        name: "failed_frac",
        value: failed_frac,
        unit: "ratio",
        note: format!("{failed} failed of {attempted} expected output frames"),
    };
    let mut table: Vec<&Metric> = e2e.iter().collect();
    table.insert(3, &p99);
    table.insert(4, &failed_row);
    let title = if traced {
        "end-to-end (flat: untraced rounds; paced: traced rounds)"
    } else {
        "end-to-end"
    };
    print_table(title, &table);

    let mut ok = failed == 0;
    if failed > 0 {
        eprintln!(
            "e2ebench: {failed} failed output frames or sessions (failed_frac {failed_frac})"
        );
    }
    if valid == 0 {
        eprintln!("e2ebench: every paced round was generator-bound; latency not reported");
        ok = false;
    }
    let metrics = if traced {
        let layer = per_layer(setups, acc);
        let coverage = acc.stages.coverage();
        if !(COVERAGE.0..=COVERAGE.1).contains(&coverage) {
            eprintln!(
                "e2ebench: trace.coverage {coverage:.3} outside {COVERAGE:?}: the stage table \
                 does not add up to the executor thread's wall time"
            );
            ok = false;
        }
        layer
    } else {
        e2e
    };
    if !ok {
        return ExitCode::FAILURE;
    }
    println!("{}", json_line(ok, attempted, failed, &metrics));
    ExitCode::SUCCESS
}

fn per_layer(setups: &SetupTimes, acc: &Acc) -> Vec<Metric> {
    let st = &acc.stages;
    st.print();
    let c = acc
        .counts
        .as_ref()
        .expect("a traced run has traced flat rounds");
    let l = &acc.layer;
    let el = st.elements.max(1) as f64;
    let outs = st.outputs.max(1) as f64;
    let push_ns = st.ns(Stage::PushData) + st.ns(Stage::PushStable);
    let mut save_us = st.save_us.clone();
    let layer = vec![
        metric("load.lateness_p99_us", median(&l.own_late_p99), "us"),
        metric(
            "load.credit_wait_share",
            acc.credit_wait_ns as f64 / acc.sender_busy_ns.max(1) as f64,
            "ratio",
        ),
        metric(
            "net.source_wait_ns_per_el",
            st.ns(Stage::SourceNext) / el,
            "ns/el",
        ),
        metric("net.ingest_latency_p50_us", median(&l.ingest_p50), "us"),
        metric("net.ingest_latency_p99_us", median(&l.ingest_p99), "us"),
        metric(
            "net.egress_ns_per_out",
            st.ns(Stage::Egress) / outs,
            "ns/out",
        ),
        metric(
            "engine.self_ns_per_el",
            st.ns(Stage::EngineLoop) / el,
            "ns/el",
        ),
        metric("engine.merge_latency_p50_us", median(&l.merge_p50), "us"),
        metric(
            "engine.inproc_ns_per_el",
            median(&setups.inproc_ns),
            "ns/el",
        ),
        metric(
            "core.data_ns_per_el",
            st.ns(Stage::PushData) / st.count(Stage::PushData).max(1.0),
            "ns/el",
        ),
        metric(
            "core.stable_us_per_punct",
            st.ns(Stage::PushStable) / st.count(Stage::PushStable).max(1.0) / 1e3,
            "us/punct",
        ),
        metric(
            "core.stable_share",
            st.ns(Stage::PushStable) / push_ns.max(1.0),
            "ratio",
        ),
        metric("core.stable_pushes", c.stable_pushes, "count"),
        metric("core.dup_drop_ratio", c.dup_drop_ratio, "ratio"),
        metric("core.adjusts_out", c.adjusts_out, "count"),
        metric("core.peak_state_bytes", c.peak_state_bytes, "bytes"),
        metric("obs.record_ns_per_el", st.ns(Stage::Record) / el, "ns/el"),
        metric(
            "sub.publish_ns_per_out",
            st.ns(Stage::Publish) / outs,
            "ns/out",
        ),
        metric("sub.seal_wait_p50_us", median(&l.seal_wait_p50), "us"),
        metric("sub.fanout_latency_p50_us", median(&l.fanout_p50), "us"),
        metric("sub.fanout_latency_p99_us", median(&l.fanout_p99), "us"),
        metric("sub.frames_per_epoch", c.frames_per_epoch, "frames"),
        metric("durable.save_us_p50", percentile(&mut save_us, 0.50), "us"),
        metric("durable.save_us_p99", percentile(&mut save_us, 0.99), "us"),
        metric("durable.saves", c.saves, "count"),
        metric("durable.bytes_per_save", c.bytes_per_save, "bytes"),
        metric(
            "durable.save_share",
            st.ns(Stage::Save) / st.exec_wall_ns.max(1) as f64,
            "ratio",
        ),
        metric(
            "trace.overhead_ratio",
            trimmed_mean(&acc.traced_tput) / trimmed_mean(&acc.tput).max(1e-9),
            "ratio",
        ),
        metric("trace.coverage", st.coverage(), "ratio"),
    ];
    print_table(
        "per-layer (traced rounds)",
        &layer.iter().collect::<Vec<_>>(),
    );
    layer
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v[0] = -1000.0;
        v[9] = 1000.0;
        assert_eq!(trimmed_mean(&v), 5.5);
    }
}
