//! Micro-benchmarks: per-element operator costs.
//!
//! These complement the figure harness (which measures end-to-end shapes)
//! with per-element numbers: insert cost per LMerge variant, adjust-heavy
//! revision cost, stable-processing cost, the per-stable cost of the
//! incremental sweep at fixed churn over growing half-frozen sets, the O(1)
//! batched discard of lagging inputs, and reconstitution overhead. A plain timing harness (best-of-N over a few
//! repeats) keeps the workspace free of external benchmark frameworks; run
//! with `cargo bench -p lmerge-bench`.
//!
//! Results are printed progressively and also persisted as
//! `target/bench-results/BENCH_micro.json` (one record per case, with
//! `throughput_eps = 1e9 / ns-per-element`). `LMERGE_BENCH_QUICK=1`
//! shrinks sizes and repeats for CI smoke runs.

use lmerge_bench::report::MetricsRecord;
use lmerge_bench::{variants, Report, VariantKind};
use lmerge_gen::{generate, GenConfig};
use lmerge_temporal::reconstitute::Reconstituter;
use lmerge_temporal::{Element, StreamId, Value};
use std::hint::black_box;
use std::time::Instant;

/// Whether the CI smoke mode is on.
fn quick_mode() -> bool {
    std::env::var("LMERGE_BENCH_QUICK").is_ok_and(|v| v != "0")
}

/// Pick the full or the smoke-sized parameter.
fn sized(full: usize, quick: usize) -> usize {
    if quick_mode() {
        quick
    } else {
        full
    }
}

fn repeats() -> usize {
    if quick_mode() {
        2
    } else {
        5
    }
}

/// Record one per-element case: progressive line, table row, and JSON
/// metric.
fn record(report: &mut Report, label: &str, ns: f64) {
    record_unit(report, label, ns, "ns/element");
}

/// Record one case whose cost is `ns` per `unit` (the JSON throughput is
/// units per second).
fn record_unit(report: &mut Report, label: &str, ns: f64, unit: &str) {
    println!("{label:<44} {ns:>9.1} {unit}");
    report.row(&[label.to_string(), format!("{ns:.1}")]);
    report.metric(
        label,
        MetricsRecord {
            throughput_eps: if ns > 0.0 { 1e9 / ns } else { 0.0 },
            ..Default::default()
        },
    );
}

/// Run `f` a few times and return the best per-element cost in ns.
fn time_per_element(elements: usize, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0u64;
    for _ in 0..repeats() {
        let start = Instant::now();
        sink = sink.wrapping_add(f());
        let ns = start.elapsed().as_nanos() as f64 / elements as f64;
        best = best.min(ns);
    }
    black_box(sink);
    best
}

fn bench_inserts(report: &mut Report) {
    let cfg = GenConfig {
        num_events: sized(10_000, 2_000),
        disorder: 0.0,
        disorder_window_ms: 0,
        stable_freq: 0.01,
        event_duration_ms: 1_000,
        max_gap_ms: 20,
        payload_len: 100,
        ..Default::default()
    };
    let stream = generate(&cfg).elements;

    println!("\n== merge_10k_ordered_elements ==");
    for v in variants() {
        let ns = time_per_element(stream.len(), || {
            let mut lm = v.build(2);
            let mut out = Vec::new();
            for e in &stream {
                lm.push(StreamId(0), black_box(e), &mut out);
                out.clear();
            }
            lm.stats().inserts_out
        });
        record(report, &format!("ordered/{}", v.label()), ns);
    }
}

fn bench_adjust_heavy(report: &mut Report) {
    // Insert + two adjusts per event: the revision-heavy R3/R4 regime.
    let mut elems: Vec<Element<Value>> = Vec::new();
    for i in 0..sized(5_000, 1_000) as i64 {
        let p = Value::synthetic((i % 400) as i32, 100);
        elems.push(Element::insert(p.clone(), i, i + 100));
        elems.push(Element::adjust(p.clone(), i, i + 100, i + 50));
        elems.push(Element::adjust(p, i, i + 50, i + 75));
        if i % 100 == 99 {
            elems.push(Element::stable(i - 100));
        }
    }
    println!("\n== merge_adjust_heavy ==");
    for v in [VariantKind::R3Plus, VariantKind::R3Minus, VariantKind::R4] {
        let ns = time_per_element(elems.len(), || {
            let mut lm = v.build(1);
            let mut out = Vec::new();
            for e in &elems {
                lm.push(StreamId(0), black_box(e), &mut out);
                out.clear();
            }
            lm.stats().adjusts_out
        });
        record(report, &format!("adjust_heavy/{}", v.label()), ns);
    }
}

fn bench_stable_processing(report: &mut Report) {
    // Cost of one stable() over a populated in2t index.
    println!("\n== r3_stable_over_live_index ==");
    for w in [sized(1_000, 500), sized(10_000, 2_000)] {
        let ns = time_per_element(w, || {
            let mut lm = VariantKind::R3Plus.build(1);
            let mut out = Vec::new();
            for i in 0..w as i64 {
                lm.push(
                    StreamId(0),
                    &Element::insert(Value::bare(i as i32), i, i + 5),
                    &mut out,
                );
                out.clear();
            }
            lm.push(StreamId(0), &Element::stable(2 * w as i64), &mut out);
            out.len() as u64
        });
        record(report, &format!("stable/w={w}"), ns);
    }
}

fn bench_stable_churn(report: &mut Report) {
    // The incremental stable sweep: a fixed churn per stable (`churn`
    // short-lived nodes become half frozen and, one stable later, retire)
    // over a half-frozen set of `live` long-lived nodes that no stable can
    // change. The cost per stable must follow the churn, not the set size;
    // a full walk of the half-frozen region grows linearly with `live`.
    let churn = 64i64;
    let stables = sized(2_000, 200) as i64;
    println!("\n== stable_churn{churn} (ns per stable) ==");
    for v in [VariantKind::R3Plus, VariantKind::R4] {
        for live in [1_000, 10_000, sized(100_000, 10_000)] {
            let live = live as i64;
            let mut best = f64::INFINITY;
            for _ in 0..repeats() {
                let mut lm = v.build(1);
                let mut out = Vec::new();
                for i in 0..live {
                    let e = Element::insert(Value::bare(i as i32), i, i + 1_000_000_000);
                    lm.push(StreamId(0), &e, &mut out);
                }
                lm.push(StreamId(0), &Element::stable(live), &mut out);
                // Round 0 is set-up, not timed: its stable walks the live
                // set once more before indexing it (the young range).
                let mut ns = 0u128;
                for k in 0..=stables {
                    let base = live + k * churn;
                    for vs in base..base + churn {
                        let e = Element::insert(Value::bare(vs as i32), vs, vs + churn);
                        lm.push(StreamId(0), &e, &mut out);
                    }
                    out.clear();
                    let start = Instant::now();
                    lm.push(StreamId(0), &Element::stable(base + churn), &mut out);
                    if k > 0 {
                        ns += start.elapsed().as_nanos();
                    }
                    out.clear();
                }
                best = best.min(ns as f64 / stables as f64);
            }
            let label = format!("stable_churn{churn}/{}/live={live}", v.label());
            record_unit(report, &label, best, "ns/stable");
        }
    }
}

fn bench_batch_discard(report: &mut Report) {
    // The catching-up replica: input 1 replays an already-frozen prefix in
    // batches. `push_batch` discards each batch in O(1) from the per-batch
    // `Vs` range; the per-element path walks every element.
    let batch_len = sized(1_000, 200);
    let batches = sized(100, 10);
    let batch: Vec<Element<Value>> = (0..batch_len as i64)
        .map(|i| Element::insert(Value::bare(i as i32), i, i + 5))
        .collect();
    println!("\n== lagging_input_discard ({batches}x{batch_len}) ==");
    for v in [VariantKind::R3Plus, VariantKind::R4] {
        for (mode, batched) in [("batched", true), ("per_element", false)] {
            let mut best = f64::INFINITY;
            for _ in 0..repeats() {
                let mut lm = v.build(2);
                let mut out = Vec::new();
                // Freeze far past the batch's Vs range; the index empties.
                lm.push(StreamId(0), &Element::stable(1_000_000), &mut out);
                out.clear();
                let start = Instant::now();
                for _ in 0..batches {
                    if batched {
                        lm.push_batch(StreamId(1), black_box(&batch), &mut out);
                    } else {
                        for e in &batch {
                            lm.push(StreamId(1), black_box(e), &mut out);
                        }
                    }
                    out.clear();
                }
                let ns = start.elapsed().as_nanos() as f64 / (batches * batch_len) as f64;
                best = best.min(ns);
            }
            record(report, &format!("discard/{}/{mode}", v.label()), best);
        }
    }
}

fn bench_reconstitution(report: &mut Report) {
    let cfg = GenConfig {
        num_events: sized(10_000, 2_000),
        payload_len: 100,
        event_duration_ms: 1_000,
        ..Default::default()
    };
    let stream = generate(&cfg).elements;
    println!("\n== reconstitute_10k ==");
    let ns = time_per_element(stream.len(), || {
        let mut r: Reconstituter<Value> = Reconstituter::new();
        for e in &stream {
            r.apply(black_box(e)).unwrap();
        }
        r.tdb().len() as u64
    });
    record(report, "reconstitute/tdb", ns);
}

fn main() {
    let mut report = Report::new(
        "micro",
        "Per-element operator costs (best-of-N; ns/element unless the case says per stable)",
        &["case", "ns"],
    );
    bench_inserts(&mut report);
    bench_adjust_heavy(&mut report);
    bench_stable_processing(&mut report);
    bench_stable_churn(&mut report);
    bench_batch_discard(&mut report);
    bench_reconstitution(&mut report);
    println!();
    report.note(if quick_mode() {
        "quick mode (LMERGE_BENCH_QUICK): reduced sizes and repeats"
    } else {
        "full mode"
    });
    report.emit();
}
