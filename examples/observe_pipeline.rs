//! One observability surface over the whole pipeline: synthesis, the
//! incremental maintenance engine and the serving layer all record into
//! the same `nrs-obs` registry, so a single snapshot reports prover goal
//! counts, per-flush stage latencies and queue behaviour together.
//!
//! The example derives the partition rewriting (prover + synthesis
//! metrics), serves it through a batching writer thread (IVM + serve
//! metrics), then prints:
//!
//! 1. a human-readable digest of the key counters and latency quantiles,
//! 2. the full snapshot as JSON,
//! 3. the Prometheus text exposition (`ViewServer::metrics_text`) a
//!    `/metrics` endpoint would serve.
//!
//! Structured span traces are available too: pass a path as the third
//! argument (or set `NRS_OBS_JSON=<path>`) to write every span and event
//! as JSON lines; set `NRS_PROVER_TRACE=1` for a human-readable span feed
//! on stderr instead.
//!
//! Run with `cargo run --release --example observe_pipeline [size]
//! [updates] [span-jsonl-path]` (defaults: 500 base tuples, 64 updates,
//! no span file).

use nested_synth::obs;
use nested_synth::serve::{ServerConfig, ViewServer};
use nested_synth::synthesis::views::{partition_instance, partition_problem};
use nested_synth::synthesis::{SynthesisConfig, UpdateBatch};
use nested_synth::value::Value;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let mut args = std::env::args().skip(1);
    let size: usize = args.next().and_then(|a| a.parse().ok()).unwrap_or(500);
    let updates: u64 = args.next().and_then(|a| a.parse().ok()).unwrap_or(64);
    if let Some(path) = args.next() {
        let sink =
            obs::JsonLinesSink::to_file(std::path::Path::new(&path)).expect("span sink file");
        obs::install_sink(Arc::new(sink));
        println!("writing span trace to {path}");
    }

    // Synthesis: every prover goal, cache hit and proof size lands in the
    // registry (and in the structured per-goal SynthesisReport.metrics).
    let problem = partition_problem();
    let rewriting = problem
        .derive_workload(&SynthesisConfig::default())
        .expect("the partition views determine the query");
    let m = &rewriting.queries()[0].1.report.metrics;
    println!(
        "synthesized: {} goals, memo hit rate {:.0}%, AST {} -> {} nodes",
        m.per_goal.len(),
        100.0 * m.memo_hit_rate(),
        m.raw_ast_size,
        m.simplified_ast_size,
    );

    // Serving: run a pipelined server with a writer thread so the queue,
    // batch and flush-stage instrumentation all see real traffic.
    let base = partition_instance(size, 42);
    let server = Arc::new(
        ViewServer::builder()
            .config(ServerConfig {
                batch_window: Duration::from_micros(200),
                // small flushes so the batch/stage histograms get a
                // distribution, not a single point
                max_batch: 8,
                ..ServerConfig::default()
            })
            .serve_workload(&rewriting, &base)
            .expect("server"),
    );
    let writer = server.start();
    for i in 0..updates {
        // fresh, non-cancelling tuples: every batch survives coalescing
        // and actually drives the maintenance engine
        let mut batch = UpdateBatch::new();
        if i % 2 == 0 {
            batch.insert("S", Value::atom(10_000 + i));
        } else {
            batch.insert("F", Value::atom(10_000 + i - 1));
        }
        server.submit(&batch).expect("submit");
    }
    let stats = writer.stop();
    assert_eq!(stats.batches, updates, "every batch flushed");
    assert_eq!(stats.dropped_batches, 0, "nothing dropped on a clean run");
    assert!(server.cross_check(&rewriting).expect("oracle"));

    // One snapshot, the whole pipeline.
    let snap = server.metrics_snapshot();
    println!("\n-- digest ------------------------------------------------");
    for counter in [
        "prover.goals_total",
        "prover.goal_cache_hits_total",
        "synth.goals_proved_total",
        "ivm.applies_total",
        "ivm.touched_members_total",
        "serve.submits_total",
        "serve.flushes_total",
        "serve.dropped_batches_total",
    ] {
        println!("  {counter:<32} {}", snap.counter(counter).unwrap_or(0));
    }
    for timer in ["serve.queue_wait_seconds", "serve.flush_seconds"] {
        if let Some(h) = snap.histogram(timer) {
            println!(
                "  {timer:<32} p50={:?} p99={:?} max={:?} (n={})",
                Duration::from_nanos(h.quantile(0.5)),
                Duration::from_nanos(h.quantile(0.99)),
                Duration::from_nanos(h.max),
                h.count,
            );
        }
    }
    println!(
        "  {:<32} {}",
        "serve.epoch",
        snap.gauge("serve.epoch").unwrap_or(0)
    );

    println!("\n-- snapshot json -----------------------------------------");
    println!("{}", snap.to_json());

    println!("\n-- prometheus exposition ---------------------------------");
    print!("{}", server.metrics_text());
}
