//! End-to-end benchmark of the nested-synth pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve_large|serve_mixed> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload runs the user's whole path through the library's public
//! API: set-up (fixture, cold synthesis, base, materialization, server
//! spawn), then rounds of a closed-loop synthesis segment (spec → rewriting,
//! cold and warm), an open loop of updates with interleaved reads (submit →
//! visible), and a saturation segment (capacity).  The workloads differ in
//! what they stress; see `perfbench/README.md`.  Outputs are checked
//! against the benchmark's own model.  The last line of standard output is one JSON object; with
//! `--trace 0` it carries the end-to-end metrics, measured with tracing off,
//! and with `--trace 1` the per-layer metrics.

mod gen;
mod layers;
mod oracle;
mod serve;
mod stats;
mod synth;

use gen::{Rng, Stream, StreamKind};
use layers::{ratio, Acc};
use nested_synth::obs::{self, CaptureSink};
use nested_synth::{ViewServer, WorkloadRewriting};
use serve::{OpenLoop, ServeOut, Served};
use stats::{log_log_slope, Samples};
use std::sync::Arc;
use std::time::{Duration, Instant};
use synth::Fixture;

/// One workload: what is synthesized, what is served, and how it is driven.
struct Workload {
    name: &'static str,
    /// The fixture served, and `|S|` of its base.
    served: Fixture,
    size: usize,
    stream: StreamKind,
    /// Open loop: ticks per second and reads per tick.
    rate_per_s: f64,
    reads_per_tick: u32,
}

/// Shares of `--seconds` for the synthesis, open-loop and saturation
/// segments.  They are the same on every workload, so a prover change moves
/// the synthesis metrics alike on all of them.  The synthesis segments also
/// run until [`MIN_COLD`] cold derivations were measured, and the open loop
/// until [`MIN_TIMED_TICKS`] ticks were timed.
const SYNTH_SHARE: f64 = 0.4;
const OPEN_SHARE: f64 = 0.5;
const SAT_SHARE: f64 = 0.1;

/// The synthesis fixtures of every workload: partition with 0, 1 and 2
/// redundant constraints (spec size), and 4 and 8 overlapping queries
/// (cross-spec goal dedup and shared views).  Every workload derives the
/// same mix, so a serving change moves none of the synthesis metrics.
const SYNTH_MIX: &[Fixture] = &[
    Fixture::Partition(0),
    Fixture::Partition(1),
    Fixture::Partition(2),
    Fixture::Overlapping(4),
    Fixture::Overlapping(8),
];

const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "serve_large",
        served: Fixture::Partition(0),
        size: 100_000,
        stream: StreamKind::Toggle,
        rate_per_s: 60.0,
        reads_per_tick: 4,
    },
    Workload {
        name: "serve_mixed",
        served: Fixture::Overlapping(8),
        size: 1_000,
        stream: StreamKind::Mixed {
            max_tuples: 16,
            roundtrip_one_in: 8,
        },
        rate_per_s: 500.0,
        reads_per_tick: 8,
    },
];

/// Cold derivations needed for a p90 with ten samples beyond it.
const MIN_COLD: usize = 100;
/// The gated end-to-end metrics.  The latencies (`synth_*`, `visible_ms.*`,
/// `read_us.*`) and `capacity_per_s` are printed too, but on a shared host
/// the machine's speed drifts by a third over minutes, more than a
/// regression bound may allow; the traced run reports them per layer.
const END_TO_END: [&str; 2] = ["setup_s", "peak_rss_mb"];

/// Timed open-loop ticks per run, at least: a p99 needs 1000 samples.
const MIN_TIMED_TICKS: f64 = 1100.0;
/// Rounds per run; every phase is split evenly across them.
const ROUNDS: usize = 10;
/// Membership probes per named answer in one read.
const READ_PROBES: usize = 16;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Named metric values with units and sample counts.
#[derive(Default)]
struct Report {
    lines: Vec<(String, f64, &'static str, Option<usize>)>,
    missing: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.lines.push((name.to_string(), value, unit, None));
    }

    fn pct(&mut self, name: &str, s: &Samples, p: f64, unit: &'static str) {
        match s.pct(p) {
            Ok(v) => self.lines.push((name.to_string(), v, unit, Some(s.len()))),
            Err(e) => self.missing.push(format!("{name}: {e}")),
        }
    }

    /// A median over rounds of per-round medians (see
    /// [`Samples::round_median`]), once the pooled p50 has enough samples.
    fn p50(&mut self, name: &str, s: &Samples, unit: &'static str) {
        match s.pct(0.5) {
            Ok(_) => self
                .lines
                .push((name.to_string(), s.round_median(), unit, Some(s.len()))),
            Err(e) => self.missing.push(format!("{name}: {e}")),
        }
    }

    /// A registry histogram percentile, scaled from its recorded unit.
    fn hist(
        &mut self,
        name: &str,
        acc: &Acc,
        metric: &str,
        p: f64,
        scale: f64,
        unit: &'static str,
    ) {
        match acc.pct(metric, p) {
            Ok(v) => self.put(name, v * scale, unit),
            Err(e) => self.missing.push(format!("{name}: {e}")),
        }
    }

    /// The JSON metrics object of the lines that `keep` selects.
    fn json(&self, keep: impl Fn(&str) -> bool) -> String {
        let body: Vec<String> = self
            .lines
            .iter()
            .filter(|(n, ..)| keep(n))
            .map(|(n, v, u, _)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// Keep every thread of this process on one malloc arena.  glibc gives each
/// new thread an arena of its own and does not reuse memory freed in one
/// arena for another, so with the server's writer thread beside this one
/// the peak resident set jumped by about 17 MB at a random point in most
/// runs and never in others.  With one arena, `peak_rss_mb` reads what the
/// program holds rather than which arena a free happened to land in.  Must
/// run before any thread is spawned.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn single_malloc_arena() {
    use std::ffi::c_int;
    extern "C" {
        fn mallopt(param: c_int, value: c_int) -> c_int;
    }
    const M_ARENA_MAX: c_int = -8;
    // SAFETY: `mallopt` only sets an allocator parameter, and no other
    // thread exists yet to race with it.
    unsafe {
        mallopt(M_ARENA_MAX, 1);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn single_malloc_arena() {}

/// Peak resident set of this process, in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Fixture, cold synthesis, base, materialization and server spawn: what a
/// deployment pays before its first update.
fn set_up(w: &Workload, seed: u64) -> Result<(Served, WorkloadRewriting), String> {
    let problem = w.served.problem();
    let rw = synth::synthesizer()
        .derive_workload(&problem)
        .map_err(|e| format!("set-up synthesis: {e}"))?;
    let model = gen::base(w.size, &mut Rng::new(seed));
    let (server, writer) = ViewServer::builder()
        .spawn_workload(&rw, &model.instance())
        .map_err(|e| format!("spawn: {e}"))?;
    let served = Served {
        server,
        writer: Some(writer),
        model,
        meanings: w.served.meanings(),
    };
    Ok((served, rw))
}

fn run(w: &Workload, args: &Args) -> Result<Outcome, String> {
    let sink = args.trace.then(|| {
        let s = Arc::new(CaptureSink::new());
        obs::install_sink(s.clone());
        s
    });
    let secs = args.seconds;
    let mut rep = Report::default();
    let mut layer = Report::default();

    // The synthesis order draws from a stream of its own, so how many
    // derivations fit in a round does not change the served inputs.
    let mut rng = Rng::new(args.seed.wrapping_mul(0x9e37_79b9).wrapping_add(1));
    let mut synth_rng = rng.fork();
    let per_round = |share: f64| secs * share / ROUNDS as f64;
    let mut sy = synth::SynthOut::default();

    // set-up; it is repeated in every other round, and `setup_s` is the
    // median of all of them
    let mut setup_s = Samples::new();
    let t = Instant::now();
    let (mut served, rw) = set_up(w, args.seed)?;
    setup_s.push(t.elapsed().as_secs_f64());
    if !args.trace && obs::enabled() {
        return Err("tracing is on in an untraced run (an NRS_OBS_* variable?)".into());
    }
    let mut sout = ServeOut::default();
    served.check_now(&mut sout, "epoch 0");
    if sink.is_some() {
        let problem = w.served.problem();
        let base = served.model.instance();
        let t = Instant::now();
        let views = problem
            .materialize_views(&base)
            .map_err(|e| e.to_string())?;
        layer.put("nrc.materialize_ms", t.elapsed().as_secs_f64() * 1e3, "ms");
        let mut afv = Samples::new();
        for _ in 0..20 {
            let t = Instant::now();
            let answers = rw.answers_from_views(&views).map_err(|e| e.to_string())?;
            afv.push_ms(t.elapsed());
            std::hint::black_box(answers);
        }
        layer.pct("nrc.answers_from_views_ms.p50", &afv, 0.5, "ms");
    }

    // Rounds of a synthesis segment (spec → rewriting), an open-loop segment
    // (submit → visible), a saturation segment (capacity), and every other
    // round a set-up.  Interleaving spreads every metric over the whole run,
    // so a slow stretch of the machine moves all of them a little, not one a
    // lot.  The writer is idle while this thread synthesizes, so the
    // synthesis segments see no serving load.
    let universe = gen::universe(w.size);
    let probes: Vec<u64> = (0..READ_PROBES).map(|_| rng.below(universe)).collect();
    let mut stream = Stream::new(w.stream, w.size, &mut rng);
    let (mut open_acc, mut serve_acc) = (Acc::default(), Acc::default());
    let reg = || obs::global().snapshot();
    for round in 0..ROUNDS {
        synth::run(
            SYNTH_MIX,
            MIN_COLD.div_ceil(ROUNDS),
            Duration::from_secs_f64(per_round(SYNTH_SHARE)),
            &mut synth_rng,
            sink.as_ref(),
            &mut sy,
        );
        if let Some(s) = &sink {
            s.clear();
            obs::set_detailed(true);
        }
        let open = OpenLoop {
            rate_per_s: w.rate_per_s,
            secs: per_round(OPEN_SHARE).max(MIN_TIMED_TICKS / w.rate_per_s / ROUNDS as f64),
            reads_per_tick: w.reads_per_tick,
        };
        let before = reg();
        served.open_loop(&mut stream, open, &probes, &mut sout);
        let mid = reg();
        obs::set_detailed(false);
        served.saturate(&mut stream, per_round(SAT_SHARE), &mut sout);
        sout.visible_ms.end_round();
        sout.read_us.end_round();
        if let Some(s) = &sink {
            open_acc.add(&before, &mid);
            serve_acc.add(&before, &reg());
            s.clear();
        }
        if round % 2 == 1 {
            let t = Instant::now();
            let (mut extra, _) = set_up(w, args.seed)?;
            setup_s.push(t.elapsed().as_secs_f64());
            extra.stop(&mut sout);
        }
    }
    served.stop(&mut sout);
    if let Some(s) = &sink {
        synth::trace_overhead(SYNTH_MIX[0], s, &mut sy.layers);
    }
    if !args.trace && obs::enabled() {
        return Err("tracing switched on during the untraced run".into());
    }

    rep.p50("synth_cold_ms.p50", &sy.cold_ms, "ms");
    rep.pct("synth_cold_ms.p90", &sy.cold_ms, 0.9, "ms");
    rep.p50("synth_warm_ms.p50", &sy.warm_ms, "ms");
    rep.pct("synth_warm_ms.p90", &sy.warm_ms, 0.9, "ms");
    rep.p50("visible_ms.p50", &sout.visible_ms, "ms");
    match sout.visible_ms.round_pct(0.9) {
        Ok(v) => rep.lines.push((
            "visible_ms.p90".into(),
            v,
            "ms",
            Some(sout.visible_ms.len()),
        )),
        Err(e) => rep.missing.push(format!("visible_ms.p90: {e}")),
    }
    rep.pct("visible_ms.p99", &sout.visible_ms, 0.99, "ms");
    let cap = &sout.capacity_per_s;
    rep.lines.push((
        "capacity_per_s".into(),
        cap.median(),
        "1/s",
        Some(cap.len()),
    ));
    rep.p50("read_us.p50", &sout.read_us, "us");
    rep.pct("read_us.p99", &sout.read_us, 0.99, "us");
    rep.lines
        .push(("setup_s".into(), setup_s.median(), "s", Some(setup_s.len())));
    rep.put("peak_rss_mb", peak_rss_mb(), "MB");

    let attempted = sy.attempted + sout.attempted;
    let failed = sy.failed + sout.failed;
    let mut errors = sy.errors.clone();
    errors.extend(sout.errors.iter().cloned());

    if sink.is_some() {
        let (o, s) = (&open_acc, &serve_acc);
        let l = &mut layer;
        // end-to-end readings too unsteady run to run for a regression bound
        for line in rep
            .lines
            .iter()
            .filter(|l| !END_TO_END.contains(&l.0.as_str()))
        {
            l.lines.push(line.clone());
        }
        // serve
        l.hist(
            "serve.flush_ms.p50",
            o,
            "serve.flush_seconds",
            0.5,
            1e-6,
            "ms",
        );
        l.hist(
            "serve.flush_ms.p99",
            o,
            "serve.flush_seconds",
            0.99,
            1e-6,
            "ms",
        );
        l.hist(
            "serve.maintain_ms.p50",
            o,
            "serve.flush.maintain_seconds",
            0.5,
            1e-6,
            "ms",
        );
        l.hist(
            "serve.publish_us.p50",
            o,
            "serve.flush.publish_seconds",
            0.5,
            1e-3,
            "us",
        );
        l.hist(
            "serve.drain_us.p50",
            o,
            "serve.flush.drain_seconds",
            0.5,
            1e-3,
            "us",
        );
        l.hist(
            "serve.coalesce_us.p50",
            o,
            "serve.flush.coalesce_seconds",
            0.5,
            1e-3,
            "us",
        );
        let stages: f64 = [
            "serve.flush.drain_seconds",
            "serve.flush.coalesce_seconds",
            "serve.flush.maintain_seconds",
            "serve.flush.publish_seconds",
        ]
        .iter()
        .map(|m| o.sum(m))
        .sum();
        let flush = o.sum("serve.flush_seconds");
        l.put(
            "serve.unattributed_ratio",
            ratio(flush - stages, flush),
            "ratio",
        );
        l.pct("serve.submit_us.p50", &sout.submit_us, 0.5, "us");
        l.pct("serve.submit_us.p99", &sout.submit_us, 0.99, "us");
        l.hist(
            "serve.queue_wait_ms.p50",
            o,
            "serve.queue_wait_seconds",
            0.5,
            1e-6,
            "ms",
        );
        l.hist(
            "serve.queue_wait_ms.p99",
            o,
            "serve.queue_wait_seconds",
            0.99,
            1e-6,
            "ms",
        );
        l.hist(
            "serve.batches_per_flush.p50",
            o,
            "serve.batches_per_flush",
            0.5,
            1.0,
            "count",
        );
        l.hist(
            "serve.tuples_per_flush.p50",
            o,
            "serve.batch_tuples",
            0.5,
            1.0,
            "count",
        );
        for (name, metric) in [
            ("serve.backpressure_total", "serve.backpressure_total"),
            ("serve.requeued_total", "serve.requeued_batches_total"),
            ("serve.dropped_total", "serve.dropped_batches_total"),
            ("serve.flush_errors_total", "serve.flush_errors_total"),
        ] {
            l.put(name, s.counter(metric) as f64, "count");
        }
        // ivm, in the serving open loop
        l.hist("ivm.apply_ms.p50", o, "ivm.apply_seconds", 0.5, 1e-6, "ms");
        let applies = o.counter("ivm.applies_total") as f64;
        l.put(
            "ivm.touched_members_per_apply",
            ratio(o.counter("ivm.touched_members_total") as f64, applies),
            "count",
        );
        l.put(
            "ivm.views_shared_per_apply",
            ratio(
                o.counter("ivm.views_shared_total") as f64,
                o.counter("ivm.workload_applies_total") as f64,
            ),
            "count",
        );
        for kind in OP_KINDS {
            let metric = format!("ivm.op.{kind}_seconds");
            l.hist(
                &format!("ivm.op.{kind}_us.p50"),
                o,
                &metric,
                0.5,
                1e-3,
                "us",
            );
        }
        // ivm scaling probe on this workload's update stream
        let rows = layers::probe(&rw, w.stream, args.seed)?;
        for r in &rows {
            l.put(&format!("ivm.bare_apply_us.p50.n{}", r.n), r.bare_us, "us");
            l.put(&format!("ivm.held_apply_us.p50.n{}", r.n), r.held_us, "us");
            l.put(
                &format!("ivm.coalesce_exact_us.p50.n{}", r.n),
                r.coalesce_us,
                "us",
            );
        }
        let slope = |f: fn(&layers::ProbeRow) -> f64| {
            log_log_slope(&rows.iter().map(|r| (r.n as f64, f(r))).collect::<Vec<_>>())
        };
        l.put("ivm.bare_apply_slope", slope(|r| r.bare_us), "ratio");
        l.put("ivm.held_apply_slope", slope(|r| r.held_us), "ratio");
        // prover and synthesis, over the cold (and warm) derivations
        let sl = &sy.layers;
        let (c, wm) = (&sl.cold, &sl.warm);
        let colds = sy.cold_ms.len() as f64;
        l.put(
            "prover.visited_per_derive",
            ratio(c.counter("prover.visited_total") as f64, colds),
            "count",
        );
        let share = |acc: &Acc, hit: &str, other: &str| {
            let h = acc.counter(hit) as f64;
            ratio(h, h + acc.counter(other) as f64)
        };
        l.put(
            "prover.memo_hit_ratio",
            share(c, "prover.memo_hits_total", "prover.memo_misses_total"),
            "ratio",
        );
        l.put(
            "prover.rewrite_cache_hit_ratio",
            share(
                c,
                "prover.rewrite_cache_hits_total",
                "prover.rewrite_cache_misses_total",
            ),
            "ratio",
        );
        l.put(
            "prover.memo_lock_contended_ratio",
            ratio(
                c.counter("prover.memo_lock_contended_total") as f64,
                c.counter("prover.memo_lock_acquisitions_total") as f64,
            ),
            "ratio",
        );
        l.hist(
            "prover.goal_ms.p50",
            c,
            "prover.goal_seconds",
            0.5,
            1e-6,
            "ms",
        );
        l.hist(
            "prover.proof_size.p50",
            c,
            "prover.proof_size",
            0.5,
            1.0,
            "count",
        );
        l.put(
            "prover.goal_cache_hit_ratio",
            ratio(
                wm.counter("prover.goal_cache_hits_total") as f64,
                wm.counter("prover.goals_total") as f64,
            ),
            "ratio",
        );
        l.pct("synth.spec_build_ms.p50", &sl.spec_build_ms, 0.5, "ms");
        l.pct("synth.plan_ms.p50", &sl.plan_ms, 0.5, "ms");
        l.pct("synth.prove_batch_ms.p50", &sl.prove_batch_ms, 0.5, "ms");
        l.pct("synth.assemble_ms.p50", &sl.assemble_ms, 0.5, "ms");
        l.put(
            "synth.goals_recorded",
            ratio(sl.goals_recorded as f64, colds),
            "count",
        );
        l.put(
            "synth.goals_dedup_ratio",
            ratio(sl.goals_dedup as f64, sl.goals_recorded as f64),
            "ratio",
        );
        l.pct("nrc.simplify_us.p50", &sl.simplify_us, 0.5, "us");
        l.pct("nrc.compile_us.p50", &sl.compile_us, 0.5, "us");
        l.put(
            "nrc.ast_shrink_ratio",
            ratio(sl.simplified_ast as f64, sl.raw_ast as f64),
            "ratio",
        );
        l.put(
            "obs.trace_overhead_ratio",
            ratio(sl.traced_ms.median(), sl.untraced_ms.median()),
            "ratio",
        );
        l.pct("bench.generator_late_ms.p99", &sout.late_ms, 0.99, "ms");
        l.put(
            "bench.failed_ratio",
            ratio(failed as f64, attempted as f64),
            "ratio",
        );
        l.put(
            "bench.unsampled_ratio",
            ratio(
                sout.inferred as f64,
                sout.visible_ms.len() as f64 + sout.inferred as f64,
            ),
            "ratio",
        );
    }
    Ok(Outcome {
        end_to_end: rep,
        layer,
        attempted,
        failed,
        errors,
    })
}

struct Outcome {
    end_to_end: Report,
    layer: Report,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

/// Operator kinds whose per-visit delta timers the served fixtures exercise.
const OP_KINDS: [&str; 3] = ["var", "union", "for-union"];

fn main() {
    single_malloc_arena();
    for (k, _) in std::env::vars_os() {
        let k = k.to_string_lossy().into_owned();
        if k.starts_with("NRS_OBS") || k == "NRS_PROVER_TRACE" {
            std::env::remove_var(k);
        }
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(w) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "perfbench: unknown workload {} (have {names:?})",
            args.workload
        );
        std::process::exit(2);
    };
    let out = match run(w, &args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", w.name);
            std::process::exit(1);
        }
    };
    let (attempted, failed, errors) = (out.attempted, out.failed, &out.errors);
    for (name, value, unit, n) in out.end_to_end.lines.iter().chain(&out.layer.lines) {
        match n {
            Some(n) => println!("{name} = {value:.4} {unit} (n={n})"),
            None => println!("{name} = {value:.4} {unit}"),
        }
    }
    let report = if args.trace {
        &out.layer
    } else {
        &out.end_to_end
    };
    println!(
        "failed_ratio = {} ({failed} of {attempted} operations)",
        ratio(failed as f64, attempted as f64)
    );
    for e in errors.iter().take(20) {
        println!("error: {e}");
    }
    if !report.missing.is_empty() || report.lines.iter().any(|l| !l.1.is_finite()) {
        for m in &report.missing {
            eprintln!("perfbench: missing {m}");
        }
        eprintln!("perfbench: some metrics could not be measured");
        std::process::exit(1);
    }
    let correct = failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report.json(|n| args.trace || END_TO_END.contains(&n))
    );
    if !correct {
        std::process::exit(1);
    }
}
