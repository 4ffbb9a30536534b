//! Spec → rewriting: the fixtures, and the closed-loop synthesis segments
//! that derive each one cold (a fresh `Synthesizer`) and warm (again, on the
//! same one), checking every rewriting against the naive evaluator.

use crate::gen::{self, Rng};
use crate::layers::{span_ms, Acc};
use crate::oracle::Meaning;
use crate::stats::Samples;
use nested_synth::delta0::Formula;
use nested_synth::nrc::{opt, CompiledQuery};
use nested_synth::obs::{CaptureSink, MetricsSnapshot};
use nested_synth::prover::ProverConfig;
use nested_synth::synthesis::overlapping_workload_problem;
use nested_synth::{Name, Synthesizer, WorkloadProblem, WorkloadRewriting};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A rewriting problem, always built as a workload (one query is a
/// one-entry workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fixture {
    /// The partition problem (`Q = S` over `V1 = S ∩ F`, `V2 = S \ F`) with
    /// this many redundant constraints inflating the spec.
    Partition(usize),
    /// `overlapping_workload_problem(n)`: n queries over the same views.
    Overlapping(usize),
}

impl Fixture {
    pub fn problem(self) -> WorkloadProblem {
        match self {
            Fixture::Partition(copies) => {
                let mut p = overlapping_workload_problem(1);
                p.queries[0].name = Name::new("Q");
                for i in 0..copies {
                    let x = format!("x{i}");
                    p.constraints.push(Formula::forall(
                        x.as_str(),
                        "S",
                        Formula::eq_ur(x.as_str(), x.as_str()),
                    ));
                }
                p
            }
            Fixture::Overlapping(n) => overlapping_workload_problem(n),
        }
    }

    /// What each named answer means, in workload order.
    pub fn meanings(self) -> Vec<(Name, Meaning)> {
        match self {
            Fixture::Partition(_) => vec![(Name::new("Q"), Meaning::S)],
            Fixture::Overlapping(n) => (0..n)
                .map(|i| {
                    let m = match i % 4 {
                        1 => Meaning::SAndF,
                        2 => Meaning::SMinusF,
                        _ => Meaning::S,
                    };
                    (Name::new(format!("Q{i}")), m)
                })
                .collect(),
        }
    }
}

/// Cold and warm derivation latency plus the per-layer readings of a traced
/// run.
#[derive(Debug, Default)]
pub struct SynthOut {
    pub cold_ms: Samples,
    pub warm_ms: Samples,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub layers: SynthLayers,
}

/// Synthesis-layer readings, filled only when tracing.
#[derive(Debug, Default)]
pub struct SynthLayers {
    /// Registry deltas over the cold derivations.
    pub cold: Acc,
    /// Registry deltas over the warm derivations.
    pub warm: Acc,
    pub spec_build_ms: Samples,
    pub plan_ms: Samples,
    pub prove_batch_ms: Samples,
    pub assemble_ms: Samples,
    pub simplify_us: Samples,
    pub compile_us: Samples,
    pub goals_recorded: u64,
    pub goals_dedup: u64,
    pub raw_ast: u64,
    pub simplified_ast: u64,
    pub traced_ms: Samples,
    pub untraced_ms: Samples,
}

/// A fresh synthesizer with the default budgets but sequential branch
/// search.  The default dispatches the first risky choice point of a goal
/// onto one thread per candidate whenever the machine has two CPUs, so a
/// derivation's time would depend on how the host schedules a race; the
/// sequential search does the same work on every run and keeps the
/// benchmark at one busy thread beside the server's writer.
pub fn synthesizer() -> Synthesizer {
    Synthesizer::new().prover(ProverConfig {
        parallel_branches: false,
        ..ProverConfig::default()
    })
}

/// Instances per derived rewriting on which it is checked against the
/// naive evaluator.
const VERIFY_INSTANCES: usize = 2;

fn registry() -> MetricsSnapshot {
    nested_synth::obs::global().snapshot()
}

/// Derive the fixtures in seeded order, whole passes at a time, until both
/// `budget` has passed and `cold` more cold derivations were measured.  Each
/// pass closes a round of `cold_ms` and `warm_ms`, so their round median is
/// the median over passes of the middle fixture's time.
pub fn run(
    fixtures: &[Fixture],
    cold: usize,
    budget: Duration,
    rng: &mut Rng,
    sink: Option<&Arc<CaptureSink>>,
    out: &mut SynthOut,
) {
    let start = Instant::now();
    let target = out.cold_ms.len() + cold;
    while out.cold_ms.len() < target || start.elapsed() < budget {
        let mut order = fixtures.to_vec();
        rng.shuffle(&mut order);
        for f in order {
            derive_one(f, rng, sink, out);
        }
        out.cold_ms.end_round();
        out.warm_ms.end_round();
    }
}

fn derive_one(f: Fixture, rng: &mut Rng, sink: Option<&Arc<CaptureSink>>, out: &mut SynthOut) {
    let problem = f.problem();
    let synth = synthesizer();
    let before = sink.map(|s| {
        s.clear();
        registry()
    });
    let t = Instant::now();
    let cold = synth.derive_workload(&problem);
    let cold_time = t.elapsed();
    out.attempted += 1;
    let rw = match cold {
        Ok(rw) => rw,
        Err(e) => {
            out.failed += 1;
            out.errors
                .push(format!("{f:?}: cold derivation failed: {e}"));
            return;
        }
    };
    out.cold_ms.push_ms(cold_time);
    let mid = sink.map(|s| {
        let l = &mut out.layers;
        let events = s.events();
        l.plan_ms.extend(span_ms(&events, "synth.workload.plan"));
        l.prove_batch_ms
            .extend(span_ms(&events, "synth.workload.prove_batch"));
        l.assemble_ms
            .extend(span_ms(&events, "synth.workload.assemble"));
        s.clear();
        let now = registry();
        l.cold
            .add(before.as_ref().expect("taken when tracing"), &now);
        now
    });
    let t = Instant::now();
    let warm = synth.derive_workload(&problem);
    let warm_time = t.elapsed();
    out.attempted += 1;
    match warm {
        Ok(w) if same_rewriting(&w, &rw) => out.warm_ms.push_ms(warm_time),
        Ok(_) => {
            out.failed += 1;
            out.errors
                .push(format!("{f:?}: warm rewriting differs from cold"));
        }
        Err(e) => {
            out.failed += 1;
            out.errors
                .push(format!("{f:?}: warm derivation failed: {e}"));
        }
    }
    if let (Some(mid), Some(sink)) = (mid, sink) {
        sink.clear();
        out.layers.warm.add(&mid, &registry());
        layer_extras(&problem, &rw, &mut out.layers);
    }
    for _ in 0..VERIFY_INSTANCES {
        let base = gen::base(8, rng).instance();
        out.attempted += 1;
        match rw.verify_on_base(&base) {
            Ok(true) => {}
            Ok(false) => {
                out.failed += 1;
                out.errors.push(format!(
                    "{f:?}: rewriting disagrees with the naive evaluator"
                ));
            }
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("{f:?}: verification failed: {e}"));
            }
        }
    }
}

fn same_rewriting(a: &WorkloadRewriting, b: &WorkloadRewriting) -> bool {
    a.queries().len() == b.queries().len()
        && a.queries()
            .iter()
            .zip(b.queries())
            .all(|((na, da), (nb, db))| na == nb && da.expr() == db.expr())
}

/// Per-layer timings taken from outside the library: spec construction and
/// the nrc simplifier and compiler on each derived definition.
fn layer_extras(problem: &WorkloadProblem, rw: &WorkloadRewriting, l: &mut SynthLayers) {
    let t = Instant::now();
    let spec = problem.workload();
    l.spec_build_ms.push_ms(t.elapsed());
    std::hint::black_box(spec.is_ok());
    let report = rw.report();
    l.goals_recorded += report.goals_recorded as u64;
    l.goals_dedup += report.shared_goals_dedup as u64;
    for (_, def) in rw.queries() {
        l.raw_ast += def.report.metrics.raw_ast_size as u64;
        l.simplified_ast += def.report.metrics.simplified_ast_size as u64;
        let t = Instant::now();
        let simplified = opt::simplify(def.expr());
        l.simplify_us.push_us(t.elapsed());
        let t = Instant::now();
        let compiled = CompiledQuery::compile(&simplified);
        l.compile_us.push_us(t.elapsed());
        std::hint::black_box(compiled);
    }
}

/// Warm derivations of one fixture with the sink removed and installed, in
/// alternation: the cost of tracing on the path with the most spans.
pub fn trace_overhead(f: Fixture, sink: &Arc<CaptureSink>, l: &mut SynthLayers) {
    let problem = f.problem();
    let synth = synthesizer();
    let _ = synth.derive_workload(&problem);
    for _ in 0..20 {
        nested_synth::obs::clear_sink();
        let t = Instant::now();
        let _ = synth.derive_workload(&problem);
        l.untraced_ms.push_ms(t.elapsed());
        nested_synth::obs::install_sink(sink.clone());
        let t = Instant::now();
        let _ = synth.derive_workload(&problem);
        l.traced_ms.push_ms(t.elapsed());
        sink.clear();
    }
}
