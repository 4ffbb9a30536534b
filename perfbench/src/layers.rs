//! Per-layer readings for the traced run: deltas of the program's own
//! metrics registry between two points, span durations from a capture
//! sink, and the maintenance scaling probe.

use crate::gen::{self, Rng, Stream, StreamKind};
use crate::stats::{enough_beyond, Samples};
use nested_synth::obs::{Event, EventKind, HistogramSnapshot, MetricValue, MetricsSnapshot};
use nested_synth::{MaintainedWorkload, UpdateBatch, WorkloadRewriting};
use std::collections::BTreeMap;
use std::time::Instant;

/// Counter and histogram deltas summed over one or more windows.
#[derive(Debug, Default)]
pub struct Acc {
    counters: BTreeMap<String, u64>,
    hists: BTreeMap<String, HistogramSnapshot>,
}

impl Acc {
    /// Add the registry's movement between `before` and `after`.
    pub fn add(&mut self, before: &MetricsSnapshot, after: &MetricsSnapshot) {
        for m in &after.metrics {
            match &m.value {
                MetricValue::Counter(v) => {
                    let d = v - before.counter(&m.name).unwrap_or(0);
                    *self.counters.entry(m.name.clone()).or_insert(0) += d;
                }
                MetricValue::Histogram(h) => {
                    let d = hist_delta(before.histogram(&m.name), h);
                    match self.hists.get_mut(&m.name) {
                        Some(acc) => acc.merge(&d),
                        None => {
                            self.hists.insert(m.name.clone(), d);
                        }
                    }
                }
                MetricValue::Gauge(_) => {}
            }
        }
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Percentile `p` of histogram `name`, in its recorded unit (ns for
    /// timers), under the same thin-tail refusal as driver-side samples.
    pub fn pct(&self, name: &str, p: f64) -> Result<f64, String> {
        let h = self
            .hists
            .get(name)
            .ok_or_else(|| format!("histogram {name} recorded nothing"))?;
        enough_beyond(h.count, p).map_err(|e| format!("{name}: {e}"))?;
        Ok(h.quantile(p) as f64)
    }

    /// Sum of the samples of histogram `name`.
    pub fn sum(&self, name: &str) -> f64 {
        self.hists.get(name).map_or(0.0, |h| h.sum as f64)
    }
}

fn hist_delta(before: Option<&HistogramSnapshot>, after: &HistogramSnapshot) -> HistogramSnapshot {
    let Some(before) = before else {
        return after.clone();
    };
    let old: BTreeMap<u64, u64> = before.buckets.iter().copied().collect();
    let buckets = after
        .buckets
        .iter()
        .map(|&(bound, c)| (bound, c - old.get(&bound).copied().unwrap_or(0)))
        .filter(|&(_, c)| c > 0)
        .collect();
    HistogramSnapshot {
        unit: after.unit,
        count: after.count - before.count,
        sum: after.sum.wrapping_sub(before.sum),
        max: after.max,
        buckets,
    }
}

/// Durations, in ms, of every closed span named `name`.
pub fn span_ms<'a>(events: &'a [Event], name: &'a str) -> impl Iterator<Item = f64> + 'a {
    events
        .iter()
        .filter(move |e| e.kind == EventKind::SpanEnd && e.name == name)
        .filter_map(|e| e.elapsed_ns)
        .map(|ns| ns as f64 / 1e6)
}

/// `a / b`, or 0 when nothing was attempted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// One size of the scaling probe: median apply cost with the engine as sole
/// owner of its state, with a snapshot's clones held across the apply, and
/// median cost of coalescing a 64-batch queue window.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRow {
    pub n: usize,
    pub bare_us: f64,
    pub held_us: f64,
    pub coalesce_us: f64,
}

pub const PROBE_SIZES: [usize; 3] = [1_000, 10_000, 100_000];

/// Time `MaintainedWorkload::apply` bare and held, and
/// `UpdateBatch::coalesce_exact`, on the workload's own update stream at
/// each of [`PROBE_SIZES`].
pub fn probe(rw: &WorkloadRewriting, kind: StreamKind, seed: u64) -> Result<Vec<ProbeRow>, String> {
    let mut rows = Vec::new();
    for n in PROBE_SIZES {
        let mut rng = Rng::new(seed ^ n as u64);
        let mut model = gen::base(n, &mut rng);
        let mut w = MaintainedWorkload::new(rw, &model.instance()).map_err(|e| e.to_string())?;
        let mut stream = Stream::new(kind, n, &mut rng);
        let mut apply =
            |w: &mut MaintainedWorkload, hold: bool, samples: &mut Samples, want: usize| {
                while samples.len() < want {
                    for u in stream.tick(&mut model) {
                        let held = hold.then(|| {
                            let answers: Vec<_> = w
                                .answers()
                                .into_iter()
                                .map(|(n, v)| (n, v.clone()))
                                .collect();
                            (
                                w.base().clone(),
                                w.view_instance().clone(),
                                w.answer_instance().clone(),
                                answers,
                            )
                        });
                        let batch = u.to_batch();
                        let t = Instant::now();
                        w.apply(&batch).map_err(|e| e.to_string())?;
                        samples.push_us(t.elapsed());
                        drop(held);
                    }
                }
                Ok::<(), String>(())
            };
        let mut warmup = Samples::new();
        apply(&mut w, false, &mut warmup, 10)?;
        let mut bare = Samples::new();
        apply(&mut w, false, &mut bare, 200)?;
        let mut held = Samples::new();
        apply(&mut w, true, &mut held, 40)?;
        let mut ahead = model.clone();
        let window: Vec<UpdateBatch> = (0..64)
            .flat_map(|_| stream.tick(&mut ahead))
            .map(|u| u.to_batch())
            .collect();
        let mut coalesce = Samples::new();
        for _ in 0..40 {
            let t = Instant::now();
            let c =
                UpdateBatch::coalesce_exact(window.iter(), w.base()).map_err(|e| e.to_string())?;
            coalesce.push_us(t.elapsed());
            std::hint::black_box(c);
        }
        rows.push(ProbeRow {
            n,
            bare_us: bare.pct(0.5)?,
            held_us: held.pct(0.5)?,
            coalesce_us: coalesce.pct(0.5)?,
        });
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nested_synth::obs::Registry;

    #[test]
    fn deltas_cover_only_the_window() {
        let r = Registry::new();
        let c = r.counter("c");
        let h = r.timer("h");
        c.add(5);
        h.record(1_000);
        let before = r.snapshot();
        c.add(3);
        for v in [2_000, 2_000, 3_000] {
            h.record(v);
        }
        let mut acc = Acc::default();
        acc.add(&before, &r.snapshot());
        assert_eq!(acc.counter("c"), 3);
        assert_eq!(acc.sum("h"), 7_000.0);
        assert!(acc.pct("h", 0.5).is_err(), "3 samples: refused");
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
