//! The serving phases: an open loop of updates on a fixed schedule with
//! interleaved reads, then a saturation phase of blocking submits.
//!
//! Visibility is found from outside: the driver polls `snapshot()` and
//! decides which submitted batches the published base provably reflects
//! (see [`Tracker`]).  Latency runs from each batch's *scheduled* send time,
//! so a stall that delays later sends is charged to them too.

use crate::gen::{Op, Rel, Stream, Update};
use crate::oracle::{check_answers, check_probes, Meaning, Model};
use crate::stats::Samples;
use nested_synth::{Name, Snapshot, Value, ViewServer, WriterHandle};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A batch counts as failed when it becomes visible later than this after
/// its scheduled send time.  Far above any healthy latency: only stalls count.
pub const VISIBLE_LIMIT: Duration = Duration::from_secs(1);

/// How long a saturation segment may take to drain before it counts as a
/// stall.
const SATURATION_LIMIT: Duration = Duration::from_secs(10);

/// Untimed ticks at the start of each open-loop segment.
const WARMUP_TICKS: u64 = 5;

/// Pause between snapshot polls while batches are in flight.
const POLL_US: u64 = 20;

/// A fixed-rate schedule: tick `i` is due at `t0 + i / rate`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    t0: Instant,
    period: Duration,
}

impl Schedule {
    pub fn new(t0: Instant, rate_per_s: f64) -> Schedule {
        Schedule {
            t0,
            period: Duration::from_secs_f64(1.0 / rate_per_s),
        }
    }

    pub fn due(&self, tick: u64) -> Instant {
        self.t0 + self.period.mul_f64(tick as f64)
    }
}

struct InFlight {
    due: Instant,
    ops: Vec<Op>,
    timed: bool,
}

/// Submitted batches not yet seen in a published snapshot, oldest first.
///
/// Flushes drain the queue in order, so the batches a snapshot includes are
/// always a prefix of the submitted ones.  A batch is *detectable* while
/// one of its tuples is touched by no other pending batch: that tuple's
/// membership in the published base then flips exactly when the batch is
/// published.  The newest detectable batch a snapshot reflects confirms it
/// and every older one.  Batches without such a tuple (a round trip and its
/// inverse) are confirmed by a later batch and give no latency sample.
#[derive(Default)]
pub struct Tracker {
    q: VecDeque<InFlight>,
    touches: HashMap<(Rel, u64), u32>,
    /// Visible latency of each timed, detectable batch, from its due time.
    pub visible_ms: Samples,
    /// Batches confirmed only through a later batch.
    pub inferred: u64,
    /// Batches confirmed later than [`VISIBLE_LIMIT`] after their due time.
    pub overdue: u64,
}

impl Tracker {
    pub fn pending(&self) -> usize {
        self.q.len()
    }

    /// Track a submitted batch; only a `timed` one gives a latency sample.
    pub fn push(&mut self, due: Instant, u: &Update, timed: bool) {
        for op in &u.ops {
            *self.touches.entry((op.rel, op.x)).or_insert(0) += 1;
        }
        self.q.push_back(InFlight {
            due,
            ops: u.ops.clone(),
            timed,
        });
    }

    fn probe(&self, f: &InFlight) -> Option<Op> {
        f.ops
            .iter()
            .find(|op| self.touches[&(op.rel, op.x)] == 1)
            .copied()
    }

    /// Observe a published base, seen at `now`, whose membership test is
    /// `reflects`; confirm every batch it provably includes.  Returns how
    /// many were confirmed.
    pub fn observe(&mut self, now: Instant, reflects: impl Fn(Rel, u64) -> bool) -> usize {
        let newest = (0..self.q.len()).rev().find(|&pos| {
            self.probe(&self.q[pos])
                .is_some_and(|op| reflects(op.rel, op.x) == op.insert)
        });
        let Some(newest) = newest else { return 0 };
        let detectable: Vec<bool> = (0..=newest)
            .map(|pos| self.probe(&self.q[pos]).is_some())
            .collect();
        for seen in detectable {
            let f = self.q.pop_front().expect("confirmed batch is pending");
            for op in &f.ops {
                let key = (op.rel, op.x);
                let c = self.touches.get_mut(&key).expect("touch counted");
                *c -= 1;
                if *c == 0 {
                    self.touches.remove(&key);
                }
            }
            let latency = now.saturating_duration_since(f.due);
            if latency > VISIBLE_LIMIT {
                self.overdue += 1;
            }
            if !seen {
                self.inferred += 1;
            } else if f.timed {
                self.visible_ms.push_ms(latency);
            }
        }
        newest + 1
    }
}

/// Open-loop settings.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    pub rate_per_s: f64,
    pub secs: f64,
    pub reads_per_tick: u32,
}

/// What the serving phases measured.
#[derive(Debug, Default)]
pub struct ServeOut {
    pub visible_ms: Samples,
    pub read_us: Samples,
    pub submit_us: Samples,
    pub late_ms: Samples,
    /// Capacity of each saturation segment.
    pub capacity_per_s: Samples,
    pub inferred: u64,
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
}

/// A running server plus the driver's model of its base.
pub struct Served {
    pub server: Arc<ViewServer>,
    pub writer: Option<WriterHandle>,
    pub model: Model,
    pub meanings: Vec<(Name, Meaning)>,
}

fn base_contains(snap: &Snapshot, names: &[Name; 2], rel: Rel, x: u64) -> bool {
    let name = match rel {
        Rel::S => &names[0],
        Rel::F => &names[1],
    };
    snap.base()
        .try_get(name)
        .and_then(|v| v.contains(&Value::atom(x)).ok())
        .unwrap_or(false)
}

/// One read: the current snapshot plus membership probes on every named
/// answer.  Returns how many probes hit (so the work cannot be elided).
fn read(server: &ViewServer, probes: &[Value]) -> usize {
    let snap = server.snapshot();
    let mut hits = 0;
    for (_, answer) in snap.answers() {
        for p in probes {
            hits += usize::from(answer.contains(p).unwrap_or(false));
        }
    }
    hits
}

impl Served {
    /// Check the published answers against the model, exactly.
    pub fn check_now(&self, out: &mut ServeOut, what: &str) {
        let snap = self.server.snapshot();
        out.attempted += 1;
        if let Err(e) = check_answers(snap.answers(), &self.meanings, &self.model) {
            out.failed += 1;
            out.errors.push(format!("{what}: {e}"));
        }
    }

    /// Send one batch; a rejected submit is a failed operation.
    fn send(&self, u: &Update, out: &mut ServeOut) -> bool {
        out.attempted += 1;
        match self.server.submit(&u.to_batch()) {
            Ok(()) => true,
            Err(e) => {
                out.failed += 1;
                out.errors.push(format!("submit rejected: {e}"));
                false
            }
        }
    }

    /// One open-loop segment: ticks on a fixed schedule, a burst of reads
    /// after each tick's sends, visibility polled between ticks.  Ends with
    /// a fence batch and waits until everything sent is visible.
    pub fn open_loop(
        &mut self,
        stream: &mut Stream,
        cfg: OpenLoop,
        probe_atoms: &[u64],
        out: &mut ServeOut,
    ) {
        let names = [Name::new("S"), Name::new("F")];
        let probes: Vec<Value> = probe_atoms.iter().map(|&x| Value::atom(x)).collect();
        let server = Arc::clone(&self.server);
        let mut tracker = Tracker::default();
        let ticks = (cfg.secs * cfg.rate_per_s).ceil() as u64 + WARMUP_TICKS;
        let sched = Schedule::new(Instant::now() + Duration::from_millis(2), cfg.rate_per_s);
        let mut last_epoch = server.epoch();
        let check_every = (ticks / 4).max(1);
        let mut since_check = 0u64;
        let mut sink = 0usize;
        let mut poll =
            |tracker: &mut Tracker, model: &Model, out: &mut ServeOut, since: &mut u64| {
                let snap = server.snapshot();
                if snap.epoch == last_epoch {
                    return;
                }
                last_epoch = snap.epoch;
                let now = Instant::now();
                let confirmed = tracker.observe(now, |rel, x| base_contains(&snap, &names, rel, x));
                if confirmed > 0 && tracker.pending() == 0 && *since >= check_every {
                    // the snapshot reflects every batch sent so far
                    *since = 0;
                    out.attempted += 1;
                    if let Err(e) = check_probes(snap.answers(), &self.meanings, model, probe_atoms)
                    {
                        out.failed += 1;
                        out.errors
                            .push(format!("sampled snapshot {}: {e}", snap.epoch));
                    }
                }
            };
        for tick in 0..ticks {
            let due = sched.due(tick);
            loop {
                let now = Instant::now();
                if now >= due {
                    break;
                }
                poll(&mut tracker, &self.model, out, &mut since_check);
                let idle = if tracker.pending() == 0 { 200 } else { POLL_US };
                std::thread::sleep(
                    due.saturating_duration_since(now)
                        .min(Duration::from_micros(idle)),
                );
            }
            // the first ticks of a segment warm the caches the phase before
            // evicted; they are sent and checked but not timed
            let timed = tick >= WARMUP_TICKS;
            if timed {
                out.late_ms
                    .push_ms(Instant::now().saturating_duration_since(due));
            }
            for u in stream.tick(&mut self.model) {
                let t = Instant::now();
                let sent = self.send(&u, out);
                if timed {
                    out.submit_us.push_us(t.elapsed());
                }
                if sent {
                    tracker.push(due, &u, timed);
                }
            }
            for _ in 0..cfg.reads_per_tick {
                let t = Instant::now();
                sink = sink.wrapping_add(read(&server, &probes));
                if timed {
                    out.read_us.push_us(t.elapsed());
                }
                out.attempted += 1;
            }
            since_check += 1;
        }
        let fence = stream.fence(&mut self.model);
        if self.send(&fence, out) {
            tracker.push(Instant::now(), &fence, false);
        }
        let deadline = Instant::now() + VISIBLE_LIMIT;
        while tracker.pending() > 0 && Instant::now() < deadline {
            poll(&mut tracker, &self.model, out, &mut since_check);
            std::thread::sleep(Duration::from_micros(POLL_US));
        }
        std::hint::black_box(sink);
        out.failed += tracker.overdue + tracker.pending() as u64;
        if tracker.pending() > 0 {
            out.errors.push(format!(
                "{} batches never became visible",
                tracker.pending()
            ));
        }
        out.inferred += tracker.inferred;
        out.visible_ms
            .extend(tracker.visible_ms.values().iter().copied());
        self.check_now(out, "snapshot after an open-loop segment");
    }

    /// One saturation segment: blocking submits as fast as the bounded
    /// queue accepts them for `secs`, then a fence; capacity is the batches
    /// sent over the time until the fence was visible.
    pub fn saturate(&mut self, stream: &mut Stream, secs: f64, out: &mut ServeOut) {
        let start = Instant::now();
        let end = start + Duration::from_secs_f64(secs);
        let mut sent = 0u64;
        while Instant::now() < end {
            for u in stream.tick(&mut self.model) {
                sent += u64::from(self.send(&u, out));
            }
        }
        let fence = stream.fence(&mut self.model);
        if !self.send(&fence, out) {
            return;
        }
        let s = Name::new("S");
        let x = Value::atom(fence.ops[0].x);
        let deadline = Instant::now() + SATURATION_LIMIT;
        loop {
            let snap = self.server.snapshot();
            let seen = snap.base().try_get(&s).and_then(|v| v.contains(&x).ok()) == Some(true);
            if seen {
                break;
            }
            if Instant::now() > deadline {
                out.failed += 1;
                out.errors
                    .push("saturation: the fence never became visible".into());
                return;
            }
            std::thread::sleep(Duration::from_micros(POLL_US));
        }
        out.capacity_per_s
            .push((sent + 1) as f64 / start.elapsed().as_secs_f64());
    }

    /// Stop the writer (it drains the queue), count what it failed or
    /// dropped, and check the final snapshot.
    pub fn stop(&mut self, out: &mut ServeOut) {
        let stats = self.writer.take().expect("writer running").stop();
        let lost = stats.errors + stats.dropped_batches + self.server.pending_len() as u64;
        if lost > 0 {
            out.failed += lost;
            out.errors.push(format!(
                "writer: {} failed flushes, {} dropped batches, {} left queued (last error: {:?})",
                stats.errors,
                stats.dropped_batches,
                self.server.pending_len(),
                stats.last_error
            ));
        }
        self.check_now(out, "final snapshot");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ins(x: u64) -> Update {
        Update {
            ops: vec![Op {
                rel: Rel::S,
                x,
                insert: true,
            }],
        }
    }

    #[test]
    fn latency_runs_from_the_due_time_not_the_send_time() {
        // the generator fell 40 ms behind: batch 0 was due 50 ms ago and is
        // sent only now; it becomes visible 1 ms after the send
        let now = Instant::now();
        let sched = Schedule::new(now - Duration::from_millis(50), 100.0);
        assert_eq!(sched.due(1) - sched.due(0), Duration::from_millis(10));
        let mut t = Tracker::default();
        t.push(sched.due(0), &ins(1), true);
        t.push(sched.due(1), &ins(2), true);
        let seen = now + Duration::from_millis(1);
        assert_eq!(t.observe(seen, |_, _| true), 2);
        // 51 ms and 41 ms: each from its own due time, not from the send
        let got = t.visible_ms.values();
        assert_eq!(got.len(), 2);
        assert!((got[0] - 51.0).abs() < 1e-6, "{got:?}");
        assert!((got[1] - 41.0).abs() < 1e-6, "{got:?}");
    }

    #[test]
    fn a_snapshot_confirms_a_prefix_and_round_trips_are_inferred() {
        let now = Instant::now();
        let mut t = Tracker::default();
        let a = ins(7);
        // batch 1 undoes batch 0: neither is detectable
        t.push(now, &a, true);
        t.push(now, &a.inverse(), true);
        t.push(now, &ins(8), true);
        t.push(now, &ins(9), true);
        // a snapshot that holds 8 but not 9 includes batches 0..=2
        assert_eq!(t.observe(now, |_, x| x == 8), 3);
        assert_eq!(t.inferred, 2);
        assert_eq!(t.visible_ms.len(), 1);
        assert_eq!(t.pending(), 1);
        // nothing new published: nothing confirmed
        assert_eq!(t.observe(now, |_, x| x == 8), 0);
        assert_eq!(t.observe(now, |_, _| true), 1);
        assert_eq!(t.pending(), 0);
    }

    #[test]
    fn an_overdue_batch_is_counted() {
        let now = Instant::now();
        let mut t = Tracker::default();
        t.push(now - VISIBLE_LIMIT * 2, &ins(1), false);
        t.observe(now, |_, _| true);
        assert_eq!(t.overdue, 1);
        assert_eq!(t.visible_ms.len(), 0, "an untimed batch gives no sample");
    }
}
