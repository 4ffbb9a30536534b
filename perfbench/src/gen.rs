//! Seeded input generation: the base relations `S` and `F`, and the update
//! streams the serving phases send.  Everything here is a pure function of
//! the seed (and of the updates already generated), so a seed fixes a run's
//! inputs; the library only ever sees the generated values.

use crate::oracle::Model;
use std::collections::BTreeSet;

/// SplitMix64: a tiny, fast, well-mixed seeded generator.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// True with probability `1 / n`.
    pub fn one_in(&mut self, n: u64) -> bool {
        self.below(n) == 0
    }

    /// An independent generator for another purpose.
    pub fn fork(&mut self) -> Rng {
        Rng(self.next_u64())
    }

    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

/// The base relations for `|S| = n`: `n` draws each for `S` and `F` from the
/// universe `0..2n` (the shape of the partition fixtures).
pub fn base(n: usize, rng: &mut Rng) -> Model {
    let universe = universe(n);
    let draw = |rng: &mut Rng| -> BTreeSet<u64> { (0..n).map(|_| rng.below(universe)).collect() };
    let s = draw(rng);
    let f = draw(rng);
    Model { s, f }
}

/// The atom universe of a base of size `n`.
pub fn universe(n: usize) -> u64 {
    (2 * n as u64).max(4)
}

/// A seeded affine permutation of `0..len`: consecutive draws are distinct
/// for `len` steps, so updates in flight never touch the same tuple unless
/// more than `len` of them are pending.
#[derive(Debug, Clone)]
pub struct Cycle {
    len: u64,
    mul: u64,
    add: u64,
    i: u64,
}

impl Cycle {
    pub fn new(len: u64, rng: &mut Rng) -> Cycle {
        let mut mul = rng.below(len).max(1);
        while gcd(mul, len) != 1 {
            mul = mul % len + 1;
        }
        Cycle {
            len,
            mul,
            add: rng.below(len),
            i: 0,
        }
    }

    pub fn next(&mut self) -> u64 {
        let v = (u128::from(self.mul) * u128::from(self.i) + u128::from(self.add))
            % u128::from(self.len);
        self.i += 1;
        v as u64
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// A base relation of the served fixtures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Rel {
    S,
    F,
}

impl Rel {
    pub fn name(self) -> &'static str {
        match self {
            Rel::S => "S",
            Rel::F => "F",
        }
    }
}

/// One tuple operation: insert (`true`) or delete (`false`) atom `x`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    pub rel: Rel,
    pub x: u64,
    pub insert: bool,
}

/// One update batch as the driver models it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Update {
    pub ops: Vec<Op>,
}

impl Update {
    pub fn to_batch(&self) -> nested_synth::UpdateBatch {
        let mut b = nested_synth::UpdateBatch::new();
        for op in &self.ops {
            let v = nested_synth::Value::atom(op.x);
            if op.insert {
                b.insert(op.rel.name(), v);
            } else {
                b.delete(op.rel.name(), v);
            }
        }
        b
    }

    /// The batch that undoes this one.
    pub fn inverse(&self) -> Update {
        Update {
            ops: self
                .ops
                .iter()
                .map(|op| Op {
                    insert: !op.insert,
                    ..*op
                })
                .collect(),
        }
    }
}

/// The shape of an update stream.
#[derive(Debug, Clone, Copy)]
pub enum StreamKind {
    /// One tuple of `S` per batch, toggled: inserted when absent, deleted
    /// when present.
    Toggle,
    /// 1..=`max_tuples` toggled tuples per batch over `S` and `F`; one tick
    /// in `roundtrip_one_in` sends a batch immediately followed by its
    /// inverse, so the pair lands in one flush window and cancels.
    Mixed {
        max_tuples: u64,
        roundtrip_one_in: u64,
    },
}

/// A seeded update stream over a base of size `n`.
#[derive(Debug, Clone)]
pub struct Stream {
    kind: StreamKind,
    rng: Rng,
    s: Cycle,
    f: Cycle,
    universe: u64,
    fences: u64,
}

impl Stream {
    pub fn new(kind: StreamKind, n: usize, rng: &mut Rng) -> Stream {
        let u = universe(n);
        Stream {
            kind,
            s: Cycle::new(u, rng),
            f: Cycle::new(u, rng),
            rng: rng.fork(),
            universe: u,
            fences: 0,
        }
    }

    /// The batches of the next tick, applied to `model` in order (each one
    /// is exact against the state it follows).
    pub fn tick(&mut self, model: &mut Model) -> Vec<Update> {
        let (tuples, roundtrip) = match self.kind {
            StreamKind::Toggle => (1, false),
            StreamKind::Mixed {
                max_tuples,
                roundtrip_one_in,
            } => (
                1 + self.rng.below(max_tuples),
                self.rng.one_in(roundtrip_one_in),
            ),
        };
        let mut ops = Vec::with_capacity(tuples as usize);
        for _ in 0..tuples {
            let rel = match self.kind {
                StreamKind::Toggle => Rel::S,
                StreamKind::Mixed { .. } if self.rng.one_in(2) => Rel::F,
                StreamKind::Mixed { .. } => Rel::S,
            };
            let x = match rel {
                Rel::S => self.s.next(),
                Rel::F => self.f.next(),
            };
            ops.push(Op {
                rel,
                x,
                insert: !model.contains(rel, x),
            });
        }
        let first = Update { ops };
        model.apply(&first);
        if !roundtrip {
            return vec![first];
        }
        let back = first.inverse();
        model.apply(&back);
        vec![first, back]
    }

    /// The insert into `S` of an atom outside the stream's universe, new
    /// each time: no other batch touches it, so its visibility confirms
    /// every batch sent before it.
    pub fn fence(&mut self, model: &mut Model) -> Update {
        let x = self.universe + self.fences;
        self.fences += 1;
        let u = Update {
            ops: vec![Op {
                rel: Rel::S,
                x,
                insert: true,
            }],
        };
        model.apply(&u);
        u
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycle_is_a_permutation() {
        let mut rng = Rng::new(7);
        let mut c = Cycle::new(2000, &mut rng);
        let seen: BTreeSet<u64> = (0..2000).map(|_| c.next()).collect();
        assert_eq!(seen.len(), 2000);
    }

    #[test]
    fn streams_are_reproducible_and_exact() {
        let run = |seed| {
            let mut rng = Rng::new(seed);
            let mut model = base(100, &mut rng);
            let kind = StreamKind::Mixed {
                max_tuples: 16,
                roundtrip_one_in: 4,
            };
            let mut stream = Stream::new(kind, 100, &mut rng);
            let mut check = model.clone();
            let mut out = Vec::new();
            for _ in 0..200 {
                for u in stream.tick(&mut model) {
                    for op in &u.ops {
                        assert_eq!(check.contains(op.rel, op.x), !op.insert, "exact");
                    }
                    check.apply(&u);
                    out.push(u);
                }
            }
            assert_eq!(check, model);
            out
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
