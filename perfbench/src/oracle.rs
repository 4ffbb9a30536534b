//! The driver's own model of the base, independent of the program: two
//! ordered sets of atom ids and the meaning of every named answer the
//! served fixtures publish.

use crate::gen::{Rel, Update};
use nested_synth::{Instance, Name, Value};
use std::collections::BTreeSet;

/// The base relations `S` and `F` as sets of atom ids.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Model {
    pub s: BTreeSet<u64>,
    pub f: BTreeSet<u64>,
}

/// What a named answer of the partition-view fixtures means.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Meaning {
    /// `S`
    S,
    /// `S ∩ F`
    SAndF,
    /// `S \ F`
    SMinusF,
}

impl Model {
    pub fn contains(&self, rel: Rel, x: u64) -> bool {
        match rel {
            Rel::S => self.s.contains(&x),
            Rel::F => self.f.contains(&x),
        }
    }

    pub fn apply(&mut self, u: &Update) {
        for op in &u.ops {
            let set = match op.rel {
                Rel::S => &mut self.s,
                Rel::F => &mut self.f,
            };
            if op.insert {
                set.insert(op.x);
            } else {
                set.remove(&op.x);
            }
        }
    }

    /// Is `x` in the answer of meaning `m`?
    pub fn answer_contains(&self, m: Meaning, x: u64) -> bool {
        let in_s = self.s.contains(&x);
        match m {
            Meaning::S => in_s,
            Meaning::SAndF => in_s && self.f.contains(&x),
            Meaning::SMinusF => in_s && !self.f.contains(&x),
        }
    }

    /// The answer of meaning `m`, element by element.
    pub fn answer(&self, m: Meaning) -> impl Iterator<Item = u64> + '_ {
        self.s
            .iter()
            .copied()
            .filter(move |&x| self.answer_contains(m, x))
    }

    /// The base as a library instance.
    pub fn instance(&self) -> Instance {
        let set = |s: &BTreeSet<u64>| Value::set(s.iter().map(|&x| Value::atom(x)));
        Instance::from_bindings([
            (Name::new("S"), set(&self.s)),
            (Name::new("F"), set(&self.f)),
        ])
    }
}

/// Compare published answers with the model, exactly.
pub fn check_answers(
    answers: &[(Name, Value)],
    meanings: &[(Name, Meaning)],
    model: &Model,
) -> Result<(), String> {
    if answers.len() != meanings.len() {
        return Err(format!(
            "{} answers published, {} expected",
            answers.len(),
            meanings.len()
        ));
    }
    for ((name, value), (want_name, m)) in answers.iter().zip(meanings) {
        if name != want_name {
            return Err(format!(
                "answer {name} published where {want_name} was expected"
            ));
        }
        let set = value
            .as_set()
            .map_err(|e| format!("answer {name} is not a set: {e}"))?;
        let mut got = set.iter().map(|v| v.as_atom().map(|a| a.0));
        let mut want = model.answer(*m);
        loop {
            match (got.next(), want.next()) {
                (None, None) => break,
                (Some(Ok(g)), Some(w)) if g == w => {}
                (g, w) => {
                    return Err(format!("answer {name} ({m:?}): got {g:?}, model has {w:?}"));
                }
            }
        }
    }
    Ok(())
}

/// Compare published answers with the model on a few probe atoms only (cheap
/// enough to run between open-loop sends).
pub fn check_probes(
    answers: &[(Name, Value)],
    meanings: &[(Name, Meaning)],
    model: &Model,
    probes: &[u64],
) -> Result<(), String> {
    for ((name, value), (_, m)) in answers.iter().zip(meanings) {
        for &x in probes {
            let got = value.contains(&Value::atom(x)).unwrap_or(false);
            if got != model.answer_contains(*m, x) {
                return Err(format!(
                    "answer {name} ({m:?}) disagrees with the model on {x}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Op;

    fn set(xs: &[u64]) -> Value {
        Value::set(xs.iter().map(|&x| Value::atom(x)))
    }

    #[test]
    fn model_agrees_with_a_hand_computed_case() {
        let mut m = Model {
            s: [1, 2, 3, 4].into(),
            f: [2, 4, 6].into(),
        };
        m.apply(&Update {
            ops: vec![
                Op {
                    rel: Rel::S,
                    x: 5,
                    insert: true,
                },
                Op {
                    rel: Rel::S,
                    x: 1,
                    insert: false,
                },
                Op {
                    rel: Rel::F,
                    x: 3,
                    insert: true,
                },
            ],
        });
        // S = {2,3,4,5}, F = {2,3,4,6}
        assert_eq!(m.answer(Meaning::S).collect::<Vec<_>>(), [2, 3, 4, 5]);
        assert_eq!(m.answer(Meaning::SAndF).collect::<Vec<_>>(), [2, 3, 4]);
        assert_eq!(m.answer(Meaning::SMinusF).collect::<Vec<_>>(), [5]);
        let meanings = [
            (Name::new("Q0"), Meaning::S),
            (Name::new("Q1"), Meaning::SAndF),
            (Name::new("Q2"), Meaning::SMinusF),
        ];
        let good = [
            (Name::new("Q0"), set(&[2, 3, 4, 5])),
            (Name::new("Q1"), set(&[2, 3, 4])),
            (Name::new("Q2"), set(&[5])),
        ];
        assert!(check_answers(&good, &meanings, &m).is_ok());
        assert!(check_probes(&good, &meanings, &m, &[1, 2, 5, 6]).is_ok());
        let mut bad = good.clone();
        bad[2].1 = set(&[1, 5]);
        assert!(check_answers(&bad, &meanings, &m).is_err());
        assert!(check_probes(&bad, &meanings, &m, &[1]).is_err());
        bad[2].1 = set(&[]);
        assert!(check_answers(&bad, &meanings, &m).is_err());
    }
}
