//! Sample summaries: nearest-rank percentiles that refuse thin tails, and
//! the small numeric helpers the report needs.

use std::time::Duration;

/// Fewest samples a reported percentile must have strictly beyond it.  A
/// p99 therefore needs 1000 samples and a p50 needs 20.
pub const MIN_BEYOND: usize = 10;

/// Samples of one measured quantity, in the unit they are reported in,
/// optionally split into rounds.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>, Vec<usize>);

impl Samples {
    pub fn new() -> Samples {
        Samples::default()
    }

    /// Close the current round: the samples since the last mark form one.
    pub fn end_round(&mut self) {
        self.1.push(self.0.len());
    }

    /// The samples of each round; those after the last mark form one more.
    fn rounds(&self) -> impl Iterator<Item = &[f64]> {
        let ends = self.1.iter().copied().chain([self.0.len()]);
        let starts = [0].into_iter().chain(self.1.iter().copied());
        starts
            .zip(ends)
            .filter(|(a, b)| b > a)
            .map(|(a, b)| &self.0[a..b])
    }

    /// The median over rounds of each round's median: a central value that
    /// a slow stretch confined to a few rounds does not move.
    pub fn round_median(&self) -> f64 {
        median(&self.rounds().map(median).collect::<Vec<_>>())
    }

    /// The median over rounds of each round's percentile `p`, over the
    /// rounds with enough samples beyond it; refused when none has.
    pub fn round_pct(&self, p: f64) -> Result<f64, String> {
        let per_round: Vec<f64> = self
            .rounds()
            .filter_map(|r| percentile(r, p).ok())
            .collect();
        if per_round.is_empty() {
            return Err(format!(
                "no round has {MIN_BEYOND} samples beyond p{}",
                p * 100.0
            ));
        }
        Ok(median(&per_round))
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn push_ms(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e3);
    }

    pub fn push_us(&mut self, d: Duration) {
        self.push(d.as_secs_f64() * 1e6);
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn extend(&mut self, vs: impl IntoIterator<Item = f64>) {
        self.0.extend(vs);
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Nearest-rank percentile `p` (in `(0, 1)`), or an error when fewer
    /// than [`MIN_BEYOND`] samples lie beyond it.
    pub fn pct(&self, p: f64) -> Result<f64, String> {
        percentile(&self.0, p)
    }

    /// The middle value (the mean of the two middle values for an even
    /// count), for small sets such as repeated set-ups.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return f64::NAN;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile of unsorted `values`; refuses a percentile with
/// fewer than [`MIN_BEYOND`] samples beyond it.
pub fn percentile(values: &[f64], p: f64) -> Result<f64, String> {
    let n = values.len();
    let r = rank(n, p);
    if n == 0 || n - r < MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, have {} of {n}",
            p * 100.0,
            n.saturating_sub(r)
        ));
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Ok(v[r - 1])
}

/// The same refusal rule for a percentile read from a histogram of `count`
/// samples.
pub fn enough_beyond(count: u64, p: f64) -> Result<(), String> {
    let n = count as usize;
    let r = rank(n, p);
    if n == 0 || n - r < MIN_BEYOND {
        return Err(format!(
            "p{} of a {n}-sample histogram has too few samples beyond it",
            p * 100.0
        ));
    }
    Ok(())
}

/// Least-squares slope of `ln y` over `ln x`: 0 for a flat cost, 1 for a
/// linear one.
pub fn log_log_slope(points: &[(f64, f64)]) -> f64 {
    let pts: Vec<(f64, f64)> = points.iter().map(|&(x, y)| (x.ln(), y.ln())).collect();
    let n = pts.len() as f64;
    let mx = pts.iter().map(|p| p.0).sum::<f64>() / n;
    let my = pts.iter().map(|p| p.1).sum::<f64>() / n;
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    sxy / sxx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&v, 0.99).is_err(), "999 samples: 9 beyond p99");
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.99).unwrap(), 990.0);
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert!(percentile(&v, 0.9).is_err());
        assert!(percentile(&v[..19], 0.5).is_err());
        assert_eq!(percentile(&v[..20], 0.5).unwrap(), 10.0);
        assert!(percentile(&[], 0.5).is_err());
        assert!(enough_beyond(999, 0.99).is_err());
        assert!(enough_beyond(1000, 0.99).is_ok());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v: Vec<f64> = (1..=40).map(f64::from).collect();
        v.reverse();
        assert_eq!(percentile(&v, 0.5).unwrap(), 20.0);
    }

    #[test]
    fn slope_of_linear_and_flat_costs() {
        let lin = [(1e3, 2.0), (1e4, 20.0), (1e5, 200.0)];
        assert!((log_log_slope(&lin) - 1.0).abs() < 1e-9);
        let flat = [(1e3, 7.0), (1e4, 7.0), (1e5, 7.0)];
        assert!(log_log_slope(&flat).abs() < 1e-9);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        let mut s = Samples::new();
        for v in [3.0, 1.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.0);
        s.push(4.0);
        assert_eq!(s.median(), 2.5);
    }

    #[test]
    fn one_slow_round_does_not_move_the_round_median() {
        let mut s = Samples::new();
        for round in 0..5 {
            let slow = if round == 2 { 10.0 } else { 1.0 };
            for v in [1.0, 2.0, 3.0] {
                s.push(v * slow);
            }
            s.end_round();
        }
        assert_eq!(s.round_median(), 2.0);
        assert_eq!(s.median(), 2.0);
        s.push(100.0);
        assert_eq!(
            s.round_median(),
            2.0,
            "a trailing partial round counts once"
        );
    }
}
