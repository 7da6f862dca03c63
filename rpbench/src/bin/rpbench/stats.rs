//! Order statistics, the arrival schedule and label fingerprints.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rp_dbscan::store::format::fnv1a;

/// Median of `values` (mean of the middle two for an even count); 0 for
/// an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Nearest-rank percentile `q` in `[0, 1]` of ascending `sorted`.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The tail percentiles a latency is reported at, highest first.
const TAIL_LADDER: [f64; 5] = [0.99, 0.95, 0.9, 0.75, 0.5];

/// A latency tail: the highest percentile of [`TAIL_LADDER`] that still
/// has at least ten samples beyond it, so the value is never one outlier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile picked, in `[0, 1]`.
    pub q: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
}

/// Picks the tail of `values` (any order). `None` when even the median
/// has fewer than ten samples beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    TAIL_LADDER.iter().find_map(|&q| {
        let rank = (q * n as f64).ceil() as usize;
        (n >= rank + 10).then(|| Tail {
            q,
            value: percentile(&v, q),
            samples: n,
        })
    })
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
/// them (the default exclusive method), so spreads printed here match
/// the ones a reviewer recomputes from the same numbers. Needs at least
/// two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    let ld = values.len();
    if ld < 2 {
        return None;
    }
    let mut d = values.to_vec();
    d.sort_by(f64::total_cmp);
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0
    };
    Some((q(1), q(2), q(3)))
}

/// Interquartile distance as a share of the median (0 when the median
/// is 0).
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    Some(if q2.abs() > 0.0 {
        (q3 - q1) / q2.abs()
    } else {
        0.0
    })
}

/// Poisson arrival times in seconds over `[0, seconds)` at `rate` per
/// second, from a seeded generator: the same seed gives the same
/// schedule.
pub fn poisson_schedule(rate: f64, seconds: f64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity((rate * seconds * 1.1) as usize + 16);
    let mut t = 0.0;
    loop {
        // 1 - u lies in (0, 1], so the logarithm is finite.
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate;
        if t >= seconds {
            return out;
        }
        out.push(t);
    }
}

/// FNV-1a over a label vector's little-endian bytes (noise hashes as
/// `u32::MAX`), the fingerprint committed for the default seed.
pub fn fingerprint(labels: &[Option<u32>]) -> u64 {
    let bytes: Vec<u8> = labels
        .iter()
        .flat_map(|l| l.unwrap_or(u32::MAX).to_le_bytes())
        .collect();
    fnv1a(&bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_deterministic_with_mean_rate_within_one_percent() {
        let a = poisson_schedule(20_000.0, 10.0, 7);
        assert_eq!(a, poisson_schedule(20_000.0, 10.0, 7));
        assert_ne!(a, poisson_schedule(20_000.0, 10.0, 8));
        let rate = a.len() as f64 / 10.0;
        assert!((rate / 20_000.0 - 1.0).abs() < 0.01, "rate {rate}");
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_and_reports_the_count() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(
            tail(&v),
            Some(Tail {
                q: 0.99,
                value: 990.0,
                samples: 1000
            })
        );
        // 999 samples: p99's rank is 990, leaving only 9 beyond it.
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| t.q), Some(0.95));
        let v: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&v).map(|t| (t.q, t.value)), Some((0.75, 30.0)));
        assert_eq!(tail(&[1.0; 19]), None);
        assert_eq!(tail(&[1.0; 20]).map(|t| t.q), Some(0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.99), 4.0);
    }

    #[test]
    fn fingerprint_separates_noise_from_labels() {
        assert_ne!(fingerprint(&[None]), fingerprint(&[Some(0)]));
        assert_eq!(fingerprint(&[Some(1), None]), fingerprint(&[Some(1), None]));
    }
}
