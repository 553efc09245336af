//! Exact statistics over raw samples, and the seeded arrival schedule.
//!
//! Quantiles here are nearest-rank values of the recorded samples
//! themselves — never bucket midpoints — so a reported p99 is a latency
//! some operation actually had.

use std::time::Duration;

/// SplitMix64: a tiny, seedable generator for schedules and edit choices.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is far below 2⁻³⁰).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

/// Mixes a workload name into a seed, so two workloads run with the same
/// `--seed` still draw independent inputs.
pub fn mix(seed: u64, name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    SplitMix::new(seed ^ h).next_u64()
}

/// One scheduled operation of an open loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    /// Offset from the start of the phase at which the op is due.
    pub due: Duration,
    /// Index of the document the op addresses.
    pub doc: usize,
}

/// Poisson arrivals at `rate` per second over `span`, conditioned on
/// their count being exactly `rate · span` (rounded): the due times are
/// that many uniform points, sorted, so every seed makes the same number
/// of ops. Each op addresses one of `docs` documents chosen uniformly. A
/// pure function of its arguments.
pub fn poisson_schedule(
    seed: u64,
    workload: &str,
    rate: f64,
    span: Duration,
    docs: usize,
) -> Vec<Arrival> {
    let mut rng = SplitMix::new(mix(seed, workload));
    let count = (rate * span.as_secs_f64()).round() as usize;
    let mut dues: Vec<f64> = (0..count)
        .map(|_| rng.next_f64() * span.as_secs_f64())
        .collect();
    dues.sort_by(f64::total_cmp);
    dues.into_iter()
        .map(|t| Arrival {
            due: Duration::from_secs_f64(t),
            doc: rng.below(docs as u64) as usize,
        })
        .collect()
}

/// Nearest-rank quantile of ascending `sorted` samples: the smallest
/// sample with at least `q·n` samples at or below it.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    // The epsilon keeps 0.99·100 (= 99.000…01 in floating point) at rank 99.
    let rank = ((q * sorted.len() as f64) - 1e-9).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts samples ascending (NaN-free by construction: they are durations).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the "exclusive" method)
/// and `statistics.median` do.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let data = sorted(values.to_vec());
    let ld = data.len();
    assert!(ld > 0, "quartiles of no values");
    if ld == 1 {
        return (data[0], data[0], data[0]);
    }
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    let median = if ld % 2 == 1 {
        data[ld / 2]
    } else {
        (data[ld / 2 - 1] + data[ld / 2]) / 2.0
    };
    (cut(1), median, cut(3))
}

pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_exact_samples() {
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&samples, 0.50), 50.0);
        assert_eq!(quantile(&samples, 0.99), 99.0);
        assert_eq!(quantile(&samples, 1.0), 100.0);
        assert_eq!(quantile(&samples, 0.0), 1.0);
        let twenty: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(quantile(&twenty, 0.95), 19.0);
        // Values a log2 histogram would fold into one bucket stay apart.
        let close = sorted(vec![1000.0, 1001.0, 1002.0, 1003.0]);
        assert_eq!(quantile(&close, 0.5), 1001.0);
        assert_eq!(quantile(&close, 0.75), 1002.0);
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), (1.5, 3.0, 4.5));
        // statistics.quantiles([7, 9], n=4) == [6.5, 8.0, 9.5]
        assert_eq!(quartiles(&[7.0, 9.0]), (6.5, 8.0, 9.5));
    }

    #[test]
    fn poisson_schedule_is_a_pure_function_of_seed_and_workload() {
        let span = Duration::from_secs(20);
        let a = poisson_schedule(7, "typing", 100.0, span, 64);
        assert_eq!(a, poisson_schedule(7, "typing", 100.0, span, 64));
        assert_ne!(a, poisson_schedule(8, "typing", 100.0, span, 64));
        assert_ne!(a, poisson_schedule(7, "open", 100.0, span, 64));
        assert!(a.windows(2).all(|w| w[0].due <= w[1].due));
        assert!(a.iter().all(|x| x.due < span && x.doc < 64));
        assert_eq!(a.len(), 2000, "the count is fixed by rate and span");
        // Gaps of a Poisson process: exponential, mean 1/rate (10 ms).
        let gaps: Vec<f64> = a
            .windows(2)
            .map(|w| (w[1].due - w[0].due).as_secs_f64())
            .collect();
        let mean_gap = mean(&gaps);
        assert!((0.009..0.011).contains(&mean_gap), "mean gap {mean_gap}");
        let short = gaps.iter().filter(|g| **g < 0.01).count() as f64 / gaps.len() as f64;
        assert!(
            (0.58..0.68).contains(&short),
            "P(gap < mean) = {short}, expected 1 - 1/e"
        );
    }
}
