//! Order statistics.
//!
//! Every percentile in the benchmark is a nearest-rank percentile: an
//! actual sample, never an interpolation, so a reported tail is a latency
//! some request really saw.

/// Nearest-rank `p`-th percentile (0 < p ≤ 100) of ascending `sorted`
/// samples: the smallest sample with at least `p`% of the samples at or
/// below it. `None` for an empty sample.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    let n = sorted.len();
    (n > 0).then(|| sorted[rank(n, p) - 1])
}

/// 1-based nearest rank of the `p`-th percentile among `n` samples. The
/// slack keeps a product such as 0.999 · 10000 that lands a rounding
/// error above a whole number from taking the next rank.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Sorts a copy of `samples` and returns its `p`-th percentile, or 0 for
/// an empty sample (a layer the workload never reached).
pub fn percentile_of(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, p).unwrap_or(0.0)
}

/// The highest of `candidates` whose nearest rank among `n` samples still
/// leaves at least `min_beyond` samples above it: the highest percentile
/// the sample supports.
pub fn supported_percentile(n: usize, candidates: &[f64], min_beyond: usize) -> Option<f64> {
    candidates
        .iter()
        .copied()
        .filter(|&p| n > 0 && n - rank(n, p) >= min_beyond)
        .reduce(f64::max)
}

/// Tail percentiles a latency record may report, lowest first.
pub const TAIL_CANDIDATES: [f64; 4] = [50.0, 90.0, 99.0, 99.9];

/// Samples a tail percentile must leave above it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Throughput of a closed loop from its request durations in ms: the
/// median, over consecutive groups of `group` requests, of the group's
/// requests per second, so a short burst of interference does not set
/// the figure. 0 without a full group.
pub fn group_rate_per_s(ms: &[f64], group: usize) -> f64 {
    let rates: Vec<f64> = ms
        .chunks_exact(group)
        .map(|g| group as f64 / (g.iter().sum::<f64>() / 1e3))
        .collect();
    percentile_of(&rates, 50.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sorted(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let s = sorted(10);
        assert_eq!(percentile(&s, 50.0), Some(5.0));
        assert_eq!(percentile(&s, 90.0), Some(9.0));
        assert_eq!(percentile(&s, 91.0), Some(10.0));
        assert_eq!(percentile(&s, 100.0), Some(10.0));
        assert_eq!(percentile(&s, 0.1), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile_of(&[3.0, 1.0, 2.0], 50.0), 2.0);
        assert_eq!(percentile_of(&[], 50.0), 0.0);
    }

    #[test]
    fn supported_percentile_leaves_ten_samples_beyond() {
        let c = &TAIL_CANDIDATES;
        assert_eq!(supported_percentile(0, c, MIN_BEYOND), None);
        assert_eq!(supported_percentile(19, c, MIN_BEYOND), None);
        assert_eq!(supported_percentile(20, c, MIN_BEYOND), Some(50.0));
        assert_eq!(supported_percentile(99, c, MIN_BEYOND), Some(50.0));
        assert_eq!(supported_percentile(100, c, MIN_BEYOND), Some(90.0));
        assert_eq!(supported_percentile(999, c, MIN_BEYOND), Some(90.0));
        assert_eq!(supported_percentile(1000, c, MIN_BEYOND), Some(99.0));
        assert_eq!(supported_percentile(10_000, c, MIN_BEYOND), Some(99.9));
        // The check counts samples strictly above the percentile's rank.
        let s = sorted(100);
        let p90 = percentile(&s, 90.0).unwrap();
        assert_eq!(s.iter().filter(|&&v| v > p90).count(), 10);
    }

    #[test]
    fn group_rate_is_the_median_group() {
        // Groups of two 10-ms requests run at 100/s; one group stalled.
        let ms = [10.0, 10.0, 10.0, 10.0, 500.0, 500.0, 10.0, 10.0, 10.0];
        assert_eq!(group_rate_per_s(&ms, 2), 100.0);
        assert_eq!(group_rate_per_s(&ms[..1], 2), 0.0);
    }
}
