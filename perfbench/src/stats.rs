//! Order statistics the benchmark reports: exact nearest-rank
//! percentiles over raw samples, exact percentiles over a count
//! histogram, the quartiles the repeat mode prints, and the
//! `unaccounted_share` that checks the traced layers add up.

/// Exact nearest-rank percentile of an ascending `sorted` slice: the
/// smallest sample with at least `q · n` samples at or below it. Never
/// interpolates, so the result is always an observed sample and a p99
/// can never exceed the maximum. `None` on an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let rank = (q * n as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, n) - 1])
}

/// Sorts `samples` in place and returns its exact nearest-rank `q`
/// percentile (0 for an empty sample set).
pub fn percentile_u64(samples: &mut [u64], q: f64) -> u64 {
    samples.sort_unstable();
    nearest_rank(samples, q).unwrap_or(0)
}

/// Exact nearest-rank percentile of a histogram where `counts[v]` is the
/// number of samples equal to `v` (0 when empty).
pub fn histogram_percentile(counts: &[u64], q: f64) -> u64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let mut seen = 0u64;
    for (value, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return value as u64;
        }
    }
    unreachable!("rank is at most the sample count")
}

/// Mean of a histogram where `counts[v]` samples equal `v`.
pub fn histogram_mean(counts: &[u64]) -> f64 {
    let n: u64 = counts.iter().sum();
    if n == 0 {
        return 0.0;
    }
    let total: u64 = counts
        .iter()
        .enumerate()
        .map(|(value, &count)| value as u64 * count)
        .sum();
    total as f64 / n as f64
}

/// Adds one sample of value `value` to a count histogram.
pub fn histogram_add(counts: &mut Vec<u64>, value: u64) {
    let idx = value as usize;
    if counts.len() <= idx {
        counts.resize(idx + 1, 0);
    }
    counts[idx] += 1;
}

/// `(q1, median, q3)` computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// and `statistics.median`, so the repeat mode's spread matches what an
/// outside script computes from the same runs. Needs two or more values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), median(&data), cut(3)))
}

/// Median of `values` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Share of a timed loop's wall time that no traced layer accounts for:
/// `(wall − Σ busy) / wall`. Negative when layers overlap the wall (they
/// cannot in a single-caller loop, so a negative value flags a tracing
/// bug).
pub fn unaccounted_share(wall_s: f64, layer_busy_s: &[f64]) -> f64 {
    if wall_s <= 0.0 {
        return 0.0;
    }
    (wall_s - layer_busy_s.iter().sum::<f64>()) / wall_s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_observed_samples() {
        let data: Vec<u64> = (1..=100).collect();
        assert_eq!(nearest_rank(&data, 0.5), Some(50));
        assert_eq!(nearest_rank(&data, 0.99), Some(99));
        assert_eq!(nearest_rank(&data, 1.0), Some(100));
        assert_eq!(nearest_rank(&data, 0.0), Some(1));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
        // Ten samples: p99 is the maximum, p50 the fifth.
        let ten: Vec<u64> = (1..=10).collect();
        assert_eq!(nearest_rank(&ten, 0.99), Some(10));
        assert_eq!(nearest_rank(&ten, 0.5), Some(5));
    }

    #[test]
    fn p99_never_exceeds_the_max_on_any_sample_set() {
        // A small deterministic generator sweeps sizes and skews,
        // including heavy-tailed sets where a bucketed estimate would
        // overshoot the maximum.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for n in 1..300usize {
            let mut samples: Vec<u64> = (0..n)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    let shift = state % 40;
                    (state >> 24) >> shift
                })
                .collect();
            let max = *samples.iter().max().unwrap();
            let min = *samples.iter().min().unwrap();
            let p99 = percentile_u64(&mut samples, 0.99);
            let p50 = nearest_rank(&samples, 0.5).unwrap();
            assert!(p99 <= max, "n = {n}: p99 {p99} above max {max}");
            assert!(p50 <= p99 && p50 >= min);
            assert!(samples.binary_search(&p99).is_ok(), "p99 not a sample");
        }
    }

    #[test]
    fn histogram_percentiles_match_the_raw_samples() {
        let raw: Vec<u64> = vec![0, 0, 1, 3, 3, 3, 7, 7, 12, 40];
        let mut counts = Vec::new();
        for &v in &raw {
            histogram_add(&mut counts, v);
        }
        for q in [0.1, 0.25, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(
                histogram_percentile(&counts, q),
                nearest_rank(&raw, q).unwrap()
            );
        }
        assert!((histogram_mean(&counts) - 7.6).abs() < 1e-12);
        assert_eq!(histogram_percentile(&[], 0.99), 0);
    }

    #[test]
    fn quartiles_follow_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&values), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 2.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn unaccounted_share_is_the_uncovered_fraction() {
        assert!((unaccounted_share(10.0, &[4.0, 3.0, 2.0]) - 0.1).abs() < 1e-12);
        assert_eq!(unaccounted_share(2.0, &[2.0]), 0.0);
        assert!(unaccounted_share(1.0, &[0.6, 0.6]) < 0.0);
        assert_eq!(unaccounted_share(0.0, &[1.0]), 0.0);
        assert_eq!(unaccounted_share(5.0, &[]), 1.0);
    }
}
