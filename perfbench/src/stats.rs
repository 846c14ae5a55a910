//! The benchmark's arithmetic: percentiles, the tail-percentile rule, and
//! span self time.

/// The percentile `p` (0–100) of `sorted`, linearly interpolated between
/// the two nearest ranks. `sorted` must be ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (sorted.len() - 1) as f64 * (p / 100.0);
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values` (any order), or 0 when there are none.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 50.0)
}

/// The mean of `values`, or 0 when there are none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// Samples that lie strictly above percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    // Rounded first so that, e.g., 90% of 100 is exactly rank 90.
    let rank = (n as f64 * p / 100.0 * 1e6).round() / 1e6;
    n - rank.ceil() as usize
}

/// The tail percentiles the report names.
pub const TAILS: [f64; 4] = [90.0, 99.0, 99.9, 99.99];

/// The highest of [`TAILS`] with at least ten of `n` samples beyond it,
/// or `None` when even p90 has fewer than ten.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAILS.iter().rev().copied().find(|&p| beyond(n, p) >= 10)
}

/// Nanoseconds of `[start, end)` covered by at least one of `children`
/// (each clipped to the interval; overlaps counted once).
pub fn covered(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut parts: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    parts.sort_unstable();
    let mut total = 0;
    let mut reach = start;
    for (s, e) in parts {
        let s = s.max(reach);
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// A span's self time: its duration minus the part of it its children
/// cover.
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    (end - start) - covered(start, end, children)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 4.0);
        assert_eq!(percentile(&v, 50.0), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(99), None, "p90 of 99 leaves 9 beyond");
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
        assert_eq!(beyond(1000, 99.0), 10);
    }

    #[test]
    fn self_time_subtracts_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
    }

    #[test]
    fn overlapping_children_count_once() {
        // [10,40) and [20,50) overlap on [20,40): together they cover 40.
        assert_eq!(self_time(0, 100, &[(20, 50), (10, 40)]), 60);
        // A child nested inside another adds nothing.
        assert_eq!(self_time(0, 100, &[(10, 90), (20, 30)]), 20);
        // Touching children leave no gap and no double count.
        assert_eq!(self_time(0, 100, &[(0, 50), (50, 100)]), 0);
    }

    #[test]
    fn children_are_clipped_to_the_span() {
        assert_eq!(self_time(10, 20, &[(0, 15)]), 5);
        assert_eq!(self_time(10, 20, &[(0, 5), (25, 30)]), 10);
        assert_eq!(self_time(10, 20, &[(0, 100)]), 0);
    }
}
