//! Order statistics the benchmark reports: medians, quartiles, latency
//! percentiles with their sample-count rule, and span self time.

/// Samples a p99 needs before it is reported (ten samples beyond it).
pub const P99_MIN_SAMPLES: usize = 1_000;
/// Samples a p99.9 needs before it is printed beside the p99.
pub const P999_MIN_SAMPLES: usize = 10_000;

/// Widest half-width, as a share of the sample count, of the rank window a
/// percentile averages over (it narrows to half the distance to the top
/// for the high percentiles). A single order statistic of a nanosecond
/// clock is a whole number that hundreds of samples share and that can
/// repeat exactly from run to run; the mean of the ranks around it is the
/// same quantity with its sub-nanosecond digits.
const RANK_WINDOW: f64 = 0.005;

/// The median of `values` (mean of the two middle values for an even
/// count); 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// First quartile, median and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them,
/// so a spread computed here equals the one the driver computes. Needs at
/// least two values; a single value is its own three quartiles.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => return [0.0; 3],
        1 => return [sorted[0]; 3],
        _ => {}
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0;
    }
    out
}

/// Latency percentiles of one pooled sample set, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Samples pooled.
    pub count: usize,
    /// Median.
    pub p50: f64,
    /// 99th percentile; withheld under [`P99_MIN_SAMPLES`].
    pub p99: Option<f64>,
    /// 99.9th percentile; withheld under [`P999_MIN_SAMPLES`].
    pub p999: Option<f64>,
}

impl Percentiles {
    /// Sorts `samples` in place and reads the percentiles off them.
    pub fn of(samples: &mut [u32]) -> Self {
        samples.sort_unstable();
        let count = samples.len();
        let at = |p: f64| rank_mean(samples, p);
        Self {
            count,
            p50: at(0.50),
            p99: (count >= P99_MIN_SAMPLES).then(|| at(0.99)),
            p999: (count >= P999_MIN_SAMPLES).then(|| at(0.999)),
        }
    }
}

/// Mean of the sorted samples whose rank lies within the window around
/// percentile `p`; 0 for no samples.
fn rank_mean(sorted: &[u32], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let last = sorted.len() - 1;
    let window = RANK_WINDOW.min((1.0 - p) / 2.0);
    let lo = (((p - window) * n).floor().max(0.0) as usize).min(last);
    let hi = (((p + window) * n).ceil() as usize).clamp(lo, last);
    let band = &sorted[lo..=hi];
    band.iter().map(|&v| f64::from(v)).sum::<f64>() / band.len() as f64
}

/// A span's self time: its duration minus the part of its interval its
/// children cover (overlapping children are counted once; children are
/// clipped to the parent).
pub fn self_time(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.clamp(start, end), e.clamp(start, end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 30], n=4) == [10.0, 20.0, 30.0]
        assert_eq!(quartiles(&[30.0, 10.0, 20.0]), [10.0, 20.0, 30.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    }

    #[test]
    fn p99_is_withheld_under_a_thousand_samples() {
        let mut few: Vec<u32> = (0..999).collect();
        let p = Percentiles::of(&mut few);
        assert_eq!(p.count, 999);
        assert!(p.p99.is_none() && p.p999.is_none());
        let mut enough: Vec<u32> = (0..1_000).rev().collect();
        let p = Percentiles::of(&mut enough);
        assert!((p.p50 - 500.0).abs() <= 1.0, "{}", p.p50);
        assert!((p.p99.unwrap() - 990.0).abs() <= 1.0);
        assert!(p.p999.is_none());
        let mut many: Vec<u32> = (0..10_000).collect();
        let p = Percentiles::of(&mut many);
        assert!((p.p999.unwrap() - 9_990.0).abs() <= 6.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time(0, 100, &[]), 100);
        assert_eq!(self_time(0, 100, &[(10, 30), (50, 60)]), 70);
        // Overlap counted once; a child past the parent's end is clipped.
        assert_eq!(self_time(0, 100, &[(10, 40), (30, 50), (90, 120)]), 50);
        assert_eq!(self_time(10, 20, &[(0, 30)]), 0);
    }
}
