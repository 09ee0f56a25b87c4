//! Order statistics and process measurements.

/// Fewest samples that must lie beyond a reported tail percentile.
pub const MIN_TAIL_SAMPLES: usize = 10;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let v = sorted(values);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method).
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let v = sorted(values);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Nearest-rank `q`-th percentile (`0 < q <= 100`).
pub fn percentile(values: &[f64], q: u32) -> f64 {
    assert!(!values.is_empty() && (1..=100).contains(&q));
    let v = sorted(values);
    v[rank(v.len(), q) - 1]
}

/// 1-based nearest rank of the `q`-th percentile among `n` samples.
fn rank(n: usize, q: u32) -> usize {
    (n * q as usize).div_ceil(100).max(1)
}

/// How many of `n` samples lie strictly beyond the `q`-th percentile.
pub fn samples_beyond(n: usize, q: u32) -> usize {
    n - rank(n, q)
}

/// The highest integer percentile with at least [`MIN_TAIL_SAMPLES`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn highest_supported_percentile(n: usize) -> Option<u32> {
    (1..100)
        .rev()
        .find(|&q| samples_beyond(n, q) >= MIN_TAIL_SAMPLES)
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        assert_eq!(quartiles(&[4.0, 9.0]), (2.75, 10.25));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(100), Some(90));
        assert_eq!(samples_beyond(100, 90), 10);
        assert_eq!(highest_supported_percentile(99), Some(89));
        assert_eq!(samples_beyond(99, 90), 9);
        assert_eq!(highest_supported_percentile(153), Some(93));
        assert_eq!(highest_supported_percentile(260), Some(96));
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(11), Some(9));
        for n in 11..600 {
            let q = highest_supported_percentile(n).unwrap();
            assert!(samples_beyond(n, q) >= MIN_TAIL_SAMPLES);
            assert!(q == 99 || samples_beyond(n, q + 1) < MIN_TAIL_SAMPLES);
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 50.0);
        assert_eq!(percentile(&v, 90), 90.0);
        assert_eq!(percentile(&[5.0], 90), 5.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
