//! Small order statistics, computed by the benchmark itself.

/// Median of `v` (mean of the middle pair for an even count).
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of nothing");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank percentile `q` (0 < q <= 1) of `v`, which must hold at
/// least ten samples beyond it.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    assert!(
        n - rank >= 10,
        "p{} of {n} samples has fewer than ten samples beyond it",
        q * 100.0
    );
    s[rank - 1]
}
