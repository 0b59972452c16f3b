//! Order statistics for latency samples and run summaries.

/// The percentile rule: a percentile is reported only when at least this many
/// samples lie beyond it, so a p99 needs at least 1000 samples.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of an ascending slice, with
/// the number of samples strictly beyond its rank.
fn nearest_rank(sorted: &[f64], q: f64) -> Option<(f64, usize)> {
    if sorted.is_empty() || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some((sorted[rank - 1], n - rank))
}

/// The nearest-rank `q`-quantile of an ascending slice, or `None` unless at
/// least [`MIN_TAIL_SAMPLES`] samples lie beyond the reported rank.
pub fn tail_percentile(sorted: &[f64], q: f64) -> Option<f64> {
    nearest_rank(sorted, q)
        .filter(|&(_, beyond)| beyond >= MIN_TAIL_SAMPLES)
        .map(|(v, _)| v)
}

/// Sorts `values` ascending (NaN-free input assumed) and returns them.
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.total_cmp(b));
    values
}

/// The median (mean of the middle pair for even lengths), or `None` when
/// empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let s = sorted(values.to_vec());
    let n = s.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(s[n / 2]),
        _ => Some((s[n / 2 - 1] + s[n / 2]) / 2.0),
    }
}

/// `a / b`, or 0 when `b` is 0 (a ratio over an empty denominator, as for a
/// layer the workload never touched).
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}
