//! Order statistics and metric naming rules.

/// A percentile is reported only when at least this many samples lie
/// above it; otherwise the tail is too thin to be told apart from noise.
pub const MIN_BEYOND: usize = 10;

/// The `q`-quantile (`0 < q ≤ 1`) of `sorted` by nearest rank, or
/// `None` when fewer than [`MIN_BEYOND`] samples lie beyond it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(q > 0.0 && q <= 1.0) {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// The event rate (events per second) in each of `slices` equal
/// intervals of `[start, end)`; `times` are event timestamps in ns.
pub fn slice_rates(times: &[u64], start: u64, end: u64, slices: usize) -> Vec<f64> {
    let slices = slices.max(1);
    let width = (end.saturating_sub(start) / slices as u64).max(1);
    let mut counts = vec![0u64; slices];
    for &t in times {
        if let Some(c) = t
            .checked_sub(start)
            .and_then(|d| counts.get_mut((d / width) as usize))
        {
            *c += 1;
        }
    }
    counts
        .iter()
        .map(|&c| c as f64 * 1e9 / width as f64)
        .collect()
}

/// Sorts a sample vector in place (total order; NaN never occurs).
pub fn sort(samples: &mut [f64]) {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite samples"));
}

/// The plain median of an unsorted list (for repeated whole-run
/// measurements such as set-up time, where the tail rule does not
/// apply).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Arithmetic mean, `0` for an empty list.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// True when `name` is a valid metric or workload name: starts with a
/// letter or digit, at most 64 characters of letters, digits, `_`, `.`
/// and `-`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// True when `unit` is a valid unit: 1 to 16 characters of letters,
/// digits, `_`, `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}
