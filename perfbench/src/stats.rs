//! Order statistics and process memory.

/// Median of `xs` (mean of the two middle values for an even count).
pub fn median(xs: &[f64]) -> f64 {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The tail of `xs` as `(percentile, value)`: the 90th percentile
/// (nearest rank), or, when fewer than ten samples lie beyond it, the
/// highest percentile that still has ten samples beyond it. With fewer
/// than eleven samples that is the maximum, reported as percentile 100.
pub fn tail(xs: &[f64]) -> (f64, f64) {
    let s = sorted(xs);
    let n = s.len();
    if n == 0 {
        return (100.0, 0.0);
    }
    let p90 = (n * 9).div_ceil(10) - 1;
    let rank = if n < 11 { n - 1 } else { p90.min(n - 11) };
    (100.0 * (rank + 1) as f64 / n as f64, s[rank])
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if the
/// kernel does not report it.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kib| kib.parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_is_p90_with_ten_samples_beyond_it() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 90.0));
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), (90.0, 900.0));
        let xs: Vec<f64> = (1..=50).map(f64::from).collect();
        assert_eq!(tail(&xs), (80.0, 40.0));
        assert_eq!(tail(&[1.0, 5.0, 2.0]), (100.0, 5.0));
    }
}
