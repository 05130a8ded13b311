//! Order statistics for lap and set summaries, and the two process
//! readings (`/proc/self/stat` CPU, `/proc/self/status` VmHWM) the
//! end-to-end metrics need.

/// Median of a sample (mean of the two middle values for even sizes).
/// Returns 0 for an empty sample.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of a sample; the p-th
/// percentile is the smallest value with at least p % of the sample at
/// or below it.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly beyond the nearest-rank p-th percentile position.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1)).min(n)
}

/// `(q1, q2, q3)` exactly as Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method) gives them — the rule the
/// driver applies to a set of runs.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x, x);
    }
    let n = 4usize;
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        (v[j - 1] * (n as f64 - delta) + v[j] * delta) / n as f64
    };
    (q(1), q(2), q(3))
}

/// Distance between the first and third quartile as a share of the
/// median — the driver's spread.
pub fn spread_share(values: &[f64]) -> f64 {
    let (q1, _, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// Process user + system CPU seconds from `/proc/self/stat` (all
/// threads). The kernel reports clock ticks; Linux fixes `USER_HZ` at
/// 100, and without libc there is no `sysconf` to ask.
pub fn process_cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may hold spaces; fields resume after
    // the closing parenthesis.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14
    // and 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(samples_beyond(10, 90.0), 1);
        assert_eq!(samples_beyond(245, 90.0), 24);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15, 40, 120]
        assert_eq!(
            quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]),
            (15.0, 40.0, 120.0)
        );
        assert!((spread_share(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn process_readings_are_live() {
        assert!(peak_rss_mib() > 0.0);
        assert!(process_cpu_seconds() >= 0.0);
    }
}
