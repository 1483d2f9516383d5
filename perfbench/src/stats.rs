//! Small numeric and formatting helpers.

use rememberr_obs::Histogram;

/// Median of `values` (mean of the middle two for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank quantile of an ascending slice; 0 when empty.
pub fn quantile<T: Copy + Into<f64>>(sorted: &[T], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].into()
}

/// Quantile of an obs duration histogram, in ns. The histogram keeps
/// power-of-two buckets and no samples, so the value is interpolated
/// linearly inside the bucket that holds the rank.
pub fn histogram_quantile_ns(h: &Histogram, q: f64) -> f64 {
    if h.count == 0 {
        return 0.0;
    }
    let rank = (q * h.count as f64).ceil().clamp(1.0, h.count as f64);
    let mut seen = 0u64;
    for &(index, count) in &h.buckets {
        if (seen + count) as f64 >= rank {
            let low = if index == 0 {
                0.0
            } else {
                2f64.powi(i32::from(index))
            };
            let high = 2f64.powi(i32::from(index) + 1);
            let within = (rank - seen as f64) / count as f64;
            return (low + within * (high - low)).clamp(h.min_ns as f64, h.max_ns as f64);
        }
        seen += count;
    }
    h.max_ns as f64
}

/// Milliseconds in a duration, as a float.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// FNV-1a over `bytes`: a digest to compare outputs across repeats.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &b| {
        (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The process's peak resident set (`VmHWM`) in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix("VmHWM:")
                    .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
            })
        })
        .map_or(0.0, |kib: f64| kib / 1024.0)
}

/// `text` as a JSON string literal.
pub fn json_string(text: &str) -> String {
    let mut out = String::with_capacity(text.len() + 2);
    out.push('"');
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let sorted: Vec<u32> = (1..=100).collect();
        assert_eq!(quantile(&sorted, 0.5), 50.0);
        assert_eq!(quantile(&sorted, 0.99), 99.0);
        assert_eq!(quantile::<u32>(&[], 0.5), 0.0);
    }

    #[test]
    fn histogram_quantiles_interpolate_inside_buckets() {
        let mut h = Histogram::default();
        for ns in [1_100, 1_300, 1_500, 1_700] {
            h.record(ns);
        }
        // All four fall in [1024, 2048); the median is half way through.
        assert_eq!(histogram_quantile_ns(&h, 0.5), 1_536.0);
        assert_eq!(histogram_quantile_ns(&h, 1.0), 1_700.0);
        assert_eq!(histogram_quantile_ns(&Histogram::default(), 0.5), 0.0);
    }

    #[test]
    fn json_strings_escape() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
