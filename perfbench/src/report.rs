//! Summary statistics and the result line.

/// Median of `values` (mean of the middle pair for an even count);
/// `0.0` for an empty slice.
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
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The percentile ladder a tail is chosen from, in tenths of a percent
/// (integers, so ranks are exact).
const LADDER: [usize; 6] = [500, 750, 900, 950, 990, 999];

/// The reported tail: the highest percentile of [`LADDER`] with at least
/// ten samples beyond it (nearest-rank), its value, and the sample count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    pub percentile: f64,
    pub value: f64,
    pub samples: usize,
}

/// `num / den`, or 0 when there is nothing to divide by (a layer or
/// backend a workload never exercises).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Nearest-rank position of the percentile `tenths / 10` among `n`
/// sorted samples: the 1-based rank `ceil(tenths * n / 1000)`.
fn rank(n: usize, tenths: usize) -> usize {
    (tenths * n).div_ceil(1000).clamp(1, n)
}

/// The tail of `values` by the rule above. With fewer than eleven
/// samples no percentile has ten beyond it; the maximum is reported as
/// the 100th percentile.
pub fn tail(values: &[f64]) -> Tail {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            percentile: 100.0,
            value: 0.0,
            samples: 0,
        };
    }
    for &p in LADDER.iter().rev() {
        let r = rank(n, p);
        if n - r >= 10 {
            return Tail {
                percentile: p as f64 / 10.0,
                value: v[r - 1],
                samples: n,
            };
        }
    }
    Tail {
        percentile: 100.0,
        value: v[n - 1],
        samples: n,
    }
}

/// Whether `name` is a valid metric name: starts with a letter or digit,
/// at most 64 letters, digits, `_`, `.` and `-`.
pub fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    let Some(first) = chars.next() else {
        return false;
    };
    name.len() <= 64
        && first.is_ascii_alphanumeric()
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a valid unit: at most 16 letters, digits, `_`, `/`,
/// `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// The result line: `correct`, `attempted`, `failed` and the metrics.
/// A value that is not finite is written as 0 (and flagged by the caller
/// as a failure before it gets here).
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{{}}}}}",
        body.join(",")
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// when `/proc` does not report it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// 64-bit FNV-1a, folded over successive byte strings.
pub fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn tail_is_highest_ladder_step_with_ten_beyond() {
        // 1000 samples: p99 leaves 10 beyond (rank 990), p99.9 only 1.
        let t = tail(&ramp(1000));
        assert_eq!((t.percentile, t.value, t.samples), (99.0, 990.0, 1000));
        // 200 samples: p95 leaves 10 (rank 190); p99 leaves 2.
        let t = tail(&ramp(200));
        assert_eq!((t.percentile, t.value), (95.0, 190.0));
        // 199 samples: p95 is rank 190 with 9 beyond, so p90 (rank 180).
        let t = tail(&ramp(199));
        assert_eq!((t.percentile, t.value), (90.0, 180.0));
        // 20 samples: p50 is rank 10 with exactly 10 beyond.
        let t = tail(&ramp(20));
        assert_eq!((t.percentile, t.value), (50.0, 10.0));
    }

    #[test]
    fn tail_falls_back_to_the_maximum_on_few_samples() {
        let t = tail(&[3.0, 1.0, 2.0]);
        assert_eq!((t.percentile, t.value, t.samples), (100.0, 3.0, 3));
        assert_eq!(tail(&[]).samples, 0);
    }

    #[test]
    fn tail_ignores_input_order() {
        let mut v = ramp(500);
        v.reverse();
        assert_eq!(tail(&v), tail(&ramp(500)));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn metric_name_charset() {
        for ok in [
            "kips",
            "kips.base",
            "point_p50_ms",
            "mem.il1_miss_rate",
            "9lives",
            "a-b",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            ".kips",
            "_x",
            "-x",
            "kips base",
            "kips/s",
            "café",
            long.as_str(),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
        assert!(valid_metric_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "kinst/s", "%", "ns/inst"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn result_line_shape() {
        let m = [Metric {
            name: "wall_s",
            unit: "s",
            value: 1.25,
        }];
        assert_eq!(
            result_line(true, 4, 0, &m),
            "{\"correct\":true,\"attempted\":4,\"failed\":0,\"metrics\":{\"wall_s\":{\"value\":1.25,\"unit\":\"s\"}}}"
        );
    }
}
