//! Percentiles and the reported metric record.

/// One reported metric: name, value, unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// Quantile `q` in `[0, 1]` of ascending `sorted` data, interpolating
/// linearly between the two nearest ranks (the "type 7" rule). 0 for no data.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Ascending copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

pub fn median(values: &[f64]) -> f64 {
    quantile(&sorted(values), 0.5)
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// The highest of p50/p90/p99/p99.9 with at least ten samples beyond it —
/// the tail a sample of size `n` can actually resolve (p50 below 20).
pub fn resolvable_tail(n: usize) -> f64 {
    // Per mille, so the "ten beyond" test is exact integer arithmetic.
    [999, 990, 900]
        .into_iter()
        .find(|permille| n * (1000 - permille) >= 10_000)
        .map_or(50.0, |permille| permille as f64 / 10.0)
}

/// Median, p90, p99 and the resolvable tail of a latency sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p90: f64,
    pub p99: f64,
    pub tail_pct: f64,
    pub tail: f64,
}

pub fn summarize(values: &[f64]) -> Summary {
    let s = sorted(values);
    let tail_pct = resolvable_tail(s.len());
    Summary {
        n: s.len(),
        p50: quantile(&s, 0.5),
        p90: quantile(&s, 0.9),
        p99: quantile(&s, 0.99),
        tail_pct,
        tail: quantile(&s, tail_pct / 100.0),
    }
}

/// SplitMix64: the seeded generator behind every input draw.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// `part / whole` as a percentage, 0 when `whole` is 0.
pub fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The result line: one JSON object with `correct`, `attempted`, `failed`
/// and `metrics`. Non-finite values cannot occur in JSON, so they print as 0.
pub fn result_json(attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            format!("\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates_between_ranks() {
        let s = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&s, 0.0), 1.0);
        assert_eq!(quantile(&s, 1.0), 4.0);
        assert_eq!(quantile(&s, 0.5), 2.5);
        assert!((quantile(&s, 0.25) - 1.75).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_ignores_input_order() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn resolvable_tail_keeps_ten_samples_beyond_it() {
        assert_eq!(resolvable_tail(10), 50.0);
        assert_eq!(resolvable_tail(99), 50.0);
        assert_eq!(resolvable_tail(100), 90.0);
        assert_eq!(resolvable_tail(999), 90.0);
        assert_eq!(resolvable_tail(1000), 99.0);
        assert_eq!(resolvable_tail(10_000), 99.9);
    }

    #[test]
    fn summary_of_a_uniform_ramp() {
        let values: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        let s = summarize(&values);
        assert_eq!(s.n, 101);
        assert_eq!(s.p50, 51.0);
        assert_eq!(s.p90, 91.0);
        assert_eq!(s.p99, 100.0);
        assert_eq!((s.tail_pct, s.tail), (90.0, 91.0));
    }

    #[test]
    fn ratios_guard_empty_denominators() {
        assert_eq!(pct(1.0, 4.0), 25.0);
        assert_eq!(pct(1.0, 0.0), 0.0);
        assert_eq!(ratio(3.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn result_line_is_one_json_object() {
        let line = result_json(
            4,
            0,
            &[Metric::new("a_ms", 1.5, "ms"), Metric::new("b", f64::NAN, "count")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 4, \"failed\": 0, \"metrics\": \
             {\"a_ms\": {\"value\": 1.5, \"unit\": \"ms\"}, \"b\": {\"value\": 0.0, \"unit\": \"count\"}}}"
        );
        assert!(result_json(1, 1, &[]).starts_with("{\"correct\": false"));
    }
}
