//! Order statistics over measured samples, and the diagnostic lines that
//! show how per-round throughput and per-class latency spread.

/// The `q`-quantile of `sorted` by the nearest-rank rule.
pub fn quantile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// The 99th percentile of at least 1,000 sorted samples, so that ten or
/// more samples lie beyond it.
pub fn p99(sorted: &[u64]) -> Result<f64, String> {
    if sorted.len() < 1000 {
        return Err(format!(
            "{} samples: too few for a 99th percentile",
            sorted.len()
        ));
    }
    Ok(quantile(sorted, 0.99))
}

/// Median of unsorted floats.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Prints per-round throughput (requests per second) to standard error.
pub fn print_rounds(workload: &str, round_ns: &[u64], per_round: usize) {
    let rates: Vec<f64> = round_ns
        .iter()
        .map(|&ns| per_round as f64 / (ns as f64 / 1e9))
        .collect();
    let shown: Vec<String> = rates.iter().map(|r| format!("{r:.0}")).collect();
    eprintln!("{workload}: per-round req/s {}", shown.join(" "));
}

/// Prints, per request class ordered by median latency, the class's share
/// of requests, the span of the latency order it covers, and its median and
/// 99th-percentile latency: the map of where the reported percentiles fall.
pub fn print_classes(workload: &str, latencies: &[u64], class_of: impl Fn(usize) -> String) {
    let mut by: std::collections::BTreeMap<String, Vec<u64>> = Default::default();
    for (i, &l) in latencies.iter().enumerate() {
        by.entry(class_of(i)).or_default().push(l);
    }
    let total = latencies.len().max(1) as f64;
    let mut rows: Vec<(String, f64, f64, f64)> = by
        .into_iter()
        .map(|(k, mut v)| {
            v.sort_unstable();
            let share = v.len() as f64 / total;
            (k, share, quantile(&v, 0.5), quantile(&v, 0.99))
        })
        .collect();
    rows.sort_by(|a, b| a.2.total_cmp(&b.2));
    let mut cum = 0.0;
    for (k, share, p50, p99) in rows {
        eprintln!(
            "{workload}: class {k:<12} {:5.1}%..{:5.1}%  p50 {:9.1} us  p99 {:9.1} us",
            cum * 100.0,
            (cum + share) * 100.0,
            p50 / 1e3,
            p99 / 1e3
        );
        cum += share;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.99), 990.0);
        assert_eq!(quantile(&v, 0.5), 500.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
