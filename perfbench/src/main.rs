//! The lecopt benchmark: one binary, three workloads.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload optimize-cold --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Every run builds its inputs from `--seed`, measures whole rounds of
//! requests for `--seconds` seconds, setting up afresh before every round
//! (the median set-up time is `setup_s`), checks the program's outputs
//! outside the timed phase, and prints one JSON object as its last line of
//! output. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones from a traced phase measured after an untraced one. See
//! `perfbench/README.md`.

mod checks;
mod instrument;
mod optimize_cold;
mod serve;
mod stats;

use instrument::CountingAlloc;
use std::process::ExitCode;

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Command-line arguments, all required.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds {s} outside 1..=600"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What one run reports: the correctness verdict, operation counts and
/// named metrics with their units.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// One reported metric: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// The end-to-end metrics, in `BENCHMARK.json` order.
pub fn end_to_end(
    setup_times: &[f64],
    latencies_ns: &[u64],
    throughput: f64,
    allocs_per_req: f64,
    candidates_per_req: f64,
    truth_cost_ratio: f64,
) -> Result<Vec<Metric>, String> {
    let mut lat = latencies_ns.to_vec();
    lat.sort_unstable();
    Ok(vec![
        ("setup_s", stats::median(setup_times), "s"),
        ("throughput_rps", throughput, "req/s"),
        ("latency_p50_us", stats::quantile(&lat, 0.5) / 1e3, "us"),
        ("latency_p99_us", stats::p99(&lat)? / 1e3, "us"),
        (
            "peak_rss_mb",
            instrument::peak_rss_mib().ok_or("peak resident set unavailable")?,
            "MiB",
        ),
        ("allocs_per_req", allocs_per_req, "allocs"),
        ("candidates_per_req", candidates_per_req, "candidates"),
        ("truth_cost_ratio", truth_cost_ratio, "ratio"),
    ])
}

/// Every per-layer metric with its unit, in `BENCHMARK.json` order.
const LAYER_METRICS: [(&str, &str); 29] = [
    ("core.optimize_us", "us"),
    ("core.candidates_per_call", "candidates"),
    ("core.masks_per_call", "masks"),
    ("core.entries_per_call", "entries"),
    ("core.allocs_per_call", "allocs"),
    ("core.optimizer_runs", "count"),
    ("cost.step_calls_per_call", "calls"),
    ("cost.formula_evals_per_call", "calls"),
    ("plan.prepare_us", "us"),
    ("plan.verify_us", "us"),
    ("serve.serve_at_us", "us"),
    ("serve.prime_us", "us"),
    ("serve.allocs_per_req", "allocs"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_invalidations", "count"),
    ("serve.primed_consumed", "count"),
    ("serve.dedup_saved", "count"),
    ("serve.recalibrations", "count"),
    ("serve.reoptimize_decisions", "count"),
    ("serve.recost_decisions", "count"),
    ("serve.resamples", "count"),
    ("exec.execute_us", "us"),
    ("exec.io_pages_per_req", "pages"),
    ("cert.epsilon_mean", "ratio"),
    ("trace.throughput_rps", "req/s"),
    ("trace.untraced_throughput_rps", "req/s"),
    ("trace.overhead_pct", "%"),
];

/// The per-layer metrics with the given values; a layer a workload does not
/// reach reports 0. Also writes the traced phase's spans to
/// `perfbench/out/spans-<workload>-<seed>.tsv`, and derives the tracing
/// overhead from the two phases' throughputs.
pub fn per_layer(
    args: &Args,
    tracer: &instrument::Tracer,
    untraced_rps: f64,
    traced_rps: f64,
    values: &[(&'static str, f64)],
) -> Result<Vec<Metric>, String> {
    let path = std::path::Path::new("perfbench")
        .join("out")
        .join(format!("spans-{}-{}.tsv", args.workload, args.seed));
    tracer
        .write_tsv(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    let overhead = [
        ("trace.throughput_rps", traced_rps),
        ("trace.untraced_throughput_rps", untraced_rps),
        (
            "trace.overhead_pct",
            (untraced_rps / traced_rps - 1.0) * 100.0,
        ),
    ];
    let mut metrics: Vec<Metric> = LAYER_METRICS.iter().map(|&(n, u)| (n, 0.0, u)).collect();
    for &(name, value) in values.iter().chain(&overhead) {
        let slot = metrics
            .iter_mut()
            .find(|m| m.0 == name)
            .ok_or(format!("unknown per-layer metric {name}"))?;
        slot.1 = value;
    }
    Ok(metrics)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: perfbench --workload <optimize-cold|serve-hot|serve-churn> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "optimize-cold" => optimize_cold::run(&args),
        "serve-hot" => serve::run(&args, serve::Kind::Hot),
        "serve-churn" => serve::run(&args, serve::Kind::Churn),
        other => Err(format!("unknown workload `{other}`")),
    };
    match result {
        Ok(outcome) => {
            if let Some((name, value, _)) = outcome.metrics.iter().find(|m| !m.1.is_finite()) {
                eprintln!("error: metric {name} is not finite ({value})");
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
