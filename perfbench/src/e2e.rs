//! The untraced run: host-corrected end-to-end metrics of one workload.

use crate::check::{check_rep, Outcome};
use crate::host::{peak_rss_bytes, HostClock, Timed};
use crate::report::Row;
use crate::stats::{log_slope, median, pearson, relative_iqr};
use crate::workloads::{invariance_checks, run_rep, Prepared, Workload};
use picocube_telemetry::keys;
use picocube_units::json::Json;
use std::time::{Duration, Instant};

/// Timed reps always taken, however short `--seconds` is.
pub const MIN_REPS: usize = 10;

/// The paper's measured average node power, µW (Fig. 6).
pub const PAPER_POWER_UW: f64 = 6.0;

/// Everything one untraced run measured.
#[derive(Debug)]
pub struct E2e {
    /// Reps and once-per-run checks attempted.
    pub attempted: u64,
    /// Of those, how many failed a check.
    pub failed: u64,
    /// Names of failed checks, with the rep index (or `run`).
    pub failures: Vec<String>,
    /// The contract metrics, `setup_s` excluded (the caller adds it).
    pub rows: Vec<Row>,
    /// Figures printed and recorded but not in the result line.
    pub extra: Vec<Row>,
    /// Run context: correction evidence and check outcomes.
    pub context: Vec<(String, Json)>,
}

/// Runs untimed warm-up, then timed reps until `seconds` have passed (at
/// least [`MIN_REPS`]), then the once-per-run checks.
pub fn run(prepared: &Prepared, seconds: f64) -> E2e {
    let nodes = prepared.nodes();
    let node_s = prepared.node_seconds();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // The warm-up rep fills lazy caches and is the reference outcome every
    // timed rep must reproduce. It is checked like any other rep.
    let first = run_rep(prepared);
    attempted += 1;
    let first = match first {
        Ok(outcome) => outcome,
        Err(error) => {
            return E2e {
                attempted,
                failed: 1,
                failures: vec![format!("warm-up: {error}")],
                rows: Vec::new(),
                extra: Vec::new(),
                context: Vec::new(),
            }
        }
    };
    let first_digest = first.digest();
    failed += record(
        &mut failures,
        "warm-up",
        &check_rep(&first, first_digest, nodes),
    );

    let mut clock = HostClock::new();
    let mut timed: Vec<Timed> = Vec::new();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while timed.len() < MIN_REPS || Instant::now() < deadline {
        let (t, outcome) = clock.time(|| run_rep(prepared));
        attempted += 1;
        let label = format!("rep {}", timed.len());
        failed += match outcome {
            Ok(outcome) => record(
                &mut failures,
                &label,
                &check_rep(&outcome, first_digest, nodes),
            ),
            Err(error) => record(&mut failures, &label, &[&error]),
        };
        timed.push(t);
    }
    let peak_rss = peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0);

    let mut checks = Vec::new();
    for (name, passed) in invariance_checks(prepared, &first) {
        attempted += 1;
        if !passed {
            failed += record(&mut failures, "run", &[name]);
        }
        checks.push((name.to_string(), Json::Bool(passed)));
    }
    let throughput: Vec<f64> = timed.iter().map(|t| node_s / t.wall()).collect();
    let raw_throughput: Vec<f64> = timed.iter().map(|t| node_s / t.raw_s).collect();
    let cpu: Vec<f64> = timed.iter().map(|t| t.cpu() * 1e6 / node_s).collect();
    let rows = vec![
        Row::sampled("node_s_per_s", "node_s/s", throughput.clone()),
        Row::sampled("cpu_us_per_node_s", "us/node_s", cpu),
        Row::exact("peak_rss_mib", "MiB", peak_rss),
        Row::exact(
            "packets_per_node_s",
            "1/node_s",
            first.offered as f64 / node_s,
        ),
        Row::exact("avg_power_uw", "uW", avg_power_uw(&first, node_s)),
    ];
    let mut extra = vec![
        Row::exact("delivery_ratio", "fraction", first.delivery_ratio()),
        Row::sampled("raw_node_s_per_s", "node_s/s", raw_throughput.clone()),
    ];
    if prepared.workload == Workload::TpmsPaper {
        let err = (avg_power_uw(&first, node_s) - PAPER_POWER_UW).abs() / PAPER_POWER_UW * 100.0;
        extra.push(Row::exact("power_err_pct", "%", err));
    }

    let kernels: Vec<f64> = timed.iter().map(|t| t.kernel_s).collect();
    let raw: Vec<f64> = timed.iter().map(|t| t.raw_s).collect();
    let context = vec![
        ("reps".into(), Json::UInt(timed.len() as u64)),
        (
            "kernel_median_ms".into(),
            Json::Num(median(&clock.kernels) * 1e3),
        ),
        (
            "kernel_rep_correlation".into(),
            Json::Num(pearson(&kernels, &raw)),
        ),
        (
            "kernel_rep_log_slope".into(),
            Json::Num(log_slope(&kernels, &raw)),
        ),
        (
            "rep_spread_raw".into(),
            Json::Num(relative_iqr(&raw_throughput)),
        ),
        (
            "rep_spread_corrected".into(),
            Json::Num(relative_iqr(&throughput)),
        ),
        ("rep_raw_s".into(), numbers(&raw)),
        ("rep_kernel_s".into(), numbers(&kernels)),
        ("offered".into(), Json::UInt(first.offered as u64)),
        (
            "delivered".into(),
            Json::UInt(first.unique_delivered as u64),
        ),
        ("events".into(), Json::UInt(first.events)),
        (
            "node_wakes".into(),
            Json::UInt(first.metrics.counter(keys::NODE_WAKES)),
        ),
        ("run_checks".into(), Json::Obj(checks)),
    ];
    E2e {
        attempted,
        failed,
        failures,
        rows,
        extra,
        context,
    }
}

/// Fleet-average simulated power: total ledger energy over node-seconds.
pub fn avg_power_uw(outcome: &Outcome, node_s: f64) -> f64 {
    outcome.metrics.gauge(keys::POWER_TOTAL_UJ) / node_s
}

fn numbers(values: &[f64]) -> Json {
    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect())
}

/// Notes a failed operation; returns 1 when it failed any check, else 0.
fn record(failures: &mut Vec<String>, label: &str, failed: &[&str]) -> u64 {
    if failed.is_empty() {
        return 0;
    }
    failures.push(format!("{label}: {}", failed.join(",")));
    1
}
