//! End-to-end and per-layer benchmark of the PicoCube simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload tpms_paper|motion_ckpt|relay_mesh|all \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` measures the per-layer rows and a traced run of the
//! workload. The last stdout line is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`; the full record, with run context
//! and spans, goes to `perfbench/out/`. See `perfbench/README.md`.

mod alloc;
mod check;
mod e2e;
mod host;
mod layers;
mod report;
mod stats;
mod trace;
mod workloads;

use host::{correct, reference_kernel};
use picocube_node::Parallelism;
use picocube_units::json::Json;
use report::{git_rev, result_line, rows_json, Row};
use std::process::{Command, ExitCode};
use std::time::Instant;
use workloads::{hardware_threads, setup, Workload};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Fresh processes whose set-up time is measured; `setup_s` is their
/// median.
const SETUP_PROBES: usize = 21;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    /// A workload name, or `all`.
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time one set-up in this fresh process and exit.
    setup_probe: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        setup_probe: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--setup-probe" {
            parsed.setup_probe = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => parsed.workload = value.clone(),
            "--seed" => parsed.seed = value.parse().map_err(bad)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(parsed.seconds.is_finite() && parsed.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if parsed.workload != "all" && Workload::parse(&parsed.workload).is_none() {
        return Err(format!(
            "--workload must be one of tpms_paper, motion_ckpt, relay_mesh, all (got {:?})",
            parsed.workload
        ));
    }
    Ok(parsed)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}");
            return ExitCode::from(2);
        }
    };
    let outcome = if args.setup_probe {
        setup_probe(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("perfbench: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Child mode: one set-up in a fresh process (so the firmware assembly
/// and decode caches start cold), bracketed by kernel runs. Prints
/// `{"raw_s":..,"kernel_before_s":..,"kernel_after_s":..}`.
fn setup_probe(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(&args.workload).ok_or("probe needs one workload")?;
    // The first kernel run maps the allocator's arenas; it is not used.
    reference_kernel();
    let before = reference_kernel();
    let t0 = Instant::now();
    setup(workload, args.seed, workload.nodes())?;
    let raw_s = t0.elapsed().as_secs_f64();
    let after = reference_kernel();
    let line = Json::Obj(vec![
        ("raw_s".into(), Json::Num(raw_s)),
        ("kernel_before_s".into(), Json::Num(before)),
        ("kernel_after_s".into(), Json::Num(after)),
    ]);
    println!("{line}");
    Ok(())
}

/// Runs `args` again in a child process of this executable and returns
/// the child's stdout.
fn child(args: &[String]) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args(args)
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "child {args:?} failed: {}",
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    String::from_utf8(out.stdout).map_err(|e| format!("child output: {e}"))
}

/// `setup_s`: the corrected set-up time of fresh processes, one sample
/// each.
fn setup_seconds(workload: Workload, seed: u64) -> Result<Row, String> {
    let mut samples = Vec::with_capacity(SETUP_PROBES);
    for _ in 0..SETUP_PROBES {
        let text = child(&[
            "--setup-probe".into(),
            "--workload".into(),
            workload.name().into(),
            "--seed".into(),
            seed.to_string(),
        ])?;
        let line = Json::parse(text.trim()).map_err(|e| format!("probe output: {e}"))?;
        let num = |key: &str| {
            line.get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("probe output lacks {key}"))
        };
        let kernel_s = (num("kernel_before_s")? + num("kernel_after_s")?) / 2.0;
        samples.push(correct(num("raw_s")?, kernel_s));
    }
    Ok(Row::sampled("setup_s", "s", samples))
}

fn run_one(args: &Args) -> Result<(), String> {
    let workload = Workload::parse(&args.workload).ok_or("one workload expected")?;
    // Serial end-to-end runs keep the kernel, the reps and the set-up
    // probes on one CPU. Traced runs stay unpinned: their layer rows
    // include a thread-speedup row and must read the same for every
    // workload.
    let pinned_cpu = if !args.trace && workload.parallelism() == Parallelism::Serial {
        hardware_threads();
        host::pin_to_current_cpu()
    } else {
        None
    };
    let prepared = setup(workload, args.seed, workload.nodes())?;
    let mut context = vec![
        ("workload".into(), Json::Str(workload.name().into())),
        ("seed".into(), Json::UInt(args.seed)),
        ("seconds".into(), Json::Num(args.seconds)),
        ("trace".into(), Json::Bool(args.trace)),
        ("git_rev".into(), Json::Str(git_rev())),
        (
            "available_parallelism".into(),
            Json::UInt(hardware_threads() as u64),
        ),
        ("nodes".into(), Json::UInt(prepared.nodes() as u64)),
        ("duration_s".into(), Json::Num(prepared.spec.duration_s)),
        ("kernel_ref_ms".into(), Json::Num(host::KERNEL_REF_S * 1e3)),
        ("host_sensitivity".into(), Json::Num(host::HOST_SENSITIVITY)),
        (
            "pinned_cpu".into(),
            pinned_cpu.map_or(Json::Null, |cpu| Json::UInt(cpu as u64)),
        ),
    ];
    let (attempted, failed, failures, rows, extra, spans) = if args.trace {
        let run = trace::run(&prepared, args.seed, args.seconds);
        context.extend(run.context);
        (
            run.attempted,
            run.failed,
            run.failures,
            run.rows,
            Vec::new(),
            Some(run.spans),
        )
    } else {
        let mut run = e2e::run(&prepared, args.seconds);
        run.rows.push(setup_seconds(workload, args.seed)?);
        context.extend(run.context);
        (
            run.attempted,
            run.failed,
            run.failures,
            run.rows,
            run.extra,
            None,
        )
    };

    println!(
        "perfbench {} seed {} ({} mode)",
        workload.name(),
        args.seed,
        if args.trace { "traced" } else { "end-to-end" }
    );
    for row in rows.iter().chain(&extra) {
        println!("{}", row.table_line());
    }
    for failure in &failures {
        println!("  FAILED {failure}");
    }
    let failures_json = Json::Arr(failures.iter().map(|f| Json::Str(f.clone())).collect());
    context.push(("failures".into(), failures_json));
    let record = Json::Obj(vec![
        ("context".into(), Json::Obj(context.clone())),
        ("metrics".into(), rows_json(&rows)),
        ("extra".into(), rows_json(&extra)),
        ("spans".into(), spans.unwrap_or(Json::Null)),
    ]);
    let path = write_record(workload.name(), args, &record)?;
    println!("  record: {path}");
    // Per-rep sample arrays stay in the record file only.
    context.retain(|(_, value)| !matches!(value, Json::Arr(_)));
    println!("context {}", Json::Obj(context));
    println!("{}", result_line(attempted, failed, &rows));
    Ok(())
}

/// Runs every workload, each in its own process so each peak RSS is its
/// own, and sums their counts into one result line whose metrics carry a
/// `<workload>.` prefix.
fn run_all(args: &Args) -> Result<(), String> {
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut rows = Vec::new();
    for workload in Workload::ALL {
        let text = child(&[
            "--workload".into(),
            workload.name().into(),
            "--seed".into(),
            args.seed.to_string(),
            "--seconds".into(),
            args.seconds.to_string(),
            "--trace".into(),
            if args.trace { "1" } else { "0" }.into(),
        ])?;
        let mut lines = text.lines().collect::<Vec<_>>();
        let last = lines.pop().ok_or("child printed nothing")?;
        for line in lines {
            println!("{line}");
        }
        let result = Json::parse(last).map_err(|e| format!("child result: {e}"))?;
        attempted += result.get("attempted").and_then(Json::as_u64).unwrap_or(0);
        failed += result.get("failed").and_then(Json::as_u64).unwrap_or(1);
        if let Some(Json::Obj(metrics)) = result.get("metrics") {
            for (name, metric) in metrics {
                let value = metric
                    .get("value")
                    .and_then(Json::as_f64)
                    .unwrap_or(f64::NAN);
                let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
                rows.push(Row::exact(
                    &format!("{}.{name}", workload.name()),
                    unit,
                    value,
                ));
            }
        }
    }
    println!("{}", result_line(attempted, failed, &rows));
    Ok(())
}

/// Writes the full record under `perfbench/out/` and returns its path.
fn write_record(workload: &str, args: &Args, record: &Json) -> Result<String, String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!(
        "{workload}-seed{}-trace{}.json",
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, format!("{record}\n"))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(path.display().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let args = parse_args(&strings(&[
            "--workload",
            "relay_mesh",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(args.workload, "relay_mesh");
        assert_eq!((args.seed, args.seconds, args.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(parse_args(&strings(&["--workload", "hit"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--trace", "2"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seconds", "0"])).is_err());
        assert!(parse_args(&strings(&["--workload", "all", "--seed"])).is_err());
        assert!(parse_args(&strings(&["--bogus", "1"])).is_err());
    }
}
