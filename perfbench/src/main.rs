//! `perfbench`: the repo's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1 [--repeat K]
//! ```
//!
//! Runs one named workload built from `--seed` for `--seconds`, checks
//! its outputs against a reference, and prints every metric by name with
//! its unit; the last line of standard output is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports
//! the end-to-end metrics, `--trace 1` the per-layer metrics of a traced
//! run. `--repeat K` runs the workload K times (seeds N, N+1, …) as
//! child processes and prints each metric's median and quartiles;
//! `--workload all` does that for every workload. The exit code is 0
//! only when every output check passed; 2 on a usage error.

mod mc;
mod report;
mod serve;
mod stats;
mod timed;
mod trace;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

use qecool::json::Json;

/// The workloads, in the order `--workload all` runs them.
const WORKLOADS: [&str; 3] = ["serve-live-qecool", "serve-replay-uf", "mc-sweep"];

/// End-to-end metrics (untraced runs), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("ops_per_s", "1/s"),
    ("step_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run, with units (the per-point
/// Monte-Carlo breakdown is appended by [`per_layer`]). The step tail
/// comes first: it is a whole-loop figure, but too host-bound on
/// serve-live-qecool to gate, so it is reported here without a bound.
const PER_LAYER: [(&str, &str); 30] = [
    ("step_p90_us", "us"),
    ("step_p99_us", "us"),
    ("surface_code.sample_s", "s"),
    ("surface_code.sample_round_us_p50", "us"),
    ("surface_code.feedback_s", "s"),
    ("surface_code.packed_read_s", "s"),
    ("sim.shard.push_s", "s"),
    ("sim.shard.stalls", "count"),
    ("sim.shard.dropped", "count"),
    ("sim.shard.backpressure", "count"),
    ("sim.service.pump_s", "s"),
    ("sim.service.pump_us_p50", "us"),
    ("sim.service.pump_us_p99", "us"),
    ("sim.service.pump_workers", "count"),
    ("decode.qecool_s", "s"),
    ("decode.uf_s", "s"),
    ("decode.round_us_p50", "us"),
    ("decode.round_us_p99", "us"),
    ("decode.qecool_cycles_p99", "cycles"),
    ("decode.qecool_overruns", "count"),
    ("sim.service.pump_per_decode", "ratio"),
    ("sim.service.poll_s", "s"),
    ("sim.service.corrections", "count"),
    ("sim.service.committed_rounds", "count"),
    ("sim.service.commit_lag_p99_rounds", "rounds"),
    ("sim.service.commit_lag_mean_rounds", "rounds"),
    ("sim.engine.run_batch_s", "s"),
    ("sim.engine.parallel_efficiency", "ratio"),
    ("unaccounted_share", "ratio"),
    ("trace_overhead", "ratio"),
];

fn end_to_end() -> Vec<(String, &'static str)> {
    END_TO_END.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}

/// Every per-layer metric name, with the per-point and per-`d`
/// Monte-Carlo breakdown expanded.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        PER_LAYER.iter().map(|&(n, u)| (n.to_owned(), u)).collect();
    let decoders = mc::decoders();
    for &d in &mc::DISTANCES {
        for (name, _) in &decoders {
            out.push((format!("sim.trials.shot_us.{name}.d{d}"), "us"));
        }
    }
    for &d in &mc::DISTANCES {
        out.push((format!("surface_code.sample_shot_us.d{d}"), "us"));
    }
    for &d in &mc::DISTANCES {
        for (name, _) in &decoders {
            out.push((format!("decode.shot_us.{name}.d{d}"), "us"));
        }
    }
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<u64>,
}

fn usage(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1 [--repeat K]",
        WORKLOADS.join("|")
    );
    std::process::exit(2)
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut repeat = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value()),
            "--seed" => {
                let v = value();
                seed = Some(v.parse().unwrap_or_else(|_| {
                    usage(&format!("--seed expects a non-negative integer, got '{v}'"))
                }));
            }
            "--seconds" => {
                let v = value();
                let s: f64 = v
                    .parse()
                    .unwrap_or_else(|_| usage(&format!("--seconds expects a number, got '{v}'")));
                if !(s > 0.0 && s <= 120.0) {
                    usage("--seconds must be in (0, 120]");
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value().as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace expects 0 or 1, got '{other}'")),
                });
            }
            "--repeat" => {
                let v = value();
                let k: u64 = v.parse().unwrap_or_else(|_| {
                    usage(&format!("--repeat expects a positive integer, got '{v}'"))
                });
                if k == 0 {
                    usage("--repeat must be >= 1");
                }
                repeat = Some(k);
            }
            "--help" | "-h" => {
                println!(
                    "usage: perfbench --workload {}|all --seed N --seconds S --trace 0|1 \
                     [--repeat K]",
                    WORKLOADS.join("|")
                );
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    let valid = WORKLOADS.contains(&workload.as_str()) || (workload == "all" && repeat.is_some());
    if !valid {
        usage(&format!(
            "unknown workload '{workload}' (\"all\" needs --repeat)"
        ));
    }
    Args {
        workload,
        seed: seed.unwrap_or_else(|| usage("--seed is required")),
        seconds: seconds.unwrap_or_else(|| usage("--seconds is required")),
        trace: trace.unwrap_or_else(|| usage("--trace is required")),
        repeat,
    }
}

/// Where a traced run writes its spans: next to the executable, i.e.
/// inside the build directory.
fn trace_path(workload: &str) -> PathBuf {
    let dir = std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    dir.join(format!("perfbench-trace-{workload}.tsv"))
}

fn run_once(args: &Args) -> ExitCode {
    let workload = args.workload.as_str();
    let report = if args.trace {
        let path = trace_path(workload);
        match workload {
            "serve-live-qecool" => {
                serve::run_traced(serve::Mode::LiveQecool, args.seed, args.seconds, &path)
            }
            "serve-replay-uf" => {
                serve::run_traced(serve::Mode::ReplayUf, args.seed, args.seconds, &path)
            }
            _ => mc::run_traced(args.seed, args.seconds, &path),
        }
    } else {
        match workload {
            "serve-live-qecool" => serve::run(serve::Mode::LiveQecool, args.seed, args.seconds),
            "serve-replay-uf" => serve::run(serve::Mode::ReplayUf, args.seed, args.seconds),
            _ => mc::run(args.seed, args.seconds),
        }
    };
    let catalogue = if args.trace {
        per_layer()
    } else {
        end_to_end()
    };
    for name in report.names() {
        assert!(
            catalogue.iter().any(|(n, _)| n == name),
            "metric {name} is not in the catalogue"
        );
    }
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    println!(
        "# {workload}: seed {}, {} s, {cores} cores available",
        args.seed, args.seconds
    );
    for line in report.notes() {
        println!("# {line}");
    }
    for (name, unit) in &catalogue {
        println!(
            "{name:<40} {:>16.6} {unit}",
            report.get(name).unwrap_or(0.0)
        );
    }
    println!(
        "# correct = {}, attempted = {}, failed = {}",
        report.correct, report.attempted, report.failed
    );
    println!("{}", report.to_json(&catalogue));
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `workload` `k` times as child processes and prints each metric's
/// median, quartiles and spread (IQR ÷ median).
fn repeat(args: &Args, workload: &str, k: u64) -> bool {
    let exe =
        std::env::current_exe().unwrap_or_else(|e| usage(&format!("cannot locate self: {e}")));
    let mut values: Vec<(String, String, Vec<f64>)> = Vec::new();
    let mut ok = true;
    for i in 0..k {
        let seed = args.seed + i;
        let out = Command::new(&exe)
            .args(["--workload", workload, "--seed", &seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                eprintln!("{workload} seed {seed}: cannot run: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().map(Json::parse);
        let Some(Ok(result)) = parsed else {
            eprintln!("{workload} seed {seed}: no result line");
            ok = false;
            continue;
        };
        let correct = result.get("correct") == Some(&Json::Bool(true));
        ok &= correct && out.status.success();
        eprintln!(
            "{workload} seed {seed}: correct = {correct}, attempted = {}, failed = {}",
            result.get("attempted").and_then(Json::as_u64).unwrap_or(0),
            result.get("failed").and_then(Json::as_u64).unwrap_or(0),
        );
        for (name, metric) in result
            .get("metrics")
            .and_then(Json::as_obj)
            .unwrap_or_default()
        {
            let value = metric
                .get("value")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN);
            let unit = metric.get("unit").and_then(Json::as_str).unwrap_or("");
            match values.iter_mut().find(|(n, _, _)| n == name) {
                Some((_, _, v)) => v.push(value),
                None => values.push((name.clone(), unit.to_owned(), vec![value])),
            }
        }
    }
    println!(
        "== {workload}: {k} runs, seeds {}..{}",
        args.seed,
        args.seed + k - 1
    );
    println!(
        "{:<40} {:>14} {:>14} {:>14} {:>8} unit",
        "metric", "q1", "median", "q3", "spread"
    );
    for (name, unit, v) in &values {
        match stats::quartiles(v) {
            Some((q1, med, q3)) => {
                let spread = if med != 0.0 {
                    (q3 - q1) / med.abs()
                } else {
                    0.0
                };
                println!("{name:<40} {q1:>14.4} {med:>14.4} {q3:>14.4} {spread:>8.4} {unit}");
            }
            None => println!(
                "{name:<40} {:>14} {:>14.4} {:>14} {:>8} {unit}",
                "-", v[0], "-", "-"
            ),
        }
    }
    println!("per-run values, in seed order:");
    for (name, _, v) in &values {
        let runs: Vec<String> = v.iter().map(|x| format!("{x:.6}")).collect();
        println!("  {name}: {}", runs.join(" "));
    }
    ok
}

fn main() -> ExitCode {
    let args = parse_args();
    match args.repeat {
        None => run_once(&args),
        Some(k) => {
            let workloads: Vec<&str> = if args.workload == "all" {
                WORKLOADS.to_vec()
            } else {
                vec![args.workload.as_str()]
            };
            let mut ok = true;
            for w in workloads {
                ok &= repeat(&args, w, k);
            }
            if ok {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalogues_are_valid_and_unique() {
        let mut all = end_to_end();
        all.extend(per_layer());
        assert_eq!(all.len(), END_TO_END.len() + PER_LAYER.len() + 27);
        for (i, (name, unit)) in all.iter().enumerate() {
            assert!(name.len() <= 64 && unit.len() <= 16);
            assert!(name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'));
            assert!(
                all[..i].iter().all(|(n, _)| n != name),
                "duplicate metric {name}"
            );
        }
    }

    #[test]
    fn catalogues_match_the_benchmark_manifest() {
        let manifest = include_str!("../../BENCHMARK.json");
        let parsed = Json::parse(manifest).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let listed: Vec<(String, String)> = parsed
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    (
                        m.get("name").and_then(Json::as_str).unwrap().to_owned(),
                        m.get("unit").and_then(Json::as_str).unwrap().to_owned(),
                    )
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .into_iter()
                .map(|(n, u)| (n, u.to_owned()))
                .collect();
            assert_eq!(listed, ours, "{key} differs from BENCHMARK.json");
        }
    }
}
