//! `pfbench` — the repo benchmark's runner. Std-only: it links nothing
//! from the workspace, so it keeps building while the crates it measures
//! are refactored. Everything it measures end to end is a child process
//! timed from outside.
//!
//! ```text
//! pfbench run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]
//! pfbench smoke
//! pfbench compare OLD.json NEW.json
//! ```
//!
//! `run --workload W` measures one workload and prints, as the last line
//! of stdout, one JSON object `{correct, attempted, failed, metrics}`:
//! with `--trace 0` every end-to-end metric, with `--trace 1` every
//! per-layer metric (a separate, library-linked traced run). Without
//! `--workload` it runs all seven workloads and then the traced run, and
//! writes `benchmark/results/<n>-<rev>.json`. The exit code is non-zero
//! when an output check fails or anything attempted failed.

mod child;
mod compare;
mod env;
mod json;
mod layers;
mod metrics;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use env::Env;
use json::Value;
use layers::Layers;
use workloads::{Outcome, Size, WORKLOADS};

/// The paper's arXiv date; the default seed of the whole repo.
const DEFAULT_SEED: u64 = 20180429;
const DEFAULT_SECONDS: u64 = 10;
/// Traced trials per second of `--seconds`.
const TRACED_SEEDS_PER_SECOND: u64 = 40;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("smoke") if args.len() == 1 => Ok(smoke()),
        Some("compare") if args.len() == 3 => compare_files(&args[1], &args[2]),
        _ => Err(
            "usage: pfbench run [--workload NAME] [--seed N] [--seconds N] [--trace 0|1]\n\
             \x20      pfbench smoke\n\
             \x20      pfbench compare OLD.json NEW.json"
                .to_string(),
        ),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(why) => {
            eprintln!("{why}");
            ExitCode::from(2)
        }
    }
}

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
    };
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} '{value}' (expected a whole number)"))
        };
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.iter().any(|(name, _)| name == value) {
                    let names: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
                    return Err(format!("unknown workload '{value}' ({})", names.join("|")));
                }
                parsed.workload = Some(value.clone());
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = number()? != 0,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

fn print_outcome(out: &Outcome) {
    let (attempted, failed) = metrics::tally(out);
    println!(
        "== {} ({} thread(s), {} timed job(s), {} failed of {} attempted) ==",
        out.name,
        out.threads,
        out.jobs.len(),
        failed,
        attempted
    );
    if let Some(why) = &out.unavailable {
        println!("  unavailable: {why}");
    }
    for (name, unit, value, spread) in metrics::end_to_end(out) {
        match spread {
            Some(pct) => println!("  {name:<30} {value:>14.4} {unit:<6} (run spread {pct:.1} %)"),
            None => println!("  {name:<30} {value:>14.4} {unit}"),
        }
    }
    let list = |f: fn(&workloads::Job) -> f64| -> String {
        let shown: Vec<String> = out
            .jobs
            .iter()
            .take(12)
            .map(|j| format!("{:.1}", f(j)))
            .collect();
        let more = if out.jobs.len() > 12 { ", …" } else { "" };
        format!("{}{more}", shown.join(", "))
    };
    println!(
        "  samples done_ms [{}] cpu_ms [{}] trials [{}]",
        list(|j| j.done_ms),
        list(|j| j.cpu_ms),
        list(|j| j.trials as f64)
    );
    for check in &out.checks {
        println!(
            "  check {:<24} {}  {}",
            check.name,
            if check.ok { "ok    " } else { "FAILED" },
            check.detail
        );
    }
    for job in out.jobs.iter().chain(&out.setup_jobs).filter(|j| !j.ok) {
        println!("  job with seed {} failed: {}", job.seed, job.error);
    }
}

fn print_layers(layers: &Layers) {
    println!("== per-layer (traced run; not running while the above was measured) ==");
    if let Some(why) = &layers.unavailable {
        println!("  unavailable: {why}");
    }
    for (name, value, unit) in &layers.metrics {
        println!("  {name:<36} {value:>14.4} {unit}");
    }
    for name in layers.missing() {
        println!("  {name:<36} missing");
    }
}

/// The last line of stdout in single-workload mode.
fn result_line(correct: bool, attempted: u64, failed: u64, metrics: Value) -> String {
    Value::obj(vec![
        ("correct", Value::Bool(correct)),
        ("attempted", Value::int(attempted.max(1))),
        ("failed", Value::int(failed)),
        ("metrics", metrics),
    ])
    .compact()
}

fn run(args: &[String]) -> Result<bool, String> {
    let args = parse_run_args(args)?;
    let env = Env::discover();
    let size = Size::full(args.seconds as f64);
    let traced_seeds = TRACED_SEEDS_PER_SECOND * args.seconds;
    let Some(workload) = &args.workload else {
        return run_all(&env, &size, args.seed, traced_seeds);
    };
    if args.trace {
        let layers = layers::run(&env, workload, args.seed, traced_seeds, false, None);
        print_layers(&layers);
        println!(
            "{}",
            result_line(
                layers.correct(),
                layers.attempted,
                layers.failed,
                metrics::metrics_object(layers.metrics.iter().cloned()),
            )
        );
        return Ok(layers.correct());
    }
    let out = workloads::run(&env, workload, &size, args.seed);
    print_outcome(&out);
    let (attempted, failed) = metrics::tally(&out);
    let correct = metrics::correct(&out);
    // The result line carries exactly the table of `BENCHMARK.json`.
    let end_to_end = metrics::end_to_end(&out)
        .into_iter()
        .filter(|(name, ..)| metrics::END_TO_END.iter().any(|m| m.name == *name))
        .map(|(name, unit, value, _)| (name.to_string(), value, unit.to_string()));
    println!(
        "{}",
        result_line(
            correct,
            attempted,
            failed,
            metrics::metrics_object(end_to_end)
        )
    );
    Ok(metrics::passes(&out))
}

/// All seven workloads, then the traced run, then the result file.
fn run_all(env: &Env, size: &Size, seed: u64, traced_seeds: u64) -> Result<bool, String> {
    let mut outcomes = Vec::new();
    for (name, _) in WORKLOADS {
        eprintln!("pfbench: {name} …");
        let out = workloads::run(env, name, size, seed);
        print_outcome(&out);
        outcomes.push(out);
    }
    eprintln!("pfbench: traced run …");
    let daemon = outcomes
        .iter()
        .find(|out| out.name == "serve_jobs" && !out.layer.is_empty())
        .map(|out| out.layer.clone());
    let layers = layers::run(env, "campaign_warm", seed, traced_seeds, false, daemon);
    print_layers(&layers);
    let path = next_result_path(env)?;
    let doc = result_file(env, size, seed, &outcomes, &layers);
    std::fs::write(&path, doc.pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    // The layer table does not decide the exit code: its mirror of the
    // trial is expected to retire.
    Ok(outcomes.iter().all(metrics::passes))
}

/// `benchmark/results/<n>-<rev>.json` with the next free `n`: result
/// files are a trajectory and are never overwritten.
fn next_result_path(env: &Env) -> Result<PathBuf, String> {
    let dir = env.results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    let taken = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot list {}: {e}", dir.display()))?
        .flatten()
        .filter_map(|entry| result_index(&entry.file_name().to_string_lossy()))
        .max()
        .unwrap_or(0);
    Ok(dir.join(format!("{:04}-{}.json", taken + 1, env::git_rev(&env.root))))
}

/// `0007-abc1234.json` → 7.
fn result_index(file_name: &str) -> Option<u32> {
    let (index, rest) = file_name.split_once('-')?;
    (rest.ends_with(".json") && index.len() == 4).then(|| index.parse().ok())?
}

fn result_file(env: &Env, size: &Size, seed: u64, outcomes: &[Outcome], layers: &Layers) -> Value {
    Value::obj(vec![
        ("schema", Value::int(1)),
        // A result file measures; it claims nothing. A PR that claims a
        // gain says so in its own text, with both files beside it.
        ("claim", Value::Null),
        (
            "note",
            Value::str(
                "Host time of the simulator. Simulated statistics are checked for \
                 self-consistency only (same seed, same bytes); accuracy against the \
                 paper is not scored here.",
            ),
        ),
        ("machine", env::machine(&env.root)),
        ("seed", Value::int(seed)),
        ("seconds", Value::num(size.seconds)),
        (
            "workloads",
            Value::Obj(
                outcomes
                    .iter()
                    .map(|out| (out.name.clone(), metrics::outcome_json(out)))
                    .collect(),
            ),
        ),
        (
            "layers",
            Value::obj(vec![
                (
                    "status",
                    Value::str(if layers.unavailable.is_some() {
                        "unavailable"
                    } else {
                        "ok"
                    }),
                ),
                (
                    "reason",
                    layers.unavailable.clone().map_or(Value::Null, Value::str),
                ),
                (
                    "metrics",
                    metrics::metrics_object(layers.metrics.iter().cloned()),
                ),
                ("detail", layers.detail.clone()),
            ]),
        ),
    ])
}

/// Every workload once at a tiny size, then the traced run at a tiny
/// size: all output checks on, every metric name present with its unit.
fn smoke() -> bool {
    let env = Env::discover();
    let size = Size::smoke();
    let mut good = true;
    let mut daemon = None;
    for (name, _) in WORKLOADS {
        let out = workloads::run(&env, name, &size, DEFAULT_SEED);
        print_outcome(&out);
        let reported = metrics::end_to_end(&out);
        let complete = metrics::judged().all(|m| {
            reported.iter().any(|(name, unit, value, _)| {
                *name == m.name && *unit == m.unit && value.is_finite()
            })
        });
        if !complete {
            println!("  a metric of the table is missing or not a number");
        }
        good &= complete && metrics::passes(&out);
        if name == "serve_jobs" {
            daemon = Some(out.layer);
        }
    }
    let layers = layers::run(&env, "campaign_warm", DEFAULT_SEED, 8, true, daemon);
    print_layers(&layers);
    let units_match = layers::LAYER_METRICS.iter().all(|(name, unit)| {
        layers
            .metrics
            .iter()
            .any(|(n, value, u)| n == name && u == unit && value.is_finite())
    });
    if !units_match {
        println!("  a layer metric is missing, not a number, or has the wrong unit");
    }
    good &= layers.correct() && units_match;
    println!("smoke: {}", if good { "ok" } else { "FAILED" });
    good
}

fn compare_files(old: &str, new: &str) -> Result<bool, String> {
    let load = |path: &str| {
        let text = std::fs::read_to_string(Path::new(path))
            .map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, regressed) = compare::compare(&load(old)?, &load(new)?);
    print!("{text}");
    Ok(!regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_files_are_numbered_not_overwritten() {
        assert_eq!(result_index("0007-abc1234.json"), Some(7));
        assert_eq!(result_index("0012-unknown.json"), Some(12));
        assert_eq!(result_index("trace-abc1234.jsonl"), None);
        assert_eq!(result_index("7-abc.json"), None);
        assert_eq!(result_index("README.md"), None);
    }

    #[test]
    fn run_flags_are_checked_where_they_enter() {
        let args = |list: &[&str]| list.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let ok = parse_run_args(&args(&[
            "--workload",
            "kv_grid",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ]))
        .expect("valid");
        assert_eq!(ok.workload.as_deref(), Some("kv_grid"));
        assert_eq!((ok.seed, ok.seconds, ok.trace), (7, 3, true));
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--seed", "x"])).is_err());
        assert!(parse_run_args(&args(&["--seed"])).is_err());
        assert!(parse_run_args(&args(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn the_result_line_has_exactly_the_four_keys() {
        let line = result_line(
            true,
            1000,
            0,
            metrics::metrics_object([("setup_s".to_string(), 0.8127, "s".to_string())]),
        );
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":1000,"failed":0,"metrics":{"setup_s":{"value":0.8127,"unit":"s"}}}"#
        );
    }

    /// `BENCHMARK.json` is what the acceptance driver reads; the tables in
    /// this binary are what it runs. They must say the same.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
            .expect("valid JSON");
        let names = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .map_or(&[][..], Value::as_arr)
                .iter()
                .map(|entry| {
                    let field = |k: &str| {
                        entry
                            .get(k)
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let expected: Vec<&str> = WORKLOADS.iter().map(|(name, _)| *name).collect();
        assert_eq!(workloads, expected);
        let expected: Vec<(String, String)> = layers::LAYER_METRICS
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(names("per_layer"), expected);
        let entries = doc.get("end_to_end").map_or(&[][..], Value::as_arr);
        assert_eq!(entries.len(), metrics::END_TO_END.len());
        for (entry, metric) in entries.iter().zip(&metrics::END_TO_END) {
            assert_eq!(entry.get("name").and_then(Value::as_str), Some(metric.name));
            assert_eq!(entry.get("unit").and_then(Value::as_str), Some(metric.unit));
            let better = match metric.better {
                metrics::Better::Lower => "lower",
                metrics::Better::Higher => "higher",
            };
            assert_eq!(entry.get("better").and_then(Value::as_str), Some(better));
            assert_eq!(
                entry.get("bound").and_then(Value::as_f64),
                Some(metric.bound)
            );
        }
        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_u64),
            Some(DEFAULT_SECONDS)
        );
    }
}
