//! `pflayers` — the per-layer half of the benchmark: a traced trial and
//! the seam loops, linked against the crates' public functions. A
//! separate run on purpose: end-to-end metrics are measured with this
//! binary not running, and nothing inside the program is instrumented.
//!
//! ```text
//! pflayers --workload W --seed S --seeds N --trace-out FILE --scratch DIR [--smoke]
//! ```
//!
//! Runs `N` trials of the campaign workloads' trial configuration twice
//! per seed — once through `TestPlatform` (the untraced reference), once
//! through the span-recording mirror in `trial` — checks that both reach
//! the same outcome (`trace_parity`), then runs the seam loops. Prints
//! one JSON object on the last line of stdout; spans go to `FILE`.

mod seams;
mod spans;
#[path = "../../sweep_ops.rs"]
mod sweep_ops;
mod trial;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use pfault_platform::campaign::CampaignConfig;
use pfault_platform::experiments::ExperimentScale;
use pfault_platform::TestPlatform;
use pfault_sim::DetRng;

use seams::{median as p50, Rows, Seams};
use spans::{NameTotals, Recorder};
use trial::{name, Device, Parity};

struct Args {
    workload: String,
    seed: u64,
    seeds: u64,
    trace_out: Option<PathBuf>,
    scratch: PathBuf,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut parsed = Args {
        workload: "campaign_warm".to_string(),
        seed: 20180429,
        seeds: 400,
        trace_out: None,
        scratch: std::env::temp_dir().join(format!("pflayers-{}", std::process::id())),
        smoke: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            parsed.smoke = true;
            continue;
        }
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("bad {flag} '{value}'"))
        };
        match flag.as_str() {
            // Ends up in the report verbatim, so nothing that needs escaping.
            "--workload" if value.chars().all(|c| c.is_ascii_lowercase() || c == '_') => {
                parsed.workload = value;
            }
            "--seed" => parsed.seed = number()?,
            "--seeds" => parsed.seeds = number()?.max(1),
            "--trace-out" => parsed.trace_out = Some(value.into()),
            "--scratch" => parsed.scratch = value.into(),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(parsed)
}

/// The trial configuration of `repro --exp campaign --warmup 256` at the
/// default scale, which is also what a `--profile paper --requests 40
/// --warmup 256` daemon job runs.
fn campaign_platform() -> TestPlatform {
    let mut trial = CampaignConfig::paper_default().trial;
    trial.requests = ExperimentScale::quick().requests_per_trial;
    trial.warmup_requests = 256;
    TestPlatform::new(trial)
}

fn percentile(sorted: &[f64], pct: usize) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (pct * sorted.len()).div_ceil(100).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// What the traced trials add up to.
struct TraceSummary {
    rows: Rows,
    /// Share of all root time spent in each span name's own code.
    shares: Vec<(&'static str, f64)>,
    /// |sum of self times − sum of root spans| over the latter, percent.
    self_time_error_pct: f64,
}

fn summarize(rec: &Recorder, overlay_blocks: &[f64]) -> TraceSummary {
    let per_trial = rec.totals();
    let mut self_by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for totals in per_trial {
        for (name, t) in totals {
            *self_by_name.entry(name).or_default() += t.self_ns;
        }
    }
    let root_total: u64 = per_trial
        .iter()
        .filter_map(|t| t.get(name::TRIAL))
        .map(|t| t.duration_ns)
        .sum();
    let own_total: u64 = self_by_name.values().sum();
    let column = |names: &[&str], pick: fn(&NameTotals) -> u64| -> Vec<f64> {
        per_trial
            .iter()
            .map(|t| names.iter().filter_map(|n| t.get(n)).map(pick).sum::<u64>() as f64)
            .collect()
    };
    let us = |names: &[&str]| p50(column(names, |t| t.duration_ns)) / 1e3;
    let count = |names: &[&str]| p50(column(names, |t| t.count));
    let mut roots = column(&[name::TRIAL], |t| t.duration_ns);
    roots.sort_by(f64::total_cmp);
    // The harness: everything a trial costs that is not the device model.
    let harness: u64 = [
        name::TRIAL,
        name::WARMUP,
        name::CLONE_COW,
        name::DROP,
        name::CLASSIFY,
        name::BTT,
        name::TRACER,
        name::NEXT_PACKET,
    ]
    .iter()
    .filter_map(|n| self_by_name.get(n))
    .sum();
    let rows: Rows = vec![
        (
            "core.platform.trial_us_p50",
            percentile(&roots, 50) / 1e3,
            "us",
        ),
        (
            "core.platform.trial_us_p99",
            percentile(&roots, 99) / 1e3,
            "us",
        ),
        (
            "core.platform.bookkeeping_us",
            p50(column(&[name::TRIAL, name::WARMUP], |t| t.self_ns)) / 1e3,
            "us",
        ),
        (
            "core.platform.harness_share",
            harness as f64 / root_total as f64,
            "ratio",
        ),
        ("ssd.snapshot.clone_cow_us", us(&[name::CLONE_COW]), "us"),
        ("ssd.snapshot.drop_us", us(&[name::DROP]), "us"),
        (
            "ssd.snapshot.overlay_blocks",
            p50(overlay_blocks.to_vec()),
            "count",
        ),
        ("ssd.device.submit_us", us(&[name::SUBMIT]), "us"),
        (
            "ssd.device.advance_us",
            us(&[name::ADVANCE, name::NEXT_EVENT]),
            "us",
        ),
        ("ssd.device.drain_us", us(&[name::DRAIN]), "us"),
        ("ssd.device.submits", count(&[name::SUBMIT]), "count"),
        ("ssd.device.advances", count(&[name::ADVANCE]), "count"),
        ("ssd.device.power_fail_us", us(&[name::POWER_FAIL]), "us"),
        ("ssd.device.recover_us", us(&[name::RECOVER]), "us"),
        ("power.timeline_us", us(&[name::TIMELINE]), "us"),
        ("core.analyzer.classify_us", us(&[name::CLASSIFY]), "us"),
        ("trace.btt_analyze_us", us(&[name::BTT]), "us"),
        ("trace.tracer_us", us(&[name::TRACER]), "us"),
        ("workload.next_packet_us", us(&[name::NEXT_PACKET]), "us"),
    ];
    TraceSummary {
        rows,
        shares: self_by_name
            .iter()
            .map(|(n, own_ns)| (*n, *own_ns as f64 / root_total as f64))
            .collect(),
        self_time_error_pct: (own_total as f64 - root_total as f64).abs() / root_total as f64
            * 100.0,
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn run(args: &Args) -> Result<String, String> {
    let platform = campaign_platform();
    trial::supported(&platform)?;
    let image = platform.warm_image();
    let cold = args.workload == "campaign_cold";
    let device = if cold {
        Device::Cold
    } else {
        Device::Image(&image)
    };
    // A cold trial replays 256 warm-up requests: about five times the
    // spans and the time of a warm one, so it gets a fifth of the seeds.
    let seeds = if cold {
        (args.seeds / 5).max(1)
    } else {
        args.seeds
    };
    let mut rec = Recorder::new(if cold { 40_000 } else { 8_000 });

    // Reference and mirror alternate per seed, so machine drift hits both.
    let seed_stream = DetRng::new(args.seed);
    let (mut reference_ns, mut traced_ns, mut overlay) = (Vec::new(), Vec::new(), Vec::new());
    let mut mismatches = Vec::new();
    for i in 0..seeds {
        let seed = seed_stream.fork_index(i).next_u64();
        let started = Instant::now();
        let real = if cold {
            platform.run_trial(seed)
        } else {
            platform.run_trial_from_image(&image, seed)
        };
        reference_ns.push(started.elapsed().as_nanos() as f64);
        let expected = Parity::of(&real);
        drop(real);
        let started = Instant::now();
        let traced = trial::traced_trial(&mut rec, &platform, &device, seed);
        traced_ns.push(started.elapsed().as_nanos() as f64);
        rec.end_trial();
        overlay.push(traced.overlay_blocks as f64);
        if traced.parity != expected {
            mismatches.push(seed);
        }
    }
    let summary = summarize(&rec, &overlay);
    let (reference, traced) = (p50(reference_ns), p50(traced_ns));
    let parity = mismatches.is_empty();
    if let Some(path) = &args.trace_out {
        rec.write_jsonl(path)
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    let span_count: u64 = rec
        .totals()
        .iter()
        .flat_map(|t| t.values())
        .map(|t| t.count)
        .sum();
    drop(rec);

    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("cannot create {}: {e}", args.scratch.display()))?;
    let seam_rows = Seams {
        divisor: if args.smoke { 16 } else { 1 },
        repeats: if args.smoke { 1 } else { 5 },
        threads: std::thread::available_parallelism()
            .map_or(1, usize::from)
            .min(4),
        platform: &platform,
        image: &image,
        scratch: &args.scratch,
        seed: args.seed,
    }
    .run();
    let _ = std::fs::remove_dir_all(&args.scratch);

    let mut rows = summary.rows;
    rows.push(("trace_parity", f64::from(u8::from(parity)), "count"));
    rows.push((
        "trace_overhead_pct",
        (traced - reference) / reference * 100.0,
        "%",
    ));
    rows.extend(seam_rows);
    let metrics: Vec<String> = rows
        .iter()
        .map(|(n, v, u)| format!("\"{n}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_number(*v)))
        .collect();
    let shares: Vec<String> = summary
        .shares
        .iter()
        .map(|(n, share)| format!("\"{n}\":{}", json_number(*share)))
        .collect();
    let mismatched: Vec<String> = mismatches.iter().take(16).map(u64::to_string).collect();
    Ok(format!(
        "{{\"workload\":\"{}\",\"flavour\":\"{}\",\"traced_trials\":{seeds},\"spans\":{span_count},\
         \"attempted\":{seeds},\"failed\":0,\"trace_parity\":{parity},\"parity_mismatch_seeds\":[{}],\
         \"untraced_trial_us_p50\":{},\"traced_trial_us_p50\":{},\"self_time_error_pct\":{},\
         \"self_time_share\":{{{}}},\"metrics\":{{{}}}}}",
        args.workload,
        if cold { "cold" } else { "image" },
        mismatched.join(","),
        json_number(reference / 1e3),
        json_number(traced / 1e3),
        json_number(summary.self_time_error_pct),
        shares.join(","),
        metrics.join(","),
    ))
}

fn main() -> ExitCode {
    match parse_args().and_then(|args| run(&args)) {
        Ok(report) => {
            println!("{report}");
            ExitCode::SUCCESS
        }
        Err(why) => {
            eprintln!("pflayers: {why}");
            ExitCode::FAILURE
        }
    }
}
