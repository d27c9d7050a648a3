//! `repro` — regenerates every table and figure of the paper.
//!
//! Usage:
//!
//! ```text
//! repro [--scale quick|paper] [--seed N] [--exp NAME] [--json FILE]
//!       [--list-exps] [--trials N] [--plan fixed:N|ci:EPS[:CONF]|split:LEVELS]
//!       [--retries N] [--checkpoint FILE]
//!       [--checkpoint-every K] [--resume] [--watchdog-ms N]
//!       [--watchdog-events N] [--threads N]
//!       [--engine auto|serial|stealing] [--warmup N]
//!       [--snapshot-cache on|off]
//! repro serve [--addr A] [--spool DIR] [--workers N] [--queue N]
//!       [--heartbeat-ms N] [--io-timeout-ms N] [--checkpoint-every K]
//! repro servectl ping|submit|attach|status|metrics|shutdown
//!       [--addr A] [--job N] [--from-seq N] [--seed N] [--trials N]
//!       [--plan SPEC] [--requests N] [--warmup N] [--profile tiny|paper]
//!       [--exp NAME] [--attempts N] [--backoff-ms N] [--io-timeout-ms N]
//! ```
//!
//! Every experiment lives in the `pfault-platform` experiment registry
//! (`pfault_platform::experiments::registry`); this binary is a thin
//! driver: parse flags, look the experiment up by name, run it, print
//! its text, and collect its JSON. `--list-exps` walks the registry.
//! `--exp all` (the default) runs every registered experiment except the
//! operational modes (`campaign`, `sweep`), which must be named
//! explicitly.
//!
//! Explicitly selected experiments are self-checking: the driver exits
//! nonzero if the experiment reports check failures (for example,
//! `--exp recovery-storm` requires interrupted, resumed, and read-only
//! outcomes; `--exp fleet` requires correlated cuts to degrade MTTDL
//! below the independent baseline, and its first row to reproduce
//! bit-for-bit on another worker count; `--exp sweep` requires a clean
//! baseline sweep and a caught seeded bug). Under `--exp all` the same
//! checks are informational.
//!
//! `--engine` and `--threads` set the worker count of the figure and
//! extension sweeps and of `--exp campaign` (`ExperimentOpts::workers`):
//! `--engine serial` is one worker on the main thread, otherwise
//! `--threads N` workers, defaulting to the scale's count for the sweeps
//! and to one for `--exp campaign`. Every experiment folds its trials in
//! canonical order, so reports are byte-identical at every worker count.
//!
//! `--exp campaign` runs one raw fault-injection campaign with the
//! resilience controls: per-trial watchdog budgets, deterministic
//! retries, checkpoint/resume (at any worker count), and warm-snapshot
//! cloning (`--warmup`, `--snapshot-cache`). Campaigns are sized by a [`PlanSpec`]:
//! `--trials N` is shorthand for `--plan fixed:N`, and
//! `--plan ci:EPS[:CONF]` runs adaptively until the Wilson interval on
//! the data-loss rate has half-width at most EPS. `--exp plan` is the
//! planner's self-checking demonstration (Extension P).

use std::env;
use std::process::ExitCode;

use pfault_bench::{ScaleArg, DEFAULT_SEED};
use pfault_platform::experiments::{all, find, EngineArg, ExperimentCtx, ExperimentOpts};
use pfault_platform::plan::PlanSpec;
use pfault_serve::{Client, Daemon, DaemonConfig, JobSpec, Request, Response};

fn main() -> ExitCode {
    let argv: Vec<String> = env::args().skip(1).collect();
    // Subcommands: `repro serve` runs the campaign daemon in the
    // foreground, `repro servectl` is its client. Everything else is
    // the classic flag-driven experiment driver.
    match argv.first().map(String::as_str) {
        Some("serve") => return run_serve(&argv[1..]),
        Some("servectl") => return run_servectl(&argv[1..]),
        _ => {}
    }
    let mut scale = ScaleArg::Quick;
    let mut seed = DEFAULT_SEED;
    let mut exp = String::from("all");
    let mut json_path: Option<String> = None;
    let mut list_exps = false;
    let mut opts = ExperimentOpts::default();
    let mut args = argv.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--trials" => match num_flag(&mut args, "--trials") {
                Ok(n) => opts.plan = Some(PlanSpec::fixed(n)),
                Err(code) => return code,
            },
            "--plan" => {
                let v = args.next().unwrap_or_default();
                match PlanSpec::parse(&v) {
                    Ok(spec) => opts.plan = Some(spec),
                    Err(why) => {
                        eprintln!("bad --plan '{v}': {why}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--retries" => match num_flag(&mut args, "--retries") {
                Ok(n) => opts.retries = n as u32,
                Err(code) => return code,
            },
            "--checkpoint" => opts.checkpoint = args.next().map(Into::into),
            "--checkpoint-every" => match num_flag(&mut args, "--checkpoint-every") {
                Ok(n) => opts.checkpoint_every = n,
                Err(code) => return code,
            },
            "--resume" => opts.resume = true,
            "--minimize" => opts.minimize = true,
            "--inject-crc-bug" => opts.inject_crc_bug = true,
            "--watchdog-ms" => match num_flag(&mut args, "--watchdog-ms") {
                Ok(n) => opts.watchdog_ms = Some(n),
                Err(code) => return code,
            },
            "--watchdog-events" => match num_flag(&mut args, "--watchdog-events") {
                Ok(n) => opts.watchdog_events = Some(n),
                Err(code) => return code,
            },
            "--threads" => match num_flag(&mut args, "--threads") {
                Ok(n) => opts.threads = Some(n.max(1) as usize),
                Err(code) => return code,
            },
            "--warmup" => match num_flag(&mut args, "--warmup") {
                Ok(n) => opts.warmup = Some(n as usize),
                Err(code) => return code,
            },
            "--engine" => {
                let v = args.next().unwrap_or_default();
                match EngineArg::parse(&v) {
                    Some(e) => opts.engine = e,
                    None => {
                        eprintln!("unknown engine '{v}' (auto|serial|stealing)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--snapshot-cache" => {
                let v = args.next().unwrap_or_default();
                match v.as_str() {
                    "on" => opts.snapshot_cache = true,
                    "off" => opts.snapshot_cache = false,
                    _ => {
                        eprintln!("bad --snapshot-cache '{v}' (on|off)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--scale" => {
                let v = args.next().unwrap_or_default();
                match ScaleArg::parse(&v) {
                    Some(s) => scale = s,
                    None => {
                        eprintln!("unknown scale '{v}' (quick|paper)");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--seed" => {
                let v = args.next().unwrap_or_default();
                match v.parse() {
                    Ok(s) => seed = s,
                    Err(_) => {
                        eprintln!("bad seed '{v}'");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--exp" => exp = args.next().unwrap_or_default(),
            "--json" => json_path = args.next(),
            "--metrics" => opts.metrics_path = args.next().map(Into::into),
            "--trace" => opts.trace_path = args.next().map(Into::into),
            "--list-exps" => list_exps = true,
            "--help" | "-h" => {
                println!(
                    "repro [--scale quick|paper] [--seed N] [--exp NAME] [--json FILE] \
                     [--list-exps]\n\
                     \x20     [--trials N] [--plan fixed:N|ci:EPS[:CONF]|split:LEVELS] \
                     [--retries N]\n\
                     \x20     [--checkpoint FILE] [--checkpoint-every K]\n\
                     \x20     [--resume] [--watchdog-ms N] [--watchdog-events N]\n\
                     \x20     [--minimize] [--inject-crc-bug] [--metrics FILE] [--trace FILE]\n\
                     \x20     [--threads N] [--engine auto|serial|stealing] \
                     [--warmup N] [--snapshot-cache on|off]\n\
                     experiments: fig4 interval interval-nocache fig5 fig6 pattern \
                     fig7 fig8 fig9 table1 ablation-injector ablation-cache \
                     brownout wear flush recovery repeated recovery-storm fleet kv \
                     plan all campaign sweep\n\
                     fleet mode (--exp fleet, part of 'all') sweeps PSU-group size, \
                     parity depth, and outage\n\
                     correlation over an erasure-coded fleet, reporting availability, \
                     durability, and MTTDL\n\
                     kv mode (--exp kv, part of 'all') stacks a WAL'd KV store on \
                     the device and classifies every\n\
                     post-outage divergence as surfaced, masked, or silent poison, \
                     pairing CRC-verifying and\n\
                     half-applying firmware at equal seeds; the run self-checks its \
                     own class coverage\n\
                     plan mode (--exp plan, part of 'all') self-checks the adaptive \
                     planner: confidence-driven\n\
                     stopping must match a fixed-N campaign's band at >=10x fewer \
                     trials, byte-identical across\n\
                     worker counts and checkpoint/resume\n\
                     --engine/--threads set the worker count of the figure and \
                     extension sweeps and of campaign mode:\n\
                     serial is one, otherwise --threads (default: the scale's count, \
                     1 for campaign); same report at any count\n\
                     campaign mode (--exp campaign, not part of 'all') runs one raw \
                     campaign with watchdog budgets,\n\
                     deterministic retries, checkpoint/resume (any worker count), and \
                     --warmup snapshot cloning;\n\
                     sized by --plan fixed:N|ci:EPS[:CONF] (--trials N = --plan \
                     fixed:N)\n\
                     sweep mode (--exp sweep, not part of 'all') cuts power at every \
                     recorded fault site and checks\n\
                     recovery invariants; --inject-crc-bug seeds the apply-before-\
                     verify bug, --minimize shrinks the repro\n\
                     serve mode (--exp serve, not part of 'all') self-checks the \
                     campaign daemon end to end:\n\
                     kill/restart resume, exactly-once streams, backpressure, and \
                     graceful drain\n\
                     subcommands: 'repro serve' runs the daemon in the foreground \
                     (--addr --spool --workers\n\
                     --queue --heartbeat-ms --io-timeout-ms --checkpoint-every); \
                     'repro servectl' drives it\n\
                     (ping|submit|attach|status|metrics|shutdown, with --addr --job \
                     --from-seq --seed --trials\n\
                     --requests --warmup --profile --attempts --backoff-ms)\n\
                     --list-exps prints every registered experiment with a one-line \
                     description"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    if list_exps {
        for e in all() {
            let suffix = if e.in_all {
                ""
            } else {
                "  (not part of 'all')"
            };
            println!("{:<18} {}{suffix}", e.name, e.describe);
        }
        // Lives in pfault-serve (which depends on the platform, so it
        // cannot register in the platform's static registry).
        let serve = pfault_serve::experiment();
        println!("{:<18} {}  (not part of 'all')", serve.name, serve.describe);
        return ExitCode::SUCCESS;
    }
    let ctx = ExperimentCtx {
        scale: scale.scale(),
        seed,
        opts,
    };
    let mut json = serde_json::Map::new();
    if exp == "all" {
        for e in all().iter().filter(|e| e.in_all) {
            match (e.run)(&ctx) {
                Ok(report) => {
                    print!("{}", report.text);
                    json.insert(report.json_key.to_string(), report.json);
                    // Self-checks are informational under `all`; an
                    // explicit `--exp NAME` run enforces them below.
                }
                Err(err) => {
                    eprintln!("{} failed: {err}", e.name);
                    return ExitCode::FAILURE;
                }
            }
        }
    } else {
        let e = match find(&exp) {
            Some(e) => e,
            None if exp == "serve" => pfault_serve::experiment(),
            None => {
                eprintln!("unknown experiment '{exp}'");
                return ExitCode::FAILURE;
            }
        };
        match (e.run)(&ctx) {
            Ok(report) => {
                print!("{}", report.text);
                if !report.check_failures.is_empty() {
                    for failure in &report.check_failures {
                        eprintln!("{failure}");
                    }
                    return ExitCode::FAILURE;
                }
                json.insert(report.json_key.to_string(), report.json);
            }
            Err(err) => {
                eprintln!("{} failed: {err}", e.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = json_path {
        let doc = serde_json::json!({
            "paper": "Investigating Power Outage Effects on Reliability of SSDs (DATE 2018)",
            "seed": seed,
            "scale": format!("{scale:?}"),
            "reports": serde_json::Value::Object(json),
        });
        match std::fs::write(
            &path,
            serde_json::to_string_pretty(&doc).expect("serializable"),
        ) {
            Ok(()) => println!("wrote JSON reports to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

/// Parses the numeric value of `name` from the argument stream, printing
/// a usage error (and yielding the exit code) when missing or malformed.
fn num_flag(args: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, ExitCode> {
    let v = args.next().unwrap_or_default();
    v.parse().map_err(|_| {
        eprintln!("bad {name} '{v}' (expected a number)");
        ExitCode::FAILURE
    })
}

/// `repro serve`: the campaign daemon in the foreground. Runs until a
/// client sends `shutdown`, then drains (in-flight jobs checkpoint, the
/// queue stays spooled, the socket closes last) and exits.
fn run_serve(argv: &[String]) -> ExitCode {
    let mut config = DaemonConfig::new("serve-spool");
    config.addr = "127.0.0.1:7077".to_string();
    let mut args = argv.iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => config.addr = args.next().unwrap_or_default(),
            "--spool" => config.spool_dir = args.next().unwrap_or_default().into(),
            "--workers" => match num_flag(&mut args, "--workers") {
                Ok(n) => config.workers = n.max(1) as usize,
                Err(code) => return code,
            },
            "--queue" => match num_flag(&mut args, "--queue") {
                Ok(n) => config.queue_capacity = n.max(1) as usize,
                Err(code) => return code,
            },
            "--heartbeat-ms" => match num_flag(&mut args, "--heartbeat-ms") {
                Ok(n) => config.heartbeat_ms = n,
                Err(code) => return code,
            },
            "--io-timeout-ms" => match num_flag(&mut args, "--io-timeout-ms") {
                Ok(n) => config.io_timeout_ms = n,
                Err(code) => return code,
            },
            "--checkpoint-every" => match num_flag(&mut args, "--checkpoint-every") {
                Ok(n) => config.checkpoint_every = n.max(1),
                Err(code) => return code,
            },
            other => {
                eprintln!("unknown serve argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let spool = config.spool_dir.display().to_string();
    match Daemon::start(config) {
        Ok(daemon) => {
            println!(
                "pfault-serve listening on {} (spool: {spool})",
                daemon.local_addr()
            );
            daemon.join();
            println!("drained; spool retained at {spool}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("daemon failed to start: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `repro servectl ACTION`: client for a running daemon, with
/// exponential backoff + deterministic jitter on connect and on a
/// `Busy` queue.
fn run_servectl(argv: &[String]) -> ExitCode {
    let Some(action) = argv.first().cloned() else {
        eprintln!("servectl needs an action: ping|submit|attach|status|metrics|shutdown");
        return ExitCode::FAILURE;
    };
    let mut addr = "127.0.0.1:7077".to_string();
    let mut job = 0u64;
    let mut from_seq = 0u64;
    let mut attempts = 5u32;
    let mut backoff_ms = 50u64;
    let mut io_timeout_ms = 5_000u64;
    let mut spec = JobSpec::tiny_campaign(DEFAULT_SEED);
    let mut args = argv[1..].iter().cloned();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = args.next().unwrap_or_default(),
            "--job" => match num_flag(&mut args, "--job") {
                Ok(n) => job = n,
                Err(code) => return code,
            },
            "--from-seq" => match num_flag(&mut args, "--from-seq") {
                Ok(n) => from_seq = n,
                Err(code) => return code,
            },
            "--attempts" => match num_flag(&mut args, "--attempts") {
                Ok(n) => attempts = n.max(1) as u32,
                Err(code) => return code,
            },
            "--backoff-ms" => match num_flag(&mut args, "--backoff-ms") {
                Ok(n) => backoff_ms = n.max(1),
                Err(code) => return code,
            },
            "--io-timeout-ms" => match num_flag(&mut args, "--io-timeout-ms") {
                Ok(n) => io_timeout_ms = n,
                Err(code) => return code,
            },
            "--seed" => match num_flag(&mut args, "--seed") {
                Ok(n) => spec.seed = n,
                Err(code) => return code,
            },
            "--trials" => match num_flag(&mut args, "--trials") {
                Ok(n) => spec.trials = n,
                Err(code) => return code,
            },
            "--plan" => {
                let v = args.next().unwrap_or_default();
                match PlanSpec::parse(&v) {
                    Ok(plan) => spec.plan = Some(plan),
                    Err(why) => {
                        eprintln!("bad --plan '{v}': {why}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            "--requests" => match num_flag(&mut args, "--requests") {
                Ok(n) => spec.requests_per_trial = n,
                Err(code) => return code,
            },
            "--warmup" => match num_flag(&mut args, "--warmup") {
                Ok(n) => spec.warmup = n,
                Err(code) => return code,
            },
            "--checkpoint-every" => match num_flag(&mut args, "--checkpoint-every") {
                Ok(n) => spec.checkpoint_every = n,
                Err(code) => return code,
            },
            "--profile" => spec.profile = args.next().unwrap_or_default(),
            "--exp" => spec.exp = args.next().unwrap_or_default(),
            other => {
                eprintln!("unknown servectl argument '{other}'");
                return ExitCode::FAILURE;
            }
        }
    }
    let client = Client::connect_backoff(&addr, io_timeout_ms, attempts, backoff_ms, spec.seed);
    let mut client = match client {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let result = match action.as_str() {
        "ping" => client.call(&Request::Ping).map(|r| {
            println!("{r:?}");
        }),
        "submit" => client
            .submit_backoff(&spec, attempts, backoff_ms, spec.seed)
            .map(|id| {
                println!("accepted job {id}");
            }),
        "attach" => client.attach(job, from_seq).map(|stream| {
            use std::io::Write as _;
            let stdout = std::io::stdout();
            let mut out = stdout.lock();
            for event in stream {
                match event {
                    Ok(e) => match serde_json::to_string(&e) {
                        Ok(line) => {
                            // A closed downstream pipe (`| head`) ends
                            // the stream, it doesn't crash the client.
                            if writeln!(out, "{line}").is_err() {
                                break;
                            }
                        }
                        Err(err) => eprintln!("unserializable event: {err}"),
                    },
                    Err(e) => {
                        eprintln!("stream broke: {e}");
                        break;
                    }
                }
            }
        }),
        "status" => client.call(&Request::Status).map(|r| {
            if let Response::JobList { jobs } = r {
                println!("job  state            completed/trials  events  cache hit/miss");
                for j in jobs {
                    println!(
                        "{:<4} {:<16} {:>9}/{:<6} {:>6}  {}/{}{}",
                        j.job,
                        j.state,
                        j.completed,
                        j.trials,
                        j.events,
                        j.cache_hits,
                        j.cache_misses,
                        if j.convergence.is_empty() {
                            String::new()
                        } else {
                            format!("  [{}]", j.convergence)
                        }
                    );
                }
            } else {
                println!("{r:?}");
            }
        }),
        "metrics" => client.call(&Request::Metrics { job }).map(|r| {
            if let Response::MetricsSnapshot { jsonl, .. } = r {
                print!("{jsonl}");
            } else {
                println!("{r:?}");
            }
        }),
        "shutdown" => client.call(&Request::Shutdown).map(|r| {
            println!("{r:?}");
        }),
        other => {
            eprintln!("unknown action '{other}' (ping|submit|attach|status|metrics|shutdown)");
            return ExitCode::FAILURE;
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
