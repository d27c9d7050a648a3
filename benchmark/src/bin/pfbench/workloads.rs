//! The seven end-to-end workloads: what each one runs, its set-up, its
//! timed closed loop (one child at a time), and its output checks.

use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::child::{self, Finished, Running};
use crate::env::{nproc, Env, Program};
use crate::json::{self, Value};
use crate::stats;

/// Name and reason of every workload, in run order. `BENCHMARK.json`
/// carries the same list (a test compares them).
pub const WORKLOADS: [(&str, &str); 7] = [
    (
        "campaign_warm",
        "repro campaign, serial, every trial a CoW clone of one warm image: recovery, classify and front-end gains show here, image gains barely (clone is ~3 % of a trial)",
    ),
    (
        "campaign_cold",
        "same campaign with the snapshot cache off: every trial replays the 256-request warm-up, so write-path gains read largest and image gains must read flat",
    ),
    (
        "campaign_par",
        "same trials on the work-stealing engine with min(nproc,4) threads: only the scheduler, the ordered reduction and shared-image contention differ",
    ),
    (
        "kv_grid",
        "repro kv at paper scale: the only path through the KV store (WAL, checkpoints, retrying recovery), cold-built devices, no image, no campaign engine",
    ),
    (
        "fleet_grid",
        "repro fleet at paper scale: the only path through the erasure-coded fleet (8 devices per trial, Reed-Solomon encode/reconstruct, rebuild)",
    ),
    (
        "sweep_ladder",
        "pfsweep over 256 seed-generated ops: every cut re-drives its prefix from a cold device (quadratic), the one place warm-prefix or delta images can pay",
    ),
    (
        "serve_jobs",
        "small campaign jobs one after another through the daemon: frame, proto, spool, queue and the process-wide snapshot cache shared across requests",
    ),
];

/// A child that neither exits nor is killed by then is a bug in `child`.
const CLI_TIMEOUT: Duration = Duration::from_secs(90);
const CTL_TIMEOUT: Duration = Duration::from_secs(20);

/// How much work one invocation does. Everything a workload's cost
/// depends on is here, so `smoke` is the same code at a smaller size.
#[derive(Debug, Clone)]
pub struct Size {
    /// Length of the timed loop.
    pub seconds: f64,
    /// Set-up is repeated this often and its median reported.
    pub setup_repeats: usize,
    /// Trials per `repro` run of campaign_warm / _cold / _par.
    pub campaign_trials: [u64; 3],
    /// Trials of each engine-equality run in the campaign set-up.
    pub check_trials: u64,
    /// `--scale` of the kv and fleet grids.
    pub grid_scale: &'static str,
    pub sweep_ops: u64,
    /// Trials per daemon job.
    pub serve_trials: u64,
    /// The timed loop runs at least this many jobs…
    pub min_cli_jobs: usize,
    /// …and the daemon loop enough for a p90 with ten samples beyond it.
    pub min_serve_jobs: usize,
}

impl Size {
    pub fn full(seconds: f64) -> Size {
        Size {
            seconds,
            setup_repeats: 3,
            campaign_trials: [300, 120, 600],
            check_trials: 30,
            grid_scale: "paper",
            sweep_ops: 256,
            serve_trials: 8,
            min_cli_jobs: 3,
            min_serve_jobs: 110,
        }
    }

    pub fn smoke() -> Size {
        Size {
            seconds: 0.0,
            setup_repeats: 1,
            campaign_trials: [12, 12, 12],
            check_trials: 6,
            grid_scale: "quick",
            sweep_ops: 32,
            serve_trials: 4,
            min_cli_jobs: 1,
            min_serve_jobs: 3,
        }
    }
}

/// One request through the user-facing surface: a CLI invocation from
/// spawn to exit, or a daemon job from `servectl submit` to its terminal
/// event.
#[derive(Debug, Clone, Default)]
pub struct Job {
    pub seed: u64,
    /// Submission to the first result line (CLI: first stdout line).
    pub first_ms: f64,
    /// Submission to completion.
    pub done_ms: f64,
    /// Submission to the daemon's `accepted job` line (daemon jobs only).
    pub accept_ms: Option<f64>,
    /// Trials the job reported (or was asked for, when it failed).
    pub trials: u64,
    /// Trials without a usable result: the job's own panicked/watchdog
    /// ledger, or all of them if the job itself failed.
    pub failed_trials: u64,
    pub ok: bool,
    pub max_rss_kib: u64,
    /// CPU time of the job's child processes (for a daemon job: the two
    /// `servectl` clients only).
    pub cpu_ms: f64,
    /// FNV-1a of the report bytes: equal digests, equal simulation.
    pub digest: String,
    pub error: String,
}

/// A named pass/fail with a one-line explanation.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: &'static str,
    pub ok: bool,
    pub detail: String,
    /// Trials whose results the check vouches for.
    pub covers_trials: u64,
}

/// Everything one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub name: String,
    /// Why the workload could not run at all (build failure, …).
    pub unavailable: Option<String>,
    pub threads: usize,
    /// The command line of one timed job, seed spelled `S`.
    pub command: Vec<String>,
    pub setup_s: Vec<f64>,
    pub setup_jobs: Vec<Job>,
    pub jobs: Vec<Job>,
    /// First timed submission to last timed completion.
    pub span_s: f64,
    pub checks: Vec<Check>,
    /// Largest resident set of any child (for serve_jobs: the daemon).
    pub peak_rss_kib: u64,
    /// Simulated statistics, for `compare`'s "did the model change" note.
    pub info: Vec<(String, Value)>,
    /// Layer numbers only this run can see (daemon accept time, spool size).
    pub layer: Vec<(String, f64, String)>,
}

fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    format!("{h:016x}")
}

fn strings(args: &[&str]) -> Vec<String> {
    args.iter().map(|s| s.to_string()).collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Removes its directory when dropped, so scratch files go even when a
/// workload fails half way.
struct TempDir(PathBuf);

impl TempDir {
    fn create(env: &Env, label: &str) -> Result<TempDir, String> {
        let dir = env
            .tmp_root()
            .join(format!("{label}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // The shared parent goes too once the last run's directory has
        // (this fails, harmlessly, while another run still has one).
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

// ---------------------------------------------------------------------
// CLI workloads
// ---------------------------------------------------------------------

/// Which `repro --exp campaign` flag set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Engine {
    Warm,
    Cold,
    Par,
}

/// Threads of the one multi-threaded workload.
pub fn par_threads() -> usize {
    nproc().min(4)
}

fn campaign_args(engine: Engine, trials: u64, seed: &str, json: &str) -> Vec<String> {
    let threads = match engine {
        Engine::Par => par_threads(),
        Engine::Warm | Engine::Cold => 1,
    };
    strings(&[
        "--exp",
        "campaign",
        "--plan",
        &format!("fixed:{trials}"),
        "--engine",
        if engine == Engine::Par {
            "stealing"
        } else {
            "serial"
        },
        "--threads",
        &threads.to_string(),
        "--warmup",
        "256",
        "--snapshot-cache",
        if engine == Engine::Cold { "off" } else { "on" },
        "--seed",
        seed,
        "--json",
        json,
    ])
}

fn grid_args(exp: &str, scale: &str, seed: &str, json: &str) -> Vec<String> {
    strings(&[
        "--exp",
        exp,
        "--scale",
        scale,
        "--engine",
        "serial",
        "--threads",
        "1",
        "--seed",
        seed,
        "--json",
        json,
    ])
}

/// What a finished CLI child reported: trials, trials without an outcome,
/// and the bytes that define the simulation result.
struct Reported {
    trials: u64,
    failed_trials: u64,
    bytes: Vec<u8>,
}

/// Reads a `repro --json` file: `reports/<exp>` with either a campaign's
/// `faults` and failure ledger, or a grid's rows of `trials`.
fn read_repro_report(path: &Path, exp: &str) -> Result<Reported, String> {
    let bytes = fs::read(path).map_err(|e| format!("no report at {}: {e}", path.display()))?;
    let doc = json::parse(&String::from_utf8_lossy(&bytes))?;
    let report = doc
        .at(&format!("reports/{exp}"))
        .ok_or_else(|| format!("report has no reports/{exp}"))?;
    let (trials, failed_trials) = match report.get("faults").and_then(Value::as_u64) {
        Some(faults) => {
            let ledger = |key: &str| {
                report
                    .at(&format!("failures/{key}"))
                    .map_or(0, |v| v.as_arr().len() as u64)
            };
            (faults, ledger("panicked") + ledger("watchdog_expired"))
        }
        None => {
            let rows = report.get("rows").map_or(&[][..], Value::as_arr);
            let trials = rows
                .iter()
                .filter_map(|row| row.get("trials").and_then(Value::as_u64))
                .sum();
            (trials, 0)
        }
    };
    if trials == 0 {
        return Err(format!("reports/{exp} counts no trials"));
    }
    Ok(Reported {
        trials,
        failed_trials,
        bytes,
    })
}

/// Reads `pfsweep`'s one JSON line.
fn read_sweep_line(done: &Finished) -> Result<Reported, String> {
    let line = done
        .lines
        .last()
        .map(|(_, line)| line.as_str())
        .ok_or("pfsweep printed nothing")?;
    let doc = json::parse(line)?;
    let field = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("pfsweep line has no {key}"))
    };
    Ok(Reported {
        trials: field("cuts")?,
        failed_trials: field("failed")?,
        bytes: line.as_bytes().to_vec(),
    })
}

/// One CLI program, the flags of one job, and how to read its report.
struct Cli<'a> {
    binary: &'a Path,
    /// Scratch directory: the child's working directory and the home of
    /// its `--json` files.
    dir: &'a Path,
    /// Arguments for a seed and a report path.
    args: &'a dyn Fn(&str, &str) -> Vec<String>,
    read: &'a dyn Fn(&Path, &Finished) -> Result<Reported, String>,
}

impl Cli<'_> {
    /// The command line of one job, seed spelled `S` and report `F`.
    fn command(&self) -> Vec<String> {
        let name = self.binary.file_name().unwrap_or_default();
        std::iter::once(name.to_string_lossy().into_owned())
            .chain((self.args)("S", "F"))
            .collect()
    }

    /// Runs one child and turns it into a [`Job`] plus the report bytes.
    /// A child that cannot be spawned, exits non-zero, times out, or
    /// leaves no readable report fails every one of `expected_trials`.
    fn job(&self, label: &str, seed: u64, expected_trials: u64) -> (Job, Vec<u8>) {
        let failed = |error: String, done: Option<&Finished>| Job {
            seed,
            trials: expected_trials.max(1),
            failed_trials: expected_trials.max(1),
            done_ms: done.map_or(0.0, |d| ms(d.wall)),
            max_rss_kib: done.map_or(0, |d| d.max_rss_kib),
            error,
            ..Job::default()
        };
        let report = self.dir.join(format!("{label}.json"));
        let args = (self.args)(&seed.to_string(), &report.display().to_string());
        let done = match child::run(self.binary, &args, self.dir, CLI_TIMEOUT) {
            Ok(done) => done,
            Err(e) => {
                let why = format!("cannot spawn {}: {e}", self.binary.display());
                return (failed(why, None), Vec::new());
            }
        };
        if !done.exit.success() {
            let why = format!("{:?}: {}", done.exit, done.stderr.trim());
            return (failed(why, Some(&done)), Vec::new());
        }
        match (self.read)(&report, &done) {
            Ok(reported) => {
                let job = Job {
                    seed,
                    first_ms: done.lines.first().map_or(ms(done.wall), |(at, _)| ms(*at)),
                    done_ms: ms(done.wall),
                    trials: reported.trials,
                    failed_trials: reported.failed_trials,
                    ok: true,
                    max_rss_kib: done.max_rss_kib,
                    cpu_ms: ms(done.cpu),
                    digest: fnv1a(&reported.bytes),
                    ..Job::default()
                };
                (job, reported.bytes)
            }
            Err(why) => (failed(why, Some(&done)), Vec::new()),
        }
    }
}

/// The timed closed loop: jobs back to back until `seconds` have passed
/// (a job is started only if about half of it still fits) and at least
/// `min_jobs` ran.
fn timed_loop(seconds: f64, min_jobs: usize, mut run: impl FnMut(usize) -> Job) -> (Vec<Job>, f64) {
    let start = Instant::now();
    let mut jobs: Vec<Job> = Vec::new();
    loop {
        jobs.push(run(jobs.len()));
        let elapsed = start.elapsed().as_secs_f64();
        let last = jobs.last().map_or(0.0, |j| j.done_ms / 1e3);
        if jobs.len() >= min_jobs && elapsed + last / 2.0 >= seconds {
            return (jobs, elapsed);
        }
    }
}

fn run_campaign(
    env: &Env,
    size: &Size,
    engine: Engine,
    seed: u64,
    out: &mut Outcome,
) -> Result<(), String> {
    let repro = env.build(Program::Repro)?;
    let tmp = TempDir::create(env, &out.name)?;
    let read = |path: &Path, _: &Finished| read_repro_report(path, "campaign");
    out.threads = if engine == Engine::Par {
        par_threads()
    } else {
        1
    };

    // Set-up: the same seed under all three flag sets must give
    // byte-identical reports; the runs double as the warm-up.
    for _ in 0..size.setup_repeats {
        let started = Instant::now();
        let mut reports = Vec::new();
        for flags in [Engine::Warm, Engine::Cold, Engine::Par] {
            let args = |seed: &str, json: &str| campaign_args(flags, size.check_trials, seed, json);
            let check = Cli {
                binary: &repro,
                dir: &tmp.0,
                args: &args,
                read: &read,
            };
            let (job, bytes) = check.job(&format!("check-{flags:?}"), seed, size.check_trials);
            out.setup_jobs.push(job);
            reports.push(bytes);
        }
        out.setup_s.push(started.elapsed().as_secs_f64());
        let same = reports.iter().all(|r| !r.is_empty() && *r == reports[0]);
        out.checks.push(Check {
            name: "engines_byte_identical",
            ok: same,
            detail: format!(
                "seed {seed} x {} trials, serial+image / serial cold / stealing: reports {}",
                size.check_trials,
                if same { "identical" } else { "differ" }
            ),
            covers_trials: 3 * size.check_trials,
        });
    }

    let trials = size.campaign_trials[engine as usize];
    let args = |seed: &str, json: &str| campaign_args(engine, trials, seed, json);
    let timed = Cli {
        binary: &repro,
        dir: &tmp.0,
        args: &args,
        read: &read,
    };
    out.command = timed.command();
    let (jobs, span) = timed_loop(size.seconds, size.min_cli_jobs, |i| {
        let (job, bytes) = timed.job(&format!("run-{i}"), seed + i as u64, trials);
        if i == 0 {
            out.info = campaign_info(&bytes);
        }
        job
    });
    out.jobs = jobs;
    out.span_s = span;
    Ok(())
}

/// Simulated statistics of a campaign report (not scored; `compare`
/// prints when they change).
fn campaign_info(report_bytes: &[u8]) -> Vec<(String, Value)> {
    let Ok(doc) = json::parse(&String::from_utf8_lossy(report_bytes)) else {
        return Vec::new();
    };
    let Some(report) = doc.at("reports/campaign") else {
        return Vec::new();
    };
    let num = |path: &str| report.at(path).and_then(Value::as_f64).unwrap_or(0.0);
    let faults = num("faults").max(1.0);
    vec![
        (
            "data_loss_per_fault".to_string(),
            Value::num((num("counts/data_failures") + num("counts/fwa")) / faults),
        ),
        (
            "mean_responded_iops".to_string(),
            Value::num(num("responded_iops/mean")),
        ),
    ]
}

/// kv_grid, fleet_grid and sweep_ladder: a warm-up run in set-up, then
/// the timed loop; timed run 0 repeats the warm-up's seed and must
/// reproduce its output byte for byte.
fn run_repeatable(size: &Size, seed: u64, cli: &Cli, out: &mut Outcome) {
    out.threads = 1;
    out.command = cli.command();
    // Trials per run are known once a run has reported them.
    let mut trials = 1;
    let mut warm_bytes = Vec::new();
    for k in 0..size.setup_repeats {
        let started = Instant::now();
        let (job, bytes) = cli.job(&format!("warmup-{k}"), seed, trials);
        out.setup_s.push(started.elapsed().as_secs_f64());
        if job.ok {
            trials = job.trials;
        }
        out.setup_jobs.push(job);
        warm_bytes = bytes;
    }

    let mut first_bytes = Vec::new();
    let (jobs, span) = timed_loop(size.seconds, size.min_cli_jobs, |i| {
        let (job, bytes) = cli.job(&format!("run-{i}"), seed + i as u64, trials);
        if i == 0 {
            first_bytes = bytes;
        }
        job
    });
    let same = !warm_bytes.is_empty() && warm_bytes == first_bytes;
    out.checks.push(Check {
        name: "repeat_byte_identical",
        ok: same,
        detail: format!(
            "warm-up and timed run 0, seed {seed}: outputs {} ({} and {} bytes)",
            if same { "identical" } else { "differ" },
            warm_bytes.len(),
            first_bytes.len()
        ),
        covers_trials: jobs.first().map_or(0, |j| j.trials),
    });
    out.jobs = jobs;
    out.span_s = span;
}

fn run_grid(env: &Env, size: &Size, exp: &str, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let repro = env.build(Program::Repro)?;
    let tmp = TempDir::create(env, &out.name)?;
    let cli = Cli {
        binary: &repro,
        dir: &tmp.0,
        args: &|seed, json| grid_args(exp, size.grid_scale, seed, json),
        read: &|json, _| read_repro_report(json, exp),
    };
    run_repeatable(size, seed, &cli, out);
    Ok(())
}

fn run_sweep(env: &Env, size: &Size, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let pfsweep = env.build(Program::Pfsweep)?;
    let tmp = TempDir::create(env, &out.name)?;
    let cli = Cli {
        binary: &pfsweep,
        dir: &tmp.0,
        args: &|seed, _| strings(&["--seed", seed, "--ops", &size.sweep_ops.to_string()]),
        read: &|_, done| read_sweep_line(done),
    };
    run_repeatable(size, seed, &cli, out);
    Ok(())
}

// ---------------------------------------------------------------------
// serve_jobs
// ---------------------------------------------------------------------

/// A `repro serve` child. Always shut down, by request first and by
/// SIGKILL if that does not end it, also when the workload fails.
struct Daemon<'a> {
    repro: &'a Path,
    cwd: PathBuf,
    addr: String,
    running: Option<Running>,
}

impl<'a> Daemon<'a> {
    fn start(repro: &'a Path, cwd: &Path, spool: &Path) -> Result<Daemon<'a>, String> {
        // Port 0: the kernel picks a free one, the daemon prints it.
        let args = strings(&[
            "serve",
            "--addr",
            "127.0.0.1:0",
            "--workers",
            "1",
            "--spool",
            &spool.display().to_string(),
        ]);
        let mut running =
            child::spawn(repro, &args, cwd).map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let line = running.wait_for_line("listening on ", Duration::from_secs(10));
        let addr = line.as_deref().and_then(parse_listen_addr);
        let mut daemon = Daemon {
            repro,
            cwd: cwd.to_path_buf(),
            addr: addr.clone().unwrap_or_default(),
            running: Some(running),
        };
        if addr.is_none() {
            let done = daemon.stop();
            return Err(format!(
                "daemon never printed its address: {}",
                done.map_or_else(String::new, |d| d.stderr)
            ));
        }
        Ok(daemon)
    }

    fn ctl(&self, action: &str, extra: &[String]) -> std::io::Result<Finished> {
        let mut args = strings(&["servectl", action, "--addr", &self.addr]);
        args.extend_from_slice(extra);
        child::run(self.repro, &args, &self.cwd, CTL_TIMEOUT)
    }

    /// A client call that must exit 0.
    fn ctl_ok(&self, action: &str, extra: &[String]) -> Result<Finished, String> {
        match self.ctl(action, extra) {
            Ok(done) if done.exit.success() => Ok(done),
            Ok(done) => Err(format!("{action} {:?}: {}", done.exit, done.stderr.trim())),
            Err(e) => Err(format!("cannot spawn servectl: {e}")),
        }
    }

    /// Asks the daemon to drain, then reaps it; past the timeout it is
    /// killed. Returns the reaped child once.
    fn stop(&mut self) -> Option<Finished> {
        let running = self.running.take()?;
        if !self.addr.is_empty() {
            let _ = self.ctl("shutdown", &[]);
        }
        Some(running.finish(Duration::from_secs(if self.addr.is_empty() {
            0
        } else {
            10
        })))
    }
}

impl Drop for Daemon<'_> {
    fn drop(&mut self) {
        self.stop();
    }
}

/// `pfault-serve listening on 127.0.0.1:44405 (spool: …)` → the address.
pub fn parse_listen_addr(line: &str) -> Option<String> {
    let rest = line.split("listening on ").nth(1)?;
    let addr = rest.split_whitespace().next()?;
    let (host, port) = addr.rsplit_once(':')?;
    (!host.is_empty() && port.parse::<u16>().is_ok_and(|p| p != 0)).then(|| addr.to_string())
}

/// `accepted job 17` → 17.
pub fn parse_accepted(line: &str) -> Option<u64> {
    line.strip_prefix("accepted job ")?.trim().parse().ok()
}

/// One streamed event line of `servectl attach`.
#[derive(Debug, Clone, PartialEq)]
pub struct EventLine {
    pub job: u64,
    pub seq: u64,
    pub kind: String,
    pub completed: u64,
    pub trials: u64,
    pub digest: u64,
}

pub fn parse_event_line(line: &str) -> Result<EventLine, String> {
    let doc = json::parse(line)?;
    let int = |key: &str| {
        doc.get(key)
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("event has no integer '{key}'"))
    };
    Ok(EventLine {
        job: int("job")?,
        seq: int("seq")?,
        kind: doc
            .get("kind")
            .and_then(Value::as_str)
            .ok_or("event has no 'kind'")?
            .to_string(),
        completed: int("completed")?,
        trials: int("trials")?,
        digest: int("digest")?,
    })
}

/// A job's stream is good when its seqs are `0..n` dense, every event is
/// its own, and exactly one terminal event — a `done` covering all
/// trials — ends it.
pub fn check_stream(job: u64, events: &[EventLine]) -> Result<(), String> {
    let Some(last) = events.last() else {
        return Err("no events".to_string());
    };
    for (i, event) in events.iter().enumerate() {
        if event.job != job {
            return Err(format!(
                "event of job {} in the stream of job {job}",
                event.job
            ));
        }
        if event.seq != i as u64 {
            return Err(format!("seq {} at position {i}: not dense", event.seq));
        }
        if event.kind != "progress" && i + 1 != events.len() {
            return Err(format!(
                "terminal '{}' before the end of the stream",
                event.kind
            ));
        }
    }
    if last.kind != "done" {
        return Err(format!("stream ends with '{}', not 'done'", last.kind));
    }
    if last.completed != last.trials {
        return Err(format!(
            "done after {} of {} trials",
            last.completed, last.trials
        ));
    }
    Ok(())
}

/// The job every `servectl submit` of the workload asks for: the campaign
/// workloads' trial configuration, checkpointed every second trial.
fn job_spec(trials: u64, seed: &str) -> Vec<String> {
    strings(&[
        "--profile",
        "paper",
        "--trials",
        &trials.to_string(),
        "--requests",
        "40",
        "--warmup",
        "256",
        "--checkpoint-every",
        "2",
        "--seed",
        seed,
    ])
}

/// One daemon job, submit to terminal event. Any refusal, broken stream
/// or client failure fails all of the job's trials.
fn serve_job(daemon: &Daemon, trials: u64, seed: u64) -> Job {
    let origin = Instant::now();
    submit_and_attach(daemon, trials, seed, origin).unwrap_or_else(|error| Job {
        seed,
        trials,
        failed_trials: trials,
        done_ms: ms(origin.elapsed()),
        error,
        ..Job::default()
    })
}

fn submit_and_attach(
    daemon: &Daemon,
    trials: u64,
    seed: u64,
    origin: Instant,
) -> Result<Job, String> {
    let submit = daemon.ctl_ok("submit", &job_spec(trials, &seed.to_string()))?;
    let (accepted_at, id) = submit
        .lines
        .iter()
        .find_map(|(at, line)| parse_accepted(line).map(|id| (*at, id)))
        .ok_or("submit printed no 'accepted job'")?;
    let attach_at = origin.elapsed();
    let attach = daemon.ctl_ok("attach", &strings(&["--job", &id.to_string()]))?;
    let events = attach
        .lines
        .iter()
        .map(|(_, line)| parse_event_line(line))
        .collect::<Result<Vec<EventLine>, String>>()
        .and_then(|events| check_stream(id, &events).map(|()| events))
        .map_err(|why| format!("job {id}: {why}"))?;
    let last = events.last().expect("check_stream rejects an empty stream");
    let at = |index: usize| ms(attach_at + attach.lines[index].0);
    Ok(Job {
        seed,
        first_ms: at(0),
        done_ms: at(events.len() - 1),
        accept_ms: Some(ms(accepted_at)),
        trials: last.trials,
        ok: true,
        max_rss_kib: submit.max_rss_kib.max(attach.max_rss_kib),
        cpu_ms: ms(submit.cpu + attach.cpu),
        digest: format!("{:016x}", last.digest),
        ..Job::default()
    })
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn run_serve(env: &Env, size: &Size, seed: u64, out: &mut Outcome) -> Result<(), String> {
    let repro = env.build(Program::Repro)?;
    let tmp = TempDir::create(env, &out.name)?;
    out.threads = 1;
    out.command = strings(&["repro", "servectl", "submit"]);
    out.command.extend(job_spec(size.serve_trials, "S"));
    out.command
        .push("; repro servectl attach --job ID".to_string());

    // Set-up: daemon start plus the job that misses the snapshot cache
    // and builds the warm image every later job clones.
    let mut daemon = None;
    let mut spool = PathBuf::new();
    for k in 0..size.setup_repeats {
        drop(daemon.take());
        spool = tmp.0.join(format!("spool-{k}"));
        let started = Instant::now();
        let d = Daemon::start(&repro, &tmp.0, &spool)?;
        let job = serve_job(&d, size.serve_trials, seed);
        out.setup_s.push(started.elapsed().as_secs_f64());
        out.setup_jobs.push(job);
        daemon = Some(d);
    }
    let mut daemon = daemon.ok_or("no set-up ran")?;

    let (jobs, span) = timed_loop(size.seconds, size.min_serve_jobs, |i| {
        serve_job(&daemon, size.serve_trials, seed + 1 + i as u64)
    });
    let accepts: Vec<f64> = jobs.iter().filter_map(|j| j.accept_ms).collect();
    let spooled = dir_bytes(&spool) as f64 / (jobs.len() + 1) as f64;
    let row = |name: &str, value: f64, unit: &str| (name.to_string(), value, unit.to_string());
    out.layer = vec![
        row("serve.daemon.accept_ms_p50", stats::median(&accepts), "ms"),
        row("serve.spool.bytes_per_job", spooled, "B"),
    ];
    let stopped = daemon.stop();
    let drained = stopped.as_ref().is_some_and(|d| d.exit.success());
    out.checks.push(Check {
        name: "daemon_drained",
        ok: drained,
        detail: match &stopped {
            Some(done) if drained => {
                format!("exit 0 after shutdown, {} KiB peak", done.max_rss_kib)
            }
            Some(done) => format!("{:?}: {}", done.exit, done.stderr.trim()),
            None => "daemon was already gone".to_string(),
        },
        covers_trials: 0,
    });
    out.peak_rss_kib = stopped.map_or(0, |d| d.max_rss_kib);
    out.jobs = jobs;
    out.span_s = span;
    Ok(())
}

// ---------------------------------------------------------------------

/// Runs the named workload at the given size. Never panics on a failing
/// child: failures end up in the outcome's jobs, checks or `unavailable`.
pub fn run(env: &Env, name: &str, size: &Size, seed: u64) -> Outcome {
    let mut out = Outcome {
        name: name.to_string(),
        ..Outcome::default()
    };
    let result = match name {
        "campaign_warm" => run_campaign(env, size, Engine::Warm, seed, &mut out),
        "campaign_cold" => run_campaign(env, size, Engine::Cold, seed, &mut out),
        "campaign_par" => run_campaign(env, size, Engine::Par, seed, &mut out),
        "kv_grid" => run_grid(env, size, "kv", seed, &mut out),
        "fleet_grid" => run_grid(env, size, "fleet", seed, &mut out),
        "sweep_ladder" => run_sweep(env, size, seed, &mut out),
        "serve_jobs" => run_serve(env, size, seed, &mut out),
        other => Err(format!("unknown workload '{other}'")),
    };
    if let Err(why) = result {
        out.unavailable = Some(why);
    }
    let children = out.jobs.iter().chain(&out.setup_jobs);
    out.peak_rss_kib = children
        .map(|j| j.max_rss_kib)
        .fold(out.peak_rss_kib, u64::max);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn event(seq: u64, kind: &str, completed: u64) -> EventLine {
        EventLine {
            job: 3,
            seq,
            kind: kind.to_string(),
            completed,
            trials: 8,
            digest: 1,
        }
    }

    #[test]
    fn parses_the_daemon_and_client_lines() {
        assert_eq!(
            parse_listen_addr("pfault-serve listening on 127.0.0.1:44405 (spool: /x/y)"),
            Some("127.0.0.1:44405".to_string())
        );
        assert_eq!(
            parse_listen_addr("pfault-serve listening on 127.0.0.1:0 (spool: s)"),
            None
        );
        assert_eq!(parse_listen_addr("drained; spool retained at s"), None);
        assert_eq!(parse_accepted("accepted job 17"), Some(17));
        assert_eq!(parse_accepted("Busy"), None);
    }

    #[test]
    fn parses_an_event_line_with_a_64_bit_digest_and_a_body() {
        let line = r#"{"job":0,"seq":2,"kind":"done","completed":12,"trials":12,"digest":16851052283868498655,"body":"{\"faults\":12}"}"#;
        let event = parse_event_line(line).expect("valid");
        assert_eq!(event.kind, "done");
        assert_eq!(event.seq, 2);
        assert_eq!(event.digest, 16851052283868498655);
        assert!(parse_event_line("ShuttingDown").is_err());
        assert!(parse_event_line(r#"{"job":0,"seq":"x"}"#).is_err());
    }

    #[test]
    fn stream_check_wants_dense_seqs_and_one_final_done() {
        let good = [
            event(0, "progress", 2),
            event(1, "progress", 4),
            event(2, "done", 8),
        ];
        assert_eq!(check_stream(3, &good), Ok(()));
        assert!(check_stream(4, &good).is_err(), "foreign job");
        assert!(check_stream(3, &[]).is_err(), "empty");
        assert!(check_stream(3, &good[..2]).is_err(), "no terminal event");
        let gap = [event(0, "progress", 2), event(2, "done", 8)];
        assert!(check_stream(3, &gap).is_err(), "gap in seqs");
        let twice = [event(0, "done", 8), event(1, "done", 8)];
        assert!(check_stream(3, &twice).is_err(), "two terminal events");
        let failed = [event(0, "progress", 2), event(1, "failed", 2)];
        assert!(check_stream(3, &failed).is_err(), "failed job");
        let short = [event(0, "done", 6)];
        assert!(check_stream(3, &short).is_err(), "done before all trials");
    }

    /// A fresh scratch directory under the system's, removed on drop.
    fn scratch(label: &str) -> TempDir {
        let dir = std::env::temp_dir()
            .join(format!("pfbench-test-{}", std::process::id()))
            .join(label);
        fs::create_dir_all(&dir).expect("temp dir is writable");
        TempDir(dir)
    }

    #[test]
    fn a_child_that_exits_1_fails_its_trials_and_the_run() {
        let dir = scratch("exit1");
        let cli = Cli {
            binary: Path::new("/bin/sh"),
            dir: &dir.0,
            args: &|_, _| strings(&["-c", "echo out of flash >&2; exit 1"]),
            read: &|_, _| unreachable!("a failed child has no report to read"),
        };
        let (job, bytes) = cli.job("run-0", 7, 30);
        assert!(!job.ok && bytes.is_empty());
        assert_eq!((job.trials, job.failed_trials), (30, 30));
        assert!(
            job.error.contains("Code(1)") && job.error.contains("out of flash"),
            "{}",
            job.error
        );
        let out = Outcome {
            jobs: vec![job],
            span_s: 1.0,
            ..Outcome::default()
        };
        assert_eq!(crate::metrics::tally(&out), (31, 31));
        assert!(!crate::metrics::passes(&out), "the run must exit non-zero");
    }

    #[test]
    fn two_differing_equality_outputs_fail_the_check_and_the_run() {
        let dir = scratch("differ");
        // The shell's pid makes every run's line differ.
        let cli = Cli {
            binary: Path::new("/bin/sh"),
            dir: &dir.0,
            args: &|_, _| strings(&["-c", r#"echo "{\"cuts\":5,\"failed\":0,\"pid\":$$}""#]),
            read: &|_, done| read_sweep_line(done),
        };
        let mut out = Outcome::default();
        run_repeatable(&Size::smoke(), 7, &cli, &mut out);
        assert!(out
            .jobs
            .iter()
            .chain(&out.setup_jobs)
            .all(|j| j.ok && j.trials == 5));
        let check = out.checks.last().expect("the repeat check ran");
        assert_eq!(
            (check.name, check.ok, check.covers_trials),
            ("repeat_byte_identical", false, 5)
        );
        let (attempted, failed) = crate::metrics::tally(&out);
        assert_eq!((attempted, failed), (12, 5));
        assert!(!crate::metrics::passes(&out), "the run must exit non-zero");
    }

    #[test]
    fn identical_outputs_pass_the_repeat_check() {
        let dir = scratch("same");
        let cli = Cli {
            binary: Path::new("/bin/sh"),
            dir: &dir.0,
            args: &|seed, _| {
                strings(&[
                    "-c",
                    &format!(r#"echo "{{\"cuts\":5,\"failed\":0,\"seed\":{seed}}}""#),
                ])
            },
            read: &|_, done| read_sweep_line(done),
        };
        let mut out = Outcome::default();
        run_repeatable(&Size::smoke(), 7, &cli, &mut out);
        assert!(out.checks.iter().all(|c| c.ok), "{:?}", out.checks);
        assert!(crate::metrics::passes(&out));
        assert_eq!(
            out.command,
            strings(&["sh", "-c", r#"echo "{\"cuts\":5,\"failed\":0,\"seed\":S}""#])
        );
    }

    #[test]
    fn the_timed_loop_honours_both_its_floor_and_its_clock() {
        let quick = |_| Job {
            done_ms: 0.01,
            ..Job::default()
        };
        let (jobs, _) = timed_loop(0.0, 4, quick);
        assert_eq!(jobs.len(), 4);
        let (jobs, span) = timed_loop(0.02, 1, |_| {
            std::thread::sleep(Duration::from_millis(5));
            Job {
                done_ms: 5.0,
                ..Job::default()
            }
        });
        assert!(
            jobs.len() >= 3 && span >= 0.015,
            "{} jobs in {span} s",
            jobs.len()
        );
    }
}
