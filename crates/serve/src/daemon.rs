//! The campaign daemon: a std-only TCP service running durable
//! fault-injection jobs.
//!
//! # Robustness model
//!
//! * **Backpressure, never buffering** — the pending-job queue is
//!   bounded; a full queue answers [`Response::Busy`] and spools
//!   nothing. Restart recovery is the one exception: every unfinished
//!   spooled job re-enters the queue regardless of the bound, because
//!   durability promises already made outrank admission control.
//! * **Deadlines everywhere** — each connection carries read/write
//!   timeouts; attach streams interleave [`Response::Heartbeat`]s so an
//!   idle-but-alive stream never trips the client's deadline, and a
//!   connection idle past its budget is closed.
//! * **Per-job supervision** — jobs run through the platform campaign
//!   engine, so trial panics are caught (`catch_unwind`), hung trials
//!   hit watchdog budgets, and a poisoned snapshot-cache lock recovers;
//!   one bad trial cannot take the daemon down.
//! * **One warm-up per configuration** — the daemon owns one
//!   [`SnapshotCache`] for its whole life and hands it to every campaign
//!   job, so later jobs on a configuration clone the first job's warm
//!   image; each job's status row reports its own lookup.
//! * **Durability** — specs before acks, checkpoints before progress
//!   events, final reports before done events (see [`crate::spool`]).
//!   [`Daemon::kill`] (or just dropping the daemon) stops abruptly:
//!   restarting over the same spool resumes every in-flight job
//!   byte-identically.
//! * **Drain-then-exit** — [`Request::Shutdown`] stops admissions
//!   (`Rejected`), pauses in-flight jobs at their next trial boundary
//!   with a durable checkpoint, lets streams say
//!   [`Response::ShuttingDown`], and closes the listening socket last.
//! * **Wake-ups, not polls** — no thread learns of new work by sleeping
//!   and looking again. The listener blocks in `accept`, and teardown
//!   wakes it with one loopback connection that gets no handler. Attach
//!   streams and [`Daemon::join`] wait on one condvar paired with the
//!   job table, signalled by every status update and every stop flag; a
//!   stream's only timeout is its next heartbeat. A job's terminal
//!   record and its terminal status row are published in one locked
//!   step, so a client that has read `done` finds `Status` saying so.

use std::collections::{BTreeMap, VecDeque};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use pfault_platform::campaign::{
    Campaign, CampaignBuilder, CampaignConfig, CampaignProgress, ProgressSignal,
};
use pfault_platform::experiments::{self, ExperimentCtx, ExperimentOpts, ExperimentScale};
use pfault_platform::{ObsAggregate, SnapshotCache};
use pfault_sim::checksum::fnv64;

use crate::frame::{read_frame, FrameError};
use crate::proto::{decode_message, encode_message, JobEvent, JobInfo, JobSpec, Request, Response};
use crate::spool::Spool;

/// Daemon tuning knobs.
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Spool directory for durable job state.
    pub spool_dir: PathBuf,
    /// Job-runner worker threads.
    pub workers: usize,
    /// Bound on the pending-job queue (admission control).
    pub queue_capacity: usize,
    /// Idle gap before an attach stream emits a heartbeat.
    pub heartbeat_ms: u64,
    /// Per-connection read/write deadline.
    pub io_timeout_ms: u64,
    /// Default trials-between-checkpoints for campaign jobs whose spec
    /// leaves `checkpoint_every` at 0.
    pub checkpoint_every: u64,
}

impl DaemonConfig {
    /// Defaults: loopback ephemeral port, 2 workers, queue of 8,
    /// 250 ms heartbeats, 2 s deadlines, checkpoint every 5 trials.
    pub fn new(spool_dir: impl Into<PathBuf>) -> DaemonConfig {
        DaemonConfig {
            addr: "127.0.0.1:0".to_string(),
            spool_dir: spool_dir.into(),
            workers: 2,
            queue_capacity: 8,
            heartbeat_ms: 250,
            io_timeout_ms: 2_000,
            checkpoint_every: 5,
        }
    }
}

/// Live (in-memory) view of one job; the durable truth is the spool.
#[derive(Debug, Clone)]
struct JobStatus {
    state: String,
    completed: u64,
    trials: u64,
    events: u64,
    cache_hits: u64,
    cache_misses: u64,
    metrics_jsonl: String,
    convergence: String,
}

impl JobStatus {
    fn new(state: &str, trials: u64) -> JobStatus {
        JobStatus {
            state: state.to_string(),
            completed: 0,
            trials,
            events: 0,
            cache_hits: 0,
            cache_misses: 0,
            metrics_jsonl: String::new(),
            convergence: String::new(),
        }
    }
}

struct Shared {
    config: DaemonConfig,
    spool: Spool,
    queue: Mutex<VecDeque<u64>>,
    queue_cv: Condvar,
    jobs: Mutex<BTreeMap<u64, JobStatus>>,
    /// Signalled after every change to `jobs` and every stop flag:
    /// attach streams and [`Daemon::join`] wait on it.
    jobs_cv: Condvar,
    next_id: AtomicU64,
    draining: AtomicBool,
    killed: AtomicBool,
    accept_stop: AtomicBool,
    active_jobs: AtomicUsize,
    /// Warm images shared by every campaign job this daemon runs.
    cache: Arc<SnapshotCache>,
}

/// Locks a mutex, recovering from poisoning — a connection or worker
/// thread that died must never wedge the rest of the daemon.
fn lock_rec<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn stopping(&self) -> bool {
        self.draining.load(Ordering::SeqCst) || self.killed.load(Ordering::SeqCst)
    }

    fn killed(&self) -> bool {
        self.killed.load(Ordering::SeqCst)
    }

    /// Raises a stop flag (`draining` or `killed`) and wakes every
    /// waiter. Each lock is taken once before its notify, so a waiter
    /// that found the flag clear is already waiting when it is woken.
    fn stop(&self, flag: &AtomicBool) {
        flag.store(true, Ordering::SeqCst);
        drop(lock_rec(&self.queue));
        self.queue_cv.notify_all();
        drop(lock_rec(&self.jobs));
        self.jobs_cv.notify_all();
    }

    fn update_job(&self, id: u64, f: impl FnOnce(&mut JobStatus)) {
        let mut jobs = lock_rec(&self.jobs);
        let entry = jobs
            .entry(id)
            .or_insert_with(|| JobStatus::new("queued", 0));
        f(entry);
        drop(jobs);
        self.jobs_cv.notify_all();
    }

    /// Journals a job's terminal record (`done` or `failed`) and
    /// publishes its final status row in one step under the `jobs`
    /// lock: a client that has read the record and then asks `Status`
    /// waits for that lock and finds the row terminal, with `events`
    /// counting the record. Nothing is published if the append fails.
    fn finish_job(&self, event: &JobEvent, f: impl FnOnce(&mut JobStatus)) -> std::io::Result<()> {
        let mut jobs = lock_rec(&self.jobs);
        self.spool.append_event(event)?;
        let entry = jobs
            .entry(event.job)
            .or_insert_with(|| JobStatus::new("queued", 0));
        entry.events = event.seq + 1;
        f(entry);
        drop(jobs);
        self.jobs_cv.notify_all();
        Ok(())
    }
}

/// A running daemon. Dropping it is an abrupt in-process kill (the
/// crash-resume tests literally drop it mid-campaign); [`Daemon::join`]
/// is the graceful foreground mode that drains on `Shutdown`.
pub struct Daemon {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Option<std::thread::JoinHandle<()>>,
    workers: Vec<std::thread::JoinHandle<()>>,
    conns: Arc<Mutex<Vec<Conn>>>,
}

/// A live connection: its handler thread and a clone of its stream,
/// which teardown shuts so an idle client cannot hold up the drain.
type Conn = (std::thread::JoinHandle<()>, TcpStream);

impl Daemon {
    /// Binds, recovers the spool (unfinished jobs re-enter the queue;
    /// finished jobs get any missing `done` journal record appended),
    /// and starts the accept loop plus worker pool.
    pub fn start(config: DaemonConfig) -> std::io::Result<Daemon> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let spool = Spool::open(&config.spool_dir)?;
        let shared = Arc::new(Shared {
            next_id: AtomicU64::new(spool.next_job_id()),
            spool,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            jobs: Mutex::new(BTreeMap::new()),
            jobs_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            killed: AtomicBool::new(false),
            accept_stop: AtomicBool::new(false),
            active_jobs: AtomicUsize::new(0),
            cache: Arc::default(),
            config,
        });
        recover_spool(&shared)?;
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        let conns: Arc<Mutex<Vec<Conn>>> = Arc::default();
        let accept = {
            let shared = Arc::clone(&shared);
            let conns = Arc::clone(&conns);
            std::thread::spawn(move || accept_loop(&shared, listener, &conns))
        };
        Ok(Daemon {
            shared,
            addr,
            accept: Some(accept),
            workers,
            conns,
        })
    }

    /// The bound address (port 0 resolves here).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Abrupt in-process kill: stop running trials at the next
    /// boundary, abandon the queue, close everything. The spool is left
    /// exactly as a crash would leave it; a daemon restarted over it
    /// resumes every job byte-identically.
    pub fn kill(mut self) {
        self.shared.stop(&self.shared.killed);
        self.teardown();
    }

    /// Foreground mode: blocks until a client's `Shutdown` request (or
    /// a kill) starts the drain, then finishes it — in-flight jobs
    /// checkpoint and pause, the queue stays spooled for the next
    /// start, streams are told `ShuttingDown`, and the listening socket
    /// closes last.
    pub fn join(mut self) {
        let jobs = lock_rec(&self.shared.jobs);
        drop(
            self.shared
                .jobs_cv
                .wait_while(jobs, |_| !self.shared.stopping())
                .unwrap_or_else(PoisonError::into_inner),
        );
        self.teardown();
    }

    /// Starts the drain without a client (used by harnesses).
    pub fn request_shutdown(&self) {
        self.shared.stop(&self.shared.draining);
    }

    /// Jobs currently executing (not queued, not finished).
    pub fn active_jobs(&self) -> usize {
        self.shared.active_jobs.load(Ordering::SeqCst)
    }

    fn teardown(&mut self) {
        // Order matters: workers first (jobs checkpoint and pause),
        // connection threads next (streams flush their ShuttingDown),
        // the accept thread — and with it the listening socket — last.
        self.shared.stop(&self.shared.draining);
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        loop {
            let Some((handle, stream)) = lock_rec(&self.conns).pop() else {
                break;
            };
            // A handler blocked reading from an idle client sees end of
            // stream now instead of at its read deadline.
            let _ = stream.shutdown(Shutdown::Read);
            let _ = handle.join();
        }
        self.shared.accept_stop.store(true, Ordering::SeqCst);
        if let Some(handle) = self.accept.take() {
            // `accept` blocks: one loopback connection wakes it, and the
            // accept thread sees the stop flag before serving it. If the
            // connect fails the thread is not blocked in `accept` (it
            // has stopped, or `accept` itself is failing and re-checks
            // the flag after each failure). A wildcard bind is reached
            // through loopback.
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect(wake);
            let _ = handle.join();
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        self.shared.stop(&self.shared.killed);
        self.teardown();
    }
}

/// Startup recovery: reconcile every spooled job's journal with its
/// durable state and re-queue the unfinished ones. This is the one
/// finished-job reconciler: a job on the queue never has a `done` record.
fn recover_spool(shared: &Arc<Shared>) -> std::io::Result<()> {
    for id in shared.spool.jobs() {
        let Ok(spec) = shared.spool.read_spec(id) else {
            continue;
        };
        if let Some(done_json) = shared.spool.read_done(id) {
            let total = done_totals(&spec, &done_json);
            let events = shared.spool.reconcile_events(id, total, None)?;
            shared.update_job(id, |j| {
                j.state = "done".to_string();
                j.trials = total;
                j.completed = total;
                j.events = events;
            });
            continue;
        }
        shared.update_job(id, |j| {
            j.state = "queued".to_string();
            j.trials = spec.trials;
        });
        // Durability outranks admission control: recovered jobs bypass
        // the queue bound.
        lock_rec(&shared.queue).push_back(id);
        shared.queue_cv.notify_all();
    }
    Ok(())
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let job = {
            let mut queue = lock_rec(&shared.queue);
            loop {
                if shared.stopping() {
                    return;
                }
                if let Some(id) = queue.pop_front() {
                    break id;
                }
                // Every push and every stop flag notifies under (or
                // after taking) the queue lock, so no timeout is needed.
                queue = shared
                    .queue_cv
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        shared.active_jobs.fetch_add(1, Ordering::SeqCst);
        run_job(shared, job);
        shared.active_jobs.fetch_sub(1, Ordering::SeqCst);
    }
}

fn run_job(shared: &Arc<Shared>, id: u64) {
    let spec = match shared.spool.read_spec(id) {
        Ok(spec) => spec,
        Err(e) => {
            shared.update_job(id, |j| j.state = format!("failed: unreadable spec ({e})"));
            return;
        }
    };
    shared.update_job(id, |j| {
        j.state = "running".to_string();
        j.trials = spec.trials;
    });
    let outcome = if spec.exp == "campaign" {
        run_campaign_job(shared, id, &spec)
    } else {
        run_registry_job(shared, id, &spec)
    };
    // A finished job has already published its terminal row.
    match outcome {
        Ok(true) => {}
        Ok(false) => shared.update_job(id, |j| j.state = "paused".to_string()),
        Err(reason) => {
            let state = format!("failed: {reason}");
            let failed = JobEvent {
                job: id,
                seq: shared.spool.read_events(id).len() as u64,
                kind: "failed".to_string(),
                completed: 0,
                trials: spec.trials,
                digest: 0,
                body: reason,
            };
            let journaled = shared.finish_job(&failed, |j| j.state.clone_from(&state));
            if journaled.is_err() {
                shared.update_job(id, |j| j.state = state);
            }
        }
    }
}

/// The campaign a spec describes, as a builder the daemon adds its
/// spool checkpoint to. Pure: the daemon, the restart path, and the
/// self-check's reference run all call this, which is what makes
/// "byte-identical" meaningful.
pub fn campaign_for(spec: &JobSpec) -> Result<CampaignBuilder, String> {
    let mut config = CampaignConfig::paper_default();
    match spec.profile.as_str() {
        "paper" => {}
        "tiny" => {
            config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
            config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
            config.trial.workload = pfault_workload::WorkloadSpec::builder()
                .wss_bytes(4 * pfault_sim::storage::GIB)
                .build();
        }
        other => return Err(format!("unknown profile '{other}' (tiny|paper)")),
    }
    match &spec.plan {
        // The plan is the sizing surface; `trials` is only the classic
        // fallback denominator.
        Some(plan) => plan.validate().map_err(|e| e.to_string())?,
        None if spec.trials == 0 => {
            return Err("campaign jobs need trials >= 1 and requests_per_trial >= 1".to_string())
        }
        None => {}
    }
    if spec.requests_per_trial == 0 {
        return Err("campaign jobs need trials >= 1 and requests_per_trial >= 1".to_string());
    }
    config.trials = spec.trials as usize;
    config.requests_per_trial = spec.requests_per_trial as usize;
    config.trial.obs = spec.obs;
    if spec.warmup > 0 {
        config.trial = config.trial.with_warmup_requests(spec.warmup as usize);
    }
    let mut builder = Campaign::builder(config).seed(spec.seed);
    if let Some(plan) = &spec.plan {
        builder = builder.plan(*plan);
    }
    Ok(builder)
}

/// The daemon-side campaign: `campaign_for` plus the spool checkpoint
/// and the daemon's snapshot cache.
fn spooled_campaign(shared: &Shared, id: u64, spec: &JobSpec) -> Result<Campaign, String> {
    let every = if spec.checkpoint_every > 0 {
        spec.checkpoint_every
    } else {
        shared.config.checkpoint_every
    };
    Ok(campaign_for(spec)?
        .checkpoint(shared.spool.checkpoint_path(id), every)
        .snapshot_cache(Some(Arc::clone(&shared.cache)))
        .build())
}

/// Trial totals of a finished job: the report's absorbed-fault count.
/// For a fixed-size job that is the spec's count; for an adaptive one
/// the planner, not the spec, decided when the run was done.
fn done_totals(spec: &JobSpec, report_json: &str) -> u64 {
    serde_json::from_str::<serde_json::Value>(report_json)
        .ok()
        .and_then(|v| v.as_object().and_then(|o| o.get("faults").cloned()))
        .and_then(|f| f.as_u64())
        .unwrap_or(spec.trials)
}

/// Renders a live [`ObsAggregate`] snapshot as metrics JSONL: totals
/// first, then each failure-class slice.
fn render_aggregate(agg: &ObsAggregate) -> String {
    let mut out = pfault_obs::render_metrics_jsonl("totals", &agg.totals);
    for (class, metrics) in &agg.by_class {
        out.push_str(&pfault_obs::render_metrics_jsonl(class, metrics));
    }
    out
}

/// Runs (or resumes) a durable campaign job. Returns `Ok(true)` when
/// the job finished, `Ok(false)` when it paused for a drain/kill.
fn run_campaign_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec) -> Result<bool, String> {
    let spool = &shared.spool;
    let campaign = spooled_campaign(shared, id, spec)?;
    let resume = spool.has_checkpoint(id);
    let mut next_seq = if resume {
        // Crash window: the checkpoint may be one announcement ahead of
        // the journal. Re-synthesize the missing record from the
        // checkpoint itself before streaming anything new.
        let (completed, report) = campaign
            .checkpoint_snapshot(spool.checkpoint_path(id))
            .map_err(|e| e.to_string())?;
        let report_json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        spool
            .reconcile_events(id, spec.trials, Some((completed, &report_json)))
            .map_err(|e| e.to_string())?
    } else {
        spool.clear_events(id).map_err(|e| e.to_string())?;
        0
    };
    shared.update_job(id, |j| j.events = next_seq);

    let mut observer = |p: CampaignProgress<'_>| {
        if p.checkpointed {
            let journaled = serde_json::to_string(p.report).ok().map(|report_json| {
                shared.spool.append_event(&JobEvent {
                    job: id,
                    seq: next_seq,
                    kind: "progress".to_string(),
                    completed: p.completed,
                    trials: p.trials,
                    digest: fnv64(report_json.as_bytes()),
                    body: String::new(),
                })
            });
            if matches!(journaled, Some(Ok(()))) {
                next_seq += 1;
            }
        }
        let metrics =
            (p.checkpointed && !p.report.obs.is_empty()).then(|| render_aggregate(&p.report.obs));
        let convergence = p.report.plan.as_ref().map(|s| s.progress_line());
        let seq_now = next_seq;
        let trials_now = p.trials;
        shared.update_job(id, |j| {
            j.completed = p.completed;
            j.trials = trials_now;
            j.events = seq_now;
            if let Some(m) = metrics {
                j.metrics_jsonl = m;
            }
            if let Some(c) = convergence {
                j.convergence = c;
            }
        });
        if shared.stopping() {
            ProgressSignal::Pause
        } else {
            ProgressSignal::Continue
        }
    };
    // An adaptive plan runs (and resumes) through the planner, so round
    // extension and convergence stopping replay byte-identically across
    // daemon restarts.
    let run = campaign
        .execute(resume, &mut observer)
        .map_err(|e| e.to_string())?;
    shared.update_job(id, |j| {
        j.cache_hits = run.cache_hits;
        j.cache_misses = run.cache_misses;
    });

    if run.paused {
        return Ok(false);
    }
    let report_json = serde_json::to_string(&run.report).map_err(|e| e.to_string())?;
    spool
        .write_done(id, &report_json)
        .map_err(|e| e.to_string())?;
    let total = run.completed;
    let metrics = (!run.report.obs.is_empty()).then(|| render_aggregate(&run.report.obs));
    let convergence = run.report.plan.as_ref().map(|s| s.progress_line());
    let done = JobEvent {
        job: id,
        seq: next_seq,
        kind: "done".to_string(),
        completed: run.completed,
        trials: total,
        digest: fnv64(report_json.as_bytes()),
        body: report_json,
    };
    shared
        .finish_job(&done, |j| {
            j.state = "done".to_string();
            j.completed = run.completed;
            j.trials = total;
            if let Some(m) = metrics {
                j.metrics_jsonl = m;
            }
            if let Some(c) = convergence {
                j.convergence = c;
            }
        })
        .map_err(|e| e.to_string())?;
    Ok(true)
}

/// Runs a registry experiment job. Not checkpointable mid-run, but
/// deterministic: a restart simply reruns it from the spec and lands on
/// the same bytes.
fn run_registry_job(shared: &Arc<Shared>, id: u64, spec: &JobSpec) -> Result<bool, String> {
    let spool = &shared.spool;
    let Some(exp) = experiments::find(&spec.exp) else {
        return Err(format!("unknown experiment '{}'", spec.exp));
    };
    let ctx = ExperimentCtx {
        scale: ExperimentScale::quick(),
        seed: spec.seed,
        opts: ExperimentOpts::default(),
    };
    let report = (exp.run)(&ctx).map_err(|e| e.to_string())?;
    let report_json = serde_json::to_string(&report.json).map_err(|e| e.to_string())?;
    spool.clear_events(id).map_err(|e| e.to_string())?;
    spool
        .write_done(id, &report_json)
        .map_err(|e| e.to_string())?;
    let done = JobEvent {
        job: id,
        seq: 0,
        kind: "done".to_string(),
        completed: spec.trials,
        trials: spec.trials,
        digest: fnv64(report_json.as_bytes()),
        body: report_json,
    };
    shared
        .finish_job(&done, |j| j.state = "done".to_string())
        .map_err(|e| e.to_string())?;
    Ok(true)
}

fn accept_loop(shared: &Arc<Shared>, listener: TcpListener, conns: &Arc<Mutex<Vec<Conn>>>) {
    loop {
        let accepted = listener.accept();
        // Checked after `accept` returns, so teardown's wake-up
        // connection never gets a handler.
        if shared.killed() || shared.accept_stop.load(Ordering::SeqCst) {
            break;
        }
        match accepted {
            Ok((mut stream, _)) => {
                // Without a clone teardown could not unblock the handler,
                // so a connection that cannot be cloned is not served.
                let Ok(held) = stream.try_clone() else {
                    continue;
                };
                let shared = Arc::clone(shared);
                let handle = std::thread::spawn(move || {
                    handle_conn(&shared, &mut stream);
                    // The held clone would keep the connection open
                    // until reaped; close it as the handler ends.
                    let _ = stream.shutdown(Shutdown::Both);
                });
                let mut conns = lock_rec(conns);
                // Reap finished connection threads: the daemon holds a
                // handle per live connection, not per connection served.
                let (finished, live) = conns.drain(..).partition(|(h, _)| h.is_finished());
                *conns = live;
                for (h, _) in finished {
                    let _ = h.join();
                }
                conns.push((handle, held));
            }
            // A real failure such as EMFILE: back off instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
    // The listener drops here — after workers and streams wound down,
    // the socket closes last.
}

fn send(stream: &mut TcpStream, resp: &Response) -> Result<(), FrameError> {
    let frame = encode_message(resp)?;
    stream.write_all_frame(&frame)
}

/// Tiny extension so `send` stays one call: write + flush via the
/// frame layer's error type.
trait WriteFrameExt {
    fn write_all_frame(&mut self, frame: &[u8]) -> Result<(), FrameError>;
}

impl WriteFrameExt for TcpStream {
    fn write_all_frame(&mut self, frame: &[u8]) -> Result<(), FrameError> {
        use std::io::Write as _;
        self.write_all(frame)?;
        self.flush()?;
        Ok(())
    }
}

fn handle_conn(shared: &Arc<Shared>, stream: &mut TcpStream) {
    let timeout = Duration::from_millis(shared.config.io_timeout_ms.max(50));
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(timeout));
    let _ = stream.set_write_timeout(Some(timeout));
    let mut idle_strikes = 0u32;
    loop {
        match read_frame(stream) {
            Ok(payload) => {
                idle_strikes = 0;
                match decode_message::<Request>(&payload) {
                    Ok(request) => {
                        if !handle_request(shared, stream, request) {
                            return;
                        }
                    }
                    Err(reason) => {
                        // Intact frame, malformed message: report and
                        // keep the connection — the transport is fine.
                        if send(stream, &Response::Error { reason }).is_err() {
                            return;
                        }
                    }
                }
            }
            Err(FrameError::Closed) => return,
            Err(e) if e.is_timeout() => {
                idle_strikes += 1;
                // Deadline discipline: one idle grace period, then the
                // connection is presumed abandoned.
                if idle_strikes > 1 || shared.stopping() {
                    return;
                }
            }
            Err(e) => {
                // Torn or corrupted frame: a clean protocol error, then
                // close — resync inside a byte stream is impossible.
                let _ = send(
                    stream,
                    &Response::Error {
                        reason: e.to_string(),
                    },
                );
                return;
            }
        }
    }
}

/// Handles one request; `false` closes the connection.
fn handle_request(shared: &Arc<Shared>, stream: &mut TcpStream, request: Request) -> bool {
    match request {
        Request::Ping => send(stream, &Response::Pong).is_ok(),
        Request::Submit { spec } => {
            let resp = submit(shared, &spec);
            send(stream, &resp).is_ok()
        }
        Request::Attach { job, from_seq } => attach(shared, stream, job, from_seq),
        Request::Status => {
            let resp = Response::JobList {
                jobs: status_rows(shared),
            };
            send(stream, &resp).is_ok()
        }
        Request::Metrics { job } => {
            let jobs = lock_rec(&shared.jobs);
            let resp = match jobs.get(&job) {
                Some(status) => Response::MetricsSnapshot {
                    job,
                    jsonl: status.metrics_jsonl.clone(),
                },
                None => Response::Error {
                    reason: format!("unknown job {job}"),
                },
            };
            drop(jobs);
            send(stream, &resp).is_ok()
        }
        Request::Shutdown => {
            shared.stop(&shared.draining);
            send(stream, &Response::ShuttingDown).is_ok()
        }
    }
}

fn submit(shared: &Arc<Shared>, spec: &JobSpec) -> Response {
    if shared.stopping() {
        return Response::Rejected {
            reason: "daemon is draining".to_string(),
        };
    }
    if spec.exp == "campaign" {
        if let Err(reason) = campaign_for(spec) {
            return Response::Rejected { reason };
        }
    } else if experiments::find(&spec.exp).is_none() {
        return Response::Rejected {
            reason: format!("unknown experiment '{}'", spec.exp),
        };
    }
    // The queue lock is held across the spec write so admission and
    // durability are one atomic step: `Accepted` is never sent for a
    // job that could be lost, and `Busy` never spools anything.
    let mut queue = lock_rec(&shared.queue);
    if queue.len() >= shared.config.queue_capacity {
        return Response::Busy {
            queued: queue.len() as u64,
            capacity: shared.config.queue_capacity as u64,
        };
    }
    let id = shared.next_id.fetch_add(1, Ordering::SeqCst);
    if let Err(e) = shared.spool.write_spec(id, spec) {
        return Response::Error {
            reason: format!("spool write failed: {e}"),
        };
    }
    shared.update_job(id, |j| {
        j.state = "queued".to_string();
        j.trials = spec.trials;
    });
    queue.push_back(id);
    drop(queue);
    shared.queue_cv.notify_all();
    Response::Accepted { job: id }
}

fn status_rows(shared: &Arc<Shared>) -> Vec<JobInfo> {
    let jobs = lock_rec(&shared.jobs);
    jobs.iter()
        .map(|(&job, s)| JobInfo {
            job,
            state: s.state.clone(),
            completed: s.completed,
            trials: s.trials,
            events: s.events,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            convergence: s.convergence.clone(),
        })
        .collect()
}

/// Streams the result journal from `from_seq`, then follows it live
/// with heartbeats until the job ends. Returns `true` when the stream
/// finished cleanly and the connection can take more requests.
fn attach(shared: &Arc<Shared>, stream: &mut TcpStream, job: u64, from_seq: u64) -> bool {
    if shared.spool.read_spec(job).is_err() {
        return send(
            stream,
            &Response::Error {
                reason: format!("unknown job {job}"),
            },
        )
        .is_ok();
    }
    let heartbeat = Duration::from_millis(shared.config.heartbeat_ms.max(10));
    let published = |jobs: &BTreeMap<u64, JobStatus>| jobs.get(&job).map_or(0, |j| j.events);
    // The job's published event count when the journal was last read:
    // taken before each read, so an event published during the read
    // changes it and the wait below returns at once.
    let mut seen = published(&lock_rec(&shared.jobs));
    let mut next = from_seq;
    let mut last_sent = Instant::now();
    loop {
        if shared.killed() {
            let _ = send(stream, &Response::ShuttingDown);
            return false;
        }
        let events = shared.spool.read_events(job);
        for event in events {
            if event.seq < next {
                continue;
            }
            next = event.seq + 1;
            let terminal = event.kind != "progress";
            if send(stream, &Response::Event { event }).is_err() {
                return false;
            }
            last_sent = Instant::now();
            if terminal {
                return true;
            }
        }
        if shared.stopping() {
            let _ = send(stream, &Response::ShuttingDown);
            return false;
        }
        if last_sent.elapsed() >= heartbeat {
            if send(stream, &Response::Heartbeat).is_err() {
                return false;
            }
            last_sent = Instant::now();
        }
        // Sleep until the job publishes an event, a stop flag rises, or
        // the next heartbeat is due.
        let due = heartbeat.saturating_sub(last_sent.elapsed());
        let (jobs, _) = shared
            .jobs_cv
            .wait_timeout_while(lock_rec(&shared.jobs), due, |jobs| {
                !shared.stopping() && published(jobs) == seen
            })
            .unwrap_or_else(PoisonError::into_inner);
        seen = published(&jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::read_frame;

    #[test]
    fn finished_connection_threads_are_reaped_at_accept() {
        let spool = std::env::temp_dir().join(format!("pfault-daemon-reap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&spool);
        let daemon = Daemon::start(DaemonConfig::new(&spool)).unwrap();
        let ping = encode_message(&Request::Ping).unwrap();
        for _ in 0..50 {
            let mut conn = TcpStream::connect(daemon.local_addr()).unwrap();
            // A connection the daemon fails to close fails the read below
            // at this deadline instead of hanging the test.
            conn.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
            conn.write_all_frame(&ping).unwrap();
            let pong = decode_message::<Response>(&read_frame(&mut conn).unwrap()).unwrap();
            assert_eq!(pong, Response::Pong);
            // Hang up and wait for the daemon to close its end, so the
            // handler thread has returned before the next connection.
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            assert!(matches!(read_frame(&mut conn), Err(FrameError::Closed)));
        }
        let held = lock_rec(&daemon.conns).len();
        daemon.kill();
        let _ = std::fs::remove_dir_all(&spool);
        assert!(held <= 2, "{held} connection handles held after 50 pings");
    }
}
