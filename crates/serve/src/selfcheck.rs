//! The `serve` experiment: an end-to-end, self-checking exercise of the
//! daemon's whole robustness story inside one process.
//!
//! The narrative mirrors the paper's methodology, one level up: instead
//! of cutting power to a simulated SSD mid-write, we "cut power" to the
//! *campaign daemon* mid-campaign and check the same three properties
//! the platform checks of its firmware — nothing acknowledged is lost,
//! nothing is double-applied, and recovery converges to the exact state
//! an uninterrupted run would have reached:
//!
//! 1. **byte-identical resume** — a daemon killed mid-job and restarted
//!    over the same spool finishes the job with a final report equal,
//!    byte for byte, to an uninterrupted local run of the same spec;
//! 2. **exactly-once delivery** — a client that saw the first events,
//!    lost its daemon, and reattached to the restarted one observes a
//!    dense, gap-free, duplicate-free sequence;
//! 3. **clean failure edges** — garbage on the wire gets a protocol
//!    error (never a panic, never a wedged daemon), a full queue gets
//!    `Busy`, a draining daemon gets `Rejected`, and shutdown closes
//!    the socket only after in-flight work has checkpointed.

use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::io::Write as _;

use pfault_platform::campaign::{Campaign, CampaignReport, ProgressSignal};
use pfault_platform::experiments::{Experiment, ExperimentCtx, ExperimentReport};
use pfault_platform::PlatformError;

use crate::client::Client;
use crate::daemon::{campaign_for, Daemon, DaemonConfig};
use crate::proto::{JobSpec, Request, Response};

/// The `serve` experiment (excluded from `--exp all`: it spins up real
/// sockets and threads, which is smoke-test work, not figure work).
pub fn experiment() -> &'static dyn Experiment {
    static EXP: ServeExperiment = ServeExperiment;
    &EXP
}

struct ServeExperiment;

impl Experiment for ServeExperiment {
    fn name(&self) -> &'static str {
        "serve"
    }

    fn describe(&self) -> &'static str {
        "campaign daemon: kill/restart resume, exactly-once streams, backpressure, drain"
    }

    fn in_all(&self) -> bool {
        false
    }

    fn run(&self, ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
        let outcome = run_selfcheck(ctx.seed);
        let mut text = String::new();
        let _ = writeln!(text, "== Extension O: campaign-as-a-service ==");
        for line in &outcome.log {
            let _ = writeln!(text, "  {line}");
        }
        if outcome.failures.is_empty() {
            let _ = writeln!(text, "  all daemon self-checks passed");
        }
        text.push('\n');
        let json = serde_json::to_value(&outcome.summary)
            .unwrap_or(serde_json::Value::Null);
        Ok(ExperimentReport {
            text,
            json_key: "serve",
            json,
            check_failures: outcome.failures,
        })
    }
}

/// Machine-readable results. Deterministic by construction: no ports,
/// no timings, no thread counts — only protocol-visible facts that the
/// durability design pins down exactly.
#[derive(Debug, serde::Serialize)]
struct ServeSummary {
    seed: u64,
    trials: u64,
    events_before_kill: u64,
    resumed_report_matches_reference: bool,
    exactly_once: bool,
    busy_observed: bool,
    rejected_while_draining: bool,
    garbage_rejected_cleanly: bool,
    drain_left_resumable_checkpoint: bool,
    adaptive_report_matches_local_plan: bool,
    adaptive_convergence_reported: bool,
}

struct Outcome {
    summary: ServeSummary,
    log: Vec<String>,
    failures: Vec<String>,
}

fn scratch_dir(name: &str, seed: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("pfault-serve-{name}-{seed}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted reference: the job's campaign run in-process.
fn run_locally(campaign: Campaign) -> Result<CampaignReport, String> {
    campaign
        .execute(false, &mut |_| ProgressSignal::Continue)
        .map(|run| run.report)
        .map_err(|e| e.to_string())
}

fn fail(failures: &mut Vec<String>, msg: impl Into<String>) {
    failures.push(msg.into());
}

fn run_selfcheck(seed: u64) -> Outcome {
    let mut log = Vec::new();
    let mut failures = Vec::new();

    let spec = JobSpec::tiny_campaign(seed);
    let trials = spec.trials;

    // -- Reference: the same spec run locally, uninterrupted. ---------
    let reference = campaign_for(&spec)
        .map_err(|e| e.to_string())
        .and_then(|c| run_locally(c.build()))
        .and_then(|r| serde_json::to_string(&r).map_err(|e| e.to_string()));
    let reference = match reference {
        Ok(json) => json,
        Err(e) => {
            fail(&mut failures, format!("reference run failed: {e}"));
            return Outcome {
                summary: ServeSummary {
                    seed,
                    trials,
                    events_before_kill: 0,
                    resumed_report_matches_reference: false,
                    exactly_once: false,
                    busy_observed: false,
                    rejected_while_draining: false,
                    garbage_rejected_cleanly: false,
                    drain_left_resumable_checkpoint: false,
                    adaptive_report_matches_local_plan: false,
                    adaptive_convergence_reported: false,
                },
                log,
                failures,
            };
        }
    };
    log.push(format!(
        "reference run: {trials} trials, report of {} bytes",
        reference.len()
    ));

    // -- Phase 1: daemon A takes the job and dies mid-run. ------------
    let spool = scratch_dir("spool", seed);
    let mut events_before_kill = 0u64;
    let mut seen_seqs: BTreeSet<u64> = BTreeSet::new();
    let mut job_id = 0u64;
    match Daemon::start(DaemonConfig::new(&spool)) {
        Ok(daemon) => {
            let addr = daemon.local_addr().to_string();
            match Client::connect(&addr, 5_000) {
                Ok(mut client) => {
                    match client.submit(&spec) {
                        Ok(Some(id)) => {
                            job_id = id;
                            match client.attach(id, 0) {
                                Ok(stream) => {
                                    for event in stream.take(2).flatten() {
                                        seen_seqs.insert(event.seq);
                                        events_before_kill += 1;
                                    }
                                }
                                Err(e) => fail(&mut failures, format!("attach failed: {e}")),
                            }
                        }
                        Ok(None) => fail(&mut failures, "fresh daemon answered Busy".to_string()),
                        Err(e) => fail(&mut failures, format!("submit failed: {e}")),
                    }
                }
                Err(e) => fail(&mut failures, format!("connect to daemon A failed: {e}")),
            }
            // Power cut: the client's stream dies with the daemon.
            daemon.kill();
        }
        Err(e) => fail(&mut failures, format!("daemon A failed to start: {e}")),
    }
    if events_before_kill == 0 {
        fail(
            &mut failures,
            "no progress events observed before the kill".to_string(),
        );
    }
    log.push(format!(
        "daemon A killed after streaming {events_before_kill} progress events"
    ));

    // -- Phase 2: daemon B over the same spool resumes and finishes. --
    let mut resumed_matches = false;
    let mut exactly_once = false;
    match Daemon::start(DaemonConfig::new(&spool)) {
        Ok(daemon) => {
            let addr = daemon.local_addr().to_string();
            let from_seq = seen_seqs.last().map_or(0, |s| s + 1);
            match Client::connect_backoff(&addr, 10_000, 5, 10, seed) {
                Ok(mut client) => match client.attach(job_id, from_seq) {
                    Ok(stream) => {
                        let mut done_body = None;
                        for event in stream {
                            match event {
                                Ok(e) => {
                                    if !seen_seqs.insert(e.seq) {
                                        fail(
                                            &mut failures,
                                            format!("duplicate event seq {}", e.seq),
                                        );
                                    }
                                    if e.kind == "done" {
                                        done_body = Some(e.body);
                                    } else if e.kind == "failed" {
                                        fail(
                                            &mut failures,
                                            format!("resumed job failed: {}", e.body),
                                        );
                                    }
                                }
                                Err(e) => {
                                    fail(&mut failures, format!("resumed stream broke: {e}"));
                                    break;
                                }
                            }
                        }
                        // Exactly-once: the union of both attaches is
                        // dense 0..n with a terminal record.
                        let n = seen_seqs.len() as u64;
                        exactly_once = n > 0
                            && seen_seqs.iter().copied().eq(0..n)
                            && done_body.is_some();
                        if !exactly_once {
                            fail(
                                &mut failures,
                                format!("event seqs not dense exactly-once: {seen_seqs:?}"),
                            );
                        }
                        match done_body {
                            Some(body) if body == reference => resumed_matches = true,
                            Some(body) => fail(
                                &mut failures,
                                format!(
                                    "resumed report differs from reference ({} vs {} bytes)",
                                    body.len(),
                                    reference.len()
                                ),
                            ),
                            None => fail(&mut failures, "no done event after resume".to_string()),
                        }
                    }
                    Err(e) => fail(&mut failures, format!("reattach failed: {e}")),
                },
                Err(e) => fail(&mut failures, format!("reconnect to daemon B failed: {e}")),
            }

            // Status must list the job as done; metrics must serve
            // parseable JSONL (the job ran with obs enabled).
            if let Ok(mut client) = Client::connect(&addr, 5_000) {
                match client.call(&Request::Status) {
                    Ok(Response::JobList { jobs }) => {
                        let row = jobs.iter().find(|j| j.job == job_id);
                        if !row.is_some_and(|j| j.state == "done" && j.completed == trials) {
                            fail(&mut failures, format!("status row wrong: {row:?}"));
                        }
                    }
                    other => fail(&mut failures, format!("status reply wrong: {other:?}")),
                }
                match client.call(&Request::Metrics { job: job_id }) {
                    Ok(Response::MetricsSnapshot { jsonl, .. }) => {
                        let parses = !jsonl.is_empty()
                            && jsonl.lines().all(|l| {
                                serde_json::from_str::<serde_json::Value>(l).is_ok()
                            })
                            && jsonl.contains("\"counter\"");
                        if !parses {
                            fail(
                                &mut failures,
                                format!("metrics jsonl unusable: {:?}…", jsonl.get(..60)),
                            );
                        }
                    }
                    other => fail(&mut failures, format!("metrics reply wrong: {other:?}")),
                }
            }

            // Garbage on the wire: clean protocol error, daemon lives.
            let mut garbage_rejected_cleanly = false;
            if let Ok(mut raw) = std::net::TcpStream::connect(&addr) {
                let _ = raw.write_all(b"GET / HTTP/1.1\r\n\r\n");
                let _ = raw.flush();
                let _ = raw.set_read_timeout(Some(std::time::Duration::from_millis(2_000)));
                match crate::frame::read_frame(&mut raw) {
                    Ok(payload) => {
                        garbage_rejected_cleanly = matches!(
                            crate::proto::decode_message::<Response>(&payload),
                            Ok(Response::Error { .. })
                        );
                    }
                    Err(_) => {
                        // Also acceptable: the daemon just hung up.
                        garbage_rejected_cleanly = true;
                    }
                }
            }
            let still_alive = Client::connect(&addr, 5_000)
                .and_then(|mut c| c.call(&Request::Ping))
                .is_ok_and(|r| r == Response::Pong);
            if !(garbage_rejected_cleanly && still_alive) {
                fail(
                    &mut failures,
                    "garbage connection was not handled cleanly".to_string(),
                );
            }
            daemon.kill();

            let summary_part = (garbage_rejected_cleanly, still_alive);
            log.push(format!(
                "daemon B: resume matched reference = {resumed_matches}, exactly-once = {exactly_once}, garbage handled = {:?}",
                summary_part
            ));
        }
        Err(e) => fail(&mut failures, format!("daemon B failed to start: {e}")),
    }

    // -- Phase 3: backpressure and drain-then-exit. -------------------
    let spool_c = scratch_dir("drain", seed);
    let mut busy_observed = false;
    let mut rejected_while_draining = false;
    let mut drain_left_resumable_checkpoint = false;
    let mut config = DaemonConfig::new(&spool_c);
    config.workers = 1;
    config.queue_capacity = 1;
    match Daemon::start(config) {
        Ok(daemon) => {
            let addr = daemon.local_addr().to_string();
            if let Ok(mut client) = Client::connect(&addr, 5_000) {
                // A long job ties up the one worker...
                let mut long = JobSpec::tiny_campaign(seed ^ 1);
                long.trials = 400;
                long.checkpoint_every = 1;
                let running = client.submit(&long);
                // Wait until the worker has actually picked it up —
                // draining before then would leave it queued (durable,
                // but checkpoint-less) and void the resumable-ckpt
                // check below.
                for _ in 0..500 {
                    if daemon.active_jobs() > 0 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(10));
                }
                // ...so repeated quick submissions must eventually hit
                // the queue bound and answer Busy.
                for i in 0..50 {
                    match client.submit(&JobSpec::tiny_campaign(seed ^ (i + 2))) {
                        Ok(Some(_)) => continue,
                        Ok(None) => {
                            busy_observed = true;
                            break;
                        }
                        Err(e) => {
                            fail(&mut failures, format!("submit under load failed: {e}"));
                            break;
                        }
                    }
                }
                if running.is_err() || !busy_observed {
                    fail(
                        &mut failures,
                        format!("bounded queue never answered Busy (long job: {running:?})"),
                    );
                }
                // Graceful drain: the daemon acks, then refuses work.
                match client.call(&Request::Shutdown) {
                    Ok(Response::ShuttingDown) => {}
                    other => fail(&mut failures, format!("shutdown reply wrong: {other:?}")),
                }
                rejected_while_draining = matches!(
                    client.submit(&JobSpec::tiny_campaign(seed ^ 99)),
                    Err(crate::client::ClientError::Daemon(_))
                );
                if !rejected_while_draining {
                    fail(
                        &mut failures,
                        "submit during drain was not Rejected".to_string(),
                    );
                }
            }
            // Drain completes: in-flight work checkpointed, socket
            // closed last.
            daemon.join();
            let spool = crate::spool::Spool::open(&spool_c).expect("spool reopens");
            drain_left_resumable_checkpoint =
                spool.jobs().iter().any(|&j| spool.has_checkpoint(j));
            if !drain_left_resumable_checkpoint {
                fail(
                    &mut failures,
                    "drain left no resumable checkpoint behind".to_string(),
                );
            }
            if std::net::TcpStream::connect(&addr).is_ok() {
                fail(
                    &mut failures,
                    "socket still accepting after drain".to_string(),
                );
            }
        }
        Err(e) => fail(&mut failures, format!("daemon C failed to start: {e}")),
    }
    log.push(format!(
        "drain: busy = {busy_observed}, rejected-during-drain = {rejected_while_draining}, resumable ckpt = {drain_left_resumable_checkpoint}"
    ));

    // -- Phase 4: an adaptive (planned) job end-to-end. ---------------
    // Same spec, two runners: the daemon's planned path must land on
    // the same bytes as a local run, and the status row must
    // surface the planner's convergence line.
    let spool_p = scratch_dir("plan", seed);
    let mut adaptive_matches = false;
    let mut adaptive_convergence = false;
    let adaptive_spec = JobSpec::tiny_adaptive(seed ^ 7);
    let adaptive_reference = campaign_for(&adaptive_spec)
        .and_then(|c| run_locally(c.build()))
        .and_then(|r| serde_json::to_string(&r).map_err(|e| e.to_string()));
    match (adaptive_reference, Daemon::start(DaemonConfig::new(&spool_p))) {
        (Ok(reference), Ok(daemon)) => {
            let addr = daemon.local_addr().to_string();
            if let Ok(mut client) = Client::connect(&addr, 5_000) {
                match client.submit(&adaptive_spec) {
                    Ok(Some(id)) => match client.attach(id, 0) {
                        Ok(stream) => {
                            let mut done_body = None;
                            for event in stream.flatten() {
                                if event.kind == "done" {
                                    done_body = Some(event.body);
                                } else if event.kind == "failed" {
                                    fail(
                                        &mut failures,
                                        format!("adaptive job failed: {}", event.body),
                                    );
                                }
                            }
                            adaptive_matches = done_body.as_deref() == Some(reference.as_str());
                            if !adaptive_matches {
                                fail(
                                    &mut failures,
                                    "adaptive report differs from the local run".to_string(),
                                );
                            }
                        }
                        Err(e) => fail(&mut failures, format!("adaptive attach failed: {e}")),
                    },
                    Ok(None) => fail(&mut failures, "adaptive submit answered Busy".to_string()),
                    Err(e) => fail(&mut failures, format!("adaptive submit failed: {e}")),
                }
                match client.call(&Request::Status) {
                    Ok(Response::JobList { jobs }) => {
                        adaptive_convergence = jobs
                            .iter()
                            .any(|j| j.state == "done" && j.convergence.ends_with("done"));
                        if !adaptive_convergence {
                            fail(
                                &mut failures,
                                "adaptive status row carried no convergence line".to_string(),
                            );
                        }
                    }
                    other => fail(&mut failures, format!("adaptive status reply wrong: {other:?}")),
                }
            }
            daemon.kill();
        }
        (Err(e), _) => fail(&mut failures, format!("local adaptive run failed: {e}")),
        (_, Err(e)) => fail(&mut failures, format!("daemon D failed to start: {e}")),
    }
    log.push(format!(
        "adaptive: matched local run = {adaptive_matches}, convergence line = {adaptive_convergence}"
    ));

    let _ = std::fs::remove_dir_all(&spool);
    let _ = std::fs::remove_dir_all(&spool_c);
    let _ = std::fs::remove_dir_all(&spool_p);

    Outcome {
        summary: ServeSummary {
            seed,
            trials,
            events_before_kill,
            resumed_report_matches_reference: resumed_matches,
            exactly_once,
            busy_observed,
            rejected_while_draining,
            garbage_rejected_cleanly: failures
                .iter()
                .all(|f| !f.contains("garbage connection")),
            drain_left_resumable_checkpoint,
            adaptive_report_matches_local_plan: adaptive_matches,
            adaptive_convergence_reported: adaptive_convergence,
        },
        log,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_selfcheck_passes_end_to_end() {
        let outcome = run_selfcheck(11);
        assert!(
            outcome.failures.is_empty(),
            "serve self-checks failed:\n{}",
            outcome.failures.join("\n")
        );
        assert!(outcome.summary.resumed_report_matches_reference);
        assert!(outcome.summary.exactly_once);
        assert!(outcome.summary.busy_observed);
        assert!(outcome.summary.adaptive_report_matches_local_plan);
        assert!(outcome.summary.adaptive_convergence_reported);
    }
}
