//! Integration test for the daemon's durability story: kill the daemon
//! mid-campaign (in-process), restart it over the same spool, and
//! require the finished job to be **byte-identical** to an
//! uninterrupted same-seed run — including through the nastiest crash
//! window, where the checkpoint hit disk but its journal announcement
//! did not.

use std::collections::BTreeSet;
use std::io::{Read as _, Seek as _, SeekFrom, Write as _};

use pfault_serve::client::Client;
use pfault_serve::daemon::{campaign_for, Daemon, DaemonConfig};
use pfault_serve::proto::JobSpec;
use pfault_serve::spool::Spool;

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pfault-crash-resume-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The uninterrupted truth: the same spec run locally.
fn reference_report(spec: &JobSpec) -> String {
    let report = campaign_for(spec)
        .expect("spec builds a campaign")
        .build()
        .run();
    serde_json::to_string(&report).expect("report serializes")
}

/// Drops the last line of the job's event journal, simulating a crash
/// that landed after a checkpoint rename but before (or during) the
/// journal append — the exact window `reconcile_events` exists for.
fn tear_last_journal_line(spool_dir: &std::path::Path, job: u64) {
    let path = spool_dir.join(format!("job-{job}.events.jsonl"));
    let mut file = std::fs::OpenOptions::new()
        .read(true)
        .write(true)
        .open(&path)
        .expect("journal exists");
    let mut text = String::new();
    file.read_to_string(&mut text).expect("journal reads");
    let trimmed = &text[..text.trim_end_matches('\n').len()];
    let keep = trimmed.rfind('\n').map_or(0, |i| i + 1);
    file.set_len(keep as u64).expect("journal truncates");
    file.seek(SeekFrom::Start(keep as u64)).expect("seek");
    // Leave half a record behind for good measure: the reader must
    // treat it exactly like a torn append.
    file.write_all(b"{\"job\":").expect("torn tail writes");
}

#[test]
fn killed_daemon_resumes_byte_identically_with_exactly_once_delivery() {
    let spec = JobSpec::tiny_campaign(4242);
    let reference = reference_report(&spec);
    let spool_dir = scratch("main");

    // Phase 1: first daemon takes the job; the client acks two events;
    // then the daemon dies abruptly.
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let job;
    {
        let daemon = Daemon::start(DaemonConfig::new(&spool_dir)).expect("daemon A starts");
        let addr = daemon.local_addr().to_string();
        let mut client = Client::connect(&addr, 10_000).expect("client connects");
        job = client
            .submit(&spec)
            .expect("submit succeeds")
            .expect("queue has room");
        let stream = client.attach(job, 0).expect("attach succeeds");
        for event in stream.take(2) {
            let event = event.expect("early events stream cleanly");
            assert_eq!(event.kind, "progress");
            seen.insert(event.seq);
        }
        daemon.kill();
    }
    assert!(!seen.is_empty(), "need at least one acked event before the kill");

    // Widen the crash window: whatever the journal's last record was,
    // tear it off. The checkpoint on disk is now strictly ahead of the
    // journal, exactly as if the power died between rename and append.
    tear_last_journal_line(&spool_dir, job);

    // Phase 2: a fresh daemon over the same spool must reconcile the
    // journal, resume the campaign, and finish. The reattached client
    // replays from its last acked seq.
    let daemon = Daemon::start(DaemonConfig::new(&spool_dir)).expect("daemon B starts");
    let addr = daemon.local_addr().to_string();
    let from_seq = seen.last().map_or(0, |s| s + 1);
    let mut client =
        Client::connect_backoff(&addr, 20_000, 5, 10, 4242).expect("client reconnects");
    let mut done_body = None;
    for event in client.attach(job, from_seq).expect("reattach succeeds") {
        let event = event.expect("resumed stream is clean");
        assert!(
            seen.insert(event.seq),
            "seq {} delivered twice across the crash",
            event.seq
        );
        assert_eq!(event.job, job);
        match event.kind.as_str() {
            "progress" => {}
            "done" => done_body = Some(event.body),
            other => panic!("unexpected terminal event {other:?}"),
        }
    }
    daemon.kill();

    // Exactly-once: the union of pre-kill and post-restart deliveries
    // is dense from 0 with no duplicates (insert() above caught those).
    let n = seen.len() as u64;
    assert!(
        seen.iter().copied().eq(0..n),
        "event seqs have gaps: {seen:?}"
    );

    // Byte-identical resume: the daemon's final report equals the
    // uninterrupted local run, byte for byte.
    let done_body = done_body.expect("stream ended with a done event");
    assert_eq!(
        done_body, reference,
        "resumed report diverged from the uninterrupted reference"
    );

    // And the spool agrees with what was streamed.
    let spool = Spool::open(&spool_dir).expect("spool reopens");
    assert_eq!(spool.read_done(job).as_deref(), Some(reference.as_str()));
    let _ = std::fs::remove_dir_all(&spool_dir);
}

#[test]
fn restart_with_no_checkpoint_reruns_from_scratch_deterministically() {
    // Kill so early that no checkpoint exists yet: recovery must rerun
    // the job from the spec alone and still match the reference.
    let spec = JobSpec::tiny_campaign(99);
    let reference = reference_report(&spec);
    let spool_dir = scratch("early");

    let job;
    {
        let daemon = Daemon::start(DaemonConfig::new(&spool_dir)).expect("daemon starts");
        let addr = daemon.local_addr().to_string();
        let mut client = Client::connect(&addr, 10_000).expect("client connects");
        job = client
            .submit(&spec)
            .expect("submit succeeds")
            .expect("queue has room");
        // No attach, no waiting: kill immediately. The job may have
        // progressed arbitrarily far — or not started.
        daemon.kill();
    }

    let daemon = Daemon::start(DaemonConfig::new(&spool_dir)).expect("daemon restarts");
    let addr = daemon.local_addr().to_string();
    let mut client = Client::connect(&addr, 20_000).expect("client reconnects");
    let mut done_body = None;
    let mut seqs = Vec::new();
    for event in client.attach(job, 0).expect("attach succeeds") {
        let event = event.expect("stream is clean");
        seqs.push(event.seq);
        if event.kind == "done" {
            done_body = Some(event.body);
        }
    }
    daemon.kill();

    assert_eq!(
        done_body.as_deref(),
        Some(reference.as_str()),
        "from-scratch rerun diverged"
    );
    let dense: Vec<u64> = (0..seqs.len() as u64).collect();
    assert_eq!(seqs, dense, "replayed journal is not dense from 0");
    let _ = std::fs::remove_dir_all(&spool_dir);
}
