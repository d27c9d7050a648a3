//! The daemon is woken, not polled: a job's terminal record and its
//! status row are published together, and teardown, drain and attach
//! streams answer at once instead of at the next poll.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use pfault_serve::client::Client;
use pfault_serve::daemon::{Daemon, DaemonConfig};
use pfault_serve::proto::{JobSpec, Request, Response};

fn scratch(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "pfault-daemon-wakeups-{name}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Runs `f` on its own thread and fails unless it returns within 1 s.
/// A teardown that never wakes fails the test instead of hanging it.
fn within_one_second(what: &str, f: impl FnOnce() + Send + 'static) {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        f();
        let _ = tx.send(());
    });
    assert!(
        rx.recv_timeout(Duration::from_secs(1)).is_ok(),
        "{what} did not return within 1 s"
    );
}

#[test]
fn status_says_done_as_soon_as_the_stream_has_said_so() {
    let spool = scratch("status");
    let daemon = Daemon::start(DaemonConfig::new(&spool)).expect("daemon starts");
    let mut client =
        Client::connect(&daemon.local_addr().to_string(), 10_000).expect("client connects");
    let mut registry_job = JobSpec::tiny_campaign(0);
    registry_job.exp = "fig4".to_string();
    let specs = (1..=10)
        .map(JobSpec::tiny_campaign)
        .chain(std::iter::once(registry_job));
    for spec in specs {
        let job = client
            .submit(&spec)
            .expect("submit succeeds")
            .expect("queue has room");
        let kinds: Vec<String> = client
            .attach(job, 0)
            .expect("attach succeeds")
            .map(|event| event.expect("stream is clean").kind)
            .collect();
        assert_eq!(
            kinds.last().map(String::as_str),
            Some("done"),
            "{} job",
            spec.exp
        );
        // No pause between reading `done` and asking.
        let rows = match client.call(&Request::Status).expect("status answers") {
            Response::JobList { jobs } => jobs,
            other => panic!("expected a job list, got {other:?}"),
        };
        let row = rows.iter().find(|r| r.job == job).expect("job listed");
        assert_eq!(row.state, "done", "{} job {job}: {row:?}", spec.exp);
        assert_eq!(
            row.events,
            kinds.len() as u64,
            "{} job {job}: {row:?}",
            spec.exp
        );
    }
    daemon.kill();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn idle_daemon_drops_and_kills_promptly() {
    let spool = scratch("idle");
    let dropped = Daemon::start(DaemonConfig::new(&spool)).expect("daemon starts");
    within_one_second("dropping an idle daemon", move || drop(dropped));
    let killed = Daemon::start(DaemonConfig::new(&spool)).expect("daemon restarts");
    within_one_second("killing an idle daemon", move || killed.kill());
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn requested_shutdown_then_join_is_prompt() {
    let spool = scratch("join");
    let daemon = Daemon::start(DaemonConfig::new(&spool)).expect("daemon starts");
    let addr = daemon.local_addr();
    within_one_second("request_shutdown + join", move || {
        daemon.request_shutdown();
        daemon.join();
    });
    assert!(
        std::net::TcpStream::connect(addr).is_err(),
        "socket still accepting after join"
    );
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn attach_stream_hears_shutting_down_at_once() {
    let spool = scratch("attach");
    let mut config = DaemonConfig::new(&spool);
    config.workers = 1;
    // Far beyond the 1 s budget: a heartbeat cannot be what wakes the
    // stream.
    config.heartbeat_ms = 30_000;
    let daemon = Daemon::start(config).expect("daemon starts");
    let mut client =
        Client::connect(&daemon.local_addr().to_string(), 10_000).expect("client connects");
    let mut long = JobSpec::tiny_campaign(17);
    long.trials = 400;
    long.checkpoint_every = 1;
    let job = client
        .submit(&long)
        .expect("submit succeeds")
        .expect("queue has room");
    let mut stream = client.attach(job, 0).expect("attach succeeds");
    let first = stream
        .next()
        .expect("the stream is live")
        .expect("first event is clean");
    assert_eq!(first.kind, "progress");

    let asked = Instant::now();
    daemon.request_shutdown();
    // Events already journaled may still arrive; the stream then ends
    // with `ShuttingDown`, never with a terminal event.
    for event in stream {
        let event = event.expect("stream stays clean while draining");
        assert_eq!(event.kind, "progress", "the 400-trial job cannot finish");
    }
    let heard = asked.elapsed();
    assert!(
        heard < Duration::from_secs(1),
        "ShuttingDown after {heard:?}"
    );
    daemon.kill();
    let _ = std::fs::remove_dir_all(&spool);
}

#[test]
fn drain_with_an_idle_client_is_prompt() {
    let spool = scratch("idle-client");
    let daemon = Daemon::start(DaemonConfig::new(&spool)).expect("daemon starts");
    let mut client =
        Client::connect(&daemon.local_addr().to_string(), 10_000).expect("client connects");
    assert_eq!(
        client.call(&Request::Ping).expect("ping answers"),
        Response::Pong
    );
    // The client stays connected and silent: its handler is blocked
    // reading, well inside the daemon's 2 s read deadline.
    within_one_second("drain with an idle client", move || {
        daemon.request_shutdown();
        daemon.join();
    });
    drop(client);
    let _ = std::fs::remove_dir_all(&spool);
}
