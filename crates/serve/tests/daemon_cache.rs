//! The daemon owns one snapshot cache for its whole life: the first job
//! on a configuration builds the warm image and every later job on the
//! same configuration clones it, each status row reporting only that
//! job's own lookup.

use pfault_serve::client::Client;
use pfault_serve::daemon::{Daemon, DaemonConfig};
use pfault_serve::proto::{JobInfo, JobSpec, Request, Response};

#[test]
fn second_job_on_the_same_config_hits_the_daemons_cache() {
    let spool_dir =
        std::env::temp_dir().join(format!("pfault-daemon-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&spool_dir);
    let daemon = Daemon::start(DaemonConfig::new(&spool_dir)).expect("daemon starts");
    let mut client =
        Client::connect(&daemon.local_addr().to_string(), 10_000).expect("client connects");

    // One job after the other, same configuration, different seeds.
    let mut jobs = Vec::new();
    for seed in [5, 6] {
        let spec = JobSpec::tiny_campaign(seed);
        assert!(spec.warmup > 0, "the spec must clone a warm image");
        let job = client
            .submit(&spec)
            .expect("submit succeeds")
            .expect("queue has room");
        let last = client
            .attach(job, 0)
            .expect("attach succeeds")
            .map(|event| event.expect("stream is clean").kind)
            .last();
        assert_eq!(last.as_deref(), Some("done"));
        jobs.push(job);
    }

    let rows = match client.call(&Request::Status).expect("status answers") {
        Response::JobList { jobs } => jobs,
        other => panic!("expected a job list, got {other:?}"),
    };
    daemon.kill();
    let _ = std::fs::remove_dir_all(&spool_dir);
    let lookups = |job: u64| -> (u64, u64) {
        let row: &JobInfo = rows.iter().find(|r| r.job == job).expect("job listed");
        (row.cache_hits, row.cache_misses)
    };
    assert_eq!(lookups(jobs[0]), (0, 1), "the first job builds the image");
    assert_eq!(lookups(jobs[1]), (1, 0), "the second job clones it");
}
