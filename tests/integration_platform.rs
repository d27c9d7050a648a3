//! Cross-crate integration: the full platform pipeline (workload →
//! device → fault → tracer → analyzer) behaves coherently.

use pfault_platform::campaign::{Campaign, CampaignConfig};
use pfault_platform::platform::{TestPlatform, TrialConfig};
use pfault_platform::FailureKind;
use pfault_sim::storage::GIB;
use pfault_workload::WorkloadSpec;

fn small_trial() -> TrialConfig {
    let mut c = TrialConfig::paper_default();
    c.workload = WorkloadSpec::builder().wss_bytes(8 * GIB).build();
    c.requests = 40;
    c
}

#[test]
fn fault_free_baseline_verifies_everything_intact() {
    let platform = TestPlatform::new(small_trial());
    for seed in [1, 2, 3] {
        let o = platform.run_fault_free(seed);
        assert_eq!(o.counts.data_failures, 0, "seed {seed}: {:?}", o.counts);
        assert_eq!(o.counts.fwa, 0, "seed {seed}");
        assert_eq!(o.counts.io_errors, 0, "seed {seed}");
        assert_eq!(o.counts.intact, o.requests_issued, "seed {seed}");
    }
}

#[test]
fn trials_replay_bit_exactly() {
    let platform = TestPlatform::new(small_trial());
    let a = platform.run_trial(77).expect("trial runs");
    let b = platform.run_trial(77).expect("trial runs");
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.verdicts, b.verdicts);
    assert_eq!(a.fault_commanded_ms, b.fault_commanded_ms);
    assert_eq!(a.failed_ack_intervals_ms, b.failed_ack_intervals_ms);
}

#[test]
fn every_issued_request_gets_exactly_one_verdict() {
    let platform = TestPlatform::new(small_trial());
    let o = platform.run_trial(13).expect("trial runs");
    assert_eq!(o.verdicts.len() as u64, o.requests_issued);
    let tallied = o.counts.data_failures + o.counts.fwa + o.counts.io_errors + o.counts.intact;
    assert_eq!(tallied, o.requests_issued);
}

#[test]
fn faults_on_write_workloads_lose_data() {
    let platform = TestPlatform::new(small_trial());
    let loss: u64 = (0..12)
        .map(|seed| {
            platform
                .run_trial(seed)
                .expect("trial runs")
                .counts
                .total_data_loss()
        })
        .sum();
    assert!(
        loss > 0,
        "12 faults on a full-write workload must lose data"
    );
}

#[test]
fn io_errors_happen_at_the_fault_boundary() {
    let platform = TestPlatform::new(small_trial());
    let mut io_errors = 0;
    for seed in 0..12 {
        io_errors += platform
            .run_trial(seed)
            .expect("trial runs")
            .counts
            .io_errors;
    }
    assert!(io_errors > 0, "in-flight requests at host-loss must error");
}

#[test]
fn campaign_serial_equals_parallel() {
    let config = CampaignConfig {
        trial: small_trial(),
        trials: 8,
        requests_per_trial: 30,
    };
    let serial = Campaign::builder(config).seed(3).build().run();
    let parallel = Campaign::builder(config)
        .seed(3)
        .threads(4)
        .build()
        .run();
    assert_eq!(serial.counts, parallel.counts);
    assert_eq!(serial.requests_issued, parallel.requests_issued);
    assert_eq!(
        serial.max_failed_ack_interval_ms,
        parallel.max_failed_ack_interval_ms
    );
}

#[test]
fn failure_ledger_is_deterministic_between_serial_and_parallel() {
    use pfault_platform::Watchdog;

    // A config that actually produces trial failures: a tight event budget
    // expires some trials, and the spared ones face a coin-flip mount
    // failure with a single retry, so some devices brick. The stealing
    // engine spreads trials across workers and merges; the resulting
    // failures ledger must be *exactly* equal to the serial one —
    // same indices, same causes, same (sorted) order.
    let mut config = CampaignConfig {
        trial: small_trial(),
        trials: 10,
        requests_per_trial: 25,
    };
    config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
    config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
    config.trial.workload = WorkloadSpec::builder().wss_bytes(4 * GIB).build();
    config.trial.watchdog = Watchdog {
        max_sim_time_us: None,
        max_events: Some(1400),
    };
    config.trial.ssd.mount_failure_rate = 0.5;
    config.trial.ssd.mount_retry_limit = 1;

    let serial = Campaign::builder(config).seed(11).build().run();
    let parallel = Campaign::builder(config)
        .seed(11)
        .threads(4)
        .build()
        .run();

    assert!(
        serial.failures.total_failed() > 0,
        "config must produce ledger entries, got {:?}",
        serial.failures
    );
    assert_eq!(serial.failures, parallel.failures);
    for ledger in [&serial.failures, &parallel.failures] {
        assert!(ledger.watchdog_expired.windows(2).all(|w| w[0] < w[1]));
        assert!(ledger.bricked.windows(2).all(|w| w[0] < w[1]));
    }
}

#[test]
fn failed_requests_were_acked_before_the_fault() {
    // Every ACK→fault interval must be non-negative, and verdicts of kind
    // IoError must correspond to requests that never completed.
    let platform = TestPlatform::new(small_trial());
    for seed in 0..6 {
        let o = platform.run_trial(seed).expect("trial runs");
        for &interval in &o.failed_ack_intervals_ms {
            assert!(interval >= 0.0);
        }
        for v in &o.verdicts {
            if v.kind == FailureKind::IoError {
                assert_eq!(v.sectors_checked, 0, "IO errors are not verified");
            }
        }
    }
}
