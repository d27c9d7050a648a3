//! Observability integration: the probe bus must be deterministic,
//! invisible to trial outcomes, and aggregate coherently at campaign
//! level.

use proptest::prelude::*;

use pfault_obs::{parse_jsonl_line, render_records, Metrics};
use pfault_platform::campaign::{Campaign, CampaignConfig};
use pfault_platform::platform::{TestPlatform, TrialConfig};
use pfault_sim::storage::GIB;
use pfault_workload::WorkloadSpec;

fn obs_trial(requests: usize) -> TrialConfig {
    TrialConfig::paper_default()
        .with_workload(WorkloadSpec::builder().wss_bytes(8 * GIB).build())
        .with_requests(requests)
        .with_obs(true)
}

#[test]
fn same_seed_trials_emit_byte_identical_jsonl() {
    let platform = TestPlatform::new(obs_trial(40));
    let a = platform.run_trial(91).expect("trial runs");
    let b = platform.run_trial(91).expect("trial runs");
    let jsonl_a = render_records(&a.probe_records);
    let jsonl_b = render_records(&b.probe_records);
    assert!(!jsonl_a.is_empty(), "obs trial produced no probe records");
    assert_eq!(jsonl_a, jsonl_b, "same seed must render identical JSONL");

    // Every line must parse back with a dense sequence.
    for (i, line) in jsonl_a.lines().enumerate() {
        let parsed = parse_jsonl_line(line).expect("own rendering parses");
        assert_eq!(parsed.seq, i as u64, "sequence hole at line {i}");
    }
}

#[test]
fn same_seed_trials_derive_identical_histograms() {
    let platform = TestPlatform::new(obs_trial(40));
    let a = platform.run_trial(92).expect("trial runs");
    let b = platform.run_trial(92).expect("trial runs");
    let ma = a.telemetry.expect("obs trial carries telemetry");
    let mb = b.telemetry.expect("obs trial carries telemetry");
    assert_eq!(ma.counters, mb.counters);
    assert_eq!(
        ma.histograms.keys().collect::<Vec<_>>(),
        mb.histograms.keys().collect::<Vec<_>>()
    );
    for (key, ha) in &ma.histograms {
        let hb = &mb.histograms[key];
        assert_eq!(ha.buckets(), hb.buckets(), "histogram {key} diverged");
        assert!(ha.count() > 0, "histogram {key} is empty");
    }
    // The metrics folded as the probes fired must equal a fresh
    // derivation from the raw records: no hidden state outside the
    // record stream.
    assert_eq!(ma, Metrics::from_records(&a.probe_records));
}

#[test]
fn warm_image_trial_telemetry_equals_its_records_folded() {
    let platform = TestPlatform::new(obs_trial(40).with_warmup_requests(32));
    let image = platform.warm_image();
    let outcome = platform
        .run_trial_from_image(&image, 94)
        .expect("trial runs");
    assert!(
        !outcome.probe_records.is_empty(),
        "obs trial kept no records"
    );
    let telemetry = outcome.telemetry.expect("obs trial carries telemetry");
    assert_eq!(telemetry, Metrics::from_records(&outcome.probe_records));
}

#[test]
fn disabled_probes_cost_nothing_and_carry_nothing() {
    let platform = TestPlatform::new(obs_trial(40).with_obs(false));
    let o = platform.run_trial(93).expect("trial runs");
    assert!(o.probe_records.is_empty());
    assert!(o.telemetry.is_none());
}

#[test]
fn campaign_aggregates_per_failure_class_telemetry() {
    let config = CampaignConfig {
        trial: obs_trial(40),
        trials: 6,
        requests_per_trial: 40,
    };
    let report = Campaign::builder(config).seed(11).build().run();
    assert_eq!(report.obs.trials_observed, 6);
    assert!(!report.obs.is_empty(), "campaign obs aggregate is empty");
    assert!(!report.obs.by_class.is_empty(), "no per-class telemetry");
    // Every trial lands in at least one class bucket (possibly more
    // when it exhibits several failure classes), so per-class sums
    // cover the totals and no single bucket exceeds them.
    for (key, total) in &report.obs.totals.counters {
        let classed: u64 = report
            .obs
            .by_class
            .values()
            .map(|m| m.counters.get(key).copied().unwrap_or(0))
            .sum();
        assert!(classed >= *total, "counter {key} lost between classes");
        for (class, m) in &report.obs.by_class {
            let in_class = m.counters.get(key).copied().unwrap_or(0);
            assert!(in_class <= *total, "class {class} overcounts {key}");
        }
    }
}

proptest! {
    // The probe bus is observation only: enabling it must never change
    // what a trial concludes.
    #[test]
    fn probes_never_change_trial_classification(seed in 0u64..1000, requests in 20usize..40) {
        let base = TrialConfig::paper_default()
            .with_workload(WorkloadSpec::builder().wss_bytes(8 * GIB).build())
            .with_requests(requests);
        let quiet = TestPlatform::new(base).run_trial(seed).expect("trial runs");
        let observed = TestPlatform::new(base.with_obs(true))
            .run_trial(seed)
            .expect("trial runs");
        prop_assert_eq!(quiet.counts, observed.counts);
        prop_assert_eq!(quiet.verdicts, observed.verdicts);
        prop_assert_eq!(quiet.fault_commanded_ms, observed.fault_commanded_ms);
        prop_assert!(quiet.probe_records.is_empty());
        prop_assert!(!observed.probe_records.is_empty());
    }
}
