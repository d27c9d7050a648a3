//! Property tests for the campaign planner: estimator coverage
//! guarantees, stratified-recombination correctness, and planned
//! pause/resume byte-identity.

use proptest::prelude::*;

use pfault_platform::campaign::{Campaign, CampaignConfig, ProgressSignal};
use pfault_platform::plan::{clopper_pearson, wilson, PlanSpec, PlanState};

/// Binomial pmf in log space — finite for every n this file sweeps.
fn binom_pmf(n: u64, k: u64, p: f64) -> f64 {
    let mut ln = 0.0f64;
    for i in 0..k {
        ln += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
    }
    (ln + k as f64 * p.ln() + (n - k) as f64 * (1.0 - p).ln()).exp()
}

/// Exact coverage of a binomial interval at (n, p): the probability,
/// summed over every possible outcome k, that the interval built from
/// (k, n) contains the true p.
fn coverage(n: u64, p: f64, confidence: f64, exact: bool) -> f64 {
    (0..=n)
        .map(|k| {
            let iv = if exact {
                clopper_pearson(k, n, confidence)
            } else {
                wilson(k, n, confidence)
            };
            if iv.covers(p) {
                binom_pmf(n, k, p)
            } else {
                0.0
            }
        })
        .sum()
}

/// A campaign small enough that one planned run takes milliseconds.
fn tiny_config() -> CampaignConfig {
    let mut config = CampaignConfig::paper_default();
    config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
    config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
    config.trial.workload = pfault_workload::WorkloadSpec::builder()
        .wss_bytes(4 * pfault_sim::storage::GIB)
        .build();
    config.trials = 6;
    config.requests_per_trial = 5;
    config
}

/// A confidence spec loose enough to converge within a few rounds.
fn loose_ci() -> PlanSpec {
    PlanSpec::Confidence {
        half_width: 0.45,
        confidence: 0.9,
        exact: false,
        min_trials: 9,
        max_trials: 24,
        round: 3,
    }
}

proptest! {
    // ---------------- Interval estimators ----------------

    /// Clopper-Pearson is conservative by construction: its exact
    /// coverage is at least the nominal confidence for every (n, p),
    /// exhaustively over all k at each n.
    #[test]
    fn clopper_pearson_coverage_is_at_least_nominal(
        n in 1u64..26,
        p in 0.001f64..0.999,
        confidence in 0.80f64..0.99
    ) {
        let cov = coverage(n, p, confidence, true);
        prop_assert!(
            cov >= confidence - 1e-9,
            "CP coverage {cov} < nominal {confidence} at n={n} p={p}"
        );
    }

    /// Wilson trades conservatism for width: its coverage oscillates
    /// around nominal but stays near it away from the extremes.
    #[test]
    fn wilson_coverage_stays_near_nominal(n in 15u64..80, p in 0.1f64..0.9) {
        let cov = coverage(n, p, 0.95, false);
        prop_assert!(
            cov >= 0.90,
            "Wilson coverage {cov} fell below 0.90 at n={n} p={p}"
        );
    }

    /// Shape invariants of the Wilson interval: bounds bracket the
    /// point estimate inside [0,1], boundary tallies pin the boundary
    /// endpoints, higher confidence nests, and more data tightens.
    #[test]
    fn wilson_shape_invariants(n in 1u64..400, k_seed: u64, confidence in 0.5f64..0.99) {
        let k = k_seed % (n + 1);
        let iv = wilson(k, n, confidence);
        let p_hat = k as f64 / n as f64;
        prop_assert!(0.0 <= iv.lo && iv.lo <= p_hat && p_hat <= iv.hi && iv.hi <= 1.0);
        if k == 0 {
            prop_assert!(iv.lo == 0.0, "k=0 must pin lo to 0, got {}", iv.lo);
        }
        if k == n {
            prop_assert!(iv.hi == 1.0, "k=n must pin hi to 1, got {}", iv.hi);
        }
        let wider = wilson(k, n, (confidence + 1.0) / 2.0);
        prop_assert!(
            wider.lo <= iv.lo + 1e-12 && iv.hi <= wider.hi + 1e-12,
            "higher confidence must nest the lower one"
        );
        let tighter = wilson(4 * k, 4 * n, confidence);
        prop_assert!(
            tighter.half_width() <= iv.half_width() + 1e-12,
            "4x the data at the same rate must not widen the interval"
        );
    }

    // ---------------- Stratified recombination ----------------

    /// With uniform weights and identical per-stratum tallies, the
    /// stratified estimator collapses to the pooled one: same point
    /// estimate, same Wilson interval.
    #[test]
    fn uniform_strata_interval_matches_pooled_wilson(
        h in 2usize..6,
        n_per in 1u64..30,
        k_seed: u64
    ) {
        let k = k_seed % (n_per + 1);
        let strata: Vec<(String, f64)> = (0..h).map(|i| (format!("s{i}"), 1.0)).collect();
        let spec = PlanSpec::fixed(h as u64 * n_per);
        let mut state = PlanState::new(spec, strata).expect("planner state");
        for s in 0..h {
            for t in 0..n_per {
                state.absorb(s, t < k);
            }
        }
        let total_n = h as u64 * n_per;
        let total_k = h as u64 * k;
        prop_assert!(
            (state.p_hat() - total_k as f64 / total_n as f64).abs() < 1e-12,
            "stratified p_hat {} != pooled {}", state.p_hat(), total_k as f64 / total_n as f64
        );
        let pooled = wilson(total_k, total_n, spec.confidence());
        let iv = state.interval();
        prop_assert!(
            (iv.lo - pooled.lo).abs() < 1e-9 && (iv.hi - pooled.hi).abs() < 1e-9,
            "stratified interval [{}, {}] != pooled [{}, {}] at h={h} n={n_per} k={k}",
            iv.lo, iv.hi, pooled.lo, pooled.hi
        );
    }

    // ---------------- Planned pause/resume ----------------

    /// An adaptive campaign paused at an arbitrary trial (checkpointing
    /// mid-round included) and resumed from the checkpoint produces a
    /// report byte-identical to the uninterrupted run — for any seed
    /// and any pause point.
    #[test]
    fn planned_pause_resume_is_byte_identical(seed: u64, pause in 1u64..7) {
        let builder = || {
            Campaign::builder(tiny_config())
                .seed(seed)
                .plan(loose_ci())
        };
        let golden = builder().build().run();
        let golden = serde_json::to_string(&golden).expect("report serializes");

        let dir = std::env::temp_dir().join("pfault-prop-plan");
        let _ = std::fs::create_dir_all(&dir);
        let ckpt = dir.join(format!(
            "ckpt-{}-{seed}-{pause}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&ckpt);
        let campaign = builder().checkpoint(&ckpt, 2).build();
        let run = campaign
            .execute(false, &mut |p| {
                if p.completed == pause {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("paused planned run");
        prop_assert!(run.paused, "pause at {pause} must interrupt a >=9-trial run");
        let resumed = campaign
            .execute(true, &mut |_| ProgressSignal::Continue)
            .expect("resumed planned run")
            .report;
        let resumed = serde_json::to_string(&resumed).expect("report serializes");
        let _ = std::fs::remove_file(&ckpt);
        prop_assert_eq!(golden, resumed);
    }
}
