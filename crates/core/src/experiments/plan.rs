//! Extension P — the adaptive campaign planner demonstrated end to end
//! (ROADMAP item 3).
//!
//! The paper sizes every campaign with a fixed trial count, which
//! wastes nearly every trial once failure rates drop below ~1e-3. This
//! experiment builds a *census-grounded* microtrial point from the
//! fault-site census (PR 2's sweep layer): each recorded site span
//! becomes a stratum (`site#occurrence`) weighted by the simulated time
//! it covers, and one deliberately rare span — the smallest stratum,
//! standing in for the §10 second-fault recovery window — carries all
//! of the failure probability, scaled so the *overall* rate is at most
//! `1e-3`.
//!
//! On that point it runs both plan kinds and self-checks the ROADMAP
//! deliverable:
//!
//! 1. a fixed-N baseline ([`PlanSpec::fixed`]) establishes the
//!    confidence band a classic campaign buys with `FIXED_TRIALS`
//!    trials;
//! 2. a confidence-driven plan ([`PlanSpec::ci`]) targeting that same
//!    half-width must converge at **≥10x fewer trials** (Neyman
//!    allocation concentrates rounds on the rare stratum);
//! 3. the same adaptive plan re-run on another worker count must
//!    produce a byte-identical report;
//! 4. a *real* planned campaign (actual fault-injection trials, not
//!    microtrials) must agree byte-for-byte across two worker counts
//!    and across a mid-round checkpoint/resume.
//!
//! Plans and campaigns run on the scale's worker count (`--engine` /
//! `--threads`), and each worker-count check re-runs on one other
//! count: 3 when the scale has one worker, else 1.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use crate::campaign::{Campaign, CampaignReport, ProgressSignal};
use crate::error::PlatformError;
use crate::experiments::{base_trial, campaign_at, ExperimentScale};
use crate::plan::{run_plan, PlanPoint, PlanReport, PlanSpec};
use crate::sweep::{SweepConfig, Sweeper};

/// Trials the fixed-N baseline spends. Microtrials are pure RNG draws,
/// so this is cheap; it only needs to be large enough that the baseline
/// band is meaningfully tight at a ~1e-3 failure rate.
const FIXED_TRIALS: u64 = 20_000;

/// Overall failure rate the point is tuned to (the ROADMAP deliverable
/// demands the 10x gain on a ≤1e-3 point).
const TARGET_RATE: f64 = 1e-3;

/// Per-stratum failure probability ceiling (keeps the rare stratum a
/// genuinely probabilistic microtrial even when its weight is tiny).
const MAX_SITE_RATE: f64 = 0.2;

/// A microtrial point stratified over the fault-site census: stratum
/// `h` fails with probability `rates[h]`, decided by a deterministic
/// per-`(h, index)` uniform draw.
pub struct CensusPoint {
    strata: Vec<(String, f64)>,
    rates: Vec<f64>,
    seed: u64,
}

impl PlanPoint for CensusPoint {
    fn strata(&self) -> Vec<(String, f64)> {
        self.strata.clone()
    }

    fn failed(&self, stratum: usize, index: u64) -> bool {
        let u = pfault_sim::DetRng::new(self.seed)
            .fork("plan-census-sev")
            .fork_index(stratum as u64)
            .fork_index(index)
            .unit_f64();
        // P(u / (1 - p) >= 1) = p.
        let p = self.rates[stratum];
        p > 0.0 && u / (1.0 - p) >= 1.0
    }
}

impl CensusPoint {
    /// The exact overall failure rate `Σ w_h p_h` baked into the point.
    pub fn true_rate(&self) -> f64 {
        let total: f64 = self.strata.iter().map(|(_, w)| w).sum();
        self.strata
            .iter()
            .zip(&self.rates)
            .map(|((_, w), p)| (w / total) * p)
            .sum()
    }

    /// Name and normalized weight of the failing stratum.
    pub fn vulnerable(&self) -> (String, f64) {
        let total: f64 = self.strata.iter().map(|(_, w)| w).sum();
        let h = self.rates.iter().position(|&p| p > 0.0).unwrap_or_default();
        (self.strata[h].0.clone(), self.strata[h].1 / total)
    }
}

/// Builds the census point: runs the fault-free census trial from the
/// sweep layer and turns every recorded span into one stratum —
/// `site#occurrence`, weighted by its span time (+1µs so instantaneous
/// sites still weigh). The smallest-weight span plays the vulnerable
/// window (the §10 second-fault story: one specific narrow window is
/// where the damage hides) and gets a failure probability tuned so the
/// overall rate is `min(TARGET_RATE, MAX_SITE_RATE · w)`.
pub fn census_point(seed: u64) -> Result<CensusPoint, PlatformError> {
    let sweeper = Sweeper::new(SweepConfig::smoke(seed));
    let spans = sweeper.census()?;
    let mut by_span: BTreeMap<String, f64> = BTreeMap::new();
    for span in &spans {
        let micros = (span.end - span.start).as_micros() as f64;
        *by_span
            .entry(format!("{}#{:03}", span.site.name(), span.index))
            .or_insert(0.0) += micros + 1.0;
    }
    if by_span.len() < 2 {
        return Err(PlatformError::InvalidConfig(
            "census produced fewer than two fault-site spans; cannot stratify".to_string(),
        ));
    }
    let strata: Vec<(String, f64)> = by_span.iter().map(|(name, w)| (name.clone(), *w)).collect();
    let total: f64 = strata.iter().map(|(_, w)| w).sum();
    // The rarest span plays the vulnerable one: all failure probability
    // lives there, scaled to hold the overall rate at TARGET_RATE.
    let mut vulnerable = 0usize;
    for (h, (_, w)) in strata.iter().enumerate() {
        if *w < strata[vulnerable].1 {
            vulnerable = h;
        }
    }
    let w_f = strata[vulnerable].1 / total;
    let rate = (TARGET_RATE / w_f).min(MAX_SITE_RATE);
    let mut rates = vec![0.0; strata.len()];
    rates[vulnerable] = rate;
    Ok(CensusPoint {
        strata,
        rates,
        seed,
    })
}

/// Everything the experiment measured, serialized as the JSON payload.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PlanExpReport {
    /// Strata in the census point (one per recorded site span).
    pub sites: u64,
    /// The exact overall failure rate baked into the point.
    pub true_rate: f64,
    /// The failing (rare) site's name.
    pub vulnerable_site: String,
    /// The failing site's normalized census weight.
    pub vulnerable_weight: f64,
    /// Fixed-N baseline run.
    pub fixed: PlanReport,
    /// Confidence-driven run targeting the baseline's half-width.
    pub adaptive: PlanReport,
    /// `fixed.trials / adaptive.trials` — must be ≥ 10.
    pub gain: f64,
    /// Adaptive reports on the scale's and one other worker count
    /// byte-equal.
    pub engines_agree: bool,
    /// Trials the real planned fault-injection campaign ran.
    pub campaign_trials: u64,
    /// Planned campaigns on the scale's and one other worker count
    /// byte-equal.
    pub campaign_engines_agree: bool,
    /// Mid-round checkpoint/resume byte-equal to uninterrupted.
    pub campaign_resume_matches: bool,
}

fn report_bytes(report: &PlanReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

fn campaign_bytes(report: &CampaignReport) -> String {
    serde_json::to_string(report).unwrap_or_default()
}

/// The small confidence spec the *real* campaign runs under — sized so
/// the planned fault-injection runs stay test-cheap at any scale.
fn campaign_ci_spec() -> PlanSpec {
    PlanSpec::Confidence {
        half_width: 0.45,
        confidence: 0.9,
        exact: false,
        min_trials: 9,
        max_trials: 24,
        round: 3,
    }
}

/// The worker count each worker-count check compares `threads` with.
fn other_workers(threads: usize) -> usize {
    if threads == 1 {
        3
    } else {
        1
    }
}

/// Runs the full extension: microtrial plans on the census point plus
/// the real planned campaign, all deterministically derived from
/// `seed`.
pub fn run(scale: ExperimentScale, seed: u64) -> Result<PlanExpReport, PlatformError> {
    let threads = scale.threads;
    let other = other_workers(threads);
    let point = census_point(seed)?;
    let (vulnerable_site, vulnerable_weight) = point.vulnerable();

    // 1. Fixed-N baseline: the band a classic campaign buys.
    let fixed = run_plan(&point, PlanSpec::fixed(FIXED_TRIALS), threads)?;

    // 2. Adaptive run targeting the baseline's achieved half-width.
    let eps = fixed.wilson.half_width();
    let adaptive_spec = PlanSpec::ci(eps, 0.95);
    let adaptive = run_plan(&point, adaptive_spec, threads)?;
    let gain = fixed.trials as f64 / adaptive.trials.max(1) as f64;

    // 3. Worker-count byte-equality on the adaptive plan.
    let cross = run_plan(&point, adaptive_spec, other)?;
    let engines_agree = report_bytes(&adaptive) == report_bytes(&cross);

    // 4. The real thing: a planned fault-injection campaign on two
    //    worker counts, and a mid-round pause/resume.
    let config = campaign_at(base_trial(), scale);
    let builder = Campaign::builder(config)
        .plan(campaign_ci_spec())
        .seed(seed)
        .threads(threads);
    let go =
        |campaign: Campaign, resume| campaign.execute(resume, &mut |_| ProgressSignal::Continue);
    let planned = go(builder.clone().build(), false)?.report;
    let cross = go(builder.clone().threads(other).build(), false)?.report;
    let campaign_engines_agree = campaign_bytes(&planned) == campaign_bytes(&cross);

    let dir = std::env::temp_dir().join("pfault-plan-exp");
    std::fs::create_dir_all(&dir)
        .map_err(|e| PlatformError::InvalidConfig(format!("temp dir for checkpoint: {e}")))?;
    let path = dir.join(format!("plan-exp-{}-{}.json", std::process::id(), seed));
    let _ = std::fs::remove_file(&path);
    let campaign = builder.checkpoint(&path, 2).build();
    // Pause after trial 4 — mid-round for the 3-wide rounds — so the
    // resume has to pick the planner back up inside a round.
    let paused = campaign.execute(false, &mut |p| {
        if p.completed == 4 {
            ProgressSignal::Pause
        } else {
            ProgressSignal::Continue
        }
    })?;
    let resumed = if paused.paused {
        go(campaign, true)?.report
    } else {
        paused.report.clone()
    };
    let campaign_resume_matches = campaign_bytes(&resumed) == campaign_bytes(&planned);
    let _ = std::fs::remove_file(&path);

    Ok(PlanExpReport {
        sites: point.strata.len() as u64,
        true_rate: point.true_rate(),
        vulnerable_site,
        vulnerable_weight,
        fixed,
        adaptive,
        gain,
        engines_agree,
        campaign_trials: planned.faults,
        campaign_engines_agree,
        campaign_resume_matches,
    })
}

/// Self-checks — every line of the ROADMAP deliverable, enforced.
pub fn check(report: &PlanExpReport) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |why: String| failures.push(format!("plan check failed: {why}"));

    if report.true_rate > TARGET_RATE * (1.0 + 1e-9) {
        fail(format!(
            "point failure rate {} exceeds the ≤{TARGET_RATE} deliverable",
            report.true_rate
        ));
    }
    if report.gain < 10.0 {
        fail(format!(
            "adaptive plan used {} trials vs fixed {} — gain {:.1}x is below 10x",
            report.adaptive.trials, report.fixed.trials, report.gain
        ));
    }
    let eps = report.fixed.wilson.half_width();
    if report.adaptive.wilson.half_width() > eps * (1.0 + 1e-9) {
        fail(format!(
            "adaptive half-width {} did not reach the fixed baseline's {eps}",
            report.adaptive.wilson.half_width()
        ));
    }
    if !report.adaptive.wilson.covers(report.adaptive.p_hat) {
        fail("adaptive interval does not cover its own estimate".to_string());
    }
    if !report.engines_agree {
        fail("adaptive reports on two worker counts differ".to_string());
    }
    if !report.campaign_engines_agree {
        fail("planned campaigns on two worker counts differ".to_string());
    }
    if !report.campaign_resume_matches {
        fail("checkpoint/resume planned campaign differs from uninterrupted".to_string());
    }
    if report.campaign_trials == 0 {
        fail("planned campaign ran no trials".to_string());
    }
    failures
}

/// Human-readable rendering for the `repro` text output; `threads` is
/// the worker count the report ran on.
pub fn render(report: &PlanExpReport, threads: usize) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension P: adaptive planner on a {}-site census point ==",
        report.sites
    );
    let _ = writeln!(
        text,
        "vulnerable site {} (weight {:.4}), true failure rate {:.2e}",
        report.vulnerable_site, report.vulnerable_weight, report.true_rate
    );
    let _ = writeln!(
        text,
        "fixed   {}: n={} p^={:.6} ci=[{:.6},{:.6}] hw={:.6}",
        report.fixed.spec.render(),
        report.fixed.trials,
        report.fixed.p_hat,
        report.fixed.wilson.lo,
        report.fixed.wilson.hi,
        report.fixed.wilson.half_width()
    );
    let _ = writeln!(
        text,
        "adaptive {}: n={} p^={:.6} ci=[{:.6},{:.6}] hw={:.6} ({} rounds)",
        report.adaptive.spec.render(),
        report.adaptive.trials,
        report.adaptive.p_hat,
        report.adaptive.wilson.lo,
        report.adaptive.wilson.hi,
        report.adaptive.wilson.half_width(),
        report.adaptive.rounds
    );
    let _ = writeln!(
        text,
        "gain: {:.1}x fewer trials at the same half-width (engines byte-equal: {})",
        report.gain, report.engines_agree
    );
    let _ = writeln!(
        text,
        "planned campaign: {} real trials; {} vs {} workers byte-equal: {}, resume==uninterrupted: {}",
        report.campaign_trials,
        threads,
        other_workers(threads),
        report.campaign_engines_agree,
        report.campaign_resume_matches
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_scale() -> ExperimentScale {
        ExperimentScale {
            faults_per_point: 3,
            requests_per_trial: 12,
            threads: 2,
        }
    }

    #[test]
    fn census_point_is_rare_and_stratified() {
        let point = census_point(20180429).expect("census");
        assert!(point.strata.len() >= 2);
        assert!(point.true_rate() <= TARGET_RATE * (1.0 + 1e-9));
        assert!(point.true_rate() > 0.0);
        let (_, w) = point.vulnerable();
        assert!(w > 0.0 && w < 1.0);
        // Trials are pure: same (h, i) twice gives the same bit.
        assert_eq!(point.failed(0, 7), point.failed(0, 7));
    }

    #[test]
    fn extension_p_passes_its_own_checks() {
        let report = run(tiny_scale(), 20180429).expect("extension P runs");
        let failures = check(&report);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(report.gain >= 10.0, "gain {:.1}", report.gain);
        let text = render(&report, tiny_scale().threads);
        assert!(text.contains("Extension P"));
        assert!(text.contains("gain"));
    }

    #[test]
    fn extension_p_is_deterministic() {
        let a = run(tiny_scale(), 7).expect("run a");
        let b = run(tiny_scale(), 7).expect("run b");
        assert_eq!(
            serde_json::to_string(&a.fixed).unwrap(),
            serde_json::to_string(&b.fixed).unwrap()
        );
        assert_eq!(
            serde_json::to_string(&a.adaptive).unwrap(),
            serde_json::to_string(&b.adaptive).unwrap()
        );
    }
}
