//! Fault-injection campaigns: many trials, aggregated.
//!
//! The paper's experiments each inject hundreds of faults ("more than 300
//! power faults … during 24,000 requests"). A [`Campaign`] runs one trial
//! per fault with an independent derived seed and aggregates the
//! [`FailureCounts`] into a [`CampaignReport`]. There are two trial
//! loops: the serial one ([`Campaign::run`], the only one that
//! checkpoints, pauses, and resumes) and the work-stealing one
//! ([`Campaign::run_stealing`]), which schedules chunked batches over
//! worker threads ([`crate::scheduler`]). Both run fixed-N campaigns and
//! planner-driven rounds alike, and both reduce results in canonical
//! trial-index order, so serial and work-stealing runs of the same seed
//! produce **byte-identical** reports.
//!
//! With [`TrialConfig::warmup_requests`] set, trials start from a shared
//! warm device state. The warm-up is run once per configuration, frozen
//! as a [`pfault_ssd::DeviceImage`], memoized in the process-wide
//! [`crate::snapcache`], and copy-on-write-cloned per trial —
//! byte-identical to replaying the warm-up inline, at a fraction of the
//! cost (the clone shares the flash arena and materialises only the
//! blocks the trial touches).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use pfault_obs::Metrics;
use pfault_sim::checksum::fnv64;
use pfault_sim::stats::{Histogram, OnlineStats};
use pfault_sim::DetRng;
use pfault_ssd::DeviceImage;

use crate::analyzer::FailureCounts;
use crate::error::{CheckpointError, PlatformError, TrialError};
use crate::plan::{PlanReport, PlanSpec, PlanState};
use crate::platform::{TestPlatform, TrialConfig, TrialOutcome};
use crate::scheduler::{self, SchedulerStats};

/// Campaign configuration: a trial template plus the fault count.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Template for every trial.
    pub trial: TrialConfig,
    /// Number of fault injections (= trials).
    pub trials: usize,
    /// Requests submitted per trial (overrides `trial.requests`).
    pub requests_per_trial: usize,
}

impl CampaignConfig {
    /// The paper's §IV default: ~80 requests per fault on SSD A.
    pub fn paper_default() -> Self {
        let trial = TrialConfig::paper_default();
        CampaignConfig {
            requests_per_trial: trial.requests,
            trial,
            trials: 300,
        }
    }
}

/// Trials that produced no outcome, by terminal cause, plus the retry
/// effort the campaign spent. Indices are campaign trial indices
/// (`0..trials`), kept sorted.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TrialFailures {
    /// Trials whose body panicked on every attempt.
    pub panicked: Vec<u64>,
    /// Trials that exceeded the watchdog budget on every attempt.
    pub watchdog_expired: Vec<u64>,
    /// Trials whose device bricked (never mounted again) on every attempt.
    pub bricked: Vec<u64>,
    /// Extra attempts spent across all trials (0 if nothing was retried).
    pub retries: u64,
}

impl TrialFailures {
    /// Total trials that failed terminally.
    pub fn total_failed(&self) -> usize {
        self.panicked.len() + self.watchdog_expired.len() + self.bricked.len()
    }

    pub(crate) fn record(&mut self, index: u64, error: &TrialError) {
        match error {
            TrialError::Panicked { .. } => self.panicked.push(index),
            TrialError::WatchdogExpired { .. } => self.watchdog_expired.push(index),
            TrialError::DeviceBricked { .. } => self.bricked.push(index),
        }
    }
}

/// Campaign-level observability aggregate: probe-derived counters and
/// histograms summed over every obs-enabled trial, plus per-failure-class
/// slices (the same metrics restricted to trials that exhibited that
/// class). Empty — and free — when [`TrialConfig::obs`] is off.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObsAggregate {
    /// Trials whose telemetry contributed.
    pub trials_observed: u64,
    /// Metrics summed over all observed trials.
    pub totals: Metrics,
    /// Per-failure-class telemetry: a trial's metrics are merged into the
    /// bucket of every failure class it exhibited (`data-failure`,
    /// `false-write-ack`, `io-error`, `read-only`) or into `clean` if it
    /// exhibited none. Keys are stable strings so the JSON report is
    /// self-labelled.
    pub by_class: BTreeMap<String, Metrics>,
}

impl ObsAggregate {
    /// The failure-class labels a trial's telemetry files under.
    fn classes(counts: &FailureCounts) -> Vec<&'static str> {
        let mut classes = Vec::new();
        if counts.data_failures > 0 {
            classes.push("data-failure");
        }
        if counts.fwa > 0 {
            classes.push("false-write-ack");
        }
        if counts.io_errors > 0 {
            classes.push("io-error");
        }
        if counts.read_only_devices > 0 {
            classes.push("read-only");
        }
        if classes.is_empty() {
            classes.push("clean");
        }
        classes
    }

    fn absorb(&mut self, outcome: &TrialOutcome) {
        let Some(telemetry) = &outcome.telemetry else {
            return;
        };
        self.trials_observed += 1;
        self.totals.merge(telemetry);
        for class in Self::classes(&outcome.counts) {
            self.by_class
                .entry(class.to_string())
                .or_default()
                .merge(telemetry);
        }
    }

    /// Whether no trial contributed telemetry.
    pub fn is_empty(&self) -> bool {
        self.trials_observed == 0
    }
}

/// Aggregated results of a campaign.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Faults injected.
    pub faults: u64,
    /// Requests issued across all trials.
    pub requests_issued: u64,
    /// Requests completed across all trials.
    pub requests_completed: u64,
    /// Failure tallies across all trials.
    pub counts: FailureCounts,
    /// Distribution of per-trial responded IOPS.
    pub responded_iops: OnlineStats,
    /// Distribution of ACK→fault intervals over failed requests (ms) —
    /// the §IV-A quantity.
    pub failed_ack_interval_ms: OnlineStats,
    /// Largest observed ACK→fault interval among failed requests (ms).
    pub max_failed_ack_interval_ms: f64,
    /// Distribution of those intervals in 50 ms buckets up to 1 s (the
    /// §IV-A histogram).
    pub failed_ack_interval_hist: Histogram,
    /// Programs interrupted mid-operation across all trials.
    pub interrupted_programs: u64,
    /// Paired-page collateral corruptions across all trials.
    pub paired_corruptions: u64,
    /// Trials that ended without an outcome (panic, watchdog, brick).
    pub failures: TrialFailures,
    /// Probe-derived telemetry (empty unless trials ran with
    /// [`TrialConfig::obs`]).
    pub obs: ObsAggregate,
    /// Planner state for plan-driven runs (`None` for plain fixed
    /// loops): per-stratum tallies, round index, and current round
    /// targets. Living inside the report means checkpoint v6 persists
    /// it automatically, so adaptive campaigns pause/resume
    /// byte-identically.
    pub plan: Option<PlanState>,
}

impl CampaignReport {
    fn empty() -> Self {
        CampaignReport {
            faults: 0,
            requests_issued: 0,
            requests_completed: 0,
            counts: FailureCounts::default(),
            responded_iops: OnlineStats::new(),
            failed_ack_interval_ms: OnlineStats::new(),
            max_failed_ack_interval_ms: 0.0,
            failed_ack_interval_hist: Histogram::new(50.0, 20),
            interrupted_programs: 0,
            paired_corruptions: 0,
            failures: TrialFailures::default(),
            obs: ObsAggregate::default(),
            plan: None,
        }
    }

    fn absorb(&mut self, outcome: &TrialOutcome) {
        self.faults += 1;
        self.requests_issued += outcome.requests_issued;
        self.requests_completed += outcome.requests_completed;
        self.counts.merge(&outcome.counts);
        self.responded_iops.push(outcome.responded_iops);
        for &interval in &outcome.failed_ack_intervals_ms {
            self.failed_ack_interval_ms.push(interval);
            self.failed_ack_interval_hist.record(interval);
            if interval > self.max_failed_ack_interval_ms {
                self.max_failed_ack_interval_ms = interval;
            }
        }
        self.interrupted_programs += outcome.interrupted_programs;
        self.paired_corruptions += outcome.paired_corruptions;
        self.obs.absorb(outcome);
    }

    /// Tallies a trial that ended without an outcome. The fault was still
    /// injected (the trial ran up to and past the discharge before dying),
    /// and a bricked device is a first-class failure alongside the per-
    /// request verdicts.
    fn absorb_failure(&mut self, index: u64, error: &TrialError) {
        self.faults += 1;
        if matches!(error, TrialError::DeviceBricked { .. }) {
            self.counts.bricked_devices += 1;
        }
        self.failures.record(index, error);
    }

    /// Absorbs one trial result and tallies its failure bit into the
    /// planner state, if any. Both engines funnel results through this
    /// in canonical index order.
    fn absorb_result(
        &mut self,
        index: u64,
        result: Result<TrialOutcome, TrialError>,
        retries: u64,
    ) {
        if let Some(state) = self.plan.as_mut() {
            state.absorb(0, trial_failed(&result));
        }
        self.failures.retries += retries;
        match result {
            Ok(outcome) => self.absorb(&outcome),
            Err(error) => self.absorb_failure(index, &error),
        }
    }

    /// Data failures (excluding FWA) per injected fault — the paper's
    /// right-hand axis in Figs 5–7 and 9.
    pub fn data_failures_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.counts.data_failures as f64 / self.faults as f64
    }

    /// Total data-loss events (data failures + FWA) per fault.
    pub fn data_loss_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.counts.total_data_loss() as f64 / self.faults as f64
    }

    /// IO errors per fault.
    pub fn io_errors_per_fault(&self) -> f64 {
        if self.faults == 0 {
            return 0.0;
        }
        self.counts.io_errors as f64 / self.faults as f64
    }

    /// The planner's verdict for a plan-driven run: n, p̂, intervals,
    /// and the strata breakdown. `None` for plain fixed loops.
    pub fn plan_report(&self) -> Option<PlanReport> {
        self.plan.as_ref().map(PlanState::report)
    }
}

/// On-disk snapshot of a partially completed campaign: trials
/// `0..completed` are absorbed into `report`. The identity fields pin the
/// snapshot to one (config, seed) pair so a resume cannot silently mix
/// campaigns.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct CampaignCheckpoint {
    version: u32,
    config_digest: u64,
    seed: u64,
    trials: u64,
    completed: u64,
    report: CampaignReport,
}

// v3: `FailureCounts` gained `read_only_devices` and `TrialConfig` the
// recovery-storm knobs, so v2 snapshots no longer deserialize into the
// same report shape.
// v4: `FailureCounts` gained the fleet-layer tallies (`stripes_lost`,
// `degraded_reads`, `rebuilds_interrupted`), so v3 snapshots
// deserialize into a different report shape again.
// v5: `FailureCounts` gained the application-layer oracle tallies
// (`app_surfaced`, `app_masked`, `app_silent_poison`); a v4 snapshot
// resumed into a v5 campaign would silently zero-fill them, so stale
// versions are rejected loudly instead.
// v6: `CampaignReport` gained the embedded planner state (`plan`) for
// adaptive campaigns, and the config digest now covers the campaign's
// `PlanSpec` — a v5 snapshot would deserialize into a different report
// shape and lose the planner's round/tally state.
const CHECKPOINT_VERSION: u32 = 6;

/// Per-trial progress handed to a [`Campaign::run_observed`] observer
/// after the trial's result has been absorbed (and, at checkpoint
/// boundaries, after the checkpoint hit disk — so an observer that
/// persists progress can rely on the snapshot being durable first).
#[derive(Debug)]
pub struct CampaignProgress<'a> {
    /// Trials absorbed so far (`1..=trials`).
    pub completed: u64,
    /// Total trials the campaign will run.
    pub trials: u64,
    /// Whether a boundary checkpoint was written just before this call.
    pub checkpointed: bool,
    /// The report as of `completed` trials.
    pub report: &'a CampaignReport,
}

/// An observer's verdict after each trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressSignal {
    /// Keep running trials.
    Continue,
    /// Stop after this trial. If the campaign has a checkpoint
    /// configured, the current prefix is checkpointed first, so a later
    /// [`Campaign::resume_from`] picks up exactly here.
    Pause,
}

/// Outcome of an observed run: the report so far plus whether the
/// observer paused the campaign before all trials ran.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The (possibly partial) aggregated report.
    pub report: CampaignReport,
    /// Trials absorbed into `report`.
    pub completed: u64,
    /// `true` iff the observer returned [`ProgressSignal::Pause`]
    /// before the final trial.
    pub paused: bool,
}

/// A campaign runner. Construct via [`Campaign::builder`].
#[derive(Debug, Clone)]
pub struct Campaign {
    config: CampaignConfig,
    plan: Option<PlanSpec>,
    seed: u64,
    retries: u32,
    checkpoint: Option<CheckpointSpec>,
    threads: usize,
    snapshot_cache: bool,
}

#[derive(Debug, Clone)]
struct CheckpointSpec {
    path: PathBuf,
    every: u64,
}

/// Builder for [`Campaign`]:
///
/// ```
/// use pfault_platform::campaign::{Campaign, CampaignConfig};
///
/// let mut config = CampaignConfig::paper_default();
/// config.trials = 2;
/// config.requests_per_trial = 10;
/// let campaign = Campaign::builder(config)
///     .seed(42)
///     .snapshot_cache(true)
///     .build();
/// let report = campaign.run_stealing(2);
/// assert_eq!(report.faults, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder {
    config: CampaignConfig,
    plan: Option<PlanSpec>,
    seed: u64,
    retries: u32,
    checkpoint: Option<CheckpointSpec>,
    threads: usize,
    snapshot_cache: bool,
}

impl CampaignBuilder {
    /// Sizes the campaign with a [`PlanSpec`] — the single sizing
    /// surface across the workspace. `PlanSpec::fixed(n)` reproduces
    /// the classic fixed-N loop; a confidence spec makes
    /// [`Campaign::run_planned`] adaptive. The config's `trials` field
    /// is set to the plan's budget so legacy readers keep a meaningful
    /// denominator. Splitting specs are rejected at run time: whole
    /// campaigns expose only pass/fail bits, not severities.
    #[must_use]
    pub fn plan(mut self, spec: PlanSpec) -> Self {
        self.config.trials = spec.trial_budget() as usize;
        self.plan = Some(spec);
        self
    }

    /// Seeds every trial (defaults to 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Worker threads for [`Campaign::run_planned`] (default 1 = serial;
    /// clamped to ≥ 1). The thread count never changes the report — only
    /// how fast it is produced.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Retries each failing trial up to `retries` extra attempts, each
    /// with a deterministically derived fresh seed. The first attempt
    /// always uses the original trial seed, so a campaign with zero
    /// failures is unaffected by this setting.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Writes a resumable JSON checkpoint to `path` after every `every`
    /// completed trials (serial runs only; `every` is clamped to ≥ 1).
    /// The write is atomic: a temp file is renamed over `path`.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.checkpoint = Some(CheckpointSpec {
            path: path.into(),
            every: every.max(1),
        });
        self
    }

    /// Whether warm-up device images are served from the process-wide
    /// memoized cache (default `true`). Only meaningful when the trial
    /// configuration sets [`TrialConfig::warmup_requests`]; with the
    /// cache off, every trial replays the warm-up inline — byte-identical
    /// results, just slower.
    #[must_use]
    pub fn snapshot_cache(mut self, enabled: bool) -> Self {
        self.snapshot_cache = enabled;
        self
    }

    /// Finalizes the campaign.
    pub fn build(self) -> Campaign {
        Campaign {
            config: self.config,
            plan: self.plan,
            seed: self.seed,
            retries: self.retries,
            checkpoint: self.checkpoint,
            threads: self.threads,
            snapshot_cache: self.snapshot_cache,
        }
    }
}

impl Campaign {
    /// Starts a builder for `config` with the defaults: seed 0, serial,
    /// no retries, no checkpointing, snapshot cache on.
    pub fn builder(config: CampaignConfig) -> CampaignBuilder {
        CampaignBuilder {
            config,
            plan: None,
            seed: 0,
            retries: 0,
            checkpoint: None,
            threads: 1,
            snapshot_cache: true,
        }
    }

    fn trial_config(&self) -> TrialConfig {
        let mut t = self.config.trial;
        t.requests = self.config.requests_per_trial;
        t
    }

    fn trial_seed(&self, index: usize) -> u64 {
        DetRng::new(self.seed).fork_index(index as u64).next_u64()
    }

    /// Seed for attempt `attempt` of trial `index`. Attempt 0 is the
    /// original [`Campaign::trial_seed`] stream; retries fork a disjoint
    /// stream so a retried trial sees fresh (but reproducible) randomness.
    fn attempt_seed(&self, index: u64, attempt: u32) -> u64 {
        if attempt == 0 {
            return self.trial_seed(index as usize);
        }
        DetRng::new(self.seed)
            .fork("retry")
            .fork_index(index)
            .fork_index(u64::from(attempt))
            .next_u64()
    }

    /// Fingerprint of everything that shapes trial behaviour — including
    /// the plan spec, since the planner decides which trials run — used
    /// to pin checkpoints to their campaign.
    fn config_digest(&self) -> u64 {
        fnv64(format!("{:?}|plan={:?}", self.config, self.plan).as_bytes())
    }

    /// The effective sizing spec: the explicit plan, or fixed-N from
    /// the config's trial count.
    pub fn plan_spec(&self) -> PlanSpec {
        self.plan.unwrap_or(PlanSpec::Fixed {
            trials: self.config.trials as u64,
        })
    }

    /// The memoized warm image for this campaign, if image cloning
    /// applies (cache enabled *and* the trial configuration has a
    /// warm-up). `None` means trials build their device themselves —
    /// cold, or with an inline warm-up replay.
    fn campaign_image(&self, platform: &TestPlatform) -> Option<Arc<DeviceImage>> {
        (self.snapshot_cache && platform.config().warmup_requests > 0)
            .then(|| crate::snapcache::warm_image_for(platform))
    }

    /// Runs one trial with panic isolation and deterministic retry.
    /// Returns the outcome (or the last attempt's error) plus the number
    /// of extra attempts consumed. With a warm image, the trial clones
    /// the shared warm state copy-on-write instead of replaying the
    /// warm-up — the two paths are byte-identical (`TestPlatform`
    /// contract).
    fn run_one(
        &self,
        platform: &TestPlatform,
        image: Option<&DeviceImage>,
        index: u64,
    ) -> (Result<TrialOutcome, TrialError>, u64) {
        let mut attempt: u32 = 0;
        loop {
            let seed = self.attempt_seed(index, attempt);
            let result = panic::catch_unwind(AssertUnwindSafe(|| match image {
                Some(image) => platform.run_trial_from_image(image, seed),
                None => platform.run_trial(seed),
            }));
            let error = match result {
                Ok(Ok(outcome)) => return (Ok(outcome), u64::from(attempt)),
                Ok(Err(e)) => e,
                Err(payload) => TrialError::Panicked {
                    seed,
                    message: panic_message(payload.as_ref()),
                },
            };
            if attempt >= self.retries {
                return (Err(error), u64::from(attempt));
            }
            attempt += 1;
        }
    }

    /// The serial trial loop. A planned report runs to the planner's
    /// current round target and lets the planner extend or finish the
    /// run at each boundary; a plan-less report is one round of
    /// `trials`. After every trial the observer sees the absorbed
    /// prefix and may pause the campaign. Boundary checkpoints are
    /// written *before* the observer runs; a pause mid-stride
    /// checkpoints the current prefix (when configured) so nothing
    /// completed is ever lost. Both the planner's decisions and the
    /// per-trial failure bits are pure functions of the absorbed
    /// prefix, so pausing anywhere — even mid-round — and resuming is
    /// byte-identical to never pausing.
    fn run_serial(
        &self,
        mut report: CampaignReport,
        start: u64,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<ObservedRun, PlatformError> {
        let platform = TestPlatform::new(self.trial_config());
        let image = self.campaign_image(&platform);
        let trials = self.config.trials as u64;
        let mut completed = start;
        loop {
            match report.plan.as_mut() {
                Some(state) if state.done => break,
                Some(state) if completed >= state.targets[0] => {
                    state.advance()?;
                    continue;
                }
                None if completed >= trials => break,
                _ => {}
            }
            let (result, retries_used) = self.run_one(&platform, image.as_deref(), completed);
            report.absorb_result(completed, result, retries_used);
            completed += 1;
            let (done, trials_now) = match report.plan.as_mut() {
                Some(state) => {
                    if state.round_complete() {
                        state.advance()?;
                    }
                    (state.done, state.targets[0].max(completed))
                }
                None => (completed >= trials, trials),
            };
            let mut checkpointed = false;
            if let Some(spec) = &self.checkpoint {
                if completed.is_multiple_of(spec.every) && !done {
                    self.write_checkpoint(spec, completed, &report)?;
                    checkpointed = true;
                }
            }
            let signal = observer(CampaignProgress {
                completed,
                trials: trials_now,
                checkpointed,
                report: &report,
            });
            if signal == ProgressSignal::Pause && !done {
                if let Some(spec) = &self.checkpoint {
                    if !checkpointed {
                        self.write_checkpoint(spec, completed, &report)?;
                    }
                }
                return Ok(ObservedRun {
                    report,
                    completed,
                    paused: true,
                });
            }
        }
        Ok(ObservedRun {
            report,
            completed,
            paused: false,
        })
    }

    /// The work-stealing loop: each planner round (a plan-less report is
    /// one round of `trials`) runs over [`scheduler::run_work_stealing`],
    /// which folds results in canonical index order, so the report is
    /// byte-identical to [`Campaign::run_serial`]'s. Returns the
    /// scheduler stats of the last round. Never checkpoints.
    fn run_rounds_stealing(
        &self,
        mut report: CampaignReport,
        threads: usize,
    ) -> Result<(CampaignReport, SchedulerStats), PlatformError> {
        let platform = TestPlatform::new(self.trial_config());
        let image = self.campaign_image(&platform);
        let mut completed = 0u64;
        loop {
            let target = report
                .plan
                .as_ref()
                .map_or(self.config.trials as u64, |state| state.targets[0]);
            let (next, stats) = scheduler::run_work_stealing(
                target.saturating_sub(completed),
                threads.max(1),
                scheduler::DEFAULT_CHUNK,
                |i| self.run_one(&platform, image.as_deref(), completed + i),
                report,
                |report, i, (result, retries_used)| {
                    report.absorb_result(completed + i, result, retries_used);
                },
            );
            report = next;
            completed = target;
            match report.plan.as_mut() {
                Some(state) => {
                    state.advance()?;
                    if state.done {
                        return Ok((report, stats));
                    }
                }
                None => return Ok((report, stats)),
            }
        }
    }

    fn write_checkpoint(
        &self,
        spec: &CheckpointSpec,
        completed: u64,
        report: &CampaignReport,
    ) -> Result<(), CheckpointError> {
        let snapshot = CampaignCheckpoint {
            version: CHECKPOINT_VERSION,
            config_digest: self.config_digest(),
            seed: self.seed,
            trials: self.config.trials as u64,
            completed,
            report: report.clone(),
        };
        let text = serde_json::to_string(&snapshot)
            .map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        let tmp = spec.path.with_extension("tmp");
        std::fs::write(&tmp, text)?;
        std::fs::rename(&tmp, &spec.path)?;
        Ok(())
    }

    /// Runs all trials serially. Equivalent to
    /// [`Campaign::run_checked`] but panics on a checkpoint IO error.
    pub fn run(&self) -> CampaignReport {
        match self.run_checked() {
            Ok(report) => report,
            Err(e) => panic!("campaign failed: {e}"),
        }
    }

    /// Runs all trials serially. Trials that panic, exceed the watchdog
    /// budget, or brick the device are retried per
    /// [`CampaignBuilder::retries`] and, if still failing, recorded in
    /// [`CampaignReport::failures`] — the campaign itself keeps going.
    /// Errors only on checkpoint IO problems.
    pub fn run_checked(&self) -> Result<CampaignReport, PlatformError> {
        Ok(self.run_observed(&mut |_| ProgressSignal::Continue)?.report)
    }

    /// Resumes a serial run from a checkpoint written by
    /// [`CampaignBuilder::checkpoint`]. The checkpoint must match this
    /// campaign's seed, trial count, and configuration; the completed
    /// prefix is taken from the snapshot and the remaining trials run
    /// normally, so the final report is identical to an uninterrupted
    /// [`Campaign::run_checked`].
    pub fn resume_from(&self, path: impl AsRef<Path>) -> Result<CampaignReport, PlatformError> {
        Ok(self
            .resume_observed(path, &mut |_| ProgressSignal::Continue)?
            .report)
    }

    /// Reads and validates a checkpoint written by this campaign.
    fn load_checkpoint(&self, path: &Path) -> Result<CampaignCheckpoint, PlatformError> {
        let text = std::fs::read_to_string(path).map_err(CheckpointError::Io)?;
        let snapshot: CampaignCheckpoint =
            serde_json::from_str(&text).map_err(|e| CheckpointError::Corrupt(e.to_string()))?;
        check_match("version", snapshot.version, CHECKPOINT_VERSION)?;
        check_match("seed", snapshot.seed, self.seed)?;
        check_match("trials", snapshot.trials, self.config.trials as u64)?;
        check_match(
            "config_digest",
            snapshot.config_digest,
            self.config_digest(),
        )?;
        if snapshot.completed > snapshot.trials {
            return Err(CheckpointError::Corrupt(format!(
                "checkpoint claims {} completed trials of {}",
                snapshot.completed, snapshot.trials
            ))
            .into());
        }
        Ok(snapshot)
    }

    /// [`Campaign::run_checked`] with a per-trial observer: after every
    /// absorbed trial (and after any boundary checkpoint has been made
    /// durable) the observer sees the prefix report and may pause the
    /// run. A paused campaign checkpoints its prefix (when configured)
    /// and reports `paused = true`; resuming it later via
    /// [`Campaign::resume_from`] / [`Campaign::resume_observed`] yields
    /// a final report byte-identical to an uninterrupted run.
    pub fn run_observed(
        &self,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<ObservedRun, PlatformError> {
        self.run_serial(CampaignReport::empty(), 0, observer)
    }

    /// [`Campaign::resume_from`] with a per-trial observer (see
    /// [`Campaign::run_observed`]). Only the remaining trials run; the
    /// observer's `completed` counts include the checkpointed prefix.
    pub fn resume_observed(
        &self,
        path: impl AsRef<Path>,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<ObservedRun, PlatformError> {
        let snapshot = self.load_checkpoint(path.as_ref())?;
        self.run_serial(snapshot.report, snapshot.completed, observer)
    }

    /// Trials already absorbed by the checkpoint at `path`, without
    /// running anything — daemons use this to decide where a resumed
    /// job's result stream picks up.
    pub fn checkpoint_completed(&self, path: impl AsRef<Path>) -> Result<u64, PlatformError> {
        Ok(self.load_checkpoint(path.as_ref())?.completed)
    }

    /// The checkpoint's `(completed, report)` pair, validated but not
    /// run — daemons use the report to reconstruct the progress record
    /// a crash may have kept out of their result journal.
    pub fn checkpoint_snapshot(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(u64, CampaignReport), PlatformError> {
        let snapshot = self.load_checkpoint(path.as_ref())?;
        Ok((snapshot.completed, snapshot.report))
    }

    /// Runs all trials over work-stealing workers ([`crate::scheduler`]):
    /// trial batches start on a shared injector, idle workers steal half
    /// of a victim's queue, so skewed trial costs (retries, recovery
    /// storms) never leave threads idle at the tail. `0` threads is
    /// treated as `1`, and the pool is capped at the trial count.
    /// Byte-identical to [`Campaign::run`]; checkpoints are not written.
    pub fn run_stealing(&self, threads: usize) -> CampaignReport {
        self.run_stealing_with_stats(threads).0
    }

    /// [`Campaign::run_stealing`], also returning the scheduler's
    /// per-worker telemetry (trials run, steals, utilization). The stats
    /// are wall-clock-dependent and live outside the report so reports
    /// stay engine-independent.
    pub fn run_stealing_with_stats(&self, threads: usize) -> (CampaignReport, SchedulerStats) {
        match self.run_rounds_stealing(CampaignReport::empty(), threads) {
            Ok(run) => run,
            // Only a planner decision can fail, and a plan-less report
            // takes none.
            Err(e) => unreachable!("plan-less campaign failed: {e}"),
        }
    }

    /// A fresh report carrying the initial single-stratum planner
    /// state, after validating the plan spec for whole-campaign
    /// execution.
    fn planned_report(&self) -> Result<CampaignReport, PlatformError> {
        let spec = self.plan_spec();
        if matches!(spec, PlanSpec::Splitting { .. }) {
            return Err(PlatformError::InvalidConfig(
                "splitting plans need a severity source (plan::run_plan on a PlanPoint); \
                 whole campaigns expose only pass/fail trials"
                    .to_string(),
            ));
        }
        let mut report = CampaignReport::empty();
        report.plan = Some(PlanState::single(spec)?);
        Ok(report)
    }

    /// Runs the campaign under its [`PlanSpec`]: trials proceed in
    /// planner-scheduled rounds and stop as soon as the spec is
    /// satisfied (for `Fixed`, after exactly N trials; for
    /// `Confidence`, once the interval on the data-loss rate is tight).
    /// Honours [`CampaignBuilder::threads`]: rounds run serially or on
    /// the work-stealing scheduler, byte-identically. The returned
    /// report carries the planner state in [`CampaignReport::plan`].
    pub fn run_planned(&self) -> Result<CampaignReport, PlatformError> {
        let report = self.planned_report()?;
        if self.threads <= 1 {
            Ok(self
                .run_serial(report, 0, &mut |_| ProgressSignal::Continue)?
                .report)
        } else {
            Ok(self.run_rounds_stealing(report, self.threads)?.0)
        }
    }

    /// [`Campaign::run_planned`] with a per-trial observer — the serial
    /// planned loop, honouring checkpoints exactly like
    /// [`Campaign::run_observed`]. `CampaignProgress::trials` reports
    /// the current round target, which grows as the planner extends the
    /// run.
    pub fn run_planned_observed(
        &self,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<ObservedRun, PlatformError> {
        self.run_serial(self.planned_report()?, 0, observer)
    }

    /// Resumes a planned run from a v6 checkpoint: the planner state
    /// (tallies, round index, current targets) comes back with the
    /// report, so the remaining trials — and every future allocation
    /// decision — replay exactly as the uninterrupted run would have.
    pub fn resume_planned_observed(
        &self,
        path: impl AsRef<Path>,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<ObservedRun, PlatformError> {
        self.planned_report()?; // reject invalid specs before touching disk
        let snapshot = self.load_checkpoint(path.as_ref())?;
        if snapshot.report.plan.is_none() {
            return Err(CheckpointError::Corrupt(
                "checkpoint carries no planner state; resume with resume_observed".to_string(),
            )
            .into());
        }
        self.run_serial(snapshot.report, snapshot.completed, observer)
    }
}

/// The binary failure bit the planner tallies per campaign trial: any
/// data loss (data failures or FWA), or a trial that ended without an
/// outcome at all (panic, watchdog, brick).
fn trial_failed(result: &Result<TrialOutcome, TrialError>) -> bool {
    match result {
        Ok(outcome) => outcome.counts.total_data_loss() > 0,
        Err(_) => true,
    }
}

/// Renders a `catch_unwind` payload for [`TrialError::Panicked`].
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn check_match<T>(field: &'static str, found: T, expected: T) -> Result<(), CheckpointError>
where
    T: PartialEq + std::fmt::Display,
{
    if found == expected {
        Ok(())
    } else {
        Err(CheckpointError::Mismatch {
            field,
            found: found.to_string(),
            expected: expected.to_string(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::storage::GIB;
    use pfault_workload::WorkloadSpec;

    fn tiny_config() -> CampaignConfig {
        let mut config = CampaignConfig::paper_default();
        config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
        config.trial.workload = WorkloadSpec::builder().wss_bytes(4 * GIB).build();
        config.trials = 6;
        config.requests_per_trial = 25;
        config
    }

    #[test]
    fn campaign_aggregates_all_trials() {
        let report = Campaign::builder(tiny_config()).seed(5).build().run();
        assert_eq!(report.faults, 6);
        // The generator flows continuously, so at least the trigger
        // fraction of the nominal 25 requests was issued per trial.
        assert!(report.requests_issued >= 6 * 7);
        assert_eq!(report.responded_iops.count(), 6);
    }

    fn report_bytes(report: &CampaignReport) -> String {
        serde_json::to_string(report).expect("report serializes")
    }

    #[test]
    fn all_engines_produce_byte_identical_reports() {
        let campaign = Campaign::builder(tiny_config()).seed(11).build();
        let serial = report_bytes(&campaign.run());
        let two = report_bytes(&campaign.run_stealing(2));
        let three = report_bytes(&campaign.run_stealing(3));
        assert_eq!(serial, two, "work-stealing on 2 threads must match serial");
        assert_eq!(
            serial, three,
            "work-stealing on 3 threads must match serial"
        );
    }

    #[test]
    fn engines_agree_with_obs_enabled() {
        let mut config = tiny_config();
        config.trial.obs = true;
        let campaign = Campaign::builder(config).seed(19).build();
        let serial = campaign.run();
        assert!(!serial.obs.is_empty(), "obs trials must contribute");
        let serial = report_bytes(&serial);
        assert_eq!(serial, report_bytes(&campaign.run_stealing(3)));
        assert_eq!(serial, report_bytes(&campaign.run_stealing(4)));
    }

    #[test]
    fn snapshot_cloning_matches_inline_warmup_byte_for_byte() {
        let mut config = tiny_config();
        config.trial.warmup_requests = 16;
        let cached = Campaign::builder(config).seed(21).snapshot_cache(true);
        let inline = cached.clone().snapshot_cache(false);
        let with_cache = report_bytes(&cached.build().run());
        let without_cache = report_bytes(&inline.build().run());
        assert_eq!(
            with_cache, without_cache,
            "snapshot restore must equal inline warm-up replay"
        );
        let stealing = report_bytes(&Campaign::builder(config).seed(21).build().run_stealing(3));
        assert_eq!(with_cache, stealing);
    }

    #[test]
    fn threads_are_capped_at_trial_count() {
        // 6 trials over 7 or 64 requested threads: the engine must clamp
        // rather than spawn idle workers, and still match serial.
        let campaign = Campaign::builder(tiny_config()).seed(11).build();
        let serial = report_bytes(&campaign.run());
        assert_eq!(serial, report_bytes(&campaign.run_stealing(7)));
        let (report, stats) = campaign.run_stealing_with_stats(64);
        assert_eq!(serial, report_bytes(&report));
        assert_eq!(stats.threads, 6, "64 threads over 6 trials is 6 workers");
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 6);
    }

    #[test]
    fn same_seed_reproduces() {
        let a = Campaign::builder(tiny_config()).seed(7).build().run();
        let b = Campaign::builder(tiny_config()).seed(7).build().run();
        assert_eq!(a.counts, b.counts);
    }

    #[test]
    fn interval_histogram_tracks_failed_requests() {
        let report = Campaign::builder(tiny_config()).seed(9).build().run();
        assert_eq!(
            report.failed_ack_interval_hist.total(),
            report.failed_ack_interval_ms.count()
        );
        let stealing = Campaign::builder(tiny_config())
            .seed(9)
            .build()
            .run_stealing(3);
        assert_eq!(
            stealing.failed_ack_interval_hist.total(),
            report.failed_ack_interval_hist.total()
        );
    }

    #[test]
    fn rates_divide_by_faults() {
        let report = Campaign::builder(tiny_config()).seed(13).build().run();
        let expected = report.counts.data_failures as f64 / report.faults as f64;
        assert!((report.data_failures_per_fault() - expected).abs() < 1e-12);
    }

    #[test]
    fn one_campaign_survives_mixed_failure_classes() {
        // Per-trial event counts at seed 11 range 1249..=1600, so a
        // 1400-event budget expires some trials and spares others; the
        // spared trials then mount with a coin-flip failure rate, so a
        // single campaign mixes watchdog expiries, bricked devices, and
        // successful trials — and still completes with every affected
        // index on the ledger.
        let mut config = tiny_config();
        config.trial.watchdog = crate::platform::Watchdog {
            max_sim_time_us: None,
            max_events: Some(1400),
        };
        config.trial.ssd.mount_failure_rate = 0.5;
        config.trial.ssd.mount_retry_limit = 1;
        let campaign = Campaign::builder(config).seed(11).build();
        let report = campaign.run();
        assert_eq!(report.faults, 6);
        assert!(
            !report.failures.watchdog_expired.is_empty(),
            "expected at least one watchdog expiry, got {:?}",
            report.failures
        );
        assert!(
            !report.failures.bricked.is_empty(),
            "expected at least one bricked device, got {:?}",
            report.failures
        );
        assert!(
            report.failures.total_failed() < 6,
            "expected at least one successful trial, got {:?}",
            report.failures
        );
        // No trial lands on two lists.
        let mut all: Vec<u64> = report
            .failures
            .watchdog_expired
            .iter()
            .chain(&report.failures.bricked)
            .chain(&report.failures.panicked)
            .copied()
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), report.failures.total_failed());
        let stealing = campaign.run_stealing(3);
        assert_eq!(stealing.failures, report.failures);
        assert_eq!(stealing.counts, report.counts);
    }

    #[test]
    fn zero_threads_is_clamped_to_serial() {
        let campaign = Campaign::builder(tiny_config()).seed(11).build();
        let zero = campaign.run_stealing(0);
        let serial = campaign.run();
        assert_eq!(zero.faults, serial.faults);
        assert_eq!(zero.counts, serial.counts);
    }

    #[test]
    fn watchdog_expiry_is_reported_not_hung() {
        let mut config = tiny_config();
        config.trials = 3;
        config.trial.watchdog = crate::platform::Watchdog {
            max_sim_time_us: None,
            max_events: Some(10),
        };
        let report = Campaign::builder(config).seed(3).build().run();
        assert_eq!(report.faults, 3);
        assert_eq!(report.failures.watchdog_expired, vec![0, 1, 2]);
        assert_eq!(report.failures.total_failed(), 3);
        assert_eq!(report.responded_iops.count(), 0);
    }

    #[test]
    fn panicking_trials_are_isolated_and_deterministic() {
        let mut config = tiny_config();
        // A zero-capacity cache fails SsdConfig validation inside the
        // trial body, so every trial panics.
        config.trial.ssd.cache.capacity_sectors = 0;
        let campaign = Campaign::builder(config).seed(17).retries(2).build();
        let a = campaign.run();
        assert_eq!(a.faults, 6);
        assert_eq!(a.failures.panicked, vec![0, 1, 2, 3, 4, 5]);
        // 2 extra attempts per trial, all panicking.
        assert_eq!(a.failures.retries, 12);
        let b = campaign.run();
        assert_eq!(a.failures, b.failures);
        let stealing = campaign.run_stealing(3);
        assert_eq!(stealing.failures, a.failures);
    }

    #[test]
    fn bricked_devices_are_tallied_as_failures() {
        let mut config = tiny_config();
        config.trial.ssd.mount_failure_rate = 1.0;
        config.trial.ssd.mount_retry_limit = 2;
        let report = Campaign::builder(config).seed(23).build().run();
        assert_eq!(report.faults, 6);
        assert_eq!(report.counts.bricked_devices, 6);
        assert_eq!(report.failures.bricked.len(), 6);
    }

    #[test]
    fn mixed_mount_failures_brick_some_trials() {
        let mut config = tiny_config();
        config.trials = 12;
        config.trial.ssd.mount_failure_rate = 0.5;
        config.trial.ssd.mount_retry_limit = 1;
        let report = Campaign::builder(config).seed(29).build().run();
        let bricked = report.failures.bricked.len() as u64;
        assert_eq!(report.counts.bricked_devices, bricked);
        assert!(bricked > 0, "rate 0.5 should brick at least one of 12");
        assert!(bricked < 12, "rate 0.5 should let at least one mount");
        assert_eq!(report.responded_iops.count() + bricked, 12);
        let stealing = Campaign::builder(config).seed(29).build().run_stealing(4);
        assert_eq!(stealing.failures, report.failures);
        assert_eq!(stealing.counts, report.counts);
    }

    #[test]
    fn retry_recovers_flaky_mounts() {
        let mut config = tiny_config();
        config.trial.ssd.mount_failure_rate = 0.5;
        config.trial.ssd.mount_retry_limit = 1;
        let no_retry = Campaign::builder(config).seed(29).build().run();
        let with_retry = Campaign::builder(config).seed(29).retries(4).build().run();
        assert!(no_retry.failures.bricked.len() > with_retry.failures.bricked.len());
        assert!(with_retry.failures.retries > 0);
    }

    #[test]
    fn checkpoint_resume_equals_uninterrupted_run() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("resume.json");
        let _ = std::fs::remove_file(&path);

        let plain = Campaign::builder(tiny_config()).seed(31).build().run();
        let checkpointed = Campaign::builder(tiny_config())
            .seed(31)
            .checkpoint(&path, 2)
            .build();
        let full = checkpointed.run_checked().expect("checkpointed run");
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "checkpointing must not perturb the result"
        );

        // The file on disk holds a partial prefix (the last mid-run
        // snapshot); resuming from it must reproduce the full report
        // byte-for-byte.
        let resumed = checkpointed.resume_from(&path).expect("resume");
        assert_eq!(
            serde_json::to_string(&resumed).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "resumed run must equal the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_mismatched_campaign() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("mismatch.json");
        let _ = std::fs::remove_file(&path);

        let campaign = Campaign::builder(tiny_config())
            .seed(37)
            .checkpoint(&path, 2)
            .build();
        campaign.run_checked().expect("run");

        let wrong_seed = Campaign::builder(tiny_config()).seed(38).build();
        match wrong_seed.resume_from(&path) {
            Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                assert_eq!(field, "seed");
            }
            other => panic!("expected seed mismatch, got {other:?}"),
        }

        let mut other_config = tiny_config();
        other_config.requests_per_trial += 1;
        let wrong_config = Campaign::builder(other_config).seed(37).build();
        match wrong_config.resume_from(&path) {
            Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                assert_eq!(field, "config_digest");
            }
            other => panic!("expected config mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_old_checkpoint_version() {
        // Satellite: a v5-era snapshot (before the embedded planner
        // state) must be refused loudly, not misread — and every older
        // version likewise, down to v2.
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("stale-version.json");
        let _ = std::fs::remove_file(&path);

        let campaign = Campaign::builder(tiny_config())
            .seed(43)
            .checkpoint(&path, 2)
            .build();
        campaign.run_checked().expect("run");
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        assert!(text.contains("\"version\":6"), "snapshot carries v6");

        for stale in [
            "\"version\":5",
            "\"version\":4",
            "\"version\":3",
            "\"version\":2",
        ] {
            std::fs::write(&path, text.replace("\"version\":6", stale)).expect("rewrite");
            match campaign.resume_from(&path) {
                Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                    assert_eq!(field, "version");
                }
                other => panic!("expected version mismatch for {stale}, got {other:?}"),
            }
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn observed_run_sees_every_trial_and_checkpoint_boundaries() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("observed.json");
        let _ = std::fs::remove_file(&path);

        let campaign = Campaign::builder(tiny_config())
            .seed(47)
            .checkpoint(&path, 2)
            .build();
        let mut seen: Vec<(u64, bool)> = Vec::new();
        let run = campaign
            .run_observed(&mut |p| {
                seen.push((p.completed, p.checkpointed));
                assert_eq!(p.trials, 6);
                assert_eq!(p.report.faults, p.completed);
                ProgressSignal::Continue
            })
            .expect("observed run");
        assert!(!run.paused);
        assert_eq!(run.completed, 6);
        assert_eq!(
            seen,
            vec![
                (1, false),
                (2, true),
                (3, false),
                (4, true),
                (5, false),
                (6, false) // final trial never checkpoints
            ]
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn paused_run_checkpoints_and_resumes_byte_identically() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("paused.json");
        let _ = std::fs::remove_file(&path);

        let plain = Campaign::builder(tiny_config()).seed(53).build().run();
        let campaign = Campaign::builder(tiny_config())
            .seed(53)
            .checkpoint(&path, 2)
            .build();
        // Pause after trial 3 — an off-boundary stride, so the pause
        // itself must write the checkpoint.
        let run = campaign
            .run_observed(&mut |p| {
                if p.completed == 3 {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("paused run");
        assert!(run.paused);
        assert_eq!(run.completed, 3);
        assert_eq!(campaign.checkpoint_completed(&path).expect("ckpt"), 3);

        let resumed = campaign
            .resume_observed(&path, &mut |p| {
                assert!(p.completed > 3, "resume must not rerun the prefix");
                ProgressSignal::Continue
            })
            .expect("resume");
        assert!(!resumed.paused);
        assert_eq!(
            serde_json::to_string(&resumed.report).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "pause/resume must equal the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn pause_at_final_trial_is_a_completion() {
        let campaign = Campaign::builder(tiny_config()).seed(59).build();
        let run = campaign
            .run_observed(&mut |_| ProgressSignal::Pause)
            .expect("run");
        // No checkpoint configured: the pause after trial 1 ends the
        // run with a partial report rather than erroring.
        assert!(run.paused);
        assert_eq!(run.completed, 1);
        assert_eq!(run.report.faults, 1);
    }

    #[test]
    fn resume_rejects_corrupt_checkpoint() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{not json").expect("write");
        match Campaign::builder(tiny_config())
            .seed(41)
            .build()
            .resume_from(&path)
        {
            Err(PlatformError::Checkpoint(CheckpointError::Corrupt(_))) => {}
            other => panic!("expected corrupt checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    // ------------------------- Plan API -------------------------

    /// A confidence spec loose enough to stop at its floor on the tiny
    /// config (whose data-loss rate is high), but with a round stride
    /// that forces several planner boundaries first.
    fn loose_ci_spec() -> PlanSpec {
        PlanSpec::Confidence {
            half_width: 0.45,
            confidence: 0.9,
            exact: false,
            min_trials: 9,
            max_trials: 24,
            round: 3,
        }
    }

    #[test]
    fn fixed_plan_matches_classic_run_modulo_plan_state() {
        let classic = Campaign::builder(tiny_config()).seed(11).build().run();
        let planned = Campaign::builder(tiny_config())
            .seed(11)
            .plan(PlanSpec::fixed(6))
            .build()
            .run_planned()
            .expect("planned run");
        assert_eq!(planned.faults, classic.faults);
        assert_eq!(planned.counts, classic.counts);
        let state = planned.plan.clone().expect("planned run records state");
        assert!(state.done);
        assert_eq!(state.total_trials(), 6);
        assert_eq!(state.round, 1, "fixed plans are a single round");
        // Every tallied failure is a trial with data loss or no outcome,
        // so the tally can never exceed the trial count and must be at
        // least the terminal-failure count.
        assert!(state.total_failures() <= 6);
        assert!(state.total_failures() >= planned.failures.total_failed() as u64);
        let pr = planned.plan_report().expect("plan report");
        assert_eq!(pr.trials, 6);
        assert!(pr.wilson.covers(pr.p_hat));
    }

    #[test]
    fn planned_engines_agree_byte_for_byte() {
        let serial = Campaign::builder(tiny_config())
            .seed(13)
            .plan(loose_ci_spec())
            .build()
            .run_planned()
            .expect("serial planned");
        let stealing = Campaign::builder(tiny_config())
            .seed(13)
            .plan(loose_ci_spec())
            .threads(3)
            .build()
            .run_planned()
            .expect("stealing planned");
        assert_eq!(report_bytes(&serial), report_bytes(&stealing));
        let state = serial.plan.expect("plan state");
        assert!(state.done);
        assert_eq!(state.total_trials(), 9, "loose spec stops at its floor");
        assert_eq!(state.round, 3, "three rounds of three trials");
    }

    #[test]
    fn planned_pause_resumes_byte_identically_even_mid_round() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("planned-pause.json");
        let _ = std::fs::remove_file(&path);

        let plain = Campaign::builder(tiny_config())
            .seed(17)
            .plan(loose_ci_spec())
            .build()
            .run_planned()
            .expect("uninterrupted planned run");

        // Pause after trial 4 — inside round 2 (rounds are 3 trials
        // wide), so resuming must pick the round back up mid-stride.
        let campaign = Campaign::builder(tiny_config())
            .seed(17)
            .plan(loose_ci_spec())
            .checkpoint(&path, 2)
            .build();
        let run = campaign
            .run_planned_observed(&mut |p| {
                if p.completed == 4 {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("paused planned run");
        assert!(run.paused);
        assert_eq!(run.completed, 4);

        let resumed = campaign
            .resume_planned_observed(&path, &mut |p| {
                assert!(p.completed > 4, "resume must not rerun the prefix");
                ProgressSignal::Continue
            })
            .expect("resume planned");
        assert!(!resumed.paused);
        assert_eq!(
            report_bytes(&resumed.report),
            report_bytes(&plain),
            "planned pause/resume must equal the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn splitting_plans_are_rejected_for_whole_campaigns() {
        let campaign = Campaign::builder(tiny_config())
            .seed(19)
            .plan(PlanSpec::split(3))
            .build();
        match campaign.run_planned() {
            Err(PlatformError::InvalidConfig(why)) => {
                assert!(why.contains("severity"), "{why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn resume_planned_rejects_plan_less_checkpoints() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("plain-ckpt-for-planned.json");
        let _ = std::fs::remove_file(&path);

        // A plain (non-planned) paused run writes a checkpoint with no
        // planner state…
        let campaign = Campaign::builder(tiny_config())
            .seed(23)
            .checkpoint(&path, 2)
            .build();
        let run = campaign
            .run_observed(&mut |p| {
                if p.completed == 2 {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("paused plain run");
        assert!(run.paused);

        // …which the planned resume path must refuse rather than
        // invent planner state for.
        match campaign.resume_planned_observed(&path, &mut |_| ProgressSignal::Continue) {
            Err(PlatformError::Checkpoint(CheckpointError::Corrupt(why))) => {
                assert!(why.contains("planner state"), "{why}");
            }
            other => panic!("expected corrupt checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
