//! Fault-injection campaigns: many trials, aggregated.
//!
//! The paper's experiments each inject hundreds of faults ("more than 300
//! power faults … during 24,000 requests"). A [`Campaign`] runs one trial
//! per fault with an independent derived seed and aggregates the
//! [`FailureCounts`] into a [`CampaignReport`]. [`Campaign::execute`] is
//! the one entry point, and the builder's state makes every choice: an
//! adaptive [`PlanSpec`] runs planner rounds and keeps the planner state
//! in the report; every round runs on the trial scheduler
//! ([`crate::scheduler`]) with `threads(n)` workers, one of which runs
//! inline; a configured checkpoint is written at any thread count; and
//! `resume` continues from the builder's checkpoint. The scheduler hands
//! results back in canonical trial-index order, so runs of the same seed
//! produce **byte-identical** reports at every thread count.
//!
//! With [`TrialConfig::warmup_requests`] set, trials start from a shared
//! warm device state. The warm-up is run once per configuration, frozen
//! as a [`pfault_ssd::DeviceImage`], memoized in the campaign's
//! [`SnapshotCache`] (a fresh one per builder, unless
//! [`CampaignBuilder::snapshot_cache`] hands in one the caller holds, as
//! the daemon does for all its jobs), and copy-on-write-cloned per trial
//! — byte-identical to replaying the warm-up inline, at a fraction of the
//! cost (the clone shares the flash arena and materialises only the
//! blocks the trial touches).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::panic::{self, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pfault_obs::Metrics;
use pfault_sim::checksum::fnv64;
use pfault_sim::stats::{Histogram, OnlineStats};
use pfault_sim::DetRng;
use pfault_ssd::DeviceImage;

use crate::analyzer::FailureCounts;
use crate::error::{CheckpointError, PlatformError, TrialError};
use crate::plan::{PlanSpec, PlanState};
use crate::platform::{TestPlatform, TrialConfig, TrialOutcome};
use crate::scheduler::{self, SchedulerStats};
use crate::snapcache::SnapshotCache;

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
    /// targets. Living inside the report means the checkpoint persists
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
    /// planner state, if any. Every trial result funnels through this
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
// v7: `PlanState` lost its splitting `levels` field with importance
// splitting, so a v6 snapshot of an adaptive campaign carries a field
// the planner no longer has.
const CHECKPOINT_VERSION: u32 = 7;

/// Progress handed to a [`Campaign::execute`] observer after each
/// absorbed trial, in trial order at any thread count, and, at
/// checkpoint boundaries, after the checkpoint hit disk — so an observer
/// that persists progress can rely on the snapshot being durable first.
#[derive(Debug)]
pub struct CampaignProgress<'a> {
    /// Trials absorbed so far.
    pub completed: u64,
    /// Trials the campaign will run: the fixed count, or the planner's
    /// current round target, which grows as the planner extends the run.
    pub trials: u64,
    /// Whether a boundary checkpoint was written just before this call.
    pub checkpointed: bool,
    /// The report as of `completed` trials.
    pub report: &'a CampaignReport,
}

/// An observer's verdict after each progress call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProgressSignal {
    /// Keep running trials.
    Continue,
    /// Stop here. If the campaign has a checkpoint configured, the
    /// current prefix is checkpointed first, so a later
    /// `execute(true, ..)` picks up exactly here.
    Pause,
}

/// Outcome of [`Campaign::execute`]: the report so far, whether the
/// observer paused the campaign before all trials ran, and how the run's
/// one warm-image lookup went.
#[derive(Debug, Clone)]
pub struct ObservedRun {
    /// The (possibly partial) aggregated report.
    pub report: CampaignReport,
    /// Trials absorbed into `report`.
    pub completed: u64,
    /// `true` iff the observer returned [`ProgressSignal::Pause`]
    /// before the final trial.
    pub paused: bool,
    /// 1 if this run's warm image came from the snapshot cache, else 0.
    pub cache_hits: u64,
    /// 1 if this run had to build its warm image, else 0. Both are 0
    /// without a cache or without a warm-up.
    pub cache_misses: u64,
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
    snapshot_cache: Option<Arc<SnapshotCache>>,
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
/// let campaign = Campaign::builder(config).seed(42).threads(2).build();
/// let report = campaign.run();
/// assert_eq!(report.faults, 2);
/// ```
#[derive(Debug, Clone)]
pub struct CampaignBuilder(Campaign);

impl CampaignBuilder {
    /// Sizes the campaign with a [`PlanSpec`] — the single sizing
    /// surface across the workspace. `PlanSpec::fixed(n)` is the classic
    /// fixed-N loop with a plan-less report; a confidence spec makes the
    /// campaign adaptive. The config's `trials` field is set to the
    /// plan's budget so legacy readers keep a meaningful denominator.
    #[must_use]
    pub fn plan(mut self, spec: PlanSpec) -> Self {
        self.0.config.trials = spec.trial_budget() as usize;
        self.0.plan = Some(spec);
        self
    }

    /// Seeds every trial (defaults to 0).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.0.seed = seed;
        self
    }

    /// Worker threads (default 1, which runs every trial on the
    /// caller's thread; clamped to ≥ 1). The thread count never changes
    /// the report, the checkpoints or the observer's calls — only how
    /// fast they are produced.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.0.threads = threads.max(1);
        self
    }

    /// Retries each failing trial up to `retries` extra attempts, each
    /// with a deterministically derived fresh seed. The first attempt
    /// always uses the original trial seed, so a campaign with zero
    /// failures is unaffected by this setting.
    #[must_use]
    pub fn retries(mut self, retries: u32) -> Self {
        self.0.retries = retries;
        self
    }

    /// Writes a resumable JSON checkpoint to `path` after every `every`
    /// completed trials (at any thread count; `every` is clamped to
    /// ≥ 1), and is where `execute(true, ..)` resumes from. The write is
    /// atomic: a temp file is renamed over `path`.
    #[must_use]
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.0.checkpoint = Some(CheckpointSpec {
            path: path.into(),
            every: every.max(1),
        });
        self
    }

    /// The cache warm-up images are served from: a fresh one per
    /// builder by default. Hand in a shared cache so separate campaigns
    /// reuse one warm-up, or `None` so every trial replays the warm-up
    /// inline — byte-identical results, just slower. Only meaningful
    /// when the trial configuration sets
    /// [`TrialConfig::warmup_requests`].
    #[must_use]
    pub fn snapshot_cache(mut self, cache: Option<Arc<SnapshotCache>>) -> Self {
        self.0.snapshot_cache = cache;
        self
    }

    /// Finalizes the campaign.
    pub fn build(self) -> Campaign {
        self.0
    }
}

impl Campaign {
    /// Starts a builder for `config` with the defaults: seed 0, one
    /// thread, no retries, no checkpointing, a fresh snapshot cache.
    pub fn builder(config: CampaignConfig) -> CampaignBuilder {
        CampaignBuilder(Campaign {
            config,
            plan: None,
            seed: 0,
            retries: 0,
            checkpoint: None,
            threads: 1,
            snapshot_cache: Some(Arc::default()),
        })
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

    /// A fresh report: plan-less for a fixed plan, carrying the initial
    /// single-stratum planner state for an adaptive one.
    fn fresh_report(&self) -> Result<CampaignReport, PlatformError> {
        let mut report = CampaignReport::empty();
        match self.plan_spec() {
            PlanSpec::Fixed { .. } => {}
            spec => report.plan = Some(PlanState::single(spec)?),
        }
        Ok(report)
    }

    /// The warm image trials clone and whether the cache already held
    /// it, if image cloning applies (a cache is set *and* the trial
    /// configuration has a warm-up). `None` means trials build their
    /// device themselves — cold, or with an inline warm-up replay.
    fn campaign_image(&self, platform: &TestPlatform) -> Option<(Arc<DeviceImage>, bool)> {
        let cache = self.snapshot_cache.as_ref()?;
        (platform.config().warmup_requests > 0)
            .then(|| cache.image_for(platform.config_digest(), || platform.warm_image()))
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
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                platform.run_campaign_trial(image, seed)
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

    /// Runs the campaign, or with `resume` continues it from the
    /// builder's checkpoint. The builder decides the rest:
    ///
    /// * the report carries planner state iff the plan is adaptive
    ///   (not [`PlanSpec::Fixed`]); the planner extends or stops the run
    ///   at round boundaries;
    /// * each round runs on the trial scheduler with
    ///   [`CampaignBuilder::threads`] workers;
    /// * the configured checkpoint is written every `every` trials, and
    ///   before a pause.
    ///
    /// After every absorbed trial the observer sees the prefix and may
    /// pause the run; resuming a paused run later, on any thread count,
    /// yields a report byte-identical to an uninterrupted one.
    /// Trials that panic, exceed the watchdog budget, or brick the
    /// device are retried per [`CampaignBuilder::retries`] and, if still
    /// failing, recorded in [`CampaignReport::failures`] — the campaign
    /// itself keeps going.
    ///
    /// Errors with `InvalidConfig` for a degenerate plan spec or
    /// `resume` without a checkpoint; with a checkpoint error on IO problems, on
    /// a checkpoint from another campaign, or when the checkpoint's
    /// planner state disagrees with the plan.
    pub fn execute(
        &self,
        resume: bool,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<ObservedRun, PlatformError> {
        Ok(self.drive(resume, self.threads, observer)?.0)
    }

    /// Runs the campaign from scratch: [`Campaign::execute`] without an
    /// observer, panicking where it would return an error.
    pub fn run(&self) -> CampaignReport {
        match self.execute(false, &mut |_| ProgressSignal::Continue) {
            Ok(run) => run.report,
            Err(e) => panic!("campaign failed: {e}"),
        }
    }

    /// [`Campaign::run`] with `threads` workers (`0` is treated as `1`;
    /// the pool is capped at the round size) whatever the builder's
    /// thread count, also returning the scheduler's per-worker telemetry
    /// (trials run, utilization) for the last round. The stats are
    /// wall-clock-dependent and live outside the report so reports stay
    /// engine-independent.
    pub fn run_stealing_with_stats(&self, threads: usize) -> (CampaignReport, SchedulerStats) {
        match self.drive(false, threads, &mut |_| ProgressSignal::Continue) {
            Ok((run, stats)) => (run.report, stats),
            Err(e) => panic!("campaign failed: {e}"),
        }
    }

    /// The checkpoint's `(completed, report)` pair, validated but not
    /// run — daemons use it to decide where a resumed job's result
    /// stream picks up and to rebuild the progress record a crash may
    /// have kept out of their result journal.
    pub fn checkpoint_snapshot(
        &self,
        path: impl AsRef<Path>,
    ) -> Result<(u64, CampaignReport), PlatformError> {
        let snapshot = self.load_checkpoint(path.as_ref())?;
        Ok((snapshot.completed, snapshot.report))
    }

    /// The trial loop behind [`Campaign::execute`]. Each pass runs the
    /// rest of the current round on [`scheduler::run_work_stealing`] with
    /// `threads` workers (one runs inline), which hands the results back
    /// in canonical index order on the caller's thread; a plan-less
    /// report is one round of `trials`. Each absorbed trial is then
    /// [`Campaign::settle`]d. A pause or an error raises `halt`: workers
    /// skip the trials they have not started and the results still in
    /// flight are dropped. The planner's decisions and the failure bits
    /// are pure functions of the absorbed prefix, so pausing anywhere —
    /// even mid-round — and resuming is byte-identical to never pausing,
    /// at any thread count. Also returns the scheduler stats of the last
    /// pass.
    fn drive(
        &self,
        resume: bool,
        threads: usize,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<(ObservedRun, SchedulerStats), PlatformError> {
        let mut report = self.fresh_report()?;
        let mut completed = 0;
        if resume {
            let Some(spec) = &self.checkpoint else {
                return Err(PlatformError::InvalidConfig(
                    "resuming needs a checkpoint to resume from".to_string(),
                ));
            };
            let snapshot = self.load_checkpoint(&spec.path)?;
            if snapshot.report.plan.is_some() != report.plan.is_some() {
                return Err(CheckpointError::Corrupt(format!(
                    "checkpoint planner state does not fit plan {}",
                    self.plan_spec().render()
                ))
                .into());
            }
            report = snapshot.report;
            completed = snapshot.completed;
        }
        let platform = TestPlatform::new(self.trial_config());
        let lookup = self.campaign_image(&platform);
        let image = lookup.as_ref().map(|(image, _)| image.as_ref());
        let trials = self.config.trials as u64;
        let mut stats = SchedulerStats::default();
        let halt = AtomicBool::new(false);
        let (mut paused, mut failure) = (false, None);
        while !paused && failure.is_none() {
            let target = match report.plan.as_mut() {
                Some(state) if state.done => break,
                Some(state) if completed >= state.targets[0] => {
                    state.advance()?;
                    continue;
                }
                Some(state) => state.targets[0],
                None if completed >= trials => break,
                None => trials,
            };
            let start = completed;
            (_, stats) = scheduler::run_work_stealing(
                target - start,
                threads,
                scheduler::DEFAULT_CHUNK,
                |i| {
                    (!halt.load(Ordering::Relaxed))
                        .then(|| self.run_one(&platform, image, start + i))
                },
                (),
                |(), _, ran| {
                    let Some((result, retries_used)) =
                        ran.filter(|_| !halt.load(Ordering::Relaxed))
                    else {
                        return; // a pause or an error already ended the run
                    };
                    report.absorb_result(completed, result, retries_used);
                    completed += 1;
                    match self.settle(completed, trials, &mut report, observer) {
                        Ok(false) => return,
                        Ok(true) => paused = true,
                        Err(error) => failure = Some(error),
                    }
                    halt.store(true, Ordering::Relaxed);
                },
            );
        }
        if let Some(error) = failure {
            return Err(error);
        }
        let run = ObservedRun {
            report,
            completed,
            paused,
            cache_hits: u64::from(matches!(lookup, Some((_, true)))),
            cache_misses: u64::from(matches!(lookup, Some((_, false)))),
        };
        Ok((run, stats))
    }

    /// The bookkeeping after the trial that brought the prefix to
    /// `completed` (of `trials`, unless a planner sets the target):
    /// closes the planner round if that trial ended it, writes a due
    /// checkpoint, and shows the observer the prefix. Returns whether
    /// the observer paused a run with trials left, in which case the
    /// prefix is checkpointed (when configured) so nothing absorbed is
    /// lost.
    fn settle(
        &self,
        completed: u64,
        trials: u64,
        report: &mut CampaignReport,
        observer: &mut dyn FnMut(CampaignProgress<'_>) -> ProgressSignal,
    ) -> Result<bool, PlatformError> {
        let (done, trials) = match report.plan.as_mut() {
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
                self.write_checkpoint(spec, completed, report)?;
                checkpointed = true;
            }
        }
        let signal = observer(CampaignProgress {
            completed,
            trials,
            checkpointed,
            report,
        });
        if signal == ProgressSignal::Continue || done {
            return Ok(false);
        }
        if let Some(spec) = self.checkpoint.as_ref().filter(|_| !checkpointed) {
            self.write_checkpoint(spec, completed, report)?;
        }
        Ok(true)
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

    /// The same campaign on `threads` workers.
    fn on_threads(campaign: &Campaign, threads: usize) -> CampaignReport {
        CampaignBuilder(campaign.clone())
            .threads(threads)
            .build()
            .run()
    }

    /// [`Campaign::execute`] without an observer.
    fn go(campaign: &Campaign, resume: bool) -> Result<ObservedRun, PlatformError> {
        campaign.execute(resume, &mut |_| ProgressSignal::Continue)
    }

    #[test]
    fn all_engines_produce_byte_identical_reports() {
        let campaign = Campaign::builder(tiny_config()).seed(11).build();
        let serial = report_bytes(&campaign.run());
        let two = report_bytes(&on_threads(&campaign, 2));
        let three = report_bytes(&on_threads(&campaign, 3));
        assert_eq!(serial, two, "2 threads must match serial");
        assert_eq!(serial, three, "3 threads must match serial");
    }

    #[test]
    fn engines_agree_with_obs_enabled() {
        let mut config = tiny_config();
        config.trial.obs = true;
        let campaign = Campaign::builder(config).seed(19).build();
        let serial = campaign.run();
        assert!(!serial.obs.is_empty(), "obs trials must contribute");
        let serial = report_bytes(&serial);
        assert_eq!(serial, report_bytes(&on_threads(&campaign, 3)));
        assert_eq!(serial, report_bytes(&on_threads(&campaign, 4)));
    }

    /// A campaign's obs trials keep no record stream, so their folded
    /// telemetry is checked against the public trial path, which keeps
    /// one: the aggregate of `run_trial_from_image` outcomes, each with
    /// its telemetry re-derived from its records.
    #[test]
    fn warm_obs_campaign_aggregates_the_folded_record_streams() {
        let mut config = tiny_config();
        config.trial.obs = true;
        config.trial.warmup_requests = 16;
        let campaign = Campaign::builder(config).seed(23).build();
        let platform = TestPlatform::new(campaign.trial_config());
        let image = platform.warm_image();
        let mut want = ObsAggregate::default();
        for index in 0..config.trials {
            let Ok(mut outcome) = platform.run_trial_from_image(&image, campaign.trial_seed(index))
            else {
                continue;
            };
            assert!(!outcome.probe_records.is_empty());
            outcome.telemetry = Some(Metrics::from_records(&outcome.probe_records));
            want.absorb(&outcome);
        }
        assert!(want.trials_observed > 0);
        for threads in [1, 3] {
            let report = on_threads(&campaign, threads);
            assert_eq!(report.obs, want, "{threads} worker(s)");
        }
    }

    #[test]
    fn snapshot_cloning_matches_inline_warmup_byte_for_byte() {
        let mut config = tiny_config();
        config.trial.warmup_requests = 16;
        let cached = Campaign::builder(config).seed(21);
        let inline = cached.clone().snapshot_cache(None);
        let with_cache = report_bytes(&cached.build().run());
        let without_cache = report_bytes(&inline.build().run());
        assert_eq!(
            with_cache, without_cache,
            "snapshot restore must equal inline warm-up replay"
        );
        let stealing = report_bytes(&on_threads(&Campaign::builder(config).seed(21).build(), 3));
        assert_eq!(with_cache, stealing);
    }

    #[test]
    fn threads_are_capped_at_trial_count() {
        // 6 trials over 7 or 64 requested threads: the engine must clamp
        // rather than spawn idle workers, and still match serial.
        let campaign = Campaign::builder(tiny_config()).seed(11).build();
        let serial = report_bytes(&campaign.run());
        assert_eq!(serial, report_bytes(&on_threads(&campaign, 7)));
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
        let stealing = on_threads(&Campaign::builder(tiny_config()).seed(9).build(), 3);
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
        let stealing = on_threads(&campaign, 3);
        assert_eq!(stealing.failures, report.failures);
        assert_eq!(stealing.counts, report.counts);
    }

    #[test]
    fn zero_threads_is_clamped_to_serial() {
        let campaign = Campaign::builder(tiny_config()).seed(11).build();
        let zero = on_threads(&campaign, 0);
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
        let stealing = on_threads(&campaign, 3);
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
        let stealing = on_threads(&Campaign::builder(config).seed(29).build(), 4);
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
        let full = go(&checkpointed, false).expect("checkpointed run").report;
        assert_eq!(
            serde_json::to_string(&full).unwrap(),
            serde_json::to_string(&plain).unwrap(),
            "checkpointing must not perturb the result"
        );

        // The file on disk holds a partial prefix (the last mid-run
        // snapshot); resuming from it must reproduce the full report
        // byte-for-byte.
        let resumed = go(&checkpointed, true).expect("resume").report;
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
        go(&campaign, false).expect("run");

        let wrong_seed = Campaign::builder(tiny_config())
            .seed(38)
            .checkpoint(&path, 2)
            .build();
        match go(&wrong_seed, true) {
            Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                assert_eq!(field, "seed");
            }
            other => panic!("expected seed mismatch, got {other:?}"),
        }

        let mut other_config = tiny_config();
        other_config.requests_per_trial += 1;
        let wrong_config = Campaign::builder(other_config)
            .seed(37)
            .checkpoint(&path, 2)
            .build();
        match go(&wrong_config, true) {
            Err(PlatformError::Checkpoint(CheckpointError::Mismatch { field, .. })) => {
                assert_eq!(field, "config_digest");
            }
            other => panic!("expected config mismatch, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_rejects_old_checkpoint_version() {
        // A v6-era snapshot (before the splitting levels left the
        // planner state) must be refused loudly, not misread — and every
        // older version likewise, down to v2.
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("stale-version.json");
        let _ = std::fs::remove_file(&path);

        let campaign = Campaign::builder(tiny_config())
            .seed(43)
            .checkpoint(&path, 2)
            .build();
        go(&campaign, false).expect("run");
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        assert!(text.contains("\"version\":7"), "snapshot carries v7");

        for stale in [
            "\"version\":6",
            "\"version\":5",
            "\"version\":4",
            "\"version\":3",
            "\"version\":2",
        ] {
            std::fs::write(&path, text.replace("\"version\":7", stale)).expect("rewrite");
            match go(&campaign, true) {
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
            .execute(false, &mut |p| {
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
            .execute(false, &mut |p| {
                if p.completed == 3 {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("paused run");
        assert!(run.paused);
        assert_eq!(run.completed, 3);
        assert_eq!(campaign.checkpoint_snapshot(&path).expect("ckpt").0, 3);

        let resumed = campaign
            .execute(true, &mut |p| {
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
            .execute(false, &mut |_| ProgressSignal::Pause)
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
        let campaign = Campaign::builder(tiny_config())
            .seed(41)
            .checkpoint(&path, 2)
            .build();
        match go(&campaign, true) {
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
    fn fixed_plan_matches_classic_run_byte_for_byte() {
        let classic = Campaign::builder(tiny_config()).seed(11).build().run();
        let fixed = Campaign::builder(tiny_config())
            .seed(11)
            .plan(PlanSpec::fixed(6))
            .build()
            .run();
        assert!(fixed.plan.is_none(), "fixed plans keep a plan-less report");
        assert_eq!(report_bytes(&fixed), report_bytes(&classic));
    }

    #[test]
    fn planned_engines_agree_byte_for_byte() {
        // Every entry point honours the builder's plan and thread count:
        // the plan, not the 24-trial budget, decides when to stop.
        let campaign = Campaign::builder(tiny_config())
            .seed(13)
            .plan(loose_ci_spec())
            .build();
        let planned = go(&campaign, false).expect("planned serial run").report;
        let bytes = report_bytes(&planned);
        assert_eq!(report_bytes(&campaign.run()), bytes);
        assert_eq!(report_bytes(&on_threads(&campaign, 3)), bytes);
        let (stolen, stats) = campaign.run_stealing_with_stats(2);
        assert_eq!(report_bytes(&stolen), bytes);
        assert_eq!(stats.trials, 3, "the last round is three trials wide");
        let state = planned.plan.expect("plan state");
        assert!(state.done);
        assert_eq!(state.total_trials(), 9, "loose spec stops at its floor");
        assert_eq!(state.round, 3, "three rounds of three trials");
    }

    #[test]
    fn resume_without_a_checkpoint_is_invalid_config() {
        let campaign = Campaign::builder(tiny_config()).seed(7).build();
        match go(&campaign, true) {
            Err(PlatformError::InvalidConfig(why)) => assert!(why.contains("checkpoint")),
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn threaded_run_pauses_mid_round_and_resumes_on_one_thread() {
        let path = std::env::temp_dir().join(format!(
            "pfault-checkpoint-threaded-{}.json",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        let builder = Campaign::builder(tiny_config())
            .seed(61)
            .plan(loose_ci_spec());
        let plain = builder.clone().build().run();
        let threaded = builder.clone().threads(3).checkpoint(&path, 2).build();
        // Rounds are three trials wide, so trial 4 is mid-round.
        let mut seen = Vec::new();
        let run = threaded
            .execute(false, &mut |p| {
                seen.push(p.completed);
                if p.completed == 4 {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("threaded run");
        assert!(run.paused);
        assert_eq!(run.completed, 4);
        assert_eq!(
            seen,
            vec![1, 2, 3, 4],
            "the observer sees every trial in order"
        );
        assert_eq!(threaded.checkpoint_snapshot(&path).expect("ckpt").0, 4);

        let serial = builder.checkpoint(&path, 2).build();
        let resumed = go(&serial, true).expect("resume on one thread");
        assert!(!resumed.paused);
        assert_eq!(
            report_bytes(&resumed.report),
            report_bytes(&plain),
            "a threaded pause resumed on one thread must equal the uninterrupted run"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_campaigns_attribute_only_their_own_lookup() {
        // Two campaigns share one cache and run at once: whichever looks
        // the image up first builds it, the other clones it, and each
        // run reports exactly its own lookup.
        let mut config = tiny_config();
        config.trial.warmup_requests = 16;
        let cache = Arc::new(SnapshotCache::default());
        let campaigns: Vec<Campaign> = [61, 67]
            .map(|seed| {
                Campaign::builder(config)
                    .seed(seed)
                    .snapshot_cache(Some(Arc::clone(&cache)))
                    .build()
            })
            .into();
        let runs: Vec<ObservedRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = campaigns
                .iter()
                .map(|c| scope.spawn(move || go(c, false).expect("campaign runs")))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("campaign thread"))
                .collect()
        });
        for run in &runs {
            assert_eq!(run.cache_hits + run.cache_misses, 1, "one lookup per run");
        }
        assert_eq!(runs.iter().map(|r| r.cache_hits).sum::<u64>(), 1);
        assert_eq!(runs.iter().map(|r| r.cache_misses).sum::<u64>(), 1);
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
            .run();

        // Pause after trial 4 — inside round 2 (rounds are 3 trials
        // wide), so resuming must pick the round back up mid-stride.
        let campaign = Campaign::builder(tiny_config())
            .seed(17)
            .plan(loose_ci_spec())
            .checkpoint(&path, 2)
            .build();
        let run = campaign
            .execute(false, &mut |p| {
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
            .execute(true, &mut |p| {
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
    fn resume_planned_rejects_plan_less_checkpoints() {
        let dir = std::env::temp_dir().join("pfault-checkpoint-test");
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("plain-ckpt-for-planned.json");
        let _ = std::fs::remove_file(&path);

        // A planned paused run writes a checkpoint with planner state…
        let campaign = Campaign::builder(tiny_config())
            .seed(23)
            .plan(loose_ci_spec())
            .checkpoint(&path, 2)
            .build();
        let run = campaign
            .execute(false, &mut |p| {
                if p.completed == 2 {
                    ProgressSignal::Pause
                } else {
                    ProgressSignal::Continue
                }
            })
            .expect("paused planned run");
        assert!(run.paused);

        // …and one that lost it must be refused rather than resumed
        // with invented planner state.
        let text = std::fs::read_to_string(&path).expect("checkpoint written");
        let mut snapshot: CampaignCheckpoint = serde_json::from_str(&text).expect("parses");
        snapshot.report.plan = None;
        std::fs::write(&path, serde_json::to_string(&snapshot).expect("serializes"))
            .expect("rewrite");
        match go(&campaign, true) {
            Err(PlatformError::Checkpoint(CheckpointError::Corrupt(why))) => {
                assert!(why.contains("planner state"), "{why}");
            }
            other => panic!("expected corrupt checkpoint, got {other:?}"),
        }
        let _ = std::fs::remove_file(&path);
    }
}
