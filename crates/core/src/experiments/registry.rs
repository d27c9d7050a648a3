//! The unified Experiment API.
//!
//! Every runnable experiment — the paper figures, the extensions, and
//! the operational modes (raw campaign, fault-space sweep) — is one
//! [`Experiment`] row of the static [`registry`] table. Drivers like the
//! `repro` binary dispatch by name instead of hand-rolling a match, and
//! `--list-exps` is just a walk over the registry.
//!
//! An experiment receives an [`ExperimentCtx`] (scale, seed, CLI
//! options) and returns an [`ExperimentReport`]: the human-readable
//! text, a stable JSON key/value for machine-readable output, and any
//! self-check failures. Self-checks are *recorded* unconditionally but
//! *enforced* by the driver only when the experiment was selected
//! explicitly — `--exp recovery-storm` must prove the storm pipeline
//! fired, while the same experiment inside `--exp all` is informational.

use std::fmt::Write as _;
use std::path::PathBuf;

use serde_json::Value;

use crate::campaign::{Campaign, CampaignConfig, ProgressSignal};
use crate::error::PlatformError;
use crate::plan::PlanSpec;
use crate::platform::{TestPlatform, Watchdog};
use crate::sweep::{SweepConfig, Sweeper, ViolationKind};

use super::{
    access_pattern, brownout, cache_ablation, fleet, flush, injector_ablation, interval, iops, kv,
    plan, psu, recovery, repeated, request_size, request_type, sequence, storm, vendors, wear, wss,
    ExperimentScale,
};

/// What `--engine` selects. Every experiment folds its trials in one
/// canonical order, so the choice only sets the worker count (see
/// [`ExperimentOpts::workers`]): `serial` is one worker, `auto` and
/// `stealing` are `--threads` workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineArg {
    /// `--threads` workers, or the experiment's default.
    #[default]
    Auto,
    /// One worker, the caller's thread, whatever `--threads` says.
    Serial,
    /// `--threads` workers, or the experiment's default (same as `auto`).
    Stealing,
}

impl EngineArg {
    /// Parses a `--engine` value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "auto" => Some(EngineArg::Auto),
            "serial" => Some(EngineArg::Serial),
            "stealing" => Some(EngineArg::Stealing),
            _ => None,
        }
    }

    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            EngineArg::Auto => "auto",
            EngineArg::Serial => "serial",
            EngineArg::Stealing => "stealing",
        }
    }
}

/// Driver-provided options. Most apply only to the operational modes
/// (`campaign`, `sweep`); figure experiments ignore them.
#[derive(Debug, Clone)]
pub struct ExperimentOpts {
    /// Overrides how the campaign is sized: a fixed trial count
    /// (`fixed:N`, the classic `--trials` spelling) or an adaptive
    /// confidence-driven plan (`ci:EPS[:CONF]`). `None` falls back to
    /// [`ExperimentScale::faults_per_point`].
    pub plan: Option<PlanSpec>,
    /// Extra attempts per failing trial.
    pub retries: u32,
    /// Checkpoint file for campaign mode.
    pub checkpoint: Option<PathBuf>,
    /// Trials between checkpoint writes.
    pub checkpoint_every: u64,
    /// Resume from the checkpoint instead of starting fresh.
    pub resume: bool,
    /// Watchdog ceiling on simulated milliseconds.
    pub watchdog_ms: Option<u64>,
    /// Watchdog ceiling on event-loop iterations.
    pub watchdog_events: Option<u64>,
    /// Shrink the first sweep violation to a minimal reproducer.
    pub minimize: bool,
    /// Seed the apply-before-verify CRC bug for the sweep to find.
    pub inject_crc_bug: bool,
    /// Write per-failure-class probe telemetry here (enables obs).
    pub metrics_path: Option<PathBuf>,
    /// Write one representative probe trace (JSONL) here (enables obs).
    pub trace_path: Option<PathBuf>,
    /// Worker threads (`None` = the experiment's default).
    pub threads: Option<usize>,
    /// Engine selection: `serial` pins one worker.
    pub engine: EngineArg,
    /// Warm-up requests per trial configuration
    /// ([`crate::platform::TrialConfig::warmup_requests`]).
    pub warmup: Option<usize>,
    /// Serve warm-up snapshots from the memoized cache (default true).
    pub snapshot_cache: bool,
}

impl Default for ExperimentOpts {
    fn default() -> Self {
        ExperimentOpts {
            plan: None,
            retries: 0,
            checkpoint: None,
            checkpoint_every: 25,
            resume: false,
            watchdog_ms: None,
            watchdog_events: None,
            minimize: false,
            inject_crc_bug: false,
            metrics_path: None,
            trace_path: None,
            threads: None,
            engine: EngineArg::Auto,
            warmup: None,
            snapshot_cache: true,
        }
    }
}

impl ExperimentOpts {
    /// The one engine decision: the worker count a run folds its trials
    /// on — 1 under `--engine serial`, otherwise `--threads` or the
    /// experiment's `default`.
    pub fn workers(&self, default: usize) -> usize {
        match self.engine {
            EngineArg::Serial => 1,
            EngineArg::Auto | EngineArg::Stealing => self.threads.unwrap_or(default),
        }
    }
}

/// Everything an experiment run receives.
#[derive(Debug, Clone)]
pub struct ExperimentCtx {
    /// Fault/request budget per swept point.
    pub scale: ExperimentScale,
    /// Root seed; every trial seed derives from it.
    pub seed: u64,
    /// Driver options.
    pub opts: ExperimentOpts,
}

impl ExperimentCtx {
    /// The scale a sweep runs on: `scale` with its worker count set by
    /// [`ExperimentOpts::workers`] (default: the scale's own count).
    fn sweep_scale(&self) -> ExperimentScale {
        ExperimentScale {
            threads: self.opts.workers(self.scale.threads),
            ..self.scale
        }
    }
}

/// What one experiment produced.
#[derive(Debug, Clone)]
pub struct ExperimentReport {
    /// Human-readable output, ready to print.
    pub text: String,
    /// Stable key for the machine-readable JSON document.
    pub json_key: &'static str,
    /// Machine-readable report.
    pub json: Value,
    /// Self-check failures. Empty means the experiment vouches for its
    /// own result; the driver turns non-empty into a nonzero exit when
    /// the experiment was selected explicitly.
    pub check_failures: Vec<String>,
}

/// A runnable experiment: one row of the [`registry`] table, dispatched
/// by [`find`].
#[derive(Debug)]
pub struct Experiment {
    /// CLI name (`--exp NAME`).
    pub name: &'static str,
    /// One-line description for `--list-exps`.
    pub describe: &'static str,
    /// Whether `--exp all` includes this experiment. Operational modes
    /// (campaign, sweep, serve) opt out.
    pub in_all: bool,
    /// Runs the experiment.
    pub run: fn(&ExperimentCtx) -> Result<ExperimentReport, PlatformError>,
}

fn json_of<T: serde::Serialize>(report: &T) -> Value {
    serde_json::to_value(report).expect("reports serialize")
}

fn clean(
    text: String,
    json_key: &'static str,
    json: Value,
) -> Result<ExperimentReport, PlatformError> {
    Ok(ExperimentReport {
        text,
        json_key,
        json,
        check_failures: Vec::new(),
    })
}

fn run_fig4(_ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = psu::run();
    let mut text = String::new();
    let _ = writeln!(text, "== Fig 4: PSU discharge ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(text, "Fig 4a series (no load):");
    let _ = writeln!(
        text,
        "{}",
        psu::PsuReport::curve_table(&report.unloaded).render()
    );
    let _ = writeln!(text, "Fig 4b series (one SSD):");
    let _ = writeln!(
        text,
        "{}",
        psu::PsuReport::curve_table(&report.loaded).render()
    );
    clean(text, "fig4", json_of(&report))
}

fn run_interval(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = interval::run(ctx.sweep_scale(), ctx.seed, true);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== §IV-A: interval after completion (cache enabled) =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    if let Some(max) = report.max_delay_with_failure_ms() {
        let _ = writeln!(
            text,
            "max delay with observed failure: {max} ms (paper: ~700 ms)\n"
        );
    }
    clean(text, "interval", json_of(&report))
}

fn run_interval_nocache(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = interval::run(ctx.sweep_scale(), ctx.seed ^ 1, false);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== §IV-A: interval after completion (cache DISABLED) =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    if let Some(max) = report.max_delay_with_failure_ms() {
        let _ = writeln!(
            text,
            "max delay with observed failure: {max} ms (failures persist without cache)\n"
        );
    }
    clean(text, "interval_nocache", json_of(&report))
}

fn run_fig5(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = request_type::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Fig 5: request type (read %) ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(text, "{}", report.chart().render(50));
    clean(text, "fig5", json_of(&report))
}

fn run_fig6(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let points: Option<&[u64]> = if ctx.scale == ExperimentScale::paper() {
        None
    } else {
        Some(&[1, 20, 50, 90])
    };
    let report = wss::run(ctx.sweep_scale(), ctx.seed, points);
    let mut text = String::new();
    let _ = writeln!(text, "== Fig 6: working-set size ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "max/min per-fault spread: {:.2} (paper: flat)\n",
        report.spread_ratio()
    );
    clean(text, "fig6", json_of(&report))
}

fn run_pattern(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = access_pattern::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== §IV-D: access pattern ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "sequential excess: {:+.1}% (paper: ~+14%)\n",
        report.sequential_excess_pct()
    );
    clean(text, "pattern", json_of(&report))
}

fn run_fig7(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = request_size::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Fig 7: request size ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(text, "{}", report.chart().render(50));
    clean(text, "fig7", json_of(&report))
}

fn run_fig8(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = iops::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Fig 8: requested IOPS ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "saturation: {:.0} responded IOPS (paper: ~6900)\n",
        report.saturation_iops()
    );
    clean(text, "fig8", json_of(&report))
}

fn run_fig9(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = sequence::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Fig 9: access sequences ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(text, "{}", report.chart().render(50));
    clean(text, "fig9", json_of(&report))
}

fn run_table1(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = vendors::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Table I: vendor drives ==");
    let _ = writeln!(text, "{}", report.table().render());
    clean(text, "table1", json_of(&report))
}

fn run_ablation_injector(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = injector_ablation::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Ablation: discharge ramp vs transistor cut ==");
    let _ = writeln!(text, "{}", report.table().render());
    clean(text, "ablation_injector", json_of(&report))
}

fn run_ablation_cache(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = cache_ablation::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Ablation: cache on/off/supercap ==");
    let _ = writeln!(text, "{}", report.table().render());
    clean(text, "ablation_cache", json_of(&report))
}

fn run_brownout(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = brownout::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension: transient sag (brownout) depth sweep =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    clean(text, "brownout", json_of(&report))
}

fn run_wear(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = wear::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension: device age (P/E cycles) vs fault damage =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    clean(text, "wear", json_of(&report))
}

fn run_flush(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = flush::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Extension: FLUSH barrier frequency ==");
    let _ = writeln!(text, "{}", report.table().render());
    clean(text, "flush", json_of(&report))
}

fn run_recovery(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = recovery::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension: recovery policy (journal replay vs full scan) =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "full-scan recovery reduces loss by {:.0}%\n",
        report.scan_reduction_pct()
    );
    clean(text, "recovery", json_of(&report))
}

fn run_repeated(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = repeated::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Extension: consecutive outages on one device ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "mean fresh loss per cycle {:.1}; requests that had survived an \
         earlier outage and were newly lost later: {}\n",
        report.mean_fresh_lost(),
        report.total_old_newly_lost()
    );
    clean(text, "repeated", json_of(&report))
}

/// Extension J with its storm self-checks: an explicit run must prove
/// the mechanistic pipeline fired end to end.
fn run_storm(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = storm::run(ctx.sweep_scale(), ctx.seed);
    let mut text = String::new();
    let _ = writeln!(text, "== Extension J: power cuts during recovery itself ==");
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "interrupted stages {}, resumed mounts {}, read-only devices {}\n",
        report.total_interrupted(),
        report.total_resumed(),
        report.total_read_only()
    );
    let mut checks = Vec::new();
    if report.total_interrupted() == 0 {
        checks.push("recovery-storm smoke failed: no recovery stage was interrupted".into());
    }
    if report.total_resumed() == 0 {
        checks.push("recovery-storm smoke failed: no interrupted recovery resumed".into());
    }
    if report.total_read_only() == 0 {
        checks.push("recovery-storm smoke failed: no device degraded to read-only".into());
    }
    if report
        .rows
        .first()
        .is_some_and(|calm| calm.interrupted_stages != 0)
    {
        checks.push("recovery-storm smoke failed: cut rate 0.0 must never interrupt".into());
    }
    Ok(ExperimentReport {
        text,
        json_key: "recovery_storm",
        json: json_of(&report),
        check_failures: checks,
    })
}

/// Extension L with its fleet self-checks: an explicit run must prove
/// that correlated cuts degrade MTTDL versus the independent baseline,
/// that degraded reads and rebuild interruptions actually happened, and
/// that another worker count reproduces the first row bit-for-bit.
fn run_fleet(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = fleet::run(ctx.sweep_scale(), ctx.seed);
    let checks = fleet::check(&report, ctx.sweep_scale(), ctx.seed);
    Ok(ExperimentReport {
        text: fleet::render(&report),
        json_key: "fleet",
        json: json_of(&report),
        check_failures: checks,
    })
}

/// Extension M with its application-layer self-checks: an explicit run
/// must prove that every divergence class (surfaced, masked, silent
/// poison) occurred, that the half-applying firmware poisoned strictly
/// more than the CRC-verifying firmware at equal seeds, that journal
/// batches actually tore, and that another worker count reproduces the
/// first row bit-for-bit.
fn run_kv(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = kv::run(ctx.sweep_scale(), ctx.seed);
    let checks = kv::check(&report, ctx.sweep_scale(), ctx.seed);
    Ok(ExperimentReport {
        text: kv::render(&report),
        json_key: "kv",
        json: json_of(&report),
        check_failures: checks,
    })
}

/// The ROADMAP item 3 deliverable with its self-checks: an explicit run
/// must prove that confidence-driven stopping matches a fixed-N
/// campaign's interval half-width at ≥10x fewer trials on a
/// low-failure-rate point, that same-seed PlanReports are byte-equal
/// across worker counts and across checkpoint/resume.
fn run_plan(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let report = plan::run(ctx.sweep_scale(), ctx.seed)?;
    let checks = plan::check(&report);
    Ok(ExperimentReport {
        text: plan::render(&report, ctx.sweep_scale().threads),
        json_key: "plan",
        json: json_of(&report),
        check_failures: checks,
    })
}

/// One raw fault-injection campaign with the resilience controls:
/// watchdog budgets, deterministic retries, checkpoint/resume, engine
/// selection, warm-up snapshots, and obs export.
fn run_campaign(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let o = &ctx.opts;
    let spec = o
        .plan
        .unwrap_or_else(|| PlanSpec::fixed(ctx.scale.faults_per_point as u64));
    spec.validate()?;
    let mut config = CampaignConfig::paper_default();
    config.requests_per_trial = ctx.scale.requests_per_trial;
    if let Some(warmup) = o.warmup {
        config.trial.warmup_requests = warmup;
    }
    if o.metrics_path.is_some() || o.trace_path.is_some() {
        config.trial.obs = true;
    }
    if o.watchdog_ms.is_some() || o.watchdog_events.is_some() {
        config.trial.watchdog = Watchdog {
            max_sim_time_us: o.watchdog_ms.map(|ms| ms * 1_000),
            max_events: o.watchdog_events,
        };
    }
    if o.resume && o.checkpoint.is_none() {
        return Err(PlatformError::InvalidConfig(
            "--resume needs --checkpoint FILE to resume from".into(),
        ));
    }
    let threads = o.workers(1);
    let mut builder = Campaign::builder(config)
        .plan(spec)
        .seed(ctx.seed)
        .retries(o.retries)
        .threads(threads);
    if !o.snapshot_cache {
        builder = builder.snapshot_cache(None);
    }
    if let Some(path) = &o.checkpoint {
        builder = builder.checkpoint(path, o.checkpoint_every);
    }
    let report = builder
        .build()
        .execute(o.resume, &mut |_| ProgressSignal::Continue)?
        .report;
    let mut text = String::new();
    let mut checks = Vec::new();
    let _ = writeln!(text, "== Campaign: {} fault injections ==", report.faults);
    let _ = writeln!(text, "plan {}", spec.render());
    if let Some(state) = &report.plan {
        let _ = writeln!(text, "planner: {}", state.progress_line());
    }
    let _ = writeln!(
        text,
        "engine {} with {} thread(s); warm-up {} request(s), snapshot cache {}",
        o.engine.name(),
        threads,
        config.trial.warmup_requests,
        if o.snapshot_cache { "on" } else { "off" }
    );
    let _ = writeln!(
        text,
        "requests: {} issued, {} completed",
        report.requests_issued, report.requests_completed
    );
    let _ = writeln!(
        text,
        "failures: {} data, {} FWA, {} IO errors, {} bricked devices",
        report.counts.data_failures,
        report.counts.fwa,
        report.counts.io_errors,
        report.counts.bricked_devices
    );
    let f = &report.failures;
    if f.total_failed() > 0 || f.retries > 0 {
        let _ = writeln!(
            text,
            "trials without an outcome: panicked {:?}, watchdog {:?}, bricked {:?} \
             ({} retry attempts spent)",
            f.panicked, f.watchdog_expired, f.bricked, f.retries
        );
    } else {
        let _ = writeln!(text, "all trials produced an outcome (no retries needed)");
    }
    if let Some(path) = &o.metrics_path {
        // Per-failure-class probe telemetry. Self-checking: an
        // obs-enabled campaign that observed no trial, or produced an
        // unclassified aggregate, is a bug worth a nonzero exit.
        if report.obs.is_empty() || report.obs.by_class.is_empty() {
            checks.push("obs smoke failed: campaign produced no telemetry".into());
        } else {
            let doc = json_of(&report.obs);
            match serde_json::to_string_pretty(&doc) {
                Ok(body) => match std::fs::write(path, body) {
                    Ok(()) => {
                        let _ = writeln!(
                            text,
                            "wrote metrics ({} observed trials, classes: {}) to {}",
                            report.obs.trials_observed,
                            report
                                .obs
                                .by_class
                                .keys()
                                .cloned()
                                .collect::<Vec<_>>()
                                .join(", "),
                            path.display()
                        );
                    }
                    Err(e) => checks.push(format!("failed to write {}: {e}", path.display())),
                },
                Err(e) => checks.push(format!("metrics did not serialize: {e}")),
            }
        }
    }
    if let Some(path) = &o.trace_path {
        // One representative obs trial (the campaign seed itself)
        // rendered as probe JSONL. Deterministic: same seed, same
        // bytes.
        let platform = TestPlatform::new(config.trial);
        let outcome = platform.run_trial(ctx.seed)?;
        let jsonl = pfault_obs::render_records(&outcome.probe_records);
        // Self-check: every rendered line must parse back, with dense
        // sequence numbers.
        for (i, line) in jsonl.lines().enumerate() {
            match pfault_obs::parse_jsonl_line(line) {
                Ok(parsed) if parsed.seq == i as u64 => {}
                Ok(parsed) => {
                    checks.push(format!(
                        "obs smoke failed: line {i} has seq {} (expected {i})",
                        parsed.seq
                    ));
                    break;
                }
                Err(e) => {
                    checks.push(format!(
                        "obs smoke failed: line {i} does not parse back: {e}"
                    ));
                    break;
                }
            }
        }
        if checks.is_empty() {
            match std::fs::write(path, &jsonl) {
                Ok(()) => {
                    let _ = writeln!(
                        text,
                        "wrote probe trace ({} events) to {}",
                        outcome.probe_records.len(),
                        path.display()
                    );
                }
                Err(e) => checks.push(format!("failed to write {}: {e}", path.display())),
            }
        }
    }
    Ok(ExperimentReport {
        text,
        json_key: "campaign",
        json: json_of(&report),
        check_failures: checks,
    })
}

/// The systematic fault-space sweep with its self-checking exit
/// semantics: a clean sweep must BE clean, a seeded bug must be caught,
/// and nothing may go unverified.
fn run_sweep(ctx: &ExperimentCtx) -> Result<ExperimentReport, PlatformError> {
    let o = &ctx.opts;
    let mut config = SweepConfig::smoke(ctx.seed);
    if o.inject_crc_bug {
        config.ssd.ftl.verify_batch_crc = false;
    }
    let sweeper = Sweeper::new(config);
    let report = sweeper.run()?;
    let mut text = String::new();
    let mut checks = Vec::new();
    let _ = writeln!(
        text,
        "== Sweep: {} site spans, {} boundary trials ==",
        report.sites_censused, report.trials
    );
    if report.violations.is_empty() {
        let _ = writeln!(
            text,
            "no invariant violations (recovery is torn-write safe)"
        );
    }
    for v in &report.violations {
        let _ = writeln!(
            text,
            "violation: {} at {}#{} ({}) t={}us — {}",
            v.kind.name(),
            v.site.name(),
            v.occurrence,
            v.phase.name(),
            v.cut_us,
            v.detail
        );
    }
    if report.failures.total_failed() > 0 {
        let _ = writeln!(
            text,
            "trials without a verdict: {} (ledger {:?})",
            report.failures.total_failed(),
            report.failures
        );
        checks.push("sweep smoke failed: some boundary trials produced no verdict".into());
    }
    if o.inject_crc_bug {
        let caught = report
            .violations
            .iter()
            .any(|v| v.kind == ViolationKind::TornBatchHalfApplied);
        if !caught {
            checks.push("sweep smoke failed: seeded CRC bug was not caught".into());
        }
    } else if !report.violations.is_empty() {
        checks.push("sweep smoke failed: baseline firmware must sweep clean".into());
    }
    if o.minimize {
        if let Some(kind) = report.violations.first().map(|v| v.kind) {
            match sweeper.minimize(kind)? {
                Some(repro) => {
                    let _ = writeln!(text, "minimal repro ({} ops):", repro.ops.len());
                    for op in &repro.ops {
                        let _ = writeln!(text, "  {op:?}");
                    }
                    let v = &repro.violation;
                    let _ = writeln!(
                        text,
                        "  fault: {} occurrence {} ({}) at t={}us -> {}",
                        v.site.name(),
                        v.occurrence,
                        v.phase.name(),
                        v.cut_us,
                        v.kind.name()
                    );
                    if o.inject_crc_bug && repro.ops.len() > 3 {
                        checks.push("sweep smoke failed: repro did not shrink below 4 ops".into());
                    }
                }
                None => {
                    checks.push("minimizer could not reproduce the violation".into());
                }
            }
        } else {
            let _ = writeln!(text, "nothing to minimize: sweep found no violations");
        }
    }
    let json = serde_json::json!({
        "sites_censused": report.sites_censused,
        "trials": report.trials,
        "failed_trials": report.failures.total_failed(),
        "violations": report.violations.iter().map(|v| serde_json::json!({
            "kind": v.kind.name(),
            "site": v.site.name(),
            "occurrence": v.occurrence,
            "phase": v.phase.name(),
            "cut_us": v.cut_us,
            "detail": v.detail,
        })).collect::<Vec<_>>(),
    });
    Ok(ExperimentReport {
        text,
        json_key: "sweep",
        json,
        check_failures: checks,
    })
}

/// Every registered experiment, in `--exp all` presentation order
/// (operational modes last; they are excluded from `all`).
static REGISTRY: &[Experiment] = &[
    Experiment {
        name: "fig4",
        describe: "Fig 4 — PSU discharge curves",
        in_all: true,
        run: run_fig4,
    },
    Experiment {
        name: "interval",
        describe: "§IV-A — failure interval after completion (cache enabled)",
        in_all: true,
        run: run_interval,
    },
    Experiment {
        name: "interval-nocache",
        describe: "§IV-A — failure interval with the write cache disabled",
        in_all: true,
        run: run_interval_nocache,
    },
    Experiment {
        name: "fig5",
        describe: "Fig 5 — request type (read %) sweep",
        in_all: true,
        run: run_fig5,
    },
    Experiment {
        name: "fig6",
        describe: "Fig 6 — working-set size sweep (paper: flat)",
        in_all: true,
        run: run_fig6,
    },
    Experiment {
        name: "pattern",
        describe: "§IV-D — sequential vs random access",
        in_all: true,
        run: run_pattern,
    },
    Experiment {
        name: "fig7",
        describe: "Fig 7 — request size sweep",
        in_all: true,
        run: run_fig7,
    },
    Experiment {
        name: "fig8",
        describe: "Fig 8 — requested vs responded IOPS saturation",
        in_all: true,
        run: run_fig8,
    },
    Experiment {
        name: "fig9",
        describe: "Fig 9 — access sequences (RAR/RAW/WAR/WAW)",
        in_all: true,
        run: run_fig9,
    },
    Experiment {
        name: "table1",
        describe: "Table I — the three vendor drives",
        in_all: true,
        run: run_table1,
    },
    Experiment {
        name: "ablation-injector",
        describe: "ablation — discharge ramp vs ideal transistor cut",
        in_all: true,
        run: run_ablation_injector,
    },
    Experiment {
        name: "ablation-cache",
        describe: "ablation — cache on/off/supercap",
        in_all: true,
        run: run_ablation_cache,
    },
    Experiment {
        name: "brownout",
        describe: "extension — transient sag (brownout) depth sweep",
        in_all: true,
        run: run_brownout,
    },
    Experiment {
        name: "wear",
        describe: "extension — device age (P/E cycles) vs fault damage",
        in_all: true,
        run: run_wear,
    },
    Experiment {
        name: "flush",
        describe: "extension — FLUSH barrier frequency vs residual loss",
        in_all: true,
        run: run_flush,
    },
    Experiment {
        name: "recovery",
        describe: "extension — journal replay vs full-scan recovery",
        in_all: true,
        run: run_recovery,
    },
    Experiment {
        name: "repeated",
        describe: "extension — consecutive outages on one device",
        in_all: true,
        run: run_repeated,
    },
    Experiment {
        name: "recovery-storm",
        describe: "Extension J — power cuts during recovery itself (self-checking)",
        in_all: true,
        run: run_storm,
    },
    Experiment {
        name: "fleet",
        describe: "Extension L — correlated outages vs erasure-coded fleets (self-checking)",
        in_all: true,
        run: run_fleet,
    },
    Experiment {
        name: "kv",
        describe: "Extension M — WAL'd KV store above the device: masking vs silent poison (self-checking)",
        in_all: true,
        run: run_kv,
    },
    Experiment {
        name: "plan",
        describe: "Extension P — adaptive planner: CI stopping at ≥10x fewer trials (self-checking)",
        in_all: true,
        run: run_plan,
    },
    Experiment {
        name: "campaign",
        describe: "one raw campaign: watchdog, retries, checkpoint/resume, --engine/--threads/--warmup",
        in_all: false,
        run: run_campaign,
    },
    Experiment {
        name: "sweep",
        describe: "fault-space sweep over every named fault site; --inject-crc-bug, --minimize",
        in_all: false,
        run: run_sweep,
    },
];

/// All registered experiments in presentation order.
pub fn registry() -> &'static [Experiment] {
    REGISTRY
}

/// Looks an experiment up by its CLI name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    registry().iter().find(|e| e.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_ctx() -> ExperimentCtx {
        ExperimentCtx {
            scale: ExperimentScale {
                faults_per_point: 3,
                requests_per_trial: 15,
                threads: 2,
            },
            seed: 20180429,
            opts: ExperimentOpts::default(),
        }
    }

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        assert!(names.len() >= 20, "all experiments registered: {names:?}");
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate experiment names");
        for e in registry() {
            assert!(find(e.name).is_some());
            assert!(!e.describe.is_empty());
        }
        assert!(find("no-such-experiment").is_none());
    }

    #[test]
    fn operational_modes_are_excluded_from_all() {
        for name in ["campaign", "sweep"] {
            let e = find(name).expect("registered");
            assert!(!e.in_all, "{name} must not run under --exp all");
        }
        assert!(find("fig8").expect("registered").in_all);
    }

    #[test]
    fn campaign_experiment_runs_with_engine_and_warmup() {
        let mut ctx = tiny_ctx();
        ctx.opts.plan = Some(PlanSpec::fixed(3));
        ctx.opts.threads = Some(2);
        ctx.opts.engine = EngineArg::Stealing;
        ctx.opts.warmup = Some(8);
        let report = (find("campaign").expect("registered").run)(&ctx).expect("campaign runs");
        assert_eq!(report.json_key, "campaign");
        assert!(report.text.contains("engine stealing with 2 thread(s)"));
        assert!(report.text.contains("warm-up 8 request(s)"));
        assert!(
            report.check_failures.is_empty(),
            "{:?}",
            report.check_failures
        );
        let faults = report
            .json
            .as_object()
            .and_then(|o| o.get("faults"))
            .and_then(|v| v.as_u64());
        assert_eq!(faults, Some(3));
    }

    #[test]
    fn campaign_engines_agree_through_the_registry() {
        let campaign = find("campaign").expect("registered").run;
        let mut serial_ctx = tiny_ctx();
        serial_ctx.opts.plan = Some(PlanSpec::fixed(4));
        serial_ctx.opts.engine = EngineArg::Serial;
        let mut stealing_ctx = serial_ctx.clone();
        stealing_ctx.opts.engine = EngineArg::Stealing;
        stealing_ctx.opts.threads = Some(3);
        let a = campaign(&serial_ctx).expect("serial");
        let b = campaign(&stealing_ctx).expect("stealing");
        assert_eq!(a.json, b.json, "engine choice must not change the report");
    }

    #[test]
    fn resume_without_checkpoint_is_invalid_config() {
        let mut ctx = tiny_ctx();
        ctx.opts.resume = true;
        match (find("campaign").expect("registered").run)(&ctx) {
            Err(PlatformError::InvalidConfig(why)) => {
                assert!(why.contains("--checkpoint"), "{why}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn serial_engine_checkpoints_adaptive_plans_at_any_thread_count() {
        let path = std::env::temp_dir().join(format!(
            "pfault-registry-serial-{}.ckpt",
            std::process::id()
        ));
        // Every engine checkpoints: `serial` pins one worker, `stealing`
        // and `auto` run on both.
        for engine in [EngineArg::Serial, EngineArg::Stealing, EngineArg::Auto] {
            let _ = std::fs::remove_file(&path);
            let mut ctx = tiny_ctx();
            ctx.opts.plan = Some(PlanSpec::Confidence {
                half_width: 0.45,
                confidence: 0.9,
                exact: false,
                min_trials: 9,
                max_trials: 24,
                round: 3,
            });
            ctx.opts.engine = engine;
            ctx.opts.threads = Some(2);
            ctx.opts.checkpoint = Some(path.clone());
            ctx.opts.checkpoint_every = 2;
            (find("campaign").expect("registered").run)(&ctx)
                .expect("checkpointed adaptive campaign runs");
            assert!(
                path.exists(),
                "--engine {} --threads 2 must write its checkpoint",
                engine.name()
            );
        }
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn workers_are_one_under_serial_else_threads_or_the_default() {
        for (engine, threads, want) in [
            (EngineArg::Serial, None, 1),
            (EngineArg::Serial, Some(3), 1),
            (EngineArg::Stealing, None, 4),
            (EngineArg::Stealing, Some(1), 1),
            (EngineArg::Stealing, Some(3), 3),
            (EngineArg::Auto, None, 4),
            (EngineArg::Auto, Some(1), 1),
            (EngineArg::Auto, Some(3), 3),
        ] {
            let mut ctx = tiny_ctx();
            ctx.scale.threads = 4;
            ctx.opts.engine = engine;
            ctx.opts.threads = threads;
            let why = format!("--engine {} --threads {threads:?}", engine.name());
            assert_eq!(ctx.opts.workers(4), want, "{why}");
            assert_eq!(ctx.sweep_scale().threads, want, "{why}");
            assert_eq!(ctx.opts.workers(1), threads.map_or(1, |_| want), "{why}");
        }
        for engine in [EngineArg::Auto, EngineArg::Serial, EngineArg::Stealing] {
            assert_eq!(EngineArg::parse(engine.name()), Some(engine));
        }
        assert_eq!(EngineArg::parse("striped"), None);
        // A campaign on one worker and on three gives the same report,
        // for fixed and adaptive plans alike.
        let campaign = find("campaign").expect("registered").run;
        for plan in [
            PlanSpec::fixed(4),
            PlanSpec::Confidence {
                half_width: 0.45,
                confidence: 0.9,
                exact: false,
                min_trials: 9,
                max_trials: 24,
                round: 3,
            },
        ] {
            let mut serial = tiny_ctx();
            serial.opts.plan = Some(plan);
            serial.opts.threads = Some(1);
            let mut threaded = serial.clone();
            threaded.opts.threads = Some(3);
            let a = campaign(&serial).expect("auto on one thread");
            let b = campaign(&threaded).expect("auto on three threads");
            assert_eq!(a.json, b.json, "{}", plan.render());
        }
    }
}
