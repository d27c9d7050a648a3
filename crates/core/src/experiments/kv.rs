//! Extension M — application-level consequences of device faults.
//!
//! The paper's oracle stops at request-level checksums. This experiment
//! stacks `pfault-kv`'s WAL'd store on the device, pulls the plug
//! mid-workload, and asks the question users actually face: does a torn
//! FTL journal *surface* as an application error, get *masked* by WAL
//! replay and checkpoint rollback, or *silently poison* the recovered
//! state — acknowledged data served wrong with no error anywhere?
//!
//! The sweep crosses the three vendor presets with the write cache
//! on/off and an early/late cut phase, cycling the production-shaped
//! workloads (WAL burst, checkpoint storm, multi-tenant mix). Every
//! point runs *paired* firmware arms at identical seeds: the
//! CRC-verifying firmware discards a torn journal batch whole, the
//! half-applying firmware (`verify_batch_crc = false`) applies the torn
//! prefix. The store's eager-seal checkpoint makes the difference
//! observable end to end — a half-applied checkpoint extent can anchor
//! recovery on a new seal over stale value sectors.
//!
//! Every trial is a pure function of `(config, seed)` with integer-only
//! tallies, so the report is byte-identical at every worker count —
//! asserted at run time by re-running the first point on a different
//! worker count and comparing it with the report's first row.

use std::fmt::Write as _;

use serde::{Deserialize, Serialize};

use pfault_kv::{run_kv_trial, KvTrialConfig, KvTrialOutcome, KvWorkloadKind};
use pfault_obs::ProbeEvent;
use pfault_sim::checksum::mix64;
use pfault_ssd::VendorPreset;

use crate::experiments::ExperimentScale;
use crate::report::Table;

/// Integer tally of one firmware arm across a point's trials.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvArmTally {
    /// Oracle-counted surfaced divergences (errors the app saw).
    pub surfaced: u64,
    /// Trials fully masked by WAL replay / checkpoint rollback.
    pub masked: u64,
    /// Oracle-counted silent-poison divergences (wrong data, no error).
    pub silent_poison: u64,
    /// Operations acknowledged durable before the cut.
    pub acked_ops: u64,
    /// WAL records replayed during recovery.
    pub replayed: u64,
    /// Torn journal pages the device recorded at the cut.
    pub torn_batches: u64,
    /// Host-side mount retries spent during recovery.
    pub mount_retries: u64,
    /// Trials that came back read-only.
    pub read_only: u64,
    /// Trials whose store never came back.
    pub failed: u64,
}

impl KvArmTally {
    fn absorb(&mut self, o: &KvTrialOutcome) {
        self.surfaced += o.surfaced;
        self.masked += o.masked;
        self.silent_poison += o.silent_poison;
        self.acked_ops += o.acked_ops;
        self.replayed += o.replay.replayed;
        self.torn_batches += o.journal_torn.len() as u64;
        self.mount_retries += o.mount_retries;
        self.read_only += u64::from(o.read_only);
        self.failed += u64::from(o.failed);
    }

    fn merge(&mut self, other: &KvArmTally) {
        self.surfaced += other.surfaced;
        self.masked += other.masked;
        self.silent_poison += other.silent_poison;
        self.acked_ops += other.acked_ops;
        self.replayed += other.replayed;
        self.torn_batches += other.torn_batches;
        self.mount_retries += other.mount_retries;
        self.read_only += other.read_only;
        self.failed += other.failed;
    }
}

/// Everything accumulated for one swept point: both firmware arms plus
/// the obs-pipeline counters derived from the half-applying arm's
/// application probe stream (kept separate so the two can cross-check).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KvPointAgg {
    /// Paired trials absorbed.
    pub trials: u64,
    /// The half-applying firmware (`verify_batch_crc = false`).
    pub loose: KvArmTally,
    /// The CRC-verifying firmware (discard-whole).
    pub strict: KvArmTally,
    /// `app.outcome` probe events seen (one per trial).
    pub obs_outcomes: u64,
    /// Surfaced count summed from `AppOutcome` probe payloads.
    pub obs_surfaced: u64,
    /// Masked count summed from `AppOutcome` probe payloads.
    pub obs_masked: u64,
    /// Silent-poison count summed from `AppOutcome` probe payloads.
    pub obs_poison: u64,
}

impl KvPointAgg {
    fn merge(&mut self, other: &KvPointAgg) {
        self.trials += other.trials;
        self.loose.merge(&other.loose);
        self.strict.merge(&other.strict);
        self.obs_outcomes += other.obs_outcomes;
        self.obs_surfaced += other.obs_surfaced;
        self.obs_masked += other.obs_masked;
        self.obs_poison += other.obs_poison;
    }
}

/// One swept point of the KV experiment.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KvRow {
    /// Vendor preset ("A", "B", "C").
    pub vendor: String,
    /// Write cache enabled.
    pub cache: bool,
    /// Cut phase in ‰ of the op stream.
    pub phase: u64,
    /// Workload label ("wal-burst", "ckpt-storm", "multi-tenant").
    pub workload: String,
    /// Paired trials merged into this row.
    pub trials: u64,
    /// Half-applying firmware tally.
    pub loose: KvArmTally,
    /// CRC-verifying firmware tally.
    pub strict: KvArmTally,
}

/// Full Extension M report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct KvReport {
    /// One row per (vendor, cache, phase) point.
    pub rows: Vec<KvRow>,
    /// Application-layer failure tallies in the campaign-wide
    /// [`crate::analyzer::FailureCounts`] shape (checkpoint v5 fields),
    /// summed over both firmware arms.
    pub counts: crate::analyzer::FailureCounts,
}

impl KvReport {
    /// Sweep-wide total of `f` over the half-applying arm.
    pub fn loose_total(&self, f: fn(&KvArmTally) -> u64) -> u64 {
        self.rows.iter().map(|r| f(&r.loose)).sum()
    }

    /// Sweep-wide total of `f` over the CRC-verifying arm.
    pub fn strict_total(&self, f: fn(&KvArmTally) -> u64) -> u64 {
        self.rows.iter().map(|r| f(&r.strict)).sum()
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "vendor",
            "cache",
            "phase",
            "workload",
            "acked",
            "torn",
            "surf/mask/poison (crc off)",
            "surf/mask/poison (crc on)",
        ]);
        for r in &self.rows {
            t.push_row([
                r.vendor.clone(),
                if r.cache { "on" } else { "off" }.to_string(),
                format!("{}%.", r.phase),
                r.workload.clone(),
                r.loose.acked_ops.to_string(),
                format!("{}+{}", r.loose.torn_batches, r.strict.torn_batches),
                format!(
                    "{}/{}/{}",
                    r.loose.surfaced, r.loose.masked, r.loose.silent_poison
                ),
                format!(
                    "{}/{}/{}",
                    r.strict.surfaced, r.strict.masked, r.strict.silent_poison
                ),
            ]);
        }
        t
    }
}

impl core::fmt::Display for KvReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

fn vendor_label(preset: VendorPreset) -> &'static str {
    match preset {
        VendorPreset::SsdA => "A",
        VendorPreset::SsdB => "B",
        VendorPreset::SsdC => "C",
    }
}

/// One paired trial: both firmware arms at the same seed, the
/// half-applying arm's probe stream folded through the obs
/// [`Metrics`](pfault_obs::Metrics) pipeline.
fn run_trial(loose: &KvTrialConfig, strict: &KvTrialConfig, seed: u64) -> KvPointAgg {
    let lo = run_kv_trial(loose, seed);
    let st = run_kv_trial(strict, seed);
    let metrics = &lo.metrics;
    let mut agg = KvPointAgg {
        trials: 1,
        obs_outcomes: metrics.counter("app.outcome"),
        ..KvPointAgg::default()
    };
    for r in &lo.probes {
        if let ProbeEvent::AppOutcome {
            surfaced,
            masked,
            silent_poison,
        } = r.event
        {
            agg.obs_surfaced += surfaced;
            agg.obs_masked += masked;
            agg.obs_poison += silent_poison;
        }
    }
    agg.loose.absorb(&lo);
    agg.strict.absorb(&st);
    agg
}

/// Reduces `trials` paired trials of one point on `threads` workers.
/// Results are absorbed in canonical trial order, so the aggregate is
/// byte-identical at every worker count.
pub fn run_point(
    loose: &KvTrialConfig,
    strict: &KvTrialConfig,
    point_seed: u64,
    trials: u64,
    threads: usize,
) -> KvPointAgg {
    let (acc, _stats) = crate::scheduler::run_work_stealing(
        trials,
        threads,
        crate::scheduler::DEFAULT_CHUNK,
        |i| run_trial(loose, strict, mix64(point_seed, i)),
        KvPointAgg::default(),
        |acc: &mut KvPointAgg, _i, t: KvPointAgg| acc.merge(&t),
    );
    acc
}

/// The swept grid: vendor × cache × cut phase, workloads cycled across
/// points. The early phase cuts while the first checkpoint generations
/// are still settling (unwritten region sectors surface as detectable
/// corruption); the late phase cuts deep into steady-state compaction
/// (stale-but-clean region sectors are the silent-poison window). Both
/// phases sit past the first compaction, because a tear can only
/// poison once a previous generation's sectors are present to go
/// stale.
const PHASES: [u64; 2] = [250, 850];

/// One swept point: its coordinates, trial-seed root and trial count.
struct KvPoint {
    preset: VendorPreset,
    cache: bool,
    phase: u64,
    kind: KvWorkloadKind,
    seed: u64,
    trials: u64,
}

impl KvPoint {
    /// Reduces the point's paired trials on `threads` workers.
    fn run(&self, threads: usize) -> KvPointAgg {
        let arm = |verify| {
            KvTrialConfig::standard(self.preset, self.cache, verify, self.kind, self.phase)
        };
        run_point(&arm(false), &arm(true), self.seed, self.trials, threads)
    }
}

/// Every swept point in report order, sized by `scale` and seeded from
/// `seed`.
fn grid(scale: ExperimentScale, seed: u64) -> Vec<KvPoint> {
    let trials = (scale.faults_per_point as u64 / 5).max(6);
    let kinds = KvWorkloadKind::all();
    let mut points = Vec::new();
    for &preset in &[VendorPreset::SsdA, VendorPreset::SsdB, VendorPreset::SsdC] {
        for &cache in &[true, false] {
            for &phase in &PHASES {
                let point = points.len() as u64;
                points.push(KvPoint {
                    preset,
                    cache,
                    phase,
                    kind: kinds[point as usize % kinds.len()],
                    seed: mix64(seed, 0x4B56_4150 ^ point),
                    trials,
                });
            }
        }
    }
    points
}

/// Runs the Extension M sweep at the given scale, on `scale.threads`
/// workers.
pub fn run(scale: ExperimentScale, seed: u64) -> KvReport {
    let mut rows = Vec::new();
    let mut counts = crate::analyzer::FailureCounts::default();
    for p in grid(scale, seed) {
        let agg = p.run(scale.threads);
        counts.app_surfaced += agg.loose.surfaced + agg.strict.surfaced;
        counts.app_masked += agg.loose.masked + agg.strict.masked;
        counts.app_silent_poison += agg.loose.silent_poison + agg.strict.silent_poison;
        counts.read_only_devices += agg.loose.read_only + agg.strict.read_only;
        rows.push(KvRow {
            vendor: vendor_label(p.preset).to_string(),
            cache: p.cache,
            phase: p.phase,
            workload: p.kind.label().to_string(),
            trials: agg.trials,
            loose: agg.loose,
            strict: agg.strict,
        });
    }
    KvReport { rows, counts }
}

/// Self-checks for an explicit `--exp kv` run of `run(scale, seed)`.
/// Returns the list of violated expectations (empty = the run vouches
/// for itself).
pub fn check(report: &KvReport, scale: ExperimentScale, seed: u64) -> Vec<String> {
    let mut checks = Vec::new();

    // Every divergence class must actually occur somewhere in the sweep:
    // an oracle that never fires is not evidence of safety.
    if report.loose_total(|t| t.surfaced) + report.strict_total(|t| t.surfaced) == 0 {
        checks.push("kv smoke failed: no divergence ever surfaced as an app error".into());
    }
    if report.loose_total(|t| t.masked) + report.strict_total(|t| t.masked) == 0 {
        checks.push("kv smoke failed: no outage was ever masked by WAL replay".into());
    }
    if report.loose_total(|t| t.silent_poison) == 0 {
        checks.push("kv smoke failed: half-apply firmware never silently poisoned".into());
    }

    // The headline inequality, at equal seeds: half-apply must poison
    // strictly more than discard-whole across the sweep.
    let loose_poison = report.loose_total(|t| t.silent_poison);
    let strict_poison = report.strict_total(|t| t.silent_poison);
    if loose_poison <= strict_poison {
        checks.push(format!(
            "kv smoke failed: half-apply poisoned {loose_poison} times, \
             not strictly more than discard-whole's {strict_poison}"
        ));
    }

    // Torn journal pages are the mechanism; a sweep that never tore one
    // proves nothing about either firmware.
    if report.loose_total(|t| t.torn_batches) == 0 {
        checks.push("kv smoke failed: no journal batch was ever torn".into());
    }

    // Worker-count independence, re-proven against the report itself:
    // the first point re-run on another worker count must reproduce row 0.
    let workers = if scale.threads == 1 { 2 } else { 1 };
    let rerun = grid(scale, seed)[0].run(workers);
    let same =
        |r: &KvRow| (r.trials, r.loose, r.strict) == (rerun.trials, rerun.loose, rerun.strict);
    if !report.rows.first().is_some_and(same) {
        checks.push(format!(
            "kv smoke failed: point 0 re-run on {workers} worker(s) differs from the report's row 0"
        ));
    }
    // And the obs pipeline must agree with the oracle tallies: exactly
    // one `app.outcome` probe per trial, payloads summing to the counts.
    if rerun.obs_outcomes != rerun.trials
        || rerun.obs_surfaced != rerun.loose.surfaced
        || rerun.obs_masked != rerun.loose.masked
        || rerun.obs_poison != rerun.loose.silent_poison
    {
        checks.push("kv smoke failed: probe-derived counters diverge from oracle tallies".into());
    }

    checks
}

/// Renders the human-readable section.
pub fn render(report: &KvReport) -> String {
    let mut text = String::new();
    let _ = writeln!(
        text,
        "== Extension M: application-level masking vs silent poison =="
    );
    let _ = writeln!(text, "{}", report.table().render());
    let _ = writeln!(
        text,
        "app-layer outcomes: {} surfaced, {} masked, {} silently poisoned \
         (half-apply {} vs discard-whole {})",
        report.counts.app_surfaced,
        report.counts.app_masked,
        report.counts.app_silent_poison,
        report.loose_total(|t| t.silent_poison),
        report.strict_total(|t| t.silent_poison),
    );
    let _ = writeln!(
        text,
        "(paired arms share seeds; a torn checkpoint extent half-applied can anchor\n\
         recovery on a fresh seal over stale value sectors — discarding the torn\n\
         batch whole reverts the seal and WAL replay repairs the difference)\n"
    );
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExperimentScale {
        ExperimentScale {
            faults_per_point: 30,
            requests_per_trial: 10,
            threads: 2,
        }
    }

    fn on(threads: usize) -> ExperimentScale {
        ExperimentScale { threads, ..tiny() }
    }

    #[test]
    fn same_seed_kv_reports_are_byte_identical_across_engines() {
        // One, two and three workers — and a plain rerun — must all
        // produce byte-identical reports.
        let a = run(on(1), 7);
        let json = |r: &KvReport| serde_json::to_string(r).expect("serializes");
        assert_eq!(json(&a), json(&run(on(2), 7)), "1 vs 2 workers");
        assert_eq!(json(&a), json(&run(on(3), 7)), "1 vs 3 workers");
        assert_eq!(json(&a), json(&run(on(1), 7)), "rerun");
    }

    #[test]
    fn kv_sweep_finds_every_class_and_self_checks_pass() {
        let report = run(tiny(), 7);
        let failures = check(&report, tiny(), 7);
        assert!(
            failures.is_empty(),
            "kv self-checks must pass: {failures:?}"
        );
        // The v5 checkpoint fields carry real application data.
        assert!(report.counts.app_masked > 0);
        assert!(report.counts.app_silent_poison > 0);
    }

    #[test]
    fn self_check_compares_the_rerun_with_the_reported_row() {
        for threads in [1, 2] {
            let report = run(on(threads), 7);
            assert!(check(&report, on(threads), 7).is_empty());
            let mut edited = report.clone();
            edited.rows[0].strict.masked += 1;
            let failures = check(&edited, on(threads), 7);
            assert!(
                failures.iter().any(|f| f.contains("row 0")),
                "an edited row 0 must fail the check on {threads} worker(s): {failures:?}"
            );
        }
    }

    #[test]
    fn report_renders_with_totals() {
        let report = run(tiny(), 7);
        let text = render(&report);
        assert!(text.contains("Extension M"));
        assert!(text.contains("silently poisoned"));
    }
}
