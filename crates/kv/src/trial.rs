//! One end-to-end KV fault-injection trial.
//!
//! Builds a store on a fresh device, drives a production-shaped
//! operation stream through it with the oracle shadowing every issue
//! and acknowledgment, pulls the plug mid-stream (the cut is armed on
//! the first checkpoint-bearing mutation at or after a phase-determined
//! operation index, jittered into that barrier's drain window so it
//! lands *inside* commit and checkpoint flush activity), recovers with
//! bounded retry, and lets the oracle classify the result as surfaced /
//! masked / silent poison.

use pfault_flash::FlashGeometry;
use pfault_obs::{Metrics, ProbeRecord};
use pfault_power::FaultInjector;
use pfault_sim::{DetRng, SimDuration};
use pfault_ssd::{CacheConfig, Ssd, SsdConfig, VendorPreset};

use crate::config::KvConfig;
use crate::oracle::KvOracle;
use crate::store::{KvReplayStats, KvStore};
use crate::workload::{AppOp, KvOpStream, KvWorkloadKind};

/// Configuration of one trial.
#[derive(Debug, Clone, Copy)]
pub struct KvTrialConfig {
    /// The device under the store.
    pub ssd: SsdConfig,
    /// Store tunables (layout, commit/compaction cadence, retry budget).
    pub kv: KvConfig,
    /// Which production-shaped stream drives the store.
    pub workload: KvWorkloadKind,
    /// Operations to issue (mutations and lookups combined).
    pub ops: u64,
    /// Whether to pull the plug mid-stream.
    pub inject_fault: bool,
    /// Where in the stream (‰ of `ops`) the cut is armed.
    pub cut_phase_permille: u64,
}

impl KvTrialConfig {
    /// A trial-sized device derived from a vendor preset: the vendor's
    /// cell/ECC/cache/supercap identity on a small geometry, with the
    /// paper's observed transient mount failures enabled.
    pub fn device_for(
        preset: VendorPreset,
        cache_enabled: bool,
        verify_batch_crc: bool,
    ) -> SsdConfig {
        let vendor = preset.config();
        let geometry = FlashGeometry::new(1 << 10, 64);
        let mut config = SsdConfig::consumer(geometry, vendor.cell_kind, vendor.ecc);
        config.supercap = vendor.supercap;
        if !cache_enabled {
            config = config.with_cache(CacheConfig::disabled());
        }
        config = config.with_mount_failures(0.3, 3);
        config.ftl.verify_batch_crc = verify_batch_crc;
        config
    }

    /// The standard trial: `preset`-derived device, `kind`-tuned small
    /// store, 220 ops, cut armed at `cut_phase_permille`.
    pub fn standard(
        preset: VendorPreset,
        cache_enabled: bool,
        verify_batch_crc: bool,
        kind: KvWorkloadKind,
        cut_phase_permille: u64,
    ) -> Self {
        KvTrialConfig {
            ssd: Self::device_for(preset, cache_enabled, verify_batch_crc),
            kv: kind.tune(KvConfig::small()),
            workload: kind,
            ops: 220,
            inject_fault: true,
            cut_phase_permille,
        }
    }
}

/// Everything one trial produced.
#[derive(Debug, Clone, Default)]
pub struct KvTrialOutcome {
    /// Oracle count of app-visible fault consequences.
    pub surfaced: u64,
    /// 1 if the injected fault was fully absorbed.
    pub masked: u64,
    /// Oracle count of acknowledged-data divergences with no error.
    pub silent_poison: u64,
    /// Operations acknowledged durable before the cut.
    pub acked_ops: u64,
    /// WAL records appended.
    pub wal_appends: u64,
    /// Group commits completed.
    pub commits: u64,
    /// Checkpoints sealed.
    pub checkpoints: u64,
    /// WAL replay outcome of the post-fault recovery.
    pub replay: KvReplayStats,
    /// Host-side power-cycle retries during recovery.
    pub mount_retries: u64,
    /// Store ended read-only.
    pub read_only: bool,
    /// Store ended unrecoverable.
    pub failed: bool,
    /// Torn FTL journal batches the device discarded whole (CRC on).
    pub device_batches_discarded: u64,
    /// `(kept, full)` sector coverage of every torn journal page the
    /// device recorded at the cut — the raw material of the half-apply
    /// bug (a checkpoint-extent tear has `full` ≥ the region size).
    pub journal_torn: Vec<(u64, u64)>,
    /// Application-layer probe records emitted during the trial.
    pub probes: Vec<ProbeRecord>,
    /// The metrics folded from [`KvTrialOutcome::probes`] as they fired.
    pub metrics: Metrics,
}

/// Runs one trial to completion. Deterministic in `(cfg, seed)`.
pub fn run_kv_trial(cfg: &KvTrialConfig, seed: u64) -> KvTrialOutcome {
    let rng = DetRng::new(seed);
    let ssd = Ssd::new(cfg.ssd, rng.fork("device"));
    let mut store = KvStore::new(ssd, cfg.kv);
    store.device_mut().enable_probes();
    let mut oracle = KvOracle::new(cfg.kv.key_space);
    let mut stream = KvOpStream::new(cfg.workload, cfg.kv.key_space, rng.fork("workload"));
    let mut cut_rng = rng.fork("cut");
    // The fast transistor cutter, not the ATX rig: the loaded ATX rail
    // gives oblivious firmware a >100 ms drain window between host loss
    // and flash death, and a trial-sized store's entire backlog lands in
    // that window — every outage would be absorbed. The microsecond-fall
    // cutter freezes the device mid-flight, which is the exposure the
    // application oracle is built to classify.
    let injector = FaultInjector::transistor();

    let cut_at = if cfg.ops == 0 {
        0
    } else {
        (cfg.ops * cfg.cut_phase_permille / 1000).min(cfg.ops - 1)
    };
    let mut timeline = None;
    // Trial-side mirrors of the store's group-commit and compaction
    // counters, used to spot the mutation whose flush barrier will also
    // run a checkpoint.
    let group = cfg.kv.group_commit_ops.max(1);
    let mut group_fill = 0u64;
    let mut committed_since_ckpt = 0u64;

    for i in 0..cfg.ops {
        if store.crashed() {
            break;
        }
        let (arrival, op) = stream.next();
        store.advance_to(arrival);
        if store.crashed() {
            break;
        }
        let is_mutation = matches!(op, AppOp::Op(_));
        let commits_now = is_mutation && group_fill + 1 >= group;
        let checkpoints_now =
            commits_now && committed_since_ckpt + group >= cfg.kv.checkpoint_every_ops;
        if cfg.inject_fault && timeline.is_none() && i >= cut_at && checkpoints_now {
            // Arm the cut on the first checkpoint-bearing mutation at or
            // after the phase point: this op's flush barrier drains the
            // pending WAL batch and then the whole checkpoint region —
            // roughly 12 ms of device time on the trial geometry. A
            // jitter spanning that window lands the commanded instant
            // anywhere inside the drain and its journal-commit programs
            // (the firmware's exposed phases, including the eager-seal
            // extent's own commit), instead of wasting most cuts on the
            // idle stretches between barriers.
            let delta = SimDuration::from_micros(6_000 + cut_rng.below(4_000));
            let tl = injector.timeline(store.now() + delta);
            store.arm_cut(tl);
            timeline = Some(tl);
        }
        match op {
            AppOp::Get { key } => {
                let _ = store.get(key);
            }
            AppOp::Op(op) => {
                oracle.stage(op);
                match store.apply_op(op) {
                    Ok(acked) => oracle.ack(acked),
                    Err(_) => break,
                }
            }
        }
        if is_mutation {
            group_fill = (group_fill + 1) % group;
            if commits_now {
                committed_since_ckpt += group;
                if committed_since_ckpt >= cfg.kv.checkpoint_every_ops {
                    committed_since_ckpt = 0;
                }
            }
        }
    }

    let mut outcome = KvTrialOutcome::default();

    if cfg.inject_fault {
        // If the stream drained before the armed instant, force the
        // outage now: every faulted trial must actually fault.
        let tl = timeline.unwrap_or_else(|| {
            let tl = injector.timeline(store.now() + SimDuration::from_micros(1));
            store.arm_cut(tl);
            tl
        });
        if !store.crashed() {
            store.advance_to(tl.discharged + SimDuration::from_micros(1));
        }
        oracle.crash();
        match store.recover(tl.discharged + SimDuration::from_secs(1)) {
            Ok(report) => {
                outcome.replay = report.replay;
                outcome.mount_retries = u64::from(report.retries);
                outcome.read_only = report.read_only;
                outcome.device_batches_discarded = report.device.batches_discarded;
            }
            Err(_) => outcome.failed = true,
        }
        let verdict = oracle.judge(&store, true);
        outcome.surfaced = verdict.surfaced;
        outcome.masked = verdict.masked;
        outcome.silent_poison = verdict.silent_poison;
        store.probe_outcome(verdict.surfaced, verdict.masked, verdict.silent_poison);
    } else {
        if let Ok(acked) = store.shutdown() {
            oracle.ack(acked);
        }
        oracle.crash();
        let verdict = oracle.judge(&store, false);
        outcome.surfaced = verdict.surfaced;
        outcome.masked = verdict.masked;
        outcome.silent_poison = verdict.silent_poison;
        store.probe_outcome(verdict.surfaced, verdict.masked, verdict.silent_poison);
    }

    let stats = store.stats();
    outcome.acked_ops = oracle.acked_ops;
    outcome.wal_appends = stats.wal_appends;
    outcome.commits = stats.commits;
    outcome.checkpoints = stats.checkpoints;
    outcome.journal_torn = store
        .device_mut()
        .take_probe_records()
        .iter()
        .filter_map(|r| match r.event {
            pfault_obs::ProbeEvent::JournalTorn { kept, full } => Some((kept, full)),
            _ => None,
        })
        .collect();
    outcome.metrics = store.probe_metrics();
    outcome.probes = store.take_probe_records();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_ssd::VendorPreset;

    fn clean_config() -> KvTrialConfig {
        let mut cfg = KvTrialConfig::standard(
            VendorPreset::SsdA,
            true,
            true,
            KvWorkloadKind::MultiTenant,
            500,
        );
        cfg.inject_fault = false;
        cfg.ssd = cfg.ssd.with_mount_failures(0.0, 3);
        cfg
    }

    #[test]
    fn clean_trial_has_zero_divergences() {
        let outcome = run_kv_trial(&clean_config(), 11);
        assert_eq!(outcome.surfaced, 0);
        assert_eq!(outcome.masked, 0);
        assert_eq!(outcome.silent_poison, 0);
        assert!(outcome.acked_ops > 0);
        assert!(outcome.commits > 0);
    }

    #[test]
    fn trials_are_deterministic() {
        let cfg = KvTrialConfig::standard(
            VendorPreset::SsdB,
            true,
            false,
            KvWorkloadKind::CheckpointStorm,
            500,
        );
        let a = run_kv_trial(&cfg, 42);
        let b = run_kv_trial(&cfg, 42);
        assert_eq!(
            (a.surfaced, a.masked, a.silent_poison, a.acked_ops),
            (b.surfaced, b.masked, b.silent_poison, b.acked_ops)
        );
        assert_eq!(a.probes.len(), b.probes.len());
    }

    #[test]
    fn faulted_trials_checkpoint_and_commit() {
        let cfg = KvTrialConfig::standard(
            VendorPreset::SsdA,
            true,
            false,
            KvWorkloadKind::CheckpointStorm,
            850,
        );
        let outcome = run_kv_trial(&cfg, 5);
        assert!(outcome.commits > 0, "cut at 850‰ must land after commits");
        assert!(outcome.checkpoints > 0, "checkpoint storm must checkpoint");
    }

    /// The seeded silent-poison reproduction `make kv-smoke` pins: over
    /// a fixed seed range, the half-applying (`verify_batch_crc=false`)
    /// firmware must poison at least once, and strictly more often than
    /// the discard-whole firmware at the very same seeds.
    #[test]
    fn seeded_silent_poison_reproduces() {
        let mut poisoned = 0u64;
        let mut poisoned_crc = 0u64;
        for kind in [KvWorkloadKind::CheckpointStorm, KvWorkloadKind::WalBurst] {
            for seed in 0..24 {
                for phase in [250, 850] {
                    let loose =
                        KvTrialConfig::standard(VendorPreset::SsdA, true, false, kind, phase);
                    let strict =
                        KvTrialConfig::standard(VendorPreset::SsdA, true, true, kind, phase);
                    poisoned += run_kv_trial(&loose, seed).silent_poison;
                    poisoned_crc += run_kv_trial(&strict, seed).silent_poison;
                }
            }
        }
        assert!(
            poisoned > 0,
            "verify_batch_crc=false must produce silent poison in this seed range"
        );
        assert!(
            poisoned > poisoned_crc,
            "half-apply must poison strictly more than discard-whole \
             (false={poisoned}, true={poisoned_crc})"
        );
    }
}
