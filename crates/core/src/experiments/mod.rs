//! Pre-configured experiments — one per paper table/figure.
//!
//! Each submodule sweeps the parameter its figure varies, runs a
//! [`crate::campaign::Campaign`] per point, and returns a typed report
//! with a [`crate::report::Table`] rendering. The `repro` binary in
//! `pfault-bench` prints these tables; `EXPERIMENTS.md` records them
//! against the paper's numbers.
//!
//! | module | paper result |
//! |--------|--------------|
//! | [`psu`] | Fig 4 — PSU discharge curves |
//! | [`interval`] | §IV-A — failures up to ~700 ms after completion |
//! | [`request_type`] | Fig 5 — read/write mix |
//! | [`wss`] | Fig 6 — working-set size (no effect) |
//! | [`access_pattern`] | §IV-D — sequential ≈ +14 % vs random |
//! | [`request_size`] | Fig 7 — small requests fail more, FWA-dominated |
//! | [`iops`] | Fig 8 — responded-IOPS saturation near 6 900 |
//! | [`sequence`] | Fig 9 — RAR/RAW/WAR/WAW |
//! | [`vendors`] | Table I — the three drives |
//! | [`injector_ablation`] | ours — discharge ramp vs transistor cut |
//! | [`cache_ablation`] | ours + §IV-A — cache on/off/supercap |
//! | [`brownout`] | ours — transient sag depth sweep |
//! | [`wear`] | ours — device age (P/E cycles) vs fault damage |
//! | [`flush`] | ours — FLUSH barrier frequency vs residual loss |
//! | [`recovery`] | ours — journal-replay vs full-scan recovery |
//! | [`repeated`] | ours — consecutive outages on one device |
//! | [`storm`] | ours — cuts during recovery; read-only degradation |
//! | [`fleet`] | ours — correlated outages vs erasure-coded fleets |
//! | [`kv`] | ours — app-level masking vs silent poison above the device |
//! | [`plan`] | ours — adaptive planner: CI stopping at ≥10x fewer trials |

pub mod access_pattern;
pub mod brownout;
pub mod cache_ablation;
pub mod fleet;
pub mod flush;
pub mod injector_ablation;
pub mod interval;
pub mod iops;
pub mod kv;
pub mod plan;
pub mod psu;
pub mod recovery;
pub mod registry;
pub mod repeated;
pub mod request_size;
pub mod request_type;
pub mod sequence;
pub mod storm;
pub mod vendors;
pub mod wear;
pub mod wss;

pub use registry::{
    find, registry as all, EngineArg, Experiment, ExperimentCtx, ExperimentOpts, ExperimentReport,
};

use crate::campaign::CampaignConfig;
use crate::platform::TrialConfig;

/// How big to run an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentScale {
    /// Fault injections per swept point.
    pub faults_per_point: usize,
    /// Requests submitted per fault.
    pub requests_per_trial: usize,
    /// Worker threads for the campaign runner.
    pub threads: usize,
}

impl ExperimentScale {
    /// Paper-sized: hundreds of faults per point (minutes of CPU).
    pub fn paper() -> Self {
        ExperimentScale {
            faults_per_point: 300,
            requests_per_trial: 80,
            threads: 8,
        }
    }

    /// Quick: enough to see every shape, small enough for tests/CI.
    pub fn quick() -> Self {
        ExperimentScale {
            faults_per_point: 40,
            requests_per_trial: 40,
            threads: 4,
        }
    }
}

/// Builds a campaign config from a trial template at the given scale.
pub(crate) fn campaign_at(trial: TrialConfig, scale: ExperimentScale) -> CampaignConfig {
    CampaignConfig {
        trial,
        trials: scale.faults_per_point,
        requests_per_trial: scale.requests_per_trial,
    }
}

/// Runs one swept point on the scale's thread count. Both engines
/// reduce in canonical trial order, so this is byte-identical to a
/// serial run of the same seed.
pub(crate) fn run_point(
    config: CampaignConfig,
    seed: u64,
    scale: ExperimentScale,
) -> crate::campaign::CampaignReport {
    crate::campaign::Campaign::builder(config)
        .seed(seed)
        .threads(scale.threads)
        .build()
        .run()
}

/// The common trial template all experiments start from (SSD A, ATX rig),
/// with a geometry shrunk to keep allocator bookkeeping cheap — block
/// state is sparse either way.
pub(crate) fn base_trial() -> TrialConfig {
    let mut trial = TrialConfig::paper_default();
    trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 15, 256);
    trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(trial.ssd.geometry);
    trial
}
