//! `pfault-platform` — the paper's fault-injection and failure-detection
//! platform.
//!
//! This crate is the reproduction's primary contribution (paper §III): it
//! wires the simulated hardware (SSD device, PSU/Arduino fault injector)
//! to the software parts — **Scheduler**, **IO Generator**, **Analyzer** —
//! and runs fault-injection *campaigns* that classify every request into
//! the paper's three failure types:
//!
//! * **data failure** — the request completed (ACK received) but reads
//!   back as neither the written data nor the pre-issue data (garbage,
//!   unreadable, or partially applied);
//! * **FWA** (False Write-Acknowledge) — the request completed but the
//!   target range still holds exactly its pre-issue content: the write was
//!   acknowledged and never happened;
//! * **IO error** — the request never completed (issued while or after the
//!   device vanished in the discharge).
//!
//! The classification follows §III-B's `completed` / `notApplied` flag
//! logic, fed by the block-layer tracer (`pfault-trace`) and per-sector
//! checksum comparison against the platform's expected-state oracle.
//!
//! # Layers
//!
//! * [`oracle`] — expected device contents (last-ACKed write per sector);
//! * [`record`] — per-request bookkeeping (Fig 2 header fields);
//! * [`platform`] — [`platform::TestPlatform`]: runs a single trial
//!   (workload → scheduled fault → discharge → recovery → verification);
//! * [`analyzer`] — post-recovery classification;
//! * [`campaign`] — many trials, serial or multi-threaded, aggregated into
//!   a [`campaign::CampaignReport`];
//! * [`experiments`] — one pre-configured experiment per paper
//!   table/figure, producing printable report tables.
//!
//! # Example
//!
//! ```
//! use pfault_platform::campaign::{Campaign, CampaignConfig};
//! use pfault_platform::plan::PlanSpec;
//!
//! let mut config = CampaignConfig::paper_default();
//! config.requests_per_trial = 20;
//! let report = Campaign::builder(config)
//!     .plan(PlanSpec::fixed(3)) // 3 fault injections
//!     .seed(42)
//!     .build()
//!     .run();
//! assert_eq!(report.faults, 3);
//! assert!(report.requests_issued > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// The lint gate (`make lint`) denies unwrap() in library code; tests may
// unwrap freely.
#![cfg_attr(test, allow(clippy::unwrap_used))]

pub mod analyzer;
pub mod campaign;
pub mod chart;
pub mod error;
pub mod experiments;
pub mod oracle;
pub mod plan;
pub mod platform;
pub mod record;
pub mod report;
pub mod scheduler;
pub mod snapcache;
pub mod sweep;

pub use analyzer::{FailureKind, RequestVerdict};
pub use campaign::{
    Campaign, CampaignBuilder, CampaignConfig, CampaignProgress, CampaignReport, ObsAggregate,
    ObservedRun, ProgressSignal, TrialFailures,
};
pub use error::{CheckpointError, PlatformError, TrialError};
pub use experiments::{EngineArg, Experiment, ExperimentCtx, ExperimentOpts, ExperimentReport};
pub use plan::{Interval, PlanEngine, PlanPoint, PlanReport, PlanSpec, PlanState, Planner};
pub use platform::{TestPlatform, TrialConfig, TrialOutcome, Watchdog};
pub use scheduler::{SchedulerStats, WorkerStats};
pub use snapcache::{SnapshotCache, SnapshotCacheBuilder, SnapshotCacheStats};
pub use sweep::{
    IoOp, MinimalRepro, Phase, SweepConfig, SweepReport, Sweeper, Violation, ViolationKind,
};
