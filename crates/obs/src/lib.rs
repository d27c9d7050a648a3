//! Cross-layer observability for the power-fault platform.
//!
//! The paper's testbed is at heart an *observability* rig: every IO is
//! checksummed, `blktrace` records the host queue, and a modified `btt`
//! classifies what the drive did wrong. This crate extends that idea
//! below the host boundary: each layer of the simulated device (cache,
//! flash, FTL, power, recovery) emits typed [`ProbeEvent`]s into a
//! [`ProbeLog`] tagged with simulated time, the host request id, and the
//! fault-site span that produced them.
//!
//! Three consumers sit on top of the raw records:
//!
//! * [`Metrics`] — per-trial counters plus fixed log2-bucket latency
//!   histograms ([`Log2Histogram`]). An enabled [`ProbeLog`] folds each
//!   event into them as it fires ([`ProbeLog::metrics`]), so a caller
//!   that reads only the metrics can keep no records at all
//!   ([`ProbeLog::enable_metrics_only`]); [`Metrics::from_records`] runs
//!   the same fold over a slice. Everything is integer-valued and
//!   derived only from simulated time, so same-seed reruns produce
//!   byte-identical metrics.
//! * [`jsonl`] — a blkparse-style JSON-lines export (one record per
//!   line, fixed key order) consumable by the `blkdump` binary and any
//!   external tooling.
//! * campaign aggregation (in `pfault-platform`) — per-failure-class
//!   roll-ups merged into `CampaignReport`.
//!
//! Recording is **off by default and free when off**: every emit path
//! checks whether the log is on and returns before constructing the
//! event (use [`ProbeLog::emit_with`] on hot paths so argument
//! evaluation is skipped too). The benchmark's `pflayers` binary
//! reports what an enabled bus costs a trial as
//! `obs.probe_overhead_pct`.

pub mod event;
pub mod jsonl;
pub mod metrics;
pub mod probe;

pub use event::{Layer, ProbeEvent, ProgramKind, RecoveryStepKind};
pub use jsonl::{
    parse_jsonl_line, render_metrics_jsonl, render_record, render_records, ParsedProbeLine,
};
pub use metrics::{Log2Histogram, Metrics};
pub use probe::{ProbeLog, ProbeRecord};
