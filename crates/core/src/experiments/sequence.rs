//! Fig 9 — impact of access sequences (RAR / RAW / WAR / WAW).
//!
//! Requests come in same-address pairs. Expected shape: WAW suffers by far
//! the most data failures (two writes, and the second endangers the
//! first's already-acknowledged data via paired pages and mapping churn);
//! RAW and WAR see moderate loss plus FWA; RAR loses **no** data — only
//! IO errors.

use serde::{Deserialize, Serialize};

use pfault_sim::storage::GIB;
use pfault_workload::{SequenceMode, WorkloadSpec};

use crate::experiments::{base_trial, campaign_at, ExperimentScale};
use crate::report::{fnum, Table};

/// One sequence mode's results.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct SequenceRow {
    /// The access sequence.
    pub mode: SequenceMode,
    /// Faults injected.
    pub faults: u64,
    /// Data failures (excluding FWA).
    pub data_failures: u64,
    /// False write-acknowledges.
    pub fwa: u64,
    /// IO errors.
    pub io_errors: u64,
    /// Data failures per fault.
    pub data_failure_per_fault: f64,
}

/// Full Fig 9 report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SequenceReport {
    /// One row per mode, in the paper's x-axis order (RAW WAR RAR WAW).
    pub rows: Vec<SequenceRow>,
}

impl SequenceReport {
    /// Renders the paper-style table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "sequence",
            "faults",
            "data failures",
            "FWA",
            "IO errors",
            "data failure/fault",
        ]);
        for r in &self.rows {
            t.push_row([
                format!("{:?}", r.mode).to_uppercase(),
                r.faults.to_string(),
                r.data_failures.to_string(),
                r.fwa.to_string(),
                r.io_errors.to_string(),
                fnum(r.data_failure_per_fault, 2),
            ]);
        }
        t
    }

    /// Row for a given mode.
    pub fn at(&self, mode: SequenceMode) -> Option<&SequenceRow> {
        self.rows.iter().find(|r| r.mode == mode)
    }
}

impl SequenceReport {
    /// Renders the Fig 9-style grouped bar chart.
    pub fn chart(&self) -> crate::chart::BarChart {
        let mut c = crate::chart::BarChart::new(
            "Fig 9 — failures vs access sequence",
            ["data failures", "FWA", "IO errors"],
        );
        for r in &self.rows {
            c.push(
                format!("{:?}", r.mode).to_uppercase(),
                [r.data_failures as f64, r.fwa as f64, r.io_errors as f64],
            );
        }
        c
    }
}

impl core::fmt::Display for SequenceReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Runs the Fig 9 sweep.
pub fn run(scale: ExperimentScale, seed: u64) -> SequenceReport {
    let rows = SequenceMode::all()
        .iter()
        .enumerate()
        .map(|(i, &mode)| {
            let mut trial = base_trial();
            trial.workload = WorkloadSpec::builder()
                .wss_bytes(64 * GIB)
                .sequence(mode)
                .build();
            let report = super::run_point(
                campaign_at(trial, scale),
                seed ^ ((i as u64 + 1) << 16),
                scale,
            );
            SequenceRow {
                mode,
                faults: report.faults,
                data_failures: report.counts.data_failures,
                fwa: report.counts.fwa,
                io_errors: report.counts.io_errors,
                data_failure_per_fault: report.data_failures_per_fault(),
            }
        })
        .collect();
    SequenceReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_mode() {
        let r = SequenceReport {
            rows: vec![SequenceRow {
                mode: SequenceMode::Waw,
                faults: 5,
                data_failures: 10,
                fwa: 2,
                io_errors: 5,
                data_failure_per_fault: 2.0,
            }],
        };
        assert_eq!(r.at(SequenceMode::Waw).unwrap().data_failures, 10);
        assert!(r.at(SequenceMode::Rar).is_none());
        assert!(r.to_string().contains("WAW"));
    }
}
