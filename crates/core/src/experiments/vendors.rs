//! Table I — the three vendor drives under the same campaign.
//!
//! The paper examines six physical drives of three models; here each
//! Table I preset runs the default full-write campaign. Expected shape:
//! all three lose data (the paper found no immune consumer drive); the
//! TLC drive's stronger LDPC helps with raw-bit-error damage but not with
//! volatile-state loss.

use serde::{Deserialize, Serialize};

use pfault_sim::storage::GIB;
use pfault_ssd::VendorPreset;
use pfault_workload::WorkloadSpec;

use crate::experiments::{campaign_at, ExperimentScale};
use crate::platform::TrialConfig;
use crate::report::{fnum, Table};

/// One drive's results.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VendorRow {
    /// The Table I preset.
    pub preset: VendorPreset,
    /// Display label.
    pub label: String,
    /// Faults injected.
    pub faults: u64,
    /// Data failures (excluding FWA).
    pub data_failures: u64,
    /// False write-acknowledges.
    pub fwa: u64,
    /// IO errors.
    pub io_errors: u64,
    /// Data loss per fault.
    pub data_loss_per_fault: f64,
}

/// Full Table I report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct VendorReport {
    /// One row per drive.
    pub rows: Vec<VendorRow>,
}

impl VendorReport {
    /// Row for one preset.
    pub fn at(&self, preset: VendorPreset) -> Option<&VendorRow> {
        self.rows.iter().find(|r| r.preset == preset)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new([
            "drive",
            "faults",
            "data failures",
            "FWA",
            "IO errors",
            "loss/fault",
        ]);
        for r in &self.rows {
            t.push_row([
                r.label.clone(),
                r.faults.to_string(),
                r.data_failures.to_string(),
                r.fwa.to_string(),
                r.io_errors.to_string(),
                fnum(r.data_loss_per_fault, 2),
            ]);
        }
        t
    }
}

impl core::fmt::Display for VendorReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Runs the campaign on every Table I drive.
pub fn run(scale: ExperimentScale, seed: u64) -> VendorReport {
    let rows = VendorPreset::all()
        .iter()
        .enumerate()
        .map(|(i, &preset)| {
            let mut trial = TrialConfig::paper_default();
            trial.ssd = preset.config();
            trial.workload = WorkloadSpec::builder()
                .wss_bytes(64 * GIB)
                .write_fraction(1.0)
                .build();
            let report = super::run_point(
                campaign_at(trial, scale),
                seed ^ ((i as u64 + 11) << 24),
                scale,
            );
            VendorRow {
                preset,
                label: preset.label().to_string(),
                faults: report.faults,
                data_failures: report.counts.data_failures,
                fwa: report.counts.fwa,
                io_errors: report.counts.io_errors,
                data_loss_per_fault: report.data_loss_per_fault(),
            }
        })
        .collect();
    VendorReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_preset() {
        let r = VendorReport {
            rows: vec![VendorRow {
                preset: VendorPreset::SsdB,
                label: VendorPreset::SsdB.label().to_string(),
                faults: 5,
                data_failures: 7,
                fwa: 3,
                io_errors: 5,
                data_loss_per_fault: 2.0,
            }],
        };
        assert_eq!(r.at(VendorPreset::SsdB).unwrap().data_failures, 7);
        assert!(r.at(VendorPreset::SsdA).is_none());
        assert!(r.to_string().contains("TLC"));
    }
}
