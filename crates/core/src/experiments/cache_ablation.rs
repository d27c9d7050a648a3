//! Ablation — internal cache on / off / supercap.
//!
//! §IV-A reports that disabling the internal cache does **not** eliminate
//! failures (the mapping table is still volatile); §I notes that high-end
//! devices add supercapacitors. This ablation quantifies all three
//! configurations on the same workload. Expected shape: cache-off reduces
//! FWA sharply but data loss persists; supercap eliminates loss.

use serde::{Deserialize, Serialize};

use pfault_sim::storage::GIB;
use pfault_ssd::CacheConfig;
use pfault_workload::WorkloadSpec;

use crate::experiments::{base_trial, campaign_at, ExperimentScale};
use crate::report::{fnum, Table};

/// The three configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CacheVariant {
    /// Write-back cache enabled (consumer default).
    Enabled,
    /// Cache disabled: ACK waits for NAND.
    Disabled,
    /// Cache enabled plus supercap power-loss protection.
    Supercap,
}

/// One variant's results.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct CacheRow {
    /// Configuration.
    pub variant: CacheVariant,
    /// Faults injected.
    pub faults: u64,
    /// Data failures (excluding FWA).
    pub data_failures: u64,
    /// False write-acknowledges.
    pub fwa: u64,
    /// Total data loss per fault.
    pub data_loss_per_fault: f64,
}

/// Full ablation report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CacheAblationReport {
    /// One row per variant.
    pub rows: Vec<CacheRow>,
}

impl CacheAblationReport {
    /// Row for one variant.
    pub fn at(&self, variant: CacheVariant) -> Option<&CacheRow> {
        self.rows.iter().find(|r| r.variant == variant)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["cache", "faults", "data failures", "FWA", "data loss/fault"]);
        for r in &self.rows {
            t.push_row([
                format!("{:?}", r.variant).to_lowercase(),
                r.faults.to_string(),
                r.data_failures.to_string(),
                r.fwa.to_string(),
                fnum(r.data_loss_per_fault, 2),
            ]);
        }
        t
    }
}

impl core::fmt::Display for CacheAblationReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Runs all three variants.
pub fn run(scale: ExperimentScale, seed: u64) -> CacheAblationReport {
    let rows = [
        CacheVariant::Enabled,
        CacheVariant::Disabled,
        CacheVariant::Supercap,
    ]
    .iter()
    .enumerate()
    .map(|(i, &variant)| {
        let mut trial = base_trial();
        trial.workload = WorkloadSpec::builder()
            .wss_bytes(64 * GIB)
            .write_fraction(1.0)
            .build();
        match variant {
            CacheVariant::Enabled => {}
            CacheVariant::Disabled => trial.ssd.cache = CacheConfig::disabled(),
            CacheVariant::Supercap => trial.ssd.supercap = true,
        }
        let report = super::run_point(
            campaign_at(trial, scale),
            seed ^ ((i as u64 + 3) << 20),
            scale,
        );
        CacheRow {
            variant,
            faults: report.faults,
            data_failures: report.counts.data_failures,
            fwa: report.counts.fwa,
            data_loss_per_fault: report.data_loss_per_fault(),
        }
    })
    .collect();
    CacheAblationReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_variant() {
        let r = CacheAblationReport {
            rows: vec![CacheRow {
                variant: CacheVariant::Supercap,
                faults: 5,
                data_failures: 0,
                fwa: 0,
                data_loss_per_fault: 0.0,
            }],
        };
        assert_eq!(
            r.at(CacheVariant::Supercap).unwrap().data_loss_per_fault,
            0.0
        );
        assert!(r.at(CacheVariant::Enabled).is_none());
        assert!(r.to_string().contains("supercap"));
    }
}
