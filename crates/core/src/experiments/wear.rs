//! Extension — device age vs power-fault damage.
//!
//! The field studies the paper cites (§II: Meza et al. \[19\], Schroeder et
//! al. \[22\]) show NAND reliability degrading with program/erase cycles.
//! This extension runs the default fault campaign on drives pre-aged to
//! increasing wear levels: as the raw bit-error floor rises toward the
//! ECC's correction strength, the same power fault corrupts more —
//! marginal pages that a fresh drive would read back cleanly tip over
//! after the fault's added disturbance.

use serde::{Deserialize, Serialize};

use pfault_sim::storage::GIB;
use pfault_workload::WorkloadSpec;

use crate::experiments::{base_trial, campaign_at, ExperimentScale};
use crate::report::{fnum, Table};

/// One wear level's results.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct WearRow {
    /// Pre-aged program/erase cycles.
    pub cycles: u32,
    /// Faults injected.
    pub faults: u64,
    /// Data failures (excluding FWA).
    pub data_failures: u64,
    /// Total data loss per fault.
    pub data_loss_per_fault: f64,
}

/// Full wear report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct WearReport {
    /// One row per wear level.
    pub rows: Vec<WearRow>,
}

impl WearReport {
    /// Row at a given cycle count.
    pub fn at(&self, cycles: u32) -> Option<&WearRow> {
        self.rows.iter().find(|r| r.cycles == cycles)
    }

    /// Renders the table.
    pub fn table(&self) -> Table {
        let mut t = Table::new(["P/E cycles", "faults", "data failures", "loss/fault"]);
        for r in &self.rows {
            t.push_row([
                r.cycles.to_string(),
                r.faults.to_string(),
                r.data_failures.to_string(),
                fnum(r.data_loss_per_fault, 2),
            ]);
        }
        t
    }
}

impl core::fmt::Display for WearReport {
    /// Renders the report as its aligned table.
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(&self.table().render())
    }
}

/// Runs the wear sweep (fresh → near end-of-life).
pub fn run(scale: ExperimentScale, seed: u64) -> WearReport {
    let rows = [0u32, 1_000, 2_000, 2_800]
        .iter()
        .map(|&cycles| {
            let mut trial = base_trial();
            trial.ssd.baseline_wear = cycles;
            trial.workload = WorkloadSpec::builder()
                .wss_bytes(64 * GIB)
                .write_fraction(1.0)
                .build();
            let report = super::run_point(
                campaign_at(trial, scale),
                seed ^ (u64::from(cycles) << 5),
                scale,
            );
            WearRow {
                cycles,
                faults: report.faults,
                data_failures: report.counts.data_failures,
                data_loss_per_fault: report.data_loss_per_fault(),
            }
        })
        .collect();
    WearReport { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lookup_by_cycles() {
        let r = WearReport {
            rows: vec![
                WearRow {
                    cycles: 0,
                    faults: 5,
                    data_failures: 5,
                    data_loss_per_fault: 3.0,
                },
                WearRow {
                    cycles: 2_800,
                    faults: 5,
                    data_failures: 300,
                    data_loss_per_fault: 80.0,
                },
            ],
        };
        assert_eq!(r.at(0).unwrap().data_loss_per_fault, 3.0);
        assert!(r.at(500).is_none());
        assert!(r.to_string().contains("P/E cycles"));
    }
}
