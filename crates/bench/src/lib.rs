//! Shared helpers for the benchmark harness.
//!
//! The `repro` binary regenerates every table and figure of the paper
//! with the experiment runners from [`pfault_platform::experiments`].

use pfault_platform::experiments::ExperimentScale;

/// Scales selectable from the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScaleArg {
    /// CI-sized (tens of faults per point).
    Quick,
    /// Paper-sized (hundreds of faults per point).
    Paper,
}

impl ScaleArg {
    /// Parses `quick` / `paper`.
    pub fn parse(s: &str) -> Option<ScaleArg> {
        match s {
            "quick" => Some(ScaleArg::Quick),
            "paper" => Some(ScaleArg::Paper),
            _ => None,
        }
    }

    /// The experiment scale.
    pub fn scale(self) -> ExperimentScale {
        match self {
            ScaleArg::Quick => ExperimentScale::quick(),
            ScaleArg::Paper => ExperimentScale::paper(),
        }
    }
}

/// The default seed used by the harness (reports in EXPERIMENTS.md use
/// this): the paper's arXiv date.
pub const DEFAULT_SEED: u64 = 20180429;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_parses() {
        assert_eq!(ScaleArg::parse("quick"), Some(ScaleArg::Quick));
        assert_eq!(ScaleArg::parse("paper"), Some(ScaleArg::Paper));
        assert_eq!(ScaleArg::parse("huge"), None);
        assert!(
            ScaleArg::Paper.scale().faults_per_point > ScaleArg::Quick.scale().faults_per_point
        );
    }
}
