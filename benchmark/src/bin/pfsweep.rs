//! `pfsweep` — the one benchmark workload the `repro` CLI cannot size:
//! a boundary sweep over a seed-generated op list.
//!
//! ```text
//! pfsweep --seed S --ops N
//! ```
//!
//! Builds `SweepConfig::smoke(S)`'s device, replaces its six ops with `N`
//! ops drawn from the seed (see `sweep_ops`), runs the census and the full
//! sweep, and prints one JSON line: ops, census sites, cuts (the trial
//! unit), violations, trials without a verdict, and a digest of the whole
//! report. Every cut re-drives its op prefix from a cold device, so the
//! cost is quadratic in `N`.

#[path = "../sweep_ops.rs"]
mod sweep_ops;

use std::process::ExitCode;

use pfault_platform::sweep::{SweepConfig, Sweeper};
use pfault_sim::checksum::fnv64;

fn main() -> ExitCode {
    let mut seed = 0u64;
    let mut ops = 256usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let value = args.next().unwrap_or_default();
        let parsed = match arg.as_str() {
            "--seed" => value.parse().map(|v| seed = v).is_ok(),
            "--ops" => value.parse().map(|v| ops = v).is_ok(),
            _ => false,
        };
        if !parsed {
            eprintln!("usage: pfsweep --seed S --ops N (bad '{arg} {value}')");
            return ExitCode::FAILURE;
        }
    }
    let mut config = SweepConfig::smoke(seed);
    config.ops = sweep_ops::generate(seed, ops);
    let sweeper = Sweeper::new(config);
    let (spans, report) = match sweeper
        .census()
        .and_then(|spans| Ok((spans, sweeper.run()?)))
    {
        Ok(pair) => pair,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let digest = fnv64(format!("{spans:?}|{report:?}").as_bytes());
    println!(
        "{{\"ops\":{ops},\"sites\":{},\"cuts\":{},\"violations\":{},\"failed\":{},\"digest\":\"{digest:016x}\"}}",
        report.sites_censused,
        report.trials,
        report.violations.len(),
        report.failures.total_failed(),
    );
    ExitCode::SUCCESS
}
