//! Quickstart: inject twenty power faults into a simulated consumer SSD
//! and classify every request's fate.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use pfault_platform::campaign::{Campaign, CampaignConfig};

fn main() {
    // The paper's default setup: SSD A (256 GB MLC), random 4 KiB–1 MiB
    // writes, the Arduino→ATX discharge rig.
    let mut config = CampaignConfig::paper_default();
    config.trials = 20; // twenty fault injections
    config.requests_per_trial = 60;

    let report = Campaign::builder(config).seed(42).build().run_stealing(4);

    println!("faults injected:        {}", report.faults);
    println!("requests issued:        {}", report.requests_issued);
    println!("requests completed:     {}", report.requests_completed);
    println!();
    println!("data failures:          {}", report.counts.data_failures);
    println!("false write-acks (FWA): {}", report.counts.fwa);
    println!("IO errors:              {}", report.counts.io_errors);
    println!("verified intact:        {}", report.counts.intact);
    println!();
    println!(
        "data loss per fault:    {:.2}  (paper observes ~2 data failures/fault, §IV-B)",
        report.data_loss_per_fault()
    );
    if report.failed_ack_interval_ms.count() > 0 {
        println!(
            "latest ACK→fault interval among failed requests: {:.0} ms (paper: up to ~700 ms, §IV-A)",
            report.max_failed_ack_interval_ms
        );
    }
}
