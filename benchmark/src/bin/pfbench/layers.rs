//! The per-layer table: names and units, and the traced run that fills
//! it (`pflayers`, plus a short daemon session for the two numbers only a
//! running daemon has). Never runs while end-to-end metrics are measured.

use crate::child;
use crate::env::{Env, Program};
use crate::json::{self, Value};
use crate::workloads::{self, Size};

/// Every per-layer metric with its unit. `BENCHMARK.json` lists the same
/// (a test compares them); a traced run must report each one.
pub const LAYER_METRICS: [(&str, &str); 65] = [
    // Traced trial: time per trial inside each layer, p50 over trials.
    ("core.platform.trial_us_p50", "us"),
    ("core.platform.trial_us_p99", "us"),
    ("core.platform.bookkeeping_us", "us"),
    ("core.platform.harness_share", "ratio"),
    ("ssd.snapshot.clone_cow_us", "us"),
    ("ssd.snapshot.drop_us", "us"),
    ("ssd.snapshot.overlay_blocks", "count"),
    ("ssd.device.submit_us", "us"),
    ("ssd.device.advance_us", "us"),
    ("ssd.device.drain_us", "us"),
    ("ssd.device.submits", "count"),
    ("ssd.device.advances", "count"),
    ("ssd.device.power_fail_us", "us"),
    ("ssd.device.recover_us", "us"),
    ("power.timeline_us", "us"),
    ("core.analyzer.classify_us", "us"),
    ("trace.btt_analyze_us", "us"),
    ("trace.tracer_us", "us"),
    ("workload.next_packet_us", "us"),
    ("trace_parity", "count"),
    ("trace_overhead_pct", "%"),
    // Seam loops: time per operation through one public seam.
    ("flash.program_ns", "ns"),
    ("flash.read_ns", "ns"),
    ("flash.erase_ns", "ns"),
    ("flash.interrupt_program_ns", "ns"),
    ("ftl.user_write_ns", "ns"),
    ("ftl.journal_commit_us", "us"),
    ("ftl.gc_plan_us", "us"),
    ("ftl.recover_us", "us"),
    ("ssd.cache.insert_ns", "ns"),
    ("ssd.cache.evict_clean_ns", "ns"),
    ("ssd.device.write_req_us", "us"),
    ("ssd.device.read_req_us", "us"),
    ("ssd.device.verify_read_ns", "ns"),
    ("ssd.snapshot.capture_us", "us"),
    ("core.platform.warm_image_ms", "ms"),
    ("core.snapcache.hit_ns", "ns"),
    ("core.campaign.report_to_json_us", "us"),
    ("core.campaign.report_from_json_us", "us"),
    ("core.scheduler.dispatch_ns", "ns"),
    ("core.scheduler.utilization", "ratio"),
    ("core.scheduler.steals", "count"),
    ("core.scheduler.par_efficiency", "ratio"),
    ("core.sweep.census_us", "us"),
    ("core.sweep.cut_us", "us"),
    ("core.plan.wilson_ns", "ns"),
    ("core.plan.clopper_pearson_us", "us"),
    ("kv.trial_us", "us"),
    ("kv.put_ns", "ns"),
    ("kv.commit_us", "us"),
    ("kv.recover_us", "us"),
    ("fleet.trial_ms", "ms"),
    ("fleet.rs_encode_mb_per_s", "MB/s"),
    ("fleet.rs_reconstruct_mb_per_s", "MB/s"),
    ("serve.frame.encode_ns", "ns"),
    ("serve.frame.decode_ns", "ns"),
    ("serve.proto.event_roundtrip_us", "us"),
    ("serve.spool.append_event_us", "us"),
    ("serve.spool.write_done_us", "us"),
    ("serve.daemon.accept_ms_p50", "ms"),
    ("serve.spool.bytes_per_job", "B"),
    ("obs.probe_overhead_pct", "%"),
    ("obs.metrics_from_records_us", "us"),
    ("sim.crc32_mb_per_s", "MB/s"),
    ("sim.rng_next_ns", "ns"),
];

/// What a traced run produced.
#[derive(Debug, Default)]
pub struct Layers {
    pub unavailable: Option<String>,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, String)>,
    /// `pflayers`' whole report (shares, parity detail, sizes).
    pub detail: Value,
    pub attempted: u64,
    pub failed: u64,
}

impl Layers {
    /// Table names the run did not report.
    pub fn missing(&self) -> Vec<&'static str> {
        LAYER_METRICS
            .iter()
            .map(|(name, _)| *name)
            .filter(|name| !self.metrics.iter().any(|(n, _, _)| n == name))
            .collect()
    }

    pub fn correct(&self) -> bool {
        self.unavailable.is_none() && self.failed == 0 && self.missing().is_empty()
    }
}

/// Runs `pflayers` for `workload` (which picks the traced trial's
/// flavour) over `seeds` trials. `daemon` carries the two daemon-side
/// numbers when an end-to-end `serve_jobs` run already measured them;
/// otherwise a short daemon session does.
pub fn run(
    env: &Env,
    workload: &str,
    seed: u64,
    seeds: u64,
    smoke: bool,
    daemon: Option<Vec<(String, f64, String)>>,
) -> Layers {
    let mut layers = Layers::default();
    let binary = match env.build(Program::Pflayers) {
        Ok(binary) => binary,
        Err(why) => {
            layers.unavailable = Some(why);
            return layers;
        }
    };
    let trace_out = env
        .results_dir()
        .join(format!("trace-{}.jsonl", crate::env::git_rev(&env.root)));
    let _ = std::fs::create_dir_all(env.results_dir());
    let mut args = vec![
        "--workload".to_string(),
        workload.to_string(),
        "--seed".to_string(),
        seed.to_string(),
        "--seeds".to_string(),
        seeds.to_string(),
        "--trace-out".to_string(),
        trace_out.display().to_string(),
        "--scratch".to_string(),
        env.tmp_root()
            .join(format!("layers-{}", std::process::id()))
            .display()
            .to_string(),
    ];
    if smoke {
        args.push("--smoke".to_string());
    }
    let report = child::run(
        &binary,
        &args,
        &env.root,
        std::time::Duration::from_secs(150),
    )
    .map_err(|e| format!("cannot spawn pflayers: {e}"))
    .and_then(|done| {
        if !done.exit.success() {
            return Err(format!("pflayers {:?}: {}", done.exit, done.stderr.trim()));
        }
        let line = done.lines.last().map_or("", |(_, line)| line.as_str());
        json::parse(line).map_err(|e| format!("pflayers printed no report: {e}"))
    });
    // `pflayers` removes its own scratch directory; the shared parent goes
    // with the last of them.
    let _ = std::fs::remove_dir(env.tmp_root());
    let report = match report {
        Ok(report) => report,
        Err(why) => {
            layers.unavailable = Some(why);
            return layers;
        }
    };
    for (name, metric) in report.get("metrics").map_or(&[][..], Value::fields) {
        let value = metric
            .get("value")
            .and_then(Value::as_f64)
            .unwrap_or(f64::NAN);
        let unit = metric.get("unit").and_then(Value::as_str).unwrap_or("");
        layers.metrics.push((name.clone(), value, unit.to_string()));
    }
    layers.attempted = report.get("attempted").and_then(Value::as_u64).unwrap_or(1);
    layers.failed = report.get("failed").and_then(Value::as_u64).unwrap_or(0);
    layers.detail = report;

    let daemon = daemon.unwrap_or_else(|| {
        let size = Size {
            seconds: 0.0,
            setup_repeats: 1,
            min_serve_jobs: if smoke { 3 } else { 24 },
            ..Size::full(0.0)
        };
        let out = workloads::run(env, "serve_jobs", &size, seed);
        let (attempted, failed) = crate::metrics::tally(&out);
        layers.attempted += attempted;
        layers.failed += failed;
        out.layer
    });
    layers.metrics.extend(daemon);
    layers
}
