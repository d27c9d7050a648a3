//! `pfio` — a small fio-style workload runner for the simulated SSD.
//!
//! Runs a fault-free workload against a vendor preset and reports
//! throughput plus the `btt`-style latency summary. Useful for sanity-
//! checking the device model independent of fault injection.
//!
//! ```text
//! pfio [--vendor a|b|c] [--requests N] [--size-kib N] [--write-pct P]
//!      [--pattern random|sequential|zipf] [--qd N] [--seed N]
//!      [--watchdog-ms N] [--wear CYCLES] [--read-retries N]
//! ```
//!
//! `--watchdog-ms` caps the simulated runtime; if the device stalls and
//! the workload cannot finish within the budget, pfio reports the stall
//! and exits nonzero instead of spinning forever. `--wear` pre-ages
//! every block to the given P/E cycle count and `--read-retries` arms
//! the ECC read-retry ladder, so the retry/rescue behaviour of
//! end-of-life media can be sanity-checked without fault injection.

use std::env;
use std::process::ExitCode;

use pfault_sim::storage::{GIB, KIB};
use pfault_sim::{DetRng, SectorCount, SimDuration};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::VendorPreset;
use pfault_trace::{analyze, BlockTracer};
use pfault_workload::{AccessPattern, ArrivalModel, SizeSpec, WorkloadGenerator, WorkloadSpec};

struct Args {
    vendor: VendorPreset,
    requests: usize,
    size_kib: Option<u64>,
    write_pct: u32,
    pattern: AccessPattern,
    queue_depth: u32,
    seed: u64,
    watchdog_ms: Option<u64>,
    obs: bool,
    wear: u32,
    read_retries: u32,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        vendor: VendorPreset::SsdA,
        requests: 2_000,
        size_kib: Some(4),
        write_pct: 100,
        pattern: AccessPattern::UniformRandom,
        queue_depth: 1,
        seed: 1,
        watchdog_ms: None,
        obs: false,
        wear: 0,
        read_retries: 0,
    };
    let mut it = env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--vendor" => {
                args.vendor = match value()?.as_str() {
                    "a" | "A" => VendorPreset::SsdA,
                    "b" | "B" => VendorPreset::SsdB,
                    "c" | "C" => VendorPreset::SsdC,
                    other => return Err(format!("unknown vendor '{other}'")),
                }
            }
            "--requests" => {
                args.requests = value()?.parse().map_err(|_| "bad --requests".to_string())?
            }
            "--size-kib" => {
                args.size_kib = Some(value()?.parse().map_err(|_| "bad --size-kib".to_string())?)
            }
            "--mixed-sizes" => args.size_kib = None,
            "--write-pct" => {
                args.write_pct = value()?
                    .parse()
                    .map_err(|_| "bad --write-pct".to_string())?;
                if args.write_pct > 100 {
                    return Err("--write-pct must be 0..=100".to_string());
                }
            }
            "--pattern" => {
                args.pattern = match value()?.as_str() {
                    "random" => AccessPattern::UniformRandom,
                    "sequential" => AccessPattern::Sequential,
                    "zipf" => AccessPattern::Zipf { theta: 0.9 },
                    other => return Err(format!("unknown pattern '{other}'")),
                }
            }
            "--qd" => args.queue_depth = value()?.parse().map_err(|_| "bad --qd".to_string())?,
            "--seed" => args.seed = value()?.parse().map_err(|_| "bad --seed".to_string())?,
            "--watchdog-ms" => {
                args.watchdog_ms = Some(
                    value()?
                        .parse()
                        .map_err(|_| "bad --watchdog-ms".to_string())?,
                )
            }
            "--obs" => args.obs = true,
            "--wear" => args.wear = value()?.parse().map_err(|_| "bad --wear".to_string())?,
            "--read-retries" => {
                args.read_retries = value()?
                    .parse()
                    .map_err(|_| "bad --read-retries".to_string())?
            }
            "--help" | "-h" => {
                return Err(
                    "pfio [--vendor a|b|c] [--requests N] [--size-kib N | --mixed-sizes] \
                     [--write-pct P] [--pattern random|sequential|zipf] [--qd N] [--seed N] \
                     [--watchdog-ms N] [--obs] [--wear CYCLES] [--read-retries N]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let spec = WorkloadSpec::builder()
        .wss_bytes(16 * GIB)
        .write_fraction(f64::from(args.write_pct) / 100.0)
        .size(match args.size_kib {
            Some(k) => SizeSpec::FixedBytes(k * KIB),
            None => SizeSpec::paper_default(),
        })
        .pattern(args.pattern)
        .arrival(ArrivalModel::ClosedLoop {
            queue_depth: args.queue_depth,
        })
        .build();

    let root = DetRng::new(args.seed);
    let mut config = args.vendor.config();
    config.baseline_wear = args.wear;
    config.read_retry_limit = args.read_retries;
    let mut ssd = Ssd::new(config, root.fork("ssd"));
    if args.obs {
        ssd.enable_probes();
    }
    let mut generator = WorkloadGenerator::new(spec, root.fork("workload"));
    let mut tracer = BlockTracer::new(SectorCount::new(ssd.config().max_segment_sectors));

    let deadline = args.watchdog_ms.map(SimDuration::from_millis);
    let mut issued = 0usize;
    let mut outstanding = 0usize;
    let mut bytes = 0u64;
    while issued < args.requests || outstanding > 0 {
        if let Some(cap) = deadline {
            if ssd.now().as_micros() > cap.as_micros() {
                eprintln!(
                    "watchdog: workload did not finish within {} ms of simulated time \
                     ({} of {} requests issued, {} outstanding)",
                    args.watchdog_ms.unwrap_or(0),
                    issued,
                    args.requests,
                    outstanding
                );
                return ExitCode::FAILURE;
            }
        }
        for c in ssd.drain_completions() {
            outstanding -= 1;
            if c.acked() {
                tracer.complete(c.request_id, c.sub_id, c.time);
            } else {
                tracer.error(c.request_id, c.sub_id, c.time);
            }
        }
        while outstanding < args.queue_depth as usize && issued < args.requests {
            let p = generator.next_packet();
            bytes += p.sectors.bytes();
            let subs = tracer.queue_request(p.id, p.lba, p.sectors, p.is_write, ssd.now());
            let mut offset = 0;
            for sub in subs {
                tracer.dispatch(p.id, sub.sub_id, ssd.now());
                let cmd = if p.is_write {
                    HostCommand::write(p.id, sub.sub_id, sub.lba, sub.sectors, p.payload_tag)
                        .with_payload_offset(offset)
                } else {
                    HostCommand::read(p.id, sub.sub_id, sub.lba, sub.sectors)
                };
                offset += sub.sectors.get();
                ssd.submit(cmd);
                outstanding += 1;
            }
            issued += 1;
        }
        if let Some(t) = ssd.next_event() {
            ssd.advance_to(t.max(ssd.now() + SimDuration::from_micros(1)));
        } else if outstanding > 0 {
            ssd.advance_to(ssd.now() + SimDuration::from_millis(1));
        }
    }

    let elapsed = ssd.now();
    let report = analyze(tracer.events(), SimDuration::from_secs(30), elapsed);
    let summary = report.summary();
    let secs = elapsed.as_millis_f64() / 1_000.0;

    println!("device:      {}", args.vendor.label());
    println!(
        "requests:    {} ({}% writes)",
        summary.requests, args.write_pct
    );
    println!("completed:   {}", summary.completed);
    println!("elapsed:     {:.3} s (simulated)", secs);
    println!(
        "throughput:  {:.0} IOPS, {:.1} MiB/s",
        summary.completed as f64 / secs,
        bytes as f64 / (1024.0 * 1024.0) / secs
    );
    println!(
        "latency q2c: mean {:.3} ms, p50 {:.3} ms, p99 {:.3} ms",
        summary.q2c_mean_ms, summary.q2c_p50_ms, summary.q2c_p99_ms
    );
    println!("latency d2c: mean {:.3} ms", summary.d2c_mean_ms);
    println!(
        "device:      {} programs, {} commits, {} GC runs",
        ssd.flash_stats().programs,
        ssd.stats().commits,
        ssd.stats().gc_collections
    );
    if args.read_retries > 0 || args.wear > 0 {
        // End-of-run scrub: reads every mapped page back through the
        // read-retry ladder, so aged media shows its retry/rescue rates
        // even when the workload itself never triggered GC.
        let scrub = match ssd.scrub() {
            Ok(report) => report,
            Err(e) => {
                eprintln!("scrub failed: {e}");
                return ExitCode::FAILURE;
            }
        };
        let fs = ssd.flash_stats();
        println!(
            "scrub:       {} scanned, {} unreadable, {} garbled",
            scrub.scanned, scrub.unreadable, scrub.garbled
        );
        println!(
            "read path:   {} uncorrectable, {} retry rungs, {} rescued",
            fs.ecc_uncorrectable_reads, fs.read_retries, fs.retry_recovered_reads
        );
    }
    if args.obs {
        let metrics = ssd.probe_metrics();
        println!("== probe metrics ==");
        for (key, value) in &metrics.counters {
            println!("{key}: {value}");
        }
        for (key, hist) in &metrics.histograms {
            println!(
                "{key}: n={} p50>={} p99>={}",
                hist.count(),
                hist.percentile_lower_bound(50).unwrap_or(0),
                hist.percentile_lower_bound(99).unwrap_or(0)
            );
        }
    }
    ExitCode::SUCCESS
}
