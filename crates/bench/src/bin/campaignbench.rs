//! `campaignbench` — measures the campaign engine v2.
//!
//! Three questions, all against the fault-injection campaign on the
//! paper's vendor-A preset with a deterministic warm-up prefix:
//!
//! 1. **Image cloning speedup** — how much faster is a campaign when
//!    the warm-up runs once and every trial copy-on-write-clones the
//!    frozen [`pfault_ssd::DeviceImage`], versus replaying the warm-up
//!    from a cold device inside every trial?
//! 2. **Engine equality** — serial, statically striped, and
//!    work-stealing runs of the same seed must produce byte-identical
//!    reports (the scheduler is an implementation detail, never a
//!    result).
//! 3. **Scheduler health** — per-worker utilization and steal counts
//!    from the work-stealing engine, plus per-engine snapshot-cache
//!    traffic: each engine reports the hits/misses *it* caused and the
//!    memoization state it started from, so a `0` hit count on the
//!    first image-cloning engine reads as "ran the one warm-up" rather
//!    than "cache never helped".
//!
//! Writes `BENCH_campaign.json`. `--smoke` runs a small budget and
//! exits nonzero unless the image-clone speedup reaches 2x, every
//! engine/report pair is byte-identical, and the later engines start
//! from the memoized image — wired into `make bench-smoke`.
//!
//! Usage:
//!
//! ```text
//! campaignbench [--smoke] [--trials N] [--warmup N] [--threads N]
//!               [--seed N] [--out FILE]
//! ```

use std::env;
use std::process::ExitCode;
use std::time::Instant;

use pfault_bench::DEFAULT_SEED;
use pfault_platform::campaign::{Campaign, CampaignConfig, CampaignReport};
use pfault_platform::plan::PlanSpec;
use pfault_platform::snapcache::SnapshotCacheStats;
use pfault_platform::{snapcache, SchedulerStats};

struct BenchArgs {
    trials: usize,
    warmup: usize,
    threads: usize,
    seed: u64,
    out: String,
    smoke: bool,
}

impl BenchArgs {
    fn parse() -> Result<BenchArgs, ExitCode> {
        let mut a = BenchArgs {
            trials: 160,
            warmup: 256,
            threads: 4,
            seed: DEFAULT_SEED,
            out: String::from("BENCH_campaign.json"),
            smoke: false,
        };
        let mut args = env::args().skip(1);
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--smoke" => {
                    a.smoke = true;
                    a.trials = 24;
                    a.warmup = 192;
                }
                "--trials" => a.trials = num(&mut args, "--trials")? as usize,
                "--warmup" => a.warmup = num(&mut args, "--warmup")? as usize,
                "--threads" => a.threads = (num(&mut args, "--threads")? as usize).max(1),
                "--seed" => a.seed = num(&mut args, "--seed")?,
                "--out" => a.out = args.next().unwrap_or_default(),
                "--help" | "-h" => {
                    println!(
                        "campaignbench [--smoke] [--trials N] [--warmup N] [--threads N] \
                         [--seed N] [--out FILE]"
                    );
                    return Err(ExitCode::SUCCESS);
                }
                other => {
                    eprintln!("unknown argument '{other}'");
                    return Err(ExitCode::FAILURE);
                }
            }
        }
        Ok(a)
    }
}

fn num(args: &mut impl Iterator<Item = String>, name: &str) -> Result<u64, ExitCode> {
    let v = args.next().unwrap_or_default();
    v.parse().map_err(|_| {
        eprintln!("bad {name} '{v}' (expected a number)");
        ExitCode::FAILURE
    })
}

/// The benchmark preset: the paper's vendor-A drive with a
/// deterministic warm-up prefix ahead of every trial.
fn bench_config(trials: usize, warmup: usize) -> CampaignConfig {
    let mut config = CampaignConfig::paper_default();
    config.trials = trials;
    config.requests_per_trial = 40;
    config.trial.warmup_requests = warmup;
    config
}

fn campaign(config: &CampaignConfig, seed: u64, threads: usize, cache: bool) -> Campaign {
    Campaign::builder(*config)
        .plan(PlanSpec::fixed(config.trials as u64))
        .seed(seed)
        .threads(threads)
        .snapshot_cache(cache)
        .build()
}

/// One engine run, bracketed by snapshot-cache counter reads so the
/// engine's own cache traffic (and the memoization state it started
/// from) is attributable to it alone.
struct EngineRun {
    report: CampaignReport,
    seconds: f64,
    started: SnapshotCacheStats,
    hits: u64,
    misses: u64,
}

impl EngineRun {
    fn measure(run: impl FnOnce() -> CampaignReport) -> EngineRun {
        let started = snapcache::stats();
        let start = Instant::now();
        let report = run();
        let seconds = start.elapsed().as_secs_f64();
        let after = snapcache::stats();
        EngineRun {
            report,
            seconds,
            started,
            hits: after.hits - started.hits,
            misses: after.misses - started.misses,
        }
    }

    fn trials_per_sec(&self, trials: usize) -> f64 {
        trials as f64 / self.seconds
    }

    fn started_memoized(&self) -> bool {
        self.started.entries > 0
    }

    fn json(&self, trials: usize) -> serde_json::Value {
        serde_json::json!({
            "seconds": self.seconds,
            "trials_per_sec": self.trials_per_sec(trials),
            "cache_hits": self.hits,
            "cache_misses": self.misses,
            "started_with_entries": self.started.entries,
            "started_memoized": self.started_memoized(),
        })
    }

    fn describe(&self, label: &str, trials: usize) {
        println!(
            "{label:<17}: {:8.3} s  ({:7.1} trials/s)  cache {} hit(s) / {} miss(es), \
             started {}",
            self.seconds,
            self.trials_per_sec(trials),
            self.hits,
            self.misses,
            if self.started_memoized() {
                "memoized"
            } else {
                "cold-cache"
            }
        );
    }
}

fn report_bytes(report: &CampaignReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

fn main() -> ExitCode {
    let a = match BenchArgs::parse() {
        Ok(a) => a,
        Err(code) => return code,
    };
    let config = bench_config(a.trials, a.warmup);
    println!(
        "campaignbench: {} trials, warm-up {} requests, {} threads, seed {}",
        a.trials, a.warmup, a.threads, a.seed
    );

    // Phase 1 — replay-from-cold: snapshot cache off, so every trial
    // replays the warm-up prefix against a cold device.
    snapcache::reset();
    let cold_campaign = campaign(&config, a.seed, 1, false);
    let cold = EngineRun::measure(|| cold_campaign.run());
    let cold_tps = cold.trials_per_sec(a.trials);
    cold.describe("replay-from-cold", a.trials);

    // Phase 2 — image cloning: the warm-up runs once (a cache miss),
    // every trial copy-on-write-clones the frozen image. The engine
    // memoizes the image at campaign start, so its expected traffic is
    // exactly one miss and zero hits — the trials themselves never
    // touch the cache again.
    let snap_campaign = campaign(&config, a.seed, 1, true);
    let snap = EngineRun::measure(|| snap_campaign.run());
    let snap_tps = snap.trials_per_sec(a.trials);
    let speedup = snap_tps / cold_tps;
    snap.describe("image-clone", a.trials);
    println!("speedup          : {speedup:.2}x over replay-from-cold");

    // Phase 3 + 4 — engine equality + scheduler stats. All three
    // engines (and both warm-up strategies above) must agree
    // byte-for-byte; both parallel engines start from the image phase 2
    // memoized (one hit, zero misses each).
    let striped = EngineRun::measure(|| campaign(&config, a.seed, a.threads, true).run_parallel(a.threads));
    striped.describe("striped", a.trials);
    let mut sched = SchedulerStats {
        threads: 0,
        chunk: 0,
        trials: 0,
        workers: Vec::new(),
    };
    let stealing = EngineRun::measure(|| {
        let (report, stats) =
            campaign(&config, a.seed, a.threads, true).run_stealing_with_stats(a.threads);
        sched = stats;
        report
    });
    stealing.describe("stealing", a.trials);

    let baseline = report_bytes(&cold.report);
    let snap_equal = report_bytes(&snap.report) == baseline;
    let striped_equal = report_bytes(&striped.report) == baseline;
    let stealing_equal = report_bytes(&stealing.report) == baseline;
    println!(
        "engine equality  : image={snap_equal} striped={striped_equal} \
         stealing={stealing_equal}"
    );
    for w in &sched.workers {
        println!(
            "worker {:>2}       : {:3} trial(s), {:2} steal(s) ({:3} stolen), \
             utilization {:.2}",
            w.worker,
            w.trials_run,
            w.steals,
            w.stolen_trials,
            w.utilization()
        );
    }
    println!(
        "scheduler        : {} thread(s), {} total steal(s), mean utilization {:.2}",
        sched.threads,
        sched.total_steals(),
        sched.mean_utilization()
    );
    // Cumulative counters after all four campaigns: the one warm-up
    // miss from phase 2, then one hit per later campaign.
    let final_cache = snapcache::stats();
    println!(
        "cache cumulative : {} hit(s), {} miss(es), hit rate {:.3}",
        final_cache.hits,
        final_cache.misses,
        final_cache.hit_rate()
    );

    let doc = serde_json::json!({
        "bench": "campaignbench",
        "preset": "vendor-A paper_default",
        "trials": a.trials,
        "requests_per_trial": 40,
        "warmup_requests": a.warmup,
        "threads": a.threads,
        "seed": a.seed,
        "replay_from_cold": cold.json(a.trials),
        "snapshot_clone": snap.json(a.trials),
        "striped": striped.json(a.trials),
        "stealing": stealing.json(a.trials),
        "cache_after_all_engines": serde_json::json!({
            "hits": final_cache.hits,
            "misses": final_cache.misses,
            "hit_rate": final_cache.hit_rate(),
            "evictions": final_cache.evictions,
        }),
        "speedup": speedup,
        "reports_identical": serde_json::json!({
            "snapshot_vs_cold": snap_equal,
            "striped_vs_serial": striped_equal,
            "stealing_vs_serial": stealing_equal,
        }),
        "scheduler": serde_json::to_value(&sched).expect("stats serialize"),
    });
    let body = serde_json::to_string_pretty(&doc).expect("doc serializes");
    if let Err(e) = std::fs::write(&a.out, body) {
        eprintln!("failed to write {}: {e}", a.out);
        return ExitCode::FAILURE;
    }
    println!("wrote {}", a.out);

    // Self-checking exit: equality and cache-traffic shape always,
    // speedup under --smoke (the full run reports speedup but leaves
    // judgement to the committed BENCH_campaign.json).
    let mut failed = false;
    if !(snap_equal && striped_equal && stealing_equal) {
        eprintln!("campaignbench failed: engines/strategies disagree on the report");
        failed = true;
    }
    // The ratio floor is 2x, not the raw ~10x the CoW rework delivered
    // over the old deep-copy numbers: the same PR also tripled the
    // *cold* replay path (the write cache's clean-eviction index), and
    // speedup here is clone-vs-cold on the current code, not vs the
    // historical baseline. The typical smoke-sized ratio is ~3.2x; the
    // floor sits well below the noise band of a loaded single-core runner.
    // Absolute throughput is judged against the committed
    // BENCH_campaign.json instead.
    if a.smoke && speedup < 2.0 {
        eprintln!("campaignbench failed: image-clone speedup {speedup:.2}x < 2x");
        failed = true;
    }
    if a.smoke && (snap.misses != 1 || snap.started_memoized()) {
        eprintln!(
            "campaignbench failed: the image-clone engine must run exactly one warm-up \
             from a cold cache, saw {} miss(es), started_memoized={}",
            snap.misses,
            snap.started_memoized()
        );
        failed = true;
    }
    if a.smoke
        && !(striped.started_memoized()
            && stealing.started_memoized()
            && striped.misses == 0
            && stealing.misses == 0)
    {
        eprintln!(
            "campaignbench failed: parallel engines must start from the memoized image \
             (striped: {} miss(es), memoized={}; stealing: {} miss(es), memoized={})",
            striped.misses,
            striped.started_memoized(),
            stealing.misses,
            stealing.started_memoized()
        );
        failed = true;
    }
    if failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
