//! Seam loops: one tight loop per public seam of each crate, a fixed
//! number of operations, the median of a few repeats, reported as busy
//! time per operation. State is rebuilt (untimed) for every repeat.

use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use pfault_flash::array::PageData;
use pfault_flash::oob::Oob;
use pfault_flash::{CellKind, FlashArray, FlashGeometry};
use pfault_fleet::rs::RsCode;
use pfault_fleet::{FleetConfig, FleetSim};
use pfault_ftl::{CheckpointStore, DurableLog, Ftl, FtlConfig};
use pfault_kv::config::KvConfig;
use pfault_kv::store::KvStore;
use pfault_kv::trial::{run_kv_trial, KvTrialConfig};
use pfault_kv::workload::KvWorkloadKind;
use pfault_obs::Metrics;
use pfault_platform::campaign::{Campaign, CampaignConfig, CampaignReport};
use pfault_platform::plan::{clopper_pearson, wilson, PlanSpec};
use pfault_platform::scheduler::{run_work_stealing, DEFAULT_CHUNK};
use pfault_platform::snapcache::SnapshotCache;
use pfault_platform::sweep::{SweepConfig, Sweeper};
use pfault_platform::{TestPlatform, TrialConfig};
use pfault_power::FaultInjector;
use pfault_serve::frame::{decode_frame, encode_frame};
use pfault_serve::proto::{decode_message, encode_message, JobEvent};
use pfault_serve::spool::Spool;
use pfault_sim::checksum::{crc32, mix64};
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration};
use pfault_ssd::cache::WriteCache;
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::{DeviceImage, VendorPreset};

use crate::sweep_ops;

/// `(name, value, unit)` rows of the layer table.
pub type Rows = Vec<(&'static str, f64, &'static str)>;

/// Sizes of the loops. `divisor` shrinks every count for the smoke run.
pub struct Seams<'a> {
    pub divisor: u64,
    pub repeats: usize,
    pub threads: usize,
    /// Campaign trial configuration shared with the traced trial.
    pub platform: &'a TestPlatform,
    pub image: &'a DeviceImage,
    /// Scratch directory for the spool loops (removed by the caller).
    pub scratch: &'a Path,
    pub seed: u64,
}

pub fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    match samples.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => samples[n / 2],
        n => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let value = f();
    (value, start.elapsed())
}

impl Seams<'_> {
    fn count(&self, full: u64) -> u64 {
        (full / self.divisor).max(4)
    }

    /// Median over the repeats of whatever one repeat measures.
    fn repeat<const N: usize>(&self, mut one: impl FnMut(u64) -> [f64; N]) -> [f64; N] {
        let runs: Vec<[f64; N]> = (0..self.repeats as u64).map(&mut one).collect();
        std::array::from_fn(|i| median(runs.iter().map(|r| r[i]).collect()))
    }

    pub fn run(&self) -> Rows {
        let mut rows = Rows::new();
        self.flash(&mut rows);
        self.ftl(&mut rows);
        self.cache(&mut rows);
        self.device(&mut rows);
        self.images(&mut rows);
        self.campaign(&mut rows);
        self.scheduler(&mut rows);
        self.sweep(&mut rows);
        self.plan(&mut rows);
        self.kv(&mut rows);
        self.fleet(&mut rows);
        self.serve(&mut rows);
        self.obs_and_sim(&mut rows);
        rows
    }

    fn flash(&self, rows: &mut Rows) {
        let geometry = FlashGeometry::new(256, 64);
        let blocks = self.count(128).min(geometry.blocks());
        let pages = geometry.pages_per_block();
        let [program, read, erase, interrupt] = self.repeat(|r| {
            let mut array = FlashArray::new(geometry, CellKind::Mlc);
            let mut rng = DetRng::new(self.seed ^ r);
            let ops = (blocks * pages) as f64;
            let ((), program) = timed(|| {
                for b in 0..blocks {
                    for p in 0..pages {
                        let x = b * pages + p;
                        array
                            .program(
                                geometry.ppa(b, p),
                                PageData::from_tag(x),
                                Oob::user(Lba::new(x), x),
                            )
                            .expect("pages are programmed in order on an erased block");
                    }
                }
            });
            let ((), read) = timed(|| {
                for b in 0..blocks {
                    for p in 0..pages {
                        black_box(array.read(geometry.ppa(b, p), &mut rng));
                    }
                }
            });
            let ((), erase) = timed(|| {
                for b in 0..blocks {
                    array.erase(b).expect("block is in range and not worn out");
                }
            });
            let ((), interrupt) = timed(|| {
                for b in 0..blocks {
                    black_box(array.interrupt_program(geometry.ppa(b, 0), 0.5, &mut rng));
                }
            });
            [
                ns(program) / ops,
                ns(read) / ops,
                ns(erase) / blocks as f64,
                ns(interrupt) / blocks as f64,
            ]
        });
        rows.push(("flash.program_ns", program, "ns"));
        rows.push(("flash.read_ns", read, "ns"));
        rows.push(("flash.erase_ns", erase, "ns"));
        rows.push(("flash.interrupt_program_ns", interrupt, "ns"));
    }

    fn ftl(&self, rows: &mut Rows) {
        let geometry = FlashGeometry::new(512, 64);
        let config = FtlConfig::for_geometry(geometry);
        let writes = self.count(16_384);
        let lbas = (writes / 4).max(1);
        const WRITES_PER_COMMIT: u64 = 64;
        let [user_write, commit, gc_plan, recover] = self.repeat(|r| {
            // Pure mapping work: no flash behind it, timed as one loop.
            let mut ftl = Ftl::new(config);
            let ((), pure) = timed(|| {
                for i in 0..writes {
                    let slot = ftl
                        .begin_user_write(Lba::new(i % lbas))
                        .expect("the geometry holds every write");
                    black_box(ftl.finish_user_write(&slot));
                }
            });
            // The same stream with flash behind it, so the journal pages
            // exist for recovery to read back; only the FTL calls are timed.
            let mut ftl = Ftl::new(config);
            let mut array = FlashArray::new(geometry, CellKind::Mlc);
            let mut durable = DurableLog::new();
            let mut commit_time = Duration::ZERO;
            let mut commits = 0u64;
            for i in 0..writes {
                let lba = Lba::new(i % lbas);
                let slot = ftl
                    .begin_user_write(lba)
                    .expect("the geometry holds every write");
                array
                    .program(slot.ppa, PageData::from_tag(i), Oob::user(lba, slot.seq))
                    .expect("the FTL reserves pages in program order");
                ftl.finish_user_write(&slot);
                if (i + 1) % WRITES_PER_COMMIT == 0 {
                    ftl.close_open_extent();
                    let (op, begin) = timed(|| ftl.begin_journal_commit());
                    let Ok(Some(op)) = op else { continue };
                    array
                        .program(
                            op.page,
                            PageData::from_tag(mix64(0x4A4E_4C00, op.batch.id)),
                            Oob::journal(op.batch.id, op.seq),
                        )
                        .expect("the FTL reserves journal pages in program order");
                    let ((), finish) = timed(|| ftl.finish_journal_commit(op, &mut durable));
                    commit_time += begin + finish;
                    commits += 1;
                }
            }
            const PLANS: u32 = 20;
            let ((), plan) = timed(|| {
                for _ in 0..PLANS {
                    black_box(ftl.gc_plan());
                }
            });
            let mut rng = DetRng::new(self.seed ^ r);
            let (recovered, recover) = timed(|| {
                Ftl::try_recover_with_stats(
                    config,
                    &mut array,
                    &durable,
                    &CheckpointStore::new(),
                    &mut rng,
                )
            });
            black_box(
                recovered
                    .map(|(ftl, stats)| (ftl.mapped_sectors(), stats))
                    .ok(),
            );
            [
                ns(pure) / writes as f64,
                ns(commit_time) / 1e3 / commits.max(1) as f64,
                ns(plan) / 1e3 / f64::from(PLANS),
                ns(recover) / 1e3,
            ]
        });
        rows.push(("ftl.user_write_ns", user_write, "ns"));
        rows.push(("ftl.journal_commit_us", commit, "us"));
        rows.push(("ftl.gc_plan_us", gc_plan, "us"));
        rows.push(("ftl.recover_us", recover, "us"));
    }

    fn cache(&self, rows: &mut Rows) {
        let sectors = self.count(32_768);
        let [insert, evict] = self.repeat(|_| {
            let mut cache = WriteCache::new(sectors);
            let now = pfault_sim::SimTime::ZERO;
            let ((), insert) = timed(|| {
                for i in 0..sectors {
                    cache.insert(Lba::new(i), PageData::from_tag(i), now);
                }
            });
            // Flush everything so every sector is clean and evictable.
            while let Some((lba, data)) = cache.next_flushable(now, SimDuration::ZERO, 0.0) {
                cache.flush_complete(lba, data);
            }
            let (evicted, evict) = timed(|| cache.evict_clean(sectors));
            [
                ns(insert) / sectors as f64,
                ns(evict) / evicted.max(1) as f64,
            ]
        });
        rows.push(("ssd.cache.insert_ns", insert, "ns"));
        rows.push(("ssd.cache.evict_clean_ns", evict, "ns"));
    }

    fn device(&self, rows: &mut Rows) {
        let requests = self.count(2_000);
        const SECTORS: u64 = 8;
        // One fault-free request, submit to completion, in host time.
        fn complete(ssd: &mut Ssd, cmd: HostCommand) {
            ssd.submit(cmd);
            while ssd.drain_completions().is_empty() {
                let next = ssd
                    .next_event()
                    .unwrap_or(ssd.now() + SimDuration::from_millis(1));
                ssd.advance_to(next.max(ssd.now() + SimDuration::from_micros(1)));
            }
        }
        let [write, read, verify] = self.repeat(|r| {
            let mut ssd = Ssd::new(
                VendorPreset::SsdA.config(),
                DetRng::new(self.seed ^ r).fork("ssd"),
            );
            let lba = |i: u64| Lba::new(i * SECTORS);
            let sectors = SectorCount::new(SECTORS);
            let ((), write) = timed(|| {
                for i in 0..requests {
                    complete(&mut ssd, HostCommand::write(i, 0, lba(i), sectors, i));
                }
            });
            let ((), read) = timed(|| {
                for i in 0..requests {
                    complete(
                        &mut ssd,
                        HostCommand::read(requests + i, 0, lba(i), sectors),
                    );
                }
            });
            ssd.quiesce();
            let ((), verify) = timed(|| {
                for i in 0..requests * SECTORS {
                    black_box(ssd.verify_read(Lba::new(i)));
                }
            });
            [
                ns(write) / 1e3 / requests as f64,
                ns(read) / 1e3 / requests as f64,
                ns(verify) / (requests * SECTORS) as f64,
            ]
        });
        rows.push(("ssd.device.write_req_us", write, "us"));
        rows.push(("ssd.device.read_req_us", read, "us"));
        rows.push(("ssd.device.verify_read_ns", verify, "ns"));
    }

    fn images(&self, rows: &mut Rows) {
        let digest = self.platform.config_digest();
        let hits = self.count(20_000);
        let [capture, warm_image, hit] = self.repeat(|_| {
            let device = self.image.clone_cow();
            let (image, capture) = timed(|| device.capture(digest));
            black_box(image.fingerprint());
            let (image, warm) = timed(|| self.platform.warm_image());
            black_box(image.fingerprint());
            let cache = SnapshotCache::builder().build();
            black_box(cache.warm_image_for(self.platform).fingerprint());
            let ((), hit) = timed(|| {
                for _ in 0..hits {
                    black_box(cache.warm_image_for(self.platform));
                }
            });
            [ns(capture) / 1e3, ns(warm) / 1e6, ns(hit) / hits as f64]
        });
        rows.push(("ssd.snapshot.capture_us", capture, "us"));
        rows.push(("core.platform.warm_image_ms", warm_image, "ms"));
        rows.push(("core.snapcache.hit_ns", hit, "ns"));
    }

    /// A fixed-size campaign over the traced trial's configuration.
    fn campaign_of(&self, trials: u64) -> Campaign {
        let trial: TrialConfig = *self.platform.config();
        let config = CampaignConfig {
            trial,
            trials: trials as usize,
            requests_per_trial: trial.requests,
        };
        Campaign::builder(config)
            .plan(PlanSpec::fixed(trials))
            .seed(self.seed)
            .build()
    }

    fn campaign(&self, rows: &mut Rows) {
        // A report with real contents: what a daemon checkpoint carries.
        let report = self.campaign_of(12).run();
        let rounds = self.count(200);
        let [to_json, from_json] = self.repeat(|_| {
            let (text, to) = timed(|| {
                let mut text = String::new();
                for _ in 0..rounds {
                    text = serde_json::to_string(&report).expect("reports serialize");
                }
                text
            });
            let ((), from) = timed(|| {
                for _ in 0..rounds {
                    let parsed: CampaignReport =
                        serde_json::from_str(&text).expect("reports parse back");
                    black_box(parsed.faults);
                }
            });
            [ns(to) / 1e3 / rounds as f64, ns(from) / 1e3 / rounds as f64]
        });
        rows.push(("core.campaign.report_to_json_us", to_json, "us"));
        rows.push(("core.campaign.report_from_json_us", from_json, "us"));
    }

    fn scheduler(&self, rows: &mut Rows) {
        let items = self.count(400_000);
        let [dispatch] = self.repeat(|_| {
            let ((sum, _), took) = timed(|| {
                run_work_stealing(
                    items,
                    self.threads,
                    DEFAULT_CHUNK,
                    |i| i,
                    0u64,
                    |acc, _, v| *acc += v,
                )
            });
            black_box(sum);
            [ns(took) / items as f64]
        });
        rows.push(("core.scheduler.dispatch_ns", dispatch, "ns"));

        // campaign_par's configuration: the same trials serially and over
        // the work-stealing engine, image already in the process-wide cache.
        let trials = self.count(64);
        let campaign = self.campaign_of(trials);
        black_box(campaign.run().faults);
        let [utilization, steals, efficiency] = self.repeat(|_| {
            let (serial, serial_took) = timed(|| campaign.run());
            let ((parallel, stats), parallel_took) =
                timed(|| campaign.run_stealing_with_stats(self.threads));
            black_box((serial.faults, parallel.faults));
            [
                stats.mean_utilization(),
                stats.total_steals() as f64,
                serial_took.as_secs_f64() / (parallel_took.as_secs_f64() * self.threads as f64),
            ]
        });
        rows.push(("core.scheduler.utilization", utilization, "ratio"));
        rows.push(("core.scheduler.steals", steals, "count"));
        rows.push(("core.scheduler.par_efficiency", efficiency, "ratio"));
    }

    fn sweep(&self, rows: &mut Rows) {
        let ops = self.count(64) as usize;
        let [census, cut] = self.repeat(|r| {
            let mut config = SweepConfig::smoke(self.seed ^ r);
            config.ops = sweep_ops::generate(self.seed ^ r, ops);
            let sweeper = Sweeper::new(config);
            let (spans, census) = timed(|| sweeper.census());
            black_box(spans.map(|s| s.len()).ok());
            let (report, run) = timed(|| sweeper.run());
            let cuts = report.map_or(1, |r| r.trials.max(1));
            [
                ns(census) / 1e3,
                ns(run.saturating_sub(census)) / 1e3 / cuts as f64,
            ]
        });
        rows.push(("core.sweep.census_us", census, "us"));
        rows.push(("core.sweep.cut_us", cut, "us"));
    }

    fn plan(&self, rows: &mut Rows) {
        let calls = self.count(20_000);
        let [wilson_ns, exact_us] = self.repeat(|_| {
            let ((), w) = timed(|| {
                for i in 0..calls {
                    black_box(wilson(i % 97, 100 + i % 400, 0.95));
                }
            });
            let exact_calls = (calls / 100).max(1);
            let ((), e) = timed(|| {
                for i in 0..exact_calls {
                    black_box(clopper_pearson(i % 97, 100 + i % 400, 0.95));
                }
            });
            [ns(w) / calls as f64, ns(e) / 1e3 / exact_calls as f64]
        });
        rows.push(("core.plan.wilson_ns", wilson_ns, "ns"));
        rows.push(("core.plan.clopper_pearson_us", exact_us, "us"));
    }

    fn kv(&self, rows: &mut Rows) {
        let trials = self.count(40);
        let trial_config = KvTrialConfig::standard(
            VendorPreset::SsdA,
            true,
            false,
            KvWorkloadKind::WalBurst,
            250,
        );
        let [trial] = self.repeat(|r| {
            let ((), took) = timed(|| {
                for i in 0..trials {
                    black_box(run_kv_trial(&trial_config, mix64(self.seed ^ r, i)));
                }
            });
            [ns(took) / 1e3 / trials as f64]
        });
        rows.push(("kv.trial_us", trial, "us"));

        // At least two commit groups, also in the smoke run.
        let puts = self.count(384).max(64);
        let [put, commit, recover] = self.repeat(|r| {
            let ssd = Ssd::new(trial_config.ssd, DetRng::new(self.seed ^ r).fork("device"));
            // Group commits only when asked for, so appends and commits
            // are timed apart.
            let kv = KvConfig {
                group_commit_ops: 32,
                ..KvConfig::small()
            };
            let mut store = KvStore::new(ssd, kv);
            let (mut put_time, mut commit_time, mut commits) =
                (Duration::ZERO, Duration::ZERO, 0u64);
            for i in 0..puts {
                let (acked, took) = timed(|| store.put(i % kv.key_space, i));
                // A put that filled the group ran the commit itself.
                if acked.is_ok_and(|n| n > 0) {
                    commit_time += took;
                    commits += 1;
                } else {
                    put_time += took;
                }
            }
            // A few appended-but-uncommitted records for recovery to replay.
            for i in 0..kv.group_commit_ops / 2 {
                let _ = store.put(i % kv.key_space, puts + i);
            }
            let cut =
                FaultInjector::transistor().timeline(store.now() + SimDuration::from_micros(50));
            store.arm_cut(cut);
            store.advance_to(cut.discharged + SimDuration::from_millis(1));
            let (report, recover) =
                timed(|| store.recover(cut.discharged + SimDuration::from_secs(1)));
            black_box(report.is_ok());
            [
                ns(put_time) / (puts - commits).max(1) as f64,
                ns(commit_time) / 1e3 / commits.max(1) as f64,
                ns(recover) / 1e3,
            ]
        });
        rows.push(("kv.put_ns", put, "ns"));
        rows.push(("kv.commit_us", commit, "us"));
        rows.push(("kv.recover_us", recover, "us"));
    }

    fn fleet(&self, rows: &mut Rows) {
        let trials = self.count(8);
        let config = FleetConfig::small();
        let [trial] = self.repeat(|r| {
            let ((), took) = timed(|| {
                for i in 0..trials {
                    black_box(
                        FleetSim::run(&config, mix64(self.seed ^ r, i))
                            .tally
                            .stripes_total,
                    );
                }
            });
            [ns(took) / 1e6 / trials as f64]
        });
        rows.push(("fleet.trial_ms", trial, "ms"));

        let code = RsCode::new(config.data_chunks, config.parity_chunks);
        let chunk_bytes = self.count(1 << 20) as usize;
        let data: Vec<Vec<u8>> = (0..config.data_chunks)
            .map(|c| (0..chunk_bytes).map(|i| (i * 31 + c * 7) as u8).collect())
            .collect();
        let megabytes = (chunk_bytes * config.data_chunks) as f64 / 1e6;
        let [encode, reconstruct] = self.repeat(|_| {
            let (parity, encode) = timed(|| code.encode(&data));
            // The worst case a stripe survives: as many data chunks
            // missing as there is parity.
            let available: Vec<(usize, &[u8])> = data
                .iter()
                .enumerate()
                .skip(config.parity_chunks)
                .map(|(i, d)| (i, d.as_slice()))
                .chain(
                    parity
                        .iter()
                        .enumerate()
                        .map(|(i, p)| (config.data_chunks + i, p.as_slice())),
                )
                .collect();
            let (rebuilt, reconstruct) = timed(|| code.reconstruct(&available));
            assert_eq!(
                rebuilt.ok().as_ref(),
                Some(&data),
                "reconstruction must return the data"
            );
            [
                megabytes / encode.as_secs_f64(),
                megabytes / reconstruct.as_secs_f64(),
            ]
        });
        rows.push(("fleet.rs_encode_mb_per_s", encode, "MB/s"));
        rows.push(("fleet.rs_reconstruct_mb_per_s", reconstruct, "MB/s"));
    }

    fn serve(&self, rows: &mut Rows) {
        // A `done` event carries the whole report: the big frame on the wire.
        let report = self.campaign_of(8).run();
        let body = serde_json::to_string(&report).expect("reports serialize");
        let event = JobEvent {
            job: 1,
            seq: 3,
            kind: "done".to_string(),
            completed: 8,
            trials: 8,
            digest: pfault_sim::checksum::fnv64(body.as_bytes()),
            body: body.clone(),
        };
        let rounds = self.count(2_000);
        let [encode, decode, roundtrip] = self.repeat(|_| {
            let (frame, encode) = timed(|| {
                let mut frame = Vec::new();
                for _ in 0..rounds {
                    frame = encode_frame(black_box(body.as_bytes()));
                }
                frame
            });
            let ((), decode) = timed(|| {
                for _ in 0..rounds {
                    black_box(
                        decode_frame(&frame)
                            .map(|(payload, used)| (payload.len(), used))
                            .ok(),
                    );
                }
            });
            let ((), roundtrip) = timed(|| {
                for _ in 0..rounds {
                    let frame = encode_message(&event).expect("events encode");
                    let (payload, _) = decode_frame(&frame).expect("own frame decodes");
                    let back: JobEvent = decode_message(&payload).expect("own message decodes");
                    black_box(back.seq);
                }
            });
            [
                ns(encode) / rounds as f64,
                ns(decode) / rounds as f64,
                ns(roundtrip) / 1e3 / rounds as f64,
            ]
        });
        rows.push(("serve.frame.encode_ns", encode, "ns"));
        rows.push(("serve.frame.decode_ns", decode, "ns"));
        rows.push(("serve.proto.event_roundtrip_us", roundtrip, "us"));

        let writes = self.count(200);
        let progress = JobEvent {
            kind: "progress".to_string(),
            body: String::new(),
            ..event.clone()
        };
        let [append, write_done] = self.repeat(|r| {
            let spool =
                Spool::open(self.scratch.join(format!("spool-{r}"))).expect("scratch is writable");
            let ((), append) = timed(|| {
                for seq in 0..writes {
                    let event = JobEvent {
                        seq,
                        ..progress.clone()
                    };
                    spool.append_event(&event).expect("scratch is writable");
                }
            });
            let ((), done) = timed(|| {
                for job in 0..writes {
                    spool.write_done(job, &body).expect("scratch is writable");
                }
            });
            [
                ns(append) / 1e3 / writes as f64,
                ns(done) / 1e3 / writes as f64,
            ]
        });
        rows.push(("serve.spool.append_event_us", append, "us"));
        rows.push(("serve.spool.write_done_us", write_done, "us"));
    }

    fn obs_and_sim(&self, rows: &mut Rows) {
        let trials = self.count(24);
        let with_obs = TestPlatform::new(self.platform.config().with_obs(true));
        let obs_image = with_obs.warm_image();
        let records = with_obs
            .run_trial_from_image(&obs_image, self.seed)
            .map(|outcome| outcome.probe_records)
            .unwrap_or_default();
        let [overhead, from_records] = self.repeat(|r| {
            let seeds = (0..trials).map(|i| mix64(self.seed ^ r, i));
            let (mut off, mut on) = (Vec::new(), Vec::new());
            for seed in seeds {
                let (a, plain) = timed(|| self.platform.run_trial_from_image(self.image, seed));
                let (b, probed) = timed(|| with_obs.run_trial_from_image(&obs_image, seed));
                black_box((a.is_ok(), b.is_ok()));
                off.push(ns(plain));
                on.push(ns(probed));
            }
            let (off, on) = (median(off), median(on));
            const FOLDS: u32 = 20;
            let ((), fold) = timed(|| {
                for _ in 0..FOLDS {
                    black_box(Metrics::from_records(&records).is_empty());
                }
            });
            [(on - off) / off * 100.0, ns(fold) / 1e3 / f64::from(FOLDS)]
        });
        rows.push(("obs.probe_overhead_pct", overhead, "%"));
        rows.push(("obs.metrics_from_records_us", from_records, "us"));

        let buffer: Vec<u8> = (0..self.count(4 << 20)).map(|i| (i * 131) as u8).collect();
        let draws = self.count(4_000_000);
        let [crc, rng_next] = self.repeat(|r| {
            let (sum, crc) = timed(|| crc32(black_box(&buffer)));
            black_box(sum);
            let mut rng = DetRng::new(self.seed ^ r);
            let (acc, draw) = timed(|| {
                let mut acc = 0u64;
                for _ in 0..draws {
                    acc ^= rng.next_u64();
                }
                acc
            });
            black_box(acc);
            [
                buffer.len() as f64 / 1e6 / crc.as_secs_f64(),
                ns(draw) / draws as f64,
            ]
        });
        rows.push(("sim.crc32_mb_per_s", crc, "MB/s"));
        rows.push(("sim.rng_next_ns", rng_next, "ns"));
    }
}
