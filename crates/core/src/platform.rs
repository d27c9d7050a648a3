//! The test platform: one fault-injection trial end to end.
//!
//! A trial mirrors the paper's methodology (§III): the IO Generator
//! submits data packets to the device while the Scheduler picks a random
//! instant and commands the fault injector; the supply discharges; the
//! device dies mid-work; power returns; the Analyzer classifies every
//! tracked request.

use serde::{Deserialize, Serialize};

use pfault_flash::array::PageData;
use pfault_obs::{Metrics, ProbeRecord};
use pfault_power::{FaultInjector, FaultTimeline};
use pfault_sim::checksum::fnv64;
use pfault_sim::{DetRng, SectorCount, SimDuration, SimTime};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::{Completion, RecoveryReport, SsdConfig, VendorPreset};
use pfault_trace::split;
use pfault_workload::{ArrivalModel, WorkloadGenerator, WorkloadSpec};

use crate::analyzer::{classify_all, FailureCounts, RequestVerdict};
use crate::error::TrialError;
use crate::oracle::Oracle;
use crate::record::RequestRecord;

/// Per-trial runaway protection: bounds on simulated time and event-loop
/// iterations. A trial that exceeds either bound ends with
/// [`TrialError::WatchdogExpired`] instead of hanging the campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Watchdog {
    /// Ceiling on simulated time, in microseconds. `None` = unbounded.
    pub max_sim_time_us: Option<u64>,
    /// Ceiling on event-loop iterations. `None` = unbounded.
    pub max_events: Option<u64>,
}

impl Watchdog {
    /// Generous defaults that no healthy trial approaches: one hour of
    /// simulated time, fifty million loop iterations.
    pub fn generous() -> Self {
        Watchdog {
            max_sim_time_us: Some(3_600_000_000),
            max_events: Some(50_000_000),
        }
    }

    /// Whether a trial at simulated time `now` after `events` iterations
    /// has exceeded either budget.
    pub fn expired(&self, now: SimTime, events: u64) -> bool {
        self.max_sim_time_us
            .is_some_and(|cap| now.as_micros() > cap)
            || self.max_events.is_some_and(|cap| events > cap)
    }
}

/// Configuration of a single trial.
#[derive(Debug, Clone, Copy)]
pub struct TrialConfig {
    /// Device under test.
    pub ssd: SsdConfig,
    /// Workload to run.
    pub workload: WorkloadSpec,
    /// Fault-injection rig.
    pub injector: FaultInjector,
    /// Nominal requests per fault: the Scheduler triggers the fault after
    /// a random fraction of this many requests has completed (the
    /// generator itself flows continuously until the device vanishes).
    pub requests: usize,
    /// The Scheduler arms the fault once this fraction of requests has
    /// completed (a uniform draw between the two bounds).
    pub fault_after_fraction: (f64, f64),
    /// Additional random delay (µs, uniform) between arming and the Off
    /// command — so faults land at arbitrary phases of the IO pipeline.
    pub fault_jitter_us: u64,
    /// Issue a FLUSH barrier after every N write requests (fsync-style),
    /// blocking the closed loop until it completes. `None` = never.
    pub flush_every: Option<u64>,
    /// Runaway-trial protection.
    pub watchdog: Watchdog,
    /// Enable the cross-layer probe bus: the trial outcome then carries
    /// counters/histograms folded from the probe stream, and the stream
    /// itself unless the trial runs inside a campaign. Off by default —
    /// a disabled bus costs one branch per would-be event.
    pub obs: bool,
    /// Recovery-storm knob: probability that another power cut strikes
    /// while a recovery mount is still running (drawn per mount
    /// attempt). `0.0` — the default — never cuts during recovery.
    pub recovery_cut_rate: f64,
    /// Recovery-storm knob: at most this many extra cuts land during the
    /// recovery phase of one trial (bounds the storm so a trial always
    /// terminates in Operational, ReadOnly, or Bricked).
    pub max_recovery_cuts: u32,
    /// Deterministic warm-up: run this many requests of the workload
    /// against the device *before* the trial proper starts. The warm-up
    /// stream is derived from the configuration (not the trial seed), so
    /// every trial under one configuration shares the same warm state —
    /// which is what lets the campaign engine run it once, snapshot the
    /// device, and clone the snapshot per trial. `0` (the default) keeps
    /// the historical cold-start behaviour.
    pub warmup_requests: usize,
}

impl TrialConfig {
    /// The paper's §IV defaults on the SSD A preset: random 4 KiB–1 MiB
    /// writes, ATX discharge rig, 80 requests per fault.
    pub fn paper_default() -> Self {
        TrialConfig {
            ssd: VendorPreset::SsdA.config(),
            workload: WorkloadSpec::builder().build(),
            injector: FaultInjector::arduino_atx_loaded(),
            requests: 80,
            fault_after_fraction: (0.3, 0.9),
            fault_jitter_us: 20_000,
            flush_every: None,
            watchdog: Watchdog::generous(),
            obs: false,
            recovery_cut_rate: 0.0,
            max_recovery_cuts: 0,
            warmup_requests: 0,
        }
    }

    /// Swaps in one of the paper's Table I drives (chainable builder):
    /// `TrialConfig::paper_default().with_vendor(VendorPreset::SsdB)`.
    #[must_use]
    pub fn with_vendor(mut self, vendor: VendorPreset) -> Self {
        self.ssd = vendor.config();
        self
    }

    /// Replaces the workload (chainable builder).
    #[must_use]
    pub fn with_workload(mut self, workload: WorkloadSpec) -> Self {
        self.workload = workload;
        self
    }

    /// Sets the nominal requests-per-fault count (chainable builder).
    #[must_use]
    pub fn with_requests(mut self, requests: usize) -> Self {
        self.requests = requests;
        self
    }

    /// Turns the probe bus on or off (chainable builder).
    #[must_use]
    pub fn with_obs(mut self, obs: bool) -> Self {
        self.obs = obs;
        self
    }

    /// Arms the recovery storm: each mount attempt is hit by another
    /// power cut with probability `rate`, up to `max_cuts` cuts per
    /// trial (chainable builder).
    #[must_use]
    pub fn with_recovery_storm(mut self, rate: f64, max_cuts: u32) -> Self {
        self.recovery_cut_rate = rate;
        self.max_recovery_cuts = max_cuts;
        self
    }

    /// Sets the deterministic warm-up length (chainable builder). See
    /// [`TrialConfig::warmup_requests`].
    #[must_use]
    pub fn with_warmup_requests(mut self, warmup_requests: usize) -> Self {
        self.warmup_requests = warmup_requests;
        self
    }
}

/// Everything measured in one trial.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TrialOutcome {
    /// Failure tallies.
    pub counts: FailureCounts,
    /// Per-request verdicts.
    pub verdicts: Vec<RequestVerdict>,
    /// Requests issued before the device vanished.
    pub requests_issued: u64,
    /// Requests the host saw complete.
    pub requests_completed: u64,
    /// Completed requests per second up to the fault command.
    pub responded_iops: f64,
    /// When the Off command was issued.
    pub fault_commanded_ms: f64,
    /// For every failed-but-ACKed request: the interval between its ACK
    /// and the fault command, in milliseconds (§IV-A's quantity).
    pub failed_ack_intervals_ms: Vec<f64>,
    /// Flash-level damage counters for the trial.
    pub interrupted_programs: u64,
    /// Paired-page collateral corruptions.
    pub paired_corruptions: u64,
    /// Scheduler-loop events consumed (the quantity the watchdog's
    /// event budget meters).
    pub events: u64,
    /// What firmware recovery did after the outage (mount attempts,
    /// journal batches replayed/discarded, map rebuild size). `None` for
    /// fault-free trials.
    pub recovery: Option<RecoveryReport>,
    /// Counters and log2 latency histograms derived from the probe
    /// stream. `None` unless [`TrialConfig::obs`] was set.
    pub telemetry: Option<Metrics>,
    /// The raw probe stream (empty unless [`TrialConfig::obs`] was set,
    /// and always empty for a campaign's trials, which read only
    /// [`TrialOutcome::telemetry`]).
    pub probe_records: Vec<ProbeRecord>,
}

/// Runs fault-injection trials. See the crate docs for the architecture.
#[derive(Debug)]
pub struct TestPlatform {
    config: TrialConfig,
    /// [`TestPlatform::config_digest`], computed once: the configuration
    /// cannot change after construction.
    config_digest: u64,
}

impl TestPlatform {
    /// Creates a platform for the given trial configuration.
    pub fn new(config: TrialConfig) -> Self {
        let config_digest = fnv64(format!("{config:?}").as_bytes());
        TestPlatform {
            config,
            config_digest,
        }
    }

    /// The trial configuration.
    pub fn config(&self) -> &TrialConfig {
        &self.config
    }

    /// A stable digest of the trial configuration (FNV-1a over its debug
    /// rendering). Two platforms with equal digests produce identical
    /// warm snapshots, so the campaign engine keys its snapshot cache on
    /// this value.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// Runs one complete trial with the given seed, reporting watchdog
    /// expiry and unrecoverable (bricked) devices as errors instead of
    /// hanging or panicking.
    ///
    /// With [`TrialConfig::warmup_requests`] > 0 the trial starts from
    /// the configuration-derived warm state (built inline here; see
    /// [`TestPlatform::warm_image`] for the memoizable variant). The
    /// two paths are byte-identical by construction: both end with the
    /// same warm device and the same
    /// [`reseed_for_trial`](Ssd::reseed_for_trial) fork.
    pub fn run_trial(&self, seed: u64) -> Result<TrialOutcome, TrialError> {
        self.run_trial_on(self.trial_device(None, seed), seed, true)
    }

    /// Runs one complete trial starting from a previously captured warm
    /// device image instead of replaying the warm-up: the trial device
    /// is a copy-on-write clone of the image
    /// ([`pfault_ssd::DeviceImage::clone_cow`]), so per-trial setup
    /// costs the trial's working set, not the whole device. The image
    /// must come from a platform with the same
    /// [`TestPlatform::config_digest`].
    ///
    /// # Panics
    ///
    /// Panics when the image was captured under a different trial
    /// configuration: a trial on foreign state would be silently wrong.
    pub fn run_trial_from_image(
        &self,
        image: &pfault_ssd::DeviceImage,
        seed: u64,
    ) -> Result<TrialOutcome, TrialError> {
        self.run_trial_on(self.trial_device(Some(image), seed), seed, true)
    }

    /// The campaign's trial: [`TestPlatform::run_trial_from_image`] with
    /// an image, [`TestPlatform::run_trial`] without, except that an obs
    /// trial folds its probes into [`TrialOutcome::telemetry`] as they
    /// fire and keeps no [`TrialOutcome::probe_records`]. A campaign
    /// reads only the telemetry.
    pub(crate) fn run_campaign_trial(
        &self,
        image: Option<&pfault_ssd::DeviceImage>,
        seed: u64,
    ) -> Result<TrialOutcome, TrialError> {
        self.run_trial_on(self.trial_device(image, seed), seed, false)
    }

    /// The device a trial starts from, reseeded for `seed`: a
    /// copy-on-write clone of `image`, or else a cold device or one warmed
    /// inline. The two warm paths are byte-identical by construction.
    ///
    /// # Panics
    ///
    /// Panics when the image was captured under a different trial
    /// configuration.
    fn trial_device(&self, image: Option<&pfault_ssd::DeviceImage>, seed: u64) -> Ssd {
        if let Some(image) = image {
            assert_eq!(
                image.config_digest(),
                self.config_digest(),
                "image captured under a different trial configuration"
            );
            let mut ssd = image.clone_cow();
            ssd.reseed_for_trial(seed);
            ssd
        } else if self.config.warmup_requests == 0 {
            Ssd::new(self.config.ssd, DetRng::new(seed).fork("ssd"))
        } else {
            let mut ssd = self.warm_ssd();
            ssd.reseed_for_trial(seed);
            ssd
        }
    }

    /// Builds the configuration-derived warm device: the same
    /// [`TrialConfig::warmup_requests`]-long workload prefix for every
    /// call, independent of any trial seed. Quiesces before returning so
    /// the warm state is an idle device (empty pipeline, clean cache).
    fn warm_ssd(&self) -> Ssd {
        let root = DetRng::new(self.config_digest()).fork("warmup");
        let mut ssd = Ssd::new(self.config.ssd, root.fork("ssd"));
        let mut generator = WorkloadGenerator::new(self.config.workload, root.fork("workload"));
        let queue_depth = match self.config.workload.arrival {
            ArrivalModel::ClosedLoop { queue_depth } => queue_depth as usize,
            ArrivalModel::OpenLoop { .. } | ArrivalModel::OpenLoopPoisson { .. } => 64,
        };
        let total = self.config.warmup_requests;
        let mut issued = 0usize;
        let mut outstanding = 0usize;
        while issued < total || outstanding > 0 {
            while outstanding < queue_depth && issued < total {
                outstanding += Self::issue(&mut ssd, generator.next_packet());
                issued += 1;
            }
            for _c in ssd.drain_completions() {
                outstanding = outstanding.saturating_sub(1);
            }
            if let Some(t) = ssd.next_event() {
                ssd.advance_to(t.max(ssd.now() + SimDuration::from_micros(1)));
            } else if outstanding > 0 {
                ssd.advance_to(ssd.now() + SimDuration::from_millis(1));
            }
        }
        ssd.quiesce();
        ssd.drain_completions();
        ssd
    }

    /// Runs the warm-up once and captures the result as a frozen
    /// [`pfault_ssd::DeviceImage`] that
    /// [`TestPlatform::run_trial_from_image`] can clone per trial.
    /// Meaningful only with [`TrialConfig::warmup_requests`] > 0 (a
    /// zero-warm-up image is just a cold device).
    pub fn warm_image(&self) -> pfault_ssd::DeviceImage {
        self.warm_ssd().capture(self.config_digest())
    }

    /// The trial main loop, starting from a pre-built device (cold,
    /// warmed inline, or cloned from a warm image). With
    /// [`TrialConfig::obs`] set, `keep_records` says whether the probe
    /// stream is returned as well as its metrics.
    fn run_trial_on(
        &self,
        mut ssd: Ssd,
        seed: u64,
        keep_records: bool,
    ) -> Result<TrialOutcome, TrialError> {
        let root = DetRng::new(seed);
        let mut sched_rng = root.fork("scheduler");
        if self.config.obs {
            if keep_records {
                ssd.enable_probes();
            } else {
                ssd.enable_probe_metrics();
            }
        }
        let mut generator = WorkloadGenerator::new(self.config.workload, root.fork("workload"));
        let mut oracle = Oracle::new();
        let mut records: Vec<RequestRecord> = Vec::with_capacity(self.config.requests);

        let total = self.config.requests;
        let (lo, hi) = self.config.fault_after_fraction;
        let trigger_at = ((total as f64) * (lo + (hi - lo) * sched_rng.unit_f64())) as u64;
        let jitter = SimDuration::from_micros(sched_rng.below(self.config.fault_jitter_us.max(1)));

        let queue_depth = match self.config.workload.arrival {
            ArrivalModel::ClosedLoop { queue_depth } => queue_depth as usize,
            ArrivalModel::OpenLoop { .. } | ArrivalModel::OpenLoopPoisson { .. } => usize::MAX,
        };

        let mut issued = 0usize;
        let mut outstanding = 0usize;
        let mut completed = 0u64;
        let mut fault: Option<FaultTimeline> = None;
        let mut next_arrival: Option<SimTime> = None;

        // Pre-generate nothing: packets are drawn lazily so sequence modes
        // stay aligned with submission order.
        let mut pending_packet: Option<pfault_workload::DataPacket> = None;

        // FLUSH barriers use ids far above any data request and are not
        // entered into the records (the paper tracks data packets only).
        const FLUSH_ID_BASE: u64 = 1 << 40;
        let mut writes_since_flush = 0u64;
        let mut flush_counter = 0u64;
        let mut events = 0u64;

        loop {
            // Watchdog: a wedged pipeline or a degenerate configuration
            // must end the trial, not the campaign.
            events += 1;
            if self.config.watchdog.expired(ssd.now(), events) {
                return Err(TrialError::WatchdogExpired {
                    seed,
                    sim_time_us: ssd.now().as_micros(),
                    events,
                });
            }

            // Drain completions into the request ledger and the oracle
            // first, so the closed loop can refill before the idle check
            // below.
            for c in ssd.drain_completions() {
                outstanding = outstanding.saturating_sub(1);
                if c.request_id >= FLUSH_ID_BASE {
                    continue; // FLUSH barrier: nothing to verify
                }
                Self::apply_completion(&mut records, &mut oracle, &c);
                if records[c.request_id as usize].completed()
                    && records[c.request_id as usize].acked_at == Some(c.time)
                {
                    completed += 1;
                }
            }

            // Arm the fault once enough requests completed.
            if fault.is_none() && completed >= trigger_at {
                let commanded = ssd.now() + jitter;
                fault = Some(self.config.injector.timeline(commanded));
            }
            // The host is oblivious to the armed fault: it keeps
            // submitting until the device actually vanishes at host_lost.
            let device_reachable = fault.is_none_or(|f| ssd.now() < f.host_lost);

            // Submit work. The generator flows continuously until the
            // device vanishes — `requests` only positions the fault
            // trigger (the paper's "N requests per fault" is an average).
            if device_reachable {
                match self.config.workload.arrival {
                    ArrivalModel::ClosedLoop { .. } => {
                        while outstanding < queue_depth {
                            let packet = generator.next_packet();
                            let subs = Self::submit_packet(&mut ssd, &oracle, &mut records, packet);
                            issued += 1;
                            outstanding += subs;
                            if packet.is_write {
                                writes_since_flush += 1;
                                if self
                                    .config
                                    .flush_every
                                    .is_some_and(|n| writes_since_flush >= n)
                                {
                                    writes_since_flush = 0;
                                    flush_counter += 1;
                                    ssd.submit_flush(FLUSH_ID_BASE + flush_counter, 0);
                                    outstanding += 1;
                                }
                            }
                        }
                    }
                    ArrivalModel::OpenLoop { .. } | ArrivalModel::OpenLoopPoisson { .. } => loop {
                        let packet = *pending_packet.get_or_insert_with(|| generator.next_packet());
                        if packet.arrival > ssd.now() {
                            next_arrival = Some(packet.arrival);
                            break;
                        }
                        pending_packet = None;
                        let subs = Self::submit_packet(&mut ssd, &oracle, &mut records, packet);
                        issued += 1;
                        outstanding += subs;
                    },
                }
            }

            // The loop ends when the device vanishes from the host.
            if let Some(timeline) = fault {
                if ssd.now() >= timeline.host_lost {
                    break;
                }
            }

            // Advance to the next interesting instant.
            let mut target: Option<SimTime> = ssd.next_event();
            if let Some(t) = next_arrival {
                target = Some(target.map_or(t, |x| x.min(t)));
            }
            if let Some(timeline) = fault {
                target = Some(target.map_or(timeline.host_lost, |x| x.min(timeline.host_lost)));
            }
            match target {
                Some(t) => {
                    let t = t.max(ssd.now() + SimDuration::from_micros(1));
                    ssd.advance_to(t);
                }
                None => {
                    // Nothing left to do. If all requests are done and no
                    // fault was armed yet (tiny trials), arm it now.
                    if let Some(timeline) = fault {
                        ssd.advance_to(timeline.host_lost);
                    } else {
                        let commanded = ssd.now() + jitter;
                        fault = Some(self.config.injector.timeline(commanded));
                    }
                }
            }
        }

        let timeline = fault.expect("loop exits only with an armed fault");
        let fault_commanded = timeline.commanded;

        // The outage.
        ssd.power_fail(&timeline);
        for c in ssd.drain_completions() {
            if c.request_id >= FLUSH_ID_BASE {
                continue;
            }
            Self::apply_completion(&mut records, &mut oracle, &c);
        }

        // Power restore and firmware recovery, one second after full
        // discharge (the paper power-cycles between injections). A failed
        // or interrupted mount gets another power cycle after a
        // deterministic exponential backoff (1 s, 2 s, 4 s, …); a device
        // that exhausts its retries before rebuilding a mapping is
        // bricked — a terminal trial outcome — while one that already
        // rebuilt its map degrades to a read-only mount instead. With
        // `recovery_cut_rate` armed, further cuts can land while the
        // recovery pipeline itself runs (the recovery storm): the mount
        // is interrupted mid-stage and the next attempt resumes it.
        let mut recovery_time = timeline.discharged + SimDuration::from_secs(1);
        let mut backoff = SimDuration::from_secs(1);
        let mut storm_cuts = 0u32;
        let recovery = loop {
            let storm = self.config.recovery_cut_rate > 0.0
                && storm_cuts < self.config.max_recovery_cuts
                && sched_rng.chance(self.config.recovery_cut_rate);
            let result = if storm {
                // An idealised instantaneous cut (the sweeper's primitive)
                // a short lead into the mount: the rig's discharge ramp
                // would push `flash_unreliable` milliseconds out — past
                // the whole pipeline — and every storm cut would fizzle.
                let lead = SimDuration::from_micros(50 + sched_rng.below(500));
                let cut = pfault_power::FaultTimeline::at_instant(recovery_time + lead);
                ssd.power_on_recover_interruptible(recovery_time, &cut)
            } else {
                ssd.power_on_recover(recovery_time)
            };
            match result {
                // A storm cut scheduled after the pipeline finished is a
                // fizzle: the mount simply succeeded.
                Ok(report) => break report,
                Err(pfault_ssd::DeviceError::Bricked { attempts }) => {
                    return Err(TrialError::DeviceBricked { seed, attempts });
                }
                Err(pfault_ssd::DeviceError::RecoveryFailed { .. }) => {
                    // The mount worked but FTL recovery rebuilt an
                    // unusable device; the device has already bricked
                    // itself and retrying cannot change the outcome.
                    return Err(TrialError::DeviceBricked { seed, attempts: 1 });
                }
                Err(pfault_ssd::DeviceError::MountFailed { .. }) => {
                    recovery_time = ssd.now() + backoff;
                    backoff = backoff * 2;
                }
                Err(pfault_ssd::DeviceError::RecoveryInterrupted { .. }) => {
                    // The cut landed inside the pipeline: the session is
                    // checkpointed on the device and the next mount
                    // resumes it.
                    storm_cuts += 1;
                    recovery_time = ssd.now() + backoff;
                    backoff = backoff * 2;
                }
                Err(
                    e @ (pfault_ssd::DeviceError::NotMounted | pfault_ssd::DeviceError::ReadOnly),
                ) => unreachable!("power_on_recover never returns {e}"),
            }
        };

        // Verification + classification (reads still serve on a
        // read-only-degraded device, so the verdicts exist either way).
        let (verdicts, mut counts) = classify_all(&records, &oracle, &mut ssd);
        counts.read_only_devices = u64::from(recovery.read_only);

        let failed_ack_intervals_ms = records
            .iter()
            .zip(&verdicts)
            .filter(|(r, v)| {
                r.acked_at.is_some()
                    && matches!(
                        v.kind,
                        crate::analyzer::FailureKind::DataFailure
                            | crate::analyzer::FailureKind::FalseWriteAck
                    )
            })
            .map(|(r, _)| {
                fault_commanded
                    .saturating_since(r.acked_at.expect("filtered on acked"))
                    .as_millis_f64()
            })
            .collect();

        let elapsed_s = fault_commanded.as_micros().max(1) as f64 / 1_000_000.0;
        let completed_before_fault = records
            .iter()
            .filter(|r| r.acked_at.is_some_and(|t| t <= fault_commanded))
            .count();
        let flash = ssd.flash_stats();
        let telemetry = self.config.obs.then(|| ssd.probe_metrics());
        let probe_records = ssd.take_probe_records();
        Ok(TrialOutcome {
            counts,
            verdicts,
            requests_issued: issued as u64,
            requests_completed: completed,
            responded_iops: completed_before_fault as f64 / elapsed_s,
            fault_commanded_ms: fault_commanded.as_millis_f64(),
            failed_ack_intervals_ms,
            interrupted_programs: flash.interrupted_programs,
            paired_corruptions: flash.paired_corruptions,
            events,
            recovery: Some(recovery),
            telemetry,
            probe_records,
        })
    }

    /// Records the packet in the request ledger and issues it. Returns
    /// the number of sub-requests submitted.
    fn submit_packet(
        ssd: &mut Ssd,
        oracle: &Oracle,
        records: &mut Vec<RequestRecord>,
        packet: pfault_workload::DataPacket,
    ) -> usize {
        debug_assert_eq!(packet.id as usize, records.len(), "ids must be dense");
        let pre: Vec<Option<PageData>> = packet
            .lbas()
            .map(|l| oracle.expected(l).map(|v| v.data))
            .collect();
        let queued_at = ssd.now();
        let subs = Self::issue(ssd, packet);
        records.push(RequestRecord::new(packet, pre, subs as u32, queued_at));
        subs
    }

    /// Splits the packet at the device's segment limit, as the block
    /// layer does, and submits one command per sub-request. Returns the
    /// number of sub-requests submitted.
    fn issue(ssd: &mut Ssd, packet: pfault_workload::DataPacket) -> usize {
        let subs = split(
            packet.id,
            packet.lba,
            packet.sectors,
            packet.is_write,
            SectorCount::new(ssd.config().max_segment_sectors),
        );
        let mut offset = 0u64;
        for sub in &subs {
            let cmd = if packet.is_write {
                HostCommand::write(
                    packet.id,
                    sub.sub_id,
                    sub.lba,
                    sub.sectors,
                    packet.payload_tag,
                )
                .with_payload_offset(offset)
            } else {
                HostCommand::read(packet.id, sub.sub_id, sub.lba, sub.sectors)
            };
            offset += sub.sectors.get();
            ssd.submit(cmd);
        }
        subs.len()
    }

    fn apply_completion(records: &mut [RequestRecord], oracle: &mut Oracle, c: &Completion) {
        let record = &mut records[c.request_id as usize];
        if c.acked() {
            record.note_sub_ack(c.time);
            if record.completed() && record.packet.is_write && record.acked_at == Some(c.time) {
                // The whole request is ACKed: the host now *expects* this
                // content on the device.
                let packet = record.packet;
                for (i, lba) in packet.lbas().enumerate() {
                    oracle.acknowledge_write(
                        lba,
                        PageData::from_tag(packet.sector_tag(i as u64)),
                        packet.id,
                    );
                }
            }
        } else {
            record.note_sub_error();
        }
    }

    /// Convenience wrapper: a trial that never injects a fault (sanity
    /// baseline — everything must verify intact). Runs `requests` requests
    /// to completion, quiesces, and classifies.
    pub fn run_fault_free(&self, seed: u64) -> TrialOutcome {
        let root = DetRng::new(seed);
        let mut ssd = Ssd::new(self.config.ssd, root.fork("ssd"));
        if self.config.obs {
            ssd.enable_probes();
        }
        let mut generator = WorkloadGenerator::new(self.config.workload, root.fork("workload"));
        let mut oracle = Oracle::new();
        let mut records: Vec<RequestRecord> = Vec::new();
        let queue_depth = match self.config.workload.arrival {
            ArrivalModel::ClosedLoop { queue_depth } => queue_depth as usize,
            ArrivalModel::OpenLoop { .. } | ArrivalModel::OpenLoopPoisson { .. } => 64,
        };
        let mut issued = 0usize;
        let mut outstanding = 0usize;
        while issued < self.config.requests || outstanding > 0 {
            while outstanding < queue_depth && issued < self.config.requests {
                let packet = generator.next_packet();
                outstanding += Self::submit_packet(&mut ssd, &oracle, &mut records, packet);
                issued += 1;
            }
            for c in ssd.drain_completions() {
                outstanding = outstanding.saturating_sub(1);
                Self::apply_completion(&mut records, &mut oracle, &c);
            }
            if let Some(t) = ssd.next_event() {
                ssd.advance_to(t.max(ssd.now() + SimDuration::from_micros(1)));
            } else if outstanding > 0 {
                ssd.advance_to(ssd.now() + SimDuration::from_millis(1));
            }
        }
        ssd.quiesce();
        let (verdicts, counts) = classify_all(&records, &oracle, &mut ssd);
        let telemetry = self.config.obs.then(|| ssd.probe_metrics());
        let probe_records = ssd.take_probe_records();
        TrialOutcome {
            counts,
            verdicts,
            requests_issued: issued as u64,
            requests_completed: records.iter().filter(|r| r.completed()).count() as u64,
            responded_iops: 0.0,
            fault_commanded_ms: 0.0,
            failed_ack_intervals_ms: Vec::new(),
            interrupted_programs: 0,
            paired_corruptions: 0,
            events: 0,
            recovery: None,
            telemetry,
            probe_records,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::FailureKind;

    fn small_config() -> TrialConfig {
        let mut c = TrialConfig::paper_default();
        // Shrink geometry for test speed (blocks materialise lazily, but
        // the allocator bookkeeping is cheaper too).
        c.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        c.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(c.ssd.geometry);
        c.workload = WorkloadSpec::builder()
            .wss_bytes(4 * pfault_sim::storage::GIB)
            .build();
        c.requests = 40;
        c
    }

    #[test]
    fn fault_free_trial_is_clean() {
        let platform = TestPlatform::new(small_config());
        let outcome = platform.run_fault_free(7);
        assert_eq!(outcome.requests_issued, 40);
        assert_eq!(outcome.requests_completed, 40);
        assert_eq!(outcome.counts.data_failures, 0, "{:?}", outcome.counts);
        assert_eq!(outcome.counts.fwa, 0);
        assert_eq!(outcome.counts.io_errors, 0);
        assert_eq!(outcome.counts.intact, 40);
    }

    #[test]
    fn trial_is_deterministic() {
        let platform = TestPlatform::new(small_config());
        let a = platform.run_trial(123).expect("trial runs");
        let b = platform.run_trial(123).expect("trial runs");
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.requests_issued, b.requests_issued);
        assert_eq!(a.fault_commanded_ms, b.fault_commanded_ms);
    }

    #[test]
    fn different_seeds_vary_fault_instants() {
        let platform = TestPlatform::new(small_config());
        let a = platform.run_trial(1).expect("trial runs");
        let b = platform.run_trial(2).expect("trial runs");
        assert_ne!(a.fault_commanded_ms, b.fault_commanded_ms);
    }

    #[test]
    fn faults_produce_failures_on_write_workloads() {
        let platform = TestPlatform::new(small_config());
        let mut loss = 0;
        for seed in 0..10 {
            let o = platform.run_trial(seed).expect("trial runs");
            loss += o.counts.total_data_loss();
        }
        assert!(loss > 0, "10 faults on a write workload must lose data");
    }

    #[test]
    fn read_only_workload_has_no_data_loss_but_io_errors() {
        let mut config = small_config();
        config.workload = WorkloadSpec::builder()
            .wss_bytes(4 * pfault_sim::storage::GIB)
            .write_fraction(0.0)
            .build();
        let platform = TestPlatform::new(config);
        let mut io_errors = 0;
        for seed in 0..10 {
            let o = platform.run_trial(seed).expect("trial runs");
            assert_eq!(o.counts.total_data_loss(), 0, "reads cannot lose data");
            io_errors += o.counts.io_errors;
        }
        assert!(io_errors > 0, "faults mid-read must produce IO errors");
    }

    #[test]
    fn verdict_kinds_are_consistent_with_counts() {
        let platform = TestPlatform::new(small_config());
        let o = platform.run_trial(99).expect("trial runs");
        let df = o
            .verdicts
            .iter()
            .filter(|v| v.kind == FailureKind::DataFailure)
            .count() as u64;
        assert_eq!(df, o.counts.data_failures);
    }

    #[test]
    fn warm_image_is_deterministic() {
        let platform = TestPlatform::new(small_config().with_warmup_requests(24));
        let a = platform.warm_image();
        let b = platform.warm_image();
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.config_digest(), platform.config_digest());
        assert!(a.warm_now() > SimTime::from_micros(0), "warm-up must run");
    }

    #[test]
    fn image_trials_match_inline_warmup_byte_for_byte() {
        let platform = TestPlatform::new(small_config().with_warmup_requests(24));
        let image = platform.warm_image();
        for seed in [3u64, 17, 99] {
            let inline = platform.run_trial(seed).expect("trial runs");
            let cloned = platform
                .run_trial_from_image(&image, seed)
                .expect("trial runs");
            assert_eq!(
                format!("{inline:?}"),
                format!("{cloned:?}"),
                "seed {seed}: a CoW clone must replay the warm-up exactly"
            );
        }
    }

    #[test]
    #[should_panic(expected = "image captured under a different trial configuration")]
    fn foreign_image_is_refused() {
        let image = TestPlatform::new(small_config().with_warmup_requests(8)).warm_image();
        let other = TestPlatform::new(small_config().with_warmup_requests(9));
        let _ = other.run_trial_from_image(&image, 3);
    }

    #[test]
    fn warmup_changes_the_config_digest() {
        let cold = TestPlatform::new(small_config());
        let warm = TestPlatform::new(small_config().with_warmup_requests(24));
        assert_ne!(cold.config_digest(), warm.config_digest());
    }

    #[test]
    fn supercap_eliminates_data_loss() {
        let mut config = small_config();
        config.ssd.supercap = true;
        let platform = TestPlatform::new(config);
        for seed in 0..5 {
            let o = platform.run_trial(seed).expect("trial runs");
            assert_eq!(
                o.counts.total_data_loss(),
                0,
                "supercap drive lost data at seed {seed}: {:?}",
                o.counts
            );
        }
    }
}
