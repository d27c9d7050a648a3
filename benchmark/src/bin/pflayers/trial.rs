//! The traced trial: a benchmark-side driver that performs one
//! fault-injection trial through the crates' public functions only, with
//! a span around every call into a layer. It mirrors
//! `TestPlatform::run_trial_from_image` (or `run_trial` with an inline
//! warm-up for the cold flavour) step for step; `main` checks per seed
//! that both arrive at the same outcome. The mirror retires when spans
//! move inside the program.

use pfault_flash::array::PageData;
use pfault_platform::analyzer::{classify_all, FailureCounts, FailureKind};
use pfault_platform::oracle::Oracle;
use pfault_platform::record::RequestRecord;
use pfault_platform::{TestPlatform, TrialError, TrialOutcome};
use pfault_power::FaultTimeline;
use pfault_sim::{DetRng, SectorCount, SimDuration, SimTime};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::{Completion, DeviceError, DeviceImage};
use pfault_trace::{analyze, BlockTracer};
use pfault_workload::{ArrivalModel, DataPacket, WorkloadGenerator};

use crate::spans::Recorder;

/// Span names, which are also the layer names of the metric table.
pub mod name {
    pub const TRIAL: &str = "core.platform.trial";
    pub const WARMUP: &str = "core.platform.warmup";
    pub const CLONE_COW: &str = "ssd.snapshot.clone_cow";
    pub const DROP: &str = "ssd.snapshot.drop";
    pub const SUBMIT: &str = "ssd.device.submit";
    pub const ADVANCE: &str = "ssd.device.advance_to";
    pub const NEXT_EVENT: &str = "ssd.device.next_event";
    pub const DRAIN: &str = "ssd.device.drain_completions";
    pub const POWER_FAIL: &str = "ssd.device.power_fail";
    pub const RECOVER: &str = "ssd.device.power_on_recover";
    pub const TIMELINE: &str = "power.timeline";
    pub const CLASSIFY: &str = "core.analyzer.classify_all";
    pub const BTT: &str = "trace.btt_analyze";
    pub const TRACER: &str = "trace.tracer";
    pub const NEXT_PACKET: &str = "workload.next_packet";
}

/// Where the trial's device comes from.
pub enum Device<'a> {
    /// A copy-on-write clone of the warm image (campaign_warm, _par, serve).
    Image(&'a DeviceImage),
    /// Built cold and warmed inline by replaying the warm-up (campaign_cold).
    Cold,
}

/// What the mirror and the real trial must agree on.
#[derive(Debug, Clone, PartialEq)]
pub enum Parity {
    Outcome {
        counts: FailureCounts,
        requests_issued: u64,
        events: u64,
    },
    Bricked,
    WatchdogExpired,
    Other(String),
}

impl Parity {
    pub fn of(result: &Result<TrialOutcome, TrialError>) -> Parity {
        match result {
            Ok(outcome) => Parity::Outcome {
                counts: outcome.counts,
                requests_issued: outcome.requests_issued,
                events: outcome.events,
            },
            Err(TrialError::DeviceBricked { .. }) => Parity::Bricked,
            Err(TrialError::WatchdogExpired { .. }) => Parity::WatchdogExpired,
            Err(other) => Parity::Other(other.to_string()),
        }
    }
}

/// What the traced trial measured besides time.
pub struct Traced {
    pub parity: Parity,
    /// Blocks the trial materialised in its copy-on-write overlay.
    pub overlay_blocks: usize,
}

/// The trial configurations the mirror covers: the campaign's (closed
/// loop, no flush barriers, no recovery storm, probes off).
pub fn supported(platform: &TestPlatform) -> Result<(), String> {
    let c = platform.config();
    if !matches!(c.workload.arrival, ArrivalModel::ClosedLoop { .. }) {
        return Err("the traced trial mirrors closed-loop workloads only".to_string());
    }
    if c.flush_every.is_some() || c.recovery_cut_rate > 0.0 || c.obs {
        return Err("the traced trial mirrors no flush barriers, storms or probes".to_string());
    }
    Ok(())
}

fn submit_packet(
    rec: &mut Recorder,
    ssd: &mut Ssd,
    tracer: &mut BlockTracer,
    oracle: &Oracle,
    records: &mut Vec<RequestRecord>,
    packet: DataPacket,
) -> usize {
    let pre: Vec<Option<PageData>> = packet
        .lbas()
        .map(|l| oracle.expected(l).map(|v| v.data))
        .collect();
    let now = ssd.now();
    let subs = rec.leaf(name::TRACER, || {
        tracer.queue_request(packet.id, packet.lba, packet.sectors, packet.is_write, now)
    });
    records.push(RequestRecord::new(packet, pre, subs.len() as u32, now));
    let mut offset = 0u64;
    let count = subs.len();
    for sub in subs {
        rec.leaf(name::TRACER, || tracer.dispatch(packet.id, sub.sub_id, now));
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
        rec.leaf(name::SUBMIT, || ssd.submit(cmd));
    }
    count
}

fn apply_completion(
    rec: &mut Recorder,
    tracer: &mut BlockTracer,
    records: &mut [RequestRecord],
    oracle: &mut Oracle,
    c: &Completion,
) {
    let record = &mut records[c.request_id as usize];
    if c.acked() {
        rec.leaf(name::TRACER, || {
            tracer.complete(c.request_id, c.sub_id, c.time)
        });
        record.note_sub_ack(c.time);
        if record.completed() && record.packet.is_write && record.acked_at == Some(c.time) {
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
        rec.leaf(name::TRACER, || {
            tracer.error(c.request_id, c.sub_id, c.time)
        });
        record.note_sub_error();
    }
}

fn queue_depth(platform: &TestPlatform) -> usize {
    match platform.config().workload.arrival {
        ArrivalModel::ClosedLoop { queue_depth } => queue_depth as usize,
        ArrivalModel::OpenLoop { .. } | ArrivalModel::OpenLoopPoisson { .. } => {
            unreachable!("supported() admits closed-loop workloads only")
        }
    }
}

/// Mirror of the platform's warm-up: the configuration-derived request
/// prefix against a cold device, then quiesce.
fn warm_up(rec: &mut Recorder, platform: &TestPlatform) -> Ssd {
    let config = platform.config();
    let root = DetRng::new(platform.config_digest()).fork("warmup");
    let mut ssd = Ssd::new(config.ssd, root.fork("ssd"));
    let mut generator = WorkloadGenerator::new(config.workload, root.fork("workload"));
    let mut tracer = BlockTracer::new(SectorCount::new(config.ssd.max_segment_sectors));
    let oracle = Oracle::new();
    let mut records: Vec<RequestRecord> = Vec::new();
    let depth = queue_depth(platform);
    let total = config.warmup_requests;
    let mut issued = 0usize;
    let mut outstanding = 0usize;
    while issued < total || outstanding > 0 {
        while outstanding < depth && issued < total {
            let packet = rec.leaf(name::NEXT_PACKET, || generator.next_packet());
            outstanding += submit_packet(rec, &mut ssd, &mut tracer, &oracle, &mut records, packet);
            issued += 1;
        }
        for _c in rec.leaf(name::DRAIN, || ssd.drain_completions()) {
            outstanding = outstanding.saturating_sub(1);
        }
        if let Some(t) = rec.leaf(name::NEXT_EVENT, || ssd.next_event()) {
            let t = t.max(ssd.now() + SimDuration::from_micros(1));
            rec.leaf(name::ADVANCE, || ssd.advance_to(t));
        } else if outstanding > 0 {
            let t = ssd.now() + SimDuration::from_millis(1);
            rec.leaf(name::ADVANCE, || ssd.advance_to(t));
        }
    }
    ssd.quiesce();
    ssd.drain_completions();
    ssd
}

/// One traced trial. Everything it allocates is dropped before the root
/// span closes, as it is inside the real function.
pub fn traced_trial(
    rec: &mut Recorder,
    platform: &TestPlatform,
    device: &Device,
    seed: u64,
) -> Traced {
    rec.enter(name::TRIAL);
    let traced = trial_body(rec, platform, device, seed);
    rec.exit();
    traced
}

fn trial_body(rec: &mut Recorder, platform: &TestPlatform, device: &Device, seed: u64) -> Traced {
    let mut ssd = match device {
        Device::Image(image) => rec.leaf(name::CLONE_COW, || {
            let mut ssd = image.clone_cow();
            ssd.reseed_for_trial(seed);
            ssd
        }),
        Device::Cold => {
            rec.enter(name::WARMUP);
            let mut ssd = warm_up(rec, platform);
            rec.exit();
            ssd.reseed_for_trial(seed);
            ssd
        }
    };
    let parity = run_on(rec, platform, &mut ssd, seed);
    let overlay_blocks = ssd.flash_overlay_blocks();
    rec.leaf(name::DROP, || drop(ssd));
    Traced {
        parity,
        overlay_blocks,
    }
}

/// Mirror of the platform's trial main loop on a prepared device.
fn run_on(rec: &mut Recorder, platform: &TestPlatform, ssd: &mut Ssd, seed: u64) -> Parity {
    let config = platform.config();
    let root = DetRng::new(seed);
    let mut sched_rng = root.fork("scheduler");
    let mut generator = WorkloadGenerator::new(config.workload, root.fork("workload"));
    let mut tracer = BlockTracer::new(SectorCount::new(config.ssd.max_segment_sectors));
    let mut oracle = Oracle::new();
    let mut records: Vec<RequestRecord> = Vec::with_capacity(config.requests);

    let total = config.requests;
    let (lo, hi) = config.fault_after_fraction;
    let trigger_at = ((total as f64) * (lo + (hi - lo) * sched_rng.unit_f64())) as u64;
    let jitter = SimDuration::from_micros(sched_rng.below(config.fault_jitter_us.max(1)));
    let depth = queue_depth(platform);

    let mut issued = 0usize;
    let mut outstanding = 0usize;
    let mut completed = 0u64;
    let mut fault: Option<FaultTimeline> = None;
    let mut events = 0u64;

    loop {
        events += 1;
        if config.watchdog.expired(ssd.now(), events) {
            return Parity::WatchdogExpired;
        }
        for c in rec.leaf(name::DRAIN, || ssd.drain_completions()) {
            outstanding = outstanding.saturating_sub(1);
            apply_completion(rec, &mut tracer, &mut records, &mut oracle, &c);
            let record = &records[c.request_id as usize];
            if record.completed() && record.acked_at == Some(c.time) {
                completed += 1;
            }
        }
        if fault.is_none() && completed >= trigger_at {
            let commanded = ssd.now() + jitter;
            fault = Some(rec.leaf(name::TIMELINE, || config.injector.timeline(commanded)));
        }
        let device_reachable = fault.is_none_or(|f| ssd.now() < f.host_lost);
        if device_reachable {
            while outstanding < depth {
                let packet = rec.leaf(name::NEXT_PACKET, || generator.next_packet());
                outstanding += submit_packet(rec, ssd, &mut tracer, &oracle, &mut records, packet);
                issued += 1;
            }
        }
        if let Some(timeline) = fault {
            if ssd.now() >= timeline.host_lost {
                break;
            }
        }
        let mut target: Option<SimTime> = rec.leaf(name::NEXT_EVENT, || ssd.next_event());
        if let Some(timeline) = fault {
            target = Some(target.map_or(timeline.host_lost, |x| x.min(timeline.host_lost)));
        }
        match target {
            Some(t) => {
                let t = t.max(ssd.now() + SimDuration::from_micros(1));
                rec.leaf(name::ADVANCE, || ssd.advance_to(t));
            }
            None => {
                if let Some(timeline) = fault {
                    rec.leaf(name::ADVANCE, || ssd.advance_to(timeline.host_lost));
                } else {
                    let commanded = ssd.now() + jitter;
                    fault = Some(rec.leaf(name::TIMELINE, || config.injector.timeline(commanded)));
                }
            }
        }
    }

    let timeline = fault.expect("loop exits only with an armed fault");
    rec.leaf(name::POWER_FAIL, || ssd.power_fail(&timeline));
    for c in rec.leaf(name::DRAIN, || ssd.drain_completions()) {
        apply_completion(rec, &mut tracer, &mut records, &mut oracle, &c);
    }

    let mut recovery_time = timeline.discharged + SimDuration::from_secs(1);
    let mut backoff = SimDuration::from_secs(1);
    let recovery = loop {
        match rec.leaf(name::RECOVER, || ssd.power_on_recover(recovery_time)) {
            Ok(report) => break report,
            Err(DeviceError::Bricked { .. } | DeviceError::RecoveryFailed { .. }) => {
                return Parity::Bricked;
            }
            Err(DeviceError::MountFailed { .. } | DeviceError::RecoveryInterrupted { .. }) => {
                recovery_time = ssd.now() + backoff;
                backoff = backoff * 2;
            }
            Err(e @ (DeviceError::NotMounted | DeviceError::ReadOnly)) => {
                return Parity::Other(e.to_string());
            }
        }
    };

    let btt = rec.leaf(name::BTT, || {
        analyze(tracer.events(), SimDuration::from_secs(30), recovery_time)
    });
    std::hint::black_box(&btt);
    let (verdicts, mut counts) = rec.leaf(name::CLASSIFY, || classify_all(&records, &oracle, ssd));
    counts.read_only_devices = u64::from(recovery.read_only);
    // The outcome's per-request bookkeeping, as the real trial does it.
    let failed_ack_intervals_ms: Vec<f64> = records
        .iter()
        .zip(&verdicts)
        .filter(|(r, v)| {
            r.acked_at.is_some()
                && matches!(
                    v.kind,
                    FailureKind::DataFailure | FailureKind::FalseWriteAck
                )
        })
        .map(|(r, _)| {
            timeline
                .commanded
                .saturating_since(r.acked_at.expect("filtered on acked"))
                .as_millis_f64()
        })
        .collect();
    std::hint::black_box((&verdicts, &failed_ack_intervals_ms));
    Parity::Outcome {
        counts,
        requests_issued: issued as u64,
        events,
    }
}
