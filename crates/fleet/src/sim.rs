//! The fleet simulator: N real [`Ssd`] devices behind an m+k
//! erasure-coded stripe layer, driven through correlated power outages.
//!
//! Every mechanism is mechanistic, not sampled:
//!
//! * Writes go through each device's real cache/FTL pipeline; an outage
//!   cuts power with a per-device RC discharge timeline from
//!   [`pfault_power`], so ACKed-but-unflushed stripe generations revert
//!   on the victims — the paper's false write ACK (FWA), scaled out.
//! * A correlated cut takes down a whole PSU group at (jittered) the
//!   same instant, so no victim gets the few milliseconds of idle time
//!   that would have flushed its cache; independent cuts of the *same
//!   device count* recover and rebuild between victims. The durability
//!   gap between the two is the experiment's headline.
//! * Recovery per device mirrors the platform loop: mount at
//!   `discharged + 1 s`, exponential backoff on failed mounts, terminal
//!   bricks are replaced with a blank device (its chunks become
//!   missing), read-only survivors serve reads but take no writes.
//! * The stripe oracle classifies each chunk after recovery by its
//!   generation witness: `Current`, `Stale` (FWA — checksums pass but
//!   content is a previous ACKed generation), `Garbled` (torn),
//!   `Unreadable`, or `Missing`. A stripe is lost only when fewer than
//!   m chunks are current — i.e. when more than k are unrecoverable
//!   *after* per-device mechanistic recovery.
//! * The rebuild engine spends per-device sector budgets (bandwidth ×
//!   inter-outage gap); when the budget runs dry the rebuild is
//!   interrupted and the remaining stripes carry their exposure into
//!   the next outage — the double-fault-during-rebuild regime.
//!
//! Everything is a pure function of `(FleetConfig, seed)`: tallies are
//! integers, so reports are byte-identical across engines and reruns.

use pfault_obs::{Layer, Metrics, ProbeEvent, ProbeLog, ProbeRecord};
use pfault_power::{FaultInjector, PsuGroupCut};
use pfault_sim::checksum::mix64;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration, SimTime};
use pfault_ssd::{
    Completion, CompletionKind, DeviceError, HostCommand, Ssd, SsdConfig, VendorPreset,
    VerifiedContent,
};
use serde::Serialize;
use std::collections::BTreeMap;

use crate::placement::Placement;
use crate::rs::RsCode;

/// Domain-separation salt for fleet payload tags.
const FLEET_SALT: u64 = 0x464C_4545_5400_0001;

/// Fleet topology, outage schedule, and rebuild bandwidth.
#[derive(Debug, Clone, Serialize)]
pub struct FleetConfig {
    /// Devices in the fleet.
    pub devices: usize,
    /// Data chunks per stripe (m).
    pub data_chunks: usize,
    /// Parity chunks per stripe (k); the stripe survives up to k
    /// unrecoverable chunks.
    pub parity_chunks: usize,
    /// Stripes stored by the fleet.
    pub stripes: u64,
    /// Sectors per chunk.
    pub chunk_sectors: u64,
    /// Devices sharing one PSU: the victim count of every outage event.
    pub psu_group: usize,
    /// Per-device jitter on a correlated cut's commanded instant, in
    /// microseconds (PSU rails do not collapse perfectly in phase).
    pub psu_jitter_us: u64,
    /// Outage events in the trial.
    pub outages: u32,
    /// Correlated (one rack-level cut drops a whole PSU group at once)
    /// versus independent (the same victim count, cut one at a time
    /// with full recovery and rebuild between cuts).
    pub correlated: bool,
    /// Fleet-time hours each outage event represents (outage events are
    /// rare; the simulator compresses the idle time between them).
    pub inter_outage_hours: u64,
    /// Rebuild sector budget per device per inter-outage gap — the
    /// bandwidth × time product. Reconstructing one chunk charges every
    /// source device a chunk of read budget and the target a chunk of
    /// write budget; a dry budget interrupts the rebuild.
    pub rebuild_budget_sectors: u64,
    /// Stripes overwritten (ACKed but deliberately not flushed)
    /// immediately before each outage — the FWA exposure window.
    pub overwrites_per_outage: u64,
    /// Vendor preset for every device (geometry is shrunk for fleet
    /// scale).
    pub vendor: VendorPreset,
    /// Probability that a post-outage mount attempt fails.
    pub mount_failure_rate: f64,
    /// Mount attempts before the firmware bricks the device.
    pub mount_retry_limit: u32,
    /// Smoke knob: before the first scan, administratively wipe (TRIM)
    /// this many chunks of stripe 0. The oracle must declare stripe 0
    /// lost iff this exceeds `parity_chunks`.
    pub forced_chunk_wipes: u64,
}

impl FleetConfig {
    /// A small fleet with losses reachable in seconds of wall time.
    pub fn small() -> Self {
        FleetConfig {
            devices: 8,
            data_chunks: 3,
            parity_chunks: 2,
            stripes: 40,
            chunk_sectors: 8,
            psu_group: 4,
            psu_jitter_us: 400,
            outages: 4,
            correlated: true,
            inter_outage_hours: 720,
            rebuild_budget_sectors: 256,
            overwrites_per_outage: 16,
            vendor: VendorPreset::SsdA,
            mount_failure_rate: 0.02,
            mount_retry_limit: 4,
            forced_chunk_wipes: 0,
        }
    }

    /// Chunks per stripe (m + k).
    pub fn width(&self) -> usize {
        self.data_chunks + self.parity_chunks
    }

    /// Panics unless the topology is coherent (width ≤ devices, PSU
    /// groups tile the fleet, stripes fit on a device).
    fn validate(&self) {
        assert!(
            self.data_chunks >= 1,
            "stripes need at least one data chunk"
        );
        assert!(
            self.width() <= self.devices,
            "stripe width {} exceeds fleet size {}",
            self.width(),
            self.devices
        );
        assert!(
            self.psu_group >= 1 && self.psu_group <= self.devices,
            "PSU group must be between 1 and the fleet size"
        );
        assert!(
            self.devices.is_multiple_of(self.psu_group),
            "PSU groups of {} must tile the {}-device fleet",
            self.psu_group,
            self.devices
        );
        assert!(self.stripes >= 1 && self.chunk_sectors >= 1);
    }
}

/// Post-recovery classification of one chunk, from its generation
/// witness (the per-sector payload tags the device actually returns).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChunkState {
    /// Every sector carries the current generation: usable as-is.
    Current,
    /// Every sector is intact but carries an *earlier ACKed* generation:
    /// the device reverted an acknowledged write — a false write ACK.
    Stale,
    /// Sectors decode but mix generations or fail their checksum: a torn
    /// write.
    Garbled,
    /// At least one sector no longer decodes (beyond ECC).
    Unreadable,
    /// The mapping is gone (device bricked and replaced, or wiped).
    Missing,
}

impl ChunkState {
    /// Whether the chunk can serve reads/reconstruction as-is.
    pub fn is_current(self) -> bool {
        matches!(self, ChunkState::Current)
    }
}

/// Integer-only counters for one fleet trial. Everything derived
/// (availability, durability, MTTDL) is computed from these at report
/// time, so merged tallies are byte-identical regardless of the engine
/// that produced them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FleetTally {
    /// Outage events driven.
    pub outage_events: u64,
    /// Outage events that cut a whole PSU group at once.
    pub correlated_events: u64,
    /// Total device cuts (victims × events).
    pub devices_cut: u64,
    /// Fleet-time hours the trial represents.
    pub fleet_hours: u64,
    /// Stripes stored (per trial; merging trials sums them).
    pub stripes_total: u64,
    /// Stripe scans performed (stripes × scan rounds).
    pub stripe_observations: u64,
    /// Scans that found the stripe readable (≥ m current chunks).
    pub readable_observations: u64,
    /// Readable scans that needed RS reconstruction (< width current).
    pub degraded_reads: u64,
    /// Scans that found the stripe unrecoverable (> k chunks down).
    pub stripe_loss_events: u64,
    /// Distinct stripes ever lost.
    pub stripes_ever_lost: u64,
    /// Chunks observed stale (FWA: ACKed generation reverted).
    pub chunks_stale: u64,
    /// Chunks observed garbled/torn.
    pub chunks_garbled: u64,
    /// Chunks observed unreadable (beyond ECC).
    pub chunks_unreadable: u64,
    /// Chunks observed missing (bricked-and-replaced device or wipe).
    pub chunks_missing: u64,
    /// Lost-stripe chunks attributed to FWA staleness.
    pub loss_chunks_stale: u64,
    /// Lost-stripe chunks attributed to torn writes.
    pub loss_chunks_garbled: u64,
    /// Lost-stripe chunks attributed to unreadable media.
    pub loss_chunks_unreadable: u64,
    /// Lost-stripe chunks attributed to bricked/wiped devices.
    pub loss_chunks_missing: u64,
    /// Chunks rewritten by the rebuild engine.
    pub chunks_rebuilt: u64,
    /// Rebuild writes diverted to a spare device (target read-only).
    pub rebuilds_diverted: u64,
    /// Rebuild passes cut short by an exhausted bandwidth budget.
    pub rebuilds_interrupted: u64,
    /// Chunks a dry budget left degraded into the next outage.
    pub rebuild_chunks_deferred: u64,
    /// Devices that bricked terminally and were replaced.
    pub devices_bricked: u64,
    /// Mounts that came back read-only-degraded.
    pub read_only_mounts: u64,
    /// Extra mount attempts spent in recovery backoff.
    pub mount_retries: u64,
    /// Chunks wiped by the forced-loss smoke knob.
    pub forced_wipes: u64,
}

macro_rules! merge_fields {
    ($self:ident, $other:ident: $($f:ident),+ $(,)?) => {
        $( $self.$f += $other.$f; )+
    };
}

impl FleetTally {
    /// Adds another tally into this one (canonical-order reduction).
    pub fn merge(&mut self, other: &FleetTally) {
        merge_fields!(self, other:
            outage_events, correlated_events, devices_cut, fleet_hours,
            stripes_total, stripe_observations, readable_observations,
            degraded_reads, stripe_loss_events, stripes_ever_lost,
            chunks_stale, chunks_garbled, chunks_unreadable, chunks_missing,
            loss_chunks_stale, loss_chunks_garbled, loss_chunks_unreadable,
            loss_chunks_missing, chunks_rebuilt, rebuilds_diverted,
            rebuilds_interrupted, rebuild_chunks_deferred, devices_bricked,
            read_only_mounts, mount_retries, forced_wipes,
        );
    }

    /// Fraction of stripe scans that found the stripe readable.
    pub fn availability(&self) -> f64 {
        if self.stripe_observations == 0 {
            return 1.0;
        }
        self.readable_observations as f64 / self.stripe_observations as f64
    }

    /// Fraction of stripes never lost.
    pub fn durability(&self) -> f64 {
        if self.stripes_total == 0 {
            return 1.0;
        }
        1.0 - self.stripes_ever_lost as f64 / self.stripes_total as f64
    }

    /// Mean fleet-time hours between data-loss events; `None` while no
    /// loss has been observed (MTTDL is unbounded, not zero).
    pub fn mttdl_hours(&self) -> Option<f64> {
        if self.stripe_loss_events == 0 {
            None
        } else {
            Some(self.fleet_hours as f64 / self.stripe_loss_events as f64)
        }
    }
}

/// One trial's result: the integer tally plus the fleet-layer probe
/// records (outages, degraded reads, losses, rebuild interruptions) for
/// obs-pipeline traceability.
#[derive(Debug, Clone)]
pub struct FleetTrialResult {
    /// Integer counters.
    pub tally: FleetTally,
    /// Fleet-layer probe records, in emission order.
    pub probes: Vec<ProbeRecord>,
    /// The metrics folded from [`FleetTrialResult::probes`] as they
    /// fired.
    pub metrics: Metrics,
}

/// Payload tag for generation `gen` of chunk `chunk` of stripe
/// `stripe`. The device derives each sector's content from this tag, so
/// reading the tag back (via the content checksum machinery) witnesses
/// *which ACKed generation* actually survived the outage.
fn write_tag(stripe: u64, chunk: usize, gen: u64) -> u64 {
    mix64(mix64(FLEET_SALT ^ stripe, chunk as u64), gen)
}

/// Canonical payload bytes of a *data* chunk: the little-endian bytes of
/// the per-sector content tags. This is a pure function of the chunk
/// coordinates, which is what lets the oracle verify RS reconstruction
/// byte-for-byte without trusting any device.
fn data_chunk_payload(stripe: u64, chunk: usize, gen: u64, chunk_sectors: u64) -> Vec<u8> {
    let tag = write_tag(stripe, chunk, gen);
    let mut bytes = Vec::with_capacity(chunk_sectors as usize * 8);
    for j in 0..chunk_sectors {
        bytes.extend_from_slice(&mix64(tag, j).to_le_bytes());
    }
    bytes
}

/// Tracks one device slot in the fleet: the live [`Ssd`] plus how many
/// blank replacements this slot has consumed.
struct DeviceSlot {
    ssd: Ssd,
    replacements: u64,
}

impl DeviceSlot {
    fn mounted(&self) -> bool {
        self.ssd.is_operational() || self.ssd.is_read_only()
    }

    fn writable(&self) -> bool {
        self.ssd.is_operational()
    }
}

/// The fleet simulator. Construct with [`FleetSim::run`]; the struct
/// itself is internal driving state.
pub struct FleetSim {
    config: FleetConfig,
    placement: Placement,
    /// `(stripe, chunk) → device` for chunks relocated off a read-only
    /// device by the rebuild engine.
    relocated: BTreeMap<(u64, usize), usize>,
    code: RsCode,
    devices: Vec<DeviceSlot>,
    /// Current ACKed generation per stripe (1-based after population).
    gens: Vec<u64>,
    ever_lost: Vec<bool>,
    injector: FaultInjector,
    rng: DetRng,
    now: SimTime,
    next_request: u64,
    tally: FleetTally,
    log: ProbeLog,
}

/// Per-round scan result for one stripe.
struct StripeScan {
    stripe: u64,
    states: Vec<ChunkState>,
    current: usize,
}

impl FleetSim {
    /// Runs one fleet trial: populate, then `outages` rounds of
    /// (overwrite → cut → recover → scan → rebuild). Pure function of
    /// `(config, seed)`.
    ///
    /// # Panics
    ///
    /// Panics when the config is incoherent (see [`FleetConfig`]) or an
    /// internal invariant breaks (RS reconstruction mismatch).
    pub fn run(config: &FleetConfig, seed: u64) -> FleetTrialResult {
        config.validate();
        let mut sim = FleetSim::new(config.clone(), seed);
        sim.populate();
        for round in 0..config.outages {
            sim.round(round);
        }
        sim.tally.fleet_hours = u64::from(config.outages) * config.inter_outage_hours;
        sim.tally.stripes_total = config.stripes;
        FleetTrialResult {
            tally: sim.tally,
            metrics: sim.log.metrics(),
            probes: sim.log.take_records(),
        }
    }

    fn new(config: FleetConfig, seed: u64) -> Self {
        let rng = DetRng::new(mix64(seed, FLEET_SALT));
        let device_cfg = Self::device_config(&config);
        let dev_rng = rng.fork("devices");
        let devices = (0..config.devices)
            .map(|d| DeviceSlot {
                ssd: Ssd::new(device_cfg, dev_rng.fork_index(d as u64)),
                replacements: 0,
            })
            .collect();
        let placement = Placement::new(config.devices, config.width(), mix64(seed, 1));
        let code = RsCode::new(config.data_chunks, config.parity_chunks);
        let gens = vec![0; config.stripes as usize];
        let ever_lost = vec![false; config.stripes as usize];
        FleetSim {
            config,
            placement,
            relocated: BTreeMap::new(),
            code,
            devices,
            gens,
            ever_lost,
            injector: FaultInjector::arduino_atx_loaded(),
            rng,
            now: SimTime::ZERO,
            next_request: 1,
            tally: FleetTally::default(),
            log: ProbeLog::enabled(),
        }
    }

    /// Vendor preset shrunk to fleet scale: a few hundred blocks is
    /// plenty for the stripe working set and keeps N devices cheap.
    fn device_config(config: &FleetConfig) -> SsdConfig {
        let mut cfg = config.vendor.config();
        cfg.geometry = pfault_flash::FlashGeometry::new(512, 64);
        cfg.ftl = pfault_ftl::FtlConfig::for_geometry(cfg.geometry);
        cfg.mount_failure_rate = config.mount_failure_rate;
        cfg.mount_retry_limit = config.mount_retry_limit;
        // A write-back window wide enough that the overwrite → cut gap
        // reliably lands inside it; without this, microsecond-scale
        // clock skew between the overwrite phase and the cut would
        // nondeterministically flush some victims' caches first.
        cfg.cache.flush_delay = SimDuration::from_millis(10);
        cfg
    }

    /// The device holding chunk `c` of stripe `s`, honouring rebuild
    /// relocations.
    fn device_for(&self, stripe: u64, chunk: usize) -> usize {
        if let Some(&d) = self.relocated.get(&(stripe, chunk)) {
            return d;
        }
        self.placement.stripe_devices(stripe)[chunk]
    }

    fn lba_for(&self, stripe: u64) -> Lba {
        Lba::new(stripe * self.config.chunk_sectors)
    }

    /// Brings a mounted device's clock up to the fleet clock (firing its
    /// pending cache-flush events on the way — this is exactly the idle
    /// time that saves *independent* outage victims from FWA).
    fn sync_device(&mut self, d: usize) {
        let slot = &mut self.devices[d];
        if slot.mounted() && slot.ssd.now() < self.now {
            slot.ssd.advance_to(self.now);
        }
    }

    fn bump_fleet_clock(&mut self) {
        for slot in &self.devices {
            if slot.ssd.now() > self.now {
                self.now = slot.ssd.now();
            }
        }
    }

    /// Submits one chunk write and pumps the device until the ACK
    /// arrives. Returns false if the device errored the command instead
    /// (read-only rejection or a mid-write cut).
    fn write_chunk(&mut self, d: usize, stripe: u64, chunk: usize, gen: u64) -> bool {
        self.sync_device(d);
        let req = self.next_request;
        self.next_request += 1;
        let cmd = HostCommand::write(
            req,
            0,
            self.lba_for(stripe),
            SectorCount::new(self.config.chunk_sectors),
            write_tag(stripe, chunk, gen),
        );
        let slot = &mut self.devices[d];
        slot.ssd.submit(cmd);
        let mut acked = false;
        let mut guard = 0u32;
        loop {
            let done = Self::drain_for(&mut slot.ssd, req, &mut acked);
            if done {
                break;
            }
            let step = slot
                .ssd
                .next_event()
                .unwrap_or(slot.ssd.now() + SimDuration::from_micros(100));
            slot.ssd
                .advance_to(step.max(slot.ssd.now() + SimDuration::from_micros(1)));
            guard += 1;
            assert!(guard < 1_000_000, "chunk write failed to complete");
        }
        acked
    }

    /// Drains completions looking for `req`; returns true once seen.
    fn drain_for(ssd: &mut Ssd, req: u64, acked: &mut bool) -> bool {
        let completions: Vec<Completion> = ssd.drain_completions();
        let mut done = false;
        for c in completions {
            if c.request_id == req {
                done = true;
                *acked = matches!(c.kind, CompletionKind::Acked);
            }
        }
        done
    }

    /// Writes every chunk of a stripe at generation `gen`. With
    /// `durable`, each written device is quiesced afterwards (cache
    /// drained, journal committed); without it the ACKed data sits in
    /// cache — the FWA exposure the outage preys on.
    fn write_stripe(&mut self, stripe: u64, gen: u64, durable: bool) {
        for chunk in 0..self.config.width() {
            let d = self.device_for(stripe, chunk);
            if !self.devices[d].writable() {
                continue;
            }
            if self.write_chunk(d, stripe, chunk, gen) && durable {
                self.devices[d].ssd.quiesce();
            }
        }
        self.gens[stripe as usize] = gen;
        self.bump_fleet_clock();
    }

    /// Initial population: every stripe written durably at generation 1.
    fn populate(&mut self) {
        for s in 0..self.config.stripes {
            self.write_stripe(s, 1, true);
        }
        self.bump_fleet_clock();
    }

    /// One outage round: overwrite exposure, cut(s), recovery, scan,
    /// rebuild.
    fn round(&mut self, round: u32) {
        let mut round_rng = self.rng.fork("rounds").fork_index(u64::from(round));
        self.tally.outage_events += 1;

        // FWA exposure: overwrite a random sample of healthy stripes,
        // ACKed but deliberately left unflushed (the host believes the
        // new generation is committed; only each device's cache does).
        let mut victims_of_write: Vec<u64> = Vec::new();
        for _ in 0..self.config.overwrites_per_outage {
            let s = round_rng.below(self.config.stripes);
            if victims_of_write.contains(&s) {
                continue;
            }
            let all_writable =
                (0..self.config.width()).all(|c| self.devices[self.device_for(s, c)].writable());
            if !all_writable {
                continue;
            }
            victims_of_write.push(s);
            let gen = self.gens[s as usize] + 1;
            self.write_stripe(s, gen, false);
        }

        if self.config.correlated {
            self.correlated_cut(&mut round_rng);
            if round == 0 {
                self.forced_wipes();
            }
            let scans = self.scan_round();
            self.rebuild(scans, &mut round_rng);
        } else {
            // Same victim count, one device at a time, with full
            // recovery + rebuild between cuts: the cache idle time
            // between cuts flushes the other victims' dirty data.
            let groups = self.config.devices / self.config.psu_group;
            let group = round_rng.below(groups as u64) as usize * self.config.psu_group;
            for i in 0..self.config.psu_group {
                let d = group + i;
                self.single_cut(d, &mut round_rng);
                if round == 0 && i == 0 {
                    self.forced_wipes();
                }
                let scans = self.scan_round();
                self.rebuild(scans, &mut round_rng);
            }
        }
    }

    /// Cuts a whole PSU group at one jittered instant.
    fn correlated_cut(&mut self, rng: &mut DetRng) {
        self.bump_fleet_clock();
        let groups = self.config.devices / self.config.psu_group;
        let group = rng.below(groups as u64) as usize * self.config.psu_group;
        let victims: Vec<usize> = (group..group + self.config.psu_group)
            .filter(|&d| self.devices[d].mounted())
            .collect();
        if victims.is_empty() {
            return;
        }
        let cut = PsuGroupCut::new(self.injector, self.config.psu_jitter_us);
        let commanded = self.now + SimDuration::from_millis(1);
        let timelines = cut.timelines(commanded, victims.len(), rng);
        self.tally.correlated_events += 1;
        self.tally.devices_cut += victims.len() as u64;
        self.log.emit(
            commanded,
            Layer::Fleet,
            ProbeEvent::FleetOutage {
                devices: victims.len() as u64,
                correlated: 1,
            },
        );
        for (&d, tl) in victims.iter().zip(&timelines) {
            self.sync_device(d);
            self.devices[d].ssd.power_fail(tl);
        }
        for (&d, tl) in victims.iter().zip(&timelines) {
            self.recover_device(d, tl.discharged);
        }
        self.bump_fleet_clock();
    }

    /// Cuts one device and recovers it (the independent-outage
    /// primitive).
    fn single_cut(&mut self, d: usize, _rng: &mut DetRng) {
        self.bump_fleet_clock();
        if !self.devices[d].mounted() {
            return;
        }
        self.sync_device(d);
        let commanded = self.now + SimDuration::from_millis(1);
        let tl = self.injector.timeline(commanded);
        self.tally.devices_cut += 1;
        self.log.emit(
            commanded,
            Layer::Fleet,
            ProbeEvent::FleetOutage {
                devices: 1,
                correlated: 0,
            },
        );
        self.devices[d].ssd.power_fail(&tl);
        self.recover_device(d, tl.discharged);
        self.bump_fleet_clock();
    }

    /// The platform recovery loop, per device: mount one second after
    /// full discharge, exponential backoff on failed mounts, terminal
    /// bricks replaced with a blank device.
    fn recover_device(&mut self, d: usize, discharged: SimTime) {
        let mut recovery_time = discharged + SimDuration::from_secs(1);
        let mut backoff = SimDuration::from_secs(1);
        loop {
            match self.devices[d].ssd.power_on_recover(recovery_time) {
                Ok(_) => {
                    if self.devices[d].ssd.is_read_only() {
                        self.tally.read_only_mounts += 1;
                    }
                    return;
                }
                Err(DeviceError::Bricked { .. } | DeviceError::RecoveryFailed { .. }) => {
                    self.replace_device(d, recovery_time);
                    return;
                }
                Err(DeviceError::MountFailed { .. } | DeviceError::RecoveryInterrupted { .. }) => {
                    self.tally.mount_retries += 1;
                    recovery_time = self.devices[d].ssd.now() + backoff;
                    backoff = backoff * 2;
                }
                Err(e @ (DeviceError::NotMounted | DeviceError::ReadOnly)) => {
                    unreachable!("power_on_recover never returns {e}")
                }
            }
        }
    }

    /// Swaps a terminally bricked device for a blank replacement. Every
    /// chunk the slot held is gone until the rebuild engine rewrites it.
    fn replace_device(&mut self, d: usize, at: SimTime) {
        self.tally.devices_bricked += 1;
        let gen = self.devices[d].replacements + 1;
        let cfg = Self::device_config(&self.config);
        let seed_rng = self
            .rng
            .fork("replacements")
            .fork_index(d as u64)
            .fork_index(gen);
        let mut ssd = Ssd::new(cfg, seed_rng);
        ssd.advance_to(at.max(self.now));
        self.devices[d] = DeviceSlot {
            ssd,
            replacements: gen,
        };
    }

    /// Smoke-test knob: TRIM `forced_chunk_wipes` chunks of stripe 0 on
    /// their devices, making them mechanically missing.
    fn forced_wipes(&mut self) {
        for chunk in 0..(self.config.forced_chunk_wipes as usize).min(self.config.width()) {
            let d = self.device_for(0, chunk);
            if !self.devices[d].writable() {
                continue;
            }
            self.sync_device(d);
            let lba = self.lba_for(0);
            let sectors = SectorCount::new(self.config.chunk_sectors);
            self.devices[d].ssd.trim(lba, sectors);
            self.devices[d].ssd.quiesce();
            self.tally.forced_wipes += 1;
        }
        self.bump_fleet_clock();
    }

    /// Classifies one chunk from what its device actually returns.
    fn classify_chunk(&mut self, stripe: u64, chunk: usize) -> ChunkState {
        let d = self.device_for(stripe, chunk);
        if !self.devices[d].mounted() {
            return ChunkState::Missing;
        }
        self.sync_device(d);
        let gen = self.gens[stripe as usize];
        let base = self.lba_for(stripe);
        let mut current = 0u64;
        let mut stale_gen: Option<u64> = None;
        let mut stale = 0u64;
        let mut missing = 0u64;
        for j in 0..self.config.chunk_sectors {
            let lba = Lba::new(base.index() + j);
            match self.devices[d].ssd.verify_read(lba) {
                VerifiedContent::Unwritten => missing += 1,
                VerifiedContent::Unreadable => return ChunkState::Unreadable,
                VerifiedContent::Written(data) => {
                    if !data.is_intact() {
                        return ChunkState::Garbled;
                    }
                    if data.tag == mix64(write_tag(stripe, chunk, gen), j) {
                        current += 1;
                        continue;
                    }
                    // Which earlier ACKed generation is this?
                    let mut matched = None;
                    for g in (1..gen).rev() {
                        if data.tag == mix64(write_tag(stripe, chunk, g), j) {
                            matched = Some(g);
                            break;
                        }
                    }
                    match matched {
                        None => return ChunkState::Garbled,
                        Some(g) => match stale_gen {
                            None => {
                                stale_gen = Some(g);
                                stale += 1;
                            }
                            Some(prev) if prev == g => stale += 1,
                            // Two different old generations in one
                            // chunk: torn across generations.
                            Some(_) => return ChunkState::Garbled,
                        },
                    }
                }
            }
        }
        let n = self.config.chunk_sectors;
        if current == n {
            ChunkState::Current
        } else if missing == n {
            ChunkState::Missing
        } else if stale == n {
            ChunkState::Stale
        } else {
            // A mix of current/stale/missing sectors: a torn chunk.
            ChunkState::Garbled
        }
    }

    /// Scans every stripe, tallies availability and chunk pathology, and
    /// exercises real RS decode on every degraded-but-readable stripe.
    fn scan_round(&mut self) -> Vec<StripeScan> {
        self.bump_fleet_clock();
        let width = self.config.width();
        let m = self.config.data_chunks;
        let mut scans = Vec::with_capacity(self.config.stripes as usize);
        for s in 0..self.config.stripes {
            let states: Vec<ChunkState> = (0..width).map(|c| self.classify_chunk(s, c)).collect();
            let current = states.iter().filter(|st| st.is_current()).count();
            self.tally.stripe_observations += 1;
            for st in &states {
                match st {
                    ChunkState::Current => {}
                    ChunkState::Stale => self.tally.chunks_stale += 1,
                    ChunkState::Garbled => self.tally.chunks_garbled += 1,
                    ChunkState::Unreadable => self.tally.chunks_unreadable += 1,
                    ChunkState::Missing => self.tally.chunks_missing += 1,
                }
            }
            if current >= m {
                self.tally.readable_observations += 1;
                if current < width {
                    self.tally.degraded_reads += 1;
                    self.log.emit(
                        self.now,
                        Layer::Fleet,
                        ProbeEvent::FleetDegradedRead {
                            stripe: s,
                            missing: (width - current) as u64,
                        },
                    );
                    self.check_degraded_decode(s, &states);
                }
            } else {
                self.record_loss(s, &states, width - current);
            }
            scans.push(StripeScan {
                stripe: s,
                states,
                current,
            });
        }
        scans
    }

    /// Proves a degraded stripe really is readable: reconstruct the data
    /// payloads from the first m current chunks via the RS codec and
    /// compare byte-for-byte against the canonical generation payloads.
    fn check_degraded_decode(&self, stripe: u64, states: &[ChunkState]) {
        let m = self.config.data_chunks;
        let gen = self.gens[stripe as usize];
        let payloads = self.materialize_payloads(stripe, gen);
        let available: Vec<(usize, &[u8])> = states
            .iter()
            .enumerate()
            .filter(|(_, st)| st.is_current())
            .take(m)
            .map(|(c, _)| (c, payloads[c].as_slice()))
            .collect();
        let decoded = self
            .code
            .reconstruct(&available)
            .expect("≥ m current chunks decode");
        for (c, data) in decoded.iter().enumerate() {
            assert_eq!(
                data, &payloads[c],
                "RS decode of stripe {stripe} chunk {c} diverged"
            );
        }
    }

    /// Canonical payload bytes of every chunk of a stripe at `gen`: data
    /// chunks from the tag function, parity chunks by encoding them.
    fn materialize_payloads(&self, stripe: u64, gen: u64) -> Vec<Vec<u8>> {
        let m = self.config.data_chunks;
        let data: Vec<Vec<u8>> = (0..m)
            .map(|c| data_chunk_payload(stripe, c, gen, self.config.chunk_sectors))
            .collect();
        let parity = self.code.encode(&data);
        data.into_iter().chain(parity).collect()
    }

    /// Books a data-loss event: more than k chunks unrecoverable after
    /// per-device recovery. The stripe is then restored from "external
    /// backup" (rewritten durably at a fresh generation) so the fleet
    /// keeps running with known contents.
    fn record_loss(&mut self, stripe: u64, states: &[ChunkState], unrecoverable: usize) {
        self.tally.stripe_loss_events += 1;
        if !self.ever_lost[stripe as usize] {
            self.ever_lost[stripe as usize] = true;
            self.tally.stripes_ever_lost += 1;
        }
        for st in states {
            match st {
                ChunkState::Current => {}
                ChunkState::Stale => self.tally.loss_chunks_stale += 1,
                ChunkState::Garbled => self.tally.loss_chunks_garbled += 1,
                ChunkState::Unreadable => self.tally.loss_chunks_unreadable += 1,
                ChunkState::Missing => self.tally.loss_chunks_missing += 1,
            }
        }
        self.log.emit(
            self.now,
            Layer::Fleet,
            ProbeEvent::FleetStripeLost {
                stripe,
                unrecoverable: unrecoverable as u64,
            },
        );
        let gen = self.gens[stripe as usize] + 1;
        self.write_stripe(stripe, gen, true);
    }

    /// The rebuild engine: repairs non-current chunks of readable
    /// stripes in stripe order, charging per-device sector budgets.
    /// Sources are the first m current chunks (read budget); the target
    /// takes the write. A read-only target diverts the chunk to a spare
    /// writable device outside the stripe; a dry budget anywhere
    /// interrupts the whole pass, leaving the remainder degraded into
    /// the next outage.
    fn rebuild(&mut self, scans: Vec<StripeScan>, _rng: &mut DetRng) {
        let m = self.config.data_chunks;
        let width = self.config.width();
        let mut read_budget = vec![self.config.rebuild_budget_sectors; self.config.devices];
        let mut write_budget = vec![self.config.rebuild_budget_sectors; self.config.devices];
        let chunk_cost = self.config.chunk_sectors;

        // Chunks needing repair, in canonical (stripe, chunk) order.
        // Lost stripes were already restored from backup in the scan.
        let work: Vec<(u64, usize, Vec<usize>)> = scans
            .iter()
            .filter(|scan| scan.current >= m && scan.current < width)
            .map(|scan| {
                let sources: Vec<usize> = scan
                    .states
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| st.is_current())
                    .take(m)
                    .map(|(c, _)| c)
                    .collect();
                scan.states
                    .iter()
                    .enumerate()
                    .filter(|(_, st)| !st.is_current())
                    .map(|(c, _)| (scan.stripe, c, sources.clone()))
                    .collect::<Vec<_>>()
            })
            .collect::<Vec<_>>()
            .into_iter()
            .flatten()
            .collect();

        for (i, (stripe, chunk, sources)) in work.iter().enumerate() {
            let (stripe, chunk) = (*stripe, *chunk);
            // Pick (or divert) the write target.
            let mut target = self.device_for(stripe, chunk);
            let mut diverted = false;
            if !self.devices[target].writable() {
                let in_stripe: Vec<usize> =
                    (0..width).map(|c| self.device_for(stripe, c)).collect();
                let spare = (0..self.config.devices).find(|d| {
                    self.devices[*d].writable()
                        && !in_stripe.contains(d)
                        && write_budget[*d] >= chunk_cost
                });
                match spare {
                    Some(d) => {
                        target = d;
                        diverted = true;
                    }
                    // No spare: the chunk stays degraded this round.
                    None => continue,
                }
            }
            // Charge bandwidth; a dry budget interrupts the whole pass.
            let source_devs: Vec<usize> = sources
                .iter()
                .map(|&c| self.device_for(stripe, c))
                .collect();
            let budget_ok = write_budget[target] >= chunk_cost
                && source_devs.iter().all(|&d| read_budget[d] >= chunk_cost);
            if !budget_ok {
                let pending = work.len() - i;
                self.tally.rebuilds_interrupted += 1;
                self.tally.rebuild_chunks_deferred += pending as u64;
                self.log.emit(
                    self.now,
                    Layer::Fleet,
                    ProbeEvent::FleetRebuildInterrupted {
                        pending_stripes: pending as u64,
                    },
                );
                break;
            }
            write_budget[target] -= chunk_cost;
            for &d in &source_devs {
                read_budget[d] -= chunk_cost;
            }
            // Reconstruct through the real codec (read-only devices can
            // serve source reads — only writes are barred) and verify
            // against the canonical payloads before rewriting.
            let gen = self.gens[stripe as usize];
            let payloads = self.materialize_payloads(stripe, gen);
            let available: Vec<(usize, &[u8])> = sources
                .iter()
                .map(|&c| (c, payloads[c].as_slice()))
                .collect();
            let rebuilt = self.code.chunk_payload(
                chunk,
                &self.code.reconstruct(&available).expect("m sources"),
            );
            assert_eq!(
                rebuilt, payloads[chunk],
                "rebuild of stripe {stripe} chunk {chunk} diverged"
            );
            if diverted {
                self.relocated.insert((stripe, chunk), target);
                self.tally.rebuilds_diverted += 1;
            }
            if self.write_chunk(target, stripe, chunk, gen) {
                self.devices[target].ssd.quiesce();
                self.tally.chunks_rebuilt += 1;
            }
        }
        self.bump_fleet_clock();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FleetConfig {
        let mut c = FleetConfig::small();
        c.stripes = 12;
        c.outages = 2;
        c.overwrites_per_outage = 8;
        c
    }

    #[test]
    fn trial_is_a_pure_function_of_config_and_seed() {
        let c = tiny();
        let a = FleetSim::run(&c, 42);
        let b = FleetSim::run(&c, 42);
        assert_eq!(a.tally, b.tally);
        assert_eq!(a.probes.len(), b.probes.len());
        let c2 = FleetSim::run(&c, 43);
        assert!(
            a.tally != c2.tally || a.probes.len() != c2.probes.len(),
            "different seeds should diverge somewhere"
        );
    }

    #[test]
    fn correlated_cuts_strictly_worse_than_independent() {
        let mut cfg = tiny();
        cfg.outages = 3;
        cfg.correlated = true;
        let corr = FleetSim::run(&cfg, 7);
        cfg.correlated = false;
        let indep = FleetSim::run(&cfg, 7);
        assert_eq!(corr.tally.devices_cut, indep.tally.devices_cut);
        assert!(
            corr.tally.stripes_ever_lost > indep.tally.stripes_ever_lost,
            "correlated {} vs independent {} stripes lost",
            corr.tally.stripes_ever_lost,
            indep.tally.stripes_ever_lost
        );
        assert_eq!(
            indep.tally.stripes_ever_lost, 0,
            "independent single-device cuts stay within parity"
        );
    }

    #[test]
    fn forced_wipes_cause_loss_iff_beyond_parity() {
        let mut cfg = tiny();
        cfg.psu_group = 1;
        cfg.correlated = false;
        cfg.outages = 1;
        cfg.overwrites_per_outage = 0;
        cfg.mount_failure_rate = 0.0;

        cfg.forced_chunk_wipes = cfg.parity_chunks as u64;
        let within = FleetSim::run(&cfg, 5);
        assert_eq!(within.tally.stripes_ever_lost, 0, "k wipes must rebuild");
        assert!(within.tally.degraded_reads > 0);
        assert!(within.tally.chunks_rebuilt >= cfg.forced_chunk_wipes);

        cfg.forced_chunk_wipes = cfg.parity_chunks as u64 + 1;
        let beyond = FleetSim::run(&cfg, 5);
        assert_eq!(
            beyond.tally.stripes_ever_lost, 1,
            "k+1 wipes must lose exactly stripe 0"
        );
        assert!(beyond.tally.loss_chunks_missing >= cfg.forced_chunk_wipes);
    }

    #[test]
    fn stale_chunks_are_detected_not_silently_decoded() {
        // A correlated cut right after unflushed overwrites must
        // surface FWA chunks as Stale (counted), never as Current.
        let mut cfg = tiny();
        cfg.outages = 2;
        cfg.correlated = true;
        let r = FleetSim::run(&cfg, 11);
        assert!(
            r.tally.chunks_stale > 0,
            "correlated cuts over unflushed writes must yield stale chunks"
        );
        // Every loss is attributed to a concrete chunk pathology.
        if r.tally.stripe_loss_events > 0 {
            assert!(
                r.tally.loss_chunks_stale
                    + r.tally.loss_chunks_garbled
                    + r.tally.loss_chunks_unreadable
                    + r.tally.loss_chunks_missing
                    > 0
            );
        }
    }

    #[test]
    fn probe_stream_traces_outages_and_losses() {
        let mut cfg = tiny();
        cfg.outages = 3;
        let r = FleetSim::run(&cfg, 9);
        let outages = r
            .probes
            .iter()
            .filter(|p| p.event.kind() == "fleet.outage")
            .count() as u64;
        assert_eq!(outages, 3, "one outage probe per correlated round");
        let losses = r
            .probes
            .iter()
            .filter(|p| p.event.kind() == "fleet.stripe-lost")
            .count() as u64;
        assert_eq!(losses, r.tally.stripe_loss_events);
        let degraded = r
            .probes
            .iter()
            .filter(|p| p.event.kind() == "fleet.degraded-read")
            .count() as u64;
        assert_eq!(degraded, r.tally.degraded_reads);
    }

    #[test]
    fn tally_merge_adds_fieldwise_and_rates_derive() {
        let c = tiny();
        let a = FleetSim::run(&c, 1).tally;
        let b = FleetSim::run(&c, 2).tally;
        let mut m = a;
        m.merge(&b);
        assert_eq!(
            m.stripe_observations,
            a.stripe_observations + b.stripe_observations
        );
        assert_eq!(
            m.stripes_ever_lost,
            a.stripes_ever_lost + b.stripes_ever_lost
        );
        assert!(m.availability() <= 1.0 && m.availability() > 0.0);
        assert!(m.durability() <= 1.0);
        match m.mttdl_hours() {
            Some(h) => assert!(h > 0.0),
            None => assert_eq!(m.stripe_loss_events, 0),
        }
    }
}
