//! The SSD device: front end, cache, program pipeline, power-fail state
//! machine.
//!
//! The device is event-driven: the platform calls
//! [`Ssd::submit`] / [`Ssd::advance_to`] / [`Ssd::drain_completions`] to run
//! IO, and [`Ssd::power_fail`] / [`Ssd::power_on_recover`] around each
//! injected fault. See the crate-level docs for the architecture.

use std::collections::{HashMap, VecDeque};
use std::fmt;

use serde::{Deserialize, Serialize};

use pfault_flash::array::{FlashArray, PageData, ReadOutcome};
use pfault_flash::oob::Oob;
use pfault_ftl::{
    CheckpointOp, CheckpointStore, CommitOp, DurableLog, Ftl, GcPlan, JournalScanOutcome,
    RecoveryStats, WriteSlot,
};
use pfault_obs::{
    Layer, Metrics, ProbeEvent, ProbeLog, ProbeRecord, ProgramKind, RecoveryStepKind,
};
use pfault_power::FaultTimeline;
use pfault_sim::checksum::mix64;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration, SimTime};

use crate::cache::WriteCache;
use crate::completion::{Completion, CompletionKind};
use crate::config::SsdConfig;
use crate::sites::{FaultSite, SiteLog, SiteSpan};

/// A command submitted by the host (one block-layer sub-request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostCommand {
    /// Parent request identifier.
    pub request_id: u64,
    /// Sub-request index within the parent.
    pub sub_id: u32,
    /// Starting sector.
    pub lba: Lba,
    /// Length.
    pub sectors: SectorCount,
    /// Write or read.
    pub is_write: bool,
    /// Payload identity for writes (ignored for reads).
    pub payload_tag: u64,
    /// Sector offset of this sub-request within the parent request's
    /// payload (so split requests keep coherent per-sector tags).
    pub payload_offset: u64,
}

impl HostCommand {
    /// A write command (payload offset 0).
    pub fn write(
        request_id: u64,
        sub_id: u32,
        lba: Lba,
        sectors: SectorCount,
        payload_tag: u64,
    ) -> Self {
        HostCommand {
            request_id,
            sub_id,
            lba,
            sectors,
            is_write: true,
            payload_tag,
            payload_offset: 0,
        }
    }

    /// A read command.
    pub fn read(request_id: u64, sub_id: u32, lba: Lba, sectors: SectorCount) -> Self {
        HostCommand {
            request_id,
            sub_id,
            lba,
            sectors,
            is_write: false,
            payload_tag: 0,
            payload_offset: 0,
        }
    }

    /// Sets the payload offset (for split sub-requests).
    pub fn with_payload_offset(mut self, offset: u64) -> Self {
        self.payload_offset = offset;
        self
    }

    /// Content of the `i`-th sector of this command's payload.
    pub fn sector_content(&self, i: u64) -> PageData {
        PageData::from_tag(mix64(self.payload_tag, self.payload_offset + i))
    }
}

/// Result of a media scrub: per-sector readability over everything the
/// mapping table references.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ScrubReport {
    /// Mapped sectors scanned.
    pub scanned: u64,
    /// Sectors whose pages no longer decode (beyond ECC or erased).
    pub unreadable: u64,
    /// Sectors that decode but fail their content checksum.
    pub garbled: u64,
}

impl ScrubReport {
    /// Whether every mapped sector read back clean.
    pub fn is_clean(&self) -> bool {
        self.unreadable == 0 && self.garbled == 0
    }
}

/// Result of a post-recovery verification read of one sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VerifiedContent {
    /// The sector has no durable mapping: reads as if never written.
    Unwritten,
    /// The sector read back this content (checksum comparison is the
    /// Analyzer's job).
    Written(PageData),
    /// The mapped page is unreadable (beyond ECC).
    Unreadable,
}

/// Cumulative device counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct SsdStats {
    /// Write sub-requests acknowledged.
    pub writes_acked: u64,
    /// Read sub-requests acknowledged.
    pub reads_acked: u64,
    /// Sub-requests that failed with a device error.
    pub device_errors: u64,
    /// Read sectors served from the cache.
    pub cache_hits: u64,
    /// Read sectors that went to flash.
    pub cache_misses: u64,
    /// Journal commits completed.
    pub commits: u64,
    /// Mapping checkpoints completed.
    pub checkpoints: u64,
    /// FLUSH barriers acknowledged.
    pub flushes_acked: u64,
    /// GC victims reclaimed.
    pub gc_collections: u64,
    /// Dirty sectors lost in the last power fault.
    pub last_fault_dirty_lost: u64,
    /// Volatile mapping sectors lost in the last power fault.
    pub last_fault_map_lost: u64,
    /// Write/flush commands refused because the device is in read-only
    /// degraded mode.
    pub read_only_rejections: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PowerState {
    /// Normal operation.
    Operational,
    /// Degraded operation: recovery mounted the device read-only (spare
    /// blocks exhausted or mount retries spent after the map rebuilt).
    /// Reads are served; every write is refused.
    ReadOnly,
    /// Host link lost; firmware still (obliviously) working.
    Brownout,
    /// Rail collapsed; nothing works until recovery.
    Dead,
    /// Recovery failed permanently: the device never mounts again.
    Bricked,
}

/// Why a device-level operation failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceError {
    /// One post-fault mount attempt failed; the host may power-cycle and
    /// retry.
    MountFailed {
        /// Consecutive failed attempts so far.
        attempt: u32,
    },
    /// The device exhausted its mount retries and is permanently dead.
    Bricked {
        /// Total mount attempts made before the firmware gave up.
        attempts: u32,
    },
    /// The mount succeeded but FTL recovery rebuilt an unusable device
    /// (e.g. no free block left). Deterministic — the device bricks.
    RecoveryFailed {
        /// The underlying FTL recovery error.
        error: pfault_ftl::FtlError,
    },
    /// A power cut interrupted the recovery pipeline mid-stage. The
    /// device is dead again, but stages completed before the cut are
    /// checkpointed: the next mount resumes after the last completed
    /// stage boundary instead of restarting the pipeline.
    RecoveryInterrupted {
        /// 1-based pipeline position of the interrupted stage.
        stage: u32,
        /// The mount attempt that was interrupted.
        attempt: u32,
    },
    /// The operation needs mounted firmware, but the device is dead or
    /// browning out.
    NotMounted,
    /// The write path is disabled: recovery degraded the device to
    /// read-only mode.
    ReadOnly,
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::MountFailed { attempt } => {
                write!(f, "post-fault mount attempt {attempt} failed")
            }
            DeviceError::Bricked { attempts } => {
                write!(f, "device bricked after {attempts} failed mount attempts")
            }
            DeviceError::RecoveryFailed { error } => {
                write!(f, "post-fault recovery failed: {error}")
            }
            DeviceError::RecoveryInterrupted { stage, attempt } => {
                write!(
                    f,
                    "power cut interrupted recovery stage {stage} (mount attempt {attempt})"
                )
            }
            DeviceError::NotMounted => write!(f, "device is not mounted"),
            DeviceError::ReadOnly => write!(f, "device degraded to read-only mode"),
        }
    }
}

impl std::error::Error for DeviceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            DeviceError::RecoveryFailed { error } => Some(error),
            _ => None,
        }
    }
}

/// What a successful power-on recovery did, assembled from the FTL's
/// [`RecoveryStats`] plus the device-level mount bookkeeping. Returned
/// by [`Ssd::power_on_recover`] so callers (and campaign telemetry) can
/// attribute recovered state without re-deriving it from probe records.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryReport {
    /// Which mount attempt succeeded (1-based; >1 means earlier attempts
    /// failed and the host power-cycled).
    pub mount_attempt: u32,
    /// Whether a readable mapping checkpoint seeded the rebuild.
    pub checkpoint_restored: bool,
    /// Journal batches replayed cleanly.
    pub journal_batches_replayed: u64,
    /// Mapping entries applied from replayed batches.
    pub journal_entries_replayed: u64,
    /// Torn batches discarded whole by the CRC check.
    pub batches_discarded: u64,
    /// Batches never reached because replay stopped early.
    pub batches_truncated: u64,
    /// Pages adopted by the full-scan OOB reconciliation.
    pub scan_adoptions: u64,
    /// Final size of the rebuilt logical-to-physical map (the "map
    /// rebuild steps" of the recovery pipeline).
    pub map_rebuild_entries: u64,
    /// Whether this mount resumed a recovery that an earlier power cut
    /// (or failed mount) left unfinished.
    pub resumed: bool,
    /// Pipeline stages whose checkpointed results were reused instead of
    /// re-run on this mount.
    pub stages_skipped: u32,
    /// Mapped pages re-read by the dirty-page-verify stage.
    pub verified_pages: u64,
    /// Mapped pages the verify stage could not read back even through
    /// the retry ladder (retirement candidates).
    pub unreadable_pages: u64,
    /// Blocks taken out of service by the retirement stage.
    pub blocks_retired: u64,
    /// Readable sectors relocated out of retired blocks.
    pub pages_relocated: u64,
    /// Whether recovery degraded the device to read-only mode (spare
    /// pool exhausted, or mount retries spent after the map rebuilt).
    pub read_only: bool,
}

impl RecoveryReport {
    fn from_stats(mount_attempt: u32, stats: RecoveryStats) -> Self {
        RecoveryReport {
            mount_attempt,
            checkpoint_restored: stats.checkpoint_restored,
            journal_batches_replayed: stats.batches_replayed,
            journal_entries_replayed: stats.entries_replayed,
            batches_discarded: stats.batches_discarded_torn,
            batches_truncated: stats.batches_truncated,
            scan_adoptions: stats.scan_adoptions,
            map_rebuild_entries: stats.map_entries,
            resumed: false,
            stages_skipped: 0,
            verified_pages: 0,
            unreadable_pages: 0,
            blocks_retired: 0,
            pages_relocated: 0,
            read_only: false,
        }
    }
}

/// The stages of the mechanistic recovery pipeline, in execution order.
/// The verify and retirement stages only run when their config flags
/// (`recovery_verify`, `retire_bad_blocks`) are set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecoveryStage {
    /// Checkpoint selection + journal-page triage.
    JournalScan,
    /// Apply accepted batches over the checkpoint base; FullScan OOB
    /// reconciliation when configured.
    MappingRebuild,
    /// Re-read every mapped page through the retry ladder; nominate
    /// unreadable ones for retirement.
    DirtyPageVerify,
    /// Retire bad blocks, relocating their still-readable sectors.
    BadBlockRetirement,
}

impl RecoveryStage {
    /// 1-based pipeline position (the probe/repro vocabulary).
    fn index(self) -> u32 {
        match self {
            RecoveryStage::JournalScan => 1,
            RecoveryStage::MappingRebuild => 2,
            RecoveryStage::DirtyPageVerify => 3,
            RecoveryStage::BadBlockRetirement => 4,
        }
    }

    /// The fault site spanning this stage's execution window.
    fn site(self) -> FaultSite {
        match self {
            RecoveryStage::JournalScan => FaultSite::RecoveryJournalScan,
            RecoveryStage::MappingRebuild => FaultSite::MappingReplay,
            RecoveryStage::DirtyPageVerify => FaultSite::RecoveryVerify,
            RecoveryStage::BadBlockRetirement => FaultSite::RecoveryRetirement,
        }
    }
}

/// Firmware recovery progress, checkpointed at stage boundaries.
///
/// Held on the device across a mid-recovery power cut or failed mount
/// (modeling firmware that persists its recovery scratch state), so the
/// next mount *resumes* after the last completed stage instead of
/// silently restarting the pipeline. A stage interrupted mid-flight
/// restarts from its own boundary; completed stages never re-run.
#[derive(Debug, Clone, Default)]
struct RecoverySession {
    /// Stage-1 output: checkpoint base + triaged batches.
    scan: Option<JournalScanOutcome>,
    /// Stage-2 output: the rebuilt FTL awaiting verify/installation.
    ftl: Option<Ftl>,
    /// Rebuild statistics from the completed stages.
    stats: RecoveryStats,
    /// Stage-3 output: mapped pages that stayed unreadable through the
    /// retry ladder (retirement candidates). `Some` once verify ran.
    suspects: Option<Vec<(Lba, pfault_flash::Ppa)>>,
    /// Mapped pages the verify stage read back.
    verified_pages: u64,
    /// Blocks retired so far.
    blocks_retired: u64,
    /// Readable sectors relocated out of retired blocks.
    pages_relocated: u64,
    /// Set when retirement exhausted the spare pool: mount read-only.
    degrade_read_only: bool,
}

impl RecoverySession {
    /// Whether `stage`'s checkpointed output is already present.
    fn completed(&self, stage: RecoveryStage) -> bool {
        match stage {
            RecoveryStage::JournalScan => self.scan.is_some(),
            RecoveryStage::MappingRebuild => self.ftl.is_some(),
            RecoveryStage::DirtyPageVerify => self.suspects.is_some(),
            // Retirement is the final stage: its completion consumes the
            // whole session, so a live session never has it done.
            RecoveryStage::BadBlockRetirement => false,
        }
    }
}

/// How one pipeline stage execution ended.
#[derive(Debug, Clone, Copy)]
enum StageRun {
    /// The stage finished and checkpointed; `span` is its fault-site
    /// record (when the site log is enabled).
    Completed { span: Option<u64> },
    /// A power cut landed inside the stage window at `at`; its in-flight
    /// work is lost.
    Interrupted { at: SimTime },
}

#[derive(Debug, Clone, Copy)]
struct FrontOp {
    cmd: HostCommand,
    end: SimTime,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProgramSource {
    CacheFlush,
    Direct { request_id: u64, sub_id: u32 },
    GcRelocation { old_ppa: pfault_flash::Ppa },
}

#[derive(Debug, Clone, Copy)]
struct PipelineOp {
    lba: Lba,
    data: PageData,
    slot: WriteSlot,
    source: ProgramSource,
    start: SimTime,
    end: SimTime,
}

#[derive(Debug, Clone)]
enum ControlOp {
    Commit {
        op: CommitOp,
        start: SimTime,
        end: SimTime,
    },
    Checkpoint {
        op: CheckpointOp,
        start: SimTime,
        end: SimTime,
    },
    Erase {
        block: u64,
        start: SimTime,
        end: SimTime,
    },
}

#[derive(Debug, Clone)]
struct GcState {
    plan: GcPlan,
    pending: VecDeque<(Lba, pfault_flash::Ppa)>,
    in_flight: u32,
}

/// The simulated SSD. See the crate-level docs for an example.
///
/// `Clone` copies the entire device — NAND array, FTL, journal, cache,
/// queues, and the RNG stream position — and is the primitive behind
/// warm-state device images ([`crate::snapshot::DeviceImage`]): a cloned
/// device is indistinguishable from the original under every future
/// operation. After [`Ssd::capture`] freezes the flash arena, the NAND
/// part of the copy is a reference-count bump (copy-on-write overlay);
/// cloning an unfrozen device deep-copies its private overlay.
#[derive(Debug, Clone)]
pub struct Ssd {
    config: SsdConfig,
    now: SimTime,
    rng: DetRng,
    array: FlashArray,
    ftl: Ftl,
    durable: DurableLog,
    checkpoints: CheckpointStore,
    cache: WriteCache,
    state: PowerState,
    pending: VecDeque<HostCommand>,
    front: Option<FrontOp>,
    pipeline: VecDeque<PipelineOp>,
    control: Option<ControlOp>,
    direct_queue: VecDeque<(HostCommand, u64)>, // (cmd, next sector index)
    direct_remaining: HashMap<(u64, u32), u64>,
    gc: Option<GcState>,
    pending_flushes: Vec<(u64, u32)>,
    next_commit_at: SimTime,
    sync_flush_pending: bool,
    completions: Vec<Completion>,
    stats: SsdStats,
    mount_attempts: u32,
    recovery: Option<RecoverySession>,
    site_log: SiteLog,
    probes: ProbeLog,
}

impl Ssd {
    /// Creates a powered-on, empty drive.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid.
    pub fn new(config: SsdConfig, rng: DetRng) -> Self {
        config.validate();
        let mut rng = rng;
        let mut array = FlashArray::with_ecc(config.geometry, config.cell_kind, config.ecc);
        array.set_baseline_wear(config.baseline_wear);
        let ftl = Ftl::new(config.ftl);
        // The periodic-commit phase is arbitrary relative to host activity
        // (the firmware booted whenever it booted), so draw it uniformly:
        // the idle-tail exposure of §IV-A then varies per device instead
        // of cliff-edging at exactly one commit interval.
        let first_commit = SimTime::ZERO
            + config
                .ftl
                .commit_interval
                .mul_f64(0.25 + 0.75 * rng.unit_f64());
        Ssd {
            now: SimTime::ZERO,
            rng,
            array,
            ftl,
            durable: DurableLog::new(),
            checkpoints: CheckpointStore::new(),
            cache: WriteCache::new(config.cache.capacity_sectors),
            state: PowerState::Operational,
            pending: VecDeque::new(),
            front: None,
            pipeline: VecDeque::new(),
            control: None,
            direct_queue: VecDeque::new(),
            direct_remaining: HashMap::new(),
            gc: None,
            pending_flushes: Vec::new(),
            next_commit_at: first_commit,
            sync_flush_pending: false,
            completions: Vec::new(),
            stats: SsdStats::default(),
            mount_attempts: 0,
            recovery: None,
            site_log: SiteLog::new(),
            probes: ProbeLog::new(),
            config,
        }
    }

    /// Turns on the cross-layer probe bus: every subsequent cache, flash,
    /// FTL, power, and recovery transition emits a typed
    /// [`ProbeEvent`]. Off by default — the disabled bus costs one
    /// branch per site and allocates nothing.
    pub fn enable_probes(&mut self) {
        self.probes.enable();
    }

    /// Turns on the probe bus for metrics only: every event folds into
    /// [`Ssd::probe_metrics`] as it fires and no record is kept, so
    /// [`Ssd::probe_records`] stays empty.
    pub fn enable_probe_metrics(&mut self) {
        self.probes.enable_metrics_only();
    }

    /// The metrics folded from every probe event emitted so far (empty
    /// unless the probe bus is on).
    pub fn probe_metrics(&self) -> Metrics {
        self.probes.metrics()
    }

    /// The probe records emitted so far (empty unless
    /// [`Ssd::enable_probes`] was called).
    pub fn probe_records(&self) -> &[ProbeRecord] {
        self.probes.records()
    }

    /// Drains the probe records accumulated so far (recording stays on).
    pub fn take_probe_records(&mut self) -> Vec<ProbeRecord> {
        self.probes.take_records()
    }

    /// Forks the device's RNG stream with a trial-specific seed.
    ///
    /// Warm-snapshot trials restore a shared device image and then call
    /// this with the trial seed: the derived stream depends on *both* the
    /// warm stream position (captured in the snapshot) and the seed, so
    /// every trial sees fresh but reproducible device randomness, and a
    /// replayed-from-cold trial that performs the same warm-up and fork
    /// sees the identical stream.
    pub fn reseed_for_trial(&mut self, seed: u64) {
        self.rng = self.rng.fork_index(seed);
    }

    /// Digest of the device's observable state: simulated clock, power
    /// state, NAND array, FTL, durable journal/checkpoint counters, cache
    /// contents, queue depths, and the RNG stream position. Equal digests
    /// mean equal future behaviour; snapshot capture/restore is validated
    /// against this.
    pub fn state_digest(&self) -> u64 {
        use pfault_sim::checksum::mix64;
        let mut h = mix64(0x55D_D16E57, self.now.as_micros());
        h = mix64(h, self.rng.state_fingerprint());
        h = mix64(h, self.array.state_digest());
        h = mix64(h, self.ftl.state_digest());
        h = mix64(h, self.durable.len() as u64);
        h = mix64(h, self.checkpoints.len() as u64);
        let mut dirty: Vec<(u64, u64, u64)> = self
            .cache
            .dirty_entries()
            .into_iter()
            .map(|(lba, data)| (lba.index(), data.tag, data.checksum))
            .collect();
        dirty.sort_unstable();
        for (lba, tag, checksum) in dirty {
            h = mix64(h, lba);
            h = mix64(h, tag);
            h = mix64(h, checksum);
        }
        h = mix64(h, self.cache.resident_sectors());
        h = mix64(h, self.pending.len() as u64);
        h = mix64(h, self.pipeline.len() as u64);
        h = mix64(h, self.completions.len() as u64);
        h = mix64(h, self.next_commit_at.as_micros());
        h = mix64(h, u64::from(self.mount_attempts));
        let state_tag = match self.state {
            PowerState::Operational => 0u64,
            PowerState::ReadOnly => 1,
            PowerState::Brownout => 2,
            PowerState::Dead => 3,
            PowerState::Bricked => 4,
        };
        mix64(h, state_tag)
    }

    /// Freezes the device's bulky state for copy-on-write cloning: the
    /// flash arena becomes a shared immutable base
    /// ([`pfault_flash::array::FlashArray::flatten`]), the mapping
    /// table's stripes go behind `Arc`s ([`Ftl::freeze_map`]), and the
    /// durable log stores the frozen replay of its records
    /// ([`DurableLog::freeze`]). Observable state is unchanged.
    pub(crate) fn freeze(&mut self) {
        self.array.flatten();
        self.ftl.freeze_map();
        self.durable
            .freeze(self.config.ftl.geometry.pages_per_block());
    }

    /// Blocks materialised in this device's private copy-on-write
    /// overlay: `0` right after a clone of a frozen device, growing as
    /// the trial touches blocks. Diagnostic — campaign engines report it
    /// to size per-trial working sets.
    pub fn flash_overlay_blocks(&self) -> usize {
        self.array.overlay_blocks()
    }

    /// Whether two devices share the same frozen flash base (`Arc`
    /// identity, not content equality).
    pub fn shares_flash_base_with(&self, other: &Ssd) -> bool {
        self.array.shares_base_with(&other.array)
    }

    /// Turns on fault-site recording: every subsequent occurrence of a
    /// [`FaultSite`] is logged with its time span. Off by default —
    /// campaigns pay nothing for the instrumentation.
    pub fn enable_site_recording(&mut self) {
        self.site_log.enable();
    }

    /// The fault-site occurrences recorded so far (empty unless
    /// [`Ssd::enable_site_recording`] was called).
    pub fn site_spans(&self) -> &[SiteSpan] {
        self.site_log.spans()
    }

    /// The durable journal log (read-only; the sweep oracle's reference
    /// replay walks it independently of FTL recovery).
    pub fn durable_log(&self) -> &DurableLog {
        &self.durable
    }

    /// The durable checkpoint store (read-only; sweep-oracle input).
    pub fn checkpoint_store(&self) -> &CheckpointStore {
        &self.checkpoints
    }

    /// Sorted snapshot of the logical→physical mapping. The sweep oracle
    /// compares the post-recovery snapshot against an independent
    /// reference replay of the durable journal.
    pub fn mapped(&self) -> Vec<(Lba, pfault_flash::Ppa)> {
        let mut v: Vec<_> = self.ftl.iter_mapped().collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// The device configuration.
    pub fn config(&self) -> &SsdConfig {
        &self.config
    }

    /// Current device time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Device counters.
    pub fn stats(&self) -> SsdStats {
        self.stats
    }

    /// Flash-array counters (programs, erases, interruptions…).
    pub fn flash_stats(&self) -> pfault_flash::array::FlashStats {
        self.array.stats()
    }

    /// Whether the device is powered and reachable.
    pub fn is_operational(&self) -> bool {
        self.state == PowerState::Operational
    }

    /// Whether the device has permanently failed recovery.
    pub fn is_bricked(&self) -> bool {
        self.state == PowerState::Bricked
    }

    /// Whether recovery degraded the device to read-only mode: reads are
    /// served, writes are refused with
    /// [`CompletionKind::ReadOnlyRejected`].
    pub fn is_read_only(&self) -> bool {
        self.state == PowerState::ReadOnly
    }

    /// Mounted (fully or read-only): the firmware serves reads.
    fn is_mounted(&self) -> bool {
        matches!(self.state, PowerState::Operational | PowerState::ReadOnly)
    }

    /// Whether an interrupted recovery pipeline is waiting to be resumed
    /// by the next mount.
    pub fn has_pending_recovery(&self) -> bool {
        self.recovery.is_some()
    }

    /// Dead or bricked: the rail is down, nothing executes.
    fn powered_down(&self) -> bool {
        matches!(self.state, PowerState::Dead | PowerState::Bricked)
    }

    /// Dirty sectors currently in the write cache.
    pub fn dirty_cache_sectors(&self) -> u64 {
        self.cache.dirty_sectors()
    }

    /// Sectors whose mapping is still volatile (journal buffer).
    pub fn volatile_map_sectors(&self) -> u64 {
        self.ftl.volatile_mapped_sectors()
    }

    /// Submits a host sub-request at the current device time.
    ///
    /// Submitting to a dead or browning-out device fails immediately with
    /// a device-error completion — the paper's IO-error condition
    /// ("the request is issued to the SSD when it was unavailable").
    pub fn submit(&mut self, cmd: HostCommand) {
        if self.state == PowerState::ReadOnly && cmd.is_write {
            // Degraded mode: the write path is disabled, reads still
            // work. The host sees [`DeviceError::ReadOnly`] semantics via
            // a distinct completion kind.
            self.stats.read_only_rejections += 1;
            self.completions.push(Completion {
                request_id: cmd.request_id,
                sub_id: cmd.sub_id,
                time: self.now,
                kind: CompletionKind::ReadOnlyRejected,
            });
            return;
        }
        if !self.is_mounted() {
            self.stats.device_errors += 1;
            self.completions.push(Completion {
                request_id: cmd.request_id,
                sub_id: cmd.sub_id,
                time: self.now,
                kind: CompletionKind::DeviceError,
            });
            return;
        }
        self.pending.push_back(cmd);
        self.schedule_work();
    }

    /// Submits a FLUSH barrier: it completes once everything accepted
    /// before it is durable — dirty cache drained, mapping journal
    /// committed, open extent closed. Data acknowledged before a completed
    /// FLUSH survives any subsequent power fault; this is the barrier a
    /// file system's journal relies on, and the designer-facing mitigation
    /// the paper's §V implies.
    pub fn submit_flush(&mut self, request_id: u64, sub_id: u32) {
        if self.state == PowerState::ReadOnly {
            // Nothing can be dirty in read-only mode, but the barrier is
            // a write-path command: refuse it like a write.
            self.stats.read_only_rejections += 1;
            self.completions.push(Completion {
                request_id,
                sub_id,
                time: self.now,
                kind: CompletionKind::ReadOnlyRejected,
            });
            return;
        }
        if self.state != PowerState::Operational {
            self.stats.device_errors += 1;
            self.completions.push(Completion {
                request_id,
                sub_id,
                time: self.now,
                kind: CompletionKind::DeviceError,
            });
            return;
        }
        self.pending_flushes.push((request_id, sub_id));
        self.schedule_work();
        self.maybe_complete_flushes();
    }

    /// Whether everything accepted so far is durable. A FLUSH barrier
    /// orders behind every previously accepted command, so the front-end
    /// queue must be empty too.
    fn all_durable(&self) -> bool {
        self.pending.is_empty()
            && self.front.is_none()
            && self.cache.dirty_sectors() == 0
            && self.pipeline.is_empty()
            && self.direct_queue.is_empty()
            && self.direct_remaining.is_empty()
            && self.ftl.volatile_mapped_sectors() == 0
            && self.control.is_none()
    }

    fn maybe_complete_flushes(&mut self) {
        if self.pending_flushes.is_empty() || !self.all_durable() {
            return;
        }
        for (request_id, sub_id) in std::mem::take(&mut self.pending_flushes) {
            self.stats.flushes_acked += 1;
            self.completions.push(Completion {
                request_id,
                sub_id,
                time: self.now,
                kind: CompletionKind::Acked,
            });
        }
    }

    /// Takes all completions accumulated so far.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Earliest pending internal event, if any.
    pub fn next_event(&self) -> Option<SimTime> {
        let mut next: Option<SimTime> = None;
        let mut consider = |t: SimTime| {
            next = Some(next.map_or(t, |n| n.min(t)));
        };
        if let Some(f) = &self.front {
            consider(f.end);
        }
        if let Some(p) = self.pipeline.front() {
            consider(p.end);
        }
        match &self.control {
            Some(ControlOp::Commit { end, .. })
            | Some(ControlOp::Checkpoint { end, .. })
            | Some(ControlOp::Erase { end, .. }) => consider(*end),
            None => {}
        }
        // Interval commit becomes actionable at next_commit_at (it also
        // covers the open extent, which it force-closes).
        if self.control.is_none()
            && !self.powered_down()
            && (self.ftl.committable_entries() > 0 || self.ftl.open_extent_sectors() > 0)
        {
            consider(self.next_commit_at.max(self.now));
        }
        // A dirty entry becomes flushable when it ages past the delay.
        if self.has_free_lane() && !self.powered_down() && self.ftl.available_blocks() > 0 {
            if let Some(ready) = self.flush_ready_time() {
                consider(ready.max(self.now));
            }
        }
        next
    }

    fn flush_ready_time(&self) -> Option<SimTime> {
        // Conservative: if anything is dirty, it is ready no later than
        // inserted + delay; under pressure it is ready immediately. The
        // event loop re-checks via next_flushable.
        if self.cache.dirty_sectors() == 0 {
            return None;
        }
        // Cheap bound: ready now if the FIFO head qualifies (aged past
        // the delay, or cache under pressure), else "now + small step".
        // The event loop re-checks exactly via next_flushable.
        let inserted_at = self.cache.peek_flushable_inserted_at()?;
        let under_pressure = self.cache.dirty_sectors() as f64
            >= self.cache.capacity() as f64 * self.config.cache.pressure_watermark;
        let old_enough = self.now.saturating_since(inserted_at) >= self.config.cache.flush_delay;
        if old_enough || under_pressure {
            Some(self.now)
        } else {
            Some(self.now + SimDuration::from_millis(5))
        }
    }

    /// Advances device time to `t`, processing internal events in order.
    ///
    /// # Panics
    ///
    /// Panics if `t` is in the past.
    pub fn advance_to(&mut self, t: SimTime) {
        assert!(t >= self.now, "cannot advance into the past");
        while let Some(e) = self.next_event() {
            if e > t {
                break;
            }
            self.now = self.now.max(e);
            self.process_due_events();
            self.schedule_work();
        }
        self.now = t;
        self.schedule_work();
    }

    fn process_due_events(&mut self) {
        let now = self.now;
        if let Some(f) = self.front {
            if f.end <= now {
                self.front = None;
                self.finish_front(f);
            }
        }
        while self.pipeline.front().is_some_and(|p| p.end <= now) {
            let p = self.pipeline.pop_front().expect("front checked above");
            self.finish_program(p);
        }
        let control_done = match &self.control {
            Some(ControlOp::Commit { end, .. })
            | Some(ControlOp::Checkpoint { end, .. })
            | Some(ControlOp::Erase { end, .. }) => *end <= now,
            None => false,
        };
        if control_done {
            let op = self.control.take().expect("control op checked above");
            self.finish_control(op);
        }
        self.maybe_complete_flushes();
    }

    fn finish_front(&mut self, f: FrontOp) {
        let cmd = f.cmd;
        if cmd.is_write {
            if self.config.cache.enabled {
                // Insert all sectors dirty and ACK.
                for i in 0..cmd.sectors.get() {
                    let lba = Lba::new(cmd.lba.index() + i);
                    self.cache.insert(lba, cmd.sector_content(i), f.end);
                }
                let dirty = self.cache.dirty_sectors();
                self.probes.emit_with(f.end, Layer::Cache, || {
                    (
                        Some(cmd.request_id),
                        None,
                        ProbeEvent::CacheInsert {
                            lba: cmd.lba.index(),
                            dirty,
                        },
                    )
                });
                self.stats.writes_acked += 1;
                self.completions.push(Completion {
                    request_id: cmd.request_id,
                    sub_id: cmd.sub_id,
                    time: f.end,
                    kind: CompletionKind::Acked,
                });
            } else {
                // Direct write: sectors feed the pipeline; ACK on the last
                // program.
                self.direct_remaining
                    .insert((cmd.request_id, cmd.sub_id), cmd.sectors.get());
                self.direct_queue.push_back((cmd, 0));
            }
        } else {
            // Read service finished; account hit/miss statistics.
            for i in 0..cmd.sectors.get() {
                let lba = Lba::new(cmd.lba.index() + i);
                if self.cache.lookup(lba).is_some() {
                    self.stats.cache_hits += 1;
                } else {
                    self.stats.cache_misses += 1;
                }
            }
            self.stats.reads_acked += 1;
            self.completions.push(Completion {
                request_id: cmd.request_id,
                sub_id: cmd.sub_id,
                time: f.end,
                kind: CompletionKind::Acked,
            });
        }
    }

    fn finish_program(&mut self, p: PipelineOp) {
        // The program committed to the array at completion time.
        let oob = Oob::user(p.lba, p.slot.seq);
        self.array
            .program(p.slot.ppa, p.data, oob)
            .expect("pipeline programs are reserved in order");
        self.probes.emit_with(p.end, Layer::Flash, || {
            (
                Ssd::program_request(&p.source),
                None,
                ProbeEvent::ProgramEnd {
                    kind: Ssd::program_kind(&p.source),
                    block: p.slot.ppa.block,
                    page: p.slot.ppa.page,
                    us: (p.end - p.start).as_micros(),
                },
            )
        });
        if let ProgramSource::GcRelocation { old_ppa } = p.source {
            self.probes.emit_with(p.end, Layer::Ftl, || {
                (
                    None,
                    None,
                    ProbeEvent::GcMove {
                        lba: p.lba.index(),
                        from_block: old_ppa.block,
                        to_block: p.slot.ppa.block,
                    },
                )
            });
        }
        match p.source {
            ProgramSource::CacheFlush => {
                self.ftl.finish_user_write(&p.slot);
                self.cache.flush_complete(p.lba, p.data);
            }
            ProgramSource::Direct { request_id, sub_id } => {
                self.ftl.finish_user_write(&p.slot);
                // The tracking entry is gone if the host link dropped
                // mid-request (the command was already errored); the
                // program itself still lands.
                if let Some(remaining) = self.direct_remaining.get_mut(&(request_id, sub_id)) {
                    *remaining -= 1;
                    if *remaining == 0 {
                        self.direct_remaining.remove(&(request_id, sub_id));
                        self.stats.writes_acked += 1;
                        if self.state == PowerState::Operational {
                            self.completions.push(Completion {
                                request_id,
                                sub_id,
                                time: p.end,
                                kind: CompletionKind::Acked,
                            });
                        }
                    }
                }
            }
            ProgramSource::GcRelocation { old_ppa } => {
                // Publish only if the host has not overwritten it meanwhile.
                if self.ftl.lookup(p.lba) == Some(old_ppa) {
                    self.ftl.finish_user_write(&p.slot);
                }
                if let Some(gc) = &mut self.gc {
                    gc.in_flight -= 1;
                }
            }
        }
    }

    fn finish_control(&mut self, op: ControlOp) {
        match op {
            ControlOp::Commit { op, start, end } => {
                // Journal page content: the batch id, tagged as journal.
                let data = PageData::from_tag(mix64(0x4A4E_4C00, op.batch.id));
                self.array
                    .program(op.page, data, Oob::journal(op.batch.id, op.seq))
                    .expect("journal pages are reserved in order");
                self.probes.emit_with(end, Layer::Ftl, || {
                    (
                        None,
                        None,
                        ProbeEvent::JournalCommit {
                            entries: op.batch.entries.len() as u64,
                            coverage: op.batch.coverage(),
                            us: (end - start).as_micros(),
                        },
                    )
                });
                self.ftl.finish_journal_commit(op, &mut self.durable);
                self.stats.commits += 1;
            }
            ControlOp::Checkpoint { op, start, end } => {
                let data = PageData::from_tag(mix64(0xC4EC_0000, op.checkpoint.id));
                self.array
                    .program(op.page, data, Oob::checkpoint(op.checkpoint.id, op.seq))
                    .expect("checkpoint pages are reserved in order");
                self.probes.emit_with(end, Layer::Ftl, || {
                    (
                        None,
                        None,
                        ProbeEvent::CheckpointEnd {
                            id: op.checkpoint.id,
                            us: (end - start).as_micros(),
                        },
                    )
                });
                self.ftl.finish_checkpoint(op, &mut self.checkpoints);
                self.checkpoints.prune(4);
                self.stats.checkpoints += 1;
            }
            ControlOp::Erase { block, start, end } => {
                self.array.erase(block).expect("gc erases a full block");
                let count = self.array.erase_count(block);
                self.probes.emit_with(end, Layer::Flash, || {
                    (
                        None,
                        None,
                        ProbeEvent::EraseEnd {
                            block,
                            us: (end - start).as_micros(),
                        },
                    )
                });
                self.ftl.finish_gc(block, count);
                self.stats.gc_collections += 1;
                self.gc = None;
            }
        }
    }

    fn schedule_work(&mut self) {
        if self.powered_down() {
            return;
        }
        self.start_front();
        // Read-only mode keeps the whole write path parked: no flushes,
        // no commits, no GC. (Brownout keeps working obliviously.)
        if self.state != PowerState::ReadOnly {
            self.start_pipeline();
            self.start_control();
        }
    }

    fn start_front(&mut self) {
        if !self.is_mounted() {
            return; // host link gone
        }
        if self.front.is_some() {
            return;
        }
        let Some(cmd) = self.pending.front().copied() else {
            return;
        };
        if cmd.is_write && self.config.cache.enabled {
            let n = cmd.sectors.get();
            if !self.cache.has_room_for(n) {
                self.cache.evict_clean(n);
            }
            if !self.cache.has_room_for(n) {
                return; // back-pressure: wait for flushes
            }
        }
        self.pending.pop_front();
        let duration = self.config.command_overhead
            + self.config.per_sector_transfer * cmd.sectors.get()
            + if !cmd.is_write && !self.all_sectors_cached(&cmd) {
                self.config.read_latency
            } else {
                SimDuration::ZERO
            };
        self.front = Some(FrontOp {
            cmd,
            end: self.now + duration,
        });
    }

    fn all_sectors_cached(&self, cmd: &HostCommand) -> bool {
        (0..cmd.sectors.get()).all(|i| self.cache.lookup(Lba::new(cmd.lba.index() + i)).is_some())
    }

    fn effective_program_duration(&self, page: u64) -> SimDuration {
        let raw = self
            .array
            .timing()
            .program_duration(self.config.cell_kind, page);
        ((raw * u64::from(self.config.program_lanes)) / u64::from(self.config.channels))
            .max(SimDuration::from_micros(5))
    }

    /// Ops still executing (their program has not finished; finished ops
    /// may linger at the back of the queue waiting for in-order
    /// retirement and do not occupy a lane).
    fn executing_programs(&self) -> u32 {
        let now = self.now;
        self.pipeline.iter().filter(|p| p.end > now).count() as u32
    }

    /// Whether a program lane is open. Executing ops never outnumber
    /// queued ops, so a short queue skips the per-op scan entirely.
    fn has_free_lane(&self) -> bool {
        self.pipeline.len() < self.config.program_lanes as usize
            || self.executing_programs() < self.config.program_lanes
    }

    fn start_pipeline(&mut self) {
        // Count once and track increments: every started program ends
        // strictly in the future, so it joins the executing set.
        let mut executing = self.executing_programs();
        while executing < self.config.program_lanes {
            if !self.start_one_program() {
                break;
            }
            executing += 1;
        }
    }

    /// Logs a user-data program occurrence, plus the paired-page site when
    /// the program endangers earlier wordline siblings. Returns the span
    /// id of the primary site (for probe tagging) when recording is on.
    fn record_program_site(
        &mut self,
        site: FaultSite,
        slot: &WriteSlot,
        end: SimTime,
    ) -> Option<u64> {
        if !self.site_log.is_enabled() {
            return None;
        }
        let span = self.site_log.record(site, self.now, end, Some(slot.ppa));
        if pfault_flash::pairing::endangers_earlier(self.config.cell_kind, slot.ppa.page) {
            self.site_log.record(
                FaultSite::PairedSecondProgram,
                self.now,
                end,
                Some(slot.ppa),
            );
        }
        span
    }

    /// The probe-bus kind for a pipeline op's source.
    fn program_kind(source: &ProgramSource) -> ProgramKind {
        match source {
            ProgramSource::CacheFlush => ProgramKind::CacheFlush,
            ProgramSource::Direct { .. } => ProgramKind::Direct,
            ProgramSource::GcRelocation { .. } => ProgramKind::GcReloc,
        }
    }

    /// The host request a pipeline op is attributable to, when any.
    fn program_request(source: &ProgramSource) -> Option<u64> {
        match source {
            ProgramSource::Direct { request_id, .. } => Some(*request_id),
            _ => None,
        }
    }

    /// Starts at most one program op; returns whether one was started.
    fn start_one_program(&mut self) -> bool {
        // In-order retirement is enforced at pop time: an op whose
        // program finishes early simply retires when the ops ahead of it
        // do.
        // 1. Direct (cache-off) write sectors.
        if let Some((cmd, idx)) = self.direct_queue.front().copied() {
            let lba = Lba::new(cmd.lba.index() + idx);
            match self.ftl.begin_user_write(lba) {
                Ok(slot) => {
                    if idx + 1 >= cmd.sectors.get() {
                        self.direct_queue.pop_front();
                    } else {
                        self.direct_queue.front_mut().expect("front exists").1 += 1;
                    }
                    let duration = self.effective_program_duration(slot.ppa.page);
                    let end = self.now + duration;
                    let span = self.record_program_site(FaultSite::DirectProgram, &slot, end);
                    let now = self.now;
                    self.probes.emit_with(now, Layer::Flash, || {
                        (
                            Some(cmd.request_id),
                            span,
                            ProbeEvent::ProgramStart {
                                kind: ProgramKind::Direct,
                                block: slot.ppa.block,
                                page: slot.ppa.page,
                            },
                        )
                    });
                    self.pipeline.push_back(PipelineOp {
                        lba,
                        data: cmd.sector_content(idx),
                        slot,
                        source: ProgramSource::Direct {
                            request_id: cmd.request_id,
                            sub_id: cmd.sub_id,
                        },
                        start: self.now,
                        end,
                    });
                    return true;
                }
                Err(_) => return false, // out of blocks: wait for GC
            }
        }
        // 2. Cache flushes. A pending FLUSH barrier overrides the lazy
        // timer: everything dirty is immediately eligible.
        let (delay, watermark) = if self.pending_flushes.is_empty() {
            (
                self.config.cache.flush_delay,
                self.config.cache.pressure_watermark,
            )
        } else {
            (SimDuration::ZERO, 0.0)
        };
        if let Some((lba, data)) = self.cache.next_flushable(self.now, delay, watermark) {
            match self.ftl.begin_user_write(lba) {
                Ok(slot) => {
                    let duration = self.effective_program_duration(slot.ppa.page);
                    let end = self.now + duration;
                    let span = self.record_program_site(FaultSite::CacheFlushProgram, &slot, end);
                    let now = self.now;
                    let dirty = self.cache.dirty_sectors();
                    self.probes.emit_with(now, Layer::Cache, || {
                        (
                            None,
                            span,
                            ProbeEvent::CacheEvict {
                                lba: lba.index(),
                                dirty,
                            },
                        )
                    });
                    self.probes.emit_with(now, Layer::Flash, || {
                        (
                            None,
                            span,
                            ProbeEvent::ProgramStart {
                                kind: ProgramKind::CacheFlush,
                                block: slot.ppa.block,
                                page: slot.ppa.page,
                            },
                        )
                    });
                    self.pipeline.push_back(PipelineOp {
                        lba,
                        data,
                        slot,
                        source: ProgramSource::CacheFlush,
                        start: self.now,
                        end,
                    });
                    return true;
                }
                Err(_) => {
                    self.cache.flush_aborted(lba);
                    return false;
                }
            }
        }
        // 3. GC relocations.
        let reloc = self.gc.as_mut().and_then(|gc| {
            gc.pending.pop_front().inspect(|_r| {
                gc.in_flight += 1;
            })
        });
        if let Some((lba, old_ppa)) = reloc {
            // Read the live data synchronously (array state lookup).
            let outcome = self.read_media(old_ppa);
            let data = match outcome {
                ReadOutcome::Ok { data, .. } => data,
                // Unreadable victim data: nothing to relocate.
                _ => {
                    if let Some(gc) = &mut self.gc {
                        gc.in_flight -= 1;
                    }
                    return false;
                }
            };
            if let Ok(slot) = self.ftl.begin_user_write(lba) {
                let duration = self.effective_program_duration(slot.ppa.page);
                let end = self.now + duration;
                let span = self.record_program_site(FaultSite::GcRelocProgram, &slot, end);
                let now = self.now;
                self.probes.emit_with(now, Layer::Flash, || {
                    (
                        None,
                        span,
                        ProbeEvent::ProgramStart {
                            kind: ProgramKind::GcReloc,
                            block: slot.ppa.block,
                            page: slot.ppa.page,
                        },
                    )
                });
                self.pipeline.push_back(PipelineOp {
                    lba,
                    data,
                    slot,
                    source: ProgramSource::GcRelocation { old_ppa },
                    start: self.now,
                    end,
                });
                return true;
            } else if let Some(gc) = &mut self.gc {
                gc.in_flight -= 1;
            }
        }
        false
    }

    fn start_control(&mut self) {
        if self.control.is_some() {
            return;
        }
        // The periodic full sync ticks on an absolute cadence (anchored at
        // boot with a random phase): when a tick passes, the open extent
        // is force-closed so the next commit covers it. This bounds idle
        // exposure by the commit interval (§IV-A's ~700 ms tail) while
        // backlog-driven commits — which do NOT close the open extent —
        // keep the under-load window tight (§IV-D's extent penalty
        // survives on hot runs).
        if self.now >= self.next_commit_at {
            if self.ftl.open_extent_sectors() > 0 {
                self.ftl.close_open_extent();
            }
            self.sync_flush_pending = true;
            while self.next_commit_at <= self.now {
                self.next_commit_at += self.config.ftl.commit_interval;
            }
        }
        // A pending FLUSH barrier needs the whole journal durable now:
        // close the open extent and force a commit regardless of backlog.
        if !self.pending_flushes.is_empty() {
            if self.ftl.open_extent_sectors() > 0 {
                self.ftl.close_open_extent();
            }
            if self.ftl.committable_entries() > 0 {
                self.sync_flush_pending = true;
            }
        }
        let commit_due = self.ftl.commit_due_by_count()
            || (self.sync_flush_pending && self.ftl.committable_entries() > 0);
        if commit_due {
            if let Ok(Some(op)) = self.ftl.begin_journal_commit() {
                self.sync_flush_pending = false;
                let duration = self
                    .array
                    .timing()
                    .program_duration(self.config.cell_kind, op.page.page);
                let end = self.now + duration;
                let span = self.site_log.record(
                    FaultSite::JournalCommitProgram,
                    self.now,
                    end,
                    Some(op.page),
                );
                let now = self.now;
                self.probes.emit_with(now, Layer::Flash, || {
                    (
                        None,
                        span,
                        ProbeEvent::ProgramStart {
                            kind: ProgramKind::Journal,
                            block: op.page.block,
                            page: op.page.page,
                        },
                    )
                });
                self.control = Some(ControlOp::Commit {
                    op,
                    start: self.now,
                    end,
                });
                return;
            }
        }
        // Checkpoint: bound recovery replay once enough batches piled up.
        if self.ftl.checkpoint_due() {
            if let Ok(op) = self.ftl.begin_checkpoint() {
                // A full-map snapshot is bigger than one page program;
                // model it as a handful of page programs back to back.
                let duration = self
                    .array
                    .timing()
                    .program_duration(self.config.cell_kind, op.page.page)
                    * 4;
                let end = self.now + duration;
                let span = self.site_log.record(
                    FaultSite::CheckpointProgram,
                    self.now,
                    end,
                    Some(op.page),
                );
                let now = self.now;
                let entries = op.checkpoint.len() as u64;
                let id = op.checkpoint.id;
                self.probes.emit_with(now, Layer::Ftl, || {
                    (None, span, ProbeEvent::CheckpointBegin { id, entries })
                });
                self.control = Some(ControlOp::Checkpoint {
                    op,
                    start: self.now,
                    end,
                });
                return;
            }
        }
        // Garbage collection.
        if self.gc.is_none() && self.ftl.gc_needed() {
            if let Some(plan) = self.ftl.gc_plan() {
                let pending: VecDeque<_> = plan.relocations.iter().copied().collect();
                self.gc = Some(GcState {
                    plan,
                    pending,
                    in_flight: 0,
                });
            }
        }
        if let Some(gc) = &self.gc {
            if gc.pending.is_empty() && gc.in_flight == 0 {
                let block = gc.plan.victim;
                let duration = self.array.timing().erase;
                let end = self.now + duration;
                let span = self.site_log.record(
                    FaultSite::GcErase,
                    self.now,
                    end,
                    Some(pfault_flash::Ppa::new(block, 0)),
                );
                let now = self.now;
                self.probes.emit_with(now, Layer::Flash, || {
                    (None, span, ProbeEvent::EraseStart { block })
                });
                self.control = Some(ControlOp::Erase {
                    block,
                    start: self.now,
                    end,
                });
            }
        }
    }

    /// Applies a power fault.
    ///
    /// The device advances to `timeline.host_lost` normally (the rail is
    /// still ≥ 4.5 V), then the host link dies: every unacknowledged
    /// command fails with a device error. Firmware without a supercap keeps
    /// working obliviously until `timeline.flash_unreliable`; whatever is
    /// in flight then is interrupted, and all volatile state (cache,
    /// mapping table, journal buffer) is lost. With a supercap the firmware
    /// instead panic-flushes from stored energy.
    ///
    /// # Panics
    ///
    /// Panics if the timeline starts in the device's past.
    pub fn power_fail(&mut self, timeline: &FaultTimeline) {
        self.advance_to(timeline.host_lost);
        self.probes
            .emit(timeline.host_lost, Layer::Power, timeline.probe_event());
        self.state = PowerState::Brownout;
        self.fail_host_side(timeline.host_lost);

        if self.config.supercap {
            self.panic_flush();
            self.die_cleanly();
            return;
        }

        // Oblivious firmware: flush/commit continue until the rail is too
        // low for reliable NAND operations.
        self.advance_to(timeline.flash_unreliable);
        self.die_hard();
    }

    /// Errors out every host-visible command that has not been ACKed: the
    /// link is gone.
    fn fail_host_side(&mut self, at: SimTime) {
        let errors_before = self.stats.device_errors;
        let error = |request_id: u64,
                     sub_id: u32,
                     completions: &mut Vec<Completion>,
                     stats: &mut SsdStats| {
            stats.device_errors += 1;
            completions.push(Completion {
                request_id,
                sub_id,
                time: at,
                kind: CompletionKind::DeviceError,
            });
        };
        for cmd in std::mem::take(&mut self.pending) {
            error(
                cmd.request_id,
                cmd.sub_id,
                &mut self.completions,
                &mut self.stats,
            );
        }
        if let Some(f) = self.front.take() {
            error(
                f.cmd.request_id,
                f.cmd.sub_id,
                &mut self.completions,
                &mut self.stats,
            );
        }
        let direct_outstanding: Vec<(u64, u32)> = self.direct_remaining.keys().copied().collect();
        for (request_id, sub_id) in direct_outstanding {
            error(request_id, sub_id, &mut self.completions, &mut self.stats);
        }
        self.direct_remaining.clear();
        self.direct_queue.clear();
        for (request_id, sub_id) in std::mem::take(&mut self.pending_flushes) {
            error(request_id, sub_id, &mut self.completions, &mut self.stats);
        }
        let errored = self.stats.device_errors - errors_before;
        self.probes.emit_with(at, Layer::Host, || {
            (None, None, ProbeEvent::HostLinkLost { inflight: errored })
        });
    }

    /// Applies a transient voltage sag and returns its classified
    /// severity. Harmless sags pass unnoticed; a link-drop sag errors the
    /// in-flight host commands but preserves all internal state; a deeper
    /// sag resets the controller — volatile state dies exactly as in a
    /// full outage — but power returns by itself at the sag's end and the
    /// firmware recovers immediately.
    ///
    /// # Panics
    ///
    /// Panics if the sag starts in the device's past.
    pub fn apply_brownout(
        &mut self,
        event: &pfault_power::BrownoutEvent,
    ) -> pfault_power::BrownoutSeverity {
        use pfault_power::psu::{FLASH_UNRELIABLE_MV, HOST_LOSS_MV};
        use pfault_power::BrownoutSeverity;
        let nominal = crate::config::NOMINAL_RAIL;
        let severity = event.severity();
        match severity {
            BrownoutSeverity::Harmless => {
                self.advance_to(event.end());
            }
            BrownoutSeverity::LinkDrop => {
                let (down, up) = event
                    .window_below(HOST_LOSS_MV, nominal)
                    .expect("link-drop sag crosses host loss");
                self.advance_to(down);
                self.state = PowerState::Brownout;
                self.fail_host_side(down);
                // Internal work continues through the dip.
                self.advance_to(up);
                self.state = PowerState::Operational;
                self.advance_to(event.end());
            }
            BrownoutSeverity::ControllerReset | BrownoutSeverity::CoreLoss => {
                let (down, _) = event
                    .window_below(HOST_LOSS_MV, nominal)
                    .expect("reset sag crosses host loss");
                self.advance_to(down);
                self.state = PowerState::Brownout;
                self.fail_host_side(down);
                let (reset_at, _) = event
                    .window_below(FLASH_UNRELIABLE_MV, nominal)
                    .expect("reset sag crosses the brownout detector");
                self.advance_to(reset_at);
                self.die_hard();
                // Power returns by itself at the sag's end; a config with
                // mount failures would panic here exactly as before the
                // Result-first cleanup.
                self.power_on_recover(event.end())
                    .expect("sag recovery remounts");
            }
        }
        severity
    }

    /// Supercap-powered orderly shutdown: finish the in-flight program,
    /// flush every dirty sector, close the open extent, and commit the
    /// journal — all from stored energy.
    fn panic_flush(&mut self) {
        while let Some(p) = self.pipeline.pop_front() {
            self.finish_program(p);
        }
        if let Some(op) = self.control.take() {
            self.finish_control(op);
        }
        let dirty = self.cache.dirty_entries();
        for (lba, data) in dirty {
            if let Ok(slot) = self.ftl.begin_user_write(lba) {
                let oob = Oob::user(lba, slot.seq);
                if self.array.program(slot.ppa, data, oob).is_ok() {
                    self.ftl.finish_user_write(&slot);
                    self.cache.flush_complete(lba, data);
                }
            }
        }
        self.ftl.close_open_extent();
        while let Ok(Some(op)) = self.ftl.begin_journal_commit() {
            let data = PageData::from_tag(mix64(0x4A4E_4C00, op.batch.id));
            if self
                .array
                .program(op.page, data, Oob::journal(op.batch.id, op.seq))
                .is_ok()
            {
                // Supercap commits burn stored energy, not simulated
                // time: the whole panic flush is modelled as instant.
                let (now, entries, coverage) =
                    (self.now, op.batch.entries.len() as u64, op.batch.coverage());
                self.probes.emit_with(now, Layer::Ftl, || {
                    (
                        None,
                        None,
                        ProbeEvent::JournalCommit {
                            entries,
                            coverage,
                            us: 0,
                        },
                    )
                });
                self.ftl.finish_journal_commit(op, &mut self.durable);
                self.stats.commits += 1;
            } else {
                break;
            }
        }
    }

    fn die_cleanly(&mut self) {
        self.stats.last_fault_dirty_lost = self.cache.dirty_sectors();
        self.stats.last_fault_map_lost = self.ftl.volatile_mapped_sectors();
        let (now, dirty, map) = (
            self.now,
            self.stats.last_fault_dirty_lost,
            self.stats.last_fault_map_lost,
        );
        self.probes.emit_with(now, Layer::Power, || {
            (None, None, ProbeEvent::VolatileLost { dirty, map })
        });
        self.cache.clear();
        self.pipeline.clear();
        self.control = None;
        self.direct_queue.clear();
        self.direct_remaining.clear();
        self.gc = None;
        self.array.power_off();
        self.state = PowerState::Dead;
    }

    fn die_hard(&mut self) {
        // Interrupt everything mid-operation at the reset instant: ops
        // whose own program already finished retire normally (their data
        // is on the array even if the in-order bookkeeping lagged), the
        // rest are cut mid-ISPP.
        let inflight: Vec<PipelineOp> = self.pipeline.drain(..).collect();
        for p in inflight {
            if p.end <= self.now {
                self.finish_program(p);
                continue;
            }
            let total = (p.end - p.start).as_micros().max(1);
            let done = self.now.saturating_since(p.start).as_micros();
            let progress = (done as f64 / total as f64).clamp(0.0, 1.0);
            let now = self.now;
            self.probes.emit_with(now, Layer::Flash, || {
                (
                    Ssd::program_request(&p.source),
                    None,
                    ProbeEvent::ProgramInterrupted {
                        kind: Ssd::program_kind(&p.source),
                        block: p.slot.ppa.block,
                        page: p.slot.ppa.page,
                        progress_permille: (progress * 1000.0) as u64,
                    },
                )
            });
            self.array
                .interrupt_program(p.slot.ppa, progress, &mut self.rng);
        }
        match self.control.take() {
            Some(ControlOp::Commit { op, start, end }) => {
                // A torn journal write: the page header (batch id + the
                // full batch's CRC) lands first, then the entry stream —
                // cut mid-program, only a prefix of the entries persists
                // under the full batch's checksum. Recovery recomputes the
                // CRC over what survived, sees the mismatch, and discards
                // the batch whole (unless `verify_batch_crc` is off, which
                // reintroduces the half-apply firmware bug).
                let total = (end - start).as_micros().max(1);
                let done = self.now.saturating_since(start).as_micros();
                let progress = (done as f64 / total as f64).clamp(0.0, 1.0);
                let keep = (op.batch.coverage() as f64 * progress).floor() as u64;
                if keep > 0 {
                    let data = PageData::from_tag(mix64(0x4A4E_4C00, op.batch.id));
                    if self
                        .array
                        .program(op.page, data, Oob::journal(op.batch.id, op.seq))
                        .is_ok()
                    {
                        let (now, full) = (self.now, op.batch.coverage());
                        self.probes.emit_with(now, Layer::Ftl, || {
                            (None, None, ProbeEvent::JournalTorn { kept: keep, full })
                        });
                        self.durable.append_torn(op.page, &op.batch, keep);
                    }
                }
                // The rest of the batch never became durable.
            }
            Some(ControlOp::Checkpoint { op, end, .. }) => {
                // The snapshot never completed: garble what was written of
                // its page; recovery falls back to the previous
                // checkpoint plus a longer journal replay.
                let progress = 1.0
                    - (end.saturating_since(self.now).as_micros() as f64
                        / self
                            .array
                            .timing()
                            .program_duration(self.config.cell_kind, op.page.page)
                            .as_micros()
                            .max(1) as f64)
                        .clamp(0.0, 1.0);
                let (now, id) = (self.now, op.checkpoint.id);
                self.probes.emit_with(now, Layer::Ftl, || {
                    (None, None, ProbeEvent::CheckpointInterrupted { id })
                });
                self.array
                    .interrupt_program(op.page, progress, &mut self.rng);
            }
            Some(ControlOp::Erase { block, .. }) => {
                let now = self.now;
                self.probes.emit_with(now, Layer::Flash, || {
                    (None, None, ProbeEvent::EraseInterrupted { block })
                });
                self.array.interrupt_erase(block);
            }
            None => {}
        }
        self.stats.last_fault_dirty_lost = self.cache.dirty_sectors();
        self.stats.last_fault_map_lost = self.ftl.volatile_mapped_sectors();
        let (now, dirty, map) = (
            self.now,
            self.stats.last_fault_dirty_lost,
            self.stats.last_fault_map_lost,
        );
        self.probes.emit_with(now, Layer::Power, || {
            (None, None, ProbeEvent::VolatileLost { dirty, map })
        });
        self.cache.clear();
        self.direct_queue.clear();
        self.direct_remaining.clear();
        self.gc = None;
        self.array.power_off();
        self.state = PowerState::Dead;
    }

    /// Restores power at `now` and runs the firmware's staged recovery
    /// pipeline on simulated time: journal scan → mapping rebuild →
    /// dirty-page verify (with `recovery_verify`) → bad-block retirement
    /// (with `retire_bad_blocks`). On success, the returned
    /// [`RecoveryReport`] says what the pipeline did — batches replayed,
    /// torn batches discarded, pages verified, blocks retired, and
    /// whether the mount resumed an earlier interrupted recovery.
    ///
    /// With a nonzero `mount_failure_rate`, each stage may die on a
    /// transient firmware fault (one full pipeline pass fails with
    /// exactly the configured rate); the host may power-cycle and call
    /// again at a later `now`, and the mount resumes after the last
    /// completed stage. After `mount_retry_limit` consecutive failures
    /// the device bricks — unless the mapping was already rebuilt, in
    /// which case it mounts read-only instead.
    ///
    /// # Errors
    ///
    /// [`DeviceError::MountFailed`] on a transient mount failure,
    /// [`DeviceError::Bricked`] once retries are exhausted before a
    /// usable map existed, and [`DeviceError::RecoveryFailed`] when the
    /// rebuild itself is unusable (deterministic — the device bricks).
    ///
    /// # Panics
    ///
    /// Panics if the device is operational or still browning out, or if
    /// `now` precedes the device clock.
    pub fn power_on_recover(&mut self, now: SimTime) -> Result<RecoveryReport, DeviceError> {
        self.run_recovery(now, None)
    }

    /// Like [`Ssd::power_on_recover`], but a second power cut strikes
    /// while the pipeline runs: if the mount is still in flight when the
    /// rail collapses (`cut.flash_unreliable`), the working stage is
    /// interrupted, the device is dead again, and the call returns
    /// [`DeviceError::RecoveryInterrupted`]. Stages completed before the
    /// cut stay checkpointed in firmware scratch state — the next mount
    /// resumes after the last completed boundary. A pipeline that
    /// finishes at or before the cut instant mounts normally; the caller
    /// then owns delivering the cut to the now-operational device.
    ///
    /// # Errors
    ///
    /// [`DeviceError::RecoveryInterrupted`] when the cut lands inside
    /// the pipeline, plus everything [`Ssd::power_on_recover`] returns.
    ///
    /// # Panics
    ///
    /// Panics if the device is operational or still browning out, or if
    /// `now` precedes the device clock.
    pub fn power_on_recover_interruptible(
        &mut self,
        now: SimTime,
        cut: &FaultTimeline,
    ) -> Result<RecoveryReport, DeviceError> {
        self.run_recovery(now, Some(cut.flash_unreliable))
    }

    /// The pipeline stages this configuration runs. Retirement needs the
    /// verify stage's candidates, so it only runs when both flags are on.
    fn enabled_stages(&self) -> Vec<RecoveryStage> {
        let mut stages = vec![RecoveryStage::JournalScan, RecoveryStage::MappingRebuild];
        if self.config.recovery_verify {
            stages.push(RecoveryStage::DirtyPageVerify);
            if self.config.ftl.retire_bad_blocks {
                stages.push(RecoveryStage::BadBlockRetirement);
            }
        }
        stages
    }

    /// Per-stage transient failure probability, derived from the
    /// whole-mount `mount_failure_rate` so that one full pipeline pass
    /// (no resume) fails with exactly the configured rate.
    fn stage_failure_odds(&self, stages: usize) -> f64 {
        let rate = self.config.mount_failure_rate;
        if rate <= 0.0 || rate >= 1.0 {
            return rate.clamp(0.0, 1.0);
        }
        1.0 - (1.0 - rate).powf(1.0 / stages as f64)
    }

    fn run_recovery(
        &mut self,
        now: SimTime,
        interrupt_at: Option<SimTime>,
    ) -> Result<RecoveryReport, DeviceError> {
        if self.state == PowerState::Bricked {
            return Err(DeviceError::Bricked {
                attempts: self.mount_attempts,
            });
        }
        assert_eq!(
            self.state,
            PowerState::Dead,
            "device must be dead to recover"
        );
        assert!(now >= self.now);
        self.now = now;
        let attempt = self.mount_attempts + 1;
        self.probes.emit_with(now, Layer::Recovery, || {
            (
                None,
                None,
                ProbeEvent::RecoveryStep {
                    step: RecoveryStepKind::MountAttempt,
                    value: u64::from(attempt),
                },
            )
        });
        let stages = self.enabled_stages();
        let p_stage = self.stage_failure_odds(stages.len());
        let mut session = self.recovery.take().unwrap_or_default();
        let skipped = stages.iter().filter(|&&s| session.completed(s)).count() as u32;
        let resumed = skipped > 0;
        if resumed {
            self.probes.emit_with(now, Layer::Recovery, || {
                (
                    None,
                    None,
                    ProbeEvent::RecoveryStep {
                        step: RecoveryStepKind::Resumed,
                        value: u64::from(skipped),
                    },
                )
            });
        }
        self.array.power_on();
        let mut rebuild_span: Option<u64> = None;
        for stage in stages {
            if session.completed(stage) {
                continue;
            }
            let idx = stage.index();
            let start = self.now;
            self.probes.emit_with(start, Layer::Recovery, || {
                (
                    None,
                    None,
                    ProbeEvent::RecoveryStep {
                        step: RecoveryStepKind::StageStarted,
                        value: u64::from(idx),
                    },
                )
            });
            // Transient firmware fault at the stage boundary: this mount
            // attempt dies; completed stages stay checkpointed. The draw
            // happens only with a nonzero rate, so failure-free configs
            // keep their RNG streams bit-identical.
            if p_stage > 0.0 && self.rng.chance(p_stage) {
                return self.fail_mount(stage, attempt, resumed, skipped, session);
            }
            match self.run_stage(stage, &mut session, interrupt_at) {
                StageRun::Completed { span } => {
                    if stage == RecoveryStage::MappingRebuild {
                        rebuild_span = span;
                        let ftl = session.ftl.as_ref().expect("rebuild just completed");
                        if ftl.available_blocks() == 0 {
                            // Deterministic: a rebuild that consumes every
                            // block is unusable, and power-cycling cannot
                            // fix it — the device bricks immediately.
                            self.state = PowerState::Bricked;
                            self.array.power_off();
                            return Err(DeviceError::RecoveryFailed {
                                error: pfault_ftl::FtlError::RecoveryExhausted {
                                    blocks: self.config.ftl.geometry.blocks(),
                                },
                            });
                        }
                    }
                }
                StageRun::Interrupted { at } => {
                    self.now = self.now.max(at);
                    let t = self.now;
                    self.probes.emit_with(t, Layer::Recovery, || {
                        (
                            None,
                            None,
                            ProbeEvent::RecoveryStep {
                                step: RecoveryStepKind::StageInterrupted,
                                value: u64::from(idx),
                            },
                        )
                    });
                    self.array.power_off();
                    self.recovery = Some(session);
                    return Err(DeviceError::RecoveryInterrupted {
                        stage: idx,
                        attempt,
                    });
                }
            }
        }
        self.install_mount(attempt, resumed, skipped, session, rebuild_span)
    }

    /// One mount attempt died on a transient firmware fault: account it,
    /// keep the session's checkpointed stages, and either report the
    /// failure, degrade to read-only (retries spent but the map already
    /// rebuilt), or brick (retries spent before a usable map existed).
    fn fail_mount(
        &mut self,
        stage: RecoveryStage,
        attempt: u32,
        resumed: bool,
        skipped: u32,
        mut session: RecoverySession,
    ) -> Result<RecoveryReport, DeviceError> {
        self.mount_attempts += 1;
        let now = self.now;
        let idx = stage.index();
        self.probes.emit_with(now, Layer::Recovery, || {
            (
                None,
                None,
                ProbeEvent::RecoveryStep {
                    step: RecoveryStepKind::StageFailed,
                    value: u64::from(idx),
                },
            )
        });
        self.probes.emit_with(now, Layer::Recovery, || {
            (
                None,
                None,
                ProbeEvent::RecoveryStep {
                    step: RecoveryStepKind::MountFailed,
                    value: u64::from(attempt),
                },
            )
        });
        if self.mount_attempts >= self.config.mount_retry_limit {
            if session.ftl.is_some() {
                // Graceful degradation instead of a brick: the mapping is
                // already rebuilt, only the later stages keep dying.
                // Mount read-only — the paper's drives that came back
                // partially rather than not at all.
                session.degrade_read_only = true;
                return self.install_mount(attempt, resumed, skipped, session, None);
            }
            self.state = PowerState::Bricked;
            self.array.power_off();
            return Err(DeviceError::Bricked {
                attempts: self.mount_attempts,
            });
        }
        self.array.power_off();
        self.recovery = Some(session);
        Err(DeviceError::MountFailed {
            attempt: self.mount_attempts,
        })
    }

    /// Installs the session's rebuilt FTL and mounts the device —
    /// operational, or read-only when the session demands degradation.
    fn install_mount(
        &mut self,
        attempt: u32,
        resumed: bool,
        skipped: u32,
        mut session: RecoverySession,
        span: Option<u64>,
    ) -> Result<RecoveryReport, DeviceError> {
        let ftl = session.ftl.take().expect("mapping rebuild completed");
        self.ftl = ftl;
        let now = self.now;
        let stats = session.stats;
        self.emit_recovery_steps(now, span, &stats);
        let read_only = session.degrade_read_only;
        if read_only {
            let retired = session.blocks_retired;
            self.probes.emit_with(now, Layer::Recovery, || {
                (
                    None,
                    None,
                    ProbeEvent::RecoveryStep {
                        step: RecoveryStepKind::ReadOnlyFallback,
                        value: retired,
                    },
                )
            });
            self.state = PowerState::ReadOnly;
        } else {
            self.state = PowerState::Operational;
        }
        self.mount_attempts = 0;
        self.next_commit_at = now + self.config.ftl.commit_interval;
        self.pending.clear();
        self.front = None;
        let mut report = RecoveryReport::from_stats(attempt, stats);
        report.resumed = resumed;
        report.stages_skipped = skipped;
        report.verified_pages = session.verified_pages;
        report.unreadable_pages = session.suspects.as_ref().map_or(0, |s| s.len() as u64);
        report.blocks_retired = session.blocks_retired;
        report.pages_relocated = session.pages_relocated;
        report.read_only = read_only;
        Ok(report)
    }

    /// Executes one pipeline stage on simulated time. A stage that
    /// completes records its fault-site span and checkpoints its output
    /// into the session; a stage cut mid-window discards its in-flight
    /// work (the session keeps only earlier boundaries), modelling
    /// volatile stage state dying with the rail.
    fn run_stage(
        &mut self,
        stage: RecoveryStage,
        session: &mut RecoverySession,
        interrupt_at: Option<SimTime>,
    ) -> StageRun {
        let start = self.now;
        let interrupted = |end: SimTime| interrupt_at.is_some_and(|cut| cut < end);
        match stage {
            RecoveryStage::JournalScan => {
                let reads_before = self.array.stats().reads;
                let scan = pfault_ftl::journal_scan(
                    &self.config.ftl,
                    &mut self.array,
                    &self.durable,
                    &self.checkpoints,
                    &mut self.rng,
                );
                // Checkpoint snapshots span several pages (their program
                // is modelled as 4 back-to-back page programs); their
                // read-back costs the same factor.
                let ckpt_reads =
                    scan.stats.checkpoints_unreadable + u64::from(scan.stats.checkpoint_restored);
                let reads = (self.array.stats().reads - reads_before) + 3 * ckpt_reads;
                let end = start + self.array.timing().read * reads.max(1);
                if interrupted(end) {
                    return StageRun::Interrupted {
                        at: interrupt_at.expect("checked"),
                    };
                }
                self.now = end;
                let span = self.site_log.record(stage.site(), start, end, None);
                session.scan = Some(scan);
                StageRun::Completed { span }
            }
            RecoveryStage::MappingRebuild => {
                let scan = session.scan.as_ref().expect("journal scan completed");
                let reads_before = self.array.stats().reads;
                let (ftl, stats) = pfault_ftl::mapping_rebuild(
                    self.config.ftl,
                    &mut self.array,
                    &self.durable,
                    &self.checkpoints,
                    scan,
                    &mut self.rng,
                );
                let scan_reads = self.array.stats().reads - reads_before;
                // CPU-bound batch application, plus the FullScan policy's
                // re-reads when configured.
                let cpu = SimDuration::from_micros(
                    stats.entries_replayed / 32 + stats.map_entries / 64 + 1,
                );
                let end = start + cpu + self.array.timing().read * scan_reads;
                if interrupted(end) {
                    return StageRun::Interrupted {
                        at: interrupt_at.expect("checked"),
                    };
                }
                self.now = end;
                let span = self.site_log.record(stage.site(), start, end, None);
                session.stats = stats;
                session.ftl = Some(ftl);
                StageRun::Completed { span }
            }
            RecoveryStage::DirtyPageVerify => {
                let mapped: Vec<(Lba, pfault_flash::Ppa)> = {
                    let ftl = session.ftl.as_ref().expect("mapping rebuild completed");
                    let mut v: Vec<_> = ftl.iter_mapped().collect();
                    v.sort_by_key(|(l, _)| *l);
                    v
                };
                let reads_before = self.array.stats().reads;
                let mut suspects = Vec::new();
                for &(lba, ppa) in &mapped {
                    match self.read_media(ppa) {
                        ReadOutcome::Ok { .. } => {}
                        _ => suspects.push((lba, ppa)),
                    }
                }
                // Retry-ladder rungs count as reads too, so the stage
                // naturally takes longer on marginal media.
                let reads = self.array.stats().reads - reads_before;
                let end = start + self.array.timing().read * reads.max(1);
                if interrupted(end) {
                    return StageRun::Interrupted {
                        at: interrupt_at.expect("checked"),
                    };
                }
                self.now = end;
                let span = self.site_log.record(stage.site(), start, end, None);
                session.verified_pages = mapped.len() as u64;
                let unreadable = suspects.len() as u64;
                if unreadable > 0 {
                    let t = self.now;
                    self.probes.emit_with(t, Layer::Recovery, || {
                        (
                            None,
                            span,
                            ProbeEvent::RecoveryStep {
                                step: RecoveryStepKind::VerifyUnreadable,
                                value: unreadable,
                            },
                        )
                    });
                }
                session.suspects = Some(suspects);
                StageRun::Completed { span }
            }
            RecoveryStage::BadBlockRetirement => {
                let suspects = session.suspects.clone().unwrap_or_default();
                if suspects.is_empty() {
                    // Nothing to retire: the stage is a boundary check.
                    let end = start + SimDuration::from_micros(1);
                    if interrupted(end) {
                        return StageRun::Interrupted {
                            at: interrupt_at.expect("checked"),
                        };
                    }
                    self.now = end;
                    let span = self.site_log.record(stage.site(), start, end, None);
                    return StageRun::Completed { span };
                }
                let bad_blocks: std::collections::BTreeSet<u64> =
                    suspects.iter().map(|&(_, ppa)| ppa.block).collect();
                let relocate: Vec<(Lba, pfault_flash::Ppa)> = {
                    let ftl = session.ftl.as_ref().expect("mapping rebuild completed");
                    let mut v: Vec<_> = ftl
                        .iter_mapped()
                        .filter(|(lba, ppa)| {
                            bad_blocks.contains(&ppa.block) && !suspects.contains(&(*lba, *ppa))
                        })
                        .collect();
                    v.sort_by_key(|(l, _)| *l);
                    v
                };
                // The stage's time budget is planned up front (read +
                // program per relocation, one closing journal commit): a
                // cut anywhere in the window loses the whole stage, since
                // relocations are volatile until their mapping batch
                // commits at the end.
                let timing = self.array.timing();
                let per_page = timing.read + timing.program_upper;
                let planned = per_page * relocate.len() as u64 + timing.program_upper;
                let end = start + planned;
                if interrupted(end) {
                    return StageRun::Interrupted {
                        at: interrupt_at.expect("checked"),
                    };
                }
                self.now = end;
                let span = self.site_log.record(stage.site(), start, end, None);
                // Retire first: the blocks never serve again even if
                // relocation stalls.
                for &block in &bad_blocks {
                    let ftl = session.ftl.as_mut().expect("rebuild completed");
                    if ftl.is_retired(block) {
                        continue;
                    }
                    ftl.retire_block(block);
                    session.blocks_retired += 1;
                    let t = self.now;
                    self.probes.emit_with(t, Layer::Recovery, || {
                        (
                            None,
                            span,
                            ProbeEvent::RecoveryStep {
                                step: RecoveryStepKind::BlockRetired,
                                value: block,
                            },
                        )
                    });
                }
                // Relocate what still reads back; sectors unreadable even
                // through the ladder keep their (marginal) mapping into
                // the retired block — the loss shows up at read time.
                for &(lba, old_ppa) in &relocate {
                    let data = match self.read_media(old_ppa) {
                        ReadOutcome::Ok { data, .. } => data,
                        _ => continue,
                    };
                    let slot = match session
                        .ftl
                        .as_mut()
                        .expect("rebuild completed")
                        .begin_user_write(lba)
                    {
                        Ok(slot) => slot,
                        Err(_) => {
                            // No block left to relocate into: stop and
                            // pin the device read-only.
                            session.degrade_read_only = true;
                            break;
                        }
                    };
                    let oob = Oob::user(lba, slot.seq);
                    if self.array.program(slot.ppa, data, oob).is_ok() {
                        session
                            .ftl
                            .as_mut()
                            .expect("rebuild completed")
                            .finish_user_write(&slot);
                        session.pages_relocated += 1;
                    }
                }
                // Commit the relocation mappings durably: without this,
                // the next cut would resurrect pointers into retired
                // blocks.
                let ftl = session.ftl.as_mut().expect("rebuild completed");
                ftl.close_open_extent();
                if let Ok(Some(op)) = ftl.begin_journal_commit() {
                    let data = PageData::from_tag(mix64(0x4A4E_4C00, op.batch.id));
                    if self
                        .array
                        .program(op.page, data, Oob::journal(op.batch.id, op.seq))
                        .is_ok()
                    {
                        session
                            .ftl
                            .as_mut()
                            .expect("rebuild completed")
                            .finish_journal_commit(op, &mut self.durable);
                        self.stats.commits += 1;
                    }
                }
                let retired_total = session
                    .ftl
                    .as_ref()
                    .expect("rebuild completed")
                    .retired_blocks();
                if retired_total > self.config.ftl.spare_blocks {
                    session.degrade_read_only = true;
                }
                StageRun::Completed { span }
            }
        }
    }

    /// Narrates a successful FTL rebuild onto the probe bus, one
    /// `RecoveryStep` per pipeline stage that actually did something.
    fn emit_recovery_steps(&mut self, now: SimTime, span: Option<u64>, stats: &RecoveryStats) {
        if !self.probes.is_enabled() {
            return;
        }
        let mut step = |kind: RecoveryStepKind, value: u64| {
            self.probes.emit_tagged(
                now,
                Layer::Recovery,
                None,
                span,
                ProbeEvent::RecoveryStep { step: kind, value },
            );
        };
        if stats.checkpoint_restored {
            step(
                RecoveryStepKind::CheckpointRestored,
                stats.checkpoint_entries,
            );
        }
        step(RecoveryStepKind::BatchReplayed, stats.batches_replayed);
        if stats.batches_discarded_torn > 0 {
            step(
                RecoveryStepKind::BatchDiscardedTorn,
                stats.batches_discarded_torn,
            );
        }
        if stats.batches_truncated > 0 {
            step(RecoveryStepKind::ReplayTruncated, stats.batches_truncated);
        }
        if stats.scan_adoptions > 0 {
            step(RecoveryStepKind::ScanAdopted, stats.scan_adoptions);
        }
        step(RecoveryStepKind::MapRebuilt, stats.map_entries);
    }

    /// Reads one physical page through the ECC read-retry ladder,
    /// emitting the flash-layer probes: `flash.read-retry` when rungs
    /// engaged, plus the usual ECC repair/failure events. With
    /// `read_retry_limit == 0` this is exactly a plain array read.
    fn read_media(&mut self, ppa: pfault_flash::Ppa) -> ReadOutcome {
        let retries_before = self.array.stats().read_retries;
        let recovered_before = self.array.stats().retry_recovered_reads;
        let outcome =
            self.array
                .read_with_retries(ppa, self.config.read_retry_limit, &mut self.rng);
        let rungs = self.array.stats().read_retries - retries_before;
        if rungs > 0 {
            let recovered = u64::from(self.array.stats().retry_recovered_reads > recovered_before);
            let now = self.now;
            self.probes.emit_with(now, Layer::Flash, || {
                (
                    None,
                    None,
                    ProbeEvent::ReadRetry {
                        block: ppa.block,
                        page: ppa.page,
                        rungs,
                        recovered,
                    },
                )
            });
        }
        self.emit_ecc_probe(ppa, &outcome);
        outcome
    }

    /// Discards a range of sectors (TRIM / DISCARD). Applied immediately
    /// at the current device time: cached copies vanish and the mapping
    /// removals are journaled (so, like writes, an uncommitted trim can
    /// be undone by a power fault — the "ghost data" case).
    ///
    /// # Panics
    ///
    /// Panics if the device is not operational.
    pub fn trim(&mut self, lba: Lba, sectors: SectorCount) {
        assert!(self.is_operational(), "trim needs a powered device");
        for i in 0..sectors.get() {
            let l = Lba::new(lba.index() + i);
            self.cache.invalidate(l);
            self.ftl.trim(l);
        }
        self.schedule_work();
    }

    /// Post-recovery verification read of one sector, bypassing the (now
    /// empty) cache. Works on read-only-degraded devices too.
    ///
    /// # Panics
    ///
    /// Panics if the device is not mounted.
    pub fn verify_read(&mut self, lba: Lba) -> VerifiedContent {
        assert!(self.is_mounted(), "verification needs a mounted device");
        match self.ftl.lookup(lba) {
            None => VerifiedContent::Unwritten,
            Some(ppa) => match self.read_media(ppa) {
                ReadOutcome::Ok { data, .. } => VerifiedContent::Written(data),
                ReadOutcome::Uncorrectable => VerifiedContent::Unreadable,
                ReadOutcome::Erased => VerifiedContent::Unwritten,
            },
        }
    }

    /// Emits the ECC outcome of a read the device just performed (repair
    /// and failure events only; clean reads stay silent).
    fn emit_ecc_probe(&mut self, ppa: pfault_flash::Ppa, outcome: &ReadOutcome) {
        let now = self.now;
        match *outcome {
            ReadOutcome::Ok { repaired, .. } if repaired > 0 => {
                self.probes.emit_with(now, Layer::Flash, || {
                    (
                        None,
                        None,
                        ProbeEvent::EccCorrected {
                            block: ppa.block,
                            page: ppa.page,
                            bits: u64::from(repaired),
                        },
                    )
                });
            }
            ReadOutcome::Uncorrectable => {
                self.probes.emit_with(now, Layer::Flash, || {
                    (
                        None,
                        None,
                        ProbeEvent::EccUncorrectable {
                            block: ppa.block,
                            page: ppa.page,
                        },
                    )
                });
            }
            _ => {}
        }
    }

    /// Scans every mapped sector and reports how many are unreadable — a
    /// SMART-style media self-test (the post-mortem a cautious operator
    /// runs after an outage). Reads go through the read-retry ladder, so
    /// a drive with retries configured scrubs cleaner than a bare read
    /// pass would suggest. Works on read-only-degraded devices.
    ///
    /// # Errors
    ///
    /// [`DeviceError::NotMounted`] when the device is dead, bricked, or
    /// browning out ([`DeviceError::Bricked`] for the bricked case) —
    /// instead of the panic this method used to raise.
    pub fn scrub(&mut self) -> Result<ScrubReport, DeviceError> {
        if self.state == PowerState::Bricked {
            return Err(DeviceError::Bricked {
                attempts: self.mount_attempts,
            });
        }
        if !self.is_mounted() {
            return Err(DeviceError::NotMounted);
        }
        let mapped: Vec<(Lba, pfault_flash::Ppa)> = {
            let mut v: Vec<_> = self.ftl.iter_mapped().collect();
            v.sort_by_key(|(l, _)| *l);
            v
        };
        let mut report = ScrubReport::default();
        for (_, ppa) in mapped {
            report.scanned += 1;
            match self.read_media(ppa) {
                ReadOutcome::Ok { data, .. } => {
                    if !data.is_intact() {
                        report.garbled += 1;
                    }
                }
                ReadOutcome::Uncorrectable => report.unreadable += 1,
                ReadOutcome::Erased => report.unreadable += 1,
            }
        }
        Ok(report)
    }

    /// Drains all dirty state to flash and commits the journal, taking
    /// simulated time (used to reach a clean baseline between campaign
    /// phases).
    pub fn quiesce(&mut self) {
        // Force flush eligibility by advancing until nothing dirty remains.
        let mut guard = 0;
        while self.cache.dirty_sectors() > 0
            || !self.pipeline.is_empty()
            || self.control.is_some()
            || !self.direct_queue.is_empty()
        {
            let step = self
                .next_event()
                .unwrap_or(self.now + self.config.cache.flush_delay);
            self.advance_to(step.max(self.now + SimDuration::from_micros(100)));
            guard += 1;
            assert!(guard < 1_000_000, "quiesce failed to converge");
        }
        self.ftl.close_open_extent();
        if let Ok(Some(op)) = self.ftl.begin_journal_commit() {
            let data = PageData::from_tag(mix64(0x4A4E_4C00, op.batch.id));
            self.array
                .program(op.page, data, Oob::journal(op.batch.id, op.seq))
                .expect("journal page reserved in order");
            self.ftl.finish_journal_commit(op, &mut self.durable);
            self.stats.commits += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CacheConfig;
    use crate::vendor::VendorPreset;
    use pfault_power::FaultInjector;

    fn small_ssd() -> Ssd {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        Ssd::new(config, DetRng::new(7))
    }

    fn drive_until_acked(ssd: &mut Ssd, deadline_ms: u64) -> Vec<Completion> {
        ssd.advance_to(SimTime::from_millis(deadline_ms));
        ssd.drain_completions()
    }

    #[test]
    fn write_is_acked_from_cache_quickly() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(8),
            0xAA,
        ));
        let comps = drive_until_acked(&mut ssd, 5);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].acked());
        // ACK is front-end latency, far faster than a NAND program chain.
        assert!(comps[0].time < SimTime::from_millis(1));
        assert_eq!(ssd.dirty_cache_sectors(), 8);
    }

    #[test]
    fn flush_eventually_drains_cache() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(4),
            0xBB,
        ));
        ssd.advance_to(SimTime::from_millis(2_000));
        assert_eq!(ssd.dirty_cache_sectors(), 0, "flusher should have drained");
        assert!(ssd.flash_stats().programs >= 4);
    }

    #[test]
    fn read_completes_and_counts_hits() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(5),
            SectorCount::new(2),
            0xCC,
        ));
        ssd.advance_to(SimTime::from_millis(1));
        ssd.drain_completions();
        ssd.submit(HostCommand::read(2, 0, Lba::new(5), SectorCount::new(2)));
        let comps = drive_until_acked(&mut ssd, 10);
        assert_eq!(comps.len(), 1);
        assert!(comps[0].acked());
        assert_eq!(ssd.stats().cache_hits, 2);
    }

    #[test]
    fn submit_to_dead_device_errors_immediately() {
        let mut ssd = small_ssd();
        let injector = FaultInjector::arduino_atx_loaded();
        let timeline = injector.timeline(SimTime::from_millis(1));
        ssd.power_fail(&timeline);
        ssd.submit(HostCommand::write(
            9,
            0,
            Lba::new(0),
            SectorCount::new(1),
            1,
        ));
        let comps = ssd.drain_completions();
        assert!(comps.iter().any(|c| c.request_id == 9 && !c.acked()));
    }

    #[test]
    fn power_fault_loses_acked_dirty_data() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(10),
            SectorCount::new(4),
            0xDD,
        ));
        ssd.advance_to(SimTime::from_millis(1));
        let comps = ssd.drain_completions();
        assert!(comps[0].acked(), "host holds an ACK");
        // Instant cut before the lazy flush window expires.
        let timeline = FaultInjector::transistor().timeline(SimTime::from_millis(2));
        ssd.power_fail(&timeline);
        assert!(ssd.stats().last_fault_dirty_lost > 0, "dirty data died");
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        // The ACKed data is gone: FWA from the Analyzer's point of view.
        assert_eq!(ssd.verify_read(Lba::new(10)), VerifiedContent::Unwritten);
    }

    #[test]
    fn quiesced_data_survives_power_fault() {
        let mut ssd = small_ssd();
        let cmd = HostCommand::write(1, 0, Lba::new(20), SectorCount::new(4), 0xEE);
        ssd.submit(cmd);
        ssd.advance_to(SimTime::from_millis(1));
        ssd.quiesce();
        let timeline = FaultInjector::arduino_atx_loaded().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        for i in 0..4 {
            let lba = Lba::new(20 + i);
            match ssd.verify_read(lba) {
                VerifiedContent::Written(data) => {
                    assert_eq!(data, cmd.sector_content(i), "content mismatch at {lba}");
                }
                other => panic!("sector {lba} should survive, got {other:?}"),
            }
        }
    }

    #[test]
    fn supercap_saves_dirty_data() {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.supercap = true;
        let mut ssd = Ssd::new(config, DetRng::new(7));
        let cmd = HostCommand::write(1, 0, Lba::new(30), SectorCount::new(4), 0xFF);
        ssd.submit(cmd);
        ssd.advance_to(SimTime::from_millis(1));
        assert!(ssd.dirty_cache_sectors() > 0);
        let timeline = FaultInjector::arduino_atx_loaded().timeline(SimTime::from_millis(2));
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        for i in 0..4 {
            match ssd.verify_read(Lba::new(30 + i)) {
                VerifiedContent::Written(data) => assert_eq!(data, cmd.sector_content(i)),
                other => panic!("supercap should save sector {i}, got {other:?}"),
            }
        }
    }

    #[test]
    fn disabled_cache_acks_only_after_program() {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.cache = CacheConfig::disabled();
        let mut ssd = Ssd::new(config, DetRng::new(7));
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(4),
            0x11,
        ));
        ssd.advance_to(SimTime::from_micros(250));
        assert!(
            ssd.drain_completions().is_empty(),
            "no early ACK without cache"
        );
        ssd.advance_to(SimTime::from_millis(50));
        let comps = ssd.drain_completions();
        assert_eq!(comps.len(), 1);
        assert!(comps[0].acked());
        assert_eq!(ssd.dirty_cache_sectors(), 0);
    }

    #[test]
    fn disabled_cache_still_vulnerable_via_volatile_map() {
        // §IV-A: failures persist with the internal cache disabled —
        // because the mapping journal is still volatile.
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.cache = CacheConfig::disabled();
        let mut ssd = Ssd::new(config, DetRng::new(7));
        let cmd = HostCommand::write(1, 0, Lba::new(40), SectorCount::new(4), 0x22);
        ssd.submit(cmd);
        ssd.advance_to(SimTime::from_millis(50));
        assert!(ssd.drain_completions()[0].acked());
        assert!(ssd.volatile_map_sectors() > 0, "mapping still volatile");
        let timeline = FaultInjector::arduino_atx_loaded().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        // Mapping was never committed: data lost despite the ACK.
        assert_eq!(ssd.verify_read(Lba::new(40)), VerifiedContent::Unwritten);
    }

    #[test]
    fn transistor_cut_interrupts_in_flight_program() {
        let mut ssd = small_ssd();
        // Saturate with writes so a program is in flight, then cut
        // instantly.
        for i in 0..64 {
            ssd.submit(HostCommand::write(
                i,
                0,
                Lba::new(i * 8),
                SectorCount::new(8),
                i,
            ));
        }
        // Cut while dirty data is still accumulating in the cache.
        ssd.advance_to(SimTime::from_millis(3));
        assert!(
            ssd.dirty_cache_sectors() > 0,
            "cache should hold dirty data"
        );
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        assert!(
            ssd.flash_stats().interrupted_programs + ssd.flash_stats().interrupted_erases >= 1
                || ssd.stats().last_fault_dirty_lost > 0,
            "an instant cut mid-workload must leave damage"
        );
    }

    #[test]
    fn iops_saturates_near_config_ceiling() {
        let mut ssd = small_ssd();
        // Submit far more 4 KiB writes than one second of front-end
        // capacity; count ACKs within the first simulated second.
        for i in 0..20_000u64 {
            ssd.submit(HostCommand::write(
                i,
                0,
                Lba::new(i % 500 * 8),
                SectorCount::new(1),
                i,
            ));
        }
        ssd.advance_to(SimTime::from_secs(1));
        let acked = ssd
            .drain_completions()
            .iter()
            .filter(|c| c.acked() && c.time <= SimTime::from_secs(1))
            .count() as f64;
        let ceiling = ssd.config().iops_ceiling();
        assert!(
            acked <= ceiling * 1.05,
            "acked {acked} must not exceed ceiling {ceiling}"
        );
        assert!(
            acked >= ceiling * 0.5,
            "acked {acked} unreasonably below ceiling {ceiling}"
        );
    }

    #[test]
    fn checkpoints_fire_and_recovery_uses_them() {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.ftl.checkpoint_every_batches = 4;
        let mut ssd = Ssd::new(config, DetRng::new(17));
        // Enough distinct writes for several commits and checkpoints.
        let mut cmds = Vec::new();
        for i in 0..40u64 {
            let cmd = HostCommand::write(i, 0, Lba::new(i * 16), SectorCount::new(2), i + 1);
            cmds.push(cmd);
            ssd.submit(cmd);
            ssd.advance_to(ssd.now() + SimDuration::from_millis(5));
        }
        ssd.quiesce();
        assert!(ssd.stats().checkpoints > 0, "checkpoints must have fired");
        let timeline = FaultInjector::arduino_atx_loaded().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        for cmd in &cmds {
            for i in 0..2 {
                match ssd.verify_read(Lba::new(cmd.lba.index() + i)) {
                    VerifiedContent::Written(d) => assert_eq!(d, cmd.sector_content(i)),
                    other => panic!("request {} sector {i} lost: {other:?}", cmd.request_id),
                }
            }
        }
    }

    #[test]
    fn trim_discards_data_durably_after_commit() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(60),
            SectorCount::new(4),
            0x77,
        ));
        ssd.advance_to(SimTime::from_millis(1));
        ssd.drain_completions();
        ssd.quiesce();
        ssd.trim(Lba::new(60), SectorCount::new(4));
        ssd.quiesce(); // commits the trim entries
        let timeline = FaultInjector::arduino_atx_loaded().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        for i in 0..4 {
            assert_eq!(
                ssd.verify_read(Lba::new(60 + i)),
                VerifiedContent::Unwritten,
                "trimmed sector {i} must stay gone"
            );
        }
    }

    #[test]
    fn uncommitted_trim_can_resurrect_ghost_data() {
        let mut ssd = small_ssd();
        let cmd = HostCommand::write(1, 0, Lba::new(70), SectorCount::new(2), 0x88);
        ssd.submit(cmd);
        ssd.advance_to(SimTime::from_millis(1));
        ssd.quiesce(); // data durable
        ssd.trim(Lba::new(70), SectorCount::new(2));
        // Instant cut before the trim journal entry commits.
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        // The trim was volatile: the old data reappears.
        for i in 0..2 {
            match ssd.verify_read(Lba::new(70 + i)) {
                VerifiedContent::Written(d) => assert_eq!(d, cmd.sector_content(i)),
                other => panic!("ghost data should be back, got {other:?}"),
            }
        }
    }

    #[test]
    fn flush_barrier_makes_acked_data_survive_instant_cut() {
        let mut ssd = small_ssd();
        let cmd = HostCommand::write(1, 0, Lba::new(10), SectorCount::new(8), 0xF1);
        ssd.submit(cmd);
        ssd.advance_to(SimTime::from_millis(1));
        assert!(ssd.drain_completions()[0].acked());
        ssd.submit_flush(2, 0);
        // Drive until the flush completes.
        let mut guard = 0;
        loop {
            let comps = ssd.drain_completions();
            if comps.iter().any(|c| c.request_id == 2 && c.acked()) {
                break;
            }
            let next = ssd
                .next_event()
                .unwrap_or(ssd.now() + SimDuration::from_millis(1));
            ssd.advance_to(next.max(ssd.now() + SimDuration::from_micros(1)));
            guard += 1;
            assert!(guard < 100_000, "flush failed to complete");
        }
        assert!(ssd.stats().flushes_acked > 0);
        // Instant cut right after the flush ACK: everything must survive.
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        for i in 0..8 {
            match ssd.verify_read(Lba::new(10 + i)) {
                VerifiedContent::Written(d) => assert_eq!(d, cmd.sector_content(i)),
                other => panic!("flushed sector {i} lost: {other:?}"),
            }
        }
    }

    #[test]
    fn flush_waits_for_durability() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(64),
            0xF2,
        ));
        ssd.advance_to(SimTime::from_millis(1));
        ssd.drain_completions();
        let before = ssd.now();
        ssd.submit_flush(2, 0);
        // The flush cannot complete instantly: 64 sectors still owe
        // programs plus a journal commit.
        let comps = ssd.drain_completions();
        assert!(!comps.iter().any(|c| c.request_id == 2));
        ssd.advance_to(before + SimDuration::from_millis(100));
        let comps = ssd.drain_completions();
        let flush = comps
            .iter()
            .find(|c| c.request_id == 2)
            .expect("flush done");
        assert!(flush.acked());
        assert!(flush.time > before);
    }

    #[test]
    fn flush_on_dead_device_errors() {
        let mut ssd = small_ssd();
        let timeline = FaultInjector::transistor().timeline(SimTime::from_millis(1));
        ssd.power_fail(&timeline);
        ssd.submit_flush(9, 0);
        assert!(ssd
            .drain_completions()
            .iter()
            .any(|c| c.request_id == 9 && !c.acked()));
    }

    #[test]
    fn shallow_brownout_is_invisible() {
        let mut ssd = small_ssd();
        let cmd = HostCommand::write(1, 0, Lba::new(80), SectorCount::new(4), 0x99);
        ssd.submit(cmd);
        ssd.advance_to(SimTime::from_millis(1));
        assert!(ssd.drain_completions()[0].acked());
        let event = pfault_power::BrownoutEvent::shallow(ssd.now());
        let severity = ssd.apply_brownout(&event);
        assert_eq!(severity, pfault_power::BrownoutSeverity::Harmless);
        assert!(ssd.is_operational());
        ssd.quiesce();
        for i in 0..4 {
            assert!(matches!(
                ssd.verify_read(Lba::new(80 + i)),
                VerifiedContent::Written(_)
            ));
        }
    }

    #[test]
    fn link_drop_brownout_errors_in_flight_but_keeps_state() {
        let mut ssd = small_ssd();
        // An ACKed write sits dirty in the cache…
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(90),
            SectorCount::new(4),
            0xA1,
        ));
        ssd.advance_to(SimTime::from_millis(1));
        assert!(ssd.drain_completions()[0].acked());
        // …and a large command is still in the front end when the link
        // drops (a steep sag reaches 4.5 V before its ~1.2 ms service).
        ssd.submit(HostCommand::write(
            2,
            0,
            Lba::new(94),
            SectorCount::new(128),
            0xA2,
        ));
        let mut event = pfault_power::BrownoutEvent::shallow(ssd.now());
        event.floor = pfault_power::Millivolts::new(4495); // link-drop depth
        event.sag = SimDuration::from_micros(500);
        event.recovery = SimDuration::from_micros(500);
        let severity = ssd.apply_brownout(&event);
        assert_eq!(severity, pfault_power::BrownoutSeverity::LinkDrop);
        let comps = ssd.drain_completions();
        assert!(comps.iter().any(|c| c.request_id == 2 && !c.acked()));
        assert!(ssd.is_operational(), "controller rode the sag out");
        // The earlier write survives (no volatile state was lost).
        ssd.quiesce();
        assert!(matches!(
            ssd.verify_read(Lba::new(90)),
            VerifiedContent::Written(_)
        ));
    }

    #[test]
    fn deep_brownout_resets_controller_and_loses_volatile_state() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(95),
            SectorCount::new(4),
            0xB1,
        ));
        ssd.advance_to(SimTime::from_micros(300));
        assert!(ssd.drain_completions()[0].acked());
        let event = pfault_power::BrownoutEvent::deep(ssd.now());
        let severity = ssd.apply_brownout(&event);
        assert_eq!(severity, pfault_power::BrownoutSeverity::ControllerReset);
        assert!(ssd.is_operational(), "power came back by itself");
        // The freshly-ACKed write was still cached: gone.
        assert_eq!(ssd.verify_read(Lba::new(95)), VerifiedContent::Unwritten);
    }

    #[test]
    fn scrub_is_clean_on_a_healthy_device_and_dirty_after_eol_fault() {
        let mut ssd = small_ssd();
        for i in 0..8u64 {
            ssd.submit(HostCommand::write(
                i,
                0,
                Lba::new(i * 8),
                SectorCount::new(4),
                i + 1,
            ));
        }
        ssd.advance_to(SimTime::from_millis(5));
        ssd.drain_completions();
        ssd.quiesce();
        let report = ssd.scrub().expect("healthy device scrubs");
        assert_eq!(report.scanned, 32);
        assert!(report.is_clean(), "{report:?}");

        // Now an end-of-life device: faults leave unreadable pages behind.
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.baseline_wear = 2_900;
        let mut old = Ssd::new(config, DetRng::new(9));
        for i in 0..8u64 {
            old.submit(HostCommand::write(
                i,
                0,
                Lba::new(i * 8),
                SectorCount::new(4),
                i + 1,
            ));
        }
        old.advance_to(SimTime::from_millis(5));
        old.drain_completions();
        old.quiesce();
        let timeline = FaultInjector::transistor().timeline(old.now());
        old.power_fail(&timeline);
        old.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        let report = old.scrub().expect("recovered device scrubs");
        assert!(
            report.unreadable > 0,
            "worn media after a fault must show unreadable sectors: {report:?}"
        );
    }

    #[test]
    fn gc_reclaims_space_under_churn() {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(12, 16);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.ftl.gc_low_water_blocks = 4;
        config.cache.flush_delay = SimDuration::ZERO;
        let mut ssd = Ssd::new(config, DetRng::new(9));
        // Overwrite a small working set repeatedly: forces GC.
        for round in 0..40u64 {
            for lba in 0..8u64 {
                ssd.submit(HostCommand::write(
                    round * 8 + lba,
                    0,
                    Lba::new(lba),
                    SectorCount::new(1),
                    round * 100 + lba,
                ));
            }
            ssd.advance_to(ssd.now() + SimDuration::from_millis(50));
        }
        ssd.advance_to(ssd.now() + SimDuration::from_secs(2));
        assert!(ssd.stats().gc_collections > 0, "GC must have run");
        // Device still works after GC.
        ssd.submit(HostCommand::write(
            9_999,
            0,
            Lba::new(3),
            SectorCount::new(1),
            1,
        ));
        ssd.advance_to(ssd.now() + SimDuration::from_millis(100));
        assert!(ssd.drain_completions().iter().any(|c| c.acked()));
    }

    #[test]
    fn site_census_is_deterministic_across_same_seed_runs() {
        let census = |_: u32| {
            let mut ssd = small_ssd();
            ssd.enable_site_recording();
            for i in 0..4u64 {
                ssd.submit(HostCommand::write(
                    i,
                    0,
                    Lba::new(i * 16),
                    SectorCount::new(4),
                    i + 1,
                ));
            }
            ssd.advance_to(SimTime::from_secs(2));
            ssd.site_spans().to_vec()
        };
        let a = census(0);
        let b = census(1);
        assert!(!a.is_empty(), "census must observe program sites");
        assert_eq!(a, b, "same seed must reproduce the same occurrence stream");
        assert!(a
            .iter()
            .any(|s| s.site == crate::sites::FaultSite::CacheFlushProgram));
        assert!(a
            .iter()
            .any(|s| s.site == crate::sites::FaultSite::JournalCommitProgram));
    }

    #[test]
    fn recording_disabled_by_default_costs_nothing() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(4),
            1,
        ));
        ssd.advance_to(SimTime::from_secs(1));
        assert!(ssd.site_spans().is_empty());
    }

    #[test]
    fn op_ending_exactly_at_threshold_completes() {
        // Satellite: half-open boundary windows. Census the single cache
        // flush program of a one-sector write, then replay with the cut
        // placed exactly at the span's end (op completes — left-closed
        // window) and strictly inside it (op is interrupted).
        let run = |cut: Option<SimTime>| {
            let mut ssd = small_ssd();
            ssd.enable_site_recording();
            ssd.submit(HostCommand::write(
                1,
                0,
                Lba::new(5),
                SectorCount::new(1),
                0x5A,
            ));
            match cut {
                None => {
                    ssd.advance_to(SimTime::from_secs(1));
                }
                Some(t) => {
                    ssd.power_fail(&FaultTimeline::at_instant(t));
                }
            }
            ssd
        };
        let census = run(None);
        let span = census
            .site_spans()
            .iter()
            .find(|s| s.site == crate::sites::FaultSite::CacheFlushProgram)
            .copied()
            .expect("one flush program must occur");
        assert!(span.end > span.start);

        // Cut exactly at the completion instant: the program finishes.
        let at_end = run(Some(span.end));
        assert_eq!(
            at_end.flash_stats().interrupted_programs,
            0,
            "an op ending exactly at the threshold must complete"
        );
        // Cut strictly inside the span: the program is torn.
        let mid = span.start + SimDuration::from_micros((span.end - span.start).as_micros() / 2);
        let torn = run(Some(mid));
        assert_eq!(
            torn.flash_stats().interrupted_programs,
            1,
            "a cut strictly inside the span must interrupt the program"
        );
    }

    #[test]
    fn cut_during_recovery_resumes_from_stage_boundary() {
        // Tentpole acceptance: a cut inside the mapping-rebuild stage
        // leaves a resumable session; the next mount skips the already
        // completed journal scan and rebuilds the same mapping the
        // uninterrupted twin gets.
        let prepare = |_: u32| {
            let mut ssd = small_ssd();
            ssd.enable_site_recording();
            for i in 0..6u64 {
                ssd.submit(HostCommand::write(
                    i,
                    0,
                    Lba::new(i * 8),
                    SectorCount::new(4),
                    i + 1,
                ));
            }
            ssd.advance_to(SimTime::from_millis(400));
            let timeline = FaultInjector::transistor().timeline(ssd.now());
            ssd.power_fail(&timeline);
            (ssd, timeline)
        };
        // Census twin: learn where the rebuild stage sits in time.
        let (mut census, tl) = prepare(0);
        let at = tl.discharged + SimDuration::from_secs(1);
        census.power_on_recover(at).expect("mount succeeds");
        let rebuild = *census
            .site_spans()
            .iter()
            .find(|s| s.site == crate::sites::FaultSite::MappingReplay)
            .expect("rebuild span recorded");
        assert!(rebuild.end > rebuild.start, "rebuild takes simulated time");
        let mid =
            rebuild.start + SimDuration::from_micros((rebuild.end - rebuild.start).as_micros() / 2);

        let (mut ssd, _) = prepare(1);
        let err = ssd
            .power_on_recover_interruptible(at, &pfault_power::FaultTimeline::at_instant(mid))
            .expect_err("cut lands inside the rebuild stage");
        assert_eq!(
            err,
            DeviceError::RecoveryInterrupted {
                stage: 2,
                attempt: 1
            }
        );
        assert!(ssd.has_pending_recovery());
        assert!(!ssd.is_mounted());

        // The second mount resumes after the completed journal scan —
        // it does not silently restart the pipeline.
        let report = ssd
            .power_on_recover(ssd.now() + SimDuration::from_secs(1))
            .expect("resumed mount succeeds");
        assert!(report.resumed, "second mount must resume the session");
        assert_eq!(report.stages_skipped, 1, "journal scan was checkpointed");
        assert!(!ssd.has_pending_recovery());
        assert!(ssd.is_operational());
        let scans = ssd
            .site_spans()
            .iter()
            .filter(|s| s.site == crate::sites::FaultSite::RecoveryJournalScan)
            .count();
        assert_eq!(scans, 1, "the resumed mount must not re-run stage 1");
        assert_eq!(
            ssd.mapped(),
            census.mapped(),
            "resumed recovery must rebuild the same mapping as the twin"
        );
    }

    #[test]
    fn retirement_exhaustion_degrades_to_read_only() {
        // End-of-life media plus a fault leaves unreadable pages; with
        // verify + retirement on and no spare blocks, recovery retires
        // past the spare pool and mounts the device read-only.
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(512, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        config.baseline_wear = 2_900;
        config.recovery_verify = true;
        config.ftl.retire_bad_blocks = true;
        config.ftl.spare_blocks = 0;
        let mut ssd = Ssd::new(config, DetRng::new(9));
        for i in 0..8u64 {
            ssd.submit(HostCommand::write(
                i,
                0,
                Lba::new(i * 8),
                SectorCount::new(4),
                i + 1,
            ));
        }
        ssd.advance_to(SimTime::from_millis(5));
        ssd.drain_completions();
        ssd.quiesce();
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        let report = ssd
            .power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("mount succeeds in degraded mode");
        assert!(
            report.unreadable_pages > 0,
            "worn media after a fault must fail verification: {report:?}"
        );
        assert!(report.blocks_retired > 0, "{report:?}");
        assert!(report.read_only, "{report:?}");
        assert!(ssd.is_read_only());
        assert!(!ssd.is_operational());

        // Writes are refused with a distinct completion and tallied.
        ssd.submit(HostCommand::write(
            100,
            0,
            Lba::new(0),
            SectorCount::new(1),
            42,
        ));
        let rejected = ssd.drain_completions();
        assert!(
            rejected
                .iter()
                .any(|c| c.kind == CompletionKind::ReadOnlyRejected),
            "{rejected:?}"
        );
        assert!(ssd.stats().read_only_rejections > 0);

        // Reads still serve: the device is degraded, not dead.
        ssd.submit(HostCommand::read(101, 0, Lba::new(0), SectorCount::new(1)));
        ssd.advance_to(ssd.now() + SimDuration::from_millis(5));
        let reads = ssd.drain_completions();
        assert!(
            reads.iter().any(Completion::acked),
            "reads must still be served read-only: {reads:?}"
        );
        assert!(ssd.scrub().is_ok(), "scrub works on a read-only device");
    }

    #[test]
    fn mapping_replay_site_recorded_on_recovery() {
        let mut ssd = small_ssd();
        ssd.enable_site_recording();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(4),
            1,
        ));
        ssd.advance_to(SimTime::from_millis(10));
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        let replay: Vec<_> = ssd
            .site_spans()
            .iter()
            .filter(|s| s.site == crate::sites::FaultSite::MappingReplay)
            .collect();
        assert_eq!(replay.len(), 1);
        assert!(
            replay[0].end > replay[0].start,
            "the rebuild stage occupies a real window on simulated time"
        );
    }

    #[test]
    fn probes_narrate_fault_and_recovery() {
        let run = || {
            let mut ssd = small_ssd();
            ssd.enable_probes();
            for i in 0..4u64 {
                ssd.submit(HostCommand::write(
                    i,
                    0,
                    Lba::new(i * 8),
                    SectorCount::new(4),
                    i + 1,
                ));
            }
            ssd.advance_to(SimTime::from_millis(200));
            let timeline = FaultInjector::transistor().timeline(ssd.now());
            ssd.power_fail(&timeline);
            let report = ssd
                .power_on_recover(timeline.discharged + SimDuration::from_secs(1))
                .expect("recovers");
            (ssd, report)
        };
        let (ssd, report) = run();
        let records = ssd.probe_records();
        assert!(!records.is_empty(), "probes must capture the trial");
        let count = |kind: &str| records.iter().filter(|r| r.event.kind() == kind).count();
        assert!(count("cache.insert") >= 4, "one insert per host write");
        assert_eq!(count("power.cut"), 1);
        assert_eq!(count("power.volatile-lost"), 1);
        assert!(
            count("recovery.step") >= 3,
            "mount attempt + replay + map rebuild at minimum"
        );
        assert_eq!(report.mount_attempt, 1);
        assert!(report.map_rebuild_entries > 0, "replay rebuilt the map");
        // Sequence numbers are dense and ordered — the JSONL contract.
        for (i, r) in records.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
        }
        // Determinism: a second identical run produces the same stream.
        let (ssd2, _) = run();
        assert_eq!(records, ssd2.probe_records());
    }

    #[test]
    fn disabled_probes_record_nothing() {
        let mut ssd = small_ssd();
        ssd.submit(HostCommand::write(
            1,
            0,
            Lba::new(0),
            SectorCount::new(4),
            1,
        ));
        ssd.advance_to(SimTime::from_millis(10));
        let timeline = FaultInjector::transistor().timeline(ssd.now());
        ssd.power_fail(&timeline);
        ssd.power_on_recover(timeline.discharged + SimDuration::from_secs(1))
            .expect("recovers");
        assert!(ssd.probe_records().is_empty());
    }
}
