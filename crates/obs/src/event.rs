//! Typed probe events and the layers that emit them.
//!
//! Events carry only integers (addresses, sector counts, microsecond
//! durations) so that every serialisation is exact and deterministic.
//! Fractions are expressed in permille (`progress_permille`), never as
//! floats.

use serde::{Deserialize, Serialize};

/// Which layer of the stack emitted a probe record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Layer {
    /// Host interface: request queue, ACK boundary.
    Host,
    /// DRAM write-back cache.
    Cache,
    /// NAND array operations (programs, erases, ECC).
    Flash,
    /// FTL bookkeeping: journal, checkpoints, GC.
    Ftl,
    /// Power subsystem: rail thresholds, volatile-state loss.
    Power,
    /// Power-on recovery path.
    Recovery,
    /// Fleet layer: erasure-coded stripes across many devices.
    Fleet,
    /// Application layer: the WAL'd KV store running above the device.
    App,
}

impl Layer {
    /// Stable lowercase name used in JSONL output and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Host => "host",
            Layer::Cache => "cache",
            Layer::Flash => "flash",
            Layer::Ftl => "ftl",
            Layer::Power => "power",
            Layer::Recovery => "recovery",
            Layer::Fleet => "fleet",
            Layer::App => "app",
        }
    }
}

/// What kind of NAND program a `Program*` event describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum ProgramKind {
    /// Dirty sector flushed from the write cache.
    CacheFlush,
    /// Direct (cache-off) user write.
    Direct,
    /// GC relocation of a live sector.
    GcReloc,
    /// Journal-batch control program.
    Journal,
    /// Mapping-checkpoint control program.
    Checkpoint,
}

impl ProgramKind {
    /// Stable name used in JSONL output.
    pub fn name(self) -> &'static str {
        match self {
            ProgramKind::CacheFlush => "cache-flush",
            ProgramKind::Direct => "direct",
            ProgramKind::GcReloc => "gc-reloc",
            ProgramKind::Journal => "journal",
            ProgramKind::Checkpoint => "checkpoint",
        }
    }
}

/// One step of the power-on recovery pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum RecoveryStepKind {
    /// A mount attempt started (`value` = attempt number, 1-based).
    MountAttempt,
    /// A mount attempt failed (`value` = attempt number, 1-based).
    MountFailed,
    /// A mapping checkpoint was restored (`value` = entries restored).
    CheckpointRestored,
    /// Journal batches replayed cleanly (`value` = batch count).
    BatchReplayed,
    /// Torn batches that failed their CRC and were discarded whole
    /// (`value` = batch count).
    BatchDiscardedTorn,
    /// Replay stopped early at an unreadable journal page
    /// (`value` = batches never reached).
    ReplayTruncated,
    /// The logical-to-physical map finished rebuilding
    /// (`value` = mapped entries).
    MapRebuilt,
    /// Full-scan reconciliation adopted an OOB-tagged page
    /// (`value` = pages adopted so far).
    ScanAdopted,
    /// A recovery pipeline stage began executing
    /// (`value` = stage index, 1-based: 1 journal scan, 2 mapping
    /// rebuild, 3 dirty-page verify, 4 bad-block retirement).
    StageStarted,
    /// A power cut landed inside a recovery stage; its in-flight work is
    /// lost (`value` = stage index, 1-based).
    StageInterrupted,
    /// A recovery stage failed stochastically and the mount aborted
    /// (`value` = stage index, 1-based).
    StageFailed,
    /// A mount resumed a previous interrupted recovery from its last
    /// completed stage boundary (`value` = stages skipped).
    Resumed,
    /// Dirty-page verify found a mapped page unreadable even through the
    /// read-retry ladder (`value` = unreadable pages so far).
    VerifyUnreadable,
    /// Bad-block retirement took a block out of service
    /// (`value` = physical block id).
    BlockRetired,
    /// The device degraded to read-only instead of bricking
    /// (`value` = blocks retired at that point).
    ReadOnlyFallback,
}

impl RecoveryStepKind {
    /// Number of recovery steps: the length of [`RecoveryStepKind::ALL`].
    pub const COUNT: usize = 15;

    /// Every step, in declaration order, so `ALL[step as usize] == step`.
    pub const ALL: [RecoveryStepKind; RecoveryStepKind::COUNT] = [
        RecoveryStepKind::MountAttempt,
        RecoveryStepKind::MountFailed,
        RecoveryStepKind::CheckpointRestored,
        RecoveryStepKind::BatchReplayed,
        RecoveryStepKind::BatchDiscardedTorn,
        RecoveryStepKind::ReplayTruncated,
        RecoveryStepKind::MapRebuilt,
        RecoveryStepKind::ScanAdopted,
        RecoveryStepKind::StageStarted,
        RecoveryStepKind::StageInterrupted,
        RecoveryStepKind::StageFailed,
        RecoveryStepKind::Resumed,
        RecoveryStepKind::VerifyUnreadable,
        RecoveryStepKind::BlockRetired,
        RecoveryStepKind::ReadOnlyFallback,
    ];

    /// Stable name used in JSONL output and metric keys.
    pub fn name(self) -> &'static str {
        match self {
            RecoveryStepKind::MountAttempt => "mount-attempt",
            RecoveryStepKind::MountFailed => "mount-failed",
            RecoveryStepKind::CheckpointRestored => "checkpoint-restored",
            RecoveryStepKind::BatchReplayed => "batch-replayed",
            RecoveryStepKind::BatchDiscardedTorn => "batch-discarded-torn",
            RecoveryStepKind::ReplayTruncated => "replay-truncated",
            RecoveryStepKind::MapRebuilt => "map-rebuilt",
            RecoveryStepKind::ScanAdopted => "scan-adopted",
            RecoveryStepKind::StageStarted => "stage-started",
            RecoveryStepKind::StageInterrupted => "stage-interrupted",
            RecoveryStepKind::StageFailed => "stage-failed",
            RecoveryStepKind::Resumed => "resumed",
            RecoveryStepKind::VerifyUnreadable => "verify-unreadable",
            RecoveryStepKind::BlockRetired => "block-retired",
            RecoveryStepKind::ReadOnlyFallback => "read-only-fallback",
        }
    }
}

/// A typed probe event. All payload fields are integers so renderings
/// are exact; durations are simulated microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ProbeEvent {
    /// Sector entered the write cache.
    CacheInsert {
        /// Logical block address.
        lba: u64,
        /// Dirty sectors resident after the insert.
        dirty: u64,
    },
    /// Sector left the cache to make room (flush-on-pressure).
    CacheEvict {
        /// Logical block address.
        lba: u64,
        /// Dirty sectors resident after the eviction started.
        dirty: u64,
    },
    /// A NAND program started.
    ProgramStart {
        /// What the program is writing.
        kind: ProgramKind,
        /// Physical block.
        block: u64,
        /// Page within the block.
        page: u64,
    },
    /// A NAND program completed on the array.
    ProgramEnd {
        /// What the program was writing.
        kind: ProgramKind,
        /// Physical block.
        block: u64,
        /// Page within the block.
        page: u64,
        /// Program latency in simulated microseconds.
        us: u64,
    },
    /// A NAND program was cut mid-flight by the rail collapse.
    ProgramInterrupted {
        /// What the program was writing.
        kind: ProgramKind,
        /// Physical block.
        block: u64,
        /// Page within the block.
        page: u64,
        /// How far the ISPP sequence had got, in permille.
        progress_permille: u64,
    },
    /// A block erase started (GC victim).
    EraseStart {
        /// Physical block being erased.
        block: u64,
    },
    /// A block erase completed.
    EraseEnd {
        /// Physical block erased.
        block: u64,
        /// Erase latency in simulated microseconds.
        us: u64,
    },
    /// A block erase was cut mid-flight.
    EraseInterrupted {
        /// Physical block whose erase was interrupted.
        block: u64,
    },
    /// A journal batch committed durably.
    JournalCommit {
        /// Mapping entries in the batch.
        entries: u64,
        /// Sectors of user data the batch covers.
        coverage: u64,
        /// Commit (program) latency in simulated microseconds.
        us: u64,
    },
    /// A journal batch tore: only a prefix reached the array.
    JournalTorn {
        /// Sectors of the batch that survived.
        kept: u64,
        /// Sectors the full batch would have occupied.
        full: u64,
    },
    /// A mapping checkpoint write started.
    CheckpointBegin {
        /// Monotonic checkpoint id.
        id: u64,
        /// Mapping entries captured.
        entries: u64,
    },
    /// A mapping checkpoint write completed.
    CheckpointEnd {
        /// Monotonic checkpoint id.
        id: u64,
        /// Checkpoint (program) latency in simulated microseconds.
        us: u64,
    },
    /// A mapping checkpoint write was cut mid-flight.
    CheckpointInterrupted {
        /// Monotonic checkpoint id.
        id: u64,
    },
    /// GC relocated one live sector.
    GcMove {
        /// Logical block address moved.
        lba: u64,
        /// Victim block.
        from_block: u64,
        /// Destination block.
        to_block: u64,
    },
    /// The power rail was cut; thresholds are absolute simulated µs.
    PowerCut {
        /// When the Off command was issued.
        commanded_us: u64,
        /// When the host link dropped (4.5 V).
        host_lost_us: u64,
        /// When NAND operations stopped being reliable (4.0 V).
        flash_unreliable_us: u64,
        /// When the controller core died (2.5 V).
        core_dead_us: u64,
    },
    /// Volatile state lost at core death.
    VolatileLost {
        /// Dirty cache sectors that never reached the array.
        dirty: u64,
        /// Volatile mapping entries that never reached the journal.
        map: u64,
    },
    /// One step of power-on recovery.
    RecoveryStep {
        /// Which step.
        step: RecoveryStepKind,
        /// Step-specific magnitude (see [`RecoveryStepKind`] docs).
        value: u64,
    },
    /// ECC corrected a read.
    EccCorrected {
        /// Physical block read.
        block: u64,
        /// Page within the block.
        page: u64,
        /// Bits repaired.
        bits: u64,
    },
    /// ECC could not correct a read.
    EccUncorrectable {
        /// Physical block read.
        block: u64,
        /// Page within the block.
        page: u64,
    },
    /// The read-retry ladder re-read a page at shifted thresholds after
    /// an uncorrectable nominal read.
    ReadRetry {
        /// Physical block read.
        block: u64,
        /// Page within the block.
        page: u64,
        /// Ladder rungs walked for this read.
        rungs: u64,
        /// 1 when a rung decoded the page, 0 when the ladder ran dry.
        recovered: u64,
    },
    /// The host link dropped with requests still in flight.
    HostLinkLost {
        /// Requests in flight when the link died.
        inflight: u64,
    },
    /// A fleet-level outage event cut one or more devices.
    FleetOutage {
        /// Devices cut by this event.
        devices: u64,
        /// 1 when the cut was a correlated PSU-group (rack) event,
        /// 0 when it was an independent single-device cut.
        correlated: u64,
    },
    /// A stripe read was served degraded: reconstruction from parity
    /// stood in for chunks that were unavailable or stale.
    FleetDegradedRead {
        /// Stripe identifier.
        stripe: u64,
        /// Chunks that had to be reconstructed.
        missing: u64,
    },
    /// A stripe lost more chunks than parity can cover, *after*
    /// per-device mechanistic recovery ran: a data-loss event.
    FleetStripeLost {
        /// Stripe identifier.
        stripe: u64,
        /// Unrecoverable chunks (strictly more than the parity count).
        unrecoverable: u64,
    },
    /// A rebuild pass was interrupted by a further outage before the
    /// queue drained; remaining stripes stay degraded.
    FleetRebuildInterrupted {
        /// Stripes still waiting for rebuild when the outage landed.
        pending_stripes: u64,
    },
    /// The KV store appended one CRC-framed record to its WAL.
    AppWalAppend {
        /// WAL slot (physical ring position) the record landed in.
        slot: u64,
        /// Monotonic record sequence number.
        seq: u64,
    },
    /// A group commit completed: the FLUSH barrier returned and the
    /// batched operations were acknowledged to the application.
    AppCommit {
        /// Operations acknowledged by this commit.
        ops: u64,
        /// Commit latency (append of first record to FLUSH ACK) in
        /// simulated microseconds.
        us: u64,
    },
    /// A checkpoint compaction sealed: the memtable was rewritten into
    /// the checkpoint region and the WAL logically truncated.
    AppCheckpoint {
        /// Monotonic checkpoint generation.
        generation: u64,
        /// Live entries captured by the checkpoint.
        entries: u64,
    },
    /// Crash recovery finished replaying the WAL.
    AppWalReplay {
        /// Records replayed cleanly (CRC and sequence both good).
        replayed: u64,
        /// Records discarded because their frame failed the CRC check
        /// (torn, garbled, or unreadable).
        discarded: u64,
        /// Records rejected as stale (an earlier ring generation read
        /// back where a newer record was expected).
        stale: u64,
    },
    /// The KV store degraded to read-only because the device did.
    AppReadOnly {
        /// Mount attempts spent before the device settled read-only.
        retries: u64,
    },
    /// Post-outage oracle verdict for one trial: how the device fault
    /// surfaced at the application boundary.
    AppOutcome {
        /// Acknowledged keys whose damage was visible to the app
        /// (error or detected corruption).
        surfaced: u64,
        /// 1 when device-level damage occurred but every acknowledged
        /// key verified correct (the WAL absorbed the fault).
        masked: u64,
        /// Acknowledged keys wrong or missing with no error raised —
        /// the application-level false write acknowledgment.
        silent_poison: u64,
    },
}

impl ProbeEvent {
    /// Number of event kinds: the length of [`ProbeEvent::KINDS`].
    pub const KIND_COUNT: usize = 31;

    /// Every [`ProbeEvent::kind`] name, in [`ProbeEvent::index`] order.
    pub const KINDS: [&'static str; ProbeEvent::KIND_COUNT] = [
        "cache.insert",
        "cache.evict",
        "program.start",
        "program.end",
        "program.interrupted",
        "erase.start",
        "erase.end",
        "erase.interrupted",
        "journal.commit",
        "journal.torn",
        "checkpoint.begin",
        "checkpoint.end",
        "checkpoint.interrupted",
        "gc.move",
        "power.cut",
        "power.volatile-lost",
        "recovery.step",
        "ecc.corrected",
        "ecc.uncorrectable",
        "flash.read-retry",
        "host.link-lost",
        "fleet.outage",
        "fleet.degraded-read",
        "fleet.stripe-lost",
        "fleet.rebuild-interrupted",
        "app.wal-append",
        "app.commit",
        "app.checkpoint",
        "app.wal-replay",
        "app.read-only",
        "app.outcome",
    ];

    /// Dense kind index in `0..KIND_COUNT`: the slot this event's kind
    /// occupies in per-kind tables such as the metrics fold, so counting
    /// an event never touches its name.
    pub fn index(&self) -> usize {
        match self {
            ProbeEvent::CacheInsert { .. } => 0,
            ProbeEvent::CacheEvict { .. } => 1,
            ProbeEvent::ProgramStart { .. } => 2,
            ProbeEvent::ProgramEnd { .. } => 3,
            ProbeEvent::ProgramInterrupted { .. } => 4,
            ProbeEvent::EraseStart { .. } => 5,
            ProbeEvent::EraseEnd { .. } => 6,
            ProbeEvent::EraseInterrupted { .. } => 7,
            ProbeEvent::JournalCommit { .. } => 8,
            ProbeEvent::JournalTorn { .. } => 9,
            ProbeEvent::CheckpointBegin { .. } => 10,
            ProbeEvent::CheckpointEnd { .. } => 11,
            ProbeEvent::CheckpointInterrupted { .. } => 12,
            ProbeEvent::GcMove { .. } => 13,
            ProbeEvent::PowerCut { .. } => 14,
            ProbeEvent::VolatileLost { .. } => 15,
            ProbeEvent::RecoveryStep { .. } => 16,
            ProbeEvent::EccCorrected { .. } => 17,
            ProbeEvent::EccUncorrectable { .. } => 18,
            ProbeEvent::ReadRetry { .. } => 19,
            ProbeEvent::HostLinkLost { .. } => 20,
            ProbeEvent::FleetOutage { .. } => 21,
            ProbeEvent::FleetDegradedRead { .. } => 22,
            ProbeEvent::FleetStripeLost { .. } => 23,
            ProbeEvent::FleetRebuildInterrupted { .. } => 24,
            ProbeEvent::AppWalAppend { .. } => 25,
            ProbeEvent::AppCommit { .. } => 26,
            ProbeEvent::AppCheckpoint { .. } => 27,
            ProbeEvent::AppWalReplay { .. } => 28,
            ProbeEvent::AppReadOnly { .. } => 29,
            ProbeEvent::AppOutcome { .. } => 30,
        }
    }

    /// Stable dotted event name: used as the JSONL `event` field and as
    /// the per-event counter key in [`crate::Metrics`].
    pub fn kind(&self) -> &'static str {
        match self {
            ProbeEvent::CacheInsert { .. } => "cache.insert",
            ProbeEvent::CacheEvict { .. } => "cache.evict",
            ProbeEvent::ProgramStart { .. } => "program.start",
            ProbeEvent::ProgramEnd { .. } => "program.end",
            ProbeEvent::ProgramInterrupted { .. } => "program.interrupted",
            ProbeEvent::EraseStart { .. } => "erase.start",
            ProbeEvent::EraseEnd { .. } => "erase.end",
            ProbeEvent::EraseInterrupted { .. } => "erase.interrupted",
            ProbeEvent::JournalCommit { .. } => "journal.commit",
            ProbeEvent::JournalTorn { .. } => "journal.torn",
            ProbeEvent::CheckpointBegin { .. } => "checkpoint.begin",
            ProbeEvent::CheckpointEnd { .. } => "checkpoint.end",
            ProbeEvent::CheckpointInterrupted { .. } => "checkpoint.interrupted",
            ProbeEvent::GcMove { .. } => "gc.move",
            ProbeEvent::PowerCut { .. } => "power.cut",
            ProbeEvent::VolatileLost { .. } => "power.volatile-lost",
            ProbeEvent::RecoveryStep { .. } => "recovery.step",
            ProbeEvent::EccCorrected { .. } => "ecc.corrected",
            ProbeEvent::EccUncorrectable { .. } => "ecc.uncorrectable",
            ProbeEvent::ReadRetry { .. } => "flash.read-retry",
            ProbeEvent::HostLinkLost { .. } => "host.link-lost",
            ProbeEvent::FleetOutage { .. } => "fleet.outage",
            ProbeEvent::FleetDegradedRead { .. } => "fleet.degraded-read",
            ProbeEvent::FleetStripeLost { .. } => "fleet.stripe-lost",
            ProbeEvent::FleetRebuildInterrupted { .. } => "fleet.rebuild-interrupted",
            ProbeEvent::AppWalAppend { .. } => "app.wal-append",
            ProbeEvent::AppCommit { .. } => "app.commit",
            ProbeEvent::AppCheckpoint { .. } => "app.checkpoint",
            ProbeEvent::AppWalReplay { .. } => "app.wal-replay",
            ProbeEvent::AppReadOnly { .. } => "app.read-only",
            ProbeEvent::AppOutcome { .. } => "app.outcome",
        }
    }
}

/// One event of every [`ProbeEvent`] variant, in [`ProbeEvent::index`]
/// order, with every integer field set to `v` (recovery steps as
/// [`RecoveryStepKind::MountAttempt`]).
#[cfg(test)]
pub(crate) fn one_of_each(v: u64) -> Vec<ProbeEvent> {
    vec![
        ProbeEvent::CacheInsert { lba: v, dirty: v },
        ProbeEvent::CacheEvict { lba: v, dirty: v },
        ProbeEvent::ProgramStart {
            kind: ProgramKind::Direct,
            block: v,
            page: v,
        },
        ProbeEvent::ProgramEnd {
            kind: ProgramKind::Direct,
            block: v,
            page: v,
            us: v,
        },
        ProbeEvent::ProgramInterrupted {
            kind: ProgramKind::Direct,
            block: v,
            page: v,
            progress_permille: v,
        },
        ProbeEvent::EraseStart { block: v },
        ProbeEvent::EraseEnd { block: v, us: v },
        ProbeEvent::EraseInterrupted { block: v },
        ProbeEvent::JournalCommit {
            entries: v,
            coverage: v,
            us: v,
        },
        ProbeEvent::JournalTorn { kept: v, full: v },
        ProbeEvent::CheckpointBegin { id: v, entries: v },
        ProbeEvent::CheckpointEnd { id: v, us: v },
        ProbeEvent::CheckpointInterrupted { id: v },
        ProbeEvent::GcMove {
            lba: v,
            from_block: v,
            to_block: v,
        },
        ProbeEvent::PowerCut {
            commanded_us: v,
            host_lost_us: v,
            flash_unreliable_us: v,
            core_dead_us: v,
        },
        ProbeEvent::VolatileLost { dirty: v, map: v },
        ProbeEvent::RecoveryStep {
            step: RecoveryStepKind::MountAttempt,
            value: v,
        },
        ProbeEvent::EccCorrected {
            block: v,
            page: v,
            bits: v,
        },
        ProbeEvent::EccUncorrectable { block: v, page: v },
        ProbeEvent::ReadRetry {
            block: v,
            page: v,
            rungs: v,
            recovered: v,
        },
        ProbeEvent::HostLinkLost { inflight: v },
        ProbeEvent::FleetOutage {
            devices: v,
            correlated: v,
        },
        ProbeEvent::FleetDegradedRead {
            stripe: v,
            missing: v,
        },
        ProbeEvent::FleetStripeLost {
            stripe: v,
            unrecoverable: v,
        },
        ProbeEvent::FleetRebuildInterrupted { pending_stripes: v },
        ProbeEvent::AppWalAppend { slot: v, seq: v },
        ProbeEvent::AppCommit { ops: v, us: v },
        ProbeEvent::AppCheckpoint {
            generation: v,
            entries: v,
        },
        ProbeEvent::AppWalReplay {
            replayed: v,
            discarded: v,
            stale: v,
        },
        ProbeEvent::AppReadOnly { retries: v },
        ProbeEvent::AppOutcome {
            surfaced: v,
            masked: v,
            silent_poison: v,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_are_unique() {
        let events = one_of_each(0);
        assert_eq!(events.len(), ProbeEvent::KIND_COUNT);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.index(), i, "{} is out of index order", e.kind());
            assert_eq!(ProbeEvent::KINDS[e.index()], e.kind());
        }
        let mut kinds: Vec<&str> = events.iter().map(|e| e.kind()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), events.len());
    }

    #[test]
    fn recovery_steps_are_listed_in_declaration_order() {
        for (i, step) in RecoveryStepKind::ALL.iter().enumerate() {
            assert_eq!(*step as usize, i, "{} is out of order", step.name());
        }
    }

    #[test]
    fn layer_names_are_unique() {
        let layers = [
            Layer::Host,
            Layer::Cache,
            Layer::Flash,
            Layer::Ftl,
            Layer::Power,
            Layer::Recovery,
            Layer::Fleet,
            Layer::App,
        ];
        let mut names: Vec<&str> = layers.iter().map(|l| l.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), layers.len());
    }
}
