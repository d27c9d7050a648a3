//! The WAL'd KV store proper.
//!
//! Write path: every `put`/`delete` appends one CRC-framed record to the
//! circular WAL (device-ACK fast — possibly only into the drive's
//! volatile cache), and the operation is acknowledged to the caller only
//! when a **group commit** issues a FLUSH barrier and the device reports
//! it durable. Periodically the store compacts into one of two
//! alternating checkpoint regions: all key sectors, then a seal sector,
//! then a *single* FLUSH for the whole region — the classic
//! single-barrier checkpoint pattern, which leaves a window where the
//! seal's mapping update and the value updates it seals ride the same
//! potentially-torn FTL journal batch.
//!
//! Crash path: [`KvStore::recover`] power-cycles the device with bounded
//! exponential backoff against transient [`DeviceError`]s, then rebuilds
//! state by choosing the newest readable seal, loading that region's
//! value sectors, and replaying the WAL tail. Replay is resumable and
//! idempotent ([`KvStore::reload`] re-runs it from scratch). If device
//! recovery degrades to read-only, the store follows suit: reads keep
//! working, writes return [`KvError::ReadOnly`].

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use serde::{Deserialize, Serialize};

use pfault_obs::{Layer, Metrics, ProbeEvent, ProbeLog, ProbeRecord};
use pfault_power::FaultTimeline;
use pfault_sim::{Lba, SectorCount, SimTime};
use pfault_ssd::{CompletionKind, DeviceError, HostCommand, RecoveryReport, Ssd, VerifiedContent};

use crate::config::KvConfig;
use crate::frame::{Frame, FrameCodec, KvOp};

/// Bound on event-pump iterations per host command; tripping it means
/// the device model stopped making progress, which is a simulator bug
/// worth a loud panic rather than a silent hang.
const PUMP_GUARD: u32 = 5_000_000;

/// Application-visible store errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvError {
    /// A power fault tore the operation down mid-flight; the store needs
    /// [`KvStore::recover`].
    Crashed,
    /// The device degraded to read-only; mutations are refused but reads
    /// still work.
    ReadOnly,
    /// The device is unrecoverable (bricked, recovery failed, or the
    /// host exhausted its mount retries).
    Failed,
    /// The store detected it lost this key (unreadable or torn
    /// checkpoint sector with no WAL record to repair it) — a *surfaced*
    /// loss, reported honestly instead of returning stale data.
    Corrupt {
        /// The lost key.
        key: u64,
    },
    /// The key is outside the configured key space.
    KeyOutOfRange {
        /// The offending key.
        key: u64,
    },
    /// [`KvStore::recover`] was called but the store has not crashed.
    NotCrashed,
}

impl std::fmt::Display for KvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            KvError::Crashed => write!(f, "store crashed; recovery required"),
            KvError::ReadOnly => write!(f, "store is read-only"),
            KvError::Failed => write!(f, "store device is unrecoverable"),
            KvError::Corrupt { key } => write!(f, "key {key} lost to corruption"),
            KvError::KeyOutOfRange { key } => write!(f, "key {key} outside key space"),
            KvError::NotCrashed => write!(f, "recover called on a store that has not crashed"),
        }
    }
}

impl std::error::Error for KvError {}

/// Store lifecycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvHealth {
    /// Serving reads and writes.
    Active,
    /// Power fault took the device down; [`KvStore::recover`] required.
    Crashed,
    /// Device recovery degraded to read-only; serving reads only.
    ReadOnly,
    /// Unrecoverable.
    Failed,
}

/// Cumulative store counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvStats {
    /// WAL records appended (device-ACKed).
    pub wal_appends: u64,
    /// Group commits completed (FLUSH barriers ACKed).
    pub commits: u64,
    /// Operations acknowledged durable to the application.
    pub committed_ops: u64,
    /// Checkpoint compactions sealed.
    pub checkpoints: u64,
    /// Host-side power-cycle retries spent against transient mount
    /// errors.
    pub mount_retries: u64,
}

/// What WAL replay found while rebuilding state from the device.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvReplayStats {
    /// Consecutive intact records applied.
    pub replayed: u64,
    /// Records rejected by CRC/frame checks (torn or foreign content).
    pub discarded: u64,
    /// Stale records from a previous ring lap (detected via embedded
    /// sequence numbers and not applied).
    pub stale: u64,
    /// Keys left marked corrupt after replay (checkpoint sectors lost
    /// and no WAL record repaired them).
    pub corrupt_keys: u64,
    /// Checkpoint generation the rebuild anchored on (0 = none found).
    pub generation: u64,
}

/// The application-level view of one recovery.
#[derive(Debug, Clone)]
pub struct KvRecoveryReport {
    /// The device's own recovery report from the successful mount.
    pub device: RecoveryReport,
    /// Host-side power-cycle retries before the mount succeeded.
    pub retries: u32,
    /// WAL replay outcome.
    pub replay: KvReplayStats,
    /// Whether the store (following the device) is now read-only.
    pub read_only: bool,
}

/// Outcome of pumping one host command to completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum IoStatus {
    Acked,
    Crashed,
    ReadOnly,
    Dead,
}

/// What one sector read parsed into.
enum ReadFrame {
    Ok(Frame),
    Unwritten,
    Damaged,
}

/// A crash-consistent WAL'd key-value store running on a simulated SSD.
pub struct KvStore {
    ssd: Ssd,
    cfg: KvConfig,
    codec: FrameCodec,
    probes: ProbeLog,
    health: KvHealth,
    /// Authoritative in-memory state of *acknowledged* operations.
    memtable: BTreeMap<u64, u64>,
    /// Keys whose durable state was detectably lost; reads surface
    /// [`KvError::Corrupt`] until a later write repairs them.
    corrupt: BTreeSet<u64>,
    /// Appended but not yet group-committed operations, in seq order.
    pending: VecDeque<(u64, KvOp)>,
    next_seq: u64,
    acked_seq: u64,
    sealed_upto: u64,
    generation: u64,
    committed_since_ckpt: u64,
    next_request: u64,
    armed: Option<FaultTimeline>,
    stats: KvStats,
}

impl KvStore {
    /// Wraps a freshly formatted device.
    pub fn new(ssd: Ssd, cfg: KvConfig) -> Self {
        cfg.validate();
        let mut probes = ProbeLog::new();
        probes.enable();
        KvStore {
            ssd,
            cfg,
            codec: FrameCodec::new(),
            probes,
            health: KvHealth::Active,
            memtable: BTreeMap::new(),
            corrupt: BTreeSet::new(),
            pending: VecDeque::new(),
            next_seq: 1,
            acked_seq: 0,
            sealed_upto: 0,
            generation: 0,
            committed_since_ckpt: 0,
            next_request: 1,
            armed: None,
            stats: KvStats::default(),
        }
    }

    /// Current simulated time at the device.
    pub fn now(&self) -> SimTime {
        self.ssd.now()
    }

    /// Lifecycle state.
    pub fn health(&self) -> KvHealth {
        self.health
    }

    /// Whether a power fault has taken the store down (recovery needed).
    pub fn crashed(&self) -> bool {
        matches!(self.health, KvHealth::Crashed)
    }

    /// Cumulative counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Checkpoint generation currently anchored.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Keys currently marked as detectably lost.
    pub fn corrupt_keys(&self) -> u64 {
        self.corrupt.len() as u64
    }

    /// Snapshot of the acknowledged in-memory state (for tests and the
    /// idempotence oracle).
    pub fn memtable(&self) -> &BTreeMap<u64, u64> {
        &self.memtable
    }

    /// The device under the store (read access for experiments that
    /// cross-check device-layer probes and stats against the oracle).
    pub fn device(&self) -> &Ssd {
        &self.ssd
    }

    /// Mutable device access (e.g. to enable device-layer probes before
    /// driving a trial).
    pub fn device_mut(&mut self) -> &mut Ssd {
        &mut self.ssd
    }

    /// Drains the store's application-layer probe records.
    pub fn take_probe_records(&mut self) -> Vec<ProbeRecord> {
        self.probes.take_records()
    }

    /// The metrics folded from the store's application-layer probe
    /// events as they fired.
    pub fn probe_metrics(&self) -> Metrics {
        self.probes.metrics()
    }

    /// Emits the trial's final oracle verdict as an `app.outcome` probe.
    pub fn probe_outcome(&mut self, surfaced: u64, masked: u64, silent_poison: u64) {
        let now = self.ssd.now();
        self.probes.emit(
            now,
            Layer::App,
            ProbeEvent::AppOutcome {
                surfaced,
                masked,
                silent_poison,
            },
        );
    }

    /// Arms a power-fault timeline: the store's event pump fires
    /// [`Ssd::power_fail`] the moment simulated time would cross
    /// `timeline.commanded`, so cuts land *inside* commit and checkpoint
    /// flush windows rather than between operations.
    pub fn arm_cut(&mut self, timeline: FaultTimeline) {
        self.armed = Some(timeline);
    }

    // ------------------------------------------------------------------
    // Event pump
    // ------------------------------------------------------------------

    fn cut_due(&self, next: Option<SimTime>) -> bool {
        match (&self.armed, next) {
            (Some(tl), Some(t)) => t >= tl.commanded,
            (Some(_), None) => true,
            (None, _) => false,
        }
    }

    fn fire_cut(&mut self) {
        if let Some(tl) = self.armed.take() {
            self.ssd.power_fail(&tl);
            self.health = KvHealth::Crashed;
        }
    }

    /// Runs the device until `request_id` completes (or the world ends).
    fn pump_for(&mut self, request_id: u64) -> IoStatus {
        for _ in 0..PUMP_GUARD {
            for c in self.ssd.drain_completions() {
                if c.request_id == request_id {
                    return match c.kind {
                        CompletionKind::Acked => IoStatus::Acked,
                        CompletionKind::ReadOnlyRejected => IoStatus::ReadOnly,
                        CompletionKind::DeviceError => {
                            if self.crashed() {
                                IoStatus::Crashed
                            } else {
                                IoStatus::Dead
                            }
                        }
                    };
                }
            }
            let next = self.ssd.next_event();
            if self.cut_due(next) {
                self.fire_cut();
                continue;
            }
            match next {
                Some(t) => self.ssd.advance_to(t),
                // No event will ever complete this command.
                None => return IoStatus::Dead,
            }
        }
        panic!("device event pump stopped making progress for request {request_id}");
    }

    /// Advances idle time (between operations), honouring an armed cut.
    /// Instants at or before the device's current time are a no-op (the
    /// workload's arrival pacing can lag behind IO-consumed time).
    pub fn advance_to(&mut self, t: SimTime) {
        if matches!(self.health, KvHealth::Crashed | KvHealth::Failed) {
            return;
        }
        if t <= self.ssd.now() {
            return;
        }
        if let Some(tl) = self.armed {
            if tl.commanded <= t {
                // Let the device work right up to the cut, then pull the
                // plug.
                while let Some(e) = self.ssd.next_event() {
                    if e >= tl.commanded {
                        break;
                    }
                    self.ssd.advance_to(e);
                }
                self.fire_cut();
                let _ = self.ssd.drain_completions();
                return;
            }
        }
        self.ssd.advance_to(t);
        let _ = self.ssd.drain_completions();
    }

    // ------------------------------------------------------------------
    // Device IO helpers
    // ------------------------------------------------------------------

    fn write_frame(&mut self, lba: Lba, frame: Frame) -> IoStatus {
        let tag = self.codec.encode(frame);
        let id = self.next_request;
        self.next_request += 1;
        self.ssd
            .submit(HostCommand::write(id, 0, lba, SectorCount::ONE, tag));
        self.pump_for(id)
    }

    fn flush(&mut self) -> IoStatus {
        let id = self.next_request;
        self.next_request += 1;
        self.ssd.submit_flush(id, 0);
        self.pump_for(id)
    }

    fn fail_from(&mut self, status: IoStatus) -> KvError {
        match status {
            IoStatus::Crashed => KvError::Crashed,
            IoStatus::ReadOnly => {
                self.health = KvHealth::ReadOnly;
                KvError::ReadOnly
            }
            IoStatus::Dead => {
                self.health = KvHealth::Failed;
                KvError::Failed
            }
            IoStatus::Acked => unreachable!("acked IO is not a failure"),
        }
    }

    fn require_active(&self) -> Result<(), KvError> {
        match self.health {
            KvHealth::Active => Ok(()),
            KvHealth::Crashed => Err(KvError::Crashed),
            KvHealth::ReadOnly => Err(KvError::ReadOnly),
            KvHealth::Failed => Err(KvError::Failed),
        }
    }

    fn apply(memtable: &mut BTreeMap<u64, u64>, corrupt: &mut BTreeSet<u64>, op: KvOp) {
        match op {
            KvOp::Put { key, value } => {
                memtable.insert(key, value);
            }
            KvOp::Delete { key } => {
                memtable.remove(&key);
            }
        }
        // A fresh write repairs a detectably-lost key.
        corrupt.remove(&op.key());
    }

    // ------------------------------------------------------------------
    // Write path
    // ------------------------------------------------------------------

    /// Inserts or overwrites a key. Returns the number of operations
    /// acknowledged durable by any group commit this call triggered
    /// (including earlier pending ones); `0` means the op is appended
    /// but not yet acknowledged.
    pub fn put(&mut self, key: u64, value: u64) -> Result<u64, KvError> {
        self.append(KvOp::Put { key, value })
    }

    /// Removes a key. Acknowledgement semantics as [`KvStore::put`].
    pub fn delete(&mut self, key: u64) -> Result<u64, KvError> {
        self.append(KvOp::Delete { key })
    }

    /// Applies one [`KvOp`] (dispatch helper for trial drivers).
    pub fn apply_op(&mut self, op: KvOp) -> Result<u64, KvError> {
        self.append(op)
    }

    fn append(&mut self, op: KvOp) -> Result<u64, KvError> {
        self.require_active()?;
        let key = op.key();
        if key >= self.cfg.key_space {
            return Err(KvError::KeyOutOfRange { key });
        }
        let mut acked = self.reserve_wal_slot()?;
        let seq = self.next_seq;
        match self.write_frame(self.cfg.wal_lba(seq), Frame::Record { seq, op }) {
            IoStatus::Acked => {
                self.next_seq += 1;
                self.pending.push_back((seq, op));
                self.stats.wal_appends += 1;
                let now = self.ssd.now();
                self.probes.emit(
                    now,
                    Layer::App,
                    ProbeEvent::AppWalAppend {
                        slot: seq % self.cfg.wal_slots,
                        seq,
                    },
                );
                if self.pending.len() as u64 >= self.cfg.group_commit_ops {
                    acked += self.commit()?;
                }
                Ok(acked)
            }
            other => Err(self.fail_from(other)),
        }
    }

    /// Makes room in the WAL ring, force-committing and compacting if
    /// the next append would overwrite a record no checkpoint covers.
    fn reserve_wal_slot(&mut self) -> Result<u64, KvError> {
        let live = self.next_seq - 1 - self.sealed_upto;
        if live + 1 > self.cfg.wal_slots {
            let acked = self.commit_inner()?;
            self.checkpoint()?;
            return Ok(acked);
        }
        Ok(0)
    }

    /// Group commit: FLUSH barrier, then acknowledge every pending
    /// operation. Runs a checkpoint compaction when the cadence is due.
    /// Returns the number of operations acknowledged.
    pub fn commit(&mut self) -> Result<u64, KvError> {
        self.require_active()?;
        let acked = self.commit_inner()?;
        if self.committed_since_ckpt >= self.cfg.checkpoint_every_ops {
            self.checkpoint()?;
        }
        Ok(acked)
    }

    fn commit_inner(&mut self) -> Result<u64, KvError> {
        if self.pending.is_empty() {
            return Ok(0);
        }
        let started = self.ssd.now();
        match self.flush() {
            IoStatus::Acked => {
                let n = self.pending.len() as u64;
                while let Some((seq, op)) = self.pending.pop_front() {
                    Self::apply(&mut self.memtable, &mut self.corrupt, op);
                    self.acked_seq = seq;
                }
                self.committed_since_ckpt += n;
                self.stats.commits += 1;
                self.stats.committed_ops += n;
                let now = self.ssd.now();
                let us = now.saturating_since(started).as_micros();
                self.probes
                    .emit(now, Layer::App, ProbeEvent::AppCommit { ops: n, us });
                Ok(n)
            }
            other => Err(self.fail_from(other)),
        }
    }

    /// Compacts acknowledged state into the next checkpoint region with
    /// the *eager-seal, single-barrier* pattern: the seal sector at the
    /// region header is rewritten first, then every key's sector (value
    /// or tombstone) in ascending order, then one FLUSH for the lot. The
    /// store trusts the barrier to make the region atomic — on the
    /// device, seal + values ride a single FTL journal extent, and a
    /// torn journal program persists a *prefix* of it: the seal and the
    /// first values, without the tail they claim to seal. Firmware that
    /// verifies batch CRCs discards the tear whole (the previous
    /// generation's seal wins and WAL replay repairs everything);
    /// firmware that half-applies anchors recovery on the new seal over
    /// stale value sectors — which carry no generation and decode
    /// cleanly. That is the silent-poison vector.
    fn checkpoint(&mut self) -> Result<(), KvError> {
        debug_assert!(
            self.pending.is_empty(),
            "checkpoint must follow a completed commit"
        );
        let generation = self.generation + 1;
        let region = self.cfg.region_of(generation);
        let entries = self.memtable.len() as u64;
        let status = self.write_frame(
            self.cfg.seal_lba(region),
            Frame::CkptSeal {
                generation,
                upto_seq: self.acked_seq,
                entries,
            },
        );
        if status != IoStatus::Acked {
            return Err(self.fail_from(status));
        }
        for key in 0..self.cfg.key_space {
            let value = self.memtable.get(&key).copied();
            let status = self.write_frame(
                self.cfg.value_lba(region, key),
                Frame::CkptValue { key, value },
            );
            if status != IoStatus::Acked {
                return Err(self.fail_from(status));
            }
        }
        match self.flush() {
            IoStatus::Acked => {
                self.generation = generation;
                self.sealed_upto = self.acked_seq;
                self.committed_since_ckpt = 0;
                self.stats.checkpoints += 1;
                let now = self.ssd.now();
                self.probes.emit(
                    now,
                    Layer::App,
                    ProbeEvent::AppCheckpoint {
                        generation,
                        entries,
                    },
                );
                Ok(())
            }
            other => Err(self.fail_from(other)),
        }
    }

    /// Commits any pending operations and quiesces the device (clean
    /// shutdown). Returns the operations acknowledged by the final
    /// commit.
    pub fn shutdown(&mut self) -> Result<u64, KvError> {
        let acked = self.commit()?;
        self.ssd.quiesce();
        let _ = self.ssd.drain_completions();
        Ok(acked)
    }

    // ------------------------------------------------------------------
    // Read path
    // ------------------------------------------------------------------

    /// Looks up a key. `Ok(None)` means absent; [`KvError::Corrupt`]
    /// means the store knows it lost this key.
    pub fn get(&self, key: u64) -> Result<Option<u64>, KvError> {
        if key >= self.cfg.key_space {
            return Err(KvError::KeyOutOfRange { key });
        }
        match self.health {
            KvHealth::Crashed => Err(KvError::Crashed),
            KvHealth::Failed => Err(KvError::Failed),
            KvHealth::Active | KvHealth::ReadOnly => {
                if self.corrupt.contains(&key) {
                    return Err(KvError::Corrupt { key });
                }
                Ok(self.memtable.get(&key).copied())
            }
        }
    }

    /// Returns all present `(key, value)` pairs in `[lo, hi]`,
    /// skipping keys marked corrupt (reads of those surface errors via
    /// [`KvStore::get`]).
    pub fn scan(&self, lo: u64, hi: u64) -> Result<Vec<(u64, u64)>, KvError> {
        match self.health {
            KvHealth::Crashed => Err(KvError::Crashed),
            KvHealth::Failed => Err(KvError::Failed),
            KvHealth::Active | KvHealth::ReadOnly => Ok(self
                .memtable
                .range(lo..=hi)
                .filter(|(k, _)| !self.corrupt.contains(k))
                .map(|(&k, &v)| (k, v))
                .collect()),
        }
    }

    // ------------------------------------------------------------------
    // Recovery
    // ------------------------------------------------------------------

    fn read_frame(&mut self, lba: Lba) -> ReadFrame {
        match self.ssd.verify_read(lba) {
            VerifiedContent::Unwritten => ReadFrame::Unwritten,
            VerifiedContent::Unreadable => ReadFrame::Damaged,
            VerifiedContent::Written(data) => {
                if !data.is_intact() {
                    // Per-record CRC catches torn/garbled content.
                    return ReadFrame::Damaged;
                }
                match self.codec.decode(data.tag) {
                    Some(frame) => ReadFrame::Ok(frame),
                    None => ReadFrame::Damaged,
                }
            }
        }
    }

    /// Rebuilds in-memory state from the device: newest readable seal,
    /// that region's value sectors, then WAL tail replay. Pure function
    /// of durable device state — running it twice yields the same state.
    fn rebuild(&mut self) -> KvReplayStats {
        self.memtable.clear();
        self.corrupt.clear();
        self.pending.clear();

        let mut best: Option<(u64, u64)> = None;
        for region in 0..2u64 {
            if let ReadFrame::Ok(Frame::CkptSeal {
                generation,
                upto_seq,
                ..
            }) = self.read_frame(self.cfg.seal_lba(region))
            {
                // A seal must sit in the region its generation writes;
                // anything else is cross-wired damage, ignored here.
                let in_place = self.cfg.region_of(generation) == region;
                if in_place && best.is_none_or(|(g, _)| generation > g) {
                    best = Some((generation, upto_seq));
                }
            }
        }
        let (generation, upto) = best.unwrap_or((0, 0));

        if generation > 0 {
            let region = self.cfg.region_of(generation);
            for key in 0..self.cfg.key_space {
                match self.read_frame(self.cfg.value_lba(region, key)) {
                    ReadFrame::Ok(Frame::CkptValue { key: k, value }) if k == key => {
                        if let Some(v) = value {
                            self.memtable.insert(key, v);
                        }
                    }
                    // Under a durable seal every key sector was written:
                    // a missing, foreign, or unreadable sector is a
                    // detected loss of that key.
                    ReadFrame::Ok(_) | ReadFrame::Damaged | ReadFrame::Unwritten => {
                        self.corrupt.insert(key);
                    }
                }
            }
        }

        let mut replayed = 0u64;
        let mut discarded = 0u64;
        let mut stale = 0u64;
        let mut seq = upto + 1;
        while seq <= upto + self.cfg.wal_slots {
            match self.read_frame(self.cfg.wal_lba(seq)) {
                ReadFrame::Ok(Frame::Record { seq: s, op }) if s == seq => {
                    Self::apply(&mut self.memtable, &mut self.corrupt, op);
                    replayed += 1;
                    seq += 1;
                    continue;
                }
                // A record from a previous lap of the ring: the embedded
                // sequence number exposes it as stale. End of log.
                ReadFrame::Ok(Frame::Record { .. }) => stale += 1,
                // Foreign frame or CRC failure: torn append. End of log.
                ReadFrame::Ok(_) | ReadFrame::Damaged => discarded += 1,
                ReadFrame::Unwritten => {}
            }
            break;
        }

        self.generation = generation;
        self.sealed_upto = upto;
        self.acked_seq = upto + replayed;
        self.next_seq = self.acked_seq + 1;
        self.committed_since_ckpt = replayed;

        KvReplayStats {
            replayed,
            discarded,
            stale,
            corrupt_keys: self.corrupt.len() as u64,
            generation,
        }
    }

    /// Recovers from a power fault: power-cycles the device with bounded
    /// exponential backoff against transient mount errors, then rebuilds
    /// state from the durable image. Degrades to read-only if the device
    /// does; gives up ([`KvError::Failed`]) on terminal device errors or
    /// when the retry budget is spent.
    pub fn recover(&mut self, at: SimTime) -> Result<KvRecoveryReport, KvError> {
        if !self.crashed() {
            return Err(KvError::NotCrashed);
        }
        let mut t = at;
        let mut backoff = self.cfg.recover_backoff;
        let mut retries = 0u32;
        let device = loop {
            match self.ssd.power_on_recover(t) {
                Ok(report) => break report,
                Err(DeviceError::MountFailed { .. })
                | Err(DeviceError::RecoveryInterrupted { .. }) => {
                    retries += 1;
                    self.stats.mount_retries += 1;
                    if retries > self.cfg.recover_retry_limit {
                        self.health = KvHealth::Failed;
                        return Err(KvError::Failed);
                    }
                    t += backoff;
                    backoff = backoff * 2;
                }
                Err(
                    DeviceError::Bricked { .. }
                    | DeviceError::RecoveryFailed { .. }
                    | DeviceError::NotMounted
                    | DeviceError::ReadOnly,
                ) => {
                    self.health = KvHealth::Failed;
                    return Err(KvError::Failed);
                }
            }
        };
        let read_only = self.ssd.is_read_only();
        self.health = if read_only {
            KvHealth::ReadOnly
        } else {
            KvHealth::Active
        };
        if read_only {
            let now = self.ssd.now();
            self.probes.emit(
                now,
                Layer::App,
                ProbeEvent::AppReadOnly {
                    retries: u64::from(retries),
                },
            );
        }
        let replay = self.rebuild();
        let now = self.ssd.now();
        self.probes.emit(
            now,
            Layer::App,
            ProbeEvent::AppWalReplay {
                replayed: replay.replayed,
                discarded: replay.discarded,
                stale: replay.stale,
            },
        );
        Ok(KvRecoveryReport {
            device,
            retries,
            replay,
            read_only,
        })
    }

    /// Re-runs the rebuild from durable device state on a mounted store
    /// (replay-twice ≡ replay-once check). Requires a prior successful
    /// [`KvStore::recover`] or a healthy store with everything
    /// committed.
    pub fn reload(&mut self) -> Result<KvReplayStats, KvError> {
        match self.health {
            KvHealth::Active | KvHealth::ReadOnly => Ok(self.rebuild()),
            KvHealth::Crashed => Err(KvError::Crashed),
            KvHealth::Failed => Err(KvError::Failed),
        }
    }
}
