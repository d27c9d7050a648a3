//! The FTL orchestrator.
//!
//! [`Ftl`] owns the volatile structures (mapping table, journal buffer,
//! allocation cursors) and exposes a two-phase API to the device layer:
//! `begin_*` reserves physical resources, the device performs the timed
//! flash operation, and `finish_*` publishes the result. Power loss between
//! the two phases — or before a later journal commit — is precisely where
//! the paper's failures live.
//!
//! Timing is deliberately absent here: the device model (`pfault-ssd`)
//! schedules when programs, commits, and GC happen; the FTL provides the
//! state transitions.

use pfault_flash::array::FlashArray;
use pfault_flash::geometry::Ppa;
use pfault_sim::{DetHashSet, DetRng, Lba};
use serde::{Deserialize, Serialize};

use crate::alloc::BlockAllocator;
use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::config::FtlConfig;
use crate::error::FtlError;
use crate::journal::{DurableLog, JournalBatch, JournalBuffer};
use crate::mapping::MappingTable;

/// Counters describing what a mapping-table recovery actually did:
/// which base it started from, how much journal it replayed, what it
/// discarded, and how big the rebuilt map ended up. Filled by
/// [`Ftl::recover_with_stats`] and surfaced to the host through the
/// device layer's `RecoveryReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Whether a readable mapping checkpoint seeded the rebuild.
    pub checkpoint_restored: bool,
    /// Mapping entries restored from that checkpoint (0 when none).
    pub checkpoint_entries: u64,
    /// Checkpoint pages skipped because the fault destroyed them.
    pub checkpoints_unreadable: u64,
    /// Journal batches replayed cleanly.
    pub batches_replayed: u64,
    /// Mapping entries applied from replayed batches.
    pub entries_replayed: u64,
    /// Torn batches discarded whole by the CRC check.
    pub batches_discarded_torn: u64,
    /// Batches never reached because replay stopped early (at an
    /// unreadable journal page or after a discarded tear).
    pub batches_truncated: u64,
    /// Pages adopted by the
    /// [`RecoveryPolicy::FullScan`](crate::config::RecoveryPolicy::FullScan)
    /// OOB scan.
    pub scan_adoptions: u64,
    /// Final size of the rebuilt logical-to-physical map.
    pub map_entries: u64,
}

/// A reserved slot for a user-data page program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriteSlot {
    /// Logical sector being written.
    pub lba: Lba,
    /// Physical page reserved for it.
    pub ppa: Ppa,
    /// Global write sequence number.
    pub seq: u64,
}

/// A journal commit in flight: the drained batch and its reserved page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOp {
    /// The batch being persisted.
    pub batch: JournalBatch,
    /// Journal page reserved for it.
    pub page: Ppa,
    /// Global write sequence number of the journal program.
    pub seq: u64,
}

/// A checkpoint in flight: the captured snapshot and its reserved page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckpointOp {
    /// The snapshot being persisted.
    pub checkpoint: Checkpoint,
    /// Flash page reserved for it.
    pub page: Ppa,
    /// Global write sequence number of the checkpoint program.
    pub seq: u64,
}

/// A garbage-collection plan for one victim block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GcPlan {
    /// Block to reclaim.
    pub victim: u64,
    /// Live sectors that must move first, with their current pages.
    pub relocations: Vec<(Lba, Ppa)>,
}

/// The flash translation layer. See the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Ftl {
    config: FtlConfig,
    map: MappingTable,
    alloc: BlockAllocator,
    buffer: JournalBuffer,
    active_user: Option<ActiveBlock>,
    active_journal: Option<ActiveBlock>,
    full_blocks: DetHashSet<u64>,
    retired: DetHashSet<u64>,
    seq: u64,
    next_batch_id: u64,
    batches_since_checkpoint: u64,
    next_checkpoint_id: u64,
}

#[derive(Debug, Clone, Copy)]
struct ActiveBlock {
    block: u64,
    next_page: u64,
}

impl Ftl {
    /// Creates a fresh FTL over an erased array.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`FtlConfig::validate`]).
    pub fn new(config: FtlConfig) -> Self {
        config.validate();
        Ftl {
            alloc: BlockAllocator::new(config.geometry),
            config,
            map: MappingTable::new(),
            buffer: JournalBuffer::new(),
            active_user: None,
            active_journal: None,
            full_blocks: DetHashSet::default(),
            retired: DetHashSet::default(),
            seq: 0,
            next_batch_id: 0,
            batches_since_checkpoint: 0,
            next_checkpoint_id: 0,
        }
    }

    /// The configuration in effect.
    pub fn config(&self) -> &FtlConfig {
        &self.config
    }

    /// Current location of `lba`, if mapped.
    pub fn lookup(&self, lba: Lba) -> Option<Ppa> {
        self.map.lookup(lba)
    }

    /// Number of mapped sectors.
    pub fn mapped_sectors(&self) -> usize {
        self.map.len()
    }

    /// Iterates all `(lba, ppa)` mappings (media-scrub support).
    pub fn iter_mapped(&self) -> impl Iterator<Item = (Lba, Ppa)> + '_ {
        self.map.iter()
    }

    /// Committable (closed) journal entries waiting for a commit.
    pub fn committable_entries(&self) -> usize {
        self.buffer.committable_len()
    }

    /// Sectors whose mapping would be lost to a power fault right now.
    pub fn volatile_mapped_sectors(&self) -> u64 {
        self.buffer.volatile_coverage()
    }

    /// Sectors covered by the open (uncommittable) extent.
    pub fn open_extent_sectors(&self) -> u64 {
        self.buffer.open_coverage()
    }

    /// Whether a commit should be issued because the committable backlog
    /// crossed the configured threshold. (Interval-based commits are the
    /// device's job.)
    pub fn commit_due_by_count(&self) -> bool {
        self.buffer.committable_len() >= self.config.commit_threshold
    }

    fn reserve_page(
        alloc: &mut BlockAllocator,
        full_blocks: &mut DetHashSet<u64>,
        active: &mut Option<ActiveBlock>,
        pages_per_block: u64,
    ) -> Result<Ppa, FtlError> {
        loop {
            match active {
                Some(a) if a.next_page < pages_per_block => {
                    let ppa = Ppa::new(a.block, a.next_page);
                    a.next_page += 1;
                    if a.next_page == pages_per_block {
                        full_blocks.insert(a.block);
                        *active = None;
                    }
                    return Ok(ppa);
                }
                _ => {
                    let block = alloc.allocate()?;
                    *active = Some(ActiveBlock {
                        block,
                        next_page: 0,
                    });
                }
            }
        }
    }

    /// Reserves a physical page for a user write of `lba`.
    ///
    /// The mapping is **not** updated until [`Ftl::finish_user_write`] —
    /// the device calls that only after the flash program completes.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::OutOfBlocks`] if allocation fails (run GC).
    pub fn begin_user_write(&mut self, lba: Lba) -> Result<WriteSlot, FtlError> {
        let ppa = Self::reserve_page(
            &mut self.alloc,
            &mut self.full_blocks,
            &mut self.active_user,
            self.config.geometry.pages_per_block(),
        )?;
        self.seq += 1;
        Ok(WriteSlot {
            lba,
            ppa,
            seq: self.seq,
        })
    }

    /// Publishes a completed user write: updates the RAM map and records
    /// the journal entry. Returns the previously mapped page, now invalid.
    pub fn finish_user_write(&mut self, slot: &WriteSlot) -> Option<Ppa> {
        let old = self.map.update(slot.lba, slot.ppa);
        self.buffer.record(
            slot.lba,
            slot.ppa,
            self.config.extent_mapping,
            self.config.max_extent_len,
            self.config.geometry.pages_per_block(),
        );
        old
    }

    /// Discards the mapping of `lba` (TRIM). Returns the page that held
    /// it, now invalid, if one existed. The removal is journaled like any
    /// other mapping change — an untrimmed ghost may reappear if power
    /// fails before the trim commits, exactly like a lost write.
    pub fn trim(&mut self, lba: Lba) -> Option<Ppa> {
        let old = self.map.remove(lba);
        if old.is_some() {
            self.buffer.record_trim(lba);
        }
        old
    }

    /// Drains committable journal entries into a batch and reserves a
    /// journal page for it. Returns `None` when nothing is committable.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::OutOfBlocks`] if no journal page can be
    /// reserved.
    pub fn begin_journal_commit(&mut self) -> Result<Option<CommitOp>, FtlError> {
        if self.buffer.committable_len() == 0 {
            return Ok(None);
        }
        let page = Self::reserve_page(
            &mut self.alloc,
            &mut self.full_blocks,
            &mut self.active_journal,
            self.config.geometry.pages_per_block(),
        )?;
        let entries = self.buffer.drain_committable();
        let batch = JournalBatch {
            id: self.next_batch_id,
            entries,
        };
        self.next_batch_id += 1;
        self.seq += 1;
        Ok(Some(CommitOp {
            batch,
            page,
            seq: self.seq,
        }))
    }

    /// Marks a commit durable after its journal page program completed.
    pub fn finish_journal_commit(&mut self, op: CommitOp, durable: &mut DurableLog) {
        durable.append(op.page, op.batch);
        self.batches_since_checkpoint += 1;
    }

    /// Whether enough journal batches accumulated since the last
    /// checkpoint to warrant a new snapshot.
    pub fn checkpoint_due(&self) -> bool {
        self.config.checkpoint_every_batches > 0
            && self.batches_since_checkpoint >= self.config.checkpoint_every_batches
    }

    /// Captures the RAM map into a checkpoint and reserves a flash page
    /// for it. The snapshot includes *volatile* mapping state too — a
    /// completed checkpoint makes it durable.
    ///
    /// # Errors
    ///
    /// Returns [`FtlError::OutOfBlocks`] if no page can be reserved.
    pub fn begin_checkpoint(&mut self) -> Result<CheckpointOp, FtlError> {
        let page = Self::reserve_page(
            &mut self.alloc,
            &mut self.full_blocks,
            &mut self.active_journal,
            self.config.geometry.pages_per_block(),
        )?;
        let last_batch = self.next_batch_id.checked_sub(1);
        let checkpoint = Checkpoint::capture(self.next_checkpoint_id, last_batch, &self.map);
        self.next_checkpoint_id += 1;
        self.seq += 1;
        Ok(CheckpointOp {
            checkpoint,
            page,
            seq: self.seq,
        })
    }

    /// Marks a checkpoint durable after its page program completed.
    pub fn finish_checkpoint(&mut self, op: CheckpointOp, store: &mut CheckpointStore) {
        store.append(op.page, op.checkpoint);
        self.batches_since_checkpoint = 0;
    }

    /// Force-closes the open extent so a subsequent commit covers it
    /// (used by the brownout race and clean shutdown).
    pub fn close_open_extent(&mut self) {
        self.buffer.close_open();
    }

    /// Whether free blocks dropped below the GC low-water mark.
    pub fn gc_needed(&self) -> bool {
        self.alloc.available() < self.config.gc_low_water_blocks
    }

    /// Freezes the mapping table ([`MappingTable::freeze`]): clones of
    /// this FTL then share its stripes, copying only those they write.
    /// Behaviour is unchanged.
    pub fn freeze_map(&mut self) {
        self.map.freeze();
    }

    /// Picks the full block with the fewest valid pages and lists the live
    /// sectors that must be relocated. Returns `None` if no full block is
    /// reclaimable.
    pub fn gc_plan(&self) -> Option<GcPlan> {
        let victim = self
            .full_blocks
            .iter()
            .map(|&b| (self.map.valid_pages_in(b), b))
            .min()?
            .1;
        let relocations = self
            .map
            .lbas_in_block(victim)
            .into_iter()
            .map(|lba| {
                let ppa = self.map.lookup(lba).expect("lba listed in block is mapped");
                (lba, ppa)
            })
            .collect();
        Some(GcPlan {
            victim,
            relocations,
        })
    }

    /// Completes GC of `victim` after the device erased it: returns the
    /// block to the allocator with its new erase count.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the victim still holds valid pages.
    pub fn finish_gc(&mut self, victim: u64, erase_count: u32) {
        debug_assert_eq!(
            self.map.valid_pages_in(victim),
            0,
            "GC victim still has valid pages"
        );
        self.full_blocks.remove(&victim);
        if !self.retired.contains(&victim) {
            self.alloc.recycle(victim, erase_count);
        }
    }

    /// Free blocks currently available without GC.
    pub fn available_blocks(&self) -> u64 {
        self.alloc.available()
    }

    /// Rebuilds an FTL after power loss by replaying the durable journal.
    ///
    /// Each batch's backing journal page is read back first; an
    /// unreadable page truncates the log there (later batches depended on
    /// it for ordering). Everything that was still volatile at the fault —
    /// the RAM map deltas, the journal buffer, the open extent — is gone:
    /// affected LBAs revert to their last durable mapping.
    pub fn recover(
        config: FtlConfig,
        array: &mut FlashArray,
        durable: &DurableLog,
        rng: &mut DetRng,
    ) -> Ftl {
        Ftl::recover_with_checkpoints(config, array, durable, &CheckpointStore::new(), rng)
    }

    /// Fallible recovery: like [`Ftl::recover_with_checkpoints`], but
    /// returns [`FtlError::RecoveryExhausted`] when the rebuilt state
    /// consumes every block in the array — the recovered device would
    /// have no free block for new writes or journal commits. The
    /// condition is deterministic, so retrying the mount cannot help.
    pub fn try_recover_with_checkpoints(
        config: FtlConfig,
        array: &mut FlashArray,
        durable: &DurableLog,
        checkpoints: &CheckpointStore,
        rng: &mut DetRng,
    ) -> Result<Ftl, FtlError> {
        Ftl::try_recover_with_stats(config, array, durable, checkpoints, rng).map(|(ftl, _)| ftl)
    }

    /// Fallible recovery that also reports what the rebuild did: the
    /// [`RecoveryStats`] counterpart of [`Ftl::try_recover_with_checkpoints`].
    pub fn try_recover_with_stats(
        config: FtlConfig,
        array: &mut FlashArray,
        durable: &DurableLog,
        checkpoints: &CheckpointStore,
        rng: &mut DetRng,
    ) -> Result<(Ftl, RecoveryStats), FtlError> {
        let (ftl, stats) = Ftl::recover_with_stats(config, array, durable, checkpoints, rng);
        if ftl.available_blocks() == 0 {
            return Err(FtlError::RecoveryExhausted {
                blocks: config.geometry.blocks(),
            });
        }
        Ok((ftl, stats))
    }

    /// Full recovery: start from the newest *readable* checkpoint, then
    /// replay only the journal batches newer than it. Falls back to older
    /// checkpoints (and ultimately to a full replay) when checkpoint pages
    /// were destroyed by the fault. Under
    /// [`RecoveryPolicy::FullScan`](crate::config::RecoveryPolicy::FullScan),
    /// the rebuilt map is then reconciled against an OOB scan of the
    /// whole array: the newest readable version of each sector wins,
    /// recovering cleanly-programmed data whose mapping never committed.
    pub fn recover_with_checkpoints(
        config: FtlConfig,
        array: &mut FlashArray,
        durable: &DurableLog,
        checkpoints: &CheckpointStore,
        rng: &mut DetRng,
    ) -> Ftl {
        Ftl::recover_with_stats(config, array, durable, checkpoints, rng).0
    }

    /// Like [`Ftl::recover_with_checkpoints`], additionally returning
    /// [`RecoveryStats`] describing the rebuild.
    pub fn recover_with_stats(
        config: FtlConfig,
        array: &mut FlashArray,
        durable: &DurableLog,
        checkpoints: &CheckpointStore,
        rng: &mut DetRng,
    ) -> (Ftl, RecoveryStats) {
        config.validate();
        let scan = crate::recovery::journal_scan(&config, array, durable, checkpoints, rng);
        crate::recovery::mapping_rebuild(config, array, durable, checkpoints, &scan, rng)
    }

    /// Assembles a ready FTL around a freshly rebuilt mapping: the final
    /// step of [`crate::recovery::mapping_rebuild`]. Allocation restarts
    /// on fresh blocks beyond anything touched, so post-recovery writes
    /// never collide with surviving data.
    pub(crate) fn from_rebuilt_map(
        config: FtlConfig,
        map: MappingTable,
        durable_batches: u64,
        checkpoint_count: u64,
        array: &FlashArray,
    ) -> Ftl {
        let mut alloc = BlockAllocator::new(config.geometry);
        let high_water = map
            .blocks_with_valid_pages()
            .map(|(b, _)| b + 1)
            .max()
            .unwrap_or(0)
            .max(array.touched_blocks() as u64);
        for _ in 0..high_water {
            // Consume the low blocks; they may hold stale-but-referenced data.
            let _ = alloc.allocate();
        }
        Ftl {
            config,
            map,
            alloc,
            buffer: JournalBuffer::new(),
            active_user: None,
            active_journal: None,
            full_blocks: DetHashSet::default(),
            retired: DetHashSet::default(),
            seq: high_water * config.geometry.pages_per_block(),
            next_batch_id: durable_batches,
            batches_since_checkpoint: 0,
            next_checkpoint_id: checkpoint_count,
        }
    }

    /// Takes `block` permanently out of service: it is never offered as a
    /// GC victim again and [`Ftl::finish_gc`] will refuse to recycle it.
    /// Mapped sectors still pointing into the block keep their (now
    /// marginal) mapping — relocating what is readable first is the
    /// caller's job (the device's bad-block-retirement recovery stage).
    pub fn retire_block(&mut self, block: u64) {
        self.full_blocks.remove(&block);
        self.retired.insert(block);
    }

    /// Whether `block` has been retired.
    pub fn is_retired(&self, block: u64) -> bool {
        self.retired.contains(&block)
    }

    /// Number of blocks retired so far.
    pub fn retired_blocks(&self) -> u64 {
        self.retired.len() as u64
    }

    /// Order-independent digest of the FTL's state: the full
    /// logical-to-physical mapping, journal-buffer depth, allocator
    /// cursors, and the retired/full block sets. Combined with
    /// `FlashArray::state_digest` this pins a warm-snapshot's firmware
    /// state precisely enough that capture/restore mismatches surface as
    /// digest inequalities instead of silently divergent campaigns.
    pub fn state_digest(&self) -> u64 {
        use pfault_sim::checksum::mix64;
        let mut entries: Vec<(u64, u64, u64)> = self
            .iter_mapped()
            .map(|(lba, ppa)| (lba.index(), ppa.block, ppa.page))
            .collect();
        entries.sort_unstable();
        let mut h: u64 = 0xF71C_57A7_ED16_0E57;
        for (lba, block, page) in entries {
            h = mix64(h, lba);
            h = mix64(h, block);
            h = mix64(h, page);
        }
        let mut full: Vec<u64> = self.full_blocks.iter().copied().collect();
        full.sort_unstable();
        let mut retired: Vec<u64> = self.retired.iter().copied().collect();
        retired.sort_unstable();
        for b in full.into_iter().chain(retired) {
            h = mix64(h, b);
        }
        for active in [&self.active_user, &self.active_journal] {
            match active {
                Some(a) => {
                    h = mix64(h, a.block);
                    h = mix64(h, a.next_page);
                }
                None => h = mix64(h, u64::MAX),
            }
        }
        h = mix64(h, self.buffer.committable_len() as u64);
        h = mix64(h, self.seq);
        h = mix64(h, self.next_batch_id);
        h = mix64(h, self.batches_since_checkpoint);
        mix64(h, self.next_checkpoint_id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RecoveryPolicy;
    use pfault_flash::array::PageData;
    use pfault_flash::geometry::FlashGeometry;
    use pfault_flash::oob::Oob;
    use pfault_flash::CellKind;

    fn setup() -> (FlashArray, Ftl, DurableLog, DetRng) {
        let geom = FlashGeometry::new(64, 16);
        let array = FlashArray::new(geom, CellKind::Mlc);
        let ftl = Ftl::new(FtlConfig::for_geometry(geom));
        (array, ftl, DurableLog::new(), DetRng::new(42))
    }

    fn write_sector(array: &mut FlashArray, ftl: &mut Ftl, lba: Lba, tag: u64) -> WriteSlot {
        let slot = ftl.begin_user_write(lba).unwrap();
        array
            .program(slot.ppa, PageData::from_tag(tag), Oob::user(lba, slot.seq))
            .unwrap();
        ftl.finish_user_write(&slot);
        slot
    }

    fn commit(array: &mut FlashArray, ftl: &mut Ftl, durable: &mut DurableLog) {
        ftl.close_open_extent();
        if let Some(op) = ftl.begin_journal_commit().unwrap() {
            array
                .program(
                    op.page,
                    PageData::from_tag(op.batch.id),
                    Oob::journal(op.batch.id, op.seq),
                )
                .unwrap();
            ftl.finish_journal_commit(op, durable);
        }
    }

    #[test]
    fn write_then_lookup() {
        let (mut array, mut ftl, _d, _r) = setup();
        let slot = write_sector(&mut array, &mut ftl, Lba::new(5), 99);
        assert_eq!(ftl.lookup(Lba::new(5)), Some(slot.ppa));
        assert_eq!(ftl.mapped_sectors(), 1);
    }

    #[test]
    fn fallible_recovery_matches_infallible_on_healthy_device() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let slot = write_sector(&mut array, &mut ftl, Lba::new(7), 3);
        commit(&mut array, &mut ftl, &mut durable);
        let recovered = Ftl::try_recover_with_checkpoints(
            ftl.config,
            &mut array,
            &durable,
            &CheckpointStore::new(),
            &mut rng,
        )
        .expect("healthy device recovers");
        assert_eq!(recovered.lookup(Lba::new(7)), Some(slot.ppa));
    }

    #[test]
    fn exhausted_array_fails_fallible_recovery() {
        let (mut array, mut ftl, durable, mut rng) = setup();
        // Touch every block so recovery's allocation high-water mark
        // consumes the whole array.
        let mut lba = 0u64;
        while let Ok(slot) = ftl.begin_user_write(Lba::new(lba)) {
            array
                .program(
                    slot.ppa,
                    PageData::from_tag(lba),
                    Oob::user(Lba::new(lba), slot.seq),
                )
                .unwrap();
            ftl.finish_user_write(&slot);
            lba += 1;
        }
        let err = Ftl::try_recover_with_checkpoints(
            ftl.config,
            &mut array,
            &durable,
            &CheckpointStore::new(),
            &mut rng,
        )
        .unwrap_err();
        assert!(matches!(err, FtlError::RecoveryExhausted { .. }));
    }

    #[test]
    fn overwrite_invalidates_old_page() {
        let (mut array, mut ftl, _d, _r) = setup();
        let s1 = write_sector(&mut array, &mut ftl, Lba::new(5), 1);
        let s2 = ftl.begin_user_write(Lba::new(5)).unwrap();
        array
            .program(
                s2.ppa,
                PageData::from_tag(2),
                Oob::user(Lba::new(5), s2.seq),
            )
            .unwrap();
        let old = ftl.finish_user_write(&s2);
        assert_eq!(old, Some(s1.ppa));
        assert_eq!(ftl.lookup(Lba::new(5)), Some(s2.ppa));
    }

    #[test]
    fn committed_mapping_survives_recovery() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let slot = write_sector(&mut array, &mut ftl, Lba::new(7), 3);
        commit(&mut array, &mut ftl, &mut durable);
        // Power loss: drop the FTL, recover from flash + durable log.
        let recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert_eq!(recovered.lookup(Lba::new(7)), Some(slot.ppa));
    }

    #[test]
    fn uncommitted_mapping_lost_on_recovery() {
        let (mut array, mut ftl, durable, mut rng) = setup();
        write_sector(&mut array, &mut ftl, Lba::new(7), 3);
        // No commit. Power loss.
        let recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert_eq!(recovered.lookup(Lba::new(7)), None);
    }

    #[test]
    fn stale_mapping_revert_after_partial_commit() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let s1 = write_sector(&mut array, &mut ftl, Lba::new(7), 1);
        commit(&mut array, &mut ftl, &mut durable);
        let s2 = write_sector(&mut array, &mut ftl, Lba::new(7), 2);
        assert_ne!(s1.ppa, s2.ppa);
        // Second write never committed: recovery reverts to the first.
        let recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert_eq!(recovered.lookup(Lba::new(7)), Some(s1.ppa));
    }

    #[test]
    fn open_extent_is_not_committable() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        // Sequential run: stays open, so a commit persists nothing.
        for i in 0..8 {
            write_sector(&mut array, &mut ftl, Lba::new(100 + i), i);
        }
        assert_eq!(ftl.open_extent_sectors(), 8);
        if let Some(op) = ftl.begin_journal_commit().unwrap() {
            panic!("nothing should be committable, got {op:?}");
        }
        // Without close_open_extent the whole run dies with the power.
        let recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert_eq!(recovered.mapped_sectors(), 0);
        // A proper flush-close commits everything.
        commit(&mut array, &mut ftl, &mut durable);
        let recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert_eq!(recovered.mapped_sectors(), 8);
    }

    #[test]
    fn destroyed_journal_page_truncates_replay() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        // Three commits: journal pages 0, 1, 2 in the journal block. Page 2
        // opens MLC wordline 1, so interrupting it cannot collaterally
        // damage pages 0/1 (they live on wordline 0).
        for (lba, tag) in [(1u64, 1u64), (2, 2), (3, 3)] {
            write_sector(&mut array, &mut ftl, Lba::new(lba), tag);
            commit(&mut array, &mut ftl, &mut durable);
        }
        let third_page = durable.iter().nth(2).unwrap().0;
        array.interrupt_program(third_page, 0.0, &mut rng);
        let recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert!(recovered.lookup(Lba::new(1)).is_some());
        assert!(recovered.lookup(Lba::new(2)).is_some());
        assert_eq!(recovered.lookup(Lba::new(3)), None);
    }

    #[test]
    fn commit_due_by_count_threshold() {
        let geom = FlashGeometry::new(64, 16);
        let mut config = FtlConfig::for_geometry(geom);
        config.commit_threshold = 3;
        config.extent_mapping = false;
        let mut array = FlashArray::new(geom, CellKind::Mlc);
        let mut ftl = Ftl::new(config);
        for i in 0..2 {
            write_sector(&mut array, &mut ftl, Lba::new(i * 10), i);
        }
        assert!(!ftl.commit_due_by_count());
        write_sector(&mut array, &mut ftl, Lba::new(30), 3);
        assert!(ftl.commit_due_by_count());
    }

    #[test]
    fn gc_reclaims_fullest_invalid_block() {
        let geom = FlashGeometry::new(8, 4);
        let mut config = FtlConfig::for_geometry(geom);
        config.gc_low_water_blocks = 7;
        config.extent_mapping = false;
        let mut array = FlashArray::new(geom, CellKind::Mlc);
        let mut ftl = Ftl::new(config);
        // Fill block 0 with 4 sectors, then overwrite all of them so block 0
        // is fully invalid.
        for i in 0..4 {
            write_sector(&mut array, &mut ftl, Lba::new(i), i);
        }
        for i in 0..4 {
            write_sector(&mut array, &mut ftl, Lba::new(i), 100 + i);
        }
        assert!(ftl.gc_needed());
        let plan = ftl.gc_plan().expect("a full block exists");
        assert_eq!(plan.victim, 0);
        assert!(plan.relocations.is_empty(), "block 0 has no live data");
        array.erase(plan.victim).unwrap();
        ftl.finish_gc(plan.victim, array.erase_count(plan.victim));
        assert!(ftl.available_blocks() > 0);
    }

    #[test]
    fn gc_plan_lists_live_sectors_for_relocation() {
        let geom = FlashGeometry::new(8, 4);
        let mut config = FtlConfig::for_geometry(geom);
        config.extent_mapping = false;
        let mut array = FlashArray::new(geom, CellKind::Mlc);
        let mut ftl = Ftl::new(config);
        for i in 0..4 {
            write_sector(&mut array, &mut ftl, Lba::new(i), i);
        }
        // Overwrite half: block 0 keeps 2 live sectors.
        write_sector(&mut array, &mut ftl, Lba::new(0), 50);
        write_sector(&mut array, &mut ftl, Lba::new(1), 51);
        let plan = ftl.gc_plan().unwrap();
        assert_eq!(plan.victim, 0);
        let lbas: Vec<u64> = plan.relocations.iter().map(|(l, _)| l.index()).collect();
        assert_eq!(lbas, vec![2, 3]);
    }

    #[test]
    fn out_of_blocks_surfaces() {
        let geom = FlashGeometry::new(1, 2);
        let mut config = FtlConfig::for_geometry(geom);
        config.gc_low_water_blocks = 0;
        let mut ftl = Ftl::new(config);
        ftl.begin_user_write(Lba::new(0)).unwrap();
        ftl.begin_user_write(Lba::new(1)).unwrap();
        assert_eq!(
            ftl.begin_user_write(Lba::new(2)).unwrap_err(),
            FtlError::OutOfBlocks
        );
    }

    fn checkpoint(array: &mut FlashArray, ftl: &mut Ftl, store: &mut CheckpointStore) {
        let op = ftl.begin_checkpoint().unwrap();
        array
            .program(
                op.page,
                PageData::from_tag(0xC4EC_0000 ^ op.checkpoint.id),
                Oob::checkpoint(op.checkpoint.id, op.seq),
            )
            .unwrap();
        ftl.finish_checkpoint(op, store);
    }

    #[test]
    fn checkpoint_bounds_replay_and_preserves_mappings() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let s1 = write_sector(&mut array, &mut ftl, Lba::new(1), 1);
        commit(&mut array, &mut ftl, &mut durable);
        let mut store = CheckpointStore::new();
        checkpoint(&mut array, &mut ftl, &mut store);
        let s2 = write_sector(&mut array, &mut ftl, Lba::new(2), 2);
        commit(&mut array, &mut ftl, &mut durable);
        let recovered =
            Ftl::recover_with_checkpoints(*ftl.config(), &mut array, &durable, &store, &mut rng);
        assert_eq!(recovered.lookup(Lba::new(1)), Some(s1.ppa));
        assert_eq!(recovered.lookup(Lba::new(2)), Some(s2.ppa));
    }

    #[test]
    fn checkpoint_makes_volatile_mappings_durable() {
        let (mut array, mut ftl, durable, mut rng) = setup();
        let slot = write_sector(&mut array, &mut ftl, Lba::new(9), 9);
        // No journal commit — but a checkpoint snapshots the RAM map.
        let mut store = CheckpointStore::new();
        checkpoint(&mut array, &mut ftl, &mut store);
        let recovered =
            Ftl::recover_with_checkpoints(*ftl.config(), &mut array, &durable, &store, &mut rng);
        assert_eq!(recovered.lookup(Lba::new(9)), Some(slot.ppa));
    }

    #[test]
    fn destroyed_checkpoint_falls_back_to_journal_replay() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        // Two commits fill journal pages 0 and 1 (one MLC wordline), so
        // the checkpoint lands on page 2 — a fresh wordline whose
        // interruption cannot collaterally damage the journal pages.
        let s1 = write_sector(&mut array, &mut ftl, Lba::new(1), 1);
        commit(&mut array, &mut ftl, &mut durable);
        let s2 = write_sector(&mut array, &mut ftl, Lba::new(2), 2);
        commit(&mut array, &mut ftl, &mut durable);
        let mut store = CheckpointStore::new();
        checkpoint(&mut array, &mut ftl, &mut store);
        let cp_page = store.latest().unwrap().0;
        array.interrupt_program(cp_page, 0.0, &mut rng);
        let recovered =
            Ftl::recover_with_checkpoints(*ftl.config(), &mut array, &durable, &store, &mut rng);
        // Journal replay still covers the committed writes.
        assert_eq!(recovered.lookup(Lba::new(1)), Some(s1.ppa));
        assert_eq!(recovered.lookup(Lba::new(2)), Some(s2.ppa));
    }

    #[test]
    fn checkpoint_due_counts_batches() {
        let geom = FlashGeometry::new(64, 16);
        let mut config = FtlConfig::for_geometry(geom);
        config.checkpoint_every_batches = 2;
        config.extent_mapping = false;
        let mut array = FlashArray::new(geom, CellKind::Mlc);
        let mut ftl = Ftl::new(config);
        let mut durable = DurableLog::new();
        assert!(!ftl.checkpoint_due());
        write_sector(&mut array, &mut ftl, Lba::new(1), 1);
        commit(&mut array, &mut ftl, &mut durable);
        assert!(!ftl.checkpoint_due());
        write_sector(&mut array, &mut ftl, Lba::new(2), 2);
        commit(&mut array, &mut ftl, &mut durable);
        assert!(ftl.checkpoint_due());
        let mut store = CheckpointStore::new();
        checkpoint(&mut array, &mut ftl, &mut store);
        assert!(!ftl.checkpoint_due());
    }

    #[test]
    fn full_scan_recovers_uncommitted_but_programmed_data() {
        let (mut array, mut ftl, durable, mut rng) = setup();
        let slot = write_sector(&mut array, &mut ftl, Lba::new(7), 3);
        // No commit: journal replay would lose it…
        let mut config = *ftl.config();
        config.recovery_policy = RecoveryPolicy::JournalReplay;
        let journal_only = Ftl::recover_with_checkpoints(
            config,
            &mut array,
            &durable,
            &CheckpointStore::new(),
            &mut rng,
        );
        assert_eq!(journal_only.lookup(Lba::new(7)), None);
        // …but the OOB scan finds the cleanly-programmed page.
        config.recovery_policy = RecoveryPolicy::FullScan;
        let scanned = Ftl::recover_with_checkpoints(
            config,
            &mut array,
            &durable,
            &CheckpointStore::new(),
            &mut rng,
        );
        assert_eq!(scanned.lookup(Lba::new(7)), Some(slot.ppa));
    }

    #[test]
    fn full_scan_skips_interrupted_pages_and_keeps_newest() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let s1 = write_sector(&mut array, &mut ftl, Lba::new(7), 1);
        commit(&mut array, &mut ftl, &mut durable);
        // A newer version whose program was interrupted: garbage on media.
        let s2 = ftl.begin_user_write(Lba::new(7)).unwrap();
        array.interrupt_program(s2.ppa, 0.0, &mut rng);
        let mut config = *ftl.config();
        config.recovery_policy = RecoveryPolicy::FullScan;
        let recovered = Ftl::recover_with_checkpoints(
            config,
            &mut array,
            &durable,
            &CheckpointStore::new(),
            &mut rng,
        );
        // The interrupted page is unreadable; the committed older version
        // must win.
        assert_eq!(recovered.lookup(Lba::new(7)), Some(s1.ppa));
    }

    #[test]
    fn torn_batch_is_discarded_whole_not_half_applied() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        // First commit is intact; the second lands torn: only 1 of its 2
        // point entries persisted, but the page itself reads back fine
        // (the tear hit the entry stream, not the whole page).
        let s1 = write_sector(&mut array, &mut ftl, Lba::new(1), 1);
        commit(&mut array, &mut ftl, &mut durable);
        write_sector(&mut array, &mut ftl, Lba::new(10), 2);
        write_sector(&mut array, &mut ftl, Lba::new(20), 3);
        ftl.close_open_extent();
        let op = ftl.begin_journal_commit().unwrap().expect("committable");
        assert_eq!(op.batch.coverage(), 2);
        array
            .program(
                op.page,
                PageData::from_tag(op.batch.id),
                Oob::journal(op.batch.id, op.seq),
            )
            .unwrap();
        durable.append_torn(op.page, &op.batch, 1);

        // Correct firmware verifies the stored CRC first and discards the
        // torn batch whole.
        let mut strict = *ftl.config();
        strict.verify_batch_crc = true;
        let recovered = Ftl::recover(strict, &mut array, &durable, &mut rng);
        assert_eq!(
            recovered.lookup(Lba::new(1)),
            Some(s1.ppa),
            "intact batch applies"
        );
        assert_eq!(
            recovered.lookup(Lba::new(10)),
            None,
            "torn batch must be discarded whole, not half-applied"
        );
        assert_eq!(recovered.lookup(Lba::new(20)), None);

        // The workspace default models the paper's drives: apply before
        // verify, so the surviving prefix is half-applied.
        assert!(!ftl.config().verify_batch_crc, "studied-drive default");
        let half = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        assert!(half.lookup(Lba::new(10)).is_some(), "bug knob half-applies");
        assert_eq!(half.lookup(Lba::new(20)), None);
    }

    #[test]
    fn recovery_allocates_beyond_touched_blocks() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let slot = write_sector(&mut array, &mut ftl, Lba::new(1), 1);
        commit(&mut array, &mut ftl, &mut durable);
        let mut recovered = Ftl::recover(*ftl.config(), &mut array, &durable, &mut rng);
        let new_slot = recovered.begin_user_write(Lba::new(2)).unwrap();
        assert!(new_slot.ppa.block > slot.ppa.block);
    }
}
