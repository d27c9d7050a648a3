//! Staged mapping recovery.
//!
//! The monolithic `Ftl::recover_with_stats` is decomposed into two
//! explicit stages so the device layer can run them on simulated time and
//! survive a power cut *between* them:
//!
//! 1. [`journal_scan`] — find the newest readable mapping checkpoint and
//!    read back every durable journal page, deciding which batches are
//!    applicable (readable and, when `verify_batch_crc` is set,
//!    CRC-accepted). The result is a pure value: a device that holds on
//!    to a [`JournalScanOutcome`] across a power cut models firmware that
//!    checkpoints its recovery progress at a stage boundary.
//! 2. [`mapping_rebuild`] — apply the accepted batches over the
//!    checkpoint base (starting from the log's frozen replay memo when
//!    the base is empty and the batches cover the memoized prefix),
//!    reconcile with the
//!    [`RecoveryPolicy::FullScan`] OOB sweep when configured, and
//!    rebuild the allocator high-water mark into a ready [`Ftl`].
//!
//! Running the two stages back to back performs exactly the same flash
//! reads, in exactly the same order, as the old monolith — same rebuilt
//! mapping, same RNG draw count. `Ftl::recover_with_stats` is now
//! implemented on top of these stages, so the equivalence is structural,
//! not merely tested.

use pfault_flash::array::{FlashArray, ReadOutcome};
use pfault_flash::geometry::Ppa;
use pfault_sim::{DetRng, Lba};

use crate::checkpoint::CheckpointStore;
use crate::config::{FtlConfig, RecoveryPolicy};
use crate::ftl::{Ftl, RecoveryStats};
use crate::journal::{DurableLog, JournalBatch, ReplayMemo};
use crate::mapping::MappingTable;

/// What the journal-scan stage decided: the checkpoint base to rebuild
/// over and the journal batches that survived readability + CRC triage.
///
/// This is the stage-boundary artifact the device persists (in modeled
/// firmware scratch space) so a second mount after a mid-recovery power
/// cut can *resume* at [`mapping_rebuild`] instead of re-scanning.
#[derive(Debug, Clone)]
pub struct JournalScanOutcome {
    /// Mapping restored from the newest readable checkpoint (empty when
    /// none was readable).
    pub map: MappingTable,
    /// Id of the last batch already folded into the checkpoint base.
    pub replay_after: Option<u64>,
    /// Batches to apply over the base, oldest first — already filtered
    /// to the readable, untorn prefix of the durable log.
    pub batches: Vec<JournalBatch>,
    /// Checkpoint/triage counters filled so far ([`mapping_rebuild`]
    /// completes the rest).
    pub stats: RecoveryStats,
}

/// Stage 1: checkpoint selection and journal triage.
///
/// Reads checkpoint pages newest-first until one decodes intact, then
/// reads every durable journal page in commit order. An unreadable page
/// truncates the log there; with `verify_batch_crc`, a CRC-mismatching
/// (torn) batch is discarded whole and also stops replay.
pub fn journal_scan(
    config: &FtlConfig,
    array: &mut FlashArray,
    durable: &DurableLog,
    checkpoints: &CheckpointStore,
    rng: &mut DetRng,
) -> JournalScanOutcome {
    let mut stats = RecoveryStats::default();
    let mut map = MappingTable::new();
    let mut replay_after: Option<u64> = None;
    for (page, checkpoint) in checkpoints.iter_newest_first() {
        let readable =
            matches!(array.read(page, rng), ReadOutcome::Ok { data, .. } if data.is_intact());
        if readable {
            map = checkpoint.restore();
            replay_after = checkpoint.last_batch;
            stats.checkpoint_restored = true;
            stats.checkpoint_entries = map.len() as u64;
            break;
        }
        stats.checkpoints_unreadable += 1;
    }
    let records: Vec<_> = durable.iter_records().collect();
    let mut batches = Vec::new();
    for (i, record) in records.iter().enumerate() {
        if replay_after.is_some_and(|last| record.batch.id <= last) {
            continue; // already folded into the checkpoint base
        }
        let readable = matches!(
            array.read(record.page, rng),
            ReadOutcome::Ok { data, .. } if data.is_intact()
        );
        if !readable {
            // Journal page destroyed by the fault: replay stops here.
            stats.batches_truncated += (records.len() - i) as u64;
            break;
        }
        if config.verify_batch_crc && !record.crc_ok() {
            // Torn batch: the stored CRC covers the full committed
            // batch, but only a prefix of its entries persisted.
            // Discard it whole — never half-apply — and stop replay:
            // every later batch was ordered after the tear.
            stats.batches_discarded_torn += 1;
            stats.batches_truncated += (records.len() - i - 1) as u64;
            break;
        }
        batches.push(record.batch.clone());
    }
    JournalScanOutcome {
        map,
        replay_after,
        batches,
        stats,
    }
}

/// Stage 2: apply the scan's accepted batches, reconcile via FullScan
/// when configured, and assemble a ready [`Ftl`].
///
/// Borrows the scan outcome: an interrupted rebuild retries against the
/// same checkpointed scan, so the caller keeps ownership and the rebuild
/// copies only the mapping base it mutates.
///
/// When no checkpoint base was restored (the base is empty) and the
/// accepted batches cover the prefix `durable` froze into its replay
/// memo ([`DurableLog::freeze`]), the rebuild starts from the memo and
/// applies only the batches after it. Anything else — a restored
/// checkpoint, or a prefix cut short by an unreadable page or a
/// discarded torn batch — replays every accepted batch. Both paths build
/// the same table, and [`RecoveryStats`] counts every accepted batch
/// either way, so the modelled rebuild time does not depend on the memo.
pub fn mapping_rebuild(
    config: FtlConfig,
    array: &mut FlashArray,
    durable: &DurableLog,
    checkpoints: &CheckpointStore,
    scan: &JournalScanOutcome,
    rng: &mut DetRng,
) -> (Ftl, RecoveryStats) {
    let batches = &scan.batches;
    let (mut map, memoized) = match usable_memo(durable, scan) {
        Some(memo) => (memo.table.clone(), memo.batches),
        None => (scan.map.clone(), 0),
    };
    for batch in &batches[memoized..] {
        batch.apply_to(&mut map, config.geometry.pages_per_block());
    }
    let mut stats = scan.stats;
    stats.batches_replayed += batches.len() as u64;
    stats.entries_replayed += batches.iter().map(|b| b.entries.len() as u64).sum::<u64>();
    if config.recovery_policy == RecoveryPolicy::FullScan {
        // OOB scan: adopt the newest readable user page per sector.
        // Pages must actually decode (the scan reads them back), so
        // interrupted programs and paired-corrupted pages stay out.
        let mut newest: pfault_sim::DetHashMap<Lba, (u64, Ppa)> = pfault_sim::DetHashMap::default();
        let candidates: Vec<(Ppa, u64, Lba)> = array
            .scan()
            .filter_map(|(ppa, data, oob, _)| {
                oob.lba()
                    .filter(|_| data.is_intact())
                    .map(|l| (ppa, oob.seq, l))
            })
            .collect();
        for (ppa, seq, lba) in candidates {
            let readable = matches!(
                array.read(ppa, rng),
                ReadOutcome::Ok { data, .. } if data.is_intact()
            );
            if !readable {
                continue;
            }
            let entry = newest.entry(lba).or_insert((seq, ppa));
            if seq > entry.0 {
                *entry = (seq, ppa);
            }
        }
        for (lba, (scan_seq, ppa)) in newest {
            // Adopt the scan winner only if it is at least as new as
            // whatever the journal base already maps (global seq
            // ordering; the journal page itself may be newer when the
            // scan's newest copy was destroyed).
            let base_seq = map
                .lookup(lba)
                .and_then(|base_ppa| match array.read(base_ppa, rng) {
                    ReadOutcome::Ok { oob, .. } => Some(oob.seq),
                    _ => None,
                });
            if base_seq.is_none_or(|b| scan_seq >= b) {
                map.update(lba, ppa);
                stats.scan_adoptions += 1;
            }
        }
    }
    stats.map_entries = map.len() as u64;
    let ftl = Ftl::from_rebuilt_map(
        config,
        map,
        durable.len() as u64,
        checkpoints.len() as u64,
        array,
    );
    (ftl, stats)
}

/// The replay memo [`mapping_rebuild`] may start from: only over an
/// empty base, and only when the accepted batches cover its prefix.
fn usable_memo<'a>(durable: &'a DurableLog, scan: &JournalScanOutcome) -> Option<&'a ReplayMemo> {
    if scan.map.is_empty() {
        durable.memo_covering(&scan.batches)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checkpoint::Checkpoint;
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

    fn write_and_commit(
        array: &mut FlashArray,
        ftl: &mut Ftl,
        durable: &mut DurableLog,
        lba: u64,
        tag: u64,
    ) -> Ppa {
        let slot = ftl.begin_user_write(Lba::new(lba)).unwrap();
        array
            .program(
                slot.ppa,
                PageData::from_tag(tag),
                Oob::user(Lba::new(lba), slot.seq),
            )
            .unwrap();
        ftl.finish_user_write(&slot);
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
        slot.ppa
    }

    #[test]
    fn staged_recovery_equals_monolithic_recovery() {
        // Byte-for-byte: the two-stage pipeline must rebuild the same
        // mapping, report the same stats, and consume the same number of
        // RNG draws as `Ftl::recover_with_stats` (which now delegates to
        // it — this guards the delegation against drift).
        let (mut array, mut ftl, mut durable, _) = setup();
        for (lba, tag) in [(1u64, 1u64), (9, 2), (3, 3)] {
            write_and_commit(&mut array, &mut ftl, &mut durable, lba, tag);
        }
        let store = CheckpointStore::new();
        let config = *ftl.config();

        let mut array_a = array.clone();
        let mut rng_a = DetRng::new(77);
        let (mono, mono_stats) =
            Ftl::recover_with_stats(config, &mut array_a, &durable, &store, &mut rng_a);

        let mut array_b = array.clone();
        let mut rng_b = DetRng::new(77);
        let scan = journal_scan(&config, &mut array_b, &durable, &store, &mut rng_b);
        let (staged, staged_stats) =
            mapping_rebuild(config, &mut array_b, &durable, &store, &scan, &mut rng_b);

        assert_eq!(mono_stats, staged_stats);
        let a: Vec<_> = {
            let mut v: Vec<_> = mono.iter_mapped().collect();
            v.sort();
            v
        };
        let b: Vec<_> = {
            let mut v: Vec<_> = staged.iter_mapped().collect();
            v.sort();
            v
        };
        assert_eq!(a, b);
        assert_eq!(rng_a.next_u64(), rng_b.next_u64(), "same RNG draw count");
        assert_eq!(array_a.stats(), array_b.stats(), "same flash reads");
    }

    #[test]
    fn scan_outcome_survives_a_simulated_cut_between_stages() {
        // Model a power cut after stage 1: clone the outcome ("firmware
        // scratch checkpoint"), rebuild later from the clone, and get the
        // same mapping a straight-through recovery produces.
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        let p1 = write_and_commit(&mut array, &mut ftl, &mut durable, 5, 1);
        let config = *ftl.config();
        let store = CheckpointStore::new();
        let scan = journal_scan(&config, &mut array, &durable, &store, &mut rng);
        let persisted = scan.clone();
        drop(scan); // the cut: in-flight stage state is gone
        let (rebuilt, stats) =
            mapping_rebuild(config, &mut array, &durable, &store, &persisted, &mut rng);
        assert_eq!(rebuilt.lookup(Lba::new(5)), Some(p1));
        assert_eq!(stats.batches_replayed, 1);
    }

    #[test]
    fn scan_triage_filters_unreadable_tail() {
        let (mut array, mut ftl, mut durable, mut rng) = setup();
        for (lba, tag) in [(1u64, 1u64), (2, 2), (3, 3)] {
            write_and_commit(&mut array, &mut ftl, &mut durable, lba, tag);
        }
        let third_page = durable.iter().nth(2).unwrap().0;
        array.interrupt_program(third_page, 0.0, &mut rng);
        let config = *ftl.config();
        let scan = journal_scan(
            &config,
            &mut array,
            &durable,
            &CheckpointStore::new(),
            &mut rng,
        );
        assert_eq!(scan.batches.len(), 2, "unreadable third batch dropped");
        assert_eq!(scan.stats.batches_truncated, 1);
    }

    /// One device history recorded into two logs: `plain` is never
    /// frozen, `frozen` carries a replay memo from wherever the test
    /// calls [`History::freeze`].
    struct History {
        array: FlashArray,
        ftl: Ftl,
        plain: DurableLog,
        frozen: DurableLog,
        store: CheckpointStore,
    }

    impl History {
        fn new() -> Self {
            let (array, ftl, plain, _) = setup();
            History {
                array,
                ftl,
                frozen: plain.clone(),
                plain,
                store: CheckpointStore::new(),
            }
        }

        /// Writes sectors without committing their mappings.
        fn write(&mut self, lbas: &[u64], tag: u64) {
            for &lba in lbas {
                let slot = self.ftl.begin_user_write(Lba::new(lba)).unwrap();
                self.array
                    .program(
                        slot.ppa,
                        PageData::from_tag(tag ^ lba),
                        Oob::user(Lba::new(lba), slot.seq),
                    )
                    .unwrap();
                self.ftl.finish_user_write(&slot);
            }
        }

        /// Batch `b`: a two-sector extent low in the LBA space (batches
        /// overwrite each other there) and a point several stripes out,
        /// committed to both logs. `tear` persists only that many
        /// sectors of the batch.
        fn commit(&mut self, b: u64, tear: Option<u64>) {
            let low = b % 4 * 8;
            let far = 3 * crate::mapping::STRIPE_SECTORS + b * 70_001;
            self.write(&[low, low + 1, far], b);
            self.ftl.close_open_extent();
            let op = self
                .ftl
                .begin_journal_commit()
                .unwrap()
                .expect("committable");
            self.array
                .program(
                    op.page,
                    PageData::from_tag(op.batch.id),
                    Oob::journal(op.batch.id, op.seq),
                )
                .unwrap();
            for log in [&mut self.plain, &mut self.frozen] {
                match tear {
                    None => log.append(op.page, op.batch.clone()),
                    Some(kept) => log.append_torn(op.page, &op.batch, kept),
                }
            }
        }

        fn commits(&mut self, batches: std::ops::Range<u64>) {
            for b in batches {
                self.commit(b, None);
            }
        }

        fn checkpoint(&mut self) -> Ppa {
            let op = self.ftl.begin_checkpoint().unwrap();
            self.array
                .program(
                    op.page,
                    PageData::from_tag(op.checkpoint.id),
                    Oob::checkpoint(op.checkpoint.id, op.seq),
                )
                .unwrap();
            let page = op.page;
            self.ftl.finish_checkpoint(op, &mut self.store);
            page
        }

        fn freeze(&mut self) {
            let ppb = self.ftl.config().geometry.pages_per_block();
            self.frozen.freeze(ppb);
        }

        fn destroy(&mut self, page: Ppa) {
            self.array.interrupt_program(page, 0.0, &mut DetRng::new(1));
        }

        /// Recovers from both logs on identical arrays and RNG streams
        /// and asserts that everything recovery produces is equal: map
        /// contents, FTL state, stats, RNG position and flash stats.
        /// Returns the stats and whether the frozen log's memo was used.
        fn recover_both(&self, config: FtlConfig) -> (RecoveryStats, bool) {
            let run = |durable: &DurableLog| {
                let mut array = self.array.clone();
                let mut rng = DetRng::new(7);
                let scan = journal_scan(&config, &mut array, durable, &self.store, &mut rng);
                let used = usable_memo(durable, &scan).is_some();
                let (ftl, stats) =
                    mapping_rebuild(config, &mut array, durable, &self.store, &scan, &mut rng);
                let mut map: Vec<_> = ftl.iter_mapped().collect();
                map.sort();
                let flash = array.stats();
                (map, ftl.state_digest(), stats, rng.next_u64(), flash, used)
            };
            let plain = run(&self.plain);
            let frozen = run(&self.frozen);
            assert!(!plain.5, "a log that was never frozen has no memo");
            assert!(!plain.0.is_empty());
            assert_eq!(plain.0, frozen.0, "map contents");
            assert_eq!(plain.1, frozen.1, "FTL state digest");
            assert_eq!(plain.2, frozen.2, "recovery stats");
            assert_eq!(plain.3, frozen.3, "RNG position");
            assert_eq!(plain.4, frozen.4, "flash stats");
            (frozen.2, frozen.5)
        }
    }

    fn default_config() -> FtlConfig {
        *History::new().ftl.config()
    }

    #[test]
    fn memo_replaces_replay_of_a_clean_log() {
        let mut h = History::new();
        h.commits(0..8);
        h.freeze();
        let (stats, used) = h.recover_both(default_config());
        assert!(used);
        assert_eq!(stats.batches_replayed, 8, "stats still count the prefix");
    }

    #[test]
    fn memo_is_extended_by_the_batches_after_it() {
        let mut h = History::new();
        h.commits(0..5);
        h.freeze();
        h.commits(5..9);
        let (stats, used) = h.recover_both(default_config());
        assert!(used);
        assert_eq!(stats.batches_replayed, 9);
    }

    #[test]
    fn unreadable_page_inside_the_prefix_skips_the_memo() {
        let mut h = History::new();
        h.commits(0..8);
        h.freeze();
        let third = h.plain.iter().nth(2).unwrap().0;
        h.destroy(third);
        let (stats, used) = h.recover_both(default_config());
        assert!(!used);
        assert_eq!(stats.batches_truncated, 6);
    }

    #[test]
    fn torn_prefix_batch_skips_the_memo_only_when_verified() {
        let mut h = History::new();
        h.commits(0..3);
        h.commit(3, Some(1));
        h.commits(4..7);
        h.freeze();
        let mut strict = default_config();
        strict.verify_batch_crc = true;
        let (stats, used) = h.recover_both(strict);
        assert!(!used, "the verified scan stops at the tear");
        assert_eq!(stats.batches_discarded_torn, 1);
        // Half-applying firmware accepts the torn prefix, as the memo did.
        let (stats, used) = h.recover_both(default_config());
        assert!(used);
        assert_eq!(stats.batches_replayed, 7);
    }

    #[test]
    fn restored_checkpoint_skips_the_memo() {
        let mut h = History::new();
        h.commits(0..4);
        let page = h.checkpoint();
        h.commits(4..8);
        h.freeze();
        let (stats, used) = h.recover_both(default_config());
        assert!(!used);
        assert!(stats.checkpoint_restored);
        // With the checkpoint destroyed the base is empty again.
        h.destroy(page);
        let (stats, used) = h.recover_both(default_config());
        assert!(used);
        assert_eq!(stats.checkpoints_unreadable, 1);
    }

    #[test]
    fn checkpoint_before_the_first_batch_skips_the_memo() {
        // A checkpoint that folds in no batch still holds mappings: the
        // accepted batches start at record 0, but over a non-empty base.
        let mut h = History::new();
        let op = h.ftl.begin_checkpoint().unwrap();
        h.array
            .program(op.page, PageData::from_tag(1), Oob::checkpoint(0, op.seq))
            .unwrap();
        let only_in_checkpoint = (Lba::new(123_456), Ppa::new(40, 0));
        h.store.append(
            op.page,
            Checkpoint {
                id: 0,
                last_batch: None,
                entries: vec![only_in_checkpoint],
            },
        );
        h.commits(0..6);
        h.freeze();
        let (stats, used) = h.recover_both(default_config());
        assert!(!used);
        assert!(stats.checkpoint_restored);
        assert_eq!(stats.batches_replayed, 6);
    }

    #[test]
    fn full_scan_reconciles_over_the_memo() {
        let mut h = History::new();
        h.commits(0..6);
        h.freeze();
        h.write(&[2, 9, 5 * crate::mapping::STRIPE_SECTORS], 0xF00);
        let mut config = default_config();
        config.recovery_policy = RecoveryPolicy::FullScan;
        let (stats, used) = h.recover_both(config);
        assert!(used);
        assert!(stats.scan_adoptions > 0);
    }

    #[test]
    fn capture_of_a_clone_extends_the_memo() {
        let mut h = History::new();
        h.commits(0..4);
        h.freeze();
        let image_log = h.frozen.clone();
        h.commits(4..8);
        h.freeze();
        let (stats, used) = h.recover_both(default_config());
        assert!(used);
        assert_eq!(stats.batches_replayed, 8);
        // The image's own memo is untouched by its clone's capture.
        let mut array = h.array.clone();
        let mut rng = DetRng::new(7);
        let config = default_config();
        let scan = journal_scan(&config, &mut array, &image_log, &h.store, &mut rng);
        assert_eq!(scan.batches.len(), 4);
        assert!(usable_memo(&image_log, &scan).is_some_and(|m| m.batches == 4));
    }
}
