//! Mapping journal: volatile buffer, batches, and the durable log.
//!
//! Every mapping update enters the volatile [`JournalBuffer`]. Point
//! entries (and *closed* extents) are committable; the currently-growing
//! extent of a sequential run is **not** — it stays volatile until the run
//! breaks or hits the configured length cap. A commit drains committable
//! entries into a [`JournalBatch`], which the device writes to a flash
//! journal page; only then does the batch enter the [`DurableLog`] that
//! power-loss recovery replays.
//!
//! The set of LBAs covered by entries still in the buffer at the instant of
//! a power fault is exactly the set that reverts to stale mappings — the
//! "data loss after request completion" population of §IV-A.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pfault_flash::geometry::Ppa;
use pfault_sim::{checksum, Lba};

use crate::mapping::MappingTable;

/// One mapping-journal record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum JournalEntry {
    /// A single-sector mapping.
    Point {
        /// Logical sector.
        lba: Lba,
        /// Its new physical page.
        ppa: Ppa,
    },
    /// A run of `len` consecutive sectors mapped to `len` consecutive
    /// pages starting at `ppa_start` (the §IV-D "first address only"
    /// compression).
    Extent {
        /// First logical sector of the run.
        lba_start: Lba,
        /// First physical page of the run.
        ppa_start: Ppa,
        /// Run length in sectors.
        len: u64,
    },
    /// A TRIM: the sector's mapping was discarded.
    Trim {
        /// Trimmed logical sector.
        lba: Lba,
    },
}

impl JournalEntry {
    /// Number of sectors this entry maps.
    pub fn coverage(&self) -> u64 {
        match self {
            JournalEntry::Point { .. } | JournalEntry::Trim { .. } => 1,
            JournalEntry::Extent { len, .. } => *len,
        }
    }

    /// Iterates the `(lba, ppa)` pairs this entry encodes. Extents follow
    /// physical allocation order, wrapping into the next block after
    /// `pages_per_block` pages (run-compressed mapping spans blocks that
    /// were allocated consecutively).
    pub fn pairs(&self, pages_per_block: u64) -> Vec<(Lba, Ppa)> {
        match *self {
            JournalEntry::Point { lba, ppa } => vec![(lba, ppa)],
            JournalEntry::Trim { .. } => Vec::new(),
            JournalEntry::Extent {
                lba_start,
                ppa_start,
                len,
            } => (0..len)
                .map(|i| {
                    let flat = ppa_start.block * pages_per_block + ppa_start.page + i;
                    (
                        Lba::new(lba_start.index() + i),
                        Ppa::new(flat / pages_per_block, flat % pages_per_block),
                    )
                })
                .collect(),
        }
    }

    /// Appends this entry's canonical byte encoding to `buf` (the input to
    /// the batch CRC). The encoding is versioned by discriminant byte and
    /// must stay stable: the stored CRC of every durable batch depends on
    /// it.
    fn encode_into(&self, buf: &mut Vec<u8>) {
        match *self {
            JournalEntry::Point { lba, ppa } => {
                buf.push(0);
                buf.extend_from_slice(&lba.index().to_le_bytes());
                buf.extend_from_slice(&ppa.block.to_le_bytes());
                buf.extend_from_slice(&ppa.page.to_le_bytes());
            }
            JournalEntry::Extent {
                lba_start,
                ppa_start,
                len,
            } => {
                buf.push(1);
                buf.extend_from_slice(&lba_start.index().to_le_bytes());
                buf.extend_from_slice(&ppa_start.block.to_le_bytes());
                buf.extend_from_slice(&ppa_start.page.to_le_bytes());
                buf.extend_from_slice(&len.to_le_bytes());
            }
            JournalEntry::Trim { lba } => {
                buf.push(2);
                buf.extend_from_slice(&lba.index().to_le_bytes());
            }
        }
    }
}

/// A committed (or about-to-commit) group of journal entries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalBatch {
    /// Monotonic batch identifier.
    pub id: u64,
    /// Entries in commit order.
    pub entries: Vec<JournalEntry>,
}

impl JournalBatch {
    /// Total sectors mapped by this batch.
    pub fn coverage(&self) -> u64 {
        self.entries.iter().map(JournalEntry::coverage).sum()
    }

    /// CRC-32 (IEEE) over the batch id and the canonical encoding of every
    /// entry. The device stores this checksum alongside the batch when the
    /// journal page program completes; a torn program persists the full
    /// batch's CRC over a *prefix* of the entries, so recovery detects the
    /// tear by recomputing the CRC over what actually survived.
    pub fn crc(&self) -> u32 {
        let mut buf = Vec::with_capacity(8 + self.entries.len() * 25);
        buf.extend_from_slice(&self.id.to_le_bytes());
        for e in &self.entries {
            e.encode_into(&mut buf);
        }
        checksum::crc32(&buf)
    }

    /// Applies every entry of this batch to `map` in commit order: `Trim`
    /// removes the mapping, `Point`/`Extent` install their `(lba, ppa)`
    /// pairs. This is the single replay primitive shared by FTL recovery
    /// and the sweep oracle's reference replay.
    pub fn apply_to(&self, map: &mut MappingTable, pages_per_block: u64) {
        for entry in &self.entries {
            if let JournalEntry::Trim { lba } = *entry {
                map.remove(lba);
            } else {
                for (lba, ppa) in entry.pairs(pages_per_block) {
                    map.update(lba, ppa);
                }
            }
        }
    }

    /// Returns the batch truncated to its first `sectors` sectors of
    /// coverage — what survives of a torn journal write. The boundary
    /// extent is split mid-run; a zero budget yields an empty batch.
    pub fn torn_prefix(&self, sectors: u64) -> JournalBatch {
        let mut budget = sectors;
        let mut entries = Vec::new();
        for e in &self.entries {
            if budget == 0 {
                break;
            }
            let cov = e.coverage();
            if cov <= budget {
                entries.push(*e);
                budget -= cov;
            } else {
                if let JournalEntry::Extent {
                    lba_start,
                    ppa_start,
                    ..
                } = *e
                {
                    entries.push(if budget == 1 {
                        JournalEntry::Point {
                            lba: lba_start,
                            ppa: ppa_start,
                        }
                    } else {
                        JournalEntry::Extent {
                            lba_start,
                            ppa_start,
                            len: budget,
                        }
                    });
                }
                break;
            }
        }
        JournalBatch {
            id: self.id,
            entries,
        }
    }
}

/// The volatile journal buffer inside controller RAM.
#[derive(Debug, Clone, Default)]
pub struct JournalBuffer {
    pending: Vec<JournalEntry>,
    open: Option<OpenExtent>,
}

#[derive(Debug, Clone, Copy)]
struct OpenExtent {
    lba_start: Lba,
    ppa_start: Ppa,
    len: u64,
}

impl OpenExtent {
    fn entry(self) -> JournalEntry {
        if self.len == 1 {
            JournalEntry::Point {
                lba: self.lba_start,
                ppa: self.ppa_start,
            }
        } else {
            JournalEntry::Extent {
                lba_start: self.lba_start,
                ppa_start: self.ppa_start,
                len: self.len,
            }
        }
    }

    fn extends(&self, lba: Lba, ppa: Ppa, pages_per_block: u64) -> bool {
        let next_flat = self.ppa_start.block * pages_per_block + self.ppa_start.page + self.len;
        lba.index() == self.lba_start.index() + self.len
            && ppa.block * pages_per_block + ppa.page == next_flat
    }
}

impl JournalBuffer {
    /// Creates an empty buffer.
    pub fn new() -> Self {
        JournalBuffer::default()
    }

    /// Records a mapping update.
    ///
    /// With `extent_mapping`, consecutive updates merge into a growing open
    /// extent, force-closed at `max_extent_len`. Without it, every update
    /// is an immediately-committable point entry.
    pub fn record(
        &mut self,
        lba: Lba,
        ppa: Ppa,
        extent_mapping: bool,
        max_extent_len: u64,
        pages_per_block: u64,
    ) {
        if !extent_mapping {
            self.pending.push(JournalEntry::Point { lba, ppa });
            return;
        }
        match self.open {
            Some(ref mut open) if open.extends(lba, ppa, pages_per_block) => {
                open.len += 1;
                if open.len >= max_extent_len {
                    let closed = open.entry();
                    self.pending.push(closed);
                    self.open = None;
                }
            }
            Some(open) => {
                self.pending.push(open.entry());
                self.open = Some(OpenExtent {
                    lba_start: lba,
                    ppa_start: ppa,
                    len: 1,
                });
            }
            None => {
                self.open = Some(OpenExtent {
                    lba_start: lba,
                    ppa_start: ppa,
                    len: 1,
                });
            }
        }
    }

    /// Records a TRIM of `lba`: closes any open extent (the run is
    /// broken) and queues a committable trim entry.
    pub fn record_trim(&mut self, lba: Lba) {
        self.close_open();
        self.pending.push(JournalEntry::Trim { lba });
    }

    /// Number of committable (closed) entries.
    pub fn committable_len(&self) -> usize {
        self.pending.len()
    }

    /// Total sectors covered by *all* volatile state (closed + open) —
    /// the population lost to a power fault right now.
    pub fn volatile_coverage(&self) -> u64 {
        self.pending.iter().map(JournalEntry::coverage).sum::<u64>()
            + self.open.map_or(0, |o| o.len)
    }

    /// Sectors covered by the open (uncommittable) extent only.
    pub fn open_coverage(&self) -> u64 {
        self.open.map_or(0, |o| o.len)
    }

    /// Drains the committable entries (the open extent stays behind).
    pub fn drain_committable(&mut self) -> Vec<JournalEntry> {
        std::mem::take(&mut self.pending)
    }

    /// Force-closes the open extent, making it committable (used on clean
    /// flush / brownout race).
    pub fn close_open(&mut self) {
        if let Some(open) = self.open.take() {
            self.pending.push(open.entry());
        }
    }

    /// Discards everything (power loss).
    pub fn clear(&mut self) {
        self.pending.clear();
        self.open = None;
    }

    /// Whether there is nothing volatile at all.
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty() && self.open.is_none()
    }
}

/// One record of the durable journal: the entries that made it to flash,
/// the page backing them, and the CRC the device wrote with them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableBatch {
    /// Flash journal page backing this batch.
    pub page: Ppa,
    /// The entries that actually persisted (a torn program persists only a
    /// prefix of the committed batch).
    pub batch: JournalBatch,
    /// The CRC stored in the journal page — always the CRC of the *full*
    /// committed batch, so it mismatches `batch.crc()` exactly when the
    /// program was torn.
    pub stored_crc: u32,
}

impl DurableBatch {
    /// Whether the stored CRC matches the entries that survived — false
    /// exactly for torn (partially-programmed) batches.
    pub fn crc_ok(&self) -> bool {
        self.batch.crc() == self.stored_crc
    }
}

/// The durable journal: batches whose journal page program completed.
///
/// This models the *contents* of the flash journal pages; durability of
/// each batch is decided by the device layer (the batch is appended only
/// after its journal page program completes). Each batch remembers which
/// flash page backs it, so recovery can verify the page is still readable,
/// and the CRC the device stored with it, so recovery can detect torn
/// (partially-programmed) batches.
///
/// The log is append-only, so a replay of its first `n` records never
/// goes stale. [`DurableLog::freeze`] (called when a device is captured
/// into an image) stores that replay as a frozen replay memo, and
/// every clone of the log shares it: recovery that accepts the whole
/// memoized prefix starts from the memo instead of replaying it again.
#[derive(Debug, Clone, Default)]
pub struct DurableLog {
    batches: Vec<DurableBatch>,
    memo: Option<Arc<ReplayMemo>>,
}

/// The mapping an empty table reaches by applying the log's first
/// `batches` records in commit order, frozen so clones share its stripes.
#[derive(Debug)]
pub(crate) struct ReplayMemo {
    /// Length of the memoized prefix, in records.
    pub(crate) batches: usize,
    /// The replayed (frozen) table.
    pub(crate) table: MappingTable,
}

impl DurableLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        DurableLog::default()
    }

    /// Appends a fully-programmed batch backed by journal page `page`. The
    /// stored CRC is the batch's own CRC: recovery will accept it.
    pub fn append(&mut self, page: Ppa, batch: JournalBatch) {
        let crc = batch.crc();
        self.append_with_crc(page, batch, crc);
    }

    /// Appends the torn prefix of `full`: only the first `kept_sectors`
    /// sectors of coverage persisted, but the page carries the *full*
    /// batch's CRC (the checksum field is written with the header, the
    /// entries stream in behind it). Recovery recomputes the CRC over the
    /// surviving entries and sees the mismatch.
    pub fn append_torn(&mut self, page: Ppa, full: &JournalBatch, kept_sectors: u64) {
        self.append_with_crc(page, full.torn_prefix(kept_sectors), full.crc());
    }

    /// # Panics
    ///
    /// Panics if batch ids are not strictly increasing: recovery's
    /// checkpoint skip and the replay memo's prefix both rely on it.
    fn append_with_crc(&mut self, page: Ppa, batch: JournalBatch, stored_crc: u32) {
        assert!(
            self.batches.last().is_none_or(|d| d.batch.id < batch.id),
            "batch ids must be monotonic"
        );
        self.batches.push(DurableBatch {
            page,
            batch,
            stored_crc,
        });
    }

    /// Iterates batches in commit order with their backing pages.
    pub fn iter(&self) -> impl Iterator<Item = (Ppa, &JournalBatch)> + '_ {
        self.batches.iter().map(|d| (d.page, &d.batch))
    }

    /// Iterates the full durable records (page, batch, stored CRC) in
    /// commit order — what CRC-aware recovery and the sweep oracle read.
    pub fn iter_records(&self) -> impl Iterator<Item = &DurableBatch> + '_ {
        self.batches.iter()
    }

    /// Number of durable batches.
    pub fn len(&self) -> usize {
        self.batches.len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self) -> bool {
        self.batches.is_empty()
    }

    /// Freezes the replay of every record so far into the log's replay
    /// memo. A log that already carries a memo (a clone of a captured
    /// device's log) extends it by the records appended since, sharing
    /// the stripes those records did not touch. Replay applies each
    /// record's surviving entries exactly as recovery does; whether
    /// recovery may start from the memo is decided per mount.
    pub fn freeze(&mut self, pages_per_block: u64) {
        let (mut table, from) = match self.memo.as_deref() {
            Some(memo) if memo.batches == self.batches.len() => return,
            Some(memo) => (memo.table.clone(), memo.batches),
            None if self.batches.is_empty() => return,
            None => (MappingTable::new(), 0),
        };
        for record in &self.batches[from..] {
            record.batch.apply_to(&mut table, pages_per_block);
        }
        table.freeze();
        self.memo = Some(Arc::new(ReplayMemo {
            batches: self.batches.len(),
            table,
        }));
    }

    /// The replay memo, if `accepted` — batches recovery accepted from a
    /// contiguous run of this log — starts at the first record and covers
    /// the whole memoized prefix. Ids strictly increase, so the run starts
    /// at record 0 exactly when its entry at the memo's last index carries
    /// that record's id.
    pub(crate) fn memo_covering(&self, accepted: &[JournalBatch]) -> Option<&ReplayMemo> {
        let memo = self.memo.as_deref()?;
        let last = memo.batches - 1;
        let covered = accepted.get(last)?.id == self.batches[last].batch.id;
        covered.then_some(memo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lba(i: u64) -> Lba {
        Lba::new(i)
    }

    #[test]
    fn point_mode_entries_commit_immediately() {
        let mut b = JournalBuffer::new();
        b.record(lba(1), Ppa::new(0, 0), false, 64, 256);
        b.record(lba(2), Ppa::new(0, 1), false, 64, 256);
        assert_eq!(b.committable_len(), 2);
        assert_eq!(b.open_coverage(), 0);
    }

    #[test]
    fn sequential_run_stays_open() {
        let mut b = JournalBuffer::new();
        for i in 0..10 {
            b.record(lba(100 + i), Ppa::new(3, i), true, 64, 256);
        }
        // Whole run is one open extent: nothing committable.
        assert_eq!(b.committable_len(), 0);
        assert_eq!(b.open_coverage(), 10);
        assert_eq!(b.volatile_coverage(), 10);
    }

    #[test]
    fn run_break_closes_extent() {
        let mut b = JournalBuffer::new();
        b.record(lba(1), Ppa::new(0, 0), true, 64, 256);
        b.record(lba(2), Ppa::new(0, 1), true, 64, 256);
        b.record(lba(50), Ppa::new(0, 2), true, 64, 256); // break
        assert_eq!(b.committable_len(), 1);
        let drained = b.drain_committable();
        assert_eq!(
            drained,
            vec![JournalEntry::Extent {
                lba_start: lba(1),
                ppa_start: Ppa::new(0, 0),
                len: 2
            }]
        );
        assert_eq!(b.open_coverage(), 1); // lba 50 still open
    }

    #[test]
    fn physical_discontinuity_breaks_run() {
        let mut b = JournalBuffer::new();
        b.record(lba(1), Ppa::new(0, 0), true, 64, 256);
        // Logically consecutive but physically in another block.
        b.record(lba(2), Ppa::new(1, 0), true, 64, 256);
        assert_eq!(b.committable_len(), 1);
    }

    #[test]
    fn max_extent_len_forces_close() {
        let mut b = JournalBuffer::new();
        for i in 0..8 {
            b.record(lba(i), Ppa::new(0, i), true, 4, 256);
        }
        // Two closed extents of 4, nothing open.
        assert_eq!(b.committable_len(), 2);
        assert_eq!(b.open_coverage(), 0);
    }

    #[test]
    fn single_update_closes_as_point() {
        let mut b = JournalBuffer::new();
        b.record(lba(9), Ppa::new(2, 5), true, 64, 256);
        b.close_open();
        assert_eq!(
            b.drain_committable(),
            vec![JournalEntry::Point {
                lba: lba(9),
                ppa: Ppa::new(2, 5)
            }]
        );
        assert!(b.is_empty());
    }

    #[test]
    fn clear_models_power_loss() {
        let mut b = JournalBuffer::new();
        b.record(lba(1), Ppa::new(0, 0), true, 64, 256);
        b.record(lba(5), Ppa::new(0, 1), true, 64, 256);
        assert!(!b.is_empty());
        b.clear();
        assert!(b.is_empty());
        assert_eq!(b.volatile_coverage(), 0);
    }

    #[test]
    fn entry_pairs_expand_extents() {
        let e = JournalEntry::Extent {
            lba_start: lba(10),
            ppa_start: Ppa::new(2, 4),
            len: 3,
        };
        assert_eq!(e.coverage(), 3);
        assert_eq!(
            e.pairs(256),
            vec![
                (lba(10), Ppa::new(2, 4)),
                (lba(11), Ppa::new(2, 5)),
                (lba(12), Ppa::new(2, 6)),
            ]
        );
    }

    #[test]
    fn durable_log_appends_in_order() {
        let mut log = DurableLog::new();
        log.append(
            Ppa::new(9, 0),
            JournalBatch {
                id: 1,
                entries: vec![],
            },
        );
        log.append(
            Ppa::new(9, 1),
            JournalBatch {
                id: 2,
                entries: vec![JournalEntry::Point {
                    lba: lba(1),
                    ppa: Ppa::new(0, 0),
                }],
            },
        );
        assert_eq!(log.len(), 2);
        let ids: Vec<u64> = log.iter().map(|(_, b)| b.id).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(log.iter().nth(1).unwrap().1.coverage(), 1);
    }

    #[test]
    #[should_panic(expected = "batch ids must be monotonic")]
    fn durable_log_rejects_out_of_order_ids() {
        let mut log = DurableLog::new();
        for id in [2, 1] {
            log.append(
                Ppa::new(9, id),
                JournalBatch {
                    id,
                    entries: vec![],
                },
            );
        }
    }

    #[test]
    fn crc_is_stable_and_sensitive() {
        let batch = JournalBatch {
            id: 3,
            entries: vec![
                JournalEntry::Point {
                    lba: lba(1),
                    ppa: Ppa::new(0, 0),
                },
                JournalEntry::Trim { lba: lba(2) },
            ],
        };
        assert_eq!(batch.crc(), batch.clone().crc());
        let mut truncated = batch.clone();
        truncated.entries.pop();
        assert_ne!(
            batch.crc(),
            truncated.crc(),
            "dropping an entry must change the CRC"
        );
        let mut renumbered = batch.clone();
        renumbered.id = 4;
        assert_ne!(
            batch.crc(),
            renumbered.crc(),
            "the id is covered by the CRC"
        );
    }

    #[test]
    fn torn_append_stores_full_batch_crc() {
        let full = JournalBatch {
            id: 1,
            entries: vec![JournalEntry::Extent {
                lba_start: lba(10),
                ppa_start: Ppa::new(2, 0),
                len: 8,
            }],
        };
        let mut log = DurableLog::new();
        log.append_torn(Ppa::new(9, 0), &full, 3);
        let rec = log.iter_records().next().unwrap();
        assert_eq!(rec.batch.coverage(), 3);
        assert_eq!(rec.stored_crc, full.crc());
        assert!(!rec.crc_ok(), "a torn batch must fail its CRC check");

        // A tear that happens to keep every sector is indistinguishable
        // from a complete program — and passes.
        let mut log2 = DurableLog::new();
        log2.append_torn(Ppa::new(9, 1), &full, 8);
        assert!(log2.iter_records().next().unwrap().crc_ok());
    }

    #[test]
    fn intact_append_passes_crc() {
        let mut log = DurableLog::new();
        log.append(
            Ppa::new(9, 0),
            JournalBatch {
                id: 1,
                entries: vec![JournalEntry::Point {
                    lba: lba(4),
                    ppa: Ppa::new(1, 1),
                }],
            },
        );
        assert!(log.iter_records().all(DurableBatch::crc_ok));
    }

    #[test]
    fn apply_to_handles_all_entry_kinds() {
        let mut map = MappingTable::new();
        let batch = JournalBatch {
            id: 0,
            entries: vec![
                JournalEntry::Extent {
                    lba_start: lba(10),
                    ppa_start: Ppa::new(0, 254),
                    len: 4, // wraps into block 1
                },
                JournalEntry::Point {
                    lba: lba(10),
                    ppa: Ppa::new(5, 0),
                },
                JournalEntry::Trim { lba: lba(11) },
            ],
        };
        batch.apply_to(&mut map, 256);
        assert_eq!(
            map.lookup(lba(10)),
            Some(Ppa::new(5, 0)),
            "later entries win"
        );
        assert_eq!(map.lookup(lba(11)), None, "trim removes");
        assert_eq!(
            map.lookup(lba(12)),
            Some(Ppa::new(1, 0)),
            "extent wrapped blocks"
        );
        assert_eq!(map.lookup(lba(13)), Some(Ppa::new(1, 1)));
    }

    #[test]
    fn batch_coverage_sums_entries() {
        let batch = JournalBatch {
            id: 7,
            entries: vec![
                JournalEntry::Point {
                    lba: lba(1),
                    ppa: Ppa::new(0, 0),
                },
                JournalEntry::Extent {
                    lba_start: lba(10),
                    ppa_start: Ppa::new(1, 0),
                    len: 5,
                },
            ],
        };
        assert_eq!(batch.coverage(), 6);
    }
}
