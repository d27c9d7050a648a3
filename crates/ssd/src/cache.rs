//! The volatile DRAM write-back cache.
//!
//! Writes are acknowledged the moment their sectors land here; a background
//! flusher later programs them to NAND. Everything dirty at power loss is
//! simply gone — the host holds an ACK for data the flash never saw, which
//! the Analyzer classifies as a **False Write-Acknowledge** (§III-B). The
//! paper singles this cache out as the prime suspect for post-completion
//! data loss (§IV-A) and for the FWA-dominated failures of small requests
//! (§IV-E).
//!
//! Each background flush program the cache feeds into NAND is a named
//! fault site ([`crate::sites::FaultSite::CacheFlushProgram`], recorded
//! by the device when site logging is enabled), so the boundary sweeper
//! can cut power at the start, middle, and end of every eviction it
//! schedules.

use std::collections::{BTreeSet, VecDeque};

use pfault_flash::array::PageData;
use pfault_sim::{DetHashMap, Lba, SimTime};

/// State of one cached sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// Content of the sector.
    pub data: PageData,
    /// When the sector was inserted (dirty) or last refreshed.
    pub inserted_at: SimTime,
    /// Dirty entries still owe a NAND program.
    pub dirty: bool,
    /// A flush of this entry is currently in the program pipeline.
    pub flushing: bool,
}

/// Write-back cache keyed by LBA, with FIFO dirty ordering.
///
/// # Example
///
/// ```
/// use pfault_ssd::cache::WriteCache;
/// use pfault_flash::array::PageData;
/// use pfault_sim::{Lba, SimTime};
///
/// let mut cache = WriteCache::new(100);
/// cache.insert(Lba::new(5), PageData::from_tag(1), SimTime::ZERO);
/// assert_eq!(cache.lookup(Lba::new(5)), Some(PageData::from_tag(1)));
/// assert_eq!(cache.dirty_sectors(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct WriteCache {
    capacity: u64,
    entries: DetHashMap<Lba, CacheEntry>,
    dirty_fifo: VecDeque<Lba>,
    /// Maintained count of dirty entries so pressure checks on the event
    /// path are O(1) instead of a scan over every resident sector.
    dirty_count: u64,
    /// Clean entries ordered by `(inserted_at, lba)` — the eviction
    /// order — maintained at the dirty/clean transition points so a full
    /// cache does not pay a collect-and-sort over every resident sector
    /// on each eviction (that scan dominated the trial hot path once
    /// warm-ups started filling the cache to capacity).
    clean_index: BTreeSet<(SimTime, Lba)>,
}

impl WriteCache {
    /// Creates a cache holding up to `capacity_sectors` sectors.
    ///
    /// # Panics
    ///
    /// Panics if the capacity is zero.
    pub fn new(capacity_sectors: u64) -> Self {
        assert!(capacity_sectors > 0, "cache capacity must be positive");
        WriteCache {
            capacity: capacity_sectors,
            entries: DetHashMap::default(),
            dirty_fifo: VecDeque::new(),
            dirty_count: 0,
            clean_index: BTreeSet::new(),
        }
    }

    /// Capacity in sectors.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Sectors currently resident (dirty + clean).
    pub fn resident_sectors(&self) -> u64 {
        self.entries.len() as u64
    }

    /// Sectors that still owe a NAND program.
    pub fn dirty_sectors(&self) -> u64 {
        self.dirty_count
    }

    /// Whether `n` more sectors fit (counting only resident sectors).
    pub fn has_room_for(&self, n: u64) -> bool {
        self.resident_sectors() + n <= self.capacity
    }

    /// Content of `lba` if cached.
    pub fn lookup(&self, lba: Lba) -> Option<PageData> {
        self.entries.get(&lba).map(|e| e.data)
    }

    /// Inserts (or overwrites) a sector as dirty.
    ///
    /// Overwriting a sector whose flush is in flight re-dirties it: the
    /// in-flight program will land the *old* content, and this newer
    /// version still owes its own program.
    pub fn insert(&mut self, lba: Lba, data: PageData, now: SimTime) {
        let entry = CacheEntry {
            data,
            inserted_at: now,
            dirty: true,
            flushing: false,
        };
        let prior = self.entries.insert(lba, entry);
        if let Some(p) = prior {
            if !p.dirty {
                self.clean_index.remove(&(p.inserted_at, lba));
            }
        }
        if !prior.is_some_and(|p| p.dirty) {
            self.dirty_count += 1;
        }
        match prior {
            Some(p) if p.dirty && !p.flushing => {
                // Was already queued dirty: keep its FIFO position.
            }
            _ => self.dirty_fifo.push_back(lba),
        }
    }

    /// Read-only probe for the event scheduler: insertion time of the
    /// oldest dirty, not-yet-flushing sector, skipping (but not
    /// consuming) stale FIFO slots. `None` when nothing dirty is queued.
    pub fn peek_flushable_inserted_at(&self) -> Option<SimTime> {
        self.dirty_fifo.iter().find_map(|lba| {
            let e = self.entries.get(lba)?;
            (e.dirty && !e.flushing).then_some(e.inserted_at)
        })
    }

    /// The oldest dirty, not-yet-flushing sector whose age qualifies it
    /// for flushing: either it aged past `flush_delay`, or the cache is
    /// under pressure.
    pub fn next_flushable(
        &mut self,
        now: SimTime,
        flush_delay: pfault_sim::SimDuration,
        pressure_watermark: f64,
    ) -> Option<(Lba, PageData)> {
        let under_pressure =
            self.dirty_sectors() as f64 >= self.capacity as f64 * pressure_watermark;
        // Pop stale FIFO entries (overwritten or already flushed).
        while let Some(&lba) = self.dirty_fifo.front() {
            let Some(entry) = self.entries.get(&lba) else {
                self.dirty_fifo.pop_front();
                continue;
            };
            if !entry.dirty || entry.flushing {
                self.dirty_fifo.pop_front();
                continue;
            }
            let old_enough = now.saturating_since(entry.inserted_at) >= flush_delay;
            if !(old_enough || under_pressure) {
                return None; // FIFO head too young and no pressure
            }
            self.dirty_fifo.pop_front();
            let entry = self.entries.get_mut(&lba).expect("entry checked above");
            entry.flushing = true;
            return Some((lba, entry.data));
        }
        None
    }

    /// Marks a flushed sector clean, unless it was re-dirtied while its
    /// program was in flight.
    pub fn flush_complete(&mut self, lba: Lba, flushed: PageData) {
        if let Some(entry) = self.entries.get_mut(&lba) {
            if entry.data == flushed {
                if entry.dirty {
                    self.dirty_count -= 1;
                }
                self.clean_index.insert((entry.inserted_at, lba));
                entry.dirty = false;
                entry.flushing = false;
            } else {
                // Re-dirtied during the flush: the newer content still owes
                // a program; it is already queued in the FIFO.
                entry.flushing = false;
            }
        }
    }

    /// Abandons an in-flight flush (power loss interrupted the program).
    /// The entry returns to the head of the dirty queue.
    pub fn flush_aborted(&mut self, lba: Lba) {
        if let Some(entry) = self.entries.get_mut(&lba) {
            if entry.flushing {
                entry.flushing = false;
                if entry.dirty {
                    self.dirty_fifo.push_front(lba);
                }
            }
        }
    }

    /// Drops a sector entirely (TRIM): dirty or clean, it no longer
    /// exists from the host's point of view.
    pub fn invalidate(&mut self, lba: Lba) {
        if let Some(e) = self.entries.remove(&lba) {
            if e.dirty {
                self.dirty_count -= 1;
            } else {
                self.clean_index.remove(&(e.inserted_at, lba));
            }
        }
        // A stale FIFO slot is skipped lazily by next_flushable.
    }

    /// Evicts clean sectors to make room, oldest first. Returns how many
    /// were evicted (dirty sectors are never evicted).
    pub fn evict_clean(&mut self, want_room_for: u64) -> u64 {
        let mut evicted = 0;
        while !self.has_room_for(want_room_for) {
            let Some(&(at, lba)) = self.clean_index.first() else {
                break;
            };
            self.clean_index.remove(&(at, lba));
            debug_assert!(
                self.entries
                    .get(&lba)
                    .is_some_and(|e| !e.dirty && !e.flushing),
                "clean index out of sync at {lba:?}"
            );
            self.entries.remove(&lba);
            evicted += 1;
        }
        evicted
    }

    /// All dirty sectors (supercap panic flush / loss accounting).
    pub fn dirty_entries(&self) -> Vec<(Lba, PageData)> {
        let mut v: Vec<(Lba, PageData)> = self
            .entries
            .iter()
            .filter(|(_, e)| e.dirty)
            .map(|(&l, e)| (l, e.data))
            .collect();
        v.sort_by_key(|(l, _)| *l);
        v
    }

    /// Drops everything (power loss).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.dirty_fifo.clear();
        self.dirty_count = 0;
        self.clean_index.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::SimDuration;

    const NO_DELAY: SimDuration = SimDuration::ZERO;

    fn data(tag: u64) -> PageData {
        PageData::from_tag(tag)
    }

    #[test]
    fn insert_lookup_dirty_accounting() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        c.insert(Lba::new(2), data(2), SimTime::ZERO);
        assert_eq!(c.lookup(Lba::new(1)), Some(data(1)));
        assert_eq!(c.lookup(Lba::new(9)), None);
        assert_eq!(c.dirty_sectors(), 2);
        assert_eq!(c.resident_sectors(), 2);
    }

    #[test]
    fn flushable_order_is_fifo() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(5), data(5), SimTime::from_millis(1));
        c.insert(Lba::new(3), data(3), SimTime::from_millis(2));
        let now = SimTime::from_millis(100);
        assert_eq!(
            c.next_flushable(now, NO_DELAY, 1.0),
            Some((Lba::new(5), data(5)))
        );
        assert_eq!(
            c.next_flushable(now, NO_DELAY, 1.0),
            Some((Lba::new(3), data(3)))
        );
        assert_eq!(c.next_flushable(now, NO_DELAY, 1.0), None);
    }

    #[test]
    fn flush_delay_holds_young_entries() {
        let mut c = WriteCache::new(100);
        c.insert(Lba::new(1), data(1), SimTime::from_millis(10));
        let delay = SimDuration::from_millis(200);
        assert_eq!(
            c.next_flushable(SimTime::from_millis(100), delay, 1.0),
            None
        );
        assert!(c
            .next_flushable(SimTime::from_millis(210), delay, 1.0)
            .is_some());
    }

    #[test]
    fn pressure_overrides_delay() {
        let mut c = WriteCache::new(4);
        for i in 0..3 {
            c.insert(Lba::new(i), data(i), SimTime::ZERO);
        }
        // 3/4 dirty ≥ 0.5 watermark → flush despite the huge delay.
        let flushed = c.next_flushable(SimTime::ZERO, SimDuration::from_secs(999), 0.5);
        assert!(flushed.is_some());
    }

    #[test]
    fn flush_complete_cleans_entry() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        let (lba, d) = c.next_flushable(SimTime::ZERO, NO_DELAY, 1.0).unwrap();
        c.flush_complete(lba, d);
        assert_eq!(c.dirty_sectors(), 0);
        assert_eq!(c.lookup(Lba::new(1)), Some(data(1))); // stays resident clean
    }

    #[test]
    fn overwrite_during_flight_keeps_entry_dirty() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        let (lba, old) = c.next_flushable(SimTime::ZERO, NO_DELAY, 1.0).unwrap();
        // Host overwrites while the program is in flight.
        c.insert(Lba::new(1), data(2), SimTime::from_millis(1));
        c.flush_complete(lba, old);
        assert_eq!(c.dirty_sectors(), 1, "newer version still owes a program");
        let again = c.next_flushable(SimTime::from_millis(2), NO_DELAY, 1.0);
        assert_eq!(again, Some((Lba::new(1), data(2))));
    }

    #[test]
    fn overwrite_of_queued_dirty_does_not_duplicate() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        c.insert(Lba::new(1), data(2), SimTime::ZERO);
        assert_eq!(c.dirty_sectors(), 1);
        assert!(c.next_flushable(SimTime::ZERO, NO_DELAY, 1.0).is_some());
        assert!(c.next_flushable(SimTime::ZERO, NO_DELAY, 1.0).is_none());
    }

    #[test]
    fn evict_clean_frees_room_but_spares_dirty() {
        let mut c = WriteCache::new(3);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        c.insert(Lba::new(2), data(2), SimTime::ZERO);
        let (l, d) = c.next_flushable(SimTime::ZERO, NO_DELAY, 1.0).unwrap();
        c.flush_complete(l, d); // lba 1 now clean
        c.insert(Lba::new(3), data(3), SimTime::ZERO);
        assert!(!c.has_room_for(1));
        let evicted = c.evict_clean(1);
        assert_eq!(evicted, 1);
        assert!(c.has_room_for(1));
        assert_eq!(c.lookup(Lba::new(1)), None);
        assert_eq!(c.dirty_sectors(), 2);
    }

    #[test]
    fn clear_models_power_loss() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        assert_eq!(c.dirty_entries().len(), 1);
        c.clear();
        assert_eq!(c.resident_sectors(), 0);
        assert!(c.dirty_entries().is_empty());
    }

    #[test]
    fn flush_aborted_requeues_nothing_but_clears_flag() {
        let mut c = WriteCache::new(10);
        c.insert(Lba::new(1), data(1), SimTime::ZERO);
        let (lba, _) = c.next_flushable(SimTime::ZERO, NO_DELAY, 1.0).unwrap();
        c.flush_aborted(lba);
        // Entry is dirty again but its FIFO slot was consumed; dirty
        // accounting still sees it.
        assert_eq!(c.dirty_sectors(), 1);
    }
}
