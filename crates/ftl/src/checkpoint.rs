//! Mapping-table checkpoints.
//!
//! Replaying the journal from device birth is unbounded; real FTLs
//! periodically persist a full snapshot of the mapping table and truncate
//! the journal to batches newer than the snapshot. A [`Checkpoint`] is the
//! logical content of such a snapshot; [`CheckpointStore`] models the
//! flash-resident checkpoint area (contents keyed by the page that backs
//! them, so recovery can verify readability exactly as it does for journal
//! pages).
//!
//! Checkpoints interact with power faults the same way journal batches do:
//! a checkpoint whose page program was interrupted never becomes the
//! recovery base, and recovery falls back to the previous one plus a
//! longer journal replay.

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use pfault_flash::geometry::Ppa;
use pfault_sim::Lba;

use crate::mapping::MappingTable;

/// A full snapshot of the logical-to-physical map.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Checkpoint {
    /// Monotonic checkpoint identifier.
    pub id: u64,
    /// Identifier of the last journal batch folded into this snapshot.
    /// Recovery replays only batches with a larger id.
    pub last_batch: Option<u64>,
    /// The mapping entries, sorted by LBA for determinism.
    pub entries: Vec<(Lba, Ppa)>,
}

impl Checkpoint {
    /// Captures a snapshot of `map`.
    pub fn capture(id: u64, last_batch: Option<u64>, map: &MappingTable) -> Self {
        let mut entries: Vec<(Lba, Ppa)> = map.iter().collect();
        entries.sort_by_key(|(l, _)| *l);
        Checkpoint {
            id,
            last_batch,
            entries,
        }
    }

    /// Rebuilds a mapping table from this snapshot.
    pub fn restore(&self) -> MappingTable {
        let mut map = MappingTable::new();
        for &(lba, ppa) in &self.entries {
            map.update(lba, ppa);
        }
        map
    }

    /// Number of mapped sectors in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot maps nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Flash-resident checkpoint area: snapshots keyed by their backing page.
///
/// Checkpoints are immutable once appended, so the store holds them
/// behind [`Arc`]s: cloning a store (every copy-on-write trial clone
/// carries one) shares the snapshot payloads instead of deep-copying
/// mapping-table-sized entry vectors.
#[derive(Debug, Clone, Default)]
pub struct CheckpointStore {
    checkpoints: Vec<(Ppa, Arc<Checkpoint>)>,
}

impl CheckpointStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        CheckpointStore::default()
    }

    /// Appends a durable checkpoint backed by `page`.
    ///
    /// # Panics
    ///
    /// Panics if checkpoint ids are not monotonic.
    pub fn append(&mut self, page: Ppa, checkpoint: Checkpoint) {
        assert!(
            self.checkpoints
                .last()
                .is_none_or(|(_, c)| c.id < checkpoint.id),
            "checkpoint ids must be monotonic"
        );
        self.checkpoints.push((page, Arc::new(checkpoint)));
    }

    /// The newest checkpoint and its backing page, if any.
    pub fn latest(&self) -> Option<(Ppa, &Checkpoint)> {
        self.checkpoints.last().map(|(p, c)| (*p, c.as_ref()))
    }

    /// Iterates checkpoints newest-first (recovery tries them in this
    /// order, falling back when a backing page is unreadable).
    pub fn iter_newest_first(&self) -> impl Iterator<Item = (Ppa, &Checkpoint)> + '_ {
        self.checkpoints.iter().rev().map(|(p, c)| (*p, c.as_ref()))
    }

    /// Number of checkpoints retained.
    pub fn len(&self) -> usize {
        self.checkpoints.len()
    }

    /// Whether no checkpoint exists yet.
    pub fn is_empty(&self) -> bool {
        self.checkpoints.is_empty()
    }

    /// Drops all but the newest `keep` checkpoints (space reclamation).
    pub fn prune(&mut self, keep: usize) {
        if self.checkpoints.len() > keep {
            let drop = self.checkpoints.len() - keep;
            self.checkpoints.drain(..drop);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map_with(n: u64) -> MappingTable {
        let mut m = MappingTable::new();
        for i in 0..n {
            m.update(Lba::new(i * 7), Ppa::new(i / 4, i % 4));
        }
        m
    }

    #[test]
    fn capture_restore_round_trip() {
        let map = map_with(20);
        let cp = Checkpoint::capture(1, Some(5), &map);
        assert_eq!(cp.len(), 20);
        let restored = cp.restore();
        assert_eq!(restored.len(), map.len());
        for (lba, ppa) in map.iter() {
            assert_eq!(restored.lookup(lba), Some(ppa));
        }
    }

    #[test]
    fn capture_is_deterministic() {
        let map = map_with(50);
        let a = Checkpoint::capture(1, None, &map);
        let b = Checkpoint::capture(1, None, &map);
        assert_eq!(a, b, "entry order must not depend on hash iteration");
    }

    #[test]
    fn empty_checkpoint() {
        let cp = Checkpoint::capture(0, None, &MappingTable::new());
        assert!(cp.is_empty());
        assert!(cp.restore().is_empty());
    }

    #[test]
    fn store_orders_and_prunes() {
        let mut store = CheckpointStore::new();
        for id in 1..=5 {
            store.append(
                Ppa::new(100, id),
                Checkpoint::capture(id, Some(id * 10), &map_with(id)),
            );
        }
        assert_eq!(store.len(), 5);
        assert_eq!(store.latest().map(|(_, c)| c.id), Some(5));
        let ids: Vec<u64> = store.iter_newest_first().map(|(_, c)| c.id).collect();
        assert_eq!(ids, vec![5, 4, 3, 2, 1]);
        store.prune(2);
        assert_eq!(store.len(), 2);
        assert_eq!(store.latest().map(|(_, c)| c.id), Some(5));
    }

    #[test]
    #[should_panic(expected = "checkpoint ids must be monotonic")]
    fn store_rejects_out_of_order_ids() {
        let mut store = CheckpointStore::new();
        store.append(
            Ppa::new(0, 0),
            Checkpoint::capture(2, None, &MappingTable::new()),
        );
        store.append(
            Ppa::new(0, 1),
            Checkpoint::capture(1, None, &MappingTable::new()),
        );
    }
}
