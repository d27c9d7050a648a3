//! KV store configuration and on-device layout.

use serde::{Deserialize, Serialize};

use pfault_sim::{Lba, SimDuration};

/// Tunables of the WAL'd KV store.
///
/// The store owns a fixed slice of the device's logical address space:
/// a circular WAL ring followed by two alternating checkpoint regions
/// (A/B). Every region is addressed in whole 4 KiB sectors — one
/// CRC-framed record per sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct KvConfig {
    /// Distinct keys the store accepts (`0..key_space`). The checkpoint
    /// regions are direct-mapped: key `k` always compacts into the same
    /// sector of a region, so an unreadable checkpoint sector still
    /// identifies which key it lost.
    pub key_space: u64,
    /// WAL ring capacity in records (one record per sector). When the
    /// ring would overflow records not yet covered by a checkpoint, the
    /// store forces a commit + compaction first.
    pub wal_slots: u64,
    /// Operations batched per group commit: the store appends WAL
    /// records device-ACK-fast, but acknowledges operations to the
    /// application only after a FLUSH barrier every this-many ops.
    pub group_commit_ops: u64,
    /// Checkpoint compaction cadence, in committed operations.
    pub checkpoint_every_ops: u64,
    /// Host-side bound on power-cycle retries against transient
    /// [`pfault_ssd::DeviceError::MountFailed`] /
    /// [`pfault_ssd::DeviceError::RecoveryInterrupted`] mounts.
    pub recover_retry_limit: u32,
    /// Initial backoff between mount retries; doubles per attempt.
    pub recover_backoff: SimDuration,
}

impl KvConfig {
    /// A small store sized for fault-injection trials: 48 keys, a
    /// 96-record ring, group commits of 8 and compaction every 48
    /// committed ops.
    pub fn small() -> Self {
        KvConfig {
            key_space: 48,
            wal_slots: 96,
            group_commit_ops: 8,
            checkpoint_every_ops: 48,
            recover_retry_limit: 8,
            recover_backoff: SimDuration::from_secs(1),
        }
    }

    /// Validates the configuration.
    ///
    /// # Panics
    ///
    /// Panics on a degenerate layout (empty key space, ring smaller than
    /// one commit group, zero cadences).
    pub fn validate(&self) {
        assert!(self.key_space > 0, "key space must be non-empty");
        assert!(self.group_commit_ops > 0, "group commit needs a batch size");
        assert!(
            self.checkpoint_every_ops > 0,
            "checkpoint cadence must be positive"
        );
        assert!(
            self.wal_slots > self.group_commit_ops,
            "WAL ring must hold more than one commit group"
        );
    }

    /// WAL sector holding the record with this sequence number.
    pub fn wal_lba(&self, seq: u64) -> Lba {
        Lba::new(seq % self.wal_slots)
    }

    /// Seal sector of checkpoint region 0 (A) or 1 (B). The seal sits at
    /// the region base, below the region's value sectors.
    pub fn seal_lba(&self, region: u64) -> Lba {
        Lba::new(self.wal_slots + region * (self.key_space + 1))
    }

    /// Value sector of `key` in checkpoint region 0 (A) or 1 (B).
    pub fn value_lba(&self, region: u64, key: u64) -> Lba {
        Lba::new(self.wal_slots + region * (self.key_space + 1) + 1 + key)
    }

    /// Which region (0 = A, 1 = B) a checkpoint generation writes into.
    /// Generations alternate; generation 0 means "no checkpoint yet".
    pub fn region_of(&self, generation: u64) -> u64 {
        generation % 2
    }

    /// Total device sectors the store's layout occupies.
    pub fn footprint_sectors(&self) -> u64 {
        self.wal_slots + 2 * (self.key_space + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layout_regions_do_not_overlap() {
        let c = KvConfig::small();
        c.validate();
        let mut seen = std::collections::HashSet::new();
        for seq in 0..c.wal_slots {
            assert!(seen.insert(c.wal_lba(seq)));
        }
        for region in 0..2 {
            assert!(seen.insert(c.seal_lba(region)));
            for key in 0..c.key_space {
                assert!(seen.insert(c.value_lba(region, key)));
            }
        }
        assert_eq!(seen.len() as u64, c.footprint_sectors());
    }

    #[test]
    fn ring_wraps_and_generations_alternate() {
        let c = KvConfig::small();
        assert_eq!(c.wal_lba(1), c.wal_lba(1 + c.wal_slots));
        assert_ne!(c.region_of(1), c.region_of(2));
        assert_eq!(c.region_of(1), c.region_of(3));
    }
}
