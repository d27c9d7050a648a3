//! Warm-state device images with copy-on-write trial clones.
//!
//! Campaign trials share a deterministic *warm-up*: the same workload
//! prefix on the same device configuration, byte-for-byte. Replaying
//! that prefix from a cold device for every trial dominates campaign
//! cost, so the engine runs it once, captures the warm device as a
//! [`DeviceImage`], and every trial [`DeviceImage::clone_cow`]s it.
//!
//! # Image anatomy
//!
//! [`Ssd::capture`] *freezes* the device's bulky state. The flash arena
//! is flattened ([`pfault_flash::array::FlashArray::flatten`]): every
//! materialised block moves into one shared, immutable,
//! `Arc`-refcounted slab. The mapping table's LBA stripes go behind
//! `Arc`s ([`pfault_ftl::mapping::MappingTable::freeze`]), and the
//! durable journal stores the frozen replay of its records
//! ([`pfault_ftl::DurableLog::freeze`]), which recovery starts from
//! instead of replaying the warm-up's batches again.
//!
//! `clone_cow` then copies the remaining FTL/cache/queue state — the
//! journal records, the allocator, per-block valid counts — and bumps
//! the shared refcounts; no NAND bytes or mapping stripes move. The
//! clone starts with an empty *overlay*; the first write (or
//! disturb-counting read) to a block copies just that block up into the
//! clone's private overlay, and the first write to a mapping stripe
//! copies just that stripe. Restoring a trial is therefore "drop the
//! overlay, clone again", and its cost scales with the trial's working
//! set, not the device.
//!
//! # Determinism contract
//!
//! An image captures *everything* that shapes future behaviour:
//!
//! * the NAND array (page contents, OOB records, raw bit-error counts,
//!   wear and read-disturb counters) — including the arena's block
//!   *materialisation order*, which fixes full-scan recovery's read
//!   order and hence its RNG draw sequence;
//! * the FTL (logical-to-physical map, journal buffer, allocator
//!   cursors, retired/full block sets) plus the durable journal and
//!   checkpoints;
//! * the volatile write cache, queues, in-flight pipeline, and the
//!   simulated clock;
//! * the device RNG **stream position** — not just the seed. The
//!   warm-up consumes device randomness (commit-phase draw, read-error
//!   draws); restoring the seed alone would replay the warm-up's draws
//!   a second time and diverge from a replayed-from-cold trial.
//!
//! Trials then call [`Ssd::reseed_for_trial`] to fork the restored
//! stream with their trial seed, which keeps per-trial randomness
//! independent while preserving equality with the cold path (which
//! performs the same warm-up and the same fork).

use pfault_sim::SimTime;

use crate::device::Ssd;

/// A frozen warm device, cheap to clone per trial (copy-on-write).
///
/// Produced by [`Ssd::capture`]; memoized by `pfault-platform`'s
/// snapshot cache keyed by `config_digest`.
#[derive(Debug, Clone)]
pub struct DeviceImage {
    ssd: Ssd,
    config_digest: u64,
    fingerprint: u64,
}

impl Ssd {
    /// Freezes this device into a [`DeviceImage`]. `config_digest`
    /// identifies the (trial configuration, vendor) pair that produced
    /// it, so a memoizing cache can never hand an image to a mismatched
    /// trial.
    ///
    /// Capture consumes the device: the flash arena, the mapping table
    /// and the journal's replay memo are frozen into the shared immutable
    /// state the image's clones will reference. Freezing is
    /// content-preserving — the image's
    /// [`fingerprint`](DeviceImage::fingerprint) equals the device's
    /// [`state_digest`](Ssd::state_digest) at the call.
    pub fn capture(mut self, config_digest: u64) -> DeviceImage {
        let fingerprint = self.state_digest();
        self.freeze();
        debug_assert_eq!(
            self.state_digest(),
            fingerprint,
            "freezing must preserve observable state"
        );
        DeviceImage {
            ssd: self,
            config_digest,
            fingerprint,
        }
    }
}

impl DeviceImage {
    /// A private copy-on-write clone of the captured device. The clone
    /// shares the image's flash arena, mapping-table stripes and
    /// journal-replay memo, and copies a block or stripe only when it
    /// touches it; cloning never mutates the image, so any number of
    /// trials can clone concurrently from a shared image.
    pub fn clone_cow(&self) -> Ssd {
        self.ssd.clone()
    }

    /// The configuration digest the image was captured under.
    pub fn config_digest(&self) -> u64 {
        self.config_digest
    }

    /// State digest taken at capture time;
    /// `clone_cow().state_digest()` always equals this.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The simulated time at which the warm-up finished.
    pub fn warm_now(&self) -> SimTime {
        self.ssd.now()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::HostCommand;
    use crate::vendor::VendorPreset;
    use pfault_sim::{DetRng, Lba, SectorCount, SimTime};

    fn warmed_ssd() -> Ssd {
        let mut ssd = Ssd::new(VendorPreset::SsdA.config(), DetRng::new(9));
        for i in 0..32 {
            ssd.submit(HostCommand::write(
                i,
                0,
                Lba::new(i * 8),
                SectorCount::new(8),
                0xBEEF + i,
            ));
            ssd.advance_to(SimTime::from_millis(2 * (i + 1)));
            ssd.drain_completions();
        }
        ssd.quiesce();
        ssd
    }

    #[test]
    fn capture_preserves_state_digest() {
        let ssd = warmed_ssd();
        let digest = ssd.state_digest();
        let image = ssd.capture(42);
        assert_eq!(image.fingerprint(), digest);
        assert_eq!(image.clone_cow().state_digest(), digest);
        assert_eq!(image.config_digest(), 42);
        assert_eq!(
            image.clone_cow().flash_overlay_blocks(),
            0,
            "fresh images are flattened"
        );
    }

    #[test]
    fn cow_clones_evolve_identically() {
        let image = warmed_ssd().capture(1);
        let mut a = image.clone_cow();
        let mut b = image.clone_cow();
        assert!(a.shares_flash_base_with(&b), "clones share the arena");
        for ssd in [&mut a, &mut b] {
            ssd.submit(HostCommand::write(
                100,
                0,
                Lba::new(64),
                SectorCount::new(8),
                0xD00D,
            ));
            ssd.advance_to(ssd.now() + pfault_sim::SimDuration::from_millis(5));
        }
        assert_eq!(a.state_digest(), b.state_digest());
        assert_eq!(a.drain_completions(), b.drain_completions());
    }

    #[test]
    fn trial_fork_depends_on_stream_position_and_seed() {
        let image = warmed_ssd().capture(1);
        let mut a = image.clone_cow();
        let mut b = image.clone_cow();
        a.reseed_for_trial(7);
        b.reseed_for_trial(8);
        assert_ne!(
            a.state_digest(),
            b.state_digest(),
            "different trial seeds must fork different device streams"
        );
        let mut c = image.clone_cow();
        c.reseed_for_trial(7);
        assert_eq!(a.state_digest(), c.state_digest());
    }

    #[test]
    fn mutating_a_clone_leaves_the_image_intact() {
        let image = warmed_ssd().capture(1);
        let before = image.fingerprint();
        let mut clone = image.clone_cow();
        clone.submit(HostCommand::write(
            200,
            0,
            Lba::new(0),
            SectorCount::new(8),
            0xFACE,
        ));
        clone.advance_to(clone.now() + pfault_sim::SimDuration::from_millis(10));
        assert_ne!(clone.state_digest(), before);
        assert!(
            clone.flash_overlay_blocks() > 0,
            "the write must land in the clone's private overlay"
        );
        assert_eq!(image.clone_cow().state_digest(), before);
    }
}
