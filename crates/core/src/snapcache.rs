//! Memoized warm device images, held by whoever runs the campaigns.
//!
//! Every trial under one `(TrialConfig, vendor)` pair shares the same
//! configuration-derived warm-up, so its [`pfault_ssd::DeviceImage`] is
//! a pure function of
//! [`crate::platform::TestPlatform::config_digest`]. A
//! [`SnapshotCache`] runs the warm-up once per digest and hands every
//! later caller — including workers on other threads — a shared `Arc`
//! of the frozen image; trials [`pfault_ssd::DeviceImage::clone_cow`]
//! it, which shares the flash arena instead of deep-copying the device.
//!
//! There is no process-wide instance. Each
//! [`crate::campaign::Campaign`] builder starts with a fresh cache; the
//! campaign daemon owns one for its whole life and hands it to every
//! job, so later jobs on the same configuration clone the first job's
//! warm image. Nothing is evicted: entries live as long as the cache.
//!
//! Capture happens *while holding the lock* on purpose: concurrent
//! workers asking for the same configuration then wait for the one
//! warm-up instead of each replaying it. Because of that, a panicking
//! trial (the campaign engine runs each trial under `catch_unwind`) can
//! poison the mutex. Cache contents stay valid across such a panic —
//! entries are only ever inserted whole — so every lock site *recovers*
//! from poisoning instead of propagating it.
//!
//! The cache keeps no counters: a campaign reports its own lookup as
//! [`crate::campaign::ObservedRun::cache_hits`] and `cache_misses`.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

use pfault_ssd::DeviceImage;

use crate::platform::TestPlatform;

/// Builds a [`SnapshotCache`]. Obtained from [`SnapshotCache::builder`];
/// it has no knobs.
#[derive(Debug, Clone)]
pub struct SnapshotCacheBuilder(());

impl SnapshotCacheBuilder {
    /// Builds the cache.
    pub fn build(self) -> SnapshotCache {
        SnapshotCache {
            entries: Mutex::new(HashMap::new()),
        }
    }
}

/// A digest-keyed memo of warm [`DeviceImage`]s. See the module docs.
pub struct SnapshotCache {
    entries: Mutex<HashMap<u64, Arc<DeviceImage>>>,
}

impl std::fmt::Debug for SnapshotCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotCache")
            .field("entries", &self.lock().len())
            .finish()
    }
}

impl Default for SnapshotCache {
    fn default() -> Self {
        SnapshotCache::builder().build()
    }
}

impl SnapshotCache {
    /// Starts building a cache.
    pub fn builder() -> SnapshotCacheBuilder {
        SnapshotCacheBuilder(())
    }

    /// Locks the map, recovering from a mutex poisoned by a panicked
    /// trial: images are inserted whole under the lock, so the map is
    /// structurally sound even when the panic interrupted a warm-up —
    /// at worst the interrupted digest is simply absent and re-warms.
    fn lock(&self) -> MutexGuard<'_, HashMap<u64, Arc<DeviceImage>>> {
        self.entries
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// The image for `digest` and whether the cache already held it,
    /// running `build` (under the lock) on the first request and
    /// memoizing the result for every later caller. The core primitive
    /// behind [`SnapshotCache::warm_image_for`]; the hit flag is how a
    /// campaign reports its own lookup even while other campaigns share
    /// the cache.
    pub fn image_for(
        &self,
        digest: u64,
        build: impl FnOnce() -> DeviceImage,
    ) -> (Arc<DeviceImage>, bool) {
        let mut entries = self.lock();
        if let Some(image) = entries.get(&digest).map(Arc::clone) {
            return (image, true);
        }
        let stored = Arc::new(build());
        entries.insert(digest, Arc::clone(&stored));
        (stored, false)
    }

    /// The warm image for this platform's configuration, running the
    /// warm-up on first request. Callers gate on `warmup_requests > 0`
    /// themselves — a zero-warm-up image is legal but pointless (it is
    /// just a cold device).
    pub fn warm_image_for(&self, platform: &TestPlatform) -> Arc<DeviceImage> {
        self.image_for(platform.config_digest(), || platform.warm_image())
            .0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::platform::TrialConfig;

    fn warm_platform(warmup: usize) -> TestPlatform {
        let mut c = TrialConfig::paper_default();
        c.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        c.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(c.ssd.geometry);
        c.workload = pfault_workload::WorkloadSpec::builder()
            .wss_bytes(4 * pfault_sim::storage::GIB)
            .build();
        TestPlatform::new(c.with_warmup_requests(warmup))
    }

    #[test]
    fn same_config_shares_one_image() {
        let cache = SnapshotCache::default();
        let platform = warm_platform(16);
        let (a, a_hit) = cache.image_for(platform.config_digest(), || platform.warm_image());
        let (b, b_hit) = cache.image_for(platform.config_digest(), || platform.warm_image());
        assert!(Arc::ptr_eq(&a, &b), "second lookup must hit the cache");
        assert!(!a_hit && b_hit, "first lookup misses, second hits");
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn different_configs_get_different_images() {
        let cache = SnapshotCache::default();
        let a = cache.warm_image_for(&warm_platform(16));
        let b = cache.warm_image_for(&warm_platform(17));
        assert!(!Arc::ptr_eq(&a, &b));
        assert_ne!(a.config_digest(), b.config_digest());
    }

    #[test]
    fn cached_image_matches_a_fresh_capture() {
        let platform = warm_platform(18);
        let cached = SnapshotCache::default().warm_image_for(&platform);
        assert_eq!(cached.fingerprint(), platform.warm_image().fingerprint());
    }

    #[test]
    fn poisoned_lock_recovers_and_later_campaigns_complete() {
        use crate::campaign::{Campaign, CampaignConfig};

        // An active cache with a live entry…
        let cache = Arc::new(SnapshotCache::default());
        let platform = warm_platform(21);
        let first = cache.warm_image_for(&platform);

        // …poisoned by a panic while the lock is held — what a trial
        // dying mid-capture under the campaign's catch_unwind does.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = cache.entries.lock().unwrap_or_else(|e| e.into_inner());
            panic!("trial died while capturing a warm image");
        }));

        // Every lock site must recover instead of propagating: lookups
        // still serve the intact entry.
        let again = cache.warm_image_for(&platform);
        assert!(
            Arc::ptr_eq(&first, &again),
            "poison recovery must keep serving the cached image"
        );

        // And an image-cached campaign run on the poisoned cache — the
        // "rest of the campaign" from the cache's point of view — still
        // completes with every trial accounted for.
        let mut config = CampaignConfig::paper_default();
        config.trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
        config.trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(config.trial.ssd.geometry);
        config.trial.workload = pfault_workload::WorkloadSpec::builder()
            .wss_bytes(4 * pfault_sim::storage::GIB)
            .build();
        config.trial = config.trial.with_warmup_requests(8);
        config.trials = 3;
        config.requests_per_trial = 20;
        let report = Campaign::builder(config)
            .seed(31)
            .snapshot_cache(Some(Arc::clone(&cache)))
            .build()
            .run();
        assert_eq!(report.faults, 3);
        assert_eq!(
            report.failures.total_failed(),
            0,
            "campaign after a poisoned cache must still complete: {:?}",
            report.failures
        );
    }
}
