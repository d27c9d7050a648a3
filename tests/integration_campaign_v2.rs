//! Campaign engine v2 integration: warm-image cloning and every
//! execution engine must be invisible in the results.
//!
//! The contract under test (DESIGN.md §11, §14): for one `(TrialConfig,
//! vendor)` configuration, a trial that copy-on-write-clones the shared
//! warm [`pfault_ssd::DeviceImage`] classifies **identically** to a
//! trial that replays the warm-up prefix from a cold device — for
//! *arbitrary* seeds and vendors, not just the presets the unit tests
//! happen to pick, and regardless of how many blocks the trial dirties
//! in its private overlay (zero-dirty through all-dirty). And the
//! serial and work-stealing engines must emit byte-identical
//! `CampaignReport`s (including the order-sensitive
//! Welford `obs` aggregates), with the snapshot cache on or off.

use proptest::prelude::*;

use pfault_platform::campaign::{Campaign, CampaignConfig, CampaignReport};
use pfault_platform::platform::{TestPlatform, TrialConfig};
use pfault_power::FaultTimeline;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration};
use pfault_ssd::device::{HostCommand, Ssd};
use pfault_ssd::VendorPreset;

/// A small-geometry trial template on the given vendor with a warm-up
/// prefix — cheap enough to run many property cases.
fn warm_trial(vendor: VendorPreset, warmup: usize) -> TrialConfig {
    let mut trial = TrialConfig::paper_default();
    trial.ssd = vendor.config();
    trial.ssd.geometry = pfault_flash::FlashGeometry::new(1 << 14, 256);
    trial.ssd.ftl = pfault_ftl::FtlConfig::for_geometry(trial.ssd.geometry);
    trial.requests = 20;
    trial.warmup_requests = warmup;
    trial
}

fn campaign_config(vendor: VendorPreset, warmup: usize, obs: bool) -> CampaignConfig {
    let mut config = CampaignConfig::paper_default();
    config.trial = warm_trial(vendor, warmup);
    config.trial.obs = obs;
    config.trials = 6;
    config.requests_per_trial = 20;
    config
}

fn bytes(report: &CampaignReport) -> String {
    serde_json::to_string(report).expect("reports serialize")
}

/// Drives `ssd` through a reproducible IO pattern of `writes` random
/// 8-sector writes: `0` leaves the copy-on-write overlay empty (no
/// block is ever touched), larger counts overwrite warm blocks and
/// materialise brand-new ones until the whole warm working set is
/// dirty.
fn drive_pattern(ssd: &mut Ssd, seed: u64, writes: u64) {
    let mut rng = DetRng::new(seed).fork("pattern");
    for i in 0..writes {
        // Spread over a wide LBA range so high fractions overwrite warm
        // blocks *and* materialise brand-new ones.
        let lba = Lba::new(rng.below(1 << 16) * 8);
        ssd.submit(HostCommand::write(
            1000 + i,
            0,
            lba,
            SectorCount::new(8),
            0xD1A7 ^ i,
        ));
        ssd.advance_to(ssd.now() + SimDuration::from_millis(1));
        ssd.drain_completions();
    }
    ssd.quiesce();
    ssd.drain_completions();
}

proptest! {
    /// Image-clone is replay-from-cold, for any seed, any vendor, any
    /// warm-up length: same outcome, field for field (classification,
    /// obs counters — everything `TrialOutcome` carries).
    #[test]
    fn cow_clone_classifies_like_cold_replay(
        seed in 0u64..u64::MAX / 2,
        vendor_idx in 0usize..3,
        warmup in 1usize..12,
    ) {
        let vendor = VendorPreset::all()[vendor_idx];
        let platform = TestPlatform::new(warm_trial(vendor, warmup));
        let cold = platform.run_trial(seed);
        let image = platform.warm_image();
        let cloned = platform.run_trial_from_image(&image, seed);
        prop_assert_eq!(format!("{cold:?}"), format!("{cloned:?}"));
    }

    /// The image itself is a pure function of the configuration:
    /// capturing twice yields the same fingerprint, and a different
    /// vendor yields a different one.
    #[test]
    fn warm_images_are_config_pure(warmup in 1usize..8) {
        let a = TestPlatform::new(warm_trial(VendorPreset::SsdA, warmup));
        let b = TestPlatform::new(warm_trial(VendorPreset::SsdB, warmup));
        let first = a.warm_image().fingerprint();
        prop_assert_eq!(first, a.warm_image().fingerprint());
        prop_assert!(first != b.warm_image().fingerprint());
    }

    /// Two CoW clones of one image evolve byte-identically across the
    /// dirty-page spectrum: `writes = 0` never materialises an overlay
    /// block, larger counts overwrite warm blocks and allocate fresh
    /// ones. State digests (which fold in the RNG stream position) must
    /// agree throughout, and the shared image must come out untouched.
    #[test]
    fn cow_overlay_is_transparent_across_dirty_patterns(
        seed in 0u64..u64::MAX / 2,
        vendor_idx in 0usize..3,
        writes in 0u64..25,
    ) {
        let vendor = VendorPreset::all()[vendor_idx];
        let platform = TestPlatform::new(warm_trial(vendor, 8));
        let warm = platform.warm_image();
        let mut a = warm.clone_cow();
        a.reseed_for_trial(seed);
        let mut b = warm.clone_cow();
        b.reseed_for_trial(seed);
        drive_pattern(&mut a, seed, writes);
        drive_pattern(&mut b, seed, writes);
        prop_assert_eq!(a.state_digest(), b.state_digest());
        prop_assert_eq!(a.flash_overlay_blocks(), b.flash_overlay_blocks());
        if writes == 0 {
            prop_assert_eq!(a.flash_overlay_blocks(), 0, "zero-dirty trials copy nothing up");
        }
        // The image is immune to everything its clones did.
        prop_assert_eq!(warm.clone_cow().state_digest(), warm.fingerprint());
    }

    /// Capturing a clone of an image (which extends the image's frozen
    /// mapping stripes and journal-replay memo) is transparent: after
    /// more writes, a power cut and recovery, a trial cloned from the
    /// recaptured image matches the same history run on a device that
    /// was never frozen.
    #[test]
    fn recaptured_clones_recover_like_a_never_frozen_device(
        seed in 0u64..u64::MAX / 2,
        vendor_idx in 0usize..3,
    ) {
        let vendor = VendorPreset::all()[vendor_idx];
        let mut warm = Ssd::new(warm_trial(vendor, 0).ssd, DetRng::new(seed ^ 0x5EED));
        drive_pattern(&mut warm, seed ^ 0xB0075, 24);
        let mut never_frozen = warm.clone();
        let mut evolved = warm.capture(1).clone_cow();
        for ssd in [&mut evolved, &mut never_frozen] {
            drive_pattern(ssd, seed ^ 0xA11CE, 12);
        }
        let mut a = evolved.capture(1).clone_cow();
        let mut b = never_frozen;
        for ssd in [&mut a, &mut b] {
            ssd.reseed_for_trial(seed);
            drive_pattern(ssd, seed, 16);
            let cut = ssd.now() + SimDuration::from_micros(150);
            ssd.power_fail(&FaultTimeline::at_instant(cut));
            let recovered = ssd.power_on_recover(cut + SimDuration::from_millis(5));
            prop_assert!(recovered.is_ok(), "{:?}", recovered);
        }
        prop_assert_eq!(a.mapped(), b.mapped());
        prop_assert_eq!(a.state_digest(), b.state_digest());
    }
}

/// Serial and work-stealing engines, with the snapshot cache on or
/// off and at any thread count, all produce byte-identical reports — per vendor, with the
/// probe bus on so the order-sensitive `obs` aggregates are covered too.
#[test]
fn engines_and_snapshotting_agree_byte_for_byte() {
    for (i, vendor) in VendorPreset::all().into_iter().enumerate() {
        let config = campaign_config(vendor, 16, true);
        let seed = 0xC0FFEE ^ (i as u64) << 17;
        let baseline = bytes(
            &Campaign::builder(config)
                .seed(seed)
                .snapshot_cache(None)
                .build()
                .run(),
        );
        // Clones of one builder share its snapshot cache.
        let cached = Campaign::builder(config).seed(seed);
        for threads in [1, 2, 3] {
            assert_eq!(
                bytes(&cached.clone().threads(threads).build().run()),
                baseline,
                "{vendor:?}: snapshot cloning on {threads} thread(s) changed the report"
            );
        }
        let uncached_stealing = Campaign::builder(config)
            .seed(seed)
            .snapshot_cache(None)
            .threads(3)
            .build()
            .run();
        assert_eq!(
            bytes(&uncached_stealing),
            baseline,
            "{vendor:?}: work-stealing without the snapshot cache changed the report"
        );
    }
}

/// The work-stealing scheduler caps its thread pool at the trial count —
/// oversubscription must not change results.
#[test]
fn oversubscribed_threads_are_harmless() {
    let config = campaign_config(VendorPreset::SsdC, 8, false);
    let campaign = Campaign::builder(config).seed(99).build();
    let baseline = bytes(&campaign.run());
    assert_eq!(bytes(&campaign.run_stealing_with_stats(9).0), baseline);
    let (report, stats) = campaign.run_stealing_with_stats(64);
    assert_eq!(bytes(&report), baseline);
    assert_eq!(stats.threads, config.trials, "threads clamp to trial count");
    assert_eq!(
        stats.workers.iter().map(|w| w.trials_run).sum::<u64>(),
        config.trials as u64
    );
}
