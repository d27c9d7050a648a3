//! SSD device configuration.

use serde::{Deserialize, Serialize};

use pfault_flash::ecc::EccScheme;
use pfault_flash::geometry::FlashGeometry;
use pfault_flash::CellKind;
use pfault_ftl::FtlConfig;
use pfault_sim::SimDuration;

/// Nominal 5 V rail the device is powered from.
pub const NOMINAL_RAIL: pfault_power::Millivolts = pfault_power::Millivolts::new(5000);

/// DRAM write-back cache configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Whether the write-back cache is enabled (§IV-A tests both).
    pub enabled: bool,
    /// Cache capacity in 4 KiB sectors.
    pub capacity_sectors: u64,
    /// How long a dirty entry may age before the flusher picks it up
    /// (absent cache pressure).
    pub flush_delay: SimDuration,
    /// Flush immediately once dirty occupancy exceeds this fraction.
    pub pressure_watermark: f64,
}

impl CacheConfig {
    /// A consumer-class default: an 8 MiB dirty budget and a 2 ms lazy
    /// flush timer. The timer, not cache pressure, governs flushing in
    /// steady state, so the dirty population scales with the write rate —
    /// which is what makes the Fig 5 failure counts track the write
    /// fraction.
    pub fn consumer_default() -> Self {
        CacheConfig {
            enabled: true,
            capacity_sectors: 2048,
            flush_delay: SimDuration::from_millis(2),
            pressure_watermark: 0.9,
        }
    }

    /// The same cache, disabled (writes go straight to NAND).
    pub fn disabled() -> Self {
        CacheConfig {
            enabled: false,
            ..CacheConfig::consumer_default()
        }
    }
}

/// Full device configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SsdConfig {
    /// Physical array geometry.
    pub geometry: FlashGeometry,
    /// Cell technology (Table I: MLC or TLC).
    pub cell_kind: CellKind,
    /// ECC scheme (Table I: BCH-class, or LDPC for SSD B).
    pub ecc: EccScheme,
    /// Write-back cache.
    pub cache: CacheConfig,
    /// Supercapacitor-backed power-loss protection: on undervoltage the
    /// firmware panic-flushes cache and journal from stored energy.
    pub supercap: bool,
    /// Translation-layer tunables.
    pub ftl: FtlConfig,
    /// Controller per-command overhead; its reciprocal is the small-IO
    /// IOPS ceiling (≈145 µs → ≈6 900 IOPS, §IV-F).
    pub command_overhead: SimDuration,
    /// DMA transfer cost per 4 KiB sector through the front end.
    pub per_sector_transfer: SimDuration,
    /// Channel-level program parallelism: aggregate program throughput is
    /// `channels / page_program_time`.
    pub channels: u32,
    /// Concurrent program operations in flight (die-level lanes). Each
    /// lane's effective latency is `page_program_time * lanes / channels`;
    /// everything in flight when the rail collapses is interrupted.
    pub program_lanes: u32,
    /// Flash read latency (array + transfer) for cache misses.
    pub read_latency: SimDuration,
    /// Block-layer segment limit: larger host requests split into
    /// sub-requests of at most this many sectors.
    pub max_segment_sectors: u64,
    /// Program/erase cycles the device has already served (end-of-life
    /// studies): every block starts with this wear.
    pub baseline_wear: u32,
    /// Probability that one post-fault mount (recovery boot) fails and
    /// the host must power-cycle and retry. The paper observed drives
    /// that needed several cycles — and one that never came back.
    pub mount_failure_rate: f64,
    /// Consecutive failed mounts after which the device is permanently
    /// bricked — unless the mapping was already rebuilt, in which case it
    /// degrades to read-only mode instead.
    pub mount_retry_limit: u32,
    /// Run the dirty-page-verify recovery stage: after the mapping
    /// rebuild the firmware re-reads every mapped page (through the
    /// read-retry ladder) and nominates unreadable ones for bad-block
    /// retirement. Off by default — the fault-space sweeper's strict
    /// mapping oracle assumes recovery performs no extra work.
    pub recovery_verify: bool,
    /// Shifted-threshold re-reads the controller attempts after an
    /// uncorrectable nominal read before giving up (the ECC read-retry
    /// ladder). `0` disables the ladder: every read costs exactly one
    /// array access, as before.
    pub read_retry_limit: u32,
}

impl SsdConfig {
    /// A baseline consumer SATA drive over `geometry`.
    pub fn consumer(geometry: FlashGeometry, cell_kind: CellKind, ecc: EccScheme) -> Self {
        SsdConfig {
            geometry,
            cell_kind,
            ecc,
            cache: CacheConfig::consumer_default(),
            supercap: false,
            ftl: FtlConfig::for_geometry(geometry),
            command_overhead: SimDuration::from_micros(137),
            per_sector_transfer: SimDuration::from_micros(8),
            channels: 128,
            program_lanes: 8,
            read_latency: SimDuration::from_micros(90),
            max_segment_sectors: 128,
            baseline_wear: 0,
            mount_failure_rate: 0.0,
            mount_retry_limit: 3,
            recovery_verify: false,
            read_retry_limit: 0,
        }
    }

    /// Replaces the array geometry, re-deriving the FTL tunables that
    /// scale with it (chainable builder).
    #[must_use]
    pub fn with_geometry(mut self, geometry: FlashGeometry) -> Self {
        self.geometry = geometry;
        self.ftl = FtlConfig::for_geometry(geometry);
        self
    }

    /// Replaces the write-back cache configuration (chainable builder).
    #[must_use]
    pub fn with_cache(mut self, cache: CacheConfig) -> Self {
        self.cache = cache;
        self
    }

    /// Enables or removes the supercapacitor power-loss protection
    /// (chainable builder).
    #[must_use]
    pub fn with_supercap(mut self, supercap: bool) -> Self {
        self.supercap = supercap;
        self
    }

    /// Sets the post-fault mount failure behaviour (chainable builder).
    #[must_use]
    pub fn with_mount_failures(mut self, rate: f64, retry_limit: u32) -> Self {
        self.mount_failure_rate = rate;
        self.mount_retry_limit = retry_limit;
        self
    }

    /// Starts every block with this many program/erase cycles already
    /// served — the end-of-life studies (chainable builder).
    #[must_use]
    pub fn with_baseline_wear(mut self, cycles: u32) -> Self {
        self.baseline_wear = cycles;
        self
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics on degenerate values.
    pub fn validate(&self) {
        assert!(self.channels > 0, "need at least one channel");
        assert!(
            self.program_lanes > 0 && self.program_lanes <= self.channels,
            "lanes must be in 1..=channels"
        );
        assert!(
            self.max_segment_sectors > 0,
            "segment limit must be positive"
        );
        assert!(
            self.cache.capacity_sectors > 0,
            "cache capacity must be positive"
        );
        assert!(
            (0.0..=1.0).contains(&self.cache.pressure_watermark),
            "pressure watermark must be a fraction"
        );
        assert!(
            (0.0..=1.0).contains(&self.mount_failure_rate),
            "mount failure rate must be a probability"
        );
        assert!(
            self.mount_retry_limit > 0,
            "mount retry limit must be positive"
        );
        self.ftl.validate();
    }

    /// Small-IO IOPS ceiling implied by the front-end overheads
    /// (one 4 KiB command per `command_overhead + per_sector_transfer`).
    pub fn iops_ceiling(&self) -> f64 {
        1_000_000.0
            / (self.command_overhead.as_micros() + self.per_sector_transfer.as_micros()) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> SsdConfig {
        SsdConfig::consumer(
            FlashGeometry::new(1 << 14, 256),
            CellKind::Mlc,
            EccScheme::bch_mlc(),
        )
    }

    #[test]
    fn consumer_config_is_valid() {
        base().validate();
    }

    #[test]
    fn iops_ceiling_is_near_paper_saturation() {
        let iops = base().iops_ceiling();
        assert!(
            (6_500.0..7_200.0).contains(&iops),
            "ceiling {iops} should be near the paper's ~6 900"
        );
    }

    #[test]
    fn builders_chain_and_rederive_ftl() {
        let geometry = FlashGeometry::new(1 << 12, 128);
        let c = base()
            .with_geometry(geometry)
            .with_cache(CacheConfig::disabled())
            .with_supercap(true)
            .with_mount_failures(0.25, 5)
            .with_baseline_wear(3000);
        assert_eq!(c.geometry, geometry);
        assert_eq!(
            c.ftl,
            FtlConfig::for_geometry(geometry),
            "geometry change must re-derive the FTL tunables"
        );
        assert!(!c.cache.enabled);
        assert!(c.supercap);
        assert!((c.mount_failure_rate - 0.25).abs() < f64::EPSILON);
        assert_eq!(c.mount_retry_limit, 5);
        assert_eq!(c.baseline_wear, 3000);
        c.validate();
    }

    #[test]
    fn cache_disabled_preserves_other_fields() {
        let c = CacheConfig::disabled();
        assert!(!c.enabled);
        assert_eq!(
            c.capacity_sectors,
            CacheConfig::consumer_default().capacity_sectors
        );
    }

    #[test]
    #[should_panic(expected = "need at least one channel")]
    fn zero_channels_rejected() {
        let mut c = base();
        c.channels = 0;
        c.validate();
    }

    #[test]
    #[should_panic(expected = "pressure watermark must be a fraction")]
    fn bad_watermark_rejected() {
        let mut c = base();
        c.cache.pressure_watermark = 2.0;
        c.validate();
    }
}
