//! The workload generator.
//!
//! Turns a [`WorkloadSpec`] plus a seed into a deterministic stream of
//! [`DataPacket`]s. Arrival times are produced for open-loop specs
//! (requested-IOPS pacing, §IV-F); closed-loop specs leave pacing to the
//! platform, which submits on completions.

use pfault_sim::storage::SECTOR_BYTES;
use pfault_sim::{DetRng, Lba, SectorCount, SimDuration, SimTime};

use crate::packet::DataPacket;
use crate::spec::{AccessPattern, ArrivalModel, SizeSpec, WorkloadSpec};

/// Number of Zipf buckets the working set is quantised into: the bucket
/// is drawn Zipf-distributed, the address uniformly within the bucket.
const ZIPF_BUCKETS: usize = 1024;

/// Deterministic request stream.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct WorkloadGenerator {
    spec: WorkloadSpec,
    rng: DetRng,
    next_id: u64,
    clock: SimTime,
    sequential_cursor: u64,
    /// Cumulative Zipf bucket weights (lazily built on first use).
    zipf_cdf: Option<Vec<f64>>,
    /// For sequence modes: address and pending second-half of the pair.
    pending_second: Option<(Lba, SectorCount, bool)>,
    last_address: Option<(Lba, SectorCount)>,
}

impl WorkloadGenerator {
    /// Creates a generator.
    ///
    /// # Panics
    ///
    /// Panics if the spec is invalid.
    pub fn new(spec: WorkloadSpec, rng: DetRng) -> Self {
        spec.validate();
        WorkloadGenerator {
            spec,
            rng,
            next_id: 0,
            clock: SimTime::ZERO,
            sequential_cursor: 0,
            zipf_cdf: None,
            pending_second: None,
            last_address: None,
        }
    }

    /// The spec this generator follows.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    fn draw_sectors(&mut self) -> SectorCount {
        match self.spec.size {
            SizeSpec::FixedBytes(bytes) => SectorCount::from_bytes(bytes),
            SizeSpec::UniformBytes {
                min_bytes,
                max_bytes,
            } => {
                let min_s = min_bytes.div_ceil(SECTOR_BYTES).max(1);
                let max_s = max_bytes / SECTOR_BYTES;
                SectorCount::new(self.rng.between(min_s, max_s.max(min_s)))
            }
        }
    }

    fn zipf_bucket(&mut self, theta: f64) -> usize {
        let cdf = self.zipf_cdf.get_or_insert_with(|| {
            // Harmonic weights w_i = 1/(i+1)^theta over the buckets,
            // accumulated into a CDF.
            let mut acc = 0.0;
            let mut cdf = Vec::with_capacity(ZIPF_BUCKETS);
            for i in 0..ZIPF_BUCKETS {
                acc += 1.0 / ((i + 1) as f64).powf(theta);
                cdf.push(acc);
            }
            let total = acc;
            for w in &mut cdf {
                *w /= total;
            }
            cdf
        });
        let u = self.rng.unit_f64();
        cdf.partition_point(|&c| c < u).min(ZIPF_BUCKETS - 1)
    }

    fn draw_address(&mut self, sectors: SectorCount) -> Lba {
        let wss = self.spec.wss_sectors();
        let span = wss - sectors.get();
        match self.spec.pattern {
            AccessPattern::UniformRandom => Lba::new(self.rng.below(span + 1)),
            AccessPattern::Sequential => {
                if self.sequential_cursor + sectors.get() > wss {
                    self.sequential_cursor = 0;
                }
                let lba = Lba::new(self.sequential_cursor);
                self.sequential_cursor += sectors.get();
                lba
            }
            AccessPattern::Zipf { theta } => {
                // Draw a bucket Zipf-distributed, then a uniform address
                // inside it (clamped so the request fits the working set).
                let bucket = self.zipf_bucket(theta) as u64;
                let bucket_span = (span + 1).div_ceil(ZIPF_BUCKETS as u64).max(1);
                let base = (bucket * bucket_span).min(span);
                let hi = (base + bucket_span - 1).min(span);
                Lba::new(self.rng.between(base, hi))
            }
        }
    }

    fn advance_clock(&mut self) -> SimTime {
        match self.spec.arrival {
            ArrivalModel::ClosedLoop { .. } => self.clock, // platform-paced
            ArrivalModel::OpenLoop { iops } => {
                let t = self.clock;
                let interval = SimDuration::from_micros((1_000_000.0 / iops).round() as u64);
                self.clock += interval;
                t
            }
            ArrivalModel::OpenLoopPoisson { iops } => {
                let t = self.clock;
                // Exponential inter-arrival via inverse transform.
                let u = self.rng.unit_f64().max(1e-12);
                let gap_us = -(u.ln()) * 1_000_000.0 / iops;
                self.clock += SimDuration::from_micros(gap_us.round().max(1.0) as u64);
                t
            }
        }
    }

    /// Produces the next request.
    pub fn next_packet(&mut self) -> DataPacket {
        let id = self.next_id;
        self.next_id += 1;
        let payload_tag = self.rng.next_u64();

        let (lba, sectors, is_write) = if let Some(mode) = self.spec.sequence {
            if let Some((lba, sectors, second_is_write)) = self.pending_second.take() {
                (lba, sectors, second_is_write)
            } else {
                let (first, second) = mode.pair();
                // "each request is submitted on the address of the
                // previously completed request": the pair's address is
                // where the previous pair landed; the very first pair draws
                // a fresh address.
                let (lba, sectors) = match self.last_address {
                    Some(addr) => addr,
                    None => {
                        let s = self.draw_sectors();
                        (self.draw_address(s), s)
                    }
                };
                self.last_address = {
                    let s = self.draw_sectors();
                    Some((self.draw_address(s), s))
                };
                self.pending_second = Some((lba, sectors, second));
                (lba, sectors, first)
            }
        } else {
            let sectors = self.draw_sectors();
            let lba = self.draw_address(sectors);
            let is_write = self.rng.chance(self.spec.write_fraction);
            (lba, sectors, is_write)
        };

        DataPacket {
            id,
            lba,
            sectors,
            is_write,
            arrival: self.advance_clock(),
            payload_tag,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SequenceMode;
    use pfault_sim::storage::{GIB, KIB, MIB};

    fn gen_with(spec: WorkloadSpec) -> WorkloadGenerator {
        WorkloadGenerator::new(spec, DetRng::new(11))
    }

    #[test]
    fn ids_are_monotonic_and_deterministic() {
        let spec = WorkloadSpec::builder().wss_bytes(GIB).build();
        let mut a = gen_with(spec);
        let mut b = gen_with(spec);
        for i in 0..50 {
            let pa = a.next_packet();
            let pb = b.next_packet();
            assert_eq!(pa.id, i);
            assert_eq!(pa, pb, "same seed must give same stream");
        }
    }

    #[test]
    fn sizes_respect_uniform_range() {
        let spec = WorkloadSpec::builder().wss_bytes(4 * GIB).build();
        let mut g = gen_with(spec);
        for _ in 0..500 {
            let p = g.next_packet();
            let bytes = p.sectors.bytes();
            assert!((4 * KIB..=MIB).contains(&bytes), "size {bytes}");
        }
    }

    #[test]
    fn fixed_size_is_constant() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .size(SizeSpec::FixedBytes(16 * KIB))
            .build();
        let mut g = gen_with(spec);
        for _ in 0..50 {
            assert_eq!(g.next_packet().sectors, SectorCount::new(4));
        }
    }

    #[test]
    fn addresses_stay_inside_wss() {
        let spec = WorkloadSpec::builder().wss_bytes(GIB).build();
        let wss_sectors = spec.wss_sectors();
        let mut g = gen_with(spec);
        for _ in 0..500 {
            let p = g.next_packet();
            assert!(p.lba.index() + p.sectors.get() <= wss_sectors);
        }
    }

    #[test]
    fn write_fraction_is_respected() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .write_fraction(0.2)
            .build();
        let mut g = gen_with(spec);
        let writes = (0..5_000).filter(|_| g.next_packet().is_write).count();
        let frac = writes as f64 / 5_000.0;
        assert!((frac - 0.2).abs() < 0.03, "write fraction {frac}");
    }

    #[test]
    fn sequential_addresses_are_consecutive_and_wrap() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .pattern(AccessPattern::Sequential)
            .size(SizeSpec::FixedBytes(256 * KIB))
            .build();
        let mut g = gen_with(spec);
        let mut expected = 0u64;
        for _ in 0..10 {
            let p = g.next_packet();
            assert_eq!(p.lba.index(), expected);
            expected += p.sectors.get();
        }
        // Exhaust the working set to observe the wrap.
        let per_req = 256 * KIB / 4096;
        let reqs_to_wrap = spec.wss_sectors() / per_req;
        for _ in 10..reqs_to_wrap {
            g.next_packet();
        }
        assert_eq!(g.next_packet().lba.index(), 0);
    }

    #[test]
    fn open_loop_paces_arrivals() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .arrival(ArrivalModel::OpenLoop { iops: 1000.0 })
            .build();
        let mut g = gen_with(spec);
        let a = g.next_packet().arrival;
        let b = g.next_packet().arrival;
        let c = g.next_packet().arrival;
        assert_eq!((b - a).as_micros(), 1_000);
        assert_eq!((c - b).as_micros(), 1_000);
    }

    #[test]
    fn poisson_arrivals_average_the_requested_rate() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .arrival(ArrivalModel::OpenLoopPoisson { iops: 2_000.0 })
            .build();
        let mut g = gen_with(spec);
        let n = 4_000;
        let mut last = SimTime::ZERO;
        let mut gaps = Vec::with_capacity(n);
        for _ in 0..n {
            let t = g.next_packet().arrival;
            gaps.push((t - last).as_micros() as f64);
            last = t;
        }
        let mean_gap = gaps.iter().sum::<f64>() / n as f64;
        assert!((mean_gap - 500.0).abs() < 30.0, "mean gap {mean_gap}µs");
        // Exponential gaps are bursty: the variance is on the order of
        // the squared mean (coefficient of variation ≈ 1).
        let var = gaps.iter().map(|g| (g - mean_gap).powi(2)).sum::<f64>() / n as f64;
        let cv = var.sqrt() / mean_gap;
        assert!((0.8..1.2).contains(&cv), "cv {cv}");
    }

    #[test]
    fn closed_loop_leaves_arrival_at_zero() {
        let spec = WorkloadSpec::builder().wss_bytes(GIB).build();
        let mut g = gen_with(spec);
        assert_eq!(g.next_packet().arrival, SimTime::ZERO);
        assert_eq!(g.next_packet().arrival, SimTime::ZERO);
    }

    #[test]
    fn zipf_skews_toward_low_addresses() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .pattern(AccessPattern::Zipf { theta: 0.99 })
            .size(SizeSpec::FixedBytes(4 * KIB))
            .build();
        let wss = spec.wss_sectors();
        let mut g = gen_with(spec);
        let n = 4_000;
        let in_first_tenth = (0..n)
            .filter(|_| g.next_packet().lba.index() < wss / 10)
            .count();
        // Under uniform this would be ~10%; heavy Zipf concentrates most
        // accesses in the first buckets.
        assert!(
            in_first_tenth as f64 / n as f64 > 0.5,
            "only {in_first_tenth}/{n} accesses hit the hot tenth"
        );
    }

    #[test]
    fn zipf_addresses_stay_in_bounds() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .pattern(AccessPattern::Zipf { theta: 0.6 })
            .build();
        let wss = spec.wss_sectors();
        let mut g = gen_with(spec);
        for _ in 0..1_000 {
            let p = g.next_packet();
            assert!(p.lba.index() + p.sectors.get() <= wss);
        }
    }

    #[test]
    #[should_panic(expected = "zipf theta must be in [0, 1)")]
    fn zipf_theta_validated() {
        WorkloadSpec::builder()
            .wss_bytes(GIB)
            .pattern(AccessPattern::Zipf { theta: 1.5 })
            .build();
    }

    #[test]
    fn waw_pairs_share_address_and_are_writes() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .sequence(SequenceMode::Waw)
            .build();
        let mut g = gen_with(spec);
        for _ in 0..20 {
            let first = g.next_packet();
            let second = g.next_packet();
            assert!(first.is_write && second.is_write);
            assert_eq!(first.lba, second.lba);
            assert_eq!(first.sectors, second.sectors);
            assert_ne!(first.payload_tag, second.payload_tag);
        }
    }

    #[test]
    fn raw_pair_is_write_then_read() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .sequence(SequenceMode::Raw)
            .build();
        let mut g = gen_with(spec);
        let first = g.next_packet();
        let second = g.next_packet();
        assert!(first.is_write);
        assert!(!second.is_write);
    }

    #[test]
    fn sequence_pairs_move_between_addresses() {
        let spec = WorkloadSpec::builder()
            .wss_bytes(GIB)
            .sequence(SequenceMode::Waw)
            .build();
        let mut g = gen_with(spec);
        let mut addresses = std::collections::HashSet::new();
        for _ in 0..20 {
            let first = g.next_packet();
            let _ = g.next_packet();
            addresses.insert(first.lba);
        }
        assert!(addresses.len() > 10, "pairs should roam the working set");
    }
}
