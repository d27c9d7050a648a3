//! Deterministic counters and log2-bucket histograms.
//!
//! Everything here is integer arithmetic over simulated time, so two
//! same-seed trials produce byte-identical serialisations. Keys are
//! `BTreeMap<String, _>` so iteration (and therefore JSON key order) is
//! sorted and stable regardless of insertion or merge order.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{ProbeEvent, RecoveryStepKind};
use crate::probe::ProbeRecord;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `i` (for
/// `i >= 1`) holds values whose bit length is `i`, i.e. the range
/// `[2^(i-1), 2^i - 1]`. Bucket 64 holds values with the top bit set.
pub const LOG2_BUCKETS: usize = 65;

/// Fixed-bucket power-of-two histogram over `u64` samples.
///
/// The bucket vector always has [`LOG2_BUCKETS`] entries (a `Vec` only
/// because the serde shim cannot round-trip fixed-size arrays).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Log2Histogram {
    buckets: Vec<u64>,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Log2Histogram {
            buckets: vec![0; LOG2_BUCKETS],
        }
    }

    /// Bucket index for `value`: 0 for 0, otherwise the bit length.
    pub fn bucket_index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Inclusive lower bound of bucket `index` (0 for buckets 0 and 1).
    pub fn bucket_lower_bound(index: usize) -> u64 {
        match index {
            0 => 0,
            1 => 1,
            i => 1u64 << (i - 1),
        }
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Log2Histogram::bucket_index(value)] += 1;
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count() == 0
    }

    /// The per-bucket sample counts (always [`LOG2_BUCKETS`] entries;
    /// a deserialised histogram is re-padded on merge/record access).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (i, n) in other.buckets.iter().enumerate() {
            if i < self.buckets.len() {
                self.buckets[i] += n;
            }
        }
    }

    /// Lower bound of the smallest bucket whose cumulative count
    /// reaches `p` percent of all samples (deterministic percentile
    /// floor; `None` when empty).
    pub fn percentile_lower_bound(&self, p: u64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        let target = (total * p).div_ceil(100).max(1);
        let mut seen = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Some(Log2Histogram::bucket_lower_bound(i));
            }
        }
        None
    }
}

/// A named set of counters and histograms — the per-trial (and, after
/// merging, per-campaign) metrics registry.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Metrics {
    /// Monotonic counters, keyed by dotted name.
    pub counters: BTreeMap<String, u64>,
    /// Latency/size histograms, keyed by dotted name.
    pub histograms: BTreeMap<String, Log2Histogram>,
}

impl Metrics {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Metrics::default()
    }

    /// Adds `by` to the counter `name` (creating it at 0).
    pub fn incr(&mut self, name: &str, by: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += by;
    }

    /// Records `value` into the histogram `name` (creating it empty).
    pub fn observe(&mut self, name: &str, value: u64) {
        self.histograms
            .entry(name.to_string())
            .or_default()
            .record(value);
    }

    /// Current value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// A histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&Log2Histogram> {
        self.histograms.get(name)
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty()
    }

    /// Adds every counter and histogram of `other` into `self`.
    pub fn merge(&mut self, other: &Metrics) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_insert(0) += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
    }

    /// Derives the standard per-trial registry from raw probe records:
    /// one counter per event kind, magnitude counters for the fields
    /// that matter to failure attribution (sectors lost, ECC bits,
    /// recovery step values), and latency histograms for programs,
    /// erases, journal commits, and checkpoints.
    ///
    /// This is the fold an enabled [`crate::ProbeLog`] runs as each
    /// event fires, run here over a slice: both give the same registry.
    pub fn from_records(records: &[ProbeRecord]) -> Metrics {
        let mut fold = MetricsFold::default();
        for r in records {
            fold.add(&r.event);
        }
        fold.to_metrics()
    }
}

/// The magnitude counters the fold keeps, one slot each.
#[derive(Clone, Copy)]
enum Sum {
    JournalEntries,
    TornKept,
    TornLost,
    DirtyLost,
    MapLost,
    EccBits,
    DevicesCut,
    ChunksReconstructed,
    ChunksUnrecoverable,
}

impl Sum {
    const COUNT: usize = 9;
    /// Counter keys, in slot order.
    const NAMES: [&'static str; Sum::COUNT] = [
        "journal.entries",
        "journal.torn.kept-sectors",
        "journal.torn.lost-sectors",
        "power.dirty-sectors-lost",
        "power.map-sectors-lost",
        "ecc.corrected-bits",
        "fleet.devices-cut",
        "fleet.chunks-reconstructed",
        "fleet.chunks-unrecoverable",
    ];
}

/// The histograms the fold keeps, one slot each.
#[derive(Clone, Copy)]
enum Hist {
    ProgramUs,
    EraseUs,
    JournalCommitUs,
    CheckpointUs,
    DirtyAtEvict,
}

impl Hist {
    const COUNT: usize = 5;
    /// Histogram keys, in slot order.
    const NAMES: [&'static str; Hist::COUNT] = [
        "program.us",
        "erase.us",
        "journal.commit.us",
        "checkpoint.us",
        "cache.dirty-at-evict",
    ];
}

/// The per-trial metrics as a fixed table indexed by event kind,
/// recovery step and slot: folding an event costs a few array updates
/// and builds no key. [`MetricsFold::to_metrics`] names the table once.
///
/// A key exists in the registry iff something added to it, even a zero
/// (a `journal.commit` with no entries still creates
/// `journal.entries`), hence the `Option` slots.
#[derive(Debug, Clone)]
pub(crate) struct MetricsFold {
    kinds: [u64; ProbeEvent::KIND_COUNT],
    sums: [Option<u64>; Sum::COUNT],
    recovery: [Option<u64>; RecoveryStepKind::COUNT],
    histograms: [[u64; LOG2_BUCKETS]; Hist::COUNT],
}

impl Default for MetricsFold {
    fn default() -> Self {
        MetricsFold {
            kinds: [0; ProbeEvent::KIND_COUNT],
            sums: [None; Sum::COUNT],
            recovery: [None; RecoveryStepKind::COUNT],
            histograms: [[0; LOG2_BUCKETS]; Hist::COUNT],
        }
    }
}

impl MetricsFold {
    fn incr(&mut self, sum: Sum, by: u64) {
        *self.sums[sum as usize].get_or_insert(0) += by;
    }

    fn observe(&mut self, hist: Hist, value: u64) {
        self.histograms[hist as usize][Log2Histogram::bucket_index(value)] += 1;
    }

    /// Events of the kind at `index` folded so far.
    pub(crate) fn kind_count(&self, index: usize) -> u64 {
        self.kinds[index]
    }

    /// Folds one event into the table.
    #[inline]
    pub(crate) fn add(&mut self, event: &ProbeEvent) {
        self.kinds[event.index()] += 1;
        match *event {
            ProbeEvent::ProgramEnd { us, .. } => self.observe(Hist::ProgramUs, us),
            ProbeEvent::EraseEnd { us, .. } => self.observe(Hist::EraseUs, us),
            ProbeEvent::JournalCommit { entries, us, .. } => {
                self.incr(Sum::JournalEntries, entries);
                self.observe(Hist::JournalCommitUs, us);
            }
            ProbeEvent::JournalTorn { kept, full } => {
                self.incr(Sum::TornKept, kept);
                self.incr(Sum::TornLost, full.saturating_sub(kept));
            }
            ProbeEvent::CheckpointEnd { us, .. } => self.observe(Hist::CheckpointUs, us),
            ProbeEvent::CacheEvict { dirty, .. } => self.observe(Hist::DirtyAtEvict, dirty),
            ProbeEvent::VolatileLost { dirty, map } => {
                self.incr(Sum::DirtyLost, dirty);
                self.incr(Sum::MapLost, map);
            }
            ProbeEvent::EccCorrected { bits, .. } => self.incr(Sum::EccBits, bits),
            ProbeEvent::FleetOutage { devices, .. } => self.incr(Sum::DevicesCut, devices),
            ProbeEvent::FleetDegradedRead { missing, .. } => {
                self.incr(Sum::ChunksReconstructed, missing);
            }
            ProbeEvent::FleetStripeLost { unrecoverable, .. } => {
                self.incr(Sum::ChunksUnrecoverable, unrecoverable);
            }
            ProbeEvent::RecoveryStep { step, value } => {
                let by = match step {
                    RecoveryStepKind::MountAttempt | RecoveryStepKind::MountFailed => return,
                    // Steps whose payload is an identifier (stage index,
                    // block id), not a magnitude: count occurrences.
                    RecoveryStepKind::StageStarted
                    | RecoveryStepKind::StageInterrupted
                    | RecoveryStepKind::StageFailed
                    | RecoveryStepKind::Resumed
                    | RecoveryStepKind::BlockRetired
                    | RecoveryStepKind::ReadOnlyFallback => 1,
                    _ => value,
                };
                *self.recovery[step as usize].get_or_insert(0) += by;
            }
            _ => {}
        }
    }

    /// The folded table as a named registry.
    pub(crate) fn to_metrics(&self) -> Metrics {
        let mut m = Metrics::new();
        for (name, &n) in ProbeEvent::KINDS.iter().zip(&self.kinds) {
            if n > 0 {
                m.counters.insert(name.to_string(), n);
            }
        }
        for (name, sum) in Sum::NAMES.iter().zip(&self.sums) {
            if let Some(n) = *sum {
                m.counters.insert(name.to_string(), n);
            }
        }
        for (step, sum) in RecoveryStepKind::ALL.iter().zip(&self.recovery) {
            if let Some(n) = *sum {
                m.counters.insert(format!("recovery.{}", step.name()), n);
            }
        }
        for (name, buckets) in Hist::NAMES.iter().zip(&self.histograms) {
            if buckets.iter().any(|&n| n > 0) {
                m.histograms.insert(
                    name.to_string(),
                    Log2Histogram {
                        buckets: buckets.to_vec(),
                    },
                );
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{one_of_each, Layer};
    use crate::probe::ProbeLog;
    use pfault_sim::SimTime;

    #[test]
    fn bucket_indexing_is_log2() {
        assert_eq!(Log2Histogram::bucket_index(0), 0);
        assert_eq!(Log2Histogram::bucket_index(1), 1);
        assert_eq!(Log2Histogram::bucket_index(2), 2);
        assert_eq!(Log2Histogram::bucket_index(3), 2);
        assert_eq!(Log2Histogram::bucket_index(4), 3);
        assert_eq!(Log2Histogram::bucket_index(1023), 10);
        assert_eq!(Log2Histogram::bucket_index(1024), 11);
        assert_eq!(Log2Histogram::bucket_index(u64::MAX), 64);
        for i in 0..LOG2_BUCKETS {
            let lo = Log2Histogram::bucket_lower_bound(i);
            if i >= 1 {
                assert_eq!(Log2Histogram::bucket_index(lo.max(1)), i.max(1));
            }
        }
    }

    #[test]
    fn histogram_merge_is_addition() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        a.record(5);
        b.record(5);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.buckets()[Log2Histogram::bucket_index(5)], 2);
        assert_eq!(a.buckets()[Log2Histogram::bucket_index(100)], 1);
    }

    #[test]
    fn percentile_lower_bound_floor() {
        let mut h = Log2Histogram::new();
        for v in [1u64, 2, 4, 8, 1000] {
            h.record(v);
        }
        assert_eq!(h.percentile_lower_bound(50), Some(4));
        assert_eq!(h.percentile_lower_bound(100), Some(512));
        assert_eq!(Log2Histogram::new().percentile_lower_bound(50), None);
    }

    #[test]
    fn metrics_merge_sums_counters() {
        let mut a = Metrics::new();
        let mut b = Metrics::new();
        a.incr("x", 2);
        b.incr("x", 3);
        b.incr("y", 1);
        b.observe("h", 7);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("y"), 1);
        assert_eq!(a.histogram("h").map(|h| h.count()), Some(1));
    }

    #[test]
    fn from_records_counts_kinds_and_magnitudes() {
        let mut log = ProbeLog::enabled();
        let t = SimTime::from_micros(10);
        log.emit(
            t,
            Layer::Ftl,
            ProbeEvent::JournalCommit {
                entries: 4,
                coverage: 32,
                us: 200,
            },
        );
        log.emit(
            t,
            Layer::Power,
            ProbeEvent::VolatileLost { dirty: 9, map: 3 },
        );
        log.emit(
            t,
            Layer::Flash,
            ProbeEvent::EccCorrected {
                block: 1,
                page: 2,
                bits: 5,
            },
        );
        let m = Metrics::from_records(log.records());
        assert_eq!(m.counter("journal.commit"), 1);
        assert_eq!(m.counter("journal.entries"), 4);
        assert_eq!(m.counter("power.dirty-sectors-lost"), 9);
        assert_eq!(m.counter("power.map-sectors-lost"), 3);
        assert_eq!(m.counter("ecc.corrected-bits"), 5);
        assert_eq!(m.histogram("journal.commit.us").map(|h| h.count()), Some(1));
    }

    /// The String-keyed registry derivation the fold replaced, kept as
    /// the reference the fold must match key for key.
    fn string_keyed_from_records(records: &[ProbeRecord]) -> Metrics {
        let mut m = Metrics::new();
        for r in records {
            m.incr(r.event.kind(), 1);
            match r.event {
                ProbeEvent::ProgramEnd { us, .. } => m.observe("program.us", us),
                ProbeEvent::EraseEnd { us, .. } => m.observe("erase.us", us),
                ProbeEvent::JournalCommit { entries, us, .. } => {
                    m.incr("journal.entries", entries);
                    m.observe("journal.commit.us", us);
                }
                ProbeEvent::JournalTorn { kept, full } => {
                    m.incr("journal.torn.kept-sectors", kept);
                    m.incr("journal.torn.lost-sectors", full.saturating_sub(kept));
                }
                ProbeEvent::CheckpointEnd { us, .. } => m.observe("checkpoint.us", us),
                ProbeEvent::CacheEvict { dirty, .. } => m.observe("cache.dirty-at-evict", dirty),
                ProbeEvent::VolatileLost { dirty, map } => {
                    m.incr("power.dirty-sectors-lost", dirty);
                    m.incr("power.map-sectors-lost", map);
                }
                ProbeEvent::EccCorrected { bits, .. } => m.incr("ecc.corrected-bits", bits),
                ProbeEvent::FleetOutage { devices, .. } => {
                    m.incr("fleet.devices-cut", devices);
                }
                ProbeEvent::FleetDegradedRead { missing, .. } => {
                    m.incr("fleet.chunks-reconstructed", missing);
                }
                ProbeEvent::FleetStripeLost { unrecoverable, .. } => {
                    m.incr("fleet.chunks-unrecoverable", unrecoverable);
                }
                ProbeEvent::RecoveryStep { step, value } => match step {
                    RecoveryStepKind::MountAttempt | RecoveryStepKind::MountFailed => {}
                    RecoveryStepKind::StageStarted
                    | RecoveryStepKind::StageInterrupted
                    | RecoveryStepKind::StageFailed
                    | RecoveryStepKind::Resumed
                    | RecoveryStepKind::BlockRetired
                    | RecoveryStepKind::ReadOnlyFallback => {
                        m.incr(&format!("recovery.{}", step.name()), 1);
                    }
                    _ => m.incr(&format!("recovery.{}", step.name()), value),
                },
                _ => {}
            }
        }
        m
    }

    /// Emits `events` into an enabled log, one microsecond apart.
    fn logged(events: &[ProbeEvent]) -> ProbeLog {
        let mut log = ProbeLog::enabled();
        for (i, &e) in events.iter().enumerate() {
            log.emit(SimTime::from_micros(i as u64), Layer::Host, e);
        }
        log
    }

    #[test]
    fn fold_matches_the_string_keyed_derivation_on_every_event() {
        let steps = |v: u64| {
            RecoveryStepKind::ALL
                .iter()
                .map(move |&step| ProbeEvent::RecoveryStep { step, value: v })
        };
        // Every variant and every recovery step, at zero magnitude (the
        // keys must still appear), at a small one, and at a large one;
        // plus a torn batch that kept more than a whole batch.
        let mut events = Vec::new();
        for v in [0, 3, 1 << 40] {
            events.extend(one_of_each(v));
            events.extend(steps(v));
        }
        events.push(ProbeEvent::JournalTorn { kept: 9, full: 4 });
        let log = logged(&events);
        let want = string_keyed_from_records(log.records());
        assert_eq!(Metrics::from_records(log.records()), want);
        assert_eq!(log.metrics(), want, "the emit-time fold diverged");

        // Zero magnitudes alone still create their keys.
        let zeros = logged(&[
            ProbeEvent::JournalCommit {
                entries: 0,
                coverage: 0,
                us: 0,
            },
            ProbeEvent::VolatileLost { dirty: 0, map: 0 },
            ProbeEvent::RecoveryStep {
                step: RecoveryStepKind::BatchReplayed,
                value: 0,
            },
        ]);
        let m = zeros.metrics();
        assert_eq!(m, string_keyed_from_records(zeros.records()));
        for key in [
            "journal.entries",
            "power.dirty-sectors-lost",
            "power.map-sectors-lost",
            "recovery.batch-replayed",
        ] {
            assert_eq!(m.counters.get(key), Some(&0), "{key} must exist at 0");
        }
        assert_eq!(m.histogram("journal.commit.us").map(|h| h.count()), Some(1));

        // Each event alone, so no key can hide behind another's.
        for e in events {
            let one = logged(&[e]);
            assert_eq!(
                one.metrics(),
                string_keyed_from_records(one.records()),
                "{e:?}"
            );
        }
        assert!(Metrics::from_records(&[]).is_empty());
    }

    #[test]
    fn serialisation_is_sorted_and_stable() {
        let mut m = Metrics::new();
        m.incr("zebra", 1);
        m.incr("alpha", 2);
        m.observe("lat", 33);
        let a = serde_json::to_string(&m).expect("serialises");
        let b = serde_json::to_string(&m.clone()).expect("serialises");
        assert_eq!(a, b);
        assert!(a.find("alpha").expect("alpha") < a.find("zebra").expect("zebra"));
        let back: Metrics = serde_json::from_str(&a).expect("round-trips");
        assert_eq!(back, m);
    }
}
