//! The probe bus: an append-only, zero-cost-when-disabled event log
//! that folds each event into the trial's [`Metrics`] as it fires.
//!
//! Mirrors the proven `SiteLog` pattern from `pfault-ssd`: a single
//! check guards every emit, so a disabled log costs one branch and no
//! allocation. Hot paths should use [`ProbeLog::emit_with`] so
//! the event payload itself is never built while disabled.

use pfault_sim::SimTime;
use serde::{Deserialize, Serialize};

use crate::event::{Layer, ProbeEvent};
use crate::metrics::{Metrics, MetricsFold};

/// One emitted probe event with its full provenance tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeRecord {
    /// Emission sequence number within the trial, starting at 0.
    pub seq: u64,
    /// Simulated time of the event, in microseconds.
    pub time_us: u64,
    /// Layer that emitted the event.
    pub layer: Layer,
    /// Host request id the event is attributable to, when one exists.
    pub request: Option<u64>,
    /// Fault-site span index (`SiteLog` span number) the event belongs
    /// to, when site recording is also enabled.
    pub span: Option<u64>,
    /// The typed payload.
    pub event: ProbeEvent,
}

/// Append-only probe sink. Disabled (and free) by default.
///
/// An enabled log folds every event into its metrics table as it fires
/// ([`ProbeLog::metrics`]) and, unless it was enabled for metrics only,
/// also keeps the event as a [`ProbeRecord`].
#[derive(Debug, Clone, Default)]
pub struct ProbeLog {
    /// The metrics table; `None` while disabled.
    fold: Option<Box<MetricsFold>>,
    /// Whether emitted events are also stored as records.
    keep_records: bool,
    records: Vec<ProbeRecord>,
}

impl ProbeLog {
    /// Creates a disabled log: every emit is a no-op.
    pub fn new() -> Self {
        ProbeLog::default()
    }

    /// Creates a log that records from the first event.
    pub fn enabled() -> Self {
        let mut log = ProbeLog::new();
        log.enable();
        log
    }

    /// Starts recording: events fold into the metrics and are kept as
    /// records.
    pub fn enable(&mut self) {
        self.fold.get_or_insert_with(Box::default);
        self.keep_records = true;
    }

    /// Starts folding events into the metrics without keeping records:
    /// for callers that read only [`ProbeLog::metrics`].
    pub fn enable_metrics_only(&mut self) {
        self.fold.get_or_insert_with(Box::default);
        self.keep_records = false;
    }

    /// Whether events are being folded (and perhaps kept as records).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.fold.is_some()
    }

    /// Emits an untagged event (no request/span attribution).
    #[inline]
    pub fn emit(&mut self, time: SimTime, layer: Layer, event: ProbeEvent) {
        if !self.is_enabled() {
            return;
        }
        self.push(time, layer, None, None, event);
    }

    /// Emits an event tagged with a request id and/or fault-site span.
    #[inline]
    pub fn emit_tagged(
        &mut self,
        time: SimTime,
        layer: Layer,
        request: Option<u64>,
        span: Option<u64>,
        event: ProbeEvent,
    ) {
        if !self.is_enabled() {
            return;
        }
        self.push(time, layer, request, span, event);
    }

    /// Emits an event whose payload (and tags) are only computed when
    /// the log is enabled — use on hot paths where building the event
    /// would itself cost something.
    #[inline]
    pub fn emit_with<F>(&mut self, time: SimTime, layer: Layer, build: F)
    where
        F: FnOnce() -> (Option<u64>, Option<u64>, ProbeEvent),
    {
        if !self.is_enabled() {
            return;
        }
        let (request, span, event) = build();
        self.push(time, layer, request, span, event);
    }

    fn push(
        &mut self,
        time: SimTime,
        layer: Layer,
        request: Option<u64>,
        span: Option<u64>,
        event: ProbeEvent,
    ) {
        let Some(fold) = self.fold.as_deref_mut() else {
            return;
        };
        fold.add(&event);
        if self.keep_records {
            let seq = self.records.len() as u64;
            self.records.push(ProbeRecord {
                seq,
                time_us: time.as_micros(),
                layer,
                request,
                span,
                event,
            });
        }
    }

    /// All records kept so far, in emission order.
    pub fn records(&self) -> &[ProbeRecord] {
        &self.records
    }

    /// Drains the records out of the log (the log stays enabled).
    pub fn take_records(&mut self) -> Vec<ProbeRecord> {
        std::mem::take(&mut self.records)
    }

    /// Number of records kept.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no record is kept.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The metrics folded from every event emitted so far: equal to
    /// [`Metrics::from_records`] over the same events (empty while
    /// disabled).
    pub fn metrics(&self) -> Metrics {
        self.fold
            .as_deref()
            .map_or_else(Metrics::new, MetricsFold::to_metrics)
    }

    /// Count of events emitted so far whose kind equals `kind` (dotted
    /// name), whether or not they were kept as records.
    pub fn count_kind(&self, kind: &str) -> u64 {
        let Some(fold) = self.fold.as_deref() else {
            return 0;
        };
        ProbeEvent::KINDS
            .iter()
            .position(|k| *k == kind)
            .map_or(0, |i| fold.kind_count(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_log_is_a_no_op() {
        let mut log = ProbeLog::new();
        log.emit(
            SimTime::from_micros(5),
            Layer::Cache,
            ProbeEvent::CacheInsert { lba: 1, dirty: 1 },
        );
        let mut built = false;
        log.emit_with(SimTime::from_micros(6), Layer::Flash, || {
            built = true;
            (None, None, ProbeEvent::EraseStart { block: 0 })
        });
        assert!(log.is_empty());
        assert!(
            !built,
            "emit_with must not build the payload while disabled"
        );
    }

    #[test]
    fn sequence_numbers_are_dense_and_ordered() {
        let mut log = ProbeLog::enabled();
        for i in 0..4u64 {
            log.emit(
                SimTime::from_micros(i),
                Layer::Flash,
                ProbeEvent::EraseStart { block: i },
            );
        }
        let seqs: Vec<u64> = log.records().iter().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![0, 1, 2, 3]);
        assert_eq!(log.count_kind("erase.start"), 4);
    }

    #[test]
    fn tags_are_preserved() {
        let mut log = ProbeLog::enabled();
        log.emit_tagged(
            SimTime::from_micros(9),
            Layer::Ftl,
            Some(7),
            Some(2),
            ProbeEvent::GcMove {
                lba: 3,
                from_block: 1,
                to_block: 2,
            },
        );
        let r = log.records()[0];
        assert_eq!(r.request, Some(7));
        assert_eq!(r.span, Some(2));
        assert_eq!(r.time_us, 9);
        assert_eq!(r.layer, Layer::Ftl);
    }

    #[test]
    fn metrics_only_log_folds_without_keeping_records() {
        let mut kept = ProbeLog::enabled();
        let mut folded = ProbeLog::new();
        folded.enable_metrics_only();
        for log in [&mut kept, &mut folded] {
            for i in 0..3u64 {
                log.emit(
                    SimTime::from_micros(i),
                    Layer::Flash,
                    ProbeEvent::EraseEnd {
                        block: i,
                        us: 100 * i,
                    },
                );
            }
        }
        assert!(folded.is_enabled());
        assert!(folded.is_empty(), "a metrics-only log keeps no record");
        assert_eq!(folded.count_kind("erase.end"), 3);
        assert_eq!(kept.len(), 3);
        assert_eq!(folded.metrics(), kept.metrics());
        assert_eq!(kept.metrics(), Metrics::from_records(kept.records()));
        assert!(ProbeLog::new().metrics().is_empty());
    }
}
