//! The tracer: records block-layer events and splits large requests.
//!
//! The kernel block layer splits requests larger than the device's segment
//! limit into sub-requests; the paper modified `btt` specifically to trace
//! those ("the large size requests which are divided to more than one
//! request"). [`split`] performs that split; [`BlockTracer`] applies it at
//! queue time and records one event stream for the post-processor.

use pfault_sim::{Lba, SectorCount, SimTime};

use crate::event::{TraceAction, TraceEvent};

/// One sub-request produced by splitting at the segment limit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubRequest {
    /// Parent request identifier.
    pub request_id: u64,
    /// Index of this fragment within the parent.
    pub sub_id: u32,
    /// Starting sector.
    pub lba: Lba,
    /// Fragment length.
    pub sectors: SectorCount,
    /// Write or read.
    pub is_write: bool,
}

/// Splits a request at the segment limit into the sub-requests the
/// device sees, in ascending LBA order (`sub_id` 0, 1, …); the last one
/// carries the remainder. A zero-sector request yields no sub-request.
///
/// # Panics
///
/// Panics if `max_segment` is zero sectors.
pub fn split(
    request_id: u64,
    lba: Lba,
    sectors: SectorCount,
    is_write: bool,
    max_segment: SectorCount,
) -> Vec<SubRequest> {
    assert!(max_segment.get() > 0, "segment limit must be positive");
    let mut subs = Vec::new();
    let mut remaining = sectors.get();
    let mut cursor = lba;
    let mut sub_id = 0u32;
    while remaining > 0 {
        let take = SectorCount::new(remaining.min(max_segment.get()));
        subs.push(SubRequest {
            request_id,
            sub_id,
            lba: cursor,
            sectors: take,
            is_write,
        });
        cursor += take;
        remaining -= take.get();
        sub_id += 1;
    }
    subs
}

/// Records block-layer events for later `btt`-style analysis.
///
/// See the crate-level docs for an example.
#[derive(Debug, Clone)]
pub struct BlockTracer {
    max_segment: SectorCount,
    events: Vec<TraceEvent>,
}

impl BlockTracer {
    /// Creates a tracer with the device's segment limit (sub-request split
    /// size).
    ///
    /// # Panics
    ///
    /// Panics if `max_segment` is zero sectors.
    pub fn new(max_segment: SectorCount) -> Self {
        assert!(max_segment.get() > 0, "segment limit must be positive");
        BlockTracer {
            max_segment,
            events: Vec::new(),
        }
    }

    /// The configured segment limit.
    pub fn max_segment(&self) -> SectorCount {
        self.max_segment
    }

    /// Queues a request: records `Q`, performs the [`split`], records `X`
    /// per extra fragment, and returns the sub-requests the device will see.
    pub fn queue_request(
        &mut self,
        request_id: u64,
        lba: Lba,
        sectors: SectorCount,
        is_write: bool,
        now: SimTime,
    ) -> Vec<SubRequest> {
        self.events.push(TraceEvent {
            time: now,
            action: TraceAction::Queued,
            request_id,
            sub_id: 0,
            lba,
            sectors,
            is_write,
        });
        let subs = split(request_id, lba, sectors, is_write, self.max_segment);
        for sub in subs.iter().skip(1) {
            self.events.push(TraceEvent {
                time: now,
                action: TraceAction::Split,
                request_id,
                sub_id: sub.sub_id,
                lba: sub.lba,
                sectors: sub.sectors,
                is_write,
            });
        }
        subs
    }

    fn find_sub(&self, request_id: u64, sub_id: u32) -> Option<TraceEvent> {
        // The queue event carries the request geometry; splits carry the
        // fragment geometry.
        self.events
            .iter()
            .rev()
            .find(|e| {
                e.request_id == request_id
                    && e.sub_id == sub_id
                    && matches!(e.action, TraceAction::Queued | TraceAction::Split)
            })
            .copied()
    }

    /// Records a dispatch (`D`) of one sub-request.
    ///
    /// # Panics
    ///
    /// Panics if the sub-request was never queued.
    pub fn dispatch(&mut self, request_id: u64, sub_id: u32, now: SimTime) {
        let origin = self
            .find_sub(request_id, sub_id)
            .expect("dispatch of unqueued sub-request");
        self.events.push(TraceEvent {
            time: now,
            action: TraceAction::Dispatched,
            ..origin
        });
    }

    /// Records a completion (`C`) of one sub-request.
    ///
    /// # Panics
    ///
    /// Panics if the sub-request was never queued.
    pub fn complete(&mut self, request_id: u64, sub_id: u32, now: SimTime) {
        let origin = self
            .find_sub(request_id, sub_id)
            .expect("completion of unqueued sub-request");
        self.events.push(TraceEvent {
            time: now,
            action: TraceAction::Completed,
            ..origin
        });
    }

    /// Records a device error for one sub-request (e.g. the device
    /// disappeared mid-discharge).
    ///
    /// # Panics
    ///
    /// Panics if the sub-request was never queued.
    pub fn error(&mut self, request_id: u64, sub_id: u32, now: SimTime) {
        let origin = self
            .find_sub(request_id, sub_id)
            .expect("error on unqueued sub-request");
        self.events.push(TraceEvent {
            time: now,
            action: TraceAction::Error,
            ..origin
        });
    }

    /// The recorded event stream, in insertion order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Renders the whole trace in `blkparse`-like text form.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }

    /// Drops all recorded events (new campaign trial).
    pub fn clear(&mut self) {
        self.events.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::SimDuration;

    #[test]
    fn small_request_is_single_sub() {
        let mut t = BlockTracer::new(SectorCount::new(128));
        let subs = t.queue_request(1, Lba::new(10), SectorCount::new(8), true, SimTime::ZERO);
        assert_eq!(subs.len(), 1);
        assert_eq!(subs[0].lba, Lba::new(10));
        assert_eq!(subs[0].sectors, SectorCount::new(8));
        assert_eq!(t.events().len(), 1); // only Q
    }

    #[test]
    fn large_request_splits_at_segment_limit() {
        let mut t = BlockTracer::new(SectorCount::new(128));
        // 1 MiB = 256 sectors → two fragments of 128.
        let subs = t.queue_request(2, Lba::new(0), SectorCount::new(256), true, SimTime::ZERO);
        assert_eq!(subs.len(), 2);
        assert_eq!(subs[0].lba, Lba::new(0));
        assert_eq!(subs[1].lba, Lba::new(128));
        assert_eq!(subs[1].sub_id, 1);
        // Q + one X event.
        assert_eq!(t.events().len(), 2);
    }

    #[test]
    fn uneven_split_has_short_tail() {
        let mut t = BlockTracer::new(SectorCount::new(100));
        let subs = t.queue_request(3, Lba::new(0), SectorCount::new(250), false, SimTime::ZERO);
        assert_eq!(subs.len(), 3);
        assert_eq!(subs[2].sectors, SectorCount::new(50));
        assert!(!subs[2].is_write);
    }

    #[test]
    fn split_is_what_the_tracer_queues() {
        let mut t = BlockTracer::new(SectorCount::new(100));
        let queued = t.queue_request(4, Lba::new(7), SectorCount::new(250), true, SimTime::ZERO);
        let segment = SectorCount::new(100);
        let subs = split(4, Lba::new(7), SectorCount::new(250), true, segment);
        assert_eq!(subs, queued);
        let empty = split(5, Lba::new(0), SectorCount::new(0), true, segment);
        assert!(empty.is_empty());
    }

    #[test]
    fn lifecycle_events_recorded_in_order() {
        let mut t = BlockTracer::new(SectorCount::new(128));
        t.queue_request(1, Lba::new(0), SectorCount::new(4), true, SimTime::ZERO);
        t.dispatch(1, 0, SimTime::from_millis(1));
        t.complete(1, 0, SimTime::from_millis(2));
        let actions: Vec<TraceAction> = t.events().iter().map(|e| e.action).collect();
        assert_eq!(
            actions,
            vec![
                TraceAction::Queued,
                TraceAction::Dispatched,
                TraceAction::Completed
            ]
        );
    }

    #[test]
    #[should_panic(expected = "dispatch of unqueued sub-request")]
    fn dispatch_requires_queue() {
        let mut t = BlockTracer::new(SectorCount::new(128));
        t.dispatch(9, 0, SimTime::ZERO);
    }

    #[test]
    fn error_events_supported() {
        let mut t = BlockTracer::new(SectorCount::new(128));
        t.queue_request(1, Lba::new(0), SectorCount::new(4), true, SimTime::ZERO);
        t.dispatch(1, 0, SimTime::from_millis(1));
        t.error(1, 0, SimTime::from_millis(2));
        assert_eq!(t.events().last().unwrap().action, TraceAction::Error);
    }

    #[test]
    fn text_render_and_clear() {
        let mut t = BlockTracer::new(SectorCount::new(128));
        t.queue_request(
            1,
            Lba::new(0),
            SectorCount::new(4),
            true,
            SimTime::ZERO + SimDuration::from_millis(1),
        );
        let text = t.to_text();
        assert!(text.contains("Q W 0 + 4"));
        t.clear();
        assert!(t.events().is_empty());
    }
}
