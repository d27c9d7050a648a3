//! Per-request bookkeeping — the platform's copy of the Fig 2 header.

use pfault_flash::array::PageData;
use pfault_sim::SimTime;
use pfault_workload::DataPacket;

/// A request's life-cycle record on the platform side.
#[derive(Debug, Clone)]
pub struct RequestRecord {
    /// The generated packet (size, address, payload identity).
    pub packet: DataPacket,
    /// Content of each target sector *before* this request was issued
    /// (`None` = never written) — the Fig 2 "initial checksum".
    pub pre_issue: Vec<Option<PageData>>,
    /// When the request was queued at the block layer.
    pub queued_at: SimTime,
    /// When the host received the ACK for the whole request, if it did.
    pub acked_at: Option<SimTime>,
    /// Sub-requests acknowledged so far.
    pub subs_acked: u32,
    /// Sub-requests that errored.
    pub subs_errored: u32,
    /// Total sub-requests.
    pub sub_count: u32,
}

impl RequestRecord {
    /// Creates a record at queue time.
    pub fn new(
        packet: DataPacket,
        pre_issue: Vec<Option<PageData>>,
        sub_count: u32,
        queued_at: SimTime,
    ) -> Self {
        RequestRecord {
            packet,
            pre_issue,
            queued_at,
            acked_at: None,
            subs_acked: 0,
            subs_errored: 0,
            sub_count,
        }
    }

    /// Registers one sub-request ACK; sets `acked_at` when the last one
    /// lands (the paper's "ACK received in the application layer").
    pub fn note_sub_ack(&mut self, at: SimTime) {
        self.subs_acked += 1;
        if self.subs_acked >= self.sub_count && self.acked_at.is_none() {
            self.acked_at = Some(at);
        }
    }

    /// Registers one sub-request device error.
    pub fn note_sub_error(&mut self) {
        self.subs_errored += 1;
    }

    /// Whether the host saw the whole request complete.
    pub fn completed(&self) -> bool {
        self.acked_at.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_sim::{Lba, SectorCount};

    fn packet() -> DataPacket {
        DataPacket {
            id: 1,
            lba: Lba::new(0),
            sectors: SectorCount::new(4),
            is_write: true,
            arrival: SimTime::ZERO,
            payload_tag: 9,
        }
    }

    #[test]
    fn ack_completes_after_all_subs() {
        let mut r = RequestRecord::new(packet(), vec![None; 4], 2, SimTime::ZERO);
        assert!(!r.completed());
        r.note_sub_ack(SimTime::from_millis(1));
        assert!(!r.completed());
        r.note_sub_ack(SimTime::from_millis(3));
        assert!(r.completed());
        assert_eq!(r.acked_at, Some(SimTime::from_millis(3)));
    }

    /// The request ledger and the block-layer trace must agree on the
    /// §III-B flag: fed the same completion stream, `btt` calls a request
    /// completed exactly when its record does, at the same instant. Every
    /// sub count from 1 to 4 meets every fate of every sub (acked,
    /// errored, never answered); answers arrive in nondecreasing time
    /// order, as `Ssd::drain_completions` hands them out, here with later
    /// fragments first and with ties.
    #[test]
    fn ledger_agrees_with_btt_on_every_sub_fate() {
        use pfault_sim::SimDuration;
        use pfault_trace::{btt, BlockTracer};

        #[derive(Clone, Copy)]
        enum Fate {
            Acked,
            Errored,
            Unanswered,
        }
        const FATES: [Fate; 3] = [Fate::Acked, Fate::Errored, Fate::Unanswered];
        let segment = SectorCount::new(8);
        let mut request_id = 0u64;
        for subs in 1..=4u32 {
            for combo in 0..3usize.pow(subs) {
                request_id += 1;
                let fates: Vec<Fate> = (0..subs)
                    .map(|i| FATES[combo / 3usize.pow(i) % 3])
                    .collect();
                let packet = DataPacket {
                    id: request_id,
                    sectors: SectorCount::new(8 * u64::from(subs) - 3),
                    ..packet()
                };
                let mut tracer = BlockTracer::new(segment);
                let fragments = tracer.queue_request(
                    packet.id,
                    packet.lba,
                    packet.sectors,
                    packet.is_write,
                    SimTime::ZERO,
                );
                assert_eq!(fragments.len(), subs as usize);
                let mut record = RequestRecord::new(
                    packet,
                    vec![None; packet.sectors.get() as usize],
                    subs,
                    SimTime::ZERO,
                );
                for sub in &fragments {
                    tracer.dispatch(packet.id, sub.sub_id, SimTime::ZERO);
                }
                for (k, sub) in fragments.iter().rev().enumerate() {
                    let at = SimTime::from_millis(1 + k as u64 / 2);
                    match fates[sub.sub_id as usize] {
                        Fate::Acked => {
                            tracer.complete(packet.id, sub.sub_id, at);
                            record.note_sub_ack(at);
                        }
                        Fate::Errored => {
                            tracer.error(packet.id, sub.sub_id, at);
                            record.note_sub_error();
                        }
                        Fate::Unanswered => {}
                    }
                }
                let report = btt::analyze(
                    tracer.events(),
                    SimDuration::from_secs(30),
                    SimTime::from_millis(10),
                );
                let io = report.io(packet.id).expect("request traced");
                let case = format!("{subs} subs, fate combination {combo}");
                assert_eq!(io.completed, record.completed(), "{case}");
                assert_eq!(io.completed_at, record.acked_at, "{case}");
            }
        }
    }

    #[test]
    fn errors_do_not_complete() {
        let mut r = RequestRecord::new(packet(), vec![None; 4], 2, SimTime::ZERO);
        r.note_sub_ack(SimTime::from_millis(1));
        r.note_sub_error();
        assert!(!r.completed());
        assert_eq!(r.subs_errored, 1);
    }
}
