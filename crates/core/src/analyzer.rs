//! The Analyzer: post-recovery failure classification (§III-B).
//!
//! After every fault injection the platform powers the device back up and
//! verifies every tracked request by reading its target range and
//! comparing checksums, exactly as the paper's Analyzer does with the
//! `completed` / `notApplied` flags:
//!
//! | `completed` | `notApplied` | verdict |
//! |-------------|--------------|---------|
//! | 1 | 1 | **FWA** — ACKed, but the range still holds its pre-issue content |
//! | 1 | 0, checksum mismatch | **data failure** |
//! | 0 | — | **IO error** — issued while the device was unavailable |
//!
//! A sector whose post-fault content is neither the written data nor the
//! pre-issue data (garbage, uncorrectable, or a partially-applied range)
//! is a data failure; a range that *fully* reverted is an FWA.

use serde::{Deserialize, Serialize};

use pfault_ssd::device::{Ssd, VerifiedContent};

use crate::oracle::Oracle;
use crate::record::RequestRecord;

/// Failure classification of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FailureKind {
    /// The request's data is intact (or the request was a completed read).
    None,
    /// Completed, but reads back wrong (garbage / unreadable / partially
    /// applied).
    DataFailure,
    /// Completed, but the whole range still holds pre-issue content.
    FalseWriteAck,
    /// Never completed: issued while the device was unavailable.
    IoError,
}

/// Verdict for one request, with per-sector tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RequestVerdict {
    /// Request identifier.
    pub request_id: u64,
    /// Classification.
    pub kind: FailureKind,
    /// Sectors whose expectation this request still owns (not
    /// superseded by a later write) and that were therefore checked.
    pub sectors_checked: u64,
    /// Checked sectors that read back as the written data.
    pub sectors_intact: u64,
    /// Checked sectors that reverted to pre-issue content.
    pub sectors_reverted: u64,
    /// Checked sectors that read back as garbage or unreadable.
    pub sectors_garbage: u64,
}

/// Classifies one request after recovery.
///
/// Write requests are verified sector-by-sector against the oracle;
/// sectors overwritten by a *later acknowledged* request are skipped (the
/// later writer owns their expectation). Reads cannot lose data: a
/// completed read is [`FailureKind::None`], an incomplete one an
/// [`FailureKind::IoError`].
pub fn classify_request(record: &RequestRecord, oracle: &Oracle, ssd: &mut Ssd) -> RequestVerdict {
    let id = record.packet.id;
    if !record.completed() {
        return RequestVerdict {
            request_id: id,
            kind: FailureKind::IoError,
            sectors_checked: 0,
            sectors_intact: 0,
            sectors_reverted: 0,
            sectors_garbage: 0,
        };
    }
    if !record.packet.is_write {
        return RequestVerdict {
            request_id: id,
            kind: FailureKind::None,
            sectors_checked: 0,
            sectors_intact: 0,
            sectors_reverted: 0,
            sectors_garbage: 0,
        };
    }

    let mut checked = 0;
    let mut intact = 0;
    let mut reverted = 0;
    let mut garbage = 0;
    for (i, lba) in record.packet.lbas().enumerate() {
        let owns = oracle.expected(lba).is_some_and(|v| v.writer == id);
        if !owns {
            continue; // superseded by a later acknowledged write
        }
        checked += 1;
        let expected = pfault_flash::array::PageData::from_tag(record.packet.sector_tag(i as u64));
        let prior = record.pre_issue[i];
        match ssd.verify_read(lba) {
            VerifiedContent::Written(d) if d == expected => intact += 1,
            VerifiedContent::Written(d) if Some(d) == prior => reverted += 1,
            VerifiedContent::Unwritten if prior.is_none() => reverted += 1,
            _ => garbage += 1,
        }
    }

    let kind = if garbage > 0 {
        FailureKind::DataFailure
    } else if reverted > 0 && intact == 0 {
        FailureKind::FalseWriteAck
    } else if reverted > 0 {
        // Partially applied: checksum of the range matches neither the
        // written nor the pre-issue data.
        FailureKind::DataFailure
    } else {
        FailureKind::None
    };
    RequestVerdict {
        request_id: id,
        kind,
        sectors_checked: checked,
        sectors_intact: intact,
        sectors_reverted: reverted,
        sectors_garbage: garbage,
    }
}

/// Aggregated failure counts for one trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FailureCounts {
    /// Requests classified as data failures (excluding FWA).
    pub data_failures: u64,
    /// Requests classified as FWA.
    pub fwa: u64,
    /// Requests classified as IO errors.
    pub io_errors: u64,
    /// Requests verified intact.
    pub intact: u64,
    /// Trials whose device never mounted again after the fault — the
    /// per-request verdicts above do not exist for these, so the device
    /// loss itself is tallied as a first-class failure.
    pub bricked_devices: u64,
    /// Trials whose device came back from recovery degraded to read-only
    /// mode (spare blocks exhausted or late recovery stages kept dying).
    /// The per-request verdicts exist — reads still serve — but the
    /// write path is gone, so the degradation is tallied separately.
    pub read_only_devices: u64,
    /// Fleet-layer stripes declared unrecoverable (more than k chunks
    /// down after per-device mechanistic recovery). Zero for
    /// single-device campaigns.
    pub stripes_lost: u64,
    /// Fleet-layer reads that needed erasure-coded reconstruction.
    pub degraded_reads: u64,
    /// Fleet-layer rebuild passes interrupted by an exhausted bandwidth
    /// budget (a second outage arriving before repair finished).
    pub rebuilds_interrupted: u64,
    /// Application-layer divergences the KV oracle saw *surfaced* as
    /// errors (failed reads, detectably corrupt keys, lost stores).
    /// Zero for campaigns without an application layer.
    pub app_surfaced: u64,
    /// Application-layer outages fully *masked* by WAL replay and
    /// checkpoint rollback: every acknowledged operation intact.
    pub app_masked: u64,
    /// Application-layer *silent poison*: acknowledged data served wrong
    /// after recovery with no error anywhere — the app-level analogue of
    /// the paper's false write acknowledgment.
    pub app_silent_poison: u64,
}

impl FailureCounts {
    /// Total data-loss events (data failures + FWA) — the paper treats
    /// FWA as "a type of data failure".
    pub fn total_data_loss(&self) -> u64 {
        self.data_failures + self.fwa
    }

    /// Adds one verdict to the tally.
    pub fn add(&mut self, verdict: &RequestVerdict) {
        match verdict.kind {
            FailureKind::None => self.intact += 1,
            FailureKind::DataFailure => self.data_failures += 1,
            FailureKind::FalseWriteAck => self.fwa += 1,
            FailureKind::IoError => self.io_errors += 1,
        }
    }

    /// Merges another tally into this one.
    pub fn merge(&mut self, other: &FailureCounts) {
        self.data_failures += other.data_failures;
        self.fwa += other.fwa;
        self.io_errors += other.io_errors;
        self.intact += other.intact;
        self.bricked_devices += other.bricked_devices;
        self.read_only_devices += other.read_only_devices;
        self.stripes_lost += other.stripes_lost;
        self.degraded_reads += other.degraded_reads;
        self.rebuilds_interrupted += other.rebuilds_interrupted;
        self.app_surfaced += other.app_surfaced;
        self.app_masked += other.app_masked;
        self.app_silent_poison += other.app_silent_poison;
    }
}

/// Classifies every record and tallies the counts. Verdicts for sectors
/// whose expectation is owned elsewhere are still returned (kind `None`
/// with zero checked sectors).
pub fn classify_all(
    records: &[RequestRecord],
    oracle: &Oracle,
    ssd: &mut Ssd,
) -> (Vec<RequestVerdict>, FailureCounts) {
    let mut counts = FailureCounts::default();
    let verdicts: Vec<RequestVerdict> = records
        .iter()
        .map(|r| {
            let v = classify_request(r, oracle, ssd);
            counts.add(&v);
            v
        })
        .collect();
    (verdicts, counts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfault_flash::array::PageData;
    use pfault_sim::{DetRng, Lba, SectorCount, SimTime};
    use pfault_ssd::device::HostCommand;
    use pfault_ssd::vendor::VendorPreset;
    use pfault_workload::DataPacket;

    fn small_ssd() -> Ssd {
        let mut config = VendorPreset::SsdA.config();
        config.geometry = pfault_flash::FlashGeometry::new(256, 64);
        config.ftl = pfault_ftl::FtlConfig::for_geometry(config.geometry);
        Ssd::new(config, DetRng::new(3))
    }

    fn packet(id: u64, lba: u64, sectors: u64, is_write: bool) -> DataPacket {
        DataPacket {
            id,
            lba: Lba::new(lba),
            sectors: SectorCount::new(sectors),
            is_write,
            arrival: SimTime::ZERO,
            payload_tag: id.wrapping_mul(0x9E37),
        }
    }

    /// Writes a packet through the device and quiesces, returning its
    /// completed record and updating the oracle.
    fn write_durably(ssd: &mut Ssd, oracle: &mut Oracle, pkt: DataPacket) -> RequestRecord {
        let pre: Vec<Option<PageData>> = pkt
            .lbas()
            .map(|l| oracle.expected(l).map(|v| v.data))
            .collect();
        let mut rec = RequestRecord::new(pkt, pre, 1, ssd.now());
        ssd.submit(HostCommand::write(
            pkt.id,
            0,
            pkt.lba,
            pkt.sectors,
            pkt.payload_tag,
        ));
        ssd.advance_to(ssd.now() + pfault_sim::SimDuration::from_millis(50));
        let comps = ssd.drain_completions();
        assert!(comps.iter().any(|c| c.acked()));
        rec.note_sub_ack(comps[0].time);
        for (i, lba) in pkt.lbas().enumerate() {
            oracle.acknowledge_write(lba, PageData::from_tag(pkt.sector_tag(i as u64)), pkt.id);
        }
        ssd.quiesce();
        rec
    }

    #[test]
    fn intact_write_classifies_as_none() {
        let mut ssd = small_ssd();
        let mut oracle = Oracle::new();
        let rec = write_durably(&mut ssd, &mut oracle, packet(1, 0, 4, true));
        let v = classify_request(&rec, &oracle, &mut ssd);
        assert_eq!(v.kind, FailureKind::None);
        assert_eq!(v.sectors_checked, 4);
        assert_eq!(v.sectors_intact, 4);
    }

    #[test]
    fn incomplete_request_is_io_error() {
        let mut ssd = small_ssd();
        let oracle = Oracle::new();
        let pkt = packet(1, 0, 4, true);
        let rec = RequestRecord::new(pkt, vec![None; 4], 1, SimTime::ZERO);
        let v = classify_request(&rec, &oracle, &mut ssd);
        assert_eq!(v.kind, FailureKind::IoError);
    }

    #[test]
    fn completed_read_is_never_a_failure() {
        let mut ssd = small_ssd();
        let oracle = Oracle::new();
        let pkt = packet(2, 0, 4, false);
        let mut rec = RequestRecord::new(pkt, vec![None; 4], 1, SimTime::ZERO);
        rec.note_sub_ack(SimTime::from_millis(1));
        let v = classify_request(&rec, &oracle, &mut ssd);
        assert_eq!(v.kind, FailureKind::None);
    }

    #[test]
    fn acked_but_never_written_is_fwa() {
        // ACK recorded in the oracle, but the device never got the data
        // (simulate by not writing at all).
        let mut ssd = small_ssd();
        let mut oracle = Oracle::new();
        let pkt = packet(3, 8, 2, true);
        let pre = vec![None, None];
        let mut rec = RequestRecord::new(pkt, pre, 1, SimTime::ZERO);
        rec.note_sub_ack(SimTime::from_millis(1));
        for (i, lba) in pkt.lbas().enumerate() {
            oracle.acknowledge_write(lba, PageData::from_tag(pkt.sector_tag(i as u64)), pkt.id);
        }
        let v = classify_request(&rec, &oracle, &mut ssd);
        assert_eq!(v.kind, FailureKind::FalseWriteAck);
        assert_eq!(v.sectors_reverted, 2);
    }

    #[test]
    fn partial_apply_is_data_failure() {
        // First durably write sector 0 of the range via another request,
        // then claim a 2-sector request was ACKed but only sector 0 holds
        // its data.
        let mut ssd = small_ssd();
        let mut oracle = Oracle::new();
        // Durable write covering only the first sector, tagged as if it
        // came from the *verified* request.
        let pkt = packet(4, 16, 2, true);
        let first_sector_content = PageData::from_tag(pkt.sector_tag(0));
        // Write the first sector through the device with the same tag.
        ssd.submit(HostCommand {
            request_id: 99,
            sub_id: 0,
            lba: pkt.lba,
            sectors: SectorCount::new(1),
            is_write: true,
            payload_tag: pkt.payload_tag,
            payload_offset: 0,
        });
        ssd.advance_to(SimTime::from_millis(50));
        ssd.drain_completions();
        ssd.quiesce();
        // Oracle believes request 4 wrote both sectors.
        let mut rec = RequestRecord::new(pkt, vec![None, None], 1, SimTime::ZERO);
        rec.note_sub_ack(SimTime::from_millis(1));
        oracle.acknowledge_write(Lba::new(16), first_sector_content, 4);
        oracle.acknowledge_write(Lba::new(17), PageData::from_tag(pkt.sector_tag(1)), 4);
        let v = classify_request(&rec, &oracle, &mut ssd);
        assert_eq!(v.kind, FailureKind::DataFailure, "partial apply: {v:?}");
        assert_eq!(v.sectors_intact, 1);
        assert_eq!(v.sectors_reverted, 1);
    }

    #[test]
    fn superseded_sectors_are_skipped() {
        let mut ssd = small_ssd();
        let mut oracle = Oracle::new();
        let old = write_durably(&mut ssd, &mut oracle, packet(1, 0, 2, true));
        let _new = write_durably(&mut ssd, &mut oracle, packet(2, 0, 2, true));
        let v = classify_request(&old, &oracle, &mut ssd);
        assert_eq!(v.sectors_checked, 0, "new writer owns both sectors");
        assert_eq!(v.kind, FailureKind::None);
    }

    #[test]
    fn counts_tally_and_merge() {
        let mut a = FailureCounts::default();
        a.add(&RequestVerdict {
            request_id: 1,
            kind: FailureKind::DataFailure,
            sectors_checked: 1,
            sectors_intact: 0,
            sectors_reverted: 0,
            sectors_garbage: 1,
        });
        a.add(&RequestVerdict {
            request_id: 2,
            kind: FailureKind::FalseWriteAck,
            sectors_checked: 1,
            sectors_intact: 0,
            sectors_reverted: 1,
            sectors_garbage: 0,
        });
        let mut b = FailureCounts::default();
        b.add(&RequestVerdict {
            request_id: 3,
            kind: FailureKind::IoError,
            sectors_checked: 0,
            sectors_intact: 0,
            sectors_reverted: 0,
            sectors_garbage: 0,
        });
        a.merge(&b);
        assert_eq!(a.data_failures, 1);
        assert_eq!(a.fwa, 1);
        assert_eq!(a.io_errors, 1);
        assert_eq!(a.total_data_loss(), 2);
    }
}
