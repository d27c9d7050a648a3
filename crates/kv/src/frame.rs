//! CRC-framed on-device records and the tag codec.
//!
//! Every sector the store writes carries exactly one frame. On the
//! simulated medium a sector's content is a 64-bit identity tag
//! ([`pfault_flash::block::PageData`]), so "serializing" a frame means deriving
//! a collision-resistant tag from its fields, and "parsing" a sector
//! means looking the tag back up in the codec's table. The device-side
//! checksum ([`pfault_flash::block::PageData::is_intact`]) stands in for the
//! per-record CRC: a torn or garbled program fails the CRC and the frame
//! is rejected, exactly like a real WAL record with a bad checksum.
//!
//! Deliberate format asymmetry (the studied failure mode): WAL
//! [`Frame::Record`]s embed their sequence number, so a stale sector
//! left over from a previous ring lap is *detectable* at replay. But
//! [`Frame::CkptValue`] frames carry only `key` and `value` — like a
//! heap-file page, they embed **no generation** — so a checkpoint sector
//! whose mapping reverted to an older generation decodes cleanly and is
//! indistinguishable from fresh data. That blindspot is the
//! application-level false-write-acknowledgment vector the oracle hunts.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use pfault_sim::checksum::mix64;

/// Domain separators for the tag derivation, one per frame shape.
const RECORD_MAGIC: u64 = 0x57A1_4ECD_0001;
const PUT_MAGIC: u64 = 0x57A1_4ECD_0002;
const DELETE_MAGIC: u64 = 0x57A1_4ECD_0003;
const VALUE_MAGIC: u64 = 0x57A1_4ECD_0004;
const TOMBSTONE_MAGIC: u64 = 0x57A1_4ECD_0005;
const SEAL_MAGIC: u64 = 0x57A1_4ECD_0006;

/// One logical mutation carried by a WAL record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum KvOp {
    /// Insert or overwrite `key` with `value`.
    Put {
        /// Target key.
        key: u64,
        /// New value.
        value: u64,
    },
    /// Remove `key`.
    Delete {
        /// Target key.
        key: u64,
    },
}

impl KvOp {
    /// The key this operation mutates.
    pub fn key(&self) -> u64 {
        match *self {
            KvOp::Put { key, .. } | KvOp::Delete { key } => key,
        }
    }
}

/// Every frame shape the store writes, one per sector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Frame {
    /// A WAL record: sequence number plus the operation it logs.
    Record {
        /// Monotonic WAL sequence number (starts at 1).
        seq: u64,
        /// The logged operation.
        op: KvOp,
    },
    /// A checkpoint value sector: the compacted state of one key.
    /// `None` is an explicit tombstone (the key is absent). Carries no
    /// generation — see the module docs for why that matters.
    CkptValue {
        /// The key this sector compacts.
        key: u64,
        /// Present value, or `None` for a tombstone.
        value: Option<u64>,
    },
    /// A checkpoint seal: the region header, rewritten in place *before*
    /// the region's value sectors (the eager-seal pattern — one flush
    /// barrier covers header and body together). It declares the
    /// checkpoint and records how much WAL it subsumes.
    CkptSeal {
        /// Checkpoint generation (1-based; regions alternate by parity).
        generation: u64,
        /// Highest WAL sequence number the checkpoint covers.
        upto_seq: u64,
        /// Live (non-tombstone) entries in the region.
        entries: u64,
    },
}

impl Frame {
    /// The deterministic content tag for this frame.
    fn tag(&self) -> u64 {
        match *self {
            Frame::Record { seq, op } => {
                let op_tag = match op {
                    KvOp::Put { key, value } => mix64(key, mix64(value, PUT_MAGIC)),
                    KvOp::Delete { key } => mix64(key, DELETE_MAGIC),
                };
                mix64(seq, mix64(op_tag, RECORD_MAGIC))
            }
            Frame::CkptValue { key, value } => match value {
                Some(v) => mix64(key, mix64(v, VALUE_MAGIC)),
                None => mix64(key, TOMBSTONE_MAGIC),
            },
            Frame::CkptSeal {
                generation,
                upto_seq,
                entries,
            } => mix64(generation, mix64(upto_seq, mix64(entries, SEAL_MAGIC))),
        }
    }
}

/// Encodes frames to sector tags and decodes tags back to frames.
///
/// Encoding registers the frame under its derived tag (the store wrote
/// those bytes, so it can parse them later); decoding an unknown tag
/// fails, modelling a sector whose content is not a well-formed frame.
/// Note the table is a pure content index: a *stale* sector still
/// decodes — staleness detection is the frame format's job, and
/// [`Frame::CkptValue`] deliberately cannot do it.
#[derive(Debug, Default)]
pub struct FrameCodec {
    table: HashMap<u64, Frame>,
}

impl FrameCodec {
    /// An empty codec.
    pub fn new() -> Self {
        FrameCodec::default()
    }

    /// Derives the frame's payload tag (what the store hands the device)
    /// and registers the frame under its *on-media* tag for later
    /// decode: the device stores sector `i` of a write as
    /// `mix64(payload_tag, payload_offset + i)`, and every frame is a
    /// single sector at offset 0.
    pub fn encode(&mut self, frame: Frame) -> u64 {
        let payload = frame.tag();
        let media = FrameCodec::media_tag(payload);
        let prior = self.table.insert(media, frame);
        debug_assert!(
            prior.is_none() || prior == Some(frame),
            "tag collision between distinct frames"
        );
        payload
    }

    /// The tag a single-sector write of `payload` reads back as.
    pub fn media_tag(payload: u64) -> u64 {
        mix64(payload, 0)
    }

    /// Parses a sector's on-media tag back into the frame it encodes,
    /// if the store ever wrote such a frame.
    pub fn decode(&self, media_tag: u64) -> Option<Frame> {
        self.table.get(&media_tag).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_and_unknown_tags() {
        let mut codec = FrameCodec::new();
        let frames = [
            Frame::Record {
                seq: 7,
                op: KvOp::Put { key: 3, value: 99 },
            },
            Frame::Record {
                seq: 7,
                op: KvOp::Delete { key: 3 },
            },
            Frame::CkptValue {
                key: 3,
                value: Some(99),
            },
            Frame::CkptValue {
                key: 3,
                value: None,
            },
            Frame::CkptSeal {
                generation: 2,
                upto_seq: 40,
                entries: 12,
            },
        ];
        let tags: Vec<u64> = frames.iter().map(|f| codec.encode(*f)).collect();
        let unique: std::collections::HashSet<&u64> = tags.iter().collect();
        assert_eq!(unique.len(), frames.len(), "distinct frames, distinct tags");
        for (frame, tag) in frames.iter().zip(&tags) {
            assert_eq!(codec.decode(FrameCodec::media_tag(*tag)), Some(*frame));
        }
        assert_eq!(codec.decode(0xDEAD_BEEF), None);
    }

    #[test]
    fn identical_checkpoint_values_share_a_tag_across_generations() {
        // The documented blindspot: an unchanged value compacts to the
        // same bytes every generation, so the frame alone cannot reveal
        // which generation a sector belongs to.
        let mut codec = FrameCodec::new();
        let a = codec.encode(Frame::CkptValue {
            key: 5,
            value: Some(42),
        });
        let b = codec.encode(Frame::CkptValue {
            key: 5,
            value: Some(42),
        });
        assert_eq!(a, b);
    }
}
