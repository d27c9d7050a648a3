//! Length-prefixed, CRC-framed byte transport.
//!
//! Every protocol message travels as one frame:
//!
//! ```text
//! +-------+----------------+----------------+---------+
//! | magic | payload length | crc32(payload) | payload |
//! | PFS1  | u32 LE         | u32 LE         | bytes   |
//! +-------+----------------+----------------+---------+
//! ```
//!
//! The daemon treats the wire the way the platform treats flash under a
//! power cut: any prefix can arrive and any byte can flip. A torn frame
//! decodes to [`FrameError::Truncated`], a flipped header byte to
//! [`FrameError::BadMagic`] / [`FrameError::Oversize`], a flipped
//! payload byte to [`FrameError::CrcMismatch`] — always an error value,
//! never a panic, and never a silently corrupted payload (the CRC is
//! [`pfault_sim::checksum::crc32`], the same IEEE polynomial the
//! simulated firmware uses for its journal frames).

use std::io::{Read, Write};

use pfault_sim::checksum::crc32;

/// Frame preamble: protocol name + wire version.
pub const MAGIC: [u8; 4] = *b"PFS1";

/// Fixed header size (magic + length + CRC).
pub const HEADER_BYTES: usize = 12;

/// Upper bound on a payload, rejecting absurd lengths from corrupt or
/// hostile headers before any allocation happens.
pub const MAX_PAYLOAD_BYTES: usize = 16 << 20;

/// Everything that can go wrong reading a frame. Wire corruption is a
/// *value*, never a panic — the daemon drops the connection with a
/// protocol error and keeps serving everyone else.
#[derive(Debug)]
pub enum FrameError {
    /// The peer closed the stream cleanly at a frame boundary.
    Closed,
    /// The stream ended (or the buffer ran out) mid-frame.
    Truncated {
        /// Bytes the header or payload still owed.
        missing: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic([u8; 4]),
    /// The header claims a payload larger than [`MAX_PAYLOAD_BYTES`].
    Oversize(u64),
    /// The payload arrived whole but its CRC does not match the header.
    CrcMismatch {
        /// CRC the header promised.
        expected: u32,
        /// CRC of the bytes that actually arrived.
        found: u32,
    },
    /// An underlying transport error (including read timeouts).
    Io(std::io::Error),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Closed => write!(f, "connection closed"),
            FrameError::Truncated { missing } => {
                write!(f, "frame truncated ({missing} bytes missing)")
            }
            FrameError::BadMagic(m) => write!(f, "bad frame magic {m:02x?}"),
            FrameError::Oversize(n) => write!(f, "frame payload of {n} bytes exceeds limit"),
            FrameError::CrcMismatch { expected, found } => {
                write!(
                    f,
                    "frame crc mismatch: header {expected:#010x}, payload {found:#010x}"
                )
            }
            FrameError::Io(e) => write!(f, "frame io error: {e}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

impl FrameError {
    /// Whether this is a read/write deadline expiry rather than a real
    /// failure — the daemon's heartbeat loop treats timeouts as "no
    /// traffic yet", everything else as a dead peer.
    pub fn is_timeout(&self) -> bool {
        matches!(
            self,
            FrameError::Io(e) if matches!(
                e.kind(),
                std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
            )
        )
    }
}

/// Encodes one payload as a complete frame.
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// Decodes one frame from the front of `buf`, returning the payload and
/// the number of bytes consumed. Pure — the property tests drive this
/// directly with truncated and bit-flipped buffers.
pub fn decode_frame(buf: &[u8]) -> Result<(Vec<u8>, usize), FrameError> {
    if buf.is_empty() {
        return Err(FrameError::Closed);
    }
    if buf.len() < HEADER_BYTES {
        return Err(FrameError::Truncated {
            missing: HEADER_BYTES - buf.len(),
        });
    }
    let magic = [buf[0], buf[1], buf[2], buf[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([buf[4], buf[5], buf[6], buf[7]]) as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Err(FrameError::Oversize(len as u64));
    }
    let expected = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]);
    let total = HEADER_BYTES + len;
    if buf.len() < total {
        return Err(FrameError::Truncated {
            missing: total - buf.len(),
        });
    }
    let payload = &buf[HEADER_BYTES..total];
    let found = crc32(payload);
    if found != expected {
        return Err(FrameError::CrcMismatch { expected, found });
    }
    Ok((payload.to_vec(), total))
}

/// Writes one frame (header + payload) and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    w.write_all(&encode_frame(payload))?;
    w.flush()?;
    Ok(())
}

/// Reads exactly one frame. A clean EOF *before any header byte* is
/// [`FrameError::Closed`]; an EOF mid-frame is a torn write and reports
/// [`FrameError::Truncated`].
pub fn read_frame(r: &mut impl Read) -> Result<Vec<u8>, FrameError> {
    let mut header = [0u8; HEADER_BYTES];
    let got = fill(r, &mut header)?;
    if got == 0 {
        return Err(FrameError::Closed);
    }
    if got < HEADER_BYTES {
        return Err(FrameError::Truncated {
            missing: HEADER_BYTES - got,
        });
    }
    let magic = [header[0], header[1], header[2], header[3]];
    if magic != MAGIC {
        return Err(FrameError::BadMagic(magic));
    }
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_PAYLOAD_BYTES {
        return Err(FrameError::Oversize(len as u64));
    }
    let expected = u32::from_le_bytes([header[8], header[9], header[10], header[11]]);
    let mut payload = vec![0u8; len];
    let got = fill(r, &mut payload)?;
    if got < len {
        return Err(FrameError::Truncated { missing: len - got });
    }
    let found = crc32(&payload);
    if found != expected {
        return Err(FrameError::CrcMismatch { expected, found });
    }
    Ok(payload)
}

/// Reads until `buf` is full or EOF, returning how many bytes landed.
/// Unlike `read_exact`, a short read is reported with its exact length
/// so the caller can distinguish "closed between frames" from "torn
/// mid-frame".
fn fill(r: &mut impl Read, buf: &mut [u8]) -> Result<usize, FrameError> {
    let mut got = 0;
    while got < buf.len() {
        match r.read(&mut buf[got..]) {
            Ok(0) => break,
            Ok(n) => got += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => {
                // A deadline expiry with a partial frame in hand is a
                // torn read from the caller's perspective only if bytes
                // arrived; with none, surface the timeout itself so the
                // heartbeat loop can keep waiting.
                if got == 0 {
                    return Err(e.into());
                }
                return Err(FrameError::Truncated {
                    missing: buf.len() - got,
                });
            }
        }
    }
    Ok(got)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip() {
        for payload in [&b""[..], b"x", b"{\"a\":1}", &[0u8; 4096]] {
            let frame = encode_frame(payload);
            let (decoded, used) = decode_frame(&frame).expect("decodes");
            assert_eq!(decoded, payload);
            assert_eq!(used, frame.len());
        }
    }

    #[test]
    fn empty_buffer_is_closed() {
        assert!(matches!(decode_frame(&[]), Err(FrameError::Closed)));
    }

    #[test]
    fn truncation_reports_missing_bytes() {
        let frame = encode_frame(b"hello");
        for cut in 1..frame.len() {
            // Inside the header only the header's own shortfall is
            // knowable; past it the payload length is on record.
            let expect = if cut < HEADER_BYTES {
                HEADER_BYTES - cut
            } else {
                frame.len() - cut
            };
            match decode_frame(&frame[..cut]) {
                Err(FrameError::Truncated { missing }) => {
                    assert_eq!(missing, expect, "cut at {cut}");
                }
                other => panic!("cut at {cut}: expected truncation, got {other:?}"),
            }
        }
    }

    #[test]
    fn payload_flip_is_a_crc_mismatch() {
        let mut frame = encode_frame(b"hello");
        frame[HEADER_BYTES + 2] ^= 0x40;
        assert!(matches!(
            decode_frame(&frame),
            Err(FrameError::CrcMismatch { .. })
        ));
    }

    #[test]
    fn magic_flip_is_rejected() {
        let mut frame = encode_frame(b"hello");
        frame[0] ^= 0x01;
        assert!(matches!(decode_frame(&frame), Err(FrameError::BadMagic(_))));
    }

    #[test]
    fn absurd_length_is_rejected_before_allocation() {
        let mut frame = encode_frame(b"hello");
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(decode_frame(&frame), Err(FrameError::Oversize(_))));
    }

    #[test]
    fn stream_roundtrip_and_torn_tail() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"first").unwrap();
        write_frame(&mut wire, b"second").unwrap();
        wire.truncate(wire.len() - 3); // tear the second frame
        let mut cursor = std::io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap(), b"first");
        assert!(matches!(
            read_frame(&mut cursor),
            Err(FrameError::Truncated { missing: 3 })
        ));
    }
}
