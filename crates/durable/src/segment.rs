//! Append-only segment files with CRC-framed records.
//!
//! A segment is a 16-byte header followed by frames:
//!
//! ```text
//! header:  "TDSG" | version u16 | reserved u16 | seg_seq u64
//! frame:   len u32 | crc32(payload) u32 | payload (len bytes)
//! ```
//!
//! `seg_seq` is a per-node monotonic sequence number assigned when the
//! segment is created; it names the file (`seg-<seg_seq>.log`) and orders
//! replay. Frames carry [`LogRecord`]s. A reader stops cleanly at
//! the first frame that is short, oversized or fails its CRC — in the
//! newest segment that is the torn tail of a crash and is truncated away;
//! anywhere else it is real corruption and surfaces as an error.

use std::io::{BufRead, ErrorKind, Read, Write};

use bytes::Bytes;
use tell_common::{Error, Result};
use tell_store::Cell;

/// Segment header magic.
pub const SEG_MAGIC: &[u8; 4] = b"TDSG";
/// Checkpoint header magic (checkpoints share the frame format).
pub const CKPT_MAGIC: &[u8; 4] = b"TDCK";
/// On-disk format version.
pub const FORMAT_VERSION: u16 = 1;
/// Header length shared by segments and checkpoints.
pub const HEADER_LEN: u64 = 16;
/// Frame prefix: length + CRC.
pub const FRAME_PREFIX: u64 = 8;
/// Upper bound on a single frame payload; anything larger read back from
/// disk is treated as a torn/corrupt length field.
pub const MAX_PAYLOAD: u32 = 64 << 20;

// ---------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected).
// ---------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = crc_table();

/// CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for b in bytes {
        c = CRC_TABLE[((c ^ *b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

// ---------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------

/// One durable mutation (or checkpoint bookkeeping entry).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LogRecord {
    /// `key` in partition `pid` now holds `cell`; `seq` is the partition's
    /// acked-mutation sequence at this write. Checkpoint entries reuse this
    /// kind with `seq = 0` (their sequence floor travels in the trailer).
    Put { pid: u32, seq: u64, key: Bytes, cell: Cell },
    /// `key` in partition `pid` was removed at partition sequence `seq`.
    Delete { pid: u32, seq: u64, key: Bytes },
    /// Checkpoint trailer: the per-partition watermarks the snapshot
    /// captured — `(pid, applied_seq, max_token)` — plus the highest
    /// `seg_seq` the checkpoint subsumes.
    CheckpointTrailer { covered_seg_seq: u64, partitions: Vec<(u32, u64, u64)> },
}

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_TRAILER: u8 = 3;

impl LogRecord {
    /// Serialize into `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            LogRecord::Put { pid, seq, key, cell } => {
                out.push(KIND_PUT);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                out.extend_from_slice(&cell.token.to_le_bytes());
                put_bytes(out, key);
                put_bytes(out, &cell.value);
            }
            LogRecord::Delete { pid, seq, key } => {
                out.push(KIND_DELETE);
                out.extend_from_slice(&pid.to_le_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
                put_bytes(out, key);
            }
            LogRecord::CheckpointTrailer { covered_seg_seq, partitions } => {
                out.push(KIND_TRAILER);
                out.extend_from_slice(&covered_seg_seq.to_le_bytes());
                out.extend_from_slice(&(partitions.len() as u32).to_le_bytes());
                for (pid, seq, token) in partitions {
                    out.extend_from_slice(&pid.to_le_bytes());
                    out.extend_from_slice(&seq.to_le_bytes());
                    out.extend_from_slice(&token.to_le_bytes());
                }
            }
        }
    }

    /// Decode one payload.
    pub fn decode(payload: &[u8]) -> Result<LogRecord> {
        let mut cur = Cursor { buf: payload, pos: 0 };
        let rec = match cur.u8()? {
            KIND_PUT => {
                let (pid, seq, token, key) = (cur.u32()?, cur.u64()?, cur.u64()?, cur.bytes()?);
                LogRecord::Put { pid, seq, key, cell: Cell { token, value: cur.bytes()? } }
            }
            KIND_DELETE => {
                LogRecord::Delete { pid: cur.u32()?, seq: cur.u64()?, key: cur.bytes()? }
            }
            KIND_TRAILER => {
                let covered_seg_seq = cur.u64()?;
                let n = cur.u32()?;
                let partitions = (0..n)
                    .map(|_| Ok((cur.u32()?, cur.u64()?, cur.u64()?)))
                    .collect::<Result<_>>()?;
                LogRecord::CheckpointTrailer { covered_seg_seq, partitions }
            }
            other => return Err(Error::corrupt(format!("unknown log record kind {other}"))),
        };
        cur.done()?;
        Ok(rec)
    }
}

/// Append `bytes` with its `u32` length prefix.
fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8]> {
        let end = self.pos.checked_add(n).filter(|e| *e <= self.buf.len());
        let end = end.ok_or_else(|| Error::corrupt("truncated log record"))?;
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }
    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }
    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }
    /// A `u32`-length-prefixed byte string.
    fn bytes(&mut self) -> Result<Bytes> {
        let n = self.u32()? as usize;
        Ok(Bytes::copy_from_slice(self.take(n)?))
    }
    fn done(&self) -> Result<()> {
        if self.pos == self.buf.len() {
            Ok(())
        } else {
            Err(Error::corrupt("trailing bytes in log record"))
        }
    }
}

// ---------------------------------------------------------------------
// Framing.
// ---------------------------------------------------------------------

/// Encode a header (segment or checkpoint) into a fresh 16-byte block.
pub fn encode_header(magic: &[u8; 4], seq: u64) -> [u8; HEADER_LEN as usize] {
    let mut h = [0u8; HEADER_LEN as usize];
    h[..4].copy_from_slice(magic);
    h[4..6].copy_from_slice(&FORMAT_VERSION.to_le_bytes());
    h[8..16].copy_from_slice(&seq.to_le_bytes());
    h
}

/// Parse a header, returning its sequence/id field.
pub fn decode_header(buf: &[u8], magic: &[u8; 4]) -> Result<u64> {
    if buf.len() < HEADER_LEN as usize {
        return Err(Error::corrupt("short file header"));
    }
    if &buf[..4] != magic {
        return Err(Error::corrupt("bad file magic"));
    }
    let version = u16::from_le_bytes(buf[4..6].try_into().unwrap());
    if version != FORMAT_VERSION {
        return Err(Error::corrupt(format!("unsupported format version {version}")));
    }
    Ok(u64::from_le_bytes(buf[8..16].try_into().unwrap()))
}

/// Frame `payload` (length + CRC prefix) into `out`.
pub fn frame_into(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Encode `rec` and frame it into `out`.
pub fn frame_record(out: &mut Vec<u8>, rec: &LogRecord) {
    let mut payload = Vec::new();
    rec.encode_into(&mut payload);
    frame_into(out, &payload);
}

/// How a sequential frame read ended.
#[derive(Debug, PartialEq, Eq)]
pub enum FrameEnd {
    /// Clean end of file on a frame boundary.
    Eof,
    /// A short, oversized or CRC-failing frame at `offset` — a torn tail if
    /// this is the newest segment, corruption otherwise.
    Torn { offset: u64 },
}

/// Read every intact frame of an already-opened file positioned just past
/// its header (at file offset `start_offset`). Calls `f(payload)` per
/// frame; returns how the stream ended.
pub fn read_frames<R: BufRead>(
    reader: &mut R,
    start_offset: u64,
    mut f: impl FnMut(&[u8]) -> Result<()>,
) -> Result<FrameEnd> {
    let mut offset = start_offset;
    let mut payload = Vec::new();
    loop {
        if reader.fill_buf().map_err(|e| io_err("read segment", &e))?.is_empty() {
            return Ok(FrameEnd::Eof);
        }
        let mut prefix = [0u8; FRAME_PREFIX as usize];
        if !read_full(reader, &mut prefix)? {
            return Ok(FrameEnd::Torn { offset });
        }
        let len = u32::from_le_bytes(prefix[..4].try_into().unwrap());
        let crc = u32::from_le_bytes(prefix[4..8].try_into().unwrap());
        if len > MAX_PAYLOAD {
            return Ok(FrameEnd::Torn { offset });
        }
        payload.resize(len as usize, 0);
        if !read_full(reader, &mut payload)? || crc32(&payload) != crc {
            return Ok(FrameEnd::Torn { offset });
        }
        f(&payload)?;
        offset += FRAME_PREFIX + len as u64;
    }
}

/// `read_exact`, reporting a short read as `false` instead of an error.
fn read_full<R: Read>(reader: &mut R, buf: &mut [u8]) -> Result<bool> {
    match reader.read_exact(buf) {
        Ok(()) => Ok(true),
        Err(e) if e.kind() == ErrorKind::UnexpectedEof => Ok(false),
        Err(e) => Err(io_err("read segment", &e)),
    }
}

/// Map an I/O error into the workspace error type.
pub fn io_err(what: &str, e: &std::io::Error) -> Error {
    Error::Unavailable(format!("durable {what}: {e}"))
}

/// Write `bytes` fully (convenience over `Write`).
pub fn write_all<W: Write>(w: &mut W, what: &str, bytes: &[u8]) -> Result<()> {
    w.write_all(bytes).map_err(|e| io_err(what, &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(pid: u32, seq: u64, key: &str, val: &str) -> LogRecord {
        LogRecord::Put {
            pid,
            seq,
            key: Bytes::copy_from_slice(key.as_bytes()),
            cell: Cell { token: seq * 10, value: Bytes::copy_from_slice(val.as_bytes()) },
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn record_roundtrip() {
        for rec in [
            put(3, 7, "key", "value"),
            LogRecord::Delete { pid: 1, seq: 9, key: Bytes::from_static(b"gone") },
            LogRecord::CheckpointTrailer {
                covered_seg_seq: 12,
                partitions: vec![(0, 5, 50), (7, 9, 90)],
            },
        ] {
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            assert_eq!(LogRecord::decode(&buf).unwrap(), rec);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(LogRecord::decode(&[]).is_err());
        assert!(LogRecord::decode(&[99]).is_err());
        let mut buf = Vec::new();
        put(0, 1, "k", "v").encode_into(&mut buf);
        buf.pop();
        assert!(LogRecord::decode(&buf).is_err());
        buf.push(0);
        buf.push(0);
        assert!(LogRecord::decode(&buf).is_err(), "trailing bytes rejected");
    }

    #[test]
    fn frames_stop_cleanly_at_torn_tail() {
        let mut file = Vec::from(encode_header(SEG_MAGIC, 1));
        let mut p1 = Vec::new();
        put(0, 1, "a", "1").encode_into(&mut p1);
        let mut p2 = Vec::new();
        put(0, 2, "b", "2").encode_into(&mut p2);
        frame_into(&mut file, &p1);
        let second_at = file.len() as u64;
        frame_into(&mut file, &p2);

        // Whole file: two frames, clean EOF.
        let mut seen = Vec::new();
        let end = read_frames(&mut &file[HEADER_LEN as usize..], HEADER_LEN, |p| {
            seen.push(LogRecord::decode(p).unwrap());
            Ok(())
        })
        .unwrap();
        assert_eq!(end, FrameEnd::Eof);
        assert_eq!(seen, vec![put(0, 1, "a", "1"), put(0, 2, "b", "2")]);

        // Truncate anywhere strictly inside the second frame (a cut exactly
        // on the boundary is a clean EOF): the first frame survives and the
        // tear is reported at the second frame's start.
        for cut in second_at as usize + 1..file.len() {
            let mut n = 0;
            let end = read_frames(&mut &file[HEADER_LEN as usize..cut], HEADER_LEN, |_| {
                n += 1;
                Ok(())
            })
            .unwrap();
            assert_eq!(end, FrameEnd::Torn { offset: second_at }, "cut at {cut}");
            assert_eq!(n, 1);
        }

        // Flip a payload byte in the second frame: CRC catches it.
        let mut corrupt = file.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xFF;
        let end =
            read_frames(&mut &corrupt[HEADER_LEN as usize..], HEADER_LEN, |_| Ok(())).unwrap();
        assert_eq!(end, FrameEnd::Torn { offset: second_at });
    }

    #[test]
    fn header_roundtrip_and_rejection() {
        let h = encode_header(SEG_MAGIC, 42);
        assert_eq!(decode_header(&h, SEG_MAGIC).unwrap(), 42);
        assert!(decode_header(&h, CKPT_MAGIC).is_err());
        assert!(decode_header(&h[..10], SEG_MAGIC).is_err());
        let mut bad = h;
        bad[4] = 0xFF;
        assert!(decode_header(&bad, SEG_MAGIC).is_err());
    }
}
