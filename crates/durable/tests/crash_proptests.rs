//! Crash-recovery round-trips: arbitrary op sequences against the engine,
//! a crash at an arbitrary byte position (torn tail, truncated header,
//! corrupt CRC), and recovery must yield *exactly* the prefix of writes
//! whose frames survived — never a reordering, never a resurrection,
//! never a loss of an intact earlier frame. A second family checkpoints at
//! arbitrary points across restarts, and every reopen must yield exactly
//! the writes made so far.
//!
//! The expected state is computed from an independent model: each op's
//! framed length is derived from the public `LogRecord` encoding, so the
//! byte position of every frame boundary — and therefore the exact
//! surviving prefix for any cut — is known without consulting the engine.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use bytes::Bytes;
use proptest::prelude::*;
use tell_durable::segment::{frame_into, HEADER_LEN};
use tell_durable::{DurableNode, DurableNodeConfig, FsyncPolicy, LogRecord};
use tell_store::durability::RecoveredPartition;
use tell_store::{Cell, NodeDurability};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "tell-durable-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn config(segment_bytes: u64) -> DurableNodeConfig {
    DurableNodeConfig {
        segment_bytes,
        // Crashes are simulated by truncating fully-written files, so the
        // fsync knob only costs wall time here.
        fsync: FsyncPolicy::Never,
        checkpoint_every: 0, // no checkpoints: frame positions stay modelable
    }
}

/// One modeled operation; `put` carries `(token, value)`, `None` deletes.
#[derive(Clone, Debug)]
struct Op {
    pid: u32,
    key: u8,
    put: Option<(u64, Vec<u8>)>,
}

fn ops_strategy(max_len: usize) -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u32..3, 0u8..6, proptest::option::of(proptest::collection::vec(any::<u8>(), 0..12))),
        1..max_len,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .enumerate()
            .map(|(i, (pid, key, value))| Op { pid, key, put: value.map(|v| (i as u64 + 1, v)) })
            .collect()
    })
}

fn key_bytes(key: u8) -> Bytes {
    Bytes::from(vec![b'k', key])
}

/// Assign per-partition sequence numbers in op order (mirrors what the
/// store cluster does: one monotone counter per partition).
fn with_seqs(ops: &[Op]) -> Vec<(Op, u64)> {
    let mut next: BTreeMap<u32, u64> = BTreeMap::new();
    ops.iter()
        .map(|op| {
            let seq = next.entry(op.pid).or_insert(0);
            *seq += 1;
            (op.clone(), *seq)
        })
        .collect()
}

/// The framed length of one op, computed from the public encoding.
fn frame_len(op: &Op, seq: u64) -> u64 {
    let rec = match &op.put {
        Some((token, value)) => LogRecord::Put {
            pid: op.pid,
            seq,
            key: key_bytes(op.key),
            cell: Cell { token: *token, value: Bytes::from(value.clone()) },
        },
        None => LogRecord::Delete { pid: op.pid, seq, key: key_bytes(op.key) },
    };
    let mut payload = Vec::new();
    rec.encode_into(&mut payload);
    let mut framed = Vec::new();
    frame_into(&mut framed, &payload);
    framed.len() as u64
}

/// Per-partition expected image after applying the first `k` ops.
#[derive(Debug, Default, PartialEq, Eq)]
struct PartModel {
    applied_seq: u64,
    max_token: u64,
    entries: BTreeMap<Bytes, Cell>,
}

fn model(seqd: &[(Op, u64)], k: usize) -> BTreeMap<u32, PartModel> {
    let mut parts: BTreeMap<u32, PartModel> = BTreeMap::new();
    for (op, seq) in &seqd[..k] {
        let part = parts.entry(op.pid).or_default();
        part.applied_seq = part.applied_seq.max(*seq);
        match &op.put {
            Some((token, value)) => {
                part.max_token = part.max_token.max(*token);
                part.entries.insert(
                    key_bytes(op.key),
                    Cell { token: *token, value: Bytes::from(value.clone()) },
                );
            }
            None => {
                part.entries.remove(&key_bytes(op.key));
            }
        }
    }
    parts
}

/// Record one modeled op through a live engine.
fn record_op(node: &DurableNode, op: &Op, seq: u64) {
    let cell = op
        .put
        .as_ref()
        .map(|(token, value)| Cell { token: *token, value: Bytes::from(value.clone()) });
    node.record(op.pid, seq, &key_bytes(op.key), cell.as_ref()).expect("record");
}

/// Write every op through a live engine, then drop it.
fn write_all_ops(dir: &Path, seqd: &[(Op, u64)], segment_bytes: u64) {
    let (node, recovered) =
        DurableNode::open(dir.to_path_buf(), config(segment_bytes)).expect("open fresh engine");
    assert!(recovered.is_empty(), "fresh dir must recover nothing");
    for (op, seq) in seqd {
        record_op(&node, op, *seq);
    }
}

/// Recovered partition images in the model's shape.
fn as_model(recovered: Vec<RecoveredPartition>) -> BTreeMap<u32, PartModel> {
    let mut got: BTreeMap<u32, PartModel> = BTreeMap::new();
    for part in recovered {
        let entries = part.entries.into_iter().collect();
        got.insert(
            part.pid,
            PartModel { applied_seq: part.applied_seq, max_token: part.max_token, entries },
        );
    }
    got
}

/// Recover `dir` and compare the result against `expected`.
fn check_recovery(dir: PathBuf, expected: &BTreeMap<u32, PartModel>) -> Result<(), TestCaseError> {
    let (_node, recovered) = DurableNode::open(dir, config(1 << 30)).expect("recovery open");
    prop_assert_eq!(&as_model(recovered), expected);
    Ok(())
}

/// Segment files present in `dir`, as `(seg_seq, path)` sorted by the
/// seg_seq that names each file.
fn segments(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut segs = Vec::new();
    for entry in fs::read_dir(dir).expect("read data dir") {
        let path = entry.expect("dir entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
        if let Some(seg_seq) = name.strip_prefix("seg-").and_then(|s| s.strip_suffix(".log")) {
            segs.push((seg_seq.parse().expect("seg_seq"), path));
        }
    }
    segs.sort();
    segs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Single segment, crash = truncation at any byte (including inside
    /// the header): recovery yields exactly the frames fully below the
    /// cut.
    #[test]
    fn truncation_recovers_the_exact_prefix(
        ops in ops_strategy(40),
        cut_sel in any::<u64>(),
    ) {
        let seqd = with_seqs(&ops);
        let dir = fresh_dir("trunc");
        write_all_ops(&dir, &seqd, 1 << 30);

        // Frame boundaries: file length after each op.
        let mut ends = Vec::with_capacity(seqd.len());
        let mut at = HEADER_LEN;
        for (op, seq) in &seqd {
            at += frame_len(op, *seq);
            ends.push(at);
        }
        let total = at;
        let cut = cut_sel % (total + 1);
        let k = ends.iter().filter(|&&e| e <= cut).count();

        let segs = segments(&dir);
        prop_assert_eq!(segs.len(), 1, "single-segment config rotated");
        let file = fs::OpenOptions::new().write(true).open(&segs[0].1).expect("open segment");
        prop_assert_eq!(file.metadata().expect("metadata").len(), total);
        file.set_len(cut).expect("truncate");
        drop(file);

        check_recovery(dir.clone(), &model(&seqd, k))?;
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Single segment, crash = one byte flipped anywhere past the header:
    /// the CRC rejects the containing frame and everything after it, and
    /// every intact frame before it survives.
    #[test]
    fn corrupt_crc_drops_the_frame_and_its_suffix(
        ops in ops_strategy(40),
        pos_sel in any::<u64>(),
    ) {
        let seqd = with_seqs(&ops);
        let dir = fresh_dir("crc");
        write_all_ops(&dir, &seqd, 1 << 30);

        let mut ends = Vec::with_capacity(seqd.len());
        let mut at = HEADER_LEN;
        for (op, seq) in &seqd {
            at += frame_len(op, *seq);
            ends.push(at);
        }
        let total = at;
        let pos = HEADER_LEN + pos_sel % (total - HEADER_LEN);
        let k = ends.iter().filter(|&&e| e <= pos).count();

        let segs = segments(&dir);
        prop_assert_eq!(segs.len(), 1, "single-segment config rotated");
        let mut bytes = fs::read(&segs[0].1).expect("read segment");
        bytes[pos as usize] ^= 0xff;
        fs::write(&segs[0].1, &bytes).expect("write corrupted segment");

        check_recovery(dir.clone(), &model(&seqd, k))?;
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Multiple segments, crash = truncating the *active* (newest) one at
    /// any byte: every sealed segment replays in full, and the active
    /// segment contributes exactly its surviving frames.
    #[test]
    fn multi_segment_truncation_keeps_all_sealed_frames(
        ops in ops_strategy(60),
        cut_sel in any::<u64>(),
    ) {
        const SEG_BYTES: u64 = 200;
        let seqd = with_seqs(&ops);
        let dir = fresh_dir("multi");
        write_all_ops(&dir, &seqd, SEG_BYTES);

        // Mirror rotation: a frame is appended to the current segment,
        // then the segment rotates once its length reaches SEG_BYTES. Track
        // which ops land in the final (active) segment and the in-file end
        // offset of each.
        let mut seg_start = 0usize; // index of the first op in the current segment
        let mut at = HEADER_LEN;
        let mut ends: Vec<u64> = Vec::new(); // per-op end offset within its segment
        for (i, (op, seq)) in seqd.iter().enumerate() {
            at += frame_len(op, *seq);
            ends.push(at);
            if at >= SEG_BYTES && i + 1 < seqd.len() {
                seg_start = i + 1;
                at = HEADER_LEN;
            }
        }
        // If the last op itself triggered rotation the active segment is
        // empty and `seg_start` of the *active* segment is past the end.
        let last_rotated = *ends.last().expect("non-empty ops") >= SEG_BYTES;
        let (active_start, active_len) =
            if last_rotated { (seqd.len(), HEADER_LEN) } else { (seg_start, at) };

        let segs = segments(&dir);
        let (_, active_path) = segs.last().expect("at least one segment");
        let file = fs::OpenOptions::new().write(true).open(active_path).expect("open active");
        prop_assert_eq!(file.metadata().expect("metadata").len(), active_len);
        let cut = cut_sel % (active_len + 1);
        file.set_len(cut).expect("truncate");
        drop(file);

        let k = active_start
            + ends[active_start..].iter().filter(|&&e| e <= cut).count();
        check_recovery(dir.clone(), &model(&seqd, k))?;
        fs::remove_dir_all(&dir).expect("cleanup");
    }

    /// Checkpoints across restarts: the ops are split over two sessions on
    /// tiny segments, with `checkpoint()` calls at arbitrary points and one
    /// more at the end of the second session. Every reopen recovers exactly
    /// the model of the ops written so far, watermarks included.
    #[test]
    fn checkpoints_across_restarts_match_the_model(
        ops in ops_strategy(60),
        ckpt_sel in proptest::collection::vec(any::<usize>(), 0..6),
        split_sel in any::<usize>(),
    ) {
        const SEG_BYTES: u64 = 200;
        let seqd = with_seqs(&ops);
        let split = split_sel % (seqd.len() + 1);
        let ckpt_after: BTreeSet<usize> = ckpt_sel.iter().map(|c| c % seqd.len()).collect();
        let dir = fresh_dir("ckpt");
        for (range, final_checkpoint) in [(0..split, false), (split..seqd.len(), true)] {
            let (node, recovered) =
                DurableNode::open(dir.clone(), config(SEG_BYTES)).expect("reopen");
            prop_assert_eq!(&as_model(recovered), &model(&seqd, range.start));
            for i in range {
                let (op, seq) = &seqd[i];
                record_op(&node, op, *seq);
                if ckpt_after.contains(&i) {
                    node.checkpoint().expect("checkpoint");
                }
            }
            if final_checkpoint {
                node.checkpoint().expect("final checkpoint");
            }
        }
        check_recovery(dir.clone(), &model(&seqd, seqd.len()))?;
        fs::remove_dir_all(&dir).expect("cleanup");
    }
}
