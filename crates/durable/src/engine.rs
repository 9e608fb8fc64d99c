//! The per-node log-structured engine.
//!
//! One [`DurableNode`] owns one data directory:
//!
//! ```text
//! sn-3/
//!   MANIFEST          atomic commit point (checkpoint id + covered seg_seq)
//!   ckpt-7.dat        current checkpoint (live entries + watermark trailer)
//!   seg-4.log         segment files, named by their seg_seq (the number in
//!   seg-5.log         each header); replay runs in seg_seq order
//! ```
//!
//! The engine is a log, not a second store: the cluster keeps every
//! partition copy in RAM, and the engine's index holds the live [`Cell`] of
//! each key as refcounted clones of the cluster's own bytes. Writes append
//! CRC-framed records to the active segment and update the index. Rotation
//! seals a full segment; every `checkpoint_every` records the engine writes
//! the index into a fresh checkpoint, commits it via the manifest, and
//! deletes the subsumed segments. Files are read only by [`DurableNode::open`]:
//! recovery loads the manifest's checkpoint and replays strictly newer
//! segments, truncating a torn tail in the newest one.

use std::collections::{BTreeMap, HashSet};
use std::fs::{self, File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tell_common::{Error, Result, SnId};
use tell_obs::{add, incr, Counter, Probe, Site};
use tell_store::durability::{
    DurabilityProvider, NodeDurability, RecoveredNode, RecoveredPartition,
};
use tell_store::Cell;

use crate::manifest::{sync_dir, Manifest, NO_CHECKPOINT};
use crate::segment::{
    decode_header, encode_header, frame_record, io_err, read_frames, write_all, FrameEnd,
    LogRecord, CKPT_MAGIC, HEADER_LEN, SEG_MAGIC,
};

/// When to fsync the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync once per `record_all` (one storage request's records on this
    /// node): its returning `Ok` means every record in it is durable.
    Always,
    /// Never fsync (the OS flushes eventually): crash durability is
    /// whatever the page cache survived — for benches and tests only.
    Never,
}

impl FsyncPolicy {
    /// Parse `always` or `never` (CLI flag format).
    pub fn parse(s: &str) -> std::result::Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => Err(format!("bad fsync policy {other:?} (always | never)")),
        }
    }
}

/// Tuning knobs for one node's engine.
#[derive(Clone, Debug)]
pub struct DurableNodeConfig {
    /// Rotate the active segment once it reaches this many bytes.
    pub segment_bytes: u64,
    /// fsync policy for the active segment.
    pub fsync: FsyncPolicy,
    /// Checkpoint after this many records (0 = only explicit checkpoints).
    pub checkpoint_every: u64,
}

impl Default for DurableNodeConfig {
    fn default() -> Self {
        DurableNodeConfig {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 4096,
        }
    }
}

/// What the log holds for one partition: its live cells and watermarks.
#[derive(Debug, Default)]
struct PartitionIndex {
    map: BTreeMap<Bytes, Cell>,
    applied_seq: u64,
    max_token: u64,
}

impl PartitionIndex {
    fn apply(&mut self, seq: u64, key: Bytes, cell: Option<Cell>) {
        match cell {
            Some(cell) => {
                self.max_token = self.max_token.max(cell.token);
                self.map.insert(key, cell);
            }
            None => {
                self.map.remove(&key);
            }
        }
        self.applied_seq = self.applied_seq.max(seq);
    }
}

struct ActiveSegment {
    file: File,
    seg_seq: u64,
    len: u64,
}

struct Inner {
    active: ActiveSegment,
    /// Sealed segments awaiting checkpoint subsumption, by seg_seq.
    sealed: Vec<u64>,
    manifest: Manifest,
    index: BTreeMap<u32, PartitionIndex>,
    records_since_ckpt: u64,
    /// Whether a record was appended to the active segment since its last
    /// sync.
    unsynced: bool,
}

/// A log-structured persistence engine for one storage node.
pub struct DurableNode {
    dir: PathBuf,
    config: DurableNodeConfig,
    inner: Mutex<Inner>,
}

impl std::fmt::Debug for DurableNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableNode").field("dir", &self.dir).finish_non_exhaustive()
    }
}

fn seg_path(dir: &Path, seg_seq: u64) -> PathBuf {
    dir.join(format!("seg-{seg_seq}.log"))
}

fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("ckpt-{id}.dat"))
}

fn parse_name(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?.strip_suffix(suffix)?.parse().ok()
}

fn open_fresh_segment(dir: &Path, seg_seq: u64) -> Result<ActiveSegment> {
    let mut file =
        File::create(seg_path(dir, seg_seq)).map_err(|e| io_err("create segment", &e))?;
    write_all(&mut file, "segment header", &encode_header(SEG_MAGIC, seg_seq))?;
    file.sync_all().map_err(|e| io_err("sync segment header", &e))?;
    sync_dir(dir)?;
    Ok(ActiveSegment { file, seg_seq, len: HEADER_LEN })
}

/// Whether `path` starts with a whole `magic` header naming `seq` (the
/// number in the file name).
fn header_names(path: &Path, magic: &[u8; 4], seq: u64) -> bool {
    let mut header = [0u8; HEADER_LEN as usize];
    File::open(path).and_then(|mut f| f.read_exact(&mut header)).is_ok()
        && decode_header(&header, magic).ok() == Some(seq)
}

/// Decode and apply every intact record of `file` past its header.
fn replay(file: &mut File, mut apply: impl FnMut(LogRecord) -> Result<()>) -> Result<FrameEnd> {
    file.seek(SeekFrom::Start(HEADER_LEN)).map_err(|e| io_err("seek log file", &e))?;
    read_frames(&mut BufReader::new(file), HEADER_LEN, |payload| apply(LogRecord::decode(payload)?))
}

impl DurableNode {
    /// Open (or create) the engine at `dir`, replaying on-disk state.
    /// Returns the live engine plus the recovered partition images.
    pub fn open(
        dir: PathBuf,
        config: DurableNodeConfig,
    ) -> Result<(Arc<DurableNode>, Vec<RecoveredPartition>)> {
        fs::create_dir_all(&dir).map_err(|e| io_err("create data dir", &e))?;
        let _ = fs::remove_file(dir.join("MANIFEST.tmp"));
        let manifest = Manifest::load(&dir)?;

        // Inventory the directory.
        let mut segs: Vec<u64> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("list data dir", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list data dir", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(seg_seq) = parse_name(name, "seg-", ".log") {
                let path = seg_path(&dir, seg_seq);
                if !header_names(&path, SEG_MAGIC, seg_seq) {
                    // A bad header is a torn creation only while the file is
                    // at most header-sized: the header is synced before the
                    // segment goes active, so no acked record can follow a
                    // header that never fully reached disk. A longer file
                    // holds framed records — a bad header there is real
                    // corruption (e.g. a bit flip in an old synced segment)
                    // and deleting it would silently drop acked writes.
                    let len = fs::metadata(&path).map_err(|e| io_err("stat segment", &e))?.len();
                    if len > HEADER_LEN {
                        return Err(Error::corrupt(format!(
                            "segment {name} has an unreadable header but {len} bytes of data"
                        )));
                    }
                    fs::remove_file(&path).map_err(|e| io_err("drop torn segment", &e))?;
                    incr(Counter::DurableTornTailsTruncated);
                } else if seg_seq <= manifest.covered_seg_seq {
                    // Subsumed by the checkpoint; a crash beat the cleanup.
                    fs::remove_file(&path).map_err(|e| io_err("drop covered segment", &e))?;
                } else {
                    segs.push(seg_seq);
                }
            } else if let Some(id) = parse_name(name, "ckpt-", ".dat") {
                if id != manifest.checkpoint_id {
                    fs::remove_file(ckpt_path(&dir, id))
                        .map_err(|e| io_err("drop stale checkpoint", &e))?;
                }
            }
        }
        segs.sort_unstable();

        let mut index: BTreeMap<u32, PartitionIndex> = BTreeMap::new();
        let mut recovered_records = 0u64;

        // Load the checkpoint the manifest points at.
        if manifest.checkpoint_id != NO_CHECKPOINT {
            let (id, path) = (manifest.checkpoint_id, ckpt_path(&dir, manifest.checkpoint_id));
            if !header_names(&path, CKPT_MAGIC, id) {
                return Err(Error::corrupt(format!(
                    "MANIFEST names checkpoint {id} but the file is missing or its header is bad"
                )));
            }
            let mut file = File::open(&path).map_err(|e| io_err("open checkpoint", &e))?;
            let mut saw_trailer = false;
            let end = replay(&mut file, |rec| {
                match rec {
                    LogRecord::Put { pid, key, cell, .. } => {
                        index.entry(pid).or_default().apply(0, key, Some(cell));
                        recovered_records += 1;
                    }
                    LogRecord::Delete { .. } => {
                        return Err(Error::corrupt("delete record inside checkpoint"));
                    }
                    LogRecord::CheckpointTrailer { covered_seg_seq, partitions } => {
                        if covered_seg_seq != manifest.covered_seg_seq {
                            return Err(Error::corrupt(
                                "checkpoint trailer disagrees with MANIFEST",
                            ));
                        }
                        for (pid, applied_seq, max_token) in partitions {
                            let part = index.entry(pid).or_default();
                            part.applied_seq = applied_seq;
                            part.max_token = max_token;
                        }
                        saw_trailer = true;
                    }
                }
                Ok(())
            })?;
            // The manifest is only written after the checkpoint is fsynced,
            // so a torn or trailer-less checkpoint it points at is real
            // corruption, not a crash artifact.
            if end != FrameEnd::Eof || !saw_trailer {
                return Err(Error::corrupt("checkpoint is torn or missing its trailer"));
            }
        }

        // Replay segments newer than the checkpoint, oldest seg_seq first.
        // Only the newest may be torn (the crash tail); truncate it clean.
        for (i, &seg_seq) in segs.iter().enumerate() {
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(seg_path(&dir, seg_seq))
                .map_err(|e| io_err("open segment", &e))?;
            let end = replay(&mut file, |rec| {
                let (pid, seq, key, cell) = match rec {
                    LogRecord::Put { pid, seq, key, cell } => (pid, seq, key, Some(cell)),
                    LogRecord::Delete { pid, seq, key } => (pid, seq, key, None),
                    LogRecord::CheckpointTrailer { .. } => {
                        return Err(Error::corrupt("checkpoint trailer inside segment"));
                    }
                };
                index.entry(pid).or_default().apply(seq, key, cell);
                recovered_records += 1;
                Ok(())
            })?;
            if let FrameEnd::Torn { offset } = end {
                if i + 1 != segs.len() {
                    return Err(Error::corrupt(format!(
                        "segment seg_seq={seg_seq} is corrupt mid-log (tear at byte {offset})"
                    )));
                }
                file.set_len(offset).map_err(|e| io_err("truncate torn tail", &e))?;
                file.sync_all().map_err(|e| io_err("sync truncated segment", &e))?;
                incr(Counter::DurableTornTailsTruncated);
            }
        }
        add(Counter::DurableRecoveredRecords, recovered_records);

        let partitions = index
            .iter()
            .map(|(&pid, part)| RecoveredPartition {
                pid,
                applied_seq: part.applied_seq,
                max_token: part.max_token,
                entries: part.map.iter().map(|(k, c)| (k.clone(), c.clone())).collect(),
            })
            .collect();

        // Recovered segments stay sealed; appends go to a fresh one.
        let last = segs.last().copied().unwrap_or(manifest.covered_seg_seq);
        let active = open_fresh_segment(&dir, last + 1)?;
        let inner =
            Inner { active, sealed: segs, manifest, index, records_since_ckpt: 0, unsynced: false };
        Ok((Arc::new(DurableNode { dir, config, inner: Mutex::new(inner) }), partitions))
    }

    /// Force a checkpoint now.
    pub fn checkpoint(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.do_checkpoint(&mut inner)
    }

    fn rotate(&self, inner: &mut Inner) -> Result<()> {
        inner.active.file.sync_all().map_err(|e| io_err("sync sealed segment", &e))?;
        incr(Counter::DurableFsyncs);
        incr(Counter::DurableSegmentsSealed);
        inner.unsynced = false;
        let fresh = open_fresh_segment(&self.dir, inner.active.seg_seq + 1)?;
        let old = std::mem::replace(&mut inner.active, fresh);
        inner.sealed.push(old.seg_seq);
        Ok(())
    }

    fn do_checkpoint(&self, inner: &mut Inner) -> Result<()> {
        // Rotate so every record to be covered sits in a sealed segment.
        if inner.active.len > HEADER_LEN {
            self.rotate(inner)?;
        }
        let covered = inner.active.seg_seq - 1;
        let id = inner.manifest.checkpoint_id.wrapping_add(1);

        let file =
            File::create(ckpt_path(&self.dir, id)).map_err(|e| io_err("create checkpoint", &e))?;
        let mut out = BufWriter::new(file);
        write_all(&mut out, "checkpoint header", &encode_header(CKPT_MAGIC, id))?;
        let mut framed = Vec::new();
        let mut records = 0u64;
        for (&pid, part) in &inner.index {
            for (key, cell) in &part.map {
                framed.clear();
                let rec = LogRecord::Put { pid, seq: 0, key: key.clone(), cell: cell.clone() };
                frame_record(&mut framed, &rec);
                write_all(&mut out, "checkpoint record", &framed)?;
                records += 1;
            }
        }
        let partitions =
            inner.index.iter().map(|(&pid, p)| (pid, p.applied_seq, p.max_token)).collect();
        framed.clear();
        frame_record(
            &mut framed,
            &LogRecord::CheckpointTrailer { covered_seg_seq: covered, partitions },
        );
        write_all(&mut out, "checkpoint trailer", &framed)?;
        let file = out.into_inner().map_err(|e| io_err("write checkpoint", e.error()))?;
        file.sync_all().map_err(|e| io_err("sync checkpoint", &e))?;
        incr(Counter::DurableFsyncs);

        // Commit point: the manifest now names the new checkpoint.
        let old_id = inner.manifest.checkpoint_id;
        inner.manifest = Manifest { checkpoint_id: id, covered_seg_seq: covered };
        inner.manifest.store(&self.dir)?;

        // Cleanup is safe after the commit point; recovery re-does it if we
        // crash here.
        if old_id != NO_CHECKPOINT {
            let _ = fs::remove_file(ckpt_path(&self.dir, old_id));
        }
        let subsumed = inner.sealed.len() as u64;
        for seg_seq in inner.sealed.drain(..) {
            let _ = fs::remove_file(seg_path(&self.dir, seg_seq));
        }
        sync_dir(&self.dir)?;
        inner.records_since_ckpt = 0;
        incr(Counter::DurableCheckpoints);
        add(Counter::DurableCheckpointRecords, records);
        add(Counter::DurableSegmentsRecycled, subsumed);
        Ok(())
    }

    fn append_locked(
        &self,
        inner: &mut Inner,
        pid: u32,
        seq: u64,
        key: &Bytes,
        cell: Option<&Cell>,
    ) -> Result<()> {
        let _probe = Probe::enter(Site::DurableAppend);
        let rec = match cell {
            Some(c) => LogRecord::Put { pid, seq, key: key.clone(), cell: c.clone() },
            None => LogRecord::Delete { pid, seq, key: key.clone() },
        };
        let mut framed = Vec::new();
        frame_record(&mut framed, &rec);
        write_all(&mut inner.active.file, "append record", &framed)?;
        inner.active.len += framed.len() as u64;
        incr(Counter::DurableAppends);
        add(Counter::DurableAppendBytes, framed.len() as u64);

        inner.index.entry(pid).or_default().apply(seq, key.clone(), cell.cloned());
        inner.unsynced = true;

        if inner.active.len >= self.config.segment_bytes {
            self.rotate(inner)?;
        }
        inner.records_since_ckpt += 1;
        if self.config.checkpoint_every > 0
            && inner.records_since_ckpt >= self.config.checkpoint_every
        {
            self.do_checkpoint(inner)?;
        }
        Ok(())
    }

    /// Sync the active segment if the policy asks for it and an append
    /// since the last sync (a rotation or checkpoint also syncs) is not yet
    /// on stable storage: the one fsync of a `record_all` or a reset.
    fn sync_if_due(&self, inner: &mut Inner) -> Result<()> {
        if self.config.fsync == FsyncPolicy::Always && inner.unsynced {
            self.sync_locked(inner)?;
        }
        Ok(())
    }

    fn sync_locked(&self, inner: &mut Inner) -> Result<()> {
        let _probe = Probe::enter(Site::DurableFsync);
        inner.active.file.sync_data().map_err(|e| io_err("fsync segment", &e))?;
        incr(Counter::DurableFsyncs);
        inner.unsynced = false;
        Ok(())
    }
}

impl NodeDurability for DurableNode {
    fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()> {
        self.record_all(&[(pid, seq, key, cell)])
    }

    fn record_all(&self, records: &[(u32, u64, &Bytes, Option<&Cell>)]) -> Result<()> {
        let mut inner = self.inner.lock();
        for &(pid, seq, key, cell) in records {
            self.append_locked(&mut inner, pid, seq, key, cell)?;
        }
        self.sync_if_due(&mut inner)
    }

    fn reset_partition(&self, pid: u32, applied_seq: u64, entries: &[(Bytes, Cell)]) -> Result<()> {
        let mut inner = self.inner.lock();
        let keep: HashSet<&Bytes> = entries.iter().map(|(k, _)| k).collect();
        let stale: Vec<Bytes> = inner
            .index
            .get(&pid)
            .map(|p| p.map.keys().filter(|k| !keep.contains(k)).cloned().collect())
            .unwrap_or_default();
        // Content records carry seq 0: a reset torn by a crash must recover
        // at the partition's *old* watermark — a stale copy that re-syncs
        // from a fresh peer — never at the target watermark over incomplete
        // content (which would pass the freshness check and serve with
        // acked keys missing).
        for key in &stale {
            self.append_locked(&mut inner, pid, 0, key, None)?;
        }
        for (key, cell) in entries {
            self.append_locked(&mut inner, pid, 0, key, Some(cell))?;
        }
        // Commit point: the applied_seq watermark lands in one final record
        // only after every content record is in the log — a no-op delete of
        // the empty key (absent on both sides), or a re-put if the snapshot
        // genuinely contains an empty key.
        let watermark_cell = entries.iter().find(|(k, _)| k.is_empty()).map(|(_, c)| c);
        self.append_locked(&mut inner, pid, applied_seq, &Bytes::new(), watermark_cell)?;
        // One sync for the whole reset. A crash before it leaves at most a
        // prefix of the records readable (replay stops at the first bad
        // frame; a rotation synced every sealed segment), which recovery
        // reads as a torn reset (see above).
        self.sync_if_due(&mut inner)
    }

    fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.sync_locked(&mut inner)
    }
}

/// Filesystem-backed [`DurabilityProvider`]: one subdirectory per storage
/// node under a shared root.
#[derive(Debug)]
pub struct FsDurability {
    root: PathBuf,
    config: DurableNodeConfig,
}

impl FsDurability {
    /// Provider rooted at `root` with shared per-node config.
    pub fn new(root: impl Into<PathBuf>, config: DurableNodeConfig) -> Arc<Self> {
        Arc::new(FsDurability { root: root.into(), config })
    }

    /// The data directory a given node uses.
    pub fn node_dir(&self, node: SnId) -> PathBuf {
        self.root.join(format!("sn-{}", node.0))
    }
}

impl DurabilityProvider for FsDurability {
    fn open_node(&self, node: SnId) -> Result<RecoveredNode> {
        let (engine, partitions) = DurableNode::open(self.node_dir(node), self.config.clone())?;
        Ok(RecoveredNode { engine, partitions })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("tell-durable-engine-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn b(s: &str) -> Bytes {
        Bytes::copy_from_slice(s.as_bytes())
    }

    fn cell(token: u64, value: &str) -> Cell {
        Cell { token, value: b(value) }
    }

    /// Segment files in `dir`, oldest seg_seq first.
    fn segment_files(dir: &Path) -> Vec<PathBuf> {
        let mut segs: Vec<(u64, PathBuf)> = fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter_map(|p| {
                let name = p.file_name()?.to_str()?;
                Some((parse_name(name, "seg-", ".log")?, p.clone()))
            })
            .collect();
        segs.sort();
        segs.into_iter().map(|(_, p)| p).collect()
    }

    fn tiny_config() -> DurableNodeConfig {
        DurableNodeConfig { segment_bytes: 256, fsync: FsyncPolicy::Always, checkpoint_every: 0 }
    }

    #[test]
    fn fresh_dir_recovers_nothing_and_roundtrips() {
        let dir = test_dir("roundtrip");
        {
            let (node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
            assert!(recovered.is_empty());
            node.record(0, 1, &b("alpha"), Some(&cell(10, "one"))).unwrap();
            node.record(0, 2, &b("beta"), Some(&cell(11, "two"))).unwrap();
            node.record(1, 1, &b("gamma"), Some(&cell(5, "three"))).unwrap();
            node.record(0, 3, &b("alpha"), Some(&cell(12, "one-v2"))).unwrap();
            node.record(1, 2, &b("gamma"), None).unwrap();
        }
        let (_node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered.len(), 2);
        let p0 = &recovered[0];
        assert_eq!((p0.pid, p0.applied_seq, p0.max_token), (0, 3, 12));
        assert_eq!(
            p0.entries,
            vec![(b("alpha"), cell(12, "one-v2")), (b("beta"), cell(11, "two"))]
        );
        let p1 = &recovered[1];
        assert_eq!((p1.pid, p1.applied_seq, p1.max_token), (1, 2, 5));
        assert!(p1.entries.is_empty(), "delete replayed, applied_seq kept");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_and_checkpoint_recycle_segments() {
        let dir = test_dir("ckpt");
        let (node, _) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        for i in 0..40 {
            let key = b(&format!("key-{i:03}"));
            node.record(0, i + 1, &key, Some(&cell(i + 1, &format!("value-{i}")))).unwrap();
        }
        assert!(segment_files(&dir).len() > 1, "tiny segments forced rotation");
        node.checkpoint().unwrap();
        assert_eq!(node.inner.lock().sealed.len(), 0, "checkpoint subsumed sealed segments");
        let active = node.inner.lock().active.seg_seq;
        assert_eq!(segment_files(&dir), vec![seg_path(&dir, active)], "only the active one left");
        drop(node);
        // Recovery from checkpoint + empty tail.
        let (_node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].entries.len(), 40);
        assert_eq!(recovered[0].applied_seq, 40);
        assert_eq!(recovered[0].max_token, 40);
        let entries: BTreeMap<_, _> = recovered[0].entries.iter().cloned().collect();
        assert_eq!(entries[&b("key-007")], cell(8, "value-7"));
        assert_eq!(entries[&b("key-039")], cell(40, "value-39"));
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn writes_after_checkpoint_survive_restart() {
        let dir = test_dir("post-ckpt");
        {
            let (node, _) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
            node.record(0, 1, &b("a"), Some(&cell(1, "v1"))).unwrap();
            node.checkpoint().unwrap();
            node.record(0, 2, &b("b"), Some(&cell(2, "v2"))).unwrap();
            node.record(0, 3, &b("a"), None).unwrap();
        }
        let (_node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].entries, vec![(b("b"), cell(2, "v2"))]);
        assert_eq!(recovered[0].applied_seq, 3);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_truncated_to_the_acked_prefix() {
        let dir = test_dir("torn");
        {
            let (node, _) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
            node.record(0, 1, &b("a"), Some(&cell(1, "first"))).unwrap();
            node.record(0, 2, &b("b"), Some(&cell(2, "second"))).unwrap();
        }
        // Tear the newest segment mid-record: chop 3 bytes off.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("seg-"))
            .max_by_key(|p| fs::metadata(p).unwrap().len())
            .unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (_node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].entries, vec![(b("a"), cell(1, "first"))]);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_reset_recovers_stale_not_fresh() {
        let dir = test_dir("torn-reset");
        let config = DurableNodeConfig { segment_bytes: 1 << 20, ..tiny_config() };
        {
            let (node, _) = DurableNode::open(dir.clone(), config.clone()).unwrap();
            node.record(0, 1, &b("a"), Some(&cell(1, "v1"))).unwrap();
            node.record(0, 2, &b("b"), Some(&cell(2, "v2"))).unwrap();
            // Re-sync from a peer that is 3 mutations ahead.
            node.reset_partition(0, 5, &[(b("a"), cell(7, "v1-new")), (b("c"), cell(8, "v3"))])
                .unwrap();
        }
        // Tear off the tail of the newest segment: the final watermark
        // record (and possibly more) is lost, as if the process was killed
        // mid-reset.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("seg-"))
            .max_by_key(|p| fs::metadata(p).unwrap().len())
            .unwrap();
        let len = fs::metadata(&seg).unwrap().len();
        let f = OpenOptions::new().write(true).open(&seg).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let (_node, recovered) = DurableNode::open(dir.clone(), config.clone()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert!(
            recovered[0].applied_seq < 5,
            "torn reset must recover below the target watermark (stale), got {}",
            recovered[0].applied_seq
        );
        // A clean reset (no tear) recovers exactly the snapshot at the
        // target watermark.
        let (node, _) = DurableNode::open(dir.clone(), config.clone()).unwrap();
        node.reset_partition(0, 5, &[(b("a"), cell(7, "v1-new")), (b("c"), cell(8, "v3"))])
            .unwrap();
        drop(node);
        let (_node, recovered) = DurableNode::open(dir.clone(), config).unwrap();
        assert_eq!(recovered[0].applied_seq, 5);
        assert_eq!(
            recovered[0].entries,
            vec![(b("a"), cell(7, "v1-new")), (b("c"), cell(8, "v3"))]
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn header_only_torn_creation_is_dropped() {
        let dir = test_dir("torn-creation");
        {
            let (node, _) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
            node.record(0, 1, &b("a"), Some(&cell(1, "v"))).unwrap();
        }
        // A crash during open_fresh_segment leaves at most a partial header.
        fs::write(seg_path(&dir, 99), [0xAAu8; 7]).unwrap();
        let (_node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered[0].entries, vec![(b("a"), cell(1, "v"))]);
        assert!(!seg_path(&dir, 99).exists(), "torn creation removed");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segment_named_for_another_seg_seq_fails_loudly() {
        let dir = test_dir("renamed");
        {
            let (node, _) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
            node.record(0, 1, &b("a"), Some(&cell(1, "v"))).unwrap();
        }
        let seg = segment_files(&dir).pop().unwrap();
        fs::rename(&seg, seg_path(&dir, 77)).unwrap();
        let err = DurableNode::open(dir.clone(), tiny_config()).unwrap_err();
        assert!(format!("{err:?}").contains("unreadable header"), "got {err:?}");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_header_of_a_populated_segment_fails_loudly() {
        let dir = test_dir("bad-header");
        {
            let (node, _) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
            node.record(0, 1, &b("a"), Some(&cell(1, "v"))).unwrap();
        }
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.file_name().unwrap().to_str().unwrap().starts_with("seg-"))
            .max_by_key(|p| fs::metadata(p).unwrap().len())
            .unwrap();
        let mut bytes = fs::read(&seg).unwrap();
        assert!(bytes.len() as u64 > HEADER_LEN);
        bytes[0] ^= 0xFF; // flip a magic byte
        fs::write(&seg, &bytes).unwrap();
        let err = DurableNode::open(dir.clone(), tiny_config()).unwrap_err();
        assert!(
            format!("{err:?}").contains("unreadable header"),
            "expected loud corruption error, got {err:?}"
        );
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_checkpoint_triggers_by_record_count() {
        let dir = test_dir("auto-ckpt");
        let config = DurableNodeConfig { checkpoint_every: 8, ..tiny_config() };
        let (node, _) = DurableNode::open(dir.clone(), config).unwrap();
        for i in 0..20u64 {
            node.record(0, i + 1, &b(&format!("k{i}")), Some(&cell(i + 1, "v"))).unwrap();
        }
        let manifest = Manifest::load(&dir).unwrap();
        assert_ne!(manifest.checkpoint_id, NO_CHECKPOINT, "auto checkpoint ran");
        drop(node);
        let (_node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered[0].entries.len(), 20);
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!(FsyncPolicy::parse("always"), Ok(FsyncPolicy::Always));
        assert_eq!(FsyncPolicy::parse("never"), Ok(FsyncPolicy::Never));
        assert!(FsyncPolicy::parse("batch:32").is_err());
        assert!(FsyncPolicy::parse("sometimes").is_err());
    }

    #[test]
    fn provider_keeps_nodes_separate() {
        let root = test_dir("provider");
        let config = tiny_config();
        let provider = FsDurability::new(root.clone(), config);
        {
            let n0 = provider.open_node(SnId(0)).unwrap();
            let n1 = provider.open_node(SnId(1)).unwrap();
            n0.engine.record(0, 1, &b("k"), Some(&cell(1, "node0"))).unwrap();
            n1.engine.record(0, 1, &b("k"), Some(&cell(1, "node1"))).unwrap();
        }
        let n0 = provider.open_node(SnId(0)).unwrap();
        assert_eq!(n0.partitions[0].entries, vec![(b("k"), cell(1, "node0"))]);
        let n1 = provider.open_node(SnId(1)).unwrap();
        assert_eq!(n1.partitions[0].entries, vec![(b("k"), cell(1, "node1"))]);
        fs::remove_dir_all(&root).unwrap();
    }
}
