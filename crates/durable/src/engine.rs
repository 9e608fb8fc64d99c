//! The per-node log-structured engine.
//!
//! One [`DurableNode`] owns one data directory:
//!
//! ```text
//! sn-3/
//!   MANIFEST          atomic commit point (checkpoint id + covered seg_seq)
//!   ckpt-7.dat        current checkpoint (live entries + watermark trailer)
//!   seg-0.log         segment files, named by recycled *slot*; replay
//!   seg-1.log         order comes from the seg_seq in each header
//! ```
//!
//! Writes append CRC-framed records to the active segment; the in-RAM index
//! maps `(pid, key)` to the value's on-disk location, and the LRU object
//! cache holds hot value bytes. Rotation seals a full segment; every
//! `checkpoint_every` records the engine rewrites the live set into a fresh
//! checkpoint, commits it via the manifest, and recycles subsumed segment
//! slots. Recovery loads the manifest's checkpoint and replays strictly
//! newer segments, truncating a torn tail in the newest one.

use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use parking_lot::Mutex;
use tell_common::{Error, Result, SnId};
use tell_obs::{add, incr, Counter, Probe, Site};
use tell_store::durability::{
    DurabilityProvider, NodeDurability, RecoveredNode, RecoveredPartition,
};
use tell_store::Cell;

use crate::alloc::SlotAllocator;
use crate::cache::ObjectCache;
use crate::manifest::{sync_dir, Manifest, NO_CHECKPOINT};
use crate::segment::{
    decode_header, encode_header, frame_into, io_err, read_frames, write_all, FrameEnd, LogRecord,
    CKPT_MAGIC, FRAME_PREFIX, HEADER_LEN, SEG_MAGIC,
};

/// When to fsync the active segment.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every record: `record()` returning means durable.
    Always,
    /// fsync every N records: bounded loss window, much cheaper.
    Batch(u64),
    /// Never fsync (the OS flushes eventually): crash durability is
    /// whatever the page cache survived — for benches and tests only.
    Never,
}

impl FsyncPolicy {
    /// Parse `always`, `never`, or `batch:<n>` (CLI flag format).
    pub fn parse(s: &str) -> std::result::Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("batch:").and_then(|n| n.parse::<u64>().ok()) {
                Some(n) if n > 0 => Ok(FsyncPolicy::Batch(n)),
                _ => Err(format!("bad fsync policy {other:?} (always | never | batch:<n>)")),
            },
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
    /// Object-cache byte budget (0 disables caching).
    pub cache_bytes: usize,
    /// Trim the cache from a background thread instead of only inline.
    pub background_eviction: bool,
}

impl Default for DurableNodeConfig {
    fn default() -> Self {
        DurableNodeConfig {
            segment_bytes: 8 << 20,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 4096,
            cache_bytes: 32 << 20,
            background_eviction: false,
        }
    }
}

/// Which file a value lives in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FileKey {
    Seg(u32),
    Ckpt(u64),
}

#[derive(Clone, Copy, Debug)]
struct ValueLoc {
    file: FileKey,
    off: u64,
    len: u32,
}

#[derive(Clone, Debug)]
struct IndexEntry {
    token: u64,
    loc: ValueLoc,
}

#[derive(Debug, Default)]
struct PartitionIndex {
    map: std::collections::BTreeMap<Bytes, IndexEntry>,
    applied_seq: u64,
    max_token: u64,
}

struct ActiveSegment {
    file: File,
    slot: u32,
    seg_seq: u64,
    len: u64,
}

struct Inner {
    allocator: SlotAllocator,
    active: ActiveSegment,
    /// Sealed segments awaiting checkpoint subsumption: `(slot, seg_seq)`.
    sealed: Vec<(u32, u64)>,
    next_seg_seq: u64,
    manifest: Manifest,
    index: HashMap<u32, PartitionIndex>,
    records_since_ckpt: u64,
    appends_since_sync: u64,
}

/// A log-structured persistence engine for one storage node.
pub struct DurableNode {
    dir: PathBuf,
    config: DurableNodeConfig,
    cache: ObjectCache,
    inner: Mutex<Inner>,
    evictor_stop: Arc<AtomicBool>,
    evictor: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl std::fmt::Debug for DurableNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableNode").field("dir", &self.dir).finish_non_exhaustive()
    }
}

fn seg_path(dir: &Path, slot: u32) -> PathBuf {
    dir.join(format!("seg-{slot}.log"))
}

fn ckpt_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("ckpt-{id}.dat"))
}

fn parse_seg_name(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?.strip_suffix(".log")?.parse().ok()
}

fn parse_ckpt_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?.strip_suffix(".dat")?.parse().ok()
}

fn read_value_at(dir: &Path, loc: &ValueLoc) -> Result<Bytes> {
    let path = match loc.file {
        FileKey::Seg(slot) => seg_path(dir, slot),
        FileKey::Ckpt(id) => ckpt_path(dir, id),
    };
    let mut file = File::open(&path).map_err(|e| io_err("open value file", &e))?;
    file.seek(SeekFrom::Start(loc.off)).map_err(|e| io_err("seek value", &e))?;
    let mut buf = vec![0u8; loc.len as usize];
    std::io::Read::read_exact(&mut file, &mut buf).map_err(|e| io_err("read value", &e))?;
    Ok(Bytes::from(buf))
}

fn open_fresh_segment(dir: &Path, slot: u32, seg_seq: u64) -> Result<ActiveSegment> {
    let mut file = OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(true)
        .open(seg_path(dir, slot))
        .map_err(|e| io_err("create segment", &e))?;
    write_all(&mut file, "segment header", &encode_header(SEG_MAGIC, seg_seq))?;
    file.sync_all().map_err(|e| io_err("sync segment header", &e))?;
    sync_dir(dir)?;
    Ok(ActiveSegment { file, slot, seg_seq, len: HEADER_LEN })
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
        let mut segs: Vec<(u64, u32)> = Vec::new(); // (seg_seq, slot)
        let mut ckpts: Vec<u64> = Vec::new();
        let entries = fs::read_dir(&dir).map_err(|e| io_err("list data dir", &e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("list data dir", &e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(slot) = parse_seg_name(name) {
                let path = seg_path(&dir, slot);
                let mut header = [0u8; HEADER_LEN as usize];
                let ok = File::open(&path)
                    .ok()
                    .and_then(|mut f| std::io::Read::read_exact(&mut f, &mut header).ok())
                    .and_then(|_| decode_header(&header, SEG_MAGIC).ok());
                match ok {
                    // An unreadable header is a torn creation only while the
                    // file is at most header-sized: the header is synced
                    // before the segment goes active, so no acked record can
                    // follow a header that never fully reached disk. A
                    // longer file holds framed records — an unreadable
                    // header there is real corruption (e.g. a bit flip in an
                    // old synced segment) and deleting it would silently
                    // drop acked writes.
                    None => {
                        let len =
                            fs::metadata(&path).map_err(|e| io_err("stat segment", &e))?.len();
                        if len > HEADER_LEN {
                            return Err(Error::corrupt(format!(
                                "segment {name} has an unreadable header but {len} bytes of data"
                            )));
                        }
                        fs::remove_file(&path).map_err(|e| io_err("drop torn segment", &e))?;
                        incr(Counter::DurableTornTailsTruncated);
                    }
                    Some(seg_seq) if seg_seq <= manifest.covered_seg_seq => {
                        // Subsumed by the checkpoint; a crash beat the cleanup.
                        fs::remove_file(&path).map_err(|e| io_err("drop covered segment", &e))?;
                    }
                    Some(seg_seq) => segs.push((seg_seq, slot)),
                }
            } else if let Some(id) = parse_ckpt_name(name) {
                if manifest.checkpoint_id == NO_CHECKPOINT || id != manifest.checkpoint_id {
                    fs::remove_file(ckpt_path(&dir, id))
                        .map_err(|e| io_err("drop stale checkpoint", &e))?;
                } else {
                    ckpts.push(id);
                }
            }
        }
        segs.sort_unstable();

        let mut index: HashMap<u32, PartitionIndex> = HashMap::new();
        let mut recovered_records = 0u64;

        // Load the checkpoint the manifest points at.
        if manifest.checkpoint_id != NO_CHECKPOINT {
            if ckpts.is_empty() {
                return Err(Error::corrupt(format!(
                    "MANIFEST names checkpoint {} but the file is missing",
                    manifest.checkpoint_id
                )));
            }
            let id = manifest.checkpoint_id;
            let mut file =
                File::open(ckpt_path(&dir, id)).map_err(|e| io_err("open checkpoint", &e))?;
            let mut header = [0u8; HEADER_LEN as usize];
            std::io::Read::read_exact(&mut file, &mut header)
                .map_err(|e| io_err("read checkpoint header", &e))?;
            if decode_header(&header, CKPT_MAGIC)? != id {
                return Err(Error::corrupt("checkpoint id mismatch"));
            }
            let mut saw_trailer = false;
            let end = read_frames(&mut file, HEADER_LEN, |payload, payload_off| {
                let (rec, value_off) = LogRecord::decode(payload)?;
                match rec {
                    LogRecord::Put { pid, key, cell, .. } => {
                        let part = index.entry(pid).or_default();
                        part.map.insert(
                            key,
                            IndexEntry {
                                token: cell.token,
                                loc: ValueLoc {
                                    file: FileKey::Ckpt(id),
                                    off: payload_off + value_off as u64,
                                    len: cell.value.len() as u32,
                                },
                            },
                        );
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
        let mut allocator = SlotAllocator::new();
        let mut max_seg_seq = manifest.covered_seg_seq;
        for (i, &(seg_seq, slot)) in segs.iter().enumerate() {
            allocator.reserve(slot);
            max_seg_seq = max_seg_seq.max(seg_seq);
            let path = seg_path(&dir, slot);
            let mut file = OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .map_err(|e| io_err("open segment", &e))?;
            file.seek(SeekFrom::Start(HEADER_LEN)).map_err(|e| io_err("seek segment", &e))?;
            let end = read_frames(&mut file, HEADER_LEN, |payload, payload_off| {
                let (rec, value_off) = LogRecord::decode(payload)?;
                match rec {
                    LogRecord::Put { pid, seq, key, cell } => {
                        let part = index.entry(pid).or_default();
                        part.map.insert(
                            key,
                            IndexEntry {
                                token: cell.token,
                                loc: ValueLoc {
                                    file: FileKey::Seg(slot),
                                    off: payload_off + value_off as u64,
                                    len: cell.value.len() as u32,
                                },
                            },
                        );
                        part.applied_seq = part.applied_seq.max(seq);
                        part.max_token = part.max_token.max(cell.token);
                    }
                    LogRecord::Delete { pid, seq, key } => {
                        let part = index.entry(pid).or_default();
                        part.map.remove(&key);
                        part.applied_seq = part.applied_seq.max(seq);
                    }
                    LogRecord::CheckpointTrailer { .. } => {
                        return Err(Error::corrupt("checkpoint trailer inside segment"));
                    }
                }
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

        // Recovered segments stay sealed; appends go to a fresh one.
        let sealed: Vec<(u32, u64)> = segs.iter().map(|&(seq, slot)| (slot, seq)).collect();
        let next_seg_seq = max_seg_seq + 1;
        let slot = allocator.alloc();
        let active = open_fresh_segment(&dir, slot, next_seg_seq)?;

        let node = Arc::new(DurableNode {
            cache: ObjectCache::new(config.cache_bytes),
            dir: dir.clone(),
            config: config.clone(),
            inner: Mutex::new(Inner {
                allocator,
                active,
                sealed,
                next_seg_seq: next_seg_seq + 1,
                manifest,
                index,
                records_since_ckpt: 0,
                appends_since_sync: 0,
            }),
            evictor_stop: Arc::new(AtomicBool::new(false)),
            evictor: Mutex::new(None),
        });

        // Materialize recovered images (and warm the cache along the way).
        let mut partitions = Vec::new();
        {
            let inner = node.inner.lock();
            let mut pids: Vec<u32> = inner.index.keys().copied().collect();
            pids.sort_unstable();
            for pid in pids {
                let part = &inner.index[&pid];
                let mut entries = Vec::with_capacity(part.map.len());
                for (key, entry) in &part.map {
                    let value = read_value_at(&dir, &entry.loc)?;
                    node.cache.put(pid, key.clone(), value.clone());
                    entries.push((key.clone(), Cell { token: entry.token, value }));
                }
                partitions.push(RecoveredPartition {
                    pid,
                    applied_seq: part.applied_seq,
                    max_token: part.max_token,
                    entries,
                });
            }
        }

        if config.background_eviction && config.cache_bytes > 0 {
            node.spawn_evictor();
        }
        Ok((node, partitions))
    }

    fn spawn_evictor(self: &Arc<Self>) {
        let stop = Arc::clone(&self.evictor_stop);
        let weak = Arc::downgrade(self);
        let low_watermark = self.config.cache_bytes - self.config.cache_bytes / 8;
        let handle = std::thread::Builder::new()
            .name("tell-durable-evictor".into())
            .spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    std::thread::sleep(std::time::Duration::from_millis(25));
                    let Some(node) = weak.upgrade() else { break };
                    node.cache.trim_to(low_watermark);
                }
            })
            .expect("spawn evictor thread");
        *self.evictor.lock() = Some(handle);
    }

    /// The object cache (benches read hit/miss state through tell-obs, but
    /// tests also want direct occupancy checks).
    pub fn cache(&self) -> &ObjectCache {
        &self.cache
    }

    /// Read one key through the cache, falling back to the on-disk value.
    pub fn get(&self, pid: u32, key: &Bytes) -> Result<Option<Cell>> {
        let inner = self.inner.lock();
        let Some(entry) = inner.index.get(&pid).and_then(|p| p.map.get(key)).cloned() else {
            return Ok(None);
        };
        if let Some(value) = self.cache.get(pid, key) {
            return Ok(Some(Cell { token: entry.token, value }));
        }
        // Stay under the lock: a concurrent checkpoint could otherwise
        // delete the segment between the index lookup and the read.
        let value = read_value_at(&self.dir, &entry.loc)?;
        self.cache.put(pid, key.clone(), value.clone());
        Ok(Some(Cell { token: entry.token, value }))
    }

    /// Segment files currently on disk (sealed + active).
    pub fn segment_count(&self) -> usize {
        let inner = self.inner.lock();
        inner.sealed.len() + 1
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
        inner.appends_since_sync = 0;
        let seg_seq = inner.next_seg_seq;
        inner.next_seg_seq += 1;
        let slot = inner.allocator.alloc();
        let fresh = open_fresh_segment(&self.dir, slot, seg_seq)?;
        let old = std::mem::replace(&mut inner.active, fresh);
        inner.sealed.push((old.slot, old.seg_seq));
        Ok(())
    }

    fn do_checkpoint(&self, inner: &mut Inner) -> Result<()> {
        // Rotate so every record to be covered sits in a sealed segment.
        if inner.active.len > HEADER_LEN {
            self.rotate(inner)?;
        }
        let covered = inner.active.seg_seq - 1;
        let id = inner.manifest.checkpoint_id.wrapping_add(1);

        let path = ckpt_path(&self.dir, id);
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .map_err(|e| io_err("create checkpoint", &e))?;
        write_all(&mut file, "checkpoint header", &encode_header(CKPT_MAGIC, id))?;
        let mut off = HEADER_LEN;
        let mut relocations: Vec<(u32, Bytes, ValueLoc)> = Vec::new();
        let mut trailer_parts: Vec<(u32, u64, u64)> = Vec::new();
        let mut pids: Vec<u32> = inner.index.keys().copied().collect();
        pids.sort_unstable();
        let mut payload = Vec::new();
        let mut framed = Vec::new();
        let mut records = 0u64;
        for &pid in &pids {
            let part = &inner.index[&pid];
            trailer_parts.push((pid, part.applied_seq, part.max_token));
            for (key, entry) in &part.map {
                let value = match self.cache.get(pid, key) {
                    Some(v) => v,
                    None => read_value_at(&self.dir, &entry.loc)?,
                };
                let rec = LogRecord::Put {
                    pid,
                    seq: 0,
                    key: key.clone(),
                    cell: Cell { token: entry.token, value },
                };
                payload.clear();
                framed.clear();
                let value_off = rec.encode_into(&mut payload);
                frame_into(&mut framed, &payload);
                write_all(&mut file, "checkpoint record", &framed)?;
                relocations.push((
                    pid,
                    key.clone(),
                    ValueLoc {
                        file: FileKey::Ckpt(id),
                        off: off + FRAME_PREFIX + value_off as u64,
                        len: entry.loc.len,
                    },
                ));
                off += framed.len() as u64;
                records += 1;
            }
        }
        let trailer =
            LogRecord::CheckpointTrailer { covered_seg_seq: covered, partitions: trailer_parts };
        payload.clear();
        framed.clear();
        trailer.encode_into(&mut payload);
        frame_into(&mut framed, &payload);
        write_all(&mut file, "checkpoint trailer", &framed)?;
        file.sync_all().map_err(|e| io_err("sync checkpoint", &e))?;
        incr(Counter::DurableFsyncs);
        drop(file);

        // Commit point: the manifest now names the new checkpoint.
        let old_id = inner.manifest.checkpoint_id;
        inner.manifest = Manifest { checkpoint_id: id, covered_seg_seq: covered };
        inner.manifest.store(&self.dir)?;

        // Cleanup is safe after the commit point; recovery re-does it if we
        // crash here.
        if old_id != NO_CHECKPOINT {
            let _ = fs::remove_file(ckpt_path(&self.dir, old_id));
        }
        let mut recycled = 0u64;
        for (slot, _seg_seq) in inner.sealed.drain(..) {
            let _ = fs::remove_file(seg_path(&self.dir, slot));
            inner.allocator.free(slot);
            recycled += 1;
        }
        sync_dir(&self.dir)?;
        for (pid, key, loc) in relocations {
            if let Some(entry) = inner.index.get_mut(&pid).and_then(|p| p.map.get_mut(&key)) {
                // Only relocate if the entry wasn't overwritten meanwhile
                // (it can't be — we hold the lock — but stay defensive).
                entry.loc = loc;
            }
        }
        inner.records_since_ckpt = 0;
        incr(Counter::DurableCheckpoints);
        add(Counter::DurableCheckpointRecords, records);
        add(Counter::DurableSegmentsRecycled, recycled);
        Ok(())
    }
}

impl DurableNode {
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
        let mut payload = Vec::new();
        let value_off = rec.encode_into(&mut payload);
        let mut framed = Vec::new();
        frame_into(&mut framed, &payload);

        let at = inner.active.len;
        write_all(&mut inner.active.file, "append record", &framed)?;
        inner.active.len += framed.len() as u64;
        incr(Counter::DurableAppends);
        add(Counter::DurableAppendBytes, framed.len() as u64);

        let slot = inner.active.slot;
        let part = inner.index.entry(pid).or_default();
        match cell {
            Some(c) => {
                part.map.insert(
                    key.clone(),
                    IndexEntry {
                        token: c.token,
                        loc: ValueLoc {
                            file: FileKey::Seg(slot),
                            off: at + FRAME_PREFIX + value_off as u64,
                            len: c.value.len() as u32,
                        },
                    },
                );
                part.max_token = part.max_token.max(c.token);
                self.cache.put(pid, key.clone(), c.value.clone());
            }
            None => {
                part.map.remove(key);
                self.cache.remove(pid, key);
            }
        }
        part.applied_seq = part.applied_seq.max(seq);

        inner.appends_since_sync += 1;
        let should_sync = match self.config.fsync {
            FsyncPolicy::Always => true,
            FsyncPolicy::Batch(n) => inner.appends_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if should_sync {
            let _fsync = Probe::enter(Site::DurableFsync);
            inner.active.file.sync_data().map_err(|e| io_err("fsync segment", &e))?;
            incr(Counter::DurableFsyncs);
            inner.appends_since_sync = 0;
        }

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
}

impl NodeDurability for DurableNode {
    fn record(&self, pid: u32, seq: u64, key: &Bytes, cell: Option<&Cell>) -> Result<()> {
        let mut inner = self.inner.lock();
        self.append_locked(&mut inner, pid, seq, key, cell)
    }

    fn reset_partition(&self, pid: u32, applied_seq: u64, entries: &[(Bytes, Cell)]) -> Result<()> {
        let mut inner = self.inner.lock();
        let keep: std::collections::HashSet<&Bytes> = entries.iter().map(|(k, _)| k).collect();
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
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        let _probe = Probe::enter(Site::DurableFsync);
        inner.active.file.sync_data().map_err(|e| io_err("fsync segment", &e))?;
        incr(Counter::DurableFsyncs);
        inner.appends_since_sync = 0;
        Ok(())
    }
}

impl Drop for DurableNode {
    fn drop(&mut self) {
        self.evictor_stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.evictor.lock().take() {
            let _ = handle.join();
        }
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

    fn tiny_config() -> DurableNodeConfig {
        DurableNodeConfig {
            segment_bytes: 256,
            fsync: FsyncPolicy::Always,
            checkpoint_every: 0,
            cache_bytes: 1 << 20,
            background_eviction: false,
        }
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
        let (node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
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
        assert_eq!(node.get(0, &b("alpha")).unwrap(), Some(cell(12, "one-v2")));
        assert_eq!(node.get(1, &b("gamma")).unwrap(), None);
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
        assert!(node.segment_count() > 1, "tiny segments forced rotation");
        node.checkpoint().unwrap();
        assert_eq!(node.segment_count(), 1, "checkpoint recycled sealed segments");
        // Values remain readable from the checkpoint file (cold cache).
        node.cache.trim_to(0);
        assert_eq!(node.get(0, &b("key-007")).unwrap(), Some(cell(8, "value-7")));
        drop(node);
        // Recovery from checkpoint + empty tail.
        let (node, recovered) = DurableNode::open(dir.clone(), tiny_config()).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered[0].entries.len(), 40);
        assert_eq!(recovered[0].applied_seq, 40);
        assert_eq!(node.get(0, &b("key-039")).unwrap(), Some(cell(40, "value-39")));
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
        assert_eq!(FsyncPolicy::parse("batch:32"), Ok(FsyncPolicy::Batch(32)));
        assert!(FsyncPolicy::parse("batch:0").is_err());
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
