//! The durable manifest: the atomic commit point for checkpoints.
//!
//! `MANIFEST` names the current checkpoint (if any) and the highest
//! `seg_seq` it subsumes. It is rewritten via `MANIFEST.tmp` + fsync +
//! rename + directory fsync, so a crash leaves either the old or the new
//! manifest — never a torn one. Recovery trusts the manifest: segments with
//! `seg_seq` at or below `covered_seg_seq` are garbage awaiting deletion,
//! everything newer is replayed on top of the checkpoint.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use tell_common::{Error, Result};

use crate::segment::{crc32, io_err};

const MANIFEST_MAGIC: &[u8; 4] = b"TDMF";
/// Sentinel for "no checkpoint yet".
pub const NO_CHECKPOINT: u64 = u64::MAX;

/// Contents of a node's `MANIFEST` file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Manifest {
    /// Current checkpoint id, or [`NO_CHECKPOINT`].
    pub checkpoint_id: u64,
    /// Highest `seg_seq` the checkpoint covers (0 when none).
    pub covered_seg_seq: u64,
}

impl Default for Manifest {
    fn default() -> Self {
        Manifest { checkpoint_id: NO_CHECKPOINT, covered_seg_seq: 0 }
    }
}

impl Manifest {
    fn path(dir: &Path) -> PathBuf {
        dir.join("MANIFEST")
    }

    /// Load the manifest, or the default when the file does not exist yet
    /// (fresh data dir). A present-but-corrupt manifest is an error: it
    /// means we can no longer tell which segments a checkpoint subsumed.
    pub fn load(dir: &Path) -> Result<Manifest> {
        let path = Self::path(dir);
        let mut file = match File::open(&path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Manifest::default()),
            Err(e) => return Err(io_err("open manifest", &e)),
        };
        let mut buf = Vec::new();
        file.read_to_end(&mut buf).map_err(|e| io_err("read manifest", &e))?;
        if buf.len() != 24 || &buf[..4] != MANIFEST_MAGIC {
            return Err(Error::corrupt("malformed MANIFEST"));
        }
        let crc = u32::from_le_bytes(buf[4..8].try_into().unwrap());
        if crc32(&buf[8..]) != crc {
            return Err(Error::corrupt("MANIFEST checksum mismatch"));
        }
        Ok(Manifest {
            checkpoint_id: u64::from_le_bytes(buf[8..16].try_into().unwrap()),
            covered_seg_seq: u64::from_le_bytes(buf[16..24].try_into().unwrap()),
        })
    }

    /// Atomically replace the manifest: write `MANIFEST.tmp`, fsync it,
    /// rename over `MANIFEST`, fsync the directory.
    pub fn store(&self, dir: &Path) -> Result<()> {
        let mut buf = Vec::with_capacity(24);
        buf.extend_from_slice(MANIFEST_MAGIC);
        let mut body = [0u8; 16];
        body[..8].copy_from_slice(&self.checkpoint_id.to_le_bytes());
        body[8..].copy_from_slice(&self.covered_seg_seq.to_le_bytes());
        buf.extend_from_slice(&crc32(&body).to_le_bytes());
        buf.extend_from_slice(&body);

        let tmp = dir.join("MANIFEST.tmp");
        let mut file = File::create(&tmp).map_err(|e| io_err("create manifest tmp", &e))?;
        file.write_all(&buf).map_err(|e| io_err("write manifest tmp", &e))?;
        file.sync_all().map_err(|e| io_err("sync manifest tmp", &e))?;
        drop(file);
        fs::rename(&tmp, Self::path(dir)).map_err(|e| io_err("rename manifest", &e))?;
        sync_dir(dir)
    }
}

/// fsync a directory so renames/creates inside it are durable.
pub fn sync_dir(dir: &Path) -> Result<()> {
    let d = File::open(dir).map_err(|e| io_err("open dir", &e))?;
    d.sync_all().map_err(|e| io_err("sync dir", &e))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join(format!("tell-durable-manifest-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn missing_manifest_is_default() {
        let dir = tmp_dir("missing");
        assert_eq!(Manifest::load(&dir).unwrap(), Manifest::default());
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_then_load_roundtrips_and_replaces() {
        let dir = tmp_dir("roundtrip");
        let m1 = Manifest { checkpoint_id: 3, covered_seg_seq: 17 };
        m1.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m1);
        let m2 = Manifest { checkpoint_id: 4, covered_seg_seq: 29 };
        m2.store(&dir).unwrap();
        assert_eq!(Manifest::load(&dir).unwrap(), m2);
        assert!(!dir.join("MANIFEST.tmp").exists(), "tmp renamed away");
        fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_manifest_is_an_error() {
        let dir = tmp_dir("corrupt");
        Manifest { checkpoint_id: 1, covered_seg_seq: 2 }.store(&dir).unwrap();
        let path = dir.join("MANIFEST");
        let mut bytes = fs::read(&path).unwrap();
        *bytes.last_mut().unwrap() ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(Manifest::load(&dir).is_err());
        fs::write(&path, b"short").unwrap();
        assert!(Manifest::load(&dir).is_err());
        fs::remove_dir_all(&dir).unwrap();
    }
}
