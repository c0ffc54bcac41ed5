//! Window snapshots: the retained units, serialized and atomically
//! swapped into place.
//!
//! A snapshot bounds recovery work — on boot the daemon loads the
//! snapshot and replays only the WAL records after it, instead of the
//! entire history. The write protocol is the classic atomic-rename
//! dance: serialize to `snapshot.car.tmp`, fsync the temp file, rename
//! it over `snapshot.car`, fsync the directory. A crash at any point
//! leaves either the old complete snapshot or the new complete snapshot,
//! never a half-written one; a corrupt snapshot (checksum mismatch,
//! short file) is ignored with a warning and recovery falls back to
//! replaying the WAL from the beginning.
//!
//! ## Format
//!
//! ```text
//! snapshot = magic:"CARSNAP1"  crc:u32le  len:u64le  payload
//! payload  = last_seq:u64le  n_units:u32le  unit*
//! unit     = ntx:u32le  ( nitems:u32le  item:u32le* )*
//! ```
//!
//! `crc` covers the payload; `len` is the payload length.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

use car_itemset::ItemSet;

use crate::persist::crc::crc32;
use crate::persist::wal::{decode_unit, encode_unit_into, encoded_unit_len};
use crate::sync::log_warn;

/// Magic bytes identifying a version-1 snapshot.
pub const MAGIC: &[u8; 8] = b"CARSNAP1";

/// Final snapshot file name within the data directory.
pub const SNAPSHOT_FILE: &str = "snapshot.car";

/// Temp file the new snapshot is staged in before the rename.
pub const SNAPSHOT_TMP_FILE: &str = "snapshot.car.tmp";

/// A successfully loaded snapshot.
#[derive(Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Sequence number of the newest unit the snapshot contains; WAL
    /// records at or below this are already reflected here.
    pub last_seq: u64,
    /// The retained window at snapshot time, oldest first.
    pub units: Vec<Vec<ItemSet>>,
}

/// Path of the live snapshot inside `dir`.
pub fn snapshot_path(dir: &Path) -> PathBuf {
    dir.join(SNAPSHOT_FILE)
}

/// Bytes in front of the payload: the magic, `crc` and `len`.
const HEADER_LEN: usize = MAGIC.len() + 4 + 8;

fn encode(last_seq: u64, units: &[Vec<ItemSet>]) -> Vec<u8> {
    // The unit encoding is fixed-width, so one buffer is sized exactly
    // up front: the header is reserved, the payload encoded after it,
    // and the payload's CRC and length patched into the header last.
    let payload_len = 12 + units.iter().map(|u| encoded_unit_len(u)).sum::<usize>();
    let mut out = Vec::with_capacity(HEADER_LEN + payload_len);
    out.extend_from_slice(MAGIC);
    out.resize(HEADER_LEN, 0);
    out.extend_from_slice(&last_seq.to_le_bytes());
    out.extend_from_slice(&(units.len() as u32).to_le_bytes());
    for unit in units {
        encode_unit_into(unit, &mut out);
    }
    let (header, payload) = out.split_at_mut(HEADER_LEN);
    let (crc, len) = header.split_at_mut(MAGIC.len()).1.split_at_mut(4);
    crc.copy_from_slice(&crc32(payload).to_le_bytes());
    len.copy_from_slice(&(payload.len() as u64).to_le_bytes());
    out
}

fn decode(bytes: &[u8]) -> Option<Snapshot> {
    let rest = bytes.strip_prefix(MAGIC.as_slice())?;
    let crc = u32::from_le_bytes(rest.get(..4)?.try_into().ok()?);
    let len = u64::from_le_bytes(rest.get(4..12)?.try_into().ok()?);
    let payload = rest.get(12..)?;
    if payload.len() as u64 != len || crc32(payload) != crc {
        return None;
    }
    let mut pos = 0usize;
    let last_seq = u64::from_le_bytes(payload.get(..8)?.try_into().ok()?);
    pos += 8;
    let n_units = u32::from_le_bytes(payload.get(8..12)?.try_into().ok()?) as usize;
    pos += 4;
    let mut units = Vec::with_capacity(n_units.min(1 << 20));
    for _ in 0..n_units {
        units.push(decode_unit(payload, &mut pos)?);
    }
    if pos != payload.len() {
        return None;
    }
    Some(Snapshot { last_seq, units })
}

/// Serializes the retained window and atomically replaces the previous
/// snapshot.
///
/// # Errors
///
/// Propagates filesystem failures; on error the previous snapshot (if
/// any) is still intact.
pub fn write_snapshot(
    dir: &Path,
    last_seq: u64,
    units: &[Vec<ItemSet>],
) -> io::Result<()> {
    let bytes = encode(last_seq, units);
    let tmp = dir.join(SNAPSHOT_TMP_FILE);
    {
        let mut file =
            OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        file.write_all(&bytes)?;
        file.sync_all()?;
    }
    std::fs::rename(&tmp, snapshot_path(dir))?;
    // The rename must itself be durable, or a crash could resurrect the
    // old snapshot after the WAL segments it needed were pruned.
    match File::open(dir) {
        Ok(handle) => handle.sync_all()?,
        Err(e) => return Err(e),
    }
    Ok(())
}

/// Loads the snapshot from `dir`, if a valid one exists.
///
/// Returns `None` — with a logged warning for anything other than a
/// simply-missing file — when the snapshot is absent, unreadable, or
/// fails validation; recovery then replays the WAL from the start.
pub fn load_snapshot(dir: &Path) -> Option<Snapshot> {
    let path = snapshot_path(dir);
    let bytes = match std::fs::read(&path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == io::ErrorKind::NotFound => return None,
        Err(e) => {
            log_warn(&format!("could not read snapshot {}: {e}", path.display()));
            return None;
        }
    };
    match decode(&bytes) {
        Some(snapshot) => Some(snapshot),
        None => {
            log_warn(&format!(
                "snapshot {} is corrupt; ignoring it and replaying the full WAL",
                path.display()
            ));
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "car-snap-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn units() -> Vec<Vec<ItemSet>> {
        vec![
            vec![ItemSet::from_ids([1, 2]), ItemSet::from_ids([3])],
            vec![ItemSet::from_ids([4])],
            vec![],
        ]
    }

    #[test]
    fn encoding_is_pinned() {
        // A fixed two-unit snapshot, byte for byte: the header (magic,
        // payload CRC, payload length 48) and the payload (last_seq,
        // unit count, then each unit's transactions).
        let units = vec![
            vec![ItemSet::from_ids([1, 2]), ItemSet::from_ids([3])],
            vec![ItemSet::from_ids([70_000])],
        ];
        let bytes = encode(0x0102_0304_0506_0708, &units);
        let expected: [u8; 68] = [
            67, 65, 82, 83, 78, 65, 80, 49, 31, 118, 51, 106, 48, 0, 0, 0, 0, 0, 0,
            0, //
            8, 7, 6, 5, 4, 3, 2, 1, 2, 0, 0, 0, //
            2, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 2, 0, 0, 0, 1, 0, 0, 0, 3, 0, 0,
            0, //
            1, 0, 0, 0, 1, 0, 0, 0, 112, 17, 1, 0,
        ];
        assert_eq!(bytes, expected);
        assert_eq!(bytes.capacity(), bytes.len(), "the buffer is sized exactly");
        assert_eq!(
            decode(&bytes),
            Some(Snapshot { last_seq: 0x0102_0304_0506_0708, units })
        );
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = temp_dir();
        write_snapshot(&dir, 17, &units()).unwrap();
        let loaded = load_snapshot(&dir).unwrap();
        assert_eq!(loaded.last_seq, 17);
        assert_eq!(loaded.units, units());
        // No temp file left behind.
        assert!(!dir.join(SNAPSHOT_TMP_FILE).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rewrite_replaces_previous_snapshot() {
        let dir = temp_dir();
        write_snapshot(&dir, 3, &units()).unwrap();
        write_snapshot(&dir, 9, &units()[..1]).unwrap();
        let loaded = load_snapshot(&dir).unwrap();
        assert_eq!(loaded.last_seq, 9);
        assert_eq!(loaded.units.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_is_none() {
        let dir = temp_dir();
        assert!(load_snapshot(&dir).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_rejected() {
        let dir = temp_dir();
        write_snapshot(&dir, 5, &units()).unwrap();
        let path = snapshot_path(&dir);

        // Bit flip in the payload.
        let good = std::fs::read(&path).unwrap();
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x40;
        std::fs::write(&path, &bad).unwrap();
        assert!(load_snapshot(&dir).is_none());

        // Truncated file.
        std::fs::write(&path, &good[..good.len() / 2]).unwrap();
        assert!(load_snapshot(&dir).is_none());

        // Wrong magic.
        let mut bad = good.clone();
        bad[0] = b'X';
        std::fs::write(&path, &bad).unwrap();
        assert!(load_snapshot(&dir).is_none());

        // The original still loads.
        std::fs::write(&path, &good).unwrap();
        assert_eq!(load_snapshot(&dir).unwrap().last_seq, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
