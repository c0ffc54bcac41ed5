//! The write-ahead log: length-prefixed, CRC-checksummed unit records.
//!
//! Every accepted time unit is appended here *before* its `202` is sent
//! and before the ingest worker applies it, so an acknowledged unit
//! survives any crash (subject to the configured [`FsyncPolicy`]). The
//! log is a sequence of segment files in the data directory, named
//! `wal-<first-seq>.log`; appends go to the newest segment, a snapshot
//! rotates to a fresh segment, and segments fully covered by a snapshot
//! are deleted.
//!
//! ## Record format
//!
//! ```text
//! record  = len:u32le  crc:u32le  payload
//! payload = seq:u64le  ntx:u32le  tx*
//! tx      = nitems:u32le  item:u32le*
//! ```
//!
//! `len` is the payload length and `crc` its CRC-32; a record whose
//! prefix, checksum, or payload does not hold up is treated as the end
//! of the log (see [`parse_records`]) — recovery truncates there rather
//! than trusting anything after a torn write.
//!
//! ## Failure handling
//!
//! A failed append is rolled back by truncating the segment to its last
//! good length, so the log never accumulates known-bad bytes while the
//! daemon is alive. A failed fsync (or a rollback that itself fails)
//! marks the log **failed**: the daemon stops acknowledging units (503)
//! instead of acknowledging writes it cannot promise are durable.
//!
//! An append is two halves, [`Wal::append_write`] and
//! [`Wal::append_sync`]; [`Wal::append_batch`] runs both. The daemon
//! calls them apart so it can queue the written units for mining while
//! the sync runs. A write failure that rolls back cleanly leaves the log
//! open and the sequence numbers unused; a sync failure fails the log, so
//! a sequence number that was written and queued is never reused.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::str::FromStr;

use car_itemset::ItemSet;

use crate::metrics::Metrics;
use crate::persist::crc::crc32;
use crate::persist::fault::{FaultPlan, WriteVerdict};
use crate::sync::log_warn;

/// Bytes of record framing before the payload: `len` + `crc`.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Upper bound on a single record's payload — a length prefix above
/// this is treated as corruption, not an allocation request.
pub const MAX_PAYLOAD_BYTES: u32 = 64 * 1024 * 1024;

/// When to fsync the WAL after appends.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append batch — acknowledged means on disk.
    Always,
    /// fsync once every `n` appended units — bounded loss window.
    EveryN(u64),
    /// Never fsync on the append path (the OS flushes eventually);
    /// rotation and shutdown still sync.
    Never,
}

impl FromStr for FsyncPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "never" => Ok(FsyncPolicy::Never),
            other => match other.strip_prefix("every=") {
                Some(n) => match n.parse::<u64>() {
                    Ok(n) if n >= 1 => Ok(FsyncPolicy::EveryN(n)),
                    _ => Err(format!("invalid fsync interval `{n}` (need ≥ 1)")),
                },
                None => Err(format!(
                    "invalid fsync policy `{other}` (need always, never, or every=N)"
                )),
            },
        }
    }
}

impl std::fmt::Display for FsyncPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FsyncPolicy::Always => write!(f, "always"),
            FsyncPolicy::EveryN(n) => write!(f, "every={n}"),
            FsyncPolicy::Never => write!(f, "never"),
        }
    }
}

// ---------------------------------------------------------------------
// Encoding / decoding
// ---------------------------------------------------------------------

fn push_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn push_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn read_u32(bytes: &[u8], pos: &mut usize) -> Option<u32> {
    let slice = bytes.get(*pos..pos.checked_add(4)?)?;
    *pos += 4;
    Some(u32::from_le_bytes(slice.try_into().ok()?))
}

fn read_u64(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let slice = bytes.get(*pos..pos.checked_add(8)?)?;
    *pos += 8;
    Some(u64::from_le_bytes(slice.try_into().ok()?))
}

/// Appends the wire encoding of one unit (`ntx` then each transaction).
pub(crate) fn encode_unit_into(unit: &[ItemSet], out: &mut Vec<u8>) {
    push_u32(out, unit.len() as u32);
    for tx in unit {
        push_u32(out, tx.len() as u32);
        for item in tx.iter() {
            push_u32(out, item.id());
        }
    }
}

/// Decodes one unit starting at `*pos`, advancing it past the unit.
pub(crate) fn decode_unit(bytes: &[u8], pos: &mut usize) -> Option<Vec<ItemSet>> {
    let ntx = read_u32(bytes, pos)? as usize;
    // Each transaction needs at least its 4-byte count; reject length
    // prefixes that could not possibly fit in the remaining bytes before
    // allocating. (`>> 2` is `/ 4` without the division lint.)
    let remaining = bytes.len().saturating_sub(*pos);
    if ntx > (remaining >> 2) {
        return None;
    }
    let mut unit = Vec::with_capacity(ntx);
    for _ in 0..ntx {
        let nitems = read_u32(bytes, pos)? as usize;
        let remaining = bytes.len().saturating_sub(*pos);
        if nitems > (remaining >> 2) {
            return None;
        }
        let mut ids = Vec::with_capacity(nitems);
        for _ in 0..nitems {
            ids.push(read_u32(bytes, pos)?);
        }
        unit.push(ItemSet::from_ids(ids));
    }
    Some(unit)
}

/// The bytes [`encode_unit_into`] writes for `unit`: every field is a
/// `u32`, so the size is known before encoding.
pub(crate) fn encoded_unit_len(unit: &[ItemSet]) -> usize {
    4 + unit.iter().map(|t| 4 + 4 * t.len()).sum::<usize>()
}

/// Encodes the record payload for `(seq, unit)`.
pub fn encode_payload(seq: u64, unit: &[ItemSet]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + encoded_unit_len(unit));
    push_u64(&mut out, seq);
    encode_unit_into(unit, &mut out);
    out
}

/// Decodes a record payload back into `(seq, unit)`.
///
/// Returns `None` when the payload is malformed or has trailing bytes.
pub fn decode_payload(payload: &[u8]) -> Option<(u64, Vec<ItemSet>)> {
    let mut pos = 0;
    let seq = read_u64(payload, &mut pos)?;
    let unit = decode_unit(payload, &mut pos)?;
    if pos != payload.len() {
        return None;
    }
    Some((seq, unit))
}

/// Appends the full framed record (header + payload) for `(seq, unit)`.
pub fn encode_record_into(seq: u64, unit: &[ItemSet], out: &mut Vec<u8>) {
    let payload = encode_payload(seq, unit);
    push_u32(out, payload.len() as u32);
    push_u32(out, crc32(&payload));
    out.extend_from_slice(&payload);
}

/// The result of scanning a segment's bytes.
#[derive(Debug)]
pub struct ParsedSegment {
    /// Records decoded from the valid prefix, in file order.
    pub records: Vec<(u64, Vec<ItemSet>)>,
    /// Length in bytes of the valid prefix.
    pub valid_len: u64,
    /// Why scanning stopped before the end of the buffer, if it did.
    pub corruption: Option<String>,
}

/// Scans `bytes` as a sequence of framed records, stopping at the first
/// short, torn, or checksum-failing record. Everything before the stop
/// point is returned; the caller decides whether to truncate the file.
pub fn parse_records(bytes: &[u8]) -> ParsedSegment {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut corruption = None;
    while pos < bytes.len() {
        let record_start = pos;
        let header = (read_u32(bytes, &mut pos), read_u32(bytes, &mut pos));
        let (Some(len), Some(crc)) = header else {
            corruption = Some("torn record header at end of segment".to_string());
            pos = record_start;
            break;
        };
        if len == 0 || len > MAX_PAYLOAD_BYTES {
            corruption = Some(format!("implausible record length {len}"));
            pos = record_start;
            break;
        }
        let end = pos.saturating_add(len as usize);
        let Some(payload) = bytes.get(pos..end) else {
            corruption = Some(format!(
                "torn record: header promises {len} payload bytes, {} remain",
                bytes.len().saturating_sub(pos)
            ));
            pos = record_start;
            break;
        };
        if crc32(payload) != crc {
            corruption = Some("record checksum mismatch".to_string());
            pos = record_start;
            break;
        }
        let Some((seq, unit)) = decode_payload(payload) else {
            corruption = Some("record payload failed to decode".to_string());
            pos = record_start;
            break;
        };
        if let Some(&(last_seq, _)) = records.last().map(|r: &(u64, Vec<ItemSet>)| r) {
            if seq <= last_seq {
                corruption =
                    Some(format!("sequence went backwards ({last_seq} then {seq})"));
                pos = record_start;
                break;
            }
        }
        records.push((seq, unit));
        pos = end;
    }
    ParsedSegment { records, valid_len: pos as u64, corruption }
}

// ---------------------------------------------------------------------
// Segment files
// ---------------------------------------------------------------------

/// One WAL segment file on disk.
#[derive(Clone, Debug)]
pub struct Segment {
    /// The sequence number of the first record this segment may hold.
    pub first_seq: u64,
    /// Absolute path of the segment file.
    pub path: PathBuf,
}

const SEGMENT_PREFIX: &str = "wal-";
const SEGMENT_SUFFIX: &str = ".log";

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("{SEGMENT_PREFIX}{first_seq:020}{SEGMENT_SUFFIX}"))
}

/// Lists the WAL segments in `dir`, sorted by first sequence number.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_segments(dir: &Path) -> io::Result<Vec<Segment>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(stem) = name.strip_prefix(SEGMENT_PREFIX) else { continue };
        let Some(digits) = stem.strip_suffix(SEGMENT_SUFFIX) else { continue };
        let Ok(first_seq) = digits.parse::<u64>() else { continue };
        segments.push(Segment { first_seq, path: entry.path() });
    }
    segments.sort_by_key(|s| s.first_seq);
    Ok(segments)
}

/// Best-effort directory fsync so created/renamed/removed entries
/// survive a crash. Returns whether it succeeded (non-Unix platforms
/// may not support opening a directory).
fn sync_dir(dir: &Path) -> bool {
    match File::open(dir) {
        Ok(handle) => handle.sync_all().is_ok(),
        Err(_) => false,
    }
}

fn create_segment(dir: &Path, first_seq: u64) -> io::Result<(PathBuf, File)> {
    let path = segment_path(dir, first_seq);
    let file = OpenOptions::new().append(true).create(true).open(&path)?;
    if !sync_dir(dir) {
        log_warn("could not fsync the data directory after creating a WAL segment");
    }
    Ok((path, file))
}

// ---------------------------------------------------------------------
// The writer
// ---------------------------------------------------------------------

/// Records that [`Wal::append_write`] wrote and [`Wal::append_sync`] has
/// yet to sync.
#[must_use = "written records are acknowledged only by `Wal::append_sync`"]
#[derive(Debug)]
pub struct WrittenAppend {
    first: u64,
    units: u64,
    bytes: u64,
    /// The live segment's length before the write, for rollback.
    good_len: u64,
}

impl WrittenAppend {
    /// The sequence number of the first written record.
    pub fn first_seq(&self) -> u64 {
        self.first
    }
}

/// The append side of the log. One instance exists per daemon, behind a
/// mutex that also serialises ingest ordering (WAL order == queue order).
pub struct Wal {
    dir: PathBuf,
    policy: FsyncPolicy,
    faults: Option<FaultPlan>,
    file: File,
    live_path: PathBuf,
    live_first_seq: u64,
    live_len: u64,
    /// Older, no-longer-written segments (ascending `first_seq`).
    sealed: Vec<Segment>,
    /// The sequence number the next appended unit will receive.
    next_seq: u64,
    units_since_sync: u64,
    failed: bool,
}

impl Wal {
    /// Opens the log for appending: continues the newest segment if one
    /// exists (recovery has already truncated it to its valid prefix),
    /// otherwise creates the first segment.
    ///
    /// `next_seq` is the sequence number recovery assigned to the next
    /// unit — one past the last valid record anywhere in the log.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn open(
        dir: &Path,
        policy: FsyncPolicy,
        faults: Option<FaultPlan>,
        next_seq: u64,
    ) -> io::Result<Wal> {
        let mut sealed = list_segments(dir)?;
        let (live_path, live_first_seq, live_len, file) = match sealed.pop() {
            Some(newest) => {
                let file = OpenOptions::new().append(true).open(&newest.path)?;
                let len = file.metadata()?.len();
                (newest.path, newest.first_seq, len, file)
            }
            None => {
                let (path, file) = create_segment(dir, next_seq)?;
                (path, next_seq, 0, file)
            }
        };
        Ok(Wal {
            dir: dir.to_path_buf(),
            policy,
            faults,
            file,
            live_path,
            live_first_seq,
            live_len,
            sealed,
            next_seq,
            units_since_sync: 0,
            failed: false,
        })
    }

    /// The sequence number the next appended unit will receive.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the log has entered the failed state (fsync failure or
    /// an un-rollbackable append) and refuses further appends.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Appends `units` as consecutive records in one write, fsyncs per
    /// policy, and returns the sequence number of the first unit:
    /// [`append_write`](Wal::append_write) then
    /// [`append_sync`](Wal::append_sync).
    ///
    /// On error nothing is acknowledged: the write is rolled back by
    /// truncation, or — when even that fails — the log is marked failed.
    ///
    /// # Errors
    ///
    /// Propagates write/fsync failures (including injected ones).
    pub fn append_batch(
        &mut self,
        units: &[Vec<ItemSet>],
        metrics: &Metrics,
    ) -> io::Result<u64> {
        let _span = car_obs::time_span!("wal.append");
        let written = self.append_write(units)?;
        self.append_sync(written, metrics)
    }

    /// The write half of an append: encodes `units` as consecutive
    /// records numbered from [`next_seq`](Wal::next_seq) and writes them
    /// in one write. A failed write is rolled back by truncation; the log
    /// stays open when the rollback succeeds, and the next append reuses
    /// the sequence numbers.
    ///
    /// The records are not acknowledged until the returned
    /// [`WrittenAppend`] is passed to [`append_sync`](Wal::append_sync),
    /// which must come before the next write.
    ///
    /// # Errors
    ///
    /// The log is failed, or the write failed (including injected
    /// faults).
    pub fn append_write(&mut self, units: &[Vec<ItemSet>]) -> io::Result<WrittenAppend> {
        if self.failed {
            return Err(io::Error::other("write-ahead log is in the failed state"));
        }
        let first = self.next_seq;
        let good_len = self.live_len;
        let mut buf = Vec::new();
        for (i, unit) in units.iter().enumerate() {
            encode_record_into(first + i as u64, unit, &mut buf);
        }
        if !buf.is_empty() {
            if let Err(e) = self.write_batch(&buf) {
                self.rollback_to(good_len);
                return Err(e);
            }
        }
        Ok(WrittenAppend {
            first,
            units: units.len() as u64,
            bytes: buf.len() as u64,
            good_len,
        })
    }

    /// The sync half of an append: syncs per policy, then advances
    /// [`next_seq`](Wal::next_seq) past the written records and returns
    /// the first one's sequence number. A failed sync rolls the records
    /// back and fails the log for good, so their sequence numbers are
    /// never handed out again.
    ///
    /// # Errors
    ///
    /// Propagates fsync failures (including injected ones).
    pub fn append_sync(
        &mut self,
        written: WrittenAppend,
        metrics: &Metrics,
    ) -> io::Result<u64> {
        let WrittenAppend { first, units, bytes, good_len } = written;
        if units == 0 {
            return Ok(first);
        }
        if let Err(e) = self.sync_per_policy(units, metrics) {
            // Durability per policy could not be promised; un-acknowledge
            // the bytes and stop accepting (fsync failures rarely heal).
            self.rollback_to(good_len);
            self.failed = true;
            return Err(e);
        }
        metrics.record_wal_append(bytes);
        self.next_seq = first.saturating_add(units);
        Ok(first)
    }

    /// Writes `buf`, honouring any armed write faults; tracks how many
    /// bytes actually landed in the file so rollback knows what to undo.
    fn write_batch(&mut self, buf: &[u8]) -> io::Result<()> {
        let verdict = match &self.faults {
            Some(plan) => plan.on_write(buf.len())?,
            None => WriteVerdict::Pass,
        };
        match verdict {
            WriteVerdict::Pass => {
                self.file.write_all(buf)?;
                self.live_len = self.live_len.saturating_add(buf.len() as u64);
                Ok(())
            }
            WriteVerdict::Torn(keep) => {
                let kept = buf.get(..keep).unwrap_or(buf);
                if self.file.write_all(kept).is_ok() {
                    self.live_len = self.live_len.saturating_add(kept.len() as u64);
                }
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected fault: torn write",
                ))
            }
        }
    }

    fn sync_per_policy(&mut self, appended: u64, metrics: &Metrics) -> io::Result<()> {
        self.units_since_sync = self.units_since_sync.saturating_add(appended);
        let due = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.units_since_sync >= n,
            FsyncPolicy::Never => false,
        };
        if due {
            self.sync(metrics)?;
        }
        Ok(())
    }

    fn sync(&mut self, metrics: &Metrics) -> io::Result<()> {
        let _span = car_obs::time_span!("wal.fsync");
        if let Some(plan) = &self.faults {
            plan.on_fsync()?;
        }
        self.file.sync_data()?;
        self.units_since_sync = 0;
        metrics.record_wal_fsync();
        Ok(())
    }

    /// Truncates the live segment back to `len` after a failed append.
    /// The file handle is in append mode, so the next write lands at the
    /// new end — no repositioning needed.
    fn rollback_to(&mut self, len: u64) {
        let truncate = match &self.faults {
            Some(plan) => plan.on_truncate().and_then(|()| self.file.set_len(len)),
            None => self.file.set_len(len),
        };
        match truncate {
            Ok(()) => self.live_len = len,
            Err(_) => {
                log_warn(
                    "failed to roll back a torn WAL append; \
                     log marked failed (recovery will truncate on next boot)",
                );
                self.failed = true;
            }
        }
    }

    /// Flushes pending appends to disk regardless of policy (shutdown
    /// drain, pre-rotation seal).
    ///
    /// # Errors
    ///
    /// Propagates fsync failures.
    pub fn flush(&mut self, metrics: &Metrics) -> io::Result<()> {
        if self.failed {
            return Ok(());
        }
        if self.units_since_sync > 0 || matches!(self.policy, FsyncPolicy::Never) {
            self.sync(metrics)?;
        }
        Ok(())
    }

    /// Rotates to a fresh segment and deletes sealed segments fully
    /// covered by a snapshot at `snapshot_seq` (every record they hold
    /// has `seq <= snapshot_seq`). Called after a snapshot has been
    /// durably renamed into place.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the log stays usable (the old
    /// segment simply keeps growing) unless the seal fsync failed.
    pub fn rotate_and_prune(
        &mut self,
        snapshot_seq: u64,
        metrics: &Metrics,
    ) -> io::Result<()> {
        if self.failed {
            return Err(io::Error::other("write-ahead log is in the failed state"));
        }
        // Seal the live segment: its bytes must be durable before the
        // snapshot is allowed to supersede any of them.
        self.flush(metrics)?;
        if self.live_len > 0 {
            let (path, file) = create_segment(&self.dir, self.next_seq)?;
            let old = Segment {
                first_seq: self.live_first_seq,
                path: std::mem::replace(&mut self.live_path, path),
            };
            self.file = file;
            self.live_first_seq = self.next_seq;
            self.live_len = 0;
            self.sealed.push(old);
        }
        // A sealed segment's records all precede the next segment's
        // first sequence number; it is covered once that bound is at or
        // below the snapshot.
        let live_first = self.live_first_seq;
        let mut kept = Vec::with_capacity(self.sealed.len());
        let sealed = std::mem::take(&mut self.sealed);
        let count = sealed.len();
        let mut upper_bounds =
            sealed.iter().skip(1).map(|s| s.first_seq).collect::<Vec<u64>>();
        upper_bounds.push(live_first);
        for (seg, next_first) in sealed.into_iter().zip(upper_bounds) {
            let covered = next_first.saturating_sub(1) <= snapshot_seq;
            if covered {
                if let Err(e) = std::fs::remove_file(&seg.path) {
                    log_warn(&format!(
                        "could not delete covered WAL segment {}: {e}",
                        seg.path.display()
                    ));
                    kept.push(seg);
                }
            } else {
                kept.push(seg);
            }
        }
        if kept.len() < count && !sync_dir(&self.dir) {
            log_warn("could not fsync the data directory after pruning WAL segments");
        }
        self.sealed = kept;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn unit(ids: &[u32]) -> Vec<ItemSet> {
        vec![ItemSet::from_ids(ids.iter().copied()); 2]
    }

    fn temp_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "car-wal-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn fsync_policy_parses() {
        assert_eq!("always".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Always);
        assert_eq!("never".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::Never);
        assert_eq!("every=8".parse::<FsyncPolicy>().unwrap(), FsyncPolicy::EveryN(8));
        assert!("every=0".parse::<FsyncPolicy>().is_err());
        assert!("sometimes".parse::<FsyncPolicy>().is_err());
        assert_eq!(FsyncPolicy::EveryN(8).to_string(), "every=8");
    }

    #[test]
    fn payload_round_trips() {
        let u = unit(&[1, 2, 3]);
        let payload = encode_payload(42, &u);
        let (seq, decoded) = decode_payload(&payload).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded, u);
        // Trailing garbage is rejected.
        let mut long = payload.clone();
        long.push(0);
        assert!(decode_payload(&long).is_none());
        // Truncation is rejected.
        assert!(decode_payload(&payload[..payload.len() - 1]).is_none());
    }

    #[test]
    fn parse_records_stops_at_corruption() {
        let mut buf = Vec::new();
        encode_record_into(1, &unit(&[1, 2]), &mut buf);
        encode_record_into(2, &unit(&[3]), &mut buf);
        let good_len = buf.len() as u64;
        // A torn third record: header + half the payload.
        let mut torn = Vec::new();
        encode_record_into(3, &unit(&[4, 5, 6]), &mut torn);
        buf.extend_from_slice(&torn[..torn.len() / 2]);

        let parsed = parse_records(&buf);
        assert_eq!(parsed.records.len(), 2);
        assert_eq!(parsed.valid_len, good_len);
        assert!(parsed.corruption.is_some());
    }

    #[test]
    fn parse_records_rejects_bit_flips_and_bad_seq() {
        let mut buf = Vec::new();
        encode_record_into(5, &unit(&[1]), &mut buf);
        let mut flipped = buf.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x10;
        let parsed = parse_records(&flipped);
        assert!(parsed.records.is_empty());
        assert_eq!(parsed.valid_len, 0);

        // Non-increasing sequence numbers end the log.
        encode_record_into(5, &unit(&[2]), &mut buf);
        let parsed = parse_records(&buf);
        assert_eq!(parsed.records.len(), 1);
        assert!(parsed.corruption.is_some());
    }

    #[test]
    fn append_write_reopen_round_trip() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, None, 1).unwrap();
        let first = wal.append_batch(&[unit(&[1, 2]), unit(&[3])], &metrics).unwrap();
        assert_eq!(first, 1);
        let first = wal.append_batch(&[unit(&[9])], &metrics).unwrap();
        assert_eq!(first, 3);
        drop(wal);

        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        let parsed = parse_records(&std::fs::read(&segments[0].path).unwrap());
        assert!(parsed.corruption.is_none());
        let seqs: Vec<u64> = parsed.records.iter().map(|(s, _)| *s).collect();
        assert_eq!(seqs, [1, 2, 3]);

        // Reopening continues the same segment and sequence space.
        let wal = Wal::open(&dir, FsyncPolicy::Always, None, 4).unwrap();
        assert_eq!(wal.next_seq(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn every_n_policy_batches_fsyncs() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let mut wal = Wal::open(&dir, FsyncPolicy::EveryN(3), None, 1).unwrap();
        wal.append_batch(&[unit(&[1])], &metrics).unwrap();
        wal.append_batch(&[unit(&[2])], &metrics).unwrap();
        assert_eq!(metrics.wal_fsyncs(), 0);
        wal.append_batch(&[unit(&[3])], &metrics).unwrap();
        assert_eq!(metrics.wal_fsyncs(), 1);
        wal.flush(&metrics).unwrap();
        assert_eq!(metrics.wal_fsyncs(), 1, "flush with nothing pending is free");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_marks_log_failed_and_rejects() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let plan = FaultPlan::new();
        plan.fail_fsync_from(1);
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, Some(plan), 1).unwrap();
        assert!(wal.append_batch(&[unit(&[1])], &metrics).is_err());
        assert!(wal.is_failed());
        assert!(wal.append_batch(&[unit(&[2])], &metrics).is_err());
        // The rolled-back bytes are gone: a fresh scan sees an empty log.
        let segments = list_segments(&dir).unwrap();
        let parsed = parse_records(&std::fs::read(&segments[0].path).unwrap());
        assert!(parsed.records.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clean_write_failure_keeps_the_log_open_and_reuses_the_seq() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let plan = FaultPlan::new();
        let mut wal =
            Wal::open(&dir, FsyncPolicy::Always, Some(plan.clone()), 1).unwrap();
        assert_eq!(wal.append_batch(&[unit(&[1])], &metrics).unwrap(), 1);
        plan.fail_write_at(2);
        assert!(wal.append_write(&[unit(&[2])]).is_err());
        assert!(!wal.is_failed());
        assert_eq!(wal.next_seq(), 2);
        let written = wal.append_write(&[unit(&[3])]).unwrap();
        assert_eq!(written.first_seq(), 2);
        assert_eq!(wal.append_sync(written, &metrics).unwrap(), 2);
        assert_eq!(wal.next_seq(), 3);
        drop(wal);

        let segments = list_segments(&dir).unwrap();
        let parsed = parse_records(&std::fs::read(&segments[0].path).unwrap());
        assert!(parsed.corruption.is_none());
        let records: Vec<(u64, Vec<ItemSet>)> = parsed.records;
        assert_eq!(records, vec![(1, unit(&[1])), (2, unit(&[3]))]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_write_leaves_tail_for_recovery() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let plan = FaultPlan::new();
        let mut wal =
            Wal::open(&dir, FsyncPolicy::Always, Some(plan.clone()), 1).unwrap();
        wal.append_batch(&[unit(&[1, 2])], &metrics).unwrap();
        // Second append tears after 5 bytes; the dead storage also
        // blocks the rollback truncation, as a real crash would.
        plan.torn_write_at(2, 5);
        assert!(wal.append_batch(&[unit(&[3, 4])], &metrics).is_err());
        assert!(wal.is_failed());
        drop(wal);

        let segments = list_segments(&dir).unwrap();
        let bytes = std::fs::read(&segments[0].path).unwrap();
        let parsed = parse_records(&bytes);
        assert_eq!(parsed.records.len(), 1, "only the first record survives");
        assert!(parsed.corruption.is_some(), "the torn tail is detected");
        assert!(parsed.valid_len < bytes.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_prunes_covered_segments() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let mut wal = Wal::open(&dir, FsyncPolicy::Always, None, 1).unwrap();
        wal.append_batch(&[unit(&[1]), unit(&[2])], &metrics).unwrap();
        // Snapshot covers both records: rotate prunes the old segment.
        wal.rotate_and_prune(2, &metrics).unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 1);
        assert_eq!(segments[0].first_seq, 3);

        // Records beyond the snapshot keep their segment alive.
        wal.append_batch(&[unit(&[3]), unit(&[4])], &metrics).unwrap();
        wal.rotate_and_prune(3, &metrics).unwrap();
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len(), 2, "segment with seq 4 must survive: {segments:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
