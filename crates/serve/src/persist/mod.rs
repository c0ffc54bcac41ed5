//! Durability for the car-serve daemon: WAL + snapshots + recovery.
//!
//! The contract, end to end: a unit is acknowledged (`202`) only after
//! it is in the write-ahead log ([`wal`]) under the configured
//! [`FsyncPolicy`]; the ingest worker applies acknowledged units to the
//! miner and mirrors them into a retained ring; every `snapshot_every`
//! applied units the ring is serialized to an atomically-renamed
//! snapshot ([`snapshot`]) and fully-covered WAL segments are pruned; on
//! boot, [`replay`] rebuilds the window from snapshot + WAL tail,
//! truncating at the first sign of damage instead of panicking. The
//! [`fault`] module exists to attack all of the above in tests.
//!
//! [`Persistence`] is the handle the daemon state holds: it owns the WAL
//! writer (behind a mutex that the ingest path also uses to keep WAL
//! order identical to apply order), the durable-through watermark that
//! tells the ingest worker which queued units it may fold, and the
//! retained ring.

pub mod crc;
pub mod fault;
pub mod replay;
pub mod snapshot;
pub mod wal;

use std::collections::VecDeque;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use car_itemset::ItemSet;

use crate::metrics::Metrics;
use crate::sync::{log_warn, LockExt};
use fault::FaultPlan;
use replay::Recovery;
use wal::{FsyncPolicy, Wal};

/// Configuration for the durability layer.
#[derive(Clone, Debug)]
pub struct PersistConfig {
    /// Directory holding WAL segments and the snapshot.
    pub data_dir: PathBuf,
    /// When the WAL fsyncs.
    pub fsync: FsyncPolicy,
    /// Snapshot after this many applied units (0 disables periodic
    /// snapshots; one is still written at graceful shutdown).
    pub snapshot_every: u64,
    /// Test-only scripted storage faults.
    pub faults: Option<FaultPlan>,
}

impl PersistConfig {
    /// A config with the given data directory and default policies
    /// (fsync always, snapshot every 64 units, no faults).
    pub fn new(data_dir: impl Into<PathBuf>) -> PersistConfig {
        PersistConfig {
            data_dir: data_dir.into(),
            fsync: FsyncPolicy::Always,
            snapshot_every: 64,
            faults: None,
        }
    }
}

/// The WAL writer's lifecycle, guarded by one mutex.
///
/// `Pending` until boot recovery finishes (ingest gets `503
/// recovering`), `Open` while accepting, `Failed` after an fsync/rollback
/// failure (ingest gets `503` — the daemon will not acknowledge what it
/// cannot make durable).
pub(crate) enum WalSlot {
    /// Recovery has not finished; no appends yet.
    Pending,
    /// The log is accepting appends.
    Open(Wal),
    /// The log refused service permanently (storage fault).
    Failed,
}

/// The retained window mirror: raw units for snapshotting, since the
/// miner itself only caches per-unit rule state.
struct Retained {
    units: VecDeque<Vec<ItemSet>>,
    last_seq: u64,
    since_snapshot: u64,
}

/// The durability handle held by the daemon state.
pub struct Persistence {
    config: PersistConfig,
    window: usize,
    /// The WAL writer. The ingest path holds this lock across sequence
    /// assignment, WAL write, queue push, and sync, so WAL order,
    /// sequence order, and apply order are one and the same.
    pub(crate) wal: Mutex<WalSlot>,
    /// The highest sequence number whose append synced (per policy):
    /// set at recovery and stored after each successful sync, both under
    /// `wal`, with `Release`; [`await_durable`](Persistence::await_durable)
    /// loads it with `Acquire`. The ingest worker folds a queued unit only
    /// once this covers it.
    pub(crate) durable_through: AtomicU64,
    retained: Mutex<Retained>,
}

impl Persistence {
    /// Prepares the durability layer: creates the data directory if
    /// missing. The WAL stays `WalSlot::Pending` until [`recover`]
    /// (called by the ingest worker) completes.
    ///
    /// [`recover`]: Persistence::recover
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn new(config: PersistConfig, window: usize) -> io::Result<Persistence> {
        std::fs::create_dir_all(&config.data_dir)?;
        Ok(Persistence {
            config,
            window: window.max(1),
            wal: Mutex::new(WalSlot::Pending),
            durable_through: AtomicU64::new(0),
            retained: Mutex::new(Retained {
                units: VecDeque::new(),
                last_seq: 0,
                since_snapshot: 0,
            }),
        })
    }

    /// The data directory in use.
    pub fn data_dir(&self) -> &std::path::Path {
        &self.config.data_dir
    }

    /// Runs boot recovery: loads the snapshot, replays the WAL tail,
    /// seeds the retained ring, and opens the WAL for appends. Returns
    /// the recovered units for the caller to apply to the miner.
    ///
    /// # Errors
    ///
    /// Environmental failures only (unreadable directory/segments);
    /// corrupt contents are truncated and tallied, not errors.
    pub fn recover(&self, metrics: &Metrics) -> io::Result<Recovery> {
        let recovery = replay::recover(&self.config.data_dir)?;
        if recovery.truncated_records > 0 {
            metrics.record_recovery_truncated(recovery.truncated_records);
        }
        {
            let mut retained = self.retained.lock_or_recover();
            retained.last_seq = recovery.last_seq;
            retained.units.clear();
            let skip = recovery.units.len().saturating_sub(self.window);
            retained.units.extend(recovery.units.iter().skip(skip).cloned());
            retained.since_snapshot = 0;
        }
        let next_seq = recovery.last_seq.saturating_add(1);
        let wal = Wal::open(
            &self.config.data_dir,
            self.config.fsync,
            self.config.faults.clone(),
            next_seq,
        )?;
        let mut slot = self.wal.lock_or_recover();
        self.durable_through.store(recovery.last_seq, Ordering::Release);
        *slot = WalSlot::Open(wal);
        drop(slot);
        Ok(recovery)
    }

    /// Whether the append that wrote unit `seq` became durable, waiting
    /// for it when its sync may still be running. The ingest worker asks
    /// this of every queued unit before it folds it, and drops the unit
    /// on `false`: its sync failed, the log is failed, and the unit was
    /// never acknowledged.
    ///
    /// The appending thread holds the WAL mutex from the write through
    /// the sync, so once the mutex is free the verdict on `seq` is in.
    /// The watermark is read before locking, so a unit whose sync is done
    /// never waits on a later append's.
    pub(crate) fn await_durable(&self, seq: u64) -> bool {
        let _span = car_obs::time_span!("ingest.await_durable");
        if self.durable_through.load(Ordering::Acquire) >= seq {
            return true;
        }
        let _slot = self.wal.lock_or_recover();
        self.durable_through.load(Ordering::Acquire) >= seq
    }

    /// Called by the ingest worker after a unit is applied to the miner:
    /// mirrors it into the retained ring and snapshots when due.
    ///
    /// The ring keeps a copy made here, on the worker thread, rather than
    /// the unit itself, which the request thread that parsed it
    /// allocated. Each thread allocates from its own malloc arena, so a
    /// ring of parsed units pins memory in the arena of every thread that
    /// parsed one: in the `ingest` benchmark on a 2-vCPU host, taking the
    /// unit by value raised the daemon's peak RSS from 38.7 to 46.8 MB.
    /// The evicted unit is freed before the copy is made, so the copy can
    /// reuse its memory: copying first left the daemon's peak RSS in that
    /// benchmark 2–4 MB higher once a push stopped allocating an itemset
    /// per mined itemset.
    pub fn record_applied(&self, seq: u64, unit: &[ItemSet], metrics: &Metrics) {
        let due = {
            let mut retained = self.retained.lock_or_recover();
            while retained.units.len() >= self.window {
                retained.units.pop_front();
            }
            retained.units.push_back(unit.to_vec());
            retained.last_seq = seq;
            retained.since_snapshot = retained.since_snapshot.saturating_add(1);
            let every = self.config.snapshot_every;
            if every > 0 && retained.since_snapshot >= every {
                retained.since_snapshot = 0;
                true
            } else {
                false
            }
        };
        if due {
            self.snapshot_now(metrics);
        }
    }

    /// Writes a snapshot of the current retained ring and prunes covered
    /// WAL segments. Failures are logged, never fatal: the WAL is still
    /// the source of truth and the old snapshot remains valid.
    pub fn snapshot_now(&self, metrics: &Metrics) {
        let _span = car_obs::time_span!("wal.snapshot");
        // Written straight from the ring, under its lock, instead of from
        // a copy of the whole window: only the ingest worker takes this
        // lock once boot recovery is done, so holding it costs no one.
        let (last_seq, units, written) = {
            let mut retained = self.retained.lock_or_recover();
            let last_seq = retained.last_seq;
            let units = retained.units.make_contiguous();
            let written =
                snapshot::write_snapshot(&self.config.data_dir, last_seq, units);
            (last_seq, units.len(), written)
        };
        if let Err(e) = written {
            log_warn(&format!("snapshot write failed (WAL remains authoritative): {e}"));
            metrics.record_wal_error();
            return;
        }
        metrics.record_snapshot();
        car_obs::debug!("wal", [last_seq = last_seq, units = units], "snapshot written");
        let mut slot = self.wal.lock_or_recover();
        if let WalSlot::Open(wal) = &mut *slot {
            match wal.rotate_and_prune(last_seq, metrics) {
                Ok(()) => {}
                Err(e) => {
                    log_warn(&format!("WAL rotation after snapshot failed: {e}"));
                    metrics.record_wal_error();
                    if wal.is_failed() {
                        *slot = WalSlot::Failed;
                    }
                }
            }
        }
    }

    /// Shutdown-drain flush: force the WAL to disk regardless of policy
    /// and leave a fresh snapshot so the next boot replays nothing.
    pub fn flush_on_shutdown(&self, metrics: &Metrics) {
        {
            let mut slot = self.wal.lock_or_recover();
            if let WalSlot::Open(wal) = &mut *slot {
                match wal.flush(metrics) {
                    Ok(()) => {}
                    Err(e) => {
                        log_warn(&format!("final WAL flush failed: {e}"));
                        metrics.record_wal_error();
                        *slot = WalSlot::Failed;
                        return;
                    }
                }
            } else {
                return;
            }
        }
        self.snapshot_now(metrics);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir() -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "car-persist-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn unit(id: u32) -> Vec<ItemSet> {
        vec![ItemSet::from_ids([id]), ItemSet::from_ids([id, id + 7])]
    }

    fn append(p: &Persistence, metrics: &Metrics, units: &[Vec<ItemSet>]) -> u64 {
        let mut slot = p.wal.lock_or_recover();
        match &mut *slot {
            WalSlot::Open(wal) => wal.append_batch(units, metrics).unwrap(),
            _ => panic!("wal not open"),
        }
    }

    #[test]
    fn fresh_boot_then_restart_recovers_everything() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let p = Persistence::new(PersistConfig::new(&dir), 8).unwrap();
        let r = p.recover(&metrics).unwrap();
        assert_eq!((r.last_seq, r.units.len()), (0, 0));

        let first = append(&p, &metrics, &[unit(1), unit(2), unit(3)]);
        assert_eq!(first, 1);
        for (i, u) in [unit(1), unit(2), unit(3)].iter().enumerate() {
            p.record_applied(first + i as u64, u, &metrics);
        }
        p.flush_on_shutdown(&metrics);
        assert_eq!(metrics.snapshots(), 1);
        drop(p);

        let p = Persistence::new(PersistConfig::new(&dir), 8).unwrap();
        let metrics2 = Metrics::new();
        let r = p.recover(&metrics2).unwrap();
        assert_eq!(r.last_seq, 3);
        assert_eq!(r.units, vec![unit(1), unit(2), unit(3)]);
        assert_eq!(metrics2.recovery_truncated(), 0);
        // Sequence numbers continue where they left off.
        assert_eq!(append(&p, &metrics2, &[unit(9)]), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn periodic_snapshot_bounds_replay_and_ring_respects_window() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let mut config = PersistConfig::new(&dir);
        config.snapshot_every = 2;
        let p = Persistence::new(config, 3).unwrap();
        p.recover(&metrics).unwrap();
        for i in 1..=7u64 {
            let u = unit(i as u32);
            assert_eq!(append(&p, &metrics, std::slice::from_ref(&u)), i);
            p.record_applied(i, &u, &metrics);
        }
        assert_eq!(metrics.snapshots(), 3, "snapshots at 2, 4, 6");
        drop(p);

        // Restart without a graceful flush: window = last 3 units only.
        let p = Persistence::new(PersistConfig::new(&dir), 3).unwrap();
        let r = p.recover(&Metrics::new()).unwrap();
        assert_eq!(r.last_seq, 7);
        assert_eq!(
            r.units.last(),
            Some(&unit(7)),
            "replayed tail ends at the newest unit"
        );
        // Snapshot at seq 6 held units 4..=6 (window 3); replay adds 7.
        assert_eq!(r.units, vec![unit(4), unit(5), unit(6), unit(7)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_closes_the_wal_slot() {
        let dir = temp_dir();
        let metrics = Metrics::new();
        let plan = FaultPlan::new();
        let mut config = PersistConfig::new(&dir);
        config.faults = Some(plan.clone());
        let p = Persistence::new(config, 4).unwrap();
        p.recover(&metrics).unwrap();
        append(&p, &metrics, &[unit(1)]);
        plan.fail_fsync_from(2);
        {
            let mut slot = p.wal.lock_or_recover();
            let WalSlot::Open(wal) = &mut *slot else { panic!("not open") };
            assert!(wal.append_batch(&[unit(2)], &metrics).is_err());
            assert!(wal.is_failed());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
