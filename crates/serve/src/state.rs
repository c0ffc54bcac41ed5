//! Shared daemon state: the sliding-window miner, the bounded ingest
//! queue, the optional durability layer, and the ingest worker that
//! connects them.
//!
//! Ingestion is asynchronous: `POST /v1/units` enqueues the unit and
//! returns `202 Accepted` (or `503` when the queue is full — explicit
//! backpressure instead of unbounded buffering), and a single dedicated
//! ingest thread applies queued units to the miner in arrival order.
//! Applying a unit is the expensive step (a depth-first bitmap Eclat
//! over the unit, then the fold of its large itemsets into the window's
//! online cycle state; no rules are generated at push), so keeping it
//! off the request path keeps ingest latency flat; a single applier
//! also means units are numbered and applied in exactly the order they
//! were accepted.
//!
//! With persistence enabled ([`PersistConfig`]), the accept path runs
//! under the WAL mutex: sequence assignment, the WAL append, and the
//! queue push happen atomically, so WAL order, sequence order, and apply
//! order are a single total order — a unit is never acknowledged before
//! it is in the log. The ingest worker performs boot recovery (snapshot
//! plus WAL replay) before draining the queue; until it finishes, ingest
//! and rule queries answer `503` and `/v1/health` reports `recovering`.
//! Recovery pushes the recovered units as one batch into a private
//! miner and swaps it in under one short write lock, so health and
//! metrics keep answering while it runs.
//!
//! Queries take the miner read lock; the applier takes the write lock
//! per unit. Clients that need read-your-writes (tests, benchmarks) pass
//! `?wait=true` and block until their unit's sequence number is applied.
//!
//! Lock order (outermost first): `persist.wal` → `queue.inner`;
//! `persist.retained` and `miner` are never held together with `wal`
//! by the same acquisition chain.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Duration;

use car_core::window::SlidingWindowMiner;
use car_core::MiningConfig;
use car_itemset::ItemSet;

use crate::cache::QueryCache;
use crate::metrics::Metrics;
use crate::persist::{PersistConfig, Persistence, WalSlot};
use crate::sync::{log_warn, LockExt, RwLockExt};
use crate::ServeError;

/// The daemon's place in a sharded cluster, when launched by (or for)
/// the `car shard` router. Surfaces in `/v1/health` and as
/// `X-Car-Shard-Id` on rule responses so operators and the router can
/// tell shard workers apart; standalone daemons carry `None` and report
/// `"shard_id": null` / `"shard_count": null`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardIdentity {
    /// Zero-based index of this worker in the cluster.
    pub shard_id: u32,
    /// Total workers in the cluster.
    pub shard_count: u32,
}

/// Why a unit could not be enqueued.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EnqueueError {
    /// The bounded queue is at capacity — retry later.
    Full,
    /// The daemon is shutting down and no longer accepts units.
    ShuttingDown,
    /// Boot recovery (snapshot load + WAL replay) is still running.
    Recovering,
    /// The durability layer failed (WAL append/fsync); the daemon will
    /// not acknowledge units it cannot make durable.
    Persistence,
}

struct QueueInner {
    units: VecDeque<(u64, Vec<ItemSet>)>,
    closed: bool,
}

/// A bounded MPSC queue of pending, sequence-numbered time units.
pub struct IngestQueue {
    inner: Mutex<QueueInner>,
    not_empty: Condvar,
    capacity: usize,
    /// Units ever accepted (the enqueue ticket counter, used when no
    /// WAL is assigning sequence numbers).
    enqueued: AtomicU64,
}

impl IngestQueue {
    fn new(capacity: usize) -> IngestQueue {
        IngestQueue {
            inner: Mutex::new(QueueInner { units: VecDeque::new(), closed: false }),
            not_empty: Condvar::new(),
            capacity: capacity.max(1),
            enqueued: AtomicU64::new(0),
        }
    }

    /// Enqueues a batch under one lock acquisition, reporting a result
    /// per unit (later units see [`EnqueueError::Full`] once capacity is
    /// reached; earlier acceptances stand).
    pub fn enqueue_batch(
        &self,
        units: Vec<Vec<ItemSet>>,
    ) -> Vec<Result<u64, EnqueueError>> {
        let mut inner = self.inner.lock_or_recover();
        let mut results = Vec::with_capacity(units.len());
        for unit in units {
            if inner.closed {
                results.push(Err(EnqueueError::ShuttingDown));
            } else if inner.units.len() >= self.capacity {
                results.push(Err(EnqueueError::Full));
            } else {
                let seq = self.enqueued.fetch_add(1, Ordering::Relaxed) + 1;
                inner.units.push_back((seq, unit));
                self.not_empty.notify_one();
                results.push(Ok(seq));
            }
        }
        results
    }

    /// Free slots, or `None` once the queue is closed. Only meaningful
    /// while the caller holds the WAL mutex (nothing else can push).
    pub(crate) fn room(&self) -> Option<usize> {
        let inner = self.inner.lock_or_recover();
        if inner.closed {
            None
        } else {
            Some(self.capacity.saturating_sub(inner.units.len()))
        }
    }

    /// Pushes WAL-assigned units `first_seq..first_seq+len`. The caller
    /// holds the WAL mutex and has checked [`room`](IngestQueue::room).
    ///
    /// # Errors
    ///
    /// [`EnqueueError::ShuttingDown`] when the queue closed since the
    /// room check; the units are already durable in the WAL and will be
    /// recovered (unacknowledged) on the next boot.
    pub(crate) fn push_with_seqs(
        &self,
        first_seq: u64,
        units: Vec<Vec<ItemSet>>,
    ) -> Result<(), EnqueueError> {
        let mut inner = self.inner.lock_or_recover();
        if inner.closed {
            return Err(EnqueueError::ShuttingDown);
        }
        for (i, unit) in units.into_iter().enumerate() {
            inner.units.push_back((first_seq.saturating_add(i as u64), unit));
        }
        self.not_empty.notify_one();
        Ok(())
    }

    /// Units currently waiting.
    pub fn depth(&self) -> usize {
        self.inner.lock_or_recover().units.len()
    }

    /// Stops accepting new units; the applier drains what remains.
    fn close(&self) {
        let mut inner = self.inner.lock_or_recover();
        inner.closed = true;
        self.not_empty.notify_all();
    }

    /// Blocks until a unit is available or the queue is closed *and*
    /// empty (drain semantics).
    fn dequeue(&self) -> Option<(u64, Vec<ItemSet>)> {
        let mut inner = self.inner.lock_or_recover();
        loop {
            if let Some(entry) = inner.units.pop_front() {
                return Some(entry);
            }
            if inner.closed {
                return None;
            }
            inner = self.not_empty.wait(inner).unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// Where boot recovery stands. `None` means the daemon runs without
/// persistence and never recovers anything.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RecoveryStatus {
    /// No persistence configured.
    None,
    /// Snapshot load + WAL replay in progress; not ready to serve.
    Recovering,
    /// Recovery finished (possibly trivially).
    Complete,
}

/// Lock-free recovery progress, readable by `/v1/health` at any time.
#[derive(Default)]
pub struct RecoveryInfo {
    /// 0 = none, 1 = recovering, 2 = complete.
    status: AtomicU8,
    snapshot_units: AtomicU64,
    replayed_units: AtomicU64,
}

impl RecoveryInfo {
    /// Current status.
    pub fn status(&self) -> RecoveryStatus {
        match self.status.load(Ordering::SeqCst) {
            1 => RecoveryStatus::Recovering,
            2 => RecoveryStatus::Complete,
            _ => RecoveryStatus::None,
        }
    }

    /// Whether recovery is still in progress (serve `503`s meanwhile).
    pub fn is_recovering(&self) -> bool {
        self.status() == RecoveryStatus::Recovering
    }

    /// Units restored from the snapshot.
    pub fn snapshot_units(&self) -> u64 {
        self.snapshot_units.load(Ordering::Relaxed)
    }

    /// Units replayed from the WAL tail.
    pub fn replayed_units(&self) -> u64 {
        self.replayed_units.load(Ordering::Relaxed)
    }

    fn finish(&self, snapshot_units: u64, replayed_units: u64) {
        self.snapshot_units.store(snapshot_units, Ordering::Relaxed);
        self.replayed_units.store(replayed_units, Ordering::Relaxed);
        self.status.store(2, Ordering::SeqCst);
    }
}

/// Everything the request handlers share.
pub struct AppState {
    /// The mining configuration the miner was built with.
    pub config: MiningConfig,
    /// The sliding-window miner; readers query, the applier writes.
    pub miner: RwLock<SlidingWindowMiner>,
    /// Pending units awaiting application.
    pub queue: IngestQueue,
    /// Daemon counters.
    pub metrics: Metrics,
    /// Rendered `GET /v1/rules` bodies for the current window epoch;
    /// advanced (cleared) by the applier after every apply.
    pub query_cache: QueryCache,
    /// The durability layer, when a data directory was configured.
    pub persist: Option<Persistence>,
    /// Cluster identity when running as a shard worker; `None`
    /// standalone.
    pub shard: Option<ShardIdentity>,
    /// Boot-recovery progress.
    pub recovery: RecoveryInfo,
    /// Set once shutdown begins; checked by the accept loop and
    /// keep-alive connections.
    pub shutdown: AtomicBool,
    /// Highest applied unit sequence number, with its condvar for
    /// `?wait=true` ingests.
    applied: Mutex<u64>,
    applied_cv: Condvar,
}

impl AppState {
    /// Builds state for a daemon retaining `window` units, queueing at
    /// most `queue_capacity` pending units, and — when `persist` is
    /// given — journaling every accepted unit to its data directory.
    ///
    /// # Errors
    ///
    /// [`ServeError::Config`] when the window cannot satisfy the
    /// configuration (e.g. shorter than `l_max`); [`ServeError::Io`]
    /// when the data directory cannot be created.
    pub fn new(
        config: MiningConfig,
        window: usize,
        queue_capacity: usize,
        persist: Option<PersistConfig>,
    ) -> Result<Arc<AppState>, ServeError> {
        Self::new_with_shard(config, window, queue_capacity, persist, None)
    }

    /// [`AppState::new`] with a cluster identity attached; used by the
    /// `car serve --shard-id/--shard-count` worker mode.
    ///
    /// # Errors
    ///
    /// Same as [`AppState::new`].
    pub fn new_with_shard(
        config: MiningConfig,
        window: usize,
        queue_capacity: usize,
        persist: Option<PersistConfig>,
        shard: Option<ShardIdentity>,
    ) -> Result<Arc<AppState>, ServeError> {
        let miner = SlidingWindowMiner::new(config, window)?;
        let persist = match persist {
            Some(cfg) => Some(Persistence::new(cfg, window)?),
            None => None,
        };
        let recovery = RecoveryInfo::default();
        if persist.is_some() {
            // Recovering from construction until the worker finishes, so
            // health never reports ready with a half-replayed window.
            recovery.status.store(1, Ordering::SeqCst);
        }
        Ok(Arc::new(AppState {
            config,
            miner: RwLock::new(miner),
            queue: IngestQueue::new(queue_capacity),
            metrics: Metrics::new(),
            query_cache: QueryCache::new(),
            persist,
            shard,
            recovery,
            shutdown: AtomicBool::new(false),
            applied: Mutex::new(0),
            applied_cv: Condvar::new(),
        }))
    }

    /// Accepts a batch of units, returning one result per unit in input
    /// order. With persistence, accepted units are WAL-appended (and
    /// fsynced per policy) before this returns — acknowledged means
    /// durable. A prefix of the batch may be accepted and the rest
    /// rejected `Full` when the queue lacks room.
    pub fn ingest_batch(
        &self,
        units: Vec<Vec<ItemSet>>,
    ) -> Vec<Result<u64, EnqueueError>> {
        let n = units.len();
        if self.is_shutting_down() {
            return vec![Err(EnqueueError::ShuttingDown); n];
        }
        let Some(persist) = &self.persist else {
            return self.queue.enqueue_batch(units);
        };
        let mut slot = persist.wal.lock_or_recover();
        let (results, now_failed) = match &mut *slot {
            WalSlot::Pending => (vec![Err(EnqueueError::Recovering); n], false),
            WalSlot::Failed => (vec![Err(EnqueueError::Persistence); n], false),
            WalSlot::Open(wal) => {
                let Some(room) = self.queue.room() else {
                    return vec![Err(EnqueueError::ShuttingDown); n];
                };
                let k = room.min(n);
                let mut accepted = units;
                accepted.truncate(k);
                let mut results: Vec<Result<u64, EnqueueError>> = Vec::with_capacity(n);
                if k > 0 {
                    match wal.append_batch(&accepted, &self.metrics) {
                        Ok(first) => match self.queue.push_with_seqs(first, accepted) {
                            Ok(()) => {
                                for i in 0..k {
                                    results.push(Ok(first.saturating_add(i as u64)));
                                }
                            }
                            Err(e) => {
                                // Durable but unacknowledged: recovered
                                // next boot, rejected now.
                                for _ in 0..k {
                                    results.push(Err(e));
                                }
                            }
                        },
                        Err(e) => {
                            log_warn(&format!("WAL append failed: {e}"));
                            self.metrics.record_wal_error();
                            for _ in 0..k {
                                results.push(Err(EnqueueError::Persistence));
                            }
                        }
                    }
                }
                while results.len() < n {
                    results.push(Err(EnqueueError::Full));
                }
                (results, wal.is_failed())
            }
        };
        if now_failed {
            *slot = WalSlot::Failed;
        }
        results
    }

    /// Accepts one unit — [`ingest_batch`](AppState::ingest_batch) with
    /// a batch of one.
    ///
    /// # Errors
    ///
    /// See [`EnqueueError`].
    pub fn ingest_unit(&self, unit: Vec<ItemSet>) -> Result<u64, EnqueueError> {
        self.ingest_batch(vec![unit]).pop().unwrap_or(Err(EnqueueError::ShuttingDown))
    }

    /// Begins shutdown: stop accepting units and wake all waiters.
    pub fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.queue.close();
    }

    /// Whether shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until unit `seq` has been applied to the miner, or the
    /// deadline passes. Returns whether the unit was applied.
    pub fn wait_applied(&self, seq: u64, timeout: Duration) -> bool {
        let guard = self.applied.lock_or_recover();
        let (guard, _timed_out) = self
            .applied_cv
            .wait_timeout_while(guard, timeout, |applied| *applied < seq)
            .unwrap_or_else(|e| e.into_inner());
        *guard >= seq
    }

    fn mark_applied(&self, seq: u64) {
        let mut guard = self.applied.lock_or_recover();
        *guard = (*guard).max(seq);
        self.applied_cv.notify_all();
    }
}

/// Spawns the ingest applier thread. With persistence it first runs
/// boot recovery (applying the recovered window to the miner), then
/// drains the queue into the miner, journalling applied units into the
/// retained ring and snapshotting on schedule; it exits — after a final
/// WAL flush and snapshot — once the queue is closed and empty.
///
/// # Errors
///
/// Propagates the OS error when the thread cannot be spawned, so the
/// daemon fails to start instead of running without an applier.
pub fn spawn_ingest_worker(state: Arc<AppState>) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name("car-ingest".into()).spawn(move || {
        if let Some(persist) = &state.persist {
            let recovery_span = car_obs::time_span!("recovery.boot");
            // The recovered window is built in a private miner and swapped
            // in under one short write lock, so `/v1/health` and `/metrics`
            // never wait on recovery.
            // Braced so that car-audit, too, sees the read guard end here.
            let window = { state.miner.read_or_recover().window() };
            let recovered = persist.recover(&state.metrics).and_then(|recovery| {
                let mut miner = SlidingWindowMiner::new(state.config, window)
                    .map_err(std::io::Error::other)?;
                miner.push_units(&recovery.units);
                Ok((recovery, miner))
            });
            match recovered {
                Ok((recovery, miner)) => {
                    let total = miner.total_pushed();
                    *state.miner.write_or_recover() = miner;
                    state.query_cache.advance(total);
                    car_obs::info!(
                        "recovery",
                        [
                            snapshot_units = recovery.snapshot_units,
                            replayed_units = recovery.replayed_units,
                            last_seq = recovery.last_seq
                        ],
                        "boot recovery complete"
                    );
                    state.recovery.finish(
                        recovery.snapshot_units as u64,
                        recovery.replayed_units as u64,
                    );
                    state.mark_applied(recovery.last_seq);
                }
                Err(e) => {
                    car_obs::error!(
                        "recovery",
                        "boot recovery failed: {e}; refusing ingest \
                         (durability cannot be promised)"
                    );
                    state.metrics.record_wal_error();
                    *persist.wal.lock_or_recover() = WalSlot::Failed;
                    state.recovery.finish(0, 0);
                }
            }
            drop(recovery_span);
        }
        while let Some((seq, unit)) = state.queue.dequeue() {
            let apply_span = car_obs::time_span!("serve.apply_unit");
            let total = {
                let mut miner = state.miner.write_or_recover();
                miner.push_unit(&unit);
                miner.total_pushed()
            };
            // Invalidate cached rule bodies *before* waking `?wait=true`
            // clients: a client that has observed its unit applied must
            // never be served a body from the previous epoch.
            state.query_cache.advance(total);
            state.mark_applied(seq);
            if let Some(persist) = &state.persist {
                persist.record_applied(seq, &unit, &state.metrics);
            }
            drop(apply_span);
            car_obs::trace!("serve", [seq = seq, txs = unit.len()], "unit applied");
        }
        if let Some(persist) = &state.persist {
            persist.flush_on_shutdown(&state.metrics);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_state(queue_capacity: usize) -> Arc<AppState> {
        let config = MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(2, 2)
            .build()
            .unwrap();
        AppState::new(config, 6, queue_capacity, None).unwrap()
    }

    fn persistent_state(dir: &std::path::Path, queue_capacity: usize) -> Arc<AppState> {
        let config = MiningConfig::builder()
            .min_support_fraction(0.5)
            .min_confidence(0.5)
            .cycle_bounds(2, 2)
            .build()
            .unwrap();
        AppState::new(config, 6, queue_capacity, Some(PersistConfig::new(dir))).unwrap()
    }

    fn temp_dir() -> std::path::PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "car-state-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn unit(day: usize) -> Vec<ItemSet> {
        if day % 2 == 0 {
            vec![ItemSet::from_ids([1, 2]); 4]
        } else {
            vec![ItemSet::from_ids([9]); 4]
        }
    }

    #[test]
    fn enqueue_respects_capacity() {
        let state = test_state(2);
        assert_eq!(state.ingest_unit(unit(0)), Ok(1));
        assert_eq!(state.ingest_unit(unit(1)), Ok(2));
        assert_eq!(state.ingest_unit(unit(2)), Err(EnqueueError::Full));
        assert_eq!(state.queue.depth(), 2);
    }

    #[test]
    fn closed_queue_rejects_and_drains() {
        let state = test_state(8);
        state.ingest_unit(unit(0)).unwrap();
        state.begin_shutdown();
        assert_eq!(state.ingest_unit(unit(1)), Err(EnqueueError::ShuttingDown));
        // The applier still drains the accepted unit.
        let worker = spawn_ingest_worker(Arc::clone(&state)).unwrap();
        worker.join().unwrap();
        assert_eq!(state.miner.read().unwrap().total_pushed(), 1);
    }

    #[test]
    fn worker_applies_in_order_and_wait_applied_sees_it() {
        let state = test_state(64);
        let worker = spawn_ingest_worker(Arc::clone(&state)).unwrap();
        let mut last = 0;
        for day in 0..10 {
            last = state.ingest_unit(unit(day)).unwrap();
        }
        assert!(state.wait_applied(last, Duration::from_secs(5)));
        {
            let miner = state.miner.read().unwrap();
            assert_eq!(miner.total_pushed(), 10);
            assert_eq!(miner.len(), 6); // window 6
            assert_eq!(miner.evictions(), 4);
        }
        state.begin_shutdown();
        worker.join().unwrap();
    }

    #[test]
    fn wait_applied_times_out_without_worker() {
        let state = test_state(8);
        let seq = state.ingest_unit(unit(0)).unwrap();
        assert!(!state.wait_applied(seq, Duration::from_millis(20)));
    }

    #[test]
    fn batch_accepts_prefix_when_capacity_runs_out() {
        let state = test_state(2);
        let results = state.ingest_batch(vec![unit(0), unit(1), unit(2)]);
        assert_eq!(results, vec![Ok(1), Ok(2), Err(EnqueueError::Full)]);
        assert_eq!(state.queue.depth(), 2);
    }

    #[test]
    fn persistent_ingest_is_recovering_until_worker_runs() {
        let dir = temp_dir();
        let state = persistent_state(&dir, 8);
        assert!(state.recovery.is_recovering());
        assert_eq!(state.ingest_unit(unit(0)), Err(EnqueueError::Recovering));

        let worker = spawn_ingest_worker(Arc::clone(&state)).unwrap();
        // Recovery of an empty store completes quickly.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while state.recovery.is_recovering() {
            assert!(std::time::Instant::now() < deadline, "recovery stuck");
            std::thread::sleep(Duration::from_millis(5));
        }
        let seq = state.ingest_unit(unit(0)).unwrap();
        assert_eq!(seq, 1);
        assert!(state.wait_applied(seq, Duration::from_secs(5)));
        state.begin_shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn persistent_state_survives_restart() {
        let dir = temp_dir();
        {
            let state = persistent_state(&dir, 64);
            let worker = spawn_ingest_worker(Arc::clone(&state)).unwrap();
            let mut last = 0;
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            while state.recovery.is_recovering() {
                assert!(std::time::Instant::now() < deadline, "recovery stuck");
                std::thread::sleep(Duration::from_millis(5));
            }
            for day in 0..4 {
                last = state.ingest_unit(unit(day)).unwrap();
            }
            assert!(state.wait_applied(last, Duration::from_secs(5)));
            state.begin_shutdown();
            worker.join().unwrap();
        }
        // Second life: the window comes back and sequences continue.
        let state = persistent_state(&dir, 64);
        let worker = spawn_ingest_worker(Arc::clone(&state)).unwrap();
        assert!(state.wait_applied(4, Duration::from_secs(5)));
        assert_eq!(state.recovery.snapshot_units(), 4);
        {
            let miner = state.miner.read().unwrap();
            assert_eq!(miner.total_pushed(), 4);
        }
        assert_eq!(state.ingest_unit(unit(4)), Ok(5));
        state.begin_shutdown();
        worker.join().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
