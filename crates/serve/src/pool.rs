//! A fixed-size worker thread pool over an MPSC channel.
//!
//! Connections are handled by a small set of long-lived workers rather
//! than a thread per connection: predictable memory, no spawn cost on
//! the request path, and graceful shutdown for free — dropping the
//! sender ends the channel, each worker drains what it already received
//! and exits, and [`ThreadPool::join`] waits for that.
//!
//! A `Backlog` handle counts the jobs waiting for a free worker, so a
//! job that is only waiting (a connection idle before or between
//! requests) can give its worker up to one that would otherwise queue
//! behind it.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

use crate::sync::{log_warn, LockExt};

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads executing queued jobs.
pub struct ThreadPool {
    sender: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    backlog: Backlog,
}

/// The number of jobs a [`ThreadPool`] has queued that no worker has
/// taken yet. Cloning shares the count.
#[derive(Clone, Default)]
pub(crate) struct Backlog(Arc<AtomicUsize>);

impl Backlog {
    /// Whether some job is waiting for a free worker.
    pub(crate) fn is_waiting(&self) -> bool {
        self.0.load(Ordering::SeqCst) > 0
    }
}

impl ThreadPool {
    /// Spawns `size` workers (at least 1) named `{name}-{i}`.
    ///
    /// # Errors
    ///
    /// Propagates the OS error when a worker thread cannot be spawned
    /// (already-spawned workers wind down via the dropped channel).
    pub fn new(size: usize, name: &str) -> std::io::Result<ThreadPool> {
        let size = size.max(1);
        let (sender, receiver) = std::sync::mpsc::channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let backlog = Backlog::default();
        let mut workers = Vec::with_capacity(size);
        for i in 0..size {
            let receiver = Arc::clone(&receiver);
            let backlog = backlog.clone();
            workers.push(
                std::thread::Builder::new()
                    .name(format!("{name}-{i}"))
                    .spawn(move || worker_loop(&receiver, &backlog))?,
            );
        }
        Ok(ThreadPool { sender: Some(sender), workers, backlog })
    }

    /// Queues a job. Jobs run in submission order per worker, across
    /// workers in whatever order the scheduler picks.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        if let Some(sender) = &self.sender {
            self.backlog.0.fetch_add(1, Ordering::SeqCst);
            // Send fails only if every worker exited, which should be
            // impossible while the pool owns their handles — so a
            // dropped job is worth a log line, not a panic.
            if sender.send(Box::new(job)).is_err() {
                self.backlog.0.fetch_sub(1, Ordering::SeqCst);
                log_warn("thread pool has no live workers; dropping job");
            }
        }
    }

    /// A handle on the count of queued jobs no worker has taken yet.
    pub(crate) fn backlog(&self) -> Backlog {
        self.backlog.clone()
    }

    /// Stops accepting jobs, lets queued jobs finish, and joins every
    /// worker.
    pub fn join(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            if handle.join().is_err() {
                // Jobs run under catch_unwind, so this means the loop
                // itself panicked — report it rather than hiding it.
                log_warn("a pool worker panicked before exit");
            }
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, backlog: &Backlog) {
    loop {
        let job = {
            let guard = receiver.lock_or_recover();
            // audit:allow(a2-blocking) reason="the receiver mutex exists only to serialise recv() among pool workers; holding it across the blocking recv IS the job-distribution mechanism, and no other lock is ever taken with it"
            guard.recv()
        };
        match job {
            Ok(job) => {
                backlog.0.fetch_sub(1, Ordering::SeqCst);
                // A panicking connection handler must not take the
                // worker down with it.
                let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
            }
            Err(_) => return, // channel closed: shutdown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn runs_all_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(4, "test").unwrap();
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn join_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(1, "drain").unwrap();
        for _ in 0..10 {
            let counter = Arc::clone(&counter);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(2));
                counter.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 10);
    }

    #[test]
    fn panicking_job_does_not_kill_worker() {
        let counter = Arc::new(AtomicUsize::new(0));
        let pool = ThreadPool::new(1, "panic").unwrap();
        pool.execute(|| panic!("boom"));
        let c = Arc::clone(&counter);
        pool.execute(move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(counter.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn backlog_counts_jobs_no_worker_has_taken() {
        let pool = ThreadPool::new(1, "backlog").unwrap();
        let backlog = pool.backlog();
        let (started_tx, started) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        pool.execute(move || {
            started_tx.send(()).unwrap();
            release_rx.recv().unwrap();
        });
        started.recv().unwrap();
        assert!(!backlog.is_waiting(), "the running job is not queued");
        pool.execute(|| {});
        assert!(backlog.is_waiting(), "the second job waits for the only worker");
        release.send(()).unwrap();
        pool.join();
        assert!(!backlog.is_waiting());
    }

    #[test]
    fn zero_size_is_clamped_to_one() {
        let pool = ThreadPool::new(0, "clamp").unwrap();
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        pool.execute(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        pool.join();
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }
}
