//! # ktpm-exec
//!
//! A fixed-size worker pool for CPU-bound jobs: the parallel
//! partitioned enumerator (`ParTopk` in `ktpm-core`) scatters per-shard
//! jobs on one — from the batch CLI, the bench drivers, and the service
//! engine's shard pool under `ktpm serve`.
//!
//! Deliberately minimal (std-only, no external executor): one shared
//! MPMC-by-mutex job queue drained by N threads. Jobs are short and
//! CPU-bound, so a simple queue is enough; the pool's function is to
//! cap concurrent work at a configured width no matter how many
//! callers pile in.
//!
//! Jobs must run to completion without blocking on other jobs of the
//! same pool — that discipline is what makes it safe for a request
//! thread (a net worker) to block in [`WorkerPool::scatter`] on the
//! shard pool: shard jobs never wait on anything, so there is no
//! circular wait.

use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads executing submitted closures.
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `workers` threads (at least one).
    pub fn new(workers: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("ktpm-worker-{i}"))
                    .spawn(move || worker_loop(rx))
                    .expect("spawn worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
        }
    }

    /// Enqueues a job; some worker will run it.
    pub fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool is alive while tx is Some")
            .send(Box::new(job))
            .expect("workers outlive the pool handle");
    }

    /// Runs `job` on a worker and blocks for its result. If the job
    /// panics, the panic is re-raised *here* (on the caller's thread);
    /// the worker itself survives and keeps serving the queue.
    pub fn run<T: Send + 'static>(&self, job: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx): (Sender<T>, Receiver<T>) = channel();
        self.execute(move || {
            // A dropped tx (client gone) is fine; result is discarded.
            let _ = tx.send(job());
        });
        rx.recv()
            .expect("job panicked on a worker thread (see worker's panic output)")
    }

    /// Runs every job concurrently on the pool and blocks until all
    /// finish, returning results in submission order. Panics on the
    /// caller's thread if any job panicked.
    pub fn scatter<T: Send + 'static>(
        &self,
        jobs: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = jobs.len();
        let (tx, rx) = channel::<(usize, T)>();
        for (i, job) in jobs.into_iter().enumerate() {
            let tx = tx.clone();
            self.execute(move || {
                let _ = tx.send((i, job()));
            });
        }
        drop(tx); // receivers below terminate once every job-held clone is gone
        let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
        let mut received = 0;
        while let Ok((i, v)) = rx.recv() {
            out[i] = Some(v);
            received += 1;
        }
        assert_eq!(
            received, n,
            "a scatter job panicked on a worker thread (see worker's panic output)"
        );
        out.into_iter().map(|v| v.expect("all received")).collect()
    }

    /// Number of worker threads.
    pub fn width(&self) -> usize {
        self.workers.len()
    }
}

/// A lazily-created process-wide pool sized to the machine (at least 2,
/// at most 16 workers), for callers without their own pool — the batch
/// CLI and the test suites. Long-lived services size their own.
pub fn default_pool() -> Arc<WorkerPool> {
    static POOL: OnceLock<Arc<WorkerPool>> = OnceLock::new();
    Arc::clone(POOL.get_or_init(|| {
        let width = std::thread::available_parallelism().map_or(4, |n| n.get().clamp(2, 16));
        Arc::new(WorkerPool::new(width))
    }))
}

fn worker_loop(rx: Arc<Mutex<Receiver<Job>>>) {
    loop {
        let job = match rx.lock() {
            Ok(guard) => match guard.recv() {
                Ok(job) => job,
                Err(_) => return, // pool dropped: drain and exit
            },
            // A sibling worker panicked while holding the queue lock
            // (only possible between recv and job; harmless): continue.
            Err(poisoned) => match poisoned.into_inner().recv() {
                Ok(job) => job,
                Err(_) => return,
            },
        };
        // Contain panics to the failing job: the worker (and therefore
        // the pool) must survive a pathological query. The caller
        // blocked in `run` observes the panic through its dropped
        // channel sender.
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // disconnect: workers exit after current job
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs_across_workers() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.width(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
        }
        drop(pool); // join
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn run_returns_job_result() {
        let pool = WorkerPool::new(2);
        let results: Vec<usize> = (0..10).map(|i| pool.run(move || i * i)).collect();
        assert_eq!(results, (0..10).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_preserves_submission_order() {
        let pool = WorkerPool::new(4);
        let jobs: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..32usize)
            .map(|i| {
                Box::new(move || {
                    // Stagger so completion order scrambles.
                    std::thread::sleep(std::time::Duration::from_micros(((32 - i) * 50) as u64));
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let out = pool.scatter(jobs);
        assert_eq!(out, (0..32).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn scatter_of_nothing_is_empty() {
        let pool = WorkerPool::new(1);
        let out: Vec<u8> = pool.scatter(Vec::new());
        assert!(out.is_empty());
    }

    #[test]
    fn scatter_panics_if_any_job_panics() {
        let pool = WorkerPool::new(2);
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("bad shard")),
            Box::new(|| 3),
        ];
        let observed =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| pool.scatter(jobs)));
        assert!(observed.is_err(), "caller must observe the panic");
        // The pool survives.
        assert_eq!(pool.run(|| 41 + 1), 42);
    }

    #[test]
    fn panicking_job_does_not_kill_the_pool() {
        let pool = WorkerPool::new(1);
        // The panic surfaces on the caller thread...
        let observed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.run(|| -> usize { panic!("bad query") })
        }));
        assert!(observed.is_err(), "caller must observe the panic");
        // ...but the single worker survives and serves the next job.
        assert_eq!(pool.run(|| 41 + 1), 42);
    }

    #[test]
    fn zero_width_is_clamped_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.width(), 1);
        assert_eq!(pool.run(|| 7), 7);
    }

    #[test]
    fn default_pool_is_shared_and_alive() {
        let a = default_pool();
        let b = default_pool();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(a.width() >= 2);
        assert_eq!(a.run(|| 5), 5);
    }
}
