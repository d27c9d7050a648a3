//! Work-stealing trial scheduler.
//!
//! Handing worker *w* trials `w, w+T, w+2T, …` up front is fair on
//! average but stalls on skew: one slow stripe (a retried trial, a
//! recovery storm, a watchdog-budget trial) leaves the other workers
//! idle at the tail. This module uses classic work stealing instead:
//! trial indices are chunked into batches on a shared injector queue,
//! each worker drains its own deque and refills from the injector, and
//! a worker that runs dry steals half of a victim's deque.
//!
//! Results are *not* reduced here in arrival order. Workers emit
//! `(trial index, result)` pairs and the caller's accumulator absorbs
//! them in canonical index order (a small reorder buffer bridges the
//! gap), so a work-stealing run is byte-identical to a serial fold no
//! matter how the OS schedules the threads — including order-sensitive
//! aggregates like Welford mean/variance accumulators.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Default trials per injector batch. Small enough that a 6-trial smoke
/// campaign still spreads over workers, big enough that injector-lock
/// traffic stays negligible against millisecond-scale trials.
pub const DEFAULT_CHUNK: u64 = 4;

/// What one worker did during a work-stealing run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id (`0..threads`).
    pub worker: usize,
    /// Trials this worker executed.
    pub trials_run: u64,
    /// Successful steal operations (each moves ≥ 1 trial).
    pub steals: u64,
    /// Trials acquired by stealing from a victim.
    pub stolen_trials: u64,
    /// Batches this worker pulled from the shared injector.
    pub injector_batches: u64,
    /// Wall-clock time spent inside trial bodies, in microseconds.
    pub busy_us: u64,
    /// Wall-clock lifetime of the worker, in microseconds.
    pub elapsed_us: u64,
}

impl WorkerStats {
    fn new(worker: usize) -> Self {
        WorkerStats {
            worker,
            trials_run: 0,
            steals: 0,
            stolen_trials: 0,
            injector_batches: 0,
            busy_us: 0,
            elapsed_us: 0,
        }
    }

    /// Fraction of the worker's lifetime spent inside trial bodies.
    pub fn utilization(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / self.elapsed_us as f64
    }
}

/// Aggregate scheduling telemetry for one work-stealing run. Lives
/// outside [`crate::campaign::CampaignReport`] on purpose: reports
/// describe *what the trials measured* and must be engine-independent;
/// this describes *how the engine ran them*.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Worker threads used (after clamping to the trial count).
    pub threads: usize,
    /// Trials per injector batch.
    pub chunk: u64,
    /// Total trials scheduled.
    pub trials: u64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Successful steals across all workers.
    pub fn total_steals(&self) -> u64 {
        self.workers.iter().map(|w| w.steals).sum()
    }

    /// Mean per-worker utilization (busy time over lifetime).
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers.iter().map(WorkerStats::utilization).sum::<f64>() / self.workers.len() as f64
    }
}

/// Shared scheduler state: the injector of unclaimed batches plus one
/// deque per worker.
struct Shared {
    injector: Mutex<VecDeque<(u64, u64)>>,
    deques: Vec<Mutex<VecDeque<u64>>>,
    /// Trials handed to some worker so far. When this reaches `trials`
    /// an idle worker can exit; below that, an empty-looking system may
    /// just have a batch in transit between queues.
    started: AtomicU64,
    trials: u64,
}

impl Shared {
    fn new(trials: u64, threads: usize, chunk: u64) -> Self {
        let mut injector = VecDeque::new();
        let mut lo = 0u64;
        while lo < trials {
            let hi = (lo + chunk).min(trials);
            injector.push_back((lo, hi));
            lo = hi;
        }
        Shared {
            injector: Mutex::new(injector),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            started: AtomicU64::new(0),
            trials,
        }
    }

    /// Claims the next trial for worker `me`: own deque first, then a
    /// fresh injector batch, then half of a victim's deque (victims are
    /// scanned in a fixed ring order — determinism of the *results* never
    /// depends on who wins a steal race, only the stats do).
    fn find_work(&self, me: usize, stats: &mut WorkerStats) -> Option<u64> {
        if let Some(i) = self.deques[me].lock().expect("worker deque lock").pop_front() {
            self.started.fetch_add(1, Ordering::AcqRel);
            return Some(i);
        }
        if let Some((lo, hi)) = self
            .injector
            .lock()
            .expect("injector lock")
            .pop_front()
        {
            stats.injector_batches += 1;
            let mut own = self.deques[me].lock().expect("worker deque lock");
            own.extend(lo..hi);
            let first = own.pop_front();
            drop(own);
            if let Some(i) = first {
                self.started.fetch_add(1, Ordering::AcqRel);
                return Some(i);
            }
        }
        let n = self.deques.len();
        for offset in 1..n {
            let victim = (me + offset) % n;
            let mut vd = self.deques[victim].lock().expect("victim deque lock");
            let len = vd.len();
            if len == 0 {
                continue;
            }
            // Steal the back half: the victim keeps the front it is
            // about to work through, minimizing contention on re-steal.
            let take = len.div_ceil(2);
            let mut stolen: Vec<u64> = Vec::with_capacity(take);
            for _ in 0..take {
                if let Some(i) = vd.pop_back() {
                    stolen.push(i);
                }
            }
            drop(vd);
            stolen.reverse(); // restore ascending order
            stats.steals += 1;
            stats.stolen_trials += stolen.len() as u64;
            let mut own = self.deques[me].lock().expect("worker deque lock");
            own.extend(stolen);
            let first = own.pop_front();
            drop(own);
            if let Some(i) = first {
                self.started.fetch_add(1, Ordering::AcqRel);
                return Some(i);
            }
        }
        None
    }

    fn all_started(&self) -> bool {
        self.started.load(Ordering::Acquire) >= self.trials
    }
}

fn worker_loop<T, W>(
    shared: &Shared,
    me: usize,
    work: &W,
    tx: &mpsc::Sender<(u64, T)>,
) -> WorkerStats
where
    W: Fn(u64) -> T + Sync,
{
    let born = Instant::now();
    let mut busy = std::time::Duration::ZERO;
    let mut stats = WorkerStats::new(me);
    loop {
        match shared.find_work(me, &mut stats) {
            Some(index) => {
                let t0 = Instant::now();
                let out = work(index);
                busy += t0.elapsed();
                stats.trials_run += 1;
                if tx.send((index, out)).is_err() {
                    break; // receiver gone: the run is being torn down
                }
            }
            None if shared.all_started() => break,
            // A batch is in transit between the injector and a deque;
            // it will land in a moment.
            None => std::thread::yield_now(),
        }
    }
    stats.busy_us = busy.as_micros() as u64;
    stats.elapsed_us = born.elapsed().as_micros() as u64;
    stats
}

/// Runs `work(0..trials)` over `threads` work-stealing workers and folds
/// the results into `acc` in **canonical index order** — `absorb` sees
/// `(0, t0)`, `(1, t1)`, … exactly as a serial loop would, regardless of
/// completion order. Threads are clamped to `1..=trials`.
pub fn run_work_stealing<T, R, W, A>(
    trials: u64,
    threads: usize,
    chunk: u64,
    work: W,
    acc: R,
    mut absorb: A,
) -> (R, SchedulerStats)
where
    T: Send,
    W: Fn(u64) -> T + Sync,
    A: FnMut(&mut R, u64, T),
{
    let threads = threads.clamp(1, trials.max(1) as usize);
    let chunk = chunk.max(1);
    let shared = Shared::new(trials, threads, chunk);
    let (tx, rx) = mpsc::channel::<(u64, T)>();
    let mut acc = acc;
    let mut workers: Vec<WorkerStats> = Vec::with_capacity(threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|me| {
                let tx = tx.clone();
                let shared = &shared;
                let work = &work;
                scope.spawn(move || worker_loop(shared, me, work, &tx))
            })
            .collect();
        drop(tx);
        // Canonical-order reduction with a reorder buffer. The buffer
        // stays small: it only holds results ahead of the lowest
        // still-running trial index.
        let mut buffer: BTreeMap<u64, T> = BTreeMap::new();
        let mut next = 0u64;
        for (index, out) in rx.iter() {
            buffer.insert(index, out);
            while let Some(out) = buffer.remove(&next) {
                absorb(&mut acc, next, out);
                next += 1;
            }
        }
        for (index, out) in buffer {
            absorb(&mut acc, index, out);
        }
        for handle in handles {
            workers.push(handle.join().expect("worker thread panicked"));
        }
    });
    workers.sort_by_key(|w| w.worker);
    (
        acc,
        SchedulerStats {
            threads,
            chunk,
            trials,
            workers,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serial_fold(trials: u64, work: impl Fn(u64) -> u64) -> Vec<(u64, u64)> {
        (0..trials).map(|i| (i, work(i))).collect()
    }

    #[test]
    fn reduction_is_in_canonical_order() {
        let work = |i: u64| {
            // Skew: early trials are much slower, so late indices finish
            // first and exercise the reorder buffer.
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            i * 3 + 1
        };
        let (seen, stats) = run_work_stealing(
            32,
            4,
            DEFAULT_CHUNK,
            work,
            Vec::new(),
            |acc: &mut Vec<(u64, u64)>, i, out| acc.push((i, out)),
        );
        assert_eq!(seen, serial_fold(32, |i| i * 3 + 1));
        assert_eq!(stats.threads, 4);
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 32);
        assert_eq!(stats.trials, 32);
    }

    #[test]
    fn threads_clamp_to_trial_count() {
        let (seen, stats) = run_work_stealing(
            3,
            16,
            DEFAULT_CHUNK,
            |i| i,
            Vec::new(),
            |acc: &mut Vec<(u64, u64)>, i, out| acc.push((i, out)),
        );
        assert_eq!(stats.threads, 3, "16 threads over 3 trials is 3 workers");
        assert_eq!(seen, vec![(0, 0), (1, 1), (2, 2)]);
    }

    #[test]
    fn zero_trials_complete_immediately() {
        let (seen, stats) = run_work_stealing(
            0,
            4,
            DEFAULT_CHUNK,
            |i| i,
            Vec::new(),
            |acc: &mut Vec<(u64, u64)>, i, out| acc.push((i, out)),
        );
        assert!(seen.is_empty());
        assert_eq!(stats.threads, 1);
        assert_eq!(stats.total_steals(), 0);
    }

    #[test]
    fn skewed_work_triggers_steals() {
        // One giant chunk of slow trials at the front: the worker that
        // grabs it becomes a steal target for everyone else.
        let (seen, stats) = run_work_stealing(
            24,
            4,
            12,
            |i| {
                if i < 12 {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
                i
            },
            0u64,
            |acc: &mut u64, _i, out| *acc += out,
        );
        assert_eq!(seen, (0..24).sum::<u64>());
        assert!(
            stats.total_steals() > 0,
            "a 12-trial slow chunk against chunk-starved peers must be stolen from: {stats:?}"
        );
    }

    #[test]
    fn utilization_is_a_fraction() {
        let (_, stats) = run_work_stealing(
            8,
            2,
            2,
            |i| {
                std::thread::sleep(std::time::Duration::from_millis(2));
                i
            },
            (),
            |_: &mut (), _, _| {},
        );
        for w in &stats.workers {
            let u = w.utilization();
            assert!((0.0..=1.0).contains(&u), "utilization {u} out of range");
        }
        assert!(stats.mean_utilization() > 0.0);
    }
}
