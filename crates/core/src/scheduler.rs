//! Trial scheduler: dynamic self-scheduling from one shared cursor.
//!
//! Handing worker *w* trials `w, w+T, w+2T, …` up front is fair on
//! average but stalls on skew: one slow stripe (a retried trial, a
//! recovery storm, a watchdog-budget trial) leaves the other workers
//! idle at the tail. Here every worker instead claims the next `chunk`
//! trial indices from one shared atomic cursor whenever it is free, so
//! a slow trial only ever holds up the worker running it. Kv, fleet and
//! campaign trials cost 0.13–10 ms and a claim about 0.25 µs, so one
//! index per claim ([`DEFAULT_CHUNK`]) costs nothing measurable.
//!
//! Results are *not* reduced here in arrival order. Workers emit
//! `(trial index, result)` pairs and the caller's accumulator absorbs
//! them in canonical index order (a small reorder buffer bridges the
//! gap), so a threaded run is byte-identical to a serial fold no matter
//! how the OS schedules the threads — including order-sensitive
//! aggregates like Welford mean/variance accumulators.
//!
//! One worker is the serial loop: it runs on the caller's thread, with
//! no spawn, channel or reorder buffer, and folds each result as soon as
//! it is computed.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Default trials per claim: one, so a slow trial never holds a
/// claimed-but-unstarted trial behind it on the same worker.
pub const DEFAULT_CHUNK: u64 = 1;

/// What one worker did during a scheduler run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerStats {
    /// Worker id (`0..threads`).
    pub worker: usize,
    /// Trials this worker executed.
    pub trials_run: u64,
    /// Wall-clock time spent inside trial bodies, in microseconds.
    pub busy_us: u64,
    /// Wall-clock lifetime of the worker, in microseconds.
    pub elapsed_us: u64,
}

impl WorkerStats {
    /// Fraction of the worker's lifetime spent inside trial bodies.
    pub fn utilization(&self) -> f64 {
        if self.elapsed_us == 0 {
            return 0.0;
        }
        self.busy_us as f64 / self.elapsed_us as f64
    }
}

/// Aggregate scheduling telemetry for one scheduler run. Lives outside
/// [`crate::campaign::CampaignReport`] on purpose: reports describe
/// *what the trials measured* and must be engine-independent; this
/// describes *how the engine ran them*.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SchedulerStats {
    /// Worker threads used (after clamping to the trial count).
    pub threads: usize,
    /// Trials per claim from the shared cursor.
    pub chunk: u64,
    /// Total trials scheduled.
    pub trials: u64,
    /// Per-worker breakdown.
    pub workers: Vec<WorkerStats>,
}

impl SchedulerStats {
    /// Always 0: workers claim from one cursor, so nothing is stolen.
    pub fn total_steals(&self) -> u64 {
        0
    }

    /// Mean per-worker utilization (busy time over lifetime).
    pub fn mean_utilization(&self) -> f64 {
        if self.workers.is_empty() {
            return 0.0;
        }
        self.workers
            .iter()
            .map(WorkerStats::utilization)
            .sum::<f64>()
            / self.workers.len() as f64
    }
}

/// Runs worker `me`, claiming `chunk` indices at a time from `cursor`
/// until it passes `trials`, and hands each result to `emit`; `emit`
/// returning false stops the worker early.
fn worker_loop<T, W>(
    cursor: &AtomicU64,
    trials: u64,
    chunk: u64,
    me: usize,
    work: &W,
    mut emit: impl FnMut(u64, T) -> bool,
) -> WorkerStats
where
    W: Fn(u64) -> T + Sync,
{
    let born = Instant::now();
    let mut busy = Duration::ZERO;
    let mut trials_run = 0;
    'claim: loop {
        // Relaxed: the cursor publishes no data, only which indices are
        // taken; results reach the reducer through `emit`.
        let lo = cursor.fetch_add(chunk, Ordering::Relaxed);
        if lo >= trials {
            break;
        }
        for index in lo..(lo + chunk).min(trials) {
            let t0 = Instant::now();
            let out = work(index);
            busy += t0.elapsed();
            trials_run += 1;
            if !emit(index, out) {
                break 'claim; // receiver gone: the run is being torn down
            }
        }
    }
    WorkerStats {
        worker: me,
        trials_run,
        busy_us: busy.as_micros() as u64,
        elapsed_us: born.elapsed().as_micros() as u64,
    }
}

/// Runs `work(0..trials)` over `threads` workers that claim `chunk`
/// indices at a time from one shared cursor, and folds the results into
/// `acc` in **canonical index order** — `absorb` sees `(0, t0)`,
/// `(1, t1)`, … exactly as a serial loop would, regardless of completion
/// order. Threads are clamped to `1..=trials` and `chunk` to
/// `1..=trials`; one thread runs `work` inline on the caller's thread.
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
    // Capped at `trials` so the claims past the end cannot wrap the cursor.
    let chunk = chunk.clamp(1, trials.max(1));
    let cursor = AtomicU64::new(0);
    let mut acc = acc;
    let mut workers: Vec<WorkerStats> = Vec::with_capacity(threads);
    if threads == 1 {
        workers.push(worker_loop(
            &cursor,
            trials,
            chunk,
            0,
            &work,
            |index, out| {
                absorb(&mut acc, index, out);
                true
            },
        ));
    } else {
        let (tx, rx) = mpsc::channel::<(u64, T)>();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|me| {
                    let tx = tx.clone();
                    let (cursor, work) = (&cursor, &work);
                    scope.spawn(move || {
                        worker_loop(cursor, trials, chunk, me, work, |index, out| {
                            tx.send((index, out)).is_ok()
                        })
                    })
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
    }
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
    fn one_worker_runs_inline_on_the_callers_thread() {
        let caller = std::thread::current().id();
        let (seen, stats) = run_work_stealing(
            10,
            1,
            DEFAULT_CHUNK,
            |i| (i * 3 + 1, std::thread::current().id()),
            Vec::new(),
            |acc: &mut Vec<(u64, u64)>, i, (out, id)| {
                assert_eq!(id, caller, "trial {i} ran off the caller's thread");
                acc.push((i, out));
            },
        );
        assert_eq!(seen, serial_fold(10, |i| i * 3 + 1));
        assert_eq!(
            (stats.threads, stats.trials, stats.chunk),
            (1, 10, DEFAULT_CHUNK)
        );
        let worker = &stats.workers[..];
        assert_eq!(worker.len(), 1);
        assert_eq!(worker[0].trials_run, 10);
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
    fn a_slow_trial_holds_back_no_other() {
        // Trial 0 outlasts all the others put together: the worker that
        // claims it must run nothing else, because every later index is
        // still on the cursor for the free workers to take.
        let (seen, stats) = run_work_stealing(
            24,
            4,
            DEFAULT_CHUNK,
            |i| {
                let ms = if i == 0 { 400 } else { 5 };
                std::thread::sleep(std::time::Duration::from_millis(ms));
                i
            },
            0u64,
            |acc: &mut u64, _i, out| *acc += out,
        );
        assert_eq!(seen, (0..24).sum::<u64>());
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 24);
        let slow = stats
            .workers
            .iter()
            .max_by_key(|w| w.busy_us)
            .expect("four workers");
        assert_eq!(
            slow.trials_run, 1,
            "the worker on the slow trial must run only that trial: {stats:?}"
        );
    }

    #[test]
    fn an_oversized_chunk_runs_every_trial_once() {
        // Three claims of 2^63 would wrap the cursor back to 0.
        let (seen, stats) = run_work_stealing(
            8,
            3,
            1 << 63,
            |i| i,
            Vec::new(),
            |acc: &mut Vec<(u64, u64)>, i, out| acc.push((i, out)),
        );
        assert_eq!(seen, serial_fold(8, |i| i));
        assert_eq!(stats.workers.iter().map(|w| w.trials_run).sum::<u64>(), 8);
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
