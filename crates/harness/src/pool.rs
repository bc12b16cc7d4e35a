//! A std-only thread pool for coarse simulation jobs.
//!
//! The queue is a cursor over the submission order: an idle worker takes
//! the next index. Jobs are wildly uneven (a DRAM-saturated MUM run is
//! ~10× an SP run), and handing them out one at a time is greedy list
//! scheduling — no worker idles while a job is unclaimed.
//!
//! Guarantees:
//!
//! * **Panic isolation** — a panicking job becomes an `Err` at its index;
//!   the worker that caught it keeps draining the queue.
//! * **Deterministic ordering** — results are addressed by job index, so
//!   the output is identical for any worker count or interleaving.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Progress notification for one finished job, delivered to the
/// `on_done` callback from the worker that ran it.
#[derive(Clone, Copy, Debug)]
pub struct JobDone<'a> {
    /// Index of the job in the submitted order.
    pub index: usize,
    /// `Err(panic message)` if the job panicked.
    pub error: Option<&'a str>,
    /// Wall time the job took.
    pub elapsed: Duration,
    /// Jobs finished so far (including this one).
    pub completed: usize,
    /// Total jobs submitted.
    pub total: usize,
    /// Worker that executed the job.
    pub worker: usize,
}

/// A sensible worker count for `jobs` independent jobs: all available
/// cores, but never more workers than jobs (and at least one).
pub fn default_workers(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(jobs)
        .max(1)
}

/// Runs `total` jobs on `workers` threads, returning one result per job
/// **in submission order** regardless of scheduling.
/// A job that panics yields `Err(message)` at its index.
pub fn run_jobs<T, F, C>(total: usize, workers: usize, run: F, on_done: C) -> Vec<Result<T, String>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
    C: Fn(JobDone<'_>) + Sync,
{
    if total == 0 {
        return Vec::new();
    }
    let workers = workers.clamp(1, total);

    // The next unclaimed job. Relaxed: the index publishes no data (the
    // jobs are the caller's `Sync` closure; results go through `slots`).
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<T, String>>>> =
        (0..total).map(|_| Mutex::new(None)).collect();
    let completed = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        for w in 0..workers {
            let next = &next;
            let slots = &slots;
            let completed = &completed;
            let run = &run;
            let on_done = &on_done;
            scope.spawn(move || loop {
                let job = next.fetch_add(1, Ordering::Relaxed);
                if job >= total {
                    break;
                }
                #[expect(
                    clippy::disallowed_methods,
                    reason = "measurement: the elapsed time goes to the on_done callback only"
                )]
                let start = Instant::now();
                let result = catch_unwind(AssertUnwindSafe(|| run(job)))
                    .map_err(|panic| panic_message(panic.as_ref()));
                let elapsed = start.elapsed();
                let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
                on_done(JobDone {
                    index: job,
                    error: result.as_ref().err().map(String::as_str),
                    elapsed,
                    completed: done,
                    total,
                    worker: w,
                });
                *slots[job].lock().expect("result slot poisoned") = Some(result);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("every job index was executed exactly once")
        })
        .collect()
}

/// The text of a caught panic's payload (`panic!`'s message).
pub fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    panic
        .downcast_ref::<&str>()
        .map(|m| (*m).to_string())
        .or_else(|| panic.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_in_submission_order_for_any_worker_count() {
        for workers in [1, 2, 3, 8, 64] {
            let out = run_jobs(23, workers, |i| i * i, |_| {});
            let values: Vec<usize> = out.into_iter().map(|r| r.unwrap()).collect();
            assert_eq!(values, (0..23).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn panics_are_isolated_to_their_index() {
        let out = run_jobs(
            10,
            4,
            |i| {
                if i == 3 {
                    panic!("job {i} exploded");
                }
                i
            },
            |_| {},
        );
        for (i, r) in out.iter().enumerate() {
            if i == 3 {
                assert_eq!(r.as_ref().unwrap_err(), "job 3 exploded");
            } else {
                assert_eq!(*r.as_ref().unwrap(), i);
            }
        }
    }

    #[test]
    fn a_long_job_does_not_hold_up_the_queue() {
        // Job 0 occupies one of two workers until the other 15 jobs are
        // done: the second worker must get through all of them alone.
        let (tx, rx) = std::sync::mpsc::channel();
        let (tx, rx) = (Mutex::new(tx), Mutex::new(rx));
        let long_job_finished_last = std::sync::atomic::AtomicBool::new(false);
        let out = run_jobs(
            16,
            2,
            |i| {
                if i == 0 {
                    let rx = rx.lock().unwrap();
                    for _ in 1..16 {
                        rx.recv_timeout(Duration::from_secs(30))
                            .expect("the queue stalled behind the long job");
                    }
                }
                i
            },
            |d| {
                if d.index == 0 {
                    long_job_finished_last.store(d.completed == d.total, Ordering::Relaxed);
                } else {
                    tx.lock().unwrap().send(()).unwrap();
                }
            },
        );
        assert_eq!(out.len(), 16);
        assert!(long_job_finished_last.load(Ordering::Relaxed));
    }

    #[test]
    fn progress_reports_count_up_to_total() {
        let max_seen = AtomicUsize::new(0);
        run_jobs(
            7,
            3,
            |i| i,
            |d| {
                assert_eq!(d.total, 7);
                max_seen.fetch_max(d.completed, Ordering::Relaxed);
            },
        );
        assert_eq!(max_seen.load(Ordering::Relaxed), 7);
    }

    #[test]
    fn zero_and_one_job_edge_cases() {
        assert!(run_jobs(0, 4, |i| i, |_| {}).is_empty());
        let one = run_jobs(1, 4, |i| i + 41, |_| {});
        assert_eq!(*one[0].as_ref().unwrap(), 41);
    }
}
