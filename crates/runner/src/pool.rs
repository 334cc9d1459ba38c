//! A work-stealing thread pool for embarrassingly parallel job lists,
//! built on `std::thread` and channels only (no new dependencies).
//!
//! Jobs are dealt round-robin into one deque per worker; each worker
//! drains its own deque from the front and, when empty, steals from the
//! back of a victim's deque.  Sweep points vary in cost by an order of
//! magnitude (600-user points dwarf 1-user points), so stealing — not
//! static partitioning — is what keeps all cores busy to the end.
//!
//! Determinism: the executor only *schedules* with threads; every job
//! is a pure function of its spec, and results are returned indexed by
//! submission order, so the output is independent of worker count and
//! interleaving.

use std::collections::VecDeque;
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

/// One finished job: its submission index, result, wall time and the
/// worker that ran it (0 on the inline sequential path).
pub struct Completion<R> {
    pub index: usize,
    pub result: R,
    pub wall: Duration,
    pub worker: usize,
}

/// Resolve a `--jobs`-style request: `0` means "all available cores".
pub fn resolve_workers(requested: usize) -> usize {
    if requested > 0 {
        requested
    } else {
        std::thread::available_parallelism().map_or(1, usize::from)
    }
}

/// Execute `exec` over every job, with `workers` threads, invoking
/// `on_done` on the calling thread as each job finishes (in completion
/// order).  Returns results in submission order.
///
/// `workers == 1` runs inline on the calling thread — the exact
/// sequential path, with no scheduling layer to distrust.
pub fn run_indexed<J, R, F>(
    jobs: &[J],
    workers: usize,
    exec: F,
    mut on_done: impl FnMut(&Completion<R>),
) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(&J) -> R + Sync,
{
    let workers = resolve_workers(workers).min(jobs.len().max(1));
    if workers <= 1 {
        return jobs
            .iter()
            .enumerate()
            .map(|(index, job)| {
                let t0 = Instant::now();
                let result = exec(job);
                let done = Completion {
                    index,
                    result,
                    wall: t0.elapsed(),
                    worker: 0,
                };
                on_done(&done);
                done.result
            })
            .collect();
    }

    // Deal jobs round-robin across per-worker deques.  Round-robin (not
    // block) dealing spreads each series' expensive tail points over
    // all workers, so most jobs are served locally and stealing only
    // smooths the imbalance.
    let deques: Vec<Mutex<VecDeque<usize>>> = (0..workers)
        .map(|w| {
            Mutex::new(
                (0..jobs.len())
                    .filter(|i| i % workers == w)
                    .collect::<VecDeque<usize>>(),
            )
        })
        .collect();

    let (tx, rx) = mpsc::channel::<Completion<R>>();
    let mut results: Vec<Option<R>> = (0..jobs.len()).map(|_| None).collect();

    std::thread::scope(|scope| {
        for w in 0..workers {
            let tx = tx.clone();
            let deques = &deques;
            let exec = &exec;
            scope.spawn(move || {
                loop {
                    // Own work first (front), then steal (back).
                    let mut claimed = deques[w].lock().unwrap().pop_front();
                    if claimed.is_none() {
                        for v in 1..workers {
                            let victim = (w + v) % workers;
                            claimed = deques[victim].lock().unwrap().pop_back();
                            if claimed.is_some() {
                                break;
                            }
                        }
                    }
                    let Some(index) = claimed else {
                        // Every deque is empty; in-flight jobs belong to
                        // other workers and no job spawns new work.
                        break;
                    };
                    let t0 = Instant::now();
                    let result = exec(&jobs[index]);
                    // A closed receiver means the collector bailed out
                    // (a sibling panicked); just stop.
                    if tx
                        .send(Completion {
                            index,
                            result,
                            wall: t0.elapsed(),
                            worker: w,
                        })
                        .is_err()
                    {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut received = 0usize;
        while received < jobs.len() {
            match rx.recv() {
                Ok(done) => {
                    on_done(&done);
                    results[done.index] = Some(done.result);
                    received += 1;
                }
                // All senders gone with jobs missing: a worker panicked;
                // scope join will propagate it below.
                Err(_) => break,
            }
        }
    });

    results
        .into_iter()
        .map(|r| r.expect("worker completed every claimed job"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn results_are_in_submission_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..257).collect();
        for workers in [1, 2, 3, 8] {
            let out = run_indexed(&jobs, workers, |&j| j * j, |_| {});
            let expect: Vec<u64> = jobs.iter().map(|j| j * j).collect();
            assert_eq!(out, expect, "workers={workers}");
        }
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let jobs: Vec<usize> = (0..100).collect();
        let runs = AtomicU64::new(0);
        let mut seen = 0usize;
        let out = run_indexed(
            &jobs,
            4,
            |&j| {
                runs.fetch_add(1, Ordering::Relaxed);
                j
            },
            |_| seen += 1,
        );
        assert_eq!(runs.load(Ordering::Relaxed), 100);
        assert_eq!(seen, 100);
        assert_eq!(out.len(), 100);
    }

    #[test]
    fn uneven_job_costs_still_complete() {
        // One job 100x the cost of the rest: stealing must not deadlock
        // or drop work.
        let jobs: Vec<u64> = (0..40)
            .map(|i| if i == 0 { 4_000_000 } else { 40_000 })
            .collect();
        let out = run_indexed(
            &jobs,
            4,
            |&spins| {
                let mut acc = 0u64;
                for i in 0..spins {
                    acc = acc.wrapping_add(std::hint::black_box(i));
                }
                acc
            },
            |_| {},
        );
        assert_eq!(out.len(), 40);
    }

    #[test]
    fn completions_attribute_a_valid_worker() {
        let jobs: Vec<usize> = (0..50).collect();
        let mut workers_seen = Vec::new();
        run_indexed(&jobs, 4, |&j| j, |done| workers_seen.push(done.worker));
        assert_eq!(workers_seen.len(), 50);
        assert!(workers_seen.iter().all(|&w| w < 4));
        // Inline path attributes everything to worker 0.
        let mut inline_workers = Vec::new();
        run_indexed(&jobs, 1, |&j| j, |done| inline_workers.push(done.worker));
        assert!(inline_workers.iter().all(|&w| w == 0));
    }

    #[test]
    fn zero_workers_resolves_to_available_parallelism() {
        assert!(resolve_workers(0) >= 1);
        assert_eq!(resolve_workers(3), 3);
    }

    #[test]
    fn empty_job_list_is_fine() {
        let out: Vec<u32> = run_indexed(&[] as &[u32], 4, |&j| j, |_| {});
        assert!(out.is_empty());
    }
}
