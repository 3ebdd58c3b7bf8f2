//! A minimal scoped thread pool with per-job fault isolation.
//!
//! The orchestrator needs exactly two shapes of parallelism — "produce N
//! indexed results" and "mutate N items in place" — with results
//! independent of the worker count. Both run on `std::thread::scope`
//! (replica states borrow the netlist, so `'static` spawning is out) and
//! assign work by index, never by arrival order.
//!
//! A panicking job must not take the run down with it: both forms catch
//! each job's unwind and report it as a typed [`ReplicaError`] in that
//! job's result slot, leaving every other job's outcome intact.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::PoisonError;

/// One job's failure: the replica index it was running as and the panic
/// payload rendered to text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaError {
    /// Index of the failed job.
    pub index: usize,
    /// Panic message (or a placeholder for non-string payloads).
    pub message: String,
}

impl std::fmt::Display for ReplicaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "replica {} panicked: {}", self.index, self.message)
    }
}

impl std::error::Error for ReplicaError {}

/// Renders a caught panic payload to text (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

/// Runs one job under an unwind guard, mapping a panic to [`ReplicaError`].
fn isolate<T>(index: usize, job: impl FnOnce() -> T) -> Result<T, ReplicaError> {
    catch_unwind(AssertUnwindSafe(job)).map_err(|payload| ReplicaError {
        index,
        message: panic_message(payload),
    })
}

/// Runs `job(0..n)` on up to `threads` workers and returns the results
/// in index order, each individually fault-isolated: a panicking job
/// yields `Err(ReplicaError)` in its slot without disturbing the others.
///
/// `threads <= 1` runs sequentially on the caller's thread — the
/// graceful fallback used when parallelism is disabled. Work is assigned
/// by striding (worker `w` takes indices `w, w + threads, …`), so the
/// output depends only on `job`, not on scheduling.
pub fn try_run_indexed<T, F>(n: usize, threads: usize, job: F) -> Vec<Result<T, ReplicaError>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    if threads <= 1 {
        return (0..n).map(|i| isolate(i, || job(i))).collect();
    }
    let out: std::sync::Mutex<Vec<Option<Result<T, ReplicaError>>>> =
        std::sync::Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for w in 0..threads {
            let job = &job;
            let out = &out;
            scope.spawn(move || {
                let mut local = Vec::new();
                let mut i = w;
                while i < n {
                    local.push((i, isolate(i, || job(i))));
                    i += threads;
                }
                let mut slots = out.lock().unwrap_or_else(PoisonError::into_inner);
                for (i, v) in local {
                    slots[i] = Some(v);
                }
            });
        }
    });
    out.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            v.unwrap_or_else(|| {
                Err(ReplicaError {
                    index: i,
                    message: "worker produced no result".to_owned(),
                })
            })
        })
        .collect()
}

/// Whether [`try_run_mut`] over `n` items on up to `threads` workers
/// runs every job on the calling thread instead of spawning workers.
pub(crate) fn runs_inline(n: usize, threads: usize) -> bool {
    threads.clamp(1, n.max(1)) <= 1
}

/// Applies `job(index, item)` to every item on up to `threads` workers,
/// returning one fault-isolated result per item.
///
/// Items are partitioned into contiguous chunks, one per worker; each
/// item is touched by exactly one worker, so no synchronization beyond
/// the scope join is needed and the outcome is thread-count independent.
/// A panicking job leaves `Err(ReplicaError)` in its item's slot; the
/// item itself may be mid-mutation and the caller decides whether it is
/// still usable (the orchestrator retires such replicas).
pub fn try_run_mut<T, F>(items: &mut [T], threads: usize, job: F) -> Vec<Result<(), ReplicaError>>
where
    T: Send,
    F: Fn(usize, &mut T) + Sync,
{
    let n = items.len();
    let threads = threads.clamp(1, n.max(1));
    if runs_inline(n, threads) {
        return items
            .iter_mut()
            .enumerate()
            .map(|(i, item)| isolate(i, || job(i, item)))
            .collect();
    }
    let chunk = n.div_ceil(threads);
    let out: std::sync::Mutex<Vec<Option<Result<(), ReplicaError>>>> =
        std::sync::Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for (w, slice) in items.chunks_mut(chunk).enumerate() {
            let job = &job;
            let out = &out;
            scope.spawn(move || {
                let mut local = Vec::new();
                for (k, item) in slice.iter_mut().enumerate() {
                    let i = w * chunk + k;
                    local.push((i, isolate(i, || job(i, item))));
                }
                let mut slots = out.lock().unwrap_or_else(PoisonError::into_inner);
                for (i, v) in local {
                    slots[i] = Some(v);
                }
            });
        }
    });
    out.into_inner()
        .unwrap_or_else(PoisonError::into_inner)
        .into_iter()
        .enumerate()
        .map(|(i, v)| {
            v.unwrap_or_else(|| {
                Err(ReplicaError {
                    index: i,
                    message: "worker produced no result".to_owned(),
                })
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_indexed<T: Send>(n: usize, threads: usize, job: impl Fn(usize) -> T + Sync) -> Vec<T> {
        try_run_indexed(n, threads, job)
            .into_iter()
            .map(|r| r.expect("no job panics"))
            .collect()
    }

    #[test]
    fn indexed_results_in_order() {
        for threads in [1, 2, 3, 8] {
            let out = run_indexed(7, threads, |i| i * i);
            assert_eq!(out, vec![0, 1, 4, 9, 16, 25, 36], "threads={threads}");
        }
    }

    #[test]
    fn indexed_handles_empty_and_excess_threads() {
        let out: Vec<usize> = run_indexed(0, 4, |i| i);
        assert!(out.is_empty());
        let out = run_indexed(2, 100, |i| i + 1);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn mutation_touches_every_item_once() {
        for threads in [1, 2, 5] {
            let mut items = vec![0u64; 9];
            let out = try_run_mut(&mut items, threads, |i, item| *item += 10 + i as u64);
            assert!(out.iter().all(Result::is_ok));
            let expect: Vec<u64> = (0..9).map(|i| 10 + i).collect();
            assert_eq!(items, expect, "threads={threads}");
        }
    }

    #[test]
    fn workers_really_run_concurrently() {
        // Two jobs that each wait for the other's side effect would
        // deadlock on one thread; with two they finish.
        use std::sync::atomic::{AtomicUsize, Ordering};
        let started = AtomicUsize::new(0);
        let out = run_indexed(2, 2, |i| {
            started.fetch_add(1, Ordering::SeqCst);
            let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
            while started.load(Ordering::SeqCst) < 2 {
                assert!(std::time::Instant::now() < deadline, "no concurrency");
                std::thread::yield_now();
            }
            i
        });
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn panicking_job_is_isolated_to_its_slot() {
        for threads in [1, 2, 4] {
            let out = try_run_indexed(5, threads, |i| {
                if i == 2 {
                    panic!("boom at {i}");
                }
                i * 10
            });
            assert_eq!(out.len(), 5, "threads={threads}");
            for (i, r) in out.iter().enumerate() {
                if i == 2 {
                    let e = r.as_ref().expect_err("job 2 failed");
                    assert_eq!(e.index, 2);
                    assert!(e.message.contains("boom at 2"), "{}", e.message);
                } else {
                    assert_eq!(*r.as_ref().expect("others survive"), i * 10);
                }
            }
        }
    }

    #[test]
    fn panicking_mut_job_leaves_other_items_mutated() {
        for threads in [1, 3] {
            let mut items = vec![0u64; 6];
            let out = try_run_mut(&mut items, threads, |i, item| {
                *item = 1;
                if i == 4 {
                    panic!("injected");
                }
                *item = 2;
            });
            assert!(out[4].is_err());
            for (i, item) in items.iter().enumerate() {
                if i == 4 {
                    assert_eq!(*item, 1, "failed item stops mid-mutation");
                } else {
                    assert_eq!(*item, 2);
                }
            }
        }
    }

    #[test]
    fn error_formats_with_index_and_message() {
        let e = ReplicaError {
            index: 3,
            message: "x".into(),
        };
        assert_eq!(e.to_string(), "replica 3 panicked: x");
    }
}
