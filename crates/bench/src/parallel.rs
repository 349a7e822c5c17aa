//! Batch fan-out for the report binaries: independent benchmark cases —
//! each with its own CFG, solver and BDD manager — run on a scoped thread
//! pool. A single solve stays on one thread; the parallelism is across
//! whole cases, which share nothing but the run's resource limits.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Resolves a `--jobs` value to a concrete worker count: `0` means "all
/// available parallelism" (falling back to 1 when the machine will not
/// say), anything else passes through.
pub fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item on a scoped pool of `jobs` threads (resolved
/// by [`resolve_jobs`]) and returns the results **in item order**. Items
/// are claimed from a shared atomic cursor, so long items do not convoy
/// short ones; `jobs <= 1` (or a single item) degenerates to a plain
/// in-order loop on the calling thread. `f` receives `(index, item)`.
///
/// Pool threads record no telemetry: a collector is thread-local, and
/// none is installed on them.
///
/// Worker panics propagate to the caller (the scope joins all threads
/// first).
pub fn parallel_map<T, R, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = resolve_jobs(jobs).min(items.len().max(1));
    if jobs <= 1 {
        return items.into_iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..slots.len()).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..jobs {
            let (f, slots, results, next) = (&f, &slots, &results, &next);
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= slots.len() {
                    break;
                }
                let item = slots[i]
                    .lock()
                    .expect("no panic holds a slot lock")
                    .take()
                    .expect("each item claimed once");
                let r = f(i, item);
                *results[i].lock().expect("no panic holds a result lock") = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("workers joined before reading results")
                .expect("worker filled slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolve_jobs_zero_means_available_parallelism() {
        assert_eq!(resolve_jobs(1), 1);
        assert_eq!(resolve_jobs(7), 7);
        assert!(resolve_jobs(0) >= 1);
    }

    #[test]
    fn parallel_map_preserves_order_and_covers_every_item() {
        for jobs in [1, 2, 4, 9] {
            let out = parallel_map(jobs, (0..57usize).collect(), |i, x| {
                assert_eq!(i, x);
                x * 3
            });
            assert_eq!(out, (0..57usize).map(|x| x * 3).collect::<Vec<_>>());
        }
        let empty: Vec<usize> = parallel_map(4, Vec::<usize>::new(), |_, x| x);
        assert!(empty.is_empty());
    }
}
