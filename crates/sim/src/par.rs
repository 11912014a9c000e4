//! Deterministic parallel map for independent simulation jobs.
//!
//! Two layers fan out over independent work: the bench crate's sweeps (one
//! simulation per `(config, tpus)` point, seed, or trace config) and the
//! sharded replay's per-epoch shard stepping. [`par_map`] runs jobs on a
//! scoped thread pool and returns results **in input order**, so rendered
//! tables are byte-identical whatever the worker count — the property the
//! `parallel_determinism` integration test pins down. Workers pull jobs from
//! a shared atomic cursor (no channels, no external crates), and a panicking
//! job propagates out of the calling thread via [`std::thread::scope`].
//!
//! The worker count defaults to the host's available parallelism and can be
//! overridden with the `MICROEDGE_WORKERS` environment variable (useful for
//! pinning benchmarks or forcing a serial run).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Environment variable overriding the worker count used by [`par_map`].
pub const WORKERS_ENV: &str = "MICROEDGE_WORKERS";

/// Resolves the worker count for `jobs` independent jobs: the
/// `MICROEDGE_WORKERS` override if set (clamped to at least 1), otherwise
/// the host's available parallelism, never more than `jobs`.
#[must_use]
#[expect(
    clippy::disallowed_methods,
    reason = "MICROEDGE_WORKERS only picks the worker count; outputs are worker-invariant"
)]
pub fn worker_count(jobs: usize) -> usize {
    let configured = std::env::var(WORKERS_ENV)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .map(|w| w.max(1));
    let workers = configured.unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    });
    workers.min(jobs.max(1))
}

/// Maps `f` over `items` in parallel, returning results in input order.
///
/// `f` receives the item's index alongside the item, so callers can derive
/// per-job seeds or labels without threading them through the item type.
/// Panics in `f` propagate to the caller (the first panicking worker aborts
/// the scope). With one worker — or one item — the map runs inline on the
/// calling thread with no synchronisation at all.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let workers = worker_count(items.len());
    par_map_with_workers(items, workers, f)
}

/// [`par_map`] with an explicit worker count (primarily for tests that pin
/// the serial path).
pub fn par_map_with_workers<T, R, F>(items: Vec<T>, workers: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let jobs = items.len();
    if workers <= 1 || jobs <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }

    // Indexed slots: job i's input is taken from `inputs[i]` exactly once
    // and its output lands in `outputs[i]`, so completion order never
    // affects result order.
    let inputs: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let outputs: Vec<Mutex<Option<R>>> = (0..jobs).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    let f = &f;

    std::thread::scope(|scope| {
        for _ in 0..workers.min(jobs) {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= jobs {
                    break;
                }
                let item = inputs[i]
                    .lock()
                    .expect("input slot poisoned")
                    .take()
                    .expect("each job is claimed exactly once");
                let result = f(i, item);
                *outputs[i].lock().expect("output slot poisoned") = Some(result);
            });
        }
    });

    outputs
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("output slot poisoned")
                .expect("scope join guarantees every job ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for workers in [1, 2, 7] {
            let out = par_map_with_workers((0..100).collect(), workers, |i, x: i32| {
                assert_eq!(i as i32, x);
                x * 2
            });
            assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_and_single() {
        let empty: Vec<i32> = par_map(Vec::<i32>::new(), |_, x| x);
        assert!(empty.is_empty());
        assert_eq!(par_map(vec![41], |_, x: i32| x + 1), vec![42]);
    }

    #[test]
    fn results_identical_across_worker_counts() {
        let work = |i: usize, seed: u64| -> u64 {
            // Cheap deterministic mixing, distinct per index.
            let mut h = seed
                .wrapping_add(i as u64)
                .wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 31;
            h
        };
        let items: Vec<u64> = (0..64).map(|i| i * 3).collect();
        let serial = par_map_with_workers(items.clone(), 1, work);
        for workers in [2, 3, 8] {
            assert_eq!(par_map_with_workers(items.clone(), workers, work), serial);
        }
    }

    #[test]
    #[should_panic(expected = "job 13 exploded")]
    fn panics_propagate_inline() {
        // One worker runs inline, so the original payload survives.
        let _ = par_map_with_workers((0..32).collect(), 1, |i, _x: i32| {
            if i == 13 {
                panic!("job 13 exploded");
            }
            i
        });
    }

    #[test]
    #[should_panic]
    fn panics_propagate_across_threads() {
        // std::thread::scope replaces the payload with its own message, so
        // only the fact of panicking is asserted here.
        let _ = par_map_with_workers((0..32).collect(), 4, |i, _x: i32| {
            if i == 13 {
                panic!("job 13 exploded");
            }
            i
        });
    }

    #[test]
    fn worker_count_respects_bounds() {
        // Never more workers than jobs, never zero.
        assert_eq!(worker_count(0), 1.min(worker_count(0)));
        assert!(worker_count(1) == 1);
        assert!(worker_count(1_000) >= 1);
    }
}
