//! Deterministic fork-join parallelism on std threads.
//!
//! The build environment carries no external crates, so this module is the
//! reproduction's stand-in for `rayon`: an ordered parallel map over owned
//! items with work stealing via an atomic cursor. The determinism contract
//! the experiment harness relies on:
//!
//! - **Ordered collection** — results come back in input order no matter
//!   which worker ran which item or in what sequence they finished.
//! - **No shared RNG** — `f` receives the item index, so callers derive any
//!   randomness from `(seed, index)` rather than from execution order.
//! - **Event accounting** — [`crate::metrics`] counts recorded by workers
//!   are folded back into the calling thread when the scope joins, so a
//!   `metrics::measure` around a parallel region sees all of its work.
//!
//! With `threads <= 1` (or a single item) everything runs inline on the
//! caller's thread; output is byte-identical either way.
//!
//! # Why scoped spawns, not the persistent pool?
//!
//! [`crate::pool`] exists precisely because per-call spawning is too
//! expensive for the sharded engine's microsecond-scale epoch windows.
//! This module deliberately keeps scoped spawns anyway: its callers (the
//! experiment registry, the policy grid, the trace fleet) fan out items
//! that each run for milliseconds to minutes, so one spawn per worker per
//! call is noise — and scoped spawns borrow the caller's stack directly,
//! needing no `'static` bounds, no job channel, and no process-wide pool
//! lifecycle to share between nested fan-outs. The two regimes get the
//! two mechanisms they are each best at.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::metrics;

/// Returns the machine's available parallelism (at least 1).
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Process-wide worker cap; 0 means "auto" ([`default_threads`]).
static MAX_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide worker count used by [`configured_threads`]
/// (the experiments CLI's `--threads N`; `0` restores auto-detection).
///
/// This only resizes worker pools — parallel output is identical at every
/// setting, so it is a performance knob, never a correctness one.
///
/// # Long-running hosts
///
/// The cap is freely rebindable and is read at each `parallel_map` call,
/// not latched into any long-lived structure, so a daemon hosting several
/// engine lifetimes can adjust it between (but not during) fan-outs
/// without corrupting state.
pub fn set_max_threads(n: usize) {
    MAX_THREADS.store(n, Ordering::SeqCst);
}

/// Returns the configured process-wide worker count: the value set via
/// [`set_max_threads`], or [`default_threads`] when unset.
pub fn configured_threads() -> usize {
    match MAX_THREADS.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// Maps `f(index, item)` over `items` on the process-wide configured
/// worker count ([`configured_threads`]), returning results in input
/// order.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    parallel_map_indexed(configured_threads(), items, f)
}

/// Maps `f(index, item)` over `items` on up to `threads` workers and
/// returns the results in input order.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn parallel_map_indexed<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    let workers = threads.max(1).min(n);
    if workers <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    // One shared work queue instead of a Mutex<Option<T>> per item: a
    // worker takes the lock only long enough to pull the next (index,
    // item) pair, runs `f` unlocked, and keeps its results in a private
    // Vec returned through the join handle.
    let queue: Mutex<std::iter::Enumerate<std::vec::IntoIter<T>>> =
        Mutex::new(items.into_iter().enumerate());
    let mut merged: Vec<(usize, R)> = Vec::with_capacity(n);

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut out: Vec<(usize, R)> = Vec::new();
                    loop {
                        let next = queue.lock().expect("work queue poisoned").next();
                        let Some((i, item)) = next else { break };
                        out.push((i, f(i, item)));
                    }
                    (out, metrics::events(), metrics::peak_queue_depth())
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok((out, events, peak)) => {
                    merged.extend(out);
                    // Fold worker-side simulation-event counts (and the
                    // max observed queue depth) into the caller's counters
                    // so an enclosing metrics::measure still attributes
                    // this region's work.
                    metrics::fold_worker(events, peak);
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });

    assert_eq!(merged.len(), n, "every index produces exactly one result");
    // Ordered collection: indexes are unique, so the unstable sort is
    // deterministic and restores input order exactly.
    merged.sort_unstable_by_key(|&(i, _)| i);
    merged.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        for threads in [1, 2, 4, 8] {
            let out = parallel_map_indexed(threads, (0..100).collect(), |i, x: u64| {
                // Uneven work so completion order scrambles under contention.
                let spin = (x * 7919) % 257;
                let mut acc = 0u64;
                for k in 0..spin {
                    acc = acc.wrapping_add(k);
                }
                (i as u64, x * 2, acc)
            });
            for (i, (idx, doubled, _)) in out.iter().enumerate() {
                assert_eq!(*idx, i as u64);
                assert_eq!(*doubled, 2 * i as u64);
            }
        }
    }

    #[test]
    fn identical_output_at_any_thread_count() {
        let run = |threads| {
            parallel_map_indexed(threads, (0..50u64).collect(), |i, x| {
                let mut rng = crate::rng::SimRng::seed(42).fork(i as u64);
                (x, rng.next_u64())
            })
        };
        let serial = run(1);
        for threads in [2, 3, 8] {
            assert_eq!(run(threads), serial);
        }
    }

    #[test]
    fn folds_worker_event_counts_into_caller() {
        let (_, n) = metrics::measure(|| {
            parallel_map_indexed(4, (0..10u64).collect(), |_, x| {
                metrics::add(x);
            });
        });
        assert_eq!(n, (0..10u64).sum());
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u64> = parallel_map_indexed(4, Vec::<u64>::new(), |_, x| x);
        assert!(empty.is_empty());
        let one = parallel_map_indexed(4, vec![9u64], |i, x| x + i as u64);
        assert_eq!(one, vec![9]);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
