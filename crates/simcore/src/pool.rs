//! Persistent epoch worker pool with per-slot affinity.
//!
//! [`crate::parallel::parallel_map_indexed`] spawns fresh scoped threads
//! per call — the right trade for the experiment registry, whose items run
//! for seconds each. An epoch-driven simulation is the opposite regime:
//! the sharded engine ([`crate::shard`]) dispatches hundreds of thousands
//! of windows per run, each lasting microseconds to milliseconds, and a
//! per-window `thread::scope` spawn (plus per-item `Mutex<Option<T>>`
//! slots and a fresh result collection) costs more than many windows'
//! event work.
//!
//! [`with_pool`] instead spawns its workers **once**, parks them on a
//! condvar, and hands the caller a [`Pool`] that replays the same
//! fork-join shape with two uncontended lock operations per worker per
//! round:
//!
//! - Every slot lives in its own persistent `Mutex<T>`, allocated once.
//!   Worker `w` owns the **affine** slot set `{w, w + workers, ...}` —
//!   the assignment never changes, so a slot's state stays warm in one
//!   worker's cache and no work item ever moves between threads.
//! - [`Pool::run_epoch`] publishes one job to every worker and blocks
//!   until all affine sets ran it. Slots are mutated **in place**: no
//!   `mem::take`, no result re-collection, no per-round allocation.
//! - Between rounds the coordinator has exclusive access to every slot
//!   ([`Pool::for_each_slot`], [`Pool::slot_mut`]) — the locks are
//!   uncontended by construction because workers only touch slots inside
//!   a round.
//! - Worker-side [`crate::metrics`] counts fold back into the
//!   coordinator's thread at every barrier, so an enclosing
//!   `metrics::measure` attributes the pool's work exactly as it does for
//!   `parallel_map_indexed`.
//!
//! A panic inside a job is captured, the pool shuts down, and the panic
//! resumes on the coordinator — same contract as a scoped spawn.
//!
//! Determinism: the pool never reorders anything observable. Each slot is
//! mutated by exactly one closure invocation per round, and cross-slot
//! communication is the caller's job between rounds — so output is
//! byte-identical at any worker count, exactly like the inline path.

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard};

use crate::metrics;

/// Coordinator-side barrier state.
struct Ctl {
    /// Rounds dispatched so far; workers chase this counter.
    round: u64,
    /// Workers that have not finished the current round yet.
    remaining: usize,
    /// Set once the driver returns (or a job panicked): workers exit.
    shutdown: bool,
    /// First captured worker panic, re-raised on the coordinator.
    panic: Option<Box<dyn Any + Send>>,
}

/// State shared between the coordinator and the workers.
struct Shared<J> {
    ctl: Mutex<Ctl>,
    /// The job of the current round (valid while `round` covers it).
    job: Mutex<Option<J>>,
    go: Condvar,
    done: Condvar,
    /// Simulation events recorded by workers since the last fold.
    worker_events: AtomicU64,
    /// Max queue depth noted by any worker (running max, never reset).
    worker_peak: AtomicU64,
}

/// Handle the driver closure uses to dispatch rounds and reach slots
/// between rounds.
pub struct Pool<'p, T, J> {
    shared: &'p Shared<J>,
    slots: &'p [Mutex<T>],
    workers: usize,
}

impl<T, J: Copy> Pool<'_, T, J> {
    /// Worker threads parked on the pool (after clamping to the slot
    /// count).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the pool has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Dispatches `job` to every worker and blocks until every slot ran
    /// it. Worker-side metrics fold into the calling thread before this
    /// returns.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic any job invocation produced.
    pub fn run_epoch(&mut self, job: J) {
        *self.shared.job.lock().expect("pool job slot poisoned") = Some(job);
        let mut ctl = self.shared.ctl.lock().expect("pool control poisoned");
        ctl.round += 1;
        ctl.remaining = self.workers;
        self.shared.go.notify_all();
        while ctl.remaining > 0 && ctl.panic.is_none() {
            ctl = self.shared.done.wait(ctl).expect("pool control poisoned");
        }
        if let Some(payload) = ctl.panic.take() {
            ctl.shutdown = true;
            drop(ctl);
            self.shared.go.notify_all();
            std::panic::resume_unwind(payload);
        }
        drop(ctl);
        metrics::fold_worker(
            self.shared.worker_events.swap(0, Ordering::Relaxed),
            self.shared.worker_peak.load(Ordering::Relaxed),
        );
    }

    /// Visits every slot in index order. Only callable between rounds, so
    /// every lock is uncontended.
    pub fn for_each_slot(&mut self, f: &mut dyn FnMut(usize, &mut T)) {
        for (i, slot) in self.slots.iter().enumerate() {
            f(i, &mut slot.lock().expect("pool slot poisoned"));
        }
    }

    /// Exclusive access to slot `i` between rounds.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn slot_mut(&mut self, i: usize) -> MutexGuard<'_, T> {
        self.slots[i].lock().expect("pool slot poisoned")
    }
}

/// Runs `driver` with a persistent pool of (up to) `workers` threads over
/// `slots`, then returns the slots and the driver's result.
///
/// `job(i, &mut slot, j)` runs once per slot per [`Pool::run_epoch`]
/// round; worker `w` serves the affine slot set `{w, w + workers, ...}`
/// for the pool's whole lifetime. With one (clamped) worker or one slot
/// the pool still works — it just serializes — but callers on a serial
/// path should prefer running inline and skipping the barrier entirely.
pub fn with_pool<T, J, F, D, R>(workers: usize, slots: Vec<T>, job: F, driver: D) -> (Vec<T>, R)
where
    T: Send,
    J: Copy + Send,
    F: Fn(usize, &mut T, J) + Sync,
    D: for<'p> FnOnce(&mut Pool<'p, T, J>) -> R,
{
    let workers = workers.clamp(1, slots.len().max(1));
    let slots: Vec<Mutex<T>> = slots.into_iter().map(Mutex::new).collect();
    let shared = Shared::<J> {
        ctl: Mutex::new(Ctl {
            round: 0,
            remaining: 0,
            shutdown: false,
            panic: None,
        }),
        job: Mutex::new(None),
        go: Condvar::new(),
        done: Condvar::new(),
        worker_events: AtomicU64::new(0),
        worker_peak: AtomicU64::new(0),
    };

    let out = std::thread::scope(|scope| {
        for w in 0..workers {
            let shared = &shared;
            let slots = &slots[..];
            let job = &job;
            scope.spawn(move || {
                let mut seen = 0u64;
                loop {
                    // Park until a new round is dispatched (or shutdown).
                    {
                        let mut ctl = shared.ctl.lock().expect("pool control poisoned");
                        loop {
                            if ctl.shutdown {
                                return;
                            }
                            if ctl.round > seen {
                                seen = ctl.round;
                                break;
                            }
                            ctl = shared.go.wait(ctl).expect("pool control poisoned");
                        }
                    }
                    let this_job = shared
                        .job
                        .lock()
                        .expect("pool job slot poisoned")
                        .expect("dispatched round carries a job");
                    let before = metrics::events();
                    let ran = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let mut i = w;
                        while i < slots.len() {
                            let mut slot = slots[i].lock().expect("pool slot poisoned");
                            job(i, &mut slot, this_job);
                            i += workers;
                        }
                    }));
                    shared
                        .worker_events
                        .fetch_add(metrics::events().wrapping_sub(before), Ordering::Relaxed);
                    shared
                        .worker_peak
                        .fetch_max(metrics::peak_queue_depth(), Ordering::Relaxed);
                    let mut ctl = shared.ctl.lock().expect("pool control poisoned");
                    match ran {
                        Ok(()) => {
                            ctl.remaining -= 1;
                            if ctl.remaining == 0 {
                                shared.done.notify_one();
                            }
                        }
                        Err(payload) => {
                            // First panic wins; wake the coordinator so it
                            // can re-raise, and stop serving rounds.
                            if ctl.panic.is_none() {
                                ctl.panic = Some(payload);
                            }
                            shared.done.notify_one();
                            return;
                        }
                    }
                }
            });
        }

        let mut pool = Pool {
            shared: &shared,
            slots: &slots,
            workers,
        };
        let out = driver(&mut pool);
        let mut ctl = shared.ctl.lock().expect("pool control poisoned");
        ctl.shutdown = true;
        drop(ctl);
        shared.go.notify_all();
        out
    });

    let slots = slots
        .into_iter()
        .map(|m| m.into_inner().expect("pool slot poisoned"))
        .collect();
    (slots, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_mutate_slots_in_place() {
        let slots: Vec<u64> = vec![0; 10];
        let (slots, rounds) = with_pool(
            4,
            slots,
            |i, slot, add: u64| *slot += add + i as u64,
            |pool| {
                pool.run_epoch(100);
                pool.run_epoch(1000);
                2u64
            },
        );
        assert_eq!(rounds, 2);
        for (i, s) in slots.iter().enumerate() {
            assert_eq!(*s, 1100 + 2 * i as u64);
        }
    }

    #[test]
    fn coordinator_reaches_slots_between_epochs() {
        let (slots, sum) = with_pool(
            3,
            vec![1u64, 2, 3, 4, 5],
            |_, slot, _: ()| *slot *= 2,
            |pool| {
                pool.run_epoch(());
                let mut sum = 0;
                pool.for_each_slot(&mut |_, s| sum += *s);
                *pool.slot_mut(0) += 7;
                pool.run_epoch(());
                sum
            },
        );
        assert_eq!(sum, 30);
        assert_eq!(slots, vec![18, 8, 12, 16, 20]);
    }

    #[test]
    fn worker_metrics_fold_at_every_barrier() {
        let (_, n) = metrics::measure(|| {
            with_pool(
                4,
                (0..16u64).collect::<Vec<_>>(),
                |_, slot, _: ()| metrics::add(*slot),
                |pool| pool.run_epoch(()),
            );
        });
        assert_eq!(n, (0..16u64).sum());
    }

    #[test]
    fn single_worker_and_single_slot_still_run() {
        let (slots, ()) = with_pool(
            8,
            vec![5u64],
            |_, slot, _: ()| *slot += 1,
            |pool| {
                assert_eq!(pool.workers(), 1);
                pool.run_epoch(());
                pool.run_epoch(());
            },
        );
        assert_eq!(slots, vec![7]);
    }

    #[test]
    fn affinity_is_stable_across_rounds() {
        // Each slot records which thread ran it; the set must not change
        // between rounds.
        let slots: Vec<Vec<std::thread::ThreadId>> = vec![Vec::new(); 8];
        let (slots, ()) = with_pool(
            4,
            slots,
            |_, slot: &mut Vec<std::thread::ThreadId>, _: ()| {
                slot.push(std::thread::current().id());
            },
            |pool| {
                for _ in 0..5 {
                    pool.run_epoch(());
                }
            },
        );
        for log in slots {
            assert_eq!(log.len(), 5);
            assert!(log.iter().all(|id| *id == log[0]), "slot changed workers");
        }
    }

    #[test]
    fn job_panic_resumes_on_the_coordinator() {
        let caught = std::panic::catch_unwind(|| {
            with_pool(
                2,
                vec![0u8; 4],
                |i, _, _: ()| {
                    if i == 2 {
                        panic!("boom in slot 2");
                    }
                },
                |pool| pool.run_epoch(()),
            );
        });
        let payload = caught.expect_err("panic must propagate");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .unwrap_or("non-str payload");
        assert!(msg.contains("boom"), "unexpected payload: {msg}");
    }

    #[test]
    fn empty_slot_set_is_a_noop() {
        let (slots, ()) = with_pool(
            4,
            Vec::<u64>::new(),
            |_, _, _: ()| unreachable!("no slots to run"),
            |pool| {
                assert!(pool.is_empty());
                pool.run_epoch(());
            },
        );
        assert!(slots.is_empty());
    }
}
