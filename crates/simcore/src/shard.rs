//! Deterministic sharded simulation: per-shard event loops with
//! Lamport-ordered cross-shard message passing at epoch boundaries.
//!
//! A [`ShardedSim`] partitions a model into logical shards (e.g. one per
//! availability-zone group), each owning its own state, event queue, and
//! clock. Shards run **barrier-free** between epoch boundaries: within an
//! epoch window no shard can observe another, so windows execute on worker
//! threads with no locks and no communication. Cross-shard messages are
//! buffered in per-shard outboxes and exchanged only at the barrier.
//!
//! # The conservative-lookahead contract
//!
//! Every cross-shard message must fire at least one **lookahead** after it
//! is sent — the minimum cross-shard latency of the model (network
//! propagation, gossip cadence, ...). Epoch windows are at most one
//! lookahead long, so a message sent anywhere inside a window provably
//! fires at or after the window's end and can be exchanged at the barrier
//! without ever arriving in a shard's past. [`ShardCtx::send`] enforces
//! this with a panic, making a model that understates its own latency loud
//! rather than silently nondeterministic.
//!
//! # Determinism
//!
//! Messages carry Lamport-ordered keys `(fire_at, src_shard, seq)` where
//! `seq` is a per-source monotonic counter — globally unique, totally
//! ordered, and independent of which worker thread ran which shard or
//! where the barriers happened to fall. Delivery obeys one canonical rule,
//! the same one a single merged engine would apply:
//!
//! > At any instant, a shard delivers pending inbound messages in key
//! > order **before** processing local events at that instant (local
//! > events keep their FIFO order).
//!
//! Because inbound messages are held in a key-sorted staging buffer rather
//! than pushed into the local FIFO queue, the delivery order is a pure
//! function of the keys: byte-identical output at any worker count
//! ([`set_shard_workers`]) *and* at any epoch subdivision (pinned by the
//! seeded property tests in `tests/shard_props.rs`).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::engine::Scheduler;
use crate::metrics;
use crate::parallel;
use crate::pool;
use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Identifies one logical shard of a [`ShardedSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ShardId(pub u16);

impl std::fmt::Display for ShardId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard{}", self.0)
    }
}

/// Lamport-ordered key of a cross-shard message: `(fire_at, src, seq)`.
///
/// `seq` increments per source shard and never resets, so keys are
/// globally unique and the derived `Ord` is a total order — the delivery
/// order is exactly the sort order of these keys, whatever the worker
/// count or barrier placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct MsgKey {
    /// Simulated instant the message is delivered at.
    pub fire_at: SimTime,
    /// The sending shard.
    pub src: ShardId,
    /// Per-source monotonic sequence number (never reset).
    pub seq: u64,
}

/// A routed cross-shard message.
#[derive(Debug, Clone)]
pub struct Envelope<M> {
    /// Lamport delivery key.
    pub key: MsgKey,
    /// The destination shard.
    pub dst: ShardId,
    /// The payload.
    pub msg: M,
}

/// A sharded simulation model: per-shard state plus handlers for local
/// events and inbound cross-shard messages.
///
/// One value of the implementing type exists per shard; handlers receive a
/// [`ShardCtx`] to schedule local follow-ups and send cross-shard
/// messages.
pub trait ShardWorld {
    /// Shard-local event alphabet.
    type Event;
    /// Cross-shard message alphabet.
    type Msg;

    /// Handles one local event at its firing time.
    fn handle(&mut self, event: Self::Event, ctx: &mut ShardCtx<'_, '_, Self::Event, Self::Msg>);

    /// Delivers one inbound cross-shard message at its firing time.
    fn on_message(
        &mut self,
        src: ShardId,
        msg: Self::Msg,
        ctx: &mut ShardCtx<'_, '_, Self::Event, Self::Msg>,
    );
}

/// Scheduling + messaging context handed to [`ShardWorld`] handlers.
pub struct ShardCtx<'a, 'b, E, M> {
    sched: Scheduler<'b, E>,
    net: &'a mut Outbox<M>,
    shard: ShardId,
}

impl<E, M> ShardCtx<'_, '_, E, M> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now()
    }

    /// This shard's id.
    pub fn shard(&self) -> ShardId {
        self.shard
    }

    /// Schedules a local event at the absolute instant `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is in the past.
    pub fn at(&mut self, at: SimTime, event: E) {
        self.sched.at(at, event);
    }

    /// Schedules a local event `delay` after the current instant.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.sched.after(delay, event);
    }

    /// Sends a cross-shard message to `dst`, delivered at `fire_at`.
    ///
    /// Sending to the own shard is allowed (the message takes the same
    /// Lamport-ordered path as any other).
    ///
    /// # Panics
    ///
    /// Panics if `fire_at` lands before the current epoch window's end —
    /// that would violate the conservative-lookahead contract the barrier
    /// exchange depends on. Keep every cross-shard latency at or above the
    /// lookahead the [`ShardedSim`] was built with.
    pub fn send(&mut self, dst: ShardId, fire_at: SimTime, msg: M) {
        assert!(
            fire_at >= self.net.guard,
            "cross-shard message from {} fires at {fire_at}, inside the current \
             epoch window (end {}): latency is below the configured lookahead",
            self.shard,
            self.net.guard,
        );
        let key = MsgKey {
            fire_at,
            src: self.shard,
            seq: self.net.next_seq,
        };
        self.net.next_seq += 1;
        self.net.out.push(Envelope { key, dst, msg });
    }
}

/// Per-shard outbox of cross-shard messages buffered until the barrier.
struct Outbox<M> {
    /// End of the current epoch window (the send-time lower bound).
    guard: SimTime,
    /// Per-source monotonic sequence counter (never reset).
    next_seq: u64,
    out: Vec<Envelope<M>>,
}

/// One logical shard: world, local queue, key-sorted inbound staging,
/// outbox, and clock.
struct ShardCell<W: ShardWorld> {
    world: W,
    id: ShardId,
    queue: EventQueue<W::Event>,
    /// Pending inbound messages, ascending by key.
    inbound: VecDeque<Envelope<W::Msg>>,
    net: Outbox<W::Msg>,
    now: SimTime,
    steps: u64,
}

impl<W: ShardWorld> ShardCell<W> {
    /// Processes everything strictly before `end` (and, when `inclusive`,
    /// at `end`): inbound messages and local events interleaved in
    /// canonical order — at equal instants, messages in key order first,
    /// then local FIFO.
    fn run_window(&mut self, end: SimTime, inclusive: bool) {
        self.net.guard = end;
        loop {
            let next_msg = self.inbound.front().map(|e| e.key.fire_at);
            let next_evt = self.queue.peek_time();
            let (t, is_msg) = match (next_msg, next_evt) {
                (None, None) => break,
                (Some(m), None) => (m, true),
                (None, Some(e)) => (e, false),
                // Messages win ties: the canonical delivery rule.
                (Some(m), Some(e)) => {
                    if m <= e {
                        (m, true)
                    } else {
                        (e, false)
                    }
                }
            };
            if t > end || (!inclusive && t == end) {
                break;
            }
            self.now = t;
            self.steps += 1;
            if is_msg {
                let env = self.inbound.pop_front().expect("peeked message exists");
                metrics::add(1);
                let mut ctx = ShardCtx {
                    sched: Scheduler::over(t, &mut self.queue),
                    net: &mut self.net,
                    shard: self.id,
                };
                self.world.on_message(env.key.src, env.msg, &mut ctx);
            } else {
                let (_, event) = self.queue.pop().expect("peeked event exists");
                let mut ctx = ShardCtx {
                    sched: Scheduler::over(t, &mut self.queue),
                    net: &mut self.net,
                    shard: self.id,
                };
                self.world.handle(event, &mut ctx);
            }
            metrics::note_queue_depth((self.queue.len() + self.inbound.len()) as u64);
        }
    }

    /// Merges a key-ascending batch of inbound messages into the staging
    /// buffer (which is itself key-ascending), preserving the total order.
    ///
    /// Drains `batch` in place so the caller's buffer (the exchange
    /// scratch) keeps its capacity across barriers.
    fn accept(&mut self, batch: &mut Vec<Envelope<W::Msg>>) {
        if batch.is_empty() {
            return;
        }
        let batch_after_pending = match self.inbound.back() {
            Some(last) => last.key < batch[0].key,
            None => true,
        };
        if batch_after_pending {
            // Common case: everything pending fires before the new batch.
            self.inbound.extend(batch.drain(..));
            return;
        }
        let mut merged: VecDeque<Envelope<W::Msg>> =
            VecDeque::with_capacity(self.inbound.len() + batch.len());
        let mut new = batch.drain(..).peekable();
        for old in self.inbound.drain(..) {
            while new.peek().is_some_and(|n| n.key < old.key) {
                merged.push_back(new.next().expect("peeked message exists"));
            }
            merged.push_back(old);
        }
        merged.extend(new);
        self.inbound = merged;
    }

    /// The earliest instant anything is due on this shard (staged inbound
    /// message or local event), if any.
    fn next_due(&self) -> Option<SimTime> {
        let msg = self.inbound.front().map(|e| e.key.fire_at);
        let evt = self.queue.peek_time();
        match (msg, evt) {
            (Some(m), Some(e)) => Some(m.min(e)),
            (m, e) => m.or(e),
        }
    }
}

/// Process-wide worker cap for epoch windows; 0 means "follow
/// [`parallel::configured_threads`]".
static SHARD_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker-thread count sharded simulations use for epoch windows
/// (the experiments CLI's `--shards N`; `0` follows `--threads`).
///
/// Purely a performance knob: shard output is byte-identical at every
/// setting.
pub fn set_shard_workers(n: usize) {
    SHARD_WORKERS.store(n, Ordering::SeqCst);
}

/// The configured shard worker count ([`set_shard_workers`], falling back
/// to [`parallel::configured_threads`]).
pub fn shard_workers() -> usize {
    match SHARD_WORKERS.load(Ordering::SeqCst) {
        0 => parallel::configured_threads(),
        n => n,
    }
}

/// A sharded discrete-event simulation over a set of [`ShardWorld`]s.
///
/// # Examples
///
/// ```
/// use spotcheck_simcore::shard::{ShardCtx, ShardId, ShardWorld, ShardedSim};
/// use spotcheck_simcore::time::{SimDuration, SimTime};
///
/// /// Each shard forwards a counter to the next shard once per tick.
/// struct Ring {
///     received: Vec<u64>,
/// }
///
/// impl ShardWorld for Ring {
///     type Event = ();
///     type Msg = u64;
///     fn handle(&mut self, _e: (), ctx: &mut ShardCtx<'_, '_, (), u64>) {
///         let next = ShardId((ctx.shard().0 + 1) % 3);
///         ctx.send(next, ctx.now() + SimDuration::from_secs(60), ctx.shard().0 as u64);
///     }
///     fn on_message(&mut self, _src: ShardId, msg: u64, _ctx: &mut ShardCtx<'_, '_, (), u64>) {
///         self.received.push(msg);
///     }
/// }
///
/// let worlds = (0..3).map(|_| Ring { received: Vec::new() }).collect();
/// let mut sim = ShardedSim::new(worlds, SimDuration::from_secs(60));
/// for s in 0..3 {
///     sim.schedule_at(s, SimTime::ZERO, ());
/// }
/// sim.run_until(SimTime::from_secs(120));
/// assert_eq!(sim.world(1).received, vec![0]);
/// ```
pub struct ShardedSim<W: ShardWorld> {
    cells: Vec<ShardCell<W>>,
    state: LoopState<W::Msg>,
}

/// Everything the epoch loop needs besides the cells themselves. Split
/// out so the loop can run while the cells are owned by a worker pool:
/// the coordinator borrows `LoopState` mutably and reaches cells only
/// through the active [`WindowRunner`].
struct LoopState<M> {
    shards: usize,
    lookahead: SimDuration,
    epoch: SimDuration,
    now: SimTime,
    /// Epoch windows actually executed.
    epochs: u64,
    /// Empty epoch windows fast-forwarded over instead of executed.
    epochs_skipped: u64,
    delivered: u64,
    scratch: ExchangeScratch<M>,
}

/// Persistent exchange buffers, reused across every barrier of the
/// simulation's lifetime (satisfying the no-per-barrier-allocation goal).
struct ExchangeScratch<M> {
    /// Gather/sort staging for all outboxes (drained every barrier).
    all: Vec<Envelope<M>>,
    /// Per-destination routing buffers (drained into cells every barrier).
    per_dst: Vec<Vec<Envelope<M>>>,
}

/// How the epoch loop reaches its shard cells: inline (one worker) or the
/// persistent worker pool (more than one). The loop itself is written once
/// against this trait.
trait WindowRunner<W: ShardWorld> {
    /// Runs the window `[.., end)` (or `[.., end]` when `inclusive`) on
    /// every cell.
    fn run_windows(&mut self, end: SimTime, inclusive: bool);
    /// Visits every cell in shard-id order (coordinator-only phases:
    /// exchange, due-time scan).
    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut ShardCell<W>));
}

/// Serial execution on the coordinator thread.
struct InlineRunner<'a, W: ShardWorld> {
    cells: &'a mut Vec<ShardCell<W>>,
}

impl<W: ShardWorld> WindowRunner<W> for InlineRunner<'_, W> {
    fn run_windows(&mut self, end: SimTime, inclusive: bool) {
        for cell in self.cells.iter_mut() {
            cell.run_window(end, inclusive);
        }
    }

    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut ShardCell<W>)) {
        for cell in self.cells.iter_mut() {
            f(cell);
        }
    }
}

/// Persistent-pool path: cells live in the pool's slots for the whole
/// `run_until`; windows are one barrier round each, coordinator phases
/// lock the (uncontended) slots in place.
struct PoolRunner<'a, 'p, W: ShardWorld> {
    pool: &'a mut pool::Pool<'p, ShardCell<W>, (SimTime, bool)>,
}

impl<W: ShardWorld> WindowRunner<W> for PoolRunner<'_, '_, W> {
    fn run_windows(&mut self, end: SimTime, inclusive: bool) {
        self.pool.run_epoch((end, inclusive));
    }

    fn for_each_cell(&mut self, f: &mut dyn FnMut(&mut ShardCell<W>)) {
        self.pool.for_each_slot(&mut |_, cell| f(cell));
    }
}

impl<M> LoopState<M> {
    /// Collects every outbox, sorts by Lamport key, and stages messages
    /// into their destination shards' inbound buffers. All staging goes
    /// through the persistent [`ExchangeScratch`]; steady state allocates
    /// nothing.
    fn exchange<W: ShardWorld<Msg = M>>(&mut self, runner: &mut dyn WindowRunner<W>) {
        let scratch = &mut self.scratch;
        runner.for_each_cell(&mut |cell| scratch.all.append(&mut cell.net.out));
        if scratch.all.is_empty() {
            return;
        }
        // Keys are globally unique, so unstable sort is deterministic.
        scratch.all.sort_unstable_by_key(|e| e.key);
        self.delivered += scratch.all.len() as u64;
        let shards = self.shards;
        for env in scratch.all.drain(..) {
            let dst = env.dst.0 as usize;
            assert!(
                dst < shards,
                "cross-shard message addressed to unknown {}",
                env.dst
            );
            scratch.per_dst[dst].push(env);
        }
        let mut i = 0;
        runner.for_each_cell(&mut |cell| {
            cell.accept(&mut scratch.per_dst[i]);
            i += 1;
        });
    }

    /// The earliest due instant across every shard (after an exchange, so
    /// outboxes are empty and staged inbound messages are visible).
    fn earliest_due<W: ShardWorld<Msg = M>>(
        &mut self,
        runner: &mut dyn WindowRunner<W>,
    ) -> Option<SimTime> {
        let mut due: Option<SimTime> = None;
        runner.for_each_cell(&mut |cell| {
            if let Some(t) = cell.next_due() {
                due = Some(due.map_or(t, |d| d.min(t)));
            }
        });
        due
    }

    /// The shared epoch loop: exchange, fast-forward over empty windows,
    /// run one window, repeat; then resolve the horizon instant to
    /// quiescence. Identical across both [`WindowRunner`]s by construction.
    fn run_loop<W: ShardWorld<Msg = M>>(
        &mut self,
        runner: &mut dyn WindowRunner<W>,
        horizon: SimTime,
    ) {
        while self.now < horizon {
            self.exchange(runner);
            let mut end = (self.now + self.epoch).min(horizon);
            match self.earliest_due(runner) {
                // Window already non-empty: run it as usual.
                Some(t) if t < end => {}
                // Something is due before the horizon but past this
                // window: jump to the epoch-grid point at or below it.
                // The landing window provably contains `t`, so the
                // executed sequence is the full grid's minus its empty
                // windows (epoch-subdivision invariance gives
                // byte-identity).
                Some(t) if t < horizon => {
                    let k = (t - self.now).as_micros() / self.epoch.as_micros();
                    debug_assert!(k >= 1, "non-empty window misdetected as idle");
                    self.now += self.epoch * k;
                    self.epochs_skipped += k;
                    end = (self.now + self.epoch).min(horizon);
                }
                // Nothing due before the horizon: skip straight to it.
                // The quiescence pass below handles the horizon
                // instant itself (inclusive), exactly as running the
                // remaining empty windows one by one would.
                _ => {
                    let rem = (horizon - self.now).as_micros();
                    self.epochs_skipped += rem.div_ceil(self.epoch.as_micros());
                    self.now = horizon;
                    break;
                }
            }
            runner.run_windows(end, false);
            self.now = end;
            self.epochs += 1;
        }
        // Resolve the horizon instant: messages staged for exactly
        // `horizon` deliver before local events at `horizon`. Handlers at
        // the horizon may schedule same-instant local follow-ups, and a
        // lookahead-violating model could even send a same-instant
        // message, so loop until the instant is quiescent — exactly what a
        // flat single-queue engine would do.
        loop {
            self.exchange(runner);
            let due = self
                .earliest_due(runner)
                .is_some_and(|t| t <= horizon);
            if !due {
                break;
            }
            runner.run_windows(horizon, true);
        }
    }
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Builds a sharded simulation at time zero, one shard per world, with
    /// epoch windows equal to `lookahead` (the minimum cross-shard
    /// latency).
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty, exceeds `u16::MAX` shards, or
    /// `lookahead` is zero.
    pub fn new(worlds: Vec<W>, lookahead: SimDuration) -> Self {
        Self::with_epoch(worlds, lookahead, lookahead)
    }

    /// Like [`ShardedSim::new`] with explicit barrier spacing `epoch`
    /// (clamped contract: `0 < epoch <= lookahead`). Shorter epochs place
    /// more barriers without changing any output — the property tests use
    /// this to pin barrier-placement invariance.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty or the epoch/lookahead contract is
    /// violated.
    pub fn with_epoch(worlds: Vec<W>, lookahead: SimDuration, epoch: SimDuration) -> Self {
        assert!(!worlds.is_empty(), "a sharded simulation needs >= 1 shard");
        assert!(
            worlds.len() <= u16::MAX as usize,
            "shard ids are u16: at most {} shards",
            u16::MAX
        );
        assert!(
            epoch > SimDuration::ZERO && epoch <= lookahead,
            "epoch must satisfy 0 < epoch ({epoch}) <= lookahead ({lookahead})"
        );
        let cells: Vec<ShardCell<W>> = worlds
            .into_iter()
            .enumerate()
            .map(|(i, world)| ShardCell {
                world,
                id: ShardId(i as u16),
                queue: EventQueue::new(),
                inbound: VecDeque::new(),
                net: Outbox {
                    guard: SimTime::ZERO,
                    next_seq: 0,
                    out: Vec::new(),
                },
                now: SimTime::ZERO,
                steps: 0,
            })
            .collect();
        let shards = cells.len();
        let mut per_dst = Vec::new();
        per_dst.resize_with(shards, Vec::new);
        ShardedSim {
            cells,
            state: LoopState {
                shards,
                lookahead,
                epoch,
                now: SimTime::ZERO,
                epochs: 0,
                epochs_skipped: 0,
                delivered: 0,
                scratch: ExchangeScratch {
                    all: Vec::new(),
                    per_dst,
                },
            },
        }
    }

    /// Number of logical shards.
    pub fn shard_count(&self) -> usize {
        self.cells.len()
    }

    /// The last completed epoch boundary.
    pub fn now(&self) -> SimTime {
        self.state.now
    }

    /// The configured lookahead (minimum cross-shard latency).
    pub fn lookahead(&self) -> SimDuration {
        self.state.lookahead
    }

    /// Epoch windows actually executed so far.
    pub fn epochs(&self) -> u64 {
        self.state.epochs
    }

    /// Empty epoch windows fast-forwarded over. [`Self::epochs`] plus this
    /// equals the grid total ([`Self::epoch_windows`]).
    pub fn epochs_fast_forwarded(&self) -> u64 {
        self.state.epochs_skipped
    }

    /// Total epoch-grid windows covered so far (executed +
    /// fast-forwarded).
    pub fn epoch_windows(&self) -> u64 {
        self.state.epochs + self.state.epochs_skipped
    }

    /// Worker threads the next `run_until` will use for epoch windows
    /// (the configured [`shard_workers`] clamped to the shard count).
    pub fn window_workers(&self) -> usize {
        shard_workers().clamp(1, self.cells.len())
    }

    /// Cross-shard messages delivered so far.
    pub fn messages_delivered(&self) -> u64 {
        self.state.delivered
    }

    /// Cross-shard messages sent but not yet delivered (buffered in
    /// outboxes or staged beyond the simulated horizon).
    pub fn messages_pending(&self) -> u64 {
        self.cells
            .iter()
            .map(|c| (c.net.out.len() + c.inbound.len()) as u64)
            .sum()
    }

    /// Total events + messages processed across every shard.
    pub fn total_steps(&self) -> u64 {
        self.cells.iter().map(|c| c.steps).sum()
    }

    /// Shared access to shard `i`'s world.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn world(&self, i: usize) -> &W {
        &self.cells[i].world
    }

    /// Exclusive access to shard `i`'s world.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn world_mut(&mut self, i: usize) -> &mut W {
        &mut self.cells[i].world
    }

    /// Iterates every shard's world in shard-id order.
    pub fn worlds(&self) -> impl Iterator<Item = &W> {
        self.cells.iter().map(|c| &c.world)
    }

    /// Schedules an initial local event on shard `shard`.
    ///
    /// # Panics
    ///
    /// Panics if `shard` is out of range or `at` is before the last
    /// completed epoch boundary.
    pub fn schedule_at(&mut self, shard: usize, at: SimTime, event: W::Event) {
        assert!(
            at >= self.state.now,
            "cannot schedule event in the past: at={at}, boundary={}",
            self.state.now
        );
        self.cells[shard].queue.push(at, event);
    }

    /// Runs every shard up to (and including) `horizon`.
    ///
    /// Epoch loop: exchange pending messages, run each shard's
    /// end-exclusive window barrier-free, repeat. Windows exclude their
    /// end so a message firing exactly at a boundary is always delivered
    /// at the *start* of the next window — before local events at that
    /// instant — keeping delivery order independent of where the barriers
    /// fall. The instant `horizon` itself is resolved in a final pass
    /// (exchange, then one inclusive zero-length window) so events and
    /// messages firing exactly at `horizon` are processed; messages sent
    /// at the horizon necessarily fire after it (conservative lookahead)
    /// and stay buffered for a later `run_until` call.
    ///
    /// Execution mode is picked here per call from the worker count:
    /// inline on the coordinator for one worker, otherwise the persistent
    /// worker pool ([`crate::pool`]). Empty windows are fast-forwarded
    /// over. Output is byte-identical at every worker count.
    pub fn run_until(&mut self, horizon: SimTime)
    where
        W: Send,
        W::Event: Send,
        W::Msg: Send,
    {
        let workers = shard_workers().clamp(1, self.cells.len());
        if workers <= 1 {
            self.state
                .run_loop(&mut InlineRunner { cells: &mut self.cells }, horizon);
        } else {
            let cells = std::mem::take(&mut self.cells);
            let state = &mut self.state;
            let (cells, ()) = pool::with_pool(
                workers,
                cells,
                |_, cell, (end, inclusive): (SimTime, bool)| cell.run_window(end, inclusive),
                |p| state.run_loop(&mut PoolRunner { pool: p }, horizon),
            );
            self.cells = cells;
        }
        debug_assert!(
            self.cells
                .iter()
                .all(|c| c.inbound.front().map_or(true, |e| e.key.fire_at > self.state.now)),
            "a cross-shard message was staged into the past"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test world: logs every delivery, periodically pings a partner.
    struct Pinger {
        partner: ShardId,
        period: SimDuration,
        latency: SimDuration,
        log: Vec<(SimTime, ShardId, u64)>,
        sent: u64,
    }

    impl ShardWorld for Pinger {
        type Event = ();
        type Msg = u64;

        fn handle(&mut self, _e: (), ctx: &mut ShardCtx<'_, '_, (), u64>) {
            ctx.send(self.partner, ctx.now() + self.latency, self.sent);
            self.sent += 1;
            ctx.after(self.period, ());
        }

        fn on_message(&mut self, src: ShardId, msg: u64, ctx: &mut ShardCtx<'_, '_, (), u64>) {
            self.log.push((ctx.now(), src, msg));
        }
    }

    fn ping_ring(n: u16, latency: SimDuration) -> Vec<Pinger> {
        (0..n)
            .map(|i| Pinger {
                partner: ShardId((i + 1) % n),
                period: SimDuration::from_secs(30),
                latency,
                log: Vec::new(),
                sent: 0,
            })
            .collect()
    }

    #[test]
    fn messages_cross_shards_and_arrive_on_time() {
        let lookahead = SimDuration::from_secs(60);
        let mut sim = ShardedSim::new(ping_ring(3, lookahead), lookahead);
        for s in 0..3 {
            sim.schedule_at(s, SimTime::ZERO, ());
        }
        sim.run_until(SimTime::from_secs(300));
        // Shard 1 hears shard 0's ping from t=0 at t=60, t=30 at 90, ...
        let log = &sim.world(1).log;
        assert!(!log.is_empty());
        assert_eq!(log[0], (SimTime::from_secs(60), ShardId(0), 0));
        assert_eq!(log[1], (SimTime::from_secs(90), ShardId(0), 1));
        assert!(sim.messages_delivered() > 0);
    }

    #[test]
    fn identical_logs_at_any_worker_count_and_epoch_split() {
        let lookahead = SimDuration::from_secs(60);
        let run = |workers: usize, epoch: SimDuration| {
            set_shard_workers(workers);
            let mut sim = ShardedSim::with_epoch(ping_ring(4, lookahead), lookahead, epoch);
            for s in 0..4 {
                sim.schedule_at(s, SimTime::ZERO, ());
            }
            sim.run_until(SimTime::from_secs(600));
            set_shard_workers(0);
            let logs: Vec<_> = sim.worlds().map(|w| w.log.clone()).collect();
            logs
        };
        let baseline = run(1, lookahead);
        for workers in [2, 4, 8] {
            assert_eq!(run(workers, lookahead), baseline, "diverged at {workers} workers");
        }
        for epoch in [SimDuration::from_secs(30), SimDuration::from_secs(20)] {
            assert_eq!(run(4, epoch), baseline, "diverged at epoch {epoch}");
        }
    }

    #[test]
    fn messages_deliver_before_local_events_at_the_same_instant() {
        /// Shard 1 schedules a local marker at t=60; shard 0 sends a
        /// message that also fires at t=60. The message must win the tie.
        struct TieWorld {
            order: Vec<&'static str>,
        }
        impl ShardWorld for TieWorld {
            type Event = &'static str;
            type Msg = ();
            fn handle(&mut self, e: &'static str, ctx: &mut ShardCtx<'_, '_, &'static str, ()>) {
                if e == "send" {
                    ctx.send(ShardId(1), SimTime::from_secs(60), ());
                } else {
                    self.order.push(e);
                }
            }
            fn on_message(&mut self, _s: ShardId, _m: (), _c: &mut ShardCtx<'_, '_, &'static str, ()>) {
                self.order.push("msg");
            }
        }
        let worlds = vec![TieWorld { order: vec![] }, TieWorld { order: vec![] }];
        let mut sim = ShardedSim::new(worlds, SimDuration::from_secs(60));
        sim.schedule_at(0, SimTime::ZERO, "send");
        sim.schedule_at(1, SimTime::from_secs(60), "local");
        sim.run_until(SimTime::from_secs(60));
        assert_eq!(sim.world(1).order, vec!["msg", "local"]);
    }

    #[test]
    #[should_panic(expected = "below the configured lookahead")]
    fn undershooting_the_lookahead_panics() {
        let lookahead = SimDuration::from_secs(60);
        let mut worlds = ping_ring(2, SimDuration::from_secs(10));
        worlds[0].latency = SimDuration::from_secs(10); // below lookahead
        let mut sim = ShardedSim::new(worlds, lookahead);
        sim.schedule_at(0, SimTime::ZERO, ());
        sim.run_until(SimTime::from_secs(120));
    }

    #[test]
    fn final_window_is_inclusive_and_leftovers_stay_pending() {
        let lookahead = SimDuration::from_secs(60);
        let mut sim = ShardedSim::new(ping_ring(2, lookahead), lookahead);
        sim.schedule_at(0, SimTime::ZERO, ());
        // Horizon exactly on a tick: the t=120 local tick must run.
        sim.run_until(SimTime::from_secs(120));
        assert_eq!(sim.world(0).sent, 5); // ticks at 0,30,60,90,120
        // The last sends fire past the horizon: pending, not lost.
        assert!(sim.messages_pending() > 0);
        let before = sim.world(1).log.len();
        sim.run_until(SimTime::from_secs(200));
        assert!(sim.world(1).log.len() > before);
    }

    #[test]
    fn steps_count_events_and_messages() {
        let lookahead = SimDuration::from_secs(60);
        let mut sim = ShardedSim::new(ping_ring(2, lookahead), lookahead);
        sim.schedule_at(0, SimTime::ZERO, ());
        sim.run_until(SimTime::from_secs(60));
        // Shard 0 ticked at 0,30,60; shard 1 heard the t=0 ping at 60.
        assert_eq!(sim.total_steps(), 4);
        assert_eq!(sim.epochs(), 1);
    }

    #[test]
    fn fast_forward_skips_empty_windows_but_keeps_the_grid_total() {
        // One event every hour, 60 s epochs: 59 of every 60 windows are
        // empty. Executed plus skipped windows must cover the whole grid,
        // and the logs must match a run on a finer epoch grid.
        let lookahead = SimDuration::from_secs(60);
        let run = |epoch: SimDuration| {
            let mut worlds = ping_ring(2, lookahead);
            for w in &mut worlds {
                w.period = SimDuration::from_secs(3600);
            }
            let mut sim = ShardedSim::with_epoch(worlds, lookahead, epoch);
            sim.schedule_at(0, SimTime::ZERO, ());
            sim.run_until(SimTime::from_secs(6 * 3600));
            let logs: Vec<_> = sim.worlds().map(|w| w.log.clone()).collect();
            (logs, sim.epochs(), sim.epochs_fast_forwarded(), sim.total_steps())
        };
        let (logs, epochs, skipped, steps) = run(lookahead);
        let (logs_fine, _, _, steps_fine) = run(SimDuration::from_secs(20));
        assert_eq!(logs, logs_fine);
        assert_eq!(steps, steps_fine);
        assert_eq!(
            epochs + skipped,
            6 * 60,
            "grid total must cover the horizon"
        );
        assert!(skipped > 5 * epochs, "most windows should fast-forward");
    }

    #[test]
    fn fast_forward_with_nothing_due_jumps_to_the_horizon() {
        let lookahead = SimDuration::from_secs(60);
        let mut sim = ShardedSim::new(ping_ring(2, lookahead), lookahead);
        // No initial events at all: every window is empty.
        sim.run_until(SimTime::from_secs(3600 + 30)); // non-dividing horizon
        assert_eq!(sim.epochs(), 0);
        assert_eq!(sim.epochs_fast_forwarded(), 61); // ceil(3630/60)
        assert_eq!(sim.now(), SimTime::from_secs(3630));
    }

    /// The pool path (more than one worker) matches the inline path, with
    /// fast-forward (now unconditional) skipping the empty windows. The
    /// name predates the removal of the spawn runner and of the switch
    /// that turned fast-forward off.
    #[test]
    fn pool_and_spawn_paths_match_inline_with_and_without_fast_forward() {
        let lookahead = SimDuration::from_secs(60);
        let run = |workers: usize| {
            set_shard_workers(workers);
            let mut worlds = ping_ring(4, lookahead);
            for (i, w) in worlds.iter_mut().enumerate() {
                // Mixed cadence so some windows are empty, some not.
                w.period = SimDuration::from_secs(if i % 2 == 0 { 30 } else { 900 });
            }
            let mut sim = ShardedSim::with_epoch(worlds, lookahead, SimDuration::from_secs(20));
            for s in 0..4 {
                sim.schedule_at(s, SimTime::ZERO, ());
            }
            sim.run_until(SimTime::from_secs(3600));
            set_shard_workers(0);
            let logs: Vec<_> = sim.worlds().map(|w| w.log.clone()).collect();
            (logs, sim.total_steps(), sim.messages_delivered(), sim.epoch_windows())
        };
        let baseline = run(1);
        for workers in [2, 4] {
            assert_eq!(run(workers), baseline, "diverged at workers={workers}");
        }
    }

    #[test]
    #[should_panic(expected = "needs >= 1 shard")]
    fn empty_shard_set_panics() {
        let _ = ShardedSim::<Pinger>::new(Vec::new(), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "epoch must satisfy")]
    fn oversized_epoch_panics() {
        let _ = ShardedSim::with_epoch(
            ping_ring(2, SimDuration::from_secs(60)),
            SimDuration::from_secs(60),
            SimDuration::from_secs(120),
        );
    }
}
