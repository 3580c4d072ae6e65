//! Seeded property test for the sharded engine's Lamport merge: random
//! cross-shard event cascades must deliver in exactly the order a flat
//! single-queue reference engine produces — at any worker count and any
//! epoch subdivision of the lookahead.
//!
//! The shared model is a set of chattering agents: every delivery logs a
//! line and (driven by the agent's own forked RNG) may schedule local
//! follow-ups and/or send messages to random shards at or beyond the
//! cross-shard latency. The agent logic is identical in both engines, so
//! the per-shard logs agree if and only if every delivery happened at the
//! same instant and in the same order.

use std::collections::BTreeMap;

use spotcheck_simcore::queue::EventQueue;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::shard::{set_shard_workers, ShardCtx, ShardId, ShardWorld, ShardedSim};
use spotcheck_simcore::time::{SimDuration, SimTime};

const LOOKAHEAD: SimDuration = SimDuration::from_secs(600);
const HORIZON: SimTime = SimTime::from_secs(3 * 86_400);

/// What an agent wants done after a delivery.
enum Action {
    Local(SimDuration, u64),
    Send(u16, SimDuration, u64),
}

/// One shard's model logic, shared verbatim by both engines.
struct Agent {
    id: u16,
    shards: u16,
    rng: SimRng,
    log: Vec<String>,
}

impl Agent {
    fn new(seed: u64, id: u16, shards: u16) -> Self {
        Agent {
            id,
            shards,
            rng: SimRng::seed(seed).fork_named(&format!("agent{id}")),
            log: Vec::new(),
        }
    }

    /// Rolls follow-up actions; expected branching factor < 1 so cascades
    /// die out.
    fn follow_ups(&mut self, payload: u64) -> Vec<Action> {
        let mut acts = Vec::new();
        if self.rng.gen_range(0, 10) < 4 {
            let delay = SimDuration::from_secs(self.rng.gen_range(0, 7_200));
            acts.push(Action::Local(delay, payload.wrapping_mul(31) + 1));
        }
        if self.rng.gen_range(0, 10) < 4 {
            let dst = self.rng.gen_range(0, self.shards as u64) as u16;
            // Latency >= the lookahead, sometimes exactly at it, sometimes
            // landing on round boundaries to exercise ties.
            let extra = SimDuration::from_secs(self.rng.gen_range(0, 4) * 600);
            acts.push(Action::Send(dst, LOOKAHEAD + extra, payload.wrapping_mul(17) + 2));
        }
        acts
    }

    fn on_event(&mut self, now: SimTime, payload: u64) -> Vec<Action> {
        self.log.push(format!("{} evt {payload} @{now}", self.id));
        self.follow_ups(payload)
    }

    fn on_message(&mut self, now: SimTime, src: ShardId, payload: u64) -> Vec<Action> {
        self.log.push(format!("{} msg {payload} from {src} @{now}", self.id));
        self.follow_ups(payload)
    }
}

/// The sharded engine's wrapper around an [`Agent`].
struct AgentWorld(Agent);

impl ShardWorld for AgentWorld {
    type Event = u64;
    type Msg = u64;

    fn handle(&mut self, payload: u64, ctx: &mut ShardCtx<'_, '_, u64, u64>) {
        let now = ctx.now();
        for act in self.0.on_event(now, payload) {
            match act {
                Action::Local(d, p) => ctx.after(d, p),
                Action::Send(dst, lat, p) => ctx.send(ShardId(dst), now + lat, p),
            }
        }
    }

    fn on_message(&mut self, src: ShardId, payload: u64, ctx: &mut ShardCtx<'_, '_, u64, u64>) {
        let now = ctx.now();
        for act in self.0.on_message(now, src, payload) {
            match act {
                Action::Local(d, p) => ctx.after(d, p),
                Action::Send(dst, lat, p) => ctx.send(ShardId(dst), now + lat, p),
            }
        }
    }
}

/// Seeds each shard with the same initial schedule in both engines.
fn initial_events(seed: u64, shard: u16) -> Vec<(SimTime, u64)> {
    let mut rng = SimRng::seed(seed).fork_named(&format!("init{shard}"));
    (0..5)
        .map(|i| {
            let t = SimTime::from_secs(rng.gen_range(0, 86_400));
            (t, shard as u64 * 1_000 + i)
        })
        .collect()
}

/// The flat reference: one global time-ordered loop over per-shard FIFO
/// event queues plus a key-sorted message set, applying the canonical
/// delivery rule directly — at any instant, a shard's pending messages
/// (in `(fire_at, src, seq)` order) deliver before its local events.
fn reference_logs(seed: u64, shards: u16) -> Vec<Vec<String>> {
    let mut agents: Vec<Agent> = (0..shards).map(|s| Agent::new(seed, s, shards)).collect();
    let mut queues: Vec<EventQueue<u64>> = (0..shards).map(|_| EventQueue::new()).collect();
    // Pending messages per destination, keyed by (fire_at, src, seq).
    let mut inboxes: Vec<BTreeMap<(SimTime, u16, u64), u64>> =
        (0..shards).map(|_| BTreeMap::new()).collect();
    let mut next_seq: Vec<u64> = vec![0; shards as usize];
    for s in 0..shards {
        for (t, p) in initial_events(seed, s) {
            queues[s as usize].push(t, p);
        }
    }
    loop {
        // Global minimum next instant across every queue and inbox.
        let mut t: Option<SimTime> = None;
        for s in 0..shards as usize {
            for cand in [
                queues[s].peek_time(),
                inboxes[s].keys().next().map(|k| k.0),
            ]
            .into_iter()
            .flatten()
            {
                t = Some(t.map_or(cand, |cur| cur.min(cand)));
            }
        }
        let Some(t) = t else { break };
        if t > HORIZON {
            break;
        }
        // Cross-shard latency > 0, so nothing processed at `t` can create
        // more work at `t` on another shard: shard order is immaterial.
        for s in 0..shards as usize {
            let mut acts: Vec<Action> = Vec::new();
            loop {
                let msg_due = inboxes[s].keys().next().is_some_and(|k| k.0 == t);
                if msg_due {
                    let (key, payload) = inboxes[s].pop_first().expect("peeked message");
                    acts.extend(agents[s].on_message(t, ShardId(key.1), payload));
                } else if queues[s].peek_time() == Some(t) {
                    let (_, payload) = queues[s].pop().expect("peeked event");
                    acts.extend(agents[s].on_event(t, payload));
                } else {
                    break;
                }
                // Apply follow-ups immediately, as the live engine does:
                // same-instant local events join this instant's FIFO tail.
                for act in acts.drain(..) {
                    match act {
                        Action::Local(d, p) => queues[s].push(t + d, p),
                        Action::Send(dst, lat, p) => {
                            let key = (t + lat, s as u16, next_seq[s]);
                            next_seq[s] += 1;
                            inboxes[dst as usize].insert(key, p);
                        }
                    }
                }
            }
        }
    }
    agents.into_iter().map(|a| a.log).collect()
}

/// Runs the real sharded engine at a worker count and epoch subdivision.
fn sharded_logs(seed: u64, shards: u16, workers: usize, epoch: SimDuration) -> Vec<Vec<String>> {
    set_shard_workers(workers);
    let worlds: Vec<AgentWorld> = (0..shards)
        .map(|s| AgentWorld(Agent::new(seed, s, shards)))
        .collect();
    let mut sim = ShardedSim::with_epoch(worlds, LOOKAHEAD, epoch);
    for s in 0..shards {
        for (t, p) in initial_events(seed, s) {
            sim.schedule_at(s as usize, t, p);
        }
    }
    sim.run_until(HORIZON);
    set_shard_workers(0);
    sim.worlds().map(|w| w.0.log.clone()).collect()
}

#[test]
fn lamport_merge_equals_flat_reference_order() {
    for seed in [1u64, 0xBEEF, 42, 777, 0x5EED5EED] {
        for shards in [2u16, 3, 7] {
            let reference = reference_logs(seed, shards);
            assert!(
                reference.iter().map(Vec::len).sum::<usize>() > 0,
                "seed {seed:#x}: degenerate schedule delivers nothing"
            );
            for workers in [1usize, 2, 4] {
                for epoch in [
                    LOOKAHEAD,
                    SimDuration::from_secs(300),
                    SimDuration::from_secs(97), // doesn't divide the lookahead
                ] {
                    let got = sharded_logs(seed, shards, workers, epoch);
                    assert_eq!(
                        got, reference,
                        "delivery order diverged: seed={seed:#x} shards={shards} \
                         workers={workers} epoch={epoch}"
                    );
                }
            }
        }
    }
}

#[test]
fn pool_spawn_and_fast_forward_all_equal_the_flat_reference() {
    // The persistent pool at worker counts that divide neither shard count
    // (one of them above it), with idle-epoch fast-forward, must be
    // invisible next to the flat single-queue reference — also at a
    // non-dividing epoch, where fast-forward's grid arithmetic is least
    // trivial. (The name predates the removal of the per-window spawn
    // runner.)
    for seed in [0xBEEF_u64, 0x5EED5EED] {
        for shards in [2u16, 7] {
            let reference = reference_logs(seed, shards);
            for workers in [3usize, 5] {
                for epoch in [LOOKAHEAD, SimDuration::from_secs(97)] {
                    let got = sharded_logs(seed, shards, workers, epoch);
                    assert_eq!(
                        got, reference,
                        "diverged: seed={seed:#x} shards={shards} workers={workers} \
                         epoch={epoch}"
                    );
                }
            }
        }
    }
}

#[test]
fn messages_never_arrive_late_whatever_the_epoch() {
    // A lookahead-violating latency must panic rather than silently
    // reorder: the engine's guard fires on send.
    let result = std::panic::catch_unwind(|| {
        struct Bad;
        impl ShardWorld for Bad {
            type Event = ();
            type Msg = ();
            fn handle(&mut self, _e: (), ctx: &mut ShardCtx<'_, '_, (), ()>) {
                // Below the lookahead: conservative exchange cannot honor it.
                ctx.send(ShardId(1), ctx.now() + SimDuration::from_secs(1), ());
            }
            fn on_message(&mut self, _s: ShardId, _m: (), _c: &mut ShardCtx<'_, '_, (), ()>) {}
        }
        let mut sim = ShardedSim::new(vec![Bad, Bad], SimDuration::from_secs(600));
        sim.schedule_at(0, SimTime::from_secs(50), ());
        sim.run_until(SimTime::from_secs(1_200));
    });
    assert!(result.is_err(), "lookahead violation must panic");
}
