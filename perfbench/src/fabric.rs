//! `sharded_fabric`: `ShardedFleetSim` with eight AZ-group shards,
//! staggered per-shard storms, and the contention model on with its
//! defenses.
//!
//! The only workload where `simcore::shard` epochs, `simcore::pool`
//! placement and `simcore::fluid` max-min recomputation do most of the
//! work; `fleet_storm` is the contrast. Runs at one worker (override with
//! `--workers`): on the 2-vCPU build host its best-cycle `run_s` spread
//! over seeds was 12% at two workers and 3% at one. Output is identical at
//! any worker count, and the exchange, barrier and fast-forward code runs
//! either way.
//!
//! Requests are `run_until` calls over fixed 5-minute simulated slices.
//! The sharded engine has no snapshot format: its restart path is a
//! rebuild from the shard specs, which is what `setup_s` times, so
//! `restore_s` reports the same figure. Every shard's end-state controller
//! signature is one of the cycle's deterministic counts, so each cycle's
//! re-execution from the same specs is checked against the first.

use std::time::Instant;

use spotcheck_cloudsim::cloud::CloudConfig;
use spotcheck_core::config::{ContentionConfig, SpotCheckConfig};
use spotcheck_core::journal::ViolationReport;
use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::shardsim::{FleetScript, FleetShardSpec, ShardedFleetSim};
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_workloads::WorkloadKind;

use crate::fleet::storm_trace;
use spotcheck_simcore::digest::Digest64;

use crate::trace::{median, timed, Tracer};
use crate::{setup_reps, Counts, Ctx, Gate, Metrics, Outcome, Phases, Size};

/// Cross-shard latency: the engine's lookahead and the gossip delay.
const LATENCY: SimDuration = SimDuration::from_secs(60);
const GOSSIP: SimDuration = SimDuration::from_hours(6);
/// Simulated length of one `run_until` request: 1440 per run, so each
/// cycle's p99 has at least ten samples beyond it.
const SLICE: SimDuration = SimDuration::from_secs(300);

/// Measured cycles per run: about 0.5 s each.
const CYCLES: u32 = 32;

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "controller.revocations",
    "controller.migrations",
    "controller.returns",
    "controller.rereplications",
    "controller.vms_lost",
    "journal.entries",
    "journal.dropped",
    "shardsim.run_s.ramp",
    "shardsim.run_s.storm",
    "shardsim.run_s.calm",
    "shard.epochs",
    "shard.epochs_fast_forwarded",
    "shard.messages",
    "shard.steps",
    "shard.workers",
    "contention.migrations_started",
    "contention.violations",
    "contention.violations_contention",
    "contention.violations_queue_wait",
    "contention.fallback_yanks",
    "contention.queue_wait_ms",
];

struct Plan {
    shards: u16,
    customers: usize,
    vms_per_customer: usize,
    ramp_gap: SimDuration,
    churn_at: SimTime,
    storm_at: SimTime,
    stagger: SimDuration,
    storm_len: SimDuration,
    horizon: SimTime,
}

impl Plan {
    fn for_size(size: Size) -> Plan {
        let (customers, vms_per_customer) = match size {
            // 8 shards x 1 customer x 50 VMs = 400 VMs.
            Size::Full => (1, 50),
            Size::Tiny => (1, 10),
        };
        Plan {
            shards: 8,
            customers,
            vms_per_customer,
            ramp_gap: SimDuration::from_secs(300),
            churn_at: SimTime::from_days(1),
            storm_at: SimTime::from_days(2),
            stagger: SimDuration::from_hours(6),
            storm_len: SimDuration::from_hours(2),
            horizon: SimTime::from_days(5),
        }
    }

    fn ramp_end(&self) -> SimTime {
        SimTime::ZERO + self.ramp_gap * self.customers as u64
    }

    fn storms_end(&self) -> SimTime {
        self.storm_at + self.stagger * (self.shards as u64 - 1) + self.storm_len
    }
}

fn specs(seed: u64, plan: &Plan) -> Vec<FleetShardSpec> {
    let root = SimRng::seed(seed).fork_named("sharded_fabric");
    (0..plan.shards)
        .map(|s| {
            let zone = format!("az{s:02}");
            let mut rng = root.fork_named(&zone);
            let storm_at = plan.storm_at + plan.stagger * s as u64;
            FleetShardSpec {
                traces: vec![storm_trace(
                    seed,
                    &zone,
                    &[storm_at],
                    plan.storm_len,
                    plan.horizon,
                )],
                config: SpotCheckConfig {
                    zone: zone.clone(),
                    mapping: MappingPolicy::OneM,
                    mechanism: MechanismKind::SpotCheckLazy,
                    contention: ContentionConfig::enabled_defended(),
                    seed: rng.next_u64(),
                    ..SpotCheckConfig::default()
                },
                cloud: CloudConfig {
                    seed: rng.next_u64(),
                    ..CloudConfig::default()
                },
                script: FleetScript {
                    customers: plan.customers,
                    vms_per_customer: plan.vms_per_customer,
                    ramp_gap: plan.ramp_gap,
                    churn_at: Some(plan.churn_at),
                    churn_every: 20,
                    churn_replace_delay: SimDuration::from_hours(1),
                    workload: WorkloadKind::TpcW,
                },
            }
        })
        .collect()
}

/// Every shard's controller signature at `t`, folded in shard order: the
/// end state's fingerprint.
fn signatures(sim: &ShardedFleetSim, t: SimTime) -> u64 {
    let mut d = Digest64::new();
    for s in sim.shards() {
        d.write_u64(s.controller().state_signature(t));
    }
    d.finish()
}

/// Sums the 30 s-guarantee reports of every shard.
fn violations(sim: &ShardedFleetSim) -> ViolationReport {
    let mut sum = ViolationReport::from_counters(&Default::default());
    for s in sim.shards() {
        let v = s.controller().journal().violation_report();
        sum.migrations_started += v.migrations_started;
        sum.violations += v.violations;
        sum.contention += v.contention;
        sum.queue_wait += v.queue_wait;
        sum.residue_lost += v.residue_lost;
        sum.fallback_yanks += v.fallback_yanks;
        sum.commits_queued += v.commits_queued;
        sum.queue_wait_ms += v.queue_wait_ms;
    }
    sum
}

/// The workload's deterministic counts for a finished run.
fn counts_of(sim: &ShardedFleetSim, t: SimTime, requests: usize) -> Counts {
    let (mut revocations, mut migrations, mut returns, mut rerepl, mut lost, mut entries) =
        (0, 0, 0, 0, 0, 0);
    for s in sim.shards() {
        let avail = s.controller().availability_report(t);
        let c = s.controller().journal().counters();
        revocations += avail.revocations;
        migrations += avail.migrations;
        returns += c.returns_completed;
        rerepl += c.rereplications_completed;
        lost += c.vms_lost;
        entries += s.controller().journal().len() as u64;
    }
    let v = violations(sim);
    vec![
        ("shard.signatures", signatures(sim, t)),
        ("shard.steps", sim.total_steps()),
        ("shard.messages", sim.messages_delivered()),
        ("shard.epoch_windows", sim.epoch_windows()),
        ("requests", requests as u64),
        ("controller.revocations", revocations),
        ("controller.migrations", migrations),
        ("controller.returns", returns),
        ("controller.rereplications", rerepl),
        ("controller.vms_lost", lost),
        ("journal.entries", entries),
        ("journal.dropped", sim.journal_dropped()),
        ("contention.migrations_started", v.migrations_started),
        ("contention.violations", v.violations),
        ("contention.violations_contention", v.contention),
        ("contention.violations_queue_wait", v.queue_wait),
        ("contention.fallback_yanks", v.fallback_yanks),
        ("contention.queue_wait_ms", v.queue_wait_ms),
    ]
}

/// What one timed run measured: ramp, storm and calm time, slice latencies.
#[derive(Default)]
struct RunStats {
    phase_s: [f64; 3],
    slice_us: Vec<f64>,
}

fn drive(sim: &mut ShardedFleetSim, plan: &Plan, tr: &mut Tracer) -> RunStats {
    let mut st = RunStats::default();
    let (ramp_end, storm_at, storms_end) = (plan.ramp_end(), plan.storm_at, plan.storms_end());
    let mut t = SimTime::ZERO;
    while t < plan.horizon {
        let next = (t + SLICE).min(plan.horizon);
        let t0 = Instant::now();
        tr.span("shardsim.run_until", |_| sim.run_until(next));
        let dt = t0.elapsed().as_secs_f64();
        st.slice_us.push(dt * 1e6);
        let phase = if t < ramp_end {
            0
        } else if t >= storm_at && t < storms_end {
            1
        } else {
            2
        };
        st.phase_s[phase] += dt;
        t = next;
    }
    st
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    let plan = Plan::for_size(ctx.size);
    let workers = ctx.workers.unwrap_or(1);
    ShardedFleetSim::set_workers(workers);

    let mut phases = Phases::default();
    let mut first: Option<Counts> = None;
    let mut counts = Counts::new();
    let mut traced: Vec<RunStats> = Vec::new();
    let mut epochs = (0, 0);
    let mut window_workers = 0;

    let measured = ctx.cycles(tr, CYCLES, |tr, cycle| {
        let on = tr.enabled();
        // Shard specs (price traces included) are benchmark inputs,
        // generated outside the timed set-up.
        let (mut sim, setup_s) = setup_reps(
            tr,
            || specs(ctx.seed, &plan),
            |tr, inputs| {
                tr.span("shardsim.new", |_| {
                    ShardedFleetSim::new(inputs, LATENCY, GOSSIP)
                })
            },
        );

        let run = tr.open("run");
        let (st, run_s) = timed(|| drive(&mut sim, &plan, tr));
        tr.close(run);
        let end = sim.now();

        let requests = st.slice_us.len();
        counts = counts_of(&sim, end, requests);
        let fleet = plan.shards as u64 * (plan.customers * plan.vms_per_customer) as u64;
        let revoked = counts
            .iter()
            .find(|c| c.0 == "controller.revocations")
            .map_or(0, |c| c.1);
        gate.check(revoked >= fleet, || {
            format!("storms revoked {revoked} of {fleet} VMs")
        });
        gate.same_counts(&mut first, counts.clone());
        gate.ok_n(requests as u64);
        epochs = (sim.epochs(), sim.epochs_fast_forwarded());
        window_workers = sim.window_workers();
        // The restart path is the rebuild `setup_s` timed.
        phases.record(cycle, on, setup_s, run_s, setup_s, &st.slice_us);
        if on {
            traced.push(st);
        }
    });

    let mut m = Metrics::default();
    if !ctx.trace {
        phases.end_to_end(&mut m);
    } else {
        for (i, name) in ["ramp", "storm", "calm"].iter().enumerate() {
            let s: Vec<f64> = traced.iter().map(|r| r.phase_s[i]).collect();
            m.set(format!("shardsim.run_s.{name}"), median(&s), "s");
        }
        m.set("shard.epochs", epochs.0 as f64, "count");
        m.set("shard.epochs_fast_forwarded", epochs.1 as f64, "count");
        m.set("shard.workers", window_workers as f64, "count");
        for &(name, v) in &counts {
            let unit = if name == "contention.queue_wait_ms" {
                "ms"
            } else {
                "count"
            };
            if LAYERS.contains(&name) {
                m.set(name, v as f64, unit);
            }
        }
        m.set("trace.overhead_pct", phases.overhead_pct(), "%");
        m.set("trace.coverage_pct", tr.coverage_pct("run"), "%");
    }
    Outcome {
        metrics: m,
        counts,
        config: vec![
            ("measured_cycles", measured.to_string()),
            (
                "fleet_vms",
                (plan.shards as usize * plan.customers * plan.vms_per_customer).to_string(),
            ),
            ("shards", plan.shards.to_string()),
            ("workers", workers.to_string()),
            ("contention", "enabled_defended".to_string()),
        ],
    }
}
