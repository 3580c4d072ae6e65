//! `fleet_storm`: one flat `Engine` on one thread, contention off.
//!
//! A fleet of 500 nested VMs ramps up through `Engine::apply`, about
//! 5% of it churns (release, then replace an hour later), and
//! `Engine::step_until` carries it through four full-fleet revocation
//! storms, two days apart, and the return wave after each. The end state goes through snapshot, text, parse
//! and a signature-verified restore. Controller handlers, the event queue,
//! cloudsim price and revocation scans, the journal and the O(history)
//! restore are on the critical path; no shard, fluid, archive or socket
//! work runs.
//!
//! Requests are `step_until` calls over fixed five-minute simulated slices;
//! `apply` latencies are per-layer metrics only.

use std::time::Instant;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::{Command, CommandOutcome, Engine, Scenario};
use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::snapshot::Snapshot;
use spotcheck_core::types::CustomerId;
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::engine::StopReason;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::generator::TraceGenerator;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::profiles::profile_for;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use crate::trace::{median, percentile, timed, Tracer};
use crate::{setup_reps, Counts, Ctx, Gate, Metrics, Outcome, Phases, Size};

/// Simulated length of one `step_until` request: about 3400 a run.
const SLICE: SimDuration = SimDuration::from_secs(300);

/// Measured cycles per run (0.3-0.5 s each), so a run's best cycle is
/// taken over a window of fifteen seconds or more.
const CYCLES: u32 = 48;

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "engine.step_s.ramp",
    "engine.step_s.calm",
    "engine.step_s.storm",
    "engine.step_s.return",
    "engine.steps.ramp",
    "engine.steps.calm",
    "engine.steps.storm",
    "engine.steps.return",
    "engine.ns_per_step",
    "queue.depth_peak",
    "engine.apply_us_p50",
    "engine.apply_us_p99",
    "controller.revocations",
    "controller.migrations",
    "controller.returns",
    "controller.rereplications",
    "controller.vms_lost",
    "journal.entries",
    "journal.dropped",
    "snapshot.encode_s",
    "snapshot.bytes",
    "snapshot.parse_s",
    "engine.restore_s",
    "engine.replayed_commands",
];

/// Fleet shape and timeline.
pub struct Plan {
    pub customers: usize,
    pub vms_per_customer: usize,
    /// Every `churn_every`th VM is released at `churn_at` and replaced an
    /// hour later.
    pub churn_every: usize,
    pub churn_at: SimTime,
    /// Start of each revocation storm, in order.
    pub storms: Vec<SimTime>,
    pub storm_len: SimDuration,
    pub horizon: SimTime,
}

impl Plan {
    pub fn for_size(size: Size) -> Plan {
        let (customers, vms_per_customer) = match size {
            // 5 x 100 = 500 VMs, each customer well inside its /24
            // subnet. The fleet is small so that the engine's working set
            // stays in the core's own caches: on a shared host a 2k-VM
            // fleet's best cycle moved by up to 1.8x between runs
            // minutes apart, with the neighbours' load, and a 500-VM
            // fleet's by 10%. Four storms instead of one give the timed
            // phase its length.
            Size::Full => (5, 100),
            Size::Tiny => (4, 25),
        };
        Plan {
            customers,
            vms_per_customer,
            churn_every: 20,
            churn_at: SimTime::from_days(2),
            storms: [4, 6, 8, 10].map(SimTime::from_days).to_vec(),
            storm_len: SimDuration::from_hours(2),
            horizon: SimTime::from_days(12),
        }
    }
}

/// The m3.medium market for `seed`: the calibrated generator's series,
/// capped below the on-demand bid (no organic revocations), with a storm
/// window far above it at each of `storms` (in order) that revokes every
/// spot host at once.
pub fn storm_trace(
    seed: u64,
    zone: &str,
    storms: &[SimTime],
    storm_len: SimDuration,
    horizon: SimTime,
) -> PriceTrace {
    let entry = profile_for("m3.medium").expect("m3.medium is in the catalog");
    let od = entry.profile.on_demand_price;
    let market = MarketId::new("m3.medium", zone);
    let mut rng = SimRng::seed(seed).fork_named(&market.to_string());
    let base = TraceGenerator::new(entry.profile).generate(
        market.clone(),
        horizon.since(SimTime::ZERO),
        &mut rng,
    );
    let in_storm = |t: SimTime| storms.iter().any(|&s| t >= s && t <= s + storm_len);
    let mut points: Vec<(SimTime, f64)> = Vec::new();
    let mut push = |t: SimTime, p: f64| {
        if points.last().map(|&(_, q)| q) != Some(p) {
            points.push((t, p));
        }
    };
    let mut next = 0;
    for &(t, p) in base.prices.points() {
        while next < storms.len() && t >= storms[next] {
            let (at, end) = (storms[next], storms[next] + storm_len);
            push(at, od * 12.0);
            push(end, base.price_at(end).unwrap_or(p).min(od * 0.8));
            next += 1;
        }
        if !in_storm(t) {
            push(t, p.min(od * 0.8));
        }
    }
    PriceTrace::new(market, od, StepSeries::from_points(points))
}

/// The workload's scenario for `seed`.
fn scenario(seed: u64, plan: &Plan) -> Scenario {
    let zone = "us-east-1a";
    let traces = vec![storm_trace(
        seed,
        zone,
        &plan.storms,
        plan.storm_len,
        plan.horizon,
    )];
    Scenario::new(
        traces,
        SpotCheckConfig {
            zone: zone.to_string(),
            mapping: MappingPolicy::OneM,
            mechanism: MechanismKind::SpotCheckLazy,
            seed,
            ..SpotCheckConfig::default()
        },
    )
}

/// Timeline phase of the timed run.
#[derive(Clone, Copy)]
enum Phase {
    Ramp,
    Calm,
    Storm,
    Return,
}

/// Metric suffixes, in `Phase` order.
const PHASE_NAMES: [&str; 4] = ["ramp", "calm", "storm", "return"];

/// What one timed run measured.
#[derive(Default)]
struct RunStats {
    requests: usize,
    slice_us: Vec<f64>,
    apply_us: Vec<f64>,
    step_s: [f64; 4],
    steps: [u64; 4],
    depth_peak: usize,
}

/// The phase a slice starting at `t` belongs to, once the ramp is done.
fn phase_of(plan: &Plan, t: SimTime) -> Phase {
    if t < plan.storms[0] {
        Phase::Calm
    } else if plan
        .storms
        .iter()
        .any(|&s| t >= s && t < s + plan.storm_len)
    {
        Phase::Storm
    } else {
        Phase::Return
    }
}

/// One `step_until` request over the next slice, timed and filed under
/// the phase it starts in.
fn step(
    engine: &mut Engine,
    tr: &mut Tracer,
    to: SimTime,
    phase: Phase,
    st: &mut RunStats,
) -> StopReason {
    let before = engine.steps();
    let t0 = Instant::now();
    let stop = tr.span("engine.step_until", |_| engine.step_until(to));
    let dt = t0.elapsed().as_secs_f64();
    st.requests += 1;
    st.slice_us.push(dt * 1e6);
    st.step_s[phase as usize] += dt;
    st.steps[phase as usize] += engine.steps() - before;
    st.depth_peak = st.depth_peak.max(engine.queue_depth());
    stop
}

/// Applies `cmd`, counting a rejection as a failed operation.
fn apply(
    engine: &mut Engine,
    cmd: Command,
    st: &mut RunStats,
    gate: &mut Gate,
) -> Option<CommandOutcome> {
    let t0 = Instant::now();
    let out = engine.apply(cmd);
    st.apply_us.push(t0.elapsed().as_secs_f64() * 1e6);
    st.requests += 1;
    gate.check(out.is_ok(), || format!("apply {cmd:?} rejected: {out:?}"));
    out.ok()
}

/// The timed phase: ramp, churn, storm, return.
fn drive(engine: &mut Engine, plan: &Plan, tr: &mut Tracer, gate: &mut Gate) -> RunStats {
    let mut st = RunStats::default();
    let mut fleet: Vec<(CustomerId, NestedVmId)> =
        Vec::with_capacity(plan.customers * plan.vms_per_customer);
    for _ in 0..plan.customers {
        let now = engine.now();
        tr.span("engine.apply", |_| {
            let Some(CommandOutcome::Customer(c)) =
                apply(engine, Command::CreateCustomer, &mut st, gate)
            else {
                return;
            };
            for _ in 0..plan.vms_per_customer {
                let cmd = Command::Provision {
                    customer: c,
                    workload: WorkloadKind::TpcW,
                    stateless: false,
                };
                if let Some(CommandOutcome::Vm(vm)) = apply(engine, cmd, &mut st, gate) {
                    fleet.push((c, vm));
                }
            }
        });
        step(engine, tr, now + SLICE, Phase::Ramp, &mut st);
    }
    let replace_at = plan.churn_at + SimDuration::from_hours(1);
    let mut churned: Vec<CustomerId> = Vec::new();
    while engine.now() < plan.horizon {
        let now = engine.now();
        if now == plan.churn_at {
            tr.span("engine.apply", |_| {
                for &(c, vm) in fleet.iter().step_by(plan.churn_every) {
                    apply(engine, Command::Release { vm }, &mut st, gate);
                    churned.push(c);
                }
            });
        } else if now == replace_at {
            tr.span("engine.apply", |_| {
                for &customer in &churned {
                    let cmd = Command::Provision {
                        customer,
                        workload: WorkloadKind::TpcW,
                        stateless: false,
                    };
                    apply(engine, cmd, &mut st, gate);
                }
            });
        }
        // Slices are aligned to the five-minute grid so the churn instants
        // are hit exactly whatever the ramp length.
        let next =
            SimTime::from_micros((now.as_micros() / SLICE.as_micros() + 1) * SLICE.as_micros());
        let stop = step(
            engine,
            tr,
            next.min(plan.horizon),
            phase_of(plan, now),
            &mut st,
        );
        // The queue drains once the last price change has passed: nothing
        // is left to simulate.
        if stop == StopReason::QueueEmpty {
            break;
        }
    }
    st
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    let plan = Plan::for_size(ctx.size);
    let scenario = scenario(ctx.seed, &plan);

    let mut phases = Phases::default();
    let mut first: Option<Counts> = None;
    let mut counts = Counts::new();
    let mut traced: Vec<RunStats> = Vec::new();
    let (mut encode_s, mut parse_s, mut restore_engine_s) = (Vec::new(), Vec::new(), Vec::new());

    let measured = ctx.cycles(tr, CYCLES, |tr, cycle| {
        let on = tr.enabled();
        let (mut engine, setup_s) = setup_reps(
            tr,
            || (),
            |tr, ()| tr.span("engine.build", |_| scenario.build()),
        );

        let run = tr.open("run");
        let (st, run_s) = timed(|| drive(&mut engine, &plan, tr, gate));
        tr.close(run);

        // Read the end state first: the restore runs as after a restart,
        // with the live engine gone (its drop is not timed).
        let signature = engine.state_signature();
        let avail = engine.availability_report();
        let counters = *engine.journal().counters();
        let viol = engine.violation_report();
        let (steps, entries, dropped) = (
            engine.steps(),
            engine.journal().len() as u64,
            engine.journal().dropped(),
        );
        let restore = tr.open("restore");
        let (text, enc) = timed(|| tr.span("snapshot.encode", |_| engine.snapshot().to_text()));
        tr.span("engine.drop", |_| drop(engine));
        let t0 = Instant::now();
        let (parsed, par) = timed(|| tr.span("snapshot.parse", |_| Snapshot::parse(&text)));
        let parsed = parsed.expect("a snapshot this engine wrote parses");
        let (restored, res) =
            timed(|| tr.span("engine.restore", |_| Engine::restore(&scenario, &parsed)));
        let restore_s = enc + t0.elapsed().as_secs_f64();
        tr.close(restore);

        gate.check(restored.is_ok(), || {
            format!("restore failed: {:?}", restored.as_ref().err())
        });
        if let Ok(r) = &restored {
            gate.check(r.state_signature() == signature, || {
                "restored signature differs".into()
            });
        }
        drop(restored);

        counts = vec![
            ("engine.steps", steps),
            ("engine.steps.ramp", st.steps[0]),
            ("engine.steps.calm", st.steps[1]),
            ("engine.steps.storm", st.steps[2]),
            ("engine.steps.return", st.steps[3]),
            ("requests", st.requests as u64),
            ("controller.revocations", avail.revocations),
            ("controller.migrations", avail.migrations),
            ("controller.returns", counters.returns_completed),
            (
                "controller.rereplications",
                counters.rereplications_completed,
            ),
            ("controller.vms_lost", counters.vms_lost),
            ("contention.violations", viol.violations),
            ("journal.entries", entries),
            ("journal.dropped", dropped),
            ("engine.replayed_commands", parsed.commands.len() as u64),
            ("snapshot.bytes", text.len() as u64),
        ];
        let fleet = (plan.customers * plan.vms_per_customer * plan.storms.len()) as u64;
        gate.check(avail.revocations >= fleet, || {
            format!("storms revoked {} of {fleet} VMs", avail.revocations)
        });
        gate.same_counts(&mut first, counts.clone());
        phases.record(cycle, on, setup_s, run_s, restore_s, &st.slice_us);
        if on {
            encode_s.push(enc);
            parse_s.push(par);
            restore_engine_s.push(res);
            traced.push(st);
        }
    });

    let mut m = Metrics::default();
    if !ctx.trace {
        phases.end_to_end(&mut m);
    } else {
        for (i, name) in PHASE_NAMES.iter().enumerate() {
            let step_s: Vec<f64> = traced.iter().map(|s| s.step_s[i]).collect();
            m.set(format!("engine.step_s.{name}"), median(&step_s), "s");
            m.set(
                format!("engine.steps.{name}"),
                traced[0].steps[i] as f64,
                "count",
            );
        }
        let ns: Vec<f64> = traced
            .iter()
            .map(|s| s.step_s.iter().sum::<f64>() * 1e9 / s.steps.iter().sum::<u64>().max(1) as f64)
            .collect();
        m.set("engine.ns_per_step", median(&ns), "ns");
        m.set("queue.depth_peak", traced[0].depth_peak as f64, "count");
        let apply_us: Vec<f64> = traced
            .iter()
            .flat_map(|s| s.apply_us.iter().copied())
            .collect();
        m.set("engine.apply_us_p50", percentile(&apply_us, 50.0), "us");
        m.set("engine.apply_us_p99", percentile(&apply_us, 99.0), "us");
        for &(name, v) in &counts {
            if LAYERS.contains(&name) && !name.starts_with("engine.steps.") {
                let unit = if name == "snapshot.bytes" {
                    "bytes"
                } else {
                    "count"
                };
                m.set(name, v as f64, unit);
            }
        }
        m.set("snapshot.encode_s", median(&encode_s), "s");
        m.set("snapshot.parse_s", median(&parse_s), "s");
        m.set("engine.restore_s", median(&restore_engine_s), "s");
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
                (plan.customers * plan.vms_per_customer).to_string(),
            ),
            ("workers", "1".to_string()),
            ("contention", "off".to_string()),
        ],
    }
}
