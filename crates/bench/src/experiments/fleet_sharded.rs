//! Sharded fleet scale-out: the fleet experiment's storm scenario pushed
//! to derivative-cloud scale — at `Full`, 40 AZ-group shards × 125
//! customers × 200 VMs = 1,000,000 nested VMs — over the deterministic
//! sharded engine ([`spotcheck_core::shardsim`]).
//!
//! Each shard owns one controller + platform over its own m3.medium spot
//! market; zone-level price storms are *uncorrelated across zones* (the
//! premise SpotCheck's multi-market pools rely on), so each shard's storm
//! window is staggered a few hours from its neighbors'. Shards gossip
//! their aggregates (free-slot index, migration load) to a coordinator
//! through the Lamport-ordered cross-shard message layer and hear back
//! fleet-wide advisories.
//!
//! The logical shard set is fixed by the scale, so the rendered table is
//! byte-identical at any `--shards`/`--threads` setting (pinned by
//! `crates/bench/tests/determinism.rs`); only wall-clock changes, and that
//! lands in `BENCH_RESULTS.json`.

use spotcheck_cloudsim::cloud::CloudConfig;
use spotcheck_cloudsim::faults::FaultPlan;
use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::shardsim::{FleetScript, FleetShardSpec, ShardedFleetSim};
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use super::Scale;
use crate::table::{f, TextTable};

/// Cross-shard latency: the engine's conservative lookahead, and the
/// one-way delay of every gossip leg.
const CROSS_SHARD_LATENCY: SimDuration = SimDuration::from_secs(60);

/// Gossip cadence per shard.
const GOSSIP_PERIOD: SimDuration = SimDuration::from_hours(6);

/// Sharded fleet sizing for one scale.
struct ShardedPlan {
    shards: u16,
    customers_per_shard: usize,
    vms_per_customer: usize,
    horizon: SimDuration,
    churn_at: SimTime,
    /// Storm start in shard 0's zone; later zones stagger by
    /// `storm_stagger` each (zone spikes are uncorrelated).
    storm_at: SimTime,
    storm_stagger: SimDuration,
}

impl ShardedPlan {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            // 40 shards x 125 customers x 200 VMs = 1,000,000 nested VMs.
            // 200 initial + ~10 churn replacements per customer stays
            // under each customer's 254-host /24 subnet.
            Scale::Full => ShardedPlan {
                shards: 40,
                customers_per_shard: 125,
                vms_per_customer: 200,
                horizon: SimDuration::from_days(183),
                churn_at: SimTime::ZERO + SimDuration::from_days(60),
                storm_at: SimTime::ZERO + SimDuration::from_days(91),
                storm_stagger: SimDuration::from_hours(3),
            },
            // 4 shards x 5 customers x 100 VMs = 2,000 VMs over two weeks.
            Scale::Quick => ShardedPlan {
                shards: 4,
                customers_per_shard: 5,
                vms_per_customer: 100,
                horizon: SimDuration::from_days(14),
                churn_at: SimTime::ZERO + SimDuration::from_days(5),
                storm_at: SimTime::ZERO + SimDuration::from_days(7),
                storm_stagger: SimDuration::from_hours(6),
            },
        }
    }

    fn fleet_size(&self) -> usize {
        self.shards as usize * self.customers_per_shard * self.vms_per_customer
    }
}

/// Builds one shard's m3.medium trace: an hourly random walk below the
/// on-demand bid with one storm window far above it — the same engineered
/// shape as the `fleet` experiment, but per-zone seeded and per-zone
/// staggered.
fn zone_storm_trace(zone: &str, plan: &ShardedPlan, shard: u16) -> PriceTrace {
    const BASE: f64 = 0.014;
    const ON_DEMAND: f64 = 0.070;
    const STORM_PRICE: f64 = 0.900;
    let storm_at = plan.storm_at + plan.storm_stagger * shard as u64;
    let storm_len = SimDuration::from_hours(2);
    let mut rng = SimRng::seed(0xF1EE7).fork_named(zone);
    let mut points: Vec<(SimTime, f64)> = Vec::new();
    let mut price = BASE;
    let hours = plan.horizon.as_micros() / 3_600_000_000;
    for h in 0..hours {
        let t = SimTime::from_secs(h * 3600);
        if t >= storm_at && t < storm_at + storm_len {
            if points.last().map(|&(_, p)| p) != Some(STORM_PRICE) {
                points.push((t, STORM_PRICE));
            }
            continue;
        }
        // +-0.002/hr drift, clamped into [0.010, 0.020].
        let step = (rng.gen_range(0, 9) as f64 - 4.0) * 5e-4;
        price = (price + step).clamp(0.010, 0.020);
        points.push((t, price));
    }
    PriceTrace::new(
        MarketId::new("m3.medium", zone),
        ON_DEMAND,
        StepSeries::from_points(points),
    )
}

/// Zone name of one shard (`az00`, `az01`, ...).
fn zone_name(shard: u16) -> String {
    format!("az{shard:02}")
}

/// Builds the sharded fleet for a sizing plan.
fn build(plan: &ShardedPlan) -> ShardedFleetSim {
    let root = SimRng::seed(0x5A4D_F1EE7);
    let specs: Vec<FleetShardSpec> = (0..plan.shards)
        .map(|s| {
            let zone = zone_name(s);
            // Per-shard RNG streams: controller, platform, and fault plan
            // each fork off the shard's named stream, so a shard's draw
            // sequence is independent of every other shard's.
            let mut shard_rng = root.fork_named(&zone);
            let config_seed = shard_rng.next_u64();
            let cloud_seed = shard_rng.next_u64();
            let fault_seed = shard_rng.next_u64();
            // A light per-shard fault plan (transient API errors only,
            // rate drawn from the shard's own RNG stream): scheduled chaos
            // like crashes/storms is exercised by the failure-injection
            // suites; here it would swamp the engineered price storm the
            // experiment is about.
            let faults = FaultPlan::none()
                .with_transient_errors(0.001 + (fault_seed % 997) as f64 * 1e-6);
            FleetShardSpec {
                traces: vec![zone_storm_trace(&zone, plan, s)],
                config: SpotCheckConfig {
                    zone: zone.clone(),
                    mapping: MappingPolicy::OneM,
                    mechanism: MechanismKind::SpotCheckLazy,
                    seed: config_seed,
                    ..SpotCheckConfig::default()
                },
                cloud: CloudConfig {
                    seed: cloud_seed,
                    faults,
                    ..CloudConfig::default()
                },
                script: FleetScript {
                    customers: plan.customers_per_shard,
                    vms_per_customer: plan.vms_per_customer,
                    ramp_gap: SimDuration::from_secs(300),
                    churn_at: Some(plan.churn_at),
                    churn_every: 20,
                    churn_replace_delay: SimDuration::from_hours(1),
                    workload: WorkloadKind::TpcW,
                },
            }
        })
        .collect();
    ShardedFleetSim::new(specs, CROSS_SHARD_LATENCY, GOSSIP_PERIOD)
}

/// Runs the sharded fleet experiment.
pub fn run(scale: Scale) -> String {
    let plan = ShardedPlan::for_scale(scale);
    let mut sim = build(&plan);
    let horizon = SimTime::ZERO + plan.horizon;
    sim.run_until(horizon);

    // Aggregate per-shard outcomes. Counts sum; the rate/cost metrics are
    // plain means (every shard carries the same VM population).
    let mut revocations = 0u64;
    let mut migrations = 0u64;
    let mut returns = 0u64;
    let mut rerepl = 0u64;
    let mut lost = 0u64;
    let mut churned = 0usize;
    let mut unavail = 0.0f64;
    let mut degr = 0.0f64;
    let mut cost = 0.0f64;
    let mut advisories_min = u64::MAX;
    for shard in sim.shards() {
        let avail = shard.controller().availability_report(horizon);
        let c = shard.controller().cost_report(horizon);
        let counters = shard.controller().journal().counters();
        revocations += avail.revocations;
        migrations += avail.migrations;
        returns += counters.returns_completed;
        rerepl += counters.rereplications_completed;
        lost += counters.vms_lost;
        churned += shard.churned_vms();
        unavail += avail.unavailability;
        degr += avail.degradation;
        cost += c.cost_per_vm_hr;
        advisories_min = advisories_min.min(shard.advisories_seen());
    }
    let n = sim.shard_count() as f64;

    let mut t = TextTable::new(&["metric", "value"]);
    t.row(vec!["nested VMs".into(), plan.fleet_size().to_string()]);
    t.row(vec!["shards (AZ groups)".into(), plan.shards.to_string()]);
    t.row(vec![
        "customers".into(),
        (plan.shards as usize * plan.customers_per_shard).to_string(),
    ]);
    t.row(vec![
        "horizon (days)".into(),
        format!("{:.0}", plan.horizon.as_secs_f64() / 86_400.0),
    ]);
    t.row(vec!["churned + replaced".into(), churned.to_string()]);
    t.row(vec!["revocations".into(), revocations.to_string()]);
    t.row(vec!["migrations".into(), migrations.to_string()]);
    t.row(vec!["returns completed".into(), returns.to_string()]);
    t.row(vec!["re-replications".into(), rerepl.to_string()]);
    t.row(vec!["VMs lost".into(), lost.to_string()]);
    t.row(vec!["unavailability".into(), f(unavail / n, 6)]);
    t.row(vec!["degradation".into(), f(degr / n, 6)]);
    t.row(vec!["cost ($/VM-hr)".into(), f(cost / n, 5)]);
    t.row(vec![
        "cross-shard messages".into(),
        sim.messages_delivered().to_string(),
    ]);
    t.row(vec![
        "advisories/shard (min)".into(),
        advisories_min.to_string(),
    ]);
    t.row(vec![
        "peak fleet free-slot hosts".into(),
        sim.shard(0).peak_fleet_free_slots().to_string(),
    ]);
    t.row(vec![
        "journal entries dropped".into(),
        sim.journal_dropped().to_string(),
    ]);
    // Epoch accounting is a pure function of the scenario, so it takes
    // part in the byte-identity contract like any other outcome. Only the
    // worker count varies with run configuration; its row carries the
    // "(run config)" marker the determinism suite and the CI matrix mask —
    // the same treatment wall-clock already gets.
    t.row(vec![
        "epoch windows (grid)".into(),
        sim.epoch_windows().to_string(),
    ]);
    t.row(vec![
        "epochs executed / fast-forwarded".into(),
        format!("{} / {}", sim.epochs(), sim.epochs_fast_forwarded()),
    ]);
    t.row(vec![
        "pool workers (run config)".into(),
        sim.window_workers().to_string(),
    ]);
    let mut out = t.render();
    out.push_str(&format!(
        "\n{} controller shards (one per AZ group) run barrier-free between epoch\n\
         boundaries and exchange Lamport-ordered gossip; zone storms are staggered\n\
         so revocation waves hit one shard at a time. The table is byte-identical\n\
         at any --shards/--threads setting (\"(run config)\" rows aside); wall-clock\n\
         lands in BENCH_RESULTS.json\n",
        plan.shards,
    ));
    out
}
