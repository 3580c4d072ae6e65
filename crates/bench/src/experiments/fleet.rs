//! Fleet-scale controller stress: tens of thousands of nested VMs driven
//! through the *real* controller over a six-month trace that includes an
//! engineered revocation storm.
//!
//! Unlike the policy experiments (which sweep many small simulations),
//! this experiment runs one simulation at derivative-cloud scale — 50,000
//! nested VMs at `Full` — to exercise the controller's state database and
//! the engine's event queue on their hot paths: first-fit placement scans,
//! price-change fan-out over every host, mass simultaneous revocation, and
//! the return-to-spot wave once the storm abates. Wall-clock, events/sec,
//! and peak queue depth land in `BENCH_RESULTS.json` via the harness's
//! standard instrumentation; the rendered table carries only deterministic
//! simulation outcomes so byte-identical output can be asserted across
//! thread counts.
//!
//! The fleet's own bookkeeping uses the generational
//! [`Slab`](spotcheck_simcore::slab::Slab): mid-run churn releases a slice
//! of VMs and re-requests replacements, recycling slab slots and proving
//! stale handles cannot resurrect released VMs.

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::driver::SpotCheckSim;
use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::types::CustomerId;
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::slab::{Handle, Slab};
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use super::Scale;
use crate::table::{f, TextTable};

/// Fleet sizing for one scale.
struct FleetPlan {
    customers: usize,
    vms_per_customer: usize,
    horizon: SimDuration,
    /// When the churn wave (release + replace) happens.
    churn_at: SimTime,
    /// When the engineered price storm begins.
    storm_at: SimTime,
}

impl FleetPlan {
    fn for_scale(scale: Scale) -> Self {
        match scale {
            // 250 customers x 200 VMs = 50,000 nested VMs. 200 initial plus
            // the churn wave's ~10 replacements per customer stays under the
            // 254-host capacity of each customer's /24 subnet (replacement
            // VMs allocate fresh private IPs; the VPC never reclaims them).
            Scale::Full => FleetPlan {
                customers: 250,
                vms_per_customer: 200,
                horizon: SimDuration::from_days(183),
                churn_at: SimTime::ZERO + SimDuration::from_days(60),
                storm_at: SimTime::ZERO + SimDuration::from_days(91),
            },
            // 20 x 100 = 2,000 VMs over two weeks for smoke tests.
            Scale::Quick => FleetPlan {
                customers: 20,
                vms_per_customer: 100,
                horizon: SimDuration::from_days(14),
                churn_at: SimTime::ZERO + SimDuration::from_days(5),
                storm_at: SimTime::ZERO + SimDuration::from_days(7),
            },
        }
    }

    fn fleet_size(&self) -> usize {
        self.customers * self.vms_per_customer
    }
}

/// Builds the six-month m3.medium trace: an hourly random walk well below
/// the on-demand bid (no organic revocations) with one storm window where
/// the price spikes far above it, revoking the entire fleet at once.
fn storm_trace(plan: &FleetPlan) -> PriceTrace {
    const BASE: f64 = 0.014;
    const ON_DEMAND: f64 = 0.070;
    const STORM_PRICE: f64 = 0.900;
    let storm_len = SimDuration::from_hours(2);
    let mut rng = SimRng::seed(0xF1EE7);
    let mut points: Vec<(SimTime, f64)> = Vec::new();
    let mut price = BASE;
    let hours = plan.horizon.as_micros() / 3_600_000_000;
    for h in 0..hours {
        let t = SimTime::from_secs(h * 3600);
        if t >= plan.storm_at && t < plan.storm_at + storm_len {
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
        MarketId::new("m3.medium", "us-east-1a"),
        ON_DEMAND,
        StepSeries::from_points(points),
    )
}

/// One fleet entry: enough to release and replace the VM later.
struct Tracked {
    customer: CustomerId,
    vm: NestedVmId,
}

/// Runs the fleet experiment.
pub fn run(scale: Scale) -> String {
    let plan = FleetPlan::for_scale(scale);
    let cfg = SpotCheckConfig {
        zone: "us-east-1a".to_string(),
        mapping: MappingPolicy::OneM,
        mechanism: MechanismKind::SpotCheckLazy,
        ..SpotCheckConfig::default()
    };
    let mut sim = SpotCheckSim::new(vec![storm_trace(&plan)], cfg);

    // Fleet bookkeeping in a generational slab: handles are stable across
    // churn, and freed slots are recycled for replacement VMs.
    let mut fleet: Slab<Tracked> = Slab::new();
    let mut handles: Vec<Handle> = Vec::with_capacity(plan.fleet_size());

    // Ramp the fleet up customer by customer, advancing the clock five
    // minutes between batches so provisioning staggers instead of landing
    // on one instant.
    for _ in 0..plan.customers {
        let customer = sim.create_customer();
        for _ in 0..plan.vms_per_customer {
            let vm = sim.request_server(customer, WorkloadKind::TpcW);
            handles.push(fleet.insert(Tracked { customer, vm }));
        }
        let next = sim.now() + SimDuration::from_secs(300);
        sim.run_until(next);
    }

    // Churn wave: release every 20th VM, let the releases settle for an
    // hour, then request replacements. Freed slab slots are reused and the
    // stale handles must stay dead (generation bump).
    sim.run_until(plan.churn_at);
    let mut churned: Vec<(usize, Handle, CustomerId)> = Vec::new();
    for i in (0..handles.len()).step_by(20) {
        let old = handles[i];
        let t = fleet.remove(old).expect("tracked VM is live");
        sim.release_server(t.vm).expect("fleet VM is releasable");
        churned.push((i, old, t.customer));
    }
    let churn_count = churned.len();
    sim.run_until(plan.churn_at + SimDuration::from_hours(1));
    for (i, old, customer) in churned {
        let vm = sim.request_server(customer, WorkloadKind::TpcW);
        handles[i] = fleet.insert(Tracked { customer, vm });
        assert!(fleet.get(old).is_none(), "stale handle must not resurrect");
    }

    // Through the storm and out the other side.
    sim.run_until(SimTime::ZERO + plan.horizon);

    let avail = sim.availability_report();
    let cost = sim.cost_report();
    let counters = sim.journal().counters();

    let mut t = TextTable::new(&["metric", "value"]);
    t.row(vec!["nested VMs".into(), plan.fleet_size().to_string()]);
    t.row(vec!["customers".into(), plan.customers.to_string()]);
    t.row(vec![
        "horizon (days)".into(),
        format!("{:.0}", plan.horizon.as_secs_f64() / 86_400.0),
    ]);
    t.row(vec!["churned + replaced".into(), churn_count.to_string()]);
    t.row(vec!["revocations".into(), avail.revocations.to_string()]);
    t.row(vec!["migrations".into(), avail.migrations.to_string()]);
    t.row(vec![
        "returns completed".into(),
        counters.returns_completed.to_string(),
    ]);
    t.row(vec![
        "re-replications".into(),
        counters.rereplications_completed.to_string(),
    ]);
    t.row(vec!["VMs lost".into(), counters.vms_lost.to_string()]);
    t.row(vec!["unavailability".into(), f(avail.unavailability, 6)]);
    t.row(vec!["degradation".into(), f(avail.degradation, 6)]);
    t.row(vec!["cost ($/VM-hr)".into(), f(cost.cost_per_vm_hr, 5)]);
    // Surfaced so a fleet that outgrows the journal's record cap is loud:
    // entries beyond the cap are dropped (counters stay exact), and at
    // million-VM scale that truncation must be visible, not silent.
    t.row(vec![
        "journal entries dropped".into(),
        sim.journal().dropped().to_string(),
    ]);
    // The sharded sibling (`fleet_sharded`) reports epoch-window and pool
    // accounting here; this experiment runs the flat single-queue engine,
    // where those metrics do not exist — said explicitly so the two
    // tables stay comparable.
    t.row(vec![
        "engine".into(),
        "flat single-queue (no epochs/pool)".into(),
    ]);
    let mut out = t.render();
    out.push_str(&format!(
        "\none controller simulation at fleet scale: a {}-VM fleet rides a {:.0}-day\n\
         trace whose storm window revokes every spot host at once (wall-clock,\n\
         events/sec, and peak queue depth are reported in BENCH_RESULTS.json)\n",
        plan.fleet_size(),
        plan.horizon.as_secs_f64() / 86_400.0,
    ));
    out
}
