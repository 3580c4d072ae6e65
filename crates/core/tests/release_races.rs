//! Releases that race provisioning: a VM released while its host is still
//! booting, or while its network identity is still attaching, must stay
//! released, and a host booted only for it must be given back.

use spotcheck_cloudsim::ids::InstanceId;
use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::{Command, CommandOutcome, Engine, Scenario};
use spotcheck_core::policy::{MappingPolicy, PlacementPolicy};
use spotcheck_core::types::{CustomerId, VmStatus};
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::SimTime;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

const ZONE: &str = "us-east-1a";

fn calm_medium() -> PriceTrace {
    PriceTrace::new(
        MarketId::new("m3.medium", ZONE),
        0.070,
        StepSeries::from_points(vec![(SimTime::ZERO, 0.014)]),
    )
}

fn engine() -> Engine {
    let config = SpotCheckConfig {
        zone: ZONE.to_string(),
        ..SpotCheckConfig::default()
    };
    with_customer(Scenario::new(vec![calm_medium()], config).build())
}

fn with_customer(mut engine: Engine) -> Engine {
    engine
        .apply(Command::CreateCustomer)
        .expect("create_customer");
    engine
}

fn provision(engine: &mut Engine) -> NestedVmId {
    match engine.apply(Command::Provision {
        customer: CustomerId(0),
        workload: WorkloadKind::TpcW,
        stateless: false,
    }) {
        Ok(CommandOutcome::Vm(vm)) => vm,
        other => panic!("provision: {other:?}"),
    }
}

#[test]
fn release_while_the_host_boots_is_not_resurrected() {
    let mut engine = engine();
    let vm = provision(&mut engine);
    engine.drain_ready();
    // The spot host requested for the VM is still booting (100-409 s).
    let host = engine
        .controller()
        .cloud()
        .instance(InstanceId(0))
        .expect("the VM's host was requested");
    assert!(!host.is_terminated());
    engine.step_until(SimTime::from_secs(1));
    engine.apply(Command::Release { vm }).expect("release");
    engine.step_until(SimTime::from_hours(1));

    let record = engine.controller().vm(vm).unwrap();
    assert_eq!(record.status, VmStatus::Released);
    assert_eq!(record.host, None);
    let host = engine.controller().cloud().instance(InstanceId(0)).unwrap();
    assert!(
        host.is_terminated(),
        "the empty host is given back: {:?}",
        host.state
    );
}

#[test]
fn release_while_attaching_is_not_resurrected() {
    // A cheap sliced m3.large host keeps running after the release (its
    // other slot is occupied), so the attach completes.
    let large = PriceTrace::new(
        MarketId::new("m3.large", ZONE),
        0.140,
        StepSeries::from_points(vec![(SimTime::ZERO, 0.016)]),
    );
    let config = SpotCheckConfig {
        zone: ZONE.to_string(),
        mapping: MappingPolicy::TwoML,
        placement: PlacementPolicy::GreedyCheapest,
        ..SpotCheckConfig::default()
    };
    let mut engine = with_customer(Scenario::new(vec![calm_medium(), large], config).build());
    let first = provision(&mut engine);
    engine.step_until(SimTime::from_secs(600));
    assert_eq!(
        engine.controller().vm(first).unwrap().status,
        VmStatus::Running
    );

    // The second VM joins the free slot at once and starts attaching.
    let second = provision(&mut engine);
    engine.drain_ready();
    let record = engine.controller().vm(second).unwrap();
    assert_eq!(record.host, engine.controller().vm(first).unwrap().host);
    assert_eq!(record.status, VmStatus::Provisioning, "attach takes time");
    engine
        .apply(Command::Release { vm: second })
        .expect("release");
    engine.step_until(SimTime::from_hours(1));

    let record = engine.controller().vm(second).unwrap();
    assert_eq!(record.status, VmStatus::Released);
    assert_eq!(record.host, None);
    assert_eq!(engine.controller().status_counts().get("running"), Some(&1));
}
