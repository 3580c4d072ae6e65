//! Contention storm: sweeps revocation-storm size × defense
//! configuration over the fleet-wide bandwidth model and reports the
//! 30 s-guarantee violation rate.
//!
//! The scenario is the oversubscribed backup tier the paper's §5
//! guarantee implicitly assumes away: every VM's checkpoint stream,
//! final commit, re-replication, and lazy restore shares one 1 Gbit AZ
//! aggregate in the max-min-fair fluid model, so a storm's concurrent
//! ~99 MB residue flushes genuinely stretch each other past the bound.
//! Three configurations per storm size:
//!
//! - **off** — the closed-form model (contention disabled): the
//!   guarantee is unbreakable by construction, which is exactly the
//!   blind spot this experiment exists to show.
//! - **undefended** — the fluid model with every defense off: the
//!   violation rate is the honest damage of the storm.
//! - **defended** — EDF admission + load-aware spreading + the
//!   Yank-style pause-and-flush fallback: violations drop, and what
//!   cannot be saved is journaled and charged to availability instead
//!   of silently succeeding.
//!
//! Every run is seeded and closed-form deterministic, so the rendered
//! table is byte-identical at any `--threads` setting.

use spotcheck_core::config::{ContentionConfig, SpotCheckConfig};
use spotcheck_core::driver::SpotCheckSim;
use spotcheck_core::policy::MappingPolicy;
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_simcore::series::StepSeries;
use spotcheck_simcore::time::SimTime;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use super::Scale;
use crate::table::{f, TextTable};

/// The oversubscribed AZ aggregate (bytes/sec) every flow crosses: one
/// 1 Gbit uplink for the whole backup tier.
const AZ_UPLINK_BPS: f64 = 125e6;

/// When the storm's price spike revokes the entire fleet.
const STORM_AT_SECS: u64 = 3_600;

/// Simulation horizon: long enough for every storm casualty to restore,
/// re-protect, and return to spot.
const HORIZON_SECS: u64 = 10_800;

/// One spot market whose price spikes far above the on-demand bid at
/// [`STORM_AT_SECS`], revoking every spot host at once.
fn storm_trace() -> PriceTrace {
    let s = StepSeries::from_points(vec![
        (SimTime::ZERO, 0.014),
        (SimTime::from_secs(STORM_AT_SECS), 0.90),
        (SimTime::from_secs(90_000), 0.014),
    ]);
    PriceTrace::new(MarketId::new("m3.medium", "us-east-1a"), 0.070, s)
}

/// Runs one storm of `n` VMs under `contention` and returns the sim.
fn run_storm(n: usize, contention: ContentionConfig) -> SpotCheckSim {
    let cfg = SpotCheckConfig {
        zone: "us-east-1a".to_string(),
        mapping: MappingPolicy::OneM,
        mechanism: MechanismKind::SpotCheckLazy,
        contention,
        ..SpotCheckConfig::default()
    };
    let mut sim = SpotCheckSim::new(vec![storm_trace()], cfg);
    for _ in 0..n {
        let customer = sim.create_customer();
        sim.request_server(customer, WorkloadKind::TpcW);
    }
    sim.run_until(SimTime::from_secs(HORIZON_SECS));
    sim
}

/// The three defense configurations, each pinned to the oversubscribed
/// AZ uplink.
fn configurations() -> [(&'static str, ContentionConfig); 3] {
    let pin = |base: ContentionConfig| ContentionConfig {
        az_uplink_bps: AZ_UPLINK_BPS,
        ..base
    };
    [
        ("off", ContentionConfig::default()),
        ("undefended", pin(ContentionConfig::enabled_undefended())),
        ("defended", pin(ContentionConfig::enabled_defended())),
    ]
}

/// Runs the contention-storm sweep.
pub fn run(scale: Scale) -> String {
    let storm_sizes: &[usize] = match scale {
        Scale::Full => &[10, 25, 60, 150],
        Scale::Quick => &[10, 25, 60],
    };

    let mut t = TextTable::new(&[
        "storm",
        "defenses",
        "violations",
        "rate",
        "contention",
        "queue_wait",
        "residue_lost",
        "yanks",
        "queued",
        "avg queue (s)",
        "unavail",
    ]);
    for &n in storm_sizes {
        for (name, cc) in configurations() {
            let sim = run_storm(n, cc);
            let r = sim.violation_report();
            let avail = sim.availability_report();
            let avg_queue_s = if r.commits_queued > 0 {
                r.queue_wait_ms as f64 / 1000.0 / r.commits_queued as f64
            } else {
                0.0
            };
            t.row(vec![
                n.to_string(),
                name.into(),
                r.violations.to_string(),
                f(r.violation_rate(), 3),
                r.contention.to_string(),
                r.queue_wait.to_string(),
                r.residue_lost.to_string(),
                r.fallback_yanks.to_string(),
                r.commits_queued.to_string(),
                f(avg_queue_s, 1),
                f(avail.unavailability, 6),
            ]);
        }
    }
    let mut out = t.render();
    out.push_str(
        "\nstorm size x defenses over a shared 1 Gbit AZ aggregate (fluid\n\
         max-min fairness): `off` is the closed-form model whose guarantee\n\
         cannot break; `undefended` shows the storm's honest violation rate;\n\
         `defended` adds EDF admission, load-aware spreading, and the\n\
         pause-and-flush fallback (yanks are journaled and charged to\n\
         availability, never silent)\n",
    );
    out
}
