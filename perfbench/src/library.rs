//! `paper_library`: the trace archive and the analytic policy simulator.
//!
//! Set-up packs a seed-generated CSV library (the m3 family in every
//! standard zone, a month each) with `TraceLibrary::ingest_csv_dir` and
//! `write_stl`. The timed phase reads the archive back with `read_stl` and
//! runs `core::sim::run_policy` for the paper's mapping policies x
//! mechanisms x workloads x two bidding policies over every zone's markets
//! (Figs 10-13, Table 3). The write
//! path is in `setup_s` and the read path in `run_s`, so a codec change
//! that trades one for the other shows. `restore_s` is the archive's cold
//! reload: `read_index`, then `read_stl`.
//!
//! Requests are `run_policy` calls (one grid cell each).

use std::path::Path;
use std::time::Instant;

use spotcheck_core::policy::{BiddingPolicy, MappingPolicy};
use spotcheck_core::sim::{run_policy, PolicyExperiment, PolicyReport};
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_simcore::digest::Digest64;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::SimDuration;
use spotcheck_spotmarket::archive::{read_index, TraceLibrary};
use spotcheck_spotmarket::generator::generate_fleet;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::profiles::{profile_for, standard_zones};
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use crate::trace::{median, percentile, timed, Tracer};
use crate::{Counts, Ctx, Gate, Metrics, Outcome, Phases, Size};

const TYPES: [&str; 4] = ["m3.medium", "m3.large", "m3.xlarge", "m3.2xlarge"];

/// Measured cycles per run: about 0.5 s each.
const CYCLES: u32 = 32;

/// Cold reloads (`read_index` + `read_stl`) timed per cycle.
const RELOAD_REPS: usize = 5;

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "archive.ingest_s",
    "archive.ingest_mb_per_s",
    "archive.write_s",
    "archive.stl_bytes",
    "archive.read_s",
    "archive.read_points_per_s",
    "archive.index_s",
    "sim.cells",
    "sim.run_policy_s",
    "sim.cell_ms_p50",
    "sim.cell_ms_p99",
];

/// Folds a policy report into a digest of the grid's results.
fn fold(d: &mut Digest64, r: &PolicyReport) {
    d.write_f64(r.avg_cost_per_vm_hr);
    d.write_f64(r.availability_pct);
    d.write_f64(r.degradation_pct);
    d.write_f64(r.revocations_per_vm);
}

/// Writes the seed's library as one CSV file per market; returns the
/// generated traces (sorted as ingestion orders them) and the CSV bytes.
fn stage_csv(
    seed: u64,
    zones: &[&str],
    horizon: SimDuration,
    dir: &Path,
) -> (Vec<PriceTrace>, u64) {
    let markets: Vec<_> = zones
        .iter()
        .flat_map(|zone| {
            TYPES.iter().map(move |ty| {
                (
                    MarketId::new(*ty, *zone),
                    profile_for(ty)
                        .expect("m3 family is in the catalog")
                        .profile,
                )
            })
        })
        .collect();
    let mut traces = generate_fleet(
        &markets,
        horizon,
        &SimRng::seed(seed).fork_named("paper_library"),
    );
    traces.sort_by_key(|t| format!("{}.csv", t.market));
    std::fs::create_dir_all(dir).expect("create CSV staging directory");
    let mut bytes = 0u64;
    for t in &traces {
        let csv = t.to_csv();
        bytes += csv.len() as u64;
        std::fs::write(dir.join(format!("{}.csv", t.market)), csv).expect("write staged CSV");
    }
    (traces, bytes)
}

fn same_library(a: &[PriceTrace], b: &[PriceTrace]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.market == y.market
                && x.on_demand_price.to_bits() == y.on_demand_price.to_bits()
                && x.prices.points() == y.prices.points()
        })
}

/// The policy grid run over each zone: the paper's mapping policies x
/// mechanisms (Figs 10-12), for both benchmark workloads, bidding the
/// on-demand price or twice it with proactive migration. 80 cells a zone,
/// 1440 a run, so each cycle's p99 has at least ten samples beyond it.
fn grid() -> Vec<(MappingPolicy, MechanismKind, WorkloadKind, BiddingPolicy)> {
    let biddings = [
        BiddingPolicy::OnDemandPrice,
        BiddingPolicy::KTimesOnDemand {
            k: 2.0,
            proactive: true,
        },
    ];
    let mut cells = Vec::new();
    for mapping in MappingPolicy::ALL {
        for mechanism in MechanismKind::FIGURE_GRID {
            for workload in [WorkloadKind::TpcW, WorkloadKind::SpecJbb] {
                for bidding in biddings {
                    cells.push((mapping, mechanism, workload, bidding));
                }
            }
        }
    }
    cells
}

/// What one timed run measured.
struct RunStats {
    read_s: f64,
    cell_us: Vec<f64>,
    grid_s: f64,
    digest: u64,
    revocations: u64,
}

/// The timed phase: read the archive, run the policy grid over every zone.
fn drive(
    stl: &Path,
    zones: &[&str],
    horizon: SimDuration,
    generated: &[PriceTrace],
    tr: &mut Tracer,
    gate: &mut Gate,
) -> RunStats {
    let (lib, read_s) = timed(|| tr.span("archive.read_stl", |_| TraceLibrary::read_stl(stl)));
    let lib = lib.expect("the archive this run wrote reads back");
    gate.check(same_library(lib.traces(), generated), || {
        "read_stl differs from the generated library".into()
    });
    let mut st = RunStats {
        read_s,
        cell_us: Vec::new(),
        grid_s: 0.0,
        digest: 0,
        revocations: 0,
    };
    let mut d = Digest64::new();
    for zone in zones {
        let traces: Vec<PriceTrace> = lib
            .traces()
            .iter()
            .filter(|t| t.market.zone.as_str() == *zone)
            .cloned()
            .collect();
        for (mapping, mechanism, workload, bidding) in grid() {
            let mut exp = PolicyExperiment::paper_default(mapping, mechanism, 0);
            exp.horizon = horizon;
            exp.workload = workload;
            exp.bidding = bidding;
            let t0 = Instant::now();
            let r = tr.span("sim.run_policy", |_| run_policy(&traces, &exp));
            let dt = t0.elapsed().as_secs_f64();
            st.cell_us.push(dt * 1e6);
            st.grid_s += dt;
            st.revocations += r.pools.iter().map(|p| p.revocations as u64).sum::<u64>();
            gate.check(r.avg_cost_per_vm_hr.is_finite() && r.availability_pct > 0.0, || {
                format!("{zone} {mapping:?} {mechanism:?} {workload:?} {bidding:?}: implausible report")
            });
            fold(&mut d, &r);
        }
    }
    st.digest = d.finish();
    st
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    let all_zones = standard_zones();
    let (zones, horizon) = match ctx.size {
        // A month per market keeps each zone's traces in the core's own
        // caches while its grid runs: at four months the grid's best
        // cycle moved by up to 1.5x between runs minutes apart on a
        // shared host, at one month by 1.25x.
        Size::Full => (&all_zones[..], SimDuration::from_days(30)),
        Size::Tiny => (&all_zones[..2], SimDuration::from_days(14)),
    };
    let csv_dir = ctx.work_dir.join("csv");
    let (generated, csv_bytes) = stage_csv(ctx.seed, zones, horizon, &csv_dir);
    let points: usize = generated.iter().map(|t| t.prices.len()).sum();
    let stl = ctx.work_dir.join("library.stl");

    let mut phases = Phases::default();
    let mut first: Option<Counts> = None;
    let mut counts = Counts::new();
    let (mut ingest_s, mut write_s, mut read_s, mut index_s, mut grid_s) =
        (vec![], vec![], vec![], vec![], vec![]);
    let mut cell_us: Vec<f64> = Vec::new();
    let mut stl_bytes = 0u64;

    let measured = ctx.cycles(tr, CYCLES, |tr, cycle| {
        let on = tr.enabled();
        let _ = std::fs::remove_file(&stl);
        let setup = tr.open("setup");
        let t0 = Instant::now();
        let (lib, ing) = timed(|| {
            tr.span("archive.ingest_csv_dir", |_| {
                TraceLibrary::ingest_csv_dir(&csv_dir)
            })
        });
        let lib = lib.expect("the staged CSV library ingests");
        let (written, wr) = timed(|| tr.span("archive.write_stl", |_| lib.write_stl(&stl)));
        let setup_s = t0.elapsed().as_secs_f64();
        tr.close(setup);
        gate.check(same_library(lib.traces(), &generated), || {
            "ingest differs from the generated library".into()
        });
        gate.check(written.is_ok(), || format!("write_stl: {written:?}"));
        drop(lib);
        stl_bytes = std::fs::metadata(&stl).map_or(0, |m| m.len());

        let run = tr.open("run");
        let (st, run_s) = timed(|| drive(&stl, zones, horizon, &generated, tr, gate));
        tr.close(run);

        // A cold reload takes about 10 ms, so it is timed RELOAD_REPS
        // times and the cycle's value is the median.
        let restore = tr.open("restore");
        let (mut reload_s, mut idx_s) = (Vec::new(), Vec::new());
        for _ in 0..RELOAD_REPS {
            let t0 = Instant::now();
            let (index, s) = timed(|| tr.span("archive.read_index", |_| read_index(&stl)));
            let reloaded = tr.span("archive.read_stl", |_| TraceLibrary::read_stl(&stl));
            reload_s.push(t0.elapsed().as_secs_f64());
            idx_s.push(s);
            gate.check(
                index.as_ref().is_ok_and(|i| i.len() == generated.len()),
                || "read_index disagrees".into(),
            );
            gate.check(
                reloaded.as_ref().is_ok_and(|l| l.total_points() == points),
                || "reload disagrees".into(),
            );
        }
        tr.close(restore);
        let (restore_s, idx_s) = (median(&reload_s), median(&idx_s));

        counts = vec![
            ("archive.markets", generated.len() as u64),
            ("archive.points", points as u64),
            ("archive.stl_bytes", stl_bytes),
            ("sim.cells", st.cell_us.len() as u64),
            ("sim.revocations", st.revocations),
            ("sim.report_digest", st.digest),
        ];
        gate.same_counts(&mut first, counts.clone());
        phases.record(cycle, on, setup_s, run_s, restore_s, &st.cell_us);
        if on {
            ingest_s.push(ing);
            write_s.push(wr);
            read_s.push(st.read_s);
            index_s.push(idx_s);
            grid_s.push(st.grid_s);
            cell_us.extend_from_slice(&st.cell_us);
        }
    });

    let mut m = Metrics::default();
    if !ctx.trace {
        phases.end_to_end(&mut m);
    } else {
        let ingest = median(&ingest_s);
        let read = median(&read_s);
        m.set("archive.ingest_s", ingest, "s");
        m.set(
            "archive.ingest_mb_per_s",
            csv_bytes as f64 / 1e6 / ingest,
            "MB/s",
        );
        m.set("archive.write_s", median(&write_s), "s");
        m.set("archive.stl_bytes", stl_bytes as f64, "bytes");
        m.set("archive.read_s", read, "s");
        m.set("archive.read_points_per_s", points as f64 / read, "1/s");
        m.set("archive.index_s", median(&index_s), "s");
        m.set("sim.cells", counts[3].1 as f64, "count");
        m.set("sim.run_policy_s", median(&grid_s), "s");
        m.set("sim.cell_ms_p50", percentile(&cell_us, 50.0) / 1e3, "ms");
        m.set("sim.cell_ms_p99", percentile(&cell_us, 99.0) / 1e3, "ms");
        m.set("trace.overhead_pct", phases.overhead_pct(), "%");
        m.set("trace.coverage_pct", tr.coverage_pct("run"), "%");
    }
    Outcome {
        metrics: m,
        counts,
        config: vec![
            ("measured_cycles", measured.to_string()),
            ("markets", generated.len().to_string()),
            ("points", points.to_string()),
            ("csv_bytes", csv_bytes.to_string()),
            (
                "workers",
                spotcheck_simcore::parallel::configured_threads().to_string(),
            ),
        ],
    }
}
