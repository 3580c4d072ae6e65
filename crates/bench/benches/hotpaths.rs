//! Micro-benchmarks of the harness hot paths, self-hosted on `std::time`
//! (the build environment carries no external crates, so this is a
//! `harness = false` stand-in for criterion with the same shape: named
//! benchmarks, warmup, and median-of-samples reporting).
//!
//! ```text
//! cargo bench -p spotcheck-bench --bench hotpaths            # everything
//! cargo bench -p spotcheck-bench --bench hotpaths stepseries # filtered
//! ```
//!
//! Covered (the paths the harness spends its time in):
//! - `StepSeries` window statistics over a six-month generated trace
//!   (`mean_over`, `fraction_where`, `resample`)
//! - `PriceTrace::mean_capped_price` / `revocations_at_bid`
//! - `DirtyModel::sample_dirty` (one checkpoint epoch of page writes)
//! - one quick-scale `run_policy` cell (Figure 10/11/12 inner loop)
//! - `EventQueue` steady-state churn under three deadline distributions:
//!   uniform near-future, bursty same-instant batches, and far-future
//!   pushes days out
//! - the sharded engine's cross-shard channel: epoch barrier + Lamport
//!   flush cost at rising message volume (idle barriers vs flooded ones),
//!   inline and through the persistent worker pool
//! - trace-archive ingest on a million-point trace: the historical
//!   line-at-a-time CSV parser vs the byte scanner vs the columnar `.stl`
//!   decoder, plus `TraceCursor` vs per-lookup binary search on the
//!   monotone price-query stream the simulation issues

use std::hint::black_box;
use std::time::{Duration, Instant};

use spotcheck_core::policy::MappingPolicy;
use spotcheck_core::sim::{run_policy, standard_traces, PolicyExperiment};
use spotcheck_migrate::mechanisms::MechanismKind;
use spotcheck_nestedvm::memory::{DirtyModel, MemoryImage, PAGE_SIZE};
use spotcheck_simcore::queue::EventQueue;
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::shard::{set_shard_workers, ShardCtx, ShardId, ShardWorld, ShardedSim};
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_bench::experiments::trace_library::reference_from_csv;
use spotcheck_simcore::series::StepSeries;
use spotcheck_spotmarket::archive::{TraceCursor, TraceLibrary};
use spotcheck_spotmarket::generator::TraceGenerator;
use spotcheck_spotmarket::market::MarketId;
use spotcheck_spotmarket::profiles::profile_for;
use spotcheck_spotmarket::trace::PriceTrace;

/// Number of timed samples per benchmark (the median is reported).
const SAMPLES: usize = 15;
/// Minimum wall-clock per sample; iterations are batched up to this.
const MIN_SAMPLE: Duration = Duration::from_millis(20);

struct Report {
    name: &'static str,
    median_ns: f64,
    min_ns: f64,
    iters_per_sample: u64,
}

/// Times `f`, batching iterations so each sample runs at least
/// [`MIN_SAMPLE`], and returns per-iteration medians.
fn bench<R>(name: &'static str, mut f: impl FnMut() -> R) -> Report {
    // Warmup + calibration: how many iterations fill MIN_SAMPLE?
    let mut iters: u64 = 1;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let elapsed = start.elapsed();
        if elapsed >= MIN_SAMPLE {
            break;
        }
        let grow = if elapsed.is_zero() {
            16
        } else {
            ((MIN_SAMPLE.as_secs_f64() / elapsed.as_secs_f64()).ceil() as u64).clamp(2, 64)
        };
        iters = iters.saturating_mul(grow);
    }
    let mut per_iter_ns: Vec<f64> = (0..SAMPLES)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    per_iter_ns.sort_by(|a, b| a.total_cmp(b));
    Report {
        name,
        median_ns: per_iter_ns[per_iter_ns.len() / 2],
        min_ns: per_iter_ns[0],
        iters_per_sample: iters,
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns >= 1e9 {
        format!("{:.3} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.3} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.3} us", ns / 1e3)
    } else {
        format!("{ns:.1} ns")
    }
}

/// Steady-state event-queue churn: keep ~1024 events pending; each step
/// pops the earliest event and pushes a replacement `dt` past the popped
/// deadline, with `dt` drawn by `next_dt` from a fixed seed. Returns a
/// checksum so the work cannot be optimized away.
fn queue_churn(pending: usize, steps: usize, mut next_dt: impl FnMut(&mut SimRng) -> u64) -> u64 {
    let mut rng = SimRng::seed(0x0E11_BEEF);
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = 0u64;
    for i in 0..pending {
        let dt = next_dt(&mut rng);
        q.push(SimTime::from_micros(now + dt), i as u64);
    }
    let mut sum = 0u64;
    for i in 0..steps {
        let (t, e) = q.pop().expect("queue stays non-empty");
        now = t.as_micros();
        sum = sum.wrapping_add(now).wrapping_add(e);
        let dt = next_dt(&mut rng);
        q.push(SimTime::from_micros(now + dt), (pending + i) as u64);
    }
    sum
}

/// Uniform near-future deadlines (the common simulation regime: cloud-op
/// latencies, migration phases, trace change points).
fn dt_uniform(rng: &mut SimRng) -> u64 {
    rng.gen_range(1, 3_600_000_000) // up to one hour out
}

/// Bursty same-instant deadlines: revocation storms schedule whole fleets
/// at identical times, so most pushes collide on a handful of instants.
fn dt_bursty(rng: &mut SimRng) -> u64 {
    // 1 ms quantum: all events inside a quantum share one deadline.
    rng.gen_range(1, 64) * 1_000
}

/// Far-future deadlines, ~19 h to ~6 days out (price changes days ahead,
/// horizon guards).
fn dt_far_future(rng: &mut SimRng) -> u64 {
    (1 << 36) + rng.gen_range(0, 86_400_000_000 * 6)
}

/// One shard of the cross-shard channel benchmark: every epoch it ticks
/// once and sends `per_tick` messages round-robin across the fleet, so the
/// barrier exchange flushes `shards x per_tick` envelopes per epoch.
struct Flooder {
    shards: u16,
    per_tick: usize,
    lookahead: SimDuration,
    sent: u64,
    received: u64,
}

impl ShardWorld for Flooder {
    type Event = ();
    type Msg = u64;

    fn handle(&mut self, _e: (), ctx: &mut ShardCtx<'_, '_, (), u64>) {
        let now = ctx.now();
        for k in 0..self.per_tick as u64 {
            let dst = ((self.sent + k) % self.shards as u64) as u16;
            ctx.send(ShardId(dst), now + self.lookahead, self.sent + k);
        }
        self.sent += self.per_tick as u64;
        ctx.after(self.lookahead, ());
    }

    fn on_message(&mut self, _src: ShardId, msg: u64, _ctx: &mut ShardCtx<'_, '_, (), u64>) {
        self.received = self.received.wrapping_add(msg);
    }
}

/// Runs `epochs` barrier rounds over `shards` shards, `per_tick` messages
/// per shard per epoch, on `workers` threads. At one worker the numbers
/// isolate the channel itself (outbox drain, Lamport sort, routed inbound
/// merge); above one they add the persistent pool's per-epoch barrier.
/// Every shard ticks every epoch, so idle-epoch fast-forward never fires.
/// Returns a checksum.
fn shard_flush(shards: u16, per_tick: usize, epochs: u64, workers: usize) -> u64 {
    let lookahead = SimDuration::from_secs(60);
    set_shard_workers(workers);
    let worlds: Vec<Flooder> = (0..shards)
        .map(|_| Flooder {
            shards,
            per_tick,
            lookahead,
            sent: 0,
            received: 0,
        })
        .collect();
    let mut sim = ShardedSim::new(worlds, lookahead);
    for s in 0..shards as usize {
        sim.schedule_at(s, SimTime::ZERO, ());
    }
    sim.run_until(SimTime::ZERO + lookahead * epochs);
    set_shard_workers(0);
    sim.worlds().map(|w| w.received).sum()
}

/// A synthetic million-point trace (generator profiles top out around
/// tens of thousands of change points per market, so the archive rows
/// build their own). Prices are quantized to 4 decimals like the
/// generator's, so the CSV fast path is representative.
fn million_point_trace() -> PriceTrace {
    let mut rng = SimRng::seed(0xA2C4);
    let mut s = StepSeries::new();
    let mut t = 0u64;
    for _ in 0..1_000_000 {
        t += rng.gen_range(1_000_000, 600_000_000); // 1 s .. 10 min apart
        let p = rng.gen_range(1, 100_000) as f64 / 10_000.0;
        s.push(SimTime::from_micros(t), p);
    }
    PriceTrace::new(MarketId::new("m3.large", "us-east-1a"), 0.14, s)
}

fn six_month_trace() -> PriceTrace {
    let profile = profile_for("m3.large").expect("catalog").profile;
    let mut rng = SimRng::seed(0xBEEF);
    TraceGenerator::new(profile).generate(
        MarketId::new("m3.large", "us-east-1a"),
        SimDuration::from_days(183),
        &mut rng,
    )
}

fn main() {
    let filter = std::env::args().nth(1).unwrap_or_default();
    let filter = if filter == "--bench" {
        String::new()
    } else {
        filter
    };

    let trace = six_month_trace();
    let end = SimTime::ZERO + SimDuration::from_days(183);
    let od = trace.on_demand_price;
    println!(
        "trace: m3.large 183d, {} change points; filter={:?}",
        trace.prices.len(),
        filter
    );

    let quick_traces = standard_traces("us-east-1a", SimDuration::from_days(14), 0x5EED_2015);

    let mut reports: Vec<Report> = Vec::new();
    let wanted = |name: &str| name.contains(filter.as_str());

    if wanted("stepseries_mean_over") {
        reports.push(bench("stepseries_mean_over", || {
            trace.prices.mean_over(SimTime::ZERO, end)
        }));
    }
    if wanted("stepseries_fraction_where") {
        reports.push(bench("stepseries_fraction_where", || {
            trace.prices.fraction_where(SimTime::ZERO, end, |p| p <= od)
        }));
    }
    if wanted("stepseries_resample_hourly") {
        reports.push(bench("stepseries_resample_hourly", || {
            trace.resample(SimTime::ZERO, end, SimDuration::from_hours(1))
        }));
    }
    if wanted("trace_mean_capped_price") {
        reports.push(bench("trace_mean_capped_price", || {
            trace.mean_capped_price(od, SimTime::ZERO, end)
        }));
    }
    if wanted("trace_revocations_at_bid") {
        reports.push(bench("trace_revocations_at_bid", || {
            trace.revocations_at_bid(od, SimTime::ZERO, end)
        }));
    }
    if wanted("dirty_sample_epoch") {
        let dirty = DirtyModel::new(50_000, 50_000.0, 0.02);
        let pages = 1 << 18; // 1 GiB at 4 KiB pages
        reports.push(bench("dirty_sample_epoch", || {
            let mut img = MemoryImage::new(pages * PAGE_SIZE);
            let mut rng = SimRng::seed(7);
            dirty.sample_dirty(&mut img, SimDuration::from_secs(1), &mut rng)
        }));
    }
    const QUEUE_STEPS: usize = 65_536;
    // (name, pending depth, deadline distribution). The `storm` row
    // models a fleet-wide revocation: 64k events pending at once, all
    // clustered on millisecond instants.
    type QueueBench = (&'static str, usize, fn(&mut SimRng) -> u64);
    let queue_benches: [QueueBench; 4] = [
        ("queue_uniform", 1024, dt_uniform),
        ("queue_bursty", 1024, dt_bursty),
        ("queue_far_future", 1024, dt_far_future),
        ("queue_storm", 65_536, dt_bursty),
    ];
    for (name, pending, next_dt) in queue_benches {
        if wanted(name) {
            reports.push(bench(name, || queue_churn(pending, QUEUE_STEPS, next_dt)));
        }
    }

    // Cross-shard channel: 8 shards, 256 epoch barriers per iteration.
    // `idle` prices the pure barrier (exchange with empty outboxes);
    // the flooded rows add 8x64 and 8x1024 envelopes per epoch flush.
    const SHARD_EPOCHS: u64 = 256;
    let shard_benches: [(&'static str, usize); 3] = [
        ("shard_flush_idle", 0),
        ("shard_flush_64", 64),
        ("shard_flush_1024", 1024),
    ];
    for (name, per_tick) in shard_benches {
        if wanted(name) {
            reports.push(bench(name, || shard_flush(8, per_tick, SHARD_EPOCHS, 1)));
        }
    }

    // Same workload at 4 workers: `pool_window_*` pays one persistent-pool
    // barrier per epoch; compare against the serial `shard_flush_*` rows to
    // see the coordination cost.
    let window_benches: [(&'static str, usize); 3] = [
        ("pool_window_idle", 0),
        ("pool_window_64", 64),
        ("pool_window_1024", 1024),
    ];
    for (name, per_tick) in window_benches {
        if wanted(name) {
            reports.push(bench(name, || shard_flush(8, per_tick, SHARD_EPOCHS, 4)));
        }
    }

    // Archive ingest: one million-point trace through the three loaders.
    // The inputs are built lazily so cheap filtered runs skip the setup.
    let archive_wanted = ["csv_parse_reference_1m", "csv_parse_scanner_1m", "stl_load_1m"]
        .iter()
        .any(|n| wanted(n));
    if archive_wanted {
        let big = million_point_trace();
        let csv = big.to_csv();
        let stl = TraceLibrary::new(vec![big])
            .expect("single market")
            .to_bytes();
        println!(
            "archive input: 1M points, csv {} bytes, stl {} bytes",
            csv.len(),
            stl.len()
        );
        if wanted("csv_parse_reference_1m") {
            reports.push(bench("csv_parse_reference_1m", || {
                reference_from_csv(&csv).expect("reference parse")
            }));
        }
        if wanted("csv_parse_scanner_1m") {
            reports.push(bench("csv_parse_scanner_1m", || {
                PriceTrace::from_csv(&csv).expect("scanner parse")
            }));
        }
        if wanted("stl_load_1m") {
            reports.push(bench("stl_load_1m", || {
                TraceLibrary::from_bytes(&stl).expect("stl decode")
            }));
        }
    }

    // Price lookups on the monotone query stream the simulation issues:
    // the cursor's amortized-O(1) walk vs a fresh binary search per call.
    if wanted("price_at_cursor_monotone") || wanted("price_at_bsearch_monotone") {
        let big = million_point_trace();
        let start = big.prices.start().expect("non-empty").as_micros();
        let end = big.prices.end().expect("non-empty").as_micros();
        let step = (end - start) / 200_000;
        let queries: Vec<SimTime> = (0..200_000u64)
            .map(|i| SimTime::from_micros(start + i * step))
            .collect();
        if wanted("price_at_cursor_monotone") {
            reports.push(bench("price_at_cursor_monotone", || {
                let cursor = TraceCursor::new();
                let mut sum = 0.0;
                for &t in &queries {
                    sum += cursor.price_at(&big, t).unwrap_or(0.0);
                }
                sum
            }));
        }
        if wanted("price_at_bsearch_monotone") {
            reports.push(bench("price_at_bsearch_monotone", || {
                let mut sum = 0.0;
                for &t in &queries {
                    sum += big.prices.value_at(t).unwrap_or(0.0);
                }
                sum
            }));
        }
    }

    if wanted("policy_cell_quick") {
        reports.push(bench("policy_cell_quick", || {
            let mut exp = PolicyExperiment::paper_default(
                MappingPolicy::FourEd,
                MechanismKind::SpotCheckLazy,
                5,
            );
            exp.horizon = SimDuration::from_days(14);
            run_policy(&quick_traces, &exp)
        }));
    }

    println!(
        "{:<28} {:>12} {:>12} {:>8}",
        "benchmark", "median/iter", "min/iter", "batch"
    );
    println!("{}", "-".repeat(64));
    for r in &reports {
        println!(
            "{:<28} {:>12} {:>12} {:>8}",
            r.name,
            fmt_ns(r.median_ns),
            fmt_ns(r.min_ns),
            r.iters_per_sample
        );
    }
}
