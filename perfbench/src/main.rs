//! SpotCheck benchmark: four workloads driven through the workspace's
//! public APIs, each run checked for correctness.
//!
//! ```text
//! perfbench --workload <fleet_storm|sharded_fabric|daemon_mix|paper_library>
//!           --seed <n> --seconds <s> --trace <0|1> [--size full|tiny] [--workers <n>]
//! ```
//!
//! Inputs are generated from `--seed` before anything is timed. A run
//! repeats the workload's cycle (set-up, timed phase, restore) a fixed
//! number of times, `--seconds` being only a cap, and reports the best
//! cycle of each end-to-end metric. With
//! `--trace 0` the last stdout line carries the end-to-end metrics; with
//! `--trace 1` cycles alternate untraced and traced, and the line carries
//! the per-layer metrics derived from the traced cycles' spans (written to
//! `.bench_out/`). See `README.md` in this directory for the metric table.

mod daemon;
mod fabric;
mod fleet;
mod library;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use trace::{median, percentile, Tracer};

/// Input scale: `Full` is what the benchmark measures; `Tiny` exercises
/// every code path in a fraction of a second (smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

/// Run parameters shared by every workload.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    /// Worker override for `sharded_fabric` (default: 1).
    pub workers: Option<usize>,
    /// Scratch space for archives, snapshots and journal sinks.
    pub work_dir: PathBuf,
    /// Where spans are written when the run ends.
    pub out_dir: PathBuf,
}

impl Ctx {
    /// Runs the workload's cycle: cycle 0 is a warm-up that fills caches
    /// and the allocator and is checked but not measured; `measured`
    /// cycles follow. The count is fixed per workload, so the statistics
    /// see the same number of samples however fast the program runs.
    /// `--seconds` only caps the run: once it has passed, the run ends
    /// after the current cycle (after a traced one in traced runs) and
    /// says so on stderr. In traced runs the measured cycles alternate
    /// untraced/traced, so both halves see the same host conditions.
    /// Returns the number of measured cycles run.
    pub fn cycles(
        &self,
        tr: &mut Tracer,
        measured: u32,
        mut cycle: impl FnMut(&mut Tracer, u32),
    ) -> u32 {
        let deadline = Instant::now() + Duration::from_secs_f64(self.seconds);
        let mut i = 0u32;
        while i <= measured {
            tr.set_enabled(self.trace && i > 0 && i.is_multiple_of(2));
            tr.set_run(i);
            cycle(tr, i);
            // At least one untraced and, in traced runs, one traced cycle.
            let least = if self.trace { 2 } else { 1 };
            let whole = !self.trace || i.is_multiple_of(2);
            if i >= least && i < measured && whole && Instant::now() >= deadline {
                eprintln!(
                    "perfbench: --seconds cap reached after {i} of {measured} measured cycles"
                );
                break;
            }
            i += 1;
        }
        tr.set_enabled(false);
        i.min(measured)
    }
}

/// Set-ups timed per cycle; a cycle's set-up time is their median, so a
/// short set-up is not one noisy sample.
pub const SETUP_REPS: usize = 10;

/// Runs `build` [`SETUP_REPS`] times inside a `setup` span, timing each
/// call; returns the last result and the median time. `prepare` makes the
/// inputs each call consumes and is not timed.
pub fn setup_reps<I, T>(
    tr: &mut Tracer,
    mut prepare: impl FnMut() -> I,
    mut build: impl FnMut(&mut Tracer, I) -> T,
) -> (T, f64) {
    let setup = tr.open("setup");
    let mut samples = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let input = prepare();
        let t0 = Instant::now();
        let out = build(tr, input);
        samples.push(t0.elapsed().as_secs_f64());
        last = Some(out);
    }
    tr.close(setup);
    (last.expect("SETUP_REPS is positive"), median(&samples))
}

/// Failed operations counted against attempted ones.
#[derive(Default)]
pub struct Gate {
    pub attempted: u64,
    pub failed: u64,
}

impl Gate {
    /// Counts one operation; a false `ok` is one failure, reported on
    /// stderr (the first few only).
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Counts `n` operations that all succeeded.
    pub fn ok_n(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Checks that a cycle's deterministic counts equal the first cycle's.
    pub fn same_counts(&mut self, first: &mut Option<Counts>, now: Counts) {
        match first {
            None => *first = Some(now),
            Some(f) => {
                for ((name, a), (_, b)) in f.iter().zip(now.iter()) {
                    self.check(a == b, || {
                        format!("count {name} changed between cycles: {a} -> {b}")
                    });
                }
                self.check(f.len() == now.len(), || {
                    "count set changed between cycles".into()
                });
            }
        }
    }
}

/// Deterministic counts of one cycle, in a fixed order.
pub type Counts = Vec<(&'static str, u64)>;

/// Metrics of one run: name -> (value, unit).
#[derive(Default)]
pub struct Metrics(BTreeMap<String, (f64, &'static str)>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }
}

/// What a workload hands back: metrics for the requested mode, the
/// deterministic counts of its cycles, and its configuration.
pub struct Outcome {
    pub metrics: Metrics,
    pub counts: Counts,
    pub config: Vec<(&'static str, String)>,
}

/// Per-cycle values of the end-to-end metrics (untraced, measured cycles).
#[derive(Default)]
pub struct Phases {
    pub setup_s: Vec<f64>,
    pub run_s: Vec<f64>,
    pub restore_s: Vec<f64>,
    /// Requests completed per second of each cycle's timed phase.
    pub cmds_per_s: Vec<f64>,
    /// Each cycle's median request round trip (µs).
    pub rtt_p50_us: Vec<f64>,
    /// Each cycle's 99th-percentile request round trip (µs).
    pub rtt_p99_us: Vec<f64>,
    /// `run_s` of traced cycles, for the tracing overhead.
    pub traced_run_s: Vec<f64>,
}

impl Phases {
    /// Files one cycle's phase times under traced or untraced (cycle 0,
    /// the warm-up, is only logged). `rtt_us` holds the cycle's request
    /// round trips; every workload issues at least 1000 a cycle, so ten
    /// or more lie beyond the p99.
    pub fn record(
        &mut self,
        cycle: u32,
        traced: bool,
        setup_s: f64,
        run_s: f64,
        restore_s: f64,
        rtt_us: &[f64],
    ) {
        eprintln!(
            "perfbench: cycle {cycle}{}: setup {setup_s:.6} s, run {run_s:.4} s, restore {restore_s:.4} s, {} requests",
            if cycle == 0 { " (warm-up)" } else if traced { " (traced)" } else { "" },
            rtt_us.len(),
        );
        if cycle == 0 {
            return;
        }
        if traced {
            self.traced_run_s.push(run_s);
            return;
        }
        self.setup_s.push(setup_s);
        self.run_s.push(run_s);
        self.restore_s.push(restore_s);
        self.cmds_per_s.push(rtt_us.len() as f64 / run_s);
        self.rtt_p50_us.push(percentile(rtt_us, 50.0));
        self.rtt_p99_us.push(percentile(rtt_us, 99.0));
    }

    /// The end-to-end metrics of every workload: each is the best of the
    /// run's fixed number of measured cycles (least time, least latency,
    /// most requests per second), taken metric by metric. Every cycle
    /// does the same deterministic work, so a change to the program
    /// moves every cycle, the best one included. What moves single cycles
    /// is the host: on a shared VM whose speed drifts with its
    /// neighbours' load for seconds to minutes, the best of a run's cycles
    /// repeats across runs far more closely than their median, which
    /// moves with the share of slow cycles a run happens to get.
    pub fn end_to_end(&self, m: &mut Metrics) {
        let best = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
        m.set("setup_s", best(&self.setup_s), "s");
        m.set("run_s", best(&self.run_s), "s");
        m.set("restore_s", best(&self.restore_s), "s");
        m.set("rtt_p50_us", best(&self.rtt_p50_us), "us");
        m.set("rtt_p99_us", best(&self.rtt_p99_us), "us");
        m.set(
            "cmds_per_s",
            self.cmds_per_s.iter().copied().fold(0.0, f64::max),
            "1/s",
        );
        m.set("peak_rss_mb", peak_rss_mb(), "MiB");
    }

    /// Tracing overhead: traced against untraced `run_s` medians.
    pub fn overhead_pct(&self) -> f64 {
        let base = median(&self.run_s);
        100.0 * (median(&self.traced_run_s) - base) / base
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The per-layer metric names every traced run emits, with units. Each
/// workload declares the ones it owns (`LAYERS` in its module; the
/// `trace.` pair belongs to all) and the others read 0. Must match
/// `per_layer` in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("engine.step_s.ramp", "s"),
    ("engine.step_s.calm", "s"),
    ("engine.step_s.storm", "s"),
    ("engine.step_s.return", "s"),
    ("engine.steps.ramp", "count"),
    ("engine.steps.calm", "count"),
    ("engine.steps.storm", "count"),
    ("engine.steps.return", "count"),
    ("engine.ns_per_step", "ns"),
    ("queue.depth_peak", "count"),
    ("engine.apply_us_p50", "us"),
    ("engine.apply_us_p99", "us"),
    ("controller.revocations", "count"),
    ("controller.migrations", "count"),
    ("controller.returns", "count"),
    ("controller.rereplications", "count"),
    ("controller.vms_lost", "count"),
    ("journal.entries", "count"),
    ("journal.dropped", "count"),
    ("snapshot.encode_s", "s"),
    ("snapshot.bytes", "bytes"),
    ("snapshot.parse_s", "s"),
    ("engine.restore_s", "s"),
    ("engine.replayed_commands", "count"),
    ("shardsim.run_s.ramp", "s"),
    ("shardsim.run_s.storm", "s"),
    ("shardsim.run_s.calm", "s"),
    ("shard.epochs", "count"),
    ("shard.epochs_fast_forwarded", "count"),
    ("shard.messages", "count"),
    ("shard.steps", "count"),
    ("shard.workers", "count"),
    ("contention.migrations_started", "count"),
    ("contention.violations", "count"),
    ("contention.violations_contention", "count"),
    ("contention.violations_queue_wait", "count"),
    ("contention.fallback_yanks", "count"),
    ("contention.queue_wait_ms", "ms"),
    ("service.rtt_us_p50.create_customer", "us"),
    ("service.rtt_us_p50.provision", "us"),
    ("service.rtt_us_p50.release", "us"),
    ("service.rtt_us_p50.status", "us"),
    ("service.rtt_us_p50.metrics", "us"),
    ("service.handle_us_p50.create_customer", "us"),
    ("service.handle_us_p50.provision", "us"),
    ("service.handle_us_p50.release", "us"),
    ("service.handle_us_p50.status", "us"),
    ("service.handle_us_p50.metrics", "us"),
    ("service.wait_us_p50", "us"),
    ("service.snapshot_s", "s"),
    ("service.resume_s", "s"),
    ("json.parse_ns_p50", "ns"),
    ("archive.ingest_s", "s"),
    ("archive.ingest_mb_per_s", "MB/s"),
    ("archive.write_s", "s"),
    ("archive.stl_bytes", "bytes"),
    ("archive.read_s", "s"),
    ("archive.read_points_per_s", "1/s"),
    ("archive.index_s", "s"),
    ("sim.cells", "count"),
    ("sim.run_policy_s", "s"),
    ("sim.cell_ms_p50", "ms"),
    ("sim.cell_ms_p99", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.coverage_pct", "%"),
];

/// Owned per-layer metrics whose honest value can be 0: counts of
/// losses, violations and skipped work. Every other owned metric that
/// reads 0 means the workload stopped measuring its layer.
const MAY_BE_ZERO: &[&str] = &[
    "controller.rereplications",
    "controller.vms_lost",
    "journal.dropped",
    "shard.epochs_fast_forwarded",
    "contention.violations",
    "contention.violations_contention",
    "contention.violations_queue_wait",
    "contention.fallback_yanks",
    "contention.queue_wait_ms",
];

/// The end-to-end metric names, with units. Must match `end_to_end` in
/// `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("restore_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("rtt_p50_us", "us"),
    ("rtt_p99_us", "us"),
    ("cmds_per_s", "1/s"),
];

/// A workload's entry point.
type Workload = fn(&Ctx, &mut Tracer, &mut Gate) -> Outcome;

/// Every workload, the function that runs it, and the per-layer metrics
/// it owns.
const WORKLOADS: &[(&str, Workload, &[&str])] = &[
    ("fleet_storm", fleet::run, fleet::LAYERS),
    ("sharded_fabric", fabric::run, fabric::LAYERS),
    ("daemon_mix", daemon::run, daemon::LAYERS),
    ("paper_library", library::run, library::LAYERS),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    workers: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut size = Size::Full;
    let mut workers = None;
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                seconds = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                }
            }
            "--size" => {
                size = match value()?.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    other => return Err(format!("--size must be full or tiny, not {other}")),
                }
            }
            "--workers" => {
                workers = Some(
                    value()?
                        .parse::<usize>()
                        .map_err(|e| format!("--workers: {e}"))?,
                )
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
        size,
        workers,
    })
}

/// Host and build description recorded with every result.
fn host_config() -> Vec<(&'static str, String)> {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        (
            "nproc",
            spotcheck_simcore::parallel::default_threads().to_string(),
        ),
        ("cpu", cpu),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("commit", env!("PERFBENCH_COMMIT").to_string()),
    ]
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(&(name, run, layers)) = WORKLOADS.iter().find(|(n, ..)| *n == args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let root = std::env::current_dir().expect("current directory is readable");
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.size,
        workers: args.workers,
        work_dir: root
            .join(".bench_work")
            .join(format!("{name}-{}", std::process::id())),
        out_dir: root.join(".bench_out"),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.work_dir) {
        eprintln!("perfbench: cannot create {}: {e}", ctx.work_dir.display());
        return ExitCode::from(1);
    }
    let mut tracer = Tracer::new(name);
    let mut gate = Gate::default();
    let outcome = run(&ctx, &mut tracer, &mut gate);
    let _ = std::fs::remove_dir_all(&ctx.work_dir);

    let mut config = host_config();
    config.push(("workload", name.to_string()));
    config.push(("seed", args.seed.to_string()));
    config.push(("seconds", args.seconds.to_string()));
    config.push(("trace", u8::from(args.trace).to_string()));
    config.push(("size", format!("{:?}", args.size).to_lowercase()));
    config.extend(outcome.config);
    config.push(("layers", layers.join(",")));
    let fields: Vec<String> = config
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"config\": {{{}}}}}", fields.join(", "));
    let counts: Vec<String> = outcome
        .counts
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    println!("{{\"counts\": {{{}}}}}", counts.join(", "));

    if args.trace {
        let path = ctx
            .out_dir
            .join(format!("spans-{name}-seed{}.jsonl", args.seed));
        match tracer.write_jsonl(&path) {
            Ok(()) => eprintln!(
                "perfbench: {} spans written to {}",
                tracer.spans().len(),
                path.display()
            ),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
    }

    // Every end-to-end metric is measured on every workload; a per-layer
    // metric is measured by the workloads that own it. A measured metric
    // that is missing, not finite or 0 (where 0 is not an honest value)
    // is a failed operation, and so is a metric a workload emits without
    // owning it.
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(metric, unit) in wanted {
        let owned = !args.trace || metric.starts_with("trace.") || layers.contains(&metric);
        let value = match (owned, outcome.metrics.0.get(metric)) {
            (true, Some(&(v, u))) => {
                gate.check(u == unit, || {
                    format!("{metric} has unit {u}, expected {unit}")
                });
                gate.check(
                    v.is_finite() && (v != 0.0 || MAY_BE_ZERO.contains(&metric)),
                    || format!("{name} measured {metric} = {v}"),
                );
                v
            }
            (true, None) => {
                gate.check(false, || format!("{name} did not measure {metric}"));
                0.0
            }
            (false, Some(_)) => {
                gate.check(false, || format!("{name} emits {metric} without owning it"));
                0.0
            }
            (false, None) => 0.0,
        };
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(metric),
            json_num(value),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted.max(1),
        gate.failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}
