//! `daemon_mix`: `service::Daemon::run` on loopback at a fixed `accel`.
//!
//! One client thread holds `nproc` connections, each a closed loop with
//! one request outstanding, and sends a fixed, seed-generated script of
//! writes (`create_customer`, `provision`, `release`) mixed with reads
//! (`status`, `metrics`). The only workload with socket I/O, JSON parsing
//! and journal-sink writes on the request path. After a `shutdown` the
//! daemon's final snapshot and sink tail go through `Daemon::resume`,
//! whose engine restore is signature-verified.
//!
//! Handle times come from replaying the same script in-process through
//! `Daemon::handle_line` and `Daemon::advance_to`; round trip minus
//! handle time is the wait the daemon's poll loop adds.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::Path;
use std::time::Instant;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::Scenario;
use spotcheck_core::sim::standard_traces;
use spotcheck_service::json::parse_object;
use spotcheck_service::{Daemon, DaemonConfig};
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::{SimDuration, SimTime};

use crate::trace::{median, percentile, timed, Tracer};
use crate::{setup_reps, Counts, Ctx, Gate, Metrics, Outcome, Phases, Size};

/// Simulated seconds per wall second.
const ACCEL: f64 = 60.0;

/// Commands per cycle: at least 1000, so each cycle's p99 has ten
/// samples beyond it.
const COMMANDS: usize = 2000;

/// Measured cycles per run: about 2.4 s each.
const CYCLES: u32 = 8;

/// `Daemon::resume` calls timed per cycle.
const RESUME_REPS: usize = 5;

/// The per-layer metrics this workload measures.
pub const LAYERS: &[&str] = &[
    "service.rtt_us_p50.create_customer",
    "service.rtt_us_p50.provision",
    "service.rtt_us_p50.release",
    "service.rtt_us_p50.status",
    "service.rtt_us_p50.metrics",
    "service.handle_us_p50.create_customer",
    "service.handle_us_p50.provision",
    "service.handle_us_p50.release",
    "service.handle_us_p50.status",
    "service.handle_us_p50.metrics",
    "service.wait_us_p50",
    "service.snapshot_s",
    "service.resume_s",
    "json.parse_ns_p50",
];

const VERBS: [&str; 5] = [
    "create_customer",
    "provision",
    "release",
    "status",
    "metrics",
];

/// One scripted request. Ids are connection-local indices (the `j`th
/// customer or VM this connection created), resolved from the daemon's
/// responses at run time, so the script is independent of how the
/// connections interleave.
#[derive(Clone, Copy, Debug)]
enum Op {
    CreateCustomer,
    Provision { customer: usize },
    Release { vm: usize },
    Status,
    Metrics,
}

impl Op {
    fn verb(self) -> usize {
        match self {
            Op::CreateCustomer => 0,
            Op::Provision { .. } => 1,
            Op::Release { .. } => 2,
            Op::Status => 3,
            Op::Metrics => 4,
        }
    }
}

/// The seed's script for `conns` connections of `per_conn` requests each.
fn script(seed: u64, conns: usize, per_conn: usize) -> Vec<Vec<Op>> {
    let root = SimRng::seed(seed).fork_named("daemon_mix");
    (0..conns)
        .map(|c| {
            let mut rng = root.fork_named(&format!("conn{c}"));
            let mut ops = vec![Op::CreateCustomer];
            let (mut customers, mut vms, mut live) = (1usize, 0usize, Vec::<usize>::new());
            while ops.len() < per_conn {
                let roll = rng.gen_range(0, 100);
                let op = if roll < 5 {
                    customers += 1;
                    Op::CreateCustomer
                } else if roll < 45 || (roll < 60 && live.is_empty()) {
                    // Spread VMs over customers, well inside a /24 subnet.
                    let customer = rng.gen_range(0, customers as u64) as usize;
                    live.push(vms);
                    vms += 1;
                    Op::Provision { customer }
                } else if roll < 60 {
                    let i = rng.gen_range(0, live.len() as u64) as usize;
                    Op::Release {
                        vm: live.swap_remove(i),
                    }
                } else if roll < 90 {
                    Op::Status
                } else {
                    Op::Metrics
                };
                ops.push(op);
            }
            ops
        })
        .collect()
}

/// Per-connection id tables filled from responses.
#[derive(Default, Clone)]
struct Ids {
    customers: Vec<u64>,
    vms: Vec<u64>,
}

fn request_line(op: Op, ids: &Ids) -> String {
    match op {
        Op::CreateCustomer => "{\"op\": \"create_customer\"}".to_string(),
        Op::Provision { customer } => {
            format!(
                "{{\"op\": \"provision\", \"customer\": {}, \"workload\": \"tpcw\"}}",
                ids.customers[customer]
            )
        }
        Op::Release { vm } => format!("{{\"op\": \"release\", \"vm\": {}}}", ids.vms[vm]),
        Op::Status => "{\"op\": \"status\"}".to_string(),
        Op::Metrics => "{\"op\": \"metrics\"}".to_string(),
    }
}

/// Checks a response and records any id it returns.
fn absorb(op: Op, response: &str, ids: &mut Ids, gate: &mut Gate) {
    let ok = response.starts_with("{\"ok\": true");
    gate.check(ok, || format!("{op:?} answered {response}"));
    if !ok {
        return;
    }
    let field = match op {
        Op::CreateCustomer => "customer",
        Op::Provision { .. } => "vm",
        _ => return,
    };
    let id = parse_object(response)
        .ok()
        .and_then(|m| m.get(field).and_then(|v| v.as_u64()));
    gate.check(id.is_some(), || {
        format!("{op:?} answered without {field}: {response}")
    });
    if let Some(id) = id {
        match op {
            Op::CreateCustomer => ids.customers.push(id),
            _ => ids.vms.push(id),
        }
    }
}

fn scenario(seed: u64) -> Scenario {
    let zone = "us-east-1a";
    Scenario::new(
        standard_traces(zone, SimDuration::from_days(14), seed),
        SpotCheckConfig {
            zone: zone.to_string(),
            seed,
            ..SpotCheckConfig::default()
        },
    )
}

fn daemon_config(dir: &Path) -> DaemonConfig {
    DaemonConfig {
        accel: ACCEL,
        horizon: SimTime::from_days(1),
        snapshot_dir: Some(dir.join("snapshots")),
        snapshot_every: SimDuration::from_days(1),
        journal_sink: Some(dir.join("journal.jsonl")),
    }
}

/// Copies a stopped daemon's snapshots and journal sink from `from` to
/// `to`, where a resume can consume them.
fn copy_state(from: &Path, to: &Path) {
    let snapshots = to.join("snapshots");
    std::fs::create_dir_all(&snapshots).expect("create resume directory");
    for entry in std::fs::read_dir(from.join("snapshots")).expect("snapshots were written") {
        let path = entry.expect("readable snapshot entry").path();
        let name = path.file_name().expect("snapshot file name");
        std::fs::copy(&path, snapshots.join(name)).expect("copy snapshot");
    }
    std::fs::copy(from.join("journal.jsonl"), to.join("journal.jsonl")).expect("copy sink");
}

/// The closed loop: every connection sends its script one request at a
/// time. Returns per-request (verb, round trip µs).
fn closed_loop(
    addr: std::net::SocketAddr,
    script: &[Vec<Op>],
    tr: &mut Tracer,
    gate: &mut Gate,
) -> Vec<(usize, f64)> {
    let mut conns: Vec<(TcpStream, BufReader<TcpStream>)> = script
        .iter()
        .map(|_| {
            let s = TcpStream::connect(addr).expect("daemon accepts on loopback");
            s.set_nodelay(true).expect("set TCP_NODELAY");
            let r = BufReader::new(s.try_clone().expect("clone client socket"));
            (s, r)
        })
        .collect();
    let mut ids = vec![Ids::default(); script.len()];
    let mut pos = vec![0usize; script.len()];
    let mut sent_at = vec![Instant::now(); script.len()];
    let mut samples = Vec::with_capacity(script.iter().map(Vec::len).sum());
    let mut open: Vec<Option<usize>> = vec![None; script.len()];
    for c in 0..script.len() {
        let mut line = request_line(script[c][0], &ids[c]);
        line.push('\n');
        open[c] = tr.open_detached("service.request");
        sent_at[c] = Instant::now();
        conns[c]
            .0
            .write_all(line.as_bytes())
            .expect("request write");
    }
    let mut remaining = script.len();
    let mut response = String::new();
    while remaining > 0 {
        for c in 0..script.len() {
            if pos[c] >= script[c].len() {
                continue;
            }
            response.clear();
            conns[c].1.read_line(&mut response).expect("response read");
            let rtt = sent_at[c].elapsed().as_secs_f64() * 1e6;
            tr.close_detached(open[c].take());
            let op = script[c][pos[c]];
            samples.push((op.verb(), rtt));
            absorb(op, response.trim_end(), &mut ids[c], gate);
            pos[c] += 1;
            if pos[c] == script[c].len() {
                remaining -= 1;
                continue;
            }
            let mut line = request_line(script[c][pos[c]], &ids[c]);
            line.push('\n');
            open[c] = tr.open_detached("service.request");
            sent_at[c] = Instant::now();
            conns[c]
                .0
                .write_all(line.as_bytes())
                .expect("request write");
        }
    }
    samples
}

/// In-process replay of the script through `handle_line`, round-robin
/// over connections, advancing the clock as the poll loop would. Returns
/// per-request (verb, handle µs).
fn replay_in_process(
    scenario: &Scenario,
    dir: &Path,
    script: &[Vec<Op>],
    gate: &mut Gate,
) -> Vec<(usize, f64)> {
    std::fs::create_dir_all(dir).expect("create replay directory");
    let mut daemon = Daemon::new(scenario.clone(), daemon_config(dir)).expect("daemon builds");
    let tick = SimDuration::from_secs_f64(ACCEL * 0.002);
    let mut ids = vec![Ids::default(); script.len()];
    let mut out = Vec::new();
    let longest = script.iter().map(Vec::len).max().unwrap_or(0);
    let mut t = SimTime::ZERO;
    for i in 0..longest {
        t += tick;
        daemon.advance_to(t);
        for (c, ops) in script.iter().enumerate() {
            let Some(&op) = ops.get(i) else { continue };
            let line = request_line(op, &ids[c]);
            let t0 = Instant::now();
            let response = daemon.handle_line(&line);
            out.push((op.verb(), t0.elapsed().as_secs_f64() * 1e6));
            absorb(op, &response, &mut ids[c], gate);
        }
    }
    out
}

fn verb_p50(samples: &[(usize, f64)], verb: usize) -> f64 {
    let v: Vec<f64> = samples
        .iter()
        .filter(|s| s.0 == verb)
        .map(|s| s.1)
        .collect();
    median(&v)
}

pub fn run(ctx: &Ctx, tr: &mut Tracer, gate: &mut Gate) -> Outcome {
    let conns = spotcheck_simcore::parallel::default_threads();
    let per_conn = match ctx.size {
        Size::Full => COMMANDS.div_ceil(conns),
        Size::Tiny => 40,
    };
    let script = script(ctx.seed, conns, per_conn);
    let lines: Vec<String> = script
        .iter()
        .flat_map(|ops| {
            ops.iter().map(|&op| {
                request_line(
                    op,
                    &Ids {
                        customers: vec![0; 1000],
                        vms: vec![0; 1000],
                    },
                )
            })
        })
        .collect();
    let scenario = scenario(ctx.seed);
    let requests: usize = script.iter().map(Vec::len).sum();

    let mut phases = Phases::default();
    let mut first: Option<Counts> = None;
    let mut counts = Counts::new();
    let mut rtt_traced: Vec<(usize, f64)> = Vec::new();
    let mut handle: Vec<(usize, f64)> = Vec::new();
    let mut parse_ns: Vec<f64> = Vec::new();
    let (mut snapshot_s, mut resume_s) = (Vec::new(), Vec::new());

    let measured = ctx.cycles(tr, CYCLES, |tr, cycle| {
        let on = tr.enabled();
        let dir = ctx.work_dir.join(format!("cycle{cycle}"));
        std::fs::create_dir_all(&dir).expect("create daemon directory");
        let ((mut daemon, listener), setup_s) = setup_reps(
            tr,
            || (),
            |tr, ()| {
                tr.span("daemon.new", |_| {
                    let d =
                        Daemon::new(scenario.clone(), daemon_config(&dir)).expect("daemon builds");
                    let l = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
                    (d, l)
                })
            },
        );
        let addr = listener.local_addr().expect("listener address");
        let server = std::thread::spawn(move || {
            let r = daemon.run(listener);
            (daemon, r)
        });

        let run = tr.open("run");
        let (samples, run_s) = timed(|| closed_loop(addr, &script, tr, gate));
        tr.close(run);
        let mut stop = TcpStream::connect(addr).expect("connect for shutdown");
        stop.write_all(b"{\"op\": \"shutdown\"}\n")
            .expect("send shutdown");
        let mut ack = String::new();
        BufReader::new(stop)
            .read_line(&mut ack)
            .expect("shutdown ack");
        gate.check(ack.starts_with("{\"ok\": true"), || {
            format!("shutdown answered {ack}")
        });
        let (mut daemon, result) = server.join().expect("daemon thread exits cleanly");
        gate.check(result.is_ok(), || format!("daemon run failed: {result:?}"));
        let signature = daemon.engine().state_signature();
        let commands = daemon.engine().command_log().len() as u64;

        if on {
            let (r, s) = timed(|| tr.span("daemon.write_snapshot", |_| daemon.write_snapshot()));
            gate.check(matches!(r, Ok(Some(_))), || {
                format!("write_snapshot: {r:?}")
            });
            snapshot_s.push(s);
        }
        drop(daemon);

        // A resume takes about 20 ms, so it is timed RESUME_REPS times,
        // each from its own copy of the stopped daemon's snapshots and
        // sink (copied untimed; `Daemon::resume` truncates the sink it
        // reopens), and the cycle's value is the median.
        let restore = tr.open("restore");
        let mut times = Vec::with_capacity(RESUME_REPS);
        for k in 0..RESUME_REPS {
            let copy = dir.join(format!("resume{k}"));
            copy_state(&dir, &copy);
            let (resumed, s) = timed(|| {
                tr.span("daemon.resume", |_| {
                    Daemon::resume(scenario.clone(), daemon_config(&copy))
                })
            });
            times.push(s);
            match &resumed {
                Ok(d) => gate.check(d.engine().state_signature() == signature, || {
                    "resumed signature differs".into()
                }),
                Err(e) => gate.check(false, || format!("resume failed: {e}")),
            }
        }
        tr.close(restore);
        let restore_s = median(&times);
        if on {
            resume_s.push(restore_s);
        }

        let mut per_verb = [0u64; 5];
        for &(v, _) in &samples {
            per_verb[v] += 1;
        }
        counts = vec![
            ("requests", samples.len() as u64),
            ("create_customer", per_verb[0]),
            ("provision", per_verb[1]),
            ("release", per_verb[2]),
            ("status", per_verb[3]),
            ("metrics", per_verb[4]),
            ("engine.commands", commands),
        ];
        gate.same_counts(&mut first, counts.clone());
        let rtt: Vec<f64> = samples.iter().map(|s| s.1).collect();
        phases.record(cycle, on, setup_s, run_s, restore_s, &rtt);
        if on {
            rtt_traced.extend_from_slice(&samples);
            handle.extend(replay_in_process(
                &scenario,
                &dir.join("replay"),
                &script,
                gate,
            ));
            for line in &lines {
                let t0 = Instant::now();
                let parsed = parse_object(line);
                parse_ns.push(t0.elapsed().as_nanos() as f64);
                gate.check(parsed.is_ok(), || {
                    format!("script line does not parse: {line}")
                });
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    });

    let mut m = Metrics::default();
    if !ctx.trace {
        phases.end_to_end(&mut m);
    } else {
        for (v, verb) in VERBS.iter().enumerate() {
            m.set(
                format!("service.rtt_us_p50.{verb}"),
                verb_p50(&rtt_traced, v),
                "us",
            );
            m.set(
                format!("service.handle_us_p50.{verb}"),
                verb_p50(&handle, v),
                "us",
            );
        }
        let rtt: Vec<f64> = rtt_traced.iter().map(|s| s.1).collect();
        let h: Vec<f64> = handle.iter().map(|s| s.1).collect();
        m.set("service.wait_us_p50", median(&rtt) - median(&h), "us");
        m.set("service.snapshot_s", median(&snapshot_s), "s");
        m.set("service.resume_s", median(&resume_s), "s");
        m.set("json.parse_ns_p50", percentile(&parse_ns, 50.0), "ns");
        m.set("trace.overhead_pct", phases.overhead_pct(), "%");
        m.set("trace.coverage_pct", tr.coverage_pct("run"), "%");
    }
    Outcome {
        metrics: m,
        counts,
        config: vec![
            ("measured_cycles", measured.to_string()),
            ("connections", conns.to_string()),
            ("requests_per_cycle", requests.to_string()),
            ("accel", ACCEL.to_string()),
            ("workers", "1".to_string()),
        ],
    }
}
