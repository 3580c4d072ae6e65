//! # spotcheck-service
//!
//! `spotcheckd`: the SpotCheck simulation as a long-running service
//! instead of a batch run. The daemon owns a resumable
//! [`Engine`](spotcheck_core::engine::Engine), paces simulated time
//! against the wall clock (real-time or accelerated by `--accel N`),
//! and serves a line-delimited JSON protocol over TCP:
//!
//! ```text
//! -> {"op": "create_customer"}
//! <- {"ok": true, "customer": 0}
//! -> {"op": "provision", "customer": 0, "workload": "tpcw"}
//! <- {"ok": true, "vm": 0}
//! -> {"op": "metrics"}            (or the literal line `GET metrics`)
//! <- {"ok": true, "now_secs": 512.0, "availability_pct": 100, ...}
//! -> {"op": "snapshot"}
//! <- {"ok": true, "path": "...", "taken_at_secs": 512.0}
//! -> {"op": "shutdown"}
//! <- {"ok": true, "shutting_down": true}
//! ```
//!
//! Other verbs: `status`, `release` (`{"vm": N}`), `policy`
//! (`{"return_to_spot": bool}`).
//!
//! Durability comes from two pieces working together: periodic logical
//! [snapshots](spotcheck_core::snapshot) and the journal's JSONL spill
//! sink, whose `command` records past the snapshot are the replay tail.
//! A cold start (`--resume`) loads the newest snapshot, replays the tail
//! from the sink, and continues — converging on the exact state of the
//! interrupted run (verified by state signature).
//!
//! This crate is the only one in the workspace allowed `unsafe`: a
//! single `signal(2)` FFI call to latch SIGTERM/SIGINT into an atomic
//! flag so an orchestrator's stop turns into a flush + final snapshot
//! instead of lost state.

#![warn(missing_docs)]

pub mod json;

use std::collections::BTreeMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::mpsc::{self, SyncSender};
use std::thread::ScopedJoinHandle;
use std::time::{Duration, Instant};

use spotcheck_bench::report::{json_f64, json_str};
use spotcheck_core::engine::{Command, CommandOutcome, Engine, Scenario, TimedCommand};
use spotcheck_core::snapshot::Snapshot;
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_workloads::WorkloadKind;

use crate::json::Value;

/// Graceful-shutdown signal latch (SIGTERM/SIGINT → atomic flag).
#[cfg(unix)]
pub mod signal {
    use std::sync::atomic::{AtomicBool, Ordering};

    static SHUTDOWN: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_signal(_sig: i32) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }

    /// Installs the SIGTERM/SIGINT handler. Idempotent.
    pub fn install() {
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        // SAFETY: `on_signal` only stores to an atomic, which is
        // async-signal-safe; the handler pointer outlives the process.
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }

    /// True once a termination signal has been received.
    pub fn requested() -> bool {
        SHUTDOWN.load(Ordering::SeqCst)
    }
}

/// Stub for non-unix targets: no signals, never requested.
#[cfg(not(unix))]
pub mod signal {
    /// No-op.
    pub fn install() {}

    /// Always false.
    pub fn requested() -> bool {
        false
    }
}

/// Daemon configuration (everything but the scenario and the socket).
#[derive(Debug, Clone)]
pub struct DaemonConfig {
    /// Simulated seconds per wall-clock second (1.0 = real time).
    pub accel: f64,
    /// Simulation horizon; pacing stops advancing here (the daemon keeps
    /// serving queries until shutdown).
    pub horizon: SimTime,
    /// Where periodic and final snapshots go (None disables them).
    pub snapshot_dir: Option<PathBuf>,
    /// Simulated time between periodic snapshots.
    pub snapshot_every: SimDuration,
    /// JSONL journal spill sink path (None disables it — and with it the
    /// replay tail, leaving only snapshot-instant durability).
    pub journal_sink: Option<PathBuf>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            accel: 1.0,
            horizon: SimTime::from_days(14),
            snapshot_dir: None,
            snapshot_every: SimDuration::from_hours(6),
            journal_sink: None,
        }
    }
}

/// The daemon: an engine plus pacing, protocol, and durability plumbing.
pub struct Daemon {
    engine: Engine,
    scenario: Scenario,
    config: DaemonConfig,
    next_snapshot_at: SimTime,
    shutdown: bool,
}

impl Daemon {
    /// Builds a daemon on a fresh engine at time zero.
    ///
    /// # Errors
    ///
    /// Fails if the journal sink cannot be created.
    pub fn new(scenario: Scenario, config: DaemonConfig) -> std::io::Result<Daemon> {
        let engine = scenario.build();
        Daemon::from_engine(engine, scenario, config)
    }

    /// Cold-starts a daemon from the newest snapshot in
    /// `config.snapshot_dir` plus the replay tail in the journal sink.
    /// With no snapshot on disk, the full sink (if any) is replayed from
    /// scratch; with neither, this is [`Daemon::new`].
    ///
    /// # Errors
    ///
    /// Fails on unreadable snapshot/sink files or on replay divergence
    /// (scenario mismatch, tampered log, signature mismatch) — surfaced
    /// as [`std::io::ErrorKind::InvalidData`].
    pub fn resume(scenario: Scenario, config: DaemonConfig) -> std::io::Result<Daemon> {
        let snap = match &config.snapshot_dir {
            Some(dir) => match latest_snapshot(dir)? {
                Some(path) => Some(Snapshot::read(&path)?),
                None => None,
            },
            None => None,
        };
        // Read the tail BEFORE Daemon::from_engine truncates the sink.
        let from_seq = snap.as_ref().map_or(0, |s| s.commands.len() as u64);
        let tail = match &config.journal_sink {
            Some(path) if path.exists() => read_command_tail(path, from_seq)?,
            _ => Vec::new(),
        };
        let mut engine = match &snap {
            Some(s) => Engine::restore(&scenario, s).map_err(invalid_data)?,
            None => scenario.build(),
        };
        for cmd in &tail {
            engine.replay(cmd).map_err(invalid_data)?;
        }
        Daemon::from_engine(engine, scenario, config)
    }

    fn from_engine(
        mut engine: Engine,
        scenario: Scenario,
        config: DaemonConfig,
    ) -> std::io::Result<Daemon> {
        if let Some(path) = &config.journal_sink {
            engine.journal_mut().set_sink(path)?;
        }
        let next_snapshot_at = engine.now().saturating_add(config.snapshot_every);
        Ok(Daemon {
            engine,
            scenario,
            config,
            next_snapshot_at,
            shutdown: false,
        })
    }

    /// The engine (current state, reports, command log).
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The scenario this daemon runs.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// True once a `shutdown` verb has been accepted.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown
    }

    /// Advances the engine to `t` immediately, ignoring wall-clock pacing
    /// (scripted drives and tests; [`Daemon::run`] paces on its own).
    pub fn advance_to(&mut self, t: SimTime) {
        self.engine.step_until(t);
    }

    /// Flushes the journal sink, if one is open.
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn flush(&mut self) -> std::io::Result<()> {
        self.engine.journal_mut().flush_sink()
    }

    /// Handles one protocol line, returning the single-line JSON response.
    /// Commands are injected at the engine's current (paced) instant and
    /// journaled, so the sink doubles as the replay tail.
    pub fn handle_line(&mut self, line: &str) -> String {
        let line = line.trim();
        if line.is_empty() {
            return err_response("empty request");
        }
        if line.eq_ignore_ascii_case("GET metrics") {
            return self.metrics_json();
        }
        let req = match json::parse_object(line) {
            Ok(m) => m,
            Err(e) => return err_response(&format!("bad request: {e}")),
        };
        let op = match req.get("op").and_then(Value::as_str) {
            Some(op) => op,
            None => return err_response("missing op"),
        };
        match op {
            "status" => self.status_json(),
            "metrics" => self.metrics_json(),
            "create_customer" => match self.engine.apply(Command::CreateCustomer) {
                Ok(CommandOutcome::Customer(c)) => {
                    format!("{{\"ok\": true, \"customer\": {}}}", c.0)
                }
                _ => err_response("create_customer failed"),
            },
            "provision" => self.handle_provision(&req),
            "release" => match req.get("vm").and_then(Value::as_u64) {
                Some(vm) => match self.engine.apply(Command::Release {
                    vm: NestedVmId(vm),
                }) {
                    Ok(_) => format!("{{\"ok\": true, \"released\": {vm}}}"),
                    Err(e) => err_response(&format!("{e:?}")),
                },
                None => err_response("release needs a vm id"),
            },
            "policy" => match req.get("return_to_spot").and_then(Value::as_bool) {
                Some(enabled) => match self.engine.apply(Command::SetReturnToSpot { enabled }) {
                    Ok(_) => format!("{{\"ok\": true, \"return_to_spot\": {enabled}}}"),
                    Err(e) => err_response(&format!("{e:?}")),
                },
                None => err_response("policy needs return_to_spot"),
            },
            "snapshot" => match self.write_snapshot() {
                Ok(Some(path)) => format!(
                    "{{\"ok\": true, \"path\": {}, \"taken_at_secs\": {}}}",
                    json_str(&path.display().to_string()),
                    json_f64(self.engine.now().as_secs_f64())
                ),
                Ok(None) => err_response("no snapshot dir configured"),
                Err(e) => err_response(&format!("snapshot failed: {e}")),
            },
            "shutdown" => {
                self.shutdown = true;
                "{\"ok\": true, \"shutting_down\": true}".to_string()
            }
            other => err_response(&format!("unknown op `{other}`")),
        }
    }

    fn handle_provision(&mut self, req: &BTreeMap<String, Value>) -> String {
        let customer = match req.get("customer").and_then(Value::as_u64) {
            Some(c) => spotcheck_core::types::CustomerId(c),
            None => return err_response("provision needs a customer id"),
        };
        let workload = match req.get("workload").and_then(Value::as_str) {
            None | Some("tpcw") => WorkloadKind::TpcW,
            Some("specjbb") => WorkloadKind::SpecJbb,
            Some(w) => return err_response(&format!("unknown workload `{w}`")),
        };
        let stateless = req
            .get("stateless")
            .and_then(Value::as_bool)
            .unwrap_or(false);
        match self.engine.apply(Command::Provision {
            customer,
            workload,
            stateless,
        }) {
            Ok(CommandOutcome::Vm(vm)) => format!("{{\"ok\": true, \"vm\": {}}}", vm.0),
            Ok(_) => err_response("provision returned no vm"),
            Err(e) => err_response(&format!("{e:?}")),
        }
    }

    fn status_json(&self) -> String {
        format!(
            "{{\"ok\": true, \"now_secs\": {}, \"steps\": {}, \"queue_depth\": {}, \
             \"commands\": {}, \"horizon_secs\": {}}}",
            json_f64(self.engine.now().as_secs_f64()),
            self.engine.steps(),
            self.engine.queue_depth(),
            self.engine.command_log().len(),
            json_f64(self.config.horizon.as_secs_f64()),
        )
    }

    /// Live metrics as one JSON line: clocks, availability, cost, the 30 s
    /// violation taxonomy, and exact journal counters.
    pub fn metrics_json(&self) -> String {
        let avail = self.engine.availability_report();
        let cost = self.engine.cost_report();
        let viol = self.engine.violation_report();
        let journal = self.engine.journal();
        let mut s = String::with_capacity(512);
        s.push_str("{\"ok\": true");
        {
            let mut f = |k: &str, v: String| {
                s.push_str(", \"");
                s.push_str(k);
                s.push_str("\": ");
                s.push_str(&v);
            };
            f("now_secs", json_f64(self.engine.now().as_secs_f64()));
            f("steps", self.engine.steps().to_string());
            f("commands", self.engine.command_log().len().to_string());
            f("vms", avail.vms.to_string());
            f("availability_pct", json_f64(avail.availability_pct()));
            f("unavailability", json_f64(avail.unavailability));
            f("degradation", json_f64(avail.degradation));
            f("downtime_secs", json_f64(avail.total_downtime.as_secs_f64()));
            f("revocations", avail.revocations.to_string());
            f("migrations", avail.migrations.to_string());
            f("lost_vms", avail.lost_vms.to_string());
            f("native_cost", json_f64(cost.native_cost));
            f("backup_cost", json_f64(cost.backup_cost));
            f("total_cost", json_f64(cost.total));
            f("cost_per_vm_hr", json_f64(cost.cost_per_vm_hr));
            f("violations", viol.violations.to_string());
            f("journal_entries", journal.len().to_string());
            f("journal_dropped", journal.dropped().to_string());
            f("journal_spilled", journal.spilled().to_string());
        }
        s.push_str(", \"counters\": {");
        for (i, (k, v)) in self.engine.journal().counters().pairs().iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            s.push('"');
            s.push_str(k);
            s.push_str("\": ");
            s.push_str(&v.to_string());
        }
        s.push_str("}}");
        s
    }

    /// Writes a snapshot to the configured directory (atomic rename).
    /// Returns the path, or `None` when no directory is configured.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_snapshot(&mut self) -> std::io::Result<Option<PathBuf>> {
        let dir = match &self.config.snapshot_dir {
            Some(d) => d.clone(),
            None => return Ok(None),
        };
        std::fs::create_dir_all(&dir)?;
        // Zero-padded micros so lexicographic order is time order.
        let path = dir.join(format!(
            "snapshot-{:020}.txt",
            self.engine.now().as_micros()
        ));
        self.engine.snapshot().write_atomic(&path)?;
        // A snapshot is only as durable as the sink it pairs with.
        self.engine.journal_mut().flush_sink()?;
        Ok(Some(path))
    }

    /// Runs the daemon until a `shutdown` verb or a termination signal:
    /// paces the engine against the wall clock, serves the protocol on
    /// `listener`, takes periodic snapshots, and on exit flushes the sink
    /// and writes a final snapshot.
    ///
    /// Each connection gets one blocking reader thread (at most
    /// `MAX_CONNS`; one more is answered with an error line and closed).
    /// A reader hands each complete line to this thread over one bounded
    /// channel and writes the reply itself, so requests on a connection
    /// are answered in order. This thread blocks until a request arrives
    /// or the next `TICK`; every wake paces the engine, and every tick
    /// also takes a due snapshot and accepts new connections. A failed
    /// periodic snapshot is logged and retried on the next tick. Every
    /// thread started here has exited when `run` returns.
    ///
    /// # Errors
    ///
    /// Propagates listener failures and a failed final flush or snapshot.
    pub fn run(&mut self, listener: TcpListener) -> std::io::Result<()> {
        listener.set_nonblocking(true)?;
        let start = Instant::now();
        let sim0 = self.engine.now();
        let (tx, rx) = mpsc::sync_channel::<Request>(MAX_CONNS);
        std::thread::scope(|s| {
            let mut conns: Vec<(TcpStream, ScopedJoinHandle<'_, ()>)> = Vec::new();
            let mut next_tick = Instant::now();
            let mut snapshot_failing = false;
            while !self.shutdown && !signal::requested() {
                let request = rx
                    .recv_timeout(next_tick.saturating_duration_since(Instant::now()))
                    .ok();
                // Pace: advance simulated time to match the wall clock.
                let target = sim0
                    .saturating_add(SimDuration::from_secs_f64(
                        start.elapsed().as_secs_f64() * self.config.accel,
                    ))
                    .min(self.config.horizon);
                if target > self.engine.now() {
                    self.engine.step_until(target);
                }
                if let Some(req) = request {
                    let response = self.handle_line(&req.line);
                    req.answer(&response);
                }
                if Instant::now() < next_tick {
                    continue;
                }
                next_tick = Instant::now() + TICK;
                if self.engine.now() >= self.next_snapshot_at {
                    match self.write_snapshot() {
                        Ok(_) => {
                            self.next_snapshot_at =
                                self.engine.now().saturating_add(self.config.snapshot_every);
                            snapshot_failing = false;
                        }
                        Err(e) => {
                            if !snapshot_failing {
                                eprintln!("spotcheckd: periodic snapshot failed, retrying: {e}");
                            }
                            snapshot_failing = true;
                        }
                    }
                }
                conns.retain(|(_, reader)| !reader.is_finished());
                while let Ok((stream, _)) = listener.accept() {
                    if conns.len() >= MAX_CONNS {
                        let refusal = format!("{}\n", err_response("too many connections"));
                        let _ = (&stream).write_all(refusal.as_bytes());
                        continue;
                    }
                    if let Ok(handle) = stream.try_clone() {
                        let tx = tx.clone();
                        conns.push((handle, s.spawn(move || serve_conn(stream, tx))));
                    }
                }
            }
            // Unblock every reader; answer whatever they still send until
            // the last one has exited and dropped its sender.
            drop(tx);
            for (stream, _) in &conns {
                let _ = stream.shutdown(Shutdown::Read);
            }
            for req in rx.iter() {
                req.answer(&err_response("shutting down"));
            }
        });
        self.engine.journal_mut().flush_sink()?;
        self.write_snapshot()?;
        Ok(())
    }
}

/// Most connections served at once.
const MAX_CONNS: usize = 64;

/// Longest request line in bytes, newline excluded.
const MAX_LINE: usize = 64 * 1024;

/// Pacing tick: the longest the engine thread waits between advancing
/// simulated time, snapshot checks and accepts.
const TICK: Duration = Duration::from_millis(2);

/// A reply write stalled this long (a client that stopped reading) drops
/// the connection rather than hold up shutdown.
const WRITE_TIMEOUT: Duration = Duration::from_secs(10);

/// One complete request line and where its reply goes.
struct Request {
    line: String,
    reply: SyncSender<String>,
}

impl Request {
    /// Sends `response` and a newline back in the request's own buffer,
    /// so a connection's buffer is allocated and freed by its reader:
    /// handing freshly allocated replies across threads measured about
    /// 0.5 MiB more peak RSS (per-thread allocator caches).
    fn answer(self, response: &str) {
        let mut buf = self.line;
        buf.clear();
        buf.push_str(response);
        buf.push('\n');
        let _ = self.reply.send(buf);
    }
}

/// A connection's reader thread: forwards each line to the engine thread,
/// waits for the reply and writes it, reusing one buffer throughout. A
/// line longer than `MAX_LINE` gets one error reply and closes the
/// connection.
fn serve_conn(stream: TcpStream, requests: SyncSender<Request>) {
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let (reply, replies) = mpsc::sync_channel(1);
    let mut reader = BufReader::new(&stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        let mut line_cap = (&mut reader).take(MAX_LINE as u64 + 1);
        if !matches!(line_cap.read_until(b'\n', &mut buf), Ok(n) if n > 0) {
            break;
        }
        let complete = buf.last() == Some(&b'\n');
        if !complete && buf.len() <= MAX_LINE {
            break; // EOF inside a line
        }
        let response = if complete {
            if buf.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let line = String::from_utf8(buf)
                .unwrap_or_else(|e| String::from_utf8_lossy(e.as_bytes()).into_owned());
            let request = Request {
                line,
                reply: reply.clone(),
            };
            if requests.send(request).is_err() {
                break;
            }
            match replies.recv() {
                Ok(response) => response.into_bytes(),
                Err(_) => break,
            }
        } else {
            let refusal = err_response(&format!("request line exceeds {MAX_LINE} bytes"));
            format!("{refusal}\n").into_bytes()
        };
        if (&stream).write_all(&response).is_err() || !complete {
            break;
        }
        buf = response;
    }
    let _ = stream.shutdown(Shutdown::Both);
}

fn err_response(msg: &str) -> String {
    format!("{{\"ok\": false, \"error\": {}}}", json_str(msg))
}

fn invalid_data(e: impl std::fmt::Display) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string())
}

/// The newest snapshot file in `dir` (`snapshot-<micros>.txt`; the
/// zero-padded name makes lexicographic max the latest).
///
/// # Errors
///
/// Propagates directory read failures; a missing directory is `None`.
pub fn latest_snapshot(dir: &Path) -> std::io::Result<Option<PathBuf>> {
    if !dir.exists() {
        return Ok(None);
    }
    let mut best: Option<PathBuf> = None;
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n,
            None => continue,
        };
        if name.starts_with("snapshot-")
            && name.ends_with(".txt")
            && best.as_ref().map_or(true, |b| path > *b)
        {
            best = Some(path);
        }
    }
    Ok(best)
}

/// Reads the replay tail out of a journal JSONL sink: every `command`
/// record with `seq >= from_seq`, in order. All sink command records were
/// journaled by definition.
///
/// # Errors
///
/// Propagates read failures; malformed lines or non-contiguous sequence
/// numbers surface as [`std::io::ErrorKind::InvalidData`].
pub fn read_command_tail(path: &Path, from_seq: u64) -> std::io::Result<Vec<TimedCommand>> {
    let file = std::fs::File::open(path)?;
    let reader = std::io::BufReader::new(file);
    let mut tail: Vec<TimedCommand> = Vec::new();
    for (i, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() {
            continue;
        }
        let m = json::parse_object(&line)
            .map_err(|e| invalid_data(format!("sink line {}: {e}", i + 1)))?;
        if m.get("kind").and_then(Value::as_str) != Some("command") {
            continue;
        }
        let get = |k: &str| {
            m.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| invalid_data(format!("sink line {}: bad `{k}`", i + 1)))
        };
        let seq = get("seq")?;
        if seq < from_seq {
            continue;
        }
        let expected = from_seq + tail.len() as u64;
        if seq != expected {
            return Err(invalid_data(format!(
                "sink line {}: command seq {seq}, expected {expected}",
                i + 1
            )));
        }
        let t = m
            .get("t")
            .and_then(Value::as_f64)
            .ok_or_else(|| invalid_data(format!("sink line {}: bad `t`", i + 1)))?;
        let kind = m
            .get("cmd")
            .and_then(Value::as_str)
            .ok_or_else(|| invalid_data(format!("sink line {}: bad `cmd`", i + 1)))?;
        let cmd = Command::decode(kind, get("a")?, get("b")?, get("c")?)
            .ok_or_else(|| invalid_data(format!("sink line {}: unknown command `{kind}`", i + 1)))?;
        // Sinks written before the flag existed replayed every command
        // settled.
        let settled = match m.get("settled") {
            None => true,
            Some(v) => v
                .as_bool()
                .ok_or_else(|| invalid_data(format!("sink line {}: bad `settled`", i + 1)))?,
        };
        tail.push(TimedCommand {
            seq,
            at: SimTime::from_micros((t * 1e6).round() as u64),
            journaled: true,
            settled,
            cmd,
        });
    }
    Ok(tail)
}
