//! Black-box test of the `spotcheckd` binary: spawn it on an ephemeral
//! port, drive the wire protocol over TCP, shut it down cleanly, then
//! cold-start it with `--resume` against the state it left behind. Then
//! in-process tests of the socket front door's bounds: line length,
//! connection count, pipelining, shutdown, and failing snapshots.

use std::io::{BufRead as _, BufReader, Write as _};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::Scenario;
use spotcheck_core::sim::standard_traces;
use spotcheck_service::{json, Daemon, DaemonConfig};
use spotcheck_simcore::time::{SimDuration, SimTime};

struct Spawned {
    child: Child,
    addr: String,
}

fn spawn_daemon(dir: &Path, extra: &[&str]) -> Spawned {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spotcheckd"));
    cmd.args([
        "--addr",
        "127.0.0.1:0",
        "--accel",
        "1000000",
        "--days",
        "1",
        "--seed",
        "42",
        "--snapshot-dir",
    ])
    .arg(dir.join("snapshots"))
    .arg("--journal-sink")
    .arg(dir.join("journal.jsonl"))
    .args(extra)
    .stdout(Stdio::piped())
    .stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("spawn spotcheckd");
    let stdout = child.stdout.take().expect("stdout piped");
    let mut first = String::new();
    BufReader::new(stdout)
        .read_line(&mut first)
        .expect("read banner");
    let addr = first
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {first:?}"))
        .to_string();
    Spawned { child, addr }
}

fn roundtrip(stream: &mut TcpStream, request: &str) -> String {
    stream
        .write_all(format!("{request}\n").as_bytes())
        .expect("send request");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut response = String::new();
    reader.read_line(&mut response).expect("read response");
    assert!(response.ends_with('\n'), "unterminated response");
    response.trim_end().to_string()
}

fn wait_success(child: &mut Child) {
    for _ in 0..200 {
        if let Some(status) = child.try_wait().expect("try_wait") {
            assert!(status.success(), "spotcheckd exited with {status}");
            return;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    child.kill().ok();
    panic!("spotcheckd did not exit within 10 s of shutdown");
}

fn scratch_dir() -> PathBuf {
    scratch_dir_named("socket")
}

fn scratch_dir_named(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("spotcheck-daemon-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
fn daemon_serves_protocol_and_resumes() {
    let dir = scratch_dir();

    let mut spawned = spawn_daemon(&dir, &[]);
    let mut stream = TcpStream::connect(&spawned.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");

    let status = roundtrip(&mut stream, r#"{"op": "status"}"#);
    assert!(status.contains("\"ok\": true"), "{status}");

    let customer = roundtrip(&mut stream, r#"{"op": "create_customer"}"#);
    assert!(customer.contains("\"customer\": 0"), "{customer}");

    let vm = roundtrip(
        &mut stream,
        r#"{"op": "provision", "customer": 0, "workload": "tpcw"}"#,
    );
    assert!(vm.contains("\"vm\": 0"), "{vm}");

    let metrics = roundtrip(&mut stream, "GET metrics");
    assert!(metrics.contains("\"availability_pct\""), "{metrics}");
    assert!(metrics.contains("\"counters\""), "{metrics}");

    let snap = roundtrip(&mut stream, r#"{"op": "snapshot"}"#);
    assert!(snap.contains("\"path\""), "{snap}");

    let bye = roundtrip(&mut stream, r#"{"op": "shutdown"}"#);
    assert!(bye.contains("\"shutting_down\": true"), "{bye}");
    wait_success(&mut spawned.child);

    // The shutdown left a final snapshot + sink behind; a --resume
    // cold-start must come up serving the continued state.
    let mut revived = spawn_daemon(&dir, &["--resume"]);
    let mut stream = TcpStream::connect(&revived.addr).expect("reconnect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");

    let metrics = roundtrip(&mut stream, r#"{"op": "metrics"}"#);
    assert!(metrics.contains("\"vms\": 1"), "resumed state lost the VM: {metrics}");
    // The command log survived the restart: customer + provision.
    assert!(metrics.contains("\"commands\": 2"), "{metrics}");

    let bye = roundtrip(&mut stream, r#"{"op": "shutdown"}"#);
    assert!(bye.contains("\"shutting_down\": true"), "{bye}");
    wait_success(&mut revived.child);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_zero_snapshot_interval_is_rejected() {
    // A zero interval would write a full snapshot on every pacing tick.
    let mut child = Command::new(env!("CARGO_BIN_EXE_spotcheckd"))
        .args(["--addr", "127.0.0.1:0", "--snapshot-every-secs", "0"])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn spotcheckd");
    let mut status = None;
    for _ in 0..200 {
        status = child.try_wait().expect("try_wait");
        if status.is_some() {
            break;
        }
        std::thread::sleep(Duration::from_millis(50));
    }
    let Some(status) = status else {
        child.kill().ok();
        child.wait().ok();
        panic!("spotcheckd accepted --snapshot-every-secs 0 and kept running");
    };
    let mut stderr = String::new();
    std::io::Read::read_to_string(&mut child.stderr.take().expect("stderr piped"), &mut stderr)
        .expect("read stderr");
    assert!(!status.success(), "zero interval exited with {status}");
    assert!(
        stderr.contains("--snapshot-every-secs must be positive"),
        "unexpected stderr: {stderr:?}"
    );
}

// ---------------------------------------------------------------------
// The front door's bounds, driven in-process against `Daemon::run`.
// ---------------------------------------------------------------------

/// The connection cap and line-length cap `Daemon::run` enforces.
const MAX_CONNS: usize = 64;
const MAX_LINE: usize = 64 * 1024;

struct InProcess {
    addr: std::net::SocketAddr,
    done: mpsc::Receiver<std::io::Result<()>>,
}

fn start(config: DaemonConfig) -> InProcess {
    let scenario = Scenario::new(
        standard_traces("us-east-1a", SimDuration::from_days(1), 42),
        SpotCheckConfig::default(),
    );
    let mut daemon = Daemon::new(scenario, config).expect("daemon builds");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("listener address");
    let (tx, done) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(daemon.run(listener));
    });
    InProcess { addr, done }
}

fn fast_config() -> DaemonConfig {
    DaemonConfig {
        accel: 1000.0,
        horizon: SimTime::from_days(1),
        ..DaemonConfig::default()
    }
}

struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

fn connect(addr: std::net::SocketAddr) -> Client {
    let stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(20)))
        .expect("set timeout");
    let reader = BufReader::new(stream.try_clone().expect("clone stream"));
    Client { stream, reader }
}

impl Client {
    fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("send");
    }

    fn read(&mut self) -> String {
        let mut line = String::new();
        self.reader.read_line(&mut line).expect("read response");
        assert!(line.ends_with('\n'), "unterminated response {line:?}");
        line.trim_end().to_string()
    }

    fn request(&mut self, line: &str) -> String {
        self.send(format!("{line}\n").as_bytes());
        self.read()
    }

    fn status_ok(&mut self) -> bool {
        self.request(r#"{"op": "status"}"#).contains("\"ok\": true")
    }

    /// True once the daemon has closed its side: EOF or a reset.
    fn closed_by_peer(&mut self) -> bool {
        let mut rest = String::new();
        matches!(self.reader.read_line(&mut rest), Ok(0) | Err(_))
    }
}

/// Sends `shutdown` on `client` and waits for `run` to return.
fn stop(daemon: InProcess, client: &mut Client) -> std::io::Result<()> {
    let bye = client.request(r#"{"op": "shutdown"}"#);
    assert!(bye.contains("\"shutting_down\": true"), "{bye}");
    daemon
        .done
        .recv_timeout(Duration::from_secs(20))
        .expect("run returns after shutdown")
}

#[test]
fn an_overlong_line_is_refused_and_its_connection_closed() {
    let daemon = start(fast_config());
    let mut bystander = connect(daemon.addr);
    assert!(bystander.status_ok());

    let mut hog = connect(daemon.addr);
    hog.send(&vec![b'x'; MAX_LINE + 100]);
    let refusal = hog.read();
    assert!(refusal.contains("exceeds"), "{refusal}");
    assert!(hog.closed_by_peer(), "closed after the refusal");

    // A client that keeps streaming without a newline is cut off: the
    // daemon stops reading, so its bytes cannot pile up in memory.
    let mut flood = connect(daemon.addr);
    let chunk = vec![b'y'; 64 * 1024];
    let mut sent = 0usize;
    while sent < 64 << 20 && flood.stream.write_all(&chunk).is_ok() {
        sent += chunk.len();
    }
    assert!(sent < 64 << 20, "the daemon kept accepting an endless line");

    // Other connections are still served, and so is a line at the limit.
    assert!(bystander.status_ok());
    let padded = format!("{{\"op\": \"status\"{}}}", " ".repeat(MAX_LINE - 16));
    assert_eq!(padded.len(), MAX_LINE);
    assert!(bystander.request(&padded).contains("\"ok\": true"));
    stop(daemon, &mut bystander).expect("clean stop");
}

#[test]
fn the_connection_past_the_cap_is_refused() {
    let daemon = start(fast_config());
    let mut clients: Vec<Client> = (0..MAX_CONNS).map(|_| connect(daemon.addr)).collect();
    for c in &mut clients {
        assert!(c.status_ok());
    }
    let mut extra = connect(daemon.addr);
    let refusal = extra.read();
    assert!(refusal.contains("too many connections"), "{refusal}");
    assert!(extra.closed_by_peer());
    // The capped connections are unaffected.
    assert!(clients[7].status_ok());
    stop(daemon, &mut clients[0]).expect("clean stop");
}

#[test]
fn pipelined_requests_are_answered_in_order() {
    let daemon = start(fast_config());
    let mut client = connect(daemon.addr);
    client.send(
        b"{\"op\": \"create_customer\"}\n{\"op\": \"create_customer\"}\n\n\
          {\"op\": \"provision\", \"customer\": 1}\nGET metrics\n\
          {\"op\": \"release\", \"vm\": 0}\n{\"op\": \"warp\"}\n",
    );
    let answers: Vec<String> = (0..6).map(|_| client.read()).collect();
    assert!(answers[0].contains("\"customer\": 0"), "{answers:?}");
    assert!(answers[1].contains("\"customer\": 1"), "{answers:?}");
    assert!(answers[2].contains("\"vm\": 0"), "{answers:?}");
    assert!(answers[3].contains("\"availability_pct\""), "{answers:?}");
    assert!(answers[4].contains("\"released\": 0"), "{answers:?}");
    assert!(answers[5].contains("unknown op"), "{answers:?}");
    stop(daemon, &mut client).expect("clean stop");
}

#[test]
fn run_returns_after_shutdown_with_idle_and_half_sent_clients() {
    let daemon = start(fast_config());
    let _idle = connect(daemon.addr);
    let mut half = connect(daemon.addr);
    half.send(b"{\"op\": \"sta");
    let mut client = connect(daemon.addr);
    assert!(client.status_ok());
    stop(daemon, &mut client).expect("clean stop");
    assert!(half.closed_by_peer(), "readers are shut down at exit");
}

#[test]
fn a_failing_periodic_snapshot_does_not_stop_the_daemon() {
    let dir = scratch_dir_named("snapshot-fails");
    let not_a_dir = dir.join("file");
    std::fs::write(&not_a_dir, b"occupied").expect("write blocker file");
    let daemon = start(DaemonConfig {
        accel: 1000.0,
        horizon: SimTime::from_days(1),
        snapshot_dir: Some(not_a_dir),
        snapshot_every: SimDuration::from_secs(1),
        journal_sink: None,
    });
    let mut client = connect(daemon.addr);
    let mut last = -1.0;
    for _ in 0..5 {
        // Each pause spans several ticks, each retrying the snapshot.
        std::thread::sleep(Duration::from_millis(20));
        let status = client.request(r#"{"op": "status"}"#);
        let now = json::parse_object(&status)
            .ok()
            .and_then(|m| m.get("now_secs").and_then(|v| v.as_f64()))
            .unwrap_or_else(|| panic!("status without now_secs: {status}"));
        assert!(now > last, "simulated time keeps advancing: {status}");
        last = now;
    }
    // The final snapshot fails too, and `run` reports it.
    assert!(stop(daemon, &mut client).is_err());
    std::fs::remove_dir_all(&dir).ok();
}
