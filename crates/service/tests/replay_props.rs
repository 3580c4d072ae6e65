//! Seeded property test: a daemon history with bursts of commands at one
//! simulated instant (provisions, releases, and releases of a VM
//! provisioned in the same burst) must be reproduced exactly by every
//! recovery path — `Engine::restore` from a snapshot, `Daemon::resume`
//! from a snapshot plus the journal sink's tail, and `Daemon::resume`
//! from the sink alone.

use std::path::{Path, PathBuf};

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::{Engine, Scenario};
use spotcheck_core::sim::standard_traces;
use spotcheck_core::snapshot::Snapshot;
use spotcheck_service::json::parse_object;
use spotcheck_service::{latest_snapshot, Daemon, DaemonConfig};
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::{SimDuration, SimTime};

fn scratch_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("spotcheck-replay-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn scenario(seed: u64) -> Scenario {
    let zone = "us-east-1a";
    Scenario::new(
        standard_traces(zone, SimDuration::from_days(2), seed),
        SpotCheckConfig {
            zone: zone.to_string(),
            seed,
            ..SpotCheckConfig::default()
        },
    )
}

fn config(dir: &Path, snapshots: bool, sink: &Path) -> DaemonConfig {
    DaemonConfig {
        accel: 1.0,
        horizon: SimTime::from_days(2),
        snapshot_dir: snapshots.then(|| dir.join("snapshots")),
        snapshot_every: SimDuration::from_days(1),
        journal_sink: Some(sink.to_path_buf()),
    }
}

/// Sends one request and returns the id field it answers with.
fn send(daemon: &mut Daemon, line: &str, field: &str) -> Option<u64> {
    let response = daemon.handle_line(line);
    assert!(
        response.starts_with("{\"ok\": true"),
        "{line} -> {response}"
    );
    parse_object(&response)
        .expect("response is a JSON object")
        .get(field)
        .and_then(|v| v.as_u64())
}

fn provision(daemon: &mut Daemon, customer: u64) -> u64 {
    let line =
        format!("{{\"op\": \"provision\", \"customer\": {customer}, \"workload\": \"tpcw\"}}");
    send(daemon, &line, "vm").expect("provision answers a vm id")
}

fn release(daemon: &mut Daemon, vm: u64) {
    send(
        daemon,
        &format!("{{\"op\": \"release\", \"vm\": {vm}}}"),
        "released",
    );
}

/// Checks every recovery path against the live daemon, which has just
/// applied its last command and not stepped since (as after a crash).
fn check_recovery(scenario: &Scenario, dir: &Path, sink: &Path, daemon: &mut Daemon) {
    daemon.flush().expect("flush sink");
    let want = daemon.engine().state_signature();
    let want_now = daemon.engine().now();

    let restored = Engine::restore(scenario, &daemon.engine().snapshot())
        .unwrap_or_else(|e| panic!("restore from a final snapshot: {e}"));
    assert_eq!(restored.state_signature(), want, "final snapshot restore");

    // The sink-only resume reads a copy: a resume truncates its sink.
    let sink_only = dir.join("sink-only.jsonl");
    std::fs::copy(sink, &sink_only).expect("copy sink");

    let mid = latest_snapshot(&dir.join("snapshots"))
        .expect("scan snapshot dir")
        .expect("a mid-run snapshot exists");
    let snap = Snapshot::read(&mid).expect("read mid-run snapshot");
    assert!(
        (snap.commands.len() as u64) < daemon.engine().command_log().len() as u64,
        "the sink tail is not empty"
    );
    Engine::restore(scenario, &snap)
        .unwrap_or_else(|e| panic!("restore from the mid-run snapshot: {e}"));

    let resumed = Daemon::resume(scenario.clone(), config(dir, true, sink))
        .unwrap_or_else(|e| panic!("resume from snapshot + sink tail: {e}"));
    assert_eq!(resumed.engine().now(), want_now);
    assert_eq!(
        resumed.engine().state_signature(),
        want,
        "snapshot + tail resume"
    );

    let resumed = Daemon::resume(scenario.clone(), config(dir, false, &sink_only))
        .unwrap_or_else(|e| panic!("resume from the sink alone: {e}"));
    assert_eq!(resumed.engine().state_signature(), want, "sink-only resume");
}

/// The smallest divergent history: a provision and the release of that
/// VM at one instant, with no event processed between them.
#[test]
fn provision_then_release_at_one_instant_recovers() {
    let dir = scratch_dir("minimal");
    let sink = dir.join("journal.jsonl");
    let scenario = scenario(110);
    let mut daemon = Daemon::new(scenario.clone(), config(&dir, true, &sink)).expect("daemon");
    let customer = send(&mut daemon, r#"{"op": "create_customer"}"#, "customer").unwrap();
    daemon.advance_to(SimTime::from_secs(60));
    provision(&mut daemon, customer);
    daemon.write_snapshot().expect("snapshot");
    daemon.advance_to(SimTime::from_secs(120));
    let vm = provision(&mut daemon, customer);
    release(&mut daemon, vm);
    check_recovery(&scenario, &dir, &sink, &mut daemon);
    std::fs::remove_dir_all(&dir).ok();
}

/// Random bursts at one instant each: provisions spread over customers,
/// releases of older VMs, and releases of VMs provisioned in the same
/// burst. A snapshot is taken right after one burst, before its instant
/// settles, and the run "crashes" right after the last burst.
#[test]
fn same_instant_bursts_recover_on_every_path() {
    for seed in [3_u64, 105, 106, 110, 424_242] {
        let dir = scratch_dir(&format!("bursts-{seed}"));
        let sink = dir.join("journal.jsonl");
        let scenario = scenario(seed);
        let mut daemon = Daemon::new(scenario.clone(), config(&dir, true, &sink)).expect("daemon");
        let mut rng = SimRng::seed(seed).fork_named("replay_props");
        let customers: Vec<u64> = (0..3)
            .map(|_| send(&mut daemon, r#"{"op": "create_customer"}"#, "customer").unwrap())
            .collect();
        let mut live: Vec<u64> = Vec::new();
        let mut t = SimTime::ZERO;
        let bursts = 40;
        for burst in 0..bursts {
            t += SimDuration::from_secs(rng.gen_range(1, 30));
            daemon.advance_to(t);
            for _ in 0..rng.gen_range(1, 6) {
                let customer = customers[rng.gen_range(0, 3) as usize];
                match rng.gen_range(0, 10) {
                    0..=4 => live.push(provision(&mut daemon, customer)),
                    5..=6 => {
                        let vm = provision(&mut daemon, customer);
                        release(&mut daemon, vm);
                    }
                    _ if !live.is_empty() => {
                        let i = rng.gen_range(0, live.len() as u64) as usize;
                        release(&mut daemon, live.swap_remove(i));
                    }
                    _ => {}
                }
            }
            if burst == bursts / 2 {
                daemon.write_snapshot().expect("mid-run snapshot");
            }
        }
        check_recovery(&scenario, &dir, &sink, &mut daemon);
        std::fs::remove_dir_all(&dir).ok();
    }
}
