//! End-to-end resumability: a daemon-style run with mid-run command
//! injection, a periodic snapshot, and a journal spill sink must be
//! reconstructible — kill the process, cold-start from the snapshot plus
//! the sink's replay tail, and converge on a final state *byte-identical*
//! to the uninterrupted run.

use std::path::PathBuf;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::{Command, CommandOutcome, Engine, Scenario};
use spotcheck_core::sim::standard_traces;
use spotcheck_core::snapshot::Snapshot;
use spotcheck_core::types::CustomerId;
use spotcheck_service::{latest_snapshot, read_command_tail, Daemon, DaemonConfig};
use spotcheck_simcore::time::{SimDuration, SimTime};
use spotcheck_workloads::WorkloadKind;

fn scratch_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("spotcheck-e2e-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn quick_scenario() -> Scenario {
    Scenario::new(
        standard_traces("us-east-1a", SimDuration::from_days(2), 42),
        SpotCheckConfig::default(),
    )
}

fn create_customer(engine: &mut Engine) -> CustomerId {
    match engine.apply(Command::CreateCustomer) {
        Ok(CommandOutcome::Customer(c)) => c,
        other => panic!("unexpected outcome {other:?}"),
    }
}

/// Drives the "live" half of the scenario on `engine`: commands injected
/// at t=0, 6 h (before the snapshot instant) and 18 h (after it, i.e. in
/// the replay tail), interleaved with stepping. Returns the snapshot
/// taken at the 12 h mark.
fn drive_live_run(engine: &mut Engine, snapshot_path: &std::path::Path) -> Snapshot {
    let c = create_customer(engine);
    engine
        .apply(Command::Provision {
            customer: c,
            workload: WorkloadKind::TpcW,
            stateless: false,
        })
        .expect("provision at t=0");
    engine.step_until(SimTime::from_hours(6));
    engine
        .apply(Command::Provision {
            customer: c,
            workload: WorkloadKind::SpecJbb,
            stateless: true,
        })
        .expect("provision at 6h");
    engine.step_until(SimTime::from_hours(12));
    let snap = engine.snapshot();
    snap.write_atomic(snapshot_path).expect("write snapshot");
    // Life continues after the snapshot: these land only in the sink.
    engine.step_until(SimTime::from_hours(18));
    engine
        .apply(Command::SetReturnToSpot { enabled: false })
        .expect("policy change at 18h");
    engine
        .apply(Command::Provision {
            customer: c,
            workload: WorkloadKind::TpcW,
            stateless: false,
        })
        .expect("provision at 18h");
    engine.step_until(SimTime::from_days(2));
    snap
}

#[test]
fn cold_start_is_byte_identical_heap() {
    let dir = scratch_dir("cold");
    let sink = dir.join("journal.jsonl");
    let snap_path = dir.join("snapshot-00000000000043200000000.txt");
    let scenario = quick_scenario();

    // The run that gets "killed" — except we let it finish so its final
    // state is the reference the cold start must reproduce.
    let mut live = scenario.build();
    live.journal_mut().set_sink(&sink).expect("open sink");
    let snap = drive_live_run(&mut live, &snap_path);
    live.journal_mut().flush_sink().expect("flush sink");
    let want_signature = live.state_signature();
    let want_journal = live.journal().to_json();
    let want_steps = live.steps();

    // Cold start: newest snapshot + the sink's command tail.
    let found = latest_snapshot(&dir)
        .expect("scan snapshot dir")
        .expect("a snapshot exists");
    let parsed = Snapshot::read(&found).expect("read snapshot");
    assert_eq!(parsed, snap, "snapshot file roundtrips");

    let tail = read_command_tail(&sink, parsed.commands.len() as u64).expect("read tail");
    assert_eq!(tail.len(), 2, "policy change + provision landed after the snapshot");

    let mut revived = Engine::restore(&scenario, &parsed).expect("restore");
    for cmd in &tail {
        revived.replay(cmd).expect("replay tail");
    }
    revived.step_until(SimTime::from_days(2));

    assert_eq!(revived.steps(), want_steps);
    assert_eq!(revived.state_signature(), want_signature);
    assert_eq!(revived.journal().to_json(), want_journal);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_resume_reconstructs_the_interrupted_state() {
    let dir = scratch_dir("daemon-resume");
    let sink = dir.join("journal.jsonl");
    let scenario = quick_scenario();
    let config = DaemonConfig {
        accel: 1e9,
        horizon: SimTime::from_days(2),
        snapshot_dir: Some(dir.clone()),
        snapshot_every: SimDuration::from_hours(6),
        journal_sink: Some(sink.clone()),
    };

    // A "daemon" run driven directly (no socket): snapshot mid-run, then
    // more commands, then the process dies without a final snapshot.
    let (want_signature, want_now) = {
        let mut daemon = Daemon::new(scenario.clone(), config.clone()).expect("daemon");
        assert!(daemon.handle_line(r#"{"op": "create_customer"}"#).contains("\"ok\": true"));
        assert!(daemon
            .handle_line(r#"{"op": "provision", "customer": 0, "workload": "tpcw"}"#)
            .contains("\"vm\": 0"));
        daemon.advance_to(SimTime::from_hours(12));
        daemon.write_snapshot().expect("periodic snapshot");
        daemon.advance_to(SimTime::from_hours(18));
        assert!(daemon
            .handle_line(r#"{"op": "provision", "customer": 0, "workload": "specjbb", "stateless": true}"#)
            .contains("\"ok\": true"));
        // Simulate a crash: flush the sink (the OS would have the data),
        // but take no further snapshot.
        daemon.flush().expect("flush sink");
        (daemon.engine().state_signature(), daemon.engine().now())
    };

    let revived = Daemon::resume(scenario, config).expect("resume");
    assert_eq!(revived.engine().now(), want_now);
    assert_eq!(revived.engine().state_signature(), want_signature);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn protocol_round_trips_without_a_socket() {
    let scenario = quick_scenario();
    let mut daemon = Daemon::new(scenario, DaemonConfig::default()).expect("daemon");

    let status = daemon.handle_line(r#"{"op": "status"}"#);
    assert!(status.contains("\"ok\": true"), "{status}");
    assert!(status.contains("\"now_secs\": 0"), "{status}");

    assert!(daemon
        .handle_line(r#"{"op": "create_customer"}"#)
        .contains("\"customer\": 0"));
    assert!(daemon
        .handle_line(r#"{"op": "provision", "customer": 0}"#)
        .contains("\"vm\": 0"));
    let metrics = daemon.handle_line("GET metrics");
    assert!(metrics.contains("\"availability_pct\""), "{metrics}");
    assert!(metrics.contains("\"counters\""), "{metrics}");
    assert!(!metrics.contains('\n'), "metrics must be one line");
    assert!(daemon
        .handle_line(r#"{"op": "policy", "return_to_spot": false}"#)
        .contains("\"return_to_spot\": false"));
    assert!(daemon
        .handle_line(r#"{"op": "release", "vm": 404}"#)
        .contains("\"ok\": false"));
    assert!(daemon
        .handle_line(r#"{"op": "snapshot"}"#)
        .contains("no snapshot dir"));
    assert!(daemon.handle_line("not json").contains("\"ok\": false"));
    assert!(daemon
        .handle_line(r#"{"op": "warp"}"#)
        .contains("unknown op"));
    assert!(!daemon.shutdown_requested());
    assert!(daemon
        .handle_line(r#"{"op": "shutdown"}"#)
        .contains("\"shutting_down\": true"));
    assert!(daemon.shutdown_requested());
}
