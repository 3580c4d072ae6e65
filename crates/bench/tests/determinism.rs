//! The parallel harness's determinism contract: worker counts change
//! wall-clock time only, never a reported number.
//!
//! Three layers are pinned down:
//! 1. the policy grid as a pure function (`compute_grid` at 1 vs N workers),
//! 2. repeated in-process runs of registry experiments,
//! 3. the `experiments` binary end-to-end at `--threads 1` vs `--threads 4`
//!    (fresh processes, so the grid cache cannot mask a divergence).

use std::process::Command;

use spotcheck_bench::experiments::policy::{compute_grid, traces};
use spotcheck_bench::experiments::Scale;
use spotcheck_bench::run_many;

#[test]
fn policy_grid_is_identical_at_any_worker_count() {
    let ts = traces(Scale::Quick);
    let serial = compute_grid(&ts, Scale::Quick, 1);
    for threads in [2, 4, 8] {
        let parallel = compute_grid(&ts, Scale::Quick, threads);
        assert_eq!(
            parallel, serial,
            "grid diverged at {threads} workers"
        );
    }
}

#[test]
fn repeated_experiment_runs_are_bit_identical() {
    // Ids chosen to recompute from scratch on every call (no shared cache).
    for id in ["fig1", "fig6b", "table1", "ablation_bid"] {
        let a = spotcheck_bench::run(id, Scale::Quick).unwrap();
        let b = spotcheck_bench::run(id, Scale::Quick).unwrap();
        assert_eq!(a.output, b.output, "{id} output drifted between runs");
        assert_eq!(a.events, b.events, "{id} event count drifted");
    }
}

#[test]
fn run_many_preserves_requested_order() {
    let ids = ["fig9", "fig1", "table1"];
    let results = run_many(&ids, Scale::Quick).unwrap();
    let got: Vec<&str> = results.iter().map(|r| r.id).collect();
    assert_eq!(got, ids);
    for r in &results {
        let solo = spotcheck_bench::run(r.id, Scale::Quick).unwrap();
        assert_eq!(r.output, solo.output);
    }
}

#[test]
fn run_many_rejects_unknown_ids() {
    let err = run_many(&["fig1", "nope"], Scale::Quick).unwrap_err();
    assert!(err.contains("nope"), "{err}");
}

/// Masks the wall-clock field of `[id] title  (0.123s, 456 events)` header
/// lines, keeping the event counts — those must match across worker counts.
/// Also masks report rows marked `(run config)`: those surface execution
/// configuration (the pool worker count) that legitimately varies with the
/// knobs under test, same as wall-clock does.
fn mask_wall(stdout: &str) -> String {
    stdout
        .lines()
        .map(|l| {
            if l.contains("(run config)") {
                return "(run config masked)".to_string();
            }
            if l.starts_with('[') && l.ends_with("events)") {
                if let Some(pos) = l.rfind("  (") {
                    if let Some(comma) = l[pos..].find(", ") {
                        return format!("{}  (X, {}", &l[..pos], &l[pos + comma + 2..]);
                    }
                }
            }
            l.to_string()
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// Runs the `experiments` binary at quick scale with `args` and returns
/// its masked stdout.
fn run_quick(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .arg("--quick")
        .args(args)
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success(), "{args:?} exited nonzero");
    mask_wall(&String::from_utf8(out.stdout).expect("utf-8 output"))
}

#[test]
fn cli_output_is_byte_identical_across_thread_counts() {
    assert_eq!(
        run_quick(&["--threads", "1"]),
        run_quick(&["--threads", "4"]),
        "CLI output (including event counts) must not depend on --threads"
    );
}

#[test]
fn fleet_is_identical_across_threads_and_queue_backends() {
    // Named when the event queue had two backends; the heap is the one
    // queue now.
    // The fleet experiment drives the full controller at scale; its report
    // (including event counts and peak queue depth) must not depend on the
    // worker count. --shards is a pure worker knob; a non-sharded
    // experiment must not even notice it.
    let baseline = run_quick(&["fleet", "--threads", "1"]);
    for args in [
        &["fleet", "--threads", "4"][..],
        &["fleet", "--shards", "2"][..],
        &["fleet", "--shards", "8"][..],
    ] {
        assert_eq!(run_quick(args), baseline, "fleet diverged under {args:?}");
    }
}

#[test]
fn fleet_sharded_is_identical_across_shards_threads_and_queue_backends() {
    // Named when the event queue had two backends; the heap is the one
    // queue now.
    // The sharded fleet's logical shard topology is fixed by the scenario;
    // --shards only chooses worker threads for the epoch windows (inline at
    // one, the persistent pool above), so the rendered table (counters,
    // gossip totals, epoch accounting, event counts) must be byte-identical
    // across shard workers and harness threads.
    let baseline = run_quick(&["fleet_sharded", "--shards", "1"]);
    for args in [
        &["fleet_sharded", "--shards", "2"][..],
        &["fleet_sharded", "--shards", "8"][..],
        &["fleet_sharded", "--shards", "8", "--threads", "4"][..],
    ] {
        assert_eq!(
            run_quick(args),
            baseline,
            "fleet_sharded diverged under {args:?}"
        );
    }
}

#[test]
fn contention_storm_is_identical_across_threads_and_queue_backends() {
    // Named when the event queue had two backends; the heap is the one
    // queue now.
    // The fluid-coupled fleet runs: flow completion instants emerge from
    // the shared max-min model, and every map it iterates is ordered, so
    // the violation table (and event counts) must be byte-identical
    // whatever the worker count.
    let baseline = run_quick(&["contention_storm", "--threads", "1"]);
    for args in [
        &["contention_storm", "--threads", "4"][..],
        &["contention_storm", "--shards", "2"][..],
        &["contention_storm", "--shards", "8"][..],
    ] {
        assert_eq!(
            run_quick(args),
            baseline,
            "contention_storm diverged under {args:?}"
        );
    }
}

#[test]
fn cli_json_covers_every_registry_id() {
    let out = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["--quick", "--json"])
        .output()
        .expect("experiments binary runs");
    assert!(out.status.success());
    let json = String::from_utf8(out.stdout).expect("utf-8 output");
    for id in spotcheck_bench::all_ids() {
        assert!(
            json.contains(&format!("\"id\": \"{id}\"")),
            "JSON report missing {id}"
        );
    }
    assert_eq!(json.matches('{').count(), json.matches('}').count());
    assert_eq!(json.matches('[').count(), json.matches(']').count());
}
