//! Tiny-size smoke test: every workload `BENCHMARK.json` names runs,
//! passes its correctness gate, and emits every metric the file names,
//! with its unit. Also pins `sharded_fabric`'s deterministic counts as
//! identical at one worker and at `nproc` workers.

use std::path::Path;
use std::process::Command;

/// `(name, second key)` of every entry in one section of `BENCHMARK.json`
/// (the file keeps one object per line): the unit for metrics, the
/// reason for workloads.
fn declared(section: &str, second: &str) -> Vec<(String, String)> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json is readable");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let end = body.find(']').expect("section is an array");
    let field = |line: &str, key: &str| -> Option<String> {
        let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
        Some(line[at..at + line[at..].find('"')?].to_string())
    };
    body[..end]
        .lines()
        .filter_map(|l| Some((field(l, "name")?, field(l, second)?)))
        .collect()
}

/// Runs the benchmark binary; returns its stdout lines.
fn run(args: &[&str]) -> Vec<String> {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("smoke");
    std::fs::create_dir_all(&dir).expect("create test directory");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("benchmark binary runs");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout)
        .expect("utf-8 output")
        .lines()
        .map(str::to_string)
        .collect()
}

fn tiny(workload: &str, trace: &str, extra: &[&str]) -> Vec<String> {
    let mut args = vec![
        "--workload",
        workload,
        "--seed",
        "7",
        "--seconds",
        "0.01",
        "--trace",
        trace,
        "--size",
        "tiny",
    ];
    args.extend_from_slice(extra);
    run(&args)
}

/// `(value, unit)` of metric `name` in a result line, read from that
/// metric's own entry.
fn entry(line: &str, name: &str) -> Option<(f64, String)> {
    let key = format!("\"{name}\": {{");
    let body = &line[line.find(&key)? + key.len()..];
    let body = &body[..body.find('}')?];
    let (value, unit) = body
        .strip_prefix("\"value\": ")?
        .split_once(", \"unit\": ")?;
    Some((value.parse().ok()?, unit.trim_matches('"').to_string()))
}

/// The per-layer metrics a workload's `config` line says it owns.
fn owned_layers(lines: &[String]) -> Vec<String> {
    let config = lines
        .iter()
        .find(|l| l.starts_with("{\"config\": "))
        .expect("a config line");
    let key = "\"layers\": \"";
    let at = config.find(key).expect("config names the owned layers") + key.len();
    let list = &config[at..at + config[at..].find('"').expect("layers value ends")];
    list.split(',').map(str::to_string).collect()
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let workloads = declared("workloads", "why");
    assert!(
        workloads.len() >= 2,
        "BENCHMARK.json lists {} workloads",
        workloads.len()
    );
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let metrics = declared(section, "unit");
        assert!(!metrics.is_empty(), "{section} lists no metrics");
        let mut owned = Vec::new();
        for (workload, _) in &workloads {
            let lines = tiny(workload, trace, &[]);
            let last = lines.last().expect("a result line");
            // The gate counts an owned metric that is missing or 0 as a
            // failed operation, so this also checks that every workload
            // still measures the layers it owns.
            assert!(
                last.starts_with("{\"correct\": true, \"attempted\": "),
                "{workload}: {last}"
            );
            assert!(last.contains("\"failed\": 0,"), "{workload}: {last}");
            for (name, unit) in &metrics {
                let (value, emitted) =
                    entry(last, name).unwrap_or_else(|| panic!("{workload} lacks {name}: {last}"));
                assert_eq!(&emitted, unit, "{workload} {name} unit");
                if section == "end_to_end" {
                    assert!(value > 0.0, "{workload} {name} = {value}");
                }
            }
            owned.extend(owned_layers(&lines));
        }
        if section == "per_layer" {
            for (name, _) in &metrics {
                assert!(
                    name.starts_with("trace.") || owned.contains(name),
                    "no workload in BENCHMARK.json measures {name}"
                );
            }
        }
    }
}

#[test]
fn sharded_counts_do_not_depend_on_worker_count() {
    let nproc = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .max(2)
        .to_string();
    let counts = |workers: &str| -> String {
        tiny("sharded_fabric", "0", &["--workers", workers])
            .into_iter()
            .find(|l| l.starts_with("{\"counts\": "))
            .expect("a counts line")
    };
    assert_eq!(counts("1"), counts(&nproc));
}
