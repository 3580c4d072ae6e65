//! Seeded hostile-input tests for the byte-stream readers the daemon
//! trusts least: `json::parse_object` (socket request lines),
//! `Snapshot::parse` (snapshot files) and `read_command_tail` (the journal
//! sink). Every truncated prefix of a valid input and seeded byte flips
//! of it must come back `Ok` or `Err`: no panic, and no single allocation
//! far beyond the input's own size.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::Scenario;
use spotcheck_core::sim::standard_traces;
use spotcheck_core::snapshot::Snapshot;
use spotcheck_service::{json, read_command_tail, Daemon, DaemonConfig};
use spotcheck_simcore::rng::SimRng;
use spotcheck_simcore::time::{SimDuration, SimTime};

/// The system allocator, recording the largest single request made on
/// each thread.
struct Tracking;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    let _ = LARGEST.try_with(|l| l.set(l.get().max(size)));
}

// SAFETY: every call forwards unchanged to `System`; the bookkeeping
// touches only a const-initialised thread-local `Cell`, which never
// allocates.
unsafe impl GlobalAlloc for Tracking {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Tracking = Tracking;

/// Runs `parse` on `input` and fails the test if it panics or makes a
/// single allocation larger than a fixed slack plus a small multiple of
/// the input.
fn survives<T>(what: &str, input: &[u8], parse: impl FnOnce() -> T) {
    LARGEST.with(|l| l.set(0));
    let outcome = catch_unwind(AssertUnwindSafe(parse));
    let largest = LARGEST.with(Cell::get);
    let shown = String::from_utf8_lossy(&input[..input.len().min(160)]).into_owned();
    assert!(outcome.is_ok(), "{what} panicked on {shown:?}");
    let bound = 64 * 1024 + 16 * input.len();
    assert!(
        largest <= bound,
        "{what} allocated {largest} bytes at once on a {}-byte input {shown:?}",
        input.len()
    );
}

/// `mutants` copies of `valid`, each with one to three seeded bytes
/// replaced by printable ASCII or structural characters (or any byte when
/// `any_byte`).
fn flips(valid: &[u8], seed: u64, mutants: usize, any_byte: bool) -> Vec<Vec<u8>> {
    const STRUCTURAL: &[u8] = b"{}[]\":,\\ \n-+.eE019uv";
    let mut rng = SimRng::seed(seed).fork_named("hostile_input");
    (0..mutants)
        .map(|_| {
            let mut m = valid.to_vec();
            for _ in 0..rng.gen_range(1, 4) {
                let at = rng.gen_range(0, m.len() as u64) as usize;
                m[at] = match rng.gen_range(0, 3) {
                    _ if any_byte => rng.gen_range(0, 256) as u8,
                    0 => STRUCTURAL[rng.gen_range(0, STRUCTURAL.len() as u64) as usize],
                    _ => rng.gen_range(0x20, 0x7f) as u8,
                };
            }
            m
        })
        .collect()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let mut dir = std::env::temp_dir();
    dir.push(format!("spotcheck-hostile-{tag}-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// A short daemon history: returns its journal sink (command records
/// with `settled`) and a snapshot of it in the current text format.
fn valid_sink_and_snapshot(dir: &Path) -> (Vec<u8>, String) {
    let sink = dir.join("journal.jsonl");
    let scenario = Scenario::new(
        standard_traces("us-east-1a", SimDuration::from_days(1), 9),
        SpotCheckConfig::default(),
    );
    let config = DaemonConfig {
        journal_sink: Some(sink.clone()),
        ..DaemonConfig::default()
    };
    let mut daemon = Daemon::new(scenario, config).expect("daemon");
    for (t, line) in [
        (0, r#"{"op": "create_customer"}"#),
        (
            0,
            r#"{"op": "provision", "customer": 0, "workload": "specjbb"}"#,
        ),
        (0, r#"{"op": "release", "vm": 0}"#),
        (
            5,
            r#"{"op": "provision", "customer": 0, "stateless": true}"#,
        ),
        (9, r#"{"op": "policy", "return_to_spot": false}"#),
    ] {
        daemon.advance_to(SimTime::from_secs(t));
        assert!(daemon.handle_line(line).contains("\"ok\": true"), "{line}");
    }
    daemon.flush().expect("flush sink");
    let sink = std::fs::read(&sink).expect("read sink");
    // Keep the command records (the replay tail) plus one other record.
    let text = String::from_utf8(sink).expect("sink is UTF-8");
    let mut kept: Vec<&str> = text.lines().filter(|l| l.contains("\"command\"")).collect();
    assert_eq!(kept.len(), 5, "{text}");
    assert!(
        kept.iter().any(|l| l.contains("\"settled\": false")),
        "{text}"
    );
    kept.insert(
        1,
        text.lines()
            .find(|l| !l.contains("\"command\""))
            .expect("an event"),
    );
    let mut tail = kept.join("\n");
    tail.push('\n');
    (tail.into_bytes(), daemon.engine().snapshot().to_text())
}

#[test]
fn request_lines_never_panic_the_json_reader() {
    let lines = [
        r#"{"op": "provision", "customer": 12, "workload": "tpcw", "stateless": false}"#,
        r#"{"op": "release", "vm": 9007199254740993}"#,
        r#"{"op": "policy", "return_to_spot": true, "note": "a\"b\\c\u00e9", "x": null}"#,
        r#"{"t": 3600.000000, "kind": "command", "a": -1.5e308, "settled": true}"#,
    ];
    for (k, line) in lines.iter().enumerate() {
        let bytes = line.as_bytes();
        for cut in 0..=bytes.len() {
            let text = String::from_utf8_lossy(&bytes[..cut]);
            survives("parse_object", &bytes[..cut], || json::parse_object(&text));
        }
        for m in flips(bytes, k as u64, 500, true) {
            let text = String::from_utf8_lossy(&m);
            survives("parse_object", &m, || json::parse_object(&text));
        }
    }
    for hostile in [
        "{\"a\": 1e999}",
        "{\"\\u",
        "{\"a\":\"\\uD800\"}",
        "{{{{",
        "\"\"\"\"",
    ] {
        survives("parse_object", hostile.as_bytes(), || {
            json::parse_object(hostile)
        });
    }
}

#[test]
fn snapshot_text_never_panics_or_over_allocates() {
    let dir = scratch_dir("snapshot");
    let (_, text) = valid_sink_and_snapshot(&dir);
    assert!(text.starts_with("spotcheck-snapshot v2\n"), "{text}");
    assert!(Snapshot::parse(&text).is_ok());
    let bytes = text.as_bytes();
    for cut in 0..=bytes.len() {
        let t = String::from_utf8_lossy(&bytes[..cut]);
        survives("Snapshot::parse", &bytes[..cut], || Snapshot::parse(&t));
    }
    for m in flips(bytes, 2, 3000, false) {
        let t = String::from_utf8_lossy(&m);
        survives("Snapshot::parse", &m, || Snapshot::parse(&t));
    }
    // A count that claims far more commands than the text holds.
    let inflated = text.replace("commands 5\n", "commands 18446744073709551615\n");
    survives("Snapshot::parse", inflated.as_bytes(), || {
        assert!(Snapshot::parse(&inflated).is_err())
    });
    let inflated = text.replace("commands 5\n", "commands 4000000000\n");
    survives("Snapshot::parse", inflated.as_bytes(), || {
        assert!(Snapshot::parse(&inflated).is_err())
    });
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sink_tails_never_panic_or_over_allocate() {
    let dir = scratch_dir("sink");
    let (sink, _) = valid_sink_and_snapshot(&dir);
    let path = dir.join("hostile.jsonl");
    let read = |bytes: &[u8]| {
        std::fs::write(&path, bytes).expect("write hostile sink");
        survives("read_command_tail", bytes, || read_command_tail(&path, 0));
    };
    std::fs::write(&path, &sink).expect("write sink");
    let tail = read_command_tail(&path, 0).expect("the valid tail reads");
    assert_eq!(tail.len(), 5);
    assert!(tail.iter().any(|c| !c.settled));
    for cut in 0..=sink.len() {
        read(&sink[..cut]);
    }
    for m in flips(&sink, 3, 1500, true) {
        read(&m);
    }
    std::fs::remove_dir_all(&dir).ok();
}
