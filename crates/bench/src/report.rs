//! Machine-readable performance reports (`BENCH_RESULTS.json`).
//!
//! The experiments CLI's `--json` mode serializes every
//! [`ExperimentResult`](crate::ExperimentResult)'s timing instrumentation —
//! wall-clock, simulation-event count, and throughput — so CI can track the
//! harness's performance over time without parsing the human tables. The
//! writer is hand-rolled (the build environment carries no serde); the
//! subset of JSON emitted is deliberately small: objects, arrays, strings,
//! finite numbers.

use crate::experiments::trace_library::IngestReport;
use crate::experiments::{ExperimentResult, Scale};

/// A performance report over one harness invocation.
#[derive(Debug, Clone)]
pub struct PerfReport<'a> {
    /// Scale the experiments ran at.
    pub scale: Scale,
    /// Worker count the harness was configured with.
    pub threads: usize,
    /// Shard-worker cap (`--shards`; 0 follows `--threads`).
    pub shards: usize,
    /// End-to-end wall-clock for the whole invocation (includes registry
    /// fan-out overlap, so it is at most the sum of per-experiment walls).
    pub total_wall: std::time::Duration,
    /// The archive-ingest measurements, when the `trace_library`
    /// experiment ran.
    pub trace_library: Option<&'a IngestReport>,
    /// The instrumented results, in registry order.
    pub results: &'a [ExperimentResult],
}

impl PerfReport<'_> {
    /// Renders the report as a JSON document (trailing newline included).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256 + 160 * self.results.len());
        out.push_str("{\n");
        out.push_str("  \"suite\": \"spotcheck-experiments\",\n");
        out.push_str(&format!(
            "  \"scale\": \"{}\",\n",
            match self.scale {
                Scale::Full => "full",
                Scale::Quick => "quick",
            }
        ));
        out.push_str(&format!("  \"threads\": {},\n", self.threads));
        // The run configuration, so consumers (the CI throughput guard)
        // can refuse to compare unlike-configured runs.
        out.push_str(&format!(
            "  \"config\": {{\"threads\": {}, \"shards\": {}}},\n",
            self.threads, self.shards
        ));
        out.push_str(&format!(
            "  \"total_wall_secs\": {},\n",
            json_f64(self.total_wall.as_secs_f64())
        ));
        if let Some(ingest) = self.trace_library {
            out.push_str("  \"trace_library\": {\n");
            out.push_str(&format!("    \"markets\": {},\n", ingest.markets));
            out.push_str(&format!("    \"points\": {},\n", ingest.points));
            out.push_str(&format!("    \"csv_bytes\": {},\n", ingest.csv_bytes));
            out.push_str(&format!("    \"stl_bytes\": {},\n", ingest.stl_bytes));
            out.push_str(&format!(
                "    \"csv_reference_secs\": {},\n",
                json_f64(ingest.csv_reference_secs)
            ));
            out.push_str(&format!(
                "    \"csv_ingest_secs\": {},\n",
                json_f64(ingest.csv_ingest_secs)
            ));
            out.push_str(&format!(
                "    \"stl_write_secs\": {},\n",
                json_f64(ingest.stl_write_secs)
            ));
            out.push_str(&format!(
                "    \"stl_load_secs\": {},\n",
                json_f64(ingest.stl_load_secs)
            ));
            out.push_str(&format!(
                "    \"stl_load_speedup\": {}\n",
                json_f64(ingest.stl_speedup())
            ));
            out.push_str("  },\n");
        }
        let total_events: u64 = self.results.iter().map(|r| r.events).sum();
        out.push_str(&format!("  \"total_events\": {total_events},\n"));
        out.push_str("  \"experiments\": [\n");
        for (i, r) in self.results.iter().enumerate() {
            out.push_str("    {");
            out.push_str(&format!("\"id\": {}, ", json_str(r.id)));
            out.push_str(&format!("\"title\": {}, ", json_str(r.title)));
            out.push_str(&format!(
                "\"wall_secs\": {}, ",
                json_f64(r.wall.as_secs_f64())
            ));
            out.push_str(&format!("\"events\": {}, ", r.events));
            out.push_str(&format!(
                "\"events_per_sec\": {}, ",
                json_f64(r.events_per_sec())
            ));
            out.push_str(&format!("\"peak_queue_depth\": {}", r.peak_queue_depth));
            out.push_str(if i + 1 < self.results.len() { "},\n" } else { "}\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Escapes a string as a JSON string literal (quotes included).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a finite `f64` as a JSON number (non-finite values map to 0).
pub fn json_f64(x: f64) -> String {
    if x.is_finite() {
        // `{}` on f64 is shortest-roundtrip and always contains a digit;
        // values like `1e300` are valid JSON numbers too.
        let s = format!("{x}");
        if s.contains('.') || s.contains('e') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "0.0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(id: &'static str, events: u64, millis: u64) -> ExperimentResult {
        ExperimentResult {
            id,
            title: "a \"quoted\"\ttitle",
            output: String::new(),
            wall: std::time::Duration::from_millis(millis),
            events,
            peak_queue_depth: 7,
        }
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_str("plain"), "\"plain\"");
        assert_eq!(json_str("a\"b\\c\nd"), "\"a\\\"b\\\\c\\nd\"");
        assert_eq!(json_str("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn json_numbers_always_carry_a_fraction_or_exponent() {
        assert_eq!(json_f64(1.5), "1.5");
        assert_eq!(json_f64(2.0), "2.0");
        assert_eq!(json_f64(f64::NAN), "0.0");
        assert_eq!(json_f64(f64::INFINITY), "0.0");
    }

    #[test]
    fn report_renders_every_result() {
        let results = vec![result("fig1", 100, 10), result("fig6a", 0, 0)];
        let report = PerfReport {
            scale: Scale::Quick,
            threads: 4,
            shards: 8,
            total_wall: std::time::Duration::from_millis(12),
            trace_library: None,
            results: &results,
        };
        let json = report.to_json();
        assert!(json.contains("\"suite\": \"spotcheck-experiments\""));
        assert!(json.contains("\"scale\": \"quick\""));
        assert!(json.contains("\"threads\": 4"));
        assert!(json.contains("\"config\": {\"threads\": 4, \"shards\": 8}"));
        assert!(json.contains("\"id\": \"fig1\""));
        assert!(json.contains("\"id\": \"fig6a\""));
        assert!(json.contains("\"total_events\": 100"));
        assert!(!json.contains("trace_library"));
        // Balanced braces/brackets (a cheap well-formedness check; the CI
        // smoke job does a real parse with python).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn trace_library_block_renders_when_present() {
        let results = vec![result("fleet_sharded", 100, 10)];
        let report = PerfReport {
            scale: Scale::Full,
            threads: 1,
            shards: 0,
            total_wall: std::time::Duration::from_millis(12),
            trace_library: Some(&IngestReport {
                markets: 216,
                points: 9_000_000,
                csv_bytes: 220_000_000,
                stl_bytes: 100_000_000,
                csv_reference_secs: 10.0,
                csv_ingest_secs: 1.5,
                stl_write_secs: 0.5,
                stl_load_secs: 0.4,
            }),
            results: &results,
        };
        let json = report.to_json();
        assert!(json.contains("\"trace_library\": {"));
        assert!(json.contains("\"stl_load_speedup\": 25.0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn zero_wall_run_reports_zero_throughput() {
        let r = result("x", 50, 0);
        assert_eq!(r.events_per_sec(), 0.0);
    }
}
