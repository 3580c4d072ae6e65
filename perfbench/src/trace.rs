//! In-memory spans around the benchmark's calls into each layer, plus the
//! small statistics the metrics are derived with.
//!
//! A span records name, start, end, parent, workload and run (cycle). With
//! tracing off, [`Tracer::span`] is a plain call: the untraced runs that
//! produce end-to-end metrics pay one branch per call.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub run: u32,
}

/// Span recorder for one workload process.
pub struct Tracer {
    enabled: bool,
    workload: &'static str,
    origin: Instant,
    run: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(workload: &'static str) -> Self {
        Tracer {
            enabled: false,
            workload,
            origin: Instant::now(),
            run: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Turns recording on or off for the next cycle.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Starts a new cycle: spans recorded from now on carry its number.
    pub fn set_run(&mut self, run: u32) {
        self.run = run;
    }

    /// Runs `f` inside a span named `name` (a plain call when disabled).
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let idx = self.open(name);
        let out = f(self);
        self.close(idx);
        out
    }

    /// Opens a span explicitly (for spans that cannot wrap a closure);
    /// `None` when tracing is off.
    pub fn open(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.stack.last().copied(),
            run: self.run,
        });
        self.stack.push(idx);
        Some(idx)
    }

    /// Closes a span returned by [`Tracer::open`] (the innermost open one).
    pub fn close(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            let top = self.stack.pop();
            debug_assert_eq!(top, Some(idx), "spans must nest");
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    /// Opens a span under the current parent without making it the
    /// parent of later spans: for requests that overlap one another.
    pub fn open_detached(&mut self, name: &'static str) -> Option<usize> {
        let idx = self.open(name);
        if idx.is_some() {
            self.stack.pop();
        }
        idx
    }

    /// Closes a span opened with [`Tracer::open_detached`].
    pub fn close_detached(&mut self, idx: Option<usize>) {
        if let Some(idx) = idx {
            self.spans[idx].end_ns = self.origin.elapsed().as_nanos() as u64;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus the time its children cover
    /// (overlapping children count once).
    pub fn self_time_s(&self, idx: usize) -> f64 {
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(|s| (s.start_ns, s.end_ns))
            .collect();
        children.sort_unstable();
        let (mut covered, mut reach) = (0u64, 0u64);
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        let total = self.spans[idx].end_ns - self.spans[idx].start_ns;
        total.saturating_sub(covered) as f64 * 1e-9
    }

    /// Share (%) of each `phase` span covered by its direct children,
    /// median over cycles: how much of the timed phase the layer spans
    /// attribute.
    pub fn coverage_pct(&self, phase: &str) -> f64 {
        let shares: Vec<f64> = self
            .spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == phase)
            .map(|(i, s)| {
                let total = (s.end_ns - s.start_ns).max(1) as f64;
                let own = self.self_time_s(i) * 1e9;
                100.0 * (total - own) / total
            })
            .collect();
        median(&shares)
    }

    /// Writes every span as one JSON line to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"workload\": \"{}\", \"run\": {}}}",
                s.name, s.start_ns, s.end_ns, self.workload, s.run
            )?;
        }
        out.flush()
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// The `p`th percentile of `xs` by nearest rank (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Times `f`, returning its result and the elapsed seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}
