//! CLI that regenerates every table and figure of the paper.
//!
//! ```text
//! experiments [--quick] [--list] [--json] [--out PATH] [--journal PATH] [--threads N] [--shards N] [id ...]
//! ```
//!
//! - `--quick` shrinks horizons for smoke tests.
//! - `--threads N` caps the worker count (0 or absent: auto-detect). The
//!   worker count never changes any reported number, only wall-clock time.
//! - `--shards N` caps the worker threads sharded simulations (the
//!   `fleet_sharded` experiment) use per epoch window (0 or absent: follow
//!   `--threads`). The logical shard topology is fixed by the scenario, so
//!   like `--threads` this flag never changes any reported number.
//! - `--json` emits a machine-readable performance report (wall-clock,
//!   simulation events, throughput per experiment) instead of the human
//!   tables; with `--out PATH` the JSON goes to the file and the tables
//!   still print to stdout.
//! - `--journal PATH` runs the canonical revocation-spike scenario and
//!   dumps its structured controller journal (typed records + counters) as
//!   JSON to PATH. With no experiment ids, the dump is all that runs.

use std::process::ExitCode;

use spotcheck_bench::{all_ids, run_many, PerfReport, Scale};

struct Args {
    scale: Scale,
    list: bool,
    json: bool,
    out: Option<String>,
    journal: Option<String>,
    threads: usize,
    shards: usize,
    ids: Vec<String>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: Scale::Full,
        list: false,
        json: false,
        out: None,
        journal: None,
        threads: 0,
        shards: 0,
        ids: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => args.scale = Scale::Quick,
            "--list" => args.list = true,
            "--json" => args.json = true,
            "--out" => {
                args.out = Some(
                    it.next()
                        .ok_or("--out requires a file path")?
                        .clone(),
                );
            }
            "--journal" => {
                args.journal = Some(
                    it.next()
                        .ok_or("--journal requires a file path")?
                        .clone(),
                );
            }
            "--threads" => {
                let n = it.next().ok_or("--threads requires a count")?;
                args.threads = n
                    .parse()
                    .map_err(|e| format!("bad --threads value {n:?}: {e}"))?;
            }
            "--shards" => {
                let n = it.next().ok_or("--shards requires a count")?;
                args.shards = n
                    .parse()
                    .map_err(|e| format!("bad --shards value {n:?}: {e}"))?;
            }
            flag if flag.starts_with("--") => {
                return Err(format!("unknown flag: {flag}"));
            }
            id => args.ids.push(id.to_string()),
        }
    }
    if args.out.is_some() && !args.json {
        return Err("--out requires --json".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.list {
        for id in all_ids() {
            println!("{id}");
        }
        return ExitCode::SUCCESS;
    }

    spotcheck_simcore::parallel::set_max_threads(args.threads);
    spotcheck_simcore::shard::set_shard_workers(args.shards);

    if let Some(path) = &args.journal {
        let json = spotcheck_bench::experiments::ablations::journal_json();
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        if args.ids.is_empty() {
            return ExitCode::SUCCESS;
        }
    }

    let selected: Vec<&str> = if args.ids.is_empty() {
        all_ids()
    } else {
        args.ids.iter().map(String::as_str).collect()
    };

    let start = std::time::Instant::now();
    let results = match run_many(&selected, args.scale) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e} (try --list)");
            return ExitCode::FAILURE;
        }
    };
    let total_wall = start.elapsed();

    // Deposited by the `trace_library` experiment when it ran (its
    // throughput is measured inside the run).
    let ingest = spotcheck_bench::experiments::trace_library::last_report();

    if args.json {
        let report = PerfReport {
            scale: args.scale,
            threads: spotcheck_simcore::parallel::configured_threads(),
            shards: args.shards,
            total_wall,
            trace_library: ingest.as_ref(),
            results: &results,
        };
        let json = report.to_json();
        match &args.out {
            Some(path) => {
                if let Err(e) = std::fs::write(path, &json) {
                    eprintln!("failed to write {path}: {e}");
                    return ExitCode::FAILURE;
                }
            }
            None => {
                print!("{json}");
                return ExitCode::SUCCESS;
            }
        }
    }

    for result in &results {
        println!("==============================================================");
        println!(
            "[{}] {}  ({:.3}s, {} events)",
            result.id,
            result.title,
            result.wall.as_secs_f64(),
            result.events
        );
        println!("==============================================================");
        println!("{}", result.output);
    }
    ExitCode::SUCCESS
}
