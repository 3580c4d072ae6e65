//! `spotcheckd` — the SpotCheck simulation as a daemon.
//!
//! ```text
//! spotcheckd [--addr 127.0.0.1:7077] [--accel N] [--days N] [--seed N]
//!            [--zone us-east-1a]
//!            [--snapshot-dir DIR] [--snapshot-every-secs N]
//!            [--journal-sink FILE] [--resume]
//! ```
//!
//! Binds the TCP protocol socket, prints `listening on <addr>`, and runs
//! until a `shutdown` verb or SIGTERM/SIGINT (both flush the journal sink
//! and write a final snapshot). `--accel N` runs simulated time N times
//! faster than the wall clock; `--resume` cold-starts from the newest
//! snapshot plus the journal sink's replay tail.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::ExitCode;

use spotcheck_core::config::SpotCheckConfig;
use spotcheck_core::engine::Scenario;
use spotcheck_core::sim::standard_traces;
use spotcheck_service::{signal, Daemon, DaemonConfig};
use spotcheck_simcore::time::{SimDuration, SimTime};

struct Args {
    addr: String,
    accel: f64,
    days: u64,
    seed: u64,
    zone: String,
    snapshot_dir: Option<PathBuf>,
    snapshot_every_secs: u64,
    journal_sink: Option<PathBuf>,
    resume: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7077".to_string(),
        accel: 1.0,
        days: 14,
        seed: 42,
        zone: "us-east-1a".to_string(),
        snapshot_dir: None,
        snapshot_every_secs: 21_600,
        journal_sink: None,
        resume: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--accel" => {
                args.accel = value("--accel")?
                    .parse()
                    .map_err(|_| "--accel: not a number".to_string())?;
                if !(args.accel.is_finite() && args.accel > 0.0) {
                    return Err("--accel must be positive".to_string());
                }
            }
            "--days" => {
                args.days = value("--days")?
                    .parse()
                    .map_err(|_| "--days: not an integer".to_string())?;
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed: not an integer".to_string())?;
            }
            "--zone" => args.zone = value("--zone")?,
            "--snapshot-dir" => args.snapshot_dir = Some(PathBuf::from(value("--snapshot-dir")?)),
            "--snapshot-every-secs" => {
                args.snapshot_every_secs = value("--snapshot-every-secs")?
                    .parse()
                    .map_err(|_| "--snapshot-every-secs: not an integer".to_string())?;
                if args.snapshot_every_secs == 0 {
                    return Err("--snapshot-every-secs must be positive".to_string());
                }
            }
            "--journal-sink" => args.journal_sink = Some(PathBuf::from(value("--journal-sink")?)),
            "--resume" => args.resume = true,
            "--help" | "-h" => {
                return Err("usage: spotcheckd [--addr A] [--accel N] [--days N] [--seed N] \
                            [--zone Z] [--snapshot-dir D] \
                            [--snapshot-every-secs N] [--journal-sink F] [--resume]"
                    .to_string());
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let horizon = SimDuration::from_days(args.days);
    let config = SpotCheckConfig {
        seed: args.seed,
        ..SpotCheckConfig::default()
    };
    let scenario = Scenario::new(standard_traces(&args.zone, horizon, args.seed), config);
    let daemon_config = DaemonConfig {
        accel: args.accel,
        horizon: SimTime::from_days(args.days),
        snapshot_dir: args.snapshot_dir,
        snapshot_every: SimDuration::from_secs(args.snapshot_every_secs),
        journal_sink: args.journal_sink,
    };
    let mut daemon = match if args.resume {
        Daemon::resume(scenario, daemon_config)
    } else {
        Daemon::new(scenario, daemon_config)
    } {
        Ok(d) => d,
        Err(e) => {
            eprintln!("spotcheckd: startup failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    signal::install();
    let listener = match TcpListener::bind(&args.addr) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("spotcheckd: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    let local = listener.local_addr().map(|a| a.to_string());
    // Tests and scripts parse this line to learn the ephemeral port; make
    // sure it is flushed before the first (possibly long) pacing stretch.
    use std::io::Write as _;
    println!(
        "listening on {}",
        local.as_deref().unwrap_or(args.addr.as_str())
    );
    std::io::stdout().flush().ok();
    match daemon.run(listener) {
        Ok(()) => {
            // Supervisors may have closed our stdout by now; a farewell
            // line is not worth dying over.
            let _ = writeln!(
                std::io::stdout(),
                "spotcheckd: stopped at t={:.0}s after {} events",
                daemon.engine().now().as_secs_f64(),
                daemon.engine().steps()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("spotcheckd: {e}");
            ExitCode::FAILURE
        }
    }
}
