//! Crash-consistent snapshots of the [`Engine`](crate::engine::Engine).
//!
//! A snapshot is *logical*, not physical: instead of serializing every
//! controller and platform field (fragile across refactors, and the
//! platform holds RNG streams mid-draw), it records the minimum that —
//! combined with the deterministic simulation — reconstructs the exact
//! state:
//!
//! 1. the digest of the [`Scenario`](crate::engine::Scenario) the engine
//!    was built from (traces + configs);
//! 2. the instant the snapshot was taken and the events processed by then;
//! 3. the full command log (every externally injected command with its
//!    exact simulation time);
//! 4. a 64-bit state signature over the live engine.
//!
//! Restore rebuilds a fresh engine from the same scenario, replays the
//! command log under the [replay discipline](crate::engine), advances to
//! the snapshot instant (settling it only if the live engine had), and
//! then *verifies* the step count and state signature. A mismatch —
//! different scenario inputs, a corrupted log, a code change that
//! altered the trajectory — is a hard error, never a silently wrong
//! resume. Restore cost is O(history) simulated events
//! rather than O(state) bytes; for the multi-day scenarios SpotCheck
//! targets that is seconds of wall clock, and the journal spill sink
//! keeps the tail of commands past the snapshot equally replayable.
//!
//! # Text format (version 2)
//!
//! ```text
//! spotcheck-snapshot v2
//! scenario <16-hex digest>
//! taken_at <micros>
//! steps <count>
//! commands <count>
//! cmd <seq> <micros> <kind> <a> <b> <c> <journaled:0|1> <settled:0|1>
//! ...
//! signature <16-hex digest>
//! ```
//!
//! Version 1 lacks the `settled` column; its commands parse as settled,
//! which is how version-1 replay treated every command.
//!
//! Line-oriented, integer-only (times in exact microseconds, digests in
//! hex), self-describing counts — parseable without any serialization
//! dependency and diffable by eye.

use std::fmt;
use std::io;
use std::path::Path;

use spotcheck_simcore::time::SimTime;

use crate::engine::{Command, Engine, Scenario, TimedCommand};

/// The snapshot format version this build writes. It also reads and
/// restores version 1.
pub const SNAPSHOT_VERSION: u32 = 2;

/// A parsed (or freshly taken) engine snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Format version (see [`SNAPSHOT_VERSION`]).
    pub version: u32,
    /// Digest of the scenario the engine was built from.
    pub scenario_digest: u64,
    /// The instant the snapshot was taken.
    pub taken_at: SimTime,
    /// Events processed by `taken_at`.
    pub steps: u64,
    /// The full command log up to `taken_at`.
    pub commands: Vec<TimedCommand>,
    /// State signature of the live engine at `taken_at`.
    pub signature: u64,
}

/// A malformed snapshot text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotError {
    /// 1-based line of the offending text, 0 for whole-file problems.
    pub line: usize,
    /// What went wrong.
    pub reason: String,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.line == 0 {
            write!(f, "snapshot: {}", self.reason)
        } else {
            write!(f, "snapshot line {}: {}", self.line, self.reason)
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Why a restore was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The snapshot's format version is not supported by this build.
    UnsupportedVersion(u32),
    /// The snapshot was taken from a different scenario.
    ScenarioMismatch {
        /// Digest recorded in the snapshot.
        expected: u64,
        /// Digest of the scenario offered for restore.
        actual: u64,
    },
    /// A command could not be replayed (out-of-order log).
    Replay(String),
    /// Replay converged on a different step count than recorded.
    StepMismatch {
        /// Steps recorded in the snapshot.
        expected: u64,
        /// Steps after replay.
        actual: u64,
    },
    /// Replay converged on a different state signature than recorded.
    SignatureMismatch {
        /// Signature recorded in the snapshot.
        expected: u64,
        /// Signature after replay.
        actual: u64,
    },
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::UnsupportedVersion(v) => {
                write!(f, "restore: unsupported snapshot version {v}")
            }
            RestoreError::ScenarioMismatch { expected, actual } => write!(
                f,
                "restore: scenario mismatch (snapshot {expected:016x}, given {actual:016x})"
            ),
            RestoreError::Replay(msg) => write!(f, "restore: {msg}"),
            RestoreError::StepMismatch { expected, actual } => write!(
                f,
                "restore: step count diverged (snapshot {expected}, replay {actual})"
            ),
            RestoreError::SignatureMismatch { expected, actual } => write!(
                f,
                "restore: state signature diverged (snapshot {expected:016x}, replay {actual:016x})"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

impl Snapshot {
    /// Renders the snapshot in the text format of its `version` (1 drops
    /// the `settled` column).
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(128 + self.commands.len() * 48);
        let _ = writeln!(s, "spotcheck-snapshot v{}", self.version);
        let _ = writeln!(s, "scenario {:016x}", self.scenario_digest);
        let _ = writeln!(s, "taken_at {}", self.taken_at.as_micros());
        let _ = writeln!(s, "steps {}", self.steps);
        let _ = writeln!(s, "commands {}", self.commands.len());
        for c in &self.commands {
            let (a, b, v) = c.cmd.encode_args();
            let _ = write!(
                s,
                "cmd {} {} {} {a} {b} {v} {}",
                c.seq,
                c.at.as_micros(),
                c.cmd.kind(),
                u64::from(c.journaled)
            );
            if self.version >= 2 {
                let _ = write!(s, " {}", u64::from(c.settled));
            }
            s.push('\n');
        }
        let _ = writeln!(s, "signature {:016x}", self.signature);
        s
    }

    /// Parses the version-1 or version-2 text format.
    ///
    /// # Errors
    ///
    /// Rejects truncated, reordered, or otherwise malformed text with the
    /// offending line.
    pub fn parse(text: &str) -> Result<Snapshot, SnapshotError> {
        fn err(line: usize, reason: impl Into<String>) -> SnapshotError {
            SnapshotError {
                line,
                reason: reason.into(),
            }
        }
        fn field<'a>(
            lines: &mut impl Iterator<Item = (usize, &'a str)>,
            key: &str,
        ) -> Result<(usize, String), SnapshotError> {
            let (n, line) = lines.next().ok_or_else(|| err(0, format!("missing {key}")))?;
            let rest = line
                .strip_prefix(key)
                .and_then(|r| r.strip_prefix(' '))
                .ok_or_else(|| err(n, format!("expected `{key} ...`")))?;
            Ok((n, rest.to_string()))
        }

        let mut lines = text.lines().enumerate().map(|(i, l)| (i + 1, l.trim_end()));
        let (n, header) = lines.next().ok_or_else(|| err(0, "empty snapshot"))?;
        let version: u32 = header
            .strip_prefix("spotcheck-snapshot v")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| err(n, "bad header (want `spotcheck-snapshot v<N>`)"))?;
        if !(1..=SNAPSHOT_VERSION).contains(&version) {
            return Err(err(n, format!("unsupported version {version}")));
        }
        let want_fields = if version == 1 { 7 } else { 8 };

        let (n, v) = field(&mut lines, "scenario")?;
        let scenario_digest =
            u64::from_str_radix(&v, 16).map_err(|_| err(n, "bad scenario digest"))?;
        let (n, v) = field(&mut lines, "taken_at")?;
        let taken_at = v
            .parse()
            .map(SimTime::from_micros)
            .map_err(|_| err(n, "bad taken_at"))?;
        let (n, v) = field(&mut lines, "steps")?;
        let steps: u64 = v.parse().map_err(|_| err(n, "bad steps"))?;
        let (n, v) = field(&mut lines, "commands")?;
        let count: usize = v.parse().map_err(|_| err(n, "bad command count"))?;

        // Each command line is at least 16 bytes, so the text bounds the
        // preallocation whatever the count claims.
        let mut commands = Vec::with_capacity(count.min(text.len() / 16));
        for i in 0..count {
            let (n, v) = field(&mut lines, "cmd")
                .map_err(|e| err(e.line, format!("command {i}: {}", e.reason)))?;
            let parts: Vec<&str> = v.split(' ').collect();
            if parts.len() != want_fields {
                return Err(err(n, format!("command {i}: want {want_fields} fields")));
            }
            let seq: u64 = parts[0].parse().map_err(|_| err(n, "bad seq"))?;
            if seq != i as u64 {
                return Err(err(n, format!("command {i}: seq {seq} out of order")));
            }
            let at = parts[1]
                .parse()
                .map(SimTime::from_micros)
                .map_err(|_| err(n, "bad command time"))?;
            let a: u64 = parts[3].parse().map_err(|_| err(n, "bad arg a"))?;
            let b: u64 = parts[4].parse().map_err(|_| err(n, "bad arg b"))?;
            let c: u64 = parts[5].parse().map_err(|_| err(n, "bad arg c"))?;
            // A version-1 line has no `settled` column: it reads as set.
            let flag = |i: usize, what: &str| match parts.get(i) {
                None => Ok(true),
                Some(&"0") => Ok(false),
                Some(&"1") => Ok(true),
                Some(_) => Err(err(n, format!("bad {what} flag"))),
            };
            let journaled = flag(6, "journaled")?;
            let settled = flag(7, "settled")?;
            let cmd = Command::decode(parts[2], a, b, c)
                .ok_or_else(|| err(n, format!("unknown command kind `{}`", parts[2])))?;
            commands.push(TimedCommand {
                seq,
                at,
                journaled,
                settled,
                cmd,
            });
        }

        let (n, v) = field(&mut lines, "signature")?;
        let signature = u64::from_str_radix(&v, 16).map_err(|_| err(n, "bad signature"))?;
        if let Some((n, l)) = lines.next() {
            if !l.is_empty() {
                return Err(err(n, "trailing content after signature"));
            }
        }
        Ok(Snapshot {
            version,
            scenario_digest,
            taken_at,
            steps,
            commands,
            signature,
        })
    }

    /// Writes the snapshot to `path` atomically: the text goes to a
    /// `.tmp` sibling first and is renamed into place, so a crash mid-write
    /// never leaves a truncated snapshot where a valid one should be.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_atomic(&self, path: &Path) -> io::Result<()> {
        let tmp = match path.file_name() {
            Some(name) => {
                let mut n = name.to_os_string();
                n.push(".tmp");
                path.with_file_name(n)
            }
            None => return Err(io::Error::new(io::ErrorKind::InvalidInput, "bad path")),
        };
        std::fs::write(&tmp, self.to_text())?;
        std::fs::rename(&tmp, path)
    }

    /// Reads and parses a snapshot file.
    ///
    /// # Errors
    ///
    /// Propagates read failures; parse failures surface as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read(path: &Path) -> io::Result<Snapshot> {
        let text = std::fs::read_to_string(path)?;
        Snapshot::parse(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

impl Engine {
    /// Takes a logical snapshot of the engine at the current instant.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            version: SNAPSHOT_VERSION,
            scenario_digest: self.scenario_digest(),
            taken_at: self.now(),
            steps: self.steps(),
            commands: self.command_log().to_vec(),
            signature: self.state_signature(),
        }
    }

    /// Rebuilds an engine from a scenario and a snapshot by deterministic
    /// replay, verifying convergence (see the [module docs](crate::snapshot)).
    ///
    /// # Errors
    ///
    /// Refuses unsupported versions, scenario mismatches, unreplayable
    /// logs, and any step-count or signature divergence.
    pub fn restore(scenario: &Scenario, snap: &Snapshot) -> Result<Engine, RestoreError> {
        if !(1..=SNAPSHOT_VERSION).contains(&snap.version) {
            return Err(RestoreError::UnsupportedVersion(snap.version));
        }
        let actual = scenario.digest();
        if snap.scenario_digest != actual {
            return Err(RestoreError::ScenarioMismatch {
                expected: snap.scenario_digest,
                actual,
            });
        }
        let mut engine = scenario.build();
        for cmd in &snap.commands {
            engine.replay(cmd).map_err(RestoreError::Replay)?;
        }
        // Settle the snapshot instant only if the live engine had: the
        // same rule as a settled command at an instant already reached.
        if snap.taken_at > engine.now() || engine.steps() < snap.steps {
            engine.step_until(snap.taken_at);
        }
        if engine.steps() != snap.steps {
            return Err(RestoreError::StepMismatch {
                expected: snap.steps,
                actual: engine.steps(),
            });
        }
        let signature = engine.state_signature();
        if signature != snap.signature {
            return Err(RestoreError::SignatureMismatch {
                expected: snap.signature,
                actual: signature,
            });
        }
        Ok(engine)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SpotCheckConfig;
    use crate::engine::CommandOutcome;
    use crate::sim::standard_traces;
    use spotcheck_simcore::time::SimDuration;
    use spotcheck_workloads::WorkloadKind;

    fn quick_scenario() -> Scenario {
        Scenario::new(
            standard_traces("us-east-1a", SimDuration::from_days(2), 42),
            SpotCheckConfig::default(),
        )
    }

    fn driven_engine(scenario: &Scenario) -> Engine {
        let mut engine = scenario.build();
        let c = match engine.apply(Command::CreateCustomer) {
            Ok(CommandOutcome::Customer(c)) => c,
            other => panic!("unexpected outcome {other:?}"),
        };
        engine
            .apply(Command::Provision {
                customer: c,
                workload: WorkloadKind::TpcW,
                stateless: false,
            })
            .unwrap();
        engine.step_until(SimTime::from_hours(6));
        engine
            .apply(Command::Provision {
                customer: c,
                workload: WorkloadKind::SpecJbb,
                stateless: true,
            })
            .unwrap();
        engine.step_until(SimTime::from_hours(12));
        engine
    }

    #[test]
    fn text_roundtrip_is_lossless() {
        let scenario = quick_scenario();
        let engine = driven_engine(&scenario);
        let snap = engine.snapshot();
        let parsed = Snapshot::parse(&snap.to_text()).expect("parse own output");
        assert_eq!(parsed, snap);
    }

    #[test]
    fn restore_converges_and_extends() {
        let scenario = quick_scenario();
        let mut original = driven_engine(&scenario);
        let snap = original.snapshot();

        let mut restored = Engine::restore(&scenario, &snap).expect("restore");
        assert_eq!(restored.now(), original.now());
        assert_eq!(restored.state_signature(), original.state_signature());

        // The restored engine continues exactly like the original.
        let horizon = SimTime::from_days(1);
        original.step_until(horizon);
        restored.step_until(horizon);
        assert_eq!(restored.steps(), original.steps());
        assert_eq!(restored.state_signature(), original.state_signature());
        assert_eq!(
            restored.journal().to_json(),
            original.journal().to_json()
        );
    }

    #[test]
    fn version_1_text_reads_every_command_as_settled_and_restores() {
        let scenario = quick_scenario();
        let mut snap = driven_engine(&scenario).snapshot();
        assert_eq!(snap.version, 2);
        // Two commands at t=0 with no event in between: not settled.
        assert!(!snap.commands[1].settled);
        snap.version = 1;
        let text = snap.to_text();
        assert!(text.starts_with("spotcheck-snapshot v1\n"));
        assert!(text.contains("\ncmd 1 0 provision 0 0 0 1\n"), "{text}");
        let parsed = Snapshot::parse(&text).expect("parse v1");
        assert!(parsed.commands.iter().all(|c| c.settled));
        // v1 replay settled before every command; this history converges
        // under that rule too.
        Engine::restore(&scenario, &parsed).expect("restore v1");
        assert!(Snapshot::parse(&text.replace("v1\n", "v3\n")).is_err());
    }

    #[test]
    fn restore_rejects_wrong_scenario() {
        let scenario = quick_scenario();
        let snap = driven_engine(&scenario).snapshot();
        let mut other = quick_scenario();
        other.config.seed = 1;
        match Engine::restore(&other, &snap) {
            Err(RestoreError::ScenarioMismatch { .. }) => {}
            Err(other) => panic!("expected scenario mismatch, got {other:?}"),
            Ok(_) => panic!("restore against a different scenario succeeded"),
        }
    }

    #[test]
    fn restore_rejects_tampered_log() {
        let scenario = quick_scenario();
        let mut snap = driven_engine(&scenario).snapshot();
        // Flip the second provision to stateless=false: replay diverges.
        if let Command::Provision { stateless, .. } = &mut snap.commands[2].cmd {
            *stateless = false;
        } else {
            panic!("expected a provision at log position 2");
        }
        assert!(Engine::restore(&scenario, &snap).is_err());
    }

    #[test]
    fn parse_rejects_malformed_text() {
        let scenario = quick_scenario();
        let text = driven_engine(&scenario).snapshot().to_text();
        assert!(Snapshot::parse("").is_err());
        assert!(Snapshot::parse("spotcheck-snapshot v1\n").is_err());
        let truncated = &text[..text.len() - 20];
        assert!(Snapshot::parse(truncated).is_err());
        let reordered = text.replace("cmd 0", "cmd 9");
        assert!(Snapshot::parse(&reordered).is_err());
    }

    #[test]
    fn atomic_write_then_read() {
        let scenario = quick_scenario();
        let snap = driven_engine(&scenario).snapshot();
        let mut path = std::env::temp_dir();
        path.push(format!("spotcheck-snap-test-{}", std::process::id()));
        snap.write_atomic(&path).expect("write");
        let back = Snapshot::read(&path).expect("read");
        assert_eq!(back, snap);
        std::fs::remove_file(&path).ok();
    }
}
