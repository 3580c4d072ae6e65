//! Structured event journal of the controller's internal activity.
//!
//! Every subsystem of the [`crate::controller`] records compact typed
//! entries here as it works: state transitions (VM status, migration
//! phase, return phase), effects emitted on the effect bus (host
//! acquisitions, ENI/volume attaches and detaches, terminations,
//! scheduled events), retries, faults, and cloud-operation deliveries.
//! Each entry carries the simulation time and the subsystem that produced
//! it, so a run can be replayed *semantically* after the fact — which
//! migration stalled, which market's retries exploded, which crash lost a
//! VM — without re-running the simulation under a debugger.
//!
//! The journal is always on. Exact [`JournalCounters`] are maintained for
//! every record kind regardless of volume; the record list itself is
//! capped (default 65 536 entries) so month-scale experiments cannot
//! accumulate unbounded memory — entries past the cap are counted in
//! [`Journal::dropped`] but not stored.
//!
//! Records serialize to JSON via [`Journal::to_json`] (hand-rolled, no
//! external dependencies) for the bench harness's `--journal` dump and the
//! CI schema check.

use spotcheck_cloudsim::ids::InstanceId;
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::time::SimTime;

use crate::types::MigrationId;

/// Which controller subsystem produced a journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Subsystem {
    /// The top-level dispatcher (bootstrap, customer API, price routing).
    Controller,
    /// Host/spare pool management.
    Pools,
    /// VM provisioning and placement.
    Provision,
    /// The bounded-time migration state machine.
    Migration,
    /// Backup assignment and re-replication.
    Replication,
    /// Crash taxonomy, forced termination, and revocation warnings.
    Recovery,
    /// Return-to-spot live migrations.
    Returns,
}

impl Subsystem {
    /// Stable lowercase name (used in JSON and queries).
    pub fn as_str(self) -> &'static str {
        match self {
            Subsystem::Controller => "controller",
            Subsystem::Pools => "pools",
            Subsystem::Provision => "provision",
            Subsystem::Migration => "migration",
            Subsystem::Replication => "replication",
            Subsystem::Recovery => "recovery",
            Subsystem::Returns => "returns",
        }
    }
}

/// A typed side effect emitted by a subsystem onto the effect bus.
///
/// Effects are the only way subsystems touch the platform or the event
/// queue: the bus executes each one synchronously (preserving the exact
/// platform call order, which seeded latency draws depend on) and records
/// it here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// A spot host was requested (boot in flight).
    AcquireSpot {
        /// The new instance.
        instance: InstanceId,
    },
    /// An on-demand host was requested (boot in flight).
    AcquireOnDemand {
        /// The new instance.
        instance: InstanceId,
    },
    /// An ENI attach was issued against `instance`.
    AttachEni {
        /// The target instance.
        instance: InstanceId,
    },
    /// A volume attach was issued against `instance`.
    AttachVolume {
        /// The target instance.
        instance: InstanceId,
    },
    /// An ENI detach was issued.
    DetachEni,
    /// A volume detach was issued.
    DetachVolume,
    /// A termination was issued for `instance`.
    Terminate {
        /// The doomed instance.
        instance: InstanceId,
    },
    /// The platform's forced termination of `instance` was executed.
    ForceTerminate {
        /// The revoked instance.
        instance: InstanceId,
    },
    /// A follow-up event was scheduled on the outbox.
    Schedule {
        /// The event kind (see [`crate::events::Event::kind`]).
        event: &'static str,
    },
}

impl Effect {
    /// Stable lowercase name of the effect variant.
    pub fn kind(self) -> &'static str {
        match self {
            Effect::AcquireSpot { .. } => "acquire_spot",
            Effect::AcquireOnDemand { .. } => "acquire_on_demand",
            Effect::AttachEni { .. } => "attach_eni",
            Effect::AttachVolume { .. } => "attach_volume",
            Effect::DetachEni => "detach_eni",
            Effect::DetachVolume => "detach_volume",
            Effect::Terminate { .. } => "terminate",
            Effect::ForceTerminate { .. } => "force_terminate",
            Effect::Schedule { .. } => "schedule",
        }
    }
}

/// One typed journal record.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// A VM's lifecycle status changed.
    VmStatus {
        /// The VM.
        vm: NestedVmId,
        /// Previous status name.
        from: &'static str,
        /// New status name.
        to: &'static str,
    },
    /// A migration began.
    MigStarted {
        /// The migration.
        mig: MigrationId,
        /// The VM being moved.
        vm: NestedVmId,
        /// True for live transfers.
        live: bool,
        /// True for proactive evacuations (no warning involved).
        proactive: bool,
    },
    /// A migration's state machine took a legal transition.
    MigPhase {
        /// The migration.
        mig: MigrationId,
        /// Previous phase name.
        from: &'static str,
        /// New phase name.
        to: &'static str,
    },
    /// A migration completed; the VM runs at its destination.
    MigCompleted {
        /// The migration.
        mig: MigrationId,
        /// The VM.
        vm: NestedVmId,
    },
    /// A migration aborted because the VM's memory was unrecoverable.
    MigAborted {
        /// The migration.
        mig: MigrationId,
        /// The lost VM.
        vm: NestedVmId,
    },
    /// An illegal migration transition was attempted (and refused).
    Illegal {
        /// The migration.
        mig: MigrationId,
        /// The phase it was in.
        from: &'static str,
        /// The refused transition.
        attempted: &'static str,
    },
    /// A return-to-spot live migration began.
    ReturnStarted {
        /// The returning VM.
        vm: NestedVmId,
    },
    /// A return's phase advanced.
    ReturnPhase {
        /// The returning VM.
        vm: NestedVmId,
        /// Previous phase name.
        from: &'static str,
        /// New phase name.
        to: &'static str,
    },
    /// A return completed; the VM is back on spot.
    ReturnCompleted {
        /// The VM.
        vm: NestedVmId,
    },
    /// A return was abandoned (market moved, or the source died).
    ReturnAbandoned {
        /// The VM (still on its on-demand host).
        vm: NestedVmId,
    },
    /// An effect executed on the effect bus.
    Effect(Effect),
    /// A retry was scheduled.
    Retry {
        /// What is being retried ("provision", "terminate", "dest").
        what: &'static str,
        /// Attempt number (1-based).
        attempt: u32,
    },
    /// An injected platform fault was delivered.
    Fault {
        /// The fault kind name.
        kind: &'static str,
        /// Revocation warnings it produced.
        warnings: u32,
        /// Instance crashes it produced.
        crashes: u32,
    },
    /// A revocation warning hit a host.
    Warning {
        /// The doomed instance.
        instance: InstanceId,
    },
    /// An asynchronous cloud operation's completion was delivered.
    OpDelivered {
        /// The semantic purpose of the operation.
        purpose: &'static str,
        /// The notification (or error) it resolved to.
        outcome: &'static str,
    },
    /// A backup server was assigned to protect a VM.
    BackupAssigned {
        /// The protected VM.
        vm: NestedVmId,
    },
    /// A backup server failed, orphaning its VMs.
    BackupFailed {
        /// VMs left without a complete checkpoint.
        orphans: u32,
    },
    /// A backup server acknowledged a complete checkpoint.
    CheckpointAcked {
        /// The protected VM.
        vm: NestedVmId,
    },
    /// A re-replication push to a replacement backup began.
    RereplicationStarted {
        /// The VM being re-protected.
        vm: NestedVmId,
        /// The guarding epoch.
        epoch: u32,
    },
    /// A re-replication push completed and was current.
    RereplicationDone {
        /// The re-protected VM.
        vm: NestedVmId,
        /// The epoch that landed.
        epoch: u32,
    },
    /// A crashed VM began restoring from its backup checkpoint.
    CrashRecovery {
        /// The VM.
        vm: NestedVmId,
        /// The recovery migration.
        mig: MigrationId,
    },
    /// A VM was lost unrecoverably.
    VmLost {
        /// The VM.
        vm: NestedVmId,
    },
    /// The 30 s migration guarantee was violated: the dirty residue did not
    /// reach the backup before the platform's forced termination.
    DeadlineViolation {
        /// The migration whose bound broke.
        mig: MigrationId,
        /// The VM.
        vm: NestedVmId,
        /// Why: "contention" (the commit flow was still transferring),
        /// "queue_wait" (admission staging delayed the commit past its
        /// deadline), or "residue_lost" (the host died with the commit
        /// still in flight).
        cause: &'static str,
    },
    /// Graceful degradation: the bound provably could not hold, so the VM
    /// fell back to Yank-style pause-and-flush (downtime charged to
    /// availability).
    FallbackYank {
        /// The migration.
        mig: MigrationId,
        /// The VM.
        vm: NestedVmId,
    },
    /// Admission control staged a final commit behind the concurrency cap.
    CommitQueued {
        /// The migration.
        mig: MigrationId,
        /// The VM.
        vm: NestedVmId,
    },
    /// A staged final commit was admitted and its flow launched.
    CommitAdmitted {
        /// The migration.
        mig: MigrationId,
        /// The VM.
        vm: NestedVmId,
        /// Milliseconds spent waiting in the admission queue.
        waited_ms: u64,
    },
    /// An external command was injected into the engine (the daemon's
    /// socket API). These records make the journal a complete replay tail:
    /// cold start = snapshot + re-apply every journaled command after it.
    Command {
        /// Dense position in the engine's command log.
        seq: u64,
        /// The command kind (see `crate::engine::Command::kind`).
        cmd: &'static str,
        /// First encoded argument.
        a: u64,
        /// Second encoded argument.
        b: u64,
        /// Third encoded argument.
        c: u64,
        /// Whether events were processed since the previous command (see
        /// `crate::engine::TimedCommand::settled`).
        settled: bool,
    },
}

impl Record {
    /// Stable lowercase name of the record variant.
    pub fn kind(&self) -> &'static str {
        match self {
            Record::VmStatus { .. } => "vm_status",
            Record::MigStarted { .. } => "mig_started",
            Record::MigPhase { .. } => "mig_phase",
            Record::MigCompleted { .. } => "mig_completed",
            Record::MigAborted { .. } => "mig_aborted",
            Record::Illegal { .. } => "illegal_transition",
            Record::ReturnStarted { .. } => "return_started",
            Record::ReturnPhase { .. } => "return_phase",
            Record::ReturnCompleted { .. } => "return_completed",
            Record::ReturnAbandoned { .. } => "return_abandoned",
            Record::Effect(e) => e.kind(),
            Record::Retry { .. } => "retry",
            Record::Fault { .. } => "fault",
            Record::Warning { .. } => "warning",
            Record::OpDelivered { .. } => "op_delivered",
            Record::BackupAssigned { .. } => "backup_assigned",
            Record::BackupFailed { .. } => "backup_failed",
            Record::CheckpointAcked { .. } => "checkpoint_acked",
            Record::RereplicationStarted { .. } => "rereplication_started",
            Record::RereplicationDone { .. } => "rereplication_done",
            Record::CrashRecovery { .. } => "crash_recovery",
            Record::VmLost { .. } => "vm_lost",
            Record::DeadlineViolation { .. } => "deadline_violation",
            Record::FallbackYank { .. } => "fallback_yank",
            Record::CommitQueued { .. } => "commit_queued",
            Record::CommitAdmitted { .. } => "commit_admitted",
            Record::Command { .. } => "command",
        }
    }

    /// Appends this record's detail fields as JSON object members.
    fn write_json_fields(&self, s: &mut String) {
        use std::fmt::Write as _;
        match self {
            Record::VmStatus { vm, from, to } => {
                let _ = write!(s, r#", "vm": {}, "from": "{from}", "to": "{to}""#, vm.0);
            }
            Record::MigStarted { mig, vm, live, proactive } => {
                let _ = write!(
                    s,
                    r#", "mig": {}, "vm": {}, "live": {live}, "proactive": {proactive}"#,
                    mig.0, vm.0
                );
            }
            Record::MigPhase { mig, from, to } => {
                let _ = write!(s, r#", "mig": {}, "from": "{from}", "to": "{to}""#, mig.0);
            }
            Record::MigCompleted { mig, vm } | Record::MigAborted { mig, vm } => {
                let _ = write!(s, r#", "mig": {}, "vm": {}"#, mig.0, vm.0);
            }
            Record::Illegal { mig, from, attempted } => {
                let _ = write!(
                    s,
                    r#", "mig": {}, "from": "{from}", "attempted": "{attempted}""#,
                    mig.0
                );
            }
            Record::ReturnStarted { vm }
            | Record::ReturnCompleted { vm }
            | Record::ReturnAbandoned { vm } => {
                let _ = write!(s, r#", "vm": {}"#, vm.0);
            }
            Record::ReturnPhase { vm, from, to } => {
                let _ = write!(s, r#", "vm": {}, "from": "{from}", "to": "{to}""#, vm.0);
            }
            Record::Effect(e) => match e {
                Effect::AcquireSpot { instance }
                | Effect::AcquireOnDemand { instance }
                | Effect::AttachEni { instance }
                | Effect::AttachVolume { instance }
                | Effect::Terminate { instance }
                | Effect::ForceTerminate { instance } => {
                    let _ = write!(s, r#", "instance": {}"#, instance.0);
                }
                Effect::DetachEni | Effect::DetachVolume => {}
                Effect::Schedule { event } => {
                    let _ = write!(s, r#", "event": "{event}""#);
                }
            },
            Record::Retry { what, attempt } => {
                let _ = write!(s, r#", "what": "{what}", "attempt": {attempt}"#);
            }
            Record::Fault { kind, warnings, crashes } => {
                let _ = write!(
                    s,
                    r#", "fault": "{kind}", "warnings": {warnings}, "crashes": {crashes}"#
                );
            }
            Record::Warning { instance } => {
                let _ = write!(s, r#", "instance": {}"#, instance.0);
            }
            Record::OpDelivered { purpose, outcome } => {
                let _ = write!(s, r#", "purpose": "{purpose}", "outcome": "{outcome}""#);
            }
            Record::BackupAssigned { vm }
            | Record::CheckpointAcked { vm }
            | Record::VmLost { vm } => {
                let _ = write!(s, r#", "vm": {}"#, vm.0);
            }
            Record::BackupFailed { orphans } => {
                let _ = write!(s, r#", "orphans": {orphans}"#);
            }
            Record::RereplicationStarted { vm, epoch }
            | Record::RereplicationDone { vm, epoch } => {
                let _ = write!(s, r#", "vm": {}, "epoch": {epoch}"#, vm.0);
            }
            Record::CrashRecovery { vm, mig } => {
                let _ = write!(s, r#", "vm": {}, "mig": {}"#, vm.0, mig.0);
            }
            Record::DeadlineViolation { mig, vm, cause } => {
                let _ = write!(s, r#", "mig": {}, "vm": {}, "cause": "{cause}""#, mig.0, vm.0);
            }
            Record::FallbackYank { mig, vm } | Record::CommitQueued { mig, vm } => {
                let _ = write!(s, r#", "mig": {}, "vm": {}"#, mig.0, vm.0);
            }
            Record::CommitAdmitted { mig, vm, waited_ms } => {
                let _ = write!(
                    s,
                    r#", "mig": {}, "vm": {}, "waited_ms": {waited_ms}"#,
                    mig.0, vm.0
                );
            }
            Record::Command {
                seq,
                cmd,
                a,
                b,
                c,
                settled,
            } => {
                let _ = write!(
                    s,
                    r#", "seq": {seq}, "cmd": "{cmd}", "a": {a}, "b": {b}, "c": {c}, "settled": {settled}"#
                );
            }
        }
    }
}

/// One journal entry: a timestamped, subsystem-tagged [`Record`].
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// When the record was produced.
    pub at: SimTime,
    /// The subsystem that produced it.
    pub subsystem: Subsystem,
    /// The typed record.
    pub record: Record,
}

impl Entry {
    /// Appends this entry as a single-line JSON object (no surrounding
    /// whitespace, no trailing newline). With `shard`, a `"shard"` member
    /// follows `"t"` (the sharded fleet's merged-dump format).
    ///
    /// This is the one rendering used everywhere an entry serializes: the
    /// in-memory dumps ([`Journal::to_json`], [`Journal::merged_json`])
    /// and the JSONL spill sink, so the sink's lines are always parseable
    /// as dump entries.
    pub fn write_json_object(&self, s: &mut String, shard: Option<u16>) {
        use std::fmt::Write as _;
        let _ = write!(s, "{{\"t\": {:.6}", self.at.as_secs_f64());
        if let Some(id) = shard {
            let _ = write!(s, ", \"shard\": {id}");
        }
        let _ = write!(
            s,
            ", \"subsystem\": \"{}\", \"kind\": \"{}\"",
            self.subsystem.as_str(),
            self.record.kind()
        );
        self.record.write_json_fields(s);
        s.push('}');
    }
}

/// Exact counters over every record ever journaled (never capped).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[allow(missing_docs)] // Field names are the documentation.
pub struct JournalCounters {
    pub effects: u64,
    pub schedules: u64,
    pub spot_requests: u64,
    pub on_demand_requests: u64,
    pub attaches: u64,
    pub detaches: u64,
    pub terminates: u64,
    pub vm_transitions: u64,
    pub mig_transitions: u64,
    pub migrations_started: u64,
    pub migrations_completed: u64,
    pub migrations_aborted: u64,
    pub illegal_transitions: u64,
    pub returns_started: u64,
    pub returns_completed: u64,
    pub returns_abandoned: u64,
    pub return_transitions: u64,
    pub retries: u64,
    pub faults: u64,
    pub revocation_warnings: u64,
    pub ops_delivered: u64,
    pub backups_assigned: u64,
    pub backup_failures: u64,
    pub checkpoints_acked: u64,
    pub rereplications_started: u64,
    pub rereplications_completed: u64,
    pub crash_recoveries: u64,
    pub vms_lost: u64,
    pub deadline_violations: u64,
    pub violations_contention: u64,
    pub violations_queue_wait: u64,
    pub violations_residue_lost: u64,
    pub fallback_yanks: u64,
    pub commits_queued: u64,
    pub commit_queue_wait_ms: u64,
    pub commands: u64,
}

impl JournalCounters {
    /// Every counter as a stable `(name, value)` list (JSON/report order).
    pub fn pairs(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("effects", self.effects),
            ("schedules", self.schedules),
            ("spot_requests", self.spot_requests),
            ("on_demand_requests", self.on_demand_requests),
            ("attaches", self.attaches),
            ("detaches", self.detaches),
            ("terminates", self.terminates),
            ("vm_transitions", self.vm_transitions),
            ("mig_transitions", self.mig_transitions),
            ("migrations_started", self.migrations_started),
            ("migrations_completed", self.migrations_completed),
            ("migrations_aborted", self.migrations_aborted),
            ("illegal_transitions", self.illegal_transitions),
            ("returns_started", self.returns_started),
            ("returns_completed", self.returns_completed),
            ("returns_abandoned", self.returns_abandoned),
            ("return_transitions", self.return_transitions),
            ("retries", self.retries),
            ("faults", self.faults),
            ("revocation_warnings", self.revocation_warnings),
            ("ops_delivered", self.ops_delivered),
            ("backups_assigned", self.backups_assigned),
            ("backup_failures", self.backup_failures),
            ("checkpoints_acked", self.checkpoints_acked),
            ("rereplications_started", self.rereplications_started),
            ("rereplications_completed", self.rereplications_completed),
            ("crash_recoveries", self.crash_recoveries),
            ("vms_lost", self.vms_lost),
            ("deadline_violations", self.deadline_violations),
            ("violations_contention", self.violations_contention),
            ("violations_queue_wait", self.violations_queue_wait),
            ("violations_residue_lost", self.violations_residue_lost),
            ("fallback_yanks", self.fallback_yanks),
            ("commits_queued", self.commits_queued),
            ("commit_queue_wait_ms", self.commit_queue_wait_ms),
            ("commands", self.commands),
        ]
    }

    fn count(&mut self, record: &Record) {
        match record {
            Record::VmStatus { .. } => self.vm_transitions += 1,
            Record::MigStarted { .. } => self.migrations_started += 1,
            Record::MigPhase { .. } => self.mig_transitions += 1,
            Record::MigCompleted { .. } => self.migrations_completed += 1,
            Record::MigAborted { .. } => self.migrations_aborted += 1,
            Record::Illegal { .. } => self.illegal_transitions += 1,
            Record::ReturnStarted { .. } => self.returns_started += 1,
            Record::ReturnPhase { .. } => self.return_transitions += 1,
            Record::ReturnCompleted { .. } => self.returns_completed += 1,
            Record::ReturnAbandoned { .. } => self.returns_abandoned += 1,
            Record::Effect(e) => {
                self.effects += 1;
                match e {
                    Effect::AcquireSpot { .. } => self.spot_requests += 1,
                    Effect::AcquireOnDemand { .. } => self.on_demand_requests += 1,
                    Effect::AttachEni { .. } | Effect::AttachVolume { .. } => self.attaches += 1,
                    Effect::DetachEni | Effect::DetachVolume => self.detaches += 1,
                    Effect::Terminate { .. } | Effect::ForceTerminate { .. } => {
                        self.terminates += 1
                    }
                    Effect::Schedule { .. } => self.schedules += 1,
                }
            }
            Record::Retry { .. } => self.retries += 1,
            Record::Fault { .. } => self.faults += 1,
            Record::Warning { .. } => self.revocation_warnings += 1,
            Record::OpDelivered { .. } => self.ops_delivered += 1,
            Record::BackupAssigned { .. } => self.backups_assigned += 1,
            Record::BackupFailed { .. } => self.backup_failures += 1,
            Record::CheckpointAcked { .. } => self.checkpoints_acked += 1,
            Record::RereplicationStarted { .. } => self.rereplications_started += 1,
            Record::RereplicationDone { .. } => self.rereplications_completed += 1,
            Record::CrashRecovery { .. } => self.crash_recoveries += 1,
            Record::VmLost { .. } => self.vms_lost += 1,
            Record::DeadlineViolation { cause, .. } => {
                self.deadline_violations += 1;
                match *cause {
                    "contention" => self.violations_contention += 1,
                    "queue_wait" => self.violations_queue_wait += 1,
                    _ => self.violations_residue_lost += 1,
                }
            }
            Record::FallbackYank { .. } => self.fallback_yanks += 1,
            Record::CommitQueued { .. } => self.commits_queued += 1,
            Record::CommitAdmitted { waited_ms, .. } => self.commit_queue_wait_ms += waited_ms,
            Record::Command { .. } => self.commands += 1,
        }
    }
}

/// Per-run summary of 30 s-guarantee violations, derived from the exact
/// [`JournalCounters`] (never affected by the record cap).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViolationReport {
    /// Warned migrations started (the guarantee's denominator).
    pub migrations_started: u64,
    /// Total deadline violations.
    pub violations: u64,
    /// Violations where the commit flow was still transferring at the
    /// deadline (pure bandwidth contention).
    pub contention: u64,
    /// Violations where admission staging delayed the commit past its
    /// deadline.
    pub queue_wait: u64,
    /// Violations where the host died with the commit still in flight
    /// (dirty residue lost; recovery falls back to the last complete
    /// checkpoint).
    pub residue_lost: u64,
    /// Graceful-degradation fallbacks to Yank-style pause-and-flush.
    pub fallback_yanks: u64,
    /// Final commits staged behind the admission cap.
    pub commits_queued: u64,
    /// Total milliseconds commits spent in the admission queue.
    pub queue_wait_ms: u64,
}

impl ViolationReport {
    /// Builds the report from a run's counters.
    pub fn from_counters(c: &JournalCounters) -> Self {
        ViolationReport {
            migrations_started: c.migrations_started,
            violations: c.deadline_violations,
            contention: c.violations_contention,
            queue_wait: c.violations_queue_wait,
            residue_lost: c.violations_residue_lost,
            fallback_yanks: c.fallback_yanks,
            commits_queued: c.commits_queued,
            queue_wait_ms: c.commit_queue_wait_ms,
        }
    }

    /// Fraction of started migrations that violated the bound (0 when no
    /// migration started).
    pub fn violation_rate(&self) -> f64 {
        if self.migrations_started == 0 {
            0.0
        } else {
            self.violations as f64 / self.migrations_started as f64
        }
    }
}

/// Default cap on stored records (counters are always exact).
pub const DEFAULT_RECORD_CAP: usize = 65_536;

/// An open JSONL spill sink.
struct JournalSink {
    writer: std::io::BufWriter<std::fs::File>,
    /// Failed line writes (the journal itself never errors; losses are
    /// counted and surfaced instead).
    errors: u64,
}

impl JournalSink {
    fn write_entry(&mut self, entry: &Entry) -> bool {
        use std::io::Write as _;
        let mut line = String::with_capacity(96);
        entry.write_json_object(&mut line, None);
        line.push('\n');
        match self.writer.write_all(line.as_bytes()) {
            Ok(()) => true,
            Err(_) => {
                self.errors += 1;
                false
            }
        }
    }
}

/// The structured event journal.
pub struct Journal {
    entries: Vec<Entry>,
    counters: JournalCounters,
    cap: usize,
    dropped: u64,
    /// Records that exceeded the in-memory cap but were preserved by the
    /// spill sink (disjoint from `dropped`: a record is either stored,
    /// spilled, or dropped).
    spilled: u64,
    sink: Option<JournalSink>,
}

// The sink holds an open file handle, so `Clone` (used by differential
// harnesses to duplicate in-memory journals) yields a sink-less copy, and
// `Debug` elides the writer.
impl Clone for Journal {
    fn clone(&self) -> Self {
        Journal {
            entries: self.entries.clone(),
            counters: self.counters,
            cap: self.cap,
            dropped: self.dropped,
            spilled: self.spilled,
            sink: None,
        }
    }
}

impl std::fmt::Debug for Journal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Journal")
            .field("entries", &self.entries.len())
            .field("counters", &self.counters)
            .field("cap", &self.cap)
            .field("dropped", &self.dropped)
            .field("spilled", &self.spilled)
            .field("sink", &self.sink.is_some())
            .finish()
    }
}

impl Default for Journal {
    fn default() -> Self {
        Journal::new()
    }
}

impl Journal {
    /// Creates an empty journal with the default record cap.
    pub fn new() -> Self {
        Journal {
            entries: Vec::new(),
            counters: JournalCounters::default(),
            cap: DEFAULT_RECORD_CAP,
            dropped: 0,
            spilled: 0,
            sink: None,
        }
    }

    /// Creates an empty journal storing at most `cap` records.
    pub fn with_cap(cap: usize) -> Self {
        Journal {
            cap,
            ..Journal::new()
        }
    }

    /// Opens (creating or truncating) a JSONL spill sink at `path`.
    ///
    /// Every record from here on is appended to the file as one JSON line
    /// — including records past the in-memory cap, which makes the on-disk
    /// journal complete for long-running replay where the ring alone would
    /// be lossy. Records already stored in memory are backfilled first, so
    /// a sink opened before any record was dropped captures the entire
    /// run from t=0.
    ///
    /// # Errors
    ///
    /// Fails if the file cannot be created. Later per-line write failures
    /// never panic or error the simulation; they are counted in
    /// [`Journal::sink_errors`].
    pub fn set_sink(&mut self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut sink = JournalSink {
            writer: std::io::BufWriter::new(file),
            errors: 0,
        };
        for e in &self.entries {
            sink.write_entry(e);
        }
        self.sink = Some(sink);
        Ok(())
    }

    /// Flushes the spill sink, if one is open (graceful-shutdown path).
    ///
    /// # Errors
    ///
    /// Propagates the flush failure.
    pub fn flush_sink(&mut self) -> std::io::Result<()> {
        use std::io::Write as _;
        match &mut self.sink {
            Some(s) => s.writer.flush(),
            None => Ok(()),
        }
    }

    /// True if a spill sink is currently open.
    pub fn has_sink(&self) -> bool {
        self.sink.is_some()
    }

    /// Appends a record (counters always update; storage respects the cap;
    /// an open sink receives every record).
    pub fn record(&mut self, at: SimTime, subsystem: Subsystem, record: Record) {
        self.counters.count(&record);
        let entry = Entry {
            at,
            subsystem,
            record,
        };
        let written = match &mut self.sink {
            Some(s) => s.write_entry(&entry),
            None => false,
        };
        if self.entries.len() < self.cap {
            self.entries.push(entry);
        } else if written {
            self.spilled += 1;
        } else {
            self.dropped += 1;
        }
    }

    /// The stored entries, in record order (earliest first).
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Records counted but not stored because the cap was reached.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Records past the in-memory cap that the spill sink preserved.
    pub fn spilled(&self) -> u64 {
        self.spilled
    }

    /// Sink line writes that failed (those records count as dropped).
    pub fn sink_errors(&self) -> u64 {
        self.sink.as_ref().map_or(0, |s| s.errors)
    }

    /// Exact counters over every record ever journaled.
    pub fn counters(&self) -> &JournalCounters {
        &self.counters
    }

    /// Summary of 30 s-guarantee violations (exact, cap-independent).
    pub fn violation_report(&self) -> ViolationReport {
        ViolationReport::from_counters(&self.counters)
    }

    /// Stored entries produced by `subsystem`.
    pub fn of_subsystem(&self, subsystem: Subsystem) -> impl Iterator<Item = &Entry> {
        self.entries.iter().filter(move |e| e.subsystem == subsystem)
    }

    /// Stored entries whose record kind equals `kind`.
    pub fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a Entry> {
        self.entries.iter().filter(move |e| e.record.kind() == kind)
    }

    /// Serializes the journal (counters, drop count, stored entries) as a
    /// JSON object. Times are fractional seconds since simulation start.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::with_capacity(64 + self.entries.len() * 96);
        s.push_str("{\n  \"counters\": {");
        let pairs = self.counters.pairs();
        for (i, (k, v)) in pairs.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{k}\": {v}");
        }
        s.push_str("\n  },\n");
        let _ = writeln!(s, "  \"dropped\": {},", self.dropped);
        let _ = writeln!(s, "  \"spilled\": {},", self.spilled);
        s.push_str("  \"entries\": [");
        for (i, e) in self.entries.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str("\n    ");
            e.write_json_object(&mut s, None);
        }
        s.push_str("\n  ]\n}\n");
        s
    }

    /// Serializes a fleet of per-shard journals as one JSON object with a
    /// deterministic merge: counters and drop counts are summed across
    /// shards, and entries are tagged `"shard": k` and ordered by
    /// `(t, shard, per-shard index)` — the same Lamport-style key the
    /// cross-shard message layer uses, so the merged stream is identical
    /// at any worker count.
    pub fn merged_json<'a>(shards: impl IntoIterator<Item = (u16, &'a Journal)>) -> String {
        use std::fmt::Write as _;
        let shards: Vec<(u16, &Journal)> = shards.into_iter().collect();
        // Counters sum positionally over the stable `pairs()` order, so a
        // future counter is merged automatically the day it is added.
        let mut counters: Vec<(&'static str, u64)> = Vec::new();
        let mut dropped = 0u64;
        let mut spilled = 0u64;
        // (at, shard, per-shard index) is unique per entry and already the
        // merge order; each shard's entry slice is time-sorted, so a k-way
        // index walk would also do — a sort keeps the invariant explicit.
        let mut order: Vec<(SimTime, u16, usize)> = Vec::new();
        for &(id, j) in &shards {
            let pairs = j.counters().pairs();
            if counters.is_empty() {
                counters = pairs;
            } else {
                for (sum, (_, v)) in counters.iter_mut().zip(pairs) {
                    sum.1 += v;
                }
            }
            dropped += j.dropped();
            spilled += j.spilled();
            order.extend(j.entries().iter().enumerate().map(|(i, e)| (e.at, id, i)));
        }
        order.sort_unstable();
        let mut s = String::with_capacity(64 + order.len() * 96);
        s.push_str("{\n  \"shards\": [");
        for (i, (id, _)) in shards.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(s, "{id}");
        }
        s.push_str("],\n  \"counters\": {");
        for (i, (k, v)) in counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "\n    \"{k}\": {v}");
        }
        s.push_str("\n  },\n");
        let _ = writeln!(s, "  \"dropped\": {dropped},");
        let _ = writeln!(s, "  \"spilled\": {spilled},");
        s.push_str("  \"entries\": [");
        for (i, &(_, id, idx)) in order.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let j = shards
                .iter()
                .find(|(sid, _)| *sid == id)
                .expect("shard id came from this set")
                .1;
            let e = &j.entries()[idx];
            s.push_str("\n    ");
            e.write_json_object(&mut s, Some(id));
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_track_every_record() {
        let mut j = Journal::new();
        j.record(
            SimTime::from_secs(1),
            Subsystem::Migration,
            Record::MigStarted {
                mig: MigrationId(0),
                vm: NestedVmId(3),
                live: false,
                proactive: false,
            },
        );
        j.record(
            SimTime::from_secs(2),
            Subsystem::Migration,
            Record::Effect(Effect::AcquireOnDemand {
                instance: InstanceId(7),
            }),
        );
        assert_eq!(j.counters().migrations_started, 1);
        assert_eq!(j.counters().on_demand_requests, 1);
        assert_eq!(j.counters().effects, 1);
        assert_eq!(j.len(), 2);
    }

    #[test]
    fn cap_bounds_storage_but_not_counters() {
        let mut j = Journal::with_cap(2);
        for i in 0..5 {
            j.record(
                SimTime::from_secs(i),
                Subsystem::Pools,
                Record::Effect(Effect::DetachEni),
            );
        }
        assert_eq!(j.len(), 2);
        assert_eq!(j.dropped(), 3);
        assert_eq!(j.counters().detaches, 5);
    }

    #[test]
    fn json_shape_is_balanced_and_typed() {
        let mut j = Journal::new();
        j.record(
            SimTime::from_millis(1_500),
            Subsystem::Recovery,
            Record::Fault {
                kind: "instance_crash",
                warnings: 0,
                crashes: 1,
            },
        );
        let json = j.to_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"t\": 1.500000"));
        assert!(json.contains("\"subsystem\": \"recovery\""));
        assert!(json.contains("\"kind\": \"fault\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn violation_taxonomy_counts_by_cause() {
        let mut j = Journal::new();
        j.record(
            SimTime::ZERO,
            Subsystem::Migration,
            Record::MigStarted {
                mig: MigrationId(0),
                vm: NestedVmId(0),
                live: false,
                proactive: false,
            },
        );
        for (i, cause) in ["contention", "queue_wait", "residue_lost", "contention"]
            .iter()
            .enumerate()
        {
            j.record(
                SimTime::from_secs(i as u64),
                Subsystem::Migration,
                Record::DeadlineViolation {
                    mig: MigrationId(i as u64),
                    vm: NestedVmId(i as u64),
                    cause,
                },
            );
        }
        j.record(
            SimTime::ZERO,
            Subsystem::Migration,
            Record::FallbackYank {
                mig: MigrationId(9),
                vm: NestedVmId(9),
            },
        );
        j.record(
            SimTime::ZERO,
            Subsystem::Migration,
            Record::CommitQueued {
                mig: MigrationId(9),
                vm: NestedVmId(9),
            },
        );
        j.record(
            SimTime::ZERO,
            Subsystem::Migration,
            Record::CommitAdmitted {
                mig: MigrationId(9),
                vm: NestedVmId(9),
                waited_ms: 250,
            },
        );
        let r = j.violation_report();
        assert_eq!(r.violations, 4);
        assert_eq!(r.contention, 2);
        assert_eq!(r.queue_wait, 1);
        assert_eq!(r.residue_lost, 1);
        assert_eq!(r.fallback_yanks, 1);
        assert_eq!(r.commits_queued, 1);
        assert_eq!(r.queue_wait_ms, 250);
        assert_eq!(r.violation_rate(), 4.0);
        let json = j.to_json();
        assert!(json.contains(r#""cause": "queue_wait""#));
        assert!(json.contains(r#""waited_ms": 250"#));
        assert!(json.contains(r#""deadline_violations": 4"#));
    }

    #[test]
    fn queries_filter_by_subsystem_and_kind() {
        let mut j = Journal::new();
        j.record(
            SimTime::ZERO,
            Subsystem::Pools,
            Record::Effect(Effect::Terminate {
                instance: InstanceId(1),
            }),
        );
        j.record(
            SimTime::ZERO,
            Subsystem::Migration,
            Record::MigCompleted {
                mig: MigrationId(0),
                vm: NestedVmId(0),
            },
        );
        assert_eq!(j.of_subsystem(Subsystem::Pools).count(), 1);
        assert_eq!(j.of_kind("mig_completed").count(), 1);
        assert_eq!(j.of_kind("nope").count(), 0);
    }

    fn sink_path(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("spotcheck-journal-test-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn sink_captures_every_record_past_the_cap() {
        let path = sink_path("spill");
        let mut j = Journal::with_cap(2);
        j.set_sink(&path).expect("create sink");
        for i in 0..5 {
            j.record(
                SimTime::from_secs(i),
                Subsystem::Pools,
                Record::Effect(Effect::DetachEni),
            );
        }
        j.flush_sink().expect("flush");
        assert_eq!(j.len(), 2);
        assert_eq!(j.spilled(), 3);
        assert_eq!(j.dropped(), 0);
        assert_eq!(j.sink_errors(), 0);
        let text = std::fs::read_to_string(&path).expect("read sink");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        for (i, line) in lines.iter().enumerate() {
            assert!(line.starts_with(&format!("{{\"t\": {i}.000000, ")));
            assert!(line.contains("\"kind\": \"detach_eni\""));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn sink_backfills_already_stored_entries() {
        let path = sink_path("backfill");
        let mut j = Journal::new();
        j.record(
            SimTime::from_secs(1),
            Subsystem::Pools,
            Record::Effect(Effect::DetachEni),
        );
        j.set_sink(&path).expect("create sink");
        j.record(
            SimTime::from_secs(2),
            Subsystem::Pools,
            Record::Effect(Effect::DetachEni),
        );
        j.flush_sink().expect("flush");
        let text = std::fs::read_to_string(&path).expect("read sink");
        assert_eq!(text.lines().count(), 2);
        // Sink lines are exactly the dump's entry objects.
        let dump = j.to_json();
        for line in text.lines() {
            assert!(dump.contains(line), "dump missing sink line: {line}");
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn clone_detaches_the_sink() {
        let path = sink_path("clone");
        let mut j = Journal::new();
        j.set_sink(&path).expect("create sink");
        let copy = j.clone();
        assert!(j.has_sink());
        assert!(!copy.has_sink());
        std::fs::remove_file(&path).ok();
    }
}
