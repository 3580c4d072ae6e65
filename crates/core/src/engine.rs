//! The resumable simulation engine.
//!
//! [`Engine`] owns the controller, the simulated cloud platform, and the
//! event queue, and exposes a *stepped* interface instead of a single
//! run-to-horizon call: [`Engine::step_until`] advances to an arbitrary
//! instant, [`Engine::drain_ready`] settles everything due at the current
//! instant, and [`Engine::apply`] injects an external [`Command`]
//! (provision/release/policy change) between steps. Batch runs
//! ([`crate::driver::SpotCheckSim`]), bench experiments, and the
//! `spotcheckd` daemon are all thin loops over this one core.
//!
//! # Command log and replay
//!
//! Every externally injected command is appended to an in-order command
//! log with its exact simulation time. Because the simulation itself is
//! deterministic (seeded RNG streams, FIFO tie-breaking queues), the pair
//! *(scenario, command log)* fully determines every subsequent state: a
//! fresh engine built from the same [`Scenario`] that replays the same
//! commands at the same instants reproduces the original run bit for bit
//! — the same journal, the same accounting clocks, the same platform
//! state. [`crate::snapshot`] builds crash-consistent restarts on exactly
//! this property.
//!
//! The replay discipline that makes interleaving reproducible: the log
//! records, for every command, whether the live run processed any event
//! since the previous command (`settled`). Live callers are free to apply
//! several commands at one instant without settling in between (the
//! daemon and the batch ramp scripts do), so replay does not assume it:
//! [`Engine::replay`] calls `step_until(t)` before a command at `t` only
//! when `t` is past the engine's clock or the command is marked settled,
//! and commands at the same instant are applied in log order. Whatever
//! interleaving of events and same-instant commands the live run took,
//! replay takes the same one.

use spotcheck_cloudsim::cloud::{CloudConfig, CloudSim};
use spotcheck_nestedvm::vm::NestedVmId;
use spotcheck_simcore::digest::Digest64;
use spotcheck_simcore::engine::{Scheduler, Simulation, StopReason, World};
use spotcheck_simcore::time::SimTime;
use spotcheck_spotmarket::trace::PriceTrace;
use spotcheck_workloads::WorkloadKind;

use crate::accounting::AvailabilityReport;
use crate::config::SpotCheckConfig;
use crate::controller::{Controller, ControllerError, CostReport};
use crate::events::Event;
use crate::journal::{Journal, Record, Subsystem, ViolationReport};
use crate::types::CustomerId;

/// The [`World`] adapter around the controller.
pub struct Driver {
    controller: Controller,
}

impl World for Driver {
    type Event = Event;

    fn handle(&mut self, event: Event, sched: &mut Scheduler<'_, Event>) {
        let out = self.controller.handle_event(event, sched.now());
        for (t, e) in out {
            sched.at(t, e);
        }
    }
}

impl Driver {
    /// Shared controller access.
    pub fn controller(&self) -> &Controller {
        &self.controller
    }

    /// Exclusive controller access.
    pub fn controller_mut(&mut self) -> &mut Controller {
        &mut self.controller
    }
}

/// Everything needed to (re)build an engine from scratch: the market
/// traces, the SpotCheck configuration, and the platform configuration.
///
/// A [`Scenario`] is the unit of identity for snapshots: restoring from a
/// snapshot requires the *same* scenario (checked via
/// [`Scenario::digest`]), because replay reconstructs state by re-running
/// it.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Market price traces.
    pub traces: Vec<PriceTrace>,
    /// Controller configuration.
    pub config: SpotCheckConfig,
    /// Native platform configuration.
    pub cloud: CloudConfig,
}

impl Scenario {
    /// Builds a scenario with the platform configuration derived from the
    /// controller seed (the same wiring as [`SpotCheckSim::new`]).
    ///
    /// [`SpotCheckSim::new`]: crate::driver::SpotCheckSim::new
    pub fn new(traces: Vec<PriceTrace>, config: SpotCheckConfig) -> Self {
        let cloud = CloudConfig {
            seed: config.seed,
            ..CloudConfig::default()
        };
        Scenario {
            traces,
            config,
            cloud,
        }
    }

    /// A 64-bit digest identifying this scenario: market traces (ids,
    /// price series), controller configuration, and platform
    /// configuration. Snapshots embed it so a restore against different
    /// inputs is rejected instead of replayed into nonsense.
    pub fn digest(&self) -> u64 {
        scenario_digest(&self.traces, &self.config, &self.cloud)
    }

    /// Builds a fresh engine at time zero from this scenario (cloning the
    /// inputs; the scenario remains usable for later restores).
    pub fn build(&self) -> Engine {
        Engine::from_parts(self.traces.clone(), self.config.clone(), self.cloud.clone())
    }
}

fn scenario_digest(traces: &[PriceTrace], config: &SpotCheckConfig, cloud: &CloudConfig) -> u64 {
    let mut d = Digest64::new();
    d.write_usize(traces.len());
    for t in traces {
        d.write_str(&t.market.to_string());
        d.write_f64(t.on_demand_price);
        // The step series' own Debug output enumerates every (time, price)
        // step, so any edit to a trace changes the digest.
        d.write_str(&format!("{:?}", t.prices));
    }
    // Configuration structs are flat data; their derived Debug output is a
    // stable, total rendering of every knob (including nested policy and
    // fault-plan state), which keeps this digest honest without a
    // hand-maintained field walk that could silently go stale.
    d.write_str(&format!("{config:?}"));
    d.write_str(&format!("{cloud:?}"));
    d.finish()
}

/// An externally injectable command: the engine's write API for callers
/// outside the simulation (the daemon's socket protocol, tests, the
/// synchronous [`SpotCheckSim`](crate::driver::SpotCheckSim) facade).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Command {
    /// Register a new customer.
    CreateCustomer,
    /// Request a nested VM for `customer`.
    Provision {
        /// The owning customer.
        customer: CustomerId,
        /// The workload the VM runs.
        workload: WorkloadKind,
        /// Skip backup protection; live-migrate on revocation (§4.2).
        stateless: bool,
    },
    /// Release (terminate) a nested VM.
    Release {
        /// The VM to release.
        vm: NestedVmId,
    },
    /// Policy change: toggle return-to-spot allocation dynamics.
    SetReturnToSpot {
        /// The new setting.
        enabled: bool,
    },
}

impl Command {
    /// Stable lowercase name of the command (wire format and journal).
    pub fn kind(&self) -> &'static str {
        match self {
            Command::CreateCustomer => "create_customer",
            Command::Provision { .. } => "provision",
            Command::Release { .. } => "release",
            Command::SetReturnToSpot { .. } => "set_return_to_spot",
        }
    }

    /// Encodes the arguments as three integers (wire format and journal).
    pub fn encode_args(&self) -> (u64, u64, u64) {
        match *self {
            Command::CreateCustomer => (0, 0, 0),
            Command::Provision {
                customer,
                workload,
                stateless,
            } => (
                customer.0,
                workload_code(workload),
                u64::from(stateless),
            ),
            Command::Release { vm } => (vm.0, 0, 0),
            Command::SetReturnToSpot { enabled } => (u64::from(enabled), 0, 0),
        }
    }

    /// Decodes a command from its kind name and encoded arguments.
    pub fn decode(kind: &str, a: u64, b: u64, c: u64) -> Option<Command> {
        match kind {
            "create_customer" => Some(Command::CreateCustomer),
            "provision" => Some(Command::Provision {
                customer: CustomerId(a),
                workload: workload_from_code(b)?,
                stateless: c != 0,
            }),
            "release" => Some(Command::Release { vm: NestedVmId(a) }),
            "set_return_to_spot" => Some(Command::SetReturnToSpot { enabled: a != 0 }),
            _ => None,
        }
    }
}

fn workload_code(w: WorkloadKind) -> u64 {
    match w {
        WorkloadKind::TpcW => 0,
        WorkloadKind::SpecJbb => 1,
    }
}

fn workload_from_code(code: u64) -> Option<WorkloadKind> {
    match code {
        0 => Some(WorkloadKind::TpcW),
        1 => Some(WorkloadKind::SpecJbb),
        _ => None,
    }
}

/// What a successfully applied [`Command`] produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommandOutcome {
    /// A new customer id.
    Customer(CustomerId),
    /// A new VM id (provisioning proceeds as the simulation runs).
    Vm(NestedVmId),
    /// The command completed with nothing to return.
    Done,
}

/// One logged command: its dense sequence number, the simulation instant
/// it was applied at, whether it was journaled (externally injected) or
/// quiet (scripted through the synchronous facade), whether events were
/// settled before it, and the command.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimedCommand {
    /// Dense 0-based sequence number (log position).
    pub seq: u64,
    /// The simulation instant the command was applied at.
    pub at: SimTime,
    /// True if the command was journaled (the [`Engine::apply`] path).
    pub journaled: bool,
    /// True if the engine processed at least one event between the
    /// previous command (or construction) and this one. Replay settles
    /// the command's instant first only when this is set.
    pub settled: bool,
    /// The command.
    pub cmd: Command,
}

/// The resumable SpotCheck simulation engine.
///
/// See the [module docs](self) for the stepping and replay discipline.
pub struct Engine {
    sim: Simulation<Driver>,
    scenario_digest: u64,
    commands: Vec<TimedCommand>,
    /// `steps()` when the last command was applied.
    steps_at_last_command: u64,
}

impl Engine {
    /// Builds an engine at time zero, consuming the scenario inputs (the
    /// path batch runs take — nothing is cloned or retained for replay
    /// beyond the scenario digest).
    pub fn from_parts(
        traces: Vec<PriceTrace>,
        config: SpotCheckConfig,
        cloud_cfg: CloudConfig,
    ) -> Self {
        let scenario_digest = scenario_digest(&traces, &config, &cloud_cfg);
        let cloud = CloudSim::new(traces, cloud_cfg);
        let mut controller = Controller::new(cloud, config);
        let boot = controller.bootstrap(SimTime::ZERO);
        let mut sim = Simulation::new(Driver { controller });
        for (t, e) in boot {
            sim.schedule_at(t, e);
        }
        Engine {
            sim,
            scenario_digest,
            commands: Vec::new(),
            steps_at_last_command: 0,
        }
    }

    /// Current simulation time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// Events processed so far.
    pub fn steps(&self) -> u64 {
        self.sim.steps()
    }

    /// Events currently pending in the queue.
    pub fn queue_depth(&self) -> usize {
        self.sim.queue_depth()
    }

    /// The digest of the scenario this engine was built from.
    pub fn scenario_digest(&self) -> u64 {
        self.scenario_digest
    }

    /// Shared controller access.
    pub fn controller(&self) -> &Controller {
        self.sim.world().controller()
    }

    /// The structured journal of this run (always on).
    pub fn journal(&self) -> &Journal {
        self.controller().journal()
    }

    /// Exclusive journal access (spill-sink configuration and flushing).
    pub fn journal_mut(&mut self) -> &mut Journal {
        self.sim.world_mut().controller_mut().journal_mut()
    }

    /// The command log: every injected command in application order.
    pub fn command_log(&self) -> &[TimedCommand] {
        &self.commands
    }

    /// Advances the simulation to `horizon`, processing every event due at
    /// or before it (exactly-at-horizon events included). On
    /// [`StopReason::HorizonReached`] the clock is advanced to `horizon`.
    pub fn step_until(&mut self, horizon: SimTime) -> StopReason {
        self.sim.run_until(horizon)
    }

    /// Settles every event due at exactly the current instant (including
    /// events those events schedule for the same instant), without moving
    /// the clock. Returns the number of events processed.
    ///
    /// Useful after [`Engine::apply`]: a provision command schedules its
    /// first event at *now*, and draining makes its effects observable
    /// before the caller decides anything else.
    pub fn drain_ready(&mut self) -> u64 {
        let now = self.sim.now();
        let mut n = 0;
        while self.sim.next_event_time() == Some(now) {
            if !self.sim.step() {
                break;
            }
            n += 1;
        }
        n
    }

    /// Applies an externally injected command at the current instant,
    /// journaling it (so the on-disk journal doubles as the replay tail)
    /// and appending it to the command log.
    ///
    /// # Errors
    ///
    /// Propagates controller rejections (unknown customer/VM). Rejected
    /// commands are still logged and journaled: replay re-runs them and
    /// deterministically re-rejects, keeping the log a faithful record of
    /// what was attempted.
    pub fn apply(&mut self, cmd: Command) -> Result<CommandOutcome, ControllerError> {
        self.apply_inner(cmd, true)
    }

    /// Applies a command *without* journaling it (the synchronous-facade
    /// path: scripted scenarios drive the engine through here so their
    /// journals stay identical to the pre-engine batch driver's).
    ///
    /// Quiet commands still land in the command log, so snapshots of a
    /// scripted run replay correctly; they are simply absent from the
    /// journal's record stream.
    ///
    /// # Errors
    ///
    /// Propagates controller rejections (unknown customer/VM).
    pub fn apply_quiet(&mut self, cmd: Command) -> Result<CommandOutcome, ControllerError> {
        self.apply_inner(cmd, false)
    }

    fn apply_inner(
        &mut self,
        cmd: Command,
        journaled: bool,
    ) -> Result<CommandOutcome, ControllerError> {
        let now = self.sim.now();
        let seq = self.commands.len() as u64;
        let settled = self.sim.steps() != self.steps_at_last_command;
        self.steps_at_last_command = self.sim.steps();
        self.commands.push(TimedCommand {
            seq,
            at: now,
            journaled,
            settled,
            cmd,
        });
        if journaled {
            let (a, b, c) = cmd.encode_args();
            self.sim.world_mut().controller_mut().journal_mut().record(
                now,
                Subsystem::Controller,
                Record::Command {
                    seq,
                    cmd: cmd.kind(),
                    a,
                    b,
                    c,
                    settled,
                },
            );
        }
        self.exec(cmd, now)
    }

    fn exec(&mut self, cmd: Command, now: SimTime) -> Result<CommandOutcome, ControllerError> {
        let controller = self.sim.world_mut().controller_mut();
        match cmd {
            Command::CreateCustomer => Ok(CommandOutcome::Customer(controller.create_customer())),
            Command::Provision {
                customer,
                workload,
                stateless,
            } => {
                let (vm, out) = controller.request_server_opts(customer, workload, stateless, now)?;
                for (t, e) in out {
                    self.sim.schedule_at(t, e);
                }
                Ok(CommandOutcome::Vm(vm))
            }
            Command::Release { vm } => {
                let out = controller.release_server(vm, now)?;
                for (t, e) in out {
                    self.sim.schedule_at(t, e);
                }
                Ok(CommandOutcome::Done)
            }
            Command::SetReturnToSpot { enabled } => {
                controller.set_return_to_spot(enabled);
                Ok(CommandOutcome::Done)
            }
        }
    }

    /// Replays a logged command: advances to its recorded instant (only
    /// settling an instant the engine already stands at when the live run
    /// did, see [`TimedCommand::settled`]), then applies it through the
    /// same (journaled or quiet) path it originally took.
    ///
    /// # Errors
    ///
    /// Returns an error message if the engine's log position or clock
    /// cannot reach the command's recorded coordinates — which means the
    /// command stream does not extend this engine's history.
    pub fn replay(&mut self, cmd: &TimedCommand) -> Result<(), String> {
        let expect_seq = self.commands.len() as u64;
        if cmd.seq != expect_seq {
            return Err(format!(
                "replay out of order: command seq {} but log is at {}",
                cmd.seq, expect_seq
            ));
        }
        if cmd.at < self.sim.now() {
            return Err(format!(
                "replay into the past: command at {} but engine is at {}",
                cmd.at,
                self.sim.now()
            ));
        }
        if cmd.at > self.sim.now() || cmd.settled {
            self.step_until(cmd.at);
        }
        // The original outcome (including a rejection) is determined by
        // the deterministic state, so it is intentionally not stored or
        // compared — the state signature at the end of replay is the
        // actual proof of convergence.
        let _ = self.apply_inner(cmd.cmd, cmd.journaled);
        Ok(())
    }

    /// A 64-bit signature of the full engine state at the current instant:
    /// clock, step count, queue depth, command log, and the controller's
    /// [`state_signature`](Controller::state_signature) (which folds in
    /// the platform digest).
    pub fn state_signature(&self) -> u64 {
        let mut d = Digest64::new();
        d.write_u64(self.sim.now().as_micros());
        d.write_u64(self.sim.steps());
        d.write_usize(self.sim.queue_depth());
        d.write_usize(self.commands.len());
        for c in &self.commands {
            d.write_u64(c.seq);
            d.write_u64(c.at.as_micros());
            d.write_bool(c.journaled);
            d.write_str(c.cmd.kind());
            let (a, b, v) = c.cmd.encode_args();
            d.write_u64(a);
            d.write_u64(b);
            d.write_u64(v);
        }
        d.write_u64(self.controller().state_signature(self.sim.now()));
        d.finish()
    }

    /// Availability/degradation report at the current time.
    pub fn availability_report(&self) -> AvailabilityReport {
        self.controller().availability_report(self.sim.now())
    }

    /// Cost report at the current time.
    pub fn cost_report(&self) -> CostReport {
        self.controller().cost_report(self.sim.now())
    }

    /// The 30 s-guarantee violation taxonomy of this run.
    pub fn violation_report(&self) -> ViolationReport {
        self.journal().violation_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::standard_traces;
    use spotcheck_simcore::time::SimDuration;

    fn quick_scenario() -> Scenario {
        Scenario::new(
            standard_traces("us-east-1a", SimDuration::from_days(2), 42),
            SpotCheckConfig::default(),
        )
    }

    #[test]
    fn scenario_digest_is_input_sensitive() {
        let a = quick_scenario();
        let mut b = quick_scenario();
        assert_eq!(a.digest(), b.digest());
        b.config.seed = 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = quick_scenario();
        c.traces.pop();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn command_wire_roundtrip() {
        let cmds = [
            Command::CreateCustomer,
            Command::Provision {
                customer: CustomerId(3),
                workload: WorkloadKind::SpecJbb,
                stateless: true,
            },
            Command::Release { vm: NestedVmId(9) },
            Command::SetReturnToSpot { enabled: false },
        ];
        for cmd in cmds {
            let (a, b, c) = cmd.encode_args();
            assert_eq!(Command::decode(cmd.kind(), a, b, c), Some(cmd));
        }
        assert_eq!(Command::decode("nope", 0, 0, 0), None);
        assert_eq!(Command::decode("provision", 0, 99, 0), None);
    }

    #[test]
    fn stepped_run_matches_one_shot_run() {
        let scenario = quick_scenario();
        let horizon = SimTime::from_days(2);

        let mut one_shot = scenario.build();
        let c = match one_shot.apply_quiet(Command::CreateCustomer) {
            Ok(CommandOutcome::Customer(c)) => c,
            other => panic!("unexpected outcome {other:?}"),
        };
        one_shot
            .apply_quiet(Command::Provision {
                customer: c,
                workload: WorkloadKind::TpcW,
                stateless: false,
            })
            .unwrap();
        one_shot.step_until(horizon);

        let mut stepped = scenario.build();
        stepped.apply_quiet(Command::CreateCustomer).unwrap();
        stepped
            .apply_quiet(Command::Provision {
                customer: c,
                workload: WorkloadKind::TpcW,
                stateless: false,
            })
            .unwrap();
        // Advance in ragged hops; the trajectory must not depend on the
        // stepping pattern.
        let mut t = SimTime::ZERO;
        let hops = [37_u64, 1, 3600, 86_400, 7, 900];
        let mut i = 0;
        while t < horizon {
            t = (t + SimDuration::from_secs(hops[i % hops.len()])).min(horizon);
            stepped.step_until(t);
            i += 1;
        }
        assert_eq!(one_shot.now(), stepped.now());
        assert_eq!(one_shot.steps(), stepped.steps());
        assert_eq!(one_shot.state_signature(), stepped.state_signature());
        assert_eq!(one_shot.journal().to_json(), stepped.journal().to_json());
    }

    #[test]
    fn drain_ready_settles_only_the_current_instant() {
        let scenario = quick_scenario();
        let mut engine = scenario.build();
        engine.apply_quiet(Command::CreateCustomer).unwrap();
        let c = CustomerId(0);
        engine
            .apply_quiet(Command::Provision {
                customer: c,
                workload: WorkloadKind::TpcW,
                stateless: false,
            })
            .unwrap();
        // The provision event is due at t=0 (now); draining processes it
        // without advancing the clock.
        let drained = engine.drain_ready();
        assert!(drained >= 1, "provision event should be due at now");
        assert_eq!(engine.now(), SimTime::ZERO);
    }

    #[test]
    fn settled_records_whether_events_ran_since_the_previous_command() {
        let scenario = quick_scenario();
        let mut engine = scenario.build();
        engine.apply_quiet(Command::CreateCustomer).unwrap();
        let provision = Command::Provision {
            customer: CustomerId(0),
            workload: WorkloadKind::TpcW,
            stateless: false,
        };
        engine.apply_quiet(provision).unwrap();
        engine.drain_ready();
        engine.apply_quiet(provision).unwrap();
        engine.apply_quiet(Command::CreateCustomer).unwrap();
        let settled: Vec<bool> = engine.command_log().iter().map(|c| c.settled).collect();
        assert_eq!(settled, [false, false, true, false]);
    }

    #[test]
    fn rejected_commands_are_logged_and_deterministic() {
        let scenario = quick_scenario();
        let mut engine = scenario.build();
        let err = engine
            .apply(Command::Release {
                vm: NestedVmId(404),
            })
            .unwrap_err();
        assert!(matches!(err, ControllerError::UnknownVm(_)));
        assert_eq!(engine.command_log().len(), 1);
        assert_eq!(engine.journal().of_kind("command").count(), 1);
    }
}
