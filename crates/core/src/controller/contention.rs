//! Fleet-wide bandwidth contention: the fluid-model coupling and the
//! defenses around the 30 s migration guarantee.
//!
//! When [`crate::config::ContentionConfig::enabled`] is set, transfer
//! durations stop being independent closed-form draws: every host gets a
//! NIC link, every backup server NIC + disk links, and the AZ one
//! aggregate uplink in a shared [`FluidSim`]. Checkpoint streams, final
//! commits, re-replication pushes, return-to-spot pre-copies, and lazy
//! restores become max-min-fair flows, so a revocation storm genuinely
//! contends for the backup tier's bandwidth — and can genuinely blow the
//! bound the paper's §5 promises.
//!
//! # The alarm-clock protocol
//!
//! The fluid model lives *inside* the discrete-event controller. Every
//! event handler runs between [`Controller::net_catch_up`] (advance the
//! fluid network to `now`, dispatch flow completions as ordinary events
//! at `now`) and [`Controller::net_rearm`] (schedule a stateless
//! [`Event::FlowWake`] at the next projected completion). The invariant:
//! all flow-set mutations happen with the fluid clock synced to the
//! event clock. Stale wakes are harmless no-ops, so nothing is ever
//! cancelled.
//!
//! # Equivalent bytes
//!
//! Closed-form transfer durations are computed at concurrency 1 and
//! converted to flow sizes via the route's uncontended bottleneck
//! (`bytes = duration × bottleneck`): a solo flow reproduces the
//! closed-form timing exactly, and contention stretches it — the delta
//! *is* the modeled interference.
//!
//! # Defenses
//!
//! - **Spreading** (`spread_by_load`): re-replications avoid backup
//!   servers whose NIC already carries more than half its capacity.
//! - **EDF admission** (`admission`): at most `admission_cap` final
//!   commits transfer concurrently; the rest stage in an
//!   earliest-deadline-first queue with queue-time accounting.
//! - **Fallback** (`fallback`): when a commit provably cannot meet its
//!   deadline at its current rate, degrade to Yank-style
//!   pause-and-flush — pause the VM (downtime charged honestly), stop
//!   its checkpoint stream, and boost the flush's fair-share weight.

use std::collections::{BTreeMap, BTreeSet};

use spotcheck_backup::pool::BackupServerId;
use spotcheck_cloudsim::ids::InstanceId;
use spotcheck_nestedvm::vm::{NestedVmId, NestedVmState};
use spotcheck_simcore::fluid::{FlowId, FlowSpec, FluidSim, LinkId, Network};
use spotcheck_simcore::time::{SimDuration, SimTime};

use crate::config::ContentionConfig;
use crate::events::Event;
use crate::journal::{Record, Subsystem};
use crate::types::MigrationId;

use super::{Controller, Outbox};

/// Fair-share weight boost for a fallback (Yank-style) flush: the paused
/// VM's residue must drain as fast as the network allows.
const FALLBACK_WEIGHT: f64 = 4.0;

/// A backup NIC carrying more than this fraction of its capacity counts
/// as hot for the spreading defense.
const HOT_LINK_FRACTION: f64 = 0.5;

/// What a flow in the fleet network is carrying.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Purpose {
    /// A background checkpoint stream (open-ended, never completes).
    Stream(NestedVmId),
    /// A migration's final commit (bounded-time) or live transfer.
    Commit(MigrationId),
    /// An epoch-guarded re-replication push to a replacement backup.
    Rerepl(NestedVmId, u32),
    /// A return-to-spot live pre-copy.
    Return(NestedVmId),
    /// A restore read (skeleton or full image) at a migration's
    /// destination.
    Restore(MigrationId),
}

/// The fleet's shared-bandwidth model: one [`FluidSim`] plus the index
/// maps tying links to hosts/backups and flows to their purposes.
///
/// Every map is a `BTreeMap`/`BTreeSet` so iteration order — and thus
/// the exact sequence of fluid-model mutations — is deterministic across
/// runs and thread counts.
pub(super) struct FleetNet {
    sim: FluidSim,
    /// The AZ-wide aggregate uplink every flow crosses.
    az: LinkId,
    host_nic_bps: f64,
    /// Per-host NIC links, created lazily on first use.
    host_nic: BTreeMap<InstanceId, LinkId>,
    /// Per-backup-server NIC links, created lazily on first use.
    backup_nic: BTreeMap<BackupServerId, LinkId>,
    /// Per-backup-server disk links (shared by writes and restore reads).
    backup_disk: BTreeMap<BackupServerId, LinkId>,
    streams: BTreeMap<NestedVmId, FlowId>,
    commits: BTreeMap<MigrationId, FlowId>,
    rerepls: BTreeMap<NestedVmId, FlowId>,
    returns: BTreeMap<NestedVmId, FlowId>,
    restores: BTreeMap<MigrationId, FlowId>,
    purpose: BTreeMap<FlowId, Purpose>,
    /// EDF admission queue of staged final commits: (deadline, mig).
    /// Deadline-less (proactive/live) commits sort last via `SimTime::MAX`.
    commit_queue: BTreeSet<(SimTime, u64)>,
    /// When the earliest outstanding [`Event::FlowWake`] fires, if any.
    wake_at: Option<SimTime>,
}

impl FleetNet {
    pub(super) fn new(cfg: &ContentionConfig) -> Self {
        let mut network = Network::new();
        let az = network.add_link(cfg.az_uplink_bps);
        FleetNet {
            sim: FluidSim::new(network),
            az,
            host_nic_bps: cfg.host_nic_bps,
            host_nic: BTreeMap::new(),
            backup_nic: BTreeMap::new(),
            backup_disk: BTreeMap::new(),
            streams: BTreeMap::new(),
            commits: BTreeMap::new(),
            rerepls: BTreeMap::new(),
            returns: BTreeMap::new(),
            restores: BTreeMap::new(),
            purpose: BTreeMap::new(),
            commit_queue: BTreeSet::new(),
            wake_at: None,
        }
    }

    /// The NIC link of `host`, created on first use.
    fn host_link(&mut self, host: InstanceId) -> LinkId {
        if let Some(&l) = self.host_nic.get(&host) {
            return l;
        }
        let l = self.sim.network_mut().add_link(self.host_nic_bps);
        self.host_nic.insert(host, l);
        l
    }

    /// The (NIC, disk) links of backup `server`, created on first use.
    fn backup_links(
        &mut self,
        server: BackupServerId,
        nic_bps: f64,
        disk_bps: f64,
    ) -> (LinkId, LinkId) {
        if let (Some(&n), Some(&d)) = (self.backup_nic.get(&server), self.backup_disk.get(&server))
        {
            return (n, d);
        }
        let n = self.sim.network_mut().add_link(nic_bps);
        let d = self.sim.network_mut().add_link(disk_bps);
        self.backup_nic.insert(server, n);
        self.backup_disk.insert(server, d);
        (n, d)
    }

    /// The uncontended bottleneck capacity of `route` in bytes/second.
    fn bottleneck(&self, route: &[LinkId]) -> f64 {
        route
            .iter()
            .map(|&l| self.sim.network().capacity(l))
            .fold(f64::INFINITY, f64::min)
    }

    /// Removes a flow from the simulator and the purpose index.
    fn drop_flow(&mut self, id: FlowId) {
        self.sim.remove_flow(id);
        self.purpose.remove(&id);
    }

    /// Flows currently crossing `link`, with their purposes.
    fn crossing(&self, link: LinkId) -> Vec<(FlowId, Purpose)> {
        self.purpose
            .iter()
            .filter(|(id, _)| {
                self.sim
                    .route(**id)
                    .map(|r| r.contains(&link))
                    .unwrap_or(false)
            })
            .map(|(id, p)| (*id, *p))
            .collect()
    }
}

impl Controller {
    // ------------------------------------------------------------------
    // The alarm-clock protocol
    // ------------------------------------------------------------------

    /// Advances the fluid network to `now` and dispatches every flow that
    /// completed on the way as an ordinary event at `now`. Runs before
    /// each event handler so all flow-set mutations see a synced model.
    pub(super) fn net_catch_up(&mut self, now: SimTime, out: &mut Outbox) {
        let Some(net) = self.net.as_mut() else { return };
        let dt = now.saturating_since(net.sim.now());
        let adv = net.sim.advance(dt);
        if adv.completed.is_empty() {
            return;
        }
        let mut events = Vec::new();
        let mut landed_commits: Vec<MigrationId> = Vec::new();
        for id in adv.completed {
            let Some(p) = net.purpose.remove(&id) else {
                continue;
            };
            match p {
                // Open-ended streams never complete; unreachable by
                // construction.
                Purpose::Stream(vm) => {
                    net.streams.remove(&vm);
                }
                Purpose::Commit(mig) => {
                    net.commits.remove(&mig);
                    landed_commits.push(mig);
                    events.push(Event::CommitDone(mig));
                }
                Purpose::Rerepl(vm, epoch) => {
                    net.rerepls.remove(&vm);
                    events.push(Event::ReplicationDone { vm, epoch });
                }
                Purpose::Return(vm) => {
                    net.returns.remove(&vm);
                    events.push(Event::ReturnTransferDone(vm));
                }
                Purpose::Restore(mig) => {
                    net.restores.remove(&mig);
                    events.push(Event::RestoreDone(mig));
                }
            }
        }
        // A commit that lands is still a violation if it landed past the
        // promise (the paper's 30 s bound, measured from the request).
        for mig in landed_commits {
            self.net_note_commit_landed(mig, now);
        }
        for e in events {
            self.schedule(Subsystem::Controller, now, now, e, out);
        }
        // Finished commits free admission slots.
        self.net_admit_queued(now, out);
    }

    /// Checks fallbacks and re-arms the [`Event::FlowWake`] alarm at the
    /// next projected flow completion. Runs after each event handler.
    pub(super) fn net_rearm(&mut self, now: SimTime, out: &mut Outbox) {
        if self.net.is_none() {
            return;
        }
        self.net_check_fallbacks(now);
        let net = self.net.as_mut().expect("checked above");
        let Some(dt) = net.sim.time_to_next_completion() else {
            return;
        };
        let target = now.saturating_add(dt);
        // Schedule only when no earlier wake is outstanding: a later-
        // than-needed wake gets superseded; an earlier one is a no-op.
        let need = net.wake_at.map_or(true, |w| w <= now || target < w);
        if need {
            net.wake_at = Some(target);
            self.schedule(Subsystem::Controller, now, target, Event::FlowWake, out);
        }
    }

    // ------------------------------------------------------------------
    // Checkpoint streams
    // ------------------------------------------------------------------

    /// (Re)derives `vm`'s background checkpoint stream from its current
    /// placement: a VM streams to its backup iff it sits on a live host,
    /// is protected, and no re-replication is in flight (the re-push *is*
    /// its stream while re-protecting).
    pub(super) fn net_refresh_stream(&mut self, vm: NestedVmId) {
        if self.net.is_none() {
            return;
        }
        let desired = self.vms.get(&vm).and_then(|r| {
            let host = r.host?;
            let backup = r.backup?;
            if !self.hosts.contains_key(&host) || self.pending_rerepl.contains_key(&vm) {
                return None;
            }
            Some((host, backup, r.workload))
        });
        let cap = desired.map(|(_, _, workload)| {
            self.cfg
                .bounded
                .steady_stream_bps(&workload.dirty_model(), self.vm_spec.pages())
        });
        let nic_bps = self.cfg.backup.nic_bps;
        let disk_bps = self.cfg.backup.disk_write_bps;
        let net = self.net.as_mut().expect("checked above");
        if let Some(old) = net.streams.remove(&vm) {
            net.drop_flow(old);
        }
        let Some((host, backup, _)) = desired else {
            return;
        };
        let h = net.host_link(host);
        let (bn, bd) = net.backup_links(backup, nic_bps, disk_bps);
        let az = net.az;
        let spec = FlowSpec::new(vec![h, az, bn, bd], f64::INFINITY)
            .with_cap(cap.expect("cap computed with desired"));
        let id = net.sim.add_flow(spec);
        net.streams.insert(vm, id);
        net.purpose.insert(id, Purpose::Stream(vm));
    }

    /// Stops `vm`'s checkpoint stream, if any.
    pub(super) fn net_stop_stream(&mut self, vm: NestedVmId) {
        let Some(net) = self.net.as_mut() else { return };
        if let Some(id) = net.streams.remove(&vm) {
            net.drop_flow(id);
        }
    }

    // ------------------------------------------------------------------
    // Final commits: admission, launch, failure
    // ------------------------------------------------------------------

    /// Routes a starting final commit (or live transfer) into the fluid
    /// model: launch immediately, or stage it behind the EDF admission
    /// cap. Zero-length commits (crash recoveries) keep the plain event
    /// path.
    pub(super) fn net_handle_commit_start(
        &mut self,
        mig: MigrationId,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let Some(m) = self.migrations.get(&mig) else {
            return;
        };
        if m.commit_duration.is_zero() {
            self.schedule(Subsystem::Migration, now, now, Event::CommitDone(mig), out);
            return;
        }
        let (vm, deadline) = (m.vm, m.deadline);
        // The 30 s bound's clock starts here: staging in the admission
        // queue spends the same budget the transfer does.
        if let Some(m) = self.migrations.get_mut(&mig) {
            m.commit_requested_at = Some(now);
        }
        let cc = &self.cfg.contention;
        if cc.admission {
            let active = self.net.as_ref().map_or(0, |n| n.commits.len());
            if active >= cc.admission_cap {
                if let Some(m) = self.migrations.get_mut(&mig) {
                    m.queued_at = Some(now);
                }
                let key = deadline.unwrap_or(SimTime::MAX);
                self.net
                    .as_mut()
                    .expect("contention enabled")
                    .commit_queue
                    .insert((key, mig.0));
                self.journal
                    .record(now, Subsystem::Migration, Record::CommitQueued { mig, vm });
                return;
            }
        }
        self.net_launch_commit(mig, now, out);
    }

    /// Adds the commit's flow to the network and schedules its pause.
    fn net_launch_commit(&mut self, mig: MigrationId, now: SimTime, out: &mut Outbox) {
        let Some(m) = self.migrations.get(&mig) else {
            return;
        };
        let (vm, source, dest, live) = (m.vm, m.source, m.dest, m.live);
        let (duration, pause, pays) = (m.commit_duration, m.commit_pause, m.pays_downtime);
        let backup = self.vms.get(&vm).and_then(|r| r.backup);
        let nic_bps = self.cfg.backup.nic_bps;
        let disk_bps = self.cfg.backup.disk_write_bps;
        let net = self.net.as_mut().expect("net enabled");
        // A bounded-time commit streams source -> AZ -> backup NIC ->
        // backup disk; a live transfer streams source -> AZ -> dest NIC
        // (the destination may not be known yet under the deadline guard).
        let mut route = vec![net.host_link(source), net.az];
        if live {
            if let Some(d) = dest {
                let l = net.host_link(d);
                route.push(l);
            }
        } else if let Some(b) = backup {
            let (bn, bd) = net.backup_links(b, nic_bps, disk_bps);
            route.push(bn);
            route.push(bd);
        }
        let bytes = (duration.as_secs_f64() * net.bottleneck(&route)).max(1.0);
        let id = net.sim.add_flow(FlowSpec::new(route, bytes));
        net.commits.insert(mig, id);
        net.purpose.insert(id, Purpose::Commit(mig));
        // The pause estimate stays closed-form relative to the launch;
        // contention pushes the actual completion later, and the VM pays
        // that extra downtime honestly (downtime ends at completion).
        if pays && !pause.is_zero() {
            self.schedule(
                Subsystem::Migration,
                now,
                now + duration.saturating_sub(pause),
                Event::PauseStart(mig),
                out,
            );
        }
    }

    /// Admits queued commits (earliest deadline first) while slots are
    /// free, charging each its queue wait.
    fn net_admit_queued(&mut self, now: SimTime, out: &mut Outbox) {
        loop {
            if !self.cfg.contention.admission {
                return;
            }
            let cap = self.cfg.contention.admission_cap;
            let Some(net) = self.net.as_mut() else { return };
            if net.commits.len() >= cap {
                return;
            }
            let Some(&(key, raw)) = net.commit_queue.iter().next() else {
                return;
            };
            net.commit_queue.remove(&(key, raw));
            let mig = MigrationId(raw);
            let Some(m) = self.migrations.get_mut(&mig) else {
                continue;
            };
            let vm = m.vm;
            let waited = m.queued_at.take().map(|q| now.saturating_since(q));
            m.queue_waited = waited;
            let waited_ms = waited
                .map(|w| (w.as_secs_f64() * 1000.0).round() as u64)
                .unwrap_or(0);
            self.journal.record(
                now,
                Subsystem::Migration,
                Record::CommitAdmitted { mig, vm, waited_ms },
            );
            self.net_launch_commit(mig, now, out);
        }
    }

    /// Journals a [`Record::DeadlineViolation`] for a commit that landed
    /// past the paper's bound (measured from the commit request — queue
    /// wait spends the same budget the transfer does). The overrun is
    /// attributed to the queue when the transfer alone would have fit,
    /// and to link contention otherwise.
    fn net_note_commit_landed(&mut self, mig: MigrationId, now: SimTime) {
        let bound = self.cfg.bounded.bound;
        let Some(m) = self.migrations.get(&mig) else {
            return;
        };
        // Only deadline-bounded commits carry the guarantee.
        if m.deadline.is_none() {
            return;
        }
        let Some(requested) = m.commit_requested_at else {
            return;
        };
        let elapsed = now.saturating_since(requested);
        if elapsed <= bound {
            return;
        }
        let waited = m.queue_waited.unwrap_or(SimDuration::ZERO);
        let cause = if elapsed.saturating_sub(waited) <= bound {
            "queue_wait"
        } else {
            "contention"
        };
        let vm = m.vm;
        self.journal.record(
            now,
            Subsystem::Migration,
            Record::DeadlineViolation { mig, vm, cause },
        );
    }

    /// Kills a commit that can no longer land (its source or backup
    /// died, or its deadline passed in the queue): the migration carries
    /// on with `commit_aborted` — restoring from the last *acked*
    /// checkpoint — and the violation, if any, is journaled with its
    /// cause.
    fn net_fail_commit(
        &mut self,
        mig: MigrationId,
        cause: Option<&'static str>,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let Some(net) = self.net.as_mut() else { return };
        let mut present = false;
        if let Some(id) = net.commits.remove(&mig) {
            net.drop_flow(id);
            present = true;
        }
        let queued: Vec<(SimTime, u64)> = net
            .commit_queue
            .iter()
            .copied()
            .filter(|&(_, raw)| raw == mig.0)
            .collect();
        for k in queued {
            net.commit_queue.remove(&k);
            present = true;
        }
        // Already harvested as a completion at this instant (a commit
        // landing exactly at the deadline is a success, not a violation).
        if !present {
            return;
        }
        let vm = match self.migrations.get_mut(&mig) {
            Some(m) => {
                m.commit_aborted = true;
                m.vm
            }
            None => return,
        };
        if let Some(cause) = cause {
            self.journal.record(
                now,
                Subsystem::Migration,
                Record::DeadlineViolation { mig, vm, cause },
            );
        }
        self.schedule(Subsystem::Migration, now, now, Event::CommitDone(mig), out);
    }

    // ------------------------------------------------------------------
    // Re-replication, returns, restores
    // ------------------------------------------------------------------

    /// Models a re-replication push as a flow from the VM's host to its
    /// replacement backup. Returns false (caller keeps the closed-form
    /// schedule) when contention is off or the flow cannot be routed.
    pub(super) fn net_add_rerepl(&mut self, vm: NestedVmId, epoch: u32, push: SimDuration) -> bool {
        if self.net.is_none() {
            return false;
        }
        let Some((host, backup)) = self
            .vms
            .get(&vm)
            .and_then(|r| Some((r.host?, r.backup?)))
        else {
            return false;
        };
        if !self.hosts.contains_key(&host) {
            return false;
        }
        let nic_bps = self.cfg.backup.nic_bps;
        let disk_bps = self.cfg.backup.disk_write_bps;
        let net = self.net.as_mut().expect("checked above");
        if let Some(old) = net.rerepls.remove(&vm) {
            net.drop_flow(old);
        }
        let h = net.host_link(host);
        let (bn, bd) = net.backup_links(backup, nic_bps, disk_bps);
        let route = vec![h, net.az, bn, bd];
        let bytes = (push.as_secs_f64() * net.bottleneck(&route)).max(1.0);
        let id = net.sim.add_flow(FlowSpec::new(route, bytes));
        net.rerepls.insert(vm, id);
        net.purpose.insert(id, Purpose::Rerepl(vm, epoch));
        true
    }

    /// Models a return-to-spot pre-copy as a flow from the on-demand
    /// refuge to the fresh spot host. Returns false when contention is
    /// off or the source host is unknown.
    pub(super) fn net_add_return(
        &mut self,
        vm: NestedVmId,
        dest: InstanceId,
        duration: SimDuration,
    ) -> bool {
        if self.net.is_none() {
            return false;
        }
        let Some(source) = self.vms.get(&vm).and_then(|r| r.host) else {
            return false;
        };
        if !self.hosts.contains_key(&source) {
            return false;
        }
        let net = self.net.as_mut().expect("checked above");
        if let Some(old) = net.returns.remove(&vm) {
            net.drop_flow(old);
        }
        let s = net.host_link(source);
        let d = net.host_link(dest);
        let route = vec![s, net.az, d];
        let bytes = (duration.as_secs_f64() * net.bottleneck(&route)).max(1.0);
        let id = net.sim.add_flow(FlowSpec::new(route, bytes));
        net.returns.insert(vm, id);
        net.purpose.insert(id, Purpose::Return(vm));
        true
    }

    /// Models a migration's restore gate as a read flow from the VM's
    /// backup disk to the destination. Returns false (caller keeps the
    /// closed-form schedule) when contention is off, the gate is zero, or
    /// the VM has no backup to read from.
    pub(super) fn net_add_restore(
        &mut self,
        mig: MigrationId,
        vm: NestedVmId,
        dest: InstanceId,
        gate: SimDuration,
    ) -> bool {
        if self.net.is_none() || gate.is_zero() {
            return false;
        }
        let Some(backup) = self.vms.get(&vm).and_then(|r| r.backup) else {
            return false;
        };
        let nic_bps = self.cfg.backup.nic_bps;
        let disk_bps = self.cfg.backup.disk_write_bps;
        let net = self.net.as_mut().expect("checked above");
        if let Some(old) = net.restores.remove(&mig) {
            net.drop_flow(old);
        }
        let (bn, bd) = net.backup_links(backup, nic_bps, disk_bps);
        let d = net.host_link(dest);
        let route = vec![bd, bn, net.az, d];
        let bytes = (gate.as_secs_f64() * net.bottleneck(&route)).max(1.0);
        let id = net.sim.add_flow(FlowSpec::new(route, bytes));
        net.restores.insert(mig, id);
        net.purpose.insert(id, Purpose::Restore(mig));
        true
    }

    /// Drops any flows still attached to a finished or aborted migration.
    pub(super) fn net_drop_migration(&mut self, mig: MigrationId) {
        let Some(net) = self.net.as_mut() else { return };
        if let Some(id) = net.commits.remove(&mig) {
            net.drop_flow(id);
        }
        if let Some(id) = net.restores.remove(&mig) {
            net.drop_flow(id);
        }
        let queued: Vec<(SimTime, u64)> = net
            .commit_queue
            .iter()
            .copied()
            .filter(|&(_, raw)| raw == mig.0)
            .collect();
        for k in queued {
            net.commit_queue.remove(&k);
        }
    }

    // ------------------------------------------------------------------
    // Capacity death: hosts and backup servers
    // ------------------------------------------------------------------

    /// A host's NIC went away (forced termination when `warned`, crash
    /// otherwise): kill its link, fail every flow crossing it, and sweep
    /// queued commits sourced from it. This is where the violation
    /// taxonomy is decided — `net_catch_up` ran first, so a commit that
    /// finished exactly at the deadline was already harvested as a
    /// success.
    pub(super) fn net_on_host_gone(
        &mut self,
        instance: InstanceId,
        warned: bool,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let Some(net) = self.net.as_mut() else { return };
        let link = net.host_nic.remove(&instance);
        let crossing = link.map(|l| net.crossing(l)).unwrap_or_default();
        if let Some(l) = link {
            net.sim.network_mut().set_capacity(l, 0.0);
        }
        let queued: Vec<u64> = net.commit_queue.iter().map(|&(_, raw)| raw).collect();

        let mut dead_commits: Vec<MigrationId> = Vec::new();
        let mut events: Vec<Event> = Vec::new();
        for (id, p) in crossing {
            match p {
                Purpose::Stream(vm) => {
                    net.streams.remove(&vm);
                    net.drop_flow(id);
                }
                Purpose::Commit(mig) => dead_commits.push(mig),
                Purpose::Rerepl(vm, _) => {
                    // The push died with its source; the VM's unprotected
                    // window simply extends (crash triage already treats a
                    // pending re-replication as an incomplete image).
                    net.rerepls.remove(&vm);
                    net.drop_flow(id);
                }
                Purpose::Return(vm) => {
                    // End the transfer now (a dead link would stall it
                    // forever); the return subsystem's own guards decide
                    // whether the return proceeds or was already abandoned.
                    net.returns.remove(&vm);
                    net.drop_flow(id);
                    events.push(Event::ReturnTransferDone(vm));
                }
                Purpose::Restore(mig) => {
                    // The destination died mid-restore; complete the gate
                    // so the migration's own dest-failure logic runs.
                    net.restores.remove(&mig);
                    net.drop_flow(id);
                    events.push(Event::RestoreDone(mig));
                }
            }
        }
        // Queued commits whose source just died never got a flow at all.
        for raw in queued {
            let mig = MigrationId(raw);
            if self
                .migrations
                .get(&mig)
                .map(|m| m.source == instance)
                .unwrap_or(false)
            {
                dead_commits.push(mig);
            }
        }
        for mig in dead_commits {
            let cause = self.migrations.get(&mig).and_then(|m| {
                if m.source != instance {
                    // The commit's *destination* died (live transfer);
                    // no guarantee attached to the destination's NIC.
                    return None;
                }
                m.deadline?;
                Some(if warned {
                    if m.queued_at.is_some() {
                        "queue_wait"
                    } else {
                        "contention"
                    }
                } else {
                    "residue_lost"
                })
            });
            self.net_fail_commit(mig, cause, now, out);
        }
        for e in events {
            self.schedule(Subsystem::Controller, now, now, e, out);
        }
        self.net_admit_queued(now, out);
    }

    /// A backup server crash-stopped: kill its links and fail every flow
    /// crossing them. Commits lose their residue ("residue_lost");
    /// restores complete against the stale image the destination already
    /// pulled; orphaned streams and pushes are re-derived by the
    /// replication subsystem.
    pub(super) fn net_on_backup_gone(
        &mut self,
        server: BackupServerId,
        now: SimTime,
        out: &mut Outbox,
    ) {
        let Some(net) = self.net.as_mut() else { return };
        let (Some(nic), Some(disk)) = (
            net.backup_nic.remove(&server),
            net.backup_disk.remove(&server),
        ) else {
            return;
        };
        let crossing = net.crossing(nic);
        net.sim.network_mut().set_capacity(nic, 0.0);
        net.sim.network_mut().set_capacity(disk, 0.0);
        let mut dead_commits: Vec<MigrationId> = Vec::new();
        let mut events: Vec<Event> = Vec::new();
        for (id, p) in crossing {
            match p {
                Purpose::Stream(vm) => {
                    net.streams.remove(&vm);
                    net.drop_flow(id);
                }
                Purpose::Commit(mig) => dead_commits.push(mig),
                Purpose::Rerepl(vm, _) => {
                    net.rerepls.remove(&vm);
                    net.drop_flow(id);
                }
                Purpose::Return(vm) => {
                    // Returns never route through backups; defensive only.
                    net.returns.remove(&vm);
                    net.drop_flow(id);
                }
                Purpose::Restore(mig) => {
                    net.restores.remove(&mig);
                    net.drop_flow(id);
                    events.push(Event::RestoreDone(mig));
                }
            }
        }
        for mig in dead_commits {
            let cause = self
                .migrations
                .get(&mig)
                .and_then(|m| m.deadline.map(|_| "residue_lost"));
            self.net_fail_commit(mig, cause, now, out);
        }
        for e in events {
            self.schedule(Subsystem::Controller, now, now, e, out);
        }
        self.net_admit_queued(now, out);
    }

    // ------------------------------------------------------------------
    // Defenses
    // ------------------------------------------------------------------

    /// Backup servers whose NIC currently carries more than
    /// [`HOT_LINK_FRACTION`] of its capacity (the spreading defense's
    /// avoid set).
    pub(super) fn net_hot_backups(&mut self) -> BTreeSet<BackupServerId> {
        let mut hot = BTreeSet::new();
        if !self.cfg.contention.spread_by_load {
            return hot;
        }
        let threshold = HOT_LINK_FRACTION * self.cfg.backup.nic_bps;
        let Some(net) = self.net.as_mut() else {
            return hot;
        };
        let servers: Vec<(BackupServerId, LinkId)> =
            net.backup_nic.iter().map(|(&s, &l)| (s, l)).collect();
        for (s, l) in servers {
            if net.sim.link_load(l) > threshold {
                hot.insert(s);
            }
        }
        hot
    }

    /// The fallback defense: any admitted commit whose remaining bytes
    /// provably exceed what its current rate can move before its deadline
    /// degrades to Yank-style pause-and-flush — pause the VM now (downtime
    /// charged from this instant), stop its checkpoint stream, and boost
    /// the flush's weight so the residue drains as fast as fairness
    /// allows.
    fn net_check_fallbacks(&mut self, now: SimTime) {
        if !self.cfg.contention.fallback {
            return;
        }
        let Some(net) = self.net.as_mut() else { return };
        if net.commits.is_empty() {
            return;
        }
        // Rates must be fresh before projecting completions.
        let _ = net.sim.time_to_next_completion();
        let mut engage: Vec<(MigrationId, FlowId)> = Vec::new();
        for (&mig, &id) in &net.commits {
            let Some(m) = self.migrations.get(&mig) else {
                continue;
            };
            if m.fallback || !m.pays_downtime {
                continue;
            }
            let Some(deadline) = m.deadline else { continue };
            // The binding deadline is whichever comes first: the
            // platform's termination or the promised bound measured from
            // the commit request.
            let deadline = m
                .commit_requested_at
                .map(|r| deadline.min(r + self.cfg.bounded.bound))
                .unwrap_or(deadline);
            let window = deadline.saturating_since(now).as_secs_f64();
            let remaining = net.sim.remaining(id).unwrap_or(0.0);
            let rate = net.sim.rate(id).unwrap_or(0.0);
            if remaining > rate * window {
                engage.push((mig, id));
            }
        }
        for (mig, id) in engage {
            if let Some(net) = self.net.as_mut() {
                net.sim.set_weight(id, FALLBACK_WEIGHT);
            }
            let Some(m) = self.migrations.get_mut(&mig) else {
                continue;
            };
            m.fallback = true;
            let (vm, source) = (m.vm, m.source);
            let newly_paused = m.paused_at.is_none();
            if newly_paused {
                m.paused_at = Some(now);
            }
            self.journal
                .record(now, Subsystem::Migration, Record::FallbackYank { mig, vm });
            if newly_paused {
                self.accounting.mark_down(vm, now);
                if let Some(info) = self.hosts.get_mut(&source) {
                    if let Some(v) = info.hv.vm_mut(vm) {
                        v.state = NestedVmState::PausedForMigration;
                    }
                }
            }
            // A paused VM dirties no pages: its checkpoint stream stops,
            // freeing backup NIC share for the flushes that need it.
            self.net_stop_stream(vm);
        }
    }
}
