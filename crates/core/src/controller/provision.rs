//! VM provisioning and placement.
//!
//! Implements the provisioning ladder (paper §4.2): reuse a free slot on
//! an existing spot host, join a still-booting host with uncommitted
//! slots (the second medium VM of a freshly-sliced larger server), buy a
//! new spot host via the placement policy (greedy picks the cheapest per
//! slot — the slicing arbitrage), or fall back to on-demand with retry
//! backoff.

use spotcheck_cloudsim::error::CloudError;
use spotcheck_cloudsim::ids::InstanceId;
use spotcheck_cloudsim::instance::InstanceState;
use spotcheck_nestedvm::host::HostVm;
use spotcheck_nestedvm::vm::{NestedVmId, NestedVmState};
use spotcheck_simcore::time::SimTime;
use spotcheck_spotmarket::market::MarketId;

use crate::events::Event;
use crate::journal::{Record, Subsystem};
use crate::policy::placement::{choose_index, Candidate};
use crate::types::VmStatus;
use spotcheck_cloudsim::cloud::Notification;

use super::effects::OpCtx;
use super::pools::HostInfo;
use super::{Controller, Outbox};

impl Controller {
    pub(super) fn on_provision(&mut self, vm: NestedVmId, now: SimTime, out: &mut Outbox) {
        let Some(record) = self.vms.get(&vm) else {
            return;
        };
        if record.status != VmStatus::Provisioning {
            return;
        }
        // 1. Reuse a free slot on an existing spot host in one of the
        //    mapping policy's markets. `free_slot_hosts` holds exactly the
        //    hosts whose hypervisor fits another VM, in id order — the same
        //    order the full-map scan used — so the first match is identical.
        let markets = self.cfg.mapping.markets(&self.cfg.zone);
        let existing = self.free_slot_hosts.iter().copied().find_map(|id| {
            let info = self.hosts.get(&id)?;
            let usable = self
                .cloud
                .instance(id)
                .map(|i| matches!(i.state, InstanceState::Running))
                .unwrap_or(false);
            match &info.market {
                Some(m) if markets.contains(m) && usable && info.hv.fits(&self.vm_spec) => {
                    Some((id, m.clone()))
                }
                _ => None,
            }
        });
        if let Some((host, market)) = existing {
            self.place_vm(vm, host, Some(market), now, out);
            return;
        }
        // 1b. Join a host that is still booting and has uncommitted slots
        //     (e.g. the second medium VM of a freshly-sliced m3.large).
        let pending = self.host_waiters.iter().find_map(|(inst, waiters)| {
            let i = self.cloud.instance(inst).ok()?;
            if !matches!(i.state, InstanceState::Pending) {
                return None;
            }
            let in_scope = match i.market() {
                Some(m) => markets.contains(&m),
                None => true,
            };
            if in_scope && (waiters.len() as u32) < i.spec.medium_slots {
                Some((inst, i.market()))
            } else {
                None
            }
        });
        if let Some((inst, market)) = pending {
            self.host_waiters
                .get_mut(&inst)
                .expect("pending host has a waiter list")
                .push(vm);
            if let Some(r) = self.vms.get_mut(&vm) {
                if r.home_market.is_none() {
                    r.home_market = market;
                }
            }
            return;
        }
        // 2. Buy a new native spot server: placement policy over the
        //    mapping markets (greedy picks the cheapest per slot, which is
        //    the §4.2 slicing arbitrage).
        let ordered_markets: Vec<MarketId> = {
            let mut candidates = Vec::new();
            for (i, m) in markets.iter().enumerate() {
                if let (Some(trace), Some(spec)) = (
                    self.cloud.market_trace(m),
                    self.cloud.spec(m.type_name.as_str()),
                ) {
                    candidates.push((i, m.clone(), spec.medium_slots, trace));
                }
            }
            let cand_refs: Vec<Candidate<'_>> = candidates
                .iter()
                .map(|(i, _, slots, trace)| Candidate {
                    index: *i,
                    trace,
                    slots: *slots,
                })
                .collect();
            let mut order: Vec<usize> = Vec::new();
            if let Some(first) = choose_index(self.cfg.placement, &cand_refs, now) {
                order.push(first);
            }
            for (i, ..) in &candidates {
                if !order.contains(i) {
                    order.push(*i);
                }
            }
            order
                .into_iter()
                .map(|idx| {
                    candidates
                        .iter()
                        .find(|(i, ..)| *i == idx)
                        .expect("ordered index is a candidate")
                        .1
                        .clone()
                })
                .collect()
        };
        let zone = spotcheck_spotmarket::market::ZoneName::new(self.cfg.zone.clone());
        for market in ordered_markets {
            // Circuit breaker: a market that keeps failing (transient API
            // errors, boot races) is excluded for a cooldown; provisioning
            // falls through to the next-cheapest market or on-demand.
            if self.market_health.is_open(&market, now) {
                continue;
            }
            let od = self
                .cloud
                .spec(market.type_name.as_str())
                .expect("candidate spec exists")
                .on_demand_price;
            let bid = self.cfg.bidding.bid(od);
            match self.eff_request_spot(
                Subsystem::Provision,
                market.type_name.as_str(),
                &zone,
                bid,
                OpCtx::HostBoot,
                now,
                out,
            ) {
                Ok(instance) => {
                    self.market_health.record_success(&market);
                    self.host_waiters.or_default(instance).push(vm);
                    // Remember the VM's home market for return-to-spot.
                    self.backup_refs_sub(vm);
                    if let Some(r) = self.vms.get_mut(&vm) {
                        r.home_market = Some(market);
                    }
                    self.backup_refs_add(vm);
                    return;
                }
                // Economic rejection, not ill health: the price is simply
                // above our bid right now.
                Err(CloudError::BidBelowPrice { .. }) => continue,
                Err(CloudError::ApiUnavailable) => {
                    self.market_health.record_failure(&market, now);
                    continue;
                }
                Err(_) => continue,
            }
        }
        // 3. Every spot market is above our bid right now: fall back to an
        //    on-demand host (the VM will move to spot when prices permit).
        match self.eff_request_on_demand(
            Subsystem::Provision,
            "m3.medium",
            &zone,
            OpCtx::HostBoot,
            now,
            out,
        ) {
            Ok(instance) => {
                self.host_waiters.or_default(instance).push(vm);
                if let Some(r) = self.vms.get_mut(&vm) {
                    if r.home_market.is_none() {
                        // Home defaults to the first mapping market. The VM
                        // has no backup yet, so no refcount to maintain.
                        r.home_market =
                            self.cfg.mapping.markets(&self.cfg.zone).into_iter().next();
                    }
                }
            }
            // Nothing anywhere — spot markets above our bid, skipped, or
            // erroring, and on-demand stocked out or throttled. Back off
            // and try the whole ladder again; without this the VM would
            // sit in Provisioning forever.
            Err(_) if self.cfg.resilience.retry_enabled => {
                let attempt = {
                    let attempt = self.provision_attempts.or_insert(vm, 0);
                    *attempt += 1;
                    *attempt
                };
                let delay = self.cfg.resilience.retry.delay_for(attempt, vm.0);
                self.journal.record(
                    now,
                    Subsystem::Provision,
                    Record::Retry {
                        what: "provision",
                        attempt,
                    },
                );
                self.schedule(
                    Subsystem::Provision,
                    now,
                    now + delay,
                    Event::ProvisionVm(vm),
                    out,
                );
            }
            Err(_) => {}
        }
    }

    /// Boots the nested VM on `host` and starts attaching its ENI/volume.
    pub(super) fn place_vm(
        &mut self,
        vm: NestedVmId,
        host: InstanceId,
        market: Option<MarketId>,
        now: SimTime,
        out: &mut Outbox,
    ) {
        if !self.vms.contains_key(&vm) {
            return;
        }
        let info = self.hosts.get_mut(&host).expect("host exists");
        if info.hv.boot(vm, self.vm_spec, now).is_err() {
            // Lost the slot to a race: retry provisioning.
            self.schedule(Subsystem::Provision, now, now, Event::ProvisionVm(vm), out);
            return;
        }
        self.note_host_slots(host);
        if let Some(record) = self.vms.get_mut(&vm) {
            record.host = Some(host);
            if record.home_market.is_none() {
                record.home_market = market;
            }
        }
        self.note_vm_placement(vm);
        let pending = self.attach_network_identity(
            Subsystem::Provision,
            vm,
            host,
            OpCtx::ProvisionAttach(vm),
            now,
            out,
        );
        if pending == 0 {
            // Host died under us: retry.
            self.schedule(Subsystem::Provision, now, now, Event::ProvisionVm(vm), out);
            return;
        }
        self.provision_pending.insert(vm, pending);
    }

    pub(super) fn finish_provisioning(&mut self, vm: NestedVmId, now: SimTime) {
        self.provision_attempts.remove(&vm);
        // Released while its network identity was attaching: stay released.
        if self.vms.get(&vm).map(|r| r.status) != Some(VmStatus::Provisioning) {
            return;
        }
        self.set_status(Subsystem::Provision, vm, VmStatus::Running, now);
        {
            let record = self.vms.get_mut(&vm).expect("checked above");
            if record.first_running_at.is_none() {
                record.first_running_at = Some(now);
                self.accounting.track(vm, now);
            } else {
                // A re-provision after a crash: the downtime clock has been
                // running since the host died.
                self.accounting.mark_up(vm, now);
            }
        }
        let host = self.vms.get(&vm).and_then(|r| r.host);
        // Protect the VM with a backup server when it sits on a spot host
        // and the mechanism uses bounded-time migration.
        let on_spot = host
            .and_then(|h| self.hosts.get(&h))
            .map(|i| i.market.is_some())
            .unwrap_or(false);
        let stateless = self.vms.get(&vm).map(|r| r.stateless).unwrap_or(false);
        if on_spot && !stateless && self.cfg.mechanism.needs_backup() {
            self.assign_backup(vm, now);
        }
        if let Some(h) = host {
            if let Some(info) = self.hosts.get_mut(&h) {
                if let Some(v) = info.hv.vm_mut(vm) {
                    v.state = if on_spot && !stateless && self.cfg.mechanism.needs_backup() {
                        NestedVmState::RunningProtected
                    } else {
                        NestedVmState::Running
                    };
                }
            }
        }
        // A protected spot placement starts its background checkpoint
        // stream in the fluid model.
        self.net_refresh_stream(vm);
    }

    /// A provisioning host finished booting: place its waiters.
    pub(super) fn on_host_boot(&mut self, instance: InstanceId, now: SimTime, out: &mut Outbox) {
        let spec = self
            .cloud
            .instance(instance)
            .expect("instance exists")
            .spec
            .clone();
        let market = self
            .cloud
            .instance(instance)
            .expect("instance exists")
            .market();
        self.hosts.insert(
            instance,
            HostInfo {
                hv: HostVm::new(spec.medium_slots),
                market: market.clone(),
            },
        );
        self.note_host_slots(instance);
        // A waiter released (or lost) while the host booted must not be
        // placed: placing it would resurrect it as Running.
        let waiters: Vec<NestedVmId> = self
            .host_waiters
            .remove(&instance)
            .unwrap_or_default()
            .into_iter()
            .filter(|vm| self.vms.get(vm).map(|r| r.status) == Some(VmStatus::Provisioning))
            .collect();
        if waiters.is_empty() {
            // Nobody left to host: give the server back, as a release of
            // its last resident does.
            self.terminate_host(instance, now, out);
            return;
        }
        for vm in waiters {
            self.place_vm(vm, instance, market.clone(), now, out);
        }
    }

    /// A provisioning spot host lost its boot race (price moved during
    /// startup): re-run the ladder for its waiters.
    pub(super) fn on_host_boot_failed(
        &mut self,
        instance: InstanceId,
        now: SimTime,
        out: &mut Outbox,
    ) {
        // A boot race (price moved during startup) counts against
        // the market's health.
        if let Some(market) = self.cloud.instance(instance).ok().and_then(|i| i.market()) {
            self.market_health.record_failure(&market, now);
        }
        for vm in self.host_waiters.remove(&instance).unwrap_or_default() {
            self.schedule(Subsystem::Provision, now, now, Event::ProvisionVm(vm), out);
        }
    }

    /// One of a provisioning VM's attach gates completed.
    pub(super) fn on_provision_attach(
        &mut self,
        vm: NestedVmId,
        n: &Notification,
        now: SimTime,
        out: &mut Outbox,
    ) {
        match n {
            Notification::EniAttached { .. } | Notification::VolumeAttached { .. } => {
                let left = self
                    .provision_pending
                    .get_mut(&vm)
                    .map(|p| {
                        *p = p.saturating_sub(1);
                        *p
                    })
                    .unwrap_or(0);
                if left == 0 {
                    self.provision_pending.remove(&vm);
                    self.finish_provisioning(vm, now);
                }
            }
            Notification::EniAttachFailed { .. } | Notification::VolumeAttachFailed { .. } => {
                // The host died mid-provision: start over.
                self.provision_pending.remove(&vm);
                if let Some(r) = self.vms.get_mut(&vm) {
                    r.host = None;
                }
                self.note_vm_placement(vm);
                self.schedule(Subsystem::Provision, now, now, Event::ProvisionVm(vm), out);
            }
            _ => {}
        }
    }
}
