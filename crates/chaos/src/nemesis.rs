//! The nemesis: drives a [`FaultPlan`] against a
//! running deployment from inside the simulation.
//!
//! The nemesis runs as an ordinary simulated task alongside the workload
//! clients: it sleeps to each event's virtual time and injects the fault
//! through the same handles the cluster harness uses (crash/recover with
//! `Server::recover`, switch reboot + re-aggregation, partition filters and
//! loss windows on the `Network`, WAL slow-down on servers). Every recovery
//! report is collected for the run report.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_core::{run_decommission, run_rebalance, Cluster};
use switchfs_proto::message::NetMsg;
use switchfs_proto::SharedPlacement;
use switchfs_server::server::recovery::RecoveryReport;
use switchfs_server::Server;
use switchfs_simnet::{NetFaults, Network, NodeId, SimDuration, SimHandle, SimTime};

use crate::plan::{Fault, FaultPlan};

/// Everything the nemesis needs, captured from a [`Cluster`] *before* the
/// simulation starts (the cluster itself cannot be borrowed into a spawned
/// task).
#[derive(Clone)]
pub struct NemesisHandles {
    /// Simulation handle (clock + sleep).
    pub handle: SimHandle,
    /// The network fabric.
    pub network: Network<NetMsg>,
    /// Every metadata server, by index.
    pub servers: Vec<Server>,
    /// The servers' network nodes, by index.
    pub server_nodes: Vec<NodeId>,
    /// The switch program, if the deployment has one (reboot hook).
    pub switch: Option<SwitchHook>,
    /// Removes a node from the switch's aggregation multicast group
    /// (decommission fault), if a switch is deployed.
    pub switch_remove: Option<SwitchRemoveHook>,
    /// The cluster's shared shard map (membership-change fault: the nemesis
    /// drives a live rebalance against it).
    pub placement: SharedPlacement,
}

/// Reboot hook for the programmable switch.
pub type SwitchHook = Rc<dyn Fn()>;

/// Multicast-group removal hook for the programmable switch.
pub type SwitchRemoveHook = Rc<dyn Fn(u32)>;

impl NemesisHandles {
    /// Captures the handles from a built cluster.
    pub fn capture(cluster: &Cluster) -> NemesisHandles {
        let servers: Vec<Server> = cluster.servers().to_vec();
        let server_nodes: Vec<NodeId> = (0..servers.len())
            .map(|i| cluster.server_node_id(i))
            .collect();
        let switch: Option<SwitchHook> = cluster.switch_program().map(|p| {
            let p = p.clone();
            Rc::new(move || p.borrow_mut().reboot()) as SwitchHook
        });
        let switch_remove: Option<SwitchRemoveHook> = cluster.switch_program().map(|p| {
            let p = p.clone();
            Rc::new(move |node: u32| p.borrow_mut().remove_server_node(node)) as SwitchRemoveHook
        });
        NemesisHandles {
            handle: cluster.sim.handle(),
            network: cluster.network(),
            servers,
            server_nodes,
            switch,
            switch_remove,
            placement: cluster.placement(),
        }
    }
}

/// What the nemesis did, for the run report.
#[derive(Debug, Default)]
pub struct NemesisLog {
    /// `(server index, report)` for every recovery the nemesis drove.
    pub recoveries: Vec<(usize, RecoveryReport)>,
    /// Number of switch reboots injected.
    pub switch_reboots: usize,
    /// Number of events applied in total.
    pub events_applied: usize,
    /// Shards migrated by membership-change faults (grow and shrink).
    pub shards_moved: usize,
    /// Graceful decommissions completed (victim drained, retired and turned
    /// into a redirect tombstone).
    pub decommissions: usize,
    /// `(server index, tail)` for every torn crash: what the tear did to the
    /// victim's unflushed WAL suffix (kept / torn / dropped counts).
    pub torn_tails: Vec<(usize, switchfs_server::TornTail)>,
}

/// Runs the plan to completion. The future resolves once the last event has
/// been applied and the plan's horizon has passed; by construction of
/// [`FaultPlan::generate`](crate::plan::FaultPlan::generate) the cluster is
/// healthy at that point.
pub async fn run_nemesis(handles: NemesisHandles, plan: FaultPlan, log: Rc<RefCell<NemesisLog>>) {
    let start = handles.handle.now();
    for ev in &plan.events {
        let deadline = start + SimDuration::micros(ev.at_us);
        sleep_until(&handles.handle, deadline).await;
        apply_fault(&handles, &ev.fault, &log).await;
        log.borrow_mut().events_applied += 1;
    }
    sleep_until(
        &handles.handle,
        start + SimDuration::micros(plan.horizon_us),
    )
    .await;
}

async fn sleep_until(handle: &SimHandle, deadline: SimTime) {
    let now = handle.now();
    if deadline > now {
        handle.sleep(deadline.duration_since(now)).await;
    }
}

async fn apply_fault(handles: &NemesisHandles, fault: &Fault, log: &Rc<RefCell<NemesisLog>>) {
    match fault {
        Fault::CrashServer { server } => {
            handles.servers[*server].crash();
            handles
                .network
                .set_node_down(handles.server_nodes[*server], true);
        }
        Fault::TornCrash { server, tear_seed } => {
            let tail = handles.servers[*server].crash_torn(*tear_seed);
            log.borrow_mut().torn_tails.push((*server, tail));
            handles
                .network
                .set_node_down(handles.server_nodes[*server], true);
        }
        Fault::RecoverServer { server } => {
            handles
                .network
                .set_node_down(handles.server_nodes[*server], false);
            let report = handles.servers[*server].recover().await;
            log.borrow_mut().recoveries.push((*server, report));
        }
        Fault::RebootSwitch => {
            if let Some(reboot) = &handles.switch {
                reboot();
                // §5.4.2: every server re-aggregates the directories it owns
                // so the (now empty) dirty set is consistent again. The
                // stop-the-world pause mirrors `crash_and_recover_switch`.
                for s in &handles.servers {
                    if !s.is_crashed() {
                        s.set_available(false);
                    }
                }
                for s in &handles.servers {
                    if !s.is_crashed() {
                        s.aggregate_all_owned().await;
                    }
                }
                for s in &handles.servers {
                    if !s.is_crashed() {
                        s.set_available(true);
                    }
                }
                log.borrow_mut().switch_reboots += 1;
            }
        }
        Fault::Partition { isolated } => {
            let groups = isolated.iter().map(|i| (handles.server_nodes[*i], 1u32));
            handles.network.set_partition(groups);
        }
        Fault::HealPartition => handles.network.heal_partition(),
        Fault::SetLoss {
            drop_pm,
            dup_pm,
            jitter_us,
        } => {
            handles.network.set_faults(NetFaults::lossy(
                *drop_pm as f64 / 1000.0,
                *dup_pm as f64 / 1000.0,
                SimDuration::micros(*jitter_us),
            ));
        }
        Fault::ClearLoss => handles.network.set_faults(NetFaults::reliable()),
        Fault::DiskSpike { server, mult } => {
            handles.servers[*server].set_disk_slowdown(*mult);
        }
        Fault::ClearDiskSpike { server } => {
            handles.servers[*server].set_disk_slowdown(1);
        }
        Fault::RebalanceOntoNewServer => {
            // The harness provisioned the standby server (it is the last
            // entry of `servers` and owns no shards yet); ownership moves
            // now, live, while the workload keeps running.
            let moved = run_rebalance(&handles.placement, &handles.servers).await;
            log.borrow_mut().shards_moved += moved;
        }
        Fault::DecommissionServer { server } => {
            // Drain the victim's shards to the survivors while the workload
            // keeps running, then retire it. Only a completed drain shuts
            // the server down (into the WrongOwner redirect tombstone); an
            // incomplete one (a fault window ate the retry budget) leaves a
            // consistent partially-drained cluster.
            let report = run_decommission(&handles.placement, &handles.servers, *server).await;
            if report.completed {
                if let Some(remove) = &handles.switch_remove {
                    remove(handles.server_nodes[*server].0);
                }
                handles.servers[*server].decommission();
                log.borrow_mut().decommissions += 1;
            }
            log.borrow_mut().shards_moved += report.shards_moved;
        }
    }
}
