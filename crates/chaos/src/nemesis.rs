//! The nemesis: drives a [`FaultPlan`] against a
//! running deployment from inside the simulation.
//!
//! The nemesis runs as an ordinary simulated task alongside the workload
//! clients: it sleeps to each event's virtual time and injects the fault
//! through the deployment's [`Control`] handle (the same code the blocking
//! `Cluster` wrappers run), or, for partitions, loss windows and WAL
//! slow-downs, directly on the `Network` and the servers. Every recovery
//! report is collected for the run report.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_core::Control;
use switchfs_server::server::recovery::RecoveryReport;
use switchfs_simnet::{NetFaults, SimDuration};

use crate::plan::{Fault, FaultPlan};

/// What the nemesis did, for the run report.
#[derive(Debug, Default)]
pub struct NemesisLog {
    /// `(server index, report)` for every recovery the nemesis drove.
    pub recoveries: Vec<(usize, RecoveryReport)>,
    /// Number of switch reboots injected.
    pub switch_reboots: usize,
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
pub async fn run_nemesis(control: Control, plan: FaultPlan, log: Rc<RefCell<NemesisLog>>) {
    let start = control.sim().now();
    for ev in &plan.events {
        let deadline = start + SimDuration::micros(ev.at_us);
        control.sim().sleep_until(deadline).await;
        apply_fault(&control, &ev.fault, &log).await;
    }
    let horizon = start + SimDuration::micros(plan.horizon_us);
    control.sim().sleep_until(horizon).await;
}

async fn apply_fault(control: &Control, fault: &Fault, log: &Rc<RefCell<NemesisLog>>) {
    match fault {
        Fault::CrashServer { server } => control.crash(*server),
        Fault::TornCrash { server, tear_seed } => {
            let tail = control.crash_torn(*server, *tear_seed);
            log.borrow_mut().torn_tails.push((*server, tail));
        }
        Fault::RecoverServer { server } => {
            let report = control.recover(*server).await;
            log.borrow_mut().recoveries.push((*server, report));
        }
        Fault::RebootSwitch => {
            if control.reboot_switch().await {
                log.borrow_mut().switch_reboots += 1;
            }
        }
        Fault::Partition { isolated } => {
            let servers = control.servers();
            let groups = isolated.iter().map(|i| (servers[*i].node(), 1u32));
            control.network().set_partition(groups);
        }
        Fault::HealPartition => control.network().heal_partition(),
        Fault::SetLoss {
            drop_pm,
            dup_pm,
            jitter_us,
        } => {
            control.network().set_faults(NetFaults::lossy(
                *drop_pm as f64 / 1000.0,
                *dup_pm as f64 / 1000.0,
                SimDuration::micros(*jitter_us),
            ));
        }
        Fault::ClearLoss => control.network().set_faults(NetFaults::reliable()),
        Fault::DiskSpike { server, mult } => {
            control.servers()[*server].set_disk_slowdown(*mult);
        }
        Fault::ClearDiskSpike { server } => {
            control.servers()[*server].set_disk_slowdown(1);
        }
        Fault::RebalanceOntoNewServer => {
            // The harness provisioned the standby server (it is the last
            // entry of the membership and owns no shards yet); ownership
            // moves now, live, while the workload keeps running.
            let moved = control.rebalance().await;
            log.borrow_mut().shards_moved += moved;
        }
        Fault::DecommissionServer { server } => {
            // Drain the victim's shards to the survivors while the workload
            // keeps running, then retire it. Only a completed drain shuts
            // the server down (into the WrongOwner redirect tombstone); an
            // incomplete one (a fault window ate the retry budget) leaves a
            // consistent partially-drained cluster.
            let report = control.drain(*server).await;
            if report.completed {
                control.tombstone(*server);
                log.borrow_mut().decommissions += 1;
            }
            log.borrow_mut().shards_moved += report.shards_moved;
        }
    }
}
