//! The control plane of a built deployment: every fault and membership
//! change, written once.
//!
//! [`Cluster`](crate::Cluster) wraps each method in a blocking call, the
//! chaos nemesis awaits them from inside a running simulation, and the
//! elastic-membership figures spawn them next to a workload. The cluster
//! keeps one [`Control`] as its handle on those parts; a clone is cheap and
//! moves into a simulated task where a `Cluster` cannot.
//!
//! An async fault returns a `'static` future, and its synchronous first step
//! (a node coming up, the switch losing its state) runs when the method is
//! called. A caller outside the simulation therefore injects the fault
//! before the simulation runs again, and a task injects it in the poll that
//! calls the method.

use std::cell::RefCell;
use std::future::Future;
use std::rc::Rc;

use switchfs_proto::message::NetMsg;
use switchfs_proto::{ServerId, SharedPlacement};
use switchfs_server::server::recovery::RecoveryReport;
use switchfs_server::{Server, TornTail};
use switchfs_simnet::{Network, SimHandle};
use switchfs_switch::SwitchFsProgram;

/// A deployment's membership with the handles every fault acts on: the
/// simulation, the network, the metadata servers, the switch program (if
/// one is deployed) and the shared shard map. The cluster keeps one and
/// extends it in [`Cluster::add_server`](crate::Cluster::add_server);
/// [`Cluster::control`](crate::Cluster::control) returns a clone, which a
/// server added afterwards is not in.
#[derive(Clone)]
pub struct Control {
    pub(crate) handle: SimHandle,
    pub(crate) network: Network<NetMsg>,
    pub(crate) servers: Vec<Rc<Server>>,
    pub(crate) switch: Option<Rc<RefCell<SwitchFsProgram>>>,
    pub(crate) placement: SharedPlacement,
}

/// What a decommission drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecommissionReport {
    /// Shards migrated off the victim.
    pub shards_moved: usize,
    /// True when the victim is fully drained (no shards, change-logs
    /// flushed, nothing in flight) and retired in the shared map. False
    /// leaves the cluster in a consistent partially-drained state — re-run
    /// the decommission once the obstruction (a crashed target, a fault
    /// window) clears.
    pub completed: bool,
}

impl Control {
    /// The simulation handle (clock, sleep, spawn).
    pub fn sim(&self) -> &SimHandle {
        &self.handle
    }

    /// The network fabric (partitions, loss windows).
    pub fn network(&self) -> &Network<NetMsg> {
        &self.network
    }

    /// The metadata servers, by index.
    pub fn servers(&self) -> &[Rc<Server>] {
        &self.servers
    }

    /// Crashes metadata server `i`: its volatile state is lost and its
    /// traffic is dropped until [`Control::recover`].
    pub fn crash(&self, i: usize) {
        self.servers[i].crash();
        self.network.set_node_down(self.servers[i].node(), true);
    }

    /// Crashes metadata server `i` with a torn disk write: the WAL's flushed
    /// prefix survives bit-exactly, while each unflushed record is kept,
    /// torn or dropped under `tear_seed`. Returns what the crash did to the
    /// tail (see `switchfs_kvstore::Wal::crash_apply`).
    pub fn crash_torn(&self, i: usize, tear_seed: u64) -> TornTail {
        let tail = self.servers[i].crash_torn(tear_seed);
        self.network.set_node_down(self.servers[i].node(), true);
        tail
    }

    /// Brings server `i`'s node back up, then returns the future that runs
    /// `Server::recover` (WAL replay, invalidation-list cloning) and yields
    /// its report.
    pub fn recover(&self, i: usize) -> impl Future<Output = RecoveryReport> + 'static {
        let server = self.servers[i].clone();
        self.network.set_node_down(server.node(), false);
        async move { server.recover().await }
    }

    /// Reboots the programmable switch, losing all in-network state, then
    /// returns the future that restores consistency (§5.4.2): every server
    /// not crashed re-aggregates the directories it owns (a recovering one
    /// may have aggregated before the reboot); only serving ones pause, so
    /// a recovering one resumes when its own recovery ends. The future
    /// yields whether a switch was rebooted; without one, both steps do
    /// nothing.
    pub fn reboot_switch(&self) -> impl Future<Output = bool> + 'static {
        let servers = self.switch.as_ref().map(|program| {
            program.borrow_mut().reboot();
            self.servers.clone()
        });
        async move {
            let Some(servers) = servers else {
                return false;
            };
            let up = || servers.iter().filter(|s| !s.is_crashed());
            for s in up() {
                s.set_available(false);
            }
            for s in up() {
                s.aggregate_all_owned().await;
            }
            for s in up() {
                s.set_available(true);
            }
            true
        }
    }

    /// Live-migrates shards until ownership is balanced across the
    /// membership: plans the moves from the shared map, then migrates each
    /// shard (freeze → stream → flip) from its owner, skipping moves whose
    /// source or target is down. Client traffic keeps flowing and refreshes
    /// its maps via `WrongOwner`. Yields the number of shards migrated.
    pub fn rebalance(&self) -> impl Future<Output = usize> + 'static {
        let (placement, servers) = (self.placement.clone(), self.servers.clone());
        async move {
            let mut moved = 0;
            // Two passes: a shard whose transfer failed (e.g. the target
            // crashed mid-stream) is retried once after the rest of the plan
            // completed.
            for _pass in 0..2 {
                let plan = placement.map().plan_rebalance();
                if plan.is_empty() {
                    break;
                }
                for (shard, from, to) in plan {
                    let source = &servers[from.0 as usize];
                    if source.is_crashed() || servers[to.0 as usize].is_crashed() {
                        continue;
                    }
                    moved += source.migrate_shards(&[(shard, to)]).await;
                }
            }
            moved
        }
    }

    /// The drain phase of a graceful decommission of server `victim`: plans
    /// the fair-share moves off it, migrates them in one batch per pass (a
    /// single bucketing scan of the victim's stores instead of one per
    /// shard), force-flushes its remaining change-logs to their owners, and
    /// — once nothing recovery-critical remains on it — retires its id in
    /// the shared map with an epoch bump. A completed drain is finished by
    /// [`Control::tombstone`]. A crash mid-drain resolves from the WAL
    /// `MigrationMarker`s on recovery; draining again finishes the job.
    pub fn drain(&self, victim: usize) -> impl Future<Output = DecommissionReport> + 'static {
        let (placement, servers) = (self.placement.clone(), self.servers.clone());
        async move {
            let victim_id = ServerId(victim as u32);
            let source = &servers[victim];
            let mut moved = 0;
            // Two passes, like the rebalance: a shard whose transfer failed
            // (target crashed, loss window ate the retry budget) is retried
            // once after the rest of the plan completed.
            for _pass in 0..2 {
                if source.is_crashed() {
                    break;
                }
                let moves: Vec<(u32, ServerId)> = placement
                    .map()
                    .plan_drain(victim_id)
                    .into_iter()
                    .filter(|(_, _, to)| !servers[to.0 as usize].is_crashed())
                    .map(|(shard, _, to)| (shard, to))
                    .collect();
                if moves.is_empty() {
                    break;
                }
                moved += source.migrate_shards(&moves).await;
            }
            let drained = !source.is_crashed() && placement.map().shards_owned(victim_id) == 0;
            let completed = drained && source.drain_for_shutdown().await;
            if completed {
                placement.map_mut().retire(victim_id);
            }
            DecommissionReport {
                shards_moved: moved,
                completed,
            }
        }
    }

    /// The control-plane tail of a completed [`Control::drain`]: removes
    /// server `i`'s node from the switch's aggregation multicast group and
    /// turns the server into a redirect tombstone that answers stale-routed
    /// client requests with `WrongOwner`.
    pub fn tombstone(&self, i: usize) {
        assert!(
            self.placement.map().is_retired(ServerId(i as u32)),
            "server {i} was not drained and retired"
        );
        if let Some(program) = &self.switch {
            program
                .borrow_mut()
                .remove_server_node(self.servers[i].node().0);
        }
        self.servers[i].decommission();
    }
}
