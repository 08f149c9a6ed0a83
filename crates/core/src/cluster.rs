//! Building and controlling a simulated deployment.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use switchfs_client::{LibFs, LibFsConfig, Router};
use switchfs_obs::{MetricsRegistry, Obs, ObsHandle};
use switchfs_proto::message::NetMsg;
use switchfs_proto::{
    ClientId, DirEntry, DirId, FileType, Fingerprint, InodeAttrs, MetaKey, Placement, ServerId,
    SharedPlacement,
};
use switchfs_server::server::recovery::RecoveryReport;
use switchfs_server::{DurableState, Server, ServerConfig, COORDINATOR_NODE};
use switchfs_simnet::net::LinkParams;
use switchfs_simnet::{Network, NodeId, Sim, SimDuration, SimTime};
use switchfs_switch::{DirtySetConfig, SwitchConfig, SwitchFsProgram, SwitchStats};

use crate::config::{ClusterConfig, TrackingChoice};
use crate::coordinator::Coordinator;
use crate::switch_adapter::SwitchAdapter;

/// Node-id layout of a deployment.
pub(crate) fn server_node(i: usize) -> NodeId {
    NodeId(i as u32)
}
pub(crate) fn client_node(i: usize) -> NodeId {
    NodeId(1000 + i as u32)
}

/// A fully built simulated deployment: servers, clients, switch, network.
pub struct Cluster {
    /// The simulation everything runs on.
    pub sim: Sim,
    cfg: ClusterConfig,
    network: Network<NetMsg>,
    servers: Vec<Server>,
    durables: Vec<Rc<RefCell<DurableState>>>,
    clients: Vec<Rc<LibFs>>,
    switch: Option<Rc<RefCell<SwitchFsProgram>>>,
    placement: SharedPlacement,
    server_nodes: Rc<RefCell<Vec<NodeId>>>,
    /// Shared observability sink: one flight recorder covering every server
    /// and client of the deployment.
    obs: ObsHandle,
    /// Directories installed by preloading: path → (key, id).
    pub preloaded_dirs: BTreeMap<String, (MetaKey, DirId)>,
    preload_counter: u64,
}

impl Cluster {
    /// Builds a deployment from a configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let sim = Sim::new(cfg.seed);
        let handle = sim.handle();
        let network: Network<NetMsg> = Network::new(
            handle.clone(),
            LinkParams::default(),
            cfg.net_faults,
            cfg.seed ^ 0xbeef,
        );

        let obs = match cfg.trace_capacity {
            Some(capacity) => Obs::recording(capacity),
            None => Obs::disabled(),
        };
        let placement = SharedPlacement::initial(cfg.system.partition_policy(), cfg.servers);
        let server_nodes: Rc<RefCell<Vec<NodeId>>> =
            Rc::new(RefCell::new((0..cfg.servers).map(server_node).collect()));

        // Programmable switch (only SwitchFS with in-network tracking).
        let mut switch = None;
        if cfg.system.uses_switch() && cfg.tracking == TrackingChoice::InNetwork {
            let program = Rc::new(RefCell::new(SwitchFsProgram::new(SwitchConfig {
                server_nodes: (0..cfg.servers).map(|i| server_node(i).0).collect(),
                dirty_set: DirtySetConfig::default(),
                pipes: 2,
                force_insert_overflow: cfg.force_dirty_overflow,
            })));
            network.install_switch(Box::new(SwitchAdapter::new(program.clone())));
            switch = Some(program);
        }

        // Dedicated coordinator, if requested; its serving loop keeps it alive.
        if cfg.tracking == TrackingChoice::DedicatedServer {
            let ep = network.register(COORDINATOR_NODE);
            Rc::new(Coordinator::new(handle.clone(), ep, 12)).start();
        }

        let mut cluster = Cluster {
            sim,
            cfg,
            network,
            servers: Vec::new(),
            durables: Vec::new(),
            clients: Vec::new(),
            switch,
            placement,
            server_nodes,
            obs,
            preloaded_dirs: BTreeMap::new(),
            preload_counter: 0,
        };

        // Metadata servers.
        for i in 0..cluster.cfg.servers {
            cluster.build_server(i).start();
        }

        // Clients. Each gets a *private* shard-map snapshot: after a live
        // migration flips shards in the shared map, a client keeps routing
        // with its stale copy until a `WrongOwner` rejection refreshes it.
        for i in 0..cluster.cfg.clients {
            // Directory reads carry a dirty-set query only where a switch
            // answers it.
            let router = Router::new(cluster.placement.snapshot(), cluster.switch.is_some());
            let endpoint = cluster.network.register(client_node(i));
            let mut lib_cfg = LibFsConfig::new(ClientId(i as u32));
            lib_cfg.request_timeout = cluster.cfg.client_request_timeout();
            let client = LibFs::new(
                handle.clone(),
                endpoint,
                router,
                cluster.server_nodes.clone(),
                lib_cfg,
                cluster.obs.clone(),
            );
            client.start();
            cluster.clients.push(client);
        }
        cluster.preload_root();
        cluster
    }

    /// Builds metadata server `i` on its node, with an empty durable state,
    /// and adds it to the deployment; the caller starts it.
    fn build_server(&mut self, i: usize) -> Server {
        let durable = Rc::new(RefCell::new(DurableState::new()));
        let server = Server::new(
            self.sim.handle(),
            self.network.register(server_node(i)),
            ServerConfig {
                id: ServerId(i as u32),
                node: server_node(i),
                cores: self.cfg.cores_per_server,
                costs: self.cfg.cost_model(),
                update_mode: self.cfg.update_mode(),
                tracking: self.cfg.tracking,
                placement: self.placement.clone(),
                server_nodes: self.server_nodes.clone(),
                obs: self.obs.clone(),
            },
            durable.clone(),
        );
        self.servers.push(server.clone());
        self.durables.push(durable);
        server
    }

    /// The configuration the deployment was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The metadata servers.
    pub fn servers(&self) -> &[Server] {
        &self.servers
    }

    /// Client `i`.
    pub fn client(&self, i: usize) -> Rc<LibFs> {
        self.clients[i % self.clients.len()].clone()
    }

    /// All clients.
    pub fn clients(&self) -> &[Rc<LibFs>] {
        &self.clients
    }

    /// The crash-surviving durable state (WAL + checkpoint) of server `i`.
    pub fn durable_state(&self, i: usize) -> Rc<RefCell<DurableState>> {
        self.durables[i].clone()
    }

    /// The simulated network fabric (cheap clone of the shared handle); the
    /// chaos nemesis uses it to partition links and tune loss/duplication.
    pub fn network(&self) -> Network<NetMsg> {
        self.network.clone()
    }

    /// The cluster's epoch-versioned shard map, shared with every server;
    /// lets tests and the chaos harness reason about which server owns a
    /// key (clients hold private snapshots refreshed via `WrongOwner`).
    pub fn placement(&self) -> SharedPlacement {
        self.placement.clone()
    }

    /// The network node hosting metadata server `i`.
    pub fn server_node_id(&self, i: usize) -> NodeId {
        server_node(i)
    }

    /// Counters of the programmable switch, if one is deployed.
    pub fn switch_stats(&self) -> Option<SwitchStats> {
        self.switch.as_ref().map(|s| s.borrow().stats())
    }

    /// The programmable switch program itself, if one is deployed (the chaos
    /// nemesis reboots it from inside the simulation).
    pub fn switch_program(&self) -> Option<Rc<RefCell<SwitchFsProgram>>> {
        self.switch.clone()
    }

    /// Number of fingerprints currently tracked by the switch.
    pub fn switch_occupancy(&self) -> Option<usize> {
        self.switch.as_ref().map(|s| s.borrow().occupancy())
    }

    // ------------------------------------------------------------------
    // Running work on the simulation.
    // ------------------------------------------------------------------

    /// Runs an async closure against the deployment and returns its value.
    ///
    /// Background loops are stopped once the closure finishes so that the
    /// simulation quiesces, then restarted so a later `block_on` still has
    /// proactive aggregation available.
    pub fn block_on<T: 'static, F>(&self, fut: F) -> T
    where
        F: std::future::Future<Output = T> + 'static,
    {
        let out: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let out2 = out.clone();
        let servers = self.servers.clone();
        self.sim.spawn(async move {
            let value = fut.await;
            *out2.borrow_mut() = Some(value);
            for s in &servers {
                s.stop_background();
            }
        });
        self.sim.run();
        for s in &self.servers {
            s.restart_background();
        }
        let value = out.borrow_mut().take();
        value.expect("block_on future did not complete; the simulation deadlocked")
    }

    /// Runs the simulation until `deadline` without injecting new work.
    pub fn run_until(&self, deadline: SimTime) {
        self.sim.run_until(deadline);
    }

    /// Lets the deployment settle for `dur` of virtual time (e.g. to let
    /// proactive aggregation drain change-logs).
    pub fn settle(&self, dur: SimDuration) {
        let deadline = self.sim.now() + dur;
        self.sim.run_until(deadline);
    }

    // ------------------------------------------------------------------
    // Namespace preloading (experiment setup).
    // ------------------------------------------------------------------

    fn preload_root(&mut self) {
        let root_key = MetaKey::new(DirId::ROOT, "");
        let fp = Fingerprint::of_dir(&root_key.pid, &root_key.name);
        let by_fp = self.placement.dir_owner_by_fp(fp);
        let by_id = self.placement.dir_owner_by_id(&DirId::ROOT);
        for owner in [by_fp, by_id] {
            self.servers[owner.0 as usize].preload_dir(root_key.clone(), DirId::ROOT, 0);
        }
        self.preloaded_dirs
            .insert("/".to_string(), (root_key, DirId::ROOT));
    }

    /// Installs a directory directly (without running the protocol), placing
    /// its replicas according to the deployment's partitioning policy.
    /// Returns the directory's id.
    pub fn preload_dir(&mut self, path: &str) -> DirId {
        if let Some((_, id)) = self.preloaded_dirs.get(path) {
            return *id;
        }
        let comps: Vec<&str> = path.split('/').filter(|c| !c.is_empty()).collect();
        assert!(!comps.is_empty(), "cannot preload the root directory");
        let parent_path = if comps.len() == 1 {
            "/".to_string()
        } else {
            format!("/{}", comps[..comps.len() - 1].join("/"))
        };
        let parent_id = match self.preloaded_dirs.get(&parent_path) {
            Some((_, id)) => *id,
            None => self.preload_dir(&parent_path),
        };
        let name = comps[comps.len() - 1];
        let key = MetaKey::new(parent_id, name);
        self.preload_counter += 1;
        let id = DirId::generate(ServerId(u32::MAX), self.preload_counter);
        // One replica per role the policy stores a directory inode under (at
        // most two, so `dedup` leaves each server once).
        let roles = self
            .placement
            .inode_role_hashes(&key, &InodeAttrs::new_dir(id, 0, Default::default()));
        let mut owners: Vec<ServerId> = roles
            .iter()
            .map(|h| self.placement.owner_of_hash(*h))
            .collect();
        owners.dedup();
        for owner in owners {
            self.servers[owner.0 as usize].preload_dir(key.clone(), id, 0);
        }
        self.preloaded_dirs.insert(path.to_string(), (key, id));
        id
    }

    /// Installs `count` files named `f0..f{count-1}` in an already preloaded
    /// directory and in the directory's entry list.
    pub fn preload_files(&mut self, dir_path: &str, prefix: &str, count: usize) {
        let (dir_key, dir_id) = self
            .preloaded_dirs
            .get(dir_path)
            .cloned()
            .unwrap_or_else(|| panic!("directory {dir_path} was not preloaded"));
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let content_owner = self.placement.dir_content_owner(fp, &dir_id);
        for i in 0..count {
            let key = MetaKey::new(dir_id, format!("{prefix}{i}"));
            let owner = self.placement.file_owner(&key);
            self.servers[owner.0 as usize].preload_file(key.clone(), 0);
            self.servers[content_owner.0 as usize].preload_entry(
                dir_id,
                DirEntry {
                    name: key.name.clone(),
                    file_type: FileType::File,
                    mode: 0o644,
                },
            );
        }
    }

    /// Checkpoints every server's volatile state into its durable bundle.
    /// Call after preloading a namespace that must survive injected crashes:
    /// preloads bypass the protocol (and therefore the WAL), so without a
    /// checkpoint a recovery rebuilds a world without them.
    pub fn checkpoint_all(&self) {
        for s in &self.servers {
            s.checkpoint();
        }
    }

    // ------------------------------------------------------------------
    // Elastic membership: server addition and live shard rebalancing.
    // ------------------------------------------------------------------

    /// Registers one more metadata server: a new node joins the network,
    /// the shared membership list and the switch's multicast group, and
    /// starts serving — but owns no shards until [`Cluster::rebalance`]
    /// migrates a fair share to it. Returns the new server's index.
    pub fn add_server(&mut self) -> usize {
        let i = self.servers.len();
        let node = server_node(i);
        let new_id = self.placement.add_server();
        debug_assert_eq!(new_id, ServerId(i as u32));
        self.server_nodes.borrow_mut().push(node);
        if let Some(program) = &self.switch {
            program.borrow_mut().add_server_node(node.0);
        }
        let server = self.build_server(i);
        // Setup-time state seeding (like preloading): the newcomer needs the
        // cluster's invalidation list before it serves stale-cache checks.
        server.seed_invalidation_from(&self.servers[0]);
        server.start();
        i
    }

    /// Live-migrates shards until ownership is balanced across the current
    /// membership (after [`Cluster::add_server`], ~1/N of all shards move to
    /// the newcomer). Runs on the simulation; client traffic keeps flowing
    /// and refreshes its maps via `WrongOwner`. Returns the number of shards
    /// migrated.
    pub fn rebalance(&self) -> usize {
        let placement = self.placement.clone();
        let servers = self.servers.clone();
        self.block_on(async move { run_rebalance(&placement, &servers).await })
    }

    /// Gracefully decommissions metadata server `idx`: every shard it owns
    /// migrates to the survivors (fair share, one bucketing scan over the
    /// victim's stores), its remaining change-logs flush to their owners,
    /// the shared map retires the id with an epoch bump, the switch drops
    /// the node from the aggregation multicast group, and the server turns
    /// into a redirect tombstone answering stale-routed client requests
    /// with `WrongOwner` — the cluster keeps serving throughout. A crash
    /// mid-decommission resolves from the WAL `MigrationMarker`s on
    /// recovery; re-run `remove_server` afterwards to finish the drain.
    pub fn remove_server(&mut self, idx: usize) -> DecommissionReport {
        assert!(idx < self.servers.len(), "no server {idx}");
        let placement = self.placement.clone();
        let servers = self.servers.clone();
        let report =
            self.block_on(async move { run_decommission(&placement, &servers, idx).await });
        if report.completed {
            self.finalize_decommission(idx);
        }
        report
    }

    /// The control-plane tail of a decommission whose drain already ran
    /// (e.g. concurrently with a workload via [`run_decommission`]): removes
    /// the node from the switch multicast group and turns the server into
    /// the redirect tombstone.
    pub fn finalize_decommission(&self, idx: usize) {
        assert!(
            self.placement.is_retired(ServerId(idx as u32)),
            "server {idx} was not drained and retired"
        );
        if let Some(program) = &self.switch {
            program.borrow_mut().remove_server_node(server_node(idx).0);
        }
        self.servers[idx].decommission();
    }

    // ------------------------------------------------------------------
    // Fault orchestration (§5.4, §7.7).
    // ------------------------------------------------------------------

    /// Crashes metadata server `i`: its volatile state is lost and its
    /// traffic is dropped until recovery.
    pub fn crash_server(&self, i: usize) {
        self.servers[i].crash();
        self.network.set_node_down(server_node(i), true);
    }

    /// Crashes metadata server `i` with a torn disk write: the WAL's flushed
    /// prefix survives bit-exactly, while each unflushed record is kept,
    /// torn or dropped under `tear_seed`. Returns what the crash did to the
    /// tail (see `switchfs_kvstore::Wal::crash_apply`).
    pub fn crash_server_torn(&self, i: usize, tear_seed: u64) -> switchfs_kvstore::TornTail {
        let tail = self.servers[i].crash_torn(tear_seed);
        self.network.set_node_down(server_node(i), true);
        tail
    }

    /// Recovers metadata server `i` and returns the recovery report.
    pub fn recover_server(&self, i: usize) -> RecoveryReport {
        let server = self.mark_server_up(i);
        self.block_on(async move { server.recover().await })
    }

    /// Brings server `i`'s network node back up and returns the server so an
    /// already-running async task (the chaos nemesis) can drive
    /// `Server::recover` itself instead of re-entering the simulation via
    /// [`Cluster::block_on`].
    pub fn mark_server_up(&self, i: usize) -> Server {
        self.network.set_node_down(server_node(i), false);
        self.servers[i].clone()
    }

    /// Clears all in-network state (a switch reboot) without running the
    /// recovery protocol; the caller is responsible for re-aggregating every
    /// owned directory (see [`Cluster::crash_and_recover_switch`] for the
    /// blocking variant).
    pub fn reboot_switch(&self) {
        if let Some(s) = &self.switch {
            s.borrow_mut().reboot();
        }
    }

    /// Reboots the programmable switch: all in-network state is lost, every
    /// server aggregates the directories it owns, and the deployment returns
    /// to a consistent state (§5.4.2). Returns the virtual time the recovery
    /// took.
    pub fn crash_and_recover_switch(&self) -> SimDuration {
        self.reboot_switch();
        let servers = self.servers.clone();
        let start = self.sim.now();
        self.block_on(async move {
            for s in &servers {
                s.set_unavailable();
            }
            for s in &servers {
                s.aggregate_all_owned().await;
            }
            for s in &servers {
                s.set_available(true);
            }
        });
        self.sim.now().duration_since(start)
    }

    /// The deployment's shared observability handle (flight recorder +
    /// enable switch). Disabled unless `trace_capacity` was configured.
    pub fn obs(&self) -> ObsHandle {
        self.obs.clone()
    }

    /// Registers every subsystem's counters into one typed metrics registry
    /// with stable (sorted) names: server protocol counters, client-side
    /// counters, KV-store and WAL accounting, switch counters and network
    /// fabric counters. Purely a read-side bridge — building a snapshot
    /// mutates nothing.
    pub fn metrics_snapshot(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        // One row per field of a counter struct, `<prefix>.<field name>`.
        let mut add = |prefix: &str, rows: Vec<(&'static str, u64)>| {
            for (name, value) in rows {
                reg.counter(&format!("{prefix}.{name}"), value);
            }
        };
        add("server", self.total_server_stats().rows());

        let mut client = switchfs_client::ClientStats::default();
        for c in &self.clients {
            client += c.stats();
        }
        add("client", client.rows());

        let mut kv = switchfs_kvstore::KvStats::default();
        let (mut wal_appends, mut wal_bytes, mut wal_flushed_bytes) = (0u64, 0u64, 0u64);
        for (server, durable) in self.servers.iter().zip(&self.durables) {
            kv += server.kv_stats();
            let d = durable.borrow();
            wal_appends += d.wal.appends();
            wal_bytes += d.wal.bytes();
            wal_flushed_bytes += d.wal.flushed_bytes();
        }
        add("kv", kv.rows());
        if let Some(sw) = self.switch_stats() {
            add("switch", sw.rows());
        }
        add("net", self.network.stats().rows());

        reg.counter("wal.appends", wal_appends)
            .counter("wal.bytes_appended", wal_bytes)
            .counter("wal.bytes_flushed", wal_flushed_bytes);
        reg.counter("obs.events_recorded", self.obs.recorder().len() as u64)
            .counter("obs.events_evicted", self.obs.recorder().evicted());
        reg
    }

    /// Aggregate counters across all servers.
    pub fn total_server_stats(&self) -> switchfs_server::ServerStats {
        let mut total = switchfs_server::ServerStats::default();
        for s in &self.servers {
            total += s.stats();
        }
        total
    }
}

/// Drives a full rebalance against a live deployment: plans the moves from
/// the shared map, then migrates each shard (freeze → stream → flip) from
/// its owner, skipping servers that are currently down. Usable both from
/// [`Cluster::rebalance`] and from inside an already-running simulation
/// (the chaos nemesis' membership-change fault). Returns the number of
/// shards successfully migrated.
pub async fn run_rebalance(placement: &SharedPlacement, servers: &[Server]) -> usize {
    let mut moved = 0;
    // Two passes: a shard whose transfer failed (e.g. the target crashed
    // mid-stream) is retried once after the rest of the plan completed.
    for _pass in 0..2 {
        let plan = placement.plan_rebalance();
        if plan.is_empty() {
            break;
        }
        for (shard, from, to) in plan {
            let source = &servers[from.0 as usize];
            if source.is_crashed() || servers[to.0 as usize].is_crashed() {
                continue;
            }
            moved += source
                .migrate_shards(&[(shard, to)], |shard, to| placement.assign(shard, to))
                .await;
        }
    }
    moved
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

/// Drives the drain phase of a graceful decommission against a live
/// deployment: plans the fair-share moves off `victim`, migrates them in one
/// batch per pass (a single bucketing scan of the victim's stores instead of
/// one per shard), force-flushes the victim's remaining change-logs to their
/// owners, and — once nothing recovery-critical remains on the victim —
/// retires its id in the shared map with an epoch bump. Usable both from
/// [`Cluster::remove_server`] and from inside an already-running simulation
/// (the chaos nemesis' decommission fault, the bench decommission figure).
pub async fn run_decommission(
    placement: &SharedPlacement,
    servers: &[Server],
    victim: usize,
) -> DecommissionReport {
    let victim_id = ServerId(victim as u32);
    let source = &servers[victim];
    let mut moved = 0;
    // Two passes, like the rebalance: a shard whose transfer failed (target
    // crashed, loss window ate the retry budget) is retried once after the
    // rest of the plan completed.
    for _pass in 0..2 {
        if source.is_crashed() {
            break;
        }
        let moves: Vec<(u32, ServerId)> = placement
            .plan_drain(victim_id)
            .into_iter()
            .filter(|(_, _, to)| !servers[to.0 as usize].is_crashed())
            .map(|(shard, _, to)| (shard, to))
            .collect();
        if moves.is_empty() {
            break;
        }
        let p = placement.clone();
        moved += source
            .migrate_shards(&moves, |shard, to| p.assign(shard, to))
            .await;
    }
    let drained = !source.is_crashed() && placement.shards_owned(victim_id) == 0;
    let completed = drained && source.drain_for_shutdown().await;
    if completed {
        placement.retire(victim_id);
    }
    DecommissionReport {
        shards_moved: moved,
        completed,
    }
}
