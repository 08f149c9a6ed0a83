//! Building and controlling a simulated deployment.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use switchfs_client::{LibFs, LibFsConfig};
use switchfs_obs::{MetricsRegistry, Obs, ObsHandle};
use switchfs_proto::message::NetMsg;
use switchfs_proto::{
    ClientId, DirEntry, DirId, FileType, Fingerprint, InodeAttrs, MetaKey, Placement, ServerId,
    SharedPlacement,
};
use switchfs_server::server::recovery::RecoveryReport;
use switchfs_server::{Server, ServerConfig, TornTail, TrackingMode, COORDINATOR_NODE};
use switchfs_simnet::net::LinkParams;
use switchfs_simnet::{NetFaults, Network, NodeId, Sim, SimDuration, SimTime};
use switchfs_switch::{DirtySetConfig, SwitchConfig, SwitchFsProgram, SwitchStats};

use crate::config::ClusterConfig;
use crate::control::{Control, DecommissionReport};
use crate::coordinator::Coordinator;

/// Node-id layout of a deployment: servers where [`ServerId::node`] puts
/// them, clients from node 1000 on.
fn server_node(i: usize) -> NodeId {
    NodeId(ServerId(i as u32).node())
}
fn client_node(i: usize) -> NodeId {
    NodeId(1000 + i as u32)
}

/// A fully built simulated deployment: servers, clients, switch, network.
pub struct Cluster {
    /// The simulation everything runs on.
    pub sim: Sim,
    cfg: ClusterConfig,
    /// The network, the servers, the switch program and the shard map.
    control: Control,
    clients: Vec<Rc<LibFs>>,
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
            NetFaults::reliable(),
            cfg.seed ^ 0xbeef,
        );

        let obs = match cfg.trace_capacity {
            Some(capacity) => Obs::recording(capacity),
            None => Obs::disabled(),
        };
        let placement = SharedPlacement::initial(cfg.system.partition_policy(), cfg.servers);

        // Programmable switch (only SwitchFS with in-network tracking).
        let mut switch = None;
        if cfg.system.uses_switch() && cfg.tracking == TrackingMode::InNetwork {
            let program = Rc::new(RefCell::new(SwitchFsProgram::new(SwitchConfig {
                server_nodes: (0..cfg.servers).map(|i| server_node(i).0).collect(),
                dirty_set: if cfg.force_dirty_overflow {
                    DirtySetConfig {
                        stages: 0,
                        ..Default::default()
                    }
                } else {
                    DirtySetConfig::default()
                },
            })));
            network.install_switch(Box::new(program.clone()));
            switch = Some(program);
        }

        // Dedicated coordinator, if requested; its serving loop keeps it alive.
        if cfg.tracking == TrackingMode::DedicatedServer {
            let ep = network.register(COORDINATOR_NODE);
            Coordinator::new(handle.clone(), ep, 12).start();
        }

        let control = Control {
            handle: handle.clone(),
            network,
            servers: Vec::new(),
            switch,
            placement,
        };
        let mut cluster = Cluster {
            sim,
            cfg,
            control,
            clients: Vec::new(),
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
            let endpoint = cluster.control.network.register(client_node(i));
            let mut lib_cfg = LibFsConfig::new(ClientId(i as u32));
            lib_cfg.request_timeout = cluster.cfg.client_request_timeout();
            // Directory reads carry a dirty-set query only where a switch
            // answers it.
            lib_cfg.dirty_query_in_packet = cluster.control.switch.is_some();
            let client = LibFs::new(
                handle.clone(),
                endpoint,
                cluster.control.placement.map().clone(),
                lib_cfg,
                cluster.obs.clone(),
            );
            client.start();
            cluster.clients.push(client);
        }
        cluster.preload_root();
        cluster
    }

    /// Builds metadata server `i` on its node and adds it to the
    /// deployment; the caller starts it.
    fn build_server(&mut self, i: usize) -> Rc<Server> {
        let control = &mut self.control;
        let server = Server::new(
            self.sim.handle(),
            control.network.register(server_node(i)),
            ServerConfig {
                id: ServerId(i as u32),
                cores: self.cfg.cores_per_server,
                costs: self.cfg.cost_model(),
                update_mode: self.cfg.update_mode(),
                tracking: self.cfg.tracking,
                placement: control.placement.clone(),
                obs: self.obs.clone(),
            },
        );
        control.servers.push(server.clone());
        server
    }

    /// The configuration the deployment was built from.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// The metadata servers.
    pub fn servers(&self) -> &[Rc<Server>] {
        &self.control.servers
    }

    /// Client `i`.
    pub fn client(&self, i: usize) -> Rc<LibFs> {
        self.clients[i % self.clients.len()].clone()
    }

    /// All clients.
    pub fn clients(&self) -> &[Rc<LibFs>] {
        &self.clients
    }

    /// The simulated network fabric (cheap clone of the shared handle); the
    /// chaos nemesis uses it to partition links and tune loss/duplication.
    pub fn network(&self) -> Network<NetMsg> {
        self.control.network.clone()
    }

    /// The cluster's epoch-versioned shard map, shared with every server;
    /// lets tests and the chaos harness reason about which server owns a
    /// key (clients hold private snapshots refreshed via `WrongOwner`).
    pub fn placement(&self) -> SharedPlacement {
        self.control.placement.clone()
    }

    /// Counters of the programmable switch, if one is deployed.
    pub fn switch_stats(&self) -> Option<SwitchStats> {
        self.control.switch.as_ref().map(|s| s.borrow().stats())
    }

    /// The programmable switch program itself, if one is deployed (tests
    /// wrap it to intercept the packets it sees).
    pub fn switch_program(&self) -> Option<Rc<RefCell<SwitchFsProgram>>> {
        self.control.switch.clone()
    }

    /// Number of fingerprints currently tracked by the switch.
    pub fn switch_occupancy(&self) -> Option<usize> {
        self.control.switch.as_ref().map(|s| s.borrow().occupancy())
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
        let servers = self.control.servers.clone();
        self.sim.spawn(async move {
            let value = fut.await;
            *out2.borrow_mut() = Some(value);
            for s in &servers {
                s.stop_background();
            }
        });
        self.sim.run();
        for s in self.servers() {
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
        let placement = &self.control.placement;
        let by_fp = placement.dir_owner_by_fp(fp);
        let by_id = placement.dir_owner_by_id(&DirId::ROOT);
        for owner in [by_fp, by_id] {
            self.servers()[owner.0 as usize].preload_dir(root_key.clone(), DirId::ROOT, 0);
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
        let placement = &self.control.placement;
        let roles =
            placement.inode_role_hashes(&key, &InodeAttrs::new_dir(id, 0, Default::default()));
        let mut owners: Vec<ServerId> = roles.iter().map(|h| placement.owner_of_hash(*h)).collect();
        owners.dedup();
        for owner in owners {
            self.servers()[owner.0 as usize].preload_dir(key.clone(), id, 0);
        }
        self.preloaded_dirs.insert(path.to_string(), (key, id));
        id
    }

    /// Installs `count` files named `{prefix}0..{prefix}{count-1}` in an
    /// already preloaded directory and in the directory's entry list. Each
    /// file's owner gets its files as one batch, in file order (so each
    /// draws the ids it would one file at a time), and the content owner
    /// gets every entry at once.
    pub fn preload_files(&mut self, dir_path: &str, prefix: &str, count: usize) {
        let (dir_key, dir_id) = self
            .preloaded_dirs
            .get(dir_path)
            .cloned()
            .unwrap_or_else(|| panic!("directory {dir_path} was not preloaded"));
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let (placement, servers) = (&self.control.placement, &self.control.servers);
        let mut batches = vec![Vec::new(); servers.len()];
        let mut entries = Vec::with_capacity(count);
        for i in 0..count {
            let key = MetaKey::new(dir_id, format!("{prefix}{i}"));
            let owner = placement.file_owner(&key);
            entries.push(DirEntry {
                name: key.name.clone(),
                file_type: FileType::File,
                mode: 0o644,
            });
            batches[owner.0 as usize].push(key.name);
        }
        for (server, names) in servers.iter().zip(batches) {
            server.preload_files(dir_id, names, 0);
        }
        let content_owner = placement.dir_content_owner(fp, &dir_id);
        servers[content_owner.0 as usize].preload_entries(dir_id, entries);
    }

    /// Checkpoints every server's volatile state into its durable bundle.
    /// Call after preloading a namespace that must survive injected crashes:
    /// preloads bypass the protocol (and therefore the WAL), so without a
    /// checkpoint a recovery rebuilds a world without them.
    pub fn checkpoint_all(&self) {
        for s in self.servers() {
            s.checkpoint();
        }
    }

    // ------------------------------------------------------------------
    // Elastic membership: server addition and live shard rebalancing.
    // ------------------------------------------------------------------

    /// Registers one more metadata server: a new node joins the network,
    /// the shared shard map's membership and the switch's multicast group,
    /// and starts serving — but owns no shards until [`Cluster::rebalance`]
    /// migrates a fair share to it. Returns the new server's index.
    pub fn add_server(&mut self) -> usize {
        let i = self.servers().len();
        let new_id = self.control.placement.map_mut().add_server();
        debug_assert_eq!(new_id, ServerId(i as u32));
        if let Some(program) = &self.control.switch {
            program.borrow_mut().add_server_node(server_node(i).0);
        }
        let server = self.build_server(i);
        // Setup-time state seeding (like preloading): the newcomer needs the
        // cluster's invalidation list before it serves stale-cache checks.
        server.seed_invalidation_from(&self.servers()[0]);
        server.start();
        i
    }

    /// Live-migrates shards until ownership is balanced across the current
    /// membership (after [`Cluster::add_server`], ~1/N of all shards move to
    /// the newcomer); see [`Control::rebalance`]. Returns the number of
    /// shards migrated.
    pub fn rebalance(&self) -> usize {
        self.block_on(self.control().rebalance())
    }

    /// Gracefully decommissions metadata server `idx`: its shards drain to
    /// the survivors ([`Control::drain`]) while the cluster keeps serving,
    /// and a completed drain leaves it a redirect tombstone
    /// ([`Control::tombstone`]). A crash mid-decommission resolves from the
    /// WAL `MigrationMarker`s on recovery; re-run `remove_server` afterwards
    /// to finish the drain.
    pub fn remove_server(&mut self, idx: usize) -> DecommissionReport {
        let report = self.block_on(self.control().drain(idx));
        if report.completed {
            self.control().tombstone(idx);
        }
        report
    }

    // ------------------------------------------------------------------
    // Fault orchestration (§5.4, §7.7).
    // ------------------------------------------------------------------

    /// The deployment's control handle over its current membership: every
    /// fault and membership change, usable from inside a simulated task.
    pub fn control(&self) -> Control {
        self.control.clone()
    }

    /// Crashes metadata server `i` ([`Control::crash`]).
    pub fn crash_server(&self, i: usize) {
        self.control().crash(i);
    }

    /// Crashes metadata server `i` with a torn disk write
    /// ([`Control::crash_torn`]).
    pub fn crash_server_torn(&self, i: usize, tear_seed: u64) -> TornTail {
        self.control().crash_torn(i, tear_seed)
    }

    /// Recovers metadata server `i` and returns the recovery report
    /// ([`Control::recover`]).
    pub fn recover_server(&self, i: usize) -> RecoveryReport {
        self.block_on(self.control().recover(i))
    }

    /// Reboots the programmable switch and waits until every live server
    /// has re-aggregated its directories ([`Control::reboot_switch`]).
    /// Returns the virtual time the recovery took.
    pub fn crash_and_recover_switch(&self) -> SimDuration {
        let recovered = self.control().reboot_switch();
        let start = self.sim.now();
        self.block_on(recovered);
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
        for server in self.servers() {
            kv += server.kv_stats();
            let d = server.durable().borrow();
            wal_appends += d.wal.appends();
            wal_bytes += d.wal.bytes();
            wal_flushed_bytes += d.wal.flushed_bytes();
        }
        add("kv", kv.rows());
        if let Some(sw) = self.switch_stats() {
            add("switch", sw.rows());
        }
        add("net", self.control.network.stats().rows());

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
        for s in self.servers() {
            total += s.stats();
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemKind;
    use switchfs_proto::Placement;

    /// Every server's stores, in their order, and counters.
    fn stores(cluster: &Cluster) -> Vec<impl PartialEq + std::fmt::Debug> {
        let state = |s: &Rc<Server>| (s.snapshot().image, s.kv_stats());
        cluster.servers().iter().map(state).collect()
    }

    fn cluster_with(dir: &str) -> Cluster {
        let mut cluster = Cluster::new(ClusterConfig::paper_default(SystemKind::SwitchFs));
        cluster.preload_dir(dir);
        cluster
    }

    #[test]
    fn a_zero_file_preload_changes_no_store_and_counts_nothing() {
        let mut cluster = cluster_with("/d");
        let before = stores(&cluster);
        cluster.preload_files("/d", "f", 0);
        assert_eq!(stores(&cluster), before);
    }

    #[test]
    fn a_bulk_preload_equals_installing_one_file_at_a_time() {
        const FILES: usize = 300;
        let mut bulk = cluster_with("/d");
        bulk.preload_files("/d", "f", FILES);
        // One file at a time, on the same servers the bulk path picks.
        let single = cluster_with("/d");
        let (dir_key, dir) = single.preloaded_dirs["/d"].clone();
        let placement = single.placement();
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let content_owner = &single.servers()[placement.dir_content_owner(fp, &dir).0 as usize];
        for i in 0..FILES {
            let key = MetaKey::new(dir, format!("f{i}"));
            let owner = &single.servers()[placement.file_owner(&key).0 as usize];
            owner.preload_files(dir, [key.name.clone()], 0);
            let entry = DirEntry {
                name: key.name.clone(),
                file_type: FileType::File,
                mode: 0o644,
            };
            content_owner.preload_entries(dir, vec![entry]);
        }
        assert_eq!(stores(&bulk), stores(&single));
        let inodes: usize = bulk.servers().iter().map(|s| s.tables().inodes).sum();
        assert!(inodes > FILES, "the files and the preloaded directories");
    }

    #[test]
    fn a_dropped_cluster_frees_its_servers_and_clients() {
        let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
        cfg.servers = 4;
        cfg.clients = 1;
        let mut cluster = Cluster::new(cfg);
        cluster.preload_dir("/d");
        let client = cluster.client(0);
        cluster.block_on(async move {
            for i in 0..8 {
                client.create(&format!("/d/f{i}")).await.expect("create");
            }
        });
        // The tasks left when the run stops hold the servers and the client:
        // receive loops parked on their mailboxes, and the background loops
        // `block_on` restarted, not yet polled.
        let server = Rc::downgrade(&cluster.servers()[0]);
        let client = Rc::downgrade(&cluster.client(0));
        drop(cluster);
        assert!(server.upgrade().is_none(), "a server outlived its cluster");
        assert!(client.upgrade().is_none(), "a client outlived its cluster");
    }
}
