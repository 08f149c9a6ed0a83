//! The LibFS client: path resolution, request execution, retries.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use switchfs_obs::{EventKind, ObsHandle, TraceEvent};
use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, MetaOp, NetMsg, PacketSeq, ParentRef, ServerMsg,
};
use switchfs_proto::{
    ClientId, DirEntry, DirId, DirtySetHeader, Fingerprint, FsError, FsResult, InodeAttrs, MetaKey,
    OpId, OpResult, Permissions, Placement, Retry, ServerId, ShardMap, TraceId,
};
use switchfs_simnet::sync::oneshot;
use switchfs_simnet::{timeout, Endpoint, FxHashMap, NodeId, SimDuration, SimHandle};

use crate::cache::{path_components, CachedDir, MetaCache};

/// Whole-operation retries on retryable errors (stale cache, unavailable
/// server).
const MAX_OP_RETRIES: u32 = 16;

/// Client configuration.
#[derive(Debug, Clone, Copy)]
pub struct LibFsConfig {
    /// This client's identity.
    pub id: ClientId,
    /// Retransmission timeout for a single request: the unit of
    /// [`Retry::REQUEST`].
    pub request_timeout: SimDuration,
    /// Whether directory reads carry a dirty-set query header (true for
    /// SwitchFS under in-network tracking; false when a dedicated coordinator
    /// or the owner server tracks dirty state, and for every baseline).
    pub dirty_query_in_packet: bool,
}

impl LibFsConfig {
    /// A sensible default configuration for client `id`: no switch answers
    /// a dirty-set query.
    pub fn new(id: ClientId) -> Self {
        LibFsConfig {
            id,
            request_timeout: SimDuration::micros(400),
            dirty_query_in_packet: false,
        }
    }
}

switchfs_simnet::counters! {
    /// Client-side counters.
    pub struct ClientStats {
        /// Operations attempted.
        pub ops_issued: u64,
        /// Operations that ultimately succeeded.
        pub ops_ok: u64,
        /// Operations that ultimately failed.
        pub ops_err: u64,
        /// Request retransmissions.
        pub retransmissions: u64,
        /// Whole-operation retries caused by stale caches.
        pub stale_retries: u64,
        /// Lookup RPCs issued during path resolution.
        pub lookups: u64,
        /// Shard-map refreshes triggered by `WrongOwner` rejections (live
        /// migration moved a shard this client had cached).
        pub map_refreshes: u64,
    }
}

/// Result of path resolution.
#[derive(Debug, Clone)]
struct Resolution {
    key: MetaKey,
    parent: Option<ParentRef>,
    ancestors: Vec<DirId>,
    parent_path: String,
}

/// The SwitchFS client library.
pub struct LibFs {
    handle: SimHandle,
    endpoint: Rc<Endpoint<NetMsg>>,
    /// The client's private copy of the shard map it routes with (see
    /// [`Placement::route`]), refreshed from `WrongOwner` rejections. Its
    /// policy is the only client-side difference between the systems.
    map: RefCell<ShardMap>,
    server_nodes: Rc<RefCell<Vec<NodeId>>>,
    cfg: LibFsConfig,
    cache: RefCell<MetaCache>,
    pending: Rc<RefCell<FxHashMap<u64, oneshot::Sender<ClientResponse>>>>,
    next_seq: Cell<u64>,
    /// Packet-sequence counter, distinct from the operation counter: every
    /// transmitted copy (including retransmissions) gets a unique value, so
    /// receivers can tell a *network-duplicated* packet (same sequence)
    /// from a deliberate retransmission (fresh sequence) — §5.4.1.
    next_pkt: Cell<u64>,
    /// Sequence numbers of operations still inside their retransmission
    /// loop. Everything below the minimum can never be retransmitted again;
    /// that bound is piggybacked on each request as the `acked_below`
    /// watermark so servers can prune their dedup caches.
    outstanding: RefCell<std::collections::BTreeSet<u64>>,
    stats: RefCell<ClientStats>,
    /// Shared observability sink; disabled handles make every recording
    /// site a single branch.
    obs: ObsHandle,
    /// Snapshot of `obs.on()` taken at construction. The handle's
    /// interior-mutable flag lives behind an `Rc` and must be re-read at
    /// every instrumentation site; a plain immutable bool is free to
    /// hoist. Recording is always decided at cluster construction, so
    /// the snapshot never goes stale.
    obs_enabled: bool,
}

impl LibFs {
    /// Creates a client bound to a network endpoint that routes with `map`.
    /// Call [`LibFs::start`] to spawn its response dispatcher before issuing
    /// operations.
    pub fn new(
        handle: SimHandle,
        endpoint: Endpoint<NetMsg>,
        map: ShardMap,
        server_nodes: Rc<RefCell<Vec<NodeId>>>,
        cfg: LibFsConfig,
        obs: ObsHandle,
    ) -> Rc<Self> {
        let obs_enabled = obs.on();
        Rc::new(LibFs {
            handle,
            endpoint: Rc::new(endpoint),
            map: RefCell::new(map),
            server_nodes,
            cfg,
            cache: RefCell::new(MetaCache::new()),
            pending: Rc::new(RefCell::new(FxHashMap::default())),
            next_seq: Cell::new(1),
            next_pkt: Cell::new(1),
            outstanding: RefCell::new(std::collections::BTreeSet::new()),
            stats: RefCell::new(ClientStats::default()),
            obs,
            obs_enabled,
        })
    }

    /// Records one client-side trace event, stamped with virtual time and
    /// the routing epoch this client currently trusts. A disabled handle
    /// makes this a single branch.
    fn trace_event(&self, trace: Option<TraceId>, kind: EventKind) {
        if !self.obs_enabled {
            return;
        }
        self.obs.record(TraceEvent {
            at_ns: self.handle.now().as_nanos(),
            node: self.endpoint.node().0,
            epoch: self.epoch(),
            trace,
            kind,
        });
    }

    /// Spawns the response dispatcher task.
    pub fn start(self: &Rc<Self>) {
        let me = self.clone();
        self.handle.spawn(async move {
            loop {
                let Some(pkt) = me.endpoint.recv().await else {
                    return;
                };
                let response = match pkt.payload.body {
                    Body::Response(r) => Some(r),
                    // Asynchronous commits are delivered by the switch inside
                    // an AsyncCommit envelope (§5.2.1 step 7a).
                    Body::Server(ServerMsg::AsyncCommit { response, .. }) => Some(response),
                    _ => None,
                };
                if let Some(r) = response {
                    let tx = me.pending.borrow_mut().remove(&r.op_id.seq);
                    if let Some(tx) = tx {
                        let _ = tx.send(r);
                    }
                }
            }
        });
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.cfg.id
    }

    /// Client counters.
    pub fn stats(&self) -> ClientStats {
        *self.stats.borrow()
    }

    /// Cache hit/miss/invalidation counters.
    pub fn cache_counters(&self) -> (u64, u64, u64) {
        self.cache.borrow().counters()
    }

    // ------------------------------------------------------------------
    // Public metadata operations.
    // ------------------------------------------------------------------

    /// Creates a regular file.
    pub async fn create(&self, path: &str) -> FsResult<InodeAttrs> {
        match self
            .run_path_op(path, |key| MetaOp::Create {
                key,
                perm: Permissions::default(),
            })
            .await?
        {
            OpResult::Attrs(a) => Ok(a),
            OpResult::Listing { attrs, .. } => Ok(attrs),
            other => Err(other.err().unwrap_or(FsError::NotFound)),
        }
    }

    /// Deletes a regular file.
    pub async fn delete(&self, path: &str) -> FsResult<()> {
        self.expect_done(self.run_path_op(path, |key| MetaOp::Delete { key }).await)
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> FsResult<InodeAttrs> {
        match self
            .run_path_op(path, |key| MetaOp::Mkdir {
                key,
                perm: Permissions::default(),
            })
            .await?
        {
            OpResult::Attrs(a) => Ok(a),
            OpResult::Err(e) => Err(e),
            _ => Err(FsError::NotFound),
        }
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, path: &str) -> FsResult<()> {
        let r = self.run_path_op(path, |key| MetaOp::Rmdir { key }).await;
        // A removed directory must disappear from the cache.
        self.cache.borrow_mut().invalidate_subtree(path);
        self.expect_done(r)
    }

    /// Reads a file's attributes.
    pub async fn stat(&self, path: &str) -> FsResult<InodeAttrs> {
        self.expect_attrs(self.run_path_op(path, |key| MetaOp::Stat { key }).await)
    }

    /// Reads a directory's attributes.
    pub async fn statdir(&self, path: &str) -> FsResult<InodeAttrs> {
        self.expect_attrs(self.run_path_op(path, |key| MetaOp::Statdir { key }).await)
    }

    /// Lists a directory. The entry list is the same `Rc` allocation the
    /// server produced — no copy is made on the way to the caller.
    pub async fn readdir(&self, path: &str) -> FsResult<(InodeAttrs, Rc<Vec<DirEntry>>)> {
        match self
            .run_path_op(path, |key| MetaOp::Readdir { key })
            .await?
        {
            OpResult::Listing { attrs, entries } => Ok((attrs, entries)),
            OpResult::Err(e) => Err(e),
            _ => Err(FsError::NotFound),
        }
    }

    /// Opens a file.
    pub async fn open(&self, path: &str) -> FsResult<InodeAttrs> {
        self.expect_attrs(self.run_path_op(path, |key| MetaOp::Open { key }).await)
    }

    /// Closes a file.
    pub async fn close(&self, path: &str) -> FsResult<()> {
        match self.run_path_op(path, |key| MetaOp::Close { key }).await? {
            OpResult::Err(e) => Err(e),
            _ => Ok(()),
        }
    }

    /// Changes permission bits.
    pub async fn chmod(&self, path: &str, mode: u16) -> FsResult<()> {
        self.expect_done(
            self.run_path_op(path, |key| MetaOp::Chmod { key, mode })
                .await,
        )
    }

    /// Renames a file (or directory).
    pub async fn rename(&self, src_path: &str, dst_path: &str) -> FsResult<()> {
        self.stats.borrow_mut().ops_issued += 1;
        let mut attempt = 0;
        loop {
            match self.try_rename(src_path, dst_path).await {
                // `Unavailable` is the coordinator's abort verdict (nothing
                // was mutated) and `StaleCache` a failed ancestor check:
                // both are safe to retry, like `run_path_op` does for every
                // other operation. A timeout's outcome is ambiguous and is
                // surfaced to the caller.
                Err(e @ (FsError::Unavailable | FsError::StaleCache))
                    if attempt < MAX_OP_RETRIES =>
                {
                    attempt += 1;
                    if e == FsError::StaleCache {
                        self.stats.borrow_mut().stale_retries += 1;
                        self.cache.borrow_mut().invalidate_path(src_path);
                        self.cache.borrow_mut().invalidate_path(dst_path);
                    } else {
                        self.handle.sleep(self.cfg.request_timeout).await;
                    }
                }
                other => {
                    self.count_outcome(other.is_ok());
                    return other;
                }
            }
        }
    }

    /// One rename attempt: resolve both paths and run the transaction. The
    /// client probes NEITHER end of the rename:
    ///
    /// * the destination's owner re-checks authoritatively at prepare time
    ///   and a conflict comes back as a typed `RenameDstExists` reject;
    /// * the source's type (which decides the coordinating server under
    ///   per-file hashing) is taken from the cache when present; on a cold
    ///   cache the request goes to the source's per-file-hash owner, which
    ///   re-routes a directory rename to the fingerprint-group owner
    ///   server-side — half a server-to-server trip instead of the up to two
    ///   client probe RTTs this path used to pay.
    async fn try_rename(&self, src_path: &str, dst_path: &str) -> FsResult<()> {
        // POSIX: renaming a path onto itself succeeds as a no-op (the server
        // re-checks existence; a missing source still fails with NotFound).
        let cached = self
            .cache
            .borrow_mut()
            .get(src_path)
            .and_then(|c| c.attrs.clone());
        if src_path == dst_path && cached.is_some() {
            return Ok(());
        }
        let src_res = self.resolve(src_path, false).await?;
        let dst_res = self.resolve(dst_path, false).await?;
        let op = MetaOp::Rename {
            src: src_res.key,
            dst: dst_res.key,
            dst_parent: dst_res.parent,
        };
        let mut ancestors = src_res.ancestors;
        ancestors.extend(dst_res.ancestors.iter().copied());
        let result = self.issue(op, src_res.parent, ancestors, cached).await?;
        self.cache.borrow_mut().invalidate_subtree(src_path);
        self.cache.borrow_mut().invalidate_path(dst_path);
        // The destination may overwrite an existing *file* (POSIX rename
        // semantics). Renaming onto an existing directory, or a directory
        // onto a file, is rejected by the owner at prepare time; the typed
        // reject maps to the POSIX error a local probe would have produced.
        match result.err() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn expect_done(&self, r: FsResult<OpResult>) -> FsResult<()> {
        match r?.err() {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn expect_attrs(&self, r: FsResult<OpResult>) -> FsResult<InodeAttrs> {
        match r? {
            OpResult::Attrs(a) => Ok(a),
            OpResult::Listing { attrs, .. } => Ok(attrs),
            other => Err(other.err().unwrap_or(FsError::NotFound)),
        }
    }

    // ------------------------------------------------------------------
    // Resolution and request execution.
    // ------------------------------------------------------------------

    /// Runs one path-addressed operation with stale-cache retries.
    async fn run_path_op(
        &self,
        path: &str,
        build: impl Fn(MetaKey) -> MetaOp,
    ) -> FsResult<OpResult> {
        self.stats.borrow_mut().ops_issued += 1;
        let mut attempt = 0;
        loop {
            let op_probe = build(MetaKey::new(DirId::ROOT, String::new()));
            let need_target = self.map.borrow().needs_target(&op_probe);
            let res = match self.resolve(path, need_target).await {
                Ok(r) => r,
                Err(FsError::StaleCache) if attempt < MAX_OP_RETRIES => {
                    attempt += 1;
                    self.stats.borrow_mut().stale_retries += 1;
                    self.cache.borrow_mut().invalidate_path(path);
                    continue;
                }
                Err(e) => {
                    self.count_outcome(false);
                    return Err(e);
                }
            };
            // The resolution is rebuilt on every retry, so its fields move
            // straight into the request — no per-attempt clones.
            let Resolution {
                key,
                parent,
                ancestors,
                parent_path,
            } = res;
            let op = build(key);
            let target_attrs = if need_target {
                self.cache
                    .borrow_mut()
                    .get(path)
                    .and_then(|c| c.attrs.clone())
            } else {
                None
            };
            let out = self.issue(op, parent, ancestors, target_attrs).await;
            match out {
                Ok(OpResult::Err(e)) if e.is_retryable() && attempt < MAX_OP_RETRIES => {
                    attempt += 1;
                    if e == FsError::StaleCache {
                        self.stats.borrow_mut().stale_retries += 1;
                        self.cache.borrow_mut().invalidate_path(path);
                        // Also drop the parent entry itself; the retry
                        // re-resolves from the root.
                        self.cache.borrow_mut().invalidate_path(&parent_path);
                    } else {
                        self.handle.sleep(self.cfg.request_timeout).await;
                    }
                    continue;
                }
                out => {
                    self.count_outcome(out.as_ref().is_ok_and(OpResult::is_ok));
                    return out;
                }
            }
        }
    }

    /// Counts one operation's final outcome (`rename` has a retry loop of its
    /// own and ends here too).
    fn count_outcome(&self, ok: bool) {
        let mut stats = self.stats.borrow_mut();
        if ok {
            stats.ops_ok += 1;
        } else {
            stats.ops_err += 1;
        }
    }

    /// Resolves the parent chain of `path` (and optionally the final
    /// component), filling the metadata cache. Components are borrowed
    /// slices of `path` and the growing prefix lives in one reused buffer —
    /// no per-component `String` is allocated.
    async fn resolve(&self, path: &str, resolve_target: bool) -> FsResult<Resolution> {
        let comps: Vec<&str> = path_components(path).collect();
        if comps.is_empty() {
            return Err(FsError::NotFound);
        }
        let mut ancestors = vec![DirId::ROOT];
        let mut parent = ParentRef {
            key: MetaKey::new(DirId::ROOT, String::new()),
            id: DirId::ROOT,
            fp: Fingerprint::of_dir(&DirId::ROOT, ""),
        };
        let mut parent_path = String::from("/");
        let mut current = String::new();
        let upto = if resolve_target {
            comps.len()
        } else {
            comps.len() - 1
        };
        for (i, comp) in comps[..upto].iter().enumerate() {
            current.push('/');
            current.push_str(comp);
            let cached = self.cache.borrow_mut().get(&current);
            let dir = match cached {
                Some(d) => d,
                None => {
                    self.stats.borrow_mut().lookups += 1;
                    let key = MetaKey::new(parent.id, *comp);
                    let op = MetaOp::Lookup { key: key.clone() };
                    // Boxed: the lookup RPC runs only on a cache miss, but
                    // its inline state machine would otherwise dominate the
                    // size of every resolution future above it.
                    let result =
                        Box::pin(self.issue(op, Some(parent.clone()), ancestors.clone(), None))
                            .await?;
                    let attrs = match result {
                        OpResult::Attrs(a) => a,
                        OpResult::Err(e) => return Err(e),
                        _ => return Err(FsError::NotFound),
                    };
                    let dir = Rc::new(CachedDir {
                        fp: Fingerprint::of_dir(&key.pid, &key.name),
                        id: attrs.id,
                        key,
                        attrs: Some(attrs),
                    });
                    self.cache.borrow_mut().insert(&current, Rc::clone(&dir));
                    dir
                }
            };
            // Only the first `comps.len() - 1` components become the parent
            // chain; a resolved target does not change the parent.
            if i + 1 < comps.len() {
                ancestors.push(dir.id);
                parent = ParentRef {
                    key: dir.key.clone(),
                    id: dir.id,
                    fp: dir.fp,
                };
                parent_path.clone_from(&current);
            }
        }
        let name = *comps.last().expect("non-empty");
        let key = MetaKey::new(parent.id, name);
        // Operations directly under the root still carry the root as parent;
        // only the root itself has no parent, and it is never resolved here.
        Ok(Resolution {
            key,
            parent: Some(parent),
            ancestors,
            parent_path,
        })
    }

    /// Sends one request (with retransmission) and returns the server's
    /// result. A `WrongOwner` rejection — the cached shard map went stale
    /// across a live migration — installs the server's current map and
    /// retries against the new owner within the same retry budget.
    async fn issue(
        &self,
        op: MetaOp,
        parent: Option<ParentRef>,
        ancestors: Vec<DirId>,
        target_attrs: Option<InodeAttrs>,
    ) -> FsResult<OpResult> {
        let seq = self.next_seq.get();
        self.next_seq.set(seq + 1);
        self.outstanding.borrow_mut().insert(seq);
        let result = self
            .issue_tracked(seq, op, parent, ancestors, target_attrs)
            .await;
        self.outstanding.borrow_mut().remove(&seq);
        result
    }

    async fn issue_tracked(
        &self,
        seq: u64,
        op: MetaOp,
        parent: Option<ParentRef>,
        ancestors: Vec<DirId>,
        target_attrs: Option<InodeAttrs>,
    ) -> FsResult<OpResult> {
        let op_id = OpId {
            client: self.cfg.id,
            seq,
        };
        // Only directory reads carry a dirty-set query header; compute the
        // fingerprint lazily so every other operation skips the hash.
        let attach_query = self.cfg.dirty_query_in_packet && op.is_dir_read();
        let fp = attach_query.then(|| {
            let key = op.primary_key();
            Fingerprint::of_dir(&key.pid, &key.name)
        });
        // Everything this client issued below its oldest outstanding
        // operation has been answered and abandoned-or-consumed: the server
        // may prune those cached responses.
        let acked_below = self
            .outstanding
            .borrow()
            .first()
            .copied()
            .unwrap_or(seq)
            .min(seq);
        // Built once, shared (`Rc`) across retransmission attempts and with
        // every in-flight packet copy. Rebuilt only on a map refresh (the
        // epoch stamp must match the routing).
        let mut request = Rc::new(ClientRequest {
            op_id,
            op,
            ancestors,
            parent,
            epoch: self.epoch(),
            acked_below,
        });
        let mut dst_node = self.destination(&request.op, target_attrs.as_ref());
        // Exponential backoff between retransmissions ([`Retry::REQUEST`],
        // indexed by the timeouts so far): a queued-but-alive server answers
        // when it answers regardless of duplicates (they are suppressed), so
        // pacing the retries only sheds useless packets — heavyweight
        // baselines otherwise exhaust the whole retry budget on every
        // operation the moment their queues exceed one timeout.
        let mut timeouts = 0;
        for attempt in 0..Retry::REQUEST.sends {
            if attempt > 0 {
                self.stats.borrow_mut().retransmissions += 1;
            }
            let (tx, rx) = oneshot::channel();
            self.pending.borrow_mut().insert(seq, tx);
            let pkt = self.next_pkt.get();
            self.next_pkt.set(pkt + 1);
            let pkt_seq = PacketSeq {
                sender: self.endpoint.node().0,
                seq: pkt,
            };
            let trace = TraceId::of_op(op_id);
            let msg = match fp {
                Some(fp) => NetMsg::with_dirty(
                    pkt_seq,
                    DirtySetHeader::query(fp),
                    Body::Request(request.clone()),
                ),
                None => NetMsg::plain(pkt_seq, Body::Request(request.clone())),
            }
            .traced(trace);
            self.trace_event(Some(trace), EventKind::ClientIssue { op: op_id, attempt });
            self.endpoint.send(dst_node, msg);
            let wait = self.cfg.request_timeout * Retry::REQUEST.wait(timeouts);
            match timeout(&self.handle, wait, rx.recv()).await {
                Some(Ok(resp)) => match resp.result {
                    OpResult::WrongOwner { map } => {
                        // Refresh-and-retry: install the newer map, restamp
                        // the request's epoch and re-route. No backoff — the
                        // new owner is live and this is not congestion.
                        // Older or same-epoch maps are ignored.
                        self.stats.borrow_mut().map_refreshes += 1;
                        if map.epoch() > self.epoch() {
                            *self.map.borrow_mut() = map;
                        }
                        self.trace_event(
                            Some(trace),
                            EventKind::ClientMapRefresh {
                                op: op_id,
                                new_epoch: self.epoch(),
                            },
                        );
                        let mut rebuilt = (*request).clone();
                        rebuilt.epoch = self.epoch();
                        request = Rc::new(rebuilt);
                        dst_node = self.destination(&request.op, target_attrs.as_ref());
                    }
                    result => return Ok(result),
                },
                _ => {
                    self.pending.borrow_mut().remove(&seq);
                    timeouts += 1;
                }
            }
        }
        Err(FsError::TimedOut)
    }

    /// The epoch of the cached shard map, stamped on every request so a
    /// server with a newer map can reject the routing.
    fn epoch(&self) -> u64 {
        self.map.borrow().epoch()
    }

    /// The node of the server the request must be sent to. `target` is what
    /// the client knows of the final path component.
    fn destination(&self, op: &MetaOp, target: Option<&InodeAttrs>) -> NodeId {
        let server: ServerId = self.map.borrow().route(op, target);
        self.server_nodes.borrow()[server.0 as usize]
    }
}
