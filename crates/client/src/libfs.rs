//! The LibFS client: path resolution, request execution, retries.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use switchfs_obs::{EventKind, ObsHandle, TraceEvent};
use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, MetaOp, NetMsg, PacketSeq, ParentRef, ServerMsg,
};
use switchfs_proto::{
    ClientId, DirEntry, DirId, DirtySetHeader, Fingerprint, FsError, FsResult, InodeAttrs, MetaKey,
    OpId, OpResult, Permissions, Placement, Retry, ServerId, ShardMap, TraceId,
};
use switchfs_simnet::sync::{Replies, Wait};
use switchfs_simnet::{timeout, Endpoint, NodeId, SimDuration, SimHandle};

use crate::cache::{canonical_path, depth, path_components, CachedDir, MetaCache};

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

/// Result of path resolution: the target's key, and its parent's, which
/// only the root lacks.
#[derive(Debug, Clone)]
struct Resolution {
    key: MetaKey,
    parent: Option<ParentRef>,
}

/// The SwitchFS client library.
pub struct LibFs {
    handle: SimHandle,
    endpoint: Endpoint<NetMsg>,
    /// The client's private copy of the shard map it routes with (see
    /// [`Placement::route`]), refreshed from `WrongOwner` rejections. Its
    /// policy is the only client-side difference between the systems.
    map: RefCell<ShardMap>,
    cfg: LibFsConfig,
    cache: RefCell<MetaCache>,
    /// The reply of each transmitted request, awaited by operation sequence:
    /// the dispatcher in [`LibFs::start`] completes it, the issuing
    /// operation waits on it for one retransmission timeout per copy.
    pending: RefCell<Replies<ClientResponse>>,
    next_seq: Cell<u64>,
    /// Packet-sequence counter, distinct from the operation counter: every
    /// transmitted copy (including retransmissions) gets a unique value, so
    /// receivers can tell a *network-duplicated* packet (same sequence)
    /// from a deliberate retransmission (fresh sequence) — §5.4.1.
    next_pkt: Cell<u64>,
    /// The operations still inside their retransmission loop, from the
    /// oldest on. Everything below the oldest can never be retransmitted
    /// again; that bound is piggybacked on each request as the
    /// `acked_below` watermark so servers can prune their dedup caches.
    outstanding: RefCell<Outstanding>,
    /// Requests of finished operations and ancestor chains, kept for the
    /// next operations to reuse.
    spares: RefCell<Spares>,
    stats: RefCell<ClientStats>,
    /// Shared observability sink; disabled handles make every recording
    /// site a single branch.
    obs: ObsHandle,
}

impl LibFs {
    /// Creates a client bound to a network endpoint that routes with `map`.
    /// Call [`LibFs::start`] to spawn its response dispatcher before issuing
    /// operations.
    pub fn new(
        handle: SimHandle,
        endpoint: Endpoint<NetMsg>,
        map: ShardMap,
        cfg: LibFsConfig,
        obs: ObsHandle,
    ) -> Rc<Self> {
        Rc::new(LibFs {
            handle,
            endpoint,
            map: RefCell::new(map),
            cfg,
            cache: RefCell::new(MetaCache::new()),
            pending: RefCell::default(),
            next_seq: Cell::new(1),
            next_pkt: Cell::new(1),
            outstanding: RefCell::default(),
            spares: RefCell::default(),
            stats: RefCell::new(ClientStats::default()),
            obs,
        })
    }

    /// Records one client-side trace event, stamped with virtual time and
    /// the routing epoch this client currently trusts. A disabled handle
    /// makes this a single branch.
    fn trace_event(&self, trace: Option<TraceId>, kind: EventKind) {
        if !self.obs.on() {
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
                let pkt = me.endpoint.recv().await;
                let response = match pkt.payload.body {
                    Body::Response(r) => Some(r),
                    // Asynchronous commits are delivered by the switch inside
                    // an AsyncCommit envelope (§5.2.1 step 7a).
                    Body::Server(ServerMsg::AsyncCommit { response, .. }) => Some(response),
                    _ => None,
                };
                if let Some(r) = response {
                    me.pending.borrow_mut().complete(r.op_id.seq, r);
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
        let op = |key| MetaOp::Create {
            key,
            perm: Permissions::default(),
        };
        self.expect_attrs(self.run_path_op(path, op).await)
    }

    /// Deletes a regular file.
    pub async fn delete(&self, path: &str) -> FsResult<()> {
        self.expect_done(self.run_path_op(path, |key| MetaOp::Delete { key }).await)
    }

    /// Creates a directory.
    pub async fn mkdir(&self, path: &str) -> FsResult<InodeAttrs> {
        let op = |key| MetaOp::Mkdir {
            key,
            perm: Permissions::default(),
        };
        self.expect_attrs(self.run_path_op(path, op).await)
    }

    /// Removes an empty directory.
    pub async fn rmdir(&self, path: &str) -> FsResult<()> {
        let r = self.run_path_op(path, |key| MetaOp::Rmdir { key }).await;
        // A removed directory must disappear from the cache.
        if let Ok(path) = canonical_path(path) {
            self.cache.borrow_mut().invalidate_subtree(&path);
        }
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
        self.expect_done(self.run_path_op(path, |key| MetaOp::Close { key }).await)
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
        let src_path = canonical_path(src_path).inspect_err(|_| self.count_outcome(false))?;
        let dst_path = canonical_path(dst_path).inspect_err(|_| self.count_outcome(false))?;
        let mut attempt = 0;
        loop {
            match self.try_rename(&src_path, &dst_path).await {
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
                        self.cache.borrow_mut().invalidate_path(&src_path);
                        self.cache.borrow_mut().invalidate_path(&dst_path);
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

    /// One rename attempt on two canonical paths: resolve both into one
    /// ancestor chain, sized for both up front, and run the transaction. The
    /// client probes NEITHER end of the rename:
    ///
    /// * the destination's owner re-checks authoritatively at prepare time
    ///   and a conflict comes back as its POSIX error;
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
            .map(|c| c.attrs.clone());
        if src_path == dst_path && cached.is_some() {
            return Ok(());
        }
        let mut ancestors = self.spare_chain(depth(src_path) + depth(dst_path));
        let src_res = self.resolve(src_path, false, &mut ancestors).await?;
        let dst_res = self.resolve(dst_path, false, &mut ancestors).await?;
        let op = MetaOp::Rename {
            src: src_res.key,
            dst: dst_res.key,
            dst_parent: dst_res.parent,
        };
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

    /// Runs one path-addressed operation with stale-cache retries. The path
    /// is canonicalized once, here: every cache key, lookup and invalidation
    /// below is the canonical path or a prefix of it.
    async fn run_path_op(
        &self,
        path: &str,
        build: impl Fn(MetaKey) -> MetaOp,
    ) -> FsResult<OpResult> {
        self.stats.borrow_mut().ops_issued += 1;
        let path = canonical_path(path).inspect_err(|_| self.count_outcome(false))?;
        let mut attempt = 0;
        loop {
            let op_probe = build(MetaKey::new(DirId::ROOT, String::new()));
            let need_target = self.map.borrow().needs_target(&op_probe);
            let mut ancestors = self.spare_chain(depth(&path));
            let res = match self.resolve(&path, need_target, &mut ancestors).await {
                Ok(r) => r,
                Err(FsError::StaleCache) if attempt < MAX_OP_RETRIES => {
                    attempt += 1;
                    self.stats.borrow_mut().stale_retries += 1;
                    self.cache.borrow_mut().invalidate_path(&path);
                    continue;
                }
                Err(e) => {
                    self.count_outcome(false);
                    return Err(e);
                }
            };
            // The resolution is rebuilt on every retry, so its fields move
            // straight into the request — no per-attempt clones.
            let Resolution { key, parent } = res;
            let op = build(key);
            let target_attrs = if need_target {
                self.cache.borrow_mut().get(&path).map(|c| c.attrs.clone())
            } else {
                None
            };
            let out = self.issue(op, parent, ancestors, target_attrs).await;
            match out {
                Ok(OpResult::Err(e)) if e.is_retryable() && attempt < MAX_OP_RETRIES => {
                    attempt += 1;
                    if e == FsError::StaleCache {
                        self.stats.borrow_mut().stale_retries += 1;
                        // Every cached directory along the path, the parent
                        // included: the retry re-resolves from the root.
                        self.cache.borrow_mut().invalidate_path(&path);
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

    /// Resolves the parent chain of the canonical `path` (and optionally
    /// the final component), filling the metadata cache, and appends the ids
    /// of the parent chain, the root first, to `ancestors`. Components and
    /// cache keys are slices of `path`, so a cache hit allocates nothing but
    /// the target's name.
    async fn resolve(
        &self,
        path: &str,
        resolve_target: bool,
        ancestors: &mut Vec<DirId>,
    ) -> FsResult<Resolution> {
        let (count, name) = path_components(path).fold((0, ""), |(n, _), c| (n + 1, c));
        let chain_start = ancestors.len();
        ancestors.push(DirId::ROOT);
        if count == 0 {
            // The root has no parent; only `statdir` and `readdir` serve it.
            let key = MetaKey::new(DirId::ROOT, "");
            return Ok(Resolution { key, parent: None });
        }
        let mut parent = ParentRef {
            key: MetaKey::new(DirId::ROOT, String::new()),
            id: DirId::ROOT,
            fp: Fingerprint::of_dir(&DirId::ROOT, ""),
        };
        // End of the current prefix: `path[..end]` is the directory the
        // current component names.
        let mut end = 0;
        let upto = if resolve_target { count } else { count - 1 };
        for (i, comp) in path_components(path).take(upto).enumerate() {
            end += 1 + comp.len();
            let prefix = &path[..end];
            let cached = self.cache.borrow_mut().get(prefix);
            let dir = match cached {
                Some(d) => d,
                None => {
                    self.stats.borrow_mut().lookups += 1;
                    let key = MetaKey::new(parent.id, comp);
                    let op = MetaOp::Lookup { key: key.clone() };
                    // This path's chain so far, without what an earlier
                    // resolution into the same buffer appended.
                    let mut chain = self.spare_chain(ancestors.len() - chain_start);
                    chain.extend_from_slice(&ancestors[chain_start..]);
                    // Boxed: the lookup RPC runs only on a cache miss, but
                    // its inline state machine would otherwise dominate the
                    // size of every resolution future above it.
                    let result =
                        Box::pin(self.issue(op, Some(parent.clone()), chain, None)).await?;
                    let attrs = match result {
                        OpResult::Attrs(a) => a,
                        OpResult::Err(e) => return Err(e),
                        _ => return Err(FsError::NotFound),
                    };
                    let dir = Rc::new(CachedDir { key, attrs });
                    self.cache.borrow_mut().insert(prefix, Rc::clone(&dir));
                    dir
                }
            };
            // Only the first `count - 1` components become the parent
            // chain; a resolved target does not change the parent.
            if i + 1 < count {
                ancestors.push(dir.attrs.id);
                parent = ParentRef {
                    key: dir.key.clone(),
                    id: dir.attrs.id,
                    fp: Fingerprint::of_dir(&dir.key.pid, &dir.key.name),
                };
            }
        }
        // Operations directly under the root carry the root as parent.
        let (key, parent) = (MetaKey::new(parent.id, name), Some(parent));
        Ok(Resolution { key, parent })
    }

    /// An empty ancestor chain with room for `len` ids, a spare one if the
    /// client kept any.
    fn spare_chain(&self, len: usize) -> Vec<DirId> {
        let mut chain = self.spares.borrow_mut().chains.pop().unwrap_or_default();
        chain.reserve(len);
        chain
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
        let (acked_below, bound) = {
            let mut outstanding = self.outstanding.borrow_mut();
            outstanding.issue(seq);
            (outstanding.acked_below(seq), outstanding.spare_bound())
        };
        // Everything this client issued below its oldest outstanding
        // operation has been answered and abandoned-or-consumed: the server
        // may prune those cached responses (`acked_below`).
        let request = ClientRequest {
            op_id: OpId {
                client: self.cfg.id,
                seq,
            },
            op,
            ancestors,
            parent,
            epoch: self.epoch(),
            acked_below,
        };
        let mut request = self.spares.borrow_mut().request(request, bound);
        let result = self.issue_tracked(&mut request, target_attrs).await;
        let mut outstanding = self.outstanding.borrow_mut();
        outstanding.finish(seq);
        self.spares
            .borrow_mut()
            .keep(request, outstanding.spare_bound());
        result
    }

    /// Transmits `request` until it is answered or the retries run out.
    /// The request is shared (`Rc`) across retransmission attempts and with
    /// every in-flight packet copy; a map refresh restamps its epoch (the
    /// stamp must match the routing).
    async fn issue_tracked(
        &self,
        request: &mut Rc<ClientRequest>,
        target_attrs: Option<InodeAttrs>,
    ) -> FsResult<OpResult> {
        let op_id = request.op_id;
        // Only directory reads carry a dirty-set query header; compute the
        // fingerprint lazily so every other operation skips the hash.
        let attach_query = self.cfg.dirty_query_in_packet && request.op.is_dir_read();
        let fp = attach_query.then(|| {
            let key = request.op.primary_key();
            Fingerprint::of_dir(&key.pid, &key.name)
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
            let reply = Wait::new(|| self.pending.borrow_mut(), op_id.seq);
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
                    Body::Request(Rc::clone(request)),
                ),
                None => NetMsg::plain(pkt_seq, Body::Request(Rc::clone(request))),
            }
            .traced(trace);
            self.trace_event(Some(trace), EventKind::ClientIssue { op: op_id, attempt });
            self.endpoint.send(dst_node, msg);
            let wait = self.cfg.request_timeout * Retry::REQUEST.wait(timeouts);
            match timeout(&self.handle, wait, reply).await {
                Some(Some(resp)) => match resp.result {
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
                        // Copies the request only while a packet copy
                        // still holds it.
                        Rc::make_mut(request).epoch = self.epoch();
                        dst_node = self.destination(&request.op, target_attrs.as_ref());
                    }
                    result => return Ok(result),
                },
                // The expired wait left the table when it was dropped.
                _ => timeouts += 1,
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
        NodeId(server.node())
    }
}

/// The operations still inside their retransmission loop, as a ring of done
/// flags indexed by sequence from the oldest one not yet done. Sequences are
/// issued in order, so issuing pushes at the back; a finished operation is
/// marked done, and the done ones at the front leave. The ring keeps its
/// capacity, so tracking an operation allocates nothing.
#[derive(Debug, Default)]
struct Outstanding {
    /// The sequence of the ring's front.
    base: u64,
    done: VecDeque<bool>,
}

impl Outstanding {
    /// Tracks `seq`, the next sequence issued.
    fn issue(&mut self, seq: u64) {
        if self.done.is_empty() {
            self.base = seq;
        }
        debug_assert_eq!(seq, self.base + self.done.len() as u64);
        self.done.push_back(false);
    }

    /// Marks `seq` done and drops the done operations at the front.
    fn finish(&mut self, seq: u64) {
        self.done[(seq - self.base) as usize] = true;
        while self.done.front() == Some(&true) {
            self.done.pop_front();
            self.base += 1;
        }
    }

    /// The `acked_below` watermark of a request issued as `seq`: the oldest
    /// sequence still outstanding, and at most `seq`.
    fn acked_below(&self, seq: u64) -> u64 {
        let oldest = if self.done.is_empty() { seq } else { self.base };
        oldest.min(seq)
    }

    /// How many spare requests, and how many spare chains, the client keeps:
    /// one per operation in the ring, and at least one.
    fn spare_bound(&self) -> usize {
        self.done.len().max(1)
    }
}

/// Requests of finished operations and empty ancestor chains, kept so that
/// an operation allocates neither once the client is warm.
///
/// A finished request is reused only once nothing else holds it: a packet
/// copy, a server task or a forwarded request may outlive the reply, and a
/// request anything still holds is never rewritten. The oldest is the first
/// to become free, so it is the one tried.
#[derive(Debug, Default)]
struct Spares {
    /// Finished requests, the oldest first.
    requests: VecDeque<Rc<ClientRequest>>,
    /// Empty chains, each with the capacity it grew to.
    chains: Vec<Vec<DirId>>,
}

impl Spares {
    /// `fresh` as a shared request: written over the oldest spare if nothing
    /// else holds it, whose chain becomes a spare (up to `bound` of them),
    /// and in a new allocation otherwise.
    fn request(&mut self, fresh: ClientRequest, bound: usize) -> Rc<ClientRequest> {
        let Some(mut request) = self.requests.pop_front() else {
            return Rc::new(fresh);
        };
        let Some(slot) = Rc::get_mut(&mut request) else {
            self.requests.push_front(request);
            return Rc::new(fresh);
        };
        let mut chain = std::mem::replace(slot, fresh).ancestors;
        if self.chains.len() < bound {
            chain.clear();
            self.chains.push(chain);
        }
        request
    }

    /// Keeps the request of a finished operation, dropping the newest
    /// spares beyond `bound`: the oldest are the first to become free.
    fn keep(&mut self, request: Rc<ClientRequest>, bound: usize) {
        self.requests.push_back(request);
        self.requests.truncate(bound);
        self.chains.truncate(bound);
    }
}

#[cfg(test)]
mod tests {
    use std::rc::Rc;

    use switchfs_proto::message::{ClientRequest, MetaOp};
    use switchfs_proto::{ClientId, DirId, MetaKey, OpId};

    use super::{Outstanding, Spares};

    #[test]
    fn the_outstanding_ring_starts_at_the_oldest_operation_not_done() {
        let mut ring = Outstanding::default();
        for seq in 1..=3 {
            ring.issue(seq);
        }
        ring.finish(2);
        assert_eq!(ring.acked_below(4), 1);
        ring.finish(1);
        assert_eq!(ring.acked_below(4), 3);
        ring.finish(3);
        assert!(ring.done.is_empty());
        assert_eq!(ring.acked_below(4), 4);
    }

    /// Issues a `stat` as `seq` with an ancestor chain of `depth` ids, as
    /// [`super::LibFs::issue`] does.
    fn issue(
        ring: &mut Outstanding,
        spares: &mut Spares,
        seq: u64,
        depth: usize,
    ) -> Rc<ClientRequest> {
        ring.issue(seq);
        let mut ancestors = spares.chains.pop().unwrap_or_default();
        ancestors.extend(std::iter::repeat_n(DirId::ROOT, depth));
        let fresh = ClientRequest {
            op_id: OpId {
                client: ClientId(0),
                seq,
            },
            op: MetaOp::Stat {
                key: MetaKey::new(DirId::ROOT, "f"),
            },
            ancestors,
            parent: None,
            epoch: 0,
            acked_below: ring.acked_below(seq),
        };
        spares.request(fresh, ring.spare_bound())
    }

    /// Finishes `seq`, as [`super::LibFs::issue`] does.
    fn finish(ring: &mut Outstanding, spares: &mut Spares, seq: u64, request: Rc<ClientRequest>) {
        ring.finish(seq);
        spares.keep(request, ring.spare_bound());
    }

    #[test]
    fn a_finished_request_is_reused_once_nothing_else_holds_it() {
        let (mut ring, mut spares) = (Outstanding::default(), Spares::default());
        let first = issue(&mut ring, &mut spares, 1, 2);
        let packet = Rc::clone(&first);
        finish(&mut ring, &mut spares, 1, first);

        // A packet copy still holds the first request: the second is new.
        let second = issue(&mut ring, &mut spares, 2, 2);
        assert!(!Rc::ptr_eq(&second, &packet));
        assert_eq!(packet.op_id.seq, 1, "a held request was rewritten");
        finish(&mut ring, &mut spares, 2, second);

        // Unshared, the first is the oldest spare and the one reused, and
        // its chain is kept for the next operation.
        let oldest = Rc::as_ptr(&packet);
        drop(packet);
        let third = issue(&mut ring, &mut spares, 3, 3);
        assert!(std::ptr::eq(Rc::as_ptr(&third), oldest));
        assert_eq!((third.op_id.seq, third.ancestors.len()), (3, 3));
        assert_eq!(spares.chains.len(), 1);
        assert!(spares.chains[0].is_empty() && spares.chains[0].capacity() >= 2);
        finish(&mut ring, &mut spares, 3, third);
    }

    #[test]
    fn the_spares_stay_within_the_operations_in_flight() {
        let (mut ring, mut spares) = (Outstanding::default(), Spares::default());
        let mut in_flight = std::collections::VecDeque::new();
        let mut held = Vec::new();
        for seq in 1..=64 {
            let request = issue(&mut ring, &mut spares, seq, 3);
            // Every third request outlives its operation in a packet copy.
            if seq % 3 == 0 {
                held.push(Rc::clone(&request));
            }
            in_flight.push_back((seq, request));
            // Eight operations in flight, finished out of order.
            if in_flight.len() == 8 {
                let (seq, request) = in_flight.remove((seq % 5) as usize).unwrap();
                finish(&mut ring, &mut spares, seq, request);
            }
            if seq % 16 == 0 {
                held.clear();
            }
            let bound = ring.spare_bound();
            assert!(spares.requests.len() <= bound && spares.chains.len() <= bound);
        }
        while let Some((seq, request)) = in_flight.pop_front() {
            finish(&mut ring, &mut spares, seq, request);
        }
        assert!(spares.requests.len() <= 1 && spares.chains.len() <= 1);
    }
}
