//! The metadata server runtime: state, packet delivery, single-inode
//! operations, bulk loading and crash/recovery entry points.
//!
//! The double-inode operation handlers live in [`crate::server::ops`], the
//! directory-read / aggregation machinery in [`crate::server::aggregate`],
//! and `rename` in [`crate::server::rename`]. They are sub-modules so they
//! can share the [`Server`] context.
//!
//! Lock ordering (deadlock freedom): handlers acquire locks in the order
//! *parent change-log lock* → *fingerprint-group lock* → *inode lock* (see
//! [`crate::locks`]), and never wait for a remote server while holding a
//! lock that a remote handler on this server would need in conflicting mode
//! before replying.

pub mod aggregate;
pub mod migrate;
pub mod ops;
pub mod recovery;
pub mod rename;

use std::cell::{RefCell, RefMut};
use std::collections::VecDeque;
use std::future::Future;
use std::rc::Rc;
use std::task::Waker;
use switchfs_simnet::{FxHashMap, FxHashSet};

use switchfs_kvstore::KvStore;
use switchfs_obs::{EventKind, TraceEvent};
use switchfs_proto::message::{
    Body, ClientRequest, ClientResponse, MetaOp, NetMsg, OpResult, PacketSeq, Reply, Request,
    ServerMsg, SyncFallback,
};
use switchfs_proto::placement::key_hashes;
use switchfs_proto::{
    ChangeLogEntry, ChangeOp, ClientId, DirEntry, DirId, DirtyRet, DirtySetOp, DirtyState,
    FileType, Fingerprint, FsError, InodeAttrs, MetaKey, Name, OpId, Placement, Retry, ServerId,
    Timestamps, TraceId,
};
use switchfs_simnet::sync::{oneshot, Replies, Wait};
use switchfs_simnet::{timeout, CpuPool, Endpoint, NodeId, SimHandle, SimTime, TaskId};

use crate::changelog::ChangeLogStore;
use crate::config::ServerConfig;
use crate::dirty_set::ServerDirtySet;
use crate::locks::{AggGate, LockManager};
use crate::server::migrate::{Admit, InstallState};
use crate::server::ops::DirUpdateSource;
use crate::server::rename::{CoordinatorTxn, PreparedTxn};
use crate::wal::{DurableState, KvEffect, TxnMarker, WalOp};

switchfs_simnet::counters! {
    /// Counters describing what a server has done; read by tests and by the
    /// evaluation harness.
    pub struct ServerStats {
        /// Client operations answered (including errors).
        pub ops_completed: u64,
        /// Client operations that failed.
        pub ops_failed: u64,
        /// Aggregations this server initiated as directory owner.
        pub aggregations: u64,
        /// Change-log entries applied to directories this server owns.
        pub entries_applied: u64,
        /// Entries that change-log compaction merged away before applying.
        pub entries_compacted_away: u64,
        /// Proactive change-log pushes sent.
        pub pushes_sent: u64,
        /// Proactive change-log pushes received and applied.
        pub pushes_received: u64,
        /// Asynchronous commits that overflowed the dirty set and fell back to a
        /// synchronous update.
        pub fallback_syncs: u64,
        /// Synchronous remote directory updates served (baseline path and
        /// overflow fallback).
        pub remote_updates: u64,
        /// Retransmissions performed by this server.
        pub retransmissions: u64,
        /// Crash recoveries completed.
        pub recoveries: u64,
        /// Shards this server migrated away (live scale-out): completed
        /// freeze→stream→flip cycles.
        pub shards_migrated_out: u64,
        /// Shard installs this server applied. Counts install *events*: a
        /// migration retried after a lost acknowledgment (the source never saw
        /// the ack, re-streamed under a fresh token, and the target purged the
        /// stale first copy) applies — and counts — twice, so under faults
        /// this can exceed `shards_migrated_out`.
        pub shards_migrated_in: u64,
        /// Requests rejected because the client routed them with a stale shard
        /// map (answered with the current map for refresh-and-retry).
        pub wrong_owner_rejects: u64,
        /// Listings scanned for `readdir`: one per aggregation hold's listing.
        pub listing_scans: u64,
    }
}

/// What completes a token-matched wait (see [`Server::token_exchange`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TokenReply {
    /// Another server's (or the dedicated coordinator's) answer to a
    /// request that carried the token.
    Server(Reply),
    /// An asynchronous commit came back mirrored: the switch stored the
    /// fingerprint and delivered the client's copy.
    Mirrored,
}

impl TokenReply {
    /// Another server carried the request out.
    pub(crate) const ACK: TokenReply = TokenReply::Server(Reply::Done(Ok(())));
}

/// One directory's entry list: a set ordered by each entry's own name, for
/// O(log n) mutation, plus a lazily materialized, `Rc`-shared listing for
/// O(1) reads. Each name is stored once, in its entry.
///
/// `readdir`/`statdir`, the duplicate-suppression response cache and every
/// in-flight packet copy all share the one materialized allocation; a
/// mutation drops the memo (copy-on-write at the granularity of the whole
/// listing) and the next reader rebuilds it once. This keeps hot mutate
/// paths free of per-entry memmoves and hot read paths free of deep copies.
#[derive(Debug, Clone, Default)]
pub struct DirContent {
    set: std::collections::BTreeSet<ByName>,
    listing: Option<Rc<Vec<DirEntry>>>,
}

/// A [`DirEntry`] that orders, compares and borrows as its name alone, so a
/// set of them is keyed by name without a second copy of it.
#[derive(Debug, Clone)]
struct ByName(DirEntry);

impl PartialEq for ByName {
    fn eq(&self, other: &Self) -> bool {
        self.0.name == other.0.name
    }
}

impl Eq for ByName {}

impl PartialOrd for ByName {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ByName {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.name.cmp(&other.0.name)
    }
}

impl std::borrow::Borrow<str> for ByName {
    fn borrow(&self) -> &str {
        &self.0.name
    }
}

impl DirContent {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.set.len()
    }

    /// True when the directory lists nothing.
    pub fn is_empty(&self) -> bool {
        self.set.is_empty()
    }

    /// True when an entry called `name` exists.
    pub fn contains(&self, name: &str) -> bool {
        self.set.contains(name)
    }

    /// Iterates the entries in name order.
    pub fn iter(&self) -> impl Iterator<Item = &DirEntry> {
        self.set.iter().map(|e| &e.0)
    }

    /// The shared, name-sorted listing; materialized on first use after a
    /// mutation and shared (`Rc`) by every subsequent reader.
    pub fn listing(&mut self) -> Rc<Vec<DirEntry>> {
        match &self.listing {
            Some(l) => Rc::clone(l),
            None => {
                let l = Rc::new(self.iter().cloned().collect::<Vec<_>>());
                self.listing = Some(Rc::clone(&l));
                l
            }
        }
    }

    /// Inserts or replaces an entry, invalidating the shared listing memo.
    pub fn insert(&mut self, entry: DirEntry) {
        self.listing = None;
        self.set.replace(ByName(entry));
    }

    /// Removes an entry by name, invalidating the shared listing memo.
    pub fn remove(&mut self, name: &str) {
        self.listing = None;
        self.set.remove(name);
    }
}

/// An insertion-ordered set for bounded duplicate suppression: O(1)
/// membership, eviction from the front (oldest first) by count.
#[derive(Debug, Default)]
pub(crate) struct FifoSet<T> {
    members: FxHashSet<T>,
    order: VecDeque<T>,
}

impl<T: Copy + Eq + std::hash::Hash> FifoSet<T> {
    /// Appends `item` unless it is a member, then evicts the oldest members
    /// beyond `cap`; false when `item` already was a member.
    pub fn insert(&mut self, item: T, cap: usize) -> bool {
        let fresh = self.members.insert(item);
        if fresh {
            self.order.push_back(item);
        }
        let over = self.order.len().saturating_sub(cap);
        for oldest in self.order.drain(..over) {
            self.members.remove(&oldest);
        }
        fresh
    }

    /// True when `item` is a member.
    pub fn contains(&self, item: &T) -> bool {
        self.members.contains(item)
    }
}

/// Collector for one copy of an aggregation request this server owns. The
/// expected set uses the deterministic hasher like every other
/// aggregation-path structure: no std-`RandomState` may influence (even only
/// potentially) the replayable schedule.
pub(crate) struct AggCollector {
    pub fp: Fingerprint,
    pub expected: FxHashSet<ServerId>,
    pub entries: Vec<ChangeLogEntry>,
    /// The waker of the copy's exchange, woken once every other server
    /// answered, or when a crash drops the collector.
    pub waker: Option<Waker>,
}

impl Drop for AggCollector {
    fn drop(&mut self) {
        if let Some(waker) = self.waker.take() {
            waker.wake();
        }
    }
}

/// Cap on cached responses kept per client when the piggybacked acked
/// watermark lags (e.g. a client that stops talking to this server): the
/// fallback eviction drops the oldest (lowest-sequence) entries first, which
/// are exactly the ones the client can no longer retransmit.
pub(crate) const COMPLETED_OPS_PER_CLIENT_CAP: usize = 512;

/// An applied remote change-log entry's id in [`ServerInner::entry_ids`].
#[derive(Clone, Copy, PartialEq, Debug)]
pub(crate) enum EntryState {
    /// Applied; the holder may still re-send the entry.
    Applied,
    /// The holder confirmed the durable discard: it cannot re-send.
    Retired,
}

/// How long a retired entry id stays suppressed before eviction. The only
/// copies of an entry that can arrive *after* its holder's discard
/// confirmation are ones sent earlier and still sitting in the fabric or in
/// a handler queue (e.g. a re-pushed batch whose handler is parked behind
/// the fingerprint-group lock while the confirmation is processed at
/// dispatch); those windows are bounded by virtual time, not by a count, so
/// eviction is by retention age. 256 retransmission timeouts (~100 ms of
/// virtual time) dwarfs every retry budget and every observed queueing
/// backlog, while keeping the retired ids bounded by the recent apply
/// *rate* instead of the server's lifetime.
pub(crate) const RETIRED_ENTRY_RETENTION: switchfs_simnet::SimDuration =
    switchfs_simnet::SimDuration::millis(100);

/// Where a server is in its life. The transitions:
///
/// * [`Server::crash`]: any state but `Tombstone` → `Crashed`;
/// * [`Server::recover`]: `Crashed` → `Recovering` at its start,
///   `Recovering` → `Serving` at its end;
/// * [`Server::set_available`]: `Serving` → `Paused` and back, nothing else;
/// * [`Server::decommission`]: any state → `Tombstone`, for good.
#[derive(Clone, Copy, PartialEq)]
pub(crate) enum Liveness {
    /// Serving client requests.
    Serving,
    /// A stop-the-world window (§5.5): client requests get `Unavailable`.
    Paused,
    /// Rebuilding after a crash (§5.4): client requests get `Unavailable`.
    Recovering,
    /// Drops every packet; the background loop idles.
    Crashed,
    /// Decommissioned: redirects client requests (see `begin_request`), drops
    /// the rest. (A real deployment keeps this thin redirector until the
    /// lease on the old membership expires.)
    Tombstone,
}

/// The volatile state of a metadata server. Rebuilt from the WAL after a
/// crash.
pub(crate) struct ServerInner {
    /// Inode store: `(pid, name)` → attributes.
    pub inodes: KvStore<MetaKey, InodeAttrs>,
    /// Entry-list store: directory id → entry list with a shareable
    /// materialized listing (see [`DirContent`]). Mutations go through
    /// [`ServerInner::put_entry`] / [`ServerInner::remove_entry`].
    pub entries: KvStore<DirId, DirContent>,
    /// Index of directories this server owns: id → key.
    pub dir_index: FxHashMap<DirId, MetaKey>,
    /// Per-directory change-logs of deferred updates to remote parents.
    pub changelogs: ChangeLogStore,
    /// Invalidation list (§5.2): directories removed/renamed elsewhere whose
    /// client cache entries must be invalidated lazily.
    pub invalidation: FxHashSet<DirId>,
    /// The owner's duplicate suppression, by remote change-log entry id: an
    /// id is `Applied` until its holder's piggybacked `discard_confirm`
    /// arrives (the holder durably dropped the entry), then `Retired` until
    /// [`RETIRED_ENTRY_RETENTION`] passes. Bounded by the confirmation
    /// window plus the recent apply rate, not by the server's lifetime.
    pub entry_ids: FxHashMap<OpId, EntryState>,
    /// The `Retired` ids of `entry_ids`, oldest first, with the only copy
    /// of their retirement time.
    pub retirement_order: VecDeque<(SimTime, OpId)>,
    /// Ids this server discarded (as a change-log holder) after an
    /// acknowledgment round trip, awaiting confirmation to the applying
    /// server. Drained onto the next message that already flows there
    /// (push, aggregation reply, remote update) — no extra packets.
    pub pending_discard_confirms: FxHashMap<ServerId, Vec<OpId>>,
    /// Responses already sent, re-sent verbatim on duplicate requests.
    /// Keyed per client and ordered by sequence so the piggybacked acked
    /// watermark can prune everything the client will never retransmit —
    /// each client's map is bounded by its in-flight window (plus the
    /// [`COMPLETED_OPS_PER_CLIENT_CAP`] fallback), not by uptime. A pruned
    /// client's map stays, empty, for its next response.
    pub completed_ops: FxHashMap<ClientId, std::collections::BTreeMap<u64, ClientResponse>>,
    /// Requests currently executing; retransmissions of these are dropped
    /// (the client's timer re-asks until the cached response exists). This
    /// keeps slow multi-round operations like the rename 2PC from running
    /// twice concurrently for one op id, and gives shard migration a
    /// drain-barrier: the freeze waits until every op in flight at freeze
    /// time has finished (new ones are gated per-shard).
    pub in_flight_ops: FxHashSet<OpId>,
    /// Per-sender window of recently seen request packet sequences.
    /// Detects *network-duplicated* request packets (same `PacketSeq`;
    /// deliberate retransmissions carry fresh ones, §5.4.1): a delayed
    /// duplicate of an operation the client already acknowledged would
    /// otherwise re-execute, because its cached response was legitimately
    /// pruned by the acked watermark. Bounded: duplicates only arrive
    /// within the network's reorder window, so a short per-sender FIFO
    /// suffices.
    pub seen_request_pkts: FxHashMap<u32, FifoSet<u64>>,
    /// Shards currently frozen by an outbound live migration: requests
    /// touching them are dropped (clients retransmit; after the flip the
    /// retry is re-routed to the new owner).
    pub migrating_shards: std::collections::BTreeSet<u32>,
    /// Shard installs by `(source node, token)`. A retransmission racing
    /// the still-running first copy ([`InstallState::Applying`]) is dropped
    /// (the source's retransmission timer re-asks until the apply finished),
    /// exactly like in-flight client requests; one arriving after it
    /// ([`InstallState::Applied`]) is acked without double-appending the
    /// shard's pending change-log entries.
    pub installs: FxHashMap<(u32, u64), InstallState>,
    /// The dirty set of the fingerprints this server is the software
    /// tracker of ([`ServerConfig::software_tracker`]): used under
    /// owner-server tracking.
    pub dirty_set: ServerDirtySet,
    /// Per-fingerprint time of the last received proactive push, driving
    /// owner-side proactive aggregation.
    pub push_timers: FxHashMap<u64, SimTime>,
    /// Counter used to build fresh directory ids.
    pub dir_counter: u64,
    /// Counter for request tokens, aggregation ids and packet sequences.
    pub next_token: u64,
    /// Monotonic remove-sequence number for dirty-set removes (§5.4.1).
    pub remove_seq: u64,
    /// The token-matched waits: every exchange in which this server sent a
    /// request carrying a token and is waiting for whatever echoes it (a
    /// [`ServerMsg::Reply`], the switch's mirror copy of an asynchronous
    /// commit). A wait lives from [`Server::token_exchange`]'s send until
    /// [`Server::complete_token`] answers it and its exchange reads the
    /// answer, or until the copy's timeout, so the table is empty whenever
    /// the server is quiescent. A crash drops the table, which wakes every
    /// exchange still waiting; each then finds its copy unanswered.
    pub pending_tokens: Replies<TokenReply>,
    /// Aggregations in flight, keyed by aggregation id.
    pub pending_aggs: FxHashMap<u64, AggCollector>,
    /// The aggregation gate of every fingerprint group this server ran or
    /// awaited a round for, keyed by raw fingerprint. A gate's round is
    /// running for the whole owner-side aggregation (collection *and* apply
    /// phase); a shard migration's drain barrier waits on those.
    pub agg_gates: FxHashMap<u64, AggGate>,
    /// Remote-side aggregation lock holders waiting for the owner's ack,
    /// keyed by `(owner's node, aggregation id)`: the ids are per-owner
    /// counters.
    pub pending_agg_acks: FxHashMap<(NodeId, u64), oneshot::Sender<()>>,
    /// Rename transactions prepared on this participant, awaiting a decision.
    /// Durable: every entry has a matching WAL `TxnMarker::Prepared` record
    /// (cleared by `TxnMarker::Resolved`), so a crash between prepare and
    /// decision leaves an in-doubt transaction that recovery resolves by
    /// re-querying the coordinator instead of silently dropping it.
    pub prepared_txns: FxHashMap<u64, PreparedTxn>,
    /// The transactions this server coordinates, answering recovery-time
    /// decision queries: [`CoordinatorTxn::Voting`] (volatile) gets
    /// "undecided, ask again" rather than a premature presumed-abort,
    /// [`CoordinatorTxn::Committed`] is rebuilt from WAL `TxnMarker::Decided`
    /// records, and an absent transaction is presumed aborted.
    pub coordinated_txns: FxHashMap<u64, CoordinatorTxn>,
    /// WAL-append slow-down multiplier (chaos disk-latency spikes; 1 = no
    /// spike).
    pub disk_slowdown: u64,
    /// Transactions whose commit this participant fully applied; lets a
    /// retransmitted commit decision be acked if and only if the first copy
    /// finished applying (a copy racing a still-running apply is dropped).
    /// A set of its own, not a state of [`PreparedTxn`]: it outlives the
    /// prepared entry, and it is evicted by count, not by an event — a
    /// bounded FIFO, because duplicates only arrive within the
    /// coordinator's retry window.
    pub committed_txns: FifoSet<u64>,
    /// Where the server is in its life.
    pub liveness: Liveness,
    /// Whether the background loop should terminate. Not a [`Liveness`]: it
    /// applies in every state, and `Cluster::block_on` toggles it on every
    /// server around each run's quiescence.
    pub shutdown: bool,
    /// How many times [`ServerInner::reset_volatile`] ran: a handler that
    /// finds it changed across its awaits outlived a crash.
    pub incarnation: u64,
    /// Statistics.
    pub stats: ServerStats,
}

impl ServerInner {
    fn new() -> Self {
        ServerInner {
            inodes: KvStore::new(),
            entries: KvStore::new(),
            dir_index: FxHashMap::default(),
            changelogs: ChangeLogStore::new(),
            invalidation: FxHashSet::default(),
            entry_ids: FxHashMap::default(),
            retirement_order: VecDeque::new(),
            pending_discard_confirms: FxHashMap::default(),
            completed_ops: FxHashMap::default(),
            in_flight_ops: FxHashSet::default(),
            seen_request_pkts: FxHashMap::default(),
            migrating_shards: std::collections::BTreeSet::new(),
            installs: FxHashMap::default(),
            dirty_set: ServerDirtySet::default(),
            push_timers: FxHashMap::default(),
            dir_counter: 0,
            next_token: 1,
            remove_seq: 0,
            pending_tokens: Replies::default(),
            pending_aggs: FxHashMap::default(),
            agg_gates: FxHashMap::default(),
            pending_agg_acks: FxHashMap::default(),
            prepared_txns: FxHashMap::default(),
            coordinated_txns: FxHashMap::default(),
            disk_slowdown: 1,
            committed_txns: FifoSet::default(),
            liveness: Liveness::Serving,
            shutdown: false,
            incarnation: 0,
            stats: ServerStats::default(),
        }
    }

    /// Forgets everything a crash loses and enters recovery (a tombstone
    /// stays one). Everything not named here is reset, so a field
    /// added later is volatile by default. The survivors are identity
    /// counters (a reused token or directory id would collide with the
    /// previous incarnation's), the incarnation count itself, harness-set
    /// modes, lifetime statistics and the owner-tracking dirty set.
    pub(crate) fn reset_volatile(&mut self) {
        let mut old = std::mem::replace(self, ServerInner::new());
        // The stores restart empty but keep their access counters
        // (`KvStore::clear`), which registry rows read across recoveries.
        old.inodes.clear();
        old.entries.clear();
        *self = ServerInner {
            inodes: old.inodes,
            entries: old.entries,
            dir_counter: old.dir_counter,
            next_token: old.next_token,
            remove_seq: old.remove_seq,
            incarnation: old.incarnation + 1,
            disk_slowdown: old.disk_slowdown,
            liveness: match old.liveness {
                Liveness::Tombstone => Liveness::Tombstone,
                _ => Liveness::Recovering,
            },
            shutdown: old.shutdown,
            stats: old.stats,
            dirty_set: old.dirty_set,
            ..ServerInner::new()
        };
    }

    /// Applies one replayable effect to the volatile stores.
    pub fn apply_effect(&mut self, effect: &KvEffect) {
        match effect {
            KvEffect::PutInode(k, v) => {
                self.inodes.put(k.clone(), v.clone());
            }
            KvEffect::DeleteInode(k) => {
                self.inodes.delete(k);
            }
            KvEffect::PutEntry(dir, e) => {
                self.put_entry(*dir, e.clone());
            }
            KvEffect::DeleteEntry(dir, name) => {
                self.remove_entry(*dir, name);
            }
            KvEffect::IndexDir(id, key) => {
                self.dir_index.insert(*id, key.clone());
            }
            KvEffect::UnindexDir(id) => {
                self.dir_index.remove(id);
            }
            KvEffect::Invalidate(id) => {
                self.invalidation.insert(*id);
            }
            KvEffect::Revoke(id) => {
                self.invalidation.remove(id);
            }
        }
    }

    /// Inserts or replaces an entry in a directory's list, invalidating the
    /// directory's shared listing memo.
    pub fn put_entry(&mut self, dir: DirId, entry: DirEntry) {
        if let Some(content) = self.entries.get_mut_counted(&dir) {
            content.insert(entry);
        } else {
            let mut content = DirContent::default();
            content.insert(entry);
            self.entries.put(dir, content);
        }
    }

    /// Removes an entry from a directory's list, dropping the list once it
    /// becomes empty.
    pub fn remove_entry(&mut self, dir: DirId, name: &str) {
        let emptied = match self.entries.get_mut_counted(&dir) {
            Some(content) => {
                content.remove(name);
                content.is_empty()
            }
            None => false,
        };
        if emptied {
            self.entries.delete(&dir);
        }
    }

    /// True if `dir` currently lists an entry called `name`.
    pub fn entry_exists(&self, dir: &DirId, name: &str) -> bool {
        self.entries.peek(dir).is_some_and(|c| c.contains(name))
    }

    /// Stamps a directory's attributes with its size: the length of the
    /// entry list this server holds for it. The size is not stored — every
    /// reply carrying a directory's attributes passes through here, so it
    /// cannot disagree with the listing. Files pass through unchanged.
    pub fn with_dir_size(&self, mut attrs: InodeAttrs) -> InodeAttrs {
        if attrs.is_dir() {
            attrs.size = self.entries.peek(&attrs.id).map_or(0, |c| c.len() as u64);
        }
        attrs
    }

    /// The cached response of a completed operation, if still retained.
    pub fn cached_response(&self, op_id: &OpId) -> Option<&ClientResponse> {
        self.completed_ops.get(&op_id.client)?.get(&op_id.seq)
    }

    /// Caches a response for duplicate suppression, evicting the oldest
    /// entries past the per-client cap (op ids are per-client sequences, so
    /// the lowest sequence is the least likely to be retransmitted).
    pub fn cache_response(&mut self, response: ClientResponse) {
        let per = self.completed_ops.entry(response.op_id.client).or_default();
        per.insert(response.op_id.seq, response);
        while per.len() > COMPLETED_OPS_PER_CLIENT_CAP {
            let oldest = *per.keys().next().expect("cap overflow implies entries");
            per.remove(&oldest);
        }
    }

    /// Prunes every cached response of `client` below its piggybacked acked
    /// watermark: the client confirmed receipt of those responses and will
    /// never retransmit the operations.
    pub fn prune_completed(&mut self, client: ClientId, acked_below: u64) {
        if acked_below == 0 {
            return;
        }
        // In place: this runs on every request. An emptied map stays: with
        // one operation in flight, the client's next response would
        // allocate its node again.
        if let Some(per) = self.completed_ops.get_mut(&client) {
            while let Some(oldest) = per.first_entry() {
                if *oldest.key() >= acked_below {
                    break;
                }
                oldest.remove();
            }
        }
    }

    /// Total cached responses across all clients (test observability).
    pub fn completed_ops_len(&self) -> usize {
        self.completed_ops.values().map(|m| m.len()).sum()
    }

    /// True when a remote change-log entry was already applied here — still
    /// awaiting its holder's discard confirmation, or recently retired.
    pub fn entry_already_applied(&self, id: &OpId) -> bool {
        self.entry_ids.contains_key(id)
    }

    /// Marks remote entry ids applied. An id already retired stays retired
    /// (a partly duplicate batch re-applies it), keeping its place in the
    /// retirement order.
    pub fn note_entries_applied(&mut self, ids: &[OpId]) {
        // Reserves the way `HashMap::extend` does: a batch grows the table
        // at most once, not once per doubling.
        let (n, empty) = (ids.len(), self.entry_ids.is_empty());
        let additional = if empty { n } else { n.div_ceil(2) };
        self.entry_ids.reserve(additional);
        for &id in ids {
            self.entry_ids.entry(id).or_insert(EntryState::Applied);
        }
    }

    /// Retires entry ids one at a time (an id retired before keeps its
    /// place), each retirement evicting every id retired longer than
    /// [`RETIRED_ENTRY_RETENTION`] ago.
    pub fn retire_entry_ids(&mut self, ids: impl IntoIterator<Item = OpId>, now: SimTime) {
        for id in ids {
            if self.entry_ids.insert(id, EntryState::Retired) != Some(EntryState::Retired) {
                self.retirement_order.push_back((now, id));
            }
            while let Some(&(at, oldest)) = self.retirement_order.front() {
                if now.duration_since(at) <= RETIRED_ENTRY_RETENTION {
                    break;
                }
                self.retirement_order.pop_front();
                self.entry_ids.remove(&oldest);
            }
        }
    }

    /// Queues discard confirmations for `applier`, to ride on the next
    /// message that flows there. `applier == self` short-circuits to an
    /// immediate retire (the owner applied its own entries).
    pub fn queue_discard_confirm(
        &mut self,
        me: ServerId,
        applier: ServerId,
        now: SimTime,
        ids: impl IntoIterator<Item = OpId>,
    ) {
        if applier == me {
            self.retire_entry_ids(ids, now);
        } else {
            self.pending_discard_confirms
                .entry(applier)
                .or_default()
                .extend(ids);
        }
    }

    /// Takes the pending discard confirmations addressed to `applier` (to
    /// attach to an outgoing message).
    pub fn take_discard_confirms(&mut self, applier: ServerId) -> Vec<OpId> {
        self.pending_discard_confirms
            .remove(&applier)
            .unwrap_or_default()
    }

    /// Records a request packet's sequence number; returns false when this
    /// exact packet was already seen (a network duplicate to drop). The
    /// per-sender window is FIFO-bounded: duplicates arrive within the
    /// fabric's reorder window, far shorter than 128 packets.
    pub fn note_request_pkt(&mut self, sender: u32, seq: u64) -> bool {
        const PKT_WINDOW: usize = 128;
        let seen = self.seen_request_pkts.entry(sender).or_default();
        seen.insert(seq, PKT_WINDOW)
    }
}

/// What [`Server::wal_hand_over`] returns: a record the log holds and the
/// media may still lose. The only thing to do with it is to give it to
/// [`Server::wal_flush_and_apply`] once the disk wait has been charged —
/// not `Copy`, not `Clone`, no accessor — so an append without its flush
/// does not pass `-D warnings` (`docs/persist-order.md`, "The handle").
#[must_use = "an appended record is volatile until wal_flush_and_apply takes it"]
pub(crate) struct Unflushed(u64);

/// One SwitchFS metadata server, bound to a simulated network endpoint and
/// shared as `Rc<Server>`: each task that serves a packet holds one.
pub struct Server {
    pub(crate) handle: SimHandle,
    pub(crate) cpu: CpuPool,
    pub(crate) endpoint: Endpoint<NetMsg>,
    pub(crate) cfg: ServerConfig,
    pub(crate) inner: RefCell<ServerInner>,
    /// The crash-surviving WAL/checkpoint bundle: a crash resets `inner`
    /// and leaves this as the media left it.
    pub(crate) durable: RefCell<DurableState>,
    pub(crate) locks: LockManager,
}

impl Server {
    /// Creates a server bound to `endpoint`, with an empty WAL and no
    /// checkpoint.
    pub fn new(handle: SimHandle, endpoint: Endpoint<NetMsg>, cfg: ServerConfig) -> Rc<Self> {
        let cpu = CpuPool::new(handle.clone(), cfg.cores);
        Rc::new(Server {
            handle,
            cpu,
            endpoint,
            cfg,
            inner: RefCell::new(ServerInner::new()),
            durable: RefCell::new(DurableState::new()),
            locks: LockManager::default(),
        })
    }

    /// This server's identity.
    pub fn id(&self) -> ServerId {
        self.cfg.id
    }

    /// This server's network node.
    pub fn node(&self) -> NodeId {
        self.cfg.node_of(self.cfg.id)
    }

    /// The crash-surviving WAL and checkpoint. A borrow of it must not be
    /// held while the simulation runs: the server appends to it.
    pub fn durable(&self) -> &RefCell<DurableState> {
        &self.durable
    }

    /// Snapshot of the server's counters.
    pub fn stats(&self) -> ServerStats {
        self.inner.borrow().stats
    }

    /// Combined counters of the server's KV stores (inode + entry-list).
    pub fn kv_stats(&self) -> switchfs_kvstore::KvStats {
        let inner = self.inner.borrow();
        let mut stats = inner.inodes.stats();
        stats += inner.entries.stats();
        stats
    }

    /// Number of change-log entries waiting to be applied remotely.
    pub fn pending_changelog_entries(&self) -> usize {
        self.inner.borrow().changelogs.total_pending()
    }

    /// Number of inodes stored on this server.
    pub fn inode_count(&self) -> usize {
        self.inner.borrow().inodes.len()
    }

    /// Number of prepared-but-undecided transactions staged on this server
    /// (test/chaos observability).
    pub fn prepared_txn_count(&self) -> usize {
        self.inner.borrow().prepared_txns.len()
    }

    /// Number of token-matched exchanges this server is still waiting on;
    /// zero whenever the server is quiescent (test/chaos observability).
    pub fn pending_token_count(&self) -> usize {
        self.inner.borrow().pending_tokens.len()
    }

    /// Tasks queued for or holding one of this server's fingerprint-group
    /// locks, or parked at an aggregation gate as followers; zero whenever
    /// the server is quiescent (test/chaos observability).
    pub fn fp_group_waiter_count(&self) -> usize {
        let gates = &self.inner.borrow().agg_gates;
        self.locks.fp_group_waiters() + gates.values().map(AggGate::followers).sum::<usize>()
    }

    /// Tasks holding or queued for one of this server's inode, change-log or
    /// fingerprint-group locks; zero whenever the server is quiescent
    /// (test/chaos observability).
    pub fn locks_in_use(&self) -> usize {
        self.locks.in_use()
    }

    /// Locks in this server's lock tables, in use or not yet swept; each
    /// table sweeps its unused locks before it outgrows
    /// [`SWEEP_FLOOR`](crate::locks::SWEEP_FLOOR) or twice the locks in use
    /// at its last sweep (test observability).
    pub fn tabled_lock_count(&self) -> usize {
        self.locks.tabled()
    }

    /// Total duplicate-suppression cache entries across all clients
    /// (test observability for the bounded-dedup guarantee).
    pub fn completed_op_count(&self) -> usize {
        self.inner.borrow().completed_ops_len()
    }

    /// Client operations this server is executing; zero whenever it is
    /// quiescent (test/chaos observability).
    pub fn in_flight_op_count(&self) -> usize {
        self.inner.borrow().in_flight_ops.len()
    }

    /// Applied-but-unconfirmed remote change-log entry ids currently held
    /// (test observability for the bounded entry-id table).
    pub fn applied_entry_id_count(&self) -> usize {
        let inner = self.inner.borrow();
        inner.entry_ids.len() - inner.retirement_order.len()
    }

    /// Retired (holder-confirmed) entry ids currently held until their
    /// retention expires.
    pub fn retired_entry_id_count(&self) -> usize {
        self.inner.borrow().retirement_order.len()
    }

    /// Number of shards currently frozen by outbound migrations.
    pub fn migrating_shard_count(&self) -> usize {
        self.inner.borrow().migrating_shards.len()
    }

    /// Sets the WAL-append slow-down multiplier (chaos disk-latency spikes;
    /// 1 restores normal speed).
    pub fn set_disk_slowdown(&self, mult: u64) {
        self.inner.borrow_mut().disk_slowdown = mult.max(1);
    }

    /// Lists a directory's entry names directly (test/verification helper).
    pub fn peek_entries(&self, dir: &DirId) -> Vec<String> {
        let inner = self.inner.borrow();
        inner
            .entries
            .peek(dir)
            .map(|c| c.iter().map(|e| e.name.to_string()).collect())
            .unwrap_or_default()
    }

    /// Starts the server: spawns the packet loop and the proactive
    /// push/aggregation loop.
    pub fn start(self: &Rc<Self>) {
        let me = self.clone();
        self.handle.spawn(async move { me.run_loop().await });
        let me = self.clone();
        self.handle.spawn(async move { me.proactive_loop().await });
    }
}

/// The request bracket: the future of a client request's task, which runs
/// `$serve` — the class's handler, giving its `Option<OpResult>` — between
/// [`Server::begin_request`] and [`Server::end_request`]. A macro, not a
/// function taking the handler as a closure, so that the task holds nothing
/// between the bracket and the handler's future: a packet allocates its
/// task's future, whose size every workload's bytes per operation shows.
macro_rules! request_task {
    ($me:ident, $client_node:ident, $req:ident, $pkt:ident, $serve:expr) => {
        async move {
            let Some(incarnation) = $me.begin_request($client_node, &$req, $pkt).await else {
                return;
            };
            let result = $serve;
            $me.end_request($client_node, &$req, incarnation, result);
        }
    };
}

/// The server gate: the future of a server message's task, which drops the
/// message when the server is crashed or a redirect tombstone (stray
/// traffic addressed to the previous incarnation), and runs `$serve`
/// otherwise. The gate passes at the task's first poll. The answered form
/// serves a [`Request`]: `$serve` gives its `Option<Reply>`, sent back to
/// `$src` under `$req_id`, or `None` to leave it unanswered. (The reply is
/// bound before it is sent: a `RefCell` borrow in `$serve`'s tail would
/// otherwise live into the send.)
macro_rules! server_task {
    ($me:ident, $src:ident, $req_id:ident, $serve:expr) => {
        server_task!($me, {
            let reply: Option<Reply> = $serve;
            if let Some(reply) = reply {
                $me.send_reply($src, $req_id, reply);
            }
        })
    };
    ($me:ident, $serve:expr) => {
        async move {
            if !matches!(
                $me.inner.borrow().liveness,
                Liveness::Crashed | Liveness::Tombstone
            ) {
                $serve;
            }
        }
    };
}

impl Server {
    async fn run_loop(self: &Rc<Self>) {
        loop {
            let pkt = self.endpoint.recv().await;
            if self.is_crashed() {
                continue;
            }
            self.deliver(pkt.src, pkt.payload);
        }
    }

    /// Spawns the one task that serves a packet from `src`: the future of
    /// the handler the packet names — by its body, a client request's
    /// operation class, a server message's variant — in its bracket
    /// ([`request_task!`] or [`server_task!`]), boxed once, by the spawn.
    /// Each variant gets a task of its own, sized for its own handler.
    /// Nothing here reads the server's state: each task passes its gate and
    /// makes its reads at its first poll, so a crash in the instant the
    /// packet arrives drops it. A body that nothing serves still gets its
    /// (empty) task: with one task per packet, every later task keeps its
    /// id. Returns that task's id.
    ///
    /// A request from a server is answered by its handler's reply. The
    /// replica writes and the prepare pass [`Server::admit`]: a refused
    /// replica write answers `Unavailable`, which its sender re-routes on,
    /// and a refused prepare votes no. A [`Request::ShardInstall`] copy
    /// racing its first copy's apply, a [`Request::TxnPrepare`] from a node
    /// that is not a metadata server and a retransmitted
    /// [`Request::TxnDecision`] racing a still-running apply go unanswered:
    /// their senders re-ask until the first copy finished.
    fn deliver(self: &Rc<Self>, src: NodeId, msg: NetMsg) -> TaskId {
        const DONE: Option<Reply> = Some(Reply::Done(Ok(())));
        let NetMsg {
            dirty,
            pkt_seq,
            body,
            ..
        } = msg;
        let dirty_ret = dirty.map(|h| h.ret);
        let handle = &self.handle;
        let msg = match body {
            Body::Request(req) => return self.deliver_request(src, req, Some(pkt_seq), dirty_ret),
            Body::Server(msg) => msg,
            Body::Response(_) | Body::Empty => return handle.spawn(async {}),
        };
        let me = self.clone();
        match msg {
            ServerMsg::Request { req_id, req } => match req {
                // The baselines' parent update, and an overflow's once the
                // rewriter's target refused or never answered.
                Request::RemoteDirUpdate {
                    dir_key,
                    entry,
                    discard_confirm,
                } => handle.spawn(server_task!(me, src, req_id, {
                    me.retire_confirmed(discard_confirm);
                    let update = me
                        .apply_dir_update(&dir_key, &[&entry], DirUpdateSource::Remote)
                        .await;
                    Some(Reply::Done(update))
                })),
                // Acked once the decision is fully applied — by this copy or
                // a previously completed one; an abort always is.
                Request::TxnDecision { txn_id, commit } => {
                    handle.spawn(server_task!(me, src, req_id, {
                        let applied = me.handle_txn_decision(txn_id, commit).await;
                        applied.then_some(Reply::Done(Ok(())))
                    }))
                }
                Request::DirtySet { op, fp } => handle.spawn(server_task!(me, src, req_id, {
                    // The owner's CPU pays for every remote dirty-set
                    // operation: the overhead Fig. 16 quantifies.
                    me.cpu.run(me.cfg.costs.software_path).await;
                    Some(Reply::Dirty(me.inner.borrow_mut().dirty_set.apply(op, fp)))
                })),
                // Logged like the `Invalidate` it undoes, or a replay would
                // re-apply that one alone; acknowledged once the record is
                // flushed.
                Request::InvalidationRevoke { dir_id } => {
                    handle.spawn(server_task!(me, src, req_id, {
                        me.log_record(WalOp::local(None, vec![KvEffect::Revoke(dir_id)]))
                            .await;
                        DONE
                    }))
                }
                Request::TxnPrepare { txn_id, ops } => handle.spawn(server_task!(
                    me,
                    src,
                    req_id,
                    me.handle_txn_prepare(src, txn_id, ops).await
                )),
                Request::TxnDecisionQuery { txn_id } => {
                    handle.spawn(server_task!(me, src, req_id, {
                        Some(me.handle_txn_decision_query(txn_id).await)
                    }))
                }
                // The replica writes of a baseline `mkdir` and `rmdir` under
                // grouping ([`Server::write_replica`]).
                req @ (Request::InitDirContent { .. } | Request::DeleteAccessReplica { .. }) => {
                    handle.spawn(server_task!(me, src, req_id, {
                        me.cpu.run(me.cfg.costs.software_path).await;
                        let (role, effects) = me.replica_write(&req);
                        match me.admit(Some(role), || None) {
                            Admit::Serve => {
                                me.log_record(WalOp::local(None, effects)).await;
                                DONE
                            }
                            Admit::Frozen | Admit::NotMine => {
                                Some(Reply::Done(Err(FsError::Unavailable)))
                            }
                        }
                    }))
                }
                Request::TypeProbe { key } => handle.spawn(server_task!(me, src, req_id, {
                    me.cpu
                        .run(me.cfg.costs.software_path + me.cfg.costs.kv_get)
                        .await;
                    let file_type = me
                        .inner
                        .borrow_mut()
                        .inodes
                        .get_ref(&key)
                        .map(|a| a.file_type);
                    Some(Reply::Type(file_type))
                })),
                Request::ShardInstall { shard, image } => {
                    handle.spawn(server_task!(me, src, req_id, {
                        me.handle_shard_install(src, req_id, shard, image).await
                    }))
                }
            },
            // A rename re-routed by the source's per-file-hash owner: served
            // as if the client had sent it here, replying to the client
            // directly. Duplicate suppression keys on the unchanged op id,
            // so client retransmissions (which are forwarded again) collapse
            // onto one execution.
            ServerMsg::ForwardedRequest { client_node, req } => {
                self.deliver_request(NodeId(client_node), req, None, dirty_ret)
            }
            // What the switch made of an asynchronous commit's insert: on
            // overflow, the commit rewritten to the parent's owner, which
            // serves it as the synchronous parent update it falls back to
            // (§5.2.1), under the commit's token; otherwise the mirror copy
            // back at the origin, which completes the token, or its source.
            ServerMsg::AsyncCommit {
                op_token,
                fallback: SyncFallback { dir_key, entry },
                ..
            } => match dirty_ret {
                Some(DirtyRet::Overflowed) => handle.spawn(server_task!(me, src, op_token, {
                    let update = me
                        .apply_dir_update(&dir_key, &[&entry], DirUpdateSource::Remote)
                        .await;
                    Some(Reply::Done(update))
                })),
                _ => handle.spawn(server_task!(me, {
                    if dirty_ret == Some(DirtyRet::Inserted) && src == me.node() {
                        me.complete_token(op_token, TokenReply::Mirrored);
                    }
                })),
            },
            ServerMsg::AggregationRequest {
                fp,
                agg_id,
                invalidate,
            } => handle.spawn(server_task!(me, {
                me.handle_aggregation_request(src, fp, agg_id, invalidate)
                    .await
            })),
            ServerMsg::ChangeLogPush {
                dir_key,
                entries,
                discard_confirm,
            } => handle.spawn(server_task!(me, {
                me.retire_confirmed(discard_confirm);
                me.handle_changelog_push(src, dir_key, entries).await;
            })),
            ServerMsg::AggregationEntries {
                agg_id,
                entries,
                discard_confirm,
            } => handle.spawn(server_task!(me, {
                me.retire_confirmed(discard_confirm);
                me.handle_aggregation_entries(src, agg_id, entries);
            })),
            ServerMsg::AggregationAck { agg_id } => {
                handle.spawn(server_task!(me, me.handle_aggregation_ack(src, agg_id)))
            }
            ServerMsg::ChangeLogPushAck { dir_key, applied } => {
                handle.spawn(server_task!(me, me.handle_push_ack(src, dir_key, applied)))
            }
            ServerMsg::Reply { req_id, reply } => handle.spawn(server_task!(me, {
                me.complete_token(req_id, TokenReply::Server(reply))
            })),
            ServerMsg::InvalidationBroadcast { dir_id } => handle.spawn(server_task!(me, {
                let record = WalOp::local(None, vec![KvEffect::Invalidate(dir_id)]);
                me.log_record(record).await;
            })),
            ServerMsg::RecoveryCloneInvalidation => handle.spawn(server_task!(me, {
                let list = me.inner.borrow().invalidation.iter().copied().collect();
                me.send_plain(
                    src,
                    Body::Server(ServerMsg::RecoveryInvalidationList { list }),
                );
            })),
            ServerMsg::RecoveryInvalidationList { list } => handle.spawn(server_task!(me, {
                me.inner.borrow_mut().invalidation.extend(list)
            })),
        }
    }

    /// Spawns a client request's task, one kind per operation class, each
    /// its class's handler in the request bracket: no task is as large as
    /// the largest class. `pkt` is the packet's sequence when the client
    /// sent the request itself, `None` when a server forwarded it.
    fn deliver_request(
        self: &Rc<Self>,
        client_node: NodeId,
        req: Rc<ClientRequest>,
        pkt: Option<PacketSeq>,
        dirty_ret: Option<DirtyRet>,
    ) -> TaskId {
        let (me, handle) = (self.clone(), &self.handle);
        match req.op {
            MetaOp::Create { .. } | MetaOp::Delete { .. } | MetaOp::Mkdir { .. } => {
                handle.spawn(request_task!(me, client_node, req, pkt, {
                    me.handle_double_inode(client_node, &req).await
                }))
            }
            MetaOp::Rmdir { .. } => handle.spawn(request_task!(me, client_node, req, pkt, {
                me.handle_rmdir(client_node, &req).await
            })),
            MetaOp::Statdir { .. } | MetaOp::Readdir { .. } => {
                handle.spawn(request_task!(me, client_node, req, pkt, {
                    Some(me.handle_dir_read(&req, dirty_ret).await)
                }))
            }
            MetaOp::Rename { .. } => handle.spawn(request_task!(me, client_node, req, pkt, {
                me.handle_rename(client_node, &req).await
            })),
            _ => handle.spawn(request_task!(me, client_node, req, pkt, {
                Some(me.handle_single_inode(&req).await)
            })),
        }
    }

    /// The checks a client request passes on its way to its handler, run at
    /// its task's first poll: the liveness gate, the packet-duplicate filter
    /// (for a packet the client sent itself), the in-flight and completion
    /// caches, availability, the migration freeze, ownership and an overdue
    /// rename's staging. Returns the incarnation the handler runs in, with
    /// the operation marked in flight, or `None` when the request was
    /// answered or dropped here.
    async fn begin_request(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
        pkt: Option<PacketSeq>,
    ) -> Option<u64> {
        let liveness = self.inner.borrow().liveness;
        match liveness {
            Liveness::Crashed => return None,
            // Redirect tombstone: the server owns nothing and serves
            // nothing, but a client that still routes here with a
            // pre-shrink map gets the current map back instead of a
            // timeout — the ordinary WrongOwner refresh-and-retry path. A
            // forwarded request (server-to-server traffic addressed to the
            // previous incarnation) is dropped.
            Liveness::Tombstone => {
                if pkt.is_some() {
                    self.reject_wrong_owner(client_node, req);
                }
                return None;
            }
            _ => {}
        }
        // Network-duplicate suppression below the op-level cache: a delayed
        // duplicate of an already-acknowledged operation must not
        // re-execute after the acked watermark pruned its cached response.
        // Retransmissions carry fresh packet sequences and pass through.
        if let Some(PacketSeq { sender, seq }) = pkt {
            if !self.inner.borrow_mut().note_request_pkt(sender, seq) {
                return None;
            }
        }
        if self.inner.borrow().in_flight_ops.contains(&req.op_id) {
            // Already executing (a retransmission raced a slow operation,
            // e.g. the rename 2PC): drop it; the client keeps re-asking and
            // gets the cached response once the first execution replies.
            // Checked BEFORE the completion cache: a double-inode operation
            // records its completion before it has marked its parent (or, on
            // overflow, before the owner applied the update), and a reply
            // from the cache would let the client's next read miss it.
            // Checked BEFORE the availability gate: a stop-the-world window
            // (switch-reboot re-aggregation, §5.5) does not kill in-flight
            // handlers, and answering their retransmissions with
            // `Unavailable` would tell the client "nothing happened" about
            // an operation that is still happening (the chaos checker flags
            // the resulting phantom mutation).
            return None;
        }
        // Duplicate suppression: a retransmitted request of a finished
        // operation gets the cached response back without re-executing.
        // (Bind the lookup first so the RefCell borrow is released before
        // sending.)
        let cached = self.inner.borrow().cached_response(&req.op_id).cloned();
        if let Some(resp) = cached {
            self.send_plain(client_node, Body::Response(resp));
            return None;
        }
        // The piggybacked watermark bounds the dedup cache: everything this
        // client acknowledged receiving can never be retransmitted again.
        self.inner
            .borrow_mut()
            .prune_completed(req.op_id.client, req.acked_below);
        if self.inner.borrow().liveness != Liveness::Serving {
            self.reply(
                client_node,
                &req.op,
                req.op_id,
                OpResult::Err(FsError::Unavailable),
            );
            return None;
        }
        // Both checks below are off the hot path: shard classification runs
        // only while an outbound migration is active, and the ownership
        // re-check only when the client's map epoch is stale. A request may
        // touch any of its key's [`key_hashes`], or a locally-known
        // directory id (the content role under grouping).
        let key = req.op.primary_key();
        let touched = || {
            let dir_id = self.inner.borrow().inodes.peek(key).map(|a| a.id.hash64());
            key_hashes(key).into_iter().chain(dir_id)
        };
        if self.admit(None, touched) == Admit::Frozen {
            // Drop the request; the client's retransmission lands after the
            // flip and is either served here (shard kept) or rejected with
            // the new map (shard moved).
            return None;
        }
        if req.epoch != self.cfg.placement.map().epoch() && !self.may_own(&req.op) {
            // Routed with a stale shard map after the target shard moved
            // away.
            self.reject_wrong_owner(client_node, req);
            return None;
        }
        if let Some(txn_id) = self.overdue_txn_staging(req.op.primary_key()) {
            // The rename that staged this key here may already be `Done` at
            // its client, and this server has not applied it: ask its
            // coordinator instead of answering from the state before it.
            // The client's retransmission finds the transaction resolved.
            // Boxed: a rare branch, kept out of every request's task.
            Box::pin(self.resolve_prepared_txn(txn_id)).await;
            return None;
        }
        let incarnation = self.inner.borrow().incarnation;
        self.inner.borrow_mut().in_flight_ops.insert(req.op_id);
        self.trace_event(
            Some(TraceId::of_op(req.op_id)),
            EventKind::Dispatch { op: req.op_id },
        );
        Some(incarnation)
    }

    /// A client request's end, once its handler returned `result` in the
    /// task that [`Server::begin_request`] let through at `incarnation`.
    /// `None` means the operation replies through the switch multicast
    /// (asynchronous commit) or its handler already replied.
    fn end_request(
        &self,
        client_node: NodeId,
        req: &ClientRequest,
        incarnation: u64,
        result: Option<OpResult>,
    ) {
        if self.inner.borrow().incarnation != incarnation {
            // Parked across a crash, this handler resumed in the next
            // incarnation and may have read its half-replayed stores: it
            // neither answers nor clears an in-flight entry, which is now a
            // retransmission's. The client retransmits.
            return;
        }
        self.inner.borrow_mut().in_flight_ops.remove(&req.op_id);
        if let Some(result) = result {
            self.reply(client_node, &req.op, req.op_id, result);
        }
    }

    /// Answers a request this server does not (or no longer) own with the
    /// current shard map, for the client's refresh-and-retry.
    fn reject_wrong_owner(&self, client_node: NodeId, req: &ClientRequest) {
        self.inner.borrow_mut().stats.wrong_owner_rejects += 1;
        self.trace_event(
            Some(TraceId::of_op(req.op_id)),
            EventKind::WrongOwner {
                op: req.op_id,
                client_epoch: req.epoch,
            },
        );
        self.send_plain(
            client_node,
            Body::Response(ClientResponse {
                op_id: req.op_id,
                result: OpResult::WrongOwner {
                    map: self.cfg.placement.map().clone(),
                },
            }),
        );
    }

    /// Ownership check for stale-epoch requests under the *current* map:
    /// what [`Placement::accepts`], plus the one clause only a server can
    /// evaluate — under grouping a directory's content replica is addressed
    /// by an id the request does not carry, so a replica stored here is
    /// accepted.
    fn may_own(&self, op: &MetaOp) -> bool {
        let placement = &self.cfg.placement;
        placement.accepts(op, self.cfg.id)
            || !placement.is_separation() && self.inner.borrow().inodes.contains(op.primary_key())
    }

    /// Records a completed operation's response for duplicate suppression.
    /// A mutating operation's is logged — applying the record caches it — so
    /// that a retransmission that spans a crash gets the original result,
    /// not a re-execution; it rides the group commit already charged to the
    /// operation's own append, so it costs no extra simulated latency, and
    /// it is flushed here because the caller is about to release the
    /// acknowledgment: a completion still in the volatile tail would be
    /// exactly the torn-tail casualty that turns the retransmission into a
    /// re-execution. A read's response is only cached.
    pub(crate) fn record_completion(&self, op: &MetaOp, response: &ClientResponse) {
        if op.is_double_inode() || matches!(op, MetaOp::Chmod { .. } | MetaOp::Rename { .. }) {
            // Not `log_record`: the append is already charged, and no await.
            let lsn = self.wal_hand_over(WalOp::Completed(response.clone()));
            self.wal_flush_and_apply(lsn);
        } else {
            self.inner.borrow_mut().cache_response(response.clone());
        }
    }
}

impl Server {
    // ------------------------------------------------------------------
    // Single-inode operations (§5.2: performed synchronously).
    // ------------------------------------------------------------------

    async fn handle_single_inode(&self, req: &ClientRequest) -> OpResult {
        let costs = self.cfg.costs;
        self.cpu.run(costs.request_overhead()).await;
        if self.is_stale(&req.ancestors) {
            return OpResult::Err(FsError::StaleCache);
        }
        let key = req.op.primary_key().clone();
        match &req.op {
            MetaOp::Stat { .. }
            | MetaOp::Open { .. }
            | MetaOp::Lookup { .. }
            | MetaOp::Close { .. } => {
                let lock = self.locks.inode(&key);
                let _g = lock.read().await;
                self.cpu.run(costs.lock_op + costs.kv_get).await;
                let mut inner = self.inner.borrow_mut();
                match inner.inodes.get(&key) {
                    Some(attrs) => OpResult::Attrs(inner.with_dir_size(attrs)),
                    None => OpResult::Err(FsError::NotFound),
                }
            }
            MetaOp::Chmod { mode, .. } => {
                let lock = self.locks.inode(&key);
                let _g = lock.write().await;
                self.cpu.run(costs.lock_op + costs.kv_get).await;
                let existing = self.inner.borrow_mut().inodes.get(&key);
                let Some(mut attrs) = existing else {
                    return OpResult::Err(FsError::NotFound);
                };
                attrs.perm.mode = *mode;
                attrs.times.ctime = self.now_ns();
                let effects = vec![KvEffect::PutInode(key.clone(), attrs.clone())];
                self.log_record(WalOp::local(Some(req.op_id), effects))
                    .await;
                OpResult::Done
            }
            _ => OpResult::Err(FsError::NotFound),
        }
    }

    // ------------------------------------------------------------------
    // Helpers shared by the operation modules.
    // ------------------------------------------------------------------

    /// Current virtual time in nanoseconds (used as the timestamp source).
    pub(crate) fn now_ns(&self) -> u64 {
        self.handle.now().as_nanos()
    }

    /// True when the observability layer is recording. Instrumentation
    /// sites check this before computing event payloads, so a disabled run
    /// pays one branch per site.
    #[inline]
    pub(crate) fn obs_on(&self) -> bool {
        self.cfg.obs.on()
    }

    /// Records a flight-recorder event stamped with virtual time, this
    /// server's node and the current placement epoch. Pure reads plus a
    /// ring-buffer write: never touches protocol state, stats or the
    /// schedule, so the replay digest is identical with tracing on or off.
    pub(crate) fn trace_event(&self, trace: Option<TraceId>, kind: EventKind) {
        if !self.obs_on() {
            return;
        }
        self.cfg.obs.record(TraceEvent {
            at_ns: self.now_ns(),
            node: self.node().0,
            epoch: self.cfg.placement.map().epoch(),
            trace,
            kind,
        });
    }

    /// True if any ancestor directory appears in the invalidation list.
    pub(crate) fn is_stale(&self, ancestors: &[DirId]) -> bool {
        let inner = self.inner.borrow();
        ancestors.iter().any(|a| inner.invalidation.contains(a))
    }

    /// The server identity hosted on `node`, if it is a metadata server:
    /// the inverse of [`ServerId::node`], which puts server `i` on node `i`.
    pub(crate) fn server_id_of(&self, node: NodeId) -> Option<ServerId> {
        ((node.0 as usize) < self.cfg.num_servers()).then_some(ServerId(node.0))
    }

    /// Retires entry ids whose holders confirmed the durable discard
    /// (piggybacked on an incoming push / aggregation reply / remote
    /// update). Pure state motion — no modeled cost, no packets.
    pub(crate) fn retire_confirmed(&self, ids: Vec<OpId>) {
        for &id in &ids {
            let trace = Some(TraceId::of_op(id));
            self.trace_event(trace, EventKind::DiscardConfirm { entry: id });
        }
        let now = self.handle.now();
        self.inner.borrow_mut().retire_entry_ids(ids, now);
    }

    /// Holder side of "these entries were applied by their directory's
    /// owner": drops them from the change-logs (`drop_from_logs` says where
    /// they sit — a fingerprint group, one directory's push window, one
    /// directory — and returns how many it removed), marks that many WAL
    /// records applied so a recovery does not rebuild them, and — the
    /// discard now being durable — queues the discard confirmation for
    /// `applier`, the server that holds the ids in its duplicate-suppression
    /// set, to ride on the next message that flows there. `None` when that
    /// server is unknown or confirmed nothing.
    ///
    /// `ids` may name more than was removed — an owner's round passes the
    /// remote entries it applied too, an acknowledgment names entries a
    /// racing round already discarded — and only a removed entry has an
    /// unapplied record here, so the walk back from the WAL's tail stops at
    /// the oldest of those; a call that removed nothing walks nothing. (That
    /// distance is inherent until a change-log entry carries its LSN.)
    pub(crate) fn discard_applied_entries<R>(
        &self,
        drop_from_logs: impl FnOnce(&mut ChangeLogStore) -> (usize, R),
        ids: &FxHashSet<OpId>,
        applier: Option<ServerId>,
    ) -> R {
        let (removed, out) = drop_from_logs(&mut self.inner.borrow_mut().changelogs);
        self.durable
            .borrow_mut()
            .wal
            .mark_applied_where(removed, |rec| {
                matches!(rec, WalOp::Effects { pending_entry: Some((_, e)), .. }
                    if ids.contains(&e.entry_id))
            });
        if let Some(applier) = applier {
            let now = self.handle.now();
            self.inner.borrow_mut().queue_discard_confirm(
                self.cfg.id,
                applier,
                now,
                ids.iter().copied(),
            );
        }
        out
    }

    /// Allocates a fresh token / aggregation id.
    pub(crate) fn next_token(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let t = inner.next_token;
        inner.next_token += 1;
        t
    }

    /// Allocates the next dirty-set remove sequence number (§5.4.1).
    pub(crate) fn next_remove_seq(&self) -> u64 {
        let mut inner = self.inner.borrow_mut();
        inner.remove_seq += 1;
        inner.remove_seq
    }

    fn next_pkt_seq(&self) -> PacketSeq {
        PacketSeq {
            sender: self.node().0,
            seq: self.next_token(),
        }
    }

    /// Sends a plain (no dirty-set header) packet.
    pub(crate) fn send_plain(&self, dst: NodeId, body: Body) {
        let msg = NetMsg::plain(self.next_pkt_seq(), body);
        self.endpoint.send(dst, msg);
    }

    /// Sends a packet carrying a dirty-set operation header.
    pub(crate) fn send_dirty(&self, dst: NodeId, hdr: switchfs_proto::DirtySetHeader, body: Body) {
        let msg = NetMsg::with_dirty(self.next_pkt_seq(), hdr, body);
        self.endpoint.send(dst, msg);
    }

    /// Sends a response to a client and records it for duplicate
    /// suppression. The completion record is made durable *before* the
    /// acknowledgment escapes: an ack that outruns its completion record
    /// would be re-executed (not answered from the dedup cache) by a
    /// recovered server when the client gives up waiting and retransmits.
    pub(crate) fn reply(&self, client_node: NodeId, op: &MetaOp, op_id: OpId, result: OpResult) {
        let response = self.make_response(op_id, result);
        if !response.result.is_ok() {
            self.inner.borrow_mut().stats.ops_failed += 1;
        }
        self.record_completion(op, &response);
        self.send_plain(client_node, Body::Response(response));
    }

    /// Builds the response object without sending or recording it (the
    /// asynchronous commit path lets the switch deliver it).
    pub(crate) fn make_response(&self, op_id: OpId, result: OpResult) -> ClientResponse {
        self.inner.borrow_mut().stats.ops_completed += 1;
        ClientResponse { op_id, result }
    }

    /// Answers the request that carried `req_id`.
    fn send_reply(&self, dst: NodeId, req_id: u64, reply: Reply) {
        self.send_plain(dst, Body::Server(ServerMsg::Reply { req_id, reply }));
    }

    /// Completes a token-matched wait, if still registered.
    pub(crate) fn complete_token(&self, token: u64, reply: TokenReply) {
        self.inner
            .borrow_mut()
            .pending_tokens
            .complete(token, reply);
    }

    /// The one retransmission loop (§5.4.1): per copy, `wait` registers the
    /// wait the copy's answer completes and returns it, and `send` puts the
    /// copy on the wire; the loop gives the wait [`Retry::wait`] and calls
    /// `expired` when it ends unanswered. Every copy after the first counts
    /// as a retransmission. Returns `None` once [`Retry::budget`] is spent.
    pub(crate) async fn exchange<T, W: Future<Output = Option<T>>>(
        &self,
        retry: Retry,
        mut wait: impl FnMut() -> W,
        mut send: impl AsyncFnMut(),
        mut expired: impl FnMut(),
    ) -> Option<T> {
        for n in 0..retry.sends {
            if n > 0 {
                self.inner.borrow_mut().stats.retransmissions += 1;
            }
            let reply = wait();
            send().await;
            let after = self.cfg.costs.request_timeout * retry.wait(n);
            if let Some(Some(reply)) = timeout(&self.handle, after, reply).await {
                return Some(reply);
            }
            expired();
        }
        None
    }

    /// An exchange answered through the token table: each copy's wait is
    /// registered under `token` (which `send` must put on the wire) for
    /// [`Server::complete_token`], and leaves the table when it ends, so
    /// the table holds exactly the exchanges in progress; a late reply to an
    /// earlier copy completes the next one's.
    pub(crate) fn token_exchange<'a>(
        &'a self,
        token: u64,
        retry: Retry,
        send: impl Fn() + 'a,
    ) -> impl Future<Output = Option<TokenReply>> + 'a {
        let table = || RefMut::map(self.inner.borrow_mut(), |i| &mut i.pending_tokens);
        self.exchange(
            retry,
            move || Wait::new(table, token),
            async move || send(),
            || {},
        )
    }

    /// Asks `dst` one [`Request`] and waits for the answer under `retry`:
    /// draws the request's token and sends each copy in a
    /// [`ServerMsg::Request`] under it. `req` builds each copy — a packet
    /// owns what it carries. `None` once the budget is spent.
    pub(crate) async fn ask(
        &self,
        dst: NodeId,
        retry: Retry,
        req: impl Fn() -> Request,
    ) -> Option<TokenReply> {
        let req_id = self.next_token();
        self.token_exchange(req_id, retry, || {
            self.send_plain(dst, Body::Server(ServerMsg::Request { req_id, req: req() }))
        })
        .await
    }

    /// Logs one record durably: hands it to the WAL, charges the disk wait
    /// — one append, plus one put per effect (at least one) for
    /// [`WalOp::Effects`] — then flushes and applies it. That is the
    /// record's whole storage charge: callers charge only their locks, reads
    /// and software path. The record is durable and applied on return. Three
    /// sites use the two halves directly: the batch applier's compacted arm
    /// (one append and one put, the entry puts spread over the cores), and
    /// `record_completion` and the install's completion loop (each rides on
    /// an append already charged and must not await).
    pub(crate) async fn log_record(&self, record: impl Into<WalOp>) {
        // Ends before the await, so the caller's future does not carry the record.
        let (lsn, cost) = {
            let record = record.into();
            let puts = match &record {
                WalOp::Effects { effects, .. } => effects.len().max(1) as u64,
                _ => 0,
            };
            let lsn = self.wal_hand_over(record);
            (lsn, self.wal_append_cost() + self.cfg.costs.kv_put * puts)
        };
        self.cpu.run(cost).await;
        self.wal_flush_and_apply(lsn);
    }

    /// First half of logging a record: hands it to the log and stamps
    /// `WalAppend`. This happens *before* the simulated disk wait the caller
    /// charges next: for the duration of that await the record is appended
    /// but unflushed, which is exactly the window a torn-write crash may
    /// corrupt. Synchronous on purpose — the record lives in the WAL from
    /// here on, not in the caller's future, which is part of every
    /// request's allocation.
    pub(crate) fn wal_hand_over(&self, record: WalOp) -> Unflushed {
        let size = record.wire_size();
        let trace = self.record_trace(&record);
        let lsn = self.durable.borrow_mut().wal.append_sized(record, size);
        self.trace_event(trace, EventKind::WalAppend { lsn, bytes: size });
        Unflushed(lsn)
    }

    /// Second half, after the disk wait: the flush barrier and the
    /// volatile-state application in one no-await block, so volatile state
    /// never reflects a record the media could still lose — and the record
    /// is applied from a borrow of its WAL slot, one materialization instead
    /// of a deep clone per logged operation. `WalFlush` is stamped here, so
    /// it and `WalAppend` span the disk time.
    pub(crate) fn wal_flush_and_apply(&self, Unflushed(lsn): Unflushed) {
        let durable = &mut *self.durable.borrow_mut();
        let newly_flushed = durable.wal.flush();
        let Some(record) = durable.wal.recent(lsn) else {
            return;
        };
        let record = &record.payload;
        // Events are emitted from the *actually applied* record — not from
        // the caller's intent — so a divergence between the two is visible
        // in a dump. Everything here is non-counting peeks and ring-buffer
        // writes; the replay digest cannot see it.
        let trace = self.record_trace(record);
        let batch = if self.obs_on() {
            self.trace_event(
                trace,
                EventKind::WalFlush {
                    through_lsn: durable.wal.flushed(),
                    records: newly_flushed as u64,
                },
            );
            self.cfg.obs.next_batch()
        } else {
            0
        };
        self.apply_record(record, trace, |dir, insert, changed| {
            EventKind::EntryApply {
                batch,
                dir,
                insert,
                changed,
            }
        });
    }

    /// The causal identity of a WAL record: the client op it was logged for
    /// or answers, else the single change-log entry it applied. `None` when
    /// tracing is off.
    pub(crate) fn record_trace(&self, record: &WalOp) -> Option<TraceId> {
        if !self.obs_on() {
            return None;
        }
        let op = match record {
            WalOp::Effects {
                op_id,
                applied_entry_ids,
                ..
            } => op_id.or(match applied_entry_ids[..] {
                [only] => Some(only),
                _ => None,
            }),
            WalOp::Completed(response) => Some(response.op_id),
            WalOp::Txn(_) | WalOp::Migration(_) => None,
        };
        op.map(TraceId::of_op)
    }

    /// Turns a durable record into volatile state — the only function that
    /// does: live, right after the record's flush, and again at recovery
    /// replay, so the two cannot disagree about what a record means. Each
    /// entry-list mutation emits the event `entry_event(dir, insert,
    /// changed)` builds, peeked before the apply; `changed` is false for an
    /// insert over a present name and a remove of an absent one.
    pub(crate) fn apply_record(
        &self,
        record: &WalOp,
        trace: Option<TraceId>,
        entry_event: impl Fn(u64, bool, bool) -> EventKind,
    ) {
        let obs_on = self.obs_on();
        let mut inner = self.inner.borrow_mut();
        match record {
            WalOp::Effects {
                effects,
                applied_entry_ids,
                ..
            } => {
                for e in effects {
                    if obs_on {
                        let mutation = match e {
                            KvEffect::PutEntry(dir, entry) => Some((dir, &entry.name, true)),
                            KvEffect::DeleteEntry(dir, name) => Some((dir, name, false)),
                            _ => None,
                        };
                        if let Some((dir, name, insert)) = mutation {
                            let changed = insert != inner.entry_exists(dir, name);
                            self.trace_event(trace, entry_event(dir.hash64(), insert, changed));
                        }
                    }
                    inner.apply_effect(e);
                }
                // The deferred `pending_entry` is not applied here: its
                // change-log append is a volatile step of its own after the
                // live flush, and replay rebuilds it from the record's
                // `applied` flag.
                inner.note_entries_applied(applied_entry_ids);
            }
            WalOp::Txn(TxnMarker::Prepared {
                txn_id,
                coordinator,
                ops,
            }) => {
                let staged = PreparedTxn {
                    ops: ops.clone(),
                    coordinator: *coordinator,
                    prepared_at: self.handle.now(),
                    resolving: false,
                };
                inner.prepared_txns.insert(*txn_id, staged);
            }
            // Overwrites the coordinator's `Voting`: the commit point.
            WalOp::Txn(TxnMarker::Decided { txn_id }) => {
                inner
                    .coordinated_txns
                    .insert(*txn_id, CoordinatorTxn::Committed);
            }
            // A no-op live (whoever decides takes the staged ops out before
            // applying them) and, tolerated, for a marker whose `Prepared`
            // is nowhere in sight at replay.
            WalOp::Txn(TxnMarker::Resolved { txn_id }) => {
                inner.prepared_txns.remove(txn_id);
            }
            WalOp::Txn(TxnMarker::Forgotten { txn_id }) => {
                inner.coordinated_txns.remove(txn_id);
            }
            WalOp::Completed(response) => inner.cache_response(response.clone()),
            // No table mirrors a migration's progress: recovery reads the
            // markers off the log and resolves them against the shard map.
            WalOp::Migration(_) => {}
        }
    }

    /// The effective cost of one WAL append, including any chaos-injected
    /// disk-latency spike.
    pub(crate) fn wal_append_cost(&self) -> switchfs_simnet::SimDuration {
        self.cfg.costs.wal_append * self.inner.borrow().disk_slowdown
    }

    /// Sends one body to every listed server, building the message once and
    /// cloning only for all recipients but the last (alloc-free for the
    /// common single-recipient fan-out).
    pub(crate) fn multicast_plain(&self, servers: &[ServerId], body: Body) {
        let Some((last, rest)) = servers.split_last() else {
            return;
        };
        for s in rest {
            self.send_plain(self.cfg.node_of(*s), body.clone());
        }
        self.send_plain(self.cfg.node_of(*last), body);
    }

    /// Broadcasts an invalidation-list append to every other server.
    pub(crate) fn broadcast_invalidation(&self, dir_id: DirId) {
        self.multicast_plain(
            &self.cfg.other_servers(),
            Body::Server(ServerMsg::InvalidationBroadcast { dir_id }),
        );
    }

    /// Resolves the dirty state of a fingerprint for a directory read: the
    /// value the switch attached, or the software tracker's answer.
    pub(crate) async fn dirty_state_for_read(
        &self,
        fp: Fingerprint,
        attached: Option<DirtyRet>,
    ) -> DirtyState {
        let ret = match self.cfg.software_tracker(fp) {
            None => attached,
            // Boxed: the retransmitting exchange would otherwise set the size
            // of every directory read's future, in-network ones included.
            Some(tracker) => {
                Box::pin(self.software_dirty_set(tracker, DirtySetOp::Query, fp)).await
            }
        };
        match ret {
            Some(DirtyRet::State(s)) => s,
            // Without an answer be conservative: aggregating an
            // already-clean group is correct, just slower.
            _ => DirtyState::Scattered,
        }
    }

    /// One operation on the dirty set `tracker` keeps in software (§7.3.3):
    /// applied here, for free, when that is this server, else sent as a
    /// [`Request::DirtySet`] and retransmitted until answered. A remove is
    /// sent once and not waited for: the aggregation request sent after it
    /// is what the round waits on, and a lost remove only costs a later read
    /// a round it did not need.
    pub(crate) async fn software_dirty_set(
        &self,
        tracker: NodeId,
        op: DirtySetOp,
        fp: Fingerprint,
    ) -> Option<DirtyRet> {
        if tracker == self.node() {
            return Some(self.inner.borrow_mut().dirty_set.apply(op, fp));
        }
        if op == DirtySetOp::Remove {
            let (req_id, req) = (self.next_token(), Request::DirtySet { op, fp });
            self.send_plain(tracker, Body::Server(ServerMsg::Request { req_id, req }));
            return None;
        }
        match self
            .ask(tracker, Retry::ACK, || Request::DirtySet { op, fp })
            .await
        {
            Some(TokenReply::Server(Reply::Dirty(ret))) => Some(ret),
            _ => None,
        }
    }

    // ------------------------------------------------------------------
    // Bulk loading (experiment setup) and direct state inspection.
    // ------------------------------------------------------------------

    /// Directly installs a directory inode this server owns, without going
    /// through the protocol. Used to pre-populate experiment namespaces
    /// (e.g. "10 million files in 1024 directories") at setup time.
    pub fn preload_dir(&self, key: MetaKey, id: DirId, now: u64) {
        let attrs = InodeAttrs::new_dir(id, now, Default::default());
        let mut inner = self.inner.borrow_mut();
        inner.inodes.put(key.clone(), attrs);
        inner.dir_index.insert(id, key);
    }

    /// Directly installs a file inode (and optionally counts it in the parent
    /// directory entry list if this server also owns the parent).
    pub fn preload_file(&self, key: MetaKey, now: u64) {
        let id = DirId::generate(self.cfg.id, {
            let mut inner = self.inner.borrow_mut();
            inner.dir_counter += 1;
            inner.dir_counter
        });
        let attrs = InodeAttrs::new_file(id, now, Default::default());
        self.inner.borrow_mut().inodes.put(key, attrs);
    }

    /// Directly installs a directory entry on the owner of the directory.
    pub fn preload_entry(&self, dir: DirId, entry: DirEntry) {
        self.inner.borrow_mut().put_entry(dir, entry);
    }

    /// Generates a fresh directory id.
    pub(crate) fn fresh_dir_id(&self) -> DirId {
        let mut inner = self.inner.borrow_mut();
        inner.dir_counter += 1;
        DirId::generate(self.cfg.id, inner.dir_counter)
    }

    /// Builds a change-log entry for a deferred parent-directory update:
    /// an insert grows the directory by one, a remove shrinks it by one.
    pub(crate) fn make_entry(
        &self,
        op_id: OpId,
        parent_id: DirId,
        name: &str,
        op: ChangeOp,
    ) -> ChangeLogEntry {
        let size_delta = match op {
            ChangeOp::Insert { .. } => 1,
            ChangeOp::Remove => -1,
        };
        ChangeLogEntry {
            entry_id: op_id,
            dir: parent_id,
            name: name.to_string(),
            op,
            timestamp: self.now_ns(),
            size_delta,
        }
    }

    /// The KV effects of applying deferred updates to a directory this
    /// server owns: one `PutInode` merging `timestamp` into the directory's
    /// times, plus one entry-list mutation per `(name, op)`. A single
    /// change-log entry and a compacted batch differ only in how many
    /// mutations they carry. Empty when the directory inode is gone — its
    /// updates are moot.
    pub(crate) fn dir_update_effects<'a>(
        &self,
        dir_key: &MetaKey,
        dir: DirId,
        timestamp: u64,
        ops: impl IntoIterator<Item = (&'a str, ChangeOp)>,
    ) -> Vec<KvEffect> {
        let Some(mut attrs) = self.inner.borrow().inodes.peek(dir_key).cloned() else {
            return Vec::new();
        };
        let mut times = Timestamps::at(timestamp);
        times.atime = attrs.times.atime;
        attrs.times.merge_max(&times);
        let ops = ops.into_iter();
        let mut effects = Vec::with_capacity(1 + ops.size_hint().0);
        effects.push(KvEffect::PutInode(dir_key.clone(), attrs));
        effects.extend(ops.map(|(name, op)| match op {
            ChangeOp::Insert { file_type, mode } => KvEffect::PutEntry(
                dir,
                DirEntry {
                    name: Name::from(name),
                    file_type,
                    mode,
                },
            ),
            ChangeOp::Remove => KvEffect::DeleteEntry(dir, Name::from(name)),
        }));
        effects
    }

    /// Reads a directory's attributes and entries for `readdir`, charging its scan
    /// ([`Server::scan_dir`]). The listing is shared (`Rc`), not copied: the same allocation
    /// flows into the response, the duplicate-suppression cache and every in-flight packet copy.
    pub(crate) async fn read_listing(
        &self,
        key: &MetaKey,
        hold: Option<Fingerprint>,
    ) -> Option<(InodeAttrs, Rc<Vec<DirEntry>>)> {
        let (attrs, entries) = {
            let mut inner = self.inner.borrow_mut();
            let attrs = inner.inodes.get(key)?;
            if attrs.file_type != FileType::Directory {
                return None;
            }
            let dir = attrs.id;
            // `get_mut_read`: mutable only to fill the listing memo — this
            // is a read and must be billed as one.
            let entries = match inner.entries.get_mut_read(&dir) {
                Some(content) => content.listing(),
                None => Rc::new(Vec::new()),
            };
            (inner.with_dir_size(attrs), entries)
        };
        self.scan_dir(hold, &attrs.id, entries.len()).await;
        Some((attrs, entries))
    }

    /// Marks the server crashed: volatile state will be rebuilt by
    /// [`Server::recover`]. The caller should also mark the node down in the
    /// network so in-flight packets are dropped.
    pub fn crash(&self) {
        let mut inner = self.inner.borrow_mut();
        if inner.liveness != Liveness::Tombstone {
            inner.liveness = Liveness::Crashed;
        }
    }

    /// Crashes the server *and* applies a torn-write fault to the WAL: the
    /// flushed prefix survives bit-exactly, while each unflushed record is
    /// independently kept, torn or dropped under `tear_seed` (see
    /// [`switchfs_kvstore::Wal::crash_apply`]). Recovery detects and
    /// truncates the damage. Returns what the crash did to the tail.
    pub fn crash_torn(&self, tear_seed: u64) -> switchfs_kvstore::TornTail {
        self.crash();
        self.durable.borrow_mut().wal.crash_apply(tear_seed)
    }

    /// True if the server is currently crashed.
    pub fn is_crashed(&self) -> bool {
        self.inner.borrow().liveness == Liveness::Crashed
    }

    /// Turns a fully drained server into the decommission tombstone: it
    /// stops all background work and from now on only answers client
    /// requests with a `WrongOwner` redirect carrying the current map. The
    /// caller must have migrated every shard away (and retired the server in
    /// the shared map) first.
    pub fn decommission(&self) {
        let mut inner = self.inner.borrow_mut();
        inner.liveness = Liveness::Tombstone;
        // Stop the proactive loop at its next wake-up; `restart_background`
        // refuses to revive a decommissioned server's loop.
        inner.shutdown = true;
    }

    /// True once the server was gracefully decommissioned.
    pub fn is_decommissioned(&self) -> bool {
        self.inner.borrow().liveness == Liveness::Tombstone
    }

    /// Pauses (`false`) a serving server or resumes (`true`) a paused one,
    /// around the stop-the-world window of a reconfiguration (§5.5).
    pub fn set_available(&self, available: bool) {
        let liveness = &mut self.inner.borrow_mut().liveness;
        *liveness = match (*liveness, available) {
            (Liveness::Serving, false) => Liveness::Paused,
            (Liveness::Paused, true) => Liveness::Serving,
            (unchanged, _) => unchanged,
        };
    }

    /// Asks the background proactive loop to stop at its next wake-up so the
    /// simulation can quiesce at the end of an experiment.
    pub fn stop_background(&self) {
        self.inner.borrow_mut().shutdown = true;
    }

    /// Restarts the background proactive loop after [`Server::stop_background`].
    /// A decommissioned server stays quiet: its tombstone answers requests
    /// without any background machinery.
    pub fn restart_background(self: &Rc<Self>) {
        let mut inner = self.inner.borrow_mut();
        if inner.liveness == Liveness::Tombstone || !std::mem::take(&mut inner.shutdown) {
            return;
        }
        drop(inner);
        let me = self.clone();
        self.handle.spawn(async move { me.proactive_loop().await });
    }

    /// Setup-time seeding for a newly added server: copies another server's
    /// invalidation list directly, like preloading does for namespaces (the
    /// newcomer has served no traffic yet, so no protocol run is needed).
    pub fn seed_invalidation_from(&self, other: &Server) {
        let list = other.inner.borrow().invalidation.clone();
        self.inner.borrow_mut().invalidation.extend(list);
    }

    /// The cost model in effect (shared with benches).
    pub fn costs(&self) -> crate::costs::CostModel {
        self.cfg.costs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{TrackingMode, UpdateMode};
    use crate::wal::MigrationMarker;
    use std::task::{Context, Poll};
    use switchfs_proto::message::{StateImage, TxnOp};
    use switchfs_proto::{PartitionPolicy, SharedPlacement};
    use switchfs_simnet::net::LinkParams;
    use switchfs_simnet::{NetFaults, Network, Sim, SimDuration};

    /// Delivers one request from `src` under `req_id` to `server`, as if its
    /// packet had arrived; the reply, if any, goes to `src`.
    fn serve(server: &Rc<Server>, src: NodeId, req_id: u64, req: Request) {
        let body = Body::Server(ServerMsg::Request { req_id, req });
        server.deliver(src, NetMsg::plain(PacketSeq::default(), body));
    }

    /// The servers of a deployment, not started: a test calls the handlers.
    fn test_servers(sim: &Sim, servers: u32) -> Vec<Rc<Server>> {
        let network: Network<NetMsg> = Network::new(
            sim.handle(),
            LinkParams::default(),
            NetFaults::reliable(),
            1,
        );
        let placement =
            SharedPlacement::initial(PartitionPolicy::PerDirectoryHash, servers as usize);
        let server = |id| {
            let cfg = ServerConfig {
                id: ServerId(id),
                cores: 1,
                costs: crate::costs::CostModel::default(),
                update_mode: UpdateMode::AsyncCompacted,
                tracking: TrackingMode::InNetwork,
                placement: placement.clone(),
                obs: switchfs_obs::Obs::disabled(),
            };
            Server::new(sim.handle(), network.register(NodeId(id)), cfg)
        };
        (0..servers).map(server).collect()
    }

    /// A request of `op` from client 1, routed with `server`'s current map.
    fn request(server: &Server, seq: u64, op: MetaOp, acked_below: u64) -> Rc<ClientRequest> {
        Rc::new(ClientRequest {
            op_id: OpId {
                client: ClientId(1),
                seq,
            },
            op,
            ancestors: vec![DirId::ROOT],
            parent: None,
            epoch: server.cfg.placement.map().epoch(),
            acked_below,
        })
    }

    /// The packet a client sends `req` in, under packet sequence `seq`.
    fn client_packet(seq: u64, req: &Rc<ClientRequest>) -> NetMsg {
        let pkt_seq = PacketSeq { sender: 1000, seq };
        NetMsg::plain(pkt_seq, Body::Request(req.clone()))
    }

    /// Everything waiting in a node's mailbox.
    fn received(node: &Server) -> Vec<Body> {
        std::iter::from_fn(|| node.endpoint.try_recv())
            .map(|pkt| pkt.payload.body)
            .collect()
    }

    /// The results of the responses waiting in a node's mailbox.
    fn results(node: &Server) -> Vec<OpResult> {
        let result = |body| match body {
            Body::Response(response) => response.result,
            other => panic!("{other:?}"),
        };
        received(node).into_iter().map(result).collect()
    }

    #[test]
    fn a_request_task_and_the_hot_classes_stay_small() {
        // A received packet is one allocation, the size of its task's future:
        // a large state machine inlined into a hot class shows in every
        // workload's bytes per operation. A rare branch is boxed instead.
        // (The ceilings are exact for the rustc that `ci/golden/bench.txt`'s
        // first line names; another compiler can move them. They were 792
        // and 1,336 while each task held its own clone of the server's ten
        // shared parts instead of one `Rc`.) Both futures are built as
        // `Server::deliver_request` builds them.
        let sim = Sim::new(1);
        let server = test_servers(&sim, 1).remove(0);
        let key = MetaKey::new(DirId::ROOT, "f");
        let stat = request(&server, 1, MetaOp::Stat { key }, 0);
        let (me, req, client_node, pkt) = (server.clone(), stat.clone(), NodeId(1), None);
        let single = request_task!(me, client_node, req, pkt, {
            Some(me.handle_single_inode(&req).await)
        });
        let size = std::mem::size_of_val(&single);
        assert!(size <= 688, "a stat task is {size} B");
        let (me, req) = (server.clone(), stat);
        let double = request_task!(me, client_node, req, pkt, {
            me.handle_double_inode(client_node, &req).await
        });
        let size = std::mem::size_of_val(&double);
        assert!(size <= 1232, "a create task is {size} B");
    }

    #[test]
    fn a_dir_content_keeps_one_entry_a_name_in_byte_order() {
        let entry = |name: &str, file_type, mode| DirEntry {
            name: Name::from(name),
            file_type,
            mode,
        };
        let mut content = DirContent::default();
        content.insert(entry("f9", FileType::File, 0o644));
        content.insert(entry("f10", FileType::File, 0o644));
        content.insert(entry("d", FileType::File, 0o600));
        // Re-inserting a name replaces its entry: one entry, the new fields.
        content.insert(entry("d", FileType::Directory, 0o755));
        assert_eq!(content.len(), 3);
        let listed: Vec<_> = content
            .listing()
            .iter()
            .map(|e| (e.name.to_string(), e.file_type, e.mode))
            .collect();
        assert_eq!(
            listed,
            [
                ("d".to_owned(), FileType::Directory, 0o755),
                ("f10".to_owned(), FileType::File, 0o644),
                ("f9".to_owned(), FileType::File, 0o644),
            ],
            "byte order: `f10` sorts before `f9`"
        );
        // Lookups and removes take the name as a `&str`.
        assert!(content.contains("f10"));
        content.remove("f10");
        assert!(!content.contains("f10"));
        content.remove("absent");
        let names: Vec<&str> = content.iter().map(|e| e.name.as_str()).collect();
        assert_eq!(names, ["d", "f9"]);
        assert_eq!(content.listing().len(), 2);
    }

    /// A directory `server` owns, preloaded, and an insert into it.
    fn owned_dir_update(server: &Server) -> (MetaKey, ChangeLogEntry) {
        let placement = &server.cfg.placement;
        let dir_key = MetaKey::new(DirId::ROOT, "d");
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let owned = |dir: &DirId| {
            placement.owner_of_hash(placement.dir_content_hash(fp, dir)) == server.cfg.id
        };
        let dir = (1..).map(|n| DirId::generate(ServerId(0), n)).find(owned);
        let dir = dir.expect("a directory id this server owns");
        server.preload_dir(dir_key.clone(), dir, 0);
        let insert = ChangeOp::Insert {
            file_type: FileType::File,
            mode: 0o644,
        };
        let op_id = OpId {
            client: ClientId(1),
            seq: 1,
        };
        (dir_key.clone(), server.make_entry(op_id, dir, "f", insert))
    }

    #[test]
    fn a_request_delivered_in_the_instant_of_a_crash_is_dropped() {
        // One packet for each kind of task `deliver` spawns, sent by a peer
        // that is also the client: every answer lands in its mailbox.
        const TOKEN: u64 = 7;
        let stat = |server: &Server| {
            let key = MetaKey::new(DirId::ROOT, "f");
            server.preload_file(key.clone(), 0);
            request(server, 1, MetaOp::Stat { key }, 0)
        };
        let server_msg = |msg| NetMsg::plain(PacketSeq::default(), Body::Server(msg));
        type Packet<'a> = &'a dyn Fn(&Server, &Server) -> NetMsg;
        let cases: [(&str, Packet); 6] = [
            ("a client request", &|server, _| {
                client_packet(1, &stat(server))
            }),
            ("a forwarded request", &|server, peer| {
                let client_node = peer.node().0;
                server_msg(ServerMsg::ForwardedRequest {
                    client_node,
                    req: stat(server),
                })
            }),
            ("an answered request", &|_, _| {
                let key = MetaKey::new(DirId::ROOT, "f");
                server_msg(ServerMsg::Request {
                    req_id: TOKEN,
                    req: Request::TypeProbe { key },
                })
            }),
            ("a remote directory update", &|server, _| {
                let (dir_key, entry) = owned_dir_update(server);
                let req = Request::RemoteDirUpdate {
                    dir_key,
                    entry,
                    discard_confirm: Vec::new(),
                };
                server_msg(ServerMsg::Request { req_id: TOKEN, req })
            }),
            ("an overflowed asynchronous commit", &|server, _| {
                let (dir_key, entry) = owned_dir_update(server);
                let hdr = switchfs_proto::DirtySetHeader {
                    op: DirtySetOp::Insert,
                    fingerprint: Fingerprint::of_dir(&dir_key.pid, &dir_key.name),
                    remove_seq: 0,
                    ret: DirtyRet::Overflowed,
                    alt_dst: None,
                };
                let commit = ServerMsg::AsyncCommit {
                    response: ClientResponse {
                        op_id: entry.entry_id,
                        result: OpResult::Done,
                    },
                    op_token: TOKEN,
                    fallback: SyncFallback { dir_key, entry },
                };
                NetMsg::with_dirty(PacketSeq::default(), hdr, Body::Server(commit))
            }),
            ("a reply", &|_, _| {
                let reply = Reply::Done(Ok(()));
                server_msg(ServerMsg::Reply {
                    req_id: TOKEN,
                    reply,
                })
            }),
        ];
        // What serving the packet did: packets sent, WAL records appended,
        // whether the number of waits held changed, and whether the wait
        // under `TOKEN` got its answer.
        const NOTHING: (usize, u64, bool, bool) = (0, 0, false, false);
        let serve_packet = |packet: Packet, crash: bool| {
            let sim = Sim::new(1);
            let servers = test_servers(&sim, 2);
            let (server, peer) = (&servers[0], &servers[1]);
            let waits = || {
                (
                    server.durable.borrow().wal.appends(),
                    server.pending_token_count(),
                )
            };
            server.inner.borrow_mut().pending_tokens.register(TOKEN);
            let msg = packet(server, peer);
            let before = waits();
            server.deliver(peer.node(), msg);
            if crash {
                server.crash();
            }
            sim.run();
            assert_eq!(server.in_flight_op_count(), 0);
            let mut cx = Context::from_waker(Waker::noop());
            let reply = server
                .inner
                .borrow_mut()
                .pending_tokens
                .poll_reply(TOKEN, &mut cx);
            let after = waits();
            let answered = matches!(reply, Poll::Ready(Some(_)));
            (
                received(peer).len(),
                after.0 - before.0,
                after.1 != before.1,
                answered,
            )
        };
        for (name, packet) in cases {
            // Served, it does something; delivered, then crashed before its
            // task ran, the gate at the task's first poll drops it.
            assert_ne!(serve_packet(packet, false), NOTHING, "{name} served");
            assert_eq!(serve_packet(packet, true), NOTHING, "{name} dropped");
        }
    }

    #[test]
    fn a_network_duplicate_executes_once_and_a_retransmission_gets_the_cached_response() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (server, client) = (&servers[0], &servers[1]);
        let key = MetaKey::new(DirId::ROOT, "f");
        server.preload_file(key.clone(), 0);
        let chmod = |seq, acked_below| {
            let op = MetaOp::Chmod {
                key: key.clone(),
                mode: 0o600,
            };
            request(server, seq, op, acked_below)
        };
        let appends = || server.durable.borrow().wal.appends();
        let (first, second) = (chmod(1, 0), chmod(2, 2));
        server.deliver(client.node(), client_packet(7, &first));
        sim.run();
        assert_eq!(results(client), [OpResult::Done]);
        // The next request's watermark prunes the first one's cached
        // response: only the packet filter stands between a late copy of the
        // first packet and a second execution.
        server.deliver(client.node(), client_packet(8, &second));
        sim.run();
        assert_eq!(results(client), [OpResult::Done]);
        let executed = appends();
        server.deliver(client.node(), client_packet(7, &first));
        sim.run();
        assert_eq!(results(client), []);
        assert_eq!(appends(), executed);
        // A retransmission travels in a fresh packet and gets the cached
        // response without executing.
        server.deliver(client.node(), client_packet(9, &second));
        sim.run();
        assert_eq!(results(client), [OpResult::Done]);
        assert_eq!(appends(), executed);
    }

    #[test]
    fn a_client_pruned_to_empty_still_gets_its_next_retransmission_from_the_cache() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (server, client) = (&servers[0], &servers[1]);
        let key = MetaKey::new(DirId::ROOT, "f");
        server.preload_file(key.clone(), 0);
        let chmod = |seq| {
            let op = MetaOp::Chmod {
                key: key.clone(),
                mode: 0o600,
            };
            request(server, seq, op, seq)
        };
        let appends = || server.durable.borrow().wal.appends();
        let (first, second) = (chmod(1), chmod(2));
        server.deliver(client.node(), client_packet(1, &first));
        sim.run();
        assert_eq!(results(client), [OpResult::Done]);
        // The watermark passes the only cached response: the client's map
        // is empty, and stays for the next one.
        server.inner.borrow_mut().prune_completed(ClientId(1), 2);
        assert_eq!(server.completed_op_count(), 0);
        server.deliver(client.node(), client_packet(2, &second));
        sim.run();
        assert_eq!(results(client), [OpResult::Done]);
        let executed = appends();
        server.deliver(client.node(), client_packet(3, &second));
        sim.run();
        assert_eq!(results(client), [OpResult::Done]);
        assert_eq!(appends(), executed);
    }

    #[test]
    fn a_tombstone_redirects_a_clients_request_and_drops_a_servers() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (server, peer) = (&servers[0], &servers[1]);
        let key = MetaKey::new(DirId::ROOT, "f");
        server.preload_file(key.clone(), 0);
        // Both arrive while the server still serves; it is decommissioned
        // before their tasks run.
        let stat = request(server, 1, MetaOp::Stat { key: key.clone() }, 0);
        server.deliver(peer.node(), client_packet(1, &stat));
        serve(server, peer.node(), 5, Request::TypeProbe { key });
        server.decommission();
        sim.run();
        let map = server.cfg.placement.map().clone();
        let redirect = Body::Response(ClientResponse {
            op_id: stat.op_id,
            result: OpResult::WrongOwner { map },
        });
        assert_eq!(received(peer), [redirect]);
    }

    #[test]
    fn a_servers_address_is_its_id() {
        let sim = Sim::new(1);
        let server = test_servers(&sim, 3).remove(0);
        // A member the shared map gains later is addressable at once.
        let added = server.cfg.placement.map_mut().add_server();
        assert_eq!(added, ServerId(3));
        for id in (0..3).map(ServerId).chain([added]) {
            assert_eq!(server.server_id_of(server.cfg.node_of(id)), Some(id));
        }
        // A deployment puts its clients from node 1000 on.
        assert_eq!(server.server_id_of(NodeId(1000)), None);
        assert_eq!(server.server_id_of(crate::COORDINATOR_NODE), None);
    }

    #[test]
    fn a_discard_walks_back_to_the_oldest_entry_it_removed_and_no_further() {
        let sim = Sim::new(1);
        let server = test_servers(&sim, 1).remove(0);
        let dir_key = MetaKey::new(DirId::ROOT, "d");
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let id = |seq| OpId {
            client: ClientId(1),
            seq,
        };
        let dir = DirId::generate(ServerId(0), 1);
        // A hundred records of other work, then three deferred entries. None
        // is flushed (`let _`): a discard walks the retained records, flushed
        // or not, and nothing below reads what applying them would change.
        for _ in 0..100 {
            let _ = server.wal_hand_over(WalOp::local(None, Vec::new()));
        }
        for seq in 0..3 {
            let entry = server.make_entry(id(seq), dir, "f", ChangeOp::Remove);
            let _ = server.wal_hand_over(WalOp::Effects {
                op_id: Some(id(seq)),
                effects: Vec::new(),
                pending_entry: Some((dir_key.clone(), entry.clone())),
                applied_entry_ids: Vec::new(),
            });
            let mut inner = server.inner.borrow_mut();
            inner.changelogs.append(&dir_key, entry, SimTime::ZERO);
        }
        let visits = || server.durable.borrow().wal.mark_visits();
        // An owner's round names its own three entries and the remote ones
        // it applied, which have no record here: the walk ends at the oldest
        // of the three, not at the head of the log.
        let ids: FxHashSet<OpId> = (0..40).map(id).collect();
        let discard = || {
            server.discard_applied_entries(
                |logs| (logs.discard_applied_in_group(fp, &ids), ()),
                &ids,
                None,
            )
        };
        discard();
        assert_eq!(visits(), 3);
        assert_eq!(server.durable.borrow().wal.unapplied().count(), 100);
        // A second discard of the same entries (the acknowledgment that lost
        // the race against the round) removes nothing and walks nothing.
        discard();
        assert_eq!(visits(), 3);
    }

    /// A scene at one group's gate. The group's write lock is held until
    /// 100 µs; each of `callers` — `(arrives at, gives up after)`, in µs —
    /// calls [`Server::aggregated`]; the server's volatile state is reset at
    /// `reset_at`. Returns, per caller, whether it ran a round (`None`: it
    /// gave up), with the parties at the lock and the gate at 8 µs.
    fn at_the_gate(
        callers: &[(u64, Option<u64>)],
        reset_at: Option<u64>,
    ) -> (Vec<Option<bool>>, usize) {
        let sim = Sim::new(1);
        let server = test_servers(&sim, 1).remove(0);
        let fp = Fingerprint::of_dir(&DirId::ROOT, "d");
        let at = |us| sim.handle().sleep(SimDuration::micros(us));
        let (held, release) = (server.locks.fp_group(fp), at(100));
        sim.spawn(async move {
            let _w = held.write().await;
            release.await;
        });
        let outcomes = Rc::new(RefCell::new(vec![None; callers.len()]));
        for (i, &(arrives, patience)) in callers.iter().enumerate() {
            let (server, outcomes, arrives) = (server.clone(), outcomes.clone(), at(arrives));
            sim.spawn(async move {
                arrives.await;
                let call = server.aggregated(fp);
                outcomes.borrow_mut()[i] = match patience {
                    Some(us) => timeout(&server.handle, SimDuration::micros(us), call).await,
                    None => Some(call.await),
                }
                .map(|(_hold, ran)| ran);
            });
        }
        if let Some(us) = reset_at {
            let (server, reset) = (server.clone(), at(us));
            sim.spawn(async move {
                reset.await;
                server.inner.borrow_mut().reset_volatile();
            });
        }
        let parties = Rc::new(std::cell::Cell::new(0));
        {
            let (server, parties, probe) = (server.clone(), parties.clone(), at(8));
            sim.spawn(async move {
                probe.await;
                parties.set(server.fp_group_waiter_count());
            });
        }
        sim.run();
        assert_eq!(server.fp_group_waiter_count(), 0, "somebody never left");
        assert_eq!(server.stats().aggregations, 1, "one round serves the scene");
        let outcomes = outcomes.borrow().clone();
        (outcomes, parties.get())
    }

    #[test]
    fn a_follower_of_a_leader_cancelled_in_the_lock_queue_leads() {
        // The leader (1 µs) gives up at 10 µs; its follower (5 µs) starts
        // over, finds nobody waiting and runs the round itself.
        let (outcomes, parties) = at_the_gate(&[(1, Some(9)), (5, None)], None);
        assert_eq!(outcomes, [None, Some(true)]);
        assert_eq!(
            parties, 3,
            "the holder, the queued leader, the parked follower"
        );
    }

    #[test]
    fn a_reset_sends_the_followers_of_the_waiting_group_back_to_the_gate() {
        // Reset at 10 µs: the follower's group is gone, it leads a second
        // one behind its old leader — whose round, started after the reset
        // and so after the follower arrived again, serves that one too.
        let (outcomes, _) = at_the_gate(&[(1, None), (5, None)], Some(10));
        assert_eq!(outcomes, [Some(true), Some(false)]);
    }

    #[test]
    fn a_share_sent_to_a_follower_that_is_gone_is_dropped() {
        // The follower (5 µs) gives up at 10 µs; the leader's round ends
        // after 100 µs and the lock is free once the leader is done.
        let (outcomes, _) = at_the_gate(&[(1, None), (5, Some(5))], None);
        assert_eq!(outcomes, [Some(true), None]);
    }

    /// Everything a loaded server stores, with its duplicate-suppression
    /// state stamped on: the images of all shards, as they would ship.
    fn shipped_images(server: &Server) -> std::collections::BTreeMap<u32, StateImage> {
        let shards = 0..server.cfg.placement.map().num_shards() as u32;
        let mut images = server.collect_shards(shards);
        images.values_mut().for_each(|i| server.stamp_dedup(i));
        images
    }

    #[test]
    fn what_an_install_puts_in_a_collect_takes_out() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (source, target) = (&servers[0], &servers[1]);
        let id = |seq| OpId {
            client: ClientId(7),
            seq,
        };
        // Load the source: directories with both their roles, entry lists,
        // files, pending entries, and all three kinds of suppression state.
        {
            let mut inner = source.inner.borrow_mut();
            for d in 0..6u64 {
                let dir = DirId::generate(ServerId(0), d + 1);
                let dir_key = MetaKey::new(DirId::ROOT, format!("d{d}"));
                let attrs = InodeAttrs::new_dir(dir, d, Default::default());
                inner.apply_effect(&KvEffect::PutInode(dir_key.clone(), attrs));
                inner.apply_effect(&KvEffect::IndexDir(dir, dir_key.clone()));
                for f in 0..4u64 {
                    let key = MetaKey::new(dir, format!("f{f}"));
                    let file = DirId::generate(ServerId(0), 100 + d * 10 + f);
                    let attrs = InodeAttrs::new_file(file, f, Default::default());
                    inner.apply_effect(&KvEffect::PutInode(key.clone(), attrs));
                    let entry = DirEntry {
                        name: key.name.clone(),
                        file_type: FileType::File,
                        mode: 0o644,
                    };
                    inner.apply_effect(&KvEffect::PutEntry(dir, entry));
                }
                let entry = ChangeLogEntry {
                    entry_id: id(d),
                    dir,
                    name: "late".into(),
                    op: ChangeOp::Remove,
                    timestamp: d,
                    size_delta: -1,
                };
                inner.changelogs.append(&dir_key, entry, SimTime::ZERO);
                inner.note_entries_applied(&[id(100 + d)]);
                inner.retire_entry_ids([id(200 + d)], SimTime::ZERO);
                inner.cache_response(ClientResponse {
                    op_id: id(300 + d),
                    result: OpResult::Done,
                });
            }
        }
        let images = shipped_images(source);
        assert!(images.len() > 1, "the load spreads over shards");
        let pending: usize = images.values().map(|i| i.pending.len()).sum();
        assert_eq!(pending, 6);

        // The target owns every shard and installs each image — then a
        // retransmission of each install (same token: acknowledged, not
        // applied), then a retry (fresh token: the stale copy is purged and
        // the image applied again). Each time it stores what the source did.
        for shard in images.keys() {
            source.cfg.placement.map_mut().assign(*shard, ServerId(1));
        }
        for (round, token_base) in [(0, 1_000), (1, 1_000), (2, 2_000)] {
            let appends = target.durable.borrow().wal.appends();
            for (shard, image) in &images {
                let install = Request::ShardInstall {
                    shard: *shard,
                    image: image.clone(),
                };
                serve(target, NodeId(0), token_base + u64::from(*shard), install);
            }
            sim.run();
            assert_eq!(shipped_images(target), images, "round {round}");
            let logged = target.durable.borrow().wal.appends() - appends;
            assert_eq!(logged == 0, round == 1, "round {round}: {logged} records");
        }
        assert_eq!(target.stats().shards_migrated_in, 2 * images.len() as u64);
    }

    /// The replies waiting in a server's mailbox, with their senders and
    /// the tokens they echo.
    fn replies(server: &Server) -> Vec<(NodeId, u64, Reply)> {
        std::iter::from_fn(|| server.endpoint.try_recv())
            .filter_map(|pkt| match pkt.payload.body {
                Body::Server(ServerMsg::Reply { req_id, reply }) => Some((pkt.src, req_id, reply)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn an_entry_id_is_suppressed_from_its_apply_until_its_retirement_expires() {
        let sim = Sim::new(1);
        let owner = test_servers(&sim, 1).remove(0);
        let id = |seq| OpId {
            client: ClientId(1),
            seq,
        };
        let (entry, later, batch) = (id(1), id(2), [id(9), id(5)]);
        let apply = |ids: &[OpId]| {
            let (owner, ids) = (owner.clone(), ids.to_vec());
            sim.spawn(async move {
                owner
                    .log_record(WalOp::Effects {
                        op_id: None,
                        effects: Vec::new(),
                        pending_entry: None,
                        applied_entry_ids: ids,
                    })
                    .await
            });
            sim.run();
        };
        let retire = |id, at| owner.inner.borrow_mut().retire_entry_ids([id], at);
        let state = |id| owner.inner.borrow().entry_ids.get(&id).copied();
        let suppressed = |id| owner.inner.borrow().entry_already_applied(&id);
        let order = || Vec::from(owner.inner.borrow().retirement_order.clone());
        let dedup = || {
            let mut image = StateImage::default();
            owner.stamp_dedup(&mut image);
            (image.applied_entry_ids, image.retired_entry_ids)
        };
        let t0 = SimTime::ZERO + SimDuration::millis(1);
        let t1 = t0 + RETIRED_ENTRY_RETENTION;

        // 1. Applied: suppressed until its holder confirms the discard.
        apply(&[entry]);
        assert_eq!(state(entry), Some(EntryState::Applied));
        assert!(suppressed(entry));
        // 2. Confirmed: retired, stamped with the retirement time.
        retire(entry, t0);
        retire(later, t1);
        assert_eq!(state(entry), Some(EntryState::Retired));
        assert_eq!(owner.applied_entry_id_count(), 0);
        // 3. A partly duplicate batch re-applies it, and a second
        //    confirmation retires it again: it stays retired, in its place.
        apply(&[batch[0], entry, batch[1]]);
        retire(entry, t1);
        assert_eq!(state(entry), Some(EntryState::Retired));
        assert_eq!(order(), [(t0, entry), (t1, later)]);
        assert!(suppressed(entry));
        assert_eq!(owner.applied_entry_id_count(), 2);
        assert_eq!(owner.retired_entry_id_count(), 2);
        // The shipped copy: applied ids sorted, retired ids in retirement
        // order.
        assert_eq!(dedup(), (vec![id(5), id(9)], vec![entry, later]));
        // 4. Past the retention, the next retirement evicts it, and only it.
        retire(
            batch[0],
            t0 + RETIRED_ENTRY_RETENTION + SimDuration::nanos(1),
        );
        assert_eq!(state(entry), None);
        assert!(!suppressed(entry));
        assert_eq!(dedup(), (vec![id(5)], vec![later, batch[0]]));
    }

    #[test]
    fn a_push_of_discard_confirmations_alone_only_retires_them() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (applier, holder) = (&servers[0], &servers[1]);
        let confirmed = OpId {
            client: ClientId(1),
            seq: 1,
        };
        applier
            .inner
            .borrow_mut()
            .note_entries_applied(&[confirmed]);
        // What a decommissioning holder's last flush sends.
        let push = ServerMsg::ChangeLogPush {
            dir_key: MetaKey::new(DirId::ROOT, ""),
            entries: Vec::new(),
            discard_confirm: vec![confirmed],
        };
        let msg = NetMsg::plain(PacketSeq::default(), Body::Server(push));
        applier.deliver(holder.node(), msg);
        sim.run();
        let inner = applier.inner.borrow();
        assert_eq!(inner.entry_ids.get(&confirmed), Some(&EntryState::Retired));
        assert!(holder.endpoint.try_recv().is_none(), "no ack");
        assert!(inner.push_timers.is_empty(), "no aggregation armed");
        assert_eq!(inner.stats.pushes_received, 0);
    }

    #[test]
    fn an_install_copy_racing_the_first_gets_no_ack_and_logs_nothing() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 3);
        let (source, alone, raced) = (&servers[0], &servers[1], &servers[2]);
        {
            let key = MetaKey::new(DirId::ROOT, "f");
            let file = DirId::generate(ServerId(0), 1);
            let attrs = InodeAttrs::new_file(file, 1, Default::default());
            let mut inner = source.inner.borrow_mut();
            inner.apply_effect(&KvEffect::PutInode(key, attrs));
        }
        let (shard, image) = shipped_images(source).pop_first().expect("one shard");
        // One target gets the install once; the other gets it twice with the
        // same token, the second copy arriving while the first is applying.
        for (target, copies) in [(alone, 1), (raced, 2)] {
            for _ in 0..copies {
                let install = Request::ShardInstall {
                    shard,
                    image: image.clone(),
                };
                serve(target, NodeId(0), 9, install);
            }
        }
        sim.run();
        let appends = |server: &Server| server.durable.borrow().wal.appends();
        assert!(appends(alone) > 0);
        assert_eq!(appends(raced), appends(alone));
        let acks = replies(source);
        let ack = Reply::Done(Ok(()));
        assert_eq!(acks, [(NodeId(1), 9, ack), (NodeId(2), 9, ack)]);
        assert_eq!(raced.stats().shards_migrated_in, 1);
    }

    #[test]
    fn a_decision_query_answers_from_the_coordinators_one_entry() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (participant, coordinator) = (&servers[0], &servers[1]);
        let log = |marker| {
            let coordinator = coordinator.clone();
            sim.spawn(async move { coordinator.log_record(marker).await });
            sim.run();
        };
        let ask = || {
            let query = Request::TxnDecisionQuery { txn_id: 7 };
            serve(coordinator, NodeId(0), 1, query);
            sim.run();
            match replies(participant)[..] {
                [(NodeId(1), 1, Reply::Decision(answer))] => answer,
                ref other => panic!("{other:?}"),
            }
        };
        assert_eq!(ask(), Some(false), "no record: presumed abort");
        let mut inner = coordinator.inner.borrow_mut();
        inner.coordinated_txns.insert(7, CoordinatorTxn::Voting);
        drop(inner);
        assert_eq!(ask(), None, "voting: undecided");
        log(TxnMarker::Decided { txn_id: 7 });
        assert_eq!(ask(), Some(true), "decided: commit");
        log(TxnMarker::Forgotten { txn_id: 7 });
        assert_eq!(ask(), Some(false), "forgotten: presumed abort");
    }

    #[test]
    fn a_decision_copy_racing_its_apply_gets_no_ack() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let (coordinator, participant) = (&servers[0], &servers[1]);
        let key = MetaKey::new(DirId::ROOT, "f");
        let attrs = InodeAttrs::new_file(DirId::generate(ServerId(0), 1), 1, Default::default());
        {
            let participant = participant.clone();
            let prepared = TxnMarker::Prepared {
                txn_id: 7,
                coordinator: ServerId(0),
                ops: vec![TxnOp::PutInode {
                    key: key.clone(),
                    attrs,
                }],
            };
            sim.spawn(async move { participant.log_record(prepared).await });
            sim.run();
        }
        // Two copies of the commit under one token, the second arriving
        // while the first is applying: one ack, under that token.
        let commit = || Request::TxnDecision {
            txn_id: 7,
            commit: true,
        };
        for _ in 0..2 {
            serve(participant, NodeId(0), 5, commit());
        }
        sim.run();
        let ack = (NodeId(1), 5, Reply::Done(Ok(())));
        assert_eq!(replies(coordinator), [ack]);
        assert!(participant.inner.borrow().inodes.contains(&key));
        // A copy arriving after the apply finished is acked again.
        serve(participant, NodeId(0), 5, commit());
        sim.run();
        assert_eq!(replies(coordinator), [ack]);
    }

    #[test]
    fn a_second_resolution_of_a_transaction_being_resolved_returns_none() {
        let sim = Sim::new(1);
        let servers = test_servers(&sim, 2);
        let participant = &servers[1];
        // Prepared for server 0, which is not running: its decision queries
        // go unanswered.
        {
            let participant = participant.clone();
            let prepared = TxnMarker::Prepared {
                txn_id: 7,
                coordinator: ServerId(0),
                ops: Vec::new(),
            };
            sim.spawn(async move { participant.log_record(prepared).await });
            sim.run();
        }
        let start = sim.handle().now();
        let outcomes = Rc::new(RefCell::new(Vec::new()));
        for _ in 0..2 {
            let (participant, outcomes) = (participant.clone(), outcomes.clone());
            sim.spawn(async move {
                let decision = participant.resolve_prepared_txn(7).await;
                outcomes
                    .borrow_mut()
                    .push((participant.handle.now(), decision));
            });
        }
        sim.run();
        // The second returns at once; the first gives up after its queries
        // time out and leaves the transaction staged for the next attempt.
        let outcomes = outcomes.borrow();
        assert_eq!(outcomes[0], (start, None));
        assert!(outcomes[1].0 > start && outcomes[1].1.is_none());
        assert!(!participant.inner.borrow().prepared_txns[&7].resolving);
    }

    /// Logs `record` on an idle `server` and returns the virtual time the
    /// call took, checking that it appended and flushed exactly one record.
    fn time_log_record(
        sim: &Sim,
        server: &Rc<Server>,
        record: impl Into<WalOp> + 'static,
    ) -> SimDuration {
        let wal = || {
            let wal = &server.durable.borrow().wal;
            (wal.appends(), wal.flushed(), wal.unflushed_len())
        };
        let (start, (appends, flushed, _)) = (sim.handle().now(), wal());
        let logger = server.clone();
        sim.spawn(async move { logger.log_record(record).await });
        sim.run();
        assert_eq!(wal(), (appends + 1, flushed + 1, 0));
        sim.handle().now() - start
    }

    #[test]
    fn a_record_costs_one_append_and_a_put_per_effect() {
        let sim = Sim::new(1);
        let server = test_servers(&sim, 1).remove(0);
        let costs = server.cfg.costs;
        let effects = |k: u64| {
            let revoke = |i| KvEffect::Revoke(DirId::generate(ServerId(0), i));
            WalOp::local(None, (0..k).map(revoke).collect())
        };
        for k in [0, 1, 3] {
            let cost = costs.wal_append + costs.kv_put * k.max(1);
            assert_eq!(time_log_record(&sim, &server, effects(k)), cost);
        }
        let decided = TxnMarker::Decided { txn_id: 7 };
        assert_eq!(time_log_record(&sim, &server, decided), costs.wal_append);
        let completed = MigrationMarker::Completed { shard: 3 };
        assert_eq!(time_log_record(&sim, &server, completed), costs.wal_append);
        // A disk slow-down stretches the append, never the puts.
        server.set_disk_slowdown(3);
        let cost = costs.wal_append * 3 + costs.kv_put * 3;
        assert_eq!(time_log_record(&sim, &server, effects(3)), cost);
        let decided = TxnMarker::Decided { txn_id: 8 };
        assert_eq!(
            time_log_record(&sim, &server, decided),
            costs.wal_append * 3
        );
    }
}
