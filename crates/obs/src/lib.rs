//! Deterministic observability for SwitchFS: causal op tracing, a bounded
//! per-node flight recorder, and a unified metrics registry.
//!
//! # Design constraints
//!
//! The simulation is deterministic and every protocol decision is covered by
//! a replay digest, so observability must be *invisible* to the system under
//! test:
//!
//! - Events are stamped with **virtual time only** — never wall-clock — so a
//!   dump from a replayed run is byte-identical to the original.
//! - Recording writes only into [`FlightRecorder`] buffers. It never touches
//!   protocol state, stats counters, RNG draws, or the task schedule, so the
//!   run digest is bit-identical with tracing enabled or disabled (pinned by
//!   a conformance test).
//! - Buffers are bounded FIFO rings: a long run keeps the most recent
//!   `capacity` events per node (see [`Obs::recording`]) and forgets the
//!   rest, like a real flight recorder.
//! - When disabled (the default), every recording call is a single branch on
//!   a [`Cell`] and returns before constructing the event.
//!
//! # Causal identity
//!
//! A [`TraceId`] is a pure function of the operation's [`OpId`]
//! (`TraceId::of_op`), so every node that handles any artifact of an
//! operation — the request packet, its WAL record, the change-log entry it
//! left behind, the remote apply of that entry during aggregation — derives
//! the same trace id locally, without threading a context object through the
//! protocol. Filtering a dump by trace id therefore reconstructs one op's
//! full cross-server history.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::rc::Rc;

use serde::{Deserialize, Serialize};
use switchfs_proto::ids::{OpId, TraceId};

mod registry;
pub use registry::{MetricValue, MetricsRegistry, MetricsSnapshot};

/// Default per-node ring capacity: enough for several thousand protocol
/// steps of history around a failure without unbounded growth.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

/// One structured span event, stamped with virtual time and origin.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceEvent {
    /// Virtual time of the event in nanoseconds since simulation start.
    pub at_ns: u64,
    /// Raw node id of the recording node (server node, client node, …).
    pub node: u32,
    /// Placement epoch observed by the recorder at event time.
    pub epoch: u64,
    /// Causal trace this event belongs to, when derivable at the site.
    pub trace: Option<TraceId>,
    /// What happened.
    pub kind: EventKind,
}

/// The event vocabulary: one variant per instrumented protocol site.
///
/// Directory identity is carried as the compact 64-bit `DirId::hash64()`
/// (field `dir`), which is what placement already keys on; shard numbers and
/// epochs tie events back to the placement map.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// Client put a request on the wire (`attempt` 0) or retransmitted it.
    ClientIssue { op: OpId, attempt: u32 },
    /// Client refreshed its shard map after a wrong-owner rejection.
    ClientMapRefresh { op: OpId, new_epoch: u64 },
    /// Server accepted a client request for execution.
    Dispatch { op: OpId },
    /// Server rejected a client request it does not own (`client_epoch` is
    /// the stale map epoch the request was routed with; the event's own
    /// `epoch` field carries the server's current epoch).
    WrongOwner { op: OpId, client_epoch: u64 },
    /// A record entered the write-ahead log (volatile until flushed).
    /// Stamped where the record is handed to the log, before the simulated
    /// disk wait its `WalFlush` follows.
    WalAppend { lsn: u64, bytes: u64 },
    /// The durable watermark advanced over `records` records.
    WalFlush { through_lsn: u64, records: u64 },
    /// 2PC participant voted on a prepared transaction.
    TxnPrepare { txn: u64, vote_commit: bool },
    /// 2PC decision reached (or learned) for a transaction.
    TxnDecide { txn: u64, commit: bool },
    /// A change-log push (proactive or aggregation-driven) left this node.
    ChangeLogPush { dir: u64, entries: u32 },
    /// An entry-list mutation was applied to a directory's sharded content.
    /// `batch` groups the applies that landed in one WAL record. `changed`
    /// is whether the entry count — the directory's size — actually moved:
    /// an insert that overwrote an existing name, or a remove of an absent
    /// name, applies without changing it.
    EntryApply {
        batch: u64,
        dir: u64,
        insert: bool,
        changed: bool,
    },
    /// The origin server retired one holder-confirmed change-log entry.
    DiscardConfirm { entry: OpId },
    /// Migration froze a shard on the source (requests start dropping).
    MigrationFreeze { shard: u32 },
    /// Migration streamed the shard state (`inodes` inode records).
    MigrationStream { shard: u32, inodes: u32 },
    /// Placement flipped: the destination now owns the shard.
    MigrationFlip { shard: u32, new_epoch: u64 },
    /// Aggregation fan-out: the group owner asked `peers` servers for the
    /// change-log entries of fingerprint group `fp`.
    AggregationFanout { fp: u64, peers: u32 },
    /// Recovery replayed the WAL (records/bytes actually re-driven).
    RecoveryReplay { records: u64, bytes: u64 },
    /// Recovery re-applied one entry-list mutation from WAL record `lsn`.
    /// Mirrors [`EventKind::EntryApply`] (with the LSN standing in for the
    /// live path's batch id) so a trace dump can line the replayed applies
    /// up against the pre-crash ones per directory.
    RecoveryEntryApply {
        lsn: u64,
        dir: u64,
        insert: bool,
        changed: bool,
    },
}

/// A bounded per-node FIFO ring of recent [`TraceEvent`]s.
///
/// Nodes are keyed by raw node id in a `BTreeMap`, so iteration order — and
/// therefore any dump built from it — is deterministic.
#[derive(Debug, Default)]
pub struct FlightRecorder {
    capacity: usize,
    buffers: RefCell<BTreeMap<u32, VecDeque<TraceEvent>>>,
    /// Lifetime count of events pushed out of a full ring (per recorder, not
    /// per node): tells a dump reader whether history was lost.
    evicted: Cell<u64>,
}

impl FlightRecorder {
    /// Creates a recorder whose per-node rings hold at most `capacity`
    /// events each.
    pub fn new(capacity: usize) -> FlightRecorder {
        FlightRecorder {
            capacity: capacity.max(1),
            buffers: RefCell::new(BTreeMap::new()),
            evicted: Cell::new(0),
        }
    }

    /// Appends an event to its node's ring, evicting the oldest event when
    /// the ring is full.
    pub fn push(&self, event: TraceEvent) {
        let mut buffers = self.buffers.borrow_mut();
        let ring = buffers.entry(event.node).or_default();
        if ring.len() == self.capacity {
            ring.pop_front();
            self.evicted.set(self.evicted.get() + 1);
        }
        ring.push_back(event);
    }

    /// All retained events in deterministic order: by node id, FIFO within
    /// a node.
    pub fn dump(&self) -> Vec<TraceEvent> {
        self.buffers
            .borrow()
            .values()
            .flat_map(|ring| ring.iter().cloned())
            .collect()
    }

    /// Total events currently retained across all nodes.
    pub fn len(&self) -> usize {
        self.buffers.borrow().values().map(|r| r.len()).sum()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime count of events evicted from full rings.
    pub fn evicted(&self) -> u64 {
        self.evicted.get()
    }

    /// Drops all retained events (the eviction count survives).
    pub fn clear(&self) {
        self.buffers.borrow_mut().clear();
    }
}

/// The per-cluster observability state: whether recording is on (fixed at
/// construction), the flight recorder, and the batch-id allocator for
/// apply/size-delta grouping.
///
/// Shared as an [`ObsHandle`] (`Rc<Obs>`) by every server, client, and the
/// harness; single-threaded like the rest of the simulation.
#[derive(Debug)]
pub struct Obs {
    enabled: bool,
    recorder: FlightRecorder,
    /// Monotonic batch ids handed to appliers so a size-delta event can be
    /// matched to exactly the entry-apply events it covered. Bumped only
    /// while enabled, so disabled runs perform no writes at all.
    batch_seq: Cell<u64>,
}

/// Shared handle to the cluster's [`Obs`] instance.
pub type ObsHandle = Rc<Obs>;

impl Obs {
    /// A disabled instance: every recording call is a branch-and-return.
    /// This is the default wired into configs, so non-observability callers
    /// never pay for the subsystem.
    pub fn disabled() -> ObsHandle {
        Rc::new(Obs {
            enabled: false,
            recorder: FlightRecorder::new(DEFAULT_RING_CAPACITY),
            batch_seq: Cell::new(0),
        })
    }

    /// An enabled instance with the given per-node ring capacity.
    pub fn recording(capacity: usize) -> ObsHandle {
        Rc::new(Obs {
            enabled: true,
            recorder: FlightRecorder::new(capacity),
            batch_seq: Cell::new(0),
        })
    }

    /// True when events are being recorded. Instrumentation sites check
    /// this before computing event payloads.
    #[inline]
    pub fn on(&self) -> bool {
        self.enabled
    }

    /// Records an event if enabled. Callers on hot paths should guard with
    /// [`Obs::on`] so payload construction is skipped when disabled; this
    /// method re-checks regardless.
    #[inline]
    pub fn record(&self, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        self.recorder.push(event);
    }

    /// Allocates the next apply-batch id. Only called from sites already
    /// guarded by [`Obs::on`], so a disabled run never writes the cell.
    pub fn next_batch(&self) -> u64 {
        let id = self.batch_seq.get() + 1;
        self.batch_seq.set(id);
        id
    }

    /// The flight recorder, for dumping and filtering.
    pub fn recorder(&self) -> &FlightRecorder {
        &self.recorder
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::ids::ClientId;

    fn ev(node: u32, seq: u64) -> TraceEvent {
        let op = OpId {
            client: ClientId(node),
            seq,
        };
        TraceEvent {
            at_ns: seq * 10,
            node,
            epoch: 0,
            trace: Some(TraceId::of_op(op)),
            kind: EventKind::ClientIssue { op, attempt: 0 },
        }
    }

    #[test]
    fn ring_is_bounded_fifo_per_node() {
        let rec = FlightRecorder::new(3);
        for seq in 0..5 {
            rec.push(ev(1, seq));
        }
        rec.push(ev(2, 100));
        assert_eq!(rec.len(), 4);
        assert_eq!(rec.evicted(), 2);
        let dump = rec.dump();
        // Node 1's ring kept the newest three events; node 2 follows.
        let times: Vec<u64> = dump.iter().map(|e| e.at_ns).collect();
        assert_eq!(times, vec![20, 30, 40, 1000]);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.on());
        obs.record(ev(1, 1));
        assert!(obs.recorder().is_empty());
    }

    #[test]
    fn batch_ids_are_monotonic() {
        let obs = Obs::recording(16);
        assert_eq!(obs.next_batch(), 1);
        assert_eq!(obs.next_batch(), 2);
    }

    #[test]
    fn events_serialize_roundtrip() {
        let e = ev(3, 7);
        let json = serde_json::to_string(&e).unwrap();
        let back: TraceEvent = serde_json::from_str(&json).unwrap();
        assert_eq!(e, back);
    }
}
