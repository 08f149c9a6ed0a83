//! Server-side change-log storage (§5.3, Fig. 7).
//!
//! Each server keeps one [`ChangeLog`] per *scattered* directory it has
//! deferred updates for. The log is a FIFO of [`ChangeLogEntry`] records,
//! each shared (`Rc`) with the WAL record that made it durable and with
//! every push or aggregation answer that carries it; it
//! also tracks the marshalled byte size of its pending entries (for the
//! MTU-based proactive push), the time of the last append (for the
//! idle-push timer) and the *push window*: the prefix of the log that went
//! out in the one push batch still awaiting its acknowledgment.
//!
//! The window is what lets a push send each entry once. A batch is the
//! oldest unsent entries up to one MTU; while it is unacknowledged nothing
//! else is cut (window = 1), it is the only thing a re-send carries, and
//! the acknowledgment that discards it opens the window for the next
//! batch. Aggregation snapshots ignore the window — they take the whole log
//! and the owner's entry-id filter drops what a push already delivered —
//! but every discard keeps the prefix count exact.
//!
//! A re-send is a retransmission and is paced like one: the log remembers
//! when the batch last went out and how often it was re-sent, and
//! `Server::push_changelog` lets the scan tick send it again only once the
//! retransmission wait for that count has passed (`Retry::ACK`, the
//! policy of most `Server::ask` requests). An unacknowledged batch is far more often
//! queued behind the owner's group lock than lost, and every copy costs the
//! owner a software-path charge and a turn at that lock. The pacing never
//! gives up — the push → ack → discard exchange ends when the ack arrives,
//! however many copies were lost — and pushes stay silent altogether while
//! an aggregation responder holds or waits for the directory's change-log
//! lock: that round is taking the whole log anyway.

use std::collections::VecDeque;
use std::rc::Rc;

use switchfs_proto::{ChangeLogEntry, DirId, Fingerprint, MetaKey, OpId};
use switchfs_simnet::{FxHashMap, FxHashSet, SimTime};

/// The change-log of one directory on one server.
#[derive(Debug, Clone)]
pub struct ChangeLog {
    /// Key of the directory these entries update.
    pub dir_key: MetaKey,
    /// Fingerprint of the directory.
    pub fp: Fingerprint,
    entries: VecDeque<Rc<ChangeLogEntry>>,
    pending_bytes: usize,
    /// How many entries at the front of `entries` are in the push batch
    /// awaiting its acknowledgment; 0 means the window is open.
    in_flight: usize,
    /// When the batch in flight last went out, and how many times it has
    /// been re-sent since it was cut; meaningful while `in_flight > 0`.
    last_sent: SimTime,
    resends: u32,
    last_append: SimTime,
}

impl ChangeLog {
    /// Creates an empty change-log for a directory.
    pub fn new(dir_key: MetaKey, fp: Fingerprint, now: SimTime) -> Self {
        ChangeLog {
            dir_key,
            fp,
            entries: VecDeque::new(),
            pending_bytes: 0,
            in_flight: 0,
            last_sent: now,
            resends: 0,
            last_append: now,
        }
    }

    /// Appends an entry (FIFO order preserves same-name commit order).
    pub fn append(&mut self, entry: Rc<ChangeLogEntry>, now: SimTime) {
        self.pending_bytes += entry.wire_size();
        self.entries.push_back(entry);
        self.last_append = now;
    }

    /// All pending entries in FIFO order.
    pub fn entries(&self) -> impl Iterator<Item = &Rc<ChangeLogEntry>> {
        self.entries.iter()
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Marshalled size of the pending entries in bytes.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes
    }

    /// Virtual time of the most recent append.
    pub fn last_append(&self) -> SimTime {
        self.last_append
    }

    /// Number of entries in the push batch awaiting its acknowledgment.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// When the batch awaiting its acknowledgment last went out and how many
    /// times it has been re-sent; `None` while the window is open.
    pub fn last_push(&self) -> Option<(SimTime, u32)> {
        (self.in_flight > 0).then_some((self.last_sent, self.resends))
    }

    /// Takes a snapshot of the pending entries (e.g. to transmit during an
    /// aggregation) without removing them; removal happens when the
    /// aggregation acknowledgment arrives.
    pub fn snapshot(&self) -> Vec<Rc<ChangeLogEntry>> {
        self.entries.iter().cloned().collect()
    }

    /// The entries the next push must carry: the unacknowledged batch again
    /// if one is in flight, otherwise a freshly cut one — the oldest entries
    /// whose marshalled size fits `mtu_bytes` (always at least one) — which
    /// closes the window until every entry of the batch has been discarded.
    /// Empty when the log is. `now` is recorded as the batch's send time
    /// (see [`ChangeLog::last_push`]).
    pub fn push_batch(&mut self, mtu_bytes: usize, now: SimTime) -> Vec<Rc<ChangeLogEntry>> {
        self.last_sent = now;
        if self.in_flight > 0 {
            self.resends += 1;
        } else {
            self.resends = 0;
            let mut bytes = 0;
            self.in_flight = self
                .entries
                .iter()
                .take_while(|e| {
                    bytes += e.wire_size();
                    bytes <= mtu_bytes
                })
                .count()
                .max(1)
                .min(self.entries.len());
        }
        self.entries.iter().take(self.in_flight).cloned().collect()
    }

    /// Removes the entries whose ids appear in `applied` (after an
    /// aggregation ack) and returns how many were removed.
    pub fn discard_applied(&mut self, applied: &FxHashSet<OpId>) -> usize {
        self.discard_where(|e| applied.contains(&e.entry_id))
    }

    /// Removes one entry by id (used when an overflowed insert fell back to a
    /// synchronous update that already applied the entry).
    pub fn discard_one(&mut self, id: OpId) -> bool {
        self.discard_where(|e| e.entry_id == id) > 0
    }

    fn discard_where(&mut self, gone: impl Fn(&ChangeLogEntry) -> bool) -> usize {
        let before = self.entries.len();
        let window = self.in_flight;
        let mut index = 0;
        self.entries.retain(|e| {
            let in_window = index < window;
            index += 1;
            if !gone(e) {
                return true;
            }
            self.pending_bytes -= e.wire_size();
            self.in_flight -= usize::from(in_window);
            false
        });
        before - self.entries.len()
    }

    /// Removes the entries a push acknowledgment names and returns how many
    /// were removed. Only the window is examined: an acknowledged entry was
    /// in a batch, batches are cut from the front, and nothing is cut while
    /// one is in flight, so an acknowledged entry still in the log is still
    /// in the window — a late duplicate acknowledgment costs a walk over at
    /// most one MTU of entries however long the unsent tail has grown. (An
    /// entry this misses, say after a crash rebuilt the log in WAL order, is
    /// simply pushed again: the owner keeps its id until the holder confirms
    /// the discard.)
    pub fn discard_acked(&mut self, acked: &FxHashSet<OpId>) -> usize {
        let before = self.entries.len();
        let mut index = 0;
        while index < self.in_flight {
            if acked.contains(&self.entries[index].entry_id) {
                // At most `index` (< one MTU of) entries shift; a fully
                // acknowledged batch pops from the front.
                let e = self.entries.remove(index).expect("index is in the window");
                self.pending_bytes -= e.wire_size();
                self.in_flight -= 1;
            } else {
                index += 1;
            }
        }
        before - self.entries.len()
    }
}

/// All change-logs of one server, indexed by directory id with a secondary
/// index by fingerprint (aggregations address a whole fingerprint group).
#[derive(Debug, Clone, Default)]
pub struct ChangeLogStore {
    logs: FxHashMap<DirId, ChangeLog>,
    // The per-group sets are iterated (snapshots, aggregation fan-out), so
    // they use the deterministic hasher: iteration order must not vary
    // across processes, or same-seed runs stop being reproducible.
    by_fp: FxHashMap<u64, switchfs_simnet::FxHashSet<DirId>>,
}

impl ChangeLogStore {
    /// Appends an entry to the change-log of its directory (`entry.dir`,
    /// stored under `dir_key`), creating the log on first use; only then is
    /// the directory's fingerprint computed.
    pub fn append(&mut self, dir_key: &MetaKey, entry: Rc<ChangeLogEntry>, now: SimTime) {
        let dir = entry.dir;
        let log = self.logs.entry(dir).or_insert_with(|| {
            let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
            ChangeLog::new(dir_key.clone(), fp, now)
        });
        log.append(entry, now);
        self.by_fp.entry(log.fp.raw()).or_default().insert(dir);
    }

    /// The change-log of a directory, if any.
    pub fn get(&self, dir: &DirId) -> Option<&ChangeLog> {
        self.logs.get(dir)
    }

    /// Mutable access to the change-log of a directory, if any.
    pub fn get_mut(&mut self, dir: &DirId) -> Option<&mut ChangeLog> {
        self.logs.get_mut(dir)
    }

    /// Directory ids that currently have a change-log in the given
    /// fingerprint group.
    pub fn dirs_in_group(&self, fp: Fingerprint) -> Vec<DirId> {
        self.by_fp
            .get(&fp.raw())
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    /// Snapshot of every pending entry in a fingerprint group, across all of
    /// the group's directories, in per-directory FIFO order.
    pub fn snapshot_group(&self, fp: Fingerprint) -> Vec<Rc<ChangeLogEntry>> {
        let mut out = Vec::new();
        for dir in self.dirs_in_group(fp) {
            if let Some(log) = self.logs.get(&dir) {
                out.extend(log.snapshot());
            }
        }
        out
    }

    /// Removes applied entries from every log in the group and drops logs
    /// that became empty. Returns the number of removed entries.
    pub fn discard_applied_in_group(
        &mut self,
        fp: Fingerprint,
        applied: &FxHashSet<OpId>,
    ) -> usize {
        let mut removed = 0;
        for dir in self.dirs_in_group(fp) {
            if let Some(log) = self.logs.get_mut(&dir) {
                removed += log.discard_applied(applied);
                if log.is_empty() {
                    self.remove(&dir);
                }
            }
        }
        removed
    }

    /// Removes the entries a push acknowledgment for the directory stored
    /// under `dir_key` names (see [`ChangeLog::discard_acked`]) and drops the
    /// log if that emptied it. Returns how many it removed and the
    /// directory, if it has a log here.
    pub fn discard_acked(
        &mut self,
        dir_key: &MetaKey,
        acked: &FxHashSet<OpId>,
    ) -> Option<(usize, DirId)> {
        let fp = Fingerprint::of_dir(&dir_key.pid, &dir_key.name);
        let group = self.by_fp.get(&fp.raw())?;
        let dir = *group.iter().find(|d| self.logs[*d].dir_key == *dir_key)?;
        let log = self.logs.get_mut(&dir)?;
        let removed = log.discard_acked(acked);
        if log.is_empty() {
            self.remove(&dir);
        }
        Some((removed, dir))
    }

    /// Every directory that currently has pending entries.
    pub fn dirty_dirs(&self) -> impl Iterator<Item = (DirId, Fingerprint)> + '_ {
        self.logs.iter().map(|(d, l)| (*d, l.fp))
    }

    /// Total number of pending entries across all logs.
    pub fn total_pending(&self) -> usize {
        self.logs.values().map(|l| l.len()).sum()
    }

    /// True when no directory has pending entries.
    pub fn is_empty(&self) -> bool {
        self.logs.is_empty()
    }

    /// Drops one directory's log entirely (its pending entries migrated to
    /// another server with their shard). Returns the dropped entry count.
    pub fn remove(&mut self, dir: &DirId) -> usize {
        let Some(log) = self.logs.remove(dir) else {
            return 0;
        };
        if let Some(set) = self.by_fp.get_mut(&log.fp.raw()) {
            set.remove(dir);
            if set.is_empty() {
                self.by_fp.remove(&log.fp.raw());
            }
        }
        log.len()
    }

    /// Drops every log (volatile state lost in a crash).
    pub fn clear(&mut self) {
        self.logs.clear();
        self.by_fp.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{ChangeOp, ClientId, FileType, ServerId};

    fn entry(name: &str, seq: u64) -> Rc<ChangeLogEntry> {
        entry_in(DirId::ROOT, name, seq)
    }

    fn entry_in(dir: DirId, name: &str, seq: u64) -> Rc<ChangeLogEntry> {
        Rc::new(ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(1),
                seq,
            },
            dir,
            name: name.to_string(),
            op: ChangeOp::Insert {
                file_type: FileType::File,
                mode: 0o644,
            },
            timestamp: seq,
            size_delta: 1,
        })
    }

    fn dir(i: u64) -> DirId {
        DirId::generate(ServerId(0), i)
    }

    #[test]
    fn append_tracks_bytes_and_time() {
        let mut log = ChangeLog::new(
            MetaKey::new(DirId::ROOT, "d"),
            Fingerprint::from_raw(1),
            SimTime::ZERO,
        );
        log.append(entry("a", 1), SimTime::from_micros(5));
        log.append(entry("bb", 2), SimTime::from_micros(9));
        assert_eq!(log.len(), 2);
        assert_eq!(
            log.pending_bytes(),
            entry("a", 1).wire_size() + entry("bb", 2).wire_size()
        );
        assert_eq!(log.last_append(), SimTime::from_micros(9));
    }

    #[test]
    fn discard_applied_removes_only_matching_entries() {
        let mut log = ChangeLog::new(
            MetaKey::new(DirId::ROOT, "d"),
            Fingerprint::from_raw(1),
            SimTime::ZERO,
        );
        for i in 0..5 {
            log.append(entry(&format!("f{i}"), i), SimTime::ZERO);
        }
        let applied: FxHashSet<OpId> = [1u64, 3]
            .iter()
            .map(|&s| OpId {
                client: ClientId(1),
                seq: s,
            })
            .collect();
        assert_eq!(log.discard_applied(&applied), 2);
        assert_eq!(log.len(), 3);
        assert!(log.discard_one(OpId {
            client: ClientId(1),
            seq: 0
        }));
        assert!(!log.discard_one(OpId {
            client: ClientId(1),
            seq: 0
        }));
    }

    fn id(seq: u64) -> OpId {
        OpId {
            client: ClientId(1),
            seq,
        }
    }

    fn log_of(n: u64) -> ChangeLog {
        let mut log = ChangeLog::new(
            MetaKey::new(DirId::ROOT, "d"),
            Fingerprint::from_raw(1),
            SimTime::ZERO,
        );
        for i in 0..n {
            log.append(entry(&format!("f{i}"), i), SimTime::ZERO);
        }
        log
    }

    fn seqs(batch: &[Rc<ChangeLogEntry>]) -> Vec<u64> {
        batch.iter().map(|e| e.entry_id.seq).collect()
    }

    #[test]
    fn a_batch_is_the_oldest_entries_up_to_one_mtu_and_is_cut_once() {
        let mut log = log_of(10);
        let mtu = 3 * entry("f0", 0).wire_size();
        let at = SimTime::from_micros;
        assert_eq!(log.last_push(), None);
        assert_eq!(seqs(&log.push_batch(mtu, at(5))), [0, 1, 2]);
        assert_eq!(log.in_flight(), 3);
        assert_eq!(log.last_push(), Some((at(5), 0)));
        // Unacknowledged: the next push is the same batch, however much was
        // appended meanwhile — a re-send, counted and timed as one.
        log.append(entry("late", 10), SimTime::ZERO);
        assert_eq!(seqs(&log.push_batch(mtu, at(9))), [0, 1, 2]);
        assert_eq!(log.last_push(), Some((at(9), 1)));
        // The acknowledgment opens the window for the next batch, whose
        // count starts over.
        let acked: FxHashSet<OpId> = [0, 1, 2].map(id).into_iter().collect();
        assert_eq!(log.discard_acked(&acked), 3);
        assert_eq!(log.in_flight(), 0);
        assert_eq!(log.last_push(), None);
        assert_eq!(seqs(&log.push_batch(mtu, at(20))), [3, 4, 5]);
        assert_eq!(log.last_push(), Some((at(20), 0)));
        // An entry larger than the MTU still goes out, alone.
        let mut big = log_of(2);
        assert_eq!(seqs(&big.push_batch(1, at(0))), [0]);
        let mut empty = log_of(0);
        assert!(empty.push_batch(mtu, at(0)).is_empty());
        assert_eq!(empty.last_push(), None);
    }

    #[test]
    fn discards_keep_the_window_and_the_byte_count_exact() {
        let mut log = log_of(8);
        let one = entry("f0", 0).wire_size();
        assert_eq!(seqs(&log.push_batch(4 * one, SimTime::ZERO)), [0, 1, 2, 3]);
        // An aggregation acknowledged entries inside and outside the window.
        let applied: FxHashSet<OpId> = [1, 6].map(id).into_iter().collect();
        assert_eq!(log.discard_applied(&applied), 2);
        assert_eq!(log.in_flight(), 3);
        // An overflow fallback applied one more of the batch.
        assert!(log.discard_one(id(3)));
        assert_eq!(seqs(&log.push_batch(4 * one, SimTime::ZERO)), [0, 2]);
        // A partial acknowledgment leaves the rest of the batch in flight; a
        // late duplicate of it, and an id outside the window, change nothing.
        let acked: FxHashSet<OpId> = [0, 1, 7].map(id).into_iter().collect();
        assert_eq!(log.discard_acked(&acked), 1);
        assert_eq!(log.discard_acked(&acked), 0);
        assert_eq!(seqs(&log.push_batch(4 * one, SimTime::ZERO)), [2]);
        let left: Vec<u64> = log.entries().map(|e| e.entry_id.seq).collect();
        assert_eq!(left, [2, 4, 5, 7]);
        assert_eq!(
            log.pending_bytes(),
            log.entries().map(|e| e.wire_size()).sum::<usize>()
        );
    }

    #[test]
    fn a_push_ack_addresses_the_directory_by_key() {
        let mut store = ChangeLogStore::default();
        let (key_a, key_b) = (
            MetaKey::new(DirId::ROOT, "a"),
            MetaKey::new(DirId::ROOT, "b"),
        );
        store.append(&key_a, entry_in(dir(1), "x", 1), SimTime::ZERO);
        store.append(&key_b, entry_in(dir(2), "y", 2), SimTime::ZERO);
        let acked: FxHashSet<OpId> = [id(1), id(2)].into_iter().collect();
        // Not pushed yet: nothing is in the window, nothing is discarded.
        assert_eq!(store.discard_acked(&key_a, &acked), Some((0, dir(1))));
        assert_eq!(store.total_pending(), 2);
        store
            .get_mut(&dir(1))
            .unwrap()
            .push_batch(usize::MAX, SimTime::ZERO);
        assert_eq!(store.discard_acked(&key_a, &acked), Some((1, dir(1))));
        // The emptied log is gone, the other directory's is untouched.
        assert!(store.get(&dir(1)).is_none());
        assert_eq!(store.total_pending(), 1);
        assert_eq!(store.discard_acked(&key_a, &acked), None);
    }

    #[test]
    fn store_groups_by_fingerprint() {
        let mut store = ChangeLogStore::default();
        let (key_a, key_b) = (
            MetaKey::new(DirId::ROOT, "a"),
            MetaKey::new(DirId::ROOT, "b"),
        );
        let fp_a = Fingerprint::of_dir(&key_a.pid, &key_a.name);
        let fp_b = Fingerprint::of_dir(&key_b.pid, &key_b.name);
        // `d1` and `d2` are two lives of the directory `a` (removed and made
        // again): one key, so one fingerprint group, two logs.
        let (d1, d2, d3) = (dir(1), dir(2), dir(3));
        store.append(&key_a, entry_in(d1, "x", 1), SimTime::ZERO);
        store.append(&key_a, entry_in(d2, "y", 2), SimTime::ZERO);
        store.append(&key_b, entry_in(d3, "z", 3), SimTime::ZERO);
        assert_eq!(store.total_pending(), 3);
        assert_eq!(store.get(&d3).map(|log| log.fp), Some(fp_b));
        let mut group_a = store.dirs_in_group(fp_a);
        group_a.sort();
        let mut expect = vec![d1, d2];
        expect.sort();
        assert_eq!(group_a, expect);
        assert_eq!(store.snapshot_group(fp_a).len(), 2);
        assert_eq!(store.snapshot_group(fp_b).len(), 1);
    }

    #[test]
    fn discard_in_group_drops_empty_logs() {
        let mut store = ChangeLogStore::default();
        let key = MetaKey::new(DirId::ROOT, "a");
        let fp = Fingerprint::of_dir(&key.pid, &key.name);
        store.append(&key, entry_in(dir(1), "x", 1), SimTime::ZERO);
        let applied: FxHashSet<OpId> = [OpId {
            client: ClientId(1),
            seq: 1,
        }]
        .into_iter()
        .collect();
        assert_eq!(store.discard_applied_in_group(fp, &applied), 1);
        assert!(store.is_empty());
        assert!(store.dirs_in_group(fp).is_empty());
    }

    #[test]
    fn clear_drops_everything() {
        let mut store = ChangeLogStore::default();
        store.append(
            &MetaKey::new(DirId::ROOT, "a"),
            entry_in(dir(1), "x", 1),
            SimTime::ZERO,
        );
        store.clear();
        assert!(store.is_empty());
        assert_eq!(store.dirty_dirs().count(), 0);
    }
}
