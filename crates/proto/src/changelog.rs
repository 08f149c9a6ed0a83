//! Change-log entries: delayed directory updates (§5.3, Fig. 7).
//!
//! A change-log entry records the effect an already-committed double-inode
//! operation will eventually have on its parent directory: an entry-list
//! insertion or removal, a size delta and a timestamp overwrite. Entries for
//! the same directory are conditionally commutative, which is what allows
//! SwitchFS to *compact* a change-log before applying it:
//!
//! * size deltas add up in any order (action type (a)); a directory's size
//!   is its listing's length here, so the compacted entry-list mutations
//!   carry the sum;
//! * only the largest timestamp survives (action type (b));
//! * insert/remove of *different* names commute, while insert/remove of the
//!   *same* name must be applied in commit order — guaranteed because the
//!   change-log is a FIFO and same-name operations are always logged by the
//!   same server (per-file hashing places them together).

use crate::ids::{DirId, OpId};
use crate::schema::FileType;
use serde::{Deserialize, Serialize};

/// The directory-visible effect of a deferred double-inode operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChangeOp {
    /// A child (file or directory) was created: insert an entry.
    Insert {
        /// Type of the created child.
        file_type: FileType,
        /// Permission bits cached in the entry list.
        mode: u16,
    },
    /// A child was removed: delete the entry.
    Remove,
}

/// One record in a per-directory change-log.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChangeLogEntry {
    /// Unique id of the entry (used to de-duplicate re-sent entries during
    /// aggregation retries and crash recovery, §A.1).
    pub entry_id: OpId,
    /// The directory being updated.
    pub dir: DirId,
    /// Name of the affected child.
    pub name: String,
    /// What happened to the child.
    pub op: ChangeOp,
    /// Commit timestamp of the originating operation (virtual nanoseconds).
    pub timestamp: u64,
    /// Delta to apply to the directory's entry count / size.
    pub size_delta: i64,
}

impl ChangeLogEntry {
    /// Size of the entry when marshalled into an aggregation packet, in
    /// bytes. Used by the MTU-based proactive-push policy (§5.3): a server
    /// pushes its change-log once the accumulated entries fill an MTU.
    pub fn wire_size(&self) -> usize {
        // entry_id (12) + dir (32) + op/type/mode (4) + timestamp (8)
        // + size_delta (8) + name length prefix (2) + name bytes.
        66 + self.name.len()
    }
}

/// A compacted view of a set of change-log entries for one directory:
/// the latest timestamp plus the ordered entry-list mutations. It borrows
/// the names from the entries it was compacted from; the owner applies it
/// at once and no message carries it.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CompactedChanges<'a> {
    /// Largest commit timestamp seen (overwrites directory `mtime`/`ctime`).
    pub max_timestamp: u64,
    /// Net entry-list mutations, in original FIFO order after removing
    /// insert/remove pairs that cancel out.
    pub entry_ops: Vec<(&'a str, ChangeOp)>,
    /// Number of raw entries that were compacted away.
    pub merged_entries: usize,
}

impl<'a> CompactedChanges<'a> {
    /// Compacts a FIFO sequence of change-log entries for a single
    /// directory.
    ///
    /// Timestamps are merged into a single value. Entry-list operations on
    /// *different* names are kept; repeated insert/remove of the *same* name
    /// is reduced to its net effect while preserving the relative order of
    /// surviving operations.
    pub fn from_entries(entries: &'a [ChangeLogEntry]) -> CompactedChanges<'a> {
        Self::from_entry_refs(entries.iter())
    }

    /// Like [`CompactedChanges::from_entries`], but over borrowed entries —
    /// the aggregation path groups entries per directory by reference, so no
    /// entry is cloned just to be compacted.
    pub fn from_entry_refs(
        entries: impl IntoIterator<Item = &'a ChangeLogEntry>,
    ) -> CompactedChanges<'a> {
        let mut out = CompactedChanges::default();
        // Net effect per name: we walk the FIFO and fold insert/remove pairs.
        // Per name still in play: the position of its surviving op in `ops`,
        // and whether its *first* op of the batch was an insert — that is
        // what the batch says about the listing it is applied to. A name
        // first inserted was absent before the batch, so a later remove
        // takes it back to "never mentioned"; a name first removed was
        // present, so whatever follows, the listing must end up changed.
        // Ordered map, not a std `HashMap`: this is lookup-only today, but
        // keeping RandomState out of the aggregation path entirely is what
        // makes the cross-process determinism guarantee auditable.
        let mut in_play: std::collections::BTreeMap<&str, (usize, bool)> =
            std::collections::BTreeMap::new();
        let mut ops: Vec<Option<(&str, ChangeOp)>> = Vec::new();
        for e in entries {
            out.max_timestamp = out.max_timestamp.max(e.timestamp);
            match (in_play.get(e.name.as_str()), e.op) {
                // insert … remove of a name the batch introduced cancels out.
                (Some(&(idx, true)), ChangeOp::Remove) => {
                    ops[idx] = None;
                    in_play.remove(e.name.as_str());
                    out.merged_entries += 2;
                }
                // Any other repeated operation on the same name collapses to
                // the latest one: entry-list puts overwrite by key, so only
                // the final state matters (remove→insert becomes the insert,
                // remove→insert→remove is a remove again — the name was
                // listed before the batch and must not be afterwards).
                (Some(&(idx, _)), op) => {
                    ops[idx] = Some((e.name.as_str(), op));
                    out.merged_entries += 1;
                }
                (None, op) => {
                    ops.push(Some((e.name.as_str(), op)));
                    let first_is_insert = matches!(op, ChangeOp::Insert { .. });
                    in_play.insert(e.name.as_str(), (ops.len() - 1, first_is_insert));
                }
            }
        }
        #[expect(
            clippy::filter_map_identity,
            reason = "flatten does not collect in place"
        )]
        let entry_ops = ops.into_iter().filter_map(|op| op).collect();
        CompactedChanges { entry_ops, ..out }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ClientId;

    fn entry(name: &str, op: ChangeOp, ts: u64, delta: i64, seq: u64) -> ChangeLogEntry {
        ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(0),
                seq,
            },
            dir: DirId::ROOT,
            name: name.to_string(),
            op,
            timestamp: ts,
            size_delta: delta,
        }
    }

    const INS: ChangeOp = ChangeOp::Insert {
        file_type: FileType::File,
        mode: 0o644,
    };

    #[test]
    fn compaction_merges_attribute_updates() {
        let entries = vec![
            entry("a", INS, 10, 1, 1),
            entry("b", INS, 30, 1, 2),
            entry("c", INS, 20, 1, 3),
        ];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.max_timestamp, 30);
        assert_eq!(c.entry_ops.len(), 3);
    }

    #[test]
    fn insert_then_remove_cancels() {
        let entries = vec![
            entry("tmp", INS, 10, 1, 1),
            entry("keep", INS, 11, 1, 2),
            entry("tmp", ChangeOp::Remove, 12, -1, 3),
        ];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.entry_ops.len(), 1);
        assert_eq!(c.entry_ops[0].0, "keep");
        assert_eq!(c.merged_entries, 2);
    }

    #[test]
    fn remove_then_insert_collapses_to_the_insert() {
        // delete(x) followed by create(x): entry-list puts overwrite by key,
        // so only the final insert needs to be applied.
        let entries = vec![
            entry("x", ChangeOp::Remove, 10, -1, 1),
            entry("x", INS, 11, 1, 2),
        ];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.entry_ops.len(), 1);
        assert!(matches!(c.entry_ops[0].1, ChangeOp::Insert { .. }));
        assert_eq!(c.merged_entries, 1);
    }

    #[test]
    fn remove_insert_remove_stays_a_remove() {
        // delete(x), create(x), delete(x) by one client, collected by one
        // round: `x` was listed before the batch, so the insert→remove pair
        // must not cancel down to nothing — the entry would linger in the
        // listing with no inode behind it.
        let entries = vec![
            entry("x", ChangeOp::Remove, 10, -1, 450),
            entry("keep", INS, 11, 1, 451),
            entry("x", INS, 12, 1, 453),
            entry("x", ChangeOp::Remove, 13, -1, 456),
        ];
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.entry_ops, [("x", ChangeOp::Remove), ("keep", INS)]);
        assert_eq!(c.merged_entries, 2);
        // One more turn ends on the insert; a name the batch introduced still
        // cancels, also after it cancelled once already.
        let mut entries = entries;
        entries.push(entry("x", INS, 14, 1, 459));
        entries.push(entry("tmp", INS, 15, 1, 460));
        entries.push(entry("tmp", ChangeOp::Remove, 16, -1, 461));
        entries.push(entry("tmp", INS, 17, 1, 462));
        entries.push(entry("tmp", ChangeOp::Remove, 18, -1, 463));
        let c = CompactedChanges::from_entries(&entries);
        assert_eq!(c.entry_ops, [("x", INS), ("keep", INS)]);
        assert_eq!(c.merged_entries, 7);
    }

    #[test]
    fn empty_compaction_is_identity() {
        let c = CompactedChanges::from_entries(&[]);
        assert_eq!(c.max_timestamp, 0);
        assert!(c.entry_ops.is_empty());
    }

    #[test]
    fn wire_size_tracks_name_length() {
        let short = entry("a", INS, 1, 1, 1).wire_size();
        let long = entry("a-much-longer-name", INS, 1, 1, 1).wire_size();
        assert_eq!(long - short, "a-much-longer-name".len() - 1);
    }
}
