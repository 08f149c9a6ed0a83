//! A software dirty set.
//!
//! §7.3.3 of the paper compares the in-network dirty set against two
//! server-based alternatives: a *dedicated server* that tracks all directory
//! states, and *owner-server tracking* where each directory's owner tracks
//! its own dirty state. Both alternatives keep the set in ordinary server
//! memory; this type is that data structure. Unlike the switch implementation
//! it has no set-associativity constraints, but every access costs server CPU
//! and an extra network round trip, which is exactly the overhead Fig. 15 and
//! Fig. 16 measure.

use std::collections::BTreeSet;

use switchfs_proto::{DirtyRet, DirtySetOp, DirtyState, Fingerprint};

/// A set-based dirty set. Ordered set, not a std `HashSet`: lookup-only
/// today, but the aggregation path must be free of std-`RandomState` so
/// cross-process same-seed runs stay bit-identical.
#[derive(Debug, Clone, Default)]
pub struct SoftwareDirtySet {
    set: BTreeSet<u64>,
}

impl SoftwareDirtySet {
    /// Creates an empty software dirty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a fingerprint. Idempotent.
    pub fn insert(&mut self, fp: Fingerprint) {
        self.set.insert(fp.raw());
    }

    /// Queries a fingerprint.
    pub fn query(&self, fp: Fingerprint) -> bool {
        self.set.contains(&fp.raw())
    }

    /// Removes a fingerprint. Idempotent.
    pub fn remove(&mut self, fp: Fingerprint) {
        self.set.remove(&fp.raw());
    }

    /// Applies a [`DirtySetOp`] and returns the RPC-style result, mirroring
    /// the coordinator protocol of §7.3.3. Server memory has no
    /// set-associativity to overflow, so an insert always succeeds.
    pub fn apply(&mut self, op: DirtySetOp, fp: Fingerprint) -> DirtyRet {
        match op {
            DirtySetOp::Insert => {
                self.insert(fp);
                DirtyRet::Inserted
            }
            DirtySetOp::Query => DirtyRet::State(if self.query(fp) {
                DirtyState::Scattered
            } else {
                DirtyState::Normal
            }),
            DirtySetOp::Remove => {
                self.remove(fp);
                DirtyRet::Removed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{DirId, ServerId};

    fn fp(i: u64) -> Fingerprint {
        Fingerprint::of_dir(&DirId::generate(ServerId(0), i), "d")
    }

    #[test]
    fn insert_query_remove_roundtrip() {
        let mut s = SoftwareDirtySet::new();
        assert!(!s.query(fp(1)));
        s.insert(fp(1));
        assert!(s.query(fp(1)));
        s.remove(fp(1));
        assert!(!s.query(fp(1)));
    }

    #[test]
    fn apply_matches_individual_operations() {
        let mut s = SoftwareDirtySet::new();
        assert_eq!(
            s.apply(DirtySetOp::Query, fp(9)),
            DirtyRet::State(DirtyState::Normal)
        );
        assert_eq!(s.apply(DirtySetOp::Insert, fp(9)), DirtyRet::Inserted);
        assert_eq!(
            s.apply(DirtySetOp::Query, fp(9)),
            DirtyRet::State(DirtyState::Scattered)
        );
        assert_eq!(s.apply(DirtySetOp::Remove, fp(9)), DirtyRet::Removed);
        assert!(!s.query(fp(9)));
    }
}
