//! The dirty set kept in a server's memory (§7.3.3).
//!
//! The paper compares the in-network dirty set against two server-based
//! alternatives: a *dedicated coordinator* that tracks every directory's
//! state, and *owner-server tracking*, where each directory's owner tracks
//! its own. Both keep this set; [`crate::ServerConfig::software_tracker`]
//! says which node keeps it for a fingerprint, and every other server
//! reaches it with `Request::DirtySet`. Unlike the switch's it has no
//! set-associativity to overflow, but every remote access costs the keeper
//! CPU and the caller a round trip — the overhead Fig. 15 and Fig. 16 show.

use std::collections::BTreeSet;

use switchfs_proto::{DirtyRet, DirtySetOp, DirtyState, Fingerprint};

/// A set of scattered fingerprints. Ordered, not a std `HashSet`: the
/// aggregation path must be free of std-`RandomState` so cross-process
/// same-seed runs stay bit-identical.
#[derive(Debug, Clone, Default)]
pub struct ServerDirtySet(BTreeSet<u64>);

impl ServerDirtySet {
    /// Applies one operation and returns what the switch would: an insert
    /// always succeeds, and inserts and removes are idempotent.
    pub fn apply(&mut self, op: DirtySetOp, fp: Fingerprint) -> DirtyRet {
        match op {
            DirtySetOp::Insert => {
                self.0.insert(fp.raw());
                DirtyRet::Inserted
            }
            DirtySetOp::Query => DirtyRet::State(if self.0.contains(&fp.raw()) {
                DirtyState::Scattered
            } else {
                DirtyState::Normal
            }),
            DirtySetOp::Remove => {
                self.0.remove(&fp.raw());
                DirtyRet::Removed
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{DirId, ServerId};

    #[test]
    fn insert_query_remove_roundtrip() {
        let fp = Fingerprint::of_dir(&DirId::generate(ServerId(0), 9), "d");
        let mut s = ServerDirtySet::default();
        let query = |s: &mut ServerDirtySet| s.apply(DirtySetOp::Query, fp);
        assert_eq!(query(&mut s), DirtyRet::State(DirtyState::Normal));
        assert_eq!(s.apply(DirtySetOp::Insert, fp), DirtyRet::Inserted);
        assert_eq!(s.apply(DirtySetOp::Insert, fp), DirtyRet::Inserted);
        assert_eq!(query(&mut s), DirtyRet::State(DirtyState::Scattered));
        assert_eq!(s.apply(DirtySetOp::Remove, fp), DirtyRet::Removed);
        assert_eq!(query(&mut s), DirtyRet::State(DirtyState::Normal));
        assert_eq!(s.apply(DirtySetOp::Remove, fp), DirtyRet::Removed);
    }
}
