//! The in-network dirty set (§6.3, Fig. 9 and Fig. 10).
//!
//! Fingerprints are stored in a set-associative structure: the switch has
//! `stages` pipeline stages, each holding `2^index_bits` 32-bit registers.
//! Registers at the same index across stages form a *set*; the 17-bit index
//! field of a fingerprint selects the set and the 32-bit tag identifies the
//! fingerprint within it. An `insert` walks the stages in order until a
//! *conditional insert* succeeds, then issues *conditional removes* on the
//! remaining stages so no duplicate tag survives; a `query` succeeds if any
//! stage matches; a `remove` issues conditional removes on every stage.

use switchfs_proto::Fingerprint;

use crate::registers::RegisterStage;

/// Sizing of the dirty set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DirtySetConfig {
    /// Number of pipeline stages holding registers (the paper's switch uses
    /// ten).
    pub stages: usize,
    /// log2 of the number of registers per stage (the paper allocates
    /// 2^17 = 131,072 registers per stage).
    pub index_bits: u32,
}

impl Default for DirtySetConfig {
    fn default() -> Self {
        DirtySetConfig {
            stages: 10,
            index_bits: Fingerprint::INDEX_BITS,
        }
    }
}

impl DirtySetConfig {
    /// A small configuration used by tests that need to exercise overflow.
    pub fn tiny(stages: usize, index_bits: u32) -> Self {
        DirtySetConfig { stages, index_bits }
    }

    /// Total fingerprint capacity (registers across all stages).
    pub fn capacity(&self) -> usize {
        self.stages * (1usize << self.index_bits)
    }
}

/// Result of a dirty-set insert.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InsertOutcome {
    /// The fingerprint is now present (newly stored or already there).
    Inserted,
    /// Every stage's register for this set index was occupied by other tags:
    /// the insert fails and the operation must fall back to a synchronous
    /// update (§5.2.1).
    Overflow,
}

/// The set-associative in-network dirty set.
///
/// Capacity, stages and set-associativity are the paper's (§6.5): an insert
/// overflows exactly when every stage's register at its index holds another
/// tag. Each stage keeps its registers in host pages allocated on first
/// write (see [`RegisterStage`]), so an empty set of the default sizing costs
/// the host its 1,280 page slots (10 KiB), not the 5.24 MB of its registers.
#[derive(Debug, Clone)]
pub struct DirtySet {
    config: DirtySetConfig,
    stages: Vec<RegisterStage>,
    index_mask: u32,
}

impl Default for DirtySet {
    fn default() -> Self {
        DirtySet::new(DirtySetConfig::default())
    }
}

impl DirtySet {
    /// Creates an empty dirty set with the given sizing.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero index bits. Zero stages is the
    /// set with no room: every insert overflows and no query matches.
    pub fn new(config: DirtySetConfig) -> Self {
        assert!(
            config.index_bits > 0,
            "dirty set needs at least one index bit"
        );
        let per_stage = 1usize << config.index_bits;
        DirtySet {
            config,
            stages: (0..config.stages)
                .map(|_| RegisterStage::new(per_stage))
                .collect(),
            index_mask: (per_stage - 1) as u32,
        }
    }

    /// The sizing of this dirty set.
    pub fn config(&self) -> DirtySetConfig {
        self.config
    }

    fn index_of(&self, fp: Fingerprint) -> usize {
        (fp.index() & self.index_mask) as usize
    }

    /// Inserts a fingerprint (Fig. 10).
    pub fn insert(&mut self, fp: Fingerprint) -> InsertOutcome {
        let index = self.index_of(fp);
        let tag = fp.tag();
        let mut inserted_at = None;
        for (i, stage) in self.stages.iter_mut().enumerate() {
            if stage.conditional_insert(index, tag) {
                inserted_at = Some(i);
                break;
            }
        }
        match inserted_at {
            Some(i) => {
                // The remaining stages perform conditional removes so that no
                // duplicate tag remains in the set.
                for stage in self.stages.iter_mut().skip(i + 1) {
                    stage.conditional_remove(index, tag);
                }
                InsertOutcome::Inserted
            }
            None => InsertOutcome::Overflow,
        }
    }

    /// Queries whether a fingerprint is present.
    pub fn query(&self, fp: Fingerprint) -> bool {
        let index = self.index_of(fp);
        let tag = fp.tag();
        self.stages.iter().any(|s| s.query(index, tag))
    }

    /// Removes a fingerprint from every stage. Idempotent.
    pub fn remove(&mut self, fp: Fingerprint) {
        let index = self.index_of(fp);
        let tag = fp.tag();
        for stage in &mut self.stages {
            stage.conditional_remove(index, tag);
        }
    }

    /// Number of fingerprints currently stored.
    pub fn occupancy(&self) -> usize {
        self.stages.iter().map(|s| s.occupied()).sum()
    }

    /// Total register capacity.
    pub fn capacity(&self) -> usize {
        self.config.capacity()
    }

    /// Clears every register — the state loss of a switch reboot (§5.4.2).
    pub fn clear(&mut self) {
        for stage in &mut self.stages {
            stage.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::DirId;
    use switchfs_proto::ServerId;

    fn fp(i: u64) -> Fingerprint {
        Fingerprint::of_dir(&DirId::generate(ServerId(0), i), "d")
    }

    #[test]
    fn insert_then_query_then_remove() {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(4, 8));
        let f = fp(1);
        assert!(!ds.query(f));
        assert_eq!(ds.insert(f), InsertOutcome::Inserted);
        assert!(ds.query(f));
        assert_eq!(ds.occupancy(), 1);
        ds.remove(f);
        assert!(!ds.query(f));
        assert_eq!(ds.occupancy(), 0);
    }

    #[test]
    fn a_zero_stage_set_overflows_every_insert_and_matches_no_query() {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(0, 8));
        let f = fp(1);
        assert_eq!(ds.insert(f), InsertOutcome::Overflow);
        assert!(!ds.query(f));
        ds.remove(f);
        assert!(!ds.query(f));
        assert_eq!(ds.occupancy(), 0);
    }

    #[test]
    fn insert_is_idempotent() {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(4, 8));
        let f = fp(2);
        assert_eq!(ds.insert(f), InsertOutcome::Inserted);
        assert_eq!(ds.insert(f), InsertOutcome::Inserted);
        assert_eq!(
            ds.occupancy(),
            1,
            "duplicate insert must not create a second copy"
        );
    }

    #[test]
    fn remove_is_idempotent() {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(4, 8));
        let f = fp(3);
        ds.insert(f);
        ds.remove(f);
        ds.remove(f);
        assert_eq!(ds.occupancy(), 0);
        assert!(!ds.query(f));
    }

    #[test]
    fn set_associativity_stores_colliding_indexes_across_stages() {
        // One index bit: all fingerprints with the same low index bit share a
        // set; with 3 stages, up to 3 distinct tags fit before overflow.
        let mut ds = DirtySet::new(DirtySetConfig::tiny(3, 1));
        let mut same_set = Vec::new();
        let mut i = 0u64;
        while same_set.len() < 4 {
            let f = fp(i);
            i += 1;
            if f.index() & 1 == 0 && same_set.iter().all(|g: &Fingerprint| g.tag() != f.tag()) {
                same_set.push(f);
            }
        }
        assert_eq!(ds.insert(same_set[0]), InsertOutcome::Inserted);
        assert_eq!(ds.insert(same_set[1]), InsertOutcome::Inserted);
        assert_eq!(ds.insert(same_set[2]), InsertOutcome::Inserted);
        assert_eq!(ds.insert(same_set[3]), InsertOutcome::Overflow);
        // All three stored fingerprints are still queryable.
        for f in &same_set[..3] {
            assert!(ds.query(*f));
        }
        assert!(!ds.query(same_set[3]));
        // Removing one frees a slot for the overflowed fingerprint.
        ds.remove(same_set[0]);
        assert_eq!(ds.insert(same_set[3]), InsertOutcome::Inserted);
    }

    #[test]
    fn duplicate_insert_after_deeper_copy_keeps_single_copy() {
        // Regression for the "conditional remove after successful insert"
        // rule (Fig. 10): if a tag is already present in a later stage and a
        // re-insert lands in an earlier stage, the later copy is removed.
        let mut ds = DirtySet::new(DirtySetConfig::tiny(3, 1));
        // Find two fingerprints with the same index but different tags, and a
        // third equal to the first (same fingerprint re-used).
        let mut same_set = Vec::new();
        let mut i = 0u64;
        while same_set.len() < 2 {
            let f = fp(i);
            i += 1;
            if f.index() & 1 == 1 && same_set.iter().all(|g: &Fingerprint| g.tag() != f.tag()) {
                same_set.push(f);
            }
        }
        let (a, b) = (same_set[0], same_set[1]);
        ds.insert(a); // stage 0
        ds.insert(b); // stage 1
        ds.remove(a); // stage 0 slot now free, b still in stage 1
        ds.insert(b); // lands in stage 0, must remove the stage-1 copy
        assert_eq!(ds.occupancy(), 1);
        assert!(ds.query(b));
        ds.remove(b);
        assert!(!ds.query(b), "a stale duplicate copy survived the remove");
    }

    #[test]
    fn clear_models_switch_reboot() {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(2, 4));
        for i in 0..10 {
            ds.insert(fp(i));
        }
        assert!(ds.occupancy() > 0);
        ds.clear();
        assert_eq!(ds.occupancy(), 0);
        for i in 0..10 {
            assert!(!ds.query(fp(i)));
        }
    }

    #[test]
    fn default_capacity_matches_paper() {
        let ds = DirtySet::default();
        // 10 stages x 2^17 registers = 1,310,720 fingerprints (§6.5).
        assert_eq!(ds.capacity(), 1_310_720);
    }

    #[test]
    fn many_random_fingerprints_fit_well_below_capacity() {
        let mut ds = DirtySet::new(DirtySetConfig::tiny(10, 10));
        // Fill to 25% of capacity; with 10-way associativity overflow should
        // be extremely rare at this load factor.
        let n = ds.capacity() / 4;
        let mut overflows = 0;
        for i in 0..n as u64 {
            if ds.insert(fp(i)) == InsertOutcome::Overflow {
                overflows += 1;
            }
        }
        assert_eq!(overflows, 0, "unexpected overflow at 25% load");
    }
}
