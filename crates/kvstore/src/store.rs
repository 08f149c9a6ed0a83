//! The ordered key-value store.

use std::collections::BTreeMap;

switchfs_simnet::counters! {
    /// Operation counters, used by the simulation to attribute storage costs and
    /// by tests to assert how many mutations an operation performed (change-log
    /// compaction is evaluated partly by how many `put()` calls it saves, §5.3).
    pub struct KvStats {
        /// Number of `get` calls.
        pub gets: u64,
        /// Number of `put` calls.
        pub puts: u64,
        /// Number of `delete` calls.
        pub deletes: u64,
        /// Number of scan calls. The store has none at present (a directory's
        /// listing is one value, read with a `get`), so this stays 0; the field
        /// and its `kv.scans` registry row are part of what the figures and the
        /// benchmark report.
        pub scans: u64,
    }
}

/// An ordered, in-memory key-value store.
///
/// Keys must be `Ord + Clone`; values must be `Clone`. A flat store with
/// point operations and [`KvStats`] counters: the reference a metadata
/// server's directory store is tested against, which answers and counts as
/// flat stores of inodes and entry lists would.
#[derive(Debug, Clone, Default)]
pub struct KvStore<K: Ord + Clone, V: Clone> {
    map: BTreeMap<K, V>,
    stats: KvStats,
}

impl<K: Ord + Clone, V: Clone> KvStore<K, V> {
    /// Creates an empty store.
    pub fn new() -> Self {
        KvStore {
            map: BTreeMap::new(),
            stats: KvStats::default(),
        }
    }

    /// Inserts or overwrites a value; returns the previous value if any.
    pub fn put(&mut self, key: K, value: V) -> Option<V> {
        self.stats.puts += 1;
        self.map.insert(key, value)
    }

    /// Looks up a key.
    pub fn get(&mut self, key: &K) -> Option<V> {
        self.stats.gets += 1;
        self.map.get(key).cloned()
    }

    /// Looks up a key, returning a borrowed value. Records the same read as
    /// [`KvStore::get`] but never clones — the zero-copy variant for callers
    /// that only inspect the value (or clone a cheap `Rc` out of it).
    pub fn get_ref(&mut self, key: &K) -> Option<&V> {
        self.stats.gets += 1;
        self.map.get(key)
    }

    /// Looks up a key without recording a read (used by internal bookkeeping
    /// that would not hit storage in a real server).
    pub fn peek(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    /// True if the key exists.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Deletes a key; returns the previous value if any.
    pub fn delete(&mut self, key: &K) -> Option<V> {
        self.stats.deletes += 1;
        self.map.remove(key)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True if the store has no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Iterates over every entry in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.map.iter()
    }

    /// Accumulated operation counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Drops every entry, keeping the counters.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_delete() {
        let mut kv = KvStore::new();
        assert!(kv.is_empty());
        assert_eq!(kv.put("a".to_string(), 1), None);
        assert_eq!(kv.put("a".to_string(), 2), Some(1));
        assert_eq!(kv.get(&"a".to_string()), Some(2));
        assert!(kv.contains(&"a".to_string()));
        assert_eq!(kv.delete(&"a".to_string()), Some(2));
        assert_eq!(kv.get(&"a".to_string()), None);
        let s = kv.stats();
        assert_eq!((s.puts, s.gets, s.deletes), (2, 2, 1));
    }

    #[test]
    fn peek_does_not_count_as_get() {
        let mut kv = KvStore::new();
        kv.put(1u32, "x");
        assert_eq!(kv.peek(&1), Some(&"x"));
        assert_eq!(kv.stats().gets, 0);
    }

    #[test]
    fn borrowed_get_records_the_same_read_as_the_cloning_get() {
        let mut kv = KvStore::new();
        kv.put("k".to_string(), 3u32);
        let got = kv.get(&"k".to_string());
        let got_ref = kv.get_ref(&"k".to_string()).copied();
        assert_eq!(got, got_ref);
        assert_eq!(kv.stats().gets, 2);
    }

    #[test]
    fn rc_values_share_without_deep_copies() {
        use std::rc::Rc;
        let mut kv: KvStore<u32, Rc<Vec<u32>>> = KvStore::new();
        kv.put(1, Rc::new(vec![1, 2, 3]));
        let a = Rc::clone(kv.get_ref(&1).unwrap());
        let b = Rc::clone(kv.get_ref(&1).unwrap());
        assert!(Rc::ptr_eq(&a, &b), "readers share one allocation");
        // Copy-on-write: mutating through make_mut leaves readers intact.
        let mut v = kv.get(&1).unwrap();
        Rc::make_mut(&mut v).push(4);
        kv.put(1, v);
        assert_eq!(*a, vec![1, 2, 3], "existing readers see the old list");
        assert_eq!(**kv.peek(&1).unwrap(), vec![1, 2, 3, 4]);
    }

    #[test]
    fn clear_keeps_stats() {
        let mut kv = KvStore::new();
        kv.put(1u32, 1u32);
        kv.clear();
        assert!(kv.is_empty());
        assert_eq!(kv.stats().puts, 1);
    }
}
