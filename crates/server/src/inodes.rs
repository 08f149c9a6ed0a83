//! The inode store: a server's `(pid, name)` → attributes map, kept per
//! parent directory.

use std::collections::BTreeMap;
use switchfs_kvstore::KvStats;
use switchfs_proto::{DirId, InodeAttrs, MetaKey, Name};

/// A server's inodes, keyed by parent directory and then by name.
///
/// It answers and counts exactly as a flat
/// [`KvStore<MetaKey, InodeAttrs>`](switchfs_kvstore::KvStore) would, and
/// iterates in the same `MetaKey` order, but a directory's 32-byte id is
/// stored once for all its children instead of once in every child's key: a
/// leaf slot holds a [`Name`] and the attributes. A directory's map goes
/// when its last child does.
#[derive(Debug, Default)]
pub(crate) struct InodeStore {
    dirs: BTreeMap<DirId, BTreeMap<Name, InodeAttrs>>,
    len: usize,
    stats: KvStats,
}

impl InodeStore {
    /// Inserts or overwrites an inode; returns the previous attributes if any.
    pub fn put(&mut self, key: MetaKey, attrs: InodeAttrs) -> Option<InodeAttrs> {
        self.stats.puts += 1;
        let children = self.dirs.entry(key.pid).or_default();
        let old = children.insert(key.name, attrs);
        self.len += usize::from(old.is_none());
        old
    }

    /// Looks up an inode.
    pub fn get(&mut self, key: &MetaKey) -> Option<InodeAttrs> {
        self.get_ref(key).cloned()
    }

    /// Looks up an inode, returning borrowed attributes. Records the same
    /// read as [`InodeStore::get`] but never clones.
    pub fn get_ref(&mut self, key: &MetaKey) -> Option<&InodeAttrs> {
        self.stats.gets += 1;
        self.peek(key)
    }

    /// Looks up an inode without recording a read (internal bookkeeping that
    /// would not hit storage in a real server).
    pub fn peek(&self, key: &MetaKey) -> Option<&InodeAttrs> {
        self.dirs.get(&key.pid)?.get(&key.name)
    }

    /// True if the inode exists.
    pub fn contains(&self, key: &MetaKey) -> bool {
        self.peek(key).is_some()
    }

    /// Deletes an inode; returns its attributes if it existed.
    pub fn delete(&mut self, key: &MetaKey) -> Option<InodeAttrs> {
        self.stats.deletes += 1;
        let children = self.dirs.get_mut(&key.pid)?;
        let old = children.remove(&key.name)?;
        if children.is_empty() {
            self.dirs.remove(&key.pid);
        }
        self.len -= 1;
        Some(old)
    }

    /// Number of stored inodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Iterates over every inode in `MetaKey` order; each key is built on
    /// the fly (its name is a shared [`Name`], so nothing is allocated).
    pub fn iter(&self) -> impl Iterator<Item = (MetaKey, &InodeAttrs)> {
        self.dirs.iter().flat_map(|(pid, children)| {
            let key = move |name: &Name| MetaKey {
                pid: *pid,
                name: name.clone(),
            };
            children.iter().map(move |(name, attrs)| (key(name), attrs))
        })
    }

    /// Accumulated operation counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Drops every inode, keeping the counters.
    pub fn clear(&mut self) {
        self.dirs.clear();
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_kvstore::KvStore;
    use switchfs_proto::ids::splitmix64;
    use switchfs_proto::Permissions;

    /// Seeded random `put`/`get`/`get_ref`/`peek`/`contains`/`delete`/
    /// `iter`/`clear` sequences against a flat `KvStore<MetaKey,
    /// InodeAttrs>`: the same answers, contents, length, counters and
    /// iteration order after every step. The parents include both ends of
    /// the id range, and the few names per parent make directories empty
    /// out and fill again.
    #[test]
    fn answers_and_counts_as_a_flat_store_does() {
        let parents = [
            DirId::ROOT,
            DirId([0, 0, 0, 1]),
            DirId([7, 0, 0, 0]),
            DirId([u64::MAX, u64::MAX, u64::MAX, u64::MAX - 1]),
            DirId([u64::MAX; 4]),
        ];
        let names = ["", "a", "b", "f10", "f9"];
        for seed in 0..32u64 {
            let mut state = seed;
            let mut next = |n: usize| {
                state = splitmix64(state);
                (state % n as u64) as usize
            };
            let (mut store, mut flat) = (InodeStore::default(), KvStore::new());
            for step in 0..400u64 {
                let pid = parents[next(parents.len())];
                let key = MetaKey::new(pid, names[next(names.len())]);
                match next(16) {
                    0..=5 => {
                        let attrs = InodeAttrs::new_file(pid, step, Permissions::default());
                        let put = store.put(key.clone(), attrs.clone());
                        assert_eq!(put, flat.put(key, attrs));
                    }
                    6..=7 => assert_eq!(store.get(&key), flat.get(&key)),
                    8 => assert_eq!(store.get_ref(&key), flat.get_ref(&key)),
                    9 => assert_eq!(store.peek(&key), flat.peek(&key)),
                    10 => assert_eq!(store.contains(&key), flat.contains(&key)),
                    11..=14 => assert_eq!(store.delete(&key), flat.delete(&key)),
                    _ if next(8) == 0 => {
                        store.clear();
                        flat.clear();
                    }
                    _ => {}
                }
                let ours: Vec<_> = store.iter().collect();
                let theirs: Vec<_> = flat.iter().map(|(k, v)| (k.clone(), v)).collect();
                assert_eq!(ours, theirs, "seed {seed} step {step}");
                assert_eq!(store.len(), flat.len());
                assert_eq!(store.stats(), flat.stats());
                let nonempty = store.dirs.values().all(|children| !children.is_empty());
                assert!(nonempty, "an emptied directory's map stays");
            }
        }
    }
}
