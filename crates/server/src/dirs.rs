//! The directory store: one record per directory a server knows of, holding
//! the children it stores, the directory's key and its entry list.

use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::rc::Rc;
use switchfs_kvstore::KvStats;
use switchfs_proto::{DirEntry, DirId, InodeAttrs, MetaKey, Name};

use crate::server::DirContent;

/// What one server stores for one directory. Any of its three parts may be
/// empty; a record with all three empty is not kept.
#[derive(Debug, Default)]
pub(crate) struct DirRecord {
    /// The inodes of the directory's children this server holds, by name.
    children: BTreeMap<Name, InodeAttrs>,
    /// The key and the list, kept apart: one server holds them and every
    /// server that holds a child holds the record, so a record is 32 bytes
    /// where it would be 104. Made on first use, it goes with the record.
    content: Option<Box<Content>>,
}

/// The content owner's part of a [`DirRecord`].
#[derive(Debug, Default)]
struct Content {
    /// The directory's own key: what resolves a change-log entry's
    /// directory id to the directory's inode.
    key: Option<MetaKey>,
    /// The directory's entry list; empty means none.
    list: DirContent,
}

impl DirRecord {
    /// The directory's own key, where this server owns its content.
    pub fn key(&self) -> Option<&MetaKey> {
        self.content.as_ref()?.key.as_ref()
    }

    /// The directory's entry list, if it has one.
    pub fn list(&self) -> Option<&DirContent> {
        let list = &self.content.as_ref()?.list;
        (!list.is_empty()).then_some(list)
    }

    /// The children as inodes of directory `dir`, in name order.
    pub fn inodes(&self, dir: DirId) -> impl Iterator<Item = (MetaKey, &InodeAttrs)> + '_ {
        (self.children.iter()).map(move |(name, attrs)| (MetaKey::new(dir, name.clone()), attrs))
    }

    fn is_empty(&self) -> bool {
        let content = self.content.as_deref();
        self.children.is_empty() && content.is_none_or(|c| c.key.is_none() && c.list.is_empty())
    }
}

/// A server's directory records in `DirId` order, with one set of storage
/// counters. Inode operations count as a flat `(pid, name)` → attributes
/// store would, and list operations as a flat id → list store driven with
/// plain gets, puts and deletes; keys are not storage and count nothing.
#[derive(Debug, Default)]
pub(crate) struct DirStore {
    dirs: BTreeMap<DirId, DirRecord>,
    len: usize,
    stats: KvStats,
}

impl DirStore {
    /// Runs `f` on `dir`'s record, if there is one, and drops the record if
    /// `f` left it empty: the one place a record goes.
    fn shrink<R>(&mut self, dir: DirId, f: impl FnOnce(&mut DirRecord) -> Option<R>) -> Option<R> {
        let Entry::Occupied(mut slot) = self.dirs.entry(dir) else {
            return None;
        };
        let out = f(slot.get_mut());
        if slot.get().is_empty() {
            slot.remove();
        }
        out
    }

    /// `dir`'s key and list, made on first use.
    fn content(&mut self, dir: DirId) -> &mut Content {
        self.dirs
            .entry(dir)
            .or_default()
            .content
            .get_or_insert_default()
    }

    /// Inserts or overwrites an inode; returns the previous attributes if any.
    pub fn put(&mut self, key: MetaKey, attrs: InodeAttrs) -> Option<InodeAttrs> {
        self.stats.puts += 1;
        let record = self.dirs.entry(key.pid).or_default();
        let old = record.children.insert(key.name, attrs);
        self.len += usize::from(old.is_none());
        old
    }

    /// Looks up an inode.
    pub fn get(&mut self, key: &MetaKey) -> Option<InodeAttrs> {
        self.get_ref(key).cloned()
    }

    /// Looks up an inode: the read [`DirStore::get`] records, with no clone.
    pub fn get_ref(&mut self, key: &MetaKey) -> Option<&InodeAttrs> {
        self.stats.gets += 1;
        self.peek(key)
    }

    /// Looks up an inode without recording a read (internal bookkeeping that
    /// would not hit storage in a real server).
    pub fn peek(&self, key: &MetaKey) -> Option<&InodeAttrs> {
        self.dirs.get(&key.pid)?.children.get(&key.name)
    }

    /// True if the inode exists.
    pub fn contains(&self, key: &MetaKey) -> bool {
        self.peek(key).is_some()
    }

    /// Deletes an inode; returns its attributes if it existed.
    pub fn delete(&mut self, key: &MetaKey) -> Option<InodeAttrs> {
        self.stats.deletes += 1;
        let old = self.shrink(key.pid, |record| record.children.remove(&key.name))?;
        self.len -= 1;
        Some(old)
    }

    /// Number of stored inodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Inserts or replaces an entry in `dir`'s list: a get and a put.
    pub fn put_entry(&mut self, dir: DirId, entry: DirEntry) {
        self.stats.gets += 1;
        self.stats.puts += 1;
        self.content(dir).list.insert(entry);
    }

    /// Inserts or replaces a batch of entries in `dir`'s list in one pass
    /// ([`DirContent::extend`]), counted as the n single inserts it stands
    /// for: n gets and n puts. An empty batch counts nothing.
    pub fn extend_list(&mut self, dir: DirId, entries: Vec<DirEntry>) {
        if entries.is_empty() {
            return;
        }
        let n = entries.len() as u64;
        self.stats.gets += n;
        self.stats.puts += n;
        self.content(dir).list.extend(entries);
    }

    /// Removes an entry from `dir`'s list. A list is a get and a put, and a
    /// delete as well when it empties; no list is the get alone.
    pub fn remove_entry(&mut self, dir: DirId, name: &str) {
        self.stats.gets += 1;
        let hit = self.shrink(dir, |record| {
            let list = &mut record.content.as_mut()?.list;
            (!list.is_empty()).then(|| {
                list.remove(name);
                list.is_empty()
            })
        });
        if let Some(emptied) = hit {
            self.stats.puts += 1;
            self.stats.deletes += u64::from(emptied);
        }
    }

    /// `dir`'s entry list, if it has one, without recording a read.
    pub fn list(&self, dir: &DirId) -> Option<&DirContent> {
        self.dirs.get(dir)?.list()
    }

    /// True if `dir` currently lists an entry called `name`.
    pub fn entry_exists(&self, dir: &DirId, name: &str) -> bool {
        self.list(dir).is_some_and(|list| list.contains(name))
    }

    /// The length of `dir`'s entry list, read from storage: one get.
    pub fn list_len(&mut self, dir: &DirId) -> usize {
        self.stats.gets += 1;
        self.list(dir).map_or(0, DirContent::len)
    }

    /// `dir`'s shared listing, read from storage: one get (filling the
    /// listing memo is not a write).
    pub fn listing(&mut self, dir: &DirId) -> Rc<Vec<DirEntry>> {
        self.stats.gets += 1;
        match self.dirs.get_mut(dir).and_then(|r| r.content.as_mut()) {
            Some(content) if !content.list.is_empty() => content.list.listing(),
            _ => Rc::new(Vec::new()),
        }
    }

    /// Stamps a directory's attributes with its size: the length of the
    /// entry list this server holds for it. The size is not stored — every
    /// reply carrying a directory's attributes passes through here, so it
    /// cannot disagree with the listing. Files pass through unchanged.
    pub fn with_dir_size(&self, mut attrs: InodeAttrs) -> InodeAttrs {
        if attrs.is_dir() {
            attrs.size = self.list(&attrs.id).map_or(0, |list| list.len() as u64);
        }
        attrs
    }

    /// Records `key` as the key of directory `dir`, which this server owns.
    pub fn index(&mut self, dir: DirId, key: MetaKey) {
        self.content(dir).key = Some(key);
    }

    /// Forgets the key of directory `dir`.
    pub fn unindex(&mut self, dir: DirId) {
        self.shrink(dir, |record| record.content.as_mut()?.key.take());
    }

    /// The key of directory `dir`, if this server owns it.
    pub fn key(&self, dir: &DirId) -> Option<&MetaKey> {
        self.dirs.get(dir)?.key()
    }

    /// Every record in `DirId` order.
    pub fn records(&self) -> impl Iterator<Item = (&DirId, &DirRecord)> {
        self.dirs.iter()
    }

    /// True if this server keeps a record for `dir`.
    pub fn holds(&self, dir: &DirId) -> bool {
        self.dirs.contains_key(dir)
    }

    /// Accumulated operation counters.
    pub fn stats(&self) -> KvStats {
        self.stats
    }

    /// Drops every record, keeping the counters.
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
    use switchfs_proto::{FileType, Permissions};

    /// The references: a flat inode store, a flat list store driven through
    /// plain `get`/`put`/`delete`, and the keys.
    struct Flat {
        inodes: KvStore<MetaKey, InodeAttrs>,
        lists: KvStore<DirId, DirContent>,
        keys: BTreeMap<DirId, MetaKey>,
    }

    impl Flat {
        fn new() -> Self {
            let (inodes, lists, keys) = (KvStore::new(), KvStore::new(), BTreeMap::new());
            Flat {
                inodes,
                lists,
                keys,
            }
        }

        fn put_entry(&mut self, dir: DirId, entry: DirEntry) {
            let mut list = self.lists.get(&dir).unwrap_or_default();
            list.insert(entry);
            self.lists.put(dir, list);
        }

        fn remove_entry(&mut self, dir: DirId, name: &str) {
            if let Some(mut list) = self.lists.get(&dir) {
                list.remove(name);
                let emptied = list.is_empty();
                self.lists.put(dir, list);
                if emptied {
                    self.lists.delete(&dir);
                }
            }
        }

        fn stats(&self) -> KvStats {
            let mut stats = self.inodes.stats();
            stats += self.lists.stats();
            stats
        }
    }

    fn names_of(list: &DirContent) -> Vec<(String, u16)> {
        list.iter().map(|e| (e.name.to_string(), e.mode)).collect()
    }

    /// Seeded random sequences of inode operations (`put`/`get`/`get_ref`/
    /// `peek`/`contains`/`delete`), list operations (put, remove, exists,
    /// length and listing reads, batch) and key operations (index, unindex,
    /// get), with `clear` now and then, against [`Flat`]: the same answers,
    /// contents, length, summed counters and iteration order after every
    /// step, and no empty record kept. The ids include both ends of the
    /// range, and the few names per directory make records empty out and
    /// fill again.
    #[test]
    fn answers_and_counts_as_a_flat_store_does() {
        let dirs = [
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
            let (mut store, mut flat) = (DirStore::default(), Flat::new());
            for step in 0..600u64 {
                let dir = dirs[next(dirs.len())];
                let name = names[next(names.len())];
                let key = MetaKey::new(dir, name);
                let entry = |name: &str, mode: u64| DirEntry {
                    name: Name::from(name),
                    file_type: FileType::File,
                    mode: mode as u16,
                };
                match next(32) {
                    0..=5 => {
                        let attrs = InodeAttrs::new_file(dir, step, Permissions::default());
                        let put = store.put(key.clone(), attrs.clone());
                        assert_eq!(put, flat.inodes.put(key, attrs));
                    }
                    6 => assert_eq!(store.get(&key), flat.inodes.get(&key)),
                    7 => assert_eq!(store.get_ref(&key), flat.inodes.get_ref(&key)),
                    8 => assert_eq!(store.peek(&key), flat.inodes.peek(&key)),
                    9 => assert_eq!(store.contains(&key), flat.inodes.contains(&key)),
                    10..=12 => assert_eq!(store.delete(&key), flat.inodes.delete(&key)),
                    13..=15 => {
                        store.put_entry(dir, entry(name, step));
                        flat.put_entry(dir, entry(name, step));
                    }
                    16..=19 => {
                        store.remove_entry(dir, name);
                        flat.remove_entry(dir, name);
                    }
                    20 => {
                        let theirs = flat.lists.peek(&dir).is_some_and(|l| l.contains(name));
                        assert_eq!(store.entry_exists(&dir, name), theirs);
                    }
                    21 => {
                        let theirs = flat.lists.get(&dir).map_or(0, |l| l.len());
                        assert_eq!(store.list_len(&dir), theirs);
                    }
                    22 => {
                        let theirs: Vec<_> = flat
                            .lists
                            .get(&dir)
                            .map_or(Vec::new(), |l| l.iter().cloned().collect());
                        assert_eq!(*store.listing(&dir), theirs);
                    }
                    23 => {
                        // A batch of up to four, names repeating: the later
                        // of two entries of one name is the one kept.
                        let batch: Vec<DirEntry> = (0..next(5))
                            .map(|i| entry(names[next(names.len())], step + i as u64))
                            .collect();
                        for e in &batch {
                            flat.put_entry(dir, e.clone());
                        }
                        store.extend_list(dir, batch);
                    }
                    24..=25 => {
                        store.index(dir, key.clone());
                        flat.keys.insert(dir, key);
                    }
                    26..=28 => {
                        store.unindex(dir);
                        flat.keys.remove(&dir);
                    }
                    29 => assert_eq!(store.key(&dir), flat.keys.get(&dir)),
                    _ if next(8) == 0 => {
                        store.clear();
                        flat.inodes.clear();
                        flat.lists.clear();
                        flat.keys.clear();
                    }
                    _ => {}
                }
                let at = format!("seed {seed} step {step}");
                let records: Vec<_> = store.records().collect();
                let inodes: Vec<_> = records.iter().flat_map(|(d, r)| r.inodes(**d)).collect();
                let theirs: Vec<_> = flat.inodes.iter().map(|(k, v)| (k.clone(), v)).collect();
                assert_eq!(inodes, theirs, "{at}");
                let lists: Vec<_> = (records.iter())
                    .filter_map(|(d, r)| Some((**d, names_of(r.list()?))))
                    .collect();
                let theirs: Vec<_> = (flat.lists.iter())
                    .map(|(d, l)| (*d, names_of(l)))
                    .collect();
                assert_eq!(lists, theirs, "{at}");
                let keys: Vec<_> = (records.iter())
                    .filter_map(|(d, r)| Some((**d, r.key()?)))
                    .collect();
                let theirs: Vec<_> = flat.keys.iter().map(|(d, k)| (*d, k)).collect();
                assert_eq!(keys, theirs, "{at}");
                assert_eq!(store.len(), flat.inodes.len(), "{at}");
                assert_eq!(store.stats(), flat.stats(), "{at}");
                let kept_empty = records.iter().any(|(_, r)| r.is_empty());
                assert!(!kept_empty, "an emptied record stays: {at}");
            }
        }
    }
}
