//! The client-side metadata cache.
//!
//! LibFS caches **only directory metadata** (§4.2): for every resolved
//! directory path it remembers the directory's key and attributes (its id
//! among them), which is what path resolution needs; the fingerprint derives
//! from the key.
//! Entries are invalidated lazily: when a server answers `ESTALE` (because
//! an ancestor appears in its invalidation list), the client drops every
//! cached entry along that path and retries the operation from scratch
//! (§5.2.1, §5.2.3).

use std::borrow::Cow;
use std::rc::Rc;

use switchfs_proto::{FsError, FsResult, InodeAttrs, MetaKey};
use switchfs_simnet::FxHashMap;

/// One cached directory.
#[derive(Debug, Clone)]
pub struct CachedDir {
    /// The directory's `(pid, name)` key.
    pub key: MetaKey,
    /// The directory's attributes (its id among them) as of the last lookup.
    pub attrs: InodeAttrs,
}

/// Path-indexed cache of directory metadata. Entries are shared (`Rc`):
/// a hit hands out a reference-counted pointer instead of deep-copying the
/// cached key and attributes.
#[derive(Debug, Default)]
pub struct MetaCache {
    dirs: FxHashMap<String, Rc<CachedDir>>,
    hits: u64,
    misses: u64,
    invalidations: u64,
}

impl MetaCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a directory by absolute path. The returned entry is shared,
    /// not copied.
    pub fn get(&mut self, path: &str) -> Option<Rc<CachedDir>> {
        match self.dirs.get(path) {
            Some(d) => {
                self.hits += 1;
                Some(Rc::clone(d))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts or refreshes a directory entry.
    pub fn insert(&mut self, path: &str, dir: Rc<CachedDir>) {
        self.dirs.insert(path.to_string(), dir);
    }

    /// Drops the entry for the canonical `path` and for every path beneath
    /// it (a removed or renamed directory invalidates its whole subtree).
    /// Alloc-free: the descendant test slices `path` instead of building a
    /// prefix string.
    pub fn invalidate_subtree(&mut self, path: &str) {
        let before = self.dirs.len();
        // Drops `path` itself and every entry that continues it with a '/'.
        self.dirs.retain(|p, _| {
            p.strip_prefix(path)
                .is_none_or(|rest| !rest.is_empty() && !rest.starts_with('/'))
        });
        self.invalidations += (before - self.dirs.len()) as u64;
    }

    /// Drops every cached entry along an absolute path (used after an
    /// `ESTALE` response, when the client does not know which component went
    /// stale).
    pub fn invalidate_path(&mut self, path: &str) {
        for prefix in path_prefixes(path) {
            if self.dirs.remove(prefix).is_some() {
                self.invalidations += 1;
            }
        }
    }

    /// Number of cached directories.
    pub fn len(&self) -> usize {
        self.dirs.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.dirs.is_empty()
    }

    /// `(hits, misses, invalidations)` counters.
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.hits, self.misses, self.invalidations)
    }

    /// Drops everything.
    pub fn clear(&mut self) {
        self.dirs.clear();
    }
}

/// Iterates every directory prefix of an absolute path, excluding the root:
/// `"/a/b/c"` → `"/a"`, `"/a/b"`, `"/a/b/c"`. Alloc-free — each prefix is a
/// slice of the input ending at a component boundary, so the input must be
/// canonical (no repeated separators): `"/a//b"` yields `"/a//b"`, not
/// `"/a/b"`, and would miss the canonical cache key. `LibFs` canonicalizes
/// every path where it enters an operation (`canonical_path`), so every
/// path it caches under, looks up or invalidates is canonical.
pub fn path_prefixes(path: &str) -> impl Iterator<Item = &str> {
    path.char_indices()
        .filter_map(move |(i, c)| {
            // A component ends right before a separator or at end-of-string.
            let boundary =
                c != '/' && matches!(path.as_bytes().get(i + c.len_utf8()), None | Some(b'/'));
            boundary.then(|| &path[..i + c.len_utf8()])
        })
        .filter(|p| !p.is_empty())
}

/// The canonical spelling of a path: each component after one `/`, nothing
/// after the last (`"/a//b/"` and `"a/b"` → `"/a/b"`), and `"/"` for a
/// path of separators alone, the root. Borrowed when `path` is already
/// canonical. The empty path names nothing: `NotFound`.
pub(crate) fn canonical_path(path: &str) -> FsResult<Cow<'_, str>> {
    let canonical = path.starts_with('/') && !path.ends_with('/') && !path.contains("//");
    if canonical {
        return Ok(Cow::Borrowed(path));
    }
    let mut out = String::with_capacity(path.len() + 1);
    for comp in path_components(path) {
        out.push('/');
        out.push_str(comp);
    }
    match out.is_empty() {
        false => Ok(Cow::Owned(out)),
        true if path.is_empty() => Err(FsError::NotFound),
        true => Ok(Cow::Borrowed("/")),
    }
}

/// Number of components of a canonical path: one per separator.
pub(crate) fn depth(path: &str) -> usize {
    path.bytes().filter(|&b| b == b'/').count()
}

/// Iterates the components of an absolute path without allocating.
pub fn path_components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{DirId, Permissions};

    fn dir(name: &str) -> CachedDir {
        CachedDir {
            key: MetaKey::new(DirId::ROOT, name),
            attrs: InodeAttrs::new_dir(DirId::ROOT, 0, Permissions::default()),
        }
    }

    #[test]
    fn hit_and_miss_counters() {
        let mut c = MetaCache::new();
        assert!(c.get("/a").is_none());
        c.insert("/a", Rc::new(dir("a")));
        assert!(c.get("/a").is_some());
        assert_eq!(c.counters(), (1, 1, 0));
    }

    #[test]
    fn invalidate_subtree_drops_descendants() {
        let mut c = MetaCache::new();
        c.insert("/a", Rc::new(dir("a")));
        c.insert("/a/b", Rc::new(dir("b")));
        c.insert("/a/b/c", Rc::new(dir("c")));
        c.insert("/ab", Rc::new(dir("ab")));
        c.invalidate_subtree("/a/b");
        assert!(c.get("/a").is_some());
        assert!(c.get("/a/b").is_none());
        assert!(c.get("/a/b/c").is_none());
        assert!(
            c.get("/ab").is_some(),
            "sibling with shared prefix must survive"
        );
    }

    #[test]
    fn invalidate_path_drops_all_prefixes() {
        let mut c = MetaCache::new();
        c.insert("/a", Rc::new(dir("a")));
        c.insert("/a/b", Rc::new(dir("b")));
        c.insert("/x", Rc::new(dir("x")));
        c.invalidate_path("/a/b/file.txt");
        assert!(c.is_empty() || c.get("/x").is_some());
        assert!(c.get("/a").is_none());
        assert!(c.get("/a/b").is_none());
    }

    #[test]
    fn prefix_and_component_helpers() {
        assert_eq!(
            path_prefixes("/a/b/c").collect::<Vec<_>>(),
            vec!["/a", "/a/b", "/a/b/c"]
        );
        assert_eq!(
            path_components("/a/b/c").collect::<Vec<_>>(),
            vec!["a", "b", "c"]
        );
        assert_eq!(path_prefixes("/").count(), 0);
        assert_eq!(path_components("/").count(), 0);
        // Trailing separators do not produce empty prefixes.
        assert_eq!(
            path_prefixes("/a/b/").collect::<Vec<_>>(),
            vec!["/a", "/a/b"]
        );
    }

    #[test]
    fn canonical_path_collapses_separators_and_borrows_a_canonical_path() {
        assert_eq!(canonical_path("/a//b/").unwrap(), "/a/b");
        assert_eq!(canonical_path("a/b").unwrap(), "/a/b");
        assert!(matches!(canonical_path("/"), Ok(Cow::Borrowed("/"))));
        assert!(matches!(canonical_path("//"), Ok(Cow::Borrowed("/"))));
        assert_eq!(canonical_path(""), Err(FsError::NotFound));
        assert!(matches!(canonical_path("/a/b"), Ok(Cow::Borrowed("/a/b"))));
        assert!(matches!(canonical_path("/a"), Ok(Cow::Borrowed("/a"))));
        assert!(matches!(canonical_path("/a/"), Ok(Cow::Owned(_))));
        assert_eq!(depth("/a/b/c"), 3);
        assert_eq!(depth("/a"), 1);
    }
}
