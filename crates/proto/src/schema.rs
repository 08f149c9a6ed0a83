//! The metadata schema of Tab. 3: `(pid, name)`-keyed inodes and directory
//! entries.

use crate::ids::DirId;
use serde::{DeError, Deserialize, Serialize, Value};
use std::borrow::Borrow;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// An immutable file or directory name, shared by reference count.
///
/// A name never changes after it is created, so the inode key, the
/// directory entry and the entry map's key of one object share one
/// allocation, and a key's clone copies a pointer. It hashes, compares and
/// orders exactly as the `String` holding the same text (every impl goes
/// through `str`), so hash-map iteration order, [`MetaKey::hash64`] and
/// placement are those of the string form. The empty name (the root's)
/// is one per thread, so making one allocates nothing.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Name(Rc<str>);

thread_local! {
    static EMPTY_NAME: Name = Name(Rc::from(""));
}

impl Default for Name {
    fn default() -> Name {
        EMPTY_NAME.with(Name::clone)
    }
}

impl Name {
    /// The name's text.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl Deref for Name {
    type Target = str;

    fn deref(&self) -> &str {
        &self.0
    }
}

impl Borrow<str> for Name {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for Name {
    fn from(s: &str) -> Name {
        if s.is_empty() {
            Name::default()
        } else {
            Name(Rc::from(s))
        }
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name::from(s.as_str())
    }
}

impl From<&String> for Name {
    fn from(s: &String) -> Name {
        Name::from(s.as_str())
    }
}

impl PartialEq<str> for Name {
    fn eq(&self, other: &str) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<&str> for Name {
    fn eq(&self, other: &&str) -> bool {
        *self.0 == **other
    }
}

impl PartialEq<String> for Name {
    fn eq(&self, other: &String) -> bool {
        *self.0 == **other
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&*self.0, f)
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl Serialize for Name {
    fn to_value(&self) -> Value {
        Value::String(self.0.to_string())
    }
}

impl Deserialize for Name {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        v.as_str()
            .map(Name::from)
            .ok_or_else(|| DeError::expected("string"))
    }
}

/// The type of a namespace object.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum FileType {
    /// A regular file.
    File,
    /// A directory.
    Directory,
}

/// UNIX-style permission bits plus ownership.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Permissions {
    /// Mode bits (e.g. `0o755`).
    pub mode: u16,
    /// Owning user id.
    pub uid: u32,
    /// Owning group id.
    pub gid: u32,
}

impl Default for Permissions {
    fn default() -> Self {
        Permissions {
            mode: 0o755,
            uid: 0,
            gid: 0,
        }
    }
}

/// Access, modification and change timestamps, in nanoseconds of virtual
/// time since the start of the experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct Timestamps {
    /// Last access time.
    pub atime: u64,
    /// Last data modification time.
    pub mtime: u64,
    /// Last attribute change time.
    pub ctime: u64,
}

impl Timestamps {
    /// All three stamps set to `t`.
    pub fn at(t: u64) -> Timestamps {
        Timestamps {
            atime: t,
            mtime: t,
            ctime: t,
        }
    }

    /// Merges another timestamp set by keeping, per field, the larger value
    /// — the commutative "overwrite with the largest timestamp" rule that
    /// change-log compaction relies on (§5.3, action type (b)).
    pub fn merge_max(&mut self, other: &Timestamps) {
        self.atime = self.atime.max(other.atime);
        self.mtime = self.mtime.max(other.mtime);
        self.ctime = self.ctime.max(other.ctime);
    }
}

/// The key of every metadata object: the parent directory id plus the
/// object's name (Tab. 3). Partitioning hashes this key.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct MetaKey {
    /// Parent directory id (`pid`).
    pub pid: DirId,
    /// File or directory name within the parent.
    pub name: Name,
}

impl MetaKey {
    /// Convenience constructor.
    pub fn new(pid: DirId, name: impl Into<Name>) -> MetaKey {
        MetaKey {
            pid,
            name: name.into(),
        }
    }

    /// A stable 64-bit hash of the key, used by per-file placement.
    pub fn hash64(&self) -> u64 {
        let mut h = self.pid.hash64();
        for b in self.name.as_bytes() {
            h = crate::ids::fnv1a_step(h, *b as u64);
        }
        crate::ids::splitmix64(h)
    }
}

impl fmt::Display for MetaKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}…, {})", &format!("{}", self.pid)[..8], self.name)
    }
}

/// Inode attributes stored as the value of a metadata key (Tab. 3).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct InodeAttrs {
    /// Object type.
    pub file_type: FileType,
    /// For directories: the 256-bit directory id assigned at creation.
    /// For files: a synthetic id derived from the key.
    pub id: DirId,
    /// Logical size. For directories this is the number of entries; for
    /// files it is the byte size.
    pub size: u64,
    /// Number of hard links (always 1 for directories in this model).
    pub nlink: u32,
    /// Timestamps.
    pub times: Timestamps,
    /// Permissions and ownership.
    pub perm: Permissions,
}

impl InodeAttrs {
    /// Creates attributes for a new regular file.
    pub fn new_file(id: DirId, now: u64, perm: Permissions) -> InodeAttrs {
        InodeAttrs {
            file_type: FileType::File,
            id,
            size: 0,
            nlink: 1,
            times: Timestamps::at(now),
            perm,
        }
    }

    /// Creates attributes for a new directory.
    pub fn new_dir(id: DirId, now: u64, perm: Permissions) -> InodeAttrs {
        InodeAttrs {
            file_type: FileType::Directory,
            id,
            size: 0,
            nlink: 1,
            times: Timestamps::at(now),
            perm,
        }
    }

    /// True if this inode describes a directory.
    pub fn is_dir(&self) -> bool {
        self.file_type == FileType::Directory
    }
}

/// A single entry in a directory's entry list (Tab. 3). Entries are stored
/// as separate key-value pairs on the same server as the directory inode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Entry name.
    pub name: Name,
    /// Entry type.
    pub file_type: FileType,
    /// Entry permission bits (cached from the child inode).
    pub mode: u16,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ServerId;

    #[test]
    fn metakey_hash_is_stable_and_name_sensitive() {
        let pid = DirId::generate(ServerId(0), 1);
        let a = MetaKey::new(pid, "x");
        let b = MetaKey::new(pid, "x");
        let c = MetaKey::new(pid, "y");
        assert_eq!(a.hash64(), b.hash64());
        assert_ne!(a.hash64(), c.hash64());
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn timestamps_merge_keeps_max_per_field() {
        let mut a = Timestamps {
            atime: 5,
            mtime: 10,
            ctime: 1,
        };
        let b = Timestamps {
            atime: 3,
            mtime: 20,
            ctime: 2,
        };
        a.merge_max(&b);
        assert_eq!(
            a,
            Timestamps {
                atime: 5,
                mtime: 20,
                ctime: 2
            }
        );
    }

    #[test]
    fn new_file_and_dir_defaults() {
        let id = DirId::generate(ServerId(1), 2);
        let f = InodeAttrs::new_file(id, 100, Permissions::default());
        assert!(!f.is_dir());
        assert_eq!(f.size, 0);
        assert_eq!(f.times.mtime, 100);
        let d = InodeAttrs::new_dir(id, 200, Permissions::default());
        assert!(d.is_dir());
        assert_eq!(d.times.atime, 200);
    }

    #[test]
    fn display_is_compact() {
        let k = MetaKey::new(DirId::ROOT, "file.txt");
        let s = format!("{k}");
        assert!(s.contains("file.txt"));
    }
}
