//! The operation vocabulary of generated workloads.

use serde::{Deserialize, Serialize};

/// A metadata (or data) operation kind, as named in the paper's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Create a regular file.
    Create,
    /// Delete a regular file.
    Delete,
    /// Create a directory.
    Mkdir,
    /// Remove a directory.
    Rmdir,
    /// Read file attributes.
    Stat,
    /// Read directory attributes.
    Statdir,
    /// List a directory.
    Readdir,
    /// Open a file.
    Open,
    /// Close a file.
    Close,
    /// Change permissions.
    Chmod,
    /// Rename a file.
    Rename,
    /// Read file data (end-to-end workloads only).
    Read,
    /// Write file data (end-to-end workloads only).
    Write,
}

impl OpKind {
    /// The name used in tables and figures.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Create => "create",
            OpKind::Delete => "delete",
            OpKind::Mkdir => "mkdir",
            OpKind::Rmdir => "rmdir",
            OpKind::Stat => "stat",
            OpKind::Statdir => "statdir",
            OpKind::Readdir => "readdir",
            OpKind::Open => "open",
            OpKind::Close => "close",
            OpKind::Chmod => "chmod",
            OpKind::Rename => "rename",
            OpKind::Read => "read",
            OpKind::Write => "write",
        }
    }

    /// True for operations that update directory metadata (Tab. 2's
    /// "Dir. Update" category).
    pub fn is_dir_update(&self) -> bool {
        matches!(
            self,
            OpKind::Create | OpKind::Delete | OpKind::Mkdir | OpKind::Rmdir | OpKind::Rename
        )
    }

    /// True for operations that read directory metadata (Tab. 2's
    /// "Dir. Read" category).
    pub fn is_dir_read(&self) -> bool {
        matches!(self, OpKind::Statdir | OpKind::Readdir)
    }
}

/// One unit of work for the cluster driver.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorkItem {
    /// What to do.
    pub kind: OpKind,
    /// The target path.
    pub path: String,
    /// Destination path for `rename`.
    pub dst: Option<String>,
}

impl WorkItem {
    /// A non-rename work item.
    pub fn new(kind: OpKind, path: impl Into<String>) -> Self {
        WorkItem {
            kind,
            path: path.into(),
            dst: None,
        }
    }

    /// A rename work item.
    pub fn rename(src: impl Into<String>, dst: impl Into<String>) -> Self {
        WorkItem {
            kind: OpKind::Rename,
            path: src.into(),
            dst: Some(dst.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_matches_table2_categories() {
        assert!(OpKind::Create.is_dir_update());
        assert!(OpKind::Rename.is_dir_update());
        assert!(!OpKind::Stat.is_dir_update());
        assert!(OpKind::Readdir.is_dir_read());
        assert!(!OpKind::Open.is_dir_read());
    }

    #[test]
    fn work_item_constructors() {
        let w = WorkItem::new(OpKind::Create, "/d/f");
        assert_eq!(w.dst, None);
        let r = WorkItem::rename("/a", "/b");
        assert_eq!(r.kind, OpKind::Rename);
        assert_eq!(r.dst.as_deref(), Some("/b"));
        assert_eq!(OpKind::Statdir.name(), "statdir");
    }
}
