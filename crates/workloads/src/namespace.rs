//! Namespace specifications: the directory/file populations experiments run
//! against.

use serde::{Deserialize, Serialize};

/// A flat namespace of `dirs` top-level directories each holding
/// `files_per_dir` files — the shape of both evaluation namespaces
/// ("a single very large directory" and "10 million files uniformly
/// distributed across 1024 directories", §7.2.1).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NamespaceSpec {
    /// Number of top-level directories.
    pub dirs: usize,
    /// Number of pre-existing files in each directory.
    pub files_per_dir: usize,
    /// Prefix of directory names.
    pub dir_prefix: String,
    /// Prefix of file names.
    pub file_prefix: String,
}

impl NamespaceSpec {
    /// A single large directory holding `files` files.
    pub fn single_large_dir(files: usize) -> Self {
        NamespaceSpec {
            dirs: 1,
            files_per_dir: files,
            dir_prefix: "bigdir".into(),
            file_prefix: "f".into(),
        }
    }

    /// `dirs` directories each holding `files_per_dir` files.
    pub fn multi_dir(dirs: usize, files_per_dir: usize) -> Self {
        NamespaceSpec {
            dirs,
            files_per_dir,
            dir_prefix: "dir".into(),
            file_prefix: "f".into(),
        }
    }

    /// Path of directory `d`.
    pub fn dir_path(&self, d: usize) -> String {
        format!("/{}{:04}", self.dir_prefix, d)
    }

    /// Path of file `f` inside directory `d`.
    pub fn file_path(&self, d: usize, f: usize) -> String {
        format!("/{}{:04}/{}{}", self.dir_prefix, d, self.file_prefix, f)
    }

    /// Every directory path.
    pub fn all_dirs(&self) -> Vec<String> {
        (0..self.dirs).map(|d| self.dir_path(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paths_are_deterministic_and_distinct() {
        let ns = NamespaceSpec::multi_dir(4, 10);
        assert_eq!(ns.all_dirs().len(), 4);
        assert_ne!(ns.file_path(0, 1), ns.file_path(1, 1));
        assert_ne!(ns.file_path(0, 1), ns.file_path(0, 2));
        assert!(ns.file_path(2, 3).starts_with(&ns.dir_path(2)));
    }

    #[test]
    fn single_large_dir_has_one_dir() {
        let ns = NamespaceSpec::single_large_dir(100);
        assert_eq!(ns.dirs, 1);
    }
}
