//! Concrete workload builders for every experiment in §7.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mixes::OpMix;
use crate::namespace::NamespaceSpec;
use crate::ops::{OpKind, WorkItem};

/// Builds operation streams against a namespace.
#[derive(Debug, Clone)]
pub struct WorkloadBuilder {
    namespace: NamespaceSpec,
    rng: StdRng,
    /// Fraction of operations directed at the "hot" fraction of directories
    /// (the paper's synthetic end-to-end workload sends 80 % of operations to
    /// 20 % of directories).
    skew: Option<(f64, f64)>,
    next_new_file: usize,
}

impl WorkloadBuilder {
    /// Creates a builder over a namespace with a deterministic RNG seed.
    pub fn new(namespace: NamespaceSpec, seed: u64) -> Self {
        WorkloadBuilder {
            namespace,
            rng: StdRng::seed_from_u64(seed),
            skew: None,
            next_new_file: 0,
        }
    }

    /// Directs `hot_fraction` of the operations at `hot_dirs_fraction` of the
    /// directories (e.g. `0.8, 0.2` for the 80/20 skew of §7.6).
    pub fn with_skew(mut self, hot_fraction: f64, hot_dirs_fraction: f64) -> Self {
        self.skew = Some((hot_fraction, hot_dirs_fraction));
        self
    }

    fn pick_dir(&mut self) -> usize {
        let dirs = self.namespace.dirs.max(1);
        match self.skew {
            Some((hot_frac, hot_dirs_frac)) => {
                let hot_dirs = ((dirs as f64 * hot_dirs_frac).ceil() as usize).max(1);
                if self.rng.gen::<f64>() < hot_frac {
                    self.rng.gen_range(0..hot_dirs)
                } else if hot_dirs < dirs {
                    self.rng.gen_range(hot_dirs..dirs)
                } else {
                    self.rng.gen_range(0..dirs)
                }
            }
            None => self.rng.gen_range(0..dirs),
        }
    }

    fn pick_existing_file(&mut self) -> String {
        let d = self.pick_dir();
        let f = self.rng.gen_range(0..self.namespace.files_per_dir.max(1));
        self.namespace.file_path(d, f)
    }

    fn fresh_file(&mut self) -> String {
        let d = self.pick_dir();
        let f = self.namespace.files_per_dir + self.next_new_file;
        self.next_new_file += 1;
        self.namespace.file_path(d, f)
    }

    /// `count` operations of a single kind on uniformly (or skew-) selected
    /// targets — the per-operation microbenchmarks of Fig. 12 and Fig. 13.
    pub fn uniform(&mut self, kind: OpKind, count: usize) -> Vec<WorkItem> {
        (0..count).map(|i| self.one(kind, i)).collect()
    }

    fn one(&mut self, kind: OpKind, i: usize) -> WorkItem {
        match kind {
            OpKind::Create | OpKind::Write => WorkItem::new(kind, self.fresh_file()),
            OpKind::Mkdir => {
                let d = self.pick_dir();
                WorkItem::new(kind, format!("{}/sub{}", self.namespace.dir_path(d), i))
            }
            OpKind::Rmdir => {
                let d = self.pick_dir();
                WorkItem::new(kind, format!("{}/sub{}", self.namespace.dir_path(d), i))
            }
            OpKind::Statdir | OpKind::Readdir => {
                let d = self.pick_dir();
                WorkItem::new(kind, self.namespace.dir_path(d))
            }
            OpKind::Rename => {
                let src = self.pick_existing_file();
                let dst = self.fresh_file();
                WorkItem::rename(src, dst)
            }
            OpKind::Delete => WorkItem::new(kind, self.pick_existing_file()),
            _ => WorkItem::new(kind, self.pick_existing_file()),
        }
    }

    /// `mkdir` targets paired with later `rmdir`s so directory-removal
    /// benchmarks operate on directories that exist.
    pub fn mkdir_then_rmdir(&mut self, count: usize) -> (Vec<WorkItem>, Vec<WorkItem>) {
        let mut mkdirs = Vec::with_capacity(count);
        let mut rmdirs = Vec::with_capacity(count);
        for i in 0..count {
            let d = self.pick_dir();
            let path = format!("{}/sub{}", self.namespace.dir_path(d), i);
            mkdirs.push(WorkItem::new(OpKind::Mkdir, path.clone()));
            rmdirs.push(WorkItem::new(OpKind::Rmdir, path));
        }
        (mkdirs, rmdirs)
    }

    /// A mixed workload of `count` operations drawn from `mix` — the
    /// synthetic end-to-end workload of Fig. 19 (combine with
    /// [`WorkloadBuilder::with_skew`] for the 80/20 distribution).
    pub fn mixed(&mut self, mix: &OpMix, count: usize) -> Vec<WorkItem> {
        let mut out = Vec::with_capacity(count);
        for i in 0..count {
            let kind = mix.sample(&mut self.rng);
            out.push(self.one(kind, i));
        }
        out
    }

    /// Operation bursts (Fig. 17): successive groups of `burst_size` creates,
    /// each group in a different directory, `total` operations overall.
    pub fn create_bursts(&mut self, burst_size: usize, total: usize) -> Vec<WorkItem> {
        let mut out = Vec::with_capacity(total);
        let mut dir = 0usize;
        let mut in_burst = 0usize;
        for i in 0..total {
            if in_burst == burst_size {
                dir = (dir + 1) % self.namespace.dirs.max(1);
                in_burst = 0;
            }
            out.push(WorkItem::new(
                OpKind::Create,
                self.namespace
                    .file_path(dir, self.namespace.files_per_dir + i),
            ));
            in_burst += 1;
        }
        out
    }

    /// The Fig. 18 sequence: `creates` file creations in one directory
    /// followed by a single `statdir`, which has to aggregate them.
    pub fn creates_then_statdir(&mut self, creates: usize) -> Vec<WorkItem> {
        let mut out = Vec::with_capacity(creates + 1);
        for i in 0..creates {
            out.push(WorkItem::new(
                OpKind::Create,
                self.namespace
                    .file_path(0, self.namespace.files_per_dir + i),
            ));
        }
        out.push(WorkItem::new(OpKind::Statdir, self.namespace.dir_path(0)));
        out
    }

    /// A CNN-training-like trace (Tab. 5): the dataset lifecycle — create the
    /// class files (download), read them repeatedly (epochs), then delete
    /// them (cleanup).
    pub fn cnn_training_trace(&mut self, files: usize, read_passes: usize) -> Vec<WorkItem> {
        let mut out = Vec::new();
        let per_dir = (files / self.namespace.dirs.max(1)).max(1);
        for d in 0..self.namespace.dirs {
            for f in 0..per_dir {
                out.push(WorkItem::new(
                    OpKind::Create,
                    self.namespace
                        .file_path(d, self.namespace.files_per_dir + f),
                ));
            }
        }
        for _ in 0..read_passes {
            for d in 0..self.namespace.dirs {
                for f in 0..per_dir {
                    let path = self
                        .namespace
                        .file_path(d, self.namespace.files_per_dir + f);
                    out.push(WorkItem::new(OpKind::Open, path.clone()));
                    out.push(WorkItem::new(OpKind::Read, path.clone()));
                    out.push(WorkItem::new(OpKind::Close, path));
                }
            }
        }
        for d in 0..self.namespace.dirs {
            for f in 0..per_dir {
                out.push(WorkItem::new(
                    OpKind::Delete,
                    self.namespace
                        .file_path(d, self.namespace.files_per_dir + f),
                ));
            }
        }
        out
    }

    /// A thumbnail-generation trace (Tab. 5): read each source image, create
    /// and write its thumbnail.
    pub fn thumbnail_trace(&mut self, images: usize) -> Vec<WorkItem> {
        let mut out = Vec::new();
        for i in 0..images {
            let d = i % self.namespace.dirs.max(1);
            let src = self
                .namespace
                .file_path(d, i % self.namespace.files_per_dir.max(1));
            let thumb = self
                .namespace
                .file_path(d, self.namespace.files_per_dir + images + i);
            out.push(WorkItem::new(OpKind::Open, src.clone()));
            out.push(WorkItem::new(OpKind::Read, src.clone()));
            out.push(WorkItem::new(OpKind::Create, thumb.clone()));
            out.push(WorkItem::new(OpKind::Write, thumb.clone()));
            out.push(WorkItem::new(OpKind::Close, src));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn builder(dirs: usize, files: usize) -> WorkloadBuilder {
        WorkloadBuilder::new(NamespaceSpec::multi_dir(dirs, files), 1)
    }

    #[test]
    fn uniform_creates_are_fresh_paths() {
        let mut b = builder(4, 10);
        let items = b.uniform(OpKind::Create, 100);
        let paths: BTreeSet<_> = items.iter().map(|w| w.path.clone()).collect();
        assert_eq!(paths.len(), 100, "creates must target distinct new files");
    }

    #[test]
    fn uniform_stats_hit_existing_files() {
        let mut b = builder(4, 10);
        for item in b.uniform(OpKind::Stat, 50) {
            let f: usize = item
                .path
                .rsplit('f')
                .next()
                .unwrap()
                .parse()
                .expect("file index");
            assert!(f < 10);
        }
    }

    #[test]
    fn skew_concentrates_load() {
        let mut b = builder(100, 10).with_skew(0.8, 0.2);
        let items = b.uniform(OpKind::Stat, 5000);
        let hot = items
            .iter()
            .filter(|w| {
                let dir: usize = w.path[4..8].parse().unwrap();
                dir < 20
            })
            .count();
        let frac = hot as f64 / items.len() as f64;
        assert!(frac > 0.75 && frac < 0.85, "hot fraction {frac}");
    }

    #[test]
    fn bursts_switch_directories_every_burst() {
        let mut b = builder(8, 0);
        let items = b.create_bursts(10, 40);
        assert_eq!(items.len(), 40);
        let dir_of = |w: &WorkItem| w.path[4..8].parse::<usize>().unwrap();
        assert_eq!(dir_of(&items[0]), dir_of(&items[9]));
        assert_ne!(dir_of(&items[0]), dir_of(&items[10]));
    }

    #[test]
    fn creates_then_statdir_ends_with_statdir() {
        let mut b = builder(1, 5);
        let items = b.creates_then_statdir(20);
        assert_eq!(items.len(), 21);
        assert_eq!(items.last().unwrap().kind, OpKind::Statdir);
    }

    #[test]
    fn traces_have_expected_shape() {
        let mut b = builder(10, 5);
        let cnn = b.cnn_training_trace(100, 2);
        let creates = cnn.iter().filter(|w| w.kind == OpKind::Create).count();
        let deletes = cnn.iter().filter(|w| w.kind == OpKind::Delete).count();
        assert_eq!(creates, deletes, "every downloaded file is removed");
        let mut b = builder(10, 5);
        let thumb = b.thumbnail_trace(50);
        assert_eq!(thumb.iter().filter(|w| w.kind == OpKind::Write).count(), 50);
    }

    #[test]
    fn mkdir_then_rmdir_pairs_match() {
        let mut b = builder(4, 0);
        let (mk, rm) = b.mkdir_then_rmdir(10);
        assert_eq!(mk.len(), 10);
        for (m, r) in mk.iter().zip(rm.iter()) {
            assert_eq!(m.path, r.path);
        }
    }

    #[test]
    fn mixed_workload_follows_mix() {
        let mut b = builder(16, 20);
        let items = b.mixed(&OpMix::pangu(), 2000);
        let dir_updates = items.iter().filter(|w| w.kind.is_dir_update()).count() as f64;
        let frac = dir_updates / items.len() as f64;
        assert!((frac - 0.31).abs() < 0.05, "dir update fraction {frac}");
    }
}
