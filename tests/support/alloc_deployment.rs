//! The deployment, the warm-then-count driver and the counting rule that
//! `tests/alloc_budget.rs` holds to its budgets and
//! `examples/alloc_sites.rs` profiles. Both include this file by `#[path]`,
//! so the profiler's total is the budget test's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::future::Future;
use std::marker::PhantomData;
use std::rc::Rc;

use switchfs::client::LibFs;
use switchfs::core::{Cluster, ClusterConfig, SystemKind};

/// Operations counted (after as many warm-up operations).
pub const OPS: usize = 64;

/// What a counting allocator reports to its observer.
pub trait Observe {
    /// One allocation of `bytes`. A realloc counts as one allocation of its
    /// new size, like the alloc + copy + dealloc it stands for.
    fn allocated(bytes: usize);

    /// The live bytes changed by `delta` (negative when freed).
    fn live(_delta: i64) {}
}

/// A global allocator that forwards every call to `System` and reports it
/// to `O`.
pub struct Counted<O>(PhantomData<O>);

impl<O> Counted<O> {
    /// The allocator, for a `#[global_allocator]` static.
    pub const fn new() -> Self {
        Counted(PhantomData)
    }
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the observer never influences the returned memory.
unsafe impl<O: Observe> GlobalAlloc for Counted<O> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        O::allocated(layout.size());
        O::live(layout.size() as i64);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        O::allocated(layout.size());
        O::live(layout.size() as i64);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        O::live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        O::allocated(new_size);
        O::live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// A small deployment of `system` (4 servers, 1 client) with `/d`
/// preloaded, and no file in it yet.
pub fn empty_dir(system: SystemKind) -> Cluster {
    let mut cfg = ClusterConfig::paper_default(system);
    cfg.servers = 4;
    cfg.clients = 1;
    let mut cluster = Cluster::new(cfg);
    cluster.preload_dir("/d");
    cluster
}

/// An [`empty_dir`] deployment with `2 * OPS` files `f0`, `f1`, … in `/d`.
pub fn cluster(system: SystemKind) -> Cluster {
    let mut cluster = empty_dir(system);
    cluster.preload_files("/d", "f", 2 * OPS);
    cluster
}

/// The `2 * OPS` paths `{prefix}0`, `{prefix}1`, …, built before anything
/// is counted.
pub fn paths(prefix: &str) -> Vec<String> {
    (0..2 * OPS).map(|i| format!("{prefix}{i}")).collect()
}

/// Runs `op` on every path in order on a [`cluster`] of `system`: the first
/// [`OPS`] warm caches, pools and buffers, and the rest are counted. `start`
/// runs just before the counted operations and `stop`, given what `start`
/// returned, just after them; `stop`'s result is returned.
pub fn warm_then_count<F, Fut, S, R>(
    system: SystemKind,
    paths: Vec<String>,
    op: F,
    start: impl FnOnce() -> S + 'static,
    stop: impl FnOnce(S) -> R + 'static,
) -> R
where
    F: Fn(Rc<LibFs>, String) -> Fut + 'static,
    Fut: Future<Output = ()>,
    S: 'static,
    R: 'static,
{
    let cluster = cluster(system);
    let client = cluster.client(0);
    cluster.block_on(async move {
        let mut paths = paths.into_iter();
        for path in paths.by_ref().take(OPS) {
            op(client.clone(), path).await;
        }
        let started = start();
        for path in paths {
            op(client.clone(), path).await;
        }
        stop(started)
    })
}
