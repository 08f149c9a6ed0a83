//! Allocation budgets: what a simulated operation costs the host, counted.
//!
//! The simulation is deterministic, so the number of heap allocations a
//! warmed-up operation makes is an exact count, the same on every host and
//! every run. These tests hold three of them to ceilings set at today's
//! counts: a `stat`, a `create` into one directory (both on a small SwitchFS
//! deployment) and one unicast packet through plain L2 forwarding. A change
//! that adds a per-op allocation on any of these paths fails here, however
//! little wall-clock time it costs.
//!
//! Counting is per thread (the test harness runs tests side by side, and a
//! simulation runs entirely on the thread that drives it), by a counting
//! global allocator local to this test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::simnet::net::LinkParams;
use switchfs::simnet::{NetFaults, Network, NodeId, Sim};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never influences the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc counts as one allocation, like the alloc + copy + dealloc
        // it stands for.
        count_one();
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Operations measured per budget (after as many warm-up operations).
const OPS: u64 = 64;

/// A small SwitchFS deployment (4 servers, 1 client) with `/d` preloaded
/// with `2 * OPS` files `f0`, `f1`, ….
fn cluster() -> Cluster {
    let mut cfg = ClusterConfig::paper_default(SystemKind::SwitchFs);
    cfg.servers = 4;
    cfg.clients = 1;
    let mut cluster = Cluster::new(cfg);
    cluster.preload_dir("/d");
    cluster.preload_files("/d", "f", 2 * OPS as usize);
    cluster
}

/// Runs `op` on every path in order, twice as many as [`OPS`]: the first
/// half warms caches, pools and buffers, the second half is counted. Returns
/// the allocations of the counted half.
fn allocs_of<F, Fut>(paths: Vec<String>, op: F) -> u64
where
    F: Fn(Rc<switchfs::client::LibFs>, String) -> Fut + 'static,
    Fut: std::future::Future<Output = ()>,
{
    let cluster = cluster();
    let client = cluster.client(0);
    cluster.block_on(async move {
        let mut before = 0;
        for (i, path) in paths.into_iter().enumerate() {
            if i as u64 == OPS {
                before = allocs();
            }
            op(client.clone(), path).await;
        }
        allocs() - before
    })
}

#[test]
fn a_warm_stat_stays_within_its_allocation_budget() {
    // 15.4 per stat; 1,691 (26.4 per stat) before names were shared, the
    // packet path kept its lists inline, task wakers were reused and lock
    // waiters became tickets.
    const BUDGET: u64 = 987;
    let paths = (0..2 * OPS).map(|i| format!("/d/f{i}")).collect();
    let n = allocs_of(paths, |client, path| async move {
        client.stat(&path).await.expect("stat");
    });
    assert!(
        n <= BUDGET,
        "{OPS} stats allocated {n} times (budget {BUDGET})"
    );
}

#[test]
fn a_warm_create_into_one_directory_stays_within_its_allocation_budget() {
    // 30.0 per create; 3,218 (50.3 per create) before the same change.
    const BUDGET: u64 = 1_921;
    let paths = (0..2 * OPS).map(|i| format!("/d/n{i}")).collect();
    let n = allocs_of(paths, |client, path| async move {
        client.create(&path).await.expect("create");
    });
    assert!(
        n <= BUDGET,
        "{OPS} creates allocated {n} times (budget {BUDGET})"
    );
}

#[test]
fn a_unicast_packet_through_l2_forwarding_stays_within_its_allocation_budget() {
    // One per packet, its delivery task's future; 256 (four per packet)
    // before the delivery copies and the switch's output list were kept
    // inline and the delivery task's waker was reused.
    const BUDGET: u64 = 64;
    let sim = Sim::new(1);
    let net: Network<u64> = Network::new(
        sim.handle(),
        LinkParams::default(),
        NetFaults::reliable(),
        1,
    );
    let tx = net.register(NodeId(1));
    let rx = net.register(NodeId(2));
    let counted = Rc::new(Cell::new(0));
    let out = Rc::clone(&counted);
    sim.spawn(async move {
        let mut before = 0;
        for i in 0..2 * OPS {
            if i == OPS {
                before = allocs();
            }
            tx.send(NodeId(2), i);
            rx.recv().await.expect("delivered");
        }
        out.set(allocs() - before);
    });
    sim.run();
    let n = counted.get();
    assert!(
        n <= BUDGET,
        "{OPS} packets allocated {n} times (budget {BUDGET})"
    );
}
