//! Allocation budgets: what a simulated operation costs the host, counted.
//!
//! The simulation is deterministic, so the number of heap allocations a
//! warmed-up operation makes is an exact count, the same on every host and
//! every run. These tests hold four of them to ceilings set at today's
//! counts: a `stat` and a `create` into one directory on a small SwitchFS
//! deployment, the same `create` on Emulated-CFS, and one unicast packet
//! through plain L2 forwarding, which allocates nothing. A change that adds a per-op allocation on any of these
//! paths fails here, however little wall-clock time it costs. The
//! Emulated-CFS `create` also has a budget of bytes allocated, which holds
//! the size of the futures its server tasks allocate. One more budget holds
//! the live bytes of an empty switch program, whose registers the host
//! allocates a page at a time as they are written.
//!
//! Counting is per thread (the test harness runs tests side by side, and a
//! simulation runs entirely on the thread that drives it), by a counting
//! global allocator local to this test binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::rc::Rc;

use switchfs::core::{Cluster, ClusterConfig, SystemKind};
use switchfs::proto::{DirId, Fingerprint, ServerId};
use switchfs::simnet::net::LinkParams;
use switchfs::simnet::{NetFaults, Network, NodeId, Sim};
use switchfs::switch::{DirtySet, InsertOutcome, SwitchConfig, SwitchFsProgram};

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// Counts one allocation of `bytes`.
fn count_one(bytes: usize) {
    // `try_with`: an allocation during thread teardown is simply not counted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
    let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
}

/// Adds `bytes` (negative when freed) to this thread's live bytes.
fn count_live(bytes: i64) {
    let _ = LIVE.try_with(|n| n.set(n.get() + bytes));
}

/// Allocations made by this thread so far.
fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Bytes this thread's allocations so far asked for.
fn bytes() -> u64 {
    BYTES.with(Cell::get)
}

/// Bytes this thread has allocated and not freed, less what it freed of
/// other threads' allocations.
fn live() -> i64 {
    LIVE.with(Cell::get)
}

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter never influences the returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one(layout.size());
        count_live(layout.size() as i64);
        // SAFETY: same layout the caller handed to us.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count_live(-(layout.size() as i64));
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A realloc counts as one allocation of the new size, like the
        // alloc + copy + dealloc it stands for.
        count_one(new_size);
        count_live(new_size as i64 - layout.size() as i64);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Operations measured per budget (after as many warm-up operations).
const OPS: u64 = 64;

/// A small deployment of `system` (4 servers, 1 client) with `/d`
/// preloaded with `2 * OPS` files `f0`, `f1`, ….
fn cluster(system: SystemKind) -> Cluster {
    let mut cfg = ClusterConfig::paper_default(system);
    cfg.servers = 4;
    cfg.clients = 1;
    let mut cluster = Cluster::new(cfg);
    cluster.preload_dir("/d");
    cluster.preload_files("/d", "f", 2 * OPS as usize);
    cluster
}

/// Runs `op` on every path in order on a [`cluster`] of `system`, twice as
/// many as [`OPS`]: the first half warms caches, pools and buffers, the
/// second half is counted. Returns the allocations of the counted half and
/// the bytes they asked for.
fn allocs_of<F, Fut>(system: SystemKind, paths: Vec<String>, op: F) -> (u64, u64)
where
    F: Fn(Rc<switchfs::client::LibFs>, String) -> Fut + 'static,
    Fut: std::future::Future<Output = ()>,
{
    let cluster = cluster(system);
    let client = cluster.client(0);
    cluster.block_on(async move {
        let mut before = (0, 0);
        for (i, path) in paths.into_iter().enumerate() {
            if i as u64 == OPS {
                before = (allocs(), bytes());
            }
            op(client.clone(), path).await;
        }
        (allocs() - before.0, bytes() - before.1)
    })
}

#[test]
fn a_warm_stat_stays_within_its_allocation_budget() {
    // 5.4 per stat; 475 (7.4 per stat) before the client awaited its
    // replies in one table instead of a channel per transmission; 603 (9.4
    // per stat) before `resolve` stopped building its
    // path prefix and growing its ancestor chain; 667 (10.4 per stat) before
    // a received packet became one task, the future of the handler that
    // serves it; 987 (15.4 per stat) before a packet in flight became an
    // entry of the network's slab and `resolve` stopped copying its
    // components and the parent's path; and 1,691 (26.4 per stat) before
    // names were shared, the packet path kept its lists inline, task wakers
    // were reused and lock waiters became tickets.
    const BUDGET: u64 = 347;
    let paths = (0..2 * OPS).map(|i| format!("/d/f{i}")).collect();
    let (n, _) = allocs_of(SystemKind::SwitchFs, paths, |client, path| async move {
        client.stat(&path).await.expect("stat");
    });
    assert!(
        n <= BUDGET,
        "{OPS} stats allocated {n} times (budget {BUDGET})"
    );
}

#[test]
fn a_warm_create_into_one_directory_stays_within_its_allocation_budget() {
    // 16.9 per create; 1,271 (19.9 per create) before the client and the
    // server awaited their replies in one table each; 1,399 (21.9 per
    // create), 1,597 (25.0 per create), 1,921 (30.0 per create) and 3,218
    // (50.3 per create) before the four changes named above.
    const BUDGET: u64 = 1_079;
    let paths = (0..2 * OPS).map(|i| format!("/d/n{i}")).collect();
    let (n, _) = allocs_of(SystemKind::SwitchFs, paths, |client, path| async move {
        client.create(&path).await.expect("create");
    });
    assert!(
        n <= BUDGET,
        "{OPS} creates allocated {n} times (budget {BUDGET})"
    );
}

#[test]
fn a_warm_emulated_cfs_create_stays_within_its_allocation_budget() {
    // The parent update is synchronous here: the file's server asks the
    // directory's owner and waits for its answer, so this budget holds the
    // server's side of an awaited request as the two above hold the
    // client's. 15.6 per create.
    const BUDGET: u64 = 999;
    // Bytes: each received packet allocates its task's future, sized for
    // the handler of its own body variant. 5,753.3 per create; 382,896
    // (5,982.8 per create) while the quick messages shared one task, and
    // the answered requests another, each sized for its largest variant.
    const BYTES_BUDGET: u64 = 368_208;
    let paths = (0..2 * OPS).map(|i| format!("/d/n{i}")).collect();
    let (n, bytes) = allocs_of(SystemKind::EmulatedCfs, paths, |client, path| async move {
        client.create(&path).await.expect("create");
    });
    assert!(
        n <= BUDGET,
        "{OPS} creates allocated {n} times (budget {BUDGET})"
    );
    assert!(
        bytes <= BYTES_BUDGET,
        "{OPS} creates allocated {bytes} B (budget {BYTES_BUDGET})"
    );
}

#[test]
fn a_unicast_packet_through_l2_forwarding_stays_within_its_allocation_budget() {
    // Nothing: a packet in flight is an entry of the network's slab, run by
    // a pooled task with its slot's waker. 64 (one per packet, its delivery
    // task's boxed future) before that, and 256 (four per packet) before
    // the delivery copies and the switch's output list were kept inline and
    // the delivery task's waker was reused.
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
            rx.recv().await;
        }
        out.set(allocs() - before);
    });
    sim.run();
    let n = counted.get();
    assert_eq!(n, 0, "{OPS} packets allocated {n} times (budget 0)");
}

#[test]
fn an_empty_switch_keeps_only_its_page_slots_live() {
    // The default sizing: 2 pipes x 10 stages x 2^17 registers. Each stage
    // keeps one 8 B slot per page of 1,024 registers, and no page until a
    // register in it is written. 10,486,496 B before the stages were paged,
    // 10,485,760 of them the registers at 4 B each.
    const BUDGET: i64 = 21_376;
    let before = live();
    let program = SwitchFsProgram::new(SwitchConfig::default());
    let kept = live() - before;
    drop(program);
    assert!(
        kept <= BUDGET,
        "an empty switch program keeps {kept} B live (budget {BUDGET})"
    );

    // The first insert writes one register: one page, 4 KiB.
    let mut set = DirtySet::default();
    let fp = Fingerprint::of_dir(&DirId::generate(ServerId(0), 1), "d");
    let (allocs_before, live_before) = (allocs(), live());
    assert_eq!(set.insert(fp), InsertOutcome::Inserted);
    assert_eq!(allocs() - allocs_before, 1, "one insert allocates one page");
    assert_eq!(live() - live_before, 4096, "one page is 4 KiB");
}
