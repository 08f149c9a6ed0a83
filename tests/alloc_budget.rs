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
//! global allocator local to this test binary. The allocator's rule, the
//! deployment and the warm-then-count driver are
//! `tests/support/alloc_deployment.rs`, which `examples/alloc_sites.rs`
//! includes too.

#[path = "support/alloc_deployment.rs"]
mod deployment;

use std::cell::Cell;
use std::rc::Rc;

use deployment::{empty_dir, paths, warm_then_count, Counted, Observe, OPS};
use switchfs::core::SystemKind;
use switchfs::proto::{DirId, Fingerprint, ServerId};
use switchfs::simnet::net::LinkParams;
use switchfs::simnet::{NetFaults, Network, NodeId, Sim};
use switchfs::switch::{DirtySet, InsertOutcome, SwitchConfig, SwitchFsProgram};

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

/// This thread's allocations, the bytes they asked for and its live bytes.
struct PerThread;

impl Observe for PerThread {
    fn allocated(bytes: usize) {
        // `try_with`: an allocation during thread teardown is simply not
        // counted.
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        let _ = BYTES.try_with(|n| n.set(n.get() + bytes as u64));
    }

    fn live(delta: i64) {
        let _ = LIVE.try_with(|n| n.set(n.get() + delta));
    }
}

#[global_allocator]
static GLOBAL: Counted<PerThread> = Counted::new();

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

/// Runs `op` on `paths` with [`warm_then_count`] and returns the
/// allocations of the counted half and the bytes they asked for.
fn allocs_of<F, Fut>(system: SystemKind, paths: Vec<String>, op: F) -> (u64, u64)
where
    F: Fn(Rc<switchfs::client::LibFs>, String) -> Fut + 'static,
    Fut: std::future::Future<Output = ()>,
{
    let start = || (allocs(), bytes());
    let stop = |(n, b)| (allocs() - n, bytes() - b);
    warm_then_count(system, paths, op, start, stop)
}

#[test]
fn a_warm_stat_stays_within_its_allocation_budget() {
    // 2.4 per stat; 283 measured (4.4 per stat) while the client allocated
    // a new request and ancestor chain for every operation; 347 (5.4 per
    // stat) while every task's future
    // had a box of its own, freed when the task ended; 475 (7.4 per stat)
    // before the client awaited its
    // replies in one table instead of a channel per transmission; 603 (9.4
    // per stat) before `resolve` stopped building its
    // path prefix and growing its ancestor chain; 667 (10.4 per stat) before
    // a received packet became one task, the future of the handler that
    // serves it; 987 (15.4 per stat) before a packet in flight became an
    // entry of the network's slab and `resolve` stopped copying its
    // components and the parent's path; and 1,691 (26.4 per stat) before
    // names were shared, the packet path kept its lists inline, task wakers
    // were reused and lock waiters became tickets.
    const BUDGET: u64 = 155;
    let (n, _) = allocs_of(
        SystemKind::SwitchFs,
        paths("/d/f"),
        |client, path| async move {
            client.stat(&path).await.expect("stat");
        },
    );
    assert!(
        n <= BUDGET,
        "{OPS} stats allocated {n} times (budget {BUDGET})"
    );
}

#[test]
fn a_warm_create_into_one_directory_stays_within_its_allocation_budget() {
    // 8.8 per create; 627 measured (9.8 per create) while the client
    // allocated a new request and ancestor chain for every operation; 762
    // (11.9 per create) while every task's
    // future had a box of its own and the scan tick listed the dirty
    // directories into a new buffer; 770 (12.0 per create) while compaction
    // collected its surviving operations into a second buffer; 1,078 (16.8
    // per create) while every hop of a deferred update (the WAL record, the
    // change-log, each commit transmission, the switch's mirror copy, the
    // push batch, compaction) copied its change-log entry instead of
    // sharing it; 1,271 (19.9 per
    // create) before the client and the server awaited their replies in
    // one table each; 1,399 (21.9 per create), 1,597 (25.0 per create),
    // 1,921 (30.0 per create) and 3,218 (50.3 per create) before the four
    // changes named above.
    const BUDGET: u64 = 563;
    let (n, _) = allocs_of(
        SystemKind::SwitchFs,
        paths("/d/n"),
        |client, path| async move {
            client.create(&path).await.expect("create");
        },
    );
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
    // client's. 10.2 per create; 783 measured (12.2 per create) while the
    // client allocated a new request and ancestor chain for every
    // operation; 955 (14.9 per create) while every
    // task's future had a box of its own; 999 (15.6 per create) while the
    // synchronous update copied its change-log entry into each request.
    const BUDGET: u64 = 655;
    // Bytes: a task's future moves into the box a finished task of its type
    // left behind, so only a type's concurrency peak allocates. 2,784.9 per
    // create; 204,860 measured (3,200.9 per create) while the client
    // allocated a new request and ancestor chain for every operation;
    // 305,132 (4,767.7 per create) while each task, a
    // received packet's handler among them, allocated its future's box;
    // 364,160 (5,690 per create) while an entry was copied at each hop
    // and a message carried it inline, which made every packet's body and
    // task larger; 382,896 (5,982.8 per create) while the quick messages
    // shared one task, and the answered requests another, each sized for
    // its largest variant.
    const BYTES_BUDGET: u64 = 178_236;
    let (n, bytes) = allocs_of(
        SystemKind::EmulatedCfs,
        paths("/d/n"),
        |client, path| async move {
            client.create(&path).await.expect("create");
        },
    );
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
    // Nothing: a packet in flight is a task whose future moves into the box
    // a delivered packet's task left behind, woken by its slot's waker. 64
    // (one per packet, its delivery task's boxed future) before finished
    // tasks' boxes were reused (or, for a while, packets were kept in a
    // slab of the network's), and 256 (four per packet) before the delivery
    // copies and the switch's output list were kept inline and the delivery
    // task's waker was reused.
    let sim = Sim::new(1);
    let net: Network<usize> = Network::new(
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

#[test]
fn a_preloaded_directory_keeps_its_inodes_and_entries_packed() {
    // What `2 * OPS` preloaded files keep live: their names, inodes and
    // entries. Each server keeps the directory's id once for all of its
    // files, and the content owner builds the entry list in one pass. 38,792
    // B while every inode's key held its own copy of the id and the entries
    // went in one at a time.
    const BUDGET: i64 = 32_096;
    let mut cluster = empty_dir(SystemKind::SwitchFs);
    let before = live();
    cluster.preload_files("/d", "f", 2 * OPS);
    let kept = live() - before;
    assert!(
        kept <= BUDGET,
        "{} preloaded files keep {kept} B live (budget {BUDGET})",
        2 * OPS
    );
}
