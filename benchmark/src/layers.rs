//! Layer drives: benchmark code that calls one layer's public API alone, with
//! the call mix and population the counted run observed, and reports the host
//! nanoseconds one unit costs. Isolated cost is not in-situ cost (caches are
//! warmer here, nothing interleaves), so the budget built from these is an
//! estimate; what it is good for is telling which layer a `host_kops` change
//! came from without a bisect.

use std::hint::black_box;
use std::rc::Rc;
use std::time::{Duration, Instant};

use switchfs::kvstore::{KvStore, Wal};
use switchfs::obs::{EventKind, Obs, TraceEvent};
use switchfs::proto::changelog::CompactedChanges;
use switchfs::proto::message::{Body, ClientRequest, MetaOp, NetMsg, PacketSeq, ParentRef};
use switchfs::proto::wire::{decode_net_msg, encode_net_msg};
use switchfs::proto::{
    ChangeLogEntry, ChangeOp, ClientId, DirId, DirtySetHeader, FileType, Fingerprint, InodeAttrs,
    MetaKey, OpId, Permissions, ServerId, TraceId,
};
use switchfs::server::{KvEffect, WalOp};
use switchfs::simnet::net::LinkParams;
use switchfs::simnet::{NetFaults, Network, NodeId, Sim, SimDuration};
use switchfs::switch::{SwitchConfig, SwitchFsProgram};

use crate::drive::Counts;
use crate::gen::Rng;
use crate::metrics::median;

/// What the counted run looked like, as far as the drives need to know.
#[derive(Debug, Clone, Copy)]
pub struct Observed {
    /// Inodes one server's store holds at the end of the run.
    pub inodes_per_server: usize,
    /// Records one server's log holds at the end of the run (nothing
    /// truncates it during a run).
    pub wal_records_per_server: usize,
    /// Switch packet mix: plain forwarding, inserts, queries, removes.
    pub switch_mix: [u64; 4],
    /// Change-log entries folded per compaction call.
    pub entries_per_batch: usize,
}

impl Observed {
    pub fn from_run(counts: &Counts, servers: usize, preloaded: usize, pushed: (u64, u64)) -> Self {
        let c = |name: &str| counts.get(name).copied().unwrap_or(0);
        let (entries, pushes) = pushed;
        Observed {
            inodes_per_server: ((preloaded as u64 + c("kv.puts")) as usize / servers).max(1_000),
            wal_records_per_server: (c("wal.appends") as usize / servers).max(1),
            switch_mix: [
                c("switch.regular_packets").max(1),
                c("switch.inserts"),
                c("switch.queries"),
                c("switch.removes"),
            ],
            entries_per_batch: (entries.checked_div(pushes).unwrap_or(0) as usize).max(1),
        }
    }
}

/// Host nanoseconds per unit, one field per drive.
#[derive(Debug, Clone, Copy, Default)]
pub struct DriveCosts {
    pub ns_per_get: f64,
    pub ns_per_put: f64,
    pub ns_per_wal_append: f64,
    pub ns_per_poll: f64,
    pub ns_per_sleep: f64,
    pub ns_per_pkt: f64,
    /// Executor polls one packet costs inside the `simnet.net` drive.
    pub polls_per_pkt: f64,
    pub ns_per_switch_pkt: f64,
    pub ns_per_wire_msg: f64,
    pub ns_per_changelog_entry: f64,
    pub ns_per_obs_event: f64,
}

const DRIVES: u32 = 9;

/// Runs every drive, giving each an equal share of `budget`.
pub fn run_all(seen: &Observed, budget: Duration) -> DriveCosts {
    let slice = budget / DRIVES;
    let (ns_per_get, ns_per_put) = kv(seen.inodes_per_server, slice);
    let ns_per_poll = exec_poll(slice);
    let (ns_per_pkt, polls_per_pkt) = net_pkt(slice);
    DriveCosts {
        ns_per_get,
        ns_per_put,
        ns_per_wal_append: wal_append(seen.wal_records_per_server, slice),
        ns_per_poll,
        ns_per_sleep: timer_sleep(slice),
        ns_per_pkt,
        polls_per_pkt,
        ns_per_switch_pkt: switch_pkt(seen.switch_mix, slice),
        ns_per_wire_msg: wire_msg(slice),
        ns_per_changelog_entry: changelog_entry(seen.entries_per_batch, slice),
        ns_per_obs_event: obs_event(slice),
    }
}

/// Calls `batch` (which returns how many units it processed) until `slice`
/// is used up, at least three times, and returns the median ns per unit.
fn median_ns_per_unit(slice: Duration, mut batch: impl FnMut() -> u64) -> f64 {
    let begun = Instant::now();
    let mut samples = Vec::new();
    while samples.len() < 3 || begun.elapsed() < slice {
        let t = Instant::now();
        let units = batch();
        samples.push(t.elapsed().as_nanos() as f64 / units.max(1) as f64);
    }
    median(&samples)
}

fn file_key(i: usize) -> MetaKey {
    MetaKey::new(
        DirId::generate(ServerId(0), (i % 64) as u64 + 1),
        format!("f{i}"),
    )
}

fn file_attrs() -> InodeAttrs {
    InodeAttrs::new_file(DirId::ROOT, 0, Permissions::default())
}

/// `KvStore::get` and `KvStore::put` on a store the size of one server's.
fn kv(population: usize, slice: Duration) -> (f64, f64) {
    const BATCH: usize = 20_000;
    let mut store: KvStore<MetaKey, InodeAttrs> = KvStore::new();
    let keys: Vec<MetaKey> = (0..population).map(file_key).collect();
    for k in &keys {
        store.put(k.clone(), file_attrs());
    }
    let mut rng = Rng::new(1);
    let get = median_ns_per_unit(slice / 2, || {
        for _ in 0..BATCH {
            black_box(store.get(black_box(&keys[rng.below(population)])));
        }
        BATCH as u64
    });
    let put = median_ns_per_unit(slice / 2, || {
        for _ in 0..BATCH {
            let k = &keys[rng.below(population)];
            black_box(store.put(k.clone(), file_attrs()));
        }
        BATCH as u64
    });
    (get, put)
}

/// `Wal::append_sized` + `Wal::flush`, repeated from an empty log to the
/// length one server's log reaches in the run. The cost per append depends on
/// that length, which is why this is not a fixed-size micro-benchmark.
fn wal_append(records: usize, slice: Duration) -> f64 {
    let record = WalOp::local(
        Some(OpId {
            client: ClientId(0),
            seq: 1,
        }),
        vec![KvEffect::PutInode(file_key(0), file_attrs())],
    );
    median_ns_per_unit(slice, || {
        let mut wal: Wal<WalOp> = Wal::new();
        for _ in 0..records {
            wal.append_sized(record.clone(), 200);
            black_box(wal.flush());
        }
        black_box(wal.len());
        records as u64
    })
}

/// Executor cost of one poll: tasks that yield and are rescheduled.
fn exec_poll(slice: Duration) -> f64 {
    const TASKS: usize = 64;
    const YIELDS: usize = 400;
    median_ns_per_unit(slice, || {
        let sim = Sim::new(1);
        for _ in 0..TASKS {
            let h = sim.handle();
            sim.spawn(async move {
                for _ in 0..YIELDS {
                    h.yield_now().await;
                }
            });
        }
        sim.run().polls
    })
}

/// Timer cost of one sleep (register, fire, wake), polls included.
fn timer_sleep(slice: Duration) -> f64 {
    const TASKS: u64 = 64;
    const SLEEPS: u64 = 400;
    median_ns_per_unit(slice, || {
        let sim = Sim::new(1);
        for t in 0..TASKS {
            let h = sim.handle();
            sim.spawn(async move {
                for s in 0..SLEEPS {
                    h.sleep(SimDuration::nanos(500 + 37 * ((t + s) % 16))).await;
                }
            });
        }
        black_box(sim.run());
        TASKS * SLEEPS
    })
}

/// One packet through the fabric (L2 forwarding, so no switch program):
/// send → link → switch → link → mailbox → receiver woken. Returns the cost
/// per packet and the executor polls each packet took.
fn net_pkt(slice: Duration) -> (f64, f64) {
    const WINDOW: u64 = 64;
    const ROUNDS: u64 = 200;
    let mut polls_per_pkt = 0.0;
    let ns = median_ns_per_unit(slice, || {
        let sim = Sim::new(1);
        let net: Network<NetMsg> = Network::new(
            sim.handle(),
            LinkParams::default(),
            NetFaults::reliable(),
            1,
        );
        let tx = net.register(NodeId(1));
        let rx = net.register(NodeId(2));
        sim.spawn(async move {
            let mut seq = 0;
            for _ in 0..ROUNDS {
                for _ in 0..WINDOW {
                    seq += 1;
                    tx.send(
                        NodeId(2),
                        NetMsg::plain(PacketSeq { sender: 1, seq }, Body::Empty),
                    );
                }
                for _ in 0..WINDOW {
                    black_box(rx.recv().await);
                }
            }
        });
        let polls = sim.run().polls;
        polls_per_pkt = polls as f64 / (WINDOW * ROUNDS) as f64;
        WINDOW * ROUNDS
    });
    (ns, polls_per_pkt)
}

/// `SwitchFsProgram::process` over the packet mix the run sent through it.
fn switch_pkt(mix: [u64; 4], slice: Duration) -> f64 {
    const BATCH: u64 = 20_000;
    const DIRS: u64 = 64;
    let total: u64 = mix.iter().sum();
    let mut program = SwitchFsProgram::new(SwitchConfig {
        server_nodes: (0..8).collect(),
        ..SwitchConfig::default()
    });
    let fps: Vec<Fingerprint> = (0..DIRS)
        .map(|d| Fingerprint::of_dir(&DirId::ROOT, &format!("d{d:04}")))
        .collect();
    let mut rng = Rng::new(1);
    let mut seq = 0u64;
    median_ns_per_unit(slice, || {
        for _ in 0..BATCH {
            seq += 1;
            let pkt_seq = PacketSeq { sender: 3, seq };
            let fp = fps[rng.below(fps.len())];
            let mut pick = rng.next() % total;
            let kind = mix
                .iter()
                .position(|&share| {
                    let hit = pick < share;
                    pick = pick.saturating_sub(share);
                    hit
                })
                .unwrap_or(0);
            let msg = match kind {
                1 => NetMsg::with_dirty(pkt_seq, DirtySetHeader::insert(fp, 5), Body::Empty),
                2 => NetMsg::with_dirty(pkt_seq, DirtySetHeader::query(fp), Body::Empty),
                3 => NetMsg::with_dirty(pkt_seq, DirtySetHeader::remove(fp, seq), Body::Empty),
                _ => NetMsg::plain(pkt_seq, Body::Empty),
            };
            black_box(program.process(3, 1000, msg));
        }
        BATCH
    })
}

fn sample_request() -> NetMsg {
    let parent = MetaKey::new(DirId::ROOT, "d0000");
    let dir = DirId::generate(ServerId(1), 1);
    let op_id = OpId {
        client: ClientId(1),
        seq: 42,
    };
    let request = ClientRequest {
        op_id,
        op: MetaOp::Create {
            key: MetaKey::new(dir, "n1a2bx12345"),
            perm: Permissions::default(),
        },
        ancestors: vec![DirId::ROOT, dir],
        parent: Some(ParentRef {
            fp: Fingerprint::of_dir(&parent.pid, &parent.name),
            key: parent,
            id: dir,
        }),
        epoch: 0,
        acked_below: 40,
    };
    NetMsg::plain(
        PacketSeq {
            sender: 1000,
            seq: 7,
        },
        Body::Request(Rc::new(request)),
    )
    .traced(TraceId::of_op(op_id))
}

/// Wire codec: encode + decode of one create request.
fn wire_msg(slice: Duration) -> f64 {
    const BATCH: u64 = 5_000;
    let msg = sample_request();
    median_ns_per_unit(slice, || {
        for _ in 0..BATCH {
            let bytes = encode_net_msg(black_box(&msg));
            black_box(decode_net_msg(&bytes).expect("round trip"));
        }
        BATCH
    })
}

/// Change-log compaction, per entry, at the batch size the run pushed.
fn changelog_entry(batch: usize, slice: Duration) -> f64 {
    let dir = DirId::generate(ServerId(1), 1);
    let entries: Vec<ChangeLogEntry> = (0..batch)
        .map(|i| ChangeLogEntry {
            entry_id: OpId {
                client: ClientId(1),
                seq: i as u64,
            },
            dir,
            name: format!("n1a2bx{i}"),
            op: ChangeOp::Insert {
                file_type: FileType::File,
                mode: 0o644,
            },
            timestamp: i as u64,
            size_delta: 1,
        })
        .collect();
    let rounds = (20_000 / batch).max(1);
    median_ns_per_unit(slice, || {
        for _ in 0..rounds {
            black_box(CompactedChanges::from_entries(black_box(&entries)));
        }
        (rounds * batch) as u64
    })
}

/// Flight recorder: one `record` call into an unbounded ring.
fn obs_event(slice: Duration) -> f64 {
    const BATCH: u64 = 20_000;
    let op = OpId {
        client: ClientId(1),
        seq: 1,
    };
    median_ns_per_unit(slice, || {
        let obs = Obs::recording(usize::MAX);
        for i in 0..BATCH {
            obs.record(TraceEvent {
                at_ns: i,
                node: (i % 12) as u32,
                epoch: 0,
                trace: Some(TraceId::of_op(op)),
                kind: EventKind::Dispatch { op },
            });
        }
        black_box(obs.recorder().len());
        BATCH
    })
}
