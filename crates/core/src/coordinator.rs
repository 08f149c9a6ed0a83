//! The dedicated dirty-set coordinator server (§7.3.3, alternative (a)).
//!
//! Instead of tracking scattered directories in the switch, a standard
//! server keeps them in a [`ServerDirtySet`] and answers the metadata
//! servers' `Request::DirtySet` requests, the same request an owner
//! server answers under owner tracking. Every operation involving the dirty
//! set pays one extra round trip, and the coordinator's CPU bounds the total
//! dirty-set operation rate — the two effects Fig. 15 quantifies.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_proto::message::{Body, NetMsg, PacketSeq, Reply, Request, ServerMsg};
use switchfs_server::ServerDirtySet;
use switchfs_simnet::{CpuPool, Endpoint, SimDuration, SimHandle};

/// The dedicated coordinator node.
pub struct Coordinator {
    handle: SimHandle,
    cpu: CpuPool,
    endpoint: Rc<Endpoint<NetMsg>>,
    set: Rc<RefCell<ServerDirtySet>>,
    per_op_cost: SimDuration,
    next_seq: RefCell<u64>,
}

impl Coordinator {
    /// Creates a coordinator with `cores` worker cores (the paper's
    /// dedicated server uses 12 cores with DPDK).
    pub fn new(handle: SimHandle, endpoint: Endpoint<NetMsg>, cores: usize) -> Self {
        let cpu = CpuPool::new(handle.clone(), cores);
        Coordinator {
            handle,
            cpu,
            endpoint: Rc::new(endpoint),
            set: Rc::default(),
            // ~1 µs of CPU per dirty-set RPC: 12 cores saturate at ~12 Mops/s,
            // matching the ~11 Mops/s ceiling reported in Fig. 15(b).
            per_op_cost: SimDuration::from_micros_f64(1.0),
            next_seq: RefCell::new(1),
        }
    }

    /// Spawns the serving loop.
    pub fn start(self: &Rc<Self>) {
        let me = self.clone();
        self.handle.spawn(async move {
            loop {
                let Some(pkt) = me.endpoint.recv().await else {
                    return;
                };
                let Body::Server(ServerMsg::Request {
                    req_id,
                    req: Request::DirtySet { op, fp },
                }) = pkt.payload.body
                else {
                    continue;
                };
                let me2 = me.clone();
                me.handle.spawn(async move {
                    me2.cpu.run(me2.per_op_cost).await;
                    let ret = me2.set.borrow_mut().apply(op, fp);
                    let seq = {
                        let mut s = me2.next_seq.borrow_mut();
                        *s += 1;
                        *s
                    };
                    me2.endpoint.send(
                        pkt.src,
                        NetMsg::plain(
                            PacketSeq {
                                sender: me2.endpoint.node().0,
                                seq,
                            },
                            Body::Server(ServerMsg::Reply {
                                req_id,
                                reply: Reply::Dirty(ret),
                            }),
                        ),
                    );
                });
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::{DirId, DirtyRet, DirtySetOp, DirtyState, Fingerprint};
    use switchfs_simnet::net::LinkParams;
    use switchfs_simnet::{NetFaults, Network, NodeId, Sim, SimTime};

    #[test]
    fn coordinator_answers_dirty_set_rpcs() {
        let sim = Sim::new(1);
        let net: Network<NetMsg> = Network::new(
            sim.handle(),
            LinkParams::default(),
            NetFaults::reliable(),
            1,
        );
        let coord_ep = net.register(NodeId(900));
        let client_ep = net.register(NodeId(1));
        let coordinator = Rc::new(Coordinator::new(sim.handle(), coord_ep, 12));
        coordinator.start();
        let fp = Fingerprint::of_dir(&DirId::ROOT, "d");
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        sim.spawn(async move {
            let seq = |s| PacketSeq { sender: 1, seq: s };
            for (i, op) in [DirtySetOp::Query, DirtySetOp::Insert, DirtySetOp::Query]
                .into_iter()
                .enumerate()
            {
                client_ep.send(
                    NodeId(900),
                    NetMsg::plain(
                        seq(i as u64),
                        Body::Server(ServerMsg::Request {
                            req_id: i as u64,
                            req: Request::DirtySet { op, fp },
                        }),
                    ),
                );
                let reply = client_ep.recv().await.unwrap();
                if let Body::Server(ServerMsg::Reply {
                    reply: Reply::Dirty(ret),
                    ..
                }) = reply.payload.body
                {
                    got2.borrow_mut().push(ret);
                }
            }
        });
        sim.run_until(SimTime::from_millis(10));
        assert_eq!(
            *got.borrow(),
            vec![
                DirtyRet::State(DirtyState::Normal),
                DirtyRet::Inserted,
                DirtyRet::State(DirtyState::Scattered)
            ]
        );
    }
}
