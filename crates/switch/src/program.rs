//! The SwitchFS data-plane program (§6.2, Fig. 8).
//!
//! The program sees every packet crossing the switch. For packets without a
//! dirty-set header it behaves like an ordinary L2 switch. For packets on
//! the reserved dirty-set port it:
//!
//! 1. **parses** the dirty-set operation header;
//! 2. **routes** the packet to the egress pipe owning the fingerprint's
//!    prefix (mirroring it if that pipe differs from the packet's natural
//!    egress pipe — pipes share no state);
//! 3. executes the dirty-set operation against that pipe's registers;
//! 4. writes the `RET` field, applies the **address rewriter** on insert
//!    overflow, suppresses stale duplicate `remove`s by sequence number, and
//!    **multicasts** where the protocol requires it (asynchronous commit
//!    notifications go to both the client and the origin server; aggregation
//!    requests go to every other metadata server).

use std::collections::BTreeMap;

use switchfs_proto::message::{Body, NetMsg, UdpPorts};
use switchfs_proto::{DirtyRet, DirtySetOp, DirtyState};
use switchfs_simnet::Fanout;

use crate::dirty_set::{DirtySet, DirtySetConfig, InsertOutcome};

/// Static configuration installed on the switch from the control plane.
#[derive(Debug, Clone)]
pub struct SwitchConfig {
    /// Raw node ids of every metadata server (the multicast group used by
    /// aggregation requests).
    pub server_nodes: Vec<u32>,
    /// Dirty-set sizing per egress pipe.
    pub dirty_set: DirtySetConfig,
    /// Number of egress pipes; fingerprints are sharded across pipes by
    /// prefix (§6.2). The paper's Tofino has up to four pipes.
    pub pipes: usize,
    /// Force every insert to fail, reproducing the §7.3.2 overflow study.
    pub force_insert_overflow: bool,
}

impl Default for SwitchConfig {
    fn default() -> Self {
        SwitchConfig {
            server_nodes: Vec::new(),
            dirty_set: DirtySetConfig::default(),
            pipes: 2,
            force_insert_overflow: false,
        }
    }
}

switchfs_simnet::counters! {
    /// Counters exposed by the data plane, used by the evaluation and by tests.
    pub struct SwitchStats {
        /// Packets processed in total.
        pub packets: u64,
        /// Packets without a dirty-set header (plain forwarding).
        pub regular_packets: u64,
        /// Dirty-set queries executed.
        pub queries: u64,
        /// Dirty-set inserts executed (including overflowed ones).
        pub inserts: u64,
        /// Inserts that overflowed and were redirected by the address rewriter.
        pub insert_overflows: u64,
        /// Dirty-set removes executed.
        pub removes: u64,
        /// Stale duplicate removes suppressed by the sequence-number check.
        pub stale_removes: u64,
        /// Packets mirrored to a different egress pipe than their natural one.
        pub mirrored: u64,
        /// Copies emitted by multicast (beyond the first).
        pub multicast_copies: u64,
    }
}

/// The SwitchFS switch program: per-pipe dirty sets plus forwarding logic.
pub struct SwitchFsProgram {
    config: SwitchConfig,
    pipes: Vec<DirtySet>,
    /// Highest `remove` sequence number seen per sending server (§5.4.1).
    remove_seq_high: BTreeMap<u32, u64>,
    stats: SwitchStats,
}

impl SwitchFsProgram {
    /// Creates a program with empty dirty sets.
    ///
    /// # Panics
    ///
    /// Panics if the configuration requests zero pipes.
    pub fn new(config: SwitchConfig) -> Self {
        assert!(config.pipes > 0, "the switch needs at least one pipe");
        let pipes = (0..config.pipes)
            .map(|_| DirtySet::new(config.dirty_set))
            .collect();
        SwitchFsProgram {
            config,
            pipes,
            remove_seq_high: BTreeMap::new(),
            stats: SwitchStats::default(),
        }
    }

    /// The installed configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.config
    }

    /// Control-plane update: registers one more metadata server in the
    /// aggregation multicast group (cluster scale-out).
    pub fn add_server_node(&mut self, node: u32) {
        if !self.config.server_nodes.contains(&node) {
            self.config.server_nodes.push(node);
        }
    }

    /// Control-plane update: removes a metadata server from the aggregation
    /// multicast group (graceful decommission). Aggregation requests stop
    /// fanning out to the retired node the moment the drain completes.
    pub fn remove_server_node(&mut self, node: u32) {
        self.config.server_nodes.retain(|n| *n != node);
    }

    /// Accumulated counters.
    pub fn stats(&self) -> SwitchStats {
        self.stats
    }

    /// Total fingerprints currently tracked across all pipes.
    pub fn occupancy(&self) -> usize {
        self.pipes.iter().map(|p| p.occupancy()).sum()
    }

    /// Clears all switch state: dirty sets and duplicate-suppression
    /// sequence numbers. Models a switch reboot (§5.4.2).
    pub fn reboot(&mut self) {
        for p in &mut self.pipes {
            p.clear();
        }
        self.remove_seq_high.clear();
    }

    /// Looks up whether a fingerprint is currently marked scattered (used by
    /// tests and by the recovery orchestration, never by the data path).
    pub fn contains(&self, fp: switchfs_proto::Fingerprint) -> bool {
        self.pipes[self.pipe_of(fp)].query(fp)
    }

    fn pipe_of(&self, fp: switchfs_proto::Fingerprint) -> usize {
        // Shard by fingerprint prefix: the top bits of the index select the
        // owning pipe.
        (fp.prefix(4) as usize) % self.config.pipes
    }

    /// Natural egress pipe of a destination node — only used to count
    /// mirrored packets (pipes are modelled as shared-nothing data, so the
    /// mirror hop itself has no behavioural effect beyond its latency, which
    /// the network model charges as part of switch latency).
    fn natural_pipe(&self, dst: u32) -> usize {
        dst as usize % self.config.pipes
    }

    /// Processes one packet and returns the list of `(destination node,
    /// rewritten message)` pairs to emit. Takes the message by value so the
    /// dominant single-output cases (plain forwarding, query, overflow
    /// redirect) move the payload through the data plane without cloning;
    /// only genuine multicast pays for copies.
    pub fn process(&mut self, src: u32, dst: u32, mut msg: NetMsg) -> Fanout<(u32, NetMsg)> {
        self.stats.packets += 1;
        let Some(hdr) = msg.dirty else {
            self.stats.regular_packets += 1;
            return Fanout::one((dst, msg));
        };
        if msg.dst_port != UdpPorts::DIRTY_SET {
            // Malformed: a dirty header on the plain port is ignored by the
            // parser and the packet is forwarded untouched.
            self.stats.regular_packets += 1;
            return Fanout::one((dst, msg));
        }
        let fp = hdr.fingerprint;
        let pipe_idx = self.pipe_of(fp);
        if pipe_idx != self.natural_pipe(dst) {
            self.stats.mirrored += 1;
        }
        match hdr.op {
            DirtySetOp::Query => {
                self.stats.queries += 1;
                let present = self.pipes[pipe_idx].query(fp);
                if let Some(h) = &mut msg.dirty {
                    h.ret = DirtyRet::State(if present {
                        DirtyState::Scattered
                    } else {
                        DirtyState::Normal
                    });
                }
                Fanout::one((dst, msg))
            }
            DirtySetOp::Insert => {
                self.stats.inserts += 1;
                let outcome = if self.config.force_insert_overflow {
                    InsertOutcome::Overflow
                } else {
                    self.pipes[pipe_idx].insert(fp)
                };
                match outcome {
                    InsertOutcome::Inserted => {
                        if let Some(h) = &mut msg.dirty {
                            h.ret = DirtyRet::Inserted;
                        }
                        // Multicast: one copy to the original destination
                        // (the client, completing the operation) and one back
                        // to the origin server (releasing its locks).
                        self.stats.multicast_copies += 1;
                        let mut out = Fanout::one((dst, msg.clone()));
                        out.push((src, msg));
                        out
                    }
                    InsertOutcome::Overflow => {
                        self.stats.insert_overflows += 1;
                        if let Some(h) = &mut msg.dirty {
                            h.ret = DirtyRet::Overflowed;
                        }
                        // Address rewriter: redirect to the alternative
                        // destination (the parent directory's owner) for
                        // synchronous fallback handling.
                        let fallback_dst = hdr.alt_dst.unwrap_or(dst);
                        Fanout::one((fallback_dst, msg))
                    }
                }
            }
            DirtySetOp::Remove => {
                let high = self.remove_seq_high.entry(src).or_insert(0);
                if hdr.remove_seq <= *high && *high != 0 {
                    // A duplicate remove that arrives after a newer request
                    // from the same server must not take effect (§5.4.1).
                    self.stats.stale_removes += 1;
                    return Fanout::default();
                }
                *high = hdr.remove_seq;
                self.stats.removes += 1;
                self.pipes[pipe_idx].remove(fp);
                if let Some(h) = &mut msg.dirty {
                    h.ret = DirtyRet::Removed;
                }
                // Aggregation requests are multicast to every other metadata
                // server; other remove-carrying packets (none today) would
                // just go to their destination.
                if !matches!(msg.body, Body::Server(_)) {
                    return Fanout::one((dst, msg));
                }
                let mut targets = self
                    .config
                    .server_nodes
                    .iter()
                    .copied()
                    .filter(|&n| n != src);
                let Some(mut last) = targets.next() else {
                    return Fanout::one((dst, msg));
                };
                let mut out = Fanout::default();
                for n in targets {
                    out.push((last, msg.clone()));
                    last = n;
                }
                self.stats.multicast_copies += out.len() as u64;
                out.push((last, msg));
                out
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::message::{Body, PacketSeq};
    use switchfs_proto::{DirId, DirtySetHeader, Fingerprint, ServerId};

    fn fp(i: u64) -> Fingerprint {
        Fingerprint::of_dir(&DirId::generate(ServerId(0), i), "dir")
    }

    fn seq(sender: u32, s: u64) -> PacketSeq {
        PacketSeq { sender, seq: s }
    }

    fn program(servers: Vec<u32>) -> SwitchFsProgram {
        SwitchFsProgram::new(SwitchConfig {
            server_nodes: servers,
            dirty_set: DirtySetConfig::tiny(4, 8),
            pipes: 2,
            force_insert_overflow: false,
        })
    }

    #[test]
    fn regular_packets_pass_through() {
        let mut p = program(vec![10, 11]);
        let msg = NetMsg::plain(seq(1, 1), Body::Empty);
        let out: Vec<_> = p.process(1, 10, msg).into_iter().collect();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].0, 10);
        assert_eq!(p.stats().regular_packets, 1);
    }

    #[test]
    fn query_reports_state_in_ret_field() {
        let mut p = program(vec![10, 11]);
        let f = fp(1);
        let q = NetMsg::with_dirty(seq(1, 1), DirtySetHeader::query(f), Body::Empty);
        let out: Vec<_> = p.process(1, 10, q.clone()).into_iter().collect();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].1.dirty.unwrap().ret,
            DirtyRet::State(DirtyState::Normal)
        );
        // Insert, then query again.
        let ins = NetMsg::with_dirty(seq(10, 2), DirtySetHeader::insert(f, 11), Body::Empty);
        p.process(10, 1, ins);
        let out: Vec<_> = p.process(1, 10, q).into_iter().collect();
        assert_eq!(
            out[0].1.dirty.unwrap().ret,
            DirtyRet::State(DirtyState::Scattered)
        );
    }

    #[test]
    fn successful_insert_multicasts_to_client_and_origin() {
        let mut p = program(vec![10, 11]);
        let ins = NetMsg::with_dirty(seq(10, 1), DirtySetHeader::insert(fp(2), 11), Body::Empty);
        // src = server 10, dst = client 1.
        let out: Vec<_> = p.process(10, 1, ins).into_iter().collect();
        let dests: Vec<u32> = out.iter().map(|(d, _)| *d).collect();
        assert_eq!(dests, vec![1, 10]);
        for (_, m) in &out {
            assert_eq!(m.dirty.unwrap().ret, DirtyRet::Inserted);
        }
        assert!(p.contains(fp(2)));
    }

    #[test]
    fn overflow_redirects_to_alternative_destination() {
        let mut p = SwitchFsProgram::new(SwitchConfig {
            force_insert_overflow: true,
            ..program(vec![10, 11]).config().clone()
        });
        let ins = NetMsg::with_dirty(seq(10, 1), DirtySetHeader::insert(fp(3), 42), Body::Empty);
        let out: Vec<_> = p.process(10, 1, ins).into_iter().collect();
        assert_eq!(out.len(), 1);
        assert_eq!(
            out[0].0, 42,
            "address rewriter must use the alternative destination"
        );
        assert_eq!(out[0].1.dirty.unwrap().ret, DirtyRet::Overflowed);
        assert!(!p.contains(fp(3)));
        assert_eq!(p.stats().insert_overflows, 1);
    }

    #[test]
    fn remove_with_server_body_multicasts_to_other_servers() {
        use switchfs_proto::message::ServerMsg;
        let mut p = program(vec![10, 11, 12, 13]);
        let f = fp(4);
        p.process(
            10,
            1,
            NetMsg::with_dirty(seq(10, 1), DirtySetHeader::insert(f, 11), Body::Empty),
        );
        assert!(p.contains(f));
        let agg = Body::Server(ServerMsg::AggregationRequest {
            fp: f,
            agg_id: 1,
            invalidate: None,
        });
        let rm = NetMsg::with_dirty(seq(11, 1), DirtySetHeader::remove(f, 1), agg);
        let out: Vec<_> = p.process(11, 11, rm).into_iter().collect();
        let mut dests: Vec<u32> = out.iter().map(|(d, _)| *d).collect();
        dests.sort_unstable();
        assert_eq!(
            dests,
            vec![10, 12, 13],
            "multicast must reach every other server"
        );
        assert!(!p.contains(f));
    }

    #[test]
    fn stale_duplicate_removes_are_suppressed() {
        let mut p = program(vec![10, 11]);
        let f = fp(5);
        let rm1 = NetMsg::with_dirty(seq(11, 1), DirtySetHeader::remove(f, 5), Body::Empty);
        let rm_stale = NetMsg::with_dirty(seq(11, 2), DirtySetHeader::remove(f, 4), Body::Empty);
        assert!(!p.process(11, 10, rm1).is_empty());
        // The fingerprint is re-inserted by a later operation...
        p.process(
            10,
            1,
            NetMsg::with_dirty(seq(10, 3), DirtySetHeader::insert(f, 11), Body::Empty),
        );
        assert!(p.contains(f));
        // ...and the stale duplicate remove must not clear it.
        let out: Vec<_> = p.process(11, 10, rm_stale).into_iter().collect();
        assert!(out.is_empty());
        assert!(p.contains(f));
        assert_eq!(p.stats().stale_removes, 1);
    }

    #[test]
    fn remove_seq_is_tracked_per_sender() {
        let mut p = program(vec![10, 11]);
        let f = fp(6);
        // Sender 11 uses seq 5; sender 12's seq 1 must still be accepted.
        p.process(
            11,
            10,
            NetMsg::with_dirty(seq(11, 1), DirtySetHeader::remove(f, 5), Body::Empty),
        );
        p.process(
            10,
            1,
            NetMsg::with_dirty(seq(10, 1), DirtySetHeader::insert(f, 11), Body::Empty),
        );
        let out: Vec<_> = p
            .process(
                12,
                10,
                NetMsg::with_dirty(seq(12, 1), DirtySetHeader::remove(f, 1), Body::Empty),
            )
            .into_iter()
            .collect();
        assert!(!out.is_empty());
        assert!(!p.contains(f));
    }

    #[test]
    fn reboot_clears_state_and_sequence_numbers() {
        let mut p = program(vec![10, 11]);
        let f = fp(7);
        p.process(
            10,
            1,
            NetMsg::with_dirty(seq(10, 1), DirtySetHeader::insert(f, 11), Body::Empty),
        );
        p.process(
            11,
            10,
            NetMsg::with_dirty(seq(11, 1), DirtySetHeader::remove(fp(8), 9), Body::Empty),
        );
        assert!(p.contains(f));
        p.reboot();
        assert!(!p.contains(f));
        assert_eq!(p.occupancy(), 0);
        // After a reboot, sequence numbering restarts: seq 1 is accepted.
        let out: Vec<_> = p
            .process(
                11,
                10,
                NetMsg::with_dirty(seq(11, 2), DirtySetHeader::remove(fp(8), 1), Body::Empty),
            )
            .into_iter()
            .collect();
        assert!(!out.is_empty());
    }

    #[test]
    fn mirrored_counter_tracks_cross_pipe_packets() {
        let mut p = program(vec![10, 11]);
        for i in 0..50u64 {
            let q = NetMsg::with_dirty(seq(1, i), DirtySetHeader::query(fp(i)), Body::Empty);
            p.process(1, 10, q);
        }
        let s = p.stats();
        assert_eq!(s.queries, 50);
        assert!(
            s.mirrored > 0,
            "some fingerprints should hash to the non-natural pipe"
        );
        assert!(s.mirrored < 50);
    }
}
