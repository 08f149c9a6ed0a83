//! The simulated datacenter network.
//!
//! Nodes (clients, metadata servers, the dedicated coordinator of §7.3.3)
//! exchange typed messages through a [`Network`]. Every packet traverses the
//! rack's one switch, which runs a [`SwitchLogic`] program: the SwitchFS data
//! plane (parser + router + dirty set) from the `switchfs-switch` crate for
//! the programmable ToR switch, plain L2 forwarding otherwise.
//!
//! The network is UDP-like, matching §5.4.1 of the paper: packets can be
//! lost, duplicated and reordered according to a [`NetFaults`] policy, and
//! higher layers are responsible for timeouts, retransmission and duplicate
//! suppression.

use std::cell::RefCell;
use std::rc::Rc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::executor::SimHandle;
use crate::fxhash::FxHashMap;
use crate::sync::mpsc;
use crate::time::{SimDuration, SimTime};

/// Identifier of an end host (client, metadata server, data node, …).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A packet in flight: source, destination and a typed payload.
///
/// The payload plays the role of the UDP datagram of the real system: the
/// programmable switch only ever inspects the (optional) dirty-set operation
/// header inside it, never the full filesystem request.
#[derive(Debug, Clone)]
pub struct Packet<M> {
    /// Sending node.
    pub src: NodeId,
    /// Destination node (the L2 destination address).
    pub dst: NodeId,
    /// Typed payload.
    pub payload: M,
}

/// A forwarding decision made by a switch for one incoming packet.
#[derive(Debug, Clone)]
pub enum SwitchAction<M> {
    /// Forward a (possibly rewritten) packet towards `dst`.
    Forward {
        /// New destination node.
        dst: NodeId,
        /// Possibly rewritten payload (e.g. with the dirty-set `RET` field
        /// filled in).
        payload: M,
    },
    /// Drop the packet.
    Drop,
}

/// A short, ordered list that keeps its first two items inline: a packet's
/// delivery copies (the packet, and a fault-injected duplicate) or a switch
/// program's outputs (a unicast, or an insert's multicast to two). Only a
/// third item, a multicast to more than two destinations, spills to the
/// heap.
#[derive(Debug, Clone)]
pub struct Fanout<T> {
    first: Option<T>,
    second: Option<T>,
    rest: Vec<T>,
}

impl<T> Default for Fanout<T> {
    fn default() -> Self {
        Fanout {
            first: None,
            second: None,
            rest: Vec::new(),
        }
    }
}

impl<T> Fanout<T> {
    /// A list of one item.
    pub fn one(item: T) -> Self {
        Fanout {
            first: Some(item),
            ..Fanout::default()
        }
    }

    /// Appends an item.
    pub fn push(&mut self, item: T) {
        if self.first.is_none() {
            self.first = Some(item);
        } else if self.second.is_none() {
            self.second = Some(item);
        } else {
            self.rest.push(item);
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        usize::from(self.first.is_some()) + usize::from(self.second.is_some()) + self.rest.len()
    }

    /// True when the list holds nothing.
    pub fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// The items, in order, mutably.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.first
            .iter_mut()
            .chain(&mut self.second)
            .chain(&mut self.rest)
    }

    /// The list of `f` applied to each item, in order.
    pub fn map<U>(self, mut f: impl FnMut(T) -> U) -> Fanout<U> {
        Fanout {
            first: self.first.map(&mut f),
            second: self.second.map(&mut f),
            rest: self.rest.into_iter().map(f).collect(),
        }
    }
}

impl<T> IntoIterator for Fanout<T> {
    type Item = T;
    type IntoIter = std::iter::Chain<
        std::iter::Chain<std::option::IntoIter<T>, std::option::IntoIter<T>>,
        std::vec::IntoIter<T>,
    >;

    fn into_iter(self) -> Self::IntoIter {
        self.first.into_iter().chain(self.second).chain(self.rest)
    }
}

/// A packet-processing program attached to the switch.
pub trait SwitchLogic<M> {
    /// Processes one packet arriving at this switch at time `now` and returns
    /// the forwarding decisions (possibly several, for multicast; possibly
    /// none, equivalent to a drop). The packet is passed by value so the
    /// common single-`Forward` case can move the payload through the switch
    /// instead of cloning it per hop.
    fn process(&mut self, now: SimTime, pkt: Packet<M>) -> Fanout<SwitchAction<M>>;

    /// Human-readable name used in traces.
    fn name(&self) -> &str {
        "switch"
    }
}

/// Plain L2 forwarding: send the packet to its destination unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct L2Forward;

impl<M: Clone> SwitchLogic<M> for L2Forward {
    fn process(&mut self, _now: SimTime, pkt: Packet<M>) -> Fanout<SwitchAction<M>> {
        Fanout::one(SwitchAction::Forward {
            dst: pkt.dst,
            payload: pkt.payload,
        })
    }

    fn name(&self) -> &str {
        "l2-forward"
    }
}

/// Packet loss / duplication / reordering policy, applied per transmission.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NetFaults {
    /// Probability that a packet is silently dropped.
    pub drop_prob: f64,
    /// Probability that a packet is delivered twice.
    pub duplicate_prob: f64,
    /// Maximum extra random delay added to a delivery, producing reordering
    /// between packets of different operations.
    pub reorder_jitter: SimDuration,
}

impl Default for NetFaults {
    fn default() -> Self {
        NetFaults {
            drop_prob: 0.0,
            duplicate_prob: 0.0,
            reorder_jitter: SimDuration::ZERO,
        }
    }
}

impl NetFaults {
    /// A perfectly reliable network.
    pub fn reliable() -> Self {
        Self::default()
    }

    /// A lossy network with the given drop and duplication probabilities and
    /// reordering jitter.
    pub fn lossy(drop_prob: f64, duplicate_prob: f64, reorder_jitter: SimDuration) -> Self {
        NetFaults {
            drop_prob,
            duplicate_prob,
            reorder_jitter,
        }
    }
}

/// Latency parameters of the fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkParams {
    /// One-way latency of a single link (host↔switch or switch↔switch).
    pub link_latency: SimDuration,
    /// Packet processing latency inside a switch.
    pub switch_latency: SimDuration,
}

impl Default for LinkParams {
    fn default() -> Self {
        // Calibrated so that a host→switch→host one-way trip costs ~1.5 µs,
        // i.e. a ~3 µs RTT as measured in Fig. 15(a) of the paper.
        LinkParams {
            link_latency: SimDuration::nanos(550),
            switch_latency: SimDuration::nanos(400),
        }
    }
}

crate::counters! {
    /// Statistics counters maintained by the network.
    pub struct NetStats {
        /// Packets handed to the network by endpoints.
        pub sent: u64,
        /// Packets delivered into destination mailboxes.
        pub delivered: u64,
        /// Packets dropped by fault injection.
        pub dropped_faults: u64,
        /// Packets duplicated by fault injection.
        pub duplicated: u64,
        /// Packets dropped because the destination node was down.
        pub dropped_node_down: u64,
        /// Packets dropped by switch programs (e.g. no forwarding action).
        pub dropped_by_switch: u64,
        /// Packets dropped because a network partition separated the endpoints.
        pub dropped_partition: u64,
    }
}

struct NetworkInner<M> {
    handle: SimHandle,
    mailboxes: FxHashMap<NodeId, mpsc::Sender<Packet<M>>>,
    node_down: FxHashMap<NodeId, bool>,
    /// Partition group of each node; packets between different groups are
    /// dropped. Nodes absent from the map belong to group 0. `None` means no
    /// partition is active (the common case — checked with one branch).
    partition: Option<FxHashMap<NodeId, u32>>,
    switch: Box<dyn SwitchLogic<M>>,
    params: LinkParams,
    faults: NetFaults,
    rng: StdRng,
    stats: NetStats,
}

/// The simulated network fabric.
pub struct Network<M> {
    inner: Rc<RefCell<NetworkInner<M>>>,
}

impl<M> Clone for Network<M> {
    fn clone(&self) -> Self {
        Network {
            inner: self.inner.clone(),
        }
    }
}

impl<M: Clone + 'static> Network<M> {
    /// Creates a single-rack network whose ToR switch runs plain L2
    /// forwarding. Use [`Network::install_switch`] to replace it with the
    /// SwitchFS data plane.
    pub fn new(handle: SimHandle, params: LinkParams, faults: NetFaults, seed: u64) -> Self {
        Network {
            inner: Rc::new(RefCell::new(NetworkInner {
                handle,
                mailboxes: FxHashMap::default(),
                node_down: FxHashMap::default(),
                partition: None,
                switch: Box::new(L2Forward),
                params,
                faults,
                rng: StdRng::seed_from_u64(seed ^ 0x5157_4654_4353_u64),
                stats: NetStats::default(),
            })),
        }
    }

    /// Replaces the program of the rack's switch.
    pub fn install_switch(&self, logic: Box<dyn SwitchLogic<M>>) {
        self.inner.borrow_mut().switch = logic;
    }

    /// Updates the fault-injection policy.
    pub fn set_faults(&self, faults: NetFaults) {
        self.inner.borrow_mut().faults = faults;
    }

    /// Registers a node and returns its endpoint.
    ///
    /// # Panics
    ///
    /// Panics if the node is already registered.
    pub fn register(&self, node: NodeId) -> Endpoint<M> {
        let (tx, rx) = mpsc::channel();
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.mailboxes.contains_key(&node),
            "node {node} registered twice"
        );
        inner.mailboxes.insert(node, tx);
        inner.node_down.insert(node, false);
        Endpoint {
            node,
            network: self.clone(),
            rx,
        }
    }

    /// Marks a node as down (its packets are dropped) or back up. Used to
    /// simulate server crashes (§5.4.2).
    pub fn set_node_down(&self, node: NodeId, down: bool) {
        self.inner.borrow_mut().node_down.insert(node, down);
    }

    /// Installs a network partition: every node is assigned a group (nodes
    /// not listed default to group 0) and packets whose endpoints sit in
    /// different groups are dropped at delivery time — in-flight packets are
    /// cut too, like a yanked cable. Replaces any previous partition.
    pub fn set_partition(&self, groups: impl IntoIterator<Item = (NodeId, u32)>) {
        let map: FxHashMap<NodeId, u32> = groups.into_iter().collect();
        self.inner.borrow_mut().partition = Some(map);
    }

    /// Heals any active partition.
    pub fn heal_partition(&self) {
        self.inner.borrow_mut().partition = None;
    }

    /// Returns the accumulated network statistics.
    pub fn stats(&self) -> NetStats {
        self.inner.borrow().stats
    }

    /// Injects a packet into the fabric.
    pub fn send(&self, pkt: Packet<M>) {
        let handle = {
            let mut inner = self.inner.borrow_mut();
            inner.stats.sent += 1;
            if *inner.node_down.get(&pkt.src).unwrap_or(&false) {
                inner.stats.dropped_node_down += 1;
                return;
            }
            inner.handle.clone()
        };
        let copies = {
            let mut inner = self.inner.borrow_mut();
            let mut copies = Fanout::default();
            if inner.rng.gen::<f64>() < inner.faults.drop_prob {
                inner.stats.dropped_faults += 1;
            } else {
                copies.push(SimDuration::ZERO);
            }
            if inner.faults.duplicate_prob > 0.0
                && inner.rng.gen::<f64>() < inner.faults.duplicate_prob
            {
                inner.stats.duplicated += 1;
                let jitter = inner.params.link_latency;
                copies.push(jitter);
            }
            // Reordering jitter applies to every copy independently.
            let jitter_max = inner.faults.reorder_jitter.as_nanos();
            if jitter_max > 0 {
                for c in copies.iter_mut() {
                    let extra = inner.rng.gen_range(0..=jitter_max);
                    *c += SimDuration::nanos(extra);
                }
            }
            copies
        };
        // Move the packet into the last copy's delivery task; only fault
        // duplication pays for a clone.
        let mut pkt = Some(pkt);
        let last = copies.len().saturating_sub(1);
        for (i, extra_delay) in copies.into_iter().enumerate() {
            let net = self.clone();
            let pkt = if i == last {
                pkt.take().expect("one packet per copy")
            } else {
                pkt.clone().expect("one packet per copy")
            };
            handle.spawn(async move {
                net.deliver(pkt, extra_delay).await;
            });
        }
    }

    /// Runs one packet through the rack: link → switch → link → mailbox.
    async fn deliver(&self, pkt: Packet<M>, extra_delay: SimDuration) {
        let (handle, link_latency, switch_latency) = {
            let inner = self.inner.borrow();
            (
                inner.handle.clone(),
                inner.params.link_latency,
                inner.params.switch_latency,
            )
        };
        if !extra_delay.is_zero() {
            handle.sleep(extra_delay).await;
        }
        handle.sleep(link_latency).await;
        let forwarded = self.process_at_switch(handle.now(), pkt);
        if forwarded.is_empty() {
            return;
        }
        handle.sleep(switch_latency).await;
        handle.sleep(link_latency).await;
        let mut inner = self.inner.borrow_mut();
        for p in forwarded {
            if *inner.node_down.get(&p.dst).unwrap_or(&false) {
                inner.stats.dropped_node_down += 1;
                continue;
            }
            if let Some(groups) = &inner.partition {
                let src_group = groups.get(&p.src).copied().unwrap_or(0);
                let dst_group = groups.get(&p.dst).copied().unwrap_or(0);
                if src_group != dst_group {
                    inner.stats.dropped_partition += 1;
                    continue;
                }
            }
            let delivered = inner
                .mailboxes
                .get(&p.dst)
                .is_some_and(|tx| tx.send(p).is_ok());
            if delivered {
                inner.stats.delivered += 1;
            } else {
                inner.stats.dropped_node_down += 1;
            }
        }
    }

    /// Runs one packet through the switch program and returns the packets
    /// it forwards, in order.
    fn process_at_switch(&self, now: SimTime, pkt: Packet<M>) -> Fanout<Packet<M>> {
        let mut inner = self.inner.borrow_mut();
        let src = pkt.src;
        let actions = inner.switch.process(now, pkt);
        if actions.is_empty() {
            inner.stats.dropped_by_switch += 1;
        }
        let mut forwarded = Fanout::default();
        for action in actions {
            match action {
                SwitchAction::Forward { dst, payload } => {
                    forwarded.push(Packet { src, dst, payload });
                }
                SwitchAction::Drop => inner.stats.dropped_by_switch += 1,
            }
        }
        forwarded
    }
}

/// A node's attachment point to the network.
pub struct Endpoint<M> {
    node: NodeId,
    network: Network<M>,
    rx: mpsc::Receiver<Packet<M>>,
}

impl<M: Clone + 'static> Endpoint<M> {
    /// The node this endpoint belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Sends a payload to `dst`.
    pub fn send(&self, dst: NodeId, payload: M) {
        self.network.send(Packet {
            src: self.node,
            dst,
            payload,
        });
    }

    /// Waits for the next packet addressed to this node.
    pub async fn recv(&self) -> Option<Packet<M>> {
        self.rx.recv().await
    }

    /// Returns a queued packet if one is available.
    pub fn try_recv(&self) -> Option<Packet<M>> {
        self.rx.try_recv()
    }

    /// Number of packets waiting in the mailbox.
    pub fn pending(&self) -> usize {
        self.rx.len()
    }

    /// Discards every packet currently queued in the mailbox. Used when a
    /// node restarts after a crash: in-flight requests addressed to the old
    /// incarnation are dropped, as they would be by a rebooted DPDK process.
    pub fn drain(&self) -> usize {
        let mut n = 0;
        while self.rx.try_recv().is_some() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::Sim;
    use crate::time::SimTime;
    use std::cell::Cell;

    fn mk(seed: u64, faults: NetFaults) -> (Sim, Network<u32>) {
        let sim = Sim::new(seed);
        let net = Network::new(sim.handle(), LinkParams::default(), faults, seed);
        (sim, net)
    }

    #[test]
    fn one_way_delivery_latency_is_about_1_5_us() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let t = Rc::new(Cell::new(SimTime::ZERO));
        let t2 = t.clone();
        let h = sim.handle();
        sim.spawn(async move {
            a.send(NodeId(2), 7);
        });
        sim.spawn(async move {
            let p = b.recv().await.unwrap();
            assert_eq!(p.payload, 7);
            assert_eq!(p.src, NodeId(1));
            t2.set(h.now());
        });
        sim.run();
        // link + switch + link = 550 + 400 + 550 = 1.5us.
        assert_eq!(t.get(), SimTime::from_nanos(1_500));
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn packets_between_same_pair_preserve_order_without_jitter() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        sim.spawn(async move {
            for i in 0..10u32 {
                a.send(NodeId(2), i);
            }
        });
        sim.spawn(async move {
            for _ in 0..10 {
                let p = b.recv().await.unwrap().payload;
                got2.borrow_mut().push(p);
            }
        });
        sim.run();
        assert_eq!(*got.borrow(), (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn drop_probability_one_loses_everything() {
        let (sim, net) = mk(1, NetFaults::lossy(1.0, 0.0, SimDuration::ZERO));
        let a = net.register(NodeId(1));
        let _b = net.register(NodeId(2));
        sim.spawn(async move {
            a.send(NodeId(2), 1);
            a.send(NodeId(2), 2);
        });
        sim.run();
        assert_eq!(net.stats().dropped_faults, 2);
        assert_eq!(net.stats().delivered, 0);
    }

    #[test]
    fn duplication_delivers_twice() {
        let (sim, net) = mk(1, NetFaults::lossy(0.0, 1.0, SimDuration::ZERO));
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let count = Rc::new(Cell::new(0));
        let c2 = count.clone();
        sim.spawn(async move {
            a.send(NodeId(2), 9);
        });
        sim.spawn(async move {
            while let Some(_p) = b.recv().await {
                c2.set(c2.get() + 1);
            }
        });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(count.get(), 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn down_node_drops_traffic() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        net.set_node_down(NodeId(2), true);
        sim.spawn(async move {
            a.send(NodeId(2), 1);
        });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(b.pending(), 0);
        assert_eq!(net.stats().dropped_node_down, 1);
    }

    struct CountingSwitch {
        seen: Rc<Cell<u32>>,
    }
    impl SwitchLogic<u32> for CountingSwitch {
        fn process(&mut self, _now: SimTime, pkt: Packet<u32>) -> Fanout<SwitchAction<u32>> {
            self.seen.set(self.seen.get() + 1);
            if pkt.payload == 0 {
                Fanout::one(SwitchAction::Drop)
            } else {
                Fanout::one(SwitchAction::Forward {
                    dst: pkt.dst,
                    payload: pkt.payload * 10,
                })
            }
        }
    }

    #[test]
    fn custom_switch_logic_rewrites_and_drops() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let seen = Rc::new(Cell::new(0));
        net.install_switch(Box::new(CountingSwitch { seen: seen.clone() }));
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let got = Rc::new(RefCell::new(Vec::new()));
        let got2 = got.clone();
        sim.spawn(async move {
            a.send(NodeId(2), 0);
            a.send(NodeId(2), 3);
        });
        sim.spawn(async move {
            let p = b.recv().await.unwrap().payload;
            got2.borrow_mut().push(p);
        });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(seen.get(), 2);
        assert_eq!(*got.borrow(), vec![30]);
        assert_eq!(net.stats().dropped_by_switch, 1);
    }

    #[test]
    fn drain_discards_queued_packets() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        sim.spawn(async move {
            for i in 0..4 {
                a.send(NodeId(2), i);
            }
        });
        sim.run();
        assert_eq!(b.pending(), 4);
        assert_eq!(b.drain(), 4);
        assert_eq!(b.pending(), 0);
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn double_registration_panics() {
        let (_sim, net) = mk(1, NetFaults::reliable());
        let _a = net.register(NodeId(1));
        let _b = net.register(NodeId(1));
    }

    #[test]
    fn partition_drops_cross_group_traffic_and_heals() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let c = net.register(NodeId(3));
        net.set_partition([(NodeId(2), 1)]);
        sim.spawn(async move {
            a.send(NodeId(2), 1); // crosses the partition: dropped
            a.send(NodeId(3), 2); // same group: delivered
        });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(b.pending(), 0);
        assert_eq!(c.pending(), 1);
        assert_eq!(net.stats().dropped_partition, 1);
        net.heal_partition();
        let b2 = Rc::new(Cell::new(0u32));
        let b2c = b2.clone();
        sim.spawn(async move {
            c.send(NodeId(2), 9);
            let p = b.recv().await.unwrap();
            b2c.set(p.payload);
        });
        sim.run_until(SimTime::from_millis(2));
        assert_eq!(b2.get(), 9);
    }

    #[test]
    fn partition_cuts_packets_already_in_flight() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let net2 = net.clone();
        let h = sim.handle();
        sim.spawn(async move {
            a.send(NodeId(2), 5);
            // The partition lands while the packet is still traversing the
            // fabric (one-way trip is 1.5 us).
            h.sleep(SimDuration::nanos(100)).await;
            net2.set_partition([(NodeId(2), 1)]);
        });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(b.pending(), 0);
        assert_eq!(net.stats().dropped_partition, 1);
    }
}
