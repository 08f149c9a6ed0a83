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
use std::collections::VecDeque;
use std::future::poll_fn;
use std::rc::{Rc, Weak};
use std::task::{Poll, Waker};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::executor::SimHandle;
use crate::fxhash::FxHashMap;
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
    /// the `(destination, payload)` pairs to forward: several for a
    /// multicast, none for a drop. The packet is passed by value so the
    /// common unicast can move the payload through the switch instead of
    /// cloning it per hop.
    fn process(&mut self, now: SimTime, pkt: Packet<M>) -> Fanout<(NodeId, M)>;
}

/// A program the network runs while someone else holds it too (the cluster
/// reads its counters and reboots it; a test tap hands packets on to it).
impl<M, T: SwitchLogic<M> + ?Sized> SwitchLogic<M> for Rc<RefCell<T>> {
    fn process(&mut self, now: SimTime, pkt: Packet<M>) -> Fanout<(NodeId, M)> {
        self.borrow_mut().process(now, pkt)
    }
}

/// Plain L2 forwarding: send the packet to its destination unchanged.
#[derive(Debug, Default, Clone, Copy)]
pub struct L2Forward;

impl<M> SwitchLogic<M> for L2Forward {
    fn process(&mut self, _now: SimTime, pkt: Packet<M>) -> Fanout<(NodeId, M)> {
        Fanout::one((pkt.dst, pkt.payload))
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

/// A node's receive queue: the packets delivered to it, in arrival order,
/// and the waker of its task parked in [`Endpoint::recv`].
struct Mailbox<M> {
    queue: VecDeque<Packet<M>>,
    waker: Option<Waker>,
}

struct NetworkInner<M> {
    handle: SimHandle,
    /// Each node's mailbox, owned by its [`Endpoint`]: a packet for an
    /// endpoint that no longer exists is dropped.
    mailboxes: FxHashMap<NodeId, Weak<RefCell<Mailbox<M>>>>,
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
        let mailbox = Rc::new(RefCell::new(Mailbox {
            queue: VecDeque::new(),
            waker: None,
        }));
        let mut inner = self.inner.borrow_mut();
        assert!(
            !inner.mailboxes.contains_key(&node),
            "node {node} registered twice"
        );
        inner.mailboxes.insert(node, Rc::downgrade(&mailbox));
        inner.node_down.insert(node, false);
        Endpoint {
            node,
            network: self.clone(),
            mailbox,
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

    /// Injects a packet into the fabric. Each copy that survives fault
    /// injection (the packet, and a duplicate) is a task of its own that
    /// carries it through the rack. Its future moves into the box a
    /// delivered packet's task left behind, so a packet allocates nothing
    /// once the executor keeps boxes for the traffic.
    pub fn send(&self, pkt: Packet<M>) {
        let mut inner = self.inner.borrow_mut();
        inner.stats.sent += 1;
        if *inner.node_down.get(&pkt.src).unwrap_or(&false) {
            inner.stats.dropped_node_down += 1;
            return;
        }
        let mut copies = Fanout::default();
        if inner.rng.gen::<f64>() < inner.faults.drop_prob {
            inner.stats.dropped_faults += 1;
        } else {
            copies.push(SimDuration::ZERO);
        }
        if inner.faults.duplicate_prob > 0.0 && inner.rng.gen::<f64>() < inner.faults.duplicate_prob
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
        // Move the packet into the last copy; only fault duplication pays
        // for a clone.
        let mut pkt = Some(pkt);
        let last = copies.len().saturating_sub(1);
        for (i, extra_delay) in copies.into_iter().enumerate() {
            let pkt = if i == last {
                pkt.take().expect("one packet per copy")
            } else {
                pkt.clone().expect("one packet per copy")
            };
            let net = Rc::downgrade(&self.inner);
            let handle = inner.handle.clone();
            inner.handle.spawn(deliver(net, handle, pkt, extra_delay));
        }
    }
}

/// Runs one packet copy through the rack: extra delay → uplink → switch →
/// mailbox, with one sleep for the extra delay, one for the uplink and one
/// for the switch's latency and the downlink together, since nothing happens
/// between those two. A zero-length sleep completes at once, without
/// registering a timer. The task holds its network weakly, so a packet in
/// flight does not keep a dropped network alive; it ends at its next stage
/// once the network is gone.
async fn deliver<M>(
    net: Weak<RefCell<NetworkInner<M>>>,
    handle: SimHandle,
    pkt: Packet<M>,
    extra_delay: SimDuration,
) {
    handle.sleep(extra_delay).await;
    let Some(uplink) = with_net(&net, |n| n.params.link_latency) else {
        return;
    };
    handle.sleep(uplink).await;
    let Some((packets, to_mailbox)) = with_net(&net, |n| {
        let to_mailbox = n.params.switch_latency + n.params.link_latency;
        (n.process_at_switch(pkt), to_mailbox)
    }) else {
        return;
    };
    if packets.is_empty() {
        return;
    }
    handle.sleep(to_mailbox).await;
    with_net(&net, |n| n.hand_to_mailboxes(packets));
}

/// Runs `f` on the network `net` refers to, unless it was dropped.
fn with_net<M, R>(
    net: &Weak<RefCell<NetworkInner<M>>>,
    f: impl FnOnce(&mut NetworkInner<M>) -> R,
) -> Option<R> {
    net.upgrade().map(|inner| f(&mut inner.borrow_mut()))
}

impl<M> NetworkInner<M> {
    /// Runs one packet through the switch program and returns the packets
    /// it forwards, in order; forwarding none is a drop.
    fn process_at_switch(&mut self, pkt: Packet<M>) -> Fanout<Packet<M>> {
        let src = pkt.src;
        let forwarded = self.switch.process(self.handle.now(), pkt);
        if forwarded.is_empty() {
            self.stats.dropped_by_switch += 1;
        }
        forwarded.map(|(dst, payload)| Packet { src, dst, payload })
    }

    /// Hands the packets that reached the end of the downlink to their
    /// destinations' mailboxes, unless the destination is down or a
    /// partition now separates it from the source.
    fn hand_to_mailboxes(&mut self, packets: Fanout<Packet<M>>) {
        for p in packets {
            if *self.node_down.get(&p.dst).unwrap_or(&false) {
                self.stats.dropped_node_down += 1;
                continue;
            }
            if let Some(groups) = &self.partition {
                let src_group = groups.get(&p.src).copied().unwrap_or(0);
                let dst_group = groups.get(&p.dst).copied().unwrap_or(0);
                if src_group != dst_group {
                    self.stats.dropped_partition += 1;
                    continue;
                }
            }
            let Some(mailbox) = self.mailboxes.get(&p.dst).and_then(Weak::upgrade) else {
                self.stats.dropped_node_down += 1;
                continue;
            };
            self.stats.delivered += 1;
            let waker = {
                let mut mailbox = mailbox.borrow_mut();
                mailbox.queue.push_back(p);
                mailbox.waker.take()
            };
            if let Some(w) = waker {
                w.wake();
            }
        }
    }
}

/// A node's attachment point to the network.
pub struct Endpoint<M> {
    node: NodeId,
    network: Network<M>,
    mailbox: Rc<RefCell<Mailbox<M>>>,
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

    /// Waits for the next packet addressed to this node. It cannot fail:
    /// the endpoint owns its mailbox, which lives as long as it does.
    pub async fn recv(&self) -> Packet<M> {
        poll_fn(|cx| {
            let mut mailbox = self.mailbox.borrow_mut();
            match mailbox.queue.pop_front() {
                Some(pkt) => Poll::Ready(pkt),
                None => {
                    mailbox.waker = Some(cx.waker().clone());
                    Poll::Pending
                }
            }
        })
        .await
    }

    /// Returns a queued packet if one is available.
    pub fn try_recv(&self) -> Option<Packet<M>> {
        self.mailbox.borrow_mut().queue.pop_front()
    }

    /// Number of packets waiting in the mailbox.
    pub fn pending(&self) -> usize {
        self.mailbox.borrow().queue.len()
    }

    /// Discards every packet currently queued in the mailbox. Used when a
    /// node restarts after a crash: in-flight requests addressed to the old
    /// incarnation are dropped, as they would be by a rebooted DPDK process.
    pub fn drain(&self) -> usize {
        let mut n = 0;
        while self.try_recv().is_some() {
            n += 1;
        }
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{Sim, TASK_BOX_POOL_CAP};
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
            let p = b.recv().await;
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
                let p = b.recv().await.payload;
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
            loop {
                b.recv().await;
                c2.set(c2.get() + 1);
            }
        });
        sim.run_until(SimTime::from_millis(1));
        assert_eq!(count.get(), 2);
        assert_eq!(net.stats().duplicated, 1);
    }

    #[test]
    fn a_packet_for_a_dropped_endpoint_is_dropped_not_delivered() {
        let (sim, net) = mk(1, NetFaults::reliable());
        let a = net.register(NodeId(1));
        drop(net.register(NodeId(2)));
        sim.spawn(async move {
            a.send(NodeId(2), 1);
        });
        sim.run();
        assert_eq!(net.stats().delivered, 0);
        assert_eq!(net.stats().dropped_node_down, 1);
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
        fn process(&mut self, _now: SimTime, pkt: Packet<u32>) -> Fanout<(NodeId, u32)> {
            self.seen.set(self.seen.get() + 1);
            if pkt.payload == 0 {
                Fanout::default()
            } else {
                Fanout::one((pkt.dst, pkt.payload * 10))
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
            let p = b.recv().await.payload;
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
            let p = b.recv().await;
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

    /// Logs when the switch sees a packet.
    struct LoggingSwitch {
        log: Rc<RefCell<Vec<(&'static str, usize)>>>,
    }
    impl SwitchLogic<u32> for LoggingSwitch {
        fn process(&mut self, now: SimTime, pkt: Packet<u32>) -> Fanout<(NodeId, u32)> {
            self.log.borrow_mut().push(("switch", 0));
            L2Forward.process(now, pkt)
        }
    }

    /// Sends one packet from node 1 to node 2 (from outside the run when
    /// `packet_first`, so its first poll comes before every other task's;
    /// else from a task spawned last) next to three sleepers: one until the
    /// packet's uplink timer (registered at 0), one until its downlink timer
    /// registered at 0, and one until the same deadline registered at 1 µs,
    /// after the packet's. Returns the order in which the switch and the
    /// sleepers woke, each sleeper with the number of packets then in node
    /// 2's mailbox.
    fn wake_order(packet_first: bool) -> Vec<(&'static str, usize)> {
        let (sim, net) = mk(1, NetFaults::reliable());
        let log = Rc::new(RefCell::new(Vec::new()));
        net.install_switch(Box::new(LoggingSwitch { log: log.clone() }));
        let a = net.register(NodeId(1));
        let b = Rc::new(net.register(NodeId(2)));
        if packet_first {
            a.send(NodeId(2), 1);
        }
        let sleepers = [
            ("uplink", 0, 550),
            ("downlink, early", 0, 1_500),
            ("downlink, late", 1_000, 1_500),
        ];
        for (name, from, until) in sleepers {
            let (h, log, b) = (sim.handle(), log.clone(), b.clone());
            sim.spawn(async move {
                h.sleep_until(SimTime::from_nanos(from)).await;
                h.sleep_until(SimTime::from_nanos(until)).await;
                log.borrow_mut().push((name, b.pending()));
            });
        }
        if !packet_first {
            sim.spawn(async move { a.send(NodeId(2), 1) });
        }
        sim.run();
        assert_eq!(b.pending(), 1);
        let order = log.borrow().clone();
        order
    }

    #[test]
    fn a_packets_timers_and_a_tasks_sleep_at_one_deadline_wake_in_registration_order() {
        // The timer registered first wakes first, whether a packet's or a
        // task's: the packet's uplink timer before the uplink sleeper's when
        // it was polled first, after it when sent by a later task; its
        // downlink timer (registered at 950 ns) always between the sleeper
        // registered at 0 and the one registered at 1 µs.
        assert_eq!(
            wake_order(true),
            [
                ("switch", 0),
                ("uplink", 0),
                ("downlink, early", 0),
                ("downlink, late", 1)
            ]
        );
        assert_eq!(
            wake_order(false),
            [
                ("uplink", 0),
                ("switch", 0),
                ("downlink, early", 0),
                ("downlink, late", 1)
            ]
        );
    }

    #[test]
    fn with_zero_latencies_a_packet_is_delivered_at_the_send_instant() {
        let sim = Sim::new(1);
        let zero = LinkParams {
            link_latency: SimDuration::ZERO,
            switch_latency: SimDuration::ZERO,
        };
        let net = Network::new(sim.handle(), zero, NetFaults::reliable(), 1);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let got = Rc::new(Cell::new(None));
        let (h, got2) = (sim.handle(), got.clone());
        sim.spawn(async move {
            h.sleep(SimDuration::micros(5)).await;
            a.send(NodeId(2), 4);
            let p = b.recv().await;
            got2.set(Some((p.payload, h.now())));
        });
        let stats = sim.run();
        assert_eq!(got.get(), Some((4, SimTime::from_micros(5))));
        assert_eq!(stats.end_time, SimTime::from_micros(5));
    }

    #[test]
    fn duplicated_and_reordered_packets_each_arrive_as_often_as_the_stats_say() {
        const N: u32 = 1_000;
        let faults = NetFaults::lossy(0.0, 0.3, SimDuration::micros(2));
        let (sim, net) = mk(7, faults);
        let a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let h = sim.handle();
        sim.spawn(async move {
            for i in 0..N {
                a.send(NodeId(2), i);
                h.sleep(SimDuration::nanos(250)).await;
            }
        });
        let arrivals = Rc::new(RefCell::new(vec![0u32; N as usize]));
        let arr = arrivals.clone();
        sim.spawn(async move {
            loop {
                let p = b.recv().await;
                arr.borrow_mut()[p.payload as usize] += 1;
            }
        });
        sim.run();
        let stats = net.stats();
        let arrivals = arrivals.borrow();
        assert_eq!(stats.sent, u64::from(N));
        assert!(stats.duplicated > 0, "no packet was duplicated");
        assert_eq!(stats.delivered, u64::from(N) + stats.duplicated);
        assert_eq!(
            arrivals.iter().map(|&n| u64::from(n)).sum::<u64>(),
            stats.delivered
        );
        assert!(arrivals.iter().all(|&n| n == 1 || n == 2));
        let twice = arrivals.iter().filter(|&&n| n == 2).count() as u64;
        assert_eq!(twice, stats.duplicated);
        // Packets in flight reused the boxes of delivered ones, and the
        // executor keeps no more of them than its cap.
        let probe = deliver(
            Weak::new(),
            sim.handle(),
            Packet {
                src: NodeId(1),
                dst: NodeId(2),
                payload: 0u32,
            },
            SimDuration::ZERO,
        );
        assert_eq!(sim.handle().pooled_boxes(&probe), TASK_BOX_POOL_CAP);
    }

    #[test]
    fn dropping_the_sim_and_network_mid_flight_frees_the_packets() {
        let sim = Sim::new(1);
        let net: Network<Rc<u32>> = Network::new(
            sim.handle(),
            LinkParams::default(),
            NetFaults::reliable(),
            1,
        );
        let _a = net.register(NodeId(1));
        let b = net.register(NodeId(2));
        let payload = Rc::new(9);
        let send = |payload: &Rc<u32>| {
            net.send(Packet {
                src: NodeId(1),
                dst: NodeId(2),
                payload: payload.clone(),
            })
        };
        // At 1.1 µs one packet is on each stage: on the downlink (sent at
        // 0), in the switch (at 600 ns), on the uplink (at 1 µs), and
        // not yet polled (sent after the run stopped).
        for at in [0, 600, 1_000] {
            let (h, net, payload) = (sim.handle(), net.clone(), payload.clone());
            sim.spawn(async move {
                h.sleep_until(SimTime::from_nanos(at)).await;
                net.send(Packet {
                    src: NodeId(1),
                    dst: NodeId(2),
                    payload,
                });
            });
        }
        sim.run_until(SimTime::from_nanos(1_100));
        send(&payload);
        assert_eq!(b.pending(), 0);
        assert_eq!(Rc::strong_count(&payload), 5);
        drop((sim, net, _a, b));
        assert_eq!(Rc::strong_count(&payload), 1);
    }
}
