//! Adapter plugging the SwitchFS data-plane program into the simulated
//! network fabric.

use std::cell::RefCell;
use std::rc::Rc;

use switchfs_proto::message::NetMsg;
use switchfs_simnet::{Fanout, NodeId, Packet, SimTime, SwitchAction, SwitchLogic};
use switchfs_switch::SwitchFsProgram;

/// Wraps a shared [`SwitchFsProgram`] as the logic of a simulated switch.
///
/// The program itself is kept behind `Rc<RefCell<…>>` so that the cluster
/// harness can inspect its counters, force overflow (§7.3.2) or reboot it
/// (§5.4.2) while the network keeps forwarding through it.
pub struct SwitchAdapter {
    program: Rc<RefCell<SwitchFsProgram>>,
}

impl SwitchAdapter {
    /// Creates an adapter around a shared program instance.
    pub fn new(program: Rc<RefCell<SwitchFsProgram>>) -> Self {
        SwitchAdapter { program }
    }
}

impl SwitchLogic<NetMsg> for SwitchAdapter {
    fn process(&mut self, _now: SimTime, pkt: Packet<NetMsg>) -> Fanout<SwitchAction<NetMsg>> {
        self.program
            .borrow_mut()
            .process(pkt.src.0, pkt.dst.0, pkt.payload)
            .map(|(dst, payload)| SwitchAction::Forward {
                dst: NodeId(dst),
                payload,
            })
    }

    fn name(&self) -> &str {
        "switchfs-data-plane"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use switchfs_proto::message::{Body, PacketSeq};
    use switchfs_proto::{DirId, DirtySetHeader, Fingerprint};
    use switchfs_switch::{DirtySetConfig, SwitchConfig};

    #[test]
    fn adapter_translates_multicast_to_forward_actions() {
        let program = Rc::new(RefCell::new(SwitchFsProgram::new(SwitchConfig {
            server_nodes: vec![10, 11],
            dirty_set: DirtySetConfig::tiny(4, 8),
            force_insert_overflow: false,
        })));
        let mut adapter = SwitchAdapter::new(program.clone());
        let fp = Fingerprint::of_dir(&DirId::ROOT, "d");
        let pkt = Packet {
            src: NodeId(10),
            dst: NodeId(1000),
            payload: NetMsg::with_dirty(
                PacketSeq { sender: 10, seq: 1 },
                DirtySetHeader::insert(fp, 11),
                Body::Empty,
            ),
        };
        let actions = adapter.process(SimTime::ZERO, pkt);
        // Successful insert multicasts to the client (original dst) and back
        // to the origin server.
        assert_eq!(actions.len(), 2);
        assert!(program.borrow().contains(fp));
        assert_eq!(adapter.name(), "switchfs-data-plane");
    }
}
