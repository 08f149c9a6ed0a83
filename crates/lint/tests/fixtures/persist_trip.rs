// Must TRIP persist-ordering: ordering-critical appends that escape onto
// the network unflushed (or are never flushed at all).

impl Server {
    fn send_before_flush(&self, txn_id: u64, commit: bool) {
        let marker = TxnMarker::Decided { txn_id, commit };
        self.durable.borrow_mut().wal.append(WalOp::txn(marker));
        self.net.send(self.coordinator, decision_msg(txn_id, commit));
        self.durable.borrow_mut().wal.flush();
    }

    fn never_flushed(&self, shard: u32, target: ServerId) {
        let marker = MigrationMarker::Started { shard, target };
        self.durable.borrow_mut().wal.append(WalOp::migration(marker));
        self.net.send(self.cfg.node_of(target), freeze_msg(shard));
    }

    async fn handed_over_and_left_there(&self, src: NodeId, req_id: u64, txn_id: u64) {
        let marker = TxnMarker::Resolved { txn_id };
        self.wal_hand_over(WalOp::txn(marker));
        self.cpu.run(self.wal_append_cost()).await;
        self.send_reply(src, req_id, Reply::Done(Ok(())));
    }
}
