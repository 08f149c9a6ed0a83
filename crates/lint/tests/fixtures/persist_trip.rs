// Must TRIP persist-ordering: ordering-critical appends that escape onto
// the network unflushed (or are never flushed at all).

impl Server {
    fn send_before_flush(&self, txn_id: u64, commit: bool) {
        let marker = TxnMarker::Decided { txn_id, commit };
        let lsn = self.wal_hand_over(WalOp::Txn(marker));
        self.net.send(self.coordinator, decision_msg(txn_id, commit));
        self.wal_flush_and_apply(lsn);
    }

    fn never_flushed(&self, shard: u32, target: ServerId) {
        let marker = MigrationMarker::Started { shard, target };
        self.wal_hand_over(WalOp::Migration(marker));
        self.net.send(self.cfg.node_of(target), freeze_msg(shard));
    }

    async fn handed_over_and_left_there(&self, src: NodeId, req_id: u64, response: ClientResponse) {
        self.wal_hand_over(WalOp::Completed(response));
        self.cpu.run(self.wal_append_cost()).await;
        self.send_reply(src, req_id, Reply::Done(Ok(())));
    }
}
