// Must PASS persist-ordering: the flush barrier runs before anything
// escapes onto the network, and non-critical appends are exempt.

impl Server {
    fn flush_then_send(&self, txn_id: u64, commit: bool) {
        let marker = TxnMarker::Decided { txn_id, commit };
        self.durable.borrow_mut().wal.append(WalOp::txn(marker));
        self.durable.borrow_mut().wal.flush();
        self.net.send(self.coordinator, decision_msg(txn_id, commit));
    }

    async fn both_logging_halves_then_send(&self, src: NodeId, req_id: u64, txn_id: u64) {
        let lsn = self.wal_hand_over(WalOp::txn(TxnMarker::Resolved { txn_id }));
        self.cpu.run(self.wal_append_cost()).await;
        self.wal_flush_and_apply(lsn);
        self.send_reply(src, req_id, Reply::Done(Ok(())));
    }

    fn plain_append_may_defer_flush(&self, record: WalOp) {
        // No ordering-critical marker in this body: batching the flush is
        // allowed for plain operation records.
        self.durable.borrow_mut().wal.append(record);
        self.net.send(self.peer, ack_msg());
    }
}
