// Must PASS persist-ordering: the flush barrier runs before anything
// escapes onto the network, and non-critical appends are exempt.

impl Server {
    fn flush_then_send(&self, response: ClientResponse) {
        let lsn = self.wal_hand_over(WalOp::Completed(response.clone()));
        self.wal_flush_and_apply(lsn);
        self.net.send(self.client, Body::Response(response));
    }

    async fn both_logging_halves_then_send(&self, src: NodeId, req_id: u64, txn_id: u64) {
        let lsn = self.wal_hand_over(WalOp::Txn(TxnMarker::Resolved { txn_id }));
        self.cpu.run(self.wal_append_cost()).await;
        self.wal_flush_and_apply(lsn);
        self.send_reply(src, req_id, Reply::Done(Ok(())));
    }

    fn plain_append_may_defer_flush(&self, record: WalOp) {
        // No ordering-critical marker in this body: batching the flush is
        // allowed for plain operation records.
        self.wal_hand_over(record);
        self.net.send(self.peer, ack_msg());
    }
}
