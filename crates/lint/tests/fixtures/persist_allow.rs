// The persist-ordering finding is suppressed with a justified allow.

impl Server {
    fn deliberate_early_send(&self, txn_id: u64, commit: bool) {
        let marker = TxnMarker::Decided { txn_id, commit };
        let lsn = self.wal_hand_over(WalOp::Txn(marker));
        // switchfs-lint: allow(persist-ordering) advisory hint only; the real decision is resent after the flush barrier
        self.net.send(self.coordinator, hint_msg(txn_id));
        self.wal_flush_and_apply(lsn);
    }
}
