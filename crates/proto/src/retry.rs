//! Retransmission policies (§5.4.1), shared by the clients and the servers.

/// A retransmission policy, in units of the sender's request timeout: the
/// wait for an answer to copy `n` (0 = the first) is `min(first << n, cap)`,
/// or `min(first + n, cap)` for a linear policy, and the exchange gives up
/// after `sends` copies. Receivers suppress duplicates, so pacing copies only
/// sheds packets. The whole bound is [`Retry::budget`], stated once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Retry {
    first: u64,
    cap: u64,
    /// How many copies the exchange sends before it gives up.
    pub sends: u32,
    linear: bool,
}

impl Retry {
    /// A client request to its server.
    pub const REQUEST: Retry = Retry::doubling(1, 16, 11);
    /// Most requests a server asks another, the asynchronous commit, a
    /// push's re-send pace.
    pub const ACK: Retry = Retry::doubling(1, 16, 9);
    /// A rename's commit or abort, to one participant.
    pub const DECISION: Retry = Retry::doubling(4, 4, 9);
    /// A rename's prepare: one copy; no vote is an abort.
    pub const VOTE: Retry = Retry::doubling(4, 4, 1);
    /// An aggregation round's request to every other server.
    pub const COLLECT: Retry = Retry {
        linear: true,
        ..Retry::doubling(2, 10, 9)
    };

    const fn doubling(first: u64, cap: u64, sends: u32) -> Retry {
        Retry {
            first,
            cap,
            sends,
            linear: false,
        }
    }

    /// The wait for an answer to copy `n`.
    pub fn wait(self, n: u32) -> u64 {
        let grown = match self.linear {
            true => self.first + u64::from(n),
            false => self.first.saturating_mul(1 << n.min(63)),
        };
        grown.min(self.cap)
    }

    /// The time from the first copy until the exchange gives up.
    pub fn budget(self) -> u64 {
        (0..self.sends).map(|n| self.wait(n)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_policy_states_its_waits_and_budget_once() {
        // In request timeouts; the server's cost model checks the servers'
        // budgets in time.
        let waits = |r: Retry| (0..r.sends).map(|n| r.wait(n)).collect::<Vec<_>>();
        assert_eq!(
            waits(Retry::REQUEST),
            [1, 2, 4, 8, 16, 16, 16, 16, 16, 16, 16]
        );
        assert_eq!(Retry::REQUEST.budget(), 127);
        assert_eq!(waits(Retry::ACK), [1, 2, 4, 8, 16, 16, 16, 16, 16]);
        assert_eq!(Retry::ACK.budget(), 95);
        assert_eq!(waits(Retry::DECISION), [4; 9]);
        assert_eq!(Retry::DECISION.budget(), 36);
        assert_eq!(waits(Retry::VOTE), [4]);
        assert_eq!(Retry::VOTE.budget(), 4);
        assert_eq!(waits(Retry::COLLECT), [2, 3, 4, 5, 6, 7, 8, 9, 10]);
        assert_eq!(Retry::COLLECT.budget(), 54);
    }
}
