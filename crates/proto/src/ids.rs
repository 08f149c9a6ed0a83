//! Identifiers: directory ids, directory fingerprints, node roles.

use serde::{Deserialize, Serialize};
use std::fmt;

/// A 256-bit directory identifier, assigned at directory creation (§4.3).
///
/// Stored as four little-endian 64-bit limbs. Identifiers are generated from
/// a per-server counter mixed with the creating server id, which keeps them
/// unique without coordination.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DirId(pub [u64; 4]);

impl DirId {
    /// The identifier of the filesystem root directory `/`.
    pub const ROOT: DirId = DirId([0, 0, 0, 0]);

    /// Builds a fresh directory id from a creating server and a per-server
    /// counter. The remaining limbs hold a mixed value so that ids are well
    /// distributed when hashed.
    pub fn generate(server: ServerId, counter: u64) -> DirId {
        let a = ((server.0 as u64) << 32) | (counter & 0xffff_ffff);
        let b = counter;
        let c = splitmix64(a ^ 0x9e37_79b9_7f4a_7c15);
        let d = splitmix64(b.wrapping_add(0x2545_f491_4f6c_dd1d));
        DirId([a, b, c, d])
    }

    /// A stable 64-bit hash of the identifier, used for placement decisions.
    pub fn hash64(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for limb in self.0 {
            h = fnv1a_step(h, limb);
        }
        h
    }
}

impl fmt::Display for DirId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:016x}{:016x}{:016x}{:016x}",
            self.0[3], self.0[2], self.0[1], self.0[0]
        )
    }
}

/// A 49-bit directory fingerprint (§4.3).
///
/// The fingerprint is the hash of `(pid, directory name)` truncated to
/// 49 bits so it fits the switch register layout: the upper 17 bits are the
/// set index into the dirty set and the remaining 32 bits are the tag.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct Fingerprint(u64);

impl Fingerprint {
    /// Number of significant bits in a fingerprint.
    pub const BITS: u32 = 49;
    /// Bits used for the set index (the paper's switch allocates 2^17 sets).
    pub const INDEX_BITS: u32 = 17;
    /// Bits used for the in-set tag.
    pub const TAG_BITS: u32 = 32;
    /// Mask selecting the 49 significant bits.
    pub const MASK: u64 = (1 << Self::BITS) - 1;

    /// Creates a fingerprint from a raw value (truncated to 49 bits).
    pub fn from_raw(v: u64) -> Fingerprint {
        Fingerprint(v & Self::MASK)
    }

    /// Computes the fingerprint of a directory identified by its parent id
    /// and name, as the switch-visible identity of the directory.
    pub fn of_dir(pid: &DirId, name: &str) -> Fingerprint {
        let mut h = pid.hash64();
        for b in name.as_bytes() {
            h = fnv1a_step(h, *b as u64);
        }
        // Mix once more so that truncation keeps good dispersion.
        Fingerprint(splitmix64(h) & Self::MASK)
    }

    /// The raw 49-bit value.
    pub fn raw(&self) -> u64 {
        self.0
    }

    /// A stable 64-bit hash of the fingerprint, used for placement decisions:
    /// every directory of a fingerprint group hashes alike (§4.3).
    pub fn hash64(&self) -> u64 {
        splitmix64(self.0)
    }

    /// The 17-bit set index (upper bits).
    pub fn index(&self) -> u32 {
        (self.0 >> Self::TAG_BITS) as u32
    }

    /// The 32-bit tag (lower bits).
    ///
    /// A tag of zero is reserved to mean "empty register" in the switch, so
    /// the tag is offset by one when it would otherwise be zero; this loses
    /// no information because the index still distinguishes directories.
    pub fn tag(&self) -> u32 {
        let t = (self.0 & 0xffff_ffff) as u32;
        if t == 0 {
            1
        } else {
            t
        }
    }

    /// The prefix used to shard fingerprints across egress pipes (§6.2): the
    /// top `bits` bits of the index.
    pub fn prefix(&self, bits: u32) -> u32 {
        if bits == 0 {
            0
        } else {
            self.index() >> (Self::INDEX_BITS - bits.min(Self::INDEX_BITS))
        }
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{:013x}", self.0)
    }
}

/// Identifier of a metadata server.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ServerId(pub u32);

impl ServerId {
    /// The raw network node hosting this server. A deployment's layout is
    /// that server `i` sits on node `i`, below every other node; this is
    /// the one place that rule is written down.
    pub const fn node(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ServerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ms{}", self.0)
    }
}

/// Identifier of a client (an instance of LibFS).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct ClientId(pub u32);

impl fmt::Display for ClientId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "client{}", self.0)
    }
}

/// Identifier of a single metadata operation issued by a client; unique per
/// client and used to match responses and suppress duplicates.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct OpId {
    /// Issuing client.
    pub client: ClientId,
    /// Per-client sequence number.
    pub seq: u64,
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op[{}:{}]", self.client.0, self.seq)
    }
}

/// Identifier of a causal trace: one per client operation, stamped on every
/// packet the operation (or its asynchronous continuations) puts on the wire.
///
/// A trace id is a *pure function* of the operation id, so any node holding
/// an [`OpId`] — the client that issued it, the owner that logged it, the
/// remote server applying its change-log entry during aggregation — derives
/// the same trace id locally without threading extra context through the
/// protocol. Zero is reserved as "no trace" on the wire.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize, Default,
)]
pub struct TraceId(u64);

impl TraceId {
    /// Derives the trace id of an operation. Deterministic: every node
    /// computes the same id from the same [`OpId`].
    pub fn of_op(op: OpId) -> TraceId {
        let mixed = splitmix64(((op.client.0 as u64) << 48) ^ op.seq.wrapping_mul(0x9e37));
        // Zero means "untraced" on the wire; nudge the (astronomically
        // unlikely) collision off it.
        TraceId(if mixed == 0 { 1 } else { mixed })
    }

    /// Reconstructs a trace id from its raw wire value. Zero maps to `None`
    /// ("untraced frame").
    pub fn from_raw(v: u64) -> Option<TraceId> {
        if v == 0 {
            None
        } else {
            Some(TraceId(v))
        }
    }

    /// The raw 64-bit value (never zero).
    pub fn raw(&self) -> u64 {
        self.0
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace:{:016x}", self.0)
    }
}

/// One step of the splitmix64 mixing function.
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One FNV-1a step folding a 64-bit value into the hash.
pub fn fnv1a_step(mut h: u64, v: u64) -> u64 {
    for i in 0..8 {
        h ^= (v >> (i * 8)) & 0xff;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn dir_ids_are_unique_per_server_counter() {
        let mut seen = BTreeSet::new();
        for s in 0..4 {
            for c in 0..1000 {
                assert!(seen.insert(DirId::generate(ServerId(s), c)));
            }
        }
    }

    #[test]
    fn fingerprint_fits_49_bits() {
        for i in 0..1000u64 {
            let fp = Fingerprint::of_dir(&DirId::generate(ServerId(1), i), "dir");
            assert!(fp.raw() <= Fingerprint::MASK);
            assert!(fp.index() < (1 << Fingerprint::INDEX_BITS));
            assert_ne!(fp.tag(), 0, "tag zero is reserved for empty registers");
        }
    }

    #[test]
    fn fingerprint_is_deterministic_and_name_sensitive() {
        let pid = DirId::generate(ServerId(0), 7);
        assert_eq!(
            Fingerprint::of_dir(&pid, "alpha"),
            Fingerprint::of_dir(&pid, "alpha")
        );
        assert_ne!(
            Fingerprint::of_dir(&pid, "alpha"),
            Fingerprint::of_dir(&pid, "beta")
        );
    }

    #[test]
    fn fingerprint_dispersion_is_reasonable() {
        // 10k directories under the same parent should spread over many
        // dirty-set indexes (load balance across sets, §6.3).
        let pid = DirId::ROOT;
        let mut indexes = BTreeSet::new();
        for i in 0..10_000 {
            indexes.insert(Fingerprint::of_dir(&pid, &format!("d{i}")).index());
        }
        assert!(
            indexes.len() > 9_000,
            "got {} distinct indexes",
            indexes.len()
        );
    }

    #[test]
    fn prefix_extraction() {
        let fp = Fingerprint::from_raw(0x1_ffff_ffff_ffff);
        assert_eq!(fp.prefix(0), 0);
        assert_eq!(fp.prefix(1), fp.index() >> 16);
        assert_eq!(fp.prefix(17), fp.index());
        // Requesting more bits than exist saturates at the index width.
        assert_eq!(fp.prefix(32), fp.index());
    }

    #[test]
    fn trace_ids_are_deterministic_and_distinct() {
        let a = OpId {
            client: ClientId(1),
            seq: 9,
        };
        let b = OpId {
            client: ClientId(2),
            seq: 9,
        };
        assert_eq!(TraceId::of_op(a), TraceId::of_op(a));
        assert_ne!(TraceId::of_op(a), TraceId::of_op(b));
        let mut seen = BTreeSet::new();
        for c in 0..8u32 {
            for s in 0..1000u64 {
                let t = TraceId::of_op(OpId {
                    client: ClientId(c),
                    seq: s,
                });
                assert_ne!(t.raw(), 0, "zero is reserved for untraced frames");
                assert!(seen.insert(t));
            }
        }
    }

    #[test]
    fn trace_id_raw_roundtrip_and_zero_is_none() {
        let t = TraceId::of_op(OpId {
            client: ClientId(3),
            seq: 14,
        });
        assert_eq!(TraceId::from_raw(t.raw()), Some(t));
        assert_eq!(TraceId::from_raw(0), None);
        assert!(format!("{t}").starts_with("trace:"));
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", ServerId(3)), "ms3");
        assert_eq!(format!("{}", ClientId(2)), "client2");
        let op = OpId {
            client: ClientId(1),
            seq: 9,
        };
        assert_eq!(format!("{op}"), "op[1:9]");
        assert_eq!(format!("{}", DirId::ROOT).len(), 64);
    }
}
