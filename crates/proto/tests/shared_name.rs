//! The shared [`Name`] is the `String` it replaced, to everything that sees
//! it: the std and Fx hashers (hash-map iteration order), `Ord` (every
//! name-ordered map and listing), [`MetaKey::hash64`] and
//! [`Fingerprint::of_dir`] (placement and the switch's dirty set), and the
//! wire codec. If any of these differed, sharing names would move a
//! simulated result instead of only saving allocations.

use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::rc::Rc;

use proptest::prelude::*;

use switchfs_proto::ids::{fnv1a_step, splitmix64};
use switchfs_proto::message::{Body, MetaOp, NetMsg, OpResult, PacketSeq};
use switchfs_proto::wire::{decode_net_msg, encode_net_msg};
use switchfs_proto::{
    ClientId, ClientRequest, ClientResponse, DirEntry, DirId, FileType, Fingerprint, InodeAttrs,
    MetaKey, Name, OpId, ServerId,
};
use switchfs_simnet::fxhash::FxHasher;

fn hash_with<H: std::hash::Hasher + Default>(value: &impl Hash) -> u64 {
    BuildHasherDefault::<H>::default().hash_one(value)
}

fn arb_dir_id() -> impl Strategy<Value = DirId> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>())
        .prop_map(|(a, b, c, d)| DirId([a, b, c, d]))
}

/// `MetaKey::hash64` as it was defined over a `String` name.
fn string_hash64(pid: &DirId, name: &String) -> u64 {
    let h = name
        .as_bytes()
        .iter()
        .fold(pid.hash64(), |h, b| fnv1a_step(h, *b as u64));
    splitmix64(h)
}

proptest! {
    #[test]
    fn a_name_hashes_and_orders_as_its_string(
        a in any::<String>(),
        b in any::<String>(),
        pid in arb_dir_id(),
    ) {
        let (name_a, name_b) = (Name::from(a.as_str()), Name::from(b.clone()));
        prop_assert_eq!(hash_with::<FxHasher>(&name_a), hash_with::<FxHasher>(&a));
        prop_assert_eq!(hash_with::<DefaultHasher>(&name_a), hash_with::<DefaultHasher>(&a));
        prop_assert_eq!(name_a.cmp(&name_b), a.cmp(&b));
        prop_assert_eq!(name_a == name_b, a == b);
        // A key hashes as the `(pid, String)` pair its derive walks.
        let key = MetaKey::new(pid, name_a.clone());
        prop_assert_eq!(hash_with::<FxHasher>(&key), hash_with::<FxHasher>(&(pid, &a)));
        prop_assert_eq!(key.hash64(), string_hash64(&pid, &a));
        prop_assert_eq!(Fingerprint::of_dir(&pid, &name_a), Fingerprint::of_dir(&pid, &a));
    }

    #[test]
    fn a_name_survives_the_wire_codec(name in any::<String>(), pid in arb_dir_id()) {
        let op_id = OpId { client: ClientId(1), seq: 7 };
        let key = MetaKey::new(pid, name.as_str());
        let entry = DirEntry { name: key.name.clone(), file_type: FileType::File, mode: 0o644 };
        let attrs = InodeAttrs::new_dir(pid, 0, Default::default());
        let bodies = [
            Body::Request(Rc::new(ClientRequest {
                op_id,
                op: MetaOp::Create { key: key.clone(), perm: Default::default() },
                ancestors: vec![pid],
                parent: None,
                epoch: 0,
                acked_below: 0,
            })),
            Body::Response(ClientResponse {
                op_id,
                result: OpResult::Listing { attrs, entries: Rc::new(vec![entry]) },
                server: ServerId(0),
            }),
        ];
        for body in bodies {
            let msg = NetMsg::plain(PacketSeq { sender: 1, seq: 1 }, body);
            let back = decode_net_msg(&encode_net_msg(&msg)).expect("round trip");
            prop_assert_eq!(&back, &msg);
            let name_back = match &back.body {
                Body::Request(req) => req.op.primary_key().name.clone(),
                Body::Response(resp) => match &resp.result {
                    OpResult::Listing { entries, .. } => entries[0].name.clone(),
                    other => panic!("decoded {other:?}"),
                },
                other => panic!("decoded {other:?}"),
            };
            prop_assert_eq!(name_back.as_str(), name.as_str());
            prop_assert_eq!(hash_with::<FxHasher>(&name_back), hash_with::<FxHasher>(&name));
        }
    }
}
