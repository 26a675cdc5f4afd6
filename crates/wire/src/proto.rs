//! [`Encode`]/[`Decode`] implementations for every protocol message that
//! crosses a node boundary: the Chord DHT messages, the KTS timestamping
//! messages, and the P2P-Log record.
//!
//! **To add a message, append a row** to its enum's [`codec_table!`]
//! below: the next unused tag, the variant, its fields in wire order and
//! its class label. The row generates the encoder, the exact size, the
//! decoder, the class label and the tag list together; then regenerate
//! `TAGS.lock` with `cargo run -p detlint -- --write-tags`. A field added
//! to a variant that already shipped goes last, marked `#[trailing]`, so
//! older encodings still decode.
//!
//! Layout conventions:
//!
//! * enum variants are a one-byte tag followed by their fields in row
//!   order;
//! * ring identifiers ([`Id`]) are fixed 8-byte little-endian (uniformly
//!   distributed values — a varint would cost more);
//! * handles, timestamps and counts are canonical varints;
//! * names are length-prefixed UTF-8, payloads length-prefixed bytes.
//!
//! Tags are part of the wire contract: **append rows, never renumber**.
//! The `frozen_encodings` test pins representative byte strings.
//!
//! [`codec_table!`]: crate::codec_table

use bytes::Bytes;
use chord::{ChordMsg, DocName, Id, NodeRef, OpId, PutMode};
use kts::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
use p2plog::LogRecord;
use simnet::NodeId;

use crate::codec::{Decode, Encode, Reader, WireError};

impl Encode for Id {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.0.to_le_bytes());
    }
    fn encoded_len(&self) -> usize {
        8
    }
}

impl Decode for Id {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(Id(r.read_u64_le()?))
    }
}

impl Encode for NodeId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for NodeId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeId(u32::decode(r)?))
    }
}

impl Encode for OpId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for OpId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(OpId(u64::decode(r)?))
    }
}

impl Encode for ReqId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len()
    }
}

impl Decode for ReqId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(ReqId(u64::decode(r)?))
    }
}

impl Encode for NodeRef {
    fn encode(&self, out: &mut Vec<u8>) {
        self.addr.encode(out);
        self.id.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.addr.encoded_len() + self.id.encoded_len()
    }
}

impl Decode for NodeRef {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(NodeRef {
            addr: NodeId::decode(r)?,
            id: Id::decode(r)?,
        })
    }
}

impl Encode for DocName {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Decode for DocName {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(DocName::new(r.read_str()?))
    }
}

impl Encode for HandoffEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        self.key.encode(out);
        self.key_name.encode(out);
        self.last_ts.encode(out);
        self.epoch.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.key.encoded_len()
            + self.key_name.encoded_len()
            + self.last_ts.encoded_len()
            + self.epoch.encoded_len()
    }
}

impl Decode for HandoffEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(HandoffEntry {
            key: Id::decode(r)?,
            key_name: DocName::decode(r)?,
            last_ts: u64::decode(r)?,
            epoch: u64::decode(r)?,
        })
    }
}

impl Encode for LogRecord {
    fn encode(&self, out: &mut Vec<u8>) {
        self.doc.encode(out);
        self.ts.encode(out);
        self.author.encode(out);
        self.patch.encode(out);
        // Optional trailing field: legacy (epoch-0) records keep their
        // exact pre-fencing byte layout.
        if self.epoch > 0 {
            self.epoch.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        self.doc.encoded_len()
            + self.ts.encoded_len()
            + self.author.encoded_len()
            + self.patch.encoded_len()
            + if self.epoch > 0 {
                self.epoch.encoded_len()
            } else {
                0
            }
    }
}

impl Decode for LogRecord {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LogRecord {
            doc: String::decode(r)?,
            ts: u64::decode(r)?,
            author: u64::decode(r)?,
            patch: Bytes::decode(r)?,
            epoch: if r.remaining() == 0 {
                0
            } else {
                u64::decode(r)?
            },
        })
    }
}

crate::codec_table! {
    PutMode;
    0 => Overwrite,
    1 => FirstWriter,
    2 => Ranked,
}

crate::codec_table! {
    ValidateFailure;
    0 => LogUnreachable,
    1 => Overloaded,
    2 => AheadOfLog,
}

crate::codec_table! {
    ChordMsg,
    /// Stable class label of a Chord message for wire accounting (one per
    /// variant; free function — `ChordMsg` is foreign to this crate).
    pub fn chord_class;
    0 => FindSuccessor { op: OpId, target: Id, origin: NodeRef, hops: u32 }
        => "chord.find_successor",
    1 => FoundSuccessor { op: OpId, owner: NodeRef, hops: u32 } => "chord.found_successor",
    2 => GetPredecessor { op: OpId } => "chord.get_predecessor",
    3 => PredecessorIs { op: OpId, pred: Option<NodeRef>, succ_list: Vec<NodeRef> }
        => "chord.predecessor_is",
    4 => Notify { candidate: NodeRef } => "chord.notify",
    5 => Ping { op: OpId } => "chord.ping",
    6 => Pong { op: OpId } => "chord.pong",
    7 => Put { op: OpId, key: Id, value: Bytes, mode: PutMode, origin: NodeRef } => "chord.put",
    8 => PutAck { op: OpId, ok: bool, existing: Option<Bytes> } => "chord.put_ack",
    9 => Get { op: OpId, key: Id, origin: NodeRef } => "chord.get",
    10 => GetReply { op: OpId, value: Option<Bytes>, authoritative: bool } => "chord.get_reply",
    11 => Replicate { items: Vec<(Id, Bytes)> } => "chord.replicate",
    12 => TransferKeys { items: Vec<(Id, Bytes)> } => "chord.transfer_keys",
    13 => LeaveToSucc { pred_of_leaver: Option<NodeRef>, items: Vec<(Id, Bytes)> }
        => "chord.leave_to_succ",
    14 => LeaveToPred { succ_of_leaver: NodeRef } => "chord.leave_to_pred",
    15 => SyncRoot { ver: u64, from: Id, to: Id, root: [u8; 20] } => "chord.sync.root",
    16 => SyncDiff { ver: u64, wants: Vec<(u8, u32)>, need: Vec<Id> } => "chord.sync.diff",
    17 => SyncNodes {
        ver: u64,
        nodes: Vec<(u8, u32, Vec<(u8, [u8; 20])>)>,
        leaves: Vec<(u32, Vec<(Id, [u8; 20])>)>,
    } => "chord.sync.nodes",
    18 => SyncAck { ver: u64 } => "chord.sync.ack",
    19 => Fence { op: OpId, key: Id, floor: u64, origin: NodeRef } => "chord.fence",
    20 => FenceAck { op: OpId, ok: bool, current: u64, occupied: bool } => "chord.fence_ack",
}

crate::codec_table! {
    KtsMsg,
    /// Stable class label of a KTS message for wire accounting (one per
    /// variant; free function — `KtsMsg` is foreign to this crate).
    pub fn kts_class;
    0 => Validate {
        op: ReqId,
        key: Id,
        key_name: DocName,
        proposed_ts: u64,
        patch: Bytes,
        user: NodeRef,
    } => "kts.validate",
    // Legacy (epoch-0) grants keep their exact pre-fencing byte layout.
    1 => Granted { op: ReqId, ts: u64, #[trailing] epoch: u64 } => "kts.granted",
    2 => Retry { op: ReqId, last_ts: u64 } => "kts.retry",
    3 => Redirect { op: ReqId } => "kts.redirect",
    4 => Failed { op: ReqId, reason: ValidateFailure } => "kts.failed",
    5 => LastTs { op: ReqId, key: Id, user: NodeRef, #[trailing] known_ts: u64 } => "kts.last_ts",
    // A plain reply (empty record) keeps its pre-push byte layout.
    6 => LastTsReply { op: ReqId, key: Id, last_ts: u64, #[trailing] record: Bytes }
        => "kts.last_ts_reply",
    7 => ReplicateEntry { key: Id, key_name: DocName, last_ts: u64, epoch: u64 }
        => "kts.replicate_entry",
    8 => TableHandoff { entries: Vec<HandoffEntry> } => "kts.table_handoff",
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tagged;

    fn nref(a: u32, id: u64) -> NodeRef {
        NodeRef::new(NodeId(a), Id(id))
    }

    fn rt_chord(m: ChordMsg) {
        let buf = m.to_wire();
        assert_eq!(buf.len(), m.encoded_len(), "encoded_len for {m:?}");
        let back = ChordMsg::from_wire(&buf).unwrap();
        // ChordMsg has no PartialEq; compare Debug renderings.
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
    }

    fn rt_kts(m: KtsMsg) {
        let buf = m.to_wire();
        assert_eq!(buf.len(), m.encoded_len(), "encoded_len for {m:?}");
        let back = KtsMsg::from_wire(&buf).unwrap();
        assert_eq!(format!("{back:?}"), format!("{m:?}"));
    }

    #[test]
    fn every_chord_variant_roundtrips() {
        rt_chord(ChordMsg::FindSuccessor {
            op: OpId(7),
            target: Id(u64::MAX),
            origin: nref(3, 42),
            hops: 9,
        });
        rt_chord(ChordMsg::FoundSuccessor {
            op: OpId(0),
            owner: nref(0, 0),
            hops: 0,
        });
        rt_chord(ChordMsg::GetPredecessor { op: OpId(u64::MAX) });
        rt_chord(ChordMsg::PredecessorIs {
            op: OpId(1),
            pred: None,
            succ_list: vec![nref(1, 10), nref(2, 20)],
        });
        rt_chord(ChordMsg::PredecessorIs {
            op: OpId(1),
            pred: Some(nref(9, 90)),
            succ_list: vec![],
        });
        rt_chord(ChordMsg::Notify {
            candidate: nref(4, 44),
        });
        rt_chord(ChordMsg::Ping { op: OpId(5) });
        rt_chord(ChordMsg::Pong { op: OpId(5) });
        rt_chord(ChordMsg::Put {
            op: OpId(8),
            key: Id(123),
            value: Bytes::from(vec![1, 2, 3]),
            mode: PutMode::FirstWriter,
            origin: nref(1, 2),
        });
        rt_chord(ChordMsg::Put {
            op: OpId(8),
            key: Id(123),
            value: Bytes::from(vec![4]),
            mode: PutMode::Ranked,
            origin: nref(1, 2),
        });
        rt_chord(ChordMsg::PutAck {
            op: OpId(8),
            ok: false,
            existing: Some(Bytes::from(vec![9])),
        });
        rt_chord(ChordMsg::Get {
            op: OpId(2),
            key: Id(55),
            origin: nref(6, 66),
        });
        rt_chord(ChordMsg::GetReply {
            op: OpId(2),
            value: None,
            authoritative: true,
        });
        rt_chord(ChordMsg::Replicate {
            items: vec![(Id(1), Bytes::from(vec![1])), (Id(2), Bytes::new())],
        });
        rt_chord(ChordMsg::TransferKeys { items: vec![] });
        rt_chord(ChordMsg::LeaveToSucc {
            pred_of_leaver: Some(nref(7, 77)),
            items: vec![(Id(3), Bytes::from(vec![0; 64]))],
        });
        rt_chord(ChordMsg::LeaveToPred {
            succ_of_leaver: nref(8, 88),
        });
        rt_chord(ChordMsg::SyncRoot {
            ver: 42,
            from: Id(u64::MAX - 1),
            to: Id(3),
            root: [0xAB; 20],
        });
        rt_chord(ChordMsg::SyncDiff {
            ver: 42,
            wants: vec![(0, 0), (1, 7), (2, 255)],
            need: vec![Id(9), Id(u64::MAX)],
        });
        rt_chord(ChordMsg::SyncDiff {
            ver: 0,
            wants: vec![],
            need: vec![],
        });
        rt_chord(ChordMsg::SyncNodes {
            ver: 1,
            nodes: vec![(0, 0, vec![(3, [1; 20]), (15, [2; 20])]), (1, 3, vec![])],
            leaves: vec![(48, vec![(Id(7), [9; 20])]), (49, vec![])],
        });
        rt_chord(ChordMsg::SyncAck { ver: u64::MAX });
        rt_chord(ChordMsg::Fence {
            op: OpId(9),
            key: Id(321),
            floor: u64::MAX,
            origin: nref(2, 22),
        });
        rt_chord(ChordMsg::FenceAck {
            op: OpId(9),
            ok: false,
            current: 17,
            occupied: true,
        });
    }

    #[test]
    fn every_kts_variant_roundtrips() {
        rt_kts(KtsMsg::Validate {
            op: ReqId(1),
            key: Id(2),
            key_name: DocName::new("wiki/Main"),
            proposed_ts: 3,
            patch: Bytes::from(vec![4, 5]),
            user: nref(6, 7),
        });
        rt_kts(KtsMsg::Granted {
            op: ReqId(1),
            ts: 2,
            epoch: 0,
        });
        rt_kts(KtsMsg::Granted {
            op: ReqId(1),
            ts: 2,
            epoch: u64::MAX,
        });
        rt_kts(KtsMsg::Retry {
            op: ReqId(1),
            last_ts: 9,
        });
        rt_kts(KtsMsg::Redirect { op: ReqId(3) });
        for reason in [
            ValidateFailure::LogUnreachable,
            ValidateFailure::Overloaded,
            ValidateFailure::AheadOfLog,
        ] {
            rt_kts(KtsMsg::Failed {
                op: ReqId(4),
                reason,
            });
        }
        rt_kts(KtsMsg::LastTs {
            op: ReqId(5),
            key: Id(6),
            user: nref(7, 8),
            known_ts: 0,
        });
        rt_kts(KtsMsg::LastTs {
            op: ReqId(5),
            key: Id(6),
            user: nref(7, 8),
            known_ts: 4096,
        });
        rt_kts(KtsMsg::LastTsReply {
            op: ReqId(5),
            key: Id(6),
            last_ts: u64::MAX,
            record: Bytes::new(),
        });
        rt_kts(KtsMsg::LastTsReply {
            op: ReqId(5),
            key: Id(6),
            last_ts: 7,
            record: Bytes::from(
                LogRecord::new("wiki/Main", 7, 3, Bytes::from_static(b"p")).to_wire(),
            ),
        });
        rt_kts(KtsMsg::ReplicateEntry {
            key: Id(1),
            key_name: DocName::new("página/Ωλ"),
            last_ts: 10,
            epoch: 2,
        });
        rt_kts(KtsMsg::TableHandoff {
            entries: vec![HandoffEntry {
                key: Id(1),
                key_name: DocName::new("d"),
                last_ts: 1,
                epoch: 0,
            }],
        });
    }

    #[test]
    fn log_record_roundtrips() {
        let rec = LogRecord::new("wiki/Main", 42, 7, Bytes::from_static(b"patchbytes"));
        let buf = rec.to_wire();
        assert_eq!(buf.len(), rec.encoded_len());
        assert_eq!(LogRecord::from_wire(&buf).unwrap(), rec);
    }

    /// Representative encodings pinned byte-for-byte: the codec is a wire
    /// contract, and any layout change breaks mixed-version rings.
    #[test]
    fn frozen_encodings() {
        assert_eq!(
            ChordMsg::Ping { op: OpId(5) }.to_wire(),
            vec![5 /*tag*/, 5 /*op*/]
        );
        assert_eq!(
            ChordMsg::FindSuccessor {
                op: OpId(300),
                target: Id(1),
                origin: nref(2, 3),
                hops: 4,
            }
            .to_wire(),
            vec![
                0, // tag
                0xac, 0x02, // op = 300 varint
                1, 0, 0, 0, 0, 0, 0, 0, // target id LE
                2, // origin.addr varint
                3, 0, 0, 0, 0, 0, 0, 0, // origin.id LE
                4, // hops
            ]
        );
        // Legacy grants (epoch 0) must keep the exact pre-fencing layout:
        // the epoch is an optional trailing field.
        assert_eq!(
            KtsMsg::Granted {
                op: ReqId(1),
                ts: 128,
                epoch: 0
            }
            .to_wire(),
            vec![1 /*tag*/, 1 /*op*/, 0x80, 0x01 /*ts=128*/]
        );
        assert_eq!(
            KtsMsg::Granted {
                op: ReqId(1),
                ts: 128,
                epoch: 3
            }
            .to_wire(),
            vec![
                1, /*tag*/
                1, /*op*/
                0x80, 0x01, /*ts=128*/
                3     /*epoch*/
            ]
        );
        // A plain last-ts answer keeps the pre-push layout; a pushed
        // record rides as a trailing length-prefixed field.
        assert_eq!(
            KtsMsg::LastTsReply {
                op: ReqId(5),
                key: Id(6),
                last_ts: 2,
                record: Bytes::new(),
            }
            .to_wire(),
            vec![
                6, // tag
                5, // op
                6, 0, 0, 0, 0, 0, 0, 0, // key LE
                2, // last_ts
            ]
        );
        assert_eq!(
            KtsMsg::LastTsReply {
                op: ReqId(5),
                key: Id(6),
                last_ts: 2,
                record: Bytes::from_static(&[0xAA, 0xBB, 0xCC]),
            }
            .to_wire(),
            vec![
                6, // tag
                5, // op
                6, 0, 0, 0, 0, 0, 0, 0, // key LE
                2, // last_ts
                3, 0xAA, 0xBB, 0xCC, // record, length-prefixed
            ]
        );
        // The steady-state anti-entropy round: one root + one ack.
        let mut expect = vec![
            15, // tag
            42, // ver varint
            2, 0, 0, 0, 0, 0, 0, 0, // from LE
            9, 0, 0, 0, 0, 0, 0, 0, // to LE
        ];
        expect.extend_from_slice(&[0xCD; 20]); // root digest, raw
        assert_eq!(
            ChordMsg::SyncRoot {
                ver: 42,
                from: Id(2),
                to: Id(9),
                root: [0xCD; 20],
            }
            .to_wire(),
            expect
        );
        assert_eq!(
            ChordMsg::SyncAck { ver: 42 }.to_wire(),
            vec![18 /*tag*/, 42 /*ver*/]
        );
    }

    #[test]
    fn unknown_tags_are_errors_not_panics() {
        for tag in (0..=255).filter(|t| !ChordMsg::TAGS.contains(t)) {
            assert!(matches!(
                ChordMsg::from_wire(&[tag]),
                Err(WireError::BadTag {
                    what: "ChordMsg",
                    ..
                })
            ));
        }
        for tag in (0..=255).filter(|t| !KtsMsg::TAGS.contains(t)) {
            assert!(matches!(
                KtsMsg::from_wire(&[tag]),
                Err(WireError::BadTag { what: "KtsMsg", .. })
            ));
        }
    }
}
