//! Wire codec for the LTR envelope: [`Payload`] is the message type that
//! multiplexes every protocol layer across a node boundary, so its
//! encoding *is* the node's wire contract. Chord and KTS bodies reuse the
//! `wire` crate's codecs; user commands (the client API surface) encode
//! here.
//!
//! Both enums are declared as `wire::codec_table!` rows: to add a command
//! or a protocol layer, append a row with the next unused tag and
//! regenerate `TAGS.lock` with `cargo run -p detlint -- --write-tags`.
//! Tags are frozen: append, never renumber.

use chord::ChordMsg;
use kts::KtsMsg;

use crate::payload::{Payload, UserCmd};

wire::codec_table! {
    UserCmd;
    0 => OpenDoc { doc: String, initial: String },
    1 => Edit { doc: String, new_text: String },
    2 => Sync { doc: String },
    3 => Leave,
}

wire::codec_table! {
    Payload;
    0 => Chord(msg: ChordMsg),
    1 => Kts(msg: KtsMsg),
    2 => Cmd(cmd: UserCmd),
}

impl Payload {
    /// Stable class label for wire accounting: per-variant for protocol
    /// traffic, a single class for injected commands.
    pub fn wire_class(&self) -> &'static str {
        match self {
            Payload::Chord(m) => wire::chord_class(m),
            Payload::Kts(m) => wire::kts_class(m),
            Payload::Cmd(_) => "cmd",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use chord::{Id, NodeRef, OpId};
    use kts::ReqId;
    use simnet::NodeId;
    use wire::{Decode, Encode, Tagged, WireError};

    fn rt(p: Payload) {
        let buf = p.to_wire();
        assert_eq!(buf.len(), p.encoded_len(), "encoded_len for {p:?}");
        let back = Payload::from_wire(&buf).unwrap();
        assert_eq!(format!("{back:?}"), format!("{p:?}"));
    }

    #[test]
    fn envelope_roundtrips_every_arm() {
        rt(Payload::Chord(ChordMsg::FindSuccessor {
            op: OpId(1),
            target: Id(2),
            origin: NodeRef::new(NodeId(3), Id(4)),
            hops: 5,
        }));
        rt(Payload::Kts(KtsMsg::Validate {
            op: ReqId(1),
            key: Id(2),
            key_name: "wiki/Main".into(),
            proposed_ts: 3,
            patch: Bytes::from(vec![1, 2, 3]),
            user: NodeRef::new(NodeId(4), Id(5)),
        }));
        rt(Payload::Cmd(UserCmd::OpenDoc {
            doc: "wiki/Main".into(),
            initial: "# Welcome".into(),
        }));
        rt(Payload::Cmd(UserCmd::Edit {
            doc: "wiki/Main".into(),
            new_text: "hello\nworld".into(),
        }));
        rt(Payload::Cmd(UserCmd::Sync {
            doc: "wiki/Main".into(),
        }));
        rt(Payload::Cmd(UserCmd::Leave));
    }

    #[test]
    fn classes_are_stable_and_prefixed() {
        assert_eq!(
            Payload::Chord(ChordMsg::Ping { op: OpId(1) }).wire_class(),
            "chord.ping"
        );
        assert_eq!(
            Payload::Kts(KtsMsg::Redirect { op: ReqId(1) }).wire_class(),
            "kts.redirect"
        );
        assert_eq!(Payload::Cmd(UserCmd::Leave).wire_class(), "cmd");
    }

    #[test]
    fn unknown_tags_rejected() {
        for tag in (0..=255).filter(|t| !Payload::TAGS.contains(t)) {
            assert!(matches!(
                Payload::from_wire(&[tag]),
                Err(WireError::BadTag {
                    what: "Payload",
                    ..
                })
            ));
        }
        for tag in (0..=255).filter(|t| !UserCmd::TAGS.contains(t)) {
            assert!(matches!(
                UserCmd::from_wire(&[tag]),
                Err(WireError::BadTag {
                    what: "UserCmd",
                    ..
                })
            ));
        }
    }
}
