//! The journal unit: one [`StoreEntry`] per durable state transition.
//!
//! A P2P-LTR peer has three kinds of state worth surviving a crash (RR-6497
//! §3–5): the **log items** it stores as a Log-Peer / Log-Peer-Succ, the
//! **timestamp table** it serves as a Master-key peer (plus the backups it
//! keeps as a Master-Succ), and the set of **documents** its user opened.
//! Each mutation of that state appends exactly one entry here; replaying
//! the entries in order rebuilds the state (see
//! [`RecoveredState`](crate::RecoveredState)).
//!
//! Entries are encoded with the `wire` codec — the same canonical varints,
//! fixed-width ring ids and length-prefixed payloads every protocol
//! message uses — so a stored segment is as deterministic and
//! corruption-evident as a frame on the wire.

use bytes::Bytes;
use chord::{sha1, DocName, Id};
use kts::HandoffEntry;
use wire::Encode;

/// One durable state transition of a P2P-LTR peer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreEntry {
    /// A log item stored in the primary bucket (this node owns the key).
    PutPrimary {
        /// DHT key (`h_i(doc + ts)` for log records).
        key: Id,
        /// The stored bytes (an encoded `p2plog::LogRecord`).
        value: Bytes,
    },
    /// A log item stored in the replica bucket (Log-Peer-Succ role).
    PutReplica {
        /// DHT key.
        key: Id,
        /// The stored bytes.
        value: Bytes,
    },
    /// A primary item removed (GC sweep, or demoted during a handoff).
    DelPrimary {
        /// DHT key.
        key: Id,
    },
    /// A replica item removed (GC sweep, promotion, or pruning).
    DelReplica {
        /// DHT key.
        key: Id,
    },
    /// Authoritative timestamp-table upsert: a grant completed, a handoff
    /// was received, or a backup was promoted.
    KtsAuth {
        /// The table entry (key, document, last granted ts, fencing epoch).
        entry: HandoffEntry,
    },
    /// Master-Succ backup upsert (`ReplicateEntry` received).
    KtsBackup {
        /// The backed-up entry.
        entry: HandoffEntry,
    },
    /// An authoritative entry left this node (exported in a handoff); it
    /// survives recovery only as a backup.
    KtsDemote {
        /// The exported key.
        key: Id,
    },
    /// A document was opened locally with the given initial content.
    DocOpen {
        /// The document name.
        doc: DocName,
        /// Initial text (the recovery base the retrieval procedure
        /// re-integrates validated patches onto).
        initial: String,
    },
    /// A fence floor raised on a stored key (grant fencing; see
    /// ARCHITECTURE.md, "Grant fencing and master epochs"). Floors are
    /// max-merged on recovery — a restarted Log-Peer must keep rejecting
    /// writes it already fenced out.
    FenceFloor {
        /// DHT key of the fenced log slot.
        key: Id,
        /// The epoch floor in force.
        floor: u64,
        /// Ring id of the master that raised the fence.
        origin: u64,
    },
}

// Entry tags are part of the on-disk format: append rows, never renumber.
wire::codec_table! {
    StoreEntry;
    0 => PutPrimary { key: Id, value: Bytes },
    1 => PutReplica { key: Id, value: Bytes },
    2 => DelPrimary { key: Id },
    3 => DelReplica { key: Id },
    4 => KtsAuth { entry: HandoffEntry },
    5 => KtsBackup { entry: HandoffEntry },
    6 => KtsDemote { key: Id },
    7 => DocOpen { doc: DocName, initial: String },
    8 => FenceFloor { key: Id, floor: u64, origin: u64 },
}

impl StoreEntry {
    /// The entry's Merkle leaf: SHA-1 of its canonical encoding.
    pub fn leaf_hash(&self) -> sha1::Digest {
        sha1::sha1(&self.to_wire())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wire::{Decode, Tagged, WireError};

    pub(crate) fn samples() -> Vec<StoreEntry> {
        vec![
            StoreEntry::PutPrimary {
                key: Id(7),
                value: Bytes::from_static(b"record-bytes"),
            },
            StoreEntry::PutReplica {
                key: Id(u64::MAX),
                value: Bytes::new(),
            },
            StoreEntry::DelPrimary { key: Id(0) },
            StoreEntry::DelReplica { key: Id(42) },
            StoreEntry::KtsAuth {
                entry: HandoffEntry {
                    key: Id(9),
                    key_name: DocName::new("wiki/Main"),
                    last_ts: 17,
                    epoch: 3,
                },
            },
            StoreEntry::KtsBackup {
                entry: HandoffEntry {
                    key: Id(10),
                    key_name: DocName::new("página/Ωλ"),
                    last_ts: 0,
                    epoch: 1,
                },
            },
            StoreEntry::KtsDemote { key: Id(1 << 40) },
            StoreEntry::DocOpen {
                doc: DocName::new("notes/today"),
                initial: "# heading\nbody".into(),
            },
            StoreEntry::FenceFloor {
                key: Id(77),
                floor: 4,
                origin: 0xABCD,
            },
        ]
    }

    #[test]
    fn roundtrip_all_variants() {
        for e in samples() {
            let buf = e.to_wire();
            assert_eq!(buf.len(), e.encoded_len());
            assert_eq!(StoreEntry::from_wire(&buf).unwrap(), e);
        }
    }

    /// Every variant's on-disk bytes, pinned: segments on disk and the
    /// Merkle leaves over them (`leaf_hash`) depend on this layout.
    #[test]
    fn frozen_encodings() {
        fn cat(parts: &[&[u8]]) -> Vec<u8> {
            parts.concat()
        }
        let expect: Vec<Vec<u8>> = vec![
            cat(&[&[0], &[7, 0, 0, 0, 0, 0, 0, 0], &[12], b"record-bytes"]),
            cat(&[&[1], &[0xFF; 8], &[0]]),
            cat(&[&[2], &[0; 8]]),
            cat(&[&[3], &[42, 0, 0, 0, 0, 0, 0, 0]]),
            // key, name, last_ts = 17, epoch = 3
            cat(&[
                &[4],
                &[9, 0, 0, 0, 0, 0, 0, 0],
                &[9],
                b"wiki/Main",
                &[17, 3],
            ]),
            cat(&[
                &[5],
                &[10, 0, 0, 0, 0, 0, 0, 0],
                &[12],
                "página/Ωλ".as_bytes(),
                &[0, 1],
            ]),
            cat(&[&[6], &[0, 0, 0, 0, 0, 1, 0, 0]]),
            cat(&[&[7], &[11], b"notes/today", &[14], b"# heading\nbody"]),
            // key, floor = 4, origin = 0xABCD as a varint
            cat(&[&[8], &[77, 0, 0, 0, 0, 0, 0, 0], &[4], &[0xCD, 0xD7, 0x02]]),
        ];
        let got: Vec<Vec<u8>> = samples().iter().map(Encode::to_wire).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn unknown_tag_rejected() {
        for tag in (0..=255).filter(|t| !StoreEntry::TAGS.contains(t)) {
            assert!(matches!(
                StoreEntry::from_wire(&[tag]),
                Err(WireError::BadTag {
                    what: "StoreEntry",
                    ..
                })
            ));
        }
    }

    #[test]
    fn leaf_hash_distinguishes_entries() {
        let hashes: Vec<_> = samples().iter().map(StoreEntry::leaf_hash).collect();
        for (i, a) in hashes.iter().enumerate() {
            for b in &hashes[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}
