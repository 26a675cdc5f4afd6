//! Chord wire messages and the node/operation handles they carry.

use bytes::Bytes;

use crate::id::Id;
use crate::sha1::Digest;
use simnet::NodeId;

/// A node's full address: transport address plus ring position.
///
/// (In the paper's prototype this pair is a Java RMI remote reference plus
/// the Open Chord id.)
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRef {
    /// Transport address in the simulator.
    pub addr: NodeId,
    /// Position on the identifier ring.
    pub id: Id,
}

impl NodeRef {
    /// Construct from the two halves.
    pub fn new(addr: NodeId, id: Id) -> Self {
        NodeRef { addr, id }
    }
}

impl std::fmt::Debug for NodeRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}@{}", self.addr, self.id)
    }
}

/// Handle for an asynchronous DHT operation, local to the issuing node.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct OpId(pub u64);

impl std::fmt::Debug for OpId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// Write-conflict policy for [`ChordMsg::Put`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutMode {
    /// Unconditional overwrite (used for mutable records, e.g. last-ts
    /// backups).
    Overwrite,
    /// First writer wins: if a *different* value is already stored under the
    /// key, the put is rejected and the existing value returned. The P2P-Log
    /// uses this so the log itself arbitrates duelling masters (a hardening
    /// extension; see ARCHITECTURE.md, "Message flow: one stamped edit").
    FirstWriter,
    /// Epoch-ranked arbitration: the value's embedded rank (see
    /// `storage::value_rank`) must clear the key's fence floor; a higher
    /// rank overwrites a superseded record, equal ranks keep the first
    /// writer. Fenced-mode publishes use this so a stale master's record
    /// can never land at a slot the new epoch has fenced.
    Ranked,
}

/// The Chord protocol messages.
///
/// Lookup uses recursive forwarding with a direct reply to the origin, as in
/// the Chord paper; storage ops are two-phase (lookup, then a direct
/// `Put`/`Get` to the owner).
#[derive(Clone, Debug)]
pub enum ChordMsg {
    /// Route a lookup for `target` toward its successor.
    FindSuccessor {
        /// Origin's operation handle (echoed in the reply).
        op: OpId,
        /// The id whose successor is sought.
        target: Id,
        /// Node to send the answer to.
        origin: NodeRef,
        /// Hops so far (loop guard + metrics).
        hops: u32,
    },
    /// Lookup answer, sent directly to the origin.
    FoundSuccessor {
        /// Echoed operation handle.
        op: OpId,
        /// The node currently responsible for the target id.
        owner: NodeRef,
        /// Total routing hops.
        hops: u32,
    },
    /// Stabilization: ask a successor for its predecessor + successor list.
    GetPredecessor {
        /// Operation handle.
        op: OpId,
    },
    /// Stabilization answer.
    PredecessorIs {
        /// Echoed operation handle.
        op: OpId,
        /// The responder's current predecessor.
        pred: Option<NodeRef>,
        /// The responder's successor list (for list repair).
        succ_list: Vec<NodeRef>,
    },
    /// "I might be your predecessor."
    Notify {
        /// The candidate predecessor.
        candidate: NodeRef,
    },
    /// Failure-detector probe.
    Ping {
        /// Operation handle.
        op: OpId,
    },
    /// Probe answer.
    Pong {
        /// Echoed operation handle.
        op: OpId,
    },
    /// Store a value at the node responsible for `key`.
    Put {
        /// Operation handle.
        op: OpId,
        /// Storage key (already hashed onto the ring).
        key: Id,
        /// Value bytes.
        value: Bytes,
        /// Conflict policy.
        mode: PutMode,
        /// Node to ack.
        origin: NodeRef,
    },
    /// Acknowledge a `Put`.
    PutAck {
        /// Echoed operation handle.
        op: OpId,
        /// False iff rejected by [`PutMode::FirstWriter`] conflict.
        ok: bool,
        /// On conflict, the value already present.
        existing: Option<Bytes>,
    },
    /// Fetch the value stored under `key`.
    Get {
        /// Operation handle.
        op: OpId,
        /// Storage key.
        key: Id,
        /// Node to answer.
        origin: NodeRef,
    },
    /// Answer a `Get`.
    GetReply {
        /// Echoed operation handle.
        op: OpId,
        /// The stored value, if any (checks primary then replica bucket).
        value: Option<Bytes>,
        /// True when the responder is (or believes it is) the key's owner —
        /// a `None` with `authoritative` set is a real miss, otherwise the
        /// origin should re-resolve ownership and retry.
        authoritative: bool,
    },
    /// Owner pushing backup copies of its primary items to a successor.
    Replicate {
        /// `(key, value)` pairs to hold as replicas.
        items: Vec<(Id, Bytes)>,
    },
    /// Responsibility handoff: these keys now belong to the receiver.
    TransferKeys {
        /// `(key, value)` pairs the receiver becomes primary for.
        items: Vec<(Id, Bytes)>,
    },
    /// Graceful leave, to the successor: primary items + the leaver's
    /// predecessor so the successor can relink.
    LeaveToSucc {
        /// The leaver's predecessor (successor's probable new predecessor).
        pred_of_leaver: Option<NodeRef>,
        /// All primary items the successor must take over.
        items: Vec<(Id, Bytes)>,
    },
    /// Graceful leave, to the predecessor: points it at the leaver's
    /// successor.
    LeaveToPred {
        /// The leaver's successor (predecessor's probable new successor).
        succ_of_leaver: NodeRef,
    },
    /// Anti-entropy phase 1 (owner → replica): the Merkle root of the
    /// owner's primary range. The replica compares against its own replica
    /// summary over the same range and either acks (in sync) or starts a
    /// descent with [`ChordMsg::SyncDiff`].
    SyncRoot {
        /// Owner's `store_version` when the root was computed; echoed
        /// through the whole exchange so stale rounds are discarded.
        ver: u64,
        /// Range start, exclusive (the owner's predecessor id).
        from: Id,
        /// Range end, inclusive (the owner's id).
        to: Id,
        /// Merkle root over the owner's primary items in `(from, to]`.
        root: Digest,
    },
    /// Anti-entropy descent (replica → owner): the tree nodes whose
    /// digests the replica wants expanded. Depth 0 prefix 0 is the root's
    /// children; a leaf request returns per-key entry digests.
    SyncDiff {
        /// Echoed round version.
        ver: u64,
        /// `(depth, prefix)` tree coordinates to expand.
        wants: Vec<(u8, u32)>,
        /// Keys the replica proved missing or stale — the owner answers
        /// with a `Replicate` carrying exactly these records.
        need: Vec<Id>,
    },
    /// Anti-entropy expansion (owner → replica): children digests for the
    /// requested tree nodes, or per-key entry digests for leaves.
    SyncNodes {
        /// Echoed round version.
        ver: u64,
        /// Expanded interior nodes: coordinates plus non-empty child
        /// digests (child index, digest).
        nodes: Vec<(u8, u32, Vec<(u8, Digest)>)>,
        /// Expanded leaf buckets: bucket number plus per-key entry
        /// digests, in key order. An empty list is meaningful — it tells
        /// the replica to drop everything it holds in that bucket.
        leaves: Vec<(u32, Vec<(Id, Digest)>)>,
    },
    /// Anti-entropy completion (replica → owner): the replica's summary
    /// now matches `ver`'s root; the owner advances its version cursor.
    SyncAck {
        /// The round version being acknowledged.
        ver: u64,
    },
    /// Raise the fence floor on `key` at its owner: after the ack, no
    /// record ranked below `floor` can land there. Sent by a fencing
    /// master to every log location of the slot it is about to serve.
    Fence {
        /// Operation handle.
        op: OpId,
        /// Storage key (a log location of the fenced slot).
        key: Id,
        /// Minimum rank (master epoch) a record must carry to land.
        floor: u64,
        /// The fencing master's identity bits (ring id), so a master's
        /// own retry is distinguishable from a rival at the same floor.
        origin: NodeRef,
    },
    /// Acknowledge a [`ChordMsg::Fence`].
    FenceAck {
        /// Echoed operation handle.
        op: OpId,
        /// True iff the floor is now in force at this owner.
        ok: bool,
        /// The floor currently in force (the rival's, when `!ok`).
        current: u64,
        /// True when a primary record already occupies the fenced key —
        /// the fenced slot was already published and must be re-probed.
        occupied: bool,
    },
}
