//! The Chord node state machine: struct, lifecycle, public DHT operations,
//! and timer dispatch. Routing lives in [`crate::routing`], stabilization in
//! [`crate::stabilize`], and the storage protocol in
//! [`crate::storage_proto`].

use std::collections::{BTreeMap, BTreeSet, HashMap};

use bytes::Bytes;

use crate::config::ChordConfig;
use crate::events::{Action, ChordEvent, ChordTimer};
use crate::id::{Id, M};
use crate::msg::{ChordMsg, NodeRef, OpId, PutMode};
use crate::storage::Storage;
use simnet::{NodeId, Time};

/// In-flight operation kinds. `owner: None` means the op is still in its
/// lookup phase; `Some` means the direct request was sent to that node.
#[derive(Clone, Debug)]
pub(crate) enum OpKind {
    Join {
        bootstrap: NodeRef,
    },
    Lookup {
        target: Id,
    },
    FingerLookup {
        idx: usize,
    },
    Put {
        key: Id,
        value: Bytes,
        mode: PutMode,
        owner: Option<NodeRef>,
    },
    Get {
        key: Id,
        owner: Option<NodeRef>,
    },
    Fence {
        key: Id,
        floor: u64,
        owner: Option<NodeRef>,
    },
    StabilizeGetPred {
        asked: NodeRef,
    },
    PingPred {
        target: NodeRef,
    },
}

#[derive(Clone, Debug)]
pub(crate) struct OpState {
    pub kind: OpKind,
    pub attempts: u32,
}

/// A Chord DHT node as a sans-IO state machine.
///
/// Drive it with [`ChordNode::start`], [`ChordNode::handle`] (messages) and
/// [`ChordNode::on_timer`]; each returns the [`Action`]s to perform. The
/// embedding process is responsible for actually sending messages and
/// arming timers (see `chord::harness` for a ready-made embedding).
pub struct ChordNode {
    pub(crate) me: NodeRef,
    pub(crate) cfg: ChordConfig,
    pub(crate) pred: Option<NodeRef>,
    /// Successor list, closest first. Contains `me` only when singleton.
    pub(crate) succs: Vec<NodeRef>,
    pub(crate) fingers: Vec<Option<NodeRef>>,
    pub(crate) next_finger: usize,
    pub(crate) store: Storage,
    pub(crate) store_version: u64,
    // detlint::allow(DET-HASH, keyed acks from a specific successor; never iterated)
    pub(crate) replicated_to: HashMap<NodeId, u64>,
    // detlint::allow(DET-HASH, hot per-op lookup; ops complete or time out individually, never iterated)
    pub(crate) ops: HashMap<OpId, OpState>,
    pub(crate) op_seq: u64,
    pub(crate) joined: bool,
    pub(crate) suspects: BTreeMap<NodeId, Time>,
    /// Consecutive predecessor-ping losses (reset by any pong from the
    /// current predecessor or a predecessor change). The predecessor is
    /// only declared dead at `cfg.fail_threshold`.
    pub(crate) pred_fails: u32,
    /// Consecutive stabilize-round losses against the current successor.
    pub(crate) succ_fails: u32,
    /// In-flight re-home puts (orphaned primary → true owner): op → key.
    /// See the orphan sweep in `tick_replicate`.
    pub(crate) rehoming: BTreeMap<OpId, Id>,
    /// Reverse index of `rehoming`'s values: the orphan sweep's
    /// "already in flight?" test, O(log n) instead of a scan per orphan.
    pub(crate) rehoming_keys: BTreeSet<Id>,
    /// Merkle sync rounds we are driving as owner, per replica address.
    pub(crate) sync_out: BTreeMap<NodeId, crate::sync::SyncOut>,
    /// Merkle sync rounds we are serving as replica, per owner address.
    pub(crate) sync_in: BTreeMap<NodeId, crate::sync::SyncIn>,
    pub(crate) acts: Vec<Action>,
    /// Cumulative hop count of completed lookups (for metrics).
    pub(crate) total_lookup_hops: u64,
    pub(crate) completed_lookups: u64,
}

impl ChordNode {
    /// Create a node that is not yet part of any ring.
    pub fn new(me: NodeRef, cfg: ChordConfig) -> Self {
        ChordNode {
            me,
            cfg,
            pred: None,
            succs: Vec::new(),
            fingers: vec![None; M],
            next_finger: 0,
            store: Storage::new(),
            store_version: 0,
            replicated_to: HashMap::new(), // detlint::allow(DET-HASH, lookup-only; see field decl)
            ops: HashMap::new(),           // detlint::allow(DET-HASH, lookup-only; see field decl)
            op_seq: 0,
            joined: false,
            suspects: BTreeMap::new(),
            pred_fails: 0,
            succ_fails: 0,
            rehoming: BTreeMap::new(),
            rehoming_keys: BTreeSet::new(),
            sync_out: BTreeMap::new(),
            sync_in: BTreeMap::new(),
            acts: Vec::new(),
            total_lookup_hops: 0,
            completed_lookups: 0,
        }
    }

    // ----- accessors --------------------------------------------------

    /// This node's address + ring id.
    pub fn me(&self) -> NodeRef {
        self.me
    }

    /// Ring id.
    pub fn id(&self) -> Id {
        self.me.id
    }

    /// Current immediate successor (self when singleton/unjoined).
    pub fn successor(&self) -> NodeRef {
        self.succs.first().copied().unwrap_or(self.me)
    }

    /// The whole successor list.
    pub fn successor_list(&self) -> &[NodeRef] {
        &self.succs
    }

    /// Current predecessor, if known.
    pub fn predecessor(&self) -> Option<NodeRef> {
        self.pred
    }

    /// Has the join completed?
    pub fn is_joined(&self) -> bool {
        self.joined
    }

    /// Is this node currently responsible for `key`?
    ///
    /// True iff `key ∈ (pred, me]`; a singleton ring owns everything. With
    /// an unknown predecessor we answer `true` conservatively — the KTS
    /// layer adds epoch fencing on top (see ARCHITECTURE.md, "Grant
    /// fencing and master epochs").
    pub fn is_responsible(&self, key: Id) -> bool {
        if !self.joined {
            return false;
        }
        match self.pred {
            Some(p) => key.in_half_open(p.id, self.me.id),
            None => true,
        }
    }

    /// Immutable view of the local store.
    pub fn storage(&self) -> &Storage {
        &self.store
    }

    /// Mutable view of the local store (used by upper layers that co-locate
    /// state with ownership, e.g. log garbage collection).
    pub fn storage_mut(&mut self) -> &mut Storage {
        self.store_version += 1;
        &mut self.store
    }

    /// Mean routing hops over all completed lookups on this node.
    pub fn mean_lookup_hops(&self) -> f64 {
        if self.completed_lookups == 0 {
            0.0
        } else {
            self.total_lookup_hops as f64 / self.completed_lookups as f64
        }
    }

    /// Finger-table entries currently populated (diagnostics).
    pub fn finger_fill(&self) -> usize {
        self.fingers.iter().filter(|f| f.is_some()).count()
    }

    // ----- effect helpers ----------------------------------------------

    pub(crate) fn send(&mut self, to: NodeId, msg: ChordMsg) {
        self.acts.push(Action::Send(to, msg));
    }

    pub(crate) fn emit(&mut self, ev: ChordEvent) {
        self.acts.push(Action::Event(ev));
    }

    pub(crate) fn arm(&mut self, delay: simnet::Duration, t: ChordTimer) {
        self.acts.push(Action::SetTimer(delay, t));
    }

    pub(crate) fn arm_op_timeout(&mut self, op: OpId) {
        self.arm(self.cfg.op_timeout, ChordTimer::OpTimeout(op));
    }

    pub(crate) fn drain(&mut self) -> Vec<Action> {
        std::mem::take(&mut self.acts)
    }

    pub(crate) fn new_op(&mut self, kind: OpKind) -> OpId {
        self.op_seq += 1;
        let op = OpId(self.op_seq);
        self.ops.insert(op, OpState { kind, attempts: 0 });
        op
    }

    pub(crate) fn mark_suspect(&mut self, addr: NodeId, now: Time) {
        if addr != self.me.addr {
            self.suspects.insert(addr, now + self.cfg.suspect_ttl);
        }
    }

    pub(crate) fn is_suspect(&self, addr: NodeId, now: Time) -> bool {
        self.suspects.get(&addr).is_some_and(|&until| until > now)
    }

    pub(crate) fn prune_suspects(&mut self, now: Time) {
        self.suspects.retain(|_, &mut until| until > now);
    }

    // ----- lifecycle ----------------------------------------------------

    /// Start the node. With no bootstrap it forms a singleton ring;
    /// otherwise it joins via the given contact node.
    pub fn start(&mut self, _now: Time, bootstrap: Option<NodeRef>) -> Vec<Action> {
        match bootstrap {
            None => {
                self.succs = vec![self.me];
                self.joined = true;
                self.emit(ChordEvent::Joined);
                self.arm_periodic_timers();
            }
            Some(contact) => {
                let op = self.new_op(OpKind::Join { bootstrap: contact });
                self.send(
                    contact.addr,
                    ChordMsg::FindSuccessor {
                        op,
                        target: self.me.id,
                        origin: self.me,
                        hops: 0,
                    },
                );
                self.arm_op_timeout(op);
            }
        }
        self.drain()
    }

    pub(crate) fn arm_periodic_timers(&mut self) {
        self.arm(self.cfg.stabilize_every, ChordTimer::Stabilize);
        self.arm(self.cfg.fix_fingers_every, ChordTimer::FixFingers);
        self.arm(self.cfg.check_pred_every, ChordTimer::CheckPredecessor);
        if self.cfg.storage_replicas > 0 {
            self.arm(self.cfg.replicate_every, ChordTimer::Replicate);
        }
    }

    pub(crate) fn complete_join(&mut self, succ: NodeRef) {
        self.integrate_successor(succ);
        self.joined = true;
        self.emit(ChordEvent::Joined);
        self.send(
            self.successor().addr,
            ChordMsg::Notify { candidate: self.me },
        );
        self.arm_periodic_timers();
    }

    /// Insert a candidate into the successor list, keeping it sorted by
    /// clockwise distance from `me` and truncated to the configured length.
    pub(crate) fn integrate_successor(&mut self, cand: NodeRef) {
        if cand.id == self.me.id {
            return;
        }
        // The list (possibly its head) changes: losses counted against
        // the previous head must not carry over to a new one.
        self.succ_fails = 0;
        self.succs.retain(|s| s.id != self.me.id && s.id != cand.id);
        self.succs.push(cand);
        let me = self.me.id;
        self.succs.sort_by_key(|s| me.distance_to(s.id));
        self.succs.truncate(self.cfg.succ_list_len);
    }

    /// Remove a node from the successor list (after detecting failure).
    pub(crate) fn drop_successor(&mut self, addr: NodeId) {
        // Whatever replaces the dropped head starts with a clean record.
        self.succ_fails = 0;
        self.succs.retain(|s| s.addr != addr);
        if self.succs.is_empty() {
            // Fall back to any live finger; otherwise we are singleton.
            let me = self.me.id;
            let mut cands: Vec<NodeRef> = self
                .fingers
                .iter()
                .flatten()
                .copied()
                .filter(|f| f.addr != addr && f.id != self.me.id)
                .collect();
            cands.sort_by_key(|s| me.distance_to(s.id));
            match cands.first() {
                Some(&c) => self.succs.push(c),
                None => {
                    self.succs.push(self.me);
                    // Last node standing: adopt everything we hold.
                    let promoted = self.store.promote_replicas_in_range(me, me);
                    if promoted > 0 {
                        self.store_version += 1;
                    }
                }
            }
        }
    }

    /// Graceful departure: hand primary items to the successor and splice
    /// predecessor/successor around us. The embedder should stop the node
    /// after performing the returned actions.
    pub fn leave(&mut self, _now: Time) -> Vec<Action> {
        let succ = self.successor();
        if succ.id != self.me.id {
            let items = self.store.primary_items();
            self.send(
                succ.addr,
                ChordMsg::LeaveToSucc {
                    pred_of_leaver: self.pred,
                    items,
                },
            );
        }
        if let Some(p) = self.pred {
            if p.id != self.me.id && succ.id != self.me.id {
                self.send(
                    p.addr,
                    ChordMsg::LeaveToPred {
                        succ_of_leaver: succ,
                    },
                );
            }
        }
        self.joined = false;
        self.drain()
    }

    // ----- public DHT operations -----------------------------------------

    /// Find the node responsible for `target`. Completion is reported via
    /// [`ChordEvent::LookupDone`] / [`ChordEvent::LookupFailed`].
    pub fn lookup(&mut self, now: Time, target: Id) -> (OpId, Vec<Action>) {
        let op = self.new_op(OpKind::Lookup { target });
        self.issue_lookup(now, op, target, 0);
        self.arm_op_timeout(op);
        (op, self.drain())
    }

    /// Store `value` under `key` at the responsible node (k-replicated by
    /// its successors). Completion via [`ChordEvent::PutDone`].
    pub fn put(&mut self, now: Time, key: Id, value: Bytes, mode: PutMode) -> (OpId, Vec<Action>) {
        let op = self.new_op(OpKind::Put {
            key,
            value,
            mode,
            owner: None,
        });
        self.issue_lookup(now, op, key, 0);
        self.arm_op_timeout(op);
        (op, self.drain())
    }

    /// Fetch the value under `key`. Completion via [`ChordEvent::GetDone`].
    pub fn get(&mut self, now: Time, key: Id) -> (OpId, Vec<Action>) {
        let op = self.new_op(OpKind::Get { key, owner: None });
        self.issue_lookup(now, op, key, 0);
        self.arm_op_timeout(op);
        (op, self.drain())
    }

    /// Raise the fence floor for `key` at its owner (see
    /// [`crate::Storage::raise_fence`]). Completion via
    /// [`ChordEvent::FenceDone`].
    pub fn fence(&mut self, now: Time, key: Id, floor: u64) -> (OpId, Vec<Action>) {
        let op = self.new_op(OpKind::Fence {
            key,
            floor,
            owner: None,
        });
        self.issue_lookup(now, op, key, 0);
        self.arm_op_timeout(op);
        (op, self.drain())
    }

    // ----- dispatch -------------------------------------------------------

    /// Feed an incoming message; returns the actions to perform.
    pub fn handle(&mut self, now: Time, from: NodeId, msg: ChordMsg) -> Vec<Action> {
        match msg {
            ChordMsg::FindSuccessor {
                op,
                target,
                origin,
                hops,
            } => self.on_find_successor(now, op, target, origin, hops),
            ChordMsg::FoundSuccessor { op, owner, hops } => {
                self.on_found_successor(now, op, owner, hops)
            }
            ChordMsg::GetPredecessor { op } => {
                let pred = self.pred;
                let succ_list = self.succs.clone();
                self.send(
                    from,
                    ChordMsg::PredecessorIs {
                        op,
                        pred,
                        succ_list,
                    },
                );
            }
            ChordMsg::PredecessorIs {
                op,
                pred,
                succ_list,
            } => self.on_predecessor_is(now, op, pred, succ_list),
            ChordMsg::Notify { candidate } => self.on_notify(now, candidate),
            ChordMsg::Ping { op } => self.send(from, ChordMsg::Pong { op }),
            ChordMsg::Pong { op } => {
                if let Some(st) = self.ops.remove(&op) {
                    // A pong from the current predecessor clears its
                    // accumulated liveness-probe failures.
                    if let OpKind::PingPred { target } = st.kind {
                        if self.pred.is_some_and(|p| p.addr == target.addr) {
                            self.pred_fails = 0;
                        }
                    }
                }
            }
            ChordMsg::Put {
                op,
                key,
                value,
                mode,
                origin,
            } => self.on_put(now, op, key, value, mode, origin),
            ChordMsg::PutAck { op, ok, existing } => self.on_put_ack(now, op, ok, existing),
            ChordMsg::Get { op, key, origin } => self.on_get(now, op, key, origin),
            ChordMsg::GetReply {
                op,
                value,
                authoritative,
            } => self.on_get_reply(now, op, value, authoritative),
            ChordMsg::Replicate { items } => self.on_replicate(now, from, items),
            ChordMsg::TransferKeys { items } => self.on_transfer_keys(now, items),
            ChordMsg::LeaveToSucc {
                pred_of_leaver,
                items,
            } => self.on_leave_to_succ(now, from, pred_of_leaver, items),
            ChordMsg::LeaveToPred { succ_of_leaver } => {
                self.on_leave_to_pred(now, from, succ_of_leaver)
            }
            ChordMsg::SyncRoot {
                ver,
                from: range_from,
                to,
                root,
            } => self.on_sync_root(from, ver, range_from, to, root),
            ChordMsg::SyncDiff { ver, wants, need } => self.on_sync_diff(from, ver, wants, need),
            ChordMsg::SyncNodes { ver, nodes, leaves } => {
                self.on_sync_nodes(from, ver, nodes, leaves)
            }
            ChordMsg::SyncAck { ver } => self.on_sync_ack(from, ver),
            ChordMsg::Fence {
                op,
                key,
                floor,
                origin,
            } => self.on_fence(now, op, key, floor, origin),
            ChordMsg::FenceAck {
                op,
                ok,
                current,
                occupied,
            } => self.on_fence_ack(now, op, ok, current, occupied),
        }
        self.drain()
    }

    /// Feed a fired timer; returns the actions to perform.
    pub fn on_timer(&mut self, now: Time, timer: ChordTimer) -> Vec<Action> {
        match timer {
            ChordTimer::Stabilize => self.tick_stabilize(now),
            ChordTimer::FixFingers => self.tick_fix_fingers(now),
            ChordTimer::CheckPredecessor => self.tick_check_predecessor(now),
            ChordTimer::Replicate => self.tick_replicate(now),
            ChordTimer::OpTimeout(op) => self.on_op_timeout(now, op),
        }
        self.drain()
    }
}
