//! The Master-key peer: continuous per-key timestamp generation with
//! sequential service, Master-Succ backup, takeover, and log-probe recovery.
//!
//! Behavioural contract from RR-6497 §3:
//!
//! * `gen_ts(key)` — monotonic **and continuous**: consecutive timestamps
//!   differ by exactly one;
//! * `last_ts(key)` — read the last granted value;
//! * "the Master-key serves each user peer **sequentially**. A new timestamp
//!   for a document is provided only **after the replication of the previous
//!   timestamped patch**" — i.e. grant → publish to Log-Peers → ack, one at
//!   a time per key;
//! * `sendToPublish` also "replicates the last-ts at the Master-Succ Peer".
//!
//! This module is sans-IO: log publication and log probing are delegated to
//! the embedding layer through [`MasterAction::BeginPublish`] /
//! [`MasterAction::BeginProbe`], completed via [`KtsMaster::publish_done`] /
//! [`KtsMaster::probe_done`].

use std::collections::{BTreeMap, VecDeque};

use bytes::Bytes;

use crate::config::KtsConfig;
use crate::msg::{HandoffEntry, KtsMsg, ReqId, ValidateFailure};
use chord::{DocName, Id, NodeRef};

use simnet::NodeId;

/// Effects requested by the master state machine.
#[derive(Clone, Debug)]
pub enum MasterAction {
    /// Send a KTS message.
    Send(NodeId, KtsMsg),
    /// Replicate the patch to the Log-Peers (`put(h_i(key_name+ts))` for
    /// each replication hash), then call
    /// [`KtsMaster::publish_done`] with the token.
    BeginPublish {
        /// Completion token.
        token: u64,
        /// The key being served.
        key: Id,
        /// Document name (for the replication hashes).
        key_name: DocName,
        /// The granted timestamp.
        ts: u64,
        /// The master epoch to stamp the record with (0 = legacy,
        /// unfenced).
        epoch: u64,
        /// The patch to store.
        patch: Bytes,
        /// The requesting user, who gets `Granted` when the publish lands.
        user: NodeRef,
    },
    /// Recover `last_ts(key)` by probing the log (gallop + binary search),
    /// then call [`KtsMaster::probe_done`].
    BeginProbe {
        /// Completion token.
        token: u64,
        /// The key to probe.
        key: Id,
        /// Document name.
        key_name: DocName,
        /// Known lower bound on `last_ts` — the probe gallops from here.
        /// Essential for the occupied-fence re-probe: a log with a hole
        /// *below* this entry's `last_ts` (replicas lost to faults) makes
        /// a base-0 probe stop at the hole and recover a value the
        /// `max(last_ts, recovered)` merge discards, so the occupied
        /// fence re-probes forever without progress. Galloping from the
        /// entry's own `last_ts` instead finds the occupying record at
        /// `last_ts + 1` and strictly advances.
        base: u64,
    },
    /// Raise a grant fence at the Log-Peers of slot `last_ts + 1` with
    /// floor `epoch`, then call [`KtsMaster::fence_done`] with the quorum
    /// outcome (fenced mode only).
    ///
    /// Fences run one slot ahead: a grant of slot `ts` emits this with
    /// `last_ts = ts` in the same batch as its [`MasterAction::BeginPublish`],
    /// so the fan-out for `ts + 1` overlaps the publish of `ts` and the next
    /// grant finds its slot already fenced. A fence is also raised on
    /// demand, at `last_ts + 1`, when a queued request finds no fence in
    /// force (fresh entry, promotion, restore, re-probe, failed publish).
    BeginFence {
        /// Completion token.
        token: u64,
        /// The key being fenced.
        key: Id,
        /// Document name (for the slot's replication hashes).
        key_name: DocName,
        /// The fence floor: this master's epoch for the key.
        epoch: u64,
        /// The last granted timestamp; the fence goes up at `last_ts + 1`.
        last_ts: u64,
    },
    /// Back up an entry at the Master-key-Succ (the embedding layer knows
    /// the current successor).
    ReplicateToSucc {
        /// The entry to back up.
        entry: HandoffEntry,
    },
    /// Observability upcall.
    Event(MasterEvent),
}

/// Notable master-side events (metrics / test oracles).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum MasterEvent {
    /// A timestamp was granted and its patch durably logged.
    Granted {
        /// The key.
        key: Id,
        /// The document name behind the key.
        doc: DocName,
        /// The timestamp.
        ts: u64,
    },
    /// A first-writer conflict in the log exposed us as a stale master.
    StaleDetected {
        /// The key.
        key: Id,
    },
    /// Backup entries were promoted to authoritative after a takeover.
    Promoted {
        /// How many keys.
        count: usize,
    },
    /// Authoritative entries were handed off to another master.
    HandedOff {
        /// How many keys.
        count: usize,
    },
    /// Authoritative entries were received.
    HandoffReceived {
        /// How many keys.
        count: usize,
    },
}

/// How a delegated publish ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PublishOutcome {
    /// All (or a quorum of) log replicas stored the record.
    Ok,
    /// A log peer already holds a *different* record for this (key, ts):
    /// another master granted it — we are stale.
    Conflict,
    /// Log peers unreachable within the timeout budget.
    Unreachable,
}

/// How a delegated fence fan-out ended (mirror of the embedding layer's
/// quorum verdict; kts stays independent of the log crate).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceOutcome {
    /// A quorum of the slot's Log-Peers holds the floor.
    Acked {
        /// An acked location already held a record at the fenced slot: a
        /// grant landed there before the fence went up — re-probe.
        occupied: bool,
    },
    /// A higher (or rival equal) floor is in force: a newer master epoch
    /// is active for this key.
    Superseded {
        /// The winning floor observed.
        current: u64,
    },
    /// No quorum reachable.
    Unreachable,
}

/// Per-key fence progress (fenced mode only; `NotNeeded` in legacy mode).
///
/// A fence covers one slot under one floor, both recorded with the state:
/// it is raised for slot `ts + 1` while slot `ts` publishes, so it may run
/// ahead of `last_ts` by one. Slot `last_ts + 1` is granted only while its
/// fence is `Acked` at the entry's current epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FenceState {
    /// Legacy mode: grants are served unfenced.
    NotNeeded,
    /// No fence is in force for the next slot; one must be raised (on
    /// demand) before the next grant.
    Pending,
    /// A fence fan-out for the covered slot is outstanding.
    InFlight,
    /// The covered slot is fenced under the covered epoch.
    Acked,
}

#[derive(Clone, Debug)]
struct QueuedValidate {
    op: ReqId,
    proposed_ts: u64,
    patch: Bytes,
    user: NodeRef,
    /// The log was already re-probed once because this request claimed a
    /// timestamp ahead of our state.
    reprobed: bool,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    Ready,
    Publishing,
    Probing,
}

/// An entry's fence: how far it got, the slot and floor it covers, and
/// the token of the fan-out still out for it. A completion counts only
/// while it carries that token and the entry still runs the covered
/// epoch: a handoff, restore, failed publish, probe or ring change
/// drops or re-raises the fence, so a stale `fence_done` never acks it.
#[derive(Clone, Copy, Debug)]
struct Fence {
    state: FenceState,
    slot: u64,
    epoch: u64,
    token: u64,
}

impl Fence {
    fn born(state: FenceState) -> Self {
        Fence {
            state,
            slot: 0,
            epoch: 0,
            token: 0,
        }
    }
}

#[derive(Clone, Debug)]
struct KeyEntry {
    key_name: DocName,
    last_ts: u64,
    epoch: u64,
    phase: Phase,
    /// Verified against the log at least once (or born fresh here).
    probed: bool,
    fence: Fence,
    queue: VecDeque<QueuedValidate>,
}

impl KeyEntry {
    /// Whether the fence covers the next slot under the current epoch
    /// and has reached `state`.
    fn next_slot_fence_is(&self, state: FenceState) -> bool {
        self.fence.state == state
            && self.fence.slot == self.last_ts + 1
            && self.fence.epoch == self.epoch
    }

    /// Drop the fence: the next grant must raise a fresh one.
    fn reset_fence(&mut self) {
        if self.fence.state != FenceState::NotNeeded {
            self.fence = Fence::born(FenceState::Pending);
        }
    }
}

#[derive(Clone, Debug)]
struct Backup {
    key_name: DocName,
    last_ts: u64,
    epoch: u64,
}

#[derive(Clone, Debug)]
struct InflightPublish {
    key: Id,
    key_name: DocName,
    ts: u64,
    epoch: u64,
    op: ReqId,
    user: NodeRef,
}

/// The Master-key role state for one node (it may master many keys).
pub struct KtsMaster {
    cfg: KtsConfig,
    // BTreeMap: export_range/export_all emit handoff + redirect messages in
    // iteration order, which must be deterministic for reproducible runs.
    entries: BTreeMap<Id, KeyEntry>,
    backups: BTreeMap<Id, Backup>,
    // BTreeMap: crash/handoff sweeps walk outstanding publishes and
    // probes, so iteration order must be deterministic too.
    inflight: BTreeMap<u64, InflightPublish>,
    probing: BTreeMap<u64, Id>,
    fencing: BTreeMap<u64, Id>,
    token_seq: u64,
    acts: Vec<MasterAction>,
}

impl KtsMaster {
    /// Fresh master state.
    pub fn new(cfg: KtsConfig) -> Self {
        KtsMaster {
            cfg,
            entries: BTreeMap::new(),
            backups: BTreeMap::new(),
            inflight: BTreeMap::new(),
            probing: BTreeMap::new(),
            fencing: BTreeMap::new(),
            token_seq: 0,
            acts: Vec::new(),
        }
    }

    // ---- inspection ----------------------------------------------------

    /// `last_ts(key)`: the best-known last validated timestamp.
    pub fn last_ts(&self, key: Id) -> u64 {
        let e = self.entries.get(&key).map(|e| e.last_ts).unwrap_or(0);
        let b = self.backups.get(&key).map(|b| b.last_ts).unwrap_or(0);
        e.max(b)
    }

    /// Keys this node currently masters (authoritative entries).
    pub fn mastered_keys(&self) -> Vec<(Id, u64)> {
        self.entries.iter().map(|(k, e)| (*k, e.last_ts)).collect()
    }

    /// True when this node holds the authoritative entry for `key`.
    pub fn masters(&self, key: Id) -> bool {
        self.entries.contains_key(&key)
    }

    /// Number of authoritative entries.
    pub fn mastered_count(&self) -> usize {
        self.entries.len()
    }

    /// Number of backup entries held for predecessors.
    pub fn backup_count(&self) -> usize {
        self.backups.len()
    }

    /// Currently queued validations across all keys (diagnostics).
    pub fn queued_validations(&self) -> usize {
        self.entries.values().map(|e| e.queue.len()).sum()
    }

    /// The fencing epoch of an authoritative entry (test / model-checker
    /// oracle).
    pub fn entry_epoch(&self, key: Id) -> Option<u64> {
        self.entries.get(&key).map(|e| e.epoch)
    }

    /// The fence state of an authoritative entry (test / model-checker
    /// oracle).
    pub fn fence_state(&self, key: Id) -> Option<FenceState> {
        self.entries.get(&key).map(|e| e.fence.state)
    }

    fn token(&mut self) -> u64 {
        self.token_seq += 1;
        self.token_seq
    }

    fn drain(&mut self) -> Vec<MasterAction> {
        std::mem::take(&mut self.acts)
    }

    // ---- the validation procedure ---------------------------------------

    /// Handle a [`KtsMsg::Validate`]. `am_responsible` is the embedding
    /// layer's Chord-ownership check for `key`.
    #[allow(clippy::too_many_arguments)] // mirrors the wire message fields
    pub fn on_validate(
        &mut self,
        key: Id,
        key_name: &DocName,
        op: ReqId,
        proposed_ts: u64,
        patch: Bytes,
        user: NodeRef,
        am_responsible: bool,
    ) -> Vec<MasterAction> {
        if !am_responsible {
            self.acts
                .push(MasterAction::Send(user.addr, KtsMsg::Redirect { op }));
            return self.drain();
        }
        self.ensure_entry(key, key_name);
        // detlint::allow(TOT-PANIC, ensure_entry on the line above inserted the key; local invariant, not remote input)
        let entry = self.entries.get_mut(&key).expect("just ensured");
        if entry.queue.len() >= self.cfg.max_queue_per_key {
            self.acts.push(MasterAction::Send(
                user.addr,
                KtsMsg::Failed {
                    op,
                    reason: ValidateFailure::Overloaded,
                },
            ));
            return self.drain();
        }
        entry.queue.push_back(QueuedValidate {
            op,
            proposed_ts,
            patch,
            user,
            reprobed: false,
        });
        self.pump(key);
        self.drain()
    }

    /// Handle a [`KtsMsg::LastTs`] read.
    ///
    /// The reply is best-effort: a restored or freshly promoted entry may
    /// lag the log (a backup can miss an in-flight grant; a journal can
    /// miss a grant made by the takeover master during the outage). Such
    /// an entry is marked `probed = false`; reads trigger its
    /// verification probe so the *next* anti-entropy round sees the
    /// log's truth — otherwise idle replicas would trust a stale
    /// `last_ts` forever and never pull the missing patches.
    ///
    /// `known_ts` is the asker's own last integrated timestamp (0 in
    /// legacy mode). A reader ahead of a *probed* entry proves the table
    /// lags the log — some other master granted past us — so the entry is
    /// re-verified instead of being trusted forever (the residual
    /// "idle replica one patch stale" window of the churn matrix).
    pub fn on_last_ts(
        &mut self,
        key: Id,
        op: ReqId,
        user: NodeRef,
        known_ts: u64,
    ) -> Vec<MasterAction> {
        if known_ts > self.last_ts(key) {
            if let Some(e) = self.entries.get_mut(&key) {
                e.probed = false;
            }
        }
        if self.entries.get(&key).is_some_and(|e| !e.probed) {
            self.pump(key);
        }
        let last_ts = self.last_ts(key);
        self.acts.push(MasterAction::Send(
            user.addr,
            KtsMsg::LastTsReply {
                op,
                key,
                last_ts,
                record: Bytes::new(),
            },
        ));
        self.drain()
    }

    /// The birth fence state of any new or re-keyed entry: fenced mode
    /// starts every entry `Pending` — even a genuinely fresh document must
    /// fence slot 1 before its first grant, or a partitioned rival could
    /// serve it concurrently.
    fn born_fence(&self) -> Fence {
        Fence::born(if self.cfg.fencing {
            FenceState::Pending
        } else {
            FenceState::NotNeeded
        })
    }

    /// Create (or promote from backup) the entry for `key`.
    fn ensure_entry(&mut self, key: Id, key_name: &DocName) {
        if self.entries.contains_key(&key) {
            return;
        }
        let fence = self.born_fence();
        match self.backups.remove(&key) {
            Some(b) => {
                // Promotion after our predecessor (the old master) vanished.
                // The backup may lag an in-flight grant, so verify against
                // the log before first use (probed = false).
                self.entries.insert(
                    key,
                    KeyEntry {
                        key_name: b.key_name,
                        last_ts: b.last_ts,
                        epoch: b.epoch + 1,
                        phase: Phase::Ready,
                        probed: !self.cfg.probe_on_promote,
                        fence,
                        queue: VecDeque::new(),
                    },
                );
                self.acts
                    .push(MasterAction::Event(MasterEvent::Promoted { count: 1 }));
            }
            None => {
                self.entries.insert(
                    key,
                    KeyEntry {
                        key_name: key_name.clone(),
                        last_ts: 0,
                        epoch: 1,
                        phase: Phase::Ready,
                        // An unknown key might be genuinely new *or* state
                        // lost to a double failure; the log is the ground
                        // truth either way.
                        probed: !self.cfg.probe_unknown_keys,
                        fence,
                        queue: VecDeque::new(),
                    },
                );
            }
        }
    }

    /// Serve the queue head for `key` if the entry is idle.
    fn pump(&mut self, key: Id) {
        loop {
            let entry = match self.entries.get_mut(&key) {
                Some(e) => e,
                None => return,
            };
            if entry.phase != Phase::Ready {
                return;
            }
            if !entry.probed {
                entry.phase = Phase::Probing;
                let token = {
                    let name = entry.key_name.clone();
                    let base = entry.last_ts;
                    let t = self.token();
                    self.probing.insert(t, key);
                    self.acts.push(MasterAction::BeginProbe {
                        token: t,
                        key,
                        key_name: name,
                        base,
                    });
                    t
                };
                let _ = token;
                return;
            }
            if self.cfg.fencing && !entry.next_slot_fence_is(FenceState::Acked) {
                // Fence the next slot before serving anything. The probe
                // above ran first, so `last_ts` is log-verified and the
                // fence lands where the next grant will go. Demand-driven
                // (queue non-empty): an idle key with unreachable log
                // peers must not spin fence retries forever.
                if !entry.queue.is_empty() && !entry.next_slot_fence_is(FenceState::InFlight) {
                    let last_ts = entry.last_ts;
                    self.raise_fence(key, last_ts);
                }
                return;
            }
            let req = match entry.queue.pop_front() {
                Some(r) => r,
                None => return,
            };
            if entry.last_ts > req.proposed_ts {
                // User is behind: it must retrieve and integrate first.
                let last = entry.last_ts;
                self.acts.push(MasterAction::Send(
                    req.user.addr,
                    KtsMsg::Retry {
                        op: req.op,
                        last_ts: last,
                    },
                ));
                continue; // serve the next queued request
            }
            if entry.last_ts < req.proposed_ts {
                if req.reprobed {
                    // We already re-verified against the log and the user
                    // still claims more than it contains: the claim cannot
                    // be honoured (e.g. catastrophic log loss). Fail the
                    // request rather than probing forever.
                    self.acts.push(MasterAction::Send(
                        req.user.addr,
                        KtsMsg::Failed {
                            op: req.op,
                            reason: ValidateFailure::AheadOfLog,
                        },
                    ));
                    continue;
                }
                // The *user* knows more than we do — we lost state (e.g.
                // promoted from a lagging backup). Re-verify from the log,
                // keeping the request queued.
                let mut req = req;
                req.reprobed = true;
                entry.queue.push_front(req);
                entry.probed = false;
                continue; // loop re-enters the probe branch
            }
            // last_ts == proposed_ts: grant ts+1, publish, then ack.
            let ts = entry.last_ts + 1;
            entry.phase = Phase::Publishing;
            let key_name = entry.key_name.clone();
            let epoch = if self.cfg.fencing { entry.epoch } else { 0 };
            let token = self.token();
            self.inflight.insert(
                token,
                InflightPublish {
                    key,
                    key_name: key_name.clone(),
                    ts,
                    epoch,
                    op: req.op,
                    user: req.user,
                },
            );
            self.acts.push(MasterAction::BeginPublish {
                token,
                key,
                key_name,
                ts,
                epoch,
                patch: req.patch,
                user: req.user,
            });
            if self.cfg.fencing {
                // Pipeline the next slot's fence with this publish: the
                // fence at `ts + 1` touches none of slot `ts`'s log
                // locations, and a rival that overtakes this publish is
                // refused by the ranked put at the owner, fence or not.
                self.raise_fence(key, ts);
            }
            return;
        }
    }

    /// Fan a fence out at slot `last_ts + 1` under the entry's epoch.
    fn raise_fence(&mut self, key: Id, last_ts: u64) {
        let token = self.token();
        let Some(entry) = self.entries.get_mut(&key) else {
            return;
        };
        entry.fence = Fence {
            state: FenceState::InFlight,
            slot: last_ts + 1,
            epoch: entry.epoch,
            token,
        };
        self.fencing.insert(token, key);
        self.acts.push(MasterAction::BeginFence {
            token,
            key,
            key_name: entry.key_name.clone(),
            epoch: entry.epoch,
            last_ts,
        });
    }

    /// The embedding layer finished the log replication for `token`.
    pub fn publish_done(&mut self, token: u64, outcome: PublishOutcome) -> Vec<MasterAction> {
        let inflight = match self.inflight.remove(&token) {
            Some(i) => i,
            None => return self.drain(),
        };
        let key = inflight.key;
        // The entry can be gone mid-publish: a handoff (join split or
        // graceful leave) exported it while the log puts were in flight.
        // The outcome is still authoritative — the log is the ground truth —
        // so answer the user; the new master's probe-on-first-use (or a
        // first-writer conflict) reconciles its possibly stale last_ts.
        if !self.entries.contains_key(&key) {
            match outcome {
                PublishOutcome::Ok => {
                    self.acts.push(MasterAction::Send(
                        inflight.user.addr,
                        KtsMsg::Granted {
                            op: inflight.op,
                            ts: inflight.ts,
                            epoch: inflight.epoch,
                        },
                    ));
                    // The grant is durable in the log: it must appear in the
                    // continuity record even though we no longer master the
                    // key.
                    self.acts.push(MasterAction::Event(MasterEvent::Granted {
                        key,
                        doc: inflight.key_name.clone(),
                        ts: inflight.ts,
                    }));
                }
                PublishOutcome::Conflict => {
                    self.acts.push(MasterAction::Send(
                        inflight.user.addr,
                        KtsMsg::Redirect { op: inflight.op },
                    ));
                }
                PublishOutcome::Unreachable => {
                    self.acts.push(MasterAction::Send(
                        inflight.user.addr,
                        KtsMsg::Failed {
                            op: inflight.op,
                            reason: ValidateFailure::LogUnreachable,
                        },
                    ));
                }
            }
            return self.drain();
        }
        match outcome {
            PublishOutcome::Ok => {
                let (entry_snapshot, granted_ts) = {
                    let entry = self.entries.get_mut(&key).expect("checked above");
                    entry.last_ts = inflight.ts;
                    entry.phase = Phase::Ready;
                    (
                        HandoffEntry {
                            key,
                            key_name: entry.key_name.clone(),
                            last_ts: entry.last_ts,
                            epoch: entry.epoch,
                        },
                        inflight.ts,
                    )
                };
                self.acts.push(MasterAction::Send(
                    inflight.user.addr,
                    KtsMsg::Granted {
                        op: inflight.op,
                        ts: granted_ts,
                        epoch: inflight.epoch,
                    },
                ));
                let doc = entry_snapshot.key_name.clone();
                self.acts.push(MasterAction::ReplicateToSucc {
                    entry: entry_snapshot,
                });
                self.acts.push(MasterAction::Event(MasterEvent::Granted {
                    key,
                    doc,
                    ts: granted_ts,
                }));
            }
            PublishOutcome::Conflict => {
                // The log already holds a different record at this (key, ts):
                // a newer master exists. Stand down and make the user
                // re-locate the master; verify our state from the log before
                // serving anything else. In fenced mode our own puts may
                // additionally have landed at a minority of the slot's
                // Log-Peers before the conflict was detected, so the slot
                // may only be re-granted under a strictly higher epoch —
                // the superseding record then outranks (and displaces) any
                // partial copy of this one.
                if let Some(entry) = self.entries.get_mut(&key) {
                    entry.phase = Phase::Ready;
                    entry.probed = false;
                    if entry.fence.state != FenceState::NotNeeded {
                        entry.reset_fence();
                        entry.epoch += 1;
                    }
                }
                self.acts.push(MasterAction::Send(
                    inflight.user.addr,
                    KtsMsg::Redirect { op: inflight.op },
                ));
                self.acts
                    .push(MasterAction::Event(MasterEvent::StaleDetected { key }));
            }
            PublishOutcome::Unreachable => {
                // The fan-out died without a verdict — but individual puts
                // may still have landed (or be in flight) at some of the
                // slot's Log-Peers. In fenced mode the slot is now suspect:
                // re-verify against the log and re-grant only under a
                // strictly higher epoch behind a fresh fence, so a straggler
                // write of this grant is outranked everywhere it can land.
                // This is the takeover rule applied to our own partial write;
                // without it the same slot could be re-granted at the same
                // epoch and fork the log.
                if let Some(entry) = self.entries.get_mut(&key) {
                    entry.phase = Phase::Ready;
                    if entry.fence.state != FenceState::NotNeeded {
                        entry.probed = false;
                        entry.reset_fence();
                        entry.epoch += 1;
                    }
                }
                self.acts.push(MasterAction::Send(
                    inflight.user.addr,
                    KtsMsg::Failed {
                        op: inflight.op,
                        reason: ValidateFailure::LogUnreachable,
                    },
                ));
            }
        }
        self.pump(key);
        self.drain()
    }

    /// The embedding layer finished a log probe: `recovered` is the highest
    /// timestamp found in the log for the key (0 = none), `log_epoch` the
    /// highest master epoch stamped on any record seen (0 = legacy /
    /// fenced-mode-off records only).
    ///
    /// In fenced mode a logged epoch at or above our own proves a rival
    /// master granted under it: we advance strictly past it so our fence
    /// floor and records outrank anything that master can still produce.
    pub fn probe_done(&mut self, token: u64, recovered: u64, log_epoch: u64) -> Vec<MasterAction> {
        let key = match self.probing.remove(&token) {
            Some(k) => k,
            None => return self.drain(),
        };
        if let Some(entry) = self.entries.get_mut(&key) {
            entry.last_ts = entry.last_ts.max(recovered);
            entry.probed = true;
            entry.phase = Phase::Ready;
            if self.cfg.fencing {
                if log_epoch >= entry.epoch {
                    entry.epoch = log_epoch + 1;
                }
                // The probe may have moved `last_ts`, relocating the next
                // slot — any earlier fence no longer covers it.
                entry.reset_fence();
            }
        }
        self.pump(key);
        self.drain()
    }

    /// The embedding layer finished the fence fan-out for `token`. The
    /// fan-out may end while the previous slot still publishes (the fence
    /// runs one slot ahead); the verdict then only updates the fence, and
    /// `publish_done` serves the queue.
    pub fn fence_done(&mut self, token: u64, outcome: FenceOutcome) -> Vec<MasterAction> {
        let key = match self.fencing.remove(&token) {
            Some(k) => k,
            None => return self.drain(),
        };
        // Stale completion: the entry was handed off, restored or
        // exported, or its fence was dropped (failed publish, probe) or
        // re-raised while the fan-out was in flight. Its current fence is
        // another fan-out's business; this verdict proves nothing.
        let entry = match self.entries.get_mut(&key) {
            Some(e)
                if e.fence.state == FenceState::InFlight
                    && e.fence.token == token
                    && e.fence.epoch == e.epoch =>
            {
                e
            }
            _ => return self.drain(),
        };
        match outcome {
            FenceOutcome::Acked { occupied: false } => entry.fence.state = FenceState::Acked,
            FenceOutcome::Acked { occupied: true } => {
                // The slot we fenced already holds a record: a grant landed
                // there before the floor went up. Our `last_ts` lags the
                // log — re-probe, then fence the true next slot.
                entry.reset_fence();
                entry.probed = false;
            }
            FenceOutcome::Superseded { current } => {
                // A newer master epoch holds the floor: stand down. The
                // entry demotes to a backup carrying the winning epoch so
                // a later re-promotion starts strictly above it. A publish
                // still in flight is answered by `publish_done` from its
                // own bookkeeping — the log's verdict on it stands.
                if let Some(entry) = self.entries.remove(&key) {
                    self.backups.insert(
                        key,
                        Backup {
                            key_name: entry.key_name,
                            last_ts: entry.last_ts,
                            epoch: current.max(entry.epoch),
                        },
                    );
                    for q in entry.queue {
                        self.acts.push(MasterAction::Send(
                            q.user.addr,
                            KtsMsg::Redirect { op: q.op },
                        ));
                    }
                    self.acts
                        .push(MasterAction::Event(MasterEvent::StaleDetected { key }));
                }
                return self.drain();
            }
            FenceOutcome::Unreachable => {
                // Retry on the next pump with a queued request; the per-op
                // timeouts of the fan-out pace the retries.
                entry.reset_fence();
            }
        }
        self.pump(key);
        self.drain()
    }

    /// This node's view of the ring moved (its successor or predecessor
    /// changed). A fence is a floor at whichever peers owned its slot's
    /// log locations when the fan-out was routed; under another view the
    /// next publish may reach owners that never saw it. Every fence is
    /// dropped, and keys with queued requests raise a fresh one. Running
    /// one slot ahead keeps an acked fence across a whole idle gap, long
    /// enough for the view to change under it.
    pub fn on_ring_change(&mut self) -> Vec<MasterAction> {
        let mut waiting = Vec::new();
        for (key, e) in self.entries.iter_mut() {
            e.reset_fence();
            if !e.queue.is_empty() {
                waiting.push(*key);
            }
        }
        for key in waiting {
            self.pump(key);
        }
        self.drain()
    }

    // ---- crash recovery --------------------------------------------------

    /// Seed the authoritative table from state recovered off this node's
    /// own durable store (crash + local restart).
    ///
    /// Each entry re-enters with a bumped fencing epoch and — like a
    /// promoted backup — is re-verified against the log before first use
    /// when `probe_on_promote` is set: the disk may lag a grant that was
    /// still replicating when the node died, and another master may have
    /// granted further timestamps while it was down.
    pub fn restore_entries(&mut self, entries: Vec<HandoffEntry>) {
        let fence = self.born_fence();
        for e in entries {
            self.backups.remove(&e.key);
            self.entries.insert(
                e.key,
                KeyEntry {
                    key_name: e.key_name,
                    last_ts: e.last_ts,
                    epoch: e.epoch + 1,
                    phase: Phase::Ready,
                    probed: !self.cfg.probe_on_promote,
                    fence,
                    queue: VecDeque::new(),
                },
            );
        }
    }

    /// Seed the backup table from recovered state (Master-Succ role).
    /// Entries never regress a backup already present.
    pub fn restore_backups(&mut self, entries: Vec<HandoffEntry>) {
        for e in entries {
            if !self.entries.contains_key(&e.key) {
                self.on_replicate_entry(e);
            }
        }
    }

    // ---- backups & takeover ---------------------------------------------

    /// Store a backup entry pushed by the master we succeed.
    pub fn on_replicate_entry(&mut self, entry: HandoffEntry) {
        // Never regress: keep the max timestamp seen.
        let slot = self.backups.entry(entry.key).or_insert(Backup {
            key_name: entry.key_name.clone(),
            last_ts: 0,
            epoch: 0,
        });
        if entry.last_ts > slot.last_ts {
            slot.last_ts = entry.last_ts;
            slot.epoch = entry.epoch;
        }
    }

    /// Authoritative handoff received (graceful leave or join split).
    pub fn on_table_handoff(&mut self, entries: Vec<HandoffEntry>) -> Vec<MasterAction> {
        let count = entries.len();
        let fence = self.born_fence();
        for e in entries {
            let existing_ts = self.entries.get(&e.key).map(|x| x.last_ts).unwrap_or(0);
            let existing_epoch = self.entries.get(&e.key).map(|x| x.epoch).unwrap_or(0);
            let entry = KeyEntry {
                key_name: e.key_name,
                last_ts: e.last_ts.max(existing_ts),
                // Bump past *both* the sender's epoch and anything this
                // node already reached for the key — a handoff from a
                // low-epoch sender must never regress a local entry's
                // epoch (that would re-open the fence it sits behind).
                epoch: e.epoch.max(existing_epoch) + 1,
                phase: Phase::Ready,
                // The old master may have exported while one of its grants
                // was still replicating to the log, so the handed-over
                // last_ts can lag by one. Verify against the log on first
                // use (lazily, like promoted backups).
                probed: !self.cfg.probe_on_promote,
                fence,
                queue: self
                    .entries
                    .remove(&e.key)
                    .map(|old| old.queue)
                    .unwrap_or_default(),
            };
            self.entries.insert(e.key, entry);
            self.backups.remove(&e.key);
            self.pump(e.key);
        }
        self.acts
            .push(MasterAction::Event(MasterEvent::HandoffReceived { count }));
        self.drain()
    }

    /// Extract the authoritative entries in the ring arc `(from, to]` —
    /// called when a newly joined master takes over that range. The entries
    /// are kept locally as backups (we are the new master's successor).
    pub fn export_range(&mut self, from: Id, to: Id) -> (Vec<HandoffEntry>, Vec<MasterAction>) {
        let keys: Vec<Id> = self
            .entries
            .keys()
            .copied()
            .filter(|k| k.in_half_open(from, to))
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let e = self.entries.remove(&k).expect("listed");
            self.backups.insert(
                k,
                Backup {
                    key_name: e.key_name.clone(),
                    last_ts: e.last_ts,
                    epoch: e.epoch,
                },
            );
            out.push(HandoffEntry {
                key: k,
                key_name: e.key_name,
                last_ts: e.last_ts,
                epoch: e.epoch,
            });
            // Queued requests for exported keys are redirected.
            for q in e.queue {
                self.acts.push(MasterAction::Send(
                    q.user.addr,
                    KtsMsg::Redirect { op: q.op },
                ));
            }
        }
        if !out.is_empty() {
            self.acts.push(MasterAction::Event(MasterEvent::HandedOff {
                count: out.len(),
            }));
        }
        (out, self.drain())
    }

    /// Extract **all** authoritative entries (graceful leave).
    pub fn export_all(&mut self) -> (Vec<HandoffEntry>, Vec<MasterAction>) {
        let keys: Vec<Id> = self.entries.keys().copied().collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            let e = self.entries.remove(&k).expect("listed");
            out.push(HandoffEntry {
                key: k,
                key_name: e.key_name,
                last_ts: e.last_ts,
                epoch: e.epoch,
            });
            for q in e.queue {
                self.acts.push(MasterAction::Send(
                    q.user.addr,
                    KtsMsg::Redirect { op: q.op },
                ));
            }
        }
        if !out.is_empty() {
            self.acts.push(MasterAction::Event(MasterEvent::HandedOff {
                count: out.len(),
            }));
        }
        (out, self.drain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::NodeId;

    fn user(n: u32) -> NodeRef {
        NodeRef::new(NodeId(n), Id(n as u64 * 1000))
    }

    fn key() -> Id {
        Id(42)
    }

    fn patch() -> Bytes {
        Bytes::from_static(b"patch")
    }

    fn cfg_no_probe() -> KtsConfig {
        KtsConfig {
            probe_unknown_keys: false,
            probe_on_promote: false,
            fencing: false,
            ..KtsConfig::default()
        }
    }

    /// Probing on, fencing off — the legacy default, which the pre-fencing
    /// tests below exercise.
    fn cfg_probe_no_fence() -> KtsConfig {
        KtsConfig {
            fencing: false,
            ..KtsConfig::default()
        }
    }

    /// Fencing on, probing off — isolates the fence stage.
    fn cfg_fence_only() -> KtsConfig {
        KtsConfig {
            probe_unknown_keys: false,
            probe_on_promote: false,
            fencing: true,
            ..KtsConfig::default()
        }
    }

    /// Extract the single BeginFence (token, epoch, last_ts) from actions.
    fn fence_req(acts: &[MasterAction]) -> (u64, u64, u64) {
        acts.iter()
            .find_map(|a| match a {
                MasterAction::BeginFence {
                    token,
                    epoch,
                    last_ts,
                    ..
                } => Some((*token, *epoch, *last_ts)),
                _ => None,
            })
            .expect("no BeginFence")
    }

    /// Extract the single BeginPublish token from actions.
    fn publish_token(acts: &[MasterAction]) -> u64 {
        acts.iter()
            .find_map(|a| match a {
                MasterAction::BeginPublish { token, .. } => Some(*token),
                _ => None,
            })
            .expect("no BeginPublish")
    }

    #[test]
    fn first_validate_grants_ts_1() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let token = publish_token(&acts);
        let acts = m.publish_done(token, PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 1, .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::ReplicateToSucc { .. })));
        assert_eq!(m.last_ts(key()), 1);
    }

    #[test]
    fn continuous_timestamps_across_grants() {
        let mut m = KtsMaster::new(cfg_no_probe());
        for expect in 1..=5u64 {
            let acts = m.on_validate(
                key(),
                &DocName::new("doc"),
                ReqId(expect),
                expect - 1,
                patch(),
                user(1),
                true,
            );
            let token = publish_token(&acts);
            let acts = m.publish_done(token, PublishOutcome::Ok);
            let granted = acts
                .iter()
                .find_map(|a| match a {
                    MasterAction::Send(_, KtsMsg::Granted { ts, .. }) => Some(*ts),
                    _ => None,
                })
                .unwrap();
            assert_eq!(granted, expect);
        }
    }

    #[test]
    fn behind_user_gets_retry() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let t = publish_token(&m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        ));
        m.publish_done(t, PublishOutcome::Ok);
        // Second user still at ts 0.
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            0,
            patch(),
            user(2),
            true,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Retry { last_ts: 1, .. }))));
    }

    #[test]
    fn concurrent_validates_serialized_per_key() {
        let mut m = KtsMaster::new(cfg_no_probe());
        // Two users race at proposed_ts=0; the first grant starts publishing,
        // the second stays queued.
        let acts1 = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let t1 = publish_token(&acts1);
        let acts2 = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            0,
            patch(),
            user(2),
            true,
        );
        assert!(
            !acts2
                .iter()
                .any(|a| matches!(a, MasterAction::BeginPublish { .. })),
            "second publish must wait for the first"
        );
        // First completes; the queued request is now behind (last_ts=1) and
        // receives a Retry.
        let acts = m.publish_done(t1, PublishOutcome::Ok);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(to, KtsMsg::Retry { last_ts: 1, .. }) if *to == NodeId(2)
        )));
    }

    #[test]
    fn not_responsible_redirects() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            false,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Redirect { .. }))));
        assert_eq!(m.mastered_count(), 0);
    }

    #[test]
    fn conflict_marks_stale_and_redirects() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let t = publish_token(&m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        ));
        let acts = m.publish_done(t, PublishOutcome::Conflict);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Redirect { .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::StaleDetected { .. }))));
        assert_eq!(m.last_ts(key()), 0, "no grant on conflict");
    }

    #[test]
    fn unreachable_log_fails_request_but_keeps_state() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let t = publish_token(&m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        ));
        let acts = m.publish_done(t, PublishOutcome::Unreachable);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Failed {
                    reason: ValidateFailure::LogUnreachable,
                    ..
                }
            )
        )));
        assert_eq!(m.last_ts(key()), 0);
        // A retry can now succeed.
        let t = publish_token(&m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            0,
            patch(),
            user(1),
            true,
        ));
        let acts = m.publish_done(t, PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 1, .. }))));
    }

    #[test]
    fn probe_unknown_key_before_first_grant() {
        let cfg = cfg_probe_no_fence(); // probing on
        let mut m = KtsMaster::new(cfg);
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let probe_token = acts
            .iter()
            .find_map(|a| match a {
                MasterAction::BeginProbe { token, .. } => Some(*token),
                _ => None,
            })
            .expect("must probe unknown key");
        assert!(!acts
            .iter()
            .any(|a| matches!(a, MasterAction::BeginPublish { .. })));
        // Probe finds 3 patches already in the log (state was lost).
        let acts = m.probe_done(probe_token, 3, 0);
        // The queued user (at ts 0) is behind -> Retry with last_ts 3.
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Retry { last_ts: 3, .. }))));
        assert_eq!(m.last_ts(key()), 3);
    }

    #[test]
    fn lastts_read_triggers_probe_of_restored_entry() {
        // A master restored from its journal answers anti-entropy reads
        // from state that may lag the log (the takeover master granted
        // while we were down). The read itself is best-effort, but it
        // must kick off the verification probe so the *next* read serves
        // the log's truth — otherwise idle replicas would never pull the
        // missing patches (the master-crash-storm convergence bug).
        let mut m = KtsMaster::new(cfg_probe_no_fence()); // probing on
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: DocName::new("doc"),
            last_ts: 4,
            epoch: 1,
        }]);
        let acts = m.on_last_ts(key(), ReqId(9), user(1), 0);
        // Best-effort reply from current knowledge…
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(_, KtsMsg::LastTsReply { last_ts: 4, .. })
        )));
        // …but the probe starts.
        let probe_token = acts
            .iter()
            .find_map(|a| match a {
                MasterAction::BeginProbe { token, .. } => Some(*token),
                _ => None,
            })
            .expect("read of an unprobed entry must start the probe");
        // The log actually holds 5 grants; the next read is authoritative.
        m.probe_done(probe_token, 5, 0);
        let acts = m.on_last_ts(key(), ReqId(10), user(1), 0);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(_, KtsMsg::LastTsReply { last_ts: 5, .. })
        )));
        // And no second probe fires for the now-verified entry.
        assert!(!acts
            .iter()
            .any(|a| matches!(a, MasterAction::BeginProbe { .. })));
    }

    #[test]
    fn user_ahead_triggers_reprobe() {
        let mut m = KtsMaster::new(cfg_no_probe());
        // Master thinks 0, user proposes 2 (it integrated 2 patches from the
        // log that we never saw — we are a recovered master with lost state).
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            2,
            patch(),
            user(1),
            true,
        );
        let probe_token = acts
            .iter()
            .find_map(|a| match a {
                MasterAction::BeginProbe { token, .. } => Some(*token),
                _ => None,
            })
            .expect("user-ahead must trigger probe");
        let acts = m.probe_done(probe_token, 2, 0);
        // Now last_ts == proposed: grant 3.
        let t = publish_token(&acts);
        let acts = m.publish_done(t, PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 3, .. }))));
    }

    #[test]
    fn backup_promotion_on_first_touch() {
        let mut m = KtsMaster::new(cfg_no_probe());
        m.on_replicate_entry(HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 7,
            epoch: 1,
        });
        assert_eq!(m.backup_count(), 1);
        assert_eq!(m.last_ts(key()), 7);
        // First validate after our predecessor died: promote, then serve.
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            7,
            patch(),
            user(1),
            true,
        );
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::Promoted { .. }))));
        let t = publish_token(&acts);
        let acts = m.publish_done(t, PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 8, .. }))));
        assert_eq!(m.backup_count(), 0);
    }

    #[test]
    fn backup_never_regresses() {
        let mut m = KtsMaster::new(cfg_no_probe());
        m.on_replicate_entry(HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 7,
            epoch: 1,
        });
        m.on_replicate_entry(HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 5,
            epoch: 1,
        });
        assert_eq!(m.last_ts(key()), 7);
    }

    #[test]
    fn handoff_roundtrip_preserves_state() {
        let mut a = KtsMaster::new(cfg_no_probe());
        let t = publish_token(&a.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        ));
        a.publish_done(t, PublishOutcome::Ok);
        let (entries, _acts) = a.export_all();
        assert_eq!(entries.len(), 1);
        assert_eq!(a.mastered_count(), 0);

        let mut b = KtsMaster::new(cfg_no_probe());
        b.on_table_handoff(entries);
        assert_eq!(b.last_ts(key()), 1);
        // Continuity across the handoff: next grant is 2.
        let t = publish_token(&b.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            1,
            patch(),
            user(2),
            true,
        ));
        let acts = b.publish_done(t, PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 2, .. }))));
    }

    #[test]
    fn export_range_keeps_backup_copies() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let k1 = Id(10);
        let k2 = Id(1000);
        for (k, op) in [(k1, 1u64), (k2, 2)] {
            let t = publish_token(&m.on_validate(
                k,
                &DocName::new("d"),
                ReqId(op),
                0,
                patch(),
                user(1),
                true,
            ));
            m.publish_done(t, PublishOutcome::Ok);
        }
        let (exported, _) = m.export_range(Id(0), Id(100));
        assert_eq!(exported.len(), 1);
        assert_eq!(exported[0].key, k1);
        assert_eq!(m.mastered_count(), 1);
        assert_eq!(m.backup_count(), 1);
        assert_eq!(m.last_ts(k1), 1, "backup copy retained");
    }

    #[test]
    fn restored_entries_verify_against_log_then_resume_continuity() {
        // Crash recovery: disk said last_ts=3, but a grant for ts=4 was
        // in flight when we died. The restored entry must re-probe before
        // serving and then continue the sequence at 5.
        let mut m = KtsMaster::new(cfg_probe_no_fence()); // probing on
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 3,
            epoch: 2,
        }]);
        assert_eq!(m.last_ts(key()), 3);
        assert_eq!(m.mastered_count(), 1);
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            4,
            patch(),
            user(1),
            true,
        );
        let probe_token = acts
            .iter()
            .find_map(|a| match a {
                MasterAction::BeginProbe { token, .. } => Some(*token),
                _ => None,
            })
            .expect("restored entry must probe before first grant");
        let acts = m.probe_done(probe_token, 4, 0);
        let t = publish_token(&acts);
        let acts = m.publish_done(t, PublishOutcome::Ok);
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Granted { ts: 5, .. }))));
    }

    #[test]
    fn restored_backups_do_not_shadow_authoritative_entries() {
        let mut m = KtsMaster::new(cfg_no_probe());
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 9,
            epoch: 1,
        }]);
        m.restore_backups(vec![
            HandoffEntry {
                key: key(), // already authoritative: ignored
                key_name: "doc".into(),
                last_ts: 2,
                epoch: 1,
            },
            HandoffEntry {
                key: Id(77),
                key_name: "other".into(),
                last_ts: 4,
                epoch: 1,
            },
        ]);
        assert_eq!(m.mastered_count(), 1);
        assert_eq!(m.backup_count(), 1);
        assert_eq!(m.last_ts(key()), 9);
        assert_eq!(m.last_ts(Id(77)), 4);
    }

    #[test]
    fn queue_overflow_sheds_load() {
        let cfg = KtsConfig {
            probe_unknown_keys: false,
            probe_on_promote: false,
            max_queue_per_key: 2,
            ..KtsConfig::default()
        };
        let mut m = KtsMaster::new(cfg);
        // First takes the publish slot; 2 queue; the 4th overflows.
        let _ = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let _ = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            0,
            patch(),
            user(2),
            true,
        );
        let _ = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(3),
            0,
            patch(),
            user(3),
            true,
        );
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(4),
            0,
            patch(),
            user(4),
            true,
        );
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Failed {
                    reason: ValidateFailure::Overloaded,
                    ..
                }
            )
        )));
    }

    // ---- grant fencing ---------------------------------------------------

    #[test]
    fn fenced_grant_waits_for_fence_ack() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, epoch, last_ts) = fence_req(&acts);
        assert_eq!(
            (epoch, last_ts),
            (1, 0),
            "fresh key fences slot 1 at epoch 1"
        );
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, MasterAction::BeginPublish { .. })),
            "no publish before the fence is acked"
        );
        // The grant of slot 1 raises slot 2's fence in the same batch.
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        let t1 = publish_token(&acts);
        let (ft2, epoch2, last2) = fence_req(&acts);
        assert_eq!((epoch2, last2), (1, 1), "pipelined fence for slot 2");
        assert_eq!(m.fence_state(key()), Some(FenceState::InFlight));
        // A second request queues behind the publish; slot 2's fence acks
        // while slot 1 is still publishing.
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            1,
            patch(),
            user(2),
            true,
        );
        assert!(acts.is_empty(), "queued behind the publish: {acts:?}");
        let acts = m.fence_done(ft2, FenceOutcome::Acked { occupied: false });
        assert!(acts.is_empty(), "the ack alone serves nothing: {acts:?}");
        assert_eq!(m.fence_state(key()), Some(FenceState::Acked));
        // Slot 1's publish completes and slot 2 publishes at once, with
        // slot 3's fence riding along.
        let acts = m.publish_done(t1, PublishOutcome::Ok);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Granted {
                    ts: 1,
                    epoch: 1,
                    ..
                }
            )
        )));
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::BeginPublish {
                ts: 2,
                epoch: 1,
                ..
            }
        )));
        let (_, epoch3, last3) = fence_req(&acts);
        assert_eq!((epoch3, last3), (1, 2));
    }

    #[test]
    fn superseded_pipelined_fence_mid_publish_still_grants() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        let t = publish_token(&acts);
        let (ft2, _, _) = fence_req(&acts);
        // A newer epoch already holds slot 2's floor: demote mid-publish.
        let acts = m.fence_done(ft2, FenceOutcome::Superseded { current: 4 });
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::StaleDetected { .. }))));
        assert_eq!(m.mastered_count(), 0, "demoted");
        assert_eq!(m.backup_count(), 1);
        // Slot 1's publish was accepted by the log: the grant stands.
        let acts = m.publish_done(t, PublishOutcome::Ok);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(
                _,
                KtsMsg::Granted {
                    ts: 1,
                    epoch: 1,
                    ..
                }
            )
        )));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::Granted { ts: 1, .. }))));
    }

    #[test]
    fn unreachable_pipelined_fence_waits_for_demand() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        let t = publish_token(&acts);
        let (ft2, _, _) = fence_req(&acts);
        m.publish_done(t, PublishOutcome::Ok);
        // The key is idle when slot 2's fence comes back unreachable: no
        // retry until a request needs the slot.
        let acts = m.fence_done(ft2, FenceOutcome::Unreachable);
        assert!(
            !acts
                .iter()
                .any(|a| matches!(a, MasterAction::BeginFence { .. })),
            "idle key must not retry: {acts:?}"
        );
        assert_eq!(m.fence_state(key()), Some(FenceState::Pending));
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            1,
            patch(),
            user(1),
            true,
        );
        let (ft3, epoch, last_ts) = fence_req(&acts);
        assert_ne!(ft3, ft2);
        assert_eq!((epoch, last_ts), (1, 1));
        assert!(!acts
            .iter()
            .any(|a| matches!(a, MasterAction::BeginPublish { .. })));
    }

    #[test]
    fn superseded_fence_demotes_to_backup() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Superseded { current: 5 });
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Send(_, KtsMsg::Redirect { .. }))));
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::Event(MasterEvent::StaleDetected { .. }))));
        assert_eq!(m.mastered_count(), 0, "demoted");
        assert_eq!(m.backup_count(), 1);
        // Re-promotion starts strictly above the winning floor.
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            0,
            patch(),
            user(1),
            true,
        );
        let (_, epoch, _) = fence_req(&acts);
        assert_eq!(epoch, 6, "max(current 5, own 1) + 1");
    }

    #[test]
    fn occupied_fence_slot_forces_reprobe_and_epoch_advance() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        // Slot 1 was already published before our floor went up.
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: true });
        let probe_token = acts
            .iter()
            .find_map(|a| match a {
                MasterAction::BeginProbe { token, .. } => Some(*token),
                _ => None,
            })
            .expect("occupied slot must trigger a re-probe");
        // The probe finds the rival's grant: ts 1 stamped under epoch 2.
        let acts = m.probe_done(probe_token, 1, 2);
        let (_, epoch, last_ts) = fence_req(&acts);
        assert_eq!(last_ts, 1, "fence moved to the true next slot");
        assert_eq!(epoch, 3, "advanced strictly past the logged epoch");
        assert_eq!(m.entry_epoch(key()), Some(3));
    }

    #[test]
    fn unreachable_fence_retries_on_demand() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Unreachable);
        // The queued request still needs serving: a fresh fan-out fires.
        let (ft2, _, _) = fence_req(&acts);
        assert_ne!(ft2, ft);
    }

    #[test]
    fn ring_change_drops_fences() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        let t = publish_token(&acts);
        let (ft2, _, _) = fence_req(&acts);
        m.fence_done(ft2, FenceOutcome::Acked { occupied: false });
        m.publish_done(t, PublishOutcome::Ok);
        assert_eq!(m.fence_state(key()), Some(FenceState::Acked));
        // The idle key's acked fence does not survive a new ring view.
        assert!(m.on_ring_change().is_empty(), "idle: nothing to re-raise");
        assert_eq!(m.fence_state(key()), Some(FenceState::Pending));
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(2),
            1,
            patch(),
            user(1),
            true,
        );
        let (ft3, epoch, last_ts) = fence_req(&acts);
        assert_eq!((epoch, last_ts), (1, 1), "same epoch, fresh fan-out");
        // A queued request re-raises at once, and the superseded
        // fan-out's verdict is ignored.
        let acts = m.on_ring_change();
        let (ft4, _, _) = fence_req(&acts);
        assert_ne!(ft4, ft3);
        assert!(m
            .fence_done(ft3, FenceOutcome::Acked { occupied: false })
            .is_empty());
        let acts = m.fence_done(ft4, FenceOutcome::Acked { occupied: false });
        assert!(acts
            .iter()
            .any(|a| matches!(a, MasterAction::BeginPublish { ts: 2, .. })));
    }

    #[test]
    fn legacy_mode_never_fences() {
        let mut m = KtsMaster::new(cfg_no_probe());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        assert!(!acts
            .iter()
            .any(|a| matches!(a, MasterAction::BeginFence { .. })));
        assert_eq!(m.fence_state(key()), Some(FenceState::NotNeeded));
        let t = publish_token(&acts);
        let acts = m.publish_done(t, PublishOutcome::Ok);
        assert!(
            acts.iter().any(|a| matches!(
                a,
                MasterAction::Send(
                    _,
                    KtsMsg::Granted {
                        ts: 1,
                        epoch: 0,
                        ..
                    }
                )
            )),
            "legacy grants carry epoch 0"
        );
    }

    #[test]
    fn probed_entry_reprobes_when_reader_is_ahead() {
        // The churn-matrix residual: an idle replica that integrated ts 3
        // asks a master whose (probed but stale) table says 1. The read
        // must trigger re-verification, not serve 1 forever.
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        let acts = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        m.publish_done(publish_token(&acts), PublishOutcome::Ok);
        assert_eq!(m.last_ts(key()), 1);
        let acts = m.on_last_ts(key(), ReqId(9), user(2), 3);
        let probe_token = acts
            .iter()
            .find_map(|a| match a {
                MasterAction::BeginProbe { token, .. } => Some(*token),
                _ => None,
            })
            .expect("reader ahead of a probed entry must re-probe");
        m.probe_done(probe_token, 3, 0);
        let acts = m.on_last_ts(key(), ReqId(10), user(2), 3);
        assert!(acts.iter().any(|a| matches!(
            a,
            MasterAction::Send(_, KtsMsg::LastTsReply { last_ts: 3, .. })
        )));
    }

    #[test]
    fn handoff_epoch_never_regresses() {
        let mut m = KtsMaster::new(cfg_fence_only());
        m.restore_entries(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 3,
            epoch: 7,
        }]);
        assert_eq!(m.entry_epoch(key()), Some(8));
        // A lagging old master hands the key over with a stale epoch.
        m.on_table_handoff(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 3,
            epoch: 2,
        }]);
        assert_eq!(m.entry_epoch(key()), Some(9), "max(2, 8) + 1");
    }

    #[test]
    fn stale_fence_completion_cannot_ack_new_epoch() {
        let mut m = KtsMaster::new(cfg_fence_only());
        let acts = m.on_validate(
            key(),
            &DocName::new("doc"),
            ReqId(1),
            0,
            patch(),
            user(1),
            true,
        );
        let (ft, _, _) = fence_req(&acts);
        // A handoff bumps the epoch while the fan-out is in flight (and
        // re-pumps, starting its own fence under the new epoch).
        m.on_table_handoff(vec![HandoffEntry {
            key: key(),
            key_name: "doc".into(),
            last_ts: 0,
            epoch: 4,
        }]);
        assert_eq!(m.entry_epoch(key()), Some(5));
        let _ = m.fence_done(ft, FenceOutcome::Acked { occupied: false });
        assert_eq!(
            m.fence_state(key()),
            Some(FenceState::InFlight),
            "the superseded completion must not ack the new entry's fence"
        );
    }
}
