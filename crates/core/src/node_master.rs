//! Master-side wiring: KTS message handling, publish fan-out, record
//! push to standing reads, last-ts backups, and log-probe recovery.

use kts::{KtsMsg, MasterAction, MasterEvent, ReqId};
use p2plog::{FenceResponse, FenceTracker, FenceVerdict, LogProbe, PublishTracker};
use simnet::{Ctx, NodeId, Time};

use crate::events::LtrEventKind;
use crate::node::{FenceCtx, LtrNode, OpPurpose, ProbeCtx, PublishCtx, Watch};
use crate::payload::Payload;

impl LtrNode {
    /// Route an incoming KTS message.
    pub(crate) fn on_kts_msg(&mut self, ctx: &mut Ctx<'_, Payload>, _from: NodeId, msg: KtsMsg) {
        match msg {
            KtsMsg::Validate {
                op,
                key,
                key_name,
                proposed_ts,
                patch,
                user,
            } => {
                let responsible = self.chord.is_responsible(key);
                ctx.metrics().incr_id(self.c().kts_validate_received);
                let acts =
                    self.kts
                        .on_validate(key, &key_name, op, proposed_ts, patch, user, responsible);
                self.apply_master_actions(ctx, acts);
            }
            KtsMsg::LastTs {
                op,
                key,
                user,
                known_ts,
            } => {
                let acts = self.kts.on_last_ts(key, op, user, known_ts);
                self.apply_master_actions(ctx, acts);
                self.watch(ctx.now(), key, user.addr, op);
            }
            KtsMsg::ReplicateEntry {
                key,
                key_name,
                last_ts,
                epoch,
            } => {
                let entry = kts::HandoffEntry {
                    key,
                    key_name,
                    last_ts,
                    epoch,
                };
                self.persist(
                    ctx,
                    &store::StoreEntry::KtsBackup {
                        entry: entry.clone(),
                    },
                );
                self.kts.on_replicate_entry(entry);
                ctx.metrics().incr_id(self.c().kts_backup_entries_received);
            }
            KtsMsg::TableHandoff { entries } => {
                let count = entries.len();
                for e in &entries {
                    self.persist(ctx, &store::StoreEntry::KtsAuth { entry: e.clone() });
                }
                let acts = self.kts.on_table_handoff(entries);
                self.apply_master_actions(ctx, acts);
                self.record(ctx.now(), LtrEventKind::TableReceived { count });
            }
            // Replies to *our* user-side requests.
            KtsMsg::Granted { op, ts, epoch } => self.on_validate_granted(ctx, op, ts, epoch),
            KtsMsg::Retry { op, last_ts } => self.on_validate_retry(ctx, op, last_ts),
            KtsMsg::Redirect { op } => self.on_validate_redirect(ctx, op),
            KtsMsg::Failed { op, reason } => self.on_validate_failed(ctx, op, reason),
            KtsMsg::LastTsReply {
                op,
                key,
                last_ts,
                record,
            } => {
                if record.is_empty() {
                    self.on_lastts_reply(ctx, op, last_ts);
                } else {
                    self.on_pushed_record(ctx, key, last_ts, &record);
                }
            }
        }
    }

    /// Execute the effects requested by the KTS master state machine.
    pub(crate) fn apply_master_actions(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        actions: Vec<MasterAction>,
    ) {
        for act in actions {
            match act {
                MasterAction::Send(to, msg) => ctx.send(to, Payload::Kts(msg)),
                MasterAction::BeginPublish {
                    token,
                    key,
                    key_name,
                    ts,
                    epoch,
                    patch,
                    user,
                } => {
                    self.begin_publish(ctx, token, key, &key_name, ts, epoch, patch, user.addr);
                }
                MasterAction::BeginProbe {
                    token,
                    key: _,
                    key_name,
                    base,
                } => {
                    let probe = LogProbe::new(key_name, base, self.cfg.log.replication);
                    self.probes.insert(
                        token,
                        ProbeCtx {
                            probe,
                            max_epoch: 0,
                        },
                    );
                    ctx.metrics().incr_id(self.c().kts_probes_started);
                    self.pump_probe(ctx, token);
                }
                MasterAction::BeginFence {
                    token,
                    key: _,
                    key_name,
                    epoch,
                    last_ts,
                } => {
                    self.begin_fence(ctx, token, &key_name, epoch, last_ts);
                }
                MasterAction::ReplicateToSucc { entry } => {
                    // The entry snapshot is exactly what changed in our
                    // authoritative table: the durable record of the grant.
                    self.persist(
                        ctx,
                        &store::StoreEntry::KtsAuth {
                            entry: entry.clone(),
                        },
                    );
                    let succ = self.chord.successor();
                    if succ.addr != self.me.addr {
                        ctx.send(
                            succ.addr,
                            Payload::Kts(KtsMsg::ReplicateEntry {
                                key: entry.key,
                                key_name: entry.key_name,
                                last_ts: entry.last_ts,
                                epoch: entry.epoch,
                            }),
                        );
                    }
                }
                MasterAction::Event(ev) => self.on_master_event(ctx, ev),
            }
        }
    }

    /// Start the log replication of a freshly granted patch:
    /// `Put(h_i(key+ts), record)` for every replication hash. Unfenced
    /// grants use first-writer mode (the log arbitrates duelling masters);
    /// fenced grants (`epoch > 0`) stamp the record with the master epoch
    /// and use ranked mode, so a higher-epoch master's record displaces a
    /// superseded rival's at the same slot.
    #[allow(clippy::too_many_arguments)] // mirrors MasterAction::BeginPublish
    fn begin_publish(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        key: chord::Id,
        doc: &p2plog::DocName,
        ts: u64,
        epoch: u64,
        patch: bytes::Bytes,
        user: NodeId,
    ) {
        let n = self.cfg.log.replication;
        // Author for bookkeeping: patches are self-describing.
        let author = ot::decode_patch(&patch).map(|p| p.author).unwrap_or(0);
        let record = p2plog::LogRecord::new(doc.as_str(), ts, author, patch).with_epoch(epoch);
        let bytes = record.encode();
        let mode = if epoch > 0 {
            chord::PutMode::Ranked
        } else {
            chord::PutMode::FirstWriter
        };
        let tracker = PublishTracker::new(n, self.cfg.log.ack_policy);
        // Register the tracker *before* issuing puts: a put to a key we own
        // completes synchronously.
        self.publishes.insert(
            token,
            PublishCtx {
                tracker,
                key,
                ts,
                record: bytes.clone(),
                author: user,
            },
        );
        ctx.metrics().incr_id(self.c().log_publishes);
        for loc in p2plog::log_locations_iter(n, doc, ts) {
            self.issue_log_put(ctx, token, loc, bytes.clone(), mode);
        }
    }

    /// Register a `LastTs` probe as a standing read on `key`, when this
    /// node masters the key and anti-entropy is on (a push is only ever a
    /// shortcut ahead of the poll, never a replacement for it).
    fn watch(&mut self, now: Time, key: chord::Id, replica: NodeId, op: ReqId) {
        if self.cfg.sync_every.is_some() && self.kts.masters(key) {
            self.watchers
                .entry(key)
                .or_default()
                .insert(replica, Watch { op, seen: now });
        }
    }

    /// Forget the standing reads on keys this node no longer masters
    /// (run on each sync tick). Until then a key handed off mid-publish
    /// can still push that publish's record, which is as durable as the
    /// `Granted` sent with it.
    pub(crate) fn drop_unmastered_watchers(&mut self) {
        let kts = &self.kts;
        self.watchers.retain(|key, _| kts.masters(*key));
    }

    /// A publish landed: push its record to every replica watching the
    /// key, so each integrates it one hop after the grant instead of at
    /// its next poll. A watcher not heard from in two sync periods is
    /// dropped first; the author is skipped (it gets `Granted`).
    pub(crate) fn push_record(&mut self, ctx: &mut Ctx<'_, Payload>, publish: PublishCtx) {
        let Some(period) = self.cfg.sync_every else {
            return;
        };
        let c = self.c();
        let Some(watchers) = self.watchers.get_mut(&publish.key) else {
            return;
        };
        let now = ctx.now();
        watchers.retain(|_, w| now.since(w.seen) <= period * 2);
        for (&to, w) in watchers.iter() {
            if to == publish.author {
                continue;
            }
            ctx.send(
                to,
                Payload::Kts(KtsMsg::LastTsReply {
                    op: w.op,
                    key: publish.key,
                    last_ts: publish.ts,
                    record: publish.record.clone(),
                }),
            );
            ctx.metrics().incr_id(c.push_sent);
        }
        if watchers.is_empty() {
            self.watchers.remove(&publish.key);
        }
    }

    /// Fan a grant fence out to the `n` log locations of the next slot
    /// (`last_ts + 1`): each location op raises the epoch floor at the
    /// slot's owner. A strict-majority quorum must hold the floor before
    /// the master serves the key — any rival fencing the same slot
    /// overlaps in at least one location and loses the floor arbitration
    /// there.
    fn begin_fence(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        doc: &p2plog::DocName,
        epoch: u64,
        last_ts: u64,
    ) {
        let n = self.cfg.log.replication;
        let tracker = FenceTracker::new(n);
        // Register before issuing: a fence on a key we own completes
        // synchronously.
        self.fences.insert(token, FenceCtx { tracker });
        ctx.metrics().incr_id(self.c().kts_fences_started);
        let keys: Vec<chord::Id> = p2plog::log_locations_iter(n, doc, last_ts + 1).collect();
        for key in keys {
            let (op, actions) = self.chord.fence(ctx.now(), key, epoch);
            self.chord_ops.insert(op, OpPurpose::Fence { token });
            self.apply_chord_actions(ctx, actions);
        }
    }

    /// Feed one location's response into the fence tracker; complete the
    /// fence when the verdict is decidable.
    pub(crate) fn on_fence_response(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        resp: FenceResponse,
    ) {
        let verdict = match self.fences.get_mut(&token) {
            Some(f) => f.tracker.on_response(resp),
            None => return,
        };
        if let Some(v) = verdict {
            self.fences.remove(&token);
            let outcome = match v {
                FenceVerdict::Acked { occupied } => {
                    ctx.metrics().incr_id(self.c().kts_fences_acked);
                    kts::FenceOutcome::Acked { occupied }
                }
                FenceVerdict::Superseded { current } => {
                    ctx.metrics().incr_id(self.c().kts_fences_superseded);
                    kts::FenceOutcome::Superseded { current }
                }
                FenceVerdict::Unreachable => kts::FenceOutcome::Unreachable,
            };
            let acts = self.kts.fence_done(token, outcome);
            self.apply_master_actions(ctx, acts);
        }
    }

    /// Drive a probe: issue its next fetch or complete it.
    pub(crate) fn pump_probe(&mut self, ctx: &mut Ctx<'_, Payload>, token: u64) {
        let cmd = match self.probes.get(&token) {
            Some(p) => p.probe.next_cmd(),
            None => return,
        };
        match cmd {
            Some(cmd) => {
                let (op, actions) = self.chord.get(ctx.now(), cmd.key);
                self.chord_ops.insert(op, OpPurpose::ProbeFetch { token });
                self.apply_chord_actions(ctx, actions);
            }
            None => {
                let (result, max_epoch) = self
                    .probes
                    .remove(&token)
                    .map(|p| (p.probe.result().unwrap_or(0), p.max_epoch))
                    .unwrap_or((0, 0));
                let acts = self.kts.probe_done(token, result, max_epoch);
                self.apply_master_actions(ctx, acts);
            }
        }
    }

    /// A probe fetch failed operationally (owner unreachable). Absence
    /// must never be inferred from unreachability: an under-estimated
    /// `last_ts` would let this master grant a timestamp the log already
    /// holds — the duplicate-grant/split-record path. Re-issue the same
    /// fetch (the embedded re-lookup routes around churn); while the
    /// probe is pending the key simply stays unserved, which is the
    /// correct behaviour when the log is unreachable.
    pub(crate) fn on_probe_unreachable(&mut self, ctx: &mut Ctx<'_, Payload>, token: u64) {
        if self.probes.contains_key(&token) {
            ctx.metrics().incr_id(self.c().probe_refetches);
            // `pump_probe` without `on_result` re-issues the pending cmd.
            self.pump_probe(ctx, token);
        }
    }

    /// A probe fetch returned. The record bytes (when present) also carry
    /// the epoch of the master that published the slot — tracked so the
    /// probing master fences above it.
    pub(crate) fn on_probe_result(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        token: u64,
        value: Option<&bytes::Bytes>,
    ) {
        if let Some(p) = self.probes.get_mut(&token) {
            p.probe.on_result(value.is_some());
            if let Some(v) = value {
                p.max_epoch = p.max_epoch.max(chord::value_rank(v));
            }
        }
        self.pump_probe(ctx, token);
    }

    fn on_master_event(&mut self, ctx: &mut Ctx<'_, Payload>, ev: MasterEvent) {
        let now = ctx.now();
        match ev {
            MasterEvent::Granted { key: _, doc, ts } => {
                ctx.metrics().incr_id(self.c().kts_grants);
                self.record(now, LtrEventKind::MasterGranted { doc, ts });
            }
            MasterEvent::StaleDetected { key } => {
                ctx.metrics().incr_id(self.c().kts_stale_detected);
                self.record(now, LtrEventKind::StaleMasterStoodDown { doc_key: key });
            }
            MasterEvent::Promoted { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().kts_backups_promoted, count as u64);
                self.record(now, LtrEventKind::BackupsPromoted { count });
            }
            MasterEvent::HandedOff { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().kts_entries_handed_off, count as u64);
            }
            MasterEvent::HandoffReceived { count } => {
                ctx.metrics()
                    .incr_id_by(self.c().kts_entries_handoff_received, count as u64);
            }
        }
    }
}
