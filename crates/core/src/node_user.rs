//! User-peer procedures (RR-6497 §3):
//!
//! 1. **Edit a page locally** — produces a tentative patch (diff of the
//!    save against the working copy);
//! 2. **Validate the tentative patch timestamp** — locate the Master-key
//!    via `ht(doc)`, send `Validate(proposed_ts = local ts)`; on `Retry`,
//!    run the **retrieval procedure** (continuous order, replica fallback),
//!    integrate via the OT engine, and re-validate "until last-ts equals
//!    ts";
//! 3. The master replicates the patch at the P2P-Log and acks with the
//!    validated timestamp.
//!
//! Plus anti-entropy: idle replicas periodically ask the master for
//! `last_ts(key)` and pull what they miss.
//!
//! Each such `LastTs` probe is also a **standing read**: the master keeps
//! the asker as a watcher of the key for two sync periods, and when a
//! publish of the key lands it pushes the record to every watcher except
//! the author, as a `LastTsReply` that carries the record. An idle replica
//! one record behind integrates the push at once, so a validated patch
//! reaches the other replicas one hop after its grant rather than about
//! half a sync period later; a replica further behind starts a retrieval;
//! any other push is dropped and the periodic poll catches up. Without a
//! sync period there is no poll, so no standing read and no push.

use bytes::Bytes;

use kts::{KtsMsg, ReqId, ValidateFailure};
use ot::Document;
use p2plog::{DocName, LogRecord, RetrieveEvent, Retriever};
use simnet::Ctx;

use crate::events::LtrEventKind;
use crate::node::{
    CoreTimer, DocState, InflightValidate, LtrNode, OpPurpose, RetrState, UserPhase,
};
use crate::payload::Payload;

impl LtrNode {
    // ---- commands ---------------------------------------------------------

    pub(crate) fn cmd_open_doc(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: String,
        initial: String,
    ) {
        if self.docs.contains_key(doc.as_str()) {
            return;
        }
        let doc = DocName::from(doc);
        self.persist(
            ctx,
            &store::StoreEntry::DocOpen {
                doc: doc.clone(),
                initial: initial.clone(),
            },
        );
        let replica = ot::Replica::new(self.site, Document::from_text(&initial));
        self.docs.insert(
            doc.clone(),
            DocState {
                key: p2plog::ht(&doc),
                name: doc,
                replica,
                phase: UserPhase::Idle,
                inflight: None,
                retr: None,
                cycle_started: None,
                last_epoch: 0,
            },
        );
        ctx.metrics().incr_id(self.c().docs_opened);
    }

    pub(crate) fn cmd_edit(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str, new_text: &str) {
        let now = ctx.now();
        let c = self.c();
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return, // not open here
        };
        ctx.metrics().incr_id(c.edits);
        // Edits accumulate into the pending patch immediately (SOCT4: local
        // operations apply at once; only their *publication* is serialized).
        let target = Document::from_text(new_text);
        let no_op = state
            .replica
            .edit(&target)
            .map(|p| p.is_empty())
            .unwrap_or(true);
        if state.phase == UserPhase::Idle {
            if no_op {
                return;
            }
            state.cycle_started = Some(now);
            self.start_validation(ctx, doc);
        }
        // Otherwise the in-flight cycle continues; the enlarged pending
        // patch publishes its remainder on the next cycle.
    }

    pub(crate) fn cmd_sync(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Idle {
            return;
        }
        self.issue_sync_lookup(ctx, doc);
    }

    /// Anti-entropy tick: probe the master of every idle open document.
    pub(crate) fn tick_sync(&mut self, ctx: &mut Ctx<'_, Payload>) {
        if !self.chord.is_joined() {
            return;
        }
        let idle_docs: Vec<DocName> = self
            .docs
            .values()
            .filter(|d| d.phase == UserPhase::Idle)
            .map(|d| d.name.clone())
            .collect();
        for doc in idle_docs {
            self.issue_sync_lookup(ctx, &doc);
        }
    }

    fn issue_sync_lookup(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let (key, name) = match self.docs.get(doc) {
            Some(s) => (s.key, s.name.clone()),
            None => return,
        };
        let (op, actions) = self.chord.lookup(ctx.now(), key);
        self.chord_ops
            .insert(op, OpPurpose::SyncLookup { doc: name });
        self.apply_chord_actions(ctx, actions);
    }

    // ---- the validation procedure ------------------------------------------

    /// Begin (or restart) the publish cycle: locate the Master-key peer.
    pub(crate) fn start_validation(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        debug_assert!(state.replica.pending().is_some(), "nothing to validate");
        state.phase = UserPhase::LocateMaster;
        let key = state.key;
        let name = state.name.clone();
        let (op, actions) = self.chord.lookup(ctx.now(), key);
        self.chord_ops
            .insert(op, OpPurpose::MasterLookup { doc: name });
        self.apply_chord_actions(ctx, actions);
    }

    /// The master lookup for a validation resolved.
    pub(crate) fn on_master_located(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        master: chord::NodeRef,
    ) {
        let me = self.me;
        let req = self.next_req();
        let timeout = self.cfg.validate_timeout;
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::LocateMaster {
            return; // stale completion
        }
        let pending = match state.replica.tentative_for_publish() {
            Some(p) => p,
            None => {
                state.phase = UserPhase::Idle;
                return;
            }
        };
        let bytes = Bytes::from(ot::encode_patch(&pending));
        let proposed_ts = state.replica.ts;
        let attempts = state.inflight.as_ref().map(|i| i.attempts).unwrap_or(0);
        state.inflight = Some(InflightValidate {
            req,
            bytes: bytes.clone(),
            op_count: pending.len(),
            attempts,
        });
        state.phase = UserPhase::Validating;
        let key = state.key;
        let name = state.name.clone();
        self.validate_reqs.insert(req, name.clone());
        ctx.send(
            master.addr,
            Payload::Kts(KtsMsg::Validate {
                op: req,
                key,
                key_name: name.clone(),
                proposed_ts,
                patch: bytes,
                user: me,
            }),
        );
        ctx.metrics().incr_id(self.c().validate_sent);
        self.arm_core_timer(ctx, timeout, CoreTimer::ValidateTimeout { doc: name, req });
    }

    /// `Granted{ts, epoch}`: our tentative patch is in the log with `ts`,
    /// stamped with the granting master's `epoch` (0 = legacy unfenced).
    pub(crate) fn on_validate_granted(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        ts: u64,
        epoch: u64,
    ) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return, // stale
        };
        let now = ctx.now();
        let state = match self.docs.get_mut(&doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Validating {
            return;
        }
        // Accept only the expected next timestamp; anything else means our
        // state moved on (e.g. duplicate grant after a resend race).
        if ts != state.replica.ts + 1 {
            return;
        }
        let prefix = state
            .inflight
            .as_ref()
            .map(|i| i.op_count)
            .unwrap_or_else(|| state.replica.pending().map(|p| p.len()).unwrap_or(0));
        let acked = state.replica.acknowledge_own_prefix(ts, prefix);
        // detlint::allow(TOT-PANIC, grant for ts==replica.ts+1 implies our own pending prefix applies; local OT invariant)
        acked.expect("own patch applies");
        state.last_epoch = state.last_epoch.max(epoch);
        state.inflight = None;
        state.phase = UserPhase::Idle;
        let latency_ms = state
            .cycle_started
            .take()
            .map(|t0| now.since(t0).as_millis_f64())
            .unwrap_or(0.0);
        ctx.metrics().incr_id(self.c().publish_ok);
        ctx.metrics().record("ltr.publish_latency_ms", latency_ms);
        self.record(
            now,
            LtrEventKind::OwnPublished {
                doc: doc.clone(),
                ts,
                latency_ms,
            },
        );
        self.record(
            now,
            LtrEventKind::Integrated {
                doc: doc.clone(),
                ts,
                epoch,
                own: true,
            },
        );
        self.resume_after_cycle(ctx, &doc);
    }

    /// `Retry{last_ts}`: we are behind — retrieve, integrate, re-validate.
    pub(crate) fn on_validate_retry(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        last_ts: u64,
    ) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        let now = ctx.now();
        let state = match self.docs.get_mut(&doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Validating {
            return;
        }
        ctx.metrics().incr_id(self.c().validate_retry);
        self.record(
            now,
            LtrEventKind::RetriedBehind {
                doc: doc.clone(),
                master_last_ts: last_ts,
            },
        );
        self.begin_retrieval(ctx, &doc, last_ts, true);
    }

    /// `Redirect`: the node we asked is not the master (any more).
    pub(crate) fn on_validate_redirect(&mut self, ctx: &mut Ctx<'_, Payload>, req: ReqId) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        let now = ctx.now();
        ctx.metrics().incr_id(self.c().validate_redirect);
        self.record(now, LtrEventKind::Redirected { doc: doc.clone() });
        self.bump_attempts_and_retry(ctx, &doc);
    }

    /// `Failed`: operational failure at the master.
    pub(crate) fn on_validate_failed(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        req: ReqId,
        _reason: ValidateFailure,
    ) {
        let doc = match self.validate_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        ctx.metrics().incr_id(self.c().validate_failed);
        self.bump_attempts_and_retry(ctx, &doc);
    }

    /// The validation went unanswered (master crashed?): retry via a fresh
    /// master lookup, keeping the same proposed_ts and patch bytes.
    pub(crate) fn on_validate_timeout(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        req: ReqId,
    ) {
        let still_waiting = self
            .docs
            .get(doc)
            .and_then(|s| s.inflight.as_ref())
            .is_some_and(|i| i.req == req)
            && self
                .docs
                .get(doc)
                .is_some_and(|s| s.phase == UserPhase::Validating);
        if !still_waiting {
            return;
        }
        self.validate_reqs.remove(&req);
        ctx.metrics().incr_id(self.c().validate_timeout);
        self.bump_attempts_and_retry(ctx, doc);
    }

    fn bump_attempts_and_retry(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let max = self.cfg.max_validate_attempts;
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        let attempts = state
            .inflight
            .as_mut()
            .map(|i| {
                i.attempts += 1;
                i.attempts
            })
            .unwrap_or(max);
        if attempts >= max {
            self.backoff_doc(ctx, doc);
        } else {
            // Give stabilization a moment, then re-locate the master.
            state.phase = UserPhase::Idle; // will be set by start_validation
            self.start_validation(ctx, doc);
        }
    }

    /// Park the document and retry after the backoff.
    pub(crate) fn backoff_doc(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let backoff = self.cfg.retry_backoff;
        let now = ctx.now();
        let name = match self.docs.get_mut(doc) {
            Some(state) => {
                state.phase = UserPhase::Backoff;
                state.retr = None;
                state.name.clone()
            }
            None => DocName::from(doc),
        };
        ctx.metrics().incr_id(self.c().cycle_backoff);
        self.record(now, LtrEventKind::CycleBackedOff { doc: name.clone() });
        self.arm_core_timer(ctx, backoff, CoreTimer::RetryDoc { doc: name });
    }

    /// Backoff expired: resume whatever is unfinished.
    pub(crate) fn on_retry_timer(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Backoff {
            return;
        }
        state.phase = UserPhase::Idle;
        if let Some(inf) = &mut state.inflight {
            inf.attempts = 0;
        }
        if state.replica.pending().is_some() {
            self.start_validation(ctx, doc);
        } else {
            self.resume_after_cycle(ctx, doc);
        }
    }

    /// A cycle finished: publish any pending remainder (edits saved while
    /// the previous cycle was in flight).
    pub(crate) fn resume_after_cycle(&mut self, ctx: &mut Ctx<'_, Payload>, doc: &str) {
        let now = ctx.now();
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        debug_assert_eq!(state.phase, UserPhase::Idle);
        if state.replica.pending().is_some() {
            state.cycle_started = Some(now);
            self.start_validation(ctx, doc);
        }
    }

    // ---- the retrieval procedure --------------------------------------------

    /// Fetch `(replica.ts, to_ts]` in continuous order.
    pub(crate) fn begin_retrieval(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        to_ts: u64,
        resume_validate: bool,
    ) {
        let n = self.cfg.log.replication;
        let window = self.cfg.log.pipeline_window;
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if to_ts <= state.replica.ts {
            state.phase = UserPhase::Idle;
            if resume_validate && state.replica.pending().is_some() {
                self.start_validation(ctx, doc);
            }
            return;
        }
        let name = state.name.clone();
        let mut retriever = Retriever::new(name.clone(), state.replica.ts, to_ts, n, window);
        let cmds = retriever.start();
        state.phase = UserPhase::Retrieving;
        state.retr = Some(RetrState {
            retriever,
            resume_validate,
            first_record_pending: true,
            fetch_retries: 0,
        });
        ctx.metrics().incr_id(self.c().retrievals);
        for cmd in cmds {
            self.issue_log_fetch(ctx, &name, cmd.ts, cmd.hash_idx, cmd.key);
        }
    }

    /// A retrieval fetch failed operationally (the replica's owner was
    /// unreachable after the DHT layer's own retries). This is *not* a
    /// miss: the record may well exist there, so falling back to the next
    /// replica hash could integrate a non-canonical copy (the mixed-record
    /// hazard after partial publishes). Re-issue the same fetch — the
    /// re-lookup routes around churn — up to a per-retrieval cap, then
    /// stall the cycle and back off like an exhausted retrieval.
    pub(crate) fn on_log_fetch_unreachable(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        hash_idx: usize,
    ) {
        /// Re-issues per retrieval before giving up; each already paid the
        /// DHT layer's internal lookup+get retries.
        const MAX_FETCH_RETRIES: u32 = 16;
        let c = self.c();
        let state = match self.docs.get_mut(doc.as_str()) {
            Some(s) => s,
            None => return,
        };
        let retr = match &mut state.retr {
            Some(r) if state.phase == UserPhase::Retrieving => r,
            _ => return, // stale completion
        };
        // Only the fetch that is still current may be re-issued (the
        // retriever may have moved on via a duplicate result).
        let cmd = match retr.retriever.refetch_cmd(ts) {
            Some(c) if c.hash_idx == hash_idx => c,
            _ => return,
        };
        retr.fetch_retries += 1;
        if retr.fetch_retries <= MAX_FETCH_RETRIES {
            ctx.metrics().incr_id(c.fetch_refetches);
            self.issue_log_fetch(ctx, doc, cmd.ts, cmd.hash_idx, cmd.key);
        } else {
            let now = ctx.now();
            ctx.metrics().incr_id(c.retrieval_stalled);
            self.record(
                now,
                LtrEventKind::RetrievalStalled {
                    doc: doc.clone(),
                    ts,
                },
            );
            self.backoff_doc(ctx, doc);
        }
    }

    /// One retrieval fetch returned (value or authoritative miss).
    pub(crate) fn on_log_fetch_result(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        hash_idx: usize,
        found: Option<Bytes>,
    ) {
        let state = match self.docs.get_mut(doc.as_str()) {
            Some(s) => s,
            None => return,
        };
        let retr = match &mut state.retr {
            Some(r) if state.phase == UserPhase::Retrieving => r,
            _ => return, // stale fetch completion
        };
        let (cmds, evs) = retr.retriever.on_fetch_result(ts, hash_idx, found);
        for cmd in cmds {
            self.issue_log_fetch(ctx, doc, cmd.ts, cmd.hash_idx, cmd.key);
        }
        for ev in evs {
            match ev {
                RetrieveEvent::Deliver { ts, bytes } => {
                    if !self.integrate_record(ctx, doc, ts, &bytes) {
                        // Divergence or decode failure: abort this retrieval.
                        self.backoff_doc(ctx, doc);
                        return;
                    }
                }
                RetrieveEvent::Failed { ts } => {
                    let now = ctx.now();
                    ctx.metrics().incr_id(self.c().retrieval_stalled);
                    self.record(
                        now,
                        LtrEventKind::RetrievalStalled {
                            doc: doc.clone(),
                            ts,
                        },
                    );
                    self.backoff_doc(ctx, doc);
                    return;
                }
                RetrieveEvent::Done => {
                    let Some(state) = self.docs.get_mut(doc.as_str()) else {
                        return;
                    };
                    let resume = state
                        .retr
                        .take()
                        .map(|r| r.resume_validate)
                        .unwrap_or(false);
                    state.phase = UserPhase::Idle;
                    if resume && state.replica.pending().is_some() {
                        self.start_validation(ctx, doc);
                    } else {
                        self.resume_after_cycle(ctx, doc);
                    }
                    return;
                }
            }
        }
    }

    /// Integrate one retrieved record in continuous order. Returns false on
    /// unrecoverable decode/apply errors.
    fn integrate_record(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &DocName,
        ts: u64,
        bytes: &Bytes,
    ) -> bool {
        let now = ctx.now();
        let c = self.c();
        let state = match self.docs.get_mut(doc.as_str()) {
            Some(s) => s,
            None => return false,
        };
        let rec = match LogRecord::decode(bytes) {
            Ok(r) => r,
            Err(e) => {
                ctx.metrics().incr_id(c.record_decode_error);
                let _ = e;
                return false;
            }
        };
        debug_assert_eq!(rec.ts, ts);
        // Epoch validation: a record stamped below this replica's epoch
        // floor was written by a superseded master at a slot the winning
        // epoch has (or will have) re-granted. Rejecting it aborts the
        // retrieval; the backoff retry refetches the slot, by which time
        // the ranked arbitration has surfaced the winning copy.
        let floor = state.last_epoch;
        if rec.epoch < floor {
            ctx.metrics().incr_id(c.epoch_regressions);
            self.record(
                now,
                LtrEventKind::EpochRejected {
                    doc: doc.clone(),
                    ts,
                    epoch: rec.epoch,
                    floor,
                },
            );
            return false;
        }
        state.last_epoch = state.last_epoch.max(rec.epoch);
        // Own-record detection: our previous validation may have been
        // granted with the ack lost. It can only sit at proposed_ts + 1,
        // i.e. the *first* record of this retrieval.
        let first = state
            .retr
            .as_mut()
            .map(|r| std::mem::replace(&mut r.first_record_pending, false))
            .unwrap_or(false);
        if first {
            if let Some(inf) = &state.inflight {
                if rec.patch == inf.bytes && ts == state.replica.ts + 1 {
                    let prefix = inf.op_count;
                    state
                        .replica
                        .acknowledge_own_prefix(ts, prefix)
                        .expect("own patch must apply");
                    state.inflight = None;
                    ctx.metrics().incr_id(c.own_record_recovered);
                    let latency_ms = state
                        .cycle_started
                        .take()
                        .map(|t0| now.since(t0).as_millis_f64())
                        .unwrap_or(0.0);
                    self.record(
                        now,
                        LtrEventKind::OwnPublished {
                            doc: doc.clone(),
                            ts,
                            latency_ms,
                        },
                    );
                    self.record(
                        now,
                        LtrEventKind::Integrated {
                            doc: doc.clone(),
                            ts,
                            epoch: rec.epoch,
                            own: true,
                        },
                    );
                    return true;
                }
            }
            // Not our record: the in-flight request was never granted; its
            // bytes are about to become stale (the pending patch rebases).
            state.inflight = None;
        }
        let patch = match ot::decode_patch(&rec.patch) {
            Ok(p) => p,
            Err(_) => {
                ctx.metrics().incr_id(c.record_decode_error);
                return false;
            }
        };
        match state.replica.integrate_remote(ts, &patch) {
            Ok(()) => {
                ctx.metrics().incr_id(c.integrated);
                self.record(
                    now,
                    LtrEventKind::Integrated {
                        doc: doc.clone(),
                        ts,
                        epoch: rec.epoch,
                        own: false,
                    },
                );
                true
            }
            Err(e) => {
                // A transform bug or corrupted log — surface loudly.
                ctx.metrics().incr_id(c.integrate_error);
                panic!("replica divergence on {doc} ts {ts}: {e}");
            }
        }
    }

    // ---- anti-entropy reply ---------------------------------------------

    /// Lookup for a sync probe resolved: ask the master for last_ts.
    pub(crate) fn on_sync_master_located(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        doc: &str,
        master: chord::NodeRef,
    ) {
        let me = self.me;
        let req = self.next_req();
        let state = match self.docs.get_mut(doc) {
            Some(s) => s,
            None => return,
        };
        if state.phase != UserPhase::Idle {
            return;
        }
        let key = state.key;
        let name = state.name.clone();
        // Fenced mode: tell the master how far this replica already is.
        // A freshly promoted master whose restored last_ts lags behind
        // re-probes the log instead of replying with the stale value —
        // the fix for idle replicas stuck one patch behind a transient
        // master's grant. Legacy mode sends 0, keeping the old protocol
        // byte-identical.
        let known_ts = if self.cfg.kts.fencing {
            state.replica.ts
        } else {
            0
        };
        self.lastts_reqs.insert(req, name);
        ctx.send(
            master.addr,
            Payload::Kts(KtsMsg::LastTs {
                op: req,
                key,
                user: me,
                known_ts,
            }),
        );
    }

    /// A record the master pushed to this replica's standing read. The
    /// next record in order integrates at once, through the same epoch
    /// floor check as a retrieved one; a record further ahead starts a
    /// retrieval up to it. Anything else (a busy document, a duplicate,
    /// a stale or reordered push, a rejected record) is dropped: the
    /// next poll catches up.
    pub(crate) fn on_pushed_record(
        &mut self,
        ctx: &mut Ctx<'_, Payload>,
        key: chord::Id,
        ts: u64,
        record: &Bytes,
    ) {
        let Some(state) = self.docs.values().find(|d| d.key == key) else {
            return;
        };
        if state.phase != UserPhase::Idle || state.inflight.is_some() {
            return;
        }
        let doc = state.name.clone();
        let next = state.replica.ts + 1;
        if ts == next {
            if self.integrate_record(ctx, &doc, ts, record) {
                ctx.metrics().incr_id(self.c().push_integrated);
            }
        } else if ts > next {
            self.begin_retrieval(ctx, &doc, ts, false);
        }
    }

    /// `LastTsReply`: pull anything we miss.
    pub(crate) fn on_lastts_reply(&mut self, ctx: &mut Ctx<'_, Payload>, req: ReqId, last_ts: u64) {
        let doc = match self.lastts_reqs.remove(&req) {
            Some(d) => d,
            None => return,
        };
        let behind = self
            .docs
            .get(&doc)
            .is_some_and(|s| s.phase == UserPhase::Idle && last_ts > s.replica.ts);
        if behind {
            self.begin_retrieval(ctx, &doc, last_ts, false);
        }
    }
}
