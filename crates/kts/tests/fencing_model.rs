//! Model-checked interleavings of the *fenced* master state machine.
//!
//! A truthful single-key "world" executes the master's actions against a
//! model of the log — per-slot records and per-slot fence floors, exactly
//! the arbitration `chord::Storage` implements — while a rival master and
//! crash/handoff events interleave arbitrarily. The master raises slot
//! `t + 1`'s fence while slot `t` publishes, so the model keeps one
//! acknowledged window per slot, and fences and publishes complete in any
//! order relative to each other. The model checker asserts the fencing
//! invariants on the full action stream:
//!
//! 1. **epoch never regresses**: the epochs the master stamps on fences,
//!    publishes and grants are non-decreasing across crashes, handoffs,
//!    demotions and re-promotions;
//! 2. **no grant inside an unacknowledged fence window**: every
//!    `BeginPublish` targets a slot whose fence was acknowledged at
//!    exactly the publish's epoch, by a fence raised since the master last
//!    lost the right to trust its earlier fences (a failed publish, a
//!    crash, a handoff or a ring change) — a stale acknowledgement never
//!    authorises a grant;
//! 3. **no equivocation**: every successful publish lands at the global
//!    log frontier — two records never share a timestamp.

use bytes::Bytes;
use chord::DocName;
use chord::{Id, NodeRef};
use kts::{
    FenceOutcome, FenceState, HandoffEntry, KtsConfig, KtsMaster, KtsMsg, MasterAction,
    PublishOutcome, ReqId,
};
use proptest::prelude::*;
use simnet::NodeId;
use std::collections::BTreeMap;

fn user(n: u32) -> NodeRef {
    NodeRef::new(NodeId(n), Id(n as u64))
}

const KEY: Id = Id(99);

struct FencedWorld {
    master: KtsMaster,
    /// The log: slot -> epoch stamped on the record stored there.
    log: BTreeMap<u64, u64>,
    /// Fence floors per slot (single-origin model: higher-or-equal floors
    /// re-assert, lower floors are superseded).
    floors: BTreeMap<u64, u64>,
    /// Outstanding completions (token, slot, epoch) in issue order.
    publishes: Vec<(u64, u64, u64)>,
    probes: Vec<u64>,
    /// Outstanding fences (token, slot, floor, generation) in issue order.
    fences: Vec<(u64, u64, u64, u64)>,
    /// Model: acknowledged fence windows, slot -> floor. A window closes
    /// when its slot's publish completes.
    acked: BTreeMap<u64, u64>,
    /// Model: bumped whenever the master must stop trusting the fences it
    /// raised so far (a failed publish, a crash, a handoff, a ring
    /// change). An ack of a fence from an older generation opens no
    /// window.
    generation: u64,
    /// Model: highest epoch the master has emitted so far.
    max_master_epoch: u64,
    /// Successful grants in order.
    granted: Vec<u64>,
    /// Invariant violations observed (checked empty at the end).
    violations: Vec<String>,
    req_seq: u64,
}

impl FencedWorld {
    fn new() -> Self {
        FencedWorld {
            master: KtsMaster::new(KtsConfig::default()), // probing + fencing on
            log: BTreeMap::new(),
            floors: BTreeMap::new(),
            publishes: Vec::new(),
            probes: Vec::new(),
            fences: Vec::new(),
            acked: BTreeMap::new(),
            generation: 0,
            max_master_epoch: 0,
            granted: Vec::new(),
            violations: Vec::new(),
            req_seq: 0,
        }
    }

    fn log_high(&self) -> u64 {
        self.log.keys().next_back().copied().unwrap_or(0)
    }

    fn log_epoch(&self) -> u64 {
        self.log.values().copied().max().unwrap_or(0)
    }

    fn max_epoch_anywhere(&self) -> u64 {
        self.max_master_epoch
            .max(self.log_epoch())
            .max(self.floors.values().copied().max().unwrap_or(0))
    }

    fn note_epoch(&mut self, what: &str, epoch: u64) {
        if epoch < self.max_master_epoch {
            self.violations.push(format!(
                "epoch regression: {what} carries {epoch} after {}",
                self.max_master_epoch
            ));
        }
        self.max_master_epoch = self.max_master_epoch.max(epoch);
    }

    fn absorb(&mut self, actions: Vec<MasterAction>) {
        for act in actions {
            match act {
                MasterAction::BeginPublish {
                    token, ts, epoch, ..
                } => {
                    self.note_epoch("BeginPublish", epoch);
                    if self.acked.get(&ts) != Some(&epoch) {
                        self.violations.push(format!(
                            "grant outside the fence window: publish (ts {ts}, epoch {epoch}) \
                             but acked fences are {:?}",
                            self.acked
                        ));
                    }
                    self.publishes.push((token, ts, epoch));
                }
                MasterAction::BeginProbe { token, .. } => self.probes.push(token),
                MasterAction::BeginFence {
                    token,
                    epoch,
                    last_ts,
                    ..
                } => {
                    self.note_epoch("BeginFence", epoch);
                    self.fences
                        .push((token, last_ts + 1, epoch, self.generation));
                }
                MasterAction::Send(_, KtsMsg::Granted { epoch, .. }) => {
                    self.note_epoch("Granted", epoch);
                }
                _ => {}
            }
        }
    }

    fn validate_synced(&mut self) {
        self.req_seq += 1;
        let proposed = self.log_high();
        let acts = self.master.on_validate(
            KEY,
            &DocName::new("doc"),
            ReqId(self.req_seq),
            proposed,
            Bytes::from_static(b"p"),
            user((self.req_seq % 5) as u32),
            true,
        );
        self.absorb(acts);
    }

    fn validate_stale(&mut self) {
        self.req_seq += 1;
        let proposed = self.log_high().saturating_sub(1);
        let acts = self.master.on_validate(
            KEY,
            &DocName::new("doc"),
            ReqId(self.req_seq),
            proposed,
            Bytes::from_static(b"p"),
            user((self.req_seq % 5) as u32),
            true,
        );
        self.absorb(acts);
    }

    /// Complete the oldest fence truthfully against the floors table.
    fn complete_fence(&mut self) {
        self.complete_fence_at(0);
    }

    /// Complete the newest fence first (fan-outs to different slots race).
    fn complete_newest_fence(&mut self) {
        self.complete_fence_at(self.fences.len().saturating_sub(1));
    }

    fn complete_fence_at(&mut self, i: usize) {
        if i >= self.fences.len() {
            return;
        }
        let (token, slot, floor, generation) = self.fences.remove(i);
        let cur = self.floors.get(&slot).copied().unwrap_or(0);
        let outcome = if floor >= cur {
            self.floors.insert(slot, floor);
            let occupied = self.log.contains_key(&slot);
            if !occupied && generation == self.generation {
                self.acked.insert(slot, floor);
            }
            FenceOutcome::Acked { occupied }
        } else {
            FenceOutcome::Superseded { current: cur }
        };
        let acts = self.master.fence_done(token, outcome);
        self.absorb(acts);
    }

    /// The oldest fence fan-out reaches no quorum.
    fn fail_fence(&mut self) {
        if self.fences.is_empty() {
            return;
        }
        let (token, ..) = self.fences.remove(0);
        let acts = self.master.fence_done(token, FenceOutcome::Unreachable);
        self.absorb(acts);
    }

    /// Store a publish's record if ranked first-writer arbitration lets
    /// it in: an occupied slot or a higher floor rejects the put.
    fn land(&mut self, ts: u64, epoch: u64) -> bool {
        let floor = self.floors.get(&ts).copied().unwrap_or(0);
        if self.log.contains_key(&ts) || floor > epoch {
            return false;
        }
        if ts != self.log_high() + 1 {
            self.violations.push(format!(
                "equivocation window: publish lands at {ts} but the log frontier is {}",
                self.log_high()
            ));
        }
        self.log.insert(ts, epoch);
        true
    }

    /// A publish ended without a clean verdict: every fence the master
    /// raised so far is void.
    fn void_fences(&mut self) {
        self.acked.clear();
        self.generation += 1;
    }

    /// Complete the oldest publish truthfully.
    fn complete_publish(&mut self) {
        if self.publishes.is_empty() {
            return;
        }
        let (token, ts, epoch) = self.publishes.remove(0);
        self.acked.remove(&ts); // the fence window is consumed either way
        let outcome = if self.land(ts, epoch) {
            self.granted.push(ts);
            PublishOutcome::Ok
        } else {
            // A rival outranked us after our ack: storage arbitration
            // rejects the put and the master learns it is stale.
            self.void_fences();
            PublishOutcome::Conflict
        };
        let acts = self.master.publish_done(token, outcome);
        self.absorb(acts);
    }

    /// The oldest publish times out; its puts may still have `landed`.
    fn fail_publish(&mut self, landed: bool) {
        if self.publishes.is_empty() {
            return;
        }
        let (token, ts, epoch) = self.publishes.remove(0);
        self.acked.remove(&ts);
        if landed {
            self.land(ts, epoch);
        }
        self.void_fences();
        let acts = self.master.publish_done(token, PublishOutcome::Unreachable);
        self.absorb(acts);
    }

    /// Complete the oldest probe truthfully against the log.
    fn complete_probe(&mut self) {
        if self.probes.is_empty() {
            return;
        }
        let token = self.probes.remove(0);
        let (high, epoch) = (self.log_high(), self.log_epoch());
        let acts = self.master.probe_done(token, high, epoch);
        self.absorb(acts);
    }

    /// The master's ring view moves: fences raised under the old view
    /// prove nothing about the owners the next publish reaches.
    fn ring_change(&mut self) {
        self.void_fences();
        let acts = self.master.on_ring_change();
        self.absorb(acts);
    }

    /// Crash: in-flight completions are lost; a new instance restores from
    /// a journal whose `last_ts` may lag by `lag`.
    fn crash_restore(&mut self, lag: u64) {
        let entries: Vec<HandoffEntry> = self
            .master
            .mastered_keys()
            .into_iter()
            .map(|(key, last_ts)| HandoffEntry {
                key,
                key_name: DocName::new("doc"),
                last_ts: last_ts.saturating_sub(lag),
                epoch: self.master.entry_epoch(key).unwrap_or(1),
            })
            .collect();
        self.master = KtsMaster::new(KtsConfig::default());
        self.master.restore_entries(entries);
        self.publishes.clear();
        self.probes.clear();
        self.fences.clear();
        self.void_fences(); // the new instance must fence for itself
    }

    /// Graceful handoff to a fresh master instance.
    fn handoff(&mut self) {
        // Drain in-flight publishes first (the old instance answers them
        // even after exporting — the log is the ground truth).
        while !self.publishes.is_empty() {
            self.complete_publish();
        }
        while !self.probes.is_empty() {
            self.complete_probe();
        }
        self.fences.clear();
        let (entries, acts) = self.master.export_all();
        self.absorb(acts);
        self.master = KtsMaster::new(KtsConfig::default());
        self.void_fences();
        let acts = self.master.on_table_handoff(entries);
        self.absorb(acts);
    }

    /// A rival master fences and grants the next slot in one stroke, at an
    /// epoch above everything seen so far.
    fn rival_grant(&mut self) {
        let epoch = self.max_epoch_anywhere() + 1;
        let slot = self.log_high() + 1;
        self.floors.insert(slot, epoch);
        self.log.insert(slot, epoch);
        // `self.acked` is deliberately left alone: it models the fence
        // window *the master was acknowledged*. If the rival overrides it,
        // the master's next publish is rejected by the floor arbitration
        // in `complete_publish`, exactly like `chord::Storage` would.
    }
}

proptest! {
    /// Arbitrary interleavings of validations, truthful and failed
    /// completions, crashes (with journal lag), handoffs, ring changes
    /// and rival grants: the fencing invariants hold on the entire action
    /// stream, and the log stays gap-free and equivocation-free.
    #[test]
    fn fencing_invariants_hold_under_interleaving(
        script in prop::collection::vec(0u8..16, 1..150),
    ) {
        let mut w = FencedWorld::new();
        for step in script {
            match step {
                0 | 1 => w.validate_synced(),
                2 => w.validate_stale(),
                3 | 4 => w.complete_fence(),
                5 | 6 => w.complete_publish(),
                7 => w.complete_probe(),
                8 => w.crash_restore(1),
                9 => w.handoff(),
                10 => w.rival_grant(),
                11 => w.complete_newest_fence(),
                12 => w.fail_fence(),
                13 => w.fail_publish(false),
                14 => w.fail_publish(true),
                _ => w.ring_change(),
            }
        }
        // Drain whatever is still outstanding, truthfully.
        for _ in 0..1000 {
            if w.fences.is_empty() && w.publishes.is_empty() && w.probes.is_empty() {
                break;
            }
            w.complete_fence();
            w.complete_probe();
            w.complete_publish();
        }
        prop_assert!(w.violations.is_empty(), "violations: {:#?}", w.violations);
        // The log is contiguous: slots 1..=high, each stamped exactly once.
        let high = w.log_high();
        prop_assert_eq!(w.log.len() as u64, high, "log has gaps: {:?}", w.log);
        // The master's table never runs ahead of the log.
        prop_assert!(w.master.last_ts(KEY) <= high);
    }

    /// Without rivals or state loss, the fenced master grants the exact
    /// continuous sequence 1, 2, 3, … just like the legacy protocol.
    #[test]
    fn fenced_happy_path_is_continuous(rounds in 1u64..25) {
        let mut w = FencedWorld::new();
        for _ in 0..rounds {
            w.validate_synced();
            // probe (first round) / fence / publish, truthfully, to rest.
            for _ in 0..4 {
                w.complete_probe();
                w.complete_fence();
                w.complete_publish();
            }
        }
        prop_assert!(w.violations.is_empty(), "violations: {:#?}", w.violations);
        let expect: Vec<u64> = (1..=rounds).collect();
        prop_assert_eq!(&w.granted, &expect);
    }
}

/// Drive a fresh world to its first grant: probe, fence slot 1, and start
/// publishing slot 1 with slot 2's fence in flight alongside.
fn world_publishing_slot_1() -> FencedWorld {
    let mut w = FencedWorld::new();
    w.validate_synced();
    w.complete_probe();
    w.complete_fence();
    assert_eq!(
        w.publishes.iter().map(|p| (p.1, p.2)).collect::<Vec<_>>(),
        vec![(1, 1)]
    );
    assert_eq!(
        w.fences.iter().map(|f| (f.1, f.2)).collect::<Vec<_>>(),
        vec![(2, 1)],
        "slot 2's fence rides along with slot 1's publish"
    );
    w
}

/// Interleaving (a): slot `t + 1`'s fence acks before slot `t`'s publish
/// completes; the next request then publishes without another fence
/// round-trip.
#[test]
fn pipelined_fence_acks_before_publish_completes() {
    let mut w = world_publishing_slot_1();
    w.complete_fence();
    assert_eq!(w.master.fence_state(KEY), Some(FenceState::Acked));
    assert_eq!(w.publishes.len(), 1, "an ack alone publishes nothing");
    w.complete_publish();
    w.validate_synced();
    assert_eq!(
        w.publishes.iter().map(|p| (p.1, p.2)).collect::<Vec<_>>(),
        vec![(2, 1)],
        "slot 2 publishes straight away"
    );
    w.complete_publish();
    assert!(w.violations.is_empty(), "violations: {:#?}", w.violations);
    assert_eq!(w.granted, vec![1, 2]);
}

/// Interleaving (b): slot `t`'s publish fails (rival conflict, or a
/// timeout whose puts did or did not land) while slot `t + 1`'s fence is
/// in flight. Whenever that fence's verdict arrives — before the master
/// re-probes, after it re-fences, or after the fresh fence acked — it
/// never authorises a grant, and a stale `Superseded` never demotes the
/// master. The next grant waits for a fresh fence under the bumped epoch.
#[test]
fn stale_pipelined_ack_never_authorises_a_grant() {
    for failure in 0..3 {
        for timing in 0..3 {
            let mut w = world_publishing_slot_1();
            match failure {
                0 => {
                    w.rival_grant();
                    w.complete_publish();
                }
                1 => w.fail_publish(false),
                _ => w.fail_publish(true),
            }
            let bumped = w.master.entry_epoch(KEY).expect("still master");
            assert!(bumped > 1, "a failed publish bumps the epoch");
            let case = format!("failure {failure}, timing {timing}");
            if timing == 0 {
                // The stale verdict lands while the master re-probes.
                w.complete_fence();
            }
            w.validate_synced();
            w.complete_probe();
            assert!(w.publishes.is_empty(), "{case}: {:?}", w.publishes);
            let fresh = *w.fences.last().expect("fresh fence raised");
            assert!(fresh.2 >= bumped, "{case}: fresh fence at the bumped epoch");
            if timing == 1 {
                // The stale verdict lands before the fresh one.
                w.complete_fence();
                assert!(w.publishes.is_empty(), "{case}: {:?}", w.publishes);
                assert_eq!(w.master.fence_state(KEY), Some(FenceState::InFlight));
            }
            w.complete_newest_fence();
            assert_eq!(
                w.publishes.iter().map(|p| (p.1, p.2)).collect::<Vec<_>>(),
                vec![(fresh.1, fresh.2)],
                "{case}"
            );
            // Drain: any stale verdict left comes last.
            while !w.fences.is_empty() || !w.publishes.is_empty() {
                w.complete_fence();
                w.complete_publish();
            }
            assert!(w.master.entry_epoch(KEY).is_some(), "{case}: demoted");
            assert!(w.violations.is_empty(), "{case}: {:#?}", w.violations);
            assert_eq!(w.log.len() as u64, w.log_high(), "{case}: gap-free log");
        }
    }
}
