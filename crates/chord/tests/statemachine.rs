//! Direct unit tests of the Chord state machine — no simulator, feeding
//! messages and timers by hand and inspecting the returned actions. These
//! reach protocol branches that full-ring runs rarely exercise.

use bytes::Bytes;
use chord::{
    Action, ChordConfig, ChordEvent, ChordMsg, ChordNode, ChordTimer, Id, NodeRef, PutMode,
};
use simnet::{Duration, NodeId, Time};

fn nref(addr: u32, id: u64) -> NodeRef {
    NodeRef::new(NodeId(addr), Id(id))
}

fn t0() -> Time {
    Time::ZERO
}

fn sends(actions: &[Action]) -> Vec<(NodeId, &ChordMsg)> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Send(to, m) => Some((*to, m)),
            _ => None,
        })
        .collect()
}

fn events(actions: &[Action]) -> Vec<&ChordEvent> {
    actions
        .iter()
        .filter_map(|a| match a {
            Action::Event(e) => Some(e),
            _ => None,
        })
        .collect()
}

/// Build a joined node with a hand-wired ring neighbourhood.
fn wired_node(me: NodeRef, pred: NodeRef, succ: NodeRef) -> ChordNode {
    let mut n = ChordNode::new(me, ChordConfig::default());
    let _ = n.start(t0(), None); // singleton join
                                 // Wire the neighbourhood via protocol messages.
    let _ = n.handle(t0(), pred.addr, ChordMsg::Notify { candidate: pred });
    let _ = n.handle(
        t0(),
        succ.addr,
        ChordMsg::LeaveToPred {
            succ_of_leaver: succ,
        },
    );
    n
}

#[test]
fn singleton_owns_everything() {
    let me = nref(0, 1000);
    let mut n = ChordNode::new(me, ChordConfig::default());
    let acts = n.start(t0(), None);
    assert!(events(&acts)
        .iter()
        .any(|e| matches!(e, ChordEvent::Joined)));
    assert!(n.is_responsible(Id(0)));
    assert!(n.is_responsible(Id(u64::MAX)));
    assert_eq!(n.successor().id, me.id);
}

#[test]
fn notify_adopts_closer_predecessor_and_hands_off_keys() {
    let me = nref(0, 1000);
    let far_pred = nref(1, 100);
    let mut n = ChordNode::new(me, ChordConfig::default());
    let _ = n.start(t0(), None);
    // Store a key the closer predecessor will own.
    n.storage_mut()
        .put_primary(Id(500), Bytes::from_static(b"v"));

    let acts = n.handle(
        t0(),
        far_pred.addr,
        ChordMsg::Notify {
            candidate: far_pred,
        },
    );
    assert!(events(&acts)
        .iter()
        .any(|e| matches!(e, ChordEvent::PredecessorChanged { .. })));
    assert_eq!(n.predecessor().unwrap().id, far_pred.id);

    // A closer candidate (in (100, 1000)) supersedes; keys in (100, 600]
    // move to it.
    let close_pred = nref(2, 600);
    let acts = n.handle(
        t0(),
        close_pred.addr,
        ChordMsg::Notify {
            candidate: close_pred,
        },
    );
    assert_eq!(n.predecessor().unwrap().id, close_pred.id);
    let transferred = sends(&acts)
        .into_iter()
        .find_map(|(to, m)| match m {
            ChordMsg::TransferKeys { items } if to == close_pred.addr => Some(items.clone()),
            _ => None,
        })
        .expect("key handoff to new predecessor");
    assert_eq!(transferred.len(), 1);
    assert_eq!(transferred[0].0, Id(500));
    // We keep a replica copy.
    assert!(n.storage().get(Id(500)).is_some());
    assert!(n.storage().get_primary(Id(500)).is_none());
}

#[test]
fn notify_ignores_farther_candidate() {
    let me = nref(0, 1000);
    let mut n = ChordNode::new(me, ChordConfig::default());
    let _ = n.start(t0(), None);
    let close = nref(1, 900);
    let far = nref(2, 100);
    let _ = n.handle(t0(), close.addr, ChordMsg::Notify { candidate: close });
    let acts = n.handle(t0(), far.addr, ChordMsg::Notify { candidate: far });
    assert_eq!(
        n.predecessor().unwrap().id,
        close.id,
        "kept the closer pred"
    );
    assert!(events(&acts).is_empty());
}

#[test]
fn is_responsible_respects_predecessor_arc() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let n = wired_node(me, pred, succ);
    assert!(n.is_responsible(Id(401)));
    assert!(n.is_responsible(Id(1000)));
    assert!(!n.is_responsible(Id(400)));
    assert!(!n.is_responsible(Id(1500)));
    assert!(!n.is_responsible(Id(0)));
}

#[test]
fn find_successor_answers_locally_when_in_arc() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let origin = nref(9, 5555);
    // Target in (me, succ]: answer owner = succ directly to origin.
    let acts = n.handle(
        t0(),
        origin.addr,
        ChordMsg::FindSuccessor {
            op: chord::OpId(77),
            target: Id(1500),
            origin,
            hops: 3,
        },
    );
    let found = sends(&acts)
        .into_iter()
        .find_map(|(to, m)| match m {
            ChordMsg::FoundSuccessor { op, owner, hops } if to == origin.addr => {
                Some((*op, *owner, *hops))
            }
            _ => None,
        })
        .expect("reply to origin");
    assert_eq!(found.0, chord::OpId(77));
    assert_eq!(found.1.id, succ.id);
    assert_eq!(found.2, 3);
}

#[test]
fn hop_guard_drops_runaway_lookup() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let origin = nref(9, 5555);
    let acts = n.handle(
        t0(),
        origin.addr,
        ChordMsg::FindSuccessor {
            op: chord::OpId(1),
            target: Id(1500),
            origin,
            hops: 10_000,
        },
    );
    assert!(sends(&acts).is_empty(), "runaway lookup must be dropped");
}

#[test]
fn put_rejected_when_not_responsible() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let origin = nref(9, 5555);
    let acts = n.handle(
        t0(),
        origin.addr,
        ChordMsg::Put {
            op: chord::OpId(5),
            key: Id(3000), // not in (400, 1000]
            value: Bytes::from_static(b"x"),
            mode: PutMode::Overwrite,
            origin,
        },
    );
    let ack = sends(&acts)
        .into_iter()
        .find_map(|(_, m)| match m {
            ChordMsg::PutAck { ok, existing, .. } => Some((*ok, existing.clone())),
            _ => None,
        })
        .expect("ack");
    assert!(!ack.0);
    assert!(ack.1.is_none(), "wrong-owner refusal is retryable");
}

#[test]
fn put_stores_and_eagerly_replicates() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let origin = nref(9, 5555);
    let acts = n.handle(
        t0(),
        origin.addr,
        ChordMsg::Put {
            op: chord::OpId(5),
            key: Id(800),
            value: Bytes::from_static(b"x"),
            mode: PutMode::Overwrite,
            origin,
        },
    );
    assert!(n.storage().get_primary(Id(800)).is_some());
    // Ack + eager replica push to the successor.
    let to_succ = sends(&acts)
        .into_iter()
        .any(|(to, m)| to == succ.addr && matches!(m, ChordMsg::Replicate { .. }));
    assert!(to_succ, "no eager replication to successor");
}

#[test]
fn get_serves_replica_but_flags_non_authoritative() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    n.storage_mut()
        .put_replica(Id(3000), Bytes::from_static(b"r"));
    let origin = nref(9, 5555);
    let acts = n.handle(
        t0(),
        origin.addr,
        ChordMsg::Get {
            op: chord::OpId(6),
            key: Id(3000),
            origin,
        },
    );
    let reply = sends(&acts)
        .into_iter()
        .find_map(|(_, m)| match m {
            ChordMsg::GetReply {
                value,
                authoritative,
                ..
            } => Some((value.clone(), *authoritative)),
            _ => None,
        })
        .expect("reply");
    assert_eq!(reply.0, Some(Bytes::from_static(b"r")));
    assert!(!reply.1, "replica answer is not authoritative");
}

#[test]
fn graceful_leave_emits_both_goodbyes() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    n.storage_mut()
        .put_primary(Id(800), Bytes::from_static(b"v"));
    let acts = n.leave(t0());
    let to_succ = sends(&acts).into_iter().any(|(to, m)| {
        to == succ.addr && matches!(m, ChordMsg::LeaveToSucc { items, .. } if items.len() == 1)
    });
    let to_pred = sends(&acts).into_iter().any(|(to, m)| {
        to == pred.addr
            && matches!(m, ChordMsg::LeaveToPred { succ_of_leaver } if succ_of_leaver.id == succ.id)
    });
    assert!(to_succ, "primary items must go to the successor");
    assert!(to_pred, "predecessor must learn the new successor");
    assert!(!n.is_joined());
}

#[test]
fn stabilize_timer_rearms_and_probes_successor() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let acts = n.on_timer(Time::from_millis(500), ChordTimer::Stabilize);
    let rearmed = acts
        .iter()
        .any(|a| matches!(a, Action::SetTimer(_, ChordTimer::Stabilize)));
    assert!(rearmed, "stabilize must re-arm itself");
    let probed = sends(&acts)
        .into_iter()
        .any(|(to, m)| to == succ.addr && matches!(m, ChordMsg::GetPredecessor { .. }));
    assert!(probed);
}

/// A stabilize reply proves the successor that sent it alive. Even when
/// an earlier timeout left it suspect, it must stay in the successor
/// list: dropping it collapses the list to the node itself, which then
/// owns every key.
#[test]
fn suspect_successor_that_answers_stabilize_stays_in_list() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    // A get routed to the successor times out: the successor turns suspect.
    let now = Time::from_millis(100);
    let (get, acts) = n.get(now, Id(1500));
    assert!(sends(&acts)
        .into_iter()
        .any(|(to, m)| to == succ.addr && matches!(m, ChordMsg::Get { .. })));
    let _ = n.on_timer(now, ChordTimer::OpTimeout(get));
    // The next stabilize round still asks the successor, which answers.
    let acts = n.on_timer(now, ChordTimer::Stabilize);
    let op = sends(&acts)
        .into_iter()
        .find_map(|(to, m)| match m {
            ChordMsg::GetPredecessor { op } if to == succ.addr => Some(*op),
            _ => None,
        })
        .expect("stabilize probes the successor");
    let acts = n.handle(
        now,
        succ.addr,
        ChordMsg::PredecessorIs {
            op,
            pred: Some(me),
            succ_list: vec![me],
        },
    );
    assert_eq!(n.successor_list(), [succ], "the answering successor stays");
    assert_ne!(n.successor().id, me.id, "the list never collapses to self");
    assert!(sends(&acts)
        .into_iter()
        .any(|(to, m)| to == succ.addr && matches!(m, ChordMsg::Notify { .. })));
}

#[test]
fn pred_failure_needs_consecutive_ping_timeouts() {
    // One lost ping must NOT drop a live predecessor (under message loss
    // that splits the ring's ownership view and forks stored records);
    // `fail_threshold` consecutive losses must.
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let threshold = ChordConfig::default().fail_threshold;
    assert!(threshold >= 2, "threshold must tolerate transient loss");
    let mut t = Time::from_millis(500);
    for round in 1..=threshold {
        // Fire the check-predecessor timer: a ping goes out with an op
        // timeout; no pong ever arrives.
        let acts = n.on_timer(t, ChordTimer::CheckPredecessor);
        let op = acts
            .iter()
            .find_map(|a| match a {
                Action::SetTimer(_, ChordTimer::OpTimeout(op)) => Some(*op),
                _ => None,
            })
            .expect("ping must have a timeout");
        t = t + Duration::from_millis(500);
        let acts = n.on_timer(t, ChordTimer::OpTimeout(op));
        let dropped = events(&acts)
            .iter()
            .any(|e| matches!(e, ChordEvent::PredecessorChanged { new: None, .. }));
        if round < threshold {
            assert!(!dropped, "single loss dropped a live predecessor");
            assert!(n.predecessor().is_some());
        } else {
            assert!(dropped, "threshold losses must declare failure");
            assert!(n.predecessor().is_none());
        }
    }
}

#[test]
fn pong_resets_the_ping_failure_count() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let threshold = ChordConfig::default().fail_threshold;
    let mut t = Time::from_millis(500);
    // threshold - 1 losses, then one answered ping, then threshold - 1
    // more losses: the predecessor must survive throughout.
    for phase in 0..2 {
        for _ in 0..threshold - 1 {
            let acts = n.on_timer(t, ChordTimer::CheckPredecessor);
            let op = acts
                .iter()
                .find_map(|a| match a {
                    Action::SetTimer(_, ChordTimer::OpTimeout(op)) => Some(*op),
                    _ => None,
                })
                .expect("ping must have a timeout");
            t = t + Duration::from_millis(500);
            n.on_timer(t, ChordTimer::OpTimeout(op));
        }
        assert!(n.predecessor().is_some(), "phase {phase}: dropped early");
        if phase == 0 {
            let acts = n.on_timer(t, ChordTimer::CheckPredecessor);
            let op = acts
                .iter()
                .find_map(|a| match a {
                    Action::SetTimer(_, ChordTimer::OpTimeout(op)) => Some(*op),
                    _ => None,
                })
                .expect("ping must have a timeout");
            t = t + Duration::from_millis(100);
            n.handle(t, pred.addr, ChordMsg::Pong { op });
        }
    }
    assert!(n.predecessor().is_some());
}

#[test]
fn pong_clears_ping_op() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let acts = n.on_timer(Time::from_millis(500), ChordTimer::CheckPredecessor);
    let op = acts
        .iter()
        .find_map(|a| match a {
            Action::SetTimer(_, ChordTimer::OpTimeout(op)) => Some(*op),
            _ => None,
        })
        .unwrap();
    // Pong arrives in time.
    let _ = n.handle(Time::from_millis(600), pred.addr, ChordMsg::Pong { op });
    // The (now stale) timeout is a no-op: predecessor survives.
    let _ = n.on_timer(Time::from_millis(1000), ChordTimer::OpTimeout(op));
    assert_eq!(n.predecessor().unwrap().id, pred.id);
}

#[test]
fn transfer_keys_promotes_to_primary_and_notifies_upper_layer() {
    let me = nref(0, 1000);
    let mut n = ChordNode::new(me, ChordConfig::default());
    let _ = n.start(t0(), None);
    let acts = n.handle(
        t0(),
        NodeId(7),
        ChordMsg::TransferKeys {
            items: vec![
                (Id(10), Bytes::from_static(b"a")),
                (Id(20), Bytes::from_static(b"b")),
            ],
        },
    );
    assert!(events(&acts)
        .iter()
        .any(|e| matches!(e, ChordEvent::KeysReceived { count: 2 })));
    assert!(n.storage().get_primary(Id(10)).is_some());
    assert!(n.storage().get_primary(Id(20)).is_some());
}

#[test]
fn replicate_adopts_owned_keys_as_primary() {
    let me = nref(0, 1000);
    let pred = nref(1, 400);
    let succ = nref(2, 2000);
    let mut n = wired_node(me, pred, succ);
    let acts = n.handle(
        t0(),
        succ.addr,
        ChordMsg::Replicate {
            items: vec![
                (Id(800), Bytes::from_static(b"ours")),    // in (400, 1000]
                (Id(3000), Bytes::from_static(b"theirs")), // not ours
            ],
        },
    );
    let _ = acts;
    assert!(
        n.storage().get_primary(Id(800)).is_some(),
        "owned key adopted"
    );
    assert!(n.storage().get_primary(Id(3000)).is_none());
    assert!(n.storage().get(Id(3000)).is_some(), "kept as replica");
}
