//! The record push to standing reads: a replica's `LastTs` probe makes it a
//! watcher of the key, and the master pushes every record it publishes for
//! that key to the key's watchers as a `LastTsReply` carrying the record.
//!
//! The push is a shortcut ahead of the periodic poll, never a replacement
//! for it, so these tests check both halves: what a replica does with a
//! push (integrate the next record, retrieve up to a record further ahead,
//! drop everything else), and that a dropped, rejected or lost push leaves
//! the poll to converge the replica with all five oracles intact.
//!
//! The targeted tests inject hand-made pushes with `Sim::send_external`
//! and use a one-way fault-layer cut from the master to the reader to hold
//! back the master's own pushes and poll answers.

use bytes::Bytes;
use chord::NodeRef;
use kts::{KtsMsg, ReqId};
use p2p_ltr::{check_all, LtrConfig, LtrEventKind, LtrNet, Payload};
use p2plog::LogRecord;
use simnet::{Duration, FaultPlan, NetConfig};
use workload::scenario::{named_scenarios, run_scenario_with_mode};

const SEED: u64 = 0x9054_0001;
const DOC: &str = "push/doc";

/// A six-peer ring with `DOC` open at two peers that are not its master.
struct Ring {
    net: LtrNet,
    master: NodeRef,
    editor: NodeRef,
    reader: NodeRef,
    edits: u32,
}

impl Ring {
    fn new(cfg: LtrConfig) -> Self {
        let mut net = LtrNet::build(SEED, NetConfig::lan(), 6, cfg, Duration::from_millis(150));
        // An inert plan: no link fault, but cuts become available.
        net.install_faults(FaultPlan::new(SEED));
        net.settle(15);
        let master = net.master_of(DOC);
        let others: Vec<NodeRef> = net
            .peers
            .iter()
            .copied()
            .filter(|p| p.addr != master.addr)
            .collect();
        let (editor, reader) = (others[0], others[1]);
        net.open_doc(&[editor, reader], DOC, "seed");
        net.settle(1);
        Ring {
            net,
            master,
            editor,
            reader,
            edits: 0,
        }
    }

    /// Save a new line at the editor and wait until it is acknowledged.
    fn edit(&mut self) {
        self.edits += 1;
        let text = format!("{}\nline {}", self.text(self.editor), self.edits);
        self.net.edit(self.editor, DOC, &text);
        assert!(self.net.run_until_quiet(&[DOC], 10), "edit acked");
    }

    /// Edit once and let every replica poll, so the reader catches up and
    /// is registered as a watcher of the (now mastered) key.
    fn warm_up(&mut self) {
        self.edit();
        self.net.settle(3);
        assert_eq!(self.ts(self.reader), 1);
    }

    fn ts(&self, peer: NodeRef) -> u64 {
        self.net.node(peer).doc_ts(DOC).expect("doc open")
    }

    fn text(&self, peer: NodeRef) -> String {
        self.net.node(peer).doc_text(DOC).expect("doc open")
    }

    fn counter(&self, name: &str) -> u64 {
        self.net.sim.metrics().counter(name)
    }

    /// The epoch floor of the reader: the highest epoch it integrated.
    fn reader_floor(&self) -> u64 {
        self.net
            .node(self.reader)
            .events
            .iter()
            .filter_map(|e| match &e.kind {
                LtrEventKind::Integrated { epoch, .. } => Some(*epoch),
                _ => None,
            })
            .max()
            .unwrap_or(0)
    }

    /// Hold back everything the master sends the reader.
    fn cut_master_to_reader(&mut self) {
        self.net
            .sim
            .fault_cut(self.master.addr, self.reader.addr, true);
    }

    fn heal(&mut self) {
        self.net.sim.fault_heal_all();
    }

    /// Deliver a hand-made push of `record` at `ts` to the reader.
    fn push_to_reader(&mut self, ts: u64, record: Bytes) {
        self.net.sim.send_external(
            self.reader.addr,
            Payload::Kts(KtsMsg::LastTsReply {
                op: ReqId(0),
                key: p2plog::ht(DOC),
                last_ts: ts,
                record,
            }),
        );
        self.net.run_for(Duration::from_millis(1));
    }

    /// A well-formed record at `ts` that is not the one the log holds: a
    /// patch rewriting the reader's text.
    fn forged_record(&self, ts: u64, epoch: u64) -> Bytes {
        let old = ot::Document::from_text(&self.text(self.reader));
        let ops = ot::diff(&old, &ot::Document::from_text("forged"), 999);
        let patch = Bytes::from(ot::encode_patch(&ot::Patch::new(999, ops)));
        LogRecord::new(DOC, ts, 999, patch)
            .with_epoch(epoch)
            .encode()
    }

    /// The reader has caught up with the editor and every oracle holds.
    fn assert_converged(&mut self) {
        self.net.settle(3);
        assert!(self.net.run_until_quiet(&[DOC], 10));
        assert_eq!(self.ts(self.reader), self.ts(self.editor));
        assert_eq!(self.text(self.reader), self.text(self.editor));
        let report = check_all(&self.net.sim);
        assert!(report.is_clean(), "{}", report.summary());
    }
}

#[test]
fn a_published_record_reaches_a_watcher_by_push() {
    let mut r = Ring::new(LtrConfig::default());
    r.warm_up();
    let integrated = r.counter("ltr.push_integrated");
    r.edit();
    assert_eq!(r.ts(r.reader), 2);
    assert!(r.counter("ltr.push_integrated") > integrated, "by push");
    r.assert_converged();
}

#[test]
fn a_pushed_record_below_the_epoch_floor_is_rejected_and_the_poll_converges() {
    let mut r = Ring::new(LtrConfig::default());
    r.warm_up();
    let floor = r.reader_floor();
    assert!(floor > 0, "fenced grants carry an epoch");
    // The editor's next record reaches the log but not the reader.
    r.cut_master_to_reader();
    r.edit();
    assert_eq!(r.ts(r.reader), 1);
    // A superseded master's record for that slot arrives instead.
    let stale = r.forged_record(2, floor - 1);
    r.push_to_reader(2, stale);
    let rejected = r.net.node(r.reader).events.iter().any(|e| {
        matches!(
            &e.kind,
            LtrEventKind::EpochRejected { ts: 2, epoch, floor: f, .. }
                if *epoch == floor - 1 && *f == floor
        )
    });
    assert!(rejected, "the stale push is rejected at the epoch floor");
    assert_eq!(r.ts(r.reader), 1);
    r.heal();
    r.assert_converged();
}

#[test]
fn a_push_past_a_gap_starts_a_retrieval() {
    let mut r = Ring::new(LtrConfig::default());
    r.warm_up();
    r.cut_master_to_reader();
    r.edit();
    r.edit();
    assert_eq!(r.ts(r.reader), 1);
    // With every answer from the master cut off, only the push can start
    // the reader's retrieval of (1, 3].
    let retrievals = r.counter("ltr.retrievals");
    let record = r.forged_record(3, r.reader_floor());
    r.push_to_reader(3, record);
    assert_eq!(r.counter("ltr.retrievals"), retrievals + 1);
    assert!(r.net.node(r.reader).is_busy(DOC), "retrieving");
    r.heal();
    r.assert_converged();
    // The retrieval read the log's records, not the pushed one.
    assert!(!r.text(r.reader).contains("forged"));
}

#[test]
fn a_push_to_a_busy_document_is_ignored() {
    let mut r = Ring::new(LtrConfig::default());
    r.warm_up();
    // The reader saves; while its cycle runs, a push for the slot its own
    // patch is about to take arrives.
    let text = format!("{}\nreader line", r.text(r.reader));
    let record = r.forged_record(2, r.reader_floor());
    r.net.edit(r.reader, DOC, &text);
    r.push_to_reader(2, record);
    assert!(r.net.node(r.reader).is_busy(DOC));
    r.assert_converged();
    let foreign_at_2 = r.net.node(r.reader).events.iter().any(|e| {
        matches!(
            &e.kind,
            LtrEventKind::Integrated {
                ts: 2,
                own: false,
                ..
            }
        )
    });
    assert!(!foreign_at_2, "slot 2 is the reader's own grant");
    assert!(!r.text(r.reader).contains("forged"));
}

#[test]
fn no_sync_period_means_no_push() {
    let mut cfg = LtrConfig::default();
    cfg.sync_every = None;
    let mut r = Ring::new(cfg);
    r.edit();
    // An explicit pull still works, but registers no standing read.
    r.net.sync(r.reader, DOC);
    r.net.settle(2);
    assert_eq!(r.ts(r.reader), 1);
    r.edit();
    r.net.settle(3);
    assert_eq!(r.counter("ltr.push_sent"), 0);
    assert_eq!(r.ts(r.reader), 1, "nothing reaches the reader unasked");
    r.net.sync(r.reader, DOC);
    r.assert_converged();
}

/// Duplicated, reordered and lost pushes (the link faults of these two
/// scenarios hit pushes like any other message) keep all five oracles.
#[test]
fn faulty_links_keep_every_oracle_with_push() {
    const SEEDS: u64 = 8;
    const SEED_BASE: u64 = 0x9054_1000;
    for name in ["dup_heavy_links", "lossy_links"] {
        let sc = named_scenarios(true)
            .into_iter()
            .find(|s| s.name == name)
            .expect("named scenario");
        let mut integrated = 0;
        for seed in SEED_BASE..SEED_BASE + SEEDS {
            let out = run_scenario_with_mode(&sc, seed, chord::ReplicationMode::MerkleDiff);
            println!(
                "push {name} seed={seed:#x} ok={} push_sent={} push_integrated={}",
                out.ok(),
                out.push_sent,
                out.push_integrated
            );
            assert!(out.ok(), "{name} seed={seed:#x}: {}", out.detail);
            integrated += out.push_integrated;
        }
        assert!(integrated > 0, "{name}: pushes were exercised");
    }
}
