//! `socket_service`: the real stack through `WireNet` over `RtTransport`
//! on loopback, in one thread, with `FileStore` journals. Latencies are in
//! wall ms.
//!
//! Saves enter through one persistent client `RtTransport` endpoint (the
//! default injector opens a TCP connection per command). A rated open-loop
//! phase is followed by a closed-loop saturation phase.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use chord::NodeRef;
use p2p_ltr::{LtrConfig, LtrEventKind, LtrNode, Payload, UserCmd};
use simnet::{Duration, NodeId, Rng64};
use store::{FileStore, Store, StoreConfig};
use wire::{RtHub, RtTransport, Transport, WireNet};
use workload::editors::mutate_text;

use crate::stats::{self, NodeLog, Open, Save};
use crate::trace::{
    span, CountingTransport, SharedTracer, TracedNode, TracedStore, Tracer, TransportStats,
};
use crate::{layer_values, put, Rep};

/// Shape of the socket workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Peers in the ring.
    pub peers: usize,
    /// Documents.
    pub docs: usize,
    /// Peers holding each document.
    pub holders: usize,
    /// Open-loop save rate of the rated phase, saves/s.
    pub rated_per_s: f64,
    /// Rated phase, wall s.
    pub rated_s: f64,
    /// Closed-loop phase, wall s.
    pub saturation_s: f64,
}

/// The socket workload's shape.
pub fn shape() -> Shape {
    Shape {
        peers: 8,
        docs: 32,
        holders: 3,
        rated_per_s: 600.0,
        rated_s: 4.0,
        saturation_s: 1.5,
    }
}

/// In the closed loop, an idle holder whose save went out this long ago
/// (µs) has had it acked by a merged cycle.
const MERGED_AFTER_US: u64 = 50_000;

/// Address of the client endpoint that injects saves.
const CLIENT: NodeId = NodeId(1_000_000);

fn ltr(net: &WireNet<Payload>, a: NodeId) -> Option<&LtrNode> {
    net.node_as::<LtrNode>(a)
        .or_else(|| net.node_as::<TracedNode>(a).map(|t| &t.inner))
}

struct Service {
    net: WireNet<Payload>,
    client: Rc<RefCell<RtTransport>>,
    tracer: Option<SharedTracer>,
    peers: Vec<NodeRef>,
    docs: Vec<String>,
}

impl Service {
    /// One pump of every node (and the client's I/O); parks briefly on
    /// the client endpoint when nothing happened.
    fn pump(&mut self) {
        let n = match &self.tracer {
            Some(t) => {
                let t = t.clone();
                span(&t, "wire.pump", u32::MAX, 0, || self.net.pump())
            }
            None => self.net.pump(),
        };
        let mut c = self.client.borrow_mut();
        c.poll(std::time::Duration::ZERO);
        if n == 0 {
            c.poll(std::time::Duration::from_micros(100));
        }
    }

    fn run_until(&mut self, limit: std::time::Duration, pred: impl Fn(&Self) -> bool) -> bool {
        let deadline = Instant::now() + limit;
        while !pred(self) {
            if Instant::now() > deadline {
                return false;
            }
            self.pump();
        }
        true
    }

    fn node(&self, i: usize) -> Option<&LtrNode> {
        ltr(&self.net, self.peers[i].addr)
    }

    fn ring_is_correct(&self) -> bool {
        let mut sorted = self.peers.clone();
        sorted.sort_by_key(|p| p.id);
        sorted.iter().enumerate().all(|(i, p)| {
            let succ = sorted[(i + 1) % sorted.len()];
            let pred = sorted[(i + sorted.len() - 1) % sorted.len()];
            ltr(&self.net, p.addr).is_some_and(|n| {
                n.chord().is_joined()
                    && n.chord().successor() == succ
                    && n.chord().predecessor() == Some(pred)
            })
        })
    }

    /// Send a save of `doc` at holder `peer`; false if the client refused.
    fn save(&self, peer: usize, doc: usize, counter: u64, rng: &mut Rng64) -> bool {
        let name = &self.docs[doc];
        let Some(text) = self.node(peer).and_then(|n| n.doc_text(name)) else {
            return false;
        };
        let kind = crate::edit_mix().sample(rng);
        let new_text = mutate_text(&text, kind, peer as u64, counter, rng);
        self.net
            .send_external(
                self.peers[peer].addr,
                Payload::Cmd(UserCmd::Edit {
                    doc: name.clone(),
                    new_text,
                }),
            )
            .is_ok()
    }

    fn idle(&self, holders: &[Vec<usize>]) -> bool {
        holders.iter().enumerate().all(|(d, hs)| {
            hs.iter()
                .all(|&h| self.node(h).is_some_and(|n| !n.is_busy(&self.docs[d])))
        })
    }

    fn converged(&self, holders: &[Vec<usize>]) -> bool {
        self.idle(holders)
            && holders.iter().enumerate().all(|(d, hs)| {
                let name = &self.docs[d];
                let first = self.node(hs[0]).map(|n| (n.doc_ts(name), n.doc_text(name)));
                hs.iter()
                    .all(|&h| self.node(h).map(|n| (n.doc_ts(name), n.doc_text(name))) == first)
            })
    }
}

/// Run one repetition; FileStore journals live under `tmp`.
pub fn run(shape: &Shape, seed: u64, traced: bool, tmp: &Path) -> Rep {
    let mut rep = Rep::default();
    let dir = tmp.join(format!(
        "socket-{}-{seed}-{}",
        std::process::id(),
        traced as u8
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let out = run_in(shape, seed, traced, &dir, &mut rep);
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = out {
        rep.failures.push(e);
    }
    rep
}

fn run_in(shape: &Shape, seed: u64, traced: bool, dir: &Path, rep: &mut Rep) -> Result<(), String> {
    let setup_start = Instant::now();
    let tracer = traced.then(Tracer::shared);
    let hub = RtHub::new();
    let stats: Rc<RefCell<TransportStats>> = Rc::default();
    let client = Rc::new(RefCell::new(
        hub.endpoint(CLIENT)
            .map_err(|e| format!("client endpoint: {e}"))?,
    ));
    let inject_client = client.clone();
    let (make, t2, s2) = (hub.clone(), tracer.clone(), stats.clone());
    let mut net: WireNet<Payload> = WireNet::new(
        seed,
        Box::new(move |me| {
            let ep = make.endpoint(me).expect("bind loopback listener");
            Box::new(CountingTransport::new(ep, me.0, t2.clone(), s2.clone())) as Box<dyn Transport>
        }),
        Box::new(move |to, frame| {
            inject_client
                .borrow_mut()
                .send_batch(to, &[Bytes::copy_from_slice(frame)])
                .map(|_| ())
        }),
    );
    let cfg = LtrConfig::default();
    let peers: Vec<NodeRef> = (0..shape.peers).map(crate::sim::peer_ref).collect();
    for (i, &me) in peers.iter().enumerate() {
        let (fs, _) = FileStore::open(dir.join(format!("peer-{i}")), StoreConfig::default())
            .map_err(|e| format!("store: {e}"))?;
        let store: Box<dyn Store> = match &tracer {
            Some(t) => Box::new(TracedStore::new(Box::new(fs), me.addr.0, t.clone())),
            None => Box::new(fs),
        };
        let node = LtrNode::with_store(
            me,
            cfg.clone(),
            (i > 0).then_some(peers[0]),
            Duration::from_millis(20) * i as u64,
            store,
        );
        let got = match &tracer {
            Some(t) => net.add_node(TracedNode::new(node, t.clone())),
            None => net.add_node(node),
        };
        assert_eq!(got, me.addr);
    }
    let docs: Vec<String> = (0..shape.docs).map(|d| format!("svc/doc-{d}")).collect();
    let mut svc = Service {
        net,
        client,
        tracer: tracer.clone(),
        peers,
        docs,
    };
    let limit = std::time::Duration::from_secs(30);
    if !svc.run_until(limit, Service::ring_is_correct) {
        return Err("ring did not converge during set-up".into());
    }
    let mut rng = Rng64::new(seed ^ 0x50c7);
    let holders: Vec<Vec<usize>> = (0..shape.docs)
        .map(|_| {
            let mut all: Vec<usize> = (0..shape.peers).collect();
            rng.shuffle(&mut all);
            all.truncate(shape.holders);
            all
        })
        .collect();
    let mut opens = Vec::new();
    for (d, hs) in holders.iter().enumerate() {
        for &h in hs {
            let at = svc.net.now().as_micros();
            svc.net
                .send_external(
                    svc.peers[h].addr,
                    Payload::Cmd(UserCmd::OpenDoc {
                        doc: svc.docs[d].clone(),
                        initial: format!("# {}", svc.docs[d]),
                    }),
                )
                .map_err(|e| format!("open: {e}"))?;
            opens.push(Open {
                peer: h as u32,
                doc: d,
                at,
                late: false,
            });
        }
    }
    let hs2 = holders.clone();
    if !svc.run_until(limit, |s| {
        hs2.iter().enumerate().all(|(d, hs)| {
            hs.iter()
                .all(|&h| s.node(h).is_some_and(|n| n.doc_ts(&s.docs[d]).is_some()))
        })
    }) {
        return Err("documents did not open during set-up".into());
    }
    rep.setup_s = setup_start.elapsed().as_secs_f64();

    // ---- rated open-loop phase --------------------------------------------
    if let Some(t) = &tracer {
        t.borrow_mut().spans.clear();
        t.borrow_mut().marks.clear();
    }
    let mut plan: Vec<(f64, usize, usize)> = Vec::new(); // (due offset s, holder, doc)
    let mut at = 0.0;
    loop {
        at += rng.exp_mean(1.0 / shape.rated_per_s);
        if at >= shape.rated_s {
            break;
        }
        let doc = rng.index(shape.docs);
        let holder = holders[doc][rng.index(shape.holders)];
        plan.push((at, holder, doc));
    }
    let mut saves: Vec<Save> = Vec::with_capacity(plan.len());
    let (bytes0, recv0) = {
        let s = stats.borrow();
        (s.bytes_sent, s.frames_recv)
    };
    let cpu0 = stats::cpu_ns();
    let start = svc.net.now().as_micros();
    let mut next = 0;
    let mut edit_rng = rng.fork();
    let mut refused = 0u64;
    while (svc.net.now().as_micros() - start) as f64 / 1e6 < shape.rated_s {
        let now = svc.net.now().as_micros();
        while next < plan.len() && start + (plan[next].0 * 1e6) as u64 <= now {
            let (off, holder, doc) = plan[next];
            let due = start + (off * 1e6) as u64;
            let go = |svc: &Service, rng: &mut Rng64| svc.save(holder, doc, next as u64, rng);
            let ok = match &tracer {
                Some(t) => span(t, "bench.generate", u32::MAX, 0, || go(&svc, &mut edit_rng)),
                None => go(&svc, &mut edit_rng),
            };
            let sent = svc.net.now().as_micros();
            if ok {
                rep.late_ms.push(sent.saturating_sub(due) as f64 / 1000.0);
                saves.push(Save {
                    peer: holder as u32,
                    doc,
                    due,
                    handled: sent,
                });
            } else {
                refused += 1;
            }
            next += 1;
        }
        svc.pump();
    }
    let rated_wall = (svc.net.now().as_micros() - start) as f64 / 1e6;
    rep.cpu_ms_per_s = (stats::cpu_ns() - cpu0) as f64 / 1e6 / rated_wall;
    rep.wire_kb_per_s = (stats.borrow().bytes_sent - bytes0) as f64 / 1000.0 / rated_wall;
    rep.drive_s = rated_wall;
    let rated_recv = stats.borrow().frames_recv - recv0;
    if let Some(t) = &tracer {
        rep.layers = layer_values(&t.borrow(), saves.len() as u64);
        rep.spans = Some(t.clone());
    }

    // ---- closed-loop saturation phase -------------------------------------
    // One outstanding save per (holder, doc); the next goes out as soon
    // as the holder acks a cycle that began after the previous save.
    let pairs: Vec<(usize, usize)> = holders
        .iter()
        .enumerate()
        .flat_map(|(d, hs)| hs.iter().map(move |&h| (h, d)))
        .collect();
    let mut seen: Vec<usize> = (0..shape.peers)
        .map(|i| svc.node(i).map_or(0, |n| n.events.len()))
        .collect();
    let mut outstanding: BTreeMap<(usize, usize), u64> = BTreeMap::new();
    let mut sat_saves: Vec<Save> = Vec::new();
    let sat_start = Instant::now();
    let mut sat_acks = 0u64;
    let mut counter = 1u64 << 32;
    let mut issue = |svc: &Service,
                     h: usize,
                     d: usize,
                     out: &mut BTreeMap<(usize, usize), u64>,
                     saves: &mut Vec<Save>,
                     rng: &mut Rng64| {
        counter += 1;
        let t = svc.net.now().as_micros();
        if svc.save(h, d, counter, rng) {
            out.insert((h, d), t);
            saves.push(Save {
                peer: h as u32,
                doc: d,
                due: t,
                handled: t,
            });
        }
    };
    for &(h, d) in &pairs {
        issue(&svc, h, d, &mut outstanding, &mut sat_saves, &mut edit_rng);
    }
    while sat_start.elapsed().as_secs_f64() < shape.saturation_s {
        svc.pump();
        for (h, seen) in seen.iter_mut().enumerate() {
            let Some(n) = svc.node(h) else { continue };
            let fresh: Vec<(usize, u64)> = n.events[*seen..]
                .iter()
                .filter_map(|e| match &e.kind {
                    LtrEventKind::OwnPublished {
                        doc, latency_ms, ..
                    } => {
                        let d = svc.docs.iter().position(|x| x.as_str() == &**doc)?;
                        let cycle =
                            e.at.as_micros()
                                .saturating_sub((latency_ms * 1000.0).round() as u64);
                        Some((d, cycle))
                    }
                    _ => None,
                })
                .collect();
            *seen = n.events.len();
            for (d, cycle) in fresh {
                sat_acks += 1;
                if outstanding.get(&(h, d)).is_some_and(|&t| cycle >= t) {
                    issue(&svc, h, d, &mut outstanding, &mut sat_saves, &mut edit_rng);
                }
            }
        }
        // A save merged into a cycle that had to retrieve is acked by that
        // cycle, which began before it: once the holder is idle again
        // (and the save has had time to arrive), it is done.
        let now = svc.net.now().as_micros();
        let stale: Vec<(usize, usize)> = outstanding
            .iter()
            .filter(|(&(h, d), &t)| {
                now.saturating_sub(t) > MERGED_AFTER_US
                    && svc.node(h).is_some_and(|n| !n.is_busy(&svc.docs[d]))
            })
            .map(|(&k, _)| k)
            .collect();
        for (h, d) in stale {
            issue(&svc, h, d, &mut outstanding, &mut sat_saves, &mut edit_rng);
        }
    }
    rep.saturation = Some(sat_acks as f64 / sat_start.elapsed().as_secs_f64());

    // ---- drain and correctness ----------------------------------------------
    let drained = svc.run_until(std::time::Duration::from_secs(20), |s| s.idle(&holders));
    let converged = svc.run_until(std::time::Duration::from_secs(20), |s| {
        s.converged(&holders)
    });
    if !drained || !converged {
        rep.failures.push(format!(
            "drain incomplete: idle={drained} converged={converged}"
        ));
    }
    let logs: Vec<NodeLog<'_>> = (0..shape.peers)
        .filter_map(|i| {
            svc.node(i).map(|n| NodeLog {
                peer: i as u32,
                since: 0,
                events: &n.events,
            })
        })
        .collect();
    rep.lat = stats::latencies(start, &svc.docs, &saves, &opens, &logs, &[]);
    let sat = stats::latencies(start, &svc.docs, &sat_saves, &opens, &logs, &[]);
    rep.lat.issued += sat.issued + refused;
    rep.lat.failed += sat.failed + refused;
    if rep.lat.failed > 0 {
        rep.failures.push(format!(
            "{} of {} saves never acked",
            rep.lat.failed, rep.lat.issued
        ));
    }
    // Continuity: per doc the union of grants is exactly 1..=last.
    let mut granted: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    for i in 0..shape.peers {
        if let Some(n) = svc.node(i) {
            for (doc, ts) in n.grants() {
                granted.entry(doc).or_default().push(ts);
            }
        }
    }
    let mut continuity = true;
    for (doc, mut ts) in granted {
        ts.sort_unstable();
        if ts.iter().enumerate().any(|(i, &t)| t != i as u64 + 1) {
            continuity = false;
            rep.failures.push(format!("continuity broken on {doc}"));
        }
    }
    let mut send_err = 0;
    let mut decode_err = 0;
    for i in 0..shape.peers {
        for (k, v) in svc.net.metrics(NodeId(i as u32)).counters() {
            if k.starts_with("wire.send_err.") {
                send_err += v;
            } else if k == "wire.decode_errors" {
                decode_err += v;
            }
        }
    }
    let st = stats.borrow().clone();
    let ex = &mut rep.exact;
    put(
        ex,
        "wire.transport.frames_sent",
        st.frames_sent as f64,
        "count",
    );
    put(
        ex,
        "wire.transport.bytes_sent",
        st.bytes_sent as f64,
        "bytes",
    );
    put(
        ex,
        "wire.transport.frames_per_send",
        st.frames_sent as f64 / st.sends.max(1) as f64,
        "ratio",
    );
    put(
        ex,
        "wire.transport.backpressure",
        st.backpressure as f64,
        "count",
    );
    put(ex, "wire.send_err", send_err as f64, "count");
    put(ex, "wire.decode_errors", decode_err as f64, "count");
    if tracer.is_some() {
        // Every frame received in the rated phase was decoded and handed
        // to exactly one handler: per-class counts sum to the total.
        let handled = rep.layers.get("traced.msgs.total").map_or(0.0, |v| v.v) as u64;
        if handled + decode_err != rated_recv {
            rep.failures.push(format!(
                "per-class handler calls sum to {handled}, frames received {rated_recv}"
            ));
        }
    }
    rep.notes.push(format!(
        "continuity={continuity} convergence={converged} saves={} refused={refused}",
        rep.lat.issued
    ));
    Ok(())
}
