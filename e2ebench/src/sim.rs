//! The three simulator workloads: `sim_write_heavy`, `sim_read_heavy` and
//! `sim_failover`. Latencies are in simulated ms on `NetConfig::lan()`
//! (one-way delay uniform 0.5–2 ms, lossless).

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use chord::{Id, NodeRef};
use p2p_ltr::{check_all, LtrConfig, LtrNode, Payload, UserCmd};
use simnet::{Duration, MsgMeta, NetConfig, NodeId, NodeState, Rng64, Sim, Time, Zipf};
use store::{MemStore, RecoveredState, Store};
use workload::editors::mutate_text;

use crate::stats::{self, NodeLog, Open, Save};
use crate::trace::{span, SharedTracer, TracedNode, TracedStore, Tracer};
use crate::{layer_msgs, layer_values, put, Rep, Values};

/// Shape of one simulator workload.
#[derive(Clone, Debug)]
pub struct Shape {
    /// Ring size.
    pub peers: usize,
    /// Documents, by Zipf popularity (index 0 is the hottest).
    pub docs: usize,
    /// Zipf skew of document choice.
    pub zipf: f64,
    /// Editor peers (every doc is open at each).
    pub editors: usize,
    /// Mean think time between saves per editor during the measured
    /// phase, ms (exponential, open loop).
    pub think_ms: f64,
    /// Measured phase, simulated s.
    pub measure_s: u64,
    /// Journal every peer to a `MemStore`.
    pub mem_stores: bool,
    /// Saves the editors write during set-up, before measuring.
    pub history: usize,
    /// Every non-editor peer opens every doc during the first part of the
    /// measured phase, in staggered waves, and stays open.
    pub readers: bool,
    /// Crash the hottest doc's master every `crash_every_s` from
    /// `crash_first_s`, restarting it from its journal after `down_s`.
    pub crashes: Option<Crashes>,
}

/// Master crash/restart cycles.
#[derive(Clone, Copy, Debug)]
pub struct Crashes {
    /// First crash, s into the measured phase.
    pub first_s: u64,
    /// Period, s.
    pub every_s: u64,
    /// Outage before the restart, s.
    pub down_s: u64,
    /// Number of crashes.
    pub count: u64,
}

/// The named simulator workloads.
pub fn shape(name: &str) -> Option<Shape> {
    let base = Shape {
        peers: 48,
        docs: 16,
        zipf: 0.8,
        editors: 8,
        think_ms: 400.0,
        measure_s: 180,
        mem_stores: false,
        history: 0,
        readers: false,
        crashes: None,
    };
    Some(match name {
        "sim_write_heavy" => base,
        "sim_read_heavy" => Shape {
            peers: 32,
            docs: 64,
            editors: 4,
            think_ms: 200.0,
            measure_s: 80,
            mem_stores: true,
            history: 800,
            readers: true,
            ..base
        },
        "sim_failover" => Shape {
            peers: 16,
            docs: 8,
            editors: 8,
            think_ms: 500.0,
            measure_s: 5 + 30 * 10,
            mem_stores: true,
            crashes: Some(Crashes {
                first_s: 5,
                every_s: 10,
                down_s: 3,
                count: 30,
            }),
            ..base
        },
        _ => return None,
    })
}

/// Shared generator state: what was issued, for matching against acks.
#[derive(Default)]
struct Issued {
    saves: Vec<Save>,
    opens: Vec<Open>,
    crashes: Vec<(u64, Vec<usize>)>,
    restarts: BTreeMap<u32, u64>,
}

/// One built ring plus what the benchmark needs to drive it.
struct Ring {
    sim: Sim<Payload>,
    peers: Vec<NodeRef>,
    cfg: LtrConfig,
    docs: Vec<String>,
    tracer: Option<SharedTracer>,
    issued: Rc<RefCell<Issued>>,
    hops: Rc<RefCell<Vec<u32>>>,
}

/// The `LtrNode` at `a`, wrapped or not.
fn ltr(sim: &Sim<Payload>, a: NodeId) -> Option<&LtrNode> {
    sim.node_as::<LtrNode>(a)
        .or_else(|| sim.node_as::<TracedNode>(a).map(|t| &t.inner))
}

fn add_node(sim: &mut Sim<Payload>, node: LtrNode, tracer: &Option<SharedTracer>) -> NodeId {
    match tracer {
        Some(t) => sim.add_node(TracedNode::new(node, t.clone())),
        None => sim.add_node(node),
    }
}

fn master_of(peers: &[NodeRef], alive: impl Fn(&NodeRef) -> bool, doc: &str) -> NodeRef {
    let key = p2plog::ht(doc);
    *peers
        .iter()
        .filter(|p| alive(p))
        .min_by_key(|p| key.distance_to(p.id))
        .expect("a live peer")
}

impl Ring {
    fn run(&mut self, d: Duration) {
        match &self.tracer {
            Some(t) => {
                let t = t.clone();
                span(&t, "simnet.run", u32::MAX, 0, || self.sim.run_for(d))
            }
            None => self.sim.run_for(d),
        }
    }

    /// Step `step` at a time until `pred` holds; false after `limit`.
    fn run_until(&mut self, step: Duration, limit: Duration, pred: impl Fn(&Self) -> bool) -> bool {
        let deadline = self.sim.now() + limit;
        while !pred(self) {
            if self.sim.now() >= deadline {
                return false;
            }
            self.run(step);
        }
        true
    }

    fn node(&self, a: NodeId) -> Option<&LtrNode> {
        ltr(&self.sim, a)
    }

    fn ring_is_correct(&self) -> bool {
        let mut sorted: Vec<NodeRef> = self.peers.clone();
        sorted.sort_by_key(|p| p.id);
        sorted.iter().enumerate().all(|(i, p)| {
            let succ = sorted[(i + 1) % sorted.len()];
            let pred = sorted[(i + sorted.len() - 1) % sorted.len()];
            self.node(p.addr).is_some_and(|n| {
                n.chord().is_joined()
                    && n.chord().successor() == succ
                    && n.chord().predecessor() == Some(pred)
            })
        })
    }

    /// Open `doc` at an editor during set-up.
    fn open(&mut self, peer: NodeRef, doc: usize) {
        let name = self.docs[doc].clone();
        self.sim.send_external(
            peer.addr,
            Payload::Cmd(UserCmd::OpenDoc {
                doc: name.clone(),
                initial: format!("# {name}"),
            }),
        );
        let at = (self.sim.now() + self.sim_local_delay()).as_micros();
        self.issued.borrow_mut().opens.push(Open {
            peer: peer.addr.0,
            doc,
            at,
            late: false,
        });
    }

    fn sim_local_delay(&mut self) -> Duration {
        self.sim.net_mut().local_delay
    }

    /// Schedule open-loop saves for `editors` over `window`; `record`
    /// keeps them for matching against acks.
    fn schedule_saves(
        &mut self,
        editors: &[NodeRef],
        zipf: f64,
        window: std::ops::Range<Time>,
        think_ms: f64,
        seed: u64,
        record: bool,
    ) {
        let (from, to) = (window.start, window.end);
        let zipf = Rc::new(Zipf::new(self.docs.len(), zipf));
        let mut seeder = Rng64::new(seed);
        let local = self.sim_local_delay();
        for &peer in editors {
            let mut rng = seeder.fork();
            let mut at = from.as_micros() as f64 + rng.exp_mean(think_ms * 1000.0);
            let mut n = 0u64;
            while (at as u64) < to.as_micros() {
                let due = Time::from_micros(at as u64);
                let doc = zipf.sample(&mut rng);
                let mut edit_rng = rng.fork();
                let name = self.docs[doc].clone();
                let issued = self.issued.clone();
                let tracer = self.tracer.clone();
                // Unique per save, so no edit can rewrite a line to itself.
                let counter = (u64::from(record) << 32) | n;
                self.sim.schedule_at(
                    due,
                    Box::new(move |s: &mut Sim<Payload>| {
                        let go = || {
                            if s.node_state(peer.addr) != NodeState::Up {
                                return;
                            }
                            let Some(text) = ltr(s, peer.addr).and_then(|n| n.doc_text(&name))
                            else {
                                return;
                            };
                            let kind = crate::edit_mix().sample(&mut edit_rng);
                            let new_text = mutate_text(
                                &text,
                                kind,
                                peer.addr.0 as u64,
                                counter,
                                &mut edit_rng,
                            );
                            s.send_external(
                                peer.addr,
                                Payload::Cmd(UserCmd::Edit {
                                    doc: name,
                                    new_text,
                                }),
                            );
                            if record {
                                issued.borrow_mut().saves.push(Save {
                                    peer: peer.addr.0,
                                    doc,
                                    due: due.as_micros(),
                                    handled: (due + local).as_micros(),
                                });
                            }
                        };
                        match tracer {
                            Some(t) => span(&t, "bench.generate", u32::MAX, 0, go),
                            None => go(),
                        }
                    }),
                );
                n += 1;
                at += rng.exp_mean(think_ms * 1000.0);
            }
        }
    }

    fn idle(&self, holders: &[NodeRef]) -> bool {
        holders.iter().all(|p| {
            self.node(p.addr)
                .is_none_or(|n| self.docs.iter().all(|d| !n.is_busy(d)))
        })
    }

    /// Every holder of a doc is idle at the same timestamp.
    fn converged(&self) -> bool {
        let mut ts: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
        for a in self.sim.alive_nodes() {
            let Some(n) = self.node(a) else { continue };
            for d in &self.docs {
                if n.is_busy(d) {
                    return false;
                }
                if let Some(t) = n.doc_ts(d) {
                    let e = ts.entry(d).or_insert((t, t));
                    e.0 = e.0.min(t);
                    e.1 = e.1.max(t);
                }
            }
        }
        ts.values().all(|(lo, hi)| lo == hi)
    }
}

fn counters(sim: &Sim<Payload>) -> BTreeMap<String, u64> {
    sim.metrics()
        .counters()
        .map(|(k, v)| (k.to_owned(), v))
        .collect()
}

/// Ring identities and document names are fixed, so every seed runs the
/// same topology (which peer masters which doc, which peers edit); the
/// seed drives the network delays, the save schedule and the edits.
pub fn peer_ref(i: usize) -> NodeRef {
    NodeRef::new(
        NodeId(i as u32),
        Id::hash(format!("ltr-peer-{i}").as_bytes()),
    )
}

/// Run one repetition of `shape` with `seed`; `traced` wraps every layer.
pub fn run(shape: &Shape, seed: u64, traced: bool) -> Rep {
    run_phases(shape, seed, traced, false)
}

/// Set up `shape` (ring, opens, history) and stop before measuring: the
/// extra set-up samples behind the median `setup_s`.
pub fn setup_only(shape: &Shape, seed: u64) -> Rep {
    run_phases(shape, seed, false, true)
}

fn run_phases(shape: &Shape, seed: u64, traced: bool, setup_only: bool) -> Rep {
    let setup_start = Instant::now();
    let tracer = traced.then(Tracer::shared);
    let cfg = LtrConfig::default();
    let mut sim: Sim<Payload> = Sim::new(seed, NetConfig::lan());
    let hops: Rc<RefCell<Vec<u32>>> = Rc::default();
    let meter_hops = hops.clone();
    sim.set_wire_meter(Box::new(move |p: &Payload| {
        if let Payload::Chord(chord::ChordMsg::FoundSuccessor { hops, .. }) = p {
            meter_hops.borrow_mut().push(*hops);
        }
        MsgMeta {
            bytes: wire::frame_len(p),
            class: p.wire_class(),
        }
    }));
    let peers: Vec<NodeRef> = (0..shape.peers).map(peer_ref).collect();
    for (i, &me) in peers.iter().enumerate() {
        let bootstrap = (i > 0).then_some(peers[0]);
        let delay = Duration::from_millis(50) * i as u64;
        let store: Box<dyn Store> = match (shape.mem_stores, &tracer) {
            (false, _) => Box::new(store::NullStore),
            (true, None) => Box::new(MemStore::new()),
            (true, Some(t)) => Box::new(TracedStore::new(
                Box::new(MemStore::new()),
                me.addr.0,
                t.clone(),
            )),
        };
        let node = LtrNode::with_store(me, cfg.clone(), bootstrap, delay, store);
        let got = add_node(&mut sim, node, &tracer);
        assert_eq!(got, me.addr);
    }
    let docs: Vec<String> = (0..shape.docs).map(|d| format!("wiki/doc-{d}")).collect();
    let mut ring = Ring {
        sim,
        peers: peers.clone(),
        cfg,
        docs,
        tracer: tracer.clone(),
        issued: Rc::default(),
        hops,
    };
    let mut rep = Rep::default();
    let step = Duration::from_millis(100);
    if !ring.run_until(step, Duration::from_secs(120), Ring::ring_is_correct) {
        rep.failures
            .push("ring did not converge during set-up".into());
        return rep;
    }

    // Editors: a fixed choice like the topology (never the hottest doc's
    // master when that master is the one that crashes).
    let victim = master_of(&peers, |_| true, &ring.docs[0]);
    let mut order: Vec<NodeRef> = peers.clone();
    if shape.crashes.is_some() {
        order.retain(|p| *p != victim);
    }
    Rng64::new(0xed17).shuffle(&mut order);
    let editors: Vec<NodeRef> = order[..shape.editors].to_vec();
    let readers: Vec<NodeRef> = peers
        .iter()
        .filter(|p| !editors.contains(p))
        .copied()
        .collect();
    for e in &editors {
        for d in 0..shape.docs {
            ring.open(*e, d);
        }
    }
    let eds = editors.clone();
    if !ring.run_until(step, Duration::from_secs(30), |r| {
        eds.iter().all(|e| {
            r.node(e.addr)
                .is_some_and(|n| r.docs.iter().all(|d| n.doc_ts(d).is_some()))
        })
    }) {
        rep.failures
            .push("documents did not open during set-up".into());
        return rep;
    }
    if shape.history > 0 {
        // Write the history fast enough to be done in a few simulated
        // seconds, then wait until every save is acked.
        let rate_per_editor = 20.0;
        let secs = shape.history as f64 / (rate_per_editor * shape.editors as f64);
        let from = ring.sim.now();
        let to = from + Duration::from_micros((secs * 1e6) as u64);
        ring.schedule_saves(
            &editors,
            shape.zipf,
            from..to,
            1000.0 / rate_per_editor,
            seed ^ 0x4157,
            false,
        );
        ring.run(to.since(from));
        if !ring.run_until(step, Duration::from_secs(60), |r| r.idle(&eds)) {
            rep.failures
                .push("history did not finish during set-up".into());
            return rep;
        }
    }
    rep.setup_s = setup_start.elapsed().as_secs_f64();
    if setup_only {
        return rep;
    }

    // ---- measured phase --------------------------------------------------
    let t0 = ring.sim.now();
    let t1 = t0 + Duration::from_secs(shape.measure_s);
    ring.schedule_saves(
        &editors,
        shape.zipf,
        t0..t1,
        shape.think_ms,
        seed ^ 0x5a7e,
        true,
    );
    if shape.readers {
        let window = shape.measure_s as f64 * 0.6;
        let total = readers.len() * shape.docs;
        let mut slot = 0usize;
        let mut rng = Rng64::new(seed ^ 0x0be7);
        let mut plan: Vec<(NodeRef, usize)> = Vec::with_capacity(total);
        for d in 0..shape.docs {
            for r in &readers {
                plan.push((*r, d));
            }
        }
        rng.shuffle(&mut plan);
        for (r, d) in plan {
            let at = t0 + Duration::from_micros((window * 1e6 * slot as f64 / total as f64) as u64);
            slot += 1;
            let name = ring.docs[d].clone();
            let issued = ring.issued.clone();
            let tracer = ring.tracer.clone();
            ring.sim.schedule_at(
                at,
                Box::new(move |s: &mut Sim<Payload>| {
                    let go = || {
                        let local = s.net_mut().local_delay;
                        s.send_external(
                            r.addr,
                            Payload::Cmd(UserCmd::OpenDoc {
                                doc: name.clone(),
                                initial: format!("# {name}"),
                            }),
                        );
                        s.send_external(r.addr, Payload::Cmd(UserCmd::Sync { doc: name }));
                        issued.borrow_mut().opens.push(Open {
                            peer: r.addr.0,
                            doc: d,
                            at: (s.now() + local).as_micros(),
                            late: true,
                        });
                    };
                    match tracer {
                        Some(t) => span(&t, "bench.generate", u32::MAX, 0, go),
                        None => go(),
                    }
                }),
            );
        }
    }
    if let Some(c) = shape.crashes {
        schedule_crashes(&mut ring, c, t0, victim);
    }
    if let Some(t) = &ring.tracer {
        t.borrow_mut().spans.clear();
        t.borrow_mut().marks.clear();
    }
    let before = counters(&ring.sim);
    let events_before = ring.sim.events_processed();
    let hops_before = ring.hops.borrow().len();
    let cpu0 = stats::cpu_ns();
    ring.run(t1.since(t0));
    let cpu_ms = (stats::cpu_ns() - cpu0) as f64 / 1e6;
    let after = counters(&ring.sim);
    let events = ring.sim.events_processed() - events_before;
    rep.drive_s = shape.measure_s as f64;
    rep.cpu_ms_per_s = cpu_ms / rep.drive_s;
    if let Some(t) = &ring.tracer {
        let acks = after.get("ltr.publish_ok").copied().unwrap_or(0)
            - before.get("ltr.publish_ok").copied().unwrap_or(0);
        rep.layers = layer_values(&t.borrow(), acks);
        rep.spans = Some(t.clone());
    }
    let delta = |k: &str| after.get(k).copied().unwrap_or(0) - before.get(k).copied().unwrap_or(0);
    rep.wire_kb_per_s = delta("wire.bytes.total") as f64 / 1000.0 / rep.drive_s;

    // Exact counts of the measured phase.
    let mut per_class: BTreeMap<String, u64> = BTreeMap::new();
    let mut class_bytes: BTreeMap<String, u64> = BTreeMap::new();
    for k in after.keys() {
        if let Some(class) = k.strip_prefix("wire.msgs.").filter(|c| *c != "total") {
            per_class.insert(class.to_owned(), delta(k));
            class_bytes.insert(class.to_owned(), delta(&format!("wire.bytes.{class}")));
        }
    }
    let class_sum: u64 = per_class.values().sum();
    if class_sum != delta("wire.msgs.total") {
        rep.failures.push(format!(
            "per-class message counts sum to {class_sum}, wire.msgs.total is {}",
            delta("wire.msgs.total")
        ));
    }
    let ex = &mut rep.exact;
    put(ex, "simnet.events", events as f64, "count");
    for (layer, n) in layer_msgs(&per_class) {
        put(ex, &format!("{layer}.msgs"), n as f64, "count");
    }
    let sync_bytes: u64 = class_bytes
        .iter()
        .filter(|(c, _)| *c == "chord.replicate" || c.starts_with("chord.sync."))
        .map(|(_, b)| b)
        .sum();
    put(ex, "chord.sync.bytes", sync_bytes as f64, "bytes");
    for (key, class) in crate::CLASS_COUNTS {
        put(
            ex,
            key,
            per_class.get(class).copied().unwrap_or(0) as f64,
            "count",
        );
    }
    let mut hops: Vec<f64> = ring.hops.borrow()[hops_before..]
        .iter()
        .map(|&h| h as f64)
        .collect();
    put(
        ex,
        "chord.lookup_hops_p50",
        stats::percentile(&mut hops, 0.5).unwrap_or(0.0),
        "hops",
    );
    put(
        ex,
        "kts.probes",
        delta("kts.probes_started") as f64,
        "count",
    );
    put(
        ex,
        "kts.promotions",
        delta("kts.backups_promoted") as f64,
        "count",
    );
    put(ex, "kts.grants", delta("kts.grants") as f64, "count");
    put(
        ex,
        "p2plog.retrieve.fallbacks",
        delta("ltr.fetch_fallbacks") as f64,
        "count",
    );
    put(
        ex,
        "ltr.integrated",
        delta("ltr.integrated") as f64,
        "count",
    );
    put(ex, "store.appends", delta("store.appends") as f64, "count");
    put(
        ex,
        "wire.msgs.total",
        delta("wire.msgs.total") as f64,
        "count",
    );
    put(
        ex,
        "wire.bytes.total",
        delta("wire.bytes.total") as f64,
        "bytes",
    );
    put(ex, "wire.decode_errors", 0.0, "count");

    // ---- drain: acks of saves still in flight, then convergence --------
    let drained = ring.run_until(step, Duration::from_secs(30), |r| r.idle(&eds));
    let converged = ring.run_until(
        Duration::from_millis(500),
        Duration::from_secs(60),
        Ring::converged,
    );
    if !drained || !converged {
        rep.failures.push(format!(
            "drain incomplete: idle={drained} converged={converged}"
        ));
    }
    let issued = ring.issued.borrow();
    let logs: Vec<NodeLog<'_>> = ring
        .sim
        .alive_nodes()
        .into_iter()
        .filter_map(|a| {
            ring.node(a).map(|n| NodeLog {
                peer: a.0,
                since: issued.restarts.get(&a.0).copied().unwrap_or(0),
                events: &n.events,
            })
        })
        .collect();
    rep.lat = stats::latencies(
        t0.as_micros(),
        &ring.docs,
        &issued.saves,
        &issued.opens,
        &logs,
        &issued.crashes,
    );
    if rep.lat.failed > 0 {
        rep.failures.push(format!(
            "{} of {} saves never acked",
            rep.lat.failed, rep.lat.issued
        ));
    }
    if !traced {
        // The oracles downcast to `LtrNode`, so they run untraced only.
        let report = check_all(&ring.sim);
        if !report.is_clean() {
            rep.failures.push(format!("oracles: {}", report.summary()));
        }
        rep.notes.push(format!("oracles: {}", report.summary()));
    }
    rep
}

fn schedule_crashes(ring: &mut Ring, c: Crashes, t0: Time, victim: NodeRef) {
    for k in 0..c.count {
        let at = t0 + Duration::from_secs(c.first_s + k * c.every_s);
        let issued = ring.issued.clone();
        let docs = ring.docs.clone();
        let peers = ring.peers.clone();
        ring.sim.schedule_at(
            at,
            Box::new(move |s: &mut Sim<Payload>| {
                let mastered: Vec<usize> = docs
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| {
                        master_of(&peers, |p| s.node_state(p.addr) == NodeState::Up, d) == victim
                    })
                    .map(|(i, _)| i)
                    .collect();
                s.crash(victim.addr);
                issued
                    .borrow_mut()
                    .crashes
                    .push((s.now().as_micros(), mastered));
            }),
        );
        let issued = ring.issued.clone();
        let cfg = ring.cfg.clone();
        let tracer = ring.tracer.clone();
        let peers = ring.peers.clone();
        ring.sim.schedule_at(
            at + Duration::from_secs(c.down_s),
            Box::new(move |s: &mut Sim<Payload>| {
                let store = ltr(s, victim.addr)
                    .expect("victim is a node")
                    .store_handle();
                let replay = store.replay().expect("journal replays");
                let state = RecoveredState::rebuild(&replay.entries);
                let bootstrap = peers
                    .iter()
                    .find(|p| **p != victim && s.node_state(p.addr) == NodeState::Up)
                    .copied();
                let node = LtrNode::recover(victim, cfg, bootstrap, Duration::ZERO, store, state);
                match tracer {
                    Some(t) => s.restart_node(victim.addr, TracedNode::new(node, t)),
                    None => s.restart_node(victim.addr, node),
                }
                issued
                    .borrow_mut()
                    .restarts
                    .insert(victim.addr.0, s.now().as_micros());
            }),
        );
    }
}

/// The untraced metrics two runs of one seed must repeat exactly.
pub fn fingerprint(rep: &Rep) -> Values {
    let mut f = rep.exact.clone();
    let lat = &rep.lat;
    for (name, v) in [
        ("save_ack", &lat.save_ack),
        ("reconcile", &lat.reconcile),
        ("catchup", &lat.catchup),
        ("unavailable", &lat.unavailable),
    ] {
        let mut v = v.clone();
        put(&mut f, &format!("{name}.n"), v.len() as f64, "count");
        put(
            &mut f,
            &format!("{name}.p50"),
            stats::percentile(&mut v, 0.5).unwrap_or(0.0),
            "ms",
        );
        put(
            &mut f,
            &format!("{name}.p99"),
            stats::percentile(&mut v, 0.99).unwrap_or(0.0),
            "ms",
        );
    }
    put(&mut f, "wire_kb_per_s", rep.wire_kb_per_s, "kB/s");
    f
}
