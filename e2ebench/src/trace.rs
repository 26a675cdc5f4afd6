//! Spans recorded from outside the program: benchmark-owned wrappers around
//! the public entry points of each layer (`simnet::Process`,
//! `wire::Transport`, `store::Store`) plus the run loops that drive them.
//!
//! A span has a name, a start and an end (ns since the tracer was made),
//! the span that was open when it began (its parent) and the request id
//! its payload carries (`ReqId`/`OpId`, 0 when none), so all spans of one
//! save share an id. Spans stay in memory and are written out once, when
//! the benchmark ends.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use chord::ChordMsg;
use p2p_ltr::{LtrNode, Payload};
use simnet::{Ctx, NodeId, Process};
use store::{Replay, Store, StoreEntry, StoreError};
use wire::{Readiness, Transport, TransportError};

/// One recorded span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Index into the tracer's span names.
    pub name: u16,
    /// Node the span ran on (`u32::MAX` for loop-level spans).
    pub node: u32,
    /// Start, ns since the tracer's epoch.
    pub start: u64,
    /// End, ns since the tracer's epoch.
    pub end: u64,
    /// Index + 1 of the enclosing span, 0 for a root.
    pub parent: u32,
    /// Request/operation id carried by the payload, 0 when none.
    pub id: u64,
}

impl Span {
    /// Duration in ns.
    pub fn dur(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// In-memory span recorder shared by every wrapper of one run.
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    index: BTreeMap<&'static str, u16>,
    /// Every span recorded so far, in start order.
    pub spans: Vec<Span>,
    /// Request milestones, in arrival order (see [`phases`]).
    pub marks: Vec<Mark>,
    open: Vec<u32>,
}

/// A request milestone seen where a message arrives, on the clock the
/// node saw (µs).
#[derive(Clone, Debug)]
pub struct Mark {
    /// What arrived.
    pub kind: MarkKind,
    /// The saving peer.
    pub user: u32,
    /// The request id (0 for a save).
    pub op: u64,
    /// Document (empty on replies).
    pub doc: String,
    /// Arrival time, µs.
    pub at: u64,
}

/// Milestones of one stamped edit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MarkKind {
    /// A save reached the user's peer.
    Save,
    /// `Validate` reached the master.
    Validate,
    /// `Granted` reached the user.
    Granted,
    /// `Retry` reached the user (it is behind and must retrieve).
    Retry,
    /// `Redirect` or `Failed` reached the user.
    Other,
}

/// The handle the wrappers hold.
pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    /// A fresh tracer behind a shared handle.
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Tracer {
            epoch: Instant::now(),
            names: Vec::new(),
            index: BTreeMap::new(),
            spans: Vec::new(),
            marks: Vec::new(),
            open: Vec::new(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its index for [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str, node: u32, id: u64) -> u32 {
        let next = self.names.len() as u16;
        let name_ix = *self.index.entry(name).or_insert(next);
        if name_ix == next {
            self.names.push(name);
        }
        let parent = self.open.last().map_or(0, |&p| p + 1);
        let ix = self.spans.len() as u32;
        let start = self.now_ns();
        self.spans.push(Span {
            name: name_ix,
            node,
            start,
            end: start,
            parent,
            id,
        });
        self.open.push(ix);
        ix
    }

    /// Close the span `ix` (the innermost open one).
    pub fn end(&mut self, ix: u32) {
        let end = self.now_ns();
        self.spans[ix as usize].end = end;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(ix), "spans close innermost first");
    }

    /// Per-name totals: calls, total ns, self ns (total minus the time of
    /// direct children), and every duration (for percentiles).
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent > 0 {
                child_ns[(s.parent - 1) as usize] += s.dur();
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let t = out.entry(self.names[s.name as usize]).or_default();
            t.calls += 1;
            t.total_ns += s.dur();
            t.self_ns += s.dur().saturating_sub(child_ns[i]);
            t.durs.push(s.dur());
        }
        out
    }

    /// Write every span as one tab-separated line:
    /// `name node start_ns end_ns parent id` (parent is the 1-based line
    /// number of the enclosing span, 0 for a root).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "name\tnode\tstart_ns\tend_ns\tparent\tid")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                self.names[s.name as usize], s.node, s.start, s.end, s.parent, s.id
            )?;
        }
        w.flush()
    }
}

/// Aggregate of all spans of one name.
#[derive(Clone, Debug, Default)]
pub struct NameTotals {
    /// Number of spans.
    pub calls: u64,
    /// Sum of durations, ns.
    pub total_ns: u64,
    /// Sum of self times, ns.
    pub self_ns: u64,
    /// Every duration, ns.
    pub durs: Vec<u64>,
}

/// Time `f` as one span.
pub fn span<R>(
    t: &SharedTracer,
    name: &'static str,
    node: u32,
    id: u64,
    f: impl FnOnce() -> R,
) -> R {
    let ix = t.borrow_mut().begin(name, node, id);
    let r = f();
    t.borrow_mut().end(ix);
    r
}

/// The request id a payload carries: the KTS `ReqId` or the chord `OpId`.
pub fn payload_id(msg: &Payload) -> u64 {
    match msg {
        Payload::Kts(m) => kts_op(m),
        Payload::Chord(m) => chord_op(m),
        Payload::Cmd(_) => 0,
    }
}

fn kts_op(m: &kts::KtsMsg) -> u64 {
    use kts::KtsMsg::*;
    match m {
        Validate { op, .. }
        | Granted { op, .. }
        | Retry { op, .. }
        | Redirect { op, .. }
        | Failed { op, .. }
        | LastTs { op, .. }
        | LastTsReply { op, .. } => op.0,
        ReplicateEntry { .. } | TableHandoff { .. } => 0,
    }
}

fn chord_op(m: &ChordMsg) -> u64 {
    use ChordMsg::*;
    match m {
        FindSuccessor { op, .. }
        | FoundSuccessor { op, .. }
        | GetPredecessor { op }
        | PredecessorIs { op, .. }
        | Ping { op }
        | Pong { op }
        | Put { op, .. }
        | PutAck { op, .. }
        | Get { op, .. }
        | GetReply { op, .. }
        | Fence { op, .. }
        | FenceAck { op, .. } => op.0,
        _ => 0,
    }
}

/// Span name of a timer upcall, by the chord timer it decodes to (even
/// tags) or the core timer namespace (odd tags).
fn timer_name(tag: u64) -> &'static str {
    if tag & 1 == 1 {
        return "timer.core";
    }
    match chord::ChordTimer::decode(tag >> 1) {
        Some(chord::ChordTimer::Stabilize) => "timer.stabilize",
        Some(chord::ChordTimer::FixFingers) => "timer.fix_fingers",
        Some(chord::ChordTimer::CheckPredecessor) => "timer.check_pred",
        Some(chord::ChordTimer::Replicate) => "timer.replicate",
        Some(chord::ChordTimer::OpTimeout(_)) => "timer.op_timeout",
        None => "timer.other",
    }
}

fn mark_of(msg: &Payload, node: u32, at: u64) -> Option<Mark> {
    use kts::KtsMsg;
    let (kind, user, op, doc) = match msg {
        Payload::Cmd(p2p_ltr::UserCmd::Edit { doc, .. }) => (MarkKind::Save, node, 0, doc.clone()),
        Payload::Kts(KtsMsg::Validate {
            op, key_name, user, ..
        }) => (MarkKind::Validate, user.addr.0, op.0, key_name.to_string()),
        Payload::Kts(KtsMsg::Granted { op, .. }) => (MarkKind::Granted, node, op.0, String::new()),
        Payload::Kts(KtsMsg::Retry { op, .. }) => (MarkKind::Retry, node, op.0, String::new()),
        Payload::Kts(KtsMsg::Redirect { op } | KtsMsg::Failed { op, .. }) => {
            (MarkKind::Other, node, op.0, String::new())
        }
        _ => return None,
    };
    Some(Mark {
        kind,
        user,
        op,
        doc,
        at,
    })
}

/// Request phases, ms, by message arrival: `route` (save, or the ack
/// that resumed a merged cycle → `Validate` at the master), `master`
/// (`Validate` → `Granted`/`Retry` at the user) and `retrieve` (`Retry`
/// → the next `Validate`).
#[derive(Clone, Debug, Default)]
pub struct Phases {
    /// Save → `Validate` at the master.
    pub route: Vec<f64>,
    /// `Validate` → reply at the user.
    pub master: Vec<f64>,
    /// `Retry` → next `Validate`.
    pub retrieve: Vec<f64>,
}

#[derive(Default)]
struct Cycle {
    /// When the current cycle began (a save, or an ack resuming merged saves).
    start: Option<u64>,
    /// `start` was left by an ack, not a save.
    resumed: bool,
    /// When the last `Retry` arrived.
    retry: Option<u64>,
}

/// Split the milestones of every save into [`Phases`].
pub fn phases(marks: &[Mark]) -> Phases {
    let mut out = Phases::default();
    // (user, doc) -> cycle state
    let mut cycle: BTreeMap<(u32, &str), Cycle> = BTreeMap::new();
    // (user, op) -> (doc, validate arrival)
    let mut inflight: BTreeMap<(u32, u64), (&str, u64)> = BTreeMap::new();
    let ms = |d: u64| d as f64 / 1000.0;
    for m in marks {
        match m.kind {
            MarkKind::Save => {
                let busy = inflight
                    .iter()
                    .any(|((u, _), (d, _))| *u == m.user && *d == m.doc);
                let c = cycle.entry((m.user, m.doc.as_str())).or_default();
                // A save while idle starts a cycle; it also replaces the
                // mark an ack left for a resume that never came.
                if !busy && c.retry.is_none() && (c.start.is_none() || c.resumed) {
                    c.start = Some(m.at);
                    c.resumed = false;
                }
            }
            MarkKind::Validate => {
                let c = cycle.entry((m.user, m.doc.as_str())).or_default();
                if let Some(r) = c.retry.take() {
                    out.retrieve.push(ms(m.at.saturating_sub(r)));
                } else if let Some(s) = c.start.take() {
                    out.route.push(ms(m.at.saturating_sub(s)));
                }
                c.resumed = false;
                inflight.insert((m.user, m.op), (m.doc.as_str(), m.at));
            }
            MarkKind::Granted | MarkKind::Retry | MarkKind::Other => {
                let Some((doc, sent)) = inflight.remove(&(m.user, m.op)) else {
                    continue;
                };
                if m.kind == MarkKind::Other {
                    continue;
                }
                out.master.push(ms(m.at.saturating_sub(sent)));
                let c = cycle.entry((m.user, doc)).or_default();
                if m.kind == MarkKind::Retry {
                    c.retry = Some(m.at);
                } else {
                    // Saves merged into the cycle resume at this ack.
                    c.start = Some(m.at);
                    c.resumed = true;
                }
            }
        }
    }
    out
}

/// An `LtrNode` whose upcalls are timed: `on_message` by the payload's
/// wire class, `on_timer` by timer kind, user commands as `cmd`.
pub struct TracedNode {
    /// The unmodified node.
    pub inner: LtrNode,
    tracer: SharedTracer,
    node: u32,
}

impl TracedNode {
    /// Wrap `inner`, which runs at address `node`.
    pub fn new(inner: LtrNode, tracer: SharedTracer) -> Self {
        let node = inner.me().addr.0;
        TracedNode {
            inner,
            tracer,
            node,
        }
    }
}

impl Process<Payload> for TracedNode {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Payload>) {
        let t = self.tracer.clone();
        span(&t, "start", self.node, 0, || self.inner.on_start(ctx));
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Payload>, from: NodeId, msg: Payload) {
        let t = self.tracer.clone();
        let (name, id) = (msg.wire_class(), payload_id(&msg));
        if let Some(mark) = mark_of(&msg, self.node, ctx.now().as_micros()) {
            t.borrow_mut().marks.push(mark);
        }
        span(&t, name, self.node, id, || {
            self.inner.on_message(ctx, from, msg)
        });
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Payload>, tag: u64) {
        let t = self.tracer.clone();
        span(&t, timer_name(tag), self.node, 0, || {
            self.inner.on_timer(ctx, tag)
        });
    }

    fn on_stop(&mut self, ctx: &mut Ctx<'_, Payload>) {
        let t = self.tracer.clone();
        span(&t, "stop", self.node, 0, || self.inner.on_stop(ctx));
    }
}

/// A `wire::Transport` whose calls are timed and whose traffic is counted.
/// With no tracer it only counts (the untraced runs use it for bytes).
pub struct CountingTransport<T> {
    inner: T,
    tracer: Option<SharedTracer>,
    node: u32,
    /// Shared counters of every endpoint of one network.
    stats: Rc<RefCell<TransportStats>>,
}

/// Traffic seen by the wrapped transports.
#[derive(Clone, Debug, Default)]
pub struct TransportStats {
    /// `send_batch` calls.
    pub sends: u64,
    /// Frames accepted.
    pub frames_sent: u64,
    /// Bytes of accepted frames (header included).
    pub bytes_sent: u64,
    /// Calls that took fewer frames than offered.
    pub backpressure: u64,
    /// Frames handed up by `recv_batch`.
    pub frames_recv: u64,
}

impl<T: Transport> CountingTransport<T> {
    /// Wrap the endpoint of `node`.
    pub fn new(
        inner: T,
        node: u32,
        tracer: Option<SharedTracer>,
        stats: Rc<RefCell<TransportStats>>,
    ) -> Self {
        CountingTransport {
            inner,
            tracer,
            node,
            stats,
        }
    }

    fn timed<R>(&mut self, name: &'static str, f: impl FnOnce(&mut T) -> R) -> R {
        match self.tracer.clone() {
            Some(t) => span(&t, name, self.node, 0, || f(&mut self.inner)),
            None => f(&mut self.inner),
        }
    }
}

impl<T: Transport> Transport for CountingTransport<T> {
    fn send_batch(&mut self, to: NodeId, frames: &[Bytes]) -> Result<usize, TransportError> {
        let r = self.timed("wire.send_batch", |t| t.send_batch(to, frames));
        let mut s = self.stats.borrow_mut();
        s.sends += 1;
        match &r {
            Ok(n) => {
                s.frames_sent += *n as u64;
                s.bytes_sent += frames[..*n].iter().map(|f| f.len() as u64).sum::<u64>();
                if *n < frames.len() {
                    s.backpressure += 1;
                }
            }
            Err(TransportError::Backpressure) => s.backpressure += 1,
            Err(_) => {}
        }
        r
    }

    fn recv_batch(&mut self, out: &mut Vec<Bytes>, max: usize) -> usize {
        let n = self.timed("wire.recv_batch", |t| t.recv_batch(out, max));
        self.stats.borrow_mut().frames_recv += n as u64;
        n
    }

    fn poll(&mut self, timeout: std::time::Duration) -> Readiness {
        self.timed("wire.poll", |t| t.poll(timeout))
    }
}

/// A `store::Store` whose `append` and `replay` are timed.
pub struct TracedStore {
    inner: Box<dyn Store>,
    tracer: SharedTracer,
    node: u32,
}

impl TracedStore {
    /// Wrap the journal of `node`.
    pub fn new(inner: Box<dyn Store>, node: u32, tracer: SharedTracer) -> Self {
        TracedStore {
            inner,
            tracer,
            node,
        }
    }
}

impl Store for TracedStore {
    fn append(&mut self, entry: &StoreEntry) -> Result<(), StoreError> {
        let t = self.tracer.clone();
        span(&t, "store.append", self.node, 0, || {
            self.inner.append(entry)
        })
    }

    fn replay(&self) -> Result<Replay, StoreError> {
        span(&self.tracer, "store.replay", self.node, 0, || {
            self.inner.replay()
        })
    }

    fn checkpoint(&mut self) -> Result<(), StoreError> {
        self.inner.checkpoint()
    }

    fn handle(&self) -> Box<dyn Store> {
        Box::new(TracedStore {
            inner: self.inner.handle(),
            tracer: self.tracer.clone(),
            node: self.node,
        })
    }

    fn is_recording(&self) -> bool {
        self.inner.is_recording()
    }

    fn entry_count(&self) -> u64 {
        self.inner.entry_count()
    }

    fn describe(&self) -> String {
        format!("traced {}", self.inner.describe())
    }
}
