//! End-to-end and per-layer benchmark of the stamped edit: a save is
//! stamped by its document's Master-key peer, published to the P2P-Log and
//! acknowledged, then every other open replica reconciles it.
//!
//! Four workloads drive the unmodified `LtrNode` stack: three on the
//! deterministic simulator (`sim_*`, latencies in simulated ms) and one
//! over real loopback sockets (`socket_service`, latencies in wall ms).
//! See `README.md` next to this crate for every metric and workload.

pub mod sim;
pub mod socket;
pub mod stats;
pub mod trace;

use std::collections::BTreeMap;

use stats::Latencies;
use trace::Tracer;

/// The wiki edit mix of every workload: inserts and line rewrites, no
/// pure deletes. Every save then carries a unique new line, so no save
/// can be absorbed by a concurrent identical edit: a save without an ack
/// is a failure.
pub fn edit_mix() -> workload::editors::EditMix {
    workload::editors::EditMix {
        insert: 5,
        delete: 0,
        change: 4,
    }
}

/// A named value with its unit.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Value {
    /// The number.
    pub v: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Named values, sorted by name.
pub type Values = BTreeMap<String, Value>;

/// Insert `name = v unit`.
pub fn put(m: &mut Values, name: &str, v: f64, unit: &'static str) {
    m.insert(name.to_owned(), Value { v, unit });
}

/// What one repetition of a workload measured.
#[derive(Default)]
pub struct Rep {
    /// Set-up wall time, s (build, join, opens, history), up to the
    /// predicates that say each is done.
    pub setup_s: f64,
    /// On-CPU ms of the measured phase per second of it (simulated s on
    /// `sim_*`, wall s on `socket_service`).
    pub cpu_ms_per_s: f64,
    /// Encoded bytes on the wire per second of the measured phase, kB.
    pub wire_kb_per_s: f64,
    /// Latency samples.
    pub lat: Latencies,
    /// Closed-loop acks per wall second (socket only).
    pub saturation: Option<f64>,
    /// How late the open-loop generator sent each save, ms (socket only).
    pub late_ms: Vec<f64>,
    /// Counts that repeat exactly for a seed (simulator only).
    pub exact: Values,
    /// Per-layer values from the traced repetition.
    pub layers: Values,
    /// Length of the measured phase, s.
    pub drive_s: f64,
    /// Failed correctness checks.
    pub failures: Vec<String>,
    /// Human-readable notes (oracle summary, counts).
    pub notes: Vec<String>,
    /// The spans of a traced repetition's measured phase.
    pub spans: Option<trace::SharedTracer>,
}

/// The layer a message class or timer span belongs to, with the name of
/// its busy-time metric.
fn layer_of(name: &str) -> Option<&'static str> {
    Some(match name {
        "chord.find_successor" | "chord.found_successor" => "chord.route",
        "chord.get_predecessor"
        | "chord.predecessor_is"
        | "chord.notify"
        | "chord.ping"
        | "chord.pong"
        | "chord.transfer_keys"
        | "chord.leave_to_succ"
        | "chord.leave_to_pred" => "chord.stabilize",
        "chord.put" | "chord.put_ack" => "p2plog.publish",
        "chord.get" | "chord.get_reply" => "p2plog.retrieve",
        "chord.fence" | "chord.fence_ack" => "kts.fence",
        "kts.validate" | "kts.granted" | "kts.retry" | "kts.redirect" | "kts.failed" => {
            "kts.validate"
        }
        "kts.last_ts" | "kts.last_ts_reply" => "kts.last_ts",
        "kts.replicate_entry" | "kts.table_handoff" => "kts.backup",
        "cmd" => "core.cmd",
        n if n == "chord.replicate" || n.starts_with("chord.sync.") => "chord.sync",
        n if n.starts_with("timer.") => "core.timer",
        _ => return None,
    })
}

/// Single message classes counted on their own: `(metric, class)`.
pub const CLASS_COUNTS: [(&str, &str); 3] = [
    ("p2plog.gets", "chord.get"),
    ("kts.validates", "kts.validate"),
    ("kts.fences", "chord.fence"),
];

/// Message count per layer, from per-class counts.
pub fn layer_msgs(per_class: &BTreeMap<String, u64>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (class, n) in per_class {
        if let Some(layer) = layer_of(class) {
            *out.entry(layer).or_default() += n;
        }
    }
    out
}

/// Per-layer values from one traced repetition's spans.
pub fn layer_values(t: &Tracer, acks: u64) -> Values {
    let totals = t.totals();
    let mut out = Values::new();
    let ms = |ns: u64| ns as f64 / 1e6;
    let mut busy: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (name, tot) in &totals {
        if let Some(layer) = layer_of(name) {
            let b = busy.entry(layer).or_default();
            b.0 += tot.calls;
            b.1 += tot.total_ns;
        }
    }
    for layer in [
        "chord.route",
        "chord.stabilize",
        "chord.sync",
        "p2plog.publish",
        "p2plog.retrieve",
        "kts.fence",
        "kts.validate",
        "kts.last_ts",
        "core.cmd",
        "core.timer",
    ] {
        let (calls, ns) = busy.get(layer).copied().unwrap_or_default();
        put(&mut out, &format!("{layer}.busy_ms"), ms(ns), "ms");
        if layer.starts_with("core.") {
            put(&mut out, &format!("{layer}.calls"), calls as f64, "count");
        }
    }
    let get = |n: &str| totals.get(n).cloned().unwrap_or_default();
    let mut timer_durs: Vec<f64> = totals
        .iter()
        .filter(|(n, _)| n.starts_with("timer."))
        .flat_map(|(_, t)| t.durs.iter().map(|&d| d as f64 / 1e3))
        .collect();
    put(
        &mut out,
        "core.timer.p99_us",
        stats::percentile(&mut timer_durs, 0.99).unwrap_or(0.0),
        "us",
    );
    put(
        &mut out,
        "core.timer.replicate_ms",
        ms(get("timer.replicate").total_ns),
        "ms",
    );
    let sim_self = ms(get("simnet.run").self_ns);
    let pump = get("wire.pump");
    put(&mut out, "simnet.self_ms", sim_self, "ms");
    put(&mut out, "wire.runner.pumps", pump.calls as f64, "count");
    put(&mut out, "wire.runner.self_ms", ms(pump.self_ns), "ms");
    put(&mut out, "loop.self_ms", sim_self + ms(pump.self_ns), "ms");
    put(
        &mut out,
        "wire.transport.send_ms",
        ms(get("wire.send_batch").total_ns),
        "ms",
    );
    put(
        &mut out,
        "wire.transport.recv_ms",
        ms(get("wire.recv_batch").total_ns),
        "ms",
    );
    put(
        &mut out,
        "wire.transport.poll_ms",
        ms(get("wire.poll").total_ns),
        "ms",
    );
    let append = get("store.append");
    let mut append_us: Vec<f64> = append.durs.iter().map(|&d| d as f64 / 1e3).collect();
    put(&mut out, "store.append_ms", ms(append.total_ns), "ms");
    put(
        &mut out,
        "store.append_p99_us",
        stats::percentile(&mut append_us, 0.99).unwrap_or(0.0),
        "us",
    );
    put(
        &mut out,
        "store.replay_ms",
        ms(get("store.replay").total_ns),
        "ms",
    );
    put(
        &mut out,
        "bench.generate_ms",
        ms(get("bench.generate").total_ns),
        "ms",
    );

    let mut ph = trace::phases(&t.marks);
    for (name, v) in [
        ("route", &mut ph.route),
        ("master", &mut ph.master),
        ("retrieve", &mut ph.retrieve),
    ] {
        put(
            &mut out,
            &format!("phase.{name}_ms_p50"),
            stats::percentile(v, 0.5).unwrap_or(0.0),
            "ms",
        );
        put(
            &mut out,
            &format!("phase.{name}.count"),
            v.len() as f64,
            "count",
        );
    }
    // Handler calls by message class: the message counts of a run that
    // has no simulator meter (the socket workload).
    let mut per_class: BTreeMap<String, u64> = BTreeMap::new();
    for (name, tot) in &totals {
        if name.starts_with("chord.") || name.starts_with("kts.") || *name == "cmd" {
            per_class.insert(name.to_string(), tot.calls);
        }
    }
    for (layer, n) in layer_msgs(&per_class) {
        put(&mut out, &format!("traced.{layer}.msgs"), n as f64, "count");
    }
    put(
        &mut out,
        "traced.msgs.total",
        per_class.values().sum::<u64>() as f64,
        "count",
    );
    for (key, class) in CLASS_COUNTS {
        let n = per_class.get(class).copied().unwrap_or(0);
        put(&mut out, &format!("traced.{key}"), n as f64, "count");
    }
    put(&mut out, "acks", acks as f64, "count");
    out
}
