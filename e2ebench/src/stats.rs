//! Turning node event logs into the end-to-end latencies: save → ack,
//! ack → reconcile at every other open replica, late-reader catch-up and
//! time without service after a master crash.
//!
//! All times are µs on the clock the nodes saw: simulated time on the
//! `sim_*` workloads, wall time since the runner started on
//! `socket_service`.

use std::collections::BTreeMap;

use p2p_ltr::{LtrEvent, LtrEventKind};

/// One save the generator issued.
#[derive(Clone, Copy, Debug)]
pub struct Save {
    /// Peer address.
    pub peer: u32,
    /// Document index.
    pub doc: usize,
    /// When the save was due (open loop) or issued (closed loop).
    pub due: u64,
    /// When the peer handled it, or the best lower bound known.
    pub handled: u64,
}

/// A document opened at a peer.
#[derive(Clone, Copy, Debug)]
pub struct Open {
    /// Peer address.
    pub peer: u32,
    /// Document index.
    pub doc: usize,
    /// When the peer handled the `OpenDoc`.
    pub at: u64,
    /// True for a late reader whose catch-up is measured.
    pub late: bool,
}

/// The events of one node incarnation.
pub struct NodeLog<'a> {
    /// Peer address.
    pub peer: u32,
    /// When this incarnation started (0 for the first).
    pub since: u64,
    /// Its event log.
    pub events: &'a [LtrEvent],
}

/// Latency samples of one run, in ms.
#[derive(Clone, Debug, Default)]
pub struct Latencies {
    /// Saves issued.
    pub issued: u64,
    /// Saves without an ack.
    pub failed: u64,
    /// Due → ack, one per acked save.
    pub save_ack: Vec<f64>,
    /// Ack → integrated at another replica open at ack time.
    pub reconcile: Vec<f64>,
    /// Late open → integrated the doc's last_ts as of the open.
    pub catchup: Vec<f64>,
    /// Master crash → first ack on a doc it mastered.
    pub unavailable: Vec<f64>,
    /// Acks (own publishes) in the run.
    pub acks: u64,
}

/// Nearest-rank percentile of `v` (sorted in place).
pub fn percentile(v: &mut [f64], q: f64) -> Option<f64> {
    if v.is_empty() {
        return None;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    Some(v[rank - 1])
}

/// The percentile if at least ten samples lie beyond it, else `None`.
pub fn supported(v: &mut [f64], q: f64) -> Option<f64> {
    if (v.len() as f64) * (1.0 - q) < 10.0 - 1e-9 {
        return None;
    }
    percentile(v, q)
}

fn ms(us: u64) -> f64 {
    us as f64 / 1000.0
}

/// Match saves to acks and derive every latency. `docs` names documents
/// by index; `crashes` lists `(time, docs the crashed peer mastered)`;
/// reconcile samples count only records acked at or after `from`.
pub fn latencies(
    from: u64,
    docs: &[String],
    saves: &[Save],
    opens: &[Open],
    logs: &[NodeLog<'_>],
    crashes: &[(u64, Vec<usize>)],
) -> Latencies {
    let doc_ix: BTreeMap<&str, usize> = docs
        .iter()
        .enumerate()
        .map(|(i, d)| (d.as_str(), i))
        .collect();
    // Own publishes per (peer, doc): (ack time, cycle start), in order.
    let mut acks: BTreeMap<(u32, usize), Vec<(u64, u64)>> = BTreeMap::new();
    // (doc, ts) -> ack time at its author.
    let mut acked_at: BTreeMap<(usize, u64), u64> = BTreeMap::new();
    // Per doc: every ack time (for time-without-service).
    let mut doc_acks: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    // Per doc: (grant time, ts) at any master.
    let mut grants: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for log in logs {
        for e in log.events {
            let at = e.at.as_micros();
            match &e.kind {
                LtrEventKind::OwnPublished {
                    doc,
                    ts,
                    latency_ms,
                } => {
                    let Some(&d) = doc_ix.get(&**doc) else {
                        continue;
                    };
                    let cycle = at.saturating_sub((latency_ms * 1000.0).round() as u64);
                    acks.entry((log.peer, d)).or_default().push((at, cycle));
                    acked_at.insert((d, *ts), at);
                    doc_acks.entry(d).or_default().push(at);
                }
                LtrEventKind::MasterGranted { doc, ts } => {
                    if let Some(&d) = doc_ix.get(&**doc) {
                        grants.entry(d).or_default().push((at, *ts));
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = Latencies {
        issued: saves.len() as u64,
        acks: acks.values().map(|v| v.len() as u64).sum(),
        ..Latencies::default()
    };

    // Save -> ack. A save is covered by the first own publish at that
    // peer and doc after it was handled whose cycle began at or after it,
    // or after which nothing was left pending: a cycle that had to
    // retrieve re-validates everything saved meanwhile, and a node with
    // pending edits starts its next cycle at the very instant of the ack.
    let mut by_holder: BTreeMap<(u32, usize), Vec<&Save>> = BTreeMap::new();
    for s in saves {
        by_holder.entry((s.peer, s.doc)).or_default().push(s);
    }
    for (key, mut list) in by_holder {
        list.sort_by_key(|s| s.handled);
        let published = acks.get(&key).map(Vec::as_slice).unwrap_or(&[]);
        let drained = |i: usize| {
            published
                .get(i + 1)
                .is_none_or(|next| next.1 != published[i].0)
        };
        let mut i = 0;
        for s in list {
            while i < published.len()
                && !(published[i].0 > s.handled && (published[i].1 >= s.handled || drained(i)))
            {
                i += 1;
            }
            match published.get(i) {
                Some(&(at, _)) => out.save_ack.push(ms(at.saturating_sub(s.due))),
                None => out.failed += 1,
            }
        }
    }

    // Ack -> integrated at each other replica that was open (in this
    // incarnation) when the ack happened. Integration before the author
    // saw its own ack counts as zero.
    let open_at: BTreeMap<(u32, usize), u64> =
        opens.iter().map(|o| ((o.peer, o.doc), o.at)).collect();
    for log in logs {
        for e in log.events {
            let LtrEventKind::Integrated {
                doc,
                ts,
                own: false,
                ..
            } = &e.kind
            else {
                continue;
            };
            let Some(&d) = doc_ix.get(&**doc) else {
                continue;
            };
            let Some(&ack) = acked_at.get(&(d, *ts)) else {
                continue;
            };
            let opened = open_at.get(&(log.peer, d)).copied().unwrap_or(u64::MAX);
            if ack >= from && opened <= ack && log.since <= ack {
                out.reconcile.push(ms(e.at.as_micros().saturating_sub(ack)));
            }
        }
    }

    // Late readers: open -> integrated the last_ts granted before the open.
    let mut integrated: BTreeMap<(u32, usize), Vec<(u64, u64)>> = BTreeMap::new();
    for log in logs {
        for e in log.events {
            if let LtrEventKind::Integrated { doc, ts, .. } = &e.kind {
                if let Some(&d) = doc_ix.get(&**doc) {
                    integrated
                        .entry((log.peer, d))
                        .or_default()
                        .push((e.at.as_micros(), *ts));
                }
            }
        }
    }
    for o in opens.iter().filter(|o| o.late) {
        let target = grants
            .get(&o.doc)
            .map(|g| {
                g.iter()
                    .filter(|(at, _)| *at <= o.at)
                    .map(|(_, ts)| *ts)
                    .max()
                    .unwrap_or(0)
            })
            .unwrap_or(0);
        if target == 0 {
            continue;
        }
        let done = integrated
            .get(&(o.peer, o.doc))
            .and_then(|v| v.iter().find(|(at, ts)| *ts >= target && *at >= o.at))
            .map(|(at, _)| *at);
        if let Some(at) = done {
            out.catchup.push(ms(at.saturating_sub(o.at)));
        }
    }

    // Master crash -> first ack on each doc it mastered.
    for v in doc_acks.values_mut() {
        v.sort_unstable();
    }
    for (at, mastered) in crashes {
        for d in mastered {
            let first = doc_acks
                .get(d)
                .and_then(|v| v.iter().find(|&&t| t > *at).copied());
            if let Some(t) = first {
                out.unavailable.push(ms(t - at));
            }
        }
    }
    out
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time this (single-threaded) process has run, ns, from
/// `/proc/self/schedstat`; falls back to a monotonic wall clock.
pub fn cpu_ns() -> u64 {
    std::fs::read_to_string("/proc/self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| {
            static START: std::sync::OnceLock<std::time::Instant> = std::sync::OnceLock::new();
            START
                .get_or_init(std::time::Instant::now)
                .elapsed()
                .as_nanos() as u64
        })
}

/// Median of `v` (sorted in place); 0 for an empty slice.
pub fn median(v: &mut [f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}
